package lint_test

import (
	"testing"

	"fastreg/internal/lint"
	"fastreg/internal/lint/linttest"
)

func TestPooledAlias(t *testing.T) {
	linttest.Run(t, "testdata/pooledalias", lint.PooledAlias)
}

func TestCtxFirst(t *testing.T) {
	linttest.Run(t, "testdata/ctxfirst", lint.CtxFirst)
}

func TestShardLock(t *testing.T) {
	linttest.Run(t, "testdata/shardlock", lint.ShardLock)
}

func TestNilRecv(t *testing.T) {
	linttest.Run(t, "testdata/nilrecv", lint.NilRecv)
}

func TestCaptureOrder(t *testing.T) {
	linttest.Run(t, "testdata/captureorder", lint.CaptureOrder)
}

func TestFrozenSlice(t *testing.T) {
	linttest.Run(t, "testdata/frozenslice", lint.FrozenSlice)
}

// TestRepoClean runs the full suite over the whole module, the same
// check CI's fastreglint step performs: the tree must stay clean (or
// explicitly suppressed) at all times.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and re-typechecks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	res, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range res.BadIgnores {
		t.Errorf("malformed directive: %s", d)
	}
	for _, d := range res.Diags {
		t.Errorf("finding: %s", d)
	}
	t.Logf("suite %s: %d packages, %d suppressed", lint.Version, len(pkgs), len(res.Suppressed))
}
