package integration_test

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMultiProcessAudit is the audit subsystem's acceptance scenario as
// real processes: a 3-replica regserver fleet and two regstorm -cluster
// processes, all capturing trace logs, verified offline by regaudit —
// then the same topology with fault-injected (frozen, lying) replicas,
// which regstorm and regaudit must both flag as VIOLATED. This is the
// deployment shape the in-process tests cannot cover: multiple OS
// processes with no shared clock, joined only by their logs.
func TestMultiProcessAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real binaries; skipped with -short")
	}
	bins := buildBinaries(t)

	t.Run("CleanRunChecksClean", func(t *testing.T) {
		dir := t.TempDir()
		cluster, stop := startFleet(t, bins, dir, nil)
		defer stop()

		// Two driver processes on the SAME keys (shared key_prefix)
		// with disjoint identities — a multi-client history only the
		// merged check can verify, since operations from different
		// processes count as concurrent. Each regstorm checks everything
		// in the capture directory and must exit 0. They run one after
		// the other: a driver still running has writes in the replica
		// logs but not yet in its buffered client log, which a peer's
		// verdict could only treat as optional writes, and the checker's
		// search grows exponentially in those.
		specA := writeSpec(t, `"writers": [1, 2], "readers": [1, 2], "key_prefix": "ci", "write_frac": 0.5, "keys": 6, "rate": 200, "duration_ms": 1000`)
		specB := writeSpec(t, `"writers": [3, 4], "readers": [3, 4], "key_prefix": "ci", "write_frac": 0.5, "keys": 6, "rate": 200, "duration_ms": 1000`)
		for _, args := range [][]string{{specA}, {specB, "-seed", "2"}} {
			if out, code := startStorm(t, bins, cluster, args[0], dir, args[1:]...).wait(); code != 0 {
				t.Fatalf("regstorm exit %d, want 0:\n%s", code, out)
			}
		}
		stop() // SIGTERM closes the replicas' trace logs

		out, code := runAudit(t, bins, dir)
		if code != 0 {
			t.Fatalf("regaudit check exit %d:\n%s", code, out)
		}
		if !strings.Contains(out, "verdict: CLEAN") {
			t.Fatalf("no clean verdict:\n%s", out)
		}
		if !strings.Contains(out, "(2 client, 3/3 replicas)") {
			t.Fatalf("expected both client logs and full replica coverage:\n%s", out)
		}
		if strings.Contains(out, "appears in both") {
			t.Fatalf("disjoint identity lists collided:\n%s", out)
		}
	})

	t.Run("StaleReadFaultFlaggedViolated", func(t *testing.T) {
		dir := t.TempDir()
		// Every replica freezes each key after 4 handled requests — still
		// acking writes, serving reads the initial value. One writer and
		// one reader alternate on one key, so a read soon starts after a
		// completed write and is served the initial value: a stale read.
		cluster, stop := startFleet(t, bins, dir, []string{"-fault-stale-after", "4"})
		defer stop()

		spec := writeSpec(t, `"writers": [1], "readers": [1], "write_frac": 0.5, "keys": 1, "rate": 100, "duration_ms": 1000`)
		out, code := startStorm(t, bins, cluster, spec, dir).wait()
		if code != 2 {
			t.Fatalf("regstorm exit %d, want 2 (VIOLATED):\n%s", code, out)
		}

		stop()

		out, code = runAudit(t, bins, dir)
		if code != 2 {
			t.Fatalf("regaudit check exit %d, want 2 (VIOLATED):\n%s", code, out)
		}
		if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "(binding)") {
			t.Fatalf("expected a binding VIOLATED verdict:\n%s", out)
		}
	})
}

// buildBinaries compiles regserver, regstorm and regaudit (with the
// race detector, so the multi-process path gets the same scrutiny the
// in-process tests do) into a temp dir shared by the subtests.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-race", "-o", dir,
		"fastreg/cmd/regserver", "fastreg/cmd/regstorm", "fastreg/cmd/regaudit")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// writeSpec writes a regstorm spec for the fleet startFleet boots (W2R2,
// S=3, t=1, four writers and readers) into a temp dir and returns its
// path; workload holds the workload's JSON members.
func writeSpec(t *testing.T, workload string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := `{"name": "ci", "protocol": "W2R2",
		"fleet": {"servers": 3, "t": 1, "writers": 4, "readers": 4},
		"workload": {"value_size": 32, "timeout_ms": 30000, ` + workload + `}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// storm is one running regstorm -cluster process.
type storm struct {
	cmd *exec.Cmd
	out *bytes.Buffer
}

// startStorm starts regstorm driving cluster with spec, capturing into
// dir (empty = regstorm's own temp dir).
func startStorm(t *testing.T, bins, cluster, spec, dir string, extra ...string) *storm {
	t.Helper()
	args := []string{"-cluster", cluster, "-spec", spec}
	if dir != "" {
		args = append(args, "-capture", dir)
	}
	s := &storm{cmd: exec.Command(filepath.Join(bins, "regstorm"), append(args, extra...)...), out: new(bytes.Buffer)}
	s.cmd.Stdout, s.cmd.Stderr = s.out, s.out
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
	})
	return s
}

// wait returns the process's combined output and exit code.
func (s *storm) wait() (string, int) {
	err := s.cmd.Wait()
	return s.out.String(), exitCode(err)
}

// shapeArgs is the cluster shape every process must agree on.
func shapeArgs(cluster string) []string {
	return []string{"-cluster", cluster, "-t", "1", "-writers", "4", "-readers", "4"}
}

// startFleet launches 3 regservers capturing into dir and waits until
// all listen. stop (idempotent) SIGTERMs them and waits, so their trace
// logs are flushed and closed.
func startFleet(t *testing.T, bins, dir string, extra []string) (cluster string, stop func()) {
	t.Helper()
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", freePort(t))
	}
	cluster = strings.Join(addrs, ",")
	procs := make([]*exec.Cmd, len(addrs))
	for i := range addrs {
		args := append(shapeArgs(cluster), "-replica", fmt.Sprint(i+1), "-capture", dir)
		args = append(args, extra...)
		cmd := exec.Command(filepath.Join(bins, "regserver"), args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = cmd
	}
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		for _, p := range procs {
			p.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range procs {
			p.Wait()
		}
	}
	// Wait for every replica to accept connections.
	for _, a := range addrs {
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				stop()
				t.Fatalf("replica %s never came up", a)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return cluster, stop
}

// runAudit runs `regaudit check dir` and returns its output + exit code.
func runAudit(t *testing.T, bins, dir string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bins, "regaudit"), "check", dir)
	out, err := cmd.CombinedOutput()
	return string(out), exitCode(err)
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

// freePort grabs an ephemeral port. The listener is closed before the
// server binds it — a tiny window another process could steal it, which
// a test rerun absorbs.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}
