package integration_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestStormScenarios drives the regstorm binary — built with the race
// detector, so the whole in-process fleet, fault layer and generator run
// under -race — through the checked-in scenarios: the partition+jitter
// smoke must come back binding CLEAN with exit 0, the same seed must
// reproduce the identical fault schedule, the byzantine scenario within
// budget must exit 0 with its declared liar convicted, and the
// over-budget one must be caught as a binding VIOLATED with exit 2.
func TestStormScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the regstorm binary; skipped with -short")
	}
	bins := t.TempDir()
	build := exec.Command("go", "build", "-race", "-o", bins, "fastreg/cmd/regstorm")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	regstorm := filepath.Join(bins, "regstorm")
	spec := func(name string) string { return filepath.Join("..", "..", "scenarios", name) }

	runStorm := func(t *testing.T, args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(regstorm, args...)
		out, err := cmd.CombinedOutput()
		return string(out), exitCode(err)
	}

	t.Run("PartitionJitterChecksClean", func(t *testing.T) {
		out, code := runStorm(t, "-spec", spec("storm-smoke.json"), "-capture", t.TempDir())
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, out)
		}
		if !strings.Contains(out, "verdict: CLEAN") {
			t.Fatalf("no clean verdict:\n%s", out)
		}
		if !strings.Contains(out, "3/3 replicas") || !strings.Contains(out, "FULL — verdicts binding") {
			t.Fatalf("verdict not binding (partial coverage):\n%s", out)
		}
	})

	t.Run("SameSeedSameSchedule", func(t *testing.T) {
		schedule := func(out string) []string {
			var lines []string
			for _, l := range strings.Split(out, "\n") {
				if strings.HasPrefix(l, "schedule:") {
					lines = append(lines, l)
				}
			}
			return lines
		}
		out1, code1 := runStorm(t, "-spec", spec("storm-smoke.json"), "-seed", "99", "-capture", t.TempDir())
		out2, code2 := runStorm(t, "-spec", spec("storm-smoke.json"), "-seed", "99", "-capture", t.TempDir())
		if code1 != 0 || code2 != 0 {
			t.Fatalf("exits %d/%d:\n%s\n---\n%s", code1, code2, out1, out2)
		}
		s1, s2 := schedule(out1), schedule(out2)
		if len(s1) == 0 {
			t.Fatalf("no schedule lines:\n%s", out1)
		}
		if strings.Join(s1, "\n") != strings.Join(s2, "\n") {
			t.Fatalf("same seed, different schedules:\n%v\nvs\n%v", s1, s2)
		}
		out3, _ := runStorm(t, "-spec", spec("storm-smoke.json"), "-seed", "100", "-capture", t.TempDir())
		if strings.Join(s1, "\n") == strings.Join(schedule(out3), "\n") {
			t.Fatal("seeds 99 and 100 produced identical dirseeds")
		}
	})

	t.Run("ByzantineWithinBudgetClean", func(t *testing.T) {
		out, code := runStorm(t, "-spec", spec("byz-clean.json"), "-capture", t.TempDir())
		if code != 0 {
			t.Fatalf("exit %d, want 0 (CLEAN):\n%s", code, out)
		}
		if !strings.Contains(out, "verdict: CLEAN") || strings.Contains(out, "FORGED") {
			t.Fatalf("a forged value reached the checked history:\n%s", out)
		}
		if !regexp.MustCompile(`(?m)^s5 convicted: [1-9][0-9]* stale serves \(declared, within budget 1\)$`).MatchString(out) {
			t.Fatalf("no conviction of the declared liar s5:\n%s", out)
		}
	})

	t.Run("ByzantineOverBudgetViolated", func(t *testing.T) {
		out, code := runStorm(t, "-spec", spec("byz-overbudget.json"), "-capture", t.TempDir())
		if code != 2 {
			t.Fatalf("exit %d, want 2 (VIOLATED):\n%s", code, out)
		}
		if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "(binding)") {
			t.Fatalf("expected a binding VIOLATED verdict:\n%s", out)
		}
		if !strings.Contains(out, "FORGED") {
			t.Fatalf("violation does not trace to the forged value:\n%s", out)
		}
	})
}
