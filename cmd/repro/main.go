// Command repro regenerates the paper's results and prints them as
// EXPERIMENTS.md:
//
//	go run ./cmd/repro > EXPERIMENTS.md
//
// It takes no flags. Every run is on the deterministic simulator with fixed
// seeds, so the output is the same bytes on every machine and build, and
// TestExperimentsUpToDate holds the checked-in file to it.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"fastreg/internal/atomicity"
	"fastreg/internal/chains"
	"fastreg/internal/consistency"
	"fastreg/internal/crucialinfo"
	"fastreg/internal/harness"
	"fastreg/internal/model"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/workload"
)

func main() {
	w := bufio.NewWriter(os.Stdout)
	err := render(w)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// canonical is the configuration of Section 3.1 and Table 1.
var canonical = quorum.Config{S: 5, T: 1, R: 2, W: 2}

const preamble = `# EXPERIMENTS

The paper's results, regenerated by ` + "`go run ./cmd/repro > EXPERIMENTS.md`" + `.
Do not edit this file by hand: ` + "`TestExperimentsUpToDate`" + ` fails when it
differs from the generator's output, so a changed verdict or number shows
up as a reviewed diff.

Every run below is on the deterministic simulator (` + "`internal/model`" + `):
virtual time, fixed seeds, one thread. The numbers are the same on any
machine, with or without ` + "`-race`" + `. One round trip (RTT) is twice the
one-way delay. Throughput and wall-clock costs are regbench's job
(` + "`bench/`" + `), not this file's.
`

// render writes EXPERIMENTS.md.
func render(w io.Writer) error {
	fmt.Fprint(w, preamble)

	section(w, "Table 1 — the design space",
		"Each quadrant at S=5 t=1 W=2 R=2: the paper's verdict next to the measured one,\n"+
			"the bounded explorer's (`model.Skeleton.Explore`) over every script of the\n"+
			"skeleton {w1, w2, r1}, one operation per client, through deviation 3, one\n"+
			"server at a time, each checked for atomicity. A script orders the\n"+
			"round trips globally and at each server; its deviation counts the round\n"+
			"trips servers skip and the pairs they receive out of global order.",
		harness.RenderTable1(harness.Table1()))

	section(w, "Fig 2 — latency of each quadrant",
		"Constant one-way delay 50, five writes per writer and five reads per reader.",
		harness.RenderFig2(harness.Fig2(50)))

	section(w, "Ablation — what W2R2's write-back costs",
		"W2R2's read with and without its write-back round (constant one-way delay\n"+
			"50, four writes and four reads per client). Without the write-back the\n"+
			"read takes one round trip and is no longer atomic.",
		writeBack())

	var b strings.Builder
	for _, s := range []int{3, 5, 7} {
		if err := chainReport(&b, crucialinfo.New(), s, s == 5); err != nil {
			return err
		}
	}
	section(w, "Theorem 1 — the chain argument (Figs 3–7)",
		"`chains.FindViolation` builds chain α, finds the critical server, builds\n"+
			"chains β′/β″/β and the zigzag links against the full-information\n"+
			"fast-write candidate of Section 4.1 (t=1, W=2, R=2), and checks every\n"+
			"execution for atomicity.",
		b.String())

	b.Reset()
	if err := chainReport(&b, protocols.Must("W1R2"), 5, true); err != nil {
		return err
	}
	section(w, "Theorem 1 against the naive fast write",
		"The tag-based W1R2 protocol violates atomicity at the tail of chain α.\n"+
			"Its chain never flips, so phases 2 and 3 do not run.",
		b.String())

	b.Reset()
	for _, k := range []int{2, 3, 4} {
		if err := chainReport(&b, crucialinfo.NewKRound(k), 5, false); err != nil {
			return err
		}
	}
	section(w, "W1Rk — the argument for k-round reads (Section 3)",
		"The same argument at S=5 against full-information candidates whose reads\n"+
			"take k round trips, moving each read's rounds 2…k as one unit.",
		b.String())

	sieve, err := sieveRows()
	if err != nil {
		return err
	}
	section(w, "Fig 8 — the sieve (Section 4.2)",
		"A full-information candidate at S=5 whose affected servers (the\n"+
			"highest-numbered ones) flip their crucial information when R2's first\n"+
			"round trip arrives. The sieve recovers them as Σ1 and finds where R1's\n"+
			"return flips along the shortened chain α̂ on Σ2.",
		sieve)

	section(w, "Fig 9 — the fast-read boundary (Section 5)",
		"W2R1 with R around S/t − 2, each cell explored over {w1, r1 … rk}, k = min(R, 3),\n"+
			"with servers sharing arrival orders in blocks of t, through deviation 4 or\n"+
			"50000 executions; a block's shared skip or swap counts 1 toward the deviation.\n"+
			"A violation settles an infeasible cell; a feasible one reads CLEAN only when a\n"+
			"search one server at a time (t = 1) ran every script through the depth. On\n"+
			"cells beyond scope the paper's verdict is the formula alone.",
		harness.RenderFig9(harness.Fig9([][2]int{{3, 1}, {5, 1}, {6, 2}, {9, 2}, {12, 3}})))

	rows, clean := inconsistency()
	section(w, "Section 7 — how inconsistent each quadrant gets",
		"`consistency.Analyze` over ten seeded runs per quadrant (S=5 t=1 W=2 R=2,\n"+
			"one-way delay uniform in 1–200, five writes and five reads per client):\n"+
			"the worst k-atomicity and the mean stale-read rate.",
		rows)
	if clean {
		fmt.Fprint(w, "\nEvery row reads k=1 and stale rate 0, the impossible quadrants included:\n"+
			"these random schedules never reach their violations, which Table 1\n"+
			"exhibits with the bounded explorer.\n")
	}
	return nil
}

// section writes one "## title" section: prose, then body as a text block.
func section(w io.Writer, title, prose, body string) {
	fmt.Fprintf(w, "\n## %s\n\n%s\n\n```text\n%s```\n", title, prose, body)
}

// writeBack measures W2R2's mean read latency with and without the
// write-back round.
func writeBack() string {
	var b strings.Builder
	for _, v := range []struct {
		name string
		p    register.Protocol
	}{
		{"with write-back", protocols.Must("W2R2")},
		{"no write-back", protocols.NoWriteBack()},
	} {
		sim := model.MustNew(canonical, v.p, model.WithDelay(model.ConstDelay(50)))
		stats := workload.Measure(workload.Run(sim, workload.Mix{WritesPerWriter: 4, ReadsPerReader: 4}))
		fmt.Fprintf(&b, "%-16s read=%.2f RTT\n", v.name, stats[types.OpRead].Mean/100)
	}
	return b.String()
}

// chainReport runs the chain argument against p on s servers and writes
// its summary, with the minimal violating core of the first violation when
// core is set.
func chainReport(b *strings.Builder, p register.Protocol, s int, core bool) error {
	rep, err := chains.FindViolation(p, s)
	if err != nil {
		return fmt.Errorf("chain argument for %s at S=%d: %w", p.Name(), s, err)
	}
	if b.Len() > 0 {
		b.WriteByte('\n')
	}
	b.WriteString(rep.String())
	v := rep.First()
	if v == nil {
		return fmt.Errorf("%s at S=%d: no violation, contradicting Theorem 1", rep.Protocol, s)
	}
	if core {
		h := atomicity.Shrink(v.Outcome.History)
		fmt.Fprintf(b, "  minimal violating core of %s/%s (%d of %d operations):\n",
			v.Phase, v.Execution, len(h.Ops), len(v.Outcome.History.Ops))
		for _, line := range strings.SplitAfter(strings.TrimSuffix(h.String(), "\n"), "\n") {
			b.WriteString("    " + line)
		}
		b.WriteByte('\n')
	}
	return nil
}

// sieveRows runs the Fig 8 sieve with 0, 1 and 2 affected servers.
func sieveRows() (string, error) {
	var b strings.Builder
	for n := 0; n <= 2; n++ {
		var sigma1 []types.ProcID
		for i := 0; i < n; i++ {
			sigma1 = append(sigma1, types.Server(canonical.S-i))
		}
		f, err := chains.NewFamily(crucialinfo.NewWithFlips(types.Reader(2), sigma1), canonical.S)
		if err != nil {
			return "", err
		}
		res, err := f.Sieve()
		if err != nil {
			return "", fmt.Errorf("sieve with %d affected servers: %w", n, err)
		}
		flip := "α̂ never flips"
		if res.Critical != 0 {
			flip = fmt.Sprintf("α̂ flips at Σ2 position %d (s%d)", res.Critical, res.Sigma2Server(res.Critical))
		}
		fmt.Fprintf(&b, "affected=%d  Σ1=%-6s Σ2=%-12s %s\n", n, fmt.Sprint(res.Sigma1), fmt.Sprint(res.Sigma2), flip)
	}
	return b.String(), nil
}

// inconsistency runs the Section 7 measurement over the four quadrants and
// reports whether every row came out k=1 with no stale read.
func inconsistency() (string, bool) {
	var b strings.Builder
	clean := true
	for _, p := range harness.DesignSpace() {
		worstK, stale := 1, 0.0
		const runs = 10
		for seed := int64(1); seed <= runs; seed++ {
			sim := model.MustNew(canonical, p, model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 200)))
			rep := consistency.Analyze(workload.Run(sim, workload.Mix{WritesPerWriter: 5, ReadsPerReader: 5}))
			worstK = max(worstK, rep.KAtomicity)
			stale += rep.StaleRate
		}
		fmt.Fprintf(&b, "%-6s worst k-atomicity=%d  mean stale-read rate=%.3f  (%d runs)\n", p.Name(), worstK, stale/runs, runs)
		clean = clean && worstK == 1 && stale == 0
	}
	return b.String(), clean
}
