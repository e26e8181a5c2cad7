package main

import (
	"fmt"
	"sort"
	"time"

	"fastreg/internal/atomicity"
	"fastreg/internal/history"
)

// keyHistory is one key's recorded execution, with the clock-domain map
// a history merged from several logs needs (nil = one shared clock).
type keyHistory struct {
	key      string
	h        history.History
	domainOf func(history.Op) int
}

// minKeysChecked is the fewest keys a verdict may rest on.
const minKeysChecked = 256

// gateResult is the correctness gate's verdict on one pass.
type gateResult struct {
	clean     bool
	violation string
	keys      int // keys checked
	ops       int // completed operations checked
	totalOps  int // completed operations recorded
	spent     time.Duration
}

func (g gateResult) coverFrac() float64 {
	if g.totalOps == 0 {
		return 0
	}
	return float64(g.ops) / float64(g.totalOps)
}

func (g gateResult) opsPerSec() float64 {
	if g.spent <= 0 {
		return 0
	}
	return float64(g.ops) / g.spent.Seconds()
}

// sampleCheck runs the atomicity checker over keys in ascending order of
// operation count until the next key would overrun budget, its cost
// predicted from the key before it. The checker is quadratic per
// key, so the cheap keys buy the widest cover and the hottest are the
// ones left out; a whole-run Store.Check would not finish. At least
// minKeysChecked keys (or all of them) are checked whatever the budget.
func sampleCheck(keys []keyHistory, budget time.Duration) gateResult {
	sort.Slice(keys, func(i, j int) bool {
		if a, b := len(keys[i].h.Ops), len(keys[j].h.Ops); a != b {
			return a < b
		}
		return keys[i].key < keys[j].key
	})
	g := gateResult{clean: true}
	for _, k := range keys {
		g.totalOps += len(k.h.Completed())
	}
	start := time.Now()
	var nsPerOpSq float64 // the last sizeable key's cost, as ns per (ops squared)
	for i, k := range keys {
		n := float64(len(k.h.Ops))
		if spent := time.Since(start); i >= minKeysChecked && float64(spent)+nsPerOpSq*n*n > float64(budget) {
			break
		}
		t0 := time.Now()
		var res atomicity.Result
		if k.domainOf != nil {
			res = atomicity.CheckDomains(k.h, k.domainOf)
		} else {
			res = atomicity.Check(k.h)
		}
		if n >= 32 { // below that, fixed costs swamp the quadratic term
			nsPerOpSq = float64(time.Since(t0)) / (n * n)
		}
		g.keys++
		g.ops += len(k.h.Completed())
		if !res.Atomic {
			g.clean = false
			g.violation = fmt.Sprintf("key %s: %s", k.key, res)
			break
		}
	}
	g.spent = time.Since(start)
	return g
}

func historiesOf(m map[string]history.History) []keyHistory {
	out := make([]keyHistory, 0, len(m))
	for k, h := range m {
		out = append(out, keyHistory{key: k, h: h})
	}
	return out
}
