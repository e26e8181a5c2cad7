package integration_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestFleetMetricsEndpoint boots a real 3-replica fleet with -debug-addr
// on every process, drives it with a long regstorm -cluster workload,
// and scrapes every /metrics endpoint MID-WORKLOAD — the observability
// acceptance scenario: per-protocol op counters and latency percentiles
// on the client, request counters, batch fan-in and reply-coalescing
// histograms on the replicas, all over plain HTTP with no shared
// process state.
func TestFleetMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real binaries; skipped with -short")
	}
	bins := buildBinaries(t)

	// 3 replicas, each with its own debug address.
	addrs := make([]string, 3)
	debugAddrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", freePort(t))
		debugAddrs[i] = fmt.Sprintf("127.0.0.1:%d", freePort(t))
	}
	cluster := strings.Join(addrs, ",")
	procs := make([]*exec.Cmd, len(addrs))
	for i := range addrs {
		args := append(shapeArgs(cluster),
			"-replica", fmt.Sprint(i+1),
			"-debug-addr", debugAddrs[i])
		cmd := exec.Command(filepath.Join(bins, "regserver"), args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = cmd
	}
	defer func() {
		for _, p := range procs {
			p.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range procs {
			p.Wait()
		}
	}()
	for _, a := range append(append([]string{}, addrs...), debugAddrs...) {
		waitListening(t, a)
	}

	// A workload long enough that the driver is guaranteed to still be
	// mid-flight when we scrape it (race-built binary, real TCP).
	clientDebug := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	spec := writeSpec(t, `"keys": 8, "write_frac": 0.5, "rate": 400, "duration_ms": 4000`)
	client := startStorm(t, bins, cluster, spec, "", "-debug-addr", clientDebug, "-slow-op", "1h")
	waitListening(t, clientDebug)

	// Client mid-workload: per-protocol op counter climbing and a write
	// latency histogram with a live p99.
	var clientSnap metricsSnap
	deadline := time.Now().Add(60 * time.Second)
	for {
		clientSnap = scrape(t, clientDebug)
		if clientSnap.Counters["client.W2R2.ops"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client op counter never moved: %+v", clientSnap.Counters)
		}
		time.Sleep(50 * time.Millisecond)
	}
	wlat, ok := clientSnap.Histograms["client.W2R2.write.latency_ns"]
	if !ok {
		t.Fatalf("no write latency histogram; histograms: %v", histNames(clientSnap))
	}
	if wlat.Count > 0 && wlat.P99 <= 0 {
		t.Fatalf("write latency p99 not populated: %+v", wlat)
	}

	// Every replica mid-workload: requests flowing, batch fan-in and
	// reply coalescing recorded, and the live key count exported. A
	// replica outside the first 2-of-3 quorums may not have handled a
	// request yet when the client's counter moves, so poll each one
	// under the same deadline.
	for i, da := range debugAddrs {
		snap := scrape(t, da)
		for snap.Counters["server.requests"] == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d: no requests counted: %+v", i+1, snap.Counters)
			}
			time.Sleep(50 * time.Millisecond)
			snap = scrape(t, da)
		}
		if h, ok := snap.Histograms["server.batch_fanin"]; !ok || h.Count == 0 {
			t.Fatalf("replica %d: batch fan-in histogram empty", i+1)
		}
		if h, ok := snap.Histograms["server.reply_batch"]; !ok || h.Count == 0 {
			t.Fatalf("replica %d: reply batch histogram empty", i+1)
		}
		if _, ok := snap.Gauges["server.keys"]; !ok {
			t.Fatalf("replica %d: server.keys gauge missing", i+1)
		}
	}

	// /healthz answers on every process.
	for _, da := range append([]string{clientDebug}, debugAddrs...) {
		resp, err := http.Get("http://" + da + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/healthz: %d", da, resp.StatusCode)
		}
	}

	// The workload itself must still finish clean.
	if out, code := client.wait(); code != 0 {
		t.Fatalf("regstorm exit %d, want 0:\n%s", code, out)
	}
}

// metricsSnap mirrors obs.Snapshot's JSON shape, with just the
// histogram fields the assertions need.
type metricsSnap struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
	} `json:"histograms"`
}

func histNames(s metricsSnap) []string {
	var out []string
	for k := range s.Histograms {
		out = append(out, k)
	}
	return out
}

// scrape GETs and decodes one /metrics endpoint.
func scrape(t *testing.T, addr string) metricsSnap {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metricsSnap
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode %s/metrics: %v", addr, err)
	}
	return snap
}

// waitListening polls until addr accepts TCP connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
