package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"fastreg"
	"fastreg/internal/faultnet"
	"fastreg/internal/loadgen"
	"fastreg/internal/quorum"
)

// Spec is a declarative scenario: the whole run — fleet shape, protocol,
// workload, fault schedule, byzantine count — in one reviewable JSON file,
// so a scenario is data someone can diff rather than a shell script.
// Milliseconds everywhere a duration appears; zero fields take defaults.
type Spec struct {
	Name         string     `json:"name"`
	Protocol     string     `json:"protocol"`
	Seed         int64      `json:"seed"`
	Fleet        FleetSpec  `json:"fleet"`
	VouchedReads int        `json:"vouched_reads"`
	Workload     WorkSpec   `json:"workload"`
	Faults       []RuleSpec `json:"faults"`

	// EpochMS arms the continuous audit: the store cuts a weight-throwing
	// epoch this often, every capture log (client and replica) gets the
	// boundary stamps, and `regaudit follow` can verify the run live.
	EpochMS int `json:"epoch_ms"`
	// RotateBytes caps each capture log segment; rotation exercises the
	// .trlog.N segment families the streaming follower tails.
	RotateBytes int64 `json:"rotate_bytes"`
}

// FleetSpec is the cluster shape.
type FleetSpec struct {
	Servers int `json:"servers"`
	T       int `json:"t"`
	Writers int `json:"writers"`
	Readers int `json:"readers"`
	// Byzantine marks the LAST N replicas as liars (internal/byzantine's
	// LyingServer on the wire) — last, so s1 stays honest and log names
	// alone tell who lied.
	Byzantine int `json:"byzantine"`
}

// WorkSpec parameterizes the open-loop generator (internal/loadgen).
type WorkSpec struct {
	DurationMS int     `json:"duration_ms"`
	Rate       float64 `json:"rate"`
	Keys       int     `json:"keys"`
	ZipfS      float64 `json:"zipf_s"`
	WriteFrac  float64 `json:"write_frac"`
	ValueSize  int     `json:"value_size"`
	TimeoutMS  int     `json:"timeout_ms"`

	// Writers and Readers are the 1-based identities this run drives
	// (default: all of the fleet shape's). Processes sharing a deployed
	// fleet split them: two processes on one identity corrupt its
	// protocol state, and the audit merge flags the collision.
	Writers []int `json:"writers"`
	Readers []int `json:"readers"`
	// KeyPrefix namespaces the key population. It defaults to "k" on a
	// hosted fleet and to a per-run prefix against -cluster: a deployed
	// fleet keeps earlier runs' values, and the checker assumes keys
	// start unwritten. Processes contend on the same keys by naming the
	// same prefix.
	KeyPrefix string `json:"key_prefix"`
}

// RuleSpec is one fault schedule entry. Endpoints are the scenario's
// fixed names: "c" (the client), "s1".."sS", or "*".
type RuleSpec struct {
	From        string  `json:"from"`
	To          string  `json:"to"`
	StartMS     int     `json:"start_ms"`
	EndMS       int     `json:"end_ms"` // 0 = open-ended
	Fault       string  `json:"fault"`  // faultnet palette name: drop, delay, ...
	DelayMS     int     `json:"delay_ms"`
	JitterMS    int     `json:"jitter_ms"`
	BytesPerSec int     `json:"bytes_per_sec"`
	Prob        float64 `json:"prob"`
}

// LoadSpec reads and validates a scenario file. cluster is the deployed
// fleet the run drives (-cluster), nil when regstorm hosts the fleet.
func LoadSpec(path string, cluster []string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields() // a typoed field must not silently become a default
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(cluster); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

func (s *Spec) validate(cluster []string) error {
	if s.Name == "" {
		return fmt.Errorf("spec needs a name")
	}
	known := false
	for _, p := range fastreg.Protocols() {
		if string(p) == s.Protocol {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown protocol %q (have %v)", s.Protocol, fastreg.Protocols())
	}
	if _, err := s.QuorumConfig(); err != nil {
		return fmt.Errorf("fleet: %v", err)
	}
	if s.Fleet.Byzantine < 0 || s.Fleet.Byzantine > s.Fleet.Servers {
		return fmt.Errorf("byzantine count %d out of [0,%d]", s.Fleet.Byzantine, s.Fleet.Servers)
	}
	if s.VouchedReads < 0 {
		return fmt.Errorf("vouched_reads must be >= 0")
	}
	if s.EpochMS < 0 {
		return fmt.Errorf("epoch_ms must be >= 0")
	}
	if s.RotateBytes < 0 {
		return fmt.Errorf("rotate_bytes must be >= 0")
	}
	if s.Workload.DurationMS <= 0 {
		return fmt.Errorf("workload: duration_ms must be positive")
	}
	var err error
	if s.Workload.Writers, err = identities(s.Workload.Writers, s.Fleet.Writers); err != nil {
		return fmt.Errorf("workload.writers: %v", err)
	}
	if s.Workload.Readers, err = identities(s.Workload.Readers, s.Fleet.Readers); err != nil {
		return fmt.Errorf("workload.readers: %v", err)
	}
	if cluster != nil {
		if err := s.validateCluster(len(cluster)); err != nil {
			return err
		}
		if s.Workload.KeyPrefix == "" {
			s.Workload.KeyPrefix = fmt.Sprintf("run-%d-%d/", time.Now().Unix(), os.Getpid())
		}
	}
	for i := range s.Faults {
		if err := s.validateRule(&s.Faults[i]); err != nil {
			return fmt.Errorf("faults[%d]: %v", i, err)
		}
	}
	return nil
}

// validateCluster holds the spec to what a deployed fleet of n replicas
// can run: the shape must name every address, and whatever needs the
// fleet hosted in this process is refused.
func (s *Spec) validateCluster(n int) error {
	switch {
	case n != s.Fleet.Servers:
		return fmt.Errorf("-cluster lists %d replicas, fleet.servers is %d", n, s.Fleet.Servers)
	case len(s.Faults) > 0:
		return errors.New("faults inject at a hosted fleet's listeners; they cannot run with -cluster")
	case s.Fleet.Byzantine > 0:
		return errors.New("fleet.byzantine wraps hosted replicas; with -cluster, start the liars as regserver -byzantine")
	case s.EpochMS > 0:
		return errors.New("epoch_ms stamps replica logs in this process; it cannot run with -cluster")
	}
	return nil
}

// identities resolves one workload identity list against the shape's n
// identities: empty means all of 1..n; otherwise each must be in range
// and listed once.
func identities(ids []int, n int) ([]int, error) {
	if len(ids) == 0 {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i + 1
		}
		return ids, nil
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 1 || id > n {
			return nil, fmt.Errorf("identity %d out of [1,%d]", id, n)
		}
		if seen[id] {
			return nil, fmt.Errorf("identity %d listed twice", id)
		}
		seen[id] = true
	}
	return ids, nil
}

func (s *Spec) validateRule(r *RuleSpec) error {
	if _, ok := faultnet.ParseFaultKind(r.Fault); !ok {
		return fmt.Errorf("unknown fault %q", r.Fault)
	}
	for _, ep := range []string{r.From, r.To} {
		if !s.validEndpoint(ep) {
			return fmt.Errorf("endpoint %q: want \"c\", \"s1\"..\"s%d\" or \"*\"", ep, s.Fleet.Servers)
		}
	}
	if r.EndMS != 0 && r.EndMS <= r.StartMS {
		return fmt.Errorf("window [%d,%d)ms is empty", r.StartMS, r.EndMS)
	}
	return nil
}

func (s *Spec) validEndpoint(ep string) bool {
	if ep == "c" || ep == "*" {
		return true
	}
	for i := 1; i <= s.Fleet.Servers; i++ {
		if ep == fmt.Sprintf("s%d", i) {
			return true
		}
	}
	return false
}

// QuorumConfig derives the validated wire-layer shape.
func (s *Spec) QuorumConfig() (quorum.Config, error) {
	cfg := quorum.Config{S: s.Fleet.Servers, T: s.Fleet.T, R: s.Fleet.Readers, W: s.Fleet.Writers}
	if err := cfg.Validate(); err != nil {
		return quorum.Config{}, err
	}
	return cfg, nil
}

// liars lists the replicas that run the lying server: the last
// Fleet.Byzantine of s1..sS. startFleet wraps exactly these, and the
// verdict declares exactly these untrusted.
func (s *Spec) liars() []int {
	var ids []int
	for i := s.Fleet.Servers - s.Fleet.Byzantine + 1; i <= s.Fleet.Servers; i++ {
		ids = append(ids, i)
	}
	return ids
}

// Rules lowers the schedule to faultnet rules.
func (s *Spec) Rules() []faultnet.Rule {
	out := make([]faultnet.Rule, 0, len(s.Faults))
	for _, r := range s.Faults {
		kind, _ := faultnet.ParseFaultKind(r.Fault)
		out = append(out, faultnet.Rule{
			From:   r.From,
			To:     r.To,
			Window: faultnet.Window{Start: ms(r.StartMS), End: ms(r.EndMS)},
			Fault: faultnet.Fault{
				Kind:        kind,
				Delay:       ms(r.DelayMS),
				Jitter:      ms(r.JitterMS),
				BytesPerSec: r.BytesPerSec,
				Prob:        r.Prob,
			},
		})
	}
	return out
}

// LoadConfig lowers the workload to a loadgen config (seed applied by
// the caller, which owns the -seed override).
func (s *Spec) LoadConfig(seed int64) loadgen.Config {
	w := s.Workload
	return loadgen.Config{
		Seed:      seed,
		Writers:   w.Writers,
		Readers:   w.Readers,
		Keys:      w.Keys,
		KeyPrefix: w.KeyPrefix,
		ZipfS:     w.ZipfS,
		Rate:      w.Rate,
		Duration:  ms(w.DurationMS),
		WriteFrac: w.WriteFrac,
		ValueSize: w.ValueSize,
		OpTimeout: ms(w.TimeoutMS),
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }
