package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLoadSpec covers what LoadSpec accepts and refuses: every
// checked-in scenario loads, and -cluster refuses whatever needs a
// hosted fleet, a shape that does not match its address count, bad
// identity lists and unknown fields.
func TestLoadSpec(t *testing.T) {
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no scenarios found (err %v)", err)
	}
	for _, p := range scenarios {
		if _, err := LoadSpec(p, nil); err != nil {
			t.Errorf("scenario %s: %v", filepath.Base(p), err)
		}
	}

	// spec renders a small valid spec with extra JSON members spliced
	// into fleet, workload and the top level.
	spec := func(fleet, work, top string) string {
		return fmt.Sprintf(`{"name": "t", "protocol": "W2R2",
			"fleet": {"servers": 3, "t": 1, "writers": 2, "readers": 2%s},
			"workload": {"duration_ms": 100, "rate": 10, "keys": 1%s}%s}`, fleet, work, top)
	}
	three := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	cases := []struct {
		name    string
		json    string
		cluster []string
		wantErr string // "" = accepted
	}{
		{name: "hosted", json: spec("", "", "")},
		{name: "cluster", json: spec("", "", ""), cluster: three},
		{name: "identity lists", json: spec("", `, "writers": [2], "readers": [1, 2]`, ""), cluster: three},
		{name: "faults hosted", json: spec("", "", `, "faults": [{"from": "c", "to": "s1", "fault": "drop"}]`)},
		{name: "faults cluster", json: spec("", "", `, "faults": [{"from": "c", "to": "s1", "fault": "drop"}]`), cluster: three, wantErr: "faults"},
		{name: "byzantine cluster", json: spec(`, "byzantine": 1`, "", ""), cluster: three, wantErr: "byzantine"},
		{name: "epochs cluster", json: spec("", "", `, "epoch_ms": 100`), cluster: three, wantErr: "epoch_ms"},
		{name: "cluster too short", json: spec("", "", ""), cluster: three[:2], wantErr: "-cluster lists 2 replicas"},
		{name: "writer out of range", json: spec("", `, "writers": [3]`, ""), wantErr: "workload.writers: identity 3 out of [1,2]"},
		{name: "reader zero", json: spec("", `, "readers": [0]`, ""), wantErr: "workload.readers: identity 0 out of [1,2]"},
		{name: "writer twice", json: spec("", `, "writers": [1, 1]`, ""), wantErr: "workload.writers: identity 1 listed twice"},
		{name: "unknown field", json: spec("", "", `, "epochs_ms": 100`), wantErr: "unknown field"},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("spec%d.json", i))
			if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := LoadSpec(path, tc.cluster)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to name %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			lc := s.LoadConfig(1)
			if len(lc.Writers) == 0 || len(lc.Readers) == 0 {
				t.Fatalf("identity lists not resolved: %+v", lc)
			}
			if tc.name == "hosted" && (!reflect.DeepEqual(lc.Writers, []int{1, 2}) || lc.KeyPrefix != "") {
				t.Fatalf("hosted defaults: writers %v, key prefix %q", lc.Writers, lc.KeyPrefix)
			}
			if (tc.cluster != nil) != (lc.KeyPrefix != "") {
				t.Fatalf("key prefix %q with cluster %v: want a per-run default exactly against -cluster", lc.KeyPrefix, tc.cluster)
			}
		})
	}
}
