package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the reference Summaries in ref/")

// TestMain lets the test binary stand in for the benchmark binary as an
// end-to-end child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// runFleet runs a workload in this process and returns its report.
func runFleet(t *testing.T, w workload, seed uint64) []byte {
	t.Helper()
	sc, err := w.scenario(seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReferences checks that every workload's reference still matches
// the program at the default seed. Regenerate after a deliberate change
// to the simulation with:
//
//	go test -run TestReferences -update .
func TestReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var rep struct {
				Fleet json.RawMessage `json:"fleet"`
			}
			if err := json.Unmarshal(runFleet(t, w, defaultSeed), &rep); err != nil {
				t.Fatal(err)
			}
			if *update {
				var buf bytes.Buffer
				if err := json.Indent(&buf, rep.Fleet, "", "  "); err != nil {
					t.Fatal(err)
				}
				buf.WriteByte('\n')
				if err := os.WriteFile(filepath.Join("ref", w.name+".json"), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			ref, err := reference(w.name)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareJSON(rep.Fleet, ref); err != nil {
				t.Fatalf("reference drifted (regenerate with -update if deliberate): %v", err)
			}
		})
	}
}

// TestCompareJSON pins the comparison's tolerance: integers exact, other
// numbers within 1e-9 relative.
func TestCompareJSON(t *testing.T) {
	want := []byte(`{"silent_bins": 12, "mean": 100.5, "cdf": [{"x": 1.25}]}`)
	cases := []struct {
		got string
		ok  bool
	}{
		{`{"silent_bins": 12, "mean": 100.5, "cdf": [{"x": 1.25}]}`, true},
		{`{"silent_bins": 12, "mean": 100.50000000001, "cdf": [{"x": 1.25}]}`, true},
		{`{"silent_bins": 13, "mean": 100.5, "cdf": [{"x": 1.25}]}`, false},
		{`{"silent_bins": 12, "mean": 100.5000002, "cdf": [{"x": 1.25}]}`, false},
		{`{"silent_bins": 12, "mean": 100.5, "cdf": [{"x": 1.26}]}`, false},
		{`{"silent_bins": 12, "mean": 100.5, "cdf": []}`, false},
		{`{"silent_bins": 12, "mean": 100.5}`, false},
	}
	for _, c := range cases {
		if err := compareJSON([]byte(c.got), want); (err == nil) != c.ok {
			t.Errorf("compareJSON(%s) = %v, want ok=%v", c.got, err, c.ok)
		}
	}
}

// TestPerturbedReferenceFailsTheRun runs the end-to-end benchmark on the
// quicker workload against a reference with one home-occupancy figure
// moved by one part in a million: every process must count as failed.
func TestPerturbedReferenceFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts benchmark child processes")
	}
	w, err := lookupWorkload("coarse")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference(w.name)
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		HomeOccupancyPct struct {
			Mean json.Number `json:"mean"`
		} `json:"home_occupancy_pct"`
	}
	if err := json.Unmarshal(ref, &s); err != nil {
		t.Fatal(err)
	}
	mean, err := s.HomeOccupancyPct.Mean.Float64()
	if err != nil {
		t.Fatal(err)
	}
	moved, err := json.Marshal(mean * (1 + 1e-6))
	if err != nil {
		t.Fatal(err)
	}
	// The first "mean" key of a Summary is home_occupancy_pct's.
	bad := bytes.Replace(ref, []byte(`"mean": `+s.HomeOccupancyPct.Mean.String()), []byte(`"mean": `+string(moved)), 1)
	if bytes.Equal(bad, ref) {
		t.Fatal("perturbation did not apply")
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ref  []byte
		ok   bool
	}{{"reference", ref, true}, {"perturbed", bad, false}} {
		res, err := endToEnd(exe, w, defaultSeed, 1, t.TempDir(), c.ref)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		okFrac := res.Metrics["ok_frac"].Value
		if c.ok && (!res.Correct || res.Failed != 0 || okFrac != 1) {
			t.Errorf("%s: correct=%v failed=%d ok_frac=%v, want a clean run", c.name, res.Correct, res.Failed, okFrac)
		}
		if !c.ok && (res.Correct || res.Failed != res.Attempted || okFrac != 0) {
			t.Errorf("%s: correct=%v failed=%d/%d ok_frac=%v, want every home failed", c.name, res.Correct, res.Failed, res.Attempted, okFrac)
		}
	}
}
