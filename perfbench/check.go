package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro"
)

// refs holds the fleet Summary of every workload at defaultSeed, as
// written by `go test -run TestReferences -update`.
//
//go:embed ref/*.json
var refs embed.FS

// Numeric tolerance of the reference comparison: the repository's golden
// tolerance. Integer fields (home and bin counts, silent-bin decisions)
// must match exactly.
const (
	refRelTol = 1e-9
	refAbsTol = 1e-12
)

func reference(name string) ([]byte, error) {
	return refs.ReadFile("ref/" + name + ".json")
}

// checkReport validates one run's report. Every seed must commit exactly
// the configured homes and bins with nothing failed; at defaultSeed the
// fleet Summary must also match ref.
func checkReport(rep *powifi.Report, w workload, seed uint64, ref []byte) error {
	if rep == nil || rep.Mode != powifi.ModeFleet || rep.Fleet == nil {
		return fmt.Errorf("report has no fleet section")
	}
	s := rep.Fleet
	switch {
	case s.Homes != w.homes:
		return fmt.Errorf("report covers %d homes, configured %d", s.Homes, w.homes)
	case s.Partial:
		return fmt.Errorf("report is partial (%s)", s.PartialReason)
	case s.FailedHomes != 0:
		return fmt.Errorf("%d homes failed", s.FailedHomes)
	case s.TotalBins != uint64(w.homes*w.bins()):
		return fmt.Errorf("report committed %d bins, configured %d", s.TotalBins, w.homes*w.bins())
	case s.HomeOccupancyPct.N != uint64(w.homes):
		return fmt.Errorf("occupancy distribution holds %d homes, configured %d", s.HomeOccupancyPct.N, w.homes)
	}
	if seed != defaultSeed {
		return nil
	}
	got, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return compareJSON(got, ref)
}

// compareJSON reports the first difference between two JSON documents:
// identical structure and strings, integer literals equal, other numbers
// within the reference tolerance.
func compareJSON(got, want []byte) error {
	decode := func(b []byte) (any, error) {
		d := json.NewDecoder(bytes.NewReader(b))
		d.UseNumber()
		var v any
		err := d.Decode(&v)
		return v, err
	}
	g, err := decode(got)
	if err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	w, err := decode(want)
	if err != nil {
		return fmt.Errorf("decoding reference: %w", err)
	}
	return compareValue("$", g, w)
}

func compareValue(path string, got, want any) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: got %T, want an object", path, got)
		}
		if len(g) != len(w) {
			return fmt.Errorf("%s: got %d keys, want %d", path, len(g), len(w))
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("%s: missing key %q", path, k)
			}
			if err := compareValue(path+"."+k, gv, w[k]); err != nil {
				return err
			}
		}
		return nil
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: got %v, want an array of %d", path, got, len(w))
		}
		for i := range w {
			if err := compareValue(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); err != nil {
				return err
			}
		}
		return nil
	case json.Number:
		g, ok := got.(json.Number)
		if !ok {
			return fmt.Errorf("%s: got %v, want %v", path, got, w)
		}
		if isInteger(w) && isInteger(g) {
			if g != w {
				return fmt.Errorf("%s: got %s, want %s", path, g, w)
			}
			return nil
		}
		gf, err1 := g.Float64()
		wf, err2 := w.Float64()
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%s: unparsable number %s / %s", path, g, w)
		}
		if math.Abs(gf-wf) > math.Max(refAbsTol, refRelTol*math.Max(math.Abs(gf), math.Abs(wf))) {
			return fmt.Errorf("%s: got %s, want %s", path, g, w)
		}
		return nil
	default:
		if got != want {
			return fmt.Errorf("%s: got %v, want %v", path, got, want)
		}
		return nil
	}
}

func isInteger(n json.Number) bool {
	return !strings.ContainsAny(string(n), ".eE")
}
