package diode_test

import (
	"math"
	"testing"

	"repro/internal/diode"
	"repro/internal/harvester"
)

// bisectOperatingPoint is the 70-step bisection OperatingPoint used before
// the bracketed Brent solve, kept as the reference the faster solver must
// reproduce bit for bit.
func bisectOperatingPoint(r diode.Doubler, pacc float64, load func(float64) float64) (vout, iout float64) {
	if pacc <= 0 {
		return 0, 0
	}
	voc := r.OpenCircuitVoltage(pacc)
	lo, hi := 0.0, voc
	f := func(v float64) float64 {
		va := r.SolveAmplitude(pacc, v)
		return r.OutputCurrent(va, v) - load(v)
	}
	if f(0) <= 0 {
		return 0, 0
	}
	if f(voc) > 0 {
		return voc, load(voc)
	}
	for i := 0; i < 70; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	vout = (lo + hi) / 2
	va := r.SolveAmplitude(pacc, vout)
	return vout, r.OutputCurrent(va, vout)
}

// TestOperatingPointMatchesBisectionOracle sweeps accepted power across
// the real converter load lines. The Seiko pump's load jumps from its idle
// leak to v/InputR at the 300 mV startup threshold, so over a band of
// powers the output parks on that step, and which side it lands on
// decides whether the pump runs: there the solver must return exactly
// the bisection's answer, not merely a nearby root. The bq25570's load is
// continuous at its 100 mV operating floor (the ramp starts from zero),
// but its charge decision still switches there. Elsewhere the net current
// is flat enough near the root that solve-level rounding blurs its sign
// over up to tens of femtovolts, and any answer in that blur is as good
// as the bisection's.
func TestOperatingPointMatchesBisectionOracle(t *testing.T) {
	bf := harvester.NewBatteryFree()
	bc := harvester.NewBatteryCharging()
	loads := []struct {
		name  string
		r     diode.Doubler
		load  func(float64) float64
		stepV float64 // converter threshold, or 0 for none
	}{
		{"seiko", bf.Rect, bf.Seiko.InputCurrent, bf.Seiko.StartupV},
		{"seiko-idle", bf.Rect, func(float64) float64 { return bf.Seiko.IdleLeakA }, 0},
		{"bq25570", bc.Rect, bc.BQ.InputCurrent, bc.BQ.MinOperatingV},
		{"resistor", bf.Rect, func(v float64) float64 { return v / 10e3 }, 0},
	}
	for _, l := range loads {
		parked := 0
		for dbm := -45.0; dbm <= 10; dbm += 0.02 {
			pacc := 1e-3 * math.Pow(10, dbm/10)
			gotV, gotI := l.r.OperatingPoint(pacc, l.load)
			wantV, wantI := bisectOperatingPoint(l.r, pacc, l.load)
			if l.stepV > 0 && math.Abs(wantV-l.stepV) < 1e-12 {
				parked++
				if gotV != wantV || gotI != wantI {
					t.Fatalf("%s at %.2f dBm, parked on the %v V step: OperatingPoint = (%v, %v), bisection oracle (%v, %v)",
						l.name, dbm, l.stepV, gotV, gotI, wantV, wantI)
				}
			}
			if (gotV >= l.stepV) != (wantV >= l.stepV) ||
				math.Abs(gotV-wantV) > 1e-13 || math.Abs(gotI-wantI) > 1e-12*math.Abs(wantI) {
				t.Fatalf("%s at %.2f dBm: OperatingPoint = (%v, %v), bisection oracle (%v, %v)",
					l.name, dbm, gotV, gotI, wantV, wantI)
			}
		}
		if l.name == "seiko" && parked == 0 {
			t.Errorf("no accepted power parked the output on the Seiko startup step")
		}
	}
}
