package diode

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
	"repro/internal/xrand"
)

func testDoubler() Doubler {
	return Doubler{Diode: SMS7630(), FreqHz: 2.437e9, PadCj: 0.6e-12}
}

func TestLogI0KnownValues(t *testing.T) {
	// I0(0)=1, I0(1)=1.2661, I0(5)=27.2399, I0(10)=2815.72.
	cases := []struct{ x, i0 float64 }{
		{0, 1}, {1, 1.2660658}, {5, 27.239872}, {10, 2815.7166},
	}
	for _, c := range cases {
		got := math.Exp(logI0(c.x))
		if math.Abs(got-c.i0)/c.i0 > 1e-5 {
			t.Errorf("I0(%v) = %v, want %v", c.x, got, c.i0)
		}
	}
}

func TestLogI1KnownValues(t *testing.T) {
	// I1(1)=0.56516, I1(5)=24.3356, I1(10)=2670.99.
	cases := []struct{ x, i1 float64 }{
		{1, 0.5651591}, {5, 24.335642}, {10, 2670.9883},
	}
	for _, c := range cases {
		got := math.Exp(logI1(c.x))
		if math.Abs(got-c.i1)/c.i1 > 1e-5 {
			t.Errorf("I1(%v) = %v, want %v", c.x, got, c.i1)
		}
	}
}

func TestLogI0LargeArgumentAsymptotic(t *testing.T) {
	// For large x, ln I0(x) ≈ x - 0.5·ln(2πx).
	x := 80.0
	want := x - 0.5*math.Log(2*math.Pi*x)
	got := logI0(x)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("logI0(80) = %v, want about %v", got, want)
	}
}

func TestBesselMonotone(t *testing.T) {
	prev0, prev1 := math.Inf(-1), math.Inf(-1)
	for x := 0.01; x < 200; x *= 1.3 {
		l0, l1 := logI0(x), logI1(x)
		if l0 < prev0 || l1 < prev1 {
			t.Fatalf("Bessel logs not monotone at x=%v", x)
		}
		prev0, prev1 = l0, l1
	}
}

func TestOutputCurrentZeroDrive(t *testing.T) {
	r := testDoubler()
	if got := r.OutputCurrent(0, 0); got != 0 {
		t.Errorf("zero-drive zero-bias current = %v, want 0", got)
	}
	// With no drive and positive output voltage the diodes leak backwards.
	if got := r.OutputCurrent(0, 0.5); got >= 0 {
		t.Errorf("reverse-biased unlit doubler current = %v, want negative", got)
	}
}

func TestOutputCurrentDecreasesWithVout(t *testing.T) {
	r := testDoubler()
	va := 0.4
	prev := math.Inf(1)
	for v := 0.0; v < 1.0; v += 0.05 {
		i := r.OutputCurrent(va, v)
		if i >= prev {
			t.Fatalf("output current not decreasing at vout=%v", v)
		}
		prev = i
	}
}

func TestRFPowerIncreasesWithVa(t *testing.T) {
	r := testDoubler()
	prev := -1.0
	for va := 0.0; va < 2; va += 0.05 {
		p := r.RFPower(va, 0.3)
		if p <= prev && va > 0 {
			t.Fatalf("RF power not increasing at va=%v", va)
		}
		prev = p
	}
}

func TestSolveAmplitudeInvertsRFPower(t *testing.T) {
	r := testDoubler()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		pacc := rng.Uniform(1e-7, 3e-3) // -40 dBm .. ~5 dBm
		vout := rng.Uniform(0, 1)
		va := r.SolveAmplitude(pacc, vout)
		back := r.RFPower(va, vout)
		return math.Abs(back-pacc)/pacc < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOpenCircuitVoltageGrowsWithPowerUntilBreakdown(t *testing.T) {
	r := testDoubler()
	prev := -1.0
	for _, dbm := range []float64{-25, -20, -15, -10, -5, 0} {
		v := r.OpenCircuitVoltage(units.DBmToWatts(dbm))
		if v < prev {
			t.Fatalf("Voc decreased at %v dBm: %v < %v", dbm, v, prev)
		}
		if v > r.Diode.BreakdownV {
			t.Fatalf("Voc exceeded breakdown clamp at %v dBm: %v", dbm, v)
		}
		prev = v
	}
	// At strong drive the clamp engages.
	if v := r.OpenCircuitVoltage(units.DBmToWatts(4)); v != r.Diode.BreakdownV {
		t.Errorf("Voc at +4 dBm = %v, want clamped at %v", v, r.Diode.BreakdownV)
	}
}

func TestOpenCircuitVoltageReasonableMagnitude(t *testing.T) {
	// At -17.8 dBm accepted (the paper's battery-free sensitivity) the
	// doubler's open-circuit voltage must comfortably exceed the 300 mV
	// converter threshold — the loaded voltage is what's marginal.
	r := testDoubler()
	v := r.OpenCircuitVoltage(units.DBmToWatts(-17.8))
	if v < 0.3 || v > 1.5 {
		t.Errorf("Voc at -17.8 dBm = %v V, want within (0.3, 1.5)", v)
	}
}

func TestOperatingPointBalancesLoad(t *testing.T) {
	r := testDoubler()
	pacc := units.DBmToWatts(-10)
	rload := 10e3
	vout, iout := r.OperatingPoint(pacc, func(v float64) float64 { return v / rload })
	if vout <= 0 || iout <= 0 {
		t.Fatalf("degenerate operating point: v=%v i=%v", vout, iout)
	}
	if math.Abs(iout-vout/rload)/iout > 1e-3 {
		t.Errorf("KCL violated at operating point: source %v A, load %v A", iout, vout/rload)
	}
}

func TestOperatingPointOverload(t *testing.T) {
	r := testDoubler()
	// A microwatt of input cannot sustain a 10 mA load.
	vout, iout := r.OperatingPoint(1e-6, func(v float64) float64 { return 10e-3 })
	if vout != 0 || iout != 0 {
		t.Errorf("overloaded rectifier should collapse to 0, got v=%v i=%v", vout, iout)
	}
}

func TestMaxPowerPointBelowAcceptedPower(t *testing.T) {
	// Conservation: DC output power can never exceed accepted RF power.
	r := testDoubler()
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		pacc := units.DBmToWatts(rng.Uniform(-25, 5))
		_, _, pout := r.MaxPowerPoint(pacc)
		return pout >= 0 && pout <= pacc*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEfficiencyRisesWithInputPower(t *testing.T) {
	// The defining nonlinearity of Fig. 10: conversion efficiency at the
	// max-power point improves as input power grows.
	r := testDoubler()
	var prev float64
	for _, dbm := range []float64{-20, -15, -10, -5, 0} {
		pacc := units.DBmToWatts(dbm)
		_, _, pout := r.MaxPowerPoint(pacc)
		eff := pout / pacc
		if eff <= prev {
			t.Fatalf("efficiency not rising at %v dBm: %v <= %v", dbm, eff, prev)
		}
		prev = eff
	}
}

func TestMaxPowerPointMagnitude(t *testing.T) {
	// The bare rectifier at its maximum-power point converts a healthy
	// fraction of a strong (+4 dBm) drive but almost nothing at -20 dBm.
	// (Fig. 10's far lower measured output at high power comes from the
	// DC-DC converter's pump-current ceiling, modelled in the harvester
	// package, not from the diodes.)
	r := testDoubler()
	_, _, pHigh := r.MaxPowerPoint(units.DBmToWatts(4))
	if eff := pHigh / units.DBmToWatts(4); eff < 0.2 || eff > 0.8 {
		t.Errorf("MPP efficiency at +4 dBm = %v, want within (0.2, 0.8)", eff)
	}
	_, _, pLow := r.MaxPowerPoint(units.DBmToWatts(-20))
	if uw := units.Microwatts(pLow); uw > 3 {
		t.Errorf("output at -20 dBm = %v µW, want < 3", uw)
	}
}

func TestInputResistanceFiniteAndPositive(t *testing.T) {
	r := testDoubler()
	res := r.InputResistance(units.DBmToWatts(-10), 0.3)
	if res <= 0 || math.IsInf(res, 0) {
		t.Errorf("input resistance = %v", res)
	}
	if r.InputResistance(0, 0) != math.Inf(1) {
		t.Error("zero-power input resistance should be +Inf")
	}
}

func TestInputCapacitanceSum(t *testing.T) {
	r := testDoubler()
	want := r.Diode.Cj + r.PadCj
	if got := r.InputCapacitance(); got != want {
		t.Errorf("InputCapacitance = %v, want %v", got, want)
	}
}

func TestParasiticLossGrowsWithFrequencySquared(t *testing.T) {
	lo := Doubler{Diode: SMS7630(), FreqHz: 1e9}
	hi := Doubler{Diode: SMS7630(), FreqHz: 2e9}
	pl, ph := lo.parasiticPower(0.3), hi.parasiticPower(0.3)
	if math.Abs(ph/pl-4) > 1e-9 {
		t.Errorf("parasitic loss ratio = %v, want 4 (f²)", ph/pl)
	}
}

// bisectAmplitude is the 80-step bisection SolveAmplitude used before the
// Newton solve, kept as the reference the faster solver must reproduce.
func bisectAmplitude(r Doubler, pacc, vout float64) float64 {
	if pacc <= 0 {
		return 0
	}
	lo, hi := 0.0, 0.01
	for r.RFPower(hi, vout) < pacc {
		hi *= 2
		if hi > 100 {
			break
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if r.RFPower(mid, vout) < pacc {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ulpDiff returns how many representable float64 values lie between a
// and b (both non-negative).
func ulpDiff(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

func TestSolveAmplitudeMatchesBisectionOracle(t *testing.T) {
	r := testDoubler()
	var worst uint64
	for lp := -12.0; lp <= -1; lp += 0.05 {
		pacc := math.Pow(10, lp)
		for vout := 0.0; vout <= 2; vout += 0.025 {
			got, want := r.SolveAmplitude(pacc, vout), bisectAmplitude(r, pacc, vout)
			d := ulpDiff(got, want)
			if d > 8 {
				t.Fatalf("SolveAmplitude(%g, %g) = %v, oracle %v: %d ulp apart", pacc, vout, got, want, d)
			}
			worst = max(worst, d)
		}
	}
	t.Logf("worst disagreement with the bisection oracle: %d ulp", worst)
}

func TestSolveAmplitudeEdges(t *testing.T) {
	r := testDoubler()
	for _, p := range []float64{0, -1e-3, math.Inf(-1)} {
		if got := r.SolveAmplitude(p, 0.3); got != 0 {
			t.Errorf("SolveAmplitude(%v, 0.3) = %v, want 0", p, got)
		}
	}
	// A negative output voltage is treated as zero bias.
	for _, p := range []float64{1e-9, 1e-5, 1e-2} {
		if got, want := r.SolveAmplitude(p, -0.5), r.SolveAmplitude(p, 0); got != want {
			t.Errorf("SolveAmplitude(%v, -0.5) = %v, want %v (as at vout = 0)", p, got, want)
		}
	}
	// A drive the solver's largest amplitude cannot absorb clamps there,
	// as the bisection oracle's bracket does: with the output far above
	// any drive, only the parasitic loss absorbs power (≈2.4 W at the
	// clamp).
	for _, p := range []float64{10, math.Inf(1)} {
		got, want := r.SolveAmplitude(p, 1e4), bisectAmplitude(r, p, 1e4)
		if got != maxAmplitude || ulpDiff(got, want) > 8 {
			t.Errorf("SolveAmplitude(%v, 1e4) = %v, want the %v clamp (oracle %v)", p, got, maxAmplitude, want)
		}
	}
}

// TestSolverAllocs pins the rectifier solves to zero allocations: they
// run thousands of times per surface build and per exact-tier bin.
func TestSolverAllocs(t *testing.T) {
	r := testDoubler()
	leak := func(float64) float64 { return 11e-6 }
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += r.SolveAmplitude(1e-5, 0.3) }); n != 0 {
		t.Errorf("SolveAmplitude allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v, i := r.OperatingPoint(1e-5, leak)
		sink += v + i
	}); n != 0 {
		t.Errorf("OperatingPoint allocates %v times per call", n)
	}
	_ = sink
}
