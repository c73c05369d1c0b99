// Package diode models the Skyworks SMS7630-061 Schottky diodes and the
// single-stage voltage-doubler rectifier at the heart of the PoWiFi
// harvester (§3.1, Fig. 4).
//
// The model is the classic cycle-averaged analysis of a diode driven by a
// sinusoidal carrier: with drive amplitude Va and a DC reverse bias Vd
// across the diode, the Shockley equation averaged over one RF cycle gives
//
//	I_avg  = Is·(exp(-Vd/nVt)·I0(Va/nVt) − 1)          (rectified current)
//	P_rf   = Va·Is·exp(-Vd/nVt)·I1(Va/nVt)             (RF power absorbed)
//
// where I0/I1 are modified Bessel functions. A doubler stacks two diodes so
// each blocks half the output voltage and both contribute current. These
// two equations plus a parasitic-loss term (junction capacitance current
// through the series resistance, which at 2.45 GHz is a µW-scale effect
// that matters at harvesting power levels) define the full DC operating
// point. SolveAmplitude inverts the RF power for the drive amplitude by a
// safeguarded Newton iteration; OperatingPoint brackets the output voltage
// where source and load currents meet and narrows it by Brent's method.
//
// Everything downstream — the 300 mV cold-start bottleneck of Fig. 1, the
// sensitivity knees and output-power curves of Fig. 10, and the
// update-rate-versus-distance results of Figs. 11–13 — emerges from this
// operating-point solver.
package diode

import "math"

// ThermalVoltage is kT/q at room temperature in volts.
const ThermalVoltage = 0.02585

// Diode is a Schottky diode parameter set.
type Diode struct {
	// Is is the saturation current in amperes. Low-barrier RF Schottky
	// diodes like the SMS7630 have a large Is (microamps), which is what
	// makes them rectify at sub-milliwatt drive.
	Is float64
	// N is the ideality factor.
	N float64
	// Rs is the series resistance in ohms.
	Rs float64
	// Cj is the zero-bias junction capacitance in farads.
	Cj float64
	// BreakdownV is the reverse breakdown voltage in volts. In a doubler
	// the output voltage reverse-stresses the diodes, so the DC output is
	// clamped near this value; the clamp is what compresses the
	// high-power end of Fig. 10. Zero means no breakdown modelled.
	BreakdownV float64
}

// SMS7630 returns the parameter set for the Skyworks SMS7630-061 used by
// the paper (SC-79/0201 package): Is = 5 µA, n = 1.05, Rs = 20 Ω,
// Cj = 0.14 pF, Bv = 2 V, per the Skyworks SPICE model.
func SMS7630() Diode {
	return Diode{Is: 5e-6, N: 1.05, Rs: 20, Cj: 0.14e-12, BreakdownV: 2}
}

// nVt returns the diode's emission coefficient times the thermal voltage.
func (d Diode) nVt() float64 { return d.N * ThermalVoltage }

// Doubler is a single-stage voltage-doubler rectifier (two diodes, two
// coupling capacitors) as in Fig. 4. The paper uses high-Q 10 pF UHF
// capacitors whose loss is negligible next to the diode terms, so the
// coupling capacitors do not appear explicitly.
type Doubler struct {
	Diode Diode
	// FreqHz is the carrier frequency used for parasitic-loss evaluation.
	FreqHz float64
	// PadCj is additional fixed parasitic capacitance (pads, package) in
	// farads, added to the diodes' junction capacitance when computing
	// displacement-current loss and the rectifier's input reactance.
	PadCj float64
}

// OutputCurrent returns the DC current in amperes the doubler sources into
// its output node held at vout volts, when driven by a sinusoid of
// amplitude va volts. Negative results (the load pulling the output above
// what the drive can sustain) are clamped at the reverse saturation floor.
func (r Doubler) OutputCurrent(va, vout float64) float64 {
	nvt := r.Diode.nVt()
	if va < 0 {
		va = 0
	}
	if vout < 0 {
		vout = 0
	}
	a := va / nvt
	logTerm := logI0(a) - vout/(2*nvt)
	return r.Diode.Is * (math.Exp(logTerm) - 1)
}

// RFPower returns the RF power in watts the doubler absorbs from the
// matched source at drive amplitude va and output voltage vout, including
// the conduction term (both diodes) and the parasitic displacement-current
// loss through the series resistance.
func (r Doubler) RFPower(va, vout float64) float64 {
	nvt := r.Diode.nVt()
	if va <= 0 {
		return 0
	}
	if vout < 0 {
		vout = 0
	}
	a := va / nvt
	logTerm := logI1(a) - vout/(2*nvt)
	cond := 2 * va * r.Diode.Is * math.Exp(logTerm)
	return cond + r.parasiticPower(va)
}

// parasiticPower returns the displacement-current loss: each junction
// capacitance conducts i = ωCj·Va through that diode's series resistance on
// every cycle, dissipating ½·(ωCj·Va)²·Rs per diode. Pad capacitance sits
// on the board in front of the diodes, so its current does not cross Rs
// and it contributes only reactance (handled by the matching model).
func (r Doubler) parasiticPower(va float64) float64 {
	w := 2 * math.Pi * r.FreqHz
	i := w * r.Diode.Cj * va
	return 2 * 0.5 * i * i * r.Diode.Rs
}

// maxAmplitude is the largest drive amplitude SolveAmplitude returns
// (0.01 V doubled 14 times): a pacc that even this drive cannot absorb is
// a pathological input, and the solve clamps there.
const maxAmplitude = 0.01 * (1 << 14)

// SolveAmplitude returns the drive amplitude va at which the doubler
// absorbs exactly pacc watts while its output sits at vout volts
// (vout < 0 counts as 0). pacc <= 0 returns 0.
//
// RFPower is smooth, strictly increasing and convex in log–log
// coordinates, so Newton's method on ln P(ln va) = ln pacc converges
// quadratically from a cold start; a [lo, hi] bracket catches any step
// that would leave it and bisects instead. The result agrees with an
// 80-step bisection of RFPower to within a few ulp.
//
//powifi:noalloc
func (r Doubler) SolveAmplitude(pacc, vout float64) float64 {
	return r.solveAmplitude(pacc, vout, 0)
}

// solveAmplitude is SolveAmplitude warm-started from va0 when va0 lies in
// (0, maxAmplitude); otherwise it starts from the small-signal estimate.
//
//powifi:noalloc
func (r Doubler) solveAmplitude(pacc, vout, va0 float64) float64 {
	if pacc <= 0 {
		return 0
	}
	if vout < 0 {
		vout = 0
	}
	nvt := r.Diode.nVt()
	bias := vout / (2 * nvt)
	w := 2 * math.Pi * r.FreqHz * r.Diode.Cj
	kPar := w * w * r.Diode.Rs // parasitic loss is kPar·va²
	va := va0
	if !(va > 0 && va < maxAmplitude) {
		// I1(a) >= a/2, so P(va) >= (Is·e^-bias/nVt + kPar)·va²: this
		// small-signal root never lies below the true one.
		va = math.Sqrt(pacc / (r.Diode.Is*math.Exp(-bias)/nvt + kPar))
		if !(va < maxAmplitude) {
			if r.RFPower(maxAmplitude, vout) < pacc {
				return maxAmplitude
			}
			va = maxAmplitude
		}
		// Large-signal estimate: with I1(a) ≈ e^a/√(2πa), the conduction
		// term alone absorbs pacc where a + ½·ln a ≈ L.
		if L := math.Log(pacc/(2*r.Diode.Is*nvt)) + bias + 0.5*math.Log(2*math.Pi); L > 4 {
			va = math.Min(va, nvt*(L-0.5*math.Log(L)))
		}
	}
	lo, hi := 0.0, maxAmplitude
	converged := false
	for i := 0; i < 200; i++ {
		a := va / nvt
		l1 := logI1(a)
		cond := 2 * va * r.Diode.Is * math.Exp(l1-bias)
		par := r.parasiticPower(va)
		p := cond + par // RFPower(va, vout)
		if p < pacc {
			lo = va
		} else {
			hi = va
		}
		// Elasticity d ln P / d ln va: the conduction term's is
		// a·I0(a)/I1(a) because I1' = I0 − I1/a; the parasitic term's is 2.
		el := (cond*a*math.Exp(logI0(a)-l1) + 2*par) / p
		next := va * math.Exp(math.Log(pacc/p)/el)
		if next == va {
			return va
		}
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		if converged {
			return next
		}
		converged = math.Abs(next-va) <= 1e-9*va
		va = next
	}
	return va
}

// maxVout returns the breakdown clamp on the doubler's output voltage, or
// +Inf when breakdown is not modelled.
func (r Doubler) maxVout() float64 {
	if r.Diode.BreakdownV <= 0 {
		return math.Inf(1)
	}
	return r.Diode.BreakdownV
}

// OpenCircuitVoltage returns the steady-state output voltage with no load,
// i.e. where the rectified current is zero for the given accepted power,
// clamped at the diode breakdown limit.
func (r Doubler) OpenCircuitVoltage(pacc float64) float64 {
	if pacc <= 0 {
		return 0
	}
	nvt := r.Diode.nVt()
	// At open circuit I_out = 0 ⇒ vout = 2·nVt·ln(I0(va/nVt)); va and
	// vout are coupled, so iterate to a fixed point.
	// Each solve starts from the previous iteration's amplitude.
	vout, va := 0.0, 0.0
	for i := 0; i < 60; i++ {
		va = r.solveAmplitude(pacc, vout, va)
		next := 2 * nvt * logI0(va/nvt)
		if next > r.maxVout() {
			next = r.maxVout()
		}
		if math.Abs(next-vout) < 1e-9 {
			vout = next
			break
		}
		vout = next
	}
	return vout
}

// OperatingPoint solves the intersection of the rectifier's DC source
// characteristic with a load characteristic: load(vout) must return the DC
// current the load draws at output voltage vout and be non-decreasing in
// vout: the solve brackets the root and infers signs from that
// monotonicity. It returns the steady-state output voltage and current for
// an accepted RF power pacc.
func (r Doubler) OperatingPoint(pacc float64, load func(vout float64) float64) (vout, iout float64) {
	if pacc <= 0 {
		return 0, 0
	}
	voc := r.OpenCircuitVoltage(pacc)
	f0 := r.netCurrent(pacc, 0, load)
	if f0 <= 0 {
		return 0, 0 // load demands more than short-circuit current
	}
	fvoc := r.netCurrent(pacc, voc, load)
	if fvoc > 0 {
		// Even at the breakdown clamp the source out-supplies the load:
		// the output parks at the clamp and the excess dissipates in
		// reverse breakdown. Delivered current is the load's draw.
		return voc, load(voc)
	}
	vout = r.operatingRoot(pacc, voc, f0, fvoc, load)
	va := r.SolveAmplitude(pacc, vout)
	return vout, r.OutputCurrent(va, vout)
}

// netCurrent returns the source current minus the load current at output
// voltage v; it is decreasing in v.
//
//powifi:noalloc
func (r Doubler) netCurrent(pacc, v float64, load func(float64) float64) float64 {
	va := r.SolveAmplitude(pacc, v)
	return r.OutputCurrent(va, v) - load(v)
}

// operatingRoot returns the output voltage at which netCurrent changes
// sign on [0, voc], given its values f0 > 0 at 0 and fvoc <= 0 at voc.
//
// The answer is the one a 70-step bisection of [0, voc] returns. That
// matters at a step in the load line, such as the Seiko pump's startup
// threshold: the net current jumps across zero there, and the side of the
// step the output parks on decides whether the pump runs. Brent's method
// (zeroin) first narrows the root to (pos, neg], where pos is the highest
// voltage seen with net current > 0 and neg the lowest with net current
// <= 0. The bisection is then replayed, evaluating only the midpoints
// inside that interval and taking every other midpoint's sign from
// monotonicity. The two answers can differ only where rounding makes the
// computed net current non-monotone, within tens of femtovolts of a
// smooth root.
//
//powifi:noalloc
func (r Doubler) operatingRoot(pacc, voc, f0, fvoc float64, load func(float64) float64) float64 {
	const eps = 0x1p-52
	tol := voc * 0x1p-70 // the bisection's own resolution
	pos, neg := 0.0, voc
	a, fa := 0.0, f0
	b, fb := voc, fvoc
	c, fc := a, fa
	d := b - a
	e := d
	for i := 0; i < 200 && fb != 0; i++ {
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d = b - a
			e = d
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*eps*math.Abs(b) + tol/2
		xm := (c - b) / 2
		if math.Abs(xm) <= tol1 {
			break
		}
		var p, q float64
		interp := math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb)
		if interp {
			s := fb / fa
			if a == c { // secant
				p = 2 * xm * s
				q = 1 - s
			} else { // inverse quadratic interpolation
				q = fa / fc
				t := fb / fc
				p = s * (2*xm*q*(q-t) - (b-a)*(t-1))
				q = (q - 1) * (t - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			interp = 2*p < 3*xm*q-math.Abs(tol1*q) && p < math.Abs(0.5*e*q)
		}
		if interp {
			e, d = d, p/q
		} else {
			d, e = xm, xm // bisection
		}
		a, fa = b, fb
		switch {
		case math.Abs(d) > tol1:
			b += d
		case xm > 0:
			b += tol1
		default:
			b -= tol1
		}
		fb = r.netCurrent(pacc, b, load)
		if fb > 0 {
			pos = math.Max(pos, b)
		} else {
			neg = math.Min(neg, b)
		}
	}

	lo, hi := 0.0, voc
	for i := 0; i < 70; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break // lo and hi are adjacent floats: the bisection is stationary
		}
		if mid <= pos || (mid < neg && r.netCurrent(pacc, mid, load) > 0) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// MaxPowerPoint returns the output voltage, current and power at the
// rectifier's maximum-power operating point for accepted power pacc,
// located by golden-section search over [0, Voc]. This is the "available
// power at the rectifier output" the paper measures in Fig. 10.
func (r Doubler) MaxPowerPoint(pacc float64) (vout, iout, pout float64) {
	if pacc <= 0 {
		return 0, 0, 0
	}
	voc := r.OpenCircuitVoltage(pacc)
	p := func(v float64) float64 {
		va := r.SolveAmplitude(pacc, v)
		i := r.OutputCurrent(va, v)
		if i < 0 {
			return 0
		}
		return v * i
	}
	const phi = 0.6180339887498949
	a, b := 0.0, voc
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	for i := 0; i < 60; i++ {
		if p(c) > p(d) {
			b = d
		} else {
			a = c
		}
		c = b - phi*(b-a)
		d = a + phi*(b-a)
	}
	vout = (a + b) / 2
	va := r.SolveAmplitude(pacc, vout)
	iout = r.OutputCurrent(va, vout)
	return vout, iout, vout * iout
}

// InputResistance returns the equivalent series input resistance of the
// rectifier at the given accepted power and output voltage, defined by
// P = Va²/(2R). This feeds the matching-network model: the rectifier's
// impedance moves with drive level, which is why the paper co-designs the
// DC–DC converter (whose MPPT pins the operating point) with the matching
// network.
func (r Doubler) InputResistance(pacc, vout float64) float64 {
	if pacc <= 0 {
		return math.Inf(1)
	}
	va := r.SolveAmplitude(pacc, vout)
	if va <= 0 {
		return math.Inf(1)
	}
	return va * va / (2 * pacc)
}

// InputCapacitance returns the total effective shunt capacitance of the
// rectifier input: both junction capacitances appear in series-aiding
// through the doubler plus the pad parasitics.
func (r Doubler) InputCapacitance() float64 {
	return r.Diode.Cj + r.PadCj
}
