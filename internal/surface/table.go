package surface

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// curveSpec describes one function tabulated on a shared grid and the
// accuracy the refinement must certify for it at interval midpoints: an
// interval passes when |interp − exact| ≤ max(relTol·|exact|, absTol).
type curveSpec struct {
	// name labels the curve in diagnostics.
	name string
	// relTol is the relative midpoint tolerance.
	relTol float64
	// absTol is the absolute error below which the curve's digits stop
	// mattering physically (solver rounding near zeros, sub-picoamp
	// currents): without it, values crossing zero would demand infinite
	// resolution. Setting relTol to zero makes the criterion purely
	// absolute, which is how ln Rp — itself already a relative measure of
	// Rp — is certified.
	absTol float64
	// skip, when set, exempts a sample point from this curve's error
	// criterion: an interval is skipped only when skip holds at both
	// endpoints and the midpoint, so intervals straddling a relevance
	// boundary stay certified. This is how the build avoids burning its
	// node budget resolving regions whose values cannot influence any
	// output — e.g. the rectifier voltage far below every converter
	// threshold, where the harvest is identically zero (battery-free) or
	// pinned at the quiescent drain (bq25570) no matter what v is.
	// PCHIP's no-overshoot property still bounds the interpolant by the
	// exact node values there, which is all thresholding needs.
	skip func(exact []float64) bool
}

// grid is a shared, adaptively refined, strictly increasing set of
// abscissae with several curves interpolated over it by monotone cubic
// Hermite splines (Fritsch–Carlson PCHIP). PCHIP preserves monotonicity
// on monotone data and never overshoots the bracketing node values, which
// is what makes the interpolated surface safe to threshold against
// physical cutoffs.
//
// A grid is immutable after build and safe for concurrent readers.
type grid struct {
	xs     []float64   // strictly increasing abscissae
	ys     [][]float64 // ys[c][i]: curve c at xs[i]
	slopes [][]float64 // PCHIP slopes, same shape as ys

	// refinement outcome, for diagnostics and tests
	unresolved int     // intervals that hit the width floor before meeting tol
	maxMidErr  float64 // worst midpoint error as a fraction of its tolerance (≤ 1 = certified)
	evals      int     // exact-solver evaluations spent building
}

// buildSpec parameterizes an adaptive build.
type buildSpec struct {
	xMin, xMax float64
	initNodes  int     // initial uniform node count (≥ 2)
	maxNodes   int     // refinement stops adding nodes past this
	minWidth   float64 // intervals narrower than this are not split further
	maxPasses  int
	curves     []curveSpec
	// eval returns the exact curve values at x; it must be a pure
	// deterministic function of x so the built grid depends only on the
	// spec, never on evaluation order or parallelism.
	eval func(x float64) []float64
}

// buildGrid runs the adaptive refinement: start from a uniform grid,
// then repeatedly test every interval's midpoint against the exact
// solver and insert the midpoints that miss the tolerance. Midpoint
// evaluations are cached, so a tested-and-passed midpoint costs nothing
// when retested after nearby insertions reshape the spline.
func buildGrid(spec buildSpec) *grid {
	if spec.initNodes < 2 {
		spec.initNodes = 2
	}
	nCurves := len(spec.curves)
	g := &grid{}
	cache := make(map[float64][]float64)

	// evalAll puts every abscissa of a batch (distinct values, as every
	// batch below is strictly increasing) into the cache. The misses are
	// split over GOMAXPROCS goroutines by a fixed stride, each writing
	// only its own result slots, and are then stored serially in batch
	// order. Every node value is a pure function of its abscissa, so the
	// grid is identical at any parallelism, and evals counts each miss
	// once.
	evalAll := func(batch []float64) {
		var miss []float64
		for _, x := range batch {
			if _, ok := cache[x]; !ok {
				miss = append(miss, x)
			}
		}
		if len(miss) == 0 {
			return
		}
		vals := make([][]float64, len(miss))
		workers := min(runtime.GOMAXPROCS(0), len(miss))
		run := func(w int) {
			for i := w; i < len(miss); i += workers {
				vals[i] = spec.eval(miss[i])
			}
		}
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(w)
			}()
		}
		run(0)
		wg.Wait()
		for i, x := range miss {
			cache[x] = vals[i]
		}
		g.evals += len(miss)
	}

	xs := make([]float64, spec.initNodes)
	for i := range xs {
		xs[i] = spec.xMin + (spec.xMax-spec.xMin)*float64(i)/float64(spec.initNodes-1)
	}
	evalAll(xs)

	for pass := 0; pass < spec.maxPasses; pass++ {
		ys := gatherCurves(xs, cache, nCurves)
		slopes := pchipSlopes(xs, ys)

		mids := make([]float64, 0, len(xs)-1)
		for i := 0; i+1 < len(xs); i++ {
			if xs[i+1]-xs[i] > spec.minWidth {
				mids = append(mids, 0.5*(xs[i]+xs[i+1]))
			}
		}
		evalAll(mids)

		var insert []float64
		for i := 0; i+1 < len(xs); i++ {
			if xs[i+1]-xs[i] <= spec.minWidth {
				continue
			}
			xm := 0.5 * (xs[i] + xs[i+1])
			exact := cache[xm]
			for c := 0; c < nCurves; c++ {
				if skipInterval(spec.curves[c], cache[xs[i]], cache[xs[i+1]], exact) {
					continue
				}
				got := hermite(xs[i], xs[i+1], ys[c][i], ys[c][i+1], slopes[c][i], slopes[c][i+1], xm)
				if errRatio(spec.curves[c], got, exact[c]) > 1 {
					insert = append(insert, xm)
					break
				}
			}
		}
		if len(insert) == 0 || len(xs) >= spec.maxNodes {
			break
		}
		xs = append(xs, insert...)
		sort.Float64s(xs)
		xs = grade(xs, spec.minWidth)
		evalAll(xs)
	}

	g.xs = xs
	g.ys = gatherCurves(xs, cache, nCurves)
	g.slopes = pchipSlopes(xs, g.ys)

	// Certify: record the worst midpoint error the final spline leaves,
	// and count intervals pinned at the width floor that still miss the
	// tolerance (genuine kinks; callers band those off at query time).
	mids := make([]float64, len(xs)-1)
	for i := range mids {
		mids[i] = 0.5 * (xs[i] + xs[i+1])
	}
	evalAll(mids)
	for i, xm := range mids {
		exact := cache[xm]
		worst := 0.0
		for c := 0; c < nCurves; c++ {
			if skipInterval(spec.curves[c], cache[xs[i]], cache[xs[i+1]], exact) {
				continue
			}
			got := hermite(xs[i], xs[i+1], g.ys[c][i], g.ys[c][i+1], g.slopes[c][i], g.slopes[c][i+1], xm)
			if q := errRatio(spec.curves[c], got, exact[c]); q > worst {
				worst = q
			}
		}
		if worst > g.maxMidErr {
			g.maxMidErr = worst
		}
		if worst > 1 {
			g.unresolved++
		}
	}
	return g
}

// grade enforces a 2:1 bound on adjacent interval width ratios by
// splitting the wider neighbor until the mesh is balanced. Without this,
// refinement never terminates: a node inserted into a dense cluster
// perturbs the PCHIP slopes of its much wider neighbors (the limiter
// weights slopes toward the short side's secant), those neighbors fail
// the midpoint test on the next pass, splitting them perturbs the next
// ring outward, and the refinement front marches forever. A balanced
// mesh keeps the slope perturbation of any insertion local and
// shrinking, so the midpoint test converges. Splitting is deterministic
// (pure function of the sorted abscissae), preserving build determinism.
func grade(xs []float64, minWidth float64) []float64 {
	const ratio = 2.000001 // slack so exact powers of two don't churn
	for {
		var insert []float64
		for i := 0; i+1 < len(xs); i++ {
			w := xs[i+1] - xs[i]
			if w <= minWidth {
				continue
			}
			left := math.Inf(1)
			if i > 0 {
				left = xs[i] - xs[i-1]
			}
			right := math.Inf(1)
			if i+2 < len(xs) {
				right = xs[i+2] - xs[i+1]
			}
			if w > ratio*left || w > ratio*right {
				insert = append(insert, 0.5*(xs[i]+xs[i+1]))
			}
		}
		if len(insert) == 0 {
			return xs
		}
		xs = append(xs, insert...)
		sort.Float64s(xs)
	}
}

// skipInterval reports whether a curve's criterion is waived on an
// interval: only when its skip predicate holds at both endpoints and the
// midpoint.
func skipInterval(c curveSpec, lo, hi, mid []float64) bool {
	return c.skip != nil && c.skip(lo) && c.skip(hi) && c.skip(mid)
}

// errRatio returns the midpoint error as a fraction of the curve's
// tolerance; values ≤ 1 pass.
func errRatio(c curveSpec, got, exact float64) float64 {
	return math.Abs(got-exact) / math.Max(c.relTol*math.Abs(exact), c.absTol)
}

func gatherCurves(xs []float64, cache map[float64][]float64, nCurves int) [][]float64 {
	ys := make([][]float64, nCurves)
	for c := range ys {
		ys[c] = make([]float64, len(xs))
	}
	for i, x := range xs {
		v := cache[x]
		for c := 0; c < nCurves; c++ {
			ys[c][i] = v[c]
		}
	}
	return ys
}

// pchipSlopes returns monotone-limited Hermite slopes for every curve:
// interval-weighted parabolic estimates (second-order accurate on
// non-uniform meshes) clamped by the Hyman/de Boor–Swartz monotonicity
// condition — zero across local extrema, magnitude at most three times
// the smaller adjacent secant. The parabolic estimate matters: the
// classic Fritsch–Carlson harmonic mean biases slopes toward the short
// side's secant at fine/coarse mesh transitions, which poisons the fine
// side's interpolant and makes adaptive refinement march across smooth
// regions instead of terminating. The clamp preserves the property the
// thresholding logic relies on: per-interval monotone interpolation that
// never overshoots the bracketing node values.
func pchipSlopes(xs []float64, ys [][]float64) [][]float64 {
	n := len(xs)
	slopes := make([][]float64, len(ys))
	for c, y := range ys {
		m := make([]float64, n)
		if n == 2 {
			d := (y[1] - y[0]) / (xs[1] - xs[0])
			m[0], m[1] = d, d
			slopes[c] = m
			continue
		}
		h := make([]float64, n-1)
		d := make([]float64, n-1)
		for i := 0; i+1 < n; i++ {
			h[i] = xs[i+1] - xs[i]
			d[i] = (y[i+1] - y[i]) / h[i]
		}
		for i := 1; i+1 < n; i++ {
			m[i] = limitSlope((h[i]*d[i-1]+h[i-1]*d[i])/(h[i-1]+h[i]), d[i-1], d[i])
		}
		m[0] = limitSlope(((2*h[0]+h[1])*d[0]-h[0]*d[1])/(h[0]+h[1]), d[0], d[0])
		m[n-1] = limitSlope(((2*h[n-2]+h[n-3])*d[n-2]-h[n-2]*d[n-3])/(h[n-2]+h[n-3]), d[n-2], d[n-2])
		slopes[c] = m
	}
	return slopes
}

// limitSlope applies the Hyman monotonicity clamp to a slope estimate at
// a node between secants d0 and d1: zero at local extrema, sign matching
// the secants, magnitude at most 3·min(|d0|, |d1|).
func limitSlope(m, d0, d1 float64) float64 {
	if d0*d1 <= 0 {
		return 0
	}
	lim := 3 * math.Min(math.Abs(d0), math.Abs(d1))
	if m*d0 <= 0 {
		return 0
	}
	if math.Abs(m) > lim {
		return math.Copysign(lim, d0)
	}
	return m
}

// hermite evaluates the cubic Hermite segment on [x0, x1] at x.
func hermite(x0, x1, y0, y1, m0, m1, x float64) float64 {
	h := x1 - x0
	t := (x - x0) / h
	t2 := t * t
	t3 := t2 * t
	return y0*(2*t3-3*t2+1) + h*m0*(t3-2*t2+t) + y1*(-2*t3+3*t2) + h*m1*(t3-t2)
}

// at evaluates curve c at x. ok is false outside the grid domain — the
// caller must fall back to the exact solver there, never extrapolate.
func (g *grid) at(c int, x float64) (float64, bool) {
	lo, ok := g.bracket(x)
	if !ok {
		return 0, false
	}
	return g.atIdx(c, lo, x), true
}

// bracket binary-searches for the interval [xs[lo], xs[lo+1]] containing
// x, so multi-curve queries at one abscissa pay for a single search.
func (g *grid) bracket(x float64) (int, bool) {
	xs := g.xs
	if x < xs[0] || x > xs[len(xs)-1] || math.IsNaN(x) {
		return 0, false
	}
	lo, hi := 0, len(xs)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// bracketHint is bracket with a warm start: when x still falls in the
// hinted interval it returns immediately with the exact interval the
// binary search would pick (xs[hint] <= x strictly below xs[hint+1] —
// the half-open test keeps node-exact queries on the same side the
// search puts them). Fixed-point iterations whose abscissa drifts
// slowly hit the fast path almost every step.
func (g *grid) bracketHint(x float64, hint int) (int, bool) {
	xs := g.xs
	if hint >= 0 && hint+1 < len(xs) && xs[hint] <= x && x < xs[hint+1] {
		return hint, true
	}
	return g.bracket(x)
}

// atIdx evaluates curve c at x inside the pre-located interval lo.
func (g *grid) atIdx(c, lo int, x float64) float64 {
	return hermite(g.xs[lo], g.xs[lo+1], g.ys[c][lo], g.ys[c][lo+1], g.slopes[c][lo], g.slopes[c][lo+1], x)
}
