package surface

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/harvester"
)

var buildCases = []struct {
	name string
	mk   func() *harvester.Harvester
}{
	{"battery-free", harvester.NewBatteryFree},
	{"battery-charging", harvester.NewBatteryCharging},
}

// TestParallelBuildParity pins that the build's parallelism is output-
// invisible. New at GOMAXPROCS 1 and 4 yields the same grids bit for bit
// (abscissae, curve values, slopes) and the same Stats, exact-eval count
// included. It calls New, not For, so every run really builds: For's
// process cache would make a second run check nothing. Then 16
// goroutines race For on a cleared registry entry, and all must get the
// one surface built for the fingerprint.
func TestParallelBuildParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range buildCases {
		runtime.GOMAXPROCS(1)
		serial := New(c.mk(), DefaultOptions())
		runtime.GOMAXPROCS(4)
		parallel := New(c.mk(), DefaultOptions())
		if a, b := serial.Stats(), parallel.Stats(); a != b {
			t.Errorf("%s: Stats at GOMAXPROCS 1 = %+v, at 4 = %+v", c.name, a, b)
		}
		grids := map[string][2]*grid{"op": {serial.op, parallel.op}}
		if serial.boot != nil || parallel.boot != nil {
			grids["boot"] = [2]*grid{serial.boot, parallel.boot}
		}
		for name, g := range grids {
			if g[0] == nil || g[1] == nil {
				t.Fatalf("%s/%s: grid missing in one build", c.name, name)
			}
			if !sameBits(g[0].xs, g[1].xs) {
				t.Errorf("%s/%s: abscissae differ", c.name, name)
			}
			for k := range g[0].ys {
				if !sameBits(g[0].ys[k], g[1].ys[k]) || !sameBits(g[0].slopes[k], g[1].slopes[k]) {
					t.Errorf("%s/%s: curve %d values or slopes differ", c.name, name, k)
				}
			}
		}

		registry.Delete(Fingerprint(c.mk()))
		got := make([]*Surface, 16)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = For(c.mk())
			}()
		}
		wg.Wait()
		for i, s := range got {
			if s == nil || s != got[0] {
				t.Fatalf("%s: For in goroutine %d gave surface %p, in goroutine 0 %p", c.name, i, s, got[0])
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkSurfaceBuild times one cold surface build (New, bypassing the
// process cache) per harvester, at the benchmark's GOMAXPROCS.
func BenchmarkSurfaceBuild(b *testing.B) {
	for _, c := range buildCases {
		b.Run(c.name, func(b *testing.B) {
			h := c.mk()
			evals := 0
			for i := 0; i < b.N; i++ {
				evals = New(h, DefaultOptions()).Stats().ExactEvals
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/build")
			b.ReportMetric(float64(evals), "evals/build")
		})
	}
}
