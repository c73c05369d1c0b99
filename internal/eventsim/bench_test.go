package eventsim

import (
	"testing"
	"time"
)

// BenchmarkKernelSteadyState measures the allocation-free schedule+fire
// cycle with a realistic pending-queue depth: each of the deploy
// sampler's per-channel kernels holds about five events in flight (4.8
// on average, sampled every simulated microsecond over randomized
// homes at 2 ms and 10 ms windows; 15 at most).
func BenchmarkKernelSteadyState(b *testing.B) {
	s := New()
	const depth = 5
	var fire func(ctx any)
	remaining := 0
	fire = func(ctx any) {
		if remaining > 0 {
			remaining--
			s.AfterCtx(time.Microsecond, fire, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		s.Reset()
		remaining = depth
		for j := 0; j < depth; j++ {
			s.AfterCtx(time.Duration(j)*time.Microsecond, fire, nil)
		}
		s.Run()
	}
}
