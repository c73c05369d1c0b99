package deploy

import (
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/xrand"
)

// randomHome draws an arbitrary home configuration spanning the ranges
// the fleet synthesizer produces (including zero-device and zero-
// neighbor corners).
func randomHome(rng *xrand.Rand) HomeConfig {
	return HomeConfig{
		ID:          1 + rng.Intn(1000),
		Users:       1 + rng.Intn(4),
		Devices:     rng.Intn(13), // 0 devices = no client feed
		NeighborAPs: rng.Intn(41), // 0 APs = no contenders anywhere
		Weekend:     rng.Bool(0.3),
		StartHour:   rng.Intn(24),
		Seed:        rng.Uint64(),
	}
}

// TestPooledSamplerParity is the bit-for-bit contract of the pooled
// context: one Sampler reused across many randomized homes produces
// exactly the streams that fresh per-home contexts produce — same RNG
// draw order, same event order, hence identical floats in every field.
func TestPooledSamplerParity(t *testing.T) {
	rng := xrand.NewFromLabel(7, "sampler/parity")
	pooled := NewSampler()
	opts := Options{
		BinWidth:         45 * time.Minute,
		Window:           3 * time.Millisecond,
		Hours:            3,
		SensorDistanceFt: 9,
	}
	for trial := 0; trial < 12; trial++ {
		cfg := randomHome(rng)
		// Vary the sensor placement too: it exercises the per-device
		// link-budget memo across geometry changes.
		opts.SensorDistanceFt = rng.Uniform(4, 16)

		var fresh, reused []BinSample
		NewSampler().RunStream(cfg, opts, func(s BinSample) { fresh = append(fresh, s) })
		pooled.RunStream(cfg, opts, func(s BinSample) { reused = append(reused, s) })

		if len(fresh) != len(reused) {
			t.Fatalf("trial %d: %d bins fresh vs %d pooled", trial, len(fresh), len(reused))
		}
		for i := range fresh {
			if fresh[i] != reused[i] {
				t.Fatalf("trial %d bin %d: pooled sample diverged\nfresh:  %+v\npooled: %+v",
					trial, i, fresh[i], reused[i])
			}
		}
	}
}

// newSharedSampler builds the historical shared-queue topology: one
// scheduler drives all three channels, the router and the client feed,
// so every event of a bin pops from a single (time, sequence) order.
// It is the oracle for the per-channel kernels NewSampler builds.
func newSharedSampler() (*Sampler, *eventsim.Scheduler) {
	s := eventsim.New()
	return newSampler([3]*eventsim.Scheduler{s, s, s}), s
}

// TestPerChannelKernelsMatchSharedOracle is the channel-independence
// contract: running each channel on its own kernel must reproduce the
// shared-queue sampler bit for bit — every BinSample field and every
// bin's kernel event count. Any cross-channel coupling (a component on
// one channel scheduling onto, or reading the clock of, another) breaks
// it, because the per-channel kernels run each channel's whole window
// before the next starts.
func TestPerChannelKernelsMatchSharedOracle(t *testing.T) {
	rng := xrand.NewFromLabel(11, "sampler/shared-oracle")
	perChannel := NewSampler()
	shared, sharedSched := newSharedSampler()
	homes := make([]HomeConfig, 0, 15)
	for trial := 0; trial < 15; trial++ {
		cfg := randomHome(rng)
		switch trial {
		case 0:
			cfg.Devices = 0 // no client feed
		case 1:
			cfg.NeighborAPs = 0 // no contenders on any channel
		case 2:
			cfg.NeighborAPs = 40 // every contender slot busy
		}
		homes = append(homes, cfg)
	}
	for _, window := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond} {
		opts := Options{BinWidth: 30 * time.Minute, Window: window, Hours: 6, SensorDistanceFt: 9}
		for trial, cfg := range homes {
			var want, got []BinSample
			var wantEvents, gotEvents []uint64
			shared.RunStream(cfg, opts, func(s BinSample) {
				want = append(want, s)
				wantEvents = append(wantEvents, sharedSched.Scheduled())
			})
			perChannel.RunStream(cfg, opts, func(s BinSample) {
				got = append(got, s)
				gotEvents = append(gotEvents, perChannel.scheduled())
			})
			if len(got) != len(want) {
				t.Fatalf("window %v trial %d: %d bins per-channel vs %d shared", window, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("window %v trial %d bin %d: per-channel sample diverged\nshared:      %+v\nper-channel: %+v",
						window, trial, i, want[i], got[i])
				}
				if gotEvents[i] != wantEvents[i] {
					t.Fatalf("window %v trial %d bin %d: %d kernel events per-channel vs %d shared",
						window, trial, i, gotEvents[i], wantEvents[i])
				}
				if wantEvents[i] == 0 {
					t.Fatalf("window %v trial %d bin %d: no kernel events scheduled", window, trial, i)
				}
			}
		}
	}
}

// TestPooledSamplerMatchesPackageRunStream pins the package-level entry
// point to the pooled path on a paper home (the golden suite pins the
// same property at full scale).
func TestPooledSamplerMatchesPackageRunStream(t *testing.T) {
	cfg := PaperHomes()[3]
	opts := Options{BinWidth: time.Hour, Window: 2 * time.Millisecond, Hours: 5, SensorDistanceFt: 10}
	var a, b []BinSample
	RunStream(cfg, opts, func(s BinSample) { a = append(a, s) })
	smp := NewSampler()
	// Run something else first so the pooled context is dirty.
	smp.RunStream(PaperHomes()[0], opts, func(BinSample) {})
	smp.RunStream(cfg, opts, func(s BinSample) { b = append(b, s) })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d: dirty pooled context diverged from RunStream", i)
		}
	}
}

// TestSampleBinAllocBudget pins the tentpole's steady-state allocation
// contract: once pools are warm, one packet-level bin costs at most 10
// heap allocations (in practice zero — the budget leaves headroom for
// the conditional-drive slices the solver layer allocates on booting
// links).
func TestSampleBinAllocBudget(t *testing.T) {
	smp := NewSampler()
	seed, clientLoad, neighborLoad, window := benchBinInputs()
	smp.sampleBin(seed, clientLoad, neighborLoad, window) // warm pools
	bin := 0
	allocs := testing.AllocsPerRun(50, func() {
		bin++
		smp.sampleBin(seed+uint64(bin), clientLoad, neighborLoad, window)
	})
	if allocs > 10 {
		t.Errorf("steady-state sampleBin allocs/bin = %v, budget is 10", allocs)
	}
	t.Logf("steady-state allocs/bin = %v", allocs)
}

// TestRunStreamAllocBudget extends the allocation budget to the whole
// streaming path: packet sample plus sensor evaluation per bin.
func TestRunStreamAllocBudget(t *testing.T) {
	smp := NewSampler()
	opts := Options{BinWidth: time.Hour, Window: 2 * time.Millisecond, Hours: 2, SensorDistanceFt: 10}
	home := PaperHomes()[2]
	visit := func(BinSample) {}
	smp.RunStream(home, opts, visit) // warm pools and the shared surface
	allocs := testing.AllocsPerRun(20, func() {
		smp.RunStream(home, opts, visit)
	})
	perBin := allocs / float64(opts.NumBins())
	if perBin > 10 {
		t.Errorf("steady-state RunStream allocs/bin = %v, budget is 10", perBin)
	}
	t.Logf("steady-state RunStream allocs/bin = %v", perBin)
}
