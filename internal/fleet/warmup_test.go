package fleet

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/harvester"
	"repro/internal/lifecycle"
	"repro/internal/surface"
	"repro/internal/telemetry"
)

// TestWarmupHarvesters pins which surfaces a run warms: the battery-free
// chain for every home, the battery-charging chain only when the mix
// holds a bq25570 archetype, and nothing when the run takes the exact
// solver or has no homes left.
func TestWarmupHarvesters(t *testing.T) {
	free := surface.Fingerprint(harvester.NewBatteryFree())
	charging := surface.Fingerprint(harvester.NewBatteryCharging())
	only := func(k lifecycle.Kind) lifecycle.Mix {
		var m lifecycle.Mix
		m[k] = 1
		return m
	}
	cases := []struct {
		name  string
		cfg   Config
		start int
		want  []string
	}{
		{"classic", Config{Homes: 4}, 0, []string{free}},
		{"temp", Config{Homes: 4, Population: Population{Devices: only(lifecycle.TempSensor)}}, 0, []string{free}},
		{"jawbone", Config{Homes: 4, Population: Population{Devices: only(lifecycle.Jawbone)}}, 0, []string{free}},
		{"temp+jawbone", Config{Homes: 4, Population: Population{Devices: lifecycle.Mix{lifecycle.TempSensor: 1, lifecycle.Jawbone: 2}}}, 0, []string{free}},
		{"rtemp", Config{Homes: 4, Population: Population{Devices: only(lifecycle.RechargingTemp)}}, 0, []string{free, charging}},
		{"camera", Config{Homes: 4, Population: Population{Devices: only(lifecycle.Camera)}}, 0, []string{free, charging}},
		{"liion", Config{Homes: 4, Population: Population{Devices: only(lifecycle.LiIon)}}, 0, []string{free, charging}},
		{"nimh", Config{Homes: 4, Population: Population{Devices: only(lifecycle.NiMH)}}, 0, []string{free, charging}},
		{"mixed", lifeTestConfig(4, 1), 0, []string{free, charging}},
		{"exact", Config{Homes: 4, Exact: true, Population: Population{Devices: only(lifecycle.Camera)}}, 0, nil},
		{"resumed-complete", Config{Homes: 4}, 4, nil},
		{"resumed-tail", Config{Homes: 4}, 3, []string{free}},
	}
	for _, c := range cases {
		var got []string
		for _, h := range warmupHarvesters(c.cfg, c.start) {
			got = append(got, surface.Fingerprint(h))
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: warmed %d surfaces %q, want %q", c.name, len(got), got, c.want)
		}
	}

	surface.SetEnabled(false)
	defer surface.SetEnabled(true)
	if hs := warmupHarvesters(lifeTestConfig(4, 1), 0); hs != nil {
		t.Errorf("surface disabled: warmed %d surfaces, want none", len(hs))
	}
}

// cancelAfterEntry reports cancellation from its second Err call on:
// RunWith's entry check passes, and the caller's cancel lands during
// warm-up, before any worker starts.
type cancelAfterEntry struct {
	context.Context
	calls atomic.Int32
	done  chan struct{}
}

func (c *cancelAfterEntry) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

func (c *cancelAfterEntry) Done() <-chan struct{} { return c.done }

// TestCancelDuringWarmup: a cancel that lands during warm-up returns
// ctx.Err() and starts no worker, so no sampler is ever acquired.
func TestCancelDuringWarmup(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := &cancelAfterEntry{Context: context.Background(), done: make(chan struct{})}
		close(ctx.done)
		tel := telemetry.NewRun()
		res, err := RunWith(ctx, testConfig(4, workers), Hooks{Telemetry: tel})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("workers=%d: got (%v, %v), want (nil, context.Canceled)", workers, res, err)
		}
		snap := tel.Snapshot()
		if n := snap.Sched[telemetry.SchedPoolHits] + snap.Sched[telemetry.SchedPoolMisses]; n != 0 {
			t.Errorf("workers=%d: %d samplers acquired after a cancel during warm-up, want 0", workers, n)
		}
	}
}
