package fleet

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the process goroutine count drops back to
// at most want, failing the test if it does not within two seconds —
// the leak check for the worker pool's cancellation path.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d still running, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// warmSurface builds the operating-point surface before a timed
// cancellation check: the one-time global grid build of a run's warm-up
// is the only stretch of work a cancel cannot interrupt, and it must
// not count against the per-bin cancellation latency.
func warmSurface(t *testing.T) {
	t.Helper()
	if _, err := Run(context.Background(), testConfig(1, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestCancelMidRun pins the worker pool's cancellation contract:
// cancelling the context mid-run returns ctx.Err() promptly (workers
// check once per logging bin, so at most one bin's worth of work per
// worker after the cancel), discards partial results, and leaks no
// goroutines.
func TestCancelMidRun(t *testing.T) {
	warmSurface(t)
	// Big enough that the run takes seconds uncancelled: the prompt
	// return below is then meaningful.
	cfg := testConfig(4096, 4)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(ctx, cfg)
		done <- outcome{res, err}
	}()

	// Let the pool spin up and get into the packet-level work.
	time.Sleep(50 * time.Millisecond)
	cancel()
	cancelAt := time.Now()

	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", o.err)
		}
		if o.res != nil {
			t.Error("cancelled run returned a partial Result; partials must be discarded")
		}
		// The bound is generous next to the per-bin check granularity
		// (a 2 ms-window bin simulates in well under a millisecond),
		// but far below the seconds the full run takes.
		if d := time.Since(cancelAt); d > 500*time.Millisecond {
			t.Errorf("run took %v to return after cancel", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	waitGoroutines(t, baseline)
}

// TestCancelBeforeRun pins the fast path: an already-cancelled context
// never starts simulating.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := Run(ctx, testConfig(64, 4))
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("pre-cancelled run still took %v", d)
	}
}

// TestCancelSerialPath covers the workers == 1 fast path, which has no
// pool to drain but must honor the same contract. The cancel fires
// deterministically from the Home hook after the fifth home, so the
// test cannot race the run's completion.
func TestCancelSerialPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := RunWith(ctx, testConfig(64, 1), Hooks{
		Home: func(r HomeRecord) bool {
			if r.Index == 4 {
				cancel()
			}
			return true
		},
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestRunWithHooks pins the streaming contract: Home and Progress
// hooks fire once per home in home-index order at any worker count,
// and record fields match the reduced aggregates.
func TestRunWithHooks(t *testing.T) {
	cfg := testConfig(12, 1)
	collect := func(workers int) ([]HomeRecord, []int) {
		c := cfg
		c.Workers = workers
		var recs []HomeRecord
		var progress []int
		_, err := RunWith(context.Background(), c, Hooks{
			Progress: func(done, total int) {
				if total != cfg.Homes {
					t.Errorf("progress total = %d, want %d", total, cfg.Homes)
				}
				progress = append(progress, done)
			},
			Home: func(r HomeRecord) bool { recs = append(recs, r); return true },
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs, progress
	}
	serialRecs, serialProg := collect(1)
	parallelRecs, parallelProg := collect(8)

	if len(serialRecs) != cfg.Homes {
		t.Fatalf("got %d records, want %d", len(serialRecs), cfg.Homes)
	}
	for i, r := range serialRecs {
		if r.Index != i {
			t.Fatalf("record %d has index %d; records must stream in home-index order", i, r.Index)
		}
		if r.Home != SynthesizeHome(mustDefaults(t, cfg), i) {
			t.Errorf("record %d home does not match SynthesizeHome", i)
		}
	}
	for i, d := range serialProg {
		if d != i+1 {
			t.Fatalf("progress sequence %v not 1..n", serialProg)
		}
	}
	// Worker-count invariance of the streams themselves.
	if len(parallelRecs) != len(serialRecs) {
		t.Fatalf("record count differs across worker counts: %d vs %d", len(parallelRecs), len(serialRecs))
	}
	for i := range serialRecs {
		if serialRecs[i] != parallelRecs[i] {
			t.Errorf("record %d differs between 1 and 8 workers:\n1: %+v\n8: %+v",
				i, serialRecs[i], parallelRecs[i])
		}
	}
	for i := range serialProg {
		if serialProg[i] != parallelProg[i] {
			t.Fatalf("progress sequence differs across worker counts")
		}
	}
}

func mustDefaults(t *testing.T, cfg Config) Config {
	t.Helper()
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHomeHookStopsRun pins the early-stop contract: a Home hook
// returning false winds the pool down, RunWith returns ErrStopped with
// no Result, and no goroutines leak.
func TestHomeHookStopsRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		cfg := testConfig(64, workers)
		seen := 0
		res, err := RunWith(context.Background(), cfg, Hooks{
			Home: func(HomeRecord) bool { seen++; return seen < 5 },
		})
		if !errors.Is(err, ErrStopped) || res != nil {
			t.Fatalf("workers=%d: got (%v, %v), want (nil, ErrStopped)", workers, res, err)
		}
		if seen != 5 {
			t.Errorf("workers=%d: hook fired %d times, want 5", workers, seen)
		}
	}
	waitGoroutines(t, baseline)
}

// TestHomeRecordDeviceFields pins the lifecycle slice of the streamed
// record: device records appear exactly when the population carries a
// mix, with JSON-safe optional fields.
func TestHomeRecordDeviceFields(t *testing.T) {
	cfg := testConfig(6, 2)
	cfg.Population = DefaultPopulation()
	cfg.Population.Devices[0] = 1 // all battery-free temp sensors
	var recs []HomeRecord
	if _, err := RunWith(context.Background(), cfg, Hooks{
		Home: func(r HomeRecord) bool { recs = append(recs, r); return true },
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Device == nil {
			t.Fatalf("record %d missing device section in lifecycle mode", r.Index)
		}
		if r.Device.Kind != "temp" {
			t.Errorf("record %d kind %q, want temp", r.Index, r.Device.Kind)
		}
		if r.Device.FinalSoCPct != nil {
			t.Errorf("battery-free sensor reports a state of charge: %v", *r.Device.FinalSoCPct)
		}
	}
}
