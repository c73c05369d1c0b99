package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/faultinject"
	"repro/internal/harvester"
	"repro/internal/lifecycle"
	"repro/internal/surface"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// samplerPool recycles pooled sampling contexts across fleet runs. A
// Sampler fully re-derives its state from (seed, labels) on every bin,
// so reuse across runs is as output-invisible as reuse across homes.
// No New hook: acquireSampler constructs on empty so pool reuse is an
// observable telemetry diagnostic.
var samplerPool sync.Pool

// acquireSampler takes a pooled sampling context, or builds one when
// the pool is empty, counting either way into the run's scheduling
// diagnostics (nil-safe when telemetry is off).
func acquireSampler(probe *telemetry.Probe) *deploy.Sampler {
	if v := samplerPool.Get(); v != nil {
		probe.Sampler().PoolHit()
		return v.(*deploy.Sampler)
	}
	probe.Sampler().PoolMiss()
	return deploy.NewSampler()
}

// ErrStopped is returned by RunWith when the Home hook ends the run
// early by returning false. It marks a caller-requested stop — the
// streaming consumer broke out of its loop — as opposed to a context
// cancellation, which surfaces as ctx.Err().
var ErrStopped = errors.New("fleet: run stopped by home hook")

// Hooks carries the optional streaming callbacks of RunWith. Both
// hooks observe homes in home-index order regardless of worker count,
// so a streaming consumer sees the exact same sequence at any
// parallelism. Hooks are invoked on the reducing goroutine (the one
// that called RunWith), never concurrently.
type Hooks struct {
	// Progress, if non-nil, is called once per completed home with the
	// number folded so far and the total: (1, n), (2, n), ... (n, n).
	Progress func(done, total int)
	// Home, if non-nil, receives each home's summary record in
	// home-index order. Returning false stops the run: workers drain
	// and exit, and RunWith returns ErrStopped with a nil Result.
	Home func(HomeRecord) bool
	// Telemetry, if non-nil, collects the run's metrics, phase spans
	// and manifest (internal/telemetry). Collection is strictly out of
	// band — no RNG draws, no event-order changes — so the Result is
	// byte-identical with or without it, and its work-counter totals
	// are bit-for-bit identical at any worker count.
	Telemetry *telemetry.Run
	// Checkpoint, if non-nil, enables checkpoint/resume for the run:
	// the reducer's committed home prefix is periodically serialized to
	// Checkpoint.Path, an existing checkpoint of the same configuration
	// is resumed from, and the resumed output is bit-identical to an
	// uninterrupted run at any worker count. See Checkpoint.
	Checkpoint *Checkpoint
	// Faults, if non-nil, arms the deterministic failure-injection
	// registry (internal/faultinject) for this run: home panics and
	// stalls fire keyed by home index, checkpoint write faults keyed by
	// the session's write generation. Reserved for tests and chaos
	// certification; production runs leave it nil (one branch, zero
	// overhead).
	Faults *faultinject.Set
	// Trace, if non-nil, records the run's span tree and per-home
	// flight recorders (internal/trace). Tracing follows Telemetry's
	// out-of-band contract exactly: no RNG draws, no event-order
	// changes, Result byte-identical with or without it, and the
	// summary's deterministic section (event counts, retained rings,
	// escalation reasons) bit-for-bit identical at any worker count
	// because homes commit through the same reorder buffer as every
	// other per-home aggregate.
	Trace *trace.Recorder
}

// worker is one shard's pooled per-worker state: the sampling context,
// the synthesis RNG, the pooled partial aggregates, and — in lifecycle
// mode — one pooled device per archetype, built lazily and reused
// across every home the worker runs (Device.Begin re-derives all run
// state, so pooling is output-invisible; the lifecycle parity suite
// pins this).
type worker struct {
	cfg      Config
	smp      *deploy.Sampler
	synthRng *xrand.Rand
	p        *partial
	probe    *telemetry.Probe
	fi       *faultinject.Set
	tr       *trace.Worker
	devs     [lifecycle.NumKinds]*lifecycle.Device
	// batch is the worker's reusable struct-of-arrays bin buffer; the
	// batched kernel refills it per home without reallocating.
	batch deploy.BinBatch
	// curHT is the in-flight attempt's flight recorder, stashed on the
	// worker so runHome can reach it across attemptHome's panic/recover
	// boundary. lastKernelNS/lastStallNS are the last attempt's kernel
	// and injected-stall wall times, measured whenever telemetry or
	// tracing observes the run (zero otherwise).
	curHT        *trace.HomeTrace
	lastKernelNS int64
	lastStallNS  int64
}

func newWorker(cfg Config, p *partial, probe *telemetry.Probe, fi *faultinject.Set, rec *trace.Recorder) *worker {
	w := &worker{
		cfg:      cfg,
		smp:      acquireSampler(probe),
		synthRng: xrand.New(0),
		p:        p,
		probe:    probe,
		fi:       fi,
		tr:       rec.NewWorker(),
	}
	// Attach (or, with telemetry off, explicitly detach) the counters on
	// every acquisition, so a pooled sampler can never count into a
	// previous run's metrics.
	w.smp.Instrument(probe.Sampler(), probe.Surface())
	w.smp.TraceHome(nil)
	return w
}

// refresh replaces the worker's sampling context after a panicking
// attempt: the pooled context may hold arbitrary mid-bin state, so it
// is dropped on the floor (never returned to the pool) and a fresh one
// is built for the retry. A Sampler re-derives everything from
// (seed, labels) per bin, so the retry's output is identical to what a
// first-attempt success would have produced.
func (w *worker) refresh() {
	w.smp.Instrument(nil, nil)
	w.smp.TraceHome(nil)
	w.smp = deploy.NewSampler()
	w.smp.Instrument(w.probe.Sampler(), w.probe.Surface())
}

func (w *worker) release() {
	w.smp.Instrument(nil, nil)
	w.smp.TraceHome(nil)
	samplerPool.Put(w.smp)
	// Fold this worker's sketch shard into the run exactly; the error is
	// impossible because every shard shares NewProbe's configuration.
	_ = w.probe.Close()
}

// device returns the worker's pooled device of the given archetype,
// its OnBin hook bound once to the worker's pooled partial.
func (w *worker) device(k lifecycle.Kind) *lifecycle.Device {
	if w.devs[k] == nil {
		d := lifecycle.NewDevice(k, lifecycle.Policy{})
		d.Exact = w.cfg.Exact
		d.Tele = w.probe.Lifecycle()
		d.SurfTele = w.probe.Surface()
		ap := &w.p.arch[k]
		d.OnBin = ap.add
		w.devs[k] = d
	}
	return w.devs[k]
}

// Run executes the fleet simulation: cfg.Homes independent single-home
// deployments sharded across cfg.Workers workers, streamed into the
// mergeable aggregates of Result. Each home runs its own isolated
// discrete-event kernel (the kernel itself is deliberately single-
// threaded; the fleet layer is where the parallelism lives).
//
// Cancelling ctx stops the run promptly: every worker checks its
// context once per logging bin (never more than one bin's worth of
// work after the cancel), drains, and exits; Run then returns ctx.Err()
// with a nil Result. Partial results are discarded, never silently
// truncated — a Result always describes the full configured fleet.
//
// The output is bit-for-bit identical for any worker count: pooled
// per-bin aggregates merge exactly in any order, and per-home scalar
// summaries pass through a reorder buffer so the order-sensitive
// Welford reductions always happen in home-index order. The device-
// lifecycle engine (enabled by a population device mix) follows the
// same discipline: per-bin lifecycle observations land in exactly
// mergeable sketches, per-home time-domain scalars ride the reorder
// buffer.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	return RunWith(ctx, cfg, Hooks{})
}

// RunWith is Run with streaming hooks: per-home records and progress
// callbacks delivered in home-index order at any worker count. See
// Hooks for the contract.
func RunWith(ctx context.Context, cfg Config, h Hooks) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := h.Telemetry
	// span opens the named phase in both observers (telemetry and the
	// trace recorder share phase names); either may be nil.
	span := func(name string) func() {
		endT, endR := t.Span(name), h.Trace.Span(name)
		return func() { endT(); endR() }
	}

	// Degradation deadline: a child context bounds the run's wall
	// clock. outer stays distinct so caller cancellation (an error)
	// remains distinguishable from budget expiry (a partial result).
	outer := ctx
	if cfg.Deadline > 0 {
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(ctx, cfg.Deadline)
		defer cancelDeadline()
	}

	// Checkpoint/resume setup: restore the reducer's committed prefix
	// from the latest intact checkpoint generation (homes [0, start)
	// are already folded into the returned result) and derive the
	// periodic write cadence.
	ck := h.Checkpoint
	var ckw *ckWriter
	var res *Result
	start := 0
	ckEvery := defaultCheckpointEvery
	if ck != nil {
		if ck.Path == "" {
			return nil, errors.New("fleet: Checkpoint requires a non-empty Path")
		}
		if cfg.Population.Lifecycle() {
			return nil, errors.New("fleet: checkpointing cannot run a device-lifecycle population (the workers' pooled ledgers are not part of the committed home prefix)")
		}
		if ck.Every > 0 {
			ckEvery = ck.Every
		}
		var err error
		if start, res, err = loadCheckpoint(ck, cfg, t); err != nil {
			return nil, err
		}
		ckw = &ckWriter{ck: ck, cfg: cfg, fi: h.Faults, t: t}
	} else {
		res = newResult(cfg)
	}
	// saveOnAbort writes the committed prefix when the run stops early;
	// with checkpointing off it is a no-op.
	saveOnAbort := func(next int) error {
		if ckw == nil {
			return nil
		}
		return ckw.write(res, next)
	}

	runStart := time.Now() //powifi:walltime-ok telemetry manifest wall time, out of band of the simulation
	var memStart runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&memStart)
	}
	// Warm-up: the operating-point surfaces the run will query are built
	// concurrently, up front, under their own span. The builds are
	// deterministic and process-cached, so warming changes no output; it
	// keeps the one-time cost out of the first homes and the simulate
	// span, and lets the builds share the cores.
	if hvs := warmupHarvesters(cfg, start); len(hvs) > 0 {
		endWarm := span(telemetry.SpanSurfaceWarmup)
		var wg sync.WaitGroup
		for _, hv := range hvs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				surface.For(hv)
			}()
		}
		wg.Wait()
		endWarm()
	}
	if err := outer.Err(); err != nil {
		// Cancelled during warm-up: no worker has started, and the
		// committed prefix is still the one the run began with.
		if werr := saveOnAbort(start); werr != nil {
			err = errors.Join(err, werr)
		}
		return nil, err
	}
	homesC := t.Counter(telemetry.CounterHomes)
	failC := t.FailureCounters()

	// finish stamps the run manifest and throughput gauges once the
	// result is complete; done is the number of homes simulated this
	// session (a resumed or partial run covers only its own tail).
	finish := func(done int) {
		if t == nil {
			return
		}
		elapsed := time.Since(runStart).Seconds() //powifi:walltime-ok throughput gauge only; never feeds an aggregate
		hashCfg := cfg
		hashCfg.Workers = 0 // invariant across parallelism by contract
		m := telemetry.Manifest{
			Seed:       cfg.Seed,
			ConfigHash: telemetry.HashConfig(hashCfg),
			Workers:    cfg.Workers,
			ElapsedS:   elapsed,
		}
		if elapsed > 0 {
			m.HomesPerSec = float64(done) / elapsed
			t.Gauge(telemetry.GaugeBinsPerSec).Set(float64(res.TotalBins) / elapsed)
		}
		t.SetManifest(m)
		var memEnd runtime.MemStats
		runtime.ReadMemStats(&memEnd)
		if res.TotalBins > 0 {
			t.Gauge(telemetry.GaugeAllocsPerBin).Set(
				float64(memEnd.Mallocs-memStart.Mallocs) / float64(res.TotalBins))
		}
	}

	// deliver folds one home into the result and feeds the hooks; it
	// reports whether the run should continue. With checkpointing on,
	// the committed prefix is written every ckEvery homes and on a Home
	// hook stop, always after the fold — the checkpoint describes
	// exactly the homes the reducer has committed. Exhausted homes
	// (hs.fail) arrive through the same reorder buffer, so the failure
	// policy applies at a deterministic, workers-invariant point of the
	// reduce order.
	deliver := func(hs homeStats) (bool, error) {
		if hs.fail != nil {
			if cfg.Policy.failFast() {
				// Checkpoint the prefix *below* the failed home so a
				// resume re-attempts exactly it.
				err := error(hs.fail)
				if werr := saveOnAbort(hs.idx); werr != nil {
					err = errors.Join(err, werr)
				}
				return false, err
			}
			// Quarantine: the committed prefix advances past the home;
			// it contributes to no aggregate and the Home hook never
			// sees it. The structured error lands in Result.Errors (and
			// in the checkpoint, so a resumed report is identical).
			// The quarantine decision is recorded here, at the
			// reducer's deterministic commit point, before the home's
			// flight recorder folds into the trace.
			hs.tr.Quarantine()
			if hs.tr != nil {
				// Re-snapshot the dump so the error's forensics include
				// the quarantine decision itself.
				hs.fail.Trace = hs.tr.Dump()
			}
			h.Trace.CommitHome(hs.tr, true)
			res.Errors = append(res.Errors, *hs.fail)
			failC.Quarantined()
			if cfg.MaxFailedHomes > 0 && len(res.Errors) > cfg.MaxFailedHomes {
				return false, &partialStop{reason: PartialFailureBudget, committed: hs.idx + 1}
			}
		} else {
			h.Trace.CommitHome(hs.tr, false)
			res.addHome(hs)
			homesC.Inc()
			if h.Home != nil && !h.Home(hs.record()) {
				err := ErrStopped
				if werr := saveOnAbort(hs.idx + 1); werr != nil {
					err = errors.Join(err, werr)
				}
				return false, err
			}
		}
		committed := hs.idx + 1
		if ckw != nil && committed < cfg.Homes && (committed-start)%ckEvery == 0 {
			if err := ckw.write(res, committed); err != nil {
				return false, err
			}
		}
		if h.Progress != nil {
			h.Progress(committed, cfg.Homes)
		}
		return true, nil
	}

	// finishPartial ends the run on a tripped degradation budget:
	// budgets are contracts, not failures, so the caller gets the
	// committed prefix as a Result marked Partial — plus a final,
	// resumable checkpoint — instead of an error.
	finishPartial := func(reason string, committed int, parts []*partial) (*Result, error) {
		res.Partial = true
		res.PartialReason = reason
		res.CommittedHomes = committed
		if ckw != nil {
			if err := ckw.write(res, committed); err != nil {
				return nil, err
			}
		}
		endReduce := span(telemetry.SpanReduce)
		for _, p := range parts {
			res.mergePartial(p)
		}
		endReduce()
		finish(committed - start)
		return res, nil
	}

	// Serial fast path: with one worker there is no sharding to
	// coordinate, and the channel/goroutine handoffs per home are pure
	// overhead (meaningful on single-core hosts). The reduce order is
	// trivially home-index order and deliver folds each home straight
	// into the result, so the output is identical to the sharded path by
	// construction.
	if cfg.Workers == 1 {
		p := newPartial(cfg)
		endSim := span(telemetry.SpanSimulate)
		w := newWorker(cfg, p, t.NewProbe(), h.Faults, h.Trace)
		for i := start; i < cfg.Homes; i++ {
			hs, ok := w.runHome(ctx, i)
			if !ok {
				w.release()
				endSim()
				if outer.Err() == nil && ctx.Err() != nil {
					// The run's own deadline expired, not the caller's
					// context: the committed prefix is the deliverable.
					return finishPartial(PartialDeadline, i, []*partial{p})
				}
				err := ctx.Err()
				if werr := saveOnAbort(i); werr != nil {
					err = errors.Join(err, werr)
				}
				return nil, err
			}
			if cont, err := deliver(hs); !cont {
				w.release()
				endSim()
				if ps, budget := err.(*partialStop); budget {
					return finishPartial(ps.reason, ps.committed, []*partial{p})
				}
				return nil, err
			}
		}
		w.release()
		endSim()
		endReduce := span(telemetry.SpanReduce)
		res.mergePartial(p)
		endReduce()
		finish(cfg.Homes - start)
		if ckw != nil {
			ckw.remove() // a completed run needs no resume point
		}
		return res, nil
	}

	// The sharded path runs under a derived context so a Home hook
	// stop can wind the workers down the same way a cancellation does.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	out := make(chan homeStats, cfg.Workers)
	partials := make([]*partial, cfg.Workers)
	endSim := span(telemetry.SpanSimulate)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		p := newPartial(cfg)
		partials[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled sampling context per worker: scheduler, channels,
			// router, monitors and traffic sources are built once and reset
			// per bin, so the steady-state hot path stops paying allocator
			// and GC tax. Pooling is output-invisible (see deploy.Sampler).
			w := newWorker(cfg, p, t.NewProbe(), h.Faults, h.Trace)
			defer w.release()
			for idx := range jobs {
				hs, ok := w.runHome(ctx, idx)
				if !ok {
					return // cancelled mid-home; partial home discarded
				}
				select {
				case out <- hs:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := start; i < cfg.Homes; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()

	// Ordered streaming reduce: fold each home's summary in index order.
	// Out-of-order completions park in a buffer whose size stays near
	// the worker count because homes have comparable cost.
	pending := make(map[int]homeStats, cfg.Workers)
	next := start
	var stopErr error
	for m := range out {
		if stopErr != nil || ctx.Err() != nil {
			continue // draining after a hook stop or cancellation
		}
		pending[m.idx] = m
		for {
			hs, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if cont, err := deliver(hs); !cont {
				stopErr = err
				cancel() // wind the workers down; keep draining out
				break
			}
		}
	}
	endSim()
	if ps, budget := stopErr.(*partialStop); budget {
		return finishPartial(ps.reason, ps.committed, partials)
	}
	if stopErr != nil {
		return nil, stopErr // deliver already wrote the stop checkpoint
	}
	if err := ctx.Err(); err != nil {
		if outer.Err() == nil && cfg.Deadline > 0 {
			// The run's own deadline expired, not the caller's context.
			// The reorder buffer's parked homes beyond `next` are
			// discarded: a partial result, like a checkpoint, must
			// describe a contiguous committed prefix.
			return finishPartial(PartialDeadline, next, partials)
		}
		if werr := saveOnAbort(next); werr != nil {
			err = errors.Join(err, werr)
		}
		return nil, err
	}
	// Pooled per-bin lifecycle aggregates merge exactly regardless of
	// how homes were grouped onto workers; worker order is fixed only
	// for clarity.
	endReduce := span(telemetry.SpanReduce)
	for _, p := range partials {
		res.mergePartial(p)
	}
	endReduce()
	finish(cfg.Homes - start)
	if ckw != nil {
		ckw.remove() // a completed run needs no resume point
	}
	return res, nil
}

// warmupHarvesters returns the harvesters whose surfaces a run resuming
// at home start will query: the battery-free chain for every home (the
// deployment runner evaluates it per bin) and the battery-charging chain
// when the device mix holds a bq25570 archetype. It returns none when
// the run takes the exact solver or has no homes left to run.
func warmupHarvesters(cfg Config, start int) []*harvester.Harvester {
	if cfg.Exact || !surface.Enabled() || start >= cfg.Homes {
		return nil
	}
	hvs := []*harvester.Harvester{harvester.NewBatteryFree()}
	mix := cfg.Population.Devices
	for _, k := range []lifecycle.Kind{lifecycle.RechargingTemp, lifecycle.Camera, lifecycle.LiIon, lifecycle.NiMH} {
		if mix[k] > 0 {
			return append(hvs, harvester.NewBatteryCharging())
		}
	}
	return hvs
}

// runHome runs one home under the worker's supervisor: a panicking
// attempt is recovered into a structured HomeError, the failure
// policy's retries re-run the home on a fresh (never pooled back)
// sampler, and a home whose attempts are exhausted rides the reorder
// buffer as a failed homeStats so the reducer applies the policy at a
// deterministic, workers-invariant point. ok == false only means
// context cancellation.
func (w *worker) runHome(ctx context.Context, idx int) (homeStats, bool) {
	timed := w.probe != nil || w.tr != nil
	for attempt := 1; ; attempt++ {
		var t0 time.Time
		if timed {
			t0 = time.Now() //powifi:walltime-ok per-home flight-recorder timing, out of band
		}
		hs, ok, ferr := w.attemptHome(ctx, idx, attempt)
		ht := w.curHT
		w.curHT = nil
		if ferr == nil {
			if !ok {
				return hs, false
			}
			hs.tr = ht
			w.tr.EndHome(ht)
			if timed {
				wallNS := time.Since(t0).Nanoseconds() //powifi:walltime-ok probe observation only; never feeds an aggregate
				w.probe.ObserveHomeWall(idx, "fleet/home/"+strconv.Itoa(idx),
					float64(wallNS)/1e6, dominantSpan(wallNS, w.lastKernelNS, w.lastStallNS))
			}
			return hs, true
		}
		ferr.Attempts = attempt
		if attempt > w.cfg.Policy.Retry {
			// Exhausted: the last attempt's flight recorder is the
			// home's forensic payload, on both the structured error and
			// the trace commit.
			w.tr.EndHome(ht)
			ferr.Trace = ht.Dump()
			return homeStats{idx: idx, fail: ferr, tr: ht}, true
		}
		w.probe.Failure().Retry()
		w.tr.EndHome(ht)
		w.refresh()
	}
}

// dominantSpan names where a home's wall time went: the injected stall,
// the event kernel ("bin-batch"), or the residual (synthesis, ledger,
// folds).
func dominantSpan(wallNS, kernelNS, stallNS int64) string {
	other := wallNS - kernelNS - stallNS
	switch {
	case stallNS >= kernelNS && stallNS >= other:
		return "stall"
	case kernelNS >= other:
		return "bin-batch"
	default:
		return "other"
	}
}

// attemptHome simulates one synthesized home on the worker's pooled
// sampler through the batched kernel: the home's bins land in the
// worker's reusable struct-of-arrays buffer (deploy.RunBatch, or
// RunBatchCoarse on the coarse tier), the scalar summary and the
// per-bin fold columns are derived in one pass over the finished
// batch, and — in lifecycle mode — the pooled lifecycle device walks
// the batch in bin order. The context is checked once per event-
// simulated bin; on cancellation the home is abandoned mid-batch and
// attemptHome reports ok == false (its fold is discarded along with
// the whole run). A panic anywhere in the attempt is recovered into
// ferr; the partially built hs is discarded by the caller.
func (w *worker) attemptHome(ctx context.Context, idx, attempt int) (hs homeStats, ok bool, ferr *HomeError) {
	defer func() {
		if r := recover(); r != nil {
			ferr = &HomeError{
				Index: idx,
				Label: "fleet/home/" + strconv.Itoa(idx),
				Msg:   fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	w.lastKernelNS, w.lastStallNS = 0, 0
	var ht *trace.HomeTrace
	if w.tr.Enabled() {
		ht = w.tr.StartHome(idx, "fleet/home/"+strconv.Itoa(idx), attempt)
		// Label the goroutine for the attempt so -cpuprofile samples
		// become home-attributable in pprof.
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx,
			pprof.Labels("phase", "simulate", "home", strconv.Itoa(idx))))
	}
	w.curHT = ht
	w.smp.TraceHome(ht)
	if f := w.fi.Hit(faultinject.HomeSlow, idx); f != nil {
		w.probe.Failure().Fault()
		ht.Fault(string(f.Site))
		time.Sleep(f.Delay) //powifi:walltime-ok injected stall: the fault IS a wall-clock delay, recorded out of band
		ns := f.Delay.Nanoseconds()
		w.lastStallNS = ns
		ht.Stall(ns)
	}
	if f := w.fi.Hit(faultinject.HomePanic, idx); f != nil {
		w.probe.Failure().Fault()
		ht.Fault(string(f.Site))
		panic(faultinject.PanicValue{Site: f.Site, Key: idx})
	}
	cfg := w.cfg
	h := synthesizeHome(w.synthRng, cfg, idx)
	var dev *lifecycle.Device
	if cfg.Population.Lifecycle() {
		dev = w.device(synthesizeDevice(w.synthRng, cfg, idx))
		dev.Trace = ht
		dev.Begin(h.SensorFt, cfg.BinWidth)
	}
	opts := deploy.Options{
		BinWidth:         cfg.BinWidth,
		Window:           cfg.Window,
		Hours:            cfg.Hours,
		SensorDistanceFt: h.SensorFt,
		Exact:            cfg.Exact,
	}
	b := &w.batch
	gate := func(int) bool { return ctx.Err() == nil }
	timed := w.probe != nil || ht != nil
	var k0 time.Time
	if timed {
		k0 = time.Now() //powifi:walltime-ok kernel-span timing for the flight recorder, out of band
	}
	var done bool
	if cfg.Coarse {
		done = w.smp.RunBatchCoarse(h.HomeConfig, opts, deploy.CoarseOptions{}, b, gate)
	} else {
		done = w.smp.RunBatch(h.HomeConfig, opts, b, gate)
	}
	if timed {
		ns := time.Since(k0).Nanoseconds() //powifi:walltime-ok probe/trace observation only; never feeds an aggregate
		w.lastKernelNS = ns
		ht.Kernel(ns)
	}
	if !done {
		return homeStats{}, false, nil
	}
	nBins := b.Len()
	ht.SetBins(nBins)
	if nBins == 0 {
		return homeStats{idx: idx, home: h}, true, nil
	}

	// One backing array, sliced into the three per-bin fold columns that
	// ride the reorder buffer to the reducer.
	cols := make([]float64, 3*nBins)
	hs = homeStats{
		idx:     idx,
		home:    h,
		binCum:  cols[:nBins:nBins],
		binUW:   cols[nBins : 2*nBins : 2*nBins],
		binRate: cols[2*nBins:],
	}
	var (
		sumCum, sumHarvest, sumRate float64
		sumCh                       [3]float64
		silent                      uint64
	)
	for i := 0; i < nBins; i++ {
		s := b.Sample(i)
		sumCum += s.CumulativePct
		for c := range sumCh {
			sumCh[c] += s.Occupancy[c] * 100
		}
		// A silent bin banks nothing; BankedHarvestUW owns the clamp
		// convention shared with the facade's single-home report.
		uw := s.BankedHarvestUW()
		sumHarvest += uw
		sumRate += s.SensorRate
		if s.SensorRate <= 0 {
			silent++
		}
		hs.binCum[i] = s.CumulativePct
		hs.binUW[i] = uw
		hs.binRate[i] = s.SensorRate
	}
	if dev != nil {
		dev.VisitBatch(b)
	}
	n := float64(nBins)
	hs.meanCumPct = sumCum / n
	hs.meanHarvestUW = sumHarvest / n
	hs.meanRate = sumRate / n
	// Telemetry: silent bins fold into the shared counter, the home's
	// mean harvest into this worker's private sketch shard.
	w.probe.ObserveHome(silent, hs.meanHarvestUW)
	for i := range sumCh {
		hs.meanChPct[i] = sumCh[i] / n
	}
	if dev != nil {
		m := dev.Metrics()
		hs.hasLife = true
		hs.life = lifeHomeStats{
			kind:        m.Kind,
			ttfuS:       m.FirstUpdateS,
			outageFrac:  m.OutageFraction(),
			updates:     m.Updates,
			frames:      float64(m.Frames),
			chargeTimeS: m.TimeToFullS,
			finalSoC:    m.FinalSoC,
			minSoC:      m.MinSoC,
		}
	}
	return hs, true, nil
}
