package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/lifecycle"
	"repro/internal/surface"
	"repro/internal/telemetry"
)

// exactSampleBins caps the bins the exact solver re-evaluates: enough
// for a per-bin cost, cheap enough (tens of ms each) to keep the traced
// run short.
const exactSampleBins = 24

// span is one timed call the benchmark made into a layer. Spans are
// recorded by the benchmark around calls into each module's public
// functions; there are none inside the program.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 for none
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory; they are written out once the run
// ends.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func (r *spanRecorder) start(name string, parent int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, StartNS: time.Since(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) { r.spans[i].EndNS = time.Since(r.epoch).Nanoseconds() }

// spanTotal sums the durations of every span of one name.
type spanTotal struct {
	count   int
	totalNS int64
}

func (r *spanRecorder) totals() map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, s := range r.spans {
		t := out[s.Name]
		t.count++
		t.totalNS += s.EndNS - s.StartNS
		out[s.Name] = t
	}
	return out
}

// fleetRun is one Scenario.Run observed through the benchmark's progress
// callback: wall-clock instants (Unix ns) of the call, of every commit
// and of the return, process CPU at the first and last commit, and the
// checkpoint generations that appeared on disk.
type fleetRun struct {
	startNS, returnNS int64
	commits           []int64
	cpuFirst, cpuLast float64
	ckWrites          int
	ckBytes           int64
	rep               *powifi.Report
	traced            bool
}

// phaseNS is the fleet phase: the call to the last commit.
func (fr *fleetRun) phaseNS() float64 { return float64(fr.commits[len(fr.commits)-1] - fr.startNS) }

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// observeRun runs sc once. Both the plain and the traced run take the
// same callback, including the checkpoint stat, so their ratio measures
// the program's tracing alone.
func observeRun(sc *powifi.Scenario, w workload, ckPath string, extra ...powifi.Option) (*fleetRun, error) {
	fr := &fleetRun{commits: make([]int64, 0, w.homes), traced: len(extra) > 0}
	var prev os.FileInfo
	opts := append([]powifi.Option{powifi.WithProgress(func(done, total int) {
		fr.commits = append(fr.commits, time.Now().UnixNano())
		if done == 1 {
			fr.cpuFirst = processCPU()
		}
		if done == total {
			fr.cpuLast = processCPU()
		}
		if ckPath == "" {
			return
		}
		// Each checkpoint generation is renamed into place, so a new
		// file identity is a new write.
		if fi, err := os.Stat(ckPath); err == nil && (prev == nil || !os.SameFile(prev, fi)) {
			fr.ckWrites++
			fr.ckBytes += fi.Size()
			prev = fi
		}
	})}, extra...)
	if ckPath != "" {
		opts = append(opts, powifi.WithCheckpoint(ckPath))
	}
	sc, err := sc.With(opts...)
	if err != nil {
		return nil, err
	}
	fr.startNS = time.Now().UnixNano()
	fr.rep, err = sc.Run(context.Background())
	fr.returnNS = time.Now().UnixNano()
	if err != nil {
		return nil, err
	}
	if len(fr.commits) != w.homes {
		return nil, fmt.Errorf("run committed %d of %d homes", len(fr.commits), w.homes)
	}
	return fr, nil
}

// replayed sums what the serial replay of the committed homes did.
type replayed struct {
	homes, bins, simulated, lifeHomes int
	parityFailures                    int
	exactBins                         int
}

// layers is the traced run: the surface build, the Scenario run plain
// and with the program's telemetry and trace (pairs alternate until the
// measuring time is spent), and a serial replay of the committed homes
// through the layers' public functions.
func layers(w workload, seed uint64, seconds int, dir string, ref []byte) (result, error) {
	rec := &spanRecorder{epoch: time.Now()}
	deadline := rec.epoch.Add(time.Duration(seconds) * time.Second)
	res := result{Correct: true}
	ckPath := func(i int) string {
		if !w.checkpoint {
			return ""
		}
		return filepath.Join(dir, "checkpoint-"+strconv.Itoa(i))
	}

	// 1. Surface warm-up, one span per harvester assembly.
	exactEvals := 0
	for _, mk := range w.harvesters {
		h := mk()
		s := rec.start("surface.For", -1)
		surf := surface.For(h)
		rec.end(s)
		exactEvals += surf.Stats().ExactEvals
	}

	// 2. The committed homes, then plain/traced Run pairs.
	sc, err := w.scenario(seed)
	if err != nil {
		return result{}, err
	}
	homesSc := sc
	if p := ckPath(0); p != "" {
		if homesSc, err = sc.With(powifi.WithCheckpoint(p)); err != nil {
			return result{}, err
		}
	}
	var records []powifi.HomeRecord
	s := rec.start("powifi.Scenario.Homes", -1)
	for r, err := range homesSc.Homes(context.Background()) {
		if err != nil {
			return result{}, err
		}
		records = append(records, r)
	}
	rec.end(s)
	if len(records) != w.homes {
		return result{}, fmt.Errorf("Homes yielded %d of %d homes", len(records), w.homes)
	}
	res.Attempted += w.homes

	var runs []*fleetRun
	for k := 1; k == 1 || time.Now().Before(deadline); k += 2 {
		s := rec.start("powifi.Scenario.Run", -1)
		plain, err := observeRun(sc, w, ckPath(k))
		rec.end(s)
		if err != nil {
			return result{}, err
		}
		s = rec.start("powifi.Scenario.Run.traced", -1)
		traced, err := observeRun(sc, w, ckPath(k+1), powifi.WithTelemetry(powifi.NewTelemetry()), powifi.WithTrace(powifi.NewTrace()))
		rec.end(s)
		if err != nil {
			return result{}, err
		}
		runs = append(runs, plain, traced)
	}
	var ratios, writeMS, reportBytes []float64
	for i, fr := range runs {
		res.Attempted += w.homes
		if err := checkReport(fr.rep, w, seed, ref); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d: output check: %v\n", w.name, seed, i, err)
			res.Correct = false
			res.Failed += w.homes
		}
		if fr.traced {
			ratios = append(ratios, fr.phaseNS()/runs[i-1].phaseNS())
			continue
		}
		path := filepath.Join(dir, "report.json")
		s := rec.start("powifi.Report.WriteJSON", -1)
		err := writeReport(fr.rep, path)
		rec.end(s)
		if err != nil {
			return result{}, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return result{}, err
		}
		writeMS = append(writeMS, float64(rec.spans[s].EndNS-rec.spans[s].StartNS)/1e6)
		reportBytes = append(reportBytes, float64(fi.Size()))
	}
	last := runs[len(runs)-1]

	// 3. Serial replay of the committed homes.
	rp, err := replay(rec, w, records, last.rep.Fleet)
	if err != nil {
		return result{}, err
	}
	res.Attempted += rp.homes
	if rp.parityFailures > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d replayed homes differ from their run\n", w.name, seed, rp.parityFailures)
		res.Correct = false
		res.Failed += rp.parityFailures
	}

	if err := writeSpans(rec, w, seed); err != nil {
		return result{}, err
	}
	res.Metrics = layerMetrics(w, rec.totals(), rp, runs, exactEvals, ratios, writeMS, reportBytes)
	return res, nil
}

// replay re-runs every committed home serially through deploy, core and
// lifecycle, and checks each against its HomeRecord.
func replay(rec *spanRecorder, w workload, records []powifi.HomeRecord, sum *powifi.FleetSummary) (replayed, error) {
	dur := func(s float64) time.Duration { return time.Duration(math.Round(s * float64(time.Second))) }
	base := deploy.Options{
		BinWidth: dur(sum.BinWidthS),
		Window:   dur(sum.WindowS),
		Hours:    sum.Hours,
	}
	var (
		rp       replayed
		b        deploy.BinBatch
		rate     []float64
		netW     []float64
		firstOcc [][3]float64
		firstFt  float64
	)
	smp := deploy.NewSampler()
	sensor := core.NewBatteryFreeTempSensor()
	devs := map[lifecycle.Kind]*lifecycle.Device{}
	root := rec.start("replay", -1)
	for _, r := range records {
		opts := base
		opts.SensorDistanceFt = r.Home.SensorFt
		s := rec.start("deploy.RunBatch", root)
		if w.coarse {
			smp.RunBatchCoarse(r.Home.HomeConfig, opts, deploy.CoarseOptions{}, &b, nil)
		} else {
			smp.RunBatch(r.Home.HomeConfig, opts, &b, nil)
		}
		rec.end(s)
		n := b.Len()
		if len(rate) < n {
			rate, netW = make([]float64, n), make([]float64, n)
		}
		s = rec.start("core.EvaluateBatch", root)
		sensor.EvaluateBatch(opts.SensorDistanceFt, b.Occupancy, rate, netW)
		rec.end(s)
		if firstOcc == nil {
			firstOcc = append([][3]float64(nil), b.Occupancy[:min(n, exactSampleBins)]...)
			firstFt = opts.SensorDistanceFt
		}
		ok := homeParity(&b, r)
		if r.Device != nil {
			kind, err := lifecycle.ParseKind(r.Device.Kind)
			if err != nil {
				return rp, err
			}
			d := devs[kind]
			if d == nil {
				d = lifecycle.NewDevice(kind, lifecycle.Policy{})
				devs[kind] = d
			}
			d.Begin(r.Home.SensorFt, opts.BinWidth)
			s = rec.start("lifecycle.VisitBatch", root)
			d.VisitBatch(&b)
			rec.end(s)
			ok = ok && deviceParity(d.Metrics(), r.Device)
			rp.lifeHomes++
		}
		if !ok {
			rp.parityFailures++
		}
		rp.homes++
		rp.bins += n
		for _, sim := range b.Simulated {
			if sim {
				rp.simulated++
			}
		}
	}
	rec.end(root)
	if len(firstOcc) > 0 {
		// The exact solver the surface stands in for: the per-bin cost
		// the surface build amortizes.
		exact := core.NewBatteryFreeTempSensor()
		exact.Exact = true
		s := rec.start("core.EvaluateBatch.exact", -1)
		exact.EvaluateBatch(firstFt, firstOcc, rate, netW)
		rec.end(s)
		rp.exactBins = len(firstOcc)
	}
	return rp, nil
}

// homeParity reports whether the replayed batch reproduces the record's
// per-home means, folded in the fleet's own order.
func homeParity(b *deploy.BinBatch, r powifi.HomeRecord) bool {
	var sumCum, sumHarvest, sumRate float64
	var sumCh [3]float64
	n := b.Len()
	for i := 0; i < n; i++ {
		s := b.Sample(i)
		sumCum += s.CumulativePct
		for c := range sumCh {
			sumCh[c] += s.Occupancy[c] * 100
		}
		sumHarvest += s.BankedHarvestUW()
		sumRate += s.SensorRate
	}
	f := float64(n)
	for c := range sumCh {
		if sumCh[c]/f != r.MeanChannelPct[c] {
			return false
		}
	}
	return n > 0 && sumCum/f == r.MeanCumulativePct && sumHarvest/f == r.MeanHarvestUW && sumRate/f == r.MeanUpdateRateHz
}

func deviceParity(m lifecycle.Metrics, d *powifi.HomeDeviceRecord) bool {
	same := func(a, b *float64) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	return m.Kind.String() == d.Kind &&
		m.OutageFraction()*100 == d.OutagePct &&
		m.Updates == d.Updates &&
		float64(m.Frames) == d.Frames &&
		same(lifecycle.FinitePtr(m.FirstUpdateS), d.FirstUpdateS) &&
		same(lifecycle.FinitePtr(m.TimeToFullS), d.TimeToFullS) &&
		same(lifecycle.FinitePtr(m.FinalSoC*100), d.FinalSoCPct) &&
		same(lifecycle.FinitePtr(m.MinSoC*100), d.MinSoCPct)
}

func writeSpans(rec *spanRecorder, w workload, seed uint64) error {
	data, err := json.Marshal(rec.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics derives the per-layer figures. A layer the workload does
// not run reports 0 over 0 samples.
func layerMetrics(w workload, tot map[string]spanTotal, rp replayed, runs []*fleetRun,
	exactEvals int, ratios, writeMS, reportBytes []float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string, n int) {
		if n == 0 {
			v = 0
		}
		m[name] = metric{Value: v, Unit: unit, N: n}
	}
	var traced []*fleetRun
	for _, fr := range runs {
		if fr.traced {
			traced = append(traced, fr)
		}
	}
	last := traced[len(traced)-1]
	counters := last.rep.Telemetry.Counters

	surf, evalT := tot["surface.For"], tot["core.EvaluateBatch"]
	put("surface.build_s", float64(surf.totalNS)/1e9, "s", surf.count)
	put("surface.exact_evals", float64(exactEvals), "count", surf.count)
	put("surface.query_ns_per_bin", float64(evalT.totalNS)/float64(rp.bins), "ns", rp.bins)
	put("core.exact_eval_ms_per_bin", float64(tot["core.EvaluateBatch.exact"].totalNS)/1e6/float64(rp.exactBins), "ms", rp.exactBins)
	queries := counters[telemetry.CounterSurfaceHits] + counters[telemetry.CounterSurfaceExact] + counters[telemetry.CounterSurfaceGuardBand]
	put("surface.hit_ratio", float64(counters[telemetry.CounterSurfaceHits])/float64(queries), "ratio", int(queries))

	// RunBatch evaluates the sensor chain inside the kernel on every
	// event-simulated bin, under no span of its own; that share is taken
	// out with the replayed core.EvaluateBatch of the same bins to leave
	// the packet-level simulation (plus, on the coarse tier, its fits
	// and guard checks).
	batch := tot["deploy.RunBatch"]
	simFrac := float64(rp.simulated) / float64(rp.bins)
	put("deploy.batch_ms_per_home", float64(batch.totalNS)/1e6/float64(rp.homes), "ms", rp.homes)
	put("deploy.packet_sim_us_per_bin", (float64(batch.totalNS)-float64(evalT.totalNS)*simFrac)/1e3/float64(rp.simulated), "us", rp.simulated)
	put("deploy.sim_bin_frac", simFrac, "ratio", rp.bins)
	put("deploy.escalated_bins", float64(last.rep.Trace.EscalatedBins), "count", w.homes*w.bins())

	visit := tot["lifecycle.VisitBatch"]
	put("lifecycle.visit_us_per_home", float64(visit.totalNS)/1e3/float64(rp.lifeHomes), "us", rp.lifeHomes)
	ledgerN := 0
	if w.devices != "" {
		ledgerN = w.homes
	}
	put("lifecycle.ledger_events", float64(counters[telemetry.CounterLifecycleLedger]), "count", ledgerN)

	var gaps, busy, reduce, ckWrites, ckBytes []float64
	for _, fr := range traced {
		for i := 1; i < len(fr.commits); i++ {
			gaps = append(gaps, float64(fr.commits[i]-fr.commits[i-1])/1e6)
		}
		window := float64(fr.commits[len(fr.commits)-1]-fr.commits[0]) / 1e9
		busy = append(busy, (fr.cpuLast-fr.cpuFirst)/(float64(w.workers())*window))
		reduce = append(reduce, float64(fr.returnNS-fr.commits[len(fr.commits)-1])/1e6)
		ckWrites = append(ckWrites, float64(fr.ckWrites))
		ckBytes = append(ckBytes, float64(fr.ckBytes))
	}
	put("fleet.commit_gap_ms_p50", median(gaps), "ms", len(gaps))
	// Every workload commits enough homes for some tail percentile.
	p, v, _ := tail(gaps)
	m["fleet.commit_gap_ms_tail"] = metric{Value: v, Unit: "ms", N: len(gaps), P: p}
	put("fleet.busy_frac", median(busy), "ratio", len(busy))
	put("fleet.reduce_ms", median(reduce), "ms", len(reduce))
	ckN := 0
	if w.checkpoint {
		ckN = len(traced)
	}
	put("checkpoint.writes", median(ckWrites), "count", ckN)
	put("checkpoint.bytes", median(ckBytes), "bytes", ckN)
	put("report.write_ms", median(writeMS), "ms", len(writeMS))
	put("report.bytes", median(reportBytes), "bytes", len(reportBytes))
	put("trace.overhead_ratio", median(ratios), "ratio", len(ratios))
	return m
}
