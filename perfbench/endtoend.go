package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro"
)

// childEnv marks a process started as one end-to-end sample. The child
// is this same binary, so the sample pays exactly what a user of the SDK
// pays: runtime start, Scenario load, surface warm-up, the fleet and the
// report write.
const childEnv = "PERFBENCH_CHILD"

// processTimeout bounds one child process.
const processTimeout = 150 * time.Second

// warmupShare is the share of a run's commits counted as warm-up: the
// first homes pay for whatever the program builds lazily on first use
// (an operating-point surface the first home's device did not need is
// built by a later one), so the steady-state rate is taken after them.
const warmupShare = 10

// childTimes is what a child prints on its standard output: wall-clock
// instants (Unix ns) of the first commit, of the commit that ends the
// warm-up (WarmDone homes committed), of the last commit and of the
// written report, and the number of homes committed.
type childTimes struct {
	FirstNS   int64 `json:"first_ns"`
	WarmNS    int64 `json:"warm_ns"`
	WarmDone  int   `json:"warm_done"`
	LastNS    int64 `json:"last_ns"`
	WrittenNS int64 `json:"written_ns"`
	Done      int   `json:"done"`
}

// childMain runs one Scenario from its JSON form and writes its Report:
// the program under measurement receives only the generated Scenario.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	scenarioPath := fs.String("scenario", "", "scenario JSON file")
	reportPath := fs.String("report", "", "report JSON output file")
	checkpoint := fs.String("checkpoint", "", "checkpoint file (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runChild(*scenarioPath, *reportPath, *checkpoint); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func runChild(scenarioPath, reportPath, checkpoint string) error {
	data, err := os.ReadFile(scenarioPath)
	if err != nil {
		return err
	}
	sc, err := powifi.LoadScenario(data)
	if err != nil {
		return err
	}
	var ct childTimes
	opts := []powifi.Option{powifi.WithProgress(func(done, total int) {
		now := time.Now().UnixNano()
		if done == 1 {
			ct.FirstNS = now
		}
		if done == total/warmupShare+1 {
			ct.WarmNS, ct.WarmDone = now, done
		}
		ct.LastNS, ct.Done = now, done
	})}
	if checkpoint != "" {
		opts = append(opts, powifi.WithCheckpoint(checkpoint))
	}
	if sc, err = sc.With(opts...); err != nil {
		return err
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		return err
	}
	if err := writeReport(rep, reportPath); err != nil {
		return err
	}
	ct.WrittenNS = time.Now().UnixNano()
	return json.NewEncoder(os.Stdout).Encode(ct)
}

// writeReport writes rep as JSON to path and returns once the file is
// closed.
func writeReport(rep *powifi.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := rep.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is one child process's end-to-end figures.
type sample struct {
	setupS, wallS, homesPerS, cpuS, rssMB float64
}

// endToEnd runs fresh child processes of the workload's Scenario one
// after another (a closed loop with one caller) until the measuring time
// is spent, checks each report, and reports the median of each figure.
func endToEnd(exe string, w workload, seed uint64, seconds int, dir string, ref []byte) (result, error) {
	sc, err := w.scenario(seed)
	if err != nil {
		return result{}, err
	}
	data, err := sc.MarshalJSON()
	if err != nil {
		return result{}, err
	}
	scenarioPath := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(scenarioPath, data, 0o644); err != nil {
		return result{}, err
	}

	res := result{Correct: true}
	var samples []sample
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		res.Attempted += w.homes
		s, checkErr, err := runSample(exe, w, seed, dir, scenarioPath, i, ref)
		if err == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d process %d: setup %.3f s, wall %.3f s, %.1f homes/s, cpu %.3f s, rss %.1f MiB\n",
				w.name, seed, i, s.setupS, s.wallS, s.homesPerS, s.cpuS, s.rssMB)
			samples = append(samples, s)
			err = checkErr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d process %d: %v\n", w.name, seed, i, err)
			res.Correct = false
			res.Failed += w.homes
		}
	}
	if len(samples) == 0 {
		return result{}, errors.New("no process completed")
	}
	summarize := func(unit string, f func(sample) float64) metric {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		m := metric{Value: median(xs), Unit: unit, N: len(xs)}
		m.Q1, _, m.Q3, _ = quartiles(xs)
		return m
	}
	res.Metrics = map[string]metric{
		"setup_s":     summarize("s", func(s sample) float64 { return s.setupS }),
		"wall_s":      summarize("s", func(s sample) float64 { return s.wallS }),
		"homes_per_s": summarize("homes/s", func(s sample) float64 { return s.homesPerS }),
		"cpu_s":       summarize("s", func(s sample) float64 { return s.cpuS }),
		"peak_rss_mb": summarize("MiB", func(s sample) float64 { return s.rssMB }),
		"ok_frac":     {Value: 1 - float64(res.Failed)/float64(res.Attempted), Unit: "ratio", N: res.Attempted},
	}
	return res, nil
}

// runSample starts one child process, waits for it, and checks its
// report. err means the process gave no figures; checkErr means its
// figures stand but its report is wrong. Either way all of its homes
// count as failed.
func runSample(exe string, w workload, seed uint64, dir, scenarioPath string, i int, ref []byte) (s sample, checkErr, err error) {
	reportPath := filepath.Join(dir, "report-"+strconv.Itoa(i)+".json")
	args := []string{"-scenario", scenarioPath, "-report", reportPath}
	if w.checkpoint {
		args = append(args, "-checkpoint", filepath.Join(dir, "checkpoint-"+strconv.Itoa(i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), processTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return sample{}, nil, fmt.Errorf("child: %w", err)
	}
	var ct childTimes
	if err := json.Unmarshal(stdout.Bytes(), &ct); err != nil {
		return sample{}, nil, fmt.Errorf("child output: %w", err)
	}
	if ct.Done != w.homes || ct.LastNS <= ct.WarmNS {
		return sample{}, nil, fmt.Errorf("child committed %d of %d homes", ct.Done, w.homes)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return sample{}, nil, err
	}
	os.Remove(reportPath)
	var rep powifi.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return sample{}, nil, fmt.Errorf("report: %w", err)
	}
	if err := checkReport(&rep, w, seed, ref); err != nil {
		checkErr = fmt.Errorf("output check: %w", err)
	}
	// Steady-state throughput over the commits after the warm-up. Set-up
	// is the time to the first commit plus any stall in the rest of the
	// warm-up beyond what its homes take at the steady rate, so one-time
	// work counts wherever in the warm-up it happened.
	rate := float64(ct.Done-ct.WarmDone) / (float64(ct.LastNS-ct.WarmNS) / 1e9)
	stall := max(0, float64(ct.WarmNS-ct.FirstNS)/1e9-float64(ct.WarmDone-1)/rate)
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return sample{
		setupS:    float64(ct.FirstNS-start)/1e9 + stall,
		wallS:     float64(ct.WrittenNS-start) / 1e9,
		homesPerS: rate,
		cpuS:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		rssMB:     float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, checkErr, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
