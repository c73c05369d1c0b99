package main

import (
	"math"
	"runtime"
	"time"
)

// hostContext is recorded beside every result so figures taken on
// different hosts can be set side by side. Nothing gates on it.
type hostContext struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// CalibrationNS is the median wall time of calibrationKernel over
	// calibrationRuns runs in this process: a fixed amount of scalar
	// floating-point work, so a ratio of two hosts' values says how much
	// faster one of them runs single-threaded code like the diode solve.
	CalibrationNS float64 `json:"calibration_ns"`
}

const (
	calibrationRuns  = 7
	calibrationSteps = 1 << 18
)

// calibrationSink keeps the kernel's result live so the compiler cannot
// drop the loop.
var calibrationSink float64

// calibrationKernel runs a dependent chain of exp/log steps, the
// operations that dominate the rectifier solve.
func calibrationKernel() float64 {
	x := 0.5
	for i := 0; i < calibrationSteps; i++ {
		x = math.Log1p(math.Exp(-x)) + 0.25
	}
	return x
}

func measureHost() hostContext {
	ns := make([]float64, calibrationRuns)
	for i := range ns {
		t0 := time.Now()
		calibrationSink += calibrationKernel()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return hostContext{
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CalibrationNS: median(ns),
	}
}
