package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/harvester"
)

// defaultSeed is the seed whose full fleet Summary is kept in testdata
// as the reference each run is checked against. Other seeds are checked
// for invariants only.
const defaultSeed = 1

// lifecycleMix is the device mix of the legacy lifecycle benchmark, so
// the lifecycle workload exercises every archetype the ledger has.
const lifecycleMix = "temp=0.3,rtemp=0.15,camera=0.2,jawbone=0.15,liion=0.1,nimh=0.1"

// workload is one fleet Scenario shape. Sizes are set so one process
// runs for a few seconds of host time on a two-core host, which leaves
// room for a dozen or more fresh processes per measured run.
type workload struct {
	name  string
	homes int
	// serial runs the fleet on one worker; otherwise it uses one worker
	// per CPU.
	serial bool
	// checkpoint makes the run write checkpoints to a file under the
	// run directory.
	checkpoint bool
	coarse     bool
	// horizon overrides the fleet's 24 h horizon when non-zero.
	horizon time.Duration
	devices string
	// harvesters lists the assemblies whose operating-point surfaces
	// the fleet builds: the battery-free sensor always, the recharging
	// chain too when the device mix needs it.
	harvesters []func() *harvester.Harvester
}

var workloads = []workload{
	{
		name:       "coarse",
		homes:      4500,
		serial:     true,
		checkpoint: true,
		coarse:     true,
		harvesters: []func() *harvester.Harvester{harvester.NewBatteryFree},
	},
	{
		name:       "lifecycle",
		homes:      800,
		horizon:    72 * time.Hour,
		devices:    lifecycleMix,
		harvesters: []func() *harvester.Harvester{harvester.NewBatteryFree, harvester.NewBatteryCharging},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) workers() int {
	if w.serial {
		return 1
	}
	return runtime.NumCPU()
}

// scenario builds the workload's Scenario for seed. Execution state
// (progress callback, checkpoint path) is attached by the caller.
func (w workload) scenario(seed uint64) (*powifi.Scenario, error) {
	opts := []powifi.Option{
		powifi.WithHomes(w.homes),
		powifi.WithSeed(seed),
		powifi.WithWorkers(w.workers()),
	}
	if w.coarse {
		opts = append(opts, powifi.WithCoarse(true))
	}
	if w.horizon > 0 {
		opts = append(opts, powifi.WithHorizon(w.horizon))
	}
	if w.devices != "" {
		mix, err := powifi.ParseDeviceMix(w.devices)
		if err != nil {
			return nil, err
		}
		opts = append(opts, powifi.WithDevices(mix))
	}
	return powifi.NewScenario(opts...)
}

// bins is the number of logging bins each home commits: the horizon in
// the fleet's default one-hour bins.
func (w workload) bins() int {
	h := w.horizon
	if h == 0 {
		h = 24 * time.Hour
	}
	return int(h / time.Hour)
}
