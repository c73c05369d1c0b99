// Command powifi-router runs a standalone simulated PoWiFi router and
// reports per-channel occupancy, injector statistics, and the incident
// power a harvesting device would see at a chosen distance — a quick way
// to explore the §3.2 design space from the command line.
//
// Example:
//
//	powifi-router -scheme powifi -delay 100us -qdepth 5 -bg 0.25 -dist 10 -dur 5s
package main //powifi:sdkboundary-ok paper-era exploration CLI predating the powifi SDK; drives internal models directly

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/medium"
	"repro/internal/monitor"
	"repro/internal/phy"
	"repro/internal/router"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/xrand"
)

func parseScheme(s string) (router.Scheme, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return router.Baseline, nil
	case "powifi":
		return router.PoWiFi, nil
	case "noqueue":
		return router.NoQueue, nil
	case "blindudp":
		return router.BlindUDP, nil
	case "equalshare":
		return router.EqualShare, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

func main() {
	schemeFlag := flag.String("scheme", "powifi", "baseline|powifi|noqueue|blindudp|equalshare")
	delay := flag.Duration("delay", 100*time.Microsecond, "injector inter-packet delay")
	qdepth := flag.Int("qdepth", 5, "IP_Power queue-depth threshold")
	bg := flag.Float64("bg", 0.25, "background load per channel (airtime fraction)")
	dist := flag.Float64("dist", 10, "harvesting device distance in feet")
	dur := flag.Duration("dur", 5*time.Second, "simulated duration")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	scheme, err := parseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sched := eventsim.New()
	channels := make(map[phy.Channel]*medium.Channel, 3)
	for _, chNum := range phy.PoWiFiChannels {
		channels[chNum] = medium.NewChannel(chNum, sched)
	}
	cfg := router.DefaultConfig()
	cfg.Scheme = scheme
	cfg.InterPacketDelay = *delay
	cfg.QueueDepthThreshold = *qdepth
	rt := router.New(cfg, channels, 100, *seed)

	monitors := make(map[phy.Channel]*monitor.Monitor, 3)
	for _, chNum := range phy.PoWiFiChannels {
		monitors[chNum] = monitor.New(channels[chNum], 500*time.Millisecond,
			rt.Radio(chNum).MAC.StationID())
	}
	if *bg > 0 {
		for i, chNum := range phy.PoWiFiChannels {
			b := traffic.NewBackground(sched, channels[chNum], 300+i,
				medium.Location{X: 6, Y: 5}, *bg, xrand.NewFromLabel(*seed, chNum.String()))
			b.Start()
		}
	}

	rt.Start()
	sched.RunUntil(*dur)

	fmt.Printf("scheme=%v delay=%v qdepth=%d bg=%.2f dur=%v\n\n", scheme, *delay, *qdepth, *bg, *dur)
	occ := make(map[phy.Channel]float64, 3)
	cum := 0.0
	for _, chNum := range phy.PoWiFiChannels {
		o := monitors[chNum].MeanOccupancy()
		occ[chNum] = o
		cum += o
		in := rt.Radio(chNum).Injector
		fmt.Printf("%-5v occupancy %5.1f%%  injector: attempted %6d  injected %6d  ip_power_drops %6d\n",
			chNum, o*100, in.Attempted, in.Injected, in.DroppedByIPPower)
	}
	fmt.Printf("cumulative occupancy: %.1f%%\n\n", cum*100)

	link := core.PowerLink{
		TxPowerDBm: cfg.TxPowerDBm, TxGainDBi: cfg.AntennaGainDBi, RxGainDBi: 2,
		DistanceFt: *dist, Occupancy: core.OccupancyFromMap(occ),
	}
	fmt.Printf("at %.0f ft: incident %.1f µW (%.1f dBm average)\n",
		*dist, units.Microwatts(link.TotalIncidentW()),
		units.WattsToDBm(link.TotalIncidentW()))
	temp := core.NewBatteryFreeTempSensor()
	fmt.Printf("battery-free temperature sensor: %.2f reads/s\n", temp.UpdateRate(link))
	cam := core.NewBatteryFreeCamera()
	if ift := cam.InterFrameTime(link); ift < 24*time.Hour {
		fmt.Printf("battery-free camera: one frame every %.1f min\n", ift.Minutes())
	} else {
		fmt.Println("battery-free camera: out of range")
	}
}
