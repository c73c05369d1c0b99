package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/netstack"
	"repro/internal/phy"
	"repro/internal/router"
	"repro/internal/xrand"
)

// Fig8Schemes is the comparison set of the neighbor-fairness experiment.
var Fig8Schemes = []router.Scheme{router.BlindUDP, router.EqualShare, router.PoWiFi}

// Fig8Result is the neighbor-network fairness study (Fig. 8): the UDP
// throughput a neighboring router–client pair achieves at various Wi-Fi
// bit rates while our router injects power traffic on the same channel.
type Fig8Result struct {
	BitRates []phy.Rate
	// AchievedMbps[scheme][rate index].
	AchievedMbps map[router.Scheme][]float64
}

// RunFig8 sweeps the neighbor pair's bit rate under each scheme.
func RunFig8(bitRates []phy.Rate, perRun time.Duration, seed uint64) *Fig8Result {
	res := &Fig8Result{BitRates: bitRates, AchievedMbps: make(map[router.Scheme][]float64)}
	for _, scheme := range Fig8Schemes {
		for ri, rate := range bitRates {
			res.AchievedMbps[scheme] = append(res.AchievedMbps[scheme],
				runNeighborPair(scheme, rate, perRun, seed+uint64(ri)))
		}
	}
	return res
}

// runNeighborPair measures the neighbor pair's UDP throughput on channel 1
// with our power-injecting router alongside.
func runNeighborPair(scheme router.Scheme, neighborRate phy.Rate, perRun time.Duration, seed uint64) float64 {
	sched := eventsim.New()
	ch1 := medium.NewChannel(phy.Channel1, sched)
	channels := map[phy.Channel]*medium.Channel{phy.Channel1: ch1}

	rcfg := router.DefaultConfig()
	rcfg.Scheme = scheme
	rcfg.Channels = []phy.Channel{phy.Channel1}
	rcfg.EqualShareRate = neighborRate
	rt := router.New(rcfg, channels, 100, seed)

	// The neighboring router-client pair, a few metres away.
	nAP := mac.NewStation(400, "neighbor-ap", medium.Location{X: 4}, ch1,
		xrand.NewFromLabel(seed, "nap"))
	nAP.RateCtl = mac.FixedRate(neighborRate)
	nClient := mac.NewStation(401, "neighbor-client", medium.Location{X: 6}, ch1,
		xrand.NewFromLabel(seed, "nclient"))
	nClient.OnDeliver = func(f *mac.Frame, from int) {
		if p, isPacket := f.Payload.(*netstack.Packet); isPacket && p.Dst != nil {
			p.Dst.Deliver(p)
		}
	}

	sink := &netstack.UDPSink{Sched: sched}
	src := &netstack.UDPSource{
		Sched: sched,
		Path: netstack.FuncPath(func(p *netstack.Packet) {
			nAP.Enqueue(&mac.Frame{
				DstID:   nClient.StationID(),
				Bytes:   p.Bytes + netstack.IPOverheadBytes,
				Kind:    medium.KindData,
				Payload: p,
			})
		}),
		Sink:         sink,
		PayloadBytes: 1500,
		// iperf at the highest data rate: saturate the neighbor link.
		RateMbps: neighborRate.Mbps(),
	}

	rt.Start()
	src.Start()
	sched.RunUntil(perRun)
	return sink.ThroughputMbps(0, perRun)
}

// WriteTo prints the Fig. 8 table.
func (r *Fig8Result) WriteTable(w io.Writer) {
	fmt.Fprint(w, "neighbor_rate")
	for _, s := range Fig8Schemes {
		fmt.Fprintf(w, "  %10s", s)
	}
	fmt.Fprintln(w, "  (achieved Mbps)")
	for ri, rate := range r.BitRates {
		fmt.Fprintf(w, "%13v", rate)
		for _, s := range Fig8Schemes {
			fmt.Fprintf(w, "  %10.2f", r.AchievedMbps[s][ri])
		}
		fmt.Fprintln(w)
	}
}

func init() {
	register("fig8", "fairness to neighboring networks",
		func(w io.Writer, quick bool) {
			header(w, "fig8", "Effect on neighboring networks")
			rates := []phy.Rate{phy.Rate6Mbps, phy.Rate9Mbps, phy.Rate12Mbps, phy.Rate18Mbps,
				phy.Rate24Mbps, phy.Rate36Mbps, phy.Rate48Mbps, phy.Rate54Mbps}
			per := 3 * time.Second
			if quick {
				rates = []phy.Rate{phy.Rate6Mbps, phy.Rate18Mbps, phy.Rate54Mbps}
				per = 1 * time.Second
			}
			RunFig8(rates, per, 23).WriteTable(w)
		})
}
