// Package testbed assembles the paper's benchmark topologies: a PoWiFi
// router with its associated client in a busy office (§4.1), neighbor
// router–client pairs (Fig. 8), and the supporting wiring between the
// simulated 802.11 MAC and the transport layer.
//
// Layout used throughout §4.1: the router provides Internet access on
// channel 1 via NAT; a Dell laptop client sits seven feet away; other
// networks operate on channels 1, 6 and 11.
package testbed

import (
	"time"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/netstack"
	"repro/internal/phy"
	"repro/internal/router"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Station IDs are allocated in blocks per role to keep them unique within
// a channel.
const (
	routerBaseID = 100
	clientBaseID = 200
	bgBaseID     = 300
	neighborBase = 400
)

// Client is an associated Wi-Fi client (the Dell Inspiron laptop of
// §4.1): a MAC station that dispatches received network packets to their
// endpoints and offers an uplink path back through the router.
type Client struct {
	MAC *mac.Station
}

// NewClient attaches a client station to a channel.
func NewClient(id int, loc medium.Location, ch *medium.Channel, rng *xrand.Rand) *Client {
	c := &Client{MAC: mac.NewStation(id, "client", loc, ch, rng)}
	c.MAC.PowerDBm = 15
	c.MAC.GainDBi = 2
	c.MAC.OnDeliver = func(f *mac.Frame, from int) {
		if p, isPacket := f.Payload.(*netstack.Packet); isPacket && p.Dst != nil {
			p.Dst.Deliver(p)
		}
	}
	return c
}

// Downlink adapts a router radio into a netstack.Path that transmits
// unicast data frames to a client station. Drops happen at the transmit
// queue (drop-tail per flow) and after MAC retry exhaustion.
type Downlink struct {
	Radio    *mac.Station
	ClientID int
}

// Send implements netstack.Path.
func (d *Downlink) Send(p *netstack.Packet) {
	d.Radio.Enqueue(&mac.Frame{
		DstID:   d.ClientID,
		Bytes:   p.Bytes + netstack.IPOverheadBytes,
		Kind:    medium.KindData,
		Payload: p,
	})
}

// Uplink adapts a client station into a netstack.Path that transmits
// unicast frames to the router radio, which forwards them over the wired
// side after the NAT hop.
type Uplink struct {
	Client   *mac.Station
	RouterID int
}

// Send implements netstack.Path.
func (u *Uplink) Send(p *netstack.Packet) {
	u.Client.Enqueue(&mac.Frame{
		DstID:   u.RouterID,
		Bytes:   p.Bytes + netstack.IPOverheadBytes,
		Kind:    medium.KindData,
		Payload: p,
	})
}

// Bench is the §4.1 benchmark environment.
type Bench struct {
	Sched    *eventsim.Scheduler
	Channels map[phy.Channel]*medium.Channel
	Router   *router.Router
	Client   *Client
	// WiredLatency is the one-way Internet latency between the test
	// server and the router.
	WiredLatency time.Duration
	// Backgrounds are the other networks in the busy office.
	Backgrounds []*traffic.Background
}

// BenchConfig parameterizes the standard environment.
type BenchConfig struct {
	Scheme router.Scheme
	// BackgroundLoad is the offered airtime fraction per channel from
	// other office networks (≈0.25 on a busy weekday).
	BackgroundLoad float64
	// ClientDistanceFt is the router–client distance (7 ft in §4.1).
	ClientDistanceFt float64
	// WiredLatency one-way (defaults to 10 ms).
	WiredLatency time.Duration
	// Seed drives all randomness.
	Seed uint64
	// EqualShareRate configures the EqualShare scheme.
	EqualShareRate phy.Rate
}

// NewBench builds the standard environment: three channel media, a router
// with the given scheme, one client on channel 1, and background load on
// every channel.
func NewBench(cfg BenchConfig) *Bench {
	if cfg.ClientDistanceFt == 0 {
		cfg.ClientDistanceFt = 7
	}
	if cfg.WiredLatency == 0 {
		cfg.WiredLatency = 10 * time.Millisecond
	}
	sched := eventsim.New()
	channels := make(map[phy.Channel]*medium.Channel, 3)
	for _, chNum := range phy.PoWiFiChannels {
		channels[chNum] = medium.NewChannel(chNum, sched)
	}

	rcfg := router.DefaultConfig()
	rcfg.Scheme = cfg.Scheme
	if cfg.EqualShareRate != 0 {
		rcfg.EqualShareRate = cfg.EqualShareRate
	}
	rt := router.New(rcfg, channels, routerBaseID, cfg.Seed)

	b := &Bench{
		Sched:        sched,
		Channels:     channels,
		Router:       rt,
		WiredLatency: cfg.WiredLatency,
	}

	clientLoc := medium.Location{X: units.FeetToMeters(cfg.ClientDistanceFt)}
	b.Client = NewClient(clientBaseID, clientLoc, channels[phy.Channel1],
		xrand.NewFromLabel(cfg.Seed, "client"))
	// The client uses the default rate adaptation, like the paper's
	// laptop.
	b.Client.MAC.RateCtl = mac.NewARF()

	if cfg.BackgroundLoad > 0 {
		i := 0
		for _, chNum := range phy.PoWiFiChannels {
			bg := traffic.NewBackground(sched, channels[chNum], bgBaseID+i,
				medium.Location{X: 5, Y: 4},
				cfg.BackgroundLoad,
				xrand.NewFromLabel(cfg.Seed, "bg/"+chNum.String()))
			b.Backgrounds = append(b.Backgrounds, bg)
			i++
		}
	}
	return b
}

// Start launches the router's injectors and the background load.
func (b *Bench) Start() {
	b.Router.Start()
	for _, bg := range b.Backgrounds {
		bg.Start()
	}
}

// RouterRadio returns the channel-1 radio MAC (the client-serving
// interface).
func (b *Bench) RouterRadio() *mac.Station {
	return b.Router.Radio(phy.Channel1).MAC
}

// DownlinkPath returns the full server→client path: wired hop into the
// router, then the channel-1 wireless hop.
func (b *Bench) DownlinkPath() netstack.Path {
	wireless := &Downlink{Radio: b.RouterRadio(), ClientID: b.Client.MAC.StationID()}
	return &netstack.WiredPath{Sched: b.Sched, Latency: b.WiredLatency, Next: wireless}
}

// UplinkPath returns the client→server path: the wireless hop to the
// router, then the wired hop. The router radio forwards delivered frames
// onto the wired side.
func (b *Bench) UplinkPath() netstack.Path {
	radio := b.RouterRadio()
	radio.OnDeliver = func(f *mac.Frame, from int) {
		if p, isPacket := f.Payload.(*netstack.Packet); isPacket && p.Dst != nil {
			b.Sched.After(b.WiredLatency, func() { p.Dst.Deliver(p) })
		}
	}
	return &Uplink{Client: b.Client.MAC, RouterID: radio.StationID()}
}
