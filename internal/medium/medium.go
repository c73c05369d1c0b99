// Package medium implements the shared wireless channel: who senses whom,
// which overlapping transmissions collide, and how much RF power arrives
// at any point in space.
//
// Each 2.4 GHz Wi-Fi channel is an independent Channel instance (channels
// 1, 6 and 11 do not overlap). Stations attach to a channel and interact
// through carrier sense and frame delivery; energy-harvester probes attach
// to a channel and simply integrate incident power over time — they do not
// decode anything, mirroring the real harvester's obliviousness to packet
// contents (§3).
//
// Channel independence is load-bearing: a Channel touches no state of
// another Channel, so channels may share one eventsim.Scheduler or each
// run on its own. The fleet sampler (internal/deploy) gives each channel
// its own kernel and runs them one after another; a component that
// coupled two channels would silently change its results, and the
// sampler's shared-scheduler oracle test exists to catch exactly that.
package medium

import (
	"math"
	"time"

	"repro/internal/eventsim"
	"repro/internal/phy"
	"repro/internal/rf"
	"repro/internal/units"
)

// Location is a point in the simulated floor plan, in metres.
type Location struct {
	X, Y float64
}

// DistanceTo returns the Euclidean distance to other in metres.
func (l Location) DistanceTo(other Location) float64 {
	dx, dy := l.X-other.X, l.Y-other.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Station is the medium-facing interface a MAC entity implements.
type Station interface {
	// StationID returns a unique identifier on this channel.
	StationID() int
	// Location returns the station's position.
	Location() Location
	// TxPowerDBm returns the transmit power.
	TxPowerDBm() float64
	// AntennaGainDBi returns the antenna gain applied to both transmit
	// and receive.
	AntennaGainDBi() float64
	// OnChannelBusy notifies that the station now senses the channel busy.
	OnChannelBusy()
	// OnChannelIdle notifies that the station now senses the channel idle.
	OnChannelIdle()
	// OnReceive delivers a completed transmission. ok is false when the
	// frame collided or arrived below the rate's sensitivity.
	OnReceive(tx *Transmission, ok bool)
	// OnTxComplete notifies the transmitter that its own transmission
	// finished.
	OnTxComplete(tx *Transmission)
}

// FrameKind classifies transmissions for statistics and delivery logic.
type FrameKind int

// Frame kinds used across the stack.
const (
	KindData FrameKind = iota
	KindAck
	KindBeacon
	KindPower // PoWiFi power packet (UDP broadcast)
)

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindBeacon:
		return "beacon"
	case KindPower:
		return "power"
	}
	return "unknown"
}

// Broadcast is the destination ID of broadcast transmissions.
const Broadcast = -1

// NumFrameKinds sizes per-kind statistic arrays: one slot per FrameKind.
const NumFrameKinds = int(KindPower) + 1

// Transmission is one frame on the air.
type Transmission struct {
	Src     Station
	DstID   int // station ID or Broadcast
	Bytes   int // full MAC frame length
	Rate    phy.Rate
	Kind    FrameKind
	Payload any
	Start   time.Duration
	End     time.Duration

	overlapped []*Transmission // transmissions that overlapped this one

	// senseMask records which stations (by channel index, one bit each)
	// sense this transmission, computed once at StartTx and reused at
	// endTx — the set cannot change mid-flight because geometry is
	// fixed while a run is in progress.
	senseMask uint64
	// srcIdx is Src's index in the channel's station list, resolved once
	// at StartTx.
	srcIdx int
}

// Airtime returns the transmission's on-air duration.
func (t *Transmission) Airtime() time.Duration { return t.End - t.Start }

// PowerProbe receives incident-power updates from a channel. The harvester
// integration layer implements this to accumulate RF energy.
type PowerProbe interface {
	// ProbeLocation returns the probe's position.
	ProbeLocation() Location
	// ProbeGainDBi returns the probe antenna gain (2 dBi in the paper).
	ProbeGainDBi() float64
	// ExtraLossDB returns additional fixed path loss (e.g. a wall).
	ExtraLossDB() float64
	// OnIncidentPower reports that the total incident power at the probe
	// changed to w watts at the current simulation time.
	OnIncidentPower(w float64)
}

// Channel is one Wi-Fi channel's shared medium.
type Channel struct {
	Num      phy.Channel
	Sched    *eventsim.Scheduler
	PathLoss rf.PathLossModel

	stations []Station
	// activeN bounds the participating prefix of stations: carrier
	// sense, delivery and capture only see stations[:activeN]. A pooled
	// context attaches its maximum topology once and activates the
	// per-run prefix, which reproduces exactly the station set a fresh
	// build would have attached.
	activeN int
	probes  []PowerProbe
	active  []*Transmission

	// senseCounts tracks, per station (parallel to stations), how many
	// active transmissions the station currently senses, to derive
	// busy/idle edges.
	senseCounts []int

	// rxCache memoizes the pairwise station→station received power
	// (a flat len(stations)² matrix, NaN = not yet computed). Station
	// positions, powers and gains are fixed once a run starts, and the
	// carrier-sense/capture checks re-derive the same pure path-loss
	// math on every busy edge — the cache turns each repeat into a
	// load. Reset and AddStation invalidate it.
	rxCache []float64

	// Observers receive every completed transmission regardless of
	// addressing, like a monitor-mode interface running tcpdump (§4's
	// occupancy methodology).
	Observers []func(tx *Transmission)

	// Stats, indexed by FrameKind. Fixed arrays rather than maps: the
	// transmit path bumps them per frame, and map traffic was a
	// measurable slice of the sampler's steady-state cost.
	TxCount    [NumFrameKinds]int
	TxAirtime  [NumFrameKinds]time.Duration
	Collisions int

	// endTxFn is the long-lived end-of-transmission callback; scheduling
	// it with the transmission as the context word costs no per-event
	// closure.
	endTxFn func(ctx any)

	// txPool recycles Transmission structs across Resets: txNext indexes
	// the next reusable slot, and slots are only reused after a Reset,
	// when no live references remain.
	txPool []*Transmission
	txNext int

	// One-entry airtime memo for the per-frame phy.Airtime derivation
	// (pure in bytes and rate; traffic is dominated by one or two frame
	// shapes per run).
	lastAirBytes int
	lastAirRate  phy.Rate
	lastAirtime  time.Duration
}

// NewChannel creates a channel medium on the scheduler with free-space
// propagation by default.
func NewChannel(num phy.Channel, sched *eventsim.Scheduler) *Channel {
	c := &Channel{
		Num:      num,
		Sched:    sched,
		PathLoss: rf.FreeSpace{},
	}
	c.endTxFn = func(ctx any) { c.endTx(ctx.(*Transmission)) }
	return c
}

// newTransmission returns a zeroed transmission from the pool, keeping
// any overlap-slice capacity a recycled slot already grew.
func (c *Channel) newTransmission() *Transmission {
	if c.txNext < len(c.txPool) {
		tx := c.txPool[c.txNext]
		c.txNext++
		overlapped := tx.overlapped[:0]
		*tx = Transmission{overlapped: overlapped}
		return tx
	}
	tx := &Transmission{}
	c.txPool = append(c.txPool, tx)
	c.txNext++
	return tx
}

// Reset clears the channel's dynamic state — in-flight transmissions,
// carrier-sense counts, statistics and the transmission pool cursor —
// while keeping its topology (attached stations, probes and observers)
// and allocated memory. Callers must reset the scheduler alongside, so
// no recycled transmission is still referenced by a queued event.
//
// The pairwise received-power memo survives Reset: it depends only on
// station geometry, powers, gains and the path-loss model, all of which
// attachment fixes. A caller that mutates any of those between runs
// must call InvalidateRxCache.
func (c *Channel) Reset() {
	for i := range c.active {
		c.active[i] = nil
	}
	c.active = c.active[:0]
	for i := range c.senseCounts {
		c.senseCounts[i] = 0
	}
	c.TxCount = [NumFrameKinds]int{}
	c.TxAirtime = [NumFrameKinds]time.Duration{}
	c.Collisions = 0
	c.txNext = 0
}

// InvalidateRxCache marks every pairwise received-power entry stale.
// AddStation calls it automatically; callers that change a station's
// power, gain or position, or the channel's PathLoss, after attachment
// must call it themselves.
func (c *Channel) InvalidateRxCache() { c.invalidateRxCache() }

// invalidateRxCache marks every pairwise received-power entry stale.
func (c *Channel) invalidateRxCache() {
	n := len(c.stations) * len(c.stations)
	if cap(c.rxCache) < n {
		c.rxCache = make([]float64, n)
	}
	c.rxCache = c.rxCache[:n]
	for i := range c.rxCache {
		c.rxCache[i] = math.NaN()
	}
}

// stationIndex returns s's position in the attachment list (active or
// not), or -1 for a station that never attached. The list is small (a
// handful of stations per channel), so a linear scan beats any map.
func (c *Channel) stationIndex(s Station) int {
	for i, st := range c.stations {
		if st == s {
			return i
		}
	}
	return -1
}

// rxStationPower returns the memoized received power at station dst
// (index j) from station src (index i). A negative source index (an
// unattached transmitter) computes directly, uncached.
func (c *Channel) rxStationPower(i, j int, src, dst Station) float64 {
	if i < 0 {
		return c.rxPowerDBm(src, dst.Location(), dst.AntennaGainDBi(), 0)
	}
	k := i*len(c.stations) + j
	if v := c.rxCache[k]; !math.IsNaN(v) {
		return v
	}
	v := c.rxPowerDBm(src, dst.Location(), dst.AntennaGainDBi(), 0)
	c.rxCache[k] = v
	return v
}

// AddStation attaches a station to the channel and returns its
// attachment index. New stations are active by default. Stations that
// keep the index can use the index-direct fast paths (StartTxFrom,
// SensesIdx) and skip the attachment-list scan.
func (c *Channel) AddStation(s Station) int {
	c.stations = append(c.stations, s)
	c.senseCounts = append(c.senseCounts, 0)
	c.activeN = len(c.stations)
	c.invalidateRxCache()
	return len(c.stations) - 1
}

// SetActiveStations makes only the first n attached stations participate
// in the medium; later attachments lie dormant (a pooling layer's spare
// contenders). n is clamped to the attached count. The pairwise power
// memo is indexed by full attachment order, so activation changes do not
// invalidate it.
func (c *Channel) SetActiveStations(n int) {
	if n < 0 {
		n = 0
	}
	if n > len(c.stations) {
		n = len(c.stations)
	}
	c.activeN = n
}

// AddProbe attaches an energy-harvesting probe.
func (c *Channel) AddProbe(p PowerProbe) {
	c.probes = append(c.probes, p)
}

// rxPowerDBm returns the received power at location/gain from a
// transmission's source.
func (c *Channel) rxPowerDBm(src Station, loc Location, gainDBi, extraLossDB float64) float64 {
	link := rf.Link{
		TxPowerDBm: src.TxPowerDBm(),
		TxAntenna:  rf.Antenna{GainDBi: src.AntennaGainDBi()},
		RxAntenna:  rf.Antenna{GainDBi: gainDBi},
		DistanceM:  src.Location().DistanceTo(loc),
		Model:      c.PathLoss,
	}
	return link.ReceivedPowerDBm(c.Num.FreqHz()) - extraLossDB
}

// Senses reports whether station s currently senses the channel busy.
func (c *Channel) Senses(s Station) bool {
	if i := c.stationIndex(s); i >= 0 {
		return c.senseCounts[i] > 0
	}
	return false
}

// SensesIdx reports whether the station at attachment index idx
// currently senses the channel busy — the scan-free form of Senses.
func (c *Channel) SensesIdx(idx int) bool { return c.senseCounts[idx] > 0 }

// senses reports whether the station at index j can sense transmission
// tx, whose source sits at index srcIdx.
func (c *Channel) senses(j, srcIdx int, s Station, tx *Transmission) bool {
	if j == srcIdx {
		return false
	}
	return c.rxStationPower(srcIdx, j, tx.Src, s) >= phy.CSThresholdDBm
}

// StartTx begins transmitting a frame. The transmission ends and resolves
// automatically after its airtime.
func (c *Channel) StartTx(src Station, dstID, bytes int, rate phy.Rate, kind FrameKind, payload any) *Transmission {
	return c.StartTxFrom(c.stationIndex(src), src, dstID, bytes, rate, kind, payload)
}

// StartTxFrom is StartTx for callers that know their attachment index
// (as returned by AddStation), skipping the station-list scan on the
// per-frame hot path.
func (c *Channel) StartTxFrom(srcIdx int, src Station, dstID, bytes int, rate phy.Rate, kind FrameKind, payload any) *Transmission {
	now := c.Sched.Now()
	tx := c.newTransmission()
	tx.Src = src
	tx.DstID = dstID
	tx.Bytes = bytes
	tx.Rate = rate
	tx.Kind = kind
	tx.Payload = payload
	tx.Start = now
	if bytes != c.lastAirBytes || rate != c.lastAirRate {
		c.lastAirBytes, c.lastAirRate = bytes, rate
		c.lastAirtime = phy.Airtime(bytes, rate)
	}
	tx.End = now + c.lastAirtime
	// Record pairwise overlaps with already-active transmissions.
	for _, other := range c.active {
		other.overlapped = append(other.overlapped, tx)
		tx.overlapped = append(tx.overlapped, other)
	}
	c.active = append(c.active, tx)
	c.TxCount[kind]++
	c.TxAirtime[kind] += tx.Airtime()

	// Busy edges for stations that sense this transmission.
	tx.srcIdx = srcIdx
	for j, s := range c.stations[:c.activeN] {
		if c.senses(j, srcIdx, s, tx) {
			if j < 64 {
				tx.senseMask |= 1 << uint(j)
			}
			c.senseCounts[j]++
			if c.senseCounts[j] == 1 {
				s.OnChannelBusy()
			}
		}
	}
	c.updateProbes()

	c.Sched.AtCtx(tx.End, c.endTxFn, tx)
	return tx
}

// endTx resolves a completed transmission: removes it from the air,
// releases carrier sense, and delivers it to receivers.
func (c *Channel) endTx(tx *Transmission) {
	for i, a := range c.active {
		if a == tx {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	srcIdx := tx.srcIdx
	for j, s := range c.stations[:c.activeN] {
		sensed := tx.senseMask&(1<<uint(j)) != 0
		if j >= 64 {
			sensed = c.senses(j, srcIdx, s, tx)
		}
		if sensed {
			c.senseCounts[j]--
			if c.senseCounts[j] == 0 {
				s.OnChannelIdle()
			}
		}
	}
	c.updateProbes()

	if len(tx.overlapped) > 0 {
		c.Collisions++
	}
	for _, obs := range c.Observers {
		obs(tx)
	}

	// Deliver to each station other than the source.
	for j, s := range c.stations[:c.activeN] {
		if j == srcIdx {
			continue
		}
		if tx.DstID != Broadcast && tx.DstID != s.StationID() {
			// Not addressed here; stations still get overheard frames
			// (needed by monitor interfaces), flagged by delivery result.
			continue
		}
		ok := c.decodes(j, srcIdx, s, tx)
		s.OnReceive(tx, ok)
	}
	tx.Src.OnTxComplete(tx)
}

// decodes reports whether the station at index j successfully decodes
// tx (source at index srcIdx): the frame must arrive above the rate's
// sensitivity, and any overlapping transmission must be CaptureMarginDB
// weaker.
func (c *Channel) decodes(j, srcIdx int, s Station, tx *Transmission) bool {
	rx := c.rxStationPower(srcIdx, j, tx.Src, s)
	if rx < phy.MinSensitivityDBm(tx.Rate) {
		return false
	}
	for _, other := range tx.overlapped {
		if other.srcIdx == j {
			// The station was itself transmitting: half-duplex, no decode.
			return false
		}
		interference := c.rxStationPower(other.srcIdx, j, other.Src, s)
		if rx-interference < phy.CaptureMarginDB {
			return false
		}
	}
	return true
}

// updateProbes pushes the current total incident power to every probe.
func (c *Channel) updateProbes() {
	for _, p := range c.probes {
		total := 0.0
		for _, tx := range c.active {
			dbm := c.rxPowerDBm(tx.Src, p.ProbeLocation(), p.ProbeGainDBi(), p.ExtraLossDB())
			total += units.DBmToWatts(dbm)
		}
		p.OnIncidentPower(total)
	}
}

// ActiveCount returns the number of in-flight transmissions (test hook).
func (c *Channel) ActiveCount() int { return len(c.active) }
