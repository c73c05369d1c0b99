package deploy

// BinBatch is the struct-of-arrays form of one home's logging bins —
// the batched fleet kernel's unit of work. Where the streaming runner
// hands each bin to a callback as it is simulated, the batch runner
// fills contiguous per-column arrays: the packet-level samples land in
// Occupancy first, then one link-budget-plus-surface loop fills
// SensorRate and NetHarvestedW for the whole batch
// (core.TempSensorDevice.EvaluateBatch), and the aggregate folds run
// over plain float64 columns. A BinBatch is reused across homes by the
// fleet workers; Reset re-dimensions it without reallocating in steady
// state.
type BinBatch struct {
	// Hour is each bin's local time of day.
	Hour []float64
	// Occupancy holds per-channel airtime fractions in [0, 1], indexed
	// in phy.PoWiFiChannels order.
	Occupancy [][3]float64
	// CumulativePct is the percentage sum across channels per bin.
	CumulativePct []float64
	// SensorRate is the sensor's update rate per bin (0 when it cannot
	// boot), filled by the batched evaluate stage.
	SensorRate []float64
	// NetHarvestedW is the sensor's net harvested power per bin.
	NetHarvestedW []float64
	// Simulated marks bins whose occupancy came from the packet-level
	// event simulation. The exact tier simulates every bin; the coarse
	// tier leaves proxied bins false.
	Simulated []bool
}

// Len returns the number of bins in the batch.
func (b *BinBatch) Len() int { return len(b.Hour) }

// Reset re-dimensions the batch to n bins, reusing backing arrays when
// they are large enough, and clears the Simulated marks.
func (b *BinBatch) Reset(n int) {
	b.Hour = resize(b.Hour, n)
	b.CumulativePct = resize(b.CumulativePct, n)
	b.SensorRate = resize(b.SensorRate, n)
	b.NetHarvestedW = resize(b.NetHarvestedW, n)
	if cap(b.Occupancy) < n {
		b.Occupancy = make([][3]float64, n)
	}
	b.Occupancy = b.Occupancy[:n]
	if cap(b.Simulated) < n {
		b.Simulated = make([]bool, n)
	}
	b.Simulated = b.Simulated[:n]
	for i := range b.Simulated {
		b.Simulated[i] = false
	}
}

// Sample returns bin i as the streaming runner's AoS record, for
// per-bin consumers (the lifecycle ledger, aggregate folds) that walk a
// finished batch.
func (b *BinBatch) Sample(i int) BinSample {
	return BinSample{
		Bin:           i,
		HourOfDay:     b.Hour[i],
		Occupancy:     b.Occupancy[i],
		CumulativePct: b.CumulativePct[i],
		SensorRate:    b.SensorRate[i],
		NetHarvestedW: b.NetHarvestedW[i],
	}
}

// RunBatch simulates one home deployment into b, the batched
// counterpart of RunStream: plan every bin's drive up front, run the
// packet-level sample per bin into the occupancy column, then evaluate
// the sensor chain over the whole batch in one link-budget-plus-surface
// loop. Bin i of the result is bit-identical to the i-th BinSample
// RunStream delivers (the parity suite pins this); only the control
// structure differs.
//
// each, if non-nil, is called before each bin's packet-level sample
// with the bin index; returning false abandons the home mid-batch (the
// fleet workers' per-bin cancellation check) and RunBatch reports
// false with b in an unspecified state. The Sampler remains reusable.
func (smp *Sampler) RunBatch(cfg HomeConfig, opts Options, b *BinBatch, each func(bin int) bool) bool {
	opts = opts.withDefaults()
	nBins := opts.NumBins()
	smp.planBins(cfg, opts, nBins)

	smp.sensor.Exact = opts.Exact
	for i := range smp.monitors {
		smp.monitors[i].BinWidth = opts.Window
	}

	b.Reset(nBins)
	copy(b.Hour, smp.plan.hour)
	for bin := 0; bin < nBins; bin++ {
		if each != nil && !each(bin) {
			return false
		}
		b.Occupancy[bin] = smp.sampleBin(cfg.Seed*1_000_003+uint64(bin),
			smp.plan.clientLoad[bin], smp.plan.neighborLoad[bin], opts.Window)
		b.Simulated[bin] = true
		smp.tele.Bin()
		if smp.tr != nil {
			smp.tr.BinSimulated(bin, smp.scheduled())
		}
	}
	smp.evaluateBatch(opts, b)
	return true
}

// evaluateBatch runs the batched evaluate stage over every bin of b:
// the cumulative-occupancy fold and the sensor chain's link-budget +
// operating-point solve, one loop per column. The per-channel RF budget
// is memoized across the batch (it depends only on the geometry), so
// the per-bin work is the surface lookup alone.
func (smp *Sampler) evaluateBatch(opts Options, b *BinBatch) {
	for i, occ := range b.Occupancy {
		cum := 0.0
		for _, v := range occ {
			cum += v * 100
		}
		b.CumulativePct[i] = cum
	}
	smp.sensor.EvaluateBatch(opts.SensorDistanceFt, b.Occupancy, b.SensorRate, b.NetHarvestedW)
}
