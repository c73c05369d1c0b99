package harvester

// SeikoS882Z models the Seiko S-882Z charge-pump DC–DC converter used by
// the battery-free harvester. Its defining properties (§3.1):
//
//   - it cold-starts from input voltages as low as 300 mV (the best in its
//     class, and the reason Fig. 1's 300 mV line is the boot threshold);
//   - it pumps charge onto a storage capacitor until the capacitor reaches
//     2.4 V, then connects the capacitor to the output to power the
//     microcontroller and sensors;
//   - its pump moves only a limited current, which (together with diode
//     breakdown) caps the usable power at strong drive in Fig. 10.
type SeikoS882Z struct {
	// StartupV is the minimum rectifier output voltage at which the pump
	// can operate (0.30 V).
	StartupV float64
	// ReleaseV is the storage-capacitor voltage at which the output
	// switch closes (2.4 V).
	ReleaseV float64
	// InputR is the equivalent input resistance the pump presents to the
	// rectifier while running, in ohms.
	InputR float64
	// PumpLimitA is the maximum input current the pump can move.
	PumpLimitA float64
	// Efficiency is the charge-transfer efficiency of the pump.
	Efficiency float64
	// IdleLeakA is the current drawn from the rectifier output node while
	// below StartupV (startup oscillator attempts). This leak is what
	// drains the harvester during Wi-Fi silent periods in Fig. 1.
	IdleLeakA float64
}

// NewSeikoS882Z returns the datasheet-calibrated model.
func NewSeikoS882Z() *SeikoS882Z {
	return &SeikoS882Z{
		StartupV:   0.30,
		ReleaseV:   2.4,
		InputR:     9000,
		PumpLimitA: 75e-6,
		Efficiency: 0.55,
		IdleLeakA:  11e-6,
	}
}

// InputCurrent returns the current the pump draws from the rectifier
// output at voltage v. Below the startup threshold only the idle leak
// flows; above it, the pump draws v/InputR capped at the pump limit.
func (s *SeikoS882Z) InputCurrent(v float64) float64 {
	if v < s.StartupV {
		return s.IdleLeakA
	}
	i := v / s.InputR
	if i > s.PumpLimitA {
		i = s.PumpLimitA
	}
	return i
}

// OutputPower returns the power delivered into the storage capacitor when
// the pump input sits at voltage v. Zero below the startup threshold.
func (s *SeikoS882Z) OutputPower(v float64) float64 {
	if v < s.StartupV {
		return 0
	}
	return v * s.InputCurrent(v) * s.Efficiency
}

// BQ25570 models the TI bq25570 energy-harvesting chip used by the
// battery-recharging harvester and the battery-free camera: a boost
// converter with maximum-power-point tracking, a battery charger, and a
// buck converter (2.55 V regulated output for the image sensor).
//
// The paper sets the MPPT reference to 200 mV, which pins the rectifier's
// operating point and thereby stabilises the rectifier's input impedance
// across the three Wi-Fi channels — the co-design insight of §3.1.
type BQ25570 struct {
	// MPPTRefV is the rectifier output voltage the boost input regulates
	// to (0.20 V per the paper).
	MPPTRefV float64
	// MinOperatingV is the minimum input the boost can run from once the
	// chip is alive (battery-assisted; no cold start needed).
	MinOperatingV float64
	// BoostEff is the boost conversion efficiency at these input levels.
	BoostEff float64
	// BuckV is the regulated buck output voltage (2.55 V).
	BuckV float64
	// BuckEff is the buck conversion efficiency.
	BuckEff float64
	// QuiescentW is the chip's standing power draw from the battery.
	QuiescentW float64
	// RampA is the input current drawn when the rectifier output reaches
	// the MPPT reference; the load line ramps linearly from zero at
	// MinOperatingV up to this value at the reference.
	RampA float64
	// AboveRefSlopeS is the load-line conductance above the reference:
	// the MPPT loop pulls hard to pin the rectifier near the reference,
	// so this slope is steep.
	AboveRefSlopeS float64
	// InputLimitA is the boost converter's switch-current ceiling.
	InputLimitA float64
}

// NewBQ25570 returns the datasheet-calibrated model with the paper's
// 200 mV MPPT reference.
func NewBQ25570() *BQ25570 {
	return &BQ25570{
		MPPTRefV:       0.20,
		MinOperatingV:  0.10,
		BoostEff:       0.75,
		BuckV:          2.55,
		BuckEff:        0.85,
		QuiescentW:     1.9e-6,
		RampA:          50e-6,
		AboveRefSlopeS: 0.1,
		InputLimitA:    10e-3,
	}
}

// InputCurrent returns the current the boost draws from the rectifier
// output at voltage v. The MPPT regulation pulls the rectifier toward the
// reference: below MinOperatingV nothing flows; between MinOperatingV and
// the reference the draw ramps up; above the reference the steep slope
// pins the node, capped at the converter's switch-current limit. The
// function is non-decreasing in v, which the rectifier's bracketed
// operating-point solve relies on.
func (b *BQ25570) InputCurrent(v float64) float64 {
	if v < b.MinOperatingV {
		return 0
	}
	var i float64
	if v <= b.MPPTRefV {
		i = b.RampA * (v - b.MinOperatingV) / (b.MPPTRefV - b.MinOperatingV)
	} else {
		i = b.RampA + (v-b.MPPTRefV)*b.AboveRefSlopeS
	}
	if i > b.InputLimitA {
		i = b.InputLimitA
	}
	return i
}

// NetChargePower returns the power flowing into the battery (after boost
// efficiency and quiescent draw) when the rectifier output sits at v
// delivering current i. Negative values mean the chip costs the battery
// more than it harvests.
func (b *BQ25570) NetChargePower(v, i float64) float64 {
	if v < b.MinOperatingV || i <= 0 {
		return -b.QuiescentW
	}
	return v*i*b.BoostEff - b.QuiescentW
}
