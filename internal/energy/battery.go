package energy

import "math"

// Battery implements the paper's coulomb-counting battery model: every update
// converts the instantaneous power draw into a current using the terminal
// voltage, integrates the charge drawn, and derives the terminal voltage from
// the remaining state of charge using a LiPo-style discharge curve (Chen &
// Rincon-Mora).
type Battery struct {
	// CapacityCoulombs is the full charge of the pack. A 5700 mAh Matrice 100
	// pack holds 5.7 Ah * 3600 s = 20520 C.
	CapacityCoulombs float64
	// CellCount and per-cell voltage parameters define the pack voltage.
	CellCount        int
	CellFullVoltage  float64 // V at 100 % SoC
	CellEmptyVoltage float64 // V at 0 % SoC

	drawnCoulombs float64
}

// NewMatrice100Battery returns the paper's DJI Matrice 100 TB47D-class pack:
// 6S, 5700 mAh.
func NewMatrice100Battery() *Battery {
	return &Battery{
		CapacityCoulombs: 5.7 * 3600,
		CellCount:        6,
		CellFullVoltage:  4.2,
		CellEmptyVoltage: 3.3,
	}
}

// StateOfCharge returns the remaining charge fraction in [0, 1].
func (b *Battery) StateOfCharge() float64 {
	soc := 1 - b.drawnCoulombs/b.CapacityCoulombs
	if soc < 0 {
		return 0
	}
	if soc > 1 {
		return 1
	}
	return soc
}

// Depleted reports whether the pack has been fully drained.
func (b *Battery) Depleted() bool { return b.StateOfCharge() <= 0 }

// Voltage returns the pack terminal voltage as a function of state of charge.
// The curve is the usual LiPo shape: a steep initial drop, a long plateau and
// a steep final knee, approximated with an exponential + linear blend.
func (b *Battery) Voltage() float64 {
	soc := b.StateOfCharge()
	span := b.CellFullVoltage - b.CellEmptyVoltage
	// Blend: mostly linear with an exponential knee near empty.
	cell := b.CellEmptyVoltage + span*(0.2+0.8*soc) - 0.2*span*math.Exp(-8*soc)
	if cell < b.CellEmptyVoltage {
		cell = b.CellEmptyVoltage
	}
	if cell > b.CellFullVoltage {
		cell = b.CellFullVoltage
	}
	return cell * float64(b.CellCount)
}

// Drain integrates a constant power draw (watts) over dt seconds, performing
// the coulomb count at the present terminal voltage. It returns the current
// drawn in amperes.
func (b *Battery) Drain(powerW, dt float64) float64 {
	if powerW <= 0 || dt <= 0 {
		return 0
	}
	v := b.Voltage()
	if v <= 0 {
		return 0
	}
	current := powerW / v
	b.drawnCoulombs += current * dt
	return current
}
