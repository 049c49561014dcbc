package energy

import (
	"math"
	"testing"
	"testing/quick"

	"mavbench/internal/geom"
)

func TestHoverPowerInPaperEnvelope(t *testing.T) {
	m := NewRotorPowerModel(3.6)
	p := m.HoverPower()
	// The paper: off-the-shelf MAVs consume between 300 W and 400 W for
	// their rotors.
	if p < 280 || p > 420 {
		t.Errorf("hover power = %.1f W, want ~300-400 W", p)
	}
}

func TestPowerIncreasesWithSpeedAndAcceleration(t *testing.T) {
	m := NewRotorPowerModel(3.6)
	hover := m.HoverPower()
	cruise := m.Power(geom.V3(5, 0, 0), geom.Vec3{}, geom.Vec3{})
	if cruise <= hover {
		t.Errorf("cruise power %v should exceed hover power %v", cruise, hover)
	}
	accelerating := m.Power(geom.V3(5, 0, 0), geom.V3(3, 0, 0), geom.Vec3{})
	if accelerating <= cruise {
		t.Errorf("accelerating power %v should exceed cruise power %v", accelerating, cruise)
	}
	climbing := m.Power(geom.V3(0, 0, 3), geom.Vec3{}, geom.Vec3{})
	if climbing <= hover {
		t.Errorf("climb power %v should exceed hover power %v", climbing, hover)
	}
}

func TestHeadwindIncreasesPower(t *testing.T) {
	m := NewRotorPowerModel(3.6)
	still := m.Power(geom.V3(5, 0, 0), geom.Vec3{}, geom.Vec3{})
	// Equation 1's last term couples velocity and wind through the vehicle
	// mass; flying along the wind direction increases the dot product.
	windy := m.Power(geom.V3(5, 0, 0), geom.Vec3{}, geom.V3(4, 0, 0))
	if windy <= still {
		t.Errorf("windy power %v should exceed still-air power %v", windy, still)
	}
}

func TestPowerNeverNegative(t *testing.T) {
	m := NewRotorPowerModel(3.6)
	// Even adversarial coefficient/wind combinations must clamp at zero.
	m.Coefficients.Beta9 = -1000
	if p := m.Power(geom.Vec3{}, geom.Vec3{}, geom.Vec3{}); p != 0 {
		t.Errorf("power = %v, want clamp to 0", p)
	}
}

func TestPowerNonNegativeProperty(t *testing.T) {
	m := NewRotorPowerModel(3.6)
	f := func(vx, vy, vz, ax, ay, az, wx, wy float64) bool {
		clamp := func(x float64) float64 { return math.Mod(x, 20) }
		v := geom.V3(clamp(vx), clamp(vy), clamp(vz))
		a := geom.V3(clamp(ax), clamp(ay), clamp(az))
		w := geom.V3(clamp(wx), clamp(wy), 0)
		return m.Power(v, a, w) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeasuredSoloBreakdown(t *testing.T) {
	b := MeasuredSoloBreakdown()
	// Paper: rotors dominate compute by ~20X and compute is < 5 % of total.
	if b.RotorsW/b.ComputeW < 15 {
		t.Errorf("rotor/compute ratio = %.1f, want > 15", b.RotorsW/b.ComputeW)
	}
	if b.ComputeShare() >= 0.05 {
		t.Errorf("compute share = %.3f, want < 0.05", b.ComputeShare())
	}
	if math.Abs(b.Total()-(286.83+13+2)) > 1e-9 {
		t.Errorf("Total = %v", b.Total())
	}
	if b.String() == "" {
		t.Error("String empty")
	}
	if (PowerBreakdown{}).ComputeShare() != 0 {
		t.Error("zero breakdown should have zero share")
	}
}

func TestFlightPhaseString(t *testing.T) {
	phases := []FlightPhase{PhaseArming, PhaseTakeoff, PhaseHovering, PhaseFlying, PhaseLanding, PhaseLanded, FlightPhase(99)}
	for _, p := range phases {
		if p.String() == "" {
			t.Errorf("empty string for phase %d", p)
		}
	}
}

func TestMAVCatalogFigure2Shape(t *testing.T) {
	cat := MAVCatalog()
	if len(cat) < 8 {
		t.Fatalf("catalog too small: %d", len(cat))
	}
	// Figure 2a: within rotor-wing MAVs, larger battery capacity correlates
	// with longer endurance. Check with a rank correlation over rotor craft.
	var rotor []MAVCatalogEntry
	var fixed []MAVCatalogEntry
	for _, e := range cat {
		if e.WingType == "rotor" {
			rotor = append(rotor, e)
		} else {
			fixed = append(fixed, e)
		}
	}
	if len(fixed) == 0 {
		t.Fatal("catalog needs at least one fixed-wing MAV")
	}
	concordant, discordant := 0, 0
	for i := 0; i < len(rotor); i++ {
		for j := i + 1; j < len(rotor); j++ {
			dc := rotor[i].BatteryCapacity - rotor[j].BatteryCapacity
			de := rotor[i].EnduranceHours - rotor[j].EnduranceHours
			if dc*de > 0 {
				concordant++
			} else if dc*de < 0 {
				discordant++
			}
		}
	}
	if concordant <= discordant {
		t.Errorf("capacity/endurance correlation too weak: %d concordant vs %d discordant", concordant, discordant)
	}
	// Figure 2a: the fixed-wing Disco FPV outlasts the rotor-wing Bebop 2
	// Power despite similar battery capacity.
	var disco, bebop *MAVCatalogEntry
	for i := range cat {
		switch cat[i].Name {
		case "Parrot Disco FPV":
			disco = &cat[i]
		case "Parrot Bebop 2 Power":
			bebop = &cat[i]
		}
	}
	if disco == nil || bebop == nil {
		t.Fatal("catalog must include the Disco FPV and Bebop 2 Power")
	}
	if disco.EnduranceHours <= bebop.EnduranceHours {
		t.Error("fixed wing should outlast rotor wing at similar capacity")
	}
	if math.Abs(disco.BatteryCapacity-bebop.BatteryCapacity) > 1500 {
		t.Error("Disco and Bebop should have comparable battery capacity for the comparison to hold")
	}
}

func TestBatteryCoulombCounting(t *testing.T) {
	b := NewMatrice100Battery()
	if b.StateOfCharge() != 1 {
		t.Fatalf("fresh pack SoC = %v", b.StateOfCharge())
	}
	v0 := b.Voltage()
	if v0 < 22 || v0 > 26 {
		t.Errorf("6S full voltage = %.1f V, want ~25 V", v0)
	}

	// Drain at constant 400 W for 10 minutes of 1-second steps.
	for i := 0; i < 600; i++ {
		if amps := b.Drain(400, 1); amps <= 0 {
			t.Fatal("Drain returned non-positive current")
		}
	}
	soc := b.StateOfCharge()
	if soc <= 0 || soc >= 1 {
		t.Errorf("SoC after 10 min at 400 W = %v, want in (0,1)", soc)
	}
	if b.Voltage() >= v0 {
		t.Error("voltage should sag as charge is drawn")
	}
}

// drainUntilDepleted draws powerW from a fresh Matrice pack in 1-second steps
// until it is depleted or an hour has passed, and returns the pack and the
// seconds it lasted.
func drainUntilDepleted(powerW float64) (*Battery, int) {
	b := NewMatrice100Battery()
	s := 0
	for ; s < 3600 && !b.Depleted(); s++ {
		b.Drain(powerW, 1)
	}
	return b, s
}

func TestBatteryDepletion(t *testing.T) {
	// The paper quotes typical endurance under 20 minutes at 300-400 W.
	b, endurance := drainUntilDepleted(400)
	if !b.Depleted() {
		t.Fatal("pack never depleted")
	}
	if endurance < 10*60 || endurance > 30*60 {
		t.Errorf("endurance at 400 W = %d s, want roughly 20 minutes", endurance)
	}
	if b.StateOfCharge() != 0 {
		t.Errorf("depleted SoC = %v", b.StateOfCharge())
	}
	// Voltage stays at the empty floor, never below.
	if b.Voltage() < b.CellEmptyVoltage*float64(b.CellCount)-1e-9 {
		t.Errorf("voltage %v fell below empty floor", b.Voltage())
	}
}

func TestEnduranceEstimate(t *testing.T) {
	_, at400 := drainUntilDepleted(400)
	// Higher power, shorter endurance.
	if _, at600 := drainUntilDepleted(600); at600 >= at400 {
		t.Errorf("endurance at 600 W = %d s, not shorter than %d s at 400 W", at600, at400)
	}
	if b, _ := drainUntilDepleted(0); b.Depleted() || b.StateOfCharge() != 1 {
		t.Error("zero power should never drain the pack")
	}
}

func TestBatteryDrainEdgeCases(t *testing.T) {
	b := NewMatrice100Battery()
	if b.Drain(0, 1) != 0 || b.Drain(-5, 1) != 0 || b.Drain(100, 0) != 0 {
		t.Error("degenerate drains should draw no current")
	}
	if b.StateOfCharge() != 1 {
		t.Error("degenerate drains should not discharge the pack")
	}
}

func TestVoltageMonotonicWithDischargeProperty(t *testing.T) {
	f := func(steps uint8) bool {
		b := NewMatrice100Battery()
		prev := b.Voltage()
		for i := 0; i < int(steps); i++ {
			b.Drain(500, 5)
			v := b.Voltage()
			if v > prev+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
