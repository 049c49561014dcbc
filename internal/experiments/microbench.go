package experiments

import (
	"context"

	"mavbench/internal/actuation"
	"mavbench/internal/des"
	"mavbench/internal/energy"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/physics"
	"mavbench/internal/sim"
	"mavbench/internal/slam"
)

// Fig2Row is one commercial MAV of the background Figure 2.
type Fig2Row struct {
	Name            string
	WingType        string
	BatteryCapacity float64
	EnduranceHours  float64
	SizeMM          float64
}

// Fig2 reproduces Figure 2: endurance and size versus battery capacity for
// commercial MAVs.
func Fig2() ([]Fig2Row, Table) {
	var rows []Fig2Row
	t := Table{
		Title:   "Figure 2: commercial MAVs — endurance and size vs battery capacity",
		Columns: []string{"mav", "wing", "battery_mAh", "endurance_h", "size_mm"},
	}
	for _, e := range energy.MAVCatalog() {
		rows = append(rows, Fig2Row{Name: e.Name, WingType: e.WingType, BatteryCapacity: e.BatteryCapacity, EnduranceHours: e.EnduranceHours, SizeMM: e.SizeMM})
		t.Rows = append(t.Rows, []string{e.Name, e.WingType, f1(e.BatteryCapacity), f2(e.EnduranceHours), f1(e.SizeMM)})
	}
	t.Notes = "higher capacity => higher endurance; fixed wing beats rotor wing at equal capacity"
	return rows, t
}

// Fig8aRow is one point of the theoretical max-velocity curve.
type Fig8aRow struct {
	ProcessTimeS float64
	MaxVelocity  float64
}

// Fig8a reproduces Figure 8a: the theoretical maximum safe velocity
// (Equation 2) as a function of the perception-to-actuation processing time.
func Fig8a() ([]Fig8aRow, Table) {
	const (
		amax = 6.0
		d    = 6.5
	)
	var rows []Fig8aRow
	t := Table{
		Title:   "Figure 8a: theoretical max velocity vs processing time (Eq. 2)",
		Columns: []string{"process_time_s", "max_velocity_mps"},
		Notes:   "paper: 8.83 m/s at 0 s down to 1.57 m/s at 4 s",
	}
	for pt := 0.0; pt <= 4.0001; pt += 0.25 {
		v := physics.MaxSafeVelocity(pt, d, amax)
		rows = append(rows, Fig8aRow{ProcessTimeS: pt, MaxVelocity: v})
		t.Rows = append(t.Rows, []string{f2(pt), f2(v)})
	}
	return rows, t
}

// Fig8bRow is one SLAM-throughput operating point of the Figure 8b
// micro-benchmark.
type Fig8bRow struct {
	SlamFPS      float64
	MaxVelocity  float64
	MissionTimeS float64
	EnergyKJ     float64
}

// Fig8b reproduces Figure 8b: the relationship between SLAM throughput (FPS),
// the maximum velocity that keeps the localization failure rate below 20 %,
// and the total energy of a fixed circular mission (radius 25 m) flown at
// that velocity.
func Fig8b() ([]Fig8bRow, Table) {
	const (
		radius        = 25.0
		laps          = 2.0
		failureBudget = 0.2
	)
	cfg := slam.DefaultVisualSLAMConfig()
	pathLength := 2 * 3.141592653589793 * radius * laps
	power := energy.NewRotorPowerModel(physics.DefaultParams().MassKg)

	var rows []Fig8bRow
	t := Table{
		Title:   "Figure 8b: SLAM FPS vs max velocity and mission energy (circular path r=25 m)",
		Columns: []string{"slam_fps", "max_velocity_mps", "mission_time_s", "energy_kJ"},
		Notes:   "paper: ~5X faster SLAM -> ~4X less energy",
	}
	for _, fps := range []float64{1, 2, 3, 4, 6, 8, 10} {
		v := slam.MaxVelocityForFailureRate(fps, failureBudget, cfg.MaxPixelDisplacement)
		vehicle := physics.DefaultParams()
		if v > vehicle.MaxHorizontalVelocity {
			v = vehicle.MaxHorizontalVelocity
		}
		missionTime := pathLength / v
		cruisePower := power.Power(geom.V3(v, 0, 0), geom.Vec3{}, geom.Vec3{})
		energyKJ := cruisePower * missionTime / 1000
		rows = append(rows, Fig8bRow{SlamFPS: fps, MaxVelocity: v, MissionTimeS: missionTime, EnergyKJ: energyKJ})
		t.Rows = append(t.Rows, []string{f1(fps), f2(v), f1(missionTime), f1(energyKJ)})
	}
	return rows, t
}

// Fig9a reproduces Figure 9a: the measured power breakdown of a 3DR Solo.
func Fig9a() (energy.PowerBreakdown, Table) {
	b := energy.MeasuredSoloBreakdown()
	t := Table{
		Title:   "Figure 9a: measured 3DR Solo power breakdown",
		Columns: []string{"component", "power_w", "share_pct"},
	}
	t.Rows = append(t.Rows,
		[]string{"quad rotors", f2(b.RotorsW), f1(100 * b.RotorsW / b.Total())},
		[]string{"compute platform", f2(b.ComputeW), f1(100 * b.ComputeW / b.Total())},
		[]string{"other electronics", f2(b.OtherW), f1(100 * b.OtherW / b.Total())},
	)
	t.Notes = "rotors dominate compute by ~20X; compute is <5% of total power"
	return b, t
}

// Fig9bRow is one phase of the mission power timeline.
type Fig9bRow struct {
	VelocityMPS float64
	Phase       string
	MeanPowerW  float64
	DurationS   float64
}

// Fig9b reproduces Figure 9b: total power over a scripted mission (arm, take
// off, hover, cruise, land) at steady-state velocities of 5 and 10 m/s. The
// two missions fly concurrently on the scale's worker pool.
func Fig9b(sc Scale) ([]Fig9bRow, Table) {
	var rows []Fig9bRow
	t := Table{
		Title:   "Figure 9b: mission power by phase at 5 and 10 m/s",
		Columns: []string{"velocity_mps", "phase", "mean_power_w", "duration_s"},
	}
	// The two velocity profiles are independent missions; fly them
	// concurrently and emit the rows in velocity order. The pool can only
	// fail by recovering a panic in scriptedMissionPower, which used to
	// crash loudly — keep it loud rather than returning a silently
	// incomplete figure.
	velocities := []float64{5, 10}
	perVelocity := make([][]Fig9bRow, len(velocities))
	if err := sc.Runner().Parallel(context.Background(), len(velocities), func(i int) error {
		perVelocity[i] = scriptedMissionPower(velocities[i])
		return nil
	}); err != nil {
		panic(err)
	}
	for _, phases := range perVelocity {
		for _, r := range phases {
			rows = append(rows, r)
			t.Rows = append(t.Rows, []string{f1(r.VelocityMPS), r.Phase, f1(r.MeanPowerW), f1(r.DurationS)})
		}
	}
	t.Notes = "power is dominated by the rotors in every airborne phase"
	return rows, t
}

// scriptedMissionPower flies a fixed profile and aggregates the power trace
// per flight phase.
func scriptedMissionPower(cruise float64) []Fig9bRow {
	world := env.BoundedEmptyWorld(600, 60, 1)
	cfg := sim.DefaultConfig(1)
	cfg.KeepTraces = true
	cfg.MaxMissionTimeS = 120
	s, err := sim.New(cfg, world, geom.V3(-250, 0, 0))
	if err != nil {
		return nil
	}
	_ = s.Arm()
	_ = s.Takeoff()
	s.Engine().Every(des.Seconds(0.2), "fig9b/script", func(*des.Engine) {
		now := s.Now()
		switch {
		case s.FCMode() != actuation.ModeOffboard:
			// waiting for takeoff or already landing
		case now < 20:
			_ = s.Hover()
		case now < 50:
			_ = s.IssueVelocity(geom.V3(cruise, 0, 0), 0)
		default:
			_ = s.Land()
		}
	})
	s.Engine().Every(des.Seconds(0.5), "fig9b/finish", func(*des.Engine) {
		if s.FCMode() == actuation.ModeLanded {
			s.CompleteMission(true, "")
		}
	})
	fleet, err := sim.NewFleet(s)
	if err != nil {
		return nil
	}
	reports, _ := fleet.Run()
	rep := reports[0]

	// Aggregate the power trace by phase.
	type acc struct {
		sum float64
		n   int
	}
	perPhase := map[string]*acc{}
	order := []string{}
	phaseAt := func(t float64) string {
		phase := "arming"
		for _, p := range rep.PhaseTrace {
			if p.Time <= t {
				phase = p.Phase
			}
		}
		return phase
	}
	for _, p := range rep.PowerTrace {
		ph := phaseAt(p.Time)
		a, ok := perPhase[ph]
		if !ok {
			a = &acc{}
			perPhase[ph] = a
			order = append(order, ph)
		}
		a.sum += p.PowerW
		a.n++
	}
	var rows []Fig9bRow
	dt := sim.PhysicsStepS
	for _, ph := range order {
		a := perPhase[ph]
		rows = append(rows, Fig9bRow{
			VelocityMPS: cruise,
			Phase:       ph,
			MeanPowerW:  a.sum / float64(a.n),
			DurationS:   float64(a.n) * dt,
		})
	}
	return rows
}
