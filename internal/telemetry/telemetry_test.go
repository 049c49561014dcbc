package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestMissionLifecycle(t *testing.T) {
	r := NewRecorder(false)
	if r.Started() || r.Ended() {
		t.Fatal("fresh recorder should be idle")
	}
	r.StartMission(10)
	r.StartMission(20) // second call ignored
	if !r.Started() {
		t.Fatal("not started")
	}
	r.EndMission(110, true, "")
	r.EndMission(300, false, "ignored") // second call ignored
	rep := r.Report(999)
	if rep.MissionTimeS != 100 {
		t.Errorf("mission time = %v, want 100", rep.MissionTimeS)
	}
	if !rep.Success || rep.FailureReason != "" {
		t.Errorf("outcome = %v %q", rep.Success, rep.FailureReason)
	}
}

func TestReportWithoutEndUsesProvidedTime(t *testing.T) {
	r := NewRecorder(false)
	r.StartMission(0)
	rep := r.Report(42)
	if rep.MissionTimeS != 42 {
		t.Errorf("mission time = %v", rep.MissionTimeS)
	}
	if rep.Success {
		t.Error("unfinished mission should not be successful")
	}
}

func TestKinematicsAccounting(t *testing.T) {
	r := NewRecorder(false)
	r.StartMission(0)
	// 10 s flying at 5 m/s, then 5 s hovering.
	for i := 0; i < 100; i++ {
		r.SampleKinematics(float64(i)*0.1, 0.1, 5, true, false)
	}
	for i := 0; i < 50; i++ {
		r.SampleKinematics(10+float64(i)*0.1, 0.1, 0.05, true, true)
	}
	// Some grounded samples contribute nothing.
	r.SampleKinematics(16, 0.1, 0, false, false)
	r.EndMission(16, true, "")
	rep := r.Report(16)

	if rep.MaxSpeed != 5 {
		t.Errorf("max speed = %v", rep.MaxSpeed)
	}
	if rep.DistanceM < 49 || rep.DistanceM > 51 {
		t.Errorf("distance = %v, want ~50", rep.DistanceM)
	}
	if rep.HoverTimeS < 4.9 || rep.HoverTimeS > 5.1 {
		t.Errorf("hover time = %v, want ~5", rep.HoverTimeS)
	}
	if rep.FlightTimeS < 14.9 || rep.FlightTimeS > 15.1 {
		t.Errorf("flight time = %v, want ~15", rep.FlightTimeS)
	}
	if rep.AverageSpeed < 3 || rep.AverageSpeed > 4 {
		t.Errorf("average speed = %v, want ~3.3 (50 m over 15 s)", rep.AverageSpeed)
	}
}

func TestEnergyAccounting(t *testing.T) {
	r := NewRecorder(false)
	r.AddEnergy(300_000, 5_000)
	rep := r.Report(0)
	if rep.RotorEnergyKJ != 300 || rep.ComputeEnergyKJ != 5 || rep.TotalEnergyKJ != 305 {
		t.Errorf("energy report = %+v", rep)
	}
}

func TestKernelAccounting(t *testing.T) {
	r := NewRecorder(false)
	r.RecordKernel("octomap", 100*time.Millisecond)
	r.RecordKernel("octomap", 300*time.Millisecond)
	r.RecordKernel("", time.Second) // ignored
	rep := r.Report(0)
	if rep.KernelTime["octomap"] != 400*time.Millisecond {
		t.Errorf("kernel time = %v", rep.KernelTime["octomap"])
	}
	if rep.KernelCount["octomap"] != 2 {
		t.Errorf("kernel count = %v", rep.KernelCount["octomap"])
	}
	if rep.KernelMean["octomap"] != 200*time.Millisecond {
		t.Errorf("kernel mean = %v", rep.KernelMean["octomap"])
	}
	if got := r.KernelMean("octomap"); got != 200*time.Millisecond {
		t.Errorf("running kernel mean = %v", got)
	}
	if got := r.KernelMean("planning"); got != 0 {
		t.Errorf("mean of a kernel that never ran = %v", got)
	}
	if len(rep.KernelTime) != 1 {
		t.Errorf("unattributed kernel recorded: %v", rep.KernelTime)
	}
}

func TestCountersAndObservations(t *testing.T) {
	r := NewRecorder(false)
	r.Count("replans", 1)
	r.Count("replans", 1)
	r.Observe("tracking_error_px", 10)
	r.Observe("tracking_error_px", 30)
	rep := r.Report(0)
	if rep.Counters["replans"] != 2 {
		t.Errorf("replans = %v", rep.Counters["replans"])
	}
	if rep.Means["tracking_error_px"] != 20 {
		t.Errorf("mean tracking error = %v", rep.Means["tracking_error_px"])
	}
	if rep.Maxes["tracking_error_px"] != 30 {
		t.Errorf("max tracking error = %v", rep.Maxes["tracking_error_px"])
	}
}

func TestTraces(t *testing.T) {
	r := NewRecorder(true)
	r.RecordPower(0, 300)
	r.RecordPower(1, 400)
	r.RecordPhase(0, "arming")
	r.RecordPhase(0.5, "arming") // deduplicated
	r.RecordPhase(1, "flying")
	rep := r.Report(1)
	if len(rep.PowerTrace) != 2 {
		t.Errorf("power trace = %v", rep.PowerTrace)
	}
	if len(rep.PhaseTrace) != 2 {
		t.Errorf("phase trace = %v", rep.PhaseTrace)
	}

	// Traces disabled: nothing recorded.
	q := NewRecorder(false)
	q.RecordPower(0, 300)
	q.RecordPhase(0, "arming")
	if rep := q.Report(0); len(rep.PowerTrace) != 0 || len(rep.PhaseTrace) != 0 {
		t.Error("traces recorded while disabled")
	}
}

func TestReportString(t *testing.T) {
	r := NewRecorder(false)
	r.StartMission(0)
	r.SampleKinematics(1, 1, 3, true, false)
	r.AddEnergy(1000, 10)
	r.RecordKernel("planning", time.Second)
	r.Count("replans", 3)
	r.EndMission(10, false, "battery depleted")
	s := r.Report(10).String()
	for _, want := range []string{"mission time", "energy", "planning", "replans", "battery depleted"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q:\n%s", want, s)
		}
	}
}

func TestCSV(t *testing.T) {
	r := NewRecorder(false)
	r.StartMission(0)
	r.EndMission(5, true, "")
	row := r.Report(5).CSVRow()
	if strings.Count(row, ",") != strings.Count(CSVHeader(), ",") {
		t.Errorf("CSV row/header field count mismatch:\n%s\n%s", CSVHeader(), row)
	}
}

// TestCSVColumnParity pins the CSV schema: the header's column names, their
// order, and the row's field count are the sweep CLI's wire format and must
// not drift silently. Changing them is a deliberate, documented act.
func TestCSVColumnParity(t *testing.T) {
	wantCols := []string{
		"mission_time_s", "flight_time_s", "hover_time_s", "avg_speed_mps", "max_speed_mps",
		"distance_m", "rotor_energy_kj", "compute_energy_kj", "total_energy_kj", "success",
	}
	cols := strings.Split(CSVHeader(), ",")
	if len(cols) != len(wantCols) {
		t.Fatalf("CSVHeader has %d columns, want %d: %q", len(cols), len(wantCols), cols)
	}
	for i, want := range wantCols {
		if cols[i] != want {
			t.Errorf("column %d = %q, want %q", i, cols[i], want)
		}
	}
	r := NewRecorder(false)
	r.StartMission(0)
	r.SampleKinematics(1, 1, 3, true, false)
	r.AddEnergy(1000, 10)
	r.EndMission(10, true, "")
	fields := strings.Split(r.Report(10).CSVRow(), ",")
	if len(fields) != len(wantCols) {
		t.Fatalf("CSVRow has %d fields, want %d: %q", len(fields), len(wantCols), fields)
	}
	if fields[len(fields)-1] != "true" {
		t.Errorf("success column = %q", fields[len(fields)-1])
	}
}

// TestReportJSONRoundTrip guards the service's wire format: a fully
// populated report must survive JSON encode/decode unchanged.
func TestReportJSONRoundTrip(t *testing.T) {
	r := NewRecorder(true)
	r.StartMission(0)
	r.SampleKinematics(1, 1, 5, true, false)
	r.SampleKinematics(2, 1, 0.01, true, true)
	r.AddEnergy(20_000, 300)
	r.RecordKernel("occupancy_map_generation", 250*time.Millisecond)
	r.RecordKernel("motion_planning", 40*time.Millisecond)
	r.RecordPower(1, 350)
	r.RecordPhase(1, "flying")
	r.Count("replans", 2)
	r.Observe("tracking_error_px", 12.5)
	r.EndMission(30, false, "battery depleted")
	rep := r.Report(30)

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("report changed across JSON round trip:\n%+v\nvs\n%+v", rep, back)
	}
	// Re-encoding is stable (map keys are sorted by encoding/json).
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("JSON encoding not stable:\n%s\nvs\n%s", data, data2)
	}
}
