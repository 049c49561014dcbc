package compute

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTX2Clamping(t *testing.T) {
	p := TX2(0, -1)
	if p.Cores != 1 {
		t.Errorf("Cores = %d, want 1", p.Cores)
	}
	if p.FreqGHz != TX2FreqLowGHz {
		t.Errorf("FreqGHz = %v, want %v", p.FreqGHz, TX2FreqLowGHz)
	}
	p = TX2(9, 99)
	if p.Cores != 4 || p.FreqGHz != TX2FreqHighGHz {
		t.Errorf("clamp high: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPlatformValidate(t *testing.T) {
	bad := Platform{Name: "bad", Cores: 0, FreqGHz: 1, RefCores: 4, RefFreqGHz: 2.2}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero cores")
	}
	bad = Platform{Name: "bad", Cores: 2, FreqGHz: 0, RefCores: 4, RefFreqGHz: 2.2}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero frequency")
	}
	bad = Platform{Name: "bad", Cores: 2, FreqGHz: 1, RefCores: 0, RefFreqGHz: 0}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for invalid reference point")
	}
}

func TestScaleAtReferenceIsIdentity(t *testing.T) {
	p := DefaultTX2()
	base := 100 * time.Millisecond
	for _, s := range []float64{0, 0.3, 1} {
		if got := p.Scale(base, s); got != base {
			t.Errorf("Scale(serial=%v) at reference = %v, want %v", s, got, base)
		}
	}
}

func TestScaleFrequency(t *testing.T) {
	// Fully serial kernel: only frequency matters.
	slow := TX2(4, 1.1)
	base := 100 * time.Millisecond
	got := slow.Scale(base, 1.0)
	want := 200 * time.Millisecond
	if math.Abs(float64(got-want)) > float64(time.Millisecond) {
		t.Errorf("half frequency should double time: got %v", got)
	}
}

func TestScaleCores(t *testing.T) {
	// Fully parallel kernel at the same frequency: halving cores doubles time.
	base := 100 * time.Millisecond
	twoCores := TX2(2, TX2FreqHighGHz)
	got := twoCores.Scale(base, 0)
	want := 200 * time.Millisecond
	if math.Abs(float64(got-want)) > float64(time.Millisecond) {
		t.Errorf("2 cores fully parallel: got %v, want %v", got, want)
	}

	// A fully serial kernel is unaffected by core count.
	got = twoCores.Scale(base, 1)
	if got != base {
		t.Errorf("serial kernel should not scale with cores: got %v", got)
	}
}

func TestScaleMonotonicInCoresAndFrequency(t *testing.T) {
	base := 500 * time.Millisecond
	f := func(serial float64) bool {
		serial = math.Abs(math.Mod(serial, 1))
		prev := time.Duration(math.MaxInt64)
		// Increasing compute capability must never increase kernel time.
		for _, op := range []OperatingPoint{{2, 0.8}, {2, 1.5}, {3, 1.5}, {4, 1.5}, {4, 2.2}} {
			d := TX2(op.Cores, op.FreqGHz).Scale(base, serial)
			if d > prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScaleZeroAndNegativeBase(t *testing.T) {
	p := TX2(2, 0.8)
	if p.Scale(0, 0.5) != 0 {
		t.Error("zero base should scale to zero")
	}
	if p.Scale(-time.Second, 0.5) != 0 {
		t.Error("negative base should scale to zero")
	}
}

func TestSpeedupMatchesPaperRange(t *testing.T) {
	// Paper: between (2 cores, 0.8 GHz) and (4 cores, 2.2 GHz) kernels see
	// speedups from roughly 1.8X (mostly serial detection) to ~6.5X (highly
	// parallel kernels). Our model should land in that band.
	low := TX2(2, TX2FreqLowGHz)
	high := DefaultTX2()

	mostlySerial := high.Speedup(0.9, low)
	if mostlySerial < 1.5 || mostlySerial > 3.5 {
		t.Errorf("mostly-serial speedup = %.2f, want within [1.5, 3.5]", mostlySerial)
	}
	parallel := high.Speedup(0.1, low)
	if parallel < 4 || parallel > 6 {
		t.Errorf("parallel speedup = %.2f, want within [4, 6]", parallel)
	}
	if parallel <= mostlySerial {
		t.Error("parallel kernels should speed up more than serial ones")
	}
}

func TestDynamicPower(t *testing.T) {
	p := DefaultTX2()
	idle := p.DynamicPowerW(0)
	if idle != p.IdlePowerW {
		t.Errorf("idle power = %v", idle)
	}
	full := p.DynamicPowerW(1)
	// The TX2 consumes roughly 10 W under load (paper Section I).
	if full < 8 || full > 16 {
		t.Errorf("full-load TX2 power = %.1f W, want ~10 W", full)
	}
	// Clamping of utilization.
	if p.DynamicPowerW(2) != full {
		t.Error("utilization should clamp to 1")
	}
	if p.DynamicPowerW(-1) != idle {
		t.Error("utilization should clamp to 0")
	}
	// Lower frequency means lower power.
	lp := TX2(4, TX2FreqLowGHz).DynamicPowerW(1)
	if lp >= full {
		t.Errorf("low-frequency power %v should be below high-frequency %v", lp, full)
	}
}

func TestPaperOperatingPoints(t *testing.T) {
	pts := PaperOperatingPoints()
	if len(pts) != 9 {
		t.Fatalf("got %d operating points, want 9", len(pts))
	}
	seen := map[OperatingPoint]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Errorf("duplicate operating point %v", p)
		}
		seen[p] = true
		if p.Cores < 2 || p.Cores > 4 {
			t.Errorf("unexpected core count %d", p.Cores)
		}
	}
	if pts[0].String() == "" {
		t.Error("OperatingPoint.String empty")
	}
}

func TestStageString(t *testing.T) {
	if StagePerception.String() != "perception" || StagePlanning.String() != "planning" || StageControl.String() != "control" {
		t.Error("Stage.String mismatch")
	}
	if Stage(42).String() == "" {
		t.Error("unknown stage should still stringify")
	}
}

func TestLookupKernel(t *testing.T) {
	for _, name := range KernelNames() {
		k, err := LookupKernel(name)
		if err != nil {
			t.Fatalf("LookupKernel(%q): %v", name, err)
		}
		if k.Name != name {
			t.Errorf("kernel %q has mismatched name %q", name, k.Name)
		}
		if k.BaseTime < 0 {
			t.Errorf("kernel %q has negative base time", name)
		}
		if k.SerialFraction < 0 || k.SerialFraction > 1 {
			t.Errorf("kernel %q has serial fraction %v outside [0,1]", name, k.SerialFraction)
		}
	}
	if _, err := LookupKernel("no_such_kernel"); err == nil {
		t.Error("expected error for unknown kernel")
	}
}

func TestMustKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown kernel")
		}
	}()
	MustKernel("definitely_not_registered")
}

func TestKernelTableMatchesTable1Calibration(t *testing.T) {
	// At the reference operating point the registry base times must agree
	// with the paper's Table I values for the kernels that are directly
	// calibrated (not environment-scaled).
	cm := NewCostModel(DefaultTX2())
	checks := map[string]float64{
		KernelLawnmower:        89,
		KernelObjectDetectYOLO: 307,
		KernelTrackBuffered:    80,
		KernelTrackRealTime:    18,
		KernelPointCloud:       2,
		KernelOctomap:          630,
		KernelShortestPath:     182,
		KernelPathTracking:     1,
	}
	for name, wantMs := range checks {
		got := cm.MustKernelTime(name)
		if math.Abs(got.Seconds()*1000-wantMs) > 0.5 {
			t.Errorf("%s = %v, want %.0f ms", name, got, wantMs)
		}
	}
}

func TestOctomapInsertTimeResolutionTradeoff(t *testing.T) {
	cm := NewCostModel(DefaultTX2())
	points := cm.OctomapRefPoints

	fine := cm.OctomapInsertTime(points, 0.15)
	coarse := cm.OctomapInsertTime(points, 1.0)
	if coarse >= fine {
		t.Fatalf("coarser resolution should be cheaper: fine=%v coarse=%v", fine, coarse)
	}
	// Paper Fig. 18: a 6.5X resolution reduction gives about a 4.5X
	// processing-time improvement. Accept 3X-6X.
	ratio := float64(fine) / float64(coarse)
	if ratio < 3 || ratio > 6 {
		t.Errorf("fine/coarse cost ratio = %.2f, want within [3, 6]", ratio)
	}

	// More points cost more.
	if cm.OctomapInsertTime(2*points, 0.15) <= fine {
		t.Error("doubling points should increase cost")
	}
	// Degenerate inputs.
	if cm.OctomapInsertTime(0, 0.15) != 0 {
		t.Error("zero points should cost zero")
	}
	if cm.OctomapInsertTime(points, 0) != fine {
		t.Error("non-positive resolution should fall back to the reference resolution")
	}
}

func TestPlanningTimeGrowsWithChecks(t *testing.T) {
	cm := NewCostModel(DefaultTX2())
	small := cm.PlanningTime(KernelShortestPath, 500)
	big := cm.PlanningTime(KernelShortestPath, 8000)
	if big <= small {
		t.Errorf("more collision checks should cost more: %v vs %v", small, big)
	}
	if cm.PlanningTime(KernelShortestPath, 0) != DefaultTX2().KernelTime(MustKernel(KernelShortestPath)) {
		t.Error("zero checks should return base time")
	}
}

func TestDetectionTimeScalesWithPixels(t *testing.T) {
	cm := NewCostModel(DefaultTX2())
	full := cm.DetectionTime(KernelObjectDetectYOLO, 640*480)
	quarter := cm.DetectionTime(KernelObjectDetectYOLO, 320*240)
	if math.Abs(float64(full)/float64(quarter)-4) > 0.1 {
		t.Errorf("quarter resolution should be ~4X cheaper: %v vs %v", full, quarter)
	}
	if cm.DetectionTime(KernelObjectDetectYOLO, 0) != full {
		t.Error("zero pixels should fall back to base time")
	}
}

func TestSLAMTime(t *testing.T) {
	cm := NewCostModel(DefaultTX2())
	base := cm.SLAMTime(1000)
	if base <= 0 {
		t.Fatal("SLAM time should be positive")
	}
	if cm.SLAMTime(2000) <= base {
		t.Error("more features should cost more")
	}
	if cm.SLAMTime(0) != base {
		t.Error("zero features should fall back to base")
	}
}

func TestUtilization(t *testing.T) {
	if got := Utilization(2, time.Second, 4); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := Utilization(100, time.Second, 4); got != 1 {
		t.Errorf("Utilization should clamp to 1, got %v", got)
	}
	if got := Utilization(-1, time.Second, 4); got != 0 {
		t.Errorf("Utilization should clamp to 0, got %v", got)
	}
	if got := Utilization(1, 0, 4); got != 0 {
		t.Errorf("zero elapsed should give 0, got %v", got)
	}
}

func TestCloudLinkTransfer(t *testing.T) {
	l := LAN1Gbps()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 MB over 1 Gb/s is 8 ms.
	got := l.TransferTime(1_000_000)
	want := 8 * time.Millisecond
	if math.Abs(float64(got-want)) > float64(100*time.Microsecond) {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	if l.TransferTime(0) != 0 {
		t.Error("zero bytes should transfer instantly")
	}

	lte := LTE()
	if lte.TransferTime(1_000_000) <= got {
		t.Error("LTE should be slower than LAN")
	}
}

func TestCloudLinkValidate(t *testing.T) {
	if err := (CloudLink{BandwidthMbps: 0}).Validate(); err == nil {
		t.Error("expected error for zero bandwidth")
	}
	if err := (CloudLink{BandwidthMbps: 10, RTTMillis: -1000}).Validate(); err == nil {
		t.Error("expected error for negative RTT")
	}
	if err := (CloudLink{BandwidthMbps: 10, DropProbability: 1}).Validate(); err == nil {
		t.Error("expected error for drop probability of 1")
	}
	for _, l := range []CloudLink{
		{BandwidthMbps: math.NaN()},
		{BandwidthMbps: math.Inf(1)},
		{BandwidthMbps: 10, DropProbability: math.NaN()},
	} {
		if err := l.Validate(); err == nil {
			t.Errorf("expected error for non-finite link %+v", l)
		}
	}
}

func TestCloudLinkRoundTripWithDrops(t *testing.T) {
	l := LAN1Gbps()
	clean := l.RoundTripTime(100_000, 10_000)
	l.DropProbability = 0.5
	lossy := l.RoundTripTime(100_000, 10_000)
	if lossy <= clean {
		t.Error("drops should increase expected round trip time")
	}
}

func TestOffloaderPlanningSpeedup(t *testing.T) {
	edge := NewCostModel(DefaultTX2())
	remote := NewCostModel(CloudServer())
	off := NewOffloader(edge, remote, LAN1Gbps(), KernelFrontierExplore)

	if !off.Offloaded(KernelFrontierExplore) {
		t.Fatal("frontier exploration should be offloaded")
	}
	if off.Offloaded(KernelOctomap) {
		t.Fatal("octomap should stay on the edge")
	}

	edgeCost := edge.MustKernelTime(KernelFrontierExplore)
	// Offloading a heavyweight planning kernel over a fast LAN should give
	// roughly the paper's ~3X planning speedup (we accept 2X-5X).
	speedup := off.Speedup(KernelFrontierExplore, edgeCost, 500_000, 50_000)
	if speedup < 2 || speedup > 5 {
		t.Errorf("offload speedup = %.2f, want within [2, 5]", speedup)
	}

	// A non-offloaded kernel is unchanged.
	if got := off.Time(KernelOctomap, time.Second, 1000, 1000); got != time.Second {
		t.Errorf("non-offloaded kernel time changed: %v", got)
	}
}

func TestOffloaderSmallKernelNotWorthOffloadingOverLTE(t *testing.T) {
	edge := NewCostModel(DefaultTX2())
	remote := NewCostModel(CloudServer())
	off := NewOffloader(edge, remote, LTE(), KernelCollisionCheck)
	edgeCost := edge.MustKernelTime(KernelCollisionCheck)
	total := off.Time(KernelCollisionCheck, edgeCost, 200_000, 1_000)
	if total <= edgeCost {
		t.Errorf("offloading a 1 ms kernel over LTE should be slower than local execution: %v vs %v", total, edgeCost)
	}
}

func TestOffloaderNilAndUnknownKernel(t *testing.T) {
	var o *Offloader
	if o.Offloaded(KernelOctomap) {
		t.Error("nil offloader should never offload")
	}
	edge := NewCostModel(DefaultTX2())
	remote := NewCostModel(CloudServer())
	off := NewOffloader(edge, remote, LAN1Gbps(), "bogus_kernel")
	if got := off.Time("bogus_kernel", time.Second, 10, 10); got != time.Second {
		t.Errorf("unknown kernel should fall back to edge cost, got %v", got)
	}
}

func TestPaperTable1Integrity(t *testing.T) {
	entries := PaperTable1()
	if len(entries) == 0 {
		t.Fatal("empty Table I")
	}
	workloads := map[string]int{}
	for _, e := range entries {
		if _, err := LookupKernel(e.Kernel); err != nil {
			t.Errorf("Table I references unregistered kernel %q", e.Kernel)
		}
		if e.PaperMs < 0 {
			t.Errorf("negative paper time for %s/%s", e.Workload, e.Kernel)
		}
		if e.PaperDuration() != time.Duration(e.PaperMs*float64(time.Millisecond)) {
			t.Errorf("PaperDuration mismatch for %s/%s", e.Workload, e.Kernel)
		}
		workloads[e.Workload]++
	}
	if len(workloads) != 5 {
		t.Errorf("Table I should cover 5 workloads, got %d", len(workloads))
	}
	for _, w := range Table1Workloads() {
		if workloads[w] == 0 {
			t.Errorf("workload %q missing from Table I", w)
		}
		if len(PaperTable1For(w)) != workloads[w] {
			t.Errorf("PaperTable1For(%q) size mismatch", w)
		}
	}
}

func TestCloudServerFasterThanTX2(t *testing.T) {
	cloud := CloudServer()
	tx2 := DefaultTX2()
	if err := cloud.Validate(); err != nil {
		t.Fatal(err)
	}
	if cloud.Speedup(0.3, tx2) <= 1 {
		t.Error("cloud server should be faster than the TX2")
	}
}
