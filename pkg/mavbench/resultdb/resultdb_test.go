package resultdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mavbench/pkg/mavbench"
)

var _ mavbench.ResultStore = (*Store)(nil)

// testHash returns a distinct valid store hash for index i.
func testHash(i int) string { return fmt.Sprintf("%064d", i) }

// testResult builds a distinguishable result for index i.
func testResult(i int) mavbench.Result {
	res := mavbench.Result{
		Index:    i,
		SpecHash: testHash(i),
		Spec: mavbench.Spec{
			Workload:   "scanning",
			Scenario:   "farm",
			Difficulty: 0.5,
			Cores:      1 + i%4,
			FreqGHz:    0.5 + 0.5*float64(i%5),
			Seed:       int64(i),
		},
		Platform: "tx2",
	}
	res.Report.MissionTimeS = float64(i) * 1.5
	res.Report.TotalEnergyKJ = float64(i) * 0.25
	res.Report.Success = true
	return res
}

func openTestStore(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sameResult compares results through a JSON round-trip (the unexported err
// field never serializes).
func sameResult(a, b mavbench.Result) bool {
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return string(aj) == string(bj)
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	for i := 0; i < 10; i++ {
		s.Put(testHash(i), testResult(i))
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	for i := 0; i < 10; i++ {
		got, ok := s.Get(testHash(i))
		if !ok {
			t.Fatalf("Get(%d) missed", i)
		}
		if !sameResult(got, testResult(i)) {
			t.Fatalf("Get(%d) = %+v, want %+v", i, got, testResult(i))
		}
	}
	if _, ok := s.Get(testHash(99)); ok {
		t.Fatal("Get of unknown hash hit")
	}
	if _, ok := s.Get("../escape"); ok {
		t.Fatal("Get of invalid hash hit")
	}
	s.Put("NOT-A-HASH", testResult(0))
	if got := s.Len(); got != 10 {
		t.Fatalf("invalid-hash Put changed Len to %d", got)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for i := 0; i < 25; i++ {
		s.Put(testHash(i), testResult(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openTestStore(t, dir)
	if got := s2.Len(); got != 25 {
		t.Fatalf("reopened Len = %d, want 25", got)
	}
	for i := 0; i < 25; i++ {
		got, ok := s2.Get(testHash(i))
		if !ok || !sameResult(got, testResult(i)) {
			t.Fatalf("reopened Get(%d): ok=%v", i, ok)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, WithSegmentTargetBytes(1024))
	for i := 0; i < 40; i++ {
		s.Put(testHash(i), testResult(i))
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want rotation past 1", st.Segments)
	}
	if st.Records != 40 {
		t.Fatalf("Records = %d, want 40", st.Records)
	}
	// Every record remains reachable across the segment boundary, including
	// after a reopen.
	s.Close()
	s2 := openTestStore(t, dir, WithSegmentTargetBytes(1024))
	for i := 0; i < 40; i++ {
		if _, ok := s2.Get(testHash(i)); !ok {
			t.Fatalf("Get(%d) missed after rotation + reopen", i)
		}
	}
}

func TestLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, WithSegmentTargetBytes(512))
	old := testResult(0)
	s.Put(testHash(0), old)
	updated := testResult(0)
	updated.Report.MissionTimeS = 777
	// Push the overwrite into a later segment so reopen exercises the
	// cross-segment duplicate path.
	for i := 1; i < 20; i++ {
		s.Put(testHash(i), testResult(i))
	}
	s.Put(testHash(0), updated)
	check := func(s *Store, label string) {
		got, ok := s.Get(testHash(0))
		if !ok || got.Report.MissionTimeS != 777 {
			t.Fatalf("%s: Get returned ok=%v MissionTimeS=%v, want updated record", label, ok, got.Report.MissionTimeS)
		}
		if s.Len() != 20 {
			t.Fatalf("%s: Len = %d, want 20", label, s.Len())
		}
	}
	check(s, "live")
	if s.Stats().DeadBytes == 0 {
		t.Fatal("overwrite did not account dead bytes")
	}
	s.Close()
	check(openTestStore(t, dir, WithSegmentTargetBytes(512)), "reopened")
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for i := 0; i < 5; i++ {
		s.Put(testHash(i), testResult(i))
	}
	s.Close()
	// Simulate a crash mid-append: a partial record with no trailing newline.
	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"hash":"deadbeef","result":{"spec_ha`)
	f.Close()
	before, _ := os.Stat(seg)

	s2 := openTestStore(t, dir)
	st := s2.Stats()
	if st.TornTailDropped != 1 {
		t.Fatalf("TornTailDropped = %d, want 1", st.TornTailDropped)
	}
	if st.Records != 5 {
		t.Fatalf("Records = %d, want 5", st.Records)
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends after the truncation start on a record boundary.
	s2.Put(testHash(9), testResult(9))
	s2.Close()
	s3 := openTestStore(t, dir)
	if st := s3.Stats(); st.Records != 6 || st.CorruptDropped != 0 || st.TornTailDropped != 0 {
		t.Fatalf("post-heal stats = %+v, want 6 clean records", st)
	}
}

func TestCorruptInteriorLineSkipped(t *testing.T) {
	dir := t.TempDir()
	good1, _ := json.Marshal(record{Hash: testHash(1), Result: testResult(1)})
	good2, _ := json.Marshal(record{Hash: testHash(2), Result: testResult(2)})
	content := string(good1) + "\n" + "{torn garbage record!!\n" + string(good2) + "\n"
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, dir)
	st := s.Stats()
	if st.CorruptDropped != 1 {
		t.Fatalf("CorruptDropped = %d, want 1", st.CorruptDropped)
	}
	if st.Records != 2 {
		t.Fatalf("Records = %d, want 2", st.Records)
	}
	for _, i := range []int{1, 2} {
		if got, ok := s.Get(testHash(i)); !ok || !sameResult(got, testResult(i)) {
			t.Fatalf("record %d lost around corrupt line (ok=%v)", i, ok)
		}
	}
}

func TestDuplicateHashAcrossManualSegments(t *testing.T) {
	dir := t.TempDir()
	older := testResult(0)
	newer := testResult(0)
	newer.Report.MissionTimeS = 4242
	l1, _ := json.Marshal(record{Hash: testHash(0), Result: older})
	l2, _ := json.Marshal(record{Hash: testHash(0), Result: newer})
	os.WriteFile(filepath.Join(dir, segName(1)), append(l1, '\n'), 0o644)
	os.WriteFile(filepath.Join(dir, segName(2)), append(l2, '\n'), 0o644)
	s := openTestStore(t, dir)
	got, ok := s.Get(testHash(0))
	if !ok || got.Report.MissionTimeS != 4242 {
		t.Fatalf("duplicate resolution: ok=%v MissionTimeS=%v, want later segment to win", ok, got.Report.MissionTimeS)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestCompactReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, WithSegmentTargetBytes(1024), WithAutoCompact(false))
	// Overwrite a small key set many times: most bytes end up dead.
	for round := 0; round < 20; round++ {
		for i := 0; i < 8; i++ {
			res := testResult(i)
			res.Report.MissionTimeS = float64(round)
			s.Put(testHash(i), res)
		}
	}
	pre := s.Stats()
	if pre.DeadBytes == 0 || pre.Segments < 2 {
		t.Fatalf("precondition: stats %+v should have garbage across segments", pre)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	post := s.Stats()
	if post.DeadBytes != 0 {
		t.Fatalf("DeadBytes = %d after compaction, want 0", post.DeadBytes)
	}
	if post.Records != 8 {
		t.Fatalf("Records = %d after compaction, want 8", post.Records)
	}
	if post.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", post.Compactions)
	}
	if post.LiveBytes >= pre.LiveBytes+pre.DeadBytes {
		t.Fatalf("compaction did not shrink the store: live %d, was %d live + %d dead",
			post.LiveBytes, pre.LiveBytes, pre.DeadBytes)
	}
	for i := 0; i < 8; i++ {
		got, ok := s.Get(testHash(i))
		if !ok || got.Report.MissionTimeS != 19 {
			t.Fatalf("record %d wrong after compaction: ok=%v MissionTimeS=%v", i, ok, got.Report.MissionTimeS)
		}
	}
	// Writes continue on a fresh segment and everything survives reopen.
	s.Put(testHash(100), testResult(100))
	s.Close()
	s2 := openTestStore(t, dir)
	if s2.Len() != 9 {
		t.Fatalf("reopened Len = %d, want 9", s2.Len())
	}
	if got, ok := s2.Get(testHash(100)); !ok || !sameResult(got, testResult(100)) {
		t.Fatal("post-compaction write lost on reopen")
	}
	// No temp files left behind.
	dirents, _ := os.ReadDir(dir)
	for _, de := range dirents {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Fatalf("compaction left temp file %s", de.Name())
		}
	}
}

func TestAutoCompactTriggers(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, WithSegmentTargetBytes(64<<10))
	// Bulk up each record so dead bytes cross the background threshold
	// quickly: ~2.5 KiB of trace payload per record.
	big := testResult(0)
	big.Report.Counters = map[string]float64{}
	for i := 0; i < 100; i++ {
		big.Report.Counters[fmt.Sprintf("counter_%04d", i)] = float64(i)
	}
	for round := 0; round < 220; round++ {
		big.Report.MissionTimeS = float64(round)
		s.Put(testHash(0), big)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: stats %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, ok := s.Get(testHash(0))
	if !ok || got.Report.MissionTimeS != 219 {
		t.Fatalf("latest record wrong after auto compaction: ok=%v MissionTimeS=%v", ok, got.Report.MissionTimeS)
	}
}

func TestCloseDropsOperations(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	s.Put(testHash(0), testResult(0))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, ok := s.Get(testHash(0)); ok {
		t.Fatal("Get hit after Close")
	}
	s.Put(testHash(1), testResult(1))
	if err := s.Compact(); err == nil {
		t.Fatal("Compact after Close should error")
	}
	s2 := openTestStore(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("post-Close Put leaked: Len = %d, want 1", s2.Len())
	}
}

func TestQueryFilters(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	mk := func(i int, workload, scenario string, diff float64, cores int, freq float64, errMsg string) {
		res := testResult(i)
		res.Spec.Workload = workload
		res.Spec.Scenario = scenario
		res.Spec.Difficulty = diff
		res.Spec.Cores = cores
		res.Spec.FreqGHz = freq
		res.Error = errMsg
		s.Put(testHash(i), res)
	}
	mk(0, "scanning", "farm", 0.2, 1, 0.8, "")
	mk(1, "scanning", "farm", 0.5, 2, 1.5, "")
	mk(2, "scanning", "orchard", 0.8, 4, 2.2, "")
	mk(3, "package_delivery", "urban", 0.5, 4, 2.2, "")
	mk(4, "package_delivery", "urban", 0.9, 8, 2.2, "engine exploded")

	cases := []struct {
		name string
		q    Query
		want []int
	}{
		{"all", Query{}, []int{0, 1, 2, 3, 4}},
		{"workload", Query{Workload: "scanning"}, []int{0, 1, 2}},
		{"scenario", Query{Scenario: "urban"}, []int{3, 4}},
		{"difficulty_range", Query{Difficulty: Between(0.4, 0.6)}, []int{1, 3}},
		{"cores_min", Query{Cores: AtLeast(4)}, []int{2, 3, 4}},
		{"freq_max", Query{FreqGHz: AtMost(1.5)}, []int{0, 1}},
		{"only_ok", Query{OnlyOK: true}, []int{0, 1, 2, 3}},
		{"combined", Query{Workload: "package_delivery", OnlyOK: true}, []int{3}},
		{"none", Query{Workload: "no_such_workload"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := s.Query(tc.q)
			var gotIdx []int
			for _, r := range got {
				gotIdx = append(gotIdx, r.Index)
			}
			if !reflect.DeepEqual(gotIdx, tc.want) {
				t.Fatalf("Query(%+v) = %v, want %v", tc.q, gotIdx, tc.want)
			}
			if n := s.Count(tc.q); n != len(tc.want) {
				t.Fatalf("Count(%+v) = %d, want %d", tc.q, n, len(tc.want))
			}
		})
	}

	limited := s.Query(Query{Limit: 2})
	if len(limited) != 2 {
		t.Fatalf("Limit=2 returned %d results", len(limited))
	}
	// Limit is applied after the hash sort, so it returns a stable prefix.
	again := s.Query(Query{Limit: 2})
	if !reflect.DeepEqual(limited, again) {
		t.Fatal("limited query not stable")
	}
}

// TestConcurrentAccess races writers, readers, queries and compactions over
// a small hash space (run with -race). Tiny segments make every few Puts
// rotate, and the periodic Compact rewrites segments under the readers.
func TestConcurrentAccess(t *testing.T) {
	s := openTestStore(t, t.TempDir(), WithSegmentTargetBytes(2<<10))
	const goroutines = 8
	const iters = 200
	const keys = 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % keys
				s.Put(testHash(k), testResult(k))
				if res, ok := s.Get(testHash(k)); !ok || !sameResult(res, testResult(k)) {
					t.Errorf("key %d: Get after Put returned ok=%v, %+v", k, ok, res)
				}
				for _, res := range s.Query(Query{}) {
					if res.SpecHash != testHash(res.Index) {
						t.Errorf("query row %d carries hash %s", res.Index, res.SpecHash)
					}
				}
				if st := s.Stats(); st.Records > keys {
					t.Errorf("stats report %d records over %d keys", st.Records, keys)
				}
				if n := s.Len(); n > keys {
					t.Errorf("Len = %d over %d keys", n, keys)
				}
				if i%50 == 49 {
					if err := s.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Len(); n != keys {
		t.Fatalf("Len = %d after the race, want %d", n, keys)
	}
}

// TestRejectsUnsafeHashes guards the key boundary: only the lowercase-hex
// hashes Spec.Hash produces are stored, and a rejected Put writes nothing.
func TestRejectsUnsafeHashes(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	for _, hash := range []string{"", "../escape", "ABCDEF", "abc/def", "zz"} {
		s.Put(hash, testResult(1))
		if _, ok := s.Get(hash); ok {
			t.Errorf("unsafe hash %q was stored", hash)
		}
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d after unsafe Puts, want 0", n)
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range dirents {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		if de.IsDir() || info.Size() != 0 {
			t.Errorf("unsafe hashes wrote %s (%d bytes)", de.Name(), info.Size())
		}
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, ".seg-123.tmp"), []byte("half-compacted"), 0o644)
	openTestStore(t, dir)
	if _, err := os.Stat(filepath.Join(dir, ".seg-123.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale compaction temp file survived Open")
	}
}
