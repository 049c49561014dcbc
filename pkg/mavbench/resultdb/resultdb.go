// Package resultdb is the persistent result store: a compacting,
// append-only implementation of the mavbench.ResultStore interface with the
// query surface the paper's QoF-versus-compute studies (MAVBench,
// Boroujerdian et al., MICRO 2018, Figures 10-15) need.
//
// # Layout
//
// A store directory holds numbered NDJSON segments:
//
//	seg-000001.ndjson
//	seg-000002.ndjson        <- highest number = active (append) segment
//
// Each line is one record, {"hash": "<spec-hash>", "result": {...}}. Writes
// append to the active segment; when it reaches the target size, the store
// rotates to a fresh segment. The full index (hash -> segment/offset, plus
// the filterable spec fields) lives in memory and is rebuilt by scanning the
// segments on Open.
//
// Updating a hash appends a new record and marks the old one dead
// (last-write-wins); dead records are reclaimed by compaction, which
// rewrites live records into fresh segments and deletes the old files.
// Compaction runs in the background once dead bytes outweigh live bytes,
// or on demand via Compact (and `mavbench-store compact`).
//
// # Crash tolerance
//
// Corruption is tolerated, never fatal. A torn tail (crash mid-append) is
// truncated away on Open; a corrupt interior line is skipped and counted;
// compacted segments are published by atomic rename, and a crash between
// publishing them and deleting their predecessors is healed by
// last-write-wins on the next Open.
//
// # One process per directory
//
// Append offsets and compaction are process state, so a store directory must
// be opened by one process at a time. In a mavbenchd fleet only the
// coordinator opens it: the coordinator checks the store before dispatching
// a spec and stores every result a worker streams back, so workers hold no
// store at all.
package resultdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mavbench/pkg/mavbench"
)

// record is the wire form of one segment line.
type record struct {
	Hash   string          `json:"hash"`
	Result mavbench.Result `json:"result"`
}

// recMeta is the in-memory, filterable summary of a stored result.
type recMeta struct {
	workload   string
	scenario   string
	difficulty float64
	cores      int
	freqGHz    float64
	ok         bool
}

// recLoc locates a live record inside the segment files.
type recLoc struct {
	seg  int
	off  int64
	size int64
	meta recMeta
}

// segInfo is per-segment accounting.
type segInfo struct {
	live int64 // live records in this segment
	size int64 // bytes on disk
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	// Segments is the number of segment files (including the active one).
	Segments int `json:"segments"`
	// Records is the number of live (addressable) records.
	Records int `json:"records"`
	// LiveBytes and DeadBytes partition the on-disk bytes into reachable
	// records and garbage awaiting compaction.
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	// Compactions counts completed compaction runs.
	Compactions int64 `json:"compactions"`
	// CorruptDropped counts interior lines skipped as unparseable on Open.
	CorruptDropped int64 `json:"corrupt_dropped"`
	// TornTailDropped counts partial trailing records truncated on Open.
	TornTailDropped int64 `json:"torn_tail_dropped"`
}

// Option configures a Store at Open.
type Option func(*Store)

// WithSegmentTargetBytes sets the segment rotation size (default 4 MiB).
func WithSegmentTargetBytes(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.targetBytes = n
		}
	}
}

// WithAutoCompact enables or disables background compaction (default on).
// Compact can always be called explicitly.
func WithAutoCompact(on bool) Option {
	return func(s *Store) { s.autoCompact = on }
}

// Store is the segmented result store. It implements mavbench.ResultStore
// and is safe for concurrent use. Construct with Open; Close releases the
// file handles (records are durable after every Put regardless).
type Store struct {
	dir         string
	targetBytes int64
	autoCompact bool

	mu         sync.Mutex
	index      map[string]recLoc
	segs       map[int]*segInfo
	readers    map[int]*os.File
	active     *os.File
	activeID   int
	activeSize int64
	liveBytes  int64
	deadBytes  int64

	compactions int64
	corrupt     int64
	tornTail    int64
	compacting  bool
	closed      bool
}

// Open opens (creating if needed) a segment store rooted at dir, rebuilding
// the index by scanning every segment. Torn tails are truncated, corrupt
// interior lines skipped, duplicate hashes resolved last-write-wins (later
// segments win). Leftover temp files from a crashed compaction are removed.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultdb: creating store dir: %w", err)
	}
	s := &Store{
		dir:         dir,
		targetBytes: 4 << 20,
		autoCompact: true,
		index:       map[string]recLoc{},
		segs:        map[int]*segInfo{},
		readers:     map[int]*os.File{},
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// segName formats a segment id as its file name.
func segName(id int) string { return fmt.Sprintf("seg-%06d.ndjson", id) }

// parseSegName inverts segName; ok is false for anything else.
func parseSegName(name string) (int, bool) {
	rest, found := strings.CutPrefix(name, "seg-")
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, ".ndjson")
	if !found {
		return 0, false
	}
	id, err := strconv.Atoi(rest)
	if err != nil || id <= 0 {
		return 0, false
	}
	return id, true
}

// load scans the directory and rebuilds the index.
func (s *Store) load() error {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("resultdb: reading store dir: %w", err)
	}
	var ids []int
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			// A crashed compaction's unpublished output: stale, remove.
			_ = os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if id, ok := parseSegName(name); ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		if err := s.scanSegment(id, i == len(ids)-1); err != nil {
			return err
		}
	}
	s.activeID = 1
	if n := len(ids); n > 0 {
		s.activeID = ids[n-1]
	}
	return s.openActive()
}

// scanSegment indexes one segment file. last marks the newest segment, whose
// torn tail (if any) is truncated so future appends start on a record
// boundary.
func (s *Store) scanSegment(id int, last bool) error {
	path := filepath.Join(s.dir, segName(id))
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("resultdb: opening %s: %w", segName(id), err)
	}
	info := &segInfo{}
	s.segs[id] = info
	br := bufio.NewReaderSize(f, 256<<10)
	var off int64
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			f.Close()
			return fmt.Errorf("resultdb: reading %s: %w", segName(id), rerr)
		}
		if rerr == io.EOF {
			if len(line) > 0 {
				// Torn tail: a crash interrupted the final append. Drop the
				// partial record; on the active segment also truncate it away
				// so the next append cannot splice into it.
				s.tornTail++
				if last {
					if terr := os.Truncate(path, off); terr != nil {
						f.Close()
						return fmt.Errorf("resultdb: truncating torn tail of %s: %w", segName(id), terr)
					}
				} else {
					s.deadBytes += int64(len(line))
					info.size += int64(len(line))
				}
			}
			break
		}
		n := int64(len(line))
		var rec record
		if uerr := json.Unmarshal(line, &rec); uerr != nil || !validHash(rec.Hash) {
			// Corrupt interior line (torn record healed over by later
			// appends, or foreign junk): skip it, never crash.
			s.corrupt++
			s.deadBytes += n
			info.size += n
			off += n
			continue
		}
		if old, ok := s.index[rec.Hash]; ok {
			s.killLocked(old) // duplicate: the later record wins
		}
		s.index[rec.Hash] = recLoc{seg: id, off: off, size: n, meta: metaOf(rec.Result)}
		info.live++
		info.size += n
		s.liveBytes += n
		off += n
	}
	f.Close()
	return nil
}

// openActive opens the append handle for the active segment.
func (s *Store) openActive() error {
	f, err := os.OpenFile(filepath.Join(s.dir, segName(s.activeID)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultdb: opening active segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("resultdb: active segment: %w", err)
	}
	s.active = f
	s.activeSize = st.Size()
	if _, ok := s.segs[s.activeID]; !ok {
		s.segs[s.activeID] = &segInfo{}
	}
	return nil
}

// validHash accepts only the lowercase hex form Spec.Hash produces, with a
// bounded length; Put drops anything else, so no other key is ever stored.
func validHash(hash string) bool {
	if len(hash) == 0 || len(hash) > 128 {
		return false
	}
	for _, c := range hash {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// metaOf extracts the filterable fields from a result's canonical spec.
func metaOf(res mavbench.Result) recMeta {
	return recMeta{
		workload:   res.Spec.Workload,
		scenario:   res.Spec.Scenario,
		difficulty: res.Spec.Difficulty,
		cores:      res.Spec.Cores,
		freqGHz:    res.Spec.FreqGHz,
		ok:         res.Error == "",
	}
}

// killLocked retires a live record location. Caller holds s.mu.
func (s *Store) killLocked(loc recLoc) {
	s.liveBytes -= loc.size
	s.deadBytes += loc.size
	if info, ok := s.segs[loc.seg]; ok {
		info.live--
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Get implements mavbench.ResultStore. A missing hash, unreadable segment or
// undecodable record is a miss, never an error.
func (s *Store) Get(hash string) (mavbench.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, ok := s.index[hash]
	if !ok || s.closed {
		return mavbench.Result{}, false
	}
	rec, err := s.readLocked(loc)
	if err != nil {
		return mavbench.Result{}, false
	}
	return rec.Result, true
}

// readLocked reads and decodes one record. Caller holds s.mu.
func (s *Store) readLocked(loc recLoc) (record, error) {
	r, err := s.readerLocked(loc.seg)
	if err != nil {
		return record{}, err
	}
	buf := make([]byte, loc.size)
	if _, err := r.ReadAt(buf, loc.off); err != nil {
		return record{}, err
	}
	var rec record
	if err := json.Unmarshal(buf, &rec); err != nil {
		return record{}, err
	}
	return rec, nil
}

// readerLocked returns (lazily opening) the read handle for a segment.
// Caller holds s.mu.
func (s *Store) readerLocked(id int) (*os.File, error) {
	if r, ok := s.readers[id]; ok {
		return r, nil
	}
	r, err := os.Open(filepath.Join(s.dir, segName(id)))
	if err != nil {
		return nil, err
	}
	s.readers[id] = r
	return r, nil
}

// Put implements mavbench.ResultStore: append to the active segment (rotating
// past the target size), update the index last-write-wins, and trigger
// background compaction when garbage outweighs live data. Put never fails
// the caller — a store that cannot write degrades to re-simulation.
func (s *Store) Put(hash string, res mavbench.Result) {
	if !validHash(hash) {
		return
	}
	line, err := json.Marshal(record{Hash: hash, Result: res})
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.activeSize > 0 && s.activeSize+int64(len(line)) > s.targetBytes {
		if err := s.rotateLocked(); err != nil {
			s.mu.Unlock()
			return
		}
	}
	off := s.activeSize
	n, werr := s.active.Write(line)
	s.activeSize += int64(n)
	s.segs[s.activeID].size += int64(n)
	if werr != nil || n != len(line) {
		// Partial append: whatever landed is garbage. The torn bytes are
		// counted dead now and healed (skipped or truncated) on next Open.
		s.deadBytes += int64(n)
		s.mu.Unlock()
		return
	}
	if old, ok := s.index[hash]; ok {
		s.killLocked(old)
	}
	s.index[hash] = recLoc{seg: s.activeID, off: off, size: int64(n), meta: metaOf(res)}
	s.segs[s.activeID].live++
	s.liveBytes += int64(n)
	trigger := s.shouldCompactLocked()
	if trigger {
		s.compacting = true
	}
	s.mu.Unlock()
	if trigger {
		go func() {
			defer func() { recover() }() // compaction must never crash a campaign
			s.mu.Lock()
			defer s.mu.Unlock()
			_ = s.compactLocked()
			s.compacting = false
		}()
	}
}

// rotateLocked closes the active segment and starts the next one.
// Caller holds s.mu.
func (s *Store) rotateLocked() error {
	if err := s.active.Close(); err != nil {
		return err
	}
	s.activeID++
	return s.openActive()
}

// compactMinDeadBytes keeps background compaction from churning on tiny
// stores; explicit Compact calls ignore it.
const compactMinDeadBytes = 256 << 10

// shouldCompactLocked reports whether background compaction is warranted.
// Caller holds s.mu.
func (s *Store) shouldCompactLocked() bool {
	return s.autoCompact && !s.compacting &&
		s.deadBytes >= compactMinDeadBytes && s.deadBytes > s.liveBytes
}

// Compact rewrites every live record into fresh segments and deletes the old
// files, reclaiming dead bytes. Safe to call any time; concurrent reads and
// writes block for its duration.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked does the rewrite. Caller holds s.mu.
//
// Crash safety: compacted segments are written to temp files and published
// by rename with ids strictly greater than every existing segment, so a
// crash at any point leaves a directory whose scan order (old segments
// first, compacted copies later, last-write-wins) reproduces the same live
// set; old segments are deleted only after every compacted segment is
// published.
func (s *Store) compactLocked() error {
	if s.closed {
		return fmt.Errorf("resultdb: store is closed")
	}
	// Snapshot the live set in stable (segment, offset) order.
	hashes := make([]string, 0, len(s.index))
	for h := range s.index {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool {
		a, b := s.index[hashes[i]], s.index[hashes[j]]
		if a.seg != b.seg {
			return a.seg < b.seg
		}
		return a.off < b.off
	})

	oldIDs := make([]int, 0, len(s.segs))
	for id := range s.segs {
		oldIDs = append(oldIDs, id)
	}
	sort.Ints(oldIDs)

	newID := s.activeID // ids for compacted output start after the active segment
	newIndex := map[string]recLoc{}
	newSegs := map[int]*segInfo{}
	var liveBytes int64
	var out *os.File
	var outID int
	var outSize int64
	var published []int

	finishSeg := func() error {
		if out == nil {
			return nil
		}
		name := out.Name()
		if err := out.Close(); err != nil {
			os.Remove(name)
			return err
		}
		if err := os.Rename(name, filepath.Join(s.dir, segName(outID))); err != nil {
			os.Remove(name)
			return err
		}
		published = append(published, outID)
		out = nil
		return nil
	}
	fail := func(err error) error {
		if out != nil {
			name := out.Name()
			out.Close()
			os.Remove(name)
		}
		for _, id := range published {
			_ = os.Remove(filepath.Join(s.dir, segName(id)))
		}
		return fmt.Errorf("resultdb: compaction failed: %w", err)
	}

	for _, h := range hashes {
		rec, err := s.readLocked(s.index[h])
		if err != nil {
			// A record we cannot read back is dropped — the same tolerance
			// Open applies to corruption.
			s.corrupt++
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			s.corrupt++
			continue
		}
		line = append(line, '\n')
		if out != nil && outSize+int64(len(line)) > s.targetBytes {
			if err := finishSeg(); err != nil {
				return fail(err)
			}
		}
		if out == nil {
			newID++
			outID = newID
			outSize = 0
			f, err := os.CreateTemp(s.dir, ".seg-*.tmp")
			if err != nil {
				return fail(err)
			}
			out = f
			newSegs[outID] = &segInfo{}
		}
		n, err := out.Write(line)
		if err != nil || n != len(line) {
			return fail(fmt.Errorf("writing compacted segment: %w", err))
		}
		newIndex[h] = recLoc{seg: outID, off: outSize, size: int64(n), meta: s.index[h].meta}
		newSegs[outID].live++
		newSegs[outID].size += int64(n)
		outSize += int64(n)
		liveBytes += int64(n)
	}
	if err := finishSeg(); err != nil {
		return fail(err)
	}

	// Every compacted segment is published: retire the old generation.
	for _, r := range s.readers {
		r.Close()
	}
	s.readers = map[int]*os.File{}
	s.active.Close()
	for _, id := range oldIDs {
		_ = os.Remove(filepath.Join(s.dir, segName(id)))
	}

	s.index = newIndex
	s.segs = newSegs
	s.liveBytes = liveBytes
	s.deadBytes = 0
	s.compactions++
	// Resume appends on a fresh segment after the compacted ones.
	s.activeID = newID + 1
	return s.openActive()
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Segments:        len(s.segs),
		Records:         len(s.index),
		LiveBytes:       s.liveBytes,
		DeadBytes:       s.deadBytes,
		Compactions:     s.compactions,
		CorruptDropped:  s.corrupt,
		TornTailDropped: s.tornTail,
	}
}

// Close releases the store's file handles. Further Gets miss and Puts are
// dropped; every completed Put is already on disk.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, r := range s.readers {
		r.Close()
	}
	s.readers = map[int]*os.File{}
	if s.active != nil {
		return s.active.Close()
	}
	return nil
}
