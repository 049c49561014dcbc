package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mavbench/internal/core"
	"mavbench/pkg/mavbench"
)

// flushRecorder is a ResponseWriter that separates flushed from unflushed
// bytes, so a test can assert that a streaming handler pushed everything it
// wrote to the client before returning (instead of leaving the tail sitting
// in the buffer until the connection closes).
type flushRecorder struct {
	header    http.Header
	status    int
	unflushed strings.Builder
	flushed   strings.Builder
}

func newFlushRecorder() *flushRecorder { return &flushRecorder{header: http.Header{}} }

func (f *flushRecorder) Header() http.Header { return f.header }

func (f *flushRecorder) WriteHeader(code int) { f.status = code }

func (f *flushRecorder) Write(b []byte) (int, error) { return f.unflushed.Write(b) }

func (f *flushRecorder) Flush() {
	f.flushed.WriteString(f.unflushed.String())
	f.unflushed.Reset()
}

// TestResultsStreamFlushesFinalRecordsBeforeReturn pins the done-path flush
// contract of GET /v1/campaigns/{id}/results: when the handler returns, every
// NDJSON record — including the last batch written just before the done check
// — must already have been flushed to the client.
func TestResultsStreamFlushesFinalRecordsBeforeReturn(t *testing.T) {
	core.RegisterFor(t, &serviceWorkload{name: "svc_flush_done"})
	srv := New(Config{Workers: 1})
	handler := srv.Handler()

	sub := httptest.NewRecorder()
	handler.ServeHTTP(sub, httptest.NewRequest(http.MethodPost, "/v1/campaigns",
		strings.NewReader(`{"specs": [{"workload": "svc_flush_done", "max_mission_time_s": 30}]}`)))
	if sub.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", sub.Code, sub.Body.String())
	}
	var ack submitResponse
	if err := json.Unmarshal(sub.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}

	// Wait for the campaign to finish, so the results handler takes the
	// write-tail-then-done path in a single pass.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := httptest.NewRecorder()
		handler.ServeHTTP(st, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+ack.ID, nil))
		var status statusResponse
		if err := json.Unmarshal(st.Body.Bytes(), &status); err != nil {
			t.Fatalf("status decode: %v (%s)", err, st.Body.String())
		}
		if status.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	rec := newFlushRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+ack.ID+"/results", nil))

	if rec.unflushed.Len() != 0 {
		t.Fatalf("handler returned with %d unflushed bytes still buffered: %q",
			rec.unflushed.Len(), rec.unflushed.String())
	}
	sc := bufio.NewScanner(strings.NewReader(rec.flushed.String()))
	var records int
	for sc.Scan() {
		var res mavbench.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("flushed line %d is not a Result: %v", records, err)
		}
		if !res.OK() {
			t.Fatalf("record %d failed: %v", records, res.Error)
		}
		records++
	}
	if records != 1 {
		t.Fatalf("flushed %d records, want 1", records)
	}
}

// TestRunBatchFlushesBeforeReturn pins the same contract for the worker-side
// POST /v1/run batch endpoint.
func TestRunBatchFlushesBeforeReturn(t *testing.T) {
	core.RegisterFor(t, &serviceWorkload{name: "svc_flush_run"})
	srv := New(Config{Workers: 1})
	handler := srv.Handler()

	rec := newFlushRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run",
		strings.NewReader(`{"specs": [{"workload": "svc_flush_run", "max_mission_time_s": 30}]}`)))

	if rec.unflushed.Len() != 0 {
		t.Fatalf("handler returned with %d unflushed bytes still buffered: %q",
			rec.unflushed.Len(), rec.unflushed.String())
	}
	var records int
	sc := bufio.NewScanner(strings.NewReader(rec.flushed.String()))
	for sc.Scan() {
		records++
	}
	if records != 1 {
		t.Fatalf("flushed %d records, want 1", records)
	}
}
