// Package server implements the mavbenchd HTTP service: the /v1 network
// surface over the pkg/mavbench Campaign engine.
//
// Endpoints:
//
//	POST /v1/campaigns                  submit a campaign ({"specs": [...], "priority": N})
//	GET  /v1/campaigns/{id}            campaign status summary
//	GET  /v1/campaigns/{id}/results    stream results as NDJSON, as they complete
//	POST /v1/run                       run a spec batch, streaming NDJSON on the request
//	POST /v1/search                    adversarial scenario search at one operating point (synchronous; body = SearchRequest, response = Frontier)
//	GET  /v1/workloads                 registered workloads and valid knob values
//	GET  /v1/scenarios                 the difficulty-graded scenario catalog
//	GET  /v1/specs/{hash}              canonical spec for a known content address
//	GET  /v1/results                   query the result store (segment backend only; see docs/STORE.md)
//	POST /v1/workers                   register a fleet worker ({"url": ...})
//	GET  /v1/workers                   fleet status
//	POST /v1/workers/{id}/heartbeat    worker liveness
//	POST /v1/workers/{id}/drain        stop dispatching to a worker (graceful removal)
//	DELETE /v1/workers/{id}            deregister a worker
//	GET  /metrics                      Prometheus exposition (see docs/DISTRIBUTED.md)
//
// Results stream incrementally: a client reading the NDJSON response sees
// each run's result the moment it completes, long before the campaign
// finishes. Submitting the same spec twice (across campaigns) is served from
// the shared content-addressed store without re-simulating.
//
// When workers have registered (see pkg/mavbench/distrib and the mavbenchd
// -worker flag), submitted campaigns are sharded across the fleet instead of
// executing in-process; /v1/run always executes locally — it is the endpoint
// the coordinator dispatches to.
//
// With Config.Tenants set the submission endpoint is multi-tenant: requests
// authenticate with X-API-Key, and each tenant's quotas, submission rate and
// fair-share weight apply (429/403 rejections carry a machine-readable
// "code"). With Config.Journal set, submissions are write-ahead journaled so
// a coordinator restart resumes every unfinished campaign.
//
// Every error response carries a JSON body of the form {"error": "..."},
// including 404s for unknown routes and 405s for wrong methods; admission
// rejections add "code" (and "retry_after_s" plus a Retry-After header for
// rate limits).
package server

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mavbench/internal/metrics"
	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/distrib"
)

// Config parameterizes the service.
type Config struct {
	// Workers bounds each campaign's worker pool (<= 0 = one per CPU).
	Workers int
	// Store is the content-addressed result store; nil installs a bounded
	// in-memory cache (4096 entries, FIFO eviction) unless DisableCache is
	// set. Point it at a mavbench.DiskStore to persist results and share
	// them across a fleet.
	Store mavbench.ResultStore
	// DisableCache turns the result store off entirely.
	DisableCache bool
	// WorldCache overrides the world cache campaigns run with; nil selects
	// the process-wide mavbench.DefaultWorldCache, so fleet workers reuse
	// built worlds across batches without configuration.
	WorldCache *mavbench.WorldCache
	// DisableWorldCache turns world caching off entirely (every run builds
	// its world from scratch; results are identical, only slower on
	// compute-axis sweeps).
	DisableWorldCache bool
	// MaxCampaignSpecs caps the number of specs accepted per submission
	// (0 = default 1024).
	MaxCampaignSpecs int
	// MaxSearchRuns caps the total missions one POST /v1/search may
	// simulate — its resolved budget, (generations+1) × population ×
	// repeats + repeats — since the search endpoint is synchronous
	// (0 = default 2048).
	MaxSearchRuns int
	// MaxCampaigns caps how many campaigns (with their results and spec
	// index entries) the server retains; the oldest are evicted first and
	// their ids return 404 afterwards (0 = default 256). This bounds the
	// service's memory under sustained submission.
	MaxCampaigns int
	// Distrib tunes fleet membership and dispatch (zero values = defaults).
	Distrib distrib.Config
	// FleetToken, when non-empty, is required (as "Authorization: Bearer
	// <token>") on the worker-registry endpoints — registration, heartbeat,
	// drain and deregistration — so only trusted workers can join the fleet
	// and feed results into the shared store. Empty means open registration;
	// see docs/DISTRIBUTED.md for the trust model.
	FleetToken string
	// DisableLocalFallback keeps campaigns failing (instead of running
	// in-process) when every fleet worker is unavailable mid-campaign.
	DisableLocalFallback bool
	// Tenants, when non-empty, switches POST /v1/campaigns to authenticated
	// multi-tenant admission (X-API-Key). Empty preserves the open
	// single-tenant behavior.
	Tenants []TenantConfig
	// Journal, when non-nil, write-ahead journals every submission so a
	// restarted server resumes unfinished campaigns (see OpenJournal and
	// Resume semantics in docs/DISTRIBUTED.md).
	Journal *Journal
	// Logf receives one line per request (and recovery events). Nil disables
	// request logging.
	Logf func(format string, args ...any)
}

// Server is the mavbenchd HTTP service. Construct with New; it is safe for
// concurrent use.
type Server struct {
	cfg        Config
	cache      mavbench.ResultStore
	queryStore QueryStore // cfg.Store when it supports Query; nil otherwise
	worldCache *mavbench.WorldCache
	fleet      *distrib.Fleet
	coord      *distrib.Coordinator
	roster     *tenantRoster
	journal    *Journal

	baseCtx    context.Context // cancels every campaign on Close
	baseCancel context.CancelFunc

	reg           *metrics.Registry
	mRequests     *metrics.CounterVec   // by endpoint, code
	mReqDur       *metrics.HistogramVec // by endpoint
	mDispatchDur  *metrics.Histogram
	mBatches      *metrics.CounterVec // by outcome
	mTenantActive *metrics.GaugeVec   // by tenant
	mTenantQueued *metrics.GaugeVec   // by tenant
	mCampaigns    *metrics.CounterVec // by tenant
	mRejected     *metrics.CounterVec // by code
	mStoreHits    *metrics.Counter
	mStoreMisses  *metrics.Counter

	mu        sync.RWMutex
	campaigns map[string]*campaign
	order     []string                 // campaign ids, submission order (for eviction)
	specs     map[string]mavbench.Spec // content address -> canonical spec
	specRefs  map[string]int           // content address -> retaining campaigns
}

// campaign is the server-side state of one submitted campaign. Results
// append under mu; updated is re-made on every append and closed to wake
// streaming readers (a broadcast without condition variables).
type campaign struct {
	id       string
	specs    []mavbench.Spec
	tenant   *tenant // nil when the owning tenant left the roster
	priority int

	mu      sync.Mutex
	results []mavbench.Result
	done    bool
	updated chan struct{}
}

// snapshot returns the results at or after offset, whether the campaign is
// finished, and a channel that closes on the next change.
func (c *campaign) snapshot(offset int) ([]mavbench.Result, bool, <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var tail []mavbench.Result
	if offset < len(c.results) {
		tail = append(tail, c.results[offset:]...)
	}
	return tail, c.done, c.updated
}

func (c *campaign) append(res mavbench.Result) {
	c.mu.Lock()
	c.results = append(c.results, res)
	close(c.updated)
	c.updated = make(chan struct{})
	c.mu.Unlock()
}

func (c *campaign) finish() {
	c.mu.Lock()
	c.done = true
	close(c.updated)
	c.updated = make(chan struct{})
	c.mu.Unlock()
}

// jobOptions is the campaign's scheduling identity on the fleet coordinator.
func (c *campaign) jobOptions() distrib.JobOptions {
	opts := distrib.JobOptions{Priority: c.priority}
	if c.tenant != nil {
		opts.Tenant = c.tenant.cfg.Name
		opts.Weight = c.tenant.cfg.Weight
	}
	return opts
}

// New constructs the service. When cfg.Journal is set, unfinished campaigns
// found in the journal resume immediately (with their original ids, so
// clients can re-attach to the same results URL).
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		cache:     cfg.Store,
		fleet:     distrib.NewFleet(cfg.Distrib),
		roster:    newTenantRoster(cfg.Tenants),
		journal:   cfg.Journal,
		campaigns: map[string]*campaign{},
		specs:     map[string]mavbench.Spec{},
		specRefs:  map[string]int{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if s.cache == nil && !cfg.DisableCache {
		// Bounded: a long-running service must not let unique-spec traffic
		// grow the cache without limit.
		s.cache = mavbench.NewBoundedMemoryCache(4096)
	}
	// The query endpoint binds to the configured store before the counting
	// wrapper: queries are analytics reads, not cache-effectiveness signals.
	if qs, ok := s.cache.(QueryStore); ok {
		s.queryStore = qs
	}
	if !cfg.DisableWorldCache {
		s.worldCache = cfg.WorldCache
		if s.worldCache == nil {
			s.worldCache = mavbench.DefaultWorldCache()
		}
	}
	s.initMetrics()
	if s.cache != nil {
		s.cache = &countingStore{inner: s.cache, hits: s.mStoreHits, misses: s.mStoreMisses}
	}
	s.coord = &distrib.Coordinator{
		Fleet:         s.fleet,
		Store:         s.cache,
		Config:        cfg.Distrib,
		FallbackLocal: !cfg.DisableLocalFallback,
		LocalWorkers:  cfg.Workers,
		Hooks: distrib.Hooks{
			BatchDone: func(_ string, _, _ int, elapsed time.Duration, err error) {
				s.mDispatchDur.Observe(elapsed.Seconds())
				outcome := "ok"
				if err != nil {
					outcome = "error"
				}
				s.mBatches.With(outcome).Inc()
			},
		},
	}
	s.recoverJournal()
	return s
}

// initMetrics declares every metric family so /metrics exposes the full
// catalog (with zero values) from the first scrape.
func (s *Server) initMetrics() {
	s.reg = metrics.NewRegistry()
	s.mRequests = s.reg.CounterVec("mavbench_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	s.mReqDur = s.reg.HistogramVec("mavbench_http_request_duration_seconds",
		"HTTP request latency, by endpoint.", nil, "endpoint")
	s.mDispatchDur = s.reg.Histogram("mavbench_dispatch_duration_seconds",
		"Fleet batch dispatch wall time (request sent to stream drained).", nil)
	s.mBatches = s.reg.CounterVec("mavbench_dispatch_batches_total",
		"Fleet batch dispatches, by outcome (ok or error).", "outcome")
	s.mTenantActive = s.reg.GaugeVec("mavbench_tenant_active_campaigns",
		"Campaigns currently running, by tenant.", "tenant")
	s.mTenantQueued = s.reg.GaugeVec("mavbench_tenant_queued_specs",
		"Specs submitted but not yet completed, by tenant (queue depth).", "tenant")
	s.mCampaigns = s.reg.CounterVec("mavbench_campaigns_total",
		"Campaigns accepted, by tenant.", "tenant")
	s.mRejected = s.reg.CounterVec("mavbench_submissions_rejected_total",
		"Campaign submissions rejected at admission, by error code.", "code")
	s.mStoreHits = s.reg.Counter("mavbench_store_hits_total",
		"Result-store lookups served from the content-addressed store.")
	s.mStoreMisses = s.reg.Counter("mavbench_store_misses_total",
		"Result-store lookups that required simulation.")
	s.reg.CounterFunc("mavbench_worldcache_hits_total",
		"World-cache lookups served without building (memory or disk spill).",
		func() float64 { return float64(s.worldCacheStats().Hits) })
	s.reg.CounterFunc("mavbench_worldcache_misses_total",
		"World-cache lookups that built the world.",
		func() float64 { return float64(s.worldCacheStats().Misses) })
	s.reg.CounterFunc("mavbench_worldcache_evictions_total",
		"Worlds evicted by the world cache's LRU size bound.",
		func() float64 { return float64(s.worldCacheStats().Evictions) })
	s.reg.GaugeFunc("mavbench_worldcache_entries",
		"Worlds resident in the world cache.",
		func() float64 { return float64(s.worldCacheStats().Entries) })
	s.reg.GaugeFunc("mavbench_worldcache_bytes",
		"Estimated in-memory footprint of the world cache.",
		func() float64 { return float64(s.worldCacheStats().SizeBytes) })
	if s.queryStore != nil {
		s.reg.GaugeFunc("mavbench_store_segments",
			"Segment files in the result store.",
			func() float64 { return float64(s.queryStore.Stats().Segments) })
		s.reg.GaugeFunc("mavbench_store_segment_bytes",
			"Bytes held in result-store segments (live plus dead).",
			func() float64 { st := s.queryStore.Stats(); return float64(st.LiveBytes + st.DeadBytes) })
		s.reg.CounterFunc("mavbench_store_compactions_total",
			"Result-store compaction runs completed.",
			func() float64 { return float64(s.queryStore.Stats().Compactions) })
	}
	s.reg.GaugeFunc("mavbench_workers_registered",
		"Workers in the fleet registry.", func() float64 { return float64(len(s.fleet.Workers())) })
	s.reg.GaugeFunc("mavbench_workers_healthy",
		"Workers inside their heartbeat TTL and not marked down.", func() float64 { return float64(s.fleet.HealthyCount()) })
	s.reg.GaugeFunc("mavbench_workers_dispatchable",
		"Healthy workers accepting new batches (excludes draining).", func() float64 { return float64(s.fleet.DispatchableCount()) })
	for _, name := range s.roster.names() {
		s.mTenantActive.With(name).Set(0)
		s.mTenantQueued.With(name).Set(0)
	}
}

// recoverJournal resumes every unfinished journaled campaign.
func (s *Server) recoverJournal() {
	if s.journal == nil {
		return
	}
	recovered, err := s.journal.Recover()
	if err != nil {
		s.logf("journal recovery failed: %v", err)
		return
	}
	for _, rc := range recovered {
		s.resume(rc)
		s.logf("journal: resumed campaign %s (tenant %q, %d/%d specs remaining)",
			rc.ID, rc.Tenant, rc.Remaining(), len(rc.Specs))
	}
}

// resume rebuilds one recovered campaign and restarts it. All specs re-submit
// through the normal path: completed ones are served by the content-addressed
// store, and determinism makes the rest bit-identical to an uninterrupted
// run, so the merged results match exactly.
func (s *Server) resume(rc RecoveredCampaign) {
	var tn *tenant
	if rc.Tenant != "" {
		tn = s.roster.byName[rc.Tenant]
	}
	if tn == nil {
		tn = s.roster.open // nil under a tenanted roster that dropped the tenant
	}
	c := &campaign{id: rc.ID, specs: rc.Specs, tenant: tn, priority: rc.Priority, updated: make(chan struct{})}
	if tn != nil {
		// Recovery bypasses admission: an acknowledged campaign must resume
		// even if the roster has since tightened.
		tn.reserve(len(rc.Specs))
		s.updateTenantGauges(tn)
	}
	s.index(c)
	s.startCampaign(c)
}

// Fleet returns the server's worker registry (for status and tests).
func (s *Server) Fleet() *distrib.Fleet { return s.fleet }

// Metrics returns the server's metric registry (for tests and embedding).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Close cancels every running campaign and closes the journal's file
// handles (journal files for unfinished campaigns remain on disk — that is
// the point: a successor server resumes them). Safe to call once.
func (s *Server) Close() error {
	s.baseCancel()
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the service's HTTP handler (the /v1 API plus /metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/specs/{hash}", s.handleSpec)
	mux.HandleFunc("GET /v1/results", s.handleQueryResults)
	mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
	mux.HandleFunc("GET /v1/workers", s.handleWorkerList)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	mux.HandleFunc("POST /v1/workers/{id}/drain", s.handleWorkerDrain)
	mux.HandleFunc("DELETE /v1/workers/{id}", s.handleWorkerDeregister)
	mux.Handle("GET /metrics", s.reg.Handler())
	return s.withRequestMeta(jsonErrors(mux))
}

// submitRequest is the POST /v1/campaigns body.
type submitRequest struct {
	Specs []mavbench.Spec `json:"specs"`
	// Priority biases the campaign's fair-share dispatch weight on a fleet
	// (each level doubles it); clamped to the tenant's max_priority.
	Priority int `json:"priority,omitempty"`
}

// submitResponse acknowledges a submission.
type submitResponse struct {
	ID         string   `json:"id"`
	Count      int      `json:"count"`
	SpecHashes []string `json:"spec_hashes"`
	ResultsURL string   `json:"results_url"`
	Tenant     string   `json:"tenant,omitempty"`
	Priority   int      `json:"priority,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New(`campaign has no specs (body: {"specs": [...]})`))
		return
	}
	maxSpecs := s.cfg.MaxCampaignSpecs
	if maxSpecs <= 0 {
		maxSpecs = 1024
	}
	if len(req.Specs) > maxSpecs {
		httpError(w, http.StatusBadRequest, fmt.Errorf("campaign has %d specs, limit is %d", len(req.Specs), maxSpecs))
		return
	}
	hashes := make([]string, len(req.Specs))
	for i, spec := range req.Specs {
		if err := spec.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("spec %d: %w", i, err))
			return
		}
		hashes[i] = spec.Hash()
	}

	tn, aerr := s.roster.authenticate(r.Header.Get("X-API-Key"))
	if aerr == nil {
		aerr = tn.admit(len(req.Specs), time.Now())
	}
	if aerr != nil {
		s.mRejected.With(aerr.code).Inc()
		admissionError(w, aerr)
		return
	}

	c := &campaign{
		id: newID(), specs: req.Specs,
		tenant: tn, priority: tn.clampPriority(req.Priority),
		updated: make(chan struct{}),
	}
	if s.journal != nil {
		// Journal before acknowledging: an acked campaign survives a crash.
		if err := s.journal.Begin(c.id, tn.cfg.Name, c.priority, req.Specs); err != nil {
			tn.campaignDone(len(req.Specs)) // roll the reservation back
			httpError(w, http.StatusInternalServerError, fmt.Errorf("journaling campaign: %w", err))
			return
		}
	}
	s.mCampaigns.With(tn.cfg.Name).Inc()
	s.updateTenantGauges(tn)
	s.index(c)
	s.startCampaign(c)

	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:         c.id,
		Count:      len(req.Specs),
		SpecHashes: hashes,
		ResultsURL: "/v1/campaigns/" + c.id + "/results",
		Tenant:     tn.cfg.Name,
		Priority:   c.priority,
	})
}

// index publishes the campaign in the id and spec-hash indexes.
func (s *Server) index(c *campaign) {
	s.mu.Lock()
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	for _, spec := range c.specs {
		hash := spec.Hash()
		s.specs[hash] = spec.Canonical()
		s.specRefs[hash]++
	}
	s.evictLocked()
	s.mu.Unlock()
}

// startCampaign executes the campaign in the background — sharded across the
// fleet when dispatchable workers exist, in-process otherwise — journaling
// each completion and releasing tenant quota as results land. The request
// context must not cancel the campaign (clients collect results from the
// streaming endpoint); only Server.Close does, and a campaign interrupted
// that way keeps its journal so a successor server resumes it.
func (s *Server) startCampaign(c *campaign) {
	stream := s.runStream(c.specs, c.jobOptions())
	go func() {
		n := 0
		for res := range stream {
			c.append(res)
			n++
			if s.journal != nil {
				if err := s.journal.MarkDone(c.id, res.Index); err != nil {
					s.logf("journal: %v", err)
				}
			}
			if c.tenant != nil {
				c.tenant.specDone()
				s.updateTenantGauges(c.tenant)
			}
		}
		c.finish()
		if s.journal != nil && n == len(c.specs) {
			// Every spec produced a result (possibly a failed one): the
			// campaign is complete and needs no recovery. A short count means
			// cancellation (shutdown) — keep the journal for the successor.
			if err := s.journal.Finish(c.id); err != nil {
				s.logf("journal: %v", err)
			}
		}
		if c.tenant != nil {
			c.tenant.campaignDone(len(c.specs) - n)
			s.updateTenantGauges(c.tenant)
		}
	}()
}

func (s *Server) updateTenantGauges(t *tenant) {
	active, queued := t.snapshot()
	s.mTenantActive.With(t.cfg.Name).Set(float64(active))
	s.mTenantQueued.With(t.cfg.Name).Set(float64(queued))
}

// statusResponse is the GET /v1/campaigns/{id} body.
type statusResponse struct {
	ID        string `json:"id"`
	Count     int    `json:"count"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Done      bool   `json:"done"`
	Tenant    string `json:"tenant,omitempty"`
	Priority  int    `json:"priority,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	results, done, _ := c.snapshot(0)
	failed := 0
	for _, res := range results {
		if !res.OK() {
			failed++
		}
	}
	resp := statusResponse{
		ID: c.id, Count: len(c.specs), Completed: len(results), Failed: failed, Done: done,
		Priority: c.priority,
	}
	if c.tenant != nil {
		resp.Tenant = c.tenant.cfg.Name
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Flush the headers immediately so a slow consumer sees the stream open
	// without waiting for the first batch.
	flush()
	enc := json.NewEncoder(w)
	offset := 0
	for {
		// snapshot reads the results and the done flag under one lock, so
		// "tail empty and done" means everything has been streamed.
		tail, done, updated := c.snapshot(offset)
		for _, res := range tail {
			if err := enc.Encode(res); err != nil {
				return // client gone
			}
		}
		offset += len(tail)
		if len(tail) > 0 {
			flush()
			continue // more may have arrived while writing
		}
		if done {
			// Flush before returning: the final records must reach the
			// consumer now, not when the connection tears down.
			flush()
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			flush()
			return
		}
	}
}

// workloadsResponse is the GET /v1/workloads body: the registered workloads
// plus every valid knob value, so clients can build specs without guessing.
type workloadsResponse struct {
	Workloads    []mavbench.WorkloadInfo   `json:"workloads"`
	Detectors    []string                  `json:"detectors"`
	Localizers   []string                  `json:"localizers"`
	Planners     []string                  `json:"planners"`
	Environments []string                  `json:"environments"`
	PaperPoints  []mavbench.OperatingPoint `json:"paper_operating_points"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, workloadsResponse{
		Workloads:    mavbench.Workloads(),
		Detectors:    mavbench.Detectors(),
		Localizers:   mavbench.Localizers(),
		Planners:     mavbench.Planners(),
		Environments: mavbench.Environments(),
		PaperPoints:  mavbench.PaperOperatingPoints(),
	})
}

// scenariosResponse is the GET /v1/scenarios body: the difficulty-graded
// scenario catalog (see docs/SCENARIOS.md).
type scenariosResponse struct {
	Scenarios []mavbench.ScenarioInfo `json:"scenarios"`
	Families  []string                `json:"families"`
	Grades    []float64               `json:"difficulty_grades"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, scenariosResponse{
		Scenarios: mavbench.Scenarios(),
		Families:  mavbench.ScenarioFamilies(),
		Grades:    mavbench.DifficultyGrades(),
	})
}

// specResponse is the GET /v1/specs/{hash} body.
type specResponse struct {
	Hash string        `json:"hash"`
	Spec mavbench.Spec `json:"spec"`
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	s.mu.RLock()
	spec, ok := s.specs[hash]
	s.mu.RUnlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown spec hash %q (only specs from submitted campaigns are addressable)", hash))
		return
	}
	writeJSON(w, http.StatusOK, specResponse{Hash: hash, Spec: spec})
}

func (s *Server) campaign(id string) *campaign {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.campaigns[id]
}

// evictLocked drops the oldest campaigns (and their now-unreferenced spec
// index entries) once the retention cap is exceeded. A still-running evicted
// campaign finishes normally — in-flight streams keep their *campaign
// pointer — it just stops being addressable by id. Caller holds s.mu.
func (s *Server) evictLocked() {
	maxCampaigns := s.cfg.MaxCampaigns
	if maxCampaigns <= 0 {
		maxCampaigns = 256
	}
	for len(s.order) > maxCampaigns {
		id := s.order[0]
		s.order = s.order[1:]
		c := s.campaigns[id]
		delete(s.campaigns, id)
		if c == nil {
			continue
		}
		for _, spec := range c.specs {
			hash := spec.Hash()
			if s.specRefs[hash]--; s.specRefs[hash] <= 0 {
				delete(s.specRefs, hash)
				delete(s.specs, hash)
			}
		}
	}
}

// runStream starts executing specs — sharded across the fleet when
// dispatchable workers are registered, in-process otherwise — and returns
// the merged completion-order result stream. Execution runs under the
// server's base context, so Server.Close (not any request) cancels it.
func (s *Server) runStream(specs []mavbench.Spec, opts distrib.JobOptions) <-chan mavbench.Result {
	if s.fleet.DispatchableCount() > 0 {
		return s.coord.StreamJob(s.baseCtx, specs, opts)
	}
	eng := mavbench.NewCampaign(specs...).SetWorkers(s.cfg.Workers).SetWorldCache(s.worldCache)
	if s.cache != nil {
		eng.SetStore(s.cache)
	}
	return eng.Stream(s.baseCtx)
}

// handleRun is the synchronous batch-run endpoint (POST /v1/run): the body
// names a spec batch, the response streams one NDJSON Result per spec as
// runs complete, and the stream ends when the batch does. Execution is
// always local — this is the endpoint fleet coordinators dispatch to — and
// is canceled if the client disconnects, so an abandoned batch stops
// consuming the worker.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req distrib.RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New(`batch has no specs (body: {"specs": [...]})`))
		return
	}
	maxSpecs := s.cfg.MaxCampaignSpecs
	if maxSpecs <= 0 {
		maxSpecs = 1024
	}
	if len(req.Specs) > maxSpecs {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch has %d specs, limit is %d", len(req.Specs), maxSpecs))
		return
	}
	// Unlike POST /v1/campaigns, invalid specs are not rejected here: they
	// surface as per-spec failed Results, exactly as the local engine
	// reports them — the coordinator relays them verbatim.
	eng := mavbench.NewCampaign(req.Specs...).SetWorkers(s.cfg.Workers).SetWorldCache(s.worldCache)
	if s.cache != nil {
		eng.SetStore(s.cache)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Headers out immediately: the dispatching coordinator treats an
		// accepted stream as a live worker.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for res := range eng.Stream(r.Context()) {
		if err := enc.Encode(res); err != nil {
			return // client gone; context cancellation stops the engine
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if flusher != nil {
		// Nothing is buffered when every record flushed above, but a final
		// flush keeps the no-results path (empty stream) honest too.
		flusher.Flush()
	}
}

// handleSearch is the adversarial scenario-search endpoint (POST /v1/search):
// the body is a mavbench.SearchRequest, the response the found
// mavbench.Frontier. The search runs synchronously on the request — its
// budget is bounded by Config.MaxSearchRuns, and the client disconnecting
// cancels it. Candidate batches execute through the same path as campaigns:
// sharded across the fleet when dispatchable workers are registered, on the
// local engine (result store and world cache included) otherwise, so a found
// frontier is identical either way.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req mavbench.SearchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	maxRuns := s.cfg.MaxSearchRuns
	if maxRuns <= 0 {
		maxRuns = 2048
	}
	if runs := req.TotalRuns(); runs > maxRuns {
		httpError(w, http.StatusBadRequest, fmt.Errorf("search budget is %d runs, limit is %d (shrink generations, population or repeats)", runs, maxRuns))
		return
	}
	req.Workers = s.cfg.Workers

	runner := func(ctx context.Context, specs []mavbench.Spec) ([]mavbench.Result, error) {
		var stream <-chan mavbench.Result
		if s.fleet.DispatchableCount() > 0 {
			stream = s.coord.StreamJob(ctx, specs, distrib.JobOptions{})
		} else {
			eng := mavbench.NewCampaign(specs...).SetWorkers(s.cfg.Workers).SetWorldCache(s.worldCache)
			if s.cache != nil {
				eng.SetStore(s.cache)
			}
			stream = eng.Stream(ctx)
		}
		out := make([]mavbench.Result, len(specs))
		n := 0
		for res := range stream {
			if res.Index < 0 || res.Index >= len(specs) {
				return nil, fmt.Errorf("search batch returned result index %d for %d specs", res.Index, len(specs))
			}
			out[res.Index] = res
			n++
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if n != len(specs) {
			return nil, fmt.Errorf("search batch returned %d results for %d specs", n, len(specs))
		}
		return out, nil
	}

	frontier, err := mavbench.SearchFrontier(r.Context(), req, mavbench.WithSearchRunner(runner))
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nothing useful to write
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, frontier)
}

// fleetAuthorized enforces Config.FleetToken on the worker-registry
// endpoints; a false return has already written the 401. The comparison is
// constant-time so the token cannot be recovered through a timing side
// channel.
func (s *Server) fleetAuthorized(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.FleetToken == "" {
		return true
	}
	want := "Bearer " + s.cfg.FleetToken
	got := r.Header.Get("Authorization")
	if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
		httpError(w, http.StatusUnauthorized, errors.New("fleet endpoints require the coordinator's fleet token (Authorization: Bearer ...)"))
		return false
	}
	return true
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	if !s.fleetAuthorized(w, r) {
		return
	}
	var req distrib.RegisterRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if req.URL == "" {
		httpError(w, http.StatusBadRequest, errors.New(`worker registration has no url (body: {"url": "http://host:port"})`))
		return
	}
	st := s.fleet.Register(req.URL)
	writeJSON(w, http.StatusOK, distrib.RegisterResponse{
		ID:                 st.ID,
		HeartbeatIntervalS: s.fleet.Config().HeartbeatIntervalOrDefault().Seconds(),
	})
}

func (s *Server) handleWorkerList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, distrib.WorkerListResponse{
		Workers: s.fleet.Workers(),
		Healthy: s.fleet.HealthyCount(),
	})
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.fleetAuthorized(w, r) {
		return
	}
	id := r.PathValue("id")
	if !s.fleet.Heartbeat(id) {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q (re-register with POST /v1/workers)", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleWorkerDrain gracefully removes a worker from dispatch: its in-flight
// batch finishes (and its results count), but no new batch reaches it until
// it re-registers. The worker's heartbeats keep it visible in /v1/workers as
// draining.
func (s *Server) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	if !s.fleetAuthorized(w, r) {
		return
	}
	id := r.PathValue("id")
	if !s.fleet.Drain(id) {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q", id))
		return
	}
	s.logf("fleet: worker %s draining", id)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true, "draining": true})
}

func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	if !s.fleetAuthorized(w, r) {
		return
	}
	id := r.PathValue("id")
	if !s.fleet.Deregister(id) {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown worker %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// errorResponse is the uniform error body. Code and RetryAfterS are set on
// admission rejections (tenant auth, quotas, rate limits) so clients can
// branch without parsing prose.
type errorResponse struct {
	Error       string  `json:"error"`
	Code        string  `json:"code,omitempty"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// admissionError writes a typed 403/429 rejection; rate limits also carry a
// Retry-After header (seconds, rounded up, at least 1).
func admissionError(w http.ResponseWriter, aerr *admitError) {
	resp := errorResponse{Error: aerr.msg, Code: aerr.code}
	if aerr.retryAfter > 0 {
		resp.RetryAfterS = aerr.retryAfter.Seconds()
		secs := int(aerr.retryAfter.Seconds() + 0.999)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, aerr.status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// countingStore wraps the result store with hit/miss counters for /metrics.
type countingStore struct {
	inner        mavbench.ResultStore
	hits, misses *metrics.Counter
}

func (cs *countingStore) Get(hash string) (mavbench.Result, bool) {
	res, ok := cs.inner.Get(hash)
	if ok {
		cs.hits.Inc()
	} else {
		cs.misses.Inc()
	}
	return res, ok
}

func (cs *countingStore) Put(hash string, res mavbench.Result) { cs.inner.Put(hash, res) }

// requestIDKey carries the request id through handler contexts.
type requestIDKey struct{}

// RequestID returns the request's id (assigned or propagated by the server's
// middleware), or "" outside a server request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// withRequestMeta assigns every request an id (propagating a client-sent
// X-Request-Id), echoes it on the response, records the per-endpoint metrics
// and emits one structured log line — the observability envelope around the
// whole API surface.
func (s *Server) withRequestMeta(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = newID()
		}
		w.Header().Set("X-Request-Id", rid)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		endpoint := endpointName(r.URL.Path)
		s.mRequests.With(endpoint, strconv.Itoa(status)).Inc()
		s.mReqDur.With(endpoint).Observe(elapsed.Seconds())
		s.logf("http: %s %s %d %s rid=%s", r.Method, r.URL.Path, status, elapsed.Round(time.Millisecond), rid)
	})
}

// endpointName buckets a request path into a bounded label set (path
// parameters collapse, unknown paths share one bucket — labels must not have
// unbounded cardinality).
func endpointName(path string) string {
	switch {
	case path == "/v1/campaigns":
		return "campaigns"
	case strings.HasPrefix(path, "/v1/campaigns/") && strings.HasSuffix(path, "/results"):
		return "campaign_results"
	case strings.HasPrefix(path, "/v1/campaigns/"):
		return "campaign_status"
	case path == "/v1/run":
		return "run"
	case path == "/v1/workloads":
		return "workloads"
	case path == "/v1/scenarios":
		return "scenarios"
	case strings.HasPrefix(path, "/v1/specs/"):
		return "specs"
	case path == "/v1/results":
		return "results"
	case path == "/v1/workers":
		return "workers"
	case strings.HasSuffix(path, "/heartbeat"):
		return "worker_heartbeat"
	case strings.HasSuffix(path, "/drain"):
		return "worker_drain"
	case strings.HasPrefix(path, "/v1/workers/"):
		return "worker"
	case path == "/metrics":
		return "metrics"
	}
	return "other"
}

// statusWriter records the response status for metrics and logs, forwarding
// Flush so the streaming endpoints keep streaming.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// jsonErrors wraps a handler so the plain-text 404/405 bodies the ServeMux
// produces for unmatched routes are rewritten as the service's uniform
// {"error": "..."} JSON — every error on the /v1 surface is structured.
// Responses our own handlers write (always JSON or NDJSON, with the
// Content-Type set before the status) pass through untouched.
func jsonErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&jsonErrorWriter{ResponseWriter: w, req: r}, r)
	})
}

// jsonErrorWriter intercepts text/plain 404 and 405 responses (the mux's
// built-ins) and substitutes a JSON error body.
type jsonErrorWriter struct {
	http.ResponseWriter
	req         *http.Request
	intercepted bool // swallowing the original text body
}

func (w *jsonErrorWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		w.ResponseWriter.Header().Get("Content-Type") != "application/json" &&
		w.ResponseWriter.Header().Get("Content-Type") != "application/x-ndjson" &&
		!strings.HasPrefix(w.ResponseWriter.Header().Get("Content-Type"), "text/plain; version=") {
		w.intercepted = true
		h := w.ResponseWriter.Header()
		h.Del("Content-Length")
		h.Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(status)
		msg := fmt.Sprintf("no such endpoint: %s %s (see docs/API.md)", w.req.Method, w.req.URL.Path)
		if status == http.StatusMethodNotAllowed {
			msg = fmt.Sprintf("method %s not allowed on %s", w.req.Method, w.req.URL.Path)
		}
		_ = json.NewEncoder(w.ResponseWriter).Encode(errorResponse{Error: msg})
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if w.intercepted {
		// Swallow the mux's plain-text body; the JSON body is already out.
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// Flush keeps the streaming endpoints streaming through the wrapper.
func (w *jsonErrorWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newID returns a random campaign identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "c" + hex.EncodeToString(b[:])
}
