package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/resultdb"
)

// QueryStore is the optional interface a Config.Store can implement to light
// up GET /v1/results: filtered retrieval over everything the store holds.
// The resultdb segment store implements it; the in-memory cache does not,
// and the endpoint answers 501 in that case.
type QueryStore interface {
	mavbench.ResultStore
	Query(resultdb.Query) []mavbench.Result
	Stats() resultdb.Stats
}

// worldCacheStats snapshots the server's world cache (zero when disabled).
func (s *Server) worldCacheStats() mavbench.WorldCacheStats {
	if s.worldCache == nil {
		return mavbench.WorldCacheStats{}
	}
	return s.worldCache.Stats()
}

// queryResultsResponse is the GET /v1/results body without metric
// projection: the full matching results.
type queryResultsResponse struct {
	Count   int               `json:"count"`
	Results []mavbench.Result `json:"results"`
}

// projectedResultsResponse is the GET /v1/results body with ?metrics=...:
// one flat row per result carrying the identifying spec axes plus the
// requested report metrics.
type projectedResultsResponse struct {
	Count   int              `json:"count"`
	Metrics []string         `json:"metrics"`
	Results []map[string]any `json:"results"`
}

// maxQueryLimit caps one response; larger analyses should page by filter.
const maxQueryLimit = 10000

// handleQueryResults serves GET /v1/results: filter the result store on the
// spec axes and optionally project report metrics into flat rows.
//
// Query parameters: workload, scenario (exact match); difficulty_min,
// difficulty_max, cores_min, cores_max, freq_min, freq_max (ranges);
// ok=true (drop failed runs); limit (result cap, default and max 10000);
// metrics (comma-separated Report field names, e.g.
// metrics=MissionTimeS,TotalEnergyKJ — unknown names are simply absent from
// the rows).
func (s *Server) handleQueryResults(w http.ResponseWriter, r *http.Request) {
	if s.queryStore == nil {
		httpError(w, http.StatusNotImplemented, errors.New(
			"the configured result store does not support queries; run mavbenchd with -store-dir (see docs/STORE.md)"))
		return
	}
	q, metricNames, err := parseResultsQuery(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	results := s.queryStore.Query(q)
	if len(metricNames) == 0 {
		if results == nil {
			results = []mavbench.Result{}
		}
		writeJSON(w, http.StatusOK, queryResultsResponse{Count: len(results), Results: results})
		return
	}
	rows := make([]map[string]any, 0, len(results))
	for _, res := range results {
		row := map[string]any{
			"spec_hash":  res.SpecHash,
			"workload":   res.Spec.Workload,
			"scenario":   res.Spec.Scenario,
			"difficulty": res.Spec.Difficulty,
			"cores":      res.Spec.Cores,
			"freq_ghz":   res.Spec.FreqGHz,
			"ok":         res.OK(),
		}
		fields := reportFields(res.Report)
		for _, name := range metricNames {
			if v, ok := fields[name]; ok {
				row[name] = v
			}
		}
		rows = append(rows, row)
	}
	writeJSON(w, http.StatusOK, projectedResultsResponse{Count: len(rows), Metrics: metricNames, Results: rows})
}

// parseResultsQuery translates URL query parameters into a resultdb.Query
// plus the metric projection list.
func parseResultsQuery(vals url.Values) (resultdb.Query, []string, error) {
	q := resultdb.Query{
		Workload: vals.Get("workload"),
		Scenario: vals.Get("scenario"),
		Limit:    maxQueryLimit,
	}
	var err error
	if q.Difficulty, err = parseRange(vals, "difficulty_min", "difficulty_max"); err != nil {
		return q, nil, err
	}
	if q.Cores, err = parseRange(vals, "cores_min", "cores_max"); err != nil {
		return q, nil, err
	}
	if q.FreqGHz, err = parseRange(vals, "freq_min", "freq_max"); err != nil {
		return q, nil, err
	}
	if v := vals.Get("ok"); v != "" {
		only, perr := strconv.ParseBool(v)
		if perr != nil {
			return q, nil, fmt.Errorf("parameter ok: %q is not a boolean", v)
		}
		q.OnlyOK = only
	}
	if v := vals.Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n <= 0 {
			return q, nil, fmt.Errorf("parameter limit: %q is not a positive integer", v)
		}
		if n < maxQueryLimit {
			q.Limit = n
		}
	}
	var metricNames []string
	if v := vals.Get("metrics"); v != "" {
		for _, name := range strings.Split(v, ",") {
			if name = strings.TrimSpace(name); name != "" {
				metricNames = append(metricNames, name)
			}
		}
	}
	return q, metricNames, nil
}

// parseRange reads an optional min/max parameter pair into a resultdb.Range.
func parseRange(vals url.Values, minKey, maxKey string) (resultdb.Range, error) {
	var rng resultdb.Range
	if v := vals.Get(minKey); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return rng, fmt.Errorf("parameter %s: %q is not a number", minKey, v)
		}
		rng.Min, rng.HasMin = f, true
	}
	if v := vals.Get(maxKey); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return rng, fmt.Errorf("parameter %s: %q is not a number", maxKey, v)
		}
		rng.Max, rng.HasMax = f, true
	}
	if rng.HasMin && rng.HasMax && rng.Min > rng.Max {
		return rng, fmt.Errorf("parameter %s (%g) exceeds %s (%g)", minKey, rng.Min, maxKey, rng.Max)
	}
	return rng, nil
}

// reportFields flattens a Report into its scalar fields by name (the Go
// field names — Report has no JSON tags) for metric projection. Non-numeric
// and nested fields are skipped except Success, kept as a boolean.
func reportFields(rep mavbench.Report) map[string]any {
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil
	}
	var all map[string]any
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil
	}
	out := map[string]any{}
	for name, v := range all {
		switch v.(type) {
		case float64, bool:
			out[name] = v
		}
	}
	return out
}
