package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"mavbench/pkg/mavbench"
)

// ResultsQuery selects stored results on the server's query endpoint
// (GET /v1/results; requires a server run with -store-dir — see docs/STORE.md).
// Zero-valued fields match everything.
type ResultsQuery struct {
	// Workload and Scenario filter on exact canonical names.
	Workload string
	Scenario string
	// The *Min/*Max pairs bound the difficulty and compute axes; nil leaves
	// that side open.
	DifficultyMin, DifficultyMax *float64
	CoresMin, CoresMax           *int
	FreqMin, FreqMax             *float64
	// OnlyOK drops failed runs.
	OnlyOK bool
	// Limit caps the result count (0 = server default, 10000).
	Limit int
	// Metrics, when non-empty, asks the server to project each result to a
	// flat row of spec axes plus these Report fields (Go field names, e.g.
	// "MissionTimeS", "TotalEnergyKJ") instead of returning full results.
	Metrics []string
}

// values encodes the query as URL parameters.
func (q ResultsQuery) values() url.Values {
	vals := url.Values{}
	set := func(key, val string) {
		if val != "" {
			vals.Set(key, val)
		}
	}
	set("workload", q.Workload)
	set("scenario", q.Scenario)
	ff := func(f *float64) string {
		if f == nil {
			return ""
		}
		return strconv.FormatFloat(*f, 'g', -1, 64)
	}
	fi := func(i *int) string {
		if i == nil {
			return ""
		}
		return strconv.Itoa(*i)
	}
	set("difficulty_min", ff(q.DifficultyMin))
	set("difficulty_max", ff(q.DifficultyMax))
	set("cores_min", fi(q.CoresMin))
	set("cores_max", fi(q.CoresMax))
	set("freq_min", ff(q.FreqMin))
	set("freq_max", ff(q.FreqMax))
	if q.OnlyOK {
		vals.Set("ok", "true")
	}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	if len(q.Metrics) > 0 {
		vals.Set("metrics", strings.Join(q.Metrics, ","))
	}
	return vals
}

// QueryResponse is the GET /v1/results body. Results is populated for plain
// queries; Rows for metric-projected queries (one flat map per result).
type QueryResponse struct {
	Count   int               `json:"count"`
	Metrics []string          `json:"metrics,omitempty"`
	Results []mavbench.Result `json:"-"`
	Rows    []map[string]any  `json:"-"`
}

// QueryResults runs a filtered query against the server's result store.
// A server whose store is not queryable answers 501, surfaced as *APIError.
func (c *Client) QueryResults(ctx context.Context, q ResultsQuery) (QueryResponse, error) {
	target := c.BaseURL + "/v1/results"
	if enc := q.values().Encode(); enc != "" {
		target += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return QueryResponse{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return QueryResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return QueryResponse{}, decodeAPIError(resp)
	}
	var out QueryResponse
	if len(q.Metrics) > 0 {
		var body struct {
			Count   int              `json:"count"`
			Metrics []string         `json:"metrics"`
			Results []map[string]any `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return QueryResponse{}, err
		}
		out.Count, out.Metrics, out.Rows = body.Count, body.Metrics, body.Results
		return out, nil
	}
	var body struct {
		Count   int               `json:"count"`
		Results []mavbench.Result `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return QueryResponse{}, err
	}
	out.Count, out.Results = body.Count, body.Results
	return out, nil
}
