// Package mavbench is the public, versioned API of the MAVBench reproduction.
// It is the stable surface every consumer — the CLIs, the examples, the
// experiments harness and the mavbenchd HTTP service — builds on; the
// internal packages behind it are free to change between releases.
//
// The API has three layers:
//
//   - Spec: a validated, canonicalized description of one benchmark run,
//     built with functional options. Unknown workload/kernel names and
//     out-of-range knobs are rejected when the spec is built, not silently
//     defaulted deep inside a run. Spec.Hash() is a stable content address:
//     two equivalent specs (including alias spellings and filled defaults)
//     hash identically in any process.
//
//   - Campaign: a batch of specs executed on the internal parallel runner.
//     Stream delivers each Result over a channel the moment its run
//     completes — the first result is observable long before the last run
//     finishes — with context cancellation and an optional content-addressed
//     ResultStore (in-memory, or the persistent resultdb segment store) so
//     repeated specs are served without re-simulating. Collect is the blocking convenience
//     that returns results in spec order.
//
//   - cmd/mavbenchd: an HTTP service exposing campaigns over /v1 endpoints
//     (see pkg/mavbench/server), streaming results as NDJSON. Servers form
//     worker fleets that shard campaigns horizontally (pkg/mavbench/distrib)
//     and are driven programmatically with pkg/mavbench/client.
//
// A minimal run:
//
//	spec, err := mavbench.NewSpec("scanning",
//	    mavbench.WithOperatingPoint(4, 2.2),
//	    mavbench.WithWorldScale(0.4),
//	    mavbench.WithMaxMissionTime(600),
//	)
//	if err != nil { ... }
//	res, err := mavbench.Run(context.Background(), spec)
//	fmt.Print(res.Report.String())
//
// A streaming sweep over the paper's operating-point grid:
//
//	specs := mavbench.SweepSpecs(base, mavbench.PaperOperatingPoints())
//	for res := range mavbench.NewCampaign(specs...).Stream(ctx) {
//	    fmt.Println(res.Index, res.Report.MissionTimeS)
//	}
package mavbench
