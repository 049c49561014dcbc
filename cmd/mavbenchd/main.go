// Command mavbenchd serves the MAVBench benchmark suite over HTTP: submit
// campaigns of run specs, stream quality-of-flight results back as NDJSON
// while the runs are still executing, and resolve spec content addresses.
//
//	mavbenchd -addr :8080 -workers 8
//
//	curl -s localhost:8080/v1/workloads | jq .
//	id=$(curl -s -X POST localhost:8080/v1/campaigns \
//	      -d '{"specs":[{"workload":"scanning","world_scale":0.4,"max_mission_time_s":600}]}' | jq -r .id)
//	curl -sN localhost:8080/v1/campaigns/$id/results
//
// Fleet mode: any mavbenchd can be a coordinator (workers register with it
// and submitted campaigns shard across them), and `-worker -join <url>`
// turns an instance into a fleet worker. `-store-dir` persists results in
// the content-addressed segment store (pkg/mavbench/resultdb) and serves
// GET /v1/results over it. Only the coordinator takes `-store-dir`: it
// checks the store before dispatching and stores every result a worker
// returns, so no spec is ever simulated twice and workers need no store.
//
//	mavbenchd -addr :8080 -store-dir /var/lib/mavbench/results          # coordinator
//	mavbenchd -addr :8081 -worker -join http://coord:8080
//	mavbenchd -addr :8082 -worker -join http://coord:8080
//
// See docs/API.md for the endpoint reference and docs/DISTRIBUTED.md for
// fleet topology and failure semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux for -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"mavbench/pkg/mavbench"
	"mavbench/pkg/mavbench/distrib"
	"mavbench/pkg/mavbench/resultdb"
	"mavbench/pkg/mavbench/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "parallel runs per campaign (0 = one per CPU)")
	noCache := flag.Bool("no-cache", false, "disable the content-addressed result store")
	storeDir := flag.String("store-dir", "", "persist results in the segment store at this directory and serve GET /v1/results (coordinator only; one process per directory — see docs/STORE.md)")
	worldCacheMB := flag.Int64("world-cache-mb", 256, "in-memory world cache bound, in MiB (0 disables world caching)")
	workerMode := flag.Bool("worker", false, "run as a fleet worker: register with the -join coordinator and heartbeat")
	join := flag.String("join", "", "coordinator base URL to join (requires -worker)")
	advertise := flag.String("advertise", "", "URL the coordinator should dispatch to (default http://127.0.0.1:<port of -addr>)")
	fleetToken := flag.String("fleet-token", "", "shared secret for worker registration: coordinators require it, workers send it (empty = open registration)")
	tenantsFile := flag.String("tenants", "", "JSON tenant roster: switches POST /v1/campaigns to authenticated multi-tenant admission (X-API-Key)")
	journalDir := flag.String("journal-dir", "", "write-ahead journal directory: submissions survive a restart (unfinished campaigns resume on startup)")
	maxSearchRuns := flag.Int("max-search-runs", 0, "cap on the missions one POST /v1/search may simulate (0 = default 2048)")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	flag.Parse()

	if *workerMode != (*join != "") {
		fmt.Fprintln(os.Stderr, "mavbenchd: -worker and -join must be used together")
		os.Exit(2)
	}
	if *storeDir != "" && *noCache {
		fmt.Fprintln(os.Stderr, "mavbenchd: -store-dir and -no-cache are mutually exclusive")
		os.Exit(2)
	}
	if *storeDir != "" && *workerMode {
		fmt.Fprintln(os.Stderr, "mavbenchd: -worker takes no -store-dir: the coordinator owns the result store and stores every result its workers return")
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// The profiling endpoint lives on its own listener (and its own mux —
		// importing net/http/pprof only registers on http.DefaultServeMux), so
		// profiling exposure is opt-in and never shares a port with the API.
		go func() {
			log.Printf("mavbenchd: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("mavbenchd: pprof server: %v", err)
			}
		}()
	}

	cfg := server.Config{Workers: *workers, DisableCache: *noCache, FleetToken: *fleetToken, MaxSearchRuns: *maxSearchRuns}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	if *tenantsFile != "" {
		tenants, err := server.LoadTenants(*tenantsFile)
		if err != nil {
			log.Fatalf("mavbenchd: %v", err)
		}
		cfg.Tenants = tenants
	}
	if *journalDir != "" {
		journal, err := server.OpenJournal(*journalDir)
		if err != nil {
			log.Fatalf("mavbenchd: %v", err)
		}
		cfg.Journal = journal
	}
	storeDesc := "memory"
	if *noCache {
		storeDesc = "off"
	}
	if *storeDir != "" {
		store, err := resultdb.Open(*storeDir)
		if err != nil {
			log.Fatalf("mavbenchd: %v", err)
		}
		defer store.Close()
		cfg.Store = store
		storeDesc = *storeDir
	}
	if *worldCacheMB <= 0 {
		cfg.DisableWorldCache = true
	} else if *worldCacheMB != 256 {
		cfg.WorldCache = mavbench.NewWorldCache(mavbench.WithWorldCacheMaxBytes(*worldCacheMB << 20))
	}

	srv := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// No WriteTimeout: the results endpoint streams for as long as a
		// campaign runs.
	}

	if *workerMode {
		self := *advertise
		if self == "" {
			self = advertiseURL(*addr)
		}
		go func() {
			err := distrib.Join(context.Background(), distrib.JoinConfig{
				Coordinator: *join,
				Advertise:   self,
				Token:       *fleetToken,
				Logf:        log.Printf,
			})
			log.Printf("mavbenchd: fleet membership loop ended: %v", err)
		}()
		log.Printf("mavbenchd worker listening on %s (coordinator=%s, advertise=%s, store=%s)", *addr, *join, self, storeDesc)
	} else {
		extras := ""
		if len(cfg.Tenants) > 0 {
			extras += fmt.Sprintf(", tenants=%d", len(cfg.Tenants))
		}
		if *journalDir != "" {
			extras += ", journal=" + *journalDir
		}
		log.Printf("mavbenchd listening on %s (workers=%d, store=%s%s)", *addr, *workers, storeDesc, extras)
	}

	// Graceful shutdown: stop accepting requests, then cancel in-flight
	// campaigns — journaled ones are resumed by the next start.
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("mavbenchd: %v: shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("mavbenchd: shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			log.Printf("mavbenchd: close: %v", err)
		}
	}
}

// advertiseURL derives the URL workers advertise to the coordinator from the
// listen address: an unspecified host becomes the loopback address (right
// for single-machine fleets; use -advertise for anything else).
func advertiseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://127.0.0.1:8080"
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
