// Command fotqueryd is the live analytics daemon: it keeps the paper's
// full statistics warm over a growing ticket trace and answers HTTP
// queries while tickets stream in.
//
// Pick exactly one ticket source (or none, to generate and serve a
// frozen trace in memory):
//
//	fotqueryd -listen 127.0.0.1:7080
//	    Generate the -profile/-seed trace and serve it frozen.
//
//	fotqueryd -trace trace.csv
//	    Serve a trace file written by fotgen, frozen.
//
//	fotqueryd -archive /var/lib/fms
//	    Tail an archive directory that fmsd is writing; new segments
//	    are folded into the live report as they appear.
//
//	fotqueryd -collect 127.0.0.1:7070
//	    Run an embedded collector: agents report to -collect, every
//	    accepted ticket folds into the live report.
//
//	fotqueryd -sync 10.0.0.1:7075
//	    Run as a read-only serving replica: follow a primary's
//	    replication stream (its -replicate address) instead of
//	    ingesting tickets directly.
//
// Any mode may add -replicate ADDR to publish its epoch history to
// replicas, and -degraded-after D to make /healthz report degraded
// (HTTP 503) when the source lag exceeds D — the failover signal
// cmd/fotrouter keys on.
//
// The census the population-normalized sections need is rebuilt
// deterministically from (-profile, -seed), which must match the
// trace's generator.
//
// Query it:
//
//	curl localhost:7080/report?sections=table1,fig5
//	curl localhost:7080/report/table4
//	curl localhost:7080/hosts/1234
//	curl localhost:7080/alerts
//	curl localhost:7080/stats
//
// -smoke starts the daemon on a loopback port, serves the generated
// trace, queries its own API once end to end, and exits — used by the
// Makefile's serve-smoke target.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcfail/internal/archive"
	"dcfail/internal/archive/segment"
	"dcfail/internal/core"
	"dcfail/internal/fleetgen"
	"dcfail/internal/fms"
	"dcfail/internal/fmsnet"
	"dcfail/internal/fot"
	"dcfail/internal/replica"
	"dcfail/internal/serve"
	"dcfail/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fotqueryd:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fotqueryd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7080", "HTTP listen address")
	profileName := fs.String("profile", "small", "fleet profile for the census: small | paper")
	seed := fs.Int64("seed", 1, "deterministic fleet seed (must match the trace's generator)")
	tracePath := fs.String("trace", "", "serve a frozen trace file (csv, jsonl, or fotseg by extension)")
	archiveDir := fs.String("archive", "", "tail an fmsd archive directory for new tickets")
	collectAddr := fs.String("collect", "", "run an embedded collector on this address and ingest its tickets")
	syncAddr := fs.String("sync", "", "run as a read-only replica: follow this primary replication address")
	syncCodec := fs.String("sync-codec", "binary", "replication stream codec: binary (negotiated, falls back) or json (forced legacy)")
	replicateAddr := fs.String("replicate", "", "publish this daemon's epoch history to replicas on this address")
	degradedAfter := fs.Duration("degraded-after", 0, "report /healthz degraded once source lag exceeds this; 0 = never")
	subBuffer := fs.Int("sub-buffer", 4096, "collector subscription buffer; overflow is dropped and counted")
	pollInterval := fs.Duration("poll-interval", 500*time.Millisecond, "archive re-poll interval while idle")
	foldInterval := fs.Duration("fold-interval", 200*time.Millisecond, "max delay before pending tickets fold into a new epoch")
	foldBatch := fs.Int("fold-batch", 8192, "fold early once this many tickets are pending")
	workers := fs.Int("workers", 0, "parallel fold and render workers per fold or request; 0 = one per CPU")
	maxConcurrent := fs.Int("max-concurrent", 64, "max in-flight HTTP requests")
	reqTimeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	alertWindow := fs.Duration("alert-window", 3*time.Hour, "batch alert sliding window")
	alertThreshold := fs.Int("alert-threshold", 20, "batch alert distinct-server threshold")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra address (e.g. 127.0.0.1:6060); empty = disabled")
	smoke := fs.Bool("smoke", false, "self-test: serve a generated trace on a loopback port, query the API, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	nsrc := 0
	for _, set := range []bool{*tracePath != "", *archiveDir != "", *collectAddr != ""} {
		if set {
			nsrc++
		}
	}
	if nsrc > 1 {
		return fmt.Errorf("-trace, -archive and -collect are mutually exclusive")
	}
	if *smoke && nsrc > 0 {
		return fmt.Errorf("-smoke generates its own trace; drop -trace/-archive/-collect")
	}
	if *syncAddr != "" && (nsrc > 0 || *smoke) {
		return fmt.Errorf("-sync replaces local ingest; drop -trace/-archive/-collect/-smoke")
	}

	var profile fleetgen.Profile
	switch *profileName {
	case "small":
		profile = fleetgen.SmallProfile()
	case "paper":
		profile = fleetgen.PaperProfile()
	default:
		return fmt.Errorf("unknown profile %q (want small or paper)", *profileName)
	}

	// Census plus the ticket source. The generate and -trace modes are
	// finite: the daemon drains them and keeps serving the frozen epoch.
	var census *core.Census
	var src serve.TicketSource
	var sub *fmsnet.TicketSub
	var collector *fmsnet.Collector
	switch {
	case *syncAddr != "":
		// Replica mode: no local ticket source — rows arrive over the
		// primary's replication stream and fold under its epoch numbers.
		fleet, err := topo.Build(profile.FleetSpec, *seed)
		if err != nil {
			return err
		}
		census = core.CensusFromFleet(fleet)
	case *tracePath != "":
		trace, err := loadTrace(*tracePath)
		if err != nil {
			return err
		}
		fleet, err := topo.Build(profile.FleetSpec, *seed)
		if err != nil {
			return err
		}
		census = core.CensusFromFleet(fleet)
		src = serve.FromTrace(trace, 0)
	case *archiveDir != "":
		fleet, err := topo.Build(profile.FleetSpec, *seed)
		if err != nil {
			return err
		}
		census = core.CensusFromFleet(fleet)
		src = serve.TailArchive(*archiveDir, archive.Position{}, *pollInterval)
	case *collectAddr != "":
		fleet, err := topo.Build(profile.FleetSpec, *seed)
		if err != nil {
			return err
		}
		census = core.CensusFromFleet(fleet)
		c, err := fmsnet.NewCollector(*collectAddr)
		if err != nil {
			return err
		}
		collector = c
		sub = c.SubscribeTickets(*subBuffer)
		src = serve.FromChannel(sub.C())
		fmt.Fprintf(w, "fotqueryd: collecting on %s\n", c.Addr())
	default:
		res, err := fms.Run(profile, fms.DefaultConfig(), *seed)
		if err != nil {
			return err
		}
		census = core.CensusFromFleet(res.Fleet)
		src = serve.FromTrace(res.Trace, 0)
	}

	opts := serve.Options{
		Census:         census,
		Workers:        *workers,
		FoldInterval:   *foldInterval,
		FoldBatch:      *foldBatch,
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *reqTimeout,
		AlertWindow:    *alertWindow,
		AlertThreshold: *alertThreshold,
		DegradedAfter:  *degradedAfter,
	}
	if sub != nil {
		opts.SourceDrops = sub.Dropped
	}
	d := serve.New(opts)
	var syncer *replica.Syncer
	if *syncAddr != "" {
		// Replica mode: the syncer is the ticket source, and /healthz
		// measures replication lag instead of pending-queue lag.
		syncer = replica.NewSyncer(d.State(), replica.SyncerOptions{Addr: *syncAddr, Codec: *syncCodec})
		d.SetLagProbe(syncer.Lag)
		syncer.Start()
		fmt.Fprintf(w, "fotqueryd: syncing from %s\n", *syncAddr)
	} else {
		d.StartIngest(src)
	}
	var stream *replica.Server
	if *replicateAddr != "" {
		s, err := replica.NewServer(*replicateAddr, d.State(), replica.ServerOptions{})
		if err != nil {
			return err
		}
		stream = s
		fmt.Fprintf(w, "fotqueryd: replicating on %s\n", stream.Addr())
	}

	addr := *listen
	if *smoke {
		addr = "127.0.0.1:0" // hermetic: never fight over a fixed port
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fotqueryd: serving on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()

	// The profiling endpoint is opt-in and lives on its own listener and
	// mux: the query API's address never exposes /debug/pprof/, and the
	// daemon's concurrency limiter cannot throttle a profile grab.
	profAddr := *pprofAddr
	if *smoke {
		profAddr = "127.0.0.1:0"
	}
	var pprofSrv *http.Server
	pprofURL := ""
	if profAddr != "" {
		pln, err := net.Listen("tcp", profAddr)
		if err != nil {
			return err
		}
		pprofSrv = &http.Server{Handler: pprofMux()}
		go pprofSrv.Serve(pln)
		pprofURL = "http://" + pln.Addr().String()
		fmt.Fprintf(w, "fotqueryd: pprof on %s/debug/pprof/\n", pprofURL)
	}

	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if sub != nil {
			sub.Close()
		}
		if syncer != nil {
			syncer.Stop()
		}
		if stream != nil {
			stream.Close()
		}
		if pprofSrv != nil {
			pprofSrv.Shutdown(ctx)
		}
		var cerr error
		if collector != nil {
			cerr = collector.Close()
		}
		if err := d.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-serveErr; err != nil && err != http.ErrServerClosed {
			return err
		}
		return cerr
	}

	if *smoke {
		if err := smokeTest(w, d, "http://"+ln.Addr().String(), pprofURL); err != nil {
			shutdown()
			return fmt.Errorf("smoke: %w", err)
		}
		return shutdown()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Fprintf(w, "fotqueryd: %v, draining\n", s)
		return shutdown()
	}
}

// pprofMux builds the standalone profiling mux. net/http/pprof's import
// side effect registers on http.DefaultServeMux, which the daemon never
// serves; this mux wires the same handlers onto the dedicated listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// smokeTest exercises the daemon's own API end to end: wait for the
// generated trace to drain, then hit /healthz, one report section,
// /stats and the pprof sidecar, sanity-checking each reply.
func smokeTest(w io.Writer, d *serve.Daemon, base, pprofURL string) error {
	deadline := time.Now().Add(60 * time.Second)
	for !d.Drained() {
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest did not drain within 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	body, err := get(base + "/healthz")
	if err != nil {
		return err
	}
	var health serve.HealthReply
	if err := json.Unmarshal(body, &health); err != nil {
		return fmt.Errorf("/healthz: %w", err)
	}
	if health.Status != serve.HealthOK {
		return fmt.Errorf("/healthz said %q, want %q", health.Status, serve.HealthOK)
	}

	body, err = get(base + "/report/table1")
	if err != nil {
		return err
	}
	if !strings.Contains(string(body), "Table I") {
		return fmt.Errorf("/report/table1 body does not look like Table I:\n%s", body)
	}

	body, err = get(base + "/stats")
	if err != nil {
		return err
	}
	var stats serve.StatsReply
	if err := json.Unmarshal(body, &stats); err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	if stats.Epoch == 0 || stats.Tickets == 0 || !stats.Drained {
		return fmt.Errorf("/stats not settled: epoch=%d tickets=%d drained=%v",
			stats.Epoch, stats.Tickets, stats.Drained)
	}
	if stats.Predict.Hosts == 0 || stats.Predict.Epoch != stats.Epoch {
		return fmt.Errorf("/stats predictor not settled: %+v against epoch %d", stats.Predict, stats.Epoch)
	}

	// The streaming predictor: rank the fleet, then score the top host.
	body, err = get(base + "/atrisk?n=3")
	if err != nil {
		return err
	}
	var atRisk serve.AtRiskReply
	if err := json.Unmarshal(body, &atRisk); err != nil {
		return fmt.Errorf("/atrisk: %w", err)
	}
	if len(atRisk.Hosts) == 0 || atRisk.Model == "" {
		return fmt.Errorf("/atrisk returned no ranked hosts: %s", body)
	}
	body, err = get(fmt.Sprintf("%s/predict/%d", base, atRisk.Hosts[0].Host))
	if err != nil {
		return err
	}
	var pred serve.PredictReply
	if err := json.Unmarshal(body, &pred); err != nil {
		return fmt.Errorf("/predict: %w", err)
	}
	if pred.Score != atRisk.Hosts[0].Score {
		return fmt.Errorf("/predict score %v disagrees with /atrisk rank 0 score %v",
			pred.Score, atRisk.Hosts[0].Score)
	}

	if pprofURL != "" {
		body, err = get(pprofURL + "/debug/pprof/cmdline")
		if err != nil {
			return err
		}
		if len(body) == 0 {
			return fmt.Errorf("pprof /debug/pprof/cmdline returned an empty body")
		}
	}

	fmt.Fprintf(w, "fotqueryd: smoke ok — epoch %d, %d tickets, cache %d/%d hits, top risk host %d (%.3f)\n",
		stats.Epoch, stats.Tickets, stats.CacheHits, stats.CacheHits+stats.CacheMisses,
		atRisk.Hosts[0].Host, atRisk.Hosts[0].Score)
	return nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func loadTrace(path string) (*fot.Trace, error) {
	if strings.HasSuffix(path, ".fotseg") {
		// A columnar archive segment: validated (footer + per-block CRCs)
		// and decoded without replay.
		tickets, _, err := segment.Read(path)
		if err != nil {
			return nil, err
		}
		return fot.NewTrace(tickets), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		return fot.ReadJSONL(f)
	}
	return fot.ReadCSV(f)
}
