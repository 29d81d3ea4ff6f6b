// Package serve is the live analytics service behind cmd/fotqueryd: it
// tails a ticket source (an fmsd archive directory, a collector
// subscription, or a frozen trace) and keeps the paper's full statistics
// warm and queryable over HTTP while tickets stream in.
//
// Three pieces:
//
//   - State: an epoch-based copy-on-append snapshot model over
//     fot.TraceIndex — one ingest goroutine folds ticket batches into
//     the next epoch; readers always see an immutable, self-consistent
//     index (every section of one response is computed from the same
//     ticket prefix).
//   - A per-epoch result cache keyed by section id: repeated queries for
//     Tables I–VIII / Figs. 2–11 / hypotheses / trend are served from
//     memory; an epoch advance abandons the cache wholesale, and stale
//     sections are recomputed in parallel through core.Runner over
//     report.StandardSections.
//   - An HTTP (JSON + text) API: /report, /report/{section},
//     /hosts/{id}, /alerts, /healthz and /stats, with per-request
//     timeouts, bounded concurrency and graceful drain.
package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fot"
	"dcfail/internal/mine"
	"dcfail/internal/predict"
)

// Options configures a Daemon. The zero value of every field has a
// usable default except Census, which the report sections need.
type Options struct {
	// Census is the asset view the population-normalized sections
	// (Fig. 6, Table IV, Fig. 8, verdicts) join against.
	Census *core.Census
	// Workers caps the goroutines one fold or one render fans out to:
	// the incremental engine's fact and section folds, and the renders
	// of a request's missing sections; <= 0 means one per CPU.
	Workers int
	// FoldInterval is how often buffered tickets are folded into a new
	// epoch (default 200ms). Folding is cheap; the interval exists so a
	// steady trickle of tickets does not invalidate the section cache
	// on every single ticket.
	FoldInterval time.Duration
	// FoldBatch folds early once this many tickets are pending
	// (default 8192).
	FoldBatch int
	// MaxConcurrent bounds in-flight HTTP requests (default 64).
	MaxConcurrent int
	// RequestTimeout bounds one request end to end (default 30s).
	RequestTimeout time.Duration
	// AlertWindow / AlertThreshold tune the streaming batch detector
	// feeding /alerts (defaults: mine.NewBatchDetector's 3h / 20).
	AlertWindow    time.Duration
	AlertThreshold int
	// SourceDrops, when set, is surfaced in /stats as the ingest
	// source's drop counter (e.g. fmsnet.TicketSub.Dropped). The daemon
	// tracks a high-water mark over the probe, so the exported counter is
	// monotonic even if the source is swapped or reset underneath it.
	SourceDrops func() uint64
	// DegradedAfter is the source-lag threshold for /healthz: when the
	// oldest pending (unfolded) ticket — or, with a lag probe installed,
	// the replication stream — has been waiting longer than this, the
	// endpoint reports status "degraded" with 503 so a router can fail
	// over. 0 disables lag-based degradation (always "ok" while the
	// ingest loop is healthy).
	DegradedAfter time.Duration
	// Now supplies fold timestamps and /stats lag measurements (nil
	// means time.Now), mirroring fmsnet.CollectorOptions.Now: inject a
	// fake clock to make fold timing and ingest lag deterministic in
	// tests.
	Now func() time.Time
	// Predict, when set, configures the streaming risk-scoring engine
	// behind /predict/{host} and /atrisk (nil keeps predict.Options
	// defaults: 240h window, logistic scorer).
	Predict *predict.Options
}

// maxAlerts caps the /alerts ring buffer.
const maxAlerts = 256

// Daemon is the live query service: ingest loop + HTTP handlers around
// one State.
type Daemon struct {
	opts  Options
	state *State
	now   func() time.Time

	detMu    sync.Mutex
	detector *mine.BatchDetector
	alerts   []mine.BatchAlert
	alertN   uint64 // lifetime count (ring may have evicted)

	pending   atomic.Int64
	ingested  atomic.Uint64
	drained   atomic.Bool
	ingestErr atomic.Pointer[string]
	dropsHW   atomic.Uint64 // high-water mark over Options.SourceDrops
	lagProbe  atomic.Pointer[func() time.Duration]

	ingestCancel context.CancelFunc
	ingestDone   chan struct{}

	sem     chan struct{}
	handler http.Handler
	srv     *http.Server
}

// New builds a daemon over an empty epoch-0 state. Start ingestion with
// StartIngest, then serve HTTP via Serve/ListenAndServe or wire
// Handler() into a server of your own.
func New(opts Options) *Daemon {
	if opts.FoldInterval <= 0 {
		opts.FoldInterval = 200 * time.Millisecond
	}
	if opts.FoldBatch <= 0 {
		opts.FoldBatch = 8192
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 64
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	d := &Daemon{
		opts:     opts,
		state:    NewState(opts.Census, opts.Workers),
		now:      opts.Now,
		detector: mine.NewBatchDetector(opts.AlertWindow, opts.AlertThreshold),
		sem:      make(chan struct{}, opts.MaxConcurrent),
	}
	if d.now == nil {
		//lint:ignore walltime injection-point default; Options.Now overrides the clock for deterministic fold timing
		d.now = time.Now
	}
	if opts.Predict != nil {
		d.state.SetPredictor(*opts.Predict)
	}
	d.handler = d.buildHandler()
	return d
}

// State exposes the underlying snapshot state (tests, embedders).
func (d *Daemon) State() *State { return d.state }

// SetLagProbe overrides the /healthz lag measurement with an external
// source — a replica daemon installs its syncer's replication lag here,
// so "behind the primary" degrades health exactly like "behind the
// ingest queue" does on a primary. Safe to call after New, before or
// while serving.
func (d *Daemon) SetLagProbe(probe func() time.Duration) {
	d.lagProbe.Store(&probe)
}

// lag reports how far behind the daemon's published state is: the
// installed lag probe if any, else how long the oldest pending (unfolded)
// ticket has been waiting.
func (d *Daemon) lag() time.Duration {
	if p := d.lagProbe.Load(); p != nil {
		return (*p)()
	}
	snap := d.state.Current()
	if d.pending.Load() > 0 && !snap.FoldedAt().IsZero() {
		return d.now().Sub(snap.FoldedAt())
	}
	return 0
}

// sourceDrops returns the monotonic high-water mark over the configured
// drop probe. A probe that goes backwards (source swap, reset) can never
// make the exported counter regress.
func (d *Daemon) sourceDrops() uint64 {
	if d.opts.SourceDrops == nil {
		return d.dropsHW.Load()
	}
	v := d.opts.SourceDrops()
	for {
		cur := d.dropsHW.Load()
		if v <= cur {
			return cur
		}
		if d.dropsHW.CompareAndSwap(cur, v) {
			return v
		}
	}
}

// Drained reports whether a finite ingest source has been fully folded.
func (d *Daemon) Drained() bool { return d.drained.Load() }

// StartIngest launches the ingest goroutine: it pulls batches from src,
// feeds the streaming batch detector, and folds pending tickets into a
// new epoch every FoldInterval (or sooner at FoldBatch). Call once;
// Shutdown stops it.
func (d *Daemon) StartIngest(src TicketSource) {
	ctx, cancel := context.WithCancel(context.Background())
	d.ingestCancel = cancel
	d.ingestDone = make(chan struct{})
	go d.ingest(ctx, src)
}

// pollResult is one pump delivery: a batch and/or a terminal error.
type pollResult struct {
	batch []fot.Ticket
	err   error
}

func (d *Daemon) ingest(ctx context.Context, src TicketSource) {
	defer close(d.ingestDone)

	// The pump turns the blocking Poll into a channel the fold loop can
	// select against alongside its ticker.
	pump := make(chan pollResult)
	go func() {
		defer close(pump)
		for {
			batch, err := src.Poll(ctx)
			select {
			case pump <- pollResult{batch: batch, err: err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()

	var pending []fot.Ticket
	fold := func() {
		if len(pending) == 0 {
			return
		}
		d.state.Fold(pending, d.now())
		d.ingested.Add(uint64(len(pending)))
		pending = nil
		d.pending.Store(0)
	}
	observe := func(batch []fot.Ticket) {
		d.detMu.Lock()
		defer d.detMu.Unlock()
		for _, t := range batch {
			if a := d.detector.Observe(t); a != nil {
				d.alertN++
				d.alerts = append(d.alerts, *a)
				if len(d.alerts) > maxAlerts {
					d.alerts = d.alerts[len(d.alerts)-maxAlerts:]
				}
			}
		}
	}

	ticker := time.NewTicker(d.opts.FoldInterval)
	defer ticker.Stop()
	for {
		select {
		case res, ok := <-pump:
			if !ok {
				fold()
				return
			}
			if len(res.batch) > 0 {
				observe(res.batch)
				pending = append(pending, res.batch...)
				d.pending.Store(int64(len(pending)))
			}
			if res.err != nil {
				fold()
				switch {
				case errors.Is(res.err, io.EOF):
					d.drained.Store(true)
				case errors.Is(res.err, context.Canceled):
					// Shutdown path, not a source failure.
				default:
					msg := res.err.Error()
					d.ingestErr.Store(&msg)
				}
				return
			}
			if len(pending) >= d.opts.FoldBatch {
				fold()
			}
		case <-ticker.C:
			fold()
		case <-ctx.Done():
			fold()
			return
		}
	}
}

// Alerts returns the recent batch alerts (newest last) and the lifetime
// alert count.
func (d *Daemon) Alerts() ([]mine.BatchAlert, uint64) {
	d.detMu.Lock()
	defer d.detMu.Unlock()
	out := make([]mine.BatchAlert, len(d.alerts))
	copy(out, d.alerts)
	return out, d.alertN
}

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (d *Daemon) Serve(ln net.Listener) error {
	d.srv = &http.Server{
		Handler:           d.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return d.srv.Serve(ln)
}

// ListenAndServe binds addr and serves until Shutdown.
func (d *Daemon) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.Serve(ln)
}

// Shutdown stops ingestion (folding whatever is pending), then drains
// the HTTP server gracefully: in-flight requests finish, new ones are
// refused.
func (d *Daemon) Shutdown(ctx context.Context) error {
	if d.ingestCancel != nil {
		d.ingestCancel()
		select {
		case <-d.ingestDone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if d.srv != nil {
		return d.srv.Shutdown(ctx)
	}
	return nil
}
