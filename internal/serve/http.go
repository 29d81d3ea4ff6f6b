package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/predict"
)

// Handler returns the daemon's HTTP handler: the API mux wrapped in the
// bounded-concurrency gate and the per-request timeout. Useful for
// embedding the daemon in an existing server or an httptest.Server.
func (d *Daemon) Handler() http.Handler { return d.handler }

func (d *Daemon) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", d.handleStats)
	mux.HandleFunc("GET /report", d.handleReport)
	mux.HandleFunc("GET /report/{section}", d.handleSection)
	mux.HandleFunc("GET /hosts/{id}", d.handleHost)
	mux.HandleFunc("GET /alerts", d.handleAlerts)
	mux.HandleFunc("GET /predict/{host}", d.handlePredict)
	mux.HandleFunc("GET /atrisk", d.handleAtRisk)
	limited := d.limitConcurrency(mux)
	// /healthz deliberately bypasses the concurrency gate: a health probe
	// must report whether the process is alive and fresh, not whether the
	// query queue happens to be deep. A probe that queues behind slow
	// reports makes a saturated-but-healthy replica look dead, and a
	// router that believes it amplifies the very stampede that caused the
	// queue (observed in the chaos harness before this split).
	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", d.handleHealthz)
	outer.Handle("/", limited)
	return http.TimeoutHandler(outer, d.opts.RequestTimeout, "request timed out\n")
}

// limitConcurrency admits at most MaxConcurrent requests at once;
// excess requests wait for a slot until the client gives up.
func (d *Daemon) limitConcurrency(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case d.sem <- struct{}{}:
			defer func() { <-d.sem }()
			next.ServeHTTP(w, r)
		case <-r.Context().Done():
			http.Error(w, "server saturated", http.StatusServiceUnavailable)
		}
	})
}

// HealthReply is the /healthz JSON body. Status is "ok" (HTTP 200) or
// "degraded" (HTTP 503 with Reason set): the source lag exceeded
// Options.DegradedAfter or the ingest loop died — the failover signal
// cmd/fotrouter keys on. Epoch rides along so one probe tells a router
// both "is it healthy" and "how fresh is it".
type HealthReply struct {
	Status  string `json:"status"`
	Epoch   uint64 `json:"epoch"`
	Tickets int    `json:"tickets"`
	LagMS   int64  `json:"lag_ms"`
	Reason  string `json:"reason,omitempty"`
}

// HealthOK and HealthDegraded are the HealthReply.Status values.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := d.state.Current()
	lag := d.lag()
	reply := HealthReply{
		Status:  HealthOK,
		Epoch:   snap.Epoch(),
		Tickets: snap.Tickets(),
		LagMS:   lag.Milliseconds(),
	}
	if msg := d.ingestErr.Load(); msg != nil {
		reply.Status = HealthDegraded
		reply.Reason = "ingest failed: " + *msg
	} else if limit := d.opts.DegradedAfter; limit > 0 && lag > limit {
		reply.Status = HealthDegraded
		reply.Reason = fmt.Sprintf("source lag %dms exceeds %dms", reply.LagMS, limit.Milliseconds())
	}
	if reply.Status != HealthOK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, reply)
}

// StatsReply is the /stats JSON body.
type StatsReply struct {
	Epoch    uint64 `json:"epoch"`
	Tickets  int    `json:"tickets"`
	Ingested uint64 `json:"ingested"`
	Pending  int64  `json:"pending"`
	Drained  bool   `json:"drained"`
	// LastFold is when the current epoch was published (zero before the
	// first fold); IngestLagMS is how long the oldest pending (not yet
	// folded) state has been waiting — 0 when nothing is pending.
	LastFold    time.Time `json:"last_fold"`
	IngestLagMS int64     `json:"ingest_lag_ms"`
	CacheHits   uint64    `json:"cache_hits"`
	CacheMisses uint64    `json:"cache_misses"`
	// CacheWaits counts readers that piggybacked on another request's
	// in-flight render — neither a hit (they blocked) nor a miss (the
	// renderer already counted the compute).
	CacheWaits uint64  `json:"cache_waits"`
	CacheRate  float64 `json:"cache_hit_rate"`
	// Incremental render accounting: per-section counts of cache misses
	// served from carried fold state vs the full recompute, plus engine
	// health (fold epoch, rebuilds after out-of-order ingest, sections
	// permanently on the full path).
	IncSections map[string]SectionRenderStats `json:"incremental_sections"`
	IncEpoch    uint64                        `json:"incremental_epoch"`
	IncRebuilds uint64                        `json:"incremental_rebuilds"`
	IncBroken   []string                      `json:"incremental_broken,omitempty"`
	Alerts      uint64                        `json:"alerts"`
	SourceDrops uint64                        `json:"source_drops"`
	IngestError string                        `json:"ingest_error,omitempty"`
	// Predict is the streaming risk-scoring engine's health: hosts
	// tracked, scores served, cumulative fold cost, rebuilds.
	Predict predict.EngineStats `json:"predict"`
}

func (d *Daemon) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := d.state.Current()
	hits, misses, cacheWaits := d.state.CacheStats()
	secStats, engineStats := d.state.IncrementalStats()
	_, alertN := d.Alerts()
	reply := StatsReply{
		Epoch:       snap.Epoch(),
		Tickets:     snap.Tickets(),
		Ingested:    d.ingested.Load(),
		Pending:     d.pending.Load(),
		Drained:     d.drained.Load(),
		LastFold:    snap.FoldedAt(),
		CacheHits:   hits,
		CacheMisses: misses,
		CacheWaits:  cacheWaits,
		IncSections: secStats,
		IncEpoch:    engineStats.Epoch,
		IncRebuilds: engineStats.Rebuilds,
		IncBroken:   engineStats.Broken,
		Alerts:      alertN,
		Predict:     d.state.Predictor().Stats(),
	}
	if total := hits + misses; total > 0 {
		reply.CacheRate = float64(hits) / float64(total)
	}
	if reply.Pending > 0 && !snap.FoldedAt().IsZero() {
		reply.IngestLagMS = d.now().Sub(snap.FoldedAt()).Milliseconds()
	}
	reply.SourceDrops = d.sourceDrops()
	if msg := d.ingestErr.Load(); msg != nil {
		reply.IngestError = *msg
	}
	writeJSON(w, reply)
}

// handleReport serves the full paper report, or a comma-separated subset
// via ?sections=table1,fig5. The body is byte-identical to what
// report.SerialReference prints for the same tickets: every section is
// rendered from the single snapshot grabbed at entry, so a response
// during active ingestion is still one self-consistent epoch (headers
// X-Epoch and X-Tickets say which, on errors as well).
func (d *Daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	ids := d.state.SectionIDs()
	if raw := r.URL.Query().Get("sections"); raw != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(raw, ",") {
			if id = strings.TrimSpace(id); id != "" {
				want[strings.ToLower(id)] = true
			}
		}
		var sel []string
		for _, id := range ids {
			if want[id] {
				sel = append(sel, id)
				delete(want, id)
			}
		}
		if len(want) > 0 {
			// Name the leftovers deterministically: map order must not
			// pick which unknown section the client hears about.
			unknown := make([]string, 0, len(want))
			for id := range want {
				unknown = append(unknown, id)
			}
			sort.Strings(unknown)
			http.Error(w, fmt.Sprintf("unknown section %q", unknown[0]), http.StatusBadRequest)
			return
		}
		ids = sel
	}
	snap := d.state.Current()
	// Errors carry the snapshot headers too: a failed report is still the
	// answer for one definite ticket prefix.
	writeSnapshotHeaders(w, snap)
	results, err := d.state.RenderSections(snap, ids)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	bundle := &core.ReportBundle{Sections: results}
	if err := bundle.Err(); err != nil {
		// No partial reports over the wire: one-line error instead.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	bundle.WriteTo(w)
}

// handleSection serves one section's body alone (no trailing separator).
func (d *Daemon) handleSection(w http.ResponseWriter, r *http.Request) {
	id := strings.ToLower(r.PathValue("section"))
	snap := d.state.Current()
	results, err := d.state.RenderSections(snap, []string{id})
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if results[0].Err != nil {
		http.Error(w, fmt.Sprintf("%s: %v", id, results[0].Err), http.StatusInternalServerError)
		return
	}
	writeSnapshotHeaders(w, snap)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(results[0].Text)
}

// HostTicket is the JSON view of one ticket in a /hosts reply.
type HostTicket struct {
	ID       uint64    `json:"id"`
	Device   string    `json:"error_device"`
	Slot     string    `json:"error_slot,omitempty"`
	Type     string    `json:"error_type"`
	Time     time.Time `json:"error_time"`
	Category string    `json:"category"`
	Action   string    `json:"action"`
}

// HostReply is the /hosts/{id} JSON body: the server's ticket history
// plus the §VII-B context of its most recent ticket — what the paper
// says operators need so each FOT stops being handled in isolation.
type HostReply struct {
	HostID  uint64       `json:"host_id"`
	Epoch   uint64       `json:"epoch"`
	Tickets []HostTicket `json:"tickets"`
	// Context of the newest ticket.
	SlotRepeats    int      `json:"slot_repeats"`
	ChronicSuspect bool     `json:"chronic_suspect"`
	BatchPeers     int      `json:"batch_peers"`
	BatchSuspect   bool     `json:"batch_suspect"`
	TwinHosts      []uint64 `json:"twin_hosts,omitempty"`
}

func (d *Daemon) handleHost(w http.ResponseWriter, r *http.Request) {
	host, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad host id", http.StatusBadRequest)
		return
	}
	snap := d.state.Current()
	mix, err := snap.MineIndex()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	tickets := mix.HostTickets(host)
	if len(tickets) == 0 {
		http.Error(w, fmt.Sprintf("host %d has no tickets", host), http.StatusNotFound)
		return
	}
	reply := HostReply{HostID: host, Epoch: snap.Epoch()}
	for _, t := range tickets {
		reply.Tickets = append(reply.Tickets, HostTicket{
			ID:       t.ID,
			Device:   t.Device.String(),
			Slot:     t.Slot,
			Type:     t.Type,
			Time:     t.Time,
			Category: t.Category.String(),
			Action:   t.Action.String(),
		})
	}
	if ctx, err := mix.Contextualize(tickets[len(tickets)-1].ID); err == nil {
		reply.SlotRepeats = ctx.SlotRepeats
		reply.ChronicSuspect = ctx.IsChronicSuspect()
		reply.BatchPeers = ctx.BatchPeers
		reply.BatchSuspect = ctx.IsBatchSuspect()
		reply.TwinHosts = ctx.TwinHosts
	}
	writeSnapshotHeaders(w, snap)
	writeJSON(w, reply)
}

// AlertReply is one /alerts entry.
type AlertReply struct {
	Device  string        `json:"error_device"`
	Type    string        `json:"error_type"`
	At      time.Time     `json:"at"`
	Window  time.Duration `json:"window_ns"`
	Servers int           `json:"servers"`
}

func (d *Daemon) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	alerts, total := d.Alerts()
	reply := struct {
		Total  uint64       `json:"total"`
		Recent []AlertReply `json:"recent"`
	}{Total: total, Recent: []AlertReply{}}
	for _, a := range alerts {
		reply.Recent = append(reply.Recent, AlertReply{
			Device:  a.Device.String(),
			Type:    a.Type,
			At:      a.At,
			Window:  a.WindowLen,
			Servers: a.Count,
		})
	}
	writeJSON(w, reply)
}

// PredictReply is the /predict/{host} JSON body: the risk score, the
// feature breakdown it was computed from, and the model version. Epoch
// identifies the fold the score came from (also the X-Epoch header) —
// all scoring time is fold-time, so any replica serving the same epoch
// returns the same body.
type PredictReply struct {
	Host        uint64               `json:"host"`
	Epoch       uint64               `json:"epoch"`
	Score       float64              `json:"score"`
	Model       string               `json:"model"`
	WindowHours float64              `json:"window_hours"`
	Features    predict.HostFeatures `json:"features"`
}

func (d *Daemon) handlePredict(w http.ResponseWriter, r *http.Request) {
	host, err := strconv.ParseUint(r.PathValue("host"), 10, 64)
	if err != nil {
		http.Error(w, "bad host id", http.StatusBadRequest)
		return
	}
	pred := d.state.Predictor()
	sc, epoch, ok := pred.ScoreHost(host)
	if !ok {
		http.Error(w, fmt.Sprintf("host %d has no predictor-eligible tickets", host), http.StatusNotFound)
		return
	}
	w.Header().Set("X-Epoch", strconv.FormatUint(epoch, 10))
	writeJSON(w, PredictReply{
		Host:        host,
		Epoch:       epoch,
		Score:       sc.Score,
		Model:       pred.Model(),
		WindowHours: pred.Window().Hours(),
		Features:    sc.Features,
	})
}

// AtRiskReply is the /atrisk JSON body: the n highest-risk hosts at the
// reply's epoch, ordered score-descending with ascending host id as the
// deterministic tie-break.
type AtRiskReply struct {
	Epoch uint64              `json:"epoch"`
	Model string              `json:"model"`
	Hosts []predict.HostScore `json:"hosts"`
}

func (d *Daemon) handleAtRisk(w http.ResponseWriter, r *http.Request) {
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if v > 10000 {
			v = 10000
		}
		n = v
	}
	pred := d.state.Predictor()
	ranked, epoch := pred.AtRisk(n)
	if ranked == nil {
		ranked = []predict.HostScore{}
	}
	w.Header().Set("X-Epoch", strconv.FormatUint(epoch, 10))
	writeJSON(w, AtRiskReply{Epoch: epoch, Model: pred.Model(), Hosts: ranked})
}

func writeSnapshotHeaders(w http.ResponseWriter, snap *Snapshot) {
	w.Header().Set("X-Epoch", strconv.FormatUint(snap.Epoch(), 10))
	w.Header().Set("X-Tickets", strconv.Itoa(snap.Tickets()))
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
