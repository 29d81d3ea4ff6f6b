package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fmsnet"
	"dcfail/internal/fot"
	"dcfail/internal/predict"
	"dcfail/internal/report"
	"dcfail/internal/serve"
	"dcfail/internal/wal"
	"dcfail/internal/wire"
)

// counters is the tier's lifetime counters at the start of the measured
// phase, so per-layer ratios cover the workload alone.
type counters struct {
	hits, misses          uint64
	incremental, fallback uint64
	hedges, failovers     uint64
	shed                  uint64
}

func snapshotCounters(tr *tier) counters {
	var c counters
	for _, d := range tr.reps {
		h, m, _ := d.State().CacheStats()
		c.hits += h
		c.misses += m
		secs, _ := d.State().IncrementalStats()
		for _, s := range secs {
			c.incremental += s.Incremental
			c.fallback += s.Fallback
		}
	}
	st := tr.rt.Status()
	c.hedges, c.failovers, c.shed = st.Hedges, st.Failovers, st.Shed
	return c
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Staged-replay caps: enough samples for a stable p99, bounded run time.
const (
	stagedRoundTrips = 20000
	stagedWALRecords = 4000
	stagedHandlerOps = 100 // per query kind; /atrisk scores every host, so it gets a fifth
	stagedHopOps     = 300
)

// layerMetrics computes the per-layer metrics: counters and timestamps
// from the traced run itself, then a serial staged replay that pushes the
// run's own inputs through each layer's public functions on the fold
// cuts the primary published during the run.
func layerMetrics(e *env, m *measured, setups []setupTiming, out map[string]float64) error {
	tc := e.tr
	tr := e.tier
	after := snapshotCounters(tr)

	// Generator and runtime.
	var tl, ql dist
	for _, s := range m.agents {
		for _, r := range s.recs {
			tl.addDur(r.late(), time.Millisecond)
		}
	}
	for _, s := range m.queries {
		for _, r := range s.recs {
			ql.addDur(r.late(), time.Millisecond)
		}
	}
	out["loadgen.ticket_late_p99_ms"] = tl.p(99)
	out["loadgen.query_late_p99_ms"] = ql.p(99)
	// The tracer's share of the generator's time: one record call's cost
	// times the spans recorded, over the connections' wall time. It is
	// estimated, not read from the traced run's end-to-end numbers
	// against untraced runs: a run does not see other runs, and their
	// run-to-run spread is far larger than the tracer's cost.
	conns := len(m.agents) + len(m.queries)
	out["loadgen.trace_overhead_frac"] = float64(recordCost()) * float64(tc.count("loadgen.")) /
		(float64(m.end.Sub(m.start)) * float64(conns))
	out["runtime.gc_cycles"] = float64(m.gcCycles)
	out["runtime.gc_pause_ms"] = float64(m.gcPause) / 1e6

	// Live counters.
	out["fmsnet.sub_dropped"] = float64(tr.sub.Dropped())
	dups := 0
	var sent []int
	for _, s := range m.agents {
		for j, a := range s.acks {
			if a.dup {
				dups++
			}
			if a.err == nil {
				sent = append(sent, s.idx[j])
			}
		}
	}
	slices.Sort(sent)
	out["fmsnet.dup_acks"] = float64(dups)
	var polls, catchups []float64
	for _, st := range setups {
		polls = append(polls, float64(st.poll)/1e6)
		catchups = append(catchups, st.catchup.Seconds())
	}
	out["archive.cold_poll_ms"] = median(polls)
	out["replica.catchup_s"] = median(catchups)
	segs, bytes, err := dirStats(e.in.archive, ".fotseg")
	if err != nil {
		return err
	}
	out["archive.segments"] = float64(segs)
	out["archive.bytes_per_ticket"] = float64(bytes) / float64(e.in.hist)

	var pub, lag dist
	for _, s := range m.agents {
		for j, a := range s.acks {
			if a.err != nil || a.dup {
				continue
			}
			p, ok := e.vis[0].visibleAt(a.id)
			if !ok {
				continue
			}
			pub.addDur(nonNeg(p.Sub(s.recs[j].end)), time.Millisecond)
			for _, v := range e.vis[1:] {
				if r, ok := v.visibleAt(a.id); ok {
					lag.addDur(nonNeg(r.Sub(p)), time.Millisecond)
				}
			}
		}
	}
	out["serve.publish_lag_p50_ms"] = pub.p(50)
	out["serve.publish_lag_p99_ms"] = pub.p(99)
	out["replica.lag_p50_ms"] = lag.p(50)
	out["replica.lag_p99_ms"] = lag.p(99)
	out["serve.cache_hit_frac"] = frac(after.hits-e.before.hits,
		after.hits-e.before.hits+after.misses-e.before.misses)
	out["serve.render_fallback_frac"] = frac(after.fallback-e.before.fallback,
		after.fallback-e.before.fallback+after.incremental-e.before.incremental)
	var rdups, crcs, reconnects uint64
	for _, s := range tr.syncers {
		st := s.Stats()
		rdups += st.Dups
		crcs += st.CRCFailures
		reconnects += st.Reconnects
	}
	out["replica.dups"] = float64(rdups)
	out["replica.crc_failures"] = float64(crcs)
	out["replica.reconnects"] = float64(reconnects)
	out["router.hedges"] = float64(after.hedges - e.before.hedges)
	out["router.failovers"] = float64(after.failovers - e.before.failovers)
	out["router.shed"] = float64(after.shed - e.before.shed)

	// Staged replay. The handler and router stages need the live tier at
	// its final epoch; everything after runs on fresh instances.
	replayStart := time.Now()
	root := tc.newID()
	rows, err := tr.prim.State().Rows(0, tr.prim.State().Current().Tickets())
	if err != nil {
		return err
	}
	cuts := e.vis[0].cuts(e.in.hist)
	s := &stager{tc: tc, root: root, out: out, census: e.in.census}
	g := e.queryGen(hotMix)
	s.handlers(tr, g)
	s.routerHop(tr, g)
	tr.close()
	freeMemory()

	reports := make([]fmsnet.Report, len(sent))
	for i, k := range sent {
		reports[i] = e.in.reports[k]
	}
	s.wire(reports)
	if err := s.roundTrips(reports); err != nil {
		return err
	}
	walPayloads, err := s.collectorWAL(tr.walDir, len(m.acked))
	if err != nil {
		return err
	}
	if err := s.wal(walPayloads, filepath.Join(e.work, "staged-wal")); err != nil {
		return err
	}
	if err := s.folds(rows, e.in.hist, cuts, g); err != nil {
		return err
	}
	tc.recordID(root, "staged", 0, replayStart, time.Now())
	out["loadgen.serial_replay_s"] = time.Since(replayStart).Seconds()
	return nil
}

func nonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// cuts returns the row counts of every epoch v saw published after the
// history, ascending: the fold schedule of the run.
func (v *visibility) cuts(hist int) []int {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []int
	for _, n := range v.epochs {
		if n > hist {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func dirStats(dir, ext string) (files int, bytes int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, 0, err
		}
		bytes += info.Size()
		if strings.HasSuffix(ent.Name(), ext) {
			files++
		}
	}
	return files, bytes, nil
}

// stager runs the serial staged replay, one layer at a time, recording a
// span per call under the replay's root span.
type stager struct {
	tc     *tracer
	root   int64
	out    map[string]float64
	census *core.Census
}

// timed runs f and records it as a span.
func (s *stager) timed(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	s.tc.record(name, s.root, t0, t1)
	return t1.Sub(t0)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// handlers times each query kind on a replica's handler directly, warm:
// every path is served once before the timed pass.
func (s *stager) handlers(tr *tier, g *queryGen) {
	h := tr.reps[0].Handler()
	for _, kind := range handlerKinds {
		n := stagedHandlerOps
		if kind == "atrisk" {
			n /= 5
		}
		qs := g.takeKind(kind, n)
		for _, q := range qs {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", q.path, nil))
		}
		var d dist
		for _, q := range qs {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("GET", q.path, nil)
			d.addDur(s.timed("serve.handler."+kind, func() { h.ServeHTTP(rec, req) }), time.Microsecond)
		}
		s.out["serve.handler_p50_us."+kind] = d.p(50)
	}
}

// routerHop serves one request list through the router's handler and
// directly through the replica handler it forwards to; the difference is
// the router's own cost. The list leaves out /atrisk, whose tens of
// milliseconds of scoring would drown a hop of tens of microseconds.
func (s *stager) routerHop(tr *tier, g *queryGen) {
	var qs []query
	for _, q := range g.take(2 * stagedHopOps) {
		if q.kind != "atrisk" && len(qs) < stagedHopOps {
			qs = append(qs, q)
		}
	}
	rh := tr.rt.Handler()
	direct := tr.reps[0].Handler()
	for _, q := range qs {
		rh.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", q.path, nil))
	}
	var viaRouter, viaReplica dist
	for _, q := range qs {
		req := httptest.NewRequest("GET", q.path, nil)
		viaRouter.addDur(s.timed("router.route", func() { rh.ServeHTTP(httptest.NewRecorder(), req) }), time.Microsecond)
		req = httptest.NewRequest("GET", q.path, nil)
		viaReplica.addDur(s.timed("serve.direct", func() { direct.ServeHTTP(httptest.NewRecorder(), req) }), time.Microsecond)
	}
	s.out["router.hop_p50_us"] = viaRouter.p(50) - viaReplica.p(50)
	s.out["router.hop_p99_us"] = viaRouter.p(99) - viaReplica.p(99)
}

// wire encodes every report the run sent as one agent stream would, then
// decodes the stream.
func (s *stager) wire(reports []fmsnet.Report) {
	enc := wire.NewEncoder()
	wreps := make([]wire.Report, len(reports))
	for i, r := range reports {
		wreps[i] = wire.Report{Seq: uint64(i + 1), InWarranty: r.InWarranty, HostID: r.HostID,
			Hostname: r.Hostname, IDC: r.IDC, Rack: r.Rack, Position: r.Position, Device: r.Device,
			Slot: r.Slot, Type: r.Type, Time: r.Time, Detail: r.Detail, ProductLine: r.ProductLine,
			DeployTime: r.DeployTime, Model: r.Model}
	}
	frames := make([][]byte, len(reports))
	var total int
	encTime := s.timed("wire.encode", func() {
		var buf []byte
		for i := range wreps {
			buf = enc.AppendReport(buf[:0], &wreps[i])
			frames[i] = append([]byte(nil), buf...)
			total += len(buf)
		}
	})
	dec := wire.NewDecoder()
	var r wire.Report
	decTime := s.timed("wire.decode", func() {
		for _, f := range frames {
			_, payload, _, err := wire.DecodeFrame(f)
			if err == nil {
				err = dec.DecodeReportInto(payload, &r)
			}
			if err != nil {
				panic(fmt.Sprintf("staged decode of a frame this process encoded: %v", err))
			}
		}
	})
	n := float64(max(len(frames), 1))
	s.out["wire.encode_ns_per_ticket"] = float64(encTime) / n
	s.out["wire.decode_ns_per_ticket"] = float64(decTime) / n
	s.out["wire.bytes_per_ticket"] = float64(total) / n
}

// roundTrips sends the same reports to a collector without a WAL, one at
// a time on one binary connection.
func (s *stager) roundTrips(reports []fmsnet.Report) error {
	c, err := fmsnet.NewCollector("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer c.Close()
	cl, err := fmsnet.DialBinary(c.Addr(), "staged")
	if err != nil {
		return err
	}
	defer cl.Close()
	var d dist
	for i := range reports[:min(len(reports), stagedRoundTrips)] {
		var rerr error
		d.addDur(s.timed("fmsnet.roundtrip", func() {
			_, _, rerr = cl.ReportFrom(&reports[i], "staged", uint64(i+1))
		}), time.Microsecond)
		if rerr != nil {
			return rerr
		}
	}
	s.out["fmsnet.roundtrip_p50_us"] = d.p(50)
	s.out["fmsnet.roundtrip_p99_us"] = d.p(99)
	return nil
}

// collectorWAL reads back the records the run's collector logged before
// it acked, once the collector is closed, and sizes its log per acked
// ticket.
func (s *stager) collectorWAL(dir string, acked int) ([][]byte, error) {
	var out [][]byte
	if _, err := wal.Replay(dir, func(p []byte) error {
		out = append(out, bytes.Clone(p))
		return nil
	}); err != nil {
		return nil, err
	}
	_, size, err := dirStats(dir, "")
	if err != nil {
		return nil, err
	}
	s.out["wal.bytes_per_ticket"] = float64(size) / float64(max(acked, 1))
	return out, nil
}

// wal appends the collector's own log records to a fresh log from two
// appenders, as two agent connections share the collector's group commit.
func (s *stager) wal(frames [][]byte, dir string) error {
	frames = frames[:min(len(frames), stagedWALRecords)]
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	parts := strided(0, len(frames), 2)
	times := make([]dist, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for k, idx := range parts {
		wg.Add(1)
		go func(k int, idx []int) {
			defer wg.Done()
			for _, i := range idx {
				t0 := time.Now()
				if err := w.Append(frames[i]); err != nil {
					errs[k] = err
					return
				}
				t1 := time.Now()
				s.tc.record("wal.append", s.root, t0, t1)
				times[k].addDur(t1.Sub(t0), time.Microsecond)
			}
		}(k, idx)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var d dist
	for _, t := range times {
		d.vals = append(d.vals, t.vals...)
	}
	s.out["wal.append_p50_us"] = d.p(50)
	s.out["wal.append_p99_us"] = d.p(99)
	return os.RemoveAll(dir)
}

// folds replays the run's fold schedule through each fold layer on its
// own: index extension, the incremental section engine, the predictor,
// a serve.State folding as a primary and one folding as a replica.
func (s *stager) folds(rows []fot.Ticket, hist int, cuts []int, g *queryGen) error {
	// Index extension, engine advance and predictor advance, per cut.
	eng := core.NewIncrementalEngine(report.StandardIncrementalSections(s.census))
	pe := predict.NewEngine(predict.Options{})
	var ix *fot.TraceIndex
	step := func(n int, epoch uint64) (ext, adv, pred time.Duration, changed int) {
		prev := ix
		ext = s.timed("fot.extend", func() {
			ix = fot.ExtendTraceIndex(prev, fot.NewTrace(rows[:n:n]))
			ix.Cols()
		})
		adv = s.timed("core.advance", func() { changed = len(eng.Advance(ix, epoch)) })
		pred = s.timed("predict.advance", func() { pe.Advance(ix, epoch) })
		return
	}
	ext0, adv0, pred0, _ := step(hist, 1)
	s.out["fot.extend_bootstrap_ms"] = ms(ext0)
	s.out["core.advance_bootstrap_ms"] = ms(adv0)
	s.out["predict.advance_bootstrap_ms"] = ms(pred0)
	var extD, advD, predD, changedFrac dist
	parts := make([]time.Duration, len(cuts)) // extend + advance + predict per cut
	for i, n := range cuts {
		ext, adv, pred, changed := step(n, uint64(i+2))
		extD.addDur(ext, time.Millisecond)
		advD.addDur(adv, time.Millisecond)
		predD.addDur(pred, time.Millisecond)
		changedFrac.add(float64(changed) / float64(len(report.SectionIDs())))
		parts[i] = ext + adv + pred
	}
	s.out["fot.extend_p50_ms"] = extD.p(50)
	s.out["fot.extend_p99_ms"] = extD.p(99)
	s.out["core.advance_p50_ms"] = advD.p(50)
	s.out["core.changed_frac"] = changedFrac.mean()
	s.out["core.rebuilds"] = float64(eng.Stats().Rebuilds)
	s.out["predict.advance_p50_ms"] = predD.p(50)

	final := uint64(len(cuts) + 1)
	for _, id := range report.SectionIDs() {
		var buf bytes.Buffer
		var ok bool
		d := s.timed("core.render."+id, func() { ok, _ = eng.TryRender(id, final, ix, &buf) })
		if !ok {
			return fmt.Errorf("staged render of %s: engine cannot serve epoch %d", id, final)
		}
		s.out["core.render_ms."+id] = ms(d)
	}
	s.out["report.full_ms"] = ms(s.timed("report.full", func() { report.Full(io.Discard, ix, s.census, 0, nil) }))

	var score, atrisk dist
	for _, q := range g.takeKind("predict", 500) {
		var host uint64
		fmt.Sscanf(q.path, "/predict/%d", &host)
		score.addDur(s.timed("predict.score", func() { pe.ScoreHost(host) }), time.Microsecond)
	}
	for i := 0; i < stagedHandlerOps/5; i++ {
		atrisk.addDur(s.timed("predict.atrisk", func() { pe.AtRisk(20) }), time.Microsecond)
	}
	s.out["predict.score_p50_us"] = score.p(50)
	s.out["predict.atrisk_p50_us"] = atrisk.p(50)
	eng, pe, ix = nil, nil, nil
	freeMemory()

	// A primary's fold: the same cuts through serve.State.Fold.
	st := serve.NewState(s.census, 0)
	s.out["serve.fold_bootstrap_ms"] = ms(s.timed("serve.fold", func() { st.Fold(rows[:hist:hist], time.Now()) }))
	var foldD, selfD dist
	prev := hist
	for i, n := range cuts {
		d := s.timed("serve.fold", func() { st.Fold(rows[prev:n:n], time.Now()) })
		foldD.addDur(d, time.Millisecond)
		selfD.addDur(d-parts[i], time.Millisecond)
		prev = n
	}
	s.out["serve.fold_p50_ms"] = foldD.p(50)
	s.out["serve.fold_self_p50_ms"] = selfD.p(50)
	var mineErr error
	s.out["mine.index_ms"] = ms(s.timed("mine.index", func() { _, mineErr = st.Current().MineIndex() }))
	if mineErr != nil {
		return mineErr
	}
	st = nil
	freeMemory()

	// A replica's fold: the same cuts as epoch markers through FoldTo.
	rs := serve.NewState(s.census, 0)
	if _, err := rs.FoldTo(rows[:hist:hist], 1, time.Now()); err != nil {
		return err
	}
	var toD dist
	prev = hist
	for i, n := range cuts {
		var ferr error
		d := s.timed("replica.fold_to", func() { _, ferr = rs.FoldTo(rows[prev:n:n], uint64(i+2), time.Now()) })
		if ferr != nil {
			return ferr
		}
		toD.addDur(d, time.Millisecond)
		prev = n
	}
	s.out["replica.fold_to_p50_ms"] = toD.p(50)
	return nil
}
