// Command perfbench is the repository's end-to-end benchmark. It builds
// the paper-profile serving tier in process — a WAL-backed fmsnet
// collector feeding a serve primary, two replicas streaming from it, a
// router in front — cold-starts it from a columnar archive of the first
// 80% of a generated trace, drives one workload against it (a
// closed-loop agent replaying the rest, then open-loop queries), checks
// every answer against an oracle, and prints the metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload query-hot --seed 42 --seconds 10 --trace 0
//
// With --trace 1 the run also records spans around every generator call
// and replays the same inputs serially through each layer's public
// functions, and reports per-layer metrics instead of end-to-end ones.
// Run it from the repository root (it reads BENCHMARK.json there and
// works under .bench_build/); perfbench/run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dcfail/internal/report"
	"dcfail/internal/serve"
)

// defaultSeed is the input seed when --seed is not given.
const defaultSeed = 42

// setupTrials is how many times each run cold-starts the tier; set-up
// time is their median and the last tier serves the workload.
const setupTrials = 3

func main() {
	wl := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", defaultSeed, "input seed: trace generation, query and host draws")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := checkAgainstFile("BENCHMARK.json"); err != nil {
		fail(err)
	}
	w, ok := workloadByName(*wl)
	if !ok {
		fail(fmt.Errorf("unknown workload %q, want one of %v", *wl, workloadNames()))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	res, err := runBench(w, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fail(err)
	}
	specs := endToEnd()
	if *traceFlag == 1 {
		specs = perLayer()
	}
	out := result{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := res.metrics[m.Name]
		if !ok {
			fail(fmt.Errorf("metric %s was not measured", m.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail(fmt.Errorf("metric %s is %v", m.Name, v))
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-36s %14.4f %s\n", m.Name, v, m.Unit)
	}
	if *traceFlag == 0 {
		for _, name := range []string{"query_p90_ms", "query_p99_ms", "freshness_p99_ms", "ack_p50_ms", "ack_p99_ms"} {
			t := res.tails[name]
			fmt.Printf("%-36s %14.4f ms (not gated; %d samples, %d beyond)\n", name, t.Value, t.N, t.Beyond)
		}
	}
	fmt.Printf("%-36s %14.6f ratio (not gated; %d of %d operations failed)\n", "failed_frac",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchResult is one run's outcome before it is printed.
type benchResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	tails     map[string]pct
}

func runBench(w workload, seed int64, seconds int, traced bool) (*benchResult, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	t0 := time.Now()
	in, err := loadInput(seed, filepath.Join(root, ".bench_build", "inputs"))
	if err != nil {
		return nil, err
	}
	phase("input", t0)
	var setups []setupTiming
	var tr *tier
	for i := 0; i < setupTrials; i++ {
		freeMemory()
		t, st, err := startTier(in, filepath.Join(work, fmt.Sprintf("wal-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
		fmt.Fprintf(os.Stderr, "setup %d: %.3fs (poll %v, primary fold %v, catch-up %v, first report %v)\n",
			i, st.total.Seconds(), st.poll, st.primaryFold, st.catchup, st.firstReport)
		if i < setupTrials-1 {
			t.close()
			continue
		}
		tr = t
	}
	defer tr.close()

	var tc *tracer
	if traced {
		tc = newTracer()
	}
	e := &env{in: in, tier: tr, work: work, seconds: seconds, rng: rand.New(rand.NewSource(seed)), tr: tc}
	for _, st := range tr.states() {
		e.vis = append(e.vis, watchState(st, in.hist))
	}
	e.before = snapshotCounters(tr)
	t0 = time.Now()
	m, err := w.run(e)
	phase("workload", t0)
	for _, v := range e.vis {
		v.close()
	}
	if err != nil {
		return nil, err
	}
	res := &benchResult{metrics: map[string]float64{}}
	failures := m.scoreE2E(e, setups, res.metrics)
	res.attempted = m.attempted()
	res.tails = m.tails

	t0 = time.Now()
	ok, bad, err := m.check(e)
	if err != nil {
		return nil, err
	}
	phase("check", t0)
	res.correct = ok
	res.failed = failures + bad
	if traced {
		t0 = time.Now()
		if err := layerMetrics(e, m, setups, res.metrics); err != nil {
			return nil, err
		}
		phase("staged replay", t0)
		if err := tc.writeJSONL(filepath.Join(root, ".bench_build",
			fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func phase(name string, since time.Time) {
	fmt.Fprintf(os.Stderr, "%s: %.2fs\n", name, time.Since(since).Seconds())
}

// freeMemory returns the previous tier's memory before the next cold
// start, so every trial starts from the same heap.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// env is what a workload runs against.
type env struct {
	in      *input
	tier    *tier
	work    string // this run's scratch directory
	seconds int
	rng     *rand.Rand
	tr      *tracer
	vis     []*visibility // primary first, then the replicas
	before  counters
}

// workload is one traffic mix: one closed-loop agent replays part of the
// tail, then, once every acked ticket is visible on every replica and
// both replicas have cached every section, the report and the mining
// index of the new epoch, queries run against the quiet tier.
type workload struct {
	name      string
	tickets   int // reports replayed; 0 = the whole tail
	queries   func(seconds int) int
	queryRate float64 // queries/s over two open-loop connections
}

// The workloads. query-hot measures serving from warm caches (the router
// hop, the handlers, predict scoring) after a burst of 40000 tickets,
// about twenty folds long; ingest-burst measures the ack path and
// folding over the whole tail, then serving after the burst. Both replay
// in a closed loop, so ingest_tps is the tier's ack rate and
// burst_visible_s its time to absorb the burst. A shorter burst reads
// the disk's occasional slow fsyncs, and the fold ticker's phase at its
// first and last fold, more than the tier. One agent, not two: two
// interleave their tickets, so about every other fold starts before a
// row already folded and the section engine rebuilds from scratch, and
// run length then depends on how many rebuilds a run hits. Query rates keep each connection's interval above the common slow
// request (an /atrisk ranking), so a run measures service time and the
// queueing behind it, not a backlog.
func workloads() []workload {
	return []workload{
		{name: "query-hot", tickets: 40000,
			queries: func(seconds int) int { return seconds * 40 }, queryRate: 40},
		{name: "ingest-burst",
			queries: func(int) int { return 200 }, queryRate: 40},
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hotMix is the query mix of both workloads, as weights out of 100.
var hotMix = []mixEntry{{"predict", 30}, {"hosts", 20}, {"section", 25}, {"atrisk", 15}, {"report", 10}}

const startDelay = 20 * time.Millisecond

// measured is what one workload run produced.
type measured struct {
	queries     []*queryStream
	agents      []*agentStream
	ingestStart time.Time // first report sent
	start, end  time.Time // the measured phase
	heapMB      float64
	gcCycles    uint32
	gcPause     time.Duration
	acked       []uint64       // ticket ids acked as new
	tails       map[string]pct // ungated tails, printed for reading
}

func (e *env) queryGen(mix []mixEntry) *queryGen {
	pred := e.tier.prim.State().Predictor()
	var scored []hostWeight
	for _, h := range e.in.hosts {
		if _, _, ok := pred.ScoreHost(h.host); ok {
			scored = append(scored, h)
		}
	}
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	return &queryGen{rng: e.rng, mix: mix, total: total, predict: newHostPicker(scored),
		hosts: newHostPicker(e.in.hosts), sections: report.SectionIDs()}
}

func spacing(perSecond float64) time.Duration {
	return time.Duration(float64(time.Second) / perSecond)
}

// measureStart collects the garbage set-up left behind, so no run pays
// for it inside the measured phase, and records the runtime counters the
// phase is charged against.
func measureStart(m *measured) runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.start = time.Now()
	return ms
}

// measureEnd closes the measured phase: GC work since start, then a
// forced collection and the heap still in use.
func measureEnd(m *measured, before runtime.MemStats) {
	m.end = time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.gcCycles = ms.NumGC - before.NumGC
	m.gcPause = time.Duration(ms.PauseTotalNs - before.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapInuse) / (1 << 20)
}

// run drives workload w against the tier.
func (w workload) run(e *env) (*measured, error) {
	m := &measured{}
	qs := e.queryGen(hotMix).take(w.queries(e.seconds))
	n := len(e.in.reports)
	if w.tickets > 0 && w.tickets < n {
		n = w.tickets
	}
	before := measureStart(m)
	if err := m.ingest(e, strided(0, n, 1)); err != nil {
		return nil, err
	}
	for _, d := range e.tier.reps {
		if err := warm(d); err != nil {
			return nil, err
		}
	}
	// The warm-up's garbage is collected before the queries, not during
	// them: whether a collection lands inside the query phase otherwise
	// moves query_p50_ms from run to run.
	runtime.GC()
	m.queries = runQueries(e.tier.routerURL, time.Now().Add(startDelay), spacing(w.queryRate), 2, qs, e.tr)
	measureEnd(m, before)
	return m, nil
}

// warm fills a replica's caches for its current epoch: every section,
// and the mining index behind /hosts.
func warm(d *serve.Daemon) error {
	st := d.State()
	snap := st.Current()
	if _, err := st.RenderSections(snap, st.SectionIDs()); err != nil {
		return err
	}
	_, err := snap.MineIndex()
	return err
}

// ingest replays the reports in parts, one closed-loop agent connection
// each, and waits until every acked ticket is visible on every state of
// the tier.
func (m *measured) ingest(e *env, parts [][]int) error {
	streams, err := runAgents(e.tier.coll.Addr(), e.in, parts, e.tr)
	if err != nil {
		return err
	}
	m.agents = append(m.agents, streams...)
	for _, s := range streams {
		if len(s.recs) > 0 && (m.ingestStart.IsZero() || s.recs[0].start.Before(m.ingestStart)) {
			m.ingestStart = s.recs[0].start
		}
		for _, a := range s.acks {
			if a.err == nil && !a.dup {
				m.acked = append(m.acked, a.id)
			}
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, v := range e.vis {
		for !v.hasAll(m.acked) && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func (m *measured) attempted() int {
	n := 0
	for _, s := range m.queries {
		n += len(s.recs)
	}
	for _, s := range m.agents {
		n += len(s.recs)
	}
	return n
}

// missMS is the latency charged to a failed operation: the whole
// measured phase, longer than any successful one, so failures count as
// misses at every percentile.
func (m *measured) missMS() float64 {
	return float64(m.end.Sub(m.start)) / 1e6
}

// scoreE2E fills the end-to-end metrics and returns how many operations
// failed outright.
func (m *measured) scoreE2E(e *env, setups []setupTiming, out map[string]float64) int {
	failed := 0
	var qd, ad, fd dist
	for _, s := range m.queries {
		for _, r := range s.recs {
			if r.failed {
				failed++
				qd.add(m.missMS())
				continue
			}
			qd.addDur(r.latency(), time.Millisecond)
		}
	}
	var lastAck time.Time
	var lastVisible time.Time
	for _, s := range m.agents {
		for j, r := range s.recs {
			a := s.acks[j]
			if r.failed {
				failed++
				ad.add(m.missMS())
				continue
			}
			ad.addDur(r.latency(), time.Millisecond)
			if r.end.After(lastAck) {
				lastAck = r.end
			}
			if a.dup {
				continue
			}
			vis, ok := visibleEverywhere(e.vis[1:], a.id)
			if !ok {
				fd.add(m.missMS())
				continue
			}
			if vis.After(lastVisible) {
				lastVisible = vis
			}
			fresh := vis.Sub(r.end)
			if fresh < 0 {
				fresh = 0
			}
			fd.addDur(fresh, time.Millisecond)
		}
	}
	var setupS []float64
	for _, st := range setups {
		setupS = append(setupS, st.total.Seconds())
	}
	out["setup_s"] = median(setupS)
	out["query_p50_ms"] = qd.p(50)
	out["freshness_p50_ms"] = fd.p(50)
	out["freshness_p90_ms"] = fd.p(90)
	m.tails = map[string]pct{"query_p90_ms": qd.percentile(90), "query_p99_ms": qd.percentile(99),
		"freshness_p99_ms": fd.percentile(99), "ack_p50_ms": ad.percentile(50), "ack_p99_ms": ad.percentile(99)}
	out["ingest_tps"] = float64(len(m.acked)) / lastAck.Sub(m.ingestStart).Seconds()
	out["burst_visible_s"] = lastVisible.Sub(m.ingestStart).Seconds()
	out["heap_mb"] = m.heapMB
	for _, x := range []struct {
		name string
		d    *dist
	}{{"query", &qd}, {"ack", &ad}, {"freshness", &fd}} {
		fmt.Fprintf(os.Stderr, "%-9s n=%-6d p50=%.2f p90=%.2f p95=%.2f p99=%.2f ms\n", x.name, x.d.n(),
			x.d.p(50), x.d.p(90), x.d.p(95), x.d.p(99))
	}
	byKind := map[string]*dist{}
	for _, s := range m.queries {
		for i, r := range s.recs {
			k := s.qs[i].kind
			if byKind[k] == nil {
				byKind[k] = &dist{}
			}
			byKind[k].addDur(r.latency(), time.Millisecond)
		}
	}
	for _, k := range handlerKinds {
		if d := byKind[k]; d != nil {
			fmt.Fprintf(os.Stderr, "  %-8s n=%-5d p50=%.2fms p99=%.2fms\n", k, d.n(), d.p(50), d.p(99))
		}
	}
	fmt.Fprintf(os.Stderr, "gc: %d cycles, %v paused\n", m.gcCycles, m.gcPause)
	return failed
}

// visibleEverywhere is when id was visible on every one of vs.
func visibleEverywhere(vs []*visibility, id uint64) (time.Time, bool) {
	var last time.Time
	for _, v := range vs {
		t, ok := v.visibleAt(id)
		if !ok {
			return time.Time{}, false
		}
		if t.After(last) {
			last = t
		}
	}
	return last, true
}

// check runs the output check: every acked ticket exactly once in every
// state, nothing dropped, and every distinct answer equal to the oracle.
// It returns whether all held and how many failures it found.
func (m *measured) check(e *env) (bool, int, error) {
	bad := 0
	if d := e.tier.sub.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "check: subscription dropped %d tickets\n", d)
		bad += int(d)
	}
	states := e.tier.states()
	for i, st := range states {
		rows, err := st.Rows(e.in.hist, st.Current().Tickets())
		if err != nil {
			return false, 0, err
		}
		if rc := matchAcks(m.acked, rows); rc.bad() > 0 {
			fmt.Fprintf(os.Stderr, "check: state %d rows: %+v\n", i, rc)
			bad += rc.bad()
		}
	}
	var answers []answer
	for _, s := range m.queries {
		answers = append(answers, s.answers...)
	}
	cs := distinctClaims(answers)
	wrong, err := checkClaims(e.tier.prim, e.in.census, cs)
	if err != nil {
		return false, 0, err
	}
	fmt.Fprintf(os.Stderr, "check: %d acked tickets matched on %d states, %d distinct answers checked, %d wrong\n",
		len(m.acked), len(states), len(cs), wrong)
	bad += wrong
	return bad == 0, bad, nil
}
