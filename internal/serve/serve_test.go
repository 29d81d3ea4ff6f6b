package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fleetgen"
	"dcfail/internal/fms"
	"dcfail/internal/fot"
	"dcfail/internal/report"
)

// smallRun caches one SmallProfile simulation for every test in the
// package — the generator is deterministic, and tests only read.
var (
	smallOnce   sync.Once
	smallTrace  *fot.Trace
	smallCensus *core.Census
	smallErr    error
)

func smallWorld(t *testing.T) (*fot.Trace, *core.Census) {
	t.Helper()
	smallOnce.Do(func() {
		res, err := fms.Run(fleetgen.SmallProfile(), fms.DefaultConfig(), 7)
		if err != nil {
			smallErr = err
			return
		}
		smallTrace = res.Trace
		smallCensus = core.CensusFromFleet(res.Fleet)
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallTrace, smallCensus
}

// waitDrained spins until the daemon has folded a finite source.
func waitDrained(t *testing.T, d *Daemon) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !d.Drained() || d.pending.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never drained its source")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestReportByteIdenticalToSerialReference is the frozen-trace golden:
// the daemon's /report body must match report.SerialReference bytes
// exactly once the whole trace is folded.
func TestReportByteIdenticalToSerialReference(t *testing.T) {
	trace, census := smallWorld(t)
	d := New(Options{Census: census, FoldInterval: 10 * time.Millisecond})
	d.StartIngest(FromTrace(trace, 0))
	waitDrained(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/report")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/report status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Tickets"); got != strconv.Itoa(trace.Len()) {
		t.Fatalf("X-Tickets = %s, want %d", got, trace.Len())
	}

	var want bytes.Buffer
	if err := report.SerialReference(&want, trace, census, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("/report body differs from SerialReference (%d vs %d bytes)", len(body), want.Len())
	}

	// Per-section endpoint serves the same bytes as the section subset.
	resp, section := get(t, srv, "/report/table1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/report/table1 status %d", resp.StatusCode)
	}
	var wantSec bytes.Buffer
	if err := report.SerialReference(&wantSec, trace, census, func(id string) bool { return id == "table1" }); err != nil {
		t.Fatal(err)
	}
	// SerialReference appends the blank separator line; the bare section
	// endpoint does not.
	if !bytes.Equal(append(append([]byte{}, section...), '\n'), wantSec.Bytes()) {
		t.Fatal("/report/table1 body differs from the serial reference section")
	}
}

// TestMidIngestReportIsSelfConsistent is the live golden: a /report
// issued while tickets are still flowing must equal SerialReference over
// exactly the ticket prefix its X-Tickets header claims — every section
// computed from the same count. A report that fails (an empty or tiny
// prefix has sections with too little data) must fail with the
// reference's error over that same prefix.
func TestMidIngestReportIsSelfConsistent(t *testing.T) {
	trace, census := smallWorld(t)
	d := New(Options{Census: census, FoldInterval: time.Millisecond, FoldBatch: 64})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	d.StartIngest(FromTrace(trace, 97)) // slow drip: many epochs

	type sample struct {
		n      int
		status int
		body   []byte
	}
	var samples []sample
	ok := 0
	for ok < 3 && !d.Drained() {
		resp, body := get(t, srv, "/report")
		n, err := strconv.Atoi(resp.Header.Get("X-Tickets"))
		if err != nil {
			t.Fatalf("status %d: bad X-Tickets header: %v", resp.StatusCode, err)
		}
		switch {
		case resp.StatusCode != http.StatusOK:
			samples = append(samples, sample{n, resp.StatusCode, body})
		case n > 0 && n < trace.Len():
			samples = append(samples, sample{n, resp.StatusCode, body})
			ok++
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitDrained(t, d)
	if ok == 0 {
		t.Skip("ingest finished before any mid-flight sample; timing too coarse on this machine")
	}
	for _, s := range samples {
		prefix := fot.NewTrace(trace.Tickets[:s.n])
		var want bytes.Buffer
		refErr := report.SerialReference(&want, prefix, census, nil)
		if s.status != http.StatusOK {
			if refErr == nil {
				t.Fatalf("report at %d tickets failed with %d %q, but the serial reference over that prefix succeeds", s.n, s.status, s.body)
			}
			if got, want := string(s.body), refErr.Error()+"\n"; s.status != http.StatusInternalServerError || got != want {
				t.Fatalf("report at %d tickets: status %d body %q, want 500 %q", s.n, s.status, got, want)
			}
			continue
		}
		if refErr != nil {
			t.Fatalf("serial reference over %d-ticket prefix: %v", s.n, refErr)
		}
		if !bytes.Equal(s.body, want.Bytes()) {
			t.Fatalf("mid-ingest report at %d tickets is not the serial reference over that prefix", s.n)
		}
	}
}

// TestSectionCacheServesRepeatsAndInvalidatesOnFold pins the cache
// contract: same epoch + same section = cache hit; a fold abandons the
// cache so the next render recomputes against the new epoch.
func TestSectionCacheServesRepeatsAndInvalidatesOnFold(t *testing.T) {
	trace, census := smallWorld(t)
	st := NewState(census, 0)
	half := trace.Len() / 2
	st.Fold(trace.Tickets[:half], time.Now())

	snap := st.Current()
	first, err := st.RenderSections(snap, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := st.CacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("after first render: hits=%d misses=%d, want 0/1", hits, misses)
	}
	again, err := st.RenderSections(snap, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := st.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("after repeat render: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if !bytes.Equal(first[0].Text, again[0].Text) {
		t.Fatal("cache returned different bytes for the same epoch")
	}

	st.Fold(trace.Tickets[half:], time.Now())
	snap2 := st.Current()
	if snap2.Epoch() != 2 {
		t.Fatalf("epoch after second fold = %d, want 2", snap2.Epoch())
	}
	fresh, err := st.RenderSections(snap2, []string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := st.CacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("after post-fold render: hits=%d misses=%d, want 1/2", hits, misses)
	}
	// Not stale: the new epoch's section must match a from-scratch serial
	// render of the full trace, not the old half.
	var want bytes.Buffer
	if err := report.SerialReference(&want, fot.NewTrace(trace.Tickets), census, func(id string) bool { return id == "table1" }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(append([]byte{}, fresh[0].Text...), '\n'), want.Bytes()) {
		t.Fatal("post-fold render served stale (pre-fold) section bytes")
	}
}

// TestFoldThroughput guards the ≥10k tickets/s ingest requirement on the
// SmallProfile trace. Folding is an append plus a pointer swap, so the
// bar is intentionally far below what the implementation does; a 100×
// regression still fails loudly.
func TestFoldThroughput(t *testing.T) {
	trace, census := smallWorld(t)
	st := NewState(census, 0)
	start := time.Now()
	const batch = 256
	for lo := 0; lo < trace.Len(); lo += batch {
		hi := lo + batch
		if hi > trace.Len() {
			hi = trace.Len()
		}
		st.Fold(trace.Tickets[lo:hi], time.Now())
	}
	elapsed := time.Since(start)
	rate := float64(trace.Len()) / elapsed.Seconds()
	t.Logf("folded %d tickets in %v (%.0f tickets/s, %d epochs)", trace.Len(), elapsed, rate, st.Current().Epoch())
	if rate < 10000 {
		t.Fatalf("fold throughput %.0f tickets/s, want >= 10000", rate)
	}
	if got := st.Current().Tickets(); got != trace.Len() {
		t.Fatalf("final epoch has %d tickets, want %d", got, trace.Len())
	}
}

// TestEndpointsHostsAlertsStatsHealthz exercises the JSON endpoints on a
// crafted stream with a deterministic batch episode.
func TestEndpointsHostsAlertsStatsHealthz(t *testing.T) {
	_, census := smallWorld(t)
	base := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	var tickets []fot.Ticket
	// Six distinct servers hit the same failure kind within minutes —
	// crosses an alert threshold of 5.
	for i := 0; i < 6; i++ {
		tickets = append(tickets, fot.Ticket{
			ID: uint64(i + 1), HostID: uint64(100 + i), IDC: "dc01", Position: 1,
			Device: fot.HDD, Slot: "sdb", Type: "SMARTFail",
			Time: base.Add(time.Duration(i) * time.Minute), Category: fot.Fixing, Action: fot.ActionRepairOrder,
		})
	}
	// One chronic host: the same slot failing five more times.
	for i := 0; i < 5; i++ {
		tickets = append(tickets, fot.Ticket{
			ID: uint64(10 + i), HostID: 100, IDC: "dc01", Position: 1,
			Device: fot.HDD, Slot: "sdb", Type: "SMARTFail",
			Time: base.Add(time.Duration(i+1) * 24 * time.Hour), Category: fot.Fixing, Action: fot.ActionRepairOrder,
		})
	}
	d := New(Options{Census: census, FoldInterval: 5 * time.Millisecond, AlertThreshold: 5})
	d.StartIngest(FromTrace(fot.NewTrace(tickets), 0))
	waitDrained(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, body := get(t, srv, "/healthz")
	var health HealthReply
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != HealthOK {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	if health.Tickets != len(tickets) || health.Epoch == 0 {
		t.Fatalf("/healthz freshness = %+v, want %d tickets at a nonzero epoch", health, len(tickets))
	}

	resp, body = get(t, srv, "/hosts/100")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/hosts/100 status %d: %s", resp.StatusCode, body)
	}
	var host HostReply
	if err := json.Unmarshal(body, &host); err != nil {
		t.Fatal(err)
	}
	if len(host.Tickets) != 6 {
		t.Fatalf("host 100 has %d tickets, want 6", len(host.Tickets))
	}
	if host.SlotRepeats != 5 || !host.ChronicSuspect {
		t.Fatalf("host 100 context = repeats %d chronic %v, want 5/true", host.SlotRepeats, host.ChronicSuspect)
	}
	if resp, _ := get(t, srv, "/hosts/424242"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown host status %d, want 404", resp.StatusCode)
	}

	_, body = get(t, srv, "/alerts")
	var alerts struct {
		Total  uint64       `json:"total"`
		Recent []AlertReply `json:"recent"`
	}
	if err := json.Unmarshal(body, &alerts); err != nil {
		t.Fatal(err)
	}
	if alerts.Total != 1 || len(alerts.Recent) != 1 || alerts.Recent[0].Servers < 5 {
		t.Fatalf("alerts = %+v, want one 5-server episode", alerts)
	}

	// A couple of section renders so the hit-rate is visible.
	get(t, srv, "/report/table1")
	get(t, srv, "/report/table1")
	_, body = get(t, srv, "/stats")
	var stats StatsReply
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Tickets != len(tickets) || !stats.Drained {
		t.Fatalf("stats = %+v, want %d tickets drained", stats, len(tickets))
	}
	if stats.Epoch == 0 || stats.Ingested != uint64(len(tickets)) {
		t.Fatalf("stats epoch/ingested = %d/%d", stats.Epoch, stats.Ingested)
	}
	if stats.CacheHits == 0 {
		t.Fatalf("stats shows no cache hits after repeated section query: %+v", stats)
	}

	if resp, _ := get(t, srv, "/report/nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown section status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, srv, "/report?sections=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus sections filter status %d, want 400", resp.StatusCode)
	}
}

// TestGracefulShutdownDrains starts a request, shuts the daemon down,
// and checks the in-flight request completes while new ones are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	trace, census := smallWorld(t)
	d := New(Options{Census: census, FoldInterval: 10 * time.Millisecond})
	d.StartIngest(FromTrace(trace, 0))
	waitDrained(t, d)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	// Warm one section, then shut down mid-idle.
	if _, err := http.Get(url + "/healthz"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("request after shutdown unexpectedly succeeded")
	}
}
