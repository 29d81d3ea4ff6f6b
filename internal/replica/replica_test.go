package replica

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/faultnet"
	"dcfail/internal/fleetgen"
	"dcfail/internal/fms"
	"dcfail/internal/fot"
	"dcfail/internal/serve"
)

// smallWorld caches one deterministic SmallProfile run for the package.
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

// waitConverged spins until the replica's state reaches the primary's
// epoch and row count.
func waitConverged(t *testing.T, primary, rep *serve.State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		p, r := primary.Current(), rep.Current()
		if r.Epoch() == p.Epoch() && r.Tickets() == p.Tickets() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: primary (epoch %d, %d rows), replica (epoch %d, %d rows)",
				p.Epoch(), p.Tickets(), r.Epoch(), r.Tickets())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// renderSection renders one section id against a state's current epoch.
func renderSection(t *testing.T, st *serve.State, id string) []byte {
	t.Helper()
	res, err := st.RenderSections(st.Current(), []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	return res[0].Text
}

// fastSyncer returns test-speed syncer options.
func fastSyncer(addr string) SyncerOptions {
	return SyncerOptions{
		Addr:         addr,
		RetryMin:     10 * time.Millisecond,
		RetryMax:     100 * time.Millisecond,
		StallTimeout: 400 * time.Millisecond,
	}
}

// TestReplicaConvergesAndMatchesPrimary: a replica catching a live fold
// stream ends at the primary's exact (epoch, rows), and its rendered
// sections are byte-identical to the primary's for that epoch.
func TestReplicaConvergesAndMatchesPrimary(t *testing.T) {
	trace, census := smallWorld(t)
	primary := serve.NewState(census, 0)
	now := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)

	srv, err := NewServer("127.0.0.1:0", primary, ServerOptions{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rep := serve.NewState(census, 0)
	sy := NewSyncer(rep, fastSyncer(srv.Addr()))
	sy.Start()
	defer sy.Stop()

	// Fold the trace in uneven batches while the replica tails.
	for lo, step := 0, 997; lo < trace.Len(); lo += step {
		hi := lo + step
		if hi > trace.Len() {
			hi = trace.Len()
		}
		primary.Fold(trace.Tickets[lo:hi], now)
		now = now.Add(time.Second)
	}
	waitConverged(t, primary, rep, 15*time.Second)

	if p, r := primary.Current(), rep.Current(); p.Epoch() != r.Epoch() || !p.FoldedAt().Equal(r.FoldedAt()) {
		t.Fatalf("replica epoch/foldtime (%d, %v) != primary (%d, %v)",
			r.Epoch(), r.FoldedAt(), p.Epoch(), p.FoldedAt())
	}
	if got, want := renderSection(t, rep, "table1"), renderSection(t, primary, "table1"); !bytes.Equal(got, want) {
		t.Fatal("replica table1 differs from primary at the same epoch")
	}
	stats := sy.Stats()
	if stats.Rows != uint64(trace.Len()) || stats.Folds == 0 {
		t.Fatalf("sync stats = %+v, want %d rows and >0 folds", stats, trace.Len())
	}
	if stats.CRCFailures != 0 {
		t.Fatalf("clean link produced %d crc failures", stats.CRCFailures)
	}
	if sy.Lag() != 0 {
		t.Fatalf("caught-up replica reports lag %v", sy.Lag())
	}
}

// TestSyncerResumesFromPosition: a replica stopped mid-history resumes
// from its (epoch, row) and receives only the missing suffix.
func TestSyncerResumesFromPosition(t *testing.T) {
	trace, census := smallWorld(t)
	primary := serve.NewState(census, 0)
	now := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	half := trace.Len() / 2
	primary.Fold(trace.Tickets[:half], now)

	srv, err := NewServer("127.0.0.1:0", primary, ServerOptions{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rep := serve.NewState(census, 0)
	sy := NewSyncer(rep, fastSyncer(srv.Addr()))
	sy.Start()
	waitConverged(t, primary, rep, 15*time.Second)
	sy.Stop()
	firstRows := sy.Stats().Rows
	if firstRows != uint64(half) {
		t.Fatalf("first syncer pulled %d rows, want %d", firstRows, half)
	}

	// History grows while the replica is down.
	primary.Fold(trace.Tickets[half:], now.Add(time.Minute))

	// A fresh syncer over the SAME state resumes from (epoch, row): it
	// must pull only the suffix, with no duplicate rows applied.
	sy2 := NewSyncer(rep, fastSyncer(srv.Addr()))
	sy2.Start()
	defer sy2.Stop()
	waitConverged(t, primary, rep, 15*time.Second)
	stats := sy2.Stats()
	if want := uint64(trace.Len() - half); stats.Rows != want {
		t.Fatalf("resumed syncer pulled %d rows, want only the %d-row suffix", stats.Rows, want)
	}
	if rep.Current().Tickets() != trace.Len() {
		t.Fatalf("replica log has %d rows, want %d", rep.Current().Tickets(), trace.Len())
	}
	if got, want := renderSection(t, rep, "table2"), renderSection(t, primary, "table2"); !bytes.Equal(got, want) {
		t.Fatal("resumed replica table2 differs from primary")
	}
}

// TestSyncerSurvivesLinkFaults drives the stream through a faultnet
// proxy and cycles the fault modes the tier must survive: connection
// flap, a bandwidth cap, and a black-hole-after-accept. The replica must
// converge with zero loss once the faults lift (and during them, for the
// survivable ones).
func TestSyncerSurvivesLinkFaults(t *testing.T) {
	trace, census := smallWorld(t)
	primary := serve.NewState(census, 0)
	now := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)

	srv, err := NewServer("127.0.0.1:0", primary, ServerOptions{Heartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := faultnet.New("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	rep := serve.NewState(census, 0)
	opts := fastSyncer(proxy.Addr())
	opts.StallTimeout = 150 * time.Millisecond // make black holes cheap to detect
	sy := NewSyncer(rep, opts)
	sy.Start()
	defer sy.Stop()

	third := trace.Len() / 3
	fold := func(lo, hi int) {
		for ; lo < hi; lo += 499 {
			end := lo + 499
			if end > hi {
				end = hi
			}
			primary.Fold(trace.Tickets[lo:end], now)
			now = now.Add(time.Second)
		}
	}

	// Phase 1: flapping link. Progress happens between severs.
	proxy.FlapEvery(40 * time.Millisecond)
	fold(0, third)
	waitConverged(t, primary, rep, 20*time.Second)
	proxy.FlapEvery(0)

	// Phase 2: black hole. The syncer must detect the stall by read
	// deadline and keep retrying; nothing converges until the hole lifts.
	proxy.BlackHole(true)
	proxy.SeverAll() // cut the healthy link so new traffic hits the hole
	fold(third, 2*third)
	time.Sleep(300 * time.Millisecond)
	if lag := sy.Lag(); lag == 0 {
		t.Fatal("black-holed replica reports zero lag")
	}
	proxy.BlackHole(false)
	proxy.SeverAll() // black-holed links never carry bytes; force redial
	waitConverged(t, primary, rep, 20*time.Second)

	// Phase 3: bandwidth cap. Slow, but it converges.
	proxy.SetBandwidth(256 * 1024)
	fold(2*third, trace.Len())
	waitConverged(t, primary, rep, 30*time.Second)
	proxy.SetBandwidth(0)

	stats := sy.Stats()
	if stats.Reconnects == 0 {
		t.Fatalf("fault cycle never forced a reconnect: %+v", stats)
	}
	if rep.Current().Tickets() != trace.Len() {
		t.Fatalf("replica lost rows: %d of %d", rep.Current().Tickets(), trace.Len())
	}
	if got, want := renderSection(t, rep, "table1"), renderSection(t, primary, "table1"); !bytes.Equal(got, want) {
		t.Fatal("post-chaos replica table1 differs from primary")
	}
}

// scriptedPrimary runs a raw TCP listener that answers the first sync
// request with a fixed frame script — for protocol edge cases a real
// primary never emits.
func scriptedPrimary(t *testing.T, frames func(req Message) []Message) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				if !sc.Scan() {
					return
				}
				var req Message
				if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
					return
				}
				w := bufio.NewWriter(conn)
				for _, m := range frames(req) {
					line, err := encode(&m)
					if err != nil {
						return
					}
					if _, err := w.Write(line); err != nil {
						return
					}
				}
				w.Flush()
				// Keep the conn open briefly so the syncer reads the tail
				// before EOF races it.
				time.Sleep(200 * time.Millisecond)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func testTicket(id uint64) fot.Ticket {
	return fot.Ticket{
		ID: id, HostID: 100 + id, IDC: "dc01", Position: 1,
		Device: fot.HDD, Slot: "sdb", Type: "SMARTFail",
		Time:     time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(id) * time.Hour),
		Category: fot.Fixing, Action: fot.ActionRepairOrder,
	}
}

func mustRow(t *testing.T, row int, tk fot.Ticket) Message {
	t.Helper()
	m, err := rowMessage(row, tk)
	if err != nil {
		t.Fatal(err)
	}
	return *m
}

// TestSyncerDedupsReplayedRows: a primary that replays already-delivered
// rows (at-least-once) sees them skipped by row index, and replayed epoch
// markers are ignored.
func TestSyncerDedupsReplayedRows(t *testing.T) {
	_, census := smallWorld(t)
	foldedAt := time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC)
	addr := scriptedPrimary(t, func(req Message) []Message {
		if req.Row != 0 {
			// Converged replica reconnecting: nothing new.
			return []Message{{Kind: KindHello, Epoch: 1, Rows: 2}}
		}
		return []Message{
			{Kind: KindHello, Epoch: 1, Rows: 2},
			mustRow(t, 0, testTicket(1)),
			mustRow(t, 0, testTicket(1)), // replayed frame
			mustRow(t, 1, testTicket(2)),
			{Kind: KindEpoch, Epoch: 1, Rows: 2, FoldedAt: foldedAt},
			{Kind: KindEpoch, Epoch: 1, Rows: 2, FoldedAt: foldedAt}, // replayed marker
		}
	})

	rep := serve.NewState(census, 0)
	sy := NewSyncer(rep, fastSyncer(addr))
	sy.Start()
	defer sy.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for rep.Current().Epoch() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cur := rep.Current()
	if cur.Epoch() != 1 || cur.Tickets() != 2 || !cur.FoldedAt().Equal(foldedAt) {
		t.Fatalf("replica = epoch %d, %d rows, folded %v; want 1, 2, %v",
			cur.Epoch(), cur.Tickets(), cur.FoldedAt(), foldedAt)
	}
	stats := sy.Stats()
	if stats.Dups != 1 {
		t.Fatalf("dup counter = %d, want 1", stats.Dups)
	}
	if stats.Rows != 2 {
		t.Fatalf("rows = %d, want 2 (the dup must not double-apply)", stats.Rows)
	}
}

// TestSyncerRejectsCorruptFrames: a frame whose payload does not match
// its CRC is rejected, the connection is dropped, and the replica
// re-syncs cleanly on the next attempt.
func TestSyncerRejectsCorruptFrames(t *testing.T) {
	_, census := smallWorld(t)
	foldedAt := time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC)
	var attempts int
	var mu sync.Mutex
	addr := scriptedPrimary(t, func(req Message) []Message {
		mu.Lock()
		attempts++
		first := attempts == 1
		mu.Unlock()
		good := mustRow(t, 0, testTicket(1))
		if first && req.Row == 0 {
			bad := good
			bad.CRC ^= 0xdeadbeef // bit-rot on the wire
			return []Message{{Kind: KindHello, Epoch: 1, Rows: 1}, bad}
		}
		if req.Row != 0 {
			return []Message{{Kind: KindHello, Epoch: 1, Rows: 1}}
		}
		return []Message{
			{Kind: KindHello, Epoch: 1, Rows: 1},
			good,
			{Kind: KindEpoch, Epoch: 1, Rows: 1, FoldedAt: foldedAt},
		}
	})

	rep := serve.NewState(census, 0)
	sy := NewSyncer(rep, fastSyncer(addr))
	sy.Start()
	defer sy.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for rep.Current().Epoch() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cur := rep.Current(); cur.Epoch() != 1 || cur.Tickets() != 1 {
		t.Fatalf("replica never recovered from the corrupt frame: epoch %d, %d rows", cur.Epoch(), cur.Tickets())
	}
	stats := sy.Stats()
	if stats.CRCFailures != 1 {
		t.Fatalf("crc failure counter = %d, want 1", stats.CRCFailures)
	}
	if stats.Rows != 1 {
		t.Fatalf("rows = %d, want 1 (the corrupt frame must not apply)", stats.Rows)
	}
}

// TestServerRejectsAheadSubscriber: a subscriber claiming more history
// than the primary holds gets a terminal error frame, not a stream.
func TestServerRejectsAheadSubscriber(t *testing.T) {
	_, census := smallWorld(t)
	primary := serve.NewState(census, 0)
	srv, err := NewServer("127.0.0.1:0", primary, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sub, err := encode(&Message{Kind: KindSync, Epoch: 99, Row: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(sub); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no response to an ahead subscriber: %v", sc.Err())
	}
	var m Message
	if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindError {
		t.Fatalf("response kind = %q, want %q (%s)", m.Kind, KindError, sc.Text())
	}
	if m.Error == "" {
		t.Fatal("error frame without a reason")
	}
}

// TestFoldPendingReleasesConsumedRows pins the catch-up memory rule: a
// fold that consumes every pending row leaves the syncer holding no
// reference to the old array, and a partial fold keeps only the unfolded
// rows, in a fresh array, for the next epoch marker.
func TestFoldPendingReleasesConsumedRows(t *testing.T) {
	trace, census := smallWorld(t)
	s := NewSyncer(serve.NewState(census, 0), SyncerOptions{})
	s.pending = append([]fot.Ticket(nil), trace.Tickets[:100]...)
	old := s.pending[:cap(s.pending)]

	if err := s.foldPending(60, 1, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if len(s.pending) != 40 || s.pending[0].ID != trace.Tickets[60].ID {
		t.Fatalf("partial fold kept %d rows starting at id %d, want 40 from id %d",
			len(s.pending), s.pending[0].ID, trace.Tickets[60].ID)
	}
	if p := &s.pending[0]; p == &old[60] || p == &old[0] {
		t.Fatal("partial fold kept the unfolded rows in the old array")
	}

	if err := s.foldPending(40, 2, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if s.pending != nil {
		t.Fatalf("full fold left pending len %d cap %d, want nil", len(s.pending), cap(s.pending))
	}
	if got := s.state.Current().Tickets(); got != 100 {
		t.Fatalf("folded %d rows, want 100", got)
	}
}
