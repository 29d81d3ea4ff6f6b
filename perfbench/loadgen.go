package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"dcfail/internal/fmsnet"
	"dcfail/internal/wire"
)

// opRec is one generator operation: when it was due on the schedule,
// when it was actually started, when it completed, and whether it failed.
type opRec struct {
	due, start, end time.Time
	failed          bool
}

// latency is measured from the due time, so a stall charges every
// operation queued behind it, not just the one that hit it.
func (r opRec) latency() time.Duration { return r.end.Sub(r.due) }

func (r opRec) late() time.Duration { return lateness(r.due, r.start) }

// openLoop runs n operations on one connection, the i-th due at
// start + i*interval, regardless of how long earlier ones took. op runs
// at or after its due time; a slow op delays the next ones, which then
// start late and are charged from their due time.
func openLoop(start time.Time, interval time.Duration, n int, op func(i int) bool) []opRec {
	recs := make([]opRec, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := time.Now()
		ok := op(i)
		recs[i] = opRec{due: due, start: s, end: time.Now(), failed: !ok}
	}
	return recs
}

// closedLoop runs n ops back to back: each is due the moment the
// previous one completed, so its lateness is the generator's own gap
// between an ack and the next send.
func closedLoop(n int, op func(i int) bool) []opRec {
	recs := make([]opRec, n)
	due := time.Now()
	for i := range recs {
		s := time.Now()
		ok := op(i)
		recs[i] = opRec{due: due, start: s, end: time.Now(), failed: !ok}
		due = recs[i].end
	}
	return recs
}

// query is one HTTP request of a workload's mix.
type query struct {
	kind string // one of handlerKinds
	path string
}

// mixEntry weights one query kind in a workload's mix.
type mixEntry struct {
	kind   string
	weight int
}

// queryGen draws queries from a mix with the seeded RNG: hosts for
// /predict and /hosts by ticket count, sections in shuffled rounds.
type queryGen struct {
	rng      *rand.Rand
	mix      []mixEntry
	total    int
	predict  *hostPicker // hosts the predictor scores at the start
	hosts    *hostPicker // hosts with history tickets
	sections []string
	round    []string // sections left in the current round
}

// make draws one query of the given kind.
func (g *queryGen) make(kind string) query {
	switch kind {
	case "predict":
		return query{kind, "/predict/" + strconv.FormatUint(g.predict.pick(g.rng), 10)}
	case "hosts":
		return query{kind, "/hosts/" + strconv.FormatUint(g.hosts.pick(g.rng), 10)}
	case "section":
		if len(g.round) == 0 {
			g.round = slices.Clone(g.sections)
			g.rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
		}
		id := g.round[0]
		g.round = g.round[1:]
		return query{kind, "/report/" + id}
	case "atrisk":
		return query{kind, "/atrisk?n=20"}
	default:
		return query{"report", "/report"}
	}
}

// take draws n queries. The kinds follow the mix exactly and evenly
// spread (smooth weighted round robin), the same on every run, so runs
// of one workload never differ in how many expensive queries they send
// or how closely those queue behind each other. Sections come in rounds,
// each a seeded permutation of every section; hosts are drawn by ticket
// count.
func (g *queryGen) take(n int) []query {
	cur := make([]int, len(g.mix))
	out := make([]query, n)
	for i := range out {
		best := 0
		for j, m := range g.mix {
			cur[j] += m.weight
			if cur[j] > cur[best] {
				best = j
			}
		}
		cur[best] -= g.total
		out[i] = g.make(g.mix[best].kind)
	}
	return out
}

// takeKind draws n queries of one kind.
func (g *queryGen) takeKind(kind string, n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = g.make(kind)
	}
	return out
}

// answer is what the generator keeps of one response: enough to check
// it against the oracle later without holding the body.
type answer struct {
	q       query
	epoch   uint64
	tickets int // X-Tickets, -1 when the endpoint does not send it
	hash    uint64
	err     error
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// httpConn is one generator connection to the router.
type httpConn struct {
	base   string
	client *http.Client
	tr     *http.Transport
}

func newHTTPConn(base string) *httpConn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpConn{base: base, tr: tr, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *httpConn) close() { c.tr.CloseIdleConnections() }

func (c *httpConn) get(q query) answer {
	a := answer{q: q, tickets: -1}
	resp, err := c.client.Get(c.base + q.path)
	if err != nil {
		a.err = err
		return a
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		a.err = err
		return a
	}
	if resp.StatusCode != http.StatusOK {
		a.err = fmt.Errorf("%s: %s", q.path, resp.Status)
		return a
	}
	a.hash = bodyHash(body)
	if a.epoch, err = strconv.ParseUint(resp.Header.Get("X-Epoch"), 10, 64); err != nil {
		a.err = fmt.Errorf("%s: bad X-Epoch: %v", q.path, err)
	}
	if raw := resp.Header.Get("X-Tickets"); raw != "" {
		if a.tickets, err = strconv.Atoi(raw); err != nil {
			a.err = fmt.Errorf("%s: bad X-Tickets: %v", q.path, err)
		}
	}
	return a
}

// queryStream runs one connection's share of an open-loop query
// schedule and keeps every answer.
type queryStream struct {
	qs      []query
	recs    []opRec
	answers []answer
}

// runQueries sends qs over conns connections, conn k taking every
// conns-th query, each connection at interval*conns spacing so the whole
// schedule runs at one query per interval. It returns when all are done.
func runQueries(base string, start time.Time, interval time.Duration, conns int, qs []query, tr *tracer) []*queryStream {
	streams := make([]*queryStream, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		s := &queryStream{}
		for i := k; i < len(qs); i += conns {
			s.qs = append(s.qs, qs[i])
		}
		s.answers = make([]answer, len(s.qs))
		streams[k] = s
		wg.Add(1)
		go func(k int, s *queryStream) {
			defer wg.Done()
			c := newHTTPConn(base)
			defer c.close()
			first := start.Add(time.Duration(k) * interval)
			s.recs = openLoop(first, interval*time.Duration(conns), len(s.qs), func(i int) bool {
				t0 := time.Now()
				s.answers[i] = c.get(s.qs[i])
				tr.record("loadgen.query."+s.qs[i].kind, 0, t0, time.Now())
				return s.answers[i].err == nil
			})
		}(k, s)
	}
	wg.Wait()
	return streams
}

// ack is one agent report's outcome.
type ack struct {
	id  uint64
	dup bool
	err error
}

// agentStream is one agent connection's share of the replay.
type agentStream struct {
	idx  []int // indexes into input.reports
	recs []opRec
	acks []ack
}

// runAgents replays reports idx over len(parts) binary agent
// connections, each in a closed loop.
func runAgents(addr string, in *input, parts [][]int, tr *tracer) ([]*agentStream, error) {
	streams := make([]*agentStream, len(parts))
	clients := make([]*fmsnet.Client, len(parts))
	for k := range parts {
		c, err := fmsnet.DialBinary(addr, agentName(k))
		if err == nil && c.Codec() != wire.CodecBinV1 {
			c.Close()
			err = fmt.Errorf("collector declined the binary codec")
		}
		if err != nil {
			for _, o := range clients[:k] {
				o.Close()
			}
			return nil, err
		}
		clients[k] = c
	}
	var wg sync.WaitGroup
	for k, idx := range parts {
		s := &agentStream{idx: idx, acks: make([]ack, len(idx))}
		streams[k] = s
		wg.Add(1)
		go func(k int, s *agentStream) {
			defer wg.Done()
			c := clients[k]
			defer c.Close()
			op := func(j int) bool {
				t0 := time.Now()
				id, dup, err := c.ReportFrom(&in.reports[s.idx[j]], agentName(k), uint64(j+1))
				tr.record("loadgen.report", 0, t0, time.Now())
				s.acks[j] = ack{id: id, dup: dup, err: err}
				return err == nil
			}
			s.recs = closedLoop(len(s.idx), op)
		}(k, s)
	}
	wg.Wait()
	return streams, nil
}

// agentName is agent connection k's dedup identity.
func agentName(k int) string { return fmt.Sprintf("bench-agent-%d", k) }

// strided splits indexes [from, to) into n interleaved parts.
func strided(from, to, n int) [][]int {
	parts := make([][]int, n)
	for i := from; i < to; i++ {
		parts[(i-from)%n] = append(parts[(i-from)%n], i)
	}
	return parts
}
