package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"dcfail/internal/archive"
	"dcfail/internal/fmsnet"
	"dcfail/internal/replica"
	"dcfail/internal/router"
	"dcfail/internal/serve"
)

// Daemon settings: the fotqueryd defaults, except the subscription
// buffer, which is sized to hold the whole replayed tail so a fold that
// runs long can never make the primary drop tickets.
const (
	foldInterval = 200 * time.Millisecond
	foldBatch    = 8192
	subBuffer    = 1 << 16
	nReplicas    = 2
)

// tier is the serving tier under test: a WAL-backed collector feeding a
// primary, which streams epochs to two replicas behind a router.
type tier struct {
	coll    *fmsnet.Collector
	walDir  string
	sub     *fmsnet.TicketSub
	prim    *serve.Daemon
	stream  *replica.Server
	reps    []*serve.Daemon
	syncers []*replica.Syncer
	repURLs []string
	repDone []chan error

	rt        *router.Router
	rtSrv     *http.Server
	rtDone    chan error
	routerURL string

	closeOnce sync.Once
}

// setupTiming breaks one cold start into its steps.
type setupTiming struct {
	total       time.Duration
	poll        time.Duration // archive.Follow(dir).Poll()
	primaryFold time.Duration // primary bootstrap State.Fold
	catchup     time.Duration // primary published → every replica at its epoch
	firstReport time.Duration // router healthy → first full /report answered
}

// startTier cold-starts the tier from the archive: read the history,
// bootstrap the primary, bring both replicas to its epoch, and answer one
// full /report through the router. The returned timing is set-up time.
func startTier(in *input, walDir string) (_ *tier, st setupTiming, err error) {
	t0 := time.Now()
	tickets, err := archive.Follow(in.archive, archive.Position{}).Poll()
	if err != nil {
		return nil, st, fmt.Errorf("cold poll: %w", err)
	}
	if len(tickets) != in.hist {
		return nil, st, fmt.Errorf("cold poll read %d tickets, archive holds %d", len(tickets), in.hist)
	}
	t1 := time.Now()
	st.poll = t1.Sub(t0)

	tr := &tier{walDir: walDir}
	defer func() {
		if err != nil {
			tr.close()
		}
	}()
	tr.coll, err = fmsnet.NewCollectorWith("127.0.0.1:0", fmsnet.CollectorOptions{WALDir: walDir})
	if err != nil {
		return nil, st, err
	}
	tr.sub = tr.coll.SubscribeTickets(subBuffer)
	opts := serve.Options{Census: in.census, FoldInterval: foldInterval, FoldBatch: foldBatch}
	popts := opts
	popts.SourceDrops = tr.sub.Dropped
	tr.prim = serve.New(popts)
	t2 := time.Now()
	snap := tr.prim.State().Fold(tickets, t2)
	t3 := time.Now()
	st.primaryFold = t3.Sub(t2)
	tr.prim.StartIngest(serve.FromChannel(tr.sub.C()))
	tr.stream, err = replica.NewServer("127.0.0.1:0", tr.prim.State(), replica.ServerOptions{})
	if err != nil {
		return nil, st, err
	}
	for i := 0; i < nReplicas; i++ {
		d := serve.New(opts)
		s := replica.NewSyncer(d.State(), replica.SyncerOptions{Addr: tr.stream.Addr()})
		d.SetLagProbe(s.Lag)
		s.Start()
		tr.reps = append(tr.reps, d)
		tr.syncers = append(tr.syncers, s)
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return nil, st, lerr
		}
		done := make(chan error, 1)
		go func() { done <- d.Serve(ln) }()
		tr.repDone = append(tr.repDone, done)
		tr.repURLs = append(tr.repURLs, "http://"+ln.Addr().String())
	}
	deadline := time.Now().Add(120 * time.Second)
	for _, d := range tr.reps {
		for d.State().Current().Epoch() < snap.Epoch() {
			if time.Now().After(deadline) {
				return nil, st, fmt.Errorf("replica did not reach epoch %d", snap.Epoch())
			}
			time.Sleep(time.Millisecond)
		}
	}
	t4 := time.Now()
	st.catchup = t4.Sub(t3)

	tr.rt, err = router.New(router.Options{Backends: tr.repURLs})
	if err != nil {
		return nil, st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, st, err
	}
	tr.rtSrv = &http.Server{Handler: tr.rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	tr.rtDone = make(chan error, 1)
	go func() { tr.rtDone <- tr.rtSrv.Serve(ln) }()
	tr.routerURL = "http://" + ln.Addr().String()
	for !tr.routerReady(snap.Epoch()) {
		if time.Now().After(deadline) {
			return nil, st, fmt.Errorf("router never saw both replicas healthy at epoch %d", snap.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
	if err := firstReport(tr.routerURL); err != nil {
		return nil, st, err
	}
	t5 := time.Now()
	st.firstReport = t5.Sub(t4)
	st.total = t5.Sub(t0)
	return tr, st, nil
}

func (tr *tier) routerReady(epoch uint64) bool {
	for _, b := range tr.rt.Status().Backends {
		if !b.Healthy || b.Degraded || b.Epoch < epoch {
			return false
		}
	}
	return true
}

func firstReport(base string) error {
	resp, err := http.Get(base + "/report")
	if err != nil {
		return fmt.Errorf("first /report: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("first /report: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first /report: %s", resp.Status)
	}
	return nil
}

// states lists the primary's state first, then each replica's.
func (tr *tier) states() []*serve.State {
	out := []*serve.State{tr.prim.State()}
	for _, d := range tr.reps {
		out = append(out, d.State())
	}
	return out
}

// close stops every component in dependency order and waits for their
// goroutines. Safe on a partly started tier, and idempotent.
func (tr *tier) close() { tr.closeOnce.Do(tr.stop) }

func (tr *tier) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if tr.rt != nil {
		tr.rt.Close()
	}
	if tr.rtSrv != nil {
		tr.rtSrv.Shutdown(ctx)
		<-tr.rtDone
	}
	for _, s := range tr.syncers {
		s.Stop()
	}
	for i, d := range tr.reps {
		d.Shutdown(ctx)
		<-tr.repDone[i]
	}
	if tr.stream != nil {
		tr.stream.Close()
	}
	if tr.sub != nil {
		tr.sub.Close()
	}
	if tr.coll != nil {
		tr.coll.Close()
	}
	if tr.prim != nil {
		tr.prim.Shutdown(ctx)
	}
}

// visibility watches one State from outside: on every published epoch it
// reads the newly appended rows and stamps each replayed ticket id with
// the first moment it was visible there.
type visibility struct {
	mu     sync.Mutex
	seen   map[uint64]time.Time
	epochs map[uint64]int // epoch → published row count

	stop chan struct{}
	done chan struct{}
}

func watchState(st *serve.State, hist int) *visibility {
	v := &visibility{
		seen:   map[uint64]time.Time{},
		epochs: map[uint64]int{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	ch := st.Watch()
	rows := hist
	scan := func() {
		snap := st.Current()
		now := time.Now()
		v.mu.Lock()
		defer v.mu.Unlock()
		v.epochs[snap.Epoch()] = snap.Tickets()
		if snap.Tickets() <= rows {
			return
		}
		fresh, err := st.Rows(rows, snap.Tickets())
		if err != nil {
			return
		}
		for _, t := range fresh {
			if _, ok := v.seen[t.ID]; !ok {
				v.seen[t.ID] = now
			}
		}
		rows = snap.Tickets()
	}
	scan()
	go func() {
		defer close(v.done)
		defer st.Unwatch(ch)
		for {
			select {
			case <-ch:
				scan()
			case <-v.stop:
				scan()
				return
			}
		}
	}()
	return v
}

func (v *visibility) close() {
	close(v.stop)
	<-v.done
}

// visibleAt reports when id became visible, if it has.
func (v *visibility) visibleAt(id uint64) (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	t, ok := v.seen[id]
	return t, ok
}

// hasAll reports whether every id is visible.
func (v *visibility) hasAll(ids []uint64) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.seen) < len(ids) {
		return false
	}
	for _, id := range ids {
		if _, ok := v.seen[id]; !ok {
			return false
		}
	}
	return true
}
