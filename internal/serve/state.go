package serve

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fot"
	"dcfail/internal/mine"
	"dcfail/internal/predict"
	"dcfail/internal/report"
)

// Snapshot is one immutable epoch of the live analytics state: a
// consistent TraceIndex over every ticket folded so far, plus the
// per-epoch section cache and a lazily built mining index. Readers that
// grab a Snapshot keep exactly this view no matter how many folds happen
// afterwards — all sections they render come from the same ticket
// prefix, which is what makes a mid-ingestion report self-consistent.
type Snapshot struct {
	epoch    uint64
	index    *fot.TraceIndex
	tickets  int
	foldedAt time.Time

	cache sectionCache

	mineOnce sync.Once
	mineIx   *mine.Index
	mineErr  error
}

// Epoch returns the snapshot's fold generation (0 = empty, pre-ingest).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Tickets returns how many tickets this epoch contains.
func (s *Snapshot) Tickets() int { return s.tickets }

// Index returns the epoch's shared immutable trace index.
func (s *Snapshot) Index() *fot.TraceIndex { return s.index }

// FoldedAt returns when this epoch was published.
func (s *Snapshot) FoldedAt() time.Time { return s.foldedAt }

// MineIndex returns the epoch's §VII-B mining index, built on first use
// and cached for the life of the snapshot.
func (s *Snapshot) MineIndex() (*mine.Index, error) {
	s.mineOnce.Do(func() {
		s.mineIx, s.mineErr = mine.NewIndex(s.index.All())
	})
	return s.mineIx, s.mineErr
}

// sectionCache holds the rendered sections of one epoch. It only ever
// grows; epoch advance abandons the whole cache with its snapshot, so
// nothing stale can survive a fold. inflight dedups concurrent misses:
// the first reader to miss a section computes it, later readers wait on
// its channel (closed when the result lands in done) instead of racing
// duplicate renders — on a fresh epoch under a request stampede, N
// identical renders on one box otherwise multiply the epoch's cold cost
// by N (observed as a collapse in the chaos harness).
type sectionCache struct {
	mu       sync.Mutex
	done     map[string]core.SectionResult
	inflight map[string]chan struct{}
}

// State is the incrementally updated analytics state behind the query
// daemon: an epoch-based copy-on-append snapshot model. One ingest
// goroutine folds new tickets into the next epoch with Fold; any number
// of readers take the current Snapshot with Current and render sections
// against it. The ticket backing array is append-only and every
// published index views a capped prefix of it, so folding never copies
// the history and never invalidates a reader's view.
type State struct {
	census   *core.Census
	workers  int
	sections map[string]core.Section
	order    []string // section ids in print order

	foldMu sync.Mutex // serializes folds; Current never takes it
	all    []fot.Ticket

	watchMu  sync.Mutex
	watchers map[chan struct{}]struct{}

	cur atomic.Pointer[Snapshot]

	hits   atomic.Uint64
	misses atomic.Uint64
	waits  atomic.Uint64

	// engine carries every section's incremental fold state; folds advance
	// it under foldMu, renders consult it before falling back to the full
	// recompute. incOff disables the delta path (benchmark baseline,
	// operational escape hatch).
	engine  *core.IncrementalEngine
	incOff  atomic.Bool
	secStat map[string]*sectionRenderCounters

	// pred is the streaming failure predictor behind /predict and
	// /atrisk. It advances on the same fold path as engine — including
	// the replica FoldTo path — so every replica serving epoch N ranks
	// hosts from identical feature state.
	pred *predict.Engine
}

// sectionRenderCounters tracks how one section's cache misses were
// served: from carried fold state, or by the full recompute.
type sectionRenderCounters struct {
	incremental atomic.Uint64
	fallback    atomic.Uint64
}

// SectionRenderStats is the exported snapshot of one section's counters.
type SectionRenderStats struct {
	Incremental uint64 `json:"incremental"`
	Fallback    uint64 `json:"fallback"`
}

// NewState builds an empty state (epoch 0) whose reports use the given
// census. workers caps the goroutines one fold or one render fans out
// to: the engine's fact and section folds, and the renders of a
// request's missing sections (<= 0 means one per CPU, as in core.Pool).
func NewState(census *core.Census, workers int) *State {
	st := &State{
		census:   census,
		workers:  workers,
		sections: make(map[string]core.Section),
		watchers: make(map[chan struct{}]struct{}),
	}
	for _, sec := range report.StandardSections(census) {
		st.sections[sec.ID] = sec
		st.order = append(st.order, sec.ID)
	}
	st.engine = core.NewIncrementalEngine(report.StandardIncrementalSections(census))
	st.engine.SetWorkers(workers)
	st.secStat = make(map[string]*sectionRenderCounters, len(st.order))
	for _, id := range st.order {
		st.secStat[id] = &sectionRenderCounters{}
	}
	st.pred = predict.NewEngine(predict.Options{})
	//lint:ignore epochpub epoch-0 bootstrap: the empty snapshot is installed before State escapes the constructor, so no reader can race it
	st.cur.Store(st.newSnapshot(nil, 0, nil, time.Time{}))
	return st
}

// SetPredictor replaces the streaming predictor's configuration. Must be
// called before the first fold (the daemon does it from New); a later
// call would discard folded feature state.
func (st *State) SetPredictor(opts predict.Options) {
	st.foldMu.Lock()
	defer st.foldMu.Unlock()
	st.pred = predict.NewEngine(opts)
}

// Predictor exposes the streaming risk-scoring engine.
func (st *State) Predictor() *predict.Engine { return st.pred }

// SetIncremental toggles the delta render path. Disabled, every cache
// miss takes the full recompute — the benchmark baseline and the escape
// hatch if a section's fold state is ever suspect in production.
func (st *State) SetIncremental(enabled bool) { st.incOff.Store(!enabled) }

// newSnapshot indexes view as an incremental extension of the previous
// epoch's index: the columnar decomposition and global time permutation
// of the shared ticket prefix carry over, so a fold pays for its batch,
// not the whole history.
func (st *State) newSnapshot(prev *fot.TraceIndex, epoch uint64, view []fot.Ticket, at time.Time) *Snapshot {
	return &Snapshot{
		epoch:    epoch,
		index:    fot.ExtendTraceIndex(prev, fot.NewTrace(view)),
		tickets:  len(view),
		foldedAt: at,
		cache: sectionCache{
			done:     make(map[string]core.SectionResult),
			inflight: make(map[string]chan struct{}),
		},
	}
}

// Current returns the live snapshot. Wait-free; safe from any goroutine.
func (st *State) Current() *Snapshot { return st.cur.Load() }

// SectionIDs returns every section id in print order.
func (st *State) SectionIDs() []string { return st.order }

// Fold appends a batch of tickets and publishes the next epoch. The
// previous epoch's snapshot (and any reader holding it) is untouched:
// published ticket prefixes are immutable, so the new index shares the
// same backing array and only the new tail is ever written. Folding an
// empty batch returns the current snapshot without advancing the epoch,
// so idle ticks never invalidate the section cache.
func (st *State) Fold(batch []fot.Ticket, now time.Time) *Snapshot {
	st.foldMu.Lock()
	defer st.foldMu.Unlock()
	prev := st.cur.Load()
	if len(batch) == 0 {
		return prev
	}
	return st.publish(batch, prev.epoch+1, now)
}

// FoldTo appends a batch and publishes it under an explicit epoch number
// — the replication path: a replica replaying a primary's epoch markers
// folds each marker's rows under the primary's epoch, so /report bodies
// and X-Epoch headers agree across the whole serving tier. The epoch must
// advance; an empty batch is allowed (a marker whose rows all arrived
// before a reconnect still has to move the epoch forward).
func (st *State) FoldTo(batch []fot.Ticket, epoch uint64, now time.Time) (*Snapshot, error) {
	st.foldMu.Lock()
	defer st.foldMu.Unlock()
	prev := st.cur.Load()
	if epoch <= prev.epoch {
		return nil, fmt.Errorf("serve: FoldTo epoch %d not after current %d", epoch, prev.epoch)
	}
	return st.publish(batch, epoch, now), nil
}

// publish appends batch (possibly empty) and installs the new epoch.
// Callers hold foldMu.
func (st *State) publish(batch []fot.Ticket, epoch uint64, now time.Time) *Snapshot {
	prev := st.cur.Load()
	st.all = append(st.all, batch...)
	// Full slice expression: the snapshot's view can never observe a
	// later Fold's appends, even when they land in the same array.
	view := st.all[:len(st.all):len(st.all)]
	snap := st.newSnapshot(prev.index, epoch, view, now)
	// Fold the appended rows into the engine and the predictor at once
	// (both only read the new index), then pre-seed the new epoch's cache
	// with every rendered section the fold provably left byte-identical:
	// a warm epoch advance re-renders only what changed.
	var pred sync.WaitGroup
	pred.Add(1)
	go func() {
		defer pred.Done()
		st.pred.Advance(snap.index, epoch)
	}()
	changed := st.engine.Advance(snap.index, epoch)
	pred.Wait()
	prev.cache.mu.Lock()
	for id, res := range prev.cache.done {
		//lint:ignore maporder cache carry-over; per-key copy, order immaterial
		if !changed[id] {
			snap.cache.done[id] = res
		}
	}
	prev.cache.mu.Unlock()
	st.cur.Store(snap)
	st.notifyWatchers()
	return snap
}

// Rows returns rows [from, to) of the append-only ticket log. Published
// prefixes are immutable, so the returned (capped) subslice stays valid
// and read-only no matter how many folds happen afterwards. to must not
// exceed the published row count (Current().Tickets()).
func (st *State) Rows(from, to int) ([]fot.Ticket, error) {
	st.foldMu.Lock()
	defer st.foldMu.Unlock()
	if from < 0 || to < from || to > len(st.all) {
		return nil, fmt.Errorf("serve: rows [%d, %d) out of range (have %d)", from, to, len(st.all))
	}
	return st.all[from:to:to], nil
}

// Watch registers an epoch-advance signal: the returned capacity-1
// channel receives (coalesced, non-blocking) after every published fold.
// Pair with Unwatch.
func (st *State) Watch() chan struct{} {
	ch := make(chan struct{}, 1)
	st.watchMu.Lock()
	st.watchers[ch] = struct{}{}
	st.watchMu.Unlock()
	return ch
}

// Unwatch removes a channel registered with Watch.
func (st *State) Unwatch(ch chan struct{}) {
	st.watchMu.Lock()
	delete(st.watchers, ch)
	st.watchMu.Unlock()
}

func (st *State) notifyWatchers() {
	st.watchMu.Lock()
	for ch := range st.watchers {
		select {
		//lint:ignore maporder coalesced wake-up signals carry no payload; delivery order across watchers is immaterial
		case ch <- struct{}{}:
		default: // watcher already has a pending signal
		}
	}
	st.watchMu.Unlock()
}

// CacheStats reports the lifetime section-cache counters. hits are
// served straight from an epoch's done map; misses triggered a render;
// waits piggybacked on another request's in-flight render — not free
// like a hit (the caller blocks) and not a render like a miss, so they
// are counted apart from both.
func (st *State) CacheStats() (hits, misses, waits uint64) {
	return st.hits.Load(), st.misses.Load(), st.waits.Load()
}

// IncrementalStats reports, per section, how many cache misses were
// served from fold state vs the full recompute, plus the engine's health
// snapshot.
func (st *State) IncrementalStats() (map[string]SectionRenderStats, core.IncrementalEngineStats) {
	out := make(map[string]SectionRenderStats, len(st.secStat))
	for id, c := range st.secStat {
		//lint:ignore maporder snapshot copy into a map; order immaterial
		out[id] = SectionRenderStats{Incremental: c.incremental.Load(), Fallback: c.fallback.Load()}
	}
	return out, st.engine.Stats()
}

// RenderSections renders the requested section ids against one snapshot,
// serving repeats from the epoch's cache and rendering every missing
// section as one task on a core.Pool of the state's workers: from the
// engine's fold state when it matches the snapshot's epoch, else by the
// section's full recompute. Concurrent misses of the same section are
// deduplicated: exactly one caller renders it, the rest wait for its
// result. Results come back in the requested order; an unknown id is an
// error.
func (st *State) RenderSections(snap *Snapshot, ids []string) ([]core.SectionResult, error) {
	results := make([]core.SectionResult, len(ids))
	var missingAt []int
	type waiter struct {
		at int
		id string
		ch chan struct{}
	}
	var waits []waiter

	snap.cache.mu.Lock()
	for i, id := range ids {
		if res, ok := snap.cache.done[id]; ok {
			results[i] = res
			st.hits.Add(1)
			continue
		}
		if _, ok := st.sections[id]; !ok {
			snap.cache.mu.Unlock()
			return nil, fmt.Errorf("serve: unknown section %q", id)
		}
		if ch, ok := snap.cache.inflight[id]; ok {
			// Another request is already rendering this section. Not a
			// hit — the result isn't here yet and this caller blocks for
			// it — and not a miss — the renderer already counted the
			// compute. Counted as a wait.
			st.waits.Add(1)
			waits = append(waits, waiter{at: i, id: id, ch: ch})
			continue
		}
		st.misses.Add(1)
		snap.cache.inflight[id] = make(chan struct{})
		missingAt = append(missingAt, i)
	}
	snap.cache.mu.Unlock()

	// Delta path first: a section whose fold state matches this
	// snapshot's epoch renders from carried state instead of rescanning
	// history. A stale snapshot, a broken section or a disabled engine
	// falls back to the full recompute transparently.
	core.Pool{Workers: st.workers}.Run(len(missingAt), nil, func(j int) {
		at := missingAt[j]
		id := ids[at]
		c := st.secStat[id]
		var buf bytes.Buffer
		if !st.incOff.Load() {
			if ok, err := st.engine.TryRender(id, snap.epoch, snap.index, &buf); ok {
				results[at] = core.SectionResult{ID: id, Text: buf.Bytes(), Err: err}
				if c != nil {
					c.incremental.Add(1)
				}
				return
			}
		}
		if c != nil {
			c.fallback.Add(1)
		}
		err := st.sections[id].Render(snap.index, &buf)
		results[at] = core.SectionResult{ID: id, Text: buf.Bytes(), Err: err}
	})
	if len(missingAt) > 0 {
		snap.cache.mu.Lock()
		for _, at := range missingAt {
			res := results[at]
			snap.cache.done[res.ID] = res
			close(snap.cache.inflight[res.ID])
			delete(snap.cache.inflight, res.ID)
		}
		snap.cache.mu.Unlock()
	}
	for _, w := range waits {
		<-w.ch
		snap.cache.mu.Lock()
		results[w.at] = snap.cache.done[w.id]
		snap.cache.mu.Unlock()
	}
	return results, nil
}
