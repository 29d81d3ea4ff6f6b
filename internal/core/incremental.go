package core

import (
	"io"
	"slices"
	"sync"

	"dcfail/internal/fot"
)

// SectionState is one section's (or fold fact's) carried fold state: an
// opaque value owned by the IncrementalEngine, produced by an Update and
// read by renders. States must be pointers (or nil): the engine detects
// "nothing changed" by interface identity between Update's input and
// output.
type SectionState any

// Fact is one fold fact as an Update sees it: the fact's state after the
// current fold, and whether that fold changed its identity. A fact's
// per-fold outputs (such as the instances fact's first-instance rows)
// describe the current fold only when Changed is set.
type Fact struct {
	State   SectionState
	Changed bool
}

// UpdateFunc is the fold function of a section or a fold fact. facts are
// the states of the facts it declares, in declaration order, already
// folded over the same rows.
type UpdateFunc func(prev SectionState, facts []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error)

// FoldFact is fold state shared by several sections: an ID and an Update
// with no render. The engine folds each fact exactly once per Advance,
// before any section, and passes its state to every section (and later
// fact) that declares it. Facts are identified by pointer, so one
// *FoldFact declared by several sections is one shared state.
type FoldFact struct {
	ID     string
	Facts  []*FoldFact // facts this fact's Update reads
	Update UpdateFunc
}

// IncrementalSection is the delta path of one report section. The
// full-recompute core.Section stays the golden reference; an
// IncrementalSection reproduces its bytes from carried state instead of
// rescanning history on every epoch.
//
// Contract (DESIGN.md §9):
//
//   - Update folds the appended rows into the next state. prev is nil on
//     the first fold and after an engine rebuild; newRows is exactly the
//     appended row range, pre-sorted by the global (time, id) order, and
//     must not be retained or mutated. A nil Update means the section
//     renders from its facts alone and carries no state of its own.
//   - Update must not write through prev or through any fact. It either
//     returns prev itself (identity signals "no output-relevant change")
//     or a freshly allocated top-level state. The fresh state may absorb
//     prev's containers — ownership hand-off: once Update returns, the
//     engine never renders or folds the handed-off prev again. A state
//     never retains a fact's state or containers; readers receive facts
//     anew on every fold and render.
//   - The section counts as changed exactly when its own state or a fact
//     it declares changes identity; otherwise the engine may carry the
//     previous epoch's rendered bytes forward.
//   - RenderState is a pure function of (state, facts, ix): it must
//     produce bytes identical to the section's full-recompute render over
//     the same ticket prefix, including error values and any partial
//     output written before an error.
type IncrementalSection struct {
	ID          string
	Facts       []*FoldFact
	Update      UpdateFunc
	RenderState func(state SectionState, facts []SectionState, ix *fot.TraceIndex, w io.Writer) error
}

// IncrementalEngineStats is a point-in-time snapshot of engine health.
type IncrementalEngineStats struct {
	Epoch    uint64
	Rows     int
	Rebuilds uint64
	Broken   []string // sections whose Update failed; full fallback
}

// IncrementalEngine carries every fact's and section's fold state across
// epochs. Advance (one caller at a time, the fold path) consumes appended
// row ranges; TryRender serves section renders from state under a read
// lock, so renders of the current epoch never race the next fold's Update.
//
// The engine assumes rows are appended in global (time, id) order — the
// invariant live sources provide. When a batch violates it (out-of-order
// ingest after a reattach, a backfill), the engine transparently rebuilds
// every state from the full permutation: correctness never depends on
// arrival order, only the delta fast path does.
type IncrementalEngine struct {
	mu sync.RWMutex

	facts      []*FoldFact // every declared fact, each after the facts it reads
	factDeps   [][]int     // [fact] indices of the facts it reads
	factStates []SectionState
	factBroken []bool

	sections []IncrementalSection
	secDeps  [][]int // [section] indices of the facts it reads
	byID     map[string]int
	states   []SectionState
	broken   []bool

	epoch    uint64
	rows     int
	lastT    int64 // (time, id) key of the last folded row
	lastID   uint64
	haveLast bool
	rebuilds uint64
}

// NewIncrementalEngine builds an engine over the given sections and the
// facts they declare, with no folded rows (epoch 0).
func NewIncrementalEngine(sections []IncrementalSection) *IncrementalEngine {
	e := &IncrementalEngine{
		sections: sections,
		secDeps:  make([][]int, len(sections)),
		byID:     make(map[string]int, len(sections)),
		states:   make([]SectionState, len(sections)),
		broken:   make([]bool, len(sections)),
	}
	index := make(map[*FoldFact]int)
	var add func(f *FoldFact) int
	add = func(f *FoldFact) int {
		if i, ok := index[f]; ok {
			return i
		}
		deps := make([]int, len(f.Facts))
		for j, d := range f.Facts {
			deps[j] = add(d)
		}
		index[f] = len(e.facts)
		e.facts = append(e.facts, f)
		e.factDeps = append(e.factDeps, deps)
		return len(e.facts) - 1
	}
	for i, sec := range sections {
		e.byID[sec.ID] = i
		for _, f := range sec.Facts {
			e.secDeps[i] = append(e.secDeps[i], add(f))
		}
	}
	e.factStates = make([]SectionState, len(e.facts))
	e.factBroken = make([]bool, len(e.facts))
	return e
}

// Advance folds the rows appended since the previous call — rows
// [watermark, ix.Len()) — into every fact's and section's state and tags
// the result with epoch. It returns the set of section ids whose rendered output may
// differ from the previous epoch; ids absent from the map are guaranteed
// byte-identical, so cached renders may be carried forward. Advance must
// be externally serialized with respect to itself (serve's fold mutex).
func (e *IncrementalEngine) Advance(ix *fot.TraceIndex, epoch uint64) map[string]bool {
	cols := ix.Cols()
	n := ix.Len()

	e.mu.Lock()
	defer e.mu.Unlock()

	changed := make(map[string]bool)
	if n < e.rows {
		// The index shrank: not an extension of what we folded. Rebuild.
		e.rebuildLocked(ix, epoch, changed)
		return changed
	}
	newRows := make([]int32, 0, n-e.rows)
	for r := e.rows; r < n; r++ {
		newRows = append(newRows, int32(r))
	}
	if len(newRows) == 0 {
		// Epoch marker with no rows (replication): every section's output
		// is unchanged except those already broken, which re-render via
		// the full path against an index holding the same rows — still
		// byte-identical, so nothing needs to change hands.
		e.epoch = epoch
		return changed
	}
	slices.SortFunc(newRows, func(a, b int32) int {
		if cols.TimeNS[a] != cols.TimeNS[b] {
			if cols.TimeNS[a] < cols.TimeNS[b] {
				return -1
			}
			return 1
		}
		if cols.ID[a] != cols.ID[b] {
			if cols.ID[a] < cols.ID[b] {
				return -1
			}
			return 1
		}
		return 0
	})
	first := newRows[0]
	if e.haveLast && (cols.TimeNS[first] < e.lastT ||
		(cols.TimeNS[first] == e.lastT && cols.ID[first] <= e.lastID)) {
		// Batch starts at or before the folded history: out-of-order
		// append. Delta folding assumed monotone time; start over.
		e.rebuildLocked(ix, epoch, changed)
		return changed
	}
	e.foldLocked(ix, newRows, changed)
	last := newRows[len(newRows)-1]
	e.lastT, e.lastID, e.haveLast = cols.TimeNS[last], cols.ID[last], true
	e.rows = n
	e.epoch = epoch
	return changed
}

// foldLocked folds rows into every fact, once each and in dependency
// order, then into every live section.
func (e *IncrementalEngine) foldLocked(ix *fot.TraceIndex, rows []int32, changed map[string]bool) {
	views := make([]Fact, len(e.facts))
	for i, f := range e.facts {
		in, ok := e.gather(views, e.factDeps[i])
		if !ok || e.factBroken[i] {
			e.factStates[i], e.factBroken[i] = nil, true
			continue
		}
		next, err := f.Update(e.factStates[i], in, ix, rows)
		if err != nil {
			e.factStates[i], e.factBroken[i] = nil, true
			continue
		}
		views[i] = Fact{State: next, Changed: next != e.factStates[i]}
		e.factStates[i] = next
	}
	for i, sec := range e.sections {
		if e.broken[i] {
			// Full-fallback sections re-render from the new index.
			changed[sec.ID] = true
			continue
		}
		in, ok := e.gather(views, e.secDeps[i])
		if !ok {
			e.states[i], e.broken[i] = nil, true
			changed[sec.ID] = true
			continue
		}
		moved := false
		for _, f := range in {
			moved = moved || f.Changed
		}
		if sec.Update != nil {
			next, err := sec.Update(e.states[i], in, ix, rows)
			if err != nil {
				e.states[i], e.broken[i] = nil, true
				changed[sec.ID] = true
				continue
			}
			moved = moved || next != e.states[i]
			e.states[i] = next
		}
		if moved {
			changed[sec.ID] = true
		}
	}
}

// gather picks the facts at deps out of the current fold's views,
// reporting false if any of them is broken.
func (e *IncrementalEngine) gather(views []Fact, deps []int) ([]Fact, bool) {
	in := make([]Fact, len(deps))
	for j, d := range deps {
		if e.factBroken[d] {
			return nil, false
		}
		in[j] = views[d]
	}
	return in, true
}

// rebuildLocked discards every state and refolds the whole permutation,
// each fact once from nil.
func (e *IncrementalEngine) rebuildLocked(ix *fot.TraceIndex, epoch uint64, changed map[string]bool) {
	e.rebuilds++
	perm := ix.TimePerm()
	clear(e.factStates)
	clear(e.factBroken)
	clear(e.states)
	clear(e.broken)
	e.foldLocked(ix, perm, changed)
	// A rebuild invalidates identity-based carry for every section.
	for _, sec := range e.sections {
		changed[sec.ID] = true
	}
	e.rows = ix.Len()
	e.epoch = epoch
	if len(perm) > 0 {
		last := perm[len(perm)-1]
		cols := ix.Cols()
		e.lastT, e.lastID, e.haveLast = cols.TimeNS[last], cols.ID[last], true
	} else {
		e.haveLast = false
	}
}

// TryRender renders section id from carried state, holding the read lock
// so the next fold's Update cannot race it. It reports ok=false — without
// writing anything — when the state cannot serve this request: unknown
// id, an epoch other than the engine's current one (a reader holding an
// older snapshot), or a section whose Update failed. The caller then
// falls back to the full-recompute render.
func (e *IncrementalEngine) TryRender(id string, epoch uint64, ix *fot.TraceIndex, w io.Writer) (ok bool, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	i, known := e.byID[id]
	if !known || e.broken[i] || epoch != e.epoch {
		return false, nil
	}
	facts := make([]SectionState, len(e.secDeps[i]))
	for j, d := range e.secDeps[i] {
		facts[j] = e.factStates[d]
	}
	return true, e.sections[i].RenderState(e.states[i], facts, ix, w)
}

// Stats snapshots the engine's epoch, row watermark, rebuild count and
// broken-section list.
func (e *IncrementalEngine) Stats() IncrementalEngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := IncrementalEngineStats{Epoch: e.epoch, Rows: e.rows, Rebuilds: e.rebuilds}
	for i, sec := range e.sections {
		if e.broken[i] {
			st.Broken = append(st.Broken, sec.ID)
		}
	}
	return st
}
