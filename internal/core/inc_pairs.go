package core

import (
	"cmp"
	"slices"
	"time"

	"dcfail/internal/fot"
)

// pfEvent is one power→fan candidate pair, kept so the render can
// reproduce the full path's "first 8 in ascending-host order" selection
// even though pairs form in global time order.
type pfEvent struct {
	host uint64
	a, b int32
}

// corrPairsState carries Table VI's per-host pairing automaton over
// first-instance failure rows. The full scan walks each host's rows with
// an index that advances by one on a miss and two on a pair; a single
// pending row per host replays that exactly: pair → both consumed,
// miss → the older row is discarded and the newer becomes pending.
type corrPairsState struct {
	pending     map[uint64]int32 // host -> pending row; -1 = none (host still counts as failed)
	counts      map[[2]fot.Component]int
	totalPairs  int
	miscPairs   int
	pairedHosts map[uint64]bool
	pfEvents    []pfEvent
}

// CorrelatedPairsUpdater returns the fold function of Table VI for the
// given window (<= 0 = the paper's 24h). It reads the fold's
// first-instance rows from the instances fact (facts[0]).
func CorrelatedPairsUpdater(window time.Duration) UpdateFunc {
	if window <= 0 {
		window = 24 * time.Hour
	}
	windowNS := int64(window)
	return func(prev SectionState, facts []Fact, ix *fot.TraceIndex, _ []int32) (SectionState, error) {
		return updateCorrPairs(prev, ix, newFirstInstances(facts[0]), windowNS)
	}
}

func newCorrPairsState() *corrPairsState {
	return &corrPairsState{
		pending:     make(map[uint64]int32),
		counts:      make(map[[2]fot.Component]int),
		pairedHosts: make(map[uint64]bool),
	}
}

// updateCorrPairs folds first, the fold's first-instance rows in time
// order.
func updateCorrPairs(prev SectionState, ix *fot.TraceIndex, first []int32, windowNS int64) (SectionState, error) {
	st, _ := prev.(*corrPairsState)
	cols := ix.Cols()
	powerFan := canonicalPair(fot.Power, fot.Fan)
	var next *corrPairsState
	for _, r := range first {
		if next == nil {
			if st != nil {
				next = &corrPairsState{}
				*next = *st // containers absorbed: prev handed off
			} else {
				next = newCorrPairsState()
			}
		}
		host := cols.Host[r]
		a, ok := next.pending[host]
		if !ok || a < 0 {
			next.pending[host] = r
			continue
		}
		devA, devB := fot.Component(cols.Device[a]), fot.Component(cols.Device[r])
		if cols.TimeNS[r]-cols.TimeNS[a] > windowNS || devA == devB {
			next.pending[host] = r // miss: discard the older row
			continue
		}
		key := canonicalPair(devA, devB)
		next.counts[key]++
		next.totalPairs++
		next.pairedHosts[host] = true
		if key == powerFan {
			next.pfEvents = append(next.pfEvents, pfEvent{host: host, a: a, b: r})
		}
		if devA == fot.Misc || devB == fot.Misc {
			next.miscPairs++
		}
		next.pending[host] = -1 // both consumed
	}
	if next == nil {
		if st == nil {
			return newCorrPairsState(), nil
		}
		return prev, nil
	}
	return next, nil
}

// CorrelatedPairsFromState renders Table VI from carried state,
// byte-identical to CorrelatedPairsIndexed with the same window.
func CorrelatedPairsFromState(state SectionState, ix *fot.TraceIndex, window time.Duration) (*CorrelatedPairsResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	if window <= 0 {
		window = 24 * time.Hour
	}
	st := state.(*corrPairsState)
	cols := ix.Cols()
	res := &CorrelatedPairsResult{Window: window}
	res.FailedServers = len(st.pending)
	res.TotalPairs = st.totalPairs
	res.MiscFraction = float64(st.miscPairs)
	res.ServersWithPairs = len(st.pairedHosts)
	// The full scan collects the first 8 examples walking hosts in
	// ascending order; a stable sort by host restores that order from the
	// time-ordered event log.
	events := append([]pfEvent(nil), st.pfEvents...)
	slices.SortStableFunc(events, func(x, y pfEvent) int { return cmp.Compare(x.host, y.host) })
	if len(events) > 8 {
		events = events[:8]
	}
	for _, ev := range events {
		first, second := *cols.Ticket(ev.a), *cols.Ticket(ev.b)
		if first.Device != fot.Power {
			first, second = second, first
		}
		res.PowerFanExamples = append(res.PowerFanExamples, PairExample{
			HostID: ev.host, First: first, Second: second,
		})
	}
	if res.TotalPairs > 0 {
		res.MiscFraction /= float64(res.TotalPairs)
	}
	if res.FailedServers > 0 {
		res.ServerFraction = float64(res.ServersWithPairs) / float64(res.FailedServers)
	}
	for key, n := range st.counts {
		res.Pairs = append(res.Pairs, PairCount{A: key[0], B: key[1], Count: n})
	}
	slices.SortFunc(res.Pairs, func(a, b PairCount) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		if a.A != b.A {
			return int(a.A) - int(b.A)
		}
		return int(a.B) - int(b.B)
	})
	return res, nil
}

// syncEmission mirrors SyncRepeatGroupsIndexed's emission entries.
type syncEmission struct {
	a, b  uint64
	grain int64
	key   uint64
	row   int32
}

// syncShiftRun is one (group, shift) bucketing automaton: the closed
// emissions so far plus the open bucket run.
type syncShiftRun struct {
	closed   []syncEmission
	open     []int32
	bucket   int64
	haveOpen bool
}

// syncRepeatState carries Table VIII's per-(device, type) bucket runs for
// both bucketing passes.
type syncRepeatState struct {
	groups      map[uint64]*[2]syncShiftRun
	firstByHost map[uint64]int32 // fold scratch
	runHosts    []uint64         // fold scratch
}

// SyncRepeatUpdater returns the fold function of Table VIII for the
// given skew (<= 0 = the paper's 2 minutes).
func SyncRepeatUpdater(maxSkew time.Duration) UpdateFunc {
	if maxSkew <= 0 {
		maxSkew = 2 * time.Minute
	}
	skew := int64(maxSkew / time.Second)
	return func(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
		return updateSyncRepeat(prev, ix, newRows, skew)
	}
}

func updateSyncRepeat(prev SectionState, ix *fot.TraceIndex, newRows []int32, skew int64) (SectionState, error) {
	st, _ := prev.(*syncRepeatState)
	cols := ix.Cols()
	shifts := [2]int64{0, skew / 2}
	var next *syncRepeatState
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		if next == nil {
			if st != nil {
				next = &syncRepeatState{groups: st.groups, firstByHost: st.firstByHost, runHosts: st.runHosts}
			} else {
				next = &syncRepeatState{groups: make(map[uint64]*[2]syncShiftRun), firstByHost: make(map[uint64]int32)}
			}
		}
		k := uint64(cols.Device[r])<<32 | uint64(cols.TypeSym[r])
		g := next.groups[k]
		if g == nil {
			g = &[2]syncShiftRun{}
			next.groups[k] = g
		}
		unix := cols.Ticket(r).Time.Unix()
		for si, shift := range shifts {
			run := &g[si]
			b := (unix + shift) / skew
			if !run.haveOpen {
				run.open = append(run.open[:0], r)
				run.bucket, run.haveOpen = b, true
				continue
			}
			if b == run.bucket {
				run.open = append(run.open, r)
				continue
			}
			run.closed = emitSyncRun(run.closed, cols, k, skew, run.open, next.firstByHost, &next.runHosts)
			run.open = append(run.open[:0:0], r)
			run.bucket = b
		}
	}
	if next == nil {
		if st == nil {
			return &syncRepeatState{groups: make(map[uint64]*[2]syncShiftRun), firstByHost: make(map[uint64]int32)}, nil
		}
		return prev, nil
	}
	return next, nil
}

// emitSyncRun is SyncRepeatGroupsIndexed's emitRun against one closed
// bucket run, appending to dst.
func emitSyncRun(dst []syncEmission, cols *fot.Columns, key uint64, skew int64, rows []int32, firstByHost map[uint64]int32, runHosts *[]uint64) []syncEmission {
	clear(firstByHost)
	hosts := (*runHosts)[:0]
	for _, r := range rows {
		h := cols.Host[r]
		if _, ok := firstByHost[h]; !ok {
			firstByHost[h] = r
			hosts = append(hosts, h)
		}
	}
	*runHosts = hosts
	const maxBucketHosts = 8
	if len(hosts) < 2 || len(hosts) > maxBucketHosts {
		return dst
	}
	slices.Sort(hosts)
	for i := 0; i < len(hosts); i++ {
		r := firstByHost[hosts[i]]
		grain := cols.Ticket(r).Time.Unix() / skew
		for j := i + 1; j < len(hosts); j++ {
			dst = append(dst, syncEmission{hosts[i], hosts[j], grain, key, r})
		}
	}
	return dst
}

// SyncRepeatGroupsFromState renders Table VIII from carried state,
// byte-identical to SyncRepeatGroupsIndexed with the same parameters.
// Within each group the emission order is both shift-0 passes' closed
// runs in time order, then the open run — exactly the full scan's
// per-group order — and the cross-group order is irrelevant because the
// stable sort separates groups by key before grouping.
func SyncRepeatGroupsFromState(state SectionState, ix *fot.TraceIndex, maxSkew time.Duration, minOccurrences int) ([]SyncRepeatGroup, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	if maxSkew <= 0 {
		maxSkew = 2 * time.Minute
	}
	if minOccurrences < 2 {
		minOccurrences = 2
	}
	skew := int64(maxSkew / time.Second)
	st := state.(*syncRepeatState)
	cols := ix.Cols()

	var emits []syncEmission
	firstByHost := make(map[uint64]int32) // renders may run concurrently; own scratch
	var runHosts []uint64
	for k, g := range st.groups {
		for si := range g {
			run := &g[si]
			emits = append(emits, run.closed...)
			if run.haveOpen {
				emits = emitSyncRun(emits, cols, k, skew, run.open, firstByHost, &runHosts)
			}
		}
	}

	// Group emissions by (a, b, key) instead of globally sorting all of
	// them: almost every group is far too small to reach minOccurrences
	// and can be skipped without ever being sorted. Within a group the
	// previous global (a, b, key, grain, position) sort reduces to
	// (grain, append position), which the per-group sort reproduces —
	// append order within one group is deterministic regardless of the
	// state-map walk above, so index order stands in for it. Group
	// processing order does not matter: (HostA, HostB, Component, Type)
	// identifies a group uniquely, so the final sort below totally
	// determines the output order.
	type syncEmitGroup struct{ a, b, key uint64 }
	counts := make(map[syncEmitGroup]int32, len(emits)/2)
	for i := range emits {
		e := &emits[i]
		counts[syncEmitGroup{e.a, e.b, e.key}]++
	}
	// Lay the surviving groups out in one flat index buffer (CSR-style)
	// instead of a slice per group: groups under minOccurrences — the
	// vast majority — get no slots at all, and the fill pass walks emits
	// in append order, so each span preserves its group's deterministic
	// relative order.
	type groupSpan struct {
		gk       syncEmitGroup
		from, to int32
	}
	spans := make([]groupSpan, 0, 16)
	cursor := make(map[syncEmitGroup]int32, 16)
	var off int32
	for gk, cnt := range counts {
		if int(cnt) < minOccurrences { // occurrences <= emission count
			continue
		}
		//lint:ignore maporder span order never reaches the output: groups are independent and out is totally sorted below
		spans = append(spans, groupSpan{gk, off, off + cnt})
		cursor[gk] = off
		off += cnt
	}
	idxBuf := make([]int32, off)
	for i := range emits {
		e := &emits[i]
		gk := syncEmitGroup{e.a, e.b, e.key}
		p, live := cursor[gk]
		if !live {
			continue
		}
		idxBuf[p] = int32(i)
		cursor[gk] = p + 1
	}

	var out []SyncRepeatGroup
	for _, sp := range spans {
		gk, idxs := sp.gk, idxBuf[sp.from:sp.to]
		slices.SortFunc(idxs, func(xi, yi int32) int {
			if gx, gy := emits[xi].grain, emits[yi].grain; gx != gy {
				return cmp.Compare(gx, gy)
			}
			return cmp.Compare(xi, yi)
		})
		occurrences := 1
		for k := 1; k < len(idxs); k++ {
			if emits[idxs[k]].grain != emits[idxs[k-1]].grain {
				occurrences++
			}
		}
		if occurrences < minOccurrences {
			continue
		}
		g := SyncRepeatGroup{
			HostA: gk.a, HostB: gk.b,
			Occurrences: occurrences,
			Component:   fot.Component(gk.key >> 32),
			Type:        cols.TypeName(uint32(gk.key)),
			Times:       make([]time.Time, 0, occurrences),
		}
		for k, xi := range idxs {
			if k+1 < len(idxs) && emits[idxs[k+1]].grain == emits[xi].grain {
				continue
			}
			g.Times = append(g.Times, cols.Ticket(emits[xi].row).Time)
		}
		slices.SortFunc(g.Times, func(a, b time.Time) int { return a.Compare(b) })
		if len(g.Times) > 8 {
			g.Times = g.Times[:8]
		}
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b SyncRepeatGroup) int {
		if a.Occurrences != b.Occurrences {
			return b.Occurrences - a.Occurrences
		}
		if a.HostA != b.HostA {
			if a.HostA < b.HostA {
				return -1
			}
			return 1
		}
		if a.HostB != b.HostB {
			if a.HostB < b.HostB {
				return -1
			}
			return 1
		}
		if a.Component != b.Component {
			return int(a.Component) - int(b.Component)
		}
		return cmpString(a.Type, b.Type)
	})
	return out, nil
}
