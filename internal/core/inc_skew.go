package core

import (
	"slices"

	"dcfail/internal/fot"
	"dcfail/internal/stats"
)

// serverSkewState carries Fig. 7's per-server failure counts plus the
// running maximum (count, smallest host holding it).
type serverSkewState struct {
	counts   map[uint64]int
	total    int
	maxCount int
	maxHost  uint64
}

// UpdateServerSkew folds appended rows into the Fig. 7 state.
func UpdateServerSkew(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*serverSkewState)
	cols := ix.Cols()
	var next *serverSkewState
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		if next == nil {
			next = &serverSkewState{counts: make(map[uint64]int)}
			if st != nil {
				next.counts = st.counts // absorbed: prev handed off
				next.total = st.total
				next.maxCount = st.maxCount
				next.maxHost = st.maxHost
			}
		}
		h := cols.Host[r]
		c := next.counts[h] + 1
		next.counts[h] = c
		next.total++
		// Counts only grow, so the running max needs two cases: a new
		// unique maximum, or h joining the current maximum from below —
		// ties keep the smallest host, as the full path's ascending scan
		// with strict > does.
		if c > next.maxCount {
			next.maxCount, next.maxHost = c, h
		} else if c == next.maxCount && h < next.maxHost {
			next.maxHost = h
		}
	}
	if next == nil {
		if st == nil {
			return &serverSkewState{counts: make(map[uint64]int)}, nil
		}
		return prev, nil
	}
	return next, nil
}

// ServerSkewFromState renders Fig. 7 from carried state, byte-identical
// to ServerSkewIndexed.
func ServerSkewFromState(state SectionState, ix *fot.TraceIndex) (*ServerSkewResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*serverSkewState)
	counts := make([]int, 0, len(st.counts))
	for _, n := range st.counts {
		counts = append(counts, n)
	}
	slices.SortFunc(counts, func(a, b int) int { return b - a })

	res := &ServerSkewResult{
		FailedServers: len(counts),
		TotalFailures: st.total,
		TopShare:      make(map[float64]float64),
		MaxOneServer:  st.maxCount,
		MaxServer:     st.maxHost,
	}
	cum := 0
	cdf := make([]stats.Point, 0, 257)
	step := len(counts)/256 + 1
	for i, n := range counts {
		cum += n
		if i%step == 0 || i == len(counts)-1 {
			cdf = append(cdf, stats.Point{
				X: float64(i+1) / float64(len(counts)),
				Y: float64(cum) / float64(res.TotalFailures),
			})
		}
	}
	res.CDF = cdf
	for _, p := range []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50} {
		k := int(p * float64(len(counts)))
		if k < 1 {
			k = 1
		}
		sum := 0
		for _, n := range counts[:k] {
			sum += n
		}
		res.TopShare[p] = float64(sum) / float64(res.TotalFailures)
	}
	return res, nil
}

// repeatState carries §III-D's host sets; the per-instance repair flags
// live in the instances fact.
type repeatState struct {
	serversWithRepeat map[uint64]bool
	hostsSeen         map[uint64]bool
}

func newRepeatState() *repeatState {
	return &repeatState{serversWithRepeat: make(map[uint64]bool), hostsSeen: make(map[uint64]bool)}
}

// UpdateRepeats folds the instances fact's (facts[0]) new first-instance
// and newly repeated rows into the §III-D host sets. Every host's first
// failure row is a first instance, and a host has a repeat exactly when
// one of its instances was marked repeated, so those rows suffice.
func UpdateRepeats(prev SectionState, facts []Fact, ix *fot.TraceIndex, _ []int32) (SectionState, error) {
	st, _ := prev.(*repeatState)
	if !facts[0].Changed {
		if st == nil {
			return newRepeatState(), nil
		}
		return prev, nil
	}
	inst := facts[0].State.(*instanceTable)
	cols := ix.Cols()
	next := &repeatState{}
	if st != nil {
		*next = *st // containers absorbed: prev handed off
	} else {
		next = newRepeatState()
	}
	for _, r := range inst.first {
		next.hostsSeen[cols.Host[r]] = true
	}
	for _, r := range inst.repeats {
		next.serversWithRepeat[cols.Host[r]] = true
	}
	return next, nil
}

// RepeatsFromState renders §III-D from carried state and the instances
// fact, byte-identical to RepeatAnalysisIndexed.
func RepeatsFromState(state, instances SectionState, ix *fot.TraceIndex) (*RepeatResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*repeatState)
	inst := instances.(*instanceTable)
	res := &RepeatResult{
		FailedServers:  len(st.hostsSeen),
		FixedGroups:    inst.fixed,
		RepeatedGroups: inst.repeated,
	}
	if res.FixedGroups > 0 {
		res.NeverRepeatFraction = 1 - float64(res.RepeatedGroups)/float64(res.FixedGroups)
	}
	res.ServersWithRepeats = len(st.serversWithRepeat)
	if res.FailedServers > 0 {
		res.RepeatServerFraction = float64(res.ServersWithRepeats) / float64(res.FailedServers)
	}
	return res, nil
}
