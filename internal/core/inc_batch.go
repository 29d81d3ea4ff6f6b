package core

import (
	"slices"
	"time"

	"dcfail/internal/fot"
)

// batchFrequencyState carries Table V: per-component daily failure
// counts with running threshold-crossing tallies.
type batchFrequencyState struct {
	thresholds []int
	daily      []map[int32]int // [component code] day index -> failures
	crossed    [][]int         // [component code][threshold idx] days at >= threshold
	maxDaily   []int
	counts     []int // failures per component code
	minDay     int32
	maxDay     int32
	haveDay    bool
}

// BatchFrequencyUpdater returns the fold function of Table V for the
// given thresholds (nil = the paper's 100/200/500).
func BatchFrequencyUpdater(thresholds []int) UpdateFunc {
	if len(thresholds) == 0 {
		thresholds = []int{100, 200, 500}
	}
	return func(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
		return updateBatchFrequency(prev, ix, newRows, thresholds)
	}
}

func newBatchFrequencyState(thresholds []int) *batchFrequencyState {
	st := &batchFrequencyState{
		thresholds: thresholds,
		daily:      make([]map[int32]int, incComponents),
		crossed:    make([][]int, incComponents),
		maxDaily:   make([]int, incComponents),
		counts:     make([]int, incComponents),
	}
	for c := range st.daily {
		st.daily[c] = make(map[int32]int)
		st.crossed[c] = make([]int, len(thresholds))
	}
	return st
}

func updateBatchFrequency(prev SectionState, ix *fot.TraceIndex, newRows []int32, thresholds []int) (SectionState, error) {
	st, _ := prev.(*batchFrequencyState)
	cols := ix.Cols()
	var next *batchFrequencyState
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		if next == nil {
			if st != nil {
				next = &batchFrequencyState{}
				*next = *st // containers absorbed: prev handed off
			} else {
				next = newBatchFrequencyState(thresholds)
			}
		}
		dev := cols.Device[r]
		day := cols.DayIdx[r]
		n := next.daily[dev][day] + 1
		next.daily[dev][day] = n
		next.counts[dev]++
		if n > next.maxDaily[dev] {
			next.maxDaily[dev] = n
		}
		for ti, th := range next.thresholds {
			if n == th { // first crossing of this threshold today
				next.crossed[dev][ti]++
			}
		}
		if !next.haveDay || day < next.minDay {
			next.minDay = day
		}
		if !next.haveDay || day > next.maxDay {
			next.maxDay = day
		}
		next.haveDay = true
	}
	if next == nil {
		if st == nil {
			return newBatchFrequencyState(thresholds), nil
		}
		return prev, nil
	}
	return next, nil
}

// BatchFrequencyFromState renders Table V from carried state,
// byte-identical to BatchFrequencyIndexed with the same thresholds.
func BatchFrequencyFromState(state SectionState, ix *fot.TraceIndex) (*BatchFrequencyResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*batchFrequencyState)
	days := 0
	if st.haveDay {
		days = int(st.maxDay-st.minDay) + 1
	}
	if days < 1 {
		days = 1
	}
	counts := make(map[fot.Component]int, incComponents)
	for c, n := range st.counts {
		if n > 0 {
			counts[fot.Component(c)] = n
		}
	}
	res := &BatchFrequencyResult{Thresholds: st.thresholds, Days: days}
	for _, c := range sortedComponentsByCount(counts) {
		row := BatchFrequencyRow{Component: c, R: make(map[int]float64, len(st.thresholds))}
		row.MaxDaily = st.maxDaily[c]
		for ti, th := range st.thresholds {
			// The full path sums 1.0 per qualifying day then divides; an
			// integer count converts to the identical float sum.
			row.R[th] = float64(st.crossed[c][ti]) / float64(days)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// batchRun is one open run of a (device, type) group.
type batchRun struct {
	rows   []int32
	lastNS int64
}

// batchWindowsState carries §V-A's episode mining: per-(device, type)
// open runs plus episodes already closed by a later out-of-gap ticket.
type batchWindowsState struct {
	runs     map[uint64]*batchRun
	episodes []BatchEpisode
	scratch  *episodeScratch
}

// BatchWindowsUpdater returns the fold function of the §V-A episode
// miner. The census (optional) sizes product lines for LineFraction;
// linkGap/minSize default as in BatchWindowsIndexed.
func BatchWindowsUpdater(census *Census, linkGap time.Duration, minSize int) UpdateFunc {
	if minSize < 2 {
		minSize = 2
	}
	if linkGap <= 0 {
		linkGap = 30 * time.Minute
	}
	lineSizes := make(map[string]int)
	if census != nil {
		for i := range census.Servers {
			lineSizes[census.Servers[i].ProductLine]++
		}
	}
	gapNS := int64(linkGap)
	return func(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
		return updateBatchWindows(prev, ix, newRows, lineSizes, gapNS, minSize)
	}
}

func updateBatchWindows(prev SectionState, ix *fot.TraceIndex, newRows []int32, lineSizes map[string]int, gapNS int64, minSize int) (SectionState, error) {
	st, _ := prev.(*batchWindowsState)
	cols := ix.Cols()
	var next *batchWindowsState
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		if next == nil {
			if st != nil {
				next = &batchWindowsState{runs: st.runs, episodes: st.episodes, scratch: st.scratch}
			} else {
				next = &batchWindowsState{runs: make(map[uint64]*batchRun), scratch: newEpisodeScratch()}
			}
		}
		k := uint64(cols.Device[r])<<32 | uint64(cols.TypeSym[r])
		t := cols.TimeNS[r]
		run := next.runs[k]
		if run == nil {
			next.runs[k] = &batchRun{rows: []int32{r}, lastNS: t}
			continue
		}
		if t-run.lastNS <= gapNS {
			run.rows = append(run.rows, r)
			run.lastNS = t
			continue
		}
		// Out-of-gap ticket: the open run closes exactly as the full
		// scan's run boundary would close it.
		if len(run.rows) >= minSize {
			dev := fot.Component(k >> 32)
			typ := cols.TypeName(uint32(k))
			next.episodes = append(next.episodes, summarizeEpisode(cols, dev, typ, run.rows, lineSizes, next.scratch))
		}
		next.runs[k] = &batchRun{rows: []int32{r}, lastNS: t}
	}
	if next == nil {
		if st == nil {
			return &batchWindowsState{runs: make(map[uint64]*batchRun), scratch: newEpisodeScratch()}, nil
		}
		return prev, nil
	}
	return next, nil
}

// BatchWindowsFromState renders §V-A's episodes from carried state,
// byte-identical to BatchWindowsIndexed with the same parameters. Open
// runs are summarized on the fly — they are exactly the trailing runs
// the full scan closes at end-of-input.
func BatchWindowsFromState(state SectionState, ix *fot.TraceIndex, census *Census, linkGap time.Duration, minSize int) ([]BatchEpisode, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	if minSize < 2 {
		minSize = 2
	}
	st := state.(*batchWindowsState)
	lineSizes := make(map[string]int)
	if census != nil {
		for i := range census.Servers {
			lineSizes[census.Servers[i].ProductLine]++
		}
	}
	cols := ix.Cols()
	episodes := make([]BatchEpisode, 0, len(st.episodes)+len(st.runs))
	episodes = append(episodes, st.episodes...)
	sc := newEpisodeScratch() // renders may run concurrently; don't share state scratch
	for k, run := range st.runs {
		if len(run.rows) >= minSize {
			dev := fot.Component(k >> 32)
			typ := cols.TypeName(uint32(k))
			episodes = append(episodes, summarizeEpisode(cols, dev, typ, run.rows, lineSizes, sc))
		}
	}
	slices.SortFunc(episodes, func(a, b BatchEpisode) int {
		if a.Tickets != b.Tickets {
			return b.Tickets - a.Tickets
		}
		if d := a.Start.Compare(b.Start); d != 0 {
			return d
		}
		if a.Component != b.Component {
			return int(a.Component) - int(b.Component)
		}
		return cmpString(a.Type, b.Type)
	})
	return episodes, nil
}
