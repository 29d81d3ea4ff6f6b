package core

import (
	"slices"
	"time"

	"dcfail/internal/fot"
	"dcfail/internal/stats"
)

// summarizeRTSorted is summarizeRT against an already-sorted day sample
// with precomputed tail counts. Summarize computes every statistic on a
// sorted copy of its input, so feeding the sorted array straight through
// QuantileSorted/Mean reproduces its values bit for bit.
func summarizeRTSorted(cat fot.Category, sorted []float64, over140, over200 int) *ResponseTimesResult {
	res := &ResponseTimesResult{
		Category:   cat,
		N:          len(sorted),
		MeanDays:   stats.Mean(sorted),
		MedianDays: stats.QuantileSorted(sorted, 0.5),
		P90Days:    stats.QuantileSorted(sorted, 0.90),
		P99Days:    stats.QuantileSorted(sorted, 0.99),
		CDF:        stats.NewECDFSorted(sorted).Points(256),
	}
	res.FracOver140 = float64(over140) / float64(len(sorted))
	res.FracOver200 = float64(over200) / float64(len(sorted))
	return res
}

// responseTimesState carries Fig. 9: per-category sorted response-day
// samples with long-tail counters.
type responseTimesState struct {
	sorted  [][]float64 // [category code], ascending, fresh array per fold
	over140 []int
	over200 []int
}

// UpdateResponseTimes folds appended rows into the Fig. 9 state.
func UpdateResponseTimes(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*responseTimesState)
	cols := ix.Cols()
	var next *responseTimesState
	var fresh [8][]float64
	for _, r := range newRows {
		ns := cols.RTNS[r]
		if ns < 0 {
			continue
		}
		if next == nil {
			next = &responseTimesState{
				sorted:  make([][]float64, 8),
				over140: make([]int, 8),
				over200: make([]int, 8),
			}
			if st != nil {
				copy(next.sorted, st.sorted)
				copy(next.over140, st.over140)
				copy(next.over200, st.over200)
			}
		}
		cat := cols.Category[r]
		d := time.Duration(ns).Hours() / 24
		fresh[cat] = append(fresh[cat], d)
		if d > 140 {
			next.over140[cat]++
		}
		if d > 200 {
			next.over200[cat]++
		}
	}
	if next == nil {
		if st == nil {
			return &responseTimesState{
				sorted:  make([][]float64, 8),
				over140: make([]int, 8),
				over200: make([]int, 8),
			}, nil
		}
		return prev, nil
	}
	for cat, f := range fresh {
		if len(f) > 0 {
			next.sorted[cat] = mergeSortedGaps(next.sorted[cat], f)
		}
	}
	return next, nil
}

// ResponseTimesFromState renders one Fig. 9 category from carried state,
// byte-identical to ResponseTimesIndexed.
func ResponseTimesFromState(state SectionState, ix *fot.TraceIndex, cat fot.Category) (*ResponseTimesResult, error) {
	if ix == nil || ix.Len() == 0 {
		return nil, errEmptyTrace()
	}
	st := state.(*responseTimesState)
	days := st.sorted[cat]
	if len(days) == 0 {
		return nil, errNoTickets("category", cat.String())
	}
	return summarizeRTSorted(cat, days, st.over140[cat], st.over200[cat]), nil
}

// responseByClassState carries Fig. 10: per-component sorted day samples
// over all tickets with a recorded response.
type responseByClassState struct {
	sorted  [][]float64 // [component code]
	over140 []int
	over200 []int
}

// UpdateResponseTimesByClass folds appended rows into the Fig. 10 state.
func UpdateResponseTimesByClass(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*responseByClassState)
	cols := ix.Cols()
	var next *responseByClassState
	fresh := make([][]float64, incComponents)
	for _, r := range newRows {
		ns := cols.RTNS[r]
		if ns < 0 {
			continue
		}
		if next == nil {
			next = &responseByClassState{
				sorted:  make([][]float64, incComponents),
				over140: make([]int, incComponents),
				over200: make([]int, incComponents),
			}
			if st != nil {
				copy(next.sorted, st.sorted)
				copy(next.over140, st.over140)
				copy(next.over200, st.over200)
			}
		}
		dev := cols.Device[r]
		d := time.Duration(ns).Hours() / 24
		fresh[dev] = append(fresh[dev], d)
		if d > 140 {
			next.over140[dev]++
		}
		if d > 200 {
			next.over200[dev]++
		}
	}
	if next == nil {
		if st == nil {
			return &responseByClassState{
				sorted:  make([][]float64, incComponents),
				over140: make([]int, incComponents),
				over200: make([]int, incComponents),
			}, nil
		}
		return prev, nil
	}
	for dev, f := range fresh {
		if len(f) > 0 {
			next.sorted[dev] = mergeSortedGaps(next.sorted[dev], f)
		}
	}
	return next, nil
}

// ResponseTimesByClassFromState renders Fig. 10 from carried state,
// byte-identical to ResponseTimesByClassIndexed.
func ResponseTimesByClassFromState(state SectionState, ix *fot.TraceIndex) (map[fot.Component]*ResponseTimesResult, error) {
	if ix == nil || ix.Len() == 0 {
		return nil, errEmptyTrace()
	}
	st := state.(*responseByClassState)
	out := make(map[fot.Component]*ResponseTimesResult)
	for _, c := range fot.Components() {
		days := st.sorted[c]
		if len(days) < 8 {
			continue
		}
		out[c] = summarizeRTSorted(0, days, st.over140[c], st.over200[c])
	}
	if len(out) == 0 {
		return nil, errNoTickets("components with", "responses")
	}
	return out, nil
}

// lineRTState carries Fig. 11: per-product-line row/failure counts and
// sorted response-day samples within one component scope.
type lineRTState struct {
	rowCount []int       // [line symbol] rows in scope
	failures []int       // [line symbol] failure rows in scope
	sorted   [][]float64 // [line symbol] responded days, ascending
}

// LineRTUpdater returns the fold function of the Fig. 11 scope for
// component c (0 = all rows).
func LineRTUpdater(c fot.Component) UpdateFunc {
	return func(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
		return updateLineRT(prev, ix, newRows, c)
	}
}

func updateLineRT(prev SectionState, ix *fot.TraceIndex, newRows []int32, c fot.Component) (SectionState, error) {
	st, _ := prev.(*lineRTState)
	cols := ix.Cols()
	var next *lineRTState
	var freshSyms []uint32
	var fresh map[uint32][]float64
	grow := func(sym int) {
		if len(next.rowCount) <= sym {
			n := cols.LineCount()
			rc := make([]int, n)
			copy(rc, next.rowCount)
			next.rowCount = rc
			fl := make([]int, n)
			copy(fl, next.failures)
			next.failures = fl
			so := make([][]float64, n)
			copy(so, next.sorted)
			next.sorted = so
		}
	}
	for _, r := range newRows {
		if c != 0 && fot.Component(cols.Device[r]) != c {
			continue
		}
		if next == nil {
			next = &lineRTState{}
			if st != nil {
				next.rowCount = append([]int(nil), st.rowCount...)
				next.failures = append([]int(nil), st.failures...)
				next.sorted = append([][]float64(nil), st.sorted...)
			}
			fresh = make(map[uint32][]float64)
		}
		sym := cols.LineSym[r]
		grow(int(sym))
		next.rowCount[sym]++
		if fot.Category(cols.Category[r]).IsFailure() {
			next.failures[sym]++
		}
		if ns := cols.RTNS[r]; ns >= 0 {
			if _, ok := fresh[sym]; !ok {
				freshSyms = append(freshSyms, sym)
			}
			fresh[sym] = append(fresh[sym], time.Duration(ns).Hours()/24)
		}
	}
	if next == nil {
		if st == nil {
			return &lineRTState{}, nil
		}
		return prev, nil
	}
	for _, sym := range freshSyms {
		next.sorted[sym] = mergeSortedGaps(next.sorted[sym], fresh[sym])
	}
	return next, nil
}

// ProductLineRTFromState renders Fig. 11 from carried state,
// byte-identical to ProductLineRTIndexed.
func ProductLineRTFromState(state SectionState, ix *fot.TraceIndex, c fot.Component) (*ProductLineRTResult, error) {
	if ix == nil || ix.Len() == 0 {
		return nil, errEmptyTrace()
	}
	st := state.(*lineRTState)
	cols := ix.Cols()
	lines := make([]string, 0, len(st.rowCount))
	for sym, n := range st.rowCount {
		if n > 0 && cols.LineName(uint32(sym)) != "" {
			lines = append(lines, cols.LineName(uint32(sym)))
		}
	}
	slices.Sort(lines)

	res := &ProductLineRTResult{Component: c}
	var medians []float64
	for _, line := range lines {
		sym, _ := cols.LineSymOf(line)
		days := st.sorted[sym]
		if len(days) == 0 {
			continue
		}
		med := stats.QuantileSorted(days, 0.5)
		res.Points = append(res.Points, LineRTPoint{
			Line:         line,
			Failures:     st.failures[sym],
			MedianRTDays: med,
		})
		medians = append(medians, med)
	}
	if len(res.Points) == 0 {
		return nil, errNoTickets("product lines with", "responses")
	}
	slices.SortFunc(res.Points, func(a, b LineRTPoint) int {
		if a.Failures != b.Failures {
			return b.Failures - a.Failures
		}
		return cmpString(a.Line, b.Line)
	})
	top := len(res.Points) / 100
	if top < 1 {
		top = 1
	}
	var pooled []float64
	for _, pt := range res.Points[:top] {
		sym, _ := cols.LineSymOf(pt.Line)
		pooled = append(pooled, st.sorted[sym]...)
	}
	res.Top1PctMedianDays = stats.Median(pooled)

	small, slow := 0, 0
	for _, pt := range res.Points {
		if pt.Failures < 100 {
			small++
			if pt.MedianRTDays > 100 {
				slow++
			}
		}
	}
	if small > 0 {
		res.SmallLineOver100dFraction = float64(slow) / float64(small)
	}
	if len(medians) > 1 {
		res.MedianStdDevDays = stats.StdDev(medians)
	}
	if len(res.Points) >= 3 {
		volumes := make([]float64, len(res.Points))
		meds := make([]float64, len(res.Points))
		for i, pt := range res.Points {
			volumes[i] = float64(pt.Failures)
			meds[i] = pt.MedianRTDays
		}
		if rho, err := stats.SpearmanRho(volumes, meds); err == nil {
			res.VolumeRTCorrelation = rho
		}
	}
	return res, nil
}
