package core

import (
	"time"

	"dcfail/internal/fot"
	"dcfail/internal/stats"
)

// trendYearAgg is one calendar year's running aggregates.
type trendYearAgg struct {
	tickets  int
	failures int
	errs     int
	gaps     []float64 // within-year consecutive failure gaps, chronological
	hosts    map[uint64]bool
	rt       []float64 // D_fixing response days, ascending (see UpdateTrend)
}

// trendState carries the year-over-year aggregates behind the trend
// section, bucketed by UTC calendar year (the full path's binary-search
// boundaries are UTC midnights).
type trendState struct {
	years        map[int]*trendYearAgg
	prevFailNS   int64
	prevFailYear int
	haveFail     bool
}

// UpdateTrend folds appended rows into the per-year trend aggregates.
func UpdateTrend(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*trendState)
	cols := ix.Cols()
	var next *trendState
	var freshRT map[int][]float64
	for _, r := range newRows {
		if next == nil {
			next = &trendState{years: make(map[int]*trendYearAgg)}
			if st != nil {
				next.years = st.years // absorbed: prev handed off
				next.prevFailNS = st.prevFailNS
				next.prevFailYear = st.prevFailYear
				next.haveFail = st.haveFail
			}
		}
		t := cols.TimeNS[r]
		year := time.Unix(0, t).UTC().Year()
		agg := next.years[year]
		if agg == nil {
			agg = &trendYearAgg{hosts: make(map[uint64]bool)}
			next.years[year] = agg
		}
		agg.tickets++
		cat := fot.Category(cols.Category[r])
		if !cat.IsFailure() {
			continue
		}
		agg.failures++
		if next.haveFail && next.prevFailYear == year {
			agg.gaps = append(agg.gaps, time.Duration(t-next.prevFailNS).Minutes())
		}
		next.prevFailNS, next.prevFailYear, next.haveFail = t, year, true
		agg.hosts[cols.Host[r]] = true
		switch cat {
		case fot.Error:
			agg.errs++
		case fot.Fixing:
			if ns := cols.RTNS[r]; ns >= 0 {
				if freshRT == nil {
					freshRT = make(map[int][]float64)
				}
				freshRT[year] = append(freshRT[year], time.Duration(ns).Hours()/24)
			}
		}
	}
	if next == nil {
		if st == nil {
			return &trendState{years: make(map[int]*trendYearAgg)}, nil
		}
		return prev, nil
	}
	// rt is carried ascending so the render's median pays a merge per
	// fold instead of a full re-sort per epoch. The median is a function
	// of the multiset alone, so the rendered value is unchanged; per-year
	// merge order is irrelevant for the same reason.
	for year, f := range freshRT {
		agg := next.years[year]
		agg.rt = mergeSortedGaps(agg.rt, f)
	}
	return next, nil
}

// TrendFromState renders the trend result from carried state,
// byte-identical to TrendIndexed.
func TrendFromState(state SectionState, ix *fot.TraceIndex) (*TrendResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*trendState)
	lo, hi, _ := ix.FailureSpan()
	res := &TrendResult{}
	for year := lo.Year(); year <= hi.Year(); year++ {
		agg := st.years[year]
		if agg == nil || agg.failures == 0 {
			continue
		}
		ys := YearStats{
			Year:     year,
			Tickets:  agg.tickets,
			Failures: agg.failures,
		}
		if len(agg.gaps) > 0 {
			ys.MTBFMinutes = stats.Mean(agg.gaps)
		}
		ys.FailedServers = len(agg.hosts)
		ys.ErrorShare = float64(agg.errs) / float64(agg.failures)
		if len(agg.rt) > 0 {
			ys.MedianRTDays = stats.Median(agg.rt)
		}
		res.Years = append(res.Years, ys)
	}
	if len(res.Years) == 0 {
		return nil, errNoTickets("years with", "failures")
	}
	return res, nil
}
