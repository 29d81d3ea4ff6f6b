package core

import (
	"fmt"
	"slices"
	"time"

	"dcfail/internal/fot"
	"dcfail/internal/stats"
)

// tbfScopeState carries Fig. 5's gap series for one scope (component 0 =
// all classes): the floored gaps in chronological order (the order every
// MLE sum consumes them in, so fits stay bit-identical to the full path),
// the same multiset kept ascending for quantiles/ECDF, and per-IDC raw
// gap series for the MTBF table.
type tbfScopeState struct {
	nRows  int
	lastNS int64
	chrono []float64 // floored gaps, chronological
	sorted []float64 // same multiset, ascending, fresh array per fold

	idcN    []int       // scope rows seen per IDC symbol
	idcLast []int64     // last scope-row time per IDC symbol
	idcGaps [][]float64 // raw (unfloored) gaps per IDC symbol, chronological
}

// TBFFact returns the fold fact of the all-class TBF scope, read by
// Fig. 5 and the verdicts.
func TBFFact() *FoldFact {
	return &FoldFact{ID: "tbf", Update: TBFUpdater(0)}
}

// TBFUpdater returns the fold function of the TBF scope for component c
// (0 = all classes).
func TBFUpdater(c fot.Component) UpdateFunc {
	return func(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
		return updateTBFScope(prev, ix, newRows, c)
	}
}

func updateTBFScope(prev SectionState, ix *fot.TraceIndex, newRows []int32, c fot.Component) (SectionState, error) {
	st, _ := prev.(*tbfScopeState)
	cols := ix.Cols()
	var next *tbfScopeState
	var fresh []float64 // this fold's new floored gaps
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		if c != 0 && fot.Component(cols.Device[r]) != c {
			continue
		}
		if next == nil {
			next = &tbfScopeState{}
			if st != nil {
				*next = *st
				next.idcN = append([]int(nil), st.idcN...)
				next.idcLast = append([]int64(nil), st.idcLast...)
				next.idcGaps = append([][]float64(nil), st.idcGaps...)
			}
		}
		t := cols.TimeNS[r]
		if next.nRows > 0 {
			g := time.Duration(t - next.lastNS).Minutes()
			if g < tbfFloorMinutes {
				g = tbfFloorMinutes
			}
			next.chrono = append(next.chrono, g)
			fresh = append(fresh, g)
		}
		next.nRows++
		next.lastNS = t
		sym := int(cols.IDCSym[r])
		if len(next.idcN) <= sym {
			next.idcN = append(next.idcN, make([]int, sym+1-len(next.idcN))...)
			next.idcLast = append(next.idcLast, make([]int64, sym+1-len(next.idcLast))...)
			next.idcGaps = append(next.idcGaps, make([][]float64, sym+1-len(next.idcGaps))...)
		}
		if next.idcN[sym] > 0 {
			next.idcGaps[sym] = append(next.idcGaps[sym], time.Duration(t-next.idcLast[sym]).Minutes())
		}
		next.idcN[sym]++
		next.idcLast[sym] = t
	}
	if next == nil {
		if st == nil {
			return &tbfScopeState{}, nil
		}
		return prev, nil
	}
	if len(fresh) > 0 {
		next.sorted = mergeSortedGaps(next.sorted, fresh)
	}
	return next, nil
}

// mergeSortedGaps merges an ascending array with an unsorted batch into a
// fresh ascending array, leaving both inputs untouched.
func mergeSortedGaps(sorted, fresh []float64) []float64 {
	tail := append([]float64(nil), fresh...)
	slices.Sort(tail)
	out := make([]float64, 0, len(sorted)+len(tail))
	i, j := 0, 0
	for i < len(sorted) && j < len(tail) {
		if sorted[i] <= tail[j] {
			out = append(out, sorted[i])
			i++
		} else {
			out = append(out, tail[j])
			j++
		}
	}
	out = append(out, sorted[i:]...)
	out = append(out, tail[j:]...)
	return out
}

// TBFFromState renders the Fig. 5 result for one scope from carried
// state, byte-identical to TBFAnalysisIndexed — including sharing its
// memo slot, so the hypotheses section and Fig. 5 still compute the fits
// once per epoch between them.
func TBFFromState(state SectionState, ix *fot.TraceIndex, c fot.Component) (*TBFResult, error) {
	if ix == nil || ix.Len() == 0 {
		return nil, errEmptyTrace()
	}
	m := ix.Memo(fmt.Sprintf("core.tbf.%d", int(c)), func() any {
		res, err := tbfFromStateUncached(state.(*tbfScopeState), ix, c)
		return tbfMemo{res, err}
	}).(tbfMemo)
	return m.res, m.err
}

func tbfFromStateUncached(st *tbfScopeState, ix *fot.TraceIndex, c fot.Component) (*TBFResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	cols := ix.Cols()
	scope := "all"
	if c != 0 {
		scope = c.String()
		if st.nRows < 16 {
			return nil, errNoTickets("component", c.String())
		}
	}
	gaps := st.chrono
	if len(gaps) < 16 {
		return nil, errNoTickets("scope", scope)
	}
	res := &TBFResult{
		Scope:         scope,
		N:             len(gaps),
		MTBFMinutes:   stats.Mean(gaps),
		MedianMinutes: stats.QuantileSorted(st.sorted, 0.5),
		Fits:          stats.FitAllWithECDF(gaps, stats.NewECDFSorted(st.sorted), tbfFitBinsScope),
	}
	res.CDF = stats.NewECDFSorted(st.sorted).Points(256)
	res.PerIDCMTBF = make(map[string]float64)
	if ranked := stats.RankFitsByAIC(gaps, res.Fits); len(ranked) > 0 && ranked[0].Err == nil {
		res.BestFamily = ranked[0].Dist.Name()
	}
	for sym, g := range st.idcGaps {
		if len(g) < 2 {
			continue
		}
		if idc := cols.IDCName(uint32(sym)); idc != "" {
			res.PerIDCMTBF[idc] = stats.Mean(g)
		}
	}
	return res, nil
}
