package core

import (
	"slices"

	"dcfail/internal/fot"
)

// incComponents is the dense component-code array size (codes 1..N).
var incComponents = len(fot.Components()) + 1

// categoryBreakdownState carries Table I's per-category ticket counts.
type categoryBreakdownState struct {
	counts [8]int // indexed by category code
}

// UpdateCategoryBreakdown folds appended rows into the Table I state.
func UpdateCategoryBreakdown(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*categoryBreakdownState)
	next := &categoryBreakdownState{}
	if st != nil {
		next.counts = st.counts
	}
	cols := ix.Cols()
	for _, r := range newRows {
		next.counts[cols.Category[r]]++
	}
	return next, nil
}

// CategoryBreakdownFromState renders Table I's result from carried state,
// byte-identical to CategoryBreakdownIndexed over the same prefix.
func CategoryBreakdownFromState(state SectionState, ix *fot.TraceIndex) (*CategoryBreakdownResult, error) {
	if ix == nil || ix.Len() == 0 {
		return nil, errEmptyTrace()
	}
	st := state.(*categoryBreakdownState)
	total := ix.Len()
	decisions := map[fot.Category]string{
		fot.Fixing:     "Issue a repair order (RO)",
		fot.Error:      "Not repair and set to decommission",
		fot.FalseAlarm: "Mark as a false alarm",
	}
	res := &CategoryBreakdownResult{Total: total}
	for _, cat := range []fot.Category{fot.Fixing, fot.Error, fot.FalseAlarm} {
		n := st.counts[cat]
		res.Rows = append(res.Rows, CategoryShare{
			Category: cat,
			Decision: decisions[cat],
			Count:    n,
			Fraction: float64(n) / float64(total),
		})
	}
	return res, nil
}

// componentBreakdownState carries Table II's dense failure counts per
// component code plus the failure total.
type componentBreakdownState struct {
	counts   []int // len incComponents, indexed by component code
	failures int
}

// UpdateComponentBreakdown folds appended rows into the Table II state.
// Batches without failure rows leave the output untouched and return
// prev unchanged.
func UpdateComponentBreakdown(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*componentBreakdownState)
	cols := ix.Cols()
	var next *componentBreakdownState
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		if next == nil {
			next = &componentBreakdownState{counts: make([]int, incComponents)}
			if st != nil {
				copy(next.counts, st.counts)
				next.failures = st.failures
			}
		}
		next.counts[cols.Device[r]]++
		next.failures++
	}
	if next == nil {
		if st == nil {
			// First fold of a failure-free prefix still needs a state so
			// the empty-trace guard can give way to the no-failures one.
			return &componentBreakdownState{counts: make([]int, incComponents)}, nil
		}
		return prev, nil
	}
	return next, nil
}

// ComponentBreakdownFromState renders Table II's result from carried
// state, byte-identical to ComponentBreakdownIndexed.
func ComponentBreakdownFromState(state SectionState, ix *fot.TraceIndex) (*ComponentBreakdownResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*componentBreakdownState)
	total := st.failures
	counts := make(map[fot.Component]int, incComponents)
	for c, n := range st.counts {
		if n > 0 {
			counts[fot.Component(c)] = n
		}
	}
	res := &ComponentBreakdownResult{Total: total}
	for _, c := range sortedComponentsByCount(counts) {
		res.Rows = append(res.Rows, ComponentShare{
			Component: c,
			Count:     counts[c],
			Fraction:  float64(counts[c]) / float64(total),
		})
	}
	return res, nil
}

// typeBreakdownState carries Fig. 2's dense per-component failure-type
// counters: counts[device][type symbol].
type typeBreakdownState struct {
	counts   [][]int // [component code][type symbol], grown on demand
	perComp  []int   // failures per component code
	failures int
}

// UpdateTypeBreakdown folds appended rows into the Fig. 2 state. Interned
// type symbols are stable across index extensions, so the dense counter
// columns carry over untouched.
func UpdateTypeBreakdown(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*typeBreakdownState)
	cols := ix.Cols()
	var next *typeBreakdownState
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		if next == nil {
			next = &typeBreakdownState{counts: make([][]int, incComponents), perComp: make([]int, incComponents)}
			if st != nil {
				copy(next.counts, st.counts)
				copy(next.perComp, st.perComp)
				next.failures = st.failures
			}
		}
		dev := cols.Device[r]
		sym := int(cols.TypeSym[r])
		if len(next.counts[dev]) <= sym {
			grown := make([]int, cols.TypeCount())
			copy(grown, next.counts[dev])
			next.counts[dev] = grown
		}
		next.counts[dev][sym]++
		next.perComp[dev]++
		next.failures++
	}
	if next == nil {
		if st == nil {
			return &typeBreakdownState{counts: make([][]int, incComponents), perComp: make([]int, incComponents)}, nil
		}
		return prev, nil
	}
	return next, nil
}

// TypeBreakdownFromState renders one Fig. 2 component's result from
// carried state, byte-identical to TypeBreakdownIndexed.
func TypeBreakdownFromState(state SectionState, ix *fot.TraceIndex, c fot.Component) (*TypeBreakdownResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*typeBreakdownState)
	total := st.perComp[c]
	if total == 0 {
		return nil, errNoTickets("component", c.String())
	}
	cols := ix.Cols()
	names := make([]string, 0, 8)
	byName := make(map[string]int, 8)
	for sym, n := range st.counts[c] {
		if n > 0 {
			name := cols.TypeName(uint32(sym))
			names = append(names, name)
			byName[name] = n
		}
	}
	slices.SortFunc(names, func(a, b string) int {
		if byName[a] != byName[b] {
			return byName[b] - byName[a]
		}
		return cmpString(a, b)
	})
	res := &TypeBreakdownResult{Component: c, Total: total}
	for _, name := range names {
		res.Rows = append(res.Rows, TypeShare{
			Type:     name,
			Count:    byName[name],
			Fraction: float64(byName[name]) / float64(total),
		})
	}
	return res, nil
}
