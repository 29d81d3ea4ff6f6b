// Fixture for the incpurity analyzer: incremental Update functions must
// never write through their prev state, and must not fold map iteration
// order into carried state.
package fixture

import "sort"

// SectionState mirrors the engine's state interface: the analyzer keys
// on the type name, exactly as core declares it.
type SectionState any

// Index stands in for *fot.TraceIndex; its identity is irrelevant to
// the rule.
type Index struct{}

type state struct {
	count  int
	byHost map[string]int
	hosts  []string
	gaps   []float64
}

func (st *state) clone() *state {
	next := &state{count: st.count, byHost: st.byHost}
	next.hosts = append([]string(nil), st.hosts...)
	next.gaps = append([]float64(nil), st.gaps...)
	return next
}

// updateMutatesPrev is the bug class: a snapshot holding prev may be
// mid-render while these writes land.
func updateMutatesPrev(prev SectionState, ix *Index, newRows []int32) (SectionState, error) {
	st, _ := prev.(*state)
	st.count++              // want "mutates prev or fact state"
	st.byHost["h1"] = 1     // want "mutates prev or fact state"
	st.gaps = nil           // want "mutates prev or fact state"
	delete(st.byHost, "h2") // want "mutates prev or fact state"
	st.hosts[0] = "rebound" // want "mutates prev or fact state"
	return st, nil
}

// updateMutatesParamDirectly writes through the parameter itself after a
// bare rebinding alias.
func updateMutatesParamDirectly(prev SectionState, ix *Index, newRows []int32) (SectionState, error) {
	alias := prev
	st := alias.(*state)
	st.count += len(newRows) // want "mutates prev or fact state"
	return prev, nil
}

// updateClones is the blessed idiom: assert, clone, write through the
// clone only. Rebinding the alias identifier itself writes no shared
// memory.
func updateClones(prev SectionState, ix *Index, newRows []int32) (SectionState, error) {
	st, _ := prev.(*state)
	if st == nil {
		st = &state{byHost: map[string]int{}}
		return st, nil
	}
	next := st.clone()
	next.count += len(newRows)
	next.byHost["h"] = next.count
	st = nil
	_ = st
	return next, nil
}

// Fact mirrors the engine's view of a shared fold fact.
type Fact struct {
	State   SectionState
	Changed bool
}

// updateMutatesFact writes through a shared fact, which every other
// reader of the fact (and its rendered snapshots) still sees.
func updateMutatesFact(prev SectionState, facts []Fact, ix *Index, newRows []int32) (SectionState, error) {
	shared := facts[0].State.(*state)
	shared.count++          // want "mutates prev or fact state"
	facts[0].Changed = true // want "mutates prev or fact state"
	return prev, nil
}

// updateReadsFact is the blessed four-parameter idiom: read the fact,
// write only a fresh state.
func updateReadsFact(prev SectionState, facts []Fact, ix *Index, newRows []int32) (SectionState, error) {
	shared := facts[0].State.(*state)
	next := &state{count: shared.count + len(newRows)}
	next.byHost = map[string]int{"h": shared.byHost["h"]}
	return next, nil
}

// updateMapOrderIntoState folds the map's random iteration order into a
// carried slice: every future render replays it.
func updateMapOrderIntoState(prev SectionState, ix *Index, newRows []int32) (SectionState, error) {
	st, _ := prev.(*state)
	next := st.clone()
	for h := range next.byHost {
		next.hosts = append(next.hosts, h) // want "no later sort"
	}
	return next, nil
}

// updateMapOrderSorted launders the order out before it is carried.
func updateMapOrderSorted(prev SectionState, ix *Index, newRows []int32) (SectionState, error) {
	st, _ := prev.(*state)
	next := st.clone()
	next.hosts = next.hosts[:0]
	for h := range next.byHost {
		next.hosts = append(next.hosts, h)
	}
	sort.Strings(next.hosts)
	return next, nil
}

// accumulate is not an Update implementation — same mutations, different
// shape — so the rule stays out of its way.
func accumulate(st *state, rows []int32) {
	st.count += len(rows)
	st.byHost["h"] = st.count
	delete(st.byHost, "old")
}
