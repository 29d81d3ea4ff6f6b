package core

import (
	"dcfail/internal/fot"
)

// RackCensus pairs a census with its precomputed per-datacenter rack
// occupancy. Occupancy depends only on the census, so incremental renders
// reuse it across epochs instead of rescanning the server list; the
// counts are exactly what rackPositions recomputes per call. A nil
// census yields a nil RackCensus.
type RackCensus struct {
	census *Census
	occ    [][]int // [datacenter index][position], index 0 unused
}

// NewRackCensus precomputes rack occupancy for every census datacenter.
func NewRackCensus(census *Census) *RackCensus {
	if census == nil {
		return nil
	}
	rc := &RackCensus{census: census, occ: make([][]int, len(census.Datacenters))}
	for d := range census.Datacenters {
		rc.occ[d] = make([]int, census.Datacenters[d].PositionsPerRack+1)
	}
	for i := range census.Servers {
		s := &census.Servers[i]
		for d := range census.Datacenters {
			dc := &census.Datacenters[d]
			if s.IDC == dc.ID && s.Position >= 1 && s.Position <= dc.PositionsPerRack {
				rc.occ[d][s.Position]++
			}
		}
	}
	return rc
}

// rackState is the rack fact: first-instance failed-host positions per
// census datacenter. The full path's host map is built by
// last-write-wins over time-ordered first-instance rows; folding those
// rows in that same order preserves the overwrite semantics.
type rackState struct {
	perDC []map[uint64]int32 // [datacenter index] host -> position
}

// RackFact returns the rack fold fact for the given census view (nil
// allowed — the state then stays empty and renders fail with the census
// guard, as the full path does). It reads the fold's first-instance rows
// from inst, and changes identity only on folds that add an instance.
func RackFact(rc *RackCensus, inst *FoldFact) *FoldFact {
	return &FoldFact{ID: "rack", Facts: []*FoldFact{inst},
		Update: func(prev SectionState, facts []Fact, ix *fot.TraceIndex, _ []int32) (SectionState, error) {
			return updateRack(prev, ix, newFirstInstances(facts[0]), rc)
		}}
}

// updateRack folds first, the fold's first-instance rows in time order.
func updateRack(prev SectionState, ix *fot.TraceIndex, first []int32, rc *RackCensus) (SectionState, error) {
	st, _ := prev.(*rackState)
	if len(first) == 0 {
		if st == nil {
			return newRackState(rc), nil
		}
		return prev, nil
	}
	next := &rackState{}
	if st != nil {
		next.perDC = st.perDC // absorbed: prev handed off
	} else {
		next = newRackState(rc)
	}
	if rc == nil {
		return next, nil
	}
	cols := ix.Cols()
	symToDC := make(map[uint32]int, len(rc.census.Datacenters))
	for d := range rc.census.Datacenters {
		if sym, ok := cols.IDCSymOf(rc.census.Datacenters[d].ID); ok {
			symToDC[sym] = d
		}
	}
	for _, r := range first {
		d, ok := symToDC[cols.IDCSym[r]]
		if !ok {
			continue
		}
		if pos := cols.Position[r]; pos >= 1 && pos <= int32(rc.census.Datacenters[d].PositionsPerRack) {
			next.perDC[d][cols.Host[r]] = pos
		}
	}
	return next, nil
}

func newRackState(rc *RackCensus) *rackState {
	st := &rackState{}
	if rc != nil {
		st.perDC = make([]map[uint64]int32, len(rc.census.Datacenters))
		for d := range st.perDC {
			st.perDC[d] = make(map[uint64]int32)
		}
	}
	return st
}

// RackAnalysisFromState renders Table IV from carried state,
// byte-identical to RackAnalysisIndexed — including sharing its memo
// slot with the hypotheses section.
func RackAnalysisFromState(state SectionState, ix *fot.TraceIndex, rc *RackCensus) (*RackAnalysisResult, error) {
	if ix == nil || ix.Len() == 0 {
		return nil, errEmptyTrace()
	}
	m := ix.Memo("core.rack", func() any {
		res, err := rackAnalysisFromStateUncached(state.(*rackState), ix, rc)
		return rackMemo{res, err}
	}).(rackMemo)
	return m.res, m.err
}

func rackAnalysisFromStateUncached(st *rackState, ix *fot.TraceIndex, rc *RackCensus) (*RackAnalysisResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	if rc == nil || len(rc.census.Datacenters) == 0 {
		return nil, errNoTickets("census for", "rack analysis")
	}
	res := &RackAnalysisResult{}
	modern, modernOK := 0, 0
	for d := range rc.census.Datacenters {
		dc := rc.census.Datacenters[d]
		one, err := rackPositionsFromState(st, rc, d)
		if err != nil {
			continue
		}
		res.PerDC = append(res.PerDC, *one)
		switch {
		case one.Test.P < 0.01:
			res.PLow++
		case one.Test.P < 0.05:
			res.PMid++
		default:
			res.PHigh++
		}
		if dc.BuiltYear >= 2014 {
			modern++
			if !one.Test.Reject(0.02) {
				modernOK++
			}
		}
	}
	if len(res.PerDC) == 0 {
		return nil, errNoTickets("datacenters with", "rack data")
	}
	if modern > 0 {
		res.ModernNonRejectFraction = float64(modernOK) / float64(modern)
	}
	return res, nil
}

// RackPositionsFromState renders one Fig. 8 subplot from carried state,
// byte-identical to RackPositionsIndexed.
func RackPositionsFromState(state SectionState, ix *fot.TraceIndex, rc *RackCensus, idc string) (*RackPositionResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*rackState)
	if rc != nil {
		for d := range rc.census.Datacenters {
			if rc.census.Datacenters[d].ID == idc {
				return rackPositionsFromState(st, rc, d)
			}
		}
	}
	return nil, errNoTickets("datacenter", idc)
}

// rackPositionsFromState is rackPositions against the carried host map
// and precomputed occupancy of one census datacenter.
func rackPositionsFromState(st *rackState, rc *RackCensus, d int) (*RackPositionResult, error) {
	dc := rc.census.Datacenters[d]
	res := &RackPositionResult{
		IDC:       dc.ID,
		BuiltYear: dc.BuiltYear,
		Positions: dc.PositionsPerRack,
		Failures:  make([]int, dc.PositionsPerRack+1),
		Occupancy: make([]int, dc.PositionsPerRack+1),
		Ratio:     make([]float64, dc.PositionsPerRack+1),
	}
	copy(res.Occupancy, rc.occ[d])
	for _, pos := range st.perDC[d] {
		res.Failures[pos]++
	}
	var positions []int
	totalFailed, totalOcc := 0, 0
	for p := 1; p <= dc.PositionsPerRack; p++ {
		if res.Occupancy[p] == 0 {
			continue
		}
		res.Ratio[p] = float64(res.Failures[p]) / float64(res.Occupancy[p])
		positions = append(positions, p)
		totalFailed += res.Failures[p]
		totalOcc += res.Occupancy[p]
	}
	if len(positions) < 3 || totalFailed == 0 {
		return nil, errNoTickets("occupied positions in", dc.ID)
	}
	res.Test = contingencyTest(res.Failures, res.Occupancy, positions, totalFailed, totalOcc)
	res.Anomalies = rateAnomalies(res.Failures, res.Occupancy, positions, totalFailed, totalOcc)
	return res, nil
}
