package core

import (
	"dcfail/internal/fot"
)

// instKey identifies one failing component instance — the repeat-dedup
// key of fot.TraceIndex.FirstInstanceRows.
type instKey struct {
	host      uint64
	dev       uint8
	slot, typ uint32
}

// Per-instance repair flags: instFixed once a fixing ticket hit the
// instance, instRepeated once a failure hit it after that.
const (
	instFixed    = 1
	instRepeated = 2
)

// instanceTable is the instances fact: every failing component instance
// seen so far, keyed by (host, device, slot, type), with its repair
// flags. It is the one dedup step the rack, lifecycle, correlated-pair
// and repeat analyses rest on. first and repeated describe the fold that
// produced this state only; readers consult them when the fact changed.
type instanceTable struct {
	flags    map[instKey]uint8
	fixed    int     // instances with instFixed
	repeated int     // instances with instRepeated
	first    []int32 // this fold's first-instance rows, in fold order
	repeats  []int32 // this fold's rows that first marked their instance repeated
}

// InstancesFact returns the instances fold fact. It changes identity on
// every fold that adds an instance or moves a repair flag; a fold of
// false alarms, or of failures that leave every flag as it was, carries
// it unchanged.
func InstancesFact() *FoldFact {
	return &FoldFact{ID: "instances", Update: updateInstances}
}

func updateInstances(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*instanceTable)
	cols := ix.Cols()
	var flags map[instKey]uint8 // read view: prev's table until next absorbs it
	if st != nil {
		flags = st.flags
	}
	var next *instanceTable
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		k := instKey{cols.Host[r], cols.Device[r], cols.SlotSym[r], cols.TypeSym[r]}
		g, seen := flags[k]
		ng := g
		if g&instFixed != 0 {
			ng |= instRepeated
		}
		if fot.Category(cols.Category[r]) == fot.Fixing {
			ng |= instFixed
		}
		if seen && ng == g {
			continue
		}
		if next == nil {
			next = &instanceTable{flags: flags}
			if st != nil { // absorbed: prev handed off
				next.fixed, next.repeated = st.fixed, st.repeated
			} else {
				next.flags = make(map[instKey]uint8)
				flags = next.flags
			}
		}
		next.flags[k] = ng
		if !seen {
			next.first = append(next.first, r)
		}
		if ng&^g&instFixed != 0 {
			next.fixed++
		}
		if ng&^g&instRepeated != 0 {
			next.repeated++
			next.repeats = append(next.repeats, r)
		}
	}
	if next == nil {
		if st == nil {
			return &instanceTable{flags: make(map[instKey]uint8)}, nil
		}
		return prev, nil
	}
	return next, nil
}

// newFirstInstances returns the current fold's first-instance rows from
// an instances fact view: none when the fold left the fact unchanged.
func newFirstInstances(f Fact) []int32 {
	if !f.Changed {
		return nil
	}
	return f.State.(*instanceTable).first
}
