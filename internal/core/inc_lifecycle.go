package core

import (
	"fmt"
	"sort"
	"time"

	"dcfail/internal/fot"
)

// lifecycleState carries Fig. 6's first-instance failure census: one
// age-month histogram per component class over deduplicated failures,
// plus the first-instance time span that bounds the exposure window.
type lifecycleState struct {
	counts    [][]int // [component code][service month], grown on demand
	loNS      int64   // time of the earliest first-instance row
	hiNS      int64   // time of the latest first-instance row
	haveFirst bool
}

func (st *lifecycleState) clone() *lifecycleState {
	return &lifecycleState{
		counts:    append([][]int(nil), st.counts...),
		loNS:      st.loNS,
		hiNS:      st.hiNS,
		haveFirst: st.haveFirst,
	}
}

// UpdateLifecycle folds the fold's first-instance rows, read from the
// instances fact (facts[0]), into the Fig. 6 state.
func UpdateLifecycle(prev SectionState, facts []Fact, ix *fot.TraceIndex, _ []int32) (SectionState, error) {
	st, _ := prev.(*lifecycleState)
	first := newFirstInstances(facts[0])
	if len(first) == 0 {
		if st == nil {
			return &lifecycleState{counts: make([][]int, incComponents)}, nil
		}
		return prev, nil
	}
	cols := ix.Cols()
	var next *lifecycleState
	if st != nil {
		next = st.clone()
	} else {
		next = &lifecycleState{counts: make([][]int, incComponents)}
	}
	for _, r := range first {
		t := cols.TimeNS[r]
		if !next.haveFirst {
			next.loNS = t
			next.haveFirst = true
		}
		next.hiNS = t
		ns := cols.AgeNS[r]
		if ns < 0 {
			continue
		}
		m := int(time.Duration(ns).Hours() / hoursPerMonth)
		if m < 0 {
			continue
		}
		dev := cols.Device[r]
		if len(next.counts[dev]) <= m {
			grown := make([]int, m+1)
			copy(grown, next.counts[dev])
			next.counts[dev] = grown
		}
		next.counts[dev][m]++
	}
	return next, nil
}

// LifecycleFromState renders one Fig. 6 result from carried state,
// byte-identical to LifecycleRatesIndexed. The census exposure pass —
// the dominant cost — is memoized per epoch and computed for every
// component class at once, preserving the full path's exact float
// expression shapes so the rates match bit for bit.
func LifecycleFromState(state SectionState, ix *fot.TraceIndex, census *Census, c fot.Component, horizon int) (*LifecycleResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*lifecycleState)
	if census == nil {
		return nil, errNoTickets("census for", c.String())
	}
	if horizon < 1 {
		horizon = 48
	}
	if !st.haveFirst {
		return nil, errEmptyTrace()
	}
	res := &LifecycleResult{
		Component:  c,
		Counts:     make([]int, horizon),
		Exposure:   make([]float64, horizon),
		Rates:      make([]float64, horizon),
		Normalized: make([]float64, horizon),
	}
	copy(res.Counts, st.counts[c])
	exp := ix.Memo(fmt.Sprintf("core.lifecycle.exp.%d", horizon), func() any {
		return censusExposure(census, st.loNS, st.hiNS, horizon)
	}).([][]float64)
	copy(res.Exposure, exp[c])
	maxRate := 0.0
	for m := range res.Rates {
		if res.Exposure[m] > 0 {
			res.Rates[m] = float64(res.Counts[m]) / res.Exposure[m]
		}
		if res.Rates[m] > maxRate {
			maxRate = res.Rates[m]
		}
	}
	if maxRate > 0 {
		for m := range res.Normalized {
			res.Normalized[m] = res.Rates[m] / maxRate
		}
	}
	return res, nil
}

// censusExposureDense is the census flattened for the exposure scan:
// deploy times as nanoseconds and each server's nonzero component counts
// as a CSR run of (class, float count) pairs, in ascending class order —
// the same values, in the same order, the map-shaped walk produced.
type censusExposureDense struct {
	deployNS []int64
	off      []int32 // len(servers)+1; server i owns cls/fvs[off[i]:off[i+1]]
	cls      []uint8
	fvs      []float64
}

// exposureDense builds the dense layout once per census. The census is
// immutable after construction while exposure re-derives every epoch, so
// the per-server map reads and int→float conversions move out of the
// per-epoch path entirely.
func (c *Census) exposureDense() *censusExposureDense {
	c.expOnce.Do(func() {
		d := &censusExposureDense{
			deployNS: make([]int64, len(c.Servers)),
			off:      make([]int32, len(c.Servers)+1),
		}
		for i := range c.Servers {
			s := &c.Servers[i]
			d.deployNS[i] = s.DeployTime.UnixNano()
			for cc := 1; cc < incComponents; cc++ {
				if n := s.Components[fot.Component(cc)]; n != 0 {
					d.cls = append(d.cls, uint8(cc))
					d.fvs = append(d.fvs, float64(n))
				}
			}
			d.off[i+1] = int32(len(d.cls))
		}
		c.expDense = d
	})
	return c.expDense
}

// censusExposure runs addExposure's arithmetic for every component class
// in one pass over the census, on int64 nanoseconds. Each float operation
// mirrors addExposure exactly (same expressions, same order), so the
// accumulated exposures are bit-identical to per-class full passes.
func censusExposure(census *Census, loNS, hiNS int64, horizon int) [][]float64 {
	exposure := make([][]float64, incComponents)
	for c := range exposure {
		exposure[c] = make([]float64, horizon)
	}
	const monthHours = hoursPerMonth
	// Month-boundary offsets depend only on m; computing them per server
	// would re-derive the same values census-size times over.
	offLo := make([]int64, horizon)
	offHi := make([]int64, horizon)
	hrsFull := make([]float64, horizon)
	for m := 0; m < horizon; m++ {
		offLo[m] = int64(time.Duration(float64(m) * monthHours * float64(time.Hour)))
		offHi[m] = int64(time.Duration(float64(m+1) * monthHours * float64(time.Hour)))
		// Hours() of an unclamped month window — the common case — is a
		// function of m alone; precomputing it is the same call on the
		// same duration value, so the float is bit-identical.
		hrsFull[m] = time.Duration(offHi[m] - offLo[m]).Hours()
	}
	// Accumulate month-major: the inner class loop then walks one small
	// contiguous row, and the int→float conversions hoist to one per class
	// per server. Per-cell accumulation order (server-major) and every
	// float expression are unchanged, so the sums are bit-identical; the
	// layout transposes back on return.
	byMonth := make([][]float64, horizon)
	for m := range byMonth {
		byMonth[m] = make([]float64, incComponents)
	}
	dense := census.exposureDense()
	for i := range dense.deployNS {
		deployNS := dense.deployNS[i]
		if !(hiNS > deployNS) { // !hi.After(deploy)
			continue
		}
		// The server's nonzero classes, in ascending class order — the
		// same counts, read once per census instead of once per epoch, so
		// per-cell accumulation order and every float expression are
		// unchanged.
		cls := dense.cls[dense.off[i]:dense.off[i+1]]
		fvs := dense.fvs[dense.off[i]:dense.off[i+1]]
		if len(cls) == 0 {
			continue
		}
		// Months that end before the first-instance window opens clamp to
		// an empty [wLo, wHi] and contribute nothing; start at the first
		// month whose end passes loNS instead of iterating through them.
		// For fleets deployed years before the window this skips most of
		// the horizon.
		mFirst := 0
		if gap := loNS - deployNS; gap > 0 {
			mFirst = sort.Search(horizon, func(m int) bool { return offHi[m] > gap })
		}
		for m := mFirst; m < horizon; m++ {
			mLoNS := deployNS + offLo[m]
			mHiNS := deployNS + offHi[m]
			if !(mLoNS < hiNS) { // !mLo.Before(hi)
				break
			}
			wLo, wHi := mLoNS, mHiNS
			if wLo < loNS {
				wLo = loNS
			}
			if wHi > hiNS {
				wHi = hiNS
			}
			if !(wHi > wLo) {
				continue
			}
			var hrs float64
			if wLo == mLoNS && wHi == mHiNS {
				hrs = hrsFull[m]
			} else {
				hrs = time.Duration(wHi - wLo).Hours()
			}
			row := byMonth[m]
			for j, c := range cls {
				row[c] += fvs[j] * hrs / monthHours
			}
		}
	}
	for m := 0; m < horizon; m++ {
		for c := 1; c < incComponents; c++ {
			exposure[c][m] = byMonth[m][c]
		}
	}
	return exposure
}
