package core

import (
	"time"

	"dcfail/internal/fot"
	"dcfail/internal/stats"
)

// temporalState is the temporal fact, read by Figs. 3 & 4 and the
// verdicts: per-component weekday and hour histograms over failure rows
// (component 0 = all classes).
type temporalState struct {
	dow  [][7]int  // [component code][weekday]
	hod  [][24]int // [component code][hour]
	fail []int     // failures per component code
}

// TemporalFact returns the temporal fold fact. All-false-alarm batches
// carry it unchanged.
func TemporalFact() *FoldFact {
	return &FoldFact{ID: "temporal", Update: updateTemporal}
}

func updateTemporal(prev SectionState, _ []Fact, ix *fot.TraceIndex, newRows []int32) (SectionState, error) {
	st, _ := prev.(*temporalState)
	cols := ix.Cols()
	var next *temporalState
	for _, r := range newRows {
		if !fot.Category(cols.Category[r]).IsFailure() {
			continue
		}
		if next == nil {
			next = &temporalState{
				dow:  make([][7]int, incComponents),
				hod:  make([][24]int, incComponents),
				fail: make([]int, incComponents),
			}
			if st != nil {
				copy(next.dow, st.dow)
				copy(next.hod, st.hod)
				copy(next.fail, st.fail)
			}
		}
		dev, wd, h := cols.Device[r], cols.Weekday[r], cols.Hour[r]
		next.dow[0][wd]++
		next.hod[0][h]++
		next.fail[0]++
		next.dow[dev][wd]++
		next.hod[dev][h]++
		next.fail[dev]++
	}
	if next == nil {
		if st == nil {
			return &temporalState{
				dow:  make([][7]int, incComponents),
				hod:  make([][24]int, incComponents),
				fail: make([]int, incComponents),
			}, nil
		}
		return prev, nil
	}
	return next, nil
}

// DayOfWeekFromState renders one Fig. 3 result from carried state,
// byte-identical to DayOfWeekIndexed.
func DayOfWeekFromState(state SectionState, ix *fot.TraceIndex, c fot.Component) (*DayOfWeekResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*temporalState)
	total := st.fail[c]
	if c != 0 && total == 0 {
		return nil, errNoTickets("component", c.String())
	}
	res := &DayOfWeekResult{Component: c, Counts: st.dow[c]}
	for d := range res.Counts {
		res.Fractions[d] = float64(res.Counts[d]) / float64(total)
	}
	var err error
	res.Test, err = stats.ChiSquareUniform(res.Counts[:])
	if err != nil {
		return nil, err
	}
	weekdays := []int{
		res.Counts[time.Monday], res.Counts[time.Tuesday], res.Counts[time.Wednesday],
		res.Counts[time.Thursday], res.Counts[time.Friday],
	}
	res.WeekdayTest, err = stats.ChiSquareUniform(weekdays)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// HourOfDayFromState renders one Fig. 4 result from carried state,
// byte-identical to HourOfDayIndexed.
func HourOfDayFromState(state SectionState, ix *fot.TraceIndex, c fot.Component) (*HourOfDayResult, error) {
	if _, err := requireFailureRows(ix); err != nil {
		return nil, err
	}
	st := state.(*temporalState)
	total := st.fail[c]
	if c != 0 && total == 0 {
		return nil, errNoTickets("component", c.String())
	}
	res := &HourOfDayResult{Component: c, Counts: st.hod[c]}
	for h := range res.Counts {
		res.Fractions[h] = float64(res.Counts[h]) / float64(total)
	}
	var err error
	res.Test, err = stats.ChiSquareUniform(res.Counts[:])
	if err != nil {
		return nil, err
	}
	return res, nil
}
