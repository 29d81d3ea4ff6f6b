package report

import (
	"io"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fot"
	"dcfail/internal/mine"
)

// mineSectionState composes the two analyses the "mine" section renders.
type mineSectionState struct {
	rules any
	pred  any
}

// StandardIncrementalSections returns the delta path of every standard
// section, in print order, with IDs matching StandardSections. Analyses
// several sections share are fold facts, folded once per engine: the
// temporal counts (fig3, fig4, verdicts), the all-class TBF scope (fig5,
// verdicts), the rack map (table4, fig8, verdicts) and the instances
// table the rack map, fig6, table6 and repeats dedup by.
func StandardIncrementalSections(census *core.Census) []core.IncrementalSection {
	rc := core.NewRackCensus(census)
	temporal, tbf, inst := core.TemporalFact(), core.TBFFact(), core.InstancesFact()
	rack := core.RackFact(rc, inst)
	rulesUpdate := mine.RulesUpdater(24 * time.Hour)
	predUpdate := mine.PredictorUpdater(10 * 24 * time.Hour)
	return []core.IncrementalSection{
		{ID: "verdicts", Facts: []*core.FoldFact{temporal, tbf, rack}, Update: core.TBFUpdater(fot.HDD),
			RenderState: func(state core.SectionState, facts []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.HypothesesFromState(facts[0], facts[1], state, facts[2], ix, rc)
				if err != nil {
					return err
				}
				return Hypotheses(w, r)
			}},
		{ID: "table1", Update: core.UpdateCategoryBreakdown,
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.CategoryBreakdownFromState(state, ix)
				if err != nil {
					return err
				}
				return CategoryBreakdown(w, r)
			}},
		{ID: "table2", Update: core.UpdateComponentBreakdown,
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.ComponentBreakdownFromState(state, ix)
				if err != nil {
					return err
				}
				return ComponentBreakdown(w, r)
			}},
		{ID: "fig2", Update: core.UpdateTypeBreakdown,
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				for _, c := range []fot.Component{fot.HDD, fot.RAIDCard, fot.FlashCard, fot.Memory} {
					r, err := core.TypeBreakdownFromState(state, ix, c)
					if err != nil {
						return err
					}
					if err := TypeBreakdown(w, r); err != nil {
						return err
					}
				}
				return nil
			}},
		{ID: "fig3", Facts: []*core.FoldFact{temporal},
			RenderState: func(_ core.SectionState, facts []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.DayOfWeekFromState(facts[0], ix, 0)
				if err != nil {
					return err
				}
				return DayOfWeek(w, r)
			}},
		{ID: "fig4", Facts: []*core.FoldFact{temporal},
			RenderState: func(_ core.SectionState, facts []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				for _, c := range []fot.Component{fot.HDD, fot.Misc} {
					r, err := core.HourOfDayFromState(facts[0], ix, c)
					if err != nil {
						return err
					}
					if err := HourOfDay(w, r); err != nil {
						return err
					}
				}
				return nil
			}},
		{ID: "fig5", Facts: []*core.FoldFact{tbf},
			RenderState: func(_ core.SectionState, facts []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.TBFFromState(facts[0], ix, 0)
				if err != nil {
					return err
				}
				return TBF(w, r)
			}},
		{ID: "fig6", Facts: []*core.FoldFact{inst}, Update: core.UpdateLifecycle,
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				for _, c := range []fot.Component{fot.HDD, fot.Memory, fot.RAIDCard, fot.FlashCard, fot.Misc} {
					r, err := core.LifecycleFromState(state, ix, census, c, 48)
					if err != nil {
						return err
					}
					if err := Lifecycle(w, r); err != nil {
						return err
					}
				}
				return nil
			}},
		{ID: "fig7", Update: core.UpdateServerSkew,
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.ServerSkewFromState(state, ix)
				if err != nil {
					return err
				}
				return ServerSkew(w, r)
			}},
		{ID: "repeats", Facts: []*core.FoldFact{inst}, Update: core.UpdateRepeats,
			RenderState: func(state core.SectionState, facts []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.RepeatsFromState(state, facts[0], ix)
				if err != nil {
					return err
				}
				return Repeats(w, r)
			}},
		{ID: "table4", Facts: []*core.FoldFact{rack},
			RenderState: func(_ core.SectionState, facts []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.RackAnalysisFromState(facts[0], ix, rc)
				if err != nil {
					return err
				}
				return RackAnalysis(w, r)
			}},
		{ID: "fig8", Facts: []*core.FoldFact{rack},
			RenderState: func(_ core.SectionState, facts []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				for _, idc := range []string{"dc01", "dc02"} {
					r, err := core.RackPositionsFromState(facts[0], ix, rc, idc)
					if err != nil {
						return err
					}
					if err := RackPositions(w, r); err != nil {
						return err
					}
				}
				return nil
			}},
		{ID: "table5", Update: core.BatchFrequencyUpdater(nil),
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.BatchFrequencyFromState(state, ix)
				if err != nil {
					return err
				}
				return BatchFrequency(w, r)
			}},
		{ID: "batches", Update: core.BatchWindowsUpdater(census, 30*time.Minute, 20),
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				eps, err := core.BatchWindowsFromState(state, ix, census, 30*time.Minute, 20)
				if err != nil {
					return err
				}
				return BatchEpisodes(w, eps, 10)
			}},
		{ID: "table6", Facts: []*core.FoldFact{inst}, Update: core.CorrelatedPairsUpdater(24 * time.Hour),
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.CorrelatedPairsFromState(state, ix, 24*time.Hour)
				if err != nil {
					return err
				}
				return CorrelatedPairs(w, r)
			}},
		{ID: "table8", Update: core.SyncRepeatUpdater(2 * time.Minute),
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				groups, err := core.SyncRepeatGroupsFromState(state, ix, 2*time.Minute, 3)
				if err != nil {
					return err
				}
				return SyncRepeatGroups(w, groups, 10)
			}},
		{ID: "fig9", Update: core.UpdateResponseTimes,
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				for _, cat := range []fot.Category{fot.Fixing, fot.FalseAlarm} {
					r, err := core.ResponseTimesFromState(state, ix, cat)
					if err != nil {
						return err
					}
					if err := ResponseTimes(w, cat.String(), r); err != nil {
						return err
					}
				}
				return nil
			}},
		{ID: "fig10", Update: core.UpdateResponseTimesByClass,
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.ResponseTimesByClassFromState(state, ix)
				if err != nil {
					return err
				}
				return ResponseTimesByClass(w, r)
			}},
		{ID: "fig11", Update: core.LineRTUpdater(fot.HDD),
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.ProductLineRTFromState(state, ix, fot.HDD)
				if err != nil {
					return err
				}
				return ProductLineRT(w, r, 15)
			}},
		{ID: "trend", Update: core.UpdateTrend,
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				r, err := core.TrendFromState(state, ix)
				if err != nil {
					return err
				}
				return Trend(w, r)
			}},
		{ID: "mine", Update: func(prev core.SectionState, _ []core.Fact, ix *fot.TraceIndex, newRows []int32) (core.SectionState, error) {
			st, _ := prev.(*mineSectionState)
			var pr, pp any
			if st != nil {
				pr, pp = st.rules, st.pred
			}
			nr, err := rulesUpdate(pr, ix, newRows)
			if err != nil {
				return nil, err
			}
			np, err := predUpdate(pp, ix, newRows)
			if err != nil {
				return nil, err
			}
			if st != nil && nr == pr && np == pp {
				return prev, nil
			}
			return &mineSectionState{rules: nr, pred: np}, nil
		},
			RenderState: func(state core.SectionState, _ []core.SectionState, ix *fot.TraceIndex, w io.Writer) error {
				// nil only on an empty index; the sub-renders guard on ix.
				st, _ := state.(*mineSectionState)
				if st == nil {
					st = &mineSectionState{}
				}
				rules, err := mine.RulesFromState(st.rules, ix, 24*time.Hour, 3, 3.0)
				if err != nil {
					return err
				}
				if err := MiningRules(w, rules, 12); err != nil {
					return err
				}
				eval, err := mine.PredictorFromState(st.pred, ix, 10*24*time.Hour)
				if err != nil {
					return err
				}
				return PredictorEval(w, eval)
			}},
	}
}
