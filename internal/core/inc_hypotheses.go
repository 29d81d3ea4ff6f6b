package core

import (
	"dcfail/internal/fot"
)

// HypothesesFromState renders the five verdicts, byte-identical to
// HypothesesIndexed with the same census, from the temporal fact (H1/H2),
// the all-class TBF fact (H3), the verdicts section's own HDD TBF scope
// (H4) and the rack fact (H5). The rack view may be nil — H5 is then
// skipped, exactly as the full path skips it without a census. The TBF
// and rack renders share the full path's memo slots, so whichever
// section renders first on an epoch fills them for the others. The
// states are nil only when nothing has folded (empty index); the
// sub-renders' own index guards produce the full path's errors then.
func HypothesesFromState(temporal, tbfAll, tbfHDD, rack SectionState, ix *fot.TraceIndex, rc *RackCensus) (*HypothesesResult, error) {
	res := &HypothesesResult{}

	dow, err := DayOfWeekFromState(temporal, ix, 0)
	if err != nil {
		return nil, err
	}
	res.Verdicts = append(res.Verdicts, HypothesisVerdict{
		ID:        1,
		Statement: "failures are uniform over days of the week",
		Scope:     "all components",
		Alpha:     0.01,
		Rejected:  dow.Test.Reject(0.01),
		Test:      dow.Test,
		Detail:    "weekday-only: " + dow.WeekdayTest.String(),
	})

	hod, err := HourOfDayFromState(temporal, ix, 0)
	if err != nil {
		return nil, err
	}
	res.Verdicts = append(res.Verdicts, HypothesisVerdict{
		ID:        2,
		Statement: "failures are uniform over hours of the day",
		Scope:     "all components",
		Alpha:     0.01,
		Rejected:  hod.Test.Reject(0.01),
		Test:      hod.Test,
	})

	tbf, err := TBFFromState(tbfAll, ix, 0)
	if err != nil {
		return nil, err
	}
	res.Verdicts = append(res.Verdicts, HypothesisVerdict{
		ID:        3,
		Statement: "fleet-wide TBF follows an exponential distribution",
		Scope:     "all components",
		Alpha:     0.05,
		Rejected:  tbf.AllRejected(0.05),
		Test:      fitTestOf(tbf, "exponential"),
		Detail:    "every family (exp/weibull/gamma/lognormal) tested; least-bad: " + tbf.BestFamily,
	})

	hddTBF, err := TBFFromState(tbfHDD, ix, fot.HDD)
	if err != nil {
		return nil, err
	}
	res.Verdicts = append(res.Verdicts, HypothesisVerdict{
		ID:        4,
		Statement: "per-class TBF follows an exponential distribution",
		Scope:     "hdd (dominant class)",
		Alpha:     0.05,
		Rejected:  hddTBF.AllRejected(0.05),
		Test:      fitTestOf(hddTBF, "exponential"),
	})

	if rc != nil {
		ra, err := RackAnalysisFromState(rack, ix, rc)
		if err != nil {
			return nil, err
		}
		res.Verdicts = append(res.Verdicts, HypothesisVerdict{
			ID:        5,
			Statement: "failure rate is independent of rack position",
			Scope:     "per facility (mixed verdict, as in Table IV)",
			Alpha:     0.05,
			Rejected:  ra.PLow+ra.PMid > 0,
			Detail:    sprintfTableIV(ra),
		})
	}
	return res, nil
}
