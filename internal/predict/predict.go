// Package predict is the streaming failure-prediction layer (ROADMAP's
// DC-Prophet direction): it scores every host's near-term fatal-failure
// risk continuously as tickets fold in, instead of replaying history the
// way the batch §VII-A evaluation (mine.EvaluateWarningPredictor) does.
//
// The package rides the serving tier's incremental fold path. On every
// epoch advance the Engine consumes exactly the appended row range — the
// same `newRows []int32` contract core.IncrementalEngine hands its
// sections — and folds it into dense per-host feature state over the
// columnar counters:
//
//   - lifetime warning/fatal populations, classified by the exact rule
//     the batch predictor uses (failure category, non-Misc device,
//     fot.IsFatalType on the (device, type) code) — so a frozen trace's
//     per-host populations match mine.WarningFatalPopulations exactly;
//   - per-component-class ticket mix;
//   - the full sorted warning timeline per host (recent warning rate is
//     a binary search at score time, so folding stays append-only);
//   - batch-episode membership via a per-(device, type) sliding window,
//     mirroring mine.BatchDetector's 3h/20-distinct-hosts signature;
//   - time-between-failures trend: a short ring of recent inter-event
//     gaps against the lifetime mean.
//
// Scoring is pluggable (Scorer): the default is a calibrated logistic
// model over the feature vector; WarningScorer is the §VII-A baseline
// ("a recent warning predicts a fatal") lifted to host level. All state
// is advanced with fold-time (the newest folded ticket timestamp), never
// the wall clock, so replicas that fold the same epochs serve identical
// scores.
package predict

import (
	"math"
	"slices"

	"dcfail/internal/core"
	"dcfail/internal/fot"
	"dcfail/internal/mine"
)

// numClasses sizes the dense per-host per-component counters. Component
// codes start at 1; fot.CPU is the highest code in Table II order.
const numClasses = int(fot.CPU) + 1

// gapRing is how many recent inter-event gaps feed the TBF trend.
const gapRing = 4

// batchEv is one ticket inside a failure kind's sliding batch window.
type batchEv struct {
	t  int64
	hi int32 // dense host index
}

// kindWin is one (device, type) kind's sliding batch-episode window,
// the streaming analogue of mine.BatchDetector's kindWindow over dense
// host indexes.
type kindWin struct {
	events []batchEv
	hosts  map[int32]int
	// alerted marks an episode in progress: the threshold already fired
	// and every window member was stamped; later arrivals are stamped
	// one by one until the window drains below half the threshold.
	alerted bool
}

// featureState is the carried fold state: one dense row per host ever
// seen with a predictor-eligible failure ticket. It follows the
// incremental state contract (DESIGN §10): UpdateState never writes
// through its prev argument — it returns prev itself when nothing
// eligible folded, or a fresh top-level state that absorbs prev's
// containers (ownership hand-off; the engine never touches the old
// top-level value again).
type featureState struct {
	bySym   []int32          // fot.Columns.HostSym -> dense index + 1; 0 = untracked
	hostIdx map[uint64]int32 // host id -> dense index, for lookups by id
	hosts   []uint64         // dense index -> host id

	warnCnt  []int32   // lifetime eligible warnings
	fatalCnt []int32   // lifetime eligible fatals
	warnNS   [][]int64 // per host, warning times, sorted (fold order)
	classCnt []uint32  // flat [host*numClasses + class] ticket counts

	lastNS      []int64          // last eligible ticket time per host
	gapSum      []int64          // lifetime inter-event gap sum (ns)
	gapCnt      []int32          // lifetime inter-event gap count
	gaps        [][gapRing]int64 // ring of the most recent gaps
	gapPos      []int8           // next ring slot
	batchNS     []int64          // last batch-episode membership time; -1 = never
	kinds       map[uint64]*kindWin
	fatalByCode map[uint64]bool
}

func newFeatureState() *featureState {
	return &featureState{
		hostIdx:     make(map[uint64]int32),
		kinds:       make(map[uint64]*kindWin),
		fatalByCode: make(map[uint64]bool),
	}
}

// hostFor returns the dense index of the host with symbol sym and id
// host, growing every per-host column on first sight. The fold path
// indexes bySym by the index's host column; hostIdx is written only for
// new hosts.
func (st *featureState) hostFor(sym uint32, host uint64) int32 {
	if int(sym) >= len(st.bySym) {
		st.bySym = append(st.bySym, make([]int32, int(sym)+1-len(st.bySym))...)
	} else if hi := st.bySym[sym]; hi > 0 {
		return hi - 1
	}
	hi := int32(len(st.hosts))
	st.bySym[sym] = hi + 1
	st.hostIdx[host] = hi
	st.hosts = append(st.hosts, host)
	st.warnCnt = append(st.warnCnt, 0)
	st.fatalCnt = append(st.fatalCnt, 0)
	st.warnNS = append(st.warnNS, nil)
	st.classCnt = append(st.classCnt, make([]uint32, numClasses)...)
	st.lastNS = append(st.lastNS, 0)
	st.gapSum = append(st.gapSum, 0)
	st.gapCnt = append(st.gapCnt, 0)
	st.gaps = append(st.gaps, [gapRing]int64{})
	st.gapPos = append(st.gapPos, 0)
	st.batchNS = append(st.batchNS, -1)
	return hi
}

// UpdateState folds the appended rows into the next feature state with
// the default batch-episode signature (3h / 20 distinct hosts). It is
// the package's fold function and follows the incremental section
// contract exactly: prev is nil on the first fold and after a rebuild;
// newRows is the appended row range in global (time, id) order and is
// neither retained nor mutated; prev is never written through — a fold
// with no eligible rows returns prev itself (identity = unchanged), any
// other fold returns a fresh top-level state absorbing prev's containers.
func UpdateState(prev core.SectionState, ix *fot.TraceIndex, newRows []int32) (core.SectionState, error) {
	return stateUpdater(3*60*60*1e9, 20)(prev, ix, newRows)
}

// stateUpdater returns the fold function for the given batch-episode
// window and threshold (the Engine's configured values). The returned
// function has the exact incremental fold shape, so fotlint's incpurity
// rule checks its body like any section's Update.
func stateUpdater(batchWindowNS int64, batchThreshold int) func(core.SectionState, *fot.TraceIndex, []int32) (core.SectionState, error) {
	return func(prev core.SectionState, ix *fot.TraceIndex, newRows []int32) (core.SectionState, error) {
		st, _ := prev.(*featureState)
		cols := ix.Cols()
		var next *featureState
		for _, r := range newRows {
			if !fot.Category(cols.Category[r]).IsFailure() {
				continue
			}
			dev := fot.Component(cols.Device[r])
			if dev == fot.Misc {
				continue // manual reports are not detector output (§VII-A rule)
			}
			if next == nil {
				if st != nil {
					next = &featureState{}
					*next = *st // containers absorbed: prev handed off
				} else {
					next = newFeatureState()
				}
			}
			t := cols.TimeNS[r]
			hi := next.hostFor(cols.HostSym[r], cols.Host[r])

			// Population + class mix, classified exactly like the batch path.
			code := uint64(cols.Device[r])<<32 | uint64(cols.TypeSym[r])
			fatal, ok := next.fatalByCode[code]
			if !ok {
				fatal = fot.IsFatalType(dev, cols.TypeName(cols.TypeSym[r]))
				next.fatalByCode[code] = fatal
			}
			if fatal {
				next.fatalCnt[hi]++
			} else {
				next.warnCnt[hi]++
				next.warnNS[hi] = append(next.warnNS[hi], t)
			}
			next.classCnt[int(hi)*numClasses+int(dev)]++

			// TBF trend bookkeeping.
			if prevT := next.lastNS[hi]; prevT != 0 {
				gap := t - prevT
				next.gapSum[hi] += gap
				next.gapCnt[hi]++
				next.gaps[hi][next.gapPos[hi]] = gap
				next.gapPos[hi] = (next.gapPos[hi] + 1) % gapRing
			}
			next.lastNS[hi] = t

			// Batch-episode window for this failure kind.
			kw := next.kinds[code]
			if kw == nil {
				kw = &kindWin{hosts: make(map[int32]int)}
				next.kinds[code] = kw
			}
			cutoff := t - batchWindowNS
			drop := 0
			for drop < len(kw.events) && kw.events[drop].t < cutoff {
				h := kw.events[drop].hi
				if kw.hosts[h]--; kw.hosts[h] == 0 {
					delete(kw.hosts, h)
				}
				drop++
			}
			kw.events = kw.events[drop:]
			kw.events = append(kw.events, batchEv{t: t, hi: hi})
			kw.hosts[hi]++
			if len(kw.hosts) < batchThreshold/2 {
				kw.alerted = false // episode over; re-arm
			}
			switch {
			case kw.alerted:
				// Episode in progress: members were stamped when it fired;
				// only this arrival needs its membership recorded.
				next.batchNS[hi] = t
			case len(kw.hosts) >= batchThreshold:
				kw.alerted = true
				for _, ev := range kw.events {
					if t > next.batchNS[ev.hi] {
						next.batchNS[ev.hi] = t
					}
				}
			}
		}
		if next == nil {
			if st == nil {
				return newFeatureState(), nil
			}
			return prev, nil
		}
		return next, nil
	}
}

// HostFeatures is one host's feature vector at a fold-time instant, the
// input every Scorer sees and the breakdown /predict/{host} returns.
type HostFeatures struct {
	Host uint64 `json:"host"`
	// Tickets / Warnings / Fatals are the lifetime predictor-eligible
	// populations (failure category, non-Misc device); Warnings+Fatals
	// equals Tickets by construction.
	Tickets  int `json:"tickets"`
	Warnings int `json:"warnings"`
	Fatals   int `json:"fatals"`
	// RecentWarnings counts warnings in [asOf-window, asOf] — inclusive
	// on the left so a lead time of exactly the window still counts,
	// matching the batch §VII-A horizon rule.
	RecentWarnings int     `json:"recent_warnings"`
	WarnRatePerDay float64 `json:"warn_rate_per_day"`
	// TopClass is the component class with the most lifetime tickets on
	// this host (ties break in Table II code order) and its share.
	TopClass      string  `json:"top_class"`
	TopClassShare float64 `json:"top_class_share"`
	// BatchMember reports a batch-episode membership within the window.
	BatchMember bool `json:"batch_member"`
	// TBFTrend is mean(recent gaps)/mean(all gaps): < 1 means failures
	// are accelerating. 0 when fewer than two gaps exist.
	TBFTrend float64 `json:"tbf_trend"`
	// LastEventAgeHours is fold-time minus the host's newest ticket.
	LastEventAgeHours float64 `json:"last_event_age_hours"`
}

// features computes host hi's vector at asOf over the given window. Pure
// read over the state; O(log warnings) thanks to the sorted timeline.
func (st *featureState) features(hi int32, asOfNS, windowNS int64) HostFeatures {
	f := HostFeatures{
		Host:     st.hosts[hi],
		Warnings: int(st.warnCnt[hi]),
		Fatals:   int(st.fatalCnt[hi]),
	}
	f.Tickets = f.Warnings + f.Fatals
	wt := st.warnNS[hi]
	// Window [asOf-W, asOf]: first index with t >= asOf-W.
	lo, _ := slices.BinarySearch(wt, asOfNS-windowNS)
	f.RecentWarnings = len(wt) - lo
	if windowNS > 0 {
		f.WarnRatePerDay = float64(f.RecentWarnings) / (float64(windowNS) / float64(24*60*60*1e9))
	}
	base := int(hi) * numClasses
	best, bestN := 0, uint32(0)
	for c := 1; c < numClasses; c++ {
		if n := st.classCnt[base+c]; n > bestN {
			best, bestN = c, n
		}
	}
	if bestN > 0 {
		f.TopClass = fot.Component(best).String()
		f.TopClassShare = float64(bestN) / float64(f.Tickets)
	}
	f.BatchMember = st.batchNS[hi] >= 0 && st.batchNS[hi] >= asOfNS-windowNS
	if n := int(st.gapCnt[hi]); n > 0 {
		allMean := float64(st.gapSum[hi]) / float64(n)
		k := n
		if k > gapRing {
			k = gapRing
		}
		var recent int64
		for i := 0; i < k; i++ {
			recent += st.gaps[hi][i]
		}
		if allMean > 0 {
			f.TBFTrend = (float64(recent) / float64(k)) / allMean
		}
	}
	if st.lastNS[hi] != 0 {
		f.LastEventAgeHours = float64(asOfNS-st.lastNS[hi]) / float64(60*60*1e9)
	}
	return f
}

// Populations returns every tracked host's lifetime warning/fatal
// populations — the streaming-vs-batch consistency surface: on a frozen
// trace this map must equal mine.WarningFatalPopulations over the same
// index, however the rows were split across epochs.
func (st *featureState) populations() map[uint64]mine.PredictorPopulation {
	out := make(map[uint64]mine.PredictorPopulation, len(st.hosts))
	for hi, host := range st.hosts {
		out[host] = mine.PredictorPopulation{
			Warnings: int(st.warnCnt[hi]),
			Fatals:   int(st.fatalCnt[hi]),
		}
	}
	return out
}

// sigmoid is the logistic link, shared by the calibrated scorer.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
