package report

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dcfail/internal/core"
	"dcfail/internal/fot"
)

// fanOutWorkers are the engine widths the fan-out tests compare: the
// serial fold and a pool wider than this fixture's fact chains.
var fanOutWorkers = []int{1, 4}

// fanOutRowByRow is how many leading rows the row-by-row schedule folds
// one at a time; every epoch is checked against SerialReference, so the
// schedule stays short enough for the race detector.
const fanOutRowByRow = 200

// assembleReport renders every section of engine at epoch — from fold
// state when TryRender serves it, else by the section's full render, as
// serve falls back — and replays the results the way the serial report
// streams them. It returns the report bytes, its error text, and the ids
// that fell back.
func assembleReport(engine *core.IncrementalEngine, full []core.Section, epoch uint64, ix *fot.TraceIndex) (string, string, []string) {
	bundle := &core.ReportBundle{}
	var fellBack []string
	for _, sec := range full {
		var buf bytes.Buffer
		ok, err := engine.TryRender(sec.ID, epoch, ix, &buf)
		if !ok {
			fellBack = append(fellBack, sec.ID)
			err = sec.Render(ix, &buf)
		}
		bundle.Sections = append(bundle.Sections, core.SectionResult{ID: sec.ID, Text: buf.Bytes(), Err: err})
	}
	got, gotErr := renderSection(func(b *bytes.Buffer) error {
		_, err := bundle.WriteTo(b)
		return err
	})
	return got, gotErr, fellBack
}

// serialPrefix renders SerialReference over the first k tickets.
func serialPrefix(tickets []fot.Ticket, k int, census *core.Census) (string, string) {
	return renderSection(func(b *bytes.Buffer) error {
		return SerialReference(b, fot.NewTrace(tickets[:k]), census, nil)
	})
}

// foldFanOut folds tickets on the cuts schedule into one engine per
// fanOutWorkers width and checks, at every epoch, that every width
// returns the same changed set and broken list, renders the same report
// with the same sections falling back, and that the report equals
// SerialReference over the same prefix. Sections come from build, so a
// test can wrap fact Updates per engine.
func foldFanOut(t *testing.T, tickets []fot.Ticket, census *core.Census, cuts []int, build func() []core.IncrementalSection) {
	t.Helper()
	full := StandardSections(census)
	engines := make([]*core.IncrementalEngine, len(fanOutWorkers))
	for i, w := range fanOutWorkers {
		engines[i] = core.NewIncrementalEngine(build())
		engines[i].SetWorkers(w)
	}
	var ix *fot.TraceIndex
	for e, k := range cuts {
		epoch := uint64(e + 1)
		ix = fot.ExtendTraceIndex(ix, fot.NewTrace(tickets[:k]))
		want, wantErr := serialPrefix(tickets, k, census)
		var firstChanged map[string]bool
		var firstBroken, firstFellBack []string
		for i, engine := range engines {
			changed := engine.Advance(ix, epoch)
			broken := engine.Stats().Broken
			got, gotErr, fellBack := assembleReport(engine, full, epoch, ix)
			if got != want || gotErr != wantErr {
				t.Fatalf("workers=%d epoch %d (rows %d): report differs from SerialReference\n got err=%q\nwant err=%q",
					fanOutWorkers[i], epoch, k, gotErr, wantErr)
			}
			if i == 0 {
				firstChanged, firstBroken, firstFellBack = changed, broken, fellBack
				continue
			}
			if !equalSets(changed, firstChanged) {
				t.Fatalf("epoch %d (rows %d): workers=%d changed %v, workers=%d changed %v",
					epoch, k, fanOutWorkers[i], keys(changed), fanOutWorkers[0], keys(firstChanged))
			}
			if !slices.Equal(broken, firstBroken) || !slices.Equal(fellBack, firstFellBack) {
				t.Fatalf("epoch %d (rows %d): workers=%d broke %v and fell back %v, workers=%d broke %v and fell back %v",
					epoch, k, fanOutWorkers[i], broken, fellBack, fanOutWorkers[0], firstBroken, firstFellBack)
			}
		}
	}
}

// TestFoldFanOutDeterministic pins the concurrent fold: folding facts
// and sections on one worker or on four yields identical changed sets
// and identical renders, equal to the serial report, whether the rows
// arrive in one fold, in two halves, or one at a time.
func TestFoldFanOutDeterministic(t *testing.T) {
	tickets, census := sortedFixtureTickets(t)
	n := len(tickets)
	var rowByRow []int
	for k := 1; k <= min(fanOutRowByRow, n); k++ {
		rowByRow = append(rowByRow, k)
	}
	schedules := []struct {
		name string
		cuts []int
	}{
		{"one-shot", []int{n}},
		{"halved", []int{n / 2, n}},
		{fmt.Sprintf("row-by-row/%d", len(rowByRow)), rowByRow},
	}
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			foldFanOut(t, tickets, census, sc.cuts, func() []core.IncrementalSection {
				return StandardIncrementalSections(census)
			})
		})
	}
}

// TestFoldFanOutFailingFact fails the instances fact once the trace
// passes half the fixture. Every section reading it, directly or through
// the rack fact, must break and fall back to the full render — the same
// sections at the same epoch under every worker count — while the report
// stays equal to the serial one.
func TestFoldFanOutFailingFact(t *testing.T) {
	tickets, census := sortedFixtureTickets(t)
	n := len(tickets)
	injected := errors.New("injected instances failure")
	build := func() []core.IncrementalSection {
		sections := StandardIncrementalSections(census)
		wrapped := map[*core.FoldFact]bool{}
		for _, sec := range sections {
			for _, f := range sec.Facts {
				// Readers share the fact by pointer; rack reaches it
				// through its own Facts.
				for _, g := range append([]*core.FoldFact{f}, f.Facts...) {
					if g.ID != "instances" || wrapped[g] {
						continue
					}
					wrapped[g] = true
					update := g.Update
					g.Update = func(prev core.SectionState, facts []core.Fact, ix *fot.TraceIndex, rows []int32) (core.SectionState, error) {
						if ix.Len() > n/2 {
							return nil, injected
						}
						return update(prev, facts, ix, rows)
					}
				}
			}
		}
		return sections
	}
	foldFanOut(t, tickets, census, []int{n / 4, n / 2, 3 * n / 4, n}, build)

	// The broken set itself: every reader of instances, in section order.
	engine := core.NewIncrementalEngine(build())
	ix := fot.NewTraceIndex(fot.NewTrace(tickets))
	engine.Advance(ix, 1)
	want := []string{"verdicts", "fig6", "repeats", "table4", "fig8", "table6"}
	if got := engine.Stats().Broken; !slices.Equal(got, want) {
		t.Fatalf("broken = %v, want %v", got, want)
	}
}
