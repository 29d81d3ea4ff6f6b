package core

import (
	"errors"
	"io"
	"slices"
	"testing"

	"dcfail/internal/fot"
)

// TestBrokenFactBreaksItsReaders pins the fallback rule for facts: a
// fact whose Update fails breaks every section that reads it, directly
// or through another fact, so those fall back to the full render, while
// sections that do not read it keep serving from state.
func TestBrokenFactBreaksItsReaders(t *testing.T) {
	res, _ := fixture(t)
	ix := fot.NewTraceIndex(res.Trace)
	failing := &FoldFact{ID: "failing", Update: func(SectionState, []Fact, *fot.TraceIndex, []int32) (SectionState, error) {
		return nil, errors.New("fold failed")
	}}
	derived := &FoldFact{ID: "derived", Facts: []*FoldFact{failing},
		Update: func(prev SectionState, _ []Fact, _ *fot.TraceIndex, _ []int32) (SectionState, error) {
			return prev, nil
		}}
	render := func(SectionState, []SectionState, *fot.TraceIndex, io.Writer) error { return nil }
	engine := NewIncrementalEngine([]IncrementalSection{
		{ID: "direct", Facts: []*FoldFact{failing}, RenderState: render},
		{ID: "indirect", Facts: []*FoldFact{derived}, RenderState: render},
		{ID: "table1", Update: UpdateCategoryBreakdown, RenderState: render},
	})
	engine.Advance(ix, 1)
	if got, want := engine.Stats().Broken, []string{"direct", "indirect"}; !slices.Equal(got, want) {
		t.Fatalf("broken = %v, want %v", got, want)
	}
	for id, want := range map[string]bool{"direct": false, "indirect": false, "table1": true} {
		if ok, err := engine.TryRender(id, 1, ix, io.Discard); ok != want || err != nil {
			t.Errorf("TryRender(%s) = %v, %v; want %v", id, ok, err, want)
		}
	}
}
