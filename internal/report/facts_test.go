package report

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fot"
)

// foldProbe wraps every fact's and section's Update of a standard
// section set, recording per Advance how often each fact folded, whether
// it folded from nil, and which facts and sections changed identity.
type foldProbe struct {
	facts    []*core.FoldFact
	calls    map[string]int
	fromNil  map[string]int
	factMove map[string]bool
	ownMove  map[string]bool
}

func newFoldProbe(sections []core.IncrementalSection) *foldProbe {
	p := &foldProbe{}
	p.reset()
	var add func(f *core.FoldFact)
	add = func(f *core.FoldFact) {
		if slices.Contains(p.facts, f) {
			return
		}
		for _, d := range f.Facts {
			add(d)
		}
		p.facts = append(p.facts, f)
		id, update := f.ID, f.Update
		f.Update = func(prev core.SectionState, facts []core.Fact, ix *fot.TraceIndex, rows []int32) (core.SectionState, error) {
			p.calls[id]++
			if prev == nil {
				p.fromNil[id]++
			}
			next, err := update(prev, facts, ix, rows)
			p.factMove[id] = next != prev
			return next, err
		}
	}
	for i := range sections {
		sec := &sections[i]
		for _, f := range sec.Facts {
			add(f)
		}
		if sec.Update == nil {
			continue
		}
		id, update := sec.ID, sec.Update
		sec.Update = func(prev core.SectionState, facts []core.Fact, ix *fot.TraceIndex, rows []int32) (core.SectionState, error) {
			next, err := update(prev, facts, ix, rows)
			p.ownMove[id] = next != prev
			return next, err
		}
	}
	return p
}

func (p *foldProbe) reset() {
	p.calls, p.fromNil = map[string]int{}, map[string]int{}
	p.factMove, p.ownMove = map[string]bool{}, map[string]bool{}
}

// wantChanged is the engine's rule restated: a section changed exactly
// when its own state or a fact it reads changed identity.
func (p *foldProbe) wantChanged(sections []core.IncrementalSection) map[string]bool {
	want := map[string]bool{}
	for _, sec := range sections {
		moved := p.ownMove[sec.ID]
		for _, f := range sec.Facts {
			moved = moved || p.factMove[f.ID]
		}
		if moved {
			want[sec.ID] = true
		}
	}
	return want
}

// TestFoldFactsFoldOncePerAdvance pins the fact contract: each shared
// fact folds exactly once per Advance on the delta path — before any
// section reads it, however many sections declare it — once from nil on
// the rebuild path, and not at all on an empty batch; and the changed
// set is exactly the sections whose own state or facts moved.
func TestFoldFactsFoldOncePerAdvance(t *testing.T) {
	tickets, census := sortedFixtureTickets(t)
	sections := StandardIncrementalSections(census)
	p := newFoldProbe(sections)
	var ids []string
	for _, f := range p.facts {
		ids = append(ids, f.ID)
	}
	slices.Sort(ids)
	if want := []string{"instances", "rack", "tbf", "temporal"}; !slices.Equal(ids, want) {
		t.Fatalf("facts = %v, want %v", ids, want)
	}
	engine := core.NewIncrementalEngine(sections)

	var ix *fot.TraceIndex
	rows := 0
	for epoch, k := range foldSchedule(rand.New(rand.NewSource(3)), len(tickets)) {
		ix = fot.ExtendTraceIndex(ix, fot.NewTrace(tickets[:k]))
		p.reset()
		changed := engine.Advance(ix, uint64(epoch))
		for _, f := range p.facts {
			want := 1
			if k == rows {
				want = 0 // no appended rows: nothing folds
			}
			if p.calls[f.ID] != want {
				t.Fatalf("epoch %d: fact %s folded %d times, want %d", epoch, f.ID, p.calls[f.ID], want)
			}
		}
		if want := p.wantChanged(sections); !equalSets(changed, want) {
			t.Fatalf("epoch %d: changed %v, want %v", epoch, keys(changed), keys(want))
		}
		rows = k
	}

	// Refold the same rows behind a disordered prefix: a rebuild folds
	// every fact once, from nil.
	half := len(tickets) / 2
	disordered := append(append([]fot.Ticket(nil), tickets[half:]...), tickets[:half]...)
	engine = core.NewIncrementalEngine(sections)
	ix = fot.NewTraceIndex(fot.NewTrace(disordered[:half]))
	engine.Advance(ix, 1)
	p.reset()
	ix = fot.ExtendTraceIndex(ix, fot.NewTrace(disordered))
	engine.Advance(ix, 2)
	if got := engine.Stats().Rebuilds; got != 1 {
		t.Fatalf("rebuilds = %d, want 1", got)
	}
	for _, f := range p.facts {
		if p.calls[f.ID] != 1 || p.fromNil[f.ID] != 1 {
			t.Fatalf("rebuild folded fact %s %d times (%d from nil), want once from nil", f.ID, p.calls[f.ID], p.fromNil[f.ID])
		}
	}
}

// TestFoldFactsCarryUnchangedSections folds crafted batches onto half the
// fixture: a false alarm moves no failure fact, so the temporal and rack
// sections carry; a repeat of a repaired instance moves the temporal, TBF
// and instances facts but adds no instance, so only the rack sections
// carry. Every render stays byte-identical to the full recompute.
func TestFoldFactsCarryUnchangedSections(t *testing.T) {
	tickets, census := sortedFixtureTickets(t)
	sections := StandardIncrementalSections(census)
	p := newFoldProbe(sections)
	engine := core.NewIncrementalEngine(sections)
	log := append([]fot.Ticket(nil), tickets[:len(tickets)/2]...)
	ix := fot.NewTraceIndex(fot.NewTrace(log))
	engine.Advance(ix, 1)

	// A fixed instance that has not repeated yet, replayed in the same
	// flag automaton the instances fact runs.
	type inst struct {
		host      uint64
		dev       fot.Component
		slot, typ string
	}
	flags := map[inst]uint8{}
	maxID := uint64(0)
	for _, tk := range log {
		maxID = max(maxID, tk.ID)
		if !tk.Category.IsFailure() {
			continue
		}
		k := inst{tk.HostID, tk.Device, tk.Slot, tk.Type}
		g := flags[k]
		if g&1 != 0 {
			g |= 2
		}
		if tk.Category == fot.Fixing {
			g |= 1
		}
		flags[k] = g
	}
	var repaired *fot.Ticket
	for i := range log {
		tk := &log[i]
		if flags[inst{tk.HostID, tk.Device, tk.Slot, tk.Type}] == 1 {
			repaired = tk
			break
		}
	}
	if repaired == nil {
		t.Fatal("fixture has no repaired, unrepeated instance")
	}

	full := StandardSections(census)
	at := log[len(log)-1].Time
	fold := func(epoch uint64, tk fot.Ticket) map[string]bool {
		t.Helper()
		maxID++
		at = at.Add(time.Minute)
		tk.ID, tk.Time = maxID, at
		log = append(log, tk)
		ix = fot.ExtendTraceIndex(ix, fot.NewTrace(log))
		p.reset()
		changed := engine.Advance(ix, epoch)
		if want := p.wantChanged(sections); !equalSets(changed, want) {
			t.Fatalf("epoch %d: changed %v, want %v", epoch, keys(changed), keys(want))
		}
		for _, sec := range full {
			fullBytes, fullErr := renderSection(func(b *bytes.Buffer) error { return sec.Render(ix, b) })
			incBytes, incErr := renderSection(func(b *bytes.Buffer) error {
				_, err := engine.TryRender(sec.ID, epoch, ix, b)
				return err
			})
			if incBytes != fullBytes || incErr != fullErr {
				t.Fatalf("epoch %d section %s diverged from the full render", epoch, sec.ID)
			}
		}
		return changed
	}

	alarm := *repaired
	alarm.Category, alarm.Action = fot.FalseAlarm, fot.ActionMarkFalseAlarm
	changed := fold(2, alarm)
	for _, id := range []string{"fig3", "fig4", "fig5", "verdicts", "table4", "fig8", "fig6", "table6", "repeats"} {
		if changed[id] {
			t.Errorf("false alarm: %s marked changed", id)
		}
	}

	repeat := *repaired
	repeat.Category = fot.Error
	changed = fold(3, repeat)
	if p.factMove["rack"] || !p.factMove["instances"] || !p.factMove["temporal"] || !p.factMove["tbf"] {
		t.Fatalf("repeat: fact moves %v, want temporal, tbf and instances but not rack", p.factMove)
	}
	for _, id := range []string{"table4", "fig8"} {
		if changed[id] {
			t.Errorf("repeat: %s marked changed", id)
		}
	}
	for _, id := range []string{"fig3", "fig4", "fig5", "verdicts", "repeats"} {
		if !changed[id] {
			t.Errorf("repeat: %s not marked changed", id)
		}
	}
}

func equalSets(a, b map[string]bool) bool {
	return slices.Equal(keys(a), keys(b))
}

func keys(m map[string]bool) []string {
	var out []string
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}
