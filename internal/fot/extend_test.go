package fot

import (
	"slices"
	"testing"
	"time"
)

// epochTickets builds an append-only ticket slice in serve's epoch shape:
// the first 30 rows are one epoch, the rest a later batch that arrives
// out of time order and introduces strings the prefix never interned.
func epochTickets() []Ticket {
	tickets := make([]Ticket, 0, 48)
	for i := 1; i <= 30; i++ {
		tk := mkTicket(uint64(i))
		if i%5 == 0 {
			tk.Category = Error
		}
		if i%3 == 0 {
			tk.Device = Memory
		}
		tk.Time = t0.Add(time.Duration((i*13)%30) * time.Hour)
		tickets = append(tickets, tk)
	}
	for i := 31; i <= 48; i++ {
		tk := mkTicket(uint64(i))
		if i%4 == 0 {
			tk.Category = FalseAlarm
		}
		if i%2 == 0 {
			// Straddle the prefix's time range so the merged permutation
			// interleaves old and new rows.
			tk.Time = t0.Add(time.Duration((i*7)%30) * time.Hour)
		} else {
			tk.Time = t0.Add(time.Duration(30+i) * time.Hour)
		}
		if i%6 == 0 {
			tk.IDC = "dc-new"
			tk.ProductLine = "pl-new"
			tk.Type = "NewType"
		}
		tickets = append(tickets, tk)
	}
	return tickets
}

// requireSameViews checks that an extended index serves exactly what a
// fresh build over the same tickets serves: permutation, failure rows,
// every column value, and symbol resolution.
func requireSameViews(t *testing.T, got, want *TraceIndex) {
	t.Helper()
	if !slices.Equal(got.TimePerm(), want.TimePerm()) {
		t.Fatalf("TimePerm diverges:\n got %v\nwant %v", got.TimePerm(), want.TimePerm())
	}
	if !slices.Equal(got.FailureRows(), want.FailureRows()) {
		t.Fatalf("FailureRows diverges: got %v, want %v", got.FailureRows(), want.FailureRows())
	}
	if !slices.Equal(got.FirstInstanceRows(), want.FirstInstanceRows()) {
		t.Fatalf("FirstInstanceRows diverges")
	}
	gc, wc := got.Cols(), want.Cols()
	if gc.Len() != wc.Len() {
		t.Fatalf("Cols len %d, want %d", gc.Len(), wc.Len())
	}
	for r := int32(0); r < int32(gc.Len()); r++ {
		if gc.TimeNS[r] != wc.TimeNS[r] || gc.ID[r] != wc.ID[r] ||
			gc.Device[r] != wc.Device[r] || gc.Category[r] != wc.Category[r] {
			t.Fatalf("row %d columns diverge", r)
		}
		// Symbol ids may differ between builds; the resolved strings
		// must not.
		if gc.IDCName(gc.IDCSym[r]) != wc.IDCName(wc.IDCSym[r]) ||
			gc.LineName(gc.LineSym[r]) != wc.LineName(wc.LineSym[r]) ||
			gc.TypeName(gc.TypeSym[r]) != wc.TypeName(wc.TypeSym[r]) ||
			gc.SlotName(gc.SlotSym[r]) != wc.SlotName(wc.SlotSym[r]) {
			t.Fatalf("row %d interned strings diverge", r)
		}
	}
	// Host symbols follow first-seen row order, so every build of the
	// same rows assigns the same ones.
	if gc.HostCount() != wc.HostCount() || !slices.Equal(gc.HostSym, wc.HostSym) {
		t.Fatalf("host symbols diverge: %d hosts %v, want %d hosts %v", gc.HostCount(), gc.HostSym, wc.HostCount(), wc.HostSym)
	}
	syms := map[uint64]uint32{}
	for r, h := range gc.Host {
		if s, ok := syms[h]; ok && s != gc.HostSym[r] || int(gc.HostSym[r]) >= gc.HostCount() {
			t.Fatalf("row %d: host %d has symbol %d (earlier %d, %d hosts)", r, h, gc.HostSym[r], s, gc.HostCount())
		}
		syms[h] = gc.HostSym[r]
	}
	if len(syms) != gc.HostCount() {
		t.Fatalf("%d distinct hosts, HostCount %d", len(syms), gc.HostCount())
	}
}

func TestExtendTraceIndexMatchesFreshBuild(t *testing.T) {
	all := epochTickets()
	prev := ExtendTraceIndex(nil, NewTrace(all[:30:30]))
	prev.TimePerm() // build the prefix's columns and permutation

	ext := ExtendTraceIndex(prev, NewTrace(all))
	fresh := NewTraceIndex(NewTrace(all))
	requireSameViews(t, ext, fresh)

	// The prefix index must keep serving its own (shorter) views after
	// donating its decomposition.
	if prev.Len() != 30 || len(prev.TimePerm()) != 30 || prev.Cols().HostCount() != 30 {
		t.Errorf("prefix index changed shape after extension: len %d, perm %d, hosts %d",
			prev.Len(), len(prev.TimePerm()), prev.Cols().HostCount())
	}
}

func TestExtendSharesSymtabsWhenNoNewStrings(t *testing.T) {
	all := epochTickets()[:30]
	grown := append(slices.Clip(all), all[5], all[11]) // repeats: no unseen strings
	grown[30].ID, grown[31].ID = 1001, 1002
	prev := ExtendTraceIndex(nil, NewTrace(all))
	prev.TimePerm()
	ext := ExtendTraceIndex(prev, NewTrace(grown))
	if ext.Cols().idcs != prev.Cols().idcs || ext.Cols().types != prev.Cols().types {
		t.Error("extension with no unseen strings should share the prefix's symbol tables")
	}
	requireSameViews(t, ext, NewTraceIndex(NewTrace(grown)))
}

func TestExtendSecondExtensionFallsBackToFreshBuild(t *testing.T) {
	all := epochTickets()
	prev := ExtendTraceIndex(nil, NewTrace(all[:30:30]))
	prev.TimePerm()

	first := ExtendTraceIndex(prev, NewTrace(all[:40:40]))
	first.TimePerm() // consumes prev's one extension slot
	second := ExtendTraceIndex(prev, NewTrace(all))
	requireSameViews(t, second, NewTraceIndex(NewTrace(all)))
	requireSameViews(t, first, NewTraceIndex(NewTrace(all[:40:40])))
}

func TestExtendSkipsUnbuiltIntermediateEpochs(t *testing.T) {
	all := epochTickets()
	e0 := ExtendTraceIndex(nil, NewTrace(all[:20:20]))
	e0.TimePerm()
	e1 := ExtendTraceIndex(e0, NewTrace(all[:35:35])) // never built
	e2 := ExtendTraceIndex(e1, NewTrace(all))
	requireSameViews(t, e2, NewTraceIndex(NewTrace(all)))
}

func TestExtendNonPrefixPrevDegradesToFresh(t *testing.T) {
	all := epochTickets()
	longer := ExtendTraceIndex(nil, NewTrace(all))
	longer.TimePerm()
	// prev longer than tr: the chain must be dropped, not trusted.
	ix := ExtendTraceIndex(longer, NewTrace(all[:25:25]))
	requireSameViews(t, ix, NewTraceIndex(NewTrace(all[:25:25])))
}

func TestTraceIndexMemoBuildsOnce(t *testing.T) {
	ix := NewTraceIndex(indexTrace())
	builds := 0
	for i := 0; i < 3; i++ {
		v := ix.Memo("k", func() any {
			builds++
			return 42
		})
		if v.(int) != 42 {
			t.Fatalf("Memo returned %v, want 42", v)
		}
	}
	if builds != 1 {
		t.Fatalf("Memo ran build %d times, want 1", builds)
	}
	if v := ix.Memo("other", func() any { return "x" }); v.(string) != "x" {
		t.Fatalf("second key returned %v", v)
	}
}
