package fot

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Columns is the structure-of-arrays decomposition of one ticket slice:
// every field an analysis filters, groups or counts on is pulled out
// into its own dense column, indexed by row number (the ticket's
// position in the source slice). Views over the trace — the failure
// subset, per-component groups, time order — are []int32 row-index
// slices into these shared columns, so deriving a view never copies a
// Ticket and never re-sorts what a shared permutation already ordered.
//
// Strings with small value sets (IDC, product line, error type, slot)
// are interned to dense uint32 symbols: grouping and equality become
// integer ops, and per-symbol groups become counting sorts. Symbols are
// assigned in first-seen row order, so they are only meaningful for
// equality and grouping — anything order-sensitive must sort the
// resolved strings, never the symbol ids.
//
// A Columns is immutable once published (see extend for the one
// controlled exception) and safe for concurrent readers.
type Columns struct {
	tickets []Ticket // shared row storage; read-only

	TimeNS   []int64 // Time.UnixNano()
	ID       []uint64
	Host     []uint64
	Device   []uint8 // Component code
	Category []uint8 // Category code
	Weekday  []uint8 // Time.Weekday(), in the ticket's own location
	Hour     []uint8 // Time.Hour(), in the ticket's own location
	DayIdx   []int32 // utcDayIndex(Time)
	Position []int32 // rack slot number
	IDCSym   []uint32
	LineSym  []uint32 // product line
	TypeSym  []uint32 // error type
	SlotSym  []uint32 // component instance within the server
	RTNS     []int64  // ResponseTime() in ns; -1 when none
	AgeNS    []int64  // AgeAtFailure() in ns; -1 when unknown
	// HostSym is the host id as a dense symbol below HostCount, so
	// per-host state can live in arrays indexed by it.
	HostSym []uint32

	// hosts interns host ids for HostSym. Unlike the string tables it is
	// never copied: every extension appends to its prefix's table in
	// place (extend claims the prefix exclusively), and nothing looks a
	// host up after the build, so a prefix's readers never see the
	// appends. hostCount is this Columns' own share of it.
	hosts     map[uint64]uint32
	hostCount int

	idcs  *symtab
	lines *symtab
	types *symtab
	slots *symtab

	// Perm support. parent links an extended Columns to the prefix it
	// grew from until the permutation is built; extended marks a prefix
	// that has already donated its spare array capacity to one
	// extension (a second concurrent extension falls back to a fresh
	// build instead of racing on the shared backing arrays).
	parent    *Columns
	parentLen int
	extended  atomic.Bool

	permOnce sync.Once
	permVal  []int32
	permDone atomic.Bool
}

// Len returns the number of rows.
func (c *Columns) Len() int { return len(c.TimeNS) }

// Ticket returns a read-only pointer to row r's full ticket, for the
// cold fields (Hostname, Detail, Model, raw time.Time values) that do
// not justify a column.
func (c *Columns) Ticket(r int32) *Ticket { return &c.tickets[r] }

// IDCName resolves an IDC symbol. Symbol ids are first-seen order —
// resolve before sorting, never sort by id.
func (c *Columns) IDCName(sym uint32) string { return c.idcs.strs[sym] }

// LineName resolves a product-line symbol.
func (c *Columns) LineName(sym uint32) string { return c.lines.strs[sym] }

// TypeName resolves an error-type symbol.
func (c *Columns) TypeName(sym uint32) string { return c.types.strs[sym] }

// SlotName resolves a slot symbol.
func (c *Columns) SlotName(sym uint32) string { return c.slots.strs[sym] }

// IDCSymOf looks up the symbol for an IDC string; ok is false when the
// string never occurs in the trace.
func (c *Columns) IDCSymOf(idc string) (uint32, bool) { return c.idcs.lookup(idc) }

// LineSymOf looks up the symbol for a product-line string.
func (c *Columns) LineSymOf(line string) (uint32, bool) { return c.lines.lookup(line) }

// TypeSymOf looks up the symbol for an error-type string.
func (c *Columns) TypeSymOf(typ string) (uint32, bool) { return c.types.lookup(typ) }

// IDCCount returns the number of distinct IDC symbols.
func (c *Columns) IDCCount() int { return len(c.idcs.strs) }

// LineCount returns the number of distinct product-line symbols.
func (c *Columns) LineCount() int { return len(c.lines.strs) }

// TypeCount returns the number of distinct error-type symbols.
func (c *Columns) TypeCount() int { return len(c.types.strs) }

// HostCount returns the number of distinct host symbols.
func (c *Columns) HostCount() int { return c.hostCount }

// symtab interns strings to dense uint32 symbols in first-seen order.
type symtab struct {
	ids  map[string]uint32
	strs []string
}

func newSymtab() *symtab { return &symtab{ids: make(map[string]uint32)} }

func (s *symtab) intern(v string) uint32 {
	if id, ok := s.ids[v]; ok {
		return id
	}
	id := uint32(len(s.strs))
	s.ids[v] = id
	s.strs = append(s.strs, v)
	return id
}

func (s *symtab) lookup(v string) (uint32, bool) {
	id, ok := s.ids[v]
	return id, ok
}

func (s *symtab) clone() *symtab {
	cp := &symtab{
		ids:  make(map[string]uint32, len(s.ids)),
		strs: slices.Clip(slices.Clone(s.strs)),
	}
	for k, v := range s.ids {
		cp.ids[k] = v
	}
	return cp
}

// cowSymtab wraps a possibly-shared symtab during an extension: lookups
// hit the shared table until the first unseen string forces a private
// clone, so extending with no new symbols shares the parent's tables.
type cowSymtab struct {
	tab   *symtab
	owned bool
}

func (s *cowSymtab) intern(v string) uint32 {
	if id, ok := s.tab.lookup(v); ok {
		return id
	}
	if !s.owned {
		s.tab = s.tab.clone()
		s.owned = true
	}
	return s.tab.intern(v)
}

// buildColumns decomposes tickets in one pass.
func buildColumns(tickets []Ticket) *Columns {
	n := len(tickets)
	c := &Columns{
		tickets:  tickets,
		TimeNS:   make([]int64, n),
		ID:       make([]uint64, n),
		Host:     make([]uint64, n),
		Device:   make([]uint8, n),
		Category: make([]uint8, n),
		Weekday:  make([]uint8, n),
		Hour:     make([]uint8, n),
		DayIdx:   make([]int32, n),
		Position: make([]int32, n),
		IDCSym:   make([]uint32, n),
		LineSym:  make([]uint32, n),
		TypeSym:  make([]uint32, n),
		SlotSym:  make([]uint32, n),
		RTNS:     make([]int64, n),
		AgeNS:    make([]int64, n),
		HostSym:  make([]uint32, n),
		hosts:    make(map[uint64]uint32),
		idcs:     newSymtab(),
		lines:    newSymtab(),
		types:    newSymtab(),
		slots:    newSymtab(),
	}
	for i := range tickets {
		fillRow(c, i, &tickets[i], c.idcs.intern, c.lines.intern, c.types.intern, c.slots.intern)
	}
	c.hostCount = len(c.hosts)
	return c
}

// extend grows prev's columns by the tail rows of tickets, whose prefix
// tickets[:prev.Len()] must hold the same values prev was built from.
// The new Columns shares prev's array backing (append reuses spare
// capacity) and, when the tail introduces no new strings, prev's symbol
// tables. Each Columns can donate its capacity to at most one
// extension; a second caller gets nil and must build fresh. Readers of
// prev are never affected: they read only prev's own length.
func extend(prev *Columns, tickets []Ticket) *Columns {
	if !prev.extended.CompareAndSwap(false, true) {
		return nil
	}
	n, pn := len(tickets), prev.Len()
	k := n - pn
	c := &Columns{
		tickets:   tickets,
		TimeNS:    append(prev.TimeNS, make([]int64, k)...),
		ID:        append(prev.ID, make([]uint64, k)...),
		Host:      append(prev.Host, make([]uint64, k)...),
		Device:    append(prev.Device, make([]uint8, k)...),
		Category:  append(prev.Category, make([]uint8, k)...),
		Weekday:   append(prev.Weekday, make([]uint8, k)...),
		Hour:      append(prev.Hour, make([]uint8, k)...),
		DayIdx:    append(prev.DayIdx, make([]int32, k)...),
		Position:  append(prev.Position, make([]int32, k)...),
		IDCSym:    append(prev.IDCSym, make([]uint32, k)...),
		LineSym:   append(prev.LineSym, make([]uint32, k)...),
		TypeSym:   append(prev.TypeSym, make([]uint32, k)...),
		SlotSym:   append(prev.SlotSym, make([]uint32, k)...),
		RTNS:      append(prev.RTNS, make([]int64, k)...),
		AgeNS:     append(prev.AgeNS, make([]int64, k)...),
		HostSym:   append(prev.HostSym, make([]uint32, k)...),
		hosts:     prev.hosts,
		parent:    prev,
		parentLen: pn,
	}
	idcs := cowSymtab{tab: prev.idcs}
	lines := cowSymtab{tab: prev.lines}
	types := cowSymtab{tab: prev.types}
	slots := cowSymtab{tab: prev.slots}
	for i := pn; i < n; i++ {
		fillRow(c, i, &tickets[i], idcs.intern, lines.intern, types.intern, slots.intern)
	}
	c.idcs, c.lines, c.types, c.slots = idcs.tab, lines.tab, types.tab, slots.tab
	c.hostCount = len(c.hosts)
	return c
}

func fillRow(c *Columns, i int, tk *Ticket, idc, line, typ, slot func(string) uint32) {
	c.TimeNS[i] = tk.Time.UnixNano()
	c.ID[i] = tk.ID
	c.Host[i] = tk.HostID
	c.Device[i] = uint8(tk.Device)
	c.Category[i] = uint8(tk.Category)
	c.Weekday[i] = uint8(tk.Time.Weekday())
	c.Hour[i] = uint8(tk.Time.Hour())
	c.DayIdx[i] = int32(utcDayIndex(tk.Time))
	c.Position[i] = int32(tk.Position)
	c.IDCSym[i] = idc(tk.IDC)
	c.LineSym[i] = line(tk.ProductLine)
	c.TypeSym[i] = typ(tk.Type)
	c.SlotSym[i] = slot(tk.Slot)
	h, ok := c.hosts[tk.HostID]
	if !ok {
		h = uint32(len(c.hosts))
		c.hosts[tk.HostID] = h
	}
	c.HostSym[i] = h
	if rt, ok := tk.ResponseTime(); ok {
		c.RTNS[i] = int64(rt)
	} else {
		c.RTNS[i] = -1
	}
	if age, ok := tk.AgeAtFailure(); ok {
		c.AgeNS[i] = int64(age)
	} else {
		c.AgeNS[i] = -1
	}
}

// rowLess is the one global ordering: detection time, ties by ticket
// id. Every time-ordered view is a subsequence of this permutation.
func (c *Columns) rowLess(a, b int32) int {
	if d := cmp.Compare(c.TimeNS[a], c.TimeNS[b]); d != 0 {
		return d
	}
	return cmp.Compare(c.ID[a], c.ID[b])
}

// Perm returns all rows ordered by (time, id). It is computed once: an
// extended Columns merges its parent's already-sorted permutation with
// the sorted tail in O(n) instead of re-sorting the world.
func (c *Columns) Perm() []int32 {
	c.permOnce.Do(func() {
		if p := c.parent; p != nil && p.permDone.Load() {
			c.permVal = mergePerm(c, p.permVal, c.parentLen)
		} else {
			c.permVal = sortPerm(c)
		}
		c.permDone.Store(true)
		c.parent = nil // release the epoch chain for GC
	})
	return c.permVal
}

func sortPerm(c *Columns) []int32 {
	perm := make([]int32, c.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, c.rowLess)
	return perm
}

func mergePerm(c *Columns, parentPerm []int32, parentLen int) []int32 {
	tail := make([]int32, 0, c.Len()-parentLen)
	for i := parentLen; i < c.Len(); i++ {
		tail = append(tail, int32(i))
	}
	slices.SortFunc(tail, c.rowLess)
	out := make([]int32, 0, c.Len())
	i, j := 0, 0
	for i < len(parentPerm) && j < len(tail) {
		if c.rowLess(parentPerm[i], tail[j]) <= 0 {
			out = append(out, parentPerm[i])
			i++
		} else {
			out = append(out, tail[j])
			j++
		}
	}
	out = append(out, parentPerm[i:]...)
	return append(out, tail[j:]...)
}
