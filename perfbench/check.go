package main

import (
	"bytes"
	"cmp"
	"fmt"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dcfail/internal/core"
	"dcfail/internal/fot"
	"dcfail/internal/report"
	"dcfail/internal/serve"
)

// claim is one distinct response the tier gave: this body (by hash) for
// this path at this epoch.
type claim struct {
	kind    string
	path    string
	epoch   uint64
	tickets int // rows at epoch per X-Tickets, -1 if not sent
	hash    uint64
}

// distinctClaims collapses successful answers to distinct claims, in a
// deterministic order.
func distinctClaims(as []answer) []claim {
	seen := map[claim]bool{}
	var out []claim
	for _, a := range as {
		if a.err != nil {
			continue
		}
		c := claim{kind: a.q.kind, path: a.q.path, epoch: a.epoch, tickets: a.tickets, hash: a.hash}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b claim) int {
		if c := cmp.Compare(a.epoch, b.epoch); c != 0 {
			return c
		}
		if c := cmp.Compare(a.path, b.path); c != 0 {
			return c
		}
		return cmp.Compare(a.hash, b.hash)
	})
	return out
}

// oracle renders what a correct tier answers for a path at the primary's
// current epoch: report.Full over its index for /report and
// /report/{section}, and the primary's own handler for the predictor and
// host endpoints.
type oracle struct {
	census  *core.Census
	daemon  *serve.Daemon
	fullFor map[string][]byte // "" = the whole report, else one section
}

// prefetch renders the report and section bodies the claims need, two
// at a time.
func (o *oracle) prefetch(cs []claim) error {
	var ids []string
	seen := map[string]bool{}
	for _, c := range cs {
		id, ok := c.reportID()
		if ok && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	bodies := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(ids); k += 2 {
				bodies[k], errs[k] = o.render(ids[k])
			}
		}(w)
	}
	wg.Wait()
	for k, id := range ids {
		if errs[k] != nil {
			return errs[k]
		}
		o.fullFor[id] = bodies[k]
	}
	return nil
}

// reportID names the report part a claim is for: "" for the whole
// report, a section id, or ok=false for the other endpoints.
func (c claim) reportID() (string, bool) {
	switch c.kind {
	case "report":
		return "", true
	case "section":
		return strings.TrimPrefix(c.path, "/report/"), true
	}
	return "", false
}

// render is report.Full over the oracle's current index, for the whole
// report (id "") or one section.
func (o *oracle) render(id string) ([]byte, error) {
	var sel func(string) bool
	workers := 1
	if id == "" {
		workers = 0
	} else {
		sel = func(s string) bool { return s == id }
	}
	var buf bytes.Buffer
	if err := report.Full(&buf, o.daemon.State().Current().Index(), o.census, workers, sel); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	if id != "" {
		// One section's endpoint serves its text without the report's
		// trailing separator line.
		b = bytes.TrimSuffix(b, []byte("\n"))
	}
	return b, nil
}

// expected returns the body a correct tier serves for c at the oracle's
// current epoch.
func (o *oracle) expected(c claim) ([]byte, error) {
	if id, ok := c.reportID(); ok {
		if b, ok := o.fullFor[id]; ok {
			return b, nil
		}
		b, err := o.render(id)
		o.fullFor[id] = b
		return b, err
	}
	rec := httptest.NewRecorder()
	o.daemon.Handler().ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
	if rec.Code != 200 {
		return nil, fmt.Errorf("oracle %s: status %d", c.path, rec.Code)
	}
	if got := rec.Header().Get("X-Epoch"); got != strconv.FormatUint(c.epoch, 10) {
		return nil, fmt.Errorf("oracle %s answered at epoch %s, want %d", c.path, got, c.epoch)
	}
	return rec.Body.Bytes(), nil
}

// checkClaims verifies every claim against the primary. Every workload
// queries a quiescent tier (no ingest runs while queries do), so every
// correct answer carries the primary's current epoch and row count; an
// answer from any other epoch is wrong. It returns how many claims were
// wrong.
func checkClaims(prim *serve.Daemon, census *core.Census, cs []claim) (int, error) {
	tip := prim.State().Current()
	o := &oracle{census: census, daemon: prim, fullFor: map[string][]byte{}}
	if err := o.prefetch(cs); err != nil {
		return 0, err
	}
	wrong := 0
	for _, c := range cs {
		if c.epoch != tip.Epoch() || (c.tickets >= 0 && c.tickets != tip.Tickets()) {
			wrong++
			fmt.Fprintf(os.Stderr, "check: %s answered at epoch %d with %d rows; the quiescent primary is at epoch %d with %d\n",
				c.path, c.epoch, c.tickets, tip.Epoch(), tip.Tickets())
			continue
		}
		want, err := o.expected(c)
		if err != nil {
			return wrong, err
		}
		if bodyHash(want) != c.hash {
			wrong++
			fmt.Fprintf(os.Stderr, "check: %s at epoch %d differs from the oracle\n", c.path, c.epoch)
		}
	}
	return wrong, nil
}

// rowCheck is the ingest side of the output check for one state.
type rowCheck struct {
	missing, duplicated, unexpected int
}

func (r rowCheck) bad() int { return r.missing + r.duplicated + r.unexpected }

// matchAcks checks that every acked ticket id appears exactly once in
// rows (the replayed region of one state's log) and that no other row
// appears there.
func matchAcks(acked []uint64, rows []fot.Ticket) rowCheck {
	want := make(map[uint64]int, len(acked))
	for _, id := range acked {
		want[id] = 0
	}
	var rc rowCheck
	for _, t := range rows {
		n, ok := want[t.ID]
		if !ok {
			rc.unexpected++
			continue
		}
		if n >= 1 {
			rc.duplicated++
		}
		want[t.ID] = n + 1
	}
	for _, n := range want {
		if n == 0 {
			rc.missing++
		}
	}
	return rc
}
