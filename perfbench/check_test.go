package main

import (
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"dcfail/internal/core"
	"dcfail/internal/fleetgen"
	"dcfail/internal/fms"
	"dcfail/internal/serve"
)

// served asks the daemon's own handler for path, as the tier would
// answer it, and returns the answer the generator would keep.
func served(t *testing.T, d *serve.Daemon, kind, path string) answer {
	t.Helper()
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	a := answer{q: query{kind: kind, path: path}, tickets: -1, hash: bodyHash(rec.Body.Bytes())}
	a.epoch, _ = strconv.ParseUint(rec.Header().Get("X-Epoch"), 10, 64)
	if raw := rec.Header().Get("X-Tickets"); raw != "" {
		a.tickets, _ = strconv.Atoi(raw)
	}
	return a
}

func TestCheckClaimsAgainstOracle(t *testing.T) {
	res, err := fms.Run(fleetgen.SmallProfile(), fms.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tickets := res.Trace.Tickets
	census := core.CensusFromFleet(res.Fleet)
	prim := serve.New(serve.Options{Census: census})
	half := len(tickets) / 2
	prim.State().Fold(tickets[:half], time.Now())
	stale := served(t, prim, "section", "/report/table1")
	prim.State().Fold(tickets[half:], time.Now())

	host := strconv.FormatUint(tickets[0].HostID, 10)
	as := []answer{
		served(t, prim, "report", "/report"),
		served(t, prim, "section", "/report/fig5"),
		served(t, prim, "hosts", "/hosts/"+host),
		served(t, prim, "atrisk", "/atrisk?n=5"),
	}
	as = append(as, as[1]) // a repeated body is one claim
	cs := distinctClaims(as)
	if len(cs) != 4 {
		t.Fatalf("%d distinct claims, want 4", len(cs))
	}
	if wrong, err := checkClaims(prim, census, cs); err != nil || wrong != 0 {
		t.Fatalf("honest answers: wrong %d, err %v; want none wrong", wrong, err)
	}

	// Any altered body is caught.
	for i := range cs {
		bad := append([]claim(nil), cs...)
		bad[i].hash ^= 1
		if wrong, err := checkClaims(prim, census, bad); err != nil || wrong != 1 {
			t.Errorf("%s altered: wrong %d, err %v; want 1 wrong", cs[i].path, wrong, err)
		}
	}
	// An answer from an epoch the quiescent primary has left is wrong,
	// even though its body was right when it was served.
	if wrong, err := checkClaims(prim, census, distinctClaims([]answer{stale})); err != nil || wrong != 1 {
		t.Errorf("stale answer: wrong %d, err %v; want 1 wrong", wrong, err)
	}
	// So is a body that names the wrong row count.
	bad := append([]claim(nil), cs[0])
	bad[0].tickets++
	if wrong, _ := checkClaims(prim, census, bad); wrong != 1 {
		t.Errorf("row-count mismatch: wrong %d, want 1", wrong)
	}
}
