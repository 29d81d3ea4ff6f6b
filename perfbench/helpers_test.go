package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dcfail/internal/fot"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- { // insertion order must not matter
		d.add(float64(i))
	}
	cases := []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 50, 50},
		{99, 99, 1},
		{100, 100, 0},
		{0.5, 1, 99},
	}
	for _, c := range cases {
		got := d.percentile(c.p)
		if got.Value != c.value || got.N != 100 || got.Beyond != c.beyond {
			t.Errorf("p%v = %+v, want value %v over 100 samples with %d beyond", c.p, got, c.value, c.beyond)
		}
	}
	if got := (&dist{}).percentile(99); got.N != 0 || got.Value != 0 {
		t.Errorf("empty p99 = %+v, want zero reading over 0 samples", got)
	}
	// A p99 needs 1000 samples before ten of them lie beyond it.
	var big dist
	for i := 0; i < 1000; i++ {
		big.add(float64(i))
	}
	if got := big.percentile(99); got.Beyond != 10 {
		t.Errorf("p99 over 1000 samples has %d beyond, want 10", got.Beyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const every = 5 * time.Millisecond
	const stall = 40 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	recs := openLoop(start, every, 4, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return i != 3
	})
	for i, r := range recs {
		if want := start.Add(time.Duration(i) * every); !r.due.Equal(want) {
			t.Errorf("op %d due %v, want the fixed schedule's %v", i, r.due, want)
		}
		if r.start.Before(r.due) {
			t.Errorf("op %d started before it was due", i)
		}
	}
	// Op 1 was due 5ms in but waited for op 0's 40ms stall: it starts
	// late and its latency counts the wait.
	if late := recs[1].late(); late < stall-every {
		t.Errorf("op 1 lateness %v, want at least %v", late, stall-every)
	}
	if lat := recs[1].latency(); lat < stall-every {
		t.Errorf("op 1 latency %v, want at least %v", lat, stall-every)
	}
	if recs[0].late() > stall/2 {
		t.Errorf("op 0 started %v late on an idle generator", recs[0].late())
	}
	if !recs[3].failed || recs[2].failed {
		t.Errorf("failure flags = %v/%v, want only op 3 failed", recs[2].failed, recs[3].failed)
	}
}

func TestLateness(t *testing.T) {
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early start lateness = %v, want 0", got)
	}
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
}

func TestMatchAcks(t *testing.T) {
	rows := func(ids ...uint64) []fot.Ticket {
		var out []fot.Ticket
		for _, id := range ids {
			out = append(out, fot.Ticket{ID: id})
		}
		return out
	}
	if rc := matchAcks([]uint64{1, 2, 3}, rows(3, 1, 2)); rc.bad() != 0 {
		t.Errorf("every acked id once: %+v, want clean", rc)
	}
	rc := matchAcks([]uint64{1, 2, 3, 4}, rows(1, 2, 2, 3, 9))
	if rc.missing != 1 || rc.duplicated != 1 || rc.unexpected != 1 {
		t.Errorf("got %+v, want 1 missing (4), 1 duplicated (2), 1 unexpected (9)", rc)
	}
	if rc := matchAcks([]uint64{5}, rows(5, 5, 5)); rc.duplicated != 2 {
		t.Errorf("id in three rows: %+v, want 2 duplicates", rc)
	}
}

func TestHostPickerFollowsTicketCounts(t *testing.T) {
	p := newHostPicker([]hostWeight{{host: 1, count: 90}, {host: 2, count: 10}, {host: 3, count: 0}})
	rng := rand.New(rand.NewSource(1))
	n := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		n[p.pick(rng)]++
	}
	if n[3] != 0 || n[1] < 8500 || n[1] > 9500 {
		t.Errorf("draws %v, want host 1 about 90%%, host 3 never", n)
	}
}

func testGen(seed int64, mix []mixEntry) *queryGen {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	return &queryGen{rng: rand.New(rand.NewSource(seed)), mix: mix, total: total,
		predict:  newHostPicker([]hostWeight{{1, 3}, {2, 1}}),
		hosts:    newHostPicker([]hostWeight{{5, 1}}),
		sections: []string{"table1", "fig5", "verdicts"}}
}

func TestQueriesAreSeeded(t *testing.T) {
	a, b := testGen(7, hotMix).take(200), testGen(7, hotMix).take(200)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed drew different query lists")
	}
	if c := testGen(8, hotMix).take(200); slices.Equal(a, c) {
		t.Error("different seeds drew the same query list")
	}
}

func TestQueryMixIsExactAndSpread(t *testing.T) {
	mix := []mixEntry{{"section", 60}, {"predict", 35}, {"hosts", 5}}
	qs := testGen(1, mix).take(300)
	kinds := map[string]int{}
	sections := map[string]int{}
	lastHosts := -1
	for i, q := range qs {
		kinds[q.kind]++
		if q.kind == "section" {
			sections[q.path]++
		}
		if q.kind == "hosts" {
			// 5% of the mix: one every 20 queries, never bunched.
			if lastHosts >= 0 && i-lastHosts != 20 {
				t.Errorf("hosts queries %d apart, want 20", i-lastHosts)
			}
			lastHosts = i
		}
	}
	for _, m := range mix {
		if want := 300 * m.weight / 100; kinds[m.kind] != want {
			t.Errorf("%d %s queries, want exactly %d", kinds[m.kind], m.kind, want)
		}
	}
	// 180 section queries over 3 sections come in full rounds: 60 each.
	for p, n := range sections {
		if n != 60 {
			t.Errorf("%s asked %d times, want 60", p, n)
		}
	}
}

func TestStrided(t *testing.T) {
	got := strided(2, 7, 2)
	if fmt.Sprint(got) != "[[2 4 6] [3 5]]" {
		t.Errorf("strided(2, 7, 2) = %v", got)
	}
}

func TestMetricSpecsValid(t *testing.T) {
	if err := validateSpecs(endToEnd(), maxEndToEnd, true); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := validateSpecs(perLayer(), maxPerLayer, false); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	var setup *metricSpec
	largest := 0.0
	for _, m := range endToEnd() {
		if m.Name == "setup_s" {
			m := m
			setup = &m
		}
		largest = max(largest, m.Bound)
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s = %+v, want unit s, lower, and the largest bound %v", setup, largest)
	}
}

func TestValidateSpecsRejects(t *testing.T) {
	ok := metricSpec{Name: "a.b_c-1", Unit: "ms", Better: "lower", Bound: 0.1}
	bad := []struct {
		name  string
		specs []metricSpec
	}{
		{"leading dot", []metricSpec{{Name: ".x", Unit: "ms", Better: "lower", Bound: 0.1}}},
		{"space", []metricSpec{{Name: "a b", Unit: "ms", Better: "lower", Bound: 0.1}}},
		{"65 letters", []metricSpec{{Name: fmt.Sprintf("%065d", 0), Unit: "ms", Better: "lower", Bound: 0.1}}},
		{"unit too long", []metricSpec{{Name: "x", Unit: "abcdefghijklmnopq", Better: "lower", Bound: 0.1}}},
		{"bad direction", []metricSpec{{Name: "x", Unit: "ms", Better: "down", Bound: 0.1}}},
		{"bound too wide", []metricSpec{{Name: "x", Unit: "ms", Better: "lower", Bound: 0.3}}},
		{"duplicate", []metricSpec{ok, ok}},
		{"empty", nil},
	}
	for _, c := range bad {
		if err := validateSpecs(c.specs, maxEndToEnd, true); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	tooMany := make([]metricSpec, maxEndToEnd+1)
	for i := range tooMany {
		tooMany[i] = metricSpec{Name: fmt.Sprintf("m%d", i), Unit: "ms", Better: "lower", Bound: 0.1}
	}
	if err := validateSpecs(tooMany, maxEndToEnd, true); err == nil {
		t.Errorf("%d end-to-end metrics accepted, limit is %d", len(tooMany), maxEndToEnd)
	}
	if err := validateSpecs(tooMany[:maxEndToEnd], maxEndToEnd, true); err != nil {
		t.Errorf("exactly %d metrics rejected: %v", maxEndToEnd, err)
	}
	if err := validateSpecs([]metricSpec{ok}, maxEndToEnd, true); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	if err := checkAgainstFile("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

// TestDesignRecordMatchesProgram keeps design.json, which records what
// the code cannot state, naming only what the program runs and emits.
func TestDesignRecordMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	type effect struct {
		Metric string   `json:"metric"`
		On     []string `json:"on"`
	}
	var d struct {
		Seeds struct {
			Default int64 `json:"default"`
			HeldOut int64 `json:"held_out"`
		} `json:"seeds"`
		Workloads        map[string]struct{ Why string } `json:"workloads"`
		DroppedWorkloads map[string]json.RawMessage      `json:"dropped_workloads"`
		PerLayer         []struct {
			Layer     string   `json:"layer"`
			Metrics   []string `json:"metrics"`
			Moves     []effect `json:"moves"`
			Unchanged []effect `json:"unchanged"`
		} `json:"per_layer_should_move"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Seeds.Default != defaultSeed || d.Seeds.HeldOut == defaultSeed {
		t.Errorf("seeds default %d held out %d, program default %d", d.Seeds.Default, d.Seeds.HeldOut, defaultSeed)
	}
	var names []string
	for name, w := range d.Workloads {
		if _, ok := workloadByName(name); !ok || w.Why == "" {
			t.Errorf("workload %q: not run by the program or no why", name)
		}
		names = append(names, name)
	}
	if len(names) != len(workloads()) {
		t.Errorf("design.json workloads %v, program runs %v", names, workloadNames())
	}
	for name := range d.DroppedWorkloads {
		if _, ok := workloadByName(name); ok {
			t.Errorf("workload %q is both dropped and run", name)
		}
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd() {
		e2e[m.Name] = true
	}
	var layered []string
	for _, l := range d.PerLayer {
		for _, m := range l.Metrics {
			if !strings.HasPrefix(m, l.Layer+".") {
				t.Errorf("metric %q listed under layer %q", m, l.Layer)
			}
		}
		layered = append(layered, l.Metrics...)
		for _, e := range append(slices.Clone(l.Moves), l.Unchanged...) {
			if !e2e[e.Metric] {
				t.Errorf("layer %s: %q is not an end-to-end metric", l.Layer, e.Metric)
			}
			for _, w := range e.On {
				if _, ok := workloadByName(w); !ok {
					t.Errorf("layer %s: %s on unknown workload %q", l.Layer, e.Metric, w)
				}
			}
		}
	}
	var want []string
	for _, m := range perLayer() {
		want = append(want, m.Name)
	}
	if !slices.Equal(layered, want) {
		t.Errorf("design.json per-layer metrics\n%v\nprogram emits\n%v", layered, want)
	}
}
