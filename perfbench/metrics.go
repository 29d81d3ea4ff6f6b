package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"

	"dcfail/internal/report"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchFile is the part of BENCHMARK.json this program checks itself
// against.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// Limits of the benchmark description format.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// endToEnd lists the metrics a user of the tier sees, emitted by every
// untraced run. Ack latency, the query tail and the freshness p99 swing
// from run to run on this tier's two cores by more than the widest bound
// allowed (0.25), so they (and failed_frac, which reads 0 on a correct
// run) are printed for reading but not gated; ingest_tps carries the ack
// path of the closed-loop burst, and freshness keeps a gated p90.
func endToEnd() []metricSpec {
	return []metricSpec{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "freshness_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "freshness_p90_ms", Unit: "ms", Better: "lower", Bound: 0.2},
		{Name: "ingest_tps", Unit: "tickets/s", Better: "higher", Bound: 0.25},
		{Name: "burst_visible_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "heap_mb", Unit: "MiB", Better: "lower", Bound: 0.1},
	}
}

// perLayer lists the traced run's metrics, named after the repo's
// modules: loadgen and runtime describe the harness and the Go runtime,
// every other prefix is an internal/ package.
func perLayer() []metricSpec {
	lo := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	out := []metricSpec{
		lo("loadgen.ticket_late_p99_ms", "ms"),
		lo("loadgen.query_late_p99_ms", "ms"),
		lo("loadgen.trace_overhead_frac", "ratio"),
		lo("loadgen.serial_replay_s", "s"),
		lo("runtime.gc_cycles", "count"),
		lo("runtime.gc_pause_ms", "ms"),
		lo("wire.encode_ns_per_ticket", "ns"),
		lo("wire.decode_ns_per_ticket", "ns"),
		lo("wire.bytes_per_ticket", "B"),
		lo("fmsnet.roundtrip_p50_us", "us"),
		lo("fmsnet.roundtrip_p99_us", "us"),
		lo("fmsnet.sub_dropped", "count"),
		lo("fmsnet.dup_acks", "count"),
		lo("wal.append_p50_us", "us"),
		lo("wal.append_p99_us", "us"),
		lo("wal.bytes_per_ticket", "B"),
		lo("archive.cold_poll_ms", "ms"),
		lo("archive.segments", "count"),
		lo("archive.bytes_per_ticket", "B"),
		lo("fot.extend_bootstrap_ms", "ms"),
		lo("fot.extend_p50_ms", "ms"),
		lo("fot.extend_p99_ms", "ms"),
		lo("core.advance_bootstrap_ms", "ms"),
		lo("core.advance_p50_ms", "ms"),
		lo("core.changed_frac", "ratio"),
		lo("core.rebuilds", "count"),
	}
	for _, id := range report.SectionIDs() {
		out = append(out, lo("core.render_ms."+id, "ms"))
	}
	out = append(out,
		lo("report.full_ms", "ms"),
		lo("predict.advance_bootstrap_ms", "ms"),
		lo("predict.advance_p50_ms", "ms"),
		lo("predict.score_p50_us", "us"),
		lo("predict.atrisk_p50_us", "us"),
		lo("mine.index_ms", "ms"),
		lo("serve.fold_bootstrap_ms", "ms"),
		lo("serve.fold_p50_ms", "ms"),
		lo("serve.fold_self_p50_ms", "ms"),
		lo("serve.publish_lag_p50_ms", "ms"),
		lo("serve.publish_lag_p99_ms", "ms"),
		hi("serve.cache_hit_frac", "ratio"),
		lo("serve.render_fallback_frac", "ratio"),
	)
	for _, h := range handlerKinds {
		out = append(out, lo("serve.handler_p50_us."+h, "us"))
	}
	out = append(out,
		lo("replica.catchup_s", "s"),
		lo("replica.lag_p50_ms", "ms"),
		lo("replica.lag_p99_ms", "ms"),
		lo("replica.fold_to_p50_ms", "ms"),
		lo("replica.dups", "count"),
		lo("replica.crc_failures", "count"),
		lo("replica.reconnects", "count"),
		lo("router.hop_p50_us", "us"),
		lo("router.hop_p99_us", "us"),
		lo("router.hedges", "count"),
		lo("router.failovers", "count"),
		lo("router.shed", "count"),
	)
	return out
}

// handlerKinds are the query endpoints, in the order the per-layer
// handler metrics list them.
var handlerKinds = []string{"report", "section", "predict", "atrisk", "hosts"}

// validateSpecs checks names, units and the count limits of one metric
// list; maxN is the list's limit.
func validateSpecs(specs []metricSpec, maxN int, needBound bool) error {
	if len(specs) < 1 || len(specs) > maxN {
		return fmt.Errorf("%d metrics, want 1..%d", len(specs), maxN)
	}
	seen := map[string]bool{}
	for _, m := range specs {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q is not valid", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: unit %q is not valid", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher, not %q", m.Name, m.Better)
		}
		if needBound && (m.Bound <= 0 || m.Bound > 0.25) {
			return fmt.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	return nil
}

// checkAgainstFile verifies that the metrics this program emits are
// exactly the ones BENCHMARK.json declares, in the same order, with the
// same units and directions.
func checkAgainstFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if err := validateSpecs(bf.EndToEnd, maxEndToEnd, true); err != nil {
		return fmt.Errorf("%s end_to_end: %w", path, err)
	}
	if err := validateSpecs(bf.PerLayer, maxPerLayer, false); err != nil {
		return fmt.Errorf("%s per_layer: %w", path, err)
	}
	if err := sameSpecs("end_to_end", bf.EndToEnd, endToEnd()); err != nil {
		return err
	}
	if err := sameSpecs("per_layer", bf.PerLayer, perLayer()); err != nil {
		return err
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	want := workloadNames()
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		return fmt.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	return nil
}

func sameSpecs(list string, got, want []metricSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("BENCHMARK.json %s has %d metrics, program emits %d", list, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
			return fmt.Errorf("BENCHMARK.json %s[%d] = %+v, program emits %+v", list, i, g, w)
		}
	}
	return nil
}
