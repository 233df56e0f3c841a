package main

import (
	"encoding/json"
	"os"
	"testing"
)

// Later changes and their reviews refer to these names; a rename must
// fail here, loudly, instead of silently orphaning a baseline.

func TestWorkloadNamesStable(t *testing.T) {
	want := []string{"ingest_narrow", "ingest_wide", "serve_mixed", "batch_fill"}
	if len(workloadNames) != len(want) {
		t.Fatalf("expected %d workloads, got %d: %v", len(want), len(workloadNames), workloadNames)
	}
	for i, w := range want {
		if workloadNames[i] != w {
			t.Errorf("workload %d: expected %s, got %s", i, w, workloadNames[i])
		}
		if _, ok := specs[w]; !ok {
			t.Errorf("workload %s has no spec", w)
		}
	}
	if len(specs) != len(want) {
		t.Errorf("expected %d specs, got %d", len(want), len(specs))
	}
}

func TestEndToEndMetricNamesStable(t *testing.T) {
	want := []metric{
		{"ops_per_s", "1/s"},
		{"latency_p50_ms", "ms"},
		{"server_cpu_us_per_op", "us"},
		{"server_rss_mb", "MB"},
		{"setup_s", "s"},
	}
	expectMetrics(t, "end-to-end", endToEndMetrics, want)
}

func TestReportMetricNamesStable(t *testing.T) {
	want := []metric{
		{"setup_s", "s"},
		{"latency_p99_ms", "ms"},
		{"ingest_rows_per_s", "1/s"},
		{"ingest_ack_p99_ms", "ms"},
		{"publish_lag_p50_ms", "ms"},
		{"publish_lag_p90_ms", "ms"},
		{"fill_p50_ms", "ms"},
		{"fill_p99_ms", "ms"},
		{"get_p99_ms", "ms"},
		{"read_within_slo_frac", "frac"},
		{"batch_fill_rows_per_s", "1/s"},
		{"server_cpu_us_per_op", "us"},
		{"server_rss_mb", "MB"},
		{"ops_per_s_raw", "1/s"},
		{"latency_p50_ms_raw", "ms"},
		{"server_cpu_us_per_op_raw", "us"},
		{"server_peak_rss_mb", "MB"},
		{"ops_failed_frac", "frac"},
	}
	expectMetrics(t, "report", reportMetrics, want)
}

func TestPerLayerMetricNamesStable(t *testing.T) {
	want := []metric{
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.cpu_s", "s"},
		{"server.http_requests", "count"},
		{"server.ingest_self_us_per_row", "us"},
		{"server.transport_us_per_row", "us"},
		{"server.batch_self_us_per_row", "us"},
		{"server.fill_self_us", "us"},
		{"server.get_us", "us"},
		{"admission.check_us", "us"},
		{"admission.row_take_us", "us"},
		{"admission.sheds", "count"},
		{"online.push_us", "us"},
		{"online.self_push_us", "us"},
		{"online.republishes", "count"},
		{"online.republish_per_s", "1/s"},
		{"online.republish_busy_frac", "frac"},
		{"online.promotions", "count"},
		{"online.rejections", "count"},
		{"online.republish_ms", "ms"},
		{"online.snapshot_ms", "ms"},
		{"online.gate_frac", "frac"},
		{"core.push_us", "us"},
		{"core.rules_ms", "ms"},
		{"core.gate_ms", "ms"},
		{"core.fill_us", "us"},
		{"core.batch_fill_us_per_row", "us"},
		{"core.fill_cache_hit_frac", "frac"},
		{"store.put_ms", "ms"},
		{"store.fsyncs", "count"},
		{"store.wal_bytes_per_publish", "bytes"},
		{"store.snapshots", "count"},
		{"store.get_raw_us", "us"},
		{"runtime.gc_pause_s", "s"},
		{"runtime.heap_mb", "MB"},
		{"self.server_us_per_op", "us"},
		{"self.admission_us_per_op", "us"},
		{"self.online_us_per_op", "us"},
		{"self.core_us_per_op", "us"},
		{"self.store_us_per_op", "us"},
		{"self.runtime_us_per_op", "us"},
		{"self.unaccounted_us_per_op", "us"},
		{"self.unaccounted_frac", "frac"},
		{"trace.overhead_frac", "frac"},
	}
	expectMetrics(t, "per-layer", perLayerMetrics, want)
}

func expectMetrics(t *testing.T, list string, got, want []metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("expected %d %s metrics, got %d", len(want), list, len(got))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s metric %d: expected %s (%s), got %s (%s)", list, i, w.name, w.unit, got[i].name, got[i].unit)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the runs are
// gated on, in step with the names the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %s, the program's %s", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range doc.EndToEnd {
		if (metric{m.Name, m.Unit}) != endToEndMetrics[i] {
			t.Errorf("BENCHMARK.json end-to-end metric %d is %s (%s), the program's %v", i, m.Name, m.Unit, endToEndMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayerMetrics))
	}
	for i, m := range doc.PerLayer {
		if (metric{m.Name, m.Unit}) != perLayerMetrics[i] {
			t.Errorf("BENCHMARK.json per-layer metric %d is %s (%s), the program's %v", i, m.Name, m.Unit, perLayerMetrics[i])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: better %q", m.Name, m.Better)
		}
	}
}
