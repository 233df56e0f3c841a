package main

// Workload and metric names are an interface: BENCHMARK.json lists them,
// later changes are judged by them, and names_test.go pins them so a
// rename fails loudly instead of silently orphaning a baseline.

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"ingest_narrow", "ingest_wide", "serve_mixed", "batch_fill"}

// metric is one reported value's name and unit.
type metric struct {
	name, unit string
}

// endToEndMetrics are printed with --trace 0 and gated by BENCHMARK.json.
// Every workload reports every one of them, so each is defined on the
// workload's primary operation and primary latency: on the ingest
// workloads an acked row and the publish lag, on serve_mixed a read
// (fill or model GET) and its latency from when it was due, on
// batch_fill a filled row and its latency.
var endToEndMetrics = []metric{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"server_cpu_us_per_op", "us"},
	{"server_rss_mb", "MB"},
	{"setup_s", "s"},
}

// reportMetrics are the per-workload end-to-end figures printed in the
// human-readable report (with unit and sample count) wherever they
// apply. The gated end-to-end metrics above are drawn from them.
var reportMetrics = []metric{
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

// perLayerMetrics are printed with --trace 1. Times come from
// benchmark-side spans around calls into each layer's public functions
// on the workload's own inputs; counts come from the difference of the
// server's /metrics before and after the end-to-end run.
var perLayerMetrics = []metric{
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
