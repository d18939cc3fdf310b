package main

// layerMetric records, for one per-layer metric, the public call it times,
// the end-to-end metric it should move and the workload where it should
// move. On the other workloads the prediction is no change. router-wire is
// traced only: its end-to-end figures are the untraced half of its traced
// loop, printed beside its waterfall. BENCHMARK.json lists the same names
// (the package test keeps the two in step).
type layerMetric struct {
	name, measuredBy, moves, workload string
}

var layerMetrics = []layerMetric{
	{"knngraph.build_s", "knngraph.BuildNNDescent", "setup_s", "lib-search"},
	{"core.build_s", "core.NSGBuild (Algorithm 2)", "setup_s", "lib-search"},
	{"core.search_us", "core NSG search with one reused SearchContext", "qps, search_p50_ms", "lib-search"},
	{"core.hops", "hops of that search", "qps", "lib-search"},
	{"core.dist_comps", "vecmath.Counter of that search", "qps", "lib-search"},
	{"vecmath.ns_per_row", "vecmath.L2ToRows time per row, in neighbor-list chunks", "qps", "lib-search"},
	{"vecmath.bytes_per_q", "computed: dist_comps x dim x 4", "qps", "lib-search"},
	{"nsg.search_us", "Index.SearchWithPool", "search_p99_ms", "lib-search"},
	{"nsg.overhead_us", "nsg.search_us - core.search_us", "search_p99_ms", "lib-search"},
	{"nsg.allocs_per_q", "runtime.MemStats mallocs per Index.SearchWithPool", "search_p99_ms", "lib-search"},
	{"nsgrouter.overhead_us", "router HTTP median - cluster.search_us", "search_p50_ms, qps", "router-wire"},
	{"cluster.search_us", "cluster.Router.Search in process over cluster.NewHTTPTransport", "search_p50_ms", "router-wire"},
	{"cluster.overhead_us", "cluster.search_us - nsgserve.http_us", "search_p50_ms", "router-wire"},
	{"cluster.attempts_per_q", "Router.Metrics() Attempts/Queries (ideal: 3)", "search_p99_ms", "router-wire"},
	{"nsgserve.http_us", "direct POST /search to one shard", "search_p50_ms", "router-wire, serve-live-filtered"},
	{"nsgserve.handler_us", "/stats mean_search_micros delta", "search_p50_ms", "router-wire, serve-live-filtered"},
	{"nsgserve.wire_us", "nsgserve.http_us - nsgserve.handler_us", "search_p50_ms", "router-wire, serve-live-filtered"},
	{"distsearch.search_us", "ShardedIndex.SearchWithPool on an OpenMappedSharded shard", "search_p50_ms (small share)", "router-wire"},
	{"mstore.open_ms", "OpenMappedSharded", "setup_s", "router-wire"},
	{"mstore.rss_mb", "/stats rss_bytes summed over the shards", "peak_rss_mb", "router-wire"},
	{"meta.unmarshal_us", "nsg.UnmarshalPredicate", "search_p50_ms", "serve-live-filtered"},
	{"meta.compile_us", "ShardedIndex.CompileFilter (O(rows) per request)", "search_p50_ms", "serve-live-filtered"},
	{"core.filtered_us.sel50", "ShardedIndex.SearchFilteredWithStats, 50% pass", "search_p50_ms, search_p99_ms", "serve-live-filtered"},
	{"core.filtered_us.sel10", "ShardedIndex.SearchFilteredWithStats, 10% pass", "search_p50_ms, search_p99_ms", "serve-live-filtered"},
	{"core.filtered_us.sel01", "ShardedIndex.SearchFilteredWithStats, 1% pass", "search_p50_ms, search_p99_ms", "serve-live-filtered"},
	{"core.filtered_dist_comps.sel50", "SearchStats of that search", "search_p50_ms, search_p99_ms", "serve-live-filtered"},
	{"core.filtered_dist_comps.sel10", "SearchStats of that search", "search_p50_ms, search_p99_ms", "serve-live-filtered"},
	{"core.filtered_dist_comps.sel01", "SearchStats of that search", "search_p50_ms, search_p99_ms", "serve-live-filtered"},
	{"core.batch_us_per_q", "ShardedIndex.SearchBatch of a 16-query batch, per query", "serve.batch_p50_ms", "serve-live-filtered"},
	{"core.solo_us_per_q", "the same queries one by one through SearchWithPool", "serve.batch_p50_ms", "serve-live-filtered"},
	{"quant.code_bytes_per_q", "computed: sq8 dist_comps x dim", "qps", "serve-live-filtered"},
	{"live.add_us", "ShardedIndex.Add on a live in-process copy at the writer's rate", "serve.insert_p50_ms", "serve-live-filtered"},
	{"live.delta_depth_max", "/stats delta_depth, sampled every 5th insert", "search_p99_ms, serve.insert_p99_ms", "serve-live-filtered"},
	{"live.publish_age_ms_max", "/stats last_publish_age_ms, sampled", "search_p99_ms, serve.insert_p99_ms", "serve-live-filtered"},
	{"live.publishes", "/stats publishes at the end of the traced loop", "search_p99_ms, serve.insert_p99_ms", "serve-live-filtered"},
	{"live.drained", "/stats drained at the end of the traced loop", "search_p99_ms, serve.insert_p99_ms", "serve-live-filtered"},
	{"serve.batch_p50_ms", "/search/batch latency in the traced loop", "end to end (not gated: one workload only)", "serve-live-filtered"},
	{"serve.insert_p50_ms", "/insert latency in the traced loop", "end to end (not gated: one workload only)", "serve-live-filtered"},
	{"serve.insert_p99_ms", "/insert latency in the traced loop", "end to end (not gated: one workload only)", "serve-live-filtered"},
	{"trace.overhead_us", "traced - untraced search_p50 of the named workload", "none: the cost of tracing", "the named workload"},
}
