//! The metric names and units the benchmark reports, in the order it
//! prints them. `BENCHMARK.json` declares the same names; a test keeps
//! the two in step.

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_s", "s"),
    ("graph.compile_s", "s"),
    ("graph.plan_mb", "MB"),
    ("plan.engine_s", "s"),
    ("plan.run_overhead_s", "s"),
    ("plan.iterations", "count"),
    ("plan.msgs", "count"),
    ("plan.msg_per_s", "1/s"),
    ("plan.iter_ms_p50", "ms"),
    ("plan.gb_per_s", "GB/s"),
    ("mem.triad_gb_s", "GB/s"),
    ("plan.bw_frac", "ratio"),
    ("kernels.ns_per_msg_hot", "ns"),
    ("kernels.ns_per_msg_gather", "ns"),
    ("par.seq_solve_s", "s"),
    ("par.speedup_vs_seq", "ratio"),
    ("par.busy_frac", "ratio"),
    ("par.serial_s", "s"),
    ("par.imbalance", "ratio"),
    ("queue.active_frac", "ratio"),
    ("queue.depth_p50", "count"),
    ("warm.run_ms_p50", "ms"),
    ("warm.run_ms_p99", "ms"),
    ("warm.iterations_mean", "count"),
    ("warm.frontier_mean", "count"),
    ("warm.cold_frac", "ratio"),
    ("warm.damped_frac", "ratio"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p99", "ms"),
    ("serve.query_ms_p50", "ms"),
    ("serve.query_ms_p99", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.batch_mean", "count"),
    ("serve.shed", "count"),
    ("store.load_s", "s"),
    ("store.restore_s", "s"),
    ("shard.compile_s", "s"),
    ("shard.frontier_floats", "count"),
    ("dist.solve_s", "s"),
    ("dist.sweep_ms", "ms"),
    ("dist.wire_bytes_per_sweep", "B"),
    ("dist.packets_per_sweep", "count"),
    ("dist.vs_resident", "ratio"),
    ("ledger.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The unit of a declared metric. Panics on an undeclared name, so a
/// typo cannot print a metric `BENCHMARK.json` does not know.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
        .1
}
