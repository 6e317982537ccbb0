//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit and direction, and for each per-layer metric the end-to-end metric
//! and workload it should move. `BENCHMARK.json` lists the same names; a
//! test keeps the two in step.

/// `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("server_rss_mb", "MiB", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_us", "us", "lower", 0.25),
];

/// `(name, unit, better, moves, on)`.
pub const PER_LAYER: [(&str, &str, &str, &str, &str); 45] = [
    (
        "serve.io_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm (less: optimize-cold)",
    ),
    (
        "serve.cpu_us_per_op",
        "us",
        "lower",
        "throughput_per_s",
        "all",
    ),
    (
        "serve.server_mean_us",
        "us",
        "lower",
        "none (observability)",
        "all",
    ),
    (
        "obs.client_gap_us",
        "us",
        "lower",
        "none (observability)",
        "all",
    ),
    (
        "serve.conn.pipeline_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.http.parse_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.json.parse_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.api.parse_optimize_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.api.evaluate_hit_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.json.render_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.http.render_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.api.route_us",
        "us",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.metrics.record_ns",
        "ns",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.metrics.record_2t_ns",
        "ns",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "obs.span_ns",
        "ns",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "obs.span_2t_ns",
        "ns",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "serve.layer_sum_ratio",
        "ratio",
        "higher",
        "none (coverage of route_us)",
        "optimize-warm",
    ),
    (
        "sweep.cache.hit_ratio",
        "ratio",
        "higher",
        "none (workload property)",
        "all",
    ),
    (
        "sweep.cache.evictions_per_miss",
        "ratio",
        "lower",
        "none (workload property)",
        "all",
    ),
    (
        "sweep.cache.hit_ns",
        "ns",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-warm",
    ),
    (
        "sweep.cache.insert_full_us",
        "us",
        "lower",
        "latency_us, throughput_per_s, server_rss_mb",
        "optimize-cold",
    ),
    (
        "sweep.cache.insert_empty_us",
        "us",
        "lower",
        "latency_us, throughput_per_s, server_rss_mb",
        "optimize-cold",
    ),
    (
        "optim.seeded_joint_us",
        "us",
        "lower",
        "latency_us, throughput_per_s, setup_s",
        "optimize-cold",
    ),
    (
        "optim.seeded_period_us",
        "us",
        "lower",
        "latency_us, throughput_per_s, setup_s",
        "optimize-cold",
    ),
    (
        "optim.fallback_ratio",
        "ratio",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-cold",
    ),
    (
        "optim.brent_iters_per_eval",
        "count",
        "lower",
        "latency_us, throughput_per_s",
        "optimize-cold",
    ),
    (
        "core.first_order_ns",
        "ns",
        "lower",
        "latency_us, throughput_per_s, setup_s",
        "optimize-cold",
    ),
    (
        "core.exact_overhead_ns",
        "ns",
        "lower",
        "latency_us, throughput_per_s, setup_s",
        "optimize-cold",
    ),
    (
        "sweep.executor.cells_per_s",
        "1/s",
        "higher",
        "throughput_per_s",
        "bulk-sweep, cluster-sweep",
    ),
    (
        "sweep.run_cache.hit_ratio",
        "ratio",
        "higher",
        "throughput_per_s",
        "bulk-sweep, cluster-sweep",
    ),
    (
        "sweep.csv.render_ns_per_row",
        "ns",
        "lower",
        "throughput_per_s",
        "bulk-sweep, cluster-sweep",
    ),
    (
        "sweep.merge_parts_ms",
        "ms",
        "lower",
        "throughput_per_s (sharded jobs)",
        "bulk-sweep",
    ),
    (
        "serve.app.job_overhead_ms",
        "ms",
        "lower",
        "throughput_per_s",
        "bulk-sweep, cluster-sweep",
    ),
    (
        "serve.batch.evaluate_many_us_per_query",
        "us",
        "lower",
        "latency_us (batch requests)",
        "bulk-sweep",
    ),
    (
        "sweep.wire.chunk_render_us",
        "us",
        "lower",
        "throughput_per_s",
        "cluster-sweep",
    ),
    (
        "sweep.wire.chunk_parse_us",
        "us",
        "lower",
        "throughput_per_s",
        "cluster-sweep",
    ),
    (
        "serve.coordinator.accept_chunk_us",
        "us",
        "lower",
        "throughput_per_s",
        "cluster-sweep",
    ),
    (
        "cluster.chunk_bytes",
        "bytes",
        "lower",
        "throughput_per_s (computed, not measured)",
        "cluster-sweep",
    ),
    (
        "cluster.dispatches",
        "count",
        "lower",
        "throughput_per_s",
        "cluster-sweep",
    ),
    (
        "cluster.reissues",
        "count",
        "lower",
        "throughput_per_s",
        "cluster-sweep",
    ),
    (
        "cluster.worker_busy_ratio",
        "ratio",
        "higher",
        "throughput_per_s, latency_us",
        "cluster-sweep",
    ),
    (
        "bench.trace_overhead_ratio",
        "ratio",
        "lower",
        "none (benchmark self-check)",
        "all",
    ),
    (
        "client.p99_us",
        "us",
        "lower",
        "none (tail, not gated)",
        "all",
    ),
    (
        "client.p999_us",
        "us",
        "lower",
        "none (tail, not gated)",
        "all",
    ),
    (
        "client.samples",
        "count",
        "higher",
        "none (sample count of the tail)",
        "all",
    ),
];

pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|m| m.0).collect()
}

/// `(name, unit)` of every metric a run reports, in catalogue order.
pub fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    }
}

/// The mapping tag printed after a per-layer value.
pub fn tag(name: &str) -> String {
    PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .map(|m| format!("  [moves {} on {}]", m.3, m.4))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_serve::Json;

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key).and_then(Json::as_array).expect("array")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect("string field")
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), better);
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layer = entries(&doc, "per_layer");
        assert_eq!(layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better, _, _)) in layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), better);
        }
        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
