//! The metric tables: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, direction and (end-to-end only)
//! regression bound. `BENCHMARK.json` at the repo root lists the same
//! names; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Measured with the program's tracing off, on every workload. The
/// bounds are about three times the run-to-run spread measured on the
/// reference box (README, "Measured run-to-run spread").
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("records_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    e2e("job_p50_s", "s", Better::Lower, 0.25),
    e2e("job_p99_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// The listed end-to-end metric called `name`.
///
/// # Panics
/// If there is none: names are compile-time literals of this crate.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a listed end-to-end metric"))
}

/// `(name, unit, better)`; layer names are the program's module names.
/// From the traced pass; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, Better); 66] = [
    ("apps.map_s", "s", Better::Lower),
    ("apps.map_records", "count", Better::Lower),
    ("core.partition.route_s", "s", Better::Lower),
    ("core.partition.skew", "ratio", Better::Lower),
    ("core.combine.fold_s", "s", Better::Lower),
    ("core.combine.records_in", "count", Better::Lower),
    ("core.combine.records_out", "count", Better::Lower),
    ("core.combine.reduction", "ratio", Better::Higher),
    ("core.engine.pipeline.push_s", "s", Better::Lower),
    ("core.engine.pipeline.finish_s", "s", Better::Lower),
    ("core.store.inmem.peak_bytes", "B", Better::Lower),
    ("core.store.inmem.entries", "count", Better::Lower),
    ("core.engine.barrier.sort_reduce_s", "s", Better::Lower),
    ("core.store.spill.absorb_s", "s", Better::Lower),
    ("core.store.spill.merge_s", "s", Better::Lower),
    ("core.store.spill.files", "count", Better::Lower),
    ("core.store.spill.bytes", "B", Better::Lower),
    ("core.store.spill.merged_states", "count", Better::Lower),
    ("core.codec.encode_s", "s", Better::Lower),
    ("core.codec.decode_s", "s", Better::Lower),
    ("core.codec.bytes", "B", Better::Lower),
    ("core.store.kv.absorb_s", "s", Better::Lower),
    ("core.store.kv.finish_s", "s", Better::Lower),
    ("kvstore.put_s", "s", Better::Lower),
    ("kvstore.get_s", "s", Better::Lower),
    ("kvstore.hit_ratio", "ratio", Better::Higher),
    ("core.local.map_busy_s", "s", Better::Lower),
    ("core.local.reduce_busy_s", "s", Better::Lower),
    ("core.local.overlap", "ratio", Better::Higher),
    ("core.local.runtime_s", "s", Better::Lower),
    ("core.local.shuffle_batches", "count", Better::Lower),
    ("core.local.shuffle_records", "count", Better::Lower),
    ("attribution.covered_share", "ratio", Better::Higher),
    ("core.local.pool.job_overhead_us", "us", Better::Lower),
    ("core.local.pool.peak_threads", "count", Better::Lower),
    ("core.local.service.job_overhead_us", "us", Better::Lower),
    ("core.local.service.completed", "count", Better::Higher),
    ("core.local.service.rejected", "count", Better::Lower),
    ("core.local.service.job_p99_pooled_s", "s", Better::Lower),
    ("cache.key_mb_per_s", "MiB/s", Better::Higher),
    ("cache.get_us", "us", Better::Lower),
    ("cache.insert_us", "us", Better::Lower),
    ("cache.hit_ratio", "ratio", Better::Higher),
    ("cache.evictions", "count", Better::Lower),
    ("cache.publish_s", "s", Better::Lower),
    ("cache.warm_job_s", "s", Better::Lower),
    ("core.chain.handoff_records", "count", Better::Lower),
    ("core.chain.handoff_batches", "count", Better::Lower),
    ("core.chain.stage1_alone_s", "s", Better::Lower),
    ("core.chain.stage2_alone_s", "s", Better::Lower),
    ("core.chain.overlap_gain", "ratio", Better::Higher),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.record_ns", "ns", Better::Lower),
    ("trace.events", "count", Better::Lower),
    ("cluster.single_s", "s", Better::Lower),
    ("cluster.barrier_s", "s", Better::Lower),
    ("cluster.chain_s", "s", Better::Lower),
    ("cluster.service_s", "s", Better::Lower),
    ("cluster.trace_events", "count", Better::Lower),
    ("cluster.sim_secs_single", "s", Better::Lower),
    ("cluster.sim_secs_barrier", "s", Better::Lower),
    ("cluster.sim_secs_chain", "s", Better::Lower),
    ("sim.queue_op_ns", "ns", Better::Lower),
    ("sim.ps_flow_us", "us", Better::Lower),
    ("net.flow_us", "us", Better::Lower),
    ("dfs.place_us", "us", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap()
    }

    fn as_str(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = benchmark_json();

        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), as_str(m.better));
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
        }

        let layers = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), *name);
            assert_eq!(field(entry, "unit"), *unit);
            assert_eq!(field(entry, "better"), as_str(*better));
        }

        let listed = doc.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(listed.len(), workloads::ALL.len());
        for (entry, spec) in listed.iter().zip(&workloads::ALL) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "why"), spec.why);
        }
    }

    #[test]
    fn names_units_and_reasons_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(name_ok(name) && unit_ok(unit), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for spec in &workloads::ALL {
            assert!(name_ok(spec.name), "{}", spec.name);
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
            assert!(seen.insert(spec.name), "duplicate {}", spec.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
