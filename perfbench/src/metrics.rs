//! The metric tables (mirrored by `BENCHMARK.json`) and the result line.

use crate::stats::is_metric_name;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_kips", "kinstr/s"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A layer
/// that does no work in a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("workloads.instrs", "count"),
    ("cpu.self_s", "s"),
    ("cpu.ticks", "count"),
    ("cpu.mean_load_latency_cycles", "cycles"),
    ("cpu.rob_full_stall_frac", "ratio"),
    ("cpu.memory_reject_stalls", "count"),
    ("hierarchy.tick_s", "s"),
    ("hierarchy.issue_s", "s"),
    ("hierarchy.drain_s", "s"),
    ("hierarchy.issue_refused_ratio", "ratio"),
    ("hierarchy.self_s.L2-256KB", "s"),
    ("hierarchy.self_s.LN2-72KB", "s"),
    ("hierarchy.self_s.LN3-144KB", "s"),
    ("hierarchy.self_s.LN4-248KB", "s"),
    ("engine.next_event_s", "s"),
    ("engine.iterations", "count"),
    ("engine.cycles_per_iteration", "cycles"),
    ("build.hierarchy_s", "s"),
    ("fabric.searches", "count"),
    ("fabric.read_hit_ratio", "ratio"),
    ("fabric.le2_hit_share", "ratio"),
    ("fabric.transport_avg_over_min", "ratio"),
    ("fabric.spills", "count"),
    ("fabric.link_traversals", "count"),
    ("l1.miss_ratio", "ratio"),
    ("l2.miss_ratio", "ratio"),
    ("l3.accesses", "count"),
    ("mem.dram_fetches", "count"),
    ("mem.write_drains", "count"),
    ("dnuca.accesses", "count"),
    ("dnuca.hit_ratio", "ratio"),
    ("dnuca.migrations", "count"),
    ("dnuca.mean_hit_latency_cycles", "cycles"),
    ("coherence.invalidations", "count"),
    ("coherence.downgrades", "count"),
    ("coherence.recalls", "count"),
    ("coherence.dir_hit_ratio", "ratio"),
    ("cmp.tick_s", "s"),
    ("cmp.next_event_s", "s"),
    ("batch.step_s", "s"),
    ("batch.steps", "count"),
    ("batch.mean_live", "count"),
    ("batch.solo_equiv_s", "s"),
    ("study.overhead_s", "s"),
    ("energy.account_s", "s"),
    ("scenario.parse_ms", "ms"),
    ("report.render_ms", "ms"),
    ("report.validate_ms", "ms"),
    ("journal.digest_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.status_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected_429", "count"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("fig4a_int_ipc_err_pp", "pp"),
    ("fig4a_fp_ipc_err_pp", "pp"),
    ("fig4b_energy_err_pp", "pp"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The metric values of one run, restricted to one table's names.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `table`; unset metrics print as 0.
    #[must_use]
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`, which must be in the table.
    ///
    /// # Panics
    ///
    /// On a name outside the table or a non-finite value: both are
    /// benchmark bugs.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(key, value);
    }

    /// The value of `name` (0 when unset).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `"metrics"` object: every table entry, in table order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .table
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.get(name)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// A human-readable table for standard error.
    #[must_use]
    pub fn to_text(&self) -> String {
        self.table
            .iter()
            .map(|(name, unit)| format!("  {name:<34} {:>16.6} {unit}\n", self.get(name)))
            .collect()
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (runs for the study workloads, HTTP requests
    /// for serve).
    pub attempted: u64,
    /// Operations that failed (failure rows; non-2xx, 429 or timed-out
    /// requests).
    pub failed: u64,
    /// The metrics of the selected table.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: the last line the benchmark prints.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Whether both tables hold only well-formed, distinct names.
#[must_use]
pub fn tables_are_well_formed() -> bool {
    let mut seen = std::collections::BTreeSet::new();
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .all(|(name, _)| is_metric_name(name) && seen.insert(*name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_hold_distinct_grammatical_names() {
        assert!(tables_are_well_formed());
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let text = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn the_result_line_carries_every_metric() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("wall_s", 1.25);
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        }
        .to_json();
        let value = serde::json::parse(&line).expect("valid JSON");
        let metrics = value.get("metrics").expect("metrics");
        assert_eq!(metrics.as_object().expect("object").len(), END_TO_END.len());
        let wall = metrics.get("wall_s").expect("wall_s");
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
