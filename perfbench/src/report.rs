//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_qps", "queries/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("settled_query_share", "ratio"),
    ("sim.total_cost_usd", "USD"),
    ("sim.mean_response_s", "sim-s"),
    ("sim.p99_response_s", "sim-s"),
    ("sim.hit_rate", "ratio"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("fleet.router.route_ns_per_query", "ns/query"),
    ("fleet.router.route_p50_us", "us"),
    ("fleet.router.route_p99_us", "us"),
    ("fleet.router.share", "ratio"),
    ("fleet.node.serve_ns_per_query", "ns/query"),
    ("fleet.node.serve_p99_us", "us"),
    ("fleet.node.share", "ratio"),
    ("simulator.step_ns_per_query", "ns/query"),
    ("simulator.step_p99_us", "us"),
    ("simulator.share", "ratio"),
    ("workload.next_ns_per_query", "ns/query"),
    ("workload.share", "ratio"),
    ("fleet.elastic.review_ns_per_query", "ns/query"),
    ("fleet.elastic.reviews", "count"),
    ("fleet.elastic.spawns", "count"),
    ("fleet.elastic.retires", "count"),
    ("fleet.faults.process_ns_per_query", "ns/query"),
    ("fleet.faults.crashes", "count"),
    ("fleet.faults.recoveries", "count"),
    ("fleet.faults.write_off_usd", "USD"),
    ("fleet.faults.salvaged_usd", "USD"),
    ("fleet.population.accrue_ns_per_query", "ns/query"),
    ("fleet.population.finish_ns", "ns"),
    ("econ.plan_cache.hits", "count"),
    ("econ.plan_cache.misses", "count"),
    ("econ.plan_cache.refreshes", "count"),
    ("econ.plan_cache.completions", "count"),
    ("econ.plan_cache.victim_hits", "count"),
    ("econ.plan_cache.hit_ratio", "ratio"),
    ("planner.skeleton_cache.hits", "count"),
    ("planner.skeleton_cache.misses", "count"),
    ("planner.skeleton_cache.admissions", "count"),
    ("planner.skeleton_cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.investments", "count"),
    ("cache.evictions", "count"),
    ("econ.build_per_payment", "ratio"),
    ("setup.schema_ns", "ns"),
    ("setup.candidates_ns", "ns"),
    ("setup.cand_index_ns", "ns"),
    ("telemetry.health.overhead_ns_per_query", "ns/query"),
    ("telemetry.recorder.overhead_ns_per_query", "ns/query"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Metric values by name, filled as a run measures them.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`.
    ///
    /// # Panics
    /// Panics on a non-finite value: every metric is a measured number.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} measured {value}");
        self.values.insert(name, value);
    }

    /// The JSON `metrics` object over `table`, in table order.
    ///
    /// # Panics
    /// Panics if a metric of the table was never measured.
    #[must_use]
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The run's result line: the last line of standard output.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

/// Median of `samples` (mean of the middle two for an even count); 0 for
/// none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), when the platform
/// reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// under the same name and unit.
    #[test]
    fn tables_match_the_benchmark_declaration() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "{entry} not declared");
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metrics_print_in_table_order_with_units() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("sim_qps", 1234.5);
        let json = m.json(&END_TO_END[..2]);
        assert_eq!(
            json,
            "{\"sim_qps\": {\"value\": 1234.5, \"unit\": \"queries/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
        assert_eq!(
            result_line(true, 3, 0, "{}"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
