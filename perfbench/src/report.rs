//! The metric contract: every name and unit the benchmark reports, and
//! the one-line JSON result the run ends with. `BENCHMARK.json` lists
//! the same names (a test keeps the two in step).

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("throughput_ops_s", "ops/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. The prefix before
/// the first `.` names the layer. A layer the workload never enters
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.txn_us", "us"),
    ("engine.residual_us", "us"),
    ("storage.begin_us", "us"),
    ("storage.apply_us", "us"),
    ("storage.apply_txn_us", "us"),
    ("storage.apply_share", "ratio"),
    ("storage.commit_us", "us"),
    ("rules.check_us", "us"),
    ("rules.other_us", "us"),
    ("rules.actions_executed", "count/txn"),
    ("rules.passes", "count/txn"),
    ("propagate.pass_us", "us"),
    ("propagate.diff_us", "us"),
    ("propagate.dispatch_us", "us"),
    ("propagate.levels", "count/pass"),
    ("propagate.threaded_levels", "count/pass"),
    ("propagate.candidates_per_pass", "count/pass"),
    ("propagate.reject_ratio", "ratio"),
    ("objectlog.tabling_hit_ratio", "ratio"),
    ("objectlog.probes_per_pass", "count/pass"),
    ("objectlog.scans_per_pass", "count/pass"),
    ("objectlog.fallback_scans", "count/pass"),
    ("objectlog.replans", "count/pass"),
    ("objectlog.plan_cache_hit_ratio", "ratio"),
    ("amosql.parse_us", "us"),
    ("session.execute_us", "us"),
    ("session.conflict_ratio", "ratio"),
    ("session.lock_hold_us", "us"),
    ("server.wire_us", "us"),
    ("wal.fsyncs_per_commit", "count/commit"),
    ("wal.group_size_mean", "count"),
    ("trace.throughput_ops_s", "ops/s"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (error or wrong result).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (printed before the result).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Report 0 for per-layer metrics of layers this workload never
    /// enters.
    pub fn absent(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }

    /// Add a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result line: exactly the `catalog` metrics, in catalog
    /// order. Panics if the workload left one out or produced a
    /// non-finite value — both are benchmark bugs.
    pub fn result_json(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|&(name, unit)| {
                let v = *self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} missing"));
                assert!(v.is_finite(), "metric {name} is {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_catalog_metrics_in_order() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Default::default()
        };
        for &(name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.result_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.find("setup_s").unwrap() < line.find("peak_rss_mb").unwrap());
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn missing_metric_is_a_bug() {
        Outcome::default().result_json(END_TO_END);
    }
}

#[cfg(test)]
mod contract {
    use super::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` must list exactly the metrics the code reports,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("section end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
                        entry[at..at + entry[at..].find('"').unwrap()].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }
}
