//! What one run measured, and how it is printed.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metric sets an untraced and a
//! traced run print; `BENCHMARK.json` at the repository root lists the same
//! names and units (a test keeps the two in step).

use std::collections::BTreeMap;

use crate::tracer::Span;

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// The end-to-end metrics every untraced run prints, on every workload.
/// The rates are per run of the [`crate::reference`] kernel, so they follow
/// the program, not the host's current speed.
pub const END_TO_END: [MetricDef; 4] = [
    ("setup_s", "s"),
    ("branches_per_ref", "1/ref"),
    ("cells_per_ref", "1/ref"),
    ("peak_heap_mb", "MiB"),
];

/// The per-layer metrics every traced run prints, on every workload. The
/// first four are the workload's host-time figures behind the gated rates.
pub const PER_LAYER: [MetricDef; 53] = [
    ("wall_s", "s"),
    ("branches_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("ref.kernel_ms", "ms"),
    ("traces.synthetic.ns_per_record", "ns"),
    ("traces.decode.native.ns_per_record", "ns"),
    ("traces.decode.gzip.ns_per_record", "ns"),
    ("traces.decode.cbpb.ns_per_record", "ns"),
    ("traces.snapshot.save_us", "us"),
    ("traces.snapshot.restore_us", "us"),
    ("traces.snapshot.bytes", "bytes"),
    ("tage.predict.ns_per_branch", "ns"),
    ("tage.update.ns_per_branch", "ns"),
    ("tage.lanes.ns_per_branch", "ns"),
    ("tage.allocs_per_branch", "count"),
    ("tage.alloc_success_ratio", "ratio"),
    ("tage.useful_resets_per_kbr", "1/kbr"),
    ("confidence.classify.ns_per_branch", "ns"),
    ("confidence.jrs.ns_per_branch", "ns"),
    ("sim.engine.ns_per_branch", "ns"),
    ("sim.multilane.ns_per_branch", "ns"),
    ("sim.engine.unattributed_ns_per_branch", "ns"),
    ("sim.phase.plan_s", "s"),
    ("sim.phase.simulated_frac", "ratio"),
    ("sim.warmcache.hit_ratio", "ratio"),
    ("bench.campaign.worker_busy_frac", "ratio"),
    ("bench.campaign.cell_s.p50", "s"),
    ("bench.campaign.cell_s.max", "s"),
    ("bench.campaign.steals", "count"),
    ("bench.cellstore.load_us", "us"),
    ("bench.cellstore.store_us", "us"),
    ("bench.cellstore.hit_ratio", "ratio"),
    ("bench.service.http_rtt_ms", "ms"),
    ("bench.service.ack_ms", "ms"),
    ("bench.service.server_wall_ms", "ms"),
    ("bench.report.render_ms", "ms"),
    ("bench.report.validate_ms", "ms"),
    ("loadgen.late_ms.p90", "ms"),
    ("sample_speedup_cold", "ratio"),
    ("sample_speedup_warm", "ratio"),
    ("sample_mpki_err_pct", "%"),
    ("submit_to_report_p50_ms", "ms"),
    ("submit_to_report_p90_ms", "ms"),
    ("failed_ops_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.timer_ns", "ns"),
    ("trace.spans", "count"),
    ("traces.self_ms", "ms"),
    ("tage.self_ms", "ms"),
    ("confidence.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("loadgen.self_ms", "ms"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value (a median when `samples > 1`, unless the metric says
    /// otherwise).
    pub value: f64,
    /// How many samples it was derived from.
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repeat.
    pub setup_seconds: Vec<f64>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, Value>,
    /// Operations attempted: cells run, requests sent, correctness checks.
    pub attempted: u64,
    /// Operations that failed or checks that did not hold.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The traced run's spans.
    pub spans: Vec<Span>,
    /// Informational lines printed before the result (digests, the
    /// reconciliation).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets `name` to `value` measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, samples });
    }

    /// Sets `name` unless the workload already measured it.
    pub fn set_default(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.entry(name).or_insert(Value { value, samples });
    }

    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one correctness check, recording `what` as a failure unless it
    /// held.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation (already counted as attempted).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric set this run prints.
    pub fn metric_set(traced: bool) -> &'static [MetricDef] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Human-readable lines: one per metric of the run's set (name, value,
    /// unit, sample count), then the notes and failures.
    pub fn render_text(&self, traced: bool) -> Vec<String> {
        let mut lines = Vec::new();
        for &(name, unit) in Outcome::metric_set(traced) {
            if let Some(value) = self.values.get(name) {
                lines.push(format!(
                    "{name:<40} {:>16.6} {unit:<6} (n={})",
                    value.value, value.samples
                ));
            }
        }
        lines.extend(self.notes.iter().cloned());
        lines.extend(self.failures.iter().map(|f| format!("FAILED: {f}")));
        lines
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// run's metric set.
    ///
    /// # Errors
    ///
    /// Names the first metric of the set the run did not measure, or that
    /// is not a finite number.
    pub fn render_json(&self, traced: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in Outcome::metric_set(traced) {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", value.value));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.value
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn json_lists_exactly_the_run_set() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.25, 3);
        }
        outcome.set("tage.predict.ns_per_branch", 9.0, 1);
        outcome.attempt();
        let json = outcome.render_json(false).unwrap();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!json.contains("tage.predict"));
        assert!(outcome.render_json(true).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.check(true, || unreachable!());
        assert!(outcome.correct());
        outcome.check(false, || "digest drifted".to_string());
        assert!(!outcome.correct());
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
    }
}
