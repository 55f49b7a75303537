//! What one workload run measured, and how it is printed.

use crate::stats::{geomean, percentile};
use dpsyn_explore::ExplorationResults;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Quality-of-results ratios over a workload's fixed request set. They are pure
/// functions of the generated inputs, so they repeat exactly for one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Qor {
    /// Geomean of FA_AOT delay over conventional delay, per design point.
    pub delay_ratio_fa_aot: f64,
    /// Geomean of FA_ALP power over `fa_random` power, per design point.
    pub power_ratio_fa_alp: f64,
    /// Geomean of `fa_anneal` power over `fa_random` power (0 when not run).
    pub power_ratio_fa_anneal: f64,
    /// Mean |simulated − analytic| / analytic power in percent (0 when not run).
    pub sim_divergence_pct: f64,
}

/// Per-flow metrics of one design point: (delay, analytic power, simulated power).
type FlowMetrics = BTreeMap<&'static str, (f64, f64, Option<f64>)>;

/// Accumulates [`Qor`] over the results of a request set.
#[derive(Default)]
pub struct QorTally {
    delay_aot: Vec<f64>,
    power_alp: Vec<f64>,
    power_anneal: Vec<f64>,
    divergence: Vec<f64>,
}

impl QorTally {
    /// Folds every design point of one request's results in.
    pub fn add(&mut self, results: &ExplorationResults) {
        let mut points: BTreeMap<String, FlowMetrics> = BTreeMap::new();
        for point in results.points() {
            let job = &point.job;
            let key = format!(
                "{}|{}|{:?}|{:?}",
                job.source_label(),
                job.width(),
                job.skew(),
                job.bias()
            );
            let metrics = &point.metrics;
            points.entry(key).or_default().insert(
                job.flow().name(),
                (metrics.delay, metrics.power, metrics.simulated_switch_power),
            );
            if let Some(simulated) = metrics.simulated_switch_power {
                self.divergence
                    .push(dpsyn_power::power_divergence(metrics.power, simulated).abs() * 100.0);
            }
        }
        for flows in points.values() {
            self.add_point(flows);
        }
    }

    /// Folds one design point's per-flow (delay, power) pairs in.
    pub fn add_point(&mut self, flows: &FlowMetrics) {
        let ratio =
            |numerator: Option<f64>, denominator: Option<f64>| match (numerator, denominator) {
                (Some(n), Some(d)) if n > 0.0 && d > 0.0 => Some(n / d),
                _ => None,
            };
        let delay = |flow| flows.get(flow).map(|m| m.0);
        let power = |flow| flows.get(flow).map(|m| m.1);
        self.delay_aot
            .extend(ratio(delay("fa_aot"), delay("conventional")));
        self.power_alp
            .extend(ratio(power("fa_alp"), power("fa_random")));
        self.power_anneal
            .extend(ratio(power("fa_anneal"), power("fa_random")));
    }

    pub fn finish(&self) -> Qor {
        Qor {
            delay_ratio_fa_aot: geomean(&self.delay_aot),
            power_ratio_fa_alp: geomean(&self.power_alp),
            power_ratio_fa_anneal: geomean(&self.power_anneal),
            sim_divergence_pct: if self.divergence.is_empty() {
                0.0
            } else {
                self.divergence.iter().sum::<f64>() / self.divergence.len() as f64
            },
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (plus sampled equivalence checks) attempted.
    pub attempted: u64,
    /// Failed, rejected or wrong-output requests and failed checks.
    pub failed: u64,
    /// Design points completed by correct measured requests.
    pub points: u64,
    /// Total measured request time, seconds.
    pub measured_s: f64,
    /// Per-request latency samples, ms.
    pub latencies_ms: Vec<f64>,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Peak resident set size at the end of the measured phase, MB (read before
    /// the benchmark's own equivalence checks, which are not the program's load).
    pub peak_rss_mb: f64,
    pub qor: Qor,
    /// Extra human-readable lines (hit/miss latency split and the like).
    pub notes: Vec<Metric>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<Metric>,
    /// Human-readable layer shares of a traced run.
    pub shares: String,
}

impl Outcome {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let p50 = percentile(&self.latencies_ms, 0.5).unwrap_or(0.0);
        let p90 = percentile(&self.latencies_ms, 0.9).unwrap_or(0.0);
        vec![
            Metric::new("points_per_s", self.points as f64 / self.measured_s, "1/s"),
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("latency_p90_ms", p90, "ms"),
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            Metric::new(
                "qor.delay_ratio_fa_aot",
                self.qor.delay_ratio_fa_aot,
                "ratio",
            ),
            Metric::new(
                "qor.power_ratio_fa_alp",
                self.qor.power_ratio_fa_alp,
                "ratio",
            ),
        ]
    }

    /// Human-readable lines: `metrics`, then the user-facing figures that only
    /// some workloads produce and the failure ratio the JSON carries as counts,
    /// then the workload's notes and, when traced, the layer shares.
    pub fn render_text(&self, workload: &str, metrics: &[Metric]) -> String {
        let mut text = String::new();
        let _ = writeln!(
            text,
            "workload {workload}: {} request(s) attempted, {} failed, {} latency sample(s)",
            self.attempted,
            self.failed,
            self.latencies_ms.len()
        );
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let lines = metrics
            .iter()
            .cloned()
            .chain([
                Metric::new("failed_ratio", failed_ratio, "ratio"),
                Metric::new(
                    "qor.power_ratio_fa_anneal",
                    self.qor.power_ratio_fa_anneal,
                    "ratio",
                ),
                Metric::new("qor.sim_divergence_pct", self.qor.sim_divergence_pct, "%"),
            ])
            .chain(self.notes.iter().cloned());
        for metric in lines {
            let _ = writeln!(
                text,
                "  {:<34} {:>14.4} {}",
                metric.name, metric.value, metric.unit
            );
        }
        text.push_str(&self.shares);
        text
    }
}

/// The result line the benchmark ends with.
pub fn json_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}
