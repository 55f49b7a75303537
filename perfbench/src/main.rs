//! End-to-end benchmark of the dpsyn explorer, its `--serve` mode and the
//! Table-2 power flows; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <sweep_cold|serve_warm|table2_power|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then one JSON result line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.

mod batch;
mod report;
mod serve_warm;
mod stats;
mod trace;

use report::{json_line, Outcome};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["sweep_cold", "serve_warm", "table2_power"];
/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Scratch directory (socket, store files, span dumps) under the working directory.
const RUN_DIR: &str = ".bench_run";

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Runs one workload, untraced or traced.
fn run(workload: &str, seed: u64, seconds: u64, traced: bool, dir: &Path) -> Outcome {
    let mut tracer = traced.then(|| {
        Tracer::new(if workload == "serve_warm" {
            1
        } else {
            batch::THREADS
        })
    });
    let mut outcome = match workload {
        "serve_warm" => serve_warm::run(seed, seconds, dir, tracer.as_mut()),
        _ => batch::run(workload, seed, seconds, tracer.as_mut()),
    };
    if let Some(tracer) = tracer {
        let (mut layers, shares) = tracer.layers();
        // Quality ratios only `table2_power` produces ride along as layer
        // metrics (0 elsewhere); end-to-end metrics must exist on every workload.
        layers.push(report::Metric::new(
            "qor.power_ratio_fa_anneal",
            outcome.qor.power_ratio_fa_anneal,
            "ratio",
        ));
        layers.push(report::Metric::new(
            "qor.sim_divergence_pct",
            outcome.qor.sim_divergence_pct,
            "%",
        ));
        outcome.layers = layers;
        outcome.shares = shares;
        let spans = Path::new(RUN_DIR).join(format!("spans-{workload}-seed{seed}.tsv"));
        match tracer.write_spans(&spans) {
            Ok(()) => eprintln!("spans written to {}", spans.display()),
            Err(error) => eprintln!("cannot write spans to {}: {error}", spans.display()),
        }
    }
    outcome
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (DEFAULT_SEED, 10u64, false);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("`{}` needs a value", pair[0]));
        };
        let number = value.parse::<u64>();
        match (flag.as_str(), number) {
            ("--workload", _) => workload = Some(value.clone()),
            ("--seed", Ok(n)) => seed = n,
            ("--seconds", Ok(n)) => seconds = n,
            ("--trace", Ok(n @ 0..=1)) => traced = n == 1,
            _ => return usage(&format!("bad argument `{flag} {value}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("missing --workload");
    };
    let selected: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        name if WORKLOADS.contains(&name) => vec![name],
        other => return usage(&format!("unknown workload `{other}`")),
    };

    let dir = Path::new(RUN_DIR).join(std::process::id().to_string());
    if let Err(error) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {error}", dir.display());
        return ExitCode::FAILURE;
    }
    for name in selected {
        let outcome = run(name, seed, seconds, traced, &dir);
        let metrics = if traced {
            outcome.layers.clone()
        } else {
            outcome.end_to_end()
        };
        print!("{}", outcome.render_text(name, &metrics));
        println!("{}", json_line(&outcome, &metrics));
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Leaves the span dumps of traced runs; removes the directory otherwise.
    let _ = std::fs::remove_dir(RUN_DIR);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-layer metrics that are exact counts of the replayed work (or exact
    /// ratios of such counts). Scheduling counters (`explore.steals`,
    /// `explore.job_spread`, `explore.sim_reuses`) depend on thread timing and
    /// are deliberately absent.
    const EXACT: [&str; 9] = [
        "ir.addends",
        "core.cells",
        "netlist.ops",
        "sim.vectors",
        "baselines.anneal_proposals",
        "baselines.anneal_accept_ratio",
        "explore.store_records",
        "explore.store_hit_ratio",
        "explore.serve_rejects",
    ];

    fn exact_counts(workload: &str, seed: u64) -> (Vec<(String, f64)>, report::Qor) {
        let dir = Path::new(RUN_DIR).join(format!("test-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test run directory creates");
        let mut tracer = Tracer::new(batch::THREADS);
        let outcome = match workload {
            "serve_warm" => serve_warm::run(seed, 0, &dir, Some(&mut tracer)),
            _ => batch::run(workload, seed, 0, Some(&mut tracer)),
        };
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.failed, 0, "{workload}: every output check passes");
        let (layers, _) = tracer.layers();
        let counts = layers
            .into_iter()
            .filter(|metric| EXACT.contains(&metric.name.as_str()))
            .map(|metric| (metric.name, metric.value))
            .collect();
        (counts, outcome.qor)
    }

    #[test]
    fn counts_repeat_exactly_across_runs() {
        for workload in WORKLOADS {
            let first = exact_counts(workload, 5);
            let second = exact_counts(workload, 5);
            assert_eq!(first, second, "{workload}: counts differ between two runs");
            assert!(
                first.0.iter().any(|(_, value)| *value > 0.0),
                "{workload}: the trace counted some work"
            );
        }
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(stats::percentile(&samples, 0.5), Some(50.0));
        assert_eq!(stats::percentile(&samples, 0.9), Some(90.0));
        assert_eq!(stats::percentile(&samples, 0.95), None);
    }
}
