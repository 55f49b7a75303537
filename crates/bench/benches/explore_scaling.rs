//! Criterion benchmark: thread scaling of the design-space exploration engine on two
//! workloads, plus a determinism/scaling gate.
//!
//! * `ablation_sum8x10_arrival_sweep` — the ablation workload: one 8-operand 10-bit
//!   `random_sum` under four arrival skews, three flows each (12 jobs, a few ms).
//! * `explore_full_sweep` — the `explore` binary's full sweep (216 jobs), large
//!   enough for thread scaling to show on a multi-core host.
//!
//! Beyond the criterion timings, the harness times each workload at 1, 2 and 4
//! workers directly (best of [`REPEATS`] runs), **asserts the results stay
//! bit-identical across thread counts**, and prints a JSON line (the format of the
//! committed `BENCH_explore.json` baseline) recording the measured scaling:
//!
//! ```bash
//! cargo bench -p dpsyn-bench --bench explore_scaling
//! ```
//!
//! On a single-core host the speedups sit near 1.0 (the gate only rejects
//! pathological parallel overhead); on a multi-core host they approach
//! `min(workers, cores)`, since the jobs are independent synthesis runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpsyn_baselines::Flow;
use dpsyn_explore::{explore, ExplorationResults, ExplorationSpec, SkewProfile};
use std::time::Instant;

/// Timed runs per (workload, thread count); the best one is recorded.
const REPEATS: usize = 5;

/// The ablation workload as an exploration matrix: one 8-operand 10-bit sum under
/// four arrival skews, three flows each.
fn ablation_spec(threads: usize) -> ExplorationSpec {
    ExplorationSpec::builder()
        .sum_workload(8)
        .width(10)
        .skews([
            SkewProfile::Uniform(0.0),
            SkewProfile::Uniform(1.0),
            SkewProfile::Uniform(2.0),
            SkewProfile::Uniform(4.0),
        ])
        .flows([Flow::FaAot, Flow::WallaceFixed, Flow::CsaOpt])
        .seed(7)
        .threads(threads)
        .build()
        .expect("scaling workload is well-formed")
}

/// The `explore` binary's 216-job full sweep.
fn full_sweep_spec(threads: usize) -> ExplorationSpec {
    dpsyn_bench::explore_full_sweep()
        .threads(threads)
        .build()
        .expect("full sweep spec is well-formed")
}

/// Builds a workload's specification for a worker count.
type SpecFn = fn(usize) -> ExplorationSpec;

/// The timed workloads, by record name.
const WORKLOADS: [(&str, SpecFn); 2] = [
    ("ablation_sum8x10_arrival_sweep", ablation_spec),
    ("explore_full_sweep", full_sweep_spec),
];

fn bench_explore_scaling(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("explore_scaling");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(format!("ablation_12_jobs_threads_{threads}"), |bencher| {
            let spec = ablation_spec(threads);
            bencher.iter(|| black_box(explore(&spec).expect("exploration succeeds")))
        });
    }
    group.bench_function("full_sweep_216_jobs_threads_2", |bencher| {
        let spec = full_sweep_spec(2);
        bencher.iter(|| black_box(explore(&spec).expect("exploration succeeds")))
    });
    group.finish();

    scaling_gate();
}

/// Flattens a result into exactly-comparable bits.
fn fingerprint(results: &ExplorationResults) -> Vec<(String, u64, u64, u64)> {
    results
        .points()
        .iter()
        .map(|point| {
            (
                point.job.label(),
                point.metrics.delay.to_bits(),
                point.metrics.power.to_bits(),
                point.metrics.area.to_bits(),
            )
        })
        .collect()
}

/// Times [`REPEATS`] full explorations and returns (best elapsed ms, fingerprint).
fn timed_run(spec: &ExplorationSpec) -> (f64, Vec<(String, u64, u64, u64)>) {
    let mut best = f64::INFINITY;
    let mut results = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let run = explore(spec).expect("exploration succeeds");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        results = Some(run);
    }
    (best, fingerprint(&results.expect("at least one run")))
}

/// Times every workload at 1/2/4 workers, prints the `BENCH_explore.json` record,
/// and enforces bit-identical results plus sane parallel overhead.
fn scaling_gate() {
    let mut records = Vec::new();
    for (name, spec) in WORKLOADS {
        let jobs = spec(1).jobs().len();
        let (ms_1, reference) = timed_run(&spec(1));
        let (ms_2, at_2) = timed_run(&spec(2));
        let (ms_4, at_4) = timed_run(&spec(4));
        assert_eq!(reference, at_2, "{name}: results diverged at 2 workers");
        assert_eq!(reference, at_4, "{name}: results diverged at 4 workers");
        // Sharding across more workers than cores must never cost more than 2x; on
        // multi-core hosts the speedup approaches min(4, cores).
        assert!(
            ms_1 / ms_4 >= 0.5,
            "{name}: 4-worker exploration is pathologically slower than 1-worker \
             ({ms_4:.1} ms vs {ms_1:.1} ms)"
        );
        records.push(format!(
            "{{\"workload\": \"{name}\", \"jobs\": {jobs}, \"threads_1_ms\": {ms_1:.1}, \
             \"threads_2_ms\": {ms_2:.1}, \"threads_4_ms\": {ms_4:.1}, \
             \"speedup_2\": {:.2}, \"speedup_4\": {:.2}}}",
            ms_1 / ms_2,
            ms_1 / ms_4,
        ));
    }
    // The host core count is part of the record: a ~1.0x curve from a single-core
    // host and a ~4x curve from a real multi-core host are different baselines and
    // must never be compared silently.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"host_cores\": {host_cores}, \"scheduler\": \"shared_cursor\", \
         \"workloads\": [{}]}}",
        records.join(", ")
    );
}

criterion_group!(benches, bench_explore_scaling);
criterion_main!(benches);
