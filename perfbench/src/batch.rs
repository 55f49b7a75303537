//! The two in-process batch workloads: `sweep_cold` (the explorer's 216-job
//! matrix, no store) and `table2_power` (the Table-2 designs under the power flows
//! with simulated activity). Both are closed loops of `explore_with_stats` calls
//! over a fixed, seed-determined request list, repeated in whole rounds.

use crate::report::{Outcome, QorTally};
use crate::stats::{mix, peak_rss_mb, Rng, SetupTimes};
use crate::trace::Tracer;
use dpsyn_baselines::Flow;
use dpsyn_explore::{
    explore, explore_with_stats, BiasProfile, ExplorationResults, ExplorationSpec,
    ExplorationSpecBuilder, SimActivity, SkewProfile,
};
use std::time::{Duration, Instant};

/// Worker threads per request, as on the 2-core reference host.
pub const THREADS: usize = 2;
/// Distinct sweep passes per `sweep_cold` round.
const SWEEP_PASSES: u64 = 4;
/// Probability draws per Table-2 design per `table2_power` round. One draw keeps
/// the five designs at 20% of the samples each, so p50 and p90 fall inside one
/// design's latency mode rather than on the boundary between two.
const TABLE2_DRAWS: u64 = 1;
/// Simulated stimulus vectors per `table2_power` point.
const TABLE2_VECTORS: usize = 4096;
/// Synthesized netlists per run re-checked against the golden expression model.
const EQUIVALENCE_SAMPLES: usize = 6;

/// One pass of the explorer's full sweep (the `explore` binary's 216-job matrix),
/// re-seeded per pass from the workload seed. Seeds stay below 2^53 so the
/// serve protocol's JSON numbers carry them exactly.
pub fn sweep_spec(seed: u64, pass: u64) -> ExplorationSpecBuilder {
    let pass_seed = sweep_seed(seed, pass);
    ExplorationSpec::builder()
        .designs([
            dpsyn_designs::x2_x_y(),
            dpsyn_designs::mixed_poly(),
            dpsyn_designs::iir(),
            dpsyn_designs::serial_adapter(),
        ])
        .sum_workload(8)
        .widths([8, 12])
        .skews([
            SkewProfile::Keep,
            SkewProfile::Uniform(2.0),
            SkewProfile::Uniform(4.0),
        ])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows(sweep_flows(pass_seed))
        .seed(pass_seed)
}

/// The spec seed of sweep pass `pass`.
pub fn sweep_seed(seed: u64, pass: u64) -> u64 {
    mix(seed, 0x5eed_0000 + pass) >> 12
}

/// The six flows of the sweep; the `fa_random` seed follows the pass seed.
pub fn sweep_flows(pass_seed: u64) -> [Flow; 6] {
    [
        Flow::Conventional,
        Flow::CsaOpt,
        Flow::WallaceFixed,
        Flow::FaRandom(pass_seed % 1000),
        Flow::FaAot,
        Flow::FaAlp,
    ]
}

/// One Table-2 request: a design with seed-drawn input probabilities under
/// {keep, 0.3 bias} × {fa_random, fa_alp, fa_anneal} with simulated activity.
fn table2_spec(seed: u64, design: usize, draw: u64) -> ExplorationSpecBuilder {
    let request_seed = mix(seed, 0x7ab1_e200 + draw * 16 + design as u64);
    let flow_seed = request_seed % 1000 + 1;
    let source = dpsyn_designs::table2_designs()
        .swap_remove(design)
        .with_random_probabilities(request_seed);
    ExplorationSpec::builder()
        .design(source)
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows([
            Flow::FaRandom(flow_seed),
            Flow::FaAlp,
            Flow::FaAnneal(flow_seed),
        ])
        .sim_activity(SimActivity {
            seed: request_seed >> 8,
            vectors: TABLE2_VECTORS,
        })
        .seed(request_seed)
}

/// The request builders of one round, in send order.
fn round_builders(workload: &str, seed: u64) -> Vec<ExplorationSpecBuilder> {
    match workload {
        "sweep_cold" => (0..SWEEP_PASSES)
            .map(|pass| sweep_spec(seed, pass))
            .collect(),
        _ => (0..TABLE2_DRAWS)
            .flat_map(|draw| (0..5).map(move |design| table2_spec(seed, design, draw)))
            .collect(),
    }
}

fn build(builder: ExplorationSpecBuilder, threads: usize) -> ExplorationSpec {
    builder
        .threads(threads)
        .build()
        .expect("benchmark specs are well-formed")
}

/// Runs `sweep_cold` or `table2_power` for `seconds`, traced when `tracer` is set.
pub fn run(workload: &str, seed: u64, seconds: u64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut outcome = Outcome::default();

    // Set-up: spec and design build plus one warm-up request.
    let budget = Duration::from_secs(seconds);
    let setup = || {
        let specs: Vec<ExplorationSpec> = round_builders(workload, seed)
            .into_iter()
            .map(|builder| build(builder, THREADS))
            .collect();
        explore(&specs[0]).expect("warm-up request succeeds");
        specs
    };
    let mut setups = SetupTimes::new(budget);
    let specs = setups.time(setup);

    // Output references: each request rendered single-threaded, outside any timing.
    let references: Vec<ExplorationResults> = round_builders(workload, seed)
        .into_iter()
        .map(|builder| explore(&build(builder, 1)).expect("reference run succeeds"))
        .collect();
    let summaries: Vec<String> = references.iter().map(|r| r.render_summary()).collect();
    let mut qor = QorTally::default();
    for results in &references {
        qor.add(results);
    }
    if workload == "table2_power" {
        add_table2_delay_ratio(&specs, &mut qor);
    }
    outcome.qor = qor.finish();

    // Measured closed loop: whole rounds until the time budget is spent. A traced
    // run alternates untraced and traced rounds (at least one of each).
    let start = Instant::now();
    let mut measured_ms = 0.0;
    let mut round = 0u64;
    loop {
        let traced = tracer.is_some() && round % 2 == 1;
        for (index, spec) in specs.iter().enumerate() {
            let request = Instant::now();
            let result = explore_with_stats(spec);
            let rendered = result
                .as_ref()
                .ok()
                .map(|(results, _)| results.render_summary());
            let end = Instant::now();
            let latency = end.duration_since(request).as_secs_f64() * 1e3;
            measured_ms += latency;
            outcome.latencies_ms.push(latency);
            outcome.attempted += 1;
            let points = match &rendered {
                Some(summary) if *summary == summaries[index] => spec.jobs().len() as u64,
                _ => {
                    outcome.failed += 1;
                    0
                }
            };
            outcome.points += points;
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.note_request(traced, points, latency);
                if let (true, Ok((results, stats))) = (traced, &result) {
                    tracer.replay_request(spec, results, stats, request, end);
                }
            }
        }
        round += 1;
        if setups.due(start.elapsed()) {
            setups.time(setup);
        }
        if start.elapsed() >= budget && (tracer.is_none() || round >= 2) {
            break;
        }
    }
    outcome.setup_s = setups.median();
    outcome.measured_s = measured_ms / 1e3;
    outcome.peak_rss_mb = peak_rss_mb();
    check_equivalence_sample(seed, &specs, &references, &mut outcome);
    outcome
}

/// Table-2 runs no conventional/FA_AOT flow, so its delay ratio is taken by
/// direct flow runs, outside any timing, over the same design points with a
/// seed-drawn input-arrival skew (the property FA_AOT exploits; the Table-2
/// points themselves all arrive at time zero).
fn add_table2_delay_ratio(specs: &[ExplorationSpec], qor: &mut QorTally) {
    for spec in specs {
        for job in spec.jobs().iter().filter(|job| job.flow() == Flow::FaAlp) {
            let design = spec
                .materialize(job)
                .with_uniform_arrival_skew(spec.seed(), 2.0);
            let mut flows = std::collections::BTreeMap::new();
            for flow in [Flow::Conventional, Flow::FaAot] {
                let result = flow
                    .run(
                        design.expr(),
                        design.spec(),
                        design.output_width(),
                        spec.tech(),
                    )
                    .expect("Table-2 designs synthesize");
                flows.insert(flow.name(), (result.delay, result.power_mw, None));
            }
            qor.add_point(&flows);
        }
    }
}

/// Re-synthesizes a seed-chosen sample of the round's points with a direct
/// `Flow::run`, checks the netlist against the golden expression model and its
/// figures against the explored point. Each check counts as one attempt.
pub fn check_equivalence_sample(
    seed: u64,
    specs: &[ExplorationSpec],
    references: &[ExplorationResults],
    outcome: &mut Outcome,
) {
    let mut rng = Rng::new(seed, 0xe9_0001);
    for _ in 0..EQUIVALENCE_SAMPLES {
        let request = rng.below(specs.len());
        let spec = &specs[request];
        let points = references[request].points();
        let point = &points[rng.below(points.len())];
        let design = spec.materialize(&point.job);
        let width = design.output_width();
        outcome.attempted += 1;
        let ok = point
            .job
            .flow()
            .run(design.expr(), design.spec(), width, spec.tech())
            .is_ok_and(|result| {
                result.delay == point.metrics.delay
                    && result.power_mw == point.metrics.power
                    && result.area == point.metrics.area
                    && dpsyn_sim::check_equivalence(
                        &result.netlist,
                        &result.word_map,
                        design.expr(),
                        design.spec(),
                        width,
                        512,
                        rng.next_u64(),
                    )
                    .is_ok()
            });
        if !ok {
            eprintln!("equivalence check failed on {}", point.job.label());
            outcome.failed += 1;
        }
    }
}
