//! Benchmark harness: regenerates every table and figure of the DAC 2000 evaluation.
//!
//! The binaries of this crate print the tables; the library functions below compute the
//! underlying data so that integration tests can assert the *shape* of the results
//! (who wins, by roughly what factor) without parsing text output:
//!
//! | Paper artefact | Function | Binary |
//! |---|---|---|
//! | Table 1 (timing: Conventional vs CSA_OPT vs FA_AOT) | [`table1`] | `cargo run -p dpsyn-bench --bin table1` |
//! | Table 2 (power: FA_random vs FA_ALP vs fa_anneal) | [`table2`] | `cargo run -p dpsyn-bench --bin table2` |
//! | Figure 2 (selection effect on delay) | [`figure2`] | `cargo run -p dpsyn-bench --bin figure2` |
//! | Figure 4 (selection effect on power) | [`figure4`] | `cargo run -p dpsyn-bench --bin figure4` |
//! | Ablation sweeps (ours) | [`arrival_skew_sweep`], [`probability_skew_sweep`] | `cargo run -p dpsyn-bench --bin ablation` |
//!
//! The table and sweep functions drive their per-design flow matrices through the
//! `dpsyn-explore` engine (sharded over the available cores); exploration results are
//! bit-identical for every worker count, so the emitted tables are reproducible
//! byte-for-byte. The `explore` binary exposes the engine directly for free-form
//! design-space sweeps with a Pareto summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpsyn_baselines::Flow;
use dpsyn_core::{sc_t, Objective, SelectionStrategy, Synthesizer};
use dpsyn_designs::Design;
use dpsyn_explore::{
    explore, BiasProfile, ExplorationResults, ExplorationSpec, ExplorationSpecBuilder, SkewProfile,
};
use dpsyn_ir::{BitProfile, InputSpec};
use dpsyn_power::q_transform;
use dpsyn_tech::TechLibrary;
use std::fmt::Write as _;

/// Worker count for the exploration-driven sweeps: every available core, capped at 8.
/// Exploration results are bit-identical for any worker count, so this only affects
/// wall-clock time, never the tables.
fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// Delay/area metrics of one flow over one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Critical delay in ns.
    pub delay: f64,
    /// Cell area in library units.
    pub area: f64,
}

/// One row of Table 1: the timing comparison of the three flows on one design.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Design name.
    pub design: String,
    /// Paper description of the design.
    pub description: String,
    /// Conventional operation-level flow.
    pub conventional: Metrics,
    /// Word-level CSA_OPT flow.
    pub csa_opt: Metrics,
    /// The paper's FA_AOT flow.
    pub fa_aot: Metrics,
}

impl Table1Row {
    /// Delay improvement of FA_AOT over the conventional flow (fraction).
    pub fn delay_improvement_vs_conventional(&self) -> f64 {
        improvement(self.conventional.delay, self.fa_aot.delay)
    }

    /// Delay improvement of FA_AOT over CSA_OPT (fraction).
    pub fn delay_improvement_vs_csa_opt(&self) -> f64 {
        improvement(self.csa_opt.delay, self.fa_aot.delay)
    }

    /// Area improvement of FA_AOT over the conventional flow (fraction).
    pub fn area_improvement_vs_conventional(&self) -> f64 {
        improvement(self.conventional.area, self.fa_aot.area)
    }

    /// Area improvement of FA_AOT over CSA_OPT (fraction).
    pub fn area_improvement_vs_csa_opt(&self) -> f64 {
        improvement(self.csa_opt.area, self.fa_aot.area)
    }
}

fn improvement(baseline: f64, ours: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline
    }
}

/// The `explore` binary's full sweep: four benchmark designs plus an 8-operand sum
/// workload, crossed with two widths, three skew and two bias profiles over six
/// flows (216 jobs). The caller picks the worker count.
pub fn explore_full_sweep() -> ExplorationSpecBuilder {
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
        .flows([
            Flow::Conventional,
            Flow::CsaOpt,
            Flow::WallaceFixed,
            Flow::FaRandom(8),
            Flow::FaAot,
            Flow::FaAlp,
        ])
        .seed(7)
}

/// Runs `flows` over every design through the exploration engine (all cores, capped
/// at 8) and returns the evaluated points in canonical order: per design, one point
/// per flow in the given flow order.
fn explore_designs(
    designs: impl IntoIterator<Item = Design>,
    flows: impl IntoIterator<Item = Flow>,
    tech: &TechLibrary,
) -> ExplorationResults {
    let spec = ExplorationSpec::builder()
        .designs(designs)
        .flows(flows)
        .tech(tech.clone())
        .threads(sweep_threads())
        .build()
        .expect("table sweep spec is well-formed");
    explore(&spec).expect("every table flow succeeds on the built-in designs")
}

/// Computes Table 1 (timing comparison) for the given designs.
///
/// The three flows of every design run through the `dpsyn-explore` engine (sharded
/// across the available cores); the resulting rows are bit-identical to running the
/// flows directly, whatever the worker count.
///
/// # Panics
///
/// Panics if any flow fails on a design; the built-in designs are covered by tests.
pub fn table1(designs: &[Design], tech: &TechLibrary) -> Vec<Table1Row> {
    if designs.is_empty() {
        return Vec::new();
    }
    let flows = [Flow::Conventional, Flow::CsaOpt, Flow::FaAot];
    let results = explore_designs(designs.iter().cloned(), flows, tech);
    designs
        .iter()
        .zip(results.points().chunks(flows.len()))
        .map(|(design, row)| {
            let metrics = |index: usize| Metrics {
                delay: row[index].metrics.delay,
                area: row[index].metrics.area,
            };
            Table1Row {
                design: design.name().to_string(),
                description: design.description().to_string(),
                conventional: metrics(0),
                csa_opt: metrics(1),
                fa_aot: metrics(2),
            }
        })
        .collect()
}

/// Formats Table 1 rows in the layout of the paper (plus the paper's averages for
/// reference).
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 1 — designs optimized for timing (reproduction, lcbg10pv-like library)"
    );
    let _ = writeln!(
        text,
        "{:<16} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>7} {:>7}",
        "design", "conv ns", "conv ar", "csa ns", "csa ar", "aot ns", "aot ar", "d% conv", "d% csa"
    );
    let _ = writeln!(text, "{}", "-".repeat(110));
    let mut conv_improvement = 0.0;
    let mut csa_improvement = 0.0;
    for row in rows {
        let _ = writeln!(
            text,
            "{:<16} | {:>9.2} {:>9.0} | {:>9.2} {:>9.0} | {:>9.2} {:>9.0} | {:>6.1}% {:>6.1}%",
            row.design,
            row.conventional.delay,
            row.conventional.area,
            row.csa_opt.delay,
            row.csa_opt.area,
            row.fa_aot.delay,
            row.fa_aot.area,
            100.0 * row.delay_improvement_vs_conventional(),
            100.0 * row.delay_improvement_vs_csa_opt(),
        );
        conv_improvement += row.delay_improvement_vs_conventional();
        csa_improvement += row.delay_improvement_vs_csa_opt();
    }
    if !rows.is_empty() {
        let _ = writeln!(text, "{}", "-".repeat(110));
        let _ = writeln!(
            text,
            "average delay improvement of FA_AOT: {:.1}% vs conventional, {:.1}% vs CSA_OPT",
            100.0 * conv_improvement / rows.len() as f64,
            100.0 * csa_improvement / rows.len() as f64,
        );
        let _ = writeln!(
            text,
            "paper reports (Synopsys DC + lcbg10pv 0.35um): 37.8% vs conventional, 23.5% vs CSA_OPT"
        );
    }
    text
}

/// One row of Table 2: the power comparison of FA_random, FA_ALP and the
/// delta-searched `fa_anneal` on one design.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Design name.
    pub design: String,
    /// Average switching power of the random-selection trees (mW-like scale).
    pub fa_random_power: f64,
    /// Switching power of the FA_ALP tree.
    pub fa_alp_power: f64,
    /// Switching power of the `fa_anneal` local search (seed 1, the first
    /// FA_random seed — an equal-budget comparison).
    pub fa_anneal_power: f64,
}

impl Table2Row {
    /// Power improvement of FA_ALP over FA_random (fraction).
    pub fn improvement(&self) -> f64 {
        improvement(self.fa_random_power, self.fa_alp_power)
    }

    /// Power improvement of `fa_anneal` over FA_random (fraction).
    pub fn anneal_improvement(&self) -> f64 {
        improvement(self.fa_random_power, self.fa_anneal_power)
    }
}

/// Computes Table 2 (power comparison) for the given designs.
///
/// Input signal probabilities are drawn pseudo-randomly per design from
/// `probability_seed` (the paper also uses random input probabilities) and the
/// FA_random column averages `random_runs` random selections. Every (design, flow)
/// pair — one FA_ALP run, `random_runs` seeded FA_random runs and one `fa_anneal`
/// local search per design — is one job of a `dpsyn-explore` sweep.
///
/// # Panics
///
/// Panics if any flow fails on a design; the built-in designs are covered by tests.
pub fn table2(
    designs: &[Design],
    tech: &TechLibrary,
    probability_seed: u64,
    random_runs: u64,
) -> Vec<Table2Row> {
    if designs.is_empty() {
        return Vec::new();
    }
    let runs = random_runs.max(1);
    let mut flows = vec![Flow::FaAlp];
    flows.extend((0..runs).map(|seed| Flow::FaRandom(seed + 1)));
    // Equal seed budget: the local search starts from the first FA_random seed.
    flows.push(Flow::FaAnneal(1));
    let results = explore_designs(
        designs
            .iter()
            .map(|design| design.with_random_probabilities(probability_seed)),
        flows.clone(),
        tech,
    );
    designs
        .iter()
        .zip(results.points().chunks(flows.len()))
        .map(|(design, row)| {
            // Sum in ascending seed order, exactly as the pre-engine loop did, so the
            // float accumulation stays bit-identical.
            let random_total: f64 = row[1..=runs as usize]
                .iter()
                .map(|point| point.metrics.power)
                .sum();
            Table2Row {
                design: design.name().to_string(),
                fa_random_power: random_total / runs as f64,
                fa_alp_power: row[0].metrics.power,
                fa_anneal_power: row[runs as usize + 1].metrics.power,
            }
        })
        .collect()
}

/// Formats Table 2 rows in the layout of the paper.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 2 — designs optimized for power (reproduction, random input probabilities)"
    );
    let _ = writeln!(
        text,
        "{:<16} | {:>14} | {:>14} | {:>7} | {:>15} | {:>7}",
        "design", "FA_random (mW)", "FA_ALP (mW)", "impr.", "fa_anneal (mW)", "impr."
    );
    let _ = writeln!(text, "{}", "-".repeat(90));
    let mut total = 0.0;
    let mut anneal_total = 0.0;
    for row in rows {
        let _ = writeln!(
            text,
            "{:<16} | {:>14.2} | {:>14.2} | {:>6.1}% | {:>15.2} | {:>6.1}%",
            row.design,
            row.fa_random_power,
            row.fa_alp_power,
            100.0 * row.improvement(),
            row.fa_anneal_power,
            100.0 * row.anneal_improvement()
        );
        total += row.improvement();
        anneal_total += row.anneal_improvement();
    }
    if !rows.is_empty() {
        let _ = writeln!(text, "{}", "-".repeat(90));
        let _ = writeln!(
            text,
            "average improvement: FA_ALP {:.1}%, fa_anneal {:.1}%  (paper reports 11.8% for \
             FA_ALP with Design Power)",
            100.0 * total / rows.len() as f64,
            100.0 * anneal_total / rows.len() as f64
        );
    }
    text
}

/// The three FA-tree allocations of Figure 2 and the latest final-adder input arrival
/// of each (the paper's delays 9 / 9 / 8 with `Ds = 2`, `Dc = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure2Result {
    /// Fixed Wallace selection (Figure 2(a)).
    pub wallace: f64,
    /// Earliest-arrival selection restricted to input addends ("column isolation",
    /// Figure 2(b)).
    pub column_isolation: f64,
    /// The paper's FA_AOT selection using intermediate signals too ("column
    /// interaction", Figure 2(c)).
    pub column_interaction: f64,
}

/// Reproduces Figure 2: F = X + Y + Z + W with the figure's bit arrival times and the
/// unit delay model (`Ds = 2`, `Dc = 1`).
pub fn figure2() -> Figure2Result {
    let lib = TechLibrary::unit();
    let expr = dpsyn_ir::parse_expr("x + y + z + w").expect("figure 2 expression");
    // Bit arrival times of the figure: x1 = x0 = 7, y0 = 5, y1 = 2, z0 = 4, w0 = 2, w1 = 3.
    let spec = InputSpec::builder()
        .var_with_profiles(
            "x",
            vec![BitProfile::new(7.0, 0.5), BitProfile::new(7.0, 0.5)],
        )
        .var_with_profiles(
            "y",
            vec![BitProfile::new(5.0, 0.5), BitProfile::new(2.0, 0.5)],
        )
        .var_with_profiles("z", vec![BitProfile::new(4.0, 0.5)])
        .var_with_profiles(
            "w",
            vec![BitProfile::new(2.0, 0.5), BitProfile::new(3.0, 0.5)],
        )
        .build()
        .expect("figure 2 spec");
    let run = |strategy: Option<SelectionStrategy>| {
        let mut synthesizer = Synthesizer::new(&expr, &spec)
            .technology(&lib)
            .objective(Objective::Timing)
            .output_width(4);
        if let Some(strategy) = strategy {
            synthesizer = synthesizer.strategy(strategy);
        }
        synthesizer
            .run()
            .expect("figure 2 synthesis")
            .report()
            .final_input_arrival
    };
    let wallace = run(Some(SelectionStrategy::RowOrder));
    let column_interaction = run(None);
    // Column isolation (Figure 2(b)): each column is reduced over its *input* addends
    // only. Column 0 (arrivals 7, 5, 4, 2) runs SC_T; column 1 has exactly three input
    // addends (7, 2, 3) which — together with the carry arriving from column 0 — need a
    // full adder, so its sum/carry are max + Ds and max + Dc directly.
    let column0 = sc_t(&[7.0, 5.0, 4.0, 2.0], 2.0, 1.0, 1.0, 1.0);
    let column1_sum = [7.0f64, 2.0, 3.0].into_iter().fold(0.0f64, f64::max) + 2.0;
    let column1_carry = column1_sum - 2.0 + 1.0;
    let column_isolation = column0
        .remaining
        .iter()
        .chain(column0.carries.iter())
        .copied()
        .chain([column1_sum, column1_carry])
        .fold(0.0f64, f64::max);
    Figure2Result {
        wallace,
        column_isolation,
        column_interaction,
    }
}

/// The switching energies of the four possible FA input selections of Figure 4, plus
/// which selection the paper's SC_LP rule makes.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Result {
    /// Energy of the FA when the addend with index `i` of `p = [0.1, 0.2, 0.3, 0.4]`
    /// is the one left out.
    pub energy_leaving_out: [f64; 4],
    /// Index of the addend SC_LP leaves out (always 3: the least skewed addend).
    pub sc_lp_leaves_out: usize,
}

/// Reproduces Figure 4: one full adder over three of four single-bit addends with
/// probabilities 0.1, 0.2, 0.3, 0.4 and `Ws = Wc = 1`.
pub fn figure4() -> Figure4Result {
    let probabilities = [0.1, 0.2, 0.3, 0.4];
    let mut energy_leaving_out = [0.0; 4];
    for (skip, energy) in energy_leaving_out.iter_mut().enumerate() {
        let picked: Vec<f64> = probabilities
            .iter()
            .enumerate()
            .filter(|(index, _)| *index != skip)
            .map(|(_, p)| p - 0.5)
            .collect();
        *energy = q_transform::fa_switching_energy(picked[0], picked[1], picked[2], 1.0, 1.0);
    }
    let sc_lp_leaves_out = energy_leaving_out
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(index, _)| index)
        .expect("four candidate selections");
    Figure4Result {
        energy_leaving_out,
        sc_lp_leaves_out,
    }
}

/// One point of an ablation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewPoint {
    /// The sweep parameter (maximum arrival skew in ns, or probability skew).
    pub skew: f64,
    /// Delay (or switching energy) of the paper's algorithm.
    pub ours: f64,
    /// Delay (or switching energy) of the fixed Wallace selection.
    pub wallace: f64,
    /// Delay of the word-level CSA_OPT flow (arrival sweep) or switching energy of the
    /// random selection (probability sweep).
    pub reference: f64,
}

/// First-appearance deduplication of sweep values (exact bit equality), so repeated
/// sweep points stay legal for callers while the engine's axes remain conflict-free.
fn dedup_sweep_values(values: &[f64]) -> Vec<f64> {
    let mut unique: Vec<f64> = Vec::new();
    for value in values {
        if !unique.iter().any(|seen| seen.to_bits() == value.to_bits()) {
            unique.push(*value);
        }
    }
    unique
}

/// Position of `value` in `unique` (by bit equality); `unique` came from
/// [`dedup_sweep_values`] over the same input, so the lookup always succeeds.
fn sweep_position(unique: &[f64], value: f64) -> usize {
    unique
        .iter()
        .position(|seen| seen.to_bits() == value.to_bits())
        .expect("every sweep value appears in its deduplicated list")
}

/// Sweeps the input arrival-time skew of a synthetic 8-operand sum and reports the
/// critical delay of FA_AOT, the fixed Wallace selection and CSA_OPT at every point.
///
/// The whole sweep is one `dpsyn-explore` run: the (deduplicated) skew values become
/// the engine's arrival-skew axis over a `random_sum` workload source, so every
/// (skew, flow) pair is one parallel job; repeated input values repeat their row.
pub fn arrival_skew_sweep(skews: &[f64], tech: &TechLibrary, seed: u64) -> Vec<SkewPoint> {
    if skews.is_empty() {
        return Vec::new();
    }
    let unique = dedup_sweep_values(skews);
    let flows = [Flow::FaAot, Flow::WallaceFixed, Flow::CsaOpt];
    let spec = ExplorationSpec::builder()
        .sum_workload(8)
        .width(12)
        .skews(unique.iter().map(|skew| SkewProfile::Uniform(*skew)))
        .flows(flows)
        .tech(tech.clone())
        .seed(seed)
        .threads(sweep_threads())
        .build()
        .expect("arrival sweep spec is well-formed");
    let results = explore(&spec).expect("every sweep flow succeeds");
    skews
        .iter()
        .map(|skew| {
            let row = &results.points()[sweep_position(&unique, *skew) * flows.len()..];
            SkewPoint {
                skew: *skew,
                ours: row[0].metrics.delay,
                wallace: row[1].metrics.delay,
                reference: row[2].metrics.delay,
            }
        })
        .collect()
}

/// Sweeps the input probability skew of a synthetic 8-operand sum and reports the
/// switching energy of FA_ALP, the fixed Wallace selection and FA_random.
///
/// Like [`arrival_skew_sweep`], one `dpsyn-explore` run: the (deduplicated) skew
/// values become the engine's probability-bias axis.
pub fn probability_skew_sweep(skews: &[f64], tech: &TechLibrary, seed: u64) -> Vec<SkewPoint> {
    if skews.is_empty() {
        return Vec::new();
    }
    let unique = dedup_sweep_values(skews);
    let flows = [Flow::FaAlp, Flow::WallaceFixed, Flow::FaRandom(seed + 1)];
    let spec = ExplorationSpec::builder()
        .sum_workload(8)
        .width(12)
        .biases(unique.iter().map(|skew| BiasProfile::Uniform(*skew)))
        .flows(flows)
        .tech(tech.clone())
        .seed(seed)
        .threads(sweep_threads())
        .build()
        .expect("probability sweep spec is well-formed");
    let results = explore(&spec).expect("every sweep flow succeeds");
    skews
        .iter()
        .map(|skew| {
            let row = &results.points()[sweep_position(&unique, *skew) * flows.len()..];
            SkewPoint {
                skew: *skew,
                ours: row[0].metrics.switching_energy,
                wallace: row[1].metrics.switching_energy,
                reference: row[2].metrics.switching_energy,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_matches_the_paper_exactly() {
        let result = figure2();
        assert_eq!(result.wallace, 9.0);
        assert_eq!(result.column_isolation, 9.0);
        assert_eq!(result.column_interaction, 8.0);
    }

    #[test]
    fn figure4_sc_lp_leaves_out_the_least_skewed_addend() {
        let result = figure4();
        assert_eq!(result.sc_lp_leaves_out, 3);
        // Energies decrease monotonically as more-skewed addends are kept.
        assert!(result.energy_leaving_out[0] > result.energy_leaving_out[3]);
    }

    #[test]
    fn table1_on_the_small_designs_has_the_paper_shape() {
        let lib = TechLibrary::lcbg10pv_like();
        let designs = vec![dpsyn_designs::x_squared(), dpsyn_designs::mixed_poly()];
        let rows = table1(&designs, &lib);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.fa_aot.delay <= row.conventional.delay + 1e-9,
                "{}",
                row.design
            );
            assert!(
                row.fa_aot.delay <= row.csa_opt.delay + 1e-9,
                "{}",
                row.design
            );
        }
        let text = format_table1(&rows);
        assert!(text.contains("x_squared"));
        assert!(text.contains("average delay improvement"));
    }

    #[test]
    fn sweeps_tolerate_repeated_values() {
        // The pre-engine loops simply computed repeated points twice; the engine path
        // must keep that contract (deduplicated axes, rows repeated on the way out).
        let lib = TechLibrary::unit();
        let arrival = arrival_skew_sweep(&[1.0, 1.0, 0.0], &lib, 7);
        assert_eq!(arrival.len(), 3);
        assert_eq!(arrival[0].ours, arrival[1].ours);
        assert_eq!(arrival[0].wallace, arrival[1].wallace);
        assert_eq!(arrival[0].reference, arrival[1].reference);
        let probability = probability_skew_sweep(&[0.2, 0.0, 0.2], &lib, 7);
        assert_eq!(probability.len(), 3);
        assert_eq!(probability[0].ours, probability[2].ours);
        assert_eq!(probability[0].reference, probability[2].reference);
        // The deduplicated run matches a run over the unique values alone.
        let unique = arrival_skew_sweep(&[1.0, 0.0], &lib, 7);
        assert_eq!(unique[0].ours, arrival[0].ours);
        assert_eq!(unique[1].ours, arrival[2].ours);
    }

    #[test]
    fn table2_on_one_design_shows_a_non_negative_improvement() {
        let lib = TechLibrary::lcbg10pv_like();
        let designs = vec![dpsyn_designs::iir()];
        let rows = table2(&designs, &lib, 2026, 3);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].improvement() >= -0.01, "{}", rows[0].improvement());
        assert!(
            rows[0].fa_anneal_power > 0.0,
            "fa_anneal produced no power figure"
        );
        let text = format_table2(&rows);
        assert!(text.contains("iir"));
        assert!(text.contains("fa_anneal"));
    }
}
