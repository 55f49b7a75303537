//! Property-based tests for the FA-tree allocation engine: optimality of the
//! timing-driven selection, quality of the power-driven selection and functional
//! correctness under every strategy.

use dpsyn_core::{sc_lp, sc_t, Objective, SelectionStrategy, Synthesizer};
use dpsyn_ir::{parse_expr, BitProfile, InputSpec};
use dpsyn_sim::check_equivalence;
use dpsyn_tech::TechLibrary;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 1 (sampled): SC_T's latest remaining arrival never exceeds the latest
    /// remaining arrival of a random greedy allocation of the same column.
    #[test]
    fn sc_t_latest_arrival_is_minimal(arrivals in prop::collection::vec(0u32..30, 3..12), seed in 0u64..1000) {
        let arrivals: Vec<f64> = arrivals.into_iter().map(f64::from).collect();
        let ours = sc_t(&arrivals, 2.0, 1.0, 1.0, 1.0);
        let ours_latest = ours.remaining.iter().copied().fold(0.0, f64::max);

        // Random alternative allocation with the same FA/HA structure.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut working = arrivals.clone();
        while working.len() >= 3 {
            let count = if working.len() > 3 { 3 } else { 2 };
            let mut picked = Vec::new();
            for _ in 0..count {
                picked.push(working.swap_remove(next(working.len())));
            }
            let latest = picked.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let delay = if count == 3 { 2.0 } else { 1.0 };
            working.push(latest + delay);
        }
        let other_latest = working.iter().copied().fold(0.0, f64::max);
        prop_assert!(ours_latest <= other_latest + 1e-9,
                     "SC_T {} vs random {}", ours_latest, other_latest);
    }

    /// SC_LP on a random column leaves at most 2 addends, keeps every remaining and
    /// carry probability in [0, 1], and accumulates non-negative switching energy.
    /// (It is not compared against other allocations here.)
    #[test]
    fn sc_lp_probabilities_stay_legal(probabilities in prop::collection::vec(0.0f64..=1.0, 3..12)) {
        let outcome = sc_lp(&probabilities, 1.0, 0.8, 0.6, 0.4);
        prop_assert!(outcome.remaining.len() <= 2);
        for p in outcome.remaining.iter().chain(outcome.carries.iter()) {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(p), "probability {} escaped", p);
        }
        prop_assert!(outcome.switching_energy >= 0.0);
    }

    /// End-to-end: every selection strategy produces a functionally correct netlist for
    /// random small expressions and random input profiles.
    #[test]
    fn every_strategy_is_functionally_correct(
        arrival_a in 0.0f64..4.0,
        arrival_b in 0.0f64..4.0,
        probability_c in 0.05f64..0.95,
        seed in 0u64..50,
        strategy_index in 0usize..4,
    ) {
        let expr = parse_expr("a*b + b*c - c + 9").expect("expression");
        let spec = InputSpec::builder()
            .var_with_profiles("a", vec![BitProfile::new(arrival_a, 0.5); 3])
            .var_with_profiles("b", vec![BitProfile::new(arrival_b, 0.7); 3])
            .var_with_profiles("c", vec![BitProfile::new(0.0, probability_c); 3])
            .build()
            .expect("spec");
        let strategy = [
            SelectionStrategy::EarliestArrival,
            SelectionStrategy::LargestDeviation,
            SelectionStrategy::RowOrder,
            SelectionStrategy::Random(seed),
        ][strategy_index];
        let lib = TechLibrary::lcbg10pv_like();
        let design = Synthesizer::new(&expr, &spec)
            .technology(&lib)
            .strategy(strategy)
            .output_width(8)
            .run()
            .expect("synthesis");
        check_equivalence(design.netlist(), design.word_map(), &expr, &spec, 8, 64, seed)
            .expect("netlist matches the golden model");
    }

    /// The timing objective never produces a slower tree (by the engine's own estimate)
    /// than the fixed row-order selection, whatever the arrival profile.
    #[test]
    fn timing_objective_dominates_row_order(
        arrivals in prop::collection::vec(0u32..12, 6),
    ) {
        let expr = parse_expr("t0 + t1 + t2 + t3 + t4 + t5").expect("expression");
        let mut builder = InputSpec::builder();
        for (index, arrival) in arrivals.iter().enumerate() {
            builder = builder.var_with_arrival(format!("t{index}"), 6, f64::from(*arrival));
        }
        let spec = builder.build().expect("spec");
        let lib = TechLibrary::unit();
        let run = |strategy: Option<SelectionStrategy>| {
            let mut synthesizer = Synthesizer::new(&expr, &spec)
                .technology(&lib)
                .objective(Objective::Timing)
                .output_width(9);
            if let Some(strategy) = strategy {
                synthesizer = synthesizer.strategy(strategy);
            }
            synthesizer.run().expect("synthesis").report().final_input_arrival
        };
        prop_assert!(run(None) <= run(Some(SelectionStrategy::RowOrder)) + 1e-9);
    }
}
