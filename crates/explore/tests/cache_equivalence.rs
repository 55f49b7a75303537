//! Pins the engine's per-point evaluation to an independent `Flow::run`: every
//! evaluated point — metrics *and* retained artifact — must be bit-identical to a
//! direct run of the same job's flow on the same materialized design.
//!
//! The matrix crosses profile axes with both engine paths: the two module-binding
//! flows (`Conventional`, `CsaOpt`) reach the engine unanalysed and are analysed by
//! it after synthesis, while the FA-tree flow (`FaAot`) analyses during synthesis.
//! Fixed designs and a workload at two widths, at one and three workers, cover the
//! design materialization and the cross-thread result slots.

use dpsyn_explore::{explore, BiasProfile, ExplorationSpec, Flow, SkewProfile};

fn spec(threads: usize) -> ExplorationSpec {
    ExplorationSpec::builder()
        .design(dpsyn_designs::iir())
        .design(dpsyn_designs::mixed_poly())
        .sum_workload(4)
        .widths([4, 5])
        .skews([
            SkewProfile::Keep,
            SkewProfile::Uniform(2.0),
            SkewProfile::Uniform(4.0),
        ])
        .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
        .flows([Flow::Conventional, Flow::CsaOpt, Flow::FaAot])
        .seed(13)
        .threads(threads)
        .retain_artifacts(true)
        .build()
        .expect("spec is well-formed")
}

#[test]
fn cached_delta_points_match_independent_full_runs() {
    for threads in [1, 3] {
        let spec = spec(threads);
        let results = explore(&spec).expect("exploration succeeds");
        assert_eq!(results.points().len(), spec.jobs().len());
        for point in results.points() {
            let design = spec.materialize(&point.job);
            let reference = point
                .job
                .flow()
                .run(
                    design.expr(),
                    design.spec(),
                    design.output_width(),
                    spec.tech(),
                )
                .expect("direct flow run succeeds");
            let label = point.job.label();
            assert_eq!(
                point.metrics.delay.to_bits(),
                reference.delay.to_bits(),
                "{label}: delay"
            );
            assert_eq!(
                point.metrics.area.to_bits(),
                reference.area.to_bits(),
                "{label}: area"
            );
            assert_eq!(
                point.metrics.switching_energy.to_bits(),
                reference.switching_energy.to_bits(),
                "{label}: switching energy"
            );
            assert_eq!(
                point.metrics.power.to_bits(),
                reference.power_mw.to_bits(),
                "{label}: power"
            );
            let artifact = point
                .artifact
                .as_ref()
                .expect("retain_artifacts keeps every point's artifact");
            assert_eq!(artifact.flow, reference.flow, "{label}: flow name");
            assert_eq!(artifact.netlist, reference.netlist, "{label}: netlist");
            assert_eq!(artifact.word_map, reference.word_map, "{label}: word map");
            assert_eq!(artifact.compiled, reference.compiled, "{label}: program");
            assert_eq!(
                artifact.delay.to_bits(),
                reference.delay.to_bits(),
                "{label}: artifact delay"
            );
            assert_eq!(
                artifact.switching_energy.to_bits(),
                reference.switching_energy.to_bits(),
                "{label}: artifact energy"
            );
        }
    }
}
