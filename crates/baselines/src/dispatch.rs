//! Uniform dispatch over every synthesis flow of the evaluation.
//!
//! The table/figure harness and the design-space exploration engine both need to run
//! "one of the six flows" data-driven rather than calling six differently-shaped
//! functions. [`Flow`] names each flow as a value (the `FaRandom` variant carries its
//! seed so a run is reproducible from the value alone) and [`Flow::run`] dispatches to
//! the corresponding free function with the shared
//! `(expr, spec, width, tech) -> FlowResult` signature.

use crate::flow::{BaselineError, FlowResult};
use crate::{
    conventional, conventional_netlist, csa_opt, csa_opt_netlist, fa_alp, fa_anneal, fa_aot,
    fa_random, wallace_fixed,
};
use dpsyn_core::Objective;
use dpsyn_ir::{Expr, InputSpec};
use dpsyn_netlist::{Netlist, WordMap};
use dpsyn_tech::TechLibrary;
use std::fmt;

/// The outcome of [`Flow::synthesize`]: the synthesis step of a flow, decoupled from
/// its analyses where the flow permits it.
///
/// The two module-binding flows (`conventional`, `csa_opt`) build their netlists
/// without ever running timing or power, so they can hand back an
/// [`FlowSynthesis::Unanalyzed`] netlist. The exploration engine uses the split only
/// to key its persistent store by the synthesized netlist before paying for the
/// analysis, which [`FlowResult::analyze`] then runs exactly as [`Flow::run`] would.
/// The FA-tree flows analyse *during* construction (arrival-ordered and
/// probability-ordered selection need live analysis values), so splitting would only
/// run the analyses twice; they return the finished [`FlowSynthesis::Analyzed`]
/// result instead.
#[derive(Debug, Clone)]
pub enum FlowSynthesis {
    /// A bare synthesized netlist; no analysis has run yet.
    Unanalyzed(Box<SynthesizedParts>),
    /// A fully analysed result (flows whose engines analyse during construction).
    Analyzed(Box<FlowResult>),
}

/// The payload of [`FlowSynthesis::Unanalyzed`]: everything a later (full or delta)
/// analysis needs from the synthesis step.
#[derive(Debug, Clone)]
pub struct SynthesizedParts {
    /// The flow name, as [`FlowResult::flow`] would carry it.
    pub flow: &'static str,
    /// The synthesized netlist.
    pub netlist: Netlist,
    /// Its word-level interface.
    pub word_map: WordMap,
}

/// One of the seven synthesis flows of the evaluation (the six DAC 2000 flows plus
/// the delta-powered `fa_anneal` local search), as a dispatchable value.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// use dpsyn_baselines::Flow;
/// use dpsyn_ir::{parse_expr, InputSpec};
/// use dpsyn_tech::TechLibrary;
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let expr = parse_expr("a*b + c")?;
/// let spec = InputSpec::builder().var("a", 4).var("b", 4).var("c", 4).build()?;
/// let lib = TechLibrary::lcbg10pv_like();
/// let ours = Flow::FaAot.run(&expr, &spec, 9, &lib)?;
/// let rival = Flow::Conventional.run(&expr, &spec, 9, &lib)?;
/// assert!(ours.delay <= rival.delay + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Conventional two-step flow: closed adder/multiplier modules, balanced chains.
    Conventional,
    /// Word-level delay-optimal carry-save allocation (ICCAD'99 reference flow).
    CsaOpt,
    /// Global FA-tree with the fixed, arrival-blind Wallace row-order selection.
    WallaceFixed,
    /// Global FA-tree with pseudo-random FA input selection (the paper's FA_random);
    /// the embedded seed makes the flow a pure function of its inputs.
    FaRandom(u64),
    /// The paper's FA_AOT: earliest-arrival selection, timing-optimal.
    FaAot,
    /// The paper's FA_ALP: largest-|q| selection, low-power.
    FaAlp,
    /// Delta-powered greedy local search seeded from the `fa_random` allocation;
    /// the embedded seed fixes both the start netlist and the move trajectory, so
    /// the flow is a pure function of its inputs.
    FaAnneal(u64),
}

impl Flow {
    /// The three rival flows the paper's FA_AOT is compared against in Table 1.
    pub const TIMING_RIVALS: [Flow; 2] = [Flow::Conventional, Flow::CsaOpt];

    /// Every flow with a fixed identity (excludes `FaRandom`, which needs a seed).
    pub const NAMED: [Flow; 5] = [
        Flow::Conventional,
        Flow::CsaOpt,
        Flow::WallaceFixed,
        Flow::FaAot,
        Flow::FaAlp,
    ];

    /// Short identifier used in tables and summaries (seed-independent).
    pub fn name(&self) -> &'static str {
        match self {
            Flow::Conventional => "conventional",
            Flow::CsaOpt => "csa_opt",
            Flow::WallaceFixed => "wallace_fixed",
            Flow::FaRandom(_) => "fa_random",
            Flow::FaAot => "fa_aot",
            Flow::FaAlp => "fa_alp",
            Flow::FaAnneal(_) => "fa_anneal",
        }
    }

    /// The optimisation objective this flow targets: `Power` for the two
    /// probability-driven selections, `Timing` for everything else.
    pub fn objective(&self) -> Objective {
        match self {
            Flow::FaRandom(_) | Flow::FaAlp | Flow::FaAnneal(_) => Objective::Power,
            Flow::Conventional | Flow::CsaOpt | Flow::WallaceFixed | Flow::FaAot => {
                Objective::Timing
            }
        }
    }

    /// Runs the flow on one design point.
    ///
    /// # Errors
    ///
    /// Returns an error if lowering, synthesis or any analysis fails.
    pub fn run(
        &self,
        expr: &Expr,
        spec: &InputSpec,
        width: u32,
        tech: &TechLibrary,
    ) -> Result<FlowResult, BaselineError> {
        match self {
            Flow::Conventional => conventional(expr, spec, width, tech),
            Flow::CsaOpt => csa_opt(expr, spec, width, tech),
            Flow::WallaceFixed => wallace_fixed(expr, spec, width, tech),
            Flow::FaRandom(seed) => fa_random(expr, spec, width, tech, *seed),
            Flow::FaAot => fa_aot(expr, spec, width, tech),
            Flow::FaAlp => fa_alp(expr, spec, width, tech),
            Flow::FaAnneal(seed) => fa_anneal(expr, spec, width, tech, *seed),
        }
    }

    /// Runs only the synthesis step of the flow where that is cheaper than the full
    /// [`Flow::run`], for callers that analyse (or delta-re-analyse) separately.
    ///
    /// For `Conventional` and `CsaOpt` this skips the whole timing + power + area
    /// bundle; for every other flow it is equivalent to [`Flow::run`] and returns the
    /// finished result. In both cases, following an `Unanalyzed` outcome with
    /// [`FlowResult::analyze`] reproduces [`Flow::run`] bit for bit.
    ///
    /// # Errors
    ///
    /// Returns an error if lowering, synthesis — or, for the `Analyzed` flows, any
    /// analysis — fails.
    pub fn synthesize(
        &self,
        expr: &Expr,
        spec: &InputSpec,
        width: u32,
        tech: &TechLibrary,
    ) -> Result<FlowSynthesis, BaselineError> {
        match self {
            Flow::Conventional => {
                let (netlist, word_map) = conventional_netlist(expr, spec, width)?;
                Ok(FlowSynthesis::Unanalyzed(Box::new(SynthesizedParts {
                    flow: "conventional",
                    netlist,
                    word_map,
                })))
            }
            Flow::CsaOpt => {
                let (netlist, word_map) = csa_opt_netlist(expr, spec, width, tech)?;
                Ok(FlowSynthesis::Unanalyzed(Box::new(SynthesizedParts {
                    flow: "csa_opt",
                    netlist,
                    word_map,
                })))
            }
            _ => self
                .run(expr, spec, width, tech)
                .map(|result| FlowSynthesis::Analyzed(Box::new(result))),
        }
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flow::FaRandom(seed) => write!(f, "fa_random(seed={seed})"),
            Flow::FaAnneal(seed) => write!(f, "fa_anneal(seed={seed})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_ir::parse_expr;

    #[test]
    fn dispatch_matches_the_free_functions() {
        let expr = parse_expr("a*b + c - 1").unwrap();
        let spec = InputSpec::builder()
            .var_with_arrival("a", 3, 1.0)
            .var("b", 3)
            .var_with_probability("c", 3, 0.2)
            .build()
            .unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        let direct = [
            conventional(&expr, &spec, 8, &lib).unwrap(),
            csa_opt(&expr, &spec, 8, &lib).unwrap(),
            wallace_fixed(&expr, &spec, 8, &lib).unwrap(),
            fa_random(&expr, &spec, 8, &lib, 11).unwrap(),
            fa_aot(&expr, &spec, 8, &lib).unwrap(),
            fa_alp(&expr, &spec, 8, &lib).unwrap(),
            fa_anneal(&expr, &spec, 8, &lib, 11).unwrap(),
        ];
        let flows = [
            Flow::Conventional,
            Flow::CsaOpt,
            Flow::WallaceFixed,
            Flow::FaRandom(11),
            Flow::FaAot,
            Flow::FaAlp,
            Flow::FaAnneal(11),
        ];
        for (flow, reference) in flows.iter().zip(&direct) {
            let dispatched = flow.run(&expr, &spec, 8, &lib).unwrap();
            assert_eq!(dispatched.flow, reference.flow, "{flow}");
            // Dispatch must be bit-identical to the direct call, not merely close.
            assert_eq!(dispatched.delay, reference.delay, "{flow}");
            assert_eq!(dispatched.area, reference.area, "{flow}");
            assert_eq!(
                dispatched.switching_energy, reference.switching_energy,
                "{flow}"
            );
            assert_eq!(dispatched.power_mw, reference.power_mw, "{flow}");
        }
    }

    #[test]
    fn synthesize_then_analyze_matches_run_bit_for_bit() {
        let expr = parse_expr("a*b + c - 1").unwrap();
        let spec = InputSpec::builder()
            .var_with_arrival("a", 3, 1.0)
            .var("b", 3)
            .var_with_probability("c", 3, 0.2)
            .build()
            .unwrap();
        let lib = TechLibrary::lcbg10pv_like();
        for flow in [
            Flow::Conventional,
            Flow::CsaOpt,
            Flow::WallaceFixed,
            Flow::FaRandom(11),
            Flow::FaAot,
            Flow::FaAlp,
            Flow::FaAnneal(11),
        ] {
            let reference = flow.run(&expr, &spec, 8, &lib).unwrap();
            let result = match flow.synthesize(&expr, &spec, 8, &lib).unwrap() {
                FlowSynthesis::Unanalyzed(parts) => {
                    // Only the two module-binding flows may skip analysis.
                    assert!(matches!(flow, Flow::Conventional | Flow::CsaOpt), "{flow}");
                    FlowResult::analyze(parts.flow, parts.netlist, parts.word_map, &spec, &lib)
                        .unwrap()
                }
                FlowSynthesis::Analyzed(result) => *result,
            };
            assert_eq!(result.flow, reference.flow, "{flow}");
            assert_eq!(result.delay.to_bits(), reference.delay.to_bits(), "{flow}");
            assert_eq!(result.area.to_bits(), reference.area.to_bits(), "{flow}");
            assert_eq!(
                result.switching_energy.to_bits(),
                reference.switching_energy.to_bits(),
                "{flow}"
            );
            assert_eq!(
                result.power_mw.to_bits(),
                reference.power_mw.to_bits(),
                "{flow}"
            );
            assert_eq!(result.netlist, reference.netlist, "{flow}");
            assert_eq!(result.word_map, reference.word_map, "{flow}");
            assert_eq!(result.compiled, reference.compiled, "{flow}");
        }
    }

    #[test]
    fn names_objectives_and_display_are_stable() {
        assert_eq!(Flow::Conventional.name(), "conventional");
        assert_eq!(Flow::FaRandom(7).name(), "fa_random");
        assert_eq!(Flow::FaRandom(7).to_string(), "fa_random(seed=7)");
        assert_eq!(Flow::FaAnneal(7).name(), "fa_anneal");
        assert_eq!(Flow::FaAnneal(7).to_string(), "fa_anneal(seed=7)");
        assert_eq!(Flow::FaAot.to_string(), "fa_aot");
        assert_eq!(Flow::FaAot.objective(), Objective::Timing);
        assert_eq!(Flow::WallaceFixed.objective(), Objective::Timing);
        assert_eq!(Flow::FaAlp.objective(), Objective::Power);
        assert_eq!(Flow::FaRandom(7).objective(), Objective::Power);
        assert_eq!(Flow::FaAnneal(7).objective(), Objective::Power);
        assert_eq!(Flow::NAMED.len(), 5);
        assert_eq!(Flow::TIMING_RIVALS.len(), 2);
    }
}
