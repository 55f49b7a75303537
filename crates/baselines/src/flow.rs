//! Common result type and analysis helper shared by every synthesis flow.

use dpsyn_ir::InputSpec;
use dpsyn_netlist::{CompiledNetlist, NetId, Netlist, NetlistError, WordMap};
use dpsyn_power::{PowerError, ProbabilityAnalysis};
use dpsyn_tech::TechLibrary;
use dpsyn_timing::{TimingAnalysis, TimingError};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors produced by the baseline synthesis flows.
#[derive(Debug)]
pub enum BaselineError {
    /// Lowering or golden-model evaluation failed.
    Ir(dpsyn_ir::IrError),
    /// Netlist construction failed.
    Netlist(NetlistError),
    /// Timing analysis failed.
    Timing(TimingError),
    /// Power analysis failed.
    Power(PowerError),
    /// The FA-tree engine (used by the wrapper flows) failed.
    Core(dpsyn_core::SynthesisError),
    /// The expression has no addends / operands to implement.
    EmptyExpression,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Ir(error) => write!(f, "expression lowering failed: {error}"),
            BaselineError::Netlist(error) => write!(f, "netlist construction failed: {error}"),
            BaselineError::Timing(error) => write!(f, "timing analysis failed: {error}"),
            BaselineError::Power(error) => write!(f, "power analysis failed: {error}"),
            BaselineError::Core(error) => write!(f, "fa-tree synthesis failed: {error}"),
            BaselineError::EmptyExpression => {
                write!(
                    f,
                    "the expression reduces to the constant zero; nothing to synthesize"
                )
            }
        }
    }
}

impl Error for BaselineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BaselineError::Ir(error) => Some(error),
            BaselineError::Netlist(error) => Some(error),
            BaselineError::Timing(error) => Some(error),
            BaselineError::Power(error) => Some(error),
            BaselineError::Core(error) => Some(error),
            BaselineError::EmptyExpression => None,
        }
    }
}

impl From<dpsyn_ir::IrError> for BaselineError {
    fn from(error: dpsyn_ir::IrError) -> Self {
        BaselineError::Ir(error)
    }
}

impl From<NetlistError> for BaselineError {
    fn from(error: NetlistError) -> Self {
        BaselineError::Netlist(error)
    }
}

impl From<TimingError> for BaselineError {
    fn from(error: TimingError) -> Self {
        BaselineError::Timing(error)
    }
}

impl From<PowerError> for BaselineError {
    fn from(error: PowerError) -> Self {
        BaselineError::Power(error)
    }
}

impl From<dpsyn_core::SynthesisError> for BaselineError {
    fn from(error: dpsyn_core::SynthesisError) -> Self {
        BaselineError::Core(error)
    }
}

/// Collects the per-net input profiles of a synthesized design: the arrival times and
/// signal probabilities of every primary-input net that the input specification
/// profiles, keyed by net.
///
/// This is the exact profile-extraction loop of [`FlowResult::analyze`], shared with
/// the exploration engine's store keys (which digest the profiles) and with callers
/// that re-analyse a netlist through the incremental delta path, so every consumer
/// sees **the same values for the same nets**.
pub fn input_profiles(
    word_map: &WordMap,
    spec: &InputSpec,
) -> (BTreeMap<NetId, f64>, BTreeMap<NetId, f64>) {
    let mut arrivals = BTreeMap::new();
    let mut probabilities = BTreeMap::new();
    for word in word_map.inputs() {
        for (bit, net) in word.bits().iter().enumerate() {
            if let Some(profile) = spec.bit_profile(word.name(), bit as u32) {
                arrivals.insert(*net, profile.arrival);
                probabilities.insert(*net, profile.probability);
            }
        }
    }
    (arrivals, probabilities)
}

/// The analysed outcome of one synthesis flow over one design, carrying the same three
/// quality metrics the paper's tables report.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Which flow produced the result (`"conventional"`, `"csa_opt"`, `"fa_aot"`, ...).
    pub flow: String,
    /// The synthesized netlist.
    pub netlist: Netlist,
    /// The word-level interface of the netlist.
    pub word_map: WordMap,
    /// The compiled analysis program the metrics were computed over — compiled once
    /// per netlist and shared by timing, power, area and any later re-analysis
    /// (simulation, exploration statistics).
    pub compiled: CompiledNetlist,
    /// Critical delay under the design's arrival profile (library time units).
    pub delay: f64,
    /// Total cell area (library area units).
    pub area: f64,
    /// Weighted switching energy `Σ W·p(1−p)` under the design's probability profile.
    pub switching_energy: f64,
    /// Power on the milliwatt-like scale of Table 2.
    pub power_mw: f64,
}

impl FlowResult {
    /// Analyses a freshly built netlist (timing, power, area) under the design's input
    /// characteristics and wraps everything into a `FlowResult`.
    ///
    /// The netlist is compiled **once**; every analysis runs over the shared program.
    ///
    /// # Errors
    ///
    /// Returns an error when the netlist is invalid or an analysis fails.
    pub fn analyze(
        flow: impl Into<String>,
        netlist: Netlist,
        word_map: WordMap,
        spec: &InputSpec,
        tech: &TechLibrary,
    ) -> Result<Self, BaselineError> {
        netlist.validate_structure()?;
        let compiled = netlist.compile()?;
        let (arrivals, probabilities) = input_profiles(&word_map, spec);
        let timing = TimingAnalysis::new(tech)
            .with_input_arrivals(arrivals)
            .run_compiled(&compiled)?;
        let power = ProbabilityAnalysis::new(tech)
            .with_input_probabilities(probabilities)
            .run_compiled(&compiled)?;
        let area = tech.compiled_area(&compiled);
        Ok(FlowResult {
            flow: flow.into(),
            delay: timing.critical_delay(),
            area,
            switching_energy: power.total_energy(),
            power_mw: power.power_mw(),
            netlist,
            word_map,
            compiled,
        })
    }

    /// Wraps an already-analysed design from the core synthesizer, inheriting its
    /// compiled program.
    pub fn from_synthesized(
        flow: impl Into<String>,
        design: dpsyn_core::SynthesizedDesign,
    ) -> Self {
        let (netlist, word_map, compiled, report) = design.into_analysis_parts();
        FlowResult {
            flow: flow.into(),
            netlist,
            word_map,
            compiled,
            delay: report.delay,
            area: report.area,
            switching_energy: report.switching_energy,
            power_mw: report.power_mw,
        }
    }

    /// Delay improvement of `self` over `other` as a fraction (positive = faster).
    pub fn delay_improvement_over(&self, other: &FlowResult) -> f64 {
        if other.delay == 0.0 {
            0.0
        } else {
            (other.delay - self.delay) / other.delay
        }
    }

    /// Area improvement of `self` over `other` as a fraction (positive = smaller).
    pub fn area_improvement_over(&self, other: &FlowResult) -> f64 {
        if other.area == 0.0 {
            0.0
        } else {
            (other.area - self.area) / other.area
        }
    }

    /// Switching-energy improvement of `self` over `other` as a fraction.
    pub fn power_improvement_over(&self, other: &FlowResult) -> f64 {
        if other.switching_energy == 0.0 {
            0.0
        } else {
            (other.switching_energy - self.switching_energy) / other.switching_energy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_netlist::{CellKind, Word};

    #[test]
    fn analyze_fills_all_metrics() {
        let mut netlist = Netlist::new("tiny");
        let a = netlist.add_input("a[0]");
        let b = netlist.add_input("b[0]");
        let outs = netlist.add_gate(CellKind::Ha, &[a, b]).unwrap();
        netlist.mark_output(outs[0]);
        netlist.mark_output(outs[1]);
        let map = WordMap::new(
            vec![Word::new("a", vec![a]), Word::new("b", vec![b])],
            Word::new("out", vec![outs[0], outs[1]]),
        );
        let spec = InputSpec::builder()
            .var("a", 1)
            .var("b", 1)
            .build()
            .unwrap();
        let lib = TechLibrary::unit();
        let result = FlowResult::analyze("test", netlist, map, &spec, &lib).unwrap();
        assert_eq!(result.flow, "test");
        assert!(result.delay > 0.0);
        assert!(result.area > 0.0);
        assert!(result.switching_energy > 0.0);
        assert!(result.power_mw > 0.0);
        // The carried compiled program is the one of the carried netlist.
        assert_eq!(result.compiled, result.netlist.compile().unwrap());
        assert_eq!(result.compiled.cell_count(), result.netlist.cell_count());
    }

    #[test]
    fn improvement_helpers() {
        let mut fast = FlowResult {
            flow: "fast".to_string(),
            netlist: Netlist::new("a"),
            word_map: WordMap::new(vec![], Word::new("out", vec![])),
            compiled: Netlist::new("a").compile().unwrap(),
            delay: 2.0,
            area: 50.0,
            switching_energy: 1.0,
            power_mw: 10.0,
        };
        let slow = FlowResult {
            flow: "slow".to_string(),
            netlist: Netlist::new("b"),
            word_map: WordMap::new(vec![], Word::new("out", vec![])),
            compiled: Netlist::new("b").compile().unwrap(),
            delay: 4.0,
            area: 100.0,
            switching_energy: 2.0,
            power_mw: 20.0,
        };
        assert!((fast.delay_improvement_over(&slow) - 0.5).abs() < 1e-12);
        assert!((fast.area_improvement_over(&slow) - 0.5).abs() < 1e-12);
        assert!((fast.power_improvement_over(&slow) - 0.5).abs() < 1e-12);
        fast.delay = 0.0;
        assert_eq!(slow.delay_improvement_over(&fast), 0.0);
    }
}
