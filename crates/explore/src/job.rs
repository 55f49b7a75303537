//! One job of the exploration matrix: a design point times a synthesis flow.

use crate::spec::{BiasProfile, SkewProfile};
use dpsyn_baselines::Flow;
use std::fmt;

/// One fully-determined unit of work: a source at a width under a skew and bias
/// profile, run through one synthesis flow.
///
/// Jobs are enumerated by [`crate::ExplorationSpec::jobs`] in a canonical order; the
/// index is the job's stable identity across runs and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    index: usize,
    source_index: usize,
    source_label: String,
    width: u32,
    skew: SkewProfile,
    bias: BiasProfile,
    flow: Flow,
}

impl Job {
    pub(crate) fn new(
        index: usize,
        source_index: usize,
        source_label: String,
        width: u32,
        skew: SkewProfile,
        bias: BiasProfile,
        flow: Flow,
    ) -> Self {
        Job {
            index,
            source_index,
            source_label,
            width,
            skew,
            bias,
            flow,
        }
    }

    /// Position of the job in the canonical enumeration order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Index of the job's source in the specification's source list.
    pub fn source_index(&self) -> usize {
        self.source_index
    }

    /// Label of the job's source (design or workload name).
    pub fn source_label(&self) -> &str {
        &self.source_label
    }

    /// Operand width (workload sources) or output width (fixed designs).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The arrival-skew profile of the design point.
    pub fn skew(&self) -> SkewProfile {
        self.skew
    }

    /// The probability-bias profile of the design point.
    pub fn bias(&self) -> BiasProfile {
        self.bias
    }

    /// The synthesis flow the job runs.
    pub fn flow(&self) -> Flow {
        self.flow
    }

    /// A human-readable label naming the design point and flow, used in summaries and
    /// error messages.
    pub fn label(&self) -> String {
        format!(
            "{} w{} skew={} bias={} flow={}",
            self.source_label, self.width, self.skew, self.bias, self.flow
        )
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.index, self.label())
    }
}
