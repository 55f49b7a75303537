//! The per-worker simulated switching-activity path of the exploration engine.
//!
//! When a sweep carries a [`SimActivity`](crate::SimActivity) request, every
//! evaluated point additionally runs its synthesized netlist through the SIMD
//! block-lane engine ([`BlockSim`]) on a **shared seeded stimulus batch** and folds
//! the measured per-net toggle rates through the same per-kind energy weights the
//! analytic model uses ([`dpsyn_power::simulated_energy`]). The result is
//! `simulated_switch_power` — the measured counterpart of the analytic
//! `power_mw` — and with it the analytic-vs-simulated divergence column of the
//! sweep summary.
//!
//! Jobs that share `(source, width, flow)` usually synthesize structurally
//! identical netlists, so the compiled block program and the resolved technology
//! tables of the group's first point absorb every later point. [`SimCache`] holds
//! those artifacts per worker behind a strict correctness ladder:
//!
//! 1. probe by [`Netlist::structural_hash`];
//! 2. **verify** the candidate cell-by-cell against the cached program's ops plus
//!    the input/output lists and the word map — hash equality is never trusted;
//! 3. on a verified hit, reuse the compiled program; points whose input
//!    probabilities were already simulated are served from a per-entry memo (skew
//!    axes never perturb a simulation, so a whole skew column collapses to one
//!    evaluation);
//! 4. on any mismatch, compile fresh — so the simulated figure is a pure function
//!    of `(netlist structure, word map, spec probabilities, activity)`,
//!    bit-identical for any worker count, claim order or eviction history.
//!
//! The stimulus batch depends only on `(activity seed, input bits per vector,
//! vectors)`, never on worker or group identity, so one [`StimulusBank`] per run
//! draws each distinct batch once and every worker's cache shares it. Two
//! structurally identical groups therefore simulate the same batch, and the
//! persistent store's name-blind analysis keys stay sound (the key folds the exact
//! bit-to-net stimulus layout on top; see [`crate::store::stimulus_layout_digest`]).

use crate::spec::SimActivity;
use dpsyn_ir::InputSpec;
use dpsyn_netlist::{CompiledOp, Netlist, WordMap};
use dpsyn_power::simulated_energy;
use dpsyn_sim::{BlockSim, SharedStimulus, ToggleCounter, DEFAULT_BLOCK};
use dpsyn_tech::{ResolvedTech, TechLibrary};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// Upper bound on live entries per worker: entries hold a compiled block program,
/// so the bound keeps memory flat while covering the structures a worker's groups
/// cycle through.
const MAX_ENTRIES: usize = 8;

/// The stimulus batches of one run, shared by every worker's [`SimCache`]: one
/// batch per `(seed, bits per vector, vectors)` key, drawn on first use. A batch
/// holds `bits × vectors` samples (about 3 MB at 4096 vectors), so drawing it once
/// per run instead of once per cache entry keeps a simulated sweep's memory flat.
#[derive(Default)]
pub(crate) struct StimulusBank {
    batches: Mutex<HashMap<(u64, usize, usize), Arc<SharedStimulus>>>,
}

impl StimulusBank {
    /// The batch for `activity` over `bits` input bits per vector, drawn under the
    /// lock on first use so no two workers ever draw the same batch.
    fn batch(&self, activity: SimActivity, bits: usize) -> Arc<SharedStimulus> {
        // A panic while the lock is held cannot leave a half-inserted batch, so a
        // poisoned map is still sound.
        let mut batches = self.batches.lock().unwrap_or_else(PoisonError::into_inner);
        let batch = batches
            .entry((activity.seed, bits, activity.vectors))
            .or_insert_with(|| {
                Arc::new(SharedStimulus::generate(
                    activity.seed,
                    bits,
                    activity.vectors,
                ))
            });
        Arc::clone(batch)
    }
}

/// What one [`SimCache::simulate`] call did, for the engine's per-worker counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimOutcome {
    /// A fresh block program was built for this structure.
    Built,
    /// A verified cached program absorbed the point.
    Reused,
}

/// One cached simulation context: the compiled block program, its structural
/// identity in cell order for exact verification, the run's shared stimulus batch
/// for the activity request, the resolved energy tables, and a memo of probability
/// profiles already simulated under this exact context.
struct SimEntry {
    sim: BlockSim,
    /// The program's ops in cell-index order, for exact candidate verification.
    cell_ops: Vec<CompiledOp>,
    word_map: WordMap,
    activity: SimActivity,
    stimulus: Arc<SharedStimulus>,
    resolved: ResolvedTech,
    voltage: f64,
    tech_digest: u64,
    /// `(probability profile of the spec, simulated power)` pairs already
    /// evaluated under this program + batch. Groups enumerate only a handful of
    /// bias points, so a linear scan over exact bit patterns is both cheap and
    /// trivially deterministic.
    memo: Vec<(Vec<u64>, f64)>,
}

impl SimEntry {
    /// Exact structural verification: net universe, primary inputs/outputs,
    /// word-level interface, every cell's kind and exact pin lists — plus the
    /// activity request and tech identity this entry's batch and tables were built
    /// for.
    fn matches(
        &self,
        netlist: &Netlist,
        word_map: &WordMap,
        activity: SimActivity,
        tech_digest: u64,
    ) -> bool {
        if self.activity != activity
            || self.tech_digest != tech_digest
            || netlist.net_count() != self.sim.compiled().net_count()
            || netlist.cell_count() != self.sim.compiled().cell_count()
            || netlist.inputs() != self.sim.compiled().inputs()
            || netlist.outputs() != self.sim.compiled().outputs()
            || word_map != &self.word_map
        {
            return false;
        }
        netlist.cells().all(|(id, cell)| {
            let op = &self.cell_ops[id.index()];
            op.kind == cell.kind()
                && op.input_nets() == cell.inputs()
                && op.output_nets() == cell.outputs()
        })
    }

    /// The exact bit-pattern identity of the spec slice a simulation depends on:
    /// variable names, widths and per-bit probabilities (arrivals are irrelevant
    /// to logic simulation and deliberately excluded, which is what collapses a
    /// skew column to one evaluation).
    fn profile_key(spec: &InputSpec) -> Vec<u64> {
        let mut key = Vec::new();
        for var in spec.vars() {
            key.push(var.name().len() as u64);
            key.extend(var.name().bytes().map(u64::from));
            key.push(u64::from(var.width()));
            for bit in var.bits() {
                key.push(bit.probability.to_bits());
            }
        }
        key
    }
}

/// The per-worker simulation cache; see the [module documentation](self).
pub(crate) struct SimCache<'bank> {
    entries: HashMap<u64, SimEntry>,
    /// Insertion-recency order of resident hashes, oldest first (FIFO admission,
    /// replacements re-admitted at the back).
    order: VecDeque<u64>,
    stimuli: &'bank StimulusBank,
}

impl<'bank> SimCache<'bank> {
    pub(crate) fn new(stimuli: &'bank StimulusBank) -> Self {
        SimCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            stimuli,
        }
    }

    /// Drops every cached program (after a panic may have left one mid-update),
    /// keeping the run's shared stimulus bank.
    pub(crate) fn reset(&mut self) {
        *self = SimCache::new(self.stimuli);
    }

    /// Simulates one synthesized point under `activity` and returns its simulated
    /// switching power (same milliwatt-like scale as the analytic `power_mw`),
    /// plus whether a cached context was reused or a fresh one built.
    ///
    /// # Errors
    ///
    /// Returns the stringified block-engine or technology-resolution failure;
    /// the engine wraps it into [`ExploreError::Sim`](crate::ExploreError::Sim)
    /// with the failing job's label.
    pub(crate) fn simulate(
        &mut self,
        activity: SimActivity,
        netlist: &Netlist,
        word_map: &WordMap,
        spec: &InputSpec,
        tech: &TechLibrary,
    ) -> Result<(f64, SimOutcome), String> {
        let hash = netlist.structural_hash();
        let tech_digest = tech.identity_digest();
        let verified = self
            .entries
            .get(&hash)
            .is_some_and(|entry| entry.matches(netlist, word_map, activity, tech_digest));
        let outcome = if verified {
            SimOutcome::Reused
        } else {
            let entry = self.build(activity, netlist, word_map, spec, tech, tech_digest)?;
            if let Some(evicted) = self.admit(hash) {
                self.entries.remove(&evicted);
            }
            self.entries.insert(hash, entry);
            SimOutcome::Built
        };
        let entry = self.entries.get_mut(&hash).expect("entry just verified");
        let key = SimEntry::profile_key(spec);
        if let Some((_, power)) = entry.memo.iter().find(|(resident, _)| *resident == key) {
            return Ok((*power, outcome));
        }
        let power = evaluate(entry, netlist, spec);
        entry.memo.push((key, power));
        Ok((power, outcome))
    }

    /// Compiles the block program, resolves the energy tables and fetches the
    /// run's stimulus batch for one structure.
    fn build(
        &self,
        activity: SimActivity,
        netlist: &Netlist,
        word_map: &WordMap,
        spec: &InputSpec,
        tech: &TechLibrary,
        tech_digest: u64,
    ) -> Result<SimEntry, String> {
        let sim = BlockSim::compile(netlist, DEFAULT_BLOCK).map_err(|error| error.to_string())?;
        let resolved = tech
            .resolve(sim.compiled())
            .map_err(|error| error.to_string())?;
        let stimulus = self.stimuli.batch(activity, spec.total_bits() as usize);
        Ok(SimEntry {
            cell_ops: sim.compiled().cell_ops(),
            sim,
            word_map: word_map.clone(),
            activity,
            stimulus,
            resolved,
            voltage: tech.voltage(),
            tech_digest,
            memo: Vec::new(),
        })
    }

    /// Records that `hash` now owns an entry; returns the hash to evict when the
    /// admission overflows the capacity.
    fn admit(&mut self, hash: u64) -> Option<u64> {
        if let Some(position) = self.order.iter().position(|resident| *resident == hash) {
            self.order.remove(position);
        }
        self.order.push_back(hash);
        (self.order.len() > MAX_ENTRIES).then(|| {
            self.order
                .pop_front()
                .expect("over-capacity queue is non-empty")
        })
    }
}

/// Runs the cached program over the cached batch under `spec`'s probabilities and
/// folds the measured toggle rates into a milliwatt-scale power figure.
fn evaluate(entry: &SimEntry, netlist: &Netlist, spec: &InputSpec) -> f64 {
    let assignments = entry.stimulus.biased_assignments(spec);
    let mut counter = ToggleCounter::new(entry.sim.net_count());
    let mut blocks = entry.sim.block_buffer();
    for chunk in assignments.chunks(entry.sim.vectors_per_pass()) {
        entry
            .sim
            .pack_word_assignments(&entry.word_map, chunk, &mut blocks);
        entry.sim.evaluate_into(&mut blocks);
        counter.record_blocks(&blocks, entry.sim.block(), chunk.len());
    }
    let mut rates = vec![0.0; entry.sim.net_count()];
    for (net, _) in netlist.nets() {
        rates[net.index()] = counter.toggle_rate(net);
    }
    simulated_energy(entry.sim.compiled(), &entry.resolved, &rates) * entry.voltage * entry.voltage
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsyn_baselines::Flow;

    #[test]
    fn one_bank_shares_one_batch_across_caches_and_structures() {
        let design = dpsyn_designs::mixed_poly();
        let tech = TechLibrary::lcbg10pv_like();
        let activity = SimActivity {
            seed: 5,
            vectors: 256,
        };
        let results: Vec<_> = [Flow::Conventional, Flow::FaAot]
            .iter()
            .map(|flow| {
                flow.run(design.expr(), design.spec(), design.output_width(), &tech)
                    .expect("flow runs")
            })
            .collect();
        assert_ne!(
            results[0].netlist.structural_hash(),
            results[1].netlist.structural_hash(),
            "two different structures of one design"
        );
        let simulate = |cache: &mut SimCache<'_>, index: usize| {
            let result = &results[index];
            let (power, outcome) = cache
                .simulate(
                    activity,
                    &result.netlist,
                    &result.word_map,
                    design.spec(),
                    &tech,
                )
                .expect("simulation runs");
            assert_eq!(outcome, SimOutcome::Built);
            power
        };
        let batch = |cache: &SimCache<'_>| {
            let entry = cache.entries.values().next().expect("one cached program");
            Arc::clone(&entry.stimulus)
        };
        let bank = StimulusBank::default();
        let mut shared = [SimCache::new(&bank), SimCache::new(&bank)];
        let powers = [simulate(&mut shared[0], 0), simulate(&mut shared[1], 1)];
        assert!(
            Arc::ptr_eq(&batch(&shared[0]), &batch(&shared[1])),
            "both caches hold the bank's one batch"
        );
        // Separately drawn batches simulate to the same bits.
        for (index, power) in powers.iter().enumerate() {
            let own_bank = StimulusBank::default();
            let mut separate = SimCache::new(&own_bank);
            assert_eq!(simulate(&mut separate, index).to_bits(), power.to_bits());
            assert!(!Arc::ptr_eq(&batch(&separate), &batch(&shared[0])));
        }
    }
}
