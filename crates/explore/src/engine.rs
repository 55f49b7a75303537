//! The multi-threaded exploration engine: workers claim jobs one at a time from a
//! shared cursor.

use crate::error::ExploreError;
use crate::job::Job;
use crate::pareto::{pareto_front, PointMetrics};
use crate::sim::{SimCache, SimOutcome, StimulusBank};
use crate::spec::ExplorationSpec;
use crate::store::{
    profile_digest, stimulus_digest, stimulus_layout_digest, EvalKey, ResultStore, StoreHealth,
    StoredEval,
};
use crate::summary::{render_summary, summarize_flows, FlowSummary};
use dpsyn_baselines::{input_profiles, FlowResult, FlowSynthesis};
use dpsyn_designs::Design;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// One evaluated point of the exploration: the job, its metrics and (optionally) the
/// synthesized artifact.
#[derive(Debug, Clone)]
pub struct ExplorationPoint {
    /// The job that produced the point.
    pub job: Job,
    /// Name of the materialized design (workload names include their shape).
    pub design: String,
    /// The extracted quality metrics.
    pub metrics: PointMetrics,
    /// The full flow result (netlist, word map) when the specification retains
    /// artifacts; `None` otherwise.
    pub artifact: Option<FlowResult>,
}

/// Bounded retries per job under the engine's catch-unwind supervision: a job
/// whose evaluation panics is retried from a clean per-worker sim cache up to
/// this many total attempts, then quarantined ([`QuarantinedJob`]) instead of
/// aborting the sweep.
pub const JOB_ATTEMPT_LIMIT: usize = 3;

/// One job the engine gave up on: every attempt panicked, so the sweep completed
/// without it and reports it here (and in the rendered summary) instead of
/// aborting. Quarantined jobs are deterministic — the same specification and
/// fault plan quarantine the same jobs for every thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedJob {
    /// Canonical index of the job in the specification's matrix.
    pub index: usize,
    /// Human-readable job label (design, axes and flow).
    pub label: String,
    /// Evaluation attempts made before giving up (the retry limit).
    pub attempts: usize,
    /// The panic message of the final attempt.
    pub reason: String,
}

/// The outcome of one exploration: every evaluated point in canonical job order,
/// the dominance-filtered Pareto front, and the jobs quarantined after exhausting
/// their evaluation retries.
#[derive(Debug, Clone)]
pub struct ExplorationResults {
    points: Vec<ExplorationPoint>,
    front: Vec<usize>,
    quarantined: Vec<QuarantinedJob>,
}

impl ExplorationResults {
    /// Every evaluated point, in canonical job order (independent of thread count).
    /// Quarantined jobs contribute no point.
    pub fn points(&self) -> &[ExplorationPoint] {
        &self.points
    }

    /// Jobs whose every evaluation attempt panicked, in canonical job order.
    /// Empty on every healthy sweep.
    pub fn quarantined(&self) -> &[QuarantinedJob] {
        &self.quarantined
    }

    /// Indices (into [`Self::points`]) of the Pareto-optimal points over
    /// delay × power × area, ascending.
    pub fn front_indices(&self) -> &[usize] {
        &self.front
    }

    /// Iterates over the Pareto-optimal points in index order.
    pub fn front(&self) -> impl Iterator<Item = &ExplorationPoint> {
        self.front.iter().map(|&index| &self.points[index])
    }

    /// Per-flow aggregate summaries, in order of first appearance in the job matrix.
    pub fn summaries(&self) -> Vec<FlowSummary> {
        summarize_flows(self)
    }

    /// Renders the per-flow summary tables plus the Pareto front as text.
    ///
    /// The rendering is a pure function of the evaluated points, so it is
    /// byte-identical across runs and thread counts.
    pub fn render_summary(&self) -> String {
        render_summary(self)
    }
}

/// Per-worker scheduling diagnostics of one run. Unlike [`ExplorationResults`] these
/// **vary from run to run** (they record which worker happened to execute what), so
/// they are returned beside the results by [`explore_with_stats`], never inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker claimed from the shared cursor.
    pub jobs: usize,
    /// Jobs this worker served from the persistent result store instead of
    /// evaluating (always 0 when no store is attached or lookups are disabled by
    /// artifact retention).
    pub store_hits: usize,
    /// Simulated-activity contexts this worker built (block-program compile +
    /// technology resolve). One per `(source, width, flow)` group the worker
    /// touches — the group's later points reuse the context (always 0 without
    /// [`SimActivity`](crate::SimActivity)).
    pub sim_builds: usize,
    /// Points this worker ran the simulated switching metric for.
    pub sim_points: usize,
    /// Simulated points that reused a verified cached context instead of
    /// building one.
    pub sim_reuses: usize,
}

/// Scheduling diagnostics of one exploration, one entry per worker thread.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Per-worker counters, indexed by worker id (spawn order).
    pub workers: Vec<WorkerStats>,
    /// Integrity counters of the attached persistent store at load time
    /// (damaged/quarantined lines, torn tail, rebuild); `None` without a store.
    pub store: Option<StoreHealth>,
}

impl ExploreStats {
    /// Always 0: the shared-cursor scheduler never steals; kept for the benchmark
    /// harness, which still reports an `explore.steals` counter.
    pub fn total_steals(&self) -> usize {
        0
    }

    /// Total number of jobs served from the persistent result store.
    pub fn total_store_hits(&self) -> usize {
        self.workers.iter().map(|worker| worker.store_hits).sum()
    }

    /// Total simulated-activity contexts built across all workers; with one
    /// thread this equals the number of `(source, width, flow)` groups touched.
    pub fn total_sim_builds(&self) -> usize {
        self.workers.iter().map(|worker| worker.sim_builds).sum()
    }

    /// Total points the simulated switching metric ran for.
    pub fn total_sim_points(&self) -> usize {
        self.workers.iter().map(|worker| worker.sim_points).sum()
    }

    /// Total simulated points that reused a verified cached context.
    pub fn total_sim_reuses(&self) -> usize {
        self.workers.iter().map(|worker| worker.sim_reuses).sum()
    }

    /// Jobs executed by the busiest and laziest workers — a quick imbalance probe.
    pub fn job_spread(&self) -> (usize, usize) {
        let max = self.workers.iter().map(|w| w.jobs).max().unwrap_or(0);
        let min = self.workers.iter().map(|w| w.jobs).min().unwrap_or(0);
        (max, min)
    }
}

/// The execution order of one run: job indices sorted group-major by
/// `(source, width, flow rank)`, so jobs that differ only in their skew/bias
/// profiles are adjacent. Workers claim positions of this order one at a time from
/// a shared cursor, so a worker usually takes several consecutive peers of one
/// group and its [`SimCache`] sees them in order. The order affects only
/// wall-clock time, never results.
fn schedule(spec: &ExplorationSpec, jobs: &[Job]) -> Vec<usize> {
    // The flow's position in the specification (not its value) keys the sort so the
    // schedule never depends on an ordering of `Flow` itself.
    let flow_rank = |job: &Job| {
        spec.flows
            .iter()
            .position(|flow| *flow == job.flow())
            .unwrap_or(usize::MAX)
    };
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    // Stable: within a group the canonical enumeration order (skew-major) survives.
    order.sort_by_key(|&index| {
        let job = &jobs[index];
        (job.source_index(), job.width(), flow_rank(job))
    });
    order
}

/// Runs an exploration: shards the job matrix across the specification's worker
/// threads, evaluates every point, and reduces the results into canonical order plus
/// the Pareto front.
///
/// Workers claim jobs one at a time from one shared atomic cursor over the
/// group-major schedule order, so no worker idles while a job is unclaimed. Every
/// result lands in a preallocated write-once slot keyed by its canonical job index,
/// so the returned results are **bit-identical for any worker count**.
///
/// # Errors
///
/// Returns [`ExploreError::Flow`] when a synthesis flow fails on a job; if several
/// jobs fail, the error of the lowest-indexed job is returned (again independent of
/// the thread count).
pub fn explore(spec: &ExplorationSpec) -> Result<ExplorationResults, ExploreError> {
    explore_with_stats(spec).map(|(results, _)| results)
}

/// Like [`explore`], additionally returning the run's scheduling diagnostics
/// ([`ExploreStats`]): per-worker job, store-hit and sim counters. The results
/// half is bit-identical to [`explore`]'s; the stats half records *this run's*
/// scheduling and may differ between runs.
///
/// When the specification attaches a persistent store
/// ([`ExplorationSpecBuilder::store`](crate::ExplorationSpecBuilder::store)), this
/// is also where the persistence round-trip happens: the memo file is loaded
/// before the run, warm hits are served from it during the run, and the union of
/// old and fresh records is flushed back atomically afterwards.
pub fn explore_with_stats(
    spec: &ExplorationSpec,
) -> Result<(ExplorationResults, ExploreStats), ExploreError> {
    match spec.store_path() {
        None => explore_with_store(spec, None).map(|(results, stats, _)| (results, stats)),
        Some(path) => {
            let mut store = ResultStore::load_with_faults(path, spec.faults().cloned())?;
            let (results, stats, fresh) = explore_with_store(spec, Some(&store))?;
            store.merge(fresh);
            store.flush()?;
            Ok((results, stats))
        }
    }
}

/// The fresh `(key, value)` records one [`explore_with_store`] run evaluated,
/// sorted by key — ready for [`ResultStore::merge`].
pub type FreshRecords = Vec<(EvalKey, StoredEval)>;

/// The lowest-level entry point: runs an exploration against an optional
/// **caller-managed** [`ResultStore`] snapshot and returns the fresh records the
/// run evaluated (sorted by key) alongside the results and stats, leaving the
/// merge/flush policy to the caller. [`explore_with_stats`] builds the simple
/// load–run–flush cycle on top; the server mode shares one store across requests
/// by snapshotting it per request and merging the fresh records back under its own
/// lock.
///
/// Store semantics:
///
/// * Lookups are served at both stages — point-level hits skip the job entirely,
///   analysis-level hits skip the analysis bundle — and always return figures
///   **byte-identical** to fresh evaluation (the store holds exact f64 bit
///   patterns keyed by the exact evaluation identity).
/// * When the specification retains artifacts, lookups are disabled (a memoized
///   record has no netlist to retain, and the retention contract is exact);
///   fresh records are still produced so the run warms the store either way.
/// * `store: None` is precisely the pre-store engine: no keys are computed, no
///   records returned.
///
/// # Errors
///
/// Returns [`ExploreError::Flow`] when a synthesis flow fails on a job (lowest
/// job index wins, independent of thread count). A *panicking* evaluation no
/// longer fails the run at all: each job runs under `catch_unwind` supervision,
/// is retried up to [`JOB_ATTEMPT_LIMIT`] attempts from a clean per-worker sim
/// cache, and is quarantined ([`ExplorationResults::quarantined`]) when every
/// attempt panics — the other jobs complete normally.
/// [`ExploreError::WorkerPanic`] remains only as the thread-level fallback for a
/// panic *outside* the supervised evaluation (worker-loop internals).
pub fn explore_with_store(
    spec: &ExplorationSpec,
    store: Option<&ResultStore>,
) -> Result<(ExplorationResults, ExploreStats, FreshRecords), ExploreError> {
    let jobs = spec.jobs();
    let order = schedule(spec, &jobs);
    let cursor = AtomicUsize::new(0);
    let stimuli = StimulusBank::default();
    let workers = spec.threads();
    let memo = store.map(|store| StoreContext {
        store,
        tech_digest: spec.tech().identity_digest(),
    });
    // One write-once slot per job: no result lock, no post-run sort.
    let slots: Vec<OnceLock<JobOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let mut stats = ExploreStats {
        workers: Vec::with_capacity(workers),
        store: store.map(ResultStore::health),
    };
    // Fresh records, keyed: the BTreeMap both deduplicates (identical keys carry
    // identical values by evaluation purity) and fixes the return order, so the
    // fresh set is independent of which worker evaluated what.
    let mut fresh = BTreeMap::new();
    let mut panicked = false;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (order, cursor, stimuli) = (&order, &cursor, &stimuli);
                let jobs = &jobs;
                let slots = &slots;
                let memo = memo.as_ref();
                scope.spawn(move || {
                    let mut sim_cache = SimCache::new(stimuli);
                    let mut worker = WorkerStats::default();
                    let mut recorded = Vec::new();
                    // Relaxed: the cursor only hands out positions. The jobs are
                    // shared read-only from before the spawn, and results are
                    // published through the write-once slots and the joins.
                    while let Some(&job_index) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        worker.jobs += 1;
                        let outcome = supervised_evaluate(
                            spec,
                            &jobs[job_index],
                            &mut sim_cache,
                            memo,
                            &mut recorded,
                            &mut worker,
                        );
                        let stored = slots[job_index].set(outcome);
                        debug_assert!(stored.is_ok(), "every job index is claimed once");
                    }
                    (worker, recorded)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((worker, recorded)) => {
                    stats.workers.push(worker);
                    for (key, value) in recorded {
                        fresh.entry(key).or_insert(value);
                    }
                }
                // A worker thread died outside the supervised evaluation (its
                // panic payload is opaque; the unfilled result slot identifies
                // the job). Keep joining so the remaining workers drain cleanly
                // before the error returns.
                Err(_) => panicked = true,
            }
        }
    });
    if panicked {
        let job = slots
            .iter()
            .position(|slot| slot.get().is_none())
            .unwrap_or(0);
        return Err(ExploreError::WorkerPanic { job });
    }
    let mut points = Vec::with_capacity(jobs.len());
    let mut quarantined = Vec::new();
    let mut first_error = None;
    for (index, slot) in slots.into_iter().enumerate() {
        let outcome = slot
            .into_inner()
            .expect("every job slot is filled by exactly one worker");
        match outcome {
            JobOutcome::Point(point) => points.push(*point),
            // Lowest job index wins, independent of the thread count: slots are
            // scanned in canonical order.
            JobOutcome::Failed(error) => {
                if first_error.is_none() {
                    first_error = Some(error);
                }
            }
            JobOutcome::Quarantined { attempts, reason } => quarantined.push(QuarantinedJob {
                index,
                label: jobs[index].label(),
                attempts,
                reason,
            }),
        }
    }
    if let Some(error) = first_error {
        return Err(error);
    }
    let metrics: Vec<PointMetrics> = points.iter().map(|point| point.metrics).collect();
    let front = pareto_front(&metrics);
    Ok((
        ExplorationResults {
            points,
            front,
            quarantined,
        },
        stats,
        fresh.into_iter().collect(),
    ))
}

/// The supervised outcome of one job, as stored in its write-once result slot.
enum JobOutcome {
    /// The evaluation succeeded (possibly after panicking retries).
    ///
    /// Boxed: a point (metrics + optional retained artifacts) dwarfs the other
    /// variants, and the slot vector holds one slot per job.
    Point(Box<ExplorationPoint>),
    /// The evaluation returned a typed error (flow/sim/store failure).
    Failed(ExploreError),
    /// Every attempt panicked; the job is quarantined instead of failing the run.
    Quarantined {
        /// Attempts made (the retry limit).
        attempts: usize,
        /// Panic message of the final attempt.
        reason: String,
    },
}

/// Best-effort text of a panic payload (`panic!` carries `&str` or `String`).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs [`evaluate`] under `catch_unwind` supervision with bounded deterministic
/// retry: a panicking attempt resets the worker's sim cache (a panic may have
/// left it mid-update; the run's shared stimulus batches survive) and truncates the fresh-record tail back
/// to the pre-attempt mark (so the store never keeps records of a poisoned
/// attempt), then retries; after [`JOB_ATTEMPT_LIMIT`] panicking attempts the job
/// is quarantined. Because the retry budget is per *job* (not per worker or
/// wall-clock), the outcome is identical for every thread count.
fn supervised_evaluate(
    spec: &ExplorationSpec,
    job: &Job,
    sim_cache: &mut SimCache<'_>,
    memo: Option<&StoreContext<'_>>,
    recorded: &mut Vec<(EvalKey, StoredEval)>,
    worker: &mut WorkerStats,
) -> JobOutcome {
    for attempt in 1..=JOB_ATTEMPT_LIMIT {
        let mark = recorded.len();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            evaluate(spec, job, &mut *sim_cache, memo, recorded, worker)
        }));
        match caught {
            Ok(Ok(point)) => return JobOutcome::Point(Box::new(point)),
            Ok(Err(error)) => return JobOutcome::Failed(error),
            Err(payload) => {
                recorded.truncate(mark);
                sim_cache.reset();
                if attempt == JOB_ATTEMPT_LIMIT {
                    return JobOutcome::Quarantined {
                        attempts: attempt,
                        reason: panic_reason(payload.as_ref()),
                    };
                }
            }
        }
    }
    unreachable!("the attempt loop always returns")
}

/// The store view one run evaluates against: an immutable snapshot plus the tech
/// digest computed once for every key of the run.
struct StoreContext<'a> {
    store: &'a ResultStore,
    tech_digest: u64,
}

/// Reconstructs an exploration point from a memoized record — byte-identical to
/// fresh evaluation because the record stores exact bit patterns. Only reached
/// when artifacts are not retained, so `artifact: None` matches fresh behavior.
/// `sim_on` says whether the sweep carries a simulated metric: its key could only
/// have matched a record of the same kind, so the stored `simulated_switch_power`
/// is meaningful exactly then.
fn point_from_stored(
    job: &Job,
    design: &Design,
    stored: StoredEval,
    sim_on: bool,
) -> ExplorationPoint {
    ExplorationPoint {
        job: job.clone(),
        design: design.name().to_string(),
        metrics: PointMetrics {
            delay: stored.delay,
            power: stored.power_mw,
            area: stored.area,
            switching_energy: stored.switching_energy,
            cell_count: stored.cell_count,
            logic_depth: stored.logic_depth,
            simulated_switch_power: sim_on.then_some(stored.simulated_switch_power),
        },
        artifact: None,
    }
}

/// The storable figures of a freshly evaluated point; an analytic sweep stores a
/// zero simulated figure (its key's zero stimulus digest keeps it from ever being
/// read back as a simulated one).
fn stored_from(result: &FlowResult, simulated: Option<f64>) -> StoredEval {
    StoredEval {
        delay: result.delay,
        area: result.area,
        switching_energy: result.switching_energy,
        power_mw: result.power_mw,
        cell_count: result.compiled.cell_count(),
        logic_depth: result.compiled.level_count(),
        simulated_switch_power: simulated.unwrap_or(0.0),
    }
}

/// Evaluates one job: materializes its design, runs its flow's synthesis, and obtains
/// the metrics (delay from timing analysis, power from probability propagation, area
/// and structure straight off the compiled program). Flows that synthesize without
/// analysing are analysed here by [`FlowResult::analyze`], the same call
/// [`Flow::run`](dpsyn_baselines::Flow::run) makes.
///
/// With a [`StoreContext`] attached the job additionally consults the persistent
/// store — a point-level hit skips even synthesis, an analysis-level hit skips the
/// analysis bundle — and appends its own records to `recorded`. Lookups are
/// skipped (but records still produced) when artifacts are retained; see
/// [`explore_with_store`].
///
/// When the specification carries a [`SimActivity`](crate::SimActivity), the
/// synthesized netlist additionally runs through the worker's [`SimCache`] — the
/// group's compiled block program and the run's shared stimulus batch absorb every
/// later point — and both store keys fold the stimulus digest, so simulated and
/// analytic records never alias.
fn evaluate(
    spec: &ExplorationSpec,
    job: &Job,
    sim_cache: &mut SimCache<'_>,
    memo: Option<&StoreContext<'_>>,
    recorded: &mut Vec<(EvalKey, StoredEval)>,
    worker: &mut WorkerStats,
) -> Result<ExplorationPoint, ExploreError> {
    // Fault hook first: injected panics and stalls must fire on *every* attempt,
    // including warm reruns that would otherwise short-circuit on a store hit.
    if let Some(faults) = spec.faults() {
        faults.on_job_attempt(job.index());
    }
    let design = spec.materialize(job);
    #[cfg(test)]
    if design.name() == "__panic__" {
        panic!("injected evaluation panic (worker-panic tests only)");
    }
    let activity = spec.sim_activity();
    let sim_on = activity.is_some();
    let lookups = memo.filter(|_| !spec.retain_artifacts);
    let point_key = memo.map(|context| {
        let stimulus = activity.map(stimulus_digest).unwrap_or(0);
        EvalKey::point(&design, job.flow(), context.tech_digest, stimulus)
    });
    if let (Some(context), Some(key)) = (lookups, point_key.as_ref()) {
        if let Some(stored) = context.store.lookup(key) {
            worker.store_hits += 1;
            return Ok(point_from_stored(job, &design, stored, sim_on));
        }
    }
    let synthesis = job
        .flow()
        .synthesize(
            design.expr(),
            design.spec(),
            design.output_width(),
            spec.tech(),
        )
        .map_err(|source| ExploreError::Flow {
            job: job.label(),
            source,
        })?;
    // Runs the simulated switching metric on one synthesized netlist through the
    // worker's per-group context cache, tallying build/reuse counters.
    let mut simulate = |netlist: &dpsyn_netlist::Netlist,
                        word_map: &dpsyn_netlist::WordMap,
                        worker: &mut WorkerStats|
     -> Result<Option<f64>, ExploreError> {
        let Some(activity) = activity else {
            return Ok(None);
        };
        let (power, outcome) = sim_cache
            .simulate(activity, netlist, word_map, design.spec(), spec.tech())
            .map_err(|message| ExploreError::Sim {
                job: job.label(),
                message,
            })?;
        worker.sim_points += 1;
        match outcome {
            SimOutcome::Built => worker.sim_builds += 1,
            SimOutcome::Reused => worker.sim_reuses += 1,
        }
        Ok(Some(power))
    };
    let (result, simulated) = match synthesis {
        FlowSynthesis::Analyzed(result) => {
            let simulated = simulate(&result.netlist, &result.word_map, worker)?;
            (*result, simulated)
        }
        FlowSynthesis::Unanalyzed(parts) => {
            let analysis_key = memo.map(|context| {
                let (arrivals, probabilities) = input_profiles(&parts.word_map, design.spec());
                let stimulus = activity
                    .map(|activity| {
                        stimulus_layout_digest(stimulus_digest(activity), &parts.word_map)
                    })
                    .unwrap_or(0);
                EvalKey::analysis(
                    &parts.netlist,
                    context.tech_digest,
                    parts.flow,
                    profile_digest(&arrivals, &probabilities),
                    stimulus,
                )
            });
            if let (Some(context), Some(key)) = (lookups, analysis_key.as_ref()) {
                if let Some(stored) = context.store.lookup(key) {
                    worker.store_hits += 1;
                    // Promote the hit to a point-level record so the next run
                    // skips this job's synthesis too.
                    if let Some(point_key) = point_key {
                        recorded.push((point_key, stored));
                    }
                    return Ok(point_from_stored(job, &design, stored, sim_on));
                }
            }
            // Simulate before `analyze` consumes the netlist by value.
            let simulated = simulate(&parts.netlist, &parts.word_map, worker)?;
            let result = FlowResult::analyze(
                parts.flow,
                parts.netlist,
                parts.word_map,
                design.spec(),
                spec.tech(),
            )
            .map_err(|source| ExploreError::Flow {
                job: job.label(),
                source,
            })?;
            if let Some(key) = analysis_key {
                recorded.push((key, stored_from(&result, simulated)));
            }
            (result, simulated)
        }
    };
    if let Some(key) = point_key {
        recorded.push((key, stored_from(&result, simulated)));
    }
    let metrics = PointMetrics {
        delay: result.delay,
        power: result.power_mw,
        area: result.area,
        switching_energy: result.switching_energy,
        cell_count: result.compiled.cell_count(),
        logic_depth: result.compiled.level_count(),
        simulated_switch_power: simulated,
    };
    Ok(ExplorationPoint {
        job: job.clone(),
        design: design.name().to_string(),
        metrics,
        artifact: spec.retain_artifacts.then_some(result),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BiasProfile, SkewProfile};
    use dpsyn_baselines::Flow;

    /// A workload spec whose matrix has one group of `skews × biases` jobs per
    /// `(width, flow)` combination.
    fn spec(threads: usize) -> ExplorationSpec {
        ExplorationSpec::builder()
            .sum_workload(3)
            .widths([3, 4])
            .skews([
                SkewProfile::Keep,
                SkewProfile::Uniform(1.0),
                SkewProfile::Uniform(2.0),
            ])
            .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
            .flows([Flow::Conventional, Flow::FaAot])
            .threads(threads)
            .build()
            .expect("schedule test spec is well-formed")
    }

    #[test]
    fn schedule_order_is_a_group_major_permutation() {
        let spec = spec(2);
        let jobs = spec.jobs();
        let order = schedule(&spec, &jobs);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..jobs.len()).collect::<Vec<_>>(), "a permutation");
        let group = |index: usize| {
            let job = &jobs[index];
            (job.source_index(), job.width(), job.flow())
        };
        // 2 widths × 2 flows = 4 groups of 3 skews × 2 biases = 6 jobs each: every
        // group is one contiguous run of 6 in canonical (ascending index) order.
        for run in order.chunks(6) {
            assert!(run.iter().all(|&index| group(index) == group(run[0])));
            assert!(run.windows(2).all(|pair| pair[0] < pair[1]), "stable order");
        }
    }

    #[test]
    fn shared_cursor_claims_every_job_exactly_once() {
        // 24 jobs under 1 and 3 workers: every job is claimed by exactly one
        // worker (the write-once slots would panic in debug on a double claim).
        for threads in [1, 3] {
            let (results, stats) = explore_with_stats(&spec(threads)).expect("sweep runs");
            assert_eq!(results.points().len(), 24);
            assert_eq!(stats.workers.len(), threads);
            let claimed: usize = stats.workers.iter().map(|worker| worker.jobs).sum();
            assert_eq!(claimed, 24, "{threads} worker(s)");
        }
    }

    #[test]
    fn more_threads_than_jobs_emits_at_most_one_chunk_per_job() {
        // 24 jobs under 64 workers: the unit of work is one job claimed from the
        // cursor, so there are exactly as many claims as jobs, at most 24 workers
        // get any, and the rest find the cursor already exhausted.
        let (results, stats) = explore_with_stats(&spec(64)).expect("sweep runs");
        assert_eq!(results.points().len(), 24);
        assert_eq!(stats.workers.len(), 64);
        let claimed: usize = stats.workers.iter().map(|worker| worker.jobs).sum();
        assert_eq!(claimed, 24);
        let busy = stats.workers.iter().filter(|worker| worker.jobs > 0).count();
        assert!((1..=24).contains(&busy), "{busy} busy workers");
    }

    /// A fixed design whose evaluation panics (the `__panic__` injection hook in
    /// [`evaluate`] is compiled under `cfg(test)` only).
    fn panicking_design() -> dpsyn_designs::Design {
        let healthy = dpsyn_designs::x_squared();
        dpsyn_designs::Design::new(
            "__panic__",
            "injected panic for worker-panic tests",
            &healthy.expr().to_string(),
            healthy.spec().clone(),
            healthy.output_width(),
        )
    }

    #[test]
    fn panicking_jobs_are_retried_then_quarantined_not_fatal() {
        // The panicking design sits *after* a healthy one, so its job indices are
        // 2 and 3 (two flows per design) and healthy jobs complete around it. Its
        // evaluation panics on *every* attempt, so both jobs exhaust the retry
        // budget and land in quarantine — the sweep itself still succeeds, with
        // identical results for every thread count.
        for threads in [1, 2, 4] {
            let spec = ExplorationSpec::builder()
                .design(dpsyn_designs::x_squared())
                .design(panicking_design())
                .flows([Flow::FaAot, Flow::Conventional])
                .threads(threads)
                .seed(7)
                .build()
                .expect("panic-injection spec is well-formed");
            let results = explore(&spec).expect("a poisoned job must not fail the sweep");
            assert_eq!(
                results.points().len(),
                2,
                "the healthy design's two jobs complete"
            );
            let indices: Vec<usize> = results.quarantined().iter().map(|job| job.index).collect();
            assert_eq!(indices, vec![2, 3], "quarantine order is canonical");
            for job in results.quarantined() {
                assert_eq!(job.attempts, JOB_ATTEMPT_LIMIT, "full retry budget spent");
                assert!(
                    job.reason.contains("injected evaluation panic"),
                    "the panic message is preserved (got {:?})",
                    job.reason
                );
                assert!(
                    job.label.contains("__panic__"),
                    "the label names the poisoned design (got {:?})",
                    job.label
                );
            }
            let summary = results.render_summary();
            assert!(
                summary.contains("quarantined jobs (2):"),
                "the summary reports the quarantine section"
            );
        }
    }

    #[test]
    fn transient_panics_are_retried_to_success() {
        // A fault plan that panics job 2's first attempt only: the supervised
        // retry succeeds on attempt 2 and the sweep is complete — no quarantine,
        // and the results match a fault-free run of the same spec.
        let build = |faults: Option<std::sync::Arc<crate::faults::FaultPlan>>| {
            let mut builder = ExplorationSpec::builder()
                .sum_workload(2)
                .widths([3, 4])
                .flows([Flow::Conventional])
                .threads(2)
                .seed(11);
            if let Some(plan) = faults {
                builder = builder.faults(plan);
            }
            builder.build().expect("spec is well-formed")
        };
        let plan = crate::faults::FaultPlan::builder().panic_job(1, 1).build();
        let faulted = build(Some(std::sync::Arc::clone(&plan)));
        let results = explore(&faulted).expect("one transient panic must be retried");
        assert!(results.quarantined().is_empty(), "the retry succeeded");
        assert_eq!(plan.job_attempts(1), 2, "attempt 1 panicked, attempt 2 ran");
        let clean = explore(&build(None)).expect("fault-free run");
        assert_eq!(
            results.render_summary(),
            clean.render_summary(),
            "recovered results are byte-identical to the fault-free run"
        );
    }

    #[test]
    fn sim_contexts_are_built_once_per_group_and_reused() {
        use crate::spec::SimActivity;
        // 2 widths × 2 flows = 4 (source, width, flow) groups of 3 skews × 2
        // biases = 6 jobs each. One worker claims the group-major order, so every
        // group runs back to back. Both flows bind modules without looking at input profiles,
        // so every point of a group synthesizes the identical structure and the
        // simulated metric must compile exactly one block program (and draw one
        // stimulus batch) per group, absorbing the other five points as verified
        // reuses. (Profile-steered flows like the FA-tree family synthesize
        // different structures per skew and legitimately build more.)
        let spec = ExplorationSpec::builder()
            .sum_workload(3)
            .widths([3, 4])
            .skews([
                SkewProfile::Keep,
                SkewProfile::Uniform(1.0),
                SkewProfile::Uniform(2.0),
            ])
            .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
            .flows([Flow::Conventional, Flow::CsaOpt])
            .threads(1)
            .sim_activity(SimActivity {
                seed: 11,
                vectors: 512,
            })
            .build()
            .expect("sim reuse spec is well-formed");
        let (results, stats) = explore_with_stats(&spec).expect("sim sweep runs");
        assert_eq!(results.points().len(), 24);
        assert_eq!(stats.total_sim_points(), 24, "every point is simulated");
        assert_eq!(
            stats.total_sim_builds(),
            4,
            "one block program + stimulus batch per (source, width, flow) group"
        );
        assert_eq!(stats.total_sim_reuses(), 20);
        for point in results.points() {
            let simulated = point
                .metrics
                .simulated_switch_power
                .expect("sim metric present on every point");
            assert!(simulated.is_finite() && simulated > 0.0);
        }
        let text = results.render_summary();
        assert!(text.contains("sim mW"), "summary gains the sim column");
        assert!(text.contains("div%"), "summary gains the divergence column");

        // An analytic sweep of the same matrix carries no simulated metric and
        // renders the historical table.
        let analytic = ExplorationSpec::builder()
            .sum_workload(3)
            .widths([3, 4])
            .skews([
                SkewProfile::Keep,
                SkewProfile::Uniform(1.0),
                SkewProfile::Uniform(2.0),
            ])
            .biases([BiasProfile::Keep, BiasProfile::Uniform(0.3)])
            .flows([Flow::Conventional, Flow::CsaOpt])
            .threads(1)
            .build()
            .expect("analytic twin is well-formed");
        let (results, stats) = explore_with_stats(&analytic).expect("analytic sweep runs");
        assert_eq!(stats.total_sim_points(), 0);
        assert_eq!(stats.total_sim_builds(), 0);
        assert!(results
            .points()
            .iter()
            .all(|point| point.metrics.simulated_switch_power.is_none()));
        assert!(!results.render_summary().contains("sim mW"));
    }
}
