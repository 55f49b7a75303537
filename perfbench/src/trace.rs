//! The outside-in layer trace of `--trace 1` runs.
//!
//! Spans are recorded only at the benchmark's own boundaries: around the measured
//! request, and around each public call of a **replay** that re-executes the
//! request's points layer by layer through the crates' public functions
//! (`ExplorationSpec::materialize`, `Expr::lower`, `Flow::run`/`synthesize`,
//! `fa_anneal_with_stats`, `Netlist::compile`, `run_compiled`,
//! `measure_toggles_blocks`, `ResultStore::{load, clone, lookup, merge, flush}`,
//! `render_summary`). Spans live in memory (name, start, end, parent, request)
//! and are written out when the run ends. A layer's figure is its spans' self
//! time — duration minus the part its child spans cover — per traced request;
//! counts are taken at the same boundaries from public outputs.
//!
//! Traced and untraced rounds alternate, so one run also gives the tracing
//! overhead: the drop of `points_per_s` on traced rounds against untraced ones.

use crate::report::Metric;
use crate::serve_warm::Request;
use crate::stats::{median, percentile};
use dpsyn_baselines::{input_profiles, Flow, FlowSynthesis};
use dpsyn_explore::{
    explore_with_store, EvalKey, ExplorationResults, ExplorationSpec, ExploreStats, ResultStore,
};
use dpsyn_ir::LoweringOptions;
use dpsyn_netlist::{Netlist, WordMap};
use dpsyn_power::ProbabilityAnalysis;
use dpsyn_timing::TimingAnalysis;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder plus the per-request counters of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Counts summed over traced requests.
    counts: BTreeMap<&'static str, f64>,
    /// Id of the request being traced (1-based).
    request: u64,
    /// Worker threads of each measured request (for the engine overhead).
    threads: usize,
    /// (points, measured ms) over untraced and traced rounds.
    untraced: (u64, f64),
    traced: (u64, f64),
    serve_hits: Vec<f64>,
    serve_misses: Vec<f64>,
    serve_rejects: f64,
}

impl Tracer {
    pub fn new(threads: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
            request: 0,
            threads,
            untraced: (0, 0.0),
            traced: (0, 0.0),
            serve_hits: Vec::new(),
            serve_misses: Vec::new(),
            serve_rejects: 0.0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span that already happened (the measured request itself).
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request: self.request,
        });
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    fn time<T>(&mut self, name: &'static str, parent: usize, call: impl FnOnce() -> T) -> T {
        let span = self.begin(name, Some(parent));
        let value = call();
        self.end(span);
        value
    }

    fn count(&mut self, name: &'static str, delta: f64) {
        *self.counts.entry(name).or_default() += delta;
    }

    /// Tallies one measured request toward the traced/untraced throughput split.
    pub fn note_request(&mut self, traced: bool, points: u64, ms: f64) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        side.0 += points;
        side.1 += ms;
    }

    /// Replays one batch request (`sweep_cold`/`table2_power`) layer by layer.
    pub fn replay_request(
        &mut self,
        spec: &ExplorationSpec,
        results: &ExplorationResults,
        stats: &ExploreStats,
        start: Instant,
        end: Instant,
    ) {
        self.request += 1;
        self.record("explore.request", start, end);
        let (busiest, laziest) = stats.job_spread();
        self.count("explore.steals", stats.total_steals() as f64);
        self.count("explore.job_spread", (busiest - laziest) as f64);
        self.count("explore.sim_reuses", stats.total_sim_reuses() as f64);
        self.count(
            "engine.wall_x_threads_ns",
            end.duration_since(start).as_nanos() as f64 * self.threads as f64,
        );
        let replay = self.begin("replay", None);
        for job in spec.jobs() {
            let design = self.time("designs.materialize", replay, || spec.materialize(&job));
            self.replay_point(spec, &design, job.flow(), replay);
        }
        self.time("explore.render", replay, || results.render_summary());
        self.end(replay);
    }

    /// Replays one design point the way the engine evaluates it:
    ///
    /// * FA-tree flows: `Flow::run` (which lowers, builds and analyses), with
    ///   `Expr::lower` and compile + STA + power re-timed beside it;
    /// * `conventional`/`csa_opt`: `Flow::synthesize`, then compile + STA + power
    ///   (these flows lower through their own modules, not `Expr::lower`);
    /// * `fa_anneal`: its `fa_random` start (with `Expr::lower` re-timed beside
    ///   it), then `fa_anneal_with_stats`, which includes the start again;
    ///
    /// plus block simulation when the spec asks for simulated activity.
    fn replay_point(
        &mut self,
        spec: &ExplorationSpec,
        design: &dpsyn_designs::Design,
        flow: Flow,
        parent: usize,
    ) {
        let (expr, inputs, width, tech) = (
            design.expr(),
            design.spec(),
            design.output_width(),
            spec.tech(),
        );
        let point = self.begin("point", Some(parent));
        if !matches!(flow, Flow::Conventional | Flow::CsaOpt) {
            let matrix = self
                .time("ir.lower", point, || {
                    expr.lower(inputs, &LoweringOptions::with_width(width))
                })
                .expect("benchmark points lower");
            self.count("ir.addends", matrix.total_addends() as f64);
        }
        let (netlist, word_map): (Netlist, WordMap) = match flow {
            Flow::Conventional | Flow::CsaOpt => {
                let synthesis = self
                    .time("baselines.synth", point, || {
                        flow.synthesize(expr, inputs, width, tech)
                    })
                    .expect("benchmark points synthesize");
                let (netlist, word_map) = match synthesis {
                    FlowSynthesis::Unanalyzed(parts) => (parts.netlist, parts.word_map),
                    FlowSynthesis::Analyzed(result) => (result.netlist, result.word_map),
                };
                self.retime_analyses(point, &netlist, &word_map, inputs, tech);
                (netlist, word_map)
            }
            Flow::FaAnneal(seed) => {
                self.time("baselines.anneal_start", point, || {
                    Flow::FaRandom(seed).run(expr, inputs, width, tech)
                })
                .expect("benchmark points synthesize");
                let (result, stats) = self
                    .time("baselines.anneal", point, || {
                        dpsyn_baselines::fa_anneal_with_stats(expr, inputs, width, tech, seed)
                    })
                    .expect("benchmark points synthesize");
                self.count("baselines.anneal_proposals", stats.proposals as f64);
                self.count("baselines.anneal_accepted", stats.accepted as f64);
                self.count("netlist.ops", result.compiled.op_count() as f64);
                (result.netlist, result.word_map)
            }
            _ => {
                let result = self
                    .time("core.flow_run", point, || {
                        flow.run(expr, inputs, width, tech)
                    })
                    .expect("benchmark points synthesize");
                self.count("core.cells", result.netlist.cell_count() as f64);
                self.retime_analyses(point, &result.netlist, &result.word_map, inputs, tech);
                (result.netlist, result.word_map)
            }
        };
        if let Some(activity) = spec.sim_activity() {
            self.time("sim.toggle", point, || {
                dpsyn_sim::measure_toggles_blocks(
                    &netlist,
                    &word_map,
                    inputs,
                    activity.vectors,
                    activity.seed,
                    dpsyn_sim::DEFAULT_BLOCK,
                )
            })
            .expect("synthesized netlists simulate");
            self.count("sim.vectors", activity.vectors as f64);
        }
        self.end(point);
    }

    /// Compile + STA + power on `netlist`, each its own span.
    fn retime_analyses(
        &mut self,
        point: usize,
        netlist: &Netlist,
        word_map: &WordMap,
        inputs: &dpsyn_ir::InputSpec,
        tech: &dpsyn_tech::TechLibrary,
    ) {
        let compiled = self
            .time("netlist.compile", point, || netlist.compile())
            .expect("synthesized netlists compile");
        self.count("netlist.ops", compiled.op_count() as f64);
        let (arrivals, probabilities) = input_profiles(word_map, inputs);
        self.time("timing.sta", point, || {
            TimingAnalysis::new(tech)
                .with_input_arrivals(arrivals)
                .run_compiled(&compiled)
        })
        .expect("timing analysis runs");
        self.time("power.prob", point, || {
            ProbabilityAnalysis::new(tech)
                .with_input_probabilities(probabilities)
                .run_compiled(&compiled)
        })
        .expect("power analysis runs");
    }

    /// Replays one `serve_warm` round in process, in the order the two connections
    /// interleave, against a fresh copy of the prefilled store; `latencies_ms` are
    /// the measured round trips of the same requests, in round order.
    pub fn replay_serve_round(
        &mut self,
        round: &[Vec<Request>],
        prefilled: &[u8],
        dir: &Path,
        latencies_ms: &[Vec<f64>],
        rejects: u64,
    ) {
        let path = dir.join("replay.store");
        std::fs::write(&path, prefilled).expect("replay store writes");
        self.serve_rejects += rejects as f64;
        let longest = round.iter().map(Vec::len).max().unwrap_or(0);
        let load = self.begin("serve.round", None);
        let mut store = self
            .time("explore.store_load", load, || ResultStore::load(&path))
            .expect("prefilled store loads");
        self.end(load);
        self.count("serve.rounds", 1.0);
        for index in 0..longest {
            for (requests, latencies) in round.iter().zip(latencies_ms) {
                let (Some(request), Some(&latency)) = (requests.get(index), latencies.get(index))
                else {
                    continue;
                };
                if request.hit {
                    self.serve_hits.push(latency);
                } else {
                    self.serve_misses.push(latency);
                }
                self.request += 1;
                self.count("serve.round_trip_ns", latency * 1e6);
                self.replay_serve_request(request, &mut store);
            }
        }
        self.count("explore.store_records", store.len() as f64);
        let _ = std::fs::remove_file(&path);
    }

    fn replay_serve_request(&mut self, request: &Request, store: &mut ResultStore) {
        let spec = &request.spec;
        let root = self.begin("serve.replay", None);
        let tech = spec.tech().identity_digest();
        let keys: Vec<EvalKey> = spec
            .jobs()
            .iter()
            .map(|job| {
                let design = self.time("designs.materialize", root, || spec.materialize(job));
                EvalKey::point(&design, job.flow(), tech, 0)
            })
            .collect();
        self.time("explore.store_lookup", root, || {
            keys.iter()
                .filter(|key| store.lookup(key).is_some())
                .count()
        });
        let in_process = self.begin("serve.in_process", Some(root));
        let snapshot_span = self.begin("explore.store_snapshot", Some(in_process));
        let snapshot = store.clone();
        self.end(snapshot_span);
        let engine_span = self.begin("explore.explore", Some(in_process));
        let (results, stats, fresh) =
            explore_with_store(spec, Some(&snapshot)).expect("serve requests explore");
        self.end(engine_span);
        let flush_span = self.begin("explore.store_flush", Some(in_process));
        store.merge(fresh);
        store.flush().expect("replay store flushes");
        self.end(flush_span);
        let render_span = self.begin("explore.render", Some(in_process));
        results.render_summary();
        self.end(render_span);
        self.end(in_process);
        let [snapshot_ns, engine_ns, flush_ns, render_ns, total_ns] = [
            snapshot_span,
            engine_span,
            flush_span,
            render_span,
            in_process,
        ]
        .map(|span| (self.spans[span].end_ns - self.spans[span].start_ns) as f64);
        self.count("serve.render_ns", render_ns);
        if request.hit {
            self.count("hit.store_ns", snapshot_ns + flush_ns);
            self.count("hit.engine_ns", engine_ns);
            self.count("hit.render_ns", render_ns);
            self.count("hit.total_ns", total_ns);
        }
        self.count("serve.jobs", spec.jobs().len() as f64);
        self.count("serve.store_hits", stats.total_store_hits() as f64);
        self.end(root);
    }

    /// Self time per span name, ns: each span's duration minus its children's.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *totals.entry(span.name).or_insert(0.0) += own as f64;
        }
        totals
    }

    /// Total duration per span name, ns.
    fn durations(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0.0) += (span.end_ns - span.start_ns) as f64;
        }
        totals
    }

    /// The per-layer metrics, per traced request, in `BENCHMARK.json` order, plus
    /// the human-readable layer shares.
    pub fn layers(&self) -> (Vec<Metric>, String) {
        let requests = self.request.max(1) as f64;
        let own = self.self_times();
        let total = self.durations();
        let ms = |ns: f64| ns / 1e6 / requests;
        let get = |map: &BTreeMap<&'static str, f64>, name| map.get(name).copied().unwrap_or(0.0);
        let count = |name| self.counts.get(name).copied().unwrap_or(0.0);

        // core.synth: the FA flows' `Flow::run` minus the lowering and analyses
        // re-timed beside it, plus the `fa_random` start of `fa_anneal` minus its
        // re-timed lowering. Only those re-timed spans are duplicates of work
        // the program does once; every other layer span is the program's own.
        let mut core_synth = 0.0;
        for (index, span) in self.spans.iter().enumerate() {
            if span.name != "point" {
                continue;
            }
            let mut run = None;
            let mut retimed = 0.0;
            let children = self.spans[index + 1..]
                .iter()
                .take_while(|child| child.start_ns <= span.end_ns)
                .filter(|child| child.parent == Some(index));
            for child in children {
                let ns = (child.end_ns - child.start_ns) as f64;
                match child.name {
                    "core.flow_run" | "baselines.anneal_start" => run = Some(ns),
                    "ir.lower" | "netlist.compile" | "timing.sta" | "power.prob" => retimed += ns,
                    _ => {}
                }
            }
            if let Some(run) = run {
                // Anneal points re-time only the lowering, which lies inside the start.
                core_synth += (run - retimed).max(0.0);
            }
        }
        let anneal = get(&own, "baselines.anneal") - get(&own, "baselines.anneal_start");

        // Layer self times (ns) that together account for the replay.
        let layer_ns: Vec<(&str, f64)> = vec![
            ("designs.materialize_ms", get(&own, "designs.materialize")),
            ("ir.lower_ms", get(&own, "ir.lower")),
            ("core.synth_ms", core_synth),
            ("baselines.synth_ms", get(&own, "baselines.synth")),
            ("baselines.anneal_ms", anneal.max(0.0)),
            ("netlist.compile_ms", get(&own, "netlist.compile")),
            ("timing.sta_ms", get(&own, "timing.sta")),
            ("power.prob_ms", get(&own, "power.prob")),
            ("sim.toggle_ms", get(&own, "sim.toggle")),
            ("explore.store_load_ms", get(&own, "explore.store_load")),
            (
                "explore.store_snapshot_ms",
                get(&own, "explore.store_snapshot"),
            ),
            ("explore.store_lookup_ms", get(&own, "explore.store_lookup")),
            ("explore.store_flush_ms", get(&own, "explore.store_flush")),
            ("explore.render_ms", get(&own, "explore.render")),
            ("explore.serve_engine_ms", get(&own, "explore.explore")),
        ];
        let replay_ns =
            get(&total, "replay") + get(&total, "serve.replay") + get(&total, "serve.round");
        // The unattributed remainder: time inside the replay that no layer span
        // covers (the structural spans' own self time: loops, allocation, drops).
        let unattributed: f64 = [
            "replay",
            "point",
            "serve.round",
            "serve.replay",
            "serve.in_process",
        ]
        .iter()
        .map(|name| get(&own, name))
        .sum();
        // The replay re-times lowering and analyses beside `Flow::run`, so its wall
        // exceeds the modelled cost; shares are of the modelled cost.
        let modelled: f64 = layer_ns.iter().map(|(_, ns)| ns).sum::<f64>() + unattributed;
        // Batch requests: worker-time (wall × threads) the modelled point layers do
        // not account for — scheduling, idle workers, contention.
        let batch_render = get(&own, "explore.render") - count("serve.render_ns");
        let point_ns = modelled - get(&own, "replay") - batch_render;
        let wall_x_threads = count("engine.wall_x_threads_ns");
        let engine_overhead = if wall_x_threads > 0.0 {
            (wall_x_threads - point_ns).max(0.0)
        } else {
            0.0
        };
        let in_process = get(&total, "serve.in_process");
        let serve_overhead = (count("serve.round_trip_ns") - in_process).max(0.0);
        let pps = |(points, ms): (u64, f64)| if ms > 0.0 { points as f64 / ms } else { 0.0 };
        let overhead_pct = if pps(self.untraced) > 0.0 {
            100.0 * (1.0 - pps(self.traced) / pps(self.untraced))
        } else {
            0.0
        };
        let per = |name| count(name) / requests;
        let proposals = count("baselines.anneal_proposals");
        let serve_jobs = count("serve.jobs");

        let mut metrics: Vec<Metric> = Vec::new();
        let mut push = |name: &str, value: f64, unit: &'static str| {
            metrics.push(Metric::new(name, value, unit));
        };
        let layer = |name: &str| {
            layer_ns
                .iter()
                .find(|(layer, _)| *layer == name)
                .map_or(0.0, |(_, ns)| ms(*ns))
        };
        push(
            "designs.materialize_ms",
            layer("designs.materialize_ms"),
            "ms/req",
        );
        push("ir.lower_ms", layer("ir.lower_ms"), "ms/req");
        push("ir.addends", per("ir.addends"), "count/req");
        push("core.synth_ms", layer("core.synth_ms"), "ms/req");
        push("core.cells", per("core.cells"), "count/req");
        push("baselines.synth_ms", layer("baselines.synth_ms"), "ms/req");
        push(
            "baselines.anneal_ms",
            layer("baselines.anneal_ms"),
            "ms/req",
        );
        push(
            "baselines.anneal_proposals",
            per("baselines.anneal_proposals"),
            "count/req",
        );
        push(
            "baselines.anneal_accept_ratio",
            if proposals > 0.0 {
                count("baselines.anneal_accepted") / proposals
            } else {
                0.0
            },
            "ratio",
        );
        push("netlist.compile_ms", layer("netlist.compile_ms"), "ms/req");
        push("netlist.ops", per("netlist.ops"), "count/req");
        push("timing.sta_ms", layer("timing.sta_ms"), "ms/req");
        push("power.prob_ms", layer("power.prob_ms"), "ms/req");
        push("sim.toggle_ms", layer("sim.toggle_ms"), "ms/req");
        push("sim.vectors", per("sim.vectors"), "count/req");
        push("explore.engine_overhead_ms", ms(engine_overhead), "ms/req");
        push("explore.steals", per("explore.steals"), "count/req");
        push("explore.job_spread", per("explore.job_spread"), "count/req");
        push("explore.sim_reuses", per("explore.sim_reuses"), "count/req");
        push(
            "explore.store_load_ms",
            layer("explore.store_load_ms"),
            "ms/req",
        );
        push(
            "explore.store_snapshot_ms",
            layer("explore.store_snapshot_ms"),
            "ms/req",
        );
        push(
            "explore.store_lookup_ms",
            layer("explore.store_lookup_ms"),
            "ms/req",
        );
        push(
            "explore.store_flush_ms",
            layer("explore.store_flush_ms"),
            "ms/req",
        );
        push(
            "explore.store_records",
            count("explore.store_records") / count("serve.rounds").max(1.0),
            "count",
        );
        push(
            "explore.store_hit_ratio",
            if serve_jobs > 0.0 {
                count("serve.store_hits") / serve_jobs
            } else {
                0.0
            },
            "ratio",
        );
        push("explore.render_ms", layer("explore.render_ms"), "ms/req");
        push(
            "explore.serve_engine_ms",
            layer("explore.serve_engine_ms"),
            "ms/req",
        );
        push("explore.serve_overhead_ms", ms(serve_overhead), "ms/req");
        push(
            "explore.serve_hit_p50_ms",
            percentile(&self.serve_hits, 0.5).unwrap_or_else(|| median(&self.serve_hits)),
            "ms",
        );
        push(
            "explore.serve_miss_p50_ms",
            percentile(&self.serve_misses, 0.5).unwrap_or_else(|| median(&self.serve_misses)),
            "ms",
        );
        push("explore.serve_rejects", self.serve_rejects, "count");
        push("trace.replay_ms", ms(replay_ns), "ms/req");
        push("trace.unattributed_ms", ms(unattributed), "ms/req");
        push("trace.overhead_pct", overhead_pct, "%");

        let mut shares = String::new();
        let _ = writeln!(
            shares,
            "layer shares ({:.3} ms modelled per traced request, {} traced request(s)):",
            ms(modelled),
            self.request
        );
        let mut ranked: Vec<(&str, f64)> = layer_ns
            .iter()
            .copied()
            .chain([("trace.unattributed_ms", unattributed)])
            .filter(|(_, ns)| *ns > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ns) in ranked {
            let _ = writeln!(
                shares,
                "  {name:<34} {:>6.1}%",
                100.0 * ns / modelled.max(1.0)
            );
        }
        let hit_total = count("hit.total_ns");
        if hit_total > 0.0 {
            let _ = writeln!(
                shares,
                "serve hit requests in process: store snapshot+flush {:.1}%, engine {:.1}%, \
                 render {:.1}%",
                100.0 * count("hit.store_ns") / hit_total,
                100.0 * count("hit.engine_ns") / hit_total,
                100.0 * count("hit.render_ns") / hit_total
            );
        }
        (metrics, shares)
    }

    /// Writes every span as one tab-separated line: name, start and end in ns
    /// since the run began, parent index (`-` for roots) and request id.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{index}\t{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        std::fs::write(path, text)
    }
}
