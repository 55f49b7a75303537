//! Free-form design-space exploration: crosses benchmark designs and synthetic
//! workloads with arrival-skew and probability-bias profiles over every synthesis
//! flow, and prints the per-flow summary plus the delay × power × area Pareto front.
//!
//! ```bash
//! cargo run --release -p dpsyn-bench --bin explore                     # full sweep
//! cargo run --release -p dpsyn-bench --bin explore -- --smoke          # small CI matrix
//! cargo run --release -p dpsyn-bench --bin explore -- --store memo.txt # persistent store
//! cargo run --release -p dpsyn-bench --bin explore -- --serve /tmp/dpsyn.sock --store memo.txt
//! cargo run --release -p dpsyn-bench --bin explore -- --serve-smoke    # CI server check
//! ```
//!
//! The worker count defaults to the host's available parallelism (the spec builder's
//! default), and the per-run stats — jobs, store hits, sim builds and sim reuses per
//! worker — are reported on stderr. `--smoke` additionally re-runs its matrix
//! single-threaded and asserts the rendered summary is byte-identical — the
//! engine's determinism contract, checked end to end.
//!
//! `--store <path>` attaches the persistent cross-run result store: a re-run of the
//! same sweep against a warm memo file collapses to lookups (watch the store-hit
//! counters) while printing the byte-identical summary. `--serve <socket>` starts the
//! long-lived service mode on a Unix socket (newline-delimited JSON requests, one
//! exploration each, all sharing the store; see `dpsyn_explore::serve`), and
//! `--serve-smoke` self-tests that mode end to end: it spawns the server in-process,
//! sends the smoke matrix twice over two overlapping client connections, asserts both
//! responses carry the byte-identical batch summary with warm hits on the second,
//! exercises a `sim_activity` request (simulated columns present, no aliasing of the
//! analytic store entries) plus a malformed one (typed rejection), and shuts the
//! server down gracefully.

use dpsyn_baselines::Flow;
use dpsyn_explore::{
    explore, explore_with_stats, ExplorationSpec, ExplorationSpecBuilder, SkewProfile,
};
use std::path::PathBuf;

/// The small deterministic matrix CI smoke-runs: 24 jobs.
fn smoke_spec() -> ExplorationSpecBuilder {
    ExplorationSpec::builder()
        .design(dpsyn_designs::x_squared())
        .design(dpsyn_designs::mixed_poly())
        .sum_workload(3)
        .width(4)
        .skews([SkewProfile::Keep, SkewProfile::Uniform(2.0)])
        .flows([Flow::Conventional, Flow::CsaOpt, Flow::FaAot, Flow::FaAlp])
        .seed(7)
}

/// Value of `--flag <value>` in `args`, when present.
fn flag_value(args: &[String], flag: &str) -> Option<PathBuf> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|position| args.get(position + 1))
        .map(PathBuf::from)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let store = flag_value(&args, "--store");
    if let Some(socket) = flag_value(&args, "--serve") {
        serve_mode(socket, store);
        return;
    }
    if args.iter().any(|arg| arg == "--serve-smoke") {
        serve_smoke();
        return;
    }
    let smoke = args.iter().any(|arg| arg == "--smoke");
    let builder = if smoke {
        smoke_spec()
    } else {
        dpsyn_bench::explore_full_sweep()
    };
    let builder = match &store {
        Some(path) => builder.store(path.clone()),
        None => builder,
    };
    // No explicit `.threads(..)`: the builder defaults to the available parallelism.
    let spec = builder.build().expect("exploration spec is well-formed");
    let workers = spec.threads();
    eprintln!(
        "exploring {} jobs on {} worker thread(s) ...",
        spec.jobs().len(),
        workers
    );
    let (results, stats) = explore_with_stats(&spec).expect("every flow succeeds");
    if let Some(health) = stats.store {
        eprintln!(
            "store: {} record(s) loaded, {} damaged line(s), {} quarantined line(s){}{}",
            health.records,
            health.damaged_lines,
            health.quarantined,
            if health.torn_tail {
                ", torn tail (mid-flush kill recovered)"
            } else {
                ""
            },
            if health.rebuilt {
                ", stale file rebuilt"
            } else {
                ""
            },
        );
    }
    for (worker, worker_stats) in stats.workers.iter().enumerate() {
        eprintln!(
            "worker {worker}: {} job(s), {} store hit(s), {} sim build(s), {} sim reuse(s)",
            worker_stats.jobs,
            worker_stats.store_hits,
            worker_stats.sim_builds,
            worker_stats.sim_reuses
        );
    }
    if !results.quarantined().is_empty() {
        eprintln!(
            "WARNING: {} job(s) quarantined after repeated panics",
            results.quarantined().len()
        );
    }
    let (busiest, laziest) = stats.job_spread();
    eprintln!(
        "scheduler: {} store hit(s), busiest/laziest worker ran {busiest}/{laziest} job(s)",
        stats.total_store_hits()
    );
    let summary = results.render_summary();
    print!("{summary}");
    if smoke {
        // Determinism gate: the single-threaded run must render byte-identically.
        let reference = explore(&smoke_spec().threads(1).build().expect("smoke spec"))
            .expect("single-threaded smoke run succeeds");
        assert_eq!(
            summary,
            reference.render_summary(),
            "exploration summary diverged between {workers} worker(s) and 1 worker"
        );
        eprintln!("smoke OK: {workers}-thread and 1-thread summaries are byte-identical");
    }
}

#[cfg(unix)]
fn serve_mode(socket: PathBuf, store_path: Option<PathBuf>) {
    use dpsyn_explore::{serve, ServeConfig};
    eprintln!(
        "serving explorations on `{}` (store: {}) — send {{\"shutdown\":true}} to stop",
        socket.display(),
        store_path
            .as_ref()
            .map_or("in-memory".to_string(), |path| path.display().to_string())
    );
    let mut config = ServeConfig::new(socket);
    config.store_path = store_path;
    serve(&config).expect("server runs until shutdown");
}

#[cfg(not(unix))]
fn serve_mode(_socket: PathBuf, _store: Option<PathBuf>) {
    eprintln!("--serve requires Unix domain sockets and is unavailable on this platform");
    std::process::exit(1);
}

/// End-to-end self-test of the server mode; see the module docs. Panics (failing
/// CI) on any divergence.
#[cfg(unix)]
fn serve_smoke() {
    use dpsyn_explore::{serve, ServeConfig, ServeResponse, SimActivity};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let scratch = std::env::temp_dir().join(format!("dpsyn-serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir creates");
    let socket = scratch.join("explore.sock");
    let store = scratch.join("store.txt");
    let _ = std::fs::remove_file(&store);
    let mut config = ServeConfig::new(socket.clone());
    config.store_path = Some(store.clone());
    let server = std::thread::spawn(move || serve(&config));

    // The smoke matrix as a protocol request (single-threaded for a fixed job
    // order; determinism across thread counts is `--smoke`'s job).
    let request = concat!(
        r#"{"sources":[{"design":"x_squared"},{"design":"mixed_poly"},{"sum":3}],"#,
        r#""widths":[4],"skews":["keep",2.0],"#,
        r#""flows":["conventional","csa_opt","fa_aot","fa_alp"],"seed":7,"threads":1}"#,
        "\n"
    );
    let reference = explore(&smoke_spec().threads(1).build().expect("smoke spec"))
        .expect("batch smoke run succeeds")
        .render_summary();

    let connect = || -> UnixStream {
        // The server binds asynchronously; retry briefly.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&socket) {
                Ok(stream) => return stream,
                Err(error) if Instant::now() < deadline => {
                    let _ = error;
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(error) => panic!("cannot connect to serve socket: {error}"),
            }
        }
    };
    let read_response = |stream: &mut UnixStream| -> ServeResponse {
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("response line arrives");
        ServeResponse::parse(&line).expect("response parses")
    };

    // Request 1: cold — populates the shared store.
    let mut first = connect();
    first.write_all(request.as_bytes()).expect("request sends");
    let cold = read_response(&mut first);
    assert!(cold.ok, "cold request failed: {}", cold.error);
    assert_eq!(
        cold.summary, reference,
        "cold summary must match batch mode"
    );
    drop(first);

    // Requests 2 and 3: two *overlapping* connections — both written before
    // either response is read, so the server handles them concurrently against
    // the warmed store.
    let mut second = connect();
    let mut third = connect();
    second.write_all(request.as_bytes()).expect("request sends");
    third.write_all(request.as_bytes()).expect("request sends");
    for (label, stream) in [("second", &mut second), ("third", &mut third)] {
        let warm = read_response(stream);
        assert!(warm.ok, "{label} request failed: {}", warm.error);
        assert_eq!(
            warm.summary, reference,
            "{label} (warm) summary must be byte-identical to batch mode"
        );
        assert!(
            warm.store_hits > 0,
            "{label} request saw no warm store hits (jobs={}, hits={})",
            warm.jobs,
            warm.store_hits
        );
        eprintln!(
            "serve smoke: {label} request {} jobs, {} warm hit(s)",
            warm.jobs, warm.store_hits
        );
    }
    drop(second);
    drop(third);

    // Request 4: the smoke matrix with simulated switching activity. The stimulus
    // digest keys it apart from the analytic entries (no warm hits), and the
    // summary gains the simulated columns — byte-identical to batch mode.
    let sim_request = concat!(
        r#"{"sources":[{"design":"x_squared"},{"design":"mixed_poly"},{"sum":3}],"#,
        r#""widths":[4],"skews":["keep",2.0],"#,
        r#""flows":["conventional","csa_opt","fa_aot","fa_alp"],"seed":7,"threads":1,"#,
        r#""sim_activity":{"seed":11,"vectors":256}}"#,
        "\n"
    );
    let sim_reference = explore(
        &smoke_spec()
            .threads(1)
            .sim_activity(SimActivity {
                seed: 11,
                vectors: 256,
            })
            .build()
            .expect("sim smoke spec"),
    )
    .expect("batch sim smoke run succeeds")
    .render_summary();
    let mut simulated = connect();
    simulated
        .write_all(sim_request.as_bytes())
        .expect("sim request sends");
    let sim = read_response(&mut simulated);
    assert!(sim.ok, "sim request failed: {}", sim.error);
    assert_eq!(
        sim.summary, sim_reference,
        "sim summary must match batch mode"
    );
    assert!(
        sim.summary.contains("sim mW") && sim.summary.contains("div%"),
        "sim summary must carry the simulated columns"
    );
    assert_eq!(
        sim.store_hits, 0,
        "a simulated request must never be served from analytic store entries"
    );
    drop(simulated);
    eprintln!("serve smoke: simulated-activity request carries the sim columns");

    // Request 5: a malformed `sim_activity` must be rejected with its typed error,
    // not explored analytically.
    let malformed_request = concat!(
        r#"{"sources":[{"design":"x_squared"}],"flows":["conventional"],"#,
        r#""sim_activity":{"seed":11}}"#,
        "\n"
    );
    let mut malformed = connect();
    malformed
        .write_all(malformed_request.as_bytes())
        .expect("malformed request sends");
    let rejected = read_response(&mut malformed);
    assert!(!rejected.ok, "a seed-only sim_activity must be rejected");
    assert!(
        rejected.error.contains("requires a `vectors` count"),
        "unexpected rejection reason: {}",
        rejected.error
    );
    drop(malformed);
    eprintln!(
        "serve smoke: malformed sim_activity rejected ({})",
        rejected.error
    );

    // Request 6: the admission/health status — hit-rate, in-flight and store
    // counters must be answered and coherent with the sweeps above.
    let mut statusline = connect();
    statusline
        .write_all(b"{\"status\":{}}\n")
        .expect("status request sends");
    let status_response = read_response(&mut statusline);
    assert!(status_response.ok, "status must answer");
    let status = status_response.status.expect("status payload present");
    assert!(
        status.completed >= 4,
        "at least the four sweeps completed (got {})",
        status.completed
    );
    assert!(
        status.hit_rate > 0.0,
        "warm sweeps must have produced a positive store hit-rate"
    );
    assert_eq!(status.store, "ok", "the healthy store reports ok");
    assert!(status.records > 0, "the store holds the smoke records");
    assert_eq!(status.in_flight, 0, "no sweep is executing now");
    drop(statusline);
    eprintln!(
        "serve smoke: status answered ({} completed, hit-rate {:.3}, store {})",
        status.completed, status.hit_rate, status.store
    );

    // Graceful shutdown: acknowledged, server thread exits, socket file removed.
    let mut closer = connect();
    closer
        .write_all(b"{\"shutdown\":true}\n")
        .expect("shutdown sends");
    let ack = read_response(&mut closer);
    assert!(ack.ok && ack.shutdown, "shutdown must be acknowledged");
    drop(closer);
    server
        .join()
        .expect("server thread joins")
        .expect("server exits cleanly");
    assert!(!socket.exists(), "socket file must be removed on shutdown");
    assert!(store.exists(), "store must persist across server shutdown");
    serve_smoke_degraded(&scratch, &store, connect, read_response);
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!("serve smoke OK: overlapping warm requests byte-identical to batch mode");
}

/// Second phase of the serve smoke: a server whose store is *unavailable* (a
/// permanent injected read+write outage) must keep answering — degraded, flagged
/// as such in both the sweep response and the status — and still shut down
/// cleanly. This is the degrade-don't-die contract, driven end to end.
#[cfg(unix)]
fn serve_smoke_degraded(
    scratch: &std::path::Path,
    store: &std::path::Path,
    connect: impl Fn() -> std::os::unix::net::UnixStream,
    read_response: impl Fn(&mut std::os::unix::net::UnixStream) -> dpsyn_explore::ServeResponse,
) {
    use dpsyn_explore::faults::FaultPlan;
    use dpsyn_explore::{serve, ServeConfig};
    use std::io::Write;

    let socket = scratch.join("explore.sock");
    let mut config = ServeConfig::new(socket.clone());
    config.store_path = Some(store.to_path_buf());
    config.faults = Some(
        FaultPlan::builder()
            .store_read_outage(1, u64::MAX)
            .store_write_outage(1, u64::MAX)
            .build(),
    );
    let server = std::thread::spawn(move || serve(&config));

    let request = concat!(
        r#"{"sources":[{"design":"x_squared"}],"flows":["conventional","fa_aot"],"#,
        r#""seed":7,"threads":1}"#,
        "\n"
    );
    let mut stream = connect();
    stream.write_all(request.as_bytes()).expect("request sends");
    let degraded = read_response(&mut stream);
    assert!(
        degraded.ok,
        "a store outage must not fail the sweep: {}",
        degraded.error
    );
    assert_eq!(degraded.points, 2, "the sweep computed through");
    assert_eq!(
        degraded.store, "degraded",
        "the response must flag the degraded store"
    );
    assert_eq!(
        degraded.store_hits, 0,
        "an unloadable store cannot serve warm hits"
    );
    drop(stream);

    let mut statusline = connect();
    statusline
        .write_all(b"{\"status\":{}}\n")
        .expect("status request sends");
    let status = read_response(&mut statusline)
        .status
        .expect("degraded server still answers status");
    assert_eq!(status.store, "degraded");
    assert_eq!(status.completed, 1);
    assert_eq!(
        status.hit_rate, 0.0,
        "nothing was loaded from the unavailable file, so no hit can be warm"
    );
    assert!(
        status.records > 0,
        "the computed-through records are held in memory awaiting a flush"
    );
    drop(statusline);

    let mut closer = connect();
    closer
        .write_all(b"{\"shutdown\":true}\n")
        .expect("shutdown sends");
    let ack = read_response(&mut closer);
    assert!(
        ack.ok && ack.shutdown,
        "degraded server still acknowledges shutdown"
    );
    drop(closer);
    server
        .join()
        .expect("degraded server thread joins")
        .expect("degraded server exits cleanly despite the failing final flush");
    eprintln!("serve smoke: store-outage phase served degraded and shut down cleanly");
}

#[cfg(not(unix))]
fn serve_smoke() {
    eprintln!("--serve-smoke requires Unix domain sockets; skipping");
}
