//! The `serve_warm` workload: the in-process `--serve` server on a Unix socket
//! with a file-backed store prefilled by one sweep pass, driven by two closed-loop
//! connections sending small single-design requests, three store hits to one miss.
//!
//! Each round replays one fixed request sequence against a server started on a
//! fresh copy of the prefilled store, so the store grows identically in every
//! round and every run; server start and stop fall outside the measured time.

use crate::batch::{sweep_flows, sweep_seed, sweep_spec, THREADS};
use crate::report::{Metric, Outcome, QorTally};
use crate::stats::{mix, ms_since, peak_rss_mb, percentile, Rng, SetupTimes};
use crate::trace::Tracer;
use dpsyn_baselines::Flow;
use dpsyn_explore::{
    explore, explore_with_stats, serve, BiasProfile, ExplorationSpec, ServeConfig, ServeResponse,
    SkewProfile,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
const CONNECTIONS: usize = 2;
/// Requests each connection sends per round; a multiple of four (3 hits : 1 miss).
const REQUESTS_PER_CONNECTION: usize = 48;
/// Catalog designs the prefill sweep covers (hit requests draw from these).
const PREFILLED: [&str; 4] = ["x2_x_y", "mixed_poly", "iir", "serial_adapter"];
/// Catalog designs absent from the prefill (miss requests draw from these).
const FRESH: [&str; 6] = [
    "x_squared",
    "x_cubed",
    "binomial_square",
    "kalman",
    "idct",
    "complex_mult",
];

/// One generated request: its protocol line and the equivalent batch spec.
pub struct Request {
    pub line: String,
    pub spec: ExplorationSpec,
    pub hit: bool,
}

/// The catalog design a request's `{"design": name}` names, as the server
/// resolves it.
fn catalog(name: &str) -> dpsyn_designs::Design {
    match name {
        "x_squared" => dpsyn_designs::x_squared(),
        "x_cubed" => dpsyn_designs::x_cubed(),
        "x2_x_y" => dpsyn_designs::x2_x_y(),
        "binomial_square" => dpsyn_designs::binomial_square(),
        "mixed_poly" => dpsyn_designs::mixed_poly(),
        "iir" => dpsyn_designs::iir(),
        "kalman" => dpsyn_designs::kalman(),
        "idct" => dpsyn_designs::idct(),
        "complex_mult" => dpsyn_designs::complex_mult(),
        "serial_adapter" => dpsyn_designs::serial_adapter(),
        other => unreachable!("`{other}` is not a catalog design"),
    }
}

fn profile_json(value: Option<f64>) -> String {
    value.map_or_else(|| "\"keep\"".to_string(), |v| format!("{v:?}"))
}

fn flow_json(flow: Flow) -> String {
    match flow {
        Flow::FaRandom(seed) => format!("{{\"fa_random\":{seed}}}"),
        other => format!("\"{}\"", other.name()),
    }
}

/// Builds one request: a catalog design × one skew × one bias × 4–6 flows.
fn request(
    design: &str,
    skew: Option<f64>,
    bias: Option<f64>,
    flows: &[Flow],
    seed: u64,
    hit: bool,
) -> Request {
    let line = format!(
        "{{\"sources\":[{{\"design\":\"{design}\"}}],\"skews\":[{}],\"biases\":[{}],\
         \"flows\":[{}],\"seed\":{seed},\"threads\":1}}\n",
        profile_json(skew),
        profile_json(bias),
        flows
            .iter()
            .map(|f| flow_json(*f))
            .collect::<Vec<_>>()
            .join(",")
    );
    let spec = ExplorationSpec::builder()
        .design(catalog(design))
        .skew(skew.map_or(SkewProfile::Keep, SkewProfile::Uniform))
        .bias(bias.map_or(BiasProfile::Keep, BiasProfile::Uniform))
        .flows(flows.iter().copied())
        .seed(seed)
        .threads(1)
        .build()
        .expect("serve request specs are well-formed");
    Request { line, spec, hit }
}

/// The fixed request sequence of one round, per connection. Every block of four
/// holds exactly one miss at a seed-chosen position. The mix is balanced: every
/// hit design × skew × bias and every miss design × bias appears equally often,
/// and so does every flow subset, so a seed changes order and profiles, not load.
/// Hits reuse the prefill pass's seed and axes; misses use designs and seeds the
/// prefill never saw.
pub fn round_requests(seed: u64) -> Vec<Vec<Request>> {
    const SKEWS: [Option<f64>; 3] = [None, Some(2.0), Some(4.0)];
    const BIASES: [Option<f64>; 2] = [None, Some(0.3)];
    const MISS_BIASES: [Option<f64>; 2] = [None, Some(0.2)];
    let total = CONNECTIONS * REQUESTS_PER_CONNECTION;
    let prefill_seed = sweep_seed(seed, 0);
    let mut rng = Rng::new(seed, 0x5e7e_0001);
    let mut hits: Vec<(&str, Option<f64>, Option<f64>)> = (0..total * 3 / 4)
        .map(|i| {
            let combo = i % (PREFILLED.len() * SKEWS.len() * BIASES.len());
            (
                PREFILLED[combo % PREFILLED.len()],
                SKEWS[combo / PREFILLED.len() % SKEWS.len()],
                BIASES[combo / (PREFILLED.len() * SKEWS.len())],
            )
        })
        .collect();
    let mut misses: Vec<(&str, Option<f64>)> = (0..total / 4)
        .map(|i| {
            let combo = i % (FRESH.len() * MISS_BIASES.len());
            (FRESH[combo % FRESH.len()], MISS_BIASES[combo / FRESH.len()])
        })
        .collect();
    // Flow subsets: bit 0 adds csa_opt, bit 1 adds wallace_fixed.
    let mut hit_flows: Vec<usize> = (0..hits.len()).map(|i| i % 4).collect();
    let mut miss_flows: Vec<usize> = (0..misses.len()).map(|i| i % 4).collect();
    rng.shuffle(&mut hits);
    rng.shuffle(&mut misses);
    rng.shuffle(&mut hit_flows);
    rng.shuffle(&mut miss_flows);
    let flows = |subset: usize, flow_seed: u64| -> Vec<Flow> {
        sweep_flows(flow_seed)
            .into_iter()
            .filter(|flow| match flow {
                Flow::CsaOpt => subset & 1 == 1,
                Flow::WallaceFixed => subset & 2 == 2,
                _ => true,
            })
            .collect()
    };
    let (mut next_hit, mut next_miss) = (0, 0);
    let mut round = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut requests = Vec::with_capacity(REQUESTS_PER_CONNECTION);
        for _ in 0..REQUESTS_PER_CONNECTION / 4 {
            let miss_slot = rng.below(4);
            for slot in 0..4 {
                requests.push(if slot == miss_slot {
                    let (design, bias) = misses[next_miss];
                    let miss_seed = mix(seed, 0x3155_0000 + next_miss as u64) >> 12;
                    let flows = flows(miss_flows[next_miss], prefill_seed);
                    next_miss += 1;
                    request(design, Some(3.0), bias, &flows, miss_seed, false)
                } else {
                    let (design, skew, bias) = hits[next_hit];
                    let flows = flows(hit_flows[next_hit], prefill_seed);
                    next_hit += 1;
                    request(design, skew, bias, &flows, prefill_seed, true)
                });
            }
        }
        round.push(requests);
    }
    round
}

/// A running server on its own thread.
struct Server {
    socket: PathBuf,
    handle: JoinHandle<Result<(), dpsyn_explore::ExploreError>>,
}

impl Server {
    fn start(dir: &Path, store: &Path) -> Server {
        let socket = dir.join("serve.sock");
        let mut config = ServeConfig::new(socket.clone());
        config.store_path = Some(store.to_path_buf());
        let handle = std::thread::spawn(move || serve(&config));
        Server { socket, handle }
    }

    /// Connects, retrying while the server binds.
    fn connect(&self) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return stream,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(error) => panic!("cannot connect to the serve socket: {error}"),
            }
        }
    }

    /// Sends `{"status":{}}` and returns the status.
    fn status(&self) -> dpsyn_explore::ServeStatus {
        let mut client = Client::new(self.connect());
        client
            .send("{\"status\":{}}\n")
            .status
            .expect("status request answers a status")
    }

    /// Shuts the server down and waits for its final flush.
    fn stop(self) {
        Client::new(self.connect()).send("{\"shutdown\":true}\n");
        self.handle
            .join()
            .expect("server thread does not panic")
            .expect("server runs until shutdown");
    }
}

/// One client connection.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
}

impl Client {
    fn new(stream: UnixStream) -> Client {
        let reader = BufReader::new(stream.try_clone().expect("socket clones"));
        Client {
            writer: stream,
            reader,
            line: String::new(),
        }
    }

    fn send(&mut self, request: &str) -> ServeResponse {
        self.line.clear();
        let answered = self.writer.write_all(request.as_bytes()).is_ok()
            && self.reader.read_line(&mut self.line).is_ok_and(|n| n > 0);
        if answered {
            ServeResponse::parse(&self.line).unwrap_or_default()
        } else {
            ServeResponse::default()
        }
    }
}

/// Writes the prefill store (one sweep pass) and returns its bytes.
fn prefill(seed: u64, path: &Path) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let spec = sweep_spec(seed, 0)
        .threads(THREADS)
        .store(path)
        .build()
        .expect("prefill spec is well-formed");
    explore_with_stats(&spec).expect("prefill sweep succeeds");
    std::fs::read(path).expect("prefill store was written")
}

/// What one round measured.
struct RoundResult {
    /// Round-trip latency of every request, per connection in send order.
    latencies_ms: Vec<Vec<f64>>,
    wall_ms: f64,
    points: u64,
    attempted: u64,
    failed: u64,
}

/// Drives one round against a running server: one thread per connection, each a
/// closed loop over its request list.
fn drive_round(server: &Server, round: &[Vec<Request>], references: &[Vec<String>]) -> RoundResult {
    let clients: Vec<Client> = round
        .iter()
        .map(|_| Client::new(server.connect()))
        .collect();
    let start = Instant::now();
    let per_connection: Vec<Vec<(f64, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(round.iter().zip(references))
            .map(|(mut client, (requests, expected))| {
                scope.spawn(move || {
                    requests
                        .iter()
                        .zip(expected)
                        .map(|(request, expected)| {
                            let sent = Instant::now();
                            let response = client.send(&request.line);
                            let latency = ms_since(sent);
                            let ok = response.ok
                                && response.reject.is_empty()
                                && response.summary == *expected;
                            (latency, ok)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread does not panic"))
            .collect()
    });
    let mut result = RoundResult {
        latencies_ms: Vec::new(),
        wall_ms: ms_since(start),
        points: 0,
        attempted: 0,
        failed: 0,
    };
    for (requests, outcomes) in round.iter().zip(per_connection) {
        let mut latencies = Vec::with_capacity(outcomes.len());
        for (request, (latency, ok)) in requests.iter().zip(outcomes) {
            result.attempted += 1;
            if ok {
                result.points += request.spec.jobs().len() as u64;
            } else {
                result.failed += 1;
            }
            latencies.push(latency);
        }
        result.latencies_ms.push(latencies);
    }
    result
}

/// Runs `serve_warm` for `seconds`, traced when `tracer` is set.
pub fn run(seed: u64, seconds: u64, dir: &Path, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut outcome = Outcome::default();
    let prefill_path = dir.join("prefill.store");
    let live_path = dir.join("live.store");

    // Set-up: request build, store prefill, server start and one warm-up request
    // (the server stop that follows is not timed).
    let budget = Duration::from_secs(seconds);
    let setup = || {
        let round = round_requests(seed);
        let prefilled = prefill(seed, &prefill_path);
        std::fs::write(&live_path, &prefilled).expect("live store writes");
        let server = Server::start(dir, &live_path);
        Client::new(server.connect()).send(&round[0][0].line);
        (round, prefilled, server)
    };
    let mut setups = SetupTimes::new(budget);
    let (round, prefilled, server) = setups.time(setup);
    server.stop();

    // Output references: batch runs of the same specs, outside any timing.
    let mut qor = QorTally::default();
    let references: Vec<Vec<String>> = round
        .iter()
        .map(|requests| {
            requests
                .iter()
                .map(|request| {
                    let results = explore(&request.spec).expect("reference run succeeds");
                    qor.add(&results);
                    results.render_summary()
                })
                .collect()
        })
        .collect();
    outcome.qor = qor.finish();

    // Measured rounds; a traced run alternates untraced and traced rounds.
    let start = Instant::now();
    let (mut hits, mut misses, mut wall_ms) = (Vec::new(), Vec::new(), 0.0);
    let mut status;
    let mut rounds = 0u64;
    loop {
        let traced = tracer.is_some() && rounds % 2 == 1;
        std::fs::write(&live_path, &prefilled).expect("live store resets");
        let server = Server::start(dir, &live_path);
        let result = drive_round(&server, &round, &references);
        status = server.status();
        server.stop();
        outcome.attempted += result.attempted;
        // A typed reject reaches its client as a non-`ok` response, which
        // `drive_round` already counts as failed; the status count is traced.
        outcome.failed += result.failed;
        outcome.points += result.points;
        wall_ms += result.wall_ms;
        for (requests, latencies) in round.iter().zip(&result.latencies_ms) {
            for (request, latency) in requests.iter().zip(latencies) {
                if request.hit {
                    hits.push(*latency);
                } else {
                    misses.push(*latency);
                }
            }
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.note_request(traced, result.points, result.wall_ms);
            if traced {
                let rejects =
                    status.rejected_overload + status.rejected_oversized + status.rejected_deadline;
                tracer.replay_serve_round(&round, &prefilled, dir, &result.latencies_ms, rejects);
            }
        }
        rounds += 1;
        if setups.due(start.elapsed()) {
            setups.time(setup).2.stop();
        }
        if start.elapsed() >= budget && (tracer.is_none() || rounds >= 2) {
            break;
        }
    }
    outcome.setup_s = setups.median();
    outcome.measured_s = wall_ms / 1e3;
    outcome.peak_rss_mb = peak_rss_mb();
    let prefill_spec = sweep_spec(seed, 0)
        .threads(1)
        .build()
        .expect("prefill spec");
    let prefill_reference = explore(&prefill_spec).expect("prefill reference run succeeds");
    crate::batch::check_equivalence_sample(
        seed,
        std::slice::from_ref(&prefill_spec),
        std::slice::from_ref(&prefill_reference),
        &mut outcome,
    );

    outcome.latencies_ms = hits.iter().chain(&misses).copied().collect();
    for (name, samples) in [("hit", &hits), ("miss", &misses)] {
        for (q, label) in [(0.5, "p50"), (0.9, "p90")] {
            outcome.notes.push(Metric::new(
                format!("serve_{name}_{label}_ms"),
                percentile(samples, q).unwrap_or(0.0),
                "ms",
            ));
        }
    }
    outcome.notes.push(Metric::new(
        "serve_store_hit_rate",
        status.hit_rate,
        "ratio",
    ));
    outcome.notes.push(Metric::new(
        "serve_store_records",
        status.records as f64,
        "count",
    ));
    outcome
}
