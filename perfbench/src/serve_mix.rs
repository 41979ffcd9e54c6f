//! `serve_mix`: an in-process session server on a unix socket (2 workers,
//! 1 thread per job, a cache budget below the working set) driven by two
//! persistent closed-loop clients. Each client sends its next request
//! only after the previous reply. The seed draws the request pool and
//! both clients' skewed scripts.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mnsim_core::cache::Artifact;
use mnsim_core::dse::{Constraints, DesignSpace, DseResult};
use mnsim_core::report::report_json;
use mnsim_core::simulate::Report;
use mnsim_core::Simulator;
use mnsim_obs::trace;
use mnsim_obs::{parse_json, BucketCount, HistogramSnapshot, JsonValue, MetricsSnapshot};
use mnsim_serve::protocol::{self, interconnects_from_nm, ConfigSpec, Op, Request};
use mnsim_serve::server::{serve, ServeOptions};

use crate::layers::{self, TracedUnit};
use crate::output::{LoopCost, Outcome};
use crate::rng::SplitMix64;
use crate::stats::{median, ratio, Tally};
use crate::{probe, OpTimes, RunArgs};

/// Distinct `simulate` requests in the pool (half MLP shorthand, half
/// Table-I text).
pub const SIMULATE_POOL: usize = 40;
/// Distinct `dse` sweeps in the pool.
pub const DSE_POOL: usize = 6;
/// Share of requests that are `dse` sweeps.
pub const DSE_SHARE: f64 = 0.2;
/// Zipf exponent of the popularity skew.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Cache budget as a share of the pool's total artifact bytes.
pub const BUDGET_SHARE: f64 = 0.4;
/// Closed-loop clients (connections).
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Requests per client sent during set-up's warm-up.
pub const WARMUP_PER_CLIENT: usize = 100;
/// Requests per client in the traced block.
pub const TRACED_PER_CLIENT: usize = 500;
/// Length of one round of the timed loop, seconds.
pub const ROUND_S: f64 = 0.5;
/// Script lines timed through `protocol::parse_request`.
const PARSE_SAMPLE_LINES: usize = 2000;

/// One distinct request of the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolItem {
    /// The request's JSON members after `"id"` (op and its arguments).
    pub body: String,
    /// `true` for a `dse` sweep, `false` for `simulate`.
    pub dse: bool,
}

impl PoolItem {
    /// The full request line with request id `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"type\":\"request\",\"id\":{id},{}}}", self.body)
    }
}

/// The seeded request pool: distinct `simulate` configs first, then the
/// `dse` sweeps. Within each kind the order is the popularity rank.
pub fn pool(seed: u64) -> Vec<PoolItem> {
    let mut rng = SplitMix64::new(seed, 0);
    let dims = [128usize, 256, 384, 512, 768, 1024];
    let mut seen = HashSet::new();
    let mut items = Vec::new();
    while items.len() < SIMULATE_POOL {
        let layers = 3 + rng.below(3);
        let sizes: Vec<usize> = (0..layers).map(|_| rng.pick(&dims)).collect();
        let body = if items.len() % 2 == 0 {
            format!("\"op\":\"simulate\",\"mlp\":{sizes:?}")
        } else {
            let scale: Vec<String> = sizes
                .windows(2)
                .map(|w| format!("{}x{}", w[0], w[1]))
                .collect();
            let text = format!(
                "Network_Scale = {}\\nCrossbar_Size = {}\\nParallelism_Degree = {}\\n\
                 Interconnect_Tech = {}\\nCMOS_Tech = {}\\n",
                scale.join(", "),
                rng.pick(&[32, 64, 128, 256]),
                rng.pick(&[1, 2, 4, 8]),
                rng.pick(&[18, 22, 28, 36, 45]),
                rng.pick(&[22, 32, 45, 65, 90]),
            );
            format!("\"op\":\"simulate\",\"config\":\"{text}\"")
        };
        if seen.insert(body.clone()) {
            items.push(PoolItem { body, dse: false });
        }
    }
    while items.len() < SIMULATE_POOL + DSE_POOL {
        let sizes = [rng.pick(&dims), rng.pick(&dims)];
        let body = format!(
            "\"op\":\"dse\",\"mlp\":{sizes:?},\"crossbar_sizes\":[16,32,64,128,256],\
             \"parallelism\":[1,2,4,8],\"interconnects_nm\":[18,22,28,36]"
        );
        if seen.insert(body.clone()) {
            items.push(PoolItem { body, dse: true });
        }
    }
    items
}

/// Zipf sampler over ranks `0..n`.
#[derive(Debug, Clone)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(ZIPF_EXPONENT);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One client's endless, seeded request script: pool indices.
#[derive(Debug, Clone)]
pub struct Script {
    rng: SplitMix64,
    simulate: Zipf,
    dse: Zipf,
}

impl Script {
    /// The script of client `client` for `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        Script {
            rng: SplitMix64::new(seed, 1 + client as u64),
            simulate: Zipf::new(SIMULATE_POOL),
            dse: Zipf::new(DSE_POOL),
        }
    }

    /// The next request's pool index.
    pub fn next_index(&mut self) -> usize {
        if self.rng.next_f64() < DSE_SHARE {
            SIMULATE_POOL + self.dse.sample(&mut self.rng)
        } else {
            self.simulate.sample(&mut self.rng)
        }
    }
}

/// The wire `result` of a simulate response (see `mnsim-serve`'s
/// protocol: `{"report":<report json>}`).
pub fn simulate_result(report: &Report) -> String {
    format!("{{\"report\":{}}}", report_json(report))
}

/// The wire `result` of a dse response:
/// `{"evaluated":N,"feasible":[<report json>…]}`.
pub fn dse_result(result: &DseResult) -> String {
    let feasible: Vec<String> = result
        .feasible
        .iter()
        .map(|p| report_json(&p.report))
        .collect();
    format!(
        "{{\"evaluated\":{},\"feasible\":[{}]}}",
        result.evaluated,
        feasible.join(",")
    )
}

/// An evaluated pool item: the expected wire result and its artifact.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Expected `result` bytes.
    pub result: String,
    /// The artifact the server caches for this request.
    pub artifact: Artifact,
}

/// A pool item parsed through the program's own protocol parser, ready
/// to evaluate in process.
#[derive(Debug, Clone)]
pub enum Job {
    /// A behaviour-level simulation.
    Simulate(Simulator),
    /// A design-space sweep.
    Dse(Simulator, DesignSpace, Constraints),
}

impl Job {
    /// Parses `item`.
    pub fn parse(item: &PoolItem) -> Option<Job> {
        let Ok(Request::Submit { op, .. }) = protocol::parse_request(&item.line(0)) else {
            return None;
        };
        let simulator = |config: ConfigSpec| Some(Simulator::new(config.build().ok()?).threads(1));
        match op {
            Op::Simulate {
                config,
                faults: None,
            } => Some(Job::Simulate(simulator(config)?)),
            Op::Dse {
                config,
                crossbar_sizes,
                parallelism,
                interconnects_nm,
                max_crossbar_error,
            } => {
                let space = DesignSpace {
                    crossbar_sizes,
                    parallelism_degrees: parallelism,
                    interconnects: interconnects_from_nm(&interconnects_nm).ok()?,
                };
                let constraints = Constraints {
                    max_crossbar_error,
                    max_area_mm2: None,
                    max_power_w: None,
                };
                Some(Job::Dse(simulator(config)?, space, constraints))
            }
            _ => None,
        }
    }

    /// Evaluates the job through a fresh (uncached) `Session`.
    pub fn artifact(&self) -> Option<Artifact> {
        match self {
            Job::Simulate(sim) => Some(Artifact::Report(sim.clone().into_session().run().ok()?)),
            Job::Dse(sim, space, constraints) => Some(Artifact::DseFront(
                sim.clone()
                    .into_session()
                    .explore(space, constraints)
                    .ok()?,
            )),
        }
    }
}

/// Evaluates one pool item in process: the reference the server's
/// response must match byte for byte.
pub fn evaluate(item: &PoolItem) -> Option<Reference> {
    let artifact = Job::parse(item)?.artifact()?;
    let result = match &artifact {
        Artifact::Report(report) => simulate_result(report),
        Artifact::DseFront(result) => dse_result(result),
        _ => return None,
    };
    Some(Reference { result, artifact })
}

/// A lean closed-loop client: one persistent connection, one request in
/// flight.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// One answered request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send → response latency, seconds.
    pub latency_s: f64,
    /// `true` for a dse sweep.
    pub dse: bool,
    /// The response's `cache` field.
    pub cache: CacheTag,
    /// Event lines streamed before the response.
    pub events: u32,
    /// Response `ok` and `result` byte-identical to the reference.
    pub correct: bool,
}

/// The response's `cache` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTag {
    /// Served from the artifact cache.
    Hit,
    /// Evaluated for this request.
    Miss,
    /// Joined another client's in-flight evaluation.
    Shared,
    /// Anything else (errors included).
    Other,
}

impl Conn {
    /// Connects and completes the handshake, retrying while the server
    /// boots (up to ~10 s).
    pub fn connect(path: &str) -> Option<Conn> {
        let mut stream = None;
        for _ in 0..400 {
            if let Ok(s) = UnixStream::connect(path) {
                stream = Some(s);
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let stream = stream?;
        // A server that stops answering fails the request instead of
        // hanging the run.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .ok()?;
        let writer = stream.try_clone().ok()?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        conn.send(&protocol::hello_line())?;
        conn.recv()?
            .starts_with("{\"type\":\"hello_ok\"")
            .then_some(conn)
    }

    fn send(&mut self, line: &str) -> Option<()> {
        writeln!(self.writer, "{line}").ok()?;
        self.writer.flush().ok()
    }

    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).ok()?;
        if n == 0 {
            return None;
        }
        line.truncate(line.trim_end().len());
        Some(line)
    }

    /// Sends `line` and reads until its response; returns the response
    /// line, the event count and the latency.
    pub fn call(&mut self, line: &str) -> Option<(String, u32, f64)> {
        let start = Instant::now();
        self.send(line)?;
        let mut events = 0;
        loop {
            let reply = self.recv()?;
            if reply.starts_with("{\"type\":\"response\"") {
                return Some((reply, events, start.elapsed().as_secs_f64()));
            }
            events += 1;
        }
    }
}

/// Splits a response line into its `cache` tag and `result` bytes.
pub fn parse_response(line: &str, id: u64) -> (CacheTag, Option<&str>) {
    let prefix = format!("{{\"type\":\"response\",\"id\":{id},\"ok\":true,\"cache\":\"");
    let Some(rest) = line.strip_prefix(&prefix) else {
        return (CacheTag::Other, None);
    };
    let tag = match rest.split('"').next() {
        Some("hit") => CacheTag::Hit,
        Some("miss") => CacheTag::Miss,
        Some("shared") => CacheTag::Shared,
        _ => CacheTag::Other,
    };
    let result = rest
        .find(",\"result\":")
        .and_then(|at| rest[at + 10..].strip_suffix('}'));
    (tag, result)
}

/// One client's script state: connection, script and next request id.
struct Client {
    conn: Conn,
    script: Script,
    next_id: u64,
}

impl Client {
    /// Sends the script's next request and checks the reply.
    fn step(&mut self, pool: &[PoolItem], expected: &[String]) -> Sample {
        let index = self.script.next_index();
        let id = self.next_id;
        self.next_id += 1;
        match self.conn.call(&pool[index].line(id)) {
            Some((reply, events, latency_s)) => {
                let (cache, result) = parse_response(&reply, id);
                Sample {
                    latency_s,
                    dse: pool[index].dse,
                    cache,
                    events,
                    correct: result == Some(expected[index].as_str()),
                }
            }
            None => Sample {
                latency_s: 0.0,
                dse: pool[index].dse,
                cache: CacheTag::Other,
                events: 0,
                correct: false,
            },
        }
    }
}

/// Latency samples each client keeps: a uniform reservoir, so the
/// benchmark's own memory (part of `peak_rss_mb`) does not grow with the
/// number of requests the host manages to serve.
pub const RESERVOIR_PER_CLIENT: usize = 10_000;

/// What the clients saw: a uniform sample of the answered requests, plus
/// exact totals over all of them.
#[derive(Debug, Clone)]
pub struct Tape {
    /// Uniform sample of at most `RESERVOIR_PER_CLIENT` requests per
    /// client.
    pub samples: Vec<Sample>,
    /// Every request: attempted, and failed or wrong.
    pub tally: Tally,
    /// Event lines streamed over every request.
    pub events: u64,
    /// Samples offered to the reservoir so far.
    seen: u64,
    rng: SplitMix64,
}

impl Tape {
    fn new(stream: u64) -> Self {
        Tape {
            samples: Vec::with_capacity(RESERVOIR_PER_CLIENT),
            tally: Tally::default(),
            events: 0,
            seen: 0,
            rng: SplitMix64::new(stream, 0x7a9e),
        }
    }

    /// Records one answered request.
    fn push(&mut self, sample: Sample) {
        self.tally.record(sample.correct);
        self.events += u64::from(sample.events);
        self.keep(sample);
    }

    /// Offers one sample to the reservoir (algorithm R).
    fn keep(&mut self, sample: Sample) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR_PER_CLIENT {
            self.samples.push(sample);
        } else {
            let slot = self.rng.below(self.seen as usize);
            if slot < RESERVOIR_PER_CLIENT {
                self.samples[slot] = sample;
            }
        }
    }

    /// Adds a later round's requests: its totals, and its samples through
    /// this tape's reservoir.
    fn absorb(&mut self, round: Tape) {
        self.tally.merge(round.tally);
        self.events += round.events;
        for sample in round.samples {
            self.keep(sample);
        }
    }

    fn append(&mut self, other: Tape) {
        self.samples.extend(other.samples);
        self.tally.merge(other.tally);
        self.events += other.events;
    }
}

/// Runs every client for `per_client` requests, or until `deadline` when
/// given, in parallel. Returns the clients and what they saw.
fn drive(
    clients: Vec<Client>,
    pool: &Arc<Vec<PoolItem>>,
    expected: &Arc<Vec<String>>,
    per_client: usize,
    deadline: Option<Instant>,
) -> (Vec<Client>, Tape) {
    let handles: Vec<JoinHandle<(Client, Tape)>> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            let pool = Arc::clone(pool);
            let expected = Arc::clone(expected);
            std::thread::spawn(move || {
                let mut tape = Tape::new(i as u64);
                loop {
                    let done = match deadline {
                        Some(d) => Instant::now() >= d,
                        None => tape.tally.attempted >= per_client as u64,
                    };
                    if done {
                        break;
                    }
                    tape.push(client.step(&pool, &expected));
                }
                (client, tape)
            })
        })
        .collect();
    let mut clients = Vec::new();
    let mut tape = Tape::new(0);
    for handle in handles {
        let (client, t) = handle.join().expect("client thread");
        clients.push(client);
        tape.append(t);
    }
    (clients, tape)
}

/// A booted server, its warmed-up clients and the pool's references.
struct Setup {
    pool: Arc<Vec<PoolItem>>,
    expected: Arc<Vec<String>>,
    references: Vec<Reference>,
    clients: Vec<Client>,
    server: Server,
    warmup: Tape,
    boot: Instant,
}

/// A running in-process server.
struct Server {
    socket: String,
    metrics_path: Option<String>,
    thread: JoinHandle<Result<(), String>>,
}

impl Server {
    fn start(budget: usize, metrics: bool) -> Server {
        // One name per server instance, so a stop can never reach a
        // successor bound to the same path.
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "perfbench-serve-{}-{}",
            std::process::id(),
            INSTANCE.fetch_add(1, Ordering::Relaxed)
        );
        let socket = format!("{name}.sock");
        let metrics_path = metrics.then(|| format!("{name}.metrics.json"));
        let options = ServeOptions {
            socket: Some(socket.clone()),
            workers: WORKERS,
            cache_bytes: budget,
            threads_per_job: 1,
            metrics_path: metrics_path.clone(),
            ..ServeOptions::default()
        };
        let thread = std::thread::spawn(move || serve(options));
        Server {
            socket,
            metrics_path,
            thread,
        }
    }

    /// Asks the server to stop and waits for it. Returns whether it shut
    /// down cleanly and the metrics snapshot it wrote, if asked to; every
    /// file it left is removed.
    fn stop(self) -> (bool, Option<MetricsSnapshot>) {
        if let Some(mut control) = Conn::connect(&self.socket) {
            let _ = control.send("{\"type\":\"shutdown\"}");
        }
        let clean = matches!(self.thread.join(), Ok(Ok(())));
        let _ = std::fs::remove_file(&self.socket);
        let snapshot = self.metrics_path.and_then(|path| {
            let text = std::fs::read_to_string(&path).ok();
            let _ = std::fs::remove_file(&path);
            text.and_then(|t| snapshot_from_json(&t))
        });
        (clean, snapshot)
    }
}

fn setup(seed: u64, metrics: bool) -> Option<Setup> {
    let pool = pool(seed);
    let references: Vec<Reference> = pool.iter().map(evaluate).collect::<Option<_>>()?;
    let working_set: usize = references.iter().map(|r| r.artifact.approx_bytes()).sum();
    let budget = (working_set as f64 * BUDGET_SHARE) as usize;
    let expected = Arc::new(
        references
            .iter()
            .map(|r| r.result.clone())
            .collect::<Vec<_>>(),
    );
    let pool = Arc::new(pool);
    let boot = Instant::now();
    let server = Server::start(budget, metrics);
    let clients: Option<Vec<Client>> = (0..CLIENTS)
        .map(|client| {
            Some(Client {
                conn: Conn::connect(&server.socket)?,
                script: Script::new(seed, client),
                next_id: 1,
            })
        })
        .collect();
    let Some(clients) = clients else {
        let _ = server.stop();
        return None;
    };
    let (clients, warmup) = drive(clients, &pool, &expected, WARMUP_PER_CLIENT, None);
    Some(Setup {
        pool,
        expected,
        references,
        clients,
        server,
        warmup,
        boot,
    })
}

/// Runs the workload.
pub fn run(args: &RunArgs, setup_reps: usize) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, ready) = crate::repeat_setup(
        setup_reps,
        || setup(args.seed, args.trace),
        |discarded| {
            if let Some(s) = discarded {
                drop(s.clients);
                let _ = s.server.stop();
            }
        },
    );
    let Some(setup) = ready else {
        out.tally.record(false);
        return out;
    };
    out.tally.merge(setup.warmup.tally);

    // The timed loop, in rounds of ROUND_S: each round's median latency
    // and CPU per request are the samples of the gated percentiles.
    let loop_start = Instant::now();
    let mut clients = setup.clients;
    let mut tape = Tape::new(u64::MAX);
    let mut rounds = OpTimes::default();
    let mut cost = LoopCost::default();
    let mut round_end = loop_start;
    while round_end < loop_start + Duration::from_secs_f64(args.seconds) {
        round_end = Instant::now() + Duration::from_secs_f64(ROUND_S);
        let ((next, round), round_cost) =
            LoopCost::measure(|| drive(clients, &setup.pool, &setup.expected, 0, Some(round_end)));
        clients = next;
        let latencies: Vec<f64> = round.samples.iter().map(|s| s.latency_s).collect();
        rounds.wall_s.push(median(&latencies));
        rounds
            .cpu_s
            .push(ratio(round_cost.cpu_s, round.tally.attempted as f64));
        cost.add(round_cost);
        tape.absorb(round);
        rounds.probes.run_for(probe::SHARE * ROUND_S, WORKERS);
    }
    out.tally.merge(tape.tally);
    let latencies: Vec<f64> = tape.samples.iter().map(|s| s.latency_s).collect();
    out.set_timings(setup_s, &rounds, &latencies, tape.tally.attempted, &cost);
    let ops_per_s = out.get("ops_per_s");

    if !args.trace {
        drop(clients);
        out.tally.record(setup.server.stop().0);
        return out;
    }

    // The traced block: the same clients, the next TRACED_PER_CLIENT
    // requests each, under a trace session.
    let tracing = trace::session();
    let block_start = Instant::now();
    let (clients, block) = drive(
        clients,
        &setup.pool,
        &setup.expected,
        TRACED_PER_CLIENT,
        None,
    );
    let block_s = block_start.elapsed().as_secs_f64();
    out.tally.merge(block.tally);
    drop(clients);
    let stats = Conn::connect(&setup.server.socket).and_then(|mut c| stats(&mut c));
    out.tally.record(stats.is_some());
    let life_s = setup.boot.elapsed().as_secs_f64();
    let (clean, snapshot) = setup.server.stop();
    out.tally.record(clean && snapshot.is_some());
    // Server workers flush their trace buffers when they exit.
    let trace = tracing.finish();
    let snapshot = snapshot.unwrap_or_default();

    let life = TracedUnit {
        wall_s: life_s,
        untraced_s: life_s,
        threads: WORKERS as f64,
        untraced_circuit_s: 0.0,
    };
    layers::circuit(&mut out, &snapshot, &life);
    layers::fault_and_exec(&mut out, &snapshot, &life);
    layers::simulate_counts(&mut out, &snapshot);
    let block_unit = TracedUnit {
        wall_s: block_s,
        untraced_s: ratio((CLIENTS * TRACED_PER_CLIENT) as f64, ops_per_s),
        threads: WORKERS as f64,
        untraced_circuit_s: 0.0,
    };
    layers::obs_and_residual(&mut out, &trace, &block_unit);
    if let Some(stats) = &stats {
        for (metric, key) in [
            ("cache.hits", "cache.hits"),
            ("cache.misses", "cache.misses"),
            ("cache.inserts", "cache.insertions"),
            ("cache.evictions", "cache.evictions"),
            ("cache.bytes", "cache.bytes"),
            ("serve.requests", "server.requests"),
            ("serve.jobs_completed", "server.jobs_completed"),
            ("serve.dedup_joined", "server.dedup_joined"),
            (
                "serve.backpressure_rejected",
                "server.backpressure_rejected",
            ),
        ] {
            out.set(metric, stats.get(key).copied().unwrap_or(0.0));
        }
        out.set(
            "cache.hit_ratio",
            ratio(
                out.get("cache.hits"),
                out.get("cache.hits") + out.get("cache.misses"),
            ),
        );
    }
    client_side(&mut out, &tape);
    bench_timed(
        &mut out,
        &setup.pool,
        &setup.references,
        &clients_lines(args.seed, &setup.pool),
    );
    out.set(
        "serve.unattributed_ms",
        out.get("serve.miss_p50_ms")
            - (out.get("core.simulate_us")
                + out.get("serve.parse_us")
                + out.get("serve.serialize_us"))
                / 1e3,
    );
    out.set("error_rate", out.tally.error_rate());
    out
}

/// Client-observed splits of the timed loop: simulate hits vs misses and
/// streamed events per request.
fn client_side(out: &mut Outcome, tape: &Tape) {
    let simulate_ms = |tag: CacheTag| -> Vec<f64> {
        tape.samples
            .iter()
            .filter(|s| !s.dse && s.cache == tag)
            .map(|s| s.latency_s * 1e3)
            .collect()
    };
    out.set("serve.hit_p50_ms", median(&simulate_ms(CacheTag::Hit)));
    out.set("serve.miss_p50_ms", median(&simulate_ms(CacheTag::Miss)));
    out.set(
        "serve.events_per_request",
        ratio(tape.events as f64, tape.tally.attempted as f64),
    );
}

/// The first script lines of both clients (what the server parses).
fn clients_lines(seed: u64, pool: &[PoolItem]) -> Vec<String> {
    (0..CLIENTS)
        .flat_map(|client| {
            let mut script = Script::new(seed, client);
            (1..=PARSE_SAMPLE_LINES / CLIENTS)
                .map(move |id| (script.next_index(), id as u64))
                .collect::<Vec<_>>()
        })
        .map(|(index, id)| pool[index].line(id))
        .collect()
}

/// Layer calls the benchmark times itself: uncached simulate and DSE
/// evaluation, request parsing and response serialization. Each is the
/// median of three passes.
fn bench_timed(out: &mut Outcome, pool: &[PoolItem], references: &[Reference], lines: &[String]) {
    let pass = |f: &mut dyn FnMut() -> f64| median(&[f(), f(), f()]);
    let jobs: Vec<Job> = pool.iter().filter_map(Job::parse).collect();
    let (simulate, dse): (Vec<&Job>, Vec<&Job>) =
        jobs.iter().partition(|job| matches!(job, Job::Simulate(_)));
    let time_jobs = |jobs: &[&Job]| {
        pass(&mut || {
            let start = Instant::now();
            for job in jobs {
                std::hint::black_box(job.artifact());
            }
            start.elapsed().as_secs_f64() * 1e6
        })
    };
    let simulate_us = time_jobs(&simulate);
    let dse_us = time_jobs(&dse);
    let points: usize = references
        .iter()
        .filter_map(|r| match &r.artifact {
            Artifact::DseFront(result) => Some(result.evaluated),
            _ => None,
        })
        .sum();
    out.set(
        "core.simulate_us",
        ratio(simulate_us, simulate.len() as f64),
    );
    out.set("core.dse_point_us", ratio(dse_us, points as f64));
    out.set(
        "serve.parse_us",
        pass(&mut || {
            let start = Instant::now();
            for line in lines {
                let _ = std::hint::black_box(protocol::parse_request(line));
            }
            start.elapsed().as_secs_f64() * 1e6 / lines.len() as f64
        }),
    );
    let reports: Vec<&Report> = references
        .iter()
        .filter_map(|r| match &r.artifact {
            Artifact::Report(report) => Some(report.as_ref()),
            _ => None,
        })
        .collect();
    out.set(
        "serve.serialize_us",
        pass(&mut || {
            let start = Instant::now();
            for (id, report) in reports.iter().enumerate() {
                let result = simulate_result(report);
                std::hint::black_box(protocol::response_line(id as u64, "miss", Some(7), &result));
            }
            start.elapsed().as_secs_f64() * 1e6 / reports.len() as f64
        }),
    );
}

/// The server's `stats` op, flattened to `section.key → value`.
fn stats(conn: &mut Conn) -> Option<BTreeMap<String, f64>> {
    let (reply, _, _) = conn.call("{\"type\":\"request\",\"id\":0,\"op\":\"stats\"}")?;
    let value = parse_json(&reply).ok()?;
    let mut flat = BTreeMap::new();
    for section in ["cache", "server"] {
        for (key, v) in value.get("result")?.get(section)?.as_object()? {
            flat.insert(format!("{section}.{key}"), v.as_f64()?);
        }
    }
    Some(flat)
}

/// Rebuilds a [`MetricsSnapshot`] from the JSON the server writes at
/// shutdown.
pub fn snapshot_from_json(text: &str) -> Option<MetricsSnapshot> {
    let value = parse_json(text).ok()?;
    let mut snapshot = MetricsSnapshot::default();
    for (name, v) in value.get("counters")?.as_object()? {
        snapshot.counters.insert(name.clone(), v.as_u64()?);
    }
    for (name, v) in value.get("gauges")?.as_object()? {
        snapshot.gauges.insert(name.clone(), v.as_f64()?);
    }
    for (name, h) in value.get("histograms")?.as_object()? {
        let num = |key: &str| h.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let buckets = h
            .get("buckets")?
            .as_array()?
            .iter()
            .map(|b| BucketCount {
                le: b
                    .get("le")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::INFINITY),
                count: b.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
            })
            .collect();
        snapshot.histograms.insert(
            name.clone(),
            HistogramSnapshot {
                unit: h
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                count: h.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
                sum: num("sum"),
                min: num("min"),
                max: num("max"),
                buckets,
            },
        );
    }
    Some(snapshot)
}
