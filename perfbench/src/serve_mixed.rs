//! The open-loop service workload: requests sent on a fixed schedule to an
//! in-process `rfid_bench::serve::Server` over loopback, each timed from
//! when it was due.
//!
//! About 80 % of requests are 9-site sweeps (`fcat`/`scat`/`dfsa` round
//! robin) and 20 % are churn-monitoring windows. Every served stream is
//! checked against an in-process oracle computed during set-up.

use crate::check::{self, monitor_digest, sweep_digest};
use crate::layers;
use crate::stats::{calm_quartile, median, quantile, ratio, Better::*};
use crate::timing::TimingSink;
use crate::{ms, timed_setup, Outcome};
use rfid_anc::{Fcat, FcatConfig, FcatSession, Scat, ScatConfig, SignalResolutionConfig};
use rfid_bench::json::Json;
use rfid_bench::{ServeOptions, Server};
use rfid_protocols::Dfsa;
use rfid_sim::{
    derive_seed, multi_site_inventory_scheduled, multi_site_inventory_sharded_observed,
    run_monitoring, seeded_rng, AntiCollisionProtocol, Deployment, DwellModel, InventoryReport,
    MonitorConfig, MonitorDetectionKind, MonitorReport, MultiSiteReport, PopulationSchedule,
    SimConfig,
};
use rfid_types::population;
use std::hash::{DefaultHasher, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load, requests per second: about half of the two-connection
/// closed-loop capacity (`--calibrate`) measured on a 2-core x86-64 host.
pub const RATE_RPS: f64 = 340.0;

/// Client connections the load generator spreads requests over.
pub const CONNECTIONS: usize = 2;

/// Latency limit of `serve_slo_met_rate`, ms from due time.
pub const SLO_MS: f64 = 25.0;

/// Window (by due time) over which each latency figure is taken before the
/// calm quartile over windows is reported.
const BLOCK_S: f64 = 2.0;

/// Distinct request lines per run; the schedule cycles through them.
const DISTINCT: usize = 10;

/// Sweep shape: tags over a 60 × 60 m region read on a 20 m grid (9 sites).
const SWEEP_TAGS: usize = 2_000;
const REGION_M: f64 = 60.0;
const SPACING_M: f64 = 20.0;

/// Churn shape: tags, mean arrivals per round, mean dwell, rounds, and the
/// server's default audit period.
const CHURN_TAGS: usize = 500;
const CHURN_RATE: f64 = 20.0;
const CHURN_DWELL: f64 = 5.0;
const CHURN_ROUNDS: usize = 8;
const CHURN_AUDIT_EVERY: usize = 4;
/// Stream queue of a churn request, in lines: room for every population
/// and detection event of the window, so a client that reads at full
/// speed never loses one to backpressure and the stream stays checkable.
const CHURN_QUEUE: usize = 4_096;

/// Give up on requests still unanswered this long after the window.
const GRACE: Duration = Duration::from_secs(60);

/// Direct simulator calls per distinct request in a traced run.
const DIRECT_REPEATS: usize = 3;

const MICRO_BUDGET: Duration = Duration::from_millis(100);

/// What a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Sweep { protocol: &'static str },
    Churn,
}

/// One distinct request line and its oracle.
#[derive(Debug)]
pub struct Request {
    pub line: String,
    pub kind: Kind,
    pub seed: u64,
    expect: Expect,
    /// Whether the oracle's digest is the expected one (see
    /// [`check::expected_digest`]); if not, no stream can be correct.
    digest_ok: bool,
}

#[derive(Debug)]
enum Expect {
    Sweep(MultiSiteReport),
    Churn {
        report: MonitorReport,
        arrivals: usize,
        departures: usize,
    },
}

impl Request {
    /// The oracle's inventories: one per site or per round.
    fn reports(&self) -> &[InventoryReport] {
        match &self.expect {
            Expect::Sweep(report) => &report.per_site,
            Expect::Churn { report, .. } => &report.per_round,
        }
    }

    /// Simulated slots the request runs.
    fn slots(&self) -> u64 {
        self.reports().iter().map(|r| r.slots.total()).sum()
    }

    fn digest(&self) -> u64 {
        match &self.expect {
            Expect::Sweep(report) => sweep_digest(report),
            Expect::Churn { report, .. } => monitor_digest(report),
        }
    }
}

/// The distinct request lines of `seed` (same seed, same lines): four in
/// five are sweeps, round-robin over the three protocols.
pub fn request_lines(seed: u64) -> Vec<(String, Kind, u64)> {
    let mut sweeps = 0usize;
    (0..DISTINCT)
        .map(|i| {
            // The wire carries seeds as JSON numbers: keep them exact in f64.
            let s = derive_seed(seed, i as u64) >> 11;
            if i % 5 == 4 {
                let line = format!(
                    "{{\"protocol\":\"fcat\",\"tags\":{CHURN_TAGS},\"churn_rate\":{CHURN_RATE},\
                     \"churn_dwell\":{CHURN_DWELL},\"churn_rounds\":{CHURN_ROUNDS},\
                     \"seed\":{s},\"workers\":1,\"queue_capacity\":{CHURN_QUEUE}}}"
                );
                (line, Kind::Churn, s)
            } else {
                let protocol = ["fcat", "scat", "dfsa"][sweeps % 3];
                sweeps += 1;
                let line = format!(
                    "{{\"protocol\":\"{protocol}\",\"tags\":{SWEEP_TAGS},\"width\":{REGION_M},\
                     \"height\":{REGION_M},\"spacing\":{SPACING_M},\"seed\":{s},\"workers\":1}}"
                );
                (line, Kind::Sweep { protocol }, s)
            }
        })
        .collect()
}

fn sweep_protocol(name: &str) -> Box<dyn AntiCollisionProtocol + Sync> {
    match name {
        "scat" => Box::new(Scat::new(ScatConfig::default().with_lambda(2))),
        "dfsa" => Box::new(Dfsa::new()),
        _ => Box::new(Fcat::new(FcatConfig::default().with_lambda(2))),
    }
}

fn churn_inputs(seed: u64) -> (PopulationSchedule, MonitorConfig, SimConfig) {
    let model = DwellModel::poisson(CHURN_RATE, CHURN_DWELL);
    (
        PopulationSchedule::generate(&model, CHURN_TAGS, CHURN_ROUNDS, seed),
        MonitorConfig {
            audit_every: CHURN_AUDIT_EVERY,
            persistence: true,
        },
        SimConfig::default().with_seed(seed),
    )
}

fn deployment(seed: u64) -> Result<(Deployment, Vec<(f64, f64)>), String> {
    let deployment = Deployment::uniform(&mut seeded_rng(seed), SWEEP_TAGS, REGION_M, REGION_M);
    let positions = deployment
        .try_grid_positions(SPACING_M)
        .map_err(|e| e.to_string())?;
    Ok((deployment, positions))
}

/// The oracle of one request: the serial scheduled sweep or the local
/// monitoring run with the request's parameters.
fn oracle(kind: &Kind, seed: u64) -> Result<Expect, String> {
    match kind {
        Kind::Sweep { protocol } => {
            let (deployment, positions) = deployment(seed)?;
            let report = multi_site_inventory_scheduled(
                sweep_protocol(protocol).as_ref(),
                &deployment,
                &positions,
                SPACING_M,
                0.0,
                &SimConfig::default().with_seed(seed),
            )
            .map_err(|e| e.to_string())?;
            Ok(Expect::Sweep(report))
        }
        Kind::Churn => {
            let (schedule, monitor, config) = churn_inputs(seed);
            let mut session = FcatSession::new(FcatConfig::default().with_lambda(2));
            let report = run_monitoring(&mut session, &schedule, &monitor, &config)
                .map_err(|e| e.to_string())?;
            Ok(Expect::Churn {
                report,
                arrivals: schedule.arrivals(),
                departures: schedule.departures(),
            })
        }
    }
}

/// The distinct requests of `seed` with their oracles.
pub fn requests(seed: u64) -> Result<Vec<Request>, String> {
    request_lines(seed)
        .into_iter()
        .enumerate()
        .map(|(i, (line, kind, request_seed))| {
            let expect = oracle(&kind, request_seed)?;
            let mut request = Request {
                line,
                kind,
                seed: request_seed,
                expect,
                digest_ok: true,
            };
            let digest = request.digest();
            request.digest_ok =
                check::expected_digest("serve-mixed", seed, &format!("req{i}"), digest) == digest;
            Ok(request)
        })
        .collect()
}

/// Reference digests of every distinct request of `seed`.
pub fn reference_digests(seed: u64) -> Result<Vec<(String, u64)>, String> {
    Ok(requests(seed)?
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("req{i}"), r.digest()))
        .collect())
}

fn line_type(line: &Json) -> &str {
    line.get("type").and_then(Json::as_str).unwrap_or("")
}

fn field_u64(line: &Json, key: &str) -> Option<u64> {
    line.get(key).and_then(Json::as_u64)
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: Option<T>,
    want: T,
) -> Result<(), String> {
    if got.as_ref() == Some(&want) {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// Checks one served stream (accepted line first, result line last)
/// against the request's oracle, bit for bit. Worker attribution and the
/// completion order of sites are the only freedoms.
pub fn check_stream(request: &Request, lines: &[String]) -> Result<(), String> {
    if !request.digest_ok {
        return Err(format!(
            "oracle of {} differs from its committed digest",
            request.line
        ));
    }
    let parsed = lines
        .iter()
        .map(|l| Json::parse(l).map_err(|e| format!("bad line {l:?}: {e}")))
        .collect::<Result<Vec<Json>, String>>()?;
    let (Some(first), Some(last)) = (parsed.first(), parsed.last()) else {
        return Err("empty stream".into());
    };
    expect_eq("first line", Some(line_type(first)), "accepted")?;
    expect_eq("last line", Some(line_type(last)), "result")?;
    expect_eq("dropped_events", field_u64(last, "dropped_events"), 0)?;
    match &request.expect {
        Expect::Sweep(report) => {
            expect_eq(
                "sites",
                field_u64(first, "sites"),
                report.per_site.len() as u64,
            )?;
            let mut seen = vec![false; report.per_site.len()];
            for line in parsed.iter().filter(|l| line_type(l) == "site") {
                let site = field_u64(line, "site").unwrap_or(u64::MAX) as usize;
                let Some(expected) = report.per_site.get(site) else {
                    return Err(format!("site {site} out of range"));
                };
                if std::mem::replace(&mut seen[site], true) {
                    return Err(format!("site {site} reported twice"));
                }
                expect_eq(
                    "site identified",
                    field_u64(line, "identified"),
                    expected.identified as u64,
                )?;
                expect_eq(
                    "site slots",
                    field_u64(line, "slots"),
                    expected.slots.total(),
                )?;
                expect_eq(
                    "site elapsed_us",
                    line.get("elapsed_us").and_then(Json::as_f64),
                    expected.elapsed_us,
                )?;
            }
            if !seen.iter().all(|&s| s) {
                return Err("a site never reported".into());
            }
            expect_eq(
                "unique_tags",
                field_u64(last, "unique_tags"),
                report.unique_tags as u64,
            )?;
            expect_eq(
                "cross_site_duplicates",
                field_u64(last, "cross_site_duplicates"),
                report.cross_site_duplicates as u64,
            )?;
            expect_eq(
                "total_elapsed_us",
                last.get("total_elapsed_us").and_then(Json::as_f64),
                report.total_elapsed_us,
            )
        }
        Expect::Churn {
            report,
            arrivals,
            departures,
        } => {
            expect_eq("arrivals", field_u64(first, "arrivals"), *arrivals as u64)?;
            expect_eq(
                "departures",
                field_u64(first, "departures"),
                *departures as u64,
            )?;
            let population = parsed
                .iter()
                .filter(|l| line_type(l) == "population")
                .count();
            expect_eq("population lines", Some(population), arrivals + departures)?;
            expect_eq("unique", field_u64(last, "unique"), report.unique as u64)?;
            expect_eq(
                "present_at_end",
                field_u64(last, "present_at_end"),
                report.unique_present_at_end as u64,
            )?;
            for (key, kind) in [
                ("unknown_detected", MonitorDetectionKind::UnknownTag),
                ("missing_detected", MonitorDetectionKind::MissingTag),
            ] {
                expect_eq(
                    key,
                    field_u64(last, key),
                    report.detection_count(kind) as u64,
                )?;
            }
            expect_eq(
                "total_elapsed_us",
                last.get("total_elapsed_us").and_then(Json::as_f64),
                report.elapsed_us,
            )
        }
    }
}

/// One scheduled request as the load generator saw it.
#[derive(Debug)]
pub struct Sample {
    /// Position in the schedule; the distinct request is `index % len`.
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    /// When the `accepted` line arrived.
    pub accepted: Option<Instant>,
    /// When the final `result`/`error` line arrived (or the read failed).
    pub done: Instant,
    /// Lines in the stream.
    pub line_count: usize,
    /// Hash of the stream's bytes.
    pub stream_hash: u64,
    /// The final line.
    pub last_line: String,
    /// The whole stream, kept only when its hash is not the known one.
    pub lines: Vec<String>,
    /// Transport failure, if any.
    pub error: Option<String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
}

/// Sends `total` requests, request `j` due at `t0 + j / rate`, over
/// `connections` client connections, each carrying one request at a time.
/// A request whose connections are all busy is sent late: the delay shows
/// in its latency from due time and in the send lag, never as fewer
/// requests. Requests are no longer sent after `give_up_at`.
///
/// `known[i]` is the stream hash of a verified answer to `lines[i]`; a
/// stream with that hash is not kept, so memory stays flat however many
/// requests run.
pub fn open_loop(
    addr: SocketAddr,
    lines: &[String],
    known: &[Option<u64>],
    rate: f64,
    total: usize,
    connections: usize,
    give_up_at: Instant,
) -> (Instant, Vec<Sample>) {
    let t0 = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(total.min(4_096)));
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let stream = TcpStream::connect(addr);
                let mut client = stream.and_then(|s| {
                    s.set_nodelay(true)?;
                    s.set_read_timeout(Some(GRACE))?;
                    Ok((BufReader::new(s.try_clone()?), s))
                });
                loop {
                    let j = next.fetch_add(1, Ordering::SeqCst);
                    if j >= total || Instant::now() >= give_up_at {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let mut sample = Sample {
                        index: j,
                        due,
                        sent,
                        accepted: None,
                        done: sent,
                        line_count: 0,
                        stream_hash: 0,
                        last_line: String::new(),
                        lines: Vec::new(),
                        error: None,
                    };
                    match &mut client {
                        Ok((reader, writer)) => {
                            let line = &lines[j % lines.len()];
                            sample.error = exchange(reader, writer, line, &mut sample).err();
                        }
                        Err(e) => sample.error = Some(format!("connect: {e}")),
                    }
                    sample.done = Instant::now();
                    sample.line_count = sample.lines.len();
                    sample.last_line = sample.lines.last().cloned().unwrap_or_default();
                    if known[j % known.len()] == Some(sample.stream_hash) {
                        sample.lines = Vec::new();
                    }
                    let broken = sample.error.is_some();
                    samples
                        .lock()
                        .expect("no client thread panicked")
                        .push(sample);
                    if broken {
                        break;
                    }
                }
            });
        }
    });
    let mut samples = samples.into_inner().expect("no client thread panicked");
    samples.sort_by_key(|s| s.index);
    (t0, samples)
}

/// Writes one request and reads its stream through the final line.
fn exchange(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
    sample: &mut Sample,
) -> Result<(), String> {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut hasher = DefaultHasher::new();
    loop {
        let mut buf = String::new();
        match reader.read_line(&mut buf) {
            Ok(0) => return Err("connection closed mid-stream".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let buf = buf.trim_end().to_owned();
        if sample.accepted.is_none() && buf.starts_with("{\"type\":\"accepted\"") {
            sample.accepted = Some(Instant::now());
        }
        let last =
            buf.starts_with("{\"type\":\"result\"") || buf.starts_with("{\"type\":\"error\"");
        hasher.write(buf.as_bytes());
        sample.lines.push(buf);
        if last {
            sample.stream_hash = hasher.finish();
            return Ok(());
        }
    }
}

/// Set-up of one run: the requests with their oracles, a running server,
/// and one warm-up pass of every request through it.
struct Setup {
    requests: Vec<Request>,
    server: Server,
    /// Hash of each request's verified warm-up stream.
    known: Vec<Option<u64>>,
}

impl Setup {
    fn new(seed: u64) -> Result<Setup, String> {
        let requests = requests(seed)?;
        let server = Server::spawn(ServeOptions::default()).map_err(|e| format!("spawn: {e}"))?;
        let lines: Vec<String> = requests.iter().map(|r| r.line.clone()).collect();
        let (_, warm) = open_loop(
            server.local_addr(),
            &lines,
            &[None],
            f64::INFINITY,
            lines.len(),
            1,
            Instant::now() + GRACE,
        );
        let mut known = Vec::new();
        for sample in &warm {
            if let Some(e) = &sample.error {
                return Err(format!("warm-up: {e}"));
            }
            // A warm-up stream that fails its oracle is never trusted: every
            // later answer to that request is checked in full, and fails.
            let verified = check_stream(&requests[sample.index], &sample.lines).is_ok();
            known.push(verified.then_some(sample.stream_hash));
        }
        Ok(Setup {
            requests,
            server,
            known,
        })
    }

    fn lines(&self) -> Vec<String> {
        self.requests.iter().map(|r| r.line.clone()).collect()
    }
}

/// A served sample with its verdict.
type Scored<'a> = (&'a Sample, bool);

/// Whether a served sample answered its request correctly: its stream is
/// byte-identical to the verified warm-up stream, or passes the oracle
/// check on its own.
fn check_sample(
    requests: &[Request],
    known: &[Option<u64>],
    sample: &Sample,
) -> Result<(), String> {
    let i = sample.index % requests.len();
    match &sample.error {
        Some(e) => Err(e.clone()),
        None if known[i] == Some(sample.stream_hash) => Ok(()),
        None => check_stream(&requests[i], &sample.lines),
    }
}

/// Closed-loop capacity over [`CONNECTIONS`] connections, requests/s; the
/// figure [`RATE_RPS`] is half of.
pub fn calibrate(seed: u64, seconds: Duration) -> Result<f64, String> {
    let setup = Setup::new(seed)?;
    let give_up = Instant::now() + seconds;
    let (t0, samples) = open_loop(
        setup.server.local_addr(),
        &setup.lines(),
        &setup.known,
        f64::INFINITY,
        usize::MAX,
        CONNECTIONS,
        give_up,
    );
    let end = samples.iter().map(|s| s.done).max().unwrap_or(t0);
    setup.server.shutdown();
    Ok(ratio(samples.len() as f64, (end - t0).as_secs_f64()))
}

pub fn run(seed: u64, seconds: Duration, trace: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (setup, setup_s) = timed_setup(|| Setup::new(seed))?;
    let total = ((RATE_RPS * seconds.as_secs_f64()).round() as usize).max(1);
    let lines = setup.lines();
    let (_, samples) = open_loop(
        setup.server.local_addr(),
        &lines,
        &setup.known,
        RATE_RPS,
        total,
        CONNECTIONS,
        Instant::now() + seconds + GRACE,
    );
    let Setup {
        requests,
        server,
        known,
    } = setup;
    server.shutdown();

    // Verdicts outside the timed window; unsent requests count as failed.
    let requests = &requests;
    let mut correct = vec![false; samples.len()];
    for (ok, sample) in correct.iter_mut().zip(&samples) {
        *ok = outcome.verdict(check_sample(requests, &known, sample));
    }
    for _ in samples.len()..total {
        outcome.verdict(Err("request never sent".into()));
    }
    let good: Vec<&Sample> = samples
        .iter()
        .zip(&correct)
        .filter(|(_, &c)| c)
        .map(|(s, _)| s)
        .collect();
    let latency: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();

    if !trace {
        let scored: Vec<Scored> = samples.iter().zip(correct.iter().copied()).collect();
        let blocks = |better, f: &dyn Fn(&[Scored]) -> f64| {
            calm_quartile(
                &scored,
                |(s, _)| s.index as f64 / RATE_RPS,
                BLOCK_S,
                better,
                f,
            )
        };
        // Compute cost per request: each distinct request's best service
        // time (sent → result; a request is sent only on an idle
        // connection) over its repetitions. The work is the same every
        // time, so the rest is waiting and the host.
        let mut best_ms = vec![f64::INFINITY; requests.len()];
        for s in &good {
            let b = &mut best_ms[s.index % requests.len()];
            *b = b.min(ms(s.done - s.sent));
        }
        let per_inventory: Vec<f64> = requests
            .iter()
            .zip(&best_ms)
            .map(|(r, ms)| ms / r.reports().len() as f64)
            .collect();
        let slots: u64 = requests.iter().map(Request::slots).sum();
        let on_time = good.iter().filter(|s| s.latency_ms() <= SLO_MS).count();
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mb", crate::env::peak_rss_mb());
        outcome.set("success_rate", ratio(good.len() as f64, total as f64));
        outcome.set(
            "slots_per_s",
            ratio(slots as f64, best_ms.iter().sum::<f64>() / 1e3),
        );
        outcome.set("inventory_ms_p50", median(&per_inventory));
        outcome.set("inventory_ms_p90", quantile(&per_inventory, 0.9));
        let all_latency =
            |w: &[Scored]| -> Vec<f64> { w.iter().map(|(s, _)| s.latency_ms()).collect() };
        outcome.set(
            "serve_latency_ms_p50",
            blocks(Lower, &|w| median(&all_latency(w))),
        );
        outcome.set(
            "serve_latency_ms_p99",
            blocks(Lower, &|w| quantile(&all_latency(w), 0.99)),
        );
        outcome.set(
            "serve_goodput_rps",
            blocks(Higher, &|w| {
                let ok = w.iter().filter(|(_, ok)| *ok).count();
                ratio(ok as f64, w.len() as f64 / RATE_RPS)
            }),
        );
        outcome.set("serve_slo_met_rate", ratio(on_time as f64, total as f64));
        return Ok(outcome);
    }

    // Per-layer: direct simulator calls with the same parameters, untraced
    // and then through the benchmark's sink.
    let mut direct_ms = vec![Vec::new(); requests.len()];
    let (mut sweep_ms, mut monitor_ms) = (Vec::new(), Vec::new());
    let (mut untraced, mut traced) = ((0u64, 0f64), (0u64, 0f64));
    let mut sink = TimingSink::new(false, false);
    for _ in 0..DIRECT_REPEATS {
        for (i, request) in requests.iter().enumerate() {
            let t = Instant::now();
            let slots = direct(request, &mut rfid_obs::NoopSink)?;
            let elapsed = ms(t.elapsed());
            direct_ms[i].push(elapsed);
            untraced = (untraced.0 + slots, untraced.1 + elapsed);
            match request.kind {
                Kind::Sweep { .. } => sweep_ms.push(elapsed),
                Kind::Churn => monitor_ms.push(elapsed),
            }
            let t = Instant::now();
            direct(request, &mut sink)?;
            traced = (traced.0 + slots, traced.1 + ms(t.elapsed()));
        }
    }
    let direct_p50: Vec<f64> = direct_ms.iter().map(|v| median(v)).collect();
    let parse_us = layers::parse_us_per_line(&lines, MICRO_BUDGET);

    let (mut overhead, mut queue_wait, mut attributed) = (Vec::new(), Vec::new(), 0.0);
    for sample in &samples {
        let sim = direct_p50[sample.index % requests.len()];
        let wait = sample
            .accepted
            .map_or(sample.latency_ms(), |a| ms(a - sample.due));
        overhead.push(sample.latency_ms() - sim);
        queue_wait.push(wait);
        attributed += sample.latency_ms().min(wait + sim + parse_us / 1e3);
    }
    let lag: Vec<f64> = samples.iter().map(|s| ms(s.sent - s.due)).collect();
    let result_field = |s: &Sample, key: &str| {
        Json::parse(&s.last_line)
            .ok()
            .and_then(|j| j.get(key).and_then(Json::as_u64))
            .unwrap_or(0)
    };
    // Events of one served pass over the distinct requests.
    let emitted: u64 = samples
        .iter()
        .take(requests.len())
        .map(|s| result_field(s, "events_emitted"))
        .sum();
    let dropped: u64 = samples
        .iter()
        .map(|s| result_field(s, "dropped_events"))
        .sum();
    let (mut slots, mut resolved) = ([0u64; 3], 0u64);
    for report in requests.iter().flat_map(Request::reports) {
        slots[0] += report.slots.empty;
        slots[1] += report.slots.singleton;
        slots[2] += report.slots.collision;
        resolved += report.resolved_from_collisions;
    }

    let tags = population::uniform(&mut seeded_rng(seed), SWEEP_TAGS);
    let signal_cfg = SignalResolutionConfig::default();
    let none = Default::default();
    let o = &mut outcome;
    o.set(
        "types.hash.ns_per_call",
        layers::hash_ns_per_call(&tags, &[], MICRO_BUDGET),
    );
    o.set(
        "signal.synth.ns_per_call",
        layers::synth_ns_per_call(&tags, &none, &signal_cfg, MICRO_BUDGET),
    );
    o.set(
        "signal.resolve.ns_per_call",
        layers::resolve_ns_per_call(&tags, &none, &signal_cfg, MICRO_BUDGET),
    );
    o.set(
        "analysis.estimator.ns_per_call",
        layers::estimator_ns_per_call(&[], rfid_analysis::optimal_omega(2), MICRO_BUDGET),
    );
    o.set("anc.slots.empty", slots[0] as f64);
    o.set("anc.slots.singleton", slots[1] as f64);
    o.set("anc.slots.collision", slots[2] as f64);
    o.set("anc.records.resolved", resolved as f64);
    o.set("sim.sweep_ms_p50", median(&sweep_ms));
    o.set("sim.monitor_ms_p50", median(&monitor_ms));
    o.set("serve.parse_us", parse_us);
    o.set("serve.queue_wait_ms_p99", quantile(&queue_wait, 0.99));
    o.set("serve.overhead_ms_p50", median(&overhead));
    o.set(
        "serve.lines_per_request",
        ratio(
            samples.iter().map(|s| s.line_count).sum::<usize>() as f64,
            samples.len() as f64,
        ),
    );
    o.set("obs.events_emitted", emitted as f64);
    o.set("obs.dropped_events", dropped as f64);
    o.set(
        "obs.trace_overhead_ratio",
        ratio(
            ratio(traced.0 as f64, traced.1),
            ratio(untraced.0 as f64, untraced.1),
        ),
    );
    o.set("loadgen.lag_ms_p99", quantile(&lag, 0.99));
    o.set("layers.coverage", ratio(attributed, latency.iter().sum()));
    Ok(outcome)
}

/// Runs one request's simulation in process through the sharded sweep
/// core (one worker, like the served request) or `run_monitoring_observed`;
/// returns its slot count.
fn direct<S: rfid_obs::EventSink>(request: &Request, sink: &mut S) -> Result<u64, String> {
    match &request.kind {
        Kind::Sweep { protocol } => {
            let (deployment, positions) = deployment(request.seed)?;
            let report = multi_site_inventory_sharded_observed(
                sweep_protocol(protocol).as_ref(),
                &deployment,
                &positions,
                SPACING_M,
                0.0,
                &SimConfig::default().with_seed(request.seed),
                1,
                sink,
            )
            .map_err(|e| e.to_string())?;
            if sweep_digest(&report) != request.digest() {
                return Err(format!(
                    "direct sweep of {} diverged from its oracle",
                    request.line
                ));
            }
            Ok(report.per_site.iter().map(|r| r.slots.total()).sum())
        }
        Kind::Churn => {
            let (schedule, monitor, config) = churn_inputs(request.seed);
            let mut session = FcatSession::new(FcatConfig::default().with_lambda(2));
            let report =
                rfid_sim::run_monitoring_observed(&mut session, &schedule, &monitor, &config, sink)
                    .map_err(|e| e.to_string())?;
            if monitor_digest(&report) != request.digest() {
                return Err(format!(
                    "direct monitoring of {} diverged from its oracle",
                    request.line
                ));
            }
            Ok(report.per_round.iter().map(|r| r.slots.total()).sum())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn same_seed_same_request_lines() {
        assert_eq!(request_lines(4), request_lines(4));
        assert_ne!(request_lines(4), request_lines(5));
        let lines = request_lines(4);
        let churn = lines.iter().filter(|(_, k, _)| *k == Kind::Churn).count();
        assert_eq!((lines.len(), churn), (DISTINCT, DISTINCT / 5));
        let options = ServeOptions::default();
        for (line, _, seed) in &lines {
            let parsed = rfid_bench::serve::parse_request(line, &options).expect("valid line");
            assert_eq!(parsed.config.seed(), *seed, "seed survives the wire");
            assert_eq!(parsed.workers, 1);
        }
    }

    fn served(request: &Request) -> Vec<String> {
        let server = Server::spawn(ServeOptions::default()).unwrap();
        let (_, samples) = open_loop(
            server.local_addr(),
            std::slice::from_ref(&request.line),
            &[None],
            f64::INFINITY,
            1,
            1,
            Instant::now() + GRACE,
        );
        server.shutdown();
        samples.into_iter().next().unwrap().lines
    }

    #[test]
    fn served_streams_match_oracles_and_perturbed_streams_fail() {
        let all = requests(3).unwrap();
        for request in [&all[0], &all[4]] {
            let lines = served(request);
            assert_eq!(check_stream(request, &lines), Ok(()), "{}", request.line);
            // Change one simulated statistic in one line: counted as failed.
            for (i, line) in lines.iter().enumerate() {
                for (from, to) in [
                    ("\"slots\":", "\"slots\":1"),
                    ("\"unique\":", "\"unique\":9"),
                ] {
                    if line.contains(from) {
                        let mut perturbed = lines.clone();
                        perturbed[i] = line.replacen(from, to, 1);
                        assert!(
                            check_stream(request, &perturbed).is_err(),
                            "{}",
                            perturbed[i]
                        );
                    }
                }
            }
            let mut truncated = lines.clone();
            truncated.pop();
            assert!(check_stream(request, &truncated).is_err());
        }
        // Another request's stream fails this request's oracle.
        assert!(check_stream(&all[1], &served(&all[0])).is_err());
    }

    /// A fake server answering every request with a two-line stream, except
    /// that lines containing "stall" are answered only after `stall`.
    fn stalling_server(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                handlers.push(std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { break };
                        if line.contains("stall") {
                            std::thread::sleep(stall);
                        }
                        let reply = "{\"type\":\"accepted\"}\n{\"type\":\"result\"}\n";
                        if writer.write_all(reply.as_bytes()).is_err() {
                            break;
                        }
                    }
                }));
            }
            for h in handlers {
                h.join().unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn stalled_server_shows_as_latency_and_lag_not_lower_offered_rate() {
        let stall = Duration::from_millis(400);
        let (addr, server) = stalling_server(stall);
        // Requests 2 and 3 stall, occupying both connections at once.
        let lines: Vec<String> = (0..20)
            .map(|i| {
                format!(
                    "{{\"i\":{i}{}}}",
                    if i == 2 || i == 3 { ",\"stall\":1" } else { "" }
                )
            })
            .collect();
        let rate = 40.0;
        let (_, samples) = open_loop(addr, &lines, &[None], rate, 20, 2, Instant::now() + GRACE);
        server.join().unwrap();

        assert_eq!(samples.len(), 20, "every scheduled request is sent");
        assert!(samples.iter().all(|s| s.error.is_none()));
        let latency: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let lag: Vec<f64> = samples.iter().map(|s| ms(s.sent - s.due)).collect();
        // Request 4 was due 25 ms after request 3 but both connections
        // were stalled: it waits, and its latency counts the wait.
        assert!(latency[4] >= ms(stall) * 0.8, "latency {latency:?}");
        assert!(quantile(&lag, 0.99) >= ms(stall) * 0.5, "lag {lag:?}");
        // The schedule itself did not stretch: due times stay 1/rate apart.
        let spacing = ms(samples[19].due - samples[0].due);
        assert!((spacing - 19.0 * 1e3 / rate).abs() < 1.0);
    }
}
