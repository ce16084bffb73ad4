//! `repro serve` — a long-running inventory service.
//!
//! Protocol: line-delimited JSON over TCP. Each request line is a JSON
//! sweep description (see [`SweepRequest`]); the server answers with a
//! stream of JSONL events in the exact `rfid-obs` wire format (see
//! `rfid_obs::jsonl::wire`), so a served stream replays through
//! `rfid_obs::jsonl::replay::summarize` like a local trace file:
//!
//! ```text
//! → {"protocol":"fcat","tags":500,"spacing":20,"seed":7}
//! ← {"type":"accepted","protocol":"fcat","sites":9,"tags":500,"workers":4}
//! ← {"type":"site","site":3,"worker":1,"identified":57,"slots":210,"elapsed_us":...}
//! ← …one per site, in completion order…
//! ← {"type":"metrics",…,"dropped_events":12}        (only if backpressure dropped events)
//! ← {"type":"schedule","slice":0,…}                 (one per time slice, slice order)
//! ← {"type":"result","unique_tags":500,…,"dropped_events":12}
//! ```
//!
//! Requests on one connection are served sequentially (pipelining is
//! fine; responses keep request order). Concurrency comes from opening
//! many connections — each gets its own handler thread — and from the
//! per-request worker pool inside
//! [`rfid_sim::multi_site_inventory_sharded_observed`].
//!
//! **Backpressure contract:** every client stream is buffered in a
//! bounded [`StreamQueue`] (`queue_capacity` lines). A consumer that
//! reads slower than the simulation produces loses *granular* events —
//! they are counted, and once the consumer catches up a coalesced
//! `{"type":"metrics",…}` snapshot carries the complete aggregates plus
//! the cumulative `dropped_events` counter. The final `result` line
//! always arrives (its enqueue blocks rather than drops) and repeats the
//! total `dropped_events`. Server memory per client is bounded by the
//! queue capacity regardless of consumer speed.
//!
//! **Error contract:** malformed or invalid requests (unparseable JSON,
//! `threads: 0`, non-positive grid spacing, …) produce a single
//! `{"type":"error","message":…}` line; the connection stays usable for
//! further requests. No request payload can panic the server.
//!
//! **Shutdown:** [`Server::shutdown`] (the binary wires it to SIGINT /
//! SIGTERM / stdin EOF) stops accepting, closes every per-client queue,
//! drains and flushes in-flight streams, and joins all threads.

use crate::json::Json;
use rfid_sim::obs::jsonl::wire;
use rfid_sim::obs::{StreamQueue, StreamRecv, StreamSink};
use rfid_sim::{
    multi_site_inventory_sharded_observed, run_monitoring_observed, seeded_rng,
    AntiCollisionProtocol, Deployment, DwellModel, MonitorConfig, MonitorDetectionKind,
    MonitorReport, MultiSiteReport, PopulationSchedule, SimConfig,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Hard ceilings on request parameters, so a single request cannot
/// exhaust the server (the per-site grid is additionally capped by
/// [`Deployment::MAX_GRID_POSITIONS`]).
pub mod limits {
    /// Maximum tags in one requested deployment.
    pub const MAX_TAGS: usize = 10_000_000;
    /// Maximum worker threads one request may ask for.
    pub const MAX_WORKERS: usize = 256;
    /// Maximum per-client queue capacity (lines).
    pub const MAX_QUEUE_CAPACITY: usize = 65_536;
    /// Maximum artificial drain delay (milliseconds).
    pub const MAX_DRAIN_DELAY_MS: u64 = 10_000;
    /// Maximum λ a request may select.
    pub const MAX_LAMBDA: u32 = 8;
    /// Maximum bytes in one request line.
    pub const MAX_LINE_BYTES: usize = 1 << 20;
    /// Maximum rounds in one churn-monitoring window.
    pub const MAX_CHURN_ROUNDS: usize = 10_000;
    /// Maximum mean arrivals per round a churn request may ask for.
    pub const MAX_CHURN_RATE: f64 = 10_000.0;
    /// Maximum mean dwell (rounds) a churn request may ask for.
    pub const MAX_CHURN_DWELL: f64 = 1_000_000.0;
}

/// Server-wide defaults; per-request fields can override `workers` and
/// `queue_capacity`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` by default: loopback, OS-chosen port).
    pub addr: String,
    /// Default per-request worker pool size.
    pub workers: usize,
    /// Default per-client stream queue capacity (lines).
    pub queue_capacity: usize,
    /// Stream flush policy: flush the client socket every this many
    /// lines (and always when the queue idles or closes).
    pub flush_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 256,
            flush_every: 32,
        }
    }
}

/// One validated sweep request.
///
/// JSON schema (all fields optional unless noted):
///
/// | field                 | type   | default        | meaning |
/// |-----------------------|--------|----------------|---------|
/// | `protocol`            | string | `"fcat"`       | `fcat`, `scat`, or `dfsa` |
/// | `lambda`              | int    | `2`            | collision-resolution depth (fcat/scat), `2..=8` |
/// | `seed`                | int    | `0`            | master seed (deployment + every site) |
/// | `tags`                | int    | `200`          | tags placed uniformly in the region |
/// | `width`, `height`     | number | `60.0`         | region size, meters |
/// | `spacing`             | number | `20.0`         | reading-grid spacing, meters |
/// | `range`               | number | `= spacing`    | reader coverage radius, meters |
/// | `interference_radius` | number | `0.0`          | reader-to-reader conflict radius |
/// | `workers`             | int    | server default | sharded worker pool size |
/// | `threads`             | int    | `1`            | accepted, no effect ([`SimConfig::with_threads`]) |
/// | `max_slots`           | int    | sim default    | per-site runaway cap |
/// | `hash_bits`           | int    | `16`           | advertisement hash width |
/// | `queue_capacity`      | int    | server default | stream backpressure bound (lines) |
/// | `drain_delay_ms`      | int    | `0`            | artificial per-line consumer delay (testing) |
///
/// Presence of any `churn_*` field switches the request into
/// continuous-monitoring mode: instead of a spatial multi-site sweep, the
/// server replays a Poisson-churn population schedule (`tags` initial
/// tags) through the selected protocol and streams
/// `{"type":"population",…}` / `{"type":"detection",…}` events:
///
/// | field               | type   | default | meaning |
/// |---------------------|--------|---------|---------|
/// | `churn_rate`        | number | `1.0`   | mean arrivals per round, finite ≥ 0 |
/// | `churn_dwell`       | number | `10.0`  | mean dwell (rounds), finite > 0 |
/// | `churn_rounds`      | int    | `8`     | monitoring window length, `1..=10_000` |
/// | `churn_audit_every` | int    | `4`     | full-inventory period (1 = every round) |
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Protocol name (`fcat`, `scat`, `dfsa`).
    pub protocol: String,
    /// λ for the collision-aware protocols.
    pub lambda: u32,
    /// Tags placed in the deployment.
    pub tags: usize,
    /// Region width, meters.
    pub width: f64,
    /// Region height, meters.
    pub height: f64,
    /// Reading-grid spacing, meters.
    pub spacing: f64,
    /// Reader coverage radius, meters.
    pub range: f64,
    /// Reader-to-reader interference radius, meters.
    pub interference_radius: f64,
    /// Sharded worker pool size for this request.
    pub workers: usize,
    /// Stream queue capacity for this request.
    pub queue_capacity: usize,
    /// Artificial delay per streamed line (slow-consumer testing).
    pub drain_delay_ms: u64,
    /// Churn-monitoring parameters; `Some` switches the request into
    /// continuous-monitoring mode.
    pub churn: Option<ChurnParams>,
    /// The per-site simulation config (seed, threads, caps — validated).
    pub config: SimConfig,
}

/// Validated churn-monitoring parameters of a [`SweepRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnParams {
    /// Mean arrivals per round (Poisson), finite and ≥ 0.
    pub rate: f64,
    /// Mean dwell in rounds (exponential), finite and > 0.
    pub dwell: f64,
    /// Monitoring window length in rounds, ≥ 1.
    pub rounds: usize,
    /// Full-inventory (audit) period; non-audit rounds inventory only the
    /// unread delta.
    pub audit_every: usize,
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a `{"type":"error",…}` line.
#[must_use]
pub fn error_line(message: &str) -> String {
    format!(
        "{{\"type\":\"error\",\"message\":\"{}\"}}",
        json_escape(message)
    )
}

fn fmt_f64(value: f64) -> String {
    let mut s = format!("{value}");
    if value.is_finite() && !s.contains('.') && !s.contains('e') {
        s.push_str(".0");
    }
    s
}

/// Renders the final `{"type":"result",…}` line for a completed sweep.
#[must_use]
pub fn result_line(
    request: &SweepRequest,
    report: &MultiSiteReport,
    events_emitted: u64,
    dropped_events: u64,
) -> String {
    format!(
        "{{\"type\":\"result\",\"protocol\":\"{}\",\"sites\":{},\"unique_tags\":{},\
         \"cross_site_duplicates\":{},\"uncovered\":{},\"total_elapsed_us\":{},\
         \"throughput_tags_per_sec\":{},\"slices\":{},\"events_emitted\":{},\
         \"dropped_events\":{}}}",
        json_escape(&request.protocol),
        report.per_site.len(),
        report.unique_tags,
        report.cross_site_duplicates,
        report.uncovered,
        fmt_f64(report.total_elapsed_us),
        fmt_f64(report.effective_throughput()),
        report.slices.len(),
        events_emitted,
        dropped_events,
    )
}

/// Renders the final `{"type":"result","mode":"churn",…}` line for a
/// completed monitoring window.
#[must_use]
pub fn churn_result_line(
    request: &SweepRequest,
    churn: &ChurnParams,
    report: &MonitorReport,
    events_emitted: u64,
    dropped_events: u64,
) -> String {
    format!(
        "{{\"type\":\"result\",\"mode\":\"churn\",\"protocol\":\"{}\",\"rounds\":{},\
         \"population_initial\":{},\"population_seen\":{},\"unique\":{},\
         \"present_at_end\":{},\"departed_after_read\":{},\
         \"unknown_detected\":{},\"missing_detected\":{},\
         \"unknown_latency_us\":{},\"missing_latency_us\":{},\
         \"total_elapsed_us\":{},\"events_emitted\":{},\"dropped_events\":{}}}",
        json_escape(&request.protocol),
        churn.rounds,
        report.population_initial,
        report.population_seen,
        report.unique,
        report.unique_present_at_end,
        report.unique_departed_after_read,
        report.detection_count(MonitorDetectionKind::UnknownTag),
        report.detection_count(MonitorDetectionKind::MissingTag),
        fmt_f64(
            report
                .mean_latency_us(MonitorDetectionKind::UnknownTag)
                .unwrap_or(0.0)
        ),
        fmt_f64(
            report
                .mean_latency_us(MonitorDetectionKind::MissingTag)
                .unwrap_or(0.0)
        ),
        fmt_f64(report.elapsed_us),
        events_emitted,
        dropped_events,
    )
}

/// Parses and validates one request line against the schema table on
/// [`SweepRequest`].
///
/// # Errors
///
/// Returns a message describing the first malformed or out-of-range
/// field; serve forwards it verbatim inside an [`error_line`].
pub fn parse_request(line: &str, defaults: &ServeOptions) -> Result<SweepRequest, String> {
    let value = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    if !matches!(value, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let known = [
        "protocol",
        "lambda",
        "seed",
        "tags",
        "width",
        "height",
        "spacing",
        "range",
        "interference_radius",
        "workers",
        "threads",
        "max_slots",
        "hash_bits",
        "queue_capacity",
        "drain_delay_ms",
        "churn_rate",
        "churn_dwell",
        "churn_rounds",
        "churn_audit_every",
    ];
    if let Json::Obj(fields) = &value {
        if let Some((unknown, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(format!(
                "unknown request field \"{}\"",
                json_escape(unknown)
            ));
        }
    }

    fn uint(value: &Json, key: &str, default: u64, min: u64, max: u64) -> Result<u64, String> {
        match value.get(key) {
            None => Ok(default),
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("{key} must be a non-negative integer"))?;
                if n < min || n > max {
                    return Err(format!("{key} must be in {min}..={max}, got {n}"));
                }
                Ok(n)
            }
        }
    }

    fn meters(value: &Json, key: &str, default: f64) -> Result<f64, String> {
        match value.get(key) {
            None => Ok(default),
            Some(v) => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| format!("{key} must be a number"))?;
                if !x.is_finite() {
                    return Err(format!("{key} must be finite, got {x}"));
                }
                Ok(x)
            }
        }
    }

    let protocol = match value.get("protocol") {
        None => "fcat".to_owned(),
        Some(v) => v
            .as_str()
            .ok_or("protocol must be a string")?
            .to_ascii_lowercase(),
    };
    if !["fcat", "scat", "dfsa"].contains(&protocol.as_str()) {
        return Err(format!(
            "unknown protocol \"{}\" (expected fcat, scat, or dfsa)",
            json_escape(&protocol)
        ));
    }
    let lambda = uint(&value, "lambda", 2, 2, u64::from(limits::MAX_LAMBDA))? as u32;
    let seed = match value.get("seed") {
        None => 0,
        Some(v) => v.as_u64().ok_or("seed must be a non-negative integer")?,
    };
    let tags = uint(&value, "tags", 200, 0, limits::MAX_TAGS as u64)? as usize;

    let width = meters(&value, "width", 60.0)?;
    let height = meters(&value, "height", 60.0)?;
    if width <= 0.0 || height <= 0.0 {
        return Err(format!("region must be positive, got {width} x {height}"));
    }
    let spacing = meters(&value, "spacing", 20.0)?;
    if spacing <= 0.0 {
        return Err(format!("spacing must be positive, got {spacing}"));
    }
    let range = meters(&value, "range", spacing)?;
    if range < 0.0 {
        return Err(format!("range must be non-negative, got {range}"));
    }
    let interference_radius = meters(&value, "interference_radius", 0.0)?;
    if interference_radius < 0.0 {
        return Err(format!(
            "interference_radius must be non-negative, got {interference_radius}"
        ));
    }

    let workers = uint(
        &value,
        "workers",
        defaults.workers as u64,
        1,
        limits::MAX_WORKERS as u64,
    )? as usize;
    let queue_capacity = uint(
        &value,
        "queue_capacity",
        defaults.queue_capacity as u64,
        1,
        limits::MAX_QUEUE_CAPACITY as u64,
    )? as usize;
    let drain_delay_ms = uint(&value, "drain_delay_ms", 0, 0, limits::MAX_DRAIN_DELAY_MS)?;

    // Continuous-monitoring mode: presence of any churn field selects it.
    // Rates and dwells are range-checked here (errors on the wire, never a
    // panic), then cross-checked against the simulator's own model
    // validator so the wire contract cannot drift from `DwellModel`.
    let churn_fields = [
        "churn_rate",
        "churn_dwell",
        "churn_rounds",
        "churn_audit_every",
    ];
    let churn = if churn_fields.iter().any(|k| value.get(k).is_some()) {
        let rate = match value.get("churn_rate") {
            None => 1.0,
            Some(v) => v.as_f64().ok_or("churn_rate must be a number")?,
        };
        if !rate.is_finite() || !(0.0..=limits::MAX_CHURN_RATE).contains(&rate) {
            return Err(format!(
                "churn_rate must be finite in 0..={}, got {rate}",
                limits::MAX_CHURN_RATE
            ));
        }
        let dwell = match value.get("churn_dwell") {
            None => 10.0,
            Some(v) => v.as_f64().ok_or("churn_dwell must be a number")?,
        };
        if !dwell.is_finite() || dwell <= 0.0 || dwell > limits::MAX_CHURN_DWELL {
            return Err(format!(
                "churn_dwell must be finite in (0, {}], got {dwell}",
                limits::MAX_CHURN_DWELL
            ));
        }
        let rounds = uint(
            &value,
            "churn_rounds",
            8,
            1,
            limits::MAX_CHURN_ROUNDS as u64,
        )? as usize;
        let audit_every = uint(
            &value,
            "churn_audit_every",
            4,
            1,
            limits::MAX_CHURN_ROUNDS as u64,
        )? as usize;
        // Expected arrival volume is bounded like the static deployment.
        if rate * rounds as f64 > limits::MAX_TAGS as f64 {
            return Err(format!(
                "churn_rate * churn_rounds must stay <= {} expected arrivals",
                limits::MAX_TAGS
            ));
        }
        DwellModel::poisson(rate, dwell)
            .validate()
            .map_err(|e| format!("churn: {e}"))?;
        Some(ChurnParams {
            rate,
            dwell,
            rounds,
            audit_every,
        })
    } else {
        None
    };

    // Validate-on-deserialize: the SimConfig builders panic on bad input
    // (fine for programmatic use), so every externally supplied value is
    // range-checked *before* the builder runs, and `SimConfig::validate`
    // double-checks the assembled config at run start.
    let threads = uint(&value, "threads", 1, 1, 1024)? as usize;
    let max_slots = uint(&value, "max_slots", 0, 1, u64::MAX)?;
    let hash_bits = uint(&value, "hash_bits", 16, 1, 32)? as u32;
    let mut config = SimConfig::default()
        .with_seed(seed)
        .with_threads(threads)
        .with_hash_bits(hash_bits);
    if value.get("max_slots").is_some() {
        config = config.with_max_slots(max_slots);
    }
    config.validate().map_err(|e| e.to_string())?;

    Ok(SweepRequest {
        protocol,
        lambda,
        tags,
        width,
        height,
        spacing,
        range,
        interference_radius,
        workers,
        queue_capacity,
        drain_delay_ms,
        churn,
        config,
    })
}

/// Builds the protocol instance a request names.
fn build_protocol(request: &SweepRequest) -> Box<dyn AntiCollisionProtocol + Send + Sync> {
    use rfid_anc::{Fcat, FcatConfig, Scat, ScatConfig};
    use rfid_protocols::Dfsa;
    match request.protocol.as_str() {
        "scat" => Box::new(Scat::new(ScatConfig::default().with_lambda(request.lambda))),
        "dfsa" => Box::new(Dfsa::new()),
        // parse_request rejected everything else.
        _ => Box::new(Fcat::new(FcatConfig::default().with_lambda(request.lambda))),
    }
}

/// Builds the multi-round session a churn request names. The
/// collision-aware protocols get their Gen2-style warm-start sessions
/// (the backlog estimate carries across rounds); DFSA re-estimates from
/// scratch each round.
fn build_session(request: &SweepRequest) -> Box<dyn rfid_sim::rounds::MultiRoundSession + Send> {
    use rfid_anc::{FcatConfig, FcatSession, ScatConfig, ScatSession};
    use rfid_protocols::Dfsa;
    use rfid_sim::rounds::StatelessSession;
    match request.protocol.as_str() {
        "scat" => Box::new(ScatSession::new(
            ScatConfig::default().with_lambda(request.lambda),
        )),
        "dfsa" => Box::new(StatelessSession::new(Dfsa::new())),
        // parse_request rejected everything else.
        _ => Box::new(FcatSession::new(
            FcatConfig::default().with_lambda(request.lambda),
        )),
    }
}

/// A running serve instance. Dropping the handle shuts it down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts accepting connections on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, …).
    pub fn spawn(options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = shutdown.clone();
        let accept_thread =
            std::thread::spawn(move || accept_loop(&listener, &options, &accept_shutdown));
        Ok(Server {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (use this to connect when spawned on port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without blocking: stops accepting and signals
    /// every handler to drain, flush, and exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Graceful shutdown: signals every thread and joins them. In-flight
    /// streams are drained and flushed before their connections close.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, options: &ServeOptions, shutdown: &Arc<AtomicBool>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for connection in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match connection {
            Ok(stream) => {
                let options = options.clone();
                let shutdown = shutdown.clone();
                handlers.push(std::thread::spawn(move || {
                    // Connection-level I/O errors just end that client.
                    let _ = handle_connection(&stream, &options, &shutdown);
                }));
            }
            Err(_) => continue,
        }
        handlers.retain(|handle| !handle.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Reads `\n`-terminated lines from a socket with a read timeout, so the
/// loop can observe the shutdown flag while idle. (`BufReader::read_line`
/// cannot be used here: on a timeout it may have consumed a partial line
/// from the socket and lost it.)
struct LineReader {
    stream: TcpStream,
    buffer: Vec<u8>,
    eof: bool,
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            buffer: Vec::new(),
            eof: false,
        }
    }

    /// Next line (without the terminator), `None` on EOF or shutdown.
    fn read_line(&mut self, shutdown: &AtomicBool) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buffer.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buffer.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.eof {
                if self.buffer.is_empty() {
                    return Ok(None);
                }
                let line = String::from_utf8_lossy(&self.buffer).into_owned();
                self.buffer.clear();
                return Ok(Some(line));
            }
            if shutdown.load(Ordering::SeqCst) {
                return Ok(None);
            }
            if self.buffer.len() > limits::MAX_LINE_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request line too long",
                ));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn handle_connection(
    stream: &TcpStream,
    options: &ServeOptions,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let _ = stream.set_nodelay(true);
    let mut reader = LineReader::new(stream.try_clone()?);
    let mut writer = io::BufWriter::new(stream);
    while let Some(line) = reader.read_line(shutdown)? {
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line, options) {
            Err(message) => {
                writer.write_all(error_line(&message).as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
            }
            Ok(request) => match request.churn {
                Some(churn) => {
                    serve_churn_request(&mut writer, &request, &churn, options, shutdown)?
                }
                None => serve_request(&mut writer, &request, options, shutdown)?,
            },
        }
    }
    writer.flush()
}

/// Runs one accepted sweep and streams its events to `out`.
fn serve_request<W: Write>(
    out: &mut W,
    request: &SweepRequest,
    options: &ServeOptions,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    // The deployment stream and every per-site stream derive from
    // `request.config.seed()` alone, so a client replaying the same
    // request always gets the same inventory — and a local serial sweep
    // with the same inputs is the parity oracle the tests use.
    let deployment = Deployment::uniform(
        &mut seeded_rng(request.config.seed()),
        request.tags,
        request.width,
        request.height,
    );
    let positions = match deployment.try_grid_positions(request.spacing) {
        Ok(positions) => positions,
        Err(error) => {
            out.write_all(error_line(&error.to_string()).as_bytes())?;
            out.write_all(b"\n")?;
            return out.flush();
        }
    };
    let accepted = format!(
        "{{\"type\":\"accepted\",\"protocol\":\"{}\",\"sites\":{},\"tags\":{},\"workers\":{}}}",
        json_escape(&request.protocol),
        positions.len(),
        request.tags,
        request.workers,
    );
    out.write_all(accepted.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;

    let protocol = build_protocol(request);
    let queue = StreamQueue::new(request.queue_capacity);
    let flush_every = options.flush_every.max(1);
    std::thread::scope(|scope| {
        let producer_queue = queue.clone();
        let positions = &positions;
        let deployment = &deployment;
        let simulation = scope.spawn(move || {
            let mut sink = StreamSink::new(producer_queue.clone());
            let result = multi_site_inventory_sharded_observed(
                protocol.as_ref(),
                deployment,
                positions,
                request.range,
                request.interference_radius,
                &request.config,
                request.workers,
                &mut sink,
            );
            // If granular events were dropped since the last snapshot,
            // surface the final aggregates before the result line.
            let dropped = producer_queue.dropped_events();
            if dropped > 0 {
                let _ = producer_queue.push_blocking(wire::metrics_line(sink.metrics(), dropped));
            }
            let final_line = match &result {
                Ok(report) => result_line(request, report, sink.emitted(), dropped),
                Err(error) => error_line(&error.to_string()),
            };
            // Must-deliver: block for room instead of dropping. Returns
            // false only if the consumer is gone (queue closed).
            let _ = producer_queue.push_blocking(final_line);
            producer_queue.close();
        });

        let outcome = drain_stream(out, &queue, flush_every, request.drain_delay_ms, shutdown);
        let _ = simulation.join();
        outcome
    })
}

/// Runs one accepted churn-monitoring request and streams its
/// population/detection events to `out`.
fn serve_churn_request<W: Write>(
    out: &mut W,
    request: &SweepRequest,
    churn: &ChurnParams,
    options: &ServeOptions,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    // Schedule and every round stream derive from `request.config.seed()`
    // alone, so a replayed request reproduces the same monitoring window.
    let model = DwellModel::poisson(churn.rate, churn.dwell);
    let schedule =
        PopulationSchedule::generate(&model, request.tags, churn.rounds, request.config.seed());
    let accepted = format!(
        "{{\"type\":\"accepted\",\"protocol\":\"{}\",\"mode\":\"churn\",\"tags\":{},\
         \"rounds\":{},\"arrivals\":{},\"departures\":{}}}",
        json_escape(&request.protocol),
        request.tags,
        churn.rounds,
        schedule.arrivals(),
        schedule.departures(),
    );
    out.write_all(accepted.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;

    let mut session = build_session(request);
    let monitor = MonitorConfig {
        audit_every: churn.audit_every,
        persistence: true,
    };
    let queue = StreamQueue::new(request.queue_capacity);
    let flush_every = options.flush_every.max(1);
    std::thread::scope(|scope| {
        let producer_queue = queue.clone();
        let schedule = &schedule;
        let simulation = scope.spawn(move || {
            let mut sink = StreamSink::new(producer_queue.clone());
            let result = run_monitoring_observed(
                session.as_mut(),
                schedule,
                &monitor,
                &request.config,
                &mut sink,
            );
            let dropped = producer_queue.dropped_events();
            if dropped > 0 {
                let _ = producer_queue.push_blocking(wire::metrics_line(sink.metrics(), dropped));
            }
            let final_line = match &result {
                Ok(report) => churn_result_line(request, churn, report, sink.emitted(), dropped),
                Err(error) => error_line(&error.to_string()),
            };
            let _ = producer_queue.push_blocking(final_line);
            producer_queue.close();
        });

        let outcome = drain_stream(out, &queue, flush_every, request.drain_delay_ms, shutdown);
        let _ = simulation.join();
        outcome
    })
}

/// Drains `queue` to `out` until the producer closes it (or shutdown is
/// requested), flushing every `flush_every` lines and whenever the queue
/// idles. Shared by the sweep and churn serving paths.
fn drain_stream<W: Write>(
    out: &mut W,
    queue: &StreamQueue,
    flush_every: u64,
    drain_delay_ms: u64,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let mut since_flush = 0u64;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            // Stop the producer; keep draining what is already
            // buffered so the stream ends flushed, not truncated.
            queue.close();
        }
        match queue.recv_timeout(Duration::from_millis(50)) {
            StreamRecv::Line(line) => {
                if let Err(error) = out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                {
                    queue.close();
                    return Err(error);
                }
                since_flush += 1;
                if since_flush >= flush_every {
                    since_flush = 0;
                    if let Err(error) = out.flush() {
                        queue.close();
                        return Err(error);
                    }
                }
                if drain_delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(drain_delay_ms));
                }
            }
            StreamRecv::Empty => {
                since_flush = 0;
                if let Err(error) = out.flush() {
                    queue.close();
                    return Err(error);
                }
            }
            StreamRecv::Closed => return out.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_defaults_and_overrides() {
        let opts = ServeOptions::default();
        let req = parse_request("{}", &opts).unwrap();
        assert_eq!(req.protocol, "fcat");
        assert_eq!(req.lambda, 2);
        assert_eq!(req.tags, 200);
        assert_eq!(req.workers, opts.workers);
        let req = parse_request(
            r#"{"protocol":"SCAT","lambda":4,"seed":9,"tags":50,"width":30,"height":20,
                "spacing":10,"range":8,"workers":2,"threads":3,"queue_capacity":16,
                "drain_delay_ms":5}"#,
            &opts,
        )
        .unwrap();
        assert_eq!(req.protocol, "scat");
        assert_eq!(req.lambda, 4);
        assert_eq!(req.config.seed(), 9);
        assert_eq!(req.config.threads(), 3);
        assert_eq!(req.workers, 2);
        assert_eq!(req.queue_capacity, 16);
        assert_eq!(req.drain_delay_ms, 5);
    }

    #[test]
    fn parse_request_churn_fields() {
        let opts = ServeOptions::default();
        assert!(parse_request("{}", &opts).unwrap().churn.is_none());
        // Any single churn field selects monitoring mode; the rest default.
        let req = parse_request(r#"{"churn_rate":2.5}"#, &opts).unwrap();
        assert_eq!(
            req.churn,
            Some(ChurnParams {
                rate: 2.5,
                dwell: 10.0,
                rounds: 8,
                audit_every: 4
            })
        );
        let req = parse_request(
            r#"{"churn_rate":0,"churn_dwell":3.5,"churn_rounds":12,"churn_audit_every":1}"#,
            &opts,
        )
        .unwrap();
        assert_eq!(
            req.churn,
            Some(ChurnParams {
                rate: 0.0,
                dwell: 3.5,
                rounds: 12,
                audit_every: 1
            })
        );
    }

    #[test]
    fn parse_request_rejects_malformed_and_hostile_input() {
        let opts = ServeOptions::default();
        for (input, expect) in [
            ("nonsense", "malformed"),
            ("[1,2]", "object"),
            (r#"{"protocol":"alohamora"}"#, "unknown protocol"),
            (r#"{"threads":0}"#, "threads"),
            (r#"{"max_slots":0}"#, "max_slots"),
            (r#"{"hash_bits":33}"#, "hash_bits"),
            (r#"{"lambda":1}"#, "lambda"),
            (r#"{"tags":-5}"#, "tags"),
            (r#"{"tags":99999999999}"#, "tags"),
            (r#"{"width":-1}"#, "region"),
            (r#"{"width":"wide"}"#, "width"),
            (r#"{"range":-2}"#, "range"),
            (r#"{"workers":0}"#, "workers"),
            (r#"{"queue_capacity":0}"#, "queue_capacity"),
            (r#"{"drain_delay_ms":999999}"#, "drain_delay_ms"),
            (r#"{"surprise":1}"#, "unknown request field"),
            (r#"{"seed":1.5}"#, "seed"),
            (r#"{"churn_rate":-1}"#, "churn_rate"),
            (r#"{"churn_rate":"fast"}"#, "churn_rate"),
            (r#"{"churn_rate":1e999}"#, "overflows"),
            (r#"{"churn_dwell":0}"#, "churn_dwell"),
            (r#"{"churn_dwell":-3.5}"#, "churn_dwell"),
            (r#"{"churn_rounds":0}"#, "churn_rounds"),
            (r#"{"churn_audit_every":0}"#, "churn_audit_every"),
            (r#"{"churn_rate":10000,"churn_rounds":10000}"#, "arrivals"),
        ] {
            let err = parse_request(input, &opts).unwrap_err();
            assert!(
                err.contains(expect),
                "input {input:?}: expected {expect:?} in {err:?}"
            );
        }
        // Spacing problems surface at execution (structured error over
        // the wire), but non-numbers are rejected at parse time.
        assert!(parse_request(r#"{"spacing":true}"#, &opts).is_err());
    }

    #[test]
    fn churn_request_streams_events_and_result() {
        let opts = ServeOptions::default();
        let request = parse_request(
            r#"{"tags":30,"seed":5,"churn_rate":2,"churn_rounds":6,"churn_audit_every":2}"#,
            &opts,
        )
        .unwrap();
        let churn = request.churn.unwrap();
        let shutdown = AtomicBool::new(false);
        let mut out = Vec::new();
        serve_churn_request(&mut out, &request, &churn, &opts, &shutdown).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(Json::as_str), Some("accepted"));
        assert_eq!(first.get("mode").and_then(Json::as_str), Some("churn"));
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(last.get("mode").and_then(Json::as_str), Some("churn"));
        assert!(last.get("unique").and_then(Json::as_f64).unwrap() >= 30.0);
        assert!(lines.iter().any(|l| l.contains("\"type\":\"population\"")));
        // Deterministic replay: the same request yields the same bytes.
        let mut again = Vec::new();
        serve_churn_request(&mut again, &request, &churn, &opts, &shutdown).unwrap();
        assert_eq!(text, String::from_utf8(again).unwrap());
    }

    #[test]
    fn error_lines_are_valid_json() {
        let line = error_line("bad \"quote\" and \\ and\nnewline");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(
            parsed.get("message").and_then(Json::as_str),
            Some("bad \"quote\" and \\ and\nnewline")
        );
    }
}
