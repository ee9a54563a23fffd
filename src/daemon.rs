//! # rc11d — the checking daemon behind `rc11 serve`
//!
//! A long-running check server on std only: JSON lines over TCP, a
//! bounded job queue feeding a worker pool, and the shared
//! [`CheckService`] request path (parse → canonicalise → fingerprint →
//! cache-probe → explore) with its canonical-fingerprint verdict cache —
//! so syntactically different but canonically identical submissions
//! (renamed registers/threads, reordered declarations) are answered
//! without exploring, from memory or from the checksummed disk spill
//! that survives restart.
//!
//! ## Protocol
//!
//! One JSON object per line in each direction. Requests carry a `cmd`:
//!
//! * `{"cmd":"check","source":"litmus …", …}` — check a `.litmus`
//!   source. Optional fields: `max_states`, `deadline_ms`,
//!   `max_transitions`, `max_mem_bytes` (default
//!   [`rc11_check::DEFAULT_MEM_BUDGET`], 1 GiB), `no_cache` (default
//!   false: probe and populate the verdict cache), `telemetry` (default false: attach a
//!   per-job sink; the response's `telemetry` field carries its snapshot).
//!   Unknown fields are ignored — among them `workers`, which older
//!   clients send: every check runs the one exploration walk. Every check
//!   is an outcome query, so it runs the walk's full reduction.
//! * `{"cmd":"stats"}` — service counters: uptime, request and cache
//!   hit/miss counts, states explored, states/s, the queue-depth gauge
//!   and its peak since startup, the echoed config, and — when started
//!   with `--metrics` — latency percentiles (probe/explore split),
//!   queue-wait, per-worker utilization and cache efficiency by
//!   fingerprint class (`rc11 top` renders these live).
//! * `{"cmd":"ping"}` — liveness probe.
//! * `{"cmd":"shutdown"}` — stop accepting, cancel in-flight work, and
//!   drain: queued jobs resolve with `"stop":"cancelled"`, never hang.
//!
//! Every response carries `"ok"`; failures (parse errors, malformed
//! requests including JSON nested deeper than
//! [`rc11_check::wire::MAX_DEPTH`], lines longer than [`MAX_LINE`] bytes,
//! a full queue) are `{"ok":false,"error":"…"}` — the connection
//! survives them. Check
//! responses mirror [`CheckResponse`] field-for-field with stable encodings: values in
//! the corpus literal syntax (`0`, `true`, `empty`, `bot`), stop
//! reasons and notes via their `Display` strings, the fingerprint as 32
//! hex digits.
//!
//! ## Shutdown discipline
//!
//! `shutdown` (the request, [`DaemonHandle::shutdown`], or process
//! kill) never loses a cached verdict: the cache writes through to disk
//! at insert time, so there is nothing to flush. In-flight explorations
//! share a daemon-wide [`CancelToken`] and stop at their next work item
//! with an explicit non-`Complete` report; queued jobs are drained
//! through the same (already cancelled) token so every waiting client
//! gets an answer.

use rc11_check::telemetry::snapshot_json;
use rc11_check::wire::{obj, parse_json, Json};
use rc11_check::{
    CancelToken, CheckParams, CheckResponse, CheckService, Served, StatsSnapshot, VerdictCache,
    DEFAULT_MEM_BUDGET,
};
use rc11_core::Val;
use rc11_lang::parse::val_literal;
use rc11_telemetry::Telemetry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration. The default binds an ephemeral loopback port
/// with a small pool and a memory-only cache.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (read it back
    /// from [`DaemonHandle::addr`]).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub pool: usize,
    /// Bounded queue depth; a `check` that arrives with the queue full
    /// is rejected with a `busy` error rather than accepted unboundedly.
    pub queue_cap: usize,
    /// In-memory verdict-cache capacity (entries).
    pub cache_cap: usize,
    /// Disk-spill directory for the verdict cache; `None` = memory only.
    pub cache_dir: Option<PathBuf>,
    /// Collect and report extended per-job metrics (`rc11 serve
    /// --metrics`): latency percentiles split by probe/explore,
    /// queue-wait, per-worker utilization, and cache efficiency by
    /// fingerprint class. Counters live in memory only — a restart
    /// resets them (asserted by the daemon smoke script).
    pub metrics: bool,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            pool: 2,
            queue_cap: 64,
            cache_cap: 1024,
            cache_dir: None,
            metrics: false,
        }
    }
}

/// A bounded latency sample ring: keeps the most recent
/// [`Samples::CAP`] values for percentile estimates plus a lifetime
/// count, so `stats` stays O(CAP) however long the daemon runs.
#[derive(Default)]
struct Samples {
    vals: Vec<f64>,
    next: usize,
    total: u64,
}

impl Samples {
    const CAP: usize = 4096;

    fn push(&mut self, v: f64) {
        if self.vals.len() < Samples::CAP {
            self.vals.push(v);
        } else {
            self.vals[self.next] = v;
            self.next = (self.next + 1) % Samples::CAP;
        }
        self.total += 1;
    }

    /// `{count, p50, p90, p99, max}` over the retained window.
    fn summary_json(&self) -> Json {
        let mut sorted = self.vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pct = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        };
        obj(vec![
            ("count", Json::Int(self.total as i64)),
            ("p50_ms", Json::Float(pct(0.50))),
            ("p90_ms", Json::Float(pct(0.90))),
            ("p99_ms", Json::Float(pct(0.99))),
            ("max_ms", Json::Float(sorted.last().copied().unwrap_or(0.0))),
        ])
    }
}

/// Per-fingerprint probe/hit tallies, capped; fingerprints past the cap
/// pool into an overflow bucket so hot keys stay exact.
#[derive(Default)]
struct FpClasses {
    by_fp: HashMap<(u64, u64), (u64, u64)>,
    overflow_probes: u64,
    overflow_hits: u64,
}

impl FpClasses {
    const CAP: usize = 8192;

    fn record(&mut self, fp: (u64, u64), hit: bool) {
        let slot = if self.by_fp.len() < FpClasses::CAP || self.by_fp.contains_key(&fp) {
            self.by_fp.entry(fp).or_insert((0, 0))
        } else {
            self.overflow_probes += 1;
            self.overflow_hits += hit as u64;
            return;
        };
        slot.0 += 1;
        slot.1 += hit as u64;
    }

    /// Aggregate by how often each fingerprint was requested: a
    /// `singleton` was seen once (a hit is only possible via the disk
    /// spill of an earlier daemon), `warm` 2–4 times, `hot` ≥5 — the
    /// split shows where the verdict cache is earning its keep.
    fn classes_json(&self) -> Json {
        let mut agg = [(0u64, 0u64, 0u64); 3]; // (fingerprints, probes, hits)
        for &(probes, hits) in self.by_fp.values() {
            let class = match probes {
                0 | 1 => 0,
                2..=4 => 1,
                _ => 2,
            };
            agg[class].0 += 1;
            agg[class].1 += probes;
            agg[class].2 += hits;
        }
        let class_obj = |(fps, probes, hits): (u64, u64, u64)| {
            obj(vec![
                ("fingerprints", Json::Int(fps as i64)),
                ("probes", Json::Int(probes as i64)),
                ("hits", Json::Int(hits as i64)),
                (
                    "hit_rate",
                    Json::Float(if probes > 0 { hits as f64 / probes as f64 } else { 0.0 }),
                ),
            ])
        };
        obj(vec![
            ("singleton", class_obj(agg[0])),
            ("warm", class_obj(agg[1])),
            ("hot", class_obj(agg[2])),
            ("overflow_probes", Json::Int(self.overflow_probes as i64)),
            ("overflow_hits", Json::Int(self.overflow_hits as i64)),
        ])
    }
}

/// Extended metrics collected when [`DaemonConfig::metrics`] is on.
struct Metrics {
    /// Enqueue → dequeue wait, milliseconds.
    queue_wait: Mutex<Samples>,
    /// End-to-end latency of cache-served jobs, milliseconds.
    probe_latency: Mutex<Samples>,
    /// End-to-end latency of explored jobs, milliseconds.
    explore_latency: Mutex<Samples>,
    /// Busy nanoseconds per pool worker (index = worker).
    worker_busy_nanos: Vec<AtomicU64>,
    /// Jobs completed per pool worker.
    worker_jobs: Vec<AtomicU64>,
    /// Cache efficiency by fingerprint request class.
    fp_classes: Mutex<FpClasses>,
}

impl Metrics {
    fn new(pool: usize) -> Metrics {
        Metrics {
            queue_wait: Mutex::new(Samples::default()),
            probe_latency: Mutex::new(Samples::default()),
            explore_latency: Mutex::new(Samples::default()),
            worker_busy_nanos: (0..pool).map(|_| AtomicU64::new(0)).collect(),
            worker_jobs: (0..pool).map(|_| AtomicU64::new(0)).collect(),
            fp_classes: Mutex::new(FpClasses::default()),
        }
    }
}

/// One queued check job: the raw source, the decoded per-request
/// parameters, and the channel its connection is blocked on.
struct Job {
    source: String,
    params: CheckParams,
    reply: mpsc::Sender<Json>,
    enqueued: Instant,
}

struct Shared {
    service: CheckService,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    queue_cap: usize,
    /// Live queue depth, maintained on enqueue/dequeue so `stats` reads
    /// a coherent gauge instead of racing the queue lock for a
    /// point-in-time sample.
    queue_depth: AtomicUsize,
    /// Deepest the queue has been since startup.
    queue_peak: AtomicUsize,
    shutdown: AtomicBool,
    /// Cloned into every job's `CheckParams::cancel`; cancelled once at
    /// shutdown so in-flight and still-queued jobs all resolve with an
    /// explicit non-`Complete` stop.
    kill: CancelToken,
    started: Instant,
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Extended metrics, present iff [`DaemonConfig::metrics`].
    metrics: Option<Metrics>,
    /// The configuration this daemon started with, echoed by `stats`.
    config: DaemonConfig,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.kill.cancel();
        self.available.notify_all();
    }
}

/// A running daemon: its bound address plus the handles needed to stop
/// it and reclaim every thread.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The address the listener actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current service counters (same numbers the `stats` request
    /// reports).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.service.stats()
    }

    /// Signal shutdown: stop accepting, cancel in-flight explorations,
    /// drain the queue through the cancelled token. Idempotent; does not
    /// block — follow with [`DaemonHandle::join`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the accept loop, the worker pool and every connection
    /// thread to exit. Call after [`DaemonHandle::shutdown`] (or after a
    /// client sent the `shutdown` request).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let conns: Vec<_> = {
            let mut guard = self.shared.conns.lock().expect("conns lock");
            guard.drain(..).collect()
        };
        for h in conns {
            let _ = h.join();
        }
    }

    /// [`DaemonHandle::shutdown`] then [`DaemonHandle::join`].
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }
}

/// Start a daemon. Returns once the listener is bound; the accept loop,
/// worker pool and all connection handling run on background threads.
pub fn start(config: &DaemonConfig) -> io::Result<DaemonHandle> {
    let cache = match &config.cache_dir {
        Some(dir) => VerdictCache::with_disk(config.cache_cap.max(1), dir)?,
        None => VerdictCache::new(config.cache_cap.max(1)),
    };
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let pool = config.pool.max(1);
    let shared = Arc::new(Shared {
        service: CheckService::with_cache(cache),
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        queue_cap: config.queue_cap.max(1),
        queue_depth: AtomicUsize::new(0),
        queue_peak: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        kill: CancelToken::new(),
        started: Instant::now(),
        conns: Mutex::new(Vec::new()),
        metrics: config.metrics.then(|| Metrics::new(pool)),
        config: config.clone(),
    });

    let workers = (0..pool)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rc11d-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("rc11d-accept".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn accept loop")
    };

    Ok(DaemonHandle { addr, shared, accept: Some(accept), workers })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared2 = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("rc11d-conn".to_string())
                    .spawn(move || serve_conn(&shared2, stream))
                    .expect("spawn connection thread");
                shared.conns.lock().expect("conns lock").push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock");
                queue = guard;
            }
        };
        let Some(job) = job else { break };
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let waited = job.enqueued.elapsed();
        // After shutdown the shared token is already cancelled, so a
        // drained job's exploration trips `Cancelled` at its first gate:
        // the waiting client gets an explicit answer, never a hang.
        let busy = Instant::now();
        let outcome = shared.service.check_source(&job.source, &job.params);
        let busy_elapsed = busy.elapsed();
        if let Some(m) = &shared.metrics {
            m.queue_wait.lock().expect("metrics lock").push(waited.as_secs_f64() * 1e3);
            m.worker_busy_nanos[worker].fetch_add(busy_elapsed.as_nanos() as u64, Ordering::Relaxed);
            m.worker_jobs[worker].fetch_add(1, Ordering::Relaxed);
            if let Ok(r) = &outcome {
                let lat_ms = busy_elapsed.as_secs_f64() * 1e3;
                let bucket = match r.served {
                    Served::Explored => &m.explore_latency,
                    _ => &m.probe_latency,
                };
                bucket.lock().expect("metrics lock").push(lat_ms);
                m.fp_classes
                    .lock()
                    .expect("metrics lock")
                    .record((r.fingerprint.hi, r.fingerprint.lo), r.served.is_hit());
            }
        }
        let response = match outcome {
            Ok(r) => check_json(&r),
            Err(e) => error_json(&format!("parse: {e}")),
        };
        let _ = job.reply.send(response);
    }
}

/// The longest request line the daemon reads, in bytes. A longer line is
/// skipped up to its newline without being buffered and answered with a
/// `too-large` error; the connection keeps serving.
pub const MAX_LINE: usize = 4 << 20;

fn serve_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets the thread notice daemon shutdown while
    // parked on an idle connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(150)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // The line so far, and whether it outgrew `MAX_LINE` (its remaining
    // bytes are then dropped as they arrive).
    let mut line: Vec<u8> = Vec::new();
    let mut too_large = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // Timeout with a partial line buffered: keep accumulating.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let eof = buf.is_empty();
        let end = buf.iter().position(|&b| b == b'\n').map(|i| i + 1);
        let chunk = &buf[..end.unwrap_or(buf.len())];
        too_large |= line.len() + chunk.len() > MAX_LINE;
        if !too_large {
            line.extend_from_slice(chunk);
        }
        let used = chunk.len();
        reader.consume(used);
        if end.is_none() && !eof {
            continue;
        }
        // A complete line (or the unterminated tail at end of stream).
        let reply = if too_large {
            Some((error_json(&format!("too-large: request line exceeds {MAX_LINE} bytes")), false))
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => None,
                Ok(text) => Some(handle_line(shared, text)),
                Err(_) => Some((error_json("bad request: line is not UTF-8"), false)),
            }
        };
        line.clear();
        too_large = false;
        if let Some((response, stop)) = reply {
            if writer
                .write_all((response.to_string_line() + "\n").as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
            if stop {
                shared.begin_shutdown();
            }
        }
        if eof {
            break;
        }
    }
}

/// Dispatch one request line. Returns the response and whether the
/// daemon should begin shutdown after it is written.
fn handle_line(shared: &Arc<Shared>, line: &str) -> (Json, bool) {
    let request = match parse_json(line) {
        Ok(j) => j,
        Err(e) => return (error_json(&format!("bad request: {e}")), false),
    };
    match request.get("cmd").and_then(Json::as_str) {
        Some("ping") => (obj(vec![("ok", Json::Bool(true)), ("pong", Json::Bool(true))]), false),
        Some("stats") => (stats_json(shared), false),
        Some("shutdown") => {
            (obj(vec![("ok", Json::Bool(true)), ("stopping", Json::Bool(true))]), true)
        }
        Some("check") => (handle_check(shared, &request), false),
        Some(other) => (error_json(&format!("unknown cmd {other:?}")), false),
        None => (error_json("missing cmd"), false),
    }
}

fn handle_check(shared: &Arc<Shared>, request: &Json) -> Json {
    let Some(source) = request.get("source").and_then(Json::as_str) else {
        return error_json("check: missing source");
    };
    let params = match decode_params(request, &shared.kill) {
        Ok(p) => p,
        Err(e) => return error_json(&e),
    };
    let (reply, result) = mpsc::channel();
    {
        let mut queue = shared.queue.lock().expect("queue lock");
        if shared.shutdown.load(Ordering::SeqCst) {
            return error_json("shutting down");
        }
        if queue.len() >= shared.queue_cap {
            return error_json(&format!("busy: queue full ({} jobs)", queue.len()));
        }
        queue.push_back(Job {
            source: source.to_string(),
            params,
            reply,
            enqueued: Instant::now(),
        });
        let depth = shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        shared.queue_peak.fetch_max(depth, Ordering::Relaxed);
        shared.available.notify_one();
    }
    match result.recv() {
        Ok(response) => response,
        Err(_) => error_json("worker dropped the job"),
    }
}

fn decode_params(request: &Json, kill: &CancelToken) -> Result<CheckParams, String> {
    let mut params = CheckParams { cancel: kill.clone(), ..CheckParams::default() };
    let usize_field = |key: &str| -> Result<Option<usize>, String> {
        match request.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(j) => match j.as_i64() {
                Some(n) if n >= 0 => Ok(Some(n as usize)),
                _ => Err(format!("check: {key} must be a non-negative integer")),
            },
        }
    };
    let bool_field = |key: &str| -> Result<Option<bool>, String> {
        match request.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Bool(b)) => Ok(Some(*b)),
            Some(_) => Err(format!("check: {key} must be a boolean")),
        }
    };
    if let Some(n) = usize_field("max_states")? {
        params.max_states = n;
    }
    if let Some(ms) = usize_field("deadline_ms")? {
        params.budget.deadline = Some(Duration::from_millis(ms as u64));
    }
    if let Some(n) = usize_field("max_transitions")? {
        params.budget.max_transitions = Some(n);
    }
    params.budget.max_mem_bytes = Some(usize_field("max_mem_bytes")?.unwrap_or(DEFAULT_MEM_BUDGET));
    if let Some(b) = bool_field("no_cache")? {
        params.use_cache = !b;
    }
    // A client that wants per-run counters sets `"telemetry": true`;
    // the job gets a private sink and the response carries its snapshot
    // (cache hits answer with a `served_from_cache` snapshot instead).
    if let Some(true) = bool_field("telemetry")? {
        params.telemetry = Some(Arc::new(Telemetry::new()));
    }
    Ok(params)
}

fn tuples_json(set: &BTreeSet<Vec<Val>>) -> Json {
    Json::Arr(
        set.iter()
            .map(|tuple| {
                Json::Arr(tuple.iter().map(|v| Json::Str(val_literal(v))).collect())
            })
            .collect(),
    )
}

/// The stable wire encoding of a check response.
pub fn check_json(r: &CheckResponse) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("name", Json::Str(r.name.clone())),
        (
            "fingerprint",
            Json::Str(format!("{:016x}{:016x}", r.fingerprint.hi, r.fingerprint.lo)),
        ),
        ("served", Json::Str(r.served.as_str().to_string())),
        ("cache_hit", Json::Bool(r.served.is_hit())),
        ("pass", Json::Bool(r.pass)),
        ("observed", tuples_json(&r.observed)),
        ("expected", tuples_json(&r.expected)),
        ("states", Json::Int(r.states as i64)),
        ("transitions", Json::Int(r.transitions as i64)),
        ("deadlocks", Json::Int(r.deadlocks as i64)),
        ("stop", Json::Str(r.stop.to_string())),
        ("notes", Json::Arr(r.notes.iter().map(|n| Json::Str(n.to_string())).collect())),
        ("wall_ms", Json::Float(r.wall.as_secs_f64() * 1e3)),
        (
            "telemetry",
            match &r.telemetry {
                Some(snap) => snapshot_json(snap),
                None => Json::Null,
            },
        ),
    ])
}

fn error_json(message: &str) -> Json {
    obj(vec![("ok", Json::Bool(false)), ("error", Json::Str(message.to_string()))])
}

fn stats_json(shared: &Arc<Shared>) -> Json {
    let s = shared.service.stats();
    let uptime = shared.started.elapsed().as_secs_f64();
    // The gauge, not a racy `queue.lock().len()` sample: maintained on
    // enqueue/dequeue, with the peak since startup alongside.
    let queue_depth = shared.queue_depth.load(Ordering::Relaxed);
    let queue_peak = shared.queue_peak.load(Ordering::Relaxed);
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("uptime_secs", Json::Float(uptime)),
        ("requests", Json::Int(s.requests as i64)),
        ("mem_hits", Json::Int(s.cache.mem_hits as i64)),
        ("disk_hits", Json::Int(s.cache.disk_hits as i64)),
        ("misses", Json::Int(s.cache.misses as i64)),
        ("hit_rate", Json::Float(s.cache.hit_rate())),
        ("inserts", Json::Int(s.cache.inserts as i64)),
        ("evictions", Json::Int(s.cache.evictions as i64)),
        ("explored_runs", Json::Int(s.explored_runs as i64)),
        ("states_explored", Json::Int(s.states_explored as i64)),
        ("transitions_explored", Json::Int(s.transitions_explored as i64)),
        ("states_per_sec", Json::Float(s.states_per_sec())),
        ("queue_depth", Json::Int(queue_depth as i64)),
        ("queue_peak", Json::Int(queue_peak as i64)),
        (
            "config",
            obj(vec![
                ("pool", Json::Int(shared.config.pool.max(1) as i64)),
                ("queue_cap", Json::Int(shared.queue_cap as i64)),
                ("cache_cap", Json::Int(shared.config.cache_cap as i64)),
                (
                    "cache_dir",
                    match &shared.config.cache_dir {
                        Some(d) => Json::Str(d.display().to_string()),
                        None => Json::Null,
                    },
                ),
                ("metrics", Json::Bool(shared.config.metrics)),
            ]),
        ),
    ];
    if let Some(m) = &shared.metrics {
        let workers = Json::Arr(
            m.worker_busy_nanos
                .iter()
                .zip(&m.worker_jobs)
                .map(|(busy, jobs)| {
                    let busy_secs = busy.load(Ordering::Relaxed) as f64 / 1e9;
                    obj(vec![
                        ("jobs", Json::Int(jobs.load(Ordering::Relaxed) as i64)),
                        ("busy_secs", Json::Float(busy_secs)),
                        (
                            "utilization",
                            Json::Float(if uptime > 0.0 { busy_secs / uptime } else { 0.0 }),
                        ),
                    ])
                })
                .collect(),
        );
        fields.push((
            "metrics",
            obj(vec![
                (
                    "queue_wait",
                    m.queue_wait.lock().expect("metrics lock").summary_json(),
                ),
                (
                    "probe_latency",
                    m.probe_latency.lock().expect("metrics lock").summary_json(),
                ),
                (
                    "explore_latency",
                    m.explore_latency.lock().expect("metrics lock").summary_json(),
                ),
                ("workers", workers),
                (
                    "fp_classes",
                    m.fp_classes.lock().expect("metrics lock").classes_json(),
                ),
            ]),
        ));
    }
    obj(fields)
}

/// A blocking line-protocol client for the daemon — used by
/// `rc11 submit`, the test battery and the CI smoke script.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Send one request object, read one response object.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        self.writer.write_all((request.to_string_line() + "\n").as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed connection"));
        }
        parse_json(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// `check` a `.litmus` source with extra request fields
    /// (`deadline_ms`, `no_cache`, …) merged in.
    pub fn check_with(&mut self, source: &str, extra: Vec<(&str, Json)>) -> io::Result<Json> {
        let mut fields = vec![("cmd", Json::Str("check".to_string())),
            ("source", Json::Str(source.to_string()))];
        fields.extend(extra);
        let request = obj(fields);
        self.request(&request)
    }

    /// `check` a `.litmus` source with daemon defaults.
    pub fn check(&mut self, source: &str) -> io::Result<Json> {
        self.check_with(source, Vec::new())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<bool> {
        let r = self.request(&obj(vec![("cmd", Json::Str("ping".to_string()))]))?;
        Ok(r.get("pong").and_then(Json::as_bool) == Some(true))
    }

    /// Fetch the service counters.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&obj(vec![("cmd", Json::Str("stats".to_string()))]))
    }

    /// Ask the daemon to stop (it acknowledges, then drains and exits).
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&obj(vec![("cmd", Json::Str("shutdown".to_string()))]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A check request that sets no `max_mem_bytes` runs under the
    /// default memory budget; one that sets it gets exactly that.
    #[test]
    fn checks_default_to_the_memory_budget() {
        let kill = CancelToken::default();
        let plain = parse_json(r#"{"cmd":"check","source":""}"#).expect("json");
        let params = decode_params(&plain, &kill).expect("decodes");
        assert_eq!(params.budget.max_mem_bytes, Some(DEFAULT_MEM_BUDGET));
        let set = parse_json(r#"{"cmd":"check","source":"","max_mem_bytes":4096}"#).expect("json");
        assert_eq!(decode_params(&set, &kill).expect("decodes").budget.max_mem_bytes, Some(4096));
    }
}
