//! The daemon stream of `corpus_cold`'s traced run: rc11d on loopback
//! with its default pool, driven by an open loop from this process over
//! `available_parallelism` connections. The seeded stream mixes repeated
//! corpus files (memory-cache hits once the cache is primed at set-up)
//! with fresh generated programs, which explore cold and insert into the
//! cache. Fresh programs are capped in size, and their answers computed
//! by an in-process sequential reference, before the stream starts. The
//! disk spill stays off.
//!
//! The offered rate, the fresh share, the parallel share of fresh
//! requests and the state cap below are assumed, not taken from recorded
//! daemon traffic: the repository has no daemon traffic log yet.

use crate::corpus::{self, File};
use crate::gate::{corrupt, Gate};
use crate::layers::{self, Layers};
use crate::spans::Tracer;
use crate::stats::{median, tail, Rng};
use crate::Ctx;
use rc11::check::gen::{generate, GenOptions};
use rc11::check::wire::{obj, parse_json, Json};
use rc11::check::{snapshot_from_json, CheckParams, Engine, ExploreOptions, Fp128};
use rc11::core::Val;
use rc11::daemon::{self, Client, DaemonConfig, DaemonHandle};
use rc11::lang::machine::NoObjects;
use rc11::lang::parse::{parse_litmus, val_literal};
use rc11::telemetry::TelemetrySnapshot;
use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};

/// Offered load: requests per second, Poisson arrivals (assumed).
pub const RATE: f64 = 200.0;
/// Planned share of fresh (cold) programs in the stream (assumed).
pub const FRESH_SHARE: f64 = 0.1;
/// Fresh programs whose reference exploration exceeds this many states
/// are replaced by the next candidate (assumed).
pub const MAX_FRESH_STATES: usize = 1_000;

/// What one request sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A corpus file (by index): a cache hit once primed.
    Warm(usize),
    /// A fresh generated program (by index into the fresh list).
    Fresh(usize),
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// When it is due, seconds after the stream starts.
    pub due_s: f64,
    /// The connection that sends it.
    pub conn: usize,
    /// What it sends.
    pub kind: Kind,
    /// Engine workers it asks for.
    pub workers: usize,
}

/// The seeded request stream for `seconds` of offered load, and the
/// generator seed of each fresh slot.
pub fn plan(
    seed: u64,
    seconds: f64,
    conns: usize,
    n_files: usize,
    par: usize,
) -> (Vec<Req>, Vec<u64>) {
    let mut rng = Rng::new(seed, 7);
    let (mut reqs, mut fresh) = (Vec::new(), Vec::new());
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / RATE;
        if t >= seconds {
            break;
        }
        let (kind, workers) = if rng.unit() < FRESH_SHARE {
            fresh.push(rng.next_u64());
            // Half the fresh programs ask for a parallel check.
            (
                Kind::Fresh(fresh.len() - 1),
                if rng.below(2) == 0 { 1 } else { par },
            )
        } else {
            (Kind::Warm(rng.below(n_files as u64) as usize), 1)
        };
        let conn = reqs.len() % conns.max(1);
        reqs.push(Req {
            due_s: t,
            conn,
            kind,
            workers,
        });
    }
    (reqs, fresh)
}

/// A fresh program with its reference answer.
pub struct Fresh {
    /// `.litmus` source, its `expected` block set to the reference.
    pub src: String,
    /// The reference outcome set, in wire form.
    pub observed: BTreeSet<Vec<String>>,
    /// The reference deadlock count.
    pub deadlocks: usize,
    /// States the reference explored.
    pub states: usize,
}

fn wire_set(set: &BTreeSet<Vec<Val>>) -> BTreeSet<Vec<String>> {
    set.iter()
        .map(|t| t.iter().map(val_literal).collect())
        .collect()
}

fn wire_set_of(j: Option<&Json>) -> BTreeSet<Vec<String>> {
    j.and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|t| {
            t.as_arr()
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_str().unwrap_or("?").to_string())
                .collect()
        })
        .collect()
}

/// Generate the fresh program for slot `seed`: the first candidate
/// whose reference stays within [`MAX_FRESH_STATES`] and whose cache key
/// is new. The reference is a sequential exploration of the parsed
/// source itself.
pub fn fresh_program(seed: u64, taken: &mut HashSet<Fp128>) -> Fresh {
    let opts = ExploreOptions {
        record_traces: false,
        max_states: MAX_FRESH_STATES,
        ..ExploreOptions::default()
    };
    let mut rng = Rng::new(seed, 11);
    let shape = GenOptions {
        max_threads: 3,
        ..GenOptions::default()
    };
    loop {
        let g = generate(rng.next_u64(), &shape);
        let name = format!("fresh-{seed:016x}");
        let bare = g.to_litmus_source(&name, "", &BTreeSet::new());
        let parsed = parse_litmus(&bare).expect("generated sources parse");
        let r = Engine::Sequential.explore(&rc11::lang::compile(&parsed.prog), &NoObjects, &opts);
        if !r.stop.is_complete() {
            continue;
        }
        let observed: BTreeSet<Vec<Val>> = r
            .terminated
            .iter()
            .map(|c| {
                parsed
                    .observe
                    .iter()
                    .map(|&(t, reg)| c.reg(t, reg))
                    .collect()
            })
            .collect();
        let key = layers::cache_key(
            &parsed.prog,
            &parsed.observe,
            &observed,
            &CheckParams::default(),
        );
        if !taken.insert(key.0) {
            continue;
        }
        return Fresh {
            src: g.to_litmus_source(&name, "", &observed),
            observed: wire_set(&observed),
            deadlocks: r.deadlocked.len(),
            states: r.states,
        };
    }
}

/// Everything set-up builds.
struct Setup {
    files: Vec<File>,
    reqs: Vec<Req>,
    fresh: Vec<Fresh>,
    daemon: DaemonHandle,
    clients: Vec<Client>,
}

/// Plan the stream, build the fresh programs and their references, start
/// the daemon (with its metrics on), connect, and prime the cache.
fn setup(
    ctx: &Ctx,
    gate: &mut Gate,
    keys: &mut Vec<BTreeSet<Vec<String>>>,
) -> Result<Setup, String> {
    let files = corpus::load()?;
    let conns = ctx.par.max(1);
    let (reqs, seeds) = plan(ctx.seed, ctx.seconds, conns, files.len(), ctx.par);
    let mut taken: HashSet<Fp128> = files
        .iter()
        .map(|f| {
            let p = parse_litmus(&f.src).expect("corpus parsed at load");
            layers::cache_key(&p.prog, &p.observe, &p.expected, &CheckParams::default()).0
        })
        .collect();
    let fresh: Vec<Fresh> = seeds
        .iter()
        .map(|&s| fresh_program(s, &mut taken))
        .collect();
    *keys = files
        .iter()
        .enumerate()
        .map(|(i, f)| {
            wire_set(&if ctx.inject_wrong && i == 0 {
                corrupt(&f.expected)
            } else {
                f.expected.clone()
            })
        })
        .collect();
    let config = DaemonConfig {
        metrics: true,
        ..DaemonConfig::default()
    };
    let daemon = daemon::start(&config).map_err(|e| format!("daemon start: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..conns {
        clients.push(Client::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    // Prime the verdict cache with every corpus file, so the stream's
    // repeats are memory hits from the first one on.
    for (i, f) in files.iter().enumerate() {
        let r = clients[0]
            .check(&f.src)
            .map_err(|e| format!("prime: {e}"))?;
        judge_warm(gate, &f.name, &keys[i], &r);
    }
    Ok(Setup {
        files,
        reqs,
        fresh,
        daemon,
        clients,
    })
}

fn shutdown(s: Setup) {
    drop(s.clients);
    s.daemon.stop();
}

fn judge_warm(gate: &mut Gate, name: &str, key: &BTreeSet<Vec<String>>, r: &Json) {
    if r.get("ok").and_then(Json::as_bool) != Some(true) {
        let e = r
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error text");
        gate.error(name, e);
        return;
    }
    let deadlocks = r
        .get("deadlocks")
        .and_then(Json::as_i64)
        .map_or(usize::MAX, |d| d as usize);
    let complete = r.get("stop").and_then(Json::as_str) == Some("complete");
    gate.expect(
        name,
        &wire_set_of(r.get("observed")),
        deadlocks,
        complete,
        key,
    );
}

fn judge_fresh(gate: &mut Gate, f: &Fresh, r: &Json) {
    if r.get("ok").and_then(Json::as_bool) != Some(true) {
        let e = r
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error text");
        gate.error("fresh", e);
        return;
    }
    let deadlocks = r
        .get("deadlocks")
        .and_then(Json::as_i64)
        .map_or(usize::MAX, |d| d as usize);
    let complete = r.get("stop").and_then(Json::as_str) == Some("complete");
    if wire_set_of(r.get("observed")) == f.observed && deadlocks == f.deadlocks && complete {
        gate.checked += 1;
    } else {
        gate.mismatch(format!(
            "fresh program disagrees with its sequential reference:\n{}",
            f.src
        ));
    }
}

/// One request's result as the client saw it.
struct Done {
    idx: usize,
    /// Due time → response, ms.
    lat_ms: f64,
    /// Send → response (round trip), µs.
    rtt_us: f64,
    /// How late the request was sent after its due time, ms.
    late_ms: f64,
    response: Result<Json, String>,
}

/// Sleep until `t`. The generator never spins: the daemon shares the
/// CPUs, and the timer's overshoot shows up as lateness, which counts.
fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The request fields beyond `cmd` and `source`.
fn extra_fields(workers: usize, traced: bool) -> Vec<(&'static str, Json)> {
    let mut extra = Vec::new();
    if workers != 1 {
        extra.push(("workers", Json::Int(workers as i64)));
    }
    if traced {
        extra.push(("telemetry", Json::Bool(true)));
    }
    extra
}

/// Drive the stream: one thread per connection sends its requests at
/// their due times. Odd-numbered requests carry spans and a telemetry
/// sink; even ones stay untraced for the overhead ratio.
fn drive(s: &mut Setup, epoch: Instant) -> (Vec<Done>, Vec<Tracer>, f64) {
    let start = Instant::now() + Duration::from_millis(5);
    let (reqs, files, fresh) = (&s.reqs, &s.files, &s.fresh);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(epoch);
                    let mut done = Vec::new();
                    for (idx, q) in reqs.iter().enumerate().filter(|(_, q)| q.conn == c) {
                        let src = match q.kind {
                            Kind::Warm(i) => files[i].src.as_str(),
                            Kind::Fresh(i) => fresh[i].src.as_str(),
                        };
                        let trace_this = idx % 2 == 1;
                        let due = start + Duration::from_secs_f64(q.due_s);
                        wait_until(due);
                        let sent = Instant::now();
                        let extra = extra_fields(q.workers, trace_this);
                        let response = if trace_this {
                            let mut fields = vec![
                                ("cmd", Json::Str("check".into())),
                                ("source", Json::Str(src.into())),
                            ];
                            fields.extend(extra.iter().cloned());
                            let req_json = obj(fields);
                            std::hint::black_box(
                                tr.leaf("wire.encode", idx as u64, || req_json.to_string_line()),
                            );
                            let sp = tr.begin("daemon.request", idx as u64);
                            let r = client.request(&req_json);
                            tr.end(sp);
                            if let Ok(j) = &r {
                                let line = j.to_string_line();
                                let decoded =
                                    tr.leaf("wire.decode", idx as u64, || parse_json(&line));
                                std::hint::black_box(decoded.is_ok());
                            }
                            r
                        } else {
                            client.check_with(src, extra)
                        };
                        let now = Instant::now();
                        done.push(Done {
                            idx,
                            lat_ms: (now - due).as_secs_f64() * 1e3,
                            rtt_us: (now - sent).as_secs_f64() * 1e6,
                            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            response: response.map_err(|e| e.to_string()),
                        });
                    }
                    (done, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    let mut tracers = Vec::new();
    for (d, t) in results {
        all.extend(d);
        tracers.push(t);
    }
    all.sort_by_key(|d| d.idx);
    (all, tracers, wall)
}

/// What judging the stream found besides the gate's tallies.
struct Judged {
    /// How late each request was sent after its due time, ms.
    late_ms: Vec<f64>,
    /// Responses served from the cache.
    hits: usize,
}

fn judge_stream(
    s: &Setup,
    done: &[Done],
    gate: &mut Gate,
    keys: &[BTreeSet<Vec<String>>],
) -> Judged {
    let mut j = Judged {
        late_ms: Vec::new(),
        hits: 0,
    };
    for d in done {
        j.late_ms.push(d.late_ms);
        let r = match &d.response {
            Ok(r) => r,
            Err(e) => {
                gate.error("daemon request", e);
                continue;
            }
        };
        match s.reqs[d.idx].kind {
            Kind::Warm(i) => judge_warm(gate, &s.files[i].name, &keys[i], r),
            Kind::Fresh(i) => judge_fresh(gate, &s.fresh[i], r),
        }
        if r.get("cache_hit").and_then(Json::as_bool) == Some(true) {
            j.hits += 1;
        }
    }
    j
}

fn nonempty(xs: &[f64], what: &str) -> Result<(), String> {
    if xs.is_empty() {
        Err(format!("no {what} samples: run longer"))
    } else {
        Ok(())
    }
}

fn stat_f(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for k in path {
        match cur.get(k) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

fn busy_secs(stats: &Json) -> f64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("workers"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|w| stat_f(w, &["busy_secs"]))
        .sum()
}

/// Drive the stream with spans and telemetry on, and measure the layers
/// it exercises: wire, daemon, cache, front end and engine.
pub fn traced_layers(
    ctx: &Ctx,
    tr: &mut Tracer,
    gate: &mut Gate,
) -> Result<(Layers, Vec<(String, Json)>), String> {
    let mut keys = Vec::new();
    let mut s = setup(ctx, gate, &mut keys)?;
    let before = s.clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    let (done, tracers, wall) = drive(&mut s, tr.epoch());
    let after = s.clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    for t in tracers {
        tr.absorb(t);
    }
    let j = judge_stream(&s, &done, gate, &keys);
    let mut lay = Layers::default();

    // Engine and telemetry layers, from the cold responses.
    let (mut states, mut transitions, mut engine_ms) = (0.0, 0.0, 0.0);
    let mut tel = TelemetrySnapshot::default();
    for d in &done {
        let Ok(r) = &d.response else { continue };
        if r.get("cache_hit").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        states += stat_f(r, &["states"]);
        transitions += stat_f(r, &["transitions"]);
        engine_ms += stat_f(r, &["wall_ms"]);
        if let Some(snap) = r.get("telemetry").and_then(snapshot_from_json) {
            layers::add_counters(&mut tel, &snap);
        }
    }
    lay.tel = tel;
    lay.states = states;
    lay.transitions = transitions;
    lay.novel_frac = states / transitions.max(1.0);
    lay.explore_us_per_state = engine_ms * 1e3 / states.max(1.0);

    // Daemon layers.
    let overhead: Vec<f64> = done
        .iter()
        .filter_map(|d| {
            let r = d.response.as_ref().ok()?;
            Some(d.rtt_us - r.get("wall_ms")?.as_f64()? * 1e3)
        })
        .collect();
    lay.daemon_overhead_us = if overhead.is_empty() {
        0.0
    } else {
        median(&overhead)
    };
    lay.daemon_queue_wait_tail_ms = stat_f(&after, &["metrics", "queue_wait", "p99_ms"]);
    let pool = stat_f(&after, &["config", "pool"]).max(1.0);
    lay.daemon_worker_util = (busy_secs(&after) - busy_secs(&before)) / (pool * wall);
    lay.daemon_gen_late_ms = tail(&j.late_ms).value;
    let (mut traced_warm, mut plain_warm) = (Vec::new(), Vec::new());
    for d in &done {
        let hit = d
            .response
            .as_ref()
            .ok()
            .and_then(|r| r.get("cache_hit")?.as_bool())
            == Some(true);
        if hit {
            if d.idx % 2 == 1 {
                &mut traced_warm
            } else {
                &mut plain_warm
            }
            .push(d.lat_ms);
        }
    }
    nonempty(&traced_warm, "traced warm")?;
    nonempty(&plain_warm, "untraced warm")?;
    lay.trace_overhead = median(&traced_warm) / median(&plain_warm);

    // Front-end layers over the stream's distinct programs, and the cache
    // layer replayed over its keys: primed with the corpus, then the
    // stream in order.
    let params = CheckParams::default();
    let mut cache_keys = Vec::new();
    let sources = s
        .files
        .iter()
        .map(|f| f.src.as_str())
        .chain(s.fresh.iter().map(|f| f.src.as_str()));
    for (i, src) in sources.enumerate() {
        let p = layers::parse(tr, i as u64, src);
        layers::program_layers(tr, i as u64, &p.prog, &p.observe, &p.expected);
        cache_keys.push(layers::cache_key(&p.prog, &p.observe, &p.expected, &params));
    }
    let nf = s.files.len();
    let order: Vec<usize> = (0..nf)
        .chain(s.reqs.iter().map(|q| match q.kind {
            Kind::Warm(i) => i,
            Kind::Fresh(i) => nf + i,
        }))
        .collect();
    layers::cache_replay(tr, &cache_keys, &order, DaemonConfig::default().cache_cap);
    let planned_fresh = s
        .reqs
        .iter()
        .filter(|q| matches!(q.kind, Kind::Fresh(_)))
        .count();
    lay.cache_planned_hit_frac = 1.0 - planned_fresh as f64 / s.reqs.len() as f64;
    lay.cache_hit_frac = j.hits as f64 / s.reqs.len() as f64;
    lay.fill_from_spans(tr);
    lay.wire_encode_us = tr.per_item_us("wire.encode");
    lay.wire_decode_us = tr.per_item_us("wire.decode");
    let fresh_states_max = s.fresh.iter().map(|f| f.states).max().unwrap_or(0);
    shutdown(s);
    let detail = vec![
        ("daemon_requests".into(), Json::Int(done.len() as i64)),
        ("daemon_stream_wall_s".into(), Json::Float(wall)),
        (
            "daemon_fresh_states_max".into(),
            Json::Int(fresh_states_max as i64),
        ),
        ("daemon_stats_after".into(), after),
    ];
    Ok((lay, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        let a = plan(42, 2.0, 2, 58, 2);
        let b = plan(42, 2.0, 2, 58, 2);
        let c = plan(43, 2.0, 2, 58, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let (reqs, fresh) = a;
        assert!(reqs.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(reqs.iter().all(|q| q.conn < 2));
        let n_fresh = reqs
            .iter()
            .filter(|q| matches!(q.kind, Kind::Fresh(_)))
            .count();
        assert_eq!(n_fresh, fresh.len());
        // Offered rate and mix land near the plan.
        let n = reqs.len() as f64;
        assert!((n / 2.0 - RATE).abs() < RATE * 0.25, "{n} requests in 2 s");
        assert!((n_fresh as f64 / n - FRESH_SHARE).abs() < 0.08);
    }

    #[test]
    fn fresh_programs_are_deterministic_capped_and_distinct() {
        let (_, seeds) = plan(5, 1.0, 2, 58, 2);
        let mut t1 = HashSet::new();
        let mut t2 = HashSet::new();
        let a: Vec<Fresh> = seeds
            .iter()
            .take(5)
            .map(|&s| fresh_program(s, &mut t1))
            .collect();
        let b: Vec<Fresh> = seeds
            .iter()
            .take(5)
            .map(|&s| fresh_program(s, &mut t2))
            .collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.src, y.src);
            assert!(x.states <= MAX_FRESH_STATES);
        }
        assert_eq!(t1.len(), 5, "every fresh program has its own cache key");
    }
}
