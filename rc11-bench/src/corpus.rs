//! `corpus_cold`: one closed-loop client sends every `corpus/*.litmus`
//! file, each pass in seeded order, through `CheckService::check_source`
//! with no cache at 1 worker. Each cycle also runs the pass at
//! `available_parallelism` workers, and a cold then a warm pass through
//! a cache-fronted service (the `cold_*`/`warm_*` metrics).

use crate::gate::{corrupt, Gate};
use crate::layers::{self, take_scheduler_counters, Layers, Replay};
use crate::report::{m, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, tail, Rng};
use crate::{mixed, peak_rss_bytes, Ctx};
use rc11::check::wire::Json;
use rc11::check::{CheckParams, CheckResponse, CheckService, ExploreOptions, VerdictCache};
use rc11::core::Val;
use rc11::lang::machine::NoObjects;
use rc11::lang::parse::parse_litmus;
use rc11::objects::AbstractObjects;
use rc11::telemetry::Telemetry;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Per-file latency limit for `slo_met_frac` on this workload.
pub const SLO_MS: f64 = 100.0;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// One corpus file: its source and its known answer.
pub struct File {
    /// File stem.
    pub name: String,
    /// `.litmus` source text.
    pub src: String,
    /// The file's `expected` block.
    pub expected: BTreeSet<Vec<Val>>,
}

/// The corpus directory of the repository under test.
pub fn corpus_dir() -> PathBuf {
    crate::report::bench_dir().join("..").join("corpus")
}

/// Read and parse every corpus file, sorted by name.
pub fn load() -> Result<Vec<File>, String> {
    let dir = corpus_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .litmus files", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let src = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let parsed = parse_litmus(&src).map_err(|e| format!("{}: {e}", p.display()))?;
            let name = p
                .file_stem()
                .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
            Ok(File {
                name,
                src,
                expected: parsed.expected,
            })
        })
        .collect()
}

/// The seeded order of pass `k`.
pub fn pass_order(seed: u64, k: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 1_000 + k).shuffle(&mut order);
    order
}

fn params(workers: usize, use_cache: bool) -> CheckParams {
    CheckParams {
        workers,
        use_cache,
        ..CheckParams::default()
    }
}

/// The answer key, corrupted for the first file when the run was asked
/// to prove that the gate fires.
fn answer_keys(files: &[File], inject_wrong: bool) -> Vec<BTreeSet<Vec<Val>>> {
    files
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if inject_wrong && i == 0 {
                corrupt(&f.expected)
            } else {
                f.expected.clone()
            }
        })
        .collect()
}

fn judge(
    gate: &mut Gate,
    f: &File,
    key: &BTreeSet<Vec<Val>>,
    r: Result<CheckResponse, String>,
) -> Option<CheckResponse> {
    match r {
        Ok(r) => {
            gate.expect(&f.name, &r.observed, r.deadlocks, r.stop.is_complete(), key);
            Some(r)
        }
        Err(e) => {
            gate.error(&f.name, &e);
            None
        }
    }
}

/// What one pass over the corpus measured.
#[derive(Default)]
struct Pass {
    /// Per-file latencies, ms.
    lats: Vec<f64>,
    /// The whole pass, s.
    wall: f64,
    /// Engine wall summed over the responses, s.
    engine_s: f64,
    states: usize,
    transitions: usize,
}

/// One pass in `order`.
fn pass(
    svc: &CheckService,
    p: &CheckParams,
    files: &[File],
    keys: &[BTreeSet<Vec<Val>>],
    order: &[usize],
    gate: &mut Gate,
) -> Pass {
    let mut out = Pass {
        lats: Vec::with_capacity(order.len()),
        ..Pass::default()
    };
    let start = Instant::now();
    for &i in order {
        let t = Instant::now();
        let r = svc.check_source(&files[i].src, p);
        out.lats.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(r) = judge(gate, &files[i], &keys[i], r) {
            out.engine_s += r.wall.as_secs_f64();
            out.states += r.states;
            out.transitions += r.transitions;
        }
    }
    out.wall = start.elapsed().as_secs_f64();
    out
}

fn timed_setup(ctx: &Ctx) -> Result<(Vec<File>, Vec<f64>), String> {
    let files = load()?;
    let mut setups = vec![ctx.start.elapsed().as_secs_f64()];
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(load()?);
        setups.push(t.elapsed().as_secs_f64());
    }
    Ok((files, setups))
}

/// The samples of an untraced run.
#[derive(Default)]
struct Samples {
    /// Per-file latencies at 1 worker, no cache, ms.
    lat1: Vec<f64>,
    /// Per-file latencies of the cold and warm cache-fronted passes, ms.
    cold: Vec<f64>,
    warm: Vec<f64>,
    /// Pass walls at 1 and `par` workers, s.
    wall1: Vec<f64>,
    walln: Vec<f64>,
}

/// Cycle `k`: the four passes, all in the cycle's seeded order.
fn cycle(
    ctx: &Ctx,
    k: u64,
    svc: &CheckService,
    files: &[File],
    keys: &[BTreeSet<Vec<Val>>],
    gate: &mut Gate,
    s: &mut Samples,
) {
    let order = pass_order(ctx.seed, k, files.len());
    let one = pass(svc, &params(1, false), files, keys, &order, gate);
    s.lat1.extend(one.lats);
    s.wall1.push(one.wall);
    s.walln
        .push(pass(svc, &params(ctx.par, false), files, keys, &order, gate).wall);
    let cached = CheckService::with_cache(VerdictCache::new(1024));
    let pc = params(1, true);
    s.cold
        .extend(pass(&cached, &pc, files, keys, &order, gate).lats);
    s.warm
        .extend(pass(&cached, &pc, files, keys, &order, gate).lats);
}

/// Processes whose median peak RSS is `peak_rss_mb`.
const RSS_CHILDREN: usize = 5;

/// The environment of those processes. With glibc's default of one
/// malloc arena per thread, a child's peak depends on how much of each
/// worker thread's arena the parallel pass happens to touch: identical
/// children range over 16–20 MB. With one arena they agree within 2%.
const RSS_CHILD_ENV: [(&str, &str); 1] = [("MALLOC_ARENA_MAX", "1")];

/// Child mode: one cycle in a fresh process, reporting its peak RSS. A
/// long run's own peak grows with heap fragmentation over its cycles;
/// a fresh process measures what one cycle needs.
pub fn child(ctx: &Ctx) -> Result<Json, String> {
    let files = load()?;
    let keys = answer_keys(&files, false);
    let mut gate = Gate::default();
    cycle(
        ctx,
        0,
        &CheckService::new(),
        &files,
        &keys,
        &mut gate,
        &mut Samples::default(),
    );
    Ok(rc11::check::wire::obj(vec![
        ("rss_bytes", Json::Int(peak_rss_bytes() as i64)),
        ("wrong", Json::Int(gate.failed() as i64)),
    ]))
}

/// The untraced run: every end-to-end metric.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (files, setups) = timed_setup(ctx)?;
    let keys = answer_keys(&files, ctx.inject_wrong);
    let mut gate = Gate::default();
    let svc = CheckService::new();
    let mut s = Samples::default();
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        cycle(ctx, k, &svc, &files, &keys, &mut gate, &mut s);
        k += 1;
    }
    let mut rss = Vec::new();
    for _ in 0..RSS_CHILDREN {
        let seed = ctx.seed.to_string();
        let j = crate::run_child(&["--child", "corpus", "--seed", &seed], &RSS_CHILD_ENV)?;
        if j.get("wrong").and_then(Json::as_i64) != Some(0) {
            gate.mismatch("corpus cycle in a child process gave a wrong answer".into());
        }
        rss.push(
            j.get("rss_bytes")
                .and_then(Json::as_f64)
                .ok_or("child: no rss_bytes")?,
        );
    }
    let met = s.lat1.iter().filter(|&&l| l <= SLO_MS).count();
    let (t1, tw, tc) = (tail(&s.lat1), tail(&s.warm), tail(&s.cold));
    let failed = gate.failed();
    Ok(Outcome {
        attempted: gate.checked,
        failed,
        metrics: vec![
            m("setup_s", median(&setups), "s"),
            m("wall_s", median(&s.wall1), "s"),
            m("wall_par_s", median(&s.walln), "s"),
            m("p50_ms", median(&s.lat1), "ms"),
            m("tail_ms", t1.value, "ms"),
            m("warm_p50_ms", median(&s.warm), "ms"),
            m("cold_p50_ms", median(&s.cold), "ms"),
            m("cold_tail_ms", tc.value, "ms"),
            m("slo_met_frac", met as f64 / s.lat1.len() as f64, "frac"),
            m("peak_rss_mb", median(&rss) / 1e6, "MB"),
            m(
                "ok_frac",
                1.0 - failed as f64 / gate.checked.max(1) as f64,
                "frac",
            ),
        ],
        detail: vec![
            ("files".into(), Json::Int(files.len() as i64)),
            ("passes".into(), Json::Int(k as i64)),
            (
                "run_peak_rss_mb".into(),
                Json::Float(peak_rss_bytes() as f64 / 1e6),
            ),
            ("par_workers".into(), Json::Int(ctx.par as i64)),
            ("tail_pct".into(), Json::Float(t1.pct)),
            ("tail_n".into(), Json::Int(t1.n as i64)),
            ("warm_tail_ms".into(), Json::Float(tw.value)),
            ("warm_tail_pct".into(), Json::Float(tw.pct)),
            ("cold_tail_pct".into(), Json::Float(tc.pct)),
            ("slo_ms".into(), Json::Float(SLO_MS)),
        ],
        wrong: gate.wrong,
    })
}

/// The traced run: every per-layer metric this workload exercises.
pub fn run_traced(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let (files, _) = timed_setup(ctx)?;
    let keys = answer_keys(&files, ctx.inject_wrong);
    let mut gate = Gate::default();
    let svc = CheckService::new();
    let mut lay = Layers::default();
    let p1 = params(1, false);

    // Untraced and traced 1-worker passes alternate for two thirds of the
    // time; the ratio of their median walls is the tracing overhead. The
    // last third drives the daemon (see below).
    let (mut wall_u, mut wall_t) = (Vec::new(), Vec::new());
    let (mut pass_1, mut wall_n) = (Vec::new(), Vec::new());
    let sink = Telemetry::shared();
    let (mut engine_wall, mut states, mut transitions) = (0.0, 0usize, 0usize);
    let mut overhead_us = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while k < 3 || start.elapsed().as_secs_f64() < ctx.seconds * 2.0 / 3.0 {
        let order = pass_order(ctx.seed, k, files.len());
        let untraced = pass(&svc, &p1, &files, &keys, &order, &mut gate);
        pass_1.push(untraced.wall);
        // Only the check calls, as the traced side below times them.
        wall_u.push(untraced.lats.iter().sum::<f64>() / 1e3);
        if k == 0 {
            (engine_wall, states, transitions) =
                (untraced.engine_s, untraced.states, untraced.transitions);
        }
        let traced = CheckParams {
            telemetry: Some(Arc::clone(&sink)),
            ..p1.clone()
        };
        let mut traced_wall = 0.0;
        for &i in &order {
            let req = (k << 16) | i as u64;
            let f = &files[i];
            let parsed = layers::parse(tr, req, &f.src);
            let parse_ns = tr.spans().last().map_or(0, |s| s.end_ns - s.start_ns);
            layers::program_layers(tr, req, &parsed.prog, &parsed.observe, &parsed.expected);
            let s = tr.begin("request.check_source", req);
            let r = svc.check_source(&f.src, &traced);
            tr.end(s);
            let check_ns = tr.spans().last().map_or(0, |s| s.end_ns - s.start_ns);
            traced_wall += check_ns as f64 / 1e9;
            if let Some(r) = judge(&mut gate, f, &keys[i], r) {
                let rest = check_ns as f64 - r.wall.as_nanos() as f64 - parse_ns as f64;
                overhead_us.push(rest / 1e3);
            }
        }
        wall_t.push(traced_wall);
        wall_n.push(
            pass(
                &svc,
                &params(ctx.par, false),
                &files,
                &keys,
                &order,
                &mut gate,
            )
            .wall,
        );
        if k == 0 {
            // Counters: one traced pass at 1 worker, plus the scheduler
            // counters of one traced pass at `par` workers.
            let tel_n = Telemetry::shared();
            let pn = CheckParams {
                telemetry: Some(Arc::clone(&tel_n)),
                ..params(ctx.par, false)
            };
            pass(&svc, &pn, &files, &keys, &order, &mut gate);
            lay.tel = sink.snapshot();
            take_scheduler_counters(&mut lay, &tel_n.snapshot(), ctx.par);
        }
        k += 1;
    }

    // Sampled replay of every file's exploration.
    let mut replay = Replay::default();
    let opts = ExploreOptions {
        record_traces: false,
        ..ExploreOptions::default()
    };
    for (i, f) in files.iter().enumerate() {
        let parsed = parse_litmus(&f.src).map_err(|e| e.to_string())?;
        let cfg = rc11::lang::compile(&parsed.prog);
        let objs: &(dyn rc11::lang::machine::ObjectSemantics + Sync) =
            if parsed.prog.objects.is_empty() {
                &NoObjects
            } else {
                &AbstractObjects
            };
        layers::sample_and_replay(tr, i as u64, &cfg, objs, &opts, 4, &mut replay);
    }

    // Cache layer: the cold-then-warm pass sequence over this corpus.
    let pc = params(1, true);
    let cache_keys: Vec<_> = files
        .iter()
        .map(|f| {
            let p = parse_litmus(&f.src).expect("parsed at set-up");
            layers::cache_key(&p.prog, &p.observe, &p.expected, &pc)
        })
        .collect();
    let order = pass_order(ctx.seed, 0, files.len());
    let twice: Vec<usize> = order.iter().chain(order.iter()).copied().collect();
    lay.cache_hit_frac = layers::cache_replay(tr, &cache_keys, &twice, 1024);
    lay.cache_planned_hit_frac = 0.5;

    lay.fill_from_spans(tr);
    lay.fill_from_replay(&replay);
    lay.states = states as f64;
    lay.transitions = transitions as f64;
    lay.novel_frac = states as f64 / transitions.max(1) as f64;
    lay.explore_us_per_state = engine_wall * 1e6 / states.max(1) as f64;
    let sampled = lay.sampled_us_per_state();
    lay.residual_us_per_state = lay.explore_us_per_state - sampled;
    let (w1, wn) = (median(&pass_1), median(&wall_n));
    lay.par_efficiency = w1 / (wn * ctx.par as f64);
    // Worker-seconds per state at `par` workers (pass level: the front
    // end is included, as it is in the pass walls).
    lay.residual_par_us_per_state = wn * ctx.par as f64 * 1e6 / states.max(1) as f64 - sampled;
    lay.bytes_per_state = peak_rss_bytes() as f64 / states.max(1) as f64;
    lay.request_overhead_us = median(&overhead_us);
    lay.trace_overhead = median(&wall_t) / median(&wall_u);

    // The daemon path: the last third of the time drives rc11d with the
    // seeded mixed stream of corpus repeats and fresh programs, for the
    // wire, queue, cache and daemon layers.
    let sub = Ctx {
        seconds: (ctx.seconds / 3.0).max(2.0),
        ..*ctx
    };
    let mut dtr = Tracer::new(tr.epoch());
    let (d, mut detail) = mixed::traced_layers(&sub, &mut dtr, &mut gate)?;
    tr.absorb(dtr);
    lay.wire_encode_us = d.wire_encode_us;
    lay.wire_decode_us = d.wire_decode_us;
    lay.daemon_overhead_us = d.daemon_overhead_us;
    lay.daemon_queue_wait_tail_ms = d.daemon_queue_wait_tail_ms;
    lay.daemon_worker_util = d.daemon_worker_util;
    lay.daemon_gen_late_ms = d.daemon_gen_late_ms;
    detail.extend([
        ("passes".into(), Json::Int(k as i64)),
        ("sampled_states".into(), Json::Int(replay.sampled as i64)),
        ("sample_every".into(), Json::Int(4)),
        (
            "daemon_cache_hit_frac".into(),
            Json::Float(d.cache_hit_frac),
        ),
        (
            "daemon_planned_hit_frac".into(),
            Json::Float(d.cache_planned_hit_frac),
        ),
        (
            "daemon_trace_overhead".into(),
            Json::Float(d.trace_overhead),
        ),
    ]);
    let failed = gate.failed();
    Ok(Outcome {
        attempted: gate.checked,
        failed,
        metrics: lay.metrics(),
        detail,
        wrong: gate.wrong,
    })
}
