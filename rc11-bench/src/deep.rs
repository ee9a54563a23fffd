//! `deep_ticket`: the 5-thread ticket-lock counter client, one long
//! exploration through `CheckService::check_parts` with no cache. Each
//! verdict runs in a fresh child process (alternating 1 worker and
//! `available_parallelism` workers) so one verdict's heap never slows
//! the next and each process's peak RSS belongs to one verdict.

use crate::gate::{corrupt, counter_outcomes, Gate};
use crate::layers::{self, take_scheduler_counters, Layers, Replay};
use crate::report::{m, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, tail};
use crate::{peak_rss_bytes, Ctx};
use rc11::check::wire::{obj, Json};
use rc11::check::{
    CachedVerdict, CheckParams, CheckResponse, CheckService, ExploreOptions, VerdictCache,
};
use rc11::core::Val;
use rc11::lang::machine::NoObjects;
use rc11::lang::{Program, Reg};
use rc11::telemetry::Telemetry;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Threads in the counter client.
pub const THREADS: usize = 5;

/// Verdict latency limit for `slo_met_frac` on this workload.
pub const SLO_MS: f64 = 10_000.0;

/// Warm re-checks a 1-worker child times after its cold verdict.
const WARM_REPS: usize = 50;

/// Sampling stride of the traced replay: every 2^6-th novel state.
const SAMPLE_EVERY: usize = 64;

/// The counter client instantiated with the ticket lock, and the
/// observation tuple: the counter value each thread read.
pub fn program() -> (Program, Vec<(usize, Reg)>) {
    let (client, lock) = rc11::refine::harness::counter_client(THREADS);
    let prog = rc11::lang::inline::instantiate(&client, lock, &rc11::locks::ticket());
    (prog, (0..THREADS).map(|t| (t, Reg(0))).collect())
}

fn set_json(set: &BTreeSet<Vec<Val>>) -> Json {
    Json::Arr(
        set.iter()
            .map(|t| {
                Json::Arr(
                    t.iter()
                        .map(|v| Json::Int(v.as_int().unwrap_or(i64::MIN)))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn set_from_json(j: &Json) -> Option<BTreeSet<Vec<Val>>> {
    j.as_arr()?
        .iter()
        .map(|t| {
            t.as_arr()?
                .iter()
                .map(|v| v.as_i64().map(Val::Int))
                .collect()
        })
        .collect()
}

/// Child mode: build the program, take one verdict at `workers` workers
/// with no cache, and print it as one JSON line. After a 1-worker
/// verdict, a cache-fronted service holding that verdict answers timed
/// warm re-checks.
pub fn child(workers: usize) -> Json {
    let (prog, observe) = program();
    let known = counter_outcomes(THREADS);
    let ready_unix_ns = unix_ns();
    let params = CheckParams {
        workers,
        use_cache: false,
        ..CheckParams::default()
    };
    let t = Instant::now();
    let r = CheckService::new().check_parts("counter5", &prog, &observe, &known, &params);
    let wall_s = t.elapsed().as_secs_f64();
    let rss = peak_rss_bytes();
    let mut warm_ms = Vec::new();
    if workers == 1 {
        let warm = CheckParams {
            use_cache: true,
            ..params
        };
        let svc = CheckService::with_cache(seeded_cache(&prog, &observe, &known, &warm, &r));
        for _ in 0..WARM_REPS {
            let t = Instant::now();
            let w = svc.check_parts("counter5", &prog, &observe, &known, &warm);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            // A miss or a different answer is not a warm sample; the
            // parent sees the shortfall as missing warm samples.
            if !w.served.is_hit() || w.observed != r.observed {
                break;
            }
            warm_ms.push(Json::Float(ms));
        }
    }
    obj(vec![
        ("workers", Json::Int(workers as i64)),
        ("ready_unix_ns", Json::Int(ready_unix_ns)),
        ("wall_s", Json::Float(wall_s)),
        ("rss_bytes", Json::Int(rss as i64)),
        ("states", Json::Int(r.states as i64)),
        ("transitions", Json::Int(r.transitions as i64)),
        ("deadlocks", Json::Int(r.deadlocks as i64)),
        ("complete", Json::Bool(r.stop.is_complete())),
        ("observed", set_json(&r.observed)),
        ("warm_ms", Json::Arr(warm_ms)),
    ])
}

/// A verdict cache holding `r` under the key `CheckService` probes for
/// this check, so cache-fronted re-checks hit without a second
/// exploration. An empty cache is returned if the key disagrees with the
/// one the service reported; the re-checks then miss and the parent
/// fails the run for want of warm samples.
fn seeded_cache(
    prog: &Program,
    observe: &[(usize, Reg)],
    expected: &BTreeSet<Vec<Val>>,
    params: &CheckParams,
    r: &CheckResponse,
) -> VerdictCache {
    let mut cache = VerdictCache::new(16);
    let (fp, words) = layers::cache_key(prog, observe, expected, params);
    if fp == r.fingerprint {
        cache.insert(
            fp,
            words,
            CachedVerdict {
                pass: r.pass,
                observed: r.observed.clone(),
                states: r.states,
                transitions: r.transitions,
                deadlocks: r.deadlocks,
                stop: r.stop,
                notes: r.notes.clone(),
            },
        );
    }
    cache
}

/// Wall-clock nanoseconds since the Unix epoch: the one clock a parent
/// and its child process share.
fn unix_ns() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as i64)
}

/// Run one child verdict and wait for it. Returns its report and its
/// set-up time: from spawning the process to the child being ready to
/// send its request.
fn spawn_child(workers: usize) -> Result<(Json, f64), String> {
    let spawned = unix_ns();
    let j = crate::run_child(&["--child", "deep", "--workers", &workers.to_string()], &[])?;
    let ready = j
        .get("ready_unix_ns")
        .and_then(Json::as_i64)
        .ok_or("child: no ready time")?;
    Ok((j, (ready - spawned) as f64 / 1e9))
}

fn f(j: &Json, k: &str) -> f64 {
    j.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The untraced run: every end-to-end metric.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let known = counter_outcomes(THREADS);
    let key = if ctx.inject_wrong {
        corrupt(&known)
    } else {
        known
    };
    let mut gate = Gate::default();
    let (mut setups, mut wall1, mut walln, mut warm, mut rss_n) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut slo_met = 0usize;
    let start = Instant::now();
    let mut k = 0usize;
    while k < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        // Alternate which worker count goes first, so slow drift on the
        // host does not favour one of them.
        let pair = if k.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for is_par in pair {
            let workers = if is_par { ctx.par } else { 1 };
            let what = format!("counter{THREADS} at {workers} workers");
            let (j, setup) = match spawn_child(workers) {
                Ok(x) => x,
                Err(e) => {
                    gate.error(&what, &e);
                    continue;
                }
            };
            let observed =
                set_from_json(j.get("observed").unwrap_or(&Json::Null)).unwrap_or_default();
            let deadlocks = j
                .get("deadlocks")
                .and_then(Json::as_i64)
                .map_or(usize::MAX, |d| d as usize);
            let complete = j.get("complete").and_then(Json::as_bool) == Some(true);
            gate.expect(&what, &observed, deadlocks, complete, &key);
            setups.push(setup);
            let wall = f(&j, "wall_s");
            slo_met += (wall * 1e3 <= SLO_MS) as usize;
            if !is_par {
                wall1.push(wall);
                warm.extend(
                    j.get("warm_ms")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(Json::as_f64),
                );
            } else {
                walln.push(wall);
                rss_n.push(f(&j, "rss_bytes"));
            }
        }
        k += 1;
    }
    if wall1.is_empty() || walln.is_empty() || warm.is_empty() {
        return Err("no verdict completed".into());
    }
    let ms1: Vec<f64> = wall1.iter().map(|w| w * 1e3).collect();
    let (t1, tw) = (tail(&ms1), tail(&warm));
    let failed = gate.failed();
    let verdicts = wall1.len() + walln.len();
    Ok(Outcome {
        attempted: gate.checked,
        failed,
        metrics: vec![
            m("setup_s", median(&setups), "s"),
            m("wall_s", median(&wall1), "s"),
            m("wall_par_s", median(&walln), "s"),
            m("p50_ms", median(&ms1), "ms"),
            m("tail_ms", t1.value, "ms"),
            m("warm_p50_ms", median(&warm), "ms"),
            // A cold check here is the 1-worker verdict itself, so the
            // cold metrics repeat `p50_ms` and `tail_ms`.
            m("cold_p50_ms", median(&ms1), "ms"),
            m("cold_tail_ms", t1.value, "ms"),
            m("slo_met_frac", slo_met as f64 / verdicts as f64, "frac"),
            m("peak_rss_mb", median(&rss_n) / 1e6, "MB"),
            m(
                "ok_frac",
                1.0 - failed as f64 / gate.checked.max(1) as f64,
                "frac",
            ),
        ],
        detail: vec![
            ("verdicts_1w".into(), Json::Int(wall1.len() as i64)),
            ("verdicts_par".into(), Json::Int(walln.len() as i64)),
            ("par_workers".into(), Json::Int(ctx.par as i64)),
            ("tail_pct".into(), Json::Float(t1.pct)),
            ("warm_tail_ms".into(), Json::Float(tw.value)),
            ("warm_tail_pct".into(), Json::Float(tw.pct)),
            ("warm_n".into(), Json::Int(warm.len() as i64)),
            ("slo_ms".into(), Json::Float(SLO_MS)),
        ],
        wrong: gate.wrong,
    })
}

/// The traced run: every per-layer metric this workload exercises.
pub fn run_traced(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let known = counter_outcomes(THREADS);
    let key = if ctx.inject_wrong {
        corrupt(&known)
    } else {
        known.clone()
    };
    let mut gate = Gate::default();
    let mut lay = Layers::default();
    let (prog, observe) = program();
    let mut cfg = None;
    for rep in 0..20 {
        cfg = Some(layers::program_layers(tr, rep, &prog, &observe, &known));
    }
    let cfg = cfg.expect("at least one repetition");
    let svc = CheckService::new();
    let p1 = CheckParams {
        workers: 1,
        use_cache: false,
        ..CheckParams::default()
    };
    let pn = CheckParams {
        workers: ctx.par,
        ..p1.clone()
    };
    let what = format!("counter{THREADS}");
    let mut check = |tr: &mut Tracer, params: &CheckParams, req: u64| {
        let s = tr.begin("request.check_parts", req);
        let r = svc.check_parts(&what, &prog, &observe, &known, params);
        tr.end(s);
        let span_ns = tr.spans().last().map_or(0, |s| s.end_ns - s.start_ns);
        gate.expect(&what, &r.observed, r.deadlocks, r.stop.is_complete(), &key);
        (r, span_ns as f64 / 1e9)
    };

    // Untraced and telemetry-traced verdicts alternate at both worker
    // counts until the time is up.
    let (mut e1, mut en, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    let (mut states, mut transitions, mut overhead_us) = (0usize, 0usize, Vec::new());
    let start = Instant::now();
    let mut k = 0u64;
    while k < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let (r, untraced) = check(tr, &p1, 4 * k);
        if k == 0 {
            lay.bytes_per_state = peak_rss_bytes() as f64 / r.states.max(1) as f64;
        }
        states = r.states;
        transitions = r.transitions;
        e1.push(r.wall.as_secs_f64());
        let sink = Telemetry::shared();
        let traced = CheckParams {
            telemetry: Some(Arc::clone(&sink)),
            ..p1.clone()
        };
        let (r, t) = check(tr, &traced, 4 * k + 1);
        overhead_us.push((t - r.wall.as_secs_f64()) * 1e6);
        ratio.push(t / untraced);
        lay.tel = sink.snapshot();
        let (r, _) = check(tr, &pn, 4 * k + 2);
        en.push(r.wall.as_secs_f64());
        let sink_n = Telemetry::shared();
        let traced_n = CheckParams {
            telemetry: Some(Arc::clone(&sink_n)),
            ..pn.clone()
        };
        check(tr, &traced_n, 4 * k + 3);
        take_scheduler_counters(&mut lay, &sink_n.snapshot(), ctx.par);
        k += 1;
    }

    let mut replay = Replay::default();
    let opts = ExploreOptions {
        record_traces: false,
        ..ExploreOptions::default()
    };
    let r = layers::sample_and_replay(tr, 0, &cfg, &NoObjects, &opts, SAMPLE_EVERY, &mut replay);
    gate.expect(
        &what,
        &observed_of(&r, &observe),
        r.deadlocked.len(),
        r.stop.is_complete(),
        &key,
    );

    let pc = CheckParams {
        use_cache: true,
        ..p1
    };
    let keys = [layers::cache_key(&prog, &observe, &known, &pc)];
    lay.cache_hit_frac = layers::cache_replay(tr, &keys, &[0; 1 + WARM_REPS], 16);
    lay.cache_planned_hit_frac = WARM_REPS as f64 / (1 + WARM_REPS) as f64;

    lay.fill_from_spans(tr);
    lay.fill_from_replay(&replay);
    lay.states = states as f64;
    lay.transitions = transitions as f64;
    lay.novel_frac = states as f64 / transitions.max(1) as f64;
    let (w1, wn) = (median(&e1), median(&en));
    lay.explore_us_per_state = w1 * 1e6 / states.max(1) as f64;
    let sampled = lay.sampled_us_per_state();
    lay.residual_us_per_state = lay.explore_us_per_state - sampled;
    lay.residual_par_us_per_state = wn * ctx.par as f64 * 1e6 / states.max(1) as f64 - sampled;
    lay.par_efficiency = w1 / (wn * ctx.par as f64);
    lay.request_overhead_us = median(&overhead_us);
    lay.trace_overhead = median(&ratio);
    let failed = gate.failed();
    Ok(Outcome {
        attempted: gate.checked,
        failed,
        metrics: lay.metrics(),
        detail: vec![
            ("rounds".into(), Json::Int(k as i64)),
            ("sampled_states".into(), Json::Int(replay.sampled as i64)),
            ("sample_every".into(), Json::Int(SAMPLE_EVERY as i64)),
            ("sampled_us_per_state".into(), Json::Float(sampled)),
            ("par_workers".into(), Json::Int(ctx.par as i64)),
        ],
        wrong: gate.wrong,
    })
}

/// The observed outcome set of an engine report.
pub fn observed_of(r: &rc11::check::EngineReport, observe: &[(usize, Reg)]) -> BTreeSet<Vec<Val>> {
    r.terminated
        .iter()
        .map(|c| observe.iter().map(|&(t, reg)| c.reg(t, reg)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_sets_round_trip_through_the_child_protocol() {
        let set = counter_outcomes(3);
        assert_eq!(set_from_json(&set_json(&set)), Some(set));
    }

    #[test]
    fn a_seeded_cache_serves_the_uncached_verdict_as_a_hit() {
        let (client, lock) = rc11::refine::harness::counter_client(2);
        let prog = rc11::lang::inline::instantiate(&client, lock, &rc11::locks::ticket());
        let observe: Vec<_> = (0..2).map(|t| (t, Reg(0))).collect();
        let known = counter_outcomes(2);
        let cold = CheckParams {
            use_cache: false,
            ..CheckParams::default()
        };
        let r = CheckService::new().check_parts("counter2", &prog, &observe, &known, &cold);
        let warm = CheckParams {
            use_cache: true,
            ..cold
        };
        let svc = CheckService::with_cache(seeded_cache(&prog, &observe, &known, &warm, &r));
        let w = svc.check_parts("counter2", &prog, &observe, &known, &warm);
        assert!(w.served.is_hit());
        assert_eq!((w.observed, w.states), (known, r.states));
    }

    #[test]
    fn small_counter_client_matches_its_known_answer() {
        // The same builder at three threads: every permutation, no deadlock.
        let (client, lock) = rc11::refine::harness::counter_client(3);
        let prog = rc11::lang::inline::instantiate(&client, lock, &rc11::locks::ticket());
        let observe: Vec<_> = (0..3).map(|t| (t, Reg(0))).collect();
        let opts = ExploreOptions {
            record_traces: false,
            ..ExploreOptions::default()
        };
        let r =
            rc11::check::Engine::Sequential.explore(&rc11::lang::compile(&prog), &NoObjects, &opts);
        let mut gate = Gate::default();
        gate.expect(
            "counter3",
            &observed_of(&r, &observe),
            r.deadlocked.len(),
            r.stop.is_complete(),
            &counter_outcomes(3),
        );
        assert!(gate.wrong.is_empty(), "{:?}", gate.wrong);
    }
}
