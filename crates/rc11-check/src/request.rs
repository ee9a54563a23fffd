//! The shared check-request path: parse → canonicalise → fingerprint →
//! cache-probe → explore → report.
//!
//! Every front end — `rc11 run`, `rc11 fuzz`'s request-parity lane, and
//! the `rc11 serve` daemon — funnels litmus checks through
//! [`CheckService`], so there is exactly one place where:
//!
//! * the cache key is computed: the canonical words of the program +
//!   observation tuple + expected set ([`rc11_lang::canonical_litmus_words`])
//!   extended with the **semantic** exploration options
//!   ([`option_words`]), fingerprinted with [`Fx128Hasher`]. The
//!   (ignored) worker count, budgets, cancellation and checkpointing are
//!   deliberately *excluded*: none of them changes a complete report, and
//!   budget-truncated runs are never cached at all — only
//!   [`StopReason::Complete`] verdicts are admitted;
//! * the observed outcome set and pass verdict are computed from an
//!   [`EngineReport`] (mirroring `rc11_litmus::run_with_opts`, pinned to
//!   it by the daemon differential tests);
//! * engine panics are contained: a panic inside exploration becomes a
//!   response with [`StopReason::WorkerFault`] and a
//!   [`Note::WorkerFault`] carrying the panic message — the caller gets
//!   a row and a reason, never an unwound stack.

use crate::cache::{CacheStats, CacheTier, CachedVerdict, VerdictCache};
use crate::chaos::ChaosState;
use crate::checkpoint::CheckpointOpts;
use crate::engine::{Budget, CancelToken, Engine, EngineReport, ExploreOptions, Note, StopReason};
use crate::fxhash::{Fp128, Fx128Hasher};
use rc11_core::Val;
use rc11_lang::machine::{NoObjects, ObjectSemantics};
use rc11_lang::parse::parse_litmus;
use rc11_lang::{canonical_litmus_words, compile, Program, Reg};
use rc11_objects::AbstractObjects;
use rc11_telemetry::{Counter, Phase, Telemetry, TelemetrySnapshot};
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-request parameters. Everything that changes *what* is checked is
/// part of the cache key; everything that only changes *how hard we are
/// willing to work* (budgets, cancellation, checkpointing) is not — see
/// [`option_words`].
///
/// There is no reduction field: a request asks for outcomes and deadlocks
/// only, so it always runs [`Reduction::Full`](crate::engine::Reduction)
/// — sleep sets, persistent sets and thread symmetry.
#[derive(Clone)]
pub struct CheckParams {
    /// Ignored: every request runs the one exploration walk. Kept so
    /// existing callers that set a worker count still compile.
    pub workers: usize,
    /// Hard state cap (in the key: truncation changes the report).
    pub max_states: usize,
    /// Per-request resource budgets (not in the key; non-complete runs
    /// are never cached).
    pub budget: Budget,
    /// Cooperative cancellation, honoured mid-run.
    pub cancel: CancelToken,
    /// Checkpoint/resume (CLI `--checkpoint`).
    pub checkpoint: Option<CheckpointOpts>,
    /// Fault injection for the resilience harness.
    pub chaos: Option<std::sync::Arc<ChaosState>>,
    /// Probe/populate the service's verdict cache for this request.
    pub use_cache: bool,
    /// Optional telemetry sink. Observability only: phase timers and
    /// structured counters accumulate here, and the response carries a
    /// per-run delta snapshot. Deliberately **not** part of the cache
    /// key — see [`option_words`].
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Default for CheckParams {
    fn default() -> CheckParams {
        let base = ExploreOptions::default();
        CheckParams {
            workers: 1,
            max_states: base.max_states,
            budget: Budget::default(),
            cancel: CancelToken::new(),
            checkpoint: None,
            chaos: None,
            use_cache: true,
            telemetry: None,
        }
    }
}

/// The semantic option words appended to a request's canonical words
/// before fingerprinting. Two requests whose programs *and* option words
/// agree are the same check. There is no reduction word: a request is an
/// outcome query and always runs [`Reduction::Full`](crate::engine::Reduction).
/// Telemetry is observability, not semantics:
/// attaching a sink must never change which cache entry a request maps
/// to, so it is excluded here (a telemetry-on request can be served by a
/// verdict computed with telemetry off, and vice versa).
pub fn option_words(params: &CheckParams) -> Vec<u64> {
    vec![params.max_states as u64]
}

/// Which path produced a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// In-memory cache hit.
    MemCache,
    /// Disk-spill cache hit (promoted to memory).
    DiskCache,
    /// A fresh exploration.
    Explored,
}

impl Served {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Served::MemCache => "mem-cache",
            Served::DiskCache => "disk-cache",
            Served::Explored => "explored",
        }
    }

    /// True for either cache tier.
    pub fn is_hit(self) -> bool {
        !matches!(self, Served::Explored)
    }
}

/// One check's full answer — the report fields `rc11 run` prints and the
/// daemon serialises, plus provenance (fingerprint, cache tier).
#[derive(Debug, Clone)]
pub struct CheckResponse {
    /// The litmus test's name (display only; never part of the key).
    pub name: String,
    /// The canonical fingerprint the cache keyed this check on.
    pub fingerprint: Fp128,
    /// Where the answer came from.
    pub served: Served,
    /// `observed == expected`, complete and deadlock-free.
    pub pass: bool,
    /// Observed outcome set.
    pub observed: BTreeSet<Vec<Val>>,
    /// Expected outcome set (echoed from the request).
    pub expected: BTreeSet<Vec<Val>>,
    /// States explored by the run that produced the answer.
    pub states: usize,
    /// Transitions generated.
    pub transitions: usize,
    /// Deadlocked configurations.
    pub deadlocks: usize,
    /// Why the producing run stopped.
    pub stop: StopReason,
    /// Structured engine notes.
    pub notes: Vec<Note>,
    /// Wall-clock time spent answering *this* request: the engine run
    /// for explorations, the probe for cache hits.
    pub wall: Duration,
    /// Per-run telemetry delta (only when the request carried a sink).
    /// Cache hits get a synthetic snapshot with `served_from_cache`
    /// set — the cached verdict was not re-explored, so there are no
    /// fresh engine counters to report.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl CheckResponse {
    /// Attribute `nanos` of parsing to this response's telemetry snapshot
    /// (a no-op without one). Front ends parse before
    /// [`CheckService::check_parts`] takes its per-request baseline, so
    /// the parse phase is folded in afterwards.
    pub fn attribute_parse(&mut self, nanos: u64) {
        if let Some(snap) = &mut self.telemetry {
            snap.phase_nanos[Phase::Parse as usize] += nanos;
        }
    }
}

/// A point-in-time view of the service counters (the daemon's `stats`
/// response).
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnapshot {
    /// Requests answered (hits + explorations + faults).
    pub requests: u64,
    /// Cache counters (all-zero when the service has no cache).
    pub cache: CacheStats,
    /// Runs that actually explored (missed or bypassed the cache).
    pub explored_runs: u64,
    /// Total states explored by those runs.
    pub states_explored: u64,
    /// Total transitions generated by those runs.
    pub transitions_explored: u64,
    /// Wall-clock seconds spent inside the engines.
    pub explore_seconds: f64,
}

impl StatsSnapshot {
    /// Aggregate exploration throughput; 0.0 before any exploration.
    pub fn states_per_sec(&self) -> f64 {
        if self.explore_seconds > 0.0 {
            self.states_explored as f64 / self.explore_seconds
        } else {
            0.0
        }
    }
}

/// The checking service: an optional verdict cache plus counters, shared
/// by every front end. Thread-safe; exploration runs outside the cache
/// lock so concurrent requests only serialise on probe/insert.
pub struct CheckService {
    cache: Option<Mutex<VerdictCache>>,
    requests: AtomicU64,
    explored_runs: AtomicU64,
    states_explored: AtomicU64,
    transitions_explored: AtomicU64,
    explore_nanos: AtomicU64,
}

impl CheckService {
    /// A service with no cache: every request explores.
    pub fn new() -> CheckService {
        CheckService::build(None)
    }

    /// A service fronted by the given verdict cache.
    pub fn with_cache(cache: VerdictCache) -> CheckService {
        CheckService::build(Some(cache))
    }

    fn build(cache: Option<VerdictCache>) -> CheckService {
        CheckService {
            cache: cache.map(Mutex::new),
            requests: AtomicU64::new(0),
            explored_runs: AtomicU64::new(0),
            states_explored: AtomicU64::new(0),
            transitions_explored: AtomicU64::new(0),
            explore_nanos: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            cache: self
                .cache
                .as_ref()
                .map(|c| c.lock().expect("cache lock").stats())
                .unwrap_or_default(),
            explored_runs: self.explored_runs.load(Ordering::Relaxed),
            states_explored: self.states_explored.load(Ordering::Relaxed),
            transitions_explored: self.transitions_explored.load(Ordering::Relaxed),
            explore_seconds: self.explore_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Check a `.litmus` source text. A parse error is an `Err` with the
    /// parser's span-carrying message; everything after the parse —
    /// including engine panics — comes back as a [`CheckResponse`].
    pub fn check_source(&self, src: &str, params: &CheckParams) -> Result<CheckResponse, String> {
        let started = Instant::now();
        let parsed = parse_litmus(src);
        let parse_nanos = started.elapsed().as_nanos() as u64;
        if let Some(t) = &params.telemetry {
            t.add_phase_nanos(Phase::Parse, parse_nanos);
        }
        let parsed = parsed.map_err(|e| e.to_string())?;
        let mut response =
            self.check_parts(&parsed.name, &parsed.prog, &parsed.observe, &parsed.expected, params);
        response.attribute_parse(parse_nanos);
        Ok(response)
    }

    /// Check an already-parsed litmus test. This is the one pipeline:
    /// canonicalise, fingerprint, probe, (maybe) explore, admit.
    pub fn check_parts(
        &self,
        name: &str,
        prog: &Program,
        observe: &[(usize, Reg)],
        expected: &BTreeSet<Vec<Val>>,
        params: &CheckParams,
    ) -> CheckResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let tel = params.telemetry.as_deref();
        // Baseline for the per-request delta: taken before any phase
        // timing so the response snapshot attributes canon, fingerprint,
        // cache-probe *and* exploration to this request.
        let tel0 = tel.map(|t| t.snapshot());
        let req_start = Instant::now();
        let mut words = match tel {
            Some(t) => t.time_phase(Phase::Canon, || canonical_litmus_words(prog, observe, expected)),
            None => canonical_litmus_words(prog, observe, expected),
        };
        words.extend(option_words(params));
        let fp = {
            let hash = || {
                let mut hasher = Fx128Hasher::default();
                for &w in &words {
                    hasher.write_u64(w);
                }
                hasher.finish128()
            };
            match tel {
                Some(t) => t.time_phase(Phase::Fingerprint, hash),
                None => hash(),
            }
        };

        if params.use_cache {
            if let Some(cache) = &self.cache {
                if let Some(t) = tel {
                    t.incr(Counter::CacheProbes);
                }
                let probe = || cache.lock().expect("cache lock").probe(fp, &words);
                let hit = match tel {
                    Some(t) => t.time_phase(Phase::CacheProbe, probe),
                    None => probe(),
                };
                if let Some((v, tier)) = hit {
                    let served = match tier {
                        CacheTier::Mem => Served::MemCache,
                        CacheTier::Disk => Served::DiskCache,
                    };
                    // A hit never re-explores, so there are no fresh
                    // engine counters: the snapshot is the request-path
                    // delta (probe timing, cache counters) flagged as
                    // served-from-cache.
                    let telemetry = tel.map(|t| {
                        t.incr(Counter::CacheHits);
                        let mut snap = t.snapshot().delta(tel0.as_ref().expect("tel0 set with tel"));
                        snap.served_from_cache = true;
                        snap
                    });
                    return CheckResponse {
                        name: name.to_string(),
                        fingerprint: fp,
                        served,
                        pass: v.pass,
                        observed: v.observed,
                        expected: expected.clone(),
                        states: v.states,
                        transitions: v.transitions,
                        deadlocks: v.deadlocks,
                        stop: v.stop,
                        notes: v.notes,
                        wall: req_start.elapsed(),
                        telemetry,
                    };
                }
            }
        }

        let cfg = compile(prog);
        let objs: &dyn ObjectSemantics =
            if prog.objects.is_empty() { &NoObjects } else { &AbstractObjects };
        let opts = ExploreOptions {
            record_traces: false,
            max_states: params.max_states,
            budget: params.budget,
            cancel: params.cancel.clone(),
            checkpoint: params.checkpoint.clone(),
            chaos: params.chaos.clone(),
            telemetry: params.telemetry.clone(),
            ..Default::default()
        };
        let started = Instant::now();
        let outcome =
            catch_unwind(AssertUnwindSafe(|| Engine::Sequential.explore(&cfg, objs, &opts)));

        let report: EngineReport = match outcome {
            Ok(r) => r,
            Err(payload) => {
                // A panic that escaped the engine (the walk has no
                // internal containment): synthesise an explicit
                // worker-fault report so the caller sees the message in
                // both the stop reason and the note detail. The engine
                // never reported a wall clock, so fall back to our own
                // measurement around the unwind.
                let wall = started.elapsed();
                self.explore_nanos.fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
                if let Some(t) = tel {
                    t.add_phase_nanos(Phase::Explore, wall.as_nanos() as u64);
                }
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let telemetry =
                    tel.map(|t| t.snapshot().delta(tel0.as_ref().expect("tel0 set with tel")));
                return CheckResponse {
                    name: name.to_string(),
                    fingerprint: fp,
                    served: Served::Explored,
                    pass: false,
                    observed: BTreeSet::new(),
                    expected: expected.clone(),
                    states: 0,
                    transitions: 0,
                    deadlocks: 0,
                    stop: StopReason::WorkerFault,
                    notes: vec![Note::WorkerFault { message }],
                    wall,
                    telemetry,
                };
            }
        };
        // The engine measures its own wall clock; the service's
        // aggregate explore-seconds counter is derived from the report
        // so daemon `stats` throughput matches the per-run rows.
        self.explore_nanos.fetch_add(report.wall.as_nanos() as u64, Ordering::Relaxed);
        if let Some(t) = tel {
            t.add_phase_nanos(Phase::Explore, report.wall.as_nanos() as u64);
        }
        self.explored_runs.fetch_add(1, Ordering::Relaxed);
        self.states_explored.fetch_add(report.states as u64, Ordering::Relaxed);
        self.transitions_explored.fetch_add(report.transitions as u64, Ordering::Relaxed);

        // The observed set and the pass predicate, exactly as
        // `rc11_litmus::run_with_opts` computes them (the daemon parity
        // battery pins the two together).
        let observed: BTreeSet<Vec<Val>> = report
            .terminated
            .iter()
            .map(|c| observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
            .collect();
        let pass = observed == *expected && !report.truncated() && report.deadlocked.is_empty();
        let deadlocks = report.deadlocked.len();

        if params.use_cache && report.stop.is_complete() {
            if let Some(cache) = &self.cache {
                cache.lock().expect("cache lock").insert(
                    fp,
                    words,
                    CachedVerdict {
                        pass,
                        observed: observed.clone(),
                        states: report.states,
                        transitions: report.transitions,
                        deadlocks,
                        stop: report.stop,
                        notes: report.notes.clone(),
                    },
                );
            }
        }

        // The response snapshot is the *request-level* delta (canon +
        // fingerprint + probe + engine run), not the engine's own
        // `report.telemetry` delta, so per-phase attribution in trace
        // files covers the whole pipeline.
        let telemetry = tel.map(|t| t.snapshot().delta(tel0.as_ref().expect("tel0 set with tel")));
        CheckResponse {
            name: name.to_string(),
            fingerprint: fp,
            served: Served::Explored,
            pass,
            observed,
            expected: expected.clone(),
            states: report.states,
            transitions: report.transitions,
            deadlocks,
            stop: report.stop,
            notes: report.notes,
            wall: report.wall,
            telemetry,
        }
    }
}

impl Default for CheckService {
    fn default() -> CheckService {
        CheckService::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP: &str = r#"
litmus "mp-ra"
var x = 0
var y = 0
thread T1 { x = 1; y =rel 1; }
thread T2 { r1 =acq y; r2 = x; }
observe T2.r1 T2.r2
expected { (0, 0) (0, 1) (1, 1) }
"#;

    #[test]
    fn explore_then_hit_then_rename_still_hits() {
        let service = CheckService::with_cache(VerdictCache::new(16));
        let params = CheckParams::default();
        let first = service.check_source(MP, &params).unwrap();
        assert_eq!(first.served, Served::Explored);
        assert!(first.pass, "MP+ra is a passing corpus shape");
        let second = service.check_source(MP, &params).unwrap();
        assert_eq!(second.served, Served::MemCache);
        assert_eq!(second.observed, first.observed);
        assert_eq!((second.states, second.transitions), (first.states, first.transitions));
        // A renamed-but-identical submission is the same check.
        let renamed = MP
            .replace("T1", "Alice")
            .replace("T2", "Bob")
            .replace("r1", "saw_flag")
            .replace("r2", "saw_data");
        let third = service.check_source(&renamed, &params).unwrap();
        assert_eq!(third.served, Served::MemCache);
        assert_eq!(third.fingerprint, first.fingerprint);
    }

    #[test]
    fn different_options_are_different_checks() {
        let service = CheckService::with_cache(VerdictCache::new(16));
        let base = CheckParams::default();
        let a = service.check_source(MP, &base).unwrap();
        let capped = CheckParams { max_states: 1_000, ..CheckParams::default() };
        let b = service.check_source(MP, &capped).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(b.served, Served::Explored);
        assert_eq!(b.observed, a.observed, "an unreached cap must not change the verdict");
    }

    #[test]
    fn truncated_runs_are_not_cached() {
        let service = CheckService::with_cache(VerdictCache::new(16));
        let starved = CheckParams {
            budget: Budget { max_transitions: Some(1), ..Budget::default() },
            ..CheckParams::default()
        };
        let partial = service.check_source(MP, &starved).unwrap();
        assert!(!partial.stop.is_complete());
        assert!(!partial.pass);
        // Same key (budgets are not part of it), but nothing was cached.
        let full = service.check_source(MP, &CheckParams::default()).unwrap();
        assert_eq!(full.served, Served::Explored);
        assert!(full.pass);
        // Now the complete verdict is in the cache.
        let again = service.check_source(MP, &CheckParams::default()).unwrap();
        assert_eq!(again.served, Served::MemCache);
    }

    #[test]
    fn parse_errors_are_errors_not_responses() {
        let service = CheckService::new();
        let err = service.check_source("litmus \"broken", &CheckParams::default());
        assert!(err.is_err());
    }

    #[test]
    fn workers_share_one_cache_entry() {
        let service = CheckService::with_cache(VerdictCache::new(16));
        let seq = CheckParams { workers: 1, ..CheckParams::default() };
        let par = CheckParams { workers: 4, ..CheckParams::default() };
        let a = service.check_source(MP, &seq).unwrap();
        let b = service.check_source(MP, &par).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "worker count is not part of the key");
        assert_eq!(b.served, Served::MemCache);
    }
}
