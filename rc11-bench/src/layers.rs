//! Per-layer probes for the traced run. Each layer is timed from outside,
//! by calling its public functions under a span:
//!
//! * front end — `parse_litmus`, `canonical_litmus_words`, `compile`,
//!   and the static analyses `thread_symmetry`, `conflict_matrix`,
//!   `future_footprints`;
//! * exploration internals — every 2^k-th novel state is replayed,
//!   inside the `explore_with` callback as the engine reaches it,
//!   through `successors`, `thread_footprint`, `hash_canonical` into
//!   `Fx128Hasher`, `canonical` and `canonical_eq`;
//! * the verdict cache — `VerdictCache::probe`/`insert` replayed over a
//!   workload's request keys.

use crate::report::{m, Metric};
use crate::spans::Tracer;
use rc11::analyze::{conflict_matrix, future_footprints, thread_symmetry};
use rc11::check::{
    option_words, CachedVerdict, CheckParams, Engine, EngineReport, ExploreOptions, Fp128,
    Fx128Hasher, StopReason, VerdictCache,
};
use rc11::lang::cfg::CfgProgram;
use rc11::lang::machine::{successors, thread_footprint, Config, ObjectSemantics, StepOptions};
use rc11::lang::parse::{parse_litmus, ParsedLitmus};
use rc11::lang::{canonical_litmus_words, compile, Program, Reg};
use rc11::telemetry::{Counter, TelemetrySnapshot};
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parse a source under a `lang.parse` span.
pub fn parse(tr: &mut Tracer, req: u64, src: &str) -> ParsedLitmus {
    tr.leaf("lang.parse", req, || parse_litmus(black_box(src)))
        .expect("workload sources parse (checked at set-up)")
}

/// Time canonicalisation, compilation and the three static analyses of
/// one program; returns its compiled form.
pub fn program_layers(
    tr: &mut Tracer,
    req: u64,
    prog: &Program,
    observe: &[(usize, Reg)],
    expected: &BTreeSet<Vec<rc11::core::Val>>,
) -> CfgProgram {
    black_box(tr.leaf("lang.canon_words", req, || {
        canonical_litmus_words(prog, observe, expected)
    }));
    let cfg = tr.leaf("lang.compile", req, || compile(black_box(prog)));
    black_box(tr.leaf("analyze.symmetry", req, || thread_symmetry(&cfg)));
    black_box(tr.leaf("analyze.conflict", req, || conflict_matrix(&cfg)));
    black_box(tr.leaf("analyze.persistent", req, || future_footprints(&cfg)));
    cfg
}

/// The fingerprint key `CheckService` would probe the cache with.
pub fn cache_key(
    prog: &Program,
    observe: &[(usize, Reg)],
    expected: &BTreeSet<Vec<rc11::core::Val>>,
    params: &CheckParams,
) -> (Fp128, Vec<u64>) {
    let mut words = canonical_litmus_words(prog, observe, expected);
    words.extend(option_words(params));
    let mut h = Fx128Hasher::default();
    for &w in &words {
        h.write_u64(w);
    }
    (h.finish128(), words)
}

/// Replay a request sequence (`order` indexes `keys`) through a fresh
/// verdict cache: probe each, insert on a miss. Returns the hit share.
pub fn cache_replay(
    tr: &mut Tracer,
    keys: &[(Fp128, Vec<u64>)],
    order: &[usize],
    cap: usize,
) -> f64 {
    let mut cache = VerdictCache::new(cap);
    let mut hits = 0usize;
    for (req, &i) in order.iter().enumerate() {
        let (fp, words) = &keys[i];
        let hit = tr.leaf("cache.probe", req as u64, || {
            cache.probe(*fp, black_box(words))
        });
        if hit.is_some() {
            hits += 1;
            continue;
        }
        let verdict = CachedVerdict {
            pass: true,
            observed: BTreeSet::new(),
            states: 1,
            transitions: 0,
            deadlocks: 0,
            stop: StopReason::Complete,
            notes: Vec::new(),
        };
        let words = words.clone();
        tr.leaf("cache.insert", req as u64, || {
            cache.insert(*fp, words, verdict)
        });
    }
    hits as f64 / order.len().max(1) as f64
}

/// What a sampled replay measured besides its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// States replayed.
    pub sampled: usize,
    /// Successors generated from them.
    pub succs: usize,
    /// Sum of `Config::approx_bytes` over the sample.
    pub approx_bytes: usize,
}

/// Explore `prog` sequentially and replay every `every`-th novel state
/// through the exploration layers under spans, inside the `explore_with`
/// callback as the state is reached. The state, the program and the
/// allocator are then as warm as they are when the engine itself
/// expands the state; a replay after the exploration finds them cold
/// and overstates every layer. Returns the exploration report.
pub fn sample_and_replay(
    tr: &mut Tracer,
    req: u64,
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    opts: &ExploreOptions,
    every: usize,
    replay: &mut Replay,
) -> EngineReport {
    let seen = AtomicUsize::new(0);
    let step = StepOptions::default();
    // The callback must be `Sync`; the sequential engine calls it from
    // one thread, so these locks are never contended.
    let state = Mutex::new((std::mem::replace(tr, Tracer::new(tr.epoch())), *replay));
    let report = Engine::Sequential.explore_with(prog, objs, opts, |c, _| {
        if seen.fetch_add(1, Ordering::Relaxed).is_multiple_of(every) {
            let (tr, replay) = &mut *state.lock().expect("replay lock");
            replay_state(tr, req, prog, objs, step, c, replay);
        }
    });
    (*tr, *replay) = state.into_inner().expect("replay lock");
    report
}

fn replay_state(
    tr: &mut Tracer,
    req: u64,
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    step: StepOptions,
    cfg: &Config,
    replay: &mut Replay,
) {
    replay.sampled += 1;
    replay.approx_bytes += cfg.approx_bytes();
    let succs = tr.leaf("lang.successors", req, || {
        successors(prog, objs, black_box(cfg), step)
    });
    let n_threads = prog.n_threads();
    let s = tr.begin("lang.footprint", req);
    for t in 0..n_threads {
        black_box(thread_footprint(prog, cfg, t));
    }
    tr.end_items(s, n_threads as u64);
    let n = succs.len() as u64;
    replay.succs += succs.len();
    if n == 0 {
        return;
    }
    let s = tr.begin("canon.fingerprint", req);
    for (_, c) in &succs {
        let mut h = Fx128Hasher::default();
        c.hash_canonical(&mut h);
        black_box(h.finish128());
    }
    tr.end_items(s, n);
    let s = tr.begin("canon.materialise", req);
    let canon: Vec<Config> = succs.iter().map(|(_, c)| c.canonical()).collect();
    tr.end_items(s, n);
    let s = tr.begin("canon.confirm", req);
    for ((_, c), k) in succs.iter().zip(&canon) {
        black_box(c.canonical_eq(k));
    }
    tr.end_items(s, n);
}

/// Every per-layer metric, in `BENCHMARK.json` order. A workload fills
/// the layers it exercises; the others stay 0 (see the README table).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub parse_us: f64,
    pub canon_words_us: f64,
    pub compile_us: f64,
    pub successors_us_per_state: f64,
    pub branching: f64,
    pub footprint_ns: f64,
    pub symmetry_us: f64,
    pub conflict_us: f64,
    pub persistent_us: f64,
    pub fingerprint_ns_per_succ: f64,
    pub confirm_ns_per_dup: f64,
    pub materialise_ns_per_state: f64,
    pub explore_us_per_state: f64,
    pub states: f64,
    pub transitions: f64,
    pub novel_frac: f64,
    pub residual_us_per_state: f64,
    pub residual_par_us_per_state: f64,
    pub par_efficiency: f64,
    pub bytes_per_state: f64,
    pub approx_bytes_per_state: f64,
    pub request_overhead_us: f64,
    pub cache_probe_us: f64,
    pub cache_insert_us: f64,
    pub cache_hit_frac: f64,
    pub cache_planned_hit_frac: f64,
    pub wire_encode_us: f64,
    pub wire_decode_us: f64,
    pub daemon_overhead_us: f64,
    pub daemon_queue_wait_tail_ms: f64,
    pub daemon_worker_util: f64,
    pub daemon_gen_late_ms: f64,
    pub tel: TelemetrySnapshot,
    pub expansion_imbalance: f64,
    pub trace_overhead: f64,
}

impl Layers {
    /// Fill the front-end and replay layers from a tracer's spans.
    pub fn fill_from_spans(&mut self, tr: &Tracer) {
        self.parse_us = tr.per_item_us("lang.parse");
        self.canon_words_us = tr.per_item_us("lang.canon_words");
        self.compile_us = tr.per_item_us("lang.compile");
        self.symmetry_us = tr.per_item_us("analyze.symmetry");
        self.conflict_us = tr.per_item_us("analyze.conflict");
        self.persistent_us = tr.per_item_us("analyze.persistent");
        self.successors_us_per_state = tr.per_item_us("lang.successors");
        self.footprint_ns = tr.per_item_ns("lang.footprint").unwrap_or(0.0);
        self.fingerprint_ns_per_succ = tr.per_item_ns("canon.fingerprint").unwrap_or(0.0);
        self.materialise_ns_per_state = tr.per_item_ns("canon.materialise").unwrap_or(0.0);
        self.confirm_ns_per_dup = tr.per_item_ns("canon.confirm").unwrap_or(0.0);
        self.cache_probe_us = tr.per_item_us("cache.probe");
        self.cache_insert_us = tr.per_item_us("cache.insert");
    }

    /// Fill branching and the approximate bytes from a replay.
    pub fn fill_from_replay(&mut self, r: &Replay) {
        if r.sampled > 0 {
            self.branching = r.succs as f64 / r.sampled as f64;
            self.approx_bytes_per_state = r.approx_bytes as f64 / r.sampled as f64;
        }
    }

    /// The exploration cost per state left after the sampled layers:
    /// one successor generation, a fingerprint per successor, a confirm
    /// per duplicate hit and a materialisation per novel state.
    pub fn sampled_us_per_state(&self) -> f64 {
        let dups_per_state = if self.states > 0.0 {
            self.tel.get(Counter::DupHits) as f64 / self.states
        } else {
            0.0
        };
        self.successors_us_per_state
            + (self.fingerprint_ns_per_succ * self.branching
                + self.confirm_ns_per_dup * dups_per_state
                + self.materialise_ns_per_state)
                / 1e3
    }

    /// Every per-layer metric.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = |k: Counter| self.tel.get(k) as f64;
        vec![
            m("lang.parse_us", self.parse_us, "us"),
            m("lang.canon_words_us", self.canon_words_us, "us"),
            m("lang.compile_us", self.compile_us, "us"),
            m(
                "lang.successors_us_per_state",
                self.successors_us_per_state,
                "us",
            ),
            m("lang.branching", self.branching, "count"),
            m("lang.footprint_ns", self.footprint_ns, "ns"),
            m("analyze.symmetry_us", self.symmetry_us, "us"),
            m("analyze.conflict_us", self.conflict_us, "us"),
            m("analyze.persistent_us", self.persistent_us, "us"),
            m(
                "canon.fingerprint_ns_per_succ",
                self.fingerprint_ns_per_succ,
                "ns",
            ),
            m("canon.confirm_ns_per_dup", self.confirm_ns_per_dup, "ns"),
            m(
                "canon.materialise_ns_per_state",
                self.materialise_ns_per_state,
                "ns",
            ),
            m(
                "engine.explore_us_per_state",
                self.explore_us_per_state,
                "us",
            ),
            m("engine.states", self.states, "count"),
            m("engine.transitions", self.transitions, "count"),
            m("engine.novel_frac", self.novel_frac, "frac"),
            m(
                "engine.residual_us_per_state",
                self.residual_us_per_state,
                "us",
            ),
            m(
                "engine.residual_par_us_per_state",
                self.residual_par_us_per_state,
                "us",
            ),
            m("engine.par_efficiency", self.par_efficiency, "frac"),
            m("engine.bytes_per_state", self.bytes_per_state, "bytes"),
            m(
                "engine.approx_bytes_per_state",
                self.approx_bytes_per_state,
                "bytes",
            ),
            m("request.overhead_us", self.request_overhead_us, "us"),
            m("cache.probe_us", self.cache_probe_us, "us"),
            m("cache.insert_us", self.cache_insert_us, "us"),
            m("cache.hit_frac", self.cache_hit_frac, "frac"),
            m(
                "cache.planned_hit_frac",
                self.cache_planned_hit_frac,
                "frac",
            ),
            m("wire.encode_us", self.wire_encode_us, "us"),
            m("wire.decode_us", self.wire_decode_us, "us"),
            m("daemon.overhead_us", self.daemon_overhead_us, "us"),
            m(
                "daemon.queue_wait_tail_ms",
                self.daemon_queue_wait_tail_ms,
                "ms",
            ),
            m("daemon.worker_util", self.daemon_worker_util, "frac"),
            m("daemon.gen_late_ms", self.daemon_gen_late_ms, "ms"),
            m("telemetry.dup_hits", c(Counter::DupHits), "count"),
            m("telemetry.fp_collisions", c(Counter::FpCollisions), "count"),
            m(
                "telemetry.sleep_prunes",
                c(Counter::SleepSetPrunes),
                "count",
            ),
            m(
                "telemetry.persistent_sheds",
                c(Counter::PersistentSheds),
                "count",
            ),
            m(
                "telemetry.symmetry_folds",
                c(Counter::SymmetryFolds),
                "count",
            ),
            m(
                "telemetry.injector_flushes",
                c(Counter::InjectorFlushes),
                "count",
            ),
            m(
                "telemetry.keep_local_retained",
                c(Counter::KeepLocalRetained),
                "count",
            ),
            m(
                "telemetry.expansion_imbalance",
                self.expansion_imbalance,
                "ratio",
            ),
            m("trace.overhead", self.trace_overhead, "ratio"),
        ]
    }
}

/// Take the parallel scheduler's counters (injector flushes, keep-local
/// retention) from a run at `workers` workers, and its expansion
/// imbalance: max over mean of per-worker expansions (1.0 = balanced).
pub fn take_scheduler_counters(lay: &mut Layers, par: &TelemetrySnapshot, workers: usize) {
    for c in [Counter::InjectorFlushes, Counter::KeepLocalRetained] {
        lay.tel.counters[c as usize] = par.get(c);
    }
    let w = &par.worker_expansions;
    let total: u64 = w.iter().sum();
    if total > 0 && workers > 0 {
        let max = w.iter().copied().max().unwrap_or(0) as f64;
        lay.expansion_imbalance = max / (total as f64 / workers as f64);
    }
}

/// Sum `b`'s counters into `a` (other fields keep `a`'s values).
pub fn add_counters(a: &mut TelemetrySnapshot, b: &TelemetrySnapshot) {
    for (x, y) in a.counters.iter_mut().zip(b.counters.iter()) {
        *x += y;
    }
}
