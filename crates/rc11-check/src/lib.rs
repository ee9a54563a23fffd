//! # rc11-check — exhaustive verification over the RC11 RAR semantics
//!
//! The model-checking counterpart of the paper's Isabelle/HOL mechanisation
//! (see DESIGN.md): where the paper proves lemmas deductively over the
//! operational semantics, this crate decides them for the paper's (finite-
//! state) programs by exhaustive exploration:
//!
//! * [`engine`] — the exploration surface: [`engine::Engine`] and the
//!   [`engine::EngineReport`]/[`engine::Violation`] types it produces, the
//!   one reduction switch [`engine::Reduction`] (the engine picks the
//!   sound level per query), plus the resilience layer
//!   ([`engine::Budget`], [`engine::CancelToken`], [`engine::StopReason`],
//!   [`engine::Note`]);
//! * [`chaos`] — seeded deterministic fault injection (expansion panics,
//!   checkpoint-write failures) for the resilience harness;
//! * [`checkpoint`] — replay-log checkpoint/resume for the walk
//!   (`rc11 run --checkpoint`): resumed runs report bit-identically to
//!   uninterrupted ones;
//! * [`explore::Explorer`] — the one exploration walk: exhaustive search
//!   over canonical configurations, interned as their canonical word
//!   encodings and deduplicated on fingerprints of those words (ablation
//!   A4), with invariant checking, per-edge hooks,
//!   terminal-outcome collection and counterexample traces. Every query —
//!   outcomes, per-state checks, proof outlines — runs on it;
//! * [`outline_check`] — proof-outline validity (Figures 3, 7; Lemma 4)
//!   with Owicki–Gries violation classification (local vs interference),
//!   an edge query on the walk;
//! * [`reference`](mod@reference) — the oracle: a small breadth-first
//!   explorer over materialised canonical configurations in a std
//!   `HashSet`, with no options, reductions or threads. Only tests and
//!   `rc11 fuzz` call it; every differential compares the walk
//!   against it;
//! * `por` (internal) — sleep-set partial-order reduction over the
//!   [`rc11_core::StepFootprint`] independence oracle with
//!   `rc11_analyze`'s static may-conflict matrix as a pre-filter
//!   (ablation A5), plus the persistent-set retry rule (ablation A7);
//! * `sym` (internal) — the engine-side glue for thread-symmetry
//!   reduction ([`rc11_analyze::symmetry`], ablation A6);
//! * [`gen`] — seeded random litmus-program generation over the full
//!   statement alphabet, with deletion-based shrinking;
//! * [`fuzz`] — the generative differential harness: every generated
//!   program must produce the [`reference`](mod@reference) oracle's
//!   report under the walk, survive the
//!   `.litmus` printer/parser round-trip, and pass sampler-soundness
//!   (`random_walk` ⊆ exhaustive outcomes);
//! * [`random`] — reproducible random-walk sampling for outcome frequency;
//! * [`telemetry`] — wire encoding for [`rc11_telemetry`] snapshots, the
//!   `--trace` JSONL stream ([`telemetry::TraceWriter`]) and its
//!   validating aggregator ([`telemetry::read_trace`]);
//! * [`fxhash`] — the integer-friendly hasher behind all the maps, its
//!   128-bit extension [`fxhash::Fx128Hasher`] and the canonical
//!   fingerprint of an encoding ([`fxhash::fingerprint`] into an
//!   [`fxhash::Fp128`]).

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod engine;
pub mod fuzz;
pub mod gen;
pub mod explore;
pub mod fxhash;
pub mod outline_check;
pub(crate) mod por;
pub mod pretty;
pub mod random;
pub mod reference;
pub mod request;
pub(crate) mod sym;
pub mod telemetry;
pub mod wire;

pub use cache::{CacheStats, CacheTier, CachedVerdict, VerdictCache};
pub use chaos::{ChaosState, FaultPlan};
pub use checkpoint::CheckpointOpts;
pub use engine::{
    Budget, CancelToken, Engine, EngineReport, ExploreOptions, Note, Reduction, StopReason,
    Violation, DEFAULT_MEM_BUDGET,
};
pub use fuzz::{diff_one, fuzz, DiffOptions, DiffVerdict, FuzzFailure, FuzzReport};
pub use gen::{generate, shrink, GProg, GRhs, GStmt, GenOptions};
pub use explore::{Explorer, Report};
pub use fxhash::{fingerprint, Fp128, Fx128Hasher};
pub use outline_check::{check_outline, OgClass, OutlineKind, OutlineReport, OutlineViolation};
pub use random::{random_walk, sample_terminals, SampleError};
pub use request::{option_words, CheckParams, CheckResponse, CheckService, Served, StatsSnapshot};
pub use telemetry::{read_trace, snapshot_from_json, snapshot_json, TraceStats, TraceWriter};
pub use wire::{obj, parse_json, Json, JsonError};

/// Programs the unit tests share: every corpus file compiled, in file
/// order, then `n` generated programs whose threads are clones of one
/// body (the symmetric ones the thread-symmetry code needs), each named.
#[cfg(test)]
pub(crate) fn test_programs(n: u64) -> Vec<(String, rc11_lang::cfg::CfgProgram)> {
    use rc11_lang::{compile, parse_litmus};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
        .collect();
    files.sort();
    let mut out: Vec<_> = files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).expect("corpus file");
            let prog = compile(&parse_litmus(&src).expect("corpus parses").prog);
            (path.display().to_string(), prog)
        })
        .collect();
    let opts = GenOptions { clone_threads: true, ..GenOptions::default() };
    for seed in 0..n {
        out.push((format!("seed {seed}"), compile(&generate(seed, &opts).to_program("gen"))));
    }
    out
}

/// The object semantics `prog` runs under: none, or the abstract objects.
#[cfg(test)]
pub(crate) fn objects_of(
    prog: &rc11_lang::cfg::CfgProgram,
) -> &'static dyn rc11_lang::ObjectSemantics {
    if prog.source.objects.is_empty() {
        &rc11_lang::NoObjects
    } else {
        &rc11_objects::AbstractObjects
    }
}
