//! # rc11-check — exhaustive verification over the RC11 RAR semantics
//!
//! The model-checking counterpart of the paper's Isabelle/HOL mechanisation
//! (see DESIGN.md): where the paper proves lemmas deductively over the
//! operational semantics, this crate decides them for the paper's (finite-
//! state) programs by exhaustive exploration:
//!
//! * [`engine`] — the unified exploration surface: [`engine::Engine`],
//!   [`engine::choose_engine`], and the shared
//!   [`engine::EngineReport`]/[`engine::Violation`] types both engines
//!   produce, the one reduction switch [`engine::Reduction`] (the engine
//!   picks the sound level per query), plus the resilience layer ([`engine::Budget`],
//!   [`engine::CancelToken`], [`engine::StopReason`], [`engine::Note`]);
//! * [`chaos`] — seeded deterministic fault injection (worker panics,
//!   stalls, checkpoint-write failures) for the resilience harness;
//! * [`checkpoint`] — replay-log checkpoint/resume for the sequential
//!   explorer (`rc11 run --checkpoint`): resumed runs report
//!   bit-identically to uninterrupted ones;
//! * [`explore::Explorer`] — sequential exhaustive search over canonical configurations
//!   with invariant checking, terminal-outcome collection and counterexample
//!   traces;
//! * [`outline_check`] — proof-outline validity (Figures 3, 7; Lemma 4)
//!   with Owicki–Gries violation classification (local vs interference),
//!   runnable under either engine ([`outline_check::check_outline_with`]);
//! * [`parallel`] — the batched work-stealing parallel engine over a
//!   sharded fingerprint-keyed interned state store, with counterexample
//!   traces (ablations A3/A4). Both engines share one dedup mode:
//!   zero-rebuild canonical fingerprints confirmed against the interned
//!   representative;
//! * [`reference`](mod@reference) — the oracle: a small breadth-first
//!   explorer over materialised canonical configurations in a std
//!   `HashSet`, with no options, reductions or threads. Only tests and
//!   `rc11 fuzz` call it; every differential compares the engines
//!   against it;
//! * `por` (internal) — sleep-set partial-order reduction over the
//!   [`rc11_core::StepFootprint`] independence oracle with
//!   `rc11_analyze`'s static may-conflict matrix as a pre-filter, layered
//!   on both engines (ablation A5), plus the persistent-set retry rule
//!   (ablation A7);
//! * `sym` (internal) — the engine-side glue for thread-symmetry
//!   reduction ([`rc11_analyze::symmetry`], ablation A6);
//! * [`gen`] — seeded random litmus-program generation over the full
//!   statement alphabet, with deletion-based shrinking;
//! * [`fuzz`] — the generative differential harness: every generated
//!   program must produce the [`reference`](mod@reference) oracle's
//!   report under the sequential and parallel engines, survive the
//!   `.litmus` printer/parser round-trip, and pass sampler-soundness
//!   (`random_walk` ⊆ exhaustive outcomes);
//! * [`random`] — reproducible random-walk sampling for outcome frequency;
//! * [`telemetry`] — wire encoding for [`rc11_telemetry`] snapshots, the
//!   `--trace` JSONL stream ([`telemetry::TraceWriter`]) and its
//!   validating aggregator ([`telemetry::read_trace`]);
//! * [`fxhash`] — the integer-friendly hasher behind all the maps, its
//!   128-bit extension [`fxhash::Fx128Hasher`] and the zero-rebuild
//!   canonical fingerprint surface
//!   ([`fxhash::CanonicalFingerprint`]/[`fxhash::Fp128`]).

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
pub mod parallel;
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
    choose_engine, Budget, CancelToken, Engine, EngineReport, ExploreOptions, Note, Reduction,
    StopReason, Violation,
};
pub use fuzz::{diff_one, fuzz, DiffOptions, DiffVerdict, FuzzFailure, FuzzReport};
pub use gen::{generate, shrink, GProg, GRhs, GStmt, GenOptions};
pub use explore::{Explorer, Report};
pub use fxhash::{CanonicalFingerprint, Fp128, Fx128Hasher};
pub use outline_check::{
    check_outline, check_outline_with, OgClass, OutlineKind, OutlineReport, OutlineViolation,
};
pub use parallel::{par_explore, ShardedFpMap};
pub use random::{random_walk, sample_terminals, SampleError};
pub use request::{option_words, CheckParams, CheckResponse, CheckService, Served, StatsSnapshot};
pub use telemetry::{read_trace, snapshot_from_json, snapshot_json, TraceStats, TraceWriter};
pub use wire::{obj, parse_json, Json, JsonError};
