//! # rc11 — verifying C11-style weak memory libraries, executably
//!
//! Umbrella crate for the reproduction of *Verifying C11-Style Weak Memory
//! Libraries* (Dalvandi & Dongol, PPoPP 2021): re-exports every layer and a
//! [`prelude`] for examples and tests.
//!
//! The layers, bottom-up:
//!
//! * [`core`] (rc11-core) — the RC11 RAR memory model: timestamped
//!   client/library component states, views, the Figure-5 transition rules
//!   (fast engine + literal rational-timestamp engine);
//! * [`lang`] (rc11-lang) — the Figure-4 program grammar with method-call
//!   holes, its AST semantics, and the CFG machine;
//! * [`analyze`] (rc11-analyze) — static analyses run before exploration:
//!   thread-symmetry detection, static may-conflict matrices, and the
//!   `rc11 lint` diagnostics pass;
//! * [`objects`] (rc11-objects) — abstract objects (Section 4): the
//!   Figure-6 lock, the message-passing stack, extensions;
//! * [`assert`] (rc11-assert) — the Section-5.1 observability assertion
//!   language and proof outlines;
//! * [`telemetry`] (rc11-telemetry) — the exploration telemetry spine:
//!   sharded relaxed counters, phase timers, and serializable snapshots
//!   behind `ExploreOptions::telemetry` (DESIGN.md §9);
//! * [`check`] (rc11-check) — exhaustive (sequential & parallel) state-space
//!   exploration, proof-outline checking with Owicki–Gries classification;
//! * [`refine`] (rc11-refine) — contextual refinement (Section 6): trace
//!   refinement, forward simulation, and the brute-force baseline;
//! * [`locks`] (rc11-locks) — the sequence lock and ticket lock (plus
//!   extensions and deliberately-broken negative controls);
//! * [`litmus`] (rc11-litmus) — a litmus-test gallery with expected RC11
//!   RAR verdicts, plus loaders for the `.litmus` text corpus at
//!   `corpus/` (grammar in `corpus/README.md`).
//!
//! The umbrella crate adds [`daemon`] — rc11d, the cache-fronted
//! checking daemon behind `rc11 serve`: JSON lines over TCP into the
//! shared [`check::CheckService`] request path, with a canonical-
//! fingerprint verdict cache (memory LRU over a checksummed disk spill).
//!
//! The `rc11` binary (`src/bin/rc11.rs`) batch-runs `.litmus` corpora
//! under any engine configuration (`rc11 run corpus/ --workers 1,2,4,8`),
//! drives the generative differential-fuzz harness
//! (`rc11 fuzz --seed S --iters N`), and hosts/queries the daemon
//! (`rc11 serve`, `rc11 submit`).

pub mod daemon;
pub mod figures;
pub mod lemma3;

pub use rc11_analyze as analyze;
pub use rc11_assert as assert;
pub use rc11_check as check;
pub use rc11_core as core;
pub use rc11_lang as lang;
pub use rc11_litmus as litmus;
pub use rc11_locks as locks;
pub use rc11_objects as objects;
pub use rc11_refine as refine;
pub use rc11_telemetry as telemetry;

/// Everything the examples and integration tests need, in one import.
pub mod prelude {
    pub use rc11_assert::dsl::*;
    pub use rc11_assert::{EvalCtx, OpPat, Pred, ProofOutline};
    pub use rc11_check::{
        check_outline, check_outline_with, choose_engine, par_explore, sample_terminals, Budget,
        CancelToken, ChaosState, CheckpointOpts, Engine, EngineReport, ExploreOptions, Explorer,
        FaultPlan, Note, OutlineReport, Reduction, StopReason,
    };
    pub use rc11_core::{Combined, Comp, InitLoc, Loc, OpId, Tid, Val};
    pub use rc11_lang::builder::*;
    pub use rc11_lang::inline::instantiate;
    pub use rc11_lang::machine::{Config, NoObjects, StepOptions};
    pub use rc11_lang::parse::{parse_litmus, ParseError, ParsedLitmus};
    pub use rc11_lang::{compile, CfgProgram, Com, Method, ObjRef, Program, Reg, VarRef};
    pub use rc11_objects::AbstractObjects;
}
