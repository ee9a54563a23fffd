//! # rc11-core — the RC11 RAR memory-model substrate
//!
//! Executable reproduction of the operational semantics of *Verifying
//! C11-Style Weak Memory Libraries* (Dalvandi & Dongol, PPoPP 2021),
//! Sections 3–4: timestamped component states, per-thread and per-write
//! viewfronts, covered operations, and the Figure-5 transition relation for
//! reads, writes and updates over client–library state pairs.
//!
//! Two engines implement the same semantics:
//!
//! * [`combined::Combined`] over [`state::CState`] — the **fast engine**:
//!   timestamps are dense per-location ranks, states canonicalise and hash,
//!   used by the model checker (rc11-check);
//! * [`lit`] — the **literal engine**: a line-by-line transcription of
//!   Figure 5 with exact rational timestamps ([`ts::Ts`]) and explicit
//!   operation/timestamp pairs, used as the auditable specification.
//!
//! The two are cross-validated by differential tests (`tests/` of this crate
//! and the workspace root) and benchmarked against each other (ablation A1).
//!
//! Abstract *objects* (Section 4) extend the same states: an object is one
//! more view-tracked location whose history records method operations
//! ([`action::MethodOp`]). Their transition rules live in `rc11-objects`,
//! built from the state-manipulation API exposed here ([`state::CState`]'s
//! `insert_at_max`, `cover`, `sync_with`, `record_mview`, …).
//!
//! The [`footprint`] module is the *independence oracle* for partial-order
//! reduction (ablation A5): a conservative summary of what each transition
//! reads and writes ([`footprint::StepFootprint`]) and a
//! `may_conflict` predicate whose `false` answers certify that two steps by
//! different threads commute up to canonical equivalence.

#![warn(missing_docs)]

pub mod action;
pub mod canon;
pub mod combined;
pub mod footprint;
pub mod ids;
pub mod lit;
pub mod pretty;
pub mod state;
pub mod ts;
pub mod val;
pub mod view;

pub use action::{MethodOp, OpAction};
pub use canon::CanonPerms;
pub use combined::{Combined, ReadChoice};
pub use footprint::{Access, AccessKind, StepFootprint};
pub use ids::{Comp, Loc, LocKind, LocTable, OpId, Tid, MAX_LOCS, MAX_THREADS};
pub use state::{CState, InitLoc, OpRecord};
pub use ts::Ts;
pub use val::Val;
pub use view::{View, ViewMut};
