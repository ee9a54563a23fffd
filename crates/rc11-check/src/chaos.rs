//! Seeded deterministic fault injection for the resilience harness.
//!
//! Faults are **data**: a [`FaultPlan`] names the fault points (a panic
//! at the Nth expansion, a checkpoint-write failure at the Kth write) and
//! a seed derives a plan
//! reproducibly, so every chaos failure replays from its seed — the
//! pattern of the deterministic coordination tests this module is modelled
//! on. A [`ChaosState`] threads the plan through an exploration via
//! [`ExploreOptions::chaos`](crate::engine::ExploreOptions::chaos):
//!
//! * the exploration walk calls [`ChaosState::on_expansion`] once per
//!   popped frontier item; it has no internal containment, so an injected
//!   `worker_panic_at` panic unwinds out of `explore` and is caught by the
//!   shared request path ([`CheckService`](crate::request::CheckService)),
//!   which reports it as a `WorkerFault` stop with the panic message in
//!   the note detail;
//! * the checkpointer calls
//!   [`ChaosState::should_fail_checkpoint`] before each write, so
//!   `checkpoint_fail_at` simulates a failed save without touching disk.
//!
//! The contract the chaos differential (`fuzz --chaos`,
//! `tests/resilience.rs`) enforces: under *any* fault schedule the report
//! is either bit-identical to the unfaulted oracle's or carries an
//! explicitly non-`Complete` [`StopReason`](crate::engine::StopReason) —
//! never silently wrong.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A deterministic fault schedule. All counters are 1-based: a
/// `worker_panic_at` of `Some(3)` panics the walk at its third expansion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic the walk at this (1-based) expansion.
    pub worker_panic_at: Option<u64>,
    /// Fail the Kth (1-based) checkpoint write.
    pub checkpoint_fail_at: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Derive a fault schedule from a seed (splitmix64). Always injects at
    /// least one fault; the fault points land early (within the first few
    /// dozen expansions / first few writes) so small fuzz programs hit
    /// them.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let kinds = next();
        let mut plan = FaultPlan {
            worker_panic_at: (kinds & 1 != 0).then(|| 1 + next() % 48),
            checkpoint_fail_at: (kinds & 2 != 0).then(|| 1 + next() % 4),
        };
        if plan.is_empty() {
            plan.worker_panic_at = Some(1 + next() % 48);
        }
        plan
    }
}

/// The live counters a [`FaultPlan`] runs on. Shared via `Arc` between
/// the caller and the walk; the hot path is one `fetch_add` per
/// expansion.
pub struct ChaosState {
    plan: FaultPlan,
    expansions: AtomicU64,
    ckpt_writes: AtomicU64,
    injected: Mutex<Vec<String>>,
}

impl std::fmt::Debug for ChaosState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosState")
            .field("plan", &self.plan)
            .field("expansions", &self.expansions)
            .field("ckpt_writes", &self.ckpt_writes)
            .finish_non_exhaustive()
    }
}

impl ChaosState {
    /// Wrap a plan for threading through
    /// [`ExploreOptions::chaos`](crate::engine::ExploreOptions::chaos).
    pub fn new(plan: FaultPlan) -> Arc<ChaosState> {
        Arc::new(ChaosState {
            plan,
            expansions: AtomicU64::new(0),
            ckpt_writes: AtomicU64::new(0),
            injected: Mutex::new(Vec::new()),
        })
    }

    /// The plan this state runs.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Called by the walk once per expanded work item. Fires
    /// `worker_panic_at` (a real `panic!`, contained by the request path's
    /// `catch_unwind`) when its count comes up.
    pub fn on_expansion(&self) {
        let n = self.expansions.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.worker_panic_at == Some(n) {
            self.log(format!("worker panic at expansion {n}"));
            panic!("chaos: injected worker panic at expansion {n}");
        }
    }

    /// Called by the checkpointer before each write; `true`
    /// means "simulate a failed write" (the checkpointer then records a
    /// `Note::CheckpointError` and continues without saving).
    pub fn should_fail_checkpoint(&self) -> bool {
        let k = self.ckpt_writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.checkpoint_fail_at == Some(k) {
            self.log(format!("checkpoint write {k} failed"));
            return true;
        }
        false
    }

    /// The faults actually injected so far (for assertions and debugging).
    pub fn injected(&self) -> Vec<String> {
        self.injected.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Record an injected fault. A poisoned lock (a panic while logging)
    /// still records: the log is append-only.
    fn log(&self, fault: String) {
        self.injected.lock().unwrap_or_else(|e| e.into_inner()).push(fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_nonempty() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b, "seed {seed} must derive one plan");
            assert!(!a.is_empty(), "seed {seed} must inject something");
        }
    }

    #[test]
    fn expansion_counter_fires_the_named_point() {
        let st = ChaosState::new(FaultPlan { worker_panic_at: Some(2), ..FaultPlan::none() });
        st.on_expansion();
        assert!(st.injected().is_empty());
        let fired = std::panic::catch_unwind(|| st.on_expansion());
        assert!(fired.is_err(), "the second expansion panics");
        assert_eq!(st.injected().len(), 1);
        st.on_expansion();
        assert_eq!(st.injected().len(), 1, "fires exactly once");
    }

    #[test]
    fn checkpoint_failures_fire_once() {
        let st = ChaosState::new(FaultPlan {
            checkpoint_fail_at: Some(1),
            ..FaultPlan::none()
        });
        assert!(st.should_fail_checkpoint());
        assert!(!st.should_fail_checkpoint());
    }
}
