//! The abstract lock — Figure 6 of the paper.
//!
//! "Locks have a clear ordering semantics (each new lock acquire and lock
//! release operation must have a larger timestamp than all other existing
//! operations) and synchronisation requirements (there must be a
//! release-acquire synchronisation from the lock release to the lock
//! acquire)."
//!
//! * `Acquire` is enabled iff the maximal-timestamp lock operation `(w, q)`
//!   is `l.init_0` or `l.release_{n-1}` (the lock is free). It inserts
//!   `l.acquire_n(t)` at a fresh maximal timestamp, **covers** `w` (no later
//!   acquire can slot between the release and this acquire), joins the
//!   acquiring thread's views — in both components — with `mview(w)`, and
//!   records the merged views as the acquire's own `mview`.
//! * `Release` is enabled iff the maximal operation is `l.acquire_{n-1}(t)`
//!   *by the same thread* (you only release a lock you hold). It inserts
//!   `l.release_n` at a fresh maximal timestamp; like a plain releasing
//!   write it records the releasing thread's cross-component views but joins
//!   nothing.

use rc11_core::{Combined, Comp, Loc, MethodOp, OpAction, OpRecord, Tid};

/// The lock-operation index of the maximal operation on `l`, if the lock is
/// in a state where `m` can fire; `None` if `l`'s history is malformed.
fn lock_index_of_max(mem: &Combined, l: Loc) -> Option<(rc11_core::OpId, MethodOp)> {
    let lib = mem.lib();
    let w = lib.max_op(l);
    lib.op(w).act.method().map(|m| (w, m))
}

/// All `Acquire` outcomes: zero (blocked — lock held) or one (the lock is
/// free; the transition is deterministic up to the timestamp, which is
/// canonically maximal). Returns the new lock version `n` with the state.
pub fn acquire_steps(mem: &Combined, t: Tid, l: Loc) -> Vec<(u32, Combined)> {
    let Some((w, m)) = lock_index_of_max(mem, l) else {
        return Vec::new();
    };
    // Premise: w ∈ {l.init_0, l.release_{n-1}}.
    let n_prev = match m {
        MethodOp::Init => 0,
        MethodOp::LockRelease { n } => n,
        _ => return Vec::new(), // lock held: acquire blocked
    };
    let n = n_prev + 1;

    let mut next = mem.with_room(Comp::Lib);
    let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
    let b = MethodOp::LockAcquire { n, tid: t };
    let new = exec.insert_at_max(OpRecord { loc: l, tid: t, act: OpAction::Method(b) });
    // cvd' = cvd ∪ {(w, q)}.
    exec.cover(w);
    // tview' = γ.tview_t[l := (b, q')] ⊗ γ.mview_(w,q);
    // ctview' = β.tview_t ⊗ γ.mview_(w,q).
    exec.tview_mut(t).set(l, new);
    exec.sync_with(w, t, ctx);
    // mview' = tview' ∪ ctview'.
    exec.record_mview(new, t, ctx);

    vec![(n, next)]
}

/// All `Release` outcomes: zero (the caller does not hold the lock) or one.
/// Returns the new lock version with the state.
pub fn release_steps(mem: &Combined, t: Tid, l: Loc) -> Vec<(u32, Combined)> {
    let Some((_w, m)) = lock_index_of_max(mem, l) else {
        return Vec::new();
    };
    // Premise: w = l.acquire_{n-1}(t) — held by *this* thread.
    let n = match m {
        MethodOp::LockAcquire { n, tid } if tid == t => n + 1,
        _ => return Vec::new(),
    };

    let mut next = mem.with_room(Comp::Lib);
    let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
    let a = MethodOp::LockRelease { n };
    let new = exec.insert_at_max(OpRecord { loc: l, tid: t, act: OpAction::Method(a) });
    // tview' = γ.tview_t[l := (a, q')]; mview' = tview' ∪ β.tview_t.
    exec.tview_mut(t).set(l, new);
    exec.record_mview(new, t, ctx);

    vec![(n, next)]
}

/// True iff thread `t` currently holds lock `l` (the maximal operation is an
/// acquire by `t`). Used by tests and the mutual-exclusion assertions.
pub fn holds_lock(mem: &Combined, t: Tid, l: Loc) -> bool {
    matches!(
        lock_index_of_max(mem, l),
        Some((_, MethodOp::LockAcquire { tid, .. })) if tid == t
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_core::{InitLoc, Val};

    const L: Loc = Loc(0);
    const D: Loc = Loc(0);
    const T1: Tid = Tid(0);
    const T2: Tid = Tid(1);

    fn lock_state() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Obj], 2)
    }

    #[test]
    fn acquire_succeeds_on_free_lock() {
        let s = lock_state();
        let steps = acquire_steps(&s, T1, L);
        assert_eq!(steps.len(), 1);
        let (n, s2) = &steps[0];
        assert_eq!(*n, 1, "first acquire has version 1");
        assert!(holds_lock(s2, T1, L));
        assert!(s2.lib().is_covered(rc11_core::OpId(0)), "init is covered by the acquire");
    }

    #[test]
    fn acquire_blocks_on_held_lock() {
        let s = lock_state();
        let (_, s) = acquire_steps(&s, T1, L).pop().unwrap();
        assert!(acquire_steps(&s, T2, L).is_empty(), "second acquire must block");
        assert!(acquire_steps(&s, T1, L).is_empty(), "re-acquire must block too");
    }

    #[test]
    fn release_requires_ownership() {
        let s = lock_state();
        assert!(release_steps(&s, T1, L).is_empty(), "cannot release a free lock");
        let (_, s) = acquire_steps(&s, T1, L).pop().unwrap();
        assert!(release_steps(&s, T2, L).is_empty(), "non-owner cannot release");
        let rel = release_steps(&s, T1, L);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].0, 2, "release after acquire_1 is release_2");
        assert!(!holds_lock(&rel[0].1, T1, L));
    }

    #[test]
    fn versions_count_all_lock_operations() {
        let s = lock_state();
        let (n1, s) = acquire_steps(&s, T1, L).pop().unwrap();
        let (n2, s) = release_steps(&s, T1, L).pop().unwrap();
        let (n3, s) = acquire_steps(&s, T2, L).pop().unwrap();
        let (n4, _) = release_steps(&s, T2, L).pop().unwrap();
        assert_eq!((n1, n2, n3, n4), (1, 2, 3, 4));
    }

    /// The heart of Figure 7: writes made under the lock are *definitely*
    /// visible to the next acquirer (release-acquire synchronisation through
    /// the lock object, across components: lock in β, data in γ).
    #[test]
    fn acquire_synchronises_with_previous_critical_section() {
        let s = lock_state();
        let (_, s) = acquire_steps(&s, T1, L).pop().unwrap();
        // T1 writes client d := 5 inside the critical section (relaxed!).
        let w = s.write_preds(Comp::Client, T1, D)[0];
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, w);
        let (_, s) = release_steps(&s, T1, L).pop().unwrap();
        // T2 acquires: its *client* view must now only see d = 5.
        let (_, s) = acquire_steps(&s, T2, L).pop().unwrap();
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)], "lock hand-off must publish the d=5 write");
    }

    /// Without the lock (no synchronisation), the stale value stays
    /// observable — the negative control for the test above.
    #[test]
    fn no_sync_without_lock_handoff() {
        let s = lock_state();
        let w = s.write_preds(Comp::Client, T1, D)[0];
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, w);
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert!(vals.contains(&Val::Int(0)), "stale read remains possible without hand-off");
    }

    #[test]
    fn acquire_after_release_covers_release() {
        let s = lock_state();
        let (_, s) = acquire_steps(&s, T1, L).pop().unwrap();
        let (_, s) = release_steps(&s, T1, L).pop().unwrap();
        let release_op = s.lib().max_op(L);
        let (_, s) = acquire_steps(&s, T2, L).pop().unwrap();
        assert!(s.lib().is_covered(release_op));
    }
}
