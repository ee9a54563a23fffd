//! The abstract stack used in Figures 1–3.
//!
//! The paper uses the stack illustratively and never fixes its semantics;
//! this module defines it in the style of the Figure-6 lock (see DESIGN.md,
//! design choice 3):
//!
//! * `push[^R](v)` inserts `s.push(v)` at a fresh **maximal** timestamp
//!   (pushes are totally ordered, like lock operations) and records the
//!   pusher's cross-component views as the push's `mview` — exactly a
//!   (releasing) write's bookkeeping.
//! * `pop[^A]()` is **update-like**: it takes the *globally* maximal
//!   uncovered push (like the Figure-6 acquire, which observes the
//!   `maxTS` release regardless of the acquirer's viewfront), covers it
//!   (atomicity — no two pops return the same element), inserts `s.pop(v)`
//!   immediately after it, and, when an acquiring pop takes a releasing
//!   push, joins the popping thread's views in both components with the
//!   push's `mview` — this is what makes Figure 2's publication pattern
//!   sound.
//! * `pop` returns `Empty` iff **no** uncovered push exists. An empty pop
//!   is view-preserving and adds no operation (keeping `do … until` retry
//!   loops finite-state); it is enabled exactly when `[s.pop emp]` of
//!   Figure 3 holds. Figure 1's weak behaviour lives in the *data* views
//!   (a relaxed push transfers no view), not in pop-value nondeterminism.

use rc11_core::{Combined, Comp, Loc, MethodOp, OpAction, OpId, OpRecord, Tid, Val};

/// The globally maximal uncovered push on `s`, if any — the element the
/// next pop removes.
pub fn top(mem: &Combined, s: Loc) -> Option<(OpId, Val, bool)> {
    let lib = mem.lib();
    lib.mo(s)
        .iter()
        .rev()
        .filter(|&&w| !lib.is_covered(w))
        .find_map(|&w| match lib.op(w).act.method() {
            Some(MethodOp::Push { v, rel }) => Some((w, v, rel)),
            _ => None,
        })
}

/// All `push` outcomes (always exactly one).
pub fn push_steps(mem: &Combined, t: Tid, s: Loc, v: Val, rel: bool) -> Vec<Combined> {
    let mut next = mem.with_room(Comp::Lib);
    let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
    let new = exec.insert_at_max(OpRecord {
        loc: s,
        tid: t,
        act: OpAction::Method(MethodOp::Push { v, rel }),
    });
    exec.tview_mut(t).set(s, new);
    exec.record_mview(new, t, ctx);
    vec![next]
}

/// All `pop` outcomes: either one value-returning pop (the global top) or
/// one `Empty` result — never both, and never blocked.
pub fn pop_steps(mem: &Combined, t: Tid, s: Loc, acq: bool) -> Vec<(Val, Combined)> {
    match top(mem, s) {
        None => vec![(Val::Empty, mem.clone())],
        Some((w, v, rel)) => {
            let mut next = mem.with_room(Comp::Lib);
            let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
            let new = exec.insert_after(
                w,
                OpRecord { loc: s, tid: t, act: OpAction::Method(MethodOp::Pop { v, acq }) },
            );
            exec.cover(w);
            // Views are monotone: only advance towards the new pop (the
            // popped push may lie below the popper's current viewfront).
            if exec.rank_of(new) > exec.rank_of(exec.tview(t).get(s)) {
                exec.tview_mut(t).set(s, new);
            }
            if acq && rel {
                exec.sync_with(w, t, ctx);
            }
            exec.record_mview(new, t, ctx);
            vec![(v, next)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_core::InitLoc;

    const S: Loc = Loc(0);
    const D: Loc = Loc(0);
    const T1: Tid = Tid(0);
    const T2: Tid = Tid(1);

    fn stack_state() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Obj], 2)
    }

    #[test]
    fn pop_on_empty_returns_empty_and_preserves_state() {
        let s = stack_state();
        let steps = pop_steps(&s, T1, S, true);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].0, Val::Empty);
        assert_eq!(steps[0].1, s, "empty pop must not disturb the state");
    }

    #[test]
    fn push_then_pop_round_trips() {
        let s = stack_state();
        let s = push_steps(&s, T1, S, Val::Int(7), true).pop().unwrap();
        let steps = pop_steps(&s, T2, S, true);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].0, Val::Int(7));
        // The push is now covered: a second pop sees empty.
        let again = pop_steps(&steps[0].1, T1, S, true);
        assert_eq!(again[0].0, Val::Empty);
    }

    #[test]
    fn lifo_order() {
        let s = stack_state();
        let s = push_steps(&s, T1, S, Val::Int(1), false).pop().unwrap();
        let s = push_steps(&s, T1, S, Val::Int(2), false).pop().unwrap();
        let (v1, s) = pop_steps(&s, T1, S, false).pop().unwrap();
        let (v2, s) = pop_steps(&s, T1, S, false).pop().unwrap();
        let (v3, _) = pop_steps(&s, T1, S, false).pop().unwrap();
        assert_eq!((v1, v2, v3), (Val::Int(2), Val::Int(1), Val::Empty));
    }

    /// Figure 2's publication pattern at the object level: a releasing push
    /// taken by an acquiring pop transfers the client-side `d = 5` write.
    #[test]
    fn release_push_acquire_pop_synchronises() {
        let s = stack_state();
        let w = s.write_preds(Comp::Client, T1, D)[0];
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, w);
        let s = push_steps(&s, T1, S, Val::Int(1), true).pop().unwrap();
        let (v, s) = pop_steps(&s, T2, S, true).pop().unwrap();
        assert_eq!(v, Val::Int(1));
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)], "pop^A of push^R publishes d = 5");
    }

    /// Figure 1's weakness: with a *relaxed* push (or pop) the stale read
    /// stays possible even after popping the value.
    #[test]
    fn relaxed_push_does_not_synchronise() {
        let s = stack_state();
        let w = s.write_preds(Comp::Client, T1, D)[0];
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, w);
        let s = push_steps(&s, T1, S, Val::Int(1), false).pop().unwrap();
        let (v, s) = pop_steps(&s, T2, S, true).pop().unwrap();
        assert_eq!(v, Val::Int(1));
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert!(vals.contains(&Val::Int(0)), "stale d=0 must remain observable (Figure 1)");
        assert!(vals.contains(&Val::Int(5)));
    }

    #[test]
    fn pop_skips_covered_later_pushes() {
        // T1 pushes 1 then 2; T2 pops 2 (covering it). T1's next pop must
        // return 1 even though a (covered) later push exists.
        let s = stack_state();
        let s = push_steps(&s, T1, S, Val::Int(1), false).pop().unwrap();
        let s = push_steps(&s, T1, S, Val::Int(2), false).pop().unwrap();
        let (v, s) = pop_steps(&s, T2, S, false).pop().unwrap();
        assert_eq!(v, Val::Int(2));
        let (v, _) = pop_steps(&s, T1, S, false).pop().unwrap();
        assert_eq!(v, Val::Int(1));
    }
}
