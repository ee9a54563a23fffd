//! Extension object: an abstract FIFO queue.
//!
//! The paper closes with "it would be interesting to further investigate
//! implementations of other concurrent data types … within this
//! operational framework"; the queue is the canonical next ADT. Semantics
//! mirror the stack's (DESIGN.md, design choice 3) with the selection
//! flipped to FIFO:
//!
//! * `enq[^R](v)` inserts `q.enq(v)` at a fresh **maximal** timestamp and
//!   records the enqueuer's cross-component views;
//! * `deq[^A]()` takes the **oldest** uncovered enqueue, covers it
//!   (update-style atomicity), inserts `q.deq(v)` immediately after it,
//!   and — when an acquiring dequeue takes a releasing enqueue — joins the
//!   dequeuer's views in both components with the enqueue's `mview`;
//! * `deq` returns `Empty` iff no uncovered enqueue exists; an empty
//!   dequeue is view-preserving and adds no operation.

use rc11_core::{Combined, Comp, Loc, MethodOp, OpAction, OpId, OpRecord, Tid, Val};

/// The oldest uncovered enqueue on `q`, if any — the element the next
/// dequeue removes.
pub fn front(mem: &Combined, q: Loc) -> Option<(OpId, Val, bool)> {
    let lib = mem.lib();
    lib.mo(q)
        .iter()
        .filter(|&&w| !lib.is_covered(w))
        .find_map(|&w| match lib.op(w).act.method() {
            Some(MethodOp::Enq { v, rel }) => Some((w, v, rel)),
            _ => None,
        })
}

/// All `enq` outcomes (always exactly one).
pub fn enq_steps(mem: &Combined, t: Tid, q: Loc, v: Val, rel: bool) -> Vec<Combined> {
    let mut next = mem.with_room(Comp::Lib);
    let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
    let new = exec.insert_at_max(OpRecord {
        loc: q,
        tid: t,
        act: OpAction::Method(MethodOp::Enq { v, rel }),
    });
    exec.tview_mut(t).set(q, new);
    exec.record_mview(new, t, ctx);
    vec![next]
}

/// All `deq` outcomes: one value-returning dequeue (the FIFO front) or one
/// `Empty` result.
pub fn deq_steps(mem: &Combined, t: Tid, q: Loc, acq: bool) -> Vec<(Val, Combined)> {
    match front(mem, q) {
        None => vec![(Val::Empty, mem.clone())],
        Some((w, v, rel)) => {
            let mut next = mem.with_room(Comp::Lib);
            let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
            let new = exec.insert_after(
                w,
                OpRecord { loc: q, tid: t, act: OpAction::Method(MethodOp::Deq { v, acq }) },
            );
            exec.cover(w);
            if exec.rank_of(new) > exec.rank_of(exec.tview(t).get(q)) {
                exec.tview_mut(t).set(q, new);
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

    const Q: Loc = Loc(0);
    const D: Loc = Loc(0);
    const T1: Tid = Tid(0);
    const T2: Tid = Tid(1);

    fn state() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Obj], 2)
    }

    #[test]
    fn fifo_order() {
        let s = state();
        let s = enq_steps(&s, T1, Q, Val::Int(1), false).pop().unwrap();
        let s = enq_steps(&s, T1, Q, Val::Int(2), false).pop().unwrap();
        let (v1, s) = deq_steps(&s, T2, Q, false).pop().unwrap();
        let (v2, s) = deq_steps(&s, T2, Q, false).pop().unwrap();
        let (v3, _) = deq_steps(&s, T2, Q, false).pop().unwrap();
        assert_eq!((v1, v2, v3), (Val::Int(1), Val::Int(2), Val::Empty));
    }

    #[test]
    fn empty_dequeue_preserves_state() {
        let s = state();
        let steps = deq_steps(&s, T1, Q, true);
        assert_eq!(steps[0].0, Val::Empty);
        assert_eq!(steps[0].1, s);
    }

    #[test]
    fn releasing_enq_acquiring_deq_synchronises() {
        let s = state();
        let w = s.write_preds(Comp::Client, T1, D)[0];
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, w);
        let s = enq_steps(&s, T1, Q, Val::Int(1), true).pop().unwrap();
        let (v, s) = deq_steps(&s, T2, Q, true).pop().unwrap();
        assert_eq!(v, Val::Int(1));
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)], "deq^A of enq^R publishes d = 5");
    }

    #[test]
    fn relaxed_enq_does_not_synchronise() {
        let s = state();
        let w = s.write_preds(Comp::Client, T1, D)[0];
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, w);
        let s = enq_steps(&s, T1, Q, Val::Int(1), false).pop().unwrap();
        let (_, s) = deq_steps(&s, T2, Q, true).pop().unwrap();
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert!(vals.contains(&Val::Int(0)), "stale read must remain possible");
    }

    #[test]
    fn interleaved_producers_consumers() {
        // Two producers, one consumer: dequeues return each value once.
        let s = state();
        let s = enq_steps(&s, T1, Q, Val::Int(10), true).pop().unwrap();
        let s = enq_steps(&s, T2, Q, Val::Int(20), true).pop().unwrap();
        let (a, s) = deq_steps(&s, T1, Q, true).pop().unwrap();
        let (b, s) = deq_steps(&s, T2, Q, true).pop().unwrap();
        assert_eq!((a, b), (Val::Int(10), Val::Int(20)));
        let (c, _) = deq_steps(&s, T1, Q, true).pop().unwrap();
        assert_eq!(c, Val::Empty);
    }
}
