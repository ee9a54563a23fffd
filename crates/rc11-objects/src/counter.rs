//! Extension object: an abstract fetch-and-increment counter.
//!
//! Lock-style ordering (every `inc` lands at a fresh maximal timestamp and
//! covers its predecessor, so counts are gap-free), with every `inc`
//! synchronising with the previous one — the abstract analogue of an `FAI`
//! chain over a single variable. Not in the paper; exercises the framework
//! on a second totally-ordered object.

use rc11_core::{Combined, Comp, Loc, MethodOp, OpAction, OpRecord, Tid, Val};

/// The running count recorded by operation `w` (`init_0` = 0).
fn count_of(act: OpAction) -> Option<i64> {
    match act.method() {
        Some(MethodOp::Init) => Some(0),
        Some(MethodOp::CtrInc { v }) => v.as_int(),
        _ => None,
    }
}

/// All `inc()` outcomes: exactly one — the counter is strictly serialised.
/// Returns the *old* count (fetch-and-increment).
pub fn inc_steps(mem: &Combined, t: Tid, c: Loc) -> Vec<(Val, Combined)> {
    let lib = mem.lib();
    let w = lib.max_op(c);
    let Some(old) = count_of(lib.op(w).act) else {
        return Vec::new();
    };

    let mut next = mem.with_room(Comp::Lib);
    let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
    let new = exec.insert_at_max(OpRecord {
        loc: c,
        tid: t,
        act: OpAction::Method(MethodOp::CtrInc { v: Val::Int(old + 1) }),
    });
    exec.cover(w);
    exec.tview_mut(t).set(c, new);
    exec.sync_with(w, t, ctx);
    exec.record_mview(new, t, ctx);

    vec![(Val::Int(old), next)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_core::InitLoc;

    const C: Loc = Loc(0);
    const D: Loc = Loc(0);
    const T1: Tid = Tid(0);
    const T2: Tid = Tid(1);

    fn state() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Obj], 2)
    }

    #[test]
    fn counts_are_sequential() {
        let s = state();
        let (v1, s) = inc_steps(&s, T1, C).pop().unwrap();
        let (v2, s) = inc_steps(&s, T2, C).pop().unwrap();
        let (v3, _) = inc_steps(&s, T1, C).pop().unwrap();
        assert_eq!((v1, v2, v3), (Val::Int(0), Val::Int(1), Val::Int(2)));
    }

    #[test]
    fn inc_synchronises_with_previous_inc() {
        // T1 writes d=5 then incs; T2's inc must see T1's d=5 publication.
        let s = state();
        let w = s.write_preds(Comp::Client, T1, D)[0];
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, w);
        let (_, s) = inc_steps(&s, T1, C).pop().unwrap();
        let (_, s) = inc_steps(&s, T2, C).pop().unwrap();
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)], "inc chain carries the publication");
    }

    #[test]
    fn predecessors_become_covered() {
        let s = state();
        let (_, s) = inc_steps(&s, T1, C).pop().unwrap();
        assert!(s.lib().is_covered(rc11_core::OpId(0)));
    }
}
