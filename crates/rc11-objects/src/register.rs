//! Extension object: an abstract atomic register.
//!
//! Not in the paper; included to demonstrate that the Section-4 framework
//! ("the theory itself is generic and can be applied to concurrent objects
//! in general") accommodates objects whose operations are *not* totally
//! ordered. Writes behave like Figure-5 writes (the writer picks any
//! observable uncovered predecessor — stale placements allowed); reads
//! behave like Figure-5 reads over the method history, with `read^A` of a
//! `write^R` synchronising.
//!
//! The register's initial value is `0` (the `init_0` operation reads as 0).

use rc11_core::{Combined, Comp, Loc, MethodOp, OpAction, OpId, OpRecord, Tid, Val};

/// The value a read of operation `w` on a register returns (`init_0` = 0).
fn reg_val(act: OpAction) -> Val {
    match act.method() {
        Some(MethodOp::Init) => Val::Int(0),
        Some(MethodOp::RegWrite { v, .. }) => v,
        _ => Val::Bot,
    }
}

/// All `write(v)` outcomes: one per observable uncovered predecessor.
pub fn write_steps(mem: &Combined, t: Tid, r: Loc, v: Val, rel: bool) -> Vec<Combined> {
    let preds: Vec<OpId> = mem.lib().obs_uncovered(t, r).collect();
    preds
        .into_iter()
        .map(|w| {
            let mut next = mem.with_room(Comp::Lib);
            let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
            let new = exec.insert_after(
                w,
                OpRecord { loc: r, tid: t, act: OpAction::Method(MethodOp::RegWrite { v, rel }) },
            );
            exec.tview_mut(t).set(r, new);
            exec.record_mview(new, t, ctx);
            next
        })
        .collect()
}

/// All `read()` outcomes: one per observable operation.
pub fn read_steps(mem: &Combined, t: Tid, r: Loc, acq: bool) -> Vec<(Val, Combined)> {
    let choices: Vec<OpId> = mem.lib().obs(t, r).to_vec();
    choices
        .into_iter()
        .map(|w| {
            let v = reg_val(mem.lib().op(w).act);
            let rel = mem.lib().op(w).act.is_releasing();
            let mut next = mem.clone();
            let (exec, ctx) = next.exec_ctx_mut(Comp::Lib);
            if acq && rel {
                exec.sync_with(w, t, ctx);
            } else {
                exec.tview_mut(t).set(r, w);
            }
            (v, next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_core::InitLoc;

    const R: Loc = Loc(0);
    const D: Loc = Loc(0);
    const T1: Tid = Tid(0);
    const T2: Tid = Tid(1);

    fn state() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Obj], 2)
    }

    #[test]
    fn initial_read_is_zero() {
        let s = state();
        let reads = read_steps(&s, T1, R, false);
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].0, Val::Int(0));
    }

    #[test]
    fn stale_reads_allowed_until_observed() {
        let s = state();
        let s = write_steps(&s, T1, R, Val::Int(9), false).pop().unwrap();
        let vals: Vec<Val> = read_steps(&s, T2, R, false).iter().map(|(v, _)| *v).collect();
        assert_eq!(vals, vec![Val::Int(0), Val::Int(9)], "T2 may read stale 0 or new 9");
        // After reading 9, 0 is gone.
        let (_, s2) = read_steps(&s, T2, R, false).pop().unwrap();
        let vals: Vec<Val> = read_steps(&s2, T2, R, false).iter().map(|(v, _)| *v).collect();
        assert_eq!(vals, vec![Val::Int(9)]);
    }

    #[test]
    fn message_passing_through_register() {
        let s = state();
        let w = s.write_preds(Comp::Client, T1, D)[0];
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, w);
        let s = write_steps(&s, T1, R, Val::Int(1), true).pop().unwrap();
        // T2 acquiring-reads the flag value 1.
        let (v, s) = read_steps(&s, T2, R, true).pop().unwrap();
        assert_eq!(v, Val::Int(1));
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)]);
    }

    #[test]
    fn writes_can_be_placed_behind_other_writes() {
        // Two relaxed writes by different threads that haven't seen each
        // other: the second writer may place before or after the first.
        let s = state();
        let s = write_steps(&s, T1, R, Val::Int(1), false).pop().unwrap();
        let placements = write_steps(&s, T2, R, Val::Int(2), false);
        assert_eq!(placements.len(), 2, "T2 may slot before or after T1's write");
    }
}
