//! # rc11-locks — lock implementations (Sections 6.2–6.3)
//!
//! The paper's two refinements of the abstract lock, expressed as
//! [`ObjectImpl`]s whose bodies are ordinary `Com` code over library
//! variables (filled into client holes by `rc11_lang::inline::instantiate`):
//!
//! * [`seqlock`] — the sequence lock over a single variable `glb`
//!   (Section 6.2): acquire spins for an even value and CASes it odd;
//!   release adds 2 with a releasing write.
//! * [`ticket`] — the ticket lock over `nt`/`sn` (Section 6.3): acquire
//!   takes a ticket with `FAI` and spins until served; release publishes
//!   the next ticket with a releasing write.
//!
//! Extensions (not in the paper, same abstract specification — the point of
//! question (3) in the introduction):
//!
//! * [`tas`] — test-and-set lock;
//! * [`ttas`] — test-and-test-and-set lock.
//!
//! Negative controls for the refinement checker (deliberately wrong):
//!
//! * [`broken_relaxed_seqlock`] — seqlock whose release write is *relaxed*:
//!   mutual exclusion still holds but the publication guarantee is lost;
//! * [`broken_noop_lock`] — no lock at all (acquire/release do nothing).
//!
//! Method-local registers persist across calls per thread (both paper locks
//! rely on this: their `Release` bodies reuse values read during
//! `Acquire`).

#![warn(missing_docs)]

use rc11_lang::builder::*;
use rc11_lang::inline::{CallSite, ObjectImpl};
use rc11_lang::{Com, Method, Reg, VarRef};

fn ret_true(call: &CallSite) -> Com {
    match call.ret {
        Some(r) => assign(r, true),
        None => Com::Skip,
    }
}

/// The sequence lock of Section 6.2.
///
/// ```text
/// Init: glb = 0
/// Acquire():  do { do r ←A glb until even(r); loc ← CAS(glb, r, r+1) } until loc
/// Release():  glb :=R r + 2
/// ```
pub fn seqlock() -> ObjectImpl {
    fn build(call: &CallSite, regs: &[Reg], vars: &[VarRef]) -> Com {
        let (r, loc) = (regs[0], regs[1]);
        let glb = vars[0];
        match call.method {
            Method::Acquire => seq([
                do_until(
                    seq([do_until(rd_acq(r, glb), even(r)), cas(loc, glb, r, add(r, 1))]),
                    loc,
                ),
                ret_true(call),
            ]),
            Method::Release => wr_rel(glb, add(r, 2)),
            m => panic!("seqlock has no method {m}"),
        }
    }
    ObjectImpl { name: "seqlock", lib_vars: &[("glb", 0)], regs: &["r", "loc"], build }
}

/// The ticket lock of Section 6.3.
///
/// ```text
/// Init: nt = 0, sn = 0
/// Acquire():  m ← FAI(nt); do s ←A sn until m = s
/// Release():  sn :=R s + 1
/// ```
pub fn ticket() -> ObjectImpl {
    fn build(call: &CallSite, regs: &[Reg], vars: &[VarRef]) -> Com {
        let (m, s) = (regs[0], regs[1]);
        let (nt, sn) = (vars[0], vars[1]);
        match call.method {
            Method::Acquire => seq([
                fai(m, nt),
                do_until(rd_acq(s, sn), eq(m, s)),
                ret_true(call),
            ]),
            Method::Release => wr_rel(sn, add(s, 1)),
            mth => panic!("ticket lock has no method {mth}"),
        }
    }
    ObjectImpl { name: "ticket", lib_vars: &[("nt", 0), ("sn", 0)], regs: &["m", "s"], build }
}

/// Extension: a test-and-set lock (same abstract specification).
pub fn tas() -> ObjectImpl {
    fn build(call: &CallSite, regs: &[Reg], vars: &[VarRef]) -> Com {
        let ok = regs[0];
        let flag = vars[0];
        match call.method {
            Method::Acquire => seq([do_until(cas(ok, flag, 0, 1), ok), ret_true(call)]),
            Method::Release => wr_rel(flag, 0),
            m => panic!("tas lock has no method {m}"),
        }
    }
    ObjectImpl { name: "tas", lib_vars: &[("flag", 0)], regs: &["ok"], build }
}

/// Extension: a test-and-test-and-set lock (spin on a relaxed read before
/// attempting the CAS).
pub fn ttas() -> ObjectImpl {
    fn build(call: &CallSite, regs: &[Reg], vars: &[VarRef]) -> Com {
        let (v, ok) = (regs[0], regs[1]);
        let flag = vars[0];
        match call.method {
            Method::Acquire => seq([
                do_until(
                    seq([do_until(rd(v, flag), eq(v, 0)), cas(ok, flag, 0, 1)]),
                    ok,
                ),
                ret_true(call),
            ]),
            Method::Release => wr_rel(flag, 0),
            m => panic!("ttas lock has no method {m}"),
        }
    }
    ObjectImpl { name: "ttas", lib_vars: &[("flag", 0)], regs: &["v", "ok"], build }
}

/// Negative control: the sequence lock with a **relaxed** release write.
/// Mutual exclusion still holds, but the release no longer publishes the
/// critical section's writes — contextual refinement of the abstract lock
/// must fail (the abstract acquire guarantees publication).
pub fn broken_relaxed_seqlock() -> ObjectImpl {
    fn build(call: &CallSite, regs: &[Reg], vars: &[VarRef]) -> Com {
        let (r, loc) = (regs[0], regs[1]);
        let glb = vars[0];
        match call.method {
            Method::Acquire => seq([
                do_until(
                    seq([do_until(rd_acq(r, glb), even(r)), cas(loc, glb, r, add(r, 1))]),
                    loc,
                ),
                ret_true(call),
            ]),
            // BUG (deliberate): relaxed instead of releasing.
            Method::Release => wr(glb, add(r, 2)),
            m => panic!("broken seqlock has no method {m}"),
        }
    }
    ObjectImpl {
        name: "broken-relaxed-seqlock",
        lib_vars: &[("glb", 0)],
        regs: &["r", "loc"],
        build,
    }
}

/// Negative control: no lock at all — acquire and release are no-ops.
/// Fails both mutual exclusion and publication.
pub fn broken_noop_lock() -> ObjectImpl {
    fn build(call: &CallSite, _regs: &[Reg], _vars: &[VarRef]) -> Com {
        match call.method {
            Method::Acquire => ret_true(call),
            Method::Release => Com::Skip,
            m => panic!("noop lock has no method {m}"),
        }
    }
    ObjectImpl { name: "broken-noop-lock", lib_vars: &[], regs: &[], build }
}

/// All correct lock implementations, for parameterised tests and benches.
pub fn all_correct() -> Vec<ObjectImpl> {
    vec![seqlock(), ticket(), tas(), ttas()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_check::{Engine, EngineReport, ExploreOptions};
    use rc11_core::Val;
    use rc11_lang::inline::instantiate;
    use rc11_lang::machine::NoObjects;
    use rc11_lang::{compile, Program};

    /// The Figure-7 client shape: two threads, lock-protected writes/reads.
    fn lock_client() -> (Program, rc11_lang::ObjRef, [Reg; 2]) {
        let mut p = ProgramBuilder::new("client");
        let d1 = p.client_var("d1", 0);
        let d2 = p.client_var("d2", 0);
        let l = p.lock("l");
        let t1 = ThreadBuilder::new();
        p.add_thread(t1, seq([acquire(l), wr(d1, 5), wr(d2, 5), release(l)]));
        let mut t2 = ThreadBuilder::new();
        let r1 = t2.reg("r1");
        let r2 = t2.reg("r2");
        p.add_thread(t2, seq([acquire(l), rd(r1, d1), rd(r2, d2), release(l)]));
        (p.build(), l, [r1, r2])
    }

    fn explore_lock_client(imp: &ObjectImpl) -> (EngineReport, [Reg; 2]) {
        let (abs, l, regs) = lock_client();
        let conc = instantiate(&abs, l, imp);
        let prog = compile(&conc);
        let opts = ExploreOptions { record_traces: false, ..Default::default() };
        (Engine::Sequential.explore(&prog, &NoObjects, &opts), regs)
    }

    fn check_lock_client(imp: ObjectImpl) {
        let (report, [r1, r2]) = explore_lock_client(&imp);
        assert!(report.ok(), "{}: exploration failed", imp.name);
        assert!(report.deadlocked.is_empty(), "{}: deadlock", imp.name);
        assert!(!report.terminated.is_empty(), "{}: no terminal states", imp.name);
        for term in &report.terminated {
            let (v1, v2) = (term.reg(1, r1), term.reg(1, r2));
            assert!(
                (v1, v2) == (Val::Int(0), Val::Int(0)) || (v1, v2) == (Val::Int(5), Val::Int(5)),
                "{}: critical section torn: r1={v1}, r2={v2}",
                imp.name
            );
        }
    }

    /// Negative controls must leak the torn read.
    fn check_broken_lock_leaks(imp: ObjectImpl) {
        let (report, [r1, r2]) = explore_lock_client(&imp);
        let torn = report.terminated.iter().any(|t| t.reg(1, r1) != t.reg(1, r2));
        assert!(torn, "{}: the broken lock must leak a torn read somewhere", imp.name);
    }

    #[test]
    fn seqlock_client_is_atomic() {
        check_lock_client(seqlock());
    }

    #[test]
    fn ticket_client_is_atomic() {
        check_lock_client(ticket());
    }

    #[test]
    fn tas_client_is_atomic() {
        check_lock_client(tas());
    }

    #[test]
    fn ttas_client_is_atomic() {
        check_lock_client(ttas());
    }

    #[test]
    fn relaxed_seqlock_leaks_weak_behaviour() {
        check_broken_lock_leaks(broken_relaxed_seqlock());
    }

    #[test]
    fn noop_lock_leaks_weak_behaviour() {
        check_broken_lock_leaks(broken_noop_lock());
    }

    /// Three threads through the ticket lock: still atomic.
    #[test]
    fn ticket_lock_three_threads() {
        let mut p = ProgramBuilder::new("counter3");
        let x = p.client_var("x", 0);
        let l = p.lock("l");
        for _ in 0..3 {
            let mut tb = ThreadBuilder::new();
            let r = tb.reg("r");
            p.add_thread(tb, seq([acquire(l), rd(r, x), wr(x, add(r, 1)), release(l)]));
        }
        let conc = instantiate(&p.build(), l, &ticket());
        let prog = compile(&conc);
        let opts = ExploreOptions { record_traces: false, ..Default::default() };
        let report = Engine::Sequential.explore(&prog, &NoObjects, &opts);
        assert!(report.ok());
        for term in &report.terminated {
            let st = term.mem.client();
            let max = st.max_op(x.loc);
            assert_eq!(st.op(max).act.wrval(), Val::Int(3), "all increments must land");
        }
    }
}
