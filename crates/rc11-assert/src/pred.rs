//! The observability assertion language of Section 5.1.
//!
//! Assertions are predicates over client–library C11 configurations
//! `(ρ, γ, β)` extended with program counters (the paper's proof outlines
//! mention `pc_t` inside assertions — Figure 7). The atoms:
//!
//! | paper | here |
//! |---|---|
//! | `⟨x = u⟩t` possible observation | [`Pred::PossibleObs`] |
//! | `[x = u]t` definite observation | [`Pred::DefiniteObs`] |
//! | `⟨x = u⟩[y = v]t` conditional observation | [`Pred::CondObs`] |
//! | `⟨o.m⟩t` / `[o.m]t` on objects | [`Pred::PossibleObsOp`] / [`Pred::DefiniteObsOp`] |
//! | `⟨o.m⟩L[y = v]C_t` cross-component conditional | [`Pred::CondObsOp`] |
//! | `C^u_x` covered | [`Pred::Covered`] |
//! | `H o.m` hidden value | [`Pred::Hidden`] |
//! | `[s.pop emp]t`, `⟨s.pop v⟩t`, `⟨s.pop v⟩[y = n]t` | [`Pred::PopEmpty`], [`Pred::CanPop`], [`Pred::CondPop`] |
//!
//! The component (client vs library) lifting `⟨p⟩^C / ⟨p⟩^L` is carried by
//! the [`VarRef::comp`] field of each variable reference.

use rc11_core::{Combined, CState, Loc, MethodOp, OpId, Tid, Val};
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::Config;
use rc11_lang::{ObjRef, Reg, VarRef};

/// A pattern over recorded method operations, used by the object-observation
/// atoms (`⟨o.m⟩t` with `m` e.g. `release_2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpPat {
    /// `o.init_0`.
    Init,
    /// `l.acquire_n` for the given `n` (any thread).
    Acquire(u32),
    /// `l.release_n` for the given `n`.
    Release(u32),
    /// Any acquire.
    AnyAcquire,
    /// Any release.
    AnyRelease,
    /// `s.push(v)`.
    Push(Val),
    /// `s.pop(v)`.
    Pop(Val),
}

impl OpPat {
    /// Does `m` match this pattern?
    pub fn matches(&self, m: MethodOp) -> bool {
        match (self, m) {
            (OpPat::Init, MethodOp::Init) => true,
            (OpPat::Acquire(n), MethodOp::LockAcquire { n: k, .. }) => *n == k,
            (OpPat::Release(n), MethodOp::LockRelease { n: k }) => *n == k,
            (OpPat::AnyAcquire, MethodOp::LockAcquire { .. }) => true,
            (OpPat::AnyRelease, MethodOp::LockRelease { .. }) => true,
            (OpPat::Push(v), MethodOp::Push { v: u, .. }) => *v == u,
            (OpPat::Pop(v), MethodOp::Pop { v: u, .. }) => *v == u,
            _ => false,
        }
    }
}

/// Assertions over configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Negation.
    Not(Box<Pred>),
    /// Conjunction of all operands.
    And(Vec<Pred>),
    /// Disjunction of any operand.
    Or(Vec<Pred>),
    /// Implication.
    Implies(Box<Pred>, Box<Pred>),

    /// `r = v` for thread `tid`'s register.
    RegEq {
        /// Thread owning the register.
        tid: Tid,
        /// The register.
        reg: Reg,
        /// Expected value.
        val: Val,
    },
    /// `r ∈ vals`.
    RegIn {
        /// Thread owning the register.
        tid: Tid,
        /// The register.
        reg: Reg,
        /// Allowed values.
        vals: Vec<Val>,
    },
    /// `pc_t ∈ labels` — thread `tid` is at one of the listed statement
    /// labels (region semantics, see [`rc11_lang::cfg::ThreadCfg::label_at`]).
    AtLabel {
        /// The thread.
        tid: Tid,
        /// Statement labels.
        labels: Vec<u32>,
    },
    /// Thread `tid` has terminated (is at `Halt`).
    Terminated {
        /// The thread.
        tid: Tid,
    },

    /// `⟨x = u⟩t` — thread `t` may observe value `u` for `x`.
    PossibleObs {
        /// Observing thread.
        tid: Tid,
        /// The variable.
        var: VarRef,
        /// The value.
        val: Val,
    },
    /// `[x = u]t` — thread `t` can only see the last write of `x`, which
    /// wrote `u`.
    DefiniteObs {
        /// Observing thread.
        tid: Tid,
        /// The variable.
        var: VarRef,
        /// The value.
        val: Val,
    },
    /// `⟨x = u⟩[y = v]t` — if `t` synchronises with a write of `u` to `x`,
    /// it subsequently definitely observes `v` for `y` (`x`, `y` in the
    /// same component).
    CondObs {
        /// Observing thread.
        tid: Tid,
        /// The hypothesis variable `x`.
        xvar: VarRef,
        /// The hypothesis value `u`.
        xval: Val,
        /// The conclusion variable `y`.
        yvar: VarRef,
        /// The conclusion value `v`.
        yval: Val,
    },
    /// `C^u_x` — every uncovered operation on `x` is the maximal one and
    /// wrote `u`.
    Covered {
        /// The variable.
        var: VarRef,
        /// The value of the sole uncovered (maximal) operation.
        val: Val,
    },

    /// `⟨o.m⟩t` — an operation matching `pat` is observable to `t` on `o`.
    PossibleObsOp {
        /// Observing thread.
        tid: Tid,
        /// The object.
        obj: ObjRef,
        /// The operation pattern.
        pat: OpPat,
    },
    /// `[o.m]t` — `t`'s view of `o` is the maximal operation, and it
    /// matches `pat`.
    DefiniteObsOp {
        /// Observing thread.
        tid: Tid,
        /// The object.
        obj: ObjRef,
        /// The operation pattern.
        pat: OpPat,
    },
    /// `H o.m` — operations matching `pat` exist on `o` and all are
    /// covered (hidden from interaction).
    Hidden {
        /// The object.
        obj: ObjRef,
        /// The operation pattern.
        pat: OpPat,
    },
    /// `C o.m` — every uncovered operation on `o` matches `pat` and is the
    /// maximal one (Figure 7's `C l.acquire_1`).
    CoveredOp {
        /// The object.
        obj: ObjRef,
        /// The operation pattern.
        pat: OpPat,
    },
    /// `⟨o.m⟩L[y = v]C_t` — every observable operation matching `pat` on
    /// `o` (library) has a modification view whose *client* half definitely
    /// observes `v` for `y`: synchronising with it establishes `[y = v]t`.
    CondObsOp {
        /// Observing thread.
        tid: Tid,
        /// The object (library component).
        obj: ObjRef,
        /// The operation pattern.
        pat: OpPat,
        /// The conclusion variable (client component).
        yvar: VarRef,
        /// The conclusion value.
        yval: Val,
    },

    /// `[s.pop emp]` — a pop can only return `Empty` (no uncovered push).
    /// The paper indexes this by thread; under the global-top stack
    /// semantics (DESIGN.md, design choice 3) it is thread-independent and
    /// the index is kept for interface fidelity only.
    PopEmpty {
        /// Observing thread (unused under global-top semantics).
        tid: Tid,
        /// The stack.
        obj: ObjRef,
    },
    /// `⟨s.pop v⟩t` — a pop would return `v` (the top uncovered push wrote
    /// `v`).
    CanPop {
        /// Observing thread (unused under global-top semantics).
        tid: Tid,
        /// The stack.
        obj: ObjRef,
        /// The value.
        val: Val,
    },
    /// `⟨s.pop v⟩[y = n]t` — if a pop returns `v`, the popping thread
    /// subsequently definitely observes `n` for client variable `y` (the
    /// push is releasing and its client-half view pins `y`).
    CondPop {
        /// The popping thread.
        tid: Tid,
        /// The stack.
        obj: ObjRef,
        /// The popped value.
        val: Val,
        /// The conclusion variable.
        yvar: VarRef,
        /// The conclusion value.
        yval: Val,
    },
    /// Thread `tid` currently holds lock `obj` (the maximal lock operation
    /// is an acquire by `tid`) — used to state mutual exclusion directly.
    HoldsLock {
        /// The thread.
        tid: Tid,
        /// The lock.
        obj: ObjRef,
    },
}

impl std::fmt::Display for OpPat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpPat::Init => write!(f, "init_0"),
            OpPat::Acquire(n) => write!(f, "acquire_{n}"),
            OpPat::Release(n) => write!(f, "release_{n}"),
            OpPat::AnyAcquire => write!(f, "acquire_*"),
            OpPat::AnyRelease => write!(f, "release_*"),
            OpPat::Push(v) => write!(f, "push({v})"),
            OpPat::Pop(v) => write!(f, "pop({v})"),
        }
    }
}

impl std::fmt::Display for Pred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn tsub(t: &Tid) -> String {
            format!("{}", t.0 + 1)
        }
        match self {
            Pred::True => write!(f, "⊤"),
            Pred::False => write!(f, "⊥"),
            Pred::Not(p) => write!(f, "¬({p})"),
            Pred::And(ps) => {
                let s: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", s.join(" ∧ "))
            }
            Pred::Or(ps) => {
                let s: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", s.join(" ∨ "))
            }
            Pred::Implies(a, b) => write!(f, "({a} ⇒ {b})"),
            Pred::RegEq { tid, reg, val } => write!(f, "{reg}@T{} = {val}", tsub(tid)),
            Pred::RegIn { tid, reg, vals } => {
                let s: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
                write!(f, "{reg}@T{} ∈ {{{}}}", tsub(tid), s.join(","))
            }
            Pred::AtLabel { tid, labels } => {
                let s: Vec<String> = labels.iter().map(|k| k.to_string()).collect();
                write!(f, "pc{} ∈ {{{}}}", tsub(tid), s.join(","))
            }
            Pred::Terminated { tid } => write!(f, "pc{} = end", tsub(tid)),
            Pred::PossibleObs { tid, var, val } => {
                write!(f, "⟨{:?} = {val}⟩{}", var.loc, tsub(tid))
            }
            Pred::DefiniteObs { tid, var, val } => {
                write!(f, "[{:?} = {val}]{}", var.loc, tsub(tid))
            }
            Pred::CondObs { tid, xvar, xval, yvar, yval } => write!(
                f,
                "⟨{:?} = {xval}⟩[{:?} = {yval}]{}",
                xvar.loc,
                yvar.loc,
                tsub(tid)
            ),
            Pred::Covered { var, val } => write!(f, "C^{val}_{:?}", var.loc),
            Pred::PossibleObsOp { tid, obj, pat } => {
                write!(f, "⟨{:?}.{pat}⟩{}", obj.loc, tsub(tid))
            }
            Pred::DefiniteObsOp { tid, obj, pat } => {
                write!(f, "[{:?}.{pat}]{}", obj.loc, tsub(tid))
            }
            Pred::Hidden { obj, pat } => write!(f, "H {:?}.{pat}", obj.loc),
            Pred::CoveredOp { obj, pat } => write!(f, "C {:?}.{pat}", obj.loc),
            Pred::CondObsOp { tid, obj, pat, yvar, yval } => write!(
                f,
                "⟨{:?}.{pat}⟩[{:?} = {yval}]{}",
                obj.loc,
                yvar.loc,
                tsub(tid)
            ),
            Pred::PopEmpty { tid, obj } => write!(f, "[{:?}.pop emp]{}", obj.loc, tsub(tid)),
            Pred::CanPop { tid, obj, val } => {
                write!(f, "⟨{:?}.pop {val}⟩{}", obj.loc, tsub(tid))
            }
            Pred::CondPop { tid, obj, val, yvar, yval } => write!(
                f,
                "⟨{:?}.pop {val}⟩[{:?} = {yval}]{}",
                obj.loc,
                yvar.loc,
                tsub(tid)
            ),
            Pred::HoldsLock { tid, obj } => write!(f, "holds({:?})@T{}", obj.loc, tsub(tid)),
        }
    }
}

/// Evaluation context: the compiled program (for label regions) plus a
/// configuration.
#[derive(Clone, Copy)]
pub struct EvalCtx<'a> {
    /// The compiled program.
    pub prog: &'a CfgProgram,
    /// The configuration under evaluation.
    pub cfg: &'a Config,
}

fn comp_state(mem: &Combined, var: VarRef) -> &CState {
    mem.comp(var.comp)
}

/// `dview(view, ops, x) = n` for the *own* half: `view(x)` is the maximal
/// op on `x` and wrote `n`.
fn dview_is(st: &CState, view_entry: OpId, loc: Loc, val: Val) -> bool {
    let last = st.max_op(loc);
    view_entry == last && st.op(last).act.wrval() == val
}

impl Pred {
    /// Evaluate this assertion in a configuration.
    pub fn eval(&self, ctx: EvalCtx<'_>) -> bool {
        let cfg = ctx.cfg;
        let mem = &cfg.mem;
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Not(p) => !p.eval(ctx),
            Pred::And(ps) => ps.iter().all(|p| p.eval(ctx)),
            Pred::Or(ps) => ps.iter().any(|p| p.eval(ctx)),
            Pred::Implies(a, b) => !a.eval(ctx) || b.eval(ctx),

            Pred::RegEq { tid, reg, val } => cfg.locals(tid.idx())[reg.idx()] == *val,
            Pred::RegIn { tid, reg, vals } => {
                vals.contains(&cfg.locals(tid.idx())[reg.idx()])
            }
            Pred::AtLabel { tid, labels } => {
                let th = &ctx.prog.threads[tid.idx()];
                th.label_at(cfg.pc(tid.idx())).is_some_and(|k| labels.contains(&k))
            }
            Pred::Terminated { tid } => {
                cfg.pc(tid.idx()) == ctx.prog.threads[tid.idx()].halt_pc()
            }

            // ⟨x = n⟩t ≡ ∃w ∈ Obs(t, x). wrval(w) = n
            Pred::PossibleObs { tid, var, val } => {
                let st = comp_state(mem, *var);
                st.obs(*tid, var.loc).iter().any(|&w| st.op(w).act.wrval() == *val)
            }

            // [x = n]t ≡ dview(tview_t, ops, x) = n
            Pred::DefiniteObs { tid, var, val } => {
                let st = comp_state(mem, *var);
                dview_is(st, st.tview(*tid).get(var.loc), var.loc, *val)
            }

            // ⟨x = u⟩[y = v]t ≡ ∀w ∈ Obs(t,x). wrval(w) = u ⇒
            //     act(w) ∈ W^R ∧ dview(mview_w, ops, y) = v
            Pred::CondObs { tid, xvar, xval, yvar, yval } => {
                debug_assert_eq!(xvar.comp, yvar.comp, "CondObs is same-component");
                let st = comp_state(mem, *xvar);
                st.obs(*tid, xvar.loc).iter().all(|&w| {
                    st.op(w).act.wrval() != *xval
                        || (st.op(w).act.is_releasing()
                            && dview_is(st, st.mview_own(w).get(yvar.loc), yvar.loc, *yval))
                })
            }

            // C^u_x ≡ ∀(w,q) ∈ ops|x \ cvd. wrval(w) = u ∧ q = maxTS(x)
            Pred::Covered { var, val } => {
                let st = comp_state(mem, *var);
                let max = st.max_op(var.loc);
                st.mo(var.loc)
                    .iter()
                    .filter(|&&w| !st.is_covered(w))
                    .all(|&w| w == max && st.op(w).act.wrval() == *val)
            }

            // ⟨o.m⟩t ≡ ∃q. (o.m, q) ∈ ops ∧ q ≥ tview_t(o)
            Pred::PossibleObsOp { tid, obj, pat } => {
                let st = mem.lib();
                st.obs(*tid, obj.loc)
                    .iter()
                    .any(|&w| st.op(w).act.method().is_some_and(|m| pat.matches(m)))
            }

            // [o.m]t ≡ tview_t(o) = maxTS(o) ∧ (o.m, maxTS(o)) ∈ ops
            Pred::DefiniteObsOp { tid, obj, pat } => {
                let st = mem.lib();
                let max = st.max_op(obj.loc);
                st.tview(*tid).get(obj.loc) == max
                    && st.op(max).act.method().is_some_and(|m| pat.matches(m))
            }

            // C o.m ≡ ∀(w,q) ∈ ops|o \ cvd. w matches ∧ q = maxTS(o)
            Pred::CoveredOp { obj, pat } => {
                let st = mem.lib();
                let max = st.max_op(obj.loc);
                st.mo(obj.loc)
                    .iter()
                    .filter(|&&w| !st.is_covered(w))
                    .all(|&w| {
                        w == max && st.op(w).act.method().is_some_and(|m| pat.matches(m))
                    })
            }

            // H o.m ≡ (∃q. (o.m,q) ∈ ops) ∧ (∀q. (o.m,q) ∈ ops ⇒ covered)
            Pred::Hidden { obj, pat } => {
                let st = mem.lib();
                let mut any = false;
                let mut all_covered = true;
                for (w, m) in st.method_ops(obj.loc) {
                    if pat.matches(m) {
                        any = true;
                        all_covered &= st.is_covered(w);
                    }
                }
                any && all_covered
            }

            // ⟨o.m⟩L[y = v]C_t ≡ ∀q. (o.m, q) ∈ β.ops ∧ q ≥ β.tview_t(o) ⇒
            //     dview(β.mview_(o.m,q) restricted to client, γ.ops, y) = v
            Pred::CondObsOp { tid, obj, pat, yvar, yval } => {
                debug_assert_eq!(yvar.comp, rc11_core::Comp::Client);
                let lib = mem.lib();
                let client = mem.client();
                lib.obs(*tid, obj.loc).iter().all(|&w| {
                    !lib.op(w).act.method().is_some_and(|m| pat.matches(m))
                        || dview_is(
                            client,
                            lib.mview_other(w).get(yvar.loc),
                            yvar.loc,
                            *yval,
                        )
                })
            }

            Pred::PopEmpty { tid: _, obj } => {
                rc11_objects::stack::top(mem, obj.loc).is_none()
            }
            Pred::CanPop { tid: _, obj, val } => {
                rc11_objects::stack::top(mem, obj.loc).is_some_and(|(_, v, _)| v == *val)
            }
            Pred::CondPop { tid: _, obj, val, yvar, yval } => {
                debug_assert_eq!(yvar.comp, rc11_core::Comp::Client);
                match rc11_objects::stack::top(mem, obj.loc) {
                    None => true,
                    Some((w, v, rel)) => {
                        v != *val
                            || (rel
                                && dview_is(
                                    mem.client(),
                                    mem.lib().mview_other(w).get(yvar.loc),
                                    yvar.loc,
                                    *yval,
                                ))
                    }
                }
            }
            Pred::HoldsLock { tid, obj } => {
                rc11_objects::lock::holds_lock(mem, *tid, obj.loc)
            }
        }
    }
}
