//! Ergonomic program construction.
//!
//! [`ProgramBuilder`] manages the location tables and initialisation; thread
//! bodies are assembled from the free-function combinators at the bottom of
//! this module, which mirror the paper's surface syntax:
//!
//! ```
//! use rc11_lang::builder::*;
//! use rc11_lang::program::ObjKind;
//!
//! // Figure 2: publication via a synchronising stack.
//! let mut p = ProgramBuilder::new("mp_sync");
//! let d = p.client_var("d", 0);
//! let s = p.object("s", ObjKind::Stack);
//!
//! let mut t1 = ThreadBuilder::new();
//! p.add_thread(t1.clone(), seq([
//!     lab(1, wr(d, 5)),
//!     lab(2, push_rel(s, 1)),
//! ]));
//!
//! let mut t2 = ThreadBuilder::new();
//! let r1 = t2.reg("r1");
//! let r2 = t2.reg("r2");
//! p.add_thread(t2, seq([
//!     lab(3, do_until(pop_acq(s, r1), eq(r1, 1))),
//!     lab(4, rd(r2, d)),
//! ]));
//! let prog = p.build();
//! assert_eq!(prog.n_threads(), 2);
//! let _ = &t1;
//! ```

use crate::ast::{BinOp, Com, Exp, Method, ObjRef, Reg, UnOp, VarRef};
use crate::program::{ObjKind, Program, ThreadDef};
use rc11_core::{Comp, InitLoc, Loc, LocKind, LocTable, Val, MAX_LOCS};

/// Anything convertible to an expression: constants, registers, booleans.
pub trait IntoExp {
    /// Convert to an expression.
    fn into_exp(self) -> Exp;
}

impl IntoExp for Exp {
    fn into_exp(self) -> Exp {
        self
    }
}

impl IntoExp for i64 {
    fn into_exp(self) -> Exp {
        Exp::Val(Val::Int(self))
    }
}

impl IntoExp for bool {
    fn into_exp(self) -> Exp {
        Exp::Val(Val::Bool(self))
    }
}

impl IntoExp for Val {
    fn into_exp(self) -> Exp {
        Exp::Val(self)
    }
}

impl IntoExp for Reg {
    fn into_exp(self) -> Exp {
        Exp::Reg(self)
    }
}

/// Builds one program: locations, objects, threads.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    client_locs: LocTable,
    client_inits: Vec<InitLoc>,
    lib_locs: LocTable,
    lib_inits: Vec<InitLoc>,
    objects: Vec<(rc11_core::Loc, ObjKind)>,
    threads: Vec<ThreadDef>,
    /// The first construction error (a location past [`MAX_LOCS`]),
    /// reported by [`ProgramBuilder::try_build`].
    error: Option<String>,
}

impl ProgramBuilder {
    /// Start a new program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            client_locs: LocTable::new(),
            client_inits: Vec::new(),
            lib_locs: LocTable::new(),
            lib_inits: Vec::new(),
            objects: Vec::new(),
            threads: Vec::new(),
            error: None,
        }
    }

    /// Number of locations declared so far in component `comp`.
    pub fn n_locs(&self, comp: Comp) -> usize {
        match comp {
            Comp::Client => self.client_locs.len(),
            Comp::Lib => self.lib_locs.len(),
        }
    }

    /// Declare a location in `comp`. Past [`MAX_LOCS`] the location cannot
    /// be named: the builder records the error for
    /// [`ProgramBuilder::try_build`] and hands back a placeholder.
    fn declare(&mut self, comp: Comp, name: &str, kind: LocKind, init: InitLoc) -> Loc {
        if self.n_locs(comp) == MAX_LOCS {
            let what = if comp == Comp::Client { "client" } else { "library" };
            self.error
                .get_or_insert_with(|| format!("too many {what} locations: at most {MAX_LOCS}"));
            return Loc(u16::MAX);
        }
        let (locs, inits) = match comp {
            Comp::Client => (&mut self.client_locs, &mut self.client_inits),
            Comp::Lib => (&mut self.lib_locs, &mut self.lib_inits),
        };
        inits.push(init);
        locs.add(name, kind)
    }

    /// Declare a client shared variable with an integer initial value.
    pub fn client_var(&mut self, name: &str, init: i64) -> VarRef {
        let loc = self.declare(Comp::Client, name, LocKind::Var, InitLoc::Var(Val::Int(init)));
        VarRef { comp: Comp::Client, loc }
    }

    /// Declare a library shared variable with an integer initial value.
    pub fn lib_var(&mut self, name: &str, init: i64) -> VarRef {
        let loc = self.declare(Comp::Lib, name, LocKind::Var, InitLoc::Var(Val::Int(init)));
        VarRef { comp: Comp::Lib, loc }
    }

    /// Declare an abstract object of the given kind (always library-side).
    pub fn object(&mut self, name: &str, kind: ObjKind) -> ObjRef {
        let loc = self.declare(Comp::Lib, name, LocKind::Obj, InitLoc::Obj);
        self.objects.push((loc, kind));
        ObjRef { loc }
    }

    /// Shorthand for [`ProgramBuilder::object`] with [`ObjKind::Lock`].
    pub fn lock(&mut self, name: &str) -> ObjRef {
        self.object(name, ObjKind::Lock)
    }

    /// Shorthand for [`ProgramBuilder::object`] with [`ObjKind::Stack`].
    pub fn stack(&mut self, name: &str) -> ObjRef {
        self.object(name, ObjKind::Stack)
    }

    /// Shorthand for [`ProgramBuilder::object`] with [`ObjKind::Queue`].
    pub fn queue(&mut self, name: &str) -> ObjRef {
        self.object(name, ObjKind::Queue)
    }

    /// Add a thread: its register declarations and its body.
    pub fn add_thread(&mut self, tb: ThreadBuilder, body: Com) {
        self.threads.push(ThreadDef {
            body,
            n_regs: tb.names.len() as u16,
            reg_names: tb.names,
            reg_inits: tb.inits,
        });
    }

    /// Finish and validate. Panics on malformed programs (tests construct
    /// programs statically, so this is a construction-time assertion);
    /// [`ProgramBuilder::try_build`] returns the error instead.
    pub fn build(self) -> Program {
        let name = self.name.clone();
        self.try_build().unwrap_or_else(|e| panic!("invalid program {name}: {e}"))
    }

    /// Finish and validate, reporting a malformed program — more than
    /// [`rc11_core::MAX_THREADS`] threads or [`MAX_LOCS`] locations in a
    /// component, out-of-range registers or variables — as an error.
    pub fn try_build(self) -> Result<Program, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let prog = Program {
            name: self.name,
            client_locs: self.client_locs,
            client_inits: self.client_inits,
            lib_locs: self.lib_locs,
            lib_inits: self.lib_inits,
            objects: self.objects,
            threads: self.threads,
        };
        prog.validate()?;
        Ok(prog)
    }
}

/// Declares one thread's registers.
#[derive(Debug, Clone, Default)]
pub struct ThreadBuilder {
    names: Vec<String>,
    inits: Vec<Val>,
}

impl ThreadBuilder {
    /// A thread with no registers yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a register initialised to `⊥`.
    pub fn reg(&mut self, name: &str) -> Reg {
        self.reg_init(name, Val::Bot)
    }

    /// Declare a register with an explicit initial value (the optional
    /// `r := l` clauses of `Init`).
    pub fn reg_init(&mut self, name: &str, init: Val) -> Reg {
        let r = Reg(self.names.len() as u16);
        self.names.push(name.into());
        self.inits.push(init);
        r
    }
}

// ---------------------------------------------------------------------
// Statement combinators
// ---------------------------------------------------------------------

/// `r := E`.
pub fn assign(reg: Reg, e: impl IntoExp) -> Com {
    Com::Assign(reg, e.into_exp())
}

/// Relaxed write `x := E`.
pub fn wr(var: VarRef, e: impl IntoExp) -> Com {
    Com::Write { var, exp: e.into_exp(), rel: false }
}

/// Releasing write `x :=R E`.
pub fn wr_rel(var: VarRef, e: impl IntoExp) -> Com {
    Com::Write { var, exp: e.into_exp(), rel: true }
}

/// Relaxed read `r ← x`.
pub fn rd(reg: Reg, var: VarRef) -> Com {
    Com::Read { reg, var, acq: false }
}

/// Acquiring read `r ←A x`.
pub fn rd_acq(reg: Reg, var: VarRef) -> Com {
    Com::Read { reg, var, acq: true }
}

/// `r ← CAS(x, u, v)^RA`.
pub fn cas(reg: Reg, var: VarRef, expect: impl IntoExp, new: impl IntoExp) -> Com {
    Com::Cas { reg, var, expect: expect.into_exp(), new: new.into_exp() }
}

/// `r ← FAI(x)^RA`.
pub fn fai(reg: Reg, var: VarRef) -> Com {
    Com::Fai { reg, var }
}

/// `l.Acquire()` discarding the version.
pub fn acquire(obj: ObjRef) -> Com {
    Com::MethodCall { reg: None, obj, method: Method::Acquire, arg: None, sync: true }
}

/// `l.Acquire(r)` binding the lock *version* into `r` (Figure 7's `rl`).
pub fn acquire_into(obj: ObjRef, reg: Reg) -> Com {
    Com::MethodCall { reg: Some(reg), obj, method: Method::AcquireV, arg: None, sync: true }
}

/// `l.Release()`.
pub fn release(obj: ObjRef) -> Com {
    Com::MethodCall { reg: None, obj, method: Method::Release, arg: None, sync: true }
}

/// Relaxed `s.push(E)`.
pub fn push(obj: ObjRef, e: impl IntoExp) -> Com {
    Com::MethodCall { reg: None, obj, method: Method::Push, arg: Some(e.into_exp()), sync: false }
}

/// Releasing `s.push^R(E)` (Figure 2).
pub fn push_rel(obj: ObjRef, e: impl IntoExp) -> Com {
    Com::MethodCall { reg: None, obj, method: Method::Push, arg: Some(e.into_exp()), sync: true }
}

/// Relaxed `r := s.pop()`.
pub fn pop(obj: ObjRef, reg: Reg) -> Com {
    Com::MethodCall { reg: Some(reg), obj, method: Method::Pop, arg: None, sync: false }
}

/// Acquiring `r := s.pop^A()` (Figure 2).
pub fn pop_acq(obj: ObjRef, reg: Reg) -> Com {
    Com::MethodCall { reg: Some(reg), obj, method: Method::Pop, arg: None, sync: true }
}

/// Relaxed `q.enq(E)`.
pub fn enq(obj: ObjRef, e: impl IntoExp) -> Com {
    Com::MethodCall { reg: None, obj, method: Method::Enq, arg: Some(e.into_exp()), sync: false }
}

/// Releasing `q.enq^R(E)`.
pub fn enq_rel(obj: ObjRef, e: impl IntoExp) -> Com {
    Com::MethodCall { reg: None, obj, method: Method::Enq, arg: Some(e.into_exp()), sync: true }
}

/// Relaxed `r := q.deq()`.
pub fn deq(obj: ObjRef, reg: Reg) -> Com {
    Com::MethodCall { reg: Some(reg), obj, method: Method::Deq, arg: None, sync: false }
}

/// Acquiring `r := q.deq^A()`.
pub fn deq_acq(obj: ObjRef, reg: Reg) -> Com {
    Com::MethodCall { reg: Some(reg), obj, method: Method::Deq, arg: None, sync: true }
}

/// Sequential composition of any number of statements.
pub fn seq(items: impl IntoIterator<Item = Com>) -> Com {
    items.into_iter().fold(Com::Skip, Com::then)
}

/// `if B then C` (no else).
pub fn if_then(cond: impl IntoExp, then_: Com) -> Com {
    Com::If { cond: cond.into_exp(), then_: Box::new(then_), else_: Box::new(Com::Skip) }
}

/// `if B then C1 else C2`.
pub fn if_else(cond: impl IntoExp, then_: Com, else_: Com) -> Com {
    Com::If { cond: cond.into_exp(), then_: Box::new(then_), else_: Box::new(else_) }
}

/// `while B do C`.
pub fn while_do(cond: impl IntoExp, body: Com) -> Com {
    Com::While { cond: cond.into_exp(), body: Box::new(body) }
}

/// `do C until B`.
pub fn do_until(body: Com, cond: impl IntoExp) -> Com {
    Com::DoUntil { body: Box::new(body), cond: cond.into_exp() }
}

/// `k: C` — a labelled statement (the paper's proof-outline line numbers).
pub fn lab(k: u32, com: Com) -> Com {
    Com::Labeled(k, Box::new(com))
}

// ---------------------------------------------------------------------
// Expression combinators
// ---------------------------------------------------------------------

/// Equality `a = b`.
pub fn eq(a: impl IntoExp, b: impl IntoExp) -> Exp {
    Exp::Bin(BinOp::Eq, Box::new(a.into_exp()), Box::new(b.into_exp()))
}

/// Disequality `a ≠ b`.
pub fn ne(a: impl IntoExp, b: impl IntoExp) -> Exp {
    Exp::Bin(BinOp::Ne, Box::new(a.into_exp()), Box::new(b.into_exp()))
}

/// `a + b`.
pub fn add(a: impl IntoExp, b: impl IntoExp) -> Exp {
    Exp::Bin(BinOp::Add, Box::new(a.into_exp()), Box::new(b.into_exp()))
}

/// `a - b`.
pub fn sub(a: impl IntoExp, b: impl IntoExp) -> Exp {
    Exp::Bin(BinOp::Sub, Box::new(a.into_exp()), Box::new(b.into_exp()))
}

/// `a < b`.
pub fn lt(a: impl IntoExp, b: impl IntoExp) -> Exp {
    Exp::Bin(BinOp::Lt, Box::new(a.into_exp()), Box::new(b.into_exp()))
}

/// `a ≤ b`.
pub fn le(a: impl IntoExp, b: impl IntoExp) -> Exp {
    Exp::Bin(BinOp::Le, Box::new(a.into_exp()), Box::new(b.into_exp()))
}

/// `a ∧ b`.
pub fn and(a: impl IntoExp, b: impl IntoExp) -> Exp {
    Exp::Bin(BinOp::And, Box::new(a.into_exp()), Box::new(b.into_exp()))
}

/// `a ∨ b`.
pub fn or(a: impl IntoExp, b: impl IntoExp) -> Exp {
    Exp::Bin(BinOp::Or, Box::new(a.into_exp()), Box::new(b.into_exp()))
}

/// `¬ a`.
pub fn not(a: impl IntoExp) -> Exp {
    Exp::Un(UnOp::Not, Box::new(a.into_exp()))
}

/// `even(a)` — used by the sequence lock.
pub fn even(a: impl IntoExp) -> Exp {
    Exp::Un(UnOp::Even, Box::new(a.into_exp()))
}

/// The `Empty` constant (stack pop result).
pub fn empty() -> Exp {
    Exp::Val(Val::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::compile;

    #[test]
    fn builder_constructs_valid_mp_program() {
        let mut p = ProgramBuilder::new("mp");
        let d = p.client_var("d", 0);
        let f = p.client_var("f", 0);
        let mut t1 = ThreadBuilder::new();
        p.add_thread(t1.clone(), seq([wr(d, 5), wr_rel(f, 1)]));
        let mut t2 = ThreadBuilder::new();
        let r1 = t2.reg("r1");
        let r2 = t2.reg("r2");
        p.add_thread(t2, seq([do_until(rd_acq(r1, f), eq(r1, 1)), rd(r2, d)]));
        let prog = p.build();
        assert_eq!(prog.n_threads(), 2);
        let cfg = compile(&prog);
        assert!(cfg.threads[0].instrs.len() >= 3);
        let _ = &mut t1;
    }

    #[test]
    fn object_declaration_and_calls() {
        let mut p = ProgramBuilder::new("locked");
        let l = p.lock("l");
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([acquire(l), release(l)]));
        let prog = p.build();
        assert_eq!(prog.objects.len(), 1);
        assert_eq!(prog.obj_kind(l.loc), Some(ObjKind::Lock));
    }

    #[test]
    fn expression_combinators_build_well_typed_trees() {
        let mut tb = ThreadBuilder::new();
        let r = tb.reg("r");
        let e = and(eq(r, 1), not(even(add(r, 1))));
        // r = 1 ∧ ¬even(r+1) with r=1: true ∧ ¬even(2)=false → false.
        assert_eq!(e.eval(&[Val::Int(1)]), Ok(Val::Bool(false)));
    }
}
