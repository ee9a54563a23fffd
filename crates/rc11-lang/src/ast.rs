//! The program syntax of Section 3.1 (Figure 4's `Com` grammar).
//!
//! Sequential programs are commands over local registers (`LVar`), shared
//! global variables (`GVar`, split into client and library variables) and
//! abstract objects. Global accesses carry optional synchronisation
//! annotations: acquire (`A`) on reads, release (`R`) on writes; `CAS`/`FAI`
//! are `RA` updates. Method-call *holes* (`o.m(u)`) are represented by
//! [`Com::MethodCall`]; they are executed either abstractly (Section 4
//! object semantics) or after being *filled* with a concrete implementation
//! (`inline` module), which is exactly the paper's `C[AO]` vs `C[CO]`.

use rc11_core::{Comp, Loc, Val};
use std::fmt;

/// A local register identifier (thread-private; `LVar` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

impl Reg {
    /// Index form for dense per-register tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A reference to a shared global variable: which component owns it and its
/// location index there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarRef {
    /// Owning component (`GVar_C` or `GVar_L`).
    pub comp: Comp,
    /// Location index within that component.
    pub loc: Loc,
}

/// A reference to an abstract object (always a library location).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef {
    /// The object's location index in the library component.
    pub loc: Loc,
}

/// Unary operators (`⊖` in the grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Boolean negation `¬`.
    Not,
    /// Integer negation `-`.
    Neg,
    /// Integer parity test `even(·)` (used by the sequence lock).
    Even,
}

/// Binary operators (`⊕` in the grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer modulus.
    Mod,
    /// Equality (on any values).
    Eq,
    /// Disequality.
    Ne,
    /// Integer less-than.
    Lt,
    /// Integer at-most.
    Le,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

/// Local expressions (`Exp_L`): values, registers and operator applications.
/// Expressions never read shared state — Figure 4's grammar only allows
/// local variables inside expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Exp {
    /// A constant.
    Val(Val),
    /// A register read.
    Reg(Reg),
    /// A unary operator application.
    Un(UnOp, Box<Exp>),
    /// A binary operator application.
    Bin(BinOp, Box<Exp>, Box<Exp>),
}

/// An expression evaluation error (type mismatch) — programs in the test
/// suites are well-typed, so these only surface programming mistakes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression evaluation error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

impl Exp {
    /// Evaluate under a register valuation — `⟦E⟧ls` in the paper. The
    /// recursion only evaluates operands; applying an operator is a
    /// separate, non-recursive step, so each level of a deep expression
    /// costs one small stack frame.
    pub fn eval(&self, ls: &[Val]) -> Result<Val, EvalError> {
        match self {
            Exp::Val(v) => Ok(*v),
            Exp::Reg(r) => ls
                .get(r.idx())
                .copied()
                .ok_or_else(|| EvalError(format!("register {r} out of range"))),
            Exp::Un(op, e) => apply_un(*op, e.eval(ls)?),
            Exp::Bin(op, a, b) => {
                let va = a.eval(ls)?;
                apply_bin(*op, va, b.eval(ls)?)
            }
        }
    }

    /// The registers this expression reads (used by the CFG compiler's
    /// sanity checks).
    pub fn regs(&self, out: &mut Vec<Reg>) {
        match self {
            Exp::Val(_) => {}
            Exp::Reg(r) => out.push(*r),
            Exp::Un(_, e) => e.regs(out),
            Exp::Bin(_, a, b) => {
                a.regs(out);
                b.regs(out);
            }
        }
    }
}

/// `op v`, for [`Exp::eval`].
fn apply_un(op: UnOp, v: Val) -> Result<Val, EvalError> {
    match op {
        UnOp::Not => v
            .as_bool()
            .map(|b| Val::Bool(!b))
            .ok_or_else(|| EvalError(format!("¬ applied to {v}"))),
        UnOp::Neg => v
            .as_int()
            .map(|n| Val::Int(-n))
            .ok_or_else(|| EvalError(format!("- applied to {v}"))),
        UnOp::Even => v
            .as_int()
            .map(|n| Val::Bool(n % 2 == 0))
            .ok_or_else(|| EvalError(format!("even applied to {v}"))),
    }
}

/// `va op vb`, for [`Exp::eval`].
fn apply_bin(op: BinOp, va: Val, vb: Val) -> Result<Val, EvalError> {
    let int = |v: Val, what: &str| {
        v.as_int().ok_or_else(|| EvalError(format!("{what} applied to {v}")))
    };
    let boolean = |v: Val, what: &str| {
        v.as_bool().ok_or_else(|| EvalError(format!("{what} applied to {v}")))
    };
    Ok(match op {
        BinOp::Add => Val::Int(int(va, "+")? + int(vb, "+")?),
        BinOp::Sub => Val::Int(int(va, "-")? - int(vb, "-")?),
        BinOp::Mul => Val::Int(int(va, "*")? * int(vb, "*")?),
        BinOp::Mod => {
            let d = int(vb, "%")?;
            if d == 0 {
                return Err(EvalError("modulo by zero".into()));
            }
            Val::Int(int(va, "%")? % d)
        }
        BinOp::Eq => Val::Bool(va == vb),
        BinOp::Ne => Val::Bool(va != vb),
        BinOp::Lt => Val::Bool(int(va, "<")? < int(vb, "<")?),
        BinOp::Le => Val::Bool(int(va, "≤")? <= int(vb, "≤")?),
        BinOp::And => Val::Bool(boolean(va, "∧")? && boolean(vb, "∧")?),
        BinOp::Or => Val::Bool(boolean(va, "∨")? || boolean(vb, "∨")?),
    })
}

/// The methods of the abstract objects shipped with this reproduction.
///
/// Call sites additionally carry a `sync` flag for the annotated variants
/// (`push^R`, `pop^A`); locks are "by default synchronising" (Section 4) so
/// their flag is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `l.Acquire()` — returns `true` (Example 1's `rval := true`).
    Acquire,
    /// `l.Acquire(v)` — like `Acquire` but returns the lock *version* `n`
    /// (the proof device of Figure 7, where `rl` records which acquire this
    /// was). Only available on abstract locks; refinement clients must use
    /// `Acquire` so abstract and concrete `rval`s coincide.
    AcquireV,
    /// `l.Release()`.
    Release,
    /// `s.push(v)` / `s.push^R(v)`.
    Push,
    /// `s.pop()` / `s.pop^A()` — returns the popped value or `Empty`.
    Pop,
    /// `reg.read()` / `reg.read^A()` (extension object).
    RegRead,
    /// `reg.write(v)` / `reg.write^R(v)` (extension object).
    RegWrite,
    /// `ctr.inc()` — fetch-and-increment (extension object).
    Inc,
    /// `q.enq(v)` / `q.enq^R(v)` (extension object: FIFO queue).
    Enq,
    /// `q.deq()` / `q.deq^A()` — returns the dequeued value or `Empty`.
    Deq,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::Acquire => "Acquire",
            Method::AcquireV => "AcquireV",
            Method::Release => "Release",
            Method::Push => "push",
            Method::Pop => "pop",
            Method::RegRead => "read",
            Method::RegWrite => "write",
            Method::Inc => "inc",
            Method::Enq => "enq",
            Method::Deq => "deq",
        };
        write!(f, "{s}")
    }
}

/// Commands — Figure 4's `Com`, with `do … until` kept primitive because the
/// paper's examples use it directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Com {
    /// The terminated command `⊥` (also the empty program).
    Skip,
    /// `r := E`.
    Assign(Reg, Exp),
    /// `x :=[R] E`.
    Write {
        /// Target variable.
        var: VarRef,
        /// Value expression (local).
        exp: Exp,
        /// Release annotation (`x :=R E`).
        rel: bool,
    },
    /// `r ←[A] x`.
    Read {
        /// Destination register.
        reg: Reg,
        /// Source variable.
        var: VarRef,
        /// Acquire annotation (`r ←A x`).
        acq: bool,
    },
    /// `r ← CAS(x, u, v)^RA` — `r` becomes `true`/`false` for success/fail.
    Cas {
        /// Destination register for the success flag.
        reg: Reg,
        /// Target variable.
        var: VarRef,
        /// Expected value expression.
        expect: Exp,
        /// New value expression.
        new: Exp,
    },
    /// `r ← FAI(x)^RA` — fetch-and-increment; `r` gets the old value.
    Fai {
        /// Destination register for the fetched value.
        reg: Reg,
        /// Target variable.
        var: VarRef,
    },
    /// A method-call hole `[r :=] o.m([arg])`, executed abstractly or after
    /// inlining a concrete implementation.
    MethodCall {
        /// Optional destination register for the return value.
        reg: Option<Reg>,
        /// The object.
        obj: ObjRef,
        /// The method.
        method: Method,
        /// Optional argument expression.
        arg: Option<Exp>,
        /// Synchronising-variant annotation (`push^R` / `pop^A`).
        sync: bool,
    },
    /// `C1; C2`.
    Seq(Box<Com>, Box<Com>),
    /// `if B then C1 else C2`.
    If {
        /// Guard (local expression of boolean type).
        cond: Exp,
        /// Then-branch.
        then_: Box<Com>,
        /// Else-branch.
        else_: Box<Com>,
    },
    /// `while B do C`.
    While {
        /// Guard.
        cond: Exp,
        /// Body.
        body: Box<Com>,
    },
    /// `do C until B`.
    DoUntil {
        /// Body.
        body: Box<Com>,
        /// Exit condition (checked after each iteration).
        cond: Exp,
    },
    /// A labelled program point: `k: C`. Labels name the statement numbers
    /// of the paper's proof outlines (Figures 3 and 7) and are where
    /// proof-outline assertions attach.
    Labeled(u32, Box<Com>),
}

impl Com {
    /// Sequence two commands, flattening `Skip`s.
    pub fn then(self, next: Com) -> Com {
        match (self, next) {
            (Com::Skip, c) | (c, Com::Skip) => c,
            (a, b) => Com::Seq(Box::new(a), Box::new(b)),
        }
    }

    /// Visit every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Com)) {
        f(self);
        match self {
            Com::Seq(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Com::If { then_, else_, .. } => {
                then_.visit(f);
                else_.visit(f);
            }
            Com::While { body, .. } | Com::DoUntil { body, .. } => body.visit(f),
            Com::Labeled(_, c) => c.visit(f),
            _ => {}
        }
    }

    /// The maximal register index mentioned (for sizing local states).
    pub fn max_reg(&self) -> Option<u16> {
        let mut max: Option<u16> = None;
        let mut bump = |r: Reg| max = Some(max.map_or(r.0, |m| m.max(r.0)));
        self.visit(&mut |c| {
            let mut regs = Vec::new();
            match c {
                Com::Assign(r, e) => {
                    bump(*r);
                    e.regs(&mut regs);
                }
                Com::Write { exp, .. } => exp.regs(&mut regs),
                Com::Read { reg, .. } => bump(*reg),
                Com::Cas { reg, expect, new, .. } => {
                    bump(*reg);
                    expect.regs(&mut regs);
                    new.regs(&mut regs);
                }
                Com::Fai { reg, .. } => bump(*reg),
                Com::MethodCall { reg, arg, .. } => {
                    if let Some(r) = reg {
                        bump(*r);
                    }
                    if let Some(a) = arg {
                        a.regs(&mut regs);
                    }
                }
                Com::If { cond, .. } | Com::While { cond, .. } | Com::DoUntil { cond, .. } => {
                    cond.regs(&mut regs)
                }
                _ => {}
            }
            for r in regs {
                bump(r);
            }
        });
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(vals: &[i64]) -> Vec<Val> {
        vals.iter().map(|&n| Val::Int(n)).collect()
    }

    #[test]
    fn eval_arithmetic() {
        let e = Exp::Bin(
            BinOp::Add,
            Box::new(Exp::Reg(Reg(0))),
            Box::new(Exp::Val(Val::Int(2))),
        );
        assert_eq!(e.eval(&ls(&[40])), Ok(Val::Int(42)));
    }

    #[test]
    fn eval_even() {
        let e = Exp::Un(UnOp::Even, Box::new(Exp::Reg(Reg(0))));
        assert_eq!(e.eval(&ls(&[4])), Ok(Val::Bool(true)));
        assert_eq!(e.eval(&ls(&[5])), Ok(Val::Bool(false)));
    }

    #[test]
    fn eval_type_errors_are_reported() {
        let e = Exp::Bin(BinOp::Add, Box::new(Exp::Val(Val::Bool(true))), Box::new(Exp::Val(Val::Int(1))));
        assert!(e.eval(&[]).is_err());
        let e = Exp::Bin(BinOp::Mod, Box::new(Exp::Val(Val::Int(1))), Box::new(Exp::Val(Val::Int(0))));
        assert!(e.eval(&[]).is_err());
    }

    #[test]
    fn eval_eq_on_mixed_values() {
        let e = Exp::Bin(BinOp::Eq, Box::new(Exp::Val(Val::Empty)), Box::new(Exp::Val(Val::Int(1))));
        assert_eq!(e.eval(&[]), Ok(Val::Bool(false)));
    }

    #[test]
    fn then_flattens_skip() {
        let c = Com::Skip.then(Com::Assign(Reg(0), Exp::Val(Val::Int(1))));
        assert!(matches!(c, Com::Assign(..)));
    }

    #[test]
    fn max_reg_scans_all_positions() {
        let c = Com::Seq(
            Box::new(Com::Assign(Reg(3), Exp::Reg(Reg(7)))),
            Box::new(Com::Read {
                reg: Reg(5),
                var: VarRef { comp: Comp::Client, loc: Loc(0) },
                acq: false,
            }),
        );
        assert_eq!(c.max_reg(), Some(7));
    }
}
