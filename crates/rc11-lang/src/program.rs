//! Whole programs: `Init; (C1 || … || Cn)` (Section 3.2).

use crate::ast::{Com, VarRef};
use rc11_core::{Comp, InitLoc, Loc, LocTable, Val};

/// The kind of an abstract object — selects which Section-4 transition rules
/// govern its method calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// The Figure-6 lock.
    Lock,
    /// The abstract stack of Figures 1–3 (semantics per DESIGN.md §3).
    Stack,
    /// An abstract atomic register (extension).
    Register,
    /// An abstract fetch-and-increment counter (extension).
    Counter,
    /// An abstract FIFO queue (extension; the paper's future-work ADT).
    Queue,
}

/// One thread's code plus its local-state layout.
#[derive(Debug, Clone)]
pub struct ThreadDef {
    /// The thread's command.
    pub body: Com,
    /// Number of registers (local state size).
    pub n_regs: u16,
    /// Register names, for display (`reg_names[r]`).
    pub reg_names: Vec<String>,
    /// Initial register values (`Init` may initialise locals; default `⊥`).
    pub reg_inits: Vec<Val>,
}

/// A complete concurrent program over a client component and a library
/// component, with initialisation for every shared location.
#[derive(Debug, Clone)]
pub struct Program {
    /// Human-readable name (used in reports and benches).
    pub name: String,
    /// Client location names/kinds.
    pub client_locs: LocTable,
    /// Client location initialisation.
    pub client_inits: Vec<InitLoc>,
    /// Library location names/kinds.
    pub lib_locs: LocTable,
    /// Library location initialisation.
    pub lib_inits: Vec<InitLoc>,
    /// Abstract objects among the library locations.
    pub objects: Vec<(Loc, ObjKind)>,
    /// The threads.
    pub threads: Vec<ThreadDef>,
}

impl Program {
    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// The object kind at library location `loc`, if it is an object.
    pub fn obj_kind(&self, loc: Loc) -> Option<ObjKind> {
        self.objects.iter().find(|(l, _)| *l == loc).map(|(_, k)| *k)
    }

    /// Resolve a variable name for display.
    pub fn var_name(&self, var: VarRef) -> &str {
        match var.comp {
            Comp::Client => self.client_locs.name(var.loc),
            Comp::Lib => self.lib_locs.name(var.loc),
        }
    }

    /// Initial local states, one `Vec<Val>` per thread.
    pub fn initial_locals(&self) -> Vec<Vec<Val>> {
        self.threads.iter().map(|t| t.reg_inits.clone()).collect()
    }

    /// Sanity-check the program: at most [`rc11_core::MAX_THREADS`]
    /// threads, register indices within bounds, variable references within
    /// the location tables, objects only accessed through method calls,
    /// plain variables never used as objects.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads.len() > rc11_core::MAX_THREADS {
            return Err(format!(
                "{} threads: at most {} (thread ids are 8-bit)",
                self.threads.len(),
                rc11_core::MAX_THREADS
            ));
        }
        for (ti, th) in self.threads.iter().enumerate() {
            if let Some(max) = th.body.max_reg() {
                if max >= th.n_regs {
                    return Err(format!(
                        "thread {ti}: register r{max} out of range (n_regs = {})",
                        th.n_regs
                    ));
                }
            }
            if th.reg_inits.len() != th.n_regs as usize {
                return Err(format!("thread {ti}: reg_inits length mismatch"));
            }
            let mut err = None;
            th.body.visit(&mut |c| {
                use rc11_core::LocKind;
                let check_var = |v: VarRef, err: &mut Option<String>| {
                    let table = match v.comp {
                        Comp::Client => &self.client_locs,
                        Comp::Lib => &self.lib_locs,
                    };
                    if v.loc.idx() >= table.len() {
                        *err = Some(format!("thread {ti}: variable {v:?} out of range"));
                    } else if table.kind(v.loc) != LocKind::Var {
                        *err = Some(format!(
                            "thread {ti}: object location {} accessed as a variable",
                            table.name(v.loc)
                        ));
                    }
                };
                match c {
                    Com::Write { var, .. } | Com::Read { var, .. } => check_var(*var, &mut err),
                    Com::Cas { var, .. } | Com::Fai { var, .. } => check_var(*var, &mut err),
                    Com::MethodCall { obj, .. }
                        if obj.loc.idx() >= self.lib_locs.len()
                            || self.lib_locs.kind(obj.loc) != LocKind::Obj =>
                    {
                        err = Some(format!(
                            "thread {ti}: method call on non-object location {:?}",
                            obj.loc
                        ));
                    }
                    _ => {}
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(())
    }
}
