//! Seeded random litmus-program generation with deletion-based shrinking.
//!
//! The generator produces well-formed, always-terminating 2–4-thread
//! programs over the full statement alphabet — relaxed/release writes,
//! relaxed/acquire reads, `CAS`/`FAI`, local assignments, `if`/`else`,
//! bounded `while` and `do … until` loops — as a small first-order tree
//! ([`GProg`]) that can be lowered to a [`Program`] (via the builder) *and*
//! printed as `.litmus` surface syntax, so every counterexample the
//! differential harness ([`crate::fuzz`]) finds is reportable as a file the
//! `rc11` CLI can replay. Shrinking is deletion-based: greedily remove
//! whole statements (subtrees) and threads while the failure persists.
//!
//! Well-formedness invariants, maintained by construction and preserved by
//! deletion:
//!
//! * every loop is bounded by a dedicated counter register, so every
//!   generated program terminates in every interleaving;
//! * shared variables only ever hold integers, and arithmetic only touches
//!   registers that are statically integer-typed on every path (`CAS`
//!   writes booleans into its result register, so result registers are
//!   tracked through branch joins);
//! * guards use only `==`/`!=` against constants, which are total on all
//!   value types.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc11_lang::builder::*;
use rc11_lang::{Com, Program, Reg};
use rc11_core::Val;

/// Data registers per thread (assignment targets; all observed).
pub const DATA_REGS: u16 = 3;

/// Knobs for the generator.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Minimum number of threads (inclusive).
    pub min_threads: usize,
    /// Maximum number of threads (inclusive).
    pub max_threads: usize,
    /// Maximum number of shared variables (at least 1).
    pub max_vars: u16,
    /// Maximum top-level statements per thread.
    pub max_stmts: usize,
    /// Maximum loop/branch nesting depth.
    pub max_depth: usize,
    /// Maximum bounded-loop iteration count.
    pub max_loop_iters: u8,
    /// With ~1/3 probability per program, clone one generated thread body
    /// into every thread slot, yielding a fully thread-symmetric program.
    /// Off, independently drawn bodies almost never coincide, so the
    /// symmetry-reduction differential lane would only ever exercise its
    /// trivial fast path; on, a third of the corpus has real orbits to
    /// reduce. Default off (the historical generator distribution).
    pub clone_threads: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            min_threads: 2,
            max_threads: 4,
            max_vars: 3,
            max_stmts: 4,
            max_depth: 2,
            max_loop_iters: 2,
            clone_threads: false,
        }
    }
}

/// The right-hand side of a local assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GRhs {
    /// A constant.
    Const(i64),
    /// `src + k`, where `src` is statically integer-typed.
    AddConst(u16, i64),
}

/// One generated statement. Loops carry their bound and dedicated counter
/// register so the tree is self-contained and deletion-safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GStmt {
    /// `x := v` (optionally releasing).
    Write {
        /// Variable index.
        var: u16,
        /// Written constant.
        val: i64,
        /// Release annotation.
        rel: bool,
    },
    /// `r ← x` (optionally acquiring).
    Read {
        /// Destination data register.
        reg: u16,
        /// Variable index.
        var: u16,
        /// Acquire annotation.
        acq: bool,
    },
    /// `r ← CAS(x, expect, new)`.
    Cas {
        /// Destination data register (receives a boolean).
        reg: u16,
        /// Variable index.
        var: u16,
        /// Expected value.
        expect: i64,
        /// Replacement value.
        new: i64,
    },
    /// `r ← FAI(x)`.
    Fai {
        /// Destination data register (receives the old integer).
        reg: u16,
        /// Variable index.
        var: u16,
    },
    /// `r := rhs`.
    Assign {
        /// Destination data register.
        reg: u16,
        /// Right-hand side.
        rhs: GRhs,
    },
    /// `if (r ⋈ k) { then } else { else }` with `⋈ ∈ {==, !=}`.
    If {
        /// Scrutinised data register.
        reg: u16,
        /// Compared constant.
        k: i64,
        /// Use `!=` instead of `==`.
        ne: bool,
        /// Then-branch.
        then_: Vec<GStmt>,
        /// Else-branch.
        else_: Vec<GStmt>,
    },
    /// `ctr := n; while (0 < ctr) { body; ctr := ctr - 1 }`.
    While {
        /// Counter register (index ≥ [`DATA_REGS`], per nesting depth).
        ctr: u16,
        /// Iteration bound.
        n: u8,
        /// Loop body.
        body: Vec<GStmt>,
    },
    /// `ctr := n; do { body; ctr := ctr - 1 } until (ctr <= 0)`.
    DoUntil {
        /// Counter register (index ≥ [`DATA_REGS`], per nesting depth).
        ctr: u16,
        /// Iteration bound (executes `max(n, 1)` times).
        n: u8,
        /// Loop body.
        body: Vec<GStmt>,
    },
}

/// A generated program: thread bodies over `n_vars` shared variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GProg {
    /// Number of shared variables (`x0 … x{n-1}`, all initialised to 0).
    pub n_vars: u16,
    /// Loop-counter registers per thread (fixed by the generation depth).
    pub n_loop_regs: u16,
    /// One statement list per thread.
    pub threads: Vec<Vec<GStmt>>,
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/// Conservative static type of a data register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Bool,
    Mixed,
}

fn join(a: Ty, b: Ty) -> Ty {
    if a == b {
        a
    } else {
        Ty::Mixed
    }
}

struct Gen<'a> {
    rng: &'a mut StdRng,
    opts: &'a GenOptions,
    n_vars: u16,
}

impl Gen<'_> {
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.rng.gen_range(0..(hi - lo + 1) as u64)) as i64
    }

    fn var(&mut self) -> u16 {
        self.rng.gen_range(0..self.n_vars as u64) as u16
    }

    fn reg(&mut self) -> u16 {
        self.rng.gen_range(0..DATA_REGS as u64) as u16
    }

    fn flip(&mut self) -> bool {
        self.rng.gen_range(0..2u64) == 1
    }

    /// Generate one statement at the given nesting depth, updating `types`.
    fn stmt(&mut self, depth: usize, types: &mut [Ty]) -> GStmt {
        // Weighted alphabet: shared accesses dominate, control flow only
        // below the depth limit.
        let max = if depth < self.opts.max_depth { 10 } else { 7 };
        match self.rng.gen_range(0..max as u64) {
            0 | 1 => GStmt::Write { var: self.var(), val: self.int(1, 3), rel: self.flip() },
            2 | 3 => {
                let reg = self.reg();
                types[reg as usize] = Ty::Int;
                GStmt::Read { reg, var: self.var(), acq: self.flip() }
            }
            4 => {
                let reg = self.reg();
                types[reg as usize] = Ty::Bool;
                GStmt::Cas { reg, var: self.var(), expect: self.int(0, 2), new: self.int(1, 3) }
            }
            5 => {
                let reg = self.reg();
                types[reg as usize] = Ty::Int;
                GStmt::Fai { reg, var: self.var() }
            }
            6 => {
                let reg = self.reg();
                // Arithmetic only over registers that are Int on all paths.
                let int_srcs: Vec<u16> =
                    (0..DATA_REGS).filter(|&r| types[r as usize] == Ty::Int).collect();
                let rhs = if !int_srcs.is_empty() && self.flip() {
                    let src = int_srcs[self.rng.gen_range(0..int_srcs.len())];
                    GRhs::AddConst(src, self.int(-1, 2))
                } else {
                    GRhs::Const(self.int(0, 3))
                };
                types[reg as usize] = Ty::Int;
                GStmt::Assign { reg, rhs }
            }
            7 => {
                let reg = self.reg();
                let k = self.int(0, 2);
                let ne = self.flip();
                let mut then_ty = types.to_vec();
                let mut else_ty = types.to_vec();
                let then_ = self.stmts(depth + 1, &mut then_ty, 2);
                let else_ =
                    if self.flip() { self.stmts(depth + 1, &mut else_ty, 2) } else { Vec::new() };
                for (t, (a, b)) in types.iter_mut().zip(then_ty.into_iter().zip(else_ty)) {
                    *t = join(*t, join(a, b));
                }
                GStmt::If { reg, k, ne, then_, else_ }
            }
            8 => {
                let ctr = DATA_REGS + depth as u16;
                let n = 1 + (self.rng.gen_range(0..self.opts.max_loop_iters as u64)) as u8;
                let mut body = self.stmts(depth + 1, types, 2);
                repair_loop_body(&mut body);
                GStmt::While { ctr, n, body }
            }
            _ => {
                let ctr = DATA_REGS + depth as u16;
                let n = 1 + (self.rng.gen_range(0..self.opts.max_loop_iters as u64)) as u8;
                let mut body = self.stmts(depth + 1, types, 2);
                repair_loop_body(&mut body);
                GStmt::DoUntil { ctr, n, body }
            }
        }
    }

    fn stmts(&mut self, depth: usize, types: &mut [Ty], max: usize) -> Vec<GStmt> {
        let n = 1 + self.rng.gen_range(0..max as u64) as usize;
        (0..n).map(|_| self.stmt(depth, types)).collect()
    }
}

/// Cross-iteration typing repair for loop bodies. The per-statement type
/// lattice is *linear*: it sees one pass through the body. But a loop body
/// re-enters, so an `r0 := r1 + k` generated while `r1` was still integer
/// is unsound if any statement of the same body (including nested
/// containers) later CASes into `r1` — on the second iteration the
/// arithmetic would read a boolean. The repair is conservative: collect
/// every CAS target anywhere in the body, and demote any arithmetic over
/// those registers to its constant (CAS is the only producer of
/// non-integer register values).
fn repair_loop_body(body: &mut [GStmt]) {
    fn cas_targets(stmts: &[GStmt], out: &mut Vec<u16>) {
        for s in stmts {
            match s {
                GStmt::Cas { reg, .. } => out.push(*reg),
                GStmt::If { then_, else_, .. } => {
                    cas_targets(then_, out);
                    cas_targets(else_, out);
                }
                GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => cas_targets(body, out),
                _ => {}
            }
        }
    }
    fn demote(stmts: &mut [GStmt], banned: &[u16]) {
        for s in stmts {
            match s {
                GStmt::Assign { rhs, .. } => {
                    if let GRhs::AddConst(src, k) = rhs {
                        if banned.contains(src) {
                            *rhs = GRhs::Const(*k);
                        }
                    }
                }
                GStmt::If { then_, else_, .. } => {
                    demote(then_, banned);
                    demote(else_, banned);
                }
                GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => demote(body, banned),
                _ => {}
            }
        }
    }
    let mut banned = Vec::new();
    cas_targets(body, &mut banned);
    if !banned.is_empty() {
        demote(body, &banned);
    }
}

/// Generate one random program from the given seed.
pub fn generate(seed: u64, opts: &GenOptions) -> GProg {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_threads = opts.min_threads
        + rng.gen_range(0..(opts.max_threads - opts.min_threads + 1) as u64) as usize;
    let n_vars = 1 + rng.gen_range(0..opts.max_vars as u64) as u16;
    let mut g = Gen { rng: &mut rng, opts, n_vars };
    let mut threads: Vec<Vec<GStmt>> = (0..n_threads)
        .map(|_| {
            let mut types = vec![Ty::Int; DATA_REGS as usize];
            let n = 1 + g.rng.gen_range(0..g.opts.max_stmts as u64) as usize;
            (0..n).map(|_| g.stmt(0, &mut types)).collect()
        })
        .collect();
    // Thread-cloning mode: sometimes collapse the program to copies of one
    // body, so the symmetry-reduction lane sees non-trivial orbits. Every
    // draw above still happens first — seeds stay comparable across modes.
    if opts.clone_threads && rng.gen_range(0..3u64) == 0 {
        let donor = rng.gen_range(0..n_threads as u64) as usize;
        let body = threads[donor].clone();
        for t in &mut threads {
            t.clone_from(&body);
        }
    }
    GProg { n_vars, n_loop_regs: opts.max_depth as u16, threads }
}

// ---------------------------------------------------------------------
// Lowering to Program and printing to .litmus
// ---------------------------------------------------------------------

impl GProg {
    /// Every thread's observed data registers, in `observe` order:
    /// `(thread, register)` for each thread × data register.
    pub fn observe(&self) -> Vec<(usize, Reg)> {
        (0..self.threads.len())
            .flat_map(|t| (0..DATA_REGS).map(move |r| (t, Reg(r))))
            .collect()
    }

    /// Lower to a [`Program`] through the builder (the same pipeline every
    /// other litmus program takes).
    pub fn to_program(&self, name: &str) -> Program {
        let mut p = ProgramBuilder::new(name);
        let vars: Vec<_> =
            (0..self.n_vars).map(|i| p.client_var(&format!("x{i}"), 0)).collect();
        for stmts in &self.threads {
            let mut tb = ThreadBuilder::new();
            let mut regs: Vec<Reg> = (0..DATA_REGS)
                .map(|i| tb.reg_init(&format!("r{i}"), Val::Int(0)))
                .collect();
            for i in 0..self.n_loop_regs {
                regs.push(tb.reg_init(&format!("c{i}"), Val::Int(0)));
            }
            let body = seq(stmts.iter().map(|s| lower_stmt(s, &vars, &regs)));
            p.add_thread(tb, body);
        }
        p.build()
    }

    /// Print as `.litmus` surface syntax with the given exact expected
    /// outcome set (normally the reference oracle's observed set), so a
    /// failing program is replayable via `rc11 run`.
    pub fn to_litmus_source(
        &self,
        name: &str,
        about: &str,
        expected: &std::collections::BTreeSet<Vec<Val>>,
    ) -> String {
        // The lexer's string literals have no escape mechanism, so quotes
        // and newlines (which reach us through ParseError-derived failure
        // descriptions) must be sanitised or the repro would not re-parse.
        let quote = |s: &str| s.replace(['"', '\n'], " ");
        let mut s = String::new();
        s.push_str(&format!("litmus \"{}\"\n", quote(name)));
        if !about.is_empty() {
            s.push_str(&format!("about \"{}\"\n", quote(about)));
        }
        for i in 0..self.n_vars {
            s.push_str(&format!("var x{i} = 0\n"));
        }
        for (t, stmts) in self.threads.iter().enumerate() {
            s.push_str(&format!("\nthread T{} {{\n", t + 1));
            // Registers must be assigned before use under the text syntax
            // (the builder path pre-initialises them to 0 instead).
            let init: String =
                (0..DATA_REGS).map(|r| format!("r{r} = 0; ")).collect();
            s.push_str(&format!("  {}\n", init.trim_end()));
            for st in stmts {
                print_stmt(st, 1, &mut s);
            }
            s.push_str("}\n");
        }
        s.push_str("\nobserve");
        for (t, r) in self.observe() {
            s.push_str(&format!(" T{}.r{}", t + 1, r.0));
        }
        s.push_str("\nexpected {\n");
        for tuple in expected {
            let vals: Vec<String> =
                tuple.iter().map(rc11_lang::parse::val_literal).collect();
            s.push_str(&format!("  ({})\n", vals.join(", ")));
        }
        s.push_str("}\n");
        s
    }

    /// Total number of statements (pre-order, counting subtree nodes).
    pub fn len(&self) -> usize {
        fn count(stmts: &[GStmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    GStmt::If { then_, else_, .. } => 1 + count(then_) + count(else_),
                    GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        self.threads.iter().map(|t| count(t)).sum()
    }

    /// True iff there are no statements at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove the `idx`-th statement in global pre-order (whole subtree).
    /// Returns `None` if `idx` is out of range.
    #[must_use]
    pub fn remove_stmt(&self, idx: usize) -> Option<GProg> {
        fn rm(stmts: &mut Vec<GStmt>, idx: &mut usize) -> bool {
            let mut i = 0;
            while i < stmts.len() {
                if *idx == 0 {
                    stmts.remove(i);
                    return true;
                }
                *idx -= 1;
                let hit = match &mut stmts[i] {
                    GStmt::If { then_, else_, .. } => rm(then_, idx) || rm(else_, idx),
                    GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => rm(body, idx),
                    _ => false,
                };
                if hit {
                    return true;
                }
                i += 1;
            }
            false
        }
        let mut out = self.clone();
        let mut idx = idx;
        for t in &mut out.threads {
            if rm(t, &mut idx) {
                return Some(out);
            }
        }
        None
    }

    /// Replace the `idx`-th statement (global pre-order) by its children:
    /// an `if` becomes `then; else`, a loop becomes its body run once.
    /// Returns `None` if `idx` is out of range or not a container.
    #[must_use]
    pub fn unwrap_stmt(&self, idx: usize) -> Option<GProg> {
        fn unwrap(stmts: &mut Vec<GStmt>, idx: &mut usize) -> Option<bool> {
            let mut i = 0;
            while i < stmts.len() {
                if *idx == 0 {
                    let children = match stmts.remove(i) {
                        GStmt::If { then_, else_, .. } => {
                            let mut c = then_;
                            c.extend(else_);
                            c
                        }
                        GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => body,
                        other => {
                            // Not a container: put it back, report no-op.
                            stmts.insert(i, other);
                            return Some(false);
                        }
                    };
                    stmts.splice(i..i, children);
                    return Some(true);
                }
                *idx -= 1;
                let hit = match &mut stmts[i] {
                    GStmt::If { then_, else_, .. } => {
                        unwrap(then_, idx).or_else(|| unwrap(else_, idx))
                    }
                    GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => unwrap(body, idx),
                    _ => None,
                };
                if let Some(h) = hit {
                    return Some(h);
                }
                i += 1;
            }
            None
        }
        let mut out = self.clone();
        let mut idx = idx;
        for t in &mut out.threads {
            match unwrap(t, &mut idx) {
                Some(true) => return Some(out),
                Some(false) => return None,
                None => continue,
            }
        }
        None
    }

    /// Remove a whole thread. Returns `None` when only one thread is left.
    #[must_use]
    pub fn remove_thread(&self, t: usize) -> Option<GProg> {
        if self.threads.len() <= 1 || t >= self.threads.len() {
            return None;
        }
        let mut out = self.clone();
        out.threads.remove(t);
        Some(out)
    }
}

fn lower_stmt(s: &GStmt, vars: &[rc11_lang::VarRef], regs: &[Reg]) -> Com {
    match s {
        GStmt::Write { var, val, rel } => {
            let v = vars[*var as usize];
            if *rel {
                wr_rel(v, *val)
            } else {
                wr(v, *val)
            }
        }
        GStmt::Read { reg, var, acq } => {
            let v = vars[*var as usize];
            if *acq {
                rd_acq(regs[*reg as usize], v)
            } else {
                rd(regs[*reg as usize], v)
            }
        }
        GStmt::Cas { reg, var, expect, new } => {
            cas(regs[*reg as usize], vars[*var as usize], *expect, *new)
        }
        GStmt::Fai { reg, var } => fai(regs[*reg as usize], vars[*var as usize]),
        GStmt::Assign { reg, rhs } => match rhs {
            GRhs::Const(k) => assign(regs[*reg as usize], *k),
            GRhs::AddConst(src, k) => {
                assign(regs[*reg as usize], add(regs[*src as usize], *k))
            }
        },
        GStmt::If { reg, k, ne: is_ne, then_, else_ } => {
            let r = regs[*reg as usize];
            let cond = if *is_ne { ne(r, *k) } else { eq(r, *k) };
            if_else(
                cond,
                seq(then_.iter().map(|s| lower_stmt(s, vars, regs))),
                seq(else_.iter().map(|s| lower_stmt(s, vars, regs))),
            )
        }
        GStmt::While { ctr, n, body } => {
            let c = regs[*ctr as usize];
            assign(c, *n as i64).then(while_do(
                lt(0, c),
                seq(body.iter().map(|s| lower_stmt(s, vars, regs)))
                    .then(assign(c, sub(c, 1))),
            ))
        }
        GStmt::DoUntil { ctr, n, body } => {
            let c = regs[*ctr as usize];
            assign(c, *n as i64).then(do_until(
                seq(body.iter().map(|s| lower_stmt(s, vars, regs)))
                    .then(assign(c, sub(c, 1))),
                le(c, 0),
            ))
        }
    }
}

fn print_stmt(s: &GStmt, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match s {
        GStmt::Write { var, val, rel } => {
            let ann = if *rel { "=rel" } else { "=" };
            out.push_str(&format!("{pad}x{var} {ann} {val};\n"));
        }
        GStmt::Read { reg, var, acq } => {
            let ann = if *acq { "=acq" } else { "=" };
            out.push_str(&format!("{pad}r{reg} {ann} x{var};\n"));
        }
        GStmt::Cas { reg, var, expect, new } => {
            out.push_str(&format!("{pad}r{reg} = cas(x{var}, {expect}, {new});\n"));
        }
        GStmt::Fai { reg, var } => {
            out.push_str(&format!("{pad}r{reg} = fai(x{var});\n"));
        }
        GStmt::Assign { reg, rhs } => match rhs {
            GRhs::Const(k) => out.push_str(&format!("{pad}r{reg} = {k};\n")),
            GRhs::AddConst(src, k) => {
                if *k < 0 {
                    out.push_str(&format!("{pad}r{reg} = r{src} - {};\n", -k))
                } else {
                    out.push_str(&format!("{pad}r{reg} = r{src} + {k};\n"))
                }
            }
        },
        GStmt::If { reg, k, ne, then_, else_ } => {
            let op = if *ne { "!=" } else { "==" };
            out.push_str(&format!("{pad}if (r{reg} {op} {k}) {{\n"));
            for st in then_ {
                print_stmt(st, indent + 1, out);
            }
            if else_.is_empty() {
                out.push_str(&format!("{pad}}}\n"));
            } else {
                out.push_str(&format!("{pad}}} else {{\n"));
                for st in else_ {
                    print_stmt(st, indent + 1, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
        }
        GStmt::While { ctr, n, body } => {
            out.push_str(&format!("{pad}c{} = {n};\n", ctr - DATA_REGS));
            out.push_str(&format!("{pad}while (0 < c{}) {{\n", ctr - DATA_REGS));
            for st in body {
                print_stmt(st, indent + 1, out);
            }
            out.push_str(&format!("{pad}  c{0} = c{0} - 1;\n", ctr - DATA_REGS));
            out.push_str(&format!("{pad}}}\n"));
        }
        GStmt::DoUntil { ctr, n, body } => {
            out.push_str(&format!("{pad}c{} = {n};\n", ctr - DATA_REGS));
            out.push_str(&format!("{pad}do {{\n"));
            for st in body {
                print_stmt(st, indent + 1, out);
            }
            out.push_str(&format!("{pad}  c{0} = c{0} - 1;\n", ctr - DATA_REGS));
            out.push_str(&format!("{pad}}} until (c{} <= 0);\n", ctr - DATA_REGS));
        }
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Greedy deletion-based shrinking: while the failure persists, try
/// removing whole threads, then single statements (subtrees), then
/// unwrapping containers (deleting an `if`/loop but keeping its children),
/// restarting after every successful reduction until a fixpoint. `fails`
/// must be deterministic; the returned program still fails it.
pub fn shrink(prog: &GProg, fails: impl Fn(&GProg) -> bool) -> GProg {
    debug_assert!(fails(prog), "shrink must start from a failing program");
    let mut cur = prog.clone();
    'outer: loop {
        for t in (0..cur.threads.len()).rev() {
            if let Some(cand) = cur.remove_thread(t) {
                if fails(&cand) {
                    cur = cand;
                    continue 'outer;
                }
            }
        }
        for i in (0..cur.len()).rev() {
            if let Some(cand) = cur.remove_stmt(i) {
                if fails(&cand) {
                    cur = cand;
                    continue 'outer;
                }
            }
            if let Some(cand) = cur.unwrap_stmt(i) {
                if fails(&cand) {
                    cur = cand;
                    continue 'outer;
                }
            }
        }
        return cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_lang::compile;
    use rc11_lang::machine::NoObjects;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let opts = GenOptions::default();
        let a = generate(42, &opts);
        let b = generate(42, &opts);
        assert_eq!(a, b);
        let c = generate(43, &opts);
        assert_ne!(a, c, "different seeds should give different programs");
    }

    #[test]
    fn generated_programs_are_valid_and_bounded() {
        let opts = GenOptions::default();
        for seed in 0..40 {
            let g = generate(seed, &opts);
            assert!(g.threads.len() >= opts.min_threads);
            assert!(g.threads.len() <= opts.max_threads);
            // `to_program` panics on invalid programs (builder validation).
            let p = g.to_program(&format!("gen-{seed}"));
            assert_eq!(p.n_threads(), g.threads.len());
        }
    }

    #[test]
    fn generated_programs_terminate_under_exploration() {
        let opts = GenOptions::default();
        for seed in 0..10 {
            let g = generate(seed, &opts);
            let prog = compile(&g.to_program("term"));
            let report = crate::Engine::Sequential.explore(
                &prog,
                &NoObjects,
                &crate::ExploreOptions { record_traces: false, ..Default::default() },
            );
            assert!(!report.truncated(), "seed {seed}: truncated");
            assert!(report.deadlocked.is_empty(), "seed {seed}: deadlocked");
            assert!(!report.terminated.is_empty(), "seed {seed}: no terminal state");
        }
    }

    #[test]
    fn remove_stmt_removes_exactly_one_subtree() {
        let g = GProg {
            n_vars: 1,
            n_loop_regs: 2,
            threads: vec![
                vec![
                    GStmt::Write { var: 0, val: 1, rel: false },
                    GStmt::If {
                        reg: 0,
                        k: 0,
                        ne: false,
                        then_: vec![GStmt::Fai { reg: 1, var: 0 }],
                        else_: vec![],
                    },
                ],
                vec![GStmt::Read { reg: 0, var: 0, acq: true }],
            ],
        };
        assert_eq!(g.len(), 4);
        // Index 2 is the Fai inside the If (pre-order).
        let removed = g.remove_stmt(2).unwrap();
        assert_eq!(removed.len(), 3);
        match &removed.threads[0][1] {
            GStmt::If { then_, .. } => assert!(then_.is_empty()),
            other => panic!("expected the If to survive, got {other:?}"),
        }
        assert!(g.remove_stmt(4).is_none());
    }

    #[test]
    fn shrink_reaches_a_minimal_failing_program() {
        // Synthetic failure: "contains a release write AND an acquire read".
        let fails = |g: &GProg| {
            fn scan(stmts: &[GStmt], rel: &mut bool, acq: &mut bool) {
                for s in stmts {
                    match s {
                        GStmt::Write { rel: true, .. } => *rel = true,
                        GStmt::Read { acq: true, .. } => *acq = true,
                        GStmt::If { then_, else_, .. } => {
                            scan(then_, rel, acq);
                            scan(else_, rel, acq);
                        }
                        GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => {
                            scan(body, rel, acq)
                        }
                        _ => {}
                    }
                }
            }
            let (mut rel, mut acq) = (false, false);
            for t in &g.threads {
                scan(t, &mut rel, &mut acq);
            }
            rel && acq
        };
        // Find a seed whose program fails the predicate.
        let opts = GenOptions::default();
        let g = (0..200)
            .map(|s| generate(s, &opts))
            .find(|g| fails(g))
            .expect("some generated program has both annotations");
        let small = shrink(&g, fails);
        assert!(fails(&small));
        assert_eq!(
            small.len(),
            2,
            "minimal witness is exactly one release write + one acquire read: {small:?}"
        );
    }

    #[test]
    fn loop_bodies_never_mix_arithmetic_with_cas_poisoned_registers() {
        // Regression: the 500-program fuzz sweep generated a loop body
        // whose arithmetic read a register a later body statement CASed
        // into — well-typed on iteration 1, boolean on iteration 2. The
        // generator's repair pass must leave no such body behind.
        fn check_body(stmts: &[GStmt]) {
            let mut banned = Vec::new();
            fn cas_targets(stmts: &[GStmt], out: &mut Vec<u16>) {
                for s in stmts {
                    match s {
                        GStmt::Cas { reg, .. } => out.push(*reg),
                        GStmt::If { then_, else_, .. } => {
                            cas_targets(then_, out);
                            cas_targets(else_, out);
                        }
                        GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => {
                            cas_targets(body, out)
                        }
                        _ => {}
                    }
                }
            }
            cas_targets(stmts, &mut banned);
            fn assert_clean(stmts: &[GStmt], banned: &[u16]) {
                for s in stmts {
                    match s {
                        GStmt::Assign { rhs: GRhs::AddConst(src, _), .. } => assert!(
                            !banned.contains(src),
                            "loop body mixes arithmetic over r{src} with a CAS into it"
                        ),
                        GStmt::If { then_, else_, .. } => {
                            assert_clean(then_, banned);
                            assert_clean(else_, banned);
                        }
                        GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => {
                            assert_clean(body, banned)
                        }
                        _ => {}
                    }
                }
            }
            assert_clean(stmts, &banned);
        }
        fn walk(stmts: &[GStmt]) {
            for s in stmts {
                match s {
                    GStmt::If { then_, else_, .. } => {
                        walk(then_);
                        walk(else_);
                    }
                    GStmt::While { body, .. } | GStmt::DoUntil { body, .. } => {
                        check_body(body);
                        walk(body);
                    }
                    _ => {}
                }
            }
        }
        let opts = GenOptions::default();
        for seed in 0..400 {
            for t in &generate(seed, &opts).threads {
                walk(t);
            }
        }
    }

    #[test]
    fn printed_source_parses_back_to_an_equivalent_program() {
        use std::collections::BTreeSet;
        let opts = GenOptions::default();
        for seed in [1u64, 7, 23] {
            let g = generate(seed, &opts);
            let src = g.to_litmus_source("roundtrip", "", &BTreeSet::new());
            let parsed = rc11_lang::parse::parse_litmus(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert_eq!(parsed.prog.n_threads(), g.threads.len());
            assert_eq!(parsed.observe.len(), g.observe().len());
        }
    }
}
