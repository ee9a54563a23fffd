//! Thread-symmetry detection and the sorted-orbit canonical choice.
//!
//! Two threads are *symmetric* when their compiled instruction streams are
//! identical modulo a consistent renaming of registers (and, implicitly, of
//! the thread id itself). Swapping two symmetric threads in any reachable
//! configuration yields another reachable configuration with the same
//! future behaviour up to the same swap — a program automorphism — so an
//! explorer may identify configurations that differ only by such a swap.
//! On fully symmetric programs this sheds up to `N!` redundancy that
//! partial-order reduction cannot see (POR prunes *transitions*; symmetry
//! identifies *states*). DESIGN.md ablation A6 states the full soundness
//! argument.
//!
//! Detection ([`thread_symmetry`]) partitions threads into groups with
//! equal register-renumbered instruction streams, equal label/region maps
//! and compatible register initialisation; the canonical choice
//! ([`SymmetrySpec::choose`]) picks, per configuration, the permutation
//! that sorts each group's members by a permutation-invariant per-thread
//! key, so every orbit member maps to the same representative.

use rc11_core::{CanonPerms, Loc, Tid, Val};
use rc11_lang::cfg::{CfgProgram, Instr};
use rc11_lang::{Config, Exp, Reg, SymMaps};

/// Orbit-size cap: groups whose combined orbit (product of factorials)
/// exceeds this are not worth the per-state canonical-choice and orbit
/// expansion cost; detection returns a trivial spec instead.
pub const ORBIT_CAP: usize = 10_000;

/// The thread-symmetry structure of one compiled program.
#[derive(Debug, Clone)]
pub struct SymmetrySpec {
    /// Symmetric groups: thread indices, each sorted ascending, size ≥ 2.
    groups: Vec<Vec<u8>>,
    /// Per-thread register renaming maps into representative numbering.
    maps: SymMaps,
    n_threads: usize,
    /// When detection found groups whose combined orbit exceeds
    /// [`ORBIT_CAP`], the spec degrades to trivial and this records the
    /// abandoned orbit size so callers can surface the downgrade.
    capped: Option<usize>,
}

/// Collect the registers an instruction mentions, in a fixed left-to-right
/// order (destination first) — the order that defines first-use register
/// renumbering.
fn instr_regs(i: &Instr, out: &mut Vec<Reg>) {
    match i {
        Instr::Assign(r, e) => {
            out.push(*r);
            e.regs(out);
        }
        Instr::Write { exp, .. } => exp.regs(out),
        Instr::Read { reg, .. } => out.push(*reg),
        Instr::Cas { reg, expect, new, .. } => {
            out.push(*reg);
            expect.regs(out);
            new.regs(out);
        }
        Instr::Fai { reg, .. } => out.push(*reg),
        Instr::Method { reg, arg, .. } => {
            if let Some(r) = reg {
                out.push(*r);
            }
            if let Some(a) = arg {
                a.regs(out);
            }
        }
        Instr::JmpUnless { cond, .. } => cond.regs(out),
        Instr::Jmp(_) | Instr::Halt => {}
    }
}

/// Rewrite every register mention in an expression through `m`.
fn map_exp(e: &Exp, m: &[u16]) -> Exp {
    match e {
        Exp::Val(v) => Exp::Val(*v),
        Exp::Reg(r) => Exp::Reg(Reg(m[r.idx()])),
        Exp::Un(op, a) => Exp::Un(*op, Box::new(map_exp(a, m))),
        Exp::Bin(op, a, b) => Exp::Bin(*op, Box::new(map_exp(a, m)), Box::new(map_exp(b, m))),
    }
}

/// Rewrite every register mention in an instruction through `m`.
fn map_instr(i: &Instr, m: &[u16]) -> Instr {
    let mr = |r: &Reg| Reg(m[r.idx()]);
    match i {
        Instr::Assign(r, e) => Instr::Assign(mr(r), map_exp(e, m)),
        Instr::Write { var, exp, rel } => {
            Instr::Write { var: *var, exp: map_exp(exp, m), rel: *rel }
        }
        Instr::Read { reg, var, acq } => Instr::Read { reg: mr(reg), var: *var, acq: *acq },
        Instr::Cas { reg, var, expect, new } => Instr::Cas {
            reg: mr(reg),
            var: *var,
            expect: map_exp(expect, m),
            new: map_exp(new, m),
        },
        Instr::Fai { reg, var } => Instr::Fai { reg: mr(reg), var: *var },
        Instr::Method { reg, obj, method, arg, sync } => Instr::Method {
            reg: reg.as_ref().map(mr),
            obj: *obj,
            method: *method,
            arg: arg.as_ref().map(|a| map_exp(a, m)),
            sync: *sync,
        },
        Instr::Jmp(t) => Instr::Jmp(*t),
        Instr::JmpUnless { cond, target } => {
            Instr::JmpUnless { cond: map_exp(cond, m), target: *target }
        }
        Instr::Halt => Instr::Halt,
    }
}

/// First-use renumbering of one thread's registers over its instruction
/// stream: registers get representative indices in order of first mention;
/// never-mentioned registers follow in index order. Returns `to_rep`
/// (`to_rep[r] = representative index`).
fn first_use_numbering(instrs: &[Instr], n_regs: u16) -> Vec<u16> {
    let mut to_rep = vec![u16::MAX; n_regs as usize];
    let mut next = 0u16;
    let mut buf = Vec::new();
    for i in instrs {
        buf.clear();
        instr_regs(i, &mut buf);
        for r in &buf {
            if to_rep[r.idx()] == u16::MAX {
                to_rep[r.idx()] = next;
                next += 1;
            }
        }
    }
    for slot in to_rep.iter_mut() {
        if *slot == u16::MAX {
            *slot = next;
            next += 1;
        }
    }
    to_rep
}

/// Detect the thread-symmetry groups of `prog`.
///
/// Threads land in the same group iff their instruction streams are equal
/// after first-use register renumbering, their label and region maps are
/// equal, they have the same register count, and their register
/// initialisation vectors agree position-wise *in representative
/// numbering* (so the renaming is an initialisation-preserving bijection).
/// Groups of size 1 are dropped; if the combined orbit size exceeds an
/// internal cap the whole spec degrades to trivial.
pub fn thread_symmetry(prog: &CfgProgram) -> SymmetrySpec {
    let n = prog.n_threads();
    let mut to_rep: Vec<Vec<u16>> = Vec::with_capacity(n);
    let mut keys: Vec<(Vec<Instr>, Vec<Val>)> = Vec::with_capacity(n);
    for (t, th) in prog.threads.iter().enumerate() {
        let def = &prog.source.threads[t];
        let map = first_use_numbering(&th.instrs, def.n_regs);
        let stream: Vec<Instr> = th.instrs.iter().map(|i| map_instr(i, &map)).collect();
        // Initial register values in representative order.
        let mut inits = vec![Val::Bot; def.n_regs as usize];
        for (r, &rep) in map.iter().enumerate() {
            inits[rep as usize] = def.reg_inits[r];
        }
        keys.push((stream, inits));
        to_rep.push(map);
    }

    // Group threads with equal keys (streams + rep-ordered inits + labels +
    // regions). Quadratic in thread count, which is tiny.
    let mut groups: Vec<Vec<u8>> = Vec::new();
    let mut grouped = vec![false; n];
    for t in 0..n {
        if grouped[t] {
            continue;
        }
        let mut g = vec![t as u8];
        for u in t + 1..n {
            if grouped[u]
                || keys[t] != keys[u]
                || prog.threads[t].labels != prog.threads[u].labels
                || prog.threads[t].region != prog.threads[u].region
            {
                continue;
            }
            grouped[u] = true;
            g.push(u as u8);
        }
        if g.len() >= 2 {
            for &m in &g {
                grouped[m as usize] = true;
            }
            groups.push(g);
        }
    }

    let orbit = orbit_of(&groups);
    let capped = (orbit > ORBIT_CAP).then_some(orbit);
    if capped.is_some() {
        groups.clear();
    }

    // Threads outside every group keep identity maps — cheaper than the
    // first-use renumbering round-trip and observably identical.
    let in_group: Vec<bool> = {
        let mut v = vec![false; n];
        for g in &groups {
            for &m in g {
                v[m as usize] = true;
            }
        }
        v
    };
    let to_rep: Vec<Vec<u16>> = to_rep
        .into_iter()
        .enumerate()
        .map(|(t, m)| {
            if in_group[t] {
                m
            } else {
                (0..prog.source.threads[t].n_regs).collect()
            }
        })
        .collect();
    let from_rep: Vec<Vec<u16>> = to_rep
        .iter()
        .map(|m| {
            let mut inv = vec![0u16; m.len()];
            for (r, &rep) in m.iter().enumerate() {
                inv[rep as usize] = r as u16;
            }
            inv
        })
        .collect();

    SymmetrySpec { groups, maps: SymMaps { to_rep, from_rep }, n_threads: n, capped }
}

/// The orbit size of `groups`: the product of `|group|!`, saturating at
/// `usize::MAX` (64 symmetric threads overflow any fixed-width count, and
/// any saturated orbit is past [`ORBIT_CAP`]).
fn orbit_of(groups: &[Vec<u8>]) -> usize {
    groups.iter().flat_map(|g| 2..=g.len()).fold(1usize, |a, k| a.saturating_mul(k))
}

impl SymmetrySpec {
    /// True iff no symmetry group was detected (or detection was disabled
    /// by the orbit cap) — canonical choice is then always the identity.
    pub fn is_trivial(&self) -> bool {
        self.groups.is_empty()
    }

    /// The detected groups: sorted thread indices, each of size ≥ 2.
    pub fn groups(&self) -> &[Vec<u8>] {
        &self.groups
    }

    /// The per-thread register renaming maps.
    pub fn maps(&self) -> &SymMaps {
        &self.maps
    }

    /// Number of threads in the analysed program.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// The orbit size: product over groups of `|group|!`.
    pub fn orbit_size(&self) -> usize {
        orbit_of(&self.groups)
    }

    /// When detection hit [`ORBIT_CAP`] and degraded to the trivial spec,
    /// the orbit size it gave up on; `None` for genuine (or genuinely
    /// trivial) specs. Engines surface this as a structured report note.
    pub fn capped_orbit(&self) -> Option<usize> {
        self.capped
    }

    /// The canonical group permutation for `cfg`: sorts each group's
    /// members by a permutation-invariant per-thread key (pc, register
    /// file in representative numbering, thread views remapped to
    /// canonical op positions, authorship sets), assigning the group's
    /// thread ids ascending in key order. Returns `None` when the choice
    /// is the identity (the overwhelmingly common case).
    ///
    /// Key invariance makes the choice orbit-constant: applying any group
    /// permutation to `cfg` permutes the members' keys without changing
    /// them (op permutations depend only on per-location modification
    /// orders, which thread renaming leaves untouched), so every orbit
    /// member sorts to the same representative. Members with *equal* keys
    /// are fully interchangeable (equal keys imply empty authorship and
    /// identical control/view content), so the stable sort's tie order is
    /// immaterial — and an index tiebreak would *break* invariance.
    pub fn choose(&self, cfg: &Config, perms: &CanonPerms) -> Option<Vec<u8>> {
        if self.groups.is_empty() {
            return None;
        }
        let mut sigma: Vec<u8> = (0..self.n_threads as u8).collect();
        let mut changed = false;
        for g in &self.groups {
            let mut keyed: Vec<(ThreadKey, u8)> =
                g.iter().map(|&t| (self.thread_key(cfg, perms, t), t)).collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            for (i, &(_, old_t)) in keyed.iter().enumerate() {
                let dest = g[i];
                sigma[old_t as usize] = dest;
                changed |= dest != old_t;
            }
        }
        changed.then_some(sigma)
    }

    /// The permutation-invariant sort key of group member `t` at `cfg`.
    fn thread_key(&self, cfg: &Config, perms: &CanonPerms, t: u8) -> ThreadKey {
        let ti = t as usize;
        let file = &cfg.locals[ti];
        let from_rep = &self.maps.from_rep[ti];
        let locals_rep: Vec<Val> =
            from_rep.iter().map(|&r| file[r as usize]).collect();
        let remap_view = |view: &rc11_core::View, perm: &[rc11_core::OpId]| -> Vec<u32> {
            view.as_slice().iter().map(|e| perm[e.idx()].0).collect()
        };
        let tid = Tid(t);
        let client = cfg.mem.client();
        let lib = cfg.mem.lib();
        ThreadKey {
            pc: cfg.pcs[ti],
            locals_rep,
            client_view: remap_view(client.tview(tid), &perms.client),
            lib_view: remap_view(lib.tview(tid), &perms.lib),
            client_auth: authorship(client, &perms.client, tid),
            lib_auth: authorship(lib, &perms.lib, tid),
        }
    }

    /// All group permutations (full `sigma` vectors over every thread),
    /// identity included — the orbit expansion set. Bounded by the
    /// detection-time orbit cap.
    pub fn group_perms(&self) -> Vec<Vec<u8>> {
        let identity: Vec<u8> = (0..self.n_threads as u8).collect();
        let mut out = vec![identity];
        for g in &self.groups {
            let perms_of_g = permutations(g);
            let mut next = Vec::with_capacity(out.len() * perms_of_g.len());
            for base in &out {
                for p in &perms_of_g {
                    let mut sigma = base.clone();
                    for (i, &m) in g.iter().enumerate() {
                        sigma[m as usize] = p[i];
                    }
                    next.push(sigma);
                }
            }
            out = next;
        }
        out
    }
}

/// The permutation-invariant per-thread sort key (see
/// [`SymmetrySpec::choose`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ThreadKey {
    pc: u32,
    locals_rep: Vec<Val>,
    client_view: Vec<u32>,
    lib_view: Vec<u32>,
    client_auth: Vec<u32>,
    lib_auth: Vec<u32>,
}

/// Canonical op positions of the non-initialisation operations authored by
/// `tid` in one component, in `(location, mo-position)` order. Init ops
/// (mo-position 0 everywhere) carry a dummy tid and are excluded.
fn authorship(st: &rc11_core::CState, perm: &[rc11_core::OpId], tid: Tid) -> Vec<u32> {
    let mut out = Vec::new();
    for li in 0..st.n_locs() {
        for (pos, &w) in st.mo(Loc(li as u16)).iter().enumerate() {
            if pos > 0 && st.op(w).tid == tid {
                out.push(perm[w.idx()].0);
            }
        }
    }
    out
}

/// All permutations of `items` (each returned as a reordering of the input
/// slice), in a deterministic order.
fn permutations(items: &[u8]) -> Vec<Vec<u8>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_core::Comp;
    use rc11_lang::ast::Com;
    use rc11_lang::cfg::compile;
    use rc11_lang::parse_litmus;
    use rc11_lang::program::Program;

    fn compiled(src: &str) -> CfgProgram {
        compile(&parse_litmus(src).unwrap().prog)
    }

    #[test]
    fn identical_threads_group_together() {
        let prog = compiled(
            r#"
            litmus "sym"
            var x = 0
            thread A { r = fai(x); }
            thread B { s = fai(x); }
            thread C { t = fai(x); }
            observe A.r B.s C.t
            expected { (0,1,2) (0,2,1) (1,0,2) (1,2,0) (2,0,1) (2,1,0) }
        "#,
        );
        let spec = thread_symmetry(&prog);
        assert_eq!(spec.groups(), &[vec![0, 1, 2]]);
        assert_eq!(spec.orbit_size(), 6);
        assert_eq!(spec.group_perms().len(), 6);
    }

    #[test]
    fn register_renaming_is_modded_out() {
        // Same streams with differently-ordered register introductions.
        let prog = compiled(
            r#"
            litmus "ren"
            var x = 0
            thread A { a1 = 1; a2 = a1 + 1; x = a2; }
            thread B { b9 = 1; b3 = b9 + 1; x = b3; }
            observe A.a1 B.b9
            expected { (1,1) }
        "#,
        );
        let spec = thread_symmetry(&prog);
        assert_eq!(spec.groups(), &[vec![0, 1]]);
    }

    #[test]
    fn asymmetric_threads_stay_apart() {
        let prog = compiled(
            r#"
            litmus "asym"
            var x = 0
            var y = 0
            thread A { x = 1; }
            thread B { y = 1; }
            thread C { r = x; }
            observe C.r
            expected { (0) (1) }
        "#,
        );
        let spec = thread_symmetry(&prog);
        assert!(spec.is_trivial(), "different locations must not be symmetric: {spec:?}");
    }

    #[test]
    fn release_annotation_breaks_symmetry() {
        use rc11_core::{InitLoc, LocKind, LocTable};
        use rc11_lang::ast::{Exp, VarRef};
        use rc11_lang::program::ThreadDef;
        let mut locs = LocTable::new();
        locs.add("x", LocKind::Var);
        let var = VarRef { comp: Comp::Client, loc: Loc(0) };
        let mk = |rel: bool| ThreadDef {
            body: Com::Write { var, exp: Exp::Val(Val::Int(1)), rel },
            n_regs: 0,
            reg_names: vec![],
            reg_inits: vec![],
        };
        let prog = Program {
            name: "ann".into(),
            client_locs: locs,
            client_inits: vec![InitLoc::Var(Val::Int(0))],
            lib_locs: LocTable::new(),
            lib_inits: vec![],
            objects: vec![],
            threads: vec![mk(false), mk(true)],
        };
        prog.validate().unwrap();
        let spec = thread_symmetry(&compile(&prog));
        assert!(spec.is_trivial());
    }

    #[test]
    fn differing_reg_inits_break_symmetry() {
        use rc11_core::{InitLoc, LocKind, LocTable};
        use rc11_lang::ast::{Exp, VarRef};
        use rc11_lang::program::ThreadDef;
        let mut locs = LocTable::new();
        locs.add("x", LocKind::Var);
        let var = VarRef { comp: Comp::Client, loc: Loc(0) };
        let mk = |init: i64| ThreadDef {
            body: Com::Write { var, exp: Exp::Reg(Reg(0)), rel: false },
            n_regs: 1,
            reg_names: vec!["r0".into()],
            reg_inits: vec![Val::Int(init)],
        };
        let prog = Program {
            name: "inits".into(),
            client_locs: locs,
            client_inits: vec![InitLoc::Var(Val::Int(0))],
            lib_locs: LocTable::new(),
            lib_inits: vec![],
            objects: vec![],
            threads: vec![mk(1), mk(2)],
        };
        prog.validate().unwrap();
        let spec = thread_symmetry(&compile(&prog));
        assert!(spec.is_trivial());
    }

    #[test]
    fn choice_identifies_the_initial_orbit() {
        let prog = compiled(
            r#"
            litmus "orbit"
            var x = 0
            thread A { r = fai(x); }
            thread B { s = fai(x); }
            observe A.r B.s
            expected { (0,1) (1,0) }
        "#,
        );
        let spec = thread_symmetry(&prog);
        let init = Config::initial(&prog);
        // Initial state: all keys equal, the choice is the identity.
        let perms = init.canonical_perms();
        assert!(spec.choose(&init, &perms).is_none());

        // Every orbit member of any reachable state canonicalises (with the
        // chosen permutation installed) to the same form.
        let succs = rc11_lang::successors(&prog, &rc11_lang::NoObjects, &init, Default::default());
        for (_, s) in &succs {
            let canon_of = |c: &Config| {
                let mut perms = c.canonical_perms();
                perms.threads = spec.choose(c, &perms);
                c.canonical_sym(&perms, spec.maps())
            };
            let mirror = s.permute_threads(&[1, 0], spec.maps());
            assert_eq!(canon_of(s), canon_of(&mirror), "orbit members must coincide");
        }
    }
}
