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

use rc11_core::{CState, CanonPerms, Loc, OpId, Tid, Val};
use rc11_lang::cfg::{CfgProgram, Instr};
use rc11_lang::{Config, Exp, Reg, SymMaps};
use std::cmp::Ordering;

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
    /// canonical op positions, authorship lists), assigning the group's
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
    ///
    /// The keys are compared in place ([`SymmetrySpec::cmp_members`]), not
    /// built: only the returned permutation is allocated, and
    /// [`SymmetrySpec::choose_into`] avoids even that.
    pub fn choose(&self, cfg: &Config, perms: &CanonPerms) -> Option<Vec<u8>> {
        let mut sigma = Vec::new();
        self.choose_sigma(cfg, &perms.client, &perms.lib, &mut sigma);
        (!sigma.is_empty()).then_some(sigma)
    }

    /// [`SymmetrySpec::choose`] written into `perms.threads` (left empty
    /// for the identity), reusing its buffer: the walk's probes install
    /// the symmetry choice into one scratch [`CanonPerms`] without
    /// allocating.
    pub fn choose_into(&self, cfg: &Config, perms: &mut CanonPerms) {
        let CanonPerms { client, lib, threads } = perms;
        self.choose_sigma(cfg, client, lib, threads);
    }

    /// The canonical choice under the op permutations `client` and `lib`,
    /// written into `sigma` (cleared, and left empty for the identity).
    fn choose_sigma(&self, cfg: &Config, client: &[OpId], lib: &[OpId], sigma: &mut Vec<u8>) {
        sigma.clear();
        // Thread ids are `u8`, so any group fits.
        let mut buf = [0u8; 256];
        for g in &self.groups {
            let order = &mut buf[..g.len()];
            order.copy_from_slice(g);
            // Stable insertion sort: groups are small (the orbit cap bounds
            // them at 7 members).
            for i in 1..order.len() {
                let mut j = i;
                while j > 0 && self.cmp_members(cfg, client, lib, order[j - 1], order[j]).is_gt() {
                    order.swap(j - 1, j);
                    j -= 1;
                }
            }
            for (&dest, &old_t) in g.iter().zip(order.iter()) {
                if dest != old_t {
                    if sigma.is_empty() {
                        sigma.extend((0..self.n_threads).map(|t| t as u8));
                    }
                    sigma[old_t as usize] = dest;
                }
            }
        }
    }

    /// Compare the sort keys of group members `a` and `b` at `cfg`, field
    /// by field and without materialising them: pc, register file in
    /// representative numbering, client then library thread view remapped
    /// through the op permutations `cperm`/`lperm`, client then library
    /// authorship list. The order is exactly the derived order of the
    /// test-only `ThreadKey`.
    fn cmp_members(&self, cfg: &Config, cperm: &[OpId], lperm: &[OpId], a: u8, b: u8) -> Ordering {
        let regs = |t: u8| {
            let file = cfg.locals(t as usize);
            self.maps.from_rep[t as usize].iter().map(move |&r| file[r as usize])
        };
        let (client, lib) = (cfg.mem.client(), cfg.mem.lib());
        let (ta, tb) = (Tid(a), Tid(b));
        cfg.pc(a as usize)
            .cmp(&cfg.pc(b as usize))
            .then_with(|| regs(a).cmp(regs(b)))
            .then_with(|| {
                let view = |t| client.tview(t).remapped(cperm);
                view(ta).cmp(view(tb))
            })
            .then_with(|| {
                let view = |t| lib.tview(t).remapped(lperm);
                view(ta).cmp(view(tb))
            })
            .then_with(|| authorship(client, cperm, ta).cmp(authorship(client, cperm, tb)))
            .then_with(|| authorship(lib, lperm, ta).cmp(authorship(lib, lperm, tb)))
    }

    /// The materialised sort key of group member `t` at `cfg` — the
    /// specification [`SymmetrySpec::cmp_members`] is tested against.
    #[cfg(test)]
    fn thread_key(&self, cfg: &Config, perms: &CanonPerms, t: u8) -> ThreadKey {
        let ti = t as usize;
        let file = cfg.locals(ti);
        let from_rep = &self.maps.from_rep[ti];
        let locals_rep: Vec<Val> = from_rep.iter().map(|&r| file[r as usize]).collect();
        let remap_view = |view: rc11_core::View<'_>, perm: &[rc11_core::OpId]| -> Vec<u32> {
            view.as_slice().iter().map(|e| perm[e.idx()].0).collect()
        };
        let tid = Tid(t);
        let client = cfg.mem.client();
        let lib = cfg.mem.lib();
        ThreadKey {
            pc: cfg.pc(ti),
            locals_rep,
            client_view: remap_view(client.tview(tid), &perms.client),
            lib_view: remap_view(lib.tview(tid), &perms.lib),
            client_auth: authorship(client, &perms.client, tid).map(|w| w.0).collect(),
            lib_auth: authorship(lib, &perms.lib, tid).map(|w| w.0).collect(),
        }
    }

    /// [`SymmetrySpec::choose`] by sorting materialised [`ThreadKey`]s —
    /// the allocating formulation, kept as its specification.
    #[cfg(test)]
    fn choose_by_keys(&self, cfg: &Config, perms: &CanonPerms) -> Option<Vec<u8>> {
        let mut sigma: Vec<u8> = (0..self.n_threads).map(|t| t as u8).collect();
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

    /// All group permutations (full `sigma` vectors over every thread),
    /// identity included — the orbit expansion set, in the order of
    /// [`SymmetrySpec::group_perms_flat`].
    pub fn group_perms(&self) -> Vec<Vec<u8>> {
        self.group_perms_flat().chunks_exact(self.n_threads).map(<[u8]>::to_vec).collect()
    }

    /// [`SymmetrySpec::group_perms`] back to back, `n_threads` bytes per
    /// permutation, in one buffer. The identity comes first; the first
    /// group's arrangement varies slowest, and each group's members run
    /// through their arrangements in lexicographic order. Bounded by the
    /// detection-time orbit cap.
    pub fn group_perms_flat(&self) -> Vec<u8> {
        let n = self.n_threads;
        let mut out: Vec<u8> = (0..n).map(|t| t as u8).collect();
        for g in &self.groups {
            let mut next = Vec::with_capacity(out.len() * orbit_of(std::slice::from_ref(g)));
            let mut arr = g.clone();
            for base in out.chunks_exact(n) {
                // `g` is sorted, so it is the first arrangement.
                arr.copy_from_slice(g);
                loop {
                    let at = next.len();
                    next.extend_from_slice(base);
                    for (&m, &to) in g.iter().zip(&arr) {
                        next[at + m as usize] = to;
                    }
                    if !next_arrangement(&mut arr) {
                        break;
                    }
                }
            }
            out = next;
        }
        out
    }
}

/// Step `items` to its next arrangement in lexicographic order, or return
/// `false` (leaving it as is) when it is the last.
fn next_arrangement(items: &mut [u8]) -> bool {
    let Some(i) = items.windows(2).rposition(|w| w[0] < w[1]) else { return false };
    let j = items.iter().rposition(|&x| x > items[i]).expect("items[i + 1] is larger");
    items.swap(i, j);
    items[i + 1..].reverse();
    true
}

/// The permutation-invariant per-thread sort key (see
/// [`SymmetrySpec::choose`]), materialised: the specification of the
/// in-place comparison.
#[cfg(test)]
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
fn authorship<'a>(st: &'a CState, perm: &'a [OpId], tid: Tid) -> impl Iterator<Item = OpId> + 'a {
    (0..st.n_locs()).flat_map(move |li| {
        st.mo(Loc(li as u16))[1..]
            .iter()
            .filter(move |&&w| st.op(w).tid == tid)
            .map(move |&w| perm[w.idx()])
    })
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

    /// The group's permutations come in a fixed order — the identity
    /// first, the first group varying slowest, each group's arrangements
    /// lexicographic — which orbit expansion, and so the order of
    /// reported terminal states, follows.
    #[test]
    fn group_permutations_come_in_a_fixed_order() {
        let spec = SymmetrySpec {
            groups: vec![vec![0, 3], vec![1, 2, 4]],
            maps: SymMaps::identity(&[0; 5]),
            n_threads: 5,
            capped: None,
        };
        let rows: Vec<[u8; 5]> = vec![
            [0, 1, 2, 3, 4],
            [0, 1, 4, 3, 2],
            [0, 2, 1, 3, 4],
            [0, 2, 4, 3, 1],
            [0, 4, 1, 3, 2],
            [0, 4, 2, 3, 1],
            [3, 1, 2, 0, 4],
            [3, 1, 4, 0, 2],
            [3, 2, 1, 0, 4],
            [3, 2, 4, 0, 1],
            [3, 4, 1, 0, 2],
            [3, 4, 2, 0, 1],
        ];
        let expected: Vec<Vec<u8>> = rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(spec.group_perms(), expected);
        assert_eq!(spec.group_perms_flat(), expected.concat());
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

    /// The in-place comparison picks exactly the permutation that sorting
    /// materialised `ThreadKey`s picks, on every reachable state of three
    /// fully symmetric programs: `sym_inc3` (client variables only), a
    /// three-thread counter client (library views and authorship), and one
    /// that uses both components.
    #[test]
    fn in_place_choice_matches_the_thread_key_sort() {
        use std::collections::HashSet;
        let inc3 = compiled(include_str!("../../../corpus/sym_inc3.litmus"));
        let counter3 = compiled(
            r#"
            litmus "ctr3"
            counter c
            thread A { a = c.inc(); a = c.inc(); }
            thread B { b = c.inc(); b = c.inc(); }
            thread C { d = c.inc(); d = c.inc(); }
            observe A.a B.b C.d
            expected { (0,0,0) }
        "#,
        );
        let mixed3 = compiled(
            r#"
            litmus "mixed3"
            var x = 0
            counter c
            thread A { c.inc(); x = 1; a = x; }
            thread B { c.inc(); x = 1; b = x; }
            thread C { c.inc(); x = 1; d = x; }
            observe A.a B.b C.d
            expected { (1,1,1) }
        "#,
        );
        for prog in [inc3, counter3, mixed3] {
            let spec = thread_symmetry(&prog);
            assert_eq!(spec.groups(), &[vec![0, 1, 2]]);
            let mut seen = HashSet::new();
            let mut frontier = vec![Config::initial(&prog)];
            let (mut states, mut moved) = (0, 0);
            while let Some(cfg) = frontier.pop() {
                let perms = cfg.mem.canonical_perms();
                let sigma = spec.choose(&cfg, &perms);
                assert_eq!(sigma, spec.choose_by_keys(&cfg, &perms), "at {cfg:?}");
                states += 1;
                moved += sigma.is_some() as usize;
                let succs = rc11_lang::successors(
                    &prog,
                    &rc11_objects::AbstractObjects,
                    &cfg,
                    Default::default(),
                );
                for (_, succ) in succs {
                    if seen.insert(succ.canonical()) {
                        frontier.push(succ);
                    }
                }
            }
            assert!(states > 50 && moved > 0, "{states} states, {moved} non-identity choices");
        }
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
        let perms = init.mem.canonical_perms();
        assert!(spec.choose(&init, &perms).is_none());

        // Every orbit member of any reachable state canonicalises (with the
        // chosen permutation installed) to the same form.
        let succs = rc11_lang::successors(&prog, &rc11_lang::NoObjects, &init, Default::default());
        for (_, s) in &succs {
            let canon_of = |c: &Config| {
                let mut perms = c.mem.canonical_perms();
                spec.choose_into(c, &mut perms);
                let mut words = Vec::new();
                c.encode_canonical(&perms, Some(spec.maps()), &mut words);
                Config::decode(&words)
            };
            let mirror = s.permute_threads(&[1, 0], spec.maps());
            assert_eq!(canon_of(s), canon_of(&mirror), "orbit members must coincide");
        }
    }
}
