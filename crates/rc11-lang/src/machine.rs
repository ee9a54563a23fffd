//! Configurations and successor enumeration over compiled programs.
//!
//! A configuration is the tuple `(P, ρ, γ, β)` of Section 3.2 with the
//! program component flattened to per-thread pcs. `successors` enumerates
//! every `=⇒` step: for each thread, the program semantics proposes an
//! action and the memory semantics (rc11-core) constrains/fans out the
//! possible next states. Abstract method calls are delegated through
//! [`ObjectSemantics`] (implemented by rc11-objects), keeping this crate's
//! dependency surface to the memory substrate only.

use crate::ast::{Method, Reg};
use crate::cfg::{CfgProgram, Instr};
use crate::program::ObjKind;
use rc11_core::canon::{encode_val, hash_words, invert_tperm, WordReader};
use rc11_core::{AccessKind, CState, CanonPerms, Combined, Comp, Loc, StepFootprint, Tid, Val};
use std::cell::RefCell;

/// Execution semantics of abstract objects (Section 4), supplied by the
/// objects crate. Given the call description and current memory, returns
/// every possible `(return value, successor memory)` pair. An empty vector
/// means the call is *blocked* (e.g. `Acquire` on a held lock).
pub trait ObjectSemantics {
    /// Enumerate the possible outcomes of one abstract method call.
    #[allow(clippy::too_many_arguments)]
    fn method_steps(
        &self,
        mem: &Combined,
        tid: Tid,
        obj: Loc,
        kind: ObjKind,
        method: Method,
        arg: Option<Val>,
        sync: bool,
    ) -> Vec<(Val, Combined)>;
}

/// Object semantics for programs without abstract objects: every method
/// call is a program error.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObjects;

impl ObjectSemantics for NoObjects {
    fn method_steps(
        &self,
        _mem: &Combined,
        _tid: Tid,
        _obj: Loc,
        _kind: ObjKind,
        _method: Method,
        _arg: Option<Val>,
        _sync: bool,
    ) -> Vec<(Val, Combined)> {
        panic!("method call executed under NoObjects semantics")
    }
}

/// Per-thread register renaming maps between each thread's own register
/// numbering and the *representative* numbering of its thread-symmetry
/// group (first-use order of the group's representative member). Threads
/// outside any symmetry group carry identity maps. Produced by the
/// detection pass in `rc11-analyze`; consumed by the canonical encoding
/// under a thread permutation ([`Config::encode_canonical`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymMaps {
    /// `to_rep[t][r]` — the representative-numbering index of thread `t`'s
    /// register `r`.
    pub to_rep: Vec<Vec<u16>>,
    /// `from_rep[t][k]` — the register of thread `t` that plays
    /// representative index `k` (the inverse of `to_rep[t]`).
    pub from_rep: Vec<Vec<u16>>,
}

impl SymMaps {
    /// Identity maps for a program whose threads have the given register
    /// counts.
    pub fn identity(n_regs: &[u16]) -> SymMaps {
        let id: Vec<Vec<u16>> = n_regs.iter().map(|&n| (0..n).collect()).collect();
        SymMaps { to_rep: id.clone(), from_rep: id }
    }
}

/// A machine configuration: per-thread pcs, per-thread register files and
/// the combined memory state.
///
/// Layout: the control state lives in two flat buffers, read and written
/// through accessors — `ctl` holds the `n` per-thread pcs followed by the
/// `n + 1` offsets that delimit each thread's register file in `regs`,
/// and `regs` holds every register file, thread by thread. With the two
/// buffers of each component state (see [`rc11_core::CState`]), a
/// configuration owns six heap buffers, whatever its thread, register,
/// location or operation count, and cloning it makes six allocations;
/// `clone_from` reuses all six ([`SuccessorPool`]).
#[derive(PartialEq, Eq, Hash)]
pub struct Config {
    /// Pcs, then register-file offsets into `regs`.
    ctl: Vec<u32>,
    /// Every thread's register file (`ρ`), thread by thread.
    regs: Vec<Val>,
    /// The combined client–library memory state.
    pub mem: Combined,
}

impl Clone for Config {
    fn clone(&self) -> Config {
        Config { ctl: self.ctl.clone(), regs: self.regs.clone(), mem: self.mem.clone() }
    }

    /// Buffer by buffer: a configuration that has grown to the source's
    /// size is refilled without allocating.
    fn clone_from(&mut self, src: &Config) {
        self.ctl.clone_from(&src.ctl);
        self.regs.clone_from(&src.regs);
        self.mem.clone_from(&src.mem);
    }
}

impl std::fmt::Debug for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let locals: Vec<&[Val]> = (0..self.n_threads()).map(|t| self.locals(t)).collect();
        f.debug_struct("Config")
            .field("pcs", &self.pcs())
            .field("locals", &locals)
            .field("mem", &self.mem)
            .finish()
    }
}

impl Config {
    /// A configuration from its parts: per-thread pcs, per-thread register
    /// files (one per pc) and memory.
    pub fn from_parts(pcs: &[u32], locals: &[Vec<Val>], mem: Combined) -> Config {
        assert_eq!(pcs.len(), locals.len(), "one register file per thread");
        let mut ctl = Vec::with_capacity(2 * pcs.len() + 1);
        ctl.extend_from_slice(pcs);
        let mut end = 0u32;
        ctl.push(0);
        for file in locals {
            end += file.len() as u32;
            ctl.push(end);
        }
        Config { ctl, regs: locals.concat(), mem }
    }

    /// The initial configuration of a compiled program.
    pub fn initial(prog: &CfgProgram) -> Config {
        let src = &prog.source;
        Config::from_parts(
            &vec![0; prog.n_threads()],
            &src.initial_locals(),
            Combined::new(&src.client_inits, &src.lib_inits, prog.n_threads()),
        )
    }

    /// This configuration's control state with `mem` as its memory — how
    /// a step builds its successor.
    #[must_use]
    pub fn with_mem(&self, mem: Combined) -> Config {
        Config { ctl: self.ctl.clone(), regs: self.regs.clone(), mem }
    }

    /// Number of threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.ctl.len() / 2
    }

    /// Per-thread program counters.
    #[inline]
    pub fn pcs(&self) -> &[u32] {
        &self.ctl[..self.n_threads()]
    }

    /// Thread `t`'s program counter.
    #[inline]
    pub fn pc(&self, t: usize) -> u32 {
        self.ctl[t]
    }

    /// Move thread `t` to `pc`.
    #[inline]
    pub fn set_pc(&mut self, t: usize, pc: u32) {
        self.ctl[t] = pc;
    }

    /// Thread `t`'s register file (`ρ_t`).
    #[inline]
    pub fn locals(&self, t: usize) -> &[Val] {
        let at = self.n_threads() + t;
        &self.regs[self.ctl[at] as usize..self.ctl[at + 1] as usize]
    }

    /// Every thread's register file, materialised (diagnostics and tests).
    pub fn register_files(&self) -> Vec<Vec<Val>> {
        (0..self.n_threads()).map(|t| self.locals(t).to_vec()).collect()
    }

    /// Register value of thread `t`.
    pub fn reg(&self, t: usize, r: Reg) -> Val {
        self.locals(t)[r.idx()]
    }

    /// Set thread `t`'s register `r` to `v`.
    #[inline]
    pub fn set_reg(&mut self, t: usize, r: Reg, v: Val) {
        let at = self.ctl[self.n_threads() + t] as usize + r.idx();
        self.regs[at] = v;
    }

    /// Approximate heap footprint of this configuration in bytes (its six
    /// buffers and the struct holding them).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Config>()
            + self.ctl.len() * size_of::<u32>()
            + self.regs.len() * size_of::<Val>()
            + self.mem.approx_bytes()
    }

    /// The [`Config::approx_bytes`] of [`Config::initial`]'s configuration,
    /// computed without building it: its memory has a modification-view
    /// row per location as wide as the location count.
    pub fn initial_bytes(prog: &CfgProgram) -> usize {
        use std::mem::size_of;
        let src = &prog.source;
        let n = prog.n_threads();
        let regs: usize = src.threads.iter().map(|t| t.n_regs as usize).sum();
        let (client, lib) = (src.client_inits.len(), src.lib_inits.len());
        size_of::<Config>()
            + (2 * n + 1) * size_of::<u32>()
            + regs * size_of::<Val>()
            + CState::init_bytes(client, n, lib)
            + CState::init_bytes(lib, n, client)
    }

    /// Canonical form for visited-state deduplication, materialised:
    /// memory canonicalised ([`Combined::canonical`]), pcs/locals as-is
    /// (they are already canonical). The reference the encoding is tested
    /// against.
    #[must_use]
    pub fn canonical(&self) -> Config {
        self.with_mem(self.mem.canonical())
    }

    /// Append the canonical encoding of this configuration to `out`: the
    /// control state — thread count, pcs, then each register file's length
    /// and values — then the memory ([`Combined::encode_canonical`], whose
    /// canonical permutations `perms` must hold). With a thread
    /// permutation σ in `perms.threads` these are the words of
    /// `self.permute_threads(σ, maps).canonical()` (`None` maps read as the
    /// identity): slot `j` holds thread `σ⁻¹(j)`'s pc and register file in
    /// slot `j`'s numbering, meaningful only within symmetry groups.
    pub fn encode_canonical(&self, perms: &CanonPerms, maps: Option<&SymMaps>, out: &mut Vec<u32>) {
        let n = self.n_threads();
        let inv = perms.threads().map(invert_tperm);
        let slot = |j: usize| inv.as_ref().map_or(j, |inv| inv[j] as usize);
        out.reserve(1 + 2 * n + 3 * self.regs.len());
        out.push(n as u32);
        out.extend((0..n).map(|j| self.pc(slot(j))));
        for j in 0..n {
            let t = slot(j);
            let file = self.locals(t);
            out.push(file.len() as u32);
            match maps {
                Some(maps) if t != j => {
                    debug_assert_eq!(maps.to_rep[j].len(), file.len(), "asymmetric threads");
                    for &k in &maps.to_rep[j] {
                        encode_val(file[maps.from_rep[t][k as usize] as usize], out);
                    }
                }
                _ => file.iter().for_each(|&v| encode_val(v, out)),
            }
        }
        self.mem.encode_canonical(perms, out);
    }

    /// The configuration encoded in `words` (the inverse of
    /// [`Config::encode_canonical`]).
    #[must_use]
    pub fn decode(words: &[u32]) -> Config {
        let mem = Combined::new(&[], &[], 1);
        let mut cfg = Config { ctl: Vec::new(), regs: Vec::new(), mem };
        cfg.decode_into(words);
        cfg
    }

    /// [`Config::decode`] into this configuration, reusing its buffers:
    /// once they have grown to the largest configuration decoded, nothing
    /// allocates.
    pub fn decode_into(&mut self, words: &[u32]) {
        let mut r = WordReader::new(words);
        let n = r.word() as usize;
        self.ctl.clear();
        self.ctl.reserve(2 * n + 1);
        self.ctl.extend_from_slice(r.take(n));
        self.ctl.push(0);
        self.regs.clear();
        for _ in 0..n {
            let len = r.word();
            self.regs.extend((0..len).map(|_| r.val()));
            self.ctl.push(self.regs.len() as u32);
        }
        self.mem.decode_into(&mut r);
        debug_assert!(r.is_done(), "words left after the memory");
    }

    /// This configuration's canonical encoding, written into `words`
    /// through the scratch `perms`.
    fn encode_into(&self, perms: &mut CanonPerms, words: &mut Vec<u32>) {
        self.mem.canonical_perms_into(perms);
        words.clear();
        self.encode_canonical(perms, None, words);
    }

    /// Feed this configuration's canonical encoding into `h`
    /// ([`rc11_core::canon::hash_words`], the walk's fingerprint input):
    /// configurations with equal canonical forms hash equal.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, h: &mut H) {
        SCRATCH.with_borrow_mut(|(perms, words, _)| {
            self.encode_into(perms, words);
            hash_words(words, h);
        })
    }

    /// True iff `self.canonical() == *canon` for a canonical `canon`,
    /// decided on the two encodings.
    #[must_use]
    pub fn canonical_eq(&self, canon: &Config) -> bool {
        SCRATCH.with_borrow_mut(|(perms, mine, theirs)| {
            self.encode_into(perms, mine);
            canon.encode_into(perms, theirs);
            mine == theirs
        })
    }

    /// Rebuild this configuration with threads permuted by
    /// `sigma[old] = new` ([`Config::permuted_into`] on a copy). When
    /// `sigma` is a program automorphism the result is a reachable
    /// configuration with the same future behaviour up to the same
    /// permutation.
    #[must_use]
    pub fn permute_threads(&self, sigma: &[u8], maps: &SymMaps) -> Config {
        let mut out = self.clone();
        self.permuted_into(sigma, maps, &mut out);
        out
    }

    /// Overwrite `out` with this configuration's threads permuted by
    /// `sigma[old] = new`, reusing its buffers: slot `j` takes thread
    /// `σ⁻¹(j)`'s pc and register file in slot `j`'s numbering (through
    /// [`SymMaps`], meaningful only within symmetry groups, as in
    /// [`Config::encode_canonical`]), and the memory is
    /// [`rc11_core::Combined::permuted_into`]. Op ids are untouched, so a
    /// canonical configuration permutes to a canonical one: this is how an
    /// orbit member of an interned representative is built.
    pub fn permuted_into(&self, sigma: &[u8], maps: &SymMaps, out: &mut Config) {
        let inv = invert_tperm(sigma);
        let n = self.n_threads();
        out.ctl.clear();
        out.ctl.extend((0..n).map(|j| self.pc(inv[j] as usize)));
        out.ctl.push(0);
        out.regs.clear();
        for (&t, to_rep) in inv.iter().zip(&maps.to_rep) {
            let (file, from_rep) = (self.locals(t as usize), &maps.from_rep[t as usize]);
            out.regs.extend(to_rep.iter().map(|&k| file[from_rep[k as usize] as usize]));
            out.ctl.push(out.regs.len() as u32);
        }
        self.mem.permuted_into(sigma, &mut out.mem);
    }

    /// True iff every thread is at `Halt`.
    pub fn terminated(&self, prog: &CfgProgram) -> bool {
        self.pcs()
            .iter()
            .enumerate()
            .all(|(t, &pc)| matches!(prog.threads[t].instrs[pc as usize], Instr::Halt))
    }
}

thread_local! {
    /// Scratch permutations and encodings for [`Config::hash_canonical`]
    /// and [`Config::canonical_eq`], so they allocate nothing once grown.
    static SCRATCH: RefCell<(CanonPerms, Vec<u32>, Vec<u32>)> = RefCell::default();
}

/// Step-generation options.
#[derive(Debug, Clone, Copy)]
pub struct StepOptions {
    /// Fuse runs of *local* instructions (assignments, jumps) into the
    /// preceding step, stopping at labels, shared accesses and `Halt`.
    /// Sound for reachability of label/shared points (local steps commute
    /// with every other thread's steps); disable for instruction-granular
    /// Owicki–Gries interference checking.
    pub fuse_local: bool,
}

impl Default for StepOptions {
    fn default() -> Self {
        StepOptions { fuse_local: true }
    }
}

/// Execute one local instruction of thread `t` (an assignment or a jump)
/// at its current pc; returns `false`, changing nothing, at a shared
/// instruction or `Halt`.
fn local_step(prog: &CfgProgram, cfg: &mut Config, t: usize) -> bool {
    let pc = cfg.pc(t);
    match &prog.threads[t].instrs[pc as usize] {
        Instr::Assign(r, e) => {
            let v = e.eval(cfg.locals(t)).expect("well-typed program");
            cfg.set_reg(t, *r, v);
            cfg.set_pc(t, pc + 1);
        }
        Instr::Jmp(target) => cfg.set_pc(t, *target),
        Instr::JmpUnless { cond, target } => {
            let b = cond
                .eval(cfg.locals(t))
                .expect("well-typed program")
                .truthy()
                .expect("boolean guard");
            cfg.set_pc(t, if b { pc + 1 } else { *target });
        }
        _ => return false,
    }
    true
}

/// Execute local instructions of thread `t` starting at its current pc until
/// a fusion barrier: a shared instruction, `Halt`, or a labelled pc (after
/// at least one instruction has executed). Mutates `cfg` in place.
fn run_local_chain(prog: &CfgProgram, cfg: &mut Config, t: usize, mut budget: u32) {
    let th = &prog.threads[t];
    loop {
        let pc = cfg.pc(t);
        if !local_step(prog, cfg, t) {
            return; // shared instruction or Halt: barrier
        }
        // Barrier at labelled pcs so proof-outline points are never skipped.
        if th.label_at(cfg.pc(t)).is_some() && th.label_at(pc) != th.label_at(cfg.pc(t)) {
            return;
        }
        budget -= 1;
        assert!(budget > 0, "thread {t}: local-instruction loop without shared access");
    }
}

/// The footprint of thread `t`'s next step at `cfg` — the input of the
/// partial-order-reduction independence oracle
/// ([`rc11_core::StepFootprint::may_conflict`]).
///
/// The footprint summarises **every** successor the thread can produce
/// from here, because sleep-set pruning skips threads wholesale: a `Cas`
/// fans out into failure reads and success updates, so it reports the
/// write-capable [`AccessKind::Update`]; a leading local instruction (and
/// the whole fused chain behind it — fusion barriers stop *before* the
/// next shared access) touches nothing shared and reports a local
/// footprint, as does a halted thread. The shared access an instruction
/// performs is static — its location and component are fixed in the
/// instruction — so the footprint depends only on `cfg.pc(t)` **except**
/// for two state-dependent refinements. First, a `Cas` none of whose
/// uncovered observable predecessors carries the expected value can only
/// *fail*, i.e. only relaxed-read, and is footprinted as a read. Second,
/// a `pop`/`deq` on an object with no uncovered insert can only return
/// `Empty`, which performs no operation at all (the object semantics
/// return the memory unchanged), so it too is footprinted as a read —
/// empty-spinning ADT retry loops commute the same way CAS spin loops
/// do. Both refinements are as persistent as the rest (the property
/// sleep sets need): a step independent of a read of `x` touches neither
/// `x`'s history nor the reader's views, so the success-impossible /
/// still-empty verdict survives it — while any step that could create a
/// matching uncovered operation writes `x` and conflicts with the read
/// footprint anyway.
///
/// When the state already determines *which* operation a step covers —
/// a CAS with exactly one matching uncovered predecessor, an FAI with
/// one uncovered predecessor, or an ADT removal (the stack's top / the
/// queue's front are global properties of the state) — the footprint
/// records that identity in [`rc11_core::Access::covers`]. The conflict
/// oracle stays covers-blind (two removals covering different inserts
/// still race on `mo`); the identities feed A7's DPOR trace battery.
pub fn thread_footprint(prog: &CfgProgram, cfg: &Config, t: usize) -> StepFootprint {
    let tid = Tid(t as u8);
    match &prog.threads[t].instrs[cfg.pc(t) as usize] {
        Instr::Halt | Instr::Assign(..) | Instr::Jmp(_) | Instr::JmpUnless { .. } => {
            StepFootprint::local(tid)
        }
        Instr::Write { var, rel, .. } => {
            StepFootprint::access(tid, var.comp, var.loc, AccessKind::Write { rel: *rel })
        }
        Instr::Read { var, acq, .. } => {
            StepFootprint::access(tid, var.comp, var.loc, AccessKind::Read { acq: *acq })
        }
        Instr::Cas { var, expect, .. } => {
            let u = expect.eval(cfg.locals(t)).expect("well-typed program");
            let st = cfg.mem.comp(var.comp);
            let mut preds = st.obs_uncovered(tid, var.loc).filter(|&w| st.op(w).act.wrval() == u);
            let (first, more) = (preds.next(), preds.next().is_some());
            let kind = if first.is_some() {
                AccessKind::Update
            } else {
                // A spinning CAS that can only fail is a relaxed read
                // (Figure 4's failure case) — it commutes with other
                // read-only steps on the location, which is where lock
                // spin loops win their reduction.
                AccessKind::Read { acq: false }
            };
            // With exactly one matching uncovered predecessor, the success
            // branch's cover is already determined by this state.
            let covers = first.filter(|_| !more);
            StepFootprint::access_covering(tid, var.comp, var.loc, kind, covers)
        }
        Instr::Fai { var, .. } => {
            let mut preds = cfg.mem.comp(var.comp).obs_uncovered(tid, var.loc);
            let (first, more) = (preds.next(), preds.next().is_some());
            let covers = first.filter(|_| !more);
            StepFootprint::access_covering(tid, var.comp, var.loc, AccessKind::Update, covers)
        }
        Instr::Method { obj, method, sync, .. } => {
            // State-dependent refinements mirroring the CAS one above: an
            // ADT removal (pop/deq) covers a *state-determined* insert —
            // the stack's global top or the queue's front — and, on an
            // empty object, performs no operation at all. An empty pop/deq
            // is literally state-preserving (see rc11-objects:
            // `pop_steps`/`deq_steps` return the memory unchanged), so it
            // is footprinted as a relaxed read: it commutes with other
            // read-only steps on the object, which is where empty-spinning
            // ADT clients win their reduction. The verdict is as
            // persistent as the CAS one: only a new uncovered Push/Enq can
            // make the object non-empty, and inserting one is a Method
            // write on this location — a conflict with the read footprint.
            let removal_target = |is_match: fn(&rc11_core::MethodOp) -> bool,
                                  newest_first: bool| {
                let lib = cfg.mem.lib();
                let mut uncovered = lib
                    .mo(obj.loc)
                    .iter()
                    .copied()
                    .filter(|&w| !lib.is_covered(w))
                    .filter(|&w| lib.op(w).act.method().as_ref().is_some_and(is_match));
                if newest_first {
                    uncovered.next_back()
                } else {
                    uncovered.next()
                }
            };
            let (kind, covers) = match method {
                // The abstract register's read never modifies the object
                // history — it is a Figure-5 read over method operations.
                Method::RegRead => (AccessKind::Read { acq: *sync }, None),
                Method::Pop => match removal_target(
                    |m| matches!(m, rc11_core::MethodOp::Push { .. }),
                    true,
                ) {
                    Some(top) => (AccessKind::Method { sync: *sync }, Some(top)),
                    None => (AccessKind::Read { acq: false }, None),
                },
                Method::Deq => match removal_target(
                    |m| matches!(m, rc11_core::MethodOp::Enq { .. }),
                    false,
                ) {
                    Some(front) => (AccessKind::Method { sync: *sync }, Some(front)),
                    None => (AccessKind::Read { acq: false }, None),
                },
                _ => (AccessKind::Method { sync: *sync }, None),
            };
            // Objects always live in the library component (`ObjRef`).
            StepFootprint::access_covering(tid, rc11_core::Comp::Lib, obj.loc, kind, covers)
        }
    }
}

/// A reusable pool of successor configurations: it derefs to the current
/// successors, and keeps spare configurations behind them for their
/// buffers. A successor is written into the
/// next slot by a field-wise `clone_from` of its parent and an in-place
/// step, so once every slot has grown to the states it holds, generating
/// a successor allocates nothing. A new slot is a copy of the parent
/// made with room for the operation its step inserts
/// ([`rc11_core::Combined::with_room`]), so even a cold pool makes one
/// allocation per buffer and successor.
#[derive(Default)]
pub struct SuccessorPool {
    cfgs: Vec<Config>,
    len: usize,
}

impl std::ops::Deref for SuccessorPool {
    type Target = [Config];

    fn deref(&self) -> &[Config] {
        &self.cfgs[..self.len]
    }
}

impl SuccessorPool {
    /// Forget the current successors, keeping every slot's buffers.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The current successors, moved out (the pool keeps none of their
    /// buffers): how the allocating wrappers hand them over.
    pub fn take(&mut self) -> Vec<Config> {
        let taken = self.cfgs.drain(..self.len).collect();
        self.len = 0;
        taken
    }

    /// The next slot, holding a copy of `parent` — made with room for one
    /// more operation of component `room` when the slot is new.
    fn push_copy(&mut self, parent: &Config, room: Option<Comp>) -> &mut Config {
        if self.len == self.cfgs.len() {
            let mem = room.map_or_else(|| parent.mem.clone(), |c| parent.mem.with_room(c));
            self.cfgs.push(parent.with_mem(mem));
        } else {
            self.cfgs[self.len].clone_from(parent);
        }
        self.len += 1;
        &mut self.cfgs[self.len - 1]
    }

    /// The next slot, holding `parent`'s control state and `mem`.
    fn push_with_mem(&mut self, parent: &Config, mem: Combined) -> &mut Config {
        if self.len == self.cfgs.len() {
            self.cfgs.push(parent.with_mem(mem));
        } else {
            let slot = &mut self.cfgs[self.len];
            slot.ctl.clone_from(&parent.ctl);
            slot.regs.clone_from(&parent.regs);
            slot.mem = mem;
        }
        self.len += 1;
        &mut self.cfgs[self.len - 1]
    }
}

/// All successor configurations of `cfg` by a step of thread `t`. An
/// empty result means `t` is blocked or halted.
pub fn thread_successors(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    cfg: &Config,
    t: usize,
    opts: StepOptions,
) -> Vec<Config> {
    let mut pool = SuccessorPool::default();
    thread_successors_into(prog, objs, cfg, t, opts, &mut pool);
    pool.take()
}

/// [`thread_successors`] written into `pool` (whose previous successors
/// it forgets), in the same order: each successor is a pool slot refilled
/// from `cfg` and stepped in place (see [`SuccessorPool`]), so a walk
/// expanding many configurations through one pool stops allocating once
/// the pool has grown.
pub fn thread_successors_into(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    cfg: &Config,
    t: usize,
    opts: StepOptions,
    pool: &mut SuccessorPool,
) {
    let th = &prog.threads[t];
    let tid = Tid(t as u8);
    let pc = cfg.pc(t);
    let instr = &th.instrs[pc as usize];
    let ls = cfg.locals(t);
    pool.clear();

    // Finish a successor: set the destination register, advance the pc,
    // run the fused local chain behind the step.
    let finish = |c: &mut Config, reg: Option<Reg>, val: Val| {
        if let Some(r) = reg {
            c.set_reg(t, r, val);
        }
        c.set_pc(t, pc + 1);
        if opts.fuse_local {
            run_local_chain(prog, c, t, 100_000);
        }
    };

    match instr {
        Instr::Halt => {}
        // A leading local instruction: one deterministic (fused) step.
        Instr::Assign(..) | Instr::Jmp(_) | Instr::JmpUnless { .. } => {
            let c = pool.push_copy(cfg, None);
            if opts.fuse_local {
                run_local_chain(prog, c, t, 100_000);
            } else {
                local_step(prog, c, t);
            }
        }
        Instr::Write { var, exp, rel } => {
            let v = exp.eval(ls).expect("well-typed program");
            for w in cfg.mem.comp(var.comp).obs_uncovered(tid, var.loc) {
                let c = pool.push_copy(cfg, Some(var.comp));
                c.mem.step_write(var.comp, tid, var.loc, v, *rel, w);
                finish(c, None, v);
            }
        }
        Instr::Read { reg, var, acq } => {
            let st = cfg.mem.comp(var.comp);
            for &from in st.obs(tid, var.loc) {
                let c = pool.push_copy(cfg, None);
                c.mem.step_read(var.comp, tid, var.loc, *acq, from);
                finish(c, Some(*reg), st.op(from).act.wrval());
            }
        }
        Instr::Cas { reg, var, expect, new } => {
            let u = expect.eval(ls).expect("well-typed program");
            let v = new.eval(ls).expect("well-typed program");
            let st = cfg.mem.comp(var.comp);
            // Failure: a plain relaxed read of any value ≠ u (Figure 4).
            for &from in st.obs(tid, var.loc) {
                if st.op(from).act.wrval() == u {
                    continue;
                }
                let c = pool.push_copy(cfg, None);
                c.mem.step_read(var.comp, tid, var.loc, false, from);
                finish(c, Some(*reg), Val::Bool(false));
            }
            // Success: an RA update of an uncovered observable op with value u.
            for w in st.obs_uncovered(tid, var.loc).filter(|&w| st.op(w).act.wrval() == u) {
                let c = pool.push_copy(cfg, Some(var.comp));
                c.mem.step_update(var.comp, tid, var.loc, v, w);
                finish(c, Some(*reg), Val::Bool(true));
            }
        }
        Instr::Fai { reg, var } => {
            for w in cfg.mem.comp(var.comp).obs_uncovered(tid, var.loc) {
                let old = cfg.mem.wrval_of(var.comp, w);
                let old_n = old.as_int().expect("FAI over integer variable");
                let c = pool.push_copy(cfg, Some(var.comp));
                c.mem.step_update(var.comp, tid, var.loc, Val::Int(old_n + 1), w);
                finish(c, Some(*reg), old);
            }
        }
        Instr::Method { reg, obj, method, arg, sync } => {
            let kind = prog
                .source
                .obj_kind(obj.loc)
                .expect("method call on a location without an object kind");
            let argv = arg.as_ref().map(|e| e.eval(ls).expect("well-typed program"));
            for (ret, mem) in objs.method_steps(&cfg.mem, tid, obj.loc, kind, *method, argv, *sync)
            {
                finish(pool.push_with_mem(cfg, mem), *reg, ret);
            }
        }
    }
}

/// All successors of `cfg` across all threads, tagged with the moving
/// thread.
pub fn successors(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    cfg: &Config,
    opts: StepOptions,
) -> Vec<(Tid, Config)> {
    let (mut out, mut pool) = (Vec::new(), SuccessorPool::default());
    for t in 0..prog.n_threads() {
        thread_successors_into(prog, objs, cfg, t, opts, &mut pool);
        out.extend(pool.take().into_iter().map(|c| (Tid(t as u8), c)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Com, Exp, VarRef};
    use crate::cfg::compile;
    use crate::program::{Program, ThreadDef};
    use rc11_core::{Comp, InitLoc, LocKind, LocTable};

    fn x() -> VarRef {
        VarRef { comp: Comp::Client, loc: Loc(0) }
    }

    fn mk_prog(threads: Vec<(Com, u16)>) -> CfgProgram {
        let mut locs = LocTable::new();
        locs.add("x", LocKind::Var);
        let prog = Program {
            name: "test".into(),
            client_locs: locs,
            client_inits: vec![InitLoc::Var(Val::Int(0))],
            lib_locs: LocTable::new(),
            lib_inits: vec![],
            objects: vec![],
            threads: threads
                .into_iter()
                .map(|(body, n_regs)| ThreadDef {
                    body,
                    n_regs,
                    reg_names: (0..n_regs).map(|i| format!("r{i}")).collect(),
                    reg_inits: vec![Val::Bot; n_regs as usize],
                })
                .collect(),
        };
        prog.validate().unwrap();
        compile(&prog)
    }

    /// Exhaustive exploration helper (tiny BFS used only by these tests).
    fn reachable_terminals(prog: &CfgProgram, opts: StepOptions) -> Vec<Config> {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        let mut frontier = vec![Config::initial(prog)];
        let mut terminals = Vec::new();
        seen.insert(frontier[0].canonical());
        while let Some(c) = frontier.pop() {
            let succs = successors(prog, &NoObjects, &c, opts);
            if succs.is_empty() {
                terminals.push(c);
                continue;
            }
            for (_, s) in succs {
                if seen.insert(s.canonical()) {
                    frontier.push(s);
                }
            }
        }
        terminals
    }

    /// `initial_bytes` predicts the initial configuration's footprint
    /// exactly, and every reachable configuration decodes from its
    /// encoding to its canonical form, into fresh or reused buffers.
    #[test]
    fn initial_bytes_and_encoding_round_trip() {
        let t1 = Com::Write { var: x(), exp: Exp::Val(Val::Int(-7)), rel: true }
            .then(Com::Read { reg: Reg(1), var: x(), acq: true });
        let (expect, new) = (Exp::Val(Val::Int(0)), Exp::Val(Val::Int(1)));
        let t2 = Com::Cas { reg: Reg(0), var: x(), expect, new };
        let prog = mk_prog(vec![(t1, 2), (t2, 1)]);
        let init = Config::initial(&prog);
        assert_eq!(Config::initial_bytes(&prog), init.approx_bytes());
        let mut scratch = init.clone();
        let mut states = 0;
        let mut frontier = vec![init];
        let mut seen = std::collections::HashSet::new();
        while let Some(c) = frontier.pop() {
            let mut words = Vec::new();
            c.encode_into(&mut CanonPerms::default(), &mut words);
            assert_eq!(Config::decode(&words), c.canonical());
            scratch.decode_into(&words);
            assert_eq!(scratch, c.canonical());
            assert!(c.canonical_eq(&c.canonical()));
            states += 1;
            for (_, s) in successors(&prog, &NoObjects, &c, StepOptions::default()) {
                if seen.insert(s.canonical()) {
                    frontier.push(s);
                }
            }
        }
        assert!(states > 5, "{states} states");
    }

    #[test]
    fn single_thread_write_read() {
        let body = Com::Write { var: x(), exp: Exp::Val(Val::Int(7)), rel: false }
            .then(Com::Read { reg: Reg(0), var: x(), acq: false });
        let prog = mk_prog(vec![(body, 1)]);
        let terms = reachable_terminals(&prog, StepOptions::default());
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].reg(0, Reg(0)), Val::Int(7));
    }

    #[test]
    fn cas_success_and_failure_both_explored() {
        // Two threads CAS x: 0 -> 1; exactly one succeeds per execution.
        let cas = |reg| Com::Cas {
            reg,
            var: x(),
            expect: Exp::Val(Val::Int(0)),
            new: Exp::Val(Val::Int(1)),
        };
        let prog = mk_prog(vec![(cas(Reg(0)), 1), (cas(Reg(0)), 1)]);
        let terms = reachable_terminals(&prog, StepOptions::default());
        assert!(!terms.is_empty());
        for t in &terms {
            let a = t.reg(0, Reg(0));
            let b = t.reg(1, Reg(0));
            assert!(
                a == Val::Bool(true) && b == Val::Bool(false)
                    || a == Val::Bool(false) && b == Val::Bool(true)
                    // both can succeed if the second CASes the first's update? No:
                    // value is then 1 ≠ 0, so no. Both-false impossible: last one
                    // sees 0 if first failed... first can only fail by reading 1,
                    // impossible before any success. So exactly one true.
                    ,
                "exactly one CAS must win, got {a:?}, {b:?}"
            );
        }
    }

    #[test]
    fn fai_returns_old_values_in_any_order() {
        let fai = |reg| Com::Fai { reg, var: x() };
        let prog = mk_prog(vec![(fai(Reg(0)), 1), (fai(Reg(0)), 1)]);
        let terms = reachable_terminals(&prog, StepOptions::default());
        for t in &terms {
            let mut got = vec![t.reg(0, Reg(0)), t.reg(1, Reg(0))];
            got.sort();
            assert_eq!(got, vec![Val::Int(0), Val::Int(1)], "FAI hands out 0 and 1");
        }
    }

    #[test]
    fn loop_until_terminates_via_state_revisit() {
        // T1: do r ← x until r = 1;   T2: x := 1.
        let t1 = Com::DoUntil {
            body: Box::new(Com::Read { reg: Reg(0), var: x(), acq: false }),
            cond: Exp::Bin(BinOp::Eq, Box::new(Exp::Reg(Reg(0))), Box::new(Exp::Val(Val::Int(1)))),
        };
        let t2 = Com::Write { var: x(), exp: Exp::Val(Val::Int(1)), rel: false };
        let prog = mk_prog(vec![(t1, 1), (t2, 0)]);
        let terms = reachable_terminals(&prog, StepOptions::default());
        assert!(!terms.is_empty());
        for t in &terms {
            assert_eq!(t.reg(0, Reg(0)), Val::Int(1));
        }
    }

    #[test]
    fn fusion_and_no_fusion_reach_same_terminals() {
        let t1 = Com::Assign(Reg(0), Exp::Val(Val::Int(3)))
            .then(Com::Write { var: x(), exp: Exp::Reg(Reg(0)), rel: false })
            .then(Com::Assign(Reg(1), Exp::Bin(
                BinOp::Add,
                Box::new(Exp::Reg(Reg(0))),
                Box::new(Exp::Val(Val::Int(1))),
            )));
        let t2 = Com::Read { reg: Reg(0), var: x(), acq: false };
        let prog = mk_prog(vec![(t1, 2), (t2, 1)]);
        let summarise = |terms: Vec<Config>| {
            let mut v: Vec<(Vec<Val>, Vec<Val>)> =
                terms.into_iter().map(|c| (c.locals(0).to_vec(), c.locals(1).to_vec())).collect();
            v.sort();
            v.dedup();
            v
        };
        let fused = summarise(reachable_terminals(&prog, StepOptions { fuse_local: true }));
        let plain = summarise(reachable_terminals(&prog, StepOptions { fuse_local: false }));
        assert_eq!(fused, plain);
    }
}
