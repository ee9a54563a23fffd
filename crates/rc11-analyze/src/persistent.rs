//! Pc-sensitive future footprints and per-state persistent sets (A7).
//!
//! [`conflict_matrix`](crate::conflict_matrix) answers "may these two
//! threads *ever* conflict?" over whole thread bodies. Persistent-set
//! search needs the sharper, state-indexed question: "may they still
//! conflict from *here on*?" — a thread that has left its critical
//! section, or halted, should stop inflating every other thread's
//! conflict closure. This module computes, per `(thread, pc)`, the
//! **future static footprint**: the union of the static accesses of every
//! instruction reachable from that pc in the thread's own control-flow
//! graph (a monotone fixpoint over instruction successors — `Jmp`,
//! `JmpUnless` fan out, `Halt` stops). Dynamic step footprints are always
//! contained in the future footprint at the step's pc (the CAS
//! failure-read and empty-`pop`/`deq` read refinements only *shrink*
//! access kinds), so future-footprint disjointness is a sound
//! independence guarantee for **every** step either thread can still
//! take.
//!
//! [`FutureFootprints::persistent_mask`] derives a persistent set from
//! the future footprints: starting from a seed thread, close under
//! "some member's future footprint conflicts with yours" among the
//! non-halted threads. Every thread outside the closure is then
//! independent of every member for the rest of the run — by Godefroid's
//! persistent-set theorem, expanding only the closure at a state still
//! reaches every terminal and deadlocked configuration. The engines pick
//! the *smallest* closure over all seeds (ties to the lowest thread
//! index), which is a pure function of the program counters — both
//! engines, and every arrival at a state, agree on the set without
//! coordination.
//!
//! Footprint masks are word-vector bitsets over the program's distinct
//! `(component, location)` pairs — one `u64` word per 64 locations, so
//! every program gets future footprints; thread counts beyond 64 are
//! handled by the engines' POR fallback.

use rc11_lang::ast::Method;
use rc11_lang::cfg::{CfgProgram, Instr};

/// Future static footprints of one compiled program, indexed by
/// `(thread, pc)`. Built once per exploration by [`future_footprints`].
#[derive(Debug, Clone)]
pub struct FutureFootprints {
    /// `u64` words per location bitset (at least one).
    words: usize,
    /// `touch[t][pc * words..][..words]`: bit `i` set iff location-index
    /// `i` may be touched by some instruction reachable from `pc` in
    /// thread `t`.
    touch: Vec<Vec<u64>>,
    /// Like `touch`, but only accesses that may modify the location's
    /// history.
    write: Vec<Vec<u64>>,
    /// Per-thread halt pc (a thread parked there has no future steps).
    halt: Vec<u32>,
}

/// The static access of one instruction: `(component, location, writes)`,
/// or `None` for purely local instructions.
fn access(i: &Instr) -> Option<(rc11_core::Comp, rc11_core::Loc, bool)> {
    match i {
        Instr::Write { var, .. } => Some((var.comp, var.loc, true)),
        Instr::Read { var, .. } => Some((var.comp, var.loc, false)),
        // Statically writes, whatever the dynamic refinement says.
        Instr::Cas { var, .. } | Instr::Fai { var, .. } => Some((var.comp, var.loc, true)),
        Instr::Method { obj, method, .. } => {
            Some((rc11_core::Comp::Lib, obj.loc, !matches!(method, Method::RegRead)))
        }
        Instr::Assign(..) | Instr::Jmp(_) | Instr::JmpUnless { .. } | Instr::Halt => None,
    }
}

/// Build the future static footprints of `prog`.
pub fn future_footprints(prog: &CfgProgram) -> FutureFootprints {
    // Index the program's distinct (component, location) pairs.
    let mut locs: Vec<(rc11_core::Comp, rc11_core::Loc)> = Vec::new();
    for th in &prog.threads {
        for (comp, loc, _) in th.instrs.iter().filter_map(access) {
            if !locs.contains(&(comp, loc)) {
                locs.push((comp, loc));
            }
        }
    }
    let words = locs.len().div_ceil(64).max(1);

    let mut touch: Vec<Vec<u64>> = Vec::with_capacity(prog.n_threads());
    let mut write: Vec<Vec<u64>> = Vec::with_capacity(prog.n_threads());
    let mut halt: Vec<u32> = Vec::with_capacity(prog.n_threads());
    for th in &prog.threads {
        let n = th.instrs.len();
        let mut t_masks = vec![0u64; n * words];
        let mut w_masks = vec![0u64; n * words];
        for (pc, instr) in th.instrs.iter().enumerate() {
            if let Some((comp, loc, writes)) = access(instr) {
                let i = locs.iter().position(|&p| p == (comp, loc)).expect("indexed above");
                t_masks[pc * words + i / 64] |= 1 << (i % 64);
                if writes {
                    w_masks[pc * words + i / 64] |= 1 << (i % 64);
                }
            }
        }
        // Monotone fixpoint over instruction successors; reverse pc order
        // converges in one pass for straight-line code and in a handful
        // of passes around loops.
        loop {
            let mut changed = false;
            for pc in (0..n).rev() {
                let succs: &[usize] = match &th.instrs[pc] {
                    Instr::Halt => &[],
                    Instr::Jmp(target) => &[*target as usize],
                    Instr::JmpUnless { target, .. } => &[pc + 1, *target as usize],
                    _ => &[pc + 1],
                };
                for &s in succs {
                    for w in 0..words {
                        let (tm, wm) = (t_masks[s * words + w], w_masks[s * words + w]);
                        let (t, wr) = (&mut t_masks[pc * words + w], &mut w_masks[pc * words + w]);
                        if tm & !*t != 0 || wm & !*wr != 0 {
                            *t |= tm;
                            *wr |= wm;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        touch.push(t_masks);
        write.push(w_masks);
        halt.push(th.halt_pc());
    }
    FutureFootprints { words, touch, write, halt }
}

impl FutureFootprints {
    /// May threads `t` at `pc_t` and `u` at `pc_u` still perform
    /// conflicting steps — i.e. do their future footprints share a
    /// location one side may write?
    pub fn conflicts(&self, t: usize, pc_t: u32, u: usize, pc_u: u32) -> bool {
        let w = self.words;
        let (a, b) = (pc_t as usize * w, pc_u as usize * w);
        let (tt, tw) = (&self.touch[t][a..a + w], &self.write[t][a..a + w]);
        let (ut, uw) = (&self.touch[u][b..b + w], &self.write[u][b..b + w]);
        (0..w).any(|i| (tt[i] & uw[i]) | (tw[i] & ut[i]) != 0)
    }

    /// Has thread `t` halted at `pcs`' program point?
    pub fn halted(&self, t: usize, pcs: &[u32]) -> bool {
        pcs[t] == self.halt[t]
    }

    /// A persistent set for the state with program counters `pcs`, as a
    /// thread bitmask: the smallest conflict closure over all non-halted
    /// seed threads (ties to the lowest seed index), or `0` when every
    /// thread has halted. Threads outside the returned mask cannot
    /// conflict with any member from here on, so expanding only the
    /// members still reaches every terminal and deadlock. Deterministic
    /// in `pcs` — every arrival at a state agrees.
    ///
    /// One pass: each live thread's conflict row (the live threads whose
    /// future footprints conflict with its own) is computed once, and
    /// every seed is then closed with mask operations — `O(n²)` conflict
    /// checks per call where re-evaluating them inside each seed's
    /// closure loop costs `O(n⁴)`. [`FutureFootprints::persistent_mask_spec`]
    /// keeps that formulation as the specification.
    ///
    /// A member may be *blocked* (a lock acquire with no matching
    /// release): persistence guarantees nothing unblocks it from
    /// outside, but the engines must still detect "every member blocked,
    /// some outsider enabled" and grow the expansion — see the retry
    /// rule in `rc11-check`'s explorers.
    pub fn persistent_mask(&self, pcs: &[u32]) -> u64 {
        let n = pcs.len().min(64);
        let live = (0..n).filter(|&t| !self.halted(t, pcs)).fold(0u64, |m, t| m | 1 << t);
        // `joins[m]`: the live threads that conflict with member `m`.
        let mut joins = [0u64; 64];
        let mut ms = live;
        while ms != 0 {
            let m = ms.trailing_zeros() as usize;
            ms &= ms - 1;
            let mut us = live & !(1u64 << m);
            while us != 0 {
                let u = us.trailing_zeros() as usize;
                us &= us - 1;
                if self.conflicts(u, pcs[u], m, pcs[m]) {
                    joins[m] |= 1u64 << u;
                }
            }
        }
        let mut best: u64 = 0;
        let mut seeds = live;
        while seeds != 0 {
            let seed = seeds.trailing_zeros() as usize;
            seeds &= seeds - 1;
            let mut p = 1u64 << seed;
            let mut todo = p;
            while todo != 0 {
                let m = todo.trailing_zeros() as usize;
                todo &= todo - 1;
                let new = joins[m] & !p;
                p |= new;
                todo |= new;
            }
            if best == 0 || p.count_ones() < best.count_ones() {
                best = p;
            }
            if best.count_ones() == 1 {
                break; // no closure beats a singleton; earliest seed wins
            }
        }
        best
    }

    /// [`FutureFootprints::persistent_mask`] as first formulated: grow
    /// each seed's closure by re-checking every candidate against every
    /// member until nothing joins. `O(n⁴)` conflict checks per call; kept
    /// as the specification the one-pass version is property-tested
    /// against (`tests/por_props.rs`), not for use on the walk.
    #[doc(hidden)]
    pub fn persistent_mask_spec(&self, pcs: &[u32]) -> u64 {
        let n = pcs.len().min(64);
        let mut best: u64 = 0;
        for seed in 0..n {
            if self.halted(seed, pcs) {
                continue;
            }
            let mut p = 1u64 << seed;
            loop {
                let mut grew = false;
                for u in 0..n {
                    if p & (1u64 << u) != 0 || self.halted(u, pcs) {
                        continue;
                    }
                    let conflict = (0..n)
                        .filter(|&m| p & (1u64 << m) != 0)
                        .any(|m| self.conflicts(u, pcs[u], m, pcs[m]));
                    if conflict {
                        p |= 1u64 << u;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            if best == 0 || p.count_ones() < best.count_ones() {
                best = p;
            }
            if best.count_ones() == 1 {
                break; // no closure beats a singleton; earliest seed wins
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_lang::cfg::compile;
    use rc11_lang::parse_litmus;

    fn fps(src: &str) -> (CfgProgram, FutureFootprints) {
        let prog = compile(&parse_litmus(src).unwrap().prog);
        let fps = future_footprints(&prog);
        (prog, fps)
    }

    /// Two independent writer/reader pairs: the persistent set at the
    /// initial state is one pair, never all four threads.
    #[test]
    fn disjoint_components_split() {
        let (prog, fps) = fps(
            r#"
            litmus "two-pairs"
            var x = 0
            var y = 0
            thread A { x = 1; }
            thread B { r = x; }
            thread C { y = 1; }
            thread D { s = y; }
            observe B.r D.s
            expected { (0,0) (0,1) (1,0) (1,1) }
        "#,
        );
        let pcs = vec![0u32; prog.n_threads()];
        let p = fps.persistent_mask(&pcs);
        assert_eq!(p, 0b0011, "closure of the x-pair, chosen over the y-pair tie");
        assert!(fps.conflicts(0, 0, 1, 0), "A's write meets B's read");
        assert!(!fps.conflicts(0, 0, 2, 0), "disjoint locations never conflict");
    }

    /// Future footprints are pc-sensitive: once a thread is past its last
    /// access of a location, it stops conflicting there.
    #[test]
    fn footprints_shrink_along_the_body() {
        let (prog, fps) = fps(
            r#"
            litmus "shrink"
            var x = 0
            var y = 0
            thread A { x = 1; y = 1; }
            thread B { r = y; }
            observe B.r
            expected { (0) (1) }
        "#,
        );
        // At pc 0, A still writes y eventually; at pc 1 only y; at halt,
        // nothing.
        assert!(fps.conflicts(0, 0, 1, 0));
        assert!(fps.conflicts(0, 1, 1, 0));
        let halt = prog.threads[0].halt_pc();
        assert!(fps.halted(0, &[halt, 0]));
        assert!(!fps.conflicts(0, halt, 1, 0), "a halted thread conflicts with nobody");
        // With A halted, the persistent set is B alone.
        assert_eq!(fps.persistent_mask(&[halt, 0]), 0b10);
    }

    /// Loops keep their body's accesses in the future footprint at every
    /// pc of the loop.
    #[test]
    fn loops_reach_fixpoint() {
        let (prog, fps) = fps(
            r#"
            litmus "spin"
            var f = 0
            thread A { f =rel 1; }
            thread B {
              r = 0;
              while (r != 1) { r = f; }
            }
            observe B.r
            expected { (1) }
        "#,
        );
        // Every pc of B's loop still reads f.
        let halt = prog.threads[1].halt_pc();
        for pc in 0..halt {
            assert!(fps.conflicts(1, pc, 0, 0), "B at pc {pc} still reads f");
        }
        assert_eq!(fps.persistent_mask(&[0, 0]), 0b11, "writer and spinner conflict");
    }

    /// A thread with only local work left is a singleton persistent set —
    /// the cheapest possible expansion.
    #[test]
    fn local_tail_is_a_singleton() {
        let (_prog, fps) = fps(
            r#"
            litmus "local-tail"
            var x = 0
            thread A { x = 1; }
            thread B { s = x; }
            thread C { r = 1; r = r + 1; }
            observe C.r
            expected { (2) }
        "#,
        );
        let p = fps.persistent_mask(&[0, 0, 0]);
        assert_eq!(p, 0b100, "C touches nothing shared: expand it alone");
    }

    /// Programs past 128 locations still get future footprints: the
    /// bitset grows a word per 64 locations, and conflicts on the last
    /// word are seen like any other.
    #[test]
    fn wide_programs_get_persistent_sets() {
        let vars: String = (0..130).map(|i| format!("var x{i} = 0\n")).collect();
        let writes: String = (0..130).map(|i| format!("x{i} = 1; ")).collect();
        let (_prog, fps) = fps(&format!(
            r#"
            litmus "wide"
            {vars}
            thread A {{ {writes} }}
            thread B {{ r = x129; }}
            thread C {{ s = 1; }}
            observe B.r C.s
            expected {{ (0,1) (1,1) }}
        "#
        ));
        assert!(fps.conflicts(0, 0, 1, 0), "A's write of x129 meets B's read");
        assert_eq!(fps.persistent_mask(&[0, 0, 0]), 0b100, "C alone: it touches nothing");
        assert_eq!(fps.persistent_mask(&[0, 0, 1]), 0b011, "then the x129 pair");
    }

    #[test]
    fn all_halted_is_empty() {
        let (prog, fps) = fps(
            r#"
            litmus "tiny"
            var x = 0
            thread A { x = 1; }
            thread B { r = x; }
            observe B.r
            expected { (0) (1) }
        "#,
        );
        let pcs: Vec<u32> = prog.threads.iter().map(|t| t.halt_pc()).collect();
        assert_eq!(fps.persistent_mask(&pcs), 0);
    }
}
