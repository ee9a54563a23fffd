//! Sleep-set partial-order reduction (ablation A5).
//!
//! The exploration walk enumerates, at every configuration, one step per
//! thread per nondeterministic choice. When two threads' next steps are
//! *independent* — [`rc11_core::StepFootprint::may_conflict`] returns
//! `false` — executing them in either order reaches the same canonical
//! configuration, so the classical search expands both orders only for one
//! of them to be deduplicated a step later. Sleep sets prune the redundant
//! order before its successors are ever generated.
//!
//! ## The algorithm
//!
//! Exploration work items carry two thread masks next to the configuration:
//! the **sleep set** `Z` the item arrived with, and the **mask** `M` of
//! threads to expand. Expanding an item processes the threads of `M` in
//! ascending order; the successor reached over an edge by thread `t`
//! inherits the sleep set
//!
//! ```text
//! Z' = { u ∈ Z ∪ { t' ∈ M : t' < t } : ¬may_conflict(fp(u), fp(t)) }
//! ```
//!
//! — threads already covered from the same configuration (earlier siblings
//! in `M`, ordered asymmetrically so two siblings never sleep each other)
//! or slept on arrival, kept only while their next step is provably
//! independent of the edge taken. Footprints are per-thread summaries of
//! the *next instruction* ([`rc11_lang::machine::thread_footprint`]), so
//! one footprint vector per expanded configuration suffices, and a slept
//! thread's footprint cannot change while it sleeps (the thread does not
//! move).
//!
//! ## Sleep sets and state dedup: the wake-up rule
//!
//! Skipping an already-visited successor is only sound if it was visited
//! with a sleep set **no larger** than the one the new edge would hand it
//! (a larger stored sleep means some thread was never expanded there).
//! Each interned state therefore stores the mask of threads expansion work
//! has been queued for (`explored`, the complement-union of every arriving
//! sleep set). A duplicate hit arriving with sleep `Z'` computes
//! `missing = ¬Z' ∖ explored`; if non-empty, the threads in `missing` are
//! *woken*: `explored` grows by `missing` and a partial re-expansion item
//! `(state, missing, Z')` is queued — Godefroid's classical state-matching
//! rule, with the stored sleep set represented by its complement. Woken
//! children inherit sleeps from the arriving `Z'` only (never from
//! siblings explored by earlier visits — inheriting those would let two
//! visits sleep each other's threads symmetrically and lose states).
//!
//! With this rule, sleep sets prune **transitions only, never states**:
//! every configuration reachable in the full graph is still interned, so
//! terminal sets, deadlock sets and violation sets are bit-identical to
//! the unreduced search, and only `transitions` shrinks. The differential
//! suites (`tests/engine_agreement.rs`, `tests/corpus.rs`,
//! `rc11_check::fuzz`'s POR lane) hold the walk to exactly that.
//!
//! ## Terminal classification under pruning
//!
//! A configuration with no successors must be classified terminated or
//! deadlocked exactly once. Under pruning, "the expanded threads produced
//! nothing" does not imply "no successors exist" — the slept threads might
//! have some (a *fully slept* configuration, every outgoing edge covered
//! by a commuted sibling elsewhere). First-visit expansions that come up
//! empty therefore probe the remaining threads' successors
//! ([`has_any_successor`]) and classify the state only if the full
//! fan-out is empty; wake-up re-expansions never classify. Probe
//! successors are discarded and **not** counted as transitions — a later
//! wake-up would re-generate and re-count them, breaking the
//! `reduced ≤ full` transition invariant the differentials assert.
//!
//! The outline checker does **not** run with POR: its Owicki–Gries
//! classification quantifies over *all* incoming edges of every state
//! (interference vs inherited is an edge property), and sleep sets prune
//! exactly edges. Its edge query runs at the unreduced level.

use crate::fxhash::FxHashMap;
use rc11_analyze::FutureFootprints;
use rc11_core::StepFootprint;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{
    thread_footprint, thread_successors_into, Config, ObjectSemantics, StepOptions, SuccessorPool,
};

/// A set of threads as a bitmask. Thread counts in this workspace are tiny
/// (the machine caps `Tid` at `u8`); 64 bits is a hard ceiling enforced at
/// mask construction.
pub(crate) type ThreadMask = u64;

/// The mask holding every thread of the program. Only the POR path calls
/// this — the unreduced search iterates threads by index — so the 64-bit
/// ceiling constrains reduced exploration only.
#[inline]
pub(crate) fn full_mask(n_threads: usize) -> ThreadMask {
    assert!(
        n_threads <= 64,
        "partial-order reduction caps programs at 64 threads \
         (explore with `por: false` for more)"
    );
    if n_threads == 64 {
        !0
    } else {
        (1u64 << n_threads) - 1
    }
}

/// Per-thread footprints of every thread's next step at `cfg` — the
/// eagerly-extracted oracle [`child_sleep`] quantifies over. The walk
/// runs [`child_sleep_static`] instead (same answers, fewer extractions);
/// the pair survives as the specification the unit tests hold it to.
#[cfg(test)]
pub(crate) fn footprints(prog: &CfgProgram, cfg: &Config) -> Vec<StepFootprint> {
    (0..prog.n_threads()).map(|t| thread_footprint(prog, cfg, t)).collect()
}

/// Per-configuration footprint cache filled on demand: threads whose
/// independence the static may-conflict matrix already decides never have
/// their dynamic footprint extracted at all. One cache per expanded
/// configuration (a slept thread's footprint cannot change while it
/// sleeps, so per-thread memoisation within one configuration is sound).
pub(crate) struct LazyFootprints {
    slots: Vec<Option<StepFootprint>>,
}

impl LazyFootprints {
    pub(crate) fn new(n_threads: usize) -> LazyFootprints {
        LazyFootprints { slots: vec![None; n_threads] }
    }

    /// Forget every cached footprint: ready for the next configuration.
    pub(crate) fn reset(&mut self) {
        self.slots.fill(None);
    }

    #[inline]
    fn get(&mut self, prog: &CfgProgram, cfg: &Config, t: usize) -> StepFootprint {
        *self.slots[t].get_or_insert_with(|| thread_footprint(prog, cfg, t))
    }
}

/// [`child_sleep`] with the static pre-filter in front: candidates the
/// static may-conflict matrix proves independent of *any* step of `t`
/// (`static_indep[t]`, from [`rc11_analyze::ConflictMatrix`]) are kept
/// asleep without extracting a single dynamic footprint; only the
/// remainder pays the per-pair [`rc11_core::StepFootprint::may_conflict`]
/// check. Static independence implies dynamic independence (the static
/// footprint over-approximates every step the thread can ever take), so
/// the result is bit-identical to the purely dynamic [`child_sleep`].
#[inline]
pub(crate) fn child_sleep_static(
    prog: &CfgProgram,
    cfg: &Config,
    fps: &mut LazyFootprints,
    static_indep: &[u64],
    candidates: ThreadMask,
    t: usize,
) -> ThreadMask {
    let cand = candidates & !(1u64 << t);
    let mut keep = static_indep[t] & cand;
    let mut m = cand & !keep;
    if m != 0 {
        let ft = fps.get(prog, cfg, t);
        while m != 0 {
            let u = m.trailing_zeros() as usize;
            m &= m - 1;
            if !fps.get(prog, cfg, u).may_conflict(&ft) {
                keep |= 1u64 << u;
            }
        }
    }
    keep
}

/// The terminal-classification probe of the walk: does any
/// thread in `mask` have a successor at `cfg`? Probe successors are
/// discarded and must **not** be counted as transitions (a later wake-up
/// of those threads would re-generate and re-count them, breaking the
/// `reduced ≤ full` invariant) — which is why this returns only a bool.
pub(crate) fn has_any_successor(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    cfg: &Config,
    mask: ThreadMask,
    step: StepOptions,
    pool: &mut SuccessorPool,
) -> bool {
    let mut m = mask;
    while m != 0 {
        let t = m.trailing_zeros() as usize;
        m &= m - 1;
        thread_successors_into(prog, objs, cfg, t, step, pool);
        if !pool.is_empty() {
            return true;
        }
    }
    false
}

/// Persistent sets (A7) memoised for one walk. A state's persistent set
/// is a pure function of its program counters
/// ([`FutureFootprints::persistent_mask`]), and a walk meets few distinct
/// pc tuples against many successors, so each tuple's mask is computed
/// once and looked up after.
pub(crate) struct PersistentMemo {
    fps: FutureFootprints,
    masks: FxHashMap<Box<[u32]>, ThreadMask>,
}

impl PersistentMemo {
    /// An empty memo over `prog`'s future footprints.
    pub(crate) fn new(prog: &CfgProgram) -> PersistentMemo {
        PersistentMemo { fps: rc11_analyze::future_footprints(prog), masks: FxHashMap::default() }
    }

    /// `persistent_mask(pcs)`, computed on the first call with these pcs.
    pub(crate) fn mask(&mut self, pcs: &[u32]) -> ThreadMask {
        if let Some(&mask) = self.masks.get(pcs) {
            return mask;
        }
        let mask = self.fps.persistent_mask(pcs);
        self.masks.insert(pcs.into(), mask);
        mask
    }
}

/// The sleep set a successor inherits over an edge by thread `t`:
/// `candidates` (the arriving sleep set ∪ the earlier-expanded siblings)
/// filtered to the threads whose next step is independent of `t`'s.
/// The eager-footprint specification of [`child_sleep_static`], kept for
/// the unit tests that compare the two.
#[cfg(test)]
#[inline]
pub(crate) fn child_sleep(
    fps: &[StepFootprint],
    candidates: ThreadMask,
    t: usize,
) -> ThreadMask {
    let ft = &fps[t];
    let mut keep = 0u64;
    let mut m = candidates & !(1u64 << t);
    while m != 0 {
        let u = m.trailing_zeros() as usize;
        m &= m - 1;
        if !fps[u].may_conflict(ft) {
            keep |= 1u64 << u;
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_core::{AccessKind, Comp, Loc, Tid};

    #[test]
    fn full_mask_shapes() {
        assert_eq!(full_mask(1), 0b1);
        assert_eq!(full_mask(3), 0b111);
        assert_eq!(full_mask(64), !0);
    }

    #[test]
    fn child_sleep_keeps_independent_candidates_only() {
        // t0 writes x, t1 writes y, t2 writes x: after t0's edge, t1 stays
        // asleep (independent), t2 wakes (same location).
        let fps = vec![
            StepFootprint::access(Tid(0), Comp::Client, Loc(0), AccessKind::Write { rel: false }),
            StepFootprint::access(Tid(1), Comp::Client, Loc(1), AccessKind::Write { rel: false }),
            StepFootprint::access(Tid(2), Comp::Client, Loc(0), AccessKind::Write { rel: false }),
        ];
        assert_eq!(child_sleep(&fps, 0b110, 0), 0b010);
        // The executing thread is never kept, even if listed.
        assert_eq!(child_sleep(&fps, 0b111, 0), 0b010);
        // Nothing to keep from an empty candidate set.
        assert_eq!(child_sleep(&fps, 0, 1), 0);
    }

    /// The statically pre-filtered sleep computation agrees bit-for-bit
    /// with the eager dynamic oracle on every reachable configuration of a
    /// mixed program (two threads on disjoint locations — statically
    /// independent — plus two racing on a shared one).
    #[test]
    fn static_prefilter_matches_dynamic_oracle() {
        use rc11_lang::builder::*;
        use rc11_lang::machine::{successors, NoObjects};
        let mut p = ProgramBuilder::new("mixed");
        let a = p.client_var("a", 0);
        let b = p.client_var("b", 0);
        let x = p.client_var("x", 0);
        p.add_thread(ThreadBuilder::new(), seq([wr(a, 1), wr(a, 2)]));
        p.add_thread(ThreadBuilder::new(), seq([wr(b, 1)]));
        p.add_thread(ThreadBuilder::new(), seq([wr(x, 1)]));
        let mut t3 = ThreadBuilder::new();
        let r = t3.reg("r");
        p.add_thread(t3, seq([rd(r, x)]));
        let prog = rc11_lang::compile(&p.build());
        let cm = rc11_analyze::conflict_matrix(&prog);
        let n = prog.n_threads();

        let mut frontier = vec![Config::initial(&prog).canonical()];
        let mut seen = vec![frontier[0].clone()];
        while let Some(cfg) = frontier.pop() {
            let eager = footprints(&prog, &cfg);
            let mut lazy = LazyFootprints::new(n);
            for t in 0..n {
                for cand in [0u64, 0b1010, 0b0111, full_mask(n)] {
                    assert_eq!(
                        child_sleep_static(&prog, &cfg, &mut lazy, cm.static_indep(), cand, t),
                        child_sleep(&eager, cand, t),
                        "thread {t}, candidates {cand:#b}"
                    );
                }
            }
            for (_, s) in successors(&prog, &NoObjects, &cfg, StepOptions::default()) {
                let c = s.canonical();
                if !seen.contains(&c) {
                    seen.push(c.clone());
                    frontier.push(c);
                }
            }
        }
        assert!(seen.len() > 4, "walked a non-trivial space");
    }

    /// The memo answers exactly what it memoises: after being asked for
    /// every reachable state's pcs (and again, from the table), each
    /// stored mask equals `persistent_mask` and its specification.
    #[test]
    fn memoised_persistent_masks_equal_persistent_mask() {
        let mut stored = 0;
        for (name, prog) in crate::test_programs(30) {
            let mut memo = PersistentMemo::new(&prog);
            let mut asked = Vec::new();
            crate::reference::explore(&prog, crate::objects_of(&prog), 1_000, |cfg, _| {
                asked.push((cfg.pcs().to_vec(), memo.mask(cfg.pcs())));
            });
            for (pcs, mask) in &asked {
                assert_eq!(memo.mask(pcs), *mask, "{name}: {pcs:?}");
            }
            for (pcs, &mask) in &memo.masks {
                assert_eq!(mask, memo.fps.persistent_mask(pcs), "{name}: {pcs:?}");
                assert_eq!(mask, memo.fps.persistent_mask_spec(pcs), "{name}: {pcs:?}");
            }
            assert!(memo.masks.len() <= asked.len(), "{name}");
            stored += memo.masks.len();
        }
        assert!(stored > 1_000, "{stored} pc tuples memoised");
    }
}
