//! Property tests for the partial-order-reduction independence oracle
//! (ablation A5): on randomly generated reachable states, every pair of
//! primitive transitions whose [`StepFootprint`]s do **not** conflict must
//!
//! * reach **canonically equal** states when executed in either order
//!   (fresh operation ids depend on execution order; canonicalisation
//!   erases exactly that), and
//! * leave each other's *choice sets* untouched — the other thread sees
//!   the same read choices and the same uncovered predecessors before and
//!   after the step.
//!
//! Together these are the two facts sleep-set pruning rests on: a slept
//! thread's step can be replayed after the explored sibling with the same
//! alternatives and the same (canonical) results. The generators reuse the
//! random-script idiom of `fingerprint_props.rs` to reach non-trivial
//! states, including cross-component states with update-covered operations
//! and release/acquire view transfer. A negative control checks the oracle
//! is not vacuous: conflict-free cross-thread pairs do occur generously.

use proptest::prelude::*;
use rc11_core::{
    AccessKind, Combined, Comp, InitLoc, Loc, OpId, StepFootprint, Tid, Val,
};

const N_THREADS: usize = 3;

/// One step of a state-building script (indices resolved at application
/// time, so every generated script is applicable).
#[derive(Debug, Clone, Copy)]
enum RStep {
    Write { t: u8, comp: bool, loc: u8, val: u8, rel: bool, pred: u8 },
    Read { t: u8, comp: bool, loc: u8, acq: bool, choice: u8 },
    Update { t: u8, comp: bool, loc: u8, val: u8, pred: u8 },
}

fn rstep() -> impl Strategy<Value = RStep> {
    prop_oneof![
        (0u8..3, any::<bool>(), 0u8..2, 1u8..4, any::<bool>(), 0u8..4).prop_map(
            |(t, comp, loc, val, rel, pred)| RStep::Write { t, comp, loc, val, rel, pred }
        ),
        (0u8..3, any::<bool>(), 0u8..2, any::<bool>(), 0u8..4)
            .prop_map(|(t, comp, loc, acq, choice)| RStep::Read { t, comp, loc, acq, choice }),
        (0u8..3, any::<bool>(), 0u8..2, 1u8..4, 0u8..4)
            .prop_map(|(t, comp, loc, val, pred)| RStep::Update { t, comp, loc, val, pred }),
    ]
}

fn initial() -> Combined {
    Combined::new(
        &[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))],
        &[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))],
        N_THREADS,
    )
}

fn comp_of(b: bool) -> Comp {
    if b {
        Comp::Lib
    } else {
        Comp::Client
    }
}

/// Apply one script step, skipping inapplicable ones.
fn apply(s: &Combined, step: RStep) -> Combined {
    match step {
        RStep::Write { t, comp, loc, val, rel, pred } => {
            let (c, t, x) = (comp_of(comp), Tid(t % N_THREADS as u8), Loc((loc % 2) as u16));
            let preds = s.write_preds(c, t, x);
            if preds.is_empty() {
                return s.clone();
            }
            let w = preds[pred as usize % preds.len()];
            s.apply_write(c, t, x, Val::Int(val as i64), rel, w)
        }
        RStep::Read { t, comp, loc, acq, choice } => {
            let (c, t, x) = (comp_of(comp), Tid(t % N_THREADS as u8), Loc((loc % 2) as u16));
            let choices = s.read_choices(c, t, x);
            let ch = choices[choice as usize % choices.len()];
            s.apply_read(c, t, x, acq, ch.from)
        }
        RStep::Update { t, comp, loc, val, pred } => {
            let (c, t, x) = (comp_of(comp), Tid(t % N_THREADS as u8), Loc((loc % 2) as u16));
            let preds = s.update_preds(c, t, x, None);
            if preds.is_empty() {
                return s.clone();
            }
            let w = preds[pred as usize % preds.len()];
            s.apply_update(c, t, x, Val::Int(val as i64), w)
        }
    }
}

fn run(script: &[RStep]) -> Combined {
    script.iter().fold(initial(), |s, &st| apply(&s, st))
}

/// One fully resolved primitive transition: a specific choice of a
/// Figure-5 rule, applicable at the state it was enumerated from. The
/// resolved choice (`OpId` of a pre-existing operation) stays valid after
/// an independent step by another thread: operation ids are append-only.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Prim {
    Write { c: Comp, t: Tid, x: Loc, v: Val, rel: bool, after: OpId },
    Read { c: Comp, t: Tid, x: Loc, acq: bool, from: OpId },
    Update { c: Comp, t: Tid, x: Loc, v: Val, after: OpId },
}

impl Prim {
    fn footprint(self) -> StepFootprint {
        match self {
            Prim::Write { c, t, x, rel, .. } => {
                StepFootprint::access(t, c, x, AccessKind::Write { rel })
            }
            Prim::Read { c, t, x, acq, .. } => {
                StepFootprint::access(t, c, x, AccessKind::Read { acq })
            }
            Prim::Update { c, t, x, after, .. } => {
                let mut fp = StepFootprint::access(t, c, x, AccessKind::Update);
                fp.access.as_mut().unwrap().covers = Some(after);
                fp
            }
        }
    }

    fn apply(self, s: &Combined) -> Combined {
        match self {
            Prim::Write { c, t, x, v, rel, after } => s.apply_write(c, t, x, v, rel, after),
            Prim::Read { c, t, x, acq, from } => s.apply_read(c, t, x, acq, from),
            Prim::Update { c, t, x, v, after } => s.apply_update(c, t, x, v, after),
        }
    }

    /// Still applicable at `s`? (An independent step must never disable
    /// this one — asserted, not assumed, by the properties below.)
    fn enabled(self, s: &Combined) -> bool {
        match self {
            Prim::Write { c, t, x, after, .. } => s.write_preds(c, t, x).contains(&after),
            Prim::Read { c, t, x, from, .. } => {
                s.read_choices(c, t, x).iter().any(|ch| ch.from == from)
            }
            Prim::Update { c, t, x, after, .. } => {
                s.update_preds(c, t, x, None).contains(&after)
            }
        }
    }
}

/// Every resolved primitive transition of thread `t` at `s`, over both
/// components and all locations.
fn prims_of(s: &Combined, t: Tid) -> Vec<Prim> {
    let mut out = Vec::new();
    for c in [Comp::Client, Comp::Lib] {
        for l in 0..s.comp(c).n_locs() {
            let x = Loc(l as u16);
            for after in s.write_preds(c, t, x) {
                for rel in [false, true] {
                    out.push(Prim::Write { c, t, x, v: Val::Int(7), rel, after });
                }
            }
            for ch in s.read_choices(c, t, x) {
                for acq in [false, true] {
                    out.push(Prim::Read { c, t, x, acq, from: ch.from });
                }
            }
            for after in s.update_preds(c, t, x, None) {
                out.push(Prim::Update { c, t, x, v: Val::Int(9), after });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The oracle's soundness contract: for every cross-thread pair of
    /// resolved transitions whose footprints do not conflict, both orders
    /// stay enabled and reach canonically equal states.
    #[test]
    fn conflict_free_pairs_commute_canonically(
        script in prop::collection::vec(rstep(), 0..8),
    ) {
        let s = run(&script);
        let mut checked = 0usize;
        'outer: for ta in 0..N_THREADS {
            for tb in 0..N_THREADS {
                if ta == tb {
                    continue;
                }
                for a in prims_of(&s, Tid(ta as u8)) {
                    for b in prims_of(&s, Tid(tb as u8)) {
                        if a.footprint().may_conflict(&b.footprint()) {
                            continue;
                        }
                        let sa = a.apply(&s);
                        let sb = b.apply(&s);
                        prop_assert!(
                            b.enabled(&sa),
                            "{b:?} disabled by independent {a:?}"
                        );
                        prop_assert!(
                            a.enabled(&sb),
                            "{a:?} disabled by independent {b:?}"
                        );
                        let sab = b.apply(&sa);
                        let sba = a.apply(&sb);
                        prop_assert!(
                            sab.canonical() == sba.canonical(),
                            "orders diverge: {a:?} then {b:?} vs the reverse"
                        );
                        checked += 1;
                        // Bound the quadratic blow-up per generated state.
                        if checked > 400 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }

    /// The choice-set half of independence: an independent step leaves the
    /// other thread's *entire* fan-out untouched — same read choices, same
    /// write and update predecessors (as resolved transition sets). This is
    /// what lets sleep sets treat "thread `u`'s step" as one unit: after an
    /// independent sibling executes, `u` still has exactly the same
    /// alternatives.
    #[test]
    fn independent_steps_preserve_choice_sets(
        script in prop::collection::vec(rstep(), 0..8),
    ) {
        let s = run(&script);
        let mut checked = 0usize;
        'outer: for ta in 0..N_THREADS {
            for tb in 0..N_THREADS {
                if ta == tb {
                    continue;
                }
                let tb_tid = Tid(tb as u8);
                let before = prims_of(&s, tb_tid);
                for a in prims_of(&s, Tid(ta as u8)) {
                    let fa = a.footprint();
                    // Thread-level check: only when `a` is independent of
                    // *everything* thread `tb` can do here (the sleep-set
                    // granularity), `tb`'s fan-out must be unchanged.
                    if before.iter().any(|b| fa.may_conflict(&b.footprint())) {
                        continue;
                    }
                    let sa = a.apply(&s);
                    let after = prims_of(&sa, tb_tid);
                    prop_assert_eq!(
                        &before, &after,
                        "{:?} changed thread {}'s fan-out", a, tb
                    );
                    checked += 1;
                    if checked > 200 {
                        break 'outer;
                    }
                }
            }
        }
    }

    /// Negative control: the oracle must not be vacuous. On states with at
    /// least two locations touched, conflict-free cross-thread pairs exist
    /// (different locations always commute), and pairs writing one location
    /// always conflict.
    #[test]
    fn oracle_is_not_vacuous(script in prop::collection::vec(rstep(), 4..10)) {
        let s = run(&script);
        let a = prims_of(&s, Tid(0));
        let b = prims_of(&s, Tid(1));
        let free = a
            .iter()
            .flat_map(|x| b.iter().map(move |y| (x, y)))
            .filter(|(x, y)| !x.footprint().may_conflict(&y.footprint()))
            .count();
        prop_assert!(free > 0, "no commuting pair found on a 4-location state");
        // Same-location writes by different threads always conflict.
        for x in &a {
            for y in &b {
                if let (Prim::Write { c: ca, x: xa, .. }, Prim::Write { c: cb, x: xb, .. }) =
                    (x, y)
                {
                    if ca == cb && xa == xb {
                        prop_assert!(x.footprint().may_conflict(&y.footprint()));
                    }
                }
            }
        }
    }
}
