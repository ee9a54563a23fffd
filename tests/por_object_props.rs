//! Property tests for the POR independence oracle over **abstract object
//! methods** (ablation A5) — the companion of
//! `crates/rc11-core/tests/por_props.rs`, which covers the variable-level
//! Figure-5 primitives. This suite drives the real `rc11-objects`
//! semantics (`AbstractObjects::method_steps`) so every object transition
//! rule — lock acquire/release, stack push/pop, queue enq/deq, register
//! read/write, counter inc, each in both sync annotations — is anchored
//! against the oracle's commutation claim:
//!
//! for any cross-thread pair whose footprints do not
//! [`may_conflict`](rc11_core::StepFootprint::may_conflict) (a method vs a
//! client access, or methods on *different* objects; same-object pairs
//! conflict unless both are read-only), the other side's **entire
//! outcome list** — return values and count, in enumeration order — must
//! be unchanged by the step, and executing matched outcomes in both
//! orders must reach canonically equal states. Outcome *index* identifies
//! the choice across orders: enumeration walks the object's own history
//! lists, which an independent step cannot reorder (operation ids are
//! append-only).
//!
//! A blocked method (empty outcome list — a held lock's acquire) must
//! stay blocked across independent steps, which the list-equality check
//! covers for free.

use proptest::prelude::*;
use rc11::prelude::*;
use rc11_core::{AccessKind, Comp, Loc, OpId, StepFootprint, Tid};
use rc11_lang::ast::Method;
use rc11_lang::machine::ObjectSemantics;
use rc11_lang::program::ObjKind;
use rc11_core::{Combined, InitLoc, Val};

const N_THREADS: usize = 3;
/// Library layout: one object per kind, in this order.
const OBJECTS: [(ObjKind, Loc); 5] = [
    (ObjKind::Lock, Loc(0)),
    (ObjKind::Stack, Loc(1)),
    (ObjKind::Queue, Loc(2)),
    (ObjKind::Register, Loc(3)),
    (ObjKind::Counter, Loc(4)),
];

fn initial() -> Combined {
    Combined::new(
        &[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))],
        &[InitLoc::Obj, InitLoc::Obj, InitLoc::Obj, InitLoc::Obj, InitLoc::Obj],
        N_THREADS,
    )
}

/// The method calls the registry accepts per object kind, with whether
/// they take a value argument.
fn methods_of(kind: ObjKind) -> &'static [(Method, bool)] {
    match kind {
        ObjKind::Lock => &[(Method::Acquire, false), (Method::AcquireV, false), (Method::Release, false)],
        ObjKind::Stack => &[(Method::Push, true), (Method::Pop, false)],
        ObjKind::Queue => &[(Method::Enq, true), (Method::Deq, false)],
        ObjKind::Register => &[(Method::RegWrite, true), (Method::RegRead, false)],
        ObjKind::Counter => &[(Method::Inc, false)],
    }
}

/// One resolved primitive transition: a client variable access, or one
/// *outcome* (by enumeration index) of an object method call.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Prim {
    ClientWrite { t: Tid, x: Loc, rel: bool, after: OpId },
    ClientRead { t: Tid, x: Loc, acq: bool, from: OpId },
    Call { t: Tid, kind: ObjKind, obj: Loc, method: Method, arg: Option<Val>, sync: bool, idx: usize },
}

impl Prim {
    fn footprint(self) -> StepFootprint {
        match self {
            Prim::ClientWrite { t, x, rel, .. } => {
                StepFootprint::access(t, Comp::Client, x, AccessKind::Write { rel })
            }
            Prim::ClientRead { t, x, acq, .. } => {
                StepFootprint::access(t, Comp::Client, x, AccessKind::Read { acq })
            }
            // Mirror `rc11_lang::machine::thread_footprint`: the register
            // read is the one history-preserving method.
            Prim::Call { t, obj, method, sync, .. } => {
                let kind = if method == Method::RegRead {
                    AccessKind::Read { acq: sync }
                } else {
                    AccessKind::Method { sync }
                };
                StepFootprint::access(t, Comp::Lib, obj, kind)
            }
        }
    }

    /// The outcome list of this primitive at `s`: `(return value, next
    /// state)` per resolved choice, in enumeration order.
    fn outcomes(self, s: &Combined) -> Vec<(Val, Combined)> {
        match self {
            Prim::ClientWrite { t, x, rel, after } => {
                if s.write_preds(Comp::Client, t, x).contains(&after) {
                    vec![(Val::Bot, s.apply_write(Comp::Client, t, x, Val::Int(7), rel, after))]
                } else {
                    Vec::new()
                }
            }
            Prim::ClientRead { t, x, acq, from } => s
                .read_choices(Comp::Client, t, x)
                .iter()
                .filter(|c| c.from == from)
                .map(|c| (c.val, s.apply_read(Comp::Client, t, x, acq, from)))
                .collect(),
            Prim::Call { t, kind, obj, method, arg, sync, .. } => {
                AbstractObjects.method_steps(s, t, obj, kind, method, arg, sync)
            }
        }
    }
}

/// Every resolved primitive of thread `t` at `s` (client accesses over
/// both variables plus one `Call` per method × sync annotation; the
/// `idx` of a `Call` is bound later, against the outcome list).
fn prims_of(s: &Combined, t: Tid) -> Vec<Prim> {
    let mut out = Vec::new();
    for x in [Loc(0), Loc(1)] {
        for after in s.write_preds(Comp::Client, t, x) {
            out.push(Prim::ClientWrite { t, x, rel: after.idx() % 2 == 0, after });
        }
        for c in s.read_choices(Comp::Client, t, x) {
            out.push(Prim::ClientRead { t, x, acq: c.from.idx() % 2 == 1, from: c.from });
        }
    }
    for (kind, obj) in OBJECTS {
        for &(method, takes_arg) in methods_of(kind) {
            for sync in [false, true] {
                let arg = takes_arg.then_some(Val::Int(3));
                out.push(Prim::Call { t, kind, obj, method, arg, sync, idx: 0 });
            }
        }
    }
    out
}

/// A state-building script step: apply a random primitive, picking one of
/// its outcomes; inapplicable/blocked steps are skipped.
fn apply_random(s: &Combined, t: u8, choice: u8, pick: u8) -> Combined {
    let prims = prims_of(s, Tid(t % N_THREADS as u8));
    if prims.is_empty() {
        return s.clone();
    }
    let prim = prims[choice as usize % prims.len()];
    let outs = prim.outcomes(s);
    if outs.is_empty() {
        return s.clone();
    }
    outs[pick as usize % outs.len()].1.clone()
}

fn run(script: &[(u8, u8, u8)]) -> Combined {
    script.iter().fold(initial(), |s, &(t, c, p)| apply_random(&s, t, c, p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The oracle's commutation contract over the full object alphabet:
    /// for every cross-thread conflict-free pair, the other side's outcome
    /// list (returns *and* count — blocked stays blocked) is unchanged,
    /// and matched outcomes commute canonically.
    #[test]
    fn conflict_free_object_pairs_commute_canonically(
        script in prop::collection::vec((0u8..3, any::<u8>(), any::<u8>()), 0..10),
    ) {
        let s = run(&script);
        let mut checked = 0usize;
        'outer: for ta in 0..N_THREADS {
            for tb in 0..N_THREADS {
                if ta == tb {
                    continue;
                }
                for a in prims_of(&s, Tid(ta as u8)) {
                    let a_outs = a.outcomes(&s);
                    for b in prims_of(&s, Tid(tb as u8)) {
                        if a.footprint().may_conflict(&b.footprint()) {
                            continue;
                        }
                        let b_outs = b.outcomes(&s);
                        for (ai, (_, sa)) in a_outs.iter().enumerate() {
                            // After `a`, `b`'s fan-out must be identical in
                            // count and return values, outcome by outcome…
                            let b_after = b.outcomes(sa);
                            prop_assert_eq!(
                                b_after.len(), b_outs.len(),
                                "{:?} changed {:?}'s outcome count", a, b
                            );
                            for (bi, ((rv, sb), (rv2, sab))) in
                                b_outs.iter().zip(&b_after).enumerate()
                            {
                                prop_assert_eq!(
                                    rv, rv2,
                                    "{:?} changed {:?}'s return at index {}", a, b, bi
                                );
                                // …and the matched outcomes must commute:
                                // a then b[bi]  ≡  b[bi] then a[ai].
                                let a_after = a.outcomes(sb);
                                prop_assert!(
                                    a_after.len() > ai,
                                    "{:?} disabled outcome {} of {:?}", b, ai, a
                                );
                                prop_assert!(
                                    sab.canonical() == a_after[ai].1.canonical(),
                                    "orders diverge: {:?}[{}] vs {:?}[{}]", a, ai, b, bi
                                );
                            }
                        }
                        checked += 1;
                        if checked > 150 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }

    /// Non-vacuity: conflict-free cross-thread pairs involving a method
    /// call exist (methods on different objects, method vs client access),
    /// and same-object modifying pairs always conflict.
    #[test]
    fn object_oracle_is_not_vacuous(
        script in prop::collection::vec((0u8..3, any::<u8>(), any::<u8>()), 2..8),
    ) {
        let s = run(&script);
        let a = prims_of(&s, Tid(0));
        let b = prims_of(&s, Tid(1));
        let method_free = a
            .iter()
            .filter(|p| matches!(p, Prim::Call { .. }))
            .flat_map(|x| b.iter().map(move |y| (x, y)))
            .filter(|(x, y)| !x.footprint().may_conflict(&y.footprint()))
            .count();
        prop_assert!(method_free > 0, "no commuting method pair found");
        for x in &a {
            for y in &b {
                if let (
                    Prim::Call { obj: o1, method: m1, .. },
                    Prim::Call { obj: o2, method: m2, .. },
                ) = (x, y)
                {
                    if o1 == o2 && *m1 != Method::RegRead && *m2 != Method::RegRead {
                        prop_assert!(
                            x.footprint().may_conflict(&y.footprint()),
                            "same-object modifiers must conflict: {:?} vs {:?}", x, y
                        );
                    }
                }
            }
        }
    }
}
