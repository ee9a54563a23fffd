//! Canonical renumbering of operation ids — and the zero-rebuild canonical
//! walk behind fingerprint deduplication.
//!
//! Operation ids are assigned in *insertion* order, so two interleavings
//! that produce the same memory state (same per-location histories, views
//! and covers) can still differ in raw ids. Canonicalisation renumbers ops
//! of both components by `(location, modification-order position)` — the
//! only ordering that is part of the state's meaning — so structurally equal
//! states become representationally equal. The explorer dedups visited
//! states on canonical forms; without this, every interleaving would look
//! fresh and exploration would never converge (ablation A1 in DESIGN.md).
//!
//! Materialising the canonical form ([`Combined::canonical`]) clones every
//! op record, `mo` vector and view — far too expensive to pay once per
//! generated successor. This module therefore also provides the
//! **zero-rebuild canonical walk**: given the canonical permutations
//! ([`Combined::canonical_perms`]), [`Combined::hash_canonical_with`]
//! streams the canonical serialisation of a state into any
//! [`std::hash::Hasher`] without constructing it, and
//! [`Combined::canonical_eq_with`] compares a state against an
//! already-canonical representative entry by entry. Both walk ops in
//! `(location, mo-position)` order per component — exactly the canonical id
//! order — remapping view entries through the permutations on the fly. The
//! exploration engines (rc11-check) key their visited structures on the
//! resulting 128-bit fingerprints and fall back to `canonical_eq` inside a
//! fingerprint bucket, so deduplication decisions are bit-identical to
//! materialised-canonical dedup (ablation A4 in DESIGN.md).

use crate::combined::Combined;
use crate::ids::{Loc, OpId, Tid};
use crate::action::{MethodOp, OpAction};
use crate::state::{CState, OpRecord};
use crate::view::View;
use std::hash::{Hash, Hasher};

/// The inverse of a thread permutation `sigma[old] = new`: `inv[new] = old`.
fn invert_tperm(sigma: &[u8]) -> Vec<u8> {
    let mut inv = vec![0u8; sigma.len()];
    for (old, &new) in sigma.iter().enumerate() {
        inv[new as usize] = old as u8;
    }
    inv
}

/// Build the canonical permutation for one component: `perm[old] = new`,
/// numbering ops by location then modification-order position.
fn perm_of(st: &CState) -> Vec<OpId> {
    let mut perm = vec![OpId(0); st.n_ops()];
    let mut next = 0u32;
    for li in 0..st.n_locs() {
        for &w in st.mo(Loc(li as u16)) {
            perm[w.idx()] = OpId(next);
            next += 1;
        }
    }
    debug_assert_eq!(next as usize, st.n_ops());
    perm
}

/// A non-initialisation op record with its thread ids permuted by
/// `sigma[old] = new`: the executing thread and, for a lock acquire, the
/// owner it records (release enabledness reads it back).
fn permute_rec(rec: OpRecord, sigma: &[u8]) -> OpRecord {
    let act = match rec.act {
        OpAction::Method(MethodOp::LockAcquire { n, tid }) => {
            OpAction::Method(MethodOp::LockAcquire { n, tid: Tid(sigma[tid.idx()]) })
        }
        act => act,
    };
    OpRecord { tid: Tid(sigma[rec.tid.idx()]), act, ..rec }
}

/// Rebuild a component state with ids renumbered by `perm` (own ids) and
/// `perm_other` (ids appearing in cross-component view halves), and —
/// when `tperm` is given — thread ids permuted by `tperm[old] = new`.
/// Initialisation operations (modification-order position 0 on every
/// location) belong to no thread and keep their dummy `Tid(0)`.
fn renumber(st: &CState, perm: &[OpId], perm_other: &[OpId], tperm: Option<&[u8]>) -> CState {
    let (ops, mo, tview, mview_own, mview_other, cvd) = st.raw_parts();
    let n = ops.len();

    // Which ops are initialisation ops: exactly the mo-position-0 entry of
    // every location (inserts always land at rank ≥ 1).
    let mut is_init = vec![false; n];
    for locs in mo {
        is_init[locs[0].idx()] = true;
    }

    let mut new_ops = ops.to_vec();
    let mut new_cvd = vec![false; n];
    let mut new_mview_own: Vec<Option<View>> = vec![None; n];
    let mut new_mview_other: Vec<Option<View>> = vec![None; n];
    for old in 0..n {
        let new = perm[old].idx();
        new_ops[new] = match tperm {
            Some(sigma) if !is_init[old] => permute_rec(ops[old], sigma),
            _ => ops[old],
        };
        new_cvd[new] = cvd[old];
        let mut own = mview_own[old].clone();
        own.remap(perm);
        new_mview_own[new] = Some(own);
        let mut other = mview_other[old].clone();
        other.remap(perm_other);
        new_mview_other[new] = Some(other);
    }

    let new_mo: Vec<Vec<OpId>> = mo
        .iter()
        .map(|locs| locs.iter().map(|w| perm[w.idx()]).collect())
        .collect();

    let mut new_tview: Vec<View> = tview
        .iter()
        .map(|v| {
            let mut v = v.clone();
            v.remap(perm);
            v
        })
        .collect();
    if let Some(sigma) = tperm {
        let remapped = new_tview;
        new_tview = vec![View::from_entries(Vec::new()); remapped.len()];
        for (old_t, v) in remapped.into_iter().enumerate() {
            new_tview[sigma[old_t] as usize] = v;
        }
    }

    CState::from_raw_parts(
        st.comp,
        new_ops,
        new_mo,
        new_tview,
        new_mview_own.into_iter().map(|v| v.unwrap()).collect(),
        new_mview_other.into_iter().map(|v| v.unwrap()).collect(),
        new_cvd,
    )
}

/// The canonical permutations of a [`Combined`] state: `perm[old] = new`
/// for each component, numbering ops by `(location, mo-position)`.
///
/// Computing the permutations is the cheap part of canonicalisation (two
/// dense passes, no view cloning); they are reused across the fingerprint
/// walk, the canonical-equality walk and — when a state turns out to be
/// novel — the single materialising [`Combined::canonical_with`] call.
#[derive(Debug, Clone)]
pub struct CanonPerms {
    /// Client-component permutation (`perm[old] = new`).
    pub client: Vec<OpId>,
    /// Library-component permutation (`perm[old] = new`).
    pub lib: Vec<OpId>,
    /// Optional thread permutation (`threads[old tid] = new tid`) applied on
    /// top of the op renumbering — the symmetry-reduction hook (ablation A6).
    /// `None` means the identity. The op permutations commute with any
    /// thread permutation because [`perm_of`] orders ops purely by
    /// `(location, mo-position)`, which thread renaming leaves untouched.
    pub threads: Option<Vec<u8>>,
}

/// Stream one component's canonical serialisation into `h`: framing
/// (loc/thread/op counts and per-location `mo` lengths — which fully
/// determine the canonical `mo` vectors, since canonical ids are
/// consecutive in `(location, mo-position)` order), then every op record,
/// covered flag and modification-view pair in canonical id order with view
/// entries remapped on the fly, then the remapped thread views.
fn hash_component<H: Hasher>(
    st: &CState,
    perm: &[OpId],
    perm_other: &[OpId],
    tperm: Option<&[u8]>,
    h: &mut H,
) {
    let (ops, mo, tview, mview_own, mview_other, cvd) = st.raw_parts();
    h.write_usize(mo.len());
    h.write_usize(tview.len());
    h.write_usize(ops.len());
    for locs in mo {
        h.write_usize(locs.len());
    }
    for locs in mo {
        for (pos, &w) in locs.iter().enumerate() {
            let old = w.idx();
            // mo-position 0 is the location's initialisation op, which
            // belongs to no thread — its dummy tid stays fixed under any
            // thread permutation.
            match tperm {
                Some(sigma) if pos > 0 => permute_rec(ops[old], sigma).hash(h),
                _ => ops[old].hash(h),
            }
            h.write_u8(cvd[old] as u8);
            mview_own[old].hash_remapped(perm, h);
            mview_other[old].hash_remapped(perm_other, h);
        }
    }
    match tperm {
        Some(sigma) => {
            // Thread views in *canonical* slot order: new slot `j` holds the
            // view of the old thread `inv[j]`.
            let inv = invert_tperm(sigma);
            for &old_t in &inv {
                tview[old_t as usize].hash_remapped(perm, h);
            }
        }
        None => {
            for tv in tview {
                tv.hash_remapped(perm, h);
            }
        }
    }
}

/// True iff renumbering `st` through `perm`/`perm_other` would yield
/// exactly `canon` — which must already be in canonical form (its `mo`
/// vectors consecutive in `(location, mo-position)` order, as produced by
/// [`Combined::canonical`]). Walks without materialising anything.
fn component_canonical_eq(
    st: &CState,
    perm: &[OpId],
    perm_other: &[OpId],
    tperm: Option<&[u8]>,
    canon: &CState,
) -> bool {
    let (ops, mo, tview, mview_own, mview_other, cvd) = st.raw_parts();
    let (cops, cmo, ctview, cmview_own, cmview_other, ccvd) = canon.raw_parts();
    if ops.len() != cops.len() || mo.len() != cmo.len() || tview.len() != ctview.len() {
        return false;
    }
    let mut new_id = 0usize;
    for (locs, clocs) in mo.iter().zip(cmo) {
        if locs.len() != clocs.len() {
            return false;
        }
        for (pos, &w) in locs.iter().enumerate() {
            let old = w.idx();
            let rec = match tperm {
                // Init ops (mo-position 0) belong to no thread; see
                // `hash_component`.
                Some(sigma) if pos > 0 => permute_rec(ops[old], sigma),
                _ => ops[old],
            };
            if rec != cops[new_id]
                || cvd[old] != ccvd[new_id]
                || !mview_own[old].eq_remapped(perm, &cmview_own[new_id])
                || !mview_other[old].eq_remapped(perm_other, &cmview_other[new_id])
            {
                return false;
            }
            new_id += 1;
        }
    }
    match tperm {
        Some(sigma) => {
            let inv = invert_tperm(sigma);
            inv.iter()
                .zip(ctview)
                .all(|(&old_t, ctv)| tview[old_t as usize].eq_remapped(perm, ctv))
        }
        None => tview.iter().zip(ctview).all(|(tv, ctv)| tv.eq_remapped(perm, ctv)),
    }
}

impl Combined {
    /// The canonical permutations of both components (see [`CanonPerms`]),
    /// with the identity thread permutation.
    #[must_use]
    pub fn canonical_perms(&self) -> CanonPerms {
        CanonPerms { client: perm_of(self.client()), lib: perm_of(self.lib()), threads: None }
    }

    /// The canonical representative of this state: ids renumbered by
    /// `(location, mo-position)` in both components, cross-references
    /// remapped consistently. Idempotent; structurally-equal states have
    /// equal canonical forms (tested by property tests).
    #[must_use]
    pub fn canonical(&self) -> Combined {
        self.canonical_with(&self.canonical_perms())
    }

    /// [`Combined::canonical`] with precomputed permutations — lets a
    /// caller that already fingerprinted a state (and found it novel)
    /// materialise the canonical form without recomputing the permutations.
    #[must_use]
    pub fn canonical_with(&self, perms: &CanonPerms) -> Combined {
        let tperm = perms.threads.as_deref();
        let client = renumber(self.client(), &perms.client, &perms.lib, tperm);
        let lib = renumber(self.lib(), &perms.lib, &perms.client, tperm);
        Combined::from_parts(client, lib)
    }

    /// Rebuild this state with thread ids permuted by `sigma[old] = new`
    /// (op ids untouched): per-op `tid`s renamed (initialisation ops keep
    /// their dummy tid) and thread viewfronts moved to their new slots.
    /// Only sound as a state-space symmetry when `sigma` is a program
    /// automorphism — the detection side lives in `rc11-analyze`.
    #[must_use]
    pub fn permute_threads(&self, sigma: &[u8]) -> Combined {
        let identity = |st: &CState| (0..st.n_ops() as u32).map(OpId).collect::<Vec<_>>();
        let cid = identity(self.client());
        let lid = identity(self.lib());
        let client = renumber(self.client(), &cid, &lid, Some(sigma));
        let lib = renumber(self.lib(), &lid, &cid, Some(sigma));
        Combined::from_parts(client, lib)
    }

    /// Stream this state's *canonical* serialisation into `h` without
    /// materialising the canonical form. Two states feed identical byte
    /// streams into `h` iff their canonical forms are equal, so a
    /// wide-enough hash of this walk is a canonical fingerprint (the
    /// 128-bit instantiation lives in `rc11_check::fxhash`).
    pub fn hash_canonical_with<H: Hasher>(&self, perms: &CanonPerms, h: &mut H) {
        let tperm = perms.threads.as_deref();
        hash_component(self.client(), &perms.client, &perms.lib, tperm, h);
        hash_component(self.lib(), &perms.lib, &perms.client, tperm, h);
    }

    /// [`Combined::hash_canonical_with`], computing the permutations
    /// internally.
    pub fn hash_canonical<H: Hasher>(&self, h: &mut H) {
        self.hash_canonical_with(&self.canonical_perms(), h);
    }

    /// True iff `self.canonical() == *canon`, decided by a zero-rebuild
    /// walk. `canon` **must already be canonical** (as stored in the
    /// engines' interned state arenas); this is the collision-bucket
    /// confirmation step of fingerprint deduplication.
    #[must_use]
    pub fn canonical_eq_with(&self, perms: &CanonPerms, canon: &Combined) -> bool {
        let tperm = perms.threads.as_deref();
        component_canonical_eq(self.client(), &perms.client, &perms.lib, tperm, canon.client())
            && component_canonical_eq(self.lib(), &perms.lib, &perms.client, tperm, canon.lib())
    }

    /// [`Combined::canonical_eq_with`], computing the permutations
    /// internally.
    #[must_use]
    pub fn canonical_eq(&self, canon: &Combined) -> bool {
        self.canonical_eq_with(&self.canonical_perms(), canon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Comp, Tid};
    use crate::state::InitLoc;
    use crate::val::Val;

    const X: Loc = Loc(0);
    const Y: Loc = Loc(1);

    fn base() -> Combined {
        Combined::new(&[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))], &[], 2)
    }

    /// Independent writes to different variables commute up to ids; the
    /// canonical forms must coincide.
    #[test]
    fn interleaving_order_is_cancelled() {
        let s = base();
        let a = s
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0))
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), false, OpId(1));
        let b = s
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), false, OpId(1))
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
        assert_ne!(a, b, "raw ids differ between interleavings");
        assert_eq!(a.canonical(), b.canonical(), "canonical forms coincide");
    }

    #[test]
    fn canonical_is_idempotent() {
        let s = base()
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0))
            .apply_update(Comp::Client, Tid(1), X, Val::Int(2), OpId(0));
        let c1 = s.canonical();
        let c2 = c1.canonical();
        assert_eq!(c1, c2);
        c1.check_invariants();
    }

    #[test]
    fn canonical_preserves_observable_structure() {
        let s = base().apply_write(Comp::Client, Tid(0), X, Val::Int(7), true, OpId(0));
        let c = s.canonical();
        // Same number of ops per location, same values in mo order.
        let vals = |st: &Combined| -> Vec<Val> {
            st.client().mo(X).iter().map(|&w| st.client().op(w).act.wrval()).collect()
        };
        assert_eq!(vals(&s), vals(&c));
        // Same observable values for each thread.
        for t in [Tid(0), Tid(1)] {
            let obs = |st: &Combined| -> Vec<Val> {
                st.read_choices(Comp::Client, t, X).iter().map(|c| c.val).collect()
            };
            assert_eq!(obs(&s), obs(&c));
        }
    }

    /// A thread permutation renames a held lock's owner along with the
    /// acquiring op's thread, in the materialised form and in the
    /// zero-rebuild walks alike.
    #[test]
    fn permutation_renames_the_lock_owner() {
        let mut s = Combined::new(&[], &[InitLoc::Obj], 2);
        let (exec, _) = s.exec_ctx_mut(Comp::Lib);
        let b = MethodOp::LockAcquire { n: 1, tid: Tid(0) };
        exec.insert_at_max(OpRecord { loc: X, tid: Tid(0), act: OpAction::Method(b) });
        let swapped = s.permute_threads(&[1, 0]);
        let owner = |st: &Combined| {
            let lib = st.lib();
            match lib.op(*lib.mo(X).last().unwrap()).act {
                OpAction::Method(MethodOp::LockAcquire { tid, .. }) => tid,
                other => panic!("not an acquire: {other:?}"),
            }
        };
        assert_eq!(owner(&swapped), Tid(1));
        let perms = CanonPerms { threads: Some(vec![1, 0]), ..s.canonical_perms() };
        let canon = swapped.canonical();
        assert_eq!(s.canonical_with(&perms), canon);
        assert!(s.canonical_eq_with(&perms, &canon));
        assert!(!s.canonical_eq_with(&s.canonical_perms(), &canon));
    }

    /// A 64-bit instantiation of the canonical walk, for tests only (the
    /// engines use the 128-bit `Fx128Hasher` in rc11-check).
    fn walk_hash(s: &Combined) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash_canonical(&mut h);
        h.finish()
    }

    /// The zero-rebuild walk agrees with materialised canonicalisation:
    /// equal canonical forms ⟺ equal walk hashes, and `canonical_eq`
    /// decides exactly `self.canonical() == canon`.
    #[test]
    fn walk_agrees_with_materialised_canonicalisation() {
        let s = base();
        let a = s
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0))
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), true, OpId(1));
        let b = s
            .apply_write(Comp::Client, Tid(1), Y, Val::Int(2), true, OpId(1))
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
        let c = s.apply_write(Comp::Client, Tid(0), X, Val::Int(3), false, OpId(0));

        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(walk_hash(&a), walk_hash(&b), "equal canonical forms, equal walk");
        assert_ne!(walk_hash(&a), walk_hash(&c), "distinct canonical forms, distinct walk");

        assert!(a.canonical_eq(&b.canonical()));
        assert!(b.canonical_eq(&a.canonical()));
        assert!(!c.canonical_eq(&a.canonical()));
        assert!(!a.canonical_eq(&c.canonical()));
    }

    /// The walk hash is stable under canonicalisation (the canonical form's
    /// permutations are the identity), and `canonical_with` reusing
    /// precomputed permutations equals `canonical`.
    #[test]
    fn walk_is_stable_under_canonicalisation() {
        let s = base()
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0))
            .apply_update(Comp::Client, Tid(1), X, Val::Int(2), OpId(0))
            .apply_read(Comp::Client, Tid(0), Y, true, OpId(1));
        let canon = s.canonical();
        assert_eq!(walk_hash(&s), walk_hash(&canon));
        assert!(s.canonical_eq(&canon));
        assert!(canon.canonical_eq(&canon));

        let perms = s.canonical_perms();
        assert_eq!(s.canonical_with(&perms), canon);
    }

    /// Covered flags are part of the canonical identity: states differing
    /// *only* in `cvd` must neither walk-hash equal nor canonical-eq.
    #[test]
    fn walk_distinguishes_covered_flags() {
        let s = base().apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0));
        let mut covered = s.clone();
        covered.comp_mut(Comp::Client).cover(OpId(0));
        assert_ne!(walk_hash(&s), walk_hash(&covered));
        assert!(!s.canonical_eq(&covered.canonical()));
        assert!(!covered.canonical_eq(&s.canonical()));
    }

    /// Differing *orders on the same variable* must NOT be identified.
    #[test]
    fn same_var_orders_stay_distinct() {
        let s = base();
        // T0 writes 1 then T1 writes 2 after it vs. the coherence-reversed
        // placement (T1's write placed before T0's).
        let a = {
            let s = s.apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
            let w1 = *s.client().mo(X).last().unwrap();
            s.apply_write(Comp::Client, Tid(1), X, Val::Int(2), false, w1)
        };
        let b = {
            let s = s.apply_write(Comp::Client, Tid(0), X, Val::Int(1), false, OpId(0));
            // T1 places its write directly after the initialisation.
            s.apply_write(Comp::Client, Tid(1), X, Val::Int(2), false, OpId(0))
        };
        assert_ne!(a.canonical(), b.canonical());
    }
}
