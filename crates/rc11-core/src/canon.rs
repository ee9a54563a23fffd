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
use crate::ids::{OpId, Tid};
use crate::action::{MethodOp, OpAction};
use crate::state::{CState, OpRecord};
use std::hash::{Hash, Hasher};

/// The inverse of a thread permutation `sigma[old] = new`: `inv[new] = old`
/// (thread ids are `u8`, so a fixed array holds any permutation without
/// allocating).
pub fn invert_tperm(sigma: &[u8]) -> [u8; 256] {
    let mut inv = [0u8; 256];
    for (old, &new) in sigma.iter().enumerate() {
        inv[new as usize] = old as u8;
    }
    inv
}

/// Fill `perm` with the canonical permutation of one component:
/// `perm[old] = new`, numbering ops by location then modification-order
/// position — their order in the flattened `mo` section. Reuses `perm`'s
/// capacity.
fn perm_into(st: &CState, perm: &mut Vec<OpId>) {
    perm.clear();
    perm.resize(st.n_ops(), OpId(0));
    for (new, &w) in st.mo_all().iter().enumerate() {
        perm[w.idx()] = OpId(new as u32);
    }
}

/// A non-initialisation op record with its thread ids permuted by
/// `sigma[old] = new`: the executing thread and, for a lock acquire, the
/// owner it records (release enabledness reads it back).
pub(crate) fn permute_rec(rec: OpRecord, sigma: &[u8]) -> OpRecord {
    let act = match rec.act {
        OpAction::Method(MethodOp::LockAcquire { n, tid }) => {
            OpAction::Method(MethodOp::LockAcquire { n, tid: Tid(sigma[tid.idx()]) })
        }
        act => act,
    };
    OpRecord { tid: Tid(sigma[rec.tid.idx()]), act, ..rec }
}

/// The canonical permutations of a [`Combined`] state: `perm[old] = new`
/// for each component, numbering ops by `(location, mo-position)`.
///
/// Computing the permutations is the cheap part of canonicalisation (two
/// dense passes, no view cloning); they are reused across the fingerprint
/// walk, the canonical-equality walk and — when a state turns out to be
/// novel — the single materialising [`Combined::canonical_with`] call. A
/// caller probing many states keeps one `CanonPerms` as scratch and
/// refills it with [`Combined::canonical_perms_into`], which allocates
/// nothing once the buffers have grown to the largest state's size.
#[derive(Debug, Clone, Default)]
pub struct CanonPerms {
    /// Client-component permutation (`perm[old] = new`).
    pub client: Vec<OpId>,
    /// Library-component permutation (`perm[old] = new`).
    pub lib: Vec<OpId>,
    /// Thread permutation (`threads[old tid] = new tid`) applied on top of
    /// the op renumbering — the symmetry-reduction hook (ablation A6).
    /// Empty means the identity. The op permutations commute with any
    /// thread permutation because [`Combined::canonical_perms`] orders ops
    /// purely by `(location, mo-position)`, which thread renaming leaves
    /// untouched.
    pub threads: Vec<u8>,
}

impl CanonPerms {
    /// The thread permutation, or `None` for the identity.
    #[inline]
    pub fn threads(&self) -> Option<&[u8]> {
        (!self.threads.is_empty()).then_some(&self.threads[..])
    }
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
    h.write_usize(st.n_locs());
    h.write_usize(st.n_threads);
    h.write_usize(st.n_ops());
    for len in st.mo_lens() {
        h.write_usize(len);
    }
    for &w in st.mo_all() {
        let rec = *st.op(w);
        let (rank, covered, own, other) = st.op_row(w);
        // mo-position 0 is the location's initialisation op, which
        // belongs to no thread — its dummy tid stays fixed under any
        // thread permutation.
        match tperm {
            Some(sigma) if rank > 0 => permute_rec(rec, sigma).hash(h),
            _ => rec.hash(h),
        }
        h.write_u8(covered as u8);
        own.hash_remapped(perm, h);
        other.hash_remapped(perm_other, h);
    }
    // Thread views in *canonical* slot order: new slot `j` holds the view
    // of the old thread `inv[j]`.
    let inv = tperm.map(invert_tperm);
    for j in 0..st.n_threads {
        let old_t = inv.as_ref().map_or(j, |inv| inv[j] as usize);
        st.tview(Tid(old_t as u8)).hash_remapped(perm, h);
    }
}

/// True iff renumbering `st` through `perm`/`perm_other` would yield
/// exactly `canon` — which must already be in canonical form (its `mo`
/// section consecutive in `(location, mo-position)` order, as produced by
/// [`Combined::canonical`]). Walks without materialising anything.
fn component_canonical_eq(
    st: &CState,
    perm: &[OpId],
    perm_other: &[OpId],
    tperm: Option<&[u8]>,
    canon: &CState,
) -> bool {
    if st.n_ops() != canon.n_ops()
        || st.n_locs() != canon.n_locs()
        || st.n_threads != canon.n_threads
        || st.n_other != canon.n_other
        || !st.mo_lens().eq(canon.mo_lens())
    {
        return false;
    }
    for (new_id, &w) in st.mo_all().iter().enumerate() {
        let (rank, covered, own, other) = st.op_row(w);
        let rec = match tperm {
            // Init ops (mo-position 0) belong to no thread; see
            // `hash_component`.
            Some(sigma) if rank > 0 => permute_rec(*st.op(w), sigma),
            _ => *st.op(w),
        };
        let c = OpId(new_id as u32);
        let (_, c_covered, c_own, c_other) = canon.op_row(c);
        if rec != *canon.op(c)
            || covered != c_covered
            || !own.eq_remapped(perm, c_own)
            || !other.eq_remapped(perm_other, c_other)
        {
            return false;
        }
    }
    let inv = tperm.map(invert_tperm);
    (0..st.n_threads).all(|j| {
        let old_t = inv.as_ref().map_or(j, |inv| inv[j] as usize);
        st.tview(Tid(old_t as u8)).eq_remapped(perm, canon.tview(Tid(j as u8)))
    })
}

impl Combined {
    /// The canonical permutations of both components (see [`CanonPerms`]),
    /// with the identity thread permutation.
    #[must_use]
    pub fn canonical_perms(&self) -> CanonPerms {
        let mut perms = CanonPerms::default();
        self.canonical_perms_into(&mut perms);
        perms
    }

    /// [`Combined::canonical_perms`] written into `perms`, reusing its
    /// buffers: the op permutations are recomputed and the thread
    /// permutation reset to the identity.
    pub fn canonical_perms_into(&self, perms: &mut CanonPerms) {
        perm_into(self.client(), &mut perms.client);
        perm_into(self.lib(), &mut perms.lib);
        perms.threads.clear();
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
        let tperm = perms.threads();
        let client = self.client().renumbered(&perms.client, &perms.lib, tperm);
        let lib = self.lib().renumbered(&perms.lib, &perms.client, tperm);
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
        let client = self.client().renumbered(&cid, &lid, Some(sigma));
        let lib = self.lib().renumbered(&lid, &cid, Some(sigma));
        Combined::from_parts(client, lib)
    }

    /// Stream this state's *canonical* serialisation into `h` without
    /// materialising the canonical form. Two states feed identical byte
    /// streams into `h` iff their canonical forms are equal, so a
    /// wide-enough hash of this walk is a canonical fingerprint (the
    /// 128-bit instantiation lives in `rc11_check::fxhash`).
    pub fn hash_canonical_with<H: Hasher>(&self, perms: &CanonPerms, h: &mut H) {
        let tperm = perms.threads();
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
        let tperm = perms.threads();
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
    use crate::ids::{Comp, Loc, Tid};
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
        let perms = CanonPerms { threads: vec![1, 0], ..s.canonical_perms() };
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
