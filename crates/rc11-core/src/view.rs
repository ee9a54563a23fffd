//! Viewfronts for the fast engine.
//!
//! A *view* maps every location of one component to an operation on that
//! location (Section 3.3). Views here are total — initialisation writes every
//! location exactly once, and every rule only ever moves views forward — so a
//! view is a dense row with one [`OpId`] per location.
//!
//! Views are not stored one per heap box: a [`crate::state::CState`] keeps
//! its thread views and both halves of every operation's modification view
//! as rows of its one `u32` table (next to the modification orders, ranks
//! and covered flags), and hands rows out as borrowed [`View`]s (read) and
//! [`ViewMut`]s (write). Cloning a state therefore copies two buffers —
//! op records and table — however many threads, locations and operations
//! it has.
//!
//! The join `V1 ⊗ V2` keeps, per location, the later (higher-timestamp)
//! entry. Timestamps in the fast engine are per-location *ranks*, supplied by
//! the owning [`crate::state::CState`] via a rank lookup.

use crate::ids::{Loc, OpId};

/// A total viewfront, borrowed from its state's view table: one operation
/// per location of one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct View<'a>(&'a [OpId]);

/// A mutable viewfront row, borrowed from its state's view table.
#[derive(Debug)]
pub struct ViewMut<'a>(&'a mut [OpId]);

impl<'a> View<'a> {
    /// View a row of per-location entries.
    #[inline]
    pub(crate) fn new(entries: &'a [OpId]) -> View<'a> {
        View(entries)
    }

    /// Number of locations.
    #[inline]
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// True iff the component has no locations.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The view's entry for `loc` — the paper's `view(x)`.
    #[inline]
    pub fn get(self, loc: Loc) -> OpId {
        self.0[loc.idx()]
    }

    /// Iterate `(loc index, entry)` pairs.
    pub fn iter(self) -> impl Iterator<Item = (usize, OpId)> + 'a {
        self.0.iter().copied().enumerate()
    }

    /// The entries remapped through an id permutation, lazily — what the
    /// canonical encoding writes and the symmetry choice compares.
    #[inline]
    pub fn remapped(self, perm: &'a [OpId]) -> impl Iterator<Item = OpId> + 'a {
        self.0.iter().map(move |e| perm[e.idx()])
    }

    /// Write the entries remapped through `perm` into `dst`
    /// (canonicalisation).
    #[inline]
    pub(crate) fn remap_into(self, perm: &[OpId], dst: &mut [OpId]) {
        debug_assert_eq!(self.0.len(), dst.len(), "rows of different widths");
        for (d, e) in dst.iter_mut().zip(self.0) {
            *d = perm[e.idx()];
        }
    }

    /// Raw slice access (read-only), for hashing and debugging.
    #[inline]
    pub fn as_slice(self) -> &'a [OpId] {
        self.0
    }
}

impl<'a> ViewMut<'a> {
    /// Mutably view a row of per-location entries.
    #[inline]
    pub(crate) fn new(entries: &'a mut [OpId]) -> ViewMut<'a> {
        ViewMut(entries)
    }

    /// Replace the entry for `loc` — the paper's `view[x := w]`.
    #[inline]
    pub fn set(&mut self, loc: Loc, op: OpId) {
        self.0[loc.idx()] = op;
    }

    /// `self ⊗ other` in place: per location keep the entry whose timestamp
    /// (rank) is larger. `rank` must order operations *on the same location*;
    /// entries at the same location always satisfy this.
    ///
    /// This is the view-combination operator of Section 3.3:
    /// `V1 ⊗ V2 = λx. if tst(V2(x)) ≤ tst(V1(x)) then V1(x) else V2(x)`.
    #[inline]
    pub(crate) fn join(&mut self, other: View<'_>, rank: impl Fn(OpId) -> u32) {
        debug_assert_eq!(self.0.len(), other.0.len(), "views over different components");
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            if rank(*theirs) > rank(*mine) {
                *mine = *theirs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut row = vec![OpId(0); 3];
        ViewMut::new(&mut row).set(Loc(1), OpId(5));
        let v = View::new(&row);
        assert_eq!(v.get(Loc(1)), OpId(5));
        assert_eq!(v.get(Loc(0)), OpId(0));
    }

    #[test]
    fn join_keeps_later_entries() {
        // rank = op id itself for this test.
        let rank = |op: OpId| op.0;
        let mut a = vec![OpId(3), OpId(1)];
        let b = [OpId(2), OpId(4)];
        ViewMut::new(&mut a).join(View::new(&b), rank);
        assert_eq!(a, [OpId(3), OpId(4)]);
    }

    #[test]
    fn join_is_idempotent_and_commutative_pointwise() {
        let rank = |op: OpId| op.0;
        let a = [OpId(3), OpId(1), OpId(7)];
        let b = [OpId(2), OpId(4), OpId(7)];
        let mut ab = a;
        ViewMut::new(&mut ab).join(View::new(&b), rank);
        let mut ba = b;
        ViewMut::new(&mut ba).join(View::new(&a), rank);
        assert_eq!(ab, ba);
        let mut aa = a;
        ViewMut::new(&mut aa).join(View::new(&a), rank);
        assert_eq!(aa, a);
    }

    #[test]
    fn remap_applies_permutation() {
        let v = [OpId(0), OpId(2)];
        let perm = [OpId(1), OpId(0), OpId(2)];
        let mut out = [OpId(0); 2];
        View::new(&v).remap_into(&perm, &mut out);
        assert_eq!(out, [OpId(1), OpId(2)]);
        assert!(View::new(&v).remapped(&perm).eq(out));
    }
}
