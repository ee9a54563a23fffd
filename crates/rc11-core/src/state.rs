//! Fast component states: the C11 state of Section 3.3 with dense
//! per-location timestamp *ranks* instead of rationals.
//!
//! A component state holds exactly the four pieces of Figure 5's state:
//!
//! * `ops` — the modifying operations executed so far (writes, updates,
//!   abstract method calls);
//! * `tview_t` — per-thread viewfronts over this component's locations;
//! * `mview_w` — per-operation viewfronts spanning **both** components (the
//!   paper: "the modification view function may map to operations across the
//!   system");
//! * `cvd` — the covered operations (those immediately before an update in
//!   modification order, which later writes must not intervene after).
//!
//! Timestamps: each location carries a modification-order vector `mo`; the
//! timestamp of an operation is its position (*rank*) in its location's
//! vector. Fresh-timestamp insertion "immediately after `(w, q)`" (Figure 5's
//! `fresh`) becomes vector insertion at `rank(w) + 1`. The `lit` module
//! implements the same rules with literal rational timestamps; the two are
//! cross-validated in tests and benchmarked against each other.
//!
//! Layout: the three view tables are flat row-major buffers of [`OpId`]s —
//! `tview` has one row per thread, `mview_own` and `mview_other` one row per
//! operation. A row of `tview` or `mview_own` is as wide as this component's
//! location count; a row of `mview_other` as wide as the *other*
//! component's. Accessors hand rows out as borrowed [`View`]s, so cloning a
//! state copies a fixed number of buffers however many threads and
//! operations it holds.

use crate::action::{MethodOp, OpAction};
use crate::ids::{Comp, Loc, OpId, Tid};
use crate::val::Val;
use crate::view::{View, ViewMut};

/// One recorded operation: which location, which thread, what action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpRecord {
    /// Location (variable or object) the operation modifies.
    pub loc: Loc,
    /// The executing thread.
    pub tid: Tid,
    /// The action payload.
    pub act: OpAction,
}

/// How to initialise one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitLoc {
    /// A shared variable with initial value `v` (an initialising write of
    /// timestamp 0, per Section 3.3's `Initialisation`).
    Var(Val),
    /// An abstract object (an `init_0` operation of timestamp 0, Section 4).
    Obj,
}

/// Row `i` of a row-major table of the given width.
#[inline]
pub(crate) fn row(table: &[OpId], width: usize, i: usize) -> &[OpId] {
    &table[i * width..(i + 1) * width]
}

/// Mutable row `i` of a row-major table of the given width.
#[inline]
pub(crate) fn row_mut(table: &mut [OpId], width: usize, i: usize) -> &mut [OpId] {
    &mut table[i * width..(i + 1) * width]
}

/// A component state (`γ` or `β`) of the fast engine.
///
/// Invariants (checked by [`CState::check_invariants`] in tests):
/// * `ops`, `rank`, `cvd` and the rows of `mview_own`, `mview_other` are
///   parallel;
/// * every location's `mo` vector permutes exactly the ops on that location,
///   and `rank[w]` is `w`'s position in it;
/// * every view entry for location `x` is an operation on `x`;
/// * thread views only move forward over time (monotonicity — enforced by
///   the transition rules, asserted in property tests).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CState {
    /// Which component this is (`γ` = client, `β` = library).
    pub comp: Comp,
    pub(crate) ops: Vec<OpRecord>,
    /// Per-location modification order (timestamp order), oldest first.
    pub(crate) mo: Vec<Vec<OpId>>,
    /// Per-op position in its location's `mo` vector.
    pub(crate) rank: Vec<u32>,
    /// Number of threads (rows of `tview`).
    pub(crate) n_threads: usize,
    /// The other component's location count (width of `mview_other`).
    pub(crate) n_other: usize,
    /// Per-thread viewfronts over this component's locations, row-major.
    pub(crate) tview: Vec<OpId>,
    /// Per-op viewfronts over *this* component's locations, row-major.
    pub(crate) mview_own: Vec<OpId>,
    /// Per-op viewfronts over the *other* component's locations (entries
    /// are op ids in the other component's state), row-major.
    pub(crate) mview_other: Vec<OpId>,
    /// Per-op covered flag (`cvd`).
    pub(crate) cvd: Vec<bool>,
}

impl CState {
    /// Initialise a component: one operation of timestamp 0 per location
    /// (Section 3.3 `Initialisation`). Every thread view, and the own half
    /// of every initial operation's modification view, points at the
    /// initialising operations; so does the cross half, over the other
    /// component's `n_other` initialising operations
    /// (`γInit.mview_x = γInit.tview_t ∪ βInit.tview_t`).
    pub fn init(comp: Comp, inits: &[InitLoc], n_threads: usize, n_other: usize) -> CState {
        let n_locs = inits.len();
        let mut ops = Vec::with_capacity(n_locs);
        let mut mo = Vec::with_capacity(n_locs);
        for (i, init) in inits.iter().enumerate() {
            let loc = Loc(i as u16);
            let act = match *init {
                InitLoc::Var(v) => OpAction::Write { v, rel: false },
                InitLoc::Obj => OpAction::Method(MethodOp::Init),
            };
            // Initialising writes belong to no particular thread; use T0.
            ops.push(OpRecord { loc, tid: Tid(0), act });
            mo.push(vec![OpId(i as u32)]);
        }
        // `count` rows of the initial view over `width` locations.
        let rows = |width: usize, count: usize| -> Vec<OpId> {
            (0..count).flat_map(|_| (0..width as u32).map(OpId)).collect()
        };
        CState {
            comp,
            ops,
            mo,
            rank: vec![0; n_locs],
            n_threads,
            n_other,
            tview: rows(n_locs, n_threads),
            mview_own: rows(n_locs, n_locs),
            mview_other: rows(n_other, n_locs),
            cvd: vec![false; n_locs],
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of recorded operations.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of locations.
    #[inline]
    pub fn n_locs(&self) -> usize {
        self.mo.len()
    }

    /// Number of threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Approximate heap footprint of this component state in bytes — the
    /// per-state cost an interned arena pays to hold it. Used by the
    /// exploration engines' memory budget (`StopReason::MemBudget` in
    /// rc11-check); an estimate, not an allocator-exact measurement.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let view_entries = self.tview.len() + self.mview_own.len() + self.mview_other.len();
        size_of::<CState>()
            + self.ops.len() * size_of::<OpRecord>()
            + self
                .mo
                .iter()
                .map(|m| size_of::<Vec<OpId>>() + m.len() * size_of::<OpId>())
                .sum::<usize>()
            + self.rank.len() * size_of::<u32>()
            + view_entries * size_of::<OpId>()
            + self.cvd.len()
    }

    /// The record of operation `w`.
    #[inline]
    pub fn op(&self, w: OpId) -> &OpRecord {
        &self.ops[w.idx()]
    }

    /// The timestamp rank of `w` within its location's modification order.
    #[inline]
    pub fn rank_of(&self, w: OpId) -> u32 {
        self.rank[w.idx()]
    }

    /// `cvd` membership: is `w` covered?
    #[inline]
    pub fn is_covered(&self, w: OpId) -> bool {
        self.cvd[w.idx()]
    }

    /// Mark `w` covered (used by updates and by object semantics such as the
    /// Figure-6 `Acquire`, which covers the release it observed).
    #[inline]
    pub fn cover(&mut self, w: OpId) {
        self.cvd[w.idx()] = true;
    }

    /// The modification order of `loc`, oldest first.
    #[inline]
    pub fn mo(&self, loc: Loc) -> &[OpId] {
        &self.mo[loc.idx()]
    }

    /// The operation with the maximal timestamp on `loc` — the paper's
    /// `maxTS(o, σ)` witness (Figure 6 requires lock operations to observe
    /// it).
    #[inline]
    pub fn max_op(&self, loc: Loc) -> OpId {
        *self.mo[loc.idx()].last().expect("every location is initialised")
    }

    /// Thread `t`'s viewfront.
    #[inline]
    pub fn tview(&self, t: Tid) -> View<'_> {
        View::new(row(&self.tview, self.n_locs(), t.idx()))
    }

    /// Mutable thread viewfront (object semantics update it directly).
    #[inline]
    pub fn tview_mut(&mut self, t: Tid) -> ViewMut<'_> {
        let width = self.n_locs();
        ViewMut::new(row_mut(&mut self.tview, width, t.idx()))
    }

    /// The own-component half of `w`'s modification view.
    #[inline]
    pub fn mview_own(&self, w: OpId) -> View<'_> {
        View::new(row(&self.mview_own, self.n_locs(), w.idx()))
    }

    /// The cross-component half of `w`'s modification view (entries refer to
    /// the *other* component's operations).
    #[inline]
    pub fn mview_other(&self, w: OpId) -> View<'_> {
        View::new(row(&self.mview_other, self.n_other, w.idx()))
    }

    /// Synchronise thread `t` with operation `w` of this component:
    /// `tview_t := tview_t ⊗ mview_own(w)` here and
    /// `ctx.tview_t := ctx.tview_t ⊗ mview_other(w)` in the other component
    /// — what an acquiring read of a releasing operation does (Figure 5),
    /// and what the object rules that synchronise do (Figure 6).
    pub fn sync_with(&mut self, w: OpId, t: Tid, ctx: &mut CState) {
        debug_assert_eq!(self.n_other, ctx.n_locs(), "context is not the other component");
        let n = self.n_locs();
        let rank = &self.rank;
        ViewMut::new(row_mut(&mut self.tview, n, t.idx()))
            .join(View::new(row(&self.mview_own, n, w.idx())), |x| rank[x.idx()]);
        let no = self.n_other;
        let ctx_rank = &ctx.rank;
        ViewMut::new(row_mut(&mut ctx.tview, no, t.idx()))
            .join(View::new(row(&self.mview_other, no, w.idx())), |x| ctx_rank[x.idx()]);
    }

    /// Record thread `t`'s current views of both components as `w`'s
    /// modification view: `mview(w) := tview_t ∪ ctx.tview_t` — what every
    /// rule creating an operation does once the executing thread's views
    /// are final.
    pub fn record_mview(&mut self, w: OpId, t: Tid, ctx: &CState) {
        debug_assert_eq!(self.n_other, ctx.n_locs(), "context is not the other component");
        let n = self.n_locs();
        row_mut(&mut self.mview_own, n, w.idx()).copy_from_slice(row(&self.tview, n, t.idx()));
        let no = self.n_other;
        row_mut(&mut self.mview_other, no, w.idx()).copy_from_slice(row(&ctx.tview, no, t.idx()));
    }

    // ------------------------------------------------------------------
    // Observability (Section 3.3)
    // ------------------------------------------------------------------

    /// `Obs(t, x)` — the operations on `x` observable to `t`: those whose
    /// timestamp is at least the timestamp of `tview_t(x)`.
    pub fn obs(&self, t: Tid, loc: Loc) -> &[OpId] {
        let front = self.tview(t).get(loc);
        let from = self.rank[front.idx()] as usize;
        &self.mo[loc.idx()][from..]
    }

    /// `Obs(t, x) \ cvd` — observable and not covered: the legal predecessors
    /// for a new write or update by `t` (Figure 5 Write/Update premises).
    pub fn obs_uncovered<'a>(&'a self, t: Tid, loc: Loc) -> impl Iterator<Item = OpId> + 'a {
        self.obs(t, loc).iter().copied().filter(move |w| !self.cvd[w.idx()])
    }

    // ------------------------------------------------------------------
    // History mutation (used by the transition rules and object semantics)
    // ------------------------------------------------------------------

    /// Append a new operation *immediately after* `after` in its location's
    /// modification order — the fast-engine realisation of Figure 5's
    /// `fresh(q, q')`. Returns the new id.
    ///
    /// The new operation's `mview` rows are placeholders, to be filled by
    /// [`CState::record_mview`] once the executing thread's views are final.
    pub fn insert_after(&mut self, after: OpId, rec: OpRecord) -> OpId {
        debug_assert_eq!(self.op(after).loc, rec.loc, "predecessor on a different location");
        let id = OpId(self.ops.len() as u32);
        let loc = rec.loc;
        let pos = self.rank[after.idx()] as usize + 1;
        self.ops.push(rec);
        self.cvd.push(false);
        self.rank.push(pos as u32);
        let mo = &mut self.mo[loc.idx()];
        mo.insert(pos, id);
        for &w in &mo[pos + 1..] {
            self.rank[w.idx()] += 1;
        }
        // Placeholder rows; callers overwrite via record_mview.
        let (n, no) = (self.n_locs(), self.n_other);
        self.mview_own.resize(self.mview_own.len() + n, OpId(0));
        self.mview_other.resize(self.mview_other.len() + no, OpId(0));
        id
    }

    /// Append a new operation with the *maximal* timestamp on its location —
    /// the Figure-6 discipline for lock operations ("each new lock operation
    /// must have a larger timestamp than all existing operations").
    pub fn insert_at_max(&mut self, rec: OpRecord) -> OpId {
        let last = self.max_op(rec.loc);
        self.insert_after(last, rec)
    }

    /// Internal consistency check, used by tests and `debug_assert`s.
    pub fn check_invariants(&self) {
        let n = self.ops.len();
        let n_locs = self.mo.len();
        assert_eq!(self.rank.len(), n);
        assert_eq!(self.cvd.len(), n);
        assert_eq!(self.tview.len(), self.n_threads * n_locs);
        assert_eq!(self.mview_own.len(), n * n_locs);
        assert_eq!(self.mview_other.len(), n * self.n_other);
        let mut seen = vec![false; n];
        for (li, mo) in self.mo.iter().enumerate() {
            for (pos, &w) in mo.iter().enumerate() {
                assert!(!seen[w.idx()], "op {w} appears twice in mo");
                seen[w.idx()] = true;
                assert_eq!(self.ops[w.idx()].loc.idx(), li, "op {w} in wrong mo vector");
                assert_eq!(self.rank[w.idx()] as usize, pos, "rank out of sync for {w}");
            }
        }
        assert!(seen.iter().all(|&s| s), "op missing from its mo vector");
        for t in 0..self.n_threads {
            for (li, w) in self.tview(Tid(t as u8)).iter() {
                assert_eq!(self.ops[w.idx()].loc.idx(), li, "tview entry on wrong location");
            }
        }
    }

    /// All operations on `loc` whose recorded action is a method operation,
    /// in timestamp order — used by object semantics and object assertions.
    pub fn method_ops<'a>(&'a self, loc: Loc) -> impl Iterator<Item = (OpId, MethodOp)> + 'a {
        self.mo(loc).iter().filter_map(move |&w| self.op(w).act.method().map(|m| (w, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_var_state() -> CState {
        CState::init(Comp::Client, &[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))], 2, 0)
    }

    #[test]
    fn init_shape() {
        let st = two_var_state();
        st.check_invariants();
        assert_eq!(st.n_ops(), 2);
        assert_eq!(st.n_locs(), 2);
        assert_eq!(st.max_op(Loc(0)), OpId(0));
        assert_eq!(st.max_op(Loc(1)), OpId(1));
        assert_eq!(st.tview(Tid(0)).get(Loc(0)), OpId(0));
        assert!(!st.is_covered(OpId(0)));
    }

    #[test]
    fn obs_initially_sees_init_only() {
        let st = two_var_state();
        assert_eq!(st.obs(Tid(0), Loc(0)), &[OpId(0)]);
        assert_eq!(st.obs(Tid(1), Loc(1)), &[OpId(1)]);
    }

    #[test]
    fn insert_after_places_immediately_after() {
        let mut st = two_var_state();
        let w1 = st.insert_after(
            OpId(0),
            OpRecord { loc: Loc(0), tid: Tid(0), act: OpAction::Write { v: Val::Int(1), rel: false } },
        );
        let w2 = st.insert_after(
            OpId(0),
            OpRecord { loc: Loc(0), tid: Tid(1), act: OpAction::Write { v: Val::Int(2), rel: false } },
        );
        // w2 inserted after init but before w1: mo = [init, w2, w1].
        assert_eq!(st.mo(Loc(0)), &[OpId(0), w2, w1]);
        assert_eq!(st.rank_of(w2), 1);
        assert_eq!(st.rank_of(w1), 2);
        st.check_invariants();
    }

    #[test]
    fn insert_at_max_goes_last() {
        let mut st = two_var_state();
        let a = st.insert_at_max(OpRecord {
            loc: Loc(1),
            tid: Tid(0),
            act: OpAction::Write { v: Val::Int(1), rel: true },
        });
        let b = st.insert_at_max(OpRecord {
            loc: Loc(1),
            tid: Tid(1),
            act: OpAction::Write { v: Val::Int(2), rel: true },
        });
        assert_eq!(st.mo(Loc(1)), &[OpId(1), a, b]);
        assert_eq!(st.max_op(Loc(1)), b);
    }

    #[test]
    fn obs_respects_tview_front() {
        let mut st = two_var_state();
        let w1 = st.insert_at_max(OpRecord {
            loc: Loc(0),
            tid: Tid(0),
            act: OpAction::Write { v: Val::Int(1), rel: false },
        });
        // T0 moves its view to w1; T1 still sees both.
        st.tview_mut(Tid(0)).set(Loc(0), w1);
        assert_eq!(st.obs(Tid(0), Loc(0)), &[w1]);
        assert_eq!(st.obs(Tid(1), Loc(0)), &[OpId(0), w1]);
    }

    #[test]
    fn covered_ops_are_skipped_for_writes() {
        let mut st = two_var_state();
        st.cover(OpId(0));
        let preds: Vec<_> = st.obs_uncovered(Tid(0), Loc(0)).collect();
        assert!(preds.is_empty());
    }
}
