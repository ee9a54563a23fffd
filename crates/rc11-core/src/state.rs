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
//! Layout: a state owns two heap buffers, whatever its thread, location or
//! operation count — the op records, and one table of 32-bit words
//! holding everything else in four sections:
//!
//! ```text
//! [ mo offsets: n_locs + 1 ][ tview: n_threads × n_locs ]
//! [ op rows: n_ops × (2 + n_locs + n_other) ][ mo: n_ops ]
//! ```
//!
//! The offsets delimit each location's slice of the flattened `mo`
//! section (the last one is `n_ops`). Row `t` of `tview` is thread `t`'s
//! viewfront. Op row `w` is `[rank, cvd, mview_own…, mview_other…]`: the
//! rank and covered flag of operation `w`, then both halves of its
//! modification view — the own half as wide as this component's location
//! count, the cross half as wide as the *other* component's. The words
//! are typed [`OpId`] because nearly all of them are operation ids (view
//! entries and `mo`); an offset, rank or covered flag is the plain number
//! inside its `OpId`. Accessors hand rows out as borrowed
//! [`View`]s, so cloning a state copies exactly two buffers, and the
//! canonical form of a state (op ids in `(location, mo-position)` order)
//! has a table that is a pure function of its content.

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

/// Offset of the rank word within an op row.
const RANK: usize = 0;
/// Offset of the covered flag within an op row.
const CVD: usize = 1;
/// Offset of the own half of the modification view within an op row.
const MVIEW: usize = 2;

/// A component state (`γ` or `β`) of the fast engine.
///
/// Invariants (checked by [`CState::check_invariants`] in tests):
/// * the table has exactly the four sections of the module docs, sized by
///   the location, thread, operation and other-component location counts;
/// * every location's `mo` slice permutes exactly the ops on that
///   location, and the rank in `w`'s op row is `w`'s position in it;
/// * every view entry for location `x` is an operation on `x`;
/// * thread views only move forward over time (monotonicity — enforced by
///   the transition rules, asserted in property tests).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct CState {
    /// Which component this is (`γ` = client, `β` = library).
    pub comp: Comp,
    /// Number of locations (width of `tview` and `mview_own`).
    pub(crate) n_locs: usize,
    /// Number of threads (rows of `tview`).
    pub(crate) n_threads: usize,
    /// The other component's location count (width of `mview_other`).
    pub(crate) n_other: usize,
    pub(crate) ops: Vec<OpRecord>,
    /// Offsets, thread views, op rows and modification orders (see the
    /// module docs).
    pub(crate) tab: Vec<OpId>,
}

impl Clone for CState {
    fn clone(&self) -> CState {
        CState { ops: self.ops.clone(), tab: self.tab.clone(), ..*self }
    }

    /// Field-wise, reusing both buffers: refilling a state that has grown
    /// to the source's size allocates nothing (how the walk's successor
    /// pool reuses its configurations).
    fn clone_from(&mut self, src: &CState) {
        (self.comp, self.n_locs, self.n_threads, self.n_other) =
            (src.comp, src.n_locs, src.n_threads, src.n_other);
        self.ops.clone_from(&src.ops);
        self.tab.clone_from(&src.tab);
    }
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
        let ops = inits
            .iter()
            .enumerate()
            .map(|(i, init)| {
                let act = match *init {
                    InitLoc::Var(v) => OpAction::Write { v, rel: false },
                    InitLoc::Obj => OpAction::Method(MethodOp::Init),
                };
                // Initialising writes belong to no particular thread; use T0.
                OpRecord { loc: Loc(i as u16), tid: Tid(0), act }
            })
            .collect();
        let mut tab = Vec::with_capacity(Self::init_words(n_locs, n_threads, n_other));
        let ids = |n: usize| (0..n as u32).map(OpId);
        // Location `i`'s modification order is its initialising op alone.
        tab.extend(ids(n_locs + 1));
        for _ in 0..n_threads {
            tab.extend(ids(n_locs));
        }
        for _ in 0..n_locs {
            tab.extend([OpId(0), OpId(0)]);
            tab.extend(ids(n_locs));
            tab.extend(ids(n_other));
        }
        tab.extend(ids(n_locs));
        CState { comp, n_locs, n_threads, n_other, ops, tab }
    }

    /// The table length of [`CState::init`]'s state.
    fn init_words(n_locs: usize, n_threads: usize, n_other: usize) -> usize {
        n_locs + 1 + (n_threads + MVIEW + n_locs + n_other + 1) * n_locs
    }

    /// The [`CState::approx_bytes`] of the state [`CState::init`] builds
    /// for these counts, computed without building it — its table grows
    /// with the square of the location count, so a caller with a memory
    /// budget checks this first.
    pub fn init_bytes(n_locs: usize, n_threads: usize, n_other: usize) -> usize {
        use std::mem::size_of;
        size_of::<CState>()
            + n_locs * size_of::<OpRecord>()
            + Self::init_words(n_locs, n_threads, n_other) * size_of::<OpId>()
    }

    /// A copy with room for one more operation: inserting it (see
    /// [`CState::insert_after`]) then grows neither buffer.
    pub(crate) fn clone_with_room(&self) -> CState {
        let mut ops = Vec::with_capacity(self.ops.len() + 1);
        ops.extend_from_slice(&self.ops);
        let mut tab = Vec::with_capacity(self.tab.len() + self.stride() + 1);
        tab.extend_from_slice(&self.tab);
        CState { ops, tab, ..*self }
    }

    /// Overwrite `out` with this state's threads permuted by
    /// `sigma[old] = new`, reusing `out`'s buffers: the op records of
    /// non-initialisation operations renamed ([`crate::canon`]'s
    /// `permute_rec`) and each thread view moved to its new row. Op ids
    /// are untouched, so a canonical state stays canonical. The in-place
    /// form of [`CState::renumbered`] under identity op permutations.
    pub(crate) fn permuted_into(&self, sigma: &[u8], out: &mut CState) {
        out.clone_from(self);
        for (w, rec) in self.ops.iter().enumerate() {
            if self.rank_of(OpId(w as u32)) > 0 {
                out.ops[w] = crate::canon::permute_rec(*rec, sigma);
            }
        }
        let (base, width) = (self.tview_base(), self.n_locs);
        for (t, &new_t) in sigma.iter().enumerate() {
            let (from, to) = (base + t * width, base + new_t as usize * width);
            out.tab[to..to + width].copy_from_slice(&self.tab[from..from + width]);
        }
    }

    // ------------------------------------------------------------------
    // Table geometry
    // ------------------------------------------------------------------

    /// Words per op row.
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        MVIEW + self.n_locs + self.n_other
    }

    /// Start of the thread-view section.
    #[inline]
    fn tview_base(&self) -> usize {
        self.n_locs + 1
    }

    /// Start of the op-row section.
    #[inline]
    fn rows_base(&self) -> usize {
        self.n_locs + 1 + self.n_threads * self.n_locs
    }

    /// Start of `w`'s op row.
    #[inline]
    fn row_at(&self, w: OpId) -> usize {
        self.rows_base() + w.idx() * self.stride()
    }

    /// Start of the flattened modification-order section.
    #[inline]
    fn mo_base(&self) -> usize {
        self.rows_base() + self.ops.len() * self.stride()
    }

    /// Every location's modification order, location by location — the
    /// canonical id order (canonicalisation numbers ops by position here).
    #[inline]
    pub(crate) fn mo_all(&self) -> &[OpId] {
        &self.tab[self.mo_base()..]
    }

    /// This state with op ids renumbered by `perm` (own ids) and
    /// `perm_other` (ids in cross-component view halves), and — when
    /// `tperm` is given — thread ids permuted by `tperm[old] = new`: the
    /// materialised reference form of canonicalisation (`crate::canon`).
    /// Initialisation operations (modification-order position 0 on every
    /// location) belong to no thread and keep their dummy `Tid(0)`.
    /// Renumbering leaves every op's modification-order position, hence
    /// its rank and the `mo` offsets, as is. Allocates exactly the two
    /// buffers of the result.
    pub(crate) fn renumbered(
        &self,
        perm: &[OpId],
        perm_other: &[OpId],
        tperm: Option<&[u8]>,
    ) -> CState {
        let (n, width, stride) = (self.ops.len(), self.n_locs, self.stride());
        let mut ops = self.ops.clone();
        let mut tab = vec![OpId(0); self.tab.len()];
        tab[..=width].copy_from_slice(&self.tab[..=width]);
        let tview = self.tview_base();
        for old_t in 0..self.n_threads {
            let new_t = tperm.map_or(old_t, |sigma| sigma[old_t] as usize);
            let dst = tview + new_t * width;
            self.tview(Tid(old_t as u8)).remap_into(perm, &mut tab[dst..dst + width]);
        }
        let rows = self.rows_base();
        for (old, &rec) in self.ops.iter().enumerate() {
            let (rank, covered, own, other) = self.op_row(OpId(old as u32));
            let new = perm[old].idx();
            ops[new] = match tperm {
                Some(sigma) if rank > 0 => crate::canon::permute_rec(rec, sigma),
                _ => rec,
            };
            let row = &mut tab[rows + new * stride..rows + (new + 1) * stride];
            row[RANK] = OpId(rank);
            row[CVD] = OpId(covered as u32);
            let (own_dst, other_dst) = row[MVIEW..].split_at_mut(width);
            own.remap_into(perm, own_dst);
            other.remap_into(perm_other, other_dst);
        }
        for (dst, &w) in tab[rows + n * stride..].iter_mut().zip(self.mo_all()) {
            *dst = perm[w.idx()];
        }
        CState { ops, tab, ..*self }
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
        self.n_locs
    }

    /// Number of threads.
    #[inline]
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Approximate heap footprint of this component state in bytes (its
    /// two buffers and the struct holding them); an estimate, not an
    /// allocator-exact measurement.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<CState>()
            + self.ops.len() * size_of::<OpRecord>()
            + self.tab.len() * size_of::<OpId>()
    }

    /// The record of operation `w`.
    #[inline]
    pub fn op(&self, w: OpId) -> &OpRecord {
        &self.ops[w.idx()]
    }

    /// The timestamp rank of `w` within its location's modification order.
    #[inline]
    pub fn rank_of(&self, w: OpId) -> u32 {
        self.tab[self.row_at(w) + RANK].0
    }

    /// `cvd` membership: is `w` covered?
    #[inline]
    pub fn is_covered(&self, w: OpId) -> bool {
        self.tab[self.row_at(w) + CVD] != OpId(0)
    }

    /// Mark `w` covered (used by updates and by object semantics such as the
    /// Figure-6 `Acquire`, which covers the release it observed).
    #[inline]
    pub fn cover(&mut self, w: OpId) {
        let at = self.row_at(w) + CVD;
        self.tab[at] = OpId(1);
    }

    /// The modification order of `loc`, oldest first.
    #[inline]
    pub fn mo(&self, loc: Loc) -> &[OpId] {
        let base = self.mo_base();
        let (from, to) = (self.tab[loc.idx()].idx(), self.tab[loc.idx() + 1].idx());
        &self.tab[base + from..base + to]
    }

    /// The operation with the maximal timestamp on `loc` — the paper's
    /// `maxTS(o, σ)` witness (Figure 6 requires lock operations to observe
    /// it).
    #[inline]
    pub fn max_op(&self, loc: Loc) -> OpId {
        *self.mo(loc).last().expect("every location is initialised")
    }

    /// Thread `t`'s viewfront.
    #[inline]
    pub fn tview(&self, t: Tid) -> View<'_> {
        let at = self.tview_base() + t.idx() * self.n_locs;
        View::new(&self.tab[at..at + self.n_locs])
    }

    /// Mutable thread viewfront (object semantics update it directly).
    #[inline]
    pub fn tview_mut(&mut self, t: Tid) -> ViewMut<'_> {
        let at = self.tview_base() + t.idx() * self.n_locs;
        let n = self.n_locs;
        ViewMut::new(&mut self.tab[at..at + n])
    }

    /// Operation `w`'s whole row, split: its rank, its covered flag, and
    /// the own and cross halves of its modification view — one lookup
    /// for the canonical encoding, which reads them all.
    #[inline]
    pub(crate) fn op_row(&self, w: OpId) -> (u32, bool, View<'_>, View<'_>) {
        let at = self.row_at(w);
        let row = &self.tab[at..at + self.stride()];
        let (own, other) = row[MVIEW..].split_at(self.n_locs);
        (row[RANK].0, row[CVD] != OpId(0), View::new(own), View::new(other))
    }

    /// The own-component half of `w`'s modification view.
    #[inline]
    pub fn mview_own(&self, w: OpId) -> View<'_> {
        let at = self.row_at(w) + MVIEW;
        View::new(&self.tab[at..at + self.n_locs])
    }

    /// The cross-component half of `w`'s modification view (entries refer to
    /// the *other* component's operations).
    #[inline]
    pub fn mview_other(&self, w: OpId) -> View<'_> {
        let at = self.row_at(w) + MVIEW + self.n_locs;
        View::new(&self.tab[at..at + self.n_other])
    }

    /// Synchronise thread `t` with operation `w` of this component:
    /// `tview_t := tview_t ⊗ mview_own(w)` here and
    /// `ctx.tview_t := ctx.tview_t ⊗ mview_other(w)` in the other component
    /// — what an acquiring read of a releasing operation does (Figure 5),
    /// and what the object rules that synchronise do (Figure 6).
    pub fn sync_with(&mut self, w: OpId, t: Tid, ctx: &mut CState) {
        debug_assert_eq!(self.n_other, ctx.n_locs(), "context is not the other component");
        let (n, no, stride) = (self.n_locs, self.n_other, self.stride());
        let tv = self.tview_base() + t.idx() * n;
        let base = self.rows_base();
        let src = w.idx() * stride + MVIEW;
        // Thread views precede the op rows: split the table between them.
        let (head, rows) = self.tab.split_at_mut(base);
        let rows = &*rows;
        let rank = |x: OpId| rows[x.idx() * stride + RANK].0;
        ViewMut::new(&mut head[tv..tv + n]).join(View::new(&rows[src..src + n]), rank);
        let other = View::new(&rows[src + n..src + n + no]);
        let (ctv, cbase, cstride) = (ctx.tview_base() + t.idx() * no, ctx.rows_base(), ctx.stride());
        let (chead, crows) = ctx.tab.split_at_mut(cbase);
        let crows = &*crows;
        ViewMut::new(&mut chead[ctv..ctv + no]).join(other, |x| crows[x.idx() * cstride + RANK].0);
    }

    /// Record thread `t`'s current views of both components as `w`'s
    /// modification view: `mview(w) := tview_t ∪ ctx.tview_t` — what every
    /// rule creating an operation does once the executing thread's views
    /// are final.
    pub fn record_mview(&mut self, w: OpId, t: Tid, ctx: &CState) {
        debug_assert_eq!(self.n_other, ctx.n_locs(), "context is not the other component");
        let (n, no) = (self.n_locs, self.n_other);
        let tv = self.tview_base() + t.idx() * n;
        let ctv = ctx.tview_base() + t.idx() * no;
        let dst = self.row_at(w) + MVIEW;
        self.tab.copy_within(tv..tv + n, dst);
        self.tab[dst + n..dst + n + no].copy_from_slice(&ctx.tab[ctv..ctv + no]);
    }

    // ------------------------------------------------------------------
    // Observability (Section 3.3)
    // ------------------------------------------------------------------

    /// `Obs(t, x)` — the operations on `x` observable to `t`: those whose
    /// timestamp is at least the timestamp of `tview_t(x)`.
    pub fn obs(&self, t: Tid, loc: Loc) -> &[OpId] {
        let front = self.tview(t).get(loc);
        let from = self.rank_of(front) as usize;
        &self.mo(loc)[from..]
    }

    /// `Obs(t, x) \ cvd` — observable and not covered: the legal predecessors
    /// for a new write or update by `t` (Figure 5 Write/Update premises).
    pub fn obs_uncovered<'a>(&'a self, t: Tid, loc: Loc) -> impl Iterator<Item = OpId> + 'a {
        self.obs(t, loc).iter().copied().filter(move |&w| !self.is_covered(w))
    }

    // ------------------------------------------------------------------
    // History mutation (used by the transition rules and object semantics)
    // ------------------------------------------------------------------

    /// Append a new operation *immediately after* `after` in its location's
    /// modification order — the fast-engine realisation of Figure 5's
    /// `fresh(q, q')`. Returns the new id.
    ///
    /// The new operation's `mview` halves are placeholders, to be filled by
    /// [`CState::record_mview`] once the executing thread's views are final.
    pub fn insert_after(&mut self, after: OpId, rec: OpRecord) -> OpId {
        debug_assert_eq!(self.op(after).loc, rec.loc, "predecessor on a different location");
        let id = self.ops.len();
        let loc = rec.loc.idx();
        let pos = self.rank_of(after) as usize + 1;
        let (base, stride) = (self.rows_base(), self.stride());
        let old_mo = self.mo_base();
        let len = self.tab.len();
        self.ops.push(rec);
        // The new op row goes where `mo` starts: shift `mo` up by a row
        // (plus the slot the new entry needs) and fill the row in.
        self.tab.resize(len + stride + 1, OpId(0));
        self.tab.copy_within(old_mo..len, old_mo + stride);
        let row = &mut self.tab[old_mo..old_mo + stride];
        row.fill(OpId(0));
        row[RANK] = OpId(pos as u32);
        // Insert the id at position `pos` of the location's `mo` slice.
        let (mo, new) = (old_mo + stride, OpId(id as u32));
        let at = mo + self.tab[loc].idx() + pos;
        self.tab.copy_within(at..mo + id, at + 1);
        self.tab[at] = new;
        for off in &mut self.tab[loc + 1..=self.n_locs] {
            off.0 += 1;
        }
        // Every later op on the location moves one rank up.
        let end = mo + self.tab[loc + 1].idx();
        for i in at + 1..end {
            let w = self.tab[i].idx();
            self.tab[base + w * stride + RANK].0 += 1;
        }
        new
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
        let n_locs = self.n_locs;
        assert_eq!(
            self.tab.len(),
            n_locs + 1 + self.n_threads * n_locs + n * self.stride() + n,
            "table sections out of shape"
        );
        assert_eq!(self.tab[0], OpId(0), "first mo offset");
        assert_eq!(self.tab[n_locs].idx(), n, "last mo offset");
        let mut seen = vec![false; n];
        for li in 0..n_locs {
            assert!(self.tab[li] <= self.tab[li + 1], "mo offsets decrease");
            for (pos, &w) in self.mo(Loc(li as u16)).iter().enumerate() {
                assert!(!seen[w.idx()], "op {w} appears twice in mo");
                seen[w.idx()] = true;
                assert_eq!(self.ops[w.idx()].loc.idx(), li, "op {w} in wrong mo slice");
                assert_eq!(self.rank_of(w) as usize, pos, "rank out of sync for {w}");
            }
        }
        assert!(seen.iter().all(|&s| s), "op missing from its mo slice");
        for w in 0..n {
            assert!(self.tab[self.row_at(OpId(w as u32)) + CVD].0 <= 1, "cvd flag not 0/1");
        }
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

    /// `init_bytes` predicts the built state's footprint exactly.
    #[test]
    fn init_bytes_matches_the_built_state() {
        for (locs, threads, other) in [(0, 1, 0), (2, 2, 0), (5, 3, 4), (40, 7, 9)] {
            let inits = vec![InitLoc::Var(Val::Int(0)); locs];
            let st = CState::init(Comp::Lib, &inits, threads, other);
            assert_eq!(CState::init_bytes(locs, threads, other), st.approx_bytes());
        }
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
