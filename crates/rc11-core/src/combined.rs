//! The combined client–library memory state and the Figure-5 transition
//! relation `γ, β ⟿ₜᵃ γ', β'`.
//!
//! Every transition is executed against a pair of component states: the
//! *executing* component `γ` and its *context* `β` (Section 3.2). For a
//! client step the client state is `γ`; for a library step the roles swap —
//! [`Combined`] holds both and each step names the executing [`Comp`].
//!
//! Nondeterminism is explicit: `*_choices`/`*_preds` enumerate the premises
//! Figure 5 existentially quantifies over (which observable write a read
//! reads from; which uncovered observable write a write/update succeeds),
//! and `apply_*` builds the unique successor state for one choice. The
//! explorer (rc11-check) fans out over all choices.

use crate::action::OpAction;
use crate::ids::{Comp, Loc, OpId, Tid};
use crate::state::{CState, InitLoc, OpRecord};
use crate::val::Val;

/// One possible result of a read: the operation read from and its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadChoice {
    /// The observable operation the read reads from.
    pub from: OpId,
    /// `wrval(from)` — the value returned.
    pub val: Val,
}

/// The combined memory state: client component + library component.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Combined {
    states: [CState; 2],
}

impl Clone for Combined {
    fn clone(&self) -> Combined {
        Combined { states: self.states.clone() }
    }

    /// Component by component, reusing every buffer (see
    /// [`CState`]'s `clone_from`).
    fn clone_from(&mut self, src: &Combined) {
        let ([c, l], [sc, sl]) = (&mut self.states, &src.states);
        c.clone_from(sc);
        l.clone_from(sl);
    }
}

impl Combined {
    /// Initialise both components (Section 3.3 `Initialisation`): every
    /// location gets a timestamp-0 operation, all thread views point at the
    /// initialising operations, and every initial operation's modification
    /// view spans both components' initial views
    /// (`γInit.mview_x = γInit.tview_t ∪ βInit.tview_t`).
    pub fn new(client_inits: &[InitLoc], lib_inits: &[InitLoc], n_threads: usize) -> Combined {
        assert!(n_threads >= 1, "at least one thread");
        let client = CState::init(Comp::Client, client_inits, n_threads, lib_inits.len());
        let lib = CState::init(Comp::Lib, lib_inits, n_threads, client_inits.len());
        Combined { states: [client, lib] }
    }

    /// Reassemble a combined state from its two components (used by
    /// canonicalisation and decoding). The components must agree on
    /// thread count and be tagged `Client`/`Lib` respectively.
    pub(crate) fn from_parts(client: CState, lib: CState) -> Combined {
        debug_assert_eq!(client.comp, Comp::Client);
        debug_assert_eq!(lib.comp, Comp::Lib);
        Combined { states: [client, lib] }
    }

    /// A copy of this state whose component `c` has room for one more
    /// operation: the step that inserts it then reallocates nothing, so a
    /// successor costs one allocation per buffer.
    #[must_use]
    pub fn with_room(&self, c: Comp) -> Combined {
        let [client, lib] = &self.states;
        match c {
            Comp::Client => Combined { states: [client.clone_with_room(), lib.clone()] },
            Comp::Lib => Combined { states: [client.clone(), lib.clone_with_room()] },
        }
    }

    /// Overwrite `out` with this state's threads permuted by
    /// `sigma[old] = new`, reusing `out`'s buffers: what
    /// [`Combined::permute_threads`] builds. Op ids are untouched, so the
    /// permutation of a canonical state is canonical.
    pub fn permuted_into(&self, sigma: &[u8], out: &mut Combined) {
        for (st, o) in self.states.iter().zip(&mut out.states) {
            st.permuted_into(sigma, o);
        }
    }

    /// The client component state `γ`.
    #[inline]
    pub fn client(&self) -> &CState {
        &self.states[0]
    }

    /// The library component state `β`.
    #[inline]
    pub fn lib(&self) -> &CState {
        &self.states[1]
    }

    /// Approximate heap footprint of both component states in bytes (see
    /// [`CState::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.states.iter().map(CState::approx_bytes).sum()
    }

    /// The state of component `c`.
    #[inline]
    pub fn comp(&self, c: Comp) -> &CState {
        &self.states[c.idx()]
    }

    /// Mutable state of component `c`.
    #[inline]
    pub fn comp_mut(&mut self, c: Comp) -> &mut CState {
        &mut self.states[c.idx()]
    }

    /// Split-borrow `(executing, context)` for a step in component `c`.
    #[inline]
    pub fn exec_ctx_mut(&mut self, c: Comp) -> (&mut CState, &mut CState) {
        let [client, lib] = &mut self.states;
        match c {
            Comp::Client => (client, lib),
            Comp::Lib => (lib, client),
        }
    }

    /// Check both components' internal invariants (test helper).
    pub fn check_invariants(&self) {
        self.states[0].check_invariants();
        self.states[1].check_invariants();
    }

    // ------------------------------------------------------------------
    // Read transitions (Figure 5, `Read`)
    // ------------------------------------------------------------------

    /// All operations a read of `loc` by `t` in component `c` may read from:
    /// `{ (w, q) ∈ Obs(t, x) }`, with their values.
    pub fn read_choices(&self, c: Comp, t: Tid, loc: Loc) -> Vec<ReadChoice> {
        self.comp(c)
            .obs(t, loc)
            .iter()
            .map(|&w| ReadChoice { from: w, val: self.comp(c).op(w).act.wrval() })
            .collect()
    }

    /// Apply a read (`rd` / `rd^A`) of `loc` by `t` reading from `from`:
    /// [`Combined::step_read`] on a copy.
    #[must_use]
    pub fn apply_read(&self, c: Comp, t: Tid, loc: Loc, acq: bool, from: OpId) -> Combined {
        let mut next = self.clone();
        next.step_read(c, t, loc, acq, from);
        next
    }

    /// Take a read (`rd` / `rd^A`) of `loc` by `t` reading from `from`, in
    /// place.
    ///
    /// An acquiring read of a releasing write synchronises: the executing
    /// component's thread view joins the write's own-half `mview`, and the
    /// *context* thread view joins the cross-half — this is how library
    /// synchronisation updates client views and vice versa.
    pub fn step_read(&mut self, c: Comp, t: Tid, loc: Loc, acq: bool, from: OpId) {
        let (exec, ctx) = self.exec_ctx_mut(c);
        let sync = acq && exec.op(from).act.is_releasing();
        if sync {
            exec.sync_with(from, t, ctx);
        } else {
            exec.tview_mut(t).set(loc, from);
        }
    }

    // ------------------------------------------------------------------
    // Write transitions (Figure 5, `Write`)
    // ------------------------------------------------------------------

    /// The legal predecessors for a new write: `Obs(t, x) \ cvd`.
    pub fn write_preds(&self, c: Comp, t: Tid, loc: Loc) -> Vec<OpId> {
        self.comp(c).obs_uncovered(t, loc).collect()
    }

    /// Apply a write (`wr` / `wr^R`) of `v` to `loc` after `after`:
    /// [`Combined::step_write`] on a copy made with room for the new
    /// operation.
    #[must_use]
    pub fn apply_write(
        &self,
        c: Comp,
        t: Tid,
        loc: Loc,
        v: Val,
        rel: bool,
        after: OpId,
    ) -> Combined {
        let mut next = self.with_room(c);
        next.step_write(c, t, loc, v, rel, after);
        next
    }

    /// Take a write (`wr` / `wr^R`) of `v` to `loc`, placed immediately
    /// after `after`, in place. The writer's view moves to the new write,
    /// and the new write's modification view records the writer's views
    /// of *both* components (`mview' = tview' ∪ β.tview_t`).
    pub fn step_write(&mut self, c: Comp, t: Tid, loc: Loc, v: Val, rel: bool, after: OpId) {
        let (exec, ctx) = self.exec_ctx_mut(c);
        debug_assert!(!exec.is_covered(after), "write after a covered op violates atomicity");
        let new = exec.insert_after(after, OpRecord { loc, tid: t, act: OpAction::Write { v, rel } });
        exec.tview_mut(t).set(loc, new);
        exec.record_mview(new, t, ctx);
    }

    // ------------------------------------------------------------------
    // Update transitions (Figure 5, `Update`)
    // ------------------------------------------------------------------

    /// The operations an update may interact with: `Obs(t, x) \ cvd`,
    /// optionally filtered to those whose `wrval` equals `expect` (the CAS
    /// success premise `wrval(w) = m`).
    pub fn update_preds(&self, c: Comp, t: Tid, loc: Loc, expect: Option<Val>) -> Vec<OpId> {
        self.comp(c)
            .obs_uncovered(t, loc)
            .filter(|&w| expect.is_none_or(|m| self.comp(c).op(w).act.wrval() == m))
            .collect()
    }

    /// `wrval` of an operation in component `c` — used by FAI to compute the
    /// written value from the chosen predecessor.
    pub fn wrval_of(&self, c: Comp, w: OpId) -> Val {
        self.comp(c).op(w).act.wrval()
    }

    /// Apply an update (`upd^RA`) writing `v`, interacting with `after`:
    /// [`Combined::step_update`] on a copy made with room for the new
    /// operation.
    #[must_use]
    pub fn apply_update(&self, c: Comp, t: Tid, loc: Loc, v: Val, after: OpId) -> Combined {
        let mut next = self.with_room(c);
        next.step_update(c, t, loc, v, after);
        next
    }

    /// Take an update (`upd^RA`) writing `v`, interacting with `after`, in
    /// place.
    ///
    /// Combines Read and Write: the interacted-with operation becomes
    /// covered (no later write may intervene — atomicity of read-modify-
    /// write), the updater's view includes the new operation, and if the
    /// covered operation was releasing, the update additionally synchronises
    /// like an acquiring read (both component views join the `mview`).
    pub fn step_update(&mut self, c: Comp, t: Tid, loc: Loc, v: Val, after: OpId) {
        let (exec, ctx) = self.exec_ctx_mut(c);
        debug_assert!(!exec.is_covered(after), "update of a covered op violates atomicity");
        let v_read = exec.op(after).act.wrval();
        let sync = exec.op(after).act.is_releasing();
        let new =
            exec.insert_after(after, OpRecord { loc, tid: t, act: OpAction::Update { v_read, v } });
        exec.cover(after);
        exec.tview_mut(t).set(loc, new);
        if sync {
            exec.sync_with(after, t, ctx);
        }
        exec.record_mview(new, t, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Loc = Loc(0); // client data variable
    const F: Loc = Loc(1); // client flag variable
    const T1: Tid = Tid(0);
    const T2: Tid = Tid(1);

    fn mp_state() -> Combined {
        // Client: d = 0, f = 0; empty library.
        Combined::new(&[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))], &[], 2)
    }

    #[test]
    fn init_mviews_span_both_components() {
        let s = Combined::new(&[InitLoc::Var(Val::Int(0))], &[InitLoc::Var(Val::Int(1))], 2);
        assert_eq!(s.client().mview_other(OpId(0)).len(), 1);
        assert_eq!(s.lib().mview_other(OpId(0)).len(), 1);
        s.check_invariants();
    }

    #[test]
    fn read_sees_initial_value() {
        let s = mp_state();
        let choices = s.read_choices(Comp::Client, T1, D);
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].val, Val::Int(0));
    }

    /// The message-passing litmus test at the memory level: with a relaxed
    /// flag write, the reader can see the flag yet read the stale data value.
    #[test]
    fn mp_relaxed_allows_stale_read() {
        let s = mp_state();
        // T1: d := 5; f :=(relaxed) 1
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        let s = s.apply_write(Comp::Client, T1, F, Val::Int(1), false, OpId(1));
        // T2 reads f = 1 (relaxed), then d: both 0 and 5 must be observable.
        let f_new = *s.client().mo(F).last().unwrap();
        let s = s.apply_read(Comp::Client, T2, F, false, f_new);
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert!(vals.contains(&Val::Int(0)), "stale read must be possible (relaxed)");
        assert!(vals.contains(&Val::Int(5)));
    }

    /// With release/acquire, seeing the flag forces seeing the data.
    #[test]
    fn mp_release_acquire_forbids_stale_read() {
        let s = mp_state();
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        let s = s.apply_write(Comp::Client, T1, F, Val::Int(1), true, OpId(1));
        let f_new = *s.client().mo(F).last().unwrap();
        let s = s.apply_read(Comp::Client, T2, F, true, f_new);
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)], "after synchronisation only d=5 is observable");
    }

    #[test]
    fn update_covers_predecessor() {
        let s = mp_state();
        let preds = s.update_preds(Comp::Client, T1, D, Some(Val::Int(0)));
        assert_eq!(preds, vec![OpId(0)]);
        let s = s.apply_update(Comp::Client, T1, D, Val::Int(1), OpId(0));
        assert!(s.client().is_covered(OpId(0)));
        // No write/update may now use the covered op as predecessor.
        assert!(s.update_preds(Comp::Client, T2, D, Some(Val::Int(0))).is_empty());
        s.check_invariants();
    }

    #[test]
    fn cas_expect_filters_preds() {
        let s = mp_state();
        assert!(s.update_preds(Comp::Client, T1, D, Some(Val::Int(7))).is_empty());
        assert_eq!(s.update_preds(Comp::Client, T1, D, None).len(), 1);
    }

    #[test]
    fn update_synchronises_with_releasing_pred() {
        // T1 writes d=5 then releases f=1; T2 CASes f 1->2: must then see d=5 only.
        let s = mp_state();
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        let s = s.apply_write(Comp::Client, T1, F, Val::Int(1), true, OpId(1));
        let f_new = *s.client().mo(F).last().unwrap();
        let s = s.apply_update(Comp::Client, T2, F, Val::Int(2), f_new);
        let vals: Vec<Val> =
            s.read_choices(Comp::Client, T2, D).iter().map(|c| c.val).collect();
        assert_eq!(vals, vec![Val::Int(5)]);
    }

    #[test]
    fn writes_by_other_threads_stay_observable_until_read() {
        let s = mp_state();
        let s = s.apply_write(Comp::Client, T1, D, Val::Int(5), false, OpId(0));
        // T2 never read d: still sees init and the new write.
        assert_eq!(s.read_choices(Comp::Client, T2, D).len(), 2);
        // T1 wrote it: sees only its own write.
        assert_eq!(s.read_choices(Comp::Client, T1, D).len(), 1);
    }
}
