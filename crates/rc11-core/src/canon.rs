//! Canonical renumbering of operation ids — and the one canonical
//! encoding the explorer stores, hashes and compares.
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
//! [`Combined::canonical`] *materialises* the canonical form through
//! `CState::renumbered`: the reference the oracle explorer
//! (`rc11_check::reference`) and the property tests use.
//! [`Combined::encode_canonical`] *encodes* it, in one walk and under an
//! optional thread permutation (symmetry reduction, A6), as `u32` words
//! appended to a reused buffer; [`Combined::decode_into`] is its inverse.
//! Two states encode equal exactly when their canonical forms are equal,
//! so the walk in rc11-check fingerprints, compares and stores words
//! (ablation A4 in DESIGN.md). The two share nothing but the permutations.
//!
//! The word format of one component, in order:
//!
//! ```text
//! [ n_locs, n_threads, n_other, n_ops ]
//! [ mo offsets: n_locs + 1 ][ tview: n_threads × n_locs ]
//! [ op rows: n_ops × (1 + n_locs + n_other) ][ op payloads… ]
//! ```
//!
//! Ops appear in canonical id order, so the modification orders are
//! `0..n_ops` and are not written, and an op's rank is its position in
//! its location's range of ids. An op row is a header word — location in
//! bits 0–15, thread in 16–23, action kind in 24–27, the release/acquire
//! flag in bit 28, the covered flag in bit 29 — then both halves of its
//! modification view. The payloads follow in the same order: the
//! action's values ([`encode_val`]) and, for lock operations, their index
//! and owner. A `Combined` is the client component followed by the
//! library one; rc11-lang's `Config` prefixes the control state.

use crate::action::{MethodOp, OpAction};
use crate::combined::Combined;
use crate::ids::{Comp, Loc, OpId, Tid};
use crate::state::{CState, OpRecord};
use crate::val::Val;
use std::hash::Hasher;

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
/// dense passes, no view cloning); the encoding walk reads them. A caller
/// encoding many states keeps one `CanonPerms` as scratch and refills it
/// with [`Combined::canonical_perms_into`], which allocates nothing once
/// the buffers have grown to the largest state's size.
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

/// Value tags: the low three bits of a value's first word. A small
/// integer is the tag-0 word itself (the value shifted up past the tag);
/// other tags fill the whole word, and a larger integer's two halves
/// follow its tag.
const VAL_SMALL_INT: u32 = 0;
const VAL_INT: u32 = 1;
const VAL_FALSE: u32 = 2;
const VAL_TRUE: u32 = 3;
const VAL_EMPTY: u32 = 4;
const VAL_BOT: u32 = 5;

/// The integers one tagged word holds.
const SMALL_INTS: std::ops::Range<i64> = -(1 << 28)..1 << 28;

/// Append the words of `v`: one word, or three for an integer outside
/// [`SMALL_INTS`]. Every value has exactly one encoding.
#[inline]
pub fn encode_val(v: Val, out: &mut Vec<u32>) {
    match v {
        Val::Int(n) if SMALL_INTS.contains(&n) => out.push((n as i32 as u32) << 3 | VAL_SMALL_INT),
        Val::Int(n) => out.extend([VAL_INT, n as u32, (n >> 32) as u32]),
        Val::Bool(false) => out.push(VAL_FALSE),
        Val::Bool(true) => out.push(VAL_TRUE),
        Val::Empty => out.push(VAL_EMPTY),
        Val::Bot => out.push(VAL_BOT),
    }
}

/// A cursor over encoded words, the decoding side of the codec. Reading
/// past the end panics: decoders only ever read words an encoder wrote.
#[derive(Debug)]
pub struct WordReader<'a>(&'a [u32]);

impl<'a> WordReader<'a> {
    /// A reader at the start of `words`.
    pub fn new(words: &'a [u32]) -> WordReader<'a> {
        WordReader(words)
    }

    /// The next `n` words.
    #[inline]
    pub fn take(&mut self, n: usize) -> &'a [u32] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    /// The next word.
    #[inline]
    pub fn word(&mut self) -> u32 {
        self.take(1)[0]
    }

    /// The next value (see [`encode_val`]).
    #[inline]
    pub fn val(&mut self) -> Val {
        let w = self.word();
        if w & 7 == VAL_SMALL_INT {
            return Val::Int(((w as i32) >> 3) as i64);
        }
        match w {
            VAL_INT => {
                let lo = self.word() as u64;
                let hi = self.word() as u64;
                Val::Int((hi << 32 | lo) as i64)
            }
            VAL_FALSE => Val::Bool(false),
            VAL_TRUE => Val::Bool(true),
            VAL_EMPTY => Val::Empty,
            VAL_BOT => Val::Bot,
            tag => panic!("not a value tag: {tag}"),
        }
    }

    /// True once every word has been read.
    pub fn is_done(&self) -> bool {
        self.0.is_empty()
    }
}

/// Feed `words` into `h`: their count, then two words per `write_u64`.
/// Every canonical fingerprint is this hash of an encoding.
pub fn hash_words<H: Hasher>(words: &[u32], h: &mut H) {
    h.write_usize(words.len());
    let mut pairs = words.chunks_exact(2);
    for p in &mut pairs {
        h.write_u64(p[0] as u64 | (p[1] as u64) << 32);
    }
    if let [last] = pairs.remainder() {
        h.write_u32(*last);
    }
}

/// The op actions carrying one value and a release/acquire flag, by
/// action kind (bits 24–27 of an op's header word); the kinds after them
/// are `UPDATE`, `INIT`, `ACQUIRE` and `RELEASE`.
const VALUED: [fn(Val, bool) -> OpAction; 7] = [
    |v, rel| OpAction::Write { v, rel },
    |v, rel| OpAction::Method(MethodOp::Push { v, rel }),
    |v, acq| OpAction::Method(MethodOp::Pop { v, acq }),
    |v, rel| OpAction::Method(MethodOp::RegWrite { v, rel }),
    |v, _| OpAction::Method(MethodOp::CtrInc { v }),
    |v, rel| OpAction::Method(MethodOp::Enq { v, rel }),
    |v, acq| OpAction::Method(MethodOp::Deq { v, acq }),
];
const UPDATE: u32 = 7;
const INIT: u32 = 8;
const ACQUIRE: u32 = 9;
const RELEASE: u32 = 10;

/// The header word of an op (see the module docs), appending the
/// payload of its action to `out`.
#[inline]
fn encode_op(rec: OpRecord, covered: bool, out: &mut Vec<u32>) -> u32 {
    use MethodOp as M;
    let valued = |kind: u32, v: Val, flag: bool, out: &mut Vec<u32>| {
        encode_val(v, out);
        (kind, flag)
    };
    let (kind, flag) = match rec.act {
        OpAction::Write { v, rel } => valued(0, v, rel, out),
        OpAction::Method(M::Push { v, rel }) => valued(1, v, rel, out),
        OpAction::Method(M::Pop { v, acq }) => valued(2, v, acq, out),
        OpAction::Method(M::RegWrite { v, rel }) => valued(3, v, rel, out),
        OpAction::Method(M::CtrInc { v }) => valued(4, v, false, out),
        OpAction::Method(M::Enq { v, rel }) => valued(5, v, rel, out),
        OpAction::Method(M::Deq { v, acq }) => valued(6, v, acq, out),
        OpAction::Update { v_read, v } => {
            encode_val(v_read, out);
            encode_val(v, out);
            (UPDATE, false)
        }
        OpAction::Method(M::Init) => (INIT, false),
        OpAction::Method(M::LockAcquire { n, tid }) => {
            out.extend([n, tid.0 as u32]);
            (ACQUIRE, false)
        }
        OpAction::Method(M::LockRelease { n }) => {
            out.push(n);
            (RELEASE, false)
        }
    };
    rec.loc.0 as u32
        | (rec.tid.0 as u32) << 16
        | kind << 24
        | (flag as u32) << 28
        | (covered as u32) << 29
}

/// The op with header word `head`, reading its payload from `r` (the
/// inverse of [`encode_op`]).
fn decode_op(head: u32, r: &mut WordReader<'_>) -> OpRecord {
    let act = match head >> 24 & 0xf {
        UPDATE => {
            let v_read = r.val();
            OpAction::Update { v_read, v: r.val() }
        }
        INIT => OpAction::Method(MethodOp::Init),
        ACQUIRE => {
            let n = r.word();
            OpAction::Method(MethodOp::LockAcquire { n, tid: Tid(r.word() as u8) })
        }
        RELEASE => OpAction::Method(MethodOp::LockRelease { n: r.word() }),
        kind => VALUED[kind as usize](r.val(), head >> 28 & 1 != 0),
    };
    OpRecord { loc: Loc(head as u16), tid: Tid((head >> 16) as u8), act }
}

impl CState {
    /// Append this component's canonical encoding (see the module docs):
    /// op ids renumbered by `perm` (own) and `perm_other` (cross view
    /// halves), thread ids by `tperm` when given. Initialisation ops
    /// (mo-position 0) belong to no thread and keep their dummy tid.
    fn encode_canonical(
        &self,
        perm: &[OpId],
        perm_other: &[OpId],
        tperm: Option<&[u8]>,
        out: &mut Vec<u32>,
    ) {
        let (n_locs, n) = (self.n_locs, self.n_ops());
        out.extend([n_locs, self.n_threads, self.n_other, n].map(|x| x as u32));
        // Renumbering keeps every op's mo position, hence the offsets.
        out.extend(self.tab[..=n_locs].iter().map(|o| o.0));
        // Thread views in canonical slot order: slot `j` holds the view of
        // the old thread `inv[j]`.
        let inv = tperm.map(invert_tperm);
        for j in 0..self.n_threads {
            let old_t = inv.as_ref().map_or(j, |inv| inv[j] as usize);
            out.extend(self.tview(Tid(old_t as u8)).as_slice().iter().map(|e| perm[e.idx()].0));
        }
        // One row per op in canonical id order, its payload appended after
        // the rows.
        let width = 1 + n_locs + self.n_other;
        let mut row = out.len();
        out.resize(row + n * width, 0);
        for &w in self.mo_all() {
            let (rank, covered, own, other) = self.op_row(w);
            let rec = match tperm {
                Some(sigma) if rank > 0 => permute_rec(*self.op(w), sigma),
                _ => *self.op(w),
            };
            out[row] = encode_op(rec, covered, out);
            let (own_dst, other_dst) = out[row + 1..row + width].split_at_mut(n_locs);
            for (d, e) in own_dst.iter_mut().zip(own.as_slice()) {
                *d = perm[e.idx()].0;
            }
            for (d, e) in other_dst.iter_mut().zip(other.as_slice()) {
                *d = perm_other[e.idx()].0;
            }
            row += width;
        }
    }

    /// Overwrite this state with the component encoded at `r`, reusing
    /// both buffers: the table is rebuilt with each op's rank (its
    /// position in its location's `mo`) and covered flag.
    fn decode_from(&mut self, r: &mut WordReader<'_>) {
        let [n_locs, n_threads, n_other, n] = [0; 4].map(|_| r.word() as usize);
        (self.n_locs, self.n_threads, self.n_other) = (n_locs, n_threads, n_other);
        let head = n_locs + 1 + n_threads * n_locs;
        let width = 1 + n_locs + n_other;
        self.tab.clear();
        self.tab.reserve(head + n * (1 + width) + n);
        self.tab.extend(r.take(head).iter().map(|&w| OpId(w)));
        let rows = r.take(n * width);
        self.ops.clear();
        self.ops.reserve(n);
        for loc in 0..n_locs {
            let (from, to) = (self.tab[loc].idx(), self.tab[loc + 1].idx());
            for (rank, row) in rows[from * width..to * width].chunks_exact(width).enumerate() {
                self.ops.push(decode_op(row[0], r));
                self.tab.extend([rank as u32, row[0] >> 29 & 1].map(OpId));
                self.tab.extend(row[1..].iter().map(|&w| OpId(w)));
            }
        }
        // In canonical numbering every location's `mo` is its id range.
        self.tab.extend((0..n as u32).map(OpId));
    }
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

    /// The canonical representative of this state, materialised: ids
    /// renumbered by `(location, mo-position)` in both components,
    /// cross-references remapped consistently. Idempotent;
    /// structurally-equal states have equal canonical forms (tested by
    /// property tests). The reference the encoding is tested against.
    #[must_use]
    pub fn canonical(&self) -> Combined {
        let perms = self.canonical_perms();
        let client = self.client().renumbered(&perms.client, &perms.lib, None);
        let lib = self.lib().renumbered(&perms.lib, &perms.client, None);
        Combined::from_parts(client, lib)
    }

    /// Rebuild this state with thread ids permuted by `sigma[old] = new`
    /// (op ids untouched): per-op `tid`s renamed (initialisation ops keep
    /// their dummy tid) and thread viewfronts moved to their new slots.
    /// Only sound as a state-space symmetry when `sigma` is a program
    /// automorphism — the detection side lives in `rc11-analyze`. The
    /// reference for encoding under a thread permutation.
    #[must_use]
    pub fn permute_threads(&self, sigma: &[u8]) -> Combined {
        let identity = |st: &CState| (0..st.n_ops() as u32).map(OpId).collect::<Vec<_>>();
        let cid = identity(self.client());
        let lid = identity(self.lib());
        let client = self.client().renumbered(&cid, &lid, Some(sigma));
        let lib = self.lib().renumbered(&lid, &cid, Some(sigma));
        Combined::from_parts(client, lib)
    }

    /// Append the canonical encoding of this state under `perms` to `out`:
    /// the words of `self.permute_threads(σ).canonical()`, σ being
    /// `perms.threads`, without building it. `perms` must be this state's
    /// canonical permutations. Two states encode to equal words iff their
    /// (thread-permuted) canonical forms are equal.
    pub fn encode_canonical(&self, perms: &CanonPerms, out: &mut Vec<u32>) {
        let tperm = perms.threads();
        self.client().encode_canonical(&perms.client, &perms.lib, tperm, out);
        self.lib().encode_canonical(&perms.lib, &perms.client, tperm, out);
    }

    /// Overwrite this state with the one encoded at `r` (the inverse of
    /// [`Combined::encode_canonical`]), reusing its buffers: once they
    /// have grown to the largest state decoded, nothing allocates.
    pub fn decode_into(&mut self, r: &mut WordReader<'_>) {
        self.comp_mut(Comp::Client).decode_from(r);
        self.comp_mut(Comp::Lib).decode_from(r);
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

    /// The canonical encoding of `s` under `perms`.
    fn encode_with(s: &Combined, perms: &CanonPerms) -> Vec<u32> {
        let mut words = Vec::new();
        s.encode_canonical(perms, &mut words);
        words
    }

    fn encode(s: &Combined) -> Vec<u32> {
        encode_with(s, &s.canonical_perms())
    }

    fn decode(words: &[u32]) -> Combined {
        let mut r = WordReader::new(words);
        let mut s = Combined::new(&[], &[], 1);
        s.decode_into(&mut r);
        assert!(r.is_done(), "decoding left words unread");
        s
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
    /// acquiring op's thread, in the materialised form and in the encoding
    /// alike.
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
        assert_eq!(decode(&encode_with(&s, &perms)), canon);
        assert_eq!(encode_with(&s, &perms), encode(&canon));
        assert_ne!(encode(&s), encode(&canon));
    }

    /// The encoding agrees with materialised canonicalisation: it decodes
    /// to the canonical form, and equal canonical forms ⟺ equal words.
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
        assert_eq!(encode(&a), encode(&b), "equal canonical forms, equal words");
        assert_ne!(encode(&a), encode(&c), "distinct canonical forms, distinct words");
        for st in [&a, &b, &c] {
            assert_eq!(decode(&encode(st)), st.canonical());
        }
    }

    /// The encoding is stable under canonicalisation (the canonical form's
    /// permutations are the identity), and decoding into a used state
    /// overwrites it completely.
    #[test]
    fn walk_is_stable_under_canonicalisation() {
        let s = base()
            .apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0))
            .apply_update(Comp::Client, Tid(1), X, Val::Int(2), OpId(0))
            .apply_read(Comp::Client, Tid(0), Y, true, OpId(1));
        let canon = s.canonical();
        assert_eq!(encode(&s), encode(&canon));

        let mut scratch = Combined::new(&[InitLoc::Obj], &[InitLoc::Var(Val::Bot)], 3);
        scratch.decode_into(&mut WordReader::new(&encode(&s)));
        assert_eq!(scratch, canon);
    }

    /// Covered flags are part of the canonical identity: states differing
    /// *only* in `cvd` must not encode equal.
    #[test]
    fn walk_distinguishes_covered_flags() {
        let s = base().apply_write(Comp::Client, Tid(0), X, Val::Int(1), true, OpId(0));
        let mut covered = s.clone();
        covered.comp_mut(Comp::Client).cover(OpId(0));
        assert_ne!(encode(&s), encode(&covered));
    }

    /// Every value and every op-record kind survives the word codec.
    #[test]
    fn op_records_round_trip() {
        let small = SMALL_INTS.start..SMALL_INTS.end;
        let ints =
            [-1, 0, 7, small.start, small.end - 1, small.start - 1, small.end, i64::MAX, i64::MIN];
        let mut vals: Vec<Val> = ints.iter().map(|&n| Val::Int(n)).collect();
        vals.extend([Val::Bool(true), Val::Bool(false), Val::Empty, Val::Bot]);
        let mut acts = vec![OpAction::Method(MethodOp::Init)];
        acts.push(OpAction::Method(MethodOp::LockAcquire { n: 7, tid: Tid(255) }));
        acts.push(OpAction::Method(MethodOp::LockRelease { n: u32::MAX }));
        for &v in &vals {
            for flag in [false, true] {
                acts.push(OpAction::Write { v, rel: flag });
                acts.push(OpAction::Update { v_read: Val::Int(3), v });
                acts.push(OpAction::Method(MethodOp::Push { v, rel: flag }));
                acts.push(OpAction::Method(MethodOp::Pop { v, acq: flag }));
                acts.push(OpAction::Method(MethodOp::RegWrite { v, rel: flag }));
                acts.push(OpAction::Method(MethodOp::CtrInc { v }));
                acts.push(OpAction::Method(MethodOp::Enq { v, rel: flag }));
                acts.push(OpAction::Method(MethodOp::Deq { v, acq: flag }));
            }
        }
        let recs: Vec<OpRecord> = acts
            .into_iter()
            .map(|act| OpRecord { loc: Loc(65_535), tid: Tid(200), act })
            .collect();
        let mut payload = Vec::new();
        let heads: Vec<u32> = (recs.iter().enumerate())
            .map(|(i, &rec)| encode_op(rec, i % 3 == 0, &mut payload))
            .collect();
        let mut r = WordReader::new(&payload);
        let back: Vec<OpRecord> = heads.iter().map(|&head| decode_op(head, &mut r)).collect();
        assert!(r.is_done());
        assert_eq!(back, recs);
        assert!(heads.iter().enumerate().all(|(i, &head)| (head >> 29 & 1 == 1) == (i % 3 == 0)));
        // One word for small integers and the other values, three else.
        let lens: Vec<usize> = vals
            .iter()
            .map(|&v| {
                let mut words = Vec::new();
                encode_val(v, &mut words);
                words.len()
            })
            .collect();
        assert_eq!(lens, [1, 1, 1, 1, 1, 3, 3, 3, 3, 1, 1, 1, 1]);
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
        assert_ne!(encode(&a), encode(&b));
    }
}
