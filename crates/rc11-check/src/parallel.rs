//! The high-throughput parallel exploration engine.
//!
//! Work-stealing exhaustive search over crossbeam's `Injector`, rebuilt
//! around batching, fingerprint-keyed deduplication and full counterexample
//! traces:
//!
//! * **Keep-local batched work distribution** — each worker drains a
//!   private LIFO backlog and feeds novel successors straight back into
//!   it; the shared injector only sees [`FLUSH_BATCH`]-sized overflow
//!   chunks (exported past [`KEEP_LOCAL`] or when the injector runs dry),
//!   so steal traffic and queue-lock contention scale with the *shared*
//!   frontier, not the state count.
//! * **Sleep-set partial-order reduction** — under
//!   [`Reduction::Full`](crate::engine::Reduction), work items carry
//!   sleep-set/expansion masks and the visited stores keep each state's
//!   `explored` mask for the wake-up rule (see `crate::por`); POR prunes
//!   transitions only, never states.
//! * **Persistent-set DPOR** — for outcome queries, each state's
//!   expansion proposal further shrinks to its persistent set
//!   ([`rc11_analyze::persistent`], ablation A7), items carry the true
//!   arriving sleep set (no longer the proposal's complement — postponed
//!   outside-persistent threads stay wakeable), and blocked persistent
//!   sets re-submit through the store's wake-up rule (the retry rule in
//!   `crate::explore`'s docs). Terminal/deadlock multisets stay
//!   oracle-identical; state and transition counts become upper-bounded
//!   rather than pinned — arrival order decides which duplicate wakes
//!   which mask.
//! * **Fingerprint-keyed interned visited store** — the visited structure
//!   is a [`ShardedFpMap`] keyed by zero-rebuild 128-bit canonical
//!   fingerprints ([`crate::fxhash::Fp128`]): duplicate successors (the
//!   vast majority) cost one hash walk plus a `canonical_eq` confirmation
//!   walk instead of a full canonical rebuild plus a key clone, and each
//!   canonical configuration is interned exactly once. This is the only
//!   dedup mode (ablation A4).
//! * **Batched, double-checked shard insertion** — all successors of one
//!   expansion are grouped by shard (parking_lot RwLock shards) and
//!   inserted with one read-lock filter pass plus one write-lock pass per
//!   touched shard, re-checking membership under the write lock so racing
//!   workers agree on exactly one winner per state; only confirmed-novel
//!   states are materialised to canonical form, outside any lock.
//! * **Mixed shard indexing** — shard selection feeds the key's hash
//!   through an avalanche mixer ([`spread`]) instead of using a fixed bit
//!   window, so stride-aligned or low-entropy key patterns still populate
//!   every shard (unit-tested below).
//! * **Counterexample traces** — the visited store keeps
//!   `(parent configuration, moving thread)` first-discovery parent
//!   pointers next to each interned state (when
//!   [`ExploreOptions::record_traces`] is set), so parallel violations
//!   reconstruct full replayable traces after the workers join, exactly
//!   like the sequential explorer's. (Discovery order is a race in the
//!   parallel engine and a stack discipline in the sequential one, so
//!   traces are *valid* paths from the initial configuration, not shortest
//!   ones — in either engine.)
//!
//! Engine selection is [`crate::engine::choose_engine`];
//! `tests/engine_agreement.rs` (workspace root) proves state/transition/
//! terminal/violation parity with the [`crate::reference`] oracle on the
//! full litmus gallery and the outline programs at 1/2/4/8 workers.
//! This is ablation A3 of DESIGN.md: the benches sweep worker counts to
//! show exploration scaling.

use crate::engine::{EngineReport, ExploreOptions, Level, Note, Query, StopReason, Violation};
use crate::fxhash::{CanonicalFingerprint, Fp128, FxHashMap};
use crate::por::{self, ThreadMask};
use crate::sym;
use crossbeam::deque::{Injector, Steal};
use parking_lot::{Mutex, RwLock};
use rc11_analyze::SymmetrySpec;
use rc11_core::{CanonPerms, Tid};
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{thread_successors, Config, ObjectSemantics};
use rc11_telemetry::{Counter, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Novel states a worker buffers locally before a chunk becomes eligible
/// for sharing through the injector.
pub const FLUSH_BATCH: usize = 64;

/// Work-item backlog a worker keeps to itself. Novel states first feed the
/// worker's own LIFO backlog — the hot path never touches the shared
/// injector — and only the *oldest* `FLUSH_BATCH` items are shared when
/// the backlog outgrows this bound, or when the injector runs dry while
/// other workers are starving. Sharing the oldest (breadth) end keeps the
/// worker on its cache-warm depth-first tail while exporting the wide
/// frontier other workers can fan out on.
pub const KEEP_LOCAL: usize = 2 * FLUSH_BATCH;

/// Avalanche-mix a hash into a shard index base (MurmurHash3's `fmix64`:
/// two xor-fold-and-multiply rounds) so every input bit influences the
/// low bits the mask keeps. Keys whose hashes differ only in high bits
/// (stride-aligned patterns, low-entropy hash functions) still spread
/// across shards; a single round leaves some strides with empty shards.
#[inline]
fn spread(h: u64) -> usize {
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    (h ^ (h >> 33)) as usize
}

/// One interned state in a [`ShardedFpMap`]: the canonical configuration
/// (stored exactly once across the engine) and the caller's value.
struct FpEntry<V> {
    cfg: Config,
    val: V,
}

/// One shard of a [`ShardedFpMap`]: the fingerprint → interned-state map,
/// plus an overflow list for genuine 128-bit collisions (distinct
/// canonical states sharing a fingerprint). Every overflow fingerprint is
/// also present in `map`, so a missing `map` entry proves absence.
struct FpShard<V> {
    map: FxHashMap<Fp128, FpEntry<V>>,
    overflow: Vec<(Fp128, FpEntry<V>)>,
}

impl<V> Default for FpShard<V> {
    fn default() -> FpShard<V> {
        FpShard { map: FxHashMap::default(), overflow: Vec::new() }
    }
}

impl<V> FpShard<V> {
    /// Is a state with fingerprint `fp` whose canonical form matches
    /// `is_cfg` present? `is_cfg` is handed the interned representative so
    /// the caller chooses the cheapest equality check it can (zero-rebuild
    /// `canonical_eq` for raw probes, plain `==` for canonical ones).
    fn contains(&self, fp: Fp128, is_cfg: impl FnMut(&Config) -> bool) -> bool {
        self.entry(fp, is_cfg).is_some()
    }

    /// The interned entry for `fp` whose canonical form matches `is_cfg`.
    fn entry(&self, fp: Fp128, mut is_cfg: impl FnMut(&Config) -> bool) -> Option<&FpEntry<V>> {
        let e = self.map.get(&fp)?;
        if is_cfg(&e.cfg) {
            return Some(e);
        }
        self.overflow.iter().find(|(ofp, oe)| *ofp == fp && is_cfg(&oe.cfg)).map(|(_, oe)| oe)
    }
}

/// The engines' concurrent visited structure: a map sharded by key hash
/// whose keys are [`Fp128`] canonical fingerprints, and whose entries
/// **intern** their canonical [`Config`] exactly once (the confirmation
/// representative and, for the engine, the trace endpoint) next to the
/// caller's value.
///
/// Shard selection avalanche-mixes the fingerprint (`spread`). Inserts
/// are batched: one read-lock filter pass plus one double-checked
/// write-lock pass per touched shard, so for any state inserted
/// concurrently by many workers exactly one caller observes it as novel.
/// [`len`](ShardedFpMap::len) and [`is_empty`](ShardedFpMap::is_empty)
/// are **racy snapshots**: they lock the shards one at a time, so under
/// concurrent insertion they return a value between the map's size when
/// the call started and when it finished — exact only at quiescence (e.g.
/// after workers join).
pub struct ShardedFpMap<V> {
    shards: Vec<RwLock<FpShard<V>>>,
    mask: usize,
    /// Telemetry sink injected at construction, so dedup events (dup
    /// hits, symmetry folds, confirmed collisions) are tallied inside the
    /// batched insert path without widening its signature.
    tel: Option<Arc<Telemetry>>,
}

impl<V> ShardedFpMap<V> {
    /// A map with `2^shard_bits` shards, tallying dedup events into `tel`.
    pub fn new(shard_bits: u32, tel: Option<Arc<Telemetry>>) -> ShardedFpMap<V> {
        let n = 1usize << shard_bits;
        ShardedFpMap {
            shards: (0..n).map(|_| RwLock::new(FpShard::default())).collect(),
            mask: n - 1,
            tel,
        }
    }

    /// The shard a state with fingerprint `fp` lives in — exposed for
    /// occupancy diagnostics of the shard index.
    #[inline]
    pub fn shard_of(&self, fp: Fp128) -> usize {
        spread(fp.lo ^ fp.hi) & self.mask
    }

    /// True iff a state canonically equal to the **raw** configuration
    /// `succ` is interned; decided by fingerprint lookup plus a
    /// zero-rebuild confirmation walk, never by materialising.
    pub fn contains_state(&self, succ: &Config) -> bool {
        let perms = succ.canonical_perms();
        let fp = succ.fingerprint_with(&perms);
        self.shards[self.shard_of(fp)]
            .read()
            .contains(fp, |cfg| succ.canonical_eq_with(&perms, cfg))
    }

    /// [`contains_state`](ShardedFpMap::contains_state) with an optional
    /// thread-symmetry spec: membership is then decided up to the symmetry
    /// group, matching the keys [`insert_batch`](ShardedFpMap::insert_batch)
    /// stores under.
    pub(crate) fn contains_state_sym(
        &self,
        succ: &Config,
        symm: Option<&SymmetrySpec>,
    ) -> bool {
        let Some(spec) = symm else { return self.contains_state(succ) };
        let perms = sym::sym_perms(spec, succ);
        let fp = sym::fingerprint_sym(succ, &perms, spec);
        self.shards[self.shard_of(fp)]
            .read()
            .contains(fp, |cfg| succ.canonical_eq_sym(&perms, spec.maps(), cfg))
    }

    /// The value interned for the **canonical** configuration `canon`,
    /// cloned out from under the shard read lock.
    pub fn get_cloned(&self, canon: &Config) -> Option<V>
    where
        V: Clone,
    {
        let fp = canon.canonical_fingerprint();
        self.shards[self.shard_of(fp)]
            .read()
            .entry(fp, |cfg| cfg == canon)
            .map(|e| e.val.clone())
    }

    /// Total interned states — a racy snapshot (see the type docs); exact
    /// at quiescence.
    pub fn len(&self) -> usize {
        self.shard_occupancy().iter().sum()
    }

    /// True iff no states are interned — racy like
    /// [`ShardedFpMap::len`].
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| {
            let s = s.read();
            s.map.is_empty() && s.overflow.is_empty()
        })
    }

    /// Per-shard interned-state counts (map + overflow; racy snapshot),
    /// for occupancy diagnostics — exact at quiescence, like
    /// [`ShardedFpMap::len`].
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                let s = s.read();
                s.map.len() + s.overflow.len()
            })
            .collect()
    }
}

/// A store value together with the state's `explored` thread mask — the
/// complement-union of every sleep set the state has been reached with
/// (see `crate::por`). Mask updates happen under the owning shard's write
/// lock, so the "exactly one winner" insert contract extends to "exactly
/// one waker per missing thread".
#[derive(Clone)]
pub struct Masked<V> {
    val: V,
    explored: ThreadMask,
}

impl<V> Masked<V> {
    /// The caller's value.
    pub fn value(&self) -> &V {
        &self.val
    }
}

/// A successor queued for POR-aware insertion: the raw configuration, the
/// caller's value, the *explored-mask proposal* — the threads the arrival
/// wants queued for expansion (`full` when POR is off, which makes
/// wake-ups impossible; the persistent set minus the sleep set under A7)
/// — and the sleep set the successor inherits over this edge. The sleep
/// travels separately because under A7 it is **not** the proposal's
/// complement: threads outside the persistent set are merely
/// postponed (wakeable by later arrivals), not slept.
type PorItem<V> = (Config, V, ThreadMask, ThreadMask);

/// A novel insertion: the interned canonical configuration, its stored
/// explored mask (= the proposal that won) and the winning arrival's
/// sleep set.
type PorNovel = (Config, ThreadMask, ThreadMask);

/// A wake-up: an already-interned state (canonical), the threads newly
/// added to its explored mask, and the arriving sleep set the
/// re-expansion inherits.
type PorWoken = (Config, ThreadMask, ThreadMask);

impl<V> ShardedFpMap<Masked<V>> {
    /// Insert the (already canonical) initial configuration.
    fn insert_init(&self, canon: Config, val: V, explored: ThreadMask) {
        let fp = canon.canonical_fingerprint();
        let mut shard = self.shards[self.shard_of(fp)].write();
        shard.map.insert(fp, FpEntry { cfg: canon, val: Masked { val, explored } });
    }

    /// Intern the raw configuration `succ` with value `val` unless a
    /// canonically equal state is already present; true iff this call
    /// interned it. However many callers race on one state, exactly one
    /// sees `true`, and its value is the one kept.
    pub fn insert(&self, succ: Config, val: V) -> bool {
        !self.insert_all(vec![(succ, val)]).is_empty()
    }

    /// Batched [`insert`](ShardedFpMap::insert) through the engines' hot
    /// path with full explored masks (no partial-order reduction, so no
    /// state is ever woken). Returns the canonical forms of the states
    /// this call interned; within a batch the first occurrence wins.
    pub fn insert_all(&self, items: Vec<(Config, V)>) -> Vec<Config> {
        let items = items.into_iter().map(|(succ, val)| (succ, val, !0, 0)).collect();
        let (novel, _) = self.insert_batch(items, None, false);
        novel.into_iter().map(|(canon, ..)| canon).collect()
    }

    /// Batched insert of raw successors — the engines' hot path, POR-aware
    /// (a full-mask proposal makes wake-ups impossible and reduces this to
    /// plain insertion). Items are fingerprinted (one zero-rebuild walk
    /// each), grouped by shard, and filtered with one read-lock pass per
    /// touched shard confirming fingerprint hits via `canonical_eq`; only
    /// the survivors — novel states and wake-up candidates — are then
    /// materialised to canonical form (outside any lock, reusing the
    /// probe's permutations) and committed with a double-checked write
    /// pass. Duplicate hits whose stored explored mask misses threads of
    /// the incoming proposal are *woken*: the mask grows under the write
    /// lock and the state is returned for partial re-expansion. The
    /// read-phase drop is sound because explored masks only ever grow: a
    /// duplicate fully absorbed under the read lock stays absorbed.
    ///
    /// With a symmetry spec, items are keyed by their symmetry-canonical
    /// form (one interned representative per orbit), and — when
    /// `remap_masks` is set, i.e. under POR — each explored proposal is
    /// transported through the item's group permutation `σ` (bit `t` →
    /// bit `σ[t]`) so stored masks always live in the representative's
    /// thread numbering. `remap_masks` must be false without POR: full
    /// masks carry bits `≥ n_threads` that `σ` cannot index.
    pub(crate) fn insert_batch(
        &self,
        items: Vec<PorItem<V>>,
        symm: Option<&SymmetrySpec>,
        remap_masks: bool,
    ) -> (Vec<PorNovel>, Vec<PorWoken>) {
        let tel = self.tel.as_deref();
        // Tally a duplicate hit (and a symmetry-orbit fold when the match
        // went through a non-identity group permutation).
        let count_dup = |sigma: &Option<Vec<u8>>| {
            if let Some(t) = tel {
                t.incr(Counter::DupHits);
                if sigma.as_deref().is_some_and(|s| !sym::is_identity(s)) {
                    t.incr(Counter::SymmetryFolds);
                }
            }
        };
        struct Item<V> {
            shard: usize,
            fp: Fp128,
            perms: CanonPerms,
            raw: Config,
            proposal: ThreadMask,
            sleep: ThreadMask,
            /// `None` once dropped as an absorbed duplicate (or consumed).
            val: Option<V>,
        }
        let mut tagged: Vec<Item<V>> = items
            .into_iter()
            .map(|(raw, val, mut proposal, mut sleep)| {
                let mut perms = raw.canonical_perms();
                let fp = match symm {
                    Some(spec) => {
                        perms.threads = spec.choose(&raw, &perms);
                        if remap_masks {
                            if let Some(sg) = &perms.threads {
                                proposal = sym::remap_mask(proposal, sg);
                                sleep = sym::remap_mask(sleep, sg);
                            }
                        }
                        sym::fingerprint_sym(&raw, &perms, spec)
                    }
                    None => raw.fingerprint_with(&perms),
                };
                Item { shard: self.shard_of(fp), fp, perms, raw, proposal, sleep, val: Some(val) }
            })
            .collect();
        tagged.sort_by_key(|t| t.shard);
        let mut novel = Vec::new();
        let mut woken = Vec::new();
        let mut i = 0;
        while i < tagged.len() {
            let s = tagged[i].shard;
            let mut j = i;
            while j < tagged.len() && tagged[j].shard == s {
                j += 1;
            }
            let shard = &self.shards[s];
            {
                let rd = shard.read();
                for t in &mut tagged[i..j] {
                    if let Some(e) = rd.entry(t.fp, |cfg| match symm {
                        Some(spec) => t.raw.canonical_eq_sym(&t.perms, spec.maps(), cfg),
                        None => t.raw.canonical_eq_with(&t.perms, cfg),
                    }) {
                        if t.proposal & !e.val.explored == 0 {
                            count_dup(&t.perms.threads);
                            t.val = None; // known state, nothing to wake
                        }
                    }
                }
            }
            if tagged[i..j].iter().any(|t| t.val.is_some()) {
                // Materialise survivors outside the locks: novel states pay
                // their one canonicalisation here; wake-up duplicates are
                // rare enough that re-materialising them is cheaper than
                // cloning interned representatives under the read lock.
                let canons: Vec<Option<Config>> = tagged[i..j]
                    .iter()
                    .map(|t| {
                        t.val.is_some().then(|| match symm {
                            Some(spec) => t.raw.canonical_sym(&t.perms, spec.maps()),
                            None => t.raw.canonical_with(&t.perms),
                        })
                    })
                    .collect();
                let mut wr = shard.write();
                let FpShard { map, overflow } = &mut *wr;
                for (t, canon) in tagged[i..j].iter_mut().zip(canons) {
                    let Some(canon) = canon else { continue };
                    let val = t.val.take().expect("survivor carries its value");
                    // Double-check under the write lock (racing workers,
                    // or an earlier duplicate in this very batch).
                    match map.entry(t.fp) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(FpEntry {
                                cfg: canon.clone(),
                                val: Masked { val, explored: t.proposal },
                            });
                            novel.push((canon, t.proposal, t.sleep));
                        }
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            let entry = if e.get().cfg == canon {
                                Some(e.get_mut())
                            } else {
                                overflow
                                    .iter_mut()
                                    .find(|(ofp, oe)| *ofp == t.fp && oe.cfg == canon)
                                    .map(|(_, oe)| oe)
                            };
                            match entry {
                                Some(oe) => {
                                    // Lost the insert race (or a same-batch
                                    // twin won): apply the wake-up rule.
                                    count_dup(&t.perms.threads);
                                    let missing = t.proposal & !oe.val.explored;
                                    if missing != 0 {
                                        oe.val.explored |= missing;
                                        woken.push((canon, missing, t.sleep));
                                    }
                                }
                                None => {
                                    // A true 128-bit collision: intern
                                    // alongside.
                                    if let Some(tl) = tel {
                                        tl.incr(Counter::FpCollisions);
                                    }
                                    overflow.push((
                                        t.fp,
                                        FpEntry {
                                            cfg: canon.clone(),
                                            val: Masked { val, explored: t.proposal },
                                        },
                                    ));
                                    novel.push((canon, t.proposal, t.sleep));
                                }
                            }
                        }
                    }
                }
            }
            i = j;
        }
        (novel, woken)
    }
}

/// A visited entry's parent pointer: `None` for the initial configuration.
type Parent = Option<(Config, Tid)>;

/// Rebuild the step sequence from the initial configuration to `last` by
/// walking the parent-pointer store (quiescent after the workers join).
fn reconstruct_trace(
    visited: &ShardedFpMap<Masked<Parent>>,
    last: &Config,
) -> Vec<(Tid, Config)> {
    let mut rev: Vec<(Tid, Config)> = Vec::new();
    let mut cur = last.clone();
    while let Some(Masked { val: Some((parent, tid)), .. }) = visited.get_cloned(&cur) {
        rev.push((tid, cur));
        cur = parent;
    }
    rev.reverse();
    rev
}

/// Statistics a [`par_walk`] hands back alongside the visited map.
pub(crate) struct WalkStats {
    /// Distinct canonical configurations counted (clamped to
    /// `max_states` when the cap was hit, matching the sequential engine).
    pub states: usize,
    /// Transitions generated.
    pub transitions: usize,
    /// Terminal configurations where every thread halted.
    pub terminated: Vec<Config>,
    /// Terminal configurations with a blocked thread.
    pub deadlocked: Vec<Config>,
    /// Why the walk stopped (`Complete` = exhausted the space; anything
    /// else = sound lower bound). Budget trips, cancellation, the state
    /// cap and contained worker faults all land here, max-combined.
    pub stop: StopReason,
    /// Structured degradation/fault warnings (POR thread and symmetry
    /// orbit caps, contained worker panics).
    pub notes: Vec<Note>,
}

/// One unit of parallel work: a canonical configuration, the mask of
/// threads to expand, the sleep set the state was reached with, and
/// whether this is the state's first visit (only first visits may classify
/// terminals — see `crate::por`). Without POR, every item is
/// `(cfg, full, ∅, true)`.
struct WorkItem {
    cfg: Config,
    mask: ThreadMask,
    sleep: ThreadMask,
    first: bool,
}

/// The shared batched work-stealing walk both parallel checkers run on,
/// at the reduction `level` the caller's query allows: expands every
/// reached canonical configuration exactly once (plus POR wake-up
/// re-expansions of newly woken threads) and drives three callbacks —
///
/// * `edge_value(parent, tid)` — the value stored in the visited store for
///   a successor first discovered over that edge (the engine stores parent
///   pointers here, the outline checker `()`);
/// * `on_edge(parent, tid, successor)` — every generated edge, visited or
///   not (annotation classification). The successor is handed **raw**
///   (non-canonical): the fingerprint path never materialises canonical
///   forms for duplicate successors, so callers that need the canonical
///   form (the outline checker) canonicalise themselves;
/// * `on_novel(config, buf)` — each canonical configuration exactly once,
///   at first discovery (property checks), with a reusable worker-local
///   string buffer so violation-free configurations allocate nothing;
///   also called for the initial configuration before the workers start.
///
/// **Scheduling**: each worker drains a private LIFO backlog before
/// touching the shared injector; novel successors feed that backlog
/// directly, and only the oldest chunk is exported when the backlog
/// outgrows [`KEEP_LOCAL`] or when the injector runs dry with other
/// workers around. The injector therefore sees traffic proportional to
/// the *shared* frontier, not to the state count — single-worker runs
/// never re-queue through it at all.
///
/// The state cap is enforced against a racy running counter, so the store
/// may transiently overshoot `opts.max_states`; the returned
/// [`WalkStats`] reconciles that to the sequential engine's verdict
/// (truncated, `states == max_states`) whenever the cap was exceeded, so
/// cap-hitting runs agree across engines.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_walk<V, FV, FE, FN>(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    opts: &ExploreOptions,
    level: Level,
    n_workers: usize,
    init_value: V,
    edge_value: FV,
    on_edge: FE,
    on_novel: FN,
) -> (ShardedFpMap<Masked<V>>, WalkStats)
where
    V: Clone + Send + Sync,
    FV: Fn(&Config, Tid) -> V + Sync,
    FE: Fn(&Config, Tid, &Config) + Sync,
    FN: Fn(&Config, &mut Vec<String>) + Sync,
{
    let tel = opts.telemetry.clone();
    let visited: ShardedFpMap<Masked<V>> = ShardedFpMap::new(6, tel.clone());
    let injector: Injector<Vec<WorkItem>> = Injector::new();
    // Worker indices for the per-worker expansion slots: handed out
    // first-come by the spawned threads themselves, so the spawn loop
    // needs no per-iteration captures.
    let worker_ids = AtomicUsize::new(0);
    // Chunks pushed to the injector but not yet fully processed (a stolen
    // chunk stays counted until its worker has drained the whole backlog
    // it spawned); all-workers-idle is `pending == 0` + empty injector.
    let pending = AtomicUsize::new(0);
    let n_states = AtomicUsize::new(0);
    let transitions = AtomicUsize::new(0);
    let truncated = AtomicBool::new(false);
    // The shared stop reason, max-combined across workers (the lattice
    // order is the numeric order of `StopReason::as_u8`). Non-zero also
    // doubles as the workers' "wind down" flag: once any worker trips a
    // budget or faults, everyone drains without expanding further.
    let stop = AtomicU8::new(StopReason::Complete.as_u8());
    // Approximate arena bytes, grown per novel interned state.
    let mem_bytes = AtomicUsize::new(0);
    // Stringified panic payloads of contained worker faults.
    let faults: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let deadline = opts.budget.deadline.map(|d| Instant::now() + d);
    let terminated: Mutex<Vec<Config>> = Mutex::new(Vec::new());
    let deadlocked: Mutex<Vec<Config>> = Mutex::new(Vec::new());
    let n_threads = prog.n_threads();
    let mut notes: Vec<Note> = Vec::new();
    // Thread masks only exist on the POR path, which caps programs at 64
    // bits; larger programs fall back to the unreduced search (which
    // iterates threads by index and supports any count `Tid` can name),
    // surfaced as a structured note.
    let mut por = level.sleep;
    if por && n_threads > 64 {
        por = false;
        notes.push(Note::PorThreadCap { threads: n_threads });
        if let Some(t) = &tel {
            t.incr(Counter::CapDegradations);
        }
    }
    let full = if por { por::full_mask(n_threads) } else { !0 };
    let (spec, capped_orbit) = sym::active_spec(prog, level.symmetry);
    if let Some(orbit) = capped_orbit {
        notes.push(Note::SymmetryOrbitCap { orbit });
        if let Some(t) = &tel {
            t.incr(Counter::CapDegradations);
        }
    }
    let symm = spec.as_ref();
    let statics = por.then(|| rc11_analyze::conflict_matrix(prog));
    let pers = (por && level.persistent).then(|| rc11_analyze::future_footprints(prog));
    let n_workers = n_workers.max(1);

    let init = Config::initial(prog).canonical();
    let mut init_buf = Vec::new();
    on_novel(&init, &mut init_buf);
    debug_assert!(init_buf.is_empty(), "on_novel must drain its buffer");
    // Retry re-submissions go through `insert_batch`, which needs a value
    // for the (impossible) novel case; any placeholder does, the duplicate
    // path discards it.
    let retry_val = init_value.clone();
    let init_prop = pers.as_ref().map_or(full, |p| p.persistent_mask(&init.pcs));
    mem_bytes.store(init.approx_bytes(), Ordering::SeqCst);
    visited.insert_init(init.clone(), init_value, init_prop);
    n_states.store(1, Ordering::SeqCst);
    pending.store(1, Ordering::SeqCst);
    if let Some(t) = &tel {
        t.incr(Counter::States);
        t.frontier_add(1);
    }
    injector.push(vec![WorkItem { cfg: init, mask: init_prop, sleep: 0, first: true }]);

    crossbeam::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|_| {
                let w = worker_ids.fetch_add(1, Ordering::Relaxed);
                let mut local: Vec<WorkItem> = Vec::new();
                let mut buf: Vec<String> = Vec::new();
                loop {
                    match injector.steal() {
                        Steal::Success(chunk) => {
                            local.extend(chunk);
                            // The whole drain runs under `catch_unwind`:
                            // a panicking worker (a bug in a callback, or
                            // an injected chaos fault) is contained — its
                            // surviving backlog goes back through the
                            // injector for the other workers, the fault is
                            // recorded, and the walk degrades instead of
                            // tearing down the process. `local`/`buf` are
                            // owned outside the closure so they survive
                            // the unwind; the shared stores are lock-based
                            // (parking_lot: no poisoning) and every
                            // partial update they may have seen is a sound
                            // prefix — `StopReason::WorkerFault` keeps the
                            // run from claiming completeness.
                            let drained = catch_unwind(AssertUnwindSafe(|| {
                            while let Some(item) = local.pop() {
                                // Budget and cancellation gates, between
                                // work items (mirroring the sequential
                                // explorer's loop-head gates). All four
                                // read *shared* state (the token, the
                                // clock, the global counters), so every
                                // worker trips on its own next item —
                                // backlogs are dropped and the remaining
                                // injector chunks are stolen and discarded,
                                // draining the pending count to zero. A
                                // recorded `WorkerFault` deliberately does
                                // NOT trip this gate: survivors keep
                                // exploring degraded.
                                let tripped = if opts.cancel.is_cancelled() {
                                    Some(StopReason::Cancelled)
                                } else if deadline.is_some_and(|dl| Instant::now() >= dl) {
                                    Some(StopReason::Deadline)
                                } else if opts.budget.max_transitions.is_some_and(|cap| {
                                    transitions.load(Ordering::Relaxed) >= cap
                                }) {
                                    Some(StopReason::TransitionCap)
                                } else if opts.budget.max_mem_bytes.is_some_and(|cap| {
                                    mem_bytes.load(Ordering::Relaxed) >= cap
                                }) {
                                    Some(StopReason::MemBudget)
                                } else {
                                    None
                                };
                                if let Some(reason) = tripped {
                                    stop.fetch_max(reason.as_u8(), Ordering::Relaxed);
                                    if let Some(t) = &tel {
                                        t.frontier_sub(1 + local.len() as u64);
                                    }
                                    local.clear();
                                    break;
                                }
                                // Deterministic chaos fault point: may
                                // stall or panic (contained above).
                                if let Some(chaos) = &opts.chaos {
                                    chaos.on_expansion();
                                }
                                if let Some(t) = &tel {
                                    t.add_expansions(w, 1);
                                    t.frontier_sub(1);
                                }
                                let WorkItem { cfg, mask, sleep, first } = item;
                                let mut fps =
                                    por.then(|| por::LazyFootprints::new(n_threads));
                                let mut items: Vec<PorItem<V>> = Vec::new();
                                let mut any_succ = false;
                                let mut earlier: ThreadMask = 0;
                                for t in 0..n_threads {
                                    if por && mask & (1u64 << t) == 0 {
                                        continue;
                                    }
                                    let succs =
                                        thread_successors(prog, objs, &cfg, t, opts.step);
                                    transitions.fetch_add(succs.len(), Ordering::Relaxed);
                                    if let Some(tl) = &tel {
                                        tl.add(Counter::Transitions, succs.len() as u64);
                                    }
                                    any_succ |= !succs.is_empty();
                                    let child_sleep = match (&mut fps, &statics) {
                                        (Some(fps), Some(cm)) => {
                                            let cs = por::child_sleep_static(
                                                prog,
                                                &cfg,
                                                fps,
                                                cm.static_indep(),
                                                sleep | earlier,
                                                t,
                                            );
                                            earlier |= 1u64 << t;
                                            cs
                                        }
                                        _ => 0,
                                    };
                                    let tid = Tid(t as u8);
                                    for succ in succs {
                                        // Every edge, visited or not, raw.
                                        on_edge(&cfg, tid, &succ);
                                        let v = edge_value(&cfg, tid);
                                        // The successor's persistent set
                                        // (full without A7): a pure
                                        // function of the program counters,
                                        // computed on the raw successor and
                                        // transported through σ by the
                                        // store (symmetric threads have
                                        // equal future footprints).
                                        let pmask = pers
                                            .as_ref()
                                            .map_or(full, |p| p.persistent_mask(&succ.pcs));
                                        if por {
                                            if let Some(tl) = &tel {
                                                // Reduction attribution per
                                                // successor (zero when the
                                                // reduction is off) — same
                                                // sites as the sequential
                                                // engine's.
                                                tl.add(
                                                    Counter::SleepSetPrunes,
                                                    (pmask & child_sleep).count_ones()
                                                        as u64,
                                                );
                                                tl.add(
                                                    Counter::PersistentSheds,
                                                    (full & !pmask).count_ones() as u64,
                                                );
                                            }
                                        }
                                        items.push((
                                            succ,
                                            v,
                                            pmask & !child_sleep,
                                            child_sleep,
                                        ));
                                    }
                                }
                                if !any_succ {
                                    if first
                                        // Only a first visit may classify,
                                        // and only after probing the
                                        // arrived-asleep threads (a fully
                                        // slept state is not terminal; the
                                        // probe stays out of the transition
                                        // count — see `por::has_any_successor`).
                                        && !por::has_any_successor(
                                            prog,
                                            objs,
                                            &cfg,
                                            full & !mask,
                                            opts.step,
                                        )
                                    {
                                        if cfg.terminated(prog) {
                                            terminated.lock().push(cfg);
                                        } else {
                                            deadlocked.lock().push(cfg);
                                        }
                                    } else if pers.is_some() {
                                        // Retry rule (A7): every expanded
                                        // thread was blocked — a persistent
                                        // member stuck on a lock acquire,
                                        // say — but the state is not
                                        // terminal. Persistence cannot
                                        // promise an outside thread will
                                        // unblock a member, so grow the
                                        // expansion to every non-slept
                                        // thread with a real successor.
                                        // The re-submission goes through
                                        // the store's wake-up rule, which
                                        // computes the not-yet-explored
                                        // remainder under the shard lock —
                                        // racing retries of one state
                                        // dedup to a single re-expansion.
                                        let rest = full & !mask & !sleep;
                                        if rest != 0
                                            && por::has_any_successor(
                                                prog, objs, &cfg, rest, opts.step,
                                            )
                                        {
                                            let (_, woken) = visited.insert_batch(
                                                vec![(
                                                    cfg,
                                                    retry_val.clone(),
                                                    mask | rest,
                                                    sleep,
                                                )],
                                                symm,
                                                por,
                                            );
                                            for (canon, missing, slp) in woken {
                                                if let Some(t) = &tel {
                                                    t.frontier_add(1);
                                                }
                                                local.push(WorkItem {
                                                    cfg: canon,
                                                    mask: missing,
                                                    sleep: slp,
                                                    first: false,
                                                });
                                            }
                                        }
                                    }
                                    continue;
                                }
                                if n_states.load(Ordering::Relaxed) >= opts.max_states {
                                    // Cap hit: keep draining the queue (so
                                    // every queued state is still expanded
                                    // and classified) but drop novel
                                    // successors, marking truncation only
                                    // if one actually existed — mirroring
                                    // the sequential explorers.
                                    if items
                                        .iter()
                                        .any(|(succ, ..)| !visited.contains_state_sym(succ, symm))
                                    {
                                        truncated.store(true, Ordering::Relaxed);
                                    }
                                    continue;
                                }
                                let (novel, woken) = visited.insert_batch(items, symm, por);
                                let n_queued = novel.len() + woken.len();
                                for (canon, explored, slp) in novel {
                                    n_states.fetch_add(1, Ordering::Relaxed);
                                    mem_bytes
                                        .fetch_add(canon.approx_bytes(), Ordering::Relaxed);
                                    if let Some(t) = &tel {
                                        t.incr(Counter::States);
                                    }
                                    on_novel(&canon, &mut buf);
                                    debug_assert!(
                                        buf.is_empty(),
                                        "on_novel must drain its buffer"
                                    );
                                    local.push(WorkItem {
                                        cfg: canon,
                                        mask: explored,
                                        sleep: slp,
                                        first: true,
                                    });
                                }
                                for (canon, missing, slp) in woken {
                                    local.push(WorkItem {
                                        cfg: canon,
                                        mask: missing,
                                        sleep: slp,
                                        first: false,
                                    });
                                }
                                if let Some(t) = &tel {
                                    t.frontier_add(n_queued as u64);
                                }
                                // Share the oldest chunk when the backlog
                                // outgrows the keep-local bound, or as soon
                                // as the injector runs dry while other
                                // workers could be starving. A lone worker
                                // never exports: there is nobody to share
                                // with, and the round-trip is pure cost.
                                if n_workers > 1
                                    && (local.len() > KEEP_LOCAL
                                        || (local.len() > FLUSH_BATCH
                                            && injector.is_empty()))
                                {
                                    let shared: Vec<WorkItem> =
                                        local.drain(..FLUSH_BATCH).collect();
                                    pending.fetch_add(1, Ordering::SeqCst);
                                    if let Some(t) = &tel {
                                        t.incr(Counter::InjectorFlushes);
                                    }
                                    injector.push(shared);
                                } else if n_queued > 0 {
                                    // This expansion's new work stayed on
                                    // the private backlog — the keep-local
                                    // scheduling win the telemetry
                                    // attributes.
                                    if let Some(t) = &tel {
                                        t.add(
                                            Counter::KeepLocalRetained,
                                            n_queued as u64,
                                        );
                                    }
                                }
                            }
                            }));
                            match drained {
                                Ok(()) => {
                                    pending.fetch_sub(1, Ordering::SeqCst);
                                }
                                Err(payload) => {
                                    // Contained fault: hand the surviving
                                    // backlog to the other workers (the +1
                                    // lands *before* our own -1 so the
                                    // pending count never transiently hits
                                    // zero and ends the walk early), record
                                    // the fault, and retire this worker.
                                    // The in-flight item itself is lost —
                                    // sound, because `WorkerFault` keeps
                                    // the report from claiming `Complete`.
                                    buf.clear();
                                    if !local.is_empty() {
                                        pending.fetch_add(1, Ordering::SeqCst);
                                        injector.push(std::mem::take(&mut local));
                                    }
                                    pending.fetch_sub(1, Ordering::SeqCst);
                                    stop.fetch_max(
                                        StopReason::WorkerFault.as_u8(),
                                        Ordering::Relaxed,
                                    );
                                    let message = payload
                                        .downcast_ref::<&str>()
                                        .map(|s| s.to_string())
                                        .or_else(|| payload.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "worker panicked".to_string());
                                    faults.lock().push(message);
                                    return;
                                }
                            }
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if pending.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    })
    .expect("uncontained worker panic escaped catch_unwind");

    // Reconcile the racy cap: when workers overshot `max_states`, report
    // the sequential engine's verdict — `StateCap`, with `states` clamped
    // to the cap (still a valid lower bound on the reachable space).
    let mut states = visited.len();
    let mut final_stop = StopReason::from_u8(stop.into_inner());
    if truncated.into_inner() || states > opts.max_states {
        final_stop.bump(StopReason::StateCap);
        states = states.min(opts.max_states);
    }
    // A cancellation that raced the final items must still be reported: a
    // cancelled run never claims `Complete`.
    if opts.cancel.is_cancelled() {
        final_stop.bump(StopReason::Cancelled);
    }
    for message in faults.into_inner() {
        final_stop.bump(StopReason::WorkerFault);
        let note = Note::WorkerFault { message };
        if !notes.contains(&note) {
            notes.push(note);
        }
    }

    if let Some(t) = &tel {
        // The store is quiescent after the join: record the exact
        // per-shard occupancy histogram and zero the (now empty) frontier
        // gauge — the drain paths above keep it balanced, but clamping
        // here makes end-of-run snapshots exact regardless of races.
        t.record_shard_occupancy(&visited.shard_occupancy());
        t.frontier_set(0);
    }

    let stats = WalkStats {
        states,
        transitions: transitions.into_inner(),
        terminated: terminated.into_inner(),
        deadlocked: deadlocked.into_inner(),
        stop: final_stop,
        notes,
    };
    (visited, stats)
}

/// Exhaustive parallel reachability with a property callback. Semantically
/// identical to [`crate::explore::Explorer::explore_with`]: same state,
/// transition and terminal counts and the same violation set — including
/// counterexample traces when [`ExploreOptions::record_traces`] is set
/// (the differential suite enforces this). Prefer going through
/// [`crate::engine::Engine`] / [`crate::engine::choose_engine`].
pub fn par_explore(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    opts: &ExploreOptions,
    n_workers: usize,
    check: impl Fn(&Config, &mut Vec<String>) + Sync,
) -> EngineReport {
    par_run(prog, objs, opts, n_workers, Query::States, check)
}

/// [`par_explore`] for any query: orbit members reach `check` only for
/// state queries (outcome queries have no per-state callback).
pub(crate) fn par_run(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    opts: &ExploreOptions,
    n_workers: usize,
    query: Query,
    check: impl Fn(&Config, &mut Vec<String>) + Sync,
) -> EngineReport {
    let level = Level::of(opts.reduce, query);
    // Same detection `par_walk` runs (it is deterministic and cheap):
    // under symmetry reduction a state query's callback must additionally
    // see every non-representative orbit member, and terminal sets must
    // be orbit-expanded back to the unreduced search's. The cap note is
    // `par_walk`'s to report.
    let (spec, _) = sym::active_spec(prog, level.symmetry);
    let members = if query == Query::States { spec.as_ref() } else { None };

    // Violations as (what, config, orbit origin); traces are attached
    // after the join, once the parent-pointer store is quiescent. For an
    // orbit-member violation the origin carries the interned
    // representative (where the parent-pointer walk must start) and the
    // group permutation `π` mapping the representative chain onto the
    // member's.
    type Origin = Option<(Config, Vec<u8>)>;
    let run_start = Instant::now();
    // Telemetry rides as a delta: snapshot the (possibly shared,
    // cumulative) sink at entry and attach only this run's contribution.
    let tel0 = opts.telemetry.as_ref().map(|t| t.snapshot());
    let found: Mutex<Vec<(String, Config, Origin)>> = Mutex::new(Vec::new());

    let (visited, mut stats) = par_walk(
        prog,
        objs,
        opts,
        level,
        n_workers,
        None,
        |parent, tid| opts.record_traces.then(|| (parent.clone(), tid)),
        |_, _, _| {},
        |canon, buf| {
            check(canon, buf);
            if !buf.is_empty() {
                let mut f = found.lock();
                for what in buf.drain(..) {
                    f.push((what, canon.clone(), None));
                }
            }
            if let Some(spec) = members {
                for (pi, member) in sym::orbit_members(spec, canon) {
                    check(&member, buf);
                    if !buf.is_empty() {
                        let mut f = found.lock();
                        for what in buf.drain(..) {
                            f.push((what, member.clone(), Some((canon.clone(), pi.clone()))));
                        }
                    }
                }
            }
        },
    );

    if let Some(spec) = &spec {
        sym::expand_terminals(spec, &mut stats.terminated);
        sym::expand_terminals(spec, &mut stats.deadlocked);
    }

    let violations = found
        .into_inner()
        .into_iter()
        .map(|(what, config, origin)| {
            let trace = opts.record_traces.then(|| match (&origin, &spec) {
                // A member violation: walk the representative chain, then
                // permute it onto the member's orbit copy (ending at the
                // violating configuration because the original ended at
                // its representative).
                (Some((rep, pi)), Some(spec)) => {
                    sym::permute_trace(spec, pi, reconstruct_trace(&visited, rep))
                }
                _ => reconstruct_trace(&visited, &config),
            });
            Violation { what, config, trace }
        })
        .collect();

    EngineReport {
        states: stats.states,
        transitions: stats.transitions,
        terminated: stats.terminated,
        deadlocked: stats.deadlocked,
        violations,
        stop: stats.stop,
        notes: stats.notes,
        wall: run_start.elapsed(),
        telemetry: match (&opts.telemetry, &tel0) {
            (Some(t), Some(t0)) => Some(t.snapshot().delta(t0)),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::reference;
    use proptest::prelude::*;
    use rc11_lang::builder::*;
    use rc11_lang::compile;
    use rc11_lang::machine::{successors, NoObjects};
    use rc11_objects::AbstractObjects;
    use std::collections::HashSet;

    fn sb_prog() -> rc11_lang::CfgProgram {
        let mut p = ProgramBuilder::new("sb");
        let x = p.client_var("x", 0);
        let y = p.client_var("y", 0);
        let mut t1 = ThreadBuilder::new();
        let r1 = t1.reg("r1");
        p.add_thread(t1, seq([wr_rel(x, 1), rd_acq(r1, y)]));
        let mut t2 = ThreadBuilder::new();
        let r2 = t2.reg("r2");
        p.add_thread(t2, seq([wr_rel(y, 1), rd_acq(r2, x)]));
        compile(&p.build())
    }

    /// Every raw (non-canonical) successor of every reachable state of
    /// `prog` — many representations per canonical state, exactly what
    /// the engines hand the store — plus the number of distinct
    /// canonical states among them.
    fn raw_successors(prog: &rc11_lang::CfgProgram) -> (Vec<Config>, usize) {
        let init = Config::initial(prog).canonical();
        let mut seen: HashSet<Config> = HashSet::from([init.clone()]);
        let mut frontier = vec![init];
        let mut raw = Vec::new();
        let mut distinct: HashSet<Config> = HashSet::new();
        while let Some(cfg) = frontier.pop() {
            for (_, succ) in successors(prog, &NoObjects, &cfg, Default::default()) {
                let canon = succ.canonical();
                distinct.insert(canon.clone());
                if seen.insert(canon.clone()) {
                    frontier.push(canon);
                }
                raw.push(succ);
            }
        }
        (raw, distinct.len())
    }

    #[test]
    fn parallel_matches_sequential_state_count() {
        let prog = sb_prog();
        let oracle = reference::explore(&prog, &NoObjects, usize::MAX, |_, _| {});
        let none = ExploreOptions { reduce: crate::engine::Reduction::None, ..Default::default() };
        for workers in [1, 2, 4] {
            let par_report = par_explore(&prog, &NoObjects, &none, workers, |_, _| {});
            assert_eq!(par_report.states, oracle.states, "workers = {workers}");
            assert_eq!(par_report.terminated.len(), oracle.terminated.len());
            assert_eq!(par_report.transitions, oracle.transitions);
            // Sleep sets keep every state of this asymmetric program.
            let full = par_explore(&prog, &NoObjects, &Default::default(), workers, |_, _| {});
            assert_eq!(full.states, oracle.states, "workers = {workers}");
            assert!(full.transitions <= oracle.transitions);
        }
    }

    #[test]
    fn parallel_lock_program_agrees() {
        let mut p = ProgramBuilder::new("lock2");
        let x = p.client_var("x", 0);
        let l = p.lock("l");
        for _ in 0..2 {
            let mut tb = ThreadBuilder::new();
            let r = tb.reg("r");
            p.add_thread(tb, seq([acquire(l), rd(r, x), wr(x, add(r, 1)), release(l)]));
        }
        let prog = compile(&p.build());
        let seq_report = Explorer::new(&prog, &AbstractObjects).explore();
        let par_report =
            par_explore(&prog, &AbstractObjects, &ExploreOptions::default(), 4, |_, _| {});
        assert_eq!(par_report.states, seq_report.states);
    }

    #[test]
    fn parallel_finds_violations_with_traces() {
        let prog = sb_prog();
        // "r1 and r2 never both 0" is false under RA — the parallel checker
        // must find it and hand back a replayable trace.
        let report = par_explore(
            &prog,
            &NoObjects,
            &ExploreOptions::default(),
            4,
            |cfg: &Config, out: &mut Vec<String>| {
                if cfg.terminated(&prog)
                    && cfg.reg(0, rc11_lang::Reg(0)) == rc11_core::Val::Int(0)
                    && cfg.reg(1, rc11_lang::Reg(0)) == rc11_core::Val::Int(0)
                {
                    out.push("both zero".into());
                }
            },
        );
        assert!(!report.violations.is_empty(), "SB weak outcome must be reachable");
        for v in &report.violations {
            let trace = v.trace.as_ref().expect("parallel violations carry traces");
            assert!(!trace.is_empty(), "terminal violation needs at least one step");
            assert_eq!(&trace.last().unwrap().1, &v.config, "trace ends at the violation");
        }
    }

    #[test]
    fn traces_disabled_when_not_recording() {
        let prog = sb_prog();
        let opts = ExploreOptions { record_traces: false, ..Default::default() };
        let report =
            par_explore(&prog, &NoObjects, &opts, 2, |cfg: &Config, out: &mut Vec<String>| {
            if cfg.terminated(&prog) {
                out.push("terminal".into());
            }
        });
        assert!(!report.violations.is_empty());
        assert!(report.violations.iter().all(|v| v.trace.is_none()));
    }

    #[test]
    fn truncation_is_reported() {
        let prog = sb_prog();
        let opts = ExploreOptions { max_states: 3, ..Default::default() };
        let report = par_explore(&prog, &NoObjects, &opts, 2, |_, _| {});
        assert!(report.truncated());
        assert_eq!(report.stop, crate::engine::StopReason::StateCap);
        assert!(!report.ok());
    }

    /// The fingerprint store dedups representationally distinct raw forms
    /// of the same canonical state, interns the canonical form once, and
    /// serves value lookups by canonical configuration.
    #[test]
    fn sharded_fp_map_interns_by_canonical_identity() {
        let prog = sb_prog();
        let init = Config::initial(&prog).canonical();
        let succs = successors(&prog, &NoObjects, &init, Default::default());
        assert!(!succs.is_empty());
        let raw = succs[0].1.clone();
        let canon = raw.canonical();
        assert_ne!(raw, canon, "raw successor ids differ from canonical ids");

        let m: ShardedFpMap<Masked<u32>> = ShardedFpMap::new(3, None);
        // Same state under two representations in one batch: one winner
        // (the full-mask proposal makes wake-ups impossible, mirroring a
        // non-POR engine run).
        let (novel, woken) =
            m.insert_batch(vec![(raw.clone(), 1, !0, 0), (canon.clone(), 2, !0, 0)], None, false);
        assert_eq!(novel, vec![(canon.clone(), !0, 0)]);
        assert!(woken.is_empty());
        assert_eq!(m.len(), 1);
        // Across batches: both representations are already known.
        let (novel, woken) =
            m.insert_batch(vec![(canon.clone(), 3, !0, 0), (raw.clone(), 4, !0, 0)], None, false);
        assert!(novel.is_empty() && woken.is_empty());
        assert!(m.contains_state(&raw));
        assert!(m.contains_state(&canon));
        assert!(!m.contains_state(&init));
        assert_eq!(m.get_cloned(&canon).map(|v| v.val), Some(1), "first occurrence wins");
        assert!(m.get_cloned(&init).is_none());
        assert!(!m.is_empty());
    }

    /// The POR wake-up rule at the store level: a duplicate arriving with
    /// an explored-mask proposal exceeding the stored mask grows the mask
    /// under the write lock and reports the missing threads exactly once;
    /// absorbed duplicates report nothing.
    #[test]
    fn sharded_fp_map_wakes_underexplored_duplicates() {
        let prog = sb_prog();
        let init = Config::initial(&prog).canonical();
        let succs = successors(&prog, &NoObjects, &init, Default::default());
        let raw = succs[0].1.clone();
        let canon = raw.canonical();

        let m: ShardedFpMap<Masked<u32>> = ShardedFpMap::new(3, None);
        // First arrival: threads {0} explored, thread 1 slept.
        let (novel, woken) = m.insert_batch(vec![(raw.clone(), 1, 0b01, 0b10)], None, false);
        assert_eq!(novel, vec![(canon.clone(), 0b01, 0b10)]);
        assert!(woken.is_empty());
        // A smaller-or-equal proposal is absorbed silently.
        let (novel, woken) = m.insert_batch(vec![(canon.clone(), 2, 0b01, 0b10)], None, false);
        assert!(novel.is_empty() && woken.is_empty());
        // A larger proposal wakes exactly the missing thread, handing the
        // re-expansion the *arriving* sleep set…
        let (novel, woken) = m.insert_batch(vec![(raw.clone(), 3, 0b11, 0)], None, false);
        assert!(novel.is_empty());
        assert_eq!(woken, vec![(canon.clone(), 0b10, 0)]);
        // …and only once: the stored mask has grown.
        let (novel, woken) = m.insert_batch(vec![(canon, 4, 0b11, 0)], None, false);
        assert!(novel.is_empty() && woken.is_empty());
    }

    /// Used as a set — unit values, the way the outline checker's walk
    /// uses it — the store reports each canonical state novel once, in one
    /// batch or across many, however many raw representations arrive.
    #[test]
    fn sharded_set_dedups() {
        let (raw, distinct) = raw_successors(&sb_prog());
        assert!(raw.len() > distinct, "the program must produce duplicate successors");
        let s: ShardedFpMap<Masked<()>> = ShardedFpMap::new(4, None);
        let items = |cfgs: &[Config]| cfgs.iter().map(|c| (c.clone(), (), !0, 0)).collect();
        let (novel, woken) = s.insert_batch(items(&raw), None, false);
        assert_eq!(novel.len(), distinct);
        assert!(woken.is_empty());
        let (novel, _) = s.insert_batch(items(&raw), None, false);
        assert!(novel.is_empty(), "a second pass finds every state known");
        assert_eq!(s.len(), distinct);
        assert!(!s.is_empty());
    }

    /// Thread `t`'s insertion order over the shared successor list:
    /// interleaved differently per thread so the threads collide on the
    /// same states at the same time instead of racing in lockstep.
    fn thread_order(raw: &[Config], t: usize) -> Vec<Config> {
        let mut v = raw.to_vec();
        let n = v.len().max(1);
        match t % 3 {
            0 => {}
            1 => v.reverse(),
            _ => v.rotate_left(t % n),
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Racing threads batch-insert the raw successors of one small
        /// program: exactly one thread wins each canonical state (the
        /// double-checked write-lock re-validation), and once the threads
        /// join, `len()` and the per-shard occupancy are exact.
        #[test]
        fn sharded_set_concurrent_insert_unique_winner(
            threads in 2usize..6,
            batch in 1usize..48,
            shard_bits in 0u32..6,
        ) {
            let (raw, distinct) = raw_successors(&sb_prog());
            let s: ShardedFpMap<Masked<usize>> = ShardedFpMap::new(shard_bits, None);
            let wins = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (s, wins, order) = (&s, &wins, thread_order(&raw, t));
                    scope.spawn(move || {
                        for chunk in order.chunks(batch) {
                            let items = chunk.iter().map(|c| (c.clone(), t, !0, 0)).collect();
                            let (novel, _) = s.insert_batch(items, None, false);
                            wins.fetch_add(novel.len(), Ordering::Relaxed);
                        }
                    });
                }
            });
            prop_assert_eq!(wins.into_inner(), distinct, "one winner per canonical state");
            prop_assert_eq!(s.len(), distinct, "quiescent len() is exact");
            prop_assert_eq!(s.shard_occupancy().iter().sum::<usize>(), distinct);
        }
    }

    /// Per-shard counts of `keys` under the store's shard index.
    fn occupancy(shard_bits: u32, keys: impl Iterator<Item = Fp128>) -> Vec<usize> {
        let s: ShardedFpMap<()> = ShardedFpMap::new(shard_bits, None);
        let mut counts = vec![0usize; 1 << shard_bits];
        for fp in keys {
            counts[s.shard_of(fp)] += 1;
        }
        counts
    }

    /// Stride-aligned keys (constant low bits, the classic failure of
    /// masking a weak hash) in either fingerprint half still reach every
    /// shard through [`spread`], with no shard holding most of them.
    #[test]
    fn sharded_set_spreads_awkward_distributions() {
        for shard_bits in [1u32, 3, 5] {
            let n_keys = 64u64 << shard_bits;
            for stride_log in 0..16 {
                for base in [0u64, 1, 977] {
                    let key = |i: u64| base + (i << stride_log);
                    for per_shard in [
                        occupancy(shard_bits, (0..n_keys).map(|i| Fp128 { hi: 0, lo: key(i) })),
                        occupancy(shard_bits, (0..n_keys).map(|i| Fp128 { hi: key(i), lo: 0 })),
                    ] {
                        assert_eq!(per_shard.iter().sum::<usize>() as u64, n_keys);
                        assert!(
                            per_shard.iter().all(|&n| n > 0),
                            "empty shard for stride 2^{stride_log}: {per_shard:?}"
                        );
                        let max = *per_shard.iter().max().expect("non-empty");
                        assert!(
                            max as u64 <= n_keys * 3 / 4,
                            "one shard holds over three quarters of the keys: {per_shard:?}"
                        );
                    }
                }
            }
        }
    }

    /// Keys that differ only inside one byte-wide bit window, at any
    /// shift, still reach every shard through [`spread`].
    #[test]
    fn narrow_bit_window_keys_populate_every_shard() {
        for shift in 0..56 {
            let per_shard = occupancy(4, (0u64..256).map(|v| Fp128 { hi: 0, lo: v << shift }));
            assert!(
                per_shard.iter().all(|&n| n > 0),
                "empty shard for window shift {shift}: {per_shard:?}"
            );
        }
    }

    /// Racing or repeated inserts of one state keep the first value.
    #[test]
    fn sharded_map_first_value_wins() {
        let (raw, _) = raw_successors(&sb_prog());
        let canon = raw[0].canonical();
        let m: ShardedFpMap<Masked<&str>> = ShardedFpMap::new(3, None);
        let (novel, _) = m.insert_batch(vec![(raw[0].clone(), "first", !0, 0)], None, false);
        assert_eq!(novel.len(), 1);
        let (novel, _) = m.insert_batch(vec![(canon.clone(), "second", !0, 0)], None, false);
        assert!(novel.is_empty());
        assert_eq!(m.get_cloned(&canon).map(|v| v.val), Some("first"));
        assert_eq!(m.len(), 1);
    }

    /// Batched inserts dedup within one batch (the first occurrence wins)
    /// and filter states already interned by earlier batches.
    #[test]
    fn sharded_map_batch_insert_dedups_within_and_across_batches() {
        let (raw, distinct) = raw_successors(&sb_prog());
        let canons: Vec<Config> = raw.iter().map(Config::canonical).collect();
        let m: ShardedFpMap<Masked<usize>> = ShardedFpMap::new(4, None);
        let half = raw.len() / 2;
        let batch = |r: std::ops::Range<usize>| -> Vec<PorItem<usize>> {
            r.map(|i| (raw[i].clone(), i, !0, 0)).collect()
        };
        let (first, _) = m.insert_batch(batch(0..half), None, false);
        let first_distinct: HashSet<&Config> = canons[..half].iter().collect();
        assert_eq!(first.len(), first_distinct.len());
        for c in &first_distinct {
            let winner = canons.iter().position(|k| k == *c).expect("present");
            assert_eq!(m.get_cloned(c).map(|v| v.val), Some(winner), "first occurrence wins");
        }
        let (second, _) = m.insert_batch(batch(half..raw.len()), None, false);
        assert_eq!(first.len() + second.len(), distinct);
        assert!(second.iter().all(|(c, ..)| !first_distinct.contains(c)));
        assert_eq!(m.len(), distinct);
    }
}
