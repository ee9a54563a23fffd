//! The high-throughput parallel exploration engine.
//!
//! Work-stealing exhaustive search over crossbeam's `Injector`, rebuilt
//! around keep-local scheduling, an id-interning visited store and full
//! counterexample traces:
//!
//! * **Caller-first, keep-local scheduling** — worker 0 runs on the calling
//!   thread and the other workers are recruited only when there is work to
//!   share (see `par_walk`'s scheduling notes). Each worker drains a
//!   private LIFO backlog and feeds novel successors straight back into
//!   it; the shared injector only sees [`FLUSH_BATCH`]-sized overflow
//!   chunks (exported past [`KEEP_LOCAL`] or when the injector runs dry),
//!   so steal traffic and queue-lock contention scale with the *shared*
//!   frontier, not the state count.
//! * **Sleep-set partial-order reduction** — under
//!   [`Reduction::Full`](crate::engine::Reduction), work items carry
//!   sleep-set/expansion masks and every interned state keeps its
//!   `explored` mask for the wake-up rule (see `crate::por`); POR prunes
//!   transitions only, never states.
//! * **Persistent-set DPOR** — for outcome queries, each state's
//!   expansion proposal further shrinks to its persistent set
//!   ([`rc11_analyze::persistent`], ablation A7), items carry the true
//!   arriving sleep set (no longer the proposal's complement — postponed
//!   outside-persistent threads stay wakeable), and blocked persistent
//!   sets re-submit through the wake-up rule (the retry rule in
//!   `crate::explore`'s docs). Terminal/deadlock multisets stay
//!   oracle-identical; state and transition counts become upper-bounded
//!   rather than pinned — arrival order decides which duplicate wakes
//!   which mask.
//! * **Id-interning visited store** — [`ShardedFpMap`] interns each
//!   canonical configuration exactly once, in a shared append-only chunked
//!   arena, and maps zero-rebuild 128-bit canonical fingerprints
//!   ([`crate::fxhash::Fp128`]) to arena ids. Work items, wake-ups and
//!   parent edges are `u32` ids: a duplicate successor (the vast majority)
//!   costs one hash walk plus a `canonical_eq` confirmation walk, a woken
//!   duplicate is re-queued by id, and nothing clones a configuration.
//!   This is the only dedup mode (ablation A4).
//! * **Double-checked shard insertion** — a successor is probed under its
//!   shard's read lock; only a miss is materialised to canonical form
//!   (outside any lock) and committed under the write lock, which
//!   re-checks membership so racing workers agree on exactly one winner
//!   per state.
//! * **Mixed shard indexing** — shard selection feeds the key's hash
//!   through an avalanche mixer ([`spread`]) instead of using a fixed bit
//!   window, so stride-aligned or low-entropy key patterns still populate
//!   every shard (unit-tested below).
//! * **Counterexample traces** — every arena node keeps its
//!   first-discovery edge `(parent id, moving thread)` and, under symmetry
//!   reduction, the group permutation `σ` the edge was transported
//!   through, so violations reconstruct replayable traces after the
//!   workers join with the sequential explorer's routine
//!   (`crate::explore::reconstruct_trace`). (Discovery order is a race
//!   here and a stack discipline there, so traces are *valid* paths from
//!   the initial configuration, not shortest ones — in either engine.)
//!
//! Engine selection is [`crate::engine::choose_engine`];
//! `tests/engine_agreement.rs` (workspace root) holds this engine to the
//! [`crate::reference`] oracle on the full litmus gallery and the outline
//! programs at 1/2/4/8 workers: exact state, transition, terminal and
//! violation parity under `Reduction::None`, and under `Reduction::Full`
//! exact terminal, deadlock and violation sets with states and
//! transitions at most the reference's. This is ablation A3 of
//! DESIGN.md: the benches sweep worker counts to show exploration scaling.

use crate::engine::{EngineReport, ExploreOptions, Level, Note, Query, StopReason, Violation};
use crate::explore::{reconstruct_trace, Link};
use crate::fxhash::{CanonicalFingerprint, Fp128, FxHashMap, IdBucket};
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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

/// One interned state: its canonical configuration (stored exactly once
/// across the engine), its first-discovery edge, the group permutation
/// that edge's raw successor was transported through under symmetry
/// reduction (`None` = identity), and the `explored` thread mask — the
/// threads expansion work has been queued for (see `crate::por`). The mask
/// only grows, by atomic `fetch_or`, so each missing thread has exactly
/// one waker however many duplicates race.
struct Node {
    cfg: Config,
    parent: Option<(u32, Tid)>,
    sigma: Option<Box<[u8]>>,
    explored: AtomicU64,
}

/// A shared append-only arena of [`Node`]s addressed by `u32` ids. Chunk
/// `k` holds ids `2^k - 1 .. 2^(k+1) - 1`, allocated on first use and never
/// moved, so a published node is readable by reference from any thread
/// while others append.
struct Arena {
    chunks: [OnceLock<Box<[OnceLock<Node>]>>; u32::BITS as usize],
    len: AtomicUsize,
}

impl Arena {
    fn new() -> Arena {
        Arena { chunks: std::array::from_fn(|_| OnceLock::new()), len: AtomicUsize::new(0) }
    }

    /// The chunk and offset holding `id`.
    #[inline]
    fn locate(id: u32) -> (usize, usize) {
        let x = id as u64 + 1;
        let k = 63 - x.leading_zeros() as usize;
        (k, (x - (1 << k)) as usize)
    }

    /// Append `node`, returning its id.
    fn push(&self, node: Node) -> u32 {
        let id = self.len.fetch_add(1, Ordering::Relaxed);
        let id = u32::try_from(id)
            .ok()
            .filter(|&i| i < u32::MAX)
            .expect("arena id space exhausted");
        let (k, off) = Arena::locate(id);
        let chunk =
            self.chunks[k].get_or_init(|| (0..1usize << k).map(|_| OnceLock::new()).collect());
        if chunk[off].set(node).is_err() {
            unreachable!("arena ids are handed out once");
        }
        id
    }

    /// The node with id `id`, which must have been returned by
    /// [`Arena::push`] (ids reach other threads only through the shard
    /// locks, after the push).
    #[inline]
    fn get(&self, id: u32) -> &Node {
        let (k, off) = Arena::locate(id);
        self.chunks[k].get().and_then(|c| c[off].get()).expect("published arena id")
    }
}

/// One shard of a [`ShardedFpMap`]: fingerprint → arena ids (a bucket
/// holds several ids only for genuine 128-bit collisions, distinct
/// canonical states sharing a fingerprint), plus the shard's id count.
#[derive(Default)]
struct FpShard {
    map: FxHashMap<Fp128, IdBucket>,
    len: usize,
}

/// A successor queued for insertion: the raw configuration, the thread
/// whose step produced it, the *explored-mask proposal* — the threads the
/// arrival wants queued for expansion (`!0` when POR is off, which makes
/// wake-ups impossible; the persistent set minus the sleep set under A7)
/// — and the sleep set the successor inherits over this edge. The sleep
/// travels separately because under A7 it is **not** the proposal's
/// complement: threads outside the persistent set are merely postponed
/// (wakeable by later arrivals), not slept.
struct PorItem {
    raw: Config,
    tid: Tid,
    proposal: ThreadMask,
    sleep: ThreadMask,
}

/// One unit of parallel work: an interned state's id, the mask of threads
/// to expand, the sleep set the state was reached with, and whether this
/// is the state's first visit (only first visits may classify terminals —
/// see `crate::por`). Without POR, every item is `(id, !0, ∅, true)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkItem {
    id: u32,
    mask: ThreadMask,
    sleep: ThreadMask,
    first: bool,
}

/// The engines' concurrent visited structure: canonical configurations
/// interned once each in a shared append-only arena, indexed by a map
/// sharded by key hash whose keys are [`Fp128`] canonical fingerprints and
/// whose values are arena ids. Each node also records its first-discovery
/// edge, from which `trace` rebuilds counterexamples.
///
/// Shard selection avalanche-mixes the fingerprint (`spread`). Inserts
/// probe under the shard's read lock and commit misses under a
/// double-checked write lock, so for any state inserted concurrently by
/// many workers exactly one caller observes it as novel.
/// [`len`](ShardedFpMap::len) and [`is_empty`](ShardedFpMap::is_empty)
/// are **racy snapshots** under concurrent insertion — exact only at
/// quiescence (e.g. after workers join).
pub struct ShardedFpMap {
    shards: Vec<RwLock<FpShard>>,
    mask: usize,
    arena: Arena,
    /// Telemetry sink injected at construction, so dedup events (dup
    /// hits, symmetry folds, confirmed collisions) are tallied inside the
    /// insert path without widening its signature.
    tel: Option<Arc<Telemetry>>,
}

impl ShardedFpMap {
    /// A map with `2^shard_bits` shards, tallying dedup events into `tel`.
    pub fn new(shard_bits: u32, tel: Option<Arc<Telemetry>>) -> ShardedFpMap {
        let n = 1usize << shard_bits;
        ShardedFpMap {
            shards: (0..n).map(|_| RwLock::new(FpShard::default())).collect(),
            mask: n - 1,
            arena: Arena::new(),
            tel,
        }
    }

    /// The shard a state with fingerprint `fp` lives in — exposed for
    /// occupancy diagnostics of the shard index.
    #[inline]
    pub fn shard_of(&self, fp: Fp128) -> usize {
        spread(fp.lo ^ fp.hi) & self.mask
    }

    /// The fingerprint and canonical permutations of the raw
    /// configuration `raw` — with the symmetry choice installed in
    /// `perms.threads` under a symmetry spec, so the whole orbit keys to
    /// one representative.
    fn key(raw: &Config, symm: Option<&SymmetrySpec>) -> (Fp128, CanonPerms) {
        match symm {
            Some(spec) => {
                let perms = sym::sym_perms(spec, raw);
                (sym::fingerprint_sym(raw, &perms, spec), perms)
            }
            None => {
                let perms = raw.canonical_perms();
                (raw.fingerprint_with(&perms), perms)
            }
        }
    }

    /// The id of the interned state canonically equal to `raw` (keyed by
    /// `fp`/`perms`), decided under the shard's read lock by a zero-rebuild
    /// confirmation walk per candidate, never by materialising.
    fn probe(
        &self,
        raw: &Config,
        fp: Fp128,
        perms: &CanonPerms,
        symm: Option<&SymmetrySpec>,
    ) -> Option<u32> {
        let shard = self.shards[self.shard_of(fp)].read();
        let bucket = shard.map.get(&fp)?;
        bucket.ids().iter().copied().find(|&id| {
            let cfg = &self.arena.get(id).cfg;
            match symm {
                Some(spec) => raw.canonical_eq_sym(perms, spec.maps(), cfg),
                None => raw.canonical_eq_with(perms, cfg),
            }
        })
    }

    /// The id of the state canonically equal to the raw (or canonical)
    /// configuration `succ`, if interned.
    pub fn find(&self, succ: &Config) -> Option<u32> {
        let (fp, perms) = ShardedFpMap::key(succ, None);
        self.probe(succ, fp, &perms, None)
    }

    /// True iff a state canonically equal to the **raw** configuration
    /// `succ` is interned; decided by fingerprint lookup plus a
    /// zero-rebuild confirmation walk, never by materialising.
    pub fn contains_state(&self, succ: &Config) -> bool {
        self.find(succ).is_some()
    }

    /// [`contains_state`](ShardedFpMap::contains_state) with an optional
    /// thread-symmetry spec: membership is then decided up to the symmetry
    /// group, matching the keys [`insert_batch`](ShardedFpMap::insert_batch)
    /// stores under.
    fn contains_state_sym(&self, succ: &Config, symm: Option<&SymmetrySpec>) -> bool {
        let (fp, perms) = ShardedFpMap::key(succ, symm);
        self.probe(succ, fp, &perms, symm).is_some()
    }

    /// The canonical configuration interned under `id`.
    pub fn config(&self, id: u32) -> &Config {
        &self.arena.get(id).cfg
    }

    /// The first-discovery edge `(parent id, moving thread)` of `id`
    /// (`None` for a root).
    pub fn parent(&self, id: u32) -> Option<(u32, Tid)> {
        self.arena.get(id).parent
    }

    /// The step sequence from the root to state `id` (quiescent store).
    /// Under symmetry reduction `sym` carries the spec and the group
    /// permutation mapping the representative chain onto the wanted orbit
    /// member (the identity for the representative itself).
    fn trace(&self, id: u32, sym: Option<(&SymmetrySpec, &[u8])>) -> Vec<(Tid, Config)> {
        let link = |id: u32| {
            let n = self.arena.get(id);
            Link { cfg: &n.cfg, parent: n.parent, sigma: n.sigma.as_deref() }
        };
        reconstruct_trace(link, id, sym)
    }

    /// Interned states — a racy snapshot (see the type docs); exact at
    /// quiescence.
    pub fn len(&self) -> usize {
        self.arena.len.load(Ordering::Relaxed)
    }

    /// True iff no states are interned — racy like [`ShardedFpMap::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard interned-state counts (racy snapshot), for occupancy
    /// diagnostics — exact at quiescence, like [`ShardedFpMap::len`].
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.read().len).collect()
    }

    /// Intern the raw configuration `succ` unless a canonically equal
    /// state is already present, recording `parent` as its discovery edge;
    /// true iff this call interned it. However many callers race on one
    /// state, exactly one sees `true`, and its edge is the one kept.
    pub fn insert(&self, succ: Config, parent: Option<(u32, Tid)>) -> bool {
        let tid = parent.map_or(Tid(0), |p| p.1);
        let mut items = vec![PorItem { raw: succ, tid, proposal: !0, sleep: 0 }];
        let mut out = Vec::new();
        self.insert_batch(parent.map(|p| p.0), &mut items, None, false, &mut out);
        !out.is_empty()
    }

    /// Intern each raw configuration of `succs` as a root (no parent
    /// edge) with full explored masks, returning the ids this call
    /// interned; within the batch the first occurrence wins.
    pub fn insert_all(&self, succs: Vec<Config>) -> Vec<u32> {
        let mut items = succs
            .into_iter()
            .map(|raw| PorItem { raw, tid: Tid(0), proposal: !0, sleep: 0 })
            .collect();
        let mut out = Vec::new();
        self.insert_batch(None, &mut items, None, false, &mut out);
        out.into_iter().map(|w| w.id).collect()
    }

    /// Tally a duplicate hit (and a symmetry-orbit fold when the match
    /// went through a non-identity group permutation).
    fn count_dup(&self, sigma: &Option<Vec<u8>>) {
        if let Some(t) = &self.tel {
            t.incr(Counter::DupHits);
            if sigma.as_deref().is_some_and(|s| !sym::is_identity(s)) {
                t.incr(Counter::SymmetryFolds);
            }
        }
    }

    /// The wake-up rule on interned state `id`: add `proposal` to its
    /// explored mask and queue the threads that were missing (if any) for
    /// re-expansion with the arriving sleep set. The plain load skips the
    /// atomic read-modify-write for absorbed duplicates — sound because
    /// explored masks only ever grow.
    fn wake(&self, id: u32, proposal: ThreadMask, sleep: ThreadMask, out: &mut Vec<WorkItem>) {
        let explored = &self.arena.get(id).explored;
        if proposal & !explored.load(Ordering::Relaxed) == 0 {
            return;
        }
        let missing = proposal & !explored.fetch_or(proposal, Ordering::Relaxed);
        if missing != 0 {
            out.push(WorkItem { id, mask: missing, sleep, first: false });
        }
    }

    /// Insert raw successors of state `parent` (`None` for roots) — the
    /// engines' hot path, POR-aware (a full-mask proposal makes wake-ups
    /// impossible and reduces this to plain insertion). Each item is
    /// fingerprinted (one zero-rebuild walk) and probed under its shard's
    /// read lock; a hit applies the wake-up rule, a miss is materialised
    /// to canonical form outside any lock (reusing the probe's
    /// permutations) and committed under the write lock, which re-checks
    /// membership — racing workers, or an earlier duplicate in this very
    /// batch, may have interned it meanwhile. Drains `items`; appends one
    /// first-visit [`WorkItem`] per novel state and one re-expansion item
    /// per woken duplicate to `out`.
    ///
    /// With a symmetry spec, items are keyed by their symmetry-canonical
    /// form (one interned representative per orbit), and — when
    /// `remap_masks` is set, i.e. under POR — each proposal and sleep set
    /// is transported through the item's group permutation `σ` (bit `t` →
    /// bit `σ[t]`) so stored masks always live in the representative's
    /// thread numbering. `remap_masks` must be false without POR: full
    /// masks carry bits `≥ n_threads` that `σ` cannot index.
    fn insert_batch(
        &self,
        parent: Option<u32>,
        items: &mut Vec<PorItem>,
        symm: Option<&SymmetrySpec>,
        remap_masks: bool,
        out: &mut Vec<WorkItem>,
    ) {
        for PorItem { raw, tid, mut proposal, mut sleep } in items.drain(..) {
            let (fp, perms) = ShardedFpMap::key(&raw, symm);
            if remap_masks {
                if let Some(sg) = &perms.threads {
                    proposal = sym::remap_mask(proposal, sg);
                    sleep = sym::remap_mask(sleep, sg);
                }
            }
            if let Some(id) = self.probe(&raw, fp, &perms, symm) {
                self.count_dup(&perms.threads);
                self.wake(id, proposal, sleep, out);
                continue;
            }
            let canon = match symm {
                Some(spec) => raw.canonical_sym(&perms, spec.maps()),
                None => raw.canonical_with(&perms),
            };
            let mut shard = self.shards[self.shard_of(fp)].write();
            let known = shard.map.get(&fp).and_then(|b| {
                b.ids().iter().copied().find(|&id| self.arena.get(id).cfg == canon)
            });
            if let Some(id) = known {
                drop(shard);
                self.count_dup(&perms.threads);
                self.wake(id, proposal, sleep, out);
                continue;
            }
            let sigma = perms.threads.filter(|s| !sym::is_identity(s)).map(Vec::into_boxed_slice);
            let id = self.arena.push(Node {
                cfg: canon,
                parent: parent.map(|p| (p, tid)),
                sigma,
                explored: AtomicU64::new(proposal),
            });
            shard.len += 1;
            match shard.map.entry(fp) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(IdBucket::One(id));
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    // A true 128-bit collision: intern alongside.
                    if let Some(t) = &self.tel {
                        t.incr(Counter::FpCollisions);
                    }
                    e.get_mut().push(id);
                }
            }
            out.push(WorkItem { id, mask: proposal, sleep, first: true });
        }
    }
}

/// Statistics a [`par_walk`] hands back alongside the visited store.
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

/// The shared batched work-stealing walk both parallel checkers run on,
/// at the reduction `level` the caller's query allows, with the symmetry
/// spec (and capped orbit, for the note) `active` the caller detected via
/// `sym::active_spec` for that level. Expands every reached canonical
/// configuration exactly once (plus POR wake-up re-expansions of newly
/// woken threads) and drives two callbacks —
///
/// * `on_edge(parent, tid, successor)` — every generated edge, visited or
///   not (annotation classification). The successor is handed **raw**
///   (non-canonical): the fingerprint path never materialises canonical
///   forms for duplicate successors, so callers that need the canonical
///   form (the outline checker) canonicalise themselves;
/// * `on_novel(id, config, buf)` — each canonical configuration exactly
///   once, at first discovery (property checks), with its store id and a
///   reusable worker-local string buffer so violation-free configurations
///   allocate nothing; also called for the initial configuration before
///   the walk starts.
///
/// **Scheduling**: worker 0 runs on the calling thread; the other
/// `n_workers - 1` are *recruited* — spawned into the walk's scope — only
/// at the walk's first export, or when worker 0 faults, so a walk that
/// never has work to share (most corpus-sized programs under the default
/// reduction) runs entirely on the caller, with no thread spawned. Each
/// worker drains a private LIFO backlog before touching the shared
/// injector; novel successors feed that backlog directly, and only the
/// oldest [`FLUSH_BATCH`] items are exported when the backlog outgrows
/// [`KEEP_LOCAL`], or outgrows `FLUSH_BATCH` while the injector is empty
/// (which, before recruitment, it always is). The injector therefore sees
/// traffic proportional to the *shared* frontier, not to the state count —
/// single-worker runs never re-queue through it at all.
///
/// The state cap is enforced against the store's racy running count, so
/// the store may transiently overshoot `opts.max_states`; the returned
/// [`WalkStats`] reconciles that to the sequential engine's verdict
/// (truncated, `states == max_states`) whenever the cap was exceeded, so
/// cap-hitting runs agree across engines.
#[allow(clippy::too_many_arguments)]
pub(crate) fn par_walk<FE, FN>(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    opts: &ExploreOptions,
    level: Level,
    active: &(Option<SymmetrySpec>, Option<usize>),
    n_workers: usize,
    on_edge: FE,
    on_novel: FN,
) -> (ShardedFpMap, WalkStats)
where
    FE: Fn(&Config, Tid, &Config) + Sync,
    FN: Fn(u32, &Config, &mut Vec<String>) + Sync,
{
    let tel = opts.telemetry.clone();
    let visited = ShardedFpMap::new(6, tel.clone());
    let injector: Injector<Vec<WorkItem>> = Injector::new();
    // Chunks pushed to the injector but not yet fully processed (a stolen
    // chunk stays counted until its worker has drained the whole backlog
    // it spawned); all-workers-idle is `pending == 0` + empty injector.
    let pending = AtomicUsize::new(0);
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
    let terminated: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let deadlocked: Mutex<Vec<u32>> = Mutex::new(Vec::new());
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
    let (spec, capped_orbit) = active;
    if let Some(orbit) = *capped_orbit {
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
    let init_prop = pers.as_ref().map_or(full, |p| p.persistent_mask(&init.pcs));
    mem_bytes.store(init.approx_bytes(), Ordering::SeqCst);
    let mut root = Vec::with_capacity(1);
    visited.insert_batch(
        None,
        &mut vec![PorItem { raw: init, tid: Tid(0), proposal: init_prop, sleep: 0 }],
        symm,
        false,
        &mut root,
    );
    let mut init_buf = Vec::new();
    on_novel(root[0].id, visited.config(root[0].id), &mut init_buf);
    debug_assert!(init_buf.is_empty(), "on_novel must drain its buffer");
    pending.store(1, Ordering::SeqCst);
    if let Some(t) = &tel {
        t.incr(Counter::States);
        t.frontier_add(1);
    }
    injector.push(root);

    // One worker's whole life: steal chunks until the walk is idle. Worker
    // 0 is handed `recruit`, which spawns the others; they get a no-op.
    let work = |w: usize, recruit: &dyn Fn()| {
        let mut local: Vec<WorkItem> = Vec::new();
        let mut items: Vec<PorItem> = Vec::new();
        let mut buf: Vec<String> = Vec::new();
        loop {
            match injector.steal() {
                Steal::Success(chunk) => {
                    local.extend(chunk);
                    // The whole drain runs under `catch_unwind`: a
                    // panicking worker (a bug in a callback, or an
                    // injected chaos fault) is contained — its surviving
                    // backlog goes back through the injector for the
                    // other workers (recruited now if they do not exist
                    // yet), the fault is recorded, and the walk degrades
                    // instead of tearing down the process. `local`,
                    // `items` and `buf` are owned outside the closure so
                    // they survive the unwind; the shared stores are
                    // lock-based (parking_lot: no poisoning) or atomic,
                    // and every partial update they may have seen is a
                    // sound prefix — `StopReason::WorkerFault` keeps the
                    // run from claiming completeness.
                    let drained = catch_unwind(AssertUnwindSafe(|| {
                        while let Some(item) = local.pop() {
                            // Budget and cancellation gates, between work
                            // items (mirroring the sequential explorer's
                            // loop-head gates). All four read *shared*
                            // state (the token, the clock, the global
                            // counters), so every worker trips on its own
                            // next item — backlogs are dropped and the
                            // remaining injector chunks are stolen and
                            // discarded, draining the pending count to
                            // zero. A recorded `WorkerFault` deliberately
                            // does NOT trip this gate: survivors keep
                            // exploring degraded.
                            let tripped = if opts.cancel.is_cancelled() {
                                Some(StopReason::Cancelled)
                            } else if deadline.is_some_and(|dl| Instant::now() >= dl) {
                                Some(StopReason::Deadline)
                            } else if opts.budget.max_transitions.is_some_and(|cap| {
                                transitions.load(Ordering::Relaxed) >= cap
                            }) {
                                Some(StopReason::TransitionCap)
                            } else if opts
                                .budget
                                .max_mem_bytes
                                .is_some_and(|cap| mem_bytes.load(Ordering::Relaxed) >= cap)
                            {
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
                            // Deterministic chaos fault point: may stall
                            // or panic (contained above).
                            if let Some(chaos) = &opts.chaos {
                                chaos.on_expansion();
                            }
                            if let Some(t) = &tel {
                                t.add_expansions(w, 1);
                                t.frontier_sub(1);
                            }
                            let WorkItem { id, mask, sleep, first } = item;
                            let cfg = visited.config(id);
                            let mut fps = por.then(|| por::LazyFootprints::new(n_threads));
                            let mut any_succ = false;
                            let mut earlier: ThreadMask = 0;
                            for t in 0..n_threads {
                                if por && mask & (1u64 << t) == 0 {
                                    continue;
                                }
                                let succs = thread_successors(prog, objs, cfg, t, opts.step);
                                transitions.fetch_add(succs.len(), Ordering::Relaxed);
                                if let Some(tl) = &tel {
                                    tl.add(Counter::Transitions, succs.len() as u64);
                                }
                                any_succ |= !succs.is_empty();
                                let child_sleep = match (&mut fps, &statics) {
                                    (Some(fps), Some(cm)) => {
                                        let cs = por::child_sleep_static(
                                            prog,
                                            cfg,
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
                                    on_edge(cfg, tid, &succ);
                                    // The successor's persistent set (full
                                    // without A7): a pure function of the
                                    // program counters, computed on the raw
                                    // successor and transported through σ
                                    // by the store (symmetric threads have
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
                                                (pmask & child_sleep).count_ones() as u64,
                                            );
                                            tl.add(
                                                Counter::PersistentSheds,
                                                (full & !pmask).count_ones() as u64,
                                            );
                                        }
                                    }
                                    items.push(PorItem {
                                        raw: succ,
                                        tid,
                                        proposal: pmask & !child_sleep,
                                        sleep: child_sleep,
                                    });
                                }
                            }
                            if !any_succ {
                                if first
                                    // Only a first visit may classify, and
                                    // only after probing the arrived-asleep
                                    // threads (a fully slept state is not
                                    // terminal; the probe stays out of the
                                    // transition count — see
                                    // `por::has_any_successor`).
                                    && !por::has_any_successor(
                                        prog,
                                        objs,
                                        cfg,
                                        full & !mask,
                                        opts.step,
                                    )
                                {
                                    if cfg.terminated(prog) {
                                        terminated.lock().push(id);
                                    } else {
                                        deadlocked.lock().push(id);
                                    }
                                } else if pers.is_some() {
                                    // Retry rule (A7): every expanded
                                    // thread was blocked — a persistent
                                    // member stuck on a lock acquire, say
                                    // — but the state is not terminal.
                                    // Persistence cannot promise an outside
                                    // thread will unblock a member, so grow
                                    // the expansion to every non-slept
                                    // thread with a real successor, through
                                    // the wake-up rule: racing retries of
                                    // one state dedup to a single
                                    // re-expansion.
                                    let rest = full & !mask & !sleep;
                                    if rest != 0
                                        && por::has_any_successor(prog, objs, cfg, rest, opts.step)
                                    {
                                        let before = local.len();
                                        visited.wake(id, rest, sleep, &mut local);
                                        if let Some(t) = &tel {
                                            t.frontier_add((local.len() - before) as u64);
                                        }
                                    }
                                }
                                continue;
                            }
                            if visited.len() >= opts.max_states {
                                // Cap hit: keep draining the queue (so
                                // every queued state is still expanded and
                                // classified) but drop novel successors,
                                // marking truncation only if one actually
                                // existed — mirroring the sequential
                                // explorers.
                                if items
                                    .iter()
                                    .any(|it| !visited.contains_state_sym(&it.raw, symm))
                                {
                                    truncated.store(true, Ordering::Relaxed);
                                }
                                items.clear();
                                continue;
                            }
                            let before = local.len();
                            visited.insert_batch(Some(id), &mut items, symm, por, &mut local);
                            for it in &local[before..] {
                                if !it.first {
                                    continue;
                                }
                                let canon = visited.config(it.id);
                                mem_bytes.fetch_add(canon.approx_bytes(), Ordering::Relaxed);
                                if let Some(t) = &tel {
                                    t.incr(Counter::States);
                                }
                                on_novel(it.id, canon, &mut buf);
                                debug_assert!(buf.is_empty(), "on_novel must drain its buffer");
                            }
                            let n_queued = local.len() - before;
                            if let Some(t) = &tel {
                                t.frontier_add(n_queued as u64);
                            }
                            // Share the oldest chunk when the backlog
                            // outgrows the keep-local bound, or as soon as
                            // the injector runs dry while other workers
                            // could be starving — recruiting them first if
                            // this is the walk's first export. A lone
                            // worker never exports: there is nobody to
                            // share with, and the round-trip is pure cost.
                            if n_workers > 1
                                && (local.len() > KEEP_LOCAL
                                    || (local.len() > FLUSH_BATCH && injector.is_empty()))
                            {
                                recruit();
                                let shared: Vec<WorkItem> = local.drain(..FLUSH_BATCH).collect();
                                pending.fetch_add(1, Ordering::SeqCst);
                                if let Some(t) = &tel {
                                    t.incr(Counter::InjectorFlushes);
                                }
                                injector.push(shared);
                            } else if n_queued > 0 {
                                // This expansion's new work stayed on the
                                // private backlog — the keep-local
                                // scheduling win the telemetry attributes.
                                if let Some(t) = &tel {
                                    t.add(Counter::KeepLocalRetained, n_queued as u64);
                                }
                            }
                        }
                    }));
                    match drained {
                        Ok(()) => {
                            pending.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(payload) => {
                            // Contained fault: hand the surviving backlog
                            // to the other workers (the +1 lands *before*
                            // our own -1 so the pending count never
                            // transiently hits zero and ends the walk
                            // early), recruit them if worker 0 faulted
                            // before any export, record the fault, and
                            // retire this worker. The in-flight item
                            // itself is lost — sound, because
                            // `WorkerFault` keeps the report from claiming
                            // `Complete`.
                            buf.clear();
                            items.clear();
                            if !local.is_empty() {
                                pending.fetch_add(1, Ordering::SeqCst);
                                injector.push(std::mem::take(&mut local));
                            }
                            recruit();
                            pending.fetch_sub(1, Ordering::SeqCst);
                            stop.fetch_max(StopReason::WorkerFault.as_u8(), Ordering::Relaxed);
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
    };
    let work = &work;
    crossbeam::scope(|scope| {
        let recruited = AtomicBool::new(false);
        let recruit = || {
            if !recruited.swap(true, Ordering::Relaxed) {
                for w in 1..n_workers {
                    scope.spawn(move |_| work(w, &|| {}));
                }
            }
        };
        work(0, &recruit);
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

    let configs = |ids: Vec<u32>| ids.into_iter().map(|id| visited.config(id).clone()).collect();
    let stats = WalkStats {
        states,
        transitions: transitions.into_inner(),
        terminated: configs(terminated.into_inner()),
        deadlocked: configs(deadlocked.into_inner()),
        stop: final_stop,
        notes,
    };
    (visited, stats)
}

/// Exhaustive parallel reachability with a property callback. Semantically
/// identical to [`crate::explore::Explorer::explore_with`]: the same
/// terminal and violation sets — including counterexample traces when
/// [`ExploreOptions::record_traces`] is set — and, under
/// [`Reduction::None`](crate::engine::Reduction), the same state and
/// transition counts (the differential suite enforces this). Prefer going
/// through [`crate::engine::Engine`] / [`crate::engine::choose_engine`].
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
    // Under symmetry reduction a state query's callback must additionally
    // see every non-representative orbit member, and terminal sets must
    // be orbit-expanded back to the unreduced search's. The cap note is
    // `par_walk`'s to report.
    let active = sym::active_spec(prog, level.symmetry);
    let spec = active.0.as_ref();
    let members = if query == Query::States { spec } else { None };

    // Violations as (what, store id, orbit member); traces are attached
    // after the join, once the store is quiescent. An orbit-member
    // violation carries the group permutation `π` mapping the
    // representative chain onto the member's, and the member itself.
    type Member = Option<(Vec<u8>, Config)>;
    let run_start = Instant::now();
    // Telemetry rides as a delta: snapshot the (possibly shared,
    // cumulative) sink at entry and attach only this run's contribution.
    let tel0 = opts.telemetry.as_ref().map(|t| t.snapshot());
    let found: Mutex<Vec<(String, u32, Member)>> = Mutex::new(Vec::new());

    let (visited, mut stats) = par_walk(
        prog,
        objs,
        opts,
        level,
        &active,
        n_workers,
        |_, _, _| {},
        |id, canon, buf| {
            check(canon, buf);
            if !buf.is_empty() {
                found.lock().extend(buf.drain(..).map(|what| (what, id, None)));
            }
            if let Some(spec) = members {
                for (pi, member) in sym::orbit_members(spec, canon) {
                    check(&member, buf);
                    if !buf.is_empty() {
                        let mut f = found.lock();
                        for what in buf.drain(..) {
                            f.push((what, id, Some((pi.clone(), member.clone()))));
                        }
                    }
                }
            }
        },
    );

    if let Some(spec) = spec {
        sym::expand_terminals(spec, &mut stats.terminated);
        sym::expand_terminals(spec, &mut stats.deadlocked);
    }

    let identity: Vec<u8> = (0..prog.n_threads() as u8).collect();
    let violations = found
        .into_inner()
        .into_iter()
        .map(|(what, id, member)| {
            let trace = opts.record_traces.then(|| {
                let pi = member.as_ref().map_or(&identity[..], |(pi, _)| &pi[..]);
                visited.trace(id, spec.map(|s| (s, pi)))
            });
            let config = member.map_or_else(|| visited.config(id).clone(), |(_, m)| m);
            Violation { what, config, trace }
        })
        .collect();
    // Free the store before stamping `wall`: its teardown is part of the
    // walk's cost, not of whatever the caller does next.
    drop(visited);

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
    use crate::chaos::{ChaosState, FaultPlan};
    use crate::engine::{Engine, Reduction};
    use std::collections::HashSet;
    use std::thread::ThreadId;

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

    /// Items for [`ShardedFpMap::insert_batch`] with full masks (no POR),
    /// each tagged by its position through the edge's thread id.
    fn full_items(cfgs: &[Config]) -> Vec<PorItem> {
        assert!(cfgs.len() <= 256, "tags fit a thread id");
        cfgs.iter()
            .enumerate()
            .map(|(i, c)| PorItem { raw: c.clone(), tid: Tid(i as u8), proposal: !0, sleep: 0 })
            .collect()
    }

    /// One insert through the batch path, returning what it queued.
    fn insert_one(
        m: &ShardedFpMap,
        raw: &Config,
        proposal: ThreadMask,
        sleep: ThreadMask,
    ) -> Vec<WorkItem> {
        let mut items = vec![PorItem { raw: raw.clone(), tid: Tid(0), proposal, sleep }];
        let mut out = Vec::new();
        m.insert_batch(Some(0), &mut items, None, false, &mut out);
        assert!(items.is_empty(), "the batch is drained");
        out
    }

    /// The fingerprint store dedups representationally distinct raw forms
    /// of the same canonical state, interns the canonical form once, and
    /// serves lookups by raw or canonical configuration.
    #[test]
    fn sharded_fp_map_interns_by_canonical_identity() {
        let prog = sb_prog();
        let init = Config::initial(&prog).canonical();
        let succs = successors(&prog, &NoObjects, &init, Default::default());
        assert!(!succs.is_empty());
        let raw = succs[0].1.clone();
        let canon = raw.canonical();
        assert_ne!(raw, canon, "raw successor ids differ from canonical ids");

        let m = ShardedFpMap::new(3, None);
        // Same state under two representations in one batch: one winner
        // (the full-mask proposal makes wake-ups impossible, mirroring a
        // non-POR engine run).
        let mut out = Vec::new();
        let mut items = full_items(&[raw.clone(), canon.clone()]);
        m.insert_batch(Some(7), &mut items, None, false, &mut out);
        assert_eq!(out, vec![WorkItem { id: 0, mask: !0, sleep: 0, first: true }]);
        assert_eq!(m.config(0), &canon);
        assert_eq!(m.len(), 1);
        // Across batches: both representations are already known.
        out.clear();
        let mut items = full_items(&[canon.clone(), raw.clone()]);
        m.insert_batch(Some(7), &mut items, None, false, &mut out);
        assert!(out.is_empty());
        assert!(m.contains_state(&raw));
        assert!(m.contains_state(&canon));
        assert!(!m.contains_state(&init));
        assert_eq!(m.find(&raw), Some(0));
        assert_eq!(m.parent(0), Some((7, Tid(0))), "first occurrence wins");
        assert!(m.find(&init).is_none());
        assert!(!m.is_empty());
    }

    /// The POR wake-up rule at the store level: a duplicate arriving with
    /// an explored-mask proposal exceeding the stored mask grows the mask
    /// and reports the missing threads exactly once; absorbed duplicates
    /// report nothing.
    #[test]
    fn sharded_fp_map_wakes_underexplored_duplicates() {
        let prog = sb_prog();
        let init = Config::initial(&prog).canonical();
        let succs = successors(&prog, &NoObjects, &init, Default::default());
        let raw = succs[0].1.clone();
        let canon = raw.canonical();

        let m = ShardedFpMap::new(3, None);
        // First arrival: threads {0} explored, thread 1 slept.
        let out = insert_one(&m, &raw, 0b01, 0b10);
        assert_eq!(out, vec![WorkItem { id: 0, mask: 0b01, sleep: 0b10, first: true }]);
        // A smaller-or-equal proposal is absorbed silently.
        assert!(insert_one(&m, &canon, 0b01, 0b10).is_empty());
        // A larger proposal wakes exactly the missing thread, handing the
        // re-expansion the *arriving* sleep set…
        let out = insert_one(&m, &raw, 0b11, 0);
        assert_eq!(out, vec![WorkItem { id: 0, mask: 0b10, sleep: 0, first: false }]);
        // …and only once: the stored mask has grown.
        assert!(insert_one(&m, &canon, 0b11, 0).is_empty());
    }

    /// Used as a set — the way the outline checker's walk uses it — the
    /// store reports each canonical state novel once, in one batch or
    /// across many, however many raw representations arrive.
    #[test]
    fn sharded_set_dedups() {
        let (raw, distinct) = raw_successors(&sb_prog());
        assert!(raw.len() > distinct, "the program must produce duplicate successors");
        let s = ShardedFpMap::new(4, None);
        let novel = s.insert_all(raw.clone());
        assert_eq!(novel.len(), distinct);
        let novel = s.insert_all(raw);
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
            let s = ShardedFpMap::new(shard_bits, None);
            let wins = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (s, wins, order) = (&s, &wins, thread_order(&raw, t));
                    scope.spawn(move || {
                        for chunk in order.chunks(batch) {
                            let mut out = Vec::new();
                            let mut items = full_items(chunk);
                            s.insert_batch(Some(t as u32), &mut items, None, false, &mut out);
                            wins.fetch_add(out.len(), Ordering::Relaxed);
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
        let s = ShardedFpMap::new(shard_bits, None);
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

    /// Racing or repeated inserts of one state keep the first discovery
    /// edge.
    #[test]
    fn sharded_map_first_value_wins() {
        let (raw, _) = raw_successors(&sb_prog());
        let canon = raw[0].canonical();
        let m = ShardedFpMap::new(3, None);
        assert!(m.insert(raw[0].clone(), Some((1, Tid(0)))));
        assert!(!m.insert(canon.clone(), Some((2, Tid(1)))));
        assert_eq!(m.find(&canon).and_then(|id| m.parent(id)), Some((1, Tid(0))));
        assert_eq!(m.len(), 1);
    }

    /// Batched inserts dedup within one batch (the first occurrence wins)
    /// and filter states already interned by earlier batches.
    #[test]
    fn sharded_map_batch_insert_dedups_within_and_across_batches() {
        let (raw, distinct) = raw_successors(&sb_prog());
        let canons: Vec<Config> = raw.iter().map(Config::canonical).collect();
        let m = ShardedFpMap::new(4, None);
        let half = raw.len() / 2;
        let mut first = Vec::new();
        m.insert_batch(Some(0), &mut full_items(&raw[..half]), None, false, &mut first);
        let first_distinct: HashSet<&Config> = canons[..half].iter().collect();
        assert_eq!(first.len(), first_distinct.len());
        for c in &first_distinct {
            let winner = canons.iter().position(|k| k == *c).expect("present");
            let id = m.find(c).expect("interned");
            assert_eq!(m.config(id), *c);
            assert_eq!(m.parent(id), Some((0, Tid(winner as u8))), "first occurrence wins");
        }
        let mut second = Vec::new();
        let mut items = full_items(&raw);
        items.drain(..half);
        m.insert_batch(Some(0), &mut items, None, false, &mut second);
        assert_eq!(first.len() + second.len(), distinct);
        assert!(second.iter().all(|w| !first_distinct.contains(m.config(w.id))));
        assert_eq!(m.len(), distinct);
    }

    /// The arena's chunk geometry: ids map to distinct (chunk, offset)
    /// slots, chunk `k` holding exactly `2^k` of them.
    #[test]
    fn arena_ids_tile_the_chunks() {
        let mut seen = HashSet::new();
        for id in 0u32..4_096 {
            let (k, off) = Arena::locate(id);
            assert!(off < 1 << k, "offset {off} outside chunk {k}");
            assert!(seen.insert((k, off)), "id {id} shares a slot");
        }
        assert_eq!(Arena::locate(u32::MAX - 1), (31, (1 << 31) - 1));
    }

    /// The threads `explore_with`'s callback ran on, plus the report.
    fn callback_threads(
        prog: &rc11_lang::CfgProgram,
        opts: &ExploreOptions,
        workers: usize,
    ) -> (HashSet<ThreadId>, EngineReport) {
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let engine = Engine::Parallel { workers };
        let report = engine.explore_with(prog, &AbstractObjects, opts, |_, _| {
            seen.lock().insert(std::thread::current().id());
        });
        (seen.into_inner(), report)
    }

    /// A walk that never has work to share recruits nobody: on
    /// corpus-sized programs, every callback of a 4-worker run fires on
    /// the calling thread.
    #[test]
    fn small_walks_stay_on_the_calling_thread() {
        for src in [
            include_str!("../../../corpus/sb_ra.litmus"),
            include_str!("../../../corpus/iriw_ra.litmus"),
            include_str!("../../../corpus/sym_fai4.litmus"),
            include_str!("../../../corpus/lockmp.litmus"),
        ] {
            let prog = compile(&rc11_lang::parse_litmus(src).expect("corpus parses").prog);
            let (threads, report) = callback_threads(&prog, &ExploreOptions::default(), 4);
            assert!(report.ok() || !report.violations.is_empty(), "{:?}", report.stop);
            assert_eq!(threads, HashSet::from([std::thread::current().id()]));
        }
    }

    /// `n` threads each writing a variable of its own: unreduced, `2^n`
    /// states, and every depth-first level queues one novel successor per
    /// thread still to run — at 14 threads the backlog outgrows
    /// [`KEEP_LOCAL`], so the walk must export.
    fn wide(n: usize) -> rc11_lang::CfgProgram {
        let mut p = ProgramBuilder::new("wide");
        for t in 0..n {
            let x = p.client_var(&format!("x{t}"), 0);
            p.add_thread(ThreadBuilder::new(), seq([wr(x, 1)]));
        }
        compile(&p.build())
    }

    /// A walk that exports recruits its helpers, and they share the
    /// callbacks.
    #[test]
    fn exporting_walks_recruit_helpers() {
        let prog = wide(14);
        let tel = Arc::new(Telemetry::new());
        let opts = ExploreOptions {
            reduce: Reduction::None,
            telemetry: Some(tel),
            ..Default::default()
        };
        let (threads, report) = callback_threads(&prog, &opts, 2);
        assert!(report.ok());
        let snap = report.telemetry.expect("telemetry attached");
        assert!(snap.get(Counter::InjectorFlushes) > 0, "the walk must export");
        assert!(threads.len() >= 2, "helpers ran callbacks: {threads:?}");
    }

    /// A contained fault on worker 0 before any helper exists hands its
    /// backlog to freshly recruited helpers: the walk carries on degraded
    /// and still finds real terminals.
    #[test]
    fn fault_before_recruitment_recruits_survivors() {
        let prog = wide(8);
        let oracle = reference::explore(&prog, &AbstractObjects, usize::MAX, |_, _| {});
        let want: HashSet<&Config> = oracle.terminated.iter().collect();
        let opts = ExploreOptions {
            reduce: Reduction::None,
            chaos: Some(ChaosState::new(FaultPlan {
                worker_panic_at: Some(3),
                ..Default::default()
            })),
            ..Default::default()
        };
        let report = Engine::Parallel { workers: 2 }.explore(&prog, &AbstractObjects, &opts);
        assert_eq!(report.stop, StopReason::WorkerFault);
        assert!(report.notes.iter().any(|n| matches!(n, Note::WorkerFault { .. })));
        assert!(!report.terminated.is_empty(), "survivors explored past the fault");
        assert!(report.terminated.iter().all(|c| want.contains(c)), "terminals are real");
    }
}
