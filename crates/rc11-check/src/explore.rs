//! The exploration walk — the one loop every exhaustive query runs on.
//!
//! Exhaustive exploration of all reachable configurations of
//! a compiled program under the RC11 RAR semantics, deduplicating on
//! canonical forms (rc11-core's canonicalisation makes interleavings that
//! produce the same state collide). This is the executable counterpart of
//! the paper's "for all executions" quantifier: every lemma is checked at
//! every reachable configuration.
//!
//! Deduplication has one mode, over **canonical encodings**: each
//! successor is encoded once, in canonical order, into a reused word
//! buffer (`Config::encode_canonical`, the word format of
//! `rc11_core::canon`); the visited map sends the words' `Fp128`
//! fingerprint to state ids, a fingerprint hit is confirmed by comparing
//! the words with the interned representative's, and a novel state is
//! **interned exactly once** by copying its words into the arena (which
//! doubles as the parent-pointer store for trace reconstruction). No
//! configuration is stored: one is decoded from its words where it is
//! consumed — to expand it, to run a state query's check, to report a
//! terminal, deadlock or violation, to rebuild a trace. Verdicts equal
//! those of [`crate::reference`], the breadth-first oracle over
//! materialised canonical forms (ablation A4 in DESIGN.md).
//!
//! Under [`Reduction::Full`](crate::engine::Reduction) the walk layers on
//! the reductions the query allows (see
//! [`Reduction`](crate::engine::Reduction)). Sleep-set partial-order
//! reduction (`crate::por`, ablation A5): work items carry sleep/expansion
//! thread masks, interned nodes remember which threads have been expanded
//! (for the wake-up rule on duplicate hits), and commuted sibling orders
//! are pruned before their successors are generated — transitions shrink,
//! states and verdicts provably do not.
//!
//! Outcome queries further restrict each state to a **persistent set** of
//! threads ([`rc11_analyze::persistent`], ablation A7): the smallest
//! closure of pc-sensitive future-footprint conflicts. Threads outside the
//! closure commute with every member for the rest of the run, so
//! postponing them preserves every terminal and deadlock — but not every
//! intermediate state, so `states` may shrink too. Work items then carry
//! the *true* arriving sleep set (`full & !proposal` would over-sleep the
//! postponed threads), duplicate arrivals wake underexplored threads
//! exactly as in A5, and a **retry rule** handles blocked persistent
//! sets: when an expansion produces no successor but some non-slept,
//! never-explored thread still has one (a persistent member blocked on a
//! lock, say), the expansion grows to those threads instead of
//! classifying the state.
//!
//! Every query — outcome sets ([`crate::engine::Engine::explore`]),
//! per-state checks ([`crate::engine::Engine::explore_with`]) and the
//! per-edge proof-outline classification ([`crate::outline_check`]) — is
//! this one walk with different hooks and a different reduction level.
//! Budgets, cancellation, checkpoint/resume, chaos fault points, telemetry
//! and counterexample traces live here once. The option/report/violation
//! types live in [`crate::engine`]; `Report` is a compatibility alias for
//! [`EngineReport`](crate::engine::EngineReport). The differential suite
//! (`tests/engine_agreement.rs`) holds the walk to [`crate::reference`]'s
//! answers.

use crate::checkpoint::{self, CheckpointOpts, ViolationRec};
use crate::engine::{Level, Note, Query, StopReason};
use crate::fxhash::{fingerprint, Fp128, FxHashMap, IdBucket};
use crate::por::{self, ThreadMask};
use crate::sym;
use rc11_analyze::SymmetrySpec;
use rc11_core::{CanonPerms, Tid};
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{
    thread_successors, thread_successors_into, Config, ObjectSemantics, SuccessorPool,
};
use rc11_telemetry::{Counter, Telemetry};
use std::sync::Arc;
use std::time::Instant;

pub use crate::engine::{EngineReport as Report, ExploreOptions, Violation};

/// One interned state: where its canonical encoding lives in the
/// [`Store`]'s word chunks (stored exactly once across the whole walk),
/// the first-discovery parent edge and the mask of threads expansion work
/// has been queued for (the complement of the intersection of every
/// arriving sleep set — always full without POR; see `crate::por` for
/// the wake-up rule). Under symmetry reduction the group permutation the
/// committing edge's raw successor was transported through, from which
/// [`reconstruct_trace`] rebuilds exactly replayable traces, lives beside
/// the node in the [`Store`]'s σ buffer.
struct Node {
    /// Word chunk, first word and word count of the encoding.
    words: (u32, u32, u32),
    parent: Option<(u32, Tid)>,
    explored: ThreadMask,
    /// Index of the committing successor within the parent edge's
    /// `thread_successors` result — the checkpoint replay key (0 for the
    /// root; see `crate::checkpoint`).
    succ_idx: u32,
}

/// Transport an arrival's proposal and sleep masks through the group
/// permutation its successor was matched or interned under (`None` =
/// identity), into the stored state's thread numbering.
fn remap(
    proposal: ThreadMask,
    sleep: ThreadMask,
    sigma: Option<&[u8]>,
) -> (ThreadMask, ThreadMask) {
    match sigma {
        Some(sg) => (sym::remap_mask(proposal, sg), sym::remap_mask(sleep, sg)),
        None => (proposal, sleep),
    }
}

/// Decode `words` into the scratch configuration, creating it on first
/// use: the walk reuses one configuration per purpose instead of
/// allocating one per decoded state.
fn decode_scratch<'c>(scratch: &'c mut Option<Config>, words: &[u32]) -> &'c Config {
    match scratch {
        Some(cfg) => {
            cfg.decode_into(words);
            cfg
        }
        None => scratch.insert(Config::decode(words)),
    }
}

/// The walk's store of interned states: each canonical configuration's
/// encoding, kept exactly once in chunks of `u32` words, its [`Node`]
/// under a `u32` id, and the visited index from fingerprints to ids. A
/// word chunk is never reallocated — growth opens the next, twice as
/// large — so interning copies the words once and allocates nothing
/// until a chunk fills, and dropping the store frees a handful of
/// buffers however many states it holds (DESIGN.md, "The one walk").
///
/// Under symmetry reduction every node also has a group permutation σ —
/// the one its committing edge's raw successor was transported through —
/// kept as `width` bytes per node in one side buffer (`width` is the
/// thread count under symmetry, else 0 and the buffer stays empty). The
/// optional telemetry sink tallies dedup events where they happen.
#[derive(Default)]
struct Store {
    index: FxHashMap<Fp128, IdBucket>,
    nodes: Vec<Node>,
    words: Vec<Vec<u32>>,
    width: usize,
    sigmas: Vec<u8>,
    tel: Option<Arc<Telemetry>>,
}

/// Words in the store's first chunk of encodings; each later chunk
/// doubles, up to `MAX_CHUNK_WORDS` unless one encoding needs more.
const FIRST_CHUNK_WORDS: usize = 1 << 12;
const MAX_CHUNK_WORDS: usize = 1 << 20;

/// The outcome of probing a successor against the store: already
/// interned, or novel with its fingerprint carried over for the insert.
/// Either way the probe's canonical permutations, symmetry choice
/// included, stay in the walk's scratch [`CanonPerms`], and its encoding
/// in the scratch words, for the caller.
enum Probe {
    /// Already interned, under this id (POR duplicate hits consult the
    /// node's `explored` mask for the wake-up rule, after transporting
    /// the arriving masks through the scratch group permutation).
    Dup(u32),
    /// Not interned yet: the fingerprint [`Store::insert`] reuses.
    Novel(Fp128),
}

impl Store {
    /// An empty store keeping `width` bytes of σ per node.
    fn new(width: usize, tel: Option<Arc<Telemetry>>) -> Store {
        Store { width, tel, ..Store::default() }
    }

    /// Node `id`'s group permutation (`None` without symmetry).
    #[inline]
    fn sigma(&self, id: u32) -> Option<&[u8]> {
        let w = self.width;
        (w > 0).then(|| &self.sigmas[id as usize * w..(id as usize + 1) * w])
    }

    /// Node `id`'s canonical encoding.
    #[inline]
    fn words(&self, id: u32) -> &[u32] {
        let (chunk, start, len) = self.nodes[id as usize].words;
        &self.words[chunk as usize][start as usize..(start + len) as usize]
    }

    /// Probe a raw (non-canonical) successor: encode it canonically into
    /// the scratch `words` — with a symmetry spec under its canonical
    /// group permutation (`sym::encode`), so the whole orbit probes to one
    /// interned representative — fingerprint the words, and compare them
    /// with the words of each candidate in the (almost always empty or
    /// single-entry, matching) bucket. Allocation-free once the scratch
    /// buffers have grown.
    fn probe(
        &self,
        succ: &Config,
        symm: Option<&SymmetrySpec>,
        perms: &mut CanonPerms,
        words: &mut Vec<u32>,
    ) -> Probe {
        sym::encode(symm, succ, perms, words);
        let fp = fingerprint(words);
        let Some(id) = self.lookup(fp, words) else {
            return Probe::Novel(fp);
        };
        if let Some(t) = &self.tel {
            t.incr(Counter::DupHits);
            // A match through a non-identity group permutation folded a
            // symmetric orbit member.
            if perms.threads().is_some_and(|s| !sym::is_identity(s)) {
                t.incr(Counter::SymmetryFolds);
            }
        }
        Probe::Dup(id)
    }

    /// The id interned under fingerprint `fp` with exactly these words.
    fn lookup(&self, fp: Fp128, words: &[u32]) -> Option<u32> {
        let bucket = self.index.get(&fp).map_or(&[][..], IdBucket::ids);
        bucket.iter().copied().find(|&id| self.words(id) == words)
    }

    /// The probe of a successor equal to the configuration `id` it was
    /// generated from (a spin that changed nothing), answered without
    /// encoding it: a duplicate of `id` under the identity permutation,
    /// tallied as the full probe would tally it.
    fn self_loop(&self, id: u32) -> Probe {
        if let Some(t) = &self.tel {
            t.incr(Counter::DupHits);
        }
        Probe::Dup(id)
    }

    /// Intern a probed-novel encoding under the next id, with its group
    /// permutation (`None` = the identity), first-discovery edge, explored
    /// mask and replay key, and return the id. The words are copied into
    /// the last chunk, or a new one when it lacks room.
    fn insert(
        &mut self,
        fp: Fp128,
        words: &[u32],
        sigma: Option<&[u8]>,
        parent: Option<(u32, Tid)>,
        explored: ThreadMask,
        succ_idx: u32,
    ) -> u32 {
        let id = self.nodes.len() as u32;
        if let Some(t) = &self.tel {
            t.incr(Counter::States);
        }
        match self.index.entry(fp) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Two distinct canonical states share this Fp128: a real,
                // confirmed fingerprint collision.
                if let Some(t) = &self.tel {
                    t.incr(Counter::FpCollisions);
                }
                e.get_mut().push(id);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IdBucket::One(id));
            }
        }
        let last = self.words.last();
        if last.is_none_or(|c| c.capacity() - c.len() < words.len()) {
            let next = last.map_or(FIRST_CHUNK_WORDS, |c| (2 * c.capacity()).min(MAX_CHUNK_WORDS));
            self.words.push(Vec::with_capacity(next.max(words.len())));
        }
        let k = self.words.len() - 1;
        let chunk = &mut self.words[k];
        let start = chunk.len() as u32;
        chunk.extend_from_slice(words);
        let len = u32::try_from(words.len()).expect("an encoding past 2^32 words");
        if self.width > 0 {
            match sigma {
                Some(sg) => self.sigmas.extend_from_slice(sg),
                None => self.sigmas.extend((0..self.width).map(|t| t as u8)),
            }
        }
        self.nodes.push(Node { words: (k as u32, start, len), parent, explored, succ_idx });
        id
    }
}

/// Does `succ`, a successor equal to interned state `id`, probe to `id`
/// under the identity permutation? The full probe the walk's self-loop
/// rule skips, without its telemetry: the rule's `debug_assert`.
fn self_loop_probes_home(
    store: &Store,
    id: u32,
    succ: &Config,
    symm: Option<&SymmetrySpec>,
    perms: &mut CanonPerms,
    words: &mut Vec<u32>,
) -> bool {
    sym::encode(symm, succ, perms, words);
    store.lookup(fingerprint(words), words) == Some(id) && perms.threads().is_none()
}

/// What interning `words` costs the memory budget: the words and the
/// node that points at them.
fn interned_bytes(words: &[u32]) -> u64 {
    (std::mem::size_of_val(words) + std::mem::size_of::<Node>()) as u64
}

/// The explorer.
pub struct Explorer<'a> {
    prog: &'a CfgProgram,
    objs: &'a dyn ObjectSemantics,
    opts: ExploreOptions,
}

impl<'a> Explorer<'a> {
    /// A new explorer over `prog` with object semantics `objs`.
    pub fn new(prog: &'a CfgProgram, objs: &'a dyn ObjectSemantics) -> Explorer<'a> {
        Explorer { prog, objs, opts: ExploreOptions::default() }
    }

    /// Replace the options.
    pub fn with_options(mut self, opts: ExploreOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Exhaustive reachability with a per-configuration check callback.
    /// The callback pushes a description into the reusable buffer for
    /// every property the configuration violates, so violation-free
    /// configurations allocate nothing. A state query (see
    /// [`Reduction`](crate::engine::Reduction)).
    pub fn explore_with(&self, check: impl FnMut(&Config, &mut Vec<String>)) -> Report {
        self.walk(Query::States, |_, _, _| {}, check)
    }

    /// The walk behind every query, at the level `opts.reduce` allows for
    /// `query`. Two hooks observe it:
    ///
    /// * `on_edge(parent, tid, successor)` — every generated edge, visited
    ///   or not, with the successor handed **raw** (non-canonical): the
    ///   outline checker's per-edge classification;
    /// * `check(config, buf)` — state queries only: each interned
    ///   canonical configuration once, at first discovery (the initial one
    ///   included), plus — under symmetry — every other member of its
    ///   orbit. Other queries never call it, so they decode no state just
    ///   to show it.
    ///
    /// Checkpoints are taken only for outcome and state queries: an edge
    /// query's caller keeps state (the outline recorder) no checkpoint
    /// holds.
    pub(crate) fn walk(
        &self,
        query: Query,
        mut on_edge: impl FnMut(&Config, Tid, &Config),
        mut check: impl FnMut(&Config, &mut Vec<String>),
    ) -> Report {
        let level = Level::of(self.opts.reduce, query);
        let run_start = Instant::now();
        // Telemetry rides as a delta: snapshot the (possibly shared,
        // cumulative) sink at entry and attach only this run's
        // contribution to the report.
        let tel = self.opts.telemetry.clone();
        let tel0 = tel.as_ref().map(|t| t.snapshot());
        let mut report = Report::default();
        let mut buf: Vec<String> = Vec::new();
        let n_threads = self.prog.n_threads();
        // POR's thread masks cap at 64 bits; larger programs fall back to
        // the unreduced search (which iterates threads by index and
        // supports any count `Tid` can name), flagged on the report.
        let mut por = level.sleep;
        if por && n_threads > 64 {
            por = false;
            report.note(Note::PorThreadCap { threads: n_threads });
            if let Some(t) = &tel {
                t.incr(Counter::CapDegradations);
            }
        }
        let full = if por { por::full_mask(n_threads) } else { !0 };
        let (spec, capped_orbit) = sym::active_spec(self.prog, level.symmetry);
        if let Some(orbit) = capped_orbit {
            report.note(Note::SymmetryOrbitCap { orbit });
            if let Some(t) = &tel {
                t.incr(Counter::CapDegradations);
            }
        }
        let symm = spec.as_ref();
        // The interned state arena: every canonical encoding stored
        // exactly once, with its first-discovery parent edge (and, under
        // symmetry, its group permutation).
        let sigma_width = if symm.is_some() { n_threads } else { 0 };
        let mut store = Store::new(sigma_width, tel.clone());
        // Scratch canonical permutations and encoding, refilled by every
        // probe, and scratch configurations: the one being expanded and
        // the one a state query checks.
        let mut perms = CanonPerms::default();
        let mut words: Vec<u32> = Vec::new();
        let mut expanding: Option<Config> = None;
        let mut checking: Option<Config> = None;
        let checks = query == Query::States;
        let mut orbits = symm.map(sym::Orbits::new);
        // The identity permutation: the orbit "member" a representative's
        // own trace is reconstructed for.
        let identity: Vec<u8> = (0..n_threads).map(|t| t as u8).collect();
        let statics = por.then(|| rc11_analyze::conflict_matrix(self.prog));
        let mut pers = (por && level.persistent).then(|| por::PersistentMemo::new(self.prog));

        // Resilience machinery: budgets are checked between work items (so
        // every stop lands on a clean item boundary and the report is a
        // sound prefix), checkpointing snapshots the discovery log at the
        // same boundaries.
        let budget = self.opts.budget;
        let deadline = budget.deadline.map(|d| Instant::now() + d);
        let mut mem_bytes: u64 = 0;
        let ckpt = self.opts.checkpoint.clone().filter(|_| query != Query::Edges);
        let sig = ckpt.as_ref().map(|_| self.checkpoint_sig(level));
        // Terminal and deadlocked states by id (configurations are decoded
        // once, after the walk), and violations as references for the
        // checkpoint (`crate::checkpoint` stores ids, not configurations).
        let mut term_ids: Vec<u32> = Vec::new();
        let mut dead_ids: Vec<u32> = Vec::new();
        let mut viol_recs: Vec<ViolationRec> = Vec::new();

        // Run `check` on interned state `id` (and, under symmetry, on
        // every other member of its orbit: observation tuples and
        // invariants may distinguish thread identities the reduction
        // modded out), recording what it reports.
        let mut visit = |id: u32,
                         store: &Store,
                         report: &mut Report,
                         recs: &mut Vec<ViolationRec>| {
            if !checks {
                return;
            }
            let canon = decode_scratch(&mut checking, store.words(id));
            check(canon, &mut buf);
            for what in buf.drain(..) {
                if ckpt.is_some() {
                    recs.push(ViolationRec { what: what.clone(), node: id, pi: None });
                }
                report.violations.push(Violation {
                    what,
                    config: canon.clone(),
                    trace: self.opts.record_traces.then(|| {
                        reconstruct_trace(store, id, symm.map(|s| (s, &identity[..])))
                    }),
                });
            }
            let Some(orbits) = &mut orbits else { return };
            let spec = orbits.spec();
            orbits.for_each_member(canon, |pi, member| {
                check(member, &mut buf);
                for what in buf.drain(..) {
                    if ckpt.is_some() {
                        let pi = Some(pi.to_vec());
                        recs.push(ViolationRec { what: what.clone(), node: id, pi });
                    }
                    report.violations.push(Violation {
                        what,
                        config: member.clone(),
                        trace: self.opts.record_traces.then(|| {
                            reconstruct_trace(store, id, Some((spec, pi)))
                        }),
                    });
                }
            });
        };

        // Work items: `(node, threads to expand, arriving sleep set,
        // first visit?)`. Without POR every item is `(id, full, ∅, true)`
        // and the loop below degenerates to the classical search (same
        // expansion order, same transition counts). See `crate::por` for
        // the sleep-set rules. With persistent sets the expansion mask
        // starts from the state's persistent set instead of `full`.
        let mut frontier: Vec<(u32, ThreadMask, ThreadMask, bool)> = Vec::new();

        // The initial configuration is charged against the budget before
        // it is built: a program too large for the budget stops with no
        // state rather than allocating it.
        let too_large = budget.refuses_initial(self.prog);
        if too_large {
            report.stop.bump(StopReason::MemBudget);
        }

        // Resume from a matching checkpoint, or seed afresh. A resumed run
        // restores the exact mid-run state of the interrupted one (arena,
        // index, frontier, counters, report entries), so continuing it
        // produces a report bit-identical to an uninterrupted run's.
        let mut resumed = false;
        if let (false, Some(ck), Some(sig)) = (too_large, &ckpt, sig) {
            if let Some(data) = checkpoint::load(&ck.dir, sig) {
                match self.replay_log(&data, symm, sigma_width, &mut perms, &mut words) {
                    Ok(replayed) => {
                        store = replayed;
                        report.transitions = data.transitions as usize;
                        mem_bytes = data.mem_bytes;
                        frontier = data.frontier.clone();
                        term_ids = data.terminated.clone();
                        dead_ids = data.deadlocked.clone();
                        for vr in &data.violations {
                            let canon = Config::decode(store.words(vr.node));
                            let config = match (&vr.pi, symm) {
                                (Some(pi), Some(spec)) => canon.permute_threads(pi, spec.maps()),
                                _ => canon,
                            };
                            let trace = self.opts.record_traces.then(|| {
                                let pi = vr.pi.as_deref().unwrap_or(&identity);
                                reconstruct_trace(&store, vr.node, symm.map(|s| (s, pi)))
                            });
                            report.violations.push(Violation {
                                what: vr.what.clone(),
                                config,
                                trace,
                            });
                        }
                        viol_recs = data.violations;
                        resumed = true;
                    }
                    Err(message) => {
                        report.note(Note::CheckpointError { message });
                        store = Store::new(sigma_width, tel.clone());
                    }
                }
            }
        }

        if !resumed && !too_large {
            let init = Config::initial(self.prog);
            let Probe::Novel(fp) = store.probe(&init, symm, &mut perms, &mut words) else {
                unreachable!("the store is empty")
            };
            let init_prop = pers.as_mut().map_or(full, |p| p.mask(init.pcs()));
            mem_bytes += interned_bytes(&words);
            store.insert(fp, &words, perms.threads(), None, init_prop, 0);
            visit(0, &store, &mut report, &mut viol_recs);
            frontier.push((0, init_prop, 0, true));
        }

        // Per-expansion scratch, reused across pops: one thread's
        // successors, the terminal probe's successors, and (under POR) the
        // lazily extracted footprints.
        let mut succs = SuccessorPool::default();
        let mut probe_buf = SuccessorPool::default();
        let mut fps = por.then(|| por::LazyFootprints::new(n_threads));
        let mut pops: usize = 0;
        loop {
            // Budget and cancellation gates, between work items: any trip
            // stops on a clean boundary with a sound prefix report.
            if self.opts.cancel.is_cancelled() {
                report.stop.bump(StopReason::Cancelled);
                break;
            }
            if deadline.is_some_and(|dl| Instant::now() >= dl) {
                report.stop.bump(StopReason::Deadline);
                break;
            }
            if budget.max_transitions.is_some_and(|cap| report.transitions >= cap) {
                report.stop.bump(StopReason::TransitionCap);
                break;
            }
            if budget.max_mem_bytes.is_some_and(|cap| mem_bytes as usize >= cap) {
                report.stop.bump(StopReason::MemBudget);
                break;
            }
            if let (Some(ck), Some(sig)) = (&ckpt, sig) {
                if pops > 0 && pops.is_multiple_of(ck.every.max(1)) {
                    self.save_checkpoint(
                        ck, sig, &mut report, &store, &frontier, mem_bytes, &term_ids,
                        &dead_ids, &viol_recs,
                    );
                }
            }
            // Gauge the pre-pop depth so the peak registers even a 1-state
            // frontier, then the post-pop depth for the live gauge.
            if let Some(t) = &tel {
                t.frontier_set(frontier.len() as u64);
            }
            let Some((id, mask, sleep, first)) = frontier.pop() else { break };
            pops += 1;
            if let Some(t) = &tel {
                t.add_expansions(0, 1);
                t.frontier_set(frontier.len() as u64);
            }
            // Fault injection: an injected panic unwinds to the caller —
            // the request path's `catch_unwind` converts it to a
            // `WorkerFault` report.
            if let Some(chaos) = &self.opts.chaos {
                chaos.on_expansion();
            }
            // Expand: the configuration is decoded from its words into the
            // scratch `expanding` configuration. Each thread's successors
            // are generated together, shown to `on_edge`, then probed and
            // interned one by one while still hot in cache.
            if let Some(fps) = &mut fps {
                fps.reset();
            }
            let cfg = decode_scratch(&mut expanding, store.words(id));
            let mut any_succ = false;
            let mut earlier: ThreadMask = 0;
            for t in 0..n_threads {
                if por && mask & (1u64 << t) == 0 {
                    continue;
                }
                thread_successors_into(self.prog, self.objs, cfg, t, self.opts.step, &mut succs);
                report.transitions += succs.len();
                if let Some(tl) = &tel {
                    tl.add(Counter::Transitions, succs.len() as u64);
                }
                any_succ |= !succs.is_empty();
                let child_sleep = match (&mut fps, &statics) {
                    (Some(fps), Some(cm)) => {
                        let cs = por::child_sleep_static(
                            self.prog,
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
                for succ in succs.iter() {
                    on_edge(cfg, tid, succ);
                }
                for (si, succ) in succs.iter().enumerate() {
                    // The successor's persistent set (full without A7).
                    // A pure function of the program counters, computed on
                    // the raw successor (memoised per pc tuple) and
                    // transported through σ with the sleep mask —
                    // symmetric threads have equal future footprints, so
                    // the remapped mask is exactly the stored
                    // representative's persistent set.
                    let pmask = pers.as_mut().map_or(full, |p| p.mask(succ.pcs()));
                    if por {
                        if let Some(tl) = &tel {
                            // Reduction attribution, per successor: threads
                            // slept out of the persistent proposal (A5) and
                            // threads the persistent mask sheds whole (A7).
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
                    let (proposal, sleep) = (pmask & !child_sleep, child_sleep);
                    // A successor equal to the state being expanded (a
                    // spin that changed nothing) is a duplicate of it
                    // under the identity, known without encoding it.
                    let self_loop = succ == cfg;
                    let probe = if self_loop {
                        debug_assert!(
                            self_loop_probes_home(&store, id, succ, symm, &mut perms, &mut words),
                            "a self-loop did not probe to its own state under the identity"
                        );
                        store.self_loop(id)
                    } else {
                        store.probe(succ, symm, &mut perms, &mut words)
                    };
                    let fp = match probe {
                        Probe::Dup(dup_id) => {
                            if por {
                                // Wake-up rule: threads this arrival would
                                // explore but no earlier arrival queued —
                                // with the masks transported into the
                                // stored state's thread numbering first.
                                // The queued item carries the arrival's
                                // true sleep set: under A7 `full & !prop`
                                // would unsoundly sleep the merely
                                // postponed outside-persistent threads.
                                let sigma = if self_loop { None } else { perms.threads() };
                                let (prop, slp) = remap(proposal, sleep, sigma);
                                let missing = prop & !store.nodes[dup_id as usize].explored;
                                if missing != 0 {
                                    store.nodes[dup_id as usize].explored |= missing;
                                    frontier.push((dup_id, missing, slp, false));
                                }
                            }
                            continue;
                        }
                        Probe::Novel(fp) => fp,
                    };
                    if store.nodes.len() >= self.opts.max_states {
                        report.stop.bump(StopReason::StateCap);
                        continue;
                    }
                    mem_bytes += interned_bytes(&words);
                    // The explored/sleep masks live in the stored state's
                    // numbering: transport proposal and sleep through σ.
                    let (prop, slp) = match por {
                        true => remap(proposal, sleep, perms.threads()),
                        false => (proposal, sleep),
                    };
                    let sigma = perms.threads();
                    let new_id = store.insert(fp, &words, sigma, Some((id, tid)), prop, si as u32);
                    visit(new_id, &store, &mut report, &mut viol_recs);
                    frontier.push((new_id, prop, slp, true));
                }
            }
            if !any_succ {
                // The expanded threads produced nothing. Only a *first*
                // visit may classify the state as terminal, and only after
                // probing the threads it arrived asleep (a fully slept
                // configuration has successors — all covered elsewhere —
                // and is not terminal; see `por::has_any_successor` for
                // why the probe stays out of the transition count).
                // Without POR, `mask` is full and this probes nothing.
                if first
                    && !por::has_any_successor(
                        self.prog,
                        self.objs,
                        cfg,
                        full & !mask,
                        self.opts.step,
                        &mut probe_buf,
                    )
                {
                    if cfg.terminated(self.prog) {
                        term_ids.push(id);
                    } else {
                        dead_ids.push(id);
                    }
                } else {
                    // Retry rule (A7): every expanded thread was blocked
                    // — a persistent member stuck on a lock acquire, say —
                    // but the state is not terminal. Persistence cannot
                    // promise an outside thread will unblock a member
                    // (outsiders never conflict with members' futures), so
                    // grow the expansion to every non-slept thread never
                    // queued here. Slept threads stay out: their steps are
                    // covered from a sibling state (the A5 argument).
                    // Without A7 `explored` already covers `full & !sleep`,
                    // so `rest` is zero and nothing changes.
                    let rest = full & !sleep & !store.nodes[id as usize].explored;
                    if rest != 0
                        && por::has_any_successor(
                            self.prog,
                            self.objs,
                            cfg,
                            rest,
                            self.opts.step,
                            &mut probe_buf,
                        )
                    {
                        store.nodes[id as usize].explored |= rest;
                        frontier.push((id, rest, sleep, false));
                    }
                }
            }
            // Past the state cap every further expansion can only re-count
            // transitions of states we will drop anyway — stop the walk.
            if !report.stop.is_complete() {
                break;
            }
        }
        // A cancellation that raced the final items must still be
        // reported: a cancelled run never claims `Complete`.
        if self.opts.cancel.is_cancelled() {
            report.stop.bump(StopReason::Cancelled);
        }
        // Completed runs delete their checkpoint; interrupted ones write a
        // final snapshot so a resume continues from this exact boundary.
        if let (Some(ck), Some(sig)) = (&ckpt, sig) {
            if report.stop.is_complete() {
                checkpoint::remove(&ck.dir);
            } else {
                self.save_checkpoint(
                    ck, sig, &mut report, &store, &frontier, mem_bytes, &term_ids, &dead_ids,
                    &viol_recs,
                );
            }
        }
        let configs = |ids: &[u32]| ids.iter().map(|&id| Config::decode(store.words(id))).collect();
        report.terminated = configs(&term_ids);
        report.deadlocked = configs(&dead_ids);
        // Terminal/deadlock sets are reported in unreduced terms: expand
        // each representative's orbit back out (orbits of distinct
        // representatives are disjoint, so this is exactly the unreduced
        // search's set).
        if let Some(orbits) = &mut orbits {
            orbits.expand(&mut report.terminated);
            orbits.expand(&mut report.deadlocked);
        }
        report.states = store.nodes.len();
        // Free the store before stamping `wall`: its teardown is part of
        // the walk's cost, not of whatever the caller does next.
        drop(store);
        report.wall = run_start.elapsed();
        if let (Some(t), Some(t0)) = (&tel, &tel0) {
            report.telemetry = Some(t.snapshot().delta(t0));
        }
        report
    }

    /// The signature binding a checkpoint to this program and the
    /// semantic options. `max_states` is included (a mid-item state-cap
    /// stop drops successors, so only a same-cap resume is sound);
    /// budgets and cancellation are not (they stop on clean item
    /// boundaries — resuming a deadline-stopped run *without* the
    /// deadline is the point).
    fn checkpoint_sig(&self, level: Level) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::fxhash::Fx128Hasher::default();
        format!("{:?}", self.prog).hash(&mut h);
        (
            level.word(),
            self.opts.record_traces,
            self.opts.step.fuse_local,
            self.opts.max_states,
        )
            .hash(&mut h);
        h.finish()
    }

    /// Rebuild the interned arena and visited index from a checkpoint's
    /// discovery log by replaying each node's `(parent, tid, succ_idx)`
    /// edge through `thread_successors` and the unchanged probe/commit
    /// path. The walk is deterministic, so a log written
    /// by the same program + options replays to the bit-identical arena;
    /// any divergence (stale file, changed semantics) is detected and
    /// reported, and the caller starts afresh.
    fn replay_log(
        &self,
        data: &checkpoint::CheckpointData,
        symm: Option<&SymmetrySpec>,
        sigma_width: usize,
        perms: &mut CanonPerms,
        words: &mut Vec<u32>,
    ) -> Result<Store, String> {
        let mut store = Store::new(sigma_width, self.opts.telemetry.clone());
        let mut parent: Option<Config> = None;
        for (k, rec) in data.nodes.iter().enumerate() {
            let (succ, edge) = if k == 0 {
                if rec.parent != u32::MAX {
                    return Err("stale or corrupt checkpoint ignored (bad root)".into());
                }
                (Config::initial(self.prog), None)
            } else {
                if rec.parent as usize >= k {
                    return Err("stale or corrupt checkpoint ignored (forward parent)".into());
                }
                let cfg = decode_scratch(&mut parent, store.words(rec.parent));
                let succs =
                    thread_successors(self.prog, self.objs, cfg, rec.tid as usize, self.opts.step);
                let Some(succ) = succs.into_iter().nth(rec.succ_idx as usize) else {
                    return Err("stale or corrupt checkpoint ignored (replay diverged)".into());
                };
                (succ, Some((rec.parent, Tid(rec.tid))))
            };
            let Probe::Novel(fp) = store.probe(&succ, symm, perms, words) else {
                return Err("stale or corrupt checkpoint ignored (duplicate edge)".into());
            };
            store.insert(fp, words, perms.threads(), edge, rec.explored, rec.succ_idx);
        }
        let n = store.nodes.len();
        if n == 0 {
            return Err("stale or corrupt checkpoint ignored (bad root)".into());
        }
        let in_range = data.frontier.iter().all(|&(id, ..)| (id as usize) < n)
            && data.terminated.iter().all(|&id| (id as usize) < n)
            && data.deadlocked.iter().all(|&id| (id as usize) < n)
            && data.violations.iter().all(|v| (v.node as usize) < n);
        if !in_range {
            return Err("stale or corrupt checkpoint ignored (id out of range)".into());
        }
        Ok(store)
    }

    /// Snapshot the discovery log to the checkpoint directory. Failures —
    /// real I/O errors or chaos-injected ones — never stop the run; they
    /// surface as a [`Note::CheckpointError`] and the walk continues
    /// without that save.
    #[allow(clippy::too_many_arguments)]
    fn save_checkpoint(
        &self,
        ck: &CheckpointOpts,
        sig: u64,
        report: &mut Report,
        store: &Store,
        frontier: &[(u32, ThreadMask, ThreadMask, bool)],
        mem_bytes: u64,
        term_ids: &[u32],
        dead_ids: &[u32],
        viol_recs: &[ViolationRec],
    ) {
        if let Some(chaos) = &self.opts.chaos {
            if chaos.should_fail_checkpoint() {
                report.note(Note::CheckpointError {
                    message: "injected checkpoint-write failure".into(),
                });
                return;
            }
        }
        let data = checkpoint::CheckpointData {
            transitions: report.transitions as u64,
            mem_bytes,
            nodes: store
                .nodes
                .iter()
                .map(|n| checkpoint::NodeRec {
                    parent: n.parent.map_or(u32::MAX, |(p, _)| p),
                    tid: n.parent.map_or(0, |(_, t)| t.0),
                    succ_idx: n.succ_idx,
                    explored: n.explored,
                })
                .collect(),
            frontier: frontier.to_vec(),
            terminated: term_ids.to_vec(),
            deadlocked: dead_ids.to_vec(),
            violations: viol_recs
                .iter()
                .map(|v| ViolationRec { what: v.what.clone(), node: v.node, pi: v.pi.clone() })
                .collect(),
        };
        if let Err(e) = checkpoint::save(&ck.dir, sig, &data) {
            report.note(Note::CheckpointError { message: format!("write failed: {e}") });
        }
    }

    /// Plain reachability (no property): an outcome query.
    pub fn explore(&self) -> Report {
        self.walk(Query::Outcomes, |_, _, _| {}, |_, _| {})
    }

    /// Check a predicate as a global invariant.
    pub fn check_invariant(&self, pred: &rc11_assert::Pred) -> Report {
        self.explore_with(|cfg, out| {
            let ctx = rc11_assert::EvalCtx { prog: self.prog, cfg };
            if !pred.eval(ctx) {
                out.push("invariant violated".to_string());
            }
        })
    }

    /// All values of thread `t`'s register `r` over *terminated* executions
    /// — the "possible final outcomes" question the litmus figures ask.
    pub fn terminal_reg_values(&self, t: usize, r: rc11_lang::Reg) -> Vec<rc11_core::Val> {
        let report = self.explore();
        assert!(!report.truncated(), "exploration truncated");
        let mut vals: Vec<rc11_core::Val> =
            report.terminated.iter().map(|c| c.reg(t, r)).collect();
        vals.sort();
        vals.dedup();
        vals
    }
}

/// Rebuild the step sequence from the root to state `last` by walking the
/// arena's first-discovery edges, decoding each state on the path.
///
/// Under symmetry reduction (`sym = Some((spec, π))`) the arena holds one
/// representative per orbit, with each node remembering the group
/// permutation `σ` its committing edge was transported through
/// (`R_k = σ_k(canon(s_k))`). An exactly replayable trace through the
/// *raw* orbit is recovered by walking backward with an accumulated
/// permutation `τ`, seeded with the target state's orbit permutation `π`
/// (identity for the representative itself): the replayed state at step
/// `k` is `τ_k(R_k)` re-canonicalised, the mover is the stored tid mapped
/// through `τ_{k-1}`, and crossing edge `k` composes `τ_{k-1} = τ_k ∘ σ_k`.
/// Group permutations are automorphisms and fix the initial configuration,
/// so every entry is a real transition from its predecessor and the walk
/// bottoms out at the true initial state — the symmetry trace-replay test
/// in `tests/engine_agreement.rs` steps every entry to confirm it.
fn reconstruct_trace(
    store: &Store,
    last: u32,
    sym: Option<(&SymmetrySpec, &[u8])>,
) -> Vec<(Tid, Config)> {
    let mut tau: Option<Vec<u8>> = sym.map(|(_, pi)| pi.to_vec());
    let mut rev = Vec::new();
    let mut cur = last;
    loop {
        let node = &store.nodes[cur as usize];
        let Some((parent, t)) = node.parent else { break };
        let canon = Config::decode(store.words(cur));
        let step = match (&mut tau, sym) {
            (Some(tau), Some((spec, _))) => {
                let m = if sym::is_identity(tau) {
                    canon
                } else {
                    canon.permute_threads(tau, spec.maps())
                };
                if let Some(sg) = store.sigma(cur) {
                    *tau = sg.iter().map(|&s| tau[s as usize]).collect();
                }
                (Tid(tau[t.idx()]), m)
            }
            _ => (t, canon),
        };
        rev.push(step);
        cur = parent;
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_lang::builder::*;
    use rc11_lang::machine::NoObjects;
    use rc11_lang::{compile, Reg};
    use rc11_objects::AbstractObjects;
    use rc11_core::Val;

    /// Figure 1 at the variable level: relaxed message passing leaves both
    /// outcomes reachable.
    fn mp_prog(rel_acq: bool) -> rc11_lang::CfgProgram {
        let mut p = ProgramBuilder::new("mp");
        let d = p.client_var("d", 0);
        let f = p.client_var("f", 0);
        let t1 = ThreadBuilder::new();
        p.add_thread(
            t1,
            seq([wr(d, 5), if rel_acq { wr_rel(f, 1) } else { wr(f, 1) }]),
        );
        let mut t2 = ThreadBuilder::new();
        let r1 = t2.reg("r1");
        let r2 = t2.reg("r2");
        p.add_thread(
            t2,
            seq([
                do_until(if rel_acq { rd_acq(r1, f) } else { rd(r1, f) }, eq(r1, 1)),
                rd(r2, d),
            ]),
        );
        compile(&p.build())
    }

    #[test]
    fn relaxed_mp_has_weak_outcome() {
        let prog = mp_prog(false);
        let ex = Explorer::new(&prog, &NoObjects);
        let vals = ex.terminal_reg_values(1, Reg(1));
        assert_eq!(vals, vec![Val::Int(0), Val::Int(5)], "r2 ∈ {{0, 5}}");
    }

    #[test]
    fn release_acquire_mp_is_exact() {
        let prog = mp_prog(true);
        let ex = Explorer::new(&prog, &NoObjects);
        let vals = ex.terminal_reg_values(1, Reg(1));
        assert_eq!(vals, vec![Val::Int(5)], "r2 = 5 in all executions");
    }

    #[test]
    fn lock_program_explores_and_terminates() {
        let mut p = ProgramBuilder::new("lock2");
        let x = p.client_var("x", 0);
        let l = p.lock("l");
        for _ in 0..2 {
            let mut tb = ThreadBuilder::new();
            let r = tb.reg("r");
            p.add_thread(tb, seq([acquire(l), rd(r, x), wr(x, add(r, 1)), release(l)]));
        }
        let prog = compile(&p.build());
        let report = Explorer::new(&prog, &AbstractObjects).explore();
        assert!(report.ok());
        assert!(report.deadlocked.is_empty(), "the lock must never deadlock");
        // Mutual exclusion ⇒ both increments land: x = 2 in all terminals.
        for term in &report.terminated {
            let st = term.mem.client();
            let max = st.max_op(rc11_core::Loc(0));
            assert_eq!(st.op(max).act.wrval(), Val::Int(2));
        }
    }

    #[test]
    fn invariant_violations_carry_traces() {
        let mut p = ProgramBuilder::new("bad");
        let x = p.client_var("x", 0);
        let t1 = ThreadBuilder::new();
        p.add_thread(t1, seq([wr(x, 1), wr(x, 2)]));
        let prog = compile(&p.build());
        // "x never holds 2" is violated after the second write.
        let pred = rc11_assert::dsl::pnot(rc11_assert::dsl::pobs(0, x, 2));
        let report = Explorer::new(&prog, &NoObjects).check_invariant(&pred);
        assert!(!report.violations.is_empty());
        let v = &report.violations[0];
        let trace = v.trace.as_ref().expect("traces recorded by default");
        assert!(!trace.is_empty(), "violation reached after at least one step");
    }

    #[test]
    fn truncation_is_reported() {
        let prog = mp_prog(false);
        let opts = ExploreOptions { max_states: 3, ..Default::default() };
        let report = Explorer::new(&prog, &NoObjects).with_options(opts).explore();
        assert!(report.truncated());
        assert_eq!(report.stop, crate::engine::StopReason::StateCap);
        assert!(!report.ok());
    }

    /// Interned encodings come back exactly as inserted, whatever their
    /// sizes, and filling a chunk opens the next instead of moving the
    /// words already interned.
    #[test]
    fn interned_encodings_stay_in_place() {
        let mut store = Store::new(0, None);
        let mut inserted = Vec::new();
        for i in 0..2_000u32 {
            let words: Vec<u32> = (0..(i * 37) % 1_500).map(|w| w ^ i).collect();
            store.insert(fingerprint(&words), &words, None, None, 0, 0);
            inserted.push(words);
        }
        let firsts: Vec<*const u32> = store.words.iter().map(|c| c.as_ptr()).collect();
        assert!(firsts.len() > 3, "{} chunks", firsts.len());
        for (id, words) in inserted.iter().enumerate() {
            assert_eq!(store.words(id as u32), &words[..]);
        }
        store.insert(fingerprint(&[7; 10]), &[7; 10], None, None, 0, 0);
        assert!(store.words.iter().zip(&firsts).all(|(c, &p)| c.as_ptr() == p), "a chunk moved");
    }

    /// The self-loop rule's premise, checked without the walk's
    /// `debug_assert`: on the corpus and on generated programs (symmetric
    /// ones included), every successor equal to the interned state it was
    /// generated from probes to that state under the identity
    /// permutation. Each program's space is interned by a breadth-first
    /// search over the store, up to a cap.
    #[test]
    fn self_loops_probe_to_their_own_state_under_the_identity() {
        let (mut self_loops, mut symmetric_loops) = (0, 0);
        // Three identical ticket-lock clients: symmetric, and spinning.
        let ticket = rc11_lang::parse_litmus(
            "litmus \"ticket3\" var next = 0 var serving = 0 var c = 0
             thread A { t = fai(next); do { s =acq serving; } until (s == t);
                        r = c; c = r + 1; serving =rel t + 1; }
             thread B { t = fai(next); do { s =acq serving; } until (s == t);
                        r = c; c = r + 1; serving =rel t + 1; }
             thread C { t = fai(next); do { s =acq serving; } until (s == t);
                        r = c; c = r + 1; serving =rel t + 1; }
             observe A.r B.r C.r expected { (0,1,2) }",
        )
        .expect("ticket3 parses");
        let mut programs = crate::test_programs(100);
        programs.push(("ticket3".into(), compile(&ticket.prog)));
        for (name, prog) in programs {
            let (spec, _) = sym::active_spec(&prog, true);
            let symm = spec.as_ref();
            let width = if symm.is_some() { prog.n_threads() } else { 0 };
            let mut store = Store::new(width, None);
            let (mut perms, mut words) = (CanonPerms::default(), Vec::new());
            let init = Config::initial(&prog);
            let Probe::Novel(fp) = store.probe(&init, symm, &mut perms, &mut words) else {
                unreachable!("the store is empty")
            };
            store.insert(fp, &words, perms.threads(), None, 0, 0);
            let mut pool = SuccessorPool::default();
            let mut next = 0;
            while next < store.nodes.len() && next < 2_000 {
                let id = next as u32;
                next += 1;
                let cfg = Config::decode(store.words(id));
                for t in 0..prog.n_threads() {
                    let (objs, step) = (crate::objects_of(&prog), Default::default());
                    thread_successors_into(&prog, objs, &cfg, t, step, &mut pool);
                    for succ in pool.iter() {
                        let probe = store.probe(succ, symm, &mut perms, &mut words);
                        if *succ == cfg {
                            let home = matches!(probe, Probe::Dup(d) if d == id);
                            assert!(home, "{name}: state {id}");
                            assert_eq!(perms.threads(), None, "{name}: state {id}");
                            self_loops += 1;
                            symmetric_loops += usize::from(symm.is_some());
                        } else if let Probe::Novel(fp) = probe {
                            let edge = Some((id, Tid(t as u8)));
                            store.insert(fp, &words, perms.threads(), edge, 0, 0);
                        }
                    }
                }
            }
        }
        let counts = format!("{self_loops} self-loops, {symmetric_loops} under symmetry");
        assert!(self_loops > 100 && symmetric_loops > 10, "{counts}");
    }

    #[test]
    fn blocked_threads_report_deadlock() {
        // One thread acquires twice: the second acquire blocks forever.
        let mut p = ProgramBuilder::new("deadlock");
        let l = p.lock("l");
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([acquire(l), acquire(l)]));
        let prog = compile(&p.build());
        let report = Explorer::new(&prog, &AbstractObjects).explore();
        assert_eq!(report.terminated.len(), 0);
        assert_eq!(report.deadlocked.len(), 1);
    }
}
