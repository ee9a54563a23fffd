//! The sequential state-space explorer.
//!
//! Exhaustive exploration of all reachable configurations of
//! a compiled program under the RC11 RAR semantics, deduplicating on
//! canonical forms (rc11-core's canonicalisation makes interleavings that
//! produce the same state collide). This is the executable counterpart of
//! the paper's "for all executions" quantifier: every lemma is checked at
//! every reachable configuration.
//!
//! Deduplication has one mode, keyed on zero-rebuild **canonical
//! fingerprints**: each successor is hashed in canonical order without
//! materialising the canonical form, the visited map sends `Fp128 → state
//! ids`, and every canonical configuration is **interned exactly once** in
//! the node arena (which doubles as the parent-pointer store for trace
//! reconstruction). A fingerprint hit is confirmed with a zero-rebuild
//! `canonical_eq` walk against the interned representative(s) in its
//! (rare) collision bucket, so verdicts equal those of
//! [`crate::reference`], the breadth-first oracle over materialised
//! canonical forms (ablation A4 in DESIGN.md).
//!
//! Under [`Reduction::Full`](crate::engine::Reduction) the walk layers on
//! the reductions the query allows (see
//! [`Reduction`](crate::engine::Reduction)). Sleep-set partial-order
//! reduction (`crate::por`, ablation A5): work items carry sleep/expansion
//! thread masks, arena nodes remember which threads have been expanded
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
//! The option/report/violation types shared with the parallel engine live
//! in [`crate::engine`]; `Report` is a compatibility alias for
//! [`EngineReport`](crate::engine::EngineReport). The differential suite
//! (`tests/engine_agreement.rs`) holds this explorer and the parallel
//! engine to [`crate::reference`]'s answers.

use crate::checkpoint::{self, CheckpointOpts, ViolationRec};
use crate::engine::{Level, Note, Query, StopReason};
use crate::fxhash::{CanonicalFingerprint, Fp128, FxHashMap, IdBucket};
use crate::por::{self, ThreadMask};
use crate::sym;
use rc11_analyze::SymmetrySpec;
use rc11_core::Tid;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{thread_successors, Config, ObjectSemantics};
use rc11_telemetry::{Counter, Telemetry};
use std::sync::Arc;
use std::time::Instant;

pub use crate::engine::{EngineReport as Report, ExploreOptions, Violation};

/// One interned state: its canonical configuration (stored exactly once
/// across the whole explorer), the first-discovery parent edge, the
/// mask of threads expansion work has been queued for (the complement of
/// the intersection of every arriving sleep set — always full without
/// POR; see `crate::por` for the wake-up rule), and — under symmetry
/// reduction — the group permutation the committing edge's raw successor
/// was transported through (`None` = identity), from which
/// [`reconstruct_trace`] rebuilds exactly replayable traces.
struct Node {
    cfg: Config,
    parent: Option<(u32, Tid)>,
    explored: ThreadMask,
    sigma: Option<Vec<u8>>,
    /// Index of the committing successor within the parent edge's
    /// `thread_successors` result — the checkpoint replay key (0 for the
    /// root; see `crate::checkpoint`).
    succ_idx: u32,
}

/// The visited index shared by the sequential explorer and the sequential
/// outline checker: a fingerprint → arena-ids map. The index never owns the
/// interned configurations — callers keep them in an arena and hand
/// lookups an `interned(id)` accessor — so each canonical configuration
/// is stored exactly once, whatever the arena's element type.
///
/// The optional telemetry sink is injected at construction so dedup
/// events — dup hits, symmetry-orbit folds, confirmed fingerprint
/// collisions, interned states — are tallied where they happen, without
/// threading a sink through every probe/commit signature.
pub(crate) struct VisitedIndex {
    map: FxHashMap<Fp128, IdBucket>,
    tel: Option<Arc<Telemetry>>,
}

/// The outcome of probing a successor against the visited index: already
/// interned, or novel with the probe work (fingerprint + permutations)
/// carried over for the insert.
pub(crate) enum Probe {
    /// Already interned, under this arena id (POR duplicate hits consult
    /// the node's `explored` mask for the wake-up rule, after transporting
    /// the arriving masks through the carried group permutation).
    Dup(u32, Option<Vec<u8>>),
    /// Not interned yet: the fingerprint and canonical permutations
    /// [`VisitedIndex::commit`] reuses.
    Novel(Fp128, rc11_core::CanonPerms),
}

impl VisitedIndex {
    pub(crate) fn new(tel: Option<Arc<Telemetry>>) -> VisitedIndex {
        VisitedIndex { map: FxHashMap::default(), tel }
    }

    /// Tally a duplicate probe hit (and, when the match went through a
    /// non-identity group permutation, a symmetry-orbit fold).
    #[inline]
    fn count_dup(&self, sigma: &Option<Vec<u8>>) {
        if let Some(t) = &self.tel {
            t.incr(Counter::DupHits);
            if sigma.as_deref().is_some_and(|s| !sym::is_identity(s)) {
                t.incr(Counter::SymmetryFolds);
            }
        }
    }

    /// Probe a raw (non-canonical) successor without materialising its
    /// canonical form: one hash walk, plus a `canonical_eq` confirmation
    /// walk per candidate in the (almost always empty or single-entry,
    /// matching) bucket — `interned` reads the candidate's canonical
    /// configuration out of the caller's arena. With a symmetry spec, the
    /// walk first installs the canonical group permutation
    /// (`sym::sym_perms`), so the whole orbit probes to one interned
    /// representative.
    pub(crate) fn probe<'a>(
        &self,
        succ: &Config,
        symm: Option<&SymmetrySpec>,
        interned: impl Fn(u32) -> &'a Config,
    ) -> Probe {
        let mut perms = succ.canonical_perms();
        if let Some(spec) = symm {
            perms.threads = spec.choose(succ, &perms);
        }
        let fp = match symm {
            Some(spec) => sym::fingerprint_sym(succ, &perms, spec),
            None => succ.fingerprint_with(&perms),
        };
        if let Some(bucket) = self.map.get(&fp) {
            for &id in bucket.ids() {
                let eq = match symm {
                    Some(spec) => succ.canonical_eq_sym(&perms, spec.maps(), interned(id)),
                    None => succ.canonical_eq_with(&perms, interned(id)),
                };
                if eq {
                    self.count_dup(&perms.threads);
                    return Probe::Dup(id, perms.threads);
                }
            }
        }
        Probe::Novel(fp, perms)
    }

    /// Intern a probed-novel successor under id `new_id`, returning its
    /// canonical configuration (materialised here, exactly once per
    /// distinct state) for the caller to push into its arena, plus the
    /// group permutation the successor was transported through (`None`
    /// without symmetry or when the choice was the identity).
    pub(crate) fn commit(
        &mut self,
        probe: Probe,
        succ: &Config,
        symm: Option<&SymmetrySpec>,
        new_id: u32,
    ) -> (Config, Option<Vec<u8>>) {
        let Probe::Novel(fp, perms) = probe else {
            unreachable!("only a novel probe is committed")
        };
        if let Some(t) = &self.tel {
            t.incr(Counter::States);
        }
        let canon = match symm {
            Some(spec) => succ.canonical_sym(&perms, spec.maps()),
            None => succ.canonical_with(&perms),
        };
        match self.map.entry(fp) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Two distinct canonical states share this Fp128: a real,
                // confirmed fingerprint collision.
                if let Some(t) = &self.tel {
                    t.incr(Counter::FpCollisions);
                }
                e.get_mut().push(new_id);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(IdBucket::One(new_id));
            }
        }
        (canon, perms.threads)
    }
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
        self.walk(Query::States, check)
    }

    /// The walk behind every query, at the level `opts.reduce` allows for
    /// `query`. Orbit members are handed to `check` only for state
    /// queries: outcome queries have no per-state callback.
    pub(crate) fn walk(
        &self,
        query: Query,
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
        let mut index = VisitedIndex::new(tel.clone());
        // The interned state arena: every canonical configuration stored
        // exactly once, with its first-discovery parent edge.
        let mut nodes: Vec<Node> = Vec::new();
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
        let members = if query == Query::States { symm } else { None };
        // The identity permutation: the orbit "member" a representative's
        // own trace is reconstructed for.
        let identity: Vec<u8> = (0..n_threads as u8).collect();
        let statics = por.then(|| rc11_analyze::conflict_matrix(self.prog));
        let pers = (por && level.persistent).then(|| rc11_analyze::future_footprints(self.prog));

        // Resilience machinery: budgets are checked between work items (so
        // every stop lands on a clean item boundary and the report is a
        // sound prefix), checkpointing snapshots the discovery log at the
        // same boundaries.
        let budget = self.opts.budget;
        let deadline = budget.deadline.map(|d| Instant::now() + d);
        let mut mem_bytes: u64 = 0;
        let ckpt = self.opts.checkpoint.clone();
        let sig = ckpt.as_ref().map(|_| self.checkpoint_sig(level));
        // Id-keyed mirrors of the report, maintained only when
        // checkpointing (`crate::checkpoint` stores references, not
        // configurations).
        let mut term_ids: Vec<u32> = Vec::new();
        let mut dead_ids: Vec<u32> = Vec::new();
        let mut viol_recs: Vec<ViolationRec> = Vec::new();

        // Work items: `(node, threads to expand, arriving sleep set,
        // first visit?)`. Without POR every item is `(id, full, ∅, true)`
        // and the loop below degenerates to the classical search (same
        // expansion order, same transition counts). See `crate::por` for
        // the sleep-set rules. With persistent sets the expansion mask
        // starts from the state's persistent set instead of `full`.
        let mut frontier: Vec<(u32, ThreadMask, ThreadMask, bool)> = Vec::new();

        // Resume from a matching checkpoint, or seed afresh. A resumed run
        // restores the exact mid-run state of the interrupted one (arena,
        // index, frontier, counters, report entries), so continuing it
        // produces a report bit-identical to an uninterrupted run's.
        let mut resumed = false;
        if let (Some(ck), Some(sig)) = (&ckpt, sig) {
            if let Some(data) = checkpoint::load(&ck.dir, sig) {
                match self.replay_log(&data, symm) {
                    Ok((ix, ns)) => {
                        index = ix;
                        nodes = ns;
                        report.transitions = data.transitions as usize;
                        mem_bytes = data.mem_bytes;
                        frontier = data.frontier.clone();
                        for &tid_ in &data.terminated {
                            report.terminated.push(nodes[tid_ as usize].cfg.clone());
                        }
                        for &did in &data.deadlocked {
                            report.deadlocked.push(nodes[did as usize].cfg.clone());
                        }
                        term_ids = data.terminated.clone();
                        dead_ids = data.deadlocked.clone();
                        for vr in &data.violations {
                            let node = &nodes[vr.node as usize];
                            let config = match (&vr.pi, symm) {
                                (Some(pi), Some(spec)) => {
                                    node.cfg.permute_threads(pi, spec.maps()).canonical()
                                }
                                _ => node.cfg.clone(),
                            };
                            let trace = self.opts.record_traces.then(|| {
                                let pi = vr.pi.as_deref().unwrap_or(&identity);
                                reconstruct_trace(link(&nodes), vr.node, symm.map(|s| (s, pi)))
                            });
                            report.violations.push(Violation {
                                what: vr.what.clone(),
                                config,
                                trace,
                            });
                            viol_recs.push(ViolationRec {
                                what: vr.what.clone(),
                                node: vr.node,
                                pi: vr.pi.clone(),
                            });
                        }
                        resumed = true;
                    }
                    Err(message) => {
                        report.note(Note::CheckpointError { message });
                        index = VisitedIndex::new(tel.clone());
                        nodes = Vec::new();
                    }
                }
            }
        }

        if !resumed {
            let init = Config::initial(self.prog).canonical();
            let probe = index.probe(&init, symm, |id| &nodes[id as usize].cfg);
            let (init, init_sigma) = index.commit(probe, &init, symm, 0);
            let init_prop = pers.as_ref().map_or(full, |p| p.persistent_mask(&init.pcs));
            mem_bytes += init.approx_bytes() as u64;
            nodes.push(Node {
                cfg: init.clone(),
                parent: None,
                explored: init_prop,
                sigma: init_sigma,
                succ_idx: 0,
            });
            check(&init, &mut buf);
            for what in buf.drain(..) {
                if ckpt.is_some() {
                    viol_recs.push(ViolationRec { what: what.clone(), node: 0, pi: None });
                }
                report.violations.push(Violation {
                    what,
                    config: init.clone(),
                    trace: self.opts.record_traces.then(Vec::new),
                });
            }
            frontier.push((0, init_prop, 0, true));
        }

        let mut pops: usize = 0;
        loop {
            // Budget and cancellation gates, between work items: any trip
            // stops on a clean boundary with a sound prefix report.
            if self.opts.cancel.is_cancelled() {
                report.stop.bump(StopReason::Cancelled);
                break;
            }
            if let Some(dl) = deadline {
                if Instant::now() >= dl {
                    report.stop.bump(StopReason::Deadline);
                    break;
                }
            }
            if let Some(cap) = budget.max_transitions {
                if report.transitions >= cap {
                    report.stop.bump(StopReason::TransitionCap);
                    break;
                }
            }
            if let Some(cap) = budget.max_mem_bytes {
                if mem_bytes as usize >= cap {
                    report.stop.bump(StopReason::MemBudget);
                    break;
                }
            }
            if let (Some(ck), Some(sig)) = (&ckpt, sig) {
                if pops > 0 && pops.is_multiple_of(ck.every.max(1)) {
                    self.save_checkpoint(
                        ck, sig, &mut report, &nodes, &frontier, mem_bytes, &term_ids,
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
                // The sequential engine is worker 0, so the per-worker
                // expansion slots sum to the total on either engine.
                t.add_expansions(0, 1);
                t.frontier_set(frontier.len() as u64);
            }
            // Fault injection: unlike the parallel engine, the sequential
            // explorer has no per-worker containment, so an injected panic
            // unwinds to the caller — the request path's `catch_unwind`
            // converts it to a `WorkerFault` report.
            if let Some(chaos) = &self.opts.chaos {
                chaos.on_expansion();
            }
            // The expanded configuration is read in place from the arena
            // (re-borrowed at each use, since committing successors grows
            // it), never cloned.
            let mut fps = por.then(|| por::LazyFootprints::new(n_threads));
            let mut any_succ = false;
            let mut earlier: ThreadMask = 0;
            for t in 0..n_threads {
                if por && mask & (1u64 << t) == 0 {
                    continue;
                }
                let cfg = &nodes[id as usize].cfg;
                let succs = thread_successors(self.prog, self.objs, cfg, t, self.opts.step);
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
                for (si, succ) in succs.into_iter().enumerate() {
                    // The successor's persistent set (full without A7).
                    // A pure function of the program counters, computed on
                    // the raw successor and transported through σ with the
                    // sleep mask — symmetric threads have equal future
                    // footprints, so the remapped mask is exactly the
                    // stored representative's persistent set.
                    let pmask = pers.as_ref().map_or(full, |p| p.persistent_mask(&succ.pcs));
                    if por {
                        if let Some(tl) = &tel {
                            // Reduction attribution, per successor: threads
                            // slept out of the persistent proposal (A5) and
                            // threads the persistent mask sheds whole (A7).
                            // Both are zero when the reduction is off.
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
                    let probe = match index.probe(&succ, symm, |id| &nodes[id as usize].cfg) {
                        Probe::Dup(dup_id, dsigma) => {
                            if por {
                                // Wake-up rule: threads this arrival would
                                // explore but no earlier arrival queued —
                                // with the proposal transported into the
                                // stored state's thread numbering first.
                                // The queued item carries the arrival's
                                // true sleep set: under A7 `full & !prop`
                                // would unsoundly sleep the merely
                                // postponed outside-persistent threads.
                                let (prop, slp) = match &dsigma {
                                    Some(sg) => (
                                        sym::remap_mask(pmask & !child_sleep, sg),
                                        sym::remap_mask(child_sleep, sg),
                                    ),
                                    None => (pmask & !child_sleep, child_sleep),
                                };
                                let missing = prop & !nodes[dup_id as usize].explored;
                                if missing != 0 {
                                    nodes[dup_id as usize].explored |= missing;
                                    frontier.push((dup_id, missing, slp, false));
                                }
                            }
                            continue;
                        }
                        novel => novel,
                    };
                    if nodes.len() >= self.opts.max_states {
                        report.stop.bump(StopReason::StateCap);
                        continue;
                    }
                    let new_id = nodes.len() as u32;
                    let (canon, sigma) = index.commit(probe, &succ, symm, new_id);
                    mem_bytes += canon.approx_bytes() as u64;
                    // The explored/sleep masks live in the stored state's
                    // numbering: transport proposal and sleep through σ.
                    let (prop, slp) = match (&sigma, por) {
                        (Some(sg), true) => (
                            sym::remap_mask(pmask & !child_sleep, sg),
                            sym::remap_mask(child_sleep, sg),
                        ),
                        _ => (pmask & !child_sleep, child_sleep),
                    };
                    nodes.push(Node {
                        cfg: canon,
                        parent: Some((id, tid)),
                        explored: prop,
                        sigma,
                        succ_idx: si as u32,
                    });
                    let canon = &nodes[new_id as usize].cfg;
                    check(canon, &mut buf);
                    for what in buf.drain(..) {
                        if ckpt.is_some() {
                            viol_recs.push(ViolationRec {
                                what: what.clone(),
                                node: new_id,
                                pi: None,
                            });
                        }
                        report.violations.push(Violation {
                            what,
                            config: canon.clone(),
                            trace: self.opts.record_traces.then(|| {
                                let sym = symm.map(|s| (s, &identity[..]));
                                reconstruct_trace(link(&nodes), new_id, sym)
                            }),
                        });
                    }
                    // Under symmetry a state query's check must see every
                    // state of the orbit, not just the representative:
                    // observation tuples and invariants may distinguish
                    // thread identities the reduction just modded out.
                    if let Some(spec) = members {
                        for (pi, member) in sym::orbit_members(spec, canon) {
                            check(&member, &mut buf);
                            for what in buf.drain(..) {
                                if ckpt.is_some() {
                                    viol_recs.push(ViolationRec {
                                        what: what.clone(),
                                        node: new_id,
                                        pi: Some(pi.clone()),
                                    });
                                }
                                report.violations.push(Violation {
                                    what,
                                    config: member.clone(),
                                    trace: self.opts.record_traces.then(|| {
                                        let sym = Some((spec, &pi[..]));
                                        reconstruct_trace(link(&nodes), new_id, sym)
                                    }),
                                });
                            }
                        }
                    }
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
                let cfg = &nodes[id as usize].cfg;
                if first
                    && !por::has_any_successor(
                        self.prog,
                        self.objs,
                        cfg,
                        full & !mask,
                        self.opts.step,
                    )
                {
                    if cfg.terminated(self.prog) {
                        if ckpt.is_some() {
                            term_ids.push(id);
                        }
                        report.terminated.push(cfg.clone());
                    } else {
                        if ckpt.is_some() {
                            dead_ids.push(id);
                        }
                        report.deadlocked.push(cfg.clone());
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
                    let rest = full & !sleep & !nodes[id as usize].explored;
                    if rest != 0
                        && por::has_any_successor(self.prog, self.objs, cfg, rest, self.opts.step)
                    {
                        nodes[id as usize].explored |= rest;
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
                    ck, sig, &mut report, &nodes, &frontier, mem_bytes, &term_ids, &dead_ids,
                    &viol_recs,
                );
            }
        }
        // Terminal/deadlock sets are reported in unreduced terms: expand
        // each representative's orbit back out (orbits of distinct
        // representatives are disjoint, so this is exactly the unreduced
        // search's set).
        if let Some(spec) = symm {
            sym::expand_terminals(spec, &mut report.terminated);
            sym::expand_terminals(spec, &mut report.deadlocked);
        }
        report.states = nodes.len();
        // Free the store before stamping `wall`: its teardown is part of
        // the walk's cost, not of whatever the caller does next.
        drop(nodes);
        drop(index);
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
    /// path. The sequential explorer is deterministic, so a log written
    /// by the same program + options replays to the bit-identical arena;
    /// any divergence (stale file, changed semantics) is detected and
    /// reported, and the caller starts afresh.
    fn replay_log(
        &self,
        data: &checkpoint::CheckpointData,
        symm: Option<&SymmetrySpec>,
    ) -> Result<(VisitedIndex, Vec<Node>), String> {
        let mut index = VisitedIndex::new(self.opts.telemetry.clone());
        let mut nodes: Vec<Node> = Vec::with_capacity(data.nodes.len());
        let root = match data.nodes.first() {
            Some(r) if r.parent == u32::MAX => r,
            _ => return Err("stale or corrupt checkpoint ignored (bad root)".into()),
        };
        let init = Config::initial(self.prog).canonical();
        let probe = index.probe(&init, symm, |id| &nodes[id as usize].cfg);
        let (init, init_sigma) = index.commit(probe, &init, symm, 0);
        nodes.push(Node {
            cfg: init,
            parent: None,
            explored: root.explored,
            sigma: init_sigma,
            succ_idx: 0,
        });
        for (k, rec) in data.nodes.iter().enumerate().skip(1) {
            if rec.parent as usize >= k {
                return Err("stale or corrupt checkpoint ignored (forward parent)".into());
            }
            let cfg = &nodes[rec.parent as usize].cfg;
            let succs =
                thread_successors(self.prog, self.objs, cfg, rec.tid as usize, self.opts.step);
            let Some(succ) = succs.into_iter().nth(rec.succ_idx as usize) else {
                return Err("stale or corrupt checkpoint ignored (replay diverged)".into());
            };
            let probe = match index.probe(&succ, symm, |id| &nodes[id as usize].cfg) {
                Probe::Dup(..) => {
                    return Err("stale or corrupt checkpoint ignored (duplicate edge)".into())
                }
                novel => novel,
            };
            let (canon, sigma) = index.commit(probe, &succ, symm, k as u32);
            nodes.push(Node {
                cfg: canon,
                parent: Some((rec.parent, Tid(rec.tid))),
                explored: rec.explored,
                sigma,
                succ_idx: rec.succ_idx,
            });
        }
        let n = nodes.len();
        let in_range = data.frontier.iter().all(|&(id, ..)| (id as usize) < n)
            && data.terminated.iter().all(|&id| (id as usize) < n)
            && data.deadlocked.iter().all(|&id| (id as usize) < n)
            && data.violations.iter().all(|v| (v.node as usize) < n);
        if !in_range {
            return Err("stale or corrupt checkpoint ignored (id out of range)".into());
        }
        Ok((index, nodes))
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
        nodes: &[Node],
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
            nodes: nodes
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
        self.walk(Query::Outcomes, |_, _| {})
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

/// The trace-reconstruction accessor for the sequential arena.
fn link<'a>(nodes: &'a [Node]) -> impl Fn(u32) -> Link<'a> {
    move |id| {
        let n = &nodes[id as usize];
        Link { cfg: &n.cfg, parent: n.parent, sigma: n.sigma.as_deref() }
    }
}

/// One interned state as trace reconstruction sees it: its canonical
/// configuration, its first-discovery edge `(parent id, moving thread)`
/// (`None` for the root), and the group permutation `σ` that edge's raw
/// successor was transported through under symmetry reduction (`None` =
/// identity).
pub(crate) struct Link<'a> {
    pub cfg: &'a Config,
    pub parent: Option<(u32, Tid)>,
    pub sigma: Option<&'a [u8]>,
}

/// Rebuild the step sequence from the root to state `last` by walking
/// first-discovery edges — the one routine both engines' arenas use
/// (`link` reads a node by id).
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
pub(crate) fn reconstruct_trace<'a>(
    link: impl Fn(u32) -> Link<'a>,
    last: u32,
    sym: Option<(&SymmetrySpec, &[u8])>,
) -> Vec<(Tid, Config)> {
    let mut tau: Option<Vec<u8>> = sym.map(|(_, pi)| pi.to_vec());
    let mut rev = Vec::new();
    let mut cur = last;
    loop {
        let node = link(cur);
        let Some((parent, t)) = node.parent else { break };
        let step = match (&mut tau, sym) {
            (Some(tau), Some((spec, _))) => {
                let m = if sym::is_identity(tau) {
                    node.cfg.clone()
                } else {
                    node.cfg.permute_threads(tau, spec.maps()).canonical()
                };
                if let Some(sg) = node.sigma {
                    *tau = sg.iter().map(|&s| tau[s as usize]).collect();
                }
                (Tid(tau[t.idx()]), m)
            }
            _ => (t, node.cfg.clone()),
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
