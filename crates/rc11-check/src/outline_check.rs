//! The proof-outline checker (Section 5.2–5.3).
//!
//! Validates a [`ProofOutline`] over the *entire* reachable configuration
//! space: the invariant at every configuration, each statement's
//! precondition whenever the owning thread sits at that statement's label,
//! and the postcondition at full termination. This is the model-checking
//! counterpart of the paper's Isabelle lemmas ("the proof outline in
//! Figure 7 is valid", Lemma 4).
//!
//! Violations are classified Owicki–Gries style **per edge**: for every
//! transition `c —t→ c'` and every annotation violated at `c'`,
//!
//! * if `t` owns the annotation, its own step broke it — *local
//!   correctness* failed;
//! * if another thread moved and the annotation *held* at `c` (with the
//!   owner already sitting at the labelled point), that step interfered —
//!   *interference freedom* failed;
//! * if the annotation was already false at `c`, the violation is
//!   *inherited* (first cause reported upstream);
//! * violations of the initial configuration are *initial*.
//!
//! One violation is reported per `(annotation, configuration)` pair with
//! the strongest classification observed across incoming edges
//! (interference > local > inherited > initial).

use crate::engine::{Engine, ExploreOptions, Level, Note, Query, StopReason};
use crate::explore::{Probe, VisitedIndex};
use crate::fxhash::FxHashMap;
use crate::parallel::par_walk;
use crate::sym;
use parking_lot::Mutex;
use rc11_assert::{EvalCtx, Pred, ProofOutline};
use rc11_core::Tid;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{successors, Config, ObjectSemantics};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Owicki–Gries classification of a violated annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OgClass {
    /// Violated already at the initial configuration.
    Initial,
    /// Already violated before the incoming step (first cause upstream).
    Inherited,
    /// The owning thread's own step broke it (local correctness).
    Local,
    /// Another thread's step broke a holding annotation (interference
    /// freedom).
    Interference,
}

/// Which annotation was violated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OutlineKind {
    /// The global invariant.
    Invariant,
    /// The precondition of `(thread, label)`.
    Pre(usize, u32),
    /// The postcondition.
    Post,
}

/// One outline violation.
#[derive(Debug, Clone)]
pub struct OutlineViolation {
    /// Which annotation failed.
    pub kind: OutlineKind,
    /// Strongest OG classification observed (diagnostic).
    pub class: OgClass,
    /// A thread whose step produced the violating configuration (for the
    /// strongest classification).
    pub mover: Option<Tid>,
    /// The violating configuration.
    pub config: Config,
}

/// Result of an outline check.
#[derive(Debug, Clone, Default)]
pub struct OutlineReport {
    /// Distinct canonical configurations visited.
    pub states: usize,
    /// Transitions generated.
    pub transitions: usize,
    /// Number of assertion evaluations performed.
    pub checks: usize,
    /// Terminated terminal configurations.
    pub terminated: usize,
    /// Deadlocked terminal configurations.
    pub deadlocked: usize,
    /// All violations found (one per annotation × configuration).
    pub violations: Vec<OutlineViolation>,
    /// Why the check stopped (`Complete` = the full reachable space was
    /// classified; anything else = a sound prefix).
    pub stop: StopReason,
    /// Structured degradation/fault warnings (see
    /// [`crate::engine::EngineReport::notes`]).
    pub notes: Vec<Note>,
}

impl OutlineReport {
    /// Outline valid: explored everything, no violations.
    pub fn valid(&self) -> bool {
        self.violations.is_empty() && self.stop.is_complete()
    }

    /// True iff any budget/cap/fault cut the check short.
    pub fn truncated(&self) -> bool {
        !self.stop.is_complete()
    }
}

/// The annotation evaluator: immutable per-check data shared by both
/// engines (and across the parallel engine's workers — everything here is
/// `Sync`).
struct Annots<'a> {
    prog: &'a CfgProgram,
    outline: &'a ProofOutline,
    /// Per thread: pc → label whose region starts at that pc.
    label_starts: Vec<FxHashMap<u32, u32>>,
}

impl<'a> Annots<'a> {
    fn new(prog: &'a CfgProgram, outline: &'a ProofOutline) -> Annots<'a> {
        assert_eq!(outline.pre.len(), prog.n_threads(), "outline thread count mismatch");
        let label_starts: Vec<FxHashMap<u32, u32>> = prog
            .threads
            .iter()
            .map(|th| th.labels.iter().map(|(&k, &pc)| (pc, k)).collect())
            .collect();
        Annots { prog, outline, label_starts }
    }

    /// All annotations violated at `cfg` (`(kind, owner)` pairs) and the
    /// number of assertion evaluations performed.
    fn failures(&self, cfg: &Config) -> (Vec<(OutlineKind, Option<usize>)>, usize) {
        let ctx = EvalCtx { prog: self.prog, cfg };
        let mut out = Vec::new();
        let mut checks = 1;
        if !self.outline.invariant.eval(ctx) {
            out.push((OutlineKind::Invariant, None));
        }
        for (t, anns) in self.outline.pre.iter().enumerate() {
            if let Some(&k) = self.label_starts[t].get(&cfg.pcs[t]) {
                if let Some(p) = anns.get(&k) {
                    checks += 1;
                    if !p.eval(ctx) {
                        out.push((OutlineKind::Pre(t, k), Some(t)));
                    }
                }
            }
        }
        if cfg.terminated(self.prog) {
            checks += 1;
            if !self.outline.post.eval(ctx) {
                out.push((OutlineKind::Post, None));
            }
        }
        (out, checks)
    }

    /// Did this annotation hold at `parent` (owner already at the point)?
    fn held_at(&self, kind: &OutlineKind, parent: &Config) -> bool {
        let ctx = EvalCtx { prog: self.prog, cfg: parent };
        match kind {
            OutlineKind::Invariant => self.outline.invariant.eval(ctx),
            OutlineKind::Pre(t, k) => {
                self.label_starts[*t].get(&parent.pcs[*t]) == Some(k)
                    && self.outline.pre[*t][k].eval(ctx)
            }
            OutlineKind::Post => !parent.terminated(self.prog),
        }
    }

    /// Owicki–Gries classification of a failed annotation on the edge
    /// `parent —tid→ (violating config)`.
    fn classify(
        &self,
        kind: &OutlineKind,
        owner: Option<usize>,
        tid: Tid,
        parent: &Config,
    ) -> OgClass {
        if owner == Some(tid.idx()) {
            OgClass::Local
        } else if self.held_at(kind, parent) {
            if owner.is_none() {
                OgClass::Local // invariant/post: broken by this mover
            } else {
                OgClass::Interference
            }
        } else {
            OgClass::Inherited
        }
    }
}

/// Violation collection with per-(annotation, configuration) dedup keeping
/// the strongest classification. The parallel engine wraps this in a mutex;
/// the final content is order-independent (max over all incoming edges), so
/// both engines converge to the same (kind, config) → class map.
#[derive(Default)]
struct Recorder {
    /// Dedup: (annotation, configuration) → index into `violations`.
    seen: FxHashMap<(OutlineKind, Config), usize>,
    violations: Vec<OutlineViolation>,
}

impl Recorder {
    fn record(&mut self, kind: OutlineKind, cfg: &Config, class: OgClass, mover: Option<Tid>) {
        match self.seen.entry((kind.clone(), cfg.clone())) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let v = &mut self.violations[*e.get()];
                if class > v.class {
                    v.class = class;
                    v.mover = mover;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.violations.len());
                self.violations.push(OutlineViolation {
                    kind,
                    class,
                    mover,
                    config: cfg.clone(),
                });
            }
        }
    }
}

/// Check `outline` against the full reachable space of `prog` with the
/// sequential engine. See [`check_outline_with`] to pick the
/// engine explicitly.
pub fn check_outline(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    outline: &ProofOutline,
    opts: &ExploreOptions,
) -> OutlineReport {
    seq_check_outline(prog, objs, outline, opts)
}

/// Check `outline` against the full reachable space of `prog` under the
/// given [`Engine`]. Both engines classify every edge of the reachable
/// graph and agree on states, transitions, checks, terminal counts and the
/// (kind, configuration) → strongest-class violation map; only `mover`
/// tie-breaks and violation order may differ in the parallel engine.
///
/// An edge query: [`ExploreOptions::reduce`] allows no reduction here.
/// Owicki–Gries classification is a property of *edges* — interference vs
/// inherited depends on which thread moved into the violating
/// configuration over which incoming edge — and sleep-set reduction prunes
/// exactly edges (never states). An outline checked under POR could
/// report a weaker classification or miss an interference edge entirely,
/// so the checker always explores the unreduced graph.
pub fn check_outline_with(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    outline: &ProofOutline,
    opts: &ExploreOptions,
    engine: &Engine,
) -> OutlineReport {
    match engine {
        Engine::Sequential => seq_check_outline(prog, objs, outline, opts),
        Engine::Parallel { workers } => par_check_outline(prog, objs, outline, opts, *workers),
    }
}

/// Annotation evaluation is invariant under canonical renumbering: every
/// predicate compares op ids only *within* one state (view entries against
/// `maxTS`, membership in `Obs`), never across states, and everything else
/// it reads (pcs, locals, wrvals, covered flags, method payloads) is
/// untouched by renumbering. Both outline paths rely on this to evaluate
/// annotations on **raw** successors and canonicalise only the (rare)
/// failing ones for the recorder's dedup key; this debug check guards the
/// reliance wherever a failing edge is canonicalised anyway.
fn debug_assert_failures_invariant(
    annots: &Annots<'_>,
    fails: &[(OutlineKind, Option<usize>)],
    canon: &Config,
) {
    debug_assert_eq!(
        annots.failures(canon).0,
        fails,
        "annotation evaluation must be canonicalisation-invariant"
    );
}

fn seq_check_outline(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    outline: &ProofOutline,
    opts: &ExploreOptions,
) -> OutlineReport {
    let annots = Annots::new(prog, outline);
    let mut recorder = Recorder::default();
    let mut report = OutlineReport::default();
    let deadline = opts.budget.deadline.map(|d| Instant::now() + d);
    let mut mem_bytes: usize = 0;

    // The interned canonical configurations; frontier entries index it.
    // Deduplication reuses the explorer's fingerprint-keyed visited index
    // (`crate::explore::VisitedIndex`) over this arena.
    let mut arena: Vec<Config> = Vec::new();
    let mut index = VisitedIndex::new(opts.telemetry.clone());

    let init = Config::initial(prog).canonical();
    let (fails, checks) = annots.failures(&init);
    report.checks += checks;
    for (kind, _) in fails {
        recorder.record(kind, &init, OgClass::Initial, None);
    }
    mem_bytes += init.approx_bytes();
    let probe = index.probe(&init, None, |id| &arena[id as usize]);
    arena.push(index.commit(probe, &init, None, 0).0);
    let mut frontier: Vec<u32> = vec![0];

    while let Some(id) = frontier.pop() {
        // Budget and cancellation gates, between work items — identical to
        // the explorer's (`crate::explore`): any trip stops on a clean
        // boundary with a sound prefix report.
        if opts.cancel.is_cancelled() {
            report.stop.bump(StopReason::Cancelled);
            break;
        }
        if deadline.is_some_and(|dl| Instant::now() >= dl) {
            report.stop.bump(StopReason::Deadline);
            break;
        }
        if opts.budget.max_transitions.is_some_and(|cap| report.transitions >= cap) {
            report.stop.bump(StopReason::TransitionCap);
            break;
        }
        if opts.budget.max_mem_bytes.is_some_and(|cap| mem_bytes >= cap) {
            report.stop.bump(StopReason::MemBudget);
            break;
        }
        let cfg = arena[id as usize].clone();
        let succs = successors(prog, objs, &cfg, opts.step);
        report.transitions += succs.len();
        if succs.is_empty() {
            if cfg.terminated(prog) {
                report.terminated += 1;
            } else {
                report.deadlocked += 1;
            }
            continue;
        }
        for (tid, succ) in succs {
            // Classify per edge, visited or not — on the raw successor
            // (evaluation is canonicalisation-invariant, see
            // `debug_assert_failures_invariant`).
            let (fails, checks) = annots.failures(&succ);
            report.checks += checks;
            let probe = match index.probe(&succ, None, |id| &arena[id as usize]) {
                Probe::Dup(..) => {
                    if !fails.is_empty() {
                        // Rare: a failing duplicate edge still needs the
                        // canonical form as the recorder's dedup key.
                        let canon = succ.canonical();
                        debug_assert_failures_invariant(&annots, &fails, &canon);
                        for (kind, owner) in fails {
                            let class = annots.classify(&kind, owner, tid, &cfg);
                            recorder.record(kind, &canon, class, Some(tid));
                        }
                    }
                    continue;
                }
                novel => novel,
            };
            if arena.len() >= opts.max_states {
                report.stop.bump(StopReason::StateCap);
                if !fails.is_empty() {
                    let canon = succ.canonical();
                    debug_assert_failures_invariant(&annots, &fails, &canon);
                    for (kind, owner) in fails {
                        let class = annots.classify(&kind, owner, tid, &cfg);
                        recorder.record(kind, &canon, class, Some(tid));
                    }
                }
                continue;
            }
            let new_id = arena.len() as u32;
            arena.push(index.commit(probe, &succ, None, new_id).0);
            mem_bytes += arena[new_id as usize].approx_bytes();
            if !fails.is_empty() {
                let canon = &arena[new_id as usize];
                debug_assert_failures_invariant(&annots, &fails, canon);
                for (kind, owner) in fails {
                    let class = annots.classify(&kind, owner, tid, &cfg);
                    recorder.record(kind, canon, class, Some(tid));
                }
            }
            frontier.push(new_id);
        }
    }
    // A cancellation that raced the final items must still be reported: a
    // cancelled check never claims `Complete`.
    if opts.cancel.is_cancelled() {
        report.stop.bump(StopReason::Cancelled);
    }
    report.states = arena.len();
    report.violations = recorder.violations;
    report
}

/// The parallel outline checker: the shared batched work-stealing walk of
/// [`crate::parallel`] (`par_walk`), with every generated edge classified
/// Owicki–Gries style. Annotation evaluation (the expensive part) happens
/// outside any lock; only violation recording serialises through a mutex.
fn par_check_outline(
    prog: &CfgProgram,
    objs: &(dyn ObjectSemantics + Sync),
    outline: &ProofOutline,
    opts: &ExploreOptions,
    n_workers: usize,
) -> OutlineReport {
    let annots = Annots::new(prog, outline);
    let recorder: Mutex<Recorder> = Mutex::new(Recorder::default());
    let checks = AtomicUsize::new(0);

    // The walk's `on_novel` fires for the initial configuration too, but
    // initial failures are classified `Initial` (no incoming edge), which
    // only the initial configuration gets — so handle it here and let
    // `on_edge` cover everything else.
    let init = Config::initial(prog).canonical();
    let (fails, n) = annots.failures(&init);
    checks.fetch_add(n, Ordering::Relaxed);
    for (kind, _) in fails {
        recorder.lock().record(kind, &init, OgClass::Initial, None);
    }

    let level = Level::of(opts.reduce, Query::Edges);
    let (_visited, stats) = par_walk(
        prog,
        objs,
        opts,
        level,
        &sym::active_spec(prog, level.symmetry),
        n_workers,
        |parent: &Config, tid, succ: &Config| {
            // Classify per edge, visited or not — on the raw successor
            // (evaluation is canonicalisation-invariant, see
            // `debug_assert_failures_invariant`), so clean edges — the
            // overwhelmingly common case — never materialise a canonical
            // form here. Only failing edges canonicalise, because the
            // recorder dedups on canonical identity.
            let (fails, n) = annots.failures(succ);
            checks.fetch_add(n, Ordering::Relaxed);
            if !fails.is_empty() {
                let canon = succ.canonical();
                debug_assert_failures_invariant(&annots, &fails, &canon);
                let mut rec = recorder.lock();
                for (kind, owner) in fails {
                    let class = annots.classify(&kind, owner, tid, parent);
                    rec.record(kind, &canon, class, Some(tid));
                }
            }
        },
        |_, _, _| {},
    );

    OutlineReport {
        states: stats.states,
        transitions: stats.transitions,
        checks: checks.into_inner(),
        terminated: stats.terminated.len(),
        deadlocked: stats.deadlocked.len(),
        violations: recorder.into_inner().violations,
        stop: stats.stop,
        notes: stats.notes,
    }
}

/// Convenience: check a single predicate as an invariant, returning outline
/// machinery reports.
pub fn check_global_invariant(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    pred: Pred,
    opts: &ExploreOptions,
) -> OutlineReport {
    let outline = ProofOutline::new("invariant", prog.n_threads()).invariant(pred);
    check_outline(prog, objs, &outline, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_assert::dsl::*;
    use rc11_lang::builder::*;
    use rc11_lang::compile;
    use rc11_lang::machine::NoObjects;

    /// A two-statement proof outline over sequential code, in the style of
    /// Figure 3's thread 1.
    #[test]
    fn valid_outline_passes() {
        let mut p = ProgramBuilder::new("seq");
        let d = p.client_var("d", 0);
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([lab(1, wr(d, 5)), lab(2, wr(d, 7))]));
        let prog = compile(&p.build());
        let outline = ProofOutline::new("seq", 1)
            .pre(0, 1, dobs(0, d, 0))
            .pre(0, 2, dobs(0, d, 5))
            .post(dobs(0, d, 7));
        let report = check_outline(&prog, &NoObjects, &outline, &ExploreOptions::default());
        assert!(report.valid(), "violations: {:?}", report.violations);
        assert_eq!(report.terminated, 1);
    }

    #[test]
    fn local_correctness_failure_is_classified() {
        let mut p = ProgramBuilder::new("seq");
        let d = p.client_var("d", 0);
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([lab(1, wr(d, 5)), lab(2, wr(d, 7))]));
        let prog = compile(&p.build());
        // Wrong: claims d = 9 before statement 2.
        let outline = ProofOutline::new("seq", 1).pre(0, 2, dobs(0, d, 9));
        let report = check_outline(&prog, &NoObjects, &outline, &ExploreOptions::default());
        assert!(!report.valid());
        assert!(matches!(report.violations[0].kind, OutlineKind::Pre(0, 2)));
        assert_eq!(report.violations[0].class, OgClass::Local);
    }

    #[test]
    fn interference_failure_is_classified() {
        let mut p = ProgramBuilder::new("interf");
        let d = p.client_var("d", 0);
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([lab(1, wr(d, 1)), lab(2, wr(d, 2))]));
        let tb2 = ThreadBuilder::new();
        p.add_thread(tb2, seq([lab(3, wr(d, 9))]));
        let prog = compile(&p.build());
        // Thread 1's statement-2 precondition ignores thread 2's write: the
        // claim "9 is not observable" is interfered with.
        let outline = ProofOutline::new("interf", 2).pre(0, 2, pnot(pobs(0, d, 9)));
        let report = check_outline(&prog, &NoObjects, &outline, &ExploreOptions::default());
        assert!(!report.valid());
        assert!(
            report.violations.iter().any(|v| v.class == OgClass::Interference),
            "thread 2's write into thread 1's annotation point must be flagged as interference, got {:?}",
            report.violations.iter().map(|v| v.class).collect::<Vec<_>>()
        );
    }

    #[test]
    fn initial_failure_is_classified() {
        let mut p = ProgramBuilder::new("init");
        let d = p.client_var("d", 0);
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([lab(1, wr(d, 1))]));
        let prog = compile(&p.build());
        let outline = ProofOutline::new("init", 1).pre(0, 1, dobs(0, d, 42));
        let report = check_outline(&prog, &NoObjects, &outline, &ExploreOptions::default());
        assert_eq!(report.violations[0].class, OgClass::Initial);
    }

    #[test]
    fn postcondition_checked_at_termination_only() {
        let mut p = ProgramBuilder::new("post");
        let d = p.client_var("d", 0);
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([wr(d, 5)]));
        let prog = compile(&p.build());
        let ok = check_outline(
            &prog,
            &NoObjects,
            &ProofOutline::new("p", 1).post(dobs(0, d, 5)),
            &ExploreOptions::default(),
        );
        assert!(ok.valid());
        let bad = check_outline(
            &prog,
            &NoObjects,
            &ProofOutline::new("p", 1).post(dobs(0, d, 0)),
            &ExploreOptions::default(),
        );
        assert!(matches!(bad.violations[0].kind, OutlineKind::Post));
    }

    #[test]
    fn inherited_violations_do_not_mask_first_cause() {
        let mut p = ProgramBuilder::new("chain");
        let d = p.client_var("d", 0);
        let tb = ThreadBuilder::new();
        // Label 1 covers two statements; the annotation goes false at the
        // first write and stays false through the second.
        p.add_thread(tb, seq([lab(1, seq([wr(d, 1), wr(d, 2)]))]));
        let tb2 = ThreadBuilder::new();
        p.add_thread(tb2, seq([wr(d, 5)]));
        let prog = compile(&p.build());
        let outline = ProofOutline::new("chain", 2)
            .invariant(pnot(pobs(1, d, 2)));
        let report = check_outline(&prog, &NoObjects, &outline, &ExploreOptions::default());
        assert!(!report.valid());
        // The strongest classification anywhere should be Local (thread 1's
        // own second write), with downstream configs possibly Inherited.
        assert!(report.violations.iter().any(|v| v.class >= OgClass::Local));
    }
}
