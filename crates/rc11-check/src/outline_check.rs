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

use crate::engine::{ExploreOptions, Note, Query, StopReason};
use crate::explore::Explorer;
use crate::fxhash::FxHashMap;
use rc11_assert::{EvalCtx, Pred, ProofOutline};
use rc11_core::Tid;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{Config, ObjectSemantics};

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

/// The annotation evaluator: immutable per-check data.
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
            if let Some(&k) = self.label_starts[t].get(&cfg.pc(t)) {
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
                self.label_starts[*t].get(&parent.pc(*t)) == Some(k)
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
/// the strongest classification. The final content is order-independent
/// (max over all incoming edges): the same (kind, config) → class map
/// whatever order the edges arrive in.
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

/// Check `outline` against the full reachable space of `prog`: the one
/// exploration walk ([`crate::explore::Explorer`]) as an edge query, with
/// every generated edge classified Owicki–Gries style through the walk's
/// `on_edge` hook.
///
/// An edge query: [`ExploreOptions::reduce`] allows no reduction here.
/// Owicki–Gries classification is a property of *edges* — interference vs
/// inherited depends on which thread moved into the violating
/// configuration over which incoming edge — and sleep-set reduction prunes
/// exactly edges (never states). An outline checked under POR could
/// report a weaker classification or miss an interference edge entirely,
/// so the checker always explores the unreduced graph. Budgets,
/// cancellation and the state cap apply as in any walk; checkpointing does
/// not (the recorder's state is not part of a checkpoint).
pub fn check_outline(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    outline: &ProofOutline,
    opts: &ExploreOptions,
) -> OutlineReport {
    let annots = Annots::new(prog, outline);
    let mut recorder = Recorder::default();
    let mut checks = 0;

    // The initial configuration has no incoming edge: its failures are
    // classified `Initial`, which only it gets. `on_edge` covers the rest.
    // One too large for the memory budget is never built: the walk then
    // stops at once with no state.
    if !opts.budget.refuses_initial(prog) {
        let init = Config::initial(prog).canonical();
        let (fails, n) = annots.failures(&init);
        checks += n;
        for (kind, _) in fails {
            recorder.record(kind, &init, OgClass::Initial, None);
        }
    }

    let report = Explorer::new(prog, objs).with_options(opts.clone()).walk(
        Query::Edges,
        |parent: &Config, tid, succ: &Config| {
            // Classify per edge, visited or not — on the raw successor
            // (evaluation is canonicalisation-invariant, see
            // `debug_assert_failures_invariant`), so clean edges — the
            // overwhelmingly common case — never materialise a canonical
            // form here. Only failing edges canonicalise, because the
            // recorder dedups on canonical identity.
            let (fails, n) = annots.failures(succ);
            checks += n;
            if !fails.is_empty() {
                let canon = succ.canonical();
                debug_assert_failures_invariant(&annots, &fails, &canon);
                for (kind, owner) in fails {
                    let class = annots.classify(&kind, owner, tid, parent);
                    recorder.record(kind, &canon, class, Some(tid));
                }
            }
        },
        |_, _| {},
    );

    OutlineReport {
        states: report.states,
        transitions: report.transitions,
        checks,
        terminated: report.terminated.len(),
        deadlocked: report.deadlocked.len(),
        violations: recorder.violations,
        stop: report.stop,
        notes: report.notes,
    }
}

/// Annotation evaluation is invariant under canonical renumbering: every
/// predicate compares op ids only *within* one state (view entries against
/// `maxTS`, membership in `Obs`), never across states, and everything else
/// it reads (pcs, locals, wrvals, covered flags, method payloads) is
/// untouched by renumbering. The checker relies on this to evaluate
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
