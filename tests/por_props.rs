//! Program-level property tests for the persistent-set layer of DPOR
//! (ablation A7). Where `crates/rc11-core/tests/por_props.rs` checks the
//! *primitive-transition* independence oracle behind sleep sets (A5),
//! these tests check the facts the persistent-set reduction rests on, at
//! the level the engines actually use them — compiled programs, machine
//! configurations, and [`future_footprints`]:
//!
//! * **containment** — a thread's *dynamic* step footprint at a reachable
//!   configuration conflicts with another's only if their *static future*
//!   footprints at those pcs conflict (the refinements that shrink
//!   dynamic access kinds — CAS failure reads, empty-`pop`/`deq` reads —
//!   only ever make the dynamic side smaller);
//! * **commutation** — a non-halted thread outside the persistent set
//!   commutes with every member: executing the two threads in either
//!   order from the same configuration reaches canonically equal
//!   successor multisets (so postponing the outsider loses nothing);
//! * **conflict absorption** — along replayed walk traces, every
//!   dynamically observed conflict with a persistent-set member is
//!   already inside the set: the threads DPOR backtracks into at a state
//!   are a superset of the threads its executed step actually conflicts
//!   with.
//!
//! Random programs come from the fuzz generator (no abstract objects);
//! a separate deterministic sweep runs the same checks over the
//! object-using corpus entries so the `Method` footprints (update covers,
//! the empty-`pop`/`deq` read refinement) get the same scrutiny.

use proptest::prelude::*;
use rc11::analyze::{future_footprints, FutureFootprints};
use rc11::check::gen::{generate, GenOptions};
use rc11::core::StepFootprint;
use rc11::lang::machine::{successors, thread_footprint, thread_successors, Config, NoObjects, ObjectSemantics, StepOptions};
use rc11::lang::{compile, CfgProgram};
use rc11_litmus as litmus;
use std::collections::{HashMap, HashSet};

fn corpus_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Deterministically walk `choices.len()` steps from the initial
/// configuration, returning every configuration visited (including the
/// endpoints). Each byte picks the next successor by index, so the same
/// input replays the same trace.
fn walk(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    choices: &[u8],
) -> Vec<(Config, Option<usize>)> {
    let opts = StepOptions::default();
    let mut cur = Config::initial(prog);
    let mut out = Vec::with_capacity(choices.len() + 1);
    for &c in choices {
        let succ = successors(prog, objs, &cur, opts);
        if succ.is_empty() {
            break;
        }
        let (tid, next) = succ[c as usize % succ.len()].clone();
        out.push((cur, Some(tid.0 as usize)));
        cur = next;
    }
    out.push((cur, None));
    out
}

/// The canonical successor multiset of "step thread `a`, then thread `b`"
/// from `s`.
fn two_step_multiset(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    s: &Config,
    a: usize,
    b: usize,
) -> HashMap<Config, usize> {
    let opts = StepOptions::default();
    let mut out: HashMap<Config, usize> = HashMap::new();
    for mid in thread_successors(prog, objs, s, a, opts) {
        for end in thread_successors(prog, objs, &mid, b, opts) {
            *out.entry(end.canonical()).or_default() += 1;
        }
    }
    out
}

/// The three A7 invariants at one reachable configuration. `moved` is the
/// thread the replayed trace actually stepped here (if any), for the
/// conflict-absorption check.
fn check_state(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    fps: &FutureFootprints,
    s: &Config,
    moved: Option<usize>,
) -> Result<(), String> {
    let n = prog.n_threads();
    let fp: Vec<StepFootprint> = (0..n).map(|t| thread_footprint(prog, s, t)).collect();
    let p = fps.persistent_mask(s.pcs());
    let in_p = |t: usize| p & (1u64 << t) != 0;

    // Containment: dynamic conflicts are a subset of static future
    // conflicts at the same pcs.
    for t in 0..n {
        for w in t + 1..n {
            if fp[t].may_conflict(&fp[w]) && !fps.conflicts(t, s.pc(t), w, s.pc(w)) {
                return Err(format!(
                    "threads {t} and {w} conflict dynamically at pcs {:?} but their \
                     static future footprints are disjoint",
                    s.pcs()
                ));
            }
        }
    }

    // Commutation: every non-halted outsider commutes with every member,
    // in both orders, as canonical successor multisets.
    for u in 0..n {
        if in_p(u) || fps.halted(u, s.pcs()) {
            continue;
        }
        for m in 0..n {
            if !in_p(m) {
                continue;
            }
            if fp[u].may_conflict(&fp[m]) {
                return Err(format!(
                    "outsider {u} dynamically conflicts with persistent member {m} \
                     at pcs {:?}",
                    s.pcs()
                ));
            }
            let um = two_step_multiset(prog, objs, s, u, m);
            let mu = two_step_multiset(prog, objs, s, m, u);
            if um != mu {
                return Err(format!(
                    "outsider {u} and member {m} do not commute at pcs {:?} \
                     ({} vs {} two-step successors)",
                    s.pcs(),
                    um.values().sum::<usize>(),
                    mu.values().sum::<usize>()
                ));
            }
        }
    }

    // Conflict absorption on the replayed edge: if the trace's executed
    // thread is a persistent member, every thread its current step
    // dynamically conflicts with is also a member — the set DPOR
    // backtracks into covers every conflict the step actually has.
    if let Some(t) = moved {
        if in_p(t) {
            for w in 0..n {
                if w != t && !fps.halted(w, s.pcs()) && fp[t].may_conflict(&fp[w]) && !in_p(w) {
                    return Err(format!(
                        "executed member {t} conflicts with {w}, which the \
                         persistent set {p:#b} omits at pcs {:?}",
                        s.pcs()
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three invariants along random replayed traces of random
    /// generated programs.
    #[test]
    fn persistent_sets_are_sound_along_generated_walks(
        seed in any::<u64>(),
        choices in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let g = generate(seed, &GenOptions { max_stmts: 4, ..Default::default() });
        let prog = compile(&g.to_program("props"));
        let fps = future_footprints(&prog);
        for (s, moved) in walk(&prog, &NoObjects, &choices) {
            if let Err(e) = check_state(&prog, &NoObjects, &fps, &s, moved) {
                prop_assert!(false, "{e}");
            }
        }
    }
}

/// The same invariants over the object-using corpus entries, so `Method`
/// step footprints (update covers, the empty-`pop`/`deq` read refinement)
/// face the same checks. Bounded breadth-first enumeration instead of
/// random walks: these state spaces are small and the edge cases (empty
/// ADTs, covered inserts) live near the frontier.
#[test]
fn persistent_sets_are_sound_on_object_corpus_entries() {
    for file in [
        "stackempty.litmus",
        "stacklifo.litmus",
        "queuefifo.litmus",
        "popspin2x2.litmus",
        "deqspin2x2.litmus",
    ] {
        let l = litmus::load_file(corpus_dir().join(file)).unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let fps = future_footprints(&prog);
        let opts = StepOptions::default();
        let mut seen: HashMap<Config, ()> = HashMap::new();
        let mut frontier = vec![Config::initial(&prog)];
        let mut edges = 0usize;
        while let Some(cur) = frontier.pop() {
            if seen.insert(cur.canonical(), ()).is_some() || seen.len() > 2000 {
                continue;
            }
            for (tid, next) in successors(&prog, objs, &cur, opts) {
                edges += 1;
                check_state(&prog, objs, &fps, &cur, Some(tid.0 as usize))
                    .unwrap_or_else(|e| panic!("{file}: {e}"));
                frontier.push(next);
            }
        }
        assert!(edges > 0, "{file}: no transitions enumerated");
    }
}

/// Non-vacuity control: on a program with two disjoint conflict
/// components the persistent set at the initial state is a *strict*
/// subset of the live threads — the reduction the proptests license
/// actually happens.
#[test]
fn persistent_sets_do_reduce_disjoint_components() {
    let l = litmus::load_file(corpus_dir().join("ttas2x2.litmus")).unwrap_or_else(|e| panic!("{e}"));
    let prog = compile(&l.prog);
    let fps = future_footprints(&prog);
    let init = Config::initial(&prog);
    let p = fps.persistent_mask(init.pcs());
    assert!(p == 0b0011 || p == 0b1100, "one TTAS pair, not all four threads: {p:#b}");
}

/// The one-pass `persistent_mask` returns exactly the mask of its
/// closure-loop specification on every reachable pc vector of `ttas4`,
/// `sym_inc3` and the ticket-lock `counter5` client — same seed order,
/// same tie-break.
#[test]
fn persistent_mask_matches_its_closure_spec_on_reachable_pcs() {
    let from_corpus = |file: &str| {
        let l = litmus::load_file(corpus_dir().join(file)).unwrap_or_else(|e| panic!("{e}"));
        compile(&l.prog)
    };
    let counter5 = {
        let (client, lock) = rc11::refine::harness::counter_client(5);
        compile(&rc11::lang::instantiate(&client, lock, &rc11::locks::ticket()))
    };
    for (name, prog) in [
        ("ttas4", from_corpus("ttas4.litmus")),
        ("sym_inc3", from_corpus("sym_inc3.litmus")),
        ("counter5", counter5),
    ] {
        // A state query runs its check on every reachable configuration
        // (orbit members included under symmetry reduction).
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        let report = rc11::check::Explorer::new(&prog, &NoObjects).explore_with(|cfg, _| {
            seen.insert(cfg.pcs().to_vec());
        });
        assert!(report.stop.is_complete(), "{name}: walk stopped early");
        let fps = future_footprints(&prog);
        for pcs in &seen {
            assert_eq!(
                fps.persistent_mask(pcs),
                fps.persistent_mask_spec(pcs),
                "{name}: masks differ at pcs {pcs:?}"
            );
        }
        assert!(seen.len() > 10, "{name}: only {} pc vectors", seen.len());
    }
}
