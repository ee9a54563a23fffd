//! Cross-crate property tests: randomly generated programs validate the
//! invariants the deductive arguments lean on.

use proptest::prelude::*;
use rc11::prelude::*;
use rc11_lang::ast_step::{ast_successors, AstConfig};
use rc11_lang::machine::successors;
use std::collections::HashSet;

/// A compact instruction descriptor for random program generation.
#[derive(Debug, Clone, Copy)]
enum RInstr {
    Wr { var: u8, val: u8, rel: bool },
    Rd { var: u8, acq: bool },
    Cas { var: u8, expect: u8, new: u8 },
    Fai { var: u8 },
}

fn rinstr() -> impl Strategy<Value = RInstr> {
    prop_oneof![
        (0u8..2, 1u8..4, any::<bool>()).prop_map(|(var, val, rel)| RInstr::Wr { var, val, rel }),
        (0u8..2, any::<bool>()).prop_map(|(var, acq)| RInstr::Rd { var, acq }),
        (0u8..2, 0u8..3, 1u8..4).prop_map(|(var, expect, new)| RInstr::Cas { var, expect, new }),
        (0u8..2).prop_map(|var| RInstr::Fai { var }),
    ]
}

fn build_program(threads: &[Vec<RInstr>]) -> Program {
    let mut p = ProgramBuilder::new("random");
    let v0 = p.client_var("x", 0);
    let v1 = p.client_var("y", 0);
    let vars = [v0, v1];
    for instrs in threads {
        let mut tb = ThreadBuilder::new();
        // One destination register per read-like instruction.
        let regs: Vec<Reg> = (0..instrs.len()).map(|i| tb.reg(&format!("r{i}"))).collect();
        let body = seq(instrs.iter().enumerate().map(|(i, ins)| match *ins {
            RInstr::Wr { var, val, rel } => {
                if rel {
                    wr_rel(vars[var as usize], val as i64)
                } else {
                    wr(vars[var as usize], val as i64)
                }
            }
            RInstr::Rd { var, acq } => {
                if acq {
                    rd_acq(regs[i], vars[var as usize])
                } else {
                    rd(regs[i], vars[var as usize])
                }
            }
            RInstr::Cas { var, expect, new } => {
                cas(regs[i], vars[var as usize], expect as i64, new as i64)
            }
            RInstr::Fai { var } => fai(regs[i], vars[var as usize]),
        }));
        p.add_thread(tb, body);
    }
    p.build()
}

type Outcome = (Vec<Vec<Val>>, Combined);

fn cfg_terminals(prog: &CfgProgram, fuse: bool) -> HashSet<Outcome> {
    let mut seen = HashSet::new();
    let mut frontier = vec![Config::initial(prog)];
    seen.insert(frontier[0].canonical());
    let mut out = HashSet::new();
    while let Some(c) = frontier.pop() {
        let succs = successors(prog, &NoObjects, &c, StepOptions { fuse_local: fuse });
        if succs.is_empty() {
            out.insert((c.locals.clone(), c.mem.canonical()));
            continue;
        }
        for (_, s) in succs {
            if seen.insert(s.canonical()) {
                frontier.push(s);
            }
        }
    }
    out
}

fn ast_terminals(prog: &Program) -> HashSet<Outcome> {
    let mut seen = HashSet::new();
    let mut frontier = vec![AstConfig::initial(prog)];
    seen.insert(frontier[0].canonical());
    let mut out = HashSet::new();
    while let Some(c) = frontier.pop() {
        let succs = ast_successors(prog, &NoObjects, &c);
        if succs.is_empty() {
            out.insert((c.locals.clone(), c.mem.canonical()));
            continue;
        }
        for (_, s) in succs {
            if seen.insert(s.canonical()) {
                frontier.push(s);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// AST engine ≡ CFG engine (fused and unfused) on random straight-line
    /// concurrent programs.
    #[test]
    fn engines_agree_on_random_programs(
        t1 in prop::collection::vec(rinstr(), 0..4),
        t2 in prop::collection::vec(rinstr(), 0..4),
    ) {
        let prog = build_program(&[t1, t2]);
        let compiled = compile(&prog);
        let a = ast_terminals(&prog);
        let f = cfg_terminals(&compiled, true);
        let u = cfg_terminals(&compiled, false);
        prop_assert_eq!(&a, &f, "AST vs fused CFG");
        prop_assert_eq!(&a, &u, "AST vs unfused CFG");
    }

    /// Thread views only move forward: along every edge, every thread's
    /// view of every location is at least as recent (never regresses past
    /// an op it had already observed as its frontier).
    #[test]
    fn views_are_monotone(
        t1 in prop::collection::vec(rinstr(), 0..5),
        t2 in prop::collection::vec(rinstr(), 0..5),
    ) {
        let prog = build_program(&[t1, t2]);
        let compiled = compile(&prog);
        let mut seen = HashSet::new();
        let mut frontier = vec![Config::initial(&compiled)];
        seen.insert(frontier[0].canonical());
        while let Some(c) = frontier.pop() {
            for (_, s) in successors(&compiled, &NoObjects, &c, StepOptions::default()) {
                // Old-state frontier op must still be ≤ the new frontier in
                // the NEW state's modification order (ids are stable within
                // a step; canonicalise only after the check).
                let old_st = c.mem.client();
                let new_st = s.mem.client();
                for t in 0..2 {
                    for l in 0..2 {
                        let tid = rc11::core::Tid(t as u8);
                        let loc = rc11::core::Loc(l as u16);
                        let old_front = old_st.tview(tid).get(loc);
                        let new_front = new_st.tview(tid).get(loc);
                        prop_assert!(
                            new_st.rank_of(old_front) <= new_st.rank_of(new_front),
                            "thread {t} view of loc {l} regressed"
                        );
                    }
                }
                if seen.insert(s.canonical()) {
                    frontier.push(s);
                }
            }
        }
    }

    /// Canonicalisation is idempotent and invariant-preserving on all
    /// reachable configurations of random programs.
    #[test]
    fn canonicalisation_is_stable_on_reachable_configs(
        t1 in prop::collection::vec(rinstr(), 0..4),
        t2 in prop::collection::vec(rinstr(), 0..4),
    ) {
        let prog = build_program(&[t1, t2]);
        let compiled = compile(&prog);
        let mut seen = HashSet::new();
        let mut frontier = vec![Config::initial(&compiled)];
        while let Some(c) = frontier.pop() {
            let canon = c.canonical();
            canon.mem.check_invariants();
            prop_assert_eq!(canon.canonical(), canon.clone());
            for (_, s) in successors(&compiled, &NoObjects, &c, StepOptions::default()) {
                if seen.insert(s.canonical()) {
                    frontier.push(s);
                }
            }
        }
    }

    /// Symmetry soundness (ablation A6) on adversarial inputs: programs
    /// with 2–3 *cloned* thread bodies (fully symmetric, the case the
    /// reduction bites hardest), optionally plus one distinct thread
    /// (partial symmetry — the orbit must not leak across groups).
    /// Exploring under `Reduction::Full` must preserve the terminal-state
    /// multiset exactly (orbit expansion) while never growing the state
    /// count, under the sequential and the parallel engine, for outcome
    /// queries (symmetry composed with sleep and persistent sets) and
    /// state queries (symmetry composed with sleep sets).
    #[test]
    fn symmetry_reduction_is_sound_on_cloned_threads(
        body in prop::collection::vec(rinstr(), 0..4),
        clones in 2usize..4,
        with_extra in any::<bool>(),
        extra in prop::collection::vec(rinstr(), 1..3),
    ) {
        let mut threads: Vec<Vec<RInstr>> = vec![body; clones];
        if with_extra {
            threads.push(extra);
        }
        let compiled = compile(&build_program(&threads));
        let base = ExploreOptions { record_traces: false, ..Default::default() };
        let oracle = rc11::check::reference::explore(&compiled, &NoObjects, usize::MAX, |_, _| {});
        let multiset = |cfgs: &[Config]| {
            let mut m = std::collections::HashMap::<Config, usize>::new();
            for c in cfgs {
                *m.entry(c.clone()).or_insert(0) += 1;
            }
            m
        };
        let terminals = multiset(&oracle.terminated);
        for engine in [Engine::Sequential, Engine::Parallel { workers: 2 }] {
            for (query, r) in [
                ("outcomes", engine.explore(&compiled, &NoObjects, &base)),
                ("states", engine.explore_with(&compiled, &NoObjects, &base, |_, _| {})),
            ] {
                prop_assert!(
                    r.states <= oracle.states,
                    "{engine:?} {query}: symmetry grew the state count ({} > {})",
                    r.states, oracle.states
                );
                prop_assert_eq!(
                    multiset(&r.terminated),
                    terminals.clone(),
                    "{:?} {}: orbit expansion changed the terminal multiset",
                    engine, query
                );
                prop_assert_eq!(
                    r.deadlocked.len(),
                    oracle.deadlocked.len(),
                    "{:?} {}: deadlocks",
                    engine, query
                );
            }
        }
    }

    /// Update atomicity: in every reachable configuration, each location has
    /// exactly one uncovered maximal op, and every covered op has an update
    /// (or lock-style op) immediately after it in modification order.
    #[test]
    fn covers_are_immediately_followed(
        t1 in prop::collection::vec(rinstr(), 0..5),
        t2 in prop::collection::vec(rinstr(), 0..5),
    ) {
        let prog = build_program(&[t1, t2]);
        let compiled = compile(&prog);
        let mut seen = HashSet::new();
        let mut frontier = vec![Config::initial(&compiled)];
        seen.insert(frontier[0].canonical());
        while let Some(c) = frontier.pop() {
            let st = c.mem.client();
            for l in 0..2u16 {
                let mo = st.mo(rc11::core::Loc(l));
                let max = *mo.last().unwrap();
                prop_assert!(!st.is_covered(max), "maximal op must be uncovered");
                for (i, &w) in mo.iter().enumerate() {
                    if st.is_covered(w) {
                        let next = mo[i + 1];
                        prop_assert!(
                            st.op(next).act.is_update(),
                            "covered op not followed by an update"
                        );
                    }
                }
            }
            for (_, s) in successors(&compiled, &NoObjects, &c, StepOptions::default()) {
                if seen.insert(s.canonical()) {
                    frontier.push(s);
                }
            }
        }
    }
}
