//! Standard synchronisation-free clients for refinement checking.
//!
//! Definition 8 applies to clients that synchronise only through the object
//! under test; these harness clients use relaxed client accesses and
//! lock-protected critical sections, and never bind lock-method return
//! values (so `rval` agreement is by construction — see the module docs of
//! [`crate::sim`]).
//!
//! The exploration helpers ([`explore_abstract`], [`explore_concrete`])
//! take the [`rc11_check::Engine`] to run, so every harness client goes
//! through the same entry point as the rest of the workspace.

use rc11_check::{Engine, EngineReport, ExploreOptions};
use rc11_lang::builder::*;
use rc11_lang::inline::{instantiate, ObjectImpl};
use rc11_lang::machine::NoObjects;
use rc11_lang::{compile, ObjRef, Program};
use rc11_objects::AbstractObjects;

/// The publication hand-off client: T1 writes `d := 5` inside its critical
/// section; T2 reads `d` inside its own. The paper's Figure-7 pattern with
/// one data variable — the canonical test that a lock implementation
/// transfers views on hand-off.
pub fn handoff_client() -> (Program, ObjRef) {
    let mut p = ProgramBuilder::new("handoff");
    let d = p.client_var("d", 0);
    let l = p.lock("l");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([acquire(l), wr(d, 5), release(l)]));
    let mut t2 = ThreadBuilder::new();
    let r = t2.reg("r");
    p.add_thread(t2, seq([acquire(l), rd(r, d), release(l)]));
    (p.build(), l)
}

/// The full Figure-7 client (unlabelled, for refinement): two data
/// variables written in one critical section and read in another.
pub fn fig7_client() -> (Program, ObjRef) {
    let mut p = ProgramBuilder::new("fig7");
    let d1 = p.client_var("d1", 0);
    let d2 = p.client_var("d2", 0);
    let l = p.lock("l");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([acquire(l), wr(d1, 5), wr(d2, 5), release(l)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([acquire(l), rd(r1, d1), rd(r2, d2), release(l)]));
    (p.build(), l)
}

/// A lock-protected counter client with `n_threads` incrementing threads —
/// scales the state space for the benches.
pub fn counter_client(n_threads: usize) -> (Program, ObjRef) {
    let mut p = ProgramBuilder::new(format!("counter{n_threads}"));
    let x = p.client_var("x", 0);
    let l = p.lock("l");
    for _ in 0..n_threads {
        let mut tb = ThreadBuilder::new();
        let r = tb.reg("r");
        p.add_thread(tb, seq([acquire(l), rd(r, x), wr(x, add(r, 1)), release(l)]));
    }
    (p.build(), l)
}

/// A client where each thread performs `rounds` acquire/write/release
/// rounds — scales trace length rather than width.
pub fn rounds_client(rounds: usize) -> (Program, ObjRef) {
    let mut p = ProgramBuilder::new(format!("rounds{rounds}"));
    let d = p.client_var("d", 0);
    let l = p.lock("l");
    let t1 = ThreadBuilder::new();
    let mut body1 = Vec::new();
    for i in 0..rounds {
        body1.extend([acquire(l), wr(d, (i + 1) as i64), release(l)]);
    }
    p.add_thread(t1, seq(body1));
    let mut t2 = ThreadBuilder::new();
    let r = t2.reg("r");
    let mut body2 = Vec::new();
    for _ in 0..rounds {
        body2.extend([acquire(l), rd(r, d), release(l)]);
    }
    p.add_thread(t2, seq(body2));
    (p.build(), l)
}

/// Explore a harness client with its abstract object(s) under `engine`
/// (traces off — harness sweeps only need counts and terminals).
pub fn explore_abstract(client: &Program, engine: &Engine) -> EngineReport {
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    engine.explore(&compile(client), &AbstractObjects, &opts)
}

/// Explore a harness client with `imp` inlined into `obj`'s method holes
/// under `engine`. The instantiated program has no abstract objects left,
/// so it runs under [`NoObjects`].
pub fn explore_concrete(
    client: &Program,
    obj: ObjRef,
    imp: &ObjectImpl,
    engine: &Engine,
) -> EngineReport {
    let conc = instantiate(client, obj, imp);
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    engine.explore(&compile(&conc), &NoObjects, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_check::reference;
    use std::collections::HashSet;

    #[test]
    fn harness_clients_validate() {
        let (p, _) = handoff_client();
        assert_eq!(p.n_threads(), 2);
        let (p, _) = fig7_client();
        assert_eq!(p.client_locs.len(), 2);
        let (p, _) = counter_client(3);
        assert_eq!(p.n_threads(), 3);
        let (p, _) = rounds_client(2);
        assert_eq!(p.n_threads(), 2);
    }

    /// The walk's report against the reference oracle's: the same terminal
    /// and deadlock sets, and never more states or transitions.
    fn assert_agrees(got: &EngineReport, oracle: &EngineReport) {
        assert!(got.ok() && oracle.ok());
        let set = |v: &[rc11_lang::machine::Config]| v.iter().cloned().collect::<HashSet<_>>();
        assert_eq!(set(&got.terminated), set(&oracle.terminated));
        assert_eq!(set(&got.deadlocked), set(&oracle.deadlocked));
        assert!(got.states <= oracle.states && got.transitions <= oracle.transitions);
    }

    /// Abstract harness sweeps agree with the reference oracle on the
    /// widest client.
    #[test]
    fn abstract_exploration_agrees_across_engines() {
        let (client, _) = counter_client(3);
        let walk = explore_abstract(&client, &Engine::Sequential);
        let oracle = reference::explore(&compile(&client), &AbstractObjects, usize::MAX, |_, _| {});
        assert_agrees(&walk, &oracle);
    }

    /// Concrete (inlined-lock) harness sweeps agree with the reference
    /// oracle.
    #[test]
    fn concrete_exploration_agrees_across_engines() {
        let (client, l) = handoff_client();
        let imp = rc11_locks::ticket();
        let walk = explore_concrete(&client, l, &imp, &Engine::Sequential);
        let conc = compile(&instantiate(&client, l, &imp));
        let oracle = reference::explore(&conc, &NoObjects, usize::MAX, |_, _| {});
        assert_agrees(&walk, &oracle);
    }
}
