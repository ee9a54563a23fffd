//! The reference explorer: the oracle every differential checks against.
//!
//! A breadth-first search over materialised canonical configurations
//! ([`Config::canonical`]) kept in a std [`HashSet`] — no fingerprints,
//! no arenas, no reductions, budgets, threads, telemetry or
//! checkpointing. It is deliberately small enough to read in one sitting,
//! so that when an engine and this module disagree the engine is the
//! suspect.
//!
//! Nothing selects it at run time: no [`crate::engine::Engine`] variant,
//! no [`crate::request::CheckParams`] field, no CLI flag. The test suites
//! and the `rc11 fuzz` harness ([`crate::fuzz`](mod@crate::fuzz)) call
//! [`explore`] directly.
//!
//! Counts match the unreduced engines exactly: `states` is the number of
//! distinct canonical configurations reached, and `transitions` sums
//! `thread_successors` over every thread of every expanded state. Only
//! the order of `terminated`, `deadlocked` and `violations` differs (this
//! walk is breadth-first), so compare those as sets.

use crate::engine::{EngineReport, StopReason, Violation};
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{thread_successors, Config, ObjectSemantics, StepOptions};
use std::collections::{HashSet, VecDeque};

/// Explore every configuration of `prog` reachable under `objs`, calling
/// `check` once per distinct canonical configuration (it pushes one
/// description per violated property into the buffer it is handed).
///
/// Past `max_states` distinct states, new states are dropped and the
/// report stops with [`StopReason::StateCap`]; every state already reached
/// is still expanded and checked. Otherwise the stop is
/// [`StopReason::Complete`]. Violations carry no traces.
pub fn explore(
    prog: &CfgProgram,
    objs: &dyn ObjectSemantics,
    max_states: usize,
    mut check: impl FnMut(&Config, &mut Vec<String>),
) -> EngineReport {
    let mut report = EngineReport::default();
    let init = Config::initial(prog).canonical();
    let mut seen: HashSet<Config> = HashSet::from([init.clone()]);
    let mut queue: VecDeque<Config> = VecDeque::from([init]);
    let mut buf: Vec<String> = Vec::new();
    while let Some(cfg) = queue.pop_front() {
        check(&cfg, &mut buf);
        for what in buf.drain(..) {
            report.violations.push(Violation { what, config: cfg.clone(), trace: None });
        }
        let mut any_succ = false;
        for t in 0..prog.n_threads() {
            let succs = thread_successors(prog, objs, &cfg, t, StepOptions::default());
            report.transitions += succs.len();
            any_succ |= !succs.is_empty();
            for succ in succs {
                let canon = succ.canonical();
                if seen.contains(&canon) {
                    continue;
                }
                if seen.len() >= max_states {
                    report.stop = StopReason::StateCap;
                    continue;
                }
                seen.insert(canon.clone());
                queue.push_back(canon);
            }
        }
        if !any_succ {
            if cfg.terminated(prog) {
                report.terminated.push(cfg);
            } else {
                report.deadlocked.push(cfg);
            }
        }
    }
    report.states = seen.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_lang::builder::*;
    use rc11_lang::compile;
    use rc11_lang::machine::NoObjects;

    /// Store buffering with release writes and acquire reads: RC11 RAR
    /// allows both reads to see 0.
    fn sb_prog() -> CfgProgram {
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

    #[test]
    fn complete_walk_reports_violations_without_traces() {
        let prog = sb_prog();
        let both_zero = |cfg: &Config, out: &mut Vec<String>| {
            let zero = rc11_core::Val::Int(0);
            if cfg.terminated(&prog)
                && cfg.reg(0, rc11_lang::Reg(0)) == zero
                && cfg.reg(1, rc11_lang::Reg(0)) == zero
            {
                out.push("both zero".into());
            }
        };
        let r = explore(&prog, &NoObjects, usize::MAX, both_zero);
        assert_eq!(r.stop, StopReason::Complete);
        assert!(r.deadlocked.is_empty() && !r.terminated.is_empty());
        assert!(r.transitions >= r.states - 1, "every state but the root is entered");
        assert_eq!(r.violations.len(), 1, "one canonical terminal reads both zeros");
        assert!(r.violations[0].trace.is_none());
    }

    #[test]
    fn state_cap_stops_with_exactly_the_cap() {
        let r = explore(&sb_prog(), &NoObjects, 3, |_, _| {});
        assert_eq!(r.stop, StopReason::StateCap);
        assert_eq!(r.states, 3);
    }
}
