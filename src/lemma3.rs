//! The six proof rules of Lemma 3, as checkable judgements.
//!
//! Each rule is a Hoare triple about one abstract-lock transition,
//! quantified over every reachable configuration of a harness program:
//! wherever the precondition holds and the transition is enabled, the
//! postcondition must hold in the successor. Violations panic with the
//! rule name; the returned statistics count non-vacuous instances so
//! callers can assert the rules actually fired.

use rc11_assert::dsl::*;
use rc11_assert::{EvalCtx, OpPat, Pred};
use rc11_check::{ExploreOptions, Explorer};
use rc11_core::{Combined, Tid};
use rc11_lang::machine::Config;
use rc11_lang::{CfgProgram, ObjRef, VarRef};
use rc11_objects::{lock, AbstractObjects};

/// A rule-check harness: a compiled program with its reachable
/// configurations and the lock/variable under scrutiny.
pub struct RuleHarness {
    /// The compiled program.
    pub prog: CfgProgram,
    /// Every reachable canonical configuration.
    pub configs: Vec<Config>,
    /// The abstract lock.
    pub l: ObjRef,
    /// A client variable written under the lock.
    pub x: VarRef,
}

impl RuleHarness {
    /// Build a harness by exhausting `prog`'s state space.
    pub fn new(prog: CfgProgram, l: ObjRef, x: VarRef) -> RuleHarness {
        let mut configs = Vec::new();
        let report = Explorer::new(&prog, &AbstractObjects)
            .with_options(ExploreOptions { record_traces: false, ..Default::default() })
            .explore_with(|cfg, _| {
                configs.push(cfg.clone());
            });
        assert!(!report.truncated(), "harness exploration truncated");
        RuleHarness { prog, configs, l, x }
    }
}

/// Instance counts per rule (all non-vacuous applications checked).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Instances of rule (1).
    pub r1: usize,
    /// Instances of rule (2).
    pub r2: usize,
    /// Instances of rule (3).
    pub r3: usize,
    /// Instances of rule (4).
    pub r4: usize,
    /// Instances of rule (5).
    pub r5: usize,
    /// Instances of rule (6).
    pub r6: usize,
}

impl RuleStats {
    /// Total instances across rules.
    pub fn total(&self) -> usize {
        self.r1 + self.r2 + self.r3 + self.r4 + self.r5 + self.r6
    }
}

const MAX_VERSION: u32 = 8;
const VALS: [i64; 4] = [0, 5, 6, 7];

fn holds(p: &Pred, prog: &CfgProgram, cfg: &Config) -> bool {
    p.eval(EvalCtx { prog, cfg })
}

fn with_mem(cfg: &Config, mem: Combined) -> Config {
    cfg.with_mem(mem)
}

/// Check all six rules over the harness; panics on the first violation.
pub fn check_all_rules(h: &RuleHarness) -> RuleStats {
    let mut s = RuleStats::default();
    let n = h.prog.n_threads();
    for cfg in &h.configs {
        for u in 0..MAX_VERSION {
            let hid = hidden(h.l, OpPat::Release(u));
            let hid_holds = holds(&hid, &h.prog, cfg);
            for t in 0..n {
                let tid = Tid(t as u8);
                // Rules (1) and (2): hidden releases.
                if hid_holds {
                    for (v, mem) in lock::acquire_steps(&cfg.mem, tid, h.l.loc) {
                        assert!(v > u + 1, "rule 1 violated: v={v}, u={u}");
                        s.r1 += 1;
                        assert!(
                            holds(&hid, &h.prog, &with_mem(cfg, mem)),
                            "rule 2 violated (acquire)"
                        );
                        s.r2 += 1;
                    }
                    for (_, mem) in lock::release_steps(&cfg.mem, tid, h.l.loc) {
                        assert!(
                            holds(&hid, &h.prog, &with_mem(cfg, mem)),
                            "rule 2 violated (release)"
                        );
                        s.r2 += 1;
                    }
                }
                // Rule (3): definite release yields next acquire.
                if holds(&dobs_op(t, h.l, OpPat::Release(u)), &h.prog, cfg) {
                    for (v, mem) in lock::acquire_steps(&cfg.mem, tid, h.l.loc) {
                        assert_eq!(v, u + 1, "rule 3 violated: version");
                        assert!(
                            holds(
                                &dobs_op(t, h.l, OpPat::Acquire(u + 1)),
                                &h.prog,
                                &with_mem(cfg, mem)
                            ),
                            "rule 3 violated: definite acquire"
                        );
                        s.r3 += 1;
                    }
                }
                // Rule (5): conditional observation becomes definite.
                for nv in VALS {
                    let pre = cond_obs_op(t, h.l, OpPat::Release(u), h.x, nv);
                    if holds(&pobs_op(t, h.l, OpPat::Release(u)), &h.prog, cfg)
                        && holds(&pre, &h.prog, cfg)
                    {
                        for (v, mem) in lock::acquire_steps(&cfg.mem, tid, h.l.loc) {
                            if v == u + 1 {
                                assert!(
                                    holds(&dobs(t, h.x, nv), &h.prog, &with_mem(cfg, mem)),
                                    "rule 5 violated"
                                );
                                s.r5 += 1;
                            }
                        }
                    }
                }
            }
        }
        // Rule (4): definite observations stable under other threads' lock ops.
        for val in VALS {
            for t in 0..n {
                let pre = dobs(t, h.x, val);
                if !holds(&pre, &h.prog, cfg) {
                    continue;
                }
                for t2 in 0..n {
                    if t2 == t {
                        continue;
                    }
                    let tid2 = Tid(t2 as u8);
                    for (_, mem) in lock::acquire_steps(&cfg.mem, tid2, h.l.loc)
                        .into_iter()
                        .chain(lock::release_steps(&cfg.mem, tid2, h.l.loc))
                    {
                        assert!(holds(&pre, &h.prog, &with_mem(cfg, mem)), "rule 4 violated");
                        s.r4 += 1;
                    }
                }
            }
        }
        // Rule (6): release publishes definite observations.
        for u in 1..MAX_VERSION {
            for v in VALS {
                for t in 0..n {
                    if !holds(&dobs(t, h.x, v), &h.prog, cfg) {
                        continue;
                    }
                    for t2 in 0..n {
                        if t2 == t
                            || holds(&pobs_op(t2, h.l, OpPat::Release(u)), &h.prog, cfg)
                        {
                            continue;
                        }
                        for (nn, mem) in lock::release_steps(&cfg.mem, Tid(t as u8), h.l.loc)
                        {
                            if nn != u {
                                continue;
                            }
                            assert!(
                                holds(
                                    &cond_obs_op(t2, h.l, OpPat::Release(u), h.x, v),
                                    &h.prog,
                                    &with_mem(cfg, mem)
                                ),
                                "rule 6 violated"
                            );
                            s.r6 += 1;
                        }
                    }
                }
            }
        }
    }
    s
}

/// The standard Lemma-3 harnesses: the Figure-7 client plus an
/// `n_threads`-way lock client.
pub fn standard_harnesses(n_threads: usize) -> Vec<RuleHarness> {
    use rc11_lang::builder::*;
    use rc11_lang::compile;

    let f7 = crate::figures::fig7();
    let h1 = RuleHarness::new(compile(&f7.prog), f7.l, f7.d1);

    let mut p = ProgramBuilder::new(format!("lemma3-{n_threads}t"));
    let x = p.client_var("x", 0);
    let l = p.lock("l");
    for i in 0..n_threads {
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([acquire(l), wr(x, 5 + i as i64), release(l)]));
    }
    let h2 = RuleHarness::new(compile(&p.build()), l, x);
    vec![h1, h2]
}
