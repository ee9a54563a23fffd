//! Experiment E6: the six proof rules of Lemma 3, checked semantically.
//!
//! Each rule is a Hoare triple about one abstract-lock transition. The
//! check quantifies the triple over **every reachable configuration** of
//! two harness programs (the Figure-7 client and a three-thread variant):
//! wherever the precondition holds and the transition is enabled, the
//! postcondition must hold in the successor. This is the model-checking
//! reading of "Lemma 3 has been verified in Isabelle/HOL".

use rc11::figures;
use rc11::prelude::*;
use rc11_assert::pred::EvalCtx;
use rc11_objects::lock;

/// Collect every reachable canonical configuration.
fn reachable(prog: &CfgProgram) -> Vec<Config> {
    let mut configs = Vec::new();
    let report = Explorer::new(prog, &AbstractObjects)
        .with_options(ExploreOptions { record_traces: false, ..Default::default() })
        .explore_with(|cfg, _| {
            configs.push(cfg.clone());
        });
    assert!(!report.truncated());
    configs
}

/// A three-thread lock client exercising deeper lock histories (versions up
/// to 6) and a client variable written under the lock.
fn three_thread_client() -> (rc11_lang::Program, ObjRef, VarRef) {
    let mut p = ProgramBuilder::new("lemma3-harness");
    let x = p.client_var("x", 0);
    let l = p.lock("l");
    for i in 0..3 {
        let tb = ThreadBuilder::new();
        p.add_thread(tb, seq([acquire(l), wr(x, 5 + i), release(l)]));
    }
    (p.build(), l, x)
}

struct RuleHarness {
    prog: CfgProgram,
    configs: Vec<Config>,
    l: ObjRef,
    x: VarRef,
}

fn harnesses() -> Vec<RuleHarness> {
    let f7 = figures::fig7();
    let p1 = compile(&f7.prog);
    let c1 = reachable(&p1);
    let (p, l, x) = three_thread_client();
    let p2 = compile(&p);
    let c2 = reachable(&p2);
    vec![
        RuleHarness { prog: p1, configs: c1, l: f7.l, x: f7.d1 },
        RuleHarness { prog: p2, configs: c2, l, x },
    ]
}

const MAX_VERSION: u32 = 8;

fn holds(p: &Pred, prog: &CfgProgram, cfg: &Config) -> bool {
    p.eval(EvalCtx { prog, cfg })
}

fn with_mem(cfg: &Config, mem: Combined) -> Config {
    cfg.with_mem(mem)
}

/// All six rules via the reusable `rc11::lemma3` module (the benches time
/// this path) — every rule must fire non-vacuously on both harnesses.
#[test]
fn all_rules_via_module() {
    for h in rc11::lemma3::standard_harnesses(3) {
        let stats = rc11::lemma3::check_all_rules(&h);
        assert!(stats.r1 > 0, "{}: rule 1 vacuous", h.prog.source.name);
        assert!(stats.r2 > 0);
        assert!(stats.r3 > 0);
        assert!(stats.r4 > 0);
        assert!(stats.r5 > 0, "{}: rule 5 vacuous", h.prog.source.name);
        assert!(stats.r6 > 0);
    }
}

/// Rule (1): `{H l.release_u} l.Acquire(v)_t {v > u + 1}`.
#[test]
fn rule_1_hidden_release_forces_later_version() {
    for h in harnesses() {
        let mut instances = 0;
        for cfg in &h.configs {
            for u in 0..MAX_VERSION {
                if !holds(&hidden(h.l, OpPat::Release(u)), &h.prog, cfg) {
                    continue;
                }
                for t in 0..h.prog.n_threads() {
                    for (v, _) in lock::acquire_steps(&cfg.mem, Tid(t as u8), h.l.loc) {
                        assert!(v > u + 1, "rule 1: acquired v={v} with release_{u} hidden");
                        instances += 1;
                    }
                }
            }
        }
        assert!(instances > 0, "rule 1 never fired on {}", h.prog.source.name);
    }
}

/// Rule (2): `{H l.release_u} l.m(v)_t {H l.release_u}` — hiddenness is
/// stable under lock operations.
#[test]
fn rule_2_hidden_is_stable() {
    for h in harnesses() {
        let mut instances = 0;
        for cfg in &h.configs {
            for u in 0..MAX_VERSION {
                let pre = hidden(h.l, OpPat::Release(u));
                if !holds(&pre, &h.prog, cfg) {
                    continue;
                }
                for t in 0..h.prog.n_threads() {
                    let tid = Tid(t as u8);
                    for (_, mem) in lock::acquire_steps(&cfg.mem, tid, h.l.loc)
                        .into_iter()
                        .chain(lock::release_steps(&cfg.mem, tid, h.l.loc))
                    {
                        assert!(
                            holds(&pre, &h.prog, &with_mem(cfg, mem)),
                            "rule 2: H release_{u} broken by a lock op"
                        );
                        instances += 1;
                    }
                }
            }
        }
        assert!(instances > 0);
    }
}

/// Rule (3): `{[l.release_u]_t} l.Acquire(v)_t {[l.acquire_{u+1}]_t}`.
#[test]
fn rule_3_definite_release_yields_next_acquire() {
    for h in harnesses() {
        let mut instances = 0;
        for cfg in &h.configs {
            for u in 0..MAX_VERSION {
                for t in 0..h.prog.n_threads() {
                    if !holds(&dobs_op(t, h.l, OpPat::Release(u)), &h.prog, cfg) {
                        continue;
                    }
                    for (v, mem) in lock::acquire_steps(&cfg.mem, Tid(t as u8), h.l.loc) {
                        assert_eq!(v, u + 1, "rule 3: version must be u+1");
                        assert!(
                            holds(
                                &dobs_op(t, h.l, OpPat::Acquire(u + 1)),
                                &h.prog,
                                &with_mem(cfg, mem)
                            ),
                            "rule 3: acquirer must definitely observe its acquire"
                        );
                        instances += 1;
                    }
                }
            }
        }
        assert!(instances > 0);
    }
}

/// Rule (4): `{[x = u]_t} l.m(v)_t' {[x = u]_t}` for `t' ≠ t` — another
/// thread's lock operations never disturb definite observations.
#[test]
fn rule_4_definite_obs_stable_under_other_lock_ops() {
    for h in harnesses() {
        let mut instances = 0;
        for cfg in &h.configs {
            for val in [0i64, 5, 6, 7] {
                for t in 0..h.prog.n_threads() {
                    let pre = dobs(t, h.x, val);
                    if !holds(&pre, &h.prog, cfg) {
                        continue;
                    }
                    for t2 in 0..h.prog.n_threads() {
                        if t2 == t {
                            continue;
                        }
                        let tid2 = Tid(t2 as u8);
                        for (_, mem) in lock::acquire_steps(&cfg.mem, tid2, h.l.loc)
                            .into_iter()
                            .chain(lock::release_steps(&cfg.mem, tid2, h.l.loc))
                        {
                            assert!(
                                holds(&pre, &h.prog, &with_mem(cfg, mem)),
                                "rule 4: [x={val}]{t} broken by thread {t2}'s lock op"
                            );
                            instances += 1;
                        }
                    }
                }
            }
        }
        assert!(instances > 0);
    }
}

/// Rule (5): `{⟨l.release_u⟩[x = n]_t} l.Acquire(v)_t {v = u+1 ⇒ [x = n]_t}`.
#[test]
fn rule_5_conditional_becomes_definite_on_acquire() {
    for h in harnesses() {
        let mut instances = 0;
        for cfg in &h.configs {
            for u in 0..MAX_VERSION {
                for n in [0i64, 5, 6, 7] {
                    for t in 0..h.prog.n_threads() {
                        let pre = cond_obs_op(t, h.l, OpPat::Release(u), h.x, n);
                        // Skip vacuous instances (no observable release_u):
                        // the conditional holds trivially and says nothing.
                        if !holds(&pobs_op(t, h.l, OpPat::Release(u)), &h.prog, cfg)
                            || !holds(&pre, &h.prog, cfg)
                        {
                            continue;
                        }
                        for (v, mem) in lock::acquire_steps(&cfg.mem, Tid(t as u8), h.l.loc) {
                            if v == u + 1 {
                                assert!(
                                    holds(&dobs(t, h.x, n), &h.prog, &with_mem(cfg, mem)),
                                    "rule 5: acquire of release_{u} must pin x = {n}"
                                );
                                instances += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(instances > 0, "rule 5 never fired on {}", h.prog.source.name);
    }
}

/// Rule (6): `{¬⟨l.release_u⟩_t' ∧ [x = v]_t} l.Release(u)_t
/// {⟨l.release_u⟩[x = v]_t'}`.
#[test]
fn rule_6_release_publishes_definite_observation() {
    for h in harnesses() {
        let mut instances = 0;
        for cfg in &h.configs {
            for u in 1..MAX_VERSION {
                for v in [0i64, 5, 6, 7] {
                    for t in 0..h.prog.n_threads() {
                        if !holds(&dobs(t, h.x, v), &h.prog, cfg) {
                            continue;
                        }
                        for t2 in 0..h.prog.n_threads() {
                            if t2 == t
                                || holds(&pobs_op(t2, h.l, OpPat::Release(u)), &h.prog, cfg)
                            {
                                continue;
                            }
                            for (n, mem) in
                                lock::release_steps(&cfg.mem, Tid(t as u8), h.l.loc)
                            {
                                if n != u {
                                    continue;
                                }
                                assert!(
                                    holds(
                                        &cond_obs_op(t2, h.l, OpPat::Release(u), h.x, v),
                                        &h.prog,
                                        &with_mem(cfg, mem)
                                    ),
                                    "rule 6: release_{u} must publish [x = {v}] to thread {t2}"
                                );
                                instances += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(instances > 0);
    }
}
