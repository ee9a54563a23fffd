//! The committed `.litmus` corpus, held to the builder gallery and to both
//! engines.
//!
//! Three layers of pinning:
//!
//! * **Round-trip**: every builder-gallery litmus has a text twin in
//!   `corpus/` whose parsed program produces the *identical* verdict —
//!   same expected set, same observed outcome set, same state count —
//!   under both engines. A divergence is a bug in the parser (or a corpus
//!   file that drifted from its twin).
//! * **Corpus-wide exactness**: every corpus file (the twins plus the
//!   classics that exist only as text) passes — observed = expected — at
//!   1, 2, 4 and 8 workers, and under the `rc11_check::reference` oracle.
//! * **Inventory**: ≥ 30 files, unique test names, every file parses.

use rc11::check::reference;
use rc11::prelude::*;
use rc11_litmus as litmus;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// The corpus file that ports a gallery entry: lowercased, `+` → `_`.
fn twin_path(name: &str) -> PathBuf {
    corpus_dir().join(format!("{}.litmus", name.to_lowercase().replace('+', "_")))
}

fn observed(l: &litmus::Litmus, engine: &Engine) -> (BTreeSet<Vec<Val>>, usize) {
    let res = litmus::run_with(l, engine);
    (res.observed, res.states)
}

#[test]
fn every_gallery_entry_has_a_text_twin_with_an_identical_verdict() {
    for builder in litmus::all() {
        let path = twin_path(&builder.name);
        let text = litmus::load_file(&path)
            .unwrap_or_else(|e| panic!("{}: gallery twin missing or broken: {e}", builder.name));
        assert_eq!(text.name, builder.name, "{}: twin is misnamed", path.display());
        assert_eq!(
            text.expected, builder.expected,
            "{}: expected outcome sets drifted apart",
            builder.name
        );
        for engine in [Engine::Sequential, Engine::Parallel { workers: 4 }] {
            let (b_obs, b_states) = observed(&builder, &engine);
            let (t_obs, t_states) = observed(&text, &engine);
            assert_eq!(
                t_obs, b_obs,
                "{} ({engine:?}): parsed twin observes a different outcome set",
                builder.name
            );
            assert_eq!(
                t_states, b_states,
                "{} ({engine:?}): parsed twin explores a different state space",
                builder.name
            );
            assert_eq!(t_obs, text.expected, "{} ({engine:?}): twin verdict", builder.name);
        }
    }
}

#[test]
fn corpus_inventory_is_large_parseable_and_uniquely_named() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    assert!(
        entries.len() >= 30,
        "corpus must hold at least 30 litmus files, found {}",
        entries.len()
    );
    let mut names = BTreeSet::new();
    for (path, loaded) in &entries {
        let l = loaded
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: does not load: {e}", path.display()));
        assert!(!l.expected.is_empty(), "{}: empty expected set", path.display());
        assert!(
            names.insert(l.name.clone()),
            "{}: duplicate litmus name `{}`",
            path.display(),
            l.name
        );
    }
}

#[test]
fn whole_corpus_is_exact_under_both_engines_at_every_worker_count() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let mut seq_observed = None;
        for workers in [1usize, 2, 4, 8] {
            let engine = choose_engine(workers);
            let res = litmus::run_with(&l, &engine);
            assert!(
                res.pass,
                "{} ({}) @ {workers} worker(s): observed {:?} ≠ expected {:?}",
                l.name,
                path.display(),
                res.observed,
                res.expected
            );
            if let Some(prev) = &seq_observed {
                assert_eq!(
                    prev, &res.observed,
                    "{} @ {workers} worker(s): engines disagree",
                    l.name
                );
            } else {
                seq_observed = Some(res.observed);
            }
        }
    }
}

/// Ablation A5: the whole corpus decided with sleep-set partial-order
/// reduction on, at 1/2/4/8 workers. POR prunes transitions only, so this
/// demands more than verdict parity: the state count must equal the
/// unreduced run's exactly, the outcome set must equal the expected set,
/// no run may deadlock or truncate, and the reduced transition count must
/// never exceed the unreduced one.
#[test]
fn whole_corpus_is_exact_with_por_on() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let full = Engine::Sequential.explore(
            &prog,
            objs,
            &ExploreOptions { record_traces: false, ..Default::default() },
        );
        for workers in [1usize, 2, 4, 8] {
            let opts = ExploreOptions { record_traces: false, por: true, ..Default::default() };
            let engine = choose_engine(workers);
            let report = engine.explore(&prog, objs, &opts);
            assert!(
                !report.truncated() && report.deadlocked.is_empty(),
                "{} ({}) @ {workers} worker(s)",
                l.name,
                path.display()
            );
            assert_eq!(
                report.states, full.states,
                "{} @ {workers} worker(s): POR lost states",
                l.name
            );
            assert!(
                report.transitions <= full.transitions,
                "{} @ {workers} worker(s): POR generated more transitions ({} > {})",
                l.name,
                report.transitions,
                full.transitions
            );
            let observed: BTreeSet<Vec<Val>> = report
                .terminated
                .iter()
                .map(|c| l.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
                .collect();
            assert_eq!(observed, l.expected, "{} @ {workers} worker(s): POR verdict", l.name);
        }
    }
}

/// Ablation A6: the whole corpus decided with thread-symmetry reduction
/// on, alone and combined with POR, at 1/2/4/8 workers. Symmetry
/// collapses each orbit to one representative, so the state count may
/// only shrink; the orbit expansion of the terminal and deadlock sets
/// must restore them bit-identically, which the observed outcome set
/// (== expected) and the terminal multiset pin down.
#[test]
fn whole_corpus_is_exact_with_symmetry_on() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let full = Engine::Sequential.explore(
            &prog,
            objs,
            &ExploreOptions { record_traces: false, ..Default::default() },
        );
        let multiset = |cfgs: &[Config]| {
            let mut m = std::collections::HashMap::<Config, usize>::new();
            for c in cfgs {
                *m.entry(c.clone()).or_insert(0) += 1;
            }
            m
        };
        let full_terminals = multiset(&full.terminated);
        for workers in [1usize, 2, 4, 8] {
            for por in [false, true] {
                let opts = ExploreOptions {
                    record_traces: false,
                    por,
                    symmetry: true,
                    ..Default::default()
                };
                let engine = choose_engine(workers);
                let report = engine.explore(&prog, objs, &opts);
                let tag =
                    format!("{} ({}) @ {workers} worker(s), por {por}", l.name, path.display());
                assert!(!report.truncated() && report.deadlocked.is_empty(), "{tag}");
                assert!(
                    report.states <= full.states,
                    "{tag}: symmetry grew the state count ({} > {})",
                    report.states,
                    full.states
                );
                assert_eq!(
                    report.terminated.len(),
                    full.terminated.len(),
                    "{tag}: orbit expansion changed the terminal count"
                );
                assert_eq!(
                    multiset(&report.terminated),
                    full_terminals,
                    "{tag}: orbit expansion changed the terminal set"
                );
                let observed: BTreeSet<Vec<Val>> = report
                    .terminated
                    .iter()
                    .map(|c| l.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
                    .collect();
                assert_eq!(observed, l.expected, "{tag}: symmetry verdict");
            }
        }
    }
}

/// Ablation A7: the whole corpus decided with persistent-set DPOR on, at
/// 1/2/4/8 workers, alone and composed with symmetry reduction. DPOR may
/// shed *states* as well as transitions (configurations reachable only by
/// commuting a postponed thread first are never built), and
/// state/transition counts may differ between engines (arrival order
/// decides wake-up patterns) — so the binding contract is: states ≤
/// unreduced, transitions ≤ unreduced, terminal and deadlock **multisets
/// bit-identical**, observed outcome set == expected.
#[test]
fn whole_corpus_is_exact_with_dpor_on() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let full = Engine::Sequential.explore(
            &prog,
            objs,
            &ExploreOptions { record_traces: false, ..Default::default() },
        );
        let multiset = |cfgs: &[Config]| {
            let mut m = std::collections::HashMap::<Config, usize>::new();
            for c in cfgs {
                *m.entry(c.clone()).or_insert(0) += 1;
            }
            m
        };
        let full_terminals = multiset(&full.terminated);
        for workers in [1usize, 2, 4, 8] {
            for symmetry in [false, true] {
                let opts = ExploreOptions {
                    record_traces: false,
                    dpor: true,
                    symmetry,
                    ..Default::default()
                };
                let engine = choose_engine(workers);
                let report = engine.explore(&prog, objs, &opts);
                let tag = format!(
                    "{} ({}) @ {workers} worker(s), symmetry {symmetry}",
                    l.name,
                    path.display()
                );
                assert!(!report.truncated() && report.deadlocked.is_empty(), "{tag}");
                assert!(
                    report.states <= full.states,
                    "{tag}: DPOR grew the state count ({} > {})",
                    report.states,
                    full.states
                );
                assert!(
                    report.transitions <= full.transitions,
                    "{tag}: DPOR generated more transitions ({} > {})",
                    report.transitions,
                    full.transitions
                );
                assert_eq!(
                    multiset(&report.terminated),
                    full_terminals,
                    "{tag}: DPOR changed the terminal multiset"
                );
                let observed: BTreeSet<Vec<Val>> = report
                    .terminated
                    .iter()
                    .map(|c| l.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
                    .collect();
                assert_eq!(observed, l.expected, "{tag}: DPOR verdict");
            }
        }
    }
}

/// The acceptance bar for A7: the multi-component spin/lock corpus
/// entries shed at least 5x transitions under persistent-set DPOR
/// relative to the sleep-set-only search. These are the entries the bar
/// is measured on because their conflict graphs split into independent
/// components: sleep sets prune commuted sibling orders but never
/// states, so they still walk the full component *product*; persistent
/// sets run the components one after another, collapsing the product
/// into a sum.
#[test]
fn dpor_corpus_entries_shed_at_least_5x_transitions() {
    for file in ["ttas2x2.litmus", "mp_spin2x3.litmus", "deqspin2x2.litmus"] {
        let l = litmus::load_file(corpus_dir().join(file)).unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let sleep = Engine::Sequential.explore(
            &prog,
            objs,
            &ExploreOptions { record_traces: false, por: true, ..Default::default() },
        );
        let dpor = Engine::Sequential.explore(
            &prog,
            objs,
            &ExploreOptions { record_traces: false, dpor: true, ..Default::default() },
        );
        let factor = sleep.transitions as f64 / dpor.transitions.max(1) as f64;
        assert!(
            factor >= 5.0,
            "{file}: DPOR reduction {factor:.2}x below the 5x bar \
             ({} vs {} transitions)",
            dpor.transitions,
            sleep.transitions
        );
        assert!(dpor.states <= sleep.states, "{file}: DPOR grew the state count");
    }
}

/// The acceptance bar for A6: the fully symmetric corpus entries shed at
/// least 3x states under symmetry reduction.
#[test]
fn symmetric_corpus_entries_shed_at_least_3x_states() {
    for file in ["sym_cas3.litmus", "sym_inc3.litmus", "sym_fai4.litmus"] {
        let l = litmus::load_file(corpus_dir().join(file)).unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let base = ExploreOptions { record_traces: false, ..Default::default() };
        let full = Engine::Sequential.explore(&prog, &NoObjects, &base);
        let sym = Engine::Sequential
            .explore(&prog, &NoObjects, &ExploreOptions { symmetry: true, ..base.clone() });
        let factor = full.states as f64 / sym.states.max(1) as f64;
        assert!(
            factor >= 3.0,
            "{file}: symmetry reduction {factor:.2}x below the 3x bar \
             ({} vs {} states)",
            sym.states,
            full.states
        );
    }
}

/// Every corpus file is lint-clean: the `rc11 lint` rules produce no
/// findings (files with intentionally-dead CAS/FAI destination registers
/// carry `// lint: allow(…)` comments). CI enforces the same via
/// `rc11 lint corpus/ --deny-warnings`.
#[test]
fn whole_corpus_is_lint_clean() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, _) in entries {
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}"));
        let parsed =
            parse_litmus(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let findings = rc11::analyze::lint(&parsed);
        assert!(
            findings.is_empty(),
            "{}: lint findings:\n{}",
            path.display(),
            findings
                .iter()
                .map(|d| rc11::analyze::render_diagnostic(&path.display().to_string(), d))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The corpus is exact under the `rc11_check::reference` oracle too — a
/// breadth-first search over materialised canonical states with no
/// fingerprints — so every expected set is pinned independently of the
/// engines' fingerprint dedup, on programs that exist only as text.
#[test]
fn whole_corpus_is_exact_with_fingerprints_off() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let report = reference::explore(&prog, litmus::objects_for(&l), usize::MAX, |_, _| {});
        assert!(!report.truncated() && report.deadlocked.is_empty(), "{}", path.display());
        let observed: BTreeSet<Vec<Val>> = report
            .terminated
            .iter()
            .map(|c| l.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
            .collect();
        assert_eq!(observed, l.expected, "{} (reference): verdict", l.name);
    }
}
