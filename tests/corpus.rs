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
//!   Under `Reduction::None` the engines reproduce the oracle's counts
//!   exactly; under the default `Reduction::Full`, outcome queries keep
//!   the oracle's terminal and deadlock sets and state queries hand their
//!   callback every one of the oracle's states.
//! * **Inventory**: ≥ 30 files, unique test names, every file parses.

use rc11::check::{reference, CanonicalFingerprint};
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

/// Unreduced, so the state count is the same at every worker count.
fn observed(l: &litmus::Litmus, engine: &Engine) -> (BTreeSet<Vec<Val>>, usize) {
    let opts =
        ExploreOptions { record_traces: false, reduce: Reduction::None, ..Default::default() };
    let (res, _, _) = litmus::run_with_opts(l, engine, &opts);
    (res.observed, res.states)
}

/// The observed outcome set of a report's terminal configurations.
fn outcomes(l: &litmus::Litmus, report: &EngineReport) -> BTreeSet<Vec<Val>> {
    report
        .terminated
        .iter()
        .map(|c| l.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
        .collect()
}

/// Configurations with their multiplicities.
fn multiset(cfgs: &[Config]) -> std::collections::HashMap<Config, usize> {
    let mut m = std::collections::HashMap::new();
    for c in cfgs {
        *m.entry(c.clone()).or_insert(0) += 1;
    }
    m
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

/// Ablation A5: sleep sets prune transitions, never states. A state query
/// (`explore_with`) under `Reduction::Full` runs sleep sets plus symmetry,
/// so on every corpus file without symmetric threads its state count
/// equals the oracle's exactly, at 1/2/4/8 workers, with no more
/// transitions and the expected verdict.
#[test]
fn whole_corpus_is_exact_with_por_on() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        if !rc11::analyze::thread_symmetry(&prog).is_trivial() {
            continue;
        }
        let objs = litmus::objects_for(&l);
        let oracle = reference::explore(&prog, objs, usize::MAX, |_, _| {});
        for workers in [1usize, 2, 4, 8] {
            let report = choose_engine(workers).explore_with(&prog, objs, &opts, |_, _| {});
            let tag = format!("{} ({}) @ {workers} worker(s)", l.name, path.display());
            assert!(!report.truncated() && report.deadlocked.is_empty(), "{tag}");
            assert_eq!(report.states, oracle.states, "{tag}: sleep sets lost states");
            assert!(
                report.transitions <= oracle.transitions,
                "{tag}: POR generated more transitions ({} > {})",
                report.transitions,
                oracle.transitions
            );
            assert_eq!(outcomes(&l, &report), l.expected, "{tag}: POR verdict");
        }
    }
}

/// Ablation A6: a state query under `Reduction::Full` folds symmetric
/// threads' orbits to one representative, yet its callback still sees
/// every state the oracle reaches — the same canonical fingerprints, on
/// every corpus file at 1/2/4/8 workers — while the state count may only
/// shrink and the orbit-expanded terminal multiset equals the oracle's.
#[test]
fn whole_corpus_is_exact_with_symmetry_on() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let mut oracle_seen = std::collections::HashSet::new();
        let oracle = reference::explore(&prog, objs, usize::MAX, |c, _| {
            oracle_seen.insert(c.canonical_fingerprint());
        });
        let oracle_terminals = multiset(&oracle.terminated);
        for workers in [1usize, 2, 4, 8] {
            let seen = std::sync::Mutex::new(std::collections::HashSet::new());
            let report = choose_engine(workers).explore_with(&prog, objs, &opts, |c, _| {
                seen.lock().unwrap().insert(c.canonical_fingerprint());
            });
            let tag = format!("{} ({}) @ {workers} worker(s)", l.name, path.display());
            assert!(!report.truncated() && report.deadlocked.is_empty(), "{tag}");
            assert!(
                report.states <= oracle.states,
                "{tag}: symmetry grew the state count ({} > {})",
                report.states,
                oracle.states
            );
            assert_eq!(
                seen.into_inner().unwrap(),
                oracle_seen,
                "{tag}: the callback missed or invented states"
            );
            assert_eq!(
                multiset(&report.terminated),
                oracle_terminals,
                "{tag}: orbit expansion changed the terminal set"
            );
            assert_eq!(outcomes(&l, &report), l.expected, "{tag}: symmetry verdict");
        }
    }
}

/// Ablation A7: an outcome query (`explore`) under `Reduction::Full` runs
/// persistent sets on top of sleep sets and symmetry. It may shed states
/// as well as transitions, and counts may differ between engines (arrival
/// order decides wake-up patterns), so the binding contract against the
/// oracle is: states ≤, transitions ≤, terminal and deadlock **multisets
/// bit-identical**, observed outcome set == expected. Under
/// `Reduction::None` the same query reproduces the oracle's counts
/// exactly.
#[test]
fn whole_corpus_is_exact_with_dpor_on() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    let full = ExploreOptions { record_traces: false, ..Default::default() };
    let none = ExploreOptions { reduce: Reduction::None, ..full.clone() };
    for (path, loaded) in entries {
        let l = loaded.unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let oracle = reference::explore(&prog, objs, usize::MAX, |_, _| {});
        let oracle_terminals = multiset(&oracle.terminated);
        for workers in [1usize, 2, 4, 8] {
            let engine = choose_engine(workers);
            let tag = format!("{} ({}) @ {workers} worker(s)", l.name, path.display());
            let report = engine.explore(&prog, objs, &full);
            assert!(!report.truncated() && report.deadlocked.is_empty(), "{tag}");
            assert!(
                report.states <= oracle.states && report.transitions <= oracle.transitions,
                "{tag}: Full grew the counts ({} / {} > {} / {})",
                report.states,
                report.transitions,
                oracle.states,
                oracle.transitions
            );
            assert_eq!(
                multiset(&report.terminated),
                oracle_terminals,
                "{tag}: Full changed the terminal multiset"
            );
            assert_eq!(outcomes(&l, &report), l.expected, "{tag}: Full verdict");
            let report = engine.explore(&prog, objs, &none);
            assert_eq!(
                (report.states, report.transitions),
                (oracle.states, oracle.transitions),
                "{tag}: unreduced counts"
            );
            assert_eq!(multiset(&report.terminated), oracle_terminals, "{tag}: None terminals");
        }
    }
}

/// The acceptance bar for A7: the multi-component spin/lock corpus
/// entries shed at least 5x transitions under `Reduction::Full` (sleep
/// sets, persistent sets, symmetry) relative to the unreduced search.
/// These are the entries the bar is measured on because their conflict
/// graphs split into independent components: sleep sets prune commuted
/// sibling orders but never states, so they still walk the full component
/// *product*; persistent sets run the components one after another,
/// collapsing the product into a sum.
#[test]
fn dpor_corpus_entries_shed_at_least_5x_transitions() {
    for file in ["ttas2x2.litmus", "mp_spin2x3.litmus", "deqspin2x2.litmus"] {
        let l = litmus::load_file(corpus_dir().join(file)).unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let objs = litmus::objects_for(&l);
        let full = ExploreOptions { record_traces: false, ..Default::default() };
        let none = ExploreOptions { reduce: Reduction::None, ..full.clone() };
        let unreduced = Engine::Sequential.explore(&prog, objs, &none);
        let reduced = Engine::Sequential.explore(&prog, objs, &full);
        let factor = unreduced.transitions as f64 / reduced.transitions.max(1) as f64;
        assert!(
            factor >= 5.0,
            "{file}: reduction {factor:.2}x below the 5x bar ({} vs {} transitions)",
            reduced.transitions,
            unreduced.transitions
        );
        assert!(reduced.states <= unreduced.states, "{file}: Full grew the state count");
    }
}

/// The acceptance bar for A6: the fully symmetric corpus entries shed at
/// least 3x states under symmetry reduction — measured on a state query,
/// where sleep sets leave the count alone and only orbit folding shrinks
/// it.
#[test]
fn symmetric_corpus_entries_shed_at_least_3x_states() {
    for file in ["sym_cas3.litmus", "sym_inc3.litmus", "sym_fai4.litmus"] {
        let l = litmus::load_file(corpus_dir().join(file)).unwrap_or_else(|e| panic!("{e}"));
        let prog = compile(&l.prog);
        let full = ExploreOptions { record_traces: false, ..Default::default() };
        let none = ExploreOptions { reduce: Reduction::None, ..full.clone() };
        let unreduced = Engine::Sequential.explore_with(&prog, &NoObjects, &none, |_, _| {});
        let sym = Engine::Sequential.explore_with(&prog, &NoObjects, &full, |_, _| {});
        let factor = unreduced.states as f64 / sym.states.max(1) as f64;
        assert!(
            factor >= 3.0,
            "{file}: symmetry reduction {factor:.2}x below the 3x bar \
             ({} vs {} states)",
            sym.states,
            unreduced.states
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
