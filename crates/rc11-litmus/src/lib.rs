//! # rc11-litmus — litmus tests with expected RC11 RAR verdicts
//!
//! A gallery of classic weak-memory litmus tests (plus the paper's
//! message-passing figures as litmus entries), each with the **exact** set
//! of final-register outcomes RC11 RAR admits. The runner explores
//! exhaustively and compares observed outcomes against the expectation —
//! both directions: an unexpected outcome is a soundness bug in the
//! semantics, a missing outcome is a completeness bug. Together these pin
//! the executable semantics to the model (experiment E5).
//!
//! Verdicts go through [`rc11_check::Engine`]: [`run_with`] takes the
//! engine explicitly (the differential suite holds its verdicts to the
//! reference oracle), and [`run`] is the shorthand.
//!
//! Beyond the built-in gallery, litmus tests are **data**: [`load_str`]
//! parses the `.litmus` surface syntax ([`rc11_lang::parse`]) into the same
//! [`Litmus`] type, [`load_file`]/[`load_dir`] read them off disk, and the
//! committed `corpus/` directory at the workspace root carries the full
//! test set (every gallery entry round-tripped to text plus the classic
//! weak-memory shapes). The `rc11 run` CLI batch-runs a corpus under any
//! engine.

#![warn(missing_docs)]

use rc11_check::{Engine, ExploreOptions, Note, StopReason};
use rc11_core::Val;
use rc11_lang::builder::*;
use rc11_lang::machine::{NoObjects, ObjectSemantics};
use rc11_lang::parse::{parse_litmus, ParsedLitmus};
use rc11_lang::{compile, Program, Reg};
use rc11_objects::AbstractObjects;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One litmus test: a program, the registers to observe, and the exact
/// expected outcome set.
pub struct Litmus {
    /// Short conventional name (`MP+rlx`, `SB+ra`, …).
    pub name: String,
    /// What the test demonstrates.
    pub about: String,
    /// The program.
    pub prog: Program,
    /// Which registers form the observation tuple: `(thread, register)`.
    pub observe: Vec<(usize, Reg)>,
    /// The exact set of admissible outcome tuples.
    pub expected: BTreeSet<Vec<Val>>,
}

impl From<ParsedLitmus> for Litmus {
    fn from(p: ParsedLitmus) -> Litmus {
        Litmus {
            name: p.name,
            about: p.about,
            prog: p.prog,
            observe: p.observe,
            expected: p.expected,
        }
    }
}

/// An error loading a litmus test from disk: I/O or parse, with the file
/// path for context.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(PathBuf, std::io::Error),
    /// The file did not parse; the [`rc11_lang::ParseError`] carries the
    /// line/column span.
    Parse(PathBuf, rc11_lang::ParseError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            LoadError::Parse(p, e) => write!(f, "{}:{e}", p.display()),
        }
    }
}

impl std::error::Error for LoadError {}

/// Parse a `.litmus` source string into a runnable [`Litmus`].
pub fn load_str(src: &str) -> Result<Litmus, rc11_lang::ParseError> {
    parse_litmus(src).map(Litmus::from)
}

/// Load one `.litmus` file.
pub fn load_file(path: impl AsRef<Path>) -> Result<Litmus, LoadError> {
    let path = path.as_ref();
    let src =
        std::fs::read_to_string(path).map_err(|e| LoadError::Io(path.to_path_buf(), e))?;
    load_str(&src).map_err(|e| LoadError::Parse(path.to_path_buf(), e))
}

/// Load every `*.litmus` file directly inside `dir`, sorted by file name.
/// Each file loads independently, so one bad file does not hide the rest —
/// including entries whose directory iteration errors, which surface as
/// [`LoadError::Io`] entries rather than vanishing from the list.
pub fn load_dir(dir: impl AsRef<Path>) -> std::io::Result<Vec<(PathBuf, Result<Litmus, LoadError>)>> {
    load_dir_with(dir, |p| load_file(p))
}

/// [`load_dir`] with a caller-supplied loader run once per file, in the
/// returned order (`rc11 run` uses it to time each load).
pub fn load_dir_with(
    dir: impl AsRef<Path>,
    mut load: impl FnMut(&Path) -> Result<Litmus, LoadError>,
) -> std::io::Result<Vec<(PathBuf, Result<Litmus, LoadError>)>> {
    let dir = dir.as_ref();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut broken: Vec<(PathBuf, Result<Litmus, LoadError>)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        match entry {
            Ok(e) => {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "litmus") {
                    paths.push(p);
                }
            }
            Err(e) => broken.push((dir.to_path_buf(), Err(LoadError::Io(dir.to_path_buf(), e)))),
        }
    }
    paths.sort();
    let mut out: Vec<(PathBuf, Result<Litmus, LoadError>)> =
        paths.into_iter().map(|p| (p.clone(), load(&p))).collect();
    out.extend(broken);
    Ok(out)
}

/// Result of running one litmus test.
#[derive(Debug)]
pub struct LitmusResult {
    /// Outcomes actually reachable.
    pub observed: BTreeSet<Vec<Val>>,
    /// Outcomes expected.
    pub expected: BTreeSet<Vec<Val>>,
    /// States explored — under the default
    /// [`Reduction::Full`](rc11_check::Reduction) at most the unreduced
    /// count, with the verdict unchanged.
    pub states: usize,
    /// Transitions generated (likewise bounded by the unreduced count).
    pub transitions: usize,
    /// `observed == expected`.
    pub pass: bool,
    /// Structured engine warnings ([`rc11_check::Note`]): reduction
    /// fallbacks (POR thread cap, symmetry orbit cap),
    /// contained faults, checkpoint errors. The result stays exact
    /// for reduction fallbacks; `rc11 run` prints these as a column.
    pub notes: Vec<Note>,
}

fn ints(rows: &[&[i64]]) -> BTreeSet<Vec<Val>> {
    rows.iter().map(|r| r.iter().map(|&n| Val::Int(n)).collect()).collect()
}

/// The object semantics a litmus program needs: none for pure-variable
/// programs, the abstract registry otherwise.
pub fn objects_for(l: &Litmus) -> &'static (dyn ObjectSemantics + Sync) {
    if l.prog.objects.is_empty() {
        &NoObjects
    } else {
        &AbstractObjects
    }
}

/// Run a litmus test by exhaustive exploration with the sequential
/// engine.
pub fn run(l: &Litmus) -> LitmusResult {
    run_with(l, &Engine::Sequential)
}

/// Run a litmus test by exhaustive exploration under the given engine.
/// Panics on truncation or deadlock (gallery programs do neither); use
/// [`run_with_opts`] for the non-panicking, options-taking variant.
pub fn run_with(l: &Litmus, engine: &Engine) -> LitmusResult {
    let opts = ExploreOptions { record_traces: false, ..Default::default() };
    let (res, stop, deadlocked) = run_with_opts(l, engine, &opts);
    assert!(stop.is_complete(), "litmus {} stopped early: {stop}", l.name);
    assert_eq!(deadlocked, 0, "litmus {} deadlocked", l.name);
    res
}

/// [`run_with`] with explicit exploration options and no panicking:
/// returns the result plus why the run stopped
/// ([`StopReason::Complete`] = exhaustive) and how many deadlocked
/// configurations it found. `pass` additionally requires a complete,
/// deadlock-free run. This is the one place the observed outcome set and
/// the pass predicate are computed — the CLI and the corpus tests both go
/// through it.
pub fn run_with_opts(
    l: &Litmus,
    engine: &Engine,
    opts: &ExploreOptions,
) -> (LitmusResult, StopReason, usize) {
    let prog = compile(&l.prog);
    let report = engine.explore(&prog, objects_for(l), opts);
    let observed: BTreeSet<Vec<Val>> = report
        .terminated
        .iter()
        .map(|c| l.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
        .collect();
    let pass = observed == l.expected && !report.truncated() && report.deadlocked.is_empty();
    let res = LitmusResult {
        observed,
        expected: l.expected.clone(),
        states: report.states,
        transitions: report.transitions,
        pass,
        notes: report.notes,
    };
    (res, report.stop, report.deadlocked.len())
}

/// `MP+rlx` — message passing, all-relaxed: the stale read is visible.
pub fn mp_rlx() -> Litmus {
    let mut p = ProgramBuilder::new("MP+rlx");
    let d = p.client_var("d", 0);
    let f = p.client_var("f", 0);
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(d, 5), wr(f, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([rd(r1, f), rd(r2, d)]));
    Litmus {
        name: "MP+rlx".into(),
        about: "relaxed message passing admits the stale data read".into(),
        prog: p.build(),
        observe: vec![(1, r1), (1, r2)],
        expected: ints(&[&[0, 0], &[0, 5], &[1, 0], &[1, 5]]),
    }
}

/// `MP+ra` — message passing with release/acquire: seeing the flag implies
/// seeing the data.
pub fn mp_ra() -> Litmus {
    let mut p = ProgramBuilder::new("MP+ra");
    let d = p.client_var("d", 0);
    let f = p.client_var("f", 0);
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(d, 5), wr_rel(f, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([rd_acq(r1, f), rd(r2, d)]));
    Litmus {
        name: "MP+ra".into(),
        about: "release/acquire message passing forbids the stale read".into(),
        prog: p.build(),
        observe: vec![(1, r1), (1, r2)],
        expected: ints(&[&[0, 0], &[0, 5], &[1, 5]]),
    }
}

/// `SB+ra` — store buffering: both threads may read the initial values even
/// under release/acquire.
pub fn sb_ra() -> Litmus {
    let mut p = ProgramBuilder::new("SB+ra");
    let x = p.client_var("x", 0);
    let y = p.client_var("y", 0);
    let mut t1 = ThreadBuilder::new();
    let r1 = t1.reg("r1");
    p.add_thread(t1, seq([wr_rel(x, 1), rd_acq(r1, y)]));
    let mut t2 = ThreadBuilder::new();
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([wr_rel(y, 1), rd_acq(r2, x)]));
    Litmus {
        name: "SB+ra".into(),
        about: "store buffering stays weak under release/acquire".into(),
        prog: p.build(),
        observe: vec![(0, r1), (1, r2)],
        expected: ints(&[&[0, 0], &[0, 1], &[1, 0], &[1, 1]]),
    }
}

/// `LB+rlx` — load buffering: RC11 RAR (which disallows load-buffering
/// cycles) forbids the `(1, 1)` outcome.
pub fn lb_rlx() -> Litmus {
    let mut p = ProgramBuilder::new("LB+rlx");
    let x = p.client_var("x", 0);
    let y = p.client_var("y", 0);
    let mut t1 = ThreadBuilder::new();
    let r1 = t1.reg("r1");
    p.add_thread(t1, seq([rd(r1, x), wr(y, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([rd(r2, y), wr(x, 1)]));
    Litmus {
        name: "LB+rlx".into(),
        about: "load-buffering cycles are disallowed in RC11 RAR".into(),
        prog: p.build(),
        observe: vec![(0, r1), (1, r2)],
        expected: ints(&[&[0, 0], &[0, 1], &[1, 0]]),
    }
}

/// `CoRR` — coherence of read-read: two reads by one thread never observe
/// one thread's same-variable writes out of modification order.
pub fn corr() -> Litmus {
    let mut p = ProgramBuilder::new("CoRR");
    let x = p.client_var("x", 0);
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(x, 1), wr(x, 2)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([rd(r1, x), rd(r2, x)]));
    Litmus {
        name: "CoRR".into(),
        about: "per-location coherence: no read-read inversion".into(),
        prog: p.build(),
        observe: vec![(1, r1), (1, r2)],
        expected: ints(&[&[0, 0], &[0, 1], &[0, 2], &[1, 1], &[1, 2], &[2, 2]]),
    }
}

/// `CoWR` — coherence of write-read: a thread never reads something older
/// than its own write.
pub fn cowr() -> Litmus {
    let mut p = ProgramBuilder::new("CoWR");
    let x = p.client_var("x", 0);
    let mut t1 = ThreadBuilder::new();
    let r1 = t1.reg("r1");
    p.add_thread(t1, seq([wr(x, 1), rd(r1, x)]));
    let t2 = ThreadBuilder::new();
    p.add_thread(t2, seq([wr(x, 2)]));
    Litmus {
        name: "CoWR".into(),
        about: "a writer reads its own write or something newer".into(),
        prog: p.build(),
        observe: vec![(0, r1)],
        expected: ints(&[&[1], &[2]]),
    }
}

/// `IRIW+ra` — independent reads of independent writes: the two readers may
/// disagree on the order of the writes even under release/acquire (RC11 RAR
/// has no per-execution total order on writes to different locations).
pub fn iriw_ra() -> Litmus {
    let mut p = ProgramBuilder::new("IRIW+ra");
    let x = p.client_var("x", 0);
    let y = p.client_var("y", 0);
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr_rel(x, 1)]));
    let t2 = ThreadBuilder::new();
    p.add_thread(t2, seq([wr_rel(y, 1)]));
    let mut t3 = ThreadBuilder::new();
    let r1 = t3.reg("r1");
    let r2 = t3.reg("r2");
    p.add_thread(t3, seq([rd_acq(r1, x), rd_acq(r2, y)]));
    let mut t4 = ThreadBuilder::new();
    let r3 = t4.reg("r3");
    let r4 = t4.reg("r4");
    p.add_thread(t4, seq([rd_acq(r3, y), rd_acq(r4, x)]));
    // All 16 combinations are admissible: the readers synchronise only with
    // the writers, never with each other.
    let mut expected = BTreeSet::new();
    for a in 0..2i64 {
        for b in 0..2i64 {
            for c in 0..2i64 {
                for d in 0..2i64 {
                    expected.insert(vec![Val::Int(a), Val::Int(b), Val::Int(c), Val::Int(d)]);
                }
            }
        }
    }
    Litmus {
        name: "IRIW+ra".into(),
        about: "independent readers may disagree on write order under RA".into(),
        prog: p.build(),
        observe: vec![(2, r1), (2, r2), (3, r3), (3, r4)],
        expected,
    }
}

/// `WRC+ra` — write-read causality: release/acquire chains are transitive.
pub fn wrc_ra() -> Litmus {
    let mut p = ProgramBuilder::new("WRC+ra");
    let x = p.client_var("x", 0);
    let y = p.client_var("y", 0);
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr_rel(x, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    p.add_thread(t2, seq([rd_acq(r1, x), wr_rel(y, 1)]));
    let mut t3 = ThreadBuilder::new();
    let r2 = t3.reg("r2");
    let r3 = t3.reg("r3");
    p.add_thread(t3, seq([rd_acq(r2, y), rd(r3, x)]));
    // Forbidden: r1 = 1 ∧ r2 = 1 ∧ r3 = 0 (causality chain must deliver x).
    let mut expected = BTreeSet::new();
    for a in 0..2i64 {
        for b in 0..2i64 {
            for c in 0..2i64 {
                if a == 1 && b == 1 && c == 0 {
                    continue;
                }
                expected.insert(vec![Val::Int(a), Val::Int(b), Val::Int(c)]);
            }
        }
    }
    Litmus {
        name: "WRC+ra".into(),
        about: "write-read causality through a release/acquire chain".into(),
        prog: p.build(),
        observe: vec![(1, r1), (2, r2), (2, r3)],
        expected,
    }
}

/// `2RMW` — atomicity of updates: two fetch-and-increments never observe
/// the same predecessor.
pub fn two_rmw() -> Litmus {
    let mut p = ProgramBuilder::new("2RMW");
    let x = p.client_var("x", 0);
    let mut t1 = ThreadBuilder::new();
    let r1 = t1.reg("r1");
    p.add_thread(t1, seq([fai(r1, x)]));
    let mut t2 = ThreadBuilder::new();
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([fai(r2, x)]));
    Litmus {
        name: "2RMW".into(),
        about: "update atomicity: FAIs hand out distinct values".into(),
        prog: p.build(),
        observe: vec![(0, r1), (1, r2)],
        expected: ints(&[&[0, 1], &[1, 0]]),
    }
}

/// Figure 1 as a litmus test: unsynchronised message passing via the
/// abstract stack — `r2 ∈ {0, 5}`.
pub fn fig1_stack_mp_unsync() -> Litmus {
    let mut p = ProgramBuilder::new("Fig1");
    let d = p.client_var("d", 0);
    let s = p.stack("s");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(d, 5), push(s, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([do_until(pop(s, r1), eq(r1, 1)), rd(r2, d)]));
    Litmus {
        name: "Fig1".into(),
        about: "unsynchronised stack message passing: r2 ∈ {0, 5}".into(),
        prog: p.build(),
        observe: vec![(1, r2)],
        expected: ints(&[&[0], &[5]]),
    }
}

/// Figure 2 as a litmus test: publication via `push^R`/`pop^A` — `r2 = 5`.
pub fn fig2_stack_mp_sync() -> Litmus {
    let mut p = ProgramBuilder::new("Fig2");
    let d = p.client_var("d", 0);
    let s = p.stack("s");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(d, 5), push_rel(s, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([do_until(pop_acq(s, r1), eq(r1, 1)), rd(r2, d)]));
    Litmus {
        name: "Fig2".into(),
        about: "publication via a synchronising stack: r2 = 5".into(),
        prog: p.build(),
        observe: vec![(1, r2)],
        expected: ints(&[&[5]]),
    }
}

/// Message passing via the extension FIFO queue, synchronised
/// (`enq^R`/`deq^A`) — the Figure-2 pattern over the future-work ADT.
pub fn queue_mp_sync() -> Litmus {
    let mut p = ProgramBuilder::new("QueueMP+ra");
    let d = p.client_var("d", 0);
    let q = p.queue("q");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(d, 5), enq_rel(q, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([do_until(deq_acq(q, r1), eq(r1, 1)), rd(r2, d)]));
    Litmus {
        name: "QueueMP+ra".into(),
        about: "publication via a synchronising queue: r2 = 5".into(),
        prog: p.build(),
        observe: vec![(1, r2)],
        expected: ints(&[&[5]]),
    }
}

/// Message passing via the FIFO queue, unsynchronised — the stale read
/// survives, exactly as for the stack.
pub fn queue_mp_unsync() -> Litmus {
    let mut p = ProgramBuilder::new("QueueMP+rlx");
    let d = p.client_var("d", 0);
    let q = p.queue("q");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([wr(d, 5), enq(q, 1)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(t2, seq([do_until(deq(q, r1), eq(r1, 1)), rd(r2, d)]));
    Litmus {
        name: "QueueMP+rlx".into(),
        about: "unsynchronised queue message passing: r2 ∈ {0, 5}".into(),
        prog: p.build(),
        observe: vec![(1, r2)],
        expected: ints(&[&[0], &[5]]),
    }
}

/// FIFO vs LIFO, observably: one producer enqueues/pushes 1 then 2; the
/// consumer's first dequeue sees 1 (queue) — the stack litmus `Fig1`
/// family sees 2 first. This pins the ADT orderings apart.
pub fn queue_fifo_order() -> Litmus {
    let mut p = ProgramBuilder::new("QueueFIFO");
    let q = p.queue("q");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([enq(q, 1), enq(q, 2)]));
    let mut t2 = ThreadBuilder::new();
    let r1 = t2.reg("r1");
    let r2 = t2.reg("r2");
    p.add_thread(
        t2,
        seq([
            do_until(deq(q, r1), ne(r1, Val::Empty)),
            do_until(deq(q, r2), ne(r2, Val::Empty)),
        ]),
    );
    Litmus {
        name: "QueueFIFO".into(),
        about: "dequeues observe enqueue order".into(),
        prog: p.build(),
        observe: vec![(1, r1), (1, r2)],
        expected: ints(&[&[1, 2]]),
    }
}

/// Lock-based message passing: the Figure-7 pattern reduced to a litmus.
pub fn lock_mp() -> Litmus {
    let mut p = ProgramBuilder::new("LockMP");
    let d = p.client_var("d", 0);
    let l = p.lock("l");
    let t1 = ThreadBuilder::new();
    p.add_thread(t1, seq([acquire(l), wr(d, 5), release(l)]));
    let mut t2 = ThreadBuilder::new();
    let r = t2.reg("r");
    p.add_thread(t2, seq([acquire(l), rd(r, d), release(l)]));
    Litmus {
        name: "LockMP".into(),
        about: "lock hand-off publishes the protected write: r ∈ {0, 5}".into(),
        prog: p.build(),
        observe: vec![(1, r)],
        expected: ints(&[&[0], &[5]]),
    }
}

/// The whole gallery.
pub fn all() -> Vec<Litmus> {
    vec![
        mp_rlx(),
        mp_ra(),
        sb_ra(),
        lb_rlx(),
        corr(),
        cowr(),
        iriw_ra(),
        wrc_ra(),
        two_rmw(),
        fig1_stack_mp_unsync(),
        fig2_stack_mp_sync(),
        queue_mp_sync(),
        queue_mp_unsync(),
        queue_fifo_order(),
        lock_mp(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_litmus_verdict_is_exact() {
        for l in all() {
            let res = run(&l);
            assert!(
                res.pass,
                "{}: observed {:?} ≠ expected {:?}",
                l.name, res.observed, res.expected
            );
        }
    }

    #[test]
    fn gallery_is_nonempty_and_named_uniquely() {
        let tests = all();
        assert!(tests.len() >= 12);
        let mut names: Vec<_> = tests.iter().map(|l| l.name.clone()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tests.len());
    }
}
