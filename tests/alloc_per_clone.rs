//! Allocation checks for the flat state layout.
//!
//! * Cloning a configuration costs a small fixed number of heap
//!   allocations — one per buffer — whatever the length of its history,
//!   its thread count or its location count: each component state keeps
//!   its op records and one `u32` table (modification orders, ranks,
//!   covers and every view), and the control state keeps its pcs and
//!   register files in two flat buffers.
//! * Interning a state allocates nothing once the walk's scratch buffers
//!   have grown: its canonical permutations, symmetry choice and
//!   canonical encoding are written into reused buffers, fingerprinted,
//!   and copied into a word chunk with room; decoding a state back into a
//!   reused configuration allocates nothing either.
//! * Successors are generated into a reused pool: expanding every
//!   reachable `counter5` state through one pool allocates nothing once
//!   the pool has grown, and pooled successors equal freshly generated
//!   ones, in order.
//! * One `counter5` request (five ticket-lock clients, fully reduced)
//!   makes a bounded number of allocations per explored state: the walk
//!   generates successors into its pool and reuses scratch buffers for
//!   everything else it does per state, so what remains is the store's
//!   growth, the request's own set-up and the reported terminal states.
//! * The `.litmus` front end allocates only what the parsed test keeps:
//!   tokens borrow the source, so parsing a corpus file, and a warm
//!   request that parses it and is answered from the verdict cache, stay
//!   under a per-file allocation bar.
//!
//! The counts come from a counting global allocator, which is why these
//! checks are their own test binary. The counter is thread-local, so
//! tests running concurrently on other threads do not disturb it.

use rc11::check::{fingerprint, CheckParams, CheckService, Served, VerdictCache};
use rc11::prelude::*;
use rc11_lang::machine::{
    successors, thread_successors, thread_successors_into, SuccessorPool,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

/// `System`, counting calls to `alloc` and `realloc` on the calling
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// never allocates and has no effect on the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations one `Config::clone` may make: two buffers per
/// component state plus two for the control state.
const MAX_CLONE_ALLOCS: usize = 6;

/// The most allocations one `counter5` request may make per explored
/// state (3.0 measured; 23.8 when every successor was a fresh copy and
/// orbit members were decoded from their encodings).
const MAX_REQUEST_ALLOCS_PER_STATE: f64 = 6.0;

/// The most allocations `parse_litmus` may make per corpus file, on
/// average (55.7 measured; 157.9 with owned `String` tokens).
const MAX_PARSE_ALLOCS_PER_FILE: f64 = 80.0;

/// The most allocations a warm `check_source` (parse, canonical words,
/// memory hit) may make per corpus file, on average (85.0 measured; 187.2
/// with owned `String` tokens).
const MAX_WARM_REQUEST_ALLOCS_PER_FILE: f64 = 93.0;

/// Allocations made by one `Config::clone`.
fn clone_allocs(cfg: &Config) -> usize {
    let before = allocs();
    let copy = cfg.clone();
    let after = allocs();
    drop(copy);
    after - before
}

/// Follow the first successor of the lowest-numbered thread that has one,
/// for up to `steps` steps.
fn run_first(
    prog: &CfgProgram,
    objs: &dyn rc11_lang::machine::ObjectSemantics,
    steps: usize,
) -> Config {
    let mut cfg = Config::initial(prog);
    for _ in 0..steps {
        match successors(prog, objs, &cfg, StepOptions::default()).into_iter().next() {
            Some((_, next)) => cfg = next,
            None => break,
        }
    }
    cfg
}

/// The ticket-lock counter client with `n` threads, and its observed
/// registers.
fn counter(n: usize) -> (Program, Vec<(usize, Reg)>) {
    let (client, lock) = rc11::refine::harness::counter_client(n);
    let prog = instantiate(&client, lock, &rc11::locks::ticket());
    (prog, (0..n).map(|t| (t, Reg(0))).collect())
}

/// Every ordering of `0..n`: the counter client's outcome set (each thread
/// reads a distinct value under mutual exclusion).
fn permutations(n: usize) -> BTreeSet<Vec<Val>> {
    fn go(prefix: &mut Vec<Val>, n: usize, out: &mut BTreeSet<Vec<Val>>) {
        if prefix.len() == n {
            out.insert(prefix.clone());
            return;
        }
        for v in 0..n as i64 {
            if !prefix.contains(&Val::Int(v)) {
                prefix.push(Val::Int(v));
                go(prefix, n, out);
                prefix.pop();
            }
        }
    }
    let mut out = BTreeSet::new();
    go(&mut Vec::new(), n, &mut out);
    out
}

#[test]
fn config_clone_allocations_do_not_grow_with_history() {
    // Two threads on a client variable and a library lock, each writing
    // the variable twice in each of five critical sections: both
    // components' histories grow by 20 operations.
    let mut p = ProgramBuilder::new("history");
    let x = p.client_var("x", 0);
    let l = p.lock("l");
    for _ in 0..2 {
        let steps = (0..5).flat_map(|i| [acquire(l), wr(x, i), wr(x, i + 10), release(l)]);
        p.add_thread(ThreadBuilder::new(), seq(steps));
    }
    let prog = compile(&p.build());
    let init = Config::initial(&prog);

    // Run thread 0 to completion, then thread 1.
    let mut cfg = init.clone();
    for t in 0..2 {
        while let Some((_, next)) =
            successors(&prog, &AbstractObjects, &cfg, StepOptions::default())
                .into_iter()
                .find(|(tid, _)| tid.idx() == t)
        {
            cfg = next;
        }
    }
    assert_eq!(cfg.mem.client().n_ops(), init.mem.client().n_ops() + 20);
    assert_eq!(cfg.mem.lib().n_ops(), init.mem.lib().n_ops() + 20);

    let (short, long) = (clone_allocs(&init), clone_allocs(&cfg));
    assert!(short > 0, "the counter must see the clone");
    assert_eq!(short, long, "a longer history must not add allocations per clone");
    assert!(long <= MAX_CLONE_ALLOCS, "{long} allocations per clone");
}

/// The clone cost is the same small constant on a 2-thread program, the
/// 5-thread ticket-lock counter and the 4-thread TTAS spinlock, however
/// many threads, locations and operations each holds.
#[test]
fn config_clone_allocations_do_not_grow_with_threads_or_locations() {
    let mut p = ProgramBuilder::new("pair");
    let x = p.client_var("x", 0);
    for i in 0..2 {
        p.add_thread(ThreadBuilder::new(), seq([wr(x, i + 1)]));
    }
    let pair = compile(&p.build());
    let counter5 = compile(&counter(5).0);
    let ttas4 =
        compile(&parse_litmus(include_str!("../corpus/ttas4.litmus")).expect("corpus parses").prog);

    for (name, prog) in [("pair", &pair), ("counter5", &counter5), ("ttas4", &ttas4)] {
        let counts: Vec<usize> =
            [0, 12].iter().map(|&steps| clone_allocs(&run_first(prog, &AbstractObjects, steps))).collect();
        println!("{name}: {counts:?} allocations per clone (initial, after 12 steps)");
        assert!(counts[0] > 0, "{name}: the counter must see the clone");
        assert_eq!(counts[0], counts[1], "{name}: a longer history must not add allocations");
        assert!(counts[0] <= MAX_CLONE_ALLOCS, "{name}: {} allocations per clone", counts[0]);
    }
}

/// Interning a state — canonical permutations, symmetry choice, encoding,
/// fingerprint, and the copy into a chunk with room — and decoding one
/// back into a reused configuration make no allocation once the scratch
/// buffers have grown to the largest state, on every successor of every
/// state the reduced `counter5` walk interns.
#[test]
fn interning_and_decoding_a_state_allocate_nothing() {
    let prog = compile(&counter(5).0);
    let spec = rc11::analyze::thread_symmetry(&prog);
    assert!(!spec.is_trivial(), "counter5's clients are symmetric");
    let mut raw: Vec<Config> = Vec::new();
    Engine::Sequential.explore_with(&prog, &AbstractObjects, &ExploreOptions::default(), |c, _| {
        let succs = successors(&prog, &AbstractObjects, c, StepOptions::default());
        raw.extend(succs.into_iter().map(|(_, s)| s));
    });
    let (mut perms, mut words) = (rc11::core::CanonPerms::default(), Vec::new());
    let mut intern = |cfg: &Config, arena: &mut Vec<u32>| {
        cfg.mem.canonical_perms_into(&mut perms);
        spec.choose_into(cfg, &mut perms);
        words.clear();
        cfg.encode_canonical(&perms, Some(spec.maps()), &mut words);
        std::hint::black_box(fingerprint(&words));
        arena.extend_from_slice(&words);
    };
    // Warm-up pass: grow the scratch buffers, size the chunk and record
    // where each encoding starts.
    let mut arena = Vec::new();
    let mut starts = vec![0];
    for c in &raw {
        intern(c, &mut arena);
        starts.push(arena.len());
    }
    let mut chunk = Vec::with_capacity(arena.len());
    let before = allocs();
    for c in &raw {
        intern(c, &mut chunk);
    }
    assert_eq!(allocs() - before, 0, "interning {} states allocated", raw.len());
    assert_eq!(chunk, arena);

    let mut scratch = raw[0].clone();
    for pass in 0..2 {
        let before = allocs();
        for span in starts.windows(2) {
            scratch.decode_into(&arena[span[0]..span[1]]);
        }
        if pass == 1 {
            assert_eq!(allocs() - before, 0, "decoding {} states allocated", raw.len());
        }
    }
}

/// Every state a state query on `prog` visits: each interned canonical
/// configuration and, under symmetry, every other member of its orbit.
fn reachable(prog: &CfgProgram) -> Vec<Config> {
    let mut states = Vec::new();
    let opts = ExploreOptions::default();
    let report = Engine::Sequential.explore_with(prog, &AbstractObjects, &opts, |c, _| {
        states.push(c.clone());
    });
    assert!(report.stop.is_complete());
    states
}

/// The ticket-lock `counter5` client and the TTAS spinlock `ttas4`,
/// compiled.
fn counter5_and_ttas4() -> [(&'static str, CfgProgram); 2] {
    let ttas4 =
        compile(&parse_litmus(include_str!("../corpus/ttas4.litmus")).expect("corpus parses").prog);
    [("counter5", compile(&counter(5).0)), ("ttas4", ttas4)]
}

/// A pooled successor is its slot refilled from the parent and stepped in
/// place; whatever the slot held before, the result equals a freshly
/// generated successor, in the same order, on every reachable state.
#[test]
fn pooled_successors_equal_fresh_ones() {
    for (name, prog) in counter5_and_ttas4() {
        let (mut pool, step) = (SuccessorPool::default(), StepOptions::default());
        let mut compared = 0;
        for cfg in &reachable(&prog) {
            for t in 0..prog.n_threads() {
                thread_successors_into(&prog, &AbstractObjects, cfg, t, step, &mut pool);
                let fresh = thread_successors(&prog, &AbstractObjects, cfg, t, step);
                assert_eq!(&pool[..], &fresh[..], "{name}: thread {t} at {cfg:?}");
                compared += fresh.len();
            }
        }
        println!("{name}: {compared} pooled successors compared");
        assert!(compared > 1_000, "{name}: {compared} successors");
    }
}

/// Expanding every reachable `counter5` state through one pool allocates
/// only while the pool grows: a second pass over the same states, once
/// every slot has grown to the largest successor it holds, allocates
/// nothing.
#[test]
fn expanding_through_the_pool_allocates_nothing_once_grown() {
    let prog = compile(&counter(5).0);
    let states = reachable(&prog);
    let (mut pool, step) = (SuccessorPool::default(), StepOptions::default());
    let mut made = Vec::new();
    for _ in 0..2 {
        let before = allocs();
        for cfg in &states {
            for t in 0..prog.n_threads() {
                thread_successors_into(&prog, &AbstractObjects, cfg, t, step, &mut pool);
            }
        }
        made.push(allocs() - before);
    }
    let n = states.len();
    println!("counter5: {made:?} allocations expanding {n} states (first pass, second)");
    assert!(made[0] > 0, "the counter must see the pool grow");
    assert_eq!(made[1], 0, "a grown pool allocated");
}

/// One fully reduced `counter5` request, as the deep benchmark issues it
/// (no cache), stays under the per-state allocation bound.
#[test]
fn counter5_request_allocations_per_state_are_bounded() {
    let (prog, observe) = counter(5);
    let known = permutations(5);
    let params = CheckParams { use_cache: false, ..CheckParams::default() };
    let svc = CheckService::new();
    let before = allocs();
    let r = svc.check_parts("counter5", &prog, &observe, &known, &params);
    let made = allocs() - before;
    assert!(r.pass, "counter5 verdict: {:?}", r.observed);
    let per_state = made as f64 / r.states as f64;
    println!(
        "counter5: {made} allocations over {} states ({per_state:.1} per state, {} transitions)",
        r.states, r.transitions
    );
    assert!(
        per_state <= MAX_REQUEST_ALLOCS_PER_STATE,
        "{per_state:.1} allocations per state (bound {MAX_REQUEST_ALLOCS_PER_STATE})"
    );
}

/// Every corpus source, read before any counting starts.
fn corpus_sources() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("corpus file");
            (p.display().to_string(), src)
        })
        .collect()
}

/// Parsing a corpus file, and a warm request for it, allocate little more
/// than the parsed test stores: names, the program tree, the outcome set
/// and the canonical words.
#[test]
fn front_end_allocations_per_corpus_file_are_bounded() {
    let sources = corpus_sources();
    assert_eq!(sources.len(), 58, "the corpus has 58 files");
    let mut parse_allocs = 0;
    for (path, src) in &sources {
        let before = allocs();
        let parsed = parse_litmus(src);
        parse_allocs += allocs() - before;
        parsed.unwrap_or_else(|e| panic!("{path}: {e}"));
    }

    let params = CheckParams::default();
    let svc = CheckService::with_cache(VerdictCache::new(4096));
    for (path, src) in &sources {
        svc.check_source(src, &params).unwrap_or_else(|e| panic!("{path}: {e}"));
    }
    let mut warm_allocs = 0;
    for (path, src) in &sources {
        let before = allocs();
        let r = svc.check_source(src, &params);
        warm_allocs += allocs() - before;
        let r = r.unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(r.served, Served::MemCache, "{path}: a resubmission is a memory hit");
    }

    let n = sources.len() as f64;
    let (parse, warm) = (parse_allocs as f64 / n, warm_allocs as f64 / n);
    println!("front end: {parse:.1} allocations per parse, {warm:.1} per warm request");
    assert!(
        parse <= MAX_PARSE_ALLOCS_PER_FILE,
        "{parse:.1} allocations per parse (bound {MAX_PARSE_ALLOCS_PER_FILE})"
    );
    assert!(
        warm <= MAX_WARM_REQUEST_ALLOCS_PER_FILE,
        "{warm:.1} allocations per warm request (bound {MAX_WARM_REQUEST_ALLOCS_PER_FILE})"
    );
}
