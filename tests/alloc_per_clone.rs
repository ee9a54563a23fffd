//! Structural allocation check for the flat state layout: cloning a
//! configuration costs a fixed number of heap allocations, whatever the
//! length of its history. Thread views and both halves of every
//! operation's modification view live in one buffer per table, so a
//! longer history grows buffers, not their number.
//!
//! The count comes from a counting global allocator, which is why this
//! check is its own test binary: the allocator wraps `System` for the
//! whole process and must not count other tests' allocations.

use rc11::prelude::*;
use rc11_lang::machine::successors;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, counting calls to `alloc`.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// relaxed atomic with no effect on the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one `Config::clone`.
fn clone_allocs(cfg: &Config) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    let copy = cfg.clone();
    let after = ALLOCS.load(Ordering::Relaxed);
    drop(copy);
    after - before
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
}
