//! Property tests for [`ShardedFpMap`], the sharded visited store behind
//! the parallel engine, driven through its public insert path (the same
//! batched insert the engines use).
//!
//! Three guarantees under test, over generated inputs:
//!
//! 1. **Exactly-one-winner** — for any interleaved concurrent insert
//!    sequence, each distinct canonical state is reported new by exactly
//!    one caller, however many raw representations of it arrive (the
//!    double-checked write-lock re-validation);
//! 2. **Exact quiescent size** — after all inserters join, `len()` equals
//!    the number of distinct canonical states inserted (the racy-snapshot
//!    semantics collapse to exactness at quiescence);
//! 3. **Non-degenerate shard occupancy** — stride-aligned fingerprints
//!    still spread across shards through the avalanche-mixed shard index,
//!    instead of piling into the few shards a fixed bit-window index
//!    would select.

use proptest::prelude::*;
use rc11_check::parallel::{Masked, ShardedFpMap};
use rc11_check::Fp128;
use rc11_lang::builder::*;
use rc11_lang::compile;
use rc11_lang::machine::{successors, Config, NoObjects};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Every raw (non-canonical) successor of every reachable state of a
/// three-thread store-buffering cycle, paired with its canonical form:
/// many representations per canonical state, exactly what the engines
/// hand the store.
fn pool() -> &'static [(Config, Config)] {
    static POOL: OnceLock<Vec<(Config, Config)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut p = ProgramBuilder::new("sb3");
        let vars = [p.client_var("x", 0), p.client_var("y", 0), p.client_var("z", 0)];
        for t in 0..3 {
            let mut tb = ThreadBuilder::new();
            let r = tb.reg("r");
            p.add_thread(tb, seq([wr_rel(vars[t], 1), rd_acq(r, vars[(t + 1) % 3])]));
        }
        let prog = compile(&p.build());
        let init = Config::initial(&prog).canonical();
        let mut seen: HashSet<Config> = HashSet::from([init.clone()]);
        let mut frontier = vec![init];
        let mut raw = Vec::new();
        while let Some(cfg) = frontier.pop() {
            for (_, succ) in successors(&prog, &NoObjects, &cfg, Default::default()) {
                let canon = succ.canonical();
                if seen.insert(canon.clone()) {
                    frontier.push(canon.clone());
                }
                raw.push((succ, canon));
            }
        }
        raw
    })
}

/// The raw configurations picked by `picks` (indices into [`pool`]) and
/// the number of distinct canonical states among them.
fn picked(picks: &[usize]) -> (Vec<Config>, usize) {
    let pool = pool();
    let raw = picks.iter().map(|&i| pool[i % pool.len()].0.clone()).collect();
    let distinct: HashSet<&Config> = picks.iter().map(|&i| &pool[i % pool.len()].1).collect();
    (raw, distinct.len())
}

/// Interleave each thread differently over the shared input list so the
/// threads collide on the same states at the same time.
fn thread_order(values: &[Config], t: usize) -> Vec<Config> {
    let mut v = values.to_vec();
    let n = v.len().max(1);
    match t % 3 {
        0 => {}
        1 => v.reverse(),
        _ => v.rotate_left(t % n),
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Used as a set (unit values), any interleaved concurrent insert
    /// sequence elects exactly one winner per distinct canonical state,
    /// and the quiescent `len()` and shard occupancy are exact.
    #[test]
    fn set_concurrent_inserts_have_exactly_one_winner(
        picks in prop::collection::vec(0usize..4_096, 1..400),
        threads in 2usize..7,
        shard_bits in 0u32..7,
    ) {
        let (raw, distinct) = picked(&picks);
        let set: ShardedFpMap<Masked<()>> = ShardedFpMap::new(shard_bits, None);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (set, wins, order) = (&set, &wins, thread_order(&raw, t));
                scope.spawn(move || {
                    for cfg in order {
                        if set.insert(cfg, ()) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        prop_assert_eq!(wins.into_inner(), distinct, "one winner per distinct state");
        prop_assert_eq!(set.len(), distinct, "quiescent len() is exact");
        prop_assert!(!set.is_empty());
        let occupancy = set.shard_occupancy();
        prop_assert_eq!(occupancy.len(), 1usize << shard_bits);
        prop_assert_eq!(occupancy.iter().sum::<usize>(), distinct);
        for cfg in &raw {
            prop_assert!(set.contains_state(cfg), "every inserted state is present");
        }
    }

    /// Same law for the map, plus first-writer-wins on the value: the value
    /// stored for each state is the one supplied by the winning thread.
    #[test]
    fn map_concurrent_inserts_have_exactly_one_winner(
        picks in prop::collection::vec(0usize..2_048, 1..300),
        threads in 2usize..6,
        shard_bits in 0u32..6,
    ) {
        let (raw, distinct) = picked(&picks);
        let map: ShardedFpMap<Masked<usize>> = ShardedFpMap::new(shard_bits, None);
        let won: Vec<Vec<Config>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (map, order) = (&map, thread_order(&raw, t));
                    scope.spawn(move || {
                        order
                            .into_iter()
                            .filter(|cfg| map.insert(cfg.clone(), t))
                            .map(|cfg| cfg.canonical())
                            .collect::<Vec<Config>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("inserter panicked")).collect()
        });
        prop_assert_eq!(won.iter().map(Vec::len).sum::<usize>(), distinct, "one winner per state");
        prop_assert_eq!(map.len(), distinct, "quiescent len() is exact");
        for (t, canons) in won.iter().enumerate() {
            for canon in canons {
                let owner = map.get_cloned(canon).expect("won state present");
                prop_assert_eq!(*owner.value(), t, "stored value came from the winner");
            }
        }
    }

    /// Batched insertion obeys the same exactly-one-winner law when racing
    /// threads insert overlapping batches.
    #[test]
    fn map_concurrent_batch_inserts_have_exactly_one_winner(
        picks in prop::collection::vec(0usize..1_024, 1..200),
        threads in 2usize..6,
        batch in 1usize..48,
    ) {
        let (raw, distinct) = picked(&picks);
        let map: ShardedFpMap<Masked<usize>> = ShardedFpMap::new(4, None);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (map, wins, order) = (&map, &wins, thread_order(&raw, t));
                scope.spawn(move || {
                    for chunk in order.chunks(batch) {
                        let items: Vec<(Config, usize)> =
                            chunk.iter().map(|cfg| (cfg.clone(), t)).collect();
                        wins.fetch_add(map.insert_all(items).len(), Ordering::Relaxed);
                    }
                });
            }
        });
        prop_assert_eq!(wins.into_inner(), distinct, "one winner per distinct state");
        prop_assert_eq!(map.len(), distinct);
    }

    /// Stride-aligned fingerprints (constant low bits — the classic failure
    /// mode of masking a weak hash), in either fingerprint half, populate
    /// every shard once there are an order of magnitude more keys than
    /// shards.
    #[test]
    fn stride_aligned_keys_populate_every_shard(
        stride_log in 0u32..16,
        base in 0u64..1_024,
        shard_bits in 1u32..6,
        high_half in any::<bool>(),
    ) {
        let shards = 1usize << shard_bits;
        let n_keys = (shards * 64) as u64;
        let map: ShardedFpMap<Masked<()>> = ShardedFpMap::new(shard_bits, None);
        let mut occupancy = vec![0usize; shards];
        for i in 0..n_keys {
            let key = base + (i << stride_log);
            let fp = if high_half { Fp128 { hi: key, lo: 0 } } else { Fp128 { hi: 0, lo: key } };
            occupancy[map.shard_of(fp)] += 1;
        }
        let empty = occupancy.iter().filter(|&&n| n == 0).count();
        prop_assert_eq!(empty, 0, "no empty shard for stride 2^{}: {:?}", stride_log, occupancy);
        let max = *occupancy.iter().max().expect("non-empty");
        prop_assert!(
            max <= (n_keys as usize) * 3 / 4,
            "no shard may hold over three quarters of the keys: {:?}",
            occupancy
        );
    }
}
