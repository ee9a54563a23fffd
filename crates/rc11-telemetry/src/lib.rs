//! # rc11-telemetry — the exploration telemetry spine
//!
//! A zero-cost-when-disabled instrumentation layer for the rc11 engines,
//! request path, CLI, and daemon (DESIGN.md §9). The design contract:
//!
//! * **One branch when off.** The sink travels as
//!   `Option<Arc<Telemetry>>` on `ExploreOptions`; every instrumentation
//!   site is `if let Some(t) = … { t.add(…) }`. No sink, no atomics.
//! * **Relaxed, sharded counters when on.** Counters are monotone event
//!   tallies — nothing orders on them — so every increment is a single
//!   `Relaxed` RMW into one of [`SHARDS`] cache-line-padded banks picked
//!   by a per-thread hint. Reads ([`Telemetry::snapshot`]) sum the banks;
//!   the snapshot is a plain value type safe to ship over the wire.
//! * **Deltas, not resets.** One cumulative sink can back a whole batch
//!   run (the `--progress` heartbeat reads it live) while each engine run
//!   attaches only its own contribution via
//!   [`TelemetrySnapshot::delta`] — so `snapshot.states` matches the
//!   run's `EngineReport::states` exactly.
//!
//! The crate is std-only and dependency-free; JSON encoding lives next
//! to the wire format in `rc11-check`.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of cache-line-padded counter banks. Power of two; threads pick
/// a bank by a cheap per-thread hint, so concurrent workers rarely
/// contend on the same line.
pub const SHARDS: usize = 16;

/// Per-worker expansion slots. Worker indices at or above this clamp to
/// the last slot (the engines cap far below it).
pub const MAX_WORKER_SLOTS: usize = 64;

/// The structured event counters. Each is a monotone tally; see the
/// variant docs for the exact counting site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Distinct states committed to the visited structure (incl. the
    /// initial state).
    States = 0,
    /// Transitions taken (successors generated and processed).
    Transitions,
    /// Probes that hit an already-visited state (dedup hits).
    DupHits,
    /// Fingerprint bucket collisions confirmed by canonical comparison
    /// (distinct states sharing an Fp128).
    FpCollisions,
    /// Successors pruned by sleep sets (A5).
    SleepSetPrunes,
    /// Enabled threads shed by the persistent mask (A7 DPOR).
    PersistentSheds,
    /// Dedup hits that required a symmetry-orbit fold (A6): the probe
    /// matched only under a non-identity thread permutation.
    SymmetryFolds,
    /// Times a reduction degraded at a cap (POR >64 threads, DPOR
    /// location cap, symmetry orbit cap).
    CapDegradations,
    /// Batches of work shared between parallel workers. Always zero:
    /// the single-threaded exploration walk shares nothing. Kept under
    /// its wire name so existing traces and benches still read it.
    InjectorFlushes,
    /// Novel states a parallel worker kept to itself instead of sharing.
    /// Always zero, kept for the same reason as `InjectorFlushes`.
    KeepLocalRetained,
    /// States expanded (popped and successor-generated). Also tallied
    /// per worker slot (the exploration walk is slot 0); the slots sum
    /// to this counter.
    Expansions,
    /// Verdict-cache probes issued by the request path.
    CacheProbes,
    /// Verdict-cache probes that hit.
    CacheHits,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 13;

    /// Every counter, in wire order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::States,
        Counter::Transitions,
        Counter::DupHits,
        Counter::FpCollisions,
        Counter::SleepSetPrunes,
        Counter::PersistentSheds,
        Counter::SymmetryFolds,
        Counter::CapDegradations,
        Counter::InjectorFlushes,
        Counter::KeepLocalRetained,
        Counter::Expansions,
        Counter::CacheProbes,
        Counter::CacheHits,
    ];

    /// Stable snake_case name (wire key in snapshot JSON).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::States => "states",
            Counter::Transitions => "transitions",
            Counter::DupHits => "dup_hits",
            Counter::FpCollisions => "fp_collisions",
            Counter::SleepSetPrunes => "sleep_set_prunes",
            Counter::PersistentSheds => "persistent_sheds",
            Counter::SymmetryFolds => "symmetry_folds",
            Counter::CapDegradations => "cap_degradations",
            Counter::InjectorFlushes => "injector_flushes",
            Counter::KeepLocalRetained => "keep_local_retained",
            Counter::Expansions => "expansions",
            Counter::CacheProbes => "cache_probes",
            Counter::CacheHits => "cache_hits",
        }
    }

    /// Inverse of [`Counter::name`].
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Coarse request-path phases timed by the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// `.litmus` text → AST.
    Parse = 0,
    /// Canonicalisation of the compiled program.
    Canon,
    /// Canonical fingerprint computation.
    Fingerprint,
    /// Verdict-cache probe (memory + disk tiers).
    CacheProbe,
    /// State-space exploration proper.
    Explore,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 5;

    /// Every phase, in wire order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Parse,
        Phase::Canon,
        Phase::Fingerprint,
        Phase::CacheProbe,
        Phase::Explore,
    ];

    /// Stable snake_case name (wire key in snapshot JSON).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Canon => "canon",
            Phase::Fingerprint => "fingerprint",
            Phase::CacheProbe => "cache_probe",
            Phase::Explore => "explore",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// One cache-line-padded bank of counters.
#[repr(align(64))]
struct Bank {
    counters: [AtomicU64; Counter::COUNT],
}

impl Bank {
    fn new() -> Bank {
        Bank { counters: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

static NEXT_SHARD_HINT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread gets a stable bank index once, round-robin; `& (SHARDS-1)`
    /// keeps it in range without a modulo on the hot path.
    static SHARD_HINT: usize =
        NEXT_SHARD_HINT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

/// The telemetry sink: sharded relaxed counters, coarse phase timers, a
/// frontier-depth gauge, per-worker expansion slots, and a last-seen
/// visited-shard occupancy histogram.
///
/// Shared as `Arc<Telemetry>`; every method takes `&self` and is safe to
/// call from any thread. All counter traffic is `Ordering::Relaxed`:
/// counters are statistics, not synchronisation — the engines' own
/// joins/channels order the interesting events, and `snapshot()` taken
/// after a run joins its workers observes every increment.
pub struct Telemetry {
    banks: Vec<Bank>,
    phase_nanos: [AtomicU64; Phase::COUNT],
    worker_expansions: Vec<AtomicU64>,
    frontier: AtomicI64,
    frontier_peak: AtomicU64,
    shard_occupancy: Mutex<Vec<u64>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("snapshot", &self.snapshot()).finish()
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Fresh sink with all counters zero.
    pub fn new() -> Telemetry {
        Telemetry {
            banks: (0..SHARDS).map(|_| Bank::new()).collect(),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            worker_expansions: (0..MAX_WORKER_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            frontier: AtomicI64::new(0),
            frontier_peak: AtomicU64::new(0),
            shard_occupancy: Mutex::new(Vec::new()),
        }
    }

    /// Fresh shared sink — the shape everything downstream wants.
    pub fn shared() -> Arc<Telemetry> {
        Arc::new(Telemetry::new())
    }

    /// Add `n` to a counter (relaxed, into this thread's bank).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if n == 0 {
            return;
        }
        let shard = SHARD_HINT.with(|s| *s);
        self.banks[shard].counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        let shard = SHARD_HINT.with(|s| *s);
        self.banks[shard].counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` expansions by worker `worker` (clamped to
    /// [`MAX_WORKER_SLOTS`]). Tallies both the per-worker slot and the
    /// [`Counter::Expansions`] total, so slots always sum to the total.
    #[inline]
    pub fn add_expansions(&self, worker: usize, n: u64) {
        if n == 0 {
            return;
        }
        let slot = worker.min(MAX_WORKER_SLOTS - 1);
        self.worker_expansions[slot].fetch_add(n, Ordering::Relaxed);
        self.add(Counter::Expansions, n);
    }

    /// Add elapsed nanoseconds to a phase timer.
    #[inline]
    pub fn add_phase_nanos(&self, phase: Phase, nanos: u64) {
        self.phase_nanos[phase as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Time a closure under a phase.
    #[inline]
    pub fn time_phase<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add_phase_nanos(phase, start.elapsed().as_nanos() as u64);
        out
    }

    /// Raise the frontier-depth gauge by `n` (states pushed).
    #[inline]
    pub fn frontier_add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let now = self.frontier.fetch_add(n as i64, Ordering::Relaxed) + n as i64;
        self.frontier_peak.fetch_max(now.max(0) as u64, Ordering::Relaxed);
    }

    /// Lower the frontier-depth gauge by `n` (states popped).
    #[inline]
    pub fn frontier_sub(&self, n: u64) {
        if n != 0 {
            self.frontier.fetch_sub(n as i64, Ordering::Relaxed);
        }
    }

    /// Set the frontier-depth gauge to an absolute value (the sequential
    /// engine knows its exact frontier length at every item boundary).
    #[inline]
    pub fn frontier_set(&self, n: u64) {
        self.frontier.store(n as i64, Ordering::Relaxed);
        self.frontier_peak.fetch_max(n, Ordering::Relaxed);
    }

    /// Current frontier depth (clamped at 0: concurrent pushes/pops can
    /// transiently observe a negative raw value).
    pub fn frontier_depth(&self) -> u64 {
        self.frontier.load(Ordering::Relaxed).max(0) as u64
    }

    /// Replace the visited-shard occupancy histogram (entries per shard,
    /// recorded by a sharded visited store at end of run; the exploration
    /// walk's single map records none).
    pub fn record_shard_occupancy(&self, occupancy: &[usize]) {
        let mut slot = self.shard_occupancy.lock().unwrap();
        slot.clear();
        slot.extend(occupancy.iter().map(|&n| n as u64));
    }

    /// Sum one counter across all banks.
    pub fn get(&self, counter: Counter) -> u64 {
        self.banks
            .iter()
            .map(|b| b.counters[counter as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Materialise the current totals as a plain value.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters = [0u64; Counter::COUNT];
        for bank in &self.banks {
            for (i, c) in bank.counters.iter().enumerate() {
                counters[i] += c.load(Ordering::Relaxed);
            }
        }
        let phase_nanos = std::array::from_fn(|i| self.phase_nanos[i].load(Ordering::Relaxed));
        let mut worker_expansions: Vec<u64> = self
            .worker_expansions
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect();
        while worker_expansions.last() == Some(&0) {
            worker_expansions.pop();
        }
        TelemetrySnapshot {
            counters,
            phase_nanos,
            worker_expansions,
            shard_occupancy: self.shard_occupancy.lock().unwrap().clone(),
            frontier_depth: self.frontier_depth(),
            frontier_peak: self.frontier_peak.load(Ordering::Relaxed),
            served_from_cache: false,
        }
    }
}

/// A point-in-time copy of a [`Telemetry`] sink: plain data, cheap to
/// clone, comparable, and serializable (JSON encoding lives in
/// `rc11_check::telemetry`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Counter totals, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Phase timer totals in nanoseconds, indexed by `Phase as usize`.
    pub phase_nanos: [u64; Phase::COUNT],
    /// Per-worker expansion tallies (trailing zero slots trimmed).
    pub worker_expansions: Vec<u64>,
    /// Visited-store entries per shard at snapshot time (empty for the
    /// exploration walk's single map).
    pub shard_occupancy: Vec<u64>,
    /// Frontier depth at snapshot time (gauge, not delta'd).
    pub frontier_depth: u64,
    /// Peak frontier depth observed so far.
    pub frontier_peak: u64,
    /// True when this snapshot describes a verdict-cache hit rather
    /// than a fresh exploration.
    pub served_from_cache: bool,
}

impl TelemetrySnapshot {
    /// One counter's total.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// One phase timer's total, nanoseconds.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase as usize]
    }

    /// The contribution between `earlier` and `self`: counters, phase
    /// timers, and per-worker tallies subtract (saturating); gauges
    /// (frontier, shard occupancy) and `served_from_cache` keep `self`'s
    /// values. This is how a single cumulative sink shared across a
    /// batch run yields exact per-run snapshots.
    pub fn delta(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let counters = std::array::from_fn(|i| {
            self.counters[i].saturating_sub(earlier.counters[i])
        });
        let phase_nanos = std::array::from_fn(|i| {
            self.phase_nanos[i].saturating_sub(earlier.phase_nanos[i])
        });
        let n = self.worker_expansions.len().max(earlier.worker_expansions.len());
        let mut worker_expansions: Vec<u64> = (0..n)
            .map(|i| {
                let now = self.worker_expansions.get(i).copied().unwrap_or(0);
                let was = earlier.worker_expansions.get(i).copied().unwrap_or(0);
                now.saturating_sub(was)
            })
            .collect();
        while worker_expansions.last() == Some(&0) {
            worker_expansions.pop();
        }
        TelemetrySnapshot {
            counters,
            phase_nanos,
            worker_expansions,
            shard_occupancy: self.shard_occupancy.clone(),
            frontier_depth: self.frontier_depth,
            frontier_peak: self.frontier_peak,
            served_from_cache: self.served_from_cache,
        }
    }

    /// Sum of all phase timers, nanoseconds.
    pub fn total_phase_nanos(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }

    /// True when every counter, phase timer, and worker slot is zero.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.phase_nanos.iter().all(|&p| p == 0)
            && self.worker_expansions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let tel = Telemetry::shared();
        let mut handles = Vec::new();
        for w in 0..4 {
            let t = Arc::clone(&tel);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    t.incr(Counter::Transitions);
                }
                t.add(Counter::States, 7);
                t.add_expansions(w, 50);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = tel.snapshot();
        assert_eq!(snap.get(Counter::Transitions), 4000);
        assert_eq!(snap.get(Counter::States), 28);
        assert_eq!(snap.get(Counter::Expansions), 200);
        assert_eq!(snap.worker_expansions, vec![50, 50, 50, 50]);
        assert_eq!(
            snap.worker_expansions.iter().sum::<u64>(),
            snap.get(Counter::Expansions)
        );
    }

    #[test]
    fn delta_isolates_a_run() {
        let tel = Telemetry::new();
        tel.add(Counter::States, 10);
        tel.add_expansions(0, 4);
        tel.add_phase_nanos(Phase::Explore, 100);
        let t0 = tel.snapshot();
        tel.add(Counter::States, 5);
        tel.add_expansions(1, 3);
        tel.add_phase_nanos(Phase::Explore, 50);
        let d = tel.snapshot().delta(&t0);
        assert_eq!(d.get(Counter::States), 5);
        assert_eq!(d.phase(Phase::Explore), 50);
        assert_eq!(d.worker_expansions, vec![0, 3]);
        assert!(!d.served_from_cache);
    }

    #[test]
    fn frontier_gauge_tracks_depth_and_peak() {
        let tel = Telemetry::new();
        tel.frontier_add(5);
        tel.frontier_sub(2);
        tel.frontier_add(1);
        assert_eq!(tel.frontier_depth(), 4);
        let snap = tel.snapshot();
        assert_eq!(snap.frontier_depth, 4);
        assert!(snap.frontier_peak >= 5);
    }

    #[test]
    fn names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
    }

    #[test]
    fn occupancy_histogram_replaces() {
        let tel = Telemetry::new();
        tel.record_shard_occupancy(&[1, 2, 3]);
        tel.record_shard_occupancy(&[4, 5]);
        assert_eq!(tel.snapshot().shard_occupancy, vec![4, 5]);
    }

    #[test]
    fn zero_adds_are_free_of_effect() {
        let tel = Telemetry::new();
        tel.add(Counter::States, 0);
        tel.add_expansions(0, 0);
        tel.frontier_add(0);
        tel.frontier_sub(0);
        assert!(tel.snapshot().is_empty());
    }
}
