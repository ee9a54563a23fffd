//! The verdict cache behind the checking service: an in-memory LRU in
//! front of an optional checksummed disk spill.
//!
//! Entries are keyed on the [`Fp128`] fingerprint of a request's canonical
//! words (program + observation tuple + expected set + the semantic
//! exploration options — see `request::option_words`). Syntactically
//! different but canonically identical submissions therefore share one
//! entry, which is the point: for a checking service, "cache hit" must
//! mean "same check", not "same bytes".
//!
//! Soundness over speed, everywhere:
//!
//! * every entry stores its **full key words**, and a probe compares them
//!   before reporting a hit — a 128-bit fingerprint collision costs a
//!   miss, never a wrong verdict (the same confirm-on-hit discipline the
//!   engines apply to state fingerprints);
//! * only **`Complete`** verdicts are admitted: a budget-truncated run is
//!   a lower bound, not an answer, and caching it would serve wrong
//!   results to the next caller with a bigger budget;
//! * the disk spill is **write-through** (an insert is durable before it
//!   is served), one file per fingerprint, with a magic header, a format
//!   version and an FNV-1a checksum — a torn or stale file is detected
//!   and treated as a miss, and writes go through a temp file + rename so
//!   a crash mid-write can never corrupt an existing entry. A daemon
//!   killed hard (SIGKILL/SIGTERM) therefore restarts warm.
//!
//! The in-memory side is a stamp-based LRU: each hit refreshes the
//! entry's stamp and eviction removes the minimum-stamp entry. Eviction
//! only forgets the memory copy; the disk copy (when spilling is on)
//! still serves the next probe.

use crate::engine::{Note, StopReason};
use crate::fxhash::Fp128;
use rc11_core::Val;
use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// File magic: "RC11VRD" + format version digit.
const MAGIC: &[u8; 8] = b"RC11VRD1";

/// A cached check verdict — everything a response needs, so a hit never
/// re-explores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedVerdict {
    /// `observed == expected`, complete and deadlock-free.
    pub pass: bool,
    /// The observed outcome set.
    pub observed: BTreeSet<Vec<Val>>,
    /// States explored by the run that produced this verdict.
    pub states: usize,
    /// Transitions generated.
    pub transitions: usize,
    /// Deadlocked configurations found.
    pub deadlocks: usize,
    /// Why the run stopped (always [`StopReason::Complete`] — enforced on
    /// insert — but stored so responses round-trip bit-identically).
    pub stop: StopReason,
    /// Structured engine notes from the producing run.
    pub notes: Vec<Note>,
}

/// Which tier served a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-memory LRU.
    Mem,
    /// The disk spill (the entry was then promoted back into memory).
    Disk,
}

/// Running counters, readable while the cache is live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from memory.
    pub mem_hits: u64,
    /// Probes answered from disk.
    pub disk_hits: u64,
    /// Probes answered by neither tier.
    pub misses: u64,
    /// Verdicts admitted.
    pub inserts: u64,
    /// Memory entries evicted by the LRU.
    pub evictions: u64,
}

impl CacheStats {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Hit rate over all probes, 0.0 when no probe has happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

struct Entry {
    words: Vec<u64>,
    verdict: CachedVerdict,
    stamp: u64,
}

/// The cache. Not internally synchronised — the checking service wraps it
/// in a mutex (probes are microseconds; exploration is the slow path and
/// runs outside the lock).
pub struct VerdictCache {
    capacity: usize,
    dir: Option<PathBuf>,
    map: HashMap<Fp128, Entry>,
    clock: u64,
    stats: CacheStats,
}

impl VerdictCache {
    /// An in-memory-only cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> VerdictCache {
        VerdictCache {
            capacity: capacity.max(1),
            dir: None,
            map: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// A cache that additionally spills every insert to one file per
    /// fingerprint under `dir` (created if missing) and serves probes
    /// from disk after a restart or an eviction.
    pub fn with_disk(capacity: usize, dir: impl Into<PathBuf>) -> std::io::Result<VerdictCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut c = VerdictCache::new(capacity);
        c.dir = Some(dir);
        Ok(c)
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `fp`, confirming the full key words on any candidate.
    /// A disk hit is promoted into the memory tier.
    pub fn probe(&mut self, fp: Fp128, words: &[u64]) -> Option<(CachedVerdict, CacheTier)> {
        self.clock += 1;
        if let Some(e) = self.map.get_mut(&fp) {
            if e.words == words {
                e.stamp = self.clock;
                self.stats.mem_hits += 1;
                return Some((e.verdict.clone(), CacheTier::Mem));
            }
            // Fingerprint collision: the stored check is a different one.
            self.stats.misses += 1;
            return None;
        }
        if let Some(dir) = self.dir.clone() {
            if let Some(verdict) = load_entry(&dir, fp, words) {
                self.admit(fp, words.to_vec(), verdict.clone());
                self.stats.disk_hits += 1;
                return Some((verdict, CacheTier::Disk));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Admit a verdict. Only complete runs are cacheable; a non-complete
    /// verdict is ignored (the caller's budgets made it a lower bound, not
    /// an answer).
    pub fn insert(&mut self, fp: Fp128, words: Vec<u64>, verdict: CachedVerdict) {
        if !verdict.stop.is_complete() {
            return;
        }
        self.stats.inserts += 1;
        if let Some(dir) = &self.dir {
            // Write-through; a failed spill degrades durability, never
            // correctness, so it is deliberately non-fatal.
            let _ = store_entry(dir, fp, &words, &verdict);
        }
        self.admit(fp, words, verdict);
    }

    fn admit(&mut self, fp: Fp128, words: Vec<u64>, verdict: CachedVerdict) {
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&fp) {
            if let Some(&victim) =
                self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k)
            {
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(fp, Entry { words, verdict, stamp: self.clock });
    }
}

// ---------------------------------------------------------------------
// Disk format
// ---------------------------------------------------------------------

fn entry_path(dir: &Path, fp: Fp128) -> PathBuf {
    dir.join(format!("{:016x}{:016x}.rcv", fp.hi, fp.lo))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

fn val_words(v: &Val, out: &mut Vec<u64>) {
    match v {
        Val::Int(n) => {
            out.push(0);
            out.push(*n as u64);
        }
        Val::Bool(b) => {
            out.push(1);
            out.push(*b as u64);
        }
        Val::Empty => out.push(2),
        Val::Bot => out.push(3),
    }
}

fn str_words(s: &str, out: &mut Vec<u64>) {
    let bytes = s.as_bytes();
    out.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        out.push(u64::from_le_bytes(buf));
    }
}

fn verdict_words(v: &CachedVerdict, out: &mut Vec<u64>) {
    out.push(v.pass as u64);
    out.push(v.stop.as_u8() as u64);
    out.push(v.states as u64);
    out.push(v.transitions as u64);
    out.push(v.deadlocks as u64);
    out.push(v.observed.len() as u64);
    for tuple in &v.observed {
        out.push(tuple.len() as u64);
        for val in tuple {
            val_words(val, out);
        }
    }
    out.push(v.notes.len() as u64);
    for n in &v.notes {
        match n {
            Note::PorThreadCap { threads } => {
                out.push(0);
                out.push(*threads as u64);
            }
            Note::SymmetryOrbitCap { orbit } => {
                out.push(2);
                out.push(*orbit as u64);
            }
            Note::WorkerFault { message } => {
                out.push(3);
                str_words(message, out);
            }
            Note::CheckpointError { message } => {
                out.push(4);
                str_words(message, out);
            }
        }
    }
}

struct Cursor<'a> {
    words: &'a [u64],
    pos: usize,
}

impl Cursor<'_> {
    fn word(&mut self) -> Option<u64> {
        let w = self.words.get(self.pos).copied()?;
        self.pos += 1;
        Some(w)
    }

    fn val(&mut self) -> Option<Val> {
        Some(match self.word()? {
            0 => Val::Int(self.word()? as i64),
            1 => Val::Bool(self.word()? != 0),
            2 => Val::Empty,
            3 => Val::Bot,
            _ => return None,
        })
    }

    fn string(&mut self) -> Option<String> {
        let len = self.word()? as usize;
        // 1 MiB guard: a corrupt length must not trigger a huge allocation.
        if len > 1 << 20 {
            return None;
        }
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            let w = self.word()?.to_le_bytes();
            let take = (len - bytes.len()).min(8);
            bytes.extend_from_slice(&w[..take]);
        }
        String::from_utf8(bytes).ok()
    }

    fn verdict(&mut self) -> Option<CachedVerdict> {
        let pass = self.word()? != 0;
        let stop = StopReason::from_u8(self.word()? as u8);
        let states = self.word()? as usize;
        let transitions = self.word()? as usize;
        let deadlocks = self.word()? as usize;
        let n_observed = self.word()? as usize;
        let mut observed = BTreeSet::new();
        for _ in 0..n_observed {
            let len = self.word()? as usize;
            let mut tuple = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                tuple.push(self.val()?);
            }
            observed.insert(tuple);
        }
        let n_notes = self.word()? as usize;
        let mut notes = Vec::new();
        for _ in 0..n_notes {
            notes.push(match self.word()? {
                0 => Note::PorThreadCap { threads: self.word()? as usize },
                2 => Note::SymmetryOrbitCap { orbit: self.word()? as usize },
                3 => Note::WorkerFault { message: self.string()? },
                4 => Note::CheckpointError { message: self.string()? },
                _ => return None,
            });
        }
        Some(CachedVerdict { pass, observed, states, transitions, deadlocks, stop, notes })
    }
}

fn store_entry(
    dir: &Path,
    fp: Fp128,
    key_words: &[u64],
    verdict: &CachedVerdict,
) -> std::io::Result<()> {
    let mut payload: Vec<u64> = Vec::with_capacity(key_words.len() + 32);
    payload.push(key_words.len() as u64);
    payload.extend_from_slice(key_words);
    verdict_words(verdict, &mut payload);
    let mut bytes = Vec::with_capacity(8 * payload.len());
    for w in &payload {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let path = entry_path(dir, fp);
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(MAGIC)?;
        f.write_all(&fnv1a(&bytes).to_le_bytes())?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)
}

fn load_entry(dir: &Path, fp: Fp128, expect_words: &[u64]) -> Option<CachedVerdict> {
    let mut raw = Vec::new();
    std::fs::File::open(entry_path(dir, fp)).ok()?.read_to_end(&mut raw).ok()?;
    if raw.len() < 16 || &raw[..8] != MAGIC || raw.len() % 8 != 0 {
        return None;
    }
    let checksum = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    let body = &raw[16..];
    if fnv1a(body) != checksum {
        return None;
    }
    let words: Vec<u64> =
        body.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
    let mut cur = Cursor { words: &words, pos: 0 };
    let n_key = cur.word()? as usize;
    if n_key != expect_words.len() || words.get(1..1 + n_key)? != expect_words {
        return None;
    }
    cur.pos = 1 + n_key;
    let verdict = cur.verdict()?;
    // A stored verdict is complete by the insert invariant; a file that
    // claims otherwise is stale or forged — refuse it.
    verdict.stop.is_complete().then_some(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fp128 {
        Fp128 { hi: n, lo: !n }
    }

    fn verdict(states: usize) -> CachedVerdict {
        CachedVerdict {
            pass: true,
            observed: BTreeSet::from([vec![Val::Int(1), Val::Bool(false)], vec![Val::Empty]]),
            states,
            transitions: states * 2,
            deadlocks: 0,
            stop: StopReason::Complete,
            notes: vec![
                Note::WorkerFault { message: "contained: boom".into() },
                Note::SymmetryOrbitCap { orbit: 720 },
            ],
        }
    }

    #[test]
    fn memory_probe_confirms_key_words() {
        let mut c = VerdictCache::new(8);
        c.insert(fp(1), vec![1, 2, 3], verdict(10));
        assert_eq!(c.probe(fp(1), &[1, 2, 3]).map(|(v, t)| (v.states, t)), Some((10, CacheTier::Mem)));
        // Same fingerprint, different words: a collision is a miss.
        assert!(c.probe(fp(1), &[9, 9, 9]).is_none());
        assert_eq!(c.stats().mem_hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn non_complete_verdicts_are_refused() {
        let mut c = VerdictCache::new(8);
        let mut v = verdict(10);
        v.stop = StopReason::Deadline;
        c.insert(fp(1), vec![1], v);
        assert!(c.probe(fp(1), &[1]).is_none());
        assert_eq!(c.stats().inserts, 0);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut c = VerdictCache::new(2);
        c.insert(fp(1), vec![1], verdict(1));
        c.insert(fp(2), vec![2], verdict(2));
        assert!(c.probe(fp(1), &[1]).is_some()); // refresh 1; 2 is now stalest
        c.insert(fp(3), vec![3], verdict(3));
        assert_eq!(c.len(), 2);
        assert!(c.probe(fp(2), &[2]).is_none(), "the stale entry was evicted");
        assert!(c.probe(fp(1), &[1]).is_some());
        assert!(c.probe(fp(3), &[3]).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn disk_spill_survives_a_restart_and_detects_corruption() {
        let dir = std::env::temp_dir().join("rc11-cache-test-restart");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = VerdictCache::with_disk(8, &dir).unwrap();
            c.insert(fp(7), vec![4, 5], verdict(42));
        }
        // "Restart": a fresh cache over the same directory.
        let mut c = VerdictCache::with_disk(8, &dir).unwrap();
        let (v, tier) = c.probe(fp(7), &[4, 5]).expect("disk hit after restart");
        assert_eq!((v, tier), (verdict(42), CacheTier::Disk));
        // Promoted: the second probe is a memory hit.
        assert_eq!(c.probe(fp(7), &[4, 5]).unwrap().1, CacheTier::Mem);
        // Key-word mismatch on disk is a miss, not a wrong verdict.
        let mut c2 = VerdictCache::with_disk(8, &dir).unwrap();
        assert!(c2.probe(fp(7), &[4, 6]).is_none());
        // Flip a payload byte: the checksum must reject the file.
        let path = entry_path(&dir, fp(7));
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        let mut c3 = VerdictCache::with_disk(8, &dir).unwrap();
        assert!(c3.probe(fp(7), &[4, 5]).is_none(), "corrupt entry must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_keeps_the_disk_copy_serving() {
        let dir = std::env::temp_dir().join("rc11-cache-test-evict");
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = VerdictCache::with_disk(1, &dir).unwrap();
        c.insert(fp(1), vec![1], verdict(1));
        c.insert(fp(2), vec![2], verdict(2)); // evicts fp(1) from memory
        let (v, tier) = c.probe(fp(1), &[1]).expect("served from disk after eviction");
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(v.states, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
