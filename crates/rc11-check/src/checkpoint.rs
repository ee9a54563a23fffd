//! Checkpoint/resume for the sequential explorer — the stepping stone to
//! disk spill and a long-running checking daemon.
//!
//! ## Format: a structural replay log
//!
//! A checkpoint does **not** serialise configurations (their memory states
//! are deep, pointer-free but private structures); it records the
//! *discovery log* of the deterministic sequential explorer instead:
//!
//! * per interned node: the first-discovery edge `(parent id, tid,
//!   successor index)` plus the node's current explored-thread mask;
//! * the frontier stack, verbatim (`(id, mask, sleep, first)` items);
//! * the running counters (transitions, approximate arena bytes);
//! * terminal/deadlock/violation references **by node id** (violations
//!   additionally carry their message and, under symmetry, the orbit
//!   permutation of the violating member).
//!
//! Because the sequential explorer is deterministic, resuming replays the
//! discovery edges through `thread_successors` + the unchanged
//! probe/commit path and rebuilds the arena, index and report
//! **bit-identically**, then continues the main loop from the restored
//! frontier — a resumed run's final report equals an uninterrupted run's
//! exactly (enforced by `tests/resilience.rs` and the chaos fuzz lane).
//! Replay costs one `thread_successors` call per node — far cheaper than
//! exploration, which expands every thread of every node.
//!
//! A header binds the checkpoint to the program and the semantic options
//! (the reduction level/record_traces/step/max_states): a stale or foreign
//! checkpoint is ignored and the run starts fresh with a
//! `Note::CheckpointError`. Budgets are deliberately *not* part of the
//! signature — resuming a deadline-stopped run without the deadline is the
//! point. Writes go to a temp file then rename (atomic on POSIX), the
//! whole file is checksummed, and the file is deleted when a run
//! completes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where and how often the sequential explorer checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOpts {
    /// Directory the checkpoint file (`rc11.ckpt`) lives in (created if
    /// missing).
    pub dir: PathBuf,
    /// Save every this-many expanded work items (≥ 1; default 1024).
    pub every: usize,
}

impl CheckpointOpts {
    /// Checkpoint into `dir` with the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointOpts {
        CheckpointOpts { dir: dir.into(), every: 1024 }
    }
}

const MAGIC: &[u8; 8] = b"RC11CKP1";

/// One interned node's discovery record. The root (id 0) has
/// `parent == u32::MAX`.
pub(crate) struct NodeRec {
    pub parent: u32,
    pub tid: u8,
    /// Index of the committing successor within
    /// `thread_successors(parent, tid)` — the replay key.
    pub succ_idx: u32,
    /// The node's explored-thread mask *at checkpoint time* (it evolves
    /// via the POR wake-up rule after discovery).
    pub explored: u64,
}

/// One recorded violation: message, violating node, and — for an orbit
/// member under symmetry — the permutation producing the member from the
/// interned representative (`None` = the representative itself).
pub(crate) struct ViolationRec {
    pub what: String,
    pub node: u32,
    pub pi: Option<Vec<u8>>,
}

/// Everything a resume needs, in discovery order.
pub(crate) struct CheckpointData {
    pub transitions: u64,
    pub mem_bytes: u64,
    pub nodes: Vec<NodeRec>,
    /// Frontier stack, bottom first: `(id, mask, sleep, first)`.
    pub frontier: Vec<(u32, u64, u64, bool)>,
    pub terminated: Vec<u32>,
    pub deadlocked: Vec<u32>,
    pub violations: Vec<ViolationRec>,
}

pub(crate) fn file_path(dir: &Path) -> PathBuf {
    dir.join("rc11.ckpt")
}

fn checksum(bytes: &[u8]) -> u64 {
    // FNV-1a: cheap, order-sensitive, good enough to catch truncation.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Enc(Vec<u8>);

impl Enc {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u8(&mut self) -> Option<u8> {
        Some(*self.take(1)?.first()?)
    }
    fn len(&mut self, cap: usize) -> Option<usize> {
        let n = self.u64()? as usize;
        (n <= cap).then_some(n)
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.len(self.buf.len())?;
        self.take(n)
    }
}

/// Serialise and atomically write a checkpoint bound to `sig`.
pub(crate) fn save(dir: &Path, sig: u64, data: &CheckpointData) -> io::Result<()> {
    let mut e = Enc(Vec::with_capacity(64 + data.nodes.len() * 17));
    e.0.extend_from_slice(MAGIC);
    e.u64(sig);
    e.u64(data.transitions);
    e.u64(data.mem_bytes);
    e.u64(data.nodes.len() as u64);
    for n in &data.nodes {
        e.u32(n.parent);
        e.u8(n.tid);
        e.u32(n.succ_idx);
        e.u64(n.explored);
    }
    e.u64(data.frontier.len() as u64);
    for &(id, mask, sleep, first) in &data.frontier {
        e.u32(id);
        e.u64(mask);
        e.u64(sleep);
        e.u8(first as u8);
    }
    for ids in [&data.terminated, &data.deadlocked] {
        e.u64(ids.len() as u64);
        for &id in ids {
            e.u32(id);
        }
    }
    e.u64(data.violations.len() as u64);
    for v in &data.violations {
        e.u32(v.node);
        e.bytes(v.what.as_bytes());
        match &v.pi {
            Some(pi) => {
                e.u8(1);
                e.bytes(pi);
            }
            None => e.u8(0),
        }
    }
    let sum = checksum(&e.0);
    e.u64(sum);

    fs::create_dir_all(dir)?;
    let tmp = dir.join("rc11.ckpt.tmp");
    fs::write(&tmp, &e.0)?;
    fs::rename(&tmp, file_path(dir))
}

/// Load and decode a checkpoint from `dir`; `None` when there is none, it
/// is corrupt, or it was written for a different program/options
/// signature.
pub(crate) fn load(dir: &Path, sig: u64) -> Option<CheckpointData> {
    let buf = fs::read(file_path(dir)).ok()?;
    if buf.len() < MAGIC.len() + 8 || &buf[..MAGIC.len()] != MAGIC {
        return None;
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    if checksum(body) != u64::from_le_bytes(tail.try_into().ok()?) {
        return None;
    }
    let mut d = Dec { buf: body, pos: MAGIC.len() };
    if d.u64()? != sig {
        return None;
    }
    let transitions = d.u64()?;
    let mem_bytes = d.u64()?;
    let n_nodes = d.len(1 << 32)?;
    let mut nodes = Vec::with_capacity(n_nodes.min(1 << 20));
    for _ in 0..n_nodes {
        nodes.push(NodeRec {
            parent: d.u32()?,
            tid: d.u8()?,
            succ_idx: d.u32()?,
            explored: d.u64()?,
        });
    }
    let n_frontier = d.len(1 << 32)?;
    let mut frontier = Vec::with_capacity(n_frontier.min(1 << 20));
    for _ in 0..n_frontier {
        frontier.push((d.u32()?, d.u64()?, d.u64()?, d.u8()? != 0));
    }
    let mut sets = [Vec::new(), Vec::new()];
    for set in &mut sets {
        let n = d.len(1 << 32)?;
        for _ in 0..n {
            set.push(d.u32()?);
        }
    }
    let [terminated, deadlocked] = sets;
    let n_viol = d.len(1 << 32)?;
    let mut violations = Vec::with_capacity(n_viol.min(1 << 16));
    for _ in 0..n_viol {
        let node = d.u32()?;
        let what = String::from_utf8(d.bytes()?.to_vec()).ok()?;
        let pi = match d.u8()? {
            0 => None,
            _ => Some(d.bytes()?.to_vec()),
        };
        violations.push(ViolationRec { what, node, pi });
    }
    (d.pos == body.len()).then_some(CheckpointData {
        transitions,
        mem_bytes,
        nodes,
        frontier,
        terminated,
        deadlocked,
        violations,
    })
}

/// Delete the checkpoint file, ignoring absence.
pub(crate) fn remove(dir: &Path) {
    let _ = fs::remove_file(file_path(dir));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        CheckpointData {
            transitions: 42,
            mem_bytes: 4096,
            nodes: vec![
                NodeRec { parent: u32::MAX, tid: 0, succ_idx: 0, explored: 0b11 },
                NodeRec { parent: 0, tid: 1, succ_idx: 2, explored: 0b01 },
            ],
            frontier: vec![(1, 0b11, 0, true), (0, 0b10, 0b01, false)],
            terminated: vec![1],
            deadlocked: vec![],
            violations: vec![
                ViolationRec { what: "inv".into(), node: 1, pi: None },
                ViolationRec { what: "orbit".into(), node: 1, pi: Some(vec![1, 0]) },
            ],
        }
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("rc11-ckpt-rt-{}", std::process::id()));
        let data = sample();
        save(&dir, 0xABCD, &data).unwrap();
        let back = load(&dir, 0xABCD).expect("round trip");
        assert_eq!(back.transitions, 42);
        assert_eq!(back.mem_bytes, 4096);
        assert_eq!(back.nodes.len(), 2);
        assert_eq!(back.nodes[1].succ_idx, 2);
        assert_eq!(back.frontier, data.frontier);
        assert_eq!(back.terminated, vec![1]);
        assert_eq!(back.violations.len(), 2);
        assert_eq!(back.violations[1].pi.as_deref(), Some(&[1u8, 0][..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_signature_and_corruption_are_rejected() {
        let dir = std::env::temp_dir().join(format!("rc11-ckpt-bad-{}", std::process::id()));
        save(&dir, 7, &sample()).unwrap();
        assert!(load(&dir, 8).is_none(), "foreign signature must be ignored");
        // Flip a byte in the middle: the checksum must catch it.
        let p = file_path(&dir);
        let mut bytes = fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&p, &bytes).unwrap();
        assert!(load(&dir, 7).is_none(), "corruption must be detected");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let dir = std::env::temp_dir().join("rc11-ckpt-definitely-missing");
        assert!(load(&dir, 0).is_none());
    }
}
