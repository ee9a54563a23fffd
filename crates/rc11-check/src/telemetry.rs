//! Telemetry wire encoding and run-trace export (DESIGN.md §9).
//!
//! Three layers live here, all built on the daemon's [`crate::wire`]
//! JSON so every byte that leaves the process re-parses through one
//! code path:
//!
//! * [`snapshot_json`]/[`snapshot_from_json`] — the
//!   [`TelemetrySnapshot`] wire form. Counter and phase keys are the
//!   stable snake_case names from [`Counter::name`]/[`Phase::name`];
//!   unknown keys are ignored on read so old readers survive new
//!   counters.
//! * [`TraceWriter`] — the `rc11 run --trace FILE.jsonl` stream: one
//!   JSON object per line, every line carrying `"event"` (kind) and
//!   `"ms"` (elapsed milliseconds since the writer was created,
//!   clamped monotone non-decreasing). Event kinds: `run-start`,
//!   `heartbeat`, `file`, `note`, `stop`.
//! * [`read_trace`] — the `rc11 trace-report` side: strict per-line
//!   validation (parses through [`crate::wire::parse_json`], required
//!   keys present, timestamps monotone) plus aggregation into a
//!   [`TraceStats`] with per-phase and per-reduction attribution.

use crate::request::CheckResponse;
use crate::wire::{obj, parse_json, Json};
use rc11_telemetry::{Counter, Phase, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

fn int(n: u64) -> Json {
    Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// Encode a snapshot as a JSON object. Every counter and phase is
/// present (zeros included) so the schema is fixed per build.
pub fn snapshot_json(snap: &TelemetrySnapshot) -> Json {
    let counters =
        Json::Obj(Counter::ALL.iter().map(|&c| (c.name().to_string(), int(snap.get(c)))).collect());
    let phases =
        Json::Obj(Phase::ALL.iter().map(|&p| (p.name().to_string(), int(snap.phase(p)))).collect());
    obj(vec![
        ("counters", counters),
        ("phases_ns", phases),
        ("worker_expansions", Json::Arr(snap.worker_expansions.iter().map(|&n| int(n)).collect())),
        ("shard_occupancy", Json::Arr(snap.shard_occupancy.iter().map(|&n| int(n)).collect())),
        ("frontier_depth", int(snap.frontier_depth)),
        ("frontier_peak", int(snap.frontier_peak)),
        ("served_from_cache", Json::Bool(snap.served_from_cache)),
    ])
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_i64).map(|n| n.max(0) as u64).unwrap_or(0)
}

fn u64_arr(v: &Json, key: &str) -> Vec<u64> {
    v.get(key)
        .and_then(Json::as_arr)
        .map(|items| items.iter().map(|j| j.as_i64().map(|n| n.max(0) as u64).unwrap_or(0)).collect())
        .unwrap_or_default()
}

/// Decode a snapshot produced by [`snapshot_json`]. Missing counters or
/// phases read as zero; unknown keys are skipped. `None` only when the
/// value is not an object.
pub fn snapshot_from_json(v: &Json) -> Option<TelemetrySnapshot> {
    if !matches!(v, Json::Obj(_)) {
        return None;
    }
    let mut snap = TelemetrySnapshot::default();
    if let Some(Json::Obj(fields)) = v.get("counters") {
        for (k, val) in fields {
            if let (Some(c), Some(n)) = (Counter::from_name(k), val.as_i64()) {
                snap.counters[c as usize] = n.max(0) as u64;
            }
        }
    }
    if let Some(Json::Obj(fields)) = v.get("phases_ns") {
        for (k, val) in fields {
            if let (Some(p), Some(n)) = (Phase::from_name(k), val.as_i64()) {
                snap.phase_nanos[p as usize] = n.max(0) as u64;
            }
        }
    }
    snap.worker_expansions = u64_arr(v, "worker_expansions");
    snap.shard_occupancy = u64_arr(v, "shard_occupancy");
    snap.frontier_depth = u64_field(v, "frontier_depth");
    snap.frontier_peak = u64_field(v, "frontier_peak");
    snap.served_from_cache = v.get("served_from_cache").and_then(Json::as_bool).unwrap_or(false);
    Some(snap)
}

/// Streaming JSONL trace writer. Each event is one line, flushed
/// immediately so a killed run leaves a readable prefix. Timestamps are
/// elapsed milliseconds since construction and never go backwards.
pub struct TraceWriter<W: Write> {
    out: W,
    start: Instant,
    last_ms: u64,
    lines: u64,
}

impl<W: Write> TraceWriter<W> {
    /// A writer clocking from "now". Emits nothing until the first event.
    pub fn new(out: W) -> TraceWriter<W> {
        TraceWriter { out, start: Instant::now(), last_ms: 0, lines: 0 }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Release the underlying writer (every event is already flushed).
    pub fn into_inner(self) -> W {
        self.out
    }

    fn now_ms(&mut self) -> u64 {
        let ms = self.start.elapsed().as_millis() as u64;
        self.last_ms = self.last_ms.max(ms);
        self.last_ms
    }

    /// Emit one event line. `"event"` and `"ms"` are prepended; the
    /// caller's fields follow in order.
    pub fn event(&mut self, kind: &str, fields: Vec<(String, Json)>) -> io::Result<()> {
        let ms = self.now_ms();
        let mut all = vec![("event".to_string(), Json::Str(kind.to_string())), ("ms".to_string(), int(ms))];
        all.extend(fields);
        let line = Json::Obj(all).to_string_line();
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.lines += 1;
        Ok(())
    }

    /// The opening `run-start` event.
    pub fn run_start(&mut self, files: usize, workers: usize, options: Json) -> io::Result<()> {
        self.event(
            "run-start",
            vec![
                ("files".to_string(), int(files as u64)),
                ("workers".to_string(), int(workers as u64)),
                ("options".to_string(), options),
            ],
        )
    }

    /// A periodic `heartbeat` carrying the cumulative snapshot and the
    /// derived rates the progress line shows.
    pub fn heartbeat(
        &mut self,
        snap: &TelemetrySnapshot,
        states_per_sec: f64,
        files_done: usize,
        files_total: usize,
    ) -> io::Result<()> {
        self.event(
            "heartbeat",
            vec![
                ("states".to_string(), int(snap.get(Counter::States))),
                ("transitions".to_string(), int(snap.get(Counter::Transitions))),
                ("states_per_sec".to_string(), Json::Float(states_per_sec)),
                ("frontier_depth".to_string(), int(snap.frontier_depth)),
                ("files_done".to_string(), int(files_done as u64)),
                ("files_total".to_string(), int(files_total as u64)),
                ("snapshot".to_string(), snapshot_json(snap)),
            ],
        )
    }

    /// A per-file `file` verdict row.
    pub fn file_verdict(&mut self, resp: &CheckResponse) -> io::Result<()> {
        let mut fields = vec![
            ("name".to_string(), Json::Str(resp.name.clone())),
            ("pass".to_string(), Json::Bool(resp.pass)),
            ("served".to_string(), Json::Str(resp.served.as_str().to_string())),
            ("states".to_string(), int(resp.states as u64)),
            ("transitions".to_string(), int(resp.transitions as u64)),
            ("stop".to_string(), Json::Str(format!("{:?}", resp.stop))),
            ("wall_ms".to_string(), Json::Float(resp.wall.as_secs_f64() * 1e3)),
        ];
        if let Some(snap) = &resp.telemetry {
            fields.push(("telemetry".to_string(), snapshot_json(snap)));
        }
        self.event("file", fields)
    }

    /// A free-text `note` event.
    pub fn note(&mut self, text: &str) -> io::Result<()> {
        self.event("note", vec![("text".to_string(), Json::Str(text.to_string()))])
    }

    /// The closing `stop` event.
    pub fn stop(&mut self, files: usize, passed: usize, failed: usize) -> io::Result<()> {
        self.event(
            "stop",
            vec![
                ("files".to_string(), int(files as u64)),
                ("passed".to_string(), int(passed as u64)),
                ("failed".to_string(), int(failed as u64)),
            ],
        )
    }
}

/// Aggregated view of one trace file, as `rc11 trace-report` prints it.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Total event lines.
    pub lines: u64,
    /// Event count per kind, alphabetical.
    pub events_by_kind: BTreeMap<String, u64>,
    /// `file` events seen.
    pub files: u64,
    /// `file` events with `"pass": true`.
    pub passed: u64,
    /// `file` events served from either cache tier.
    pub cache_hits: u64,
    /// Summed states over `file` events.
    pub states: u64,
    /// Summed transitions over `file` events.
    pub transitions: u64,
    /// Summed wall milliseconds over `file` events.
    pub wall_ms: f64,
    /// Summed per-file telemetry counters (zero where no file carried a
    /// snapshot).
    pub counters: [u64; Counter::COUNT],
    /// Summed per-file phase nanoseconds.
    pub phase_nanos: [u64; Phase::COUNT],
    /// `file` events that carried a telemetry snapshot.
    pub files_with_telemetry: u64,
    /// Timestamp of the last event, milliseconds.
    pub last_ms: u64,
}

impl TraceStats {
    /// One summed counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One summed phase, nanoseconds.
    pub fn phase(&self, p: Phase) -> u64 {
        self.phase_nanos[p as usize]
    }
}

/// Parse and validate a trace file's text, producing [`TraceStats`].
///
/// Validation is strict — this doubles as the CI schema check: every
/// non-empty line must parse as a JSON object with a string `"event"`
/// and an integer `"ms"`, timestamps must be monotone non-decreasing,
/// and kind-specific required keys must be present (`file` needs
/// `name`/`pass`, `run-start` needs `files`, `stop` needs `files`).
pub fn read_trace(src: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut prev_ms = 0u64;
    for (i, line) in src.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let kind = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string `event`"))?
            .to_string();
        let ms = v
            .get("ms")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("line {lineno}: missing integer `ms`"))?;
        let ms = u64::try_from(ms).map_err(|_| format!("line {lineno}: negative `ms`"))?;
        if ms < prev_ms {
            return Err(format!("line {lineno}: timestamp {ms}ms went backwards (prev {prev_ms}ms)"));
        }
        prev_ms = ms;
        stats.last_ms = ms;
        stats.lines += 1;
        *stats.events_by_kind.entry(kind.clone()).or_insert(0) += 1;
        match kind.as_str() {
            "run-start" | "stop"
                if v.get("files").and_then(Json::as_i64).is_none() =>
            {
                return Err(format!("line {lineno}: `{kind}` missing integer `files`"));
            }
            "run-start" | "stop" => {}
            "file" => {
                if v.get("name").and_then(Json::as_str).is_none() {
                    return Err(format!("line {lineno}: `file` missing string `name`"));
                }
                let pass = v
                    .get("pass")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("line {lineno}: `file` missing bool `pass`"))?;
                stats.files += 1;
                if pass {
                    stats.passed += 1;
                }
                if v.get("served").and_then(Json::as_str).map(|s| s != "explored").unwrap_or(false) {
                    stats.cache_hits += 1;
                }
                stats.states += u64_field(&v, "states");
                stats.transitions += u64_field(&v, "transitions");
                stats.wall_ms += v.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
                if let Some(snap) = v.get("telemetry").and_then(snapshot_from_json) {
                    stats.files_with_telemetry += 1;
                    for c in Counter::ALL {
                        stats.counters[c as usize] += snap.get(c);
                    }
                    for p in Phase::ALL {
                        stats.phase_nanos[p as usize] += snap.phase(p);
                    }
                }
            }
            // `heartbeat` snapshots are cumulative, not per-file — they
            // are validated (event/ms) but deliberately not summed.
            _ => {}
        }
    }
    if stats.lines == 0 {
        return Err("trace is empty".to_string());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CheckParams, CheckService};
    use rc11_telemetry::Telemetry;
    use std::sync::Arc;

    fn sample_snapshot() -> TelemetrySnapshot {
        let t = Telemetry::new();
        t.add(Counter::States, 41);
        t.incr(Counter::States);
        t.add(Counter::Transitions, 99);
        t.add_expansions(0, 30);
        t.add_expansions(3, 12);
        t.add_phase_nanos(Phase::Explore, 1_234_567);
        t.frontier_add(7);
        t.record_shard_occupancy(&[5, 0, 9]);
        t.snapshot()
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample_snapshot();
        let line = snapshot_json(&snap).to_string_line();
        let back = snapshot_from_json(&parse_json(&line).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn served_from_cache_survives_the_wire() {
        let snap = TelemetrySnapshot { served_from_cache: true, ..Default::default() };
        let back = snapshot_from_json(&snapshot_json(&snap)).unwrap();
        assert!(back.served_from_cache);
    }

    #[test]
    fn unknown_counters_are_ignored_not_fatal() {
        let v = parse_json(
            r#"{"counters":{"states":5,"counter_from_the_future":7},"phases_ns":{"explore":10}}"#,
        )
        .unwrap();
        let snap = snapshot_from_json(&v).unwrap();
        assert_eq!(snap.get(Counter::States), 5);
        assert_eq!(snap.phase(Phase::Explore), 10);
    }

    const MP: &str = r#"
litmus "mp-ra"
var x = 0
var y = 0
thread T1 { x = 1; y =rel 1; }
thread T2 { r1 =acq y; r2 = x; }
observe T2.r1 T2.r2
expected { (0, 0) (0, 1) (1, 1) }
"#;

    #[test]
    fn trace_writes_then_reads_with_attribution() {
        let tel = Arc::new(Telemetry::new());
        let service = CheckService::new();
        let params = CheckParams { telemetry: Some(tel.clone()), ..CheckParams::default() };
        let resp = service.check_source(MP, &params).unwrap();
        assert!(resp.telemetry.is_some(), "sink attached, snapshot expected");

        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf);
            w.run_start(1, 1, obj(vec![("por", Json::Bool(false))])).unwrap();
            w.heartbeat(&tel.snapshot(), 1234.5, 0, 1).unwrap();
            w.file_verdict(&resp).unwrap();
            w.note("corpus pass complete").unwrap();
            w.stop(1, 1, 0).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 5);

        let stats = read_trace(&text).unwrap();
        assert_eq!(stats.lines, 5);
        assert_eq!(stats.files, 1);
        assert_eq!(stats.passed, 1);
        assert_eq!(stats.files_with_telemetry, 1);
        assert_eq!(stats.counter(Counter::States), resp.states as u64);
        assert!(stats.phase(Phase::Explore) > 0, "explore phase attributed");
        assert!(stats.phase(Phase::Parse) > 0, "parse phase attributed");
        assert_eq!(stats.events_by_kind.get("heartbeat"), Some(&1));
    }

    #[test]
    fn read_trace_rejects_schema_violations() {
        assert!(read_trace("").unwrap_err().contains("empty"));
        assert!(read_trace("not json\n").unwrap_err().contains("line 1"));
        assert!(read_trace("{\"ms\":1}\n").unwrap_err().contains("event"));
        assert!(read_trace("{\"event\":\"note\"}\n").unwrap_err().contains("ms"));
        let backwards = "{\"event\":\"note\",\"ms\":5}\n{\"event\":\"note\",\"ms\":4}\n";
        assert!(read_trace(backwards).unwrap_err().contains("backwards"));
        let bad_file = "{\"event\":\"file\",\"ms\":1,\"name\":\"x\"}\n";
        assert!(read_trace(bad_file).unwrap_err().contains("pass"));
    }

    #[test]
    fn trace_timestamps_never_regress() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf);
        for i in 0..20 {
            w.note(&format!("n{i}")).unwrap();
        }
        let _ = w.into_inner();
        let text = String::from_utf8(buf).unwrap();
        read_trace(&text).unwrap();
    }
}
