//! Shared helpers for the benchmark binaries (see `benches/`).
//!
//! [`record_bench_json`] maintains `BENCH_explore.json` at the workspace
//! root — the start of the exploration-performance trajectory: each bench
//! binary merges its section of headline numbers (ns/successor, states/s)
//! into the file, so successive PRs can diff the trajectory instead of
//! re-reading bench logs. Every section it writes also carries the host
//! that measured it (`host_cpus`, `host_rustc`, `host_git_rev`,
//! `host_profile`), so numbers from different machines or revisions are
//! never compared silently. The format is deliberately tiny (two levels,
//! number or plain-string leaves) and both written and parsed here, with
//! no external JSON dependency — the workspace builds offline.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The parsed file: section → key → leaf, each leaf kept as its JSON
/// token (a number, or a string in double quotes without escapes).
pub type BenchData = BTreeMap<String, BTreeMap<String, String>>;

/// The perf-trajectory file, at the workspace root.
pub fn bench_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_explore.json")
}

/// Parse the two-level `{ "section": { "key": leaf } }` shape emitted by
/// [`render`]. Tolerant of whitespace and trailing commas; anything else
/// (including a malformed hand edit) yields an empty map, and the next
/// write starts the file fresh.
pub fn parse(text: &str) -> BenchData {
    let mut out = BenchData::new();
    let mut section: Option<String> = None;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix('"') {
            let Some((name, tail)) = rest.split_once('"') else { continue };
            let tail = tail.trim_start_matches(':').trim();
            let is_leaf = tail.parse::<f64>().is_ok()
                || (tail.len() >= 2 && tail.starts_with('"') && tail.ends_with('"'));
            if tail == "{" {
                section = Some(name.to_string());
                out.entry(name.to_string()).or_default();
            } else if let (Some(sec), true) = (&section, is_leaf) {
                out.entry(sec.clone()).or_default().insert(name.to_string(), tail.to_string());
            }
        } else if line == "}" {
            section = None;
        }
    }
    out
}

/// Render the two-level map as deterministic, diff-friendly JSON.
pub fn render(data: &BenchData) -> String {
    let mut s = String::from("{\n");
    let mut first_sec = true;
    for (sec, entries) in data {
        if !first_sec {
            s.push_str(",\n");
        }
        first_sec = false;
        s.push_str(&format!("  \"{sec}\": {{\n"));
        let mut first = true;
        for (k, v) in entries {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&format!("    \"{k}\": {v}"));
        }
        s.push_str("\n  }");
    }
    s.push_str("\n}\n");
    s
}

/// A string leaf: quotes and backslashes are dropped so the token needs
/// no escapes.
fn string_leaf(text: &str) -> String {
    format!("\"{}\"", text.trim().replace(['"', '\\'], ""))
}

/// The first line `cmd args…` prints, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block every recorded section carries: CPU count, compiler,
/// git revision (with `-dirty` for uncommitted changes) and build profile.
pub fn host_leaves() -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rev = command_line("git", &["rev-parse", "--short", "HEAD"]);
    if command_line("git", &["status", "--porcelain", "--untracked-files=no"]) != "unknown" {
        rev.push_str("-dirty");
    }
    let profile = if cfg!(debug_assertions) { "debug" } else { "optimized" };
    vec![
        ("host_cpus", cpus.to_string()),
        ("host_rustc", string_leaf(&command_line("rustc", &["--version"]))),
        ("host_git_rev", string_leaf(&rev)),
        ("host_profile", string_leaf(profile)),
    ]
}

/// Merge `entries` and the [`host_leaves`] into `section` of
/// `BENCH_explore.json` (read-modify-write; other sections are
/// preserved). Failures to write are reported, not fatal — a read-only
/// checkout must not fail the bench run.
pub fn record_bench_json(section: &str, entries: &[(&str, f64)]) {
    let path = bench_json_path();
    let mut data = std::fs::read_to_string(&path).map(|t| parse(&t)).unwrap_or_default();
    let sec = data.entry(section.to_string()).or_default();
    for (k, v) in entries {
        sec.insert((*k).to_string(), format!("{v:.2}"));
    }
    for (k, v) in host_leaves() {
        sec.insert(k.to_string(), v);
    }
    let text = render(&data);
    match std::fs::write(&path, &text) {
        Ok(()) => eprintln!(
            "[bench] recorded {} entries under \"{section}\" in {}",
            entries.len(),
            path.display()
        ),
        Err(e) => eprintln!("[bench] could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchData {
        let mut m = BenchData::new();
        m.entry("alpha".into()).or_default().insert("x_ns".into(), "12.50".into());
        m.entry("alpha".into()).or_default().insert("y_ns".into(), "3.00".into());
        m.entry("alpha".into()).or_default().insert("host_git_rev".into(), "\"abc123\"".into());
        m.entry("beta".into()).or_default().insert("states_per_sec".into(), "123456.00".into());
        m
    }

    #[test]
    fn render_parse_round_trips() {
        let m = sample();
        assert_eq!(parse(&render(&m)), m);
    }

    #[test]
    fn host_leaves_render_as_json_leaves() {
        let mut m = BenchData::new();
        for (k, v) in host_leaves() {
            m.entry("s".into()).or_default().insert(k.into(), v);
        }
        assert_eq!(parse(&render(&m)), m, "every host leaf survives a round trip");
        assert!(m["s"]["host_cpus"].parse::<usize>().is_ok_and(|n| n >= 1));
    }

    #[test]
    fn parse_tolerates_garbage() {
        assert!(parse("not json at all").is_empty());
        assert!(parse("").is_empty());
    }

    #[test]
    fn merge_preserves_other_sections() {
        let mut m = sample();
        // Simulate record_bench_json's merge step on parsed content.
        let reparsed = parse(&render(&m));
        m.entry("beta".into()).or_default().insert("new".into(), "1.00".into());
        assert_eq!(reparsed.get("alpha"), m.get("alpha"));
        assert!(m["beta"].contains_key("new") && !reparsed["beta"].contains_key("new"));
    }
}
