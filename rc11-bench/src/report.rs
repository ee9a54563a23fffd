//! What a run reports: its metrics, the host block that says where they
//! were measured, the results log, and the one-line result the caller
//! parses.

use rc11::check::wire::{obj, parse_json, Json};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks issued.
    pub attempted: u64,
    /// Checks that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Descriptions of wrong answers (any makes the run incorrect).
    pub wrong: Vec<String>,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Supporting numbers for the results record (sample counts, tail
    /// percentiles, planned vs measured shares, ...).
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    /// True when no answer was wrong.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|x| {
                (
                    x.name.to_string(),
                    obj(vec![
                        ("value", Json::Float(x.value)),
                        ("unit", Json::Str(x.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    obj(vec![
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.attempted as i64)),
        ("failed", Json::Int(o.failed as i64)),
        ("metrics", metrics_json(&o.metrics)),
    ])
    .to_string_line()
}

/// A parsed result line: the correctness flag, `attempted`, `failed`,
/// and each metric's name, value and unit.
#[cfg(test)]
pub type ParsedResult = (bool, u64, u64, Vec<(String, f64, String)>);

/// Parse a result line back (the inverse of [`result_line`]).
#[cfg(test)]
pub fn parse_result_line(line: &str) -> Result<ParsedResult, String> {
    let j = parse_json(line).map_err(|e| e.to_string())?;
    let Json::Obj(fields) = &j else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let correct = j.get("correct").and_then(Json::as_bool).ok_or("correct")?;
    let attempted = j
        .get("attempted")
        .and_then(Json::as_i64)
        .ok_or("attempted")? as u64;
    let failed = j.get("failed").and_then(Json::as_i64).ok_or("failed")? as u64;
    let Some(Json::Obj(ms)) = j.get("metrics") else {
        return Err("metrics".into());
    };
    let mut metrics = Vec::new();
    for (name, v) in ms {
        let value = v.get("value").and_then(Json::as_f64).ok_or("value")?;
        let unit = v.get("unit").and_then(Json::as_str).ok_or("unit")?;
        metrics.push((name.clone(), value, unit.to_string()));
    }
    Ok((correct, attempted, failed, metrics))
}

fn run_text(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The directory that holds this package (and, one level up, the
/// repository the benchmark builds against).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where the benchmark writes its results log and span files.
pub fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

/// The host block: what a result depends on besides the code. Results
/// whose blocks differ (other than in the seed) must not be compared.
pub fn host_block(workload: &str, seed: u64, trace: bool) -> Json {
    let repo = bench_dir().join("..");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = run_text(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let rev = run_text(
        Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(["rev-parse", "HEAD"]),
    );
    let dirty = rev.as_ref().and_then(|_| {
        run_text(
            Command::new("git")
                .arg("-C")
                .arg(&repo)
                .args(["status", "--porcelain"]),
        )
        .map(|s| !s.is_empty())
    });
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj(vec![
        ("available_parallelism", Json::Int(cpus as i64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("rustc", Json::Str(rustc)),
        ("git_rev", rev.map_or(Json::Null, Json::Str)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Int(seed as i64)),
        ("trace", Json::Bool(trace)),
    ])
}

/// Host-block fields that must agree for two results to be comparable
/// (the seed may differ: it is an input, not a host property).
const COMPARABLE: [&str; 7] = [
    "available_parallelism",
    "cpu_model",
    "rustc",
    "git_rev",
    "git_dirty",
    "profile",
    "workload",
];

/// The fields of `a` and `b` that differ and make them incomparable.
pub fn host_mismatch(a: &Json, b: &Json) -> Vec<&'static str> {
    COMPARABLE
        .iter()
        .copied()
        .filter(|k| a.get(k) != b.get(k))
        .collect()
}

/// Append `record` to the results log and compare its host block with
/// the previous record of the same workload and trace mode. Returns the
/// fields that differ (empty when comparable or when there is no
/// previous record).
pub fn log_record(log: &Path, record: &Json) -> std::io::Result<Vec<&'static str>> {
    let host = record.get("host").cloned().unwrap_or(Json::Null);
    let previous = std::fs::read_to_string(log)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .filter_map(|r| r.get("host").cloned())
        .rfind(|h| {
            h.get("workload") == host.get("workload") && h.get("trace") == host.get("trace")
        });
    let mismatch = previous
        .map(|p| host_mismatch(&p, &host))
        .unwrap_or_default();
    if let Some(dir) = log.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)?;
    writeln!(f, "{}", record.to_string_line())?;
    Ok(mismatch)
}

/// The full results record: host block, metrics and supporting detail.
pub fn record(host: Json, o: &Outcome) -> Json {
    obj(vec![
        ("host", host),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.attempted as i64)),
        ("failed", Json::Int(o.failed as i64)),
        (
            "wrong",
            Json::Arr(o.wrong.iter().map(|w| Json::Str(w.clone())).collect()),
        ),
        ("metrics", metrics_json(&o.metrics)),
        ("detail", Json::Obj(o.detail.clone())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back() {
        let o = Outcome {
            attempted: 58,
            failed: 0,
            metrics: vec![m("wall_s", 0.071234567891, "s"), m("setup_s", 0.5, "s")],
            ..Outcome::default()
        };
        let line = result_line(&o);
        let (correct, attempted, failed, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (58, 0));
        assert_eq!(
            metrics[0],
            ("wall_s".to_string(), 0.071234567891, "s".to_string())
        );
        assert_eq!(metrics[1].0, "setup_s");
        let wrong = Outcome {
            wrong: vec!["x".into()],
            attempted: 1,
            ..Outcome::default()
        };
        assert!(!parse_result_line(&result_line(&wrong)).unwrap().0);
        assert!(parse_result_line("{\"correct\":true}").is_err());
    }

    #[test]
    fn differing_host_blocks_are_flagged_but_seeds_are_not() {
        let a = host_block("corpus_cold", 1, false);
        let mut b = host_block("corpus_cold", 2, false);
        assert!(
            host_mismatch(&a, &b).is_empty(),
            "the seed alone never flags"
        );
        if let Json::Obj(fields) = &mut b {
            for (k, v) in fields.iter_mut() {
                if k == "available_parallelism" {
                    *v = Json::Int(999);
                }
            }
        }
        assert_eq!(host_mismatch(&a, &b), vec!["available_parallelism"]);

        let dir = results_dir().join(format!("test-log-{}", std::process::id()));
        let log = dir.join("results.jsonl");
        let _ = std::fs::remove_file(&log);
        let o = Outcome::default();
        assert!(log_record(&log, &record(a.clone(), &o)).unwrap().is_empty());
        assert!(log_record(&log, &record(a, &o)).unwrap().is_empty());
        assert_eq!(
            log_record(&log, &record(b, &o)).unwrap(),
            vec!["available_parallelism"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
