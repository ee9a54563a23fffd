//! End-to-end checks of the benchmark binary: its result line parses
//! back and names exactly the metrics `BENCHMARK.json` declares, and a
//! deliberately wrong answer key turns into a nonzero exit.

use rc11::check::wire::{parse_json, Json};
use std::collections::BTreeSet;
use std::process::Command;

fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rc11-bench"))
        .args(args)
        .output()
        .expect("run rc11-bench");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let j = parse_json(&text).expect("BENCHMARK.json parses");
    j.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn result(stdout: &str) -> Json {
    parse_json(stdout.lines().last().expect("a result line")).expect("result line parses")
}

fn metric_names(r: &Json) -> BTreeSet<String> {
    match r.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let (code, out) = bench(&[
        "--workload",
        "corpus_cold",
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--trace",
        "0",
    ]);
    assert_eq!(code, 0, "{out}");
    let r = result(&out);
    assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(r.get("failed").and_then(Json::as_i64), Some(0));
    assert!(r.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(metric_names(&r), declared("end_to_end"));
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let (code, out) = bench(&[
        "--workload",
        "corpus_cold",
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--trace",
        "1",
    ]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(metric_names(&result(&out)), declared("per_layer"));
}

#[test]
fn a_wrong_answer_fails_the_run() {
    let (code, out) = bench(&[
        "--workload",
        "corpus_cold",
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--inject-wrong",
    ]);
    assert_eq!(code, 3);
    assert_eq!(
        result(&out).get("correct").and_then(Json::as_bool),
        Some(false)
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let (code, out) = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(code, 2);
    assert!(out.is_empty());
}
