//! The rc11d differential battery: the daemon is held to the
//! `rc11_check::reference` oracle and to the CLI's engine path, and its
//! cache to the explorer.
//!
//! * **Corpus-wide parity** — every corpus file submitted to a live
//!   in-process daemon must come back with the reference's observed
//!   outcome set, deadlock count and stop reason, with state and
//!   transition counts never above the reference's. The report must
//!   also equal the `Engine` path behind `rc11 run` bit for bit: counts
//!   and notes included.
//! * **Ignored worker field** — a `workers` request field is accepted
//!   and changes nothing: a `workers: 4` request answers exactly as a
//!   `workers: 1` one does.
//! * **Warm resubmission** — a second pass over the corpus is served
//!   entirely from the cache (100% hit rate, zero new exploration) with
//!   responses bit-identical to the cold pass; after a daemon restart on
//!   the same spill directory the verdicts come back from disk, still
//!   bit-identical, still with zero exploration.
//! * **Truncation discipline** — budget-truncated responses are never
//!   admitted to the cache.
//! * **Shutdown discipline** — concurrent clients with mixed budgets
//!   plus a mid-queue shutdown: every request resolves (a report, a
//!   `cancelled` stop, or an explicit error) and the daemon's threads
//!   all join. Never a hang.
//! * **Hostile input** — a 2 MB line of `[` and a line longer than
//!   `MAX_LINE` come back as error responses and the daemon keeps
//!   serving. Never a crash, never an unbounded buffer.

use rc11::check::wire::{obj, parse_json, Json};
use rc11::check::{reference, Engine, ExploreOptions};
use rc11::core::Val;
use rc11::daemon::{start, Client, DaemonConfig, MAX_LINE};
use rc11::lang::parse::val_literal;
use rc11::litmus;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// The corpus as raw sources, in `load_dir` order.
fn corpus_sources() -> Vec<(String, String)> {
    litmus::load_dir(corpus_dir())
        .expect("corpus/ must exist")
        .iter()
        .map(|(path, loaded)| {
            let l = loaded.as_ref().unwrap_or_else(|e| panic!("{e}"));
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{e}"));
            (l.name.clone(), src)
        })
        .collect()
}

/// A `BTreeSet<Vec<Val>>` in the wire encoding (sorted tuples of corpus
/// literals), for bit-exact comparison against a response's arrays.
fn rendered(set: &BTreeSet<Vec<Val>>) -> Vec<Vec<String>> {
    set.iter().map(|t| t.iter().map(val_literal).collect()).collect()
}

fn tuples_of(response: &Json, key: &str) -> Vec<Vec<String>> {
    response
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("response has no {key} array"))
        .iter()
        .map(|t| {
            t.as_arr()
                .expect("tuple is an array")
                .iter()
                .map(|v| v.as_str().expect("value is a string").to_string())
                .collect()
        })
        .collect()
}

fn int_of(response: &Json, key: &str) -> i64 {
    response.get(key).and_then(Json::as_i64).unwrap_or_else(|| panic!("no {key}"))
}

fn str_of<'j>(response: &'j Json, key: &str) -> &'j str {
    response.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no {key}"))
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The response fields that must be bit-identical between a cold run and
/// any cache hit for the same submission, as one comparable string.
fn report_key(response: &Json) -> String {
    [
        "name",
        "fingerprint",
        "pass",
        "observed",
        "expected",
        "states",
        "transitions",
        "deadlocks",
        "stop",
        "notes",
    ]
    .iter()
    .map(|k| {
        format!("{k}={}", response.get(k).map(Json::to_string_line).unwrap_or_default())
    })
    .collect::<Vec<_>>()
    .join(" ")
}

#[test]
fn daemon_reports_are_bit_identical_to_the_engine_path() {
    let entries = litmus::load_dir(corpus_dir()).expect("corpus/ must exist");
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    for (path, loaded) in &entries {
        let l = loaded.as_ref().unwrap_or_else(|e| panic!("{e}"));
        let prog = rc11::lang::compile(&l.prog);
        let oracle = reference::explore(&prog, litmus::objects_for(l), usize::MAX, |_, _| {});
        let oracle_observed: BTreeSet<Vec<Val>> = oracle
            .terminated
            .iter()
            .map(|c| l.observe.iter().map(|&(t, r)| c.reg(t, r)).collect())
            .collect();
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{e}"));
        // The daemon path, cache bypassed so every request explores.
        let response = client
            .check_with(&src, vec![("no_cache", Json::Bool(true))])
            .expect("daemon answers");
        let what = l.name.clone();
        assert!(is_ok(&response), "{what}: {}", response.to_string_line());
        assert_eq!(str_of(&response, "name"), l.name, "{what}");
        assert_eq!(str_of(&response, "served"), "explored", "{what}");
        // Against the oracle.
        assert_eq!(
            tuples_of(&response, "observed"),
            rendered(&oracle_observed),
            "{what}: observed set diverges from the reference"
        );
        assert_eq!(
            int_of(&response, "deadlocks") as usize,
            oracle.deadlocked.len(),
            "{what}: deadlocks"
        );
        assert_eq!(str_of(&response, "stop"), oracle.stop.to_string(), "{what}: stop");
        assert!(
            int_of(&response, "states") as usize <= oracle.states
                && int_of(&response, "transitions") as usize <= oracle.transitions,
            "{what}: counts above the reference's"
        );
        assert_eq!(
            tuples_of(&response, "expected"),
            rendered(&l.expected),
            "{what}: expected sets diverge"
        );
        // The engine path `rc11 run` uses: the same verdict, notes and
        // counts.
        let opts = ExploreOptions { record_traces: false, ..Default::default() };
        let (res, _, _) = litmus::run_with_opts(l, &Engine::Sequential, &opts);
        assert_eq!(
            response.get("pass").and_then(Json::as_bool),
            Some(res.pass),
            "{what}: verdicts diverge"
        );
        assert_eq!(int_of(&response, "states") as usize, res.states, "{what}: states");
        assert_eq!(
            int_of(&response, "transitions") as usize,
            res.transitions,
            "{what}: transitions"
        );
        let note_strings: Vec<String> = res.notes.iter().map(|n| n.to_string()).collect();
        let response_notes: Vec<String> = response
            .get("notes")
            .and_then(Json::as_arr)
            .expect("notes array")
            .iter()
            .map(|n| n.as_str().expect("note is a string").to_string())
            .collect();
        assert_eq!(response_notes, note_strings, "{what}: notes diverge");
    }
    handle.stop();
}

/// A `workers` request field is accepted and ignored: every check runs
/// the one exploration walk, so `workers: 4` answers exactly as
/// `workers: 1` does.
#[test]
fn workers_field_is_accepted_and_ignored() {
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    for (name, src) in corpus_sources().iter().take(8) {
        let ask = |client: &mut Client, workers: i64| {
            let extra = vec![("workers", Json::Int(workers)), ("no_cache", Json::Bool(true))];
            let response = client.check_with(src, extra).expect("daemon answers");
            assert!(is_ok(&response), "{name}: {}", response.to_string_line());
            response
        };
        let one = ask(&mut client, 1);
        let four = ask(&mut client, 4);
        assert_eq!(report_key(&one), report_key(&four), "{name}: workers changed the answer");
    }
    handle.stop();
}

#[test]
fn warm_resubmission_is_pure_cache_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("rc11d-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sources = corpus_sources();
    let config = DaemonConfig { cache_dir: Some(dir.clone()), ..DaemonConfig::default() };

    // Cold pass: every file explores, populating memory and disk.
    let handle = start(&config).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let mut cold = Vec::new();
    for (name, src) in &sources {
        let r = client.check(src).expect("daemon answers");
        assert!(is_ok(&r), "{name}: {}", r.to_string_line());
        assert_eq!(str_of(&r, "served"), "explored", "{name}: cold pass must explore");
        assert_eq!(str_of(&r, "stop"), "complete", "{name}: corpus entries complete");
        cold.push(report_key(&r));
    }
    // Warm pass: 100% memory hits, zero new exploration, bit-identical.
    let before = handle.stats();
    for ((name, src), cold_key) in sources.iter().zip(&cold) {
        let r = client.check(src).expect("daemon answers");
        assert_eq!(str_of(&r, "served"), "mem-cache", "{name}: warm pass must hit");
        assert_eq!(&report_key(&r), cold_key, "{name}: cached response diverges");
    }
    let after = handle.stats();
    assert_eq!(
        (before.explored_runs, before.states_explored),
        (after.explored_runs, after.states_explored),
        "the warm pass explored"
    );
    assert_eq!(after.cache.mem_hits as usize, sources.len());
    handle.stop();

    // Restart on the same spill directory: verdicts come back from disk,
    // still bit-identical, still with zero exploration.
    let handle = start(&config).expect("daemon restarts");
    let mut client = Client::connect(handle.addr()).expect("client reconnects");
    for ((name, src), cold_key) in sources.iter().zip(&cold) {
        let r = client.check(src).expect("daemon answers");
        assert_eq!(str_of(&r, "served"), "disk-cache", "{name}: restart pass must hit disk");
        assert_eq!(&report_key(&r), cold_key, "{name}: disk verdict diverges");
    }
    let stats = handle.stats();
    assert_eq!(stats.states_explored, 0, "the restarted daemon explored");
    assert_eq!(stats.cache.disk_hits as usize, sources.len());
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_truncated_responses_are_never_cached() {
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let (_, src) = &corpus_sources()[0];
    // Starved: stops early, must not be admitted.
    let truncated = client
        .check_with(src, vec![("max_transitions", Json::Int(1))])
        .expect("daemon answers");
    assert!(is_ok(&truncated));
    assert_ne!(str_of(&truncated, "stop"), "complete");
    assert_eq!(str_of(&truncated, "served"), "explored");
    // Same key (budgets are not part of it) — still a miss.
    let full = client.check(src).expect("daemon answers");
    assert_eq!(str_of(&full, "served"), "explored", "a truncated verdict was cached");
    assert_eq!(str_of(&full, "stop"), "complete");
    // Now the complete verdict serves.
    let warm = client.check(src).expect("daemon answers");
    assert_eq!(str_of(&warm, "served"), "mem-cache");
    handle.stop();
}

#[test]
fn rejects_malformed_requests_without_dropping_the_connection() {
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let bad = client
        .request(&rc11::check::wire::obj(vec![("cmd", Json::Str("check".into()))]))
        .expect("daemon answers");
    assert!(!is_ok(&bad));
    assert!(str_of(&bad, "error").contains("source"));
    let parse_error = client.check("litmus \"broken").expect("daemon answers");
    assert!(!is_ok(&parse_error));
    assert!(str_of(&parse_error, "error").starts_with("parse:"));
    // The connection survives both failures.
    assert!(client.ping().expect("daemon still answers"));
    handle.stop();
}

/// The JSON parser recurses per nesting level; a line of 2 MB of `[`
/// once overflowed the connection thread's stack, which `catch_unwind`
/// cannot contain, and aborted the whole daemon. It must now come back as
/// an error response on a connection that keeps working, with the daemon
/// still answering new clients.
#[test]
fn deeply_nested_request_line_is_an_error_not_a_crash() {
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let stream = TcpStream::connect(handle.addr()).expect("client connects");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> Json {
        writer.write_all(line.as_bytes()).expect("send line");
        writer.write_all(b"\n").expect("send newline");
        writer.flush().expect("flush");
        let mut response = String::new();
        assert!(reader.read_line(&mut response).expect("read response") > 0, "daemon hung up");
        parse_json(&response).expect("response is JSON")
    };
    let hostile = ask(&"[".repeat(2 << 20));
    assert!(!is_ok(&hostile), "{}", hostile.to_string_line());
    assert!(str_of(&hostile, "error").contains("nesting"), "{}", hostile.to_string_line());
    // The same connection, and a fresh one, still answer.
    assert_eq!(ask(r#"{"cmd":"ping"}"#).get("pong").and_then(Json::as_bool), Some(true));
    let mut client = Client::connect(handle.addr()).expect("second client connects");
    assert!(client.ping().expect("daemon still answers"));
    handle.stop();
}

/// JSON strings decode in time linear in the line: a check whose source
/// is a string of nearly `MAX_LINE` bytes (quadratic decoding once held a
/// connection for minutes) is answered at once with a parse error, lines
/// whose bytes are not UTF-8 — invalid, or a scalar cut short — are
/// refused as before, and the connection keeps serving throughout.
#[test]
fn long_strings_and_bad_utf8_lines_are_answered_promptly() {
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let stream = TcpStream::connect(handle.addr()).expect("client connects");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &[u8]| -> Json {
        writer.write_all(line).expect("send line");
        writer.write_all(b"\n").expect("send newline");
        writer.flush().expect("flush");
        let mut response = String::new();
        assert!(reader.read_line(&mut response).expect("read response") > 0, "daemon hung up");
        parse_json(&response).expect("response is JSON")
    };
    let source = "é".repeat((MAX_LINE - 64) / 2);
    let line = obj(vec![("cmd", Json::Str("check".into())), ("source", Json::Str(source))]);
    let started = std::time::Instant::now();
    let long = ask(line.to_string_line().as_bytes());
    let took = started.elapsed();
    assert!(str_of(&long, "error").starts_with("parse:"), "{}", long.to_string_line());
    assert!(took < std::time::Duration::from_secs(10), "answered after {took:?}");
    let invalid = &b"{\"cmd\":\"check\",\"source\":\"\xff\"}"[..];
    let cut_short = &b"{\"cmd\":\"ping\",\"x\":\"\xc3"[..];
    for bad in [invalid, cut_short] {
        let refused = ask(bad);
        assert_eq!(str_of(&refused, "error"), "bad request: line is not UTF-8");
    }
    let truncated = ask("{\"cmd\":\"ping\",\"x\":\"é".as_bytes());
    assert!(str_of(&truncated, "error").contains("unterminated string"), "{truncated:?}");
    assert_eq!(ask(br#"{"cmd":"ping"}"#).get("pong").and_then(Json::as_bool), Some(true));
    handle.stop();
}

/// A line longer than `MAX_LINE` is never buffered whole: the daemon
/// skips it to its newline, answers `too-large`, and the same connection
/// keeps serving.
#[test]
fn oversized_request_line_is_refused_not_buffered() {
    let handle = start(&DaemonConfig::default()).expect("daemon starts");
    let stream = TcpStream::connect(handle.addr()).expect("client connects");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // Written from a second thread: the daemon answers only after the
    // newline, and the kernel buffers cannot hold the whole line.
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..=MAX_LINE / chunk.len() {
            writer.write_all(&chunk).expect("send chunk");
        }
        writer.write_all(b"\n{\"cmd\":\"ping\"}\n").expect("send ping");
        writer.flush().expect("flush");
        writer
    });
    let mut read = || {
        let mut response = String::new();
        assert!(reader.read_line(&mut response).expect("read response") > 0, "daemon hung up");
        parse_json(&response).expect("response is JSON")
    };
    let refused = read();
    assert!(!is_ok(&refused), "{}", refused.to_string_line());
    assert!(str_of(&refused, "error").starts_with("too-large"), "{}", refused.to_string_line());
    assert_eq!(read().get("pong").and_then(Json::as_bool), Some(true));
    drop(sender.join().expect("sender thread"));
    handle.stop();
}

#[test]
fn concurrent_clients_with_mixed_budgets_and_mid_queue_shutdown_never_hang() {
    // One worker so jobs genuinely queue; a shutdown fired while the
    // queue is non-empty must drain every job with an explicit answer.
    let config = DaemonConfig { pool: 1, queue_cap: 1024, ..DaemonConfig::default() };
    let handle = start(&config).expect("daemon starts");
    let addr = handle.addr();
    let sources: Vec<String> =
        corpus_sources().into_iter().map(|(_, src)| src).take(12).collect();

    let clients: Vec<_> = (0..4)
        .map(|i: usize| {
            let sources = sources.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut answered = 0usize;
                for (j, src) in sources.iter().enumerate() {
                    // Mixed budgets: unbudgeted, transition-starved, and
                    // tightly deadlined submissions interleave.
                    let extra = match (i + j) % 3 {
                        0 => Vec::new(),
                        1 => vec![("max_transitions", Json::Int(2))],
                        _ => vec![("deadline_ms", Json::Int(1))],
                    };
                    match client.check_with(src, extra) {
                        Ok(response) => {
                            // Every answered request is well-formed: a
                            // report (possibly truncated or cancelled) or
                            // an explicit error.
                            if is_ok(&response) {
                                let stop = str_of(&response, "stop");
                                assert!(
                                    [
                                        "complete",
                                        "state-cap",
                                        "transition-cap",
                                        "mem-budget",
                                        "deadline",
                                        "cancelled",
                                        "worker-fault"
                                    ]
                                    .contains(&stop),
                                    "unknown stop {stop:?}"
                                );
                            } else {
                                let err = str_of(&response, "error");
                                assert!(
                                    err.contains("shutting down") || err.contains("busy"),
                                    "unexpected error {err:?}"
                                );
                            }
                            answered += 1;
                        }
                        // After shutdown the daemon may close the
                        // connection instead; that is an explicit
                        // resolution too, not a hang.
                        Err(_) => break,
                    }
                }
                answered
            })
        })
        .collect();

    // Fire shutdown while the single worker still has a backlog.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let mut killer = Client::connect(addr).expect("killer connects");
    let ack = killer.shutdown().expect("shutdown acknowledged");
    assert!(is_ok(&ack));

    let mut answered_total = 0usize;
    for c in clients {
        answered_total += c.join().expect("client thread panicked");
    }
    assert!(answered_total > 0, "no request was ever answered");
    // The real assertion: every daemon thread joins. A lost job or a
    // stuck worker would hang right here.
    handle.join();
}
