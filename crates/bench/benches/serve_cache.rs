//! rc11d serving-layer ablation: what a verdict-cache hit saves.
//!
//! The daemon's value proposition (DESIGN.md §8) is that a resubmitted
//! program — or any renaming/reordering of one — costs a canonicalise +
//! fingerprint + probe instead of a full exploration. This bench pins
//! that claim on the real corpus through the same `CheckService` request
//! path `rc11 run`, `rc11 fuzz`, and `rc11 serve` share: a cold pass
//! explores every file, a warm pass must be served entirely from the
//! in-memory cache, and the per-file warm cost must beat the cold cost
//! by a wide margin (asserted ≥10×; measured ~3 orders of magnitude).
//!
//! A warm request that arrives as source text also pays the `.litmus`
//! front end, so the bench also times `parse_litmus` alone and a whole
//! warm `check_source` (parse, canonical words, memory hit) per corpus
//! file. Headline numbers land in `BENCH_explore.json` under
//! `serve_cache`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rc11_check::{CheckParams, CheckService, Served, VerdictCache};
use rc11_lang::parse::parse_litmus;
use rc11_litmus::{load_dir, Litmus};
use std::path::PathBuf;
use std::time::Instant;

/// Every corpus file's source text and the test parsed from it.
fn corpus() -> Vec<(String, Litmus)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    load_dir(&dir)
        .expect("corpus dir readable")
        .into_iter()
        .map(|(path, r)| {
            let litmus = r.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (std::fs::read_to_string(&path).expect("corpus file readable"), litmus)
        })
        .collect()
}

/// Best-of-`passes` wall clock of `pass`, in µs per file.
fn best_us_per_file(passes: usize, files: usize, mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t0 = Instant::now();
        pass();
        best = best.min(t0.elapsed().as_nanos() as f64 / files as f64);
    }
    best / 1e3
}

fn check_all(service: &CheckService, files: &[Litmus], params: &CheckParams) -> Vec<Served> {
    files
        .iter()
        .map(|l| {
            black_box(
                service
                    .check_parts(&l.name, &l.prog, &l.observe, &l.expected, params)
                    .served,
            )
        })
        .collect()
}

fn bench_serve_cache(c: &mut Criterion) {
    if !criterion::selected("serve_cache") {
        return;
    }
    let (sources, files): (Vec<String>, Vec<Litmus>) = corpus().into_iter().unzip();
    let params = CheckParams::default();
    eprintln!("[serve_cache] corpus: {} files", files.len());

    // Cold cost: a fresh service per pass, so every file explores.
    // Best-of-3 (each pass is a full corpus exploration — seconds, not
    // microseconds — so criterion's inner loop would be excessive here).
    let mut cold_ns = f64::INFINITY;
    for _ in 0..3 {
        let service = CheckService::with_cache(VerdictCache::new(4096));
        let t0 = Instant::now();
        let served = check_all(&service, &files, &params);
        cold_ns = cold_ns.min(t0.elapsed().as_nanos() as f64 / files.len() as f64);
        assert!(
            served.iter().all(|s| *s == Served::Explored),
            "a fresh service must explore every file"
        );
    }

    // Warm cost: one populated service; every resubmission must be a
    // memory hit (exploring even once would invalidate the comparison).
    let service = CheckService::with_cache(VerdictCache::new(4096));
    check_all(&service, &files, &params);
    let warm_served = check_all(&service, &files, &params);
    assert!(
        warm_served.iter().all(|s| *s == Served::MemCache),
        "a warm resubmission must be served from memory"
    );

    let mut g = c.benchmark_group("serve_cache");
    g.throughput(criterion::Throughput::Elements(files.len() as u64));
    g.bench_function("warm_probe_full_corpus", |b| {
        b.iter(|| check_all(&service, &files, &params))
    });
    g.finish();

    let warm_ns = 1e3
        * best_us_per_file(5, files.len(), || {
            check_all(&service, &files, &params);
        });

    // The front end: parsing alone, and a whole warm request from source
    // text through a service whose cache holds every file.
    let text_service = CheckService::with_cache(VerdictCache::new(4096));
    for src in &sources {
        text_service.check_source(src, &params).expect("corpus file parses");
    }
    let parse_us = best_us_per_file(20, sources.len(), || {
        for src in &sources {
            black_box(parse_litmus(black_box(src)).expect("corpus file parses"));
        }
    });
    let warm_request_us = best_us_per_file(20, sources.len(), || {
        for src in &sources {
            let r = text_service.check_source(black_box(src), &params).expect("parses");
            assert_eq!(r.served, Served::MemCache, "a warm request must be a memory hit");
        }
    });

    let speedup = cold_ns / warm_ns;
    eprintln!(
        "[serve_cache] cold explore {:.1} µs/file, warm probe {:.2} µs/file, {speedup:.0}x; \
         parse {parse_us:.2} µs/file, warm request from source {warm_request_us:.2} µs/file",
        cold_ns / 1e3,
        warm_ns / 1e3
    );
    assert!(
        speedup >= 10.0,
        "a cache hit must beat exploration by ≥10x (got {speedup:.1}x)"
    );
    bench::record_bench_json(
        "serve_cache",
        &[
            ("cold_explore_us_per_file", cold_ns / 1e3),
            ("warm_probe_us_per_file", warm_ns / 1e3),
            ("hit_speedup", speedup),
            ("parse_us_per_file", parse_us),
            ("warm_request_us_per_file", warm_request_us),
        ],
    );
}

criterion_group!(benches, bench_serve_cache);
criterion_main!(benches);
