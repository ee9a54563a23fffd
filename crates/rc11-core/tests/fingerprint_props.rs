//! Property tests for the canonical encoding (ablation A4): on randomly
//! generated transition scripts and for every thread permutation σ,
//!
//! * `decode(encode(s, σ)) == s.permute_threads(σ).canonical()` — the
//!   encoding is the materialised canonical form, written as words;
//! * `encode(a, σ) == encode(b, τ)  ⟺  a.permute_threads(σ).canonical()
//!   == b.permute_threads(τ).canonical()`, and the same for their
//!   fingerprints.
//!
//! The fingerprint `⟸` direction is a no-collision claim for the
//! generated family (the walk tolerates collisions by comparing words;
//! the differential suite `tests/engine_agreement.rs` covers the walk end
//! to end).
//!
//! Two generators exercise both directions meaningfully:
//!
//! * *random scripts* — arbitrary write/read/update sequences, so almost
//!   all pairs have distinct canonical forms (`⟸` as non-collision);
//! * *commuted interleavings* — one script applied in order and with
//!   independent adjacent steps (different thread **and** different
//!   location) swapped, so canonical forms coincide by construction (`⟹`).

use proptest::prelude::*;
use rc11_check::fingerprint;
use rc11_core::canon::WordReader;
use rc11_core::{CanonPerms, Comp, Combined, InitLoc, Loc, Tid, Val};

const N_LOCS: usize = 2;
const N_THREADS: usize = 2;

/// One step of a transition script, with indices resolved against the
/// state at application time (so every generated script is applicable).
#[derive(Debug, Clone, Copy)]
enum RStep {
    Write { t: u8, loc: u8, val: u8, rel: bool, pred: u8 },
    Read { t: u8, loc: u8, acq: bool, choice: u8 },
    Update { t: u8, loc: u8, val: u8, pred: u8 },
}

impl RStep {
    fn tid(self) -> Tid {
        match self {
            RStep::Write { t, .. } | RStep::Read { t, .. } | RStep::Update { t, .. } => {
                Tid(t % N_THREADS as u8)
            }
        }
    }

    fn loc(self) -> Loc {
        match self {
            RStep::Write { loc, .. } | RStep::Read { loc, .. } | RStep::Update { loc, .. } => {
                Loc((loc % N_LOCS as u8) as u16)
            }
        }
    }
}

fn rstep() -> impl Strategy<Value = RStep> {
    prop_oneof![
        (0u8..2, 0u8..2, 1u8..4, any::<bool>(), 0u8..4)
            .prop_map(|(t, loc, val, rel, pred)| RStep::Write { t, loc, val, rel, pred }),
        (0u8..2, 0u8..2, any::<bool>(), 0u8..4)
            .prop_map(|(t, loc, acq, choice)| RStep::Read { t, loc, acq, choice }),
        (0u8..2, 0u8..2, 1u8..4, 0u8..4)
            .prop_map(|(t, loc, val, pred)| RStep::Update { t, loc, val, pred }),
    ]
}

fn initial() -> Combined {
    Combined::new(
        &[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))],
        &[],
        N_THREADS,
    )
}

/// Apply one step, resolving the generated indices against the current
/// choice lists; inapplicable steps (no uncovered predecessor) are skipped.
fn apply(s: &Combined, step: RStep) -> Combined {
    let t = step.tid();
    let x = step.loc();
    match step {
        RStep::Write { val, rel, pred, .. } => {
            let preds = s.write_preds(Comp::Client, t, x);
            if preds.is_empty() {
                return s.clone();
            }
            let w = preds[pred as usize % preds.len()];
            s.apply_write(Comp::Client, t, x, Val::Int(val as i64), rel, w)
        }
        RStep::Read { acq, choice, .. } => {
            let choices = s.read_choices(Comp::Client, t, x);
            let c = choices[choice as usize % choices.len()];
            s.apply_read(Comp::Client, t, x, acq, c.from)
        }
        RStep::Update { val, pred, .. } => {
            let preds = s.update_preds(Comp::Client, t, x, None);
            if preds.is_empty() {
                return s.clone();
            }
            let w = preds[pred as usize % preds.len()];
            s.apply_update(Comp::Client, t, x, Val::Int(val as i64), w)
        }
    }
}

fn run(script: &[RStep]) -> Combined {
    script.iter().fold(initial(), |s, &st| apply(&s, st))
}

/// Swap adjacent steps when they are independent (different thread and
/// different location): a different interleaving of the same behaviour.
fn commute(script: &[RStep]) -> Vec<RStep> {
    let mut out = script.to_vec();
    let mut i = 0;
    while i + 1 < out.len() {
        if out[i].tid() != out[i + 1].tid() && out[i].loc() != out[i + 1].loc() {
            out.swap(i, i + 1);
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Every thread permutation of the generated states.
const SIGMAS: [[u8; N_THREADS]; 2] = [[0, 1], [1, 0]];

/// The canonical encoding of `s` with its threads permuted by `sigma`.
fn encode(s: &Combined, sigma: &[u8]) -> Vec<u32> {
    let perms = CanonPerms { threads: sigma.to_vec(), ..s.canonical_perms() };
    let mut words = Vec::new();
    s.encode_canonical(&perms, &mut words);
    words
}

fn decode(words: &[u32]) -> Combined {
    let mut r = WordReader::new(words);
    let mut s = Combined::new(&[], &[], 1);
    s.decode_into(&mut r);
    assert!(r.is_done(), "decoding left words unread");
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The central biconditional on random pairs, under every pair of
    /// thread permutations: equal canonical forms iff equal encodings iff
    /// equal fingerprints — and every encoding decodes to its form.
    #[test]
    fn canonical_equality_iff_fingerprint_equality(
        a in prop::collection::vec(rstep(), 0..7),
        b in prop::collection::vec(rstep(), 0..7),
    ) {
        let (sa, sb) = (run(&a), run(&b));
        for sigma in SIGMAS {
            let wa = encode(&sa, &sigma);
            let ca = sa.permute_threads(&sigma).canonical();
            prop_assert_eq!(&decode(&wa), &ca);
            for tau in SIGMAS {
                let wb = encode(&sb, &tau);
                let canon_eq = ca == sb.permute_threads(&tau).canonical();
                prop_assert_eq!(wa == wb, canon_eq, "encoding and canonical equality diverged");
                prop_assert_eq!(
                    fingerprint(&wa) == fingerprint(&wb),
                    canon_eq,
                    "fingerprint and canonical equality diverged"
                );
            }
        }
    }

    /// Commuted interleavings of one script: canonical forms coincide, so
    /// encodings and fingerprints must too (the `⟹` direction on
    /// guaranteed-equal pairs).
    #[test]
    fn commuted_interleavings_fingerprint_equal(
        script in prop::collection::vec(rstep(), 0..8),
    ) {
        let a = run(&script);
        let b = run(&commute(&script));
        prop_assert_eq!(a.canonical(), b.canonical(), "commuted steps must not change the state");
        for sigma in SIGMAS {
            let (wa, wb) = (encode(&a, &sigma), encode(&b, &sigma));
            prop_assert_eq!(fingerprint(&wa), fingerprint(&wb));
            prop_assert_eq!(&wa, &wb);
            prop_assert_eq!(decode(&wb), a.permute_threads(&sigma).canonical());
        }
    }

    /// Stability: the encoding is invariant under materialised
    /// canonicalisation and equals the plain encoding of the permuted
    /// state, and decoding into a reused state gives what a fresh decode
    /// gives.
    #[test]
    fn fingerprint_is_stable_under_canonicalisation(
        script in prop::collection::vec(rstep(), 0..8),
    ) {
        let s = run(&script);
        let canon = s.canonical();
        prop_assert_eq!(encode(&s, &[]), encode(&canon, &[]));
        let mut scratch = initial();
        for sigma in SIGMAS {
            let words = encode(&s, &sigma);
            prop_assert_eq!(&words, &encode(&s.permute_threads(&sigma), &[]));
            prop_assert_eq!(&words, &encode(&canon, &sigma));
            scratch.decode_into(&mut WordReader::new(&words));
            prop_assert_eq!(&scratch, &decode(&words));
        }
    }
}
