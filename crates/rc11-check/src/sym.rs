//! Thread-symmetry reduction support for the walk (ablation A6).
//!
//! Detection and the per-state canonical choice live in
//! [`rc11_analyze::symmetry`]; this module holds the engine-side glue:
//! the symmetry-aware fingerprint, the transport of POR thread masks into
//! representative numbering, and orbit expansion — the enumeration of a
//! representative's distinct non-representative orbit members, which the
//! walk uses to run the check callback on *every* state of the orbit and
//! to expand terminal/deadlock sets back to the unreduced search's.
//!
//! ## Soundness (DESIGN.md, "A6 in detail")
//!
//! A detected group permutation `σ` is a program automorphism: applying it
//! to any configuration commutes with every transition, and it fixes the
//! initial configuration (symmetric threads start at pc 0 with register
//! files equal in representative numbering). Hence the orbit of every
//! reachable state is reachable, exploring one representative per orbit
//! covers the full space, and expanding each representative's orbit
//! recovers exactly the unreduced search's terminal, deadlock and
//! violation sets. Composition with sleep-set POR transports every thread
//! mask through the committing `σ` (bit `t` → bit `σ[t]`), so sleep sets
//! always live in the stored state's own thread numbering.

use crate::fxhash::{CanonicalFingerprint, Fp128, Fx128Hasher, FxHashMap, IdBucket};
use crate::por::ThreadMask;
use rc11_analyze::{thread_symmetry, SymmetrySpec};
use rc11_core::CanonPerms;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::Config;

/// The symmetry reduction to run with: a non-trivial spec when the option
/// is on and the program actually has symmetric threads, else `None` (the
/// walk then takes its unchanged fast paths). The second component is
/// the orbit size detection gave up on when the `ORBIT_CAP` degraded the
/// spec to trivial — the walk surfaces it as a
/// [`Note::SymmetryOrbitCap`](crate::engine::Note::SymmetryOrbitCap).
pub(crate) fn active_spec(
    prog: &CfgProgram,
    symmetry: bool,
) -> (Option<SymmetrySpec>, Option<usize>) {
    if !symmetry {
        return (None, None);
    }
    let spec = thread_symmetry(prog);
    let capped = spec.capped_orbit();
    ((!spec.is_trivial()).then_some(spec), capped)
}

/// Fill the scratch `perms` with the canonical permutations of `succ` and,
/// under a symmetry spec, the canonical group permutation
/// ([`SymmetrySpec::choose_into`]). Reuses `perms`' buffers: a walk keeps
/// one `CanonPerms` for all its probes.
pub(crate) fn perms_into(symm: Option<&SymmetrySpec>, succ: &Config, perms: &mut CanonPerms) {
    succ.canonical_perms_into(perms);
    if let Some(spec) = symm {
        spec.choose_into(succ, perms);
    }
}

/// The canonical fingerprint of `succ` under `perms` — symmetry-aware with
/// a spec: it then hashes the canonical serialisation of the
/// thread-permuted configuration (byte-identical to the plain fingerprint
/// of `succ.permute_threads(σ).canonical()`).
pub(crate) fn fingerprint(succ: &Config, perms: &CanonPerms, symm: Option<&SymmetrySpec>) -> Fp128 {
    match symm {
        Some(spec) => {
            let mut h = Fx128Hasher::default();
            succ.hash_canonical_sym(perms, spec.maps(), &mut h);
            h.finish128()
        }
        None => succ.fingerprint_with(perms),
    }
}

/// Transport a thread mask through `σ`: bit `t` of the input becomes bit
/// `σ[t]` of the output. Only meaningful under POR (masks then hold bits
/// `< n_threads` only, matching `σ`'s length).
pub(crate) fn remap_mask(mask: ThreadMask, sigma: &[u8]) -> ThreadMask {
    let mut out = 0u64;
    let mut m = mask;
    while m != 0 {
        let t = m.trailing_zeros() as usize;
        m &= m - 1;
        out |= 1u64 << sigma[t];
    }
    out
}

/// Is `sigma` the identity permutation?
pub(crate) fn is_identity(sigma: &[u8]) -> bool {
    sigma.iter().enumerate().all(|(i, &v)| v as usize == i)
}

/// The distinct orbit members of canonical state `canon` *other than*
/// `canon` itself, each paired with a group permutation producing it.
/// States fixed by a subgroup yield fewer members than `orbit_size() - 1`.
/// `group` is `spec.group_perms()`, computed once by the caller.
///
/// Each member `σ(canon)` is fingerprinted and deduplicated by the
/// zero-rebuild symmetry walks (`canon` is canonical, so its canonical
/// permutations with `σ` installed describe exactly the canonical form of
/// `canon.permute_threads(σ)`), and only novel members are materialised —
/// once each, by `canonical_sym`. The walks run on the caller's scratch
/// `perms`, which is left holding `canon`'s permutations.
pub(crate) fn orbit_members(
    spec: &SymmetrySpec,
    group: &[Vec<u8>],
    canon: &Config,
    perms: &mut CanonPerms,
) -> Vec<(Vec<u8>, Config)> {
    // Members found so far, by fingerprint; `u32::MAX` stands for `canon`.
    const CANON: u32 = u32::MAX;
    let maps = spec.maps();
    canon.canonical_perms_into(perms);
    let mut seen: FxHashMap<Fp128, IdBucket> = FxHashMap::default();
    seen.insert(canon.fingerprint_with(perms), IdBucket::One(CANON));
    let mut out: Vec<(Vec<u8>, Config)> = Vec::new();
    for sigma in group {
        if is_identity(sigma) {
            continue;
        }
        perms.threads.clear();
        perms.threads.extend_from_slice(sigma);
        let fp = fingerprint(canon, perms, Some(spec));
        let known = seen.get(&fp).is_some_and(|bucket| {
            bucket.ids().iter().any(|&i| {
                let seen_member = if i == CANON { canon } else { &out[i as usize].1 };
                canon.canonical_eq_sym(perms, maps, seen_member)
            })
        });
        if known {
            continue;
        }
        let id = out.len() as u32;
        seen.entry(fp).and_modify(|bucket| bucket.push(id)).or_insert(IdBucket::One(id));
        out.push((sigma.clone(), canon.canonical_sym(perms, maps)));
    }
    perms.threads.clear();
    out
}

/// Expand a terminal/deadlock set in place: append every distinct
/// non-representative orbit member of each entry. Distinct representatives
/// have disjoint orbits, so no cross-entry dedup is needed and the result
/// equals the unreduced search's set.
pub(crate) fn expand_terminals(spec: &SymmetrySpec, cfgs: &mut Vec<Config>) {
    let group = spec.group_perms();
    let mut perms = CanonPerms::default();
    let mut extra = Vec::new();
    for c in cfgs.iter() {
        for (_, m) in orbit_members(spec, &group, c, &mut perms) {
            extra.push(m);
        }
    }
    cfgs.extend(extra);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc11_lang::{compile, parse_litmus};

    fn spec_of(src: &str) -> (CfgProgram, SymmetrySpec) {
        let prog = compile(&parse_litmus(src).unwrap().prog);
        let spec = thread_symmetry(&prog);
        (prog, spec)
    }

    #[test]
    fn mask_remap_transports_bits() {
        assert_eq!(remap_mask(0b001, &[2, 0, 1]), 0b100);
        assert_eq!(remap_mask(0b011, &[2, 0, 1]), 0b101);
        assert_eq!(remap_mask(0b111, &[2, 0, 1]), 0b111);
        assert_eq!(remap_mask(0, &[1, 0]), 0);
    }

    #[test]
    fn orbit_members_cover_the_symmetric_successors() {
        let (prog, spec) = spec_of(
            r#"
            litmus "pair"
            var x = 0
            thread A { r = fai(x); }
            thread B { s = fai(x); }
            observe A.r B.s
            expected { (0,1) (1,0) }
        "#,
        );
        assert!(!spec.is_trivial());
        let init = Config::initial(&prog).canonical();
        // The initial configuration is fixed by the group: no members.
        let group = spec.group_perms();
        let mut perms = CanonPerms::default();
        assert!(orbit_members(&spec, &group, &init, &mut perms).is_empty());
        // After one step the orbit has exactly two states: the rep and its
        // mirror.
        let succs =
            rc11_lang::successors(&prog, &rc11_lang::NoObjects, &init, Default::default());
        assert!(!succs.is_empty());
        let canon = {
            perms_into(Some(&spec), &succs[0].1, &mut perms);
            succs[0].1.canonical_sym(&perms, spec.maps())
        };
        let members = orbit_members(&spec, &group, &canon, &mut perms);
        assert_eq!(members.len(), 1, "one non-representative orbit member");
        assert_ne!(members[0].1, canon);
    }

    #[test]
    fn expansion_restores_orbit_counts() {
        let (prog, spec) = spec_of(
            r#"
            litmus "pair"
            var x = 0
            thread A { r = fai(x); }
            thread B { s = fai(x); }
            observe A.r B.s
            expected { (0,1) (1,0) }
        "#,
        );
        let init = Config::initial(&prog).canonical();
        let succs =
            rc11_lang::successors(&prog, &rc11_lang::NoObjects, &init, Default::default());
        let canon = {
            let mut perms = CanonPerms::default();
            perms_into(Some(&spec), &succs[0].1, &mut perms);
            succs[0].1.canonical_sym(&perms, spec.maps())
        };
        let mut set = vec![canon];
        expand_terminals(&spec, &mut set);
        assert_eq!(set.len(), 2);
        assert_ne!(set[0], set[1]);
    }
}
