//! Thread-symmetry reduction support for the walk (ablation A6).
//!
//! Detection and the per-state canonical choice live in
//! [`rc11_analyze::symmetry`]; this module holds the engine-side glue:
//! the symmetry-aware canonical encoding, the transport of POR thread masks into
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

use crate::fxhash::{fingerprint, Fp128, FxHashMap, IdBucket};
use crate::por::ThreadMask;
use rc11_analyze::{thread_symmetry, SymmetrySpec};
use rc11_core::CanonPerms;
use rc11_lang::cfg::CfgProgram;
use rc11_lang::machine::{Config, SymMaps};

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

/// Encode `cfg` canonically into the scratch `words` (cleared first):
/// the walk's one canonical step per successor. Under a symmetry spec the
/// encoding is that of the orbit representative — the canonical group
/// permutation ([`SymmetrySpec::choose_into`]) joins the op permutations
/// in the scratch `perms`, where the caller finds it afterwards. Reuses
/// both buffers: a walk keeps one of each for all its probes.
pub(crate) fn encode(
    symm: Option<&SymmetrySpec>,
    cfg: &Config,
    perms: &mut CanonPerms,
    words: &mut Vec<u32>,
) {
    cfg.mem.canonical_perms_into(perms);
    if let Some(spec) = symm {
        spec.choose_into(cfg, perms);
    }
    words.clear();
    cfg.encode_canonical(perms, symm.map(SymmetrySpec::maps), words);
}

/// The canonical form of `cfg` with its threads permuted by `sigma`,
/// decoded from the encoding under `sigma`: how trace steps and resumed
/// violations rebuild a non-representative orbit member.
pub(crate) fn permuted(cfg: &Config, sigma: &[u8], maps: &SymMaps) -> Config {
    let perms = CanonPerms { threads: sigma.to_vec(), ..cfg.mem.canonical_perms() };
    let mut words = Vec::new();
    cfg.encode_canonical(&perms, Some(maps), &mut words);
    Config::decode(&words)
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
/// Each member `σ(canon)` is encoded with σ installed in `canon`'s
/// canonical permutations (`canon` is canonical, so that encoding is
/// exactly the canonical form of `canon.permute_threads(σ)`), deduplicated
/// by fingerprint and word comparison against the members found so far,
/// and only a novel member is decoded. The scratch `perms` is
/// overwritten.
pub(crate) fn orbit_members(
    spec: &SymmetrySpec,
    group: &[Vec<u8>],
    canon: &Config,
    perms: &mut CanonPerms,
) -> Vec<(Vec<u8>, Config)> {
    let maps = Some(spec.maps());
    canon.mem.canonical_perms_into(perms);
    // Every distinct member's words back to back, `canon`'s first: member
    // `k` is `words[starts[k]..starts[k + 1]]`.
    let mut words = Vec::new();
    canon.encode_canonical(perms, maps, &mut words);
    let mut starts = vec![0, words.len()];
    let mut seen: FxHashMap<Fp128, IdBucket> = FxHashMap::default();
    seen.insert(fingerprint(&words), IdBucket::One(0));
    let mut out: Vec<(Vec<u8>, Config)> = Vec::new();
    for sigma in group {
        if is_identity(sigma) {
            continue;
        }
        perms.threads.clear();
        perms.threads.extend_from_slice(sigma);
        let at = words.len();
        canon.encode_canonical(perms, maps, &mut words);
        let (known, member) = words.split_at(at);
        let fp = fingerprint(member);
        let member_words = |k: u32| &known[starts[k as usize]..starts[k as usize + 1]];
        let known = |bucket: &IdBucket| bucket.ids().iter().any(|&k| member_words(k) == member);
        if seen.get(&fp).is_some_and(known) {
            words.truncate(at);
            continue;
        }
        let id = (starts.len() - 1) as u32;
        seen.entry(fp).and_modify(|bucket| bucket.push(id)).or_insert(IdBucket::One(id));
        starts.push(words.len());
        out.push((sigma.clone(), Config::decode(&words[at..])));
    }
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
            let mut words = Vec::new();
            encode(Some(&spec), &succs[0].1, &mut perms, &mut words);
            Config::decode(&words)
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
            let (mut perms, mut words) = (CanonPerms::default(), Vec::new());
            encode(Some(&spec), &succs[0].1, &mut perms, &mut words);
            Config::decode(&words)
        };
        let mut set = vec![canon];
        expand_terminals(&spec, &mut set);
        assert_eq!(set.len(), 2);
        assert_ne!(set[0], set[1]);
    }
}
