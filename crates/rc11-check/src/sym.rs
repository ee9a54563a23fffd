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

#[cfg(test)]
use crate::fxhash::{fingerprint, Fp128, IdBucket};
use crate::fxhash::FxHashMap;
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

/// Orbit expansion over one symmetry spec: the enumeration of a canonical
/// representative's distinct orbit members other than itself, each with
/// the first group permutation (in [`SymmetrySpec::group_perms_flat`]
/// order) producing it. A walk keeps one, so the group, its index and the
/// member scratch are built once.
///
/// Members are built by permutation, not by encoding: a thread
/// permutation leaves op ids untouched, so `σ(canon)`
/// ([`Config::permuted_into`]) of a canonical `canon` is already the
/// canonical form of that member. Duplicates are excluded through the
/// representative's stabiliser `Stab = { g : g(canon) = canon }`:
/// `σ(canon) = τ(canon)` iff `σ ∈ τ·Stab`, so each distinct member is
/// produced by the first permutation of its coset `σ·Stab`, and the
/// identity's coset — `Stab` itself — produces `canon`. With a trivial
/// stabiliser (every thread distinguishable, the common case) every
/// non-identity permutation is a new member.
pub(crate) struct Orbits<'s> {
    spec: &'s SymmetrySpec,
    /// Every group permutation, `n` bytes each, back to back.
    group: Vec<u8>,
    n: usize,
    /// Each group permutation's position in `group`, built the first time
    /// a representative has a non-trivial stabiliser.
    index: FxHashMap<Vec<u8>, u32>,
    /// Scratch: the stabiliser's positions in `group`, which positions an
    /// earlier coset already produced, a composed permutation and the
    /// member being built.
    stab: Vec<u32>,
    done: Vec<bool>,
    composed: Vec<u8>,
    member: Option<Config>,
}

impl<'s> Orbits<'s> {
    /// Orbit expansion over `spec`'s group.
    pub(crate) fn new(spec: &'s SymmetrySpec) -> Orbits<'s> {
        Orbits {
            spec,
            group: spec.group_perms_flat(),
            n: spec.n_threads(),
            index: FxHashMap::default(),
            stab: Vec::new(),
            done: Vec::new(),
            composed: Vec::new(),
            member: None,
        }
    }

    /// The spec the orbits are taken under.
    pub(crate) fn spec(&self) -> &'s SymmetrySpec {
        self.spec
    }

    /// Expand a terminal/deadlock set in place: append every distinct
    /// non-representative orbit member of each entry. Distinct
    /// representatives have disjoint orbits, so no cross-entry dedup is
    /// needed and the result equals the unreduced search's set.
    pub(crate) fn expand(&mut self, cfgs: &mut Vec<Config>) {
        let mut extra = Vec::new();
        for c in cfgs.iter() {
            self.for_each_member(c, |_, m| extra.push(m.clone()));
        }
        cfgs.extend(extra);
    }

    /// Call `f(σ, member)` for each distinct orbit member of the canonical
    /// representative `canon` other than `canon` itself, in group order,
    /// `σ` being the first group permutation producing it. States fixed by
    /// a subgroup yield fewer members than `orbit_size() - 1`. `member` is
    /// scratch, overwritten by the next call: clone it to keep it.
    pub(crate) fn for_each_member(&mut self, canon: &Config, mut f: impl FnMut(&[u8], &Config)) {
        let maps = self.spec.maps();
        let member = self.member.get_or_insert_with(|| canon.clone());
        self.stab.clear();
        for (k, g) in self.group.chunks_exact(self.n).enumerate() {
            if fixes_control(canon, g, maps) {
                canon.permuted_into(g, maps, member);
                if member == canon {
                    self.stab.push(k as u32);
                }
            }
        }
        if self.stab.len() == 1 {
            for g in self.group.chunks_exact(self.n).filter(|g| !is_identity(g)) {
                canon.permuted_into(g, maps, member);
                f(g, member);
            }
            return;
        }
        if self.index.is_empty() {
            let perms = self.group.chunks_exact(self.n).enumerate();
            self.index = perms.map(|(k, g)| (g.to_vec(), k as u32)).collect();
        }
        self.done.clear();
        self.done.resize(self.group.len() / self.n, false);
        for (k, sigma) in self.group.chunks_exact(self.n).enumerate() {
            if self.done[k] {
                continue;
            }
            // Mark the coset σ·Stab: every permutation in it produces
            // the same member as σ.
            for &s in &self.stab {
                let s = &self.group[s as usize * self.n..][..self.n];
                self.composed.clear();
                self.composed.extend(s.iter().map(|&t| sigma[t as usize]));
                self.done[self.index[&self.composed] as usize] = true;
            }
            if !self.stab.contains(&(k as u32)) {
                canon.permuted_into(sigma, maps, member);
                f(sigma, member);
            }
        }
    }
}

/// The control-state half of `g(canon) = canon`: every thread `g` moves
/// has the pc and, in representative numbering, the register file of
/// the thread it moves to. A cheap necessary condition that rules out
/// most permutations before their memory is built.
fn fixes_control(canon: &Config, g: &[u8], maps: &SymMaps) -> bool {
    g.iter().enumerate().all(|(t, &j)| {
        let j = j as usize;
        if t == j {
            return true;
        }
        let (ft, fj) = (canon.locals(t), canon.locals(j));
        let (rt, rj) = (&maps.from_rep[t], &maps.from_rep[j]);
        canon.pc(t) == canon.pc(j)
            && rt.len() == rj.len()
            && rt.iter().zip(rj).all(|(&a, &b)| ft[a as usize] == fj[b as usize])
    })
}

/// The distinct orbit members of canonical state `canon` other than
/// `canon`, each with the first group permutation producing it, by the
/// encode→decode construction: each member `σ(canon)` is encoded with σ
/// installed in `canon`'s canonical permutations, deduplicated by
/// fingerprint and word comparison against the members found so far, and
/// decoded. The specification [`Orbits::for_each_member`] is tested
/// against.
#[cfg(test)]
pub(crate) fn orbit_members_spec(spec: &SymmetrySpec, canon: &Config) -> Vec<(Vec<u8>, Config)> {
    let maps = Some(spec.maps());
    let mut perms = canon.mem.canonical_perms();
    // Every distinct member's words back to back, `canon`'s first: member
    // `k` is `words[starts[k]..starts[k + 1]]`.
    let mut words = Vec::new();
    canon.encode_canonical(&perms, maps, &mut words);
    let mut starts = vec![0, words.len()];
    let mut seen: FxHashMap<Fp128, IdBucket> = FxHashMap::default();
    seen.insert(fingerprint(&words), IdBucket::One(0));
    let mut out: Vec<(Vec<u8>, Config)> = Vec::new();
    for sigma in spec.group_perms() {
        if is_identity(&sigma) {
            continue;
        }
        perms.threads.clone_from(&sigma);
        let at = words.len();
        canon.encode_canonical(&perms, maps, &mut words);
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
        out.push((sigma, Config::decode(&words[at..])));
    }
    out
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

    /// The members [`Orbits::for_each_member`] lists for `canon`, kept.
    fn members_of(orbits: &mut Orbits<'_>, canon: &Config) -> Vec<(Vec<u8>, Config)> {
        let mut out = Vec::new();
        orbits.for_each_member(canon, |sigma, m| out.push((sigma.to_vec(), m.clone())));
        out
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
        let mut orbits = Orbits::new(&spec);
        assert!(members_of(&mut orbits, &init).is_empty());
        // After one step the orbit has exactly two states: the rep and its
        // mirror.
        let succs =
            rc11_lang::successors(&prog, &rc11_lang::NoObjects, &init, Default::default());
        assert!(!succs.is_empty());
        let canon = {
            let (mut perms, mut words) = (CanonPerms::default(), Vec::new());
            encode(Some(&spec), &succs[0].1, &mut perms, &mut words);
            Config::decode(&words)
        };
        let members = members_of(&mut orbits, &canon);
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
        Orbits::new(&spec).expand(&mut set);
        assert_eq!(set.len(), 2);
        assert_ne!(set[0], set[1]);
    }

    /// Hold orbit expansion by permutation to the encode→decode
    /// specification, members and permutations in order, on up to `cap`
    /// canonical states of `prog` (the reference explorer's, so
    /// representatives and non-representatives alike); returns the number
    /// of states with a non-trivial stabiliser.
    fn orbits_agree_with_spec(name: &str, prog: &CfgProgram, cap: usize) -> usize {
        let spec = thread_symmetry(prog);
        let mut orbits = Orbits::new(&spec);
        let mut stabilised = 0;
        crate::reference::explore(prog, crate::objects_of(prog), cap, |canon, _| {
            let members = members_of(&mut orbits, canon);
            assert_eq!(members, orbit_members_spec(&spec, canon), "{name}: {canon:?}");
            stabilised += usize::from(members.len() + 1 < spec.orbit_size());
        });
        stabilised
    }

    /// Every symmetric corpus file, and generated programs whose threads
    /// are clones of one body.
    #[test]
    fn orbit_members_by_permutation_equal_the_encode_decode_construction() {
        let (mut corpus, mut generated, mut stabilised) = (0, 0, 0);
        for (name, prog) in crate::test_programs(200) {
            if thread_symmetry(&prog).is_trivial() {
                continue;
            }
            let is_corpus = !name.starts_with("seed");
            *(if is_corpus { &mut corpus } else { &mut generated }) += 1;
            stabilised += orbits_agree_with_spec(&name, &prog, if is_corpus { 3_000 } else { 500 });
        }
        assert!(corpus >= 5, "{corpus} symmetric corpus files");
        assert!(generated >= 20, "{generated} symmetric generated programs");
        assert!(stabilised > 0, "no state with a non-trivial stabiliser was compared");
    }
}
