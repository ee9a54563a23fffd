//! Identifier types shared across the workspace: threads, components,
//! locations and operation ids.
//!
//! The paper partitions global state into a **client** component `γ` and a
//! **library** component `β` (Section 3.2). Every location (shared variable
//! or abstract object) belongs to exactly one component, and each component
//! state tracks only its own locations.

use std::fmt;

/// The most threads a program may have: thread ids are `u8`, so a 257th
/// thread would alias thread 0's views. Front ends reject larger programs.
pub const MAX_THREADS: usize = u8::MAX as usize + 1;

/// The most locations one component may have: [`Loc`] is a `u16`.
pub const MAX_LOCS: usize = u16::MAX as usize + 1;

/// A thread identifier. Threads are dense small integers `0..n_threads`
/// (at most [`MAX_THREADS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(pub u8);

impl Tid {
    /// Index form, for dense per-thread tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0 + 1)
    }
}

/// Which component a step executes in, or a location belongs to.
///
/// In the combined semantics of Section 3.2, a *client* step treats `γ` as
/// the executing state and `β` as the context; a *library* step swaps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Comp {
    /// The client component (`γ`, locations in `GVar_C`).
    Client,
    /// The library component (`β`, locations in `GVar_L` plus objects).
    Lib,
}

impl Comp {
    /// Index form (`Client = 0`, `Lib = 1`), for two-element tables.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Comp::Client => 0,
            Comp::Lib => 1,
        }
    }

    /// The other component — the *context* of a step executed in `self`.
    #[inline]
    pub fn other(self) -> Comp {
        match self {
            Comp::Client => Comp::Lib,
            Comp::Lib => Comp::Client,
        }
    }
}

impl fmt::Display for Comp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Comp::Client => write!(f, "C"),
            Comp::Lib => write!(f, "L"),
        }
    }
}

/// A location *within one component*: either a shared global variable or an
/// abstract object (the paper extends views from `GVar` to objects in
/// Section 4 — an object behaves as one more view-tracked location).
///
/// Locations are dense indices into the component's [`LocTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(pub u16);

impl Loc {
    /// Index form, for dense per-location tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// What kind of entity a location is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocKind {
    /// A plain shared variable (read/write/update accesses).
    Var,
    /// An abstract object (method-call operations; Section 4).
    Obj,
}

/// A stable identifier for an operation in a component's history.
///
/// Ids are assigned in insertion order and never change within a state; the
/// *timestamp order* of Figure 5 is represented separately, as the position
/// of the id in the per-location modification-order vector. Canonicalisation
/// (`canon` module) renumbers ids deterministically so that states reached by
/// different interleavings compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// Index form, for dense per-operation tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Per-component table of location names and kinds, fixed at initialisation.
///
/// Only used for construction-time layout and human-readable output — the
/// hot paths use raw [`Loc`] indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocTable {
    names: Vec<String>,
    kinds: Vec<LocKind>,
}

impl LocTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a location; returns its dense index.
    pub fn add(&mut self, name: impl Into<String>, kind: LocKind) -> Loc {
        assert!(self.names.len() < MAX_LOCS, "too many locations (at most {MAX_LOCS})");
        let loc = Loc(self.names.len() as u16);
        self.names.push(name.into());
        self.kinds.push(kind);
        loc
    }

    /// Number of registered locations.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff no locations are registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of `loc` (for display and error messages).
    pub fn name(&self, loc: Loc) -> &str {
        &self.names[loc.idx()]
    }

    /// The kind of `loc`.
    pub fn kind(&self, loc: Loc) -> LocKind {
        self.kinds[loc.idx()]
    }

    /// Look a location up by name.
    pub fn lookup(&self, name: &str) -> Option<Loc> {
        self.names.iter().position(|n| n == name).map(|i| Loc(i as u16))
    }

    /// Iterate over all locations.
    pub fn iter(&self) -> impl Iterator<Item = Loc> + '_ {
        (0..self.names.len()).map(|i| Loc(i as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comp_other_is_involutive() {
        assert_eq!(Comp::Client.other(), Comp::Lib);
        assert_eq!(Comp::Lib.other(), Comp::Client);
        assert_eq!(Comp::Client.other().other(), Comp::Client);
    }

    #[test]
    fn comp_indices_are_distinct() {
        assert_ne!(Comp::Client.idx(), Comp::Lib.idx());
    }

    #[test]
    fn loc_table_round_trip() {
        let mut t = LocTable::new();
        let d = t.add("d", LocKind::Var);
        let l = t.add("l", LocKind::Obj);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(d), "d");
        assert_eq!(t.kind(l), LocKind::Obj);
        assert_eq!(t.lookup("l"), Some(l));
        assert_eq!(t.lookup("nope"), None);
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Tid(0).to_string(), "T1");
        assert_eq!(Loc(3).to_string(), "ℓ3");
        assert_eq!(OpId(7).to_string(), "#7");
    }
}
