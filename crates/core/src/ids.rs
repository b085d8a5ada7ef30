//! Identity newtypes shared across the Aequus stack.
//!
//! Grid-wide fairshare requires that the *grid* user identity — not the
//! per-site system account — is attached to every job (§III-B). These types
//! keep the two identity spaces from being confused at compile time.

use std::fmt;

/// A grid-wide user identity (e.g. a certificate DN). This is the identity
/// Aequus uses "throughout the entire fairshare prioritization process".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridUser(pub String);

impl GridUser {
    /// Create a grid user identity from any string-like value.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }
    /// The identity string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for GridUser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for GridUser {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

/// A per-site system account a grid user is mapped to (e.g. `grid0042`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SystemUser(pub String);

impl SystemUser {
    /// Create a system user name.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }
    /// The account name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SystemUser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SystemUser {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

/// A resource site (cluster installation) participating in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A job identifier, unique within the originating submission stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A path through the policy/fairshare hierarchy from the root to an entity,
/// e.g. `/atlas/simulation/alice` (Figure 3 of the paper writes these as
/// `/LQ`, `/HP/u1`, ...).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EntityPath(pub Vec<String>);

impl EntityPath {
    /// The root path (empty).
    pub fn root() -> Self {
        Self(Vec::new())
    }

    /// Parse from a `/`-separated string; leading/trailing slashes ignored.
    pub fn parse(s: &str) -> Self {
        Self(
            s.split('/')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect(),
        )
    }

    /// Number of path components (hierarchy depth of the entity).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Append one component, returning the child path.
    pub fn child(&self, name: &str) -> Self {
        let mut v = self.0.clone();
        v.push(name.to_string());
        Self(v)
    }

    /// The final component, if any (the entity's own name).
    pub fn leaf(&self) -> Option<&str> {
        self.0.last().map(String::as_str)
    }

    /// Path components.
    pub fn components(&self) -> &[String] {
        &self.0
    }
}

impl fmt::Display for EntityPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}", self.0.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_parse_and_display() {
        let p = EntityPath::parse("/HP/u1");
        assert_eq!(p.depth(), 2);
        assert_eq!(p.to_string(), "/HP/u1");
        assert_eq!(p.leaf(), Some("u1"));
        assert_eq!(EntityPath::parse("HP/u1"), p);
        assert_eq!(EntityPath::parse("//HP//u1/"), p);
    }

    #[test]
    fn root_path() {
        let r = EntityPath::root();
        assert!(r.is_root());
        assert_eq!(r.depth(), 0);
        assert_eq!(r.to_string(), "/");
        assert_eq!(r.leaf(), None);
    }

    #[test]
    fn child_builds_path() {
        let p = EntityPath::root().child("grid").child("atlas");
        assert_eq!(p, EntityPath::parse("/grid/atlas"));
    }

    #[test]
    fn identity_types_distinct() {
        let g = GridUser::new("C=SE/O=Uni/CN=alice");
        let s = SystemUser::new("grid0042");
        assert_eq!(g.as_str(), "C=SE/O=Uni/CN=alice");
        assert_eq!(s.to_string(), "grid0042");
    }
}
