//! Policy Distribution Service (PDS): "responsible for managing user
//! policies both locally and globally by mounting sub-policies from other
//! sources (which may be other PDS services)" (§II-A).

use aequus_core::arena::{DirtySet, UserTable};
use aequus_core::ids::EntityPath;
use aequus_core::policy::{PolicyError, PolicyTree};
use std::collections::BTreeMap;

/// Per-site policy distribution service.
#[derive(Debug, Clone)]
pub struct Pds {
    policy: PolicyTree,
    /// The version the replaced policies had reached: what
    /// [`version`](Self::version) adds to the policy's own, so that a
    /// replacement moves it on instead of restarting it at the new tree's.
    replaced_version: u64,
    /// Sub-policies exported by this PDS, fetchable by other PDS instances.
    exports: BTreeMap<String, PolicyTree>,
    /// Which parts of the policy changed since the FCS last drained this
    /// service: share edits mark their path, structural changes (replace,
    /// mount) mark everything.
    dirty: DirtySet,
}

impl Pds {
    /// Create a PDS serving the given local policy.
    pub fn new(policy: PolicyTree) -> Self {
        Self {
            policy,
            replaced_version: 0,
            exports: BTreeMap::new(),
            dirty: DirtySet::new(),
        }
    }

    /// The currently effective policy tree.
    pub fn policy(&self) -> &PolicyTree {
        &self.policy
    }

    /// The effective policy version (bumps on any change, a replacement
    /// included; FCS uses this to detect staleness).
    pub fn version(&self) -> u64 {
        self.replaced_version + self.policy.version()
    }

    /// Replace the whole local policy (administrative action; exercised by
    /// the non-optimal policy test where targets change relative to load).
    pub fn set_policy(&mut self, policy: PolicyTree) {
        self.replaced_version = self.version();
        self.policy = policy;
        self.dirty.mark_all();
    }

    /// Name the policy's users by the site's ids ([`PolicyTree::key_by`]);
    /// not an edit: version and dirty set stay.
    pub fn key_by(&mut self, users: &mut UserTable) {
        self.policy.key_by(users);
    }

    /// Change one node's share at run time.
    pub fn set_share(&mut self, path: &EntityPath, share: f64) -> Result<(), PolicyError> {
        self.policy.set_share(path, share)?;
        self.dirty.mark_path(path.clone());
        Ok(())
    }

    /// Export a named sub-policy for other PDS instances to mount.
    pub fn export(&mut self, name: impl Into<String>, subtree: PolicyTree) {
        self.exports.insert(name.into(), subtree);
    }

    /// Mount a sub-policy fetched from `provider` into the local tree at
    /// `at` (which must be a mount point naming any source).
    pub fn mount_from(
        &mut self,
        provider: &Pds,
        export_name: &str,
        at: &EntityPath,
    ) -> Result<(), PolicyError> {
        let sub = (provider.exports.get(export_name))
            .ok_or_else(|| PolicyError::NoSuchMountPoint(export_name.to_string()))?;
        self.policy.mount(at, sub)?;
        self.dirty.mark_all(); // mounting changes the tree structure
        Ok(())
    }

    /// Drain the accumulated policy changes since the last drain.
    pub fn take_dirty(&mut self) -> DirtySet {
        self.dirty.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::policy::{flat_policy, PolicyNode, PolicyTree};

    #[test]
    fn mount_from_remote_pds() {
        // National PDS exports the grid-internal subdivision.
        let mut national = Pds::new(flat_policy(&[("placeholder", 1.0)]).unwrap());
        national.export(
            "swegrid",
            flat_policy(&[("U65", 0.65), ("U30", 0.30), ("U3", 0.05)]).unwrap(),
        );

        // Site policy reserves 40% for the grid via a mount point.
        let mut site = Pds::new(
            PolicyTree::new(PolicyNode::group(
                "root",
                1.0,
                vec![
                    PolicyNode::user("local-hpc", 0.6),
                    PolicyNode::mount_point("swegrid", 0.4, "national"),
                ],
            ))
            .unwrap(),
        );
        let v0 = site.version();
        site.mount_from(&national, "swegrid", &EntityPath::parse("/swegrid"))
            .unwrap();
        assert!(site.version() > v0);
        let share = site
            .policy()
            .absolute_share(&EntityPath::parse("/swegrid/U65"))
            .unwrap();
        assert!((share - 0.4 * 0.65).abs() < 1e-12);
    }

    #[test]
    fn missing_export_errors() {
        let national = Pds::new(flat_policy(&[("x", 1.0)]).unwrap());
        let mut site = Pds::new(
            PolicyTree::new(PolicyNode::group(
                "root",
                1.0,
                vec![PolicyNode::mount_point("g", 1.0, "national")],
            ))
            .unwrap(),
        );
        assert!(site
            .mount_from(&national, "nope", &EntityPath::parse("/g"))
            .is_err());
    }

    #[test]
    fn a_replaced_policy_moves_the_version_on() {
        let mut pds = Pds::new(flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap());
        pds.set_share(&EntityPath::parse("/a"), 0.9).unwrap();
        let mut seen = vec![pds.version()];
        for _ in 0..2 {
            pds.set_policy(flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap());
            seen.push(pds.version());
        }
        assert_eq!(seen, [2, 3, 4]);
    }

    #[test]
    fn runtime_share_change_bumps_version() {
        let mut pds = Pds::new(flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap());
        let v0 = pds.version();
        pds.set_share(&EntityPath::parse("/a"), f64::MAX).unwrap();
        assert!(pds.version() > v0);
        // An edit its sibling group cannot sum is refused: no version, no mark.
        pds.take_dirty();
        let v1 = pds.version();
        let r = pds.set_share(&EntityPath::parse("/b"), 1e308);
        assert_eq!(r, Err(PolicyError::InvalidShare("root".into())));
        assert_eq!(pds.version(), v1);
        assert!(pds.take_dirty().is_empty());
    }
}
