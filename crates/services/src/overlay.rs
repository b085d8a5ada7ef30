//! The gossip overlay: which site pairs exchange summaries directly, and
//! which nodes forward.

/// The gossip overlay: which site pairs exchange summaries directly.
///
/// Full mesh is O(sites²) links; the hierarchical overlays cut that to
/// O(sites) by routing through *forwarding* interior nodes, which aggregate
/// everything they hear into `relayed` sections of their own publications
/// (per-hop rollup). Each link still runs the full seq/ack/resync/snapshot
/// machinery unchanged — the overlay only decides which links exist and who
/// forwards. Because relayed cells stay absolute cumulative values keyed by
/// their *origin* site and receivers merge against a per-origin mirror, any
/// path multiplicity (meshed hubs) or hop count converges to the same view
/// as the full mesh.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum OverlayTopology {
    /// Every site pair exchanges directly (the pre-overlay behavior).
    #[default]
    FullMesh,
    /// A k-ary tree rooted at site 0: site `i > 0` links to its parent
    /// `(i-1)/fanout`; interior nodes forward between their subtrees and
    /// the rest of the tree.
    Tree {
        /// Children per node (clamped to ≥ 1).
        fanout: usize,
    },
    /// The first `hubs` sites form a full mesh among themselves and
    /// forward; every other site links only to its home hub `i % hubs`.
    Hub {
        /// Number of hub sites (clamped to `1..=sites`).
        hubs: usize,
    },
}

impl OverlayTopology {
    /// Sites directly linked to `i` in an `n`-site deployment, ascending.
    pub fn neighbors(&self, i: usize, n: usize) -> Vec<usize> {
        match *self {
            OverlayTopology::FullMesh => (0..n).filter(|&j| j != i).collect(),
            OverlayTopology::Tree { fanout } => {
                let k = fanout.max(1);
                let mut out = Vec::new();
                if i > 0 {
                    out.push((i - 1) / k);
                }
                out.extend((k * i + 1..=k * i + k).take_while(|&c| c < n));
                out.sort_unstable();
                out
            }
            OverlayTopology::Hub { hubs } => {
                let h = hubs.clamp(1, n.max(1));
                if i < h {
                    let mut out: Vec<usize> = (0..h).filter(|&j| j != i).collect();
                    out.extend((h..n).filter(|&leaf| leaf % h == i));
                    out
                } else {
                    vec![i % h]
                }
            }
        }
    }

    /// Whether site `i` is an interior (forwarding) node: one that must
    /// re-publish what it hears so data crosses it. Leaves and full-mesh
    /// members never forward.
    pub fn forwards(&self, i: usize, n: usize) -> bool {
        match *self {
            OverlayTopology::FullMesh => false,
            OverlayTopology::Tree { fanout } => fanout.max(1) * i + 1 < n,
            OverlayTopology::Hub { hubs } => i < hubs.clamp(1, n.max(1)) && n > 1,
        }
    }

    /// Hop depth of site `i` from the overlay core: 0 for full-mesh members,
    /// the tree root, and hub sites; increasing toward the leaves.
    fn node_depth(&self, i: usize, n: usize) -> usize {
        match *self {
            OverlayTopology::FullMesh => 0,
            OverlayTopology::Tree { fanout } => {
                let k = fanout.max(1);
                let mut depth = 0;
                let mut node = i;
                while node > 0 {
                    node = (node - 1) / k;
                    depth += 1;
                }
                depth
            }
            OverlayTopology::Hub { hubs } => {
                if i < hubs.clamp(1, n.max(1)) {
                    0
                } else {
                    1
                }
            }
        }
    }

    /// Depth class of the direct link `(a, b)`: the deeper endpoint, at
    /// least 1 — every link spans one hop, and a depth-`d` link is the hop
    /// that carries data between depth `d-1` and depth `d`.
    pub fn link_depth(&self, a: usize, b: usize, n: usize) -> usize {
        self.node_depth(a, n).max(self.node_depth(b, n)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every overlay must connect all sites, with symmetric links, and the
    /// non-forwarding set must never separate two forwarding components.
    #[test]
    fn overlays_are_connected_and_symmetric() {
        for n in [1usize, 2, 3, 5, 8, 17, 32] {
            for overlay in [
                OverlayTopology::FullMesh,
                OverlayTopology::Tree { fanout: 1 },
                OverlayTopology::Tree { fanout: 2 },
                OverlayTopology::Tree { fanout: 4 },
                OverlayTopology::Hub { hubs: 1 },
                OverlayTopology::Hub { hubs: 3 },
            ] {
                let adj: Vec<Vec<usize>> = (0..n).map(|i| overlay.neighbors(i, n)).collect();
                for (i, nbrs) in adj.iter().enumerate() {
                    for &j in nbrs {
                        assert!(j < n && j != i, "{overlay:?} n={n}: bad link {i}->{j}");
                        assert!(
                            adj[j].contains(&i),
                            "{overlay:?} n={n}: asymmetric link {i}->{j}"
                        );
                    }
                }
                // BFS from 0.
                let mut seen = vec![false; n];
                let mut queue = vec![0usize];
                seen[0] = true;
                while let Some(i) = queue.pop() {
                    for &j in &adj[i] {
                        if !seen[j] {
                            seen[j] = true;
                            queue.push(j);
                        }
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{overlay:?} n={n}: overlay not connected"
                );
            }
        }
    }

    #[test]
    fn forwarding_marks_interior_nodes_only() {
        let tree = OverlayTopology::Tree { fanout: 2 };
        // 7 sites: 0 (root), 1, 2 interior; 3..=6 leaves.
        assert!(tree.forwards(0, 7));
        assert!(tree.forwards(1, 7));
        assert!(tree.forwards(2, 7));
        for leaf in 3..7 {
            assert!(!tree.forwards(leaf, 7));
        }
        let hub = OverlayTopology::Hub { hubs: 2 };
        assert!(hub.forwards(0, 6) && hub.forwards(1, 6));
        for leaf in 2..6 {
            assert!(!hub.forwards(leaf, 6));
        }
        for i in 0..6 {
            assert!(!OverlayTopology::FullMesh.forwards(i, 6));
        }
    }

    #[test]
    fn hub_links_are_sparse() {
        let overlay = OverlayTopology::Hub { hubs: 4 };
        let n = 32;
        let links: usize = (0..n).map(|i| overlay.neighbors(i, n).len()).sum();
        // 4*3 intra-hub (directed) + 28 leaves * 2 directions.
        assert_eq!(links, 12 + 56);
        let full: usize = (0..n)
            .map(|i| OverlayTopology::FullMesh.neighbors(i, n).len())
            .sum();
        assert_eq!(full, 32 * 31);
    }

    #[test]
    fn node_and_link_depths() {
        let mesh = OverlayTopology::FullMesh;
        assert_eq!(mesh.node_depth(5, 8), 0);
        assert_eq!(mesh.link_depth(2, 5, 8), 1, "every link spans one hop");
        let tree = OverlayTopology::Tree { fanout: 2 };
        // 7 sites: 0 root; 1,2 depth 1; 3..=6 depth 2.
        assert_eq!(tree.node_depth(0, 7), 0);
        assert_eq!(tree.node_depth(1, 7), 1);
        assert_eq!(tree.node_depth(2, 7), 1);
        for leaf in 3..7 {
            assert_eq!(tree.node_depth(leaf, 7), 2);
        }
        assert_eq!(tree.link_depth(0, 1, 7), 1);
        assert_eq!(tree.link_depth(1, 3, 7), 2);
        assert_eq!(tree.link_depth(3, 1, 7), 2, "direction-independent");
        let hub = OverlayTopology::Hub { hubs: 2 };
        assert_eq!(hub.node_depth(0, 6), 0);
        assert_eq!(hub.node_depth(4, 6), 1);
        assert_eq!(hub.link_depth(0, 1, 6), 1);
        assert_eq!(hub.link_depth(0, 4, 6), 1);
    }
}
