//! Decision provenance: capture every component that produced one served
//! priority — the policy path with per-level shares, the distance
//! decomposition, the fairshare vector, and the projection inputs — in a
//! form compact enough to ship in a flight-recorder dump and precise enough
//! that [`Explanation::replay`] reproduces the served factor **bit-for-bit**.
//!
//! The capture references no tree state: every number needed to re-evaluate
//! the decision is embedded, so an explanation archived at one site can be
//! replayed at another (or months later) and still match exactly. Floats are
//! serialized with Rust's shortest-round-trip formatting (`{:?}`), which
//! `str::parse::<f64>` inverts exactly, so the JSON round-trip is also
//! bit-exact for finite values.

use crate::decay::DecayPolicy;
use crate::fairshare::{FairshareConfig, FairshareTree};
use crate::ids::{EntityPath, GridUser};
use crate::projection::{rank_value, BitwiseVector, DictionaryOrdering, Percental, ProjectionKind};
use crate::vector::{FairshareVector, Resolution};
use aequus_telemetry::json::{escape, JsonValue};

/// One hierarchy level of a user's policy path, with the captured sibling-
/// group shares and the distance decomposition at that level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelExplanation {
    /// Absolute path of the node at this level (e.g. `/physics/alice`).
    pub path: String,
    /// Normalized policy (target) share within the sibling group.
    pub policy_share: f64,
    /// Normalized decayed-usage share within the sibling group.
    pub usage_share: f64,
    /// Relative distance component `(p − u) / max(p, u)`.
    pub rel: f64,
    /// Absolute distance component `p − u`.
    pub abs: f64,
    /// Combined distance `k·rel + (1 − k)·abs`.
    pub distance: f64,
    /// Quantized vector element `scale(distance)`.
    pub element: f64,
}

/// The projection-specific inputs captured alongside the shared components.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectionExplanation {
    /// Product-of-shares difference (§III-C): factor is
    /// `((target − usage) + 1) / 2`.
    Percental {
        /// Product of the per-level policy shares along the path.
        target_product: f64,
        /// Product of the per-level usage shares along the path.
        usage_product: f64,
    },
    /// Bit-merged quantized vector: factor is the merge of the captured
    /// vector under the captured bit budget.
    Bitwise {
        /// Bits of entropy per hierarchy level.
        bits_per_level: u32,
        /// Levels actually merged (depth clamped to the mantissa budget).
        levels: usize,
    },
    /// Rank-based dictionary ordering: factor is
    /// [`rank_value`]`(rank_start, rank_start + tie_count, population)`.
    Dictionary {
        /// 0-based rank of the first vector tied with the user's.
        rank_start: usize,
        /// Number of users sharing that vector (≥ 1, includes this user).
        tie_count: usize,
        /// Total ranked population.
        population: usize,
    },
}

impl ProjectionExplanation {
    /// The algorithm name, matching [`Projection::name`](crate::Projection::name).
    pub fn algorithm(&self) -> &'static str {
        match self {
            ProjectionExplanation::Percental { .. } => "percental",
            ProjectionExplanation::Bitwise { .. } => "bitwise",
            ProjectionExplanation::Dictionary { .. } => "dictionary",
        }
    }
}

/// A complete, self-contained record of one priority decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The grid user the decision was served for.
    pub user: String,
    /// When the fairshare tree behind the decision was computed (seconds).
    pub computed_at_s: f64,
    /// Distance weight `k` at capture time.
    pub k_weight: f64,
    /// Vector element resolution (max value) at capture time.
    pub resolution_max: f64,
    /// Usage decay policy at capture time (decayed usage shares in
    /// [`LevelExplanation`] were produced under it).
    pub decay: DecayPolicy,
    /// Full tree depth the vector is padded to.
    pub tree_depth: usize,
    /// Root→leaf policy path with per-level shares and distance terms.
    pub levels: Vec<LevelExplanation>,
    /// The fairshare vector, padded with the balance point to `tree_depth`.
    pub vector: Vec<f64>,
    /// Projection algorithm and its captured inputs.
    pub projection: ProjectionExplanation,
    /// The factor that was actually served.
    pub factor: f64,
}

impl Explanation {
    /// Capture the full provenance of `user`'s priority under `kind` from a
    /// computed tree. Returns `None` if the user is not in the tree.
    ///
    /// The captured `factor` is computed through the same code paths the
    /// serving side uses, so it equals the served value bit-for-bit.
    pub fn capture(tree: &FairshareTree, user: &GridUser, kind: ProjectionKind) -> Option<Self> {
        let layout = tree.layout();
        let id = layout.user_id(user)?;
        let leaf = tree.leaf_of(id)?;
        let config = *tree.config();
        // The nodes along the path, leaf first; the root has no level.
        let mut chain = Vec::with_capacity(tree.depth());
        let mut cur = leaf;
        while let Some(above) = layout[cur].parent {
            chain.push(cur);
            cur = above;
        }
        let mut levels = Vec::with_capacity(chain.len());
        let mut prefix = EntityPath::root();
        for node in chain.into_iter().rev() {
            prefix = prefix.child(&layout[node].name);
            let state = tree.share_of(node);
            let (p, u) = (state.policy_share, state.usage_share);
            let rel = if p == u {
                0.0
            } else {
                (p - u) / p.max(u).max(f64::MIN_POSITIVE)
            };
            levels.push(LevelExplanation {
                path: format!("{prefix}"),
                policy_share: p,
                usage_share: u,
                rel,
                abs: p - u,
                distance: state.distance,
                element: state.element,
            });
        }
        let vector = tree.vector_of_id(leaf);
        let (projection, factor) = match kind {
            ProjectionKind::Percental => {
                let (target, usage) = Percental::total_shares(tree, leaf);
                (
                    ProjectionExplanation::Percental {
                        target_product: target,
                        usage_product: usage,
                    },
                    ((target - usage) + 1.0) / 2.0,
                )
            }
            ProjectionKind::Bitwise => {
                let proj = BitwiseVector::default();
                let levels_used = proj.levels_for(tree);
                (
                    ProjectionExplanation::Bitwise {
                        bits_per_level: proj.bits_per_level,
                        levels: levels_used,
                    },
                    proj.merge_vector(&vector, levels_used),
                )
            }
            ProjectionKind::Dictionary => {
                let (start, ties, n) = DictionaryOrdering.rank_of(tree, id)?;
                (
                    ProjectionExplanation::Dictionary {
                        rank_start: start,
                        tie_count: ties,
                        population: n,
                    },
                    rank_value(start, start + ties, n),
                )
            }
        };
        Some(Explanation {
            user: user.as_str().to_string(),
            computed_at_s: tree.computed_at_s,
            k_weight: config.k_weight,
            resolution_max: config.resolution.max_value,
            decay: config.decay,
            tree_depth: tree.depth(),
            levels,
            vector: vector.elements().to_vec(),
            projection,
            factor,
        })
    }

    /// Re-evaluate the captured components into a priority factor. Equals
    /// [`factor`](Self::factor) bit-for-bit — the replay uses the identical
    /// arithmetic (and, for bitwise, the identical merge code) the serving
    /// side used.
    pub fn replay(&self) -> f64 {
        match self.projection {
            ProjectionExplanation::Percental {
                target_product,
                usage_product,
            } => ((target_product - usage_product) + 1.0) / 2.0,
            ProjectionExplanation::Bitwise {
                bits_per_level,
                levels,
            } => {
                let vec = FairshareVector::from_elements(
                    self.vector.clone(),
                    Resolution {
                        max_value: self.resolution_max,
                    },
                );
                BitwiseVector::new(bits_per_level).merge_vector(&vec, levels)
            }
            ProjectionExplanation::Dictionary {
                rank_start,
                tie_count,
                population,
            } => rank_value(rank_start, rank_start + tie_count, population),
        }
    }

    /// Cross-check the internal consistency of the capture: every level's
    /// distance decomposition re-derives from its shares under the captured
    /// `k` and resolution, and [`replay`](Self::replay) matches
    /// [`factor`](Self::factor) — all comparisons bit-exact.
    pub fn verify(&self) -> bool {
        let config = FairshareConfig {
            k_weight: self.k_weight,
            resolution: Resolution {
                max_value: self.resolution_max,
            },
            decay: self.decay,
        };
        self.levels.iter().all(|l| {
            let d = config.distance(l.policy_share, l.usage_share);
            d.to_bits() == l.distance.to_bits()
                && config.resolution.scale(d).to_bits() == l.element.to_bits()
                && (self.k_weight * l.rel + (1.0 - self.k_weight) * l.abs).to_bits()
                    == l.distance.to_bits()
        }) && self.replay().to_bits() == self.factor.to_bits()
    }

    /// Render as compact single-line JSON. Finite floats round-trip exactly
    /// through [`from_json`](Self::from_json).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"user\":\"{}\",\"computed_at_s\":{:?},\"k_weight\":{:?},\"resolution_max\":{:?}",
            escape(&self.user),
            self.computed_at_s,
            self.k_weight,
            self.resolution_max
        ));
        s.push_str(",\"decay\":");
        s.push_str(&decay_json(&self.decay));
        s.push_str(&format!(",\"tree_depth\":{}", self.tree_depth));
        s.push_str(",\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"path\":\"{}\",\"policy_share\":{:?},\"usage_share\":{:?},\"rel\":{:?},\
                 \"abs\":{:?},\"distance\":{:?},\"element\":{:?}}}",
                escape(&l.path),
                l.policy_share,
                l.usage_share,
                l.rel,
                l.abs,
                l.distance,
                l.element
            ));
        }
        s.push_str("],\"vector\":[");
        for (i, e) in self.vector.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{e:?}"));
        }
        s.push_str("],\"projection\":");
        match self.projection {
            ProjectionExplanation::Percental {
                target_product,
                usage_product,
            } => s.push_str(&format!(
                "{{\"algorithm\":\"percental\",\"target_product\":{target_product:?},\
                 \"usage_product\":{usage_product:?}}}"
            )),
            ProjectionExplanation::Bitwise {
                bits_per_level,
                levels,
            } => s.push_str(&format!(
                "{{\"algorithm\":\"bitwise\",\"bits_per_level\":{bits_per_level},\
                 \"levels\":{levels}}}"
            )),
            ProjectionExplanation::Dictionary {
                rank_start,
                tie_count,
                population,
            } => s.push_str(&format!(
                "{{\"algorithm\":\"dictionary\",\"rank_start\":{rank_start},\
                 \"tie_count\":{tie_count},\"population\":{population}}}"
            )),
        }
        s.push_str(&format!(",\"factor\":{:?}}}", self.factor));
        s
    }

    /// Parse an explanation previously rendered by [`to_json`](Self::to_json).
    pub fn from_json(s: &str) -> Option<Self> {
        let o = JsonValue::parse(s)?;
        let decay = {
            let d = o.get("decay")?;
            match d.get("kind")?.as_str()? {
                "none" => DecayPolicy::None,
                "exponential" => DecayPolicy::Exponential {
                    half_life_s: d.get("half_life_s")?.as_f64()?,
                },
                "window" => DecayPolicy::Window {
                    window_s: d.get("window_s")?.as_f64()?,
                },
                "linear" => DecayPolicy::Linear {
                    span_s: d.get("span_s")?.as_f64()?,
                },
                _ => return None,
            }
        };
        let levels = o
            .get("levels")?
            .as_array()?
            .iter()
            .map(|l| {
                Some(LevelExplanation {
                    path: l.get("path")?.as_str()?.to_string(),
                    policy_share: l.get("policy_share")?.as_f64()?,
                    usage_share: l.get("usage_share")?.as_f64()?,
                    rel: l.get("rel")?.as_f64()?,
                    abs: l.get("abs")?.as_f64()?,
                    distance: l.get("distance")?.as_f64()?,
                    element: l.get("element")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let vector = o
            .get("vector")?
            .as_array()?
            .iter()
            .map(JsonValue::as_f64)
            .collect::<Option<Vec<_>>>()?;
        let projection = {
            let p = o.get("projection")?;
            match p.get("algorithm")?.as_str()? {
                "percental" => ProjectionExplanation::Percental {
                    target_product: p.get("target_product")?.as_f64()?,
                    usage_product: p.get("usage_product")?.as_f64()?,
                },
                "bitwise" => ProjectionExplanation::Bitwise {
                    bits_per_level: p.get("bits_per_level")?.as_f64()? as u32,
                    levels: p.get("levels")?.as_f64()? as usize,
                },
                "dictionary" => ProjectionExplanation::Dictionary {
                    rank_start: p.get("rank_start")?.as_f64()? as usize,
                    tie_count: p.get("tie_count")?.as_f64()? as usize,
                    population: p.get("population")?.as_f64()? as usize,
                },
                _ => return None,
            }
        };
        Some(Explanation {
            user: o.get("user")?.as_str()?.to_string(),
            computed_at_s: o.get("computed_at_s")?.as_f64()?,
            k_weight: o.get("k_weight")?.as_f64()?,
            resolution_max: o.get("resolution_max")?.as_f64()?,
            decay,
            tree_depth: o.get("tree_depth")?.as_f64()? as usize,
            levels,
            vector,
            projection,
            factor: o.get("factor")?.as_f64()?,
        })
    }

    /// Render a human-readable multi-line account of the decision — the
    /// output of `aequus-bench explain`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "priority for {}: {:.6} ({} projection)\n",
            self.user,
            self.factor,
            self.projection.algorithm()
        ));
        s.push_str(&format!(
            "  tree computed at t={:.1}s, depth {}, k={}, resolution {}, decay {:?}\n",
            self.computed_at_s, self.tree_depth, self.k_weight, self.resolution_max, self.decay
        ));
        s.push_str("  policy path (target vs decayed usage per sibling group):\n");
        for l in &self.levels {
            s.push_str(&format!(
                "    {:<24} target {:.4}  usage {:.4}  rel {:+.4}  abs {:+.4}  \
                 distance {:+.4}  element {:.1}\n",
                l.path, l.policy_share, l.usage_share, l.rel, l.abs, l.distance, l.element
            ));
        }
        let balance = Resolution {
            max_value: self.resolution_max,
        }
        .balance();
        s.push_str(&format!(
            "  fairshare vector (balance point {balance}): [{}]\n",
            self.vector
                .iter()
                .map(|e| format!("{e:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        match self.projection {
            ProjectionExplanation::Percental {
                target_product,
                usage_product,
            } => s.push_str(&format!(
                "  percental: target product {:.6} − usage product {:.6} → \
                 factor (({:.6} − {:.6}) + 1) / 2 = {:.6}\n",
                target_product, usage_product, target_product, usage_product, self.factor
            )),
            ProjectionExplanation::Bitwise {
                bits_per_level,
                levels,
            } => s.push_str(&format!(
                "  bitwise: {bits_per_level} bits/level over {levels} level(s) → factor {:.6}\n",
                self.factor
            )),
            ProjectionExplanation::Dictionary {
                rank_start,
                tie_count,
                population,
            } => s.push_str(&format!(
                "  dictionary: rank {} of {} ({} tied) → factor {:.6}\n",
                rank_start + 1,
                population,
                tie_count,
                self.factor
            )),
        }
        s.push_str(&format!(
            "  replay: {:?} ({})\n",
            self.replay(),
            if self.verify() {
                "bit-exact"
            } else {
                "MISMATCH"
            }
        ));
        s
    }
}

fn decay_json(d: &DecayPolicy) -> String {
    match *d {
        DecayPolicy::None => "{\"kind\":\"none\"}".to_string(),
        DecayPolicy::Exponential { half_life_s } => {
            format!("{{\"kind\":\"exponential\",\"half_life_s\":{half_life_s:?}}}")
        }
        DecayPolicy::Window { window_s } => {
            format!("{{\"kind\":\"window\",\"window_s\":{window_s:?}}}")
        }
        DecayPolicy::Linear { span_s } => {
            format!("{{\"kind\":\"linear\",\"span_s\":{span_s:?}}}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{flat_policy, PolicyNode, PolicyTree};
    use std::collections::BTreeMap;

    fn usage(pairs: &[(&str, f64)]) -> BTreeMap<GridUser, f64> {
        pairs.iter().map(|(n, v)| (GridUser::new(*n), *v)).collect()
    }

    fn nested_tree() -> FairshareTree {
        let policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group(
                    "physics",
                    2.0,
                    vec![PolicyNode::user("alice", 3.0), PolicyNode::user("bob", 1.0)],
                ),
                PolicyNode::group("biology", 1.0, vec![PolicyNode::user("carol", 1.0)]),
            ],
        ))
        .unwrap();
        FairshareTree::compute(
            &policy,
            &usage(&[("alice", 600.0), ("bob", 100.0), ("carol", 300.0)]),
            &FairshareConfig::default(),
            42.0,
        )
    }

    #[test]
    fn capture_replays_bit_for_bit_for_all_projections() {
        let tree = nested_tree();
        for kind in ProjectionKind::ALL {
            let served = tree.by_user(&kind.build().project(&tree))[&GridUser::new("alice")];
            let ex = Explanation::capture(&tree, &GridUser::new("alice"), kind).unwrap();
            assert_eq!(ex.factor.to_bits(), served.to_bits(), "{kind:?} capture");
            assert_eq!(ex.replay().to_bits(), served.to_bits(), "{kind:?} replay");
            assert!(ex.verify(), "{kind:?} verify");
        }
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let tree = nested_tree();
        for kind in ProjectionKind::ALL {
            let ex = Explanation::capture(&tree, &GridUser::new("bob"), kind).unwrap();
            let parsed = Explanation::from_json(&ex.to_json()).unwrap();
            assert_eq!(parsed, ex, "{kind:?}");
            assert_eq!(parsed.replay().to_bits(), ex.factor.to_bits());
            assert!(parsed.verify());
        }
    }

    #[test]
    fn levels_decompose_the_distance() {
        let tree = nested_tree();
        let ex = Explanation::capture(&tree, &GridUser::new("alice"), ProjectionKind::Percental)
            .unwrap();
        assert_eq!(ex.levels.len(), 2);
        assert_eq!(ex.levels[0].path, "/physics");
        assert_eq!(ex.levels[1].path, "/physics/alice");
        for l in &ex.levels {
            let combined = ex.k_weight * l.rel + (1.0 - ex.k_weight) * l.abs;
            assert_eq!(combined.to_bits(), l.distance.to_bits());
        }
        assert_eq!(ex.vector.len(), ex.tree_depth);
    }

    #[test]
    fn missing_user_yields_none() {
        let tree = nested_tree();
        assert!(
            Explanation::capture(&tree, &GridUser::new("ghost"), ProjectionKind::Percental)
                .is_none()
        );
    }

    #[test]
    fn render_mentions_every_component() {
        let tree = nested_tree();
        let ex = Explanation::capture(&tree, &GridUser::new("carol"), ProjectionKind::Dictionary)
            .unwrap();
        let text = ex.render();
        assert!(text.contains("carol"));
        assert!(text.contains("dictionary"));
        assert!(text.contains("/biology/carol"));
        assert!(text.contains("bit-exact"));
    }

    #[test]
    fn flat_tree_explains_too() {
        let policy = flat_policy(&[("a", 0.6), ("b", 0.4)]).unwrap();
        let tree = FairshareTree::compute(
            &policy,
            &usage(&[("a", 10.0), ("b", 990.0)]),
            &FairshareConfig::default(),
            0.0,
        );
        for kind in ProjectionKind::ALL {
            let ex = Explanation::capture(&tree, &GridUser::new("a"), kind).unwrap();
            assert!(ex.verify(), "{kind:?}");
            let parsed = Explanation::from_json(&ex.to_json()).unwrap();
            assert_eq!(parsed, ex);
        }
    }

    #[test]
    fn tampered_capture_fails_verification() {
        let tree = nested_tree();
        let mut ex =
            Explanation::capture(&tree, &GridUser::new("alice"), ProjectionKind::Percental)
                .unwrap();
        ex.factor += 1e-9;
        assert!(!ex.verify(), "altered factor must not verify");
    }
}
