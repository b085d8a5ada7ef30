//! Share-policy definition files.
//!
//! Aequus uses the grid identity "throughout the entire fairshare
//! prioritization process ranging from **parsing share policy definitions**
//! to associating newly arrived jobs with historical usage" (§III-B). This
//! module defines that textual format: a line-based, indentation-free policy
//! description an administrator can keep in version control and a PDS can
//! load.
//!
//! ```text
//! # comments and blank lines are ignored
//! /local            60
//! /grid             40   mount=national-pds
//! /grid/atlas       70   user=C=SE/O=CERN/CN=atlas-prod
//! /grid/cms         30
//! ```
//!
//! Rules: one node per line — absolute path, share weight, optional
//! `user=<grid identity>` (leaf) or `mount=<source>` (mount point). Parents
//! may be declared implicitly by their children (they default to groups with
//! the share given on their own line, or weight 1 if never mentioned).
//! Un-annotated leaves become users whose grid identity is the leaf name.
//! A path deeper than [`MAX_DEPTH`] is refused at its line.

use crate::ids::{EntityPath, GridUser};
use crate::policy::{PolicyError, PolicyNode, PolicyNodeKind, PolicyTree};
use std::collections::{HashMap, HashSet};

/// The deepest path a policy file may declare. Share hierarchies are a few
/// levels deep (the paper's are one to three); the walks over a policy
/// tree — validation, export, dropping it — recurse once per level, and a
/// 2 MB thread's stack gives out near 20,000 levels.
pub const MAX_DEPTH: usize = 256;

/// Errors raised when parsing a policy file.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyFileError {
    /// A line could not be split into `path share [attr]`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The same path was declared twice.
    DuplicatePath {
        /// 1-based line number of the second declaration.
        line: usize,
        /// The offending path.
        path: String,
    },
    /// The assembled tree failed policy validation.
    Invalid(PolicyError),
}

impl std::fmt::Display for PolicyFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyFileError::Malformed { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            PolicyFileError::DuplicatePath { line, path } => {
                write!(f, "line {line}: duplicate declaration of {path}")
            }
            PolicyFileError::Invalid(e) => write!(f, "invalid policy: {e}"),
        }
    }
}

impl std::error::Error for PolicyFileError {}

#[derive(Debug, Clone)]
struct Declaration {
    line: usize,
    path: EntityPath,
    share: f64,
    user: Option<GridUser>,
    mount: Option<String>,
}

/// Parse a policy definition file into a [`PolicyTree`].
pub fn parse_policy(text: &str) -> Result<PolicyTree, PolicyFileError> {
    let (mut decls, mut declared) = (Vec::<Declaration>::new(), HashSet::new());
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(path_str) = parts.next() else {
            continue;
        };
        if !path_str.starts_with('/') {
            return Err(PolicyFileError::Malformed {
                line: line_no,
                reason: format!("path must start with '/': {path_str}"),
            });
        }
        let path = EntityPath::parse(path_str);
        if path.is_root() {
            return Err(PolicyFileError::Malformed {
                line: line_no,
                reason: "the root cannot be declared".to_string(),
            });
        }
        if path.depth() > MAX_DEPTH {
            return Err(PolicyFileError::Malformed {
                line: line_no,
                reason: format!("path deeper than {MAX_DEPTH} levels"),
            });
        }
        let share: f64 = parts
            .next()
            .ok_or_else(|| PolicyFileError::Malformed {
                line: line_no,
                reason: "missing share".to_string(),
            })?
            .parse()
            .map_err(|_| PolicyFileError::Malformed {
                line: line_no,
                reason: "share is not a number".to_string(),
            })?;
        let mut user = None;
        let mut mount = None;
        for attr in parts {
            if let Some(v) = attr.strip_prefix("user=") {
                user = Some(GridUser::new(v));
            } else if let Some(v) = attr.strip_prefix("mount=") {
                mount = Some(v.to_string());
            } else {
                return Err(PolicyFileError::Malformed {
                    line: line_no,
                    reason: format!("unknown attribute {attr}"),
                });
            }
        }
        if user.is_some() && mount.is_some() {
            return Err(PolicyFileError::Malformed {
                line: line_no,
                reason: "a node cannot be both a user and a mount point".to_string(),
            });
        }
        if !declared.insert(path.clone()) {
            return Err(PolicyFileError::DuplicatePath {
                line: line_no,
                path: path.to_string(),
            });
        }
        decls.push(Declaration {
            line: line_no,
            path,
            share,
            user,
            mount,
        });
    }

    // Assemble the tree: insert in path-depth order so parents exist first.
    decls.sort_by_key(|d| d.path.depth());
    let mut root = PolicyNode::group("root", 1.0, Vec::new());
    let mut placed = HashMap::new();
    for d in &decls {
        insert(&mut root, d, &mut placed)?;
    }
    // Leaves without annotations become users named after themselves.
    promote_bare_leaves(&mut root);
    PolicyTree::new(root).map_err(PolicyFileError::Invalid)
}

/// Each node inserted so far, by its parent's number (the root's is 0) and
/// its name: its own number and its place among its siblings.
type Placed<'a> = HashMap<(usize, &'a str), (usize, usize)>;

/// Insert `d` under `root`, finding its parent by one lookup in `placed`
/// per level — never by scanning a sibling group.
fn insert<'a>(
    root: &mut PolicyNode,
    d: &'a Declaration,
    placed: &mut Placed<'a>,
) -> Result<(), PolicyFileError> {
    let comps = d.path.components();
    let Some((leaf_name, parents)) = comps.split_last() else {
        return Err(PolicyFileError::Malformed {
            line: d.line,
            reason: "the root cannot be declared".to_string(),
        });
    };
    let (mut node, mut number) = (root, 0);
    // Walk/create intermediate groups.
    for comp in parents {
        let fresh = placed.len() + 1;
        let (at, pos) = *placed.entry((number, comp)).or_insert_with(|| {
            node.children
                .push(PolicyNode::group(comp.clone(), 1.0, Vec::new()));
            (fresh, node.children.len() - 1)
        });
        (number, node) = (at, &mut node.children[pos]);
    }
    if let Some(&(_, pos)) = placed.get(&(number, leaf_name.as_str())) {
        // Declared after being implicitly created as a parent: set its share.
        node.children[pos].share = d.share;
        return Ok(());
    }
    let new_node = if let Some(user) = &d.user {
        PolicyNode::user_with_identity(leaf_name.clone(), d.share, user.clone())
    } else if let Some(source) = &d.mount {
        PolicyNode::mount_point(leaf_name.clone(), d.share, source.clone())
    } else {
        // May become a group if children follow, or a user if it stays bare.
        PolicyNode::group(leaf_name.clone(), d.share, Vec::new())
    };
    placed.insert((number, leaf_name), (placed.len() + 1, node.children.len()));
    node.children.push(new_node);
    Ok(())
}

fn promote_bare_leaves(node: &mut PolicyNode) {
    for child in &mut node.children {
        promote_bare_leaves(child);
        if child.children.is_empty() && matches!(child.kind, PolicyNodeKind::Group) {
            child.kind = PolicyNodeKind::User(GridUser::new(child.name.clone()));
        }
    }
}

/// Serialize a policy tree back to the file format (stable round-trip).
pub fn to_policy_file(tree: &PolicyTree) -> String {
    let mut out = String::from("# Aequus share policy\n");
    fn walk(node: &PolicyNode, path: &EntityPath, out: &mut String) {
        for child in &node.children {
            let child_path = path.child(&child.name);
            let attr = match &child.kind {
                PolicyNodeKind::User(u) if u.as_str() != child.name => {
                    format!("   user={}", u.as_str())
                }
                PolicyNodeKind::MountPoint { source } => format!("   mount={source}"),
                _ => String::new(),
            };
            out.push_str(&format!(
                "{:<24} {}{}\n",
                child_path.to_string(),
                child.share,
                attr
            ));
            walk(child, &child_path, out);
        }
    }
    walk(&tree.to_node(), &EntityPath::root(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# site policy
/local            60
/grid             40   mount=national-pds
/grid/atlas       70   user=CN=atlas-prod
/grid/cms         30
";

    #[test]
    fn parses_sample() {
        let t = parse_policy(SAMPLE).unwrap();
        assert!((t.absolute_share(&EntityPath::parse("/local")).unwrap() - 0.6).abs() < 1e-12);
        assert!(
            (t.absolute_share(&EntityPath::parse("/grid/atlas")).unwrap() - 0.4 * 0.7).abs()
                < 1e-12
        );
        // atlas carries an explicit grid identity; cms defaults to its name.
        let users = t.users();
        assert!(users.iter().any(|(_, u)| u.as_str() == "CN=atlas-prod"));
        assert!(users.iter().any(|(_, u)| u.as_str() == "cms"));
        // /local is a bare leaf → a user named local.
        assert!(users.iter().any(|(_, u)| u.as_str() == "local"));
    }

    #[test]
    fn implicit_parent_then_declared() {
        let text = "/g/a 1\n/g 5\n";
        let t = parse_policy(text).unwrap();
        // /g got its declared share even though /g/a came first.
        let g = t.layout().node_at(&EntityPath::parse("/g")).unwrap();
        assert_eq!(t.shares()[g.index()], 5.0);
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            parse_policy("nopath 1\n"),
            Err(PolicyFileError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            parse_policy("/a\n"),
            Err(PolicyFileError::Malformed { .. })
        ));
        assert!(matches!(
            parse_policy("/a x\n"),
            Err(PolicyFileError::Malformed { .. })
        ));
        assert!(matches!(
            parse_policy("/a 1 frobnicate=yes\n"),
            Err(PolicyFileError::Malformed { .. })
        ));
        assert!(matches!(
            parse_policy("/a 1 user=x mount=y\n"),
            Err(PolicyFileError::Malformed { .. })
        ));
    }

    #[test]
    fn the_root_is_refused_at_its_line() {
        assert!(matches!(
            parse_policy("/a 1\n/ 1\n"),
            Err(PolicyFileError::Malformed { line: 2, .. })
        ));
        // `insert` refuses it too, rather than reading a leaf name off an
        // empty path.
        let root_decl = Declaration {
            line: 7,
            path: EntityPath::parse("/"),
            share: 1.0,
            user: None,
            mount: None,
        };
        let mut root = PolicyNode::group("root", 1.0, Vec::new());
        assert!(matches!(
            insert(&mut root, &root_decl, &mut HashMap::new()),
            Err(PolicyFileError::Malformed { line: 7, .. })
        ));
    }

    #[test]
    fn rejects_duplicates() {
        assert!(matches!(
            parse_policy("/a 1\n/a 2\n"),
            Err(PolicyFileError::DuplicatePath { line: 2, .. })
        ));
    }

    #[test]
    fn a_path_past_the_depth_limit_is_refused_at_its_line() {
        // 100,000 levels in one 200 KB line: refused before any node is
        // built, where the recursive walks would overflow the stack.
        let deep = format!("/x 1\n{} 1\n", "/a".repeat(100_000));
        let refused = parse_policy(&deep);
        assert!(
            matches!(refused, Err(PolicyFileError::Malformed { line: 2, .. })),
            "{refused:?}"
        );
        let deepest = format!("{} 1\n", "/a".repeat(MAX_DEPTH));
        let t = parse_policy(&deepest).unwrap();
        assert_eq!(t.layout().depth(), MAX_DEPTH);
        let deeper = format!("{} 1\n", "/a".repeat(MAX_DEPTH + 1));
        assert!(matches!(
            parse_policy(&deeper),
            Err(PolicyFileError::Malformed { line: 1, .. })
        ));
    }

    #[test]
    fn a_flat_policy_of_100k_users_round_trips() {
        // Linear in declarations: a duplicate or sibling scan per line
        // makes this take minutes.
        let users: Vec<(String, f64)> = (0..100_000)
            .map(|i| (format!("u{i:06}"), 1.0 + (i % 7) as f64 / 4.0))
            .collect();
        let users: Vec<(&str, f64)> = users.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let tree = crate::policy::flat_policy(&users).unwrap();
        let text = to_policy_file(&tree);
        assert_eq!(parse_policy(&text), Ok(tree));
    }

    #[test]
    fn roundtrip() {
        let t = parse_policy(SAMPLE).unwrap();
        let text = to_policy_file(&t);
        let back = parse_policy(&text).unwrap();
        assert_eq!(back.users().len(), t.users().len());
        for (path, user) in t.users() {
            assert!(
                (back.absolute_share(&path).unwrap() - t.absolute_share(&path).unwrap()).abs()
                    < 1e-12,
                "{path}"
            );
            assert_eq!(back.path_of_user(&user), Some(path));
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let t = parse_policy("# only comments\n\n   \n/a 1\n").unwrap();
        assert_eq!(t.users().len(), 1);
    }
}
