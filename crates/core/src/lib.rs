//! # aequus-core
//!
//! The core of the Aequus reproduction: the paper's primary contribution —
//! decentralized grid-wide fairshare prioritization — as a library.
//!
//! The three constituents of the fairshare calculation process (§II-A):
//!
//! 1. **Hierarchical usage policies** ([`policy`]): tree-based target shares
//!    with recursively subdividable subgroups and dynamically *mountable*
//!    sub-policies, so local administrations retain control of their
//!    clusters while grids manage their own internal subdivision.
//! 2. **Usage data** ([`usage`]): per-user resource consumption rolled into
//!    per-interval histograms, exchanged between sites in compact summaries,
//!    aged by configurable [`decay`] functions.
//! 3. **The algorithm** ([`fairshare`]): per-node distances between policy
//!    and usage shares (absolute + relative, weight `k`), extracted as
//!    per-user fairshare [`vector`]s and projected to `[0, 1]` scalars by
//!    three interchangeable [`projection`] algorithms (Table I).

#![warn(missing_docs)]

pub mod arena;
pub mod codec;
pub mod decay;
pub mod explain;
pub mod fairshare;
pub mod ids;
pub mod policy;
pub mod policy_file;
pub mod projection;
pub mod usage;
pub mod vector;

pub use arena::{DirtySet, NodeId, RecomputeStats, UserId, UserTable};
pub use codec::{decode_summary, encode_summary, CodecError, Encoding};
pub use decay::DecayPolicy;
pub use explain::{Explanation, LevelExplanation, ProjectionExplanation};
pub use fairshare::{FairshareConfig, FairshareTree, NodeShare};
pub use ids::{EntityPath, GridUser, JobId, SiteId, SystemUser};
pub use policy::{flat_policy, PolicyError, PolicyLayout, PolicyNode, PolicyNodeKind, PolicyTree};
pub use policy_file::{parse_policy, to_policy_file, PolicyFileError};
pub use projection::{Projection, ProjectionKind};
pub use usage::{CellStore, UsageHistogram, UsageRecord, UsageRow, UsageSummary, UserCells};
pub use vector::{FairshareVector, Resolution};
