//! Decision provenance: served-priority explanations, retained in a
//! [`crate::Ring`] per telemetry domain.
//!
//! The telemetry crate cannot depend on the core fairshare types, so the
//! explanation body is type-erased: the capturing layer (libaequus, via the
//! FCS) pre-renders the full component breakdown as a JSON string (see
//! `aequus_core::explain`) and the record retains it alongside the serving
//! metadata — who asked, when, which trace carried the underlying usage, and
//! the factor actually served. Replaying the JSON through
//! `aequus_core::explain::Explanation::from_json` reproduces the served
//! priority bit-for-bit.

/// One captured decision.
#[derive(Clone, Debug, PartialEq)]
pub struct ProvenanceRecord {
    /// Domain time the decision was served at.
    pub t_s: f64,
    /// The grid user the priority was served for.
    pub user: String,
    /// The trace whose pipeline delivered the inputs, when the serving
    /// refresh was traced; `0` otherwise.
    pub trace_id: u64,
    /// The fairshare factor actually served.
    pub factor: f64,
    /// The pre-rendered `Explanation` JSON (component breakdown).
    pub json: String,
}
