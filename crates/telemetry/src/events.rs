//! Notable events — cache evictions, forced full rebuilds, gossip merges.
//! A telemetry domain retains the most recent ones in a [`crate::Ring`].

/// One structured event.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryEvent {
    /// Simulated/domain time of the event in seconds; `-1.0` when the
    /// emitting call site has no clock (e.g. PDS policy edits).
    pub t_s: f64,
    /// Dot-separated event kind, e.g. `"fcs.full_rebuild"`. Owned (not
    /// `&'static str`) so archived snapshots can be parsed back.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}
