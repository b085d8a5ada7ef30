//! A run's telemetry is read as in-memory [`crate::Snapshot`] values; the
//! crate's JSON reader, [`JsonValue`], reads the documents the program
//! writes.

pub use crate::json::JsonValue;
