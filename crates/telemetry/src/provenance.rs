//! Decision provenance: a bounded store of served-priority explanations.
//!
//! The telemetry crate cannot depend on the core fairshare types, so the
//! explanation body is type-erased: the capturing layer (libaequus, via the
//! FCS) pre-renders the full component breakdown as a JSON string (see
//! `aequus_core::explain`) and this store retains it alongside the serving
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

/// Bounded FIFO store of [`ProvenanceRecord`]s.
#[derive(Debug)]
pub struct ProvenanceStore {
    cap: usize,
    records: Vec<ProvenanceRecord>,
    dropped: u64,
}

impl ProvenanceStore {
    /// Create a store holding at most `cap` records (minimum 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            records: Vec::new(),
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, rec: ProvenanceRecord) {
        if self.records.len() == self.cap {
            self.records.remove(0);
            self.dropped += 1;
        }
        self.records.push(rec);
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> &[ProvenanceRecord] {
        &self.records
    }

    /// Records evicted because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: &str, t: f64) -> ProvenanceRecord {
        ProvenanceRecord {
            t_s: t,
            user: user.to_string(),
            trace_id: 0,
            factor: 0.5,
            json: String::from("{}"),
        }
    }

    #[test]
    fn bounded_fifo() {
        let mut s = ProvenanceStore::new(2);
        s.push(rec("a", 0.0));
        s.push(rec("b", 1.0));
        s.push(rec("c", 2.0));
        assert_eq!(s.records().len(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.records()[0].user, "b");
    }
}
