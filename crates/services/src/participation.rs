//! Participation modes in the global usage exchange (§IV-A-4, "Partial
//! Cluster Participation"): a subset of interconnected Aequus installations
//! may not fully take part "due to misconfiguration, local policies, or
//! legislation".

/// How a site takes part in the global usage-data exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParticipationMode {
    /// Normal operation: contributes local usage and consumes global usage.
    Full,
    /// "Only reads global usage data but does not contribute": prioritizes
    /// on global + local data, publishes nothing.
    ReadOnly,
    /// "Contributes data but only considers local data for job
    /// prioritization".
    LocalOnly,
    /// Neither receiving nor contributing — "disjunct from any other
    /// installations", with no impact on their operations.
    Disjunct,
}

impl ParticipationMode {
    /// Whether this site publishes its usage to peers.
    pub fn contributes(&self) -> bool {
        matches!(self, ParticipationMode::Full | ParticipationMode::LocalOnly)
    }

    /// Whether this site folds peer usage into its own prioritization.
    pub fn reads_global(&self) -> bool {
        matches!(self, ParticipationMode::Full | ParticipationMode::ReadOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_matrix() {
        assert!(ParticipationMode::Full.contributes());
        assert!(ParticipationMode::Full.reads_global());
        assert!(!ParticipationMode::ReadOnly.contributes());
        assert!(ParticipationMode::ReadOnly.reads_global());
        assert!(ParticipationMode::LocalOnly.contributes());
        assert!(!ParticipationMode::LocalOnly.reads_global());
        assert!(!ParticipationMode::Disjunct.contributes());
        assert!(!ParticipationMode::Disjunct.reads_global());
    }
}
