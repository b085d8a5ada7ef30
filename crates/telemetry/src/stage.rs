//! The one stage vocabulary: every pipeline stage under the name the repo
//! benchmark (`BENCHMARK.json`) reports it by, next to the registry
//! histograms that measure it. A causal span, a folded-profile row, a
//! Figure 11 delay row and a benchmark per-layer metric that mean the same
//! stage carry the same name because they all read it from here.

/// One pipeline stage and the histograms that measure it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// The stage's name, as causal spans, the folded profile and the
    /// benchmark's per-layer metrics spell it.
    pub name: &'static str,
    /// Wall seconds the stage's code ran, per call (`aequus_*_s`).
    pub wall: Option<&'static str>,
    /// Sim-time delay until a traced usage record becomes visible at this
    /// stage, measured from the previous one (`aequus_tracer_*_delay_s`).
    pub delay: Option<&'static str>,
}

const fn stage(
    name: &'static str,
    wall: Option<&'static str>,
    delay: Option<&'static str>,
) -> Stage {
    Stage { name, wall, delay }
}

/// Every stage, in pipeline order: report → USS → UMS → FCS → `libaequus`,
/// then the stages off the usage path (dispatch, the durable store).
pub const STAGES: &[Stage] = &[
    stage("rms.report", None, None),
    stage(
        "uss.ingest",
        Some("aequus_uss_ingest_s"),
        Some("aequus_tracer_report_delay_s"),
    ),
    stage(
        "uss.publish",
        Some("aequus_uss_publish_s"),
        Some("aequus_tracer_publish_delay_s"),
    ),
    stage("uss.merge", Some("aequus_uss_receive_s"), None),
    stage(
        "ums.refresh",
        Some("aequus_ums_refresh_s"),
        Some("aequus_tracer_ums_delay_s"),
    ),
    stage("fcs.refresh", None, Some("aequus_tracer_fcs_delay_s")),
    stage("fcs.refresh_full", Some("aequus_fcs_refresh_full_s"), None),
    stage(
        "fcs.refresh_incr",
        Some("aequus_fcs_refresh_incremental_s"),
        None,
    ),
    stage("lib.query", None, Some("aequus_tracer_lib_delay_s")),
    stage("rms.dispatch", Some("aequus_rms_dispatch_s"), None),
    stage("store.append", Some("aequus_store_wal_append_s"), None),
    stage("store.replay", Some("aequus_store_wal_replay_s"), None),
];

/// The stage called `name`, if the vocabulary has it.
pub fn find(name: &str) -> Option<&'static Stage> {
    STAGES.iter().find(|s| s.name == name)
}

/// The sim-time delay histogram of stage `name`; panics on a name without
/// one — the callers are this crate's tracer and the Figure 11 table, whose
/// stage lists are fixed.
pub fn delay_histogram(name: &str) -> &'static str {
    find(name)
        .and_then(|s| s.delay)
        .unwrap_or_else(|| panic!("stage {name} has no delay histogram"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_histograms_are_unique() {
        let mut names: Vec<&str> = STAGES.iter().map(|s| s.name).collect();
        let mut hists: Vec<&str> = STAGES
            .iter()
            .flat_map(|s| [s.wall, s.delay])
            .flatten()
            .collect();
        let (n, h) = (names.len(), hists.len());
        names.sort_unstable();
        names.dedup();
        hists.sort_unstable();
        hists.dedup();
        assert_eq!((names.len(), hists.len()), (n, h));
        assert_eq!(delay_histogram("lib.query"), "aequus_tracer_lib_delay_s");
        assert!(find("gossip.merge").is_none(), "the old spelling is gone");
    }
}
