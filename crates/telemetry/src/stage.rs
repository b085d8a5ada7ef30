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
/// then the stages off the usage path (dispatch, the durable store), then
/// the engine's: `sim.build` builds the grid before a run, [`ROOTS`] tile
/// the run, an epoch round holds [`EPOCH_PARTS`], and every other engine
/// row runs inside `sim.event`.
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
    stage("store.checkpoint", Some("aequus_store_checkpoint_s"), None),
    stage("store.replay", Some("aequus_store_wal_replay_s"), None),
    stage("sim.build", Some("aequus_sim_build_s"), None),
    stage("sim.preroute", Some("aequus_sim_preroute_s"), None),
    stage("sim.epoch", Some("aequus_sim_epoch_s"), None),
    stage("sim.event", Some("aequus_sim_event_s"), None),
    stage("rms.submit", Some("aequus_rms_submit_s"), None),
    stage("site.tick", Some("aequus_site_tick_s"), None),
    stage("rms.advance", Some("aequus_rms_advance_s"), None),
    stage("site.crash", Some("aequus_site_crash_s"), None),
    stage("site.recover", Some("aequus_site_recover_s"), None),
    stage("uss.poll", Some("aequus_uss_poll_s"), None),
    stage("uss.deliver", Some("aequus_uss_deliver_s"), None),
    stage("codec.wire_size", Some("aequus_codec_wire_size_s"), None),
    stage("sim.sample", Some("aequus_sim_sample_s"), None),
    stage("sim.assemble", Some("aequus_sim_assemble_s"), None),
    stage("sim.route", Some("aequus_sim_route_s"), None),
    stage("sim.finish", Some("aequus_sim_finish_s"), None),
];

/// The root stages: one after another they time a whole engine run.
pub const ROOTS: [&str; 3] = ["sim.preroute", "sim.epoch", "sim.finish"];

/// What an epoch round (`sim.epoch`) is made of, beside the epoch loop's
/// own bookkeeping: each shard's events and sample fragment, the
/// coordinator's sample assembly and its routing of the staged sends.
pub const EPOCH_PARTS: [&str; 4] = ["sim.event", "sim.sample", "sim.assemble", "sim.route"];

/// The stage called `name`, if the vocabulary has it.
pub fn find(name: &str) -> Option<&'static Stage> {
    STAGES.iter().find(|s| s.name == name)
}

/// The stages the pipeline tracer measures a traced record's delay at, in
/// pipeline order.
pub const TRACED: [&str; 5] = [
    "uss.ingest",
    "uss.publish",
    "ums.refresh",
    "fcs.refresh",
    "lib.query",
];

/// The sim-time delay histogram of stage `name`, if it has one.
pub fn delay_histogram(name: &str) -> Option<&'static str> {
    find(name).and_then(|s| s.delay)
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
        assert_eq!(
            delay_histogram("lib.query"),
            Some("aequus_tracer_lib_delay_s")
        );
        assert_eq!(delay_histogram("uss.merge"), None);
        let checkpoint = find("store.checkpoint").and_then(|s| s.wall);
        assert_eq!(checkpoint, Some("aequus_store_checkpoint_s"));
        assert!(find("gossip.merge").is_none(), "the old spelling is gone");
    }
}
