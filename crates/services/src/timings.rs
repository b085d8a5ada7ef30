//! Service timing configuration.
//!
//! §IV-A-2 enumerates the delay chain from job completion to fairshare
//! impact: "(I) reporting delay from the local resource manager to Aequus,
//! (II) cache time in USS, UMS, and FCS services, (III) cache time in
//! libaequus, (IV) local resource manager re-prioritization interval."
//! Every stage is an explicit, independently configurable parameter here —
//! the update-delay experiment (Figure 11) works by scaling the workload
//! while holding these constant.

/// All update/processing delays in the Aequus pipeline, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTimings {
    /// (I) Delay from job completion in the RMS until the usage record
    /// reaches the local USS.
    pub report_delay_s: f64,
    /// (II-a) USS summary publication interval (cross-site exchange period).
    pub uss_publish_interval_s: f64,
    /// (II-b) UMS usage-tree refresh interval (UMS cache time).
    pub ums_refresh_interval_s: f64,
    /// (II-c) FCS fairshare-tree precomputation interval (FCS cache time).
    pub fcs_refresh_interval_s: f64,
    /// (III) libaequus client-side cache TTL for fairshare values.
    pub lib_cache_ttl_s: f64,
    /// (III) libaequus client-side cache TTL for identity resolutions.
    pub lib_identity_ttl_s: f64,
    /// Network latency for USS↔USS summary exchange.
    pub exchange_latency_s: f64,
}

impl Default for ServiceTimings {
    /// Production-like service cadence. §IV-A-2's point is precisely that
    /// these delays "cannot be shortened with the corresponding rate" when a
    /// year's workload is compressed into six hours — so the defaults are
    /// sized like a real deployment (minutes-scale cache intervals), making
    /// the pipeline a visible fraction of the compressed tests' convergence
    /// time.
    fn default() -> Self {
        Self {
            report_delay_s: 10.0,
            uss_publish_interval_s: 180.0,
            ums_refresh_interval_s: 180.0,
            fcs_refresh_interval_s: 180.0,
            lib_cache_ttl_s: 60.0,
            lib_identity_ttl_s: 600.0,
            exchange_latency_s: 5.0,
        }
    }
}

impl ServiceTimings {
    /// Total worst-case pipeline delay from job completion to the value
    /// being visible through libaequus (excluding the RMS re-prioritization
    /// interval, which is an RMS-side parameter).
    pub fn worst_case_pipeline_s(&self) -> f64 {
        self.report_delay_s
            + self.uss_publish_interval_s
            + self.exchange_latency_s
            + self.ums_refresh_interval_s
            + self.fcs_refresh_interval_s
            + self.lib_cache_ttl_s
    }

    /// The worst-case delay contribution of each pipeline stage, in chain
    /// order, as `(stage name, seconds)` — what the fig11 companion plots
    /// the measured per-stage delays against. The names are
    /// `aequus_telemetry::stage`'s, which also holds the histogram each
    /// stage's measured delay lands in.
    pub fn stage_caps(&self) -> [(&'static str, f64); 5] {
        [
            ("uss.ingest", self.report_delay_s),
            (
                "uss.publish",
                self.uss_publish_interval_s + self.exchange_latency_s,
            ),
            ("ums.refresh", self.ums_refresh_interval_s),
            ("fcs.refresh", self.fcs_refresh_interval_s),
            ("lib.query", self.lib_cache_ttl_s),
        ]
    }

    /// How long a publisher should wait for a delivery acknowledgment before
    /// retrying: the exchange round trip (summary out, ack back) plus one
    /// extra latency of scheduling slack, floored at one second. The
    /// reliability layer uses this as its default backoff base
    /// (`RetryPolicy::from_timings` in `aequus-services`).
    pub fn ack_deadline_s(&self) -> f64 {
        (3.0 * self.exchange_latency_s).max(1.0)
    }

    /// Scale every delay by `factor` (used by delay-sensitivity ablations).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            report_delay_s: self.report_delay_s * factor,
            uss_publish_interval_s: self.uss_publish_interval_s * factor,
            ums_refresh_interval_s: self.ums_refresh_interval_s * factor,
            fcs_refresh_interval_s: self.fcs_refresh_interval_s * factor,
            lib_cache_ttl_s: self.lib_cache_ttl_s * factor,
            lib_identity_ttl_s: self.lib_identity_ttl_s * factor,
            exchange_latency_s: self.exchange_latency_s * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_is_sum_of_stages() {
        let t = ServiceTimings::default();
        let expected = 10.0 + 180.0 + 5.0 + 180.0 + 180.0 + 60.0;
        assert!((t.worst_case_pipeline_s() - expected).abs() < 1e-12);
    }

    #[test]
    fn stage_caps_sum_to_worst_case() {
        // The per-stage decomposition and the scalar bound must agree —
        // the fig11 companion relies on this when stacking stage caps.
        for timings in [
            ServiceTimings::default(),
            ServiceTimings::default().scaled(0.25),
            ServiceTimings {
                report_delay_s: 1.0,
                uss_publish_interval_s: 2.0,
                ums_refresh_interval_s: 3.0,
                fcs_refresh_interval_s: 4.0,
                lib_cache_ttl_s: 5.0,
                lib_identity_ttl_s: 6.0,
                exchange_latency_s: 7.0,
            },
        ] {
            let sum: f64 = timings.stage_caps().iter().map(|(_, s)| s).sum();
            assert!((sum - timings.worst_case_pipeline_s()).abs() < 1e-12);
            for (stage, _) in timings.stage_caps() {
                let known = aequus_telemetry::stage::find(stage);
                assert!(known.is_some_and(|s| s.delay.is_some()), "{stage}");
            }
        }
    }

    #[test]
    fn worst_case_excludes_identity_ttl() {
        // Identity resolution is off the fairshare-value path; its TTL must
        // not inflate the §IV-A-2 bound.
        let mut t = ServiceTimings::default();
        let before = t.worst_case_pipeline_s();
        t.lib_identity_ttl_s = 1e6;
        assert_eq!(t.worst_case_pipeline_s(), before);
    }

    #[test]
    fn zero_timings_collapse_the_pipeline() {
        let t = ServiceTimings::default().scaled(0.0);
        assert_eq!(t.worst_case_pipeline_s(), 0.0);
        assert!(t.stage_caps().iter().all(|(_, s)| *s == 0.0));
    }

    #[test]
    fn ack_deadline_covers_the_round_trip() {
        let t = ServiceTimings::default();
        assert!(t.ack_deadline_s() > 2.0 * t.exchange_latency_s);
        // Degenerate zero-latency deployments still get a positive deadline.
        assert_eq!(ServiceTimings::default().scaled(0.0).ack_deadline_s(), 1.0);
    }

    #[test]
    fn scaling_is_uniform() {
        let t = ServiceTimings::default().scaled(2.0);
        assert_eq!(t.report_delay_s, 20.0);
        assert_eq!(t.uss_publish_interval_s, 360.0);
        assert!(
            (t.worst_case_pipeline_s() - 2.0 * ServiceTimings::default().worst_case_pipeline_s())
                .abs()
                < 1e-9
        );
    }
}
