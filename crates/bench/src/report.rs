//! Plain-text rendering of figure series and result summaries.

use aequus_sim::SimResult;

/// Render a set of named time series as aligned columns (minutes + values),
/// sampling every `step`th sample.
pub fn render_series(title: &str, series: &[(&str, Vec<(f64, f64)>)], step: usize) -> String {
    let mut out = format!("# {title}\n");
    out.push_str(&format!("{:>8}", "t(min)"));
    for (name, _) in series {
        out.push_str(&format!(" {:>10}", name));
    }
    out.push('\n');
    let len = series.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
    let step = step.max(1);
    for i in (0..len).step_by(step) {
        out.push_str(&format!("{:>8.1}", series[0].1[i].0 / 60.0));
        for (_, s) in series {
            out.push_str(&format!(" {:>10.4}", s[i].1));
        }
        out.push('\n');
    }
    out
}

/// Render the per-site telemetry snapshots as a table: counts summed
/// across sites, histograms with total count and the worst (max-p99) site's
/// quantiles. Empty string when the run had telemetry disabled.
pub fn render_telemetry(result: &SimResult) -> String {
    if result.site_telemetry.is_empty() {
        return String::new();
    }
    let mut out = format!("# telemetry ({} sites)\n", result.site_telemetry.len());
    let mut counters: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for snap in &result.site_telemetry {
        for (name, v) in &snap.counters {
            *counters.entry(name.as_str()).or_insert(0) += v;
        }
    }
    out.push_str("counters (summed across sites):\n");
    for (name, v) in &counters {
        out.push_str(&format!("  {name:<44} {v:>12}\n"));
    }
    out.push_str(&format!(
        "histograms (worst site by p99):\n  {:<44} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "name", "count", "p50", "p95", "p99", "max"
    ));
    let mut hist_names: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for snap in &result.site_telemetry {
        hist_names.extend(snap.histograms.keys().map(String::as_str));
    }
    for name in hist_names {
        let total: u64 = result
            .site_telemetry
            .iter()
            .filter_map(|s| s.histograms.get(name).map(|h| h.count))
            .sum();
        let worst = result
            .site_telemetry
            .iter()
            .filter_map(|s| s.histograms.get(name))
            .max_by(|a, b| a.p99.partial_cmp(&b.p99).expect("finite quantiles"));
        if let Some(h) = worst {
            out.push_str(&format!(
                "  {name:<44} {total:>10} {:>10.4} {:>10.4} {:>10.4} {:>10.4}\n",
                h.p50, h.p95, h.p99, h.max
            ));
        }
    }
    if let Some(engine) = &result.engine_telemetry {
        out.push_str("engine:\n");
        for (name, h) in &engine.histograms {
            out.push_str(&format!(
                "  {name:<44} {:>10} p99 {:.6}s max {:.6}s\n",
                h.count, h.p99, h.max
            ));
        }
    }
    out
}

/// Render the standard run summary block (with the telemetry table appended
/// when the run collected telemetry).
pub fn render_summary(name: &str, result: &SimResult) -> String {
    let conv = result
        .metrics
        .convergence_time(crate::BALANCE_EPS, crate::BALANCE_DWELL_S);
    let windows: Vec<String> = result
        .metrics
        .balance_windows(crate::BALANCE_EPS)
        .iter()
        .filter(|(a, b)| b - a >= 600.0)
        .map(|(a, b)| format!("[{:.0},{:.0}]min", a / 60.0, b / 60.0))
        .collect();
    let mut out = format!(
        "# {name}\n\
         jobs completed      : {}/{}\n\
         mean utilization    : {:.1}%\n\
         steady utilization  : {:.1}%\n\
         sustained rate      : {:.0} jobs/min\n\
         peak rate           : {} jobs/min\n\
         first balance window: {}\n\
         balance windows     : {}\n\
         final deviation     : {:.3}\n",
        result.total_completed(),
        result.total_submitted(),
        100.0 * result.mean_utilization(),
        100.0 * crate::steady_utilization(result, 0.1, 0.85),
        result.metrics.sustained_submission_rate(),
        result.metrics.peak_submission_rate(),
        conv.map(|t| format!("{:.0} min", t / 60.0))
            .unwrap_or_else(|| "none".to_string()),
        if windows.is_empty() {
            "none".to_string()
        } else {
            windows.join(" ")
        },
        result.metrics.final_deviation(),
    );
    let telemetry = render_telemetry(result);
    if !telemetry.is_empty() {
        out.push('\n');
        out.push_str(&telemetry);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_sim::{GridScenario, GridSimulation};
    use aequus_workload::users::baseline_policy_shares;

    #[test]
    fn series_render_shape() {
        let s = render_series(
            "test",
            &[
                ("a", vec![(0.0, 1.0), (60.0, 2.0)]),
                ("b", vec![(0.0, 3.0), (60.0, 4.0)]),
            ],
            1,
        );
        assert!(s.contains("# test"));
        assert!(s.lines().count() == 4, "{s}");
        assert!(s.contains("1.0000"));
    }

    #[test]
    fn summary_renders() {
        let r = crate::run_baseline(2000, 1);
        let s = render_summary("baseline", &r);
        assert!(s.contains("jobs completed"));
        assert!(s.contains("2000"));
        assert!(render_telemetry(&r).is_empty(), "telemetry was off");
    }

    #[test]
    fn telemetry_table_renders_when_wired() {
        let sc = GridScenario::national_testbed(&baseline_policy_shares(), 1).with_telemetry();
        let r = GridSimulation::new(sc).run(&crate::baseline_trace(600, 1), 1800.0);
        let s = render_telemetry(&r);
        assert!(s.contains("# telemetry (6 sites)"));
        assert!(s.contains("aequus_uss_records_ingested_total"));
        assert!(s.contains("aequus_rms_dispatch_s"));
        assert!(s.contains("aequus_sim_event_s"), "per site, per event");
        assert!(s.contains("aequus_sim_epoch_s"), "engine, per epoch");
        // The summary embeds the same table.
        assert!(render_summary("t", &r).contains("# telemetry"));
    }
}
