//! `explain` — why was this priority served.

use crate::cli::{Args, Gates};
use aequus_rms::{explain_combined, PriorityWeights};
use aequus_telemetry::{SpanRecord, SpanTree};

/// Explain a decision: replay a fully-traced scenario and print, for one
/// (user, site), the end-to-end causal span tree of the pipeline that
/// produced the served priority plus the human-readable decision provenance
/// — every captured component replays the served factor bit-for-bit.
///
/// Defaults: the dominant model user `U65`, site `0`, a 4,000-job
/// compressed trace.
pub(super) fn explain(args: &Args, gates: &mut Gates) {
    let user = args.text(0).unwrap_or("U65");
    let site = args.num(1).unwrap_or(0);
    let jobs = args.num(2).unwrap_or(4_000);

    let result = crate::run_traced(jobs, 42);
    let found = match result.site_provenance.get(site) {
        None => Err(format!(
            "site {site} out of range ({} sites)",
            result.site_provenance.len()
        )),
        Some(recs) => (recs.iter().rev())
            .find(|r| r.explanation.user == user)
            .ok_or_else(|| {
                let mut seen: Vec<&str> =
                    recs.iter().map(|r| r.explanation.user.as_str()).collect();
                seen.sort_unstable();
                seen.dedup();
                format!("captured users: {seen:?}")
            }),
    };
    let rec = match found {
        Ok(rec) => rec,
        Err(why) => {
            let gate = format!("a traced decision exists for user {user} at site {site}");
            return gates.check(&gate, false, &why);
        }
    };

    println!(
        "# decision provenance: user {user}, site {site}, t={:.0}s, trace {:#x}",
        rec.t_s, rec.trace_id
    );
    println!();
    println!("## causal tree (report → ingest → publish → gossip → refresh → query)");
    let stores: Vec<&[SpanRecord]> = result.site_spans.iter().map(Vec::as_slice).collect();
    let trees = SpanTree::for_trace(&stores, rec.trace_id);
    if trees.is_empty() {
        println!(
            "(trace {:#x} evicted from the bounded span stores)",
            rec.trace_id
        );
    }
    for tree in &trees {
        print!("{}", tree.render());
    }

    let (ex, served) = (&rec.explanation, rec.served);
    println!();
    println!("## fairshare explanation");
    print!("{}", ex.render());
    let replay = ex.replay();
    println!(
        "replay: {replay:?} — bit-for-bit match: {}",
        ex.verify() && replay.to_bits() == served.to_bits()
    );

    // The RMS tail of the decision: the multifactor combination under the
    // test bed's fairshare-only weights.
    let b = explain_combined(&PriorityWeights::fairshare_only(), served, 0.0, 0.5, 1.0);
    println!();
    println!("## RMS multifactor combination");
    print!("{}", b.render());
    println!("multifactor replay match: {}", b.verify());
}
