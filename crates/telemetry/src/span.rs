//! Causal spans: the trace-context propagation layer.
//!
//! Where the pipeline-delay tracer measures *aggregate* per-stage delay
//! distributions, spans answer the per-record question "what happened to
//! *this* usage report": a sampled report starts a **trace**, and every
//! pipeline stage it passes through — USS ingest, summary publication, each
//! gossip hop (including retries, resyncs, and snapshot catch-ups), UMS/UMS
//! refresh, FCS recompute, and the libaequus query that finally serves the
//! updated priority — records a [`SpanRecord`] causally linked to its
//! predecessor through a [`TraceCtx`].
//!
//! A `TraceCtx` is deliberately tiny (two `u64`s) and `Copy`, so it can ride
//! inside the USS wire messages across sites and be retained per published
//! sequence number for retransmission. Span ids embed the owning site, so
//! ids allocated independently on different sites never collide and a
//! [`SpanTree`] can be assembled from the union of all per-site stores.
//!
//! Sampling is controlled by [`SpanConfig::sample_every`]; `0` means the
//! layer is wired but never samples — the *enabled-but-unsampled* mode whose
//! cost on the hot path is one branch per report (the ctx stays `None`, so
//! no downstream stage does any work).

use std::collections::BTreeMap;

/// The causal context attached to an in-flight traced record: which trace it
/// belongs to and which span is the causal parent of the next hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace this record belongs to (the root span's id).
    pub trace_id: u64,
    /// The most recent span on this causal path; the next recorded span
    /// becomes its child.
    pub span: u64,
}

/// One recorded causal span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique across sites; embeds the owning site).
    pub span_id: u64,
    /// The causal parent's span id; `0` for a trace root.
    pub parent_span: u64,
    /// Stage name, e.g. `"uss.ingest"` or `"gossip.merge"`.
    pub name: String,
    /// The site that recorded the span.
    pub site: u32,
    /// Domain time the span was recorded at.
    pub t_s: f64,
    /// Free-form detail (user, sequence numbers, …).
    pub detail: String,
}

/// Capacity of a site's bounded span store and of its provenance store;
/// the oldest entry is evicted (and counted) beyond this.
pub(crate) const STORE_CAP: usize = 4096;

/// Span-layer configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanConfig {
    /// Sample every Nth trace root (`start_trace` call); `0` disables
    /// sampling entirely (wired but inert), `1` traces every report.
    pub sample_every: u64,
    /// The owning site, embedded in allocated span ids so independently
    /// allocated ids never collide across sites.
    pub site: u32,
    /// Whether decision provenance ([`crate::provenance`]) is captured.
    pub capture_provenance: bool,
}

impl SpanConfig {
    /// Full-capture configuration for site `site`: every report traced,
    /// provenance captured.
    pub fn full(site: u32) -> Self {
        Self {
            sample_every: 1,
            site,
            capture_provenance: true,
        }
    }
}

/// The per-site bounded span store. Lives behind the
/// [`Telemetry`](crate::Telemetry) facade; sites on different "machines"
/// each own one and a [`SpanTree`] merges them.
#[derive(Debug)]
pub struct SpanStore {
    cap: usize,
    spans: Vec<SpanRecord>,
    dropped: u64,
    /// Next local span sequence number (combined with the site tag).
    next_seq: u64,
    site: u32,
}

impl SpanStore {
    /// Bits reserved for the per-site sequence; the site tag sits above.
    const SITE_SHIFT: u32 = 40;

    /// Create a store for `site` holding at most `cap` spans.
    pub fn new(site: u32, cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            spans: Vec::new(),
            dropped: 0,
            next_seq: 0,
            site,
        }
    }

    /// Allocate the next span id: deterministic per site (a plain sequence)
    /// and globally unique (the site tag occupies the high bits).
    pub fn alloc_id(&mut self) -> u64 {
        self.next_seq += 1;
        ((self.site as u64 + 1) << Self::SITE_SHIFT) | self.next_seq
    }

    /// Append a span, evicting the oldest when full.
    pub fn push(&mut self, span: SpanRecord) {
        if self.spans.len() == self.cap {
            self.spans.remove(0);
            self.dropped += 1;
        }
        self.spans.push(span);
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Spans evicted because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The owning site.
    pub fn site(&self) -> u32 {
        self.site
    }
}

/// One node of a reconstructed causal tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTree {
    /// The span at this node.
    pub record: SpanRecord,
    /// Child spans, ordered by recording time (ties by span id).
    pub children: Vec<SpanTree>,
}

impl SpanTree {
    /// Assemble causal trees from the union of per-site span stores. Spans
    /// whose parent is missing (evicted, or the parent site's store was not
    /// provided) become additional roots of their trace, so partial data
    /// still renders. Returns the roots grouped by trace, in trace-id order.
    pub fn assemble(stores: &[&[SpanRecord]]) -> Vec<SpanTree> {
        let mut all: Vec<&SpanRecord> = stores.iter().flat_map(|s| s.iter()).collect();
        all.sort_by(|a, b| {
            a.trace_id
                .cmp(&b.trace_id)
                .then(a.t_s.partial_cmp(&b.t_s).expect("finite span times"))
                .then(a.span_id.cmp(&b.span_id))
        });
        let ids: BTreeMap<u64, usize> = all
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span_id, i))
            .collect();
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for (i, span) in all.iter().enumerate() {
            match ids.get(&span.parent_span) {
                Some(&p) if span.parent_span != 0 => children.entry(p).or_default().push(i),
                _ => roots.push(i),
            }
        }
        fn build(
            i: usize,
            all: &[&SpanRecord],
            children: &BTreeMap<usize, Vec<usize>>,
        ) -> SpanTree {
            SpanTree {
                record: all[i].clone(),
                children: children
                    .get(&i)
                    .map(|c| c.iter().map(|&j| build(j, all, children)).collect())
                    .unwrap_or_default(),
            }
        }
        roots
            .into_iter()
            .map(|i| build(i, &all, &children))
            .collect()
    }

    /// All trees belonging to `trace_id`, from [`assemble`](Self::assemble)d
    /// stores.
    pub fn for_trace(stores: &[&[SpanRecord]], trace_id: u64) -> Vec<SpanTree> {
        Self::assemble(stores)
            .into_iter()
            .filter(|t| t.record.trace_id == trace_id)
            .collect()
    }

    /// Total spans in this tree.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(SpanTree::len).sum::<usize>()
    }

    /// Whether the tree is a lone root (no children).
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Greatest depth (a lone root has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanTree::depth).max().unwrap_or(0)
    }

    /// Render as an indented ASCII tree for human consumption.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let r = &self.record;
        out.push_str(&format!(
            "{:indent$}{} @ site {} t={:.1}s [{}]{}{}\n",
            "",
            r.name,
            r.site,
            r.t_s,
            r.span_id,
            if r.detail.is_empty() { "" } else { " — " },
            r.detail,
            indent = indent * 2
        ));
        for c in &self.children {
            c.render_into(out, indent + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, site: u32, t: f64, name: &str) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_span: parent,
            name: name.to_string(),
            site,
            t_s: t,
            detail: String::new(),
        }
    }

    #[test]
    fn ids_are_unique_across_sites_and_deterministic() {
        let mut a = SpanStore::new(0, 8);
        let mut b = SpanStore::new(1, 8);
        let ia: Vec<u64> = (0..4).map(|_| a.alloc_id()).collect();
        let ib: Vec<u64> = (0..4).map(|_| b.alloc_id()).collect();
        assert!(
            ia.iter().all(|i| !ib.contains(i)),
            "no cross-site collision"
        );
        let mut a2 = SpanStore::new(0, 8);
        let ia2: Vec<u64> = (0..4).map(|_| a2.alloc_id()).collect();
        assert_eq!(ia, ia2, "same site, same sequence");
    }

    #[test]
    fn store_bounds_and_counts_evictions() {
        let mut s = SpanStore::new(0, 2);
        for i in 0..5 {
            s.push(span(1, i + 10, 0, 0, i as f64, "x"));
        }
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.spans()[0].span_id, 13, "oldest evicted first");
    }

    #[test]
    fn assemble_merges_cross_site_stores() {
        // Trace 1: root at site 0, a gossip hop lands its child at site 1,
        // whose refresh chain continues there.
        let site0 = vec![
            span(1, 100, 0, 0, 0.0, "rms.report"),
            span(1, 101, 100, 0, 1.0, "uss.publish"),
        ];
        let site1 = vec![
            span(1, 200, 101, 1, 2.0, "gossip.merge"),
            span(1, 201, 200, 1, 3.0, "fcs.refresh"),
        ];
        let trees = SpanTree::assemble(&[&site0, &site1]);
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.record.name, "rms.report");
        assert_eq!(t.len(), 4);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.children[0].children[0].record.site, 1);
        let text = t.render();
        assert!(text.contains("gossip.merge @ site 1"));
    }

    #[test]
    fn missing_parent_becomes_extra_root() {
        let orphan = vec![span(7, 300, 999, 2, 5.0, "ums.refresh")];
        let trees = SpanTree::assemble(&[&orphan]);
        assert_eq!(trees.len(), 1, "orphan still renders as a root");
        assert!(trees[0].is_empty());
    }

    #[test]
    fn for_trace_filters() {
        let s = vec![span(1, 10, 0, 0, 0.0, "a"), span(2, 20, 0, 0, 0.0, "b")];
        let t = SpanTree::for_trace(&[&s], 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].record.name, "b");
    }

    #[test]
    fn full_config_samples_everything() {
        let c = SpanConfig::full(3);
        assert_eq!(c.sample_every, 1);
        assert_eq!(c.site, 3);
        assert!(c.capture_provenance);
        assert_eq!(SpanConfig::default().sample_every, 0, "default stays inert");
    }
}
