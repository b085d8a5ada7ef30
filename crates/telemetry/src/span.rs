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
//! Tracing is one switch per telemetry domain
//! ([`Telemetry::traced`](crate::Telemetry::traced)): on, every usage report
//! roots a trace; off, a report's context is `None` and no downstream stage
//! does any work.

use std::collections::BTreeMap;

/// The causal context attached to an in-flight traced record: which trace it
/// belongs to and which span is the causal parent of the next hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// Stage name, e.g. `"uss.ingest"` or `"uss.merge"` ([`crate::stage`]).
    pub name: String,
    /// The site that recorded the span.
    pub site: u32,
    /// Domain time the span was recorded at.
    pub t_s: f64,
    /// Free-form detail (user, sequence numbers, …).
    pub detail: String,
}

/// Capacity of a site's span ring and of its decision-record ring.
pub(crate) const STORE_CAP: usize = 4096;

/// Bits of a span id reserved for the per-site sequence; the site tag sits
/// above, so ids allocated independently on different sites never collide.
const SITE_SHIFT: u32 = 40;

/// The `seq`-th span id of `site`: deterministic per site (a plain
/// sequence) and globally unique (the site tag occupies the high bits).
pub(crate) fn span_id(site: u32, seq: u64) -> u64 {
    ((site as u64 + 1) << SITE_SHIFT) | seq
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
        let ia: Vec<u64> = (1..=4).map(|seq| span_id(0, seq)).collect();
        let ib: Vec<u64> = (1..=4).map(|seq| span_id(1, seq)).collect();
        assert!(
            ia.iter().all(|i| !ib.contains(i)),
            "no cross-site collision"
        );
        assert_eq!(ia[0] + 1, ia[1], "same site, plain sequence");
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
            span(1, 200, 101, 1, 2.0, "uss.merge"),
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
        assert!(text.contains("uss.merge @ site 1"));
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
}
