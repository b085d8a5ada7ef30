//! Benchmark-owned span recorder: one compact record per call into a layer,
//! kept in memory and reduced at the end to a self-time table and a Chrome
//! trace. Spans live here, outside the program, by design — spans inside
//! the product crates are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans exported to the Chrome trace; the self-time table always covers
/// every span. A million-span file is past what trace viewers load.
const CHROME_TRACE_MAX_SPANS: usize = 200_000;

/// One recorded span. A root's `id` is the request id its children share
/// (follow `parent` links up to it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Index into the recorder's name table.
    pub name: u16,
    /// Site the call ran on (`u16::MAX` for grid-wide work).
    pub site: u16,
    /// Simulated time of the call, seconds.
    pub sim_s: f64,
    /// Wall start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Wall end, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Grid-wide (no single site) marker for [`Span::site`].
pub const GRID: u16 = u16::MAX;

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// Empty recorder; its creation instant is time zero of every span.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Open a span that started at `start_ns` (a reading of [`Self::now_ns`]
    /// taken before the decision to record it — e.g. before a queue pop that
    /// may find nothing due).
    pub fn enter_at(&mut self, name: &'static str, site: u16, sim_s: f64, start_ns: u64) {
        let id = self.spans.len() as u32;
        let name = self.name_id(name);
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            name,
            site,
            sim_s,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Open a span starting now.
    pub fn enter(&mut self, name: &'static str, site: u16, sim_s: f64) {
        let now = self.now_ns();
        self.enter_at(name, site, sim_s, now);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end;
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        site: u16,
        sim_s: f64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(name, site, sim_s);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Reduce the spans to per-name totals.
    pub fn self_times(&self) -> SelfTimes {
        assert!(self.open.is_empty(), "self_times with spans still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            // A child cannot outlast its parent (strict nesting), so this
            // never underflows; saturate anyway rather than trust it.
            let own = total.saturating_sub(child_ns[s.id as usize]);
            by_name
                .entry(self.names[s.name as usize])
                .or_default()
                .push((total, own));
        }
        let layers = by_name
            .into_iter()
            .map(|(name, mut rows)| {
                let self_ns: u64 = rows.iter().map(|r| r.1).sum();
                rows.sort_unstable_by_key(|r| r.0);
                let durations: Vec<u64> = rows.iter().map(|r| r.0).collect();
                let (tail_ns, tail_pct) = tail(&durations);
                (
                    name,
                    LayerTime {
                        calls: durations.len() as u64,
                        self_s: self_ns as f64 / 1e9,
                        tail_us: tail_ns as f64 / 1e3,
                        tail_pct,
                    },
                )
            })
            .collect();
        SelfTimes { layers }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one track per
    /// site, complete (`"ph":"X"`) events, request id and sim time in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let exported = &self.spans[..self.spans.len().min(CHROME_TRACE_MAX_SPANS)];
        let mut out = String::with_capacity(exported.len() * 120 + 256);
        let _ = write!(
            out,
            "{{\"otherData\":{{\"spans_recorded\":{},\"spans_exported\":{}}},\"traceEvents\":[",
            self.spans.len(),
            exported.len()
        );
        for (i, s) in exported.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut root = s;
            while root.parent != NO_PARENT {
                root = &self.spans[root.parent as usize];
            }
            let tid = if s.site == GRID {
                0
            } else {
                u32::from(s.site) + 1
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"sim_s\":{}}}}}",
                self.names[s.name as usize],
                tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                root.id,
                s.sim_s
            );
        }
        out.push_str("]}");
        out
    }
}

/// The tail statistic of sorted `durations`: the highest percentile, up to
/// the 99th, that still has at least ten samples beyond it. Returns the
/// value and the percentile actually used (0 when there are too few samples
/// for any tail — then the value is the median).
fn tail(durations: &[u64]) -> (u64, f64) {
    let n = durations.len();
    if n == 0 {
        return (0, 0.0);
    }
    if n <= 20 {
        return (durations[n / 2], 0.0);
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - 10).max(1);
    (durations[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time (duration minus child spans), seconds.
    pub self_s: f64,
    /// Tail duration, microseconds (see [`tail`]'s rule).
    pub tail_us: f64,
    /// Percentile `tail_us` is, `0` when it is the median.
    pub tail_pct: f64,
}

/// The self-time table.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Per span name.
    pub layers: BTreeMap<&'static str, LayerTime>,
}

impl SelfTimes {
    /// Totals of `name`; zeros when no such span was recorded.
    pub fn get(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or(LayerTime {
            calls: 0,
            self_s: 0.0,
            tail_us: 0.0,
            tail_pct: 0.0,
        })
    }

    /// Self time summed over every span: the wall time the spans account for.
    pub fn covered_s(&self) -> f64 {
        self.layers.values().map(|l| l.self_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a recorder from literal `(name, parent, start, end)` rows.
    fn recorder(rows: &[(&'static str, u32, u64, u64)]) -> SpanRecorder {
        let mut rec = SpanRecorder::new();
        for (i, &(name, parent, start_ns, end_ns)) in rows.iter().enumerate() {
            let name = rec.name_id(name);
            rec.spans.push(Span {
                id: i as u32,
                parent,
                name,
                site: 0,
                sim_s: 0.0,
                start_ns,
                end_ns,
            });
        }
        rec
    }

    #[test]
    fn nested_span_self_time_excludes_children() {
        let rec = recorder(&[
            ("event", NO_PARENT, 0, 100),
            ("tick", 0, 10, 70),
            ("publish", 1, 20, 50),
        ]);
        let t = rec.self_times();
        assert_eq!(t.get("event").self_s, 40e-9);
        assert_eq!(t.get("tick").self_s, 30e-9);
        assert_eq!(t.get("publish").self_s, 30e-9);
        assert!(
            (t.covered_s() - 100e-9).abs() < 1e-18,
            "self times tile the root"
        );
    }

    #[test]
    fn sibling_spans_both_subtract_from_parent() {
        let rec = recorder(&[
            ("event", NO_PARENT, 0, 100),
            ("a", 0, 0, 30),
            ("b", 0, 40, 90),
        ]);
        let t = rec.self_times();
        assert_eq!(t.get("event").self_s, 20e-9);
        assert_eq!(t.get("a").self_s + t.get("b").self_s, 80e-9);
    }

    #[test]
    fn fully_covered_parent_has_zero_self_time() {
        let rec = recorder(&[
            ("event", NO_PARENT, 5, 105),
            ("a", 0, 5, 55),
            ("b", 0, 55, 105),
        ]);
        assert_eq!(rec.self_times().get("event").self_s, 0.0);
    }

    #[test]
    fn enter_exit_nest_and_share_the_root_as_request_id() {
        let mut rec = SpanRecorder::new();
        rec.enter("event", 3, 12.5);
        rec.span("tick", 3, 12.5, || ());
        rec.span("advance", 3, 12.5, || ());
        rec.exit();
        rec.span("route", GRID, 15.0, || ());
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert_eq!((s[0].parent, s[3].parent), (NO_PARENT, NO_PARENT));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let trace = rec.to_chrome_trace();
        assert_eq!(trace.matches("\"request\":0").count(), 3);
        assert!(trace.contains("\"spans_recorded\":4"));
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        let many: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail(&many), (1980, 99.0));
        // 100 samples: p99 would leave one sample beyond it; p90 leaves ten.
        let few: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&few), (90, 90.0));
        assert_eq!(tail(&[7, 8, 9]), (8, 0.0));
        assert_eq!(tail(&[]), (0, 0.0));
    }
}
