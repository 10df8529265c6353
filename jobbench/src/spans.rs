//! In-memory spans for the traced run, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start, end]` seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, where the layer is the crate called into
    /// (`storage`, `workloads`, `core`, `bench`) or a root (`job`, `setup`).
    pub name: String,
    /// Seconds since the epoch when the call started.
    pub start: f64,
    /// Seconds since the epoch when the call returned.
    pub end: f64,
    /// Index of the span that made the call; `None` for a root.
    pub parent: Option<usize>,
    /// The traced job (or setup pass) this span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans when enabled; when disabled, records nothing and never
/// reads the clock, so the same pipeline runs traced and untraced.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// The id `open` returns when tracing is off.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    /// A tracer recording spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Start a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, job: u64) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent: parent.filter(|&p| p != NO_SPAN),
            job,
        });
        self.spans.len() - 1
    }

    /// End span `id`.
    pub fn close(&mut self, id: usize) {
        if id != NO_SPAN {
            self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Everything recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per root span: its index and the summed duration of its descendants
/// by name.
pub fn sums_by_root(spans: &[Span]) -> Vec<(usize, BTreeMap<String, f64>)> {
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none())
        .collect();
    roots
        .into_iter()
        .map(|r| {
            let mut sums = BTreeMap::new();
            for (i, s) in spans.iter().enumerate() {
                if i != r && root_of(spans, i) == r {
                    *sums.entry(s.name.clone()).or_insert(0.0) += s.seconds();
                }
            }
            (r, sums)
        })
        .collect()
}

fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Self time of span `i`: its duration minus the part of it that its
/// children's intervals cover.
pub fn self_time(spans: &[Span], i: usize) -> f64 {
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start.max(spans[i].start), s.end.min(spans[i].end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    spans[i].seconds() - covered
}

/// Self time per layer within the tree under `root`, the root included.
pub fn self_by_layer(spans: &[Span], root: usize) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for i in 0..spans.len() {
        if root_of(spans, i) == root {
            *out.entry(spans[i].layer().to_owned()).or_insert(0.0) += self_time(spans, i);
        }
    }
    out
}

/// The summed duration of `root`'s direct children.
pub fn children_sum(spans: &[Span], root: usize) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::seconds)
        .sum()
}

/// One JSON object per line, preceded by a header object of `facts`.
pub fn to_jsonl(spans: &[Span], facts: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in facts.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{k}\":\"{}\"",
            addict_bench::jsontext::escape(v)
        );
    }
    out.push_str("}\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"job\":{}}}",
            s.name, s.start, s.end, s.job
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("bench.pool_get", 1.0, 4.0, Some(0)),
            span("storage.populate", 1.0, 3.0, Some(1)),
            // Overlapping siblings count once.
            span("core.replay.a", 5.0, 8.0, Some(0)),
            span("core.replay.b", 6.0, 9.0, Some(0)),
        ];
        assert!((self_time(&spans, 0) - 3.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 1.0).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 2.0).abs() < 1e-12);
        let layers = self_by_layer(&spans, 0);
        assert!((layers["job"] - 3.0).abs() < 1e-12);
        assert!((layers["bench"] - 1.0).abs() < 1e-12);
        assert!((layers["core"] - 6.0).abs() < 1e-12);
        // Overlapping children sum past the covered time.
        assert!((children_sum(&spans, 0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn serial_layer_self_times_partition_the_root() {
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("bench.pool_get", 1.0, 4.0, Some(0)),
            span("storage.populate", 1.0, 3.0, Some(1)),
            span("core.replay.a", 5.0, 8.0, Some(0)),
        ];
        let total: f64 = self_by_layer(&spans, 0).values().sum();
        assert!((total - 10.0).abs() < 1e-12);
        assert!(children_sum(&spans, 0) <= spans[0].seconds());
    }

    #[test]
    fn sums_group_descendants_under_their_root() {
        let spans = vec![
            span("setup", 0.0, 2.0, None),
            span("storage.populate", 0.0, 1.0, Some(0)),
            span("job", 2.0, 5.0, None),
            span("bench.pool_get", 2.0, 3.0, Some(2)),
            span("storage.populate", 2.0, 2.5, Some(3)),
        ];
        let sums = sums_by_root(&spans);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].1["storage.populate"], 1.0);
        assert_eq!(sums[1].1["storage.populate"], 0.5);
        assert_eq!(sums[1].1["bench.pool_get"], 1.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("job", None, 0);
        let v = t.time("core.alg1", Some(root), 0, || 7);
        t.close(root);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());

        let mut t = Tracer::new(true);
        let root = t.open("job", None, 3);
        t.time("core.alg1", Some(root), 3, || ());
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].seconds() >= t.spans()[1].seconds());
        let text = to_jsonl(t.spans(), &[("workload", "x".to_owned())]);
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"workload\":\"x\"}"));
    }
}
