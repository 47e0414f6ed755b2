//! In-memory span recorder, span self-time arithmetic and the
//! percentile rule.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace crates; nothing inside the program is instrumented. A
//! span's layer is the part of its name before the first `.`
//! (`hlsim.golden_laddered` belongs to `hlsim`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Shared by every span of one cell or job.
    pub group: u64,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span store; spans are kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent child spans on it.
    pub fn span<R>(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        group: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name: name.into(),
            group,
            start,
            end,
        });
        out
    }

    /// Removes and returns every recorded span, in start order.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store poisoned"));
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Runs `f`, returning its result and its host time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Length of the union of `intervals` after clipping each to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.retain_mut(|(s, e)| {
        *s = s.max(lo);
        *e = e.min(hi);
        s < e
    });
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's duration minus the part of its interval that its direct
/// children cover. Overlapping children (concurrent worker shards) are
/// counted once, and a child's part outside the parent is ignored.
pub fn self_time(span: &Span, children: &[&Span]) -> f64 {
    let iv = children.iter().map(|c| (c.start, c.end)).collect();
    (span.secs() - covered(iv, span.start, span.end)).max(0.0)
}

/// Self time summed per layer over the spans that descend from `root`
/// (the root included).
pub fn layer_self_times(spans: &[Span], root: u64) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out = BTreeMap::new();
    let mut stack: Vec<&Span> = spans.iter().filter(|s| s.id == root).collect();
    while let Some(s) = stack.pop() {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        *out.entry(s.layer().to_string()).or_insert(0.0) += self_time(s, kids);
        stack.extend(kids.iter().copied());
    }
    out
}

/// Nearest-rank `pct`-th percentile of `samples`, reported only when
/// at least ten samples lie beyond it (so p50 needs 20 samples and p90
/// needs 100).
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    let n = samples.len();
    if n == 0 || pct == 0 || pct >= 100 {
        return None;
    }
    let rank = (pct as usize * n).div_ceil(100);
    if n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Plain median (no tail rule): used for the repeated whole-workload
/// measurements of one run.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The sum over steps of each step's median across passes: `passes[i][j]`
/// is step `j` of pass `i`. A slow moment of the machine then costs one
/// step of one pass, not the whole pass.
pub fn sum_of_step_medians(passes: &[Vec<f64>]) -> f64 {
    let steps = passes.iter().map(Vec::len).max().unwrap_or(0);
    (0..steps)
        .map(|j| {
            median(
                &passes
                    .iter()
                    .filter_map(|p| p.get(j).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            group: 0,
            start,
            end,
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), Some(90.0));
        assert_eq!(percentile(&hundred, 50), Some(50.0));
        assert_eq!(percentile(&hundred[..99], 90), None);
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn step_medians_reject_one_slow_step() {
        let passes = vec![vec![1.0, 2.0], vec![1.0, 9.0], vec![3.0, 2.0]];
        assert_eq!(sum_of_step_medians(&passes), 3.0);
        assert_eq!(sum_of_step_medians(&[vec![4.0]]), 4.0);
        assert_eq!(sum_of_step_medians(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let parent = span(1, None, "core.cell", 0.0, 100.0);
        // Two concurrent shards overlapping on [20, 30], and a child
        // that runs past the parent's end.
        let a = span(2, Some(1), "core.shard", 10.0, 30.0);
        let b = span(3, Some(1), "core.shard", 20.0, 50.0);
        let c = span(4, Some(1), "core.assemble", 90.0, 120.0);
        assert_eq!(self_time(&parent, &[&a, &b, &c]), 50.0);
        assert_eq!(self_time(&parent, &[]), 100.0);
    }

    #[test]
    fn layer_self_times_only_subtract_direct_children() {
        let spans = vec![
            span(1, None, "bench.iteration", 0.0, 10.0),
            span(2, Some(1), "core.cell", 1.0, 9.0),
            span(3, Some(2), "hlsim.golden_laddered", 1.0, 4.0),
            span(4, Some(2), "core.shard", 4.0, 8.0),
            span(5, Some(4), "core.inject", 4.0, 6.0),
            span(6, Some(4), "core.inject", 6.0, 8.0),
            span(7, None, "probe.other_root", 0.0, 5.0),
        ];
        let t = layer_self_times(&spans, 1);
        assert_eq!(t["bench"], 2.0);
        assert_eq!(t["hlsim"], 3.0);
        // core.cell 8 - 7 = 1, core.shard 4 - 4 = 0, injects 2 + 2.
        assert_eq!(t["core"], 5.0);
        let total: f64 = t.values().sum();
        assert_eq!(total, 10.0, "self times partition the root span");
        assert!(!t.contains_key("probe"));
    }

    #[test]
    fn tracer_records_parent_links() {
        let tr = Tracer::default();
        tr.span("core.cell", None, 7, |me| {
            tr.span("hlsim.golden_plain", Some(me), 7, |_| ());
        });
        let spans = tr.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "core.cell");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.group == 7 && s.end >= s.start));
        assert_eq!(spans[1].layer(), "hlsim");
    }
}
