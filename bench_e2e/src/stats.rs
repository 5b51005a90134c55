//! Sample statistics and the benchmark-owned span recorder.
//!
//! Everything here is plain arithmetic over numbers the benchmark
//! measured itself; nothing calls into the program under test.

use std::time::Instant;

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The smallest of `samples`; `None` for an empty slice.
pub fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// The percentiles a row may report, as (label, parts per 10 000).
const TAILS: [(&str, usize); 4] = [("p90", 9000), ("p95", 9500), ("p99", 9900), ("p99.9", 9990)];

/// The highest percentile that still has at least ten samples beyond
/// it, with its value: `p99` needs 1 000 samples, `p90` needs 100.
/// `None` below 100 samples — a tail read off fewer is noise.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    let n = samples.len();
    let rank = |parts: usize| (n * parts).div_ceil(10_000);
    let (label, parts) = TAILS
        .iter()
        .rev()
        .find(|(_, parts)| n - rank(*parts) >= 10)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some((label, v[rank(*parts).clamp(1, n) - 1]))
}

/// The geometric mean of strictly positive values; `None` when empty
/// or when any value is not positive (a zero row would silently zero
/// the whole mean).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Failed ÷ attempted; `None` when nothing was attempted.
pub fn fail_share(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// `VmHWM` of this process in MiB (Linux `/proc/self/status`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One closed span: a name, the operation it belongs to, its parent
/// span (index into the recorder) and start/end in ns since the
/// recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder owned by the benchmark: spans go around the
/// calls into each layer, nest by call order on the recording thread,
/// and are written out when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Spans kept; later ones are timed but dropped so a long traced
    /// pass cannot grow the trace file without bound.
    cap: usize,
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Folded {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part of each span its direct children cover.
    pub self_ns: u64,
}

impl Spans {
    pub fn new(cap: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cap,
        }
    }

    /// Runs `f` inside a span called `name` belonging to operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        let keep = self.spans.len() < self.cap;
        if keep {
            self.spans.push(Span {
                name,
                op,
                parent: self.open.last().copied(),
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
        }
        let out = f(self);
        if keep {
            let idx = self.open.pop().expect("span opened above");
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn truncated(&self) -> bool {
        self.spans.len() >= self.cap
    }
}

/// Folds spans into per-name totals, in first-seen name order. A
/// span's self time is its duration minus the durations of its direct
/// children (children of one span never overlap: one thread records).
pub fn fold(spans: &[Span]) -> Vec<Folded> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: Vec<Folded> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let idx = match out.iter().position(|f| f.name == s.name) {
            Some(idx) => idx,
            None => {
                out.push(Folded {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.len() - 1
            }
        };
        out[idx].count += 1;
        out[idx].total_ns += total;
        out[idx].self_ns += total.saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(fastest(&[]), None);
        assert_eq!(fastest(&[4.0, 1.0, 3.0]), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p90", 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p99", 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p99.9", 9990.0)));
    }

    #[test]
    fn geomean_is_the_log_mean_and_rejects_non_positive() {
        let g = geomean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn fail_share_counts_against_attempts() {
        assert_eq!(fail_share(0, 0), None);
        assert_eq!(fail_share(0, 8), Some(0.0));
        assert_eq!(fail_share(2, 8), Some(0.25));
    }

    #[test]
    fn fold_subtracts_direct_children_only() {
        // op [0,100] > run [10,90] > inner [20,50]; a second op [100,130].
        let spans = [
            Span {
                name: "op",
                op: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "run",
                op: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 90,
            },
            Span {
                name: "inner",
                op: 0,
                parent: Some(1),
                start_ns: 20,
                end_ns: 50,
            },
            Span {
                name: "op",
                op: 1,
                parent: None,
                start_ns: 100,
                end_ns: 130,
            },
        ];
        let folded = fold(&spans);
        let get = |n: &str| {
            folded
                .iter()
                .find(|f| f.name == n)
                .expect("present")
                .clone()
        };
        assert_eq!(
            (get("op").count, get("op").total_ns, get("op").self_ns),
            (2, 130, 50)
        );
        assert_eq!((get("run").total_ns, get("run").self_ns), (80, 50));
        assert_eq!((get("inner").total_ns, get("inner").self_ns), (30, 30));
    }

    #[test]
    fn recorder_nests_by_call_order_and_stops_at_its_cap() {
        let mut s = Spans::new(3);
        s.span("op", 7, |s| {
            s.span("a", 7, |_| ());
            s.span("b", 7, |_| ());
            s.span("dropped", 7, |_| ());
        });
        let names: Vec<_> = s.spans().iter().map(|x| (x.name, x.parent, x.op)).collect();
        assert_eq!(
            names,
            vec![("op", None, 7), ("a", Some(0), 7), ("b", Some(0), 7)]
        );
        assert!(s.truncated());
        assert!(s.spans().iter().all(|x| x.end_ns >= x.start_ns));
    }
}
