//! Profiling aggregation over the span buffer.
//!
//! [`ProfileReport::from_events`] folds a [`TraceEvent`] stream into
//! the two classic views: a **flat profile** (per span name: call
//! count, total time, self time = total minus direct children) and a
//! **call-path tree** (a text flamegraph, merged across lanes by
//! path). `Session::profile()` hands it the session's buffer; the
//! report renders as text ([`ProfileReport::render_text`]) or JSON
//! ([`ProfileReport::to_json`]).
//!
//! Spans still open when the buffer was snapshotted are treated as
//! closing at the latest timestamp seen, so a profile taken mid-run is
//! well-formed rather than lossy.

use std::collections::BTreeMap;

use crate::json::Writer;
use crate::{TraceEvent, TraceKind};

/// Flat totals for one span name.
#[derive(Clone, Debug, Default)]
pub struct FlatEntry {
    /// Span name.
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Wall nanoseconds between enter and exit, summed.
    pub total_ns: u64,
    /// `total_ns` minus time spent in direct child spans.
    pub self_ns: u64,
}

/// One node of the call-path tree (children in first-seen order).
#[derive(Clone, Debug, Default)]
pub struct TreeNode {
    /// Span name at this path.
    pub name: String,
    /// Times this path was entered.
    pub count: u64,
    /// Total nanoseconds at this path.
    pub total_ns: u64,
    /// Children, first-seen order.
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    fn child_mut(&mut self, name: &str) -> &mut TreeNode {
        // Linear scan: span-name fanout per level is small (a handful
        // of phase names), and first-seen order reads naturally.
        let idx = match self.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.children.push(TreeNode {
                    name: name.to_owned(),
                    ..TreeNode::default()
                });
                self.children.len() - 1
            }
        };
        &mut self.children[idx]
    }
}

/// The folded profile: flat per-name totals plus the merged call-path
/// tree.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Per-name totals, hottest self time first.
    pub flat: Vec<FlatEntry>,
    /// Call-path roots (paths merged across lanes).
    pub roots: Vec<TreeNode>,
    /// Span of the whole buffer, nanoseconds (0 for an empty buffer).
    pub wall_ns: u64,
    /// Distinct lanes that recorded at least one event.
    pub lanes: usize,
}

/// A span frame being replayed: where it started, its path so far, and
/// how much time its direct children consumed.
struct Frame {
    name: String,
    start_ns: u64,
    child_ns: u64,
    path: Vec<String>,
}

impl ProfileReport {
    /// Folds `events` (a `trace_events()` snapshot) into a report.
    pub fn from_events(events: &[TraceEvent]) -> ProfileReport {
        let end_ns = events.iter().map(|e| e.at_ns).max().unwrap_or(0);
        let start_ns = events.iter().map(|e| e.at_ns).min().unwrap_or(0);
        let lanes = events
            .iter()
            .map(|e| e.tid)
            .collect::<std::collections::BTreeSet<_>>()
            .len();

        let mut flat: BTreeMap<String, FlatEntry> = BTreeMap::new();
        let mut root = TreeNode::default();
        let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();

        let close = |frame: Frame,
                     at_ns: u64,
                     stacks_tid: &mut Vec<Frame>,
                     flat: &mut BTreeMap<String, FlatEntry>,
                     root: &mut TreeNode| {
            let total = at_ns.saturating_sub(frame.start_ns);
            let e = flat.entry(frame.name.clone()).or_default();
            e.name = frame.name.clone();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(frame.child_ns);
            if let Some(parent) = stacks_tid.last_mut() {
                parent.child_ns += total;
            }
            let mut node = &mut *root;
            for seg in &frame.path {
                node = node.child_mut(seg);
            }
            node.count += 1;
            node.total_ns += total;
        };

        for e in events {
            let stack = stacks.entry(e.tid).or_default();
            match e.kind {
                TraceKind::Enter => {
                    let mut path: Vec<String> =
                        stack.last().map(|f| f.path.clone()).unwrap_or_default();
                    path.push(e.name.clone());
                    stack.push(Frame {
                        name: e.name.clone(),
                        start_ns: e.at_ns,
                        child_ns: 0,
                        path,
                    });
                }
                TraceKind::Exit => {
                    // The recorder pairs exits by span id, so the top
                    // of this lane's stack is the matching frame;
                    // tolerate a stray exit by ignoring it.
                    if let Some(frame) = stack.pop() {
                        close(frame, e.at_ns, stack, &mut flat, &mut root);
                    }
                }
                TraceKind::Event => {}
            }
        }
        // Close anything still open at the buffer's end.
        for (_, mut stack) in stacks {
            while let Some(frame) = stack.pop() {
                close(frame, end_ns, &mut stack, &mut flat, &mut root);
            }
        }

        let mut flat: Vec<FlatEntry> = flat.into_values().collect();
        flat.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        ProfileReport {
            flat,
            roots: root.children,
            wall_ns: end_ns.saturating_sub(start_ns),
            lanes,
        }
    }

    /// Human-readable report: top-N hot phases by self time, then the
    /// call-path tree as a text flamegraph.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "profile: {:.3} ms wall, {} lane{}\n",
            self.wall_ns as f64 / 1e6,
            self.lanes,
            if self.lanes == 1 { "" } else { "s" }
        );
        out.push_str("hot phases (self time):\n");
        let width = self.flat.iter().map(|e| e.name.len()).max().unwrap_or(4);
        for e in self.flat.iter().take(10) {
            let pct = if self.wall_ns == 0 {
                0.0
            } else {
                100.0 * e.self_ns as f64 / self.wall_ns as f64
            };
            out.push_str(&format!(
                "  {:width$}  {:>10.3} ms self ({:>5.1}%)  {:>10.3} ms total  x{}\n",
                e.name,
                e.self_ns as f64 / 1e6,
                pct,
                e.total_ns as f64 / 1e6,
                e.count,
            ));
        }
        out.push_str("call tree:\n");
        for r in &self.roots {
            render_node(&mut out, r, 1, self.wall_ns);
        }
        out
    }

    /// The report as one JSON object (stable key order).
    pub fn to_json(&self) -> String {
        Writer::render(|w| {
            w.begin_obj();
            w.key("wall_ns").u64(self.wall_ns);
            w.key("lanes").u64(self.lanes as u64);
            w.key("flat").begin_arr();
            for e in &self.flat {
                w.begin_obj();
                w.key("name").str(&e.name);
                w.key("count").u64(e.count);
                w.key("total_ns").u64(e.total_ns);
                w.key("self_ns").u64(e.self_ns);
                w.end_obj();
            }
            w.end_arr();
            w.key("tree").begin_arr();
            for r in &self.roots {
                node_json(w, r);
            }
            w.end_arr();
            w.end_obj();
        })
    }
}

fn render_node(out: &mut String, node: &TreeNode, depth: usize, wall_ns: u64) {
    let pct = if wall_ns == 0 {
        0.0
    } else {
        100.0 * node.total_ns as f64 / wall_ns as f64
    };
    out.push_str(&format!(
        "{}{} {:.3} ms ({:.1}%) x{}\n",
        "  ".repeat(depth),
        node.name,
        node.total_ns as f64 / 1e6,
        pct,
        node.count
    ));
    for c in &node.children {
        render_node(out, c, depth + 1, wall_ns);
    }
}

fn node_json(w: &mut Writer<'_>, node: &TreeNode) {
    w.begin_obj();
    w.key("name").str(&node.name);
    w.key("count").u64(node.count);
    w.key("total_ns").u64(node.total_ns);
    w.key("children").begin_arr();
    for c in &node.children {
        node_json(w, c);
    }
    w.end_arr();
    w.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, ObsLevel};

    #[test]
    fn folds_nested_spans_into_flat_and_tree() {
        let obs = Obs::with_level(ObsLevel::Trace);
        let outer = obs.span("outer", String::new);
        let inner = obs.span("inner", String::new);
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.exit_span(inner, "ok");
        obs.exit_span(outer, "ok");
        let p = ProfileReport::from_events(&obs.trace_events());
        assert_eq!(p.lanes, 1);
        let outer_e = p.flat.iter().find(|e| e.name == "outer").unwrap();
        let inner_e = p.flat.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer_e.count, 1);
        assert!(inner_e.total_ns >= 2_000_000);
        // outer's self time excludes inner.
        assert!(outer_e.self_ns <= outer_e.total_ns - inner_e.total_ns + 1_000);
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].name, "outer");
        assert_eq!(p.roots[0].children[0].name, "inner");
        let text = p.render_text();
        assert!(text.contains("hot phases"));
        assert!(text.contains("call tree:"));
        let json = crate::json::Json::parse(&p.to_json()).expect("profile JSON parses");
        assert!(json.get("flat").unwrap().as_arr().unwrap().len() == 2);
    }

    #[test]
    fn unclosed_spans_close_at_buffer_end() {
        let obs = Obs::with_level(ObsLevel::Trace);
        let _open = obs.span("never.exited", String::new);
        obs.event("tick", String::new);
        let p = ProfileReport::from_events(&obs.trace_events());
        let e = p.flat.iter().find(|e| e.name == "never.exited").unwrap();
        assert_eq!(e.count, 1);
        assert_eq!(e.total_ns, p.wall_ns);
    }

    #[test]
    fn merges_paths_across_lanes() {
        let obs = Obs::with_level(ObsLevel::Trace);
        for w in 0..2u64 {
            crate::with_lane(crate::WORKER_LANE_BASE + w, || {
                let s = obs.span("pool.chunk", String::new);
                obs.exit_span(s, "ok");
            });
        }
        let p = ProfileReport::from_events(&obs.trace_events());
        assert_eq!(p.lanes, 2);
        // Both lanes' chunks merge into one path node.
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].count, 2);
        assert_eq!(p.flat[0].count, 2);
    }
}
