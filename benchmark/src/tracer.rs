//! In-memory span tracer for the traced runs.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public function, plus structural spans (one per replayed command)
//! that group them. Spans stay in memory and are written as JSONL once
//! the run ends. A layer's time is the sum of its spans' self times, so
//! the layers and the unattributed remainder add up to the traced wall
//! time exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`udg.parse`, …) or structural name (`control:gg`, …).
    pub name: &'static str,
    /// Whether the span's self time counts toward a layer.
    pub layer: bool,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

/// Handle of an open span, returned by [`Tracer::start`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing, for the untraced reference runs.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose name is only known when it ends.
    pub fn start(&mut self) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name: "",
            layer: false,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, naming it. Spans must close innermost first.
    pub fn end(&mut self, open: Open, name: &'static str, layer: bool) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now();
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.name = name;
        span.layer = layer;
        span.end_ns = end_ns;
    }

    /// Runs `f` inside a layer span.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.start();
        let out = f();
        self.end(open, name, true);
        out
    }

    /// Runs `f` inside a structural span that groups layer spans.
    pub fn group<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let open = self.start();
        let out = f(self);
        self.end(open, name, false);
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            duration - covered
        })
        .collect()
}

/// Sum of self times per layer name, over layer spans only.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.layer {
            *out.entry(s.name).or_insert(0) += self_ns;
        }
    }
    out
}

/// Writes `spans` as JSONL, one object per span, tagged with `op` (the
/// traced operation they belong to).
pub fn write_jsonl(spans: &[Span], op: usize, w: &mut impl Write) -> std::io::Result<()> {
    for ((id, s), self_ns) in spans.iter().enumerate().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"op\":{op},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"layer\":{},\
             \"start_ns\":{},\"dur_ns\":{},\"self_ns\":{self_ns}}}",
            s.name,
            s.layer,
            s.start_ns,
            s.end_ns - s.start_ns,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, layer: bool, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            layer,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", false, None, 0, 100),
            span("a", true, Some(0), 10, 30),
            span("b", true, Some(0), 40, 70),
            span("a", true, Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["a"], 30);
        assert_eq!(totals["b"], 20);
        // Layers plus the root's unattributed self time give the wall.
        assert_eq!(totals.values().sum::<u64>() + self_times(&spans)[0], 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("root", false, None, 0, 100),
            span("a", true, Some(0), 10, 50),
            span("a", true, Some(0), 30, 60),
            span("b", true, Some(0), 90, 130),
        ];
        // Covered: [10, 60) and [90, 100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.group("cmd", |t| t.layer("x", || 7) + t.layer("y", || 1));
        assert_eq!(v, 8);
        let s = &t.into_spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].layer, s[0].parent), ("cmd", false, None));
        assert_eq!((s[1].name, s[1].parent), ("x", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("y", Some(0)));
        assert!(s[1].end_ns <= s[2].start_ns && s[2].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        write_jsonl(s, 3, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"op\":3,\"id\":0,\"parent\":null,\"name\":\"cmd\""));

        let mut off = Tracer::disabled();
        assert_eq!(off.group("cmd", |t| t.layer("x", || 5)), 5);
        assert!(off.into_spans().is_empty());
    }
}
