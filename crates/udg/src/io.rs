//! Plain-text serialization of node sets and topologies.
//!
//! The formats are deliberately trivial so instances can be produced and
//! inspected with standard tools:
//!
//! * **nodes file** — one `x y` pair per line (`y` may be omitted for
//!   highway instances); `#` starts a comment;
//! * **topology file** — one `u v` node-index pair per line, `#`
//!   comments allowed. Edge weights are recomputed from the node file,
//!   so a topology file is only meaningful next to its node file.

use crate::node_set::NodeSet;
use crate::topology::Topology;
use rim_geom::Point;
use rim_graph::AdjacencyList;
use std::fmt::{self, Write as _};

/// Parse error for the plain-text formats.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn significant_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        (!line.is_empty()).then_some((i + 1, line))
    })
}

/// Whether coordinate `c` keeps every squared distance, and every sum of
/// two (the Gabriel witness test), a finite normal f64 — so that the
/// instance's answers are those of the same instance at any power-of-two
/// scale: true for 0 and for `|c|` in `[2^-459, 2^509]`. The one range
/// check for node coordinates: [`parse_nodes`] applies it to every file,
/// and `rim generate` to every node it writes.
///
/// * Upper bound: `|dx|, |dy| <= 2^510`, so `dx² + dy² <= 2^1021` and a
///   sum of two squared distances stays `<= 2^1022`.
/// * Lower bound: a nonzero `c` with `|c| >= 2^-459` is a multiple of
///   its ulp, which is at least `2^-511`, so distinct coordinates differ
///   by at least `2^-511`, whose square `2^-1022` is normal.
pub fn coordinate_in_range(c: f64) -> bool {
    let m = c.abs();
    m <= 0.0 || (f64::from_bits((1023 - 459) << 52)..=f64::from_bits((1023 + 509) << 52)).contains(&m)
}

/// Parses a nodes file: `x [y]` per line. Rejects non-finite coordinates
/// and nonzero ones whose magnitude lies outside `[2^-459, 2^509]`, where
/// squared distances would overflow or underflow.
pub fn parse_nodes(text: &str) -> Result<NodeSet, ParseError> {
    let mut pts = Vec::new();
    for (line, content) in significant_lines(text) {
        let mut it = content.split_whitespace();
        // significant_lines yields non-blank lines, so the x token exists.
        let x: f64 = it
            .next()
            .unwrap_or_default()
            .parse()
            .map_err(|e| ParseError {
                line,
                message: format!("bad x coordinate: {e}"),
            })?;
        let y: f64 = match it.next() {
            Some(tok) => tok.parse().map_err(|e| ParseError {
                line,
                message: format!("bad y coordinate: {e}"),
            })?,
            None => 0.0,
        };
        if it.next().is_some() {
            return Err(ParseError {
                line,
                message: "expected at most two coordinates".into(),
            });
        }
        if !x.is_finite() || !y.is_finite() {
            return Err(ParseError {
                line,
                message: "coordinates must be finite".into(),
            });
        }
        if !coordinate_in_range(x) || !coordinate_in_range(y) {
            return Err(ParseError {
                line,
                message: format!(
                    "coordinates ({x:e}, {y:e}) must be 0 or between 2^-459 and 2^509 in \
                     magnitude: squared distances would leave the f64 range"
                ),
            });
        }
        pts.push(Point::new(x, y));
    }
    Ok(NodeSet::new(pts))
}

/// Renders a nodes file.
pub fn format_nodes(nodes: &NodeSet) -> String {
    let mut out = String::with_capacity(nodes.len() * 24);
    out.push_str("# rim nodes file: x y per line\n");
    for p in nodes.points() {
        // Writing into a String cannot fail.
        let _ = writeln!(out, "{} {}", p.x, p.y);
    }
    out
}

/// Parses a topology file (`u v` per line) against a node set.
///
/// Syntax, range and self-loop errors name the first offending line.
/// Only a file free of them can fail on a duplicate edge, which then
/// names the first line repeating an earlier pair.
pub fn parse_topology(text: &str, nodes: &NodeSet) -> Result<Topology, ParseError> {
    let mut graph = AdjacencyList::new(nodes.len());
    let mut duplicate = None;
    for (line, content) in significant_lines(text) {
        let mut it = content.split_whitespace();
        let parse_idx = |tok: Option<&str>, line: usize| -> Result<usize, ParseError> {
            let tok = tok.ok_or(ParseError {
                line,
                message: "expected two node indices".into(),
            })?;
            let idx: usize = tok.parse().map_err(|e| ParseError {
                line,
                message: format!("bad node index: {e}"),
            })?;
            if idx >= nodes.len() {
                return Err(ParseError {
                    line,
                    message: format!("node index {idx} out of range (n = {})", nodes.len()),
                });
            }
            Ok(idx)
        };
        let u = parse_idx(it.next(), line)?;
        let v = parse_idx(it.next(), line)?;
        if it.next().is_some() {
            return Err(ParseError {
                line,
                message: "expected exactly two node indices".into(),
            });
        }
        if u == v {
            return Err(ParseError {
                line,
                message: format!("self-loop at node {u}"),
            });
        }
        if !graph.add_edge(u, v, nodes.dist(u, v)) && duplicate.is_none() {
            duplicate = Some(ParseError {
                line,
                message: format!("duplicate edge ({u}, {v})"),
            });
        }
    }
    match duplicate {
        Some(err) => Err(err),
        None => Ok(Topology::from_graph(nodes.clone(), graph)),
    }
}

/// Renders a topology file.
pub fn format_topology(t: &Topology) -> String {
    let mut out = String::with_capacity(t.num_edges() * 12);
    out.push_str("# rim topology file: u v per line\n");
    for e in t.edges() {
        // Writing into a String cannot fail.
        let _ = writeln!(out, "{} {}", e.u, e.v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_roundtrip() {
        let ns = NodeSet::new(vec![Point::new(0.25, -1.5), Point::new(3.0, 0.0)]);
        let parsed = parse_nodes(&format_nodes(&ns)).unwrap();
        assert_eq!(parsed, ns);
    }

    #[test]
    fn highway_shorthand_and_comments() {
        let ns = parse_nodes("# heading\n0.5\n1.5  # trailing comment\n\n2.5 0\n").unwrap();
        assert_eq!(ns.len(), 3);
        assert!(ns.is_highway());
        assert_eq!(ns.pos(2), Point::new(2.5, 0.0));
    }

    #[test]
    fn topology_roundtrip() {
        let ns = NodeSet::on_line(&[0.0, 0.5, 1.0]);
        let t = Topology::from_pairs(ns.clone(), &[(0, 1), (1, 2)]);
        let parsed = parse_topology(&format_topology(&t), &ns).unwrap();
        assert_eq!(parsed.num_edges(), 2);
        assert!(parsed.graph().has_edge(0, 1));
        assert!(parsed.graph().has_edge(1, 2));
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(parse_nodes("1.0\nxyz\n").unwrap_err().line, 2);
        assert_eq!(parse_nodes("1 2 3\n").unwrap_err().line, 1);
        assert_eq!(parse_nodes("inf\n").unwrap_err().line, 1);

        let ns = NodeSet::on_line(&[0.0, 0.5]);
        assert_eq!(parse_topology("0 5\n", &ns).unwrap_err().line, 1);
        assert_eq!(parse_topology("0\n", &ns).unwrap_err().line, 1);
        assert_eq!(parse_topology("0 0\n", &ns).unwrap_err().line, 1);
        assert!(parse_topology("0 1\n1 0\n", &ns)
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn the_first_repeated_pair_is_the_duplicate() {
        let ns = NodeSet::on_line(&[0.0, 0.5, 1.0]);
        let err = parse_topology("0 1\n2 1\n1 0\n0 1\n", &ns).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (3, "duplicate edge (1, 0)"));
    }

    #[test]
    fn syntax_and_range_errors_beat_an_earlier_duplicate() {
        let ns = NodeSet::on_line(&[0.0, 0.5, 1.0]);
        let err = parse_topology("0 1\n1 0\n0 7\n", &ns).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("out of range"), "{}", err.message);
        let err = parse_topology("0 1\n1 0\n# ok\n2 x\n", &ns).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("bad node index"), "{}", err.message);
    }

    #[test]
    fn formatting_matches_one_format_call_per_line() {
        // The rendering written line by line into one buffer equals the
        // concatenation of per-line `format!` strings, including negative
        // zero, tiny and huge magnitudes, and long digit strings.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut special = vec![0.0, -0.0, 1.0, -1.5, 1e-130, -3.25e200, 2f64.powi(-459)];
        special.extend((0..200).map(|_| {
            let mantissa = next() as f64 / (1u64 << 53) as f64 - 0.5;
            mantissa * 2f64.powi((next() % 800) as i32 - 400)
        }));
        let points: Vec<Point> = special
            .chunks(2)
            .map(|c| Point::new(c[0], *c.last().unwrap()))
            .collect();
        let ns = NodeSet::new(points);
        let mut old = String::from("# rim nodes file: x y per line\n");
        for p in ns.points() {
            old.push_str(&format!("{} {}\n", p.x, p.y));
        }
        assert_eq!(format_nodes(&ns), old);
        let line = NodeSet::on_line(&(0..ns.len()).map(|i| i as f64).collect::<Vec<_>>());
        let pairs: Vec<(usize, usize)> = (1..line.len()).map(|v| (v / 3, v)).collect();
        let t = Topology::from_pairs(line, &pairs);
        let mut old = String::from("# rim topology file: u v per line\n");
        for e in t.edges() {
            old.push_str(&format!("{} {}\n", e.u, e.v));
        }
        assert_eq!(format_topology(&t), old);
    }

    #[test]
    fn coordinates_outside_the_squarable_range_are_rejected() {
        let lo = 2f64.powi(-459);
        let hi = 2f64.powi(509);
        let below = f64::from_bits(lo.to_bits() - 1);
        let above = f64::from_bits(hi.to_bits() + 1);
        for c in [0.0, -0.0, lo, -lo, hi, -hi, 1.0] {
            assert!(parse_nodes(&format!("0 0\n{c:e} {c:e}\n")).is_ok(), "{c:e}");
        }
        for c in [below, -below, above, -above, f64::MIN_POSITIVE, f64::MAX] {
            let err = parse_nodes(&format!("0 0\n0.5 {c:e}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{c:e}");
            let err = parse_nodes(&format!("{c:e}\n")).unwrap_err();
            assert_eq!(err.line, 1, "{c:e}");
        }
        // The smallest accepted gap squares to a normal number.
        let ns = parse_nodes(&format!("{lo:e}\n{:e}\n", f64::from_bits(lo.to_bits() + 1))).unwrap();
        assert!(ns.dist_sq(0, 1).is_normal());
    }

    #[test]
    fn empty_files_are_valid() {
        assert_eq!(parse_nodes("# nothing\n").unwrap().len(), 0);
        let ns = NodeSet::on_line(&[0.0, 1.0]);
        assert_eq!(parse_topology("", &ns).unwrap().num_edges(), 0);
    }
}
