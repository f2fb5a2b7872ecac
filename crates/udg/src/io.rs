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
use crate::topology::{key_edges, Topology};
use rim_geom::Point;
use rim_graph::edge::pair_key;
use rim_graph::{AdjacencyList, EdgeListError};
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

/// A cursor over the lines and tokens of a file: the one tokenizer of
/// both file formats. Lines end at `\n` only, and `#` ends a line's
/// content. Tokens split exactly where [`str::split_whitespace`] splits,
/// at every character for which [`char::is_whitespace`] holds: the scan
/// classifies ASCII bytes directly (`' '`, `\t`, `\x0B`, `\x0C` and `\r`
/// separate, and every other byte below 0x80 but `\n` and `#` belongs to
/// a token) and decodes a `char` only at a byte of 0x80 or more, so
/// Unicode whitespace such as U+0085, U+00A0 or U+3000 separates tokens
/// too.
struct Scanner<'a> {
    text: &'a str,
    /// Byte offset of the cursor, on the current line.
    pos: usize,
    /// 1-based number of the current line; 0 before the first.
    line: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0, line: 0 }
    }

    /// Moves to the next line holding a token and returns its number,
    /// with the cursor on its first token; `None` past the last line.
    fn next_line(&mut self) -> Option<usize> {
        loop {
            if self.line > 0 {
                // Past the rest of the current line.
                if self.text.as_bytes().get(self.pos) != Some(&b'\n') {
                    self.pos += self.text.get(self.pos..)?.find('\n')?;
                }
                self.pos += 1;
            }
            self.line += 1;
            if self.skip_space() {
                return Some(self.line);
            }
        }
    }

    /// The next token of the current line, or `None` once it ends.
    fn token(&mut self) -> Option<&'a str> {
        if !self.skip_space() {
            return None;
        }
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        let mut end = start;
        while let Some(&b) = bytes.get(end) {
            let ends = if b < 0x80 {
                matches!(b, b' ' | b'\t'..=b'\r' | b'#')
            } else {
                wide_space_at(self.text, end) > 0
            };
            if ends {
                break;
            }
            end += 1;
        }
        self.pos = end;
        // Both ends are character boundaries: the start follows whole
        // whitespace characters, and the end is the text's end, an ASCII
        // byte or the start of a whitespace character.
        self.text.get(start..end)
    }

    /// Moves past the separators at the cursor, and tells whether a token
    /// starts there: the line neither ends nor turns into a comment.
    fn skip_space(&mut self) -> bool {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        let starts = loop {
            match bytes.get(at) {
                Some(b' ' | b'\t' | b'\x0b' | b'\x0c' | b'\r') => at += 1,
                Some(&b) if b >= 0x80 => match wide_space_at(self.text, at) {
                    0 => break true,
                    width => at += width,
                },
                None | Some(b'\n' | b'#') => break false,
                Some(_) => break true,
            }
        };
        self.pos = at;
        starts
    }
}

/// An upper bound on the lines of `text` holding a token: its `\n`
/// count plus one. The count runs 255 bytes at a time into a `u8`, which
/// vectorizes.
fn max_lines(text: &str) -> usize {
    let newlines = |chunk: &[u8]| chunk.iter().fold(0u8, |k, &b| k + u8::from(b == b'\n'));
    1 + text.as_bytes().chunks(255).map(|chunk| usize::from(newlines(chunk))).sum::<usize>()
}

/// Byte length of the non-ASCII whitespace character starting at byte
/// `at` of `text`, or 0 if none starts there (also inside a multi-byte
/// character, where `get` finds no character boundary).
fn wide_space_at(text: &str, at: usize) -> usize {
    text.get(at..)
        .and_then(|rest| rest.chars().next())
        .filter(|c| c.is_whitespace())
        .map_or(0, char::len_utf8)
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
// rim-lint: root
pub fn parse_nodes(text: &str) -> Result<NodeSet, ParseError> {
    let mut pts = Vec::new();
    // The reservation is only a hint: if it does not fit, the vector
    // grows as nodes arrive.
    let _ = pts.try_reserve_exact(max_lines(text));
    let mut scan = Scanner::new(text);
    while let Some(line) = scan.next_line() {
        // next_line stops on lines holding a token, so the x token exists.
        let x: f64 = scan
            .token()
            .unwrap_or_default()
            .parse()
            .map_err(|e| ParseError {
                line,
                message: format!("bad x coordinate: {e}"),
            })?;
        let y: f64 = match scan.token() {
            Some(tok) => tok.parse().map_err(|e| ParseError {
                line,
                message: format!("bad y coordinate: {e}"),
            })?,
            None => 0.0,
        };
        if scan.token().is_some() {
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
///
/// The pairs are collected as [`pair_key`]s in file order and handed to
/// the bulk [`AdjacencyList::try_from_edges`]; the `(u, v)`-ordered
/// files [`format_topology`] writes give it lists that are sorted
/// already. A repeated pair makes it refuse, and only then is the file
/// walked again, to the refused pair's line.
// rim-lint: root
pub fn parse_topology(text: &str, nodes: &NodeSet) -> Result<Topology, ParseError> {
    let n = nodes.len();
    let mut keys = Vec::new();
    let _ = keys.try_reserve_exact(max_lines(text));
    for pair in topology_pairs(text, n) {
        let (_, u, v) = pair?;
        keys.push(pair_key(u, v));
    }
    let index = match AdjacencyList::try_from_edges(n, key_edges(nodes, &keys)) {
        Ok(graph) => return Ok(Topology::from_graph(nodes.clone(), graph)),
        // The pairs are in range and loop-free, so the builder refused
        // the first one, in file order, that repeats an earlier pair.
        Err(EdgeListError::Duplicate { index, .. } | EdgeListError::Invalid { index, .. }) => index,
    };
    // Named as written on its line.
    let (line, u, v) = topology_pairs(text, n).nth(index).and_then(Result::ok).unwrap_or_default();
    Err(ParseError {
        line,
        message: format!("duplicate edge ({u}, {v})"),
    })
}

/// The pairs `(line, u, v)` of a topology file in file order, each
/// checked for syntax, range and self-loops, as `u v` stand on the line.
fn topology_pairs(
    text: &str,
    n: usize,
) -> impl Iterator<Item = Result<(usize, usize, usize), ParseError>> + '_ {
    let mut scan = Scanner::new(text);
    std::iter::from_fn(move || {
        let line = scan.next_line()?;
        Some(pair_on_line(&mut scan, line, n))
    })
}

/// The pair on `line` of a topology file, the scanner on its first token.
fn pair_on_line(
    scan: &mut Scanner<'_>,
    line: usize,
    n: usize,
) -> Result<(usize, usize, usize), ParseError> {
    let mut index = || -> Result<usize, ParseError> {
        let tok = scan.token().ok_or_else(|| ParseError {
            line,
            message: "expected two node indices".into(),
        })?;
        let idx: usize = tok.parse().map_err(|e| ParseError {
            line,
            message: format!("bad node index: {e}"),
        })?;
        if idx >= n {
            return Err(ParseError {
                line,
                message: format!("node index {idx} out of range (n = {n})"),
            });
        }
        Ok(idx)
    };
    let u = index()?;
    let v = index()?;
    if scan.token().is_some() {
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
    Ok((line, u, v))
}

/// Renders a topology file: one `u v` line per link, `u < v`, in `(u, v)`
/// order, the integers written without `fmt`.
pub fn format_topology(t: &Topology) -> String {
    let g = t.graph();
    let mut out = String::with_capacity(t.num_edges() * 12 + 40);
    out.push_str("# rim topology file: u v per line\n");
    for u in 0..g.num_vertices() {
        for v in g.neighbors(u).filter(|&v| v > u) {
            push_decimal(&mut out, u);
            out.push(' ');
            push_decimal(&mut out, v);
            out.push('\n');
        }
    }
    out
}

/// Appends the decimal digits of `x`, as `{x}` formats it.
fn push_decimal(out: &mut String, mut x: usize) {
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    while start > 0 {
        start -= 1;
        digits[start] += (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).unwrap_or_default());
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
    fn tokens_split_where_split_whitespace_splits() {
        // Every whitespace character below U+3001 but the line end `\n`,
        // and look-alikes that are not whitespace (U+001C, U+200B,
        // U+FEFF), between, before and after tokens holding multi-byte
        // characters; `#` ends the line.
        let odd: Vec<char> = (0..0x3001u32)
            .filter_map(char::from_u32)
            .filter(|c| c.is_whitespace())
            .filter(|c| !matches!(c, '\n'))
            .chain(['\u{1c}', '\u{200b}', '\u{feff}', 'é', '#'])
            .collect();
        for &a in &odd {
            for &b in &['\x0b', '\u{a0}', 'x', '#'] {
                let line = format!("{a}1{b}2{a}é{a}3{b}");
                let want: Vec<&str> =
                    line.split('#').next().unwrap().split_whitespace().collect();
                let mut scan = Scanner::new(&line);
                let got: Vec<&str> = match scan.next_line() {
                    Some(_) => std::iter::from_fn(|| scan.token()).collect(),
                    None => Vec::new(),
                };
                assert_eq!(got, want, "{line:?}");
            }
        }
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
