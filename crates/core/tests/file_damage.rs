//! Damage layer for the plain-text node and topology files.
//!
//! Valid files are damaged the way hand edits, bad transfers and hostile
//! inputs damage them: flipped bytes, truncation inside a token,
//! duplicated, swapped or reversed lines, non-finite, overflowing,
//! negative and sub-range tokens, extra columns, CRLF line ends, tabs,
//! and `#` inside a token. Each damaged pair must either be rejected
//! with an error naming a line of the damaged file, or parse to a
//! topology that survives a format/parse round trip and whose fast
//! interference equals the naive oracle. A panic fails the test.

use rim_core::receiver::{interference_vector_naive, interference_vector_with, Engine};
use rim_geom::Point;
use rim_rng::prop::check;
use rim_rng::{prop_ensure, prop_ensure_eq, SmallRng};
use rim_udg::io::{format_nodes, format_topology, parse_nodes, parse_topology, ParseError};
use rim_udg::{NodeSet, Topology};

/// Which of the two files a damage applies to.
#[derive(Debug, Clone, Copy)]
enum File {
    Nodes,
    Topology,
}

/// One damage; positions are reduced modulo the current file's size.
#[derive(Debug, Clone)]
enum Damage {
    /// XOR one of the low seven bits of a byte: the file stays ASCII.
    Flip { at: usize, bit: u8 },
    /// Cut the file inside a token.
    TruncateInToken { token: usize },
    DuplicateLine { line: usize },
    SwapLines { a: usize, b: usize },
    /// Reverse the characters of one line.
    ReverseLine { line: usize },
    /// Replace a token.
    Token { token: usize, with: String },
    /// Append a token to a line.
    ExtraColumn { line: usize, with: String },
    Crlf,
    /// Turn every space into a tab.
    Tabs,
    /// Insert `#` inside a token.
    HashInToken { token: usize },
    /// Replace the space or tab after a token with `with`, or insert
    /// `with` there when a line end follows.
    Separator { token: usize, with: &'static str },
    /// End every line with a bare `\r`, so the file is one line.
    CrOnly,
    /// Put a `+` before a token.
    Plus { token: usize },
    /// Copy a line to `copies` places from `at` on, every other copy
    /// with its first two tokens swapped.
    RepeatLine { line: usize, copies: usize, at: usize },
    /// Reorder all lines, swapping the first two tokens of some.
    Shuffle { seed: u64 },
    /// Append a line.
    AppendLine { with: String },
}

#[derive(Debug)]
struct Case {
    nodes: String,
    topology: String,
    damage: Vec<(File, Damage)>,
}

/// Tokens that stress the number parsers: non-finite, out of f64 range,
/// negative, out of u64 range, and below the accepted coordinate range.
fn nasty_token(rng: &mut SmallRng) -> String {
    const NASTY: [&str; 6] = ["nan", "inf", "1e400", "-1", "18446744073709551616", "-0"];
    if rng.gen_bool(0.25) {
        // At 2^-460 scale: 2^-460 itself is below the accepted range,
        // 2^-459 and up are inside it.
        format!("{:e}", rng.gen_range(1u32..4) as f64 * 2f64.powi(-460))
    } else {
        NASTY[rng.gen_range(0..NASTY.len())].to_string()
    }
}

/// A valid node file and a valid topology file over it.
fn gen_case(rng: &mut SmallRng) -> Case {
    let n = rng.gen_range(2usize..30);
    // Power-of-two scales keep every file answer scale-free, so extreme
    // but accepted magnitudes exercise the same code paths.
    let scale = 2f64.powi([0, -400, 400, -20][rng.gen_range(0usize..4)]);
    let pts: Vec<Point> = (0..n)
        .map(|_| {
            let c = |rng: &mut SmallRng| rng.gen_range(0.0f64..2.0) * scale;
            Point::new(c(rng), c(rng))
        })
        .collect();
    let ns = NodeSet::new(pts);
    let mut pairs = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(0.15) {
                pairs.push((u, v));
            }
        }
    }
    let t = Topology::from_pairs(ns.clone(), &pairs);
    let nodes = if rng.gen_bool(0.5) {
        format_nodes(&ns)
    } else {
        ns.points().iter().map(|p| format!("{:e} {:e}\n", p.x, p.y)).collect()
    };
    let mut damage = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        let file = if rng.gen_bool(0.5) { File::Nodes } else { File::Topology };
        let pos = rng.next_u64() as usize;
        let d = match rng.gen_range(0u32..10) {
            0 => Damage::Flip { at: pos, bit: rng.gen_range(0u32..7) as u8 },
            1 => Damage::TruncateInToken { token: pos },
            2 => Damage::DuplicateLine { line: pos },
            3 => Damage::SwapLines { a: pos, b: rng.next_u64() as usize },
            4 => Damage::ReverseLine { line: pos },
            5 => Damage::Token { token: pos, with: nasty_token(rng) },
            6 => Damage::ExtraColumn { line: pos, with: nasty_token(rng) },
            7 => Damage::Crlf,
            8 => Damage::Tabs,
            _ => Damage::HashInToken { token: pos },
        };
        damage.push((file, d));
    }
    Case {
        nodes,
        topology: format_topology(&t),
        damage,
    }
}

/// Byte ranges of the whitespace-separated tokens of `text`.
fn tokens(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && !b[i].is_ascii_whitespace() {
            i += 1;
        }
        out.push((start, i));
    }
    out
}

/// Applies `d` to `text`.
fn damage(text: &str, d: &Damage) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let toks = tokens(text);
    let token = |k: usize| toks.get(k % toks.len().max(1)).copied();
    let joined = |lines: &[String]| lines.iter().map(|l| format!("{l}\n")).collect();
    match d {
        Damage::Flip { at, bit } => {
            let mut bytes = text.as_bytes().to_vec();
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
            String::from_utf8(bytes).expect("flipping a low bit keeps ASCII")
        }
        Damage::TruncateInToken { token: k } => match token(*k) {
            Some((s, e)) if e - s >= 2 => text[..s + 1 + k % (e - s - 1)].to_string(),
            Some((s, _)) => text[..s].to_string(),
            None => String::new(),
        },
        Damage::DuplicateLine { line } if !lines.is_empty() => {
            let i = line % lines.len();
            lines.insert(i, lines[i].clone());
            joined(&lines)
        }
        Damage::SwapLines { a, b } if !lines.is_empty() => {
            let len = lines.len();
            lines.swap(a % len, b % len);
            joined(&lines)
        }
        Damage::ReverseLine { line } if !lines.is_empty() => {
            let i = line % lines.len();
            lines[i] = lines[i].chars().rev().collect();
            joined(&lines)
        }
        Damage::Token { token: k, with } => match token(*k) {
            Some((s, e)) => format!("{}{with}{}", &text[..s], &text[e..]),
            None => text.to_string(),
        },
        Damage::ExtraColumn { line, with } if !lines.is_empty() => {
            let i = line % lines.len();
            lines[i] = format!("{} {with}", lines[i]);
            joined(&lines)
        }
        Damage::Separator { token: k, with } => match token(*k) {
            Some((_, e)) if matches!(text.as_bytes().get(e), Some(b' ' | b'\t')) => {
                format!("{}{with}{}", &text[..e], &text[e + 1..])
            }
            Some((_, e)) => format!("{}{with}{}", &text[..e], &text[e..]),
            None => text.to_string(),
        },
        Damage::CrOnly => text.replace('\n', "\r"),
        Damage::Plus { token: k } => match token(*k) {
            Some((s, _)) => format!("{}+{}", &text[..s], &text[s..]),
            None => text.to_string(),
        },
        Damage::RepeatLine { line, copies, at } if !lines.is_empty() => {
            let original = lines[line % lines.len()].clone();
            for c in 0..*copies {
                let copy = if c % 2 == 1 { swap_first_two(&original) } else { original.clone() };
                let len = lines.len();
                lines.insert((at + 7 * c) % (len + 1), copy);
            }
            joined(&lines)
        }
        Damage::Shuffle { seed } => {
            let mut rng = SmallRng::seed_from_u64(*seed);
            for i in (1..lines.len()).rev() {
                lines.swap(i, rng.gen_range(0..i + 1));
            }
            for line in &mut lines {
                if rng.gen_bool(0.5) {
                    *line = swap_first_two(line);
                }
            }
            joined(&lines)
        }
        Damage::AppendLine { with } => format!("{text}{with}\n"),
        Damage::Crlf => text.replace('\n', "\r\n"),
        Damage::Tabs => text.replace(' ', "\t"),
        Damage::HashInToken { token: k } => match token(*k) {
            Some((s, e)) => {
                let at = s + k % (e - s);
                format!("{}#{}", &text[..at], &text[at..])
            }
            None => text.to_string(),
        },
        _ => text.to_string(),
    }
}

/// `line` with its first two whitespace-separated tokens swapped (and
/// single-spaced); lines with fewer tokens are kept.
fn swap_first_two(line: &str) -> String {
    let mut toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() < 2 {
        return line.to_string();
    }
    toks.swap(0, 1);
    toks.join(" ")
}

/// An error must name a line of the file it came from.
fn names_a_line(err: &ParseError, text: &str) -> Result<(), String> {
    prop_ensure!(
        (1..=text.lines().count()).contains(&err.line),
        "error names line {} of a {}-line file: {err}",
        err.line,
        text.lines().count()
    );
    prop_ensure!(err.to_string().starts_with(&format!("line {}: ", err.line)), "{err}");
    Ok(())
}

#[test]
fn damaged_files_fail_cleanly_or_round_trip_with_exact_interference() {
    let (mut rejected, mut accepted) = (0, 0);
    check(
        "damaged_files_fail_cleanly_or_round_trip_with_exact_interference",
        512,
        gen_case,
        |case| {
            let (mut nodes, mut topology) = (case.nodes.clone(), case.topology.clone());
            for (file, d) in &case.damage {
                match file {
                    File::Nodes => nodes = damage(&nodes, d),
                    File::Topology => topology = damage(&topology, d),
                }
            }
            let ns = match parse_nodes(&nodes) {
                Ok(ns) => ns,
                Err(err) => {
                    rejected += 1;
                    return names_a_line(&err, &nodes);
                }
            };
            let again = parse_nodes(&format_nodes(&ns)).map_err(|e| e.to_string())?;
            let bits = |s: &NodeSet| -> Vec<(u64, u64)> {
                s.points().iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
            };
            prop_ensure_eq!(bits(&again), bits(&ns));
            let t = match parse_topology(&topology, &ns) {
                Ok(t) => t,
                Err(err) => {
                    rejected += 1;
                    return names_a_line(&err, &topology);
                }
            };
            accepted += 1;
            let again = parse_topology(&format_topology(&t), &ns).map_err(|e| e.to_string())?;
            let edges = |t: &Topology| -> Vec<(usize, usize, u64)> {
                t.edges().iter().map(|e| (e.u, e.v, e.weight.to_bits())).collect()
            };
            prop_ensure_eq!(edges(&again), edges(&t));
            prop_ensure_eq!(interference_vector_with(&t, Engine::Auto), interference_vector_naive(&t));
            Ok(())
        },
    );
    // Both outcomes must be common, or the damage is too mild or too
    // wild to test anything.
    assert!(rejected > 200, "only {rejected} of 512 damaged pairs were rejected");
    assert!(accepted > 150, "only {accepted} of 512 damaged pairs parsed");
}

/// Separators for [`Damage::Separator`]: the whitespace characters that
/// `char::is_whitespace` adds to ASCII space and tab, and two that look
/// alike but are not whitespace (U+200B, U+001C), so they join tokens.
const SEPARATORS: [&str; 10] = [
    "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}", "\x0b", "\x0c", "\r", "\n", "\u{200b}", "\u{1c}",
];

/// Tokens past `u64` (and `usize`) and with a leading `+`.
const BIG: [&str; 4] = [
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "+18446744073709551615",
    "+7",
];

/// A valid case, then none to three of the damages above, then up to
/// three of the damages the byte tokenizer and the sorted-pair build
/// must get right: Unicode and vertical-tab separators, bare-`\r` line
/// ends, `+` signs, huge indices, repeated pairs in both orientations,
/// reordered lines, and a range error after a duplicate. The ASCII-only
/// damages run first, as they expect ASCII.
fn gen_oracle_case(rng: &mut SmallRng) -> Case {
    let mut case = gen_case(rng);
    case.damage.truncate(rng.gen_range(0usize..4));
    for _ in 0..rng.gen_range(0usize..4) {
        let file = if rng.gen_bool(0.5) { File::Nodes } else { File::Topology };
        let pos = rng.next_u64() as usize;
        let d = match rng.gen_range(0u32..7) {
            0 => Damage::Separator { token: pos, with: SEPARATORS[rng.gen_range(0..SEPARATORS.len())] },
            1 => Damage::CrOnly,
            2 => Damage::Plus { token: pos },
            3 => Damage::Token { token: pos, with: BIG[rng.gen_range(0..BIG.len())].to_string() },
            4 => Damage::RepeatLine { line: pos, copies: rng.gen_range(1usize..4), at: rng.next_u64() as usize },
            5 => Damage::Shuffle { seed: rng.next_u64() },
            _ => Damage::AppendLine { with: format!("0 {}", rng.gen_range(30u32..99)) },
        };
        case.damage.push((file, d));
    }
    if rng.gen_bool(0.1) {
        // A duplicate, then a range error on a later line.
        let line = rng.next_u64() as usize;
        case.damage.push((File::Topology, Damage::RepeatLine { line, copies: 2, at: 0 }));
        case.damage.push((File::Topology, Damage::AppendLine { with: "1 4000000000".into() }));
    }
    case
}

#[test]
fn byte_parsers_equal_the_retained_oracles_on_valid_and_damaged_files() {
    let (mut same_ok, mut same_err) = (0, 0);
    check(
        "byte_parsers_equal_the_retained_oracles_on_valid_and_damaged_files",
        1024,
        gen_oracle_case,
        |case| {
            let (mut nodes, mut topology) = (case.nodes.clone(), case.topology.clone());
            for (file, d) in &case.damage {
                match file {
                    File::Nodes => nodes = damage(&nodes, d),
                    File::Topology => topology = damage(&topology, d),
                }
            }
            let ns = match (parse_nodes(&nodes), oracle::parse_nodes(&nodes)) {
                (Ok(got), Ok(want)) => {
                    let bits = |s: &NodeSet| -> Vec<(u64, u64)> {
                        s.points().iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
                    };
                    prop_ensure_eq!(bits(&got), bits(&want));
                    want
                }
                (got, want) => {
                    same_err += 1;
                    prop_ensure_eq!(got.map(|_| ()), want.map(|_| ()));
                    return Ok(());
                }
            };
            match (parse_topology(&topology, &ns), oracle::parse_topology(&topology, &ns)) {
                (Ok(got), Ok(want)) => {
                    same_ok += 1;
                    for u in 0..ns.len() {
                        let list = |t: &Topology| -> Vec<(usize, u64)> {
                            t.graph().neighbors_weighted(u).map(|(v, w)| (v, w.to_bits())).collect()
                        };
                        prop_ensure_eq!(list(&got), list(&want));
                    }
                    prop_ensure_eq!(got.num_edges(), want.num_edges());
                    let radii = |t: &Topology| -> Vec<u64> { t.radii().iter().map(|r| r.to_bits()).collect() };
                    prop_ensure_eq!(radii(&got), radii(&want));
                }
                (got, want) => {
                    same_err += 1;
                    prop_ensure_eq!(got.map(|_| ()), want.map(|_| ()));
                }
            }
            Ok(())
        },
    );
    assert!(same_ok > 200, "only {same_ok} of 1024 cases parsed");
    assert!(same_err > 200, "only {same_err} of 1024 cases were errors");
}

/// The node and topology parsers as they stood before the byte
/// tokenizer and the bulk topology build, kept verbatim as the oracle the
/// fast parsers must equal: the same `Ok` bits, or the same error.
mod oracle {
    use rim_geom::Point;
    use rim_graph::AdjacencyList;
    use rim_udg::io::{coordinate_in_range, ParseError};
    use rim_udg::{NodeSet, Topology};

    fn significant_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
        text.lines().enumerate().filter_map(|(i, raw)| {
            let line = raw.split('#').next().unwrap_or("").trim();
            (!line.is_empty()).then_some((i + 1, line))
        })
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
}
