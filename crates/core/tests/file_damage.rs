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
