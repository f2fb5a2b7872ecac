//! Lint rules over the lexed token stream.
//!
//! Every rule is lexical: no type information, no parse tree. Each
//! heuristic is tuned so the *workspace's idioms* stay clean and the
//! mistakes the rules exist to catch (exact float comparison, panicking
//! library paths) fire reliably. Intentional violations are silenced in place
//! with `// rim-lint: allow(<rule>)` pragmas, which keeps every
//! exception visible at the site that needs it. The same pragma comment
//! marks hot-path kernels: `// rim-lint: root` above a `fn`.

use crate::lexer::{lex, Kind, Token};
use crate::Diagnostic;

/// The rule registry: every diagnostic name the workspace can emit,
/// with a one-line explanation. Shared by pragma validation (an
/// `allow(...)` naming an unknown rule is itself a finding), the CLI's
/// `--rule` filter, and `--explain`.
pub const RULE_CATALOG: &[(&str, &str)] = &[
    (
        "float-eq",
        "`==`/`!=` on a floating-point quantity; use an ordering predicate, \
         `total_cmp`, or an explicit tolerance",
    ),
    (
        "squared-distance-mismatch",
        "a comparison or add/sub mixes a squared quantity with an unsquared \
         distance or radius; both sides must live at the same metric power \
         (checked by the units-of-measure dataflow pass)",
    ),
    (
        "power-domain-mismatch",
        "a comparison or add/sub mixes linear milliwatts (`*_mw`) with \
         log-domain dBm/dB (`*_dbm`, `*_db`); convert through \
         `dbm_to_mw`/`db_to_linear` before combining (checked by the \
         units-of-measure dataflow pass)",
    ),
    (
        "engine-determinism",
        "a function reachable from a `// rim-lint: root` fn (the hot-path \
         kernels: interference engines, dynamic updates, the parallel \
         executor, pipeline stages, topology builders, input parsers) \
         performs an atomic read-modify-write, RNG draw, wall-clock read, or \
         observability-sink installation; thread-count invariance requires \
         bitwise-deterministic results",
    ),
    (
        "no-unwrap-in-lib",
        "`.unwrap()`, `.expect()`, or a panicking macro in non-test library \
         code; propagate the error or justify with a pragma",
    ),
    (
        "forbid-unsafe",
        "a crate root is missing `#![forbid(unsafe_code)]`",
    ),
    (
        "panic-freedom",
        "a function reachable from a `// rim-lint: root` fn (the hot-path \
         kernels, as for engine-determinism) contains a panicking construct: \
         `panic!`-family macros, `.unwrap()`/`.expect()`, slice indexing, or \
         unchecked length subtraction",
    ),
    (
        "atomic-ordering",
        "an `Ordering::Relaxed`/`Ordering::SeqCst` use in rim-par/rim-obs \
         lacks a one-line soundness justification comment naming the ordering",
    ),
    (
        "lock-discipline",
        "a `.lock()` guard is held across `par_map_ranges`/`parallel_map`, or \
         the same lock is taken twice in one scope",
    ),
    (
        "dead-pub",
        "a `pub` item has zero references anywhere in the workspace (tests \
         and benches included); demote it or remove it",
    ),
    (
        "unknown-pragma-rule",
        "a `// rim-lint: allow(...)` pragma names a rule that is not in the \
         registry, so it suppresses nothing, a `// rim-lint: root` mark \
         sits above no non-test `fn`, so it marks nothing, or a \
         `// rim-lint:` comment is in none of the forms `allow(...)`, \
         `allow-file(...)` and `root`",
    ),
    (
        "external-dependency",
        "a manifest declares a dependency that is neither a workspace crate \
         nor on the (empty) external allowlist; the build must stay hermetic",
    ),
    (
        "unused-dependency",
        "a declared dependency is never referenced in the crate's sources",
    ),
    (
        "naive-oracle-retained",
        "a retained brute-force oracle is no longer reachable from any test; \
         the differential suites must keep exercising the naive references",
    ),
    (
        "obs-no-op-default",
        "library code installs an observability recorder; only the `rim` CLI \
         and the linter's `--profile` may enable a sink",
    ),
    (
        "stage-timing-e2e-retained",
        "a retained CLI end-to-end test for per-stage timing/`--obs` output \
         is gone",
    ),
];

/// Is `name` a registered rule?
pub fn rule_known(name: &str) -> bool {
    RULE_CATALOG.iter().any(|(n, _)| *n == name)
}

/// The registry explanation for `name`, if registered.
pub fn rule_explanation(name: &str) -> Option<&'static str> {
    RULE_CATALOG.iter().find(|(n, _)| *n == name).map(|(_, e)| *e)
}

/// Identifiers that suggest a comparison operand is floating-point.
/// Domain-specific names (`dist`, `radius`, `weight`, …) are included
/// because this workspace stores every one of them as `f64`.
const FLOAT_HINT_IDENTS: &[&str] = &[
    "f64",
    "f32",
    "dist",
    "dist_sq",
    "distance",
    "weight",
    "radius",
    "norm",
    "norm_sq",
    "INFINITY",
    "NEG_INFINITY",
    "NAN",
    "EPSILON",
    "MIN_POSITIVE",
];

/// Counter-evidence that a comparison is on integers after all: an
/// integer-typed name or literal in the window (`dist[v] == usize::MAX`
/// is the BFS hop-count idiom, not a float comparison).
const INT_HINT_IDENTS: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
    "len", "count",
];

/// Parsed suppression pragmas for one file.
pub struct Pragmas {
    /// `(rule, line)` pairs: suppress `rule` on `line` and `line + 1`.
    line_allows: Vec<(String, u32)>,
    /// Rules suppressed for the whole file.
    file_allows: Vec<String>,
    /// `(name, line)` of pragma arguments that are not registered rules.
    unknown: Vec<(String, u32)>,
    /// `(text, line)` of pragma comments in none of the three forms.
    malformed: Vec<(String, u32)>,
}

/// The text after `rim-lint:` in a pragma comment. Plain line comments
/// only: doc comments *describe* the pragma grammar (`allow(<rule>)` in
/// rustdoc examples) and must neither suppress, mark a root, nor trip
/// `unknown-pragma-rule`.
fn pragma_text(t: &Token) -> Option<&str> {
    if t.kind != Kind::Comment {
        return None;
    }
    t.text
        .find("rim-lint:")
        .map(|p| t.text[p + 9..].trim_start())
}

/// The `// rim-lint: root` marks of a file, as `(line, at)`: `at` is the
/// index of the first non-comment token after the mark, so the mark
/// attaches to the item that starts there, reading past the item's doc
/// comments, `allow(...)` lines and attributes. [`crate::model::build`]
/// makes the non-test `fn` a mark attaches to a root of the hot path
/// that `panic-freedom` and `engine-determinism` audit; a mark that
/// attaches to anything else is reported by [`unattached_root_marks`].
pub(crate) fn root_marks(tokens: &[Token]) -> Vec<(u32, usize)> {
    let mut marks = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !pragma_text(t).is_some_and(is_root_mark) {
            continue;
        }
        let next = tokens[i + 1..]
            .iter()
            .position(|n| !matches!(n.kind, Kind::Comment | Kind::DocComment));
        marks.push((t.line, next.map_or(tokens.len(), |p| i + 1 + p)));
    }
    marks
}

/// Whether pragma text is a root mark: its first word is `root`.
fn is_root_mark(text: &str) -> bool {
    text.split_whitespace().next() == Some("root")
}

impl Pragmas {
    /// Extracts pragmas from comment tokens. Grammar:
    /// `// rim-lint: allow(rule-a, rule-b)` (same + next line),
    /// `// rim-lint: allow-file(rule-a)` (whole file) and the root mark
    /// `// rim-lint: root` (see `root_marks`). A pragma comment in none of
    /// these forms (`roots`, `alow(…)`, an `allow(` without its `)`) is
    /// recorded as malformed, for `unknown-pragma-rule` to report.
    pub fn parse(tokens: &[Token]) -> Pragmas {
        let mut line_allows = Vec::new();
        let mut file_allows = Vec::new();
        let mut unknown = Vec::new();
        let mut malformed = Vec::new();
        for t in tokens {
            let Some(rest) = pragma_text(t) else { continue };
            let args = rest.strip_prefix("allow-file(").or_else(|| rest.strip_prefix("allow("));
            let Some((args, end)) = args.and_then(|a| Some((a, a.find(')')?))) else {
                if !is_root_mark(rest) {
                    malformed.push((rest.trim_end().to_string(), t.line));
                }
                continue;
            };
            let file_scope = rest.starts_with("allow-file(");
            for rule in args[..end].split(',') {
                let rule = rule.trim().to_string();
                if rule.is_empty() {
                    continue;
                }
                // An unregistered name suppresses nothing; record it so
                // `unknown-pragma-rule` can flag the typo.
                if !rule_known(&rule) {
                    unknown.push((rule, t.line));
                    continue;
                }
                if file_scope {
                    file_allows.push(rule);
                } else {
                    line_allows.push((rule, t.line));
                }
            }
        }
        Pragmas { line_allows, file_allows, unknown, malformed }
    }

    /// Pragma arguments that named unregistered rules.
    pub fn unknown_rules(&self) -> &[(String, u32)] {
        &self.unknown
    }

    /// Pragma comments in none of the three forms, as `(text, line)`.
    pub fn malformed(&self) -> &[(String, u32)] {
        &self.malformed
    }

    /// Is `rule` suppressed at `line`?
    pub fn allows(&self, rule: &str, line: u32) -> bool {
        self.file_allows.iter().any(|r| r == rule)
            || self
                .line_allows
                .iter()
                .any(|(r, l)| r == rule && (line == *l || line == *l + 1))
    }
}

/// Context handed to each rule: one file, lexed once.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// Token stream (comments included).
    pub tokens: &'a [Token],
    /// Suppression pragmas.
    pub pragmas: &'a Pragmas,
    /// Token-index ranges covered by `#[cfg(test)] mod … { … }`.
    pub test_mod_ranges: &'a [(usize, usize)],
}

impl FileCtx<'_> {
    fn emit(&self, out: &mut Vec<Diagnostic>, rule: &'static str, line: u32, message: String) {
        if self.pragmas.allows(rule, line) {
            return;
        }
        out.push(Diagnostic {
            rule,
            file: self.path.to_string(),
            line,
            message,
        });
    }

    fn in_test_mod(&self, idx: usize) -> bool {
        self.test_mod_ranges.iter().any(|&(a, b)| idx >= a && idx < b)
    }
}

/// Lexes a file and computes everything the rules need.
pub fn prepare(src: &str) -> (Vec<Token>, Vec<(usize, usize)>) {
    let tokens = lex(src);
    let ranges = test_mod_ranges(&tokens);
    (tokens, ranges)
}

/// Finds token-index ranges of `#[cfg(test)] mod name { … }` bodies by
/// brace matching, so library rules can skip inline test code.
fn test_mod_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .collect();
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        // Match `# [ cfg ( test ) ]` allowing extra args like
        // `cfg(all(test, …))` by just requiring `test` within the group.
        if code[i].1.text == "#"
            && i + 2 < code.len()
            && code[i + 1].1.text == "["
            && code[i + 2].1.text == "cfg"
        {
            // Find the closing `]` of the attribute.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut saw_test = false;
            while j < code.len() {
                match code[j].1.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_test && j + 1 < code.len() && code[j + 1].1.text == "mod" {
                // Skip to the opening brace, then to its match.
                let mut k = j + 1;
                while k < code.len() && code[k].1.text != "{" && code[k].1.text != ";" {
                    k += 1;
                }
                if k < code.len() && code[k].1.text == "{" {
                    let mut bd = 0i32;
                    let mut m = k;
                    while m < code.len() {
                        match code[m].1.text.as_str() {
                            "{" => bd += 1,
                            "}" => {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    let end = if m < code.len() { code[m].0 + 1 } else { tokens.len() };
                    ranges.push((code[i].0, end));
                    i = code.len().min(m + 1);
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Tokens that delimit a comparison operand at nesting depth 0.
fn is_window_stop(text: &str) -> bool {
    matches!(
        text,
        "," | ";" | "{" | "}" | "&&" | "||" | "=" | "=>" | "return" | "if" | "while" | "assert"
            | "debug_assert" | "<" | "<=" | ">" | ">=" | "==" | "!="
    )
}

/// Collects the operand window on one side of the comparison at token
/// index `op`, skipping comments and balancing `()`/`[]` so method
/// calls and index expressions stay inside the window. `dir` is `-1`
/// for the left operand, `+1` for the right.
fn operand_window(tokens: &[Token], op: usize, dir: i64) -> Vec<&Token> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut i = op as i64 + dir;
    let mut steps = 0;
    while i >= 0 && (i as usize) < tokens.len() && steps < 40 {
        let t = &tokens[i as usize];
        i += dir;
        if matches!(t.kind, Kind::Comment | Kind::DocComment) {
            continue;
        }
        steps += 1;
        let (open, close) = if dir < 0 { (")", "(") } else { ("(", ")") };
        let (bopen, bclose) = if dir < 0 { ("]", "[") } else { ("[", "]") };
        if t.text == open || t.text == bopen {
            depth += 1;
            out.push(t);
            continue;
        }
        if t.text == close || t.text == bclose {
            if depth == 0 {
                break; // enclosing group: operand ends here
            }
            depth -= 1;
            out.push(t);
            continue;
        }
        if depth == 0 && t.kind == Kind::Punct && is_window_stop(&t.text) {
            break;
        }
        if depth == 0 && t.kind == Kind::Ident && is_window_stop(&t.text) {
            break;
        }
        out.push(t);
    }
    if dir < 0 {
        // Collected right-to-left; restore source order so sequence
        // checks (`powi ( 2 )`) see the tokens as written.
        out.reverse();
    }
    out
}

/// `float-eq`: `==` / `!=` where an operand looks floating-point.
///
/// Def 3.1's closed predicate is `dist(u,v) <= r_u` — *ordering*
/// comparisons on distances are the model; exact *equality* on floats
/// is almost always a bug (ties must go through `total_cmp` or an
/// explicit epsilon, and say so with a pragma).
pub fn float_eq(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let declared = declared_float_idents(ctx.tokens);
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != Kind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let mut window = operand_window(ctx.tokens, i, -1);
        window.extend(operand_window(ctx.tokens, i, 1));
        let literal = window.iter().find(|w| w.kind == Kind::Float);
        let ident_hint = window.iter().find(|w| {
            w.kind == Kind::Ident
                && (FLOAT_HINT_IDENTS.contains(&w.text.as_str()) || declared.contains(&w.text))
        });
        // A name-based hint yields to integer counter-evidence; a float
        // literal is unambiguous.
        let int_evidence = window.iter().any(|w| {
            w.kind == Kind::Int
                || (w.kind == Kind::Ident && INT_HINT_IDENTS.contains(&w.text.as_str()))
        });
        let hint = literal.or(if int_evidence { None } else { ident_hint });
        if let Some(h) = hint {
            ctx.emit(
                out,
                "float-eq",
                t.line,
                format!(
                    "`{}` on a floating-point quantity (saw `{}`); use an ordering \
                     predicate, `total_cmp`, or an explicit tolerance — or annotate \
                     with `// rim-lint: allow(float-eq)` if exact equality is intended",
                    t.text, h.text
                ),
            );
        }
    }
}

/// Collects identifiers the file *declares* as floating-point:
/// `name: f64` / `name: &f64` ascriptions (params, fields, lets) and
/// `let name = <float literal>` bindings. Lets `float-eq` catch
/// comparisons of plainly-named floats whose type annotation sits
/// outside the operand window.
fn declared_float_idents(tokens: &[Token]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .collect();
    let is_float_ty = |t: &Token| t.kind == Kind::Ident && (t.text == "f64" || t.text == "f32");
    for w in code.windows(4) {
        // name : f64   |   name : & f64
        if w[0].kind == Kind::Ident
            && w[1].text == ":"
            && (is_float_ty(w[2]) || (w[2].text == "&" && is_float_ty(w[3])))
        {
            out.insert(w[0].text.clone());
        }
        // let name = <float literal>
        if w[0].text == "let" && w[1].kind == Kind::Ident && w[2].text == "=" && w[3].kind == Kind::Float
        {
            out.insert(w[1].text.clone());
        }
    }
    // let mut name = <float literal>
    for w in code.windows(5) {
        if w[0].text == "let"
            && w[1].text == "mut"
            && w[2].kind == Kind::Ident
            && w[3].text == "="
            && w[4].kind == Kind::Float
        {
            out.insert(w[2].text.clone());
        }
    }
    out
}

/// `no-unwrap-in-lib`: `.unwrap()`, `.expect(…)`, and `panic!` in
/// non-test library code. Library paths must return `Result`/`Option`
/// or document why panicking is correct via a pragma.
pub fn no_unwrap_in_lib(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let code: Vec<(usize, &Token)> = ctx
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .collect();
    for w in code.windows(3) {
        let (idx, a) = w[0];
        let b = w[1].1;
        let c = w[2].1;
        if ctx.in_test_mod(idx) {
            continue;
        }
        let fire = |name: &str| -> Option<String> {
            Some(format!(
                "`{name}` in library code; propagate the error (`Result`/`Option`) or \
                 annotate with `// rim-lint: allow(no-unwrap-in-lib)` stating why it \
                 cannot fail"
            ))
        };
        let msg = if a.text == "." && b.kind == Kind::Ident && c.text == "(" {
            match b.text.as_str() {
                "unwrap" => fire(".unwrap()"),
                "expect" => fire(".expect()"),
                _ => None,
            }
        } else if a.kind == Kind::Ident
            && b.text == "!"
            && matches!(c.text.as_str(), "(" | "{" | "[")
        {
            // All three macro delimiters: `panic!("…")`, `panic!{"…"}`,
            // and `panic!["…"]` panic identically.
            match a.text.as_str() {
                "panic" => fire("panic!"),
                "unreachable" => fire("unreachable!"),
                "todo" => fire("todo!"),
                "unimplemented" => fire("unimplemented!"),
                _ => None,
            }
        } else {
            None
        };
        if let Some(m) = msg {
            ctx.emit(out, "no-unwrap-in-lib", b.line, m);
        }
    }
}

/// `unknown-pragma-rule`: every rule name in a `// rim-lint:` pragma
/// must exist in [`RULE_CATALOG`], and every `// rim-lint:` comment must
/// be a pragma. A typo'd pragma suppresses nothing, which is worse than
/// no pragma: the author believes the site is justified while the gate
/// still fires — or, for a rule that was renamed away, never fires
/// again. A typo'd root mark (`roots`) marks nothing, so its kernel goes
/// unaudited.
pub fn unknown_pragma_rule(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    for (name, line) in ctx.pragmas.unknown_rules() {
        ctx.emit(
            out,
            "unknown-pragma-rule",
            *line,
            format!(
                "pragma names `{name}`, which is not a registered rule; see \
                 `cargo run -p rim-xtask -- lint --explain <rule>` for the catalog"
            ),
        );
    }
    for (text, line) in ctx.pragmas.malformed() {
        ctx.emit(
            out,
            "unknown-pragma-rule",
            *line,
            format!(
                "`rim-lint: {text}` is not a pragma, so it suppresses and marks nothing; \
                 write `allow(<rule>, ...)`, `allow-file(<rule>, ...)` or `root`"
            ),
        );
    }
}

/// `unknown-pragma-rule`, for marks: a `// rim-lint: root` mark that
/// attaches to no non-test `fn` (it sits above a `struct`, inside a fn
/// body, or above a test) marks nothing, so the kernel it was meant for
/// goes unaudited.
pub(crate) fn unattached_root_marks(ws: &crate::model::Workspace, out: &mut Vec<Diagnostic>) {
    for &(file_idx, line) in &ws.unattached_marks {
        out.push(Diagnostic {
            rule: "unknown-pragma-rule",
            file: ws.files[file_idx].rel.to_string(),
            line,
            message: "`// rim-lint: root` sits above no non-test `fn`, so it marks \
                      nothing; put it above the kernel's `fn` item (its doc comments, \
                      attributes and `allow(...)` lines may sit between)"
                .to_string(),
        });
    }
}

/// `forbid-unsafe`: the crate root must carry `#![forbid(unsafe_code)]`.
/// Only meaningful on crate-root files; the caller gates on path.
pub fn forbid_unsafe(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let code: Vec<&Token> = ctx
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .collect();
    let want = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = code
        .windows(want.len())
        .any(|w| w.iter().zip(want.iter()).all(|(t, s)| t.text == *s));
    if !found {
        ctx.emit(
            out,
            "forbid-unsafe",
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rule: fn(&FileCtx, &mut Vec<Diagnostic>), src: &str) -> Vec<Diagnostic> {
        let (tokens, ranges) = prepare(src);
        let pragmas = Pragmas::parse(&tokens);
        let ctx = FileCtx {
            path: "test.rs",
            tokens: &tokens,
            pragmas: &pragmas,
            test_mod_ranges: &ranges,
        };
        let mut out = Vec::new();
        rule(&ctx, &mut out);
        out
    }

    // ---- float-eq ----

    #[test]
    fn float_eq_fires_on_literal_and_hint_idents() {
        assert_eq!(run(float_eq, "if x == 1.0 { }").len(), 1);
        assert_eq!(run(float_eq, "if a.dist(b) == c { }").len(), 1);
        assert_eq!(run(float_eq, "if radius != other { }").len(), 1);
        assert_eq!(run(float_eq, "if w == f64::INFINITY { }").len(), 1);
    }

    #[test]
    fn float_eq_clean_on_ints_strings_comments() {
        assert_eq!(run(float_eq, "if n == 3 { }").len(), 0);
        assert_eq!(run(float_eq, "let s = \"x == 1.0\";").len(), 0);
        assert_eq!(run(float_eq, "// x == 1.0\nlet y = 2;").len(), 0);
        assert_eq!(run(float_eq, "if name == \"radius\" { }").len(), 0);
    }

    #[test]
    fn float_eq_window_stops_at_statement_boundaries() {
        // The float on the previous statement must not leak into the
        // window of the integer comparison.
        assert_eq!(run(float_eq, "let a = 1.0; if n == 3 { }").len(), 0);
        assert_eq!(run(float_eq, "f(1.0, n == 3)").len(), 0);
    }

    #[test]
    fn float_eq_sees_file_local_float_declarations() {
        // The type annotation sits outside the operand window; the
        // file-level declaration pass still catches the comparison.
        assert_eq!(run(float_eq, "fn f(x: f64, y: f64) -> bool { x == y }").len(), 1);
        assert_eq!(run(float_eq, "fn f() { let a = 0.5; g(); if a == b { } }").len(), 1);
        assert_eq!(run(float_eq, "fn f(p: &f64) -> bool { *p == q }").len(), 1);
        // Same names, integer types: clean.
        assert_eq!(run(float_eq, "fn f(x: u32, y: u32) -> bool { x == y }").len(), 0);
    }

    #[test]
    fn float_eq_yields_to_integer_counter_evidence() {
        // BFS hop counts reuse metric-sounding names at integer type.
        assert_eq!(run(float_eq, "if dist[v] == usize::MAX { }").len(), 0);
        assert_eq!(run(float_eq, "if dist[v] == dist[u] + 1 { }").len(), 0);
        // A float literal overrides the counter-evidence.
        assert_eq!(run(float_eq, "if dist[v] == 1.0 + (n as f64) { }").len(), 1);
    }

    #[test]
    fn float_eq_pragma_suppresses() {
        let src = "// rim-lint: allow(float-eq)\nif x == 1.0 { }";
        assert_eq!(run(float_eq, src).len(), 0);
        let trailing = "if x == 1.0 { } // rim-lint: allow(float-eq)";
        assert_eq!(run(float_eq, trailing).len(), 0);
        let file = "// rim-lint: allow-file(float-eq)\nfn f() { }\nfn g() { let _ = x == 1.0; }";
        assert_eq!(run(float_eq, file).len(), 0);
        // The wrong rule name does not suppress.
        let wrong = "// rim-lint: allow(no-unwrap-in-lib)\nif x == 1.0 { }";
        assert_eq!(run(float_eq, wrong).len(), 1);
    }

    // ---- squared-distance-mismatch ----

    /// Runs the dataflow pass (`flow::check_unit_mismatch`, the rule's
    /// one implementation) over a one-file library crate.
    fn sq_mismatch(lib: &str) -> Vec<Diagnostic> {
        let (tokens, ranges) = prepare(lib);
        let members = [crate::audit::Member {
            dir: std::path::PathBuf::from("/nonexistent"),
            manifest_rel: "Cargo.toml".to_string(),
            manifest: crate::audit::parse_manifest("[package]\nname = \"demo\"\n"),
            lib_sources: vec![("src/lib.rs".to_string(), tokens, ranges)],
            test_sources: Vec::new(),
        }];
        let ws = crate::model::build(&members);
        let pragmas = ws
            .files
            .iter()
            .map(|f| (f.rel.to_string(), Pragmas::parse(f.tokens)))
            .collect();
        let mut out = Vec::new();
        crate::flow::check_unit_mismatch(&ws, &crate::flow::analyze(&ws), &pragmas, &mut out);
        out
    }

    #[test]
    fn sq_mismatch_fires_on_mixed_powers() {
        for lib in [
            "pub fn a(p: P, q: P, r: f64) -> bool { p.dist_sq(q) <= r }",
            "pub fn b(dist: f64, r: f64) -> bool { dist < r * r }",
            "pub fn c(d: f64, radius: f64) -> bool { d.powi(2) <= radius }",
        ] {
            let out = sq_mismatch(lib);
            assert_eq!(out.len(), 1, "{lib}: {out:#?}");
            assert_eq!(out[0].rule, "squared-distance-mismatch", "{lib}");
        }
    }

    #[test]
    fn sq_mismatch_clean_on_consistent_powers() {
        for lib in [
            "pub fn e(p: P, q: P, r: f64) -> bool { p.dist(q) <= r }",
            "pub fn f(p: P, q: P, r: f64) -> bool { p.dist_sq(q) <= r * r }",
            "pub fn g(p: P, q: P, r_sq: f64) -> bool { p.dist_sq(q) <= r_sq }",
            "pub fn h(n: usize, m: usize) -> bool { n < m }",
        ] {
            let out = sq_mismatch(lib);
            assert!(out.is_empty(), "{lib}: {out:#?}");
        }
    }

    // ---- no-unwrap-in-lib ----

    #[test]
    fn unwrap_fires_outside_tests_only() {
        assert_eq!(run(no_unwrap_in_lib, "fn f() { x.unwrap(); }").len(), 1);
        assert_eq!(run(no_unwrap_in_lib, "fn f() { x.expect(\"m\"); }").len(), 1);
        assert_eq!(run(no_unwrap_in_lib, "fn f() { panic!(\"m\"); }").len(), 1);
        assert_eq!(run(no_unwrap_in_lib, "fn f() { unreachable!() }").len(), 1);
        let test_mod = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); panic!(); }\n}";
        assert_eq!(run(no_unwrap_in_lib, test_mod).len(), 0);
        // Code after the test mod is scanned again.
        let after = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }\nfn g() { y.unwrap(); }";
        assert_eq!(run(no_unwrap_in_lib, after).len(), 1);
    }

    #[test]
    fn unwrap_clean_on_lookalikes() {
        assert_eq!(run(no_unwrap_in_lib, "fn f() { x.unwrap_or(0); }").len(), 0);
        assert_eq!(run(no_unwrap_in_lib, "fn f() { x.unwrap_or_else(g); }").len(), 0);
        assert_eq!(run(no_unwrap_in_lib, "fn f() { x.expect_err(\"m\"); }").len(), 0);
        assert_eq!(run(no_unwrap_in_lib, "// x.unwrap()\nfn f() { }").len(), 0);
    }

    // ---- forbid-unsafe ----

    #[test]
    fn forbid_unsafe_checks_the_attribute() {
        assert_eq!(run(forbid_unsafe, "#![forbid(unsafe_code)]\nfn f() {}").len(), 0);
        assert_eq!(run(forbid_unsafe, "//! docs\n#![forbid(unsafe_code)]").len(), 0);
        assert_eq!(run(forbid_unsafe, "fn f() {}").len(), 1);
        // A comment mentioning it does not count.
        assert_eq!(run(forbid_unsafe, "// #![forbid(unsafe_code)]\nfn f() {}").len(), 1);
    }

    #[test]
    fn unwrap_fires_on_brace_and_bracket_macro_delimiters() {
        assert_eq!(run(no_unwrap_in_lib, "fn f() { panic!{\"m\"} }").len(), 1);
        assert_eq!(run(no_unwrap_in_lib, "fn f() { todo![] }").len(), 1);
        assert_eq!(run(no_unwrap_in_lib, "fn f() { unreachable!{} }").len(), 1);
    }

    // ---- registry + unknown-pragma-rule ----

    #[test]
    fn rule_registry_lookup() {
        for rule in ["panic-freedom", "atomic-ordering", "lock-discipline", "dead-pub"] {
            assert!(rule_known(rule), "{rule} missing from the catalog");
            assert!(rule_explanation(rule).is_some());
        }
        assert!(!rule_known("panic_freedom"));
        assert!(rule_explanation("no-such-rule").is_none());
    }

    #[test]
    fn unknown_pragma_rule_flags_typos() {
        let out = run(unknown_pragma_rule, "// rim-lint: allow(flaot-eq)\nfn f() {}");
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("flaot-eq"));
        assert_eq!(run(unknown_pragma_rule, "// rim-lint: allow(float-eq)\nfn f() {}").len(), 0);
        // allow-file with a bad name is flagged and suppresses nothing.
        assert_eq!(run(unknown_pragma_rule, "// rim-lint: allow-file(no-such)\n").len(), 1);
        let (tokens, _) = prepare("// rim-lint: allow-file(no-such)\n");
        assert!(!Pragmas::parse(&tokens).allows("no-such", 5));
    }

    #[test]
    fn unknown_pragma_rule_flags_malformed_pragmas() {
        for bad in ["roots", "rot", "alow(float-eq)", "allow(float-eq"] {
            let out = run(unknown_pragma_rule, &format!("// rim-lint: {bad}\nfn f() {{}}"));
            assert_eq!(out.len(), 1, "{bad}: {out:#?}");
            assert_eq!(out[0].line, 1, "{bad}");
            assert!(out[0].message.contains(bad), "{bad}: {}", out[0].message);
        }
        for good in ["allow(float-eq)", "allow-file(float-eq)", "root"] {
            let out = run(unknown_pragma_rule, &format!("// rim-lint: {good}\nfn f() {{}}"));
            assert!(out.is_empty(), "{good}: {out:#?}");
        }
        // A malformed `allow` suppresses nothing.
        let (tokens, _) = prepare("// rim-lint: allow(float-eq\nfn f() {}");
        assert!(!Pragmas::parse(&tokens).allows("float-eq", 2));
    }

    // ---- pragmas ----

    #[test]
    fn pragma_parsing_handles_lists_and_scopes() {
        let (tokens, _) = prepare(
            "// rim-lint: allow(float-eq, no-unwrap-in-lib)\n// rim-lint: allow-file(forbid-unsafe)\n",
        );
        let p = Pragmas::parse(&tokens);
        assert!(p.allows("float-eq", 1));
        assert!(p.allows("float-eq", 2));
        assert!(!p.allows("float-eq", 3));
        assert!(p.allows("no-unwrap-in-lib", 1));
        assert!(p.allows("forbid-unsafe", 999));
        assert!(!p.allows("dead-pub", 1));
    }
}
