//! Expression-level parser: opens the opaque `fn` body token ranges of
//! [`crate::parse`] into statement/expression trees.
//!
//! [`parse_fn_body`] takes the same token vector the item parser
//! indexed and a body range strictly inside the braces, and returns a
//! [`Body`]: a [`Block`] of [`Stmt`]s whose expressions carry enough
//! structure for the dataflow passes in [`crate::flow`] — lets with
//! extracted binding names, calls, method chains, comparisons,
//! indexing, loops with recognised `0..len`-style headers, and macro
//! invocations with best-effort argument parsing (`vec![x; n]` is
//! special-cased as [`ExprKind::Repeat`] inside the macro).
//!
//! Three properties the rest of the linter depends on:
//!
//! * **Error recovery, not rejection.** Unknown constructs consume at
//!   least one token, count one error, and resynchronise at `;`/`}`.
//!   The self-test in `tests/expr_selftest.rs` asserts every `fn` body
//!   in the workspace parses with **zero** errors, so recovery exists
//!   only for fuzz inputs and future syntax.
//! * **No panics on arbitrary token soup** (fuzzed via `rim_rng::prop`;
//!   recursion is depth-capped, every loop makes progress).
//! * **Faithful precedence**: the pretty-printer [`Expr::pretty`]
//!   emits minimal parentheses, and a round-trip property test checks
//!   `parse(pretty(e))` has the same shape as `e`.
//!
//! Patterns stay opaque on purpose: a pattern is scanned to its
//! terminator (`=`, `in`, `=>`) and only the *bound identifiers* are
//! kept — that is all the unit/bounds lattices need. Types are
//! likewise consumed and dropped (with `<`/`>>`-aware angle
//! balancing), so `Vec<Vec<u8>>` in a `let` ascription or a cast does
//! not confuse the operator grammar.

use crate::lexer::{Kind, Token};

/// One expression with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// 1-based line of the expression's first token.
    pub line: u32,
    /// The expression's shape.
    pub kind: ExprKind,
}

/// Expression shapes. Operators are kept as their source text (`"+"`,
/// `"<="`, …) — the parser has already fixed the precedence, so
/// consumers only ever match on the string.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal (raw text, `1_000` uncleaned).
    Int(String),
    /// Float literal.
    Float(String),
    /// String/char/byte literal.
    Lit,
    /// `true`/`false`.
    Bool(bool),
    /// Path: `x`, `self.x` is Field, `a::b::c` — segments without
    /// turbofish arguments.
    Path(Vec<String>),
    /// Prefix operator: `-`, `!`, `*`, `&`, `&mut`.
    Unary(String, Box<Expr>),
    /// Binary operator (arithmetic, comparison, logical, bit, range
    /// excluded — see [`ExprKind::Range`]).
    Binary(String, Box<Expr>, Box<Expr>),
    /// `lhs = rhs` and compound assignments (`+=`, …; op keeps its
    /// text).
    Assign(String, Box<Expr>, Box<Expr>),
    /// `callee(args…)`.
    Call(Box<Expr>, Vec<Expr>),
    /// `recv.name(args…)`.
    MethodCall(Box<Expr>, String, Vec<Expr>),
    /// `recv.field` / `tuple.0`.
    Field(Box<Expr>, String),
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// `e as T` (type dropped).
    Cast(Box<Expr>),
    /// `a..b`, `a..=b`, with either side optional; bool = inclusive.
    Range(Option<Box<Expr>>, Option<Box<Expr>>, bool),
    /// `e?`.
    Try(Box<Expr>),
    /// `|params| body` (param names only; types dropped).
    Closure(Vec<String>, Box<Expr>),
    /// `if cond { … } else …` — the else is a [`ExprKind::Block`] or a
    /// chained `if`.
    If(Box<Expr>, Block, Option<Box<Expr>>),
    /// `if let PAT = expr { … } else …` (pattern kept as bound idents).
    IfLet(Vec<String>, Box<Expr>, Block, Option<Box<Expr>>),
    /// `while cond { … }`.
    While(Box<Expr>, Block),
    /// `while let PAT = expr { … }`.
    WhileLet(Vec<String>, Box<Expr>, Block),
    /// `loop { … }`.
    Loop(Block),
    /// `for PAT in iter { … }` (pattern kept as bound idents, in
    /// order — `(i, x)` yields `["i", "x"]`).
    For(Vec<String>, Box<Expr>, Block),
    /// `match scrutinee { arms… }`.
    Match(Box<Expr>, Vec<Arm>),
    /// Block expression (incl. `unsafe { … }` and `const { … }`).
    Block(Block),
    /// `(a, b, …)`; a 1-tuple `(e,)` or plain parenthesisation
    /// collapses to the inner expression.
    Tuple(Vec<Expr>),
    /// `[a, b, …]`.
    Array(Vec<Expr>),
    /// `[elem; count]` — also produced for `vec![elem; count]` args.
    Repeat(Box<Expr>, Box<Expr>),
    /// `Path { field: expr, … , ..base }`.
    StructLit(Vec<String>, Vec<(String, Expr)>, Option<Box<Expr>>),
    /// `name!(args…)`: best-effort parsed arguments; `opaque` is true
    /// when the delimiter contents did not parse as a comma-separated
    /// expression list, in which case `raw` keeps the unparsed code
    /// tokens (text, line) for conservative token-level fallbacks.
    MacroCall {
        /// Macro name (`vec`, `assert`, …; path macros keep the last
        /// segment).
        name: String,
        /// Parsed arguments (empty when opaque).
        args: Vec<Expr>,
        /// True when the argument tokens did not parse cleanly.
        opaque: bool,
        /// Raw code tokens of an opaque invocation (text, line).
        raw: Vec<(String, u32)>,
    },
    /// `return e?`.
    Return(Option<Box<Expr>>),
    /// `break 'label? e?`.
    Break(Option<Box<Expr>>),
    /// `continue 'label?`.
    Continue,
    /// Recovery placeholder; each one counted in [`Body::errors`].
    Err,
}

/// One `match` arm: opaque pattern (bound idents only), optional
/// guard, body.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// 1-based line of the pattern's first token.
    pub line: u32,
    /// Identifiers the pattern binds (heuristic: lowercase idents not
    /// followed by `::` / `(` / `{` / `!`).
    pub pat_idents: Vec<String>,
    /// `if guard` expression, when present.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// A `{ … }` body: statements plus an optional tail expression.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements in order.
    pub stmts: Vec<Stmt>,
    /// Trailing expression without `;`, if any.
    pub tail: Option<Box<Expr>>,
}

/// One statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let PAT (: T)? (= init (else { … })?)? ;`
    Let {
        /// 1-based line of the `let`.
        line: u32,
        /// `Some(name)` when the pattern is a plain `[mut] name`.
        name: Option<String>,
        /// All identifiers the pattern binds (see [`Arm::pat_idents`]).
        pat_idents: Vec<String>,
        /// Initialiser, when present.
        init: Option<Expr>,
        /// `let … else { … }` diverging block, when present.
        els: Option<Block>,
    },
    /// Expression statement; `semi` records the trailing `;`.
    Expr(Expr, bool),
    /// A nested item. For nested `fn` items the body is parsed
    /// recursively so dataflow walks see their expressions too.
    Item(Option<Block>),
}

/// Result of parsing one `fn` body.
#[derive(Debug, Clone, Default)]
pub struct Body {
    /// The statements/tail of the body braces.
    pub block: Block,
    /// Number of [`ExprKind::Err`] recovery nodes produced.
    pub errors: usize,
    /// Number of macro invocations whose arguments stayed opaque.
    pub opaque_macros: usize,
}

/// Parses the token range strictly inside a `fn` body's braces (the
/// convention of [`crate::parse::Item::body`]). Comments are filtered
/// out; the parse never panics and always terminates.
pub fn parse_fn_body(tokens: &[Token], (b0, b1): (usize, usize)) -> Body {
    let code: Vec<&Token> = tokens[b0.min(tokens.len())..b1.min(tokens.len())]
        .iter()
        .filter(|t| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .collect();
    let mut p = Parser { code: &code, pos: 0, depth: 0, errors: 0, opaque_macros: 0 };
    let block = p.parse_block_inner(usize::MAX);
    Body { block, errors: p.errors, opaque_macros: p.opaque_macros }
}

/// Convenience for tests: lexes `src` and parses the whole token
/// stream as a body.
pub fn parse_source_body(src: &str) -> Body {
    let tokens = crate::lexer::lex(src);
    parse_fn_body(&tokens, (0, tokens.len()))
}

/// Maximum expression nesting before the parser bails out with an
/// error node instead of recursing (fuzz inputs like `((((((…`).
const MAX_DEPTH: usize = 200;

/// Item-introducing keywords that start a nested item statement.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "impl", "trait", "mod", "union", "use", "type", "static", "extern",
    "macro_rules", "const",
];

struct Parser<'a> {
    code: &'a [&'a Token],
    pos: usize,
    depth: usize,
    errors: usize,
    opaque_macros: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.code.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<&'a Token> {
        self.code.get(self.pos + off).copied()
    }

    fn text(&self) -> &'a str {
        self.peek().map(|t| t.text.as_str()).unwrap_or("")
    }

    fn text_at(&self, off: usize) -> &'a str {
        self.peek_at(off).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn line(&self) -> u32 {
        self.peek().map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.text() == text {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err_expr(&mut self) -> Expr {
        self.errors += 1;
        Expr { line: self.line(), kind: ExprKind::Err }
    }

    /// Skips tokens until the matching close of the delimiter at the
    /// current position (which must be an opener) — inclusive.
    fn skip_group(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Skips to just past the next `;` at delimiter depth 0 (or EOF).
    fn skip_to_semi(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => return,
                _ => {}
            }
        }
    }

    // ----- blocks and statements ---------------------------------------

    /// Parses statements until a `}` at depth 0 (consumed by the
    /// caller) or `end`/EOF. `usize::MAX` means "to EOF".
    fn parse_block_inner(&mut self, end: usize) -> Block {
        let mut block = Block::default();
        loop {
            if self.pos >= self.code.len() || self.pos >= end || self.text() == "}" {
                break;
            }
            let before = self.pos;
            self.parse_stmt(&mut block);
            if self.pos == before {
                // Hard progress guarantee for fuzz inputs.
                self.bump();
                self.errors += 1;
            }
        }
        block
    }

    /// Parses a braced block: consumes `{`, the statements, and `}`.
    fn parse_block(&mut self) -> Block {
        if !self.eat("{") {
            self.errors += 1;
            return Block::default();
        }
        let block = self.parse_block_inner(usize::MAX);
        if !self.eat("}") {
            self.errors += 1;
        }
        block
    }

    fn parse_stmt(&mut self, block: &mut Block) {
        // Outer attributes on statements/items.
        while self.text() == "#" && (self.text_at(1) == "[" || self.text_at(1) == "!") {
            self.bump(); // '#'
            if self.text() == "!" {
                self.bump();
            }
            if self.text() == "[" {
                self.skip_group();
            }
        }
        let Some(t) = self.peek() else { return };
        match t.text.as_str() {
            ";" => {
                self.bump();
            }
            "let" => {
                let stmt = self.parse_let();
                block.stmts.push(stmt);
            }
            "}" => {}
            kw if t.kind == Kind::Ident
                && ITEM_KEYWORDS.contains(&kw)
                && self.starts_item(kw) =>
            {
                let body = self.skip_item(kw);
                block.stmts.push(Stmt::Item(body));
            }
            _ => {
                let e = self.parse_expr(0, false);
                let semi = self.eat(";");
                let block_like = is_block_like(&e);
                if !semi && (self.pos >= self.code.len() || self.text() == "}") {
                    block.tail = Some(Box::new(e));
                } else if semi || block_like {
                    block.stmts.push(Stmt::Expr(e, semi));
                } else {
                    // Non-block expression not followed by `;` or `}`:
                    // record the expr, count a recovery error.
                    self.errors += 1;
                    block.stmts.push(Stmt::Expr(e, false));
                }
            }
        }
    }

    /// Is the keyword at the current position really introducing an
    /// item (vs. `const`-less false positives)? `const` in statement
    /// position is an item (`const N: usize = …;`); other keywords are
    /// unambiguous at statement start.
    fn starts_item(&self, kw: &str) -> bool {
        match kw {
            // `unsafe` blocks are handled by the expression grammar.
            "const" => self.peek_at(1).is_some_and(|t| t.kind == Kind::Ident || t.text == "_"),
            _ => true,
        }
    }

    /// Skips one nested item. For `fn` items the body block is parsed
    /// recursively and returned so dataflow walks cover it.
    fn skip_item(&mut self, kw: &str) -> Option<Block> {
        match kw {
            "use" | "type" | "static" | "extern" | "const" => {
                self.skip_to_semi();
                None
            }
            "macro_rules" => {
                self.bump(); // macro_rules
                self.eat("!");
                self.bump(); // name
                if matches!(self.text(), "(" | "[" | "{") {
                    self.skip_group();
                }
                self.eat(";");
                None
            }
            "fn" => {
                // Scan to the body `{` at delimiter depth 0, then parse
                // the body recursively.
                let mut depth = 0usize;
                while let Some(t) = self.peek() {
                    match t.text.as_str() {
                        "(" | "[" => {
                            self.skip_group();
                            continue;
                        }
                        "{" if depth == 0 => break,
                        ";" if depth == 0 => {
                            self.bump();
                            return None;
                        }
                        "<" => depth += 1,
                        ">" => depth = depth.saturating_sub(1),
                        "<<" => depth += 2,
                        ">>" => depth = depth.saturating_sub(2),
                        _ => {}
                    }
                    self.bump();
                }
                if self.text() == "{" {
                    Some(self.parse_block())
                } else {
                    None
                }
            }
            _ => {
                // struct/enum/impl/trait/mod/union: `{ … }` group or `;`.
                let mut guard = 0usize;
                while let Some(t) = self.peek() {
                    guard += 1;
                    if guard > self.code.len() {
                        break;
                    }
                    match t.text.as_str() {
                        "(" | "[" => {
                            self.skip_group();
                            // Tuple struct: `struct S(u32);`.
                            if self.eat(";") {
                                return None;
                            }
                            continue;
                        }
                        "{" => {
                            self.skip_group();
                            return None;
                        }
                        ";" => {
                            self.bump();
                            return None;
                        }
                        _ => {
                            self.bump();
                        }
                    }
                }
                None
            }
        }
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // let
        let (name, pat_idents) = self.parse_pattern(&["=", ";", ":"]);
        if self.eat(":") {
            self.skip_type(&["=", ";"]);
        }
        let mut init = None;
        let mut els = None;
        if self.eat("=") {
            init = Some(self.parse_expr(0, false));
            if self.eat("else") {
                els = Some(self.parse_block());
            }
        }
        self.eat(";");
        Stmt::Let { line, name, pat_idents, init, els }
    }

    /// Scans an opaque pattern up to one of `stops` at delimiter depth
    /// 0, returning (plain-binding name, all bound idents). Lowercase
    /// identifiers not followed by `::`/`(`/`{`/`!`/`:` count as
    /// bindings; `mut`/`ref`/`box`/`_` are skipped.
    fn parse_pattern(&mut self, stops: &[&str]) -> (Option<String>, Vec<String>) {
        let mut idents = Vec::new();
        let mut tokens_seen = 0usize;
        let mut only = None;
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if depth == 0 && stops.contains(&t.text.as_str()) {
                break;
            }
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "mut" | "ref" | "box" | "_" | "&" => {}
                _ if t.kind == Kind::Ident => {
                    let binds = t.text.chars().next().is_some_and(|c| c.is_lowercase())
                        && !matches!(self.text_at(1), "::" | "(" | "{" | "!");
                    if binds {
                        idents.push(t.text.clone());
                    }
                    tokens_seen += 1;
                    if tokens_seen == 1 && depth == 0 && binds {
                        only = Some(t.text.clone());
                    } else {
                        only = None;
                    }
                    self.bump();
                    continue;
                }
                _ => {
                    only = None;
                }
            }
            if !matches!(t.text.as_str(), "mut" | "ref") {
                tokens_seen += 1;
                if tokens_seen > 1 {
                    only = None;
                }
            }
            self.bump();
        }
        (only, idents)
    }

    /// Consumes a type up to one of `stops` at depth 0, balancing
    /// `()`/`[]` and `<`/`<<`/`>`/`>>` angles.
    fn skip_type(&mut self, stops: &[&str]) {
        let mut angle = 0isize;
        let mut delim = 0usize;
        while let Some(t) = self.peek() {
            if angle <= 0 && delim == 0 && stops.contains(&t.text.as_str()) {
                return;
            }
            match t.text.as_str() {
                "(" | "[" => delim += 1,
                ")" | "]" => {
                    if delim == 0 {
                        return;
                    }
                    delim -= 1;
                }
                "{" | "}" => return,
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
            self.bump();
        }
    }

    // ----- expressions -------------------------------------------------

    fn parse_expr(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            let e = self.err_expr();
            self.bump();
            return e;
        }
        self.depth += 1;
        let e = self.parse_expr_inner(min_bp, no_struct);
        self.depth -= 1;
        e
    }

    fn parse_expr_inner(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.parse_prefix(no_struct);
        while let Some(t) = self.peek() {
            let op = t.text.as_str();
            // Postfix: `.`, `?`, call, index.
            match op {
                "." => {
                    lhs = self.parse_dot(lhs);
                    continue;
                }
                "?" => {
                    self.bump();
                    lhs = Expr { line: lhs.line, kind: ExprKind::Try(Box::new(lhs)) };
                    continue;
                }
                "(" if 27 >= min_bp => {
                    let args = self.parse_args("(", ")");
                    lhs = Expr { line: lhs.line, kind: ExprKind::Call(Box::new(lhs), args) };
                    continue;
                }
                "[" if 27 >= min_bp => {
                    self.bump();
                    let idx = self.parse_expr(0, false);
                    if !self.eat("]") {
                        self.errors += 1;
                        self.recover_in_group("]");
                    }
                    lhs = Expr {
                        line: lhs.line,
                        kind: ExprKind::Index(Box::new(lhs), Box::new(idx)),
                    };
                    continue;
                }
                "as" if 25 >= min_bp => {
                    self.bump();
                    // `=>` ends a cast inside a match guard
                    // (`Ok(p) if n == m as u64 => …`); `|`, `^` and the
                    // compound assignments cannot occur inside a type.
                    self.skip_type(&[
                        ";", ",", ")", "]", "}", "{", "=", "=>", "==", "!=", "<=", ">=", "&&",
                        "||", "|", "^", "+", "-", "*", "/", "%", "?", ".", "..", "..=", "as",
                        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
                    ]);
                    lhs = Expr { line: lhs.line, kind: ExprKind::Cast(Box::new(lhs)) };
                    continue;
                }
                ".." | "..=" if 5 >= min_bp => {
                    let inclusive = op == "..=";
                    self.bump();
                    let rhs = if self.starts_expr(no_struct) {
                        Some(Box::new(self.parse_expr(6, no_struct)))
                    } else {
                        None
                    };
                    lhs = Expr {
                        line: lhs.line,
                        kind: ExprKind::Range(Some(Box::new(lhs)), rhs, inclusive),
                    };
                    continue;
                }
                _ => {}
            }
            if let Some((lbp, rbp)) = assign_bp(op) {
                if lbp < min_bp {
                    break;
                }
                let opx = op.to_string();
                self.bump();
                let rhs = self.parse_expr(rbp, no_struct);
                lhs = Expr {
                    line: lhs.line,
                    kind: ExprKind::Assign(opx, Box::new(lhs), Box::new(rhs)),
                };
                continue;
            }
            if let Some((lbp, rbp)) = infix_bp(op) {
                if lbp < min_bp {
                    break;
                }
                let opx = op.to_string();
                self.bump();
                let rhs = self.parse_expr(rbp, no_struct);
                lhs = Expr {
                    line: lhs.line,
                    kind: ExprKind::Binary(opx, Box::new(lhs), Box::new(rhs)),
                };
                continue;
            }
            break;
        }
        lhs
    }

    /// Can the current token start an expression? Used for optional
    /// operands (`return`, `break`, open ranges).
    fn starts_expr(&self, _no_struct: bool) -> bool {
        let Some(t) = self.peek() else { return false };
        match t.kind {
            Kind::Int | Kind::Float | Kind::Str => true,
            Kind::Lifetime => true,
            Kind::Ident => !matches!(t.text.as_str(), "in" | "else" | "where"),
            Kind::Punct | Kind::Comment | Kind::DocComment => matches!(
                t.text.as_str(),
                "(" | "[" | "{" | "-" | "!" | "*" | "&" | "&&" | "|" | "||" | ".." | "..=" | "<"
            ),
        }
    }

    fn parse_prefix(&mut self, no_struct: bool) -> Expr {
        let Some(t) = self.peek() else {
            return self.err_expr();
        };
        let line = t.line;
        match t.kind {
            Kind::Int => {
                self.bump();
                Expr { line, kind: ExprKind::Int(t.text.clone()) }
            }
            Kind::Float => {
                self.bump();
                Expr { line, kind: ExprKind::Float(t.text.clone()) }
            }
            Kind::Str => {
                self.bump();
                Expr { line, kind: ExprKind::Lit }
            }
            Kind::Lifetime => {
                // Label: `'a: loop { … }`, or `'a` inside `break 'a`.
                self.bump();
                self.eat(":");
                self.parse_prefix(no_struct)
            }
            // Byte literal: the lexer keeps `b` (Ident) and `'x'`
            // (Str) separate; glue them back into one literal.
            Kind::Ident if t.text == "b" && self.peek_at(1).is_some_and(|n| n.kind == Kind::Str) =>
            {
                self.bump();
                self.bump();
                Expr { line, kind: ExprKind::Lit }
            }
            Kind::Ident => self.parse_ident_prefix(no_struct),
            _ => match t.text.as_str() {
                "(" => {
                    let mut items = self.parse_args("(", ")");
                    if items.len() == 1 {
                        items.pop().expect("len checked") // rim-lint: allow(no-unwrap-in-lib) — guarded by `items.len() == 1`
                    } else {
                        Expr { line, kind: ExprKind::Tuple(items) }
                    }
                }
                "[" => {
                    self.bump();
                    let first = if self.text() == "]" {
                        None
                    } else {
                        Some(self.parse_expr(0, false))
                    };
                    if let Some(first) = first {
                        if self.eat(";") {
                            let count = self.parse_expr(0, false);
                            if !self.eat("]") {
                                self.errors += 1;
                                self.recover_in_group("]");
                            }
                            return Expr {
                                line,
                                kind: ExprKind::Repeat(Box::new(first), Box::new(count)),
                            };
                        }
                        let mut items = vec![first];
                        while self.eat(",") {
                            if self.text() == "]" {
                                break;
                            }
                            items.push(self.parse_expr(0, false));
                        }
                        if !self.eat("]") {
                            self.errors += 1;
                            self.recover_in_group("]");
                        }
                        Expr { line, kind: ExprKind::Array(items) }
                    } else {
                        self.eat("]");
                        Expr { line, kind: ExprKind::Array(Vec::new()) }
                    }
                }
                "{" => {
                    let b = self.parse_block();
                    Expr { line, kind: ExprKind::Block(b) }
                }
                "-" | "!" | "*" => {
                    let op = t.text.clone();
                    self.bump();
                    let inner = self.parse_expr(25, no_struct);
                    Expr { line, kind: ExprKind::Unary(op, Box::new(inner)) }
                }
                "&" | "&&" => {
                    let double = t.text == "&&";
                    self.bump();
                    let op = if self.eat("mut") { "&mut" } else { "&" };
                    let inner = self.parse_expr(25, no_struct);
                    let e = Expr { line, kind: ExprKind::Unary(op.to_string(), Box::new(inner)) };
                    if double {
                        Expr { line, kind: ExprKind::Unary("&".to_string(), Box::new(e)) }
                    } else {
                        e
                    }
                }
                "|" | "||" => self.parse_closure(false),
                ".." | "..=" => {
                    let inclusive = t.text == "..=";
                    self.bump();
                    let rhs = if self.starts_expr(no_struct) {
                        Some(Box::new(self.parse_expr(6, no_struct)))
                    } else {
                        None
                    };
                    Expr { line, kind: ExprKind::Range(None, rhs, inclusive) }
                }
                "<" => {
                    // Qualified path: `<T as Trait>::name(…)`.
                    self.skip_qualified_angles();
                    let mut segs = vec!["<qualified>".to_string()];
                    while self.text() == "::" {
                        self.bump();
                        if self.text() == "<" {
                            self.skip_generic_args();
                            continue;
                        }
                        if self.peek().is_some_and(|t| t.kind == Kind::Ident) {
                            segs.push(self.bump().expect("ident peeked").text.clone()); // rim-lint: allow(no-unwrap-in-lib) — peeked Ident above
                        } else {
                            break;
                        }
                    }
                    Expr { line, kind: ExprKind::Path(segs) }
                }
                "#" => {
                    // Expression attribute: `#[cfg(…)] expr`.
                    self.bump();
                    if self.text() == "[" {
                        self.skip_group();
                    }
                    self.parse_expr(27, no_struct)
                }
                _ => {
                    let e = self.err_expr();
                    self.bump();
                    e
                }
            },
        }
    }

    fn parse_ident_prefix(&mut self, no_struct: bool) -> Expr {
        let t = self.peek().expect("caller checked ident"); // rim-lint: allow(no-unwrap-in-lib) — caller dispatched on Ident
        let line = t.line;
        match t.text.as_str() {
            "true" | "false" => {
                let b = t.text == "true";
                self.bump();
                Expr { line, kind: ExprKind::Bool(b) }
            }
            "if" => self.parse_if(),
            "while" => {
                self.bump();
                if self.eat("let") {
                    let (_, idents) = self.parse_pattern(&["="]);
                    self.eat("=");
                    let scrut = self.parse_expr(0, true);
                    let body = self.parse_block();
                    Expr { line, kind: ExprKind::WhileLet(idents, Box::new(scrut), body) }
                } else {
                    let cond = self.parse_expr(0, true);
                    let body = self.parse_block();
                    Expr { line, kind: ExprKind::While(Box::new(cond), body) }
                }
            }
            "loop" => {
                self.bump();
                let body = self.parse_block();
                Expr { line, kind: ExprKind::Loop(body) }
            }
            "for" => {
                self.bump();
                let (_, idents) = self.parse_pattern(&["in"]);
                self.eat("in");
                let iter = self.parse_expr(0, true);
                let body = self.parse_block();
                Expr { line, kind: ExprKind::For(idents, Box::new(iter), body) }
            }
            "match" => self.parse_match(),
            // An inline `const { … }` is a block like `unsafe { … }`;
            // `const` starts no other expression.
            "unsafe" | "const" => {
                self.bump();
                let b = self.parse_block();
                Expr { line, kind: ExprKind::Block(b) }
            }
            "return" => {
                self.bump();
                let inner = if self.starts_expr(no_struct) {
                    Some(Box::new(self.parse_expr(0, no_struct)))
                } else {
                    None
                };
                Expr { line, kind: ExprKind::Return(inner) }
            }
            "break" => {
                self.bump();
                if self.peek().is_some_and(|t| t.kind == Kind::Lifetime) {
                    self.bump();
                }
                let inner = if self.starts_expr(no_struct) && self.text() != "{" {
                    Some(Box::new(self.parse_expr(0, no_struct)))
                } else {
                    None
                };
                Expr { line, kind: ExprKind::Break(inner) }
            }
            "continue" => {
                self.bump();
                if self.peek().is_some_and(|t| t.kind == Kind::Lifetime) {
                    self.bump();
                }
                Expr { line, kind: ExprKind::Continue }
            }
            "move" => {
                self.bump();
                self.parse_closure(true)
            }
            _ => {
                // Path: segments separated by `::`, with turbofish.
                let mut segs = vec![self.bump().expect("ident peeked").text.clone()]; // rim-lint: allow(no-unwrap-in-lib) — peeked Ident above
                loop {
                    if self.text() == "::" {
                        match self.text_at(1) {
                            "<" => {
                                self.bump();
                                self.skip_generic_args();
                            }
                            _ if self.peek_at(1).is_some_and(|t| t.kind == Kind::Ident) => {
                                self.bump();
                                segs.push(self.bump().expect("ident peeked").text.clone()); // rim-lint: allow(no-unwrap-in-lib) — peeked Ident above
                            }
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                if self.text() == "!" && matches!(self.text_at(1), "(" | "[" | "{") {
                    return self.parse_macro_call(segs, line);
                }
                if self.text() == "{" && !no_struct {
                    return self.parse_struct_lit(segs, line);
                }
                Expr { line, kind: ExprKind::Path(segs) }
            }
        }
    }

    fn parse_if(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // if
        if self.eat("let") {
            let (_, idents) = self.parse_pattern(&["="]);
            self.eat("=");
            let scrut = self.parse_expr(0, true);
            let then = self.parse_block();
            let els = self.parse_else();
            return Expr { line, kind: ExprKind::IfLet(idents, Box::new(scrut), then, els) };
        }
        let cond = self.parse_expr(0, true);
        let then = self.parse_block();
        let els = self.parse_else();
        Expr { line, kind: ExprKind::If(Box::new(cond), then, els) }
    }

    fn parse_else(&mut self) -> Option<Box<Expr>> {
        if !self.eat("else") {
            return None;
        }
        if self.text() == "if" {
            Some(Box::new(self.parse_if()))
        } else {
            let line = self.line();
            let b = self.parse_block();
            Some(Box::new(Expr { line, kind: ExprKind::Block(b) }))
        }
    }

    fn parse_match(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // match
        let scrut = self.parse_expr(0, true);
        let mut arms = Vec::new();
        if !self.eat("{") {
            self.errors += 1;
            return Expr { line, kind: ExprKind::Match(Box::new(scrut), arms) };
        }
        while self.pos < self.code.len() && self.text() != "}" {
            let before = self.pos;
            let arm_line = self.line();
            // `|` alternations may lead the pattern.
            self.eat("|");
            let (_, pat_idents) = self.parse_pattern(&["=>", "if"]);
            let guard = if self.eat("if") { Some(self.parse_expr(0, true)) } else { None };
            if !self.eat("=>") {
                self.errors += 1;
                // Resync: skip to the next `,` or `}` at depth 0. The
                // stop token is not consumed, so force progress when
                // recovery stalled on an unbalanced close.
                self.recover_in_group(",");
                if self.pos == before && self.text() != "}" {
                    self.bump();
                }
                continue;
            }
            let body = self.parse_arm_body();
            self.eat(",");
            arms.push(Arm { line: arm_line, pat_idents, guard, body });
            if self.pos == before {
                self.bump();
                self.errors += 1;
            }
        }
        self.eat("}");
        Expr { line, kind: ExprKind::Match(Box::new(scrut), arms) }
    }

    /// A block-like arm body ends the arm at its closing brace: in
    /// `_ => {} [.., a] => …` the `[` starts the next arm's slice
    /// pattern, so the Pratt postfix loop must not turn it into an
    /// index of the block. Non-block bodies still parse as full
    /// expressions up to the separating comma.
    fn parse_arm_body(&mut self) -> Expr {
        let block_like = self.peek().is_some_and(|t| {
            (t.kind == Kind::Ident
                && matches!(t.text.as_str(), "if" | "match" | "loop" | "while" | "for"))
                || t.text == "{"
        });
        if block_like {
            self.parse_prefix(false)
        } else {
            self.parse_expr(0, false)
        }
    }

    fn parse_struct_lit(&mut self, path: Vec<String>, line: u32) -> Expr {
        self.bump(); // {
        let mut fields = Vec::new();
        let mut base = None;
        while self.pos < self.code.len() && self.text() != "}" {
            let before = self.pos;
            if self.eat("..") {
                if self.text() != "}" {
                    base = Some(Box::new(self.parse_expr(0, false)));
                }
                break;
            }
            let Some(name_tok) = self.peek() else { break };
            if name_tok.kind != Kind::Ident && name_tok.kind != Kind::Int {
                self.errors += 1;
                self.recover_in_group(",");
                // The stop token is not consumed: eat a `,` to move to
                // the next field, otherwise force progress.
                if self.pos == before && !self.eat(",") && self.text() != "}" {
                    self.bump();
                }
                continue;
            }
            let name = name_tok.text.clone();
            self.bump();
            let value = if self.eat(":") {
                self.parse_expr(0, false)
            } else {
                // Field shorthand: `Foo { x }`.
                Expr { line: self.line(), kind: ExprKind::Path(vec![name.clone()]) }
            };
            fields.push((name, value));
            self.eat(",");
            if self.pos == before {
                self.bump();
                self.errors += 1;
            }
        }
        if !self.eat("}") {
            self.errors += 1;
        }
        Expr { line, kind: ExprKind::StructLit(path, fields, base) }
    }

    /// Parses `name!(…)` / `name![…]` / `name!{…}` with best-effort
    /// argument parsing. `vec![x; n]` yields a single
    /// [`ExprKind::Repeat`] argument. If the contents fail to parse as
    /// comma/semicolon-separated expressions, the invocation is marked
    /// opaque and the raw code tokens are kept.
    fn parse_macro_call(&mut self, segs: Vec<String>, line: u32) -> Expr {
        let name = segs.last().cloned().unwrap_or_default();
        self.bump(); // !
        let open = self.text().to_string();
        let _close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => {
                self.errors += 1;
                return Expr { line, kind: ExprKind::Err };
            }
        };
        // Find the matching close up front so a failed parse can fall
        // back to the raw token range.
        let start = self.pos;
        self.skip_group();
        let end = self.pos; // one past the close
        let inner: Vec<&Token> = self.code[start + 1..end.saturating_sub(1).max(start + 1)].to_vec();
        let mut sub =
            Parser { code: &inner, pos: 0, depth: self.depth, errors: 0, opaque_macros: 0 };
        let mut args = Vec::new();
        let mut ok = true;
        while sub.pos < sub.code.len() {
            let before = sub.pos;
            let e = sub.parse_expr(0, false);
            if matches!(e.kind, ExprKind::Err) || sub.errors > 0 {
                ok = false;
                break;
            }
            if sub.eat(";") {
                // `vec![elem; count]` repeat form.
                let count = sub.parse_expr(0, false);
                if sub.errors > 0 {
                    ok = false;
                    break;
                }
                args.push(Expr {
                    line: e.line,
                    kind: ExprKind::Repeat(Box::new(e), Box::new(count)),
                });
                continue;
            }
            args.push(e);
            if sub.pos < sub.code.len() && !sub.eat(",") {
                ok = false;
                break;
            }
            if sub.pos == before {
                ok = false;
                break;
            }
        }
        self.opaque_macros += sub.opaque_macros;
        if ok {
            Expr { line, kind: ExprKind::MacroCall { name, args, opaque: false, raw: Vec::new() } }
        } else {
            self.opaque_macros += 1;
            let raw = inner.iter().map(|t| (t.text.clone(), t.line)).collect();
            Expr { line, kind: ExprKind::MacroCall { name, args: Vec::new(), opaque: true, raw } }
        }
    }

    fn parse_closure(&mut self, _is_move: bool) -> Expr {
        let line = self.line();
        let mut params = Vec::new();
        if self.eat("||") {
            // No parameters.
        } else if self.eat("|") {
            let mut depth = 0usize;
            let mut expect_name = true;
            while let Some(t) = self.peek() {
                match t.text.as_str() {
                    "|" if depth == 0 => {
                        self.bump();
                        break;
                    }
                    "(" | "[" | "<" => depth += 1,
                    "<<" => depth += 2,
                    ")" | "]" | ">" => depth = depth.saturating_sub(1),
                    ">>" => depth = depth.saturating_sub(2),
                    "," if depth == 0 => expect_name = true,
                    ":" if depth == 0 => expect_name = false,
                    "mut" | "ref" | "&" | "_" => {}
                    _ if t.kind == Kind::Ident && depth == 0 && expect_name => {
                        params.push(t.text.clone());
                        expect_name = false;
                    }
                    _ => {}
                }
                self.bump();
            }
        } else {
            self.errors += 1;
            return Expr { line, kind: ExprKind::Err };
        }
        if self.eat("->") {
            self.skip_type(&["{"]);
            let b = self.parse_block();
            let body = Expr { line, kind: ExprKind::Block(b) };
            return Expr { line, kind: ExprKind::Closure(params, Box::new(body)) };
        }
        let body = self.parse_expr(2, false);
        Expr { line, kind: ExprKind::Closure(params, Box::new(body)) }
    }

    /// Postfix `.`: method call, field access, or tuple index. The
    /// lexer glues `x.0.1` into `x . 0.1` (a Float token), so a Float
    /// after `.` splits into two tuple-index accesses.
    fn parse_dot(&mut self, recv: Expr) -> Expr {
        self.bump(); // .
        let Some(t) = self.peek() else {
            self.errors += 1;
            return recv;
        };
        let line = recv.line;
        match t.kind {
            Kind::Int => {
                let name = t.text.clone();
                self.bump();
                Expr { line, kind: ExprKind::Field(Box::new(recv), name) }
            }
            Kind::Float => {
                // `x.0.1`: Float "0.1" — two tuple-field hops.
                let parts = t.text.clone();
                self.bump();
                let mut e = recv;
                for part in parts.split('.') {
                    e = Expr { line, kind: ExprKind::Field(Box::new(e), part.to_string()) };
                }
                e
            }
            Kind::Ident => {
                let name = t.text.clone();
                self.bump();
                if self.text() == "::" && self.text_at(1) == "<" {
                    self.bump();
                    self.skip_generic_args();
                }
                if self.text() == "(" {
                    let args = self.parse_args("(", ")");
                    Expr { line, kind: ExprKind::MethodCall(Box::new(recv), name, args) }
                } else {
                    Expr { line, kind: ExprKind::Field(Box::new(recv), name) }
                }
            }
            _ => {
                self.errors += 1;
                self.bump();
                recv
            }
        }
    }

    /// Parses a delimited, comma-separated argument list (consumes
    /// both delimiters).
    fn parse_args(&mut self, open: &str, close: &str) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat(open) {
            self.errors += 1;
            return args;
        }
        while self.pos < self.code.len() && self.text() != close {
            let before = self.pos;
            args.push(self.parse_expr(0, false));
            self.eat(",");
            if self.pos == before {
                self.bump();
                self.errors += 1;
            }
        }
        if !self.eat(close) {
            self.errors += 1;
        }
        args
    }

    /// After an error inside a delimited context: skip to `stop`, a
    /// closing delimiter, or `;` at depth 0 — without consuming it.
    fn recover_in_group(&mut self, stop: &str) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                s if depth == 0 && (s == stop || s == ";") => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Consumes a `<…>` group starting at the current `<`, with
    /// `<<`/`>>` counting double — used for turbofish and qualified
    /// paths.
    fn skip_generic_args(&mut self) {
        let mut angle = 0isize;
        let mut guard = 0usize;
        while let Some(t) = self.peek() {
            guard += 1;
            if guard > self.code.len() + 1 {
                return;
            }
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "(" | "[" => {
                    self.skip_group();
                    continue;
                }
                ";" | "{" | "}" => return,
                _ => {}
            }
            self.bump();
            if angle <= 0 {
                return;
            }
        }
    }

    fn skip_qualified_angles(&mut self) {
        self.skip_generic_args();
    }
}

/// Does this expression form carry its own block (and therefore
/// terminate a statement without `;`)?
fn is_block_like(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::If(..)
            | ExprKind::IfLet(..)
            | ExprKind::While(..)
            | ExprKind::WhileLet(..)
            | ExprKind::Loop(..)
            | ExprKind::For(..)
            | ExprKind::Match(..)
            | ExprKind::Block(..)
    ) || matches!(&e.kind, ExprKind::MacroCall { .. })
}

/// Compound and plain assignment operators: right-associative, lowest
/// precedence.
fn assign_bp(op: &str) -> Option<(u8, u8)> {
    matches!(op, "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=")
        .then_some((2, 1))
}

/// Binary operator binding powers (left-assoc pairs), matching the
/// Rust reference precedence table.
fn infix_bp(op: &str) -> Option<(u8, u8)> {
    Some(match op {
        "||" => (7, 8),
        "&&" => (9, 10),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => (11, 12),
        "|" => (13, 14),
        "^" => (15, 16),
        "&" => (17, 18),
        "<<" | ">>" => (19, 20),
        "+" | "-" => (21, 22),
        "*" | "/" | "%" => (23, 24),
        _ => return None,
    })
}

impl Expr {
    /// Canonical fully-parenthesised form, line numbers excluded —
    /// the equality domain for the round-trip property test.
    pub fn sexpr(&self) -> String {
        match &self.kind {
            ExprKind::Int(s) => format!("i:{s}"),
            ExprKind::Float(s) => format!("f:{s}"),
            ExprKind::Lit => "lit".to_string(),
            ExprKind::Bool(b) => format!("b:{b}"),
            ExprKind::Path(segs) => format!("p:{}", segs.join("::")),
            ExprKind::Unary(op, e) => format!("({op} {})", e.sexpr()),
            ExprKind::Binary(op, l, r) => format!("({op} {} {})", l.sexpr(), r.sexpr()),
            ExprKind::Assign(op, l, r) => format!("({op} {} {})", l.sexpr(), r.sexpr()),
            ExprKind::Call(f, args) => {
                format!("(call {} [{}])", f.sexpr(), sexpr_list(args))
            }
            ExprKind::MethodCall(r, name, args) => {
                format!("(. {} {name} [{}])", r.sexpr(), sexpr_list(args))
            }
            ExprKind::Field(r, name) => format!("(field {} {name})", r.sexpr()),
            ExprKind::Index(b, i) => format!("(index {} {})", b.sexpr(), i.sexpr()),
            ExprKind::Cast(e) => format!("(as {})", e.sexpr()),
            ExprKind::Range(l, r, incl) => format!(
                "(range{} {} {})",
                if *incl { "=" } else { "" },
                l.as_ref().map(|e| e.sexpr()).unwrap_or_default(),
                r.as_ref().map(|e| e.sexpr()).unwrap_or_default()
            ),
            ExprKind::Try(e) => format!("(? {})", e.sexpr()),
            ExprKind::Closure(params, body) => {
                format!("(closure [{}] {})", params.join(","), body.sexpr())
            }
            ExprKind::Tuple(items) => format!("(tuple [{}])", sexpr_list(items)),
            ExprKind::Array(items) => format!("(array [{}])", sexpr_list(items)),
            ExprKind::Repeat(e, n) => format!("(repeat {} {})", e.sexpr(), n.sexpr()),
            ExprKind::MacroCall { name, args, opaque, .. } => {
                format!("(macro {name}{} [{}])", if *opaque { "?" } else { "" }, sexpr_list(args))
            }
            ExprKind::Return(e) => {
                format!("(return {})", e.as_ref().map(|e| e.sexpr()).unwrap_or_default())
            }
            ExprKind::Break(e) => {
                format!("(break {})", e.as_ref().map(|e| e.sexpr()).unwrap_or_default())
            }
            ExprKind::Continue => "(continue)".to_string(),
            ExprKind::Err => "(err)".to_string(),
            ExprKind::If(..)
            | ExprKind::IfLet(..)
            | ExprKind::While(..)
            | ExprKind::WhileLet(..)
            | ExprKind::Loop(..)
            | ExprKind::For(..)
            | ExprKind::Match(..)
            | ExprKind::Block(..)
            | ExprKind::StructLit(..) => format!("(opaque:{:?})", std::mem::discriminant(&self.kind)),
        }
    }

    /// Pretty-prints with minimal parentheses; `parse(pretty(e))` has
    /// the same [`Expr::sexpr`] as `e` for the operator/atom subset the
    /// round-trip test generates.
    pub fn pretty(&self) -> String {
        self.pretty_bp(0)
    }

    /// Precedence of this node when it appears as a subexpression
    /// (atoms bind tightest).
    fn prec(&self) -> u8 {
        match &self.kind {
            ExprKind::Assign(..) => 2,
            ExprKind::Range(..) => 5,
            ExprKind::Binary(op, ..) => infix_bp(op).map(|(l, _)| l).unwrap_or(99),
            ExprKind::Cast(..) => 25,
            ExprKind::Unary(..) => 25,
            ExprKind::Call(..)
            | ExprKind::MethodCall(..)
            | ExprKind::Field(..)
            | ExprKind::Index(..)
            | ExprKind::Try(..) => 27,
            ExprKind::Closure(..) => 2,
            _ => 99,
        }
    }

    fn pretty_bp(&self, min_bp: u8) -> String {
        let body = match &self.kind {
            ExprKind::Int(s) | ExprKind::Float(s) => s.clone(),
            ExprKind::Lit => "\"s\"".to_string(),
            ExprKind::Bool(b) => b.to_string(),
            ExprKind::Path(segs) => segs.join(" :: "),
            ExprKind::Unary(op, e) => format!("{op} {}", e.pretty_bp(25)),
            ExprKind::Binary(op, l, r) => {
                let (lbp, rbp) = infix_bp(op).unwrap_or((11, 12));
                format!("{} {op} {}", l.pretty_bp(lbp), r.pretty_bp(rbp))
            }
            ExprKind::Assign(op, l, r) => {
                format!("{} {op} {}", l.pretty_bp(3), r.pretty_bp(1))
            }
            ExprKind::Call(f, args) => format!("{} ({})", f.pretty_bp(27), pretty_list(args)),
            ExprKind::MethodCall(r, name, args) => {
                format!("{} . {name} ({})", r.pretty_bp(27), pretty_list(args))
            }
            ExprKind::Field(r, name) => format!("{} . {name}", r.pretty_bp(27)),
            ExprKind::Index(b, i) => format!("{} [ {} ]", b.pretty_bp(27), i.pretty_bp(0)),
            ExprKind::Try(e) => format!("{} ?", e.pretty_bp(27)),
            ExprKind::Range(l, r, incl) => format!(
                "{} {} {}",
                l.as_ref().map(|e| e.pretty_bp(6)).unwrap_or_default(),
                if *incl { "..=" } else { ".." },
                r.as_ref().map(|e| e.pretty_bp(6)).unwrap_or_default()
            ),
            ExprKind::Tuple(items) => {
                if items.len() == 1 {
                    format!("( {} , )", items[0].pretty_bp(0))
                } else {
                    format!("( {} )", pretty_list(items))
                }
            }
            ExprKind::Array(items) => format!("[ {} ]", pretty_list(items)),
            ExprKind::Repeat(e, n) => format!("[ {} ; {} ]", e.pretty_bp(0), n.pretty_bp(0)),
            ExprKind::Closure(params, body) => {
                format!("| {} | {}", params.join(" , "), body.pretty_bp(2))
            }
            other => format!("/*unprintable {:?}*/ 0", std::mem::discriminant(other)),
        };
        if self.prec() < min_bp {
            format!("( {body} )")
        } else {
            body
        }
    }
}

fn sexpr_list(items: &[Expr]) -> String {
    items.iter().map(Expr::sexpr).collect::<Vec<_>>().join(", ")
}

fn pretty_list(items: &[Expr]) -> String {
    items.iter().map(|e| e.pretty_bp(0)).collect::<Vec<_>>().join(" , ")
}

/// Walks every expression in a block, depth-first, calling `f` on each
/// — including loop/branch bodies, closure bodies, match guards/arms,
/// struct-literal fields, macro arguments, and nested `fn` bodies.
pub fn walk_block(block: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = els {
                    walk_block(b, f);
                }
            }
            Stmt::Expr(e, _) => walk_expr(e, f),
            Stmt::Item(Some(b)) => walk_block(b, f),
            Stmt::Item(None) => {}
        }
    }
    if let Some(tail) = &block.tail {
        walk_expr(tail, f);
    }
}

/// Depth-first expression walk (see [`walk_block`]).
pub fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Unary(_, a) | ExprKind::Cast(a) | ExprKind::Try(a) => walk_expr(a, f),
        ExprKind::Binary(_, a, b) | ExprKind::Assign(_, a, b) | ExprKind::Index(a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        ExprKind::Repeat(a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        ExprKind::Call(callee, args) => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall(recv, _, args) => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Field(a, _) => walk_expr(a, f),
        ExprKind::Range(a, b, _) => {
            if let Some(a) = a {
                walk_expr(a, f);
            }
            if let Some(b) = b {
                walk_expr(b, f);
            }
        }
        ExprKind::Closure(_, body) => walk_expr(body, f),
        ExprKind::If(cond, then, els) => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::IfLet(_, scrut, then, els) => {
            walk_expr(scrut, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::While(cond, body) => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        ExprKind::WhileLet(_, scrut, body) => {
            walk_expr(scrut, f);
            walk_block(body, f);
        }
        ExprKind::Loop(body) => walk_block(body, f),
        ExprKind::For(_, iter, body) => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        ExprKind::Match(scrut, arms) => {
            walk_expr(scrut, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        ExprKind::Block(b) => walk_block(b, f),
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for e in items {
                walk_expr(e, f);
            }
        }
        ExprKind::StructLit(_, fields, base) => {
            for (_, e) in fields {
                walk_expr(e, f);
            }
            if let Some(b) = base {
                walk_expr(b, f);
            }
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Return(a) | ExprKind::Break(a) => {
            if let Some(a) = a {
                walk_expr(a, f);
            }
        }
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Lit
        | ExprKind::Bool(_)
        | ExprKind::Path(_)
        | ExprKind::Continue
        | ExprKind::Err => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> Expr {
        let body = parse_source_body(src);
        assert_eq!(body.errors, 0, "parse errors in {src:?}: {body:#?}");
        match body.block.tail {
            Some(e) => *e,
            None => match body.block.stmts.into_iter().next() {
                Some(Stmt::Expr(e, _)) => e,
                other => panic!("no expression statement in {src:?}: {other:?}"),
            },
        }
    }

    #[test]
    fn block_bodied_arm_followed_by_slice_pattern_arm() {
        // `} [` between arms is the next arm's slice pattern, not an
        // index into the block body of the previous arm.
        for src in [
            "match s { _ => {} [.., b] => { f(2); } }",
            "match s { [.., a] if a == 1 => { f(1); } [.., b] => { f(2); } _ => {} }",
            "match s { A(x) => if x { g(); } [.., b] => { f(2); } _ => {} }",
            "match s { _ => match t { _ => {} } [.., b] => { f(2); } }",
        ] {
            let body = parse_source_body(src);
            assert_eq!(body.errors, 0, "parse errors in {src:?}: {body:#?}");
            let ExprKind::Match(_, arms) = expr(src).kind else {
                panic!("not a match: {src:?}")
            };
            assert!(
                arms.iter().any(|a| a.pat_idents.contains(&"b".to_string())),
                "slice-pattern arm lost in {src:?}"
            );
        }
        // Non-block arm bodies still take postfix operators.
        let ExprKind::Match(_, arms) = expr("match s { _ => v[i], }").kind else {
            panic!("not a match")
        };
        assert_eq!(arms.len(), 1);
        assert_eq!(arms[0].body.sexpr(), "(index p:v p:i)");
    }

    #[test]
    fn precedence_shapes() {
        assert_eq!(expr("a + b * c").sexpr(), "(+ p:a (* p:b p:c))");
        assert_eq!(expr("(a + b) * c").sexpr(), "(* (+ p:a p:b) p:c)");
        assert_eq!(expr("a < b && c >= d").sexpr(), "(&& (< p:a p:b) (>= p:c p:d))");
        assert_eq!(expr("- a . dist ( b )").sexpr(), "(- (. p:a dist [p:b]))");
        assert_eq!(expr("a = b = c").sexpr(), "(= p:a (= p:b p:c))");
        assert_eq!(expr("a - b - c").sexpr(), "(- (- p:a p:b) p:c)");
    }

    #[test]
    fn postfix_chains_and_indexing() {
        assert_eq!(expr("v[i].x").sexpr(), "(field (index p:v p:i) x)");
        assert_eq!(
            expr("p.dist_sq(q).sqrt()").sexpr(),
            "(. (. p:p dist_sq [p:q]) sqrt [])"
        );
        assert_eq!(expr("t.0.1").sexpr(), "(field (field p:t 0) 1)");
        assert_eq!(expr("f()?").sexpr(), "(? (call p:f []))");
        assert_eq!(expr("x.parse::<f64>()").sexpr(), "(. p:x parse [])");
    }

    #[test]
    fn ranges_casts_and_refs() {
        assert_eq!(expr("0..n").sexpr(), "(range i:0 p:n)");
        assert_eq!(expr("0..=n - 1").sexpr(), "(range= i:0 (- p:n i:1))");
        assert_eq!(expr("&v[..]").sexpr(), "(& (index p:v (range  )))");
        assert_eq!(expr("n as f64 + 1.0").sexpr(), "(+ (as p:n) f:1.0)");
        assert_eq!(expr("&&x").sexpr(), "(& (& p:x))");
        assert_eq!(expr("&mut buf").sexpr(), "(&mut p:buf)");
    }

    #[test]
    fn macros_and_repeat() {
        assert_eq!(expr("vec![0.0; n]").sexpr(), "(macro vec [(repeat f:0.0 p:n)])");
        assert_eq!(
            expr("assert!(i < v.len(), \"oob\")").sexpr(),
            "(macro assert [(< p:i (. p:v len [])), lit])"
        );
        // Pattern-only macro args that cannot be read as an expression
        // list degrade to opaque, never to a parse error.
        let body = parse_source_body("matches!(x, Some(v) if v > 0)");
        assert_eq!(body.errors, 0);
        assert_eq!(body.opaque_macros, 1);
        // …while expression-shaped args parse structurally.
        let body = parse_source_body("matches!(x, Foo { .. })");
        assert_eq!(body.errors, 0);
        assert_eq!(body.opaque_macros, 0);
    }

    #[test]
    fn control_flow_statements() {
        let body = parse_source_body(
            "let mut acc = 0.0;\n\
             for (i, p) in pts.iter().enumerate() {\n\
                 if dist(p, q) <= r { acc += w[i]; } else { acc -= 1.0; }\n\
             }\n\
             match acc { x if x > 0.0 => x, _ => 0.0 }",
        );
        assert_eq!(body.errors, 0, "{body:#?}");
        assert_eq!(body.block.stmts.len(), 2);
        assert!(body.block.tail.is_some());
        let Stmt::Let { name, .. } = &body.block.stmts[0] else { panic!() };
        assert_eq!(name.as_deref(), Some("acc"));
        let Stmt::Expr(for_expr, _) = &body.block.stmts[1] else { panic!() };
        let ExprKind::For(pat, _, _) = &for_expr.kind else { panic!("{for_expr:?}") };
        assert_eq!(pat, &["i", "p"]);
    }

    #[test]
    fn let_else_and_while_let() {
        let body = parse_source_body(
            "let Some(d) = maybe else { return None; };\n\
             while let Some(x) = stack.pop() { total += x; }",
        );
        assert_eq!(body.errors, 0, "{body:#?}");
        let Stmt::Let { pat_idents, els, .. } = &body.block.stmts[0] else { panic!() };
        assert_eq!(pat_idents, &["d"]);
        assert!(els.is_some());
    }

    #[test]
    fn struct_literals_and_condition_restriction() {
        let e = expr("Point { x: 1.0, y }");
        let ExprKind::StructLit(path, fields, _) = &e.kind else { panic!("{e:?}") };
        assert_eq!(path, &["Point"]);
        assert_eq!(fields.len(), 2);
        // `if x { … }` must parse `x` as a path and `{ … }` as the
        // then-block, not as a struct literal.
        let body = parse_source_body("if x { y() } z");
        assert_eq!(body.errors, 0, "{body:#?}");
        assert_eq!(body.block.stmts.len(), 1);
    }

    #[test]
    fn closures_and_labels() {
        let e = expr("pts.iter().map(|p| p.dist(q)).sum::<f64>()");
        assert!(e.sexpr().contains("(closure [p]"), "{}", e.sexpr());
        let body = parse_source_body("'scan: while i < n { if stop { break 'scan; } i += 1; }");
        assert_eq!(body.errors, 0, "{body:#?}");
    }

    #[test]
    fn nested_items_are_parsed_recursively() {
        let body = parse_source_body(
            "fn helper(v: &[f64]) -> f64 { v[0] }\n\
             const K: usize = 4;\n\
             helper(&xs)",
        );
        assert_eq!(body.errors, 0, "{body:#?}");
        let Stmt::Item(Some(inner)) = &body.block.stmts[0] else { panic!("{body:#?}") };
        assert!(inner.tail.is_some(), "nested fn body must be parsed");
        let Stmt::Item(None) = &body.block.stmts[1] else { panic!("{body:#?}") };
    }

    #[test]
    fn error_recovery_counts_and_terminates() {
        let body = parse_source_body("let x = ; ; @ @ @ let y = 1;");
        assert!(body.errors > 0);
        // The well-formed tail statement still parses.
        assert!(body
            .block
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::Let { name: Some(n), .. } if n == "y")));
    }

    #[test]
    fn walk_visits_nested_expressions() {
        let body = parse_source_body("if a { f(b[i]) } else { g(c) }");
        let mut paths = Vec::new();
        walk_block(&body.block, &mut |e| {
            if let ExprKind::Path(p) = &e.kind {
                paths.push(p.join("::"));
            }
        });
        for want in ["a", "f", "b", "i", "g", "c"] {
            assert!(paths.iter().any(|p| p == want), "missing {want} in {paths:?}");
        }
    }

    #[test]
    fn pretty_round_trips_handwritten_cases() {
        for src in [
            "a + b * c",
            "(a + b) * c",
            "a * (b + c) * d",
            "- (a + b)",
            "a . m (b , c) [i] . f",
            "a < b && ! c",
            "x = y + 1",
            "a .. b + 1",
        ] {
            let e = expr(src);
            let printed = e.pretty();
            let reparsed = expr(&printed);
            assert_eq!(e.sexpr(), reparsed.sexpr(), "round-trip of {src:?} via {printed:?}");
        }
    }
}
