//! A brace-matched item-tree parser over the lexed token stream.
//!
//! This is not a full Rust parser: it recovers exactly the structure the
//! syntax-aware lints need — the nesting of modules, impl blocks, and
//! traits; function items with their attributes, visibility, and bodies
//! as opaque token ranges; and the remaining item kinds as named spans.
//! Everything inside a function body stays a flat token slice: the call
//! graph ([`crate::model`]) and the panic-freedom scan read bodies
//! token-by-token, so no expression tree is required.
//!
//! Robustness contract, enforced by a workspace-wide self-test: parsing
//! any `.rs` file of this repository must (a) never panic, (b) consume
//! every token (`skipped == 0`), and (c) leave every brace matched. On
//! malformed input (the fuzz tests feed adversarial nesting) the parser
//! degrades by skipping tokens — counted in [`ItemTree::skipped`] —
//! rather than failing.

use crate::lexer::{Kind, Token};

/// Classification of one parsed item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`
    Mod,
    /// `fn name(…) { … }` (or a bodiless trait-method declaration).
    Fn,
    /// `struct` / `union`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait name { … }` — children hold its method items.
    Trait,
    /// `impl Type { … }` / `impl Trait for Type { … }`.
    Impl,
    /// `const NAME: T = …;` (not `const fn`, which parses as [`ItemKind::Fn`]).
    Const,
    /// `static NAME: T = …;`
    Static,
    /// `type Name = …;`
    TypeAlias,
    /// `use path::…;` or `extern crate name;`
    Use,
    /// `macro_rules! name { … }`
    MacroDef,
    /// An item-position macro invocation (`thread_local! { … }`).
    MacroCall,
}

/// One parsed item. `span` covers the whole item including attributes;
/// `body` is the token range strictly inside its braces (empty for `;`
/// items). Both are index ranges into the *original* token vector, so
/// comment tokens inside bodies remain visible to pragma handling.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// Item name (`""` for impl blocks).
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// `pub` without a restriction — the cross-crate API surface.
    /// `pub(crate)`/`pub(super)` parse as not-pub.
    pub is_pub: bool,
    /// Attribute texts with whitespace-free token join: `test`,
    /// `cfg(test)`, `derive(Debug,Clone)`, `inline`.
    pub attrs: Vec<String>,
    /// `[start, end)` token range of the whole item.
    pub span: (usize, usize),
    /// `[start, end)` token range inside the body braces.
    pub body: (usize, usize),
    /// For [`ItemKind::Impl`]: the Self-type name (`SoaGrid` for
    /// `impl rim_geom::SoaGrid`, `Engine` for `impl FromStr for Engine`).
    pub impl_of: Option<String>,
    /// For [`ItemKind::Impl`]: whether this is a trait impl
    /// (`impl Trait for Type`), whose methods are called through the
    /// trait rather than by name.
    pub impl_trait: bool,
    /// Nested items of a `mod`, `trait`, or `impl` body.
    pub children: Vec<Item>,
}

impl Item {
    /// Does any attribute mark this item as test-only (`#[test]` or a
    /// `cfg(…)` mentioning `test`)?
    pub fn is_test_marked(&self) -> bool {
        self.attrs.iter().any(|a| {
            a == "test"
                || a.ends_with("::test")
                || (a.starts_with("cfg(") && a.contains("test"))
        })
    }
}

/// Result of parsing one file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Tokens dropped by error recovery; 0 on every workspace file.
    pub skipped: usize,
}

impl ItemTree {
    /// Depth-first visit of every item in the tree.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Item, &[&'a Item])) {
        fn rec<'a>(
            items: &'a [Item],
            stack: &mut Vec<&'a Item>,
            f: &mut impl FnMut(&'a Item, &[&'a Item]),
        ) {
            for it in items {
                f(it, stack);
                stack.push(it);
                rec(&it.children, stack, f);
                stack.pop();
            }
        }
        rec(&self.items, &mut Vec::new(), f);
    }
}

/// Item-introducing keywords the dispatcher understands.
const QUALIFIERS: &[&str] = &["default", "const", "unsafe", "async", "extern"];

struct Parser<'a> {
    toks: &'a [Token],
    /// Indices of non-comment tokens (the parse stream).
    code: Vec<usize>,
    /// Cursor into `code`.
    pos: usize,
    skipped: usize,
}

/// Parses a lexed file into its item tree. Never panics; malformed
/// regions are skipped and counted.
pub fn parse_items(tokens: &[Token]) -> ItemTree {
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .map(|(i, _)| i)
        .collect();
    let mut p = Parser { toks: tokens, code, pos: 0, skipped: 0 };
    let items = p.parse_block(p.code.len());
    ItemTree { items, skipped: p.skipped }
}

impl<'a> Parser<'a> {
    /// The token at code position `pos + off`, if any.
    fn peek(&self, off: usize) -> Option<&'a Token> {
        self.code.get(self.pos + off).map(|&i| &self.toks[i])
    }

    fn peek_text(&self, off: usize) -> &str {
        self.peek(off).map_or("", |t| t.text.as_str())
    }

    /// Original-token index of code position `pos + off` (or one past
    /// the last token).
    fn orig(&self, off: usize) -> usize {
        self.code
            .get(self.pos + off)
            .copied()
            .unwrap_or(self.toks.len())
    }

    /// Parses items until code position `end` (exclusive) or a stray
    /// closing brace, which the caller owns.
    fn parse_block(&mut self, end: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < end {
            // A `}` belongs to the enclosing block (nested calls pass
            // `end < code.len()`); at top level it is stray input and
            // recovery consumes it.
            if self.peek_text(0) == "}" && end < self.code.len() {
                break;
            }
            match self.parse_item(end) {
                Some(item) => items.push(item),
                None => {
                    // Recovery: drop one token and continue.
                    self.pos += 1;
                    self.skipped += 1;
                }
            }
        }
        items
    }

    /// Attempts to parse one item starting at the cursor. Returns
    /// `None` without consuming anything the dispatcher recognizes.
    fn parse_item(&mut self, end: usize) -> Option<Item> {
        let span_start = self.orig(0);
        let mut attrs = Vec::new();

        // Leading attributes: `#[…]` (outer) and `#![…]` (inner —
        // consumed so file-level `#![forbid(unsafe_code)]` does not trip
        // recovery, but not attached as an outer attribute).
        loop {
            if self.peek_text(0) != "#" {
                break;
            }
            let inner = self.peek_text(1) == "!";
            let bracket = if inner { 2 } else { 1 };
            if self.peek_text(bracket) != "[" {
                return None; // a stray `#`: not an attribute
            }
            // Find the matching `]`.
            let mut depth = 0i64;
            let mut j = self.pos + bracket;
            let mut text = String::new();
            while j < self.code.len() {
                let t = &self.toks[self.code[j]];
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if depth >= 1 && !(depth == 1 && t.text == "[") {
                    text.push_str(&t.text);
                }
                j += 1;
            }
            if j >= self.code.len() {
                return None; // unterminated attribute
            }
            if !inner {
                attrs.push(text);
            }
            self.pos = j + 1;
            if self.pos >= end {
                // Attribute-only tail (inner attrs at EOF).
                return Some(Item {
                    kind: ItemKind::Use,
                    name: String::new(),
                    line: self.toks.get(span_start).map_or(1, |t| t.line),
                    is_pub: false,
                    attrs,
                    span: (span_start, self.orig(0)),
                    body: (0, 0),
                    impl_of: None,
                    impl_trait: false,
                    children: Vec::new(),
                });
            }
        }

        // Visibility.
        let mut is_pub = false;
        if self.peek_text(0) == "pub" {
            if self.peek_text(1) == "(" {
                // pub(crate) / pub(super) / pub(in path): restricted.
                let close = self.find_matching(self.pos + 1, "(", ")")?;
                self.pos = close + 1;
            } else {
                is_pub = true;
                self.pos += 1;
            }
        }

        // Qualifiers (`const fn`, `unsafe trait`, `extern "C" fn`, …).
        // `const`/`extern` are also item keywords, so only consume them
        // as qualifiers when an item keyword follows.
        loop {
            let t = self.peek_text(0).to_string();
            if !QUALIFIERS.contains(&t.as_str()) {
                break;
            }
            let next = if t == "extern" && self.peek(1).is_some_and(|n| n.kind == Kind::Str) {
                self.peek_text(2).to_string()
            } else {
                self.peek_text(1).to_string()
            };
            let item_follows = matches!(
                next.as_str(),
                "fn" | "trait" | "impl" | "unsafe" | "async" | "extern" | "const"
            );
            if (t == "const" || t == "static" || t == "extern") && !item_follows {
                break; // `const X: …`, `extern crate`, `extern { … }`
            }
            self.pos += 1;
            if t == "extern" && self.peek(0).is_some_and(|n| n.kind == Kind::Str) {
                self.pos += 1; // the ABI string
            }
        }

        let kw = self.peek(0)?;
        let line = kw.line;
        let kind_word = kw.text.clone();
        let finish = |p: &Parser<'a>,
                      kind: ItemKind,
                      name: String,
                      body: (usize, usize),
                      impl_of: Option<String>,
                      impl_trait: bool,
                      children: Vec<Item>| {
            Some(Item {
                kind,
                name,
                line,
                is_pub,
                attrs,
                span: (span_start, p.orig(0)),
                body,
                impl_of,
                impl_trait,
                children,
            })
        };

        match kind_word.as_str() {
            "fn" => {
                let name = self.ident_at(1)?;
                self.pos += 2;
                let body = self.scan_to_body()?;
                finish(self, ItemKind::Fn, name, body, None, false, Vec::new())
            }
            "mod" => {
                let name = self.ident_at(1)?;
                self.pos += 2;
                match self.peek_text(0) {
                    ";" => {
                        self.pos += 1;
                        finish(self, ItemKind::Mod, name, (0, 0), None, false, Vec::new())
                    }
                    "{" => {
                        let open = self.pos;
                        let close = self.find_matching(open, "{", "}")?;
                        self.pos = open + 1;
                        let children = self.parse_block(close);
                        let body = (self.code[open] + 1, self.code[close]);
                        self.pos = close + 1;
                        finish(self, ItemKind::Mod, name, body, None, false, children)
                    }
                    _ => None,
                }
            }
            "struct" | "union" | "enum" | "trait" => {
                let name = self.ident_at(1)?;
                self.pos += 2;
                // Scan past generics/bounds/where-clause to `{`, `;`, or
                // (tuple struct) `(…);`.
                let kind = match kind_word.as_str() {
                    "enum" => ItemKind::Enum,
                    "trait" => ItemKind::Trait,
                    _ => ItemKind::Struct,
                };
                loop {
                    match self.peek_text(0) {
                        "" => return None,
                        ";" => {
                            self.pos += 1;
                            return finish(self, kind, name, (0, 0), None, false, Vec::new());
                        }
                        "(" => {
                            let close = self.find_matching(self.pos, "(", ")")?;
                            self.pos = close + 1;
                        }
                        "{" => {
                            let open = self.pos;
                            let close = self.find_matching(open, "{", "}")?;
                            let body = (self.code[open] + 1, self.code[close]);
                            let children = if kind == ItemKind::Trait {
                                self.pos = open + 1;
                                let c = self.parse_block(close);
                                self.pos = close + 1;
                                c
                            } else {
                                self.pos = close + 1;
                                Vec::new()
                            };
                            return finish(self, kind, name, body, None, false, children);
                        }
                        _ => self.pos += 1,
                    }
                }
            }
            "impl" => {
                self.pos += 1;
                // Header: everything to the opening `{` (tracking
                // paren/bracket groups so `impl Fn(usize)` bounds and
                // array types survive).
                let header_start = self.pos;
                loop {
                    match self.peek_text(0) {
                        "" => return None,
                        "(" => {
                            let close = self.find_matching(self.pos, "(", ")")?;
                            self.pos = close + 1;
                        }
                        "[" => {
                            let close = self.find_matching(self.pos, "[", "]")?;
                            self.pos = close + 1;
                        }
                        "{" => break,
                        _ => self.pos += 1,
                    }
                }
                let header: Vec<&Token> = (header_start..self.pos)
                    .map(|c| &self.toks[self.code[c]])
                    .collect();
                let (impl_of, impl_trait) = impl_target(&header);
                let open = self.pos;
                let close = self.find_matching(open, "{", "}")?;
                self.pos = open + 1;
                let children = self.parse_block(close);
                let body = (self.code[open] + 1, self.code[close]);
                self.pos = close + 1;
                finish(self, ItemKind::Impl, String::new(), body, impl_of, impl_trait, children)
            }
            "const" | "static" => {
                // Plain value items (`const fn` was consumed as a
                // qualifier above and never reaches here).
                let kind = if kind_word == "const" { ItemKind::Const } else { ItemKind::Static };
                // `static mut NAME` / `const _: T`.
                let mut off = 1;
                if self.peek_text(off) == "mut" {
                    off += 1;
                }
                let name = match self.peek(off) {
                    Some(t) if t.kind == Kind::Ident => t.text.clone(),
                    Some(t) if t.text == "_" => "_".to_string(),
                    _ => return None,
                };
                self.pos += off + 1;
                self.skip_to_semicolon()?;
                finish(self, kind, name, (0, 0), None, false, Vec::new())
            }
            "type" => {
                let name = self.ident_at(1)?;
                self.pos += 2;
                self.skip_to_semicolon()?;
                finish(self, ItemKind::TypeAlias, name, (0, 0), None, false, Vec::new())
            }
            "use" | "extern" => {
                self.pos += 1;
                self.skip_to_semicolon()?;
                finish(self, ItemKind::Use, String::new(), (0, 0), None, false, Vec::new())
            }
            "macro_rules" => {
                // macro_rules ! name { … }
                if self.peek_text(1) != "!" {
                    return None;
                }
                let name = self.ident_at(2)?;
                self.pos += 3;
                let body = self.consume_macro_group()?;
                finish(self, ItemKind::MacroDef, name, body, None, false, Vec::new())
            }
            _ => {
                // Item-position macro invocation: `name ! ( … );` /
                // `name ! { … }` / `path :: name ! { … }`.
                if kw.kind == Kind::Ident && self.looks_like_macro_call() {
                    let mut name = kw.text.clone();
                    while self.peek_text(1) == "::" {
                        self.pos += 2;
                        name = self.peek_text(0).to_string();
                    }
                    if self.peek_text(1) != "!" {
                        return None;
                    }
                    self.pos += 2;
                    let body = self.consume_macro_group()?;
                    if self.peek_text(0) == ";" {
                        self.pos += 1;
                    }
                    return finish(self, ItemKind::MacroCall, name, body, None, false, Vec::new());
                }
                None
            }
        }
    }

    /// Is the cursor at `ident (:: ident)* !` — a macro invocation?
    fn looks_like_macro_call(&self) -> bool {
        let mut off = 0;
        loop {
            match self.peek(off) {
                Some(t) if t.kind == Kind::Ident => {}
                _ => return false,
            }
            match self.peek_text(off + 1) {
                "!" => return true,
                "::" => off += 2,
                _ => return false,
            }
        }
    }

    /// The identifier at code offset `off`, if present.
    fn ident_at(&self, off: usize) -> Option<String> {
        match self.peek(off) {
            Some(t) if t.kind == Kind::Ident => Some(t.text.clone()),
            _ => None,
        }
    }

    /// From a position *at* `open_text`, returns the code position of the
    /// matching `close_text`.
    fn find_matching(&self, from: usize, open_text: &str, close_text: &str) -> Option<usize> {
        let mut depth = 0i64;
        let mut j = from;
        while j < self.code.len() {
            let t = &self.toks[self.code[j]].text;
            if t == open_text {
                depth += 1;
            } else if t == close_text {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            j += 1;
        }
        None
    }

    /// Scans a fn signature tail to its body: returns the body token
    /// range for `{ … }`, or an empty range for a `;` declaration.
    fn scan_to_body(&mut self) -> Option<(usize, usize)> {
        loop {
            match self.peek_text(0) {
                "" => return None,
                ";" => {
                    self.pos += 1;
                    return Some((0, 0));
                }
                "(" => {
                    let close = self.find_matching(self.pos, "(", ")")?;
                    self.pos = close + 1;
                }
                "[" => {
                    let close = self.find_matching(self.pos, "[", "]")?;
                    self.pos = close + 1;
                }
                "{" => {
                    let open = self.pos;
                    let close = self.find_matching(open, "{", "}")?;
                    let body = (self.code[open] + 1, self.code[close]);
                    self.pos = close + 1;
                    return Some(body);
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Skips to the `;` ending a value item, tracking brace/paren/
    /// bracket groups so initializer expressions (struct literals,
    /// blocks, closures) don't end the item early.
    fn skip_to_semicolon(&mut self) -> Option<()> {
        loop {
            match self.peek_text(0) {
                "" => return None,
                ";" => {
                    self.pos += 1;
                    return Some(());
                }
                "(" => self.pos = self.find_matching(self.pos, "(", ")")? + 1,
                "[" => self.pos = self.find_matching(self.pos, "[", "]")? + 1,
                "{" => self.pos = self.find_matching(self.pos, "{", "}")? + 1,
                _ => self.pos += 1,
            }
        }
    }

    /// Consumes a macro delimiter group `(…)`, `[…]`, or `{…}`,
    /// returning the inner token range.
    fn consume_macro_group(&mut self) -> Option<(usize, usize)> {
        let (open, close) = match self.peek_text(0) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return None,
        };
        let start = self.pos;
        let end = self.find_matching(start, open, close)?;
        let body = (self.code[start] + 1, self.code[end]);
        self.pos = end + 1;
        Some(body)
    }
}

/// Extracts the Self-type name and trait-impl flag from an impl header
/// (the tokens between `impl` and `{`). The Self type is the last path
/// segment before any generic arguments: after `for` when present
/// (trait impl), else the whole header.
fn impl_target(header: &[&Token]) -> (Option<String>, bool) {
    // Angle-bracket depth: the lexer merges `>>`, so track both widths.
    let mut angle = 0i64;
    let mut for_at: Option<usize> = None;
    for (i, t) in header.iter().enumerate() {
        match t.text.as_str() {
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "->" => {}
            "for" if angle <= 0 => for_at = Some(i),
            _ => {}
        }
    }
    let seg = match for_at {
        Some(i) => &header[i + 1..],
        None => header,
    };
    // Skip leading `impl<…>` generics in the no-`for` case, then take
    // the last ident of the leading path (stop at generic args).
    let mut angle = 0i64;
    let mut name = None;
    for t in seg {
        match t.text.as_str() {
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "where" if angle <= 0 => break,
            _ if t.kind == Kind::Ident && angle <= 0 => name = Some(t.text.clone()),
            _ => {}
        }
    }
    (name, for_at.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ItemTree {
        parse_items(&lex(src))
    }

    fn names(items: &[Item]) -> Vec<(&ItemKind, &str)> {
        items.iter().map(|i| (&i.kind, i.name.as_str())).collect()
    }

    #[test]
    fn parses_top_level_items() {
        let t = parse(
            "#![forbid(unsafe_code)]\nuse std::fs;\npub mod m;\npub fn f() { g(); }\n\
             struct S { a: u32 }\nenum E { A, B(u32) }\npub trait T { fn m(&self); }\n\
             const N: usize = 3;\nstatic mut G: u32 = 0;\ntype Alias = Vec<u32>;\n",
        );
        assert_eq!(t.skipped, 0);
        let kinds: Vec<ItemKind> = t.items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Use,
                ItemKind::Mod,
                ItemKind::Fn,
                ItemKind::Struct,
                ItemKind::Enum,
                ItemKind::Trait,
                ItemKind::Const,
                ItemKind::Static,
                ItemKind::TypeAlias,
            ]
        );
        let f = &t.items[2];
        assert_eq!(f.name, "f");
        assert!(f.is_pub);
        assert!(f.body.1 > f.body.0, "fn body must be a nonempty range");
    }

    #[test]
    fn const_fn_is_a_fn_and_const_value_is_not() {
        let t = parse("pub const fn f() -> usize { 1 }\nconst X: Foo = Foo { a: 1 };\n");
        assert_eq!(t.skipped, 0);
        assert_eq!(names(&t.items), vec![(&ItemKind::Fn, "f"), (&ItemKind::Const, "X")]);
    }

    #[test]
    fn nested_mods_and_impls_recurse() {
        let t = parse(
            "mod outer {\n  mod inner { pub fn deep() {} }\n  impl Widget {\n    pub fn new() -> Widget { Widget }\n    fn helper(&self) {}\n  }\n  impl std::fmt::Display for Widget {\n    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result { Ok(()) }\n  }\n}\n",
        );
        assert_eq!(t.skipped, 0);
        let outer = &t.items[0];
        assert_eq!(outer.kind, ItemKind::Mod);
        assert_eq!(outer.children.len(), 3);
        let inner = &outer.children[0];
        assert_eq!(names(&inner.children), vec![(&ItemKind::Fn, "deep")]);
        let inherent = &outer.children[1];
        assert_eq!(inherent.impl_of.as_deref(), Some("Widget"));
        assert!(!inherent.impl_trait);
        assert_eq!(
            names(&inherent.children),
            vec![(&ItemKind::Fn, "new"), (&ItemKind::Fn, "helper")]
        );
        let trait_impl = &outer.children[2];
        assert_eq!(trait_impl.impl_of.as_deref(), Some("Widget"));
        assert!(trait_impl.impl_trait);
    }

    #[test]
    fn impl_targets_with_generics_and_paths() {
        let t = parse(
            "impl<T: Clone> Stack<T> { fn push(&mut self, t: T) {} }\n\
             impl FromStr for Engine { fn from_str(s: &str) -> R { todo() } }\n\
             impl<'a> Iterator for Iter<'a> { fn next(&mut self) -> Option<u32> { None } }\n",
        );
        assert_eq!(t.skipped, 0);
        assert_eq!(t.items[0].impl_of.as_deref(), Some("Stack"));
        assert!(!t.items[0].impl_trait);
        assert_eq!(t.items[1].impl_of.as_deref(), Some("Engine"));
        assert!(t.items[1].impl_trait);
        assert_eq!(t.items[2].impl_of.as_deref(), Some("Iter"));
        assert!(t.items[2].impl_trait);
    }

    #[test]
    fn attributes_and_test_marking() {
        let t = parse(
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn works() { assert!(true); }\n}\n\
             #[derive(Debug, Clone)]\npub struct S;\n",
        );
        assert_eq!(t.skipped, 0);
        let m = &t.items[0];
        assert!(m.is_test_marked());
        assert!(m.children[0].is_test_marked());
        assert_eq!(t.items[1].attrs, vec!["derive(Debug,Clone)"]);
        assert!(!t.items[1].is_test_marked());
    }

    #[test]
    fn restricted_visibility_is_not_pub() {
        let t = parse("pub(crate) fn a() {}\npub(super) fn b() {}\npub fn c() {}\nfn d() {}\n");
        assert_eq!(t.skipped, 0);
        let pubs: Vec<bool> = t.items.iter().map(|i| i.is_pub).collect();
        assert_eq!(pubs, vec![false, false, true, false]);
    }

    #[test]
    fn tuple_structs_where_clauses_and_trait_decls() {
        let t = parse(
            "pub struct Wrapper(pub u32);\n\
             pub fn generic<R, F>(n: usize, f: F) -> Vec<R> where R: Send, F: Fn(usize) -> R + Sync { loop {} }\n\
             trait T { fn declared(&self); fn provided(&self) { self.declared() } }\n",
        );
        assert_eq!(t.skipped, 0);
        assert_eq!(t.items[0].kind, ItemKind::Struct);
        assert_eq!(t.items[1].kind, ItemKind::Fn);
        assert!(t.items[1].body.1 > t.items[1].body.0);
        let tr = &t.items[2];
        assert_eq!(tr.children.len(), 2);
        assert_eq!(tr.children[0].body, (0, 0), "bodiless decl has empty body");
        assert!(tr.children[1].body.1 > tr.children[1].body.0);
    }

    #[test]
    fn macro_items_are_consumed() {
        let t = parse(
            "macro_rules! my { ($x:expr) => { $x + 1 }; }\n\
             thread_local! { static TL: u64 = 0; }\n\
             std::thread_local! { static TL2: u64 = 0; }\n",
        );
        assert_eq!(t.skipped, 0);
        assert_eq!(
            names(&t.items),
            vec![
                (&ItemKind::MacroDef, "my"),
                (&ItemKind::MacroCall, "thread_local"),
                (&ItemKind::MacroCall, "thread_local"),
            ]
        );
    }

    #[test]
    fn bodies_exclude_braces_and_cover_statements() {
        let src = "fn f() { let x = 1; g(x); }";
        let toks = lex(src);
        let t = parse_items(&toks);
        let (b0, b1) = t.items[0].body;
        let body_text: String = toks[b0..b1].iter().map(|t| t.text.clone()).collect::<Vec<_>>().join(" ");
        assert_eq!(body_text, "let x = 1 ; g ( x ) ;");
    }

    #[test]
    fn recovery_counts_skipped_tokens_and_continues() {
        // A stray token soup before a valid item: the item still parses.
        let t = parse(") ] } fn ok() {}");
        assert!(t.skipped >= 3);
        assert_eq!(names(&t.items), vec![(&ItemKind::Fn, "ok")]);
    }

    #[test]
    fn unterminated_input_does_not_panic() {
        for src in ["fn f() {", "struct S {", "impl T {", "mod m {", "const X: T = {", "#[cfg("] {
            let t = parse(src);
            // Nothing to assert beyond termination; skipped may be > 0.
            let _ = t.items.len();
        }
    }

    #[test]
    fn walk_visits_depth_first_with_stack() {
        let t = parse("mod a { impl X { fn f() {} } }");
        let mut seen = Vec::new();
        t.walk(&mut |item, stack| {
            seen.push((item.kind, stack.len()));
        });
        assert_eq!(
            seen,
            vec![(ItemKind::Mod, 0), (ItemKind::Impl, 1), (ItemKind::Fn, 2)]
        );
    }
}
