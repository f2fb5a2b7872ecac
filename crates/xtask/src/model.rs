//! The workspace model: every parsed source file, every function
//! definition, and a heuristic intra-workspace call graph.
//!
//! Resolution is *syntactic* — no type information exists at this layer
//! — so call edges are resolved by name with qualifier filtering:
//!
//! * `path::name(…)` — the last qualifier segment must match a
//!   candidate's impl Self-type, its crate identifier, or its file
//!   (module) stem; `Self::`/`self::`/`crate::`/`super::` restrict to
//!   the calling context. A qualifier that matches no candidate drops
//!   the edge (the call targets `std` or an external type).
//! * `.name(…)` — method calls resolve to every workspace impl method
//!   of that name (an over-approximation: receivers are untyped).
//! * `name(…)` — plain calls prefer same-file candidates, then
//!   same-crate, then every candidate (cross-crate via `use` import).
//! * A bare mention of a known function name (passing `f` as a value)
//!   adds an edge to the same-name candidates, as a call would.
//!
//! Known false-negative classes (documented in DESIGN.md §9): calls
//! through type aliases or renamed imports (`use f as g`), calls made
//! from macro expansions the source never spells out, trait-object and
//! generic dispatch (edges go to same-named impls only), and function
//! pointers stored in data structures before use.

use std::collections::{BTreeMap, BTreeSet};

use crate::audit::{crate_ident, Member};
use crate::lexer::{Kind, Token};
use crate::parse::{parse_items, ItemKind, ItemTree};

/// One function definition discovered in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Package name of the defining crate (`rim-core`).
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing impl's Self-type, if defined inside an impl block.
    pub qual: Option<String>,
    /// 1-based definition line.
    pub line: u32,
    /// Defined in test scope: a `tests/`/`benches/`/`examples/` file, a
    /// `#[cfg(test)]` module, or carrying `#[test]` itself.
    pub in_test: bool,
    /// A non-test fn marked `// rim-lint: root` above its item (doc
    /// comments, attributes and `allow(...)` lines may sit between): a
    /// hot-path kernel whose call closure `panic-freedom` and
    /// `engine-determinism` audit.
    pub root: bool,
    /// Body token range within the file's token vector.
    pub body: (usize, usize),
    /// Signature token range: from the item's first token (attributes
    /// included) to the start of the body — enough to recover
    /// parameter names for the dataflow passes in [`crate::flow`].
    pub sig: (usize, usize),
    /// Index into [`Workspace::files`].
    pub file_idx: usize,
}

impl FnDef {
    /// `crate::file-stem::[Type::]name` — the stable display path used
    /// in diagnostics.
    pub fn path(&self) -> String {
        let stem = self
            .file
            .rsplit('/')
            .next()
            .unwrap_or(&self.file)
            .trim_end_matches(".rs");
        match &self.qual {
            Some(q) => format!("{}::{}::{}::{}", crate_ident(&self.krate), stem, q, self.name),
            None => format!("{}::{}::{}", crate_ident(&self.krate), stem, self.name),
        }
    }
}

/// An unrestricted-`pub` item of a library source, tracked for the
/// `dead-pub` rule.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Package name of the defining crate.
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Item keyword (`fn`, `struct`, `enum`, …) for the message.
    pub kind: &'static str,
    /// Item name.
    pub name: String,
    /// 1-based definition line.
    pub line: u32,
    /// Index into [`Workspace::files`].
    pub file_idx: usize,
    /// `[start, end)` token range of the whole item: references inside
    /// it (recursion, a method naming its own type) are not uses.
    pub span: (usize, usize),
}

/// One parsed source file.
pub struct SourceFile<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Owning package name.
    pub krate: &'a str,
    /// The file's token stream (comments included).
    pub tokens: &'a [Token],
    /// Its parsed item tree.
    pub tree: ItemTree,
    /// Whether this file lives under `tests/`, `benches/`, or
    /// `examples/`.
    pub is_test_source: bool,
}

/// A directed call-graph edge between [`Workspace::fns`] indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Calling function (index into [`Workspace::fns`]).
    pub from: usize,
    /// Called function (index into [`Workspace::fns`]).
    pub to: usize,
}

/// The fully-resolved workspace model.
pub struct Workspace<'a> {
    /// Every parsed source file.
    pub files: Vec<SourceFile<'a>>,
    /// Every function definition.
    pub fns: Vec<FnDef>,
    /// Deduplicated call edges.
    pub edges: Vec<Edge>,
    /// Every unrestricted-`pub` item of library sources (fns included),
    /// for `dead-pub`.
    pub pub_items: Vec<PubItem>,
    /// Per fn, the root whose call closure contains it (a root is its
    /// own), or `None` off the hot path: the one set of fns that
    /// `panic-freedom` and `engine-determinism` audit.
    pub root_of: Vec<Option<usize>>,
    /// `(file index, line)` of each `// rim-lint: root` mark that
    /// attaches to no non-test fn.
    pub(crate) unattached_marks: Vec<(usize, u32)>,
    /// fn-name → indices into `fns`.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Forward adjacency: `fns`-index → callee indices.
    succ: Vec<Vec<usize>>,
}

/// Keywords that can directly precede `(` without being calls.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "impl", "where", "in", "as", "move",
    "let", "else", "pub", "crate", "super", "self", "Self", "dyn", "ref", "mut", "use", "unsafe",
    "box", "break", "continue",
];

/// Item keywords: an identifier directly after one is a definition, not
/// a reference.
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "mod", "type", "union", "macro_rules",
];

/// Builds the workspace model from loaded members: parses every source
/// file, collects function definitions and pub items, and resolves the
/// call graph.
pub fn build<'a>(members: &'a [Member]) -> Workspace<'a> {
    let mut files = Vec::new();
    for member in members {
        for (sources, is_test) in [(&member.lib_sources, false), (&member.test_sources, true)] {
            for (rel, tokens, _) in sources {
                files.push(SourceFile {
                    rel,
                    krate: &member.manifest.package_name,
                    tokens,
                    tree: parse_items(tokens),
                    is_test_source: is_test,
                });
            }
        }
    }

    // Pass 1: collect definitions, root marks and pub items.
    let mut fns: Vec<FnDef> = Vec::new();
    let mut pub_items: Vec<PubItem> = Vec::new();
    let mut unattached_marks = Vec::new();
    for (file_idx, f) in files.iter().enumerate() {
        let is_bin = f.rel.ends_with("main.rs") || f.rel.contains("src/bin/");
        let marks = crate::rules::root_marks(f.tokens);
        let first_fn = fns.len();
        f.tree.walk(&mut |item, stack| {
            let in_test = f.is_test_source
                || item.is_test_marked()
                || stack.iter().any(|s| s.is_test_marked());
            let (qual, trait_impl) = match stack.last() {
                Some(p) if p.kind == ItemKind::Impl => (p.impl_of.clone(), p.impl_trait),
                Some(p) if p.kind == ItemKind::Trait => (Some(p.name.clone()), true),
                _ => (None, false),
            };
            if item.kind == ItemKind::Fn {
                fns.push(FnDef {
                    krate: f.krate.to_string(),
                    file: f.rel.to_string(),
                    name: item.name.clone(),
                    qual: qual.clone(),
                    line: item.line,
                    in_test,
                    root: !in_test && marks.iter().any(|&(_, at)| at == item.span.0),
                    body: item.body,
                    sig: (item.span.0, item.body.0.max(item.span.0)),
                    file_idx,
                });
            }
            // Pub surface: library (non-test, non-binary) items only.
            if item.is_pub && !in_test && !f.is_test_source && !is_bin {
                let kind = match item.kind {
                    ItemKind::Fn => "fn",
                    ItemKind::Struct => "struct",
                    ItemKind::Enum => "enum",
                    ItemKind::Trait => "trait",
                    ItemKind::Const => "const",
                    ItemKind::Static => "static",
                    ItemKind::TypeAlias => "type",
                    _ => return,
                };
                // Methods of trait impls are called through the trait;
                // their `pub` is not independent API surface.
                if trait_impl {
                    return;
                }
                pub_items.push(PubItem {
                    krate: f.krate.to_string(),
                    file: f.rel.to_string(),
                    kind,
                    name: item.name.clone(),
                    line: item.line,
                    file_idx,
                    span: item.span,
                });
            }
        });
        for &(line, at) in &marks {
            if !fns[first_fn..].iter().any(|d| d.root && d.sig.0 == at) {
                unattached_marks.push((file_idx, line));
            }
        }
    }

    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(i);
    }

    // Dependency closure per crate: a call site can only target crates
    // the caller's crate can actually name — itself plus its declared
    // (dev-)dependencies, transitively. Without this filter the untyped
    // method-call heuristic bleeds across unrelated crates (any
    // `.peek()` would edge into every `peek` impl in the workspace).
    let direct: BTreeMap<&str, Vec<&str>> = members
        .iter()
        .map(|m| {
            let deps = m
                .manifest
                .deps
                .iter()
                .chain(&m.manifest.dev_deps)
                .map(|d| d.name.as_str())
                .collect();
            (m.manifest.package_name.as_str(), deps)
        })
        .collect();
    let dep_closure: BTreeMap<&str, BTreeSet<&str>> = direct
        .keys()
        .map(|&krate| {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut queue = vec![krate];
            while let Some(c) = queue.pop() {
                if seen.insert(c) {
                    queue.extend(direct.get(c).into_iter().flatten());
                }
            }
            (krate, seen)
        })
        .collect();

    // Pass 2: extract and resolve call sites.
    let empty = BTreeSet::new();
    let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (caller_idx, caller) in fns.iter().enumerate() {
        let file = &files[caller.file_idx];
        let allowed = dep_closure.get(caller.krate.as_str()).unwrap_or(&empty);
        for site in call_sites(file.tokens, caller.body, &by_name) {
            let targets = resolve(&site, caller, &fns, &by_name, allowed);
            for t in targets {
                if t != caller_idx {
                    edge_set.insert((caller_idx, t));
                }
            }
        }
    }
    let edges: Vec<Edge> = edge_set.into_iter().map(|(from, to)| Edge { from, to }).collect();
    let mut succ = vec![Vec::new(); fns.len()];
    for e in &edges {
        succ[e.from].push(e.to);
    }
    let root_of = closure(&succ, (0..fns.len()).filter(|&i| fns[i].root));

    Workspace {
        files,
        fns,
        edges,
        pub_items,
        root_of,
        unattached_marks,
        by_name,
        succ,
    }
}

/// Closure over the call edges `succ` from `seeds`: per fn, the seed it
/// was first reached from (a seed reaches itself), or `None`.
fn closure(succ: &[Vec<usize>], seeds: impl IntoIterator<Item = usize>) -> Vec<Option<usize>> {
    let mut from = vec![None; succ.len()];
    let mut queue: Vec<usize> = Vec::new();
    for s in seeds {
        if s < from.len() && from[s].is_none() {
            from[s] = Some(s);
            queue.push(s);
        }
    }
    while let Some(u) = queue.pop() {
        for &v in &succ[u] {
            if from[v].is_none() {
                from[v] = from[u];
                queue.push(v);
            }
        }
    }
    from
}

/// One syntactic call site inside a function body.
struct CallSite {
    /// Callee name.
    name: String,
    /// Path qualifier segments before the name (`rim_core`, `receiver`
    /// for `rim_core::receiver::f(…)`); empty when unqualified.
    qualifier: Vec<String>,
    /// `.name(…)` — a method call.
    is_method: bool,
}

/// Extracts call sites from the body token range `[b0, b1)`.
fn call_sites(
    tokens: &[Token],
    (b0, b1): (usize, usize),
    known: &BTreeMap<String, Vec<usize>>,
) -> Vec<CallSite> {
    let code: Vec<&Token> = tokens[b0.min(tokens.len())..b1.min(tokens.len())]
        .iter()
        .filter(|t| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .collect();
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != Kind::Ident || NOT_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| code[p].text.as_str()).unwrap_or("");
        let next = code.get(i + 1).map(|n| n.text.as_str()).unwrap_or("");
        if DEF_KEYWORDS.contains(&prev) {
            continue; // a definition, not a use
        }
        // Macro invocations are not function calls.
        if next == "!" {
            continue;
        }
        // Direct call `name(` — possibly `path::name(` or `.name(`.
        let direct_call = next == "(";
        // Turbofish call `name::<T>(`.
        let turbofish_call = next == "::"
            && code.get(i + 2).is_some_and(|n| n.text == "<")
            && turbofish_closes_into_call(&code, i + 2);
        let walk_qualifier = |end: usize| {
            let mut qualifier = Vec::new();
            let mut j = end;
            while j >= 2 && code[j - 1].text == "::" && code[j - 2].kind == Kind::Ident {
                qualifier.insert(0, code[j - 2].text.clone());
                j -= 2;
            }
            qualifier
        };
        if direct_call || turbofish_call {
            let is_method = prev == ".";
            let qualifier = if is_method { Vec::new() } else { walk_qualifier(i) };
            out.push(CallSite { name: t.text.clone(), qualifier, is_method });
            continue;
        }
        // Bare reference to a known fn name in value position. `.name`
        // without a call is a field access: Rust cannot name a method
        // through a value, so it never refers to a fn.
        if known.contains_key(&t.text) && next != "::" && prev != "." {
            let qualifier = walk_qualifier(i);
            out.push(CallSite { name: t.text.clone(), qualifier, is_method: false });
        }
    }
    out
}

/// Does `name::<…>` at `lt` (the position of `<`) close into a `(`?
fn turbofish_closes_into_call(code: &[&Token], lt: usize) -> bool {
    let mut depth = 0i64;
    let mut j = lt;
    while j < code.len() && j < lt + 64 {
        match code[j].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return code.get(j + 1).is_some_and(|n| n.text == "(");
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return code.get(j + 1).is_some_and(|n| n.text == "(");
                }
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// Resolves one call site to candidate definition indices. `allowed`
/// is the caller crate's dependency closure (itself included); defs
/// outside it are unreachable by construction and never edge.
fn resolve(
    site: &CallSite,
    caller: &FnDef,
    fns: &[FnDef],
    by_name: &BTreeMap<String, Vec<usize>>,
    allowed: &BTreeSet<&str>,
) -> Vec<usize> {
    let Some(all_cands) = by_name.get(&site.name) else {
        return Vec::new(); // std / external: out of scope
    };
    let cands: Vec<usize> = all_cands
        .iter()
        .copied()
        .filter(|&i| allowed.contains(fns[i].krate.as_str()))
        .collect();
    if let Some(last) = site.qualifier.last() {
        // Contextual qualifiers restrict to the calling crate (and impl).
        if last == "self" || last == "crate" || last == "super" {
            return cands
                .iter()
                .copied()
                .filter(|&i| fns[i].krate == caller.krate)
                .collect();
        }
        let target_type = if last == "Self" { caller.qual.clone() } else { Some(last.clone()) };
        // An unmatched qualifier means the call targets a type outside
        // the workspace (`Vec::new`): no edge.
        return cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &fns[i];
                let stem = f.file.rsplit('/').next().unwrap_or("").trim_end_matches(".rs");
                f.qual.as_deref() == target_type.as_deref()
                    || crate_ident(&f.krate) == *last
                    || stem == *last
            })
            .collect();
    }
    if site.is_method {
        // Methods live in impls; free fns cannot be `.called()`.
        return cands.iter().copied().filter(|&i| fns[i].qual.is_some()).collect();
    }
    // Plain call: nearest-scope preference.
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| fns[i].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| fns[i].krate == caller.krate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands.clone()
}

impl<'a> Workspace<'a> {
    /// Definition indices for a function name.
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Closure over call edges from `seeds`; returns a reachability
    /// mask over [`Workspace::fns`]. Seeds are included.
    pub fn reachable_from(&self, seeds: impl IntoIterator<Item = usize>) -> Vec<bool> {
        closure(&self.succ, seeds)
            .iter()
            .map(Option::is_some)
            .collect()
    }

    /// Reachability mask from every test-scope function — the graph
    /// notion of "retained": a definition a test can actually reach.
    pub fn reachable_from_tests(&self) -> Vec<bool> {
        self.reachable_from((0..self.fns.len()).filter(|&i| self.fns[i].in_test))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::parse_manifest;
    use crate::rules::prepare;
    use std::path::PathBuf;

    fn member(package: &str, lib: &[(&str, &str)], test: &[(&str, &str)]) -> Member {
        member_deps(package, &[], lib, test)
    }

    fn member_deps(
        package: &str,
        deps: &[&str],
        lib: &[(&str, &str)],
        test: &[(&str, &str)],
    ) -> Member {
        let mk = |files: &[(&str, &str)]| {
            files
                .iter()
                .map(|(rel, src)| {
                    let (tokens, ranges) = prepare(src);
                    (rel.to_string(), tokens, ranges)
                })
                .collect()
        };
        let mut manifest = format!("[package]\nname = \"{package}\"\n[dependencies]\n");
        for d in deps {
            manifest.push_str(&format!("{d}.workspace = true\n"));
        }
        Member {
            dir: PathBuf::from("/nonexistent"),
            manifest_rel: "Cargo.toml".to_string(),
            manifest: parse_manifest(&manifest),
            lib_sources: mk(lib),
            test_sources: mk(test),
        }
    }

    fn fn_idx(ws: &Workspace, name: &str) -> usize {
        let d = ws.defs_named(name);
        assert_eq!(d.len(), 1, "expected a unique def of {name}");
        d[0]
    }

    fn has_edge(ws: &Workspace, from: &str, to: &str) -> bool {
        let f = fn_idx(ws, from);
        let t = fn_idx(ws, to);
        ws.edges.iter().any(|e| e.from == f && e.to == t)
    }

    #[test]
    fn plain_calls_prefer_same_file_then_crate() {
        let members = vec![
            member(
                "a",
                &[
                    ("crates/a/src/lib.rs", "pub fn entry() { helper(); }\nfn helper() {}\n"),
                    ("crates/a/src/other.rs", "pub fn helper() {}\n"),
                ],
                &[],
            ),
            member("b", &[("crates/b/src/lib.rs", "pub fn helper() {}\n")], &[]),
        ];
        let ws = build(&members);
        let entry = fn_idx(&ws, "entry");
        let callees: Vec<&str> = ws
            .edges
            .iter()
            .filter(|e| e.from == entry)
            .map(|e| ws.fns[e.to].file.as_str())
            .collect();
        // Only the same-file helper, not other.rs's or crate b's.
        assert_eq!(callees, vec!["crates/a/src/lib.rs"]);
    }

    #[test]
    fn qualified_calls_match_impl_type_crate_and_module() {
        let members = vec![
            member(
                "rim-geom",
                &[(
                    "crates/geom/src/soa_grid.rs",
                    "pub struct SoaGrid;\nimpl SoaGrid {\n  pub fn build() -> Self { SoaGrid }\n}\n",
                )],
                &[],
            ),
            member_deps(
                "rim-core",
                &["rim-geom"],
                &[(
                    "crates/core/src/receiver.rs",
                    "pub fn f() { let _ = SoaGrid::build(); }\n",
                )],
                &[],
            ),
        ];
        let ws = build(&members);
        assert!(has_edge(&ws, "f", "build"));
        // Vec::new-style calls to types outside the workspace never edge.
        let members2 = vec![member(
            "a",
            &[("crates/a/src/lib.rs", "pub fn new() {}\npub fn h() { let _ = Vec::new(); }\n")],
            &[],
        )];
        let ws2 = build(&members2);
        let h = fn_idx(&ws2, "h");
        assert!(ws2.edges.iter().all(|e| e.from != h), "Vec::new must not resolve");
    }

    #[test]
    fn dependency_closure_limits_resolution() {
        let geom = || {
            member(
                "rim-geom",
                &[(
                    "crates/geom/src/soa_grid.rs",
                    "pub struct SoaGrid;\nimpl SoaGrid {\n  pub fn probe(&self) {}\n}\n",
                )],
                &[],
            )
        };
        // Without a declared dependency on rim-geom, neither the
        // qualified call nor the untyped method call may edge into it.
        let members = vec![
            geom(),
            member(
                "rim-sim",
                &[(
                    "crates/sim/src/lib.rs",
                    "pub fn f(x: &T) { x.probe(); }\n",
                )],
                &[],
            ),
        ];
        let ws = build(&members);
        let f = fn_idx(&ws, "f");
        assert!(ws.edges.iter().all(|e| e.from != f), "undeclared crate must not edge");
        // With the dependency declared, the method call resolves.
        let members = vec![
            geom(),
            member_deps(
                "rim-sim",
                &["rim-geom"],
                &[("crates/sim/src/lib.rs", "pub fn f(x: &T) { x.probe(); }\n")],
                &[],
            ),
        ];
        let ws = build(&members);
        assert!(has_edge(&ws, "f", "probe"));
    }

    #[test]
    fn method_calls_resolve_to_impl_fns_only() {
        // `p.x` reads a field that shares a method's name: no edge.
        let members = vec![member(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "pub struct S;\nimpl S { pub fn step(&self) {} pub fn x(&self) -> f64 { 0.0 } }\n\
                 pub struct P { pub x: f64 }\n\
                 pub fn run(s: &S, p: &P) -> f64 { s.step(); p.x }\n",
            )],
            &[],
        )];
        let ws = build(&members);
        let run = fn_idx(&ws, "run");
        let targets: Vec<&FnDef> = ws
            .edges
            .iter()
            .filter(|e| e.from == run)
            .map(|e| &ws.fns[e.to])
            .collect();
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].qual.as_deref(), Some("S"));
    }

    #[test]
    fn bare_references_create_ref_edges() {
        let members = vec![member(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "pub fn worker(i: usize) -> usize { i }\n\
                 pub fn driver(v: Vec<usize>) { let _: Vec<usize> = v.into_iter().map(worker).collect(); }\n",
            )],
            &[],
        )];
        let ws = build(&members);
        assert!(has_edge(&ws, "driver", "worker"));
    }

    #[test]
    fn test_scope_detection_and_reachability() {
        let members = vec![member(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "pub fn api() { inner(); }\nfn inner() {}\nfn dead() {}\n\
                 #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { super::api(); }\n}\n",
            )],
            &[("crates/a/tests/e2e.rs", "#[test]\nfn e2e() { a::api(); }\n")],
        )];
        let ws = build(&members);
        let reach = ws.reachable_from_tests();
        assert!(reach[fn_idx(&ws, "api")]);
        assert!(reach[fn_idx(&ws, "inner")]);
        assert!(!reach[fn_idx(&ws, "dead")]);
        assert!(ws.fns[fn_idx(&ws, "t")].in_test);
        assert!(ws.fns[fn_idx(&ws, "e2e")].in_test);
        assert!(!ws.fns[fn_idx(&ws, "api")].in_test);
    }

    #[test]
    fn pub_items_skip_tests_binaries_and_trait_impls() {
        let members = vec![member(
            "a",
            &[
                (
                    "crates/a/src/lib.rs",
                    "pub struct S;\npub fn api() {}\npub(crate) fn internal() {}\n\
                     impl Clone for S { fn clone(&self) -> S { S } }\n\
                     #[cfg(test)]\nmod tests { pub fn helper() {} }\n",
                ),
                ("crates/a/src/main.rs", "pub fn bin_only() {}\nfn main() {}\n"),
            ],
            &[("crates/a/tests/t.rs", "pub fn test_util() {}\n")],
        )];
        let ws = build(&members);
        let names: Vec<&str> = ws.pub_items.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["S", "api"]);
    }

    /// The paths of the fns a one-file crate marks as roots, and the
    /// lines of its marks that attach to none.
    fn marked(lib: &str) -> (Vec<String>, Vec<u32>) {
        let members = vec![member("a", &[("crates/a/src/lib.rs", lib)], &[])];
        let ws = build(&members);
        let roots = ws.fns.iter().filter(|f| f.root).map(FnDef::path).collect();
        (
            roots,
            ws.unattached_marks.iter().map(|&(_, line)| line).collect(),
        )
    }

    #[test]
    fn a_mark_reads_past_doc_comments_attributes_and_allow_lines() {
        let lib = "// rim-lint: root\n/// A kernel.\n\
                   // rim-lint: allow(panic-freedom) — in range by construction\n\
                   #[inline]\n/// More docs.\n#[must_use]\npub fn kernel() -> u32 { 0 }\n\
                   pub fn unmarked() {}\n";
        assert_eq!(marked(lib), (vec!["a::lib::kernel".to_string()], vec![]));
    }

    #[test]
    fn a_mark_above_a_struct_or_inside_a_body_is_reported() {
        let lib = "// rim-lint: root\npub struct S;\n\
                   pub fn f() {\n    // rim-lint: root\n    g();\n}\nfn g() {}\n\
                   #[cfg(test)]\nmod tests {\n    // rim-lint: root\n    #[test]\n\
                   fn t() {}\n}\n";
        assert_eq!(marked(lib), (vec![], vec![1, 4, 10]));
        let members = vec![member("a", &[("crates/a/src/lib.rs", lib)], &[])];
        let mut out = Vec::new();
        crate::rules::unattached_root_marks(&build(&members), &mut out);
        let got: Vec<(&str, u32)> = out.iter().map(|d| (d.rule, d.line)).collect();
        let rule = "unknown-pragma-rule";
        assert_eq!(got, [(rule, 1), (rule, 4), (rule, 10)]);
    }

    #[test]
    fn a_mark_in_a_doc_comment_does_nothing() {
        let lib = "//! rim-lint: root\n/// rim-lint: root\npub fn f() {}\n";
        assert_eq!(marked(lib), (vec![], vec![]));
    }

    #[test]
    fn only_the_marked_one_of_two_same_named_fns_is_a_root() {
        let lib = "pub struct A;\npub struct B;\n\
                   impl A {\n    // rim-lint: root\n    pub fn step(&self) { self.inner() }\n\
                   fn inner(&self) {}\n}\n\
                   impl B {\n    pub fn step(&self) { self.other() }\n    fn other(&self) {}\n}\n";
        assert_eq!(marked(lib), (vec!["a::lib::A::step".to_string()], vec![]));
        let members = vec![member("a", &[("crates/a/src/lib.rs", lib)], &[])];
        let ws = build(&members);
        let on_path: Vec<String> = (0..ws.fns.len())
            .filter(|&i| ws.root_of[i].is_some())
            .map(|i| ws.fns[i].path())
            .collect();
        assert_eq!(on_path, ["a::lib::A::step", "a::lib::A::inner"]);
    }

    #[test]
    fn turbofish_calls_still_resolve() {
        let members = vec![member(
            "a",
            &[(
                "crates/a/src/lib.rs",
                "pub fn make<T: Default>() -> T { T::default() }\n\
                 pub fn use_it() { let _: u32 = make::<u32>(); }\n",
            )],
            &[],
        )];
        let ws = build(&members);
        assert!(has_edge(&ws, "use_it", "make"));
    }
}
