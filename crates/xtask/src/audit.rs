//! Workspace audits: manifest ↔ source dependency cross-checks, the
//! retention audits, and the graph-driven rules.
//!
//! The workspace is hermetic by policy — every dependency is a path
//! dependency on a sibling crate, and the external allowlist below is
//! empty and intended to stay that way. A tiny line-oriented TOML
//! reader is enough for the manifest subset Cargo workspaces use here;
//! it is not a general TOML parser.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{Kind, Token};
use crate::model::Workspace;
use crate::parse::ItemKind;
use crate::rules;
use crate::Diagnostic;

/// External crates the workspace is permitted to depend on. Empty on
/// purpose: the build must keep working with no registry access at
/// all. Growing this list is a deliberate, reviewed decision.
pub const EXTERNAL_ALLOWLIST: &[&str] = &[];

/// One dependency declaration from a manifest.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Crate name as written (`rim-geom`).
    pub name: String,
    /// 1-based manifest line.
    pub line: u32,
    /// Raw right-hand side (for the path-dependency check).
    pub value: String,
}

/// The manifest subset the audits need.
#[derive(Debug, Default)]
pub struct Manifest {
    /// `[package] name`.
    pub package_name: String,
    /// `[dependencies]`.
    pub deps: Vec<Dep>,
    /// `[dev-dependencies]`.
    pub dev_deps: Vec<Dep>,
    /// `[workspace.dependencies]` (root manifest only).
    pub workspace_deps: Vec<Dep>,
}

/// Parses the manifest subset used by this workspace.
pub fn parse_manifest(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = (i + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim().to_string();
        match section.as_str() {
            "package" if key == "name" => {
                m.package_name = value.trim_matches('"').to_string();
            }
            "dependencies" | "dev-dependencies" | "workspace.dependencies" => {
                // `rim-geom.workspace = true` or `rim-geom = { … }`.
                let name = key
                    .split(|c: char| c == '.' || c.is_whitespace())
                    .next()
                    .unwrap_or_default() // rim-lint: allow(no-unwrap-in-lib)
                    .trim_matches('"')
                    .to_string();
                if name.is_empty() {
                    continue;
                }
                let dep = Dep { name, line: line_no, value };
                match section.as_str() {
                    "dependencies" => m.deps.push(dep),
                    "dev-dependencies" => m.dev_deps.push(dep),
                    _ => m.workspace_deps.push(dep),
                }
            }
            _ => {}
        }
    }
    m
}

/// One lexed source file: `(rel_path, tokens, test_mod_ranges)`.
pub type Source = (String, Vec<Token>, Vec<(usize, usize)>);

/// A workspace member: manifest plus lexed sources grouped by role.
pub struct Member {
    /// Directory containing `Cargo.toml`.
    pub dir: PathBuf,
    /// Path of the manifest relative to the workspace root.
    pub manifest_rel: String,
    /// Parsed manifest.
    pub manifest: Manifest,
    /// The sources under `src/`.
    pub lib_sources: Vec<Source>,
    /// The sources under `tests/`, `benches/`, `examples/`.
    pub test_sources: Vec<Source>,
}

/// `rim-geom` → `rim_geom` (the identifier Rust code uses).
pub fn crate_ident(name: &str) -> String {
    name.replace('-', "_")
}

/// Runs all manifest/source audits for one member.
pub fn audit_member(member: &Member, workspace_crates: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let m = &member.manifest;
    let rel = &member.manifest_rel;

    // External dependencies: everything must be a workspace sibling or
    // explicitly allowlisted.
    for dep in m.deps.iter().chain(&m.dev_deps).chain(&m.workspace_deps) {
        if !workspace_crates.contains(&dep.name) && !EXTERNAL_ALLOWLIST.contains(&dep.name.as_str())
        {
            out.push(Diagnostic {
                rule: "external-dependency",
                file: rel.clone(),
                line: dep.line,
                message: format!(
                    "`{}` is not a workspace crate and is not on the (empty) external \
                     allowlist; the build must stay hermetic",
                    dep.name
                ),
            });
        }
    }

    // Workspace-level deps must be path dependencies.
    for dep in &m.workspace_deps {
        if !dep.value.contains("path") {
            out.push(Diagnostic {
                rule: "external-dependency",
                file: rel.clone(),
                line: dep.line,
                message: format!(
                    "workspace dependency `{}` is not a path dependency; registry \
                     dependencies are forbidden",
                    dep.name
                ),
            });
        }
    }

    // Declared-but-unused: a [dependencies] entry must be referenced
    // somewhere in the crate; a [dev-dependencies] entry likewise
    // (test modules inside src/ count).
    let all_sources: Vec<&Source> = member.lib_sources.iter().chain(&member.test_sources).collect();
    for (deps, kind) in [(&m.deps, "dependency"), (&m.dev_deps, "dev-dependency")] {
        for dep in deps {
            let ident = crate_ident(&dep.name);
            let used = all_sources
                .iter()
                .any(|(_, tokens, _)| tokens.iter().any(|t| t.kind == Kind::Ident && t.text == ident));
            if !used {
                out.push(Diagnostic {
                    rule: "unused-dependency",
                    file: rel.clone(),
                    line: dep.line,
                    message: format!("declared {kind} `{}` is never referenced in this crate", dep.name),
                });
            }
        }
    }
}

/// The permanent brute-force oracles. Every fast engine is
/// differential-tested against these, so the tests must keep calling
/// them — an optimization PR that silently rewires the suites onto a
/// fast engine would make the differential layer vacuous.
///
/// The interference oracle guards the receiver-centric kernel; the
/// witness-predicate oracles guard the neighbour-list Gabriel/RNG stages
/// of the topology pipeline; the SINR and coverage oracles guard
/// `rim-phys`'s cutoff-disk kernel and its coverage counts, which run
/// the receiver kernel's scatter on power-derived radii.
pub const RETAINED_ORACLES: &[&str] = &[
    "interference_vector_naive",
    "is_gabriel_edge_naive",
    "is_rng_edge_naive",
    "sinr_interference_naive",
    "coverage_vector_naive",
];

/// `naive-oracle-retained`: an oracle in [`RETAINED_ORACLES`] is
/// retained iff at least one of its non-test definitions is reachable
/// from a test-scope function (an integration test, example, or
/// `#[cfg(test)]` module) in the workspace call graph. "The name
/// appears in a test file" is not enough; an actual call chain must
/// exist. Each oracle is checked on its own.
///
/// The definition gate keeps the audit silent on workspaces that never
/// had an oracle (e.g. the lint-test fixture); deleting a definition
/// together with its callers instead trips compile failures in the
/// crates whose suites import it.
pub fn audit_oracle_retained_graph(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let reach = ws.reachable_from_tests();
    for oracle in RETAINED_ORACLES {
        let defs: Vec<usize> = ws
            .defs_named(oracle)
            .iter()
            .copied()
            .filter(|&i| !ws.fns[i].in_test && !ws.files[ws.fns[i].file_idx].is_test_source)
            .collect();
        if defs.is_empty() {
            continue; // fixture-style workspaces: silent
        }
        if !defs.iter().any(|&i| reach[i]) {
            let d = &ws.fns[defs[0]];
            out.push(Diagnostic {
                rule: "naive-oracle-retained",
                file: d.file.clone(),
                line: d.line,
                message: format!(
                    "`{oracle}` is not reachable from any test in the call graph; \
                     the differential-oracle suites must keep exercising the naive \
                     reference implementations"
                ),
            });
        }
    }
}

/// Finds the first occurrence of each token-level panicking construct
/// inside a function body: `panic!`-family macros, `.unwrap()`/
/// `.expect()`, and unchecked `.len() - …` arithmetic. Slice indexing is
/// judged by the const-bounds pass instead (see
/// [`audit_panic_freedom`]). One site per category keeps triage
/// tractable — fixing or justifying the first site forces the author to
/// look at the whole function.
fn panic_sites(tokens: &[Token], (b0, b1): (usize, usize)) -> Vec<(u32, &'static str)> {
    let code: Vec<&Token> = tokens[b0.min(tokens.len())..b1.min(tokens.len())]
        .iter()
        .filter(|t| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .collect();
    let mut first: [Option<(u32, &'static str)>; 3] = [None; 3];
    let record = |slot: &mut Option<(u32, &'static str)>, line: u32, what: &'static str| {
        if slot.is_none() {
            *slot = Some((line, what));
        }
    };
    for (i, t) in code.iter().enumerate() {
        let next = code.get(i + 1).map(|n| n.text.as_str()).unwrap_or("");
        if t.kind == Kind::Ident
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
            && next == "!"
        {
            record(&mut first[0], t.line, "a `panic!`-family macro");
        }
        if t.text == "."
            && code
                .get(i + 1)
                .is_some_and(|n| n.kind == Kind::Ident && (n.text == "unwrap" || n.text == "expect"))
            && code.get(i + 2).is_some_and(|n| n.text == "(")
        {
            record(&mut first[1], code[i + 1].line, "`.unwrap()`/`.expect()`");
        }
        if t.kind == Kind::Ident
            && t.text == "len"
            && next == "("
            && code.get(i + 2).is_some_and(|n| n.text == ")")
            && code.get(i + 3).is_some_and(|n| n.text == "-")
        {
            record(&mut first[2], t.line, "unchecked `.len() - …` (underflows at 0)");
        }
    }
    let mut out: Vec<(u32, &'static str)> = first.iter().flatten().copied().collect();
    out.sort();
    out
}

/// `panic-freedom`: no function reachable in the call graph from a fn
/// marked `// rim-lint: root` ([`Workspace::root_of`]) may contain a
/// panicking construct without a `// rim-lint: allow(panic-freedom)`
/// pragma — accepted at the offending site or on the function's `fn`
/// line (one justification per function, not one per index
/// expression). The roots are the hot-path kernels: the interference
/// engines, the dynamic-update and churn entry points, the parallel
/// executor, the topology-pipeline stages, and the file, CLI-spec,
/// flag and link-budget checks that face outside input. They run inside
/// long-lived services (the churn simulator), where a panic is an
/// availability bug, not a backtrace.
///
/// Slice indexing goes through the expression-level const-bounds pass
/// ([`crate::flow::audit_indexing`]), which sees every fn with a body:
/// an index the pass *proves* in range (a `len()`-derived loop bound,
/// an `enumerate` index, a guarded or asserted bound, a `vec![_; n]`
/// length) is no obligation at all, so those sites need no pragma.
/// Only the first unproven index per function is reported, keeping the
/// one-justification-per-function triage contract.
pub fn audit_panic_freedom(
    ws: &Workspace,
    flow: &crate::flow::Flow,
    pragmas: &BTreeMap<String, rules::Pragmas>,
    out: &mut Vec<Diagnostic>,
) {
    for (i, f) in ws.fns.iter().enumerate() {
        // Each finding names the root that pulls the function onto a
        // hot path.
        let Some(root) = ws.root_of[i].filter(|_| !f.in_test) else { continue };
        let root = &ws.fns[root].name;
        let file = &ws.files[f.file_idx];
        let mut sites = panic_sites(file.tokens, f.body);
        if let Some(body) = &flow.bodies[i] {
            let audit = crate::flow::audit_indexing(body);
            if let Some(line) = audit.first_unproven() {
                sites.push((
                    line,
                    "slice indexing the const-bounds pass cannot prove in range \
                     (`[…]` can panic out of bounds)",
                ));
            }
            sites.sort();
        }
        for (line, what) in sites {
            let allowed = pragmas.get(file.rel).is_some_and(|p| {
                p.allows("panic-freedom", line) || p.allows("panic-freedom", f.line)
            });
            if allowed {
                continue;
            }
            out.push(Diagnostic {
                rule: "panic-freedom",
                file: file.rel.to_string(),
                line,
                message: format!(
                    "`{}` is reachable from panic-free root `{root}` but contains \
                     {what}; remove it or justify with \
                     `// rim-lint: allow(panic-freedom)` at the site or on the \
                     `fn` line",
                    f.path(),
                ),
            });
        }
    }
}

/// Crates whose atomics carry cross-thread protocol obligations.
const ATOMIC_AUDITED_CRATES: &[&str] = &["rim-par", "rim-obs"];

/// `atomic-ordering`: every `Ordering::Relaxed`/`Ordering::SeqCst` in
/// rim-par/rim-obs library code must carry a one-line soundness
/// justification — a comment within the preceding three lines (or on
/// the same line) that names the ordering. Relaxed is the dangerous
/// default (no happens-before), SeqCst the expensive one (usually a
/// stand-in for the ordering the author couldn't articulate); both
/// deserve a sentence.
pub fn audit_atomic_ordering(
    members: &[Member],
    pragmas: &BTreeMap<String, rules::Pragmas>,
    out: &mut Vec<Diagnostic>,
) {
    for member in members {
        if !ATOMIC_AUDITED_CRATES.contains(&member.manifest.package_name.as_str()) {
            continue;
        }
        for (rel, tokens, test_ranges) in &member.lib_sources {
            let code: Vec<(usize, &Token)> = tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| !matches!(t.kind, Kind::Comment | Kind::DocComment))
                .collect();
            for (pos, &(idx, t)) in code.iter().enumerate() {
                if t.kind != Kind::Ident || t.text != "Ordering" {
                    continue;
                }
                if test_ranges.iter().any(|&(s, e)| idx >= s && idx < e) {
                    continue;
                }
                let Some(&(_, name)) = code.get(pos + 2) else { continue };
                if code[pos + 1].1.text != "::"
                    || !matches!(name.text.as_str(), "Relaxed" | "SeqCst")
                {
                    continue;
                }
                let needle = name.text.to_ascii_lowercase();
                let justified = tokens.iter().any(|c| {
                    matches!(c.kind, Kind::Comment | Kind::DocComment)
                        && c.line + 3 >= name.line
                        && c.line <= name.line
                        && c.text.to_ascii_lowercase().contains(&needle)
                });
                let allowed = pragmas
                    .get(rel)
                    .is_some_and(|p| p.allows("atomic-ordering", name.line));
                if !justified && !allowed {
                    out.push(Diagnostic {
                        rule: "atomic-ordering",
                        file: rel.clone(),
                        line: name.line,
                        message: format!(
                            "`Ordering::{}` has no soundness justification; add a \
                             nearby comment naming the ordering and why it is \
                             sufficient (what it synchronizes with, or why nothing \
                             needs to)",
                            name.text
                        ),
                    });
                }
            }
        }
    }
}

/// `lock-discipline`: per function body, (a) no `.lock()` guard bound
/// with `let` may still be live (not `drop`ped) at a call into
/// `par_map_ranges`/`parallel_map` — the workers would deadlock the
/// moment they touch the same lock — and (b) the same receiver must
/// not be locked again while a guard on it is live (`std::sync::Mutex`
/// is not reentrant). Purely lexical: one scope per function, `drop(g)`
/// is the only recognized release.
pub fn audit_lock_discipline(
    ws: &Workspace,
    pragmas: &BTreeMap<String, rules::Pragmas>,
    out: &mut Vec<Diagnostic>,
) {
    for f in &ws.fns {
        if f.in_test {
            continue;
        }
        let file = &ws.files[f.file_idx];
        if file.is_test_source {
            continue;
        }
        let (b0, b1) = f.body;
        let code: Vec<&Token> = file.tokens[b0.min(file.tokens.len())..b1.min(file.tokens.len())]
            .iter()
            .filter(|t| !matches!(t.kind, Kind::Comment | Kind::DocComment))
            .collect();
        let mut pending_let: Option<String> = None;
        // Live guards: (binding, receiver, lock line).
        let mut active: Vec<(String, String, u32)> = Vec::new();
        let emit = |line: u32, message: String, out: &mut Vec<Diagnostic>| {
            let allowed = pragmas.get(file.rel).is_some_and(|p| {
                p.allows("lock-discipline", line) || p.allows("lock-discipline", f.line)
            });
            if !allowed {
                out.push(Diagnostic {
                    rule: "lock-discipline",
                    file: file.rel.to_string(),
                    line,
                    message,
                });
            }
        };
        for i in 0..code.len() {
            let t = code[i];
            match t.text.as_str() {
                "let" => {
                    let mut j = i + 1;
                    if code.get(j).is_some_and(|n| n.text == "mut") {
                        j += 1;
                    }
                    if let Some(n) = code.get(j) {
                        if n.kind == Kind::Ident {
                            pending_let = Some(n.text.clone());
                        }
                    }
                }
                ";" => pending_let = None,
                "drop" if code.get(i + 1).is_some_and(|n| n.text == "(") => {
                    if let Some(n) = code.get(i + 2) {
                        active.retain(|(g, _, _)| *g != n.text);
                    }
                }
                "lock"
                    if i >= 2
                        && code[i - 1].text == "."
                        && code.get(i + 1).is_some_and(|n| n.text == "(")
                        && code[i - 2].kind == Kind::Ident =>
                {
                    let recv = code[i - 2].text.clone();
                    if let Some((_, _, held)) = active.iter().find(|(_, r, _)| *r == recv) {
                        emit(
                            t.line,
                            format!(
                                "`{}` locks `{recv}` again while the guard taken at \
                                 line {held} is still live; `std::sync::Mutex` \
                                 self-deadlocks on relock",
                                f.path(),
                            ),
                            out,
                        );
                    }
                    if let Some(g) = pending_let.clone().filter(|_| binds_guard(&code, i)) {
                        active.push((g, recv, t.line));
                    }
                }
                "par_map_ranges" | "parallel_map"
                    if code.get(i + 1).is_some_and(|n| n.text == "(") =>
                {
                    if let Some((g, r, held)) = active.first() {
                        emit(
                            t.line,
                            format!(
                                "`{}` calls `{}` while guard `{g}` (locked from \
                                 `{r}` at line {held}) is live; drop the guard \
                                 before entering the parallel region",
                                f.path(),
                                t.text,
                            ),
                            out,
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// Whether the `.lock()` call whose `lock` token sits at `code[i]`
/// inside a `let` initializer leaves a live guard in the binding: the
/// call, bare or wrapped in `relock(…)`, optionally followed by
/// `.unwrap()` or `.expect(…)`, is the whole initializer, or the
/// initializer starts with a borrow, which extends its temporaries. Any
/// other form — a projection such as `.0`, a further method call — makes
/// the guard a temporary dropped at the `;`.
fn binds_guard(code: &[&Token], i: usize) -> bool {
    let text = |k: usize| code.get(k).map_or("", |t| t.text.as_str());
    // The receiver path `a.b.c` before `.lock`.
    let mut start = i - 2;
    while start >= 2 && text(start - 1) == "." && code[start - 2].kind == Kind::Ident {
        start -= 2;
    }
    let wrapped = start >= 2 && text(start - 1) == "(" && text(start - 2) == "relock";
    let init = if wrapped { start - 2 } else { start };
    if init == 0 || text(init - 1) != "=" {
        // Inside a larger initializer: guarded only by a leading borrow.
        let eq = (0..i).rev().find(|&k| text(k) == "=" || text(k) == "let");
        return eq.is_some_and(|k| text(k) == "=" && text(k + 1) == "&");
    }
    // After `lock ( )`, and the wrapper's `)`.
    let mut k = i + 3;
    if wrapped {
        if text(k) != ")" {
            return false;
        }
        k += 1;
    }
    if text(k) == "." && matches!(text(k + 1), "unwrap" | "expect") && text(k + 2) == "(" {
        let mut depth = 0usize;
        k += 2;
        loop {
            match text(k) {
                "(" => depth += 1,
                ")" => depth -= 1,
                "" => return false,
                _ => {}
            }
            k += 1;
            if depth == 0 {
                break;
            }
        }
    }
    text(k) == ";"
}

/// Definition/positional contexts that must not count as references
/// for `dead-pub`: an identifier right after one of these introduces a
/// name rather than using one (`impl` and `for` cover impl headers and
/// loop bindings).
const DEAD_PUB_DEF_PREFIX: &[&str] = &[
    "fn", "struct", "enum", "trait", "mod", "type", "union", "macro_rules", "const", "static",
    "impl", "for",
];

/// Identifiers of `tokens` that can name an item defined elsewhere, with
/// their token indices: code outside comments, doc comments and `use`
/// statements, and not in definition position.
fn references(tokens: &[Token]) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut in_use = false;
    let mut prev = "";
    for (i, t) in tokens.iter().enumerate() {
        if matches!(t.kind, Kind::Comment | Kind::DocComment) {
            continue;
        }
        let after = std::mem::replace(&mut prev, t.text.as_str());
        match t.text.as_str() {
            "use" => in_use = true,
            ";" => in_use = false,
            text if !in_use && t.kind == Kind::Ident && !DEAD_PUB_DEF_PREFIX.contains(&after) => {
                out.push((i, text));
            }
            _ => {}
        }
    }
    out
}

/// Lexes `benchmark/src` and `benchmark/tests` under `root`: the timing
/// harness is a separate workspace the lint does not load, but its calls
/// into the library are uses for `dead-pub`. Empty when there is none.
pub fn load_bench_callers(root: &Path) -> Result<Vec<Vec<Token>>, String> {
    let mut out = Vec::new();
    for sub in ["benchmark/src", "benchmark/tests"] {
        for f in rust_files(&root.join(sub)) {
            let src = fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            out.push(crate::lexer::lex(&src));
        }
    }
    Ok(out)
}

/// `dead-pub`: an unrestricted-`pub` item that nothing calls is either
/// API that never earned a caller or a leftover from a refactor. Uses are
/// counted by name across the workspace (tests, examples and binaries
/// included) and `bench`, the lexed `benchmark/` sources (see
/// [`load_bench_callers`]): an identifier outside definition position
/// and outside `use` statements keeps every item of that name alive, so
/// name collisions make the rule conservative. Three kinds of mention
/// are not uses:
///
/// * doc comments, prose and examples alike: a doc example on an item
///   is that item's own test;
/// * `#[cfg(test)]` and `#[test]` items of the item's own file (other
///   files' test modules, `tests/` and `examples/` count);
/// * the item's own definition and the `impl` blocks of a type of that
///   name in its crate, so recursion and a type's own method signatures
///   keep nothing alive.
pub fn audit_dead_pub(
    ws: &Workspace,
    bench: &[Vec<Token>],
    pragmas: &BTreeMap<String, rules::Pragmas>,
    out: &mut Vec<Diagnostic>,
) {
    type Span = (usize, usize);
    let names: BTreeSet<&str> = ws.pub_items.iter().map(|p| p.name.as_str()).collect();
    // Name → `(file, token index)` of each use; `file` is `None` in
    // `benchmark/`.
    let mut uses: BTreeMap<&str, Vec<(Option<usize>, usize)>> = BTreeMap::new();
    // Per file, the spans of its `#[cfg(test)]`/`#[test]` items.
    let mut tests: Vec<Vec<Span>> = Vec::with_capacity(ws.files.len());
    // `(crate, Self-type)` → `(file, span)` of each impl block.
    let mut impls: BTreeMap<(&str, &str), Vec<(usize, Span)>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        let mut file_tests = Vec::new();
        file.tree.walk(&mut |item, _| {
            if item.is_test_marked() {
                file_tests.push(item.span);
            }
            if let (ItemKind::Impl, Some(ty)) = (item.kind, &item.impl_of) {
                impls.entry((file.krate, ty.as_str())).or_default().push((fi, item.span));
            }
        });
        tests.push(file_tests);
        for (idx, name) in references(file.tokens) {
            if names.contains(name) {
                uses.entry(name).or_default().push((Some(fi), idx));
            }
        }
    }
    for tokens in bench {
        for (idx, name) in references(tokens) {
            if names.contains(name) {
                uses.entry(name).or_default().push((None, idx));
            }
        }
    }
    for p in &ws.pub_items {
        let own_impls = impls.get(&(p.krate.as_str(), p.name.as_str()));
        let used = uses.get(p.name.as_str()).is_some_and(|found| {
            found.iter().any(|&(file, idx)| {
                let Some(fi) = file else { return true };
                let inside = |(s, e): Span| s <= idx && idx < e;
                let own_file = fi == p.file_idx;
                !(own_file && (inside(p.span) || tests[fi].iter().copied().any(inside)))
                    && !own_impls.is_some_and(|v| v.iter().any(|&(f, span)| f == fi && inside(span)))
            })
        });
        if used {
            continue;
        }
        let allowed = pragmas
            .get(&p.file)
            .is_some_and(|pr| pr.allows("dead-pub", p.line));
        if !allowed {
            out.push(Diagnostic {
                rule: "dead-pub",
                file: p.file.clone(),
                line: p.line,
                message: format!(
                    "`pub {} {}` has no caller in the workspace or `benchmark/` \
                     (its doc comments, its own file's tests and its own definition \
                     do not count); delete it, demote it to `pub(crate)`, or justify \
                     with `// rim-lint: allow(dead-pub)`",
                    p.kind, p.name
                ),
            });
        }
    }
}

/// Packages allowed to construct an enabled observability sink.
/// Everything else may *record into* `rim-obs` (spans, counters,
/// histograms are no-ops by default) but must never install a recorder
/// from library code — otherwise merely linking a crate would silently
/// turn instrumentation on for the whole process.
pub const OBS_SINK_INSTALLERS: &[&str] = &["rim-cli", "rim-obs", "rim-xtask"];

/// Per-member audit: library code outside the installer allowlist must
/// not name `rim_obs::install_recorder`, bare or qualified (test modules
/// and `tests/`/`benches/`/`examples/` files are free to — a test that
/// asserts on counters has to enable them).
pub fn audit_obs_noop_default(members: &[Member], out: &mut Vec<Diagnostic>) {
    for member in members {
        if OBS_SINK_INSTALLERS.contains(&member.manifest.package_name.as_str()) {
            continue;
        }
        for (path, tokens, test_ranges) in &member.lib_sources {
            for (idx, t) in tokens.iter().enumerate() {
                if t.kind != Kind::Ident
                    || t.text != "install_recorder"
                    || test_ranges.iter().any(|&(s, e)| idx >= s && idx < e)
                {
                    continue;
                }
                out.push(Diagnostic {
                    rule: "obs-no-op-default",
                    file: path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` constructs an enabled observability sink from library \
                         code; only {:?} may install a recorder — everything else \
                         must stay no-op by default",
                        member.manifest.package_name, OBS_SINK_INSTALLERS
                    ),
                });
            }
        }
    }
}

/// CLI end-to-end tests that must keep existing: a test must keep
/// driving per-stage timing output (`control --obs human`) through the
/// binary, and the `--obs jsonl` acceptance scenario must not quietly
/// disappear either.
pub const RETAINED_CLI_E2E: &[&str] = &[
    "control_timing_reports_stages_on_stderr",
    "analyze_obs_jsonl_emits_spans_and_counters",
];

/// Workspace-level audit: when the `rim-cli` package is present, its
/// test sources must define every function named in
/// [`RETAINED_CLI_E2E`]. Gated on the package so fixture workspaces
/// stay silent.
pub fn audit_retained_cli_e2e(members: &[Member], out: &mut Vec<Diagnostic>) {
    let Some(cli) = members.iter().find(|m| m.manifest.package_name == "rim-cli") else {
        return;
    };
    for name in RETAINED_CLI_E2E {
        let defined = cli.test_sources.iter().any(|(_, tokens, _)| {
            let code: Vec<&Token> = tokens
                .iter()
                .filter(|t| !matches!(t.kind, Kind::Comment | Kind::DocComment))
                .collect();
            code.windows(2)
                .any(|w| w[0].text == "fn" && w[1].kind == Kind::Ident && w[1].text == *name)
        });
        if !defined {
            out.push(Diagnostic {
                rule: "stage-timing-e2e-retained",
                file: cli.manifest_rel.clone(),
                line: 1,
                message: format!(
                    "CLI e2e test `{name}` is gone; the per-stage timing/observability \
                     output must keep an end-to-end test through the `rim` binary"
                ),
            });
        }
    }
}

/// Collects `.rs` files under `dir` (recursively), skipping build
/// output, VCS metadata, and `fixtures` directories (lint-test inputs
/// contain deliberate violations).
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name != "target" && name != ".git" && name != "fixtures" {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Loads a member's manifest and sources, lexing each file once.
pub fn load_member(root: &Path, dir: &Path) -> Result<Member, String> {
    let manifest_path = dir.join("Cargo.toml");
    let text = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let manifest = parse_manifest(&text);
    let rel = |p: &Path| -> String {
        p.strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/")
    };
    let mut lib_sources = Vec::new();
    let mut test_sources = Vec::new();
    for sub in ["src", "tests", "benches", "examples"] {
        let d = dir.join(sub);
        if !d.is_dir() {
            continue;
        }
        for f in rust_files(&d) {
            // The root package's `src`/`tests` globs would otherwise
            // recurse into `crates/`; keep member sources disjoint.
            if sub == "src" && f.strip_prefix(dir).is_ok_and(|r| r.starts_with("crates")) {
                continue;
            }
            let src = fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            let (tokens, ranges) = rules::prepare(&src);
            let entry = (rel(&f), tokens, ranges);
            if sub == "src" {
                lib_sources.push(entry);
            } else {
                test_sources.push(entry);
            }
        }
    }
    Ok(Member {
        dir: dir.to_path_buf(),
        manifest_rel: rel(&manifest_path),
        manifest,
        lib_sources,
        test_sources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parser_reads_deps_and_benches() {
        // Keys of other tables, `[[bench]]` arrays included, never leak
        // into the package name or the dependency lists.
        let m = parse_manifest(
            "[package]\nname = \"demo\"\n\n[dependencies]\nrim-geom.workspace = true\n\
             rand = \"0.8\"\n\n[dev-dependencies]\nrim-rng.workspace = true\n\n\
             [[bench]]\nname = \"fast\"\nharness = false\n",
        );
        assert_eq!(m.package_name, "demo");
        assert_eq!(
            m.deps.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
            ["rim-geom", "rand"]
        );
        assert_eq!(m.dev_deps.len(), 1);
        assert!(m.workspace_deps.is_empty());
    }

    #[test]
    fn crate_ident_normalizes_dashes() {
        assert_eq!(crate_ident("rim-topology-control"), "rim_topology_control");
    }

    fn member_with(manifest: &str, lib_src: &str) -> Member {
        let m = parse_manifest(manifest);
        let (tokens, ranges) = rules::prepare(lib_src);
        Member {
            dir: PathBuf::from("/nonexistent"),
            manifest_rel: "Cargo.toml".to_string(),
            manifest: m,
            lib_sources: vec![("src/lib.rs".to_string(), tokens, ranges)],
            test_sources: Vec::new(),
        }
    }

    fn workspace() -> BTreeSet<String> {
        ["demo", "rim-geom", "rim-rng"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn external_dependency_fires_on_registry_deps() {
        let member = member_with(
            "[package]\nname = \"demo\"\n[dependencies]\nrand = \"0.8\"\n",
            "use rand::Rng;\n",
        );
        let mut out = Vec::new();
        audit_member(&member, &workspace(), &mut out);
        assert!(out.iter().any(|d| d.rule == "external-dependency" && d.message.contains("rand")));
    }

    #[test]
    fn unused_dependency_fires_and_clears() {
        let manifest = "[package]\nname = \"demo\"\n[dependencies]\nrim-geom.workspace = true\n";
        let mut out = Vec::new();
        audit_member(&member_with(manifest, "fn f() {}\n"), &workspace(), &mut out);
        assert!(out.iter().any(|d| d.rule == "unused-dependency"));
        out.clear();
        audit_member(
            &member_with(manifest, "use rim_geom::Point;\n"),
            &workspace(),
            &mut out,
        );
        assert!(!out.iter().any(|d| d.rule == "unused-dependency"));
    }

    fn member_with_sources(lib_src: &str, test_src: Option<&str>) -> Member {
        let (tokens, ranges) = rules::prepare(lib_src);
        let mut m = member_with("[package]\nname = \"demo\"\n", "");
        m.lib_sources = vec![("src/lib.rs".to_string(), tokens, ranges)];
        if let Some(t) = test_src {
            let (tokens, ranges) = rules::prepare(t);
            m.test_sources = vec![("tests/diff.rs".to_string(), tokens, ranges)];
        }
        m
    }

    #[test]
    fn retained_oracle_list_includes_the_witness_predicates() {
        for name in [
            "interference_vector_naive",
            "is_gabriel_edge_naive",
            "is_rng_edge_naive",
            "sinr_interference_naive",
            "coverage_vector_naive",
        ] {
            assert!(RETAINED_ORACLES.contains(&name), "{name} missing");
        }
    }

    fn named_member(package: &str, lib_src: &str, test_src: Option<&str>) -> Member {
        let mut m = member_with(&format!("[package]\nname = \"{package}\"\n"), lib_src);
        if let Some(t) = test_src {
            let (tokens, ranges) = rules::prepare(t);
            m.test_sources = vec![("tests/e2e.rs".to_string(), tokens, ranges)];
        }
        m
    }

    #[test]
    fn obs_audit_fires_on_library_install_and_clears_for_allowlisted() {
        // A library crate installing a recorder from plain lib code.
        let bad = named_member(
            "rim-core",
            "pub fn init() { rim_obs::install_recorder(); }\n",
            None,
        );
        let mut out = Vec::new();
        audit_obs_noop_default(&[bad], &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "obs-no-op-default");
        assert!(out[0].message.contains("rim-core"));

        // A bare call through an import counts too.
        let bad = named_member(
            "rim-sim",
            "pub fn init() { install_recorder(); }\n",
            None,
        );
        out.clear();
        audit_obs_noop_default(&[bad], &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");

        // Allowlisted packages may install.
        for pkg in OBS_SINK_INSTALLERS {
            let ok = named_member(pkg, "pub fn init() { rim_obs::install_recorder(); }\n", None);
            out.clear();
            audit_obs_noop_default(&[ok], &mut out);
            assert!(out.is_empty(), "{pkg}: {out:#?}");
        }
    }

    #[test]
    fn obs_audit_permits_test_scope_installs() {
        // #[cfg(test)] modules inside lib sources are test scope…
        let in_mod = named_member(
            "rim-core",
            "#[cfg(test)]\nmod tests { fn t() { rim_obs::install_recorder(); } }\n",
            None,
        );
        let mut out = Vec::new();
        audit_obs_noop_default(&[in_mod], &mut out);
        assert!(out.is_empty(), "{out:#?}");
        // …and so are integration tests; recording alone is always fine.
        let member = named_member(
            "rim-core",
            "pub fn f() { rim_obs::counter_add(\"x\", 1); }\n",
            Some("fn t() { rim_obs::install_recorder(); }\n"),
        );
        out.clear();
        audit_obs_noop_default(&[member], &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn cli_e2e_audit_is_gated_on_the_cli_package() {
        // No rim-cli member (fixture workspaces): silent.
        let other = named_member("demo", "", None);
        let mut out = Vec::new();
        audit_retained_cli_e2e(&[other], &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn cli_e2e_audit_requires_every_retained_test() {
        // Only one of the two retained tests present: exactly one finding.
        let cli = named_member(
            "rim-cli",
            "",
            Some("#[test]\nfn control_timing_reports_stages_on_stderr() {}\n"),
        );
        let mut out = Vec::new();
        audit_retained_cli_e2e(&[cli], &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "stage-timing-e2e-retained");
        assert!(
            out[0].message.contains("analyze_obs_jsonl_emits_spans_and_counters"),
            "{}",
            out[0].message
        );
        // Both present: silent. A doc-comment mention is not a definition.
        let cli = named_member(
            "rim-cli",
            "",
            Some(
                "#[test]\nfn control_timing_reports_stages_on_stderr() {}\n\
                 #[test]\nfn analyze_obs_jsonl_emits_spans_and_counters() {}\n",
            ),
        );
        out.clear();
        audit_retained_cli_e2e(&[cli], &mut out);
        assert!(out.is_empty(), "{out:#?}");
        let cli = named_member(
            "rim-cli",
            "",
            Some("/// control_timing_reports_stages_on_stderr\n#[test]\nfn other() {}\n"),
        );
        out.clear();
        audit_retained_cli_e2e(&[cli], &mut out);
        assert_eq!(out.len(), 2, "{out:#?}");
    }

    /// Builds the call-graph model over one synthetic member and runs a
    /// graph-driven audit against it, returning the findings.
    fn run_graph_audit(
        lib: &str,
        test_src: Option<&str>,
        run: impl Fn(&Workspace, &BTreeMap<String, rules::Pragmas>, &mut Vec<Diagnostic>),
    ) -> Vec<Diagnostic> {
        let member = member_with_sources(lib, test_src);
        let members = [member];
        let ws = crate::model::build(&members);
        let pragmas: BTreeMap<String, rules::Pragmas> = ws
            .files
            .iter()
            .map(|f| (f.rel.to_string(), rules::Pragmas::parse(f.tokens)))
            .collect();
        let mut out = Vec::new();
        run(&ws, &pragmas, &mut out);
        out
    }

    #[test]
    fn panic_sites_reports_first_of_each_category() {
        let (tokens, _) = rules::prepare(
            "fn f() { panic!(); x.unwrap(); a[0]; y.expect(\"\"); v.len() - 1; todo!(); }\n",
        );
        let sites = panic_sites(&tokens, (0, tokens.len()));
        // Three token categories, each reported once (the `.expect`
        // after the `.unwrap` and the `todo!` after the `panic!` fold
        // into their category slots); indexing is the bounds pass's.
        assert_eq!(sites.len(), 3, "{sites:#?}");
    }

    #[test]
    fn panic_sites_skips_non_index_brackets() {
        // Array patterns and literals are no indexing obligation for
        // the bounds pass either.
        let lib = "// rim-lint: root\npub fn parallel_map(pair: [u32; 2]) -> u32 {\n\
                   let [a, b] = pair;\nfor x in [1, 2] { g(x); }\na + b\n}\n\
                   fn g(x: u32) -> u32 { x }\n";
        let out = run_graph_audit(lib, None, |ws, p, out| {
            audit_panic_freedom(ws, &crate::flow::analyze(ws), p, out)
        });
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn panic_freedom_fires_on_the_reachable_closure_only() {
        // `parallel_map` is a root; `helper` is in its call closure,
        // `unrelated` is not.
        let lib = "// rim-lint: root\npub fn parallel_map(v: Vec<u32>) -> u32 { helper(v) }\n\
                   fn helper(v: Vec<u32>) -> u32 { v[0] }\n\
                   fn unrelated(v: Vec<u32>) -> u32 { v.first().unwrap() + v[1] }\n";
        let out = run_graph_audit(lib, None, |ws, p, out| {
            audit_panic_freedom(ws, &crate::flow::analyze(ws), p, out)
        });
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "panic-freedom");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("parallel_map"), "{}", out[0].message);
        assert!(out[0].message.contains("slice indexing"), "{}", out[0].message);
    }

    #[test]
    fn panic_freedom_accepts_pragmas_at_site_or_fn_line() {
        let on_fn = "// rim-lint: root\npub fn parallel_map(v: Vec<u32>) -> u32 { helper(v) }\n\
                     // rim-lint: allow(panic-freedom) — caller guarantees non-empty\n\
                     fn helper(v: Vec<u32>) -> u32 { let x = v[0];\nv.len() - x as usize }\n";
        let out = run_graph_audit(on_fn, None, |ws, p, out| {
            audit_panic_freedom(ws, &crate::flow::analyze(ws), p, out)
        });
        // One pragma on the `fn` line covers every category in the body.
        assert!(out.is_empty(), "{out:#?}");
        let at_site = "// rim-lint: root\npub fn parallel_map(v: Vec<u32>) -> u32 { helper(v) }\n\
                       fn helper(v: Vec<u32>) -> u32 {\n\
                       v[0] // rim-lint: allow(panic-freedom) — non-empty by contract\n\
                       }\n";
        let out = run_graph_audit(at_site, None, |ws, p, out| {
            audit_panic_freedom(ws, &crate::flow::analyze(ws), p, out)
        });
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn atomic_ordering_requires_a_named_justification() {
        let bare = named_member(
            "rim-par",
            "use std::sync::atomic::{AtomicUsize, Ordering};\n\
             pub fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::Relaxed)\n}\n",
            None,
        );
        let mut out = Vec::new();
        audit_atomic_ordering(&[bare], &BTreeMap::new(), &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "atomic-ordering");
        assert!(out[0].message.contains("Relaxed"), "{}", out[0].message);

        // A nearby comment naming the ordering satisfies the audit…
        let justified = named_member(
            "rim-par",
            "use std::sync::atomic::{AtomicUsize, Ordering};\n\
             pub fn f(a: &AtomicUsize) -> usize {\n\
                 // Relaxed: monotone counter, nothing synchronizes on it\n\
                 a.load(Ordering::Relaxed)\n}\n",
            None,
        );
        out.clear();
        audit_atomic_ordering(&[justified], &BTreeMap::new(), &mut out);
        assert!(out.is_empty(), "{out:#?}");

        // …a comment naming a *different* ordering does not.
        let wrong = named_member(
            "rim-par",
            "use std::sync::atomic::{AtomicUsize, Ordering};\n\
             pub fn f(a: &AtomicUsize) -> usize {\n\
                 // SeqCst would be overkill here\n    a.load(Ordering::Relaxed)\n}\n",
            None,
        );
        out.clear();
        audit_atomic_ordering(&[wrong], &BTreeMap::new(), &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
    }

    #[test]
    fn atomic_ordering_only_audits_the_listed_crates_outside_tests() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\n\
                   pub fn f(a: &AtomicUsize) -> usize {\n    a.load(Ordering::SeqCst)\n}\n";
        let other = named_member("rim-core", src, None);
        let mut out = Vec::new();
        audit_atomic_ordering(&[other], &BTreeMap::new(), &mut out);
        assert!(out.is_empty(), "{out:#?}");
        let in_test = named_member(
            "rim-obs",
            "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicUsize, Ordering};\n\
             fn t(a: &AtomicUsize) -> usize { a.load(Ordering::SeqCst) }\n}\n",
            None,
        );
        out.clear();
        audit_atomic_ordering(&[in_test], &BTreeMap::new(), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn lock_discipline_catches_double_lock_and_guard_across_parallel() {
        let double = "pub fn f(m: &std::sync::Mutex<u32>) {\n\
                      let a = m.lock();\nlet b = m.lock();\n}\n";
        let out = run_graph_audit(double, None, audit_lock_discipline);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "lock-discipline");
        assert!(out[0].message.contains("self-deadlocks"), "{}", out[0].message);

        let across = "pub fn g(m: &std::sync::Mutex<u32>) {\n\
                      let a = m.lock();\npar_map_ranges(1, 1, |r| r);\n}\n";
        let out = run_graph_audit(across, None, audit_lock_discipline);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("par_map_ranges"), "{}", out[0].message);
    }

    #[test]
    fn lock_discipline_clears_on_drop_or_unbound_guards() {
        // `drop(a)` releases the guard before the parallel region…
        let dropped = "pub fn g(m: &std::sync::Mutex<u32>) {\n\
                       let a = m.lock();\ndrop(a);\npar_map_ranges(1, 1, |r| r);\n}\n";
        let out = run_graph_audit(dropped, None, audit_lock_discipline);
        assert!(out.is_empty(), "{out:#?}");
        // …and a temporary (never `let`-bound) guard is not tracked.
        let temp = "pub fn f(m: &std::sync::Mutex<u32>) {\n\
                    *relock(m.lock()) += 1;\n*relock(m.lock()) += 1;\n}\n";
        let out = run_graph_audit(temp, None, audit_lock_discipline);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn lock_discipline_binds_only_whole_initializer_guards() {
        // A projection or a further call leaves a temporary guard, dropped
        // at the `;`, so locking again is fine…
        for init in [
            "relock(slot.lock()).0.take()",
            "slot.lock().unwrap().take()",
            "self.slot.lock().expect(\"poisoned\").len()",
        ] {
            let src = format!(
                "pub fn f(slot: &std::sync::Mutex<(Option<u32>, u32)>) {{\n\
                 let piece = {init};\nrelock(slot.lock()).1 = 2;\n}}\n"
            );
            let out = run_graph_audit(&src, None, audit_lock_discipline);
            assert!(out.is_empty(), "{init}: {out:#?}");
        }
        // …while a guard that is the whole initializer, bare or wrapped,
        // or one behind a borrow that extends it, is still caught.
        for init in [
            "relock(m.lock())",
            "m.lock()",
            "self.m.lock().unwrap()",
            "m.lock().expect(\"poisoned\")",
            "&mut *m.lock().unwrap()",
        ] {
            let src = format!(
                "pub fn f(m: &std::sync::Mutex<u32>) {{\n\
                 let g = {init};\nlet h = m.lock();\n}}\n"
            );
            let out = run_graph_audit(&src, None, audit_lock_discipline);
            assert_eq!(out.len(), 1, "{init}: {out:#?}");
            assert!(out[0].message.contains("self-deadlocks"), "{}", out[0].message);
        }
    }

    #[test]
    fn dead_pub_flags_unreferenced_items_and_respects_pragmas() {
        let lib = "pub fn used() {}\npub fn orphan() {}\n\
                   /// see also documented()\npub fn documented() {}\n\
                   // rim-lint: allow(dead-pub) — staged API for the next PR\n\
                   pub fn staged() {}\n\
                   fn caller() { used(); }\n";
        let out = run_graph_audit(lib, None, |ws, p, out| audit_dead_pub(ws, &[], p, out));
        // A doc-comment mention is no caller: `documented` is flagged too.
        assert_eq!(out.len(), 2, "{out:#?}");
        assert!(out.iter().all(|d| d.rule == "dead-pub"));
        assert!(out[0].message.contains("orphan"), "{}", out[0].message);
        assert!(out[1].message.contains("documented"), "{}", out[1].message);
    }

    /// Names `dead-pub` flags in a one-crate workspace of `lib_files`,
    /// with `bench` as the `benchmark/` sources.
    fn dead_pub_names(lib_files: &[(&str, &str)], bench: &[&str]) -> Vec<String> {
        let mut member = member_with("[package]\nname = \"demo\"\n", "");
        member.lib_sources = lib_files
            .iter()
            .map(|(rel, src)| {
                let (tokens, ranges) = rules::prepare(src);
                (rel.to_string(), tokens, ranges)
            })
            .collect();
        let members = [member];
        let ws = crate::model::build(&members);
        let bench: Vec<Vec<Token>> = bench.iter().map(|src| crate::lexer::lex(src)).collect();
        let mut out = Vec::new();
        audit_dead_pub(&ws, &bench, &BTreeMap::new(), &mut out);
        out.iter()
            .map(|d| d.message.split('`').nth(1).and_then(|item| item.rsplit(' ').next()))
            .map(|name| name.unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn dead_pub_ignores_only_the_defining_files_tests() {
        // Both are called from `src/lib.rs`'s own test module; only
        // `shared` is also called from another file's test module.
        let lib = "pub fn lonely() {}\npub fn shared() {}\n\
                   #[cfg(test)]\nmod tests {\n#[test]\nfn t() { super::lonely(); super::shared(); }\n}\n\
                   #[test]\nfn u() { lonely(); }\n";
        let other = "#[cfg(test)]\nmod tests {\n#[test]\nfn t() { crate::shared(); }\n}\n";
        let flagged = dead_pub_names(&[("src/lib.rs", lib), ("src/other.rs", other)], &[]);
        assert_eq!(flagged, ["lonely"]);
    }

    #[test]
    fn dead_pub_ignores_own_definitions_and_impl_blocks() {
        // `Disk` is named only in its own impl block, `depth` only by its
        // own recursion; `Named` has a caller outside its definition.
        let lib = "pub struct Disk { pub r: f64 }\n\
                   impl Disk {\npub fn grow(self) -> Disk { Disk { r: self.r * 2.0 } }\n}\n\
                   pub fn depth(n: u32) -> u32 { if n == 0 { 0 } else { depth(n - 1) } }\n\
                   pub struct Named;\nfn user() -> Named { Named }\n";
        assert_eq!(dead_pub_names(&[("src/lib.rs", lib)], &[]), ["Disk", "grow", "depth"]);
    }

    #[test]
    fn dead_pub_counts_benchmark_callers() {
        let lib = "pub fn timed() {}\npub fn untimed() {}\n";
        let bench = "fn main() { demo::timed(); }\n";
        assert_eq!(dead_pub_names(&[("src/lib.rs", lib)], &[bench]), ["untimed"]);
        assert_eq!(dead_pub_names(&[("src/lib.rs", lib)], &[]), ["timed", "untimed"]);
    }

    #[test]
    fn dead_pub_counts_test_and_bench_references() {
        let lib = "pub fn only_tested() {}\n";
        let out = run_graph_audit(lib, Some("fn t() { only_tested(); }\n"), |ws, p, out| {
            audit_dead_pub(ws, &[], p, out)
        });
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn graph_oracle_audit_needs_a_real_call_chain() {
        // A name-dropping test file is not enough: no call edge, so the
        // oracle is unreachable.
        let lib = "pub fn interference_vector_naive() {}\n";
        let out = run_graph_audit(
            lib,
            Some("/// interference_vector_naive is great\nfn t() { other(); }\n"),
            |ws, _, out| audit_oracle_retained_graph(ws, out),
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "naive-oracle-retained");

        // A direct test caller clears it…
        let out = run_graph_audit(
            lib,
            Some("fn t() { interference_vector_naive(); }\n"),
            |ws, _, out| audit_oracle_retained_graph(ws, out),
        );
        assert!(out.is_empty(), "{out:#?}");

        // …and so does an indirect chain through a helper.
        let out = run_graph_audit(
            "pub fn interference_vector_naive() {}\n\
             pub fn check() { interference_vector_naive(); }\n",
            Some("fn t() { check(); }\n"),
            |ws, _, out| audit_oracle_retained_graph(ws, out),
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn graph_oracle_audit_counts_cfg_test_modules_but_not_lib_calls() {
        // A call from ordinary library code is not a test caller…
        let lib_only =
            "pub fn interference_vector_naive() {}\npub fn f() { interference_vector_naive(); }\n";
        let out = run_graph_audit(lib_only, None, |ws, _, out| {
            audit_oracle_retained_graph(ws, out)
        });
        assert_eq!(out.len(), 1, "{out:#?}");
        // …but a call from a #[cfg(test)] module is.
        let with_mod = "pub fn interference_vector_naive() {}\n#[cfg(test)]\nmod tests {\n\
                        fn t() { super::interference_vector_naive(); }\n}\n";
        let out = run_graph_audit(with_mod, None, |ws, _, out| {
            audit_oracle_retained_graph(ws, out)
        });
        assert!(out.is_empty(), "{out:#?}");
        // Doc-comment mentions alone never count as callers.
        let doc_only = "/// see interference_vector_naive\npub fn interference_vector_naive() {}\n";
        let out = run_graph_audit(doc_only, None, |ws, _, out| {
            audit_oracle_retained_graph(ws, out)
        });
        assert_eq!(out.len(), 1, "{out:#?}");
    }

    #[test]
    fn graph_oracle_audit_tracks_each_retained_oracle_independently() {
        // Both witness oracles defined; only Gabriel's has a test
        // caller — exactly one finding, naming the RNG oracle.
        let lib = "pub fn is_gabriel_edge_naive() {}\npub fn is_rng_edge_naive() {}\n";
        let out = run_graph_audit(
            lib,
            Some("fn t() { is_gabriel_edge_naive(); }\n"),
            |ws, _, out| audit_oracle_retained_graph(ws, out),
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "naive-oracle-retained");
        assert!(
            out[0].message.contains("is_rng_edge_naive"),
            "{}",
            out[0].message
        );
        assert_eq!(out[0].line, 2);
        // With callers for both, the audit is silent.
        let out = run_graph_audit(
            lib,
            Some("fn t() { is_gabriel_edge_naive(); is_rng_edge_naive(); }\n"),
            |ws, _, out| audit_oracle_retained_graph(ws, out),
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn graph_oracle_audit_is_silent_without_definitions() {
        let out = run_graph_audit("pub fn other() {}\n", None, |ws, _, out| {
            audit_oracle_retained_graph(ws, out)
        });
        assert!(out.is_empty(), "{out:#?}");
    }
}
