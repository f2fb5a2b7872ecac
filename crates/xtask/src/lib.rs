//! `rim-xtask`: zero-dependency syntax-aware static analysis for the
//! workspace.
//!
//! Run as `cargo run -p rim-xtask -- lint` (diagnostics; `--rule` /
//! `--explain` filter and document rules, `--profile` reports
//! per-rule wall-clock via `rim-obs` spans). Each check has one
//! implementation, and checks rustc already makes (documentation of
//! the model crates' public items via `#![deny(missing_docs)]`, paths to
//! undeclared crates) are left to rustc. Six layers:
//!
//! * **Token rules** ([`rules`]) over a comment/string-aware token
//!   stream ([`lexer`]): `float-eq`, `no-unwrap-in-lib`,
//!   `forbid-unsafe`, and `unknown-pragma-rule` (every pragma must name
//!   a rule registered in [`rules::RULE_CATALOG`], and every
//!   `// rim-lint: root` mark must sit above a non-test `fn`).
//!   Intentional violations are silenced in place with
//!   `// rim-lint: allow(<rule>)` (same + next line) or
//!   `// rim-lint: allow-file(<rule>)` (whole file).
//! * **Item trees** ([`parse`]): a brace-matched parser recovering
//!   module/impl/trait nesting and `fn` items with opaque token-range
//!   bodies; self-tested against every `.rs` file in the repository
//!   and fuzzed with `rim_rng::prop`.
//! * **Expression trees** ([`expr`]): a Pratt parser turning each fn
//!   body's token range into statement/expression trees, with error
//!   recovery that the self-test requires to never trigger on the
//!   workspace itself.
//! * **Dataflow passes** ([`flow`]): units-of-measure inference
//!   powering `squared-distance-mismatch` and `power-domain-mismatch`,
//!   the `engine-determinism` rule (no atomic read-modify-write, RNG
//!   draw, wall-clock read, or sink installation reachable from a
//!   root), and a const-bounds pass whose in-range proofs discharge
//!   `panic-freedom` slice-indexing obligations.
//! * **Workspace call graph** ([`model`]), built in process on every
//!   run: heuristic name resolution restricted to each caller crate's
//!   dependency closure. The hot-path kernels are marked where they are
//!   defined, with `// rim-lint: root` above the `fn` (reading past its
//!   doc comments, attributes and `allow(...)` lines); the model computes
//!   the call closure of the marked fns once
//!   ([`model::Workspace::root_of`]), and `engine-determinism` and
//!   `panic-freedom` both audit it. The graph feeds the rules
//!   `panic-freedom` (no panicking construct reachable from a root),
//!   `atomic-ordering` (every `Relaxed`/`SeqCst` in rim-par/rim-obs is
//!   justified),
//!   `lock-discipline` (no `MutexGuard` held across the parallel
//!   executor, no double-lock), `dead-pub` (no `pub` item without a
//!   caller), and `naive-oracle-retained` (each brute-force oracle must
//!   be *reachable from a test* — see
//!   [`audit::audit_oracle_retained_graph`]).
//! * **Workspace audits** ([`audit`]): declared-but-unused dependencies
//!   per crate, an (empty) external dependency allowlist keeping the
//!   build hermetic, the `obs-no-op-default` audit (only the CLI may
//!   install an observability recorder; library crates record into a
//!   no-op sink — see [`audit::audit_obs_noop_default`]), and the
//!   `stage-timing-e2e-retained` audit (the CLI keeps end-to-end tests
//!   for per-stage timing/`--obs` output — see
//!   [`audit::audit_retained_cli_e2e`]).
//!
//! The workspace gates itself on a clean run: an integration test
//! asserts `run_lint(workspace_root)` returns zero diagnostics, so
//! `cargo test -q` fails if any rule fires without a pragma.

#![forbid(unsafe_code)]

pub mod audit;
pub mod expr;
pub mod flow;
pub mod model;
pub mod parse;
pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One lint or audit finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (`float-eq`, `unused-dependency`, …).
    pub rule: &'static str,
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// `file:line: [rule] message` — the human-readable form.
    pub fn human(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }

    /// One JSON object per line, stable key order.
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(self.rule),
            json_escape(&self.file),
            self.line,
            json_escape(&self.message)
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Walks upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Is this source file a crate/binary root that must carry
/// `#![forbid(unsafe_code)]`?
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") || rel.contains("src/bin/")
}

/// Is this file library code for the `no-unwrap-in-lib` rule? Binary
/// entry points and `src/bin/` targets may use terse error handling.
fn is_lib_code(rel: &str) -> bool {
    !rel.ends_with("main.rs") && !rel.contains("src/bin/")
}

/// Discovers and loads every workspace member: the root package plus
/// `crates/*`, sorted.
pub fn load_workspace(root: &Path) -> Result<Vec<audit::Member>, String> {
    let mut member_dirs = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
        let mut dirs: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        member_dirs.extend(dirs);
    }
    let mut members = Vec::new();
    for dir in &member_dirs {
        members.push(audit::load_member(root, dir)?);
    }
    Ok(members)
}

/// Lints and audits the workspace rooted at `root`, returning all
/// findings sorted by `(file, line, rule)`. `Err` is reserved for
/// infrastructure failures (unreadable files), not findings.
pub fn run_lint(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let members = load_workspace(root)?;
    let workspace_crates: BTreeSet<String> = members
        .iter()
        .map(|m| m.manifest.package_name.clone())
        .filter(|n| !n.is_empty())
        .collect();

    let mut out = Vec::new();
    for member in &members {
        let has_lib = member.dir.join("src/lib.rs").is_file();
        for (is_lib_source, sources) in
            [(true, &member.lib_sources), (false, &member.test_sources)]
        {
            for (rel, tokens, ranges) in sources {
                let _span = rim_obs::span("lint.token_rules");
                let pragmas = rules::Pragmas::parse(tokens);
                let ctx = rules::FileCtx {
                    path: rel,
                    tokens,
                    pragmas: &pragmas,
                    test_mod_ranges: ranges,
                };
                rules::float_eq(&ctx, &mut out);
                rules::unknown_pragma_rule(&ctx, &mut out);
                if is_lib_source && has_lib && is_lib_code(rel) {
                    rules::no_unwrap_in_lib(&ctx, &mut out);
                }
                if is_lib_source && is_crate_root(rel) {
                    rules::forbid_unsafe(&ctx, &mut out);
                }
            }
        }
        let _span = rim_obs::span("lint.member_audits");
        audit::audit_member(member, &workspace_crates, &mut out);
    }

    // Call-graph-driven audits: build the syntactic workspace model once
    // and run the reachability rules over it.
    let ws = {
        let _span = rim_obs::span("lint.model_build");
        model::build(&members)
    };
    rules::unattached_root_marks(&ws, &mut out);
    let pragma_map: std::collections::BTreeMap<String, rules::Pragmas> = ws
        .files
        .iter()
        .map(|f| (f.rel.to_string(), rules::Pragmas::parse(f.tokens)))
        .collect();
    // Expression-level dataflow: parse every body once, infer unit
    // signatures, then run the passes that share the parsed trees.
    let df = {
        let _span = rim_obs::span("lint.flow_analyze");
        flow::analyze(&ws)
    };
    {
        let _span = rim_obs::span("lint.rule.panic_freedom");
        audit::audit_panic_freedom(&ws, &df, &pragma_map, &mut out);
    }
    {
        let _span = rim_obs::span("lint.rule.squared_distance_dataflow");
        flow::check_unit_mismatch(&ws, &df, &pragma_map, &mut out);
    }
    {
        let _span = rim_obs::span("lint.rule.engine_determinism");
        flow::audit_engine_determinism(&ws, &df, &pragma_map, &mut out);
    }
    {
        let _span = rim_obs::span("lint.rule.atomic_ordering");
        audit::audit_atomic_ordering(&members, &pragma_map, &mut out);
    }
    {
        let _span = rim_obs::span("lint.rule.lock_discipline");
        audit::audit_lock_discipline(&ws, &pragma_map, &mut out);
    }
    {
        let _span = rim_obs::span("lint.rule.dead_pub");
        let bench = audit::load_bench_callers(root)?;
        audit::audit_dead_pub(&ws, &bench, &pragma_map, &mut out);
    }
    {
        let _span = rim_obs::span("lint.rule.retention_audits");
        audit::audit_oracle_retained_graph(&ws, &mut out);
        audit::audit_obs_noop_default(&members, &mut out);
        audit::audit_retained_cli_e2e(&members, &mut out);
    }
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_formats() {
        let d = Diagnostic {
            rule: "float-eq",
            file: "crates/core/src/receiver.rs".to_string(),
            line: 7,
            message: "say \"no\" to == on f64".to_string(),
        };
        assert_eq!(
            d.human(),
            "crates/core/src/receiver.rs:7: [float-eq] say \"no\" to == on f64"
        );
        assert_eq!(
            d.jsonl(),
            "{\"rule\":\"float-eq\",\"file\":\"crates/core/src/receiver.rs\",\
             \"line\":7,\"message\":\"say \\\"no\\\" to == on f64\"}"
        );
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\\b\"c\nd\u{1}"), "a\\\\b\\\"c\\nd\\u0001");
    }

    #[test]
    fn crate_root_and_lib_code_classification() {
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(is_crate_root("crates/cli/src/main.rs"));
        assert!(is_crate_root("crates/bench/src/bin/figures.rs"));
        assert!(!is_crate_root("crates/core/src/receiver.rs"));
        assert!(is_lib_code("crates/core/src/receiver.rs"));
        assert!(!is_lib_code("crates/cli/src/main.rs"));
        assert!(!is_lib_code("crates/bench/src/bin/figures.rs"));
    }
}
