//! CLI entry point.
//!
//! ```text
//! cargo run -p rim-xtask -- lint [--format human|jsonl] [--root PATH]
//!                                [--rule NAME] [--explain RULE] [--profile]
//! ```
//!
//! `lint` exit codes: `0` clean, `1` diagnostics found, `2` usage or
//! I/O error; `--profile` installs the `rim-obs` recorder and prints
//! per-rule wall-clock after the findings.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p rim-xtask -- <command>\n\
  lint [--format human|jsonl] [--root PATH] [--rule NAME] [--explain RULE] [--profile]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = "human".to_string();
    let mut root: Option<PathBuf> = None;
    let mut rule_filter: Option<String> = None;
    let mut explain: Option<String> = None;
    let mut command: Option<String> = None;
    let mut profile = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(f) if f == "human" || f == "jsonl" => format = f,
                _ => return usage_error("--format takes `human` or `jsonl`"),
            },
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_error("--root takes a path"),
            },
            "--rule" => match it.next() {
                Some(r) => rule_filter = Some(r),
                None => return usage_error("--rule takes a rule name"),
            },
            "--explain" => match it.next() {
                Some(r) => explain = Some(r),
                None => return usage_error("--explain takes a rule name"),
            },
            "--profile" => profile = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            c if command.is_none() && !c.starts_with('-') => command = Some(c.to_string()),
            _ => return usage_error(&format!("unrecognized argument `{arg}`")),
        }
    }

    // Rule-name arguments are validated against the registry up front,
    // so a typo'd filter errors out instead of silently matching nothing.
    for name in rule_filter.iter().chain(&explain) {
        if !rim_xtask::rules::rule_known(name) {
            return usage_error(&format!(
                "unknown rule `{name}`; registered rules:\n  {}",
                rim_xtask::rules::RULE_CATALOG
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join("\n  ")
            ));
        }
    }
    if let Some(name) = explain {
        // Validated above, so the lookup cannot miss.
        let text = rim_xtask::rules::rule_explanation(&name).unwrap_or("");
        println!("{name}: {text}");
        return ExitCode::SUCCESS;
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match rim_xtask::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    match command.as_deref() {
        Some("lint") => run_lint_command(&root, &format, rule_filter.as_deref(), profile),
        Some(c) => usage_error(&format!("unknown command `{c}`")),
        None => usage_error("missing command"),
    }
}

fn run_lint_command(
    root: &std::path::Path,
    format: &str,
    rule: Option<&str>,
    profile: bool,
) -> ExitCode {
    let recorder = profile.then(rim_obs::install_recorder);
    let diagnostics = match rim_xtask::run_lint(root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let diagnostics: Vec<_> = diagnostics
        .into_iter()
        .filter(|d| rule.is_none_or(|r| d.rule == r))
        .collect();

    for d in &diagnostics {
        if format == "jsonl" {
            println!("{}", d.jsonl());
        } else {
            println!("{}", d.human());
        }
    }
    if let Some(rec) = recorder {
        print_profile(&rec.snapshot());
    }
    if diagnostics.is_empty() {
        eprintln!("rim-xtask lint: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        eprintln!("rim-xtask lint: {} diagnostic(s)", diagnostics.len());
        ExitCode::FAILURE
    }
}

/// Aggregates span wall-clock per name from a profiling snapshot and
/// prints one line per span, widest first. Nested spans (the per-rule
/// `lint.rule.*` spans inside `lint`) each report their own wall time,
/// so the lines do not sum to the total.
fn print_profile(snap: &rim_obs::Snapshot) {
    let mut per_name: std::collections::BTreeMap<&str, (u64, u64)> = std::collections::BTreeMap::new();
    for span in &snap.spans {
        let entry = per_name.entry(span.name.as_str()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += span.wall_ns.unwrap_or(0);
    }
    let mut rows: Vec<_> = per_name.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
    eprintln!("rim-xtask lint --profile: per-rule wall-clock");
    for (name, (count, total_ns)) in rows {
        eprintln!("  {:<40} {:>9.3} ms  ({count} span(s))", name, total_ns as f64 / 1e6);
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}
