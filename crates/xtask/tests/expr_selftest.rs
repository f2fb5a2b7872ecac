//! Self-test and fuzz coverage for the expression parser: every `fn`
//! body in the repository must parse with **zero** error nodes and
//! zero skipped bodies, random token soup must never panic, and
//! well-formed expressions must round-trip pretty-print → reparse
//! with identical shape (precedence preserved).

use rim_rng::{prop, prop_ensure, prop_ensure_eq, SmallRng};
use rim_xtask::expr::{self, Expr, ExprKind};
use rim_xtask::lexer;
use rim_xtask::parse::{self, ItemKind};
use std::path::{Path, PathBuf};

/// Every `.rs` file under the repository root, skipping build output
/// and VCS internals — fixture workspaces included: the parser must
/// handle everything we keep in tree.
fn rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" && name != "results" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn workspace_root() -> PathBuf {
    rim_xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the crate dir")
}

#[test]
fn every_workspace_fn_body_parses_with_zero_errors() {
    let files = rs_files(&workspace_root());
    assert!(files.len() > 40, "suspiciously few source files: {}", files.len());
    let (mut bodies, mut opaque) = (0usize, 0usize);
    for path in &files {
        let src = std::fs::read_to_string(path).expect("source file readable");
        let tokens = lexer::lex(&src);
        let tree = parse::parse_items(&tokens);
        let mut fns = Vec::new();
        tree.walk(&mut |item, _| {
            if item.kind == ItemKind::Fn && item.body.1 > item.body.0 {
                fns.push(item.body);
            }
        });
        for body_range in fns {
            let body = expr::parse_fn_body(&tokens, body_range);
            assert_eq!(
                body.errors,
                0,
                "expression parse errors in {} body at tokens {:?}:\n{:#?}",
                path.display(),
                body_range,
                body.block
            );
            bodies += 1;
            opaque += body.opaque_macros;
        }
    }
    // Zero skipped bodies: every parsed `fn` body is accounted for.
    assert!(bodies > 400, "only {bodies} fn bodies parsed; item parser degenerated?");
    // Opaque macro fallbacks must stay the rare exception, not the rule.
    assert!(
        opaque * 50 < bodies,
        "{opaque} opaque macro invocations over {bodies} bodies — the \
         best-effort macro argument parser regressed"
    );
}

#[test]
fn match_guard_ending_in_a_cast_parses() {
    // Regression: the cast's type skipper used to run through `=>` and
    // swallow the arm body.
    let body = expr::parse_source_body(
        "match &printed { Ok(p) if *p == max && total == size.n as u64 => Ok(()), \
         Ok(p) => Err(p), Err(e) => Err(e.clone()), }",
    );
    assert_eq!(body.errors, 0, "{:#?}", body.block);
    let Some(tail) = &body.block.tail else { panic!("no tail expression") };
    let ExprKind::Match(_, arms) = &tail.kind else { panic!("not a match: {tail:#?}") };
    assert_eq!(arms.len(), 3);
    let guard = arms[0].guard.as_ref().expect("first arm keeps its guard");
    assert_eq!(guard.sexpr(), "(&& (== (* p:p) p:max) (== p:total (as (field p:size n))))");
    // Compound assignment and bit-or after a cast end the type too.
    for src in ["x += y as u64;", "let z = a as u8 | b;", "let z = a as u8 ^ b;"] {
        assert_eq!(expr::parse_source_body(src).errors, 0, "{src}");
    }
}

#[test]
fn inline_const_blocks_parse_like_unsafe_blocks() {
    // An inline `const { … }` block is a block expression, as `unsafe {
    // … }` is, not a struct literal named `const`.
    for src in [
        "const { assert!(N >= rim_par::AUTO_PARALLEL_MIN) };",
        "let n = const { 1 << 4 } + 1;",
        "f(const { N * 2 }); const { assert!(N > 0) }",
    ] {
        let body = expr::parse_source_body(src);
        assert_eq!(body.errors, 0, "{src}: {:#?}", body.block);
    }
    let body = expr::parse_source_body("let n = const { 1 << 4 } + 1;");
    let unsafe_body = expr::parse_source_body("let n = unsafe { 1 << 4 } + 1;");
    assert_eq!(format!("{:?}", body.block), format!("{:?}", unsafe_body.block));
}

/// Vocabulary for token-soup fuzzing: everything the grammar reacts
/// to, plus some it must survive.
const SOUP: &[&str] = &[
    "let", "if", "else", "while", "for", "in", "match", "loop", "return", "break", "continue",
    "move", "fn", "struct", "impl", "const", "unsafe", "mut", "x", "y", "dist", "len", "Some",
    "0", "1", "2.5", "\"s\"", "'a", "(", ")", "[", "]", "{", "}", "+", "-", "*", "/", "%", "=",
    "==", "!=", "<", ">", "<=", ">=", "&&", "||", "&", "|", "^", "!", "?", ".", "..", "..=",
    "::", ",", ";", ":", "->", "=>", "#", "@", "$", "~", "<<", ">>", "+=", "vec",
];

#[test]
fn random_token_soup_never_panics() {
    prop::check(
        "expr-token-soup",
        300,
        |rng: &mut SmallRng| {
            let n = rng.gen_range(0..120usize);
            (0..n).map(|_| SOUP[rng.gen_range(0..SOUP.len())]).collect::<Vec<_>>().join(" ")
        },
        |src| {
            let tokens = lexer::lex(src);
            let body = expr::parse_fn_body(&tokens, (0, tokens.len()));
            // Termination + bounded damage: recovery can't emit more
            // errors than there are tokens.
            prop_ensure!(
                body.errors <= tokens.len() + 1,
                "{} errors from {} tokens",
                body.errors,
                tokens.len()
            );
            Ok(())
        },
    );
}

/// Random well-formed expression ASTs for the round-trip property.
fn gen_expr(rng: &mut SmallRng, depth: usize) -> Expr {
    let e = |kind| Expr { line: 1, kind };
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..4u32) {
            0 => e(ExprKind::Int(rng.gen_range(0..100u32).to_string())),
            1 => e(ExprKind::Path(vec!["x".into()])),
            2 => e(ExprKind::Path(vec!["dist".into()])),
            _ => e(ExprKind::Path(vec!["n".into()])),
        };
    }
    let child = |rng: &mut SmallRng| Box::new(gen_expr(rng, depth - 1));
    match rng.gen_range(0..8u32) {
        0 => {
            let ops = ["+", "-", "*", "/", "==", "<", "<=", "&&", "||", "&", "^", "<<"];
            let op = ops[rng.gen_range(0..ops.len())].to_string();
            e(ExprKind::Binary(op, child(rng), child(rng)))
        }
        1 => {
            let ops = ["-", "!", "*", "&"];
            let op = ops[rng.gen_range(0..ops.len())].to_string();
            e(ExprKind::Unary(op, child(rng)))
        }
        2 => {
            let argc = rng.gen_range(0..3usize);
            let args = (0..argc).map(|_| gen_expr(rng, depth - 1)).collect();
            e(ExprKind::Call(Box::new(e(ExprKind::Path(vec!["f".into()]))), args))
        }
        3 => {
            let argc = rng.gen_range(0..2usize);
            let args = (0..argc).map(|_| gen_expr(rng, depth - 1)).collect();
            e(ExprKind::MethodCall(child(rng), "m".into(), args))
        }
        4 => e(ExprKind::Index(child(rng), child(rng))),
        5 => e(ExprKind::Field(child(rng), "w".into())),
        6 => e(ExprKind::Try(child(rng))),
        _ => e(ExprKind::Assign("=".into(), Box::new(e(ExprKind::Path(vec!["x".into()]))), child(rng))),
    }
}

#[test]
fn pretty_printed_expressions_reparse_with_identical_shape() {
    prop::check(
        "expr-pretty-round-trip",
        400,
        |rng: &mut SmallRng| {
            let depth = rng.gen_range(1..5usize);
            gen_expr(rng, depth)
        },
        |ast| {
            let printed = ast.pretty();
            let body = expr::parse_source_body(&printed);
            prop_ensure!(body.errors == 0, "parse errors reparsing {printed:?}");
            let reparsed = match (&body.block.tail, body.block.stmts.first()) {
                (Some(t), _) => (**t).clone(),
                (None, Some(rim_xtask::expr::Stmt::Expr(e, _))) => e.clone(),
                _ => return Err(format!("no expression found reparsing {printed:?}")),
            };
            prop_ensure_eq!(format!("{} via {printed:?}", ast.sexpr()), format!("{} via {printed:?}", reparsed.sexpr()));
            Ok(())
        },
    );
}
