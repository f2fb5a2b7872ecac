//! Expression-level dataflow over the [`crate::expr`] trees: a
//! units-of-measure lattice, a purity/determinism analysis, and
//! const-bounds propagation for panic-freedom discharge.
//!
//! Three analyses share the parsed bodies collected by [`analyze`]:
//!
//! 1. **Units of measure** ([`Unit`], [`ident_unit`]). Metric
//!    quantities carry a *power*: `Distance`/`Radius` live at power 1,
//!    `DistanceSq`/`RadiusSq` at power 2. Multiplying two power-1
//!    quantities squares (`r * r`), `sqrt()` unsquares, `powi(2)`
//!    squares, and per-function return units are inferred
//!    interprocedurally over the PR-6 call graph (a small fixpoint:
//!    `fn dist_sq` seeds from its name, a caller binding its result
//!    picks up `DistanceSq` regardless of what the binding is called).
//!    The dataflow `squared-distance-mismatch`
//!    ([`check_unit_mismatch`]) flags any comparison or add/sub whose
//!    sides live at different powers.
//! 2. **Determinism** ([`audit_engine_determinism`]). Functions pinned
//!    by the differential/thread-invariance test layers
//!    ([`DETERMINISM_ROOTS`]) must not reach atomic read-modify-write
//!    ops, RNG draws, wall-clock reads, or observability-sink
//!    installation without a justified
//!    `// rim-lint: allow(engine-determinism)` pragma.
//! 3. **Const bounds** ([`audit_indexing`]). Facts like "`buf` has
//!    length `n`" (from `vec![0.0; n]`) and "`i < v.len()`" (from
//!    `for i in 0..v.len()`, `enumerate`, `assert!`, diverging guards,
//!    `min(len - 1)`) discharge slice-indexing obligations, so
//!    `panic-freedom` only reports indexing it cannot prove in bounds.
//!
//! **Soundness caveats** (deliberate, documented in DESIGN.md §10):
//! name resolution is the PR-6 heuristic resolver (any same-named fn
//! in the dependency closure may be the callee), patterns and types
//! are opaque, and aliasing through `&mut` is approximated by killing
//! facts whenever a binding is reassigned, hit by a length-changing
//! method, or passed by `&mut`. The passes are linters, not
//! verifiers: they never panic and prefer `Unknown`/"unproven" over
//! guessing.

use crate::expr::{self, Arm, Block, Body, Expr, ExprKind, Stmt};
use crate::lexer::{Kind, Token};
use crate::model::Workspace;
use crate::rules::Pragmas;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// Units of measure
// ---------------------------------------------------------------------

/// The units-of-measure lattice. `Unknown` is the conservative top:
/// joins of conflicting units land there, and no rule ever fires on
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A Euclidean distance (power 1).
    Distance,
    /// A squared distance (power 2).
    DistanceSq,
    /// A transmission radius (power 1).
    Radius,
    /// A squared radius (power 2).
    RadiusSq,
    /// A cardinality (`len()`, counts).
    Count,
    /// A container index.
    Index,
    /// Wall-clock seconds / durations.
    Seconds,
    /// A linear power in milliwatts (`_mw` convention, `rim-phys`).
    PowerMw,
    /// A logarithmic power level or gain in dBm/dB (`_dbm`/`_db`).
    PowerDbm,
    /// No information (top).
    Unknown,
}

impl Unit {
    /// Metric power: 1 for plain distances/radii, 2 for their squares,
    /// `None` for non-metric units.
    pub fn power(self) -> Option<u8> {
        match self {
            Unit::Distance | Unit::Radius => Some(1),
            Unit::DistanceSq | Unit::RadiusSq => Some(2),
            _ => None,
        }
    }

    /// The unit of `x * x` for a power-1 `x`; `Unknown` squares to the
    /// generic `DistanceSq` (callers only apply this on actual
    /// squaring evidence — `powi(2)` or a self-multiplication).
    pub fn squared(self) -> Unit {
        match self {
            Unit::Distance => Unit::DistanceSq,
            Unit::Radius => Unit::RadiusSq,
            Unit::Unknown => Unit::DistanceSq,
            _ => Unit::Unknown,
        }
    }

    /// The unit of `x.sqrt()` for a power-2 `x`.
    pub fn unsquared(self) -> Unit {
        match self {
            Unit::DistanceSq => Unit::Distance,
            Unit::RadiusSq => Unit::Radius,
            _ => Unit::Unknown,
        }
    }

    /// Lattice join: equal units survive; distances and radii merge at
    /// equal power (both are lengths); anything else is `Unknown`.
    pub fn join(self, other: Unit) -> Unit {
        if self == other {
            return self;
        }
        match (self.power(), other.power()) {
            (Some(1), Some(1)) => Unit::Distance,
            (Some(2), Some(2)) => Unit::DistanceSq,
            _ => Unit::Unknown,
        }
    }
}

/// Classifies an identifier (binding, field, parameter, or function
/// name) into the unit lattice. This is the **single** naming
/// convention table, so `norm2`/`r2`-style names are classified once.
pub fn ident_unit(name: &str) -> Unit {
    let lower = name.to_ascii_lowercase();
    let base = lower
        .strip_suffix("_squared")
        .or_else(|| lower.strip_suffix("_sq"))
        .or_else(|| lower.strip_suffix("sq"))
        .or_else(|| lower.strip_suffix('2'));
    if let Some(base) = base {
        let base = base.trim_end_matches('_');
        if is_distance_base(base) {
            return Unit::DistanceSq;
        }
        if is_radius_base(base) {
            return Unit::RadiusSq;
        }
    }
    let base = lower.as_str();
    if is_distance_base(base) {
        return Unit::Distance;
    }
    if is_radius_base(base) {
        return Unit::Radius;
    }
    if base == "len" || base == "count" || base == "cnt" || base.starts_with("num_") {
        return Unit::Count;
    }
    if base == "idx" || base == "index" || base.ends_with("_idx") || base.ends_with("_index") {
        return Unit::Index;
    }
    if base == "secs"
        || base == "seconds"
        || base == "elapsed"
        || base == "duration"
        || base.ends_with("_secs")
    {
        return Unit::Seconds;
    }
    // Power domains (rim-phys): suffix-keyed only — a bare `power` stays
    // Unknown so generic names (and this very method) are not captured.
    if base == "mw" || base.ends_with("_mw") {
        return Unit::PowerMw;
    }
    if base == "dbm" || base.ends_with("_dbm") || base == "db" || base.ends_with("_db") {
        return Unit::PowerDbm;
    }
    Unit::Unknown
}

/// Distance-flavoured identifier bases: `dist`, `distance`, `norm`,
/// `d`, plus compounds (`min_dist`, `dists`).
fn is_distance_base(base: &str) -> bool {
    base == "d" || base == "norm" || base.contains("dist") || base.starts_with("norm")
}

/// Radius-flavoured identifier bases: `r`, `radius`, `radii`, plus the
/// physical model's derived radii `rho` (coverage) and `cutoff`
/// (noise-floor range). `rho` is matched as a word, not a substring, so
/// names like `threshold` stay unclassified.
fn is_radius_base(base: &str) -> bool {
    base == "r"
        || base.contains("radius")
        || base.contains("radii")
        || base == "rho"
        || base.starts_with("rho_")
        || base.ends_with("_rho")
        || base.contains("cutoff")
}

// ---------------------------------------------------------------------
// Workspace analysis: parsed bodies + inferred signatures
// ---------------------------------------------------------------------

/// The shared dataflow context: one parsed body and inferred unit
/// signature per [`Workspace::fns`] entry.
pub struct Flow {
    /// Parsed body per fn (`None` for bodiless declarations).
    pub bodies: Vec<Option<Body>>,
    /// Inferred return unit per fn.
    pub ret_units: Vec<Unit>,
    /// Parameter `(name, unit)` pairs per fn, from the signature
    /// tokens.
    pub param_units: Vec<Vec<(String, Unit)>>,
}

/// Parses every fn body and runs the interprocedural unit-signature
/// fixpoint (name-seeded, capped at 6 rounds).
pub fn analyze(ws: &Workspace) -> Flow {
    let mut bodies = Vec::with_capacity(ws.fns.len());
    let mut param_units = Vec::with_capacity(ws.fns.len());
    for f in &ws.fns {
        let tokens = ws.files[f.file_idx].tokens;
        if f.body.1 > f.body.0 {
            bodies.push(Some(expr::parse_fn_body(tokens, f.body)));
        } else {
            bodies.push(None);
        }
        param_units.push(signature_params(tokens, f.sig, &f.name));
    }
    // Seed return units from the function's own name (`fn dist_sq`
    // returns a squared distance until the body proves otherwise).
    let mut ret_units: Vec<Unit> = ws.fns.iter().map(|f| ident_unit(&f.name)).collect();
    for _round in 0..6 {
        let mut changed = false;
        for (i, body) in bodies.iter().enumerate() {
            let Some(body) = body else { continue };
            let mut env: BTreeMap<String, Unit> = param_units[i]
                .iter()
                .filter(|(_, u)| *u != Unit::Unknown)
                .cloned()
                .collect();
            let ctx = UnitCtx { ws, ret_units: &ret_units };
            let mut ret = ret_unit_of_body(&body.block, &mut env, &ctx);
            if ret == Unit::Unknown {
                ret = ident_unit(&ws.fns[i].name);
            }
            if ret != ret_units[i] {
                ret_units[i] = ret;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Flow { bodies, ret_units, param_units }
}

/// Extracts `(name, unit)` parameter pairs from a fn signature token
/// range: idents directly followed by `:` at parenthesis depth 1,
/// generics skipped.
fn signature_params(tokens: &[Token], (s0, s1): (usize, usize), fn_name: &str) -> Vec<(String, Unit)> {
    let code: Vec<&Token> = tokens[s0.min(tokens.len())..s1.min(tokens.len())]
        .iter()
        .filter(|t| !matches!(t.kind, Kind::Comment | Kind::DocComment))
        .collect();
    // Find `fn <name>`, skip its generics, stop at the opening `(`.
    let mut i = 0usize;
    while i + 1 < code.len() {
        if code[i].text == "fn" && code[i + 1].text == fn_name {
            break;
        }
        i += 1;
    }
    let mut j = i + 2;
    let mut angle = 0isize;
    while j < code.len() {
        match code[j].text.as_str() {
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "(" if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    let mut out = Vec::new();
    let mut depth = 0usize;
    while j < code.len() {
        match code[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ":" if depth == 1 => {
                if j > 0 && code[j - 1].kind == Kind::Ident {
                    let name = code[j - 1].text.clone();
                    out.push((name.clone(), ident_unit(&name)));
                }
            }
            _ => {}
        }
        j += 1;
    }
    out
}

/// Interprocedural lookup context for [`unit_of`].
struct UnitCtx<'w, 'a> {
    ws: &'w Workspace<'a>,
    ret_units: &'w [Unit],
}

impl UnitCtx<'_, '_> {
    /// Joined return unit of every workspace definition named `name`
    /// (`methods_only` restricts to impl-qualified fns).
    fn callee_unit(&self, name: &str, methods_only: bool) -> Unit {
        let mut joined: Option<Unit> = None;
        for &i in self.ws.defs_named(name) {
            if methods_only && self.ws.fns[i].qual.is_none() {
                continue;
            }
            let u = self.ret_units[i];
            joined = Some(match joined {
                None => u,
                Some(j) => j.join(u),
            });
        }
        match joined {
            Some(u) if u != Unit::Unknown => u,
            _ => ident_unit(name),
        }
    }
}

/// Evaluates a body: folds its statements into `env` and joins the
/// units of all `return` expressions with the tail expression.
fn ret_unit_of_body(
    block: &Block,
    env: &mut BTreeMap<String, Unit>,
    ctx: &UnitCtx,
) -> Unit {
    let mut ret = Unit::Unknown;
    let mut seen_return = false;
    walk_units_block(block, env, ctx, &mut |e, env| {
        if let ExprKind::Return(Some(inner)) = &e.kind {
            let u = unit_of(inner, env, ctx);
            ret = if seen_return { ret.join(u) } else { u };
            seen_return = true;
        }
    });
    let tail = block.tail.as_ref().map(|t| unit_of(t, env, ctx)).unwrap_or(Unit::Unknown);
    match (seen_return, tail) {
        (false, t) => t,
        (true, Unit::Unknown) => ret,
        (true, t) => ret.join(t),
    }
}

/// Walks a block in statement order, maintaining the unit environment
/// and invoking `f` on every expression with the env as of that
/// point. Nested scopes inherit a clone of the environment.
fn walk_units_block(
    block: &Block,
    env: &mut BTreeMap<String, Unit>,
    ctx: &UnitCtx,
    f: &mut impl FnMut(&Expr, &BTreeMap<String, Unit>),
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { name, pat_idents, init, els, .. } => {
                if let Some(init) = init {
                    walk_units_expr(init, env, ctx, f);
                }
                if let Some(els) = els {
                    let mut inner = env.clone();
                    walk_units_block(els, &mut inner, ctx, f);
                }
                if let (Some(n), Some(init)) = (name, init.as_ref()) {
                    let u = unit_of(init, env, ctx);
                    let u = if u == Unit::Unknown { ident_unit(n) } else { u };
                    env.insert(n.clone(), u);
                } else {
                    for id in pat_idents {
                        env.insert(id.clone(), ident_unit(id));
                    }
                }
            }
            Stmt::Expr(e, _) => {
                walk_units_expr(e, env, ctx, f);
                if let ExprKind::Assign(op, lhs, rhs) = &e.kind {
                    if op == "=" {
                        if let ExprKind::Path(segs) = &lhs.kind {
                            if let [n] = segs.as_slice() {
                                let u = unit_of(rhs, env, ctx);
                                if u != Unit::Unknown {
                                    env.insert(n.clone(), u);
                                }
                            }
                        }
                    }
                }
            }
            Stmt::Item(Some(b)) => {
                let mut inner = BTreeMap::new();
                walk_units_block(b, &mut inner, ctx, f);
            }
            Stmt::Item(None) => {}
        }
    }
    if let Some(tail) = &block.tail {
        walk_units_expr(tail, env, ctx, f);
    }
}

/// Expression-level recursion for [`walk_units_block`]: loop, branch,
/// and closure bodies get cloned environments with their bound names
/// installed.
fn walk_units_expr(
    e: &Expr,
    env: &BTreeMap<String, Unit>,
    ctx: &UnitCtx,
    f: &mut impl FnMut(&Expr, &BTreeMap<String, Unit>),
) {
    f(e, env);
    match &e.kind {
        ExprKind::If(cond, then, els) => {
            walk_units_expr(cond, env, ctx, f);
            let mut inner = env.clone();
            walk_units_block(then, &mut inner, ctx, f);
            if let Some(els) = els {
                walk_units_expr(els, env, ctx, f);
            }
        }
        ExprKind::IfLet(idents, scrut, then, els) => {
            walk_units_expr(scrut, env, ctx, f);
            let mut inner = env.clone();
            let su = unit_of(scrut, env, ctx);
            for id in idents {
                let u = if su == Unit::Unknown { ident_unit(id) } else { su };
                inner.insert(id.clone(), u);
            }
            walk_units_block(then, &mut inner, ctx, f);
            if let Some(els) = els {
                walk_units_expr(els, env, ctx, f);
            }
        }
        ExprKind::While(cond, body) => {
            walk_units_expr(cond, env, ctx, f);
            let mut inner = env.clone();
            walk_units_block(body, &mut inner, ctx, f);
        }
        ExprKind::WhileLet(idents, scrut, body) => {
            walk_units_expr(scrut, env, ctx, f);
            let mut inner = env.clone();
            for id in idents {
                inner.insert(id.clone(), ident_unit(id));
            }
            walk_units_block(body, &mut inner, ctx, f);
        }
        ExprKind::Loop(body) | ExprKind::Block(body) => {
            let mut inner = env.clone();
            walk_units_block(body, &mut inner, ctx, f);
        }
        ExprKind::For(idents, iter, body) => {
            walk_units_expr(iter, env, ctx, f);
            let mut inner = env.clone();
            let elem = element_unit(iter, env, ctx);
            match idents.as_slice() {
                [single] => {
                    let u = if elem == Unit::Unknown { ident_unit(single) } else { elem };
                    inner.insert(single.clone(), u);
                }
                many => {
                    for id in many {
                        inner.insert(id.clone(), ident_unit(id));
                    }
                }
            }
            walk_units_block(body, &mut inner, ctx, f);
        }
        ExprKind::Match(scrut, arms) => {
            walk_units_expr(scrut, env, ctx, f);
            for arm in arms {
                let mut inner = env.clone();
                for id in &arm.pat_idents {
                    inner.insert(id.clone(), ident_unit(id));
                }
                if let Some(g) = &arm.guard {
                    walk_units_expr(g, &inner, ctx, f);
                }
                walk_units_expr(&arm.body, &inner, ctx, f);
            }
        }
        ExprKind::Closure(params, body) => {
            let mut inner = env.clone();
            for p in params {
                inner.insert(p.clone(), ident_unit(p));
            }
            walk_units_expr(body, &inner, ctx, f);
        }
        ExprKind::Unary(_, a) | ExprKind::Cast(a) | ExprKind::Try(a) | ExprKind::Field(a, _) => {
            walk_units_expr(a, env, ctx, f)
        }
        ExprKind::Binary(_, a, b)
        | ExprKind::Assign(_, a, b)
        | ExprKind::Index(a, b)
        | ExprKind::Repeat(a, b) => {
            walk_units_expr(a, env, ctx, f);
            walk_units_expr(b, env, ctx, f);
        }
        ExprKind::Call(callee, args) => {
            walk_units_expr(callee, env, ctx, f);
            for a in args {
                walk_units_expr(a, env, ctx, f);
            }
        }
        ExprKind::MethodCall(recv, _, args) => {
            walk_units_expr(recv, env, ctx, f);
            for a in args {
                walk_units_expr(a, env, ctx, f);
            }
        }
        ExprKind::Range(a, b, _) => {
            if let Some(a) = a {
                walk_units_expr(a, env, ctx, f);
            }
            if let Some(b) = b {
                walk_units_expr(b, env, ctx, f);
            }
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for item in items {
                walk_units_expr(item, env, ctx, f);
            }
        }
        ExprKind::StructLit(_, fields, base) => {
            for (_, v) in fields {
                walk_units_expr(v, env, ctx, f);
            }
            if let Some(b) = base {
                walk_units_expr(b, env, ctx, f);
            }
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                walk_units_expr(a, env, ctx, f);
            }
        }
        ExprKind::Return(a) | ExprKind::Break(a) => {
            if let Some(a) = a {
                walk_units_expr(a, env, ctx, f);
            }
        }
        _ => {}
    }
}

/// Element unit of an iterated expression: iterator adaptors that
/// preserve elements are transparent, so `for d in dists.iter()` gives
/// `d` the unit of `dists`; plain ranges yield indices.
fn element_unit(iter: &Expr, env: &BTreeMap<String, Unit>, ctx: &UnitCtx) -> Unit {
    match &iter.kind {
        ExprKind::MethodCall(recv, name, _)
            if matches!(name.as_str(), "iter" | "iter_mut" | "into_iter" | "copied" | "cloned") =>
        {
            element_unit(recv, env, ctx)
        }
        ExprKind::Unary(_, inner) => element_unit(inner, env, ctx),
        ExprKind::Range(..) => Unit::Index,
        _ => unit_of(iter, env, ctx),
    }
}

/// The unit of one expression under `env`. Never panics; prefers
/// `Unknown` to guessing.
fn unit_of(e: &Expr, env: &BTreeMap<String, Unit>, ctx: &UnitCtx) -> Unit {
    match &e.kind {
        ExprKind::Path(segs) => match segs.as_slice() {
            [single] => env.get(single).copied().unwrap_or_else(|| ident_unit(single)),
            [.., last] => ident_unit(last),
            [] => Unit::Unknown,
        },
        ExprKind::Field(_, name) => ident_unit(name),
        ExprKind::Unary(_, inner) | ExprKind::Cast(inner) | ExprKind::Try(inner) => {
            unit_of(inner, env, ctx)
        }
        ExprKind::Index(base, _) => unit_of(base, env, ctx),
        ExprKind::Binary(op, l, r) => {
            let (ul, ur) = (unit_of(l, env, ctx), unit_of(r, env, ctx));
            match op.as_str() {
                "*" => match (ul.power(), ur.power()) {
                    (Some(1), Some(1)) => ul.join(ur).squared(),
                    // Structural self-multiplication is squaring
                    // evidence even with an unknown operand (`w * w`).
                    _ if l.sexpr() == r.sexpr()
                        && !matches!(ul, Unit::Count | Unit::Index | Unit::Seconds) =>
                    {
                        ul.squared()
                    }
                    _ => Unit::Unknown,
                },
                "/" => match (ul.power(), ur.power()) {
                    (Some(2), Some(1)) => ul.unsquared(),
                    _ => Unit::Unknown,
                },
                "+" | "-" => ul.join(ur),
                _ => Unit::Unknown,
            }
        }
        ExprKind::MethodCall(recv, name, args) => {
            let ru = unit_of(recv, env, ctx);
            match name.as_str() {
                "sqrt" => ru.unsquared(),
                "powi" | "powf" => match args.first().map(|a| &a.kind) {
                    Some(ExprKind::Int(n)) if n == "2" => ru.squared(),
                    Some(ExprKind::Float(n)) if n == "2.0" => ru.squared(),
                    _ => Unit::Unknown,
                },
                "min" | "max" | "clamp" => {
                    args.iter().fold(ru, |acc, a| acc.join(unit_of(a, env, ctx)))
                }
                "abs" | "floor" | "ceil" | "round" | "clone" | "to_owned" | "copied" => ru,
                "unwrap" | "expect" | "unwrap_or" | "unwrap_or_default" => ru,
                "len" | "count" => Unit::Count,
                "hypot" => Unit::Distance,
                _ => ctx.callee_unit(name, true),
            }
        }
        ExprKind::Call(callee, _) => match &callee.kind {
            ExprKind::Path(segs) => match segs.last() {
                Some(last) => ctx.callee_unit(last, false),
                None => Unit::Unknown,
            },
            _ => Unit::Unknown,
        },
        ExprKind::If(_, then, els) => {
            let mut inner = env.clone();
            let t = tail_unit(then, &mut inner, ctx);
            match els {
                Some(e) => t.join(unit_of(e, env, ctx)),
                None => Unit::Unknown,
            }
        }
        ExprKind::Block(b) => {
            let mut inner = env.clone();
            tail_unit(b, &mut inner, ctx)
        }
        ExprKind::Match(_, arms) => {
            let mut joined: Option<Unit> = None;
            for arm in arms {
                let u = unit_of(&arm.body, env, ctx);
                joined = Some(match joined {
                    None => u,
                    Some(j) => j.join(u),
                });
            }
            joined.unwrap_or(Unit::Unknown)
        }
        _ => Unit::Unknown,
    }
}

/// Tail unit of a block after folding its simple lets into a scratch
/// env — for block/if expressions in value position.
fn tail_unit(block: &Block, env: &mut BTreeMap<String, Unit>, ctx: &UnitCtx) -> Unit {
    for stmt in &block.stmts {
        if let Stmt::Let { name: Some(n), init: Some(init), .. } = stmt {
            let u = unit_of(init, env, ctx);
            let u = if u == Unit::Unknown { ident_unit(n) } else { u };
            env.insert(n.clone(), u);
        }
    }
    block.tail.as_ref().map(|t| unit_of(t, env, ctx)).unwrap_or(Unit::Unknown)
}

/// The dataflow `squared-distance-mismatch`: flags comparisons and
/// add/sub (including `+=`/`-=`) whose operands live at different
/// metric powers. The same walk also carries `power-domain-mismatch`:
/// linear milliwatts (`_mw`) meeting log-domain dBm/dB (`_dbm`/`_db`)
/// in a comparison or addition — the classic link-budget bug the
/// `rim-phys` naming convention exists to prevent. Pragmas are accepted
/// at the site or on the `fn` line.
pub fn check_unit_mismatch(
    ws: &Workspace,
    flow: &Flow,
    pragmas: &BTreeMap<String, Pragmas>,
    out: &mut Vec<Diagnostic>,
) {
    for (i, f) in ws.fns.iter().enumerate() {
        let Some(body) = &flow.bodies[i] else { continue };
        let ctx = UnitCtx { ws, ret_units: &flow.ret_units };
        let mut env: BTreeMap<String, Unit> = flow.param_units[i]
            .iter()
            .filter(|(_, u)| *u != Unit::Unknown)
            .cloned()
            .collect();
        let file = &ws.files[f.file_idx];
        let mut findings: Vec<(&'static str, u32, String, Unit, Unit)> = Vec::new();
        walk_units_block(&body.block, &mut env, &ctx, &mut |e, env| {
            let (op, l, r) = match &e.kind {
                ExprKind::Binary(op, l, r)
                    if matches!(op.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=" | "+" | "-") =>
                {
                    (op, l, r)
                }
                ExprKind::Assign(op, l, r) if matches!(op.as_str(), "+=" | "-=") => (op, l, r),
                _ => return,
            };
            let (ul, ur) = (unit_of(l, env, &ctx), unit_of(r, env, &ctx));
            if let (Some(pl), Some(pr)) = (ul.power(), ur.power()) {
                if pl != pr {
                    findings.push(("squared-distance-mismatch", e.line, op.clone(), ul, ur));
                }
            }
            if matches!(
                (ul, ur),
                (Unit::PowerMw, Unit::PowerDbm) | (Unit::PowerDbm, Unit::PowerMw)
            ) {
                findings.push(("power-domain-mismatch", e.line, op.clone(), ul, ur));
            }
        });
        for (rule, line, op, ul, ur) in findings {
            let allowed = pragmas
                .get(file.rel)
                .is_some_and(|p| p.allows(rule, line) || p.allows(rule, f.line));
            if allowed {
                continue;
            }
            let message = if rule == "power-domain-mismatch" {
                format!(
                    "`{}` mixes power domains in `{op}`: left is {ul:?}, right is {ur:?}; \
                     convert through dbm_to_mw/db_to_linear before combining — adding dBm to \
                     mW is the classic link-budget bug",
                    f.path(),
                )
            } else {
                format!(
                    "`{}` mixes metric powers in `{op}`: left is {ul:?} (power {}), right is \
                     {ur:?} (power {}); compare both at the same power — the kernel convention \
                     is squared-space (Def. 3.1's disk predicate without the sqrt)",
                    f.path(),
                    ul.power().unwrap_or(0),
                    ur.power().unwrap_or(0),
                )
            };
            out.push(Diagnostic { rule, file: file.rel.to_string(), line, message });
        }
    }
}

// ---------------------------------------------------------------------
// Determinism analysis
// ---------------------------------------------------------------------

/// Functions pinned by the differential and thread-count-invariance
/// test layers: their call closure must be bitwise deterministic for a
/// fixed input, independent of thread count and wall clock.
pub const DETERMINISM_ROOTS: &[&str] = &[
    "interference_vector_with",
    "filter_edges",
    "lmst_selection",
    "keeps_edge_one_list",
    "sector_selection",
    "lmst_with",
    "xtc_with",
    "yao_graph_with",
    "gabriel_graph_with",
    "physical_interference_vector",
    "sinr_interference_indexed",
    "interference_counts_sharded",
    "par_scatter_u32",
    "run_pieces",
    "nn_radii",
    "nn_in_degree",
    "par_fill_chunks",
    "par_fill_chunk_pairs",
    "remove_node",
    "apply_edit",
    "encode_snapshot",
    "k_nearest_live",
    "push_overlay",
    "scan_split",
    "for_each_reaching",
    "raise_bound",
    "unit_disk_graph_with_range",
    "udg_census",
    "coverage_vector",
    "worst_link_coverage",
    "preserves_connectivity",
    "for_each_link_run",
    "interference_max_sum",
    "par_block_scatter",
    "gather_column",
    "par_fill_columns",
];

/// Atomic read-modify-write methods (order-sensitive cross-thread
/// state).
const ATOMIC_RMW: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// RNG draw methods of `rim_rng::SmallRng`.
const RNG_DRAWS: &[&str] =
    &["gen_range", "gen_bool", "next_u32", "next_u64", "fill_bytes", "sample"];

/// Nondeterminism sites inside one body: `(line, description)`.
pub fn nondet_sites(body: &Body) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    expr::walk_block(&body.block, &mut |e| match &e.kind {
        ExprKind::MethodCall(_, name, _) => {
            if ATOMIC_RMW.contains(&name.as_str()) {
                out.push((e.line, format!("an atomic read-modify-write (`{name}`)")));
            } else if RNG_DRAWS.contains(&name.as_str()) {
                out.push((e.line, format!("an RNG draw (`{name}`)")));
            }
        }
        ExprKind::Call(callee, _) => {
            if let ExprKind::Path(segs) = &callee.kind {
                match segs.as_slice() {
                    [.., ty, m] if m == "now" && (ty == "Instant" || ty == "SystemTime") => {
                        out.push((e.line, format!("a wall-clock read (`{ty}::now`)")));
                    }
                    [.., m] if m == "install_recorder" || m == "install_sink" => {
                        out.push((e.line, format!("observability-sink installation (`{m}`)")));
                    }
                    [.., m] if m == "from_entropy" || m == "thread_rng" => {
                        out.push((e.line, format!("entropy-based RNG seeding (`{m}`)")));
                    }
                    _ => {}
                }
            }
        }
        _ => {}
    });
    out.sort();
    out.dedup();
    out
}

/// `engine-determinism`: no function reachable from
/// [`DETERMINISM_ROOTS`] may contain a nondeterminism site without a
/// `// rim-lint: allow(engine-determinism)` pragma at the site or on
/// the `fn` line. The justified exceptions are exactly the ones the
/// thread-invariance tests rely on being benign: the rim-par work
/// cursor (order-free work claiming) and the rim-obs counters/span
/// clocks (flow into observability output, never into results).
pub fn audit_engine_determinism(
    ws: &Workspace,
    flow: &Flow,
    pragmas: &BTreeMap<String, Pragmas>,
    out: &mut Vec<Diagnostic>,
) {
    let masks: Vec<(&str, Vec<bool>)> = DETERMINISM_ROOTS
        .iter()
        .map(|root| {
            let seeds: Vec<usize> = ws
                .defs_named(root)
                .iter()
                .copied()
                .filter(|&i| !ws.fns[i].in_test)
                .collect();
            (*root, ws.reachable_from(seeds))
        })
        .collect();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let Some((root, _)) = masks.iter().find(|(_, m)| m[i]) else { continue };
        let Some(body) = &flow.bodies[i] else { continue };
        let file = &ws.files[f.file_idx];
        for (line, what) in nondet_sites(body) {
            let allowed = pragmas.get(file.rel).is_some_and(|p| {
                p.allows("engine-determinism", line) || p.allows("engine-determinism", f.line)
            });
            if allowed {
                continue;
            }
            out.push(Diagnostic {
                rule: "engine-determinism",
                file: file.rel.to_string(),
                line,
                message: format!(
                    "`{}` is reachable from determinism-pinned root `{root}` but performs \
                     {what}; thread-count invariance and the differential oracles require \
                     bitwise-deterministic results — remove it or justify with \
                     `// rim-lint: allow(engine-determinism)` at the site or on the `fn` line",
                    f.path(),
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Const-bounds propagation / indexing discharge
// ---------------------------------------------------------------------

/// A strict upper bound on an integer binding.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Bound {
    /// `var < key.len()`.
    Len(String),
    /// `var < n` for a symbolic ident `n`.
    Sym(String),
    /// `var < k`.
    Const(u64),
}

/// What is known about a container's length.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LenFact {
    /// Length is at least `k` (exact for `vec![x; k]`, at-least for
    /// `windows(k)` elements and `chunks` tails).
    AtLeast(u64),
    /// Length equals the value of ident `n` (e.g. `vec![x; n]`).
    Sym(String),
    /// Length equals `other`'s length (clones, reborrows).
    LenOf(String),
}

/// The bounds environment at one program point.
#[derive(Debug, Clone, Default)]
struct BoundsEnv {
    /// Strict upper bounds per integer binding.
    lt: BTreeMap<String, Bound>,
    /// Length facts per container key.
    len: BTreeMap<String, LenFact>,
    /// `n` holds the (unchanged-since) value of `key.len()`.
    is_len_of: BTreeMap<String, String>,
}

impl BoundsEnv {
    /// Removes every fact about `name` — as a binding, a container,
    /// or a bound referenced by other facts. Because references are
    /// erased on kill, the `LenOf` relation stays acyclic.
    fn kill(&mut self, name: &str) {
        self.lt.remove(name);
        self.len.remove(name);
        self.is_len_of.remove(name);
        self.lt.retain(|_, b| !matches!(b, Bound::Len(v) | Bound::Sym(v) if v == name));
        self.len
            .retain(|_, fact| !matches!(fact, LenFact::Sym(v) | LenFact::LenOf(v) if v == name));
        self.is_len_of.retain(|_, v| v != name);
    }

    /// Does `len(of_key) > k` hold?
    fn len_exceeds(&self, of_key: &str, k: u64) -> bool {
        match self.len.get(of_key) {
            Some(LenFact::AtLeast(c)) => *c > k,
            Some(LenFact::LenOf(other)) => self.len_exceeds(other, k),
            _ => false,
        }
    }

    /// Do `a` and `b` have provably equal lengths?
    fn len_equal(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        // Resolve one level of aliasing: `LenOf` and `Sym`-backed-by-
        // `is_len_of` both normalise to "length of container X".
        let resolve = |k: &str| -> Option<String> {
            match self.len.get(k) {
                Some(LenFact::LenOf(other)) => Some(format!("len:{other}")),
                Some(LenFact::Sym(n)) => Some(match self.is_len_of.get(n) {
                    Some(v) => format!("len:{v}"),
                    None => format!("sym:{n}"),
                }),
                _ => None,
            }
        };
        let (ra, rb) = (resolve(a), resolve(b));
        if let (Some(x), Some(y)) = (&ra, &rb) {
            if x == y {
                return true;
            }
        }
        ra.as_deref() == Some(&format!("len:{b}")[..])
            || rb.as_deref() == Some(&format!("len:{a}")[..])
    }

    /// Is `idx < key.len()` provable?
    fn proves(&self, key: &str, idx: &Expr) -> bool {
        match &idx.kind {
            ExprKind::Int(text) => {
                let Ok(k) = text.replace('_', "").parse::<u64>() else { return false };
                self.len_exceeds(key, k)
            }
            ExprKind::Path(segs) => {
                let [name] = segs.as_slice() else { return false };
                match self.lt.get(name) {
                    Some(Bound::Len(b)) => self.len_equal(key, b),
                    Some(Bound::Sym(n)) => {
                        // idx < n: provable when key.len() == n, or n
                        // is a live snapshot of some v.len() with
                        // len(key) == len(v).
                        matches!(self.len.get(key), Some(LenFact::Sym(m)) if m == n)
                            || matches!(self.is_len_of.get(n), Some(v) if self.len_equal(key, v))
                    }
                    Some(Bound::Const(k)) => *k > 0 && self.len_exceeds(key, k - 1),
                    None => false,
                }
            }
            ExprKind::Cast(inner) => self.proves(key, inner),
            _ => false,
        }
    }
}

/// Stable key for an indexable place: `v`, `self.field`, references
/// and derefs collapsed. `None` means "not trackable".
fn place_key(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) => match segs.as_slice() {
            [single] => Some(single.clone()),
            _ => None,
        },
        ExprKind::Field(recv, name) => Some(format!("{}.{name}", place_key(recv)?)),
        ExprKind::Unary(op, inner) if matches!(op.as_str(), "&" | "&mut" | "*") => {
            place_key(inner)
        }
        _ => None,
    }
}

/// Methods that may change a container's length.
const LEN_MUTATORS: &[&str] = &[
    "push", "pop", "insert", "remove", "clear", "truncate", "resize", "extend", "append",
    "drain", "retain", "swap_remove", "dedup", "split_off",
];

/// Collects every place mutated inside `e`: assignment targets,
/// receivers of length-changing methods, and `&mut` arguments.
fn mutated_places(e: &Expr, out: &mut BTreeSet<String>) {
    expr::walk_expr(e, &mut |e| match &e.kind {
        ExprKind::Assign(_, lhs, _) => {
            // Assignment through an index (`v[i] = x`) cannot change a
            // length; only whole-place assignment kills facts.
            if let Some(k) = place_key(lhs) {
                out.insert(k);
            }
        }
        ExprKind::MethodCall(recv, name, args) => {
            if LEN_MUTATORS.contains(&name.as_str()) {
                if let Some(k) = place_key(recv) {
                    out.insert(k);
                }
            }
            for a in args {
                if let ExprKind::Unary(op, inner) = &a.kind {
                    if op == "&mut" {
                        if let Some(k) = place_key(inner) {
                            out.insert(k);
                        }
                    }
                }
            }
        }
        ExprKind::Call(_, args) => {
            for a in args {
                if let ExprKind::Unary(op, inner) = &a.kind {
                    if op == "&mut" {
                        if let Some(k) = place_key(inner) {
                            out.insert(k);
                        }
                    }
                }
            }
        }
        _ => {}
    });
}

/// [`mutated_places`] over every expression in a block.
fn mutated_in_block(b: &Block, out: &mut BTreeSet<String>) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { init, els, .. } => {
                if let Some(e) = init {
                    mutated_places(e, out);
                }
                if let Some(inner) = els {
                    mutated_in_block(inner, out);
                }
            }
            Stmt::Expr(e, _) => mutated_places(e, out),
            Stmt::Item(Some(inner)) => mutated_in_block(inner, out),
            Stmt::Item(None) => {}
        }
    }
    if let Some(t) = &b.tail {
        mutated_places(t, out);
    }
}

/// One slice-indexing obligation.
#[derive(Debug, Clone)]
pub struct IndexObligation {
    /// 1-based line of the indexing expression.
    pub line: u32,
    /// True when the bounds pass proved the index in range.
    pub proven: bool,
}

/// Result of the bounds pass over one body.
#[derive(Debug, Clone, Default)]
pub struct IndexAudit {
    /// Every indexing obligation, sorted by line.
    pub obligations: Vec<IndexObligation>,
}

impl IndexAudit {
    /// First obligation the pass could not discharge.
    pub fn first_unproven(&self) -> Option<u32> {
        self.obligations.iter().find(|o| !o.proven).map(|o| o.line)
    }

    /// `(discharged, total)` obligation counts.
    pub fn counts(&self) -> (usize, usize) {
        let proven = self.obligations.iter().filter(|o| o.proven).count();
        (proven, self.obligations.len())
    }
}

/// Runs const-bounds propagation over a body and reports every
/// indexing obligation with its proof status.
pub fn audit_indexing(body: &Body) -> IndexAudit {
    let mut audit = IndexAudit::default();
    let mut env = BoundsEnv::default();
    bounds_block(&body.block, &mut env, &mut audit);
    audit.obligations.sort_by_key(|o| o.line);
    audit
}

/// Strict upper bound implied by an expression used as an exclusive
/// range end or the RHS of `<`.
fn strict_bound(e: &Expr, env: &BoundsEnv) -> Option<Bound> {
    match &e.kind {
        ExprKind::MethodCall(recv, name, args) if name == "len" && args.is_empty() => {
            place_key(recv).map(Bound::Len)
        }
        ExprKind::Path(segs) => {
            let [name] = segs.as_slice() else { return None };
            Some(match env.is_len_of.get(name) {
                Some(v) => Bound::Len(v.clone()),
                None => Bound::Sym(name.clone()),
            })
        }
        ExprKind::Int(text) => text.replace('_', "").parse().ok().map(Bound::Const),
        // `i < x - k` implies `i < x`.
        ExprKind::Binary(op, l, _) if op == "-" => strict_bound(l, env),
        ExprKind::MethodCall(recv, name, args) if name == "min" => args
            .iter()
            .find_map(|a| strict_bound(a, env))
            .or_else(|| strict_bound(recv, env)),
        ExprKind::Cast(inner) => strict_bound(inner, env),
        _ => None,
    }
}

/// Strict upper bound implied by an *inclusive* comparison (`<= e`).
fn inclusive_bound(e: &Expr, env: &BoundsEnv) -> Option<Bound> {
    match &e.kind {
        // `i <= x - k` for k >= 1 implies `i < x`.
        ExprKind::Binary(op, l, r) if op == "-" => match &r.kind {
            ExprKind::Int(text)
                if text.replace('_', "").parse::<u64>().map_or(false, |k| k >= 1) =>
            {
                strict_bound(l, env)
            }
            _ => None,
        },
        ExprKind::Int(text) => {
            text.replace('_', "").parse::<u64>().ok().map(|k| Bound::Const(k + 1))
        }
        ExprKind::MethodCall(recv, name, args) if name == "min" || name == "clamp" => {
            // `min(a, b) <= a` and `min(a, b) <= b`; for `clamp(lo,
            // hi)` only the upper limit bounds the result.
            let cands: Vec<&Expr> = match name.as_str() {
                "min" => args.iter().collect(),
                _ => args.iter().skip(1).collect(),
            };
            cands
                .into_iter()
                .find_map(|a| inclusive_bound(a, env))
                .or_else(|| if name == "min" { inclusive_bound(recv, env) } else { None })
        }
        ExprKind::Cast(inner) => inclusive_bound(inner, env),
        _ => None,
    }
}

/// Facts a true condition contributes: `(binding, strict bound)`.
fn cond_facts(cond: &Expr, env: &BoundsEnv, out: &mut Vec<(String, Bound)>) {
    if let ExprKind::Binary(op, l, r) = &cond.kind {
        match op.as_str() {
            "&&" => {
                cond_facts(l, env, out);
                cond_facts(r, env, out);
            }
            "<" => add_fact(l, r, false, env, out),
            "<=" => add_fact(l, r, true, env, out),
            ">" => add_fact(r, l, false, env, out),
            ">=" => add_fact(r, l, true, env, out),
            _ => {}
        }
    }
}

/// Facts the *negation* of a condition contributes (diverging-guard
/// inversion: `if i >= v.len() { return; }` means `i < v.len()`
/// afterwards).
fn negated_cond_facts(cond: &Expr, env: &BoundsEnv, out: &mut Vec<(String, Bound)>) {
    if let ExprKind::Binary(op, l, r) = &cond.kind {
        match op.as_str() {
            // ¬(a || b) = ¬a && ¬b: both negations hold.
            "||" => {
                negated_cond_facts(l, env, out);
                negated_cond_facts(r, env, out);
            }
            ">=" => add_fact(l, r, false, env, out),
            ">" => add_fact(l, r, true, env, out),
            "<=" => add_fact(r, l, false, env, out),
            "<" => add_fact(r, l, true, env, out),
            _ => {}
        }
    }
}

/// Records `small < big` (strict) or `small <= big` (inclusive) when
/// `small` is a single ident and `big` resolves to a bound.
fn add_fact(
    small: &Expr,
    big: &Expr,
    inclusive: bool,
    env: &BoundsEnv,
    out: &mut Vec<(String, Bound)>,
) {
    let ExprKind::Path(segs) = &small.kind else { return };
    let [name] = segs.as_slice() else { return };
    let bound = if inclusive { inclusive_bound(big, env) } else { strict_bound(big, env) };
    if let Some(b) = bound {
        out.push((name.clone(), b));
    }
}

/// Does this block always diverge (return/break/continue/panic)?
fn block_diverges(b: &Block) -> bool {
    let last = b.tail.as_deref().or_else(|| {
        b.stmts.iter().rev().find_map(|s| match s {
            Stmt::Expr(e, _) => Some(e),
            _ => None,
        })
    });
    match last.map(|e| &e.kind) {
        Some(ExprKind::Return(_)) | Some(ExprKind::Break(_)) | Some(ExprKind::Continue) => true,
        Some(ExprKind::MacroCall { name, .. }) => {
            matches!(name.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
        }
        _ => false,
    }
}

/// Length facts from a `let` initialiser. `binding` is the name being
/// bound — self-referential aliases (`let v = v;`) yield no fact so
/// the `LenOf` relation cannot loop.
fn init_len_fact(init: &Expr, env: &BoundsEnv, binding: &str) -> Option<LenFact> {
    let fact = match &init.kind {
        // `vec![x; n]` (also bare `[x; n]`).
        ExprKind::MacroCall { name, args, .. } if name == "vec" => match args.as_slice() {
            [Expr { kind: ExprKind::Repeat(_, count), .. }] => repeat_len_fact(count),
            args => Some(LenFact::AtLeast(args.len() as u64)),
        },
        ExprKind::Repeat(_, count) => repeat_len_fact(count),
        // Aliases that preserve length.
        ExprKind::MethodCall(recv, name, _)
            if matches!(name.as_str(), "to_vec" | "clone" | "to_owned") =>
        {
            place_key(recv).map(LenFact::LenOf)
        }
        ExprKind::Path(segs) => {
            let [from] = segs.as_slice() else { return None };
            Some(match env.len.get(from) {
                Some(f) => f.clone(),
                None => LenFact::LenOf(from.clone()),
            })
        }
        ExprKind::Unary(op, inner) if matches!(op.as_str(), "&" | "&mut" | "*") => {
            init_len_fact(inner, env, binding)
        }
        _ => None,
    };
    match fact {
        Some(LenFact::LenOf(v)) if v == binding => None,
        Some(LenFact::Sym(n)) if n == binding => None,
        f => f,
    }
}

/// Length fact from a `[_; count]` repeat count.
fn repeat_len_fact(count: &Expr) -> Option<LenFact> {
    match &count.kind {
        ExprKind::Int(text) => text.replace('_', "").parse().ok().map(LenFact::AtLeast),
        ExprKind::Path(segs) => match segs.as_slice() {
            [n] => Some(LenFact::Sym(n.clone())),
            _ => None,
        },
        ExprKind::MethodCall(recv, name, args) if name == "len" && args.is_empty() => {
            place_key(recv).map(LenFact::LenOf)
        }
        ExprKind::Cast(inner) => repeat_len_fact(inner),
        _ => None,
    }
}

/// Walks a block in order, updating the bounds env and collecting
/// obligations.
fn bounds_block(block: &Block, env: &mut BoundsEnv, audit: &mut IndexAudit) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { name, pat_idents, init, els, .. } => {
                if let Some(init) = init {
                    bounds_expr(init, env, audit);
                }
                if let Some(els) = els {
                    let mut inner = env.clone();
                    bounds_block(els, &mut inner, audit);
                }
                match (name, init.as_ref()) {
                    (Some(n), Some(init)) => {
                        let fact = init_len_fact(init, env, n);
                        let snapshot = match &init.kind {
                            ExprKind::MethodCall(recv, m, args)
                                if m == "len" && args.is_empty() =>
                            {
                                place_key(recv)
                            }
                            _ => None,
                        };
                        let bound = inclusive_bound(init, env);
                        env.kill(n);
                        if let Some(fact) = fact {
                            env.len.insert(n.clone(), fact);
                        }
                        if let Some(of) = snapshot {
                            if of != *n {
                                env.is_len_of.insert(n.clone(), of);
                            }
                        }
                        if let Some(b) = bound {
                            env.lt.insert(n.clone(), b);
                        }
                    }
                    _ => {
                        for id in pat_idents {
                            env.kill(id);
                        }
                    }
                }
            }
            Stmt::Expr(e, _) => {
                // Guard patterns that add facts for the rest of the
                // block, checked before the generic walk.
                match &e.kind {
                    // `assert!(i < v.len())` / `debug_assert!(…)`.
                    ExprKind::MacroCall { name, args, .. }
                        if matches!(name.as_str(), "assert" | "debug_assert") =>
                    {
                        for a in args {
                            bounds_expr(a, env, audit);
                        }
                        let mut facts = Vec::new();
                        if let Some(cond) = args.first() {
                            cond_facts(cond, env, &mut facts);
                        }
                        for (n, b) in facts {
                            env.lt.insert(n, b);
                        }
                        continue;
                    }
                    ExprKind::If(cond, then, els) => {
                        bounds_expr_cond_if(cond, then, els.as_deref(), env, audit);
                        // Diverging guard: `if i >= len { return; }`.
                        if els.is_none() && block_diverges(then) {
                            let mut facts = Vec::new();
                            negated_cond_facts(cond, env, &mut facts);
                            for (n, b) in facts {
                                env.lt.insert(n, b);
                            }
                        }
                        // `if v.len() <= c { v.resize(c + 1, …) }`
                        // establishes `c < v.len()` afterwards; the
                        // resize only ever grows here, so existing
                        // strict bounds on `v` stay valid.
                        if let Some((v, c)) = resize_guard(cond, then) {
                            env.len.remove(&v);
                            env.lt.insert(c, Bound::Len(v));
                        } else {
                            let mut mutated = BTreeSet::new();
                            mutated_in_block(then, &mut mutated);
                            if let Some(els) = els.as_deref() {
                                mutated_places(els, &mut mutated);
                            }
                            for m in mutated {
                                env.kill(&m);
                            }
                        }
                        continue;
                    }
                    _ => {}
                }
                bounds_expr(e, env, audit);
                let mut mutated = BTreeSet::new();
                mutated_places(e, &mut mutated);
                for m in mutated {
                    env.kill(&m);
                }
            }
            Stmt::Item(Some(b)) => {
                let mut inner = BoundsEnv::default();
                bounds_block(b, &mut inner, audit);
            }
            Stmt::Item(None) => {}
        }
    }
    if let Some(tail) = &block.tail {
        bounds_expr(tail, env, audit);
    }
}

/// Recognises `if v.len() <= c { … v.resize(c + 1, _) … }` (also
/// `v.len() < c + 1`); returns `(v, c)` on match.
fn resize_guard(cond: &Expr, then: &Block) -> Option<(String, String)> {
    let (v, c) = match &cond.kind {
        ExprKind::Binary(op, l, r) if op == "<=" || op == "<" => {
            let v = match &l.kind {
                ExprKind::MethodCall(recv, m, args) if m == "len" && args.is_empty() => {
                    place_key(recv)?
                }
                _ => return None,
            };
            let c = match &r.kind {
                ExprKind::Path(segs) if op == "<=" => match segs.as_slice() {
                    [c] => c.clone(),
                    _ => return None,
                },
                ExprKind::Binary(op2, a, _) if op == "<" && op2 == "+" => match &a.kind {
                    ExprKind::Path(segs) => match segs.as_slice() {
                        [c] => c.clone(),
                        _ => return None,
                    },
                    _ => return None,
                },
                _ => return None,
            };
            (v, c)
        }
        _ => return None,
    };
    // The then-block must grow `v` to at least `c + 1`.
    let mut grows = false;
    expr::walk_block(then, &mut |e| {
        if let ExprKind::MethodCall(recv, m, args) = &e.kind {
            if m == "resize" && place_key(recv).as_deref() == Some(v.as_str()) {
                if let Some(ExprKind::Binary(op, a, b)) = args.first().map(|a| &a.kind) {
                    let a_is_c =
                        matches!(&a.kind, ExprKind::Path(s) if s.len() == 1 && s[0] == c);
                    let b_is_one = matches!(&b.kind, ExprKind::Int(t) if t == "1");
                    if op == "+" && a_is_c && b_is_one {
                        grows = true;
                    }
                }
            }
        }
    });
    grows.then_some((v, c))
}

/// `if` handling shared by statement and expression positions: the
/// then-branch sees the condition's facts, the else-branch its
/// negation.
fn bounds_expr_cond_if(
    cond: &Expr,
    then: &Block,
    els: Option<&Expr>,
    env: &mut BoundsEnv,
    audit: &mut IndexAudit,
) {
    bounds_expr(cond, env, audit);
    let mut then_env = env.clone();
    let mut facts = Vec::new();
    cond_facts(cond, env, &mut facts);
    for (n, b) in facts {
        then_env.lt.insert(n, b);
    }
    bounds_block(then, &mut then_env, audit);
    if let Some(els) = els {
        let mut else_env = env.clone();
        let mut facts = Vec::new();
        negated_cond_facts(cond, env, &mut facts);
        for (n, b) in facts {
            else_env.lt.insert(n, b);
        }
        bounds_expr(els, &mut else_env, audit);
    }
}

/// Expression-level walk: records indexing obligations and descends
/// with branch/loop-aware environments.
fn bounds_expr(e: &Expr, env: &mut BoundsEnv, audit: &mut IndexAudit) {
    match &e.kind {
        ExprKind::Index(base, idx) => {
            bounds_expr(base, env, audit);
            bounds_expr(idx, env, audit);
            // Range "indexing" (slicing) panics too but is rarely
            // provable from strict-< facts; it stays an obligation.
            let proven = match place_key(base) {
                Some(key) => env.proves(&key, idx),
                None => false,
            };
            audit.obligations.push(IndexObligation { line: e.line, proven });
        }
        ExprKind::If(cond, then, els) => {
            bounds_expr_cond_if(cond, then, els.as_deref(), env, audit);
        }
        ExprKind::IfLet(_, scrut, then, els) => {
            bounds_expr(scrut, env, audit);
            let mut inner = env.clone();
            bounds_block(then, &mut inner, audit);
            if let Some(els) = els {
                bounds_expr(els, env, audit);
            }
        }
        ExprKind::While(cond, body) => {
            bounds_expr(cond, env, audit);
            let mut inner = env.clone();
            let mut mutated = BTreeSet::new();
            mutated_in_block(body, &mut mutated);
            for m in &mutated {
                inner.kill(m);
            }
            let mut facts = Vec::new();
            cond_facts(cond, &inner, &mut facts);
            for (n, b) in facts {
                if !mutated.contains(&n) {
                    inner.lt.insert(n, b);
                }
            }
            bounds_block(body, &mut inner, audit);
        }
        ExprKind::WhileLet(pat, scrut, body) => {
            bounds_expr(scrut, env, audit);
            let mut inner = env.clone();
            let mut mutated = BTreeSet::new();
            mutated_in_block(body, &mut mutated);
            for m in &mutated {
                inner.kill(m);
            }
            for id in pat {
                inner.kill(id);
            }
            bounds_block(body, &mut inner, audit);
        }
        ExprKind::For(pat, iter, body) => {
            bounds_expr(iter, env, audit);
            let mut inner = env.clone();
            let mut mutated = BTreeSet::new();
            mutated_in_block(body, &mut mutated);
            for m in &mutated {
                inner.kill(m);
            }
            for id in pat {
                inner.kill(id);
            }
            // Loop-header facts for the freshly bound pattern.
            match (&iter.kind, pat.as_slice()) {
                // `for i in lo..hi` / `lo..=hi`.
                (ExprKind::Range(_, Some(hi), inclusive), [i]) => {
                    let b = if *inclusive {
                        inclusive_bound(hi, &inner)
                    } else {
                        strict_bound(hi, &inner)
                    };
                    if let Some(b) = b {
                        let target_mutated = match &b {
                            Bound::Len(v) => mutated.contains(v),
                            Bound::Sym(n) => mutated.contains(n),
                            Bound::Const(_) => false,
                        };
                        if !target_mutated {
                            inner.lt.insert(i.clone(), b);
                        }
                    }
                }
                // `for (i, x) in v.iter().enumerate()`.
                (ExprKind::MethodCall(recv, name, _), [i, ..]) if name == "enumerate" => {
                    if let Some(v) = enumerated_place(recv) {
                        if !mutated.contains(&v) {
                            inner.lt.insert(i.clone(), Bound::Len(v));
                        }
                    }
                }
                // `for w in v.windows(k)` / `chunks_exact(k)`: each
                // element has length exactly `k`; `chunks(k)` tails
                // still have at least 1.
                (ExprKind::MethodCall(_, name, args), [w])
                    if matches!(name.as_str(), "windows" | "chunks_exact" | "chunks") =>
                {
                    let k = match args.first().map(|a| &a.kind) {
                        Some(ExprKind::Int(text)) => text.replace('_', "").parse::<u64>().ok(),
                        _ => None,
                    };
                    if let Some(k) = k {
                        let at_least = if name == "chunks" { 1 } else { k };
                        inner.len.insert(w.clone(), LenFact::AtLeast(at_least));
                    }
                }
                _ => {}
            }
            bounds_block(body, &mut inner, audit);
        }
        ExprKind::Match(scrut, arms) => {
            bounds_expr(scrut, env, audit);
            for Arm { pat_idents, guard, body, .. } in arms {
                let mut inner = env.clone();
                for id in pat_idents {
                    inner.kill(id);
                }
                if let Some(g) = guard {
                    bounds_expr(g, &mut inner, audit);
                    let mut facts = Vec::new();
                    cond_facts(g, &inner, &mut facts);
                    for (n, b) in facts {
                        inner.lt.insert(n, b);
                    }
                }
                bounds_expr(body, &mut inner, audit);
            }
        }
        ExprKind::Loop(body) => {
            let mut inner = env.clone();
            let mut mutated = BTreeSet::new();
            mutated_in_block(body, &mut mutated);
            for m in &mutated {
                inner.kill(m);
            }
            bounds_block(body, &mut inner, audit);
        }
        ExprKind::Block(body) => {
            let mut inner = env.clone();
            bounds_block(body, &mut inner, audit);
        }
        ExprKind::Closure(params, body) => {
            let mut inner = env.clone();
            for p in params {
                inner.kill(p);
            }
            // The closure may run after arbitrary mutations; drop
            // facts it invalidates itself, keep creation-site facts
            // otherwise (a documented soundness caveat).
            let mut mutated = BTreeSet::new();
            mutated_places(body, &mut mutated);
            for m in &mutated {
                inner.kill(m);
            }
            match &body.kind {
                ExprKind::Block(b) => bounds_block(b, &mut inner, audit),
                _ => bounds_expr(body, &mut inner, audit),
            }
        }
        ExprKind::MacroCall { args, opaque, raw, .. } => {
            if *opaque {
                // Conservative token-level fallback: any `[` after an
                // ident/`)`/`]` inside an opaque macro is an unproven
                // indexing obligation.
                for (i, (text, line)) in raw.iter().enumerate() {
                    if text == "[" && i > 0 {
                        let prev = &raw[i - 1].0;
                        let indexes = prev == ")"
                            || prev == "]"
                            || prev
                                .chars()
                                .next()
                                .is_some_and(|c| c.is_alphanumeric() || c == '_');
                        if indexes {
                            audit
                                .obligations
                                .push(IndexObligation { line: *line, proven: false });
                        }
                    }
                }
            } else {
                for a in args {
                    bounds_expr(a, env, audit);
                }
            }
        }
        ExprKind::Unary(_, a) | ExprKind::Cast(a) | ExprKind::Try(a) | ExprKind::Field(a, _) => {
            bounds_expr(a, env, audit)
        }
        ExprKind::Binary(_, a, b) | ExprKind::Assign(_, a, b) | ExprKind::Repeat(a, b) => {
            bounds_expr(a, env, audit);
            bounds_expr(b, env, audit);
        }
        ExprKind::Call(callee, args) => {
            bounds_expr(callee, env, audit);
            for a in args {
                bounds_expr(a, env, audit);
            }
        }
        ExprKind::Range(a, b, _) => {
            if let Some(a) = a {
                bounds_expr(a, env, audit);
            }
            if let Some(b) = b {
                bounds_expr(b, env, audit);
            }
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for item in items {
                bounds_expr(item, env, audit);
            }
        }
        ExprKind::StructLit(_, fields, base) => {
            for (_, v) in fields {
                bounds_expr(v, env, audit);
            }
            if let Some(b) = base {
                bounds_expr(b, env, audit);
            }
        }
        ExprKind::Return(a) | ExprKind::Break(a) => {
            if let Some(a) = a {
                bounds_expr(a, env, audit);
            }
        }
        _ => {}
    }
}

/// The container behind `….iter().enumerate()`-style chains.
fn enumerated_place(recv: &Expr) -> Option<String> {
    match &recv.kind {
        ExprKind::MethodCall(inner, name, _)
            if matches!(name.as_str(), "iter" | "iter_mut" | "into_iter" | "copied" | "cloned") =>
        {
            place_key(inner)
        }
        _ => place_key(recv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_src(src: &str) -> IndexAudit {
        let body = expr::parse_source_body(src);
        assert_eq!(body.errors, 0, "parse errors in {src:?}");
        audit_indexing(&body)
    }

    #[test]
    fn unit_lattice_join_table() {
        use super::Unit::*;
        let cases = [
            (Distance, Distance, Distance),
            (Distance, Radius, Distance),
            (DistanceSq, RadiusSq, DistanceSq),
            (Distance, DistanceSq, Unknown),
            (Distance, Count, Unknown),
            (Unknown, Distance, Unknown),
            (Count, Count, Count),
            (Seconds, Seconds, Seconds),
            (PowerMw, PowerMw, PowerMw),
            (PowerDbm, PowerDbm, PowerDbm),
            (PowerMw, PowerDbm, Unknown),
            (PowerMw, Distance, Unknown),
        ];
        for (a, b, want) in cases {
            assert_eq!(a.join(b), want, "join({a:?}, {b:?})");
            assert_eq!(b.join(a), want, "join symmetric ({b:?}, {a:?})");
        }
    }

    #[test]
    fn unit_power_square_unsquare() {
        use super::Unit::*;
        assert_eq!(Distance.power(), Some(1));
        assert_eq!(RadiusSq.power(), Some(2));
        assert_eq!(Count.power(), None);
        assert_eq!(Distance.squared(), DistanceSq);
        assert_eq!(Radius.squared(), RadiusSq);
        assert_eq!(DistanceSq.unsquared(), Distance);
        assert_eq!(RadiusSq.unsquared(), Radius);
        assert_eq!(Unknown.squared(), DistanceSq);
        assert_eq!(Distance.unsquared(), Unknown);
    }

    #[test]
    fn ident_classification_table() {
        use super::Unit::*;
        let cases = [
            ("dist", Distance),
            ("distance", Distance),
            ("min_dist", Distance),
            ("d", Distance),
            ("dist_sq", DistanceSq),
            ("distsq", DistanceSq),
            ("dist2", DistanceSq),
            ("d2", DistanceSq),
            ("norm2", DistanceSq),
            ("norm_sq", DistanceSq),
            ("r", Radius),
            ("radius", Radius),
            ("radii", Radius),
            ("r2", RadiusSq),
            ("rsq", RadiusSq),
            ("r_sq", RadiusSq),
            ("radius_sq", RadiusSq),
            ("len", Count),
            ("count", Count),
            ("idx", Index),
            ("node_index", Index),
            ("elapsed", Seconds),
            ("power_mw", PowerMw),
            ("noise_mw", PowerMw),
            ("mw", PowerMw),
            ("theta_dbm", PowerDbm),
            ("beta_db", PowerDbm),
            ("sigma_db", PowerDbm),
            ("rho", Radius),
            ("rho_u", Radius),
            ("cutoff", Radius),
            ("threshold", Unknown),
            ("power", Unknown),
            ("x", Unknown),
            ("weight", Unknown),
            ("result", Unknown),
        ];
        for (name, want) in cases {
            assert_eq!(ident_unit(name), want, "ident_unit({name:?})");
        }
    }

    #[test]
    fn bounds_discharges_len_derived_loops() {
        let audit = audit_src("for i in 0..v.len() { total = total + v[i]; }");
        assert_eq!(audit.counts(), (1, 1), "{audit:?}");
        let audit = audit_src("for i in 0..v.len() { total = total + w[i]; }");
        assert_eq!(audit.counts(), (0, 1), "different vec must stay unproven");
    }

    #[test]
    fn bounds_links_vec_macro_lengths() {
        let audit = audit_src(
            "let n = pts.len();\n\
             let mut acc = vec![0.0; n];\n\
             for (i, p) in pts.iter().enumerate() { acc[i] += p; }",
        );
        assert_eq!(audit.counts(), (1, 1), "{audit:?}");
    }

    #[test]
    fn bounds_uses_asserts_and_guards() {
        let audit = audit_src("assert!(i < v.len()); v[i] = 0.0;");
        assert_eq!(audit.counts(), (1, 1), "{audit:?}");
        let audit = audit_src("if i >= v.len() { return 0.0; }\nv[i]");
        assert_eq!(audit.counts(), (1, 1), "{audit:?}");
        let audit = audit_src("if i < v.len() { v[i] } else { v[i] }");
        assert_eq!(audit.counts(), (1, 2), "else branch must stay unproven: {audit:?}");
    }

    #[test]
    fn bounds_understands_windows_and_min() {
        let audit = audit_src("for w in v.windows(2) { acc += w[0] * w[1]; }");
        assert_eq!(audit.counts(), (2, 2), "{audit:?}");
        let audit = audit_src("for w in v.windows(2) { acc += w[2]; }");
        assert_eq!(audit.counts(), (0, 1), "{audit:?}");
        let audit = audit_src("let j = k.min(v.len() - 1); v[j]");
        assert_eq!(audit.counts(), (1, 1), "{audit:?}");
    }

    #[test]
    fn bounds_kills_facts_on_mutation() {
        let audit = audit_src("assert!(i < v.len()); v.push(0.0); v[i] = 1.0;");
        // push cannot shrink, but the pass stays conservative.
        assert_eq!(audit.counts(), (0, 1), "{audit:?}");
        let audit = audit_src("assert!(i < v.len()); i = j; v[i] = 1.0;");
        assert_eq!(audit.counts(), (0, 1), "{audit:?}");
        let audit =
            audit_src("let n = v.len(); v.truncate(m); for i in 0..n { v[i] = 1.0; }");
        assert_eq!(audit.counts(), (0, 1), "stale len snapshot: {audit:?}");
    }

    #[test]
    fn bounds_handles_resize_guard() {
        let audit =
            audit_src("if freq.len() <= c { freq.resize(c + 1, 0); }\nfreq[c] += 1;");
        assert_eq!(audit.counts(), (1, 1), "{audit:?}");
    }

    #[test]
    fn opaque_macro_indexing_stays_an_obligation() {
        let audit = audit_src("matches!(v[i], Some(x) if x > 0)");
        assert_eq!(audit.counts(), (0, 1), "{audit:?}");
    }

    #[test]
    fn nondet_sites_catalogue() {
        let body = expr::parse_source_body(
            "let x = cursor.fetch_add(1, Ordering::Relaxed);\n\
             let y = rng.gen_range(0..n);\n\
             let t = Instant::now();\n\
             let r = rim_obs::install_recorder();",
        );
        assert_eq!(body.errors, 0);
        let sites = nondet_sites(&body);
        assert_eq!(sites.len(), 4, "{sites:?}");
        assert!(sites[0].1.contains("fetch_add"), "{sites:?}");
        assert!(sites[1].1.contains("gen_range"), "{sites:?}");
        assert!(sites[2].1.contains("Instant::now"), "{sites:?}");
        assert!(sites[3].1.contains("install_recorder"), "{sites:?}");
    }
}
