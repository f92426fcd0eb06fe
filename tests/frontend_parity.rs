//! Parity of the single-pass request pipeline with the spellings it
//! replaced, which live on here as oracles:
//!
//! * `extract_loop_samples` (one parse, samples hashed from the file's
//!   tree) against the hand-spelled pipeline — extract the loops, re-parse
//!   each innermost loop's nest text, render its path contexts, hash them;
//! * `extract_path_contexts` (sampled pairs visited directly) against the
//!   all-pairs listing it replaced;
//! * `extract_loops` (one walk) against the per-loop recursion it replaced;
//! * `inject_pragmas` (one split, one join) against one whole-file splice
//!   per site.
//!
//! Inputs: generator kernels, the bundled benchmark kernels, random
//! expression-tree loops, macro sources, nests carrying pragmas or
//! comments, loops under `if`, `while` loops and value-less `return`s.

use std::collections::HashMap;

use nvc_datasets::{eval, generator, mibench, polybench, suite};
use nvc_embed::{
    extract_loop_samples, extract_path_contexts, normalize_terminals, EmbedConfig, Fnv1a, LoopSite,
    PathContext, PathSample,
};
use nvc_frontend::ast::{Expr, ExprKind, Function, Stmt, StmtKind};
use nvc_frontend::{
    extract_loops, inject_pragma, inject_pragmas, parse_statement, parse_translation_unit,
    ExtractedLoop, FrontendError, LoopPragma, Span,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// The hand-spelled pipeline `extract_loop_samples` must equal.
fn oracle_samples(source: &str, cfg: &EmbedConfig) -> Result<Vec<LoopSite>, FrontendError> {
    let tu = parse_translation_unit(source)?;
    Ok(extract_loops(&tu, source)
        .into_iter()
        .filter(|l| l.is_innermost)
        .filter_map(|l| {
            let stmt = parse_statement(&l.nest_text).ok()?;
            Some(LoopSite {
                function: l.function,
                header_line: l.header_line,
                sample: PathSample::from_contexts(
                    &extract_path_contexts(&stmt, cfg.max_paths),
                    cfg,
                ),
            })
        })
        .collect())
}

/// Path contexts by listing every leaf pair, then striding over the list.
mod all_pairs {
    use super::*;

    struct Node {
        label: &'static str,
        token: Option<String>,
        parent: Option<usize>,
        depth: usize,
    }

    #[derive(Default)]
    struct Tree {
        nodes: Vec<Node>,
        leaves: Vec<usize>,
        var_names: HashMap<String, String>,
    }

    impl Tree {
        fn add(
            &mut self,
            label: &'static str,
            token: Option<String>,
            parent: Option<usize>,
        ) -> usize {
            let depth = parent.map_or(0, |p| self.nodes[p].depth + 1);
            self.nodes.push(Node {
                label,
                token,
                parent,
                depth,
            });
            self.nodes.len() - 1
        }

        fn leaf(&mut self, label: &'static str, token: String, parent: usize) {
            let id = self.add(label, Some(token), Some(parent));
            self.leaves.push(id);
        }

        fn rename(&mut self, name: &str) -> String {
            let next = format!("VAR{}", self.var_names.len());
            self.var_names
                .entry(name.to_string())
                .or_insert(next)
                .clone()
        }
    }

    fn expr(b: &mut Tree, e: &Expr, parent: usize) {
        match &e.kind {
            ExprKind::IntLit(v) => b.leaf("IntLit", normalize_terminals(*v), parent),
            ExprKind::FloatLit(_) => b.leaf("FloatLit", "FLIT".into(), parent),
            ExprKind::Ident(name) => {
                let n = b.rename(name);
                b.leaf("Ident", n, parent);
            }
            ExprKind::Index { base, index } => {
                let id = b.add("Index", None, Some(parent));
                expr(b, base, id);
                expr(b, index, id);
            }
            ExprKind::Call { callee, args } => {
                let id = b.add("Call", None, Some(parent));
                b.leaf("Callee", callee.clone(), id);
                for a in args {
                    expr(b, a, id);
                }
            }
            ExprKind::Unary { op, operand } => {
                let id = b.add("Unary", None, Some(parent));
                b.leaf("UnOp", op.symbol().to_string(), id);
                expr(b, operand, id);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let id = b.add("Binary", None, Some(parent));
                expr(b, lhs, id);
                b.leaf("BinOp", op.symbol().to_string(), id);
                expr(b, rhs, id);
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let id = b.add("Ternary", None, Some(parent));
                expr(b, cond, id);
                expr(b, then_expr, id);
                expr(b, else_expr, id);
            }
            ExprKind::Cast { ty, operand } => {
                let id = b.add("Cast", None, Some(parent));
                b.leaf("Type", ty.c_name().to_string(), id);
                expr(b, operand, id);
            }
            ExprKind::Assign { op, target, value } => {
                let label = if op.is_some() {
                    "CompoundAssign"
                } else {
                    "Assign"
                };
                let id = b.add(label, None, Some(parent));
                expr(b, target, id);
                if let Some(op) = op {
                    b.leaf("BinOp", op.symbol().to_string(), id);
                }
                expr(b, value, id);
            }
            ExprKind::IncDec { target, delta, .. } => {
                let id = b.add("IncDec", None, Some(parent));
                expr(b, target, id);
                b.leaf("BinOp", if *delta > 0 { "++" } else { "--" }.into(), id);
            }
        }
    }

    fn stmt(b: &mut Tree, s: &Stmt, parent: Option<usize>) {
        match &s.kind {
            StmtKind::Block(stmts) => {
                let id = b.add("Block", None, parent);
                for st in stmts {
                    stmt(b, st, Some(id));
                }
            }
            StmtKind::Decl { ty, declarators } => {
                let id = b.add("Decl", None, parent);
                b.leaf("Type", ty.c_name().to_string(), id);
                for d in declarators {
                    let n = b.rename(&d.name);
                    b.leaf("Ident", n, id);
                    if let Some(init) = &d.init {
                        expr(b, init, id);
                    }
                }
            }
            StmtKind::Expr(e) => {
                let id = b.add("ExprStmt", None, parent);
                expr(b, e, id);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                let id = b.add("For", None, parent);
                if let Some(i) = init {
                    stmt(b, i, Some(id));
                }
                if let Some(c) = cond {
                    let cid = b.add("ForCond", None, Some(id));
                    expr(b, c, cid);
                }
                if let Some(st) = step {
                    let sid = b.add("ForStep", None, Some(id));
                    expr(b, st, sid);
                }
                stmt(b, body, Some(id));
            }
            StmtKind::While { cond, body, .. } => {
                let id = b.add("While", None, parent);
                let cid = b.add("WhileCond", None, Some(id));
                expr(b, cond, cid);
                stmt(b, body, Some(id));
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let id = b.add("If", None, parent);
                let cid = b.add("IfCond", None, Some(id));
                expr(b, cond, cid);
                stmt(b, then_branch, Some(id));
                if let Some(e) = else_branch {
                    stmt(b, e, Some(id));
                }
            }
            StmtKind::Return(e) => {
                let id = b.add("Return", None, parent);
                if let Some(e) = e {
                    expr(b, e, id);
                }
            }
            StmtKind::Break => {
                b.add("Break", None, parent);
            }
            StmtKind::Continue => {
                b.add("Continue", None, parent);
            }
            StmtKind::Empty => {
                b.add("Empty", None, parent);
            }
        }
    }

    fn render_path(b: &Tree, from: usize, to: usize) -> String {
        let mut ua = b.nodes[from].parent;
        let mut ub = b.nodes[to].parent;
        let mut up = Vec::new();
        let mut down = Vec::new();
        while let (Some(a), Some(bb)) = (ua, ub) {
            if a == bb {
                break;
            }
            if b.nodes[a].depth >= b.nodes[bb].depth {
                up.push(b.nodes[a].label);
                ua = b.nodes[a].parent;
            } else {
                down.push(b.nodes[bb].label);
                ub = b.nodes[bb].parent;
            }
        }
        let lca = match (ua, ub) {
            (Some(a), _) => b.nodes[a].label,
            _ => "Root",
        };
        let mut s = String::new();
        for l in &up {
            s.push_str(l);
            s.push('^');
        }
        s.push_str(lca);
        for l in down.iter().rev() {
            s.push('v');
            s.push_str(l);
        }
        s
    }

    pub fn contexts(s: &Stmt, max_paths: usize) -> Vec<PathContext> {
        let mut b = Tree::default();
        stmt(&mut b, s, None);
        let n = b.leaves.len();
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i, j));
            }
        }
        let selected: Vec<(usize, usize)> = if pairs.len() <= max_paths {
            pairs
        } else {
            let stride = pairs.len() as f64 / max_paths as f64;
            (0..max_paths)
                .map(|k| pairs[(k as f64 * stride) as usize])
                .collect()
        };
        selected
            .into_iter()
            .map(|(i, j)| {
                let (li, lj) = (b.leaves[i], b.leaves[j]);
                PathContext {
                    start: b.nodes[li].token.clone().unwrap_or_default(),
                    path: render_path(&b, li, lj),
                    end: b.nodes[lj].token.clone().unwrap_or_default(),
                }
            })
            .collect()
    }
}

/// Loops by recursing per loop, with a separate subtree scan for inner loops.
fn oracle_extract_loops(functions: Vec<&Function>, source: &str) -> Vec<ExtractedLoop> {
    fn visit(
        stmt: &Stmt,
        f: &Function,
        source: &str,
        depth: usize,
        nest_root: Option<Span>,
        out: &mut Vec<ExtractedLoop>,
    ) {
        match &stmt.kind {
            StmtKind::For { body, pragma, .. } | StmtKind::While { body, pragma, .. } => {
                let root = nest_root.unwrap_or(stmt.span);
                let mut has_inner = body.is_loop();
                body.walk(&mut |s| has_inner |= s.is_loop());
                out.push(ExtractedLoop {
                    function: f.name.clone(),
                    loop_index: out.len(),
                    depth,
                    is_innermost: !has_inner,
                    span: stmt.span,
                    nest_span: root,
                    header_line: stmt.span.line,
                    text: stmt.span.text(source).to_string(),
                    nest_text: root.text(source).to_string(),
                    pragma: *pragma,
                });
                visit(body, f, source, depth + 1, Some(root), out);
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit(then_branch, f, source, depth, nest_root, out);
                if let Some(e) = else_branch {
                    visit(e, f, source, depth, nest_root, out);
                }
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    visit(s, f, source, depth, nest_root, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for f in functions {
        visit(&f.body, f, source, 0, None, &mut out);
    }
    out
}

/// One whole-file splice per site, bottom-up: split, edit, join, repeat.
fn oracle_inject_pragmas(source: &str, sites: &[(u32, LoopPragma)]) -> String {
    fn splice(source: &str, header_line: u32, pragma: LoopPragma) -> String {
        let lines: Vec<&str> = source.split('\n').collect();
        let idx = (header_line as usize).saturating_sub(1).min(lines.len());
        let indent: String = lines
            .get(idx)
            .map(|l| l.chars().take_while(|c| c.is_whitespace()).collect())
            .unwrap_or_default();
        let mut out: Vec<String> = Vec::with_capacity(lines.len() + 1);
        for (i, line) in lines.iter().enumerate() {
            if i == idx {
                if out
                    .last()
                    .is_some_and(|prev| prev.trim_start().starts_with("#pragma clang loop"))
                {
                    out.pop();
                }
                out.push(format!("{indent}{pragma}"));
            }
            out.push((*line).to_string());
        }
        if idx == lines.len() {
            out.push(format!("{indent}{pragma}"));
        }
        out.join("\n")
    }
    let mut ordered: Vec<&(u32, LoopPragma)> = sites.iter().collect();
    ordered.sort_by_key(|&&(line, _)| std::cmp::Reverse(line));
    let mut out = source.to_string();
    for (line, pragma) in ordered {
        out = splice(&out, *line, *pragma);
    }
    out
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Hand-written sources for the cases the single pass treats specially.
const EDGE_SOURCES: &[&str] = &[
    // Example #3 of the paper: the nest uses a macro, so the file's tree
    // (255) and the nest text (MAX) differ and the text is re-parsed.
    "#define MAX 255
int a[8192]; int b[8192];
void example(int N) {
    int i;
    for (i=0; i<N*2; i++){
        int j = a[i];
        b[i] = (j > MAX ? MAX : 0);
    }
}",
    // Macros used outside any nest, an empty macro inside one, and a
    // macro defined inside a nest.
    "#define N 512
#define EMPTY
float a[N]; float b[N];
void f(int n) {
    for (int i = 0; i < N; i++) { a[i] = b[i]; }
    for (int i = 0; i < n; i++) { EMPTY a[i] = 2 * b[i]; }
    for (int i = 0; i < n; i++) {
#define K 3
        a[i] = b[i] + K;
    }
    for (int i = 0; i < n; i++) { b[i] = a[i] * a[i]; }
}",
    // Pragmas on outer and inner loops, comments everywhere.
    "float A[64][64]; float B[64][64];
void g(int n) {
    // outer
    #pragma clang loop vectorize_width(4) interleave_count(2)
    for (int i = 0; i < n; i++) { /* row */
        #pragma clang loop vectorize_width(8) interleave_count(1)
        for (int j = 0; j < n; j++) {
            A[i][j] = B[j][i]; // transpose
        }
        /* between */
        for (int j = 0; j < n; j++) { B[i][j] = 0; }
    }
}",
    // Loops under `if`, inside and outside a nest; `while` loops.
    "int a[256]; int b[256];
void h(int n, int flag) {
    if (flag) { for (int i = 0; i < n; i++) { a[i] = b[i]; } } else for (int i = 0; i < n; i++) a[i] = 0;
    for (int i = 0; i < 16; i++) {
        if (i > flag) { for (int j = 0; j < 16; j++) { a[i * 16 + j] = b[j]; } }
        else { int k = 0; while (k < 16) { b[k] += a[i]; k++; } }
    }
    int m = 0;
    while (m < n) { a[m] = -a[m]; m += 2; }
}",
    // A value-less `return` ends a nest's span before its `;`, so the nest
    // text does not re-parse and the loop is skipped.
    "int a[64];
void r(int n) {
    for (int i = 0; i < n; i++) if (a[i] < 0) return;
    for (int i = 0; i < n; i++) for (int j = 0; j < n; j++) return;
    for (int i = 0; i < n; i++) { if (a[i] == 0) return; a[i] = 1; }
    while (n > 0) n--;
}",
    // Multi-declarator globals, calls, casts, ternaries, float literals.
    "float x[1024], y[1024], z = 1.5f;
double w[2048];
void k(int n, float alpha) {
    for (int i = 0; i < n; i++) {
        x[i] = alpha * sqrtf(y[i]) + (float) w[2 * i] - (x[i] > 0.0 ? z : -z);
    }
}",
];

/// Loop headers indented with non-ASCII whitespace (U+3000, U+00A0),
/// which the lexer rejects but pragma injection must still indent by.
const WIDE_INDENT: &str = "int a[64];\nvoid u(int n) {\n\u{3000}for (int i = 0; i < n; i++) { a[i] = i; }\n\u{a0}\u{a0}for (int i = 0; i < n; i++) { a[i] += 1; }\n}";

fn bundled_sources() -> Vec<String> {
    let mut all = suite::llvm_suite();
    all.extend(eval::eval_benchmarks());
    all.extend(polybench::polybench());
    all.extend(mibench::mibench());
    all.into_iter().map(|k| k.source).collect()
}

fn corpus() -> Vec<String> {
    let mut sources = bundled_sources();
    sources.extend(
        generator::generate(20_201, 192)
            .into_iter()
            .map(|k| k.source),
    );
    sources.extend(EDGE_SOURCES.iter().map(|s| s.to_string()));
    sources
}

/// A random expression tree over `reads`, `depth` levels deep at most.
fn random_expr(rng: &mut ChaCha8Rng, depth: u32, reads: &[&str]) -> String {
    if depth == 0 || rng.gen_bool(0.25) {
        return match rng.gen_range(0..6) {
            0 => ["0", "1", "2", "3", "64", "100", "4096"][rng.gen_range(0..7usize)].to_string(),
            1 => "0.5f".to_string(),
            2 => "i".to_string(),
            3 => "n".to_string(),
            _ => {
                let offset = rng.gen_range(0..3);
                format!("{}[i + {offset}]", reads[rng.gen_range(0..reads.len())])
            }
        };
    }
    let a = random_expr(rng, depth - 1, reads);
    let b = random_expr(rng, depth - 1, reads);
    match rng.gen_range(0..8) {
        0 => format!("({a} + {b})"),
        1 => format!("{a} * {b}"),
        2 => format!("({a} - {b}) / 3"),
        3 => format!("({a} > {b} ? {a} : {b})"),
        4 => format!("-{a}"),
        5 => format!("(float) {a}"),
        6 => format!("fmaxf({a}, {b})"),
        _ => format!("{a} << 1 | {b} & 7"),
    }
}

/// A random file: several loop nests of random shape and bodies, with
/// macros, pragmas, comments, conditionals and `while` loops mixed in.
fn random_source(seed: u64) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reads = ["a", "b", "c"];
    let mut src = String::from("#define LEN 256\n#define SCALE 3\n");
    src.push_str("float a[4096], b[4096];\nfloat c[4096];\nfloat M[64][64];\n");
    src.push_str("void kernel(int n, float s) {\n");
    for l in 0..rng.gen_range(1..=5) {
        let depth = rng.gen_range(1..=5);
        let body = random_expr(&mut rng, depth, &reads);
        let body = if rng.gen_bool(0.15) {
            body.replacen(" n", " LEN", 1)
        } else {
            body
        };
        let stmt = match rng.gen_range(0..4) {
            0 => format!("a[i] = {body};"),
            1 => format!("s += {body};"),
            2 => format!("if (b[i] > SCALE) {{ c[i] = {body}; }} else c[i] = 0;"),
            _ => format!("float t{l} = {body};\n        b[i] = t{l} * t{l};"),
        };
        if rng.gen_bool(0.3) {
            src.push_str("    // a comment before the nest\n");
        }
        let hint = if rng.gen_bool(0.3) {
            "#pragma clang loop vectorize_width(4) interleave_count(2)\n    "
        } else {
            ""
        };
        match rng.gen_range(0..5) {
            0 => src.push_str(&format!(
                "    {hint}for (int i = 0; i < n; i++) {{\n        {stmt}\n    }}\n"
            )),
            1 => src.push_str(&format!(
                "    {hint}for (int r = 0; r < 64; r++) {{\n        for (int i = 0; i < 64; i++) {{ /* inner */\n            {stmt}\n            M[r][i] = a[i];\n        }}\n    }}\n"
            )),
            2 => src.push_str(&format!(
                "    if (n > 8) {{\n        {hint}for (int i = 0; i < n; i += 2) {{ {stmt} }}\n    }}\n"
            )),
            3 => src.push_str(&format!(
                "    {{ int i = 0;\n    {hint}while (i < n) {{\n        {stmt}\n        i++;\n    }} }}\n"
            )),
            _ => src.push_str(&format!(
                "    {hint}for (int r = 0; r < 4; r++) {{\n        for (int i = 0; i < n; i++) {{ {stmt} }}\n        for (int i = 0; i < LEN; i++) {{ a[i] = b[i] * r; }}\n    }}\n"
            )),
        }
    }
    src.push_str("}\n");
    src
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

fn assert_pipeline_parity(source: &str, cfg: &EmbedConfig) {
    let tu = parse_translation_unit(source).expect("corpus sources parse");
    let loops = extract_loops(&tu, source);
    assert_eq!(
        loops,
        oracle_extract_loops(tu.functions().collect(), source),
        "extract_loops\n{source}"
    );
    for l in loops.iter().filter(|l| l.is_innermost) {
        if let Ok(stmt) = parse_statement(&l.nest_text) {
            assert_eq!(
                extract_path_contexts(&stmt, cfg.max_paths),
                all_pairs::contexts(&stmt, cfg.max_paths),
                "path contexts of\n{}",
                l.nest_text
            );
        }
    }
    let sites = extract_loop_samples(source, cfg).expect("parses");
    assert_eq!(
        sites,
        oracle_samples(source, cfg).unwrap(),
        "samples\n{source}"
    );
}

#[test]
fn loop_samples_match_the_nest_reparse_oracle_on_the_corpus() {
    for cfg in [EmbedConfig::fast(), EmbedConfig::paper()] {
        for source in corpus() {
            assert_pipeline_parity(&source, &cfg);
        }
    }
}

#[test]
fn macro_nests_are_sampled_from_their_text() {
    // Without the re-parse, Example #3's sample would hash `255`
    // (LITBIG) where the text says `MAX` (a variable).
    let cfg = EmbedConfig::fast();
    let sites = extract_loop_samples(EDGE_SOURCES[0], &cfg).unwrap();
    let tu = parse_translation_unit(EDGE_SOURCES[0]).unwrap();
    let nest = tu.functions().next().unwrap().body.clone();
    let StmtKind::Block(stmts) = nest.kind else {
        unreachable!()
    };
    let from_file_tree = PathSample::from_stmt(&stmts[1], &cfg);
    assert_eq!(sites.len(), 1);
    assert_ne!(sites[0].sample, from_file_tree);
    assert_eq!(sites, oracle_samples(EDGE_SOURCES[0], &cfg).unwrap());
}

#[test]
fn loops_whose_nest_text_does_not_reparse_are_skipped() {
    let sites = extract_loop_samples(EDGE_SOURCES[4], &EmbedConfig::fast()).unwrap();
    let lines: Vec<u32> = sites.iter().map(|s| s.header_line).collect();
    assert_eq!(lines, vec![5, 6], "only the braced nest and the while loop");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn loop_samples_match_the_oracle_on_random_sources(seed in 0u64..u64::MAX) {
        let source = random_source(seed);
        assert_pipeline_parity(&source, &EmbedConfig::fast());
    }

    #[test]
    fn path_contexts_match_all_pairs_at_every_cap(seed in 0u64..u64::MAX, cap in 0usize..300) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let body = random_expr(&mut rng, 6, &["a", "b"]);
        let stmt = parse_statement(&format!("for (int i = 0; i < n; i++) {{ a[i] = {body}; }}"))
            .unwrap();
        prop_assert_eq!(extract_path_contexts(&stmt, cap), all_pairs::contexts(&stmt, cap));
        let mut cfg = EmbedConfig::fast();
        cfg.max_paths = cap;
        prop_assert_eq!(
            PathSample::from_stmt(&stmt, &cfg),
            PathSample::from_contexts(&all_pairs::contexts(&stmt, cap), &cfg)
        );
    }
}

// ---------------------------------------------------------------------
// Pragma injection
// ---------------------------------------------------------------------

fn pragma(vf: u32, if_: u32) -> LoopPragma {
    LoopPragma {
        vectorize_width: vf,
        interleave_count: if_,
    }
}

#[test]
fn inject_pragmas_matches_the_per_site_splice() {
    let cases: Vec<(&str, Vec<(u32, LoopPragma)>)> = vec![
        // Two sites on one header line, in both orders.
        (EDGE_SOURCES[3], vec![(3, pragma(4, 1)), (3, pragma(8, 2))]),
        (
            EDGE_SOURCES[3],
            vec![(3, pragma(8, 2)), (3, pragma(4, 1)), (9, pragma(2, 2))],
        ),
        // Headers past EOF, at line 0, and on the last line.
        (
            "int x;\nint y;",
            vec![(99, pragma(2, 1)), (40, pragma(4, 4))],
        ),
        ("int x;", vec![(0, pragma(2, 1)), (1, pragma(16, 8))]),
        ("", vec![(1, pragma(2, 1)), (2, pragma(4, 1))]),
        // Replacement of existing `#pragma clang loop` lines.
        (
            EDGE_SOURCES[2],
            vec![(5, pragma(16, 4)), (7, pragma(2, 1)), (11, pragma(8, 8))],
        ),
        // Non-ASCII indentation.
        (WIDE_INDENT, vec![(3, pragma(8, 1)), (4, pragma(4, 2))]),
        (
            "x;\n\t \u{3000}\u{a0}#pragma clang loop vectorize_width(2)\n\u{2003}for",
            vec![(3, pragma(64, 16))],
        ),
    ];
    for (source, sites) in &cases {
        assert_eq!(
            inject_pragmas(source, sites),
            oracle_inject_pragmas(source, sites),
            "{source:?} {sites:?}"
        );
        for &(line, p) in sites {
            assert_eq!(
                inject_pragma(source, line, p),
                oracle_inject_pragmas(source, &[(line, p)])
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn inject_pragmas_matches_the_per_site_splice_on_random_sites(seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sources = corpus();
        let source = &sources[rng.gen_range(0..sources.len())];
        let lines = source.split('\n').count() as u32;
        let sites: Vec<(u32, LoopPragma)> = (0..rng.gen_range(0..12))
            .map(|_| {
                let p = pragma(1 << rng.gen_range(0..7u32), 1 << rng.gen_range(0..5u32));
                (rng.gen_range(0..lines + 3), p)
            })
            .collect();
        prop_assert_eq!(inject_pragmas(source, &sites), oracle_inject_pragmas(source, &sites));
    }
}

#[test]
fn served_annotations_match_the_per_site_splice_on_the_corpus() {
    // The sites a server would annotate: every decidable innermost loop.
    let cfg = EmbedConfig::fast();
    for source in corpus() {
        let sites: Vec<(u32, LoopPragma)> = extract_loop_samples(&source, &cfg)
            .unwrap()
            .iter()
            .map(|s| {
                let mut h = Fnv1a::new();
                h.write(&(s.sample.len() as u64).to_le_bytes());
                let bits = h.finish();
                (
                    s.header_line,
                    pragma(1 << (bits % 7), 1 << ((bits >> 8) % 5)),
                )
            })
            .collect();
        assert_eq!(
            inject_pragmas(&source, &sites),
            oracle_inject_pragmas(&source, &sites)
        );
    }
}
