//! AST path-context extraction (the code2vec front half).
//!
//! A loop statement is flattened into a tree of labelled nodes; each leaf
//! carries a normalized terminal token. A *path context* is a pair of
//! terminals plus the up-then-down sequence of interior node labels
//! connecting them.
//!
//! One tree builder serves both products of this module. The tree borrows
//! its terminals from the statement (identifiers become occurrence-ordered
//! `VARn` placeholders, literals their magnitude bucket), and one walk
//! visits exactly the leaf pairs a sample keeps, computing each pair's
//! position in the all-pairs order instead of listing every pair.
//! [`extract_path_contexts`] renders the kept paths as strings;
//! [`crate::PathSample::from_stmt`] feeds the same bytes straight into
//! [`Fnv1a`] and so never allocates a token or path string.

use nvc_frontend::ast::{Expr, ExprKind, Stmt, StmtKind};
use std::collections::HashMap;

use crate::model::EmbedConfig;
use crate::vocab::{Fnv1a, PathSample};

/// One leaf-to-leaf path context: `(start terminal, path string, end
/// terminal)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathContext {
    /// Normalized token at the start leaf.
    pub start: String,
    /// Rendered interior path (node labels with ↑/↓ direction markers).
    pub path: String,
    /// Normalized token at the end leaf.
    pub end: String,
}

/// Where rendered terminals and paths go: a `String`, or a hasher.
trait Sink {
    fn put(&mut self, s: &str);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl Sink for Fnv1a {
    fn put(&mut self, s: &str) {
        self.write(s.as_bytes());
    }
}

/// A leaf's normalized token, borrowed from the statement or a label table.
#[derive(Debug, Clone, Copy)]
enum Terminal<'a> {
    Text(&'a str),
    /// The `n`-th distinct variable of the statement, rendered `VAR{n}`.
    Var(usize),
}

impl Terminal<'_> {
    fn write_to(self, out: &mut impl Sink) {
        match self {
            Terminal::Text(s) => out.put(s),
            Terminal::Var(n) => {
                out.put("VAR");
                let mut digits = [0u8; 20];
                let mut at = digits.len();
                let mut rest = n;
                loop {
                    at -= 1;
                    digits[at] = b'0' + (rest % 10) as u8;
                    rest /= 10;
                    if rest == 0 {
                        break;
                    }
                }
                out.put(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
            }
        }
    }

    fn render(self) -> String {
        let mut s = String::new();
        self.write_to(&mut s);
        s
    }
}

/// Internal flattened AST node.
#[derive(Debug)]
struct TreeNode {
    label: &'static str,
    parent: Option<usize>,
    depth: usize,
}

/// The labelled tree of one statement, with its leaves in source order.
#[derive(Debug, Default)]
struct PathTree<'a> {
    nodes: Vec<TreeNode>,
    /// `(node, terminal)` of every leaf, in source order.
    leaves: Vec<(usize, Terminal<'a>)>,
    /// Occurrence-ordered variable numbering.
    var_names: HashMap<&'a str, usize>,
}

impl<'a> PathTree<'a> {
    fn build(stmt: &'a Stmt) -> Self {
        let mut tree = PathTree::default();
        build_stmt(&mut tree, stmt, None);
        tree
    }

    fn add(&mut self, label: &'static str, parent: Option<usize>) -> usize {
        let depth = parent.map_or(0, |p| self.nodes[p].depth + 1);
        self.nodes.push(TreeNode {
            label,
            parent,
            depth,
        });
        self.nodes.len() - 1
    }

    fn leaf(&mut self, label: &'static str, token: Terminal<'a>, parent: usize) {
        let id = self.add(label, Some(parent));
        self.leaves.push((id, token));
    }

    fn var(&mut self, name: &'a str) -> Terminal<'a> {
        let next = self.var_names.len();
        Terminal::Var(*self.var_names.entry(name).or_insert(next))
    }

    /// Visits the leaf pairs a sample of at most `max_paths` keeps, in
    /// order. All pairs `(i, j)`, `i < j`, are numbered row by row; when
    /// there are more than `max_paths`, pair `⌊k · stride⌋` is kept for
    /// each `k`, so the selection spreads over the whole loop body rather
    /// than concentrating at its start.
    fn for_each_sampled_pair(&self, max_paths: usize, mut visit: impl FnMut(usize, usize)) {
        let n = self.leaves.len();
        let total = n * n.saturating_sub(1) / 2;
        if total <= max_paths {
            for i in 0..n {
                for j in (i + 1)..n {
                    visit(i, j);
                }
            }
            return;
        }
        let stride = total as f64 / max_paths as f64;
        // Row `i` holds pairs `row_start .. row_start + (n - 1 - i)`.
        let (mut i, mut row_start) = (0, 0);
        for k in 0..max_paths {
            let pair = (k as f64 * stride) as usize;
            while pair >= row_start + (n - 1 - i) {
                row_start += n - 1 - i;
                i += 1;
            }
            visit(i, i + 1 + (pair - row_start));
        }
    }

    /// Writes the path between two leaves: up to the lowest common
    /// ancestor, then down. `down` is scratch space.
    fn write_path(
        &self,
        from: usize,
        to: usize,
        down: &mut Vec<&'static str>,
        out: &mut impl Sink,
    ) {
        // Walk both up to equal depth, then in lockstep to the LCA.
        let nodes = &self.nodes;
        let mut ua = nodes[self.leaves[from].0].parent;
        let mut ub = nodes[self.leaves[to].0].parent;
        down.clear();
        while let (Some(a), Some(b)) = (ua, ub) {
            if a == b {
                break;
            }
            if nodes[a].depth >= nodes[b].depth {
                out.put(nodes[a].label);
                out.put("^");
                ua = nodes[a].parent;
            } else {
                down.push(nodes[b].label);
                ub = nodes[b].parent;
            }
        }
        out.put(match ua {
            Some(a) => nodes[a].label,
            None => "Root",
        });
        for label in down.iter().rev() {
            out.put("v");
            out.put(label);
        }
    }
}

/// The magnitude bucket of an integer literal.
fn literal_bucket(v: i64) -> &'static str {
    match v {
        0 => "LIT0",
        1 => "LIT1",
        2 => "LIT2",
        v if v > 2 && (v as u64).is_power_of_two() => "LITPOW2",
        v if (3..=64).contains(&v) => "LITSMALL",
        v if v < 0 => "LITNEG",
        _ => "LITBIG",
    }
}

/// Buckets numeric literals so magnitudes, not exact values, shape the
/// embedding.
pub fn normalize_terminals(v: i64) -> String {
    literal_bucket(v).to_string()
}

fn build_expr<'a>(b: &mut PathTree<'a>, e: &'a Expr, parent: usize) {
    match &e.kind {
        ExprKind::IntLit(v) => b.leaf("IntLit", Terminal::Text(literal_bucket(*v)), parent),
        ExprKind::FloatLit(_) => b.leaf("FloatLit", Terminal::Text("FLIT"), parent),
        ExprKind::Ident(name) => {
            let n = b.var(name);
            b.leaf("Ident", n, parent);
        }
        ExprKind::Index { base, index } => {
            let id = b.add("Index", Some(parent));
            build_expr(b, base, id);
            build_expr(b, index, id);
        }
        ExprKind::Call { callee, args } => {
            let id = b.add("Call", Some(parent));
            // Callee names are semantic (sqrtf vs foo); keep them verbatim.
            b.leaf("Callee", Terminal::Text(callee), id);
            for a in args {
                build_expr(b, a, id);
            }
        }
        ExprKind::Unary { op, operand } => {
            let id = b.add("Unary", Some(parent));
            b.leaf("UnOp", Terminal::Text(op.symbol()), id);
            build_expr(b, operand, id);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let id = b.add("Binary", Some(parent));
            build_expr(b, lhs, id);
            b.leaf("BinOp", Terminal::Text(op.symbol()), id);
            build_expr(b, rhs, id);
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            let id = b.add("Ternary", Some(parent));
            build_expr(b, cond, id);
            build_expr(b, then_expr, id);
            build_expr(b, else_expr, id);
        }
        ExprKind::Cast { ty, operand } => {
            let id = b.add("Cast", Some(parent));
            b.leaf("Type", Terminal::Text(ty.c_name()), id);
            build_expr(b, operand, id);
        }
        ExprKind::Assign { op, target, value } => {
            let label = if op.is_some() {
                "CompoundAssign"
            } else {
                "Assign"
            };
            let id = b.add(label, Some(parent));
            build_expr(b, target, id);
            if let Some(op) = op {
                b.leaf("BinOp", Terminal::Text(op.symbol()), id);
            }
            build_expr(b, value, id);
        }
        ExprKind::IncDec { target, delta, .. } => {
            let id = b.add("IncDec", Some(parent));
            build_expr(b, target, id);
            let op = if *delta > 0 { "++" } else { "--" };
            b.leaf("BinOp", Terminal::Text(op), id);
        }
    }
}

fn build_stmt<'a>(b: &mut PathTree<'a>, s: &'a Stmt, parent: Option<usize>) -> usize {
    match &s.kind {
        StmtKind::Block(stmts) => {
            let id = b.add("Block", parent);
            for st in stmts {
                build_stmt(b, st, Some(id));
            }
            id
        }
        StmtKind::Decl { ty, declarators } => {
            let id = b.add("Decl", parent);
            b.leaf("Type", Terminal::Text(ty.c_name()), id);
            for d in declarators {
                let n = b.var(&d.name);
                b.leaf("Ident", n, id);
                if let Some(init) = &d.init {
                    build_expr(b, init, id);
                }
            }
            id
        }
        StmtKind::Expr(e) => {
            let id = b.add("ExprStmt", parent);
            build_expr(b, e, id);
            id
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            let id = b.add("For", parent);
            if let Some(i) = init {
                build_stmt(b, i, Some(id));
            }
            if let Some(c) = cond {
                let cid = b.add("ForCond", Some(id));
                build_expr(b, c, cid);
            }
            if let Some(st) = step {
                let sid = b.add("ForStep", Some(id));
                build_expr(b, st, sid);
            }
            build_stmt(b, body, Some(id));
            id
        }
        StmtKind::While { cond, body, .. } => {
            let id = b.add("While", parent);
            let cid = b.add("WhileCond", Some(id));
            build_expr(b, cond, cid);
            build_stmt(b, body, Some(id));
            id
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let id = b.add("If", parent);
            let cid = b.add("IfCond", Some(id));
            build_expr(b, cond, cid);
            build_stmt(b, then_branch, Some(id));
            if let Some(e) = else_branch {
                build_stmt(b, e, Some(id));
            }
            id
        }
        StmtKind::Return(e) => {
            let id = b.add("Return", parent);
            if let Some(e) = e {
                build_expr(b, e, id);
            }
            id
        }
        StmtKind::Break => b.add("Break", parent),
        StmtKind::Continue => b.add("Continue", parent),
        StmtKind::Empty => b.add("Empty", parent),
    }
}

/// Extracts up to `max_paths` path contexts from a loop statement.
///
/// All leaf pairs are ordered deterministically; when there are more than
/// `max_paths`, pairs are subsampled with a deterministic stride so the
/// selection spreads over the whole loop body rather than concentrating
/// at its start.
pub fn extract_path_contexts(stmt: &Stmt, max_paths: usize) -> Vec<PathContext> {
    let tree = PathTree::build(stmt);
    let mut down = Vec::new();
    let mut out = Vec::new();
    tree.for_each_sampled_pair(max_paths, |i, j| {
        let mut path = String::new();
        tree.write_path(i, j, &mut down, &mut path);
        out.push(PathContext {
            start: tree.leaves[i].1.render(),
            path,
            end: tree.leaves[j].1.render(),
        });
    });
    out
}

/// The [`PathSample`] of `stmt`: what hashing
/// `extract_path_contexts(stmt, cfg.max_paths)` gives, hashed in place.
pub(crate) fn sample_stmt(stmt: &Stmt, cfg: &EmbedConfig) -> PathSample {
    let tree = PathTree::build(stmt);
    let (t, p) = (cfg.token_buckets as u64, cfg.path_buckets as u64);
    let token_rows: Vec<usize> = tree
        .leaves
        .iter()
        .map(|(_, token)| {
            let mut h = Fnv1a::new();
            token.write_to(&mut h);
            (h.finish() % t) as usize
        })
        .collect();
    let mut sample = PathSample {
        starts: Vec::new(),
        paths: Vec::new(),
        ends: Vec::new(),
    };
    let mut down = Vec::new();
    tree.for_each_sampled_pair(cfg.max_paths, |i, j| {
        let mut h = Fnv1a::new();
        tree.write_path(i, j, &mut down, &mut h);
        sample.starts.push(token_rows[i]);
        sample.paths.push((h.finish() % p) as usize);
        sample.ends.push(token_rows[j]);
    });
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_frontend::parse_statement;

    fn contexts(src: &str) -> Vec<PathContext> {
        extract_path_contexts(&parse_statement(src).unwrap(), 64)
    }

    #[test]
    fn simple_loop_produces_paths() {
        let c = contexts("for (int i = 0; i < n; i++) { a[i] = b[i]; }");
        assert!(!c.is_empty());
        // Terminals are normalized.
        assert!(c
            .iter()
            .any(|p| p.start.starts_with("VAR") || p.end.starts_with("VAR")));
    }

    #[test]
    fn extraction_is_deterministic() {
        let src = "for (int i = 0; i < n; i++) { s += a[i] * b[i]; }";
        assert_eq!(contexts(src), contexts(src));
    }

    #[test]
    fn renaming_is_alpha_invariant() {
        let c1 = contexts("for (int i = 0; i < n; i++) { total += x[i]; }");
        let c2 = contexts("for (int j = 0; j < m; j++) { acc += y[j]; }");
        assert_eq!(c1, c2);
    }

    #[test]
    fn literal_buckets() {
        assert_eq!(normalize_terminals(0), "LIT0");
        assert_eq!(normalize_terminals(1), "LIT1");
        assert_eq!(normalize_terminals(2), "LIT2");
        assert_eq!(normalize_terminals(64), "LITPOW2");
        assert_eq!(normalize_terminals(37), "LITSMALL");
        assert_eq!(normalize_terminals(100000), "LITBIG");
        assert_eq!(normalize_terminals(-5), "LITNEG");
    }

    #[test]
    fn literal_magnitude_does_not_change_small_constants() {
        // 37 and 41 both bucket to LITSMALL → identical path sets.
        let c1 = contexts("for (int i = 0; i < 37; i++) { a[i] = 0; }");
        let c2 = contexts("for (int i = 0; i < 41; i++) { a[i] = 0; }");
        assert_eq!(c1, c2);
    }

    #[test]
    fn operators_are_terminals() {
        let c = contexts("for (int i = 0; i < n; i++) { a[i] = b[i] * c[i]; }");
        assert!(c.iter().any(|p| p.start == "*" || p.end == "*"));
    }

    #[test]
    fn max_paths_caps_output() {
        let src = "for (int i = 0; i < n; i++) { a[i] = b[i]*c[i] + d[i]*e[i] - f[i]; }";
        let stmt = parse_statement(src).unwrap();
        let c = extract_path_contexts(&stmt, 10);
        assert_eq!(c.len(), 10);
        // Subsampling spreads: first and last pairs differ.
        assert_ne!(c.first(), c.last());
    }

    #[test]
    fn paths_have_direction_markers() {
        let c = contexts("for (int i = 0; i < n; i++) { a[i] = b[i]; }");
        assert!(c
            .iter()
            .any(|p| p.path.contains('^') && p.path.contains('v')));
    }

    #[test]
    fn casts_and_calls_surface_in_terminals() {
        let c = contexts("for (int i = 0; i < n; i++) { a[i] = (int) sqrtf(b[i]); }");
        assert!(c.iter().any(|p| p.start == "sqrtf" || p.end == "sqrtf"));
        assert!(c.iter().any(|p| p.start == "int" || p.end == "int"));
    }

    #[test]
    fn nested_loops_mention_for_twice_in_paths() {
        let c = contexts("for (int i = 0; i < n; i++) for (int j = 0; j < n; j++) a[j] = i;");
        assert!(c.iter().any(|p| {
            let ups = p.path.matches("For").count();
            ups >= 2
        }));
    }
}
