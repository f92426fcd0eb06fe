//! Loop extraction: the first stage of the NeuroVectorizer pipeline.
//!
//! The paper's framework "reads the programs to extract the loops. The loop
//! texts are fed to the code embedding generator" (§3, Figure 3). Two details
//! matter and are reproduced here:
//!
//! * pragmas are injected **on the innermost loop** of a nest (§3), and
//! * the embedding input is **the body of the outermost enclosing loop**,
//!   which the authors found to work better than the innermost body alone
//!   (§3.3).

use crate::ast::{Function, LoopPragma, Stmt, StmtKind, TranslationUnit};
use crate::lexer::Span;

/// One loop found in a translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedLoop {
    /// Name of the enclosing function.
    pub function: String,
    /// Index of this loop in source order within the translation unit.
    pub loop_index: usize,
    /// Nesting depth: 0 for a top-level loop in the function.
    pub depth: usize,
    /// True when no other loop is nested inside this one.
    pub is_innermost: bool,
    /// Span of the whole loop statement (header + body).
    pub span: Span,
    /// Span of the outermost loop of the nest containing this loop.
    pub nest_span: Span,
    /// 1-based line of the loop header (`for`/`while` keyword) — where a
    /// pragma line would be inserted.
    pub header_line: u32,
    /// Source text of this loop.
    pub text: String,
    /// Source text of the outermost enclosing loop (the embedding input).
    pub nest_text: String,
    /// Pragma already attached to the loop, if any.
    pub pragma: Option<LoopPragma>,
}

impl ExtractedLoop {
    /// The text the code embedding generator should consume, following the
    /// paper's finding that the outer loop body works best for nests.
    pub fn embedding_text(&self) -> &str {
        &self.nest_text
    }
}

/// One loop of a translation unit, borrowed from its tree.
#[derive(Debug, Clone, Copy)]
pub struct LoopRef<'a> {
    /// The enclosing function.
    pub function: &'a Function,
    /// The loop statement.
    pub stmt: &'a Stmt,
    /// The outermost loop of the nest containing `stmt` (`stmt` itself for
    /// a loop no other loop encloses).
    pub nest: &'a Stmt,
    /// Nesting depth: 0 for a top-level loop in the function.
    pub depth: usize,
    /// True when no other loop is nested inside this one.
    pub is_innermost: bool,
}

/// Every loop of `tu` in source order (a loop before the loops inside it),
/// found in one walk over the tree.
pub fn walk_loops(tu: &TranslationUnit) -> Vec<LoopRef<'_>> {
    let mut out = Vec::new();
    for f in tu.functions() {
        walk_stmt(&f.body, f, 0, None, &mut out);
    }
    out
}

/// Extracts every loop from `tu`, in source order.
///
/// `source` must be the exact text `tu` was parsed from; it is used to slice
/// loop snippets.
pub fn extract_loops(tu: &TranslationUnit, source: &str) -> Vec<ExtractedLoop> {
    walk_loops(tu)
        .into_iter()
        .enumerate()
        .map(|(loop_index, l)| ExtractedLoop {
            function: l.function.name.clone(),
            loop_index,
            depth: l.depth,
            is_innermost: l.is_innermost,
            span: l.stmt.span,
            nest_span: l.nest.span,
            header_line: l.stmt.span.line,
            text: l.stmt.span.text(source).to_string(),
            nest_text: l.nest.span.text(source).to_string(),
            pragma: match &l.stmt.kind {
                StmtKind::For { pragma, .. } | StmtKind::While { pragma, .. } => *pragma,
                _ => None,
            },
        })
        .collect()
}

/// Appends the loops under `stmt` to `out`; returns whether there were any.
fn walk_stmt<'a>(
    stmt: &'a Stmt,
    function: &'a Function,
    depth: usize,
    nest: Option<&'a Stmt>,
    out: &mut Vec<LoopRef<'a>>,
) -> bool {
    match &stmt.kind {
        StmtKind::For { body, .. } | StmtKind::While { body, .. } => {
            let nest = nest.unwrap_or(stmt);
            let at = out.len();
            out.push(LoopRef {
                function,
                stmt,
                nest,
                depth,
                is_innermost: true,
            });
            out[at].is_innermost = !walk_stmt(body, function, depth + 1, Some(nest), out);
            true
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            // A loop under a conditional joins the enclosing nest, if any.
            let then_loops = walk_stmt(then_branch, function, depth, nest, out);
            let else_loops = else_branch
                .as_ref()
                .is_some_and(|e| walk_stmt(e, function, depth, nest, out));
            then_loops || else_loops
        }
        StmtKind::Block(stmts) => {
            let mut any = false;
            for s in stmts {
                any |= walk_stmt(s, function, depth, nest, out);
            }
            any
        }
        _ => false,
    }
}

/// Finds the innermost loops of every nest — the loops the agent vectorizes.
pub fn innermost_loops(tu: &TranslationUnit, source: &str) -> Vec<ExtractedLoop> {
    extract_loops(tu, source)
        .into_iter()
        .filter(|l| l.is_innermost)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_translation_unit;

    const MATMUL: &str = "float A[64][64]; float B[64][64]; float C[64][64];
void mm(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            float s = 0;
            for (int k = 0; k < n; k++) {
                s += A[i][k] * B[k][j];
            }
            C[i][j] = s;
        }
    }
}";

    #[test]
    fn finds_all_loops_with_depths() {
        let tu = parse_translation_unit(MATMUL).unwrap();
        let loops = extract_loops(&tu, MATMUL);
        assert_eq!(loops.len(), 3);
        assert_eq!(loops[0].depth, 0);
        assert_eq!(loops[1].depth, 1);
        assert_eq!(loops[2].depth, 2);
    }

    #[test]
    fn innermost_flag_is_exact() {
        let tu = parse_translation_unit(MATMUL).unwrap();
        let loops = extract_loops(&tu, MATMUL);
        assert!(!loops[0].is_innermost);
        assert!(!loops[1].is_innermost);
        assert!(loops[2].is_innermost);
        assert_eq!(innermost_loops(&tu, MATMUL).len(), 1);
    }

    #[test]
    fn nest_text_is_outermost_loop() {
        let tu = parse_translation_unit(MATMUL).unwrap();
        let loops = extract_loops(&tu, MATMUL);
        let inner = &loops[2];
        assert!(inner.text.starts_with("for (int k"));
        assert!(inner.nest_text.starts_with("for (int i"));
        assert_eq!(inner.embedding_text(), inner.nest_text);
    }

    #[test]
    fn sibling_loops_are_separate_nests() {
        let src = "int a[64]; int b[64];
void f(int n) {
    for (int i = 0; i < n; i++) { a[i] = 0; }
    for (int j = 0; j < n; j++) { b[j] = 1; }
}";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 2);
        assert!(loops.iter().all(|l| l.is_innermost));
        assert!(loops[0].nest_text.contains("a[i]"));
        assert!(loops[1].nest_text.contains("b[j]"));
        assert_ne!(loops[0].nest_span, loops[1].nest_span);
    }

    #[test]
    fn header_line_points_at_for() {
        let src = "int a[8];\nvoid f() {\n\n    for (int i = 0; i < 8; i++) { a[i] = i; }\n}";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops[0].header_line, 4);
    }

    #[test]
    fn loop_under_if_is_extracted() {
        let src = "int a[64];\nvoid f(int n, int flag) { if (flag) { for (int i=0;i<n;i++) { a[i] = 0; } } }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].is_innermost);
    }

    #[test]
    fn while_loops_are_extracted() {
        let src = "void f(int n) { int i = 0; while (i < n) { i++; } }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn loop_indices_are_sequential_across_functions() {
        let src = "int a[8];\nvoid f() { for (int i=0;i<8;i++) a[i]=0; }\nvoid g() { for (int i=0;i<8;i++) a[i]=1; }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].loop_index, 0);
        assert_eq!(loops[1].loop_index, 1);
        assert_eq!(loops[0].function, "f");
        assert_eq!(loops[1].function, "g");
    }

    #[test]
    fn body_directly_a_loop_counts_as_nested() {
        let src =
            "int a[64];\nvoid f(int n) { for (int i=0;i<n;i++) for (int j=0;j<n;j++) a[j] = i; }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(loops.len(), 2);
        assert!(!loops[0].is_innermost);
        assert!(loops[1].is_innermost);
        assert_eq!(loops[1].nest_text, loops[0].text);
    }

    #[test]
    fn existing_pragma_is_reported() {
        let src = "int a[64]; int b[64];\nvoid f(int n) {\n#pragma clang loop vectorize_width(4) interleave_count(2)\nfor (int i=0;i<n;i++) { a[i] = b[i]; } }";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        assert_eq!(
            loops[0].pragma,
            Some(LoopPragma {
                vectorize_width: 4,
                interleave_count: 2
            })
        );
    }
}
