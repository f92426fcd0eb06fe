//! Pragma injection — how the agent communicates its decision to the
//! compiler.
//!
//! Figure 4 of the paper shows the agent automatically inserting
//! `#pragma clang loop vectorize_width(VF) interleave_count(IF)` directly
//! above the targeted (innermost) loop. We reproduce that as a *text splice*:
//! the original file is preserved byte-for-byte except for the inserted
//! pragma lines, exactly like the paper's framework edits source files.
//!
//! A whole file's decisions are spliced in one pass: the file is split into
//! lines once, each site's edit is applied to that list from the bottom of
//! the file up (so a site's header line still indexes the original text),
//! and the lines are joined once.

use std::borrow::Cow;
use std::cmp::Reverse;

use crate::ast::LoopPragma;

const LOOP_PRAGMA: &str = "#pragma clang loop";

/// Injects `pragma` on its own line immediately above `header_line`
/// (1-based), using the indentation of that line.
///
/// Any existing `#pragma clang loop` line directly above the header is
/// replaced, so repeated injection is idempotent rather than accumulating
/// stale hints. A header past the end of the file appends the pragma.
pub fn inject_pragma(source: &str, header_line: u32, pragma: LoopPragma) -> String {
    inject_pragmas(source, &[(header_line, pragma)])
}

/// Injects a pragma above each `(header_line, pragma)` site as
/// [`inject_pragma`] would, one site after another from the bottom of the
/// file up, so earlier header lines stay valid while later ones shift.
/// Sites on the same line apply in input order; otherwise the input order
/// does not matter.
pub fn inject_pragmas(source: &str, sites: &[(u32, LoopPragma)]) -> String {
    let mut ordered: Vec<&(u32, LoopPragma)> = sites.iter().collect();
    ordered.sort_by_key(|&&(line, _)| Reverse(line));
    let mut lines: Vec<Cow<'_, str>> = source.split('\n').map(Cow::Borrowed).collect();
    for &(header_line, pragma) in ordered {
        let idx = (header_line as usize).saturating_sub(1).min(lines.len());
        let Some(header) = lines.get(idx) else {
            lines.push(Cow::Owned(pragma.to_string()));
            continue;
        };
        let indent_len: usize = header
            .chars()
            .take_while(|c| c.is_whitespace())
            .map(char::len_utf8)
            .sum();
        let line = Cow::Owned(format!("{}{pragma}", &header[..indent_len]));
        // Replace an existing hint directly above the loop.
        match idx.checked_sub(1) {
            Some(above) if lines[above].trim_start().starts_with(LOOP_PRAGMA) => {
                lines[above] = line;
            }
            _ => lines.insert(idx, line),
        }
    }
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(line);
    }
    out
}

/// Removes every `#pragma clang loop` line from `source`.
///
/// Used to obtain the baseline variant of a file (the compiler's own cost
/// model decides) from an agent-annotated variant.
pub fn strip_pragmas(source: &str) -> String {
    source
        .split('\n')
        .filter(|l| !l.trim_start().starts_with(LOOP_PRAGMA))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_loops;
    use crate::parse_translation_unit;

    const SRC: &str = "int a[64]; int b[64];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2;
    }
}";

    fn pragma(vf: u32, ifc: u32) -> LoopPragma {
        LoopPragma {
            vectorize_width: vf,
            interleave_count: ifc,
        }
    }

    #[test]
    fn inject_places_pragma_above_loop_with_indent() {
        let tu = parse_translation_unit(SRC).unwrap();
        let loops = extract_loops(&tu, SRC);
        let out = inject_pragma(SRC, loops[0].header_line, pragma(8, 4));
        let lines: Vec<&str> = out.split('\n').collect();
        assert_eq!(
            lines[2],
            "    #pragma clang loop vectorize_width(8) interleave_count(4)"
        );
        assert!(lines[3].trim_start().starts_with("for (int i"));
    }

    #[test]
    fn injected_source_reparses_with_pragma() {
        let tu = parse_translation_unit(SRC).unwrap();
        let loops = extract_loops(&tu, SRC);
        let out = inject_pragma(SRC, loops[0].header_line, pragma(16, 2));
        let tu2 = parse_translation_unit(&out).unwrap();
        let loops2 = extract_loops(&tu2, &out);
        assert_eq!(loops2[0].pragma, Some(pragma(16, 2)));
    }

    #[test]
    fn reinjection_replaces_existing_pragma() {
        let tu = parse_translation_unit(SRC).unwrap();
        let loops = extract_loops(&tu, SRC);
        let once = inject_pragma(SRC, loops[0].header_line, pragma(4, 1));
        // After the first injection the header moved one line down.
        let tu2 = parse_translation_unit(&once).unwrap();
        let loops2 = extract_loops(&tu2, &once);
        let twice = inject_pragma(&once, loops2[0].header_line, pragma(64, 8));
        assert_eq!(twice.matches("#pragma clang loop").count(), 1);
        assert!(twice.contains("vectorize_width(64)"));
        assert!(!twice.contains("vectorize_width(4)"));
    }

    #[test]
    fn strip_removes_all_loop_pragmas() {
        let tu = parse_translation_unit(SRC).unwrap();
        let loops = extract_loops(&tu, SRC);
        let out = inject_pragma(SRC, loops[0].header_line, pragma(8, 4));
        let stripped = strip_pragmas(&out);
        assert_eq!(stripped, SRC);
    }

    #[test]
    fn inject_at_nested_innermost() {
        let src = "float A[64][64];
void f(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            A[i][j] = 0;
        }
    }
}";
        let tu = parse_translation_unit(src).unwrap();
        let loops = extract_loops(&tu, src);
        let inner = loops.iter().find(|l| l.is_innermost).unwrap();
        let out = inject_pragma(src, inner.header_line, pragma(8, 2));
        let lines: Vec<&str> = out.split('\n').collect();
        assert!(lines[3].trim_start().starts_with("#pragma clang loop"));
        assert!(lines[4].trim_start().starts_with("for (int j"));
        // Outer loop untouched.
        assert!(lines[2].trim_start().starts_with("for (int i"));
    }

    #[test]
    fn inject_past_end_appends() {
        let out = inject_pragma("int x;", 99, pragma(2, 1));
        assert!(out.ends_with("interleave_count(1)"));
    }

    #[test]
    fn non_loop_pragmas_survive_strip() {
        let src = "#pragma once\nint x;";
        assert_eq!(strip_pragmas(src), src);
    }
}
