//! Whole-file loop sampling: source text → one [`PathSample`] per
//! decidable innermost loop.
//!
//! Both inference products — the one-shot
//! `NeuroVectorizer::vectorize_source` and the `nvc-serve` daemon — need
//! the identical pipeline (extract innermost loops, embed the text of each
//! loop's outermost enclosing loop, hash its path contexts) so that their
//! decisions, and the serving layer's cache keys, agree exactly. This
//! module is that single implementation.
//!
//! The sample of a loop is defined as that of its nest *text* re-parsed on
//! its own, `parse_statement(nest_text)`. The file is parsed once and each
//! nest's sample is hashed straight from the file's tree, which is the
//! same tree the re-parse would build, with two exceptions where the text
//! is parsed again instead:
//!
//! * the nest expands an object macro — the file's tree holds the
//!   expansion (`255`), the text the name (`MAX`);
//! * the nest's span stops short of its last token, which only a trailing
//!   value-less `return;` does (its span ends before the `;`) — the text
//!   then fails to re-parse and the loop is skipped, as before.

use nvc_frontend::{parse_file, parse_statement, walk_loops, FrontendError, ParsedFile, Stmt};

use crate::model::EmbedConfig;
use crate::vocab::PathSample;

/// One decidable innermost loop of a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSite {
    /// Enclosing function name.
    pub function: String,
    /// 1-based line of the loop header (where a pragma goes).
    pub header_line: u32,
    /// The loop's normalized path-context sample (the model observation
    /// and the serving cache key material).
    pub sample: PathSample,
}

/// Extracts every innermost loop of `source` and embeds its nest text
/// into a [`PathSample`]. Loops whose nest text does not re-parse as a
/// statement are skipped (matching the training environment, which also
/// drops them).
///
/// # Errors
///
/// Returns a [`FrontendError`] when `source` itself does not parse.
pub fn extract_loop_samples(
    source: &str,
    cfg: &EmbedConfig,
) -> Result<Vec<LoopSite>, FrontendError> {
    let file = parse_file(source)?;
    Ok(walk_loops(&file.tu)
        .into_iter()
        .filter(|l| l.is_innermost)
        .filter_map(|l| {
            Some(LoopSite {
                function: l.function.name.clone(),
                header_line: l.stmt.span.line,
                sample: nest_sample(&file, l.nest, source, cfg)?,
            })
        })
        .collect())
}

/// The sample `parse_statement(nest_text)` would give, or `None` when the
/// text does not re-parse.
fn nest_sample(
    file: &ParsedFile,
    nest: &Stmt,
    source: &str,
    cfg: &EmbedConfig,
) -> Option<PathSample> {
    let text = nest.span.text(source);
    if file.expands_macro_in(nest.span) || !text.ends_with([';', '}']) {
        let stmt = parse_statement(text).ok()?;
        return Some(PathSample::from_stmt(&stmt, cfg));
    }
    Some(PathSample::from_stmt(nest, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_only_innermost_loops() {
        let src = "float a[64]; float M[8][8];
void f(int n) {
    for (int i = 0; i < n; i++) {
        a[i] = 0.0;
    }
    for (int i = 0; i < 8; i++) {
        for (int j = 0; j < 8; j++) {
            M[i][j] = 1.0;
        }
    }
}";
        let sites = extract_loop_samples(src, &EmbedConfig::fast()).unwrap();
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|s| s.function == "f"));
        assert!(sites.iter().all(|s| !s.sample.is_empty()));
        assert_eq!(sites[0].header_line, 3);
        assert_eq!(sites[1].header_line, 7, "inner j-loop header");
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(extract_loop_samples("void f( {{{", &EmbedConfig::fast()).is_err());
    }

    #[test]
    fn loopless_source_yields_no_sites() {
        let sites =
            extract_loop_samples("int x;\nvoid f() { x = 1; }", &EmbedConfig::fast()).unwrap();
        assert!(sites.is_empty());
    }
}
