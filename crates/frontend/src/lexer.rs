//! Tokenizer for the supported C subset.
//!
//! The lexer performs three small preprocessing duties that the paper's
//! kernels rely on:
//!
//! * object-like `#define NAME <tokens>` macros are collected and expanded
//!   (one level, which is all the paper's kernels use);
//! * `#pragma clang loop …` lines are turned into a dedicated
//!   [`TokenKind::PragmaClangLoop`] token so the parser can attach the hint to
//!   the loop that follows;
//! * `__attribute__((…))` blobs are folded into a single
//!   [`TokenKind::Attribute`] token carrying their text.

use std::collections::HashMap;
use std::fmt;

use crate::FrontendError;

/// A half-open byte range into the original source, with the 1-based line
/// number of its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub col: u32,
}

impl Span {
    /// Creates a span covering `[start, end)` at the given position.
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Self {
        Self {
            start,
            end,
            line,
            col,
        }
    }

    /// A zero-width placeholder span (used for synthesized nodes).
    pub fn synthetic() -> Self {
        Self {
            start: 0,
            end: 0,
            line: 0,
            col: 0,
        }
    }

    /// Returns the smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        let (first, start, end) = if self.start <= other.start {
            (self, self.start, self.end.max(other.end))
        } else {
            (other, other.start, other.end.max(self.end))
        };
        Span {
            start,
            end,
            line: first.line,
            col: first.col,
        }
    }

    /// Extracts the covered text from the original source.
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start.min(source.len())..self.end.min(source.len())]
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// The kind of a lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are resolved by the parser).
    Ident(String),
    /// Integer literal (decimal or hex).
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Character literal, stored as its integer value.
    CharLit(i64),
    /// String literal (contents without quotes).
    StrLit(String),
    /// `#pragma clang loop vectorize_width(V) interleave_count(I)`.
    PragmaClangLoop {
        /// Requested vectorization factor.
        vectorize_width: u32,
        /// Requested interleave count.
        interleave_count: u32,
    },
    /// An `__attribute__((…))` blob, verbatim inner text.
    Attribute(String),
    /// Any punctuation or operator, e.g. `+=` or `(`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the identifier text if this token is an identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::IntLit(v) => write!(f, "integer `{v}`"),
            TokenKind::FloatLit(v) => write!(f, "float `{v}`"),
            TokenKind::CharLit(v) => write!(f, "char literal `{v}`"),
            TokenKind::StrLit(s) => write!(f, "string {s:?}"),
            TokenKind::PragmaClangLoop { .. } => write!(f, "#pragma clang loop"),
            TokenKind::Attribute(_) => write!(f, "__attribute__"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed from.
    pub span: Span,
}

/// The punctuation that can start with byte `c`, longest first so that
/// maximal munch takes the first match.
fn puncts_starting_with(c: u8) -> &'static [&'static str] {
    match c {
        b'<' => &["<<=", "<<", "<=", "<"],
        b'>' => &[">>=", ">>", ">=", ">"],
        b'.' => &["...", "."],
        b'=' => &["==", "="],
        b'!' => &["!=", "!"],
        b'&' => &["&&", "&=", "&"],
        b'|' => &["||", "|=", "|"],
        b'+' => &["+=", "++", "+"],
        b'-' => &["-=", "--", "->", "-"],
        b'*' => &["*=", "*"],
        b'/' => &["/=", "/"],
        b'%' => &["%=", "%"],
        b'^' => &["^=", "^"],
        b'~' => &["~"],
        b'?' => &["?"],
        b':' => &[":"],
        b';' => &[";"],
        b',' => &[","],
        b'(' => &["("],
        b')' => &[")"],
        b'[' => &["["],
        b']' => &["]"],
        b'{' => &["{"],
        b'}' => &["}"],
        _ => &[],
    }
}

/// Streaming tokenizer over a source string.
///
/// Construct with [`Lexer::new`] and call [`Lexer::tokenize`].
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    line: u32,
    col: u32,
    macros: HashMap<String, Vec<Token>>,
    /// Byte offsets of the identifiers that expanded a macro.
    macro_uses: Vec<usize>,
    /// How many `#define` bodies enclose this lexer.
    define_nesting: usize,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            macros: HashMap::new(),
            macro_uses: Vec::new(),
            define_nesting: 0,
        }
    }

    /// Tokenizes the entire input, expanding `#define` macros.
    ///
    /// # Errors
    ///
    /// Returns a [`FrontendError`] on malformed literals, unknown characters,
    /// or malformed preprocessor lines.
    pub fn tokenize(self) -> Result<Vec<Token>, FrontendError> {
        self.tokenize_recording_macros().map(|(tokens, _)| tokens)
    }

    /// Tokenizes like [`Lexer::tokenize`], also returning the ascending byte
    /// offsets at which a macro name was expanded.
    pub(crate) fn tokenize_recording_macros(
        mut self,
    ) -> Result<(Vec<Token>, Vec<usize>), FrontendError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            if self.pos >= self.bytes.len() {
                break;
            }
            let start_line = self.line;
            let start_col = self.col;
            let start = self.pos;
            let c = self.bytes[self.pos];

            if c == b'#' {
                self.lex_directive(&mut out)?;
                continue;
            }
            if c.is_ascii_alphabetic() || c == b'_' {
                let ident = self.lex_ident();
                let span = Span::new(start, self.pos, start_line, start_col);
                if ident == "__attribute__" {
                    let inner = self.lex_attribute_body(start_line, start_col)?;
                    out.push(Token {
                        kind: TokenKind::Attribute(inner),
                        span: Span::new(start, self.pos, start_line, start_col),
                    });
                } else if let Some(expansion) = self.macro_body(ident, start) {
                    // One-level object-macro expansion; spans point at the use site.
                    out.extend(expansion.iter().map(|t| Token {
                        kind: t.kind.clone(),
                        span,
                    }));
                } else {
                    out.push(Token {
                        kind: TokenKind::Ident(ident.to_string()),
                        span,
                    });
                }
                continue;
            }
            if c.is_ascii_digit() || (c == b'.' && self.peek_digit_at(self.pos + 1)) {
                let tok = self.lex_number(start_line, start_col)?;
                out.push(tok);
                continue;
            }
            if c == b'\'' {
                let tok = self.lex_char(start_line, start_col)?;
                out.push(tok);
                continue;
            }
            if c == b'"' {
                let tok = self.lex_string(start_line, start_col)?;
                out.push(tok);
                continue;
            }
            if let Some(p) = self.lex_punct() {
                out.push(Token {
                    kind: TokenKind::Punct(p),
                    span: Span::new(start, self.pos, start_line, start_col),
                });
                continue;
            }
            return Err(FrontendError::new(
                format!("unexpected character `{}`", c as char),
                start_line,
                start_col,
            ));
        }
        out.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(self.pos, self.pos, self.line, self.col),
        });
        Ok((out, self.macro_uses))
    }

    fn advance(&mut self) {
        if self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
            self.pos += 1;
        }
    }

    fn peek_digit_at(&self, i: usize) -> bool {
        self.bytes.get(i).is_some_and(u8::is_ascii_digit)
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            if self.pos >= self.bytes.len() {
                return Ok(());
            }
            let c = self.bytes[self.pos];
            if c.is_ascii_whitespace() {
                self.advance();
            } else if c == b'/' && self.bytes.get(self.pos + 1) == Some(&b'/') {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.advance();
                }
            } else if c == b'/' && self.bytes.get(self.pos + 1) == Some(&b'*') {
                let (line, col) = (self.line, self.col);
                self.advance();
                self.advance();
                loop {
                    if self.pos + 1 >= self.bytes.len() {
                        return Err(FrontendError::new("unterminated block comment", line, col));
                    }
                    if self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/' {
                        self.advance();
                        self.advance();
                        break;
                    }
                    self.advance();
                }
            } else {
                return Ok(());
            }
        }
    }

    /// The expansion of `ident`, used at byte `at`; looked up only once a
    /// `#define` was seen.
    fn macro_body(&mut self, ident: &str, at: usize) -> Option<&[Token]> {
        if self.macros.is_empty() {
            return None;
        }
        let body = self.macros.get(ident)?;
        self.macro_uses.push(at);
        Some(body)
    }

    /// Advances over `n` bytes known to hold no newline.
    fn advance_in_line(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    fn lex_ident(&mut self) -> &'src str {
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
            .count();
        self.advance_in_line(len);
        &self.src[start..self.pos]
    }

    fn lex_number(&mut self, line: u32, col: u32) -> Result<Token, FrontendError> {
        let start = self.pos;
        let mut is_float = false;
        if self.bytes[self.pos] == b'0'
            && matches!(self.bytes.get(self.pos + 1), Some(b'x') | Some(b'X'))
        {
            self.advance();
            self.advance();
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_hexdigit) {
                self.advance();
            }
            let text = &self.src[start + 2..self.pos];
            let v = i64::from_str_radix(text, 16)
                .map_err(|_| FrontendError::new("invalid hex literal", line, col))?;
            self.skip_int_suffix();
            return Ok(Token {
                kind: TokenKind::IntLit(v),
                span: Span::new(start, self.pos, line, col),
            });
        }
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.advance();
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.advance();
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.advance();
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e') | Some(b'E')) {
            let save = (self.pos, self.line, self.col);
            self.advance();
            if matches!(self.bytes.get(self.pos), Some(b'+') | Some(b'-')) {
                self.advance();
            }
            if self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                is_float = true;
                while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.advance();
                }
            } else {
                (self.pos, self.line, self.col) = save;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            let mut v: f64 = text
                .parse()
                .map_err(|_| FrontendError::new("invalid float literal", line, col))?;
            if matches!(self.bytes.get(self.pos), Some(b'f') | Some(b'F')) {
                self.advance();
                v = v as f32 as f64;
            }
            Ok(Token {
                kind: TokenKind::FloatLit(v),
                span: Span::new(start, self.pos, line, col),
            })
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| FrontendError::new("invalid integer literal", line, col))?;
            self.skip_int_suffix();
            Ok(Token {
                kind: TokenKind::IntLit(v),
                span: Span::new(start, self.pos, line, col),
            })
        }
    }

    fn skip_int_suffix(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b'u') | Some(b'U') | Some(b'l') | Some(b'L')
        ) {
            self.advance();
        }
    }

    fn lex_char(&mut self, line: u32, col: u32) -> Result<Token, FrontendError> {
        let start = self.pos;
        self.advance(); // opening quote
        let v = match self.bytes.get(self.pos) {
            Some(b'\\') => {
                self.advance();
                let esc = self.bytes.get(self.pos).copied().ok_or_else(|| {
                    FrontendError::new("unterminated character literal", line, col)
                })?;
                self.advance();
                match esc {
                    b'n' => b'\n' as i64,
                    b't' => b'\t' as i64,
                    b'r' => b'\r' as i64,
                    b'0' => 0,
                    b'\\' => b'\\' as i64,
                    b'\'' => b'\'' as i64,
                    other => other as i64,
                }
            }
            Some(&c) => {
                self.advance();
                c as i64
            }
            None => {
                return Err(FrontendError::new(
                    "unterminated character literal",
                    line,
                    col,
                ))
            }
        };
        if self.bytes.get(self.pos) != Some(&b'\'') {
            return Err(FrontendError::new(
                "unterminated character literal",
                line,
                col,
            ));
        }
        self.advance();
        Ok(Token {
            kind: TokenKind::CharLit(v),
            span: Span::new(start, self.pos, line, col),
        })
    }

    fn lex_string(&mut self, line: u32, col: u32) -> Result<Token, FrontendError> {
        let start = self.pos;
        self.advance(); // opening quote
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.advance();
                    break;
                }
                Some(b'\\') => {
                    self.advance();
                    if let Some(&esc) = self.bytes.get(self.pos) {
                        s.push(match esc {
                            b'n' => '\n',
                            b't' => '\t',
                            other => other as char,
                        });
                        self.advance();
                    }
                }
                Some(&c) => {
                    s.push(c as char);
                    self.advance();
                }
                None => return Err(FrontendError::new("unterminated string literal", line, col)),
            }
        }
        Ok(Token {
            kind: TokenKind::StrLit(s),
            span: Span::new(start, self.pos, line, col),
        })
    }

    fn lex_punct(&mut self) -> Option<&'static str> {
        let rest = &self.bytes[self.pos..];
        let p = *puncts_starting_with(rest[0])
            .iter()
            .find(|p| rest.starts_with(p.as_bytes()))?;
        self.advance_in_line(p.len());
        Some(p)
    }

    /// Consumes text through the rest of the current line, returning it.
    fn take_rest_of_line(&mut self) -> &'src str {
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .take_while(|b| **b != b'\n')
            .count();
        self.advance_in_line(len);
        &self.src[start..self.pos]
    }

    fn lex_directive(&mut self, out: &mut Vec<Token>) -> Result<(), FrontendError> {
        let line = self.line;
        let col = self.col;
        let start = self.pos;
        self.advance(); // '#'
                        // Skip horizontal whitespace between '#' and the directive name.
        while matches!(self.bytes.get(self.pos), Some(b' ') | Some(b'\t')) {
            self.advance();
        }
        let name = self.lex_ident();
        match name {
            "define" => {
                while matches!(self.bytes.get(self.pos), Some(b' ') | Some(b'\t')) {
                    self.advance();
                }
                let macro_name = self.lex_ident();
                if macro_name.is_empty() {
                    return Err(FrontendError::new("#define requires a name", line, col));
                }
                if self.define_nesting == crate::MAX_NESTING {
                    return Err(FrontendError::too_deep(line, col));
                }
                let body = self.take_rest_of_line();
                let mut body_lexer = Lexer::new(body.trim());
                body_lexer.define_nesting = self.define_nesting + 1;
                let body_tokens = body_lexer
                    .tokenize()?
                    .into_iter()
                    .filter(|t| t.kind != TokenKind::Eof)
                    .collect::<Vec<_>>();
                self.macros.insert(macro_name.to_string(), body_tokens);
                Ok(())
            }
            "pragma" => {
                let rest = self.take_rest_of_line();
                let rest = rest.trim();
                if let Some(tok) =
                    parse_clang_loop_pragma(rest, Span::new(start, self.pos, line, col))
                {
                    out.push(tok);
                }
                // Unrecognized pragmas are ignored, matching compiler behaviour.
                Ok(())
            }
            "include" | "ifdef" | "ifndef" | "endif" | "if" | "else" | "undef" => {
                // Harmless for our kernels: includes/conditionals carry no
                // semantics in the subset, so they are skipped line-wise.
                self.take_rest_of_line();
                Ok(())
            }
            other => Err(FrontendError::new(
                format!("unsupported preprocessor directive `#{other}`"),
                line,
                col,
            )),
        }
    }

    fn lex_attribute_body(&mut self, line: u32, col: u32) -> Result<String, FrontendError> {
        self.skip_trivia()?;
        if self.bytes.get(self.pos) != Some(&b'(') {
            return Err(FrontendError::new(
                "expected `((` after __attribute__",
                line,
                col,
            ));
        }
        let mut depth = 0usize;
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                Some(b'(') => {
                    depth += 1;
                    self.advance();
                }
                Some(b')') => {
                    depth -= 1;
                    self.advance();
                    if depth == 0 {
                        break;
                    }
                }
                Some(_) => self.advance(),
                None => return Err(FrontendError::new("unterminated __attribute__", line, col)),
            }
        }
        // Trim exactly the outer double parens, keeping any parens that
        // belong to the attribute itself (e.g. `aligned(16)`).
        let mut inner = &self.src[start..self.pos];
        for _ in 0..2 {
            inner = inner
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .unwrap_or(inner);
        }
        Ok(inner.trim().to_string())
    }
}

/// Parses the body of a `pragma` line, recognizing `clang loop` hints.
///
/// Returns `None` for pragmas we do not model (they are ignored, like a real
/// compiler ignores unknown pragmas).
fn parse_clang_loop_pragma(rest: &str, span: Span) -> Option<Token> {
    let mut words = rest.split_whitespace();
    if words.next()? != "clang" || words.next()? != "loop" {
        return None;
    }
    let mut vf = 1u32;
    let mut ifc = 1u32;
    let mut saw_any = false;
    for clause in words {
        if let Some(v) = clause
            .strip_prefix("vectorize_width(")
            .and_then(|s| s.strip_suffix(')'))
        {
            vf = v.trim().parse().ok()?;
            saw_any = true;
        } else if let Some(v) = clause
            .strip_prefix("interleave_count(")
            .and_then(|s| s.strip_suffix(')'))
        {
            ifc = v.trim().parse().ok()?;
            saw_any = true;
        }
    }
    saw_any.then_some(Token {
        kind: TokenKind::PragmaClangLoop {
            vectorize_width: vf,
            interleave_count: ifc,
        },
        span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lex_simple_expression() {
        let k = kinds("a + 42 * b3");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct("+"),
                TokenKind::IntLit(42),
                TokenKind::Punct("*"),
                TokenKind::Ident("b3".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_maximal_munch_compound_ops() {
        let k = kinds("a += b <<= c << d <= e");
        assert!(k.contains(&TokenKind::Punct("+=")));
        assert!(k.contains(&TokenKind::Punct("<<=")));
        assert!(k.contains(&TokenKind::Punct("<<")));
        assert!(k.contains(&TokenKind::Punct("<=")));
    }

    #[test]
    fn lex_float_and_hex_literals() {
        let k = kinds("1.5 0x1F 2e3 7f 3.0f");
        assert_eq!(k[0], TokenKind::FloatLit(1.5));
        assert_eq!(k[1], TokenKind::IntLit(31));
        assert_eq!(k[2], TokenKind::FloatLit(2000.0));
        // `7f` lexes as 7 then identifier f (C would reject; our subset is lenient).
        assert_eq!(k[3], TokenKind::IntLit(7));
        assert_eq!(k[5], TokenKind::FloatLit(3.0));
    }

    #[test]
    fn lex_comments_are_skipped() {
        let k = kinds("a /* multi\nline */ b // trailing\nc");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_pragma_clang_loop() {
        let k = kinds("#pragma clang loop vectorize_width(8) interleave_count(4)\nfor");
        assert_eq!(
            k[0],
            TokenKind::PragmaClangLoop {
                vectorize_width: 8,
                interleave_count: 4
            }
        );
        assert_eq!(k[1], TokenKind::Ident("for".into()));
    }

    #[test]
    fn lex_unknown_pragma_is_ignored() {
        let k = kinds("#pragma omp parallel for\nx");
        assert_eq!(k[0], TokenKind::Ident("x".into()));
    }

    #[test]
    fn lex_define_macro_expansion() {
        let k = kinds("#define N 512\nint a[N];");
        assert!(k.contains(&TokenKind::IntLit(512)));
        assert!(!k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(s) if s == "N")));
    }

    #[test]
    fn lex_define_expression_macro() {
        let k = kinds("#define SZ (N*2)\nSZ");
        assert_eq!(k[0], TokenKind::Punct("("));
        assert_eq!(k[1], TokenKind::Ident("N".into()));
    }

    #[test]
    fn lex_attribute_blob() {
        let k = kinds("int v[4] __attribute__((aligned(16)));");
        assert!(k
            .iter()
            .any(|t| matches!(t, TokenKind::Attribute(s) if s == "aligned(16)")));
    }

    #[test]
    fn lex_char_literals() {
        let k = kinds(r"'a' '\n' '\0'");
        assert_eq!(k[0], TokenKind::CharLit(97));
        assert_eq!(k[1], TokenKind::CharLit(10));
        assert_eq!(k[2], TokenKind::CharLit(0));
    }

    #[test]
    fn lex_error_reports_position() {
        let err = Lexer::new("int a;\n  @").tokenize().unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.col(), 3);
    }

    #[test]
    fn span_merge_and_text() {
        let s1 = Span::new(0, 3, 1, 1);
        let s2 = Span::new(4, 7, 1, 5);
        let m = s1.merge(s2);
        assert_eq!((m.start, m.end), (0, 7));
        assert_eq!(m.text("abc def"), "abc def");
    }

    /// Every string over the punctuation alphabet of up to three bytes
    /// lexes as the longest-first scan over the full operator table did.
    #[test]
    fn first_byte_punct_dispatch_matches_longest_first_scan() {
        const TABLE: &[&str] = &[
            "<<=", ">>=", "...", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=",
            "/=", "%=", "&=", "|=", "^=", "++", "--", "->", "+", "-", "*", "/", "%", "<", ">", "=",
            "!", "&", "|", "^", "~", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
        ];
        let alphabet: Vec<u8> = b"<>=!&|+-*/%^~?:;,.()[]{}".to_vec();
        let scan = |mut s: &str| {
            let mut out = Vec::new();
            while let Some(p) = TABLE.iter().find(|p| s.starts_with(**p)) {
                out.push(TokenKind::Punct(p));
                s = &s[p.len()..];
            }
            assert!(s.is_empty());
            out
        };
        let mut inputs: Vec<Vec<u8>> = vec![Vec::new()];
        for _ in 0..3 {
            inputs = inputs
                .iter()
                .flat_map(|p| {
                    alphabet.iter().map(move |c| {
                        let mut q = p.clone();
                        q.push(*c);
                        q
                    })
                })
                .collect();
            for input in &inputs {
                let text = std::str::from_utf8(input).unwrap();
                // `//` and `/*` open comments, which the scan does not model.
                if text.contains("//") || text.contains("/*") {
                    continue;
                }
                let mut got = kinds(text);
                assert_eq!(got.pop(), Some(TokenKind::Eof));
                assert_eq!(got, scan(text), "input {text:?}");
            }
        }
    }

    #[test]
    fn macro_uses_are_recorded_at_the_use_site() {
        let src = "#define N 4\n#define EMPTY\nint a[N]; EMPTY x N";
        let (_, uses) = Lexer::new(src).tokenize_recording_macros().unwrap();
        let at = |needle: &str, from: usize| from + src[from..].find(needle).unwrap();
        let first_n = at("N]", 0);
        assert_eq!(uses, vec![first_n, at("EMPTY x", 0), at("N", first_n + 1)]);
        let (_, none) = Lexer::new("int a[4]; N")
            .tokenize_recording_macros()
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn nested_define_bodies_are_bounded() {
        let src = "#define A ".repeat(crate::MAX_NESTING + 1);
        let err = Lexer::new(&src).tokenize().unwrap_err();
        assert_eq!(err.kind(), crate::ErrorKind::TooDeep);
        assert!(Lexer::new(&"#define A ".repeat(4)).tokenize().is_ok());
    }

    #[test]
    fn lex_include_is_skipped() {
        let k = kinds("#include <stdio.h>\nint x;");
        assert_eq!(k[0], TokenKind::Ident("int".into()));
    }
}
