//! A hand-rolled Rust lexer, just deep enough to lint safely.
//!
//! The rule engine needs a *token* view of each source file: identifier
//! occurrences with line/column positions, punctuation for local context
//! (`println` followed by `!`, `#![forbid(...)]` sequences), and — crucially
//! — **no false positives from non-code text**. That means comments, string
//! literals, raw strings, byte strings and char literals must be consumed
//! correctly, and `'a'` (a char) must be told apart from `'a` (a lifetime).
//!
//! The lexer does not classify keywords, operators or numeric suffixes; a
//! keyword like `unsafe` is simply an [`TokenKind::Ident`] token. That is
//! exactly the granularity the determinism rules need, and it keeps the
//! lexer small enough to audit by eye.
//!
//! Line comments are additionally collected verbatim (with their position)
//! so the rule engine can parse suppression directives out of them.

/// The coarse classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `HashMap`, `for_each`, ...).
    Ident,
    /// A raw identifier (`r#type`); `text` excludes the `r#` prefix.
    RawIdent,
    /// A lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Any string-ish literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br"…"`,
    /// or a char/byte literal `'x'` / `b'x'`. Contents are never inspected
    /// by rules, so they are all one kind.
    Literal,
    /// A numeric literal.
    Number,
    /// A single punctuation character (`#`, `!`, `(`, `{`, `;`, ...).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// The token text. For [`TokenKind::Literal`] this is empty (rules
    /// never look inside literals); for everything else it is verbatim.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in chars) of the token's first character.
    pub col: u32,
}

/// One `//` line comment, collected for directive parsing.
#[derive(Debug, Clone)]
pub struct LineComment {
    /// The comment text including the leading slashes.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The output of [`lex`]: the token stream plus all line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All `//` line comments in source order.
    pub comments: Vec<LineComment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and line comments.
///
/// The lexer is total: any input produces *some* token stream (an
/// unterminated literal simply swallows the rest of the file). Rules are
/// conservative scanners, so graceful degradation beats erroring out.
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while let Some(ch) = cur.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(ch);
                cur.bump();
            }
            out.comments.push(LineComment { text, line });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        cur.bump();
                        cur.bump();
                        depth += 1;
                    }
                    (Some('*'), Some('/')) => {
                        cur.bump();
                        cur.bump();
                        depth -= 1;
                    }
                    (Some(_), _) => {
                        cur.bump();
                    }
                    (None, _) => break,
                }
            }
            continue;
        }
        // Raw strings, byte strings, raw identifiers (r/b/br prefixes).
        if c == 'r' || c == 'b' {
            if let Some(consumed) = lex_prefixed_literal(&mut cur) {
                if consumed {
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line,
                        col,
                    });
                } else {
                    // Raw identifier: skip `r#`, fall through to ident.
                    let text = lex_ident_text(&mut cur);
                    out.tokens.push(Token {
                        kind: TokenKind::RawIdent,
                        text,
                        line,
                        col,
                    });
                }
                continue;
            }
        }
        if is_ident_start(c) {
            let text = lex_ident_text(&mut cur);
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        if c.is_ascii_digit() {
            lex_number(&mut cur);
            out.tokens.push(Token {
                kind: TokenKind::Number,
                text: String::new(),
                line,
                col,
            });
            continue;
        }
        if c == '"' {
            cur.bump();
            lex_string_body(&mut cur);
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: String::new(),
                line,
                col,
            });
            continue;
        }
        if c == '\'' {
            let kind = lex_quote(&mut cur, &mut out);
            if kind != TokenKind::Lifetime {
                out.tokens.push(Token {
                    kind,
                    text: String::new(),
                    line,
                    col,
                });
            }
            continue;
        }
        // Everything else: one punctuation char per token.
        cur.bump();
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
            col,
        });
    }
    out
}

fn lex_ident_text(cur: &mut Cursor) -> String {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    text
}

/// Consumes a number. Handles `1_000`, `0xFF`, `1.5`, `1e-9`, `1.0f64`,
/// and stops before `..` so ranges lex as punctuation.
fn lex_number(cur: &mut Cursor) {
    let mut prev = '\0';
    while let Some(c) = cur.peek(0) {
        let keep = c.is_alphanumeric()
            || c == '_'
            || (c == '.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit()))
            || ((c == '+' || c == '-') && (prev == 'e' || prev == 'E'));
        if !keep {
            break;
        }
        prev = c;
        cur.bump();
    }
}

/// Consumes a `"`-terminated string body (opening quote already consumed),
/// honoring backslash escapes.
fn lex_string_body(cur: &mut Cursor) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Consumes a raw string body after the `r` and its hashes: `###"…"###`.
/// `hashes` is the number of `#` between `r` and the opening quote.
fn lex_raw_string_body(cur: &mut Cursor, hashes: usize) {
    // Opening quote.
    cur.bump();
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            for i in 0..hashes {
                if cur.peek(i) != Some('#') {
                    continue 'outer;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
}

/// At an `r` or `b`: if this starts a raw/byte literal, consume it and
/// return `Some(true)`; if it starts a raw identifier (`r#name`), consume
/// only the `r#` and return `Some(false)`; otherwise consume nothing and
/// return `None` (plain identifier).
fn lex_prefixed_literal(cur: &mut Cursor) -> Option<bool> {
    let c = cur.peek(0)?;
    let (prefix_len, raw) = match (c, cur.peek(1)) {
        ('r', Some('"')) => (1, true),
        ('r', Some('#')) => {
            // Count hashes; a quote after them means raw string, an ident
            // char means raw identifier.
            let mut n = 0;
            while cur.peek(1 + n) == Some('#') {
                n += 1;
            }
            match cur.peek(1 + n) {
                Some('"') => (1, true),
                _ if n == 1 => {
                    cur.bump();
                    cur.bump();
                    return Some(false);
                }
                _ => return None,
            }
        }
        ('b', Some('"')) => (1, false),
        ('b', Some('\'')) => {
            // Byte literal b'x'.
            cur.bump();
            cur.bump();
            while let Some(ch) = cur.bump() {
                match ch {
                    '\\' => {
                        cur.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            return Some(true);
        }
        ('b', Some('r')) => match cur.peek(2) {
            Some('"') | Some('#') => (2, true),
            _ => return None,
        },
        _ => return None,
    };
    // Check the hashes and the quote before consuming anything: `br#x`
    // is the identifier `br`, and `None` promises nothing was consumed.
    let mut hashes = 0;
    if raw {
        while cur.peek(prefix_len + hashes) == Some('#') {
            hashes += 1;
        }
        if cur.peek(prefix_len + hashes) != Some('"') {
            return None;
        }
    }
    for _ in 0..prefix_len + hashes {
        cur.bump();
    }
    if raw {
        lex_raw_string_body(cur, hashes);
    } else {
        // b"…"
        cur.bump();
        lex_string_body(cur);
    }
    Some(true)
}

/// At a `'`: disambiguates char literals from lifetimes. Lifetimes are
/// pushed into `out` here (they carry their own text); char literals are
/// consumed and reported back as [`TokenKind::Literal`].
fn lex_quote(cur: &mut Cursor, out: &mut Lexed) -> TokenKind {
    let (line, col) = (cur.line, cur.col);
    cur.bump(); // the quote
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: '\n', '\u{…}', '\''.
            cur.bump();
            cur.bump();
            while let Some(c) = cur.bump() {
                if c == '\'' {
                    break;
                }
            }
            TokenKind::Literal
        }
        Some(c) if is_ident_start(c) => {
            let text = lex_ident_text(cur);
            if text.chars().count() == 1 && cur.peek(0) == Some('\'') {
                cur.bump();
                TokenKind::Literal
            } else {
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line,
                    col,
                });
                TokenKind::Lifetime
            }
        }
        Some('_') => {
            cur.bump();
            out.tokens.push(Token {
                kind: TokenKind::Lifetime,
                text: "_".into(),
                line,
                col,
            });
            TokenKind::Lifetime
        }
        _ => {
            // '0', '.', ' ', … — plain char literal.
            cur.bump();
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            TokenKind::Literal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_puncts_with_positions() {
        let l = lex("fn main() {\n    x!();\n}");
        let m = &l.tokens[1];
        assert_eq!((m.text.as_str(), m.line, m.col), ("main", 1, 4));
        let bang = l
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Punct && t.text == "!")
            .unwrap();
        assert_eq!((bang.line, bang.col), (2, 6));
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"let s = "unsafe HashMap";"#), vec!["let", "s"]);
        assert_eq!(
            idents("let s = r#\"unsafe \"quoted\" text\"#; after"),
            vec!["let", "s", "after"]
        );
        assert_eq!(idents(r#"let b = b"unsafe";"#), vec!["let", "b"]);
        assert_eq!(
            idents("let b = br##\"x\"# unsafe\"##; tail"),
            vec!["let", "b", "tail"]
        );
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        assert_eq!(
            idents(r#"let s = "a\"unsafe\"b"; ok"#),
            vec!["let", "s", "ok"]
        );
    }

    #[test]
    fn comments_are_collected_not_tokenized() {
        let l = lex("// unsafe here\nlet x = 1; /* HashMap /* nested */ still */ y");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .count(),
            3 // let, x, y
        );
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].text, "// unsafe here");
        assert_eq!(l.comments[0].line, 1);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        // 'a' is a literal; 'a and 'static are lifetimes; '\'' escapes.
        let l = lex(
            r"fn f<'a>(x: &'a str, c: char) { let _ = 'u'; let _ = '\''; let s: &'static str = x; }",
        );
        let lifetimes: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "static"]);
        let literals = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(literals, 2);
    }

    #[test]
    fn raw_identifiers() {
        let l = lex("let r#type = 1;");
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::RawIdent && t.text == "type"));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        assert_eq!(
            idents("for i in 0..10 { i.pow(2); }"),
            vec!["for", "i", "in", "i", "pow"]
        );
        assert_eq!(idents("let x = 1.5e-9f64; done"), vec!["let", "x", "done"]);
        assert_eq!(idents("let h = 0xFFu64; done"), vec!["let", "h", "done"]);
    }

    #[test]
    fn byte_raw_prefix_without_a_quote_is_an_identifier() {
        let got: Vec<(TokenKind, String)> = lex("br#y")
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect();
        assert_eq!(
            got,
            vec![
                (TokenKind::Ident, "br".to_string()),
                (TokenKind::Punct, "#".to_string()),
                (TokenKind::Ident, "y".to_string()),
            ]
        );
    }

    /// Lexes `src` (the lexer must return, not panic) and checks that no
    /// identifier token came out empty.
    fn assert_lexes_cleanly(src: &str) {
        let lexed = lex(src);
        assert!(
            lexed
                .tokens
                .iter()
                .all(|t| t.kind != TokenKind::Ident || !t.text.is_empty()),
            "empty identifier token lexing {src:?}"
        );
    }

    #[test]
    fn lex_is_total_on_random_rust_hostile_strings() {
        const ALPHABET: [char; 16] = [
            'r', 'b', '#', '"', '\'', '\\', '/', '*', '\n', '_', '0', '.', 'e', '+', '-', 'é',
        ];
        // SplitMix64: a fixed, dependency-free stream, so every run lexes
        // the same strings.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..5_000 {
            let len = (next() % 33) as usize;
            let src: String = (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
                .collect();
            assert_lexes_cleanly(&src);
        }
    }

    #[test]
    fn lex_is_total_on_every_prefix_of_a_source_file() {
        let src = include_str!("report.rs");
        for (end, _) in src.char_indices() {
            assert_lexes_cleanly(&src[..end]);
        }
        assert_lexes_cleanly(src);
    }

    #[test]
    fn unterminated_string_degrades_gracefully() {
        let l = lex("let s = \"never closed unsafe");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .count(),
            2
        );
    }
}
