//! A hand-rolled Rust lexer — just enough structure for the concurrency
//! lints: identifiers, punctuation, and literals with line/column spans,
//! with comments lifted out into a side channel (so `lint:allow(...)`
//! justifications and `//~ LXXX` fixture markers stay inspectable while
//! primitive names inside doc comments or strings never trigger a lint).
//!
//! It is deliberately not a full lexer: numeric literal suffixes, nested
//! generic disambiguation, and macro fragments are out of scope. The lints
//! operate on token *patterns* (`std :: sync :: Mutex`, `. lock ( )`), so
//! fidelity at that granularity is all that matters.

/// Kinds the lints care to distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// One punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// String, char, or numeric literal (text is the raw slice).
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
}

/// One token with its 1-based position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    pub fn is(&self, text: &str) -> bool {
        self.text == text
    }

    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// A comment (line or block) with the line it starts on. Text excludes the
/// delimiters.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// Lexer output: the token stream plus the comment side channel.
#[derive(Debug, Default)]
pub struct TokenStream {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

impl TokenStream {
    /// All comment text attached to `line` (starting on it).
    pub fn comments_on(&self, line: u32) -> impl Iterator<Item = &Comment> {
        self.comments.iter().filter(move |c| c.line == line)
    }
}

/// Tokenize `src`. Unterminated constructs (strings, block comments) are
/// closed at end of input rather than reported — the linter's job is to
/// scan code that already compiles.
pub fn tokenize(src: &str) -> TokenStream {
    let b: Vec<char> = src.chars().collect();
    let mut out = TokenStream::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        // whitespace
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // line comment
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            let start_line = line;
            let mut text = String::new();
            while i < b.len() && b[i] != '\n' {
                text.push(b[i]);
                bump!();
            }
            out.comments.push(Comment {
                line: start_line,
                text: text.trim_start_matches('/').trim().to_owned(),
            });
            continue;
        }
        // block comment (nesting)
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let start_line = line;
            let mut depth = 0usize;
            let mut text = String::new();
            while i < b.len() {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    bump!();
                    bump!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(b[i]);
                    bump!();
                }
            }
            out.comments.push(Comment {
                line: start_line,
                text: text.trim().trim_start_matches('*').trim().to_owned(),
            });
            continue;
        }
        // raw string r"..." / r#"..."#
        if c == 'r' && i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '#') {
            let (tl, tc) = (line, col);
            let save = i;
            let mut j = i + 1;
            let mut hashes = 0usize;
            while j < b.len() && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == '"' {
                // consume through the matching `"###...`
                while i <= j {
                    bump!();
                }
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut k = i + 1;
                        let mut seen = 0usize;
                        while k < b.len() && b[k] == '#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            while i < k {
                                bump!();
                            }
                            break 'raw;
                        }
                    }
                    bump!();
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("r\"…\""),
                    line: tl,
                    col: tc,
                });
                continue;
            }
            let _ = save; // not a raw string (e.g. `r#foo` raw ident): fall through
        }
        // string literal
        if c == '"' {
            let (tl, tc) = (line, col);
            bump!();
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    bump!();
                    bump!();
                    continue;
                }
                if b[i] == '"' {
                    bump!();
                    break;
                }
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Literal,
                text: String::from("\"…\""),
                line: tl,
                col: tc,
            });
            continue;
        }
        // char literal vs lifetime: 'a' is a char, 'a (no closing quote
        // right after one ident) is a lifetime
        if c == '\'' {
            let (tl, tc) = (line, col);
            // escape: definitely a char literal
            if i + 1 < b.len() && b[i + 1] == '\\' {
                bump!();
                bump!();
                bump!(); // escaped char
                if i < b.len() && b[i] == '\'' {
                    bump!();
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("'…'"),
                    line: tl,
                    col: tc,
                });
                continue;
            }
            // 'x' → char literal; otherwise lifetime
            if i + 2 < b.len() && b[i + 2] == '\'' {
                bump!();
                bump!();
                bump!();
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("'…'"),
                    line: tl,
                    col: tc,
                });
                continue;
            }
            bump!();
            let mut name = String::from("'");
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                name.push(b[i]);
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Lifetime,
                text: name,
                line: tl,
                col: tc,
            });
            continue;
        }
        // number
        if c.is_ascii_digit() {
            let (tl, tc) = (line, col);
            let mut text = String::new();
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                // stop a range like `0..10` from swallowing the dots
                if b[i] == '.' && i + 1 < b.len() && b[i + 1] == '.' {
                    break;
                }
                text.push(b[i]);
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Literal,
                text,
                line: tl,
                col: tc,
            });
            continue;
        }
        // identifier / keyword
        if c.is_alphanumeric() || c == '_' {
            let (tl, tc) = (line, col);
            let mut text = String::new();
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                text.push(b[i]);
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line: tl,
                col: tc,
            });
            continue;
        }
        // punctuation, one char at a time
        let (tl, tc) = (line, col);
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: tl,
            col: tc,
        });
        bump!();
    }
    out
}

/// True when tokens `toks[i..]` spell the `::`-separated path `segments`
/// (e.g. `["std", "sync", "Mutex"]` matches `std :: sync :: Mutex`).
pub fn path_at(toks: &[Tok], i: usize, segments: &[&str]) -> bool {
    let mut j = i;
    for (n, seg) in segments.iter().enumerate() {
        if n > 0 {
            if j + 1 >= toks.len() || !toks[j].is(":") || !toks[j + 1].is(":") {
                return false;
            }
            j += 2;
        }
        if j >= toks.len() || !toks[j].is_ident(seg) {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_puncts_and_spans() {
        let ts = tokenize("let x = a.lock();");
        let texts: Vec<&str> = ts.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["let", "x", "=", "a", ".", "lock", "(", ")", ";"]
        );
        assert_eq!(ts.toks[0].line, 1);
        assert_eq!(ts.toks[0].col, 1);
        assert_eq!(ts.toks[1].col, 5);
    }

    #[test]
    fn comments_are_lifted_out() {
        let ts = tokenize("a // std::sync::Mutex\nb /* RwLock */ c");
        let texts: Vec<&str> = ts.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
        assert_eq!(ts.comments.len(), 2);
        assert_eq!(ts.comments[0].line, 1);
        assert!(ts.comments[0].text.contains("std::sync::Mutex"));
        assert_eq!(ts.comments[1].line, 2);
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let ts = tokenize(r#"let s = "std::sync::Mutex { } // x"; y"#);
        assert!(ts.toks.iter().all(|t| t.text != "Mutex" && t.text != "{"));
        assert!(ts.toks.iter().any(|t| t.is_ident("y")));
        assert!(ts.comments.is_empty());
    }

    #[test]
    fn raw_strings_and_escapes() {
        let ts = tokenize("let a = r#\"quote \" inside\"#; let b = \"esc \\\" q\"; z");
        assert!(ts.toks.iter().any(|t| t.is_ident("z")));
        assert_eq!(
            ts.toks
                .iter()
                .filter(|t| t.kind == TokKind::Literal)
                .count(),
            2
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let ts = tokenize("fn f<'a>(x: &'a str) { let c = 'q'; }");
        assert!(ts
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert_eq!(
            ts.toks
                .iter()
                .filter(|t| t.kind == TokKind::Literal)
                .count(),
            1
        );
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let ts = tokenize("for i in 0..10 {}");
        let texts: Vec<&str> = ts.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["for", "i", "in", "0", ".", ".", "10", "{", "}"]);
    }

    #[test]
    fn path_matching() {
        let ts = tokenize("use std::sync::Mutex;");
        assert!(path_at(&ts.toks, 1, &["std", "sync", "Mutex"]));
        assert!(!path_at(&ts.toks, 1, &["std", "sync", "RwLock"]));
        assert!(!path_at(&ts.toks, 0, &["std"]));
        assert!(path_at(&ts.toks, 1, &["std", "sync"]));
    }
}
