//! A minimal, dependency-free Rust lexer for the lint wall.
//!
//! A line-oriented scanner can be fooled by exactly the constructs this
//! lexer understands: raw strings containing rule trigger words, `'a`
//! lifetimes that look like unterminated char literals, and nested
//! `/* /* */ */` block comments. The `order-sensitive-iteration` rule
//! works on the token stream produced here, so it never sees text inside
//! a literal or comment as code.
//!
//! This is deliberately not a full Rust lexer: numeric literal suffixes,
//! shebangs, and multi-character operators are out of scope. Punctuation
//! is emitted one character at a time; consumers that care about `::` or
//! `=>` look at adjacent tokens. What *is* handled precisely:
//!
//! * line comments (`//`, `///`, `//!`) — kept as [`Tok::Comment`]
//!   tokens so `audit:allow` and `// determinism:` comments stay
//!   visible,
//! * block comments with arbitrary nesting — also kept, stamped with
//!   their *starting* line,
//! * string literals: `"…"` with escapes, byte strings `b"…"`, raw
//!   strings `r"…"` / `r#"…"#` / `br##"…"##` with any number of hashes,
//! * char literals `'x'`, `'\n'`, `'\u{1F600}'`, `b'x'` versus
//!   lifetimes `'a`, `'static`, `'_`.

/// One lexical token. Literal *contents* are dropped (the lint rules
/// must never fire on text inside a literal); comments keep their text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `self`, `HashMap`, …).
    Ident(String),
    /// A lifetime (`'a`, `'static`, `'_`), name without the quote.
    Lifetime(String),
    /// A char or byte literal; contents dropped.
    CharLit,
    /// A string literal of any flavor (plain/byte/raw); contents dropped.
    StrLit,
    /// A numeric literal; text kept for index-expression display.
    Num(String),
    /// A single punctuation character.
    Punct(char),
    /// A `//…` or `/*…*/` comment, full text including the delimiters.
    Comment(String),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: usize,
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    /// The comment text, if this token is a comment.
    pub fn comment(&self) -> Option<&str> {
        match &self.tok {
            Tok::Comment(s) => Some(s),
            _ => None,
        }
    }
}

/// Lexes `src` into tokens. Never fails: malformed input (unterminated
/// literals or comments) simply ends the current token at end of input,
/// which is the right behavior for a linter that must not crash on the
/// code it is criticizing.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;

    // Advances `line` for every newline in `b[from..to]`.
    fn count_lines(b: &[u8], from: usize, to: usize, line: &mut usize) {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count();
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                toks.push(Token {
                    tok: Tok::Comment(src[start..i].to_string()),
                    line,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                toks.push(Token {
                    tok: Tok::Comment(src[start..i].to_string()),
                    line: start_line,
                });
            }
            b'"' => {
                let start_line = line;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(Token {
                    tok: Tok::StrLit,
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` followed by
                // an identifier start NOT closed by a `'` right after one
                // identifier-ish run (`'a` vs `'a'`). `'\…'` is always a
                // char literal.
                let after = b.get(i + 1).copied();
                let is_ident_start = after.is_some_and(|c| c.is_ascii_alphabetic() || c == b'_');
                if is_ident_start {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    if b.get(j).copied() == Some(b'\'') {
                        // `'x'` (single ident char then quote): char literal.
                        toks.push(Token {
                            tok: Tok::CharLit,
                            line,
                        });
                        i = j + 1;
                    } else {
                        toks.push(Token {
                            tok: Tok::Lifetime(src[i + 1..j].to_string()),
                            line,
                        });
                        i = j;
                    }
                } else {
                    // Char literal with escape or punctuation: `'\n'`,
                    // `'\u{…}'`, `'·'`, `'\''`.
                    let start = i;
                    i += 1;
                    if i < b.len() && b[i] == b'\\' {
                        i += 2;
                        // `\u{…}` escapes run to the closing brace.
                        while i < b.len() && b[i] != b'\'' {
                            i += 1;
                        }
                    } else {
                        // Possibly multi-byte UTF-8 char; scan to quote.
                        while i < b.len() && b[i] != b'\'' {
                            i += 1;
                        }
                    }
                    i += 1; // closing quote (or EOF)
                    count_lines(b, start, i.min(b.len()), &mut line);
                    toks.push(Token {
                        tok: Tok::CharLit,
                        line,
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                // Raw / byte string prefixes glue to an immediately
                // following quote or hash: r"…", r#"…"#, b"…", br#"…"#.
                let next = b.get(i).copied();
                let rawish = matches!(word, "r" | "b" | "br" | "rb");
                if rawish && (next == Some(b'"') || next == Some(b'#')) {
                    let start_line = line;
                    if word == "b" && next == Some(b'"') {
                        // Byte string: plain escape rules.
                        i += 1;
                        while i < b.len() {
                            match b[i] {
                                b'\\' => i += 2,
                                b'"' => {
                                    i += 1;
                                    break;
                                }
                                b'\n' => {
                                    line += 1;
                                    i += 1;
                                }
                                _ => i += 1,
                            }
                        }
                    } else {
                        // Raw string: count hashes, then scan for `"###`.
                        let mut hashes = 0;
                        while b.get(i).copied() == Some(b'#') {
                            hashes += 1;
                            i += 1;
                        }
                        if b.get(i).copied() == Some(b'"') {
                            i += 1;
                            'scan: while i < b.len() {
                                if b[i] == b'\n' {
                                    line += 1;
                                } else if b[i] == b'"' {
                                    let mut k = 0;
                                    while k < hashes && b.get(i + 1 + k).copied() == Some(b'#') {
                                        k += 1;
                                    }
                                    if k == hashes {
                                        i += 1 + hashes;
                                        break 'scan;
                                    }
                                }
                                i += 1;
                            }
                        } else {
                            // `r#foo`: a raw identifier, not a string.
                            let id_start = i;
                            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                                i += 1;
                            }
                            toks.push(Token {
                                tok: Tok::Ident(src[id_start..i].to_string()),
                                line,
                            });
                            continue;
                        }
                    }
                    toks.push(Token {
                        tok: Tok::StrLit,
                        line: start_line,
                    });
                } else {
                    toks.push(Token {
                        tok: Tok::Ident(word.to_string()),
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                // Numbers may contain `_`, hex/bin prefixes, a fractional
                // part, and type suffixes; consume the identifier-ish run
                // plus embedded dots followed by digits (`1.5e3`). A dot
                // followed by a non-digit (method call `0.max(…)` or range
                // `0..n`) ends the number.
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                if i < b.len()
                    && b[i] == b'.'
                    && b.get(i + 1).copied().is_some_and(|c| c.is_ascii_digit())
                {
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
                toks.push(Token {
                    tok: Tok::Num(src[start..i].to_string()),
                    line,
                });
            }
            _ => {
                // Multi-byte UTF-8 punctuation (arrows in comments are
                // already consumed; stray unicode in code is rare): emit
                // the first byte's char boundary correctly.
                let ch = src[i..].chars().next().unwrap_or('\u{FFFD}');
                toks.push(Token {
                    tok: Tok::Punct(ch),
                    line,
                });
                i += ch.len_utf8();
            }
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn raw_string_contents_are_not_code() {
        // v1's line scanner would see `HashMap` here; the lexer must not.
        let src = r##"let s = r#"use std::collections::HashMap;"#; let t = 1;"##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn raw_strings_with_varied_hashes_terminate_correctly() {
        let src = "let a = r\"x\"; let b = r#\"y\"#; let c = br##\"z\"## ; done";
        let ids = idents(src);
        assert_eq!(
            ids,
            ["let", "a", "let", "b", "let", "c", "done"]
                .map(str::to_string)
                .to_vec()
        );
        let strs = lex(src).iter().filter(|t| t.tok == Tok::StrLit).count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { 'l: loop { break 'l; } }";
        let lifetimes: Vec<_> = lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Lifetime(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, ["a", "a", "static", "l", "l"]);
    }

    #[test]
    fn char_literals_including_escapes_and_quotes() {
        let src = r"let c = 'x'; let n = '\n'; let q = '\''; let u = '\u{1F600}'; let b2 = b'a';";
        let chars = lex(src).iter().filter(|t| t.tok == Tok::CharLit).count();
        assert_eq!(chars, 5);
        // Nothing after the literals was swallowed.
        assert!(idents(src).contains(&"b2".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let ids = idents(src);
        assert_eq!(ids, ["a", "b"].map(str::to_string).to_vec());
        let comments: Vec<_> = lex(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Comment(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(comments, ["/* outer /* inner */ still comment */"]);
    }

    #[test]
    fn line_and_doc_comments_keep_text_and_lines() {
        let src = "// plain\n/// doc\n//! inner\nfn f() {}\n";
        let toks = lex(src);
        let comments: Vec<_> = toks
            .iter()
            .filter_map(|t| t.comment().map(|c| (c.to_string(), t.line)))
            .collect();
        assert_eq!(
            comments,
            [
                ("// plain".to_string(), 1),
                ("/// doc".to_string(), 2),
                ("//! inner".to_string(), 3)
            ]
        );
        let f = toks.iter().find(|t| t.ident() == Some("fn")).unwrap();
        assert_eq!(f.line, 4);
    }

    #[test]
    fn string_escapes_do_not_leak_code() {
        let src = r#"let s = "quote \" then HashMap"; after"#;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn multiline_strings_advance_line_numbers() {
        let src = "let s = \"line\none\";\nfn g() {}\n";
        let toks = lex(src);
        let g = toks.iter().find(|t| t.ident() == Some("fn")).unwrap();
        assert_eq!(g.line, 3);
    }

    #[test]
    fn numbers_ranges_and_method_calls_are_separate_tokens() {
        let src = "for i in 0..self.n { let x = 1.5; let y = 0.max(z); }";
        let toks = lex(src);
        // `0..self` must lex as Num(0), '.', '.', Ident(self).
        let pos = toks
            .iter()
            .position(|t| t.tok == Tok::Num("0".into()))
            .unwrap();
        assert!(toks[pos + 1].is_punct('.'));
        assert!(toks[pos + 2].is_punct('.'));
        assert_eq!(toks[pos + 3].ident(), Some("self"));
        assert!(toks.iter().any(|t| t.tok == Tok::Num("1.5".into())));
        // `0.max` keeps the 0 and the method separate.
        assert!(toks.iter().any(|t| t.ident() == Some("max")));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let src = "let r#type = 1;";
        assert!(idents(src).contains(&"type".to_string()));
    }

    #[test]
    fn unterminated_input_does_not_panic() {
        for src in ["let s = \"unterminated", "/* never closed", "let c = '"] {
            let _ = lex(src);
        }
    }
}
