//! A small hand-rolled Rust lexer: the foundation of the source checker
//! ([`crate::protocol`]), which lexes each file once and runs every rule
//! over the tokens.
//!
//! Goals (and non-goals): we need a token stream that
//!
//! * never confuses comments or string literals with code,
//! * preserves line numbers for diagnostics,
//! * survives nested block comments, raw strings (`r#"..."#`), char
//!   literals (including lifetimes, which look like unterminated chars),
//!   and numeric literals with suffixes,
//! * keeps comments as tokens so `// protocol:` annotations stay visible,
//!   while a pattern inside a comment or string literal never reads as
//!   code.
//!
//! It is *not* a full Rust grammar: no macro expansion, no type checking.
//! Downstream passes work over this stream with brace matching and a few
//! deliberately simple heuristics, documented where they live.

/// Kind of a single lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `self`, `Ordering`, ...).
    Ident,
    /// Lifetime such as `'a` (kept distinct from char literals).
    Lifetime,
    /// Numeric literal, including suffixes (`0x1f`, `42u64`, `1_000`).
    Number,
    /// String (`"..."`), raw string (`r#"..."#`), byte string, or char
    /// literal. The payload is the *raw source text* including quotes.
    Str,
    /// Line (`//`) or block (`/* */`) comment, raw text included.
    Comment,
    /// Any punctuation/operator character sequence we care to group
    /// (`::`, `->`, `=>`, `..=`) or a single punct char.
    Punct,
}

/// One token: kind, the source slice, and the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Tok<'a> {
    /// Token class.
    pub kind: TokKind,
    /// Raw source slice of the token.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl<'a> Tok<'a> {
    /// True for a punct token with exactly this text.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// True for an ident token with exactly this text.
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokKind::Ident && self.text == id
    }
}

/// Lex `src` into tokens. Comments are kept; whitespace is dropped.
///
/// The lexer is total: on malformed input (unterminated string, stray
/// byte) it degrades by consuming a single character as punctuation
/// rather than failing, so the checker can always produce *some* view
/// of a file.
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let bytes = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 6);
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Count newlines inside src[start..end) and advance `line`.
    fn bump_lines(bytes: &[u8], start: usize, end: usize, line: &mut u32) {
        for &b in &bytes[start..end] {
            if b == b'\n' {
                *line += 1;
            }
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        let start_line = line;

        // Whitespace.
        if b.is_ascii_whitespace() {
            if b == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if b == b'/' && i + 1 < bytes.len() {
            match bytes[i + 1] {
                b'/' => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Comment,
                        text: &src[start..i],
                        line: start_line,
                    });
                    continue;
                }
                b'*' => {
                    i += 2;
                    let mut depth = 1usize;
                    while i < bytes.len() && depth > 0 {
                        if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                            depth += 1;
                            i += 2;
                        } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                            depth -= 1;
                            i += 2;
                        } else {
                            if bytes[i] == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Comment,
                        text: &src[start..i],
                        line: start_line,
                    });
                    continue;
                }
                _ => {}
            }
        }

        // Raw strings: r"..."  r#"..."#  br##"..."## etc.
        if b == b'r' || b == b'b' {
            if let Some(end) = try_raw_string(bytes, i) {
                bump_lines(bytes, start, end, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: &src[start..end],
                    line: start_line,
                });
                i = end;
                continue;
            }
        }

        // Identifiers / keywords (also swallows the `b` of b'x' handled above).
        if b == b'_' || b.is_ascii_alphabetic() {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
                j += 1;
            }
            // b"..." / b'...' prefix: if the ident is exactly `b` and a
            // quote follows, fall through to the literal cases below by
            // not consuming here.
            if !(j == i + 1
                && b == b'b'
                && j < bytes.len()
                && (bytes[j] == b'"' || bytes[j] == b'\''))
            {
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: &src[i..j],
                    line: start_line,
                });
                i = j;
                continue;
            }
            i = j; // position on the quote; the cases below consume it
        }

        let b = bytes[i];
        let lit_start = start; // include any b prefix in the token text

        // String literal. Newlines are counted over the whole span after
        // scanning, so line-continuation escapes (`\` + newline) — which
        // the escape arm skips in one step — still advance the counter.
        if b == b'"' {
            let mut j = i + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            let j = j.min(src.len());
            bump_lines(bytes, i, j, &mut line);
            toks.push(Tok {
                kind: TokKind::Str,
                text: &src[lit_start..j],
                line: start_line,
            });
            i = j;
            continue;
        }

        // Char literal vs lifetime. A lifetime is `'ident` not followed
        // by a closing quote; `'a'` is a char.
        if b == b'\'' {
            let j = i + 1;
            if j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphabetic()) {
                // Scan the ident run; if the next byte is NOT `'`, it is
                // a lifetime.
                let mut k = j + 1;
                while k < bytes.len() && (bytes[k] == b'_' || bytes[k].is_ascii_alphanumeric()) {
                    k += 1;
                }
                if k >= bytes.len() || bytes[k] != b'\'' {
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: &src[i..k],
                        line: start_line,
                    });
                    i = k;
                    continue;
                }
            }
            // Char literal: consume until the closing quote, honoring
            // escapes.
            let mut k = i + 1;
            while k < bytes.len() {
                match bytes[k] {
                    b'\\' => k += 2,
                    b'\'' => {
                        k += 1;
                        break;
                    }
                    _ => k += 1,
                }
            }
            let k = k.min(src.len());
            bump_lines(bytes, i, k, &mut line);
            toks.push(Tok {
                kind: TokKind::Str,
                text: &src[lit_start..k],
                line: start_line,
            });
            i = k;
            continue;
        }

        // Numbers (decimal, hex/oct/bin, underscores, suffixes, floats).
        if b.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len()
                && (bytes[j].is_ascii_alphanumeric()
                    || bytes[j] == b'_'
                    || (bytes[j] == b'.' && j + 1 < bytes.len() && bytes[j + 1].is_ascii_digit()))
            {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Number,
                text: &src[i..j],
                line: start_line,
            });
            i = j;
            continue;
        }

        // Multi-char puncts we want to keep atomic (longest first).
        const MULTI: &[&str] = &[
            "..=", "::", "->", "=>", "..", "&&", "||", "<<", ">>", "==", "!=", "<=", ">=", "+=",
            "-=", "*=", "/=", "|=", "&=", "^=",
        ];
        let rest = &src[i..];
        let mut matched = false;
        for m in MULTI {
            if rest.starts_with(m) {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: &src[i..i + m.len()],
                    line: start_line,
                });
                i += m.len();
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }

        // Single punct char (or degradation path for anything else).
        let ch_len = src[i..].chars().next().map(char::len_utf8).unwrap_or(1);
        toks.push(Tok {
            kind: TokKind::Punct,
            text: &src[i..i + ch_len],
            line: start_line,
        });
        i += ch_len;
    }

    toks
}

/// Try to lex a raw (byte) string starting at `i`. Returns the end of the
/// literal if one starts here.
fn try_raw_string(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'"' {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < bytes.len() && seen < hashes && bytes[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = r##"
// self.x.load(Ordering::Relaxed) in a comment
let s = "self.y.load(Ordering::Relaxed)";
/* block
   self.z.store(1, Ordering::Relaxed)
*/
let t = r#"raw Ordering::Relaxed"#;
self.real.load(Ordering::Relaxed);
"##;
        let toks = lex(src);
        let kinds: Vec<TokKind> = toks.iter().take(9).map(|t| t.kind).collect();
        use TokKind::*;
        assert_eq!(
            kinds,
            vec![Comment, Ident, Ident, Punct, Str, Punct, Comment, Ident, Ident]
        );
        // Only the real access reaches code tokens, on its own line.
        let code: Vec<&str> = toks
            .iter()
            .filter(|t| !matches!(t.kind, Comment | Str))
            .map(|t| t.text)
            .collect();
        assert_eq!(code.iter().filter(|t| **t == "Relaxed").count(), 1);
        let real = toks.iter().find(|t| t.is_ident("real")).unwrap();
        assert_eq!(real.line, 8);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* b */ still comment */ fn f() {}";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert!(toks[1].is_ident("fn"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "'x'"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r####"let s = r##"contains "# inside"##; x"####);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.starts_with("r##")));
        assert!(toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn byte_strings_and_chars() {
        let toks = lex(r#"let a = b"bytes"; let c = b'q'; done"#);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "b\"bytes\""));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "b'q'"));
        assert!(toks.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "let a = \"one\ntwo\";\nfn g() {}";
        let toks = lex(src);
        let g = toks.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 3);
    }

    #[test]
    fn line_continuation_escape_still_counts_lines() {
        // The `\` + newline escape is skipped in one step by the string
        // scanner; the newline must still advance the line counter.
        let src = "let a = \"one \\\n    two\";\nfn g() {}";
        let toks = lex(src);
        let g = toks.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 3);
    }

    #[test]
    fn multi_char_puncts_stay_atomic() {
        let toks = lex("a::b -> c => d..=e");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text)
            .collect();
        assert_eq!(puncts, vec!["::", "->", "=>", "..="]);
    }
}
