//! Hand-written lexer for the openCypher fragment.

use crate::error::ParseError;
use crate::token::{Kw, Spanned, Tok};

/// Tokenise `src` into a vector ending with [`Tok::Eof`].
pub fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment.
                let mut j = i + 2;
                loop {
                    if j + 1 >= bytes.len() {
                        return Err(ParseError::new(start, "unterminated block comment"));
                    }
                    if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        i = j + 2;
                        break;
                    }
                    j += 1;
                }
            }
            '(' => push1(&mut out, Tok::LParen, &mut i),
            ')' => push1(&mut out, Tok::RParen, &mut i),
            '[' => push1(&mut out, Tok::LBracket, &mut i),
            ']' => push1(&mut out, Tok::RBracket, &mut i),
            '{' => push1(&mut out, Tok::LBrace, &mut i),
            '}' => push1(&mut out, Tok::RBrace, &mut i),
            ':' => push1(&mut out, Tok::Colon, &mut i),
            ',' => push1(&mut out, Tok::Comma, &mut i),
            ';' => push1(&mut out, Tok::Semicolon, &mut i),
            '|' => push1(&mut out, Tok::Pipe, &mut i),
            '+' => push1(&mut out, Tok::Plus, &mut i),
            '*' => push1(&mut out, Tok::Star, &mut i),
            '/' => push1(&mut out, Tok::Slash, &mut i),
            '%' => push1(&mut out, Tok::Percent, &mut i),
            '^' => push1(&mut out, Tok::Caret, &mut i),
            '=' => push1(&mut out, Tok::Eq, &mut i),
            '$' => push1(&mut out, Tok::Dollar, &mut i),
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Spanned {
                        tok: Tok::ArrowRight,
                        offset: start,
                    });
                    i += 2;
                } else {
                    push1(&mut out, Tok::Dash, &mut i);
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'-') => {
                    out.push(Spanned {
                        tok: Tok::ArrowLeft,
                        offset: start,
                    });
                    i += 2;
                }
                Some(&b'=') => {
                    out.push(Spanned {
                        tok: Tok::Le,
                        offset: start,
                    });
                    i += 2;
                }
                Some(&b'>') => {
                    out.push(Spanned {
                        tok: Tok::Neq,
                        offset: start,
                    });
                    i += 2;
                }
                _ => push1(&mut out, Tok::Lt, &mut i),
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned {
                        tok: Tok::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    push1(&mut out, Tok::Gt, &mut i);
                }
            }
            '.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    out.push(Spanned {
                        tok: Tok::DotDot,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    // `.5` style float.
                    let (tok, next) = lex_number(src, i)?;
                    out.push(Spanned { tok, offset: start });
                    i = next;
                } else {
                    push1(&mut out, Tok::Dot, &mut i);
                }
            }
            '\'' | '"' => {
                let (s, next) = lex_string(src, i)?;
                out.push(Spanned {
                    tok: Tok::Str(s),
                    offset: start,
                });
                i = next;
            }
            '`' => {
                // Backtick-quoted identifier.
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'`' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ParseError::new(start, "unterminated backtick identifier"));
                }
                out.push(Spanned {
                    tok: Tok::Ident(src[i + 1..j].to_string()),
                    offset: start,
                });
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(src, i)?;
                out.push(Spanned { tok, offset: start });
                i = next;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    let c2 = src[j..].chars().next().expect("in range");
                    if c2.is_alphanumeric() || c2 == '_' {
                        j += c2.len_utf8();
                    } else {
                        break;
                    }
                }
                let word = &src[i..j];
                // Uppercased on the stack: no keyword is longer than
                // `DESCENDING`, and most words are not keywords.
                let mut upper = [0u8; 10];
                let keyword = upper.get_mut(..word.len()).and_then(|u| {
                    u.copy_from_slice(word.as_bytes());
                    u.make_ascii_uppercase();
                    Kw::from_upper(std::str::from_utf8(u).ok()?)
                });
                let tok = match keyword {
                    Some(k) => Tok::Keyword(k),
                    None => Tok::Ident(word.to_string()),
                };
                out.push(Spanned { tok, offset: start });
                i = j;
            }
            other => {
                return Err(ParseError::new(
                    start,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        offset: src.len(),
    });
    Ok(out)
}

fn push1(out: &mut Vec<Spanned>, tok: Tok, i: &mut usize) {
    out.push(Spanned { tok, offset: *i });
    *i += 1;
}

fn lex_string(src: &str, start: usize) -> Result<(String, usize), ParseError> {
    let quote = src.as_bytes()[start] as char;
    let mut out = String::new();
    let mut chars = src[start + 1..].char_indices();
    while let Some((off, c)) = chars.next() {
        let abs = start + 1 + off;
        match c {
            '\\' => match chars.next() {
                Some((_, esc)) => out.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    '\\' => '\\',
                    '\'' => '\'',
                    '"' => '"',
                    other => {
                        return Err(ParseError::new(
                            abs,
                            format!("unknown escape sequence \\{other}"),
                        ))
                    }
                }),
                None => return Err(ParseError::new(abs, "unterminated string")),
            },
            c if c == quote => return Ok((out, abs + c.len_utf8())),
            c => out.push(c),
        }
    }
    Err(ParseError::new(start, "unterminated string"))
}

fn lex_number(src: &str, start: usize) -> Result<(Tok, usize), ParseError> {
    let bytes = src.as_bytes();
    let mut i = start;
    let mut is_float = false;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    // Fractional part — but `1..3` must lex as Int DotDot Int.
    // A fractional part requires digits after the dot (openCypher floats
    // are `D+.D+`); a bare trailing dot stays a separate token so that
    // `1.prop` lexes as Int, Dot, Ident.
    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &src[start..i];
    if is_float {
        text.parse::<f64>()
            .map(|f| (Tok::Float(f), i))
            .map_err(|_| ParseError::new(start, format!("invalid float literal {text:?}")))
    } else {
        text.parse::<i64>()
            .map(|n| (Tok::Int(n), i))
            .map_err(|_| ParseError::new(start, format!("integer literal {text:?} out of range")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_running_example() {
        let ts = toks("MATCH t = (p:Post)-[:REPLY*]->(c:Comm)");
        assert_eq!(ts[0], Tok::Keyword(Kw::Match));
        assert!(ts.contains(&Tok::Ident("t".into())));
        assert!(ts.contains(&Tok::ArrowRight));
        assert!(ts.contains(&Tok::Star));
        assert!(ts.contains(&Tok::Ident("REPLY".into())));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(toks("match")[0], Tok::Keyword(Kw::Match));
        assert_eq!(toks("MaTcH")[0], Tok::Keyword(Kw::Match));
    }

    #[test]
    fn numbers_and_ranges() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(toks("4.5"), vec![Tok::Float(4.5), Tok::Eof]);
        assert_eq!(
            toks("1..3"),
            vec![Tok::Int(1), Tok::DotDot, Tok::Int(3), Tok::Eof]
        );
        assert_eq!(toks("1e3"), vec![Tok::Float(1000.0), Tok::Eof]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#"'it\'s' "two\n""#),
            vec![Tok::Str("it's".into()), Tok::Str("two\n".into()), Tok::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("1 // comment\n 2 /* block */ 3"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Int(3), Tok::Eof]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= <> ="),
            vec![
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::Neq,
                Tok::Eq,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn arrows_vs_dashes() {
        assert_eq!(
            toks("-[]-> <-[]-"),
            vec![
                Tok::Dash,
                Tok::LBracket,
                Tok::RBracket,
                Tok::ArrowRight,
                Tok::ArrowLeft,
                Tok::LBracket,
                Tok::RBracket,
                Tok::Dash,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn backtick_identifiers() {
        assert_eq!(
            toks("`weird name`"),
            vec![Tok::Ident("weird name".into()), Tok::Eof]
        );
    }

    #[test]
    fn bad_character_is_reported_with_offset() {
        let err = lex("MATCH @").unwrap_err();
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("'abc").is_err());
    }
}
