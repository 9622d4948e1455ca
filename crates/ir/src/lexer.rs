//! Hand-written lexer for F-Mini.
//!
//! Free-form input; one statement per logical line; `&` at end of line
//! continues the statement on the next line; `!` starts a comment except
//! that `!$` introduces a directive recognized by the parser. Classic
//! fixed-form comment lines (`C`/`c`/`*` in column 1) are also accepted so
//! paper-style kernels paste in cleanly, as are `c$`/`C$` directive lines.

use crate::error::{CompileError, Result};
use crate::token::{Tok, Token};

/// Tokenize a full source file.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>> {
    let mut toks = Vec::new();
    let mut pending_continuation = false;
    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw_line;

        // Full-line comments and directives.
        let trimmed = line.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        // `*` in column 1 is a fixed-form comment. `C` in column 1 is NOT
        // treated as one (unlike strict F77 fixed form): F-Mini is
        // free-form, and `c = t` must parse as an assignment. Use `!` or
        // `*` comments instead.
        let first = trimmed.chars().next().unwrap();
        let is_fixed_comment = first == '*'
            && line.starts_with(first)
            && !trimmed
                .chars()
                .nth(1)
                .map(|c| c.is_ascii_alphanumeric() || c == '_')
                .unwrap_or(false);
        let directive_payload = if let Some(rest) = trimmed.strip_prefix("!$") {
            Some(rest)
        } else { trimmed.strip_prefix("c$").or_else(|| trimmed.strip_prefix("C$")) };
        if let Some(payload) = directive_payload {
            let col = (line.len() - trimmed.len() + 1) as u32;
            toks.push(Token {
                kind: Tok::Directive(payload.trim().to_ascii_uppercase()),
                line: line_no,
                col,
            });
            toks.push(Token { kind: Tok::Newline, line: line_no, col: line_len_col(line) });
            continue;
        }
        if trimmed.starts_with('!') || is_fixed_comment {
            continue;
        }

        // Tokenize the line content.
        let had_tokens_before = !toks.is_empty();
        let mut line_toks = lex_line(line, line_no)?;
        if line_toks.is_empty() {
            continue;
        }
        // Continuation handling: if the *previous* line ended with `&`, we
        // suppressed its Newline; nothing more to do. If the current line
        // ends with `&`, drop the marker and do not emit a Newline.
        let _ = (had_tokens_before, pending_continuation);
        let continues = matches!(line_toks.last().map(|t| &t.kind), Some(Tok::Ident(s)) if s == "&");
        if continues {
            line_toks.pop();
            pending_continuation = true;
            toks.extend(line_toks);
        } else {
            pending_continuation = false;
            toks.extend(line_toks);
            toks.push(Token { kind: Tok::Newline, line: line_no, col: line_len_col(line) });
        }
    }
    let last_line = source.lines().count() as u32;
    toks.push(Token { kind: Tok::Eof, line: last_line.max(1), col: 1 });
    Ok(toks)
}

/// Column just past the end of `line` (where its Newline token sits).
fn line_len_col(line: &str) -> u32 {
    line.chars().count() as u32 + 1
}

fn lex_line(line: &str, line_no: u32) -> Result<Vec<Token>> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = line.chars().collect();
    let n = bytes.len();
    let mut i = 0usize;
    let push = |toks: &mut Vec<Token>, kind: Tok, col: usize| {
        toks.push(Token { kind, line: line_no, col: (col + 1) as u32 })
    };
    while i < n {
        let c = bytes[i];
        let start = i;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '!' => break, // trailing comment
            '&' => {
                // continuation marker; represent as a pseudo-identifier the
                // caller strips when it is the last token.
                push(&mut toks, Tok::Ident("&".into()), start);
                i += 1;
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                let mut closed = false;
                while i < n {
                    if bytes[i] == '\'' {
                        if i + 1 < n && bytes[i + 1] == '\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            closed = true;
                            break;
                        }
                    } else {
                        s.push(bytes[i]);
                        i += 1;
                    }
                }
                if !closed {
                    return Err(CompileError::lex(line_no, "unterminated character literal")
                        .at_col((start + 1) as u32));
                }
                push(&mut toks, Tok::Str(s), start);
            }
            '+' => {
                push(&mut toks, Tok::Plus, start);
                i += 1;
            }
            '-' => {
                push(&mut toks, Tok::Minus, start);
                i += 1;
            }
            '*' => {
                if i + 1 < n && bytes[i + 1] == '*' {
                    push(&mut toks, Tok::Pow, start);
                    i += 2;
                } else {
                    push(&mut toks, Tok::Star, start);
                    i += 1;
                }
            }
            '/' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push(&mut toks, Tok::Ne, start);
                    i += 2;
                } else {
                    push(&mut toks, Tok::Slash, start);
                    i += 1;
                }
            }
            '(' => {
                push(&mut toks, Tok::LParen, start);
                i += 1;
            }
            ')' => {
                push(&mut toks, Tok::RParen, start);
                i += 1;
            }
            ',' => {
                push(&mut toks, Tok::Comma, start);
                i += 1;
            }
            ':' => {
                push(&mut toks, Tok::Colon, start);
                i += 1;
            }
            '=' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push(&mut toks, Tok::EqEq, start);
                    i += 2;
                } else {
                    push(&mut toks, Tok::Assign, start);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push(&mut toks, Tok::Le, start);
                    i += 2;
                } else {
                    push(&mut toks, Tok::Lt, start);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < n && bytes[i + 1] == '=' {
                    push(&mut toks, Tok::Ge, start);
                    i += 2;
                } else {
                    push(&mut toks, Tok::Gt, start);
                    i += 1;
                }
            }
            '.' => {
                // Either a dotted operator (.LT., .AND., .TRUE. …) or a
                // real literal like `.5`.
                if i + 1 < n && bytes[i + 1].is_ascii_digit() {
                    let (tok, used) = lex_number(&bytes[i..], line_no, start)?;
                    push(&mut toks, tok, start);
                    i += used;
                } else {
                    let mut j = i + 1;
                    let mut word = String::new();
                    while j < n && bytes[j].is_ascii_alphabetic() {
                        word.push(bytes[j].to_ascii_uppercase());
                        j += 1;
                    }
                    if j >= n || bytes[j] != '.' {
                        return Err(CompileError::lex(
                            line_no,
                            format!("malformed dotted operator `.{word}`"),
                        )
                        .at_col((start + 1) as u32));
                    }
                    let kind = match word.as_str() {
                        "LT" => Tok::Lt,
                        "LE" => Tok::Le,
                        "GT" => Tok::Gt,
                        "GE" => Tok::Ge,
                        "EQ" => Tok::EqEq,
                        "NE" => Tok::Ne,
                        "AND" => Tok::And,
                        "OR" => Tok::Or,
                        "NOT" => Tok::Not,
                        "TRUE" => Tok::True,
                        "FALSE" => Tok::False,
                        _ => {
                            return Err(CompileError::lex(
                                line_no,
                                format!("unknown dotted operator `.{word}.`"),
                            )
                            .at_col((start + 1) as u32))
                        }
                    };
                    push(&mut toks, kind, start);
                    i = j + 1;
                }
            }
            c if c.is_ascii_digit() => {
                let (tok, used) = lex_number(&bytes[i..], line_no, start)?;
                push(&mut toks, tok, start);
                i += used;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    s.push(bytes[i].to_ascii_uppercase());
                    i += 1;
                }
                push(&mut toks, Tok::Ident(s), start);
            }
            other => {
                return Err(CompileError::lex(line_no, format!("unexpected character `{other}`"))
                    .at_col((start + 1) as u32))
            }
        }
    }
    Ok(toks)
}

/// Lex an integer or real literal starting at `chars[0]`.
///
/// A number is *real* if it contains `.`, `E`/`D` exponent, or both.
/// Returns the token and the number of characters consumed.
fn lex_number(chars: &[char], line_no: u32, col: usize) -> Result<(Tok, usize)> {
    let n = chars.len();
    let mut i = 0usize;
    let mut text = String::new();
    let mut is_real = false;
    while i < n && chars[i].is_ascii_digit() {
        text.push(chars[i]);
        i += 1;
    }
    if i < n && chars[i] == '.' {
        // Don't swallow `1.AND.` — a dot followed by a letter then
        // eventually another dot is a dotted operator boundary.
        let next = chars.get(i + 1);
        let dotted_op = matches!(next, Some(c) if c.is_ascii_alphabetic());
        if !dotted_op {
            is_real = true;
            text.push('.');
            i += 1;
            while i < n && chars[i].is_ascii_digit() {
                text.push(chars[i]);
                i += 1;
            }
        }
    }
    if i < n && matches!(chars[i], 'e' | 'E' | 'd' | 'D') {
        let mut j = i + 1;
        if j < n && (chars[j] == '+' || chars[j] == '-') {
            j += 1;
        }
        if j < n && chars[j].is_ascii_digit() {
            is_real = true;
            text.push('E');
            i += 1;
            if chars[i] == '+' || chars[i] == '-' {
                text.push(chars[i]);
                i += 1;
            }
            while i < n && chars[i].is_ascii_digit() {
                text.push(chars[i]);
                i += 1;
            }
        }
    }
    if is_real {
        let v: f64 = text
            .parse()
            .map_err(|_| CompileError::lex(line_no, format!("bad real literal `{text}`")).at_col((col + 1) as u32))?;
        Ok((Tok::Real(v), i))
    } else {
        let v: i64 = text
            .parse()
            .map_err(|_| CompileError::lex(line_no, format!("bad integer literal `{text}`")).at_col((col + 1) as u32))?;
        Ok((Tok::Int(v), i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_assignment() {
        let k = kinds("x = a + 1");
        assert_eq!(
            k,
            vec![
                Tok::Ident("X".into()),
                Tok::Assign,
                Tok::Ident("A".into()),
                Tok::Plus,
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn dotted_and_symbolic_relations_agree() {
        assert_eq!(kinds("a .lt. b"), kinds("a < b"));
        assert_eq!(kinds("a .ge. b"), kinds("a >= b"));
        assert_eq!(kinds("a .ne. b"), kinds("a /= b"));
    }

    #[test]
    fn real_literals() {
        assert_eq!(kinds("x = 1.5")[2], Tok::Real(1.5));
        assert_eq!(kinds("x = 1E3")[2], Tok::Real(1000.0));
        assert_eq!(kinds("x = 2.5D0")[2], Tok::Real(2.5));
        assert_eq!(kinds("x = .25")[2], Tok::Real(0.25));
        assert_eq!(kinds("x = 1.")[2], Tok::Real(1.0));
    }

    #[test]
    fn integer_dot_operator_not_confused_with_real() {
        // `1.AND.` must lex as Int(1), And — not Real(1.0), garbage.
        let k = kinds("if (1.and.j) x = 1");
        assert!(k.contains(&Tok::And));
        assert!(k.contains(&Tok::Int(1)));
    }

    #[test]
    fn pow_vs_star() {
        let k = kinds("y = x**2 * z");
        assert!(k.contains(&Tok::Pow));
        assert!(k.contains(&Tok::Star));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("! a comment\n* starred\n  x = 1 ! trailing\n");
        assert_eq!(k.iter().filter(|t| matches!(t, Tok::Ident(_))).count(), 1);
    }

    #[test]
    fn c_at_column_one_is_an_assignment_not_a_comment() {
        let k = kinds("c = t");
        assert_eq!(k[0], Tok::Ident("C".into()));
        assert_eq!(k[1], Tok::Assign);
    }

    #[test]
    fn directives_survive() {
        let k = kinds("!$assert (n > 0)\nx = 1");
        assert!(matches!(&k[0], Tok::Directive(d) if d.starts_with("ASSERT")));
    }

    #[test]
    fn continuation_joins_lines() {
        let k = kinds("x = a + &\n    b");
        // exactly one Newline (the logical end), tokens joined
        let newlines = k.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 1);
        assert!(k.contains(&Tok::Ident("B".into())));
    }

    #[test]
    fn string_literal_with_escaped_quote() {
        let k = kinds("print *, 'it''s fine'");
        assert!(k.contains(&Tok::Str("it's fine".into())));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("print *, 'oops").is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let err = lex("x = 1\ny = @").unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn identifier_starting_with_c_is_not_a_comment() {
        // `count = 1` begins with `c` but must not be treated as a comment.
        let k = kinds("count = 1");
        assert_eq!(k[0], Tok::Ident("COUNT".into()));
    }
}
