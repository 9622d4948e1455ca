//! Tokens produced by the F-Mini lexer.

use std::fmt;

/// A lexical token with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub(crate) kind: Tok,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// Token kinds. Keywords are lexed as `Ident` and classified by the
/// parser (Fortran has no reserved words).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier or keyword, upper-cased.
    Ident(crate::Name),
    /// Integer literal.
    Int(i64),
    /// Real literal (covers `1.5`, `1E-3`, `2.5D0`).
    Real(f64),
    /// Character literal `'...'`.
    Str(String),
    /// `.TRUE.`
    True,
    /// `.FALSE.`
    False,
    Plus,
    Minus,
    Star,
    Slash,
    /// `**`
    Pow,
    LParen,
    RParen,
    /// `[`, only meaningful in a `REDUCTION(op:var[])` clause.
    LBracket,
    RBracket,
    Comma,
    Assign,
    Colon,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    And,
    Or,
    Not,
    /// End of a logical source line (statement separator).
    Newline,
    /// Opens a `!$POLARIS ...` or `!$ASSERT ...` directive line, whose
    /// words follow as ordinary tokens.
    Directive,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Real(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::True => write!(f, ".TRUE."),
            Tok::False => write!(f, ".FALSE."),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Pow => write!(f, "**"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Assign => write!(f, "="),
            Tok::Colon => write!(f, ":"),
            Tok::Lt => write!(f, ".LT."),
            Tok::Le => write!(f, ".LE."),
            Tok::Gt => write!(f, ".GT."),
            Tok::Ge => write!(f, ".GE."),
            Tok::EqEq => write!(f, ".EQ."),
            Tok::Ne => write!(f, ".NE."),
            Tok::And => write!(f, ".AND."),
            Tok::Or => write!(f, ".OR."),
            Tok::Not => write!(f, ".NOT."),
            Tok::Newline => write!(f, "<eol>"),
            Tok::Directive => write!(f, "!$"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}
