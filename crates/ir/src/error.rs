//! Error types shared by the lexer, parser and validators.

use std::fmt;

/// Result alias used throughout the frontend.
pub type Result<T> = std::result::Result<T, CompileError>;

/// An error produced while lexing, parsing or validating F-Mini source.
///
/// Polaris reported internal inconsistencies through `p_assert`; in this
/// reproduction user-facing problems surface as `CompileError` values while
/// internal invariants use `debug_assert!`/`panic!`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Which stage produced the error.
    pub(crate) stage: Stage,
    /// 1-based source line, when known.
    pub(crate) line: Option<u32>,
    /// 1-based source column, when known.
    pub(crate) col: Option<u32>,
    /// Human-readable description.
    pub(crate) message: String,
}

/// Frontend stage that produced a [`CompileError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Lex,
    Parse,
    Validate,
    /// Errors raised by transformation passes (e.g. the inliner refusing a
    /// nonconforming argument mapping).
    Transform,
}

impl CompileError {
    pub(crate) fn lex(line: u32, message: impl Into<String>) -> Self {
        CompileError { stage: Stage::Lex, line: Some(line), col: None, message: message.into() }
    }

    pub(crate) fn parse(line: u32, message: impl Into<String>) -> Self {
        CompileError { stage: Stage::Parse, line: Some(line), col: None, message: message.into() }
    }

    pub fn validate(message: impl Into<String>) -> Self {
        CompileError { stage: Stage::Validate, line: None, col: None, message: message.into() }
    }

    pub fn transform(message: impl Into<String>) -> Self {
        CompileError { stage: Stage::Transform, line: None, col: None, message: message.into() }
    }

    /// Attach a source line if none is recorded yet.
    pub fn with_line(mut self, line: u32) -> Self {
        self.line.get_or_insert(line);
        self
    }

    /// Attach a source column (builder style).
    pub(crate) fn at_col(mut self, col: u32) -> Self {
        self.col = Some(col);
        self
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stage = match self.stage {
            Stage::Lex => "lex",
            Stage::Parse => "parse",
            Stage::Validate => "validate",
            Stage::Transform => "transform",
        };
        match (self.line, self.col) {
            (Some(line), Some(col)) => {
                write!(f, "{stage} error at line {line}, col {col}: {}", self.message)
            }
            (Some(line), None) => write!(f, "{stage} error at line {line}: {}", self.message),
            _ => write!(f, "{stage} error: {}", self.message),
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_line() {
        let e = CompileError::parse(12, "expected END DO");
        assert_eq!(e.to_string(), "parse error at line 12: expected END DO");
        let e = CompileError::validate("duplicate unit MAIN");
        assert_eq!(e.to_string(), "validate error: duplicate unit MAIN");
    }

    #[test]
    fn with_line_does_not_overwrite() {
        let e = CompileError::parse(3, "x").with_line(9);
        assert_eq!(e.line, Some(3));
        let e = CompileError::validate("x").with_line(9);
        assert_eq!(e.line, Some(9));
    }
}
