//! # polaris-ir — the Polaris internal representation
//!
//! This crate is the Rust analogue of the Polaris compiler's C++
//! infrastructure described in Section 2 of *"Restructuring Programs for
//! High-Speed Computers with Polaris"* (ICPP 1996): an abstract syntax tree
//! for a Fortran-77 subset ("F-Mini") together with layers of high-level
//! functionality — statement lists with consistency checks, structural
//! equality and wildcard pattern matching on expressions, and an unparser
//! that regenerates compilable source (including `!$POLARIS`
//! parallelization directives). F-Mini has no `GOTO`, so the statement
//! tree is the control flow and no separate graph is kept.
//!
//! The original Polaris enforced IR consistency with `p_assert`, reference
//! counting and an ownership convention; here Rust's ownership system plays
//! that role, complemented by [`validate::validate_program`] which performs
//! the same class of well-formedness checks (declared symbols, rank-correct
//! array references, well-formed loop nests) and by debug assertions
//! throughout the transformation passes.
//!
//! ## The F-Mini dialect
//!
//! F-Mini is a free-form, structured subset of Fortran 77:
//!
//! * program units: `PROGRAM`, `SUBROUTINE`, `FUNCTION`
//! * declarations: `INTEGER`, `REAL`, `DOUBLE PRECISION` (treated as
//!   `REAL`), `LOGICAL`, `DIMENSION`, `PARAMETER`, `COMMON`
//! * executable statements: assignment, `DO`/`END DO`, block `IF`/`ELSE
//!   IF`/`ELSE`/`END IF`, logical `IF`, `CALL`, `RETURN`, `STOP`,
//!   `CONTINUE`, `PRINT *`
//! * expressions: `+ - * / **`, relational (both `.LT.` and `<` spellings),
//!   `.AND. .OR. .NOT.`, intrinsics (`MOD`, `MAX`, `MIN`, `ABS`, `SQRT`,
//!   `SIN`, `COS`, `EXP`, `INT`, `REAL`, `DBLE`, `FLOAT`, `NINT`, `SIGN`)
//! * directives: `!$POLARIS DOALL ...` (parallel loop annotations, also
//!   produced by the unparser) and `!$ASSERT <relation>` (user assertions
//!   consumed by range propagation)
//!
//! `GOTO`, `EQUIVALENCE` and formatted I/O are intentionally excluded: all
//! of the paper's analyses operate on structured loop nests, and the
//! benchmark kernels of the evaluation are expressed without them (see
//! DESIGN.md for the substitution argument).

pub mod builder;
pub mod cert;
pub mod error;
pub mod expr;
pub(crate) mod lexer;
pub(crate) mod parser;
pub mod pattern;
pub mod printer;
pub(crate) mod program;
pub mod stmt;
pub mod symbol;
pub(crate) mod token;
pub mod types;
pub mod validate;
pub mod visit;

pub use error::CompileError;
pub use expr::{BinOp, Expr, LValue};
pub use program::{Program, ProgramUnit, UnitKind};
pub use stmt::{DoLoop, StmtId, StmtKind};
pub use symbol::ArrayProps;

use error::Result;

/// Parse F-Mini source text into a [`Program`].
///
/// This is the main entry point of the crate; it is equivalent to the
/// Polaris `Program` constructor that "reads complete Fortran codes".
pub fn parse(source: &str) -> Result<Program> {
    let mut program = parser::Parser::new(source)?.parse_program()?;
    parser::resolve_program_refs(&mut program);
    Ok(program)
}
