//! Programs and program units.

use crate::stmt::{StmtId, StmtList};
use crate::symbol::SymbolTable;
use crate::types::DataType;

/// Kind of a program unit.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitKind {
    /// The main `PROGRAM`.
    Program,
    /// A `SUBROUTINE`.
    Subroutine,
    /// A `FUNCTION` with its result type.
    Function(DataType),
}

/// A `COMMON /name/ a, b, c` block declaration inside a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonBlock {
    pub name: crate::Name,
    pub vars: Vec<crate::Name>,
}

/// One Fortran program unit: name, dummy arguments, symbol table, body.
///
/// Mirrors the Polaris `ProgramUnit` — "a container for the various data
/// structure elements that make up a Fortran program unit including
/// statements, a symbol table, common blocks".
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramUnit {
    pub name: String,
    pub kind: UnitKind,
    /// Dummy argument names, in order.
    pub args: Vec<crate::Name>,
    pub symbols: SymbolTable,
    pub commons: Vec<CommonBlock>,
    pub body: StmtList,
    /// Next fresh statement id (monotone; parser sets past the maximum).
    next_stmt_id: u32,
}

impl ProgramUnit {
    pub(crate) fn new(name: impl Into<String>, kind: UnitKind) -> ProgramUnit {
        ProgramUnit {
            name: name.into().to_ascii_uppercase(),
            kind,
            args: Vec::new(),
            symbols: SymbolTable::new(),
            commons: Vec::new(),
            body: StmtList::new(),
            next_stmt_id: 0,
        }
    }

    /// Allocate a fresh statement id for a synthesized statement.
    pub fn fresh_stmt_id(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt_id);
        self.next_stmt_id += 1;
        id
    }

    /// Inform the unit that ids up to `max` are in use (parser / merge).
    pub(crate) fn reserve_stmt_ids(&mut self, max_used: u32) {
        self.next_stmt_id = self.next_stmt_id.max(max_used + 1);
    }

    /// Highest id handed out so far plus one.
    pub fn stmt_id_watermark(&self) -> u32 {
        self.next_stmt_id
    }

    pub fn is_main(&self) -> bool {
        matches!(self.kind, UnitKind::Program)
    }
}

/// A whole program: an ordered collection of program units.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub units: Vec<ProgramUnit>,
}

impl Program {
    pub(crate) fn new() -> Program {
        Program::default()
    }

    /// The main program unit, if present.
    pub fn main(&self) -> Option<&ProgramUnit> {
        self.units.iter().find(|u| u.is_main())
    }

    pub fn main_mut(&mut self) -> Option<&mut ProgramUnit> {
        self.units.iter_mut().find(|u| u.is_main())
    }

    /// Look a unit up by (case-insensitive) name.
    pub(crate) fn unit(&self, name: &str) -> Option<&ProgramUnit> {
        let name = name.to_ascii_uppercase();
        self.units.iter().find(|u| u.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_monotone_and_respect_reserve() {
        let mut u = ProgramUnit::new("main", UnitKind::Program);
        let a = u.fresh_stmt_id();
        u.reserve_stmt_ids(100);
        let b = u.fresh_stmt_id();
        assert!(b.0 > a.0);
        assert_eq!(b.0, 101);
    }
}
