//! Recursive-descent parser for F-Mini.
//!
//! Produces a [`Program`] of [`ProgramUnit`]s. Declarations populate the
//! symbol table; undeclared identifiers are entered lazily with Fortran
//! implicit typing when first referenced. `!$POLARIS DOALL` directives
//! (as emitted by [`crate::printer`]) are parsed back onto the following
//! `DO` loop, which gives the unparser/parser pair a round-trip property
//! the test suite exploits.

use crate::error::{CompileError, Result};
use crate::expr::{is_intrinsic, BinOp, Expr, LValue, Name, RedOp, UnOp};
use crate::lexer::lex;
use crate::program::{CommonBlock, Program, ProgramUnit, UnitKind};
use crate::stmt::{
    DoLoop, IfArm, LoopId, ParallelInfo, Reduction, SpecInfo, Stmt, StmtId, StmtKind, StmtList,
};
use crate::symbol::{Dim, Symbol};
use crate::token::{Tok, Token};
use crate::types::DataType;

pub(crate) struct Parser {
    toks: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Directive pending attachment to the next DO loop.
    pending_par: Option<ParallelInfo>,
    /// Current expression nesting depth (recursion guard).
    depth: u32,
}

/// Deepest expression nesting accepted before the parser reports an
/// error instead of risking a stack overflow (an abort no caller could
/// contain). Nesting arises from parentheses, unary chains and the
/// right-recursive `**`. Each level costs ~8 recursive-descent frames,
/// so the limit must stay well inside a 2 MiB test-thread stack.
const MAX_EXPR_DEPTH: u32 = 64;

impl Parser {
    pub(crate) fn new(source: &str) -> Result<Parser> {
        Ok(Parser { toks: lex(source)?, pos: 0, next_id: 0, pending_par: None, depth: 0 })
    }

    // ----- token plumbing -------------------------------------------------

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        if self.pos + 1 < self.toks.len() {
            &self.toks[self.pos + 1].kind
        } else {
            &Tok::Eof
        }
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn col(&self) -> u32 {
        self.toks[self.pos].col
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &Tok) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &Tok) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(CompileError::parse(
                self.line(),
                format!("expected `{kind}`, found `{}`", self.peek()),
            )
            .at_col(self.col()))
        }
    }

    fn expect_ident(&mut self) -> Result<Name> {
        let (line, col) = (self.line(), self.col());
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(CompileError::parse(line, format!("expected identifier, found `{other}`"))
                .at_col(col)),
        }
    }

    /// Is the current token the keyword `kw`?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(CompileError::parse(
                self.line(),
                format!("expected `{kw}`, found `{}`", self.peek()),
            )
            .at_col(self.col()))
        }
    }

    fn eol(&mut self) -> Result<()> {
        match self.peek() {
            Tok::Newline => {
                self.bump();
                Ok(())
            }
            Tok::Eof => Ok(()),
            other => Err(CompileError::parse(
                self.line(),
                format!("expected end of statement, found `{other}`"),
            )
            .at_col(self.col())),
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        id
    }

    // ----- program structure ----------------------------------------------

    /// Parse all program units in the token stream.
    pub(crate) fn parse_program(mut self) -> Result<Program> {
        let mut program = Program::new();
        loop {
            self.skip_newlines();
            // Consume directives between units (ignored here).
            while matches!(self.peek(), Tok::Directive(_)) {
                self.bump();
                self.skip_newlines();
            }
            if matches!(self.peek(), Tok::Eof) {
                break;
            }
            let unit = self.parse_unit()?;
            if program.unit(&unit.name).is_some() {
                return Err(CompileError::parse(
                    self.line(),
                    format!("duplicate program unit `{}`", unit.name),
                ));
            }
            program.units.push(unit);
        }
        if program.units.is_empty() {
            return Err(CompileError::parse(1, "no program units found"));
        }
        Ok(program)
    }

    fn parse_unit(&mut self) -> Result<ProgramUnit> {
        self.next_id = 0;
        let (kind, name, args) = self.parse_unit_header()?;
        let mut unit = ProgramUnit::new(&*name, kind.clone());
        unit.args = args.clone();
        // Function name acts as the result variable.
        if let UnitKind::Function(ty) = &kind {
            let mut sym = Symbol::scalar(unit.name.clone(), *ty);
            sym.is_arg = false;
            unit.symbols.insert(sym);
        }
        self.eol()?;

        // Declarations come first (standard F77 ordering).
        loop {
            self.skip_newlines();
            if !self.parse_declaration(&mut unit)? {
                break;
            }
        }
        // Mark dummy arguments.
        for a in &args {
            if let Some(sym) = unit.symbols.get_mut(a) {
                sym.is_arg = true;
            } else {
                let mut sym = Symbol::scalar(a.clone(), DataType::implicit_for(a));
                sym.is_arg = true;
                unit.symbols.insert(sym);
            }
        }

        // Executable statements until END.
        let body = self.parse_stmt_list(&unit.name, &["END"])?;
        self.expect_kw("END")?;
        self.eol()?;
        unit.body = body;
        let max = self.next_id;
        unit.reserve_stmt_ids(max);
        self.declare_implicits(&mut unit);
        Ok(unit)
    }

    fn parse_unit_header(&mut self) -> Result<(UnitKind, Name, Vec<Name>)> {
        // PROGRAM name | SUBROUTINE name(args) | <type> FUNCTION name(args)
        if self.eat_kw("PROGRAM") {
            let name = self.expect_ident()?;
            return Ok((UnitKind::Program, name, Vec::new()));
        }
        if self.eat_kw("SUBROUTINE") {
            let name = self.expect_ident()?;
            let args = self.parse_arg_list()?;
            return Ok((UnitKind::Subroutine, name, args));
        }
        if let Some(ty) = self.try_type_keyword()? {
            self.expect_kw("FUNCTION")?;
            let name = self.expect_ident()?;
            let args = self.parse_arg_list()?;
            return Ok((UnitKind::Function(ty), name, args));
        }
        Err(CompileError::parse(
            self.line(),
            format!("expected PROGRAM/SUBROUTINE/FUNCTION, found `{}`", self.peek()),
        )
        .at_col(self.col()))
    }

    fn parse_arg_list(&mut self) -> Result<Vec<Name>> {
        let mut args = Vec::new();
        if self.eat(&Tok::LParen)
            && !self.eat(&Tok::RParen) {
                loop {
                    args.push(self.expect_ident()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
        Ok(args)
    }

    /// Try to consume a type keyword (`INTEGER`, `REAL`, `DOUBLE
    /// PRECISION`, `LOGICAL`). Only consumes on success.
    fn try_type_keyword(&mut self) -> Result<Option<DataType>> {
        let ty = match self.peek() {
            Tok::Ident(s) => match &**s {
                "INTEGER" => Some(DataType::Integer),
                "REAL" => Some(DataType::Real),
                "LOGICAL" => Some(DataType::Logical),
                "DOUBLE" => {
                    self.bump();
                    self.expect_kw("PRECISION")?;
                    return Ok(Some(DataType::Real));
                }
                _ => None,
            },
            _ => None,
        };
        if ty.is_some() {
            self.bump();
        }
        Ok(ty)
    }

    /// Parse one declaration statement if the cursor is at one.
    /// Returns false when the declaration section has ended.
    fn parse_declaration(&mut self, unit: &mut ProgramUnit) -> Result<bool> {
        // A type keyword followed by FUNCTION belongs to the next unit —
        // cannot happen here since units are parsed one at a time.
        let save = self.pos;
        if let Some(ty) = self.try_type_keyword()? {
            // Could still be an assignment to a variable named REAL etc.;
            // F-Mini forbids that, so treat as a declaration.
            loop {
                let name = self.expect_ident()?;
                if self.eat(&Tok::LParen) {
                    let dims = self.parse_dims()?;
                    unit.symbols.insert(Symbol::array(name, ty, dims));
                } else {
                    unit.symbols.insert(Symbol::scalar(name, ty));
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.eol()?;
            return Ok(true);
        }
        if self.eat_kw("DIMENSION") {
            loop {
                let name = self.expect_ident()?;
                self.expect(&Tok::LParen)?;
                let dims = self.parse_dims()?;
                let ty = unit.symbols.type_of(&name);
                unit.symbols.insert(Symbol::array(name, ty, dims));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.eol()?;
            return Ok(true);
        }
        if self.eat_kw("PARAMETER") {
            self.expect(&Tok::LParen)?;
            loop {
                let name = self.expect_ident()?;
                self.expect(&Tok::Assign)?;
                let value = self.parse_expr()?;
                let ty = unit
                    .symbols
                    .get(&name)
                    .map(|s| s.ty)
                    .unwrap_or_else(|| DataType::implicit_for(&name));
                unit.symbols.insert(Symbol::parameter(name, ty, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            self.eol()?;
            return Ok(true);
        }
        if self.eat_kw("COMMON") {
            self.expect(&Tok::Slash)?;
            let block = self.expect_ident()?;
            self.expect(&Tok::Slash)?;
            let mut vars = Vec::new();
            loop {
                let name = self.expect_ident()?;
                vars.push(name.clone());
                if let Some(sym) = unit.symbols.get_mut(&name) {
                    sym.common = Some(block.clone());
                } else {
                    let mut sym = Symbol::scalar(name.clone(), DataType::implicit_for(&name));
                    sym.common = Some(block.clone());
                    unit.symbols.insert(sym);
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            unit.commons.push(CommonBlock { name: block, vars });
            self.eol()?;
            return Ok(true);
        }
        self.pos = save;
        Ok(false)
    }

    fn parse_dims(&mut self) -> Result<Vec<Dim>> {
        // cursor just after `(`
        let mut dims = Vec::new();
        loop {
            let first = self.parse_expr()?;
            if self.eat(&Tok::Colon) {
                let hi = self.parse_expr()?;
                dims.push(Dim { lo: first, hi });
            } else {
                dims.push(Dim::upto(first));
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(dims)
    }

    /// Enter implicit symbols for every identifier used but not declared.
    fn declare_implicits(&mut self, unit: &mut ProgramUnit) {
        let mut names: Vec<Name> = Vec::new();
        unit.body.for_each_expr(&mut |e| match e {
            Expr::Var(n) => names.push(n.clone()),
            Expr::Index { array, .. } => names.push(array.clone()),
            _ => {}
        });
        unit.body.walk(&mut |s| match &s.kind {
            StmtKind::Assign { lhs, .. } => names.push(lhs.name().clone()),
            StmtKind::Do(d) => names.push(d.var.clone()),
            _ => {}
        });
        for n in names {
            if !unit.symbols.contains(&n) {
                unit.symbols.insert(Symbol::scalar(n.clone(), DataType::implicit_for(&n)));
            }
        }
    }

    // ----- statements -------------------------------------------------------

    /// Parse statements until one of the `stop_kws` keywords (not consumed).
    fn parse_stmt_list(&mut self, unit_name: &str, stop_kws: &[&str]) -> Result<StmtList> {
        let mut list = StmtList::new();
        loop {
            self.skip_newlines();
            if matches!(self.peek(), Tok::Eof) {
                break;
            }
            // Stop keywords terminate the list. Treat "ELSE" specially:
            // "ELSE IF" and bare "ELSE" both stop on "ELSE".
            if let Tok::Ident(word) = self.peek() {
                if stop_kws.contains(&&**word) {
                    // `END DO` / `END IF` / bare `END`: only stop on `END`
                    // when requested; caller disambiguates.
                    break;
                }
                // `ENDDO` / `ENDIF` compressed forms.
                if stop_kws.contains(&"END") && (word == "ENDDO" || word == "ENDIF") {
                    break;
                }
            }
            if let Tok::Directive(_) = self.peek() {
                if let Some(stmt) = self.parse_directive(unit_name)? {
                    list.push(stmt);
                }
                continue;
            }
            let stmt = self.parse_stmt(unit_name)?;
            list.push(stmt);
        }
        Ok(list)
    }

    /// Parse a directive line: either an assertion (becomes a statement) or
    /// a DOALL annotation (stored for the next DO).
    fn parse_directive(&mut self, _unit_name: &str) -> Result<Option<Stmt>> {
        let line = self.line();
        let text = match self.bump() {
            Tok::Directive(t) => t,
            _ => unreachable!(),
        };
        self.skip_newlines();
        if let Some(rest) = text.strip_prefix("ASSERT") {
            let cond = parse_sub_expr(rest.trim(), line)?;
            return Ok(Some(Stmt::new(self.fresh_id(), line, StmtKind::Assert { cond })));
        }
        if let Some(rest) = text.strip_prefix("POLARIS") {
            let info = parse_doall_directive(rest.trim(), line)?;
            self.pending_par = Some(info);
            return Ok(None);
        }
        // Unknown directives are ignored (like unknown pragmas).
        Ok(None)
    }

    fn parse_stmt(&mut self, unit_name: &str) -> Result<Stmt> {
        let line = self.line();
        // Keyword dispatch. Assignment is the fallback (Fortran has no
        // reserved words; `IF (...)` vs array assignment `IF(...) = x` is
        // disambiguated by what follows the closing parenthesis).
        if self.at_kw("DO") && !self.is_assignment_start() {
            return self.parse_do(unit_name);
        }
        if self.at_kw("IF") && !self.is_assignment_start() {
            return self.parse_if(unit_name);
        }
        if self.at_kw("CALL") {
            self.bump();
            let name = self.expect_ident()?;
            let mut args = Vec::new();
            if self.eat(&Tok::LParen)
                && !self.eat(&Tok::RParen) {
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                }
            self.eol()?;
            return Ok(Stmt::new(self.fresh_id(), line, StmtKind::Call { name, args }));
        }
        if self.at_kw("PRINT") && !self.is_assignment_start() {
            self.bump();
            self.expect(&Tok::Star)?;
            let mut items = Vec::new();
            while self.eat(&Tok::Comma) {
                items.push(self.parse_expr()?);
            }
            self.eol()?;
            return Ok(Stmt::new(self.fresh_id(), line, StmtKind::Print { items }));
        }
        if self.at_kw("RETURN") && matches!(self.peek2(), Tok::Newline | Tok::Eof) {
            self.bump();
            self.eol()?;
            return Ok(Stmt::new(self.fresh_id(), line, StmtKind::Return));
        }
        if self.at_kw("STOP") && matches!(self.peek2(), Tok::Newline | Tok::Eof) {
            self.bump();
            self.eol()?;
            return Ok(Stmt::new(self.fresh_id(), line, StmtKind::Stop));
        }
        if self.at_kw("CONTINUE") && matches!(self.peek2(), Tok::Newline | Tok::Eof) {
            self.bump();
            self.eol()?;
            return Ok(Stmt::new(self.fresh_id(), line, StmtKind::Continue));
        }
        // Assignment.
        self.parse_assignment(line)
    }

    /// Lookahead: does the statement start with `IDENT =` or `IDENT(...) =`?
    /// Used to let variables shadow statement keywords, as Fortran allows.
    fn is_assignment_start(&self) -> bool {
        if !matches!(self.peek(), Tok::Ident(_)) {
            return false;
        }
        match self.peek2() {
            Tok::Assign => true,
            Tok::LParen => {
                // scan to matching paren, check for `=`
                let mut depth = 0usize;
                let mut i = self.pos + 1;
                while i < self.toks.len() {
                    match &self.toks[i].kind {
                        Tok::LParen => depth += 1,
                        Tok::RParen => {
                            depth -= 1;
                            if depth == 0 {
                                return matches!(
                                    self.toks.get(i + 1).map(|t| &t.kind),
                                    Some(Tok::Assign)
                                );
                            }
                        }
                        Tok::Newline | Tok::Eof => return false,
                        _ => {}
                    }
                    i += 1;
                }
                false
            }
            _ => false,
        }
    }

    fn parse_assignment(&mut self, line: u32) -> Result<Stmt> {
        let name = self.expect_ident()?;
        let lhs = if self.eat(&Tok::LParen) {
            let mut subs = Vec::new();
            loop {
                subs.push(self.parse_expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            LValue::Index { array: name, subs }
        } else {
            LValue::Var(name)
        };
        self.expect(&Tok::Assign)?;
        let rhs = self.parse_expr()?;
        self.eol()?;
        Ok(Stmt::new(self.fresh_id(), line, StmtKind::Assign { lhs, rhs, reduction: None }))
    }

    fn parse_do(&mut self, unit_name: &str) -> Result<Stmt> {
        let line = self.line();
        let par = self.pending_par.take().unwrap_or_default();
        self.expect_kw("DO")?;
        let var = self.expect_ident()?;
        self.expect(&Tok::Assign)?;
        let init = self.parse_expr()?;
        self.expect(&Tok::Comma)?;
        let limit = self.parse_expr()?;
        let step = if self.eat(&Tok::Comma) { Some(self.parse_expr()?) } else { None };
        self.eol()?;
        let body = self.parse_stmt_list(unit_name, &["END", "ENDDO"])?;
        if self.eat_kw("ENDDO") {
        } else {
            self.expect_kw("END")?;
            self.expect_kw("DO")?;
        }
        self.eol()?;
        let label = format!("{unit_name}_do{line}");
        let id = self.fresh_id();
        // The loop's provenance id is derived from its own (unit-unique)
        // statement id, so no second counter is needed.
        let loop_id = LoopId(id.0);
        Ok(Stmt::new(
            id,
            line,
            StmtKind::Do(Box::new(DoLoop { var, init, limit, step, body, par, label, loop_id })),
        ))
    }

    fn parse_if(&mut self, unit_name: &str) -> Result<Stmt> {
        let line = self.line();
        self.expect_kw("IF")?;
        self.expect(&Tok::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&Tok::RParen)?;
        if self.eat_kw("THEN") {
            self.eol()?;
            let mut arms = Vec::new();
            let mut else_body = StmtList::new();
            let body = self.parse_stmt_list(unit_name, &["ELSE", "ELSEIF", "END", "ENDIF"])?;
            arms.push(IfArm { cond, body });
            loop {
                if self.eat_kw("ELSEIF") || (self.at_kw("ELSE") && self.peek2_is_kw("IF")) {
                    if self.eat_kw("ELSE") {
                        self.expect_kw("IF")?;
                    }
                    self.expect(&Tok::LParen)?;
                    let c = self.parse_expr()?;
                    self.expect(&Tok::RParen)?;
                    self.expect_kw("THEN")?;
                    self.eol()?;
                    let b = self.parse_stmt_list(unit_name, &["ELSE", "ELSEIF", "END", "ENDIF"])?;
                    arms.push(IfArm { cond: c, body: b });
                } else if self.eat_kw("ELSE") {
                    self.eol()?;
                    else_body = self.parse_stmt_list(unit_name, &["END", "ENDIF"])?;
                    break;
                } else {
                    break;
                }
            }
            if self.eat_kw("ENDIF") {
            } else {
                self.expect_kw("END")?;
                self.expect_kw("IF")?;
            }
            self.eol()?;
            Ok(Stmt::new(self.fresh_id(), line, StmtKind::IfBlock { arms, else_body }))
        } else {
            // Logical IF: desugar to a single-arm block.
            let inner = self.parse_stmt(unit_name)?;
            Ok(Stmt::new(
                self.fresh_id(),
                line,
                StmtKind::IfBlock {
                    arms: vec![IfArm { cond, body: StmtList(vec![inner]) }],
                    else_body: StmtList::new(),
                },
            ))
        }
    }

    fn peek2_is_kw(&self, kw: &str) -> bool {
        matches!(self.peek2(), Tok::Ident(s) if s == kw)
    }

    // ----- expressions ------------------------------------------------------

    pub(crate) fn parse_expr(&mut self) -> Result<Expr> {
        self.descend()?;
        let r = self.parse_or();
        self.depth -= 1;
        r
    }

    /// Recursion guard shared by every self-recursive expression rule.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(CompileError::parse(self.line(), "expression nesting too deep")
                .at_col(self.col()));
        }
        Ok(())
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat(&Tok::Or) {
            let rhs = self.parse_and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat(&Tok::And) {
            let rhs = self.parse_not()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Not) {
            self.descend()?;
            let arg = self.parse_not();
            self.depth -= 1;
            Ok(Expr::un(UnOp::Not, arg?))
        } else {
            self.parse_relational()
        }
    }

    fn parse_relational(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        let op = match self.peek() {
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::EqEq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_additive()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    /// Fold unary minus on literals at parse time (`-1` is `Int(-1)`,
    /// not `Neg(Int(1))`), keeping printed and parsed trees identical.
    fn negate(e: Expr) -> Expr {
        match e {
            Expr::Int(v) => Expr::Int(-v),
            Expr::Real(v) => Expr::Real(-v),
            other => Expr::neg(other),
        }
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        // Leading unary +/-.
        let mut lhs = if self.eat(&Tok::Minus) {
            Self::negate(self.parse_term()?)
        } else {
            self.eat(&Tok::Plus);
            self.parse_term()?
        };
        loop {
            if self.eat(&Tok::Plus) {
                lhs = Expr::add(lhs, self.parse_term()?);
            } else if self.eat(&Tok::Minus) {
                lhs = Expr::sub(lhs, self.parse_term()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_term(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_power()?;
        loop {
            if self.eat(&Tok::Star) {
                lhs = Expr::mul(lhs, self.parse_power()?);
            } else if self.eat(&Tok::Slash) {
                lhs = Expr::div(lhs, self.parse_power()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_power(&mut self) -> Result<Expr> {
        let base = self.parse_primary()?;
        if self.eat(&Tok::Pow) {
            // `**` is right-associative; `-` binds tighter on the exponent.
            self.descend()?;
            let exp = if self.eat(&Tok::Minus) {
                self.parse_power().map(Self::negate)
            } else {
                self.parse_power()
            };
            self.depth -= 1;
            Ok(Expr::bin(BinOp::Pow, base, exp?))
        } else {
            Ok(base)
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let (line, col) = (self.line(), self.col());
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Real(v) => Ok(Expr::Real(v)),
            Tok::True => Ok(Expr::Logical(true)),
            Tok::False => Ok(Expr::Logical(false)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Minus => {
                self.descend()?;
                let inner = self.parse_primary();
                self.depth -= 1;
                Ok(Self::negate(inner?))
            }
            Tok::Ident(name) => {
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    // Array reference vs call is resolved later by symbol
                    // kind; the parser marks intrinsics as calls and leaves
                    // the rest as Index nodes, which `resolve_refs` fixes
                    // once the symbol table is complete.
                    if is_intrinsic(&name) {
                        Ok(Expr::Call { name, args })
                    } else {
                        Ok(Expr::Index { array: name, subs: args })
                    }
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(CompileError::parse(
                line,
                format!("unexpected token `{other}` in expression"),
            )
            .at_col(col)),
        }
    }
}

/// Parse an expression from a directive payload string on source line
/// `line`. The payload is lexed on its own, so an error is reported at
/// the directive's line, without the payload-relative column.
fn parse_sub_expr(text: &str, line: u32) -> Result<Expr> {
    let at_directive = |e: CompileError| CompileError { line: Some(line), col: None, ..e };
    Parser::new(text).and_then(|mut p| p.parse_expr()).map_err(at_directive)
}

/// Parse `DOALL [SPECULATIVE(a, b*)] [PRIVATE(a, b)] [REDUCTION(+:x)]
/// [LASTPRIVATE(a)] [LASTVALUE(k = expr)]` from a `!$POLARIS` directive.
fn parse_doall_directive(text: &str, line: u32) -> Result<ParallelInfo> {
    let mut info = ParallelInfo::default();
    let rest = text
        .strip_prefix("DOALL")
        .ok_or_else(|| CompileError::parse(line, format!("unknown POLARIS directive `{text}`")))?;
    info.parallel = true;
    let mut s = rest.trim();
    let names = |items: &[&str]| -> Vec<Name> {
        items.iter().filter(|x| !x.is_empty()).map(|&x| Name::from(x)).collect()
    };
    while !s.is_empty() {
        let (word, after) = match s.find('(') {
            Some(i) => (&s[..i], &s[i + 1..]),
            None => return Err(CompileError::parse(line, format!("malformed clause `{s}`"))),
        };
        let (items, rest) = clause_items(after)
            .ok_or_else(|| CompileError::parse(line, "unbalanced clause parentheses"))?;
        s = rest.trim();
        match word.trim() {
            "PRIVATE" => info.private = names(&items),
            "REDUCTION" => {
                for part in items {
                    let (op, var) = part
                        .split_once(':')
                        .ok_or_else(|| CompileError::parse(line, "REDUCTION needs op:var"))?;
                    let op = match op.trim() {
                        "+" => RedOp::Sum,
                        "*" => RedOp::Product,
                        "MAX" => RedOp::Max,
                        "MIN" => RedOp::Min,
                        other => {
                            return Err(CompileError::parse(
                                line,
                                format!("unknown reduction op `{other}`"),
                            ))
                        }
                    };
                    let var = var.trim();
                    let (name, histogram) = match var.strip_suffix("[]") {
                        Some(base) => (base.trim().into(), true),
                        None => (var.into(), false),
                    };
                    info.reductions.push(Reduction { var: name, op, histogram });
                }
            }
            "LASTPRIVATE" => info.copy_out = names(&items),
            "LASTVALUE" => {
                for part in items {
                    let (name, value) = part
                        .split_once('=')
                        .ok_or_else(|| CompileError::parse(line, "LASTVALUE needs name=expr"))?;
                    info.lastvalue
                        .push((name.trim().into(), parse_sub_expr(value.trim(), line)?));
                }
            }
            "SPECULATIVE" => {
                let mut spec = SpecInfo { tracked: Vec::new(), privatized: Vec::new() };
                for part in items {
                    if let Some(base) = part.strip_suffix("*") {
                        spec.tracked.push(base.into());
                        spec.privatized.push(base.into());
                    } else if !part.is_empty() {
                        spec.tracked.push(part.into());
                    }
                }
                info.parallel = false;
                info.speculative = Some(spec);
            }
            other => {
                return Err(CompileError::parse(line, format!("unknown DOALL clause `{other}`")))
            }
        }
    }
    Ok(info)
}

/// The trimmed comma-separated items of a clause payload and the text
/// after it, `s` starting just past the clause's `(`. Only commas outside
/// any nested parentheses separate items, so `LASTVALUE(K = MAX(1, 2))`
/// is one item. `None` if the clause's `)` is missing.
fn clause_items(s: &str) -> Option<(Vec<&str>, &str)> {
    let (mut depth, mut start, mut items) = (0u32, 0, Vec::new());
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 0 => {
                items.push(s[start..i].trim());
                return Some((items, &s[i + 1..]));
            }
            ')' => depth -= 1,
            ',' if depth == 0 => {
                items.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    None
}

/// After parsing, `Expr::Index` nodes whose base is not an array symbol
/// are really function calls; fix them in place. The parser calls this
/// indirectly through [`resolve_program_refs`].
pub(crate) fn resolve_unit_refs(unit: &mut ProgramUnit) {
    let symbols = &unit.symbols;
    unit.body.map_exprs(&mut |e| match e {
        Expr::Index { array, subs } if !symbols.is_array(&array) => {
            Expr::Call { name: array, args: subs }
        }
        other => other,
    });
}

/// Resolve array-vs-call ambiguity in every unit of `program`.
pub(crate) fn resolve_program_refs(program: &mut Program) {
    for unit in &mut program.units {
        resolve_unit_refs(unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_main(body: &str) -> ProgramUnit {
        let src = format!("program t\n{body}\nend\n");
        let mut p = crate::parse(&src).unwrap();
        crate::parser::resolve_program_refs(&mut p);
        p.units.remove(0)
    }

    #[test]
    fn parses_do_loop_with_bounds() {
        let u = parse_main("integer n\ndo i = 1, n\n  a(i) = i\nend do");
        let loops = u.body.loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].var, "I");
        assert_eq!(loops[0].limit, Expr::var("N"));
        assert!(loops[0].step.is_none());
    }

    #[test]
    fn parses_do_with_step_and_enddo() {
        let u = parse_main("do k = 10, 2, -2\n  x = k\nenddo");
        let d = u.body.loops()[0];
        assert_eq!(d.step.clone().unwrap().simplified().as_int(), Some(-2));
    }

    #[test]
    fn precedence_pow_over_mul_over_add() {
        let u = parse_main("y = a + b*c**2");
        let rhs = match &u.body.0[0].kind {
            StmtKind::Assign { rhs, .. } => rhs.clone(),
            _ => panic!(),
        };
        // a + (b * (c**2))
        match rhs {
            Expr::Bin { op: BinOp::Add, rhs: r, .. } => match *r {
                Expr::Bin { op: BinOp::Mul, rhs: r2, .. } => {
                    assert!(matches!(*r2, Expr::Bin { op: BinOp::Pow, .. }))
                }
                _ => panic!("expected Mul"),
            },
            _ => panic!("expected Add"),
        }
    }

    #[test]
    fn pow_is_right_associative() {
        let u = parse_main("y = 2**3**2");
        let rhs = match &u.body.0[0].kind {
            StmtKind::Assign { rhs, .. } => rhs.clone(),
            _ => panic!(),
        };
        assert_eq!(rhs.simplified().as_int(), Some(512));
    }

    #[test]
    fn block_if_with_elseif_and_else() {
        let u = parse_main(
            "if (x > 0) then\n  y = 1\nelse if (x < 0) then\n  y = 2\nelse\n  y = 3\nend if",
        );
        match &u.body.0[0].kind {
            StmtKind::IfBlock { arms, else_body } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(else_body.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn logical_if_desugars() {
        let u = parse_main("if (r .lt. rcuts) ind(j) = 1");
        match &u.body.0[0].kind {
            StmtKind::IfBlock { arms, else_body } => {
                assert_eq!(arms.len(), 1);
                assert_eq!(arms[0].body.len(), 1);
                assert!(else_body.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn array_vs_call_resolution() {
        let u = parse_main("real a(10)\nx = a(3) + foo(3)");
        let rhs = match &u.body.0[0].kind {
            StmtKind::Assign { rhs, .. } => rhs.clone(),
            _ => panic!(),
        };
        match rhs {
            Expr::Bin { lhs, rhs, .. } => {
                assert!(matches!(*lhs, Expr::Index { .. }));
                assert!(matches!(*rhs, Expr::Call { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn intrinsics_are_calls_even_undeclared() {
        let u = parse_main("x = max(a, b)");
        match &u.body.0[0].kind {
            StmtKind::Assign { rhs: Expr::Call { name, args }, .. } => {
                assert_eq!(name, "MAX");
                assert_eq!(args.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn declarations_and_parameters() {
        let u = parse_main("integer n, m\nparameter (n = 64, m = 2*n)\nreal a(n, m)\nx = 1.0");
        assert_eq!(u.symbols.get("N").unwrap().kind, crate::symbol::SymKind::Parameter(Expr::int(64)));
        let a = u.symbols.get("A").unwrap();
        assert_eq!(a.rank(), 2);
    }

    #[test]
    fn common_blocks() {
        let u = parse_main("real u(100)\ncommon /shared/ u, nstep\nx = 1.0");
        assert_eq!(u.commons.len(), 1);
        assert_eq!(u.commons[0].vars, vec!["U", "NSTEP"]);
        assert_eq!(u.symbols.get("U").unwrap().common.as_deref(), Some("SHARED"));
    }

    #[test]
    fn subroutine_with_args() {
        let src = "subroutine sub(a, n)\nreal a(n)\ninteger n\ndo i = 1, n\na(i) = 0.0\nend do\nreturn\nend\n";
        let p = crate::parse(src).unwrap();
        let u = &p.units[0];
        assert_eq!(u.kind, UnitKind::Subroutine);
        assert_eq!(u.args, vec!["A", "N"]);
        assert!(u.symbols.get("A").unwrap().is_arg);
    }

    #[test]
    fn function_unit() {
        let src = "real function f(x)\nreal x\nf = x*x\nreturn\nend\n";
        let p = crate::parse(src).unwrap();
        assert_eq!(p.units[0].kind, UnitKind::Function(DataType::Real));
    }

    #[test]
    fn multiple_units_and_duplicate_rejection() {
        let src = "program p\nx=1\nend\nsubroutine s\ny=2\nend\n";
        let p = crate::parse(src).unwrap();
        assert_eq!(p.units.len(), 2);
        let dup = "program p\nx=1\nend\nprogram p\ny=1\nend\n";
        assert!(crate::parse(dup).is_err());
    }

    #[test]
    fn doall_directive_attaches_to_loop() {
        let src = "program p\n!$polaris doall private(T) reduction(+:S) lastvalue(K=N+1)\ndo i=1,10\ns = s + 1.0\nend do\nend\n";
        let p = crate::parse(src).unwrap();
        let d = p.units[0].body.loops()[0];
        assert!(d.par.parallel);
        assert_eq!(d.par.private, vec!["T"]);
        assert_eq!(d.par.reductions.len(), 1);
        assert_eq!(d.par.lastvalue[0].0, "K");
    }

    #[test]
    fn assert_directive_becomes_statement() {
        let src = "program p\n!$assert (n >= 1)\nx = 1\nend\n";
        let p = crate::parse(src).unwrap();
        assert!(matches!(p.units[0].body.0[0].kind, StmtKind::Assert { .. }));
    }

    #[test]
    fn a_comma_inside_a_clause_expression_does_not_split_the_clause() {
        let src = "program p\n!$polaris doall lastvalue(k = max(1, 2), m = n)\n\
                   do i = 1, 10\nk = i\nend do\nend\n";
        let p = crate::parse(src).unwrap();
        let max = Expr::call("MAX", vec![Expr::int(1), Expr::int(2)]);
        assert_eq!(
            p.units[0].body.loops()[0].par.lastvalue,
            [(Name::from("K"), max), (Name::from("M"), Expr::var("N"))]
        );
    }

    /// Every clause the printer emits parses back to the annotation it
    /// printed.
    #[test]
    fn every_printed_clause_parses_back_to_its_annotation() {
        let names = |xs: &[&str]| xs.iter().map(|&x| Name::from(x)).collect::<Vec<_>>();
        let par = ParallelInfo {
            parallel: false,
            private: names(&["T", "U"]),
            lastvalue: vec![("K".into(), Expr::call("MAX", vec![Expr::int(1), Expr::var("N")]))],
            copy_out: names(&["J"]),
            reductions: vec![
                Reduction { var: "S".into(), op: RedOp::Sum, histogram: false },
                Reduction { var: "H".into(), op: RedOp::Max, histogram: true },
            ],
            speculative: Some(SpecInfo { tracked: names(&["A", "B"]), privatized: names(&["B"]) }),
            serial_reason: None,
        };
        let mut program = crate::parse("program p\ndo i = 1, 10\nk = i\nend do\nend\n").unwrap();
        program.units[0].body.walk_mut(&mut |s| {
            if let StmtKind::Do(d) = &mut s.kind {
                d.par = par.clone();
            }
        });
        let text = crate::printer::print_program(&program);
        assert!(
            text.contains(
                "!$POLARIS DOALL SPECULATIVE(A, B*) PRIVATE(T, U) REDUCTION(+:S, MAX:H[]) \
                 LASTPRIVATE(J) LASTVALUE(K = MAX(1, N))"
            ),
            "{text}"
        );
        assert_eq!(crate::parse(&text).unwrap().units[0].body.loops()[0].par, par);
    }

    /// A directive's payload is lexed on its own; its errors still carry
    /// the directive's source line.
    #[test]
    fn a_malformed_directive_payload_is_reported_at_the_directive_line() {
        let assert = "program p\nx = 1\ny = 2\n!$assert (k .gt. )\nend\n";
        assert_eq!(
            crate::parse(assert).unwrap_err().to_string(),
            "parse error at line 4: unexpected token `)` in expression"
        );
        let lastvalue = "program p\nx = 1\ny = 2\n!$polaris doall lastvalue(k = max(1, ))\n\
                         do i = 1, 10\nk = i\nend do\nend\n";
        assert_eq!(crate::parse(lastvalue).unwrap_err().line, Some(4));
    }

    #[test]
    fn variables_may_shadow_keywords_in_assignment() {
        // a variable literally named DO used as assignment target
        let u = parse_main("do = 3");
        assert!(matches!(&u.body.0[0].kind, StmtKind::Assign { lhs, .. } if lhs.name() == "DO"));
    }

    #[test]
    fn stmt_ids_are_unique_within_unit() {
        let u = parse_main("x = 1\ndo i = 1, 3\n  y = 2\n  z = 3\nend do");
        let mut ids = Vec::new();
        u.body.walk(&mut |s| ids.push(s.id));
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
    }

    #[test]
    fn nested_loops_get_distinct_labels() {
        let u = parse_main("do i = 1, 3\n  do j = 1, 3\n    x = 1\n  end do\nend do");
        let labels: Vec<_> = u.body.loops().iter().map(|d| d.label.clone()).collect();
        assert_eq!(labels.len(), 2);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn deep_paren_nesting_is_an_error_not_a_stack_overflow() {
        for pathological in [
            format!("program p\nx = {}1{}\nend\n", "(".repeat(20_000), ")".repeat(20_000)),
            format!("program p\nx = 1{}\nend\n", "**1".repeat(20_000)),
            format!("program p\nx = {}1\nend\n", "-(".repeat(20_000)),
            format!("program p\nif ({}y) x = 1\nend\n", ".not.".repeat(20_000)),
        ] {
            let err = crate::parse(&pathological).unwrap_err();
            assert!(
                err.message.contains("nesting too deep") || err.message.contains("unexpected"),
                "{err}"
            );
        }
        // ...while reasonable nesting still parses
        let fine = format!("program p\nx = {}1{}\nend\n", "(".repeat(50), ")".repeat(50));
        assert!(crate::parse(&fine).is_ok());
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        // the dangling `+` is reported at the end of ITS line, not the next
        let err = crate::parse("program p\nx = 1 +\ny = 2\nend\n").unwrap_err();
        assert_eq!(err.line, Some(2), "{err}");
        assert!(err.col.is_some(), "{err}");
        let err = crate::parse("program p\nx = ,\nend\n").unwrap_err();
        assert_eq!(err.line, Some(2), "{err}");
        assert_eq!(err.col, Some(5), "{err}");
    }

    #[test]
    fn error_on_missing_end_do() {
        assert!(crate::parse("program p\ndo i = 1, 3\nx = 1\nend\n").is_err());
    }

    #[test]
    fn print_statement() {
        let u = parse_main("print *, 'result', x, 2*y");
        match &u.body.0[0].kind {
            StmtKind::Print { items } => assert_eq!(items.len(), 3),
            _ => panic!(),
        }
    }
}
