//! Recursive-descent parser for the mini-Fortran surface syntax.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! program    := subroutine*
//! subroutine := SUBROUTINE name '(' params ')' nl decl* stmt* END nl
//! decl       := (DIMENSION | INTEGER | REAL) declitem (',' declitem)* nl
//! declitem   := name [ '(' dim (',' dim)* ')' ]      dim := expr | '*'
//! stmt       := assign | if | do | dowhile | call | read
//! do         := DO [label:] var '=' expr ',' expr [',' expr] nl stmt* ENDDO
//! dowhile    := DO [label:] WHILE '(' expr ')' nl stmt* ENDDO
//! if         := IF '(' expr ')' THEN nl stmt* [ELSE nl stmt*] ENDIF
//!             | IF '(' expr ')' simple-stmt
//! ```
//!
//! Loop labels are written `DO label: i = 1, N` — a small extension over
//! F77's numeric labels that keeps the paper's `SOLVH_do20`-style names.
//!
//! The grammar recurses (`expr → … → atom → expr`, `stmt → block →
//! stmt`), and so does everything that later walks the tree it builds.
//! Source text arrives over the wire, so both are bounded here:
//! [`MAX_NESTING`] caps how deep blocks, parentheses, subscripts, calls
//! and prefix operators may nest, and the binary operators of one
//! expression are charged to the same budget (a left-leaning chain
//! `1+1+1+…` is parsed by a loop, but it is as deep a tree as `((((…`).
//! Past the cap parsing ends in a [`ParseError`] — a stack overflow
//! would take the process down, `catch_unwind` or not.

use std::fmt;

use lip_symbolic::sym;

use crate::ast::*;
use crate::lexer::{lex, LexError, Spanned, Tok};

/// Parse failure.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// The nesting budget of one expression or block (see the module
/// documentation): no tree the parser returns is deeper than twice this.
pub const MAX_NESTING: u32 = 200;

/// Parses a whole program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        exprs_open: 0,
        links: 0,
    };
    let mut units = Vec::new();
    p.skip_newlines();
    while !p.at_end() {
        units.push(p.subroutine()?);
        p.skip_newlines();
    }
    Ok(Program { units })
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Open blocks, parentheses, subscripts, calls and prefix operators.
    depth: u32,
    /// Open `expr` calls: zero between two outermost expressions.
    exprs_open: u32,
    /// Binary operators of the outermost expression being parsed so far.
    links: u32,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    /// Runs `parse` one nesting level down.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.charge()?;
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Charges one binary operator to the expression being parsed.
    fn link(&mut self) -> Result<(), ParseError> {
        self.charge()?;
        self.links += 1;
        Ok(())
    }

    fn charge(&self) -> Result<(), ParseError> {
        if self.depth + self.links >= MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        Ok(())
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.err(format!("expected '{tok}', found '{found}'"))
            }
        }
    }

    fn skip_newlines(&mut self) {
        while self.peek() == Some(&Tok::Newline) {
            self.pos += 1;
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(Tok::Newline) | None => {
                self.skip_newlines();
                Ok(())
            }
            Some(t) => {
                let t = t.to_string();
                self.err(format!("expected end of statement, found '{t}'"))
            }
        }
    }

    /// Peeks at an identifier and returns its uppercase form.
    fn peek_kw(&self) -> Option<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => Some(s.to_uppercase()),
            _ => None,
        }
    }

    fn take_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.err(format!("expected identifier, found '{found}'"))
            }
        }
    }

    fn subroutine(&mut self) -> Result<Subroutine, ParseError> {
        if self.peek_kw().as_deref() != Some("SUBROUTINE") {
            return self.err("expected SUBROUTINE");
        }
        self.pos += 1;
        let name = sym(&self.take_ident()?);
        let mut params = Vec::new();
        self.expect(&Tok::LParen)?;
        if self.peek() != Some(&Tok::RParen) {
            loop {
                params.push(sym(&self.take_ident()?));
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect_newline()?;
        // Declarations.
        let mut decls: Vec<Decl> = Vec::new();
        loop {
            match self.peek_kw().as_deref() {
                Some("DIMENSION") => {
                    self.pos += 1;
                    self.decl_items(None, &mut decls)?;
                }
                Some("INTEGER") => {
                    self.pos += 1;
                    self.decl_items(Some(Ty::Int), &mut decls)?;
                }
                Some("REAL") | Some("DOUBLE") => {
                    // Treat DOUBLE PRECISION as REAL.
                    if self.peek_kw().as_deref() == Some("DOUBLE") {
                        self.pos += 1;
                        if self.peek_kw().as_deref() == Some("PRECISION") {
                            self.pos += 1;
                        }
                    } else {
                        self.pos += 1;
                    }
                    self.decl_items(Some(Ty::Real), &mut decls)?;
                }
                _ => break,
            }
        }
        // Body.
        let body = self.stmt_block(&["END"])?;
        self.pos += 1; // consume END
        self.expect_newline()?;
        Ok(Subroutine {
            name,
            params,
            decls,
            body,
        })
    }

    fn decl_items(&mut self, ty: Option<Ty>, decls: &mut Vec<Decl>) -> Result<(), ParseError> {
        loop {
            let name_str = self.take_ident()?;
            let name = sym(&name_str);
            let mut dims = Vec::new();
            if self.peek() == Some(&Tok::LParen) {
                self.pos += 1;
                loop {
                    if self.peek() == Some(&Tok::Star) {
                        self.pos += 1;
                        dims.push(DimDecl::Assumed);
                    } else {
                        dims.push(DimDecl::Fixed(self.expr()?));
                    }
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
            let ty = ty.unwrap_or_else(|| implicit_ty(&name_str));
            decls.push(Decl { name, dims, ty });
            if self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_newline()
    }

    /// Parses statements until one of the terminator keywords (not
    /// consumed).
    fn stmt_block(&mut self, terminators: &[&str]) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek_kw() {
                Some(kw) if terminators.contains(&kw.as_str()) => return Ok(out),
                None if self.at_end() => {
                    return self.err(format!("missing terminator {terminators:?}"))
                }
                _ => out.push(self.nested(Parser::stmt)?),
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let kw = self.peek_kw();
        match kw.as_deref() {
            Some("DO") => self.do_stmt(),
            Some("IF") => self.if_stmt(),
            Some("CALL") => {
                self.pos += 1;
                let callee = sym(&self.take_ident()?);
                let mut args = Vec::new();
                self.expect(&Tok::LParen)?;
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if self.peek() == Some(&Tok::Comma) {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                self.expect_newline()?;
                Ok(Stmt::Call { callee, args })
            }
            Some("READ") => {
                self.pos += 1;
                // READ(*,*) a, b, c
                self.expect(&Tok::LParen)?;
                self.expect(&Tok::Star)?;
                self.expect(&Tok::Comma)?;
                self.expect(&Tok::Star)?;
                self.expect(&Tok::RParen)?;
                let mut targets = Vec::new();
                loop {
                    targets.push(sym(&self.take_ident()?));
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect_newline()?;
                Ok(Stmt::Read { targets })
            }
            _ => self.assign_stmt(),
        }
    }

    fn assign_stmt(&mut self) -> Result<Stmt, ParseError> {
        let name = sym(&self.take_ident()?);
        let lhs = if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            let mut idx = Vec::new();
            loop {
                idx.push(self.expr()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            LValue::Element(name, idx)
        } else {
            LValue::Scalar(name)
        };
        self.expect(&Tok::Assign)?;
        let rhs = self.expr()?;
        self.expect_newline()?;
        Ok(Stmt::Assign { lhs, rhs })
    }

    fn do_stmt(&mut self) -> Result<Stmt, ParseError> {
        // Consume `DO`. Labels: `DO i = 1, N` has exactly one identifier
        // before `=`; if two appear, the first is the label (our lexer
        // has no `:` token, so there is no `DO label:` form).
        self.pos += 1;
        let first = self.take_ident()?;
        if first.to_uppercase() == "WHILE" {
            self.expect(&Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(&Tok::RParen)?;
            self.expect_newline()?;
            let body = self.stmt_block(&["ENDDO"])?;
            self.pos += 1;
            self.expect_newline()?;
            return Ok(Stmt::While {
                label: None,
                cond,
                body,
            });
        }
        let (label, var) = match self.peek() {
            Some(Tok::Ident(second)) => {
                let second = second.clone();
                if second.to_uppercase() == "WHILE" {
                    self.pos += 1;
                    self.expect(&Tok::LParen)?;
                    let cond = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    self.expect_newline()?;
                    let body = self.stmt_block(&["ENDDO"])?;
                    self.pos += 1;
                    self.expect_newline()?;
                    return Ok(Stmt::While {
                        label: Some(first),
                        cond,
                        body,
                    });
                }
                self.pos += 1;
                (Some(first), sym(&second))
            }
            _ => (None, sym(&first)),
        };
        self.expect(&Tok::Assign)?;
        let lo = self.expr()?;
        self.expect(&Tok::Comma)?;
        let hi = self.expr()?;
        let step = if self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_newline()?;
        let body = self.stmt_block(&["ENDDO"])?;
        self.pos += 1;
        self.expect_newline()?;
        Ok(Stmt::Do {
            label,
            var,
            lo,
            hi,
            step,
            body,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.pos += 1; // IF
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        if self.peek_kw().as_deref() == Some("THEN") {
            self.pos += 1;
            self.expect_newline()?;
            let then_body = self.stmt_block(&["ELSE", "ELSEIF", "ENDIF"])?;
            let mut else_body = Vec::new();
            match self.peek_kw().as_deref() {
                Some("ELSE") => {
                    self.pos += 1;
                    self.expect_newline()?;
                    else_body = self.stmt_block(&["ENDIF"])?;
                    self.pos += 1; // ENDIF
                }
                Some("ELSEIF") => {
                    // ELSEIF (cond) THEN ... — desugar to nested IF.
                    // Rewrite by parsing an if-stmt whose IF keyword was
                    // ELSEIF; the nested parse consumes up to ENDIF.
                    else_body = vec![self.nested(Parser::if_stmt)?];
                    // The nested call consumed ENDIF and the newline.
                    return Ok(Stmt::If {
                        cond,
                        then_body,
                        else_body,
                    });
                }
                Some("ENDIF") => {
                    self.pos += 1;
                }
                _ => return self.err("expected ELSE/ENDIF"),
            }
            self.expect_newline()?;
            Ok(Stmt::If {
                cond,
                then_body,
                else_body,
            })
        } else {
            // Logical IF: one simple statement on the same line.
            let body = self.nested(Parser::stmt)?;
            Ok(Stmt::If {
                cond,
                then_body: vec![body],
                else_body: vec![],
            })
        }
    }

    // Expressions: precedence climbing.
    // or < and < not < comparison < add/sub < mul/div < unary minus < power.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        if self.exprs_open == 0 {
            self.links = 0;
        }
        self.exprs_open += 1;
        let out = self.nested(Parser::or_expr);
        self.exprs_open -= 1;
        out
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while let Some(Tok::DotOp(op)) = self.peek() {
            if op == "OR" {
                self.pos += 1;
                self.link()?;
                let rhs = self.and_expr()?;
                lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while let Some(Tok::DotOp(op)) = self.peek() {
            if op == "AND" {
                self.pos += 1;
                self.link()?;
                let rhs = self.not_expr()?;
                lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if let Some(Tok::DotOp(op)) = self.peek() {
            if op == "NOT" {
                self.pos += 1;
                let inner = self.nested(Parser::not_expr)?;
                return Ok(Expr::Un(UnOp::Not, Box::new(inner)));
            }
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        if let Some(Tok::DotOp(op)) = self.peek() {
            let bin = match op.as_str() {
                "EQ" => Some(BinOp::Eq),
                "NE" => Some(BinOp::Ne),
                "LT" => Some(BinOp::Lt),
                "LE" => Some(BinOp::Le),
                "GT" => Some(BinOp::Gt),
                "GE" => Some(BinOp::Ge),
                _ => None,
            };
            if let Some(bin) = bin {
                self.pos += 1;
                self.link()?;
                let rhs = self.add_expr()?;
                return Ok(Expr::Bin(bin, Box::new(lhs), Box::new(rhs)));
            }
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    self.link()?;
                    let rhs = self.mul_expr()?;
                    lhs = Expr::Bin(BinOp::Add, Box::new(lhs), Box::new(rhs));
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    self.link()?;
                    let rhs = self.mul_expr()?;
                    lhs = Expr::Bin(BinOp::Sub, Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.pos += 1;
                    self.link()?;
                    let rhs = self.unary_expr()?;
                    lhs = Expr::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs));
                }
                Some(Tok::Slash) => {
                    self.pos += 1;
                    self.link()?;
                    let rhs = self.unary_expr()?;
                    lhs = Expr::Bin(BinOp::Div, Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.pos += 1;
                let inner = self.nested(Parser::unary_expr)?;
                Ok(Expr::Un(UnOp::Neg, Box::new(inner)))
            }
            Some(Tok::Plus) => {
                self.pos += 1;
                self.nested(Parser::unary_expr)
            }
            _ => self.pow_expr(),
        }
    }

    fn pow_expr(&mut self) -> Result<Expr, ParseError> {
        let base = self.atom()?;
        if self.peek() == Some(&Tok::StarStar) {
            self.pos += 1;
            // Right-associative.
            let exp = self.nested(Parser::unary_expr)?;
            return Ok(Expr::Bin(BinOp::Pow, Box::new(base), Box::new(exp)));
        }
        Ok(base)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::Real(v)) => Ok(Expr::Real(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::DotOp(op)) if op == "TRUE" => Ok(Expr::Int(1)),
            Some(Tok::DotOp(op)) if op == "FALSE" => Ok(Expr::Int(0)),
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    if let Some(intr) = Intrinsic::from_name(&name) {
                        Ok(Expr::Intrin(intr, args))
                    } else {
                        Ok(Expr::Elem(sym(&name), args))
                    }
                } else {
                    Ok(Expr::Var(sym(&name)))
                }
            }
            other => {
                let found = other.map(|t| t.to_string()).unwrap_or("eof".into());
                self.err(format!("expected expression, found '{found}'"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_kernel() {
        // The paper's Figure 1 (simplified SOLVH_DO20).
        let src = "
SUBROUTINE solvh(HE, XE, IA, IB, N, NS, NP, SYM)
  DIMENSION HE(32, *), XE(*)
  INTEGER IA(*), IB(*)
  DO do20 i = 1, N
    DO k = 1, IA(i)
      id = IB(i) + k - 1
      CALL geteu(XE, SYM, NP)
      CALL matmult(HE(1, id), XE, NS)
      CALL solvhe(HE(1, id), NP)
    ENDDO
  ENDDO
END

SUBROUTINE geteu(XE, SYM, NP)
  DIMENSION XE(16, *)
  IF (SYM .NE. 1) THEN
    DO i = 1, NP
      DO j = 1, 16
        XE(j, i) = 1.5
      ENDDO
    ENDDO
  ENDIF
END

SUBROUTINE matmult(HE, XE, NS)
  DIMENSION HE(*), XE(*)
  DO j = 1, NS
    HE(j) = XE(j)
    XE(j) = 2.0
  ENDDO
END

SUBROUTINE solvhe(HE, NP)
  DIMENSION HE(8, *)
  DO j = 1, 3
    DO i = 1, NP
      HE(j, i) = HE(j, i) + 1.0
    ENDDO
  ENDDO
END
";
        let prog = parse_program(src).expect("parses");
        assert_eq!(prog.units.len(), 4);
        let solvh = prog.subroutine(sym("solvh")).expect("solvh");
        assert_eq!(solvh.params.len(), 8);
        assert!(solvh.find_loop("do20").is_some());
        let he = solvh.decl(sym("HE")).expect("HE decl");
        assert_eq!(he.dims.len(), 2);
        assert!(matches!(he.dims[1], DimDecl::Assumed));
    }

    #[test]
    fn parses_logical_if_and_while() {
        let src = "
SUBROUTINE t(X, N, Q)
  DIMENSION X(*)
  INTEGER civ
  civ = Q
  DO w1 WHILE (civ .LT. N)
    IF (X(civ) .GT. 0.0) civ = civ + 1
    IF (X(civ) .LE. 0.0) THEN
      civ = civ + 2
    ENDIF
  ENDDO
END
";
        let prog = parse_program(src).expect("parses");
        let t = prog.subroutine(sym("t")).expect("t");
        match &t.body[1] {
            Stmt::While { label, body, .. } => {
                assert_eq!(label.as_deref(), Some("w1"));
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn parses_read_and_intrinsics() {
        let src = "
SUBROUTINE t()
  INTEGER n
  READ(*,*) n, m
  x = MAX(1.0, MIN(2.0, 3.0)) + MOD(n, 4)
END
";
        let prog = parse_program(src).expect("parses");
        let t = prog.subroutine(sym("t")).expect("t");
        assert!(matches!(&t.body[0], Stmt::Read { targets } if targets.len() == 2));
        match &t.body[1] {
            Stmt::Assign { rhs, .. } => {
                assert!(matches!(rhs, Expr::Bin(BinOp::Add, _, _)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let src = "
SUBROUTINE t()
  x = 1 + 2 * 3 ** 2
END
";
        let prog = parse_program(src).expect("parses");
        let t = prog.subroutine(sym("t")).expect("t");
        match &t.body[0] {
            Stmt::Assign { rhs, .. } => {
                // 1 + (2 * (3 ** 2))
                let Expr::Bin(BinOp::Add, l, r) = rhs else {
                    panic!("expected +");
                };
                assert_eq!(**l, Expr::Int(1));
                let Expr::Bin(BinOp::Mul, _, rr) = &**r else {
                    panic!("expected *");
                };
                assert!(matches!(&**rr, Expr::Bin(BinOp::Pow, _, _)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn elseif_desugars() {
        let src = "
SUBROUTINE t(N)
  IF (N .GT. 2) THEN
    x = 1
  ELSEIF (N .GT. 1) THEN
    x = 2
  ELSE
    x = 3
  ENDIF
END
";
        let prog = parse_program(src).expect("parses");
        let t = prog.subroutine(sym("t")).expect("t");
        match &t.body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(&else_body[0], Stmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let src = "
SUBROUTINE t()
  x = (1 +
END
";
        let err = parse_program(src).expect_err("should fail");
        assert!(err.line >= 2, "line was {}", err.line);
    }

    fn assignment(rhs: &str) -> String {
        format!("SUBROUTINE t(A, x)\n  DIMENSION A(*)\n  x = {rhs}\nEND\n")
    }

    /// Hostile nesting is a parse error, not a stack overflow: 100 000
    /// levels of parentheses, of subscripts, of intrinsic calls, of
    /// prefix operators, of blocks — and a 100 000-term sum, which is
    /// parsed by a loop but would be as deep a tree.
    #[test]
    fn nesting_is_capped() {
        let n = 100_000;
        let hostile = [
            assignment(&format!("{}1{}", "(".repeat(n), ")".repeat(n))),
            assignment(&"(".repeat(n)),
            assignment(&format!("{}1{}", "A(".repeat(n), ")".repeat(n))),
            assignment(&"A(".repeat(n)),
            assignment(&format!("{}1{}", "ABS(".repeat(n), ")".repeat(n))),
            assignment(&format!("{}1", "-".repeat(n))),
            assignment(&format!("{}1", ".NOT. ".repeat(n))),
            assignment(&format!("1{}", " ** 2".repeat(n))),
            assignment(&format!("1{}", " + 1".repeat(n))),
            assignment(&format!("1{}", " * x .OR. 1".repeat(n))),
            format!(
                "SUBROUTINE t(x)\n{}  x = 1\n{}END\n",
                "  IF (x .GT. 0) THEN\n".repeat(n),
                "  ENDIF\n".repeat(n)
            ),
            format!(
                "SUBROUTINE t(x)\n{}  x = 1\nEND\n",
                "  IF (x .GT. 0) ".repeat(n)
            ),
        ];
        for src in &hostile {
            let err = parse_program(src).expect_err("too deep to parse");
            assert!(
                err.message.contains("nesting") || err.message.contains("expected"),
                "{err}"
            );
        }
        // The first one is the cap itself speaking, on the line it hit it.
        let err = parse_program(&hostile[0]).expect_err("too deep");
        assert_eq!(err.line, 3);
        assert!(
            err.message.contains("nesting deeper than 200 levels"),
            "{err}"
        );
    }

    /// Anything a person writes is far inside the cap.
    #[test]
    fn ordinary_nesting_parses() {
        let deep = 150;
        let src = assignment(&format!("{}1{}", "(".repeat(deep), ")".repeat(deep)));
        parse_program(&src).expect("150 parentheses");
        let src = assignment(&format!("{}1{}", "A(".repeat(deep), ")".repeat(deep)));
        parse_program(&src).expect("150 subscripts");
        let src = assignment(&format!("x{}", " + A(x) * 2".repeat(90)));
        parse_program(&src).expect("180 operators");
        // The operator budget is per expression, not per program.
        let line = format!("  x = x{}\n", " + 1".repeat(150));
        let src = format!("SUBROUTINE t(x)\n{}END\n", line.repeat(20));
        parse_program(&src).expect("20 statements of 150 operators");
    }
}
