//! The mini-Fortran abstract syntax tree.

use std::fmt;
use std::hash::{Hash, Hasher};

use lip_symbolic::Sym;

/// Scalar/array element type, following Fortran implicit typing: names
/// starting with `I`–`N` default to integer, everything else to real,
/// unless an explicit `INTEGER`/`REAL` declaration overrides.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Ty {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Real,
}

/// Implicit type from the Fortran I–N rule.
pub fn implicit_ty(name: &str) -> Ty {
    match name.chars().next().map(|c| c.to_ascii_uppercase()) {
        Some(c) if ('I'..='N').contains(&c) => Ty::Int,
        _ => Ty::Real,
    }
}

/// One declared array dimension.
#[derive(Clone, PartialEq, Debug)]
pub enum DimDecl {
    /// A fixed extent (an expression over parameters/constants).
    Fixed(Expr),
    /// Assumed size (`*`): the extent comes from the caller.
    Assumed,
}

/// An array (or explicitly typed scalar) declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct Decl {
    /// Declared name.
    pub name: Sym,
    /// Dimensions; empty for a scalar declaration.
    pub dims: Vec<DimDecl>,
    /// Element type.
    pub ty: Ty,
}

/// Binary operators.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
    /// `.EQ.`
    Eq,
    /// `.NE.`
    Ne,
    /// `.LT.`
    Lt,
    /// `.LE.`
    Le,
    /// `.GT.`
    Gt,
    /// `.GE.`
    Ge,
    /// `.AND.`
    And,
    /// `.OR.`
    Or,
}

/// Unary operators.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// `.NOT.`
    Not,
}

/// Intrinsic functions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Intrinsic {
    /// `MIN(a, b, ...)`
    Min,
    /// `MAX(a, b, ...)`
    Max,
    /// `MOD(a, b)`
    Mod,
    /// `ABS(a)`
    Abs,
    /// `SQRT(a)`
    Sqrt,
    /// `EXP(a)`
    Exp,
    /// `SIN(a)`
    Sin,
    /// `COS(a)`
    Cos,
    /// `INT(a)` — truncation.
    Int,
    /// `DBLE(a)` — to real.
    Dble,
}

impl Intrinsic {
    /// Parses an intrinsic name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name.to_ascii_uppercase().as_str() {
            "MIN" | "MIN0" | "AMIN1" => Intrinsic::Min,
            "MAX" | "MAX0" | "AMAX1" => Intrinsic::Max,
            "MOD" => Intrinsic::Mod,
            "ABS" | "IABS" | "DABS" => Intrinsic::Abs,
            "SQRT" | "DSQRT" => Intrinsic::Sqrt,
            "EXP" | "DEXP" => Intrinsic::Exp,
            "SIN" | "DSIN" => Intrinsic::Sin,
            "COS" | "DCOS" => Intrinsic::Cos,
            "INT" | "IFIX" => Intrinsic::Int,
            "DBLE" | "REAL" | "FLOAT" => Intrinsic::Dble,
            _ => return None,
        })
    }
}

/// Expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Scalar variable reference.
    Var(Sym),
    /// Array element reference `A(e1, e2, …)`.
    Elem(Sym, Vec<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Intrinsic call.
    Intrin(Intrinsic, Vec<Expr>),
}

impl Expr {
    /// `a + b` convenience.
    #[allow(clippy::should_implement_trait)] // associated constructor, not `self + rhs`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// Whether the expression mentions `s`.
    pub fn mentions(&self, s: Sym) -> bool {
        match self {
            Expr::Int(_) | Expr::Real(_) => false,
            Expr::Var(v) => *v == s,
            Expr::Elem(a, idx) => *a == s || idx.iter().any(|e| e.mentions(s)),
            Expr::Bin(_, a, b) => a.mentions(s) || b.mentions(s),
            Expr::Un(_, a) => a.mentions(s),
            Expr::Intrin(_, args) => args.iter().any(|e| e.mentions(s)),
        }
    }
}

/// Structural hash for keyed lookups that confirm with `==` (the
/// runtime's block cache). Reals hash by bit pattern, so `0.0` and
/// `-0.0` — equal under `PartialEq`, different programs — land apart.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Expr::Int(v) => v.hash(h),
            Expr::Real(v) => v.to_bits().hash(h),
            Expr::Var(s) => s.hash(h),
            Expr::Elem(a, idx) => (a, idx).hash(h),
            Expr::Bin(op, a, b) => (op, a, b).hash(h),
            Expr::Un(op, a) => (op, a).hash(h),
            Expr::Intrin(f, args) => (f, args).hash(h),
        }
    }
}

/// Assignment targets.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum LValue {
    /// Scalar assignment.
    Scalar(Sym),
    /// Array element assignment.
    Element(Sym, Vec<Expr>),
}

/// Statements.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Stmt {
    /// `lhs = rhs`.
    Assign {
        /// Target.
        lhs: LValue,
        /// Source expression.
        rhs: Expr,
    },
    /// `IF (cond) THEN … [ELSE …] ENDIF` (or a logical IF).
    If {
        /// Branch condition.
        cond: Expr,
        /// THEN branch.
        then_body: Vec<Stmt>,
        /// ELSE branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `DO var = lo, hi [, step] … ENDDO`.
    Do {
        /// Optional label (`SOLVH_do20` in tables).
        label: Option<String>,
        /// Loop index.
        var: Sym,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
        /// Step (defaults to 1).
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `DO WHILE (cond) … ENDDO`.
    While {
        /// Optional label.
        label: Option<String>,
        /// Continuation condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `CALL callee(args…)`; array-element arguments pass sections.
    Call {
        /// Callee name.
        callee: Sym,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `READ(*,*) a, b, …` — binds input-dependent symbols from the
    /// workload's input map.
    Read {
        /// Target scalars.
        targets: Vec<Sym>,
    },
}

impl Stmt {
    /// Iterates over direct child statement blocks.
    pub fn child_blocks(&self) -> Vec<&[Stmt]> {
        match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => vec![then_body.as_slice(), else_body.as_slice()],
            Stmt::Do { body, .. } | Stmt::While { body, .. } => vec![body.as_slice()],
            _ => vec![],
        }
    }
}

/// A subroutine: the unit of interprocedural analysis.
#[derive(Clone, PartialEq, Debug)]
pub struct Subroutine {
    /// Name.
    pub name: Sym,
    /// Formal parameters, in order.
    pub params: Vec<Sym>,
    /// Declarations (arrays and explicit scalar types).
    pub decls: Vec<Decl>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl Subroutine {
    /// The declaration of `name`, if any.
    pub fn decl(&self, name: Sym) -> Option<&Decl> {
        self.decls.iter().find(|d| d.name == name)
    }

    /// The element type of `name` (declaration or implicit rule).
    pub fn ty_of(&self, name: Sym) -> Ty {
        self.decl(name)
            .map(|d| d.ty)
            .unwrap_or_else(|| implicit_ty(&name.name()))
    }

    /// Whether `name` is declared (or used) as an array.
    pub fn is_array(&self, name: Sym) -> bool {
        self.decl(name).is_some_and(|d| !d.dims.is_empty())
    }

    /// Finds the DO/WHILE loop with the given label anywhere in the body.
    pub fn find_loop(&self, label: &str) -> Option<&Stmt> {
        fn walk<'a>(stmts: &'a [Stmt], label: &str) -> Option<&'a Stmt> {
            for s in stmts {
                match s {
                    Stmt::Do { label: Some(l), .. } | Stmt::While { label: Some(l), .. }
                        if l == label =>
                    {
                        return Some(s)
                    }
                    _ => {}
                }
                for block in s.child_blocks() {
                    if let Some(found) = walk(block, label) {
                        return Some(found);
                    }
                }
            }
            None
        }
        walk(&self.body, label)
    }
}

/// A whole program: subroutines plus an entry point (`main` if present,
/// else the first unit).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// All program units.
    pub units: Vec<Subroutine>,
}

impl Program {
    /// Looks up a subroutine by name.
    pub fn subroutine(&self, name: Sym) -> Option<&Subroutine> {
        self.units.iter().find(|u| u.name == name)
    }

    /// The entry unit.
    pub fn entry(&self) -> Option<&Subroutine> {
        self.units
            .iter()
            .find(|u| u.name.name().eq_ignore_ascii_case("main"))
            .or(self.units.first())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for u in &self.units {
            writeln!(f, "SUBROUTINE {}({} params)", u.name, u.params.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_symbolic::sym;

    #[test]
    fn implicit_typing_rule() {
        assert_eq!(implicit_ty("i"), Ty::Int);
        assert_eq!(implicit_ty("NS"), Ty::Int);
        assert_eq!(implicit_ty("Moo"), Ty::Int);
        assert_eq!(implicit_ty("A"), Ty::Real);
        assert_eq!(implicit_ty("he"), Ty::Real);
        assert_eq!(implicit_ty("x1"), Ty::Real);
    }

    #[test]
    fn find_loop_recurses() {
        let inner = Stmt::Do {
            label: Some("do20".into()),
            var: sym("k"),
            lo: Expr::Int(1),
            hi: Expr::Var(sym("N")),
            step: None,
            body: vec![],
        };
        let outer = Stmt::If {
            cond: Expr::Int(1),
            then_body: vec![inner],
            else_body: vec![],
        };
        let sub = Subroutine {
            name: sym("t"),
            params: vec![],
            decls: vec![],
            body: vec![outer],
        };
        assert!(sub.find_loop("do20").is_some());
        assert!(sub.find_loop("do99").is_none());
    }

    #[test]
    fn expr_mentions() {
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Elem(sym("IB"), vec![Expr::Var(sym("i"))])),
            Box::new(Expr::Int(1)),
        );
        assert!(e.mentions(sym("i")));
        assert!(e.mentions(sym("IB")));
        assert!(!e.mentions(sym("j")));
    }
}
