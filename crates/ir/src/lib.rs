//! The compiler-frontend substrate: a structured mini-Fortran IR.
//!
//! The paper's analysis is implemented in Polaris, a Fortran 77 research
//! compiler. This crate provides the equivalent substrate: an AST for a
//! structured F77-like language (DO loops, IF/THEN/ELSE, CALL with
//! array-section arguments and reshaping, READ for input-dependent
//! symbols, DO WHILE for the CIV benchmarks), a lexer/parser for its
//! surface syntax, and a tree-walking interpreter with deterministic
//! *work-unit* cost accounting (the measurement substrate for the
//! evaluation's timing figures).
//!
//! # Example
//!
//! ```
//! use lip_ir::{parse_program, Machine, Store};
//! use lip_symbolic::sym;
//!
//! let src = "
//! SUBROUTINE main()
//!   INTEGER i, N
//!   DIMENSION A(100)
//!   N = 10
//!   DO i = 1, N
//!     A(i) = i * 2
//!   ENDDO
//! END
//! ";
//! let prog = parse_program(src).expect("parses");
//! let machine = Machine::new(prog);
//! let mut store = Store::new();
//! machine.run(&mut store).expect("runs");
//! let a = store.array(sym("A")).expect("allocated");
//! assert_eq!(a.get_f64(4), 10.0); // A(5) = 10
//! ```

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;
#[cfg(test)]
mod value_oracle;

pub use ast::{BinOp, Decl, DimDecl, Expr, Intrinsic, LValue, Program, Stmt, Subroutine, Ty, UnOp};
pub use interp::{
    apply_bin, apply_intrinsic, apply_un, int_div_pow, AccessTracer, ArrayBuf, ArrayView,
    ExecState, Machine, RunError, Store, StoreCtx, Value, MAX_CALL_DEPTH,
};
pub use parser::{parse_program, ParseError};
