//! Property: on randomly generated straight-line/loop programs, the
//! tree-walk interpreter, the unfused bytecode VM, the peephole-fused
//! `Value` stream and the typed stream agree four ways on every scalar,
//! every array element, the exact work-unit count **and** the exact
//! traced access stream (reads and writes, in order) — on runs that
//! complete and on runs that fail (a step budget tripped mid-program,
//! an integer overflow). The typed leg is checked to have run typed.
//!
//! Programs are built directly as ASTs from a seeded splitmix64 stream:
//! scalar and element assignments, IF/THEN/ELSE, nested DO loops (and
//! occasional DO WHILE), arithmetic over two scalars pools (int + real),
//! intrinsics, and two 16-element arrays — `A` Real and `B` Int —
//! whose subscripts are clamped into bounds with `1 + MOD(ABS(e), 15)`
//! so every generated program runs to completion on every engine. `B`
//! is the reduction target: the generator emits
//! sum/MIN/MAX/product self-updates with operands beyond 2^53, the
//! exact shape the peephole pass fuses to `FusedRed*` superinstructions
//! and where any `f64` detour loses integer bits. Element statements
//! through a bare slot subscript (`ix` INTEGER, `r` REAL), optionally
//! through an index array (`P` INTEGER, `Q` REAL) and a constant offset,
//! give every fused element form with `Int` and `Real` subscripts, so the
//! typed stream runs both its typed superinstructions and the unfused
//! expansions it falls back to. An occasional division is
//! `i64::MIN / -1`, which every engine must report as
//! `RunError::IntOverflow`.
//!
//! The call axis (`gen_call_program`) runs the same four-way comparison
//! on programs whose `main` calls generated subroutines, nested up to
//! three deep and from inside a DO loop: whole-array and element-section
//! arguments, reshapes by constant and by scalar extents, scalars copied
//! in and out (one of them sometimes passed twice), by-value arguments,
//! budgets that trip inside a callee, and a callee local that only a
//! stale frame would still have bound. A call nested past
//! `lip_ir::MAX_CALL_DEPTH` fails alike on every engine.

use std::sync::{Arc, Mutex};

use lip_ir::{
    AccessTracer, BinOp, Decl, DimDecl, Expr, Intrinsic, LValue, Machine, Program, Stmt, Store,
    Subroutine, Ty, UnOp,
};
use lip_symbolic::{sym, Sym};
use lip_vm::typed::TOp;
use lip_vm::{compile_program, optimize_program, CompiledProgram, DispatchCounts, Unobserved, Vm};
use proptest::prelude::*;

/// Records every traced access in order.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<(char, Sym, usize)>>,
}

impl AccessTracer for Recorder {
    fn read(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        self.events.lock().unwrap().push(('r', arr, idx));
    }
    fn write(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        self.events.lock().unwrap().push(('w', arr, idx));
    }
}

/// Records writes, and answers that it wants no reads: the VM must not
/// hand it one.
#[derive(Default)]
struct WritesOnly(Recorder);

impl AccessTracer for WritesOnly {
    fn read(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
        panic!("read of {arr}({idx}) reached a tracer that wants none");
    }
    fn write(&self, arr: Sym, buf: &lip_ir::ArrayBuf, idx: usize) {
        self.0.write(arr, buf, idx);
    }
    fn wants_reads(&self) -> bool {
        false
    }
}

/// Records every access as [`Recorder`] does, a write to an `INTEGER`
/// buffer as `'i'`.
#[derive(Default)]
struct KindRecorder(Recorder);

impl AccessTracer for KindRecorder {
    fn read(&self, arr: Sym, buf: &lip_ir::ArrayBuf, idx: usize) {
        self.0.read(arr, buf, idx);
    }
    fn write(&self, arr: Sym, buf: &lip_ir::ArrayBuf, idx: usize) {
        let kind = if buf.ty() == Ty::Int { 'i' } else { 'w' };
        self.0.events.lock().unwrap().push((kind, arr, idx));
    }
}

/// Records every access, and wants no write to an `INTEGER` buffer
/// (`B`'s, whatever a callee's formal calls it): the VM must not hand
/// it one.
#[derive(Default)]
struct RealWritesOnly(Recorder);

impl AccessTracer for RealWritesOnly {
    fn read(&self, arr: Sym, buf: &lip_ir::ArrayBuf, idx: usize) {
        self.0.read(arr, buf, idx);
    }
    fn write(&self, arr: Sym, buf: &lip_ir::ArrayBuf, idx: usize) {
        assert_ne!(
            buf.ty(),
            Ty::Int,
            "write of {arr}({idx}) reached a tracer that refuses it"
        );
        self.0.write(arr, buf, idx);
    }
    fn wants_writes(&self, buf: &lip_ir::ArrayBuf) -> bool {
        buf.ty() != Ty::Int
    }
}

struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn int_scalars() -> [Sym; 2] {
    [sym("n"), sym("m")]
}

fn real_scalars() -> [Sym; 2] {
    [sym("x"), sym("y")]
}

fn arr() -> Sym {
    sym("A")
}

fn iarr() -> Sym {
    sym("B")
}

/// A subscript guaranteed in 1..=15 for the 16-element array.
fn safe_index(g: &mut Gen, depth: u32) -> Expr {
    let inner = gen_expr(g, depth.saturating_sub(1));
    Expr::Bin(
        BinOp::Add,
        Box::new(Expr::Intrin(
            Intrinsic::Mod,
            vec![Expr::Intrin(Intrinsic::Abs, vec![inner]), Expr::Int(15)],
        )),
        Box::new(Expr::Int(1)),
    )
}

fn gen_expr(g: &mut Gen, depth: u32) -> Expr {
    let choices = if depth == 0 { 4 } else { 9 };
    match g.below(choices) {
        0 => Expr::Int(g.below(7) as i64),
        1 => Expr::Real(g.below(16) as f64 * 0.25),
        2 => Expr::Var(int_scalars()[g.below(2) as usize]),
        3 => Expr::Var(real_scalars()[g.below(2) as usize]),
        4 => Expr::Elem(
            if g.below(3) == 0 { iarr() } else { arr() },
            vec![safe_index(g, depth)],
        ),
        5 => Expr::Un(
            if g.below(2) == 0 {
                UnOp::Neg
            } else {
                UnOp::Not
            },
            Box::new(gen_expr(g, depth - 1)),
        ),
        6 | 7 => {
            let op = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Eq,
                BinOp::And,
                BinOp::Or,
            ][g.below(9) as usize];
            if op == BinOp::Div && g.below(8) == 0 {
                // Overflows at run time (constant folding leaves it).
                return Expr::Bin(op, Box::new(Expr::Int(i64::MIN)), Box::new(Expr::Int(-1)));
            }
            Expr::Bin(
                op,
                Box::new(gen_expr(g, depth - 1)),
                Box::new(gen_expr(g, depth - 1)),
            )
        }
        _ => {
            let intr = [
                Intrinsic::Min,
                Intrinsic::Max,
                Intrinsic::Abs,
                Intrinsic::Mod,
                Intrinsic::Int,
                Intrinsic::Dble,
            ][g.below(6) as usize];
            let nargs = match intr {
                Intrinsic::Min | Intrinsic::Max => 2 + g.below(2),
                Intrinsic::Mod => 2,
                _ => 1,
            };
            Expr::Intrin(intr, (0..nargs).map(|_| gen_expr(g, depth - 1)).collect())
        }
    }
}

/// A subscript the peephole pass fuses on: a bare slot, or an index
/// array at that slot plus an optional constant offset. Every choice is
/// in bounds: `ix` is 1..=8, `r` truncates to 1..=8, `P` holds 1..=14
/// and `Q` 1.5..=13.5 (see [`gen_program`]).
fn slot_subscript(g: &mut Gen) -> Expr {
    let slot = Expr::Var([sym("ix"), sym("r")][g.below(2) as usize]);
    let index = match g.below(3) {
        0 => return slot,
        1 => Expr::Elem(sym("P"), vec![slot]),
        _ => Expr::Elem(sym("Q"), vec![slot]),
    };
    let offset = match g.below(3) {
        0 => return index,
        1 => Expr::Int(1),
        _ => Expr::Real(1.0),
    };
    Expr::Bin(BinOp::Add, Box::new(index), Box::new(offset))
}

/// An element statement through [`slot_subscript`]: a read-modify-write
/// (`Fused{ElemUpdate,RedElem}*`), a scalar accumulation
/// (`FusedRedAccS`, `FusedBinRE`) or a plain store (`Fused*StoreElem*`).
fn gen_indexed(g: &mut Gen) -> Stmt {
    let sub = slot_subscript(g);
    let target = if g.below(2) == 0 { arr() } else { iarr() };
    let cur = Expr::Elem(target, vec![sub.clone()]);
    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][g.below(3) as usize];
    let operand = match g.below(5) {
        0 => Expr::Int(2),
        1 => Expr::Real(0.5),
        2 => Expr::Var(int_scalars()[g.below(2) as usize]),
        3 => Expr::Var(real_scalars()[g.below(2) as usize]),
        // An element through the bare `ix` slot: `FusedBinRE`.
        _ => Expr::Elem(
            [arr(), iarr()][g.below(2) as usize],
            vec![Expr::Var(sym("ix"))],
        ),
    };
    match g.below(4) {
        0 | 1 => Stmt::Assign {
            lhs: LValue::Element(target, vec![sub]),
            rhs: Expr::Bin(op, Box::new(cur), Box::new(operand)),
        },
        2 => {
            let acc = [int_scalars(), real_scalars()][g.below(2) as usize][g.below(2) as usize];
            Stmt::Assign {
                lhs: LValue::Scalar(acc),
                rhs: Expr::Bin(op, Box::new(Expr::Var(acc)), Box::new(cur)),
            }
        }
        _ => Stmt::Assign {
            lhs: LValue::Element(target, vec![sub]),
            rhs: gen_expr(g, 1),
        },
    }
}

fn gen_stmt(g: &mut Gen, depth: u32) -> Stmt {
    let choices = if depth == 0 { 4 } else { 8 };
    match g.below(choices) {
        0 => Stmt::Assign {
            lhs: LValue::Scalar(int_scalars()[g.below(2) as usize]),
            rhs: gen_expr(g, 2),
        },
        1 => Stmt::Assign {
            lhs: LValue::Scalar(real_scalars()[g.below(2) as usize]),
            rhs: gen_expr(g, 2),
        },
        2 => Stmt::Assign {
            lhs: LValue::Element(arr(), vec![safe_index(g, 2)]),
            rhs: gen_expr(g, 2),
        },
        3 => {
            // An Int-array reduction self-update through a shared
            // subscript (sum / MIN / MAX / product) with operands
            // beyond 2^53 — fuses to `FusedRed*` and must stay exact
            // in i64 on every engine.
            let idx = safe_index(g, 1);
            let cur = Expr::Elem(iarr(), vec![idx.clone()]);
            let big = 9_007_199_254_740_993i64 + g.below(9) as i64;
            let rhs = match g.below(4) {
                0 => Expr::Bin(BinOp::Add, Box::new(cur), Box::new(Expr::Int(big))),
                1 => Expr::Intrin(Intrinsic::Min, vec![cur, Expr::Int(-big)]),
                2 => Expr::Intrin(Intrinsic::Max, vec![cur, Expr::Int(big)]),
                _ => Expr::Bin(BinOp::Mul, Box::new(cur), Box::new(Expr::Int(3))),
            };
            Stmt::Assign {
                lhs: LValue::Element(iarr(), vec![idx]),
                rhs,
            }
        }
        4 => {
            let cond = gen_expr(g, 2);
            let then_len = 1 + g.below(2) as usize;
            let else_len = g.below(2) as usize;
            Stmt::If {
                cond,
                then_body: gen_block(g, depth - 1, then_len),
                else_body: gen_block(g, depth - 1, else_len),
            }
        }
        5 => {
            let var = [sym("j"), sym("k")][g.below(2) as usize];
            Stmt::Do {
                label: None,
                var,
                lo: Expr::Int(1),
                hi: Expr::Int(1 + g.below(5) as i64),
                step: if g.below(3) == 0 {
                    Some(Expr::Int(1 + g.below(2) as i64))
                } else {
                    None
                },
                body: {
                    let len = 1 + g.below(2) as usize;
                    gen_block(g, depth - 1, len)
                },
            }
        }
        7 => gen_indexed(g),
        _ => {
            // A bounded WHILE over `iw`, a counter the generated
            // assignments never touch (it is in no scalar pool), so
            // the loop always drains.
            Stmt::While {
                label: None,
                cond: Expr::Bin(
                    BinOp::Gt,
                    Box::new(Expr::Var(sym("iw"))),
                    Box::new(Expr::Int(0)),
                ),
                body: {
                    let len = g.below(2) as usize;
                    let mut b = gen_block(g, depth - 1, len);
                    b.push(Stmt::Assign {
                        lhs: LValue::Scalar(sym("iw")),
                        rhs: Expr::Bin(
                            BinOp::Sub,
                            Box::new(Expr::Var(sym("iw"))),
                            Box::new(Expr::Int(1)),
                        ),
                    });
                    b
                },
            }
        }
    }
}

fn gen_block(g: &mut Gen, depth: u32, len: usize) -> Vec<Stmt> {
    (0..len).map(|_| gen_stmt(g, depth)).collect()
}

/// The start of every generated `main`: the scalar pools, the WHILE
/// counter, the slot subscripts and the index arrays `P` / `Q`.
fn prologue(g: &mut Gen) -> Vec<Stmt> {
    vec![
        Stmt::Assign {
            lhs: LValue::Scalar(sym("n")),
            rhs: Expr::Int(3),
        },
        Stmt::Assign {
            lhs: LValue::Scalar(sym("m")),
            rhs: Expr::Int(1 + g.below(5) as i64),
        },
        Stmt::Assign {
            lhs: LValue::Scalar(sym("x")),
            rhs: Expr::Real(1.0),
        },
        Stmt::Assign {
            lhs: LValue::Scalar(sym("y")),
            rhs: Expr::Real(2.0),
        },
        Stmt::Assign {
            lhs: LValue::Scalar(sym("iw")),
            rhs: Expr::Int(1 + g.below(4) as i64),
        },
        // The slot subscripts and index arrays of `slot_subscript`,
        // which no generated statement assigns.
        Stmt::Assign {
            lhs: LValue::Scalar(sym("ix")),
            rhs: Expr::Int(1 + g.below(8) as i64),
        },
        Stmt::Assign {
            lhs: LValue::Scalar(sym("r")),
            rhs: Expr::Real(1.5 + g.below(8) as f64),
        },
        Stmt::Do {
            label: None,
            var: sym("ip"),
            lo: Expr::Int(1),
            hi: Expr::Int(16),
            step: None,
            body: vec![
                Stmt::Assign {
                    lhs: LValue::Element(sym("P"), vec![Expr::Var(sym("ip"))]),
                    rhs: Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Intrin(
                            Intrinsic::Mod,
                            vec![
                                Expr::Bin(
                                    BinOp::Mul,
                                    Box::new(Expr::Var(sym("ip"))),
                                    Box::new(Expr::Int(5)),
                                ),
                                Expr::Int(14),
                            ],
                        )),
                        Box::new(Expr::Int(1)),
                    ),
                },
                Stmt::Assign {
                    lhs: LValue::Element(sym("Q"), vec![Expr::Var(sym("ip"))]),
                    rhs: Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Intrin(
                            Intrinsic::Mod,
                            vec![
                                Expr::Bin(
                                    BinOp::Mul,
                                    Box::new(Expr::Var(sym("ip"))),
                                    Box::new(Expr::Int(3)),
                                ),
                                Expr::Int(13),
                            ],
                        )),
                        Box::new(Expr::Real(1.5)),
                    ),
                },
            ],
        },
    ]
}

/// `main`'s arrays: `A` and `B` of `len` elements, `P` and `Q` of 16.
fn main_decls(len: i64) -> Vec<Decl> {
    [(arr(), len, Ty::Real), (iarr(), len, Ty::Int)]
        .into_iter()
        .chain([(sym("P"), 16, Ty::Int), (sym("Q"), 16, Ty::Real)])
        .map(|(name, len, ty)| Decl {
            name,
            dims: vec![DimDecl::Fixed(Expr::Int(len))],
            ty,
        })
        .collect()
}

fn gen_program(seed: u64) -> Program {
    let mut g = Gen::new(seed);
    let mut body = prologue(&mut g);
    let len = 3 + g.below(5) as usize;
    body.extend(gen_block(&mut g, 2, len));
    Program {
        units: vec![Subroutine {
            name: sym("main"),
            params: vec![],
            decls: main_decls(16),
            body,
        }],
    }
}

// ---- The call axis -------------------------------------------------------
//
// Programs whose `main` calls three generated subroutines `s1`..`s3`,
// each of which may call the ones after it (so calls nest up to three
// deep), from straight-line code, inside a DO loop and under an IF. Every
// subroutine takes the same formals — the extent scalar `ke`, then every
// array and scalar the statement generator uses — so its body is drawn
// from the same generator as `main`'s. `main`'s `A` and `B` have 32
// elements, so an element section starting at `ix` (1..=8), and one more
// at 2 in each callee, still holds every subscript a body makes.

/// The formals of every generated subroutine, `ke` first so the array
/// reshapes it feeds see it bound.
fn callee_params() -> [Sym; 12] {
    [
        sym("ke"),
        arr(),
        iarr(),
        sym("P"),
        sym("Q"),
        sym("n"),
        sym("m"),
        sym("x"),
        sym("y"),
        sym("ix"),
        sym("r"),
        sym("iw"),
    ]
}

/// `1 + MOD(ABS(e), n)`: a generated value in 1..=n.
fn one_to(g: &mut Gen, n: i64) -> Expr {
    Expr::Bin(
        BinOp::Add,
        Box::new(Expr::Intrin(
            Intrinsic::Mod,
            vec![
                Expr::Intrin(Intrinsic::Abs, vec![gen_expr(g, 1)]),
                Expr::Int(n),
            ],
        )),
        Box::new(Expr::Int(1)),
    )
}

/// An argument passed by value: a generated expression that is not a
/// bare variable or element, which would pass by reference.
fn by_value(g: &mut Gen) -> Expr {
    match gen_expr(g, 1) {
        e @ (Expr::Var(_) | Expr::Elem(..)) => {
            Expr::Bin(BinOp::Add, Box::new(e), Box::new(Expr::Int(0)))
        }
        e => e,
    }
}

/// A CALL of `s{callee}`: arrays whole or as an element section, scalars
/// as bare variables (copy-in/copy-out; `n` sometimes twice) or by value.
/// `ke` is `extent` when given (`main`'s DO variable), else the caller's
/// own `ke` in a callee, else a small value.
fn gen_call(g: &mut Gen, callee: usize, in_main: bool, extent: Option<Expr>) -> Stmt {
    let var = |s: &str| Expr::Var(sym(s));
    let ke = match extent {
        Some(e) => e,
        None if !in_main => var("ke"),
        None => one_to(g, 3),
    };
    let mut args = vec![ke];
    for a in [arr(), iarr()] {
        args.push(match g.below(3) {
            0 => Expr::Var(a),
            1 if in_main => Expr::Elem(a, vec![var("ix")]),
            _ => Expr::Elem(a, vec![Expr::Int(2)]),
        });
    }
    args.extend([var("P"), var("Q")]);
    // `n`, `m`: either may be `n`, so one scalar is passed twice.
    for s in ["n", "m"] {
        args.push(match g.below(4) {
            0 => by_value(g),
            1 => var("n"),
            _ => var(s),
        });
    }
    for s in ["x", "y"] {
        args.push(if g.below(3) == 0 { by_value(g) } else { var(s) });
    }
    args.push(var("ix"));
    args.push(if g.below(3) == 0 {
        Expr::Real(1.5 + g.below(8) as f64)
    } else {
        var("r")
    });
    args.push(if g.below(3) == 0 {
        Expr::Int(g.below(3) as i64)
    } else {
        var("iw")
    });
    Stmt::Call {
        callee: sym(&format!("s{callee}")),
        args,
    }
}

/// A declared shape for a formal array: none (the incoming view's
/// extents), a constant, a constant expression, assumed size, or two
/// dimensions whose first is `ke` or a constant. Returns the dimensions
/// and whether they are two.
fn gen_dims(g: &mut Gen) -> Option<(Vec<DimDecl>, bool)> {
    let k = |v| DimDecl::Fixed(Expr::Int(v));
    Some(match g.below(6) {
        0 => return None,
        1 => (vec![k(16)], false),
        2 => (
            vec![DimDecl::Fixed(Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Int(4)),
                Box::new(Expr::Int(4)),
            ))],
            false,
        ),
        3 => (vec![DimDecl::Assumed], false),
        4 => (
            vec![DimDecl::Fixed(Expr::Var(sym("ke"))), DimDecl::Assumed],
            true,
        ),
        _ => (vec![k(2), DimDecl::Assumed], true),
    })
}

/// `s{idx}` of `nsubs`: declarations, a generated body with calls to the
/// later subroutines, and on some the stale-frame probe — `t` set only
/// on a call with `ke = 1`, then read — which must fail on a later call
/// with another `ke` exactly as the interpreter's fresh frame does.
fn gen_callee(g: &mut Gen, idx: usize, nsubs: usize) -> Subroutine {
    let mut decls = vec![
        Decl {
            name: sym("P"),
            dims: vec![DimDecl::Assumed],
            ty: Ty::Int,
        },
        Decl {
            name: sym("Q"),
            dims: vec![DimDecl::Assumed],
            ty: Ty::Real,
        },
    ];
    let mut body = Vec::new();
    if g.below(8) == 0 {
        body.push(Stmt::If {
            cond: Expr::Bin(
                BinOp::Eq,
                Box::new(Expr::Var(sym("ke"))),
                Box::new(Expr::Int(1)),
            ),
            then_body: vec![Stmt::Assign {
                lhs: LValue::Scalar(sym("t")),
                rhs: Expr::Int(2),
            }],
            else_body: vec![],
        });
        body.push(Stmt::Assign {
            lhs: LValue::Scalar(sym("x")),
            rhs: Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Var(sym("x"))),
                Box::new(Expr::Var(sym("t"))),
            ),
        });
    }
    for (name, ty) in [(arr(), Ty::Real), (iarr(), Ty::Int)] {
        match gen_dims(g) {
            // An undeclared `B` would be implicitly REAL.
            None if ty == Ty::Real => {}
            None => decls.push(Decl {
                name,
                dims: vec![DimDecl::Assumed],
                ty,
            }),
            Some((dims, two)) => {
                if two {
                    // A rank-2 update through the declared extents.
                    let idx = vec![one_to(g, 2), one_to(g, 7)];
                    body.push(Stmt::Assign {
                        lhs: LValue::Element(name, idx.clone()),
                        rhs: Expr::Bin(
                            BinOp::Add,
                            Box::new(Expr::Elem(name, idx)),
                            Box::new(gen_expr(g, 1)),
                        ),
                    });
                }
                decls.push(Decl { name, dims, ty });
            }
        }
    }
    let len = 1 + g.below(3) as usize;
    body.extend(gen_block(g, 2, len));
    for later in idx + 1..=nsubs {
        if g.below(2) == 0 {
            let at = g.below(body.len() as u64 + 1) as usize;
            body.insert(at, gen_call(g, later, false, None));
        }
    }
    Subroutine {
        name: sym(&format!("s{idx}")),
        params: callee_params().to_vec(),
        decls,
        body,
    }
}

/// A `main` calling `s1`..`s3` (see the section comment).
fn gen_call_program(seed: u64) -> Program {
    const NSUBS: usize = 3;
    let mut g = Gen::new(seed ^ 0xCA11);
    let mut body = prologue(&mut g);
    let pick = |g: &mut Gen| 1 + g.below(NSUBS as u64) as usize;
    for _ in 0..1 + g.below(3) {
        let stmt = match g.below(4) {
            0 => {
                let callee = pick(&mut g);
                gen_call(&mut g, callee, true, None)
            }
            1 => {
                let callee = pick(&mut g);
                Stmt::If {
                    cond: gen_expr(&mut g, 1),
                    then_body: vec![gen_call(&mut g, callee, true, None)],
                    else_body: vec![],
                }
            }
            2 => gen_stmt(&mut g, 1),
            // The loop a driver would parallelize, a CALL in its body.
            _ => {
                let callee = pick(&mut g);
                let call = gen_call(&mut g, callee, true, Some(Expr::Var(sym("i"))));
                let len = g.below(2) as usize;
                let mut loop_body = gen_block(&mut g, 1, len);
                loop_body.push(call);
                Stmt::Do {
                    label: None,
                    var: sym("i"),
                    lo: Expr::Int(1),
                    hi: Expr::Int(1 + g.below(3) as i64),
                    step: None,
                    body: loop_body,
                }
            }
        };
        body.push(stmt);
    }
    let mut units = vec![Subroutine {
        name: sym("main"),
        params: vec![],
        decls: main_decls(32),
        body,
    }];
    units.extend((1..=NSUBS).map(|k| gen_callee(&mut g, k, NSUBS)));
    Program { units }
}

/// One engine's observable outcome: result, store snapshot, work
/// units, trace. Values snapshot as `(type tag, payload bits)` so the
/// compare is fully lossless: Int/Real confusion is visible, integers
/// beyond 2^53 stay exact, and an agreed-upon NaN still matches.
type Observed = (
    Result<(), lip_ir::RunError>,
    Vec<(Sym, Option<(u8, u64)>)>,
    Vec<(u8, u64)>,
    u64,
    Vec<(char, Sym, usize)>,
);

fn value_bits(v: lip_ir::Value) -> (u8, u64) {
    match v {
        lip_ir::Value::Int(i) => (0, i as u64),
        lip_ir::Value::Real(r) => (1, r.to_bits()),
    }
}

fn observe(
    store: &Store,
    result: Result<(), lip_ir::RunError>,
    cost: u64,
    rec: &Recorder,
) -> Observed {
    let scalars = int_scalars()
        .into_iter()
        .chain(real_scalars())
        .map(|s| (s, store.scalar(s).map(value_bits)))
        .collect();
    let mut elems: Vec<(u8, u64)> = store
        .array(arr())
        .map(|a| (0..a.buf.len()).map(|k| value_bits(a.buf.get(k))).collect())
        .unwrap_or_default();
    if let Some(a) = store.array(iarr()) {
        elems.extend((0..a.buf.len()).map(|k| value_bits(a.buf.get(k))));
    }
    let events = std::mem::take(&mut *rec.events.lock().unwrap());
    (result, scalars, elems, cost, events)
}

const BUDGET: u64 = 2_000_000;

fn run_interp(prog: &Program, budget: u64) -> Observed {
    let rec = Arc::new(Recorder::default());
    let machine = Machine::new(prog.clone()).with_tracer(rec.clone());
    let mut store = Store::new();
    let mut state = lip_ir::ExecState::with_budget(budget);
    let result = machine.run_with_state(&mut store, &mut state);
    observe(&store, result, state.cost, &rec)
}

/// The executor a bytecode run takes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Leg {
    /// The compiler's stream (never typed: typing is an optimize pass).
    Unfused,
    /// The fused stream with the typed streams removed.
    FusedValue,
    /// The fused stream with its typed streams, as production runs it.
    Typed,
}

fn compiled(prog: &Program, leg: Leg) -> CompiledProgram {
    let mut c = compile_program(prog).expect("compiles");
    if leg != Leg::Unfused {
        optimize_program(&mut c);
    }
    if leg == Leg::FusedValue {
        strip_typed(&mut c);
    }
    c
}

fn strip_typed(c: &mut CompiledProgram) {
    for sub in &mut c.subs {
        sub.chunk.typed = None;
    }
    for block in &mut c.blocks {
        block.chunk.typed = None;
    }
}

/// One uncounted run of `leg`, and the activation tally of a second,
/// counted one (which must observe the same).
fn run_vm(prog: &Program, leg: Leg, budget: u64) -> (Observed, DispatchCounts) {
    let c = compiled(prog, leg);
    let run = |counts: Option<&mut DispatchCounts>| {
        let rec = Recorder::default();
        let mut store = Store::new();
        let mut state = lip_ir::ExecState::with_budget(budget);
        let vm = Vm::new(&c);
        let result = match counts {
            Some(counts) => vm.run_program_counting(&mut store, &mut state, Some(&rec), counts),
            None => vm.run_with_state(&mut store, &mut state, Some(&rec)),
        };
        observe(&store, result, state.cost, &rec)
    };
    let mut counts = DispatchCounts::default();
    let observed = run(None);
    assert_eq!(
        observed,
        run(Some(&mut counts)),
        "{leg:?}: counting changed the run"
    );
    (observed, counts)
}

proptest! {
    // A 384-case corpus (four engines each, under a budget that lets it
    // finish and under one that trips it halfway): deterministic via
    // the in-tree splitmix64 proptest stand-in, so CI failures replay.
    #![proptest_config(ProptestConfig::with_cases(384))]
    #[test]
    fn vm_streams_match_interpreter_four_ways(seed in 0u64..1_000_000_000u64) {
        let prog = gen_program(seed);
        let full = run_interp(&prog, BUDGET);
        // A generous step budget caps even pathological programs; the
        // second budget trips every program mid-way.
        for budget in [BUDGET, 1 + full.3 / 2] {
            let interp = run_interp(&prog, budget);
            let (unfused, _) = run_vm(&prog, Leg::Unfused, budget);
            let (fused, value_counts) = run_vm(&prog, Leg::FusedValue, budget);
            let (typed, counts) = run_vm(&prog, Leg::Typed, budget);
            // The generated `main` has no live-in and no `READ`: it is
            // typed, and the guard admits it.
            prop_assert_eq!(
                (counts.typed_runs, counts.untyped_runs),
                (1, 0),
                "the typed leg did not run typed (seed {})",
                seed
            );
            prop_assert_eq!(value_counts.typed_runs, 0);
            // The bytecode streams charge at identical points, so they
            // must agree bit for bit even on a mid-program error.
            prop_assert_eq!(&unfused, &fused, "unfused vs fused diverged (seed {})", seed);
            prop_assert_eq!(&fused, &typed, "fused Value vs typed diverged (seed {})", seed);
            if interp.0.is_ok() && unfused.0.is_ok() {
                prop_assert_eq!(&interp, &unfused, "interp vs bytecode diverged (seed {})", seed);
            } else {
                // On failure only the error is comparable: the
                // interpreter charges per node mid-statement, the VM
                // per statement up front, so a budget trip leaves
                // different partial state.
                prop_assert_eq!(&interp.0, &unfused.0, "errors diverged (seed {})", seed);
            }
        }
    }
}

proptest! {
    // The call axis: the same four-way comparison on programs whose
    // `main` calls nested subroutines, under a budget that lets them
    // finish and one that trips halfway — often inside a callee.
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn calls_match_interpreter_four_ways(seed in 0u64..1_000_000_000u64) {
        let prog = gen_call_program(seed);
        let full = run_interp(&prog, BUDGET);
        for budget in [BUDGET, 1 + full.3 / 2] {
            let interp = run_interp(&prog, budget);
            let (unfused, _) = run_vm(&prog, Leg::Unfused, budget);
            let (fused, value_counts) = run_vm(&prog, Leg::FusedValue, budget);
            let (typed, counts) = run_vm(&prog, Leg::Typed, budget);
            // Each body runs typed or not (a formal's type can be
            // dynamic, and a guard can refuse), but no body is skipped.
            prop_assert_eq!(
                counts.typed_runs + counts.untyped_runs,
                value_counts.untyped_runs,
                "the typed leg activated another number of bodies (seed {})",
                seed
            );
            prop_assert_eq!(&unfused, &fused, "unfused vs fused diverged (seed {})", seed);
            prop_assert_eq!(&fused, &typed, "fused Value vs typed diverged (seed {})", seed);
            if interp.0.is_ok() && unfused.0.is_ok() {
                prop_assert_eq!(&interp, &unfused, "interp vs bytecode diverged (seed {})", seed);
            } else {
                // As in the straight-line corpus: a budget trip leaves
                // different partial state, so only the error compares.
                prop_assert_eq!(&interp.0, &unfused.0, "errors diverged (seed {})", seed);
            }
        }
    }
}

/// The call corpus has every argument and reshape form the call axis is
/// for, and its runs reach every outcome: a generator change that stops
/// producing one fails here instead of silently narrowing the property.
#[test]
fn the_call_corpus_reaches_every_call_form() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..256 {
        let prog = gen_call_program(seed);
        let c = compiled(&prog, Leg::Typed);
        for (unit, sub) in prog.units.iter().zip(&c.subs) {
            for pm in &sub.params {
                for dim in pm.reshape.iter().flatten() {
                    seen.insert(match dim {
                        lip_vm::chunk::DimCode::Const { .. } => "constant extent",
                        lip_vm::chunk::DimCode::Fixed(_) => "scalar extent",
                        lip_vm::chunk::DimCode::Assumed => "assumed size",
                    });
                }
            }
            let mut stack: Vec<(&Stmt, bool)> = unit.body.iter().map(|s| (s, false)).collect();
            while let Some((stmt, in_do)) = stack.pop() {
                match stmt {
                    Stmt::Call { args, .. } => {
                        seen.insert(if unit.name == sym("main") {
                            "call from main"
                        } else {
                            "nested call"
                        });
                        if in_do {
                            seen.insert("call in a DO loop");
                        }
                        if args.iter().any(|a| matches!(a, Expr::Elem(..))) {
                            seen.insert("section argument");
                        }
                        if args[1] == Expr::Var(arr()) {
                            seen.insert("whole-array argument");
                        }
                        if args[5] == args[6] {
                            seen.insert("a scalar passed twice");
                        }
                    }
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => stack.extend(then_body.iter().chain(else_body).map(|s| (s, in_do))),
                    Stmt::Do { body, .. } | Stmt::While { body, .. } => {
                        stack.extend(body.iter().map(|s| (s, true)));
                    }
                    _ => {}
                }
            }
        }
        let full = run_interp(&prog, BUDGET);
        seen.insert(match &full.0 {
            Ok(()) => "completed",
            Err(lip_ir::RunError::UnboundScalar(s)) if *s == sym("t") => "stale-frame probe",
            Err(_) => "failed otherwise",
        });
        // A budget that trips after at least one callee has started.
        let (half, counts) = run_vm(&prog, Leg::FusedValue, 1 + full.3 / 2);
        if half.0 == Err(lip_ir::RunError::StepLimit) && counts.untyped_runs > 1 {
            seen.insert("budget trip past a call");
        }
        let main_typed = c.subs[0].chunk.typed.is_some();
        let (_, counts) = run_vm(&prog, Leg::Typed, BUDGET);
        if main_typed && counts.typed_runs > 1 {
            seen.insert("typed main and callee");
        }
        if counts.untyped_runs > 0 && counts.typed_runs > 0 {
            seen.insert("typed and untyped bodies in one run");
        }
    }
    for form in [
        "constant extent",
        "scalar extent",
        "assumed size",
        "call from main",
        "nested call",
        "call in a DO loop",
        "section argument",
        "whole-array argument",
        "a scalar passed twice",
        "completed",
        "stale-frame probe",
        "budget trip past a call",
        "typed main and callee",
        "typed and untyped bodies in one run",
    ] {
        assert!(
            seen.contains(form),
            "no {form} in the call corpus: {seen:?}"
        );
    }
}

/// A tracer that wants no reads gets every write, in order, and no
/// read, from every stream, callee bodies included.
#[test]
fn a_tracer_that_wants_no_reads_gets_only_the_writes() {
    for seed in 0..64 {
        for prog in [gen_program(seed), gen_call_program(seed)] {
            for leg in [Leg::Unfused, Leg::FusedValue, Leg::Typed] {
                let c = compiled(&prog, leg);
                let all = Recorder::default();
                let writes = WritesOnly::default();
                let mut outcomes = Vec::new();
                for tracer in [&all as &dyn AccessTracer, &writes] {
                    let mut store = Store::new();
                    let mut state = lip_ir::ExecState::with_budget(BUDGET);
                    let result = Vm::new(&c).run_with_state(&mut store, &mut state, Some(tracer));
                    outcomes.push((result, state.cost));
                }
                assert_eq!(outcomes[0], outcomes[1], "seed {seed}, {leg:?}");
                let expected: Vec<_> = std::mem::take(&mut *all.events.lock().unwrap())
                    .into_iter()
                    .filter(|e| e.0 == 'w')
                    .collect();
                assert_eq!(
                    *writes.0.events.lock().unwrap(),
                    expected,
                    "seed {seed}, {leg:?}"
                );
            }
        }
    }
}

#[test]
fn a_tracer_that_refuses_a_buffer_gets_every_write_but_its() {
    let mut refused = 0;
    for seed in 0..64 {
        for prog in [gen_program(seed), gen_call_program(seed)] {
            for leg in [Leg::Unfused, Leg::FusedValue, Leg::Typed] {
                let c = compiled(&prog, leg);
                let all = KindRecorder::default();
                let some = RealWritesOnly::default();
                let mut outcomes = Vec::new();
                for tracer in [&all as &dyn AccessTracer, &some] {
                    let mut store = Store::new();
                    let mut state = lip_ir::ExecState::with_budget(BUDGET);
                    let result = Vm::new(&c).run_with_state(&mut store, &mut state, Some(tracer));
                    outcomes.push((result, state.cost));
                }
                assert_eq!(outcomes[0], outcomes[1], "seed {seed}, {leg:?}");
                let events = std::mem::take(&mut *all.0.events.lock().unwrap());
                refused += events.iter().filter(|e| e.0 == 'i').count();
                let expected: Vec<_> = events.into_iter().filter(|e| e.0 != 'i').collect();
                assert_eq!(
                    *some.0.events.lock().unwrap(),
                    expected,
                    "seed {seed}, {leg:?}"
                );
            }
        }
    }
    assert!(refused > 0, "the corpus writes no INTEGER array");
}

/// The corpus reaches every typed element superinstruction and, through
/// `REAL` subscripts and index arrays, the unfused expansions the typed
/// stream falls back to: a generator change that stops producing one
/// fails here instead of silently narrowing the differential above.
#[test]
fn the_corpus_reaches_every_typed_element_form() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..384 {
        let c = compiled(&gen_program(seed), Leg::Typed);
        let typed = c.subs[0].chunk.typed.as_ref().expect("typed");
        for op in &typed.ops {
            let name = match op {
                TOp::LoadN { reals, .. } | TOp::StoreN { reals, .. } if *reals != 0 => {
                    "real subscript".to_owned()
                }
                _ => format!("{op:?}")
                    .split([' ', '('])
                    .next()
                    .unwrap_or("")
                    .to_owned(),
            };
            seen.insert(name);
        }
    }
    for form in [
        "BinRE",
        "LoadElemS",
        "StoreElemS",
        "ElemUpdateK",
        "ElemUpdateS",
        "LoadElemE",
        "StoreElemE",
        "ElemUpdateE",
        "RedAccS",
        "RedElemK",
        "RedElemS",
        "real subscript",
        "Cvt",
    ] {
        assert!(
            seen.contains(form),
            "no typed {form} in the corpus: {seen:?}"
        );
    }
}

/// What one driver of a random loop body leaves behind: result, every
/// scalar slot of the frame (loop variable included), both arrays, work
/// units, trace — all as lossless bits — and the frame's `Debug`
/// rendering for the registers.
type Driven = (Observed, Vec<Option<(u8, u64)>>, String);

/// The values a DO from `lo` to `hi` by `step` gives its variable, as
/// the interpreter steps it.
fn do_values(lo: i64, hi: i64, step: i64) -> impl Iterator<Item = i64> {
    std::iter::successors(Some(lo), move |i| i.checked_add(step)).take_while(move |&i| {
        if step > 0 {
            i <= hi
        } else {
            i >= hi
        }
    })
}

/// Runs `body` once per value of the DO range `(lo, hi, step)` against
/// fresh inputs, through `Vm::run_range` (`ranged`) or the
/// per-iteration `set_scalar` + `run_block` loop over [`do_values`]
/// that the drivers used before it.
fn drive_body(
    prog: &Program,
    body: &[Stmt],
    range: (i64, i64, i64),
    budget: u64,
    ranged: bool,
    leg: Leg,
) -> Driven {
    let mut compiled = compile_program(prog).expect("compiles");
    let block = lip_vm::add_block(&mut compiled, &prog.units[0], body, &[sym("i")])
        .expect("block compiles");
    if leg != Leg::Unfused {
        optimize_program(&mut compiled);
        lip_vm::optimize_block(&mut compiled, block);
    }
    if leg == Leg::FusedValue {
        strip_typed(&mut compiled);
    }
    let mut store = Store::new();
    for (s, v) in int_scalars().into_iter().zip([3, 2]) {
        store.set_int(s, v);
    }
    store.set_int(sym("iw"), 2);
    store.set_int(sym("ix"), 3);
    for (s, v) in real_scalars()
        .into_iter()
        .chain([sym("r")])
        .zip([1.0, 2.0, 5.5])
    {
        store.set_scalar(s, lip_ir::Value::Real(v));
    }
    let a = store.alloc_real(arr(), 16);
    let b = store.alloc_int(iarr(), 16);
    let p = store.alloc_int(sym("P"), 16);
    let q = store.alloc_real(sym("Q"), 16);
    for k in 0..16 {
        a.set(k, lip_ir::Value::Real(k as f64 * 0.5));
        b.set(k, lip_ir::Value::Int(k as i64 - 4));
        // As `gen_program`'s prologue fills them.
        p.set(k, lip_ir::Value::Int(((k + 1) * 5 % 14 + 1) as i64));
        q.set(k, lip_ir::Value::Real(((k + 1) * 3 % 13) as f64 + 1.5));
    }
    let chunk = &compiled.block(block).chunk;
    let slot = chunk.scalar_slot(sym("i")).expect("interned");
    let mut frame = lip_vm::Frame::for_chunk(chunk, &store);
    let vm = Vm::new(&compiled);
    let rec = Recorder::default();
    let mut state = lip_ir::ExecState::with_budget(budget);
    let (lo, hi, step) = range;
    let result = if ranged {
        // Counted, to check the guard admitted the whole range.
        let mut counts = DispatchCounts::default();
        let r = vm.run_range(
            block,
            &mut frame,
            Some((slot, lo, hi, step)),
            &mut state,
            Some(&rec),
            Some(&mut counts),
            &mut Unobserved,
        );
        let runs = u64::from(do_values(lo, hi, step).next().is_some());
        let typed = runs * u64::from(leg == Leg::Typed);
        assert_eq!(
            (counts.typed_runs, counts.untyped_runs),
            (typed, runs - typed),
            "one activation, typed on the typed leg"
        );
        r
    } else {
        do_values(lo, hi, step).try_for_each(|i| {
            frame.set_scalar(slot, lip_ir::Value::Int(i));
            vm.run_block(block, &mut frame, &mut state, Some(&rec))
        })
    };
    let slots = (0..chunk.scalars.len())
        .map(|s| frame.scalar(s as u16).map(value_bits))
        .collect();
    frame.writeback_scalars(chunk, &mut store);
    (
        observe(&store, result, state.cost, &rec),
        slots,
        format!("{frame:?}"),
    )
}

proptest! {
    // The range entry point on the random corpus: a generated body that
    // reads the loop variable, over a short (sometimes empty) range at
    // steps 1, 2, 3, -1 and -2, sometimes under a budget small enough to
    // trip mid-range; against the per-iteration driver on each stream.
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn run_range_matches_the_per_iteration_driver(seed in 0u64..1_000_000_000u64) {
        let mut g = Gen::new(seed ^ 0xC4_0B1E);
        let mut body = vec![Stmt::Assign {
            lhs: LValue::Scalar(sym("n")),
            rhs: Expr::Var(sym("i")),
        }];
        let len = 1 + g.below(4) as usize;
        body.extend(gen_block(&mut g, 2, len));
        let lo = g.below(4) as i64 - 1;
        let hi = lo - 1 + g.below(6) as i64;
        let budget = if g.below(3) == 0 { 20 + g.below(300) } else { BUDGET };
        // `main` only supplies the declarations the body compiles under.
        let mut prog = gen_program(0);
        prog.units[0].body.clear();
        for step in [1, 2, 3, -1, -2] {
            // Up from `lo`, or down from `hi`.
            let range = if step > 0 { (lo, hi, step) } else { (hi, lo, step) };
            let drive = |ranged, leg| drive_body(&prog, &body, range, budget, ranged, leg);
            let typed = drive(true, Leg::Typed);
            for leg in [Leg::Unfused, Leg::FusedValue, Leg::Typed] {
                let ranged = drive(true, leg);
                let per_iteration = drive(false, leg);
                prop_assert_eq!(
                    &per_iteration, &ranged,
                    "run_range diverged (seed {}, step {}, {:?})", seed, step, leg
                );
                // Across streams: everything but the register files
                // (each stream keeps its own).
                prop_assert_eq!(
                    (&ranged.0, &ranged.1),
                    (&typed.0, &typed.1),
                    "{:?} vs typed run_range diverged (seed {}, step {})", leg, seed, step
                );
            }
        }
    }
}

/// Replay one corpus seed with a component-by-component report
/// (`DBG_SEED=<seed> cargo test -p lip_vm --test proptest_programs
/// dbg_seed -- --ignored --nocapture`). This is how the -0.0
/// constant-pool aliasing fixed in `ChunkBuilder::const_slot` was
/// localized.
#[test]
#[ignore = "diagnostic; needs DBG_SEED"]
fn dbg_seed() {
    let Some(seed) = std::env::var("DBG_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    else {
        return;
    };
    let prog = gen_program(seed);
    let interp = run_interp(&prog, BUDGET);
    let (unfused, _) = run_vm(&prog, Leg::Unfused, BUDGET);
    println!("result  i={:?} u={:?}", interp.0, unfused.0);
    println!("cost    i={} u={}", interp.3, unfused.3);
    for (a, b) in interp.1.iter().zip(unfused.1.iter()) {
        if a != b {
            println!("scalar {:?} vs {:?}", a, b);
        }
    }
    for (k, (a, b)) in interp.2.iter().zip(unfused.2.iter()).enumerate() {
        if a != b {
            println!("elem {k}: {a:?} vs {b:?}");
        }
    }
    let n = interp.4.len().max(unfused.4.len());
    for k in 0..n {
        let (a, b) = (interp.4.get(k), unfused.4.get(k));
        if a != b {
            println!("trace[{k}]: i={:?} u={:?}", a, b);
            println!(
                "  i context: {:?}",
                &interp.4[k.saturating_sub(3)..(k + 3).min(interp.4.len())]
            );
            println!(
                "  u context: {:?}",
                &unfused.4[k.saturating_sub(3)..(k + 3).min(unfused.4.len())]
            );
            break;
        }
    }
    println!("trace len i={} u={}", interp.4.len(), unfused.4.len());
    println!("{prog:#?}");
}

/// `f` nests `d` calls deep from `main`'s one, then stops; with `d` past
/// the cap, or with no stop at all, the call that would open one past
/// `MAX_CALL_DEPTH` fails.
fn nested_calls(stop: Option<u32>) -> Program {
    let guard = match stop {
        Some(d) => format!("IF (d .LT. {d}) THEN\n    CALL f(B, k, d + 1)\n  ENDIF"),
        None => "CALL f(B, k, d + 1)".to_owned(),
    };
    lip_ir::parse_program(&format!(
        "
SUBROUTINE main()
  DIMENSION A(8)
  INTEGER i, N
  N = 4
  DO l1 i = 1, N
    CALL f(A, i, 1)
  ENDDO
END

SUBROUTINE f(B, k, d)
  DIMENSION B(*)
  INTEGER k, d
  B(k) = B(k) + 1.0
  {guard}
END
"
    ))
    .expect("parses")
}

/// A CALL nested past the cap is `RunError::CallDepth` on every engine,
/// with the same partial store, work units and access stream: the cap
/// is checked at the same point of the call everywhere (arguments
/// bound, locals not yet allocated). Calls nested exactly to the cap
/// run.
#[test]
fn a_call_past_the_depth_cap_fails_alike_on_every_engine() {
    let cap = lip_ir::MAX_CALL_DEPTH;
    for (stop, fails) in [(Some(cap), false), (Some(cap + 1), true), (None, true)] {
        let prog = nested_calls(stop);
        let interp = run_interp(&prog, BUDGET);
        let expected = if fails {
            Err(lip_ir::RunError::CallDepth(sym("f")))
        } else {
            Ok(())
        };
        assert_eq!(interp.0, expected, "stop {stop:?}");
        for leg in [Leg::Unfused, Leg::FusedValue, Leg::Typed] {
            let (vm, _) = run_vm(&prog, leg, BUDGET);
            assert_eq!(vm, interp, "{leg:?}, stop {stop:?}");
        }
    }
}

/// A chunk binding 66 arrays writes to slot 64 and past it, on every
/// leg: with no tracer (the runs still match the interpreter), with a
/// tracer that takes every write (the interpreter's access stream) and
/// with one that refuses the `INTEGER` buffer in slot 0 (that stream
/// less its writes to `B0`; a slot past 64 is never asked, and the
/// refusing tracer would panic on a write to `B0`).
#[test]
fn a_chunk_with_66_arrays_traces_the_writes_past_slot_64() {
    let names: Vec<String> = (1..66).map(|j| format!("A{j}")).collect();
    let src = format!(
        "
SUBROUTINE main()
  INTEGER i
  INTEGER B0(3)
  DIMENSION {}
  B0(1) = 4
{}
  DO i = 1, 3
    A64(i) = A64(i) + i
    A65(i) = B0(1) * 2.5
    B0(i) = i
  ENDDO
END
",
        names
            .iter()
            .map(|a| format!("{a}(3)"))
            .collect::<Vec<_>>()
            .join(", "),
        names
            .iter()
            .map(|a| format!("  {a}(2) = 1.5\n"))
            .collect::<String>(),
    );
    let prog = lip_ir::parse_program(&src).expect("parses");
    let arrays: Vec<Sym> = std::iter::once(sym("B0"))
        .chain(names.iter().map(|a| sym(a)))
        .collect();
    let elems = |store: &Store| -> Vec<(u8, u64)> {
        arrays
            .iter()
            .flat_map(|&a| {
                let a = store.array(a).expect("bound");
                (0..a.buf.len()).map(|k| value_bits(a.buf.get(k)))
            })
            .collect()
    };
    let rec = Arc::new(KindRecorder::default());
    let machine = Machine::new(prog.clone()).with_tracer(rec.clone());
    let mut store = Store::new();
    let mut state = lip_ir::ExecState::with_budget(BUDGET);
    machine
        .run_with_state(&mut store, &mut state)
        .expect("runs");
    let expected = (elems(&store), state.cost);
    let trace = std::mem::take(&mut *rec.0.events.lock().unwrap());
    assert!(trace.iter().any(|&(_, a, _)| a == sym("A64")));
    assert!(trace.iter().any(|&(_, a, _)| a == sym("A65")));
    assert!(trace.iter().any(|&(k, _, _)| k == 'i'));
    let untraced_ints: Vec<_> = trace.iter().filter(|e| e.0 != 'i').copied().collect();
    for leg in [Leg::Unfused, Leg::FusedValue, Leg::Typed] {
        let c = compiled(&prog, leg);
        let slots = &c.subs[0].chunk.arrays;
        assert_eq!(slots.len(), 66, "{leg:?}");
        assert!(
            slots[64..]
                .iter()
                .all(|&(a, _)| a == sym("A64") || a == sym("A65")),
            "{leg:?}: A64 and A65 bound past slot 63"
        );
        let all = KindRecorder::default();
        let some = RealWritesOnly::default();
        for tracer in [None, Some(&all as &dyn AccessTracer), Some(&some)] {
            let mut store = Store::new();
            let mut state = lip_ir::ExecState::with_budget(BUDGET);
            Vm::new(&c)
                .run_with_state(&mut store, &mut state, tracer)
                .expect("runs");
            assert_eq!((elems(&store), state.cost), expected, "{leg:?}");
        }
        assert_eq!(*all.0.events.lock().unwrap(), trace, "{leg:?}");
        assert_eq!(*some.0.events.lock().unwrap(), untraced_ints, "{leg:?}");
    }
}
