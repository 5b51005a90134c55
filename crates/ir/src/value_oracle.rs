//! The value model against its pre-split self.
//!
//! `apply_bin` is now an always-inlined same-type half plus an
//! out-of-line half that returns a register pair, and `Value::as_i64`
//! hides its float conversion behind a cold call. The bodies below are
//! the single-function versions they replaced, kept verbatim as the
//! oracle: every operator over an edge grid must agree bit for bit,
//! tag included — and where the old code panicked (`i64::MIN / -1`;
//! in debug builds also `-i64::MIN` and overflowing integer `**`), the
//! new code must panic too.

use std::panic::{catch_unwind, set_hook, take_hook};

use crate::ast::{BinOp, UnOp};
use crate::interp::{apply_bin, apply_un, RunError, Value};

/// `apply_un` as it stood before the split, overflow checked.
fn oracle_apply_un(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::Neg => match v {
            Value::Int(x) => Value::Int(x.checked_neg().expect("overflow")),
            Value::Real(x) => Value::Real(-x),
        },
        UnOp::Not => Value::Int(i64::from(!v.truthy())),
    }
}

/// `apply_bin` as it stood before the split, overflow checked.
fn oracle_apply_bin(op: BinOp, x: Value, y: Value) -> Value {
    use BinOp::*;
    let int_mode = matches!((x, y), (Value::Int(_), Value::Int(_)));
    match op {
        Add | Sub | Mul | Div | Pow => {
            if int_mode {
                let (a, b) = (x.as_i64(), y.as_i64());
                Value::Int(match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => {
                        if b == 0 {
                            0
                        } else {
                            a.checked_div(b).expect("overflow")
                        }
                    }
                    Pow => {
                        if b >= 0 {
                            a.checked_pow(b.min(62) as u32).expect("overflow")
                        } else {
                            0
                        }
                    }
                    _ => unreachable!(),
                })
            } else {
                let (a, b) = (x.as_f64(), y.as_f64());
                Value::Real(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Pow => a.powf(b),
                    _ => unreachable!(),
                })
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let r = if int_mode {
                let (a, b) = (x.as_i64(), y.as_i64());
                match op {
                    Eq => a == b,
                    Ne => a != b,
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    _ => unreachable!(),
                }
            } else {
                let (a, b) = (x.as_f64(), y.as_f64());
                match op {
                    Eq => a == b,
                    Ne => a != b,
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    _ => unreachable!(),
                }
            };
            Value::Int(i64::from(r))
        }
        And => Value::Int(i64::from(x.truthy() && y.truthy())),
        Or => Value::Int(i64::from(x.truthy() || y.truthy())),
    }
}

/// `Value::as_i64` as it stood before the cold call, verbatim.
fn oracle_as_i64(v: Value) -> i64 {
    match v {
        Value::Int(v) => v,
        Value::Real(v) => v as i64,
    }
}

const BIN_OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Pow,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

/// Zero, units, the `i64` extremes, 2^53 ± 1 (where `f64` stops being
/// exact), `Pow` exponents around the clamp at 62 and below zero; the
/// signed zeros, infinities, NaN, subnormals, the `f64` extremes and
/// reals past the `i64` range.
fn grid() -> Vec<Value> {
    const P53: i64 = 1 << 53;
    let ints = [
        0,
        1,
        -1,
        2,
        -2,
        3,
        -3,
        61,
        62,
        63,
        64,
        -64,
        P53 - 1,
        P53,
        P53 + 1,
        -(P53 + 1),
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
    ];
    let reals = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        2.0,
        -3.0,
        63.0,
        70.0,
        P53 as f64,
        (P53 + 2) as f64,
        1e19,
        -1e19,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    ints.into_iter()
        .map(Value::Int)
        .chain(reals.into_iter().map(Value::Real))
        .collect()
}

fn tagged(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(r) => (1, r.to_bits()),
    }
}

/// The oracle's tag and payload bits (`None`: it panicked).
fn oracle_bits(f: impl FnOnce() -> Value + std::panic::UnwindSafe) -> Option<(u8, u64)> {
    catch_unwind(f).ok().map(tagged)
}

/// The new code's tag and payload bits (`None`: it returned
/// [`RunError::IntOverflow`]; any other error or a panic fails).
fn new_bits(r: Result<Value, RunError>) -> Option<(u8, u64)> {
    match r {
        Ok(v) => Some(tagged(v)),
        Err(RunError::IntOverflow) => None,
        Err(e) => panic!("unexpected {e:?}"),
    }
}

#[test]
fn value_model_matches_the_pre_split_oracle() {
    let grid = grid();
    let mut diverged = Vec::new();
    // The oracle's expected panics would otherwise print a few hundred
    // backtrace headers; mismatches are collected and reported after
    // the hook is back.
    let hook = take_hook();
    set_hook(Box::new(|_| {}));
    for &x in &grid {
        for op in [UnOp::Neg, UnOp::Not] {
            let (new, old) = (
                new_bits(apply_un(op, x)),
                oracle_bits(|| oracle_apply_un(op, x)),
            );
            if new != old {
                diverged.push(format!("{op:?} {x:?}: {new:?} vs oracle {old:?}"));
            }
        }
        if x.as_i64() != oracle_as_i64(x) {
            diverged.push(format!("as_i64 {x:?}"));
        }
        for &y in &grid {
            for op in BIN_OPS {
                let new = new_bits(apply_bin(op, x, y));
                let old = oracle_bits(|| oracle_apply_bin(op, x, y));
                if new != old {
                    diverged.push(format!("{x:?} {op:?} {y:?}: {new:?} vs oracle {old:?}"));
                }
            }
        }
    }
    set_hook(hook);
    assert!(
        diverged.is_empty(),
        "{} cases: {diverged:#?}",
        diverged.len()
    );
}
