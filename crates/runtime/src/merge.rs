//! Typed flat-slice kernels for the parallel merge phase.
//!
//! Buffered reductions, privatized copy-in and last-value copy-back
//! all move whole arrays between a thread's private buffer and the
//! shared one. Doing that element-wise through boxed `Value`s — as
//! the first executor did — has two costs: every element pays an
//! enum-dispatch, and, worse, an `f64` round-trip silently corrupts
//! `Ty::Int` buffers (sums lose bits above 2^53, MIN/MAX identities
//! arrive as saturating casts of `±INFINITY`). Both violate the
//! paper's core promise that a validated parallelization is
//! observationally identical to sequential execution.
//!
//! The kernels here are typed by construction: they select on
//! [`ArrayBuf::ty()`] once per array, copy the cells out to a plain
//! `i64`/`f64` vector ([`ArrayBuf::to_i64_vec`] /
//! [`ArrayBuf::to_f64_vec`] — the relaxed per-cell atomics themselves
//! block autovectorization), merge flat slices in a shape LLVM
//! vectorizes, and bulk-store the result back. Int merges use the
//! interpreter's wrapping arithmetic, which is associative mod 2^64,
//! so chunked parallel merges are bit-identical to the sequential
//! order; `f64` merges are deterministic given the deterministic chunk
//! partition.
//!
//! The unit tests pin [`merge_into`] against the corrected
//! element-wise reference (`merge_into_boxed`, test-only);
//! `bench_e2e`'s `runtime.merge_us` times the flat kernels.

use std::sync::Arc;

use lip_ir::{ArrayBuf, BinOp, Ty};

/// The per-thread starting buffer for a buffered reduction: every cell
/// holds the operator's identity *in the buffer's own type*. The
/// `Lt`/`Gt` operators encode MIN/MAX reductions (the analysis'
/// convention), so Int buffers get exact `i64::MAX`/`i64::MIN`
/// identities rather than saturating casts of `±INFINITY`.
pub fn identity_buf(buf: &ArrayBuf, op: BinOp) -> Arc<ArrayBuf> {
    match buf.ty() {
        Ty::Int => {
            let id: i64 = match op {
                BinOp::Mul => 1,
                BinOp::Lt => i64::MAX, // MIN reduction
                BinOp::Gt => i64::MIN, // MAX reduction
                // Add and Sub both accumulate additive deltas (a Sub
                // reduction's private buffer ends at -Σrhs).
                _ => 0,
            };
            ArrayBuf::from_i64(&vec![id; buf.len()])
        }
        Ty::Real => {
            let id: f64 = match op {
                BinOp::Mul => 1.0,
                BinOp::Lt => f64::INFINITY,
                BinOp::Gt => f64::NEG_INFINITY,
                _ => 0.0,
            };
            ArrayBuf::from_f64(&vec![id; buf.len()])
        }
    }
}

/// A private copy of `buf` with identical contents and type (the
/// privatized copy-in), via the flat accessors.
pub fn clone_buf(buf: &ArrayBuf) -> Arc<ArrayBuf> {
    match buf.ty() {
        Ty::Int => ArrayBuf::from_i64(&buf.to_i64_vec().expect("Int buffer")),
        Ty::Real => ArrayBuf::from_f64(&buf.to_f64_vec().expect("Real buffer")),
    }
}

/// Copies every element of `private` over `shared` wholesale (the
/// static-last-value write-back).
///
/// # Panics
///
/// Panics if the buffers disagree in type or length.
pub fn copy_back(shared: &ArrayBuf, private: &ArrayBuf) {
    match shared.ty() {
        Ty::Int => shared.store_i64(&private.to_i64_vec().expect("type mismatch")),
        Ty::Real => shared.store_f64(&private.to_f64_vec().expect("type mismatch")),
    }
}

/// Merges one thread's private reduction buffer into the shared array
/// with the reduction operator, monomorphically in the buffer's
/// element type.
///
/// # Panics
///
/// Panics if the buffers disagree in type or length.
pub fn merge_into(shared: &ArrayBuf, private: &ArrayBuf, op: BinOp) {
    match shared.ty() {
        Ty::Int => {
            let mut a = shared.to_i64_vec().expect("Int buffer");
            let b = private.to_i64_vec().expect("type mismatch");
            assert_eq!(a.len(), b.len(), "reduction buffer length mismatch");
            match op {
                BinOp::Mul => {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x = x.wrapping_mul(*y);
                    }
                }
                BinOp::Lt => {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x = (*x).min(*y);
                    }
                }
                BinOp::Gt => {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x = (*x).max(*y);
                    }
                }
                _ => {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x = x.wrapping_add(*y);
                    }
                }
            }
            shared.store_i64(&a);
        }
        Ty::Real => {
            let mut a = shared.to_f64_vec().expect("Real buffer");
            let b = private.to_f64_vec().expect("type mismatch");
            assert_eq!(a.len(), b.len(), "reduction buffer length mismatch");
            match op {
                BinOp::Mul => {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x *= *y;
                    }
                }
                BinOp::Lt => {
                    for (x, y) in a.iter_mut().zip(&b) {
                        // f64::min, matching `apply_intrinsic(Min, ..)`.
                        *x = x.min(*y);
                    }
                }
                BinOp::Gt => {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x = x.max(*y);
                    }
                }
                _ => {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += *y;
                    }
                }
            }
            shared.store_f64(&a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::Value;

    fn ops() -> [BinOp; 4] {
        [BinOp::Add, BinOp::Mul, BinOp::Lt, BinOp::Gt]
    }

    /// The element-wise boxed reference for [`merge_into`]: one
    /// [`Value`]-typed merge per element through the shared [`ArrayBuf`]
    /// API. Correct (it dispatches on the element values, so Int buffers
    /// merge in `i64`), but a scalar enum-dispatch per element.
    fn merge_into_boxed(shared: &ArrayBuf, private: &ArrayBuf, op: BinOp) {
        for idx in 0..shared.len() {
            let (a, b) = (shared.get(idx), private.get(idx));
            let int_mode = matches!((a, b), (Value::Int(_), Value::Int(_)));
            let merged = match op {
                BinOp::Mul => lip_ir::apply_bin(BinOp::Mul, a, b),
                BinOp::Lt => lip_ir::apply_intrinsic(lip_ir::Intrinsic::Min, &[a, b]),
                BinOp::Gt => lip_ir::apply_intrinsic(lip_ir::Intrinsic::Max, &[a, b]),
                _ => lip_ir::apply_bin(BinOp::Add, a, b),
            }
            .expect("+, * wrap and MIN / MAX cannot overflow");
            debug_assert_eq!(int_mode, matches!(merged, Value::Int(_)));
            shared.set(idx, merged);
        }
    }

    /// The flat kernels must match the boxed reference bit-for-bit, in
    /// both element types, including Int values beyond 2^53 (where the
    /// old `f64` round-trip lost bits).
    #[test]
    fn flat_merge_matches_boxed_reference() {
        for op in ops() {
            let shared_init: Vec<i64> = vec![i64::MAX - 7, -3, 1, i64::MIN + 9, (1 << 60) + 1];
            let private: Vec<i64> = vec![5, (1 << 57) + 3, -2, 11, 1];
            let flat = ArrayBuf::from_i64(&shared_init);
            let boxed = ArrayBuf::from_i64(&shared_init);
            let priv_buf = ArrayBuf::from_i64(&private);
            merge_into(&flat, &priv_buf, op);
            merge_into_boxed(&boxed, &priv_buf, op);
            for i in 0..flat.len() {
                assert_eq!(flat.get(i), boxed.get(i), "{op:?} Int [{i}]");
            }

            let shared_init: Vec<f64> = vec![0.5, -1e300, f64::INFINITY, 3.25, -0.0];
            let private: Vec<f64> = vec![2.0, 1e300, 7.5, -3.25, 0.0];
            let flat = ArrayBuf::from_f64(&shared_init);
            let boxed = ArrayBuf::from_f64(&shared_init);
            let priv_buf = ArrayBuf::from_f64(&private);
            merge_into(&flat, &priv_buf, op);
            merge_into_boxed(&boxed, &priv_buf, op);
            for i in 0..flat.len() {
                assert_eq!(
                    flat.get(i).as_f64().to_bits(),
                    boxed.get(i).as_f64().to_bits(),
                    "{op:?} Real [{i}]"
                );
            }
        }
    }

    /// Int identities are exact, not saturating casts of the Real ones.
    #[test]
    fn int_identities_are_exact() {
        let buf = ArrayBuf::from_i64(&[42, 7]);
        for (op, id) in [
            (BinOp::Add, 0),
            (BinOp::Sub, 0),
            (BinOp::Mul, 1),
            (BinOp::Lt, i64::MAX),
            (BinOp::Gt, i64::MIN),
        ] {
            let idb = identity_buf(&buf, op);
            assert_eq!(idb.ty(), Ty::Int);
            for i in 0..idb.len() {
                assert_eq!(idb.get(i), Value::Int(id), "{op:?}");
            }
        }
    }

    /// Merging the identity buffer is a no-op in both types — the
    /// identity really is the identity under `merge_into`.
    #[test]
    fn identity_merge_is_noop() {
        for op in ops() {
            let vals: Vec<i64> = vec![i64::MAX - 1, 0, -5, 1 << 61];
            let shared = ArrayBuf::from_i64(&vals);
            let id = identity_buf(&shared, op);
            merge_into(&shared, &id, op);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(shared.get(i), Value::Int(*v), "{op:?} [{i}]");
            }

            let vals: Vec<f64> = vec![1.5, -2.25, 1e200, 0.0];
            let shared = ArrayBuf::from_f64(&vals);
            let id = identity_buf(&shared, op);
            merge_into(&shared, &id, op);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(shared.get(i), Value::Real(*v), "{op:?} [{i}]");
            }
        }
    }

    /// `clone_buf` and `copy_back` preserve exact bits and type.
    #[test]
    fn clone_and_copy_back_are_exact() {
        let vals: Vec<i64> = vec![i64::MAX, i64::MIN, (1 << 60) + 1];
        let shared = ArrayBuf::from_i64(&vals);
        let cloned = clone_buf(&shared);
        assert_eq!(cloned.ty(), Ty::Int);
        let target = ArrayBuf::new_int(vals.len());
        copy_back(&target, &cloned);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(target.get(i), Value::Int(*v));
        }
    }
}
