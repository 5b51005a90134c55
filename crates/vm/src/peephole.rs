//! Superinstruction peephole pass over compiled chunks.
//!
//! The dispatch loop is the bytecode backend's hot path (`bench_e2e`'s
//! `vm.seq_exec_ms` / `vm.ns_per_unit`): once per-node accounting and
//! `HashMap` lookups are gone, most of a kernel's wall-clock is the
//! `match` in [`crate::vm`] turning over short, highly regular
//! instruction sequences. This pass rewrites a compiled [`Chunk`]
//! after the fact, fusing those dominant sequences into the dedicated
//! superinstructions of [`crate::chunk`]:
//!
//! * `Charge + LoadScalar + Bin` (and the scalar/scalar, reg/const,
//!   reg/element operand shapes) → `FusedBin*`,
//! * `Bin + StoreScalar` → `FusedBinStore`,
//! * rank-1 `LoadScalar + LoadElem` / `LoadScalar + StoreElem` →
//!   `FusedLoadElemS` / `FusedStoreElemS`,
//! * the whole indexed read-modify-write statement
//!   `LoadScalar+LoadElem+{Const,LoadScalar}+Bin+LoadScalar+StoreElem`
//!   → `FusedElemUpdate{K,S}`,
//! * whole reduction statements (third level, consuming pass-one
//!   superinstructions): `s = s op A(i)` → `FusedRedAccS` and
//!   `A(B(i)) = A(B(i)) op v` → `FusedRedElem{K,S}` — the per-iteration
//!   bodies the runtime's reduction plans execute,
//! * the per-iteration loop overhead `LoopTest + SetVarRaw` and
//!   `LoopIncr + Jump` → `LoopTestSet` / `LoopIncrJump`.
//!
//! Correctness obligations, checked by the three-way differential
//! suites (`crates/vm/tests/proptest_programs.rs`, `peephole_golden.rs`
//! and the unit tests below):
//!
//! * **Charging is exact.** A fused op carries the folded leading
//!   [`Op::Charge`] and applies it first, so work-unit totals and the
//!   budget-trip point are bit-identical. Distinct `Charge` ops are
//!   never merged (no new saturation paths), and a pattern never spans
//!   an interior `Charge` (statement boundaries stay intact).
//! * **Branch targets survive.** A window never swallows an op that is
//!   the target of any jump except as its own first op; all targets
//!   are remapped after each rewrite.
//! * **Observable state is identical.** Traced reads/writes happen in
//!   the unfused order, errors are raised at the same points, and
//!   every register a later instruction could read is still written —
//!   fusion only elides writes to operand temporaries its own window
//!   consumes, which the stack-disciplined allocator makes dead.
//!
//! Every `lip_runtime` session runs the fused stream: its compile
//! cache applies the pass once per machine. The compiler's raw stream
//! stays reachable by calling [`crate::compile_program`] without
//! [`optimize_program`], which is how the differential suites and
//! `bench_e2e` (`vm.ops_unfused` against `vm.ops_fused`) compare the
//! two.

use std::sync::Arc;

use crate::chunk::{BlockId, Chunk, CompiledProgram, DimCode, Op};
use crate::typed::{self, ANY};

/// Fuses every chunk of `prog`: subroutine bodies, standalone blocks,
/// attached expression fragments, and the reshape/local-allocation
/// dimension fragments; then types the subroutine bodies and blocks
/// ([`crate::typed`]). Idempotent.
pub fn optimize_program(prog: &mut CompiledProgram) {
    for sub in &mut prog.subs {
        optimize_chunk(&mut sub.chunk);
        for pm in &mut sub.params {
            if let Some(dims) = &mut pm.reshape {
                optimize_dims(dims);
            }
        }
        for local in &mut sub.locals {
            optimize_dims(&mut local.dims);
        }
    }
    type_subs(prog);
    for b in 0..prog.blocks.len() {
        optimize_block(prog, BlockId(b));
    }
}

/// Types every subroutine body, with each formal's write summary
/// ([`crate::chunk::ParamMeta::writes`]) grown from nothing to a
/// fixpoint over the call graph: a body's summary feeds the typing of
/// its callers' copy-outs. Callees are typed before their callers, so
/// a program without recursion types each body once.
fn type_subs(prog: &mut CompiledProgram) {
    let n = prog.subs.len();
    let mut callers = vec![Vec::new(); n];
    for (i, sub) in prog.subs.iter().enumerate() {
        for cs in &sub.chunk.calls {
            callers[cs.callee].push(i);
        }
    }
    // Callees first: a post-order walk of the call graph.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        let mut stack = vec![(root, 0usize)];
        while let Some((i, next)) = stack.pop() {
            if next == 0 {
                if seen[i] {
                    continue;
                }
                seen[i] = true;
            }
            match prog.subs[i].chunk.calls.get(next) {
                Some(cs) => {
                    stack.push((i, next + 1));
                    stack.push((cs.callee, 0));
                }
                None => order.push(i),
            }
        }
    }
    for pm in prog.subs.iter_mut().flat_map(|s| &mut s.params) {
        pm.writes = 0;
    }
    let mut dirty = vec![true; n];
    while dirty.contains(&true) {
        for &i in &order {
            if !std::mem::take(&mut dirty[i]) {
                continue;
            }
            let subs = &prog.subs;
            let typing = typed::type_chunk(&subs[i].chunk, &|c, p| subs[c].params[p].writes);
            let sub = &mut prog.subs[i];
            let mut grew = false;
            for pm in &mut sub.params {
                let w = typing.exit[pm.scalar as usize] & ANY;
                grew |= w & !pm.writes != 0;
                pm.writes |= w;
            }
            sub.chunk.typed = typing.typed.map(Arc::new);
            if grew {
                for &c in &callers[i] {
                    dirty[c] = true;
                }
            }
        }
    }
}

/// Fuses and types one standalone block (chunk + attached expression
/// fragments) — what the per-program cache runs after lowering a new
/// block into an already-fused program copy.
pub fn optimize_block(prog: &mut CompiledProgram, b: BlockId) {
    let block = &mut prog.blocks[b.0];
    optimize_chunk(&mut block.chunk);
    for code in &mut block.exprs {
        optimize_ops(&mut code.ops);
    }
    let subs = &prog.subs;
    let typing = typed::type_chunk(&prog.blocks[b.0].chunk, &|c, p| subs[c].params[p].writes);
    prog.blocks[b.0].chunk.typed = typing.typed.map(Arc::new);
}

/// Fuses one chunk's instruction stream in place.
pub fn optimize_chunk(chunk: &mut Chunk) {
    optimize_ops(&mut chunk.ops);
}

fn optimize_dims(dims: &mut [DimCode]) {
    for d in dims {
        if let DimCode::Fixed(code) = d {
            optimize_ops(&mut code.ops);
        }
    }
}

/// Rewrites to fixpoint: second-level fusions (e.g. a `FusedLoadElemS`
/// produced in pass one feeding a `Bin` in pass two) need another
/// scan, and every rewrite strictly shrinks the stream, so this
/// terminates.
fn optimize_ops(ops: &mut Vec<Op>) {
    while rewrite_pass(ops) {}
}

/// Indices that are the target of some jump (including one past the
/// end — exit jumps may point there).
fn jump_targets(ops: &[Op]) -> Vec<bool> {
    let mut t = vec![false; ops.len() + 1];
    for op in ops {
        match op {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::LoopTest { exit: target, .. }
            | Op::LoopTestSet { exit: target, .. }
            | Op::LoopIncrJump { target, .. } => t[*target as usize] = true,
            _ => {}
        }
    }
    t
}

/// No interior op of the window `[i, i + len)` may be a jump target
/// (the window's first op keeps its address, so landing there is
/// fine).
fn window_clear(targets: &[bool], i: usize, len: usize) -> bool {
    (i + 1..i + len).all(|j| !targets[j])
}

fn rewrite_pass(ops: &mut Vec<Op>) -> bool {
    let targets = jump_targets(ops);
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    let mut map = vec![0usize; ops.len() + 1];
    let mut i = 0;
    let mut changed = false;
    while i < ops.len() {
        if let Some((fused, len)) = try_fuse(ops, i, &targets) {
            // Interior indices are never jump targets (checked), so
            // mapping them to the fused op is only for completeness.
            for m in map.iter_mut().skip(i).take(len) {
                *m = out.len();
            }
            out.push(fused);
            i += len;
            changed = true;
        } else {
            map[i] = out.len();
            out.push(ops[i].clone());
            i += 1;
        }
    }
    map[ops.len()] = out.len();
    if changed {
        for op in &mut out {
            match op {
                Op::Jump { target }
                | Op::JumpIfFalse { target, .. }
                | Op::LoopTest { exit: target, .. }
                | Op::LoopTestSet { exit: target, .. }
                | Op::LoopIncrJump { target, .. } => *target = map[*target as usize] as u32,
                _ => {}
            }
        }
        *ops = out;
    }
    changed
}

/// The longest fusion starting at `i`, if any: `(fused op, ops
/// consumed)`.
fn try_fuse(ops: &[Op], i: usize, targets: &[bool]) -> Option<(Op, usize)> {
    if let Op::Charge(c) = ops[i] {
        // A leading charge folds into the fused op (which charges
        // first), but only when the op carries no charge yet — two
        // `Charge`s are never merged, so budget-trip points and
        // saturation behavior stay bit-identical.
        if let Some((fused, len)) = fuse_body(&ops[i + 1..]) {
            if window_clear(targets, i, 1 + len) {
                if let Some(f) = fold_charge(&fused, c) {
                    return Some((f, 1 + len));
                }
            }
        }
        if i + 1 < ops.len() && window_clear(targets, i, 2) {
            if let Some(f) = fold_charge(&ops[i + 1], c) {
                return Some((f, 2));
            }
            // Last resort: statements that open with a bare literal or
            // scalar load still save the `Charge` dispatch.
            match ops[i + 1] {
                Op::Const { dst, k } => {
                    return Some((Op::ChargedConst { charge: c, dst, k }, 2));
                }
                Op::LoadScalar { dst, slot } => {
                    return Some((
                        Op::ChargedLoadScalar {
                            charge: c,
                            dst,
                            slot,
                        },
                        2,
                    ));
                }
                _ => {}
            }
        }
        return None;
    }
    let (fused, len) = fuse_body(&ops[i..])?;
    window_clear(targets, i, len).then_some((fused, len))
}

/// Re-homes a leading `Charge` onto a superinstruction whose
/// [`Op::charge_mut`] field is still zero.
fn fold_charge(op: &Op, c: u32) -> Option<Op> {
    let mut folded = op.clone();
    let charge = folded.charge_mut().filter(|charge| **charge == 0)?;
    *charge = c;
    Some(folded)
}

/// Matches the charge-less rewrite rules at the head of `rest`,
/// longest window first.
fn fuse_body(rest: &[Op]) -> Option<(Op, usize)> {
    // The whole register-indexed read-modify-write statement,
    // `F(J(i)+1) += c` (second level: pass one has already fused the
    // index loads and constant bin-ops):
    //   r = J[i]; r = r ⊕ k1; r = F[r]; r = r op c; r2 = J[i];
    //   r2 = r2 ⊕ k1; F[r2] = r
    // The two subscript computations must be structurally identical
    // (same index array, slot, operator and constant) and nothing in
    // the window writes, so one computation is exact; the VM arm still
    // replays the second traced index-array read.
    if let [Op::FusedLoadElemS {
        charge,
        dst: r,
        arr: idx_arr,
        idx_slot,
    }, Op::FusedBinRK {
        charge: 0,
        op: idx_op,
        dst: d1,
        a: a1,
        k: idx_k,
    }, Op::LoadElem {
        dst: d2,
        arr,
        base,
        n: 1,
    }, Op::FusedBinRK {
        charge: 0,
        op,
        dst: d3,
        a: a3,
        k,
    }, Op::FusedLoadElemS {
        charge: 0,
        dst: r2,
        arr: idx_arr2,
        idx_slot: idx_slot2,
    }, Op::FusedBinRK {
        charge: 0,
        op: idx_op2,
        dst: d4,
        a: a4,
        k: idx_k2,
    }, Op::StoreElem {
        arr: s_arr,
        base: s_base,
        n: 1,
        src,
    }, ..] = rest
    {
        if d1 == r
            && a1 == r
            && d2 == r
            && base == r
            && d3 == r
            && a3 == r
            && r2 != r
            && idx_arr2 == idx_arr
            && idx_slot2 == idx_slot
            && d4 == r2
            && a4 == r2
            && idx_op2 == idx_op
            && idx_k2 == idx_k
            && s_arr == arr
            && s_base == r2
            && src == r
        {
            return Some((
                Op::FusedElemUpdateE {
                    charge: *charge,
                    op: *op,
                    dst: *r,
                    arr: *arr,
                    idx_arr: *idx_arr,
                    idx_slot: *idx_slot,
                    idx_op: *idx_op,
                    idx_k: *idx_k,
                    k: *k,
                },
                7,
            ));
        }
    }
    // The whole rank-1 read-modify-write statement:
    //   r = idx; r = arr[r]; o = opnd; r = r op o; t = idx; arr[t] = r
    // with a constant or scalar operand. The subscript slot is read
    // twice in the original with no interposed write, so one
    // linearization is exact.
    if let [Op::LoadScalar {
        dst: r_idx,
        slot: idx_slot,
    }, Op::LoadElem {
        dst: le_dst,
        arr,
        base: le_base,
        n: 1,
    }, opnd, Op::Bin {
        op,
        dst: b_dst,
        a: b_a,
        b: b_b,
    }, Op::LoadScalar {
        dst: r_idx2,
        slot: idx_slot2,
    }, Op::StoreElem {
        arr: s_arr,
        base: s_base,
        n: 1,
        src,
    }, ..] = rest
    {
        if le_dst == r_idx
            && le_base == r_idx
            && b_dst == r_idx
            && b_a == r_idx
            && b_b != r_idx
            && idx_slot2 == idx_slot
            && s_arr == arr
            && s_base == r_idx2
            && src == r_idx
        {
            match opnd {
                Op::Const { dst: o_dst, k } if o_dst == b_b => {
                    return Some((
                        Op::FusedElemUpdateK {
                            charge: 0,
                            op: *op,
                            dst: *r_idx,
                            arr: *arr,
                            idx_slot: *idx_slot,
                            k: *k,
                        },
                        6,
                    ));
                }
                Op::LoadScalar { dst: o_dst, slot } if o_dst == b_b => {
                    return Some((
                        Op::FusedElemUpdateS {
                            charge: 0,
                            op: *op,
                            dst: *r_idx,
                            arr: *arr,
                            idx_slot: *idx_slot,
                            b_slot: *slot,
                        },
                        6,
                    ));
                }
                _ => {}
            }
        }
    }
    // The whole scalar-accumulating reduction statement `s = s op A(i)`
    // (third level: earlier passes have produced `ChargedLoadScalar +
    // FusedLoadElemS + FusedBinStore`). The accumulator slot is both
    // the left operand and the store target, so the statement collapses
    // to one op; the elided registers are operand temps the window
    // itself consumes.
    if let [Op::ChargedLoadScalar {
        charge,
        dst: ra,
        slot: acc,
    }, Op::FusedLoadElemS {
        charge: 0,
        dst: rb,
        arr,
        idx_slot,
    }, Op::FusedBinStore {
        charge: 0,
        op,
        slot,
        dst,
        a,
        b,
    }, ..] = rest
    {
        if slot == acc && dst == ra && a == ra && b == rb && ra != rb {
            return Some((
                Op::FusedRedAccS {
                    charge: *charge,
                    op: *op,
                    dst: *ra,
                    acc_slot: *acc,
                    arr: *arr,
                    idx_slot: *idx_slot,
                },
                3,
            ));
        }
    }
    // The whole indirect reduction statement `A(B(i)) = A(B(i)) op v`
    // with a constant or scalar operand (third level: earlier passes
    // have produced `FusedLoadElemE + FusedBinR{K,S} + FusedStoreElemE`).
    // Both subscripts read the same index element and nothing in the
    // window writes before the final store, so one linearization is
    // exact; the VM arm still replays the store's traced index read.
    if let [Op::FusedLoadElemE {
        charge,
        dst: r,
        idx_arr,
        idx_slot,
        arr,
    }, opnd, Op::FusedStoreElemE {
        charge: 0,
        idx_arr: idx_arr2,
        idx_slot: idx_slot2,
        arr: arr2,
        src,
    }, ..] = rest
    {
        if idx_arr2 == idx_arr && idx_slot2 == idx_slot && arr2 == arr && src == r {
            match opnd {
                Op::FusedBinRK {
                    charge: 0,
                    op,
                    dst,
                    a,
                    k,
                } if dst == r && a == r => {
                    return Some((
                        Op::FusedRedElemK {
                            charge: *charge,
                            op: *op,
                            dst: *r,
                            arr: *arr,
                            idx_arr: *idx_arr,
                            idx_slot: *idx_slot,
                            k: *k,
                        },
                        3,
                    ));
                }
                Op::FusedBinRS {
                    charge: 0,
                    op,
                    dst,
                    a,
                    b_slot,
                } if dst == r && a == r => {
                    return Some((
                        Op::FusedRedElemS {
                            charge: *charge,
                            op: *op,
                            dst: *r,
                            arr: *arr,
                            idx_arr: *idx_arr,
                            idx_slot: *idx_slot,
                            b_slot: *b_slot,
                        },
                        3,
                    ));
                }
                _ => {}
            }
        }
    }
    // Two scalar loads feeding a binary op.
    if let [Op::LoadScalar {
        dst: ra,
        slot: a_slot,
    }, Op::LoadScalar {
        dst: rb,
        slot: b_slot,
    }, Op::Bin { op, dst, a, b }, ..] = rest
    {
        if a == ra && b == rb && dst == ra && ra != rb {
            return Some((
                Op::FusedBinSS {
                    charge: 0,
                    op: *op,
                    dst: *dst,
                    a_slot: *a_slot,
                    b_slot: *b_slot,
                },
                3,
            ));
        }
    }
    let [first, second, ..] = rest else {
        return None;
    };
    let fused = match (first, second) {
        // Rank-1 indexed load: the subscript register is the element
        // destination, so no write is even elided.
        (
            Op::LoadScalar { dst: r, slot },
            Op::LoadElem {
                dst,
                arr,
                base,
                n: 1,
            },
        ) if dst == r && base == r => Op::FusedLoadElemS {
            charge: 0,
            dst: *r,
            arr: *arr,
            idx_slot: *slot,
        },
        // Rank-1 indexed store (the subscript temp is dead after).
        (
            Op::LoadScalar { dst: r, slot },
            Op::StoreElem {
                arr,
                base,
                n: 1,
                src,
            },
        ) if base == r && src != r => Op::FusedStoreElemS {
            charge: 0,
            arr: *arr,
            idx_slot: *slot,
            src: *src,
        },
        // Scalar right operand.
        (Op::LoadScalar { dst: rb, slot }, Op::Bin { op, dst, a, b })
            if b == rb && dst == a && a != rb =>
        {
            Op::FusedBinRS {
                charge: 0,
                op: *op,
                dst: *dst,
                a: *a,
                b_slot: *slot,
            }
        }
        // Constant right operand.
        (Op::Const { dst: rk, k }, Op::Bin { op, dst, a, b }) if b == rk && dst == a && a != rk => {
            Op::FusedBinRK {
                charge: 0,
                op: *op,
                dst: *dst,
                a: *a,
                k: *k,
            }
        }
        // Indirect load through an index array, `F(J(i))` (second
        // level: the pass-one `FusedLoadElemS` loads the index, the
        // raw `LoadElem` consumes it as its only subscript).
        (
            Op::FusedLoadElemS {
                charge,
                dst: r,
                arr: idx_arr,
                idx_slot,
            },
            Op::LoadElem {
                dst,
                arr,
                base,
                n: 1,
            },
        ) if dst == r && base == r => Op::FusedLoadElemE {
            charge: *charge,
            dst: *r,
            idx_arr: *idx_arr,
            idx_slot: *idx_slot,
            arr: *arr,
        },
        // Indirect store through an index array, `F(J(i)) = v`.
        (
            Op::FusedLoadElemS {
                charge,
                dst: r,
                arr: idx_arr,
                idx_slot,
            },
            Op::StoreElem {
                arr,
                base,
                n: 1,
                src,
            },
        ) if base == r && src != r => Op::FusedStoreElemE {
            charge: *charge,
            idx_arr: *idx_arr,
            idx_slot: *idx_slot,
            arr: *arr,
            src: *src,
        },
        // Element right operand (second-level: consumes a pass-one
        // `FusedLoadElemS`, inheriting its folded charge).
        (
            Op::FusedLoadElemS {
                charge,
                dst: r,
                arr,
                idx_slot,
            },
            Op::Bin { op, dst, a, b },
        ) if b == r && dst == a && a != r => Op::FusedBinRE {
            charge: *charge,
            op: *op,
            dst: *dst,
            a: *a,
            arr: *arr,
            idx_slot: *idx_slot,
        },
        // Binary op straight into a scalar slot.
        (Op::Bin { op, dst, a, b }, Op::StoreScalar { slot, src }) if src == dst => {
            Op::FusedBinStore {
                charge: 0,
                op: *op,
                slot: *slot,
                dst: *dst,
                a: *a,
                b: *b,
            }
        }
        // Per-iteration DO overhead: head test + variable publish...
        (Op::LoopTest { i, hi, step, exit }, Op::SetVarRaw { slot, src }) if src == i => {
            Op::LoopTestSet {
                i: *i,
                hi: *hi,
                step: *step,
                exit: *exit,
                var_slot: *slot,
            }
        }
        // ...and tail increment + back-jump.
        (Op::LoopIncr { i, step }, Op::Jump { target }) => Op::LoopIncrJump {
            i: *i,
            step: *step,
            target: *target,
        },
        _ => return None,
    };
    Some((fused, 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::{parse_program, BinOp, Machine, Store, Ty};
    use lip_symbolic::sym;

    /// Compiles `src`, returning the entry chunk unfused and fused.
    fn compile_both(src: &str) -> (Chunk, Chunk) {
        let prog = parse_program(src).expect("parses");
        let compiled = crate::compile::compile_program(&prog).expect("compiles");
        let unfused = compiled.subs[0].chunk.clone();
        let mut fused = unfused.clone();
        optimize_chunk(&mut fused);
        (unfused, fused)
    }

    /// Runs both streams of a whole program and asserts identical
    /// stores and work units.
    fn assert_differential(src: &str) {
        let prog = parse_program(src).expect("parses");
        let compiled = crate::compile::compile_program(&prog).expect("compiles");
        let mut fused = compiled.clone();
        optimize_program(&mut fused);
        let machine = Machine::new(prog);
        let mut is = Store::new();
        let ic = machine.run(&mut is).expect("interp");
        let mut us = Store::new();
        let uc = crate::vm::Vm::new(&compiled).run(&mut us).expect("unfused");
        let mut fs = Store::new();
        let fc = crate::vm::Vm::new(&fused).run(&mut fs).expect("fused");
        assert_eq!(ic, uc, "unfused work units");
        assert_eq!(ic, fc, "fused work units");
        for (s, v) in is.scalars() {
            assert_eq!(us.scalar(s), Some(v), "unfused scalar {s}");
            assert_eq!(fs.scalar(s), Some(v), "fused scalar {s}");
        }
        for (s, view) in is.arrays() {
            let (u, f) = (us.array(s).expect("u"), fs.array(s).expect("f"));
            for k in 0..view.buf.len() {
                assert_eq!(view.buf.get(k), u.buf.get(k), "unfused {s}[{k}]");
                assert_eq!(view.buf.get(k), f.buf.get(k), "fused {s}[{k}]");
            }
        }
    }

    fn count(chunk: &Chunk, pred: impl Fn(&Op) -> bool) -> usize {
        chunk.ops.iter().filter(|op| pred(op)).count()
    }

    #[test]
    fn scalar_scalar_bin_fuses_with_charge() {
        let src = "
SUBROUTINE main()
  INTEGER n, m, t
  n = 2
  m = 3
  t = n + m
END
";
        let (unfused, fused) = compile_both(src);
        assert!(
            count(&fused, |op| matches!(
                op,
                Op::FusedBinSS {
                    charge,
                    op: BinOp::Add,
                    ..
                } if *charge > 0
            )) == 1
        );
        assert!(fused.ops.len() < unfused.ops.len());
        assert_differential(src);
    }

    #[test]
    fn reg_scalar_and_reg_const_bins_fuse() {
        let src = "
SUBROUTINE main()
  DIMENSION A(8)
  INTEGER i
  i = 3
  A(i) = A(i) * 0.5 + 1.0
END
";
        let (_, fused) = compile_both(src);
        // `A(i)` loads fuse, `* 0.5` and `+ 1.0` become reg-const
        // bins, the store becomes an indexed store.
        assert_eq!(
            count(&fused, |op| matches!(op, Op::FusedLoadElemS { .. })),
            1
        );
        assert_eq!(count(&fused, |op| matches!(op, Op::FusedBinRK { .. })), 2);
        assert_eq!(
            count(&fused, |op| matches!(op, Op::FusedStoreElemS { .. })),
            1
        );
        assert_differential(src);
    }

    #[test]
    fn element_operand_bin_fuses_second_level() {
        let src = "
SUBROUTINE main()
  DIMENSION U(8), V(8), W(8)
  INTEGER i
  i = 2
  W(i) = U(i) + V(i)
END
";
        let (_, fused) = compile_both(src);
        // U(i) stays a fused load; V(i) disappears into the Bin.
        assert_eq!(count(&fused, |op| matches!(op, Op::FusedBinRE { .. })), 1);
        assert_eq!(
            count(&fused, |op| matches!(op, Op::FusedLoadElemS { .. })),
            1
        );
        assert_differential(src);
    }

    #[test]
    fn rank1_rmw_statement_fuses_whole() {
        let src = "
SUBROUTINE main()
  DIMENSION A(8)
  INTEGER i
  x = 2.0
  i = 3
  A(i) = A(i) + 0.5
  A(i) = A(i) * x
END
";
        let (_, fused) = compile_both(src);
        assert_eq!(
            count(&fused, |op| matches!(
                op,
                Op::FusedElemUpdateK { charge, .. } if *charge > 0
            )),
            1
        );
        assert_eq!(
            count(&fused, |op| matches!(
                op,
                Op::FusedElemUpdateS { charge, .. } if *charge > 0
            )),
            1
        );
        assert_differential(src);
    }

    #[test]
    fn register_indexed_rmw_fuses_whole() {
        let src = "
SUBROUTINE main()
  DIMENSION F(16), J(8)
  INTEGER i
  DO i = 1, 8
    J(i) = i
  ENDDO
  DO i = 1, 8
    F(J(i) + 1) = F(J(i) + 1) + 0.25
  ENDDO
END
";
        let (_, fused) = compile_both(src);
        assert_eq!(
            count(&fused, |op| matches!(
                op,
                Op::FusedElemUpdateE { charge, .. } if *charge > 0
            )),
            1,
            "{:?}",
            fused.ops
        );
        assert_differential(src);
    }

    #[test]
    fn scalar_reduction_statement_fuses_whole() {
        let src = "
SUBROUTINE main()
  DIMENSION A(8)
  INTEGER i, s
  s = 0
  DO i = 1, 8
    A(i) = i
  ENDDO
  DO i = 1, 8
    s = s + A(i)
  ENDDO
END
";
        let (_, fused) = compile_both(src);
        assert_eq!(
            count(&fused, |op| matches!(
                op,
                Op::FusedRedAccS { charge, op: BinOp::Add, .. } if *charge > 0
            )),
            1,
            "{:?}",
            fused.ops
        );
        assert_differential(src);
    }

    /// `s = A(i) + s` has the accumulator on the right, so the compiled
    /// stream has a different shape and must not match the reduction
    /// rule (it still fuses piecewise).
    #[test]
    fn right_accumulator_does_not_match_reduction_rule() {
        let src = "
SUBROUTINE main()
  DIMENSION A(8)
  INTEGER i, s
  s = 0
  DO i = 1, 8
    s = A(i) + s
  ENDDO
END
";
        let (_, fused) = compile_both(src);
        assert_eq!(
            count(&fused, |op| matches!(op, Op::FusedRedAccS { .. })),
            0,
            "{:?}",
            fused.ops
        );
        assert_differential(src);
    }

    #[test]
    fn indirect_reduction_statement_fuses_whole() {
        let src = "
SUBROUTINE main()
  DIMENSION F(8), J(8)
  INTEGER i
  x = 2.0
  DO i = 1, 8
    J(i) = i
  ENDDO
  DO i = 1, 8
    F(J(i)) = F(J(i)) + 0.25
  ENDDO
  DO i = 1, 8
    F(J(i)) = F(J(i)) * x
  ENDDO
END
";
        let (_, fused) = compile_both(src);
        assert_eq!(
            count(&fused, |op| matches!(
                op,
                Op::FusedRedElemK { charge, op: BinOp::Add, .. } if *charge > 0
            )),
            1,
            "{:?}",
            fused.ops
        );
        assert_eq!(
            count(&fused, |op| matches!(
                op,
                Op::FusedRedElemS { charge, op: BinOp::Mul, .. } if *charge > 0
            )),
            1,
            "{:?}",
            fused.ops
        );
        assert_differential(src);
    }

    /// Mismatched subscripts (`F(J(i)) = F(K(i)) ...`) must keep the
    /// indirect-reduction statement unfused: it is not a reduction.
    #[test]
    fn indirect_reduction_differing_index_array_does_not_fuse() {
        let src = "
SUBROUTINE main()
  DIMENSION F(8), J(8), K(8)
  INTEGER i
  DO i = 1, 8
    J(i) = i
    K(i) = 9 - i
  ENDDO
  DO i = 1, 8
    F(J(i)) = F(K(i)) + 0.25
  ENDDO
END
";
        let (_, fused) = compile_both(src);
        assert_eq!(
            count(&fused, |op| matches!(
                op,
                Op::FusedRedElemK { .. } | Op::FusedRedElemS { .. }
            )),
            0,
            "{:?}",
            fused.ops
        );
        assert_differential(src);
    }

    /// The two subscript computations must be structurally identical —
    /// differing constants read and write different elements, so the
    /// statement must stay unfused.
    #[test]
    fn register_indexed_rmw_differing_index_does_not_fuse() {
        let src = "
SUBROUTINE main()
  DIMENSION F(16), J(8)
  INTEGER i
  DO i = 1, 8
    J(i) = i
  ENDDO
  DO i = 1, 8
    F(J(i) + 1) = F(J(i) + 2) + 0.25
  ENDDO
END
";
        let (_, fused) = compile_both(src);
        assert_eq!(
            count(&fused, |op| matches!(op, Op::FusedElemUpdateE { .. })),
            0,
            "{:?}",
            fused.ops
        );
        assert_differential(src);
    }

    /// An interior `Charge` in the register-indexed window is a
    /// statement boundary: the window must not fuse across it (the
    /// charge may fold into the op it precedes, but the 7-op collapse
    /// is blocked).
    #[test]
    fn register_indexed_rmw_charge_boundary_blocks_fusion() {
        let window = |boundary: Option<usize>| {
            let mut ops = vec![
                Op::FusedLoadElemS {
                    charge: 3,
                    dst: 0,
                    arr: 1,
                    idx_slot: 0,
                },
                Op::FusedBinRK {
                    charge: 0,
                    op: BinOp::Add,
                    dst: 0,
                    a: 0,
                    k: 0,
                },
                Op::LoadElem {
                    dst: 0,
                    arr: 0,
                    base: 0,
                    n: 1,
                },
                Op::FusedBinRK {
                    charge: 0,
                    op: BinOp::Add,
                    dst: 0,
                    a: 0,
                    k: 1,
                },
                Op::FusedLoadElemS {
                    charge: 0,
                    dst: 1,
                    arr: 1,
                    idx_slot: 0,
                },
                Op::FusedBinRK {
                    charge: 0,
                    op: BinOp::Add,
                    dst: 1,
                    a: 1,
                    k: 0,
                },
                Op::StoreElem {
                    arr: 0,
                    base: 1,
                    n: 1,
                    src: 0,
                },
            ];
            if let Some(at) = boundary {
                ops.insert(at, Op::Charge(1));
            }
            let mut chunk = Chunk {
                ops,
                consts: vec![lip_ir::Value::Int(1), lip_ir::Value::Real(0.25)],
                nregs: 4,
                scalars: vec![(sym("i"), Ty::Int)],
                arrays: vec![(sym("F"), Ty::Real), (sym("J"), Ty::Int)],
                ..Chunk::default()
            };
            optimize_chunk(&mut chunk);
            chunk
        };
        let clean = window(None);
        assert_eq!(
            count(&clean, |op| matches!(
                op,
                Op::FusedElemUpdateE { charge: 3, .. }
            )),
            1,
            "{:?}",
            clean.ops
        );
        let split = window(Some(3));
        assert_eq!(
            count(&split, |op| matches!(op, Op::FusedElemUpdateE { .. })),
            0,
            "fused across a charge boundary: {:?}",
            split.ops
        );
    }

    #[test]
    fn bin_store_scalar_fuses() {
        let src = "
SUBROUTINE main()
  DIMENSION A(8)
  INTEGER i, t
  i = 2
  t = A(i) * A(i)
END
";
        let (_, fused) = compile_both(src);
        assert_eq!(
            count(&fused, |op| matches!(op, Op::FusedBinStore { .. })),
            1
        );
        assert_differential(src);
    }

    #[test]
    fn do_loop_overhead_fuses() {
        let src = "
SUBROUTINE main()
  INTEGER i, s
  s = 0
  DO i = 1, 10
    s = s + i
  ENDDO
END
";
        let (unfused, fused) = compile_both(src);
        assert_eq!(count(&unfused, |op| matches!(op, Op::LoopTest { .. })), 1);
        assert_eq!(count(&fused, |op| matches!(op, Op::LoopTestSet { .. })), 1);
        assert_eq!(count(&fused, |op| matches!(op, Op::LoopIncrJump { .. })), 1);
        assert_eq!(count(&fused, |op| matches!(op, Op::LoopTest { .. })), 0);
        assert_eq!(count(&fused, |op| matches!(op, Op::LoopIncr { .. })), 0);
        assert_differential(src);
    }

    #[test]
    fn control_flow_differentials_stay_clean() {
        assert_differential(
            "
SUBROUTINE main()
  DIMENSION A(16)
  INTEGER i, k
  k = 1
  DO WHILE (k .LT. 12)
    A(k) = A(k) + 2.0
    k = k + 2
  ENDDO
  DO i = 1, 16
    IF (A(i) .GT. 1.0) THEN
      A(i) = A(i) - 1.0
    ELSE
      A(i) = 0.5
    ENDIF
  ENDDO
END
",
        );
    }

    fn test_chunk(ops: Vec<Op>) -> Chunk {
        Chunk {
            ops,
            consts: vec![lip_ir::Value::Int(7)],
            nregs: 4,
            scalars: vec![(sym("s0"), Ty::Int), (sym("s1"), Ty::Int)],
            arrays: vec![(sym("A"), Ty::Real)],
            ..Chunk::default()
        }
    }

    /// A jump target in the interior of a window must block the
    /// fusion (re-entering mid-sequence needs the op to exist).
    #[test]
    fn branch_target_in_window_blocks_fusion() {
        let ops = vec![
            Op::LoadScalar { dst: 0, slot: 0 },
            Op::LoadScalar { dst: 1, slot: 1 },
            Op::Bin {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::Jump { target: 2 },
        ];
        let mut chunk = test_chunk(ops);
        optimize_chunk(&mut chunk);
        // Neither the 3-op window (interior target at 2) nor the
        // 2-op LoadScalar+Bin window at 1 (same interior target) may
        // fuse; only ops at-or-after the target could, and `Bin +
        // Jump` is no pattern.
        assert!(
            chunk
                .ops
                .iter()
                .all(|op| !matches!(op, Op::FusedBinSS { .. } | Op::FusedBinRS { .. })),
            "fused across a branch target: {:?}",
            chunk.ops
        );
    }

    /// A branch target at the window *head* is fine — the fused op
    /// keeps the address — and every target is remapped to the
    /// shrunken stream.
    #[test]
    fn branch_target_at_window_head_fuses_and_remaps() {
        let ops = vec![
            Op::Jump { target: 1 },
            Op::LoadScalar { dst: 0, slot: 0 },
            Op::LoadScalar { dst: 1, slot: 1 },
            Op::Bin {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::Jump { target: 4 },
        ];
        let mut chunk = test_chunk(ops);
        optimize_chunk(&mut chunk);
        // Window [1..4) has its head at the target 1 and a clear
        // interior, so it fuses whole and keeps address 1; the exit
        // jump's target 4 shrinks to 2.
        assert!(
            matches!(chunk.ops[1], Op::FusedBinSS { .. }),
            "{:?}",
            chunk.ops
        );
        assert!(matches!(chunk.ops[0], Op::Jump { target: 1 }));
        assert!(matches!(chunk.ops[2], Op::Jump { target: 2 }));
        assert_eq!(chunk.ops.len(), 3);
    }

    /// An interior `Charge` is a statement boundary: patterns must not
    /// match across it, and two charges never merge.
    #[test]
    fn charge_boundary_splits_window() {
        let ops = vec![
            Op::LoadScalar { dst: 0, slot: 0 },
            Op::Charge(1),
            Op::Bin {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 0,
            },
        ];
        let mut chunk = test_chunk(ops.clone());
        optimize_chunk(&mut chunk);
        assert_eq!(chunk.ops.len(), 3, "{:?}", chunk.ops);

        let mut chunk = test_chunk(vec![Op::Charge(2), Op::Charge(3), Op::Charge(4)]);
        optimize_chunk(&mut chunk);
        assert_eq!(chunk.ops.len(), 3, "charges merged: {:?}", chunk.ops);
    }

    /// A charge must not fold into an op sitting on a jump target:
    /// re-entering the loop head would charge the fold amount again.
    #[test]
    fn charge_does_not_fold_onto_a_jump_target() {
        let ops = vec![
            Op::Charge(5),
            Op::LoadScalar { dst: 0, slot: 0 },
            Op::LoadScalar { dst: 1, slot: 1 },
            Op::Bin {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
            Op::JumpIfFalse { cond: 0, target: 1 },
        ];
        let mut chunk = test_chunk(ops);
        optimize_chunk(&mut chunk);
        assert!(
            matches!(chunk.ops[0], Op::Charge(5)),
            "charge folded across a target: {:?}",
            chunk.ops
        );
        assert!(matches!(
            chunk.ops[1],
            Op::FusedBinSS { charge: 0, .. } | Op::LoadScalar { .. }
        ));
    }

    /// `charge_amount` saturation (`u32::MAX`) survives folding: the
    /// fused op charges exactly what the `Charge` op did.
    #[test]
    fn saturated_charge_folds_exactly() {
        let ops = vec![
            Op::Charge(u32::MAX),
            Op::LoadScalar { dst: 0, slot: 0 },
            Op::LoadScalar { dst: 1, slot: 1 },
            Op::Bin {
                op: BinOp::Add,
                dst: 0,
                a: 0,
                b: 1,
            },
        ];
        let mut chunk = test_chunk(ops.clone());
        optimize_chunk(&mut chunk);
        assert!(matches!(
            chunk.ops[0],
            Op::FusedBinSS {
                charge: u32::MAX,
                ..
            }
        ));
        // Execute both streams: identical cost (and no budget set, so
        // no trip).
        let run = |ops: Vec<Op>| {
            let chunk = test_chunk(ops);
            let prog = CompiledProgram {
                subs: vec![crate::chunk::CompiledSub {
                    name: sym("main"),
                    chunk,
                    params: vec![],
                    locals: vec![],
                }],
                blocks: vec![],
                entry: Some(0),
            };
            let mut store = Store::new();
            store.set_int(sym("s0"), 1);
            store.set_int(sym("s1"), 2);
            crate::vm::Vm::new(&prog).run(&mut store).expect("runs")
        };
        assert_eq!(run(ops), u64::from(u32::MAX));
        assert_eq!(run(chunk.ops), u64::from(u32::MAX));
    }

    /// The pass is idempotent: a second run changes nothing.
    #[test]
    fn optimize_is_idempotent() {
        let src = "
SUBROUTINE main()
  DIMENSION A(8)
  INTEGER i, s
  s = 0
  DO i = 1, 8
    A(i) = A(i) + 0.5
    s = s + i
  ENDDO
END
";
        let prog = parse_program(src).expect("parses");
        let mut compiled = crate::compile::compile_program(&prog).expect("compiles");
        optimize_program(&mut compiled);
        let once = format!("{:?}", compiled.subs[0].chunk.ops);
        optimize_program(&mut compiled);
        assert_eq!(once, format!("{:?}", compiled.subs[0].chunk.ops));
    }
}
