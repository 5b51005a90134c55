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
//! **One rule table.** Each superinstruction is one row of `RULES`,
//! which says how to *project* the superinstruction's fields out of the
//! window it replaces and how to *expand* it one level back into that
//! window, with the operand temporary the window writes and consumes as
//! the row's *hole* register. A window fuses only when expanding the
//! projected superinstruction gives the window back exactly and the hole
//! is none of the registers the superinstruction names, so every
//! equality guard is derived, not written. The matcher tries, longest
//! window first, only the rows opening with the op it stands on; rows
//! over other rows' superinstructions fuse in a later sweep, so the pass
//! runs to a fixpoint. The typed stream ([`crate::typed`]) runs a
//! superinstruction whose operand types have no typed form as the same
//! expansion applied down to plain ops (`expand_full`).
//!
//! Correctness obligations:
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
//!   fusion only elides writes to the hole, which the window itself
//!   consumes and the stack-disciplined allocator makes dead.
//!
//! The unit tests below check every row on random fields and frames:
//! fusing its expansion gives the op back, and the `Value` stream runs
//! the op and its full expansion alike — which is also what tests the
//! superinstruction arms of [`crate::vm`]. They also pin the windows that
//! must not fuse. The four-way corpus (`tests/proptest_programs.rs`) and
//! the stream goldens (`tests/peephole_golden.rs`,
//! `tests/stream_golden.rs`) cover the compiled programs.
//!
//! Every `lip_runtime` session runs the fused stream: its per-program
//! cache applies [`optimize_program`] once when it compiles a program and
//! [`optimize_block`] once per block it lowers. The compiler's raw stream
//! stays reachable by calling [`crate::compile_program`] without
//! [`optimize_program`], which is how the differential suites and
//! `bench_e2e` (`vm.ops_unfused` against `vm.ops_fused`) compare the
//! two.

use std::sync::{Arc, OnceLock};

use crate::chunk::Op::{
    Bin, Charge, ChargedConst, ChargedLoadScalar, Const, FusedBinRE, FusedBinRK, FusedBinRS,
    FusedBinSS, FusedBinStore, FusedElemUpdateE, FusedElemUpdateK, FusedElemUpdateS,
    FusedLoadElemE, FusedLoadElemS, FusedRedAccS, FusedRedElemK, FusedRedElemS, FusedStoreElemE,
    FusedStoreElemS, Jump, LoadElem, LoadScalar, LoopIncr, LoopIncrJump, LoopTest, LoopTestSet,
    SetVarRaw, StoreElem, StoreScalar,
};
use crate::chunk::{BlockId, Chunk, CompiledProgram, DimCode, Op, Reg};
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
    let mut expansion = Vec::new();
    while rewrite_pass(ops, &mut expansion) {}
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

fn rewrite_pass(ops: &mut Vec<Op>, expansion: &mut Vec<Op>) -> bool {
    let targets = jump_targets(ops);
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    let mut map = vec![0usize; ops.len() + 1];
    let mut i = 0;
    let mut changed = false;
    while i < ops.len() {
        if let Some((fused, len)) = try_fuse(ops, i, &targets, expansion) {
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

/// The fusion at `i`, if any: `(superinstruction, ops consumed)`.
fn try_fuse(
    ops: &[Op],
    i: usize,
    targets: &[bool],
    expansion: &mut Vec<Op>,
) -> Option<(Op, usize)> {
    if let Op::Charge(c) = ops[i] {
        // A leading charge folds into the fused op (which charges
        // first), but only when the op carries no charge yet — two
        // `Charge`s are never merged, so budget-trip points and
        // saturation behavior stay bit-identical.
        if let Some((fused, rule)) = fuse_window(&ops[i + 1..], expansion) {
            if window_clear(targets, i, 1 + rule.len) {
                if let Some(f) = fold_charge(rule, fused, c) {
                    return Some((f, 1 + rule.len));
                }
            }
        }
        if i + 1 < ops.len() && window_clear(targets, i, 2) {
            if let Some((rule, _)) = rule_of(&ops[i + 1]) {
                if let Some(f) = fold_charge(rule, ops[i + 1].clone(), c) {
                    return Some((f, 2));
                }
            }
        }
        // Last resort, the rows opening with the `Charge` itself:
        // statements that open with a bare literal or scalar load still
        // save the `Charge` dispatch.
    }
    let (fused, rule) = fuse_window(&ops[i..], expansion)?;
    window_clear(targets, i, rule.len).then_some((fused, rule.len))
}

/// `op`, the superinstruction of `rule`, with a leading `Charge` of `c`
/// re-homed onto it — when the row folds charges and the op's own
/// charge is still zero.
fn fold_charge(rule: &Rule, mut op: Op, c: u32) -> Option<Op> {
    let charge = op
        .charge_mut()
        .filter(|charge| rule.folds && **charge == 0)?;
    *charge = c;
    Some(op)
}

/// The first row, in table order, that fuses the window at the head of
/// `rest`, and the superinstruction it fuses to. `expansion` is the
/// buffer the projected superinstruction expands into.
fn fuse_window(rest: &[Op], expansion: &mut Vec<Op>) -> Option<(Op, &'static Rule)> {
    rows_opening(Head::of(rest.first()?)?)
        .iter()
        .find_map(|rule| {
            let window = rest.get(..rule.len)?;
            let (op, hole) = (rule.project)(window)?;
            let names = (rule.regs)(&op)?;
            if hole.is_some_and(|h| names.contains(&h)) {
                return None;
            }
            expansion.clear();
            (rule.expand)(&op, hole.unwrap_or(0), expansion);
            (expansion[..] == *window).then_some((op, *rule))
        })
}

/// Appends what `op` runs as in plain ops: its row's window with each
/// op expanded again, down to ops no row produces. A level's hole is
/// the first of `scratch` its superinstruction does not name (two
/// registers serve every row — the unit tests check that).
pub(crate) fn expand_full(op: &Op, scratch: &[Reg], out: &mut Vec<Op>) {
    let Some((rule, names)) = rule_of(op) else {
        out.push(op.clone());
        return;
    };
    let hole = scratch
        .iter()
        .find(|r| !names.contains(r))
        .expect("a scratch register the superinstruction does not name");
    let mut window = Vec::with_capacity(rule.len + 1);
    (rule.expand)(op, *hole, &mut window);
    for w in &window {
        expand_full(w, scratch, out);
    }
}

/// The row of superinstruction `op` and the registers `op` names.
fn rule_of(op: &Op) -> Option<(&'static Rule, [Reg; 3])> {
    if !op.is_fused() {
        return None;
    }
    RULES.iter().find_map(|rule| Some((rule, (rule.regs)(op)?)))
}

/// The rows whose window opens with `head`, in table order.
fn rows_opening(head: Head) -> &'static [&'static Rule] {
    static BY_HEAD: OnceLock<Vec<Vec<&'static Rule>>> = OnceLock::new();
    &BY_HEAD.get_or_init(|| {
        let mut by_head = vec![Vec::new(); Head::COUNT];
        for rule in &RULES {
            by_head[rule.head as usize].push(rule);
        }
        by_head
    })[head as usize]
}

/// The ops a window can open with.
#[derive(Clone, Copy)]
enum Head {
    Charge,
    Const,
    LoadScalar,
    Bin,
    LoopTest,
    LoopIncr,
    LoadElemS,
    ChargedLoadScalar,
    LoadElemE,
}

impl Head {
    const COUNT: usize = 9;

    fn of(op: &Op) -> Option<Head> {
        Some(match op {
            Op::Charge(_) => Head::Charge,
            Op::Const { .. } => Head::Const,
            Op::LoadScalar { .. } => Head::LoadScalar,
            Op::Bin { .. } => Head::Bin,
            Op::LoopTest { .. } => Head::LoopTest,
            Op::LoopIncr { .. } => Head::LoopIncr,
            Op::FusedLoadElemS { .. } => Head::LoadElemS,
            Op::ChargedLoadScalar { .. } => Head::ChargedLoadScalar,
            Op::FusedLoadElemE { .. } => Head::LoadElemE,
            _ => return None,
        })
    }
}

/// One superinstruction: how to read it off the window it replaces and
/// how to write it back as that window.
struct Rule {
    /// The op the window opens with.
    head: Head,
    /// The window's length (a leading `Charge` folded onto it not
    /// counted).
    len: usize,
    /// Whether a leading [`Op::Charge`] may be re-homed onto the
    /// superinstruction while its own charge is zero. `FusedRedAccS` is
    /// always built charge-carrying (its head is a `ChargedLoadScalar`),
    /// and setting the flag on the remaining charge-carrying rows would
    /// change intermediate streams.
    folds: bool,
    /// The registers the superinstruction names (repeated to fill the
    /// array), if the op is this row's superinstruction: what the hole
    /// may not be.
    regs: fn(&Op) -> Option<[Reg; 3]>,
    /// The superinstruction's fields, each read off one place of a
    /// window of the right op kinds, and the hole, if the window has
    /// one. `expand` checks every other place; a condition the expansion
    /// does not imply is a guard here.
    project: fn(&[Op]) -> Option<Projection>,
    /// Appends the window the superinstruction replaces, one level down,
    /// with the hole on the given register — led by a `Charge` when the
    /// window's first op cannot carry the charge.
    expand: fn(&Op, Reg, &mut Vec<Op>),
}

/// A superinstruction read off a window, and the window's hole.
type Projection = (Op, Option<Reg>);

/// A leading `Charge` for a charge the window's first op cannot carry.
fn lead(charge: u32, out: &mut Vec<Op>) {
    if charge > 0 {
        out.push(Charge(charge));
    }
}

/// The rewrite rules, longest window first within each head; the
/// last two fire only on a `Charge` no other row could fold.
#[rustfmt::skip]
static RULES: [Rule; 19] = [
    // `F(J(i) ⊕ k1) op= k`, the whole register-indexed read-modify-write
    // statement (second level: pass one fused the index loads and the
    // constant bin-ops). Nothing in the window writes before the store,
    // so one subscript computation serves both; the VM arm still replays
    // the second index-array read.
    Rule {
        head: Head::LoadElemS, len: 7, folds: true,
        regs: |s| match *s { FusedElemUpdateE { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [FusedLoadElemS { charge, dst, arr: idx_arr, idx_slot }, FusedBinRK { op: idx_op, k: idx_k, .. },
             LoadElem { arr, .. }, FusedBinRK { op, k, .. }, FusedLoadElemS { dst: h, .. }, _, _] =>
                Some((FusedElemUpdateE { charge, op, dst, arr, idx_arr, idx_slot, idx_op, idx_k, k }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedElemUpdateE { charge, op, dst, arr, idx_arr, idx_slot, idx_op, idx_k, k } = *s {
            out.extend([
                FusedLoadElemS { charge, dst, arr: idx_arr, idx_slot },
                FusedBinRK { charge: 0, op: idx_op, dst, a: dst, k: idx_k },
                LoadElem { dst, arr, base: dst, n: 1 },
                FusedBinRK { charge: 0, op, dst, a: dst, k },
                FusedLoadElemS { charge: 0, dst: h, arr: idx_arr, idx_slot },
                FusedBinRK { charge: 0, op: idx_op, dst: h, a: h, k: idx_k },
                StoreElem { arr, base: h, n: 1, src: dst },
            ]);
        },
    },
    // `A(i) = A(i) op k` / `A(i) = A(i) op s`, the whole rank-1
    // read-modify-write statement: the subscript slot is read twice with
    // no write between, so one linearization serves both.
    Rule {
        head: Head::LoadScalar, len: 6, folds: true,
        regs: |s| match *s { FusedElemUpdateK { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [LoadScalar { dst, slot: idx_slot }, LoadElem { arr, .. }, Const { dst: h, k }, Bin { op, .. }, _, _] =>
                Some((FusedElemUpdateK { charge: 0, op, dst, arr, idx_slot, k }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedElemUpdateK { charge, op, dst, arr, idx_slot, k } = *s {
            lead(charge, out);
            out.extend([
                LoadScalar { dst, slot: idx_slot },
                LoadElem { dst, arr, base: dst, n: 1 },
                Const { dst: h, k },
                Bin { op, dst, a: dst, b: h },
                LoadScalar { dst: h, slot: idx_slot },
                StoreElem { arr, base: h, n: 1, src: dst },
            ]);
        },
    },
    Rule {
        head: Head::LoadScalar, len: 6, folds: true,
        regs: |s| match *s { FusedElemUpdateS { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [LoadScalar { dst, slot: idx_slot }, LoadElem { arr, .. }, LoadScalar { dst: h, slot: b_slot }, Bin { op, .. }, _, _] =>
                Some((FusedElemUpdateS { charge: 0, op, dst, arr, idx_slot, b_slot }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedElemUpdateS { charge, op, dst, arr, idx_slot, b_slot } = *s {
            lead(charge, out);
            out.extend([
                LoadScalar { dst, slot: idx_slot },
                LoadElem { dst, arr, base: dst, n: 1 },
                LoadScalar { dst: h, slot: b_slot },
                Bin { op, dst, a: dst, b: h },
                LoadScalar { dst: h, slot: idx_slot },
                StoreElem { arr, base: h, n: 1, src: dst },
            ]);
        },
    },
    // `s = s op A(i)`, the whole scalar-accumulating reduction statement
    // (third level: `ChargedLoadScalar + FusedLoadElemS + FusedBinStore`).
    Rule {
        head: Head::ChargedLoadScalar, len: 3, folds: false,
        regs: |s| match *s { FusedRedAccS { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [ChargedLoadScalar { charge, dst, slot: acc_slot }, FusedLoadElemS { dst: h, arr, idx_slot, .. }, FusedBinStore { op, .. }] =>
                Some((FusedRedAccS { charge, op, dst, acc_slot, arr, idx_slot }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedRedAccS { charge, op, dst, acc_slot, arr, idx_slot } = *s {
            out.extend([
                ChargedLoadScalar { charge, dst, slot: acc_slot },
                FusedLoadElemS { charge: 0, dst: h, arr, idx_slot },
                FusedBinStore { charge: 0, op, slot: acc_slot, dst, a: dst, b: h },
            ]);
        },
    },
    // `A(B(i)) = A(B(i)) op k` / `op s`, the whole indirect reduction
    // statement (third level: `FusedLoadElemE + FusedBinR{K,S} +
    // FusedStoreElemE`). Nothing in the window writes before the store,
    // so one linearization serves both; the VM arm still replays the
    // store's index-array read.
    Rule {
        head: Head::LoadElemE, len: 3, folds: true,
        regs: |s| match *s { FusedRedElemK { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [FusedLoadElemE { charge, dst, idx_arr, idx_slot, arr }, FusedBinRK { op, k, .. }, _] =>
                Some((FusedRedElemK { charge, op, dst, arr, idx_arr, idx_slot, k }, None)),
            _ => None,
        },
        expand: |s, _, out| if let FusedRedElemK { charge, op, dst, arr, idx_arr, idx_slot, k } = *s {
            out.extend([
                FusedLoadElemE { charge, dst, idx_arr, idx_slot, arr },
                FusedBinRK { charge: 0, op, dst, a: dst, k },
                FusedStoreElemE { charge: 0, idx_arr, idx_slot, arr, src: dst },
            ]);
        },
    },
    Rule {
        head: Head::LoadElemE, len: 3, folds: true,
        regs: |s| match *s { FusedRedElemS { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [FusedLoadElemE { charge, dst, idx_arr, idx_slot, arr }, FusedBinRS { op, b_slot, .. }, _] =>
                Some((FusedRedElemS { charge, op, dst, arr, idx_arr, idx_slot, b_slot }, None)),
            _ => None,
        },
        expand: |s, _, out| if let FusedRedElemS { charge, op, dst, arr, idx_arr, idx_slot, b_slot } = *s {
            out.extend([
                FusedLoadElemE { charge, dst, idx_arr, idx_slot, arr },
                FusedBinRS { charge: 0, op, dst, a: dst, b_slot },
                FusedStoreElemE { charge: 0, idx_arr, idx_slot, arr, src: dst },
            ]);
        },
    },
    // Two scalar loads feeding a binary op.
    Rule {
        head: Head::LoadScalar, len: 3, folds: true,
        regs: |s| match *s { FusedBinSS { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [LoadScalar { dst, slot: a_slot }, LoadScalar { dst: h, slot: b_slot }, Bin { op, .. }] =>
                Some((FusedBinSS { charge: 0, op, dst, a_slot, b_slot }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedBinSS { charge, op, dst, a_slot, b_slot } = *s {
            lead(charge, out);
            out.extend([LoadScalar { dst, slot: a_slot }, LoadScalar { dst: h, slot: b_slot }, Bin { op, dst, a: dst, b: h }]);
        },
    },
    // Rank-1 indexed load: the subscript register is the element
    // destination, so no write is even elided.
    Rule {
        head: Head::LoadScalar, len: 2, folds: true,
        regs: |s| match *s { FusedLoadElemS { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [LoadScalar { dst, slot: idx_slot }, LoadElem { arr, .. }] => Some((FusedLoadElemS { charge: 0, dst, arr, idx_slot }, None)),
            _ => None,
        },
        expand: |s, _, out| if let FusedLoadElemS { charge, dst, arr, idx_slot } = *s {
            lead(charge, out);
            out.extend([LoadScalar { dst, slot: idx_slot }, LoadElem { dst, arr, base: dst, n: 1 }]);
        },
    },
    // Rank-1 indexed store.
    Rule {
        head: Head::LoadScalar, len: 2, folds: true,
        regs: |s| match *s { FusedStoreElemS { src, .. } => Some([src; 3]), _ => None },
        project: |w| match *w {
            [LoadScalar { dst: h, slot: idx_slot }, StoreElem { arr, src, .. }] => Some((FusedStoreElemS { charge: 0, arr, idx_slot, src }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedStoreElemS { charge, arr, idx_slot, src } = *s {
            lead(charge, out);
            out.extend([LoadScalar { dst: h, slot: idx_slot }, StoreElem { arr, base: h, n: 1, src }]);
        },
    },
    // Scalar right operand, into the left operand's register.
    Rule {
        head: Head::LoadScalar, len: 2, folds: true,
        regs: |s| match *s { FusedBinRS { dst, a, .. } => Some([dst, a, a]), _ => None },
        project: |w| match *w {
            [LoadScalar { dst: h, slot: b_slot }, Bin { op, dst, a, .. }] if dst == a => Some((FusedBinRS { charge: 0, op, dst, a, b_slot }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedBinRS { charge, op, dst, a, b_slot } = *s {
            lead(charge, out);
            out.extend([LoadScalar { dst: h, slot: b_slot }, Bin { op, dst, a, b: h }]);
        },
    },
    // Constant right operand, into the left operand's register.
    Rule {
        head: Head::Const, len: 2, folds: true,
        regs: |s| match *s { FusedBinRK { dst, a, .. } => Some([dst, a, a]), _ => None },
        project: |w| match *w {
            [Const { dst: h, k }, Bin { op, dst, a, .. }] if dst == a => Some((FusedBinRK { charge: 0, op, dst, a, k }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedBinRK { charge, op, dst, a, k } = *s {
            lead(charge, out);
            out.extend([Const { dst: h, k }, Bin { op, dst, a, b: h }]);
        },
    },
    // Indirect load through an index array, `F(J(i))` (second level).
    Rule {
        head: Head::LoadElemS, len: 2, folds: false,
        regs: |s| match *s { FusedLoadElemE { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [FusedLoadElemS { charge, dst, arr: idx_arr, idx_slot }, LoadElem { arr, .. }] =>
                Some((FusedLoadElemE { charge, dst, idx_arr, idx_slot, arr }, None)),
            _ => None,
        },
        expand: |s, _, out| if let FusedLoadElemE { charge, dst, idx_arr, idx_slot, arr } = *s {
            out.extend([FusedLoadElemS { charge, dst, arr: idx_arr, idx_slot }, LoadElem { dst, arr, base: dst, n: 1 }]);
        },
    },
    // Indirect store through an index array, `F(J(i)) = v` (second level).
    Rule {
        head: Head::LoadElemS, len: 2, folds: false,
        regs: |s| match *s { FusedStoreElemE { src, .. } => Some([src; 3]), _ => None },
        project: |w| match *w {
            [FusedLoadElemS { charge, dst: h, arr: idx_arr, idx_slot }, StoreElem { arr, src, .. }] =>
                Some((FusedStoreElemE { charge, idx_arr, idx_slot, arr, src }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedStoreElemE { charge, idx_arr, idx_slot, arr, src } = *s {
            out.extend([FusedLoadElemS { charge, dst: h, arr: idx_arr, idx_slot }, StoreElem { arr, base: h, n: 1, src }]);
        },
    },
    // Element right operand, into the left operand's register (second
    // level: inherits the element load's folded charge).
    Rule {
        head: Head::LoadElemS, len: 2, folds: true,
        regs: |s| match *s { FusedBinRE { dst, a, .. } => Some([dst, a, a]), _ => None },
        project: |w| match *w {
            [FusedLoadElemS { charge, dst: h, arr, idx_slot }, Bin { op, dst, a, .. }] if dst == a =>
                Some((FusedBinRE { charge, op, dst, a, arr, idx_slot }, Some(h))),
            _ => None,
        },
        expand: |s, h, out| if let FusedBinRE { charge, op, dst, a, arr, idx_slot } = *s {
            out.extend([FusedLoadElemS { charge, dst: h, arr, idx_slot }, Bin { op, dst, a, b: h }]);
        },
    },
    // Binary op straight into a scalar slot.
    Rule {
        head: Head::Bin, len: 2, folds: true,
        regs: |s| match *s { FusedBinStore { dst, a, b, .. } => Some([dst, a, b]), _ => None },
        project: |w| match *w {
            [Bin { op, dst, a, b }, StoreScalar { slot, .. }] => Some((FusedBinStore { charge: 0, op, slot, dst, a, b }, None)),
            _ => None,
        },
        expand: |s, _, out| if let FusedBinStore { charge, op, slot, dst, a, b } = *s {
            lead(charge, out);
            out.extend([Bin { op, dst, a, b }, StoreScalar { slot, src: dst }]);
        },
    },
    // Per-iteration DO overhead: head test + variable publish...
    Rule {
        head: Head::LoopTest, len: 2, folds: false,
        regs: |s| match *s { LoopTestSet { i, hi, step, .. } => Some([i, hi, step]), _ => None },
        project: |w| match *w {
            [LoopTest { i, hi, step, exit }, SetVarRaw { slot: var_slot, .. }] => Some((LoopTestSet { i, hi, step, exit, var_slot }, None)),
            _ => None,
        },
        expand: |s, _, out| if let LoopTestSet { i, hi, step, exit, var_slot } = *s {
            out.extend([LoopTest { i, hi, step, exit }, SetVarRaw { slot: var_slot, src: i }]);
        },
    },
    // ...and tail increment + back-jump.
    Rule {
        head: Head::LoopIncr, len: 2, folds: false,
        regs: |s| match *s { LoopIncrJump { i, step, .. } => Some([i, step, step]), _ => None },
        project: |w| match *w {
            [LoopIncr { i, step }, Jump { target }] => Some((LoopIncrJump { i, step, target }, None)),
            _ => None,
        },
        expand: |s, _, out| if let LoopIncrJump { i, step, target } = *s {
            out.extend([LoopIncr { i, step }, Jump { target }]);
        },
    },
    // A statement that opens with a bare literal or scalar load.
    Rule {
        head: Head::Charge, len: 2, folds: false,
        regs: |s| match *s { ChargedConst { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [Charge(charge), Const { dst, k }] => Some((ChargedConst { charge, dst, k }, None)),
            _ => None,
        },
        expand: |s, _, out| if let ChargedConst { charge, dst, k } = *s {
            out.extend([Charge(charge), Const { dst, k }]);
        },
    },
    Rule {
        head: Head::Charge, len: 2, folds: false,
        regs: |s| match *s { ChargedLoadScalar { dst, .. } => Some([dst; 3]), _ => None },
        project: |w| match *w {
            [Charge(charge), LoadScalar { dst, slot }] => Some((ChargedLoadScalar { charge, dst, slot }, None)),
            _ => None,
        },
        expand: |s, _, out| if let ChargedLoadScalar { charge, dst, slot } = *s {
            out.extend([Charge(charge), LoadScalar { dst, slot }]);
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Reg;
    use crate::vm::{Frame, Slot};
    use lip_ir::{parse_program, AccessTracer, BinOp, Machine, RunError, Store, Ty, Value};
    use lip_symbolic::{sym, Sym};

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

    /// Records every traced access, in order.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<(bool, Sym, usize)>>);

    impl AccessTracer for Recorder {
        fn read(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
            self.0.lock().unwrap().push((false, arr, idx));
        }
        fn write(&self, arr: Sym, _: &lip_ir::ArrayBuf, idx: usize) {
            self.0.lock().unwrap().push((true, arr, idx));
        }
    }

    fn bits(v: Value) -> (bool, u64) {
        match v {
            Value::Int(i) => (false, i as u64),
            Value::Real(r) => (true, r.to_bits()),
        }
    }

    /// What one `Value`-stream run leaves behind: its result, work units
    /// and traced accesses, every scalar slot and array cell, and the
    /// registers outside `scratch` — after a completed run only: an
    /// error abandons the register file.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: Result<(), RunError>,
        units: u64,
        trace: Vec<(bool, Sym, usize)>,
        scalars: Vec<Slot>,
        cells: Vec<Vec<(bool, u64)>>,
        regs: Option<Vec<(bool, u64)>>,
    }

    /// Runs `chunk`'s `Value` stream once as a block on `frame`, under a
    /// step budget (0: none).
    fn observe(chunk: Chunk, mut frame: Frame, budget: u64, scratch: &[Reg]) -> Observed {
        let prog = CompiledProgram {
            subs: vec![],
            blocks: vec![crate::chunk::CompiledBlock {
                chunk,
                exprs: vec![],
            }],
            entry: None,
        };
        let rec = Recorder::default();
        let mut state = lip_ir::ExecState::with_budget(budget);
        let result =
            crate::vm::Vm::new(&prog).run_block(BlockId(0), &mut frame, &mut state, Some(&rec));
        let regs = result.is_ok().then(|| {
            (0..frame.regs.len())
                .filter(|r| !scratch.contains(&(*r as Reg)))
                .map(|r| bits(frame.regs[r]))
                .collect()
        });
        let trace = rec.0.into_inner().unwrap();
        Observed {
            result,
            units: state.cost,
            trace,
            scalars: frame.scalars.clone(),
            cells: frame
                .arrays
                .iter()
                .map(|a| {
                    a.as_ref().map_or(vec![], |v| {
                        (0..v.buf.len()).map(|k| bits(v.buf.get(k))).collect()
                    })
                })
                .collect(),
            regs,
        }
    }

    /// `r = i; r = A[r]; o = k; r = r op o; r = i; A[r] = r` stores the
    /// *index* into `A(i)` and leaves `r = i`: the store's subscript
    /// temporary is the value register, so the window is no
    /// read-modify-write and must not become `FusedElemUpdateK`.
    #[test]
    fn rmw_window_whose_store_subscript_reuses_the_value_register_does_not_fuse() {
        let chunk = Chunk {
            ops: vec![
                Op::LoadScalar { dst: 0, slot: 0 },
                Op::LoadElem {
                    dst: 0,
                    arr: 0,
                    base: 0,
                    n: 1,
                },
                Op::Const { dst: 1, k: 0 },
                Op::Bin {
                    op: BinOp::Add,
                    dst: 0,
                    a: 0,
                    b: 1,
                },
                Op::LoadScalar { dst: 0, slot: 0 },
                Op::StoreElem {
                    arr: 0,
                    base: 0,
                    n: 1,
                    src: 0,
                },
            ],
            consts: vec![Value::Real(0.5)],
            nregs: 2,
            scalars: vec![(sym("i"), Ty::Int)],
            arrays: vec![(sym("A"), Ty::Real)],
            ..Chunk::default()
        };
        let mut fused = chunk.clone();
        optimize_chunk(&mut fused);
        let frame = || {
            let buf = lip_ir::ArrayBuf::new_real(3);
            for k in 0..3 {
                buf.set(k, Value::Real(k as f64 + 1.0));
            }
            Frame {
                regs: vec![Value::Int(0); 2],
                tregs: None,
                scalars: vec![Slot::int(2)],
                arrays: vec![Some(lip_ir::ArrayView {
                    buf,
                    offset: 0,
                    extents: vec![],
                })],
                ..Frame::default()
            }
        };
        // `r1`, the operand temporary, is dead after the window.
        assert_eq!(
            observe(fused.clone(), frame(), 0, &[1]),
            observe(chunk, frame(), 0, &[1]),
            "fused stream {:?} diverged from the window",
            fused.ops
        );
        assert!(
            !fused
                .ops
                .iter()
                .any(|op| matches!(op, Op::FusedElemUpdateK { .. })),
            "{:?}",
            fused.ops
        );
    }

    /// SplitMix64: the random fields and frames of the per-row check.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }

        fn value(&mut self) -> Value {
            if self.below(3) == 0 {
                Value::Real(self.pick(&[0.5, 1.0, 2.0, -1.5, 3.75, f64::NAN]))
            } else {
                Value::Int(self.pick(&[-1, 0, 1, 2, 3, 4, 5, i64::MAX, i64::MIN]))
            }
        }
    }

    /// The registers the random superinstructions name; the two after
    /// them are the expansions' holes.
    const NAMED: Reg = 4;
    const SCRATCH: [Reg; 2] = [NAMED, NAMED + 1];

    /// One random instance of every superinstruction, in table order.
    /// `FusedBinR*` keep `dst == a`, their rows' guard; jump targets are
    /// 0, the window's own head.
    fn random_superinstructions(g: &mut Gen) -> Vec<Op> {
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Pow,
            BinOp::Lt,
            BinOp::Eq,
            BinOp::And,
        ];
        let [mut g1, mut g2, mut g3, mut g4, mut g5, mut g6] = [(); 6].map(|()| Gen(g.next()));
        let mut op = || g1.pick(&ops);
        let mut r = || g2.below(u64::from(NAMED)) as Reg;
        let mut slot = || g3.below(4) as u16;
        let mut arr = || g4.below(3) as u16;
        let mut k = || g5.below(4) as u16;
        let mut charge = || g6.pick(&[0, 0, 1, 2, 7]);
        let (dst, a) = (r(), r());
        vec![
            Op::FusedElemUpdateE {
                charge: charge(),
                op: op(),
                dst,
                arr: arr(),
                idx_arr: arr(),
                idx_slot: slot(),
                idx_op: op(),
                idx_k: k(),
                k: k(),
            },
            Op::FusedElemUpdateK {
                charge: charge(),
                op: op(),
                dst,
                arr: arr(),
                idx_slot: slot(),
                k: k(),
            },
            Op::FusedElemUpdateS {
                charge: charge(),
                op: op(),
                dst,
                arr: arr(),
                idx_slot: slot(),
                b_slot: slot(),
            },
            Op::FusedRedAccS {
                charge: charge(),
                op: op(),
                dst,
                acc_slot: slot(),
                arr: arr(),
                idx_slot: slot(),
            },
            Op::FusedRedElemK {
                charge: charge(),
                op: op(),
                dst,
                arr: arr(),
                idx_arr: arr(),
                idx_slot: slot(),
                k: k(),
            },
            Op::FusedRedElemS {
                charge: charge(),
                op: op(),
                dst,
                arr: arr(),
                idx_arr: arr(),
                idx_slot: slot(),
                b_slot: slot(),
            },
            Op::FusedBinSS {
                charge: charge(),
                op: op(),
                dst,
                a_slot: slot(),
                b_slot: slot(),
            },
            Op::FusedLoadElemS {
                charge: charge(),
                dst,
                arr: arr(),
                idx_slot: slot(),
            },
            Op::FusedStoreElemS {
                charge: charge(),
                arr: arr(),
                idx_slot: slot(),
                src: a,
            },
            Op::FusedBinRS {
                charge: charge(),
                op: op(),
                dst,
                a: dst,
                b_slot: slot(),
            },
            Op::FusedBinRK {
                charge: charge(),
                op: op(),
                dst,
                a: dst,
                k: k(),
            },
            Op::FusedLoadElemE {
                charge: charge(),
                dst,
                idx_arr: arr(),
                idx_slot: slot(),
                arr: arr(),
            },
            Op::FusedStoreElemE {
                charge: charge(),
                idx_arr: arr(),
                idx_slot: slot(),
                arr: arr(),
                src: a,
            },
            Op::FusedBinRE {
                charge: charge(),
                op: op(),
                dst,
                a: dst,
                arr: arr(),
                idx_slot: slot(),
            },
            Op::FusedBinStore {
                charge: charge(),
                op: op(),
                slot: slot(),
                dst,
                a,
                b: r(),
            },
            Op::LoopTestSet {
                i: dst,
                hi: a,
                step: r(),
                exit: 0,
                var_slot: slot(),
            },
            Op::LoopIncrJump {
                i: dst,
                step: a,
                target: 0,
            },
            Op::ChargedConst {
                charge: charge(),
                dst,
                k: k(),
            },
            Op::ChargedLoadScalar {
                charge: charge(),
                dst,
                slot: slot(),
            },
        ]
    }

    /// A chunk running `ops` over random tables: four scalar slots and
    /// three arrays of random declared types, four random constants.
    fn random_chunk(g: &mut Gen, ops: Vec<Op>) -> Chunk {
        let mut ty = || if g.below(2) == 0 { Ty::Int } else { Ty::Real };
        let scalars = (0..4).map(|s| (sym(&format!("s{s}")), ty())).collect();
        let arrays = (0..3).map(|a| (sym(&format!("A{a}")), ty())).collect();
        Chunk {
            ops,
            consts: (0..4).map(|_| g.value()).collect(),
            nregs: usize::from(NAMED) + SCRATCH.len(),
            scalars,
            arrays,
            ..Chunk::default()
        }
    }

    /// A random frame for [`random_chunk`]'s tables: slots unbound or
    /// bound to small values, arrays unbound or short `Int` / `Real`
    /// buffers of small subscripts (the third sometimes aliasing the
    /// first), registers random. Built afresh for every run.
    fn random_frame(seed: u64) -> Frame {
        let mut g = Gen(seed);
        let scalars = (0..4)
            .map(|_| {
                if g.below(8) == 0 {
                    Slot::default()
                } else {
                    Slot::of(g.value())
                }
            })
            .collect();
        let mut arrays: Vec<Option<lip_ir::ArrayView>> = (0..3)
            .map(|_| {
                (g.below(10) != 0).then(|| {
                    let len = g.below(6) as usize;
                    let buf = if g.below(2) == 0 {
                        lip_ir::ArrayBuf::new_int(len)
                    } else {
                        lip_ir::ArrayBuf::new_real(len)
                    };
                    for k in 0..len {
                        buf.set(k, g.value());
                    }
                    lip_ir::ArrayView {
                        buf,
                        offset: g.below(2) as usize,
                        extents: vec![],
                    }
                })
            })
            .collect();
        if g.below(6) == 0 {
            arrays[2] = arrays[0].clone();
        }
        Frame {
            regs: (0..NAMED + 2).map(|_| g.value()).collect(),
            tregs: None,
            scalars,
            arrays,
            ..Frame::default()
        }
    }

    /// Points every jump at the end of `ops`.
    fn jump_to_end(mut ops: Vec<Op>) -> Vec<Op> {
        let end = ops.len() as u32;
        for op in &mut ops {
            if let Op::LoopTest { exit: t, .. }
            | Op::LoopTestSet { exit: t, .. }
            | Op::Jump { target: t }
            | Op::LoopIncrJump { target: t, .. } = op
            {
                *t = end;
            }
        }
        ops
    }

    /// Every row, on random fields and frames: fusing the row's one-level
    /// expansion gives the superinstruction back; its full expansion is
    /// plain ops on two scratch registers; and the `Value` stream leaves
    /// the same slots, array cells, registers (holes aside), traced
    /// accesses, work units and error running the superinstruction — its
    /// hand-written arm in `crate::vm` — as running that expansion.
    #[test]
    fn every_row_round_trips_and_runs_as_its_expansion() {
        let mut g = Gen(7);
        let mut completed = [0u32; RULES.len()];
        for case in 0..1000 {
            let sups = random_superinstructions(&mut g);
            assert_eq!(sups.len(), RULES.len());
            for (row, sup) in sups.into_iter().enumerate() {
                let (rule, _) = rule_of(&sup).expect("a superinstruction");
                assert!(std::ptr::eq(rule, &RULES[row]), "{sup:?}: row {row}");

                let mut window = Vec::new();
                (rule.expand)(&sup, NAMED, &mut window);
                optimize_ops(&mut window);
                assert_eq!(
                    window,
                    std::slice::from_ref(&sup),
                    "case {case}: fuse(expand(op)) != op"
                );

                let mut plain = Vec::new();
                expand_full(&sup, &SCRATCH, &mut plain);
                assert!(
                    plain.iter().all(|op| !op.is_fused()),
                    "{sup:?} expands to {plain:?}"
                );
                let fused = random_chunk(&mut g, jump_to_end(vec![sup.clone()]));
                let unfused = Chunk {
                    ops: jump_to_end(plain),
                    ..fused.clone()
                };
                let (frame, budget) = (g.next(), g.pick(&[0, 0, 0, 1, 2, 3, 5, 8]));
                let ran = observe(fused, random_frame(frame), budget, &SCRATCH);
                assert_eq!(
                    ran,
                    observe(unfused.clone(), random_frame(frame), budget, &SCRATCH),
                    "case {case}: {sup:?} diverged from {:?}",
                    unfused.ops
                );
                completed[row] += u32::from(ran.result.is_ok());
            }
        }
        // Not only errors: every row also ran to completion.
        assert!(completed.iter().all(|&n| n >= 50), "{completed:?}");
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
