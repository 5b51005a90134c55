//! The register bytecode: instruction set, chunks and compiled units.
//!
//! A [`Chunk`] is a straight vector of [`Op`]s over an unbounded
//! register file, a constant pool, and two symbol tables resolved at
//! compile time: scalar *slots* (replacing the interpreter's per-access
//! `HashMap<Sym, Value>` lookups) and array *slots* (views resolved once
//! per frame). Work units are accounted by explicit [`Op::Charge`]
//! instructions whose amounts are computed statically from the AST, so a
//! successful run accumulates exactly the same cost the tree-walk
//! interpreter would.

use std::sync::Arc;

use lip_ir::{BinOp, Intrinsic, RunError, Ty, UnOp, Value};
use lip_symbolic::Sym;

use crate::typed::Typed;

/// A register index.
pub type Reg = u16;

/// One bytecode instruction.
///
/// Multi-value operands (array subscripts, intrinsic arguments) live in
/// consecutive registers starting at `base` — the stack-disciplined
/// register allocator guarantees adjacency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Add statically-known work units to the execution state.
    Charge(u32),
    /// `regs[dst] = consts[k]`.
    Const { dst: Reg, k: u16 },
    /// `regs[dst] = scalars[slot]` (error when unbound).
    LoadScalar { dst: Reg, slot: u16 },
    /// `scalars[slot] = regs[src]` coerced to the slot's declared type
    /// (scalar assignment semantics).
    StoreScalar { slot: u16, src: Reg },
    /// `scalars[slot] = regs[src]` verbatim (loop-variable update and
    /// READ semantics: no type coercion).
    SetVarRaw { slot: u16, src: Reg },
    /// `regs[dst] = arrays[arr][regs[base..base+n]]` (traced read).
    LoadElem {
        dst: Reg,
        arr: u16,
        base: Reg,
        n: u8,
    },
    /// `arrays[arr][regs[base..base+n]] = regs[src]` (traced write).
    StoreElem {
        arr: u16,
        base: Reg,
        n: u8,
        src: Reg,
    },
    /// `regs[dst] = op regs[src]`.
    Un { op: UnOp, dst: Reg, src: Reg },
    /// `regs[dst] = regs[a] op regs[b]`.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `regs[dst] = intr(regs[base..base+n])`.
    Intrin {
        intr: Intrinsic,
        dst: Reg,
        base: Reg,
        n: u8,
    },
    /// Unconditional jump to op index `target`.
    Jump { target: u32 },
    /// Jump to `target` when `regs[cond]` is falsy.
    JumpIfFalse { cond: Reg, target: u32 },
    /// Coerce the DO-loop control registers to integers; error
    /// (`BadIndex` on the loop variable) when the step is zero.
    LoopInit {
        i: Reg,
        hi: Reg,
        step: Reg,
        var_slot: u16,
    },
    /// Jump to `exit` unless `(step>0 && i<=hi) || (step<0 && i>=hi)`.
    LoopTest {
        i: Reg,
        hi: Reg,
        step: Reg,
        exit: u32,
    },
    /// `regs[i] += regs[step]` (integer).
    LoopIncr { i: Reg, step: Reg },
    /// Invoke `calls[site]` (argument binding, reshaping, callee locals
    /// and body run inside the VM's call handler).
    Call { site: u16 },
    /// Bind READ inputs to the scalar slots of `reads[site]`.
    Read { site: u16 },
    /// Raise `fails[site]` (compile-time-known runtime errors: unknown
    /// callee, arity mismatch — kept as late failures for interpreter
    /// parity).
    Fail { site: u16 },

    // ---- Superinstructions ------------------------------------------
    //
    // Emitted only by [`crate::peephole`], never by the compiler: each
    // one replaces a dominant dispatch sequence with a single op while
    // preserving the unfused stream's observable semantics exactly —
    // the same work-unit charges in the same order (`charge` is a
    // folded leading [`Op::Charge`], applied first), the same traced
    // array accesses, the same errors at the same points, and the same
    // writes to every register another instruction can observe
    // (eliminated writes are only to dead operand temporaries, which
    // the stack-disciplined allocator guarantees nothing reads).
    /// Fused `Charge? + LoadScalar + LoadScalar + Bin`:
    /// `regs[dst] = scalars[a_slot] op scalars[b_slot]`.
    FusedBinSS {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The binary operator.
        op: BinOp,
        /// Result register.
        dst: Reg,
        /// Left operand scalar slot.
        a_slot: u16,
        /// Right operand scalar slot.
        b_slot: u16,
    },
    /// Fused `Charge? + LoadScalar + Bin` (scalar right operand):
    /// `regs[dst] = regs[a] op scalars[b_slot]`.
    FusedBinRS {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The binary operator.
        op: BinOp,
        /// Result register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand scalar slot.
        b_slot: u16,
    },
    /// Fused `Charge? + Const + Bin` (constant right operand):
    /// `regs[dst] = regs[a] op consts[k]`.
    FusedBinRK {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The binary operator.
        op: BinOp,
        /// Result register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand constant-pool index.
        k: u16,
    },
    /// Fused `Charge? + (LoadScalar+LoadElem) + Bin` (rank-1 element
    /// right operand): `regs[dst] = regs[a] op arr[scalars[idx_slot]]`
    /// (traced read).
    FusedBinRE {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The binary operator.
        op: BinOp,
        /// Result register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Array slot of the right operand.
        arr: u16,
        /// Scalar slot holding the subscript.
        idx_slot: u16,
    },
    /// Fused `Charge? + Bin + StoreScalar`:
    /// `regs[dst] = regs[a] op regs[b]; scalars[slot] = regs[dst]`
    /// (with the slot's declared-type coercion).
    FusedBinStore {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The binary operator.
        op: BinOp,
        /// Destination scalar slot.
        slot: u16,
        /// Result register (still written, as in the unfused stream).
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// Fused `Charge? + LoadScalar + LoadElem` (rank-1, scalar-slot
    /// subscript): `regs[dst] = arr[scalars[idx_slot]]` (traced read).
    FusedLoadElemS {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// Result register.
        dst: Reg,
        /// Array slot.
        arr: u16,
        /// Scalar slot holding the subscript.
        idx_slot: u16,
    },
    /// Fused `Charge? + LoadScalar + StoreElem` (rank-1, scalar-slot
    /// subscript): `arr[scalars[idx_slot]] = regs[src]` (traced write).
    FusedStoreElemS {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// Array slot.
        arr: u16,
        /// Scalar slot holding the subscript.
        idx_slot: u16,
        /// Value register.
        src: Reg,
    },
    /// Fused rank-1 read-modify-write with a constant operand:
    /// `arr[scalars[idx_slot]] = arr[scalars[idx_slot]] op consts[k]`
    /// (traced read then write at the same linearized index; replaces
    /// the whole `LoadScalar+LoadElem+Const+Bin+LoadScalar+StoreElem`
    /// statement body).
    FusedElemUpdateK {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The binary operator.
        op: BinOp,
        /// Result register (still written, as in the unfused stream).
        dst: Reg,
        /// Array slot.
        arr: u16,
        /// Scalar slot holding the subscript.
        idx_slot: u16,
        /// Right operand constant-pool index.
        k: u16,
    },
    /// [`Op::FusedElemUpdateK`] with a scalar-slot right operand:
    /// `arr[scalars[idx_slot]] = arr[scalars[idx_slot]] op
    /// scalars[b_slot]`.
    FusedElemUpdateS {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The binary operator.
        op: BinOp,
        /// Result register (still written, as in the unfused stream).
        dst: Reg,
        /// Array slot.
        arr: u16,
        /// Scalar slot holding the subscript.
        idx_slot: u16,
        /// Right operand scalar slot.
        b_slot: u16,
    },
    /// Fused `Charge + Const` (a statement whose first value is a
    /// literal): charge, then `regs[dst] = consts[k]`.
    ChargedConst {
        /// Folded leading charge (always > 0 — the pass only builds
        /// this from an actual `Charge`).
        charge: u32,
        /// Result register.
        dst: Reg,
        /// Constant-pool index.
        k: u16,
    },
    /// Fused `Charge + LoadScalar` (a statement whose first value is a
    /// scalar): charge, then `regs[dst] = scalars[slot]`.
    ChargedLoadScalar {
        /// Folded leading charge (always > 0).
        charge: u32,
        /// Result register.
        dst: Reg,
        /// Scalar slot.
        slot: u16,
    },
    /// Fused indirect rank-1 load through an index array:
    /// `regs[dst] = arr[idx_arr[scalars[idx_slot]]]` (two traced
    /// reads, index array first) — the `F(J(i))` access shape of the
    /// irregular suite kernels.
    FusedLoadElemE {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// Result register.
        dst: Reg,
        /// Array slot of the index array.
        idx_arr: u16,
        /// Scalar slot holding the index array's subscript.
        idx_slot: u16,
        /// Array slot of the loaded array.
        arr: u16,
    },
    /// Fused indirect rank-1 store through an index array:
    /// `arr[idx_arr[scalars[idx_slot]]] = regs[src]` (traced read of
    /// the index array, then traced write).
    FusedStoreElemE {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// Array slot of the index array.
        idx_arr: u16,
        /// Scalar slot holding the index array's subscript.
        idx_slot: u16,
        /// Array slot of the stored array.
        arr: u16,
        /// Value register.
        src: Reg,
    },
    /// Fused register-indexed rank-1 read-modify-write through an
    /// offset index expression:
    /// `arr[idx_arr[scalars[idx_slot]] idx_op consts[idx_k]] op= consts[k]`
    /// — the `F(J(i)+1) += c` statement shape of `index_reduction`-style
    /// kernels. Replays the unfused stream's traced accesses exactly
    /// (read `idx_arr`, read `arr`, read `idx_arr` again for the store
    /// subscript, write `arr`); the second index temporary's register
    /// write is elided (dead by stack discipline).
    FusedElemUpdateE {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The value operator (`op=`).
        op: BinOp,
        /// Result register (still written, as in the unfused stream).
        dst: Reg,
        /// Array slot of the updated array.
        arr: u16,
        /// Array slot of the index array.
        idx_arr: u16,
        /// Scalar slot holding the index array's subscript.
        idx_slot: u16,
        /// The index offset operator (`+` in `J(i)+1`).
        idx_op: BinOp,
        /// Constant-pool index of the index offset.
        idx_k: u16,
        /// Right operand constant-pool index of the value op.
        k: u16,
    },
    /// Fused scalar-reduction accumulate, the whole `s = s op A(i)`
    /// statement (`ChargedLoadScalar + FusedLoadElemS + FusedBinStore`):
    /// charge, load the accumulator slot, read `arr[scalars[idx_slot]]`
    /// (traced), apply `op`, write the result register and store it
    /// back to the accumulator slot with its declared-type coercion.
    /// In the parallel executor the accumulator slot lives in each
    /// worker's private [`crate::Frame`], so this is the per-thread
    /// accumulator-register op of the reduction pipeline.
    FusedRedAccS {
        /// Folded leading charge (always > 0 — built from a
        /// `ChargedLoadScalar`, which the pass only mints from an
        /// actual `Charge`).
        charge: u32,
        /// The reduction operator.
        op: BinOp,
        /// Result register (still written, as in the unfused stream).
        dst: Reg,
        /// Accumulator scalar slot (read and written).
        acc_slot: u16,
        /// Array slot of the element operand.
        arr: u16,
        /// Scalar slot holding the element subscript.
        idx_slot: u16,
    },
    /// Fused indirect reduction update with a constant operand, the
    /// whole `A(B(i)) = A(B(i)) op c` statement
    /// (`FusedLoadElemE + FusedBinRK + FusedStoreElemE`). Replays the
    /// unfused stream's traced accesses exactly: read `idx_arr`, read
    /// `arr`, read `idx_arr` again (the store recomputes its
    /// subscript; nothing in the window writes, so one linearization
    /// is exact), write `arr`.
    FusedRedElemK {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The reduction operator (`op=`).
        op: BinOp,
        /// Result register (still written, as in the unfused stream).
        dst: Reg,
        /// Array slot of the updated array.
        arr: u16,
        /// Array slot of the index array.
        idx_arr: u16,
        /// Scalar slot holding the index array's subscript.
        idx_slot: u16,
        /// Right operand constant-pool index.
        k: u16,
    },
    /// [`Op::FusedRedElemK`] with a scalar-slot right operand:
    /// `A(B(i)) = A(B(i)) op scalars[b_slot]`.
    FusedRedElemS {
        /// Folded leading charge (0 = none).
        charge: u32,
        /// The reduction operator (`op=`).
        op: BinOp,
        /// Result register (still written, as in the unfused stream).
        dst: Reg,
        /// Array slot of the updated array.
        arr: u16,
        /// Array slot of the index array.
        idx_arr: u16,
        /// Scalar slot holding the index array's subscript.
        idx_slot: u16,
        /// Right operand scalar slot.
        b_slot: u16,
    },
    /// Fused `LoopTest + SetVarRaw`: test the loop bounds, and either
    /// publish the control register to the loop variable's scalar slot
    /// (continuing) or jump to `exit`.
    LoopTestSet {
        /// Loop counter register.
        i: Reg,
        /// Upper bound register.
        hi: Reg,
        /// Step register.
        step: Reg,
        /// Exit target when the loop is done.
        exit: u32,
        /// Scalar slot of the loop variable.
        var_slot: u16,
    },
    /// Fused `LoopIncr + Jump`: bump the counter and jump back to the
    /// loop head.
    LoopIncrJump {
        /// Loop counter register.
        i: Reg,
        /// Step register.
        step: Reg,
        /// The loop-head target.
        target: u32,
    },
}

impl Op {
    /// The folded-charge field of a superinstruction that has one. Which
    /// of them a leading [`Op::Charge`] may be re-homed onto is the
    /// peephole table's per-row `folds` flag ([`crate::peephole`]).
    pub fn charge_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::FusedBinSS { charge, .. }
            | Op::FusedBinRS { charge, .. }
            | Op::FusedBinRK { charge, .. }
            | Op::FusedBinRE { charge, .. }
            | Op::FusedBinStore { charge, .. }
            | Op::FusedLoadElemS { charge, .. }
            | Op::FusedStoreElemS { charge, .. }
            | Op::FusedElemUpdateK { charge, .. }
            | Op::FusedElemUpdateS { charge, .. }
            | Op::ChargedConst { charge, .. }
            | Op::ChargedLoadScalar { charge, .. }
            | Op::FusedLoadElemE { charge, .. }
            | Op::FusedStoreElemE { charge, .. }
            | Op::FusedElemUpdateE { charge, .. }
            | Op::FusedRedAccS { charge, .. }
            | Op::FusedRedElemK { charge, .. }
            | Op::FusedRedElemS { charge, .. } => Some(charge),
            _ => None,
        }
    }

    /// Whether this is a superinstruction emitted by the peephole pass
    /// (never by the base compiler) — the denominator for fused-dispatch
    /// metrics is total ops, the numerator is these.
    pub fn is_fused(&self) -> bool {
        matches!(
            self,
            Op::FusedBinSS { .. }
                | Op::FusedBinRS { .. }
                | Op::FusedBinRK { .. }
                | Op::FusedBinRE { .. }
                | Op::FusedBinStore { .. }
                | Op::FusedLoadElemS { .. }
                | Op::FusedStoreElemS { .. }
                | Op::FusedElemUpdateK { .. }
                | Op::FusedElemUpdateS { .. }
                | Op::ChargedConst { .. }
                | Op::ChargedLoadScalar { .. }
                | Op::FusedLoadElemE { .. }
                | Op::FusedStoreElemE { .. }
                | Op::FusedElemUpdateE { .. }
                | Op::FusedRedAccS { .. }
                | Op::FusedRedElemK { .. }
                | Op::FusedRedElemS { .. }
                | Op::LoopTestSet { .. }
                | Op::LoopIncrJump { .. }
        )
    }

    /// Whether this is one of the dedicated reduction
    /// superinstructions (`s = s op A(i)`, `A(B(i)) op= v`) — the
    /// numerator for the `vm.red_ops` dispatch metric.
    pub fn is_reduction(&self) -> bool {
        matches!(
            self,
            Op::FusedRedAccS { .. } | Op::FusedRedElemK { .. } | Op::FusedRedElemS { .. }
        )
    }
}

/// How one actual argument reaches a callee.
#[derive(Clone, Debug)]
pub enum ArgSpec {
    /// A value pre-evaluated into a register (general expressions;
    /// passed by value, no copy-out).
    Value { reg: Reg },
    /// A bare variable: bound as an array section when the caller frame
    /// has an array under that name, otherwise copy-in/copy-out scalar.
    Var { arr: u16, scalar: u16 },
    /// An array-element section `A(i, j)`: the subscript values sit in
    /// `base..base+n`, the resulting view starts at their linearization.
    Section { arr: u16, base: Reg, n: u8 },
}

/// One CALL site: the resolved callee plus argument bindings.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Index of the callee in [`CompiledProgram::subs`].
    pub callee: usize,
    /// Argument bindings, one per formal parameter.
    pub args: Vec<ArgSpec>,
}

/// A compiled expression fragment sharing its owner chunk's tables
/// (dimension declarations, per-iteration WHILE conditions, CIV loop
/// bounds). Charges its own cost.
#[derive(Clone, Debug)]
pub struct ExprCode {
    /// The instruction stream (no control flow out of the fragment).
    pub ops: Vec<Op>,
    /// Register holding the result after the fragment runs.
    pub result: Reg,
}

/// How one declared dimension of a formal parameter reshapes an
/// incoming view (paper Fig. 8 semantics, matching the interpreter's
/// `reshape_view`).
#[derive(Clone, Debug)]
pub enum DimCode {
    /// Assumed size `(*)` — extent `i64::MAX`.
    Assumed,
    /// A declared extent that is a compile-time constant (`H(8, *)`),
    /// folded: `charge` is what evaluating its expression charges.
    Const { charge: u32, extent: i64 },
    /// A declared extent evaluated in the callee frame.
    Fixed(ExprCode),
}

/// A local fixed-size array the callee allocates on entry (skipped when
/// the frame already has a binding, so drivers can pre-bind).
#[derive(Clone, Debug)]
pub struct LocalAlloc {
    /// Array slot to bind.
    pub arr: u16,
    /// Declared name (for errors).
    pub name: Sym,
    /// Element type.
    pub ty: Ty,
    /// Dimension extents (an `Assumed` local is an error, as in the
    /// interpreter).
    pub dims: Vec<DimCode>,
}

/// A compiled instruction block with its tables.
#[derive(Clone, Debug, Default)]
pub struct Chunk {
    /// The instruction stream.
    pub ops: Vec<Op>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Register file size (covers attached expression fragments too).
    pub nregs: usize,
    /// Scalar slot table: symbol + declared/implicit type.
    pub scalars: Vec<(Sym, Ty)>,
    /// Array slot table: symbol + declared/implicit element type.
    pub arrays: Vec<(Sym, Ty)>,
    /// CALL sites referenced by [`Op::Call`].
    pub calls: Vec<CallSite>,
    /// READ target lists referenced by [`Op::Read`].
    pub reads: Vec<Vec<u16>>,
    /// Late compile-diagnosed failures referenced by [`Op::Fail`].
    pub fails: Vec<RunError>,
    /// The stream typed against the declared types, when the block has
    /// one ([`crate::typed`]; filled by the optimize passes, `None` for
    /// a genuinely dynamic block). Shares `ops`' slot and site tables.
    pub typed: Option<Arc<Typed>>,
}

impl Chunk {
    /// The scalar slot bound to `s`, if any.
    pub fn scalar_slot(&self, s: Sym) -> Option<u16> {
        self.scalars
            .iter()
            .position(|(t, _)| *t == s)
            .map(|i| i as u16)
    }

    /// The array slot bound to `s`, if any.
    pub fn array_slot(&self, s: Sym) -> Option<u16> {
        self.arrays
            .iter()
            .position(|(t, _)| *t == s)
            .map(|i| i as u16)
    }

    /// A readable rendering of the instruction stream, one op per line
    /// with slot indices resolved to names — the substrate for the
    /// golden fusion tests (`crates/vm/tests/peephole_golden.rs`), so
    /// an accidental peephole regression shows up as a line diff.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("{i:>3}  {}\n", self.render_op(op)));
        }
        out
    }

    pub(crate) fn scalar_name(&self, slot: u16) -> String {
        self.scalars[slot as usize].0.name()
    }

    pub(crate) fn array_name(&self, arr: u16) -> String {
        self.arrays[arr as usize].0.name()
    }

    fn render_op(&self, op: &Op) -> String {
        let charge = |c: &u32| {
            if *c > 0 {
                format!("charge {c}; ")
            } else {
                String::new()
            }
        };
        match op {
            Op::Charge(u) => format!("charge {u}"),
            Op::Const { dst, k } => {
                format!("r{dst} = const[{k}] {:?}", self.consts[*k as usize])
            }
            Op::LoadScalar { dst, slot } => format!("r{dst} = {}", self.scalar_name(*slot)),
            Op::StoreScalar { slot, src } => format!("{} := r{src}", self.scalar_name(*slot)),
            Op::SetVarRaw { slot, src } => format!("{} :=raw r{src}", self.scalar_name(*slot)),
            Op::LoadElem { dst, arr, base, n } => {
                format!("r{dst} = {}[r{base}..+{n}]", self.array_name(*arr))
            }
            Op::StoreElem { arr, base, n, src } => {
                format!("{}[r{base}..+{n}] = r{src}", self.array_name(*arr))
            }
            Op::Un { op, dst, src } => format!("r{dst} = {op:?} r{src}"),
            Op::Bin { op, dst, a, b } => format!("r{dst} = r{a} {op:?} r{b}"),
            Op::Intrin { intr, dst, base, n } => {
                format!("r{dst} = {intr:?}(r{base}..+{n})")
            }
            Op::Jump { target } => format!("jump {target}"),
            Op::JumpIfFalse { cond, target } => format!("jump {target} if !r{cond}"),
            Op::LoopInit {
                i,
                hi,
                step,
                var_slot,
            } => format!(
                "loop.init r{i} to r{hi} by r{step} ({})",
                self.scalar_name(*var_slot)
            ),
            Op::LoopTest { i, hi, step, exit } => {
                format!("loop.test r{i} r{hi} r{step} exit {exit}")
            }
            Op::LoopIncr { i, step } => format!("r{i} += r{step}"),
            Op::Call { site } => format!("call site {site}"),
            Op::Read { site } => format!("read site {site}"),
            Op::Fail { site } => format!("fail site {site}"),
            Op::FusedBinSS {
                charge: c,
                op,
                dst,
                a_slot,
                b_slot,
            } => format!(
                "{}r{dst} = {} {op:?} {}",
                charge(c),
                self.scalar_name(*a_slot),
                self.scalar_name(*b_slot)
            ),
            Op::FusedBinRS {
                charge: c,
                op,
                dst,
                a,
                b_slot,
            } => format!(
                "{}r{dst} = r{a} {op:?} {}",
                charge(c),
                self.scalar_name(*b_slot)
            ),
            Op::FusedBinRK {
                charge: c,
                op,
                dst,
                a,
                k,
            } => format!(
                "{}r{dst} = r{a} {op:?} const[{k}] {:?}",
                charge(c),
                self.consts[*k as usize]
            ),
            Op::FusedBinRE {
                charge: c,
                op,
                dst,
                a,
                arr,
                idx_slot,
            } => format!(
                "{}r{dst} = r{a} {op:?} {}[{}]",
                charge(c),
                self.array_name(*arr),
                self.scalar_name(*idx_slot)
            ),
            Op::FusedBinStore {
                charge: c,
                op,
                slot,
                dst,
                a,
                b,
            } => format!(
                "{}{} := r{dst} = r{a} {op:?} r{b}",
                charge(c),
                self.scalar_name(*slot)
            ),
            Op::FusedLoadElemS {
                charge: c,
                dst,
                arr,
                idx_slot,
            } => format!(
                "{}r{dst} = {}[{}]",
                charge(c),
                self.array_name(*arr),
                self.scalar_name(*idx_slot)
            ),
            Op::FusedStoreElemS {
                charge: c,
                arr,
                idx_slot,
                src,
            } => format!(
                "{}{}[{}] = r{src}",
                charge(c),
                self.array_name(*arr),
                self.scalar_name(*idx_slot)
            ),
            Op::FusedElemUpdateK {
                charge: c,
                op,
                dst,
                arr,
                idx_slot,
                k,
            } => format!(
                "{}{}[{}] {op:?}= const[{k}] {:?} (r{dst})",
                charge(c),
                self.array_name(*arr),
                self.scalar_name(*idx_slot),
                self.consts[*k as usize]
            ),
            Op::FusedElemUpdateS {
                charge: c,
                op,
                dst,
                arr,
                idx_slot,
                b_slot,
            } => format!(
                "{}{}[{}] {op:?}= {} (r{dst})",
                charge(c),
                self.array_name(*arr),
                self.scalar_name(*idx_slot),
                self.scalar_name(*b_slot)
            ),
            Op::ChargedConst { charge: c, dst, k } => format!(
                "{}r{dst} = const[{k}] {:?}",
                charge(c),
                self.consts[*k as usize]
            ),
            Op::ChargedLoadScalar {
                charge: c,
                dst,
                slot,
            } => format!("{}r{dst} = {}", charge(c), self.scalar_name(*slot)),
            Op::FusedLoadElemE {
                charge: c,
                dst,
                idx_arr,
                idx_slot,
                arr,
            } => format!(
                "{}r{dst} = {}[{}[{}]]",
                charge(c),
                self.array_name(*arr),
                self.array_name(*idx_arr),
                self.scalar_name(*idx_slot)
            ),
            Op::FusedStoreElemE {
                charge: c,
                idx_arr,
                idx_slot,
                arr,
                src,
            } => format!(
                "{}{}[{}[{}]] = r{src}",
                charge(c),
                self.array_name(*arr),
                self.array_name(*idx_arr),
                self.scalar_name(*idx_slot)
            ),
            Op::FusedElemUpdateE {
                charge: c,
                op,
                dst,
                arr,
                idx_arr,
                idx_slot,
                idx_op,
                idx_k,
                k,
            } => format!(
                "{}{}[{}[{}] {idx_op:?} const[{idx_k}] {:?}] {op:?}= const[{k}] {:?} (r{dst})",
                charge(c),
                self.array_name(*arr),
                self.array_name(*idx_arr),
                self.scalar_name(*idx_slot),
                self.consts[*idx_k as usize],
                self.consts[*k as usize]
            ),
            Op::FusedRedAccS {
                charge: c,
                op,
                dst,
                acc_slot,
                arr,
                idx_slot,
            } => format!(
                "{}{} {op:?}= {}[{}] (r{dst})",
                charge(c),
                self.scalar_name(*acc_slot),
                self.array_name(*arr),
                self.scalar_name(*idx_slot)
            ),
            Op::FusedRedElemK {
                charge: c,
                op,
                dst,
                arr,
                idx_arr,
                idx_slot,
                k,
            } => format!(
                "{}{}[{}[{}]] {op:?}= const[{k}] {:?} (r{dst})",
                charge(c),
                self.array_name(*arr),
                self.array_name(*idx_arr),
                self.scalar_name(*idx_slot),
                self.consts[*k as usize]
            ),
            Op::FusedRedElemS {
                charge: c,
                op,
                dst,
                arr,
                idx_arr,
                idx_slot,
                b_slot,
            } => format!(
                "{}{}[{}[{}]] {op:?}= {} (r{dst})",
                charge(c),
                self.array_name(*arr),
                self.array_name(*idx_arr),
                self.scalar_name(*idx_slot),
                self.scalar_name(*b_slot)
            ),
            Op::LoopTestSet {
                i,
                hi,
                step,
                exit,
                var_slot,
            } => format!(
                "loop.test-set r{i} r{hi} r{step} -> {}, exit {exit}",
                self.scalar_name(*var_slot)
            ),
            Op::LoopIncrJump { i, step, target } => {
                format!("r{i} += r{step}; jump {target}")
            }
        }
    }
}

/// A compiled subroutine: its body chunk plus call-boundary metadata.
#[derive(Clone, Debug)]
pub struct CompiledSub {
    /// Subroutine name.
    pub name: Sym,
    /// The body (entered by [`Op::Call`] and the program entry).
    pub chunk: Chunk,
    /// Per-formal metadata, in parameter order.
    pub params: Vec<ParamMeta>,
    /// Entry allocations for non-parameter fixed-size arrays, in
    /// declaration order.
    pub locals: Vec<LocalAlloc>,
}

/// Call-boundary metadata for one formal parameter.
#[derive(Clone, Debug)]
pub struct ParamMeta {
    /// Formal name.
    pub name: Sym,
    /// Scalar slot in the callee chunk.
    pub scalar: u16,
    /// Array slot in the callee chunk.
    pub arr: u16,
    /// Declared reshape dimensions (`None` when the callee has no
    /// declaration for the formal: the incoming view passes unchanged).
    pub reshape: Option<Vec<DimCode>>,
    /// The types an activation may leave in the formal's scalar slot
    /// besides the value it was passed ([`crate::typed`]'s `INT` /
    /// `REAL` bits): what a scalar copy-out can hand back to a typed
    /// caller. Both until [`crate::optimize_program`] computes it.
    pub writes: u8,
}

/// A standalone compiled block (loop body, CIV slice, single statement)
/// in the context of some subroutine, with optional attached expression
/// fragments (WHILE conditions, loop bounds).
#[derive(Clone, Debug)]
pub struct CompiledBlock {
    /// The block's instruction chunk.
    pub chunk: Chunk,
    /// Attached expression fragments, in the order requested.
    pub exprs: Vec<ExprCode>,
}

/// Identifies a standalone block within a [`CompiledProgram`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BlockId(pub(crate) usize);

/// A whole compiled program: one [`CompiledSub`] per subroutine (so
/// CALLs dispatch by index) plus any standalone blocks.
#[derive(Clone, Debug, Default)]
pub struct CompiledProgram {
    /// Compiled subroutines, in program order.
    pub subs: Vec<CompiledSub>,
    /// Standalone blocks added by [`crate::compile::add_block`]-style
    /// APIs.
    pub blocks: Vec<CompiledBlock>,
    /// Index of the entry subroutine (`main` if present, else the
    /// first unit), when the program has any units.
    pub entry: Option<usize>,
}

impl CompiledProgram {
    /// The compiled subroutine named `s`.
    pub fn sub(&self, s: Sym) -> Option<&CompiledSub> {
        self.subs.iter().find(|c| c.name == s)
    }

    /// The chunk of a standalone block.
    pub fn block(&self, b: BlockId) -> &CompiledBlock {
        &self.blocks[b.0]
    }
}

/// Compilation failure. The runtime treats any of these as "fall back
/// to the tree-walk interpreter", so they are diagnostics, not user
/// errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// More than 7 subscripts on one array reference (the Fortran 77
    /// rank limit the VM's fixed index buffer assumes).
    TooManyDims(Sym),
    /// A table overflowed its 16-bit index space.
    TooLarge(&'static str),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooManyDims(s) => write!(f, "more than 7 subscripts on {s}"),
            CompileError::TooLarge(what) => write!(f, "{what} table overflow"),
        }
    }
}

impl std::error::Error for CompileError {}
