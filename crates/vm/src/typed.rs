//! Typed registers: each block typed once, against its declared types.
//!
//! The fused `Value` stream ([`crate::chunk::Op`]) rediscovers at every
//! op what the program declared: `apply_bin` matches both operand tags
//! before the operator, every array access matches `ArrayBuf`'s cell
//! representation, every register write stores a 16-byte tagged
//! `Value`. This pass types the fused stream once, when the optimize
//! passes run, into a second stream of [`TOp`]s over raw 64-bit words
//! (an `Int` is its `i64` bits, a `Real` its `f64` bits) whose types are
//! fixed per instruction, so no typed op inspects a tag.
//!
//! **Inference.** A forward dataflow pass runs over the fused stream to
//! a fixpoint. Each scalar slot and register carries a set of possible
//! types (`INT`, `REAL`) plus `ENTRY`: "may still hold the value it had
//! when the activation began". A slot read while `ENTRY` is set is a
//! *live-in*: it is assumed to hold its declared type, and the guard
//! checks that. Every op's result type follows from its operand types
//! (`apply_bin`'s integer mode iff both operands are `Int`, the
//! intrinsics' modes, `StoreScalar`'s coercion to the declared type,
//! `SetVarRaw`'s verbatim copy), so mixed operands become explicit
//! conversions. A block is genuinely dynamic — it gets no typed stream
//! — when a read sees more than one possible type: a `READ` target
//! used afterwards, or `Int` and `Real` meeting at a join.
//!
//! **Guard.** An activation runs the typed stream when every live-in
//! scalar is bound with its declared type and every array the typed ops
//! address is bound with its declared element type ([`Typed::admits`],
//! O(live-ins)); otherwise it runs the `Value` stream. `run_range` also
//! needs [`Typed::loops`]: the stream's exit state satisfies its own
//! entry assumptions, so restarting at pc 0 stays typed.
//!
//! **Parity.** A typed op replays its `Value` op exactly: the same
//! charges in the same order (so `StepLimit` trips at the same point),
//! the same traced reads and writes in the same order, the same
//! `BadIndex` / `IntOverflow` errors, the same scalar-slot writes. A
//! superinstruction whose operand types have no typed form runs as its
//! expansion through the peephole rule table, down to plain ops, with
//! the operand temporaries on two scratch registers. Calls, `READ`
//! and late failures go through the `Value` machinery, with the
//! registers a call reads materialized first.
//!
//! **Layout.** Typing proves each operand's range, so the dispatch loop
//! checks none of them. A typed register is a [`TReg`] (`u8`) into the
//! frame's fixed file of [`TREGS`] (256) words: a chunk is typed only
//! when its registers and the two scratch registers fit, and a wider one
//! runs the `Value` stream, as a dynamic one does. Every register access
//! is then in bounds by its type. [`TOp`] is `repr(u8)`, a one-byte tag
//! at offset 0 that dispatch turns into one jump-table jump, and its
//! fields are ordered so no variant pads past 32 bytes, a size a `const`
//! assertion pins. The tracer's `wants_writes` is asked once per
//! activation and addressed array, and kept in its `TArr`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use lip_ir::{
    apply_intrinsic, int_div_pow, AccessTracer, ArrayView, BinOp, ExecState, Intrinsic, RunError,
    Ty, UnOp, Value,
};

use crate::chunk::{ArgSpec, Chunk, Op, Reg};
use crate::peephole;
use crate::vm::{DispatchCounts, Frame, IterObserver, Scalars, Slot, Vm};

/// Type bit: the slot or register may hold an `Int` (also a bound
/// slot's tag).
pub const INT: u8 = 1;
/// Type bit: may hold a `Real` (also a bound slot's tag).
pub const REAL: u8 = 2;
/// Either type: nothing is known (a `READ` target, or a callee formal
/// before [`crate::optimize_program`] summarizes the callee).
pub const ANY: u8 = INT | REAL;
/// May still hold the activation's entry value.
const ENTRY: u8 = 4;

/// The type bit (and slot tag) of `ty`.
pub(crate) fn bit(ty: Ty) -> u8 {
    match ty {
        Ty::Int => INT,
        Ty::Real => REAL,
    }
}

/// Operand types of a typed binary op, left then right. A mixed pair
/// converts its `Int` side to `f64`, as `apply_bin` does.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Both `Int`: integer mode.
    II,
    /// Both `Real`.
    RR,
    /// `Int` left, `Real` right.
    IR,
    /// `Real` left, `Int` right.
    RI,
}

impl Mode {
    fn of(a: Ty, b: Ty) -> Mode {
        match (a, b) {
            (Ty::Int, Ty::Int) => Mode::II,
            (Ty::Real, Ty::Real) => Mode::RR,
            (Ty::Int, Ty::Real) => Mode::IR,
            (Ty::Real, Ty::Int) => Mode::RI,
        }
    }

    /// `Mode::of` a register or element and a constant: a `Real` left
    /// side converts an `Int` constant at typing time instead.
    fn with_const(a: Ty, (bits, k): (u64, Ty)) -> (Mode, u64) {
        match (a, k) {
            (Ty::Real, Ty::Int) => (Mode::RR, (bits as i64 as f64).to_bits()),
            _ => (Mode::of(a, k), bits),
        }
    }

    /// The type of `op`'s result: `Int` in integer mode and for the
    /// comparisons and connectives, `Real` for real arithmetic.
    fn result(self, op: BinOp) -> Ty {
        use BinOp::*;
        match (self, op) {
            (Mode::II, _) | (_, Eq | Ne | Lt | Le | Gt | Ge | And | Or) => Ty::Int,
            _ => Ty::Real,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::II => "ii",
            Mode::RR => "rr",
            Mode::IR => "ir",
            Mode::RI => "ri",
        }
    }
}

/// A conversion applied to a value before it is stored: the declared
/// type's coercion of a scalar assignment, the buffer's coercion of an
/// element write, a `DO` control register forced to `Int`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Cvt {
    /// Same type: the bits as they are.
    No,
    /// `Int` to `Real` (`Value::as_f64`).
    ItoR,
    /// `Real` to `Int`, truncating and saturating (`Value::as_i64`).
    RtoI,
}

impl Cvt {
    fn between(from: Ty, to: Ty) -> Cvt {
        match (from, to) {
            (Ty::Int, Ty::Real) => Cvt::ItoR,
            (Ty::Real, Ty::Int) => Cvt::RtoI,
            _ => Cvt::No,
        }
    }

    #[inline(always)]
    fn apply(self, bits: u64) -> u64 {
        match self {
            Cvt::No => bits,
            Cvt::ItoR => (bits as i64 as f64).to_bits(),
            Cvt::RtoI => f64::from_bits(bits) as i64 as u64,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Cvt::No => "",
            Cvt::ItoR => " i2r",
            Cvt::RtoI => " r2i",
        }
    }
}

/// A typed register: an index into the frame's [`TREGS`]-entry typed
/// file, in bounds by its type.
pub type TReg = u8;

/// Entries in a frame's typed register file. `type_chunk` types a
/// chunk only when its registers and the two scratch registers fit, so
/// every [`TReg`] a stream names is one of the chunk's own.
pub const TREGS: usize = 256;

/// One typed instruction: the [`Op`] of the same name (or the fused op
/// it replaces, without the `Fused` prefix) on raw 64-bit registers.
/// `mode` fixes a binary op's operand types, `cvt` the coercion of a
/// stored value, `tag` the type a scalar slot is left with.
///
/// `repr(u8)`: the variant is a one-byte tag at offset 0, so dispatch
/// reads one byte and takes one jump-table jump. Each variant's fields
/// are declared one-byte first, then `u16`, `u32`, `u64`, so none pads
/// past 32 bytes (`ElemUpdateE` fills them exactly); the size is pinned
/// below, as a wider op is a slower stream.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
#[repr(u8)]
pub enum TOp {
    Charge(u32),
    Const {
        dst: TReg,
        real: bool,
        bits: u64,
    },
    ChargedConst {
        dst: TReg,
        real: bool,
        charge: u32,
        bits: u64,
    },
    LoadSlot {
        dst: TReg,
        slot: u16,
    },
    ChargedLoadSlot {
        dst: TReg,
        slot: u16,
        charge: u32,
    },
    StoreSlot {
        src: TReg,
        cvt: Cvt,
        tag: u8,
        slot: u16,
    },
    Cvt {
        dst: TReg,
        src: TReg,
        cvt: Cvt,
    },
    Un {
        op: UnOp,
        real: bool,
        dst: TReg,
        src: TReg,
    },
    Bin {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        a: TReg,
        b: TReg,
    },
    BinSS {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        a_slot: u16,
        b_slot: u16,
        charge: u32,
    },
    BinRS {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        a: TReg,
        b_slot: u16,
        charge: u32,
    },
    BinRK {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        a: TReg,
        charge: u32,
        k: u64,
    },
    BinRE {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        a: TReg,
        arr: u16,
        idx_slot: u16,
        charge: u32,
    },
    BinStore {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        a: TReg,
        b: TReg,
        cvt: Cvt,
        tag: u8,
        slot: u16,
        charge: u32,
    },
    /// `SQRT` / `EXP` / `SIN` / `COS` of one argument, on `f64`.
    Math {
        intr: Intrinsic,
        real: bool,
        dst: TReg,
        src: TReg,
    },
    /// Any other intrinsic; bit `k` of `reals` marks argument `k` Real.
    Intrin {
        intr: Intrinsic,
        dst: TReg,
        base: TReg,
        n: u8,
        reals: u32,
    },
    /// Rank-1 load with an `Int` subscript register.
    Load {
        dst: TReg,
        idx: TReg,
        arr: u16,
    },
    /// Any other load (rank > 1, or `Real` subscripts marked in `reals`).
    LoadN {
        dst: TReg,
        base: TReg,
        n: u8,
        reals: u8,
        arr: u16,
    },
    Store {
        idx: TReg,
        src: TReg,
        cvt: Cvt,
        arr: u16,
    },
    StoreN {
        base: TReg,
        n: u8,
        reals: u8,
        src: TReg,
        cvt: Cvt,
        arr: u16,
    },
    LoadElemS {
        dst: TReg,
        arr: u16,
        idx_slot: u16,
        charge: u32,
    },
    StoreElemS {
        src: TReg,
        cvt: Cvt,
        arr: u16,
        idx_slot: u16,
        charge: u32,
    },
    ElemUpdateK {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        cvt: Cvt,
        arr: u16,
        idx_slot: u16,
        charge: u32,
        k: u64,
    },
    ElemUpdateS {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        cvt: Cvt,
        arr: u16,
        idx_slot: u16,
        b_slot: u16,
        charge: u32,
    },
    LoadElemE {
        dst: TReg,
        idx_arr: u16,
        idx_slot: u16,
        arr: u16,
        charge: u32,
    },
    StoreElemE {
        src: TReg,
        cvt: Cvt,
        idx_arr: u16,
        idx_slot: u16,
        arr: u16,
        charge: u32,
    },
    ElemUpdateE {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        idx_op: BinOp,
        cvt: Cvt,
        arr: u16,
        idx_arr: u16,
        idx_slot: u16,
        charge: u32,
        idx_k: i64,
        k: u64,
    },
    RedAccS {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        cvt: Cvt,
        tag: u8,
        acc_slot: u16,
        arr: u16,
        idx_slot: u16,
        charge: u32,
    },
    RedElemK {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        cvt: Cvt,
        arr: u16,
        idx_arr: u16,
        idx_slot: u16,
        charge: u32,
        k: u64,
    },
    RedElemS {
        op: BinOp,
        mode: Mode,
        dst: TReg,
        cvt: Cvt,
        arr: u16,
        idx_arr: u16,
        idx_slot: u16,
        b_slot: u16,
        charge: u32,
    },
    Jump {
        target: u32,
    },
    JumpIfFalse {
        cond: TReg,
        real: bool,
        target: u32,
    },
    /// `Op::LoopInit` once its control registers are `Int` (a `Real`
    /// one is converted in place by a `Cvt` before it).
    LoopInit {
        step: TReg,
        var_slot: u16,
    },
    LoopTest {
        i: TReg,
        hi: TReg,
        step: TReg,
        exit: u32,
    },
    LoopTestSet {
        i: TReg,
        hi: TReg,
        step: TReg,
        var_slot: u16,
        exit: u32,
    },
    LoopIncr {
        i: TReg,
        step: TReg,
    },
    LoopIncrJump {
        i: TReg,
        step: TReg,
        target: u32,
    },
    Call {
        site: u16,
    },
    Read {
        site: u16,
    },
    Fail {
        site: u16,
    },
}

const _: () = assert!(std::mem::size_of::<TOp>() == 32);

impl TOp {
    /// Whether this is the typed form of a superinstruction (the
    /// `vm.fused_ops` numerator, as [`Op::is_fused`] is for `Value` ops).
    pub fn is_fused(&self) -> bool {
        !matches!(
            self,
            TOp::Charge(_)
                | TOp::Const { .. }
                | TOp::LoadSlot { .. }
                | TOp::StoreSlot { .. }
                | TOp::Cvt { .. }
                | TOp::Un { .. }
                | TOp::Bin { .. }
                | TOp::Math { .. }
                | TOp::Intrin { .. }
                | TOp::Load { .. }
                | TOp::LoadN { .. }
                | TOp::Store { .. }
                | TOp::StoreN { .. }
                | TOp::Jump { .. }
                | TOp::JumpIfFalse { .. }
                | TOp::LoopInit { .. }
                | TOp::LoopTest { .. }
                | TOp::LoopIncr { .. }
                | TOp::Call { .. }
                | TOp::Read { .. }
                | TOp::Fail { .. }
        )
    }

    /// Whether this is a typed reduction superinstruction (`vm.red_ops`).
    pub fn is_reduction(&self) -> bool {
        matches!(
            self,
            TOp::RedAccS { .. } | TOp::RedElemK { .. } | TOp::RedElemS { .. }
        )
    }

    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            TOp::Jump { target }
            | TOp::JumpIfFalse { target, .. }
            | TOp::LoopTest { exit: target, .. }
            | TOp::LoopTestSet { exit: target, .. }
            | TOp::LoopIncrJump { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// A chunk's typed stream and the guard that admits an activation to
/// it.
#[derive(Clone, Debug, Default)]
pub struct Typed {
    /// The instruction stream (jump targets index it).
    pub ops: Vec<TOp>,
    /// Typed registers the stream names: the chunk's registers plus two
    /// scratch registers for expanded superinstructions, at most
    /// [`TREGS`].
    pub nregs: usize,
    /// Guard: the live-in scalar slots and the tag each must carry.
    pub scalars: Vec<(u16, u8)>,
    /// Guard: the array slots the typed ops address and the element
    /// type each buffer must have.
    pub arrays: Vec<(u16, Ty)>,
    /// Per call site, the registers the call reads (by-value arguments,
    /// section subscripts) with their types, written to the `Value`
    /// registers before the call runs.
    pub call_regs: Vec<Vec<(TReg, Ty)>>,
    /// Whether the exit state satisfies the guard's assumptions, so a
    /// `run_range` activation may restart the stream at pc 0.
    pub loops: bool,
}

impl Typed {
    /// The guard: every live-in scalar bound with its declared type and
    /// every addressed array bound with its declared element type.
    #[inline]
    pub fn admits(&self, frame: &Frame) -> bool {
        self.scalars
            .iter()
            .all(|&(s, tag)| frame.scalars[s as usize].tag == tag)
            && self.arrays.iter().all(|&(a, ty)| {
                frame.arrays[a as usize].as_ref().is_some_and(|v| match ty {
                    Ty::Int => v.buf.int_cells().is_some(),
                    Ty::Real => v.buf.real_cells().is_some(),
                })
            })
    }
}

/// What typing a chunk found: the typed stream, unless the chunk is
/// genuinely dynamic, and the type bits each scalar slot may hold when
/// the chunk runs to its end (a callee's summary for its formals).
pub(crate) struct Typing {
    pub typed: Option<Typed>,
    pub exit: Vec<u8>,
}

/// Types `chunk`'s stream. `writes(callee, param)` is the type bits the
/// callee may leave in that formal's scalar slot (its summary).
pub(crate) fn type_chunk(chunk: &Chunk, writes: &dyn Fn(usize, usize) -> u8) -> Typing {
    let n = chunk.ops.len();
    let nslots = chunk.scalars.len();
    // The chunk's registers and the two scratch registers must all be
    // `TReg`s; a wider chunk runs the `Value` stream.
    if chunk.nregs + 2 > TREGS {
        return Typing {
            typed: None,
            exit: vec![ANY; nslots],
        };
    }
    let scratch = chunk.nregs as Reg;
    let width = nslots + chunk.nregs + 2;
    let mut lw = Lower {
        chunk,
        writes,
        nslots,
        scratch,
        live: vec![false; nslots],
        used: vec![false; chunk.arrays.len()],
        dynamic: false,
        out: Vec::with_capacity(n + 4),
        call_regs: vec![Vec::new(); chunk.calls.len()],
    };
    let mut flow = Flow {
        width,
        states: vec![0u8; (n + 1) * width],
        reached: vec![false; n + 1],
        st: vec![0u8; width],
        before: vec![0u8; width],
    };
    flow.states[..width].fill(ENTRY);
    flow.reached[0] = true;
    // Sweeps in pc order, lowering as it goes, until a sweep grows no
    // state at or before the pc that feeds it: then every pc was lowered
    // from its final in-state, and that sweep's output is the stream.
    // Forward edges settle within a sweep, so a chunk without a loop
    // takes one and a loop nest one more per level it grows a state at.
    let mut map = vec![0u32; n + 1];
    loop {
        lw.out.clear();
        lw.live.fill(false);
        lw.used.fill(false);
        lw.dynamic = false;
        let mut again = false;
        for (pc, start) in map.iter_mut().enumerate().take(n) {
            *start = lw.out.len() as u32;
            if flow.reached[pc] {
                again |= flow.step(&mut lw, pc);
            }
        }
        if !again {
            break;
        }
    }
    map[n] = lw.out.len() as u32;
    let reached_exit = flow.reached[n];
    let exit = if reached_exit {
        flow.states[n * width..n * width + nslots].to_vec()
    } else {
        vec![0; nslots]
    };
    if lw.dynamic {
        return Typing { typed: None, exit };
    }
    for op in &mut lw.out {
        if let Some(t) = op.target_mut() {
            *t = map[*t as usize];
        }
    }
    let decl = |s: usize| bit(chunk.scalars[s].1);
    let loops = (0..nslots).filter(|&s| lw.live[s]).all(|s| {
        let f = exit[s];
        let entry = if f & ENTRY != 0 { decl(s) } else { 0 };
        f & ANY | entry == decl(s) || !reached_exit
    });
    let typed = Typed {
        ops: lw.out,
        nregs: chunk.nregs + 2,
        scalars: (0..nslots)
            .filter(|&s| lw.live[s])
            .map(|s| (s as u16, decl(s)))
            .collect(),
        arrays: (0..chunk.arrays.len())
            .filter(|&a| lw.used[a])
            .map(|a| (a as u16, chunk.arrays[a].1))
            .collect(),
        call_regs: lw.call_regs,
        loops,
    };
    Typing {
        typed: Some(typed),
        exit,
    }
}

/// The dataflow state of one typing: the in-state of every pc (and of
/// the exit, `n`), flat, `width` bytes each — the type bits of every
/// scalar slot, then of every register — and which pcs a path reaches.
struct Flow {
    width: usize,
    states: Vec<u8>,
    reached: Vec<bool>,
    st: Vec<u8>,
    before: Vec<u8>,
}

impl Flow {
    /// Lowers `ops[pc]` from its in-state and joins the out-state into
    /// its successors' in-states; whether a state at or before `pc` grew
    /// (another sweep is due).
    fn step(&mut self, lw: &mut Lower<'_>, pc: usize) -> bool {
        let w = self.width;
        let op = &lw.chunk.ops[pc];
        self.st.copy_from_slice(&self.states[pc * w..(pc + 1) * w]);
        if matches!(op, Op::LoopTestSet { .. }) {
            self.before.copy_from_slice(&self.st);
        }
        lw.lower(op, &mut self.st);
        let mut back = false;
        for (succ, from_before) in successors(op, pc).into_iter().flatten() {
            let incoming = if from_before { &self.before } else { &self.st };
            let old = &mut self.states[succ * w..(succ + 1) * w];
            let grew = if !self.reached[succ] {
                self.reached[succ] = true;
                old.copy_from_slice(incoming);
                true
            } else if old.iter().zip(incoming).any(|(o, i)| i & !o != 0) {
                old.iter_mut().zip(incoming).for_each(|(o, i)| *o |= i);
                true
            } else {
                false
            };
            back |= grew && succ <= pc;
        }
        back
    }
}

/// The successors of `ops[pc]`, each with whether it receives the
/// op's in-state (the exit edge of `LoopTestSet`, which publishes the
/// loop variable only on the fall-through edge) rather than its
/// out-state.
fn successors(op: &Op, pc: usize) -> [Option<(usize, bool)>; 2] {
    match *op {
        Op::Jump { target } | Op::LoopIncrJump { target, .. } => {
            [Some((target as usize, false)), None]
        }
        Op::JumpIfFalse { target, .. } | Op::LoopTest { exit: target, .. } => {
            [Some((pc + 1, false)), Some((target as usize, false))]
        }
        Op::LoopTestSet { exit, .. } => [Some((pc + 1, false)), Some((exit as usize, true))],
        Op::Fail { .. } => [None, None],
        _ => [Some((pc + 1, false)), None],
    }
}

/// One lowering: fused `Op`s in, `TOp`s out, the abstract state
/// stepped alongside.
struct Lower<'a> {
    chunk: &'a Chunk,
    writes: &'a dyn Fn(usize, usize) -> u8,
    nslots: usize,
    /// First scratch register (two follow the chunk's registers).
    scratch: Reg,
    /// Scalar slots read while they may hold their entry value.
    live: Vec<bool>,
    /// Array slots the typed ops address.
    used: Vec<bool>,
    /// A read saw more than one possible type.
    dynamic: bool,
    out: Vec<TOp>,
    call_regs: Vec<Vec<(TReg, Ty)>>,
}

/// `r` as a typed register: exact, as [`type_chunk`] types only a chunk
/// whose registers, scratch included, are below [`TREGS`].
fn treg(r: Reg) -> TReg {
    r as TReg
}

impl Lower<'_> {
    fn ty_of(&mut self, flags: u8) -> Ty {
        match flags & ANY {
            INT => Ty::Int,
            REAL => Ty::Real,
            _ => {
                self.dynamic = true;
                Ty::Int
            }
        }
    }

    fn slot(&mut self, st: &[u8], s: u16) -> Ty {
        let mut f = st[s as usize];
        if f & ENTRY != 0 {
            self.live[s as usize] = true;
            f |= bit(self.decl(s));
        }
        self.ty_of(f)
    }

    fn reg(&mut self, st: &[u8], r: Reg) -> Ty {
        let f = st[self.nslots + r as usize];
        if f & ENTRY != 0 {
            self.dynamic = true;
        }
        self.ty_of(f)
    }

    fn ints(&mut self, st: &[u8], regs: [Reg; 3]) {
        for r in regs {
            if self.reg(st, r) != Ty::Int {
                self.dynamic = true;
            }
        }
    }

    fn set_slot(&self, st: &mut [u8], s: u16, ty: Ty) {
        st[s as usize] = bit(ty);
    }

    fn set_reg(&self, st: &mut [u8], r: Reg, ty: Ty) {
        st[self.nslots + r as usize] = bit(ty);
    }

    fn decl(&self, s: u16) -> Ty {
        self.chunk.scalars[s as usize].1
    }

    fn arr(&mut self, a: u16) -> Ty {
        self.used[a as usize] = true;
        self.chunk.arrays[a as usize].1
    }

    fn konst(&self, k: u16) -> (u64, Ty) {
        match self.chunk.consts[k as usize] {
            Value::Int(i) => (i as u64, Ty::Int),
            Value::Real(r) => (r.to_bits(), Ty::Real),
        }
    }

    /// Whether a subscript slot holds an `Int` (the typed element forms
    /// need one; a `Real` subscript expands the superinstruction).
    fn int_slot(&mut self, st: &[u8], s: u16) -> bool {
        self.slot(st, s) == Ty::Int
    }

    /// The `Real` mask of `n` subscript registers from `base`.
    fn subscripts(&mut self, st: &[u8], base: Reg, n: u8) -> u8 {
        (0..n).fold(0, |m, k| {
            m | (u8::from(self.reg(st, base + u16::from(k)) == Ty::Real) << k)
        })
    }

    fn emit(&mut self, op: TOp) {
        self.out.push(op);
    }

    /// Lowers `op`, stepping `st` to its fall-through out-state.
    fn lower(&mut self, op: &Op, st: &mut [u8]) {
        match *op {
            Op::Charge(u) => self.emit(TOp::Charge(u)),
            Op::Const { dst, k } => {
                let (bits, ty) = self.konst(k);
                let real = ty == Ty::Real;
                self.emit(TOp::Const {
                    dst: treg(dst),
                    bits,
                    real,
                });
                self.set_reg(st, dst, ty);
            }
            Op::LoadScalar { dst, slot } => {
                let t = self.slot(st, slot);
                self.emit(TOp::LoadSlot {
                    dst: treg(dst),
                    slot,
                });
                self.set_reg(st, dst, t);
            }
            Op::StoreScalar { slot, src } => {
                let (t, d) = (self.reg(st, src), self.decl(slot));
                let (cvt, tag) = (Cvt::between(t, d), bit(d));
                self.emit(TOp::StoreSlot {
                    slot,
                    src: treg(src),
                    cvt,
                    tag,
                });
                self.set_slot(st, slot, d);
            }
            Op::SetVarRaw { slot, src } => {
                let t = self.reg(st, src);
                let tag = bit(t);
                self.emit(TOp::StoreSlot {
                    slot,
                    src: treg(src),
                    cvt: Cvt::No,
                    tag,
                });
                self.set_slot(st, slot, t);
            }
            Op::LoadElem { dst, arr, base, n } => {
                let reals = self.subscripts(st, base, n);
                let k = self.arr(arr);
                self.emit(if n == 1 && reals == 0 {
                    TOp::Load {
                        dst: treg(dst),
                        arr,
                        idx: treg(base),
                    }
                } else {
                    TOp::LoadN {
                        dst: treg(dst),
                        arr,
                        base: treg(base),
                        n,
                        reals,
                    }
                });
                self.set_reg(st, dst, k);
            }
            Op::StoreElem { arr, base, n, src } => {
                let t = self.reg(st, src);
                let reals = self.subscripts(st, base, n);
                let cvt = Cvt::between(t, self.arr(arr));
                self.emit(if n == 1 && reals == 0 {
                    TOp::Store {
                        arr,
                        idx: treg(base),
                        src: treg(src),
                        cvt,
                    }
                } else {
                    TOp::StoreN {
                        arr,
                        base: treg(base),
                        n,
                        reals,
                        src: treg(src),
                        cvt,
                    }
                });
            }
            Op::Un { op, dst, src } => {
                let t = self.reg(st, src);
                let real = t == Ty::Real;
                self.emit(TOp::Un {
                    op,
                    real,
                    dst: treg(dst),
                    src: treg(src),
                });
                self.set_reg(st, dst, if op == UnOp::Neg { t } else { Ty::Int });
            }
            Op::Bin { op, dst, a, b } => {
                let mode = Mode::of(self.reg(st, a), self.reg(st, b));
                self.emit(TOp::Bin {
                    op,
                    mode,
                    dst: treg(dst),
                    a: treg(a),
                    b: treg(b),
                });
                self.set_reg(st, dst, mode.result(op));
            }
            Op::Intrin { intr, dst, base, n } => self.intrinsic(st, intr, dst, base, n),
            Op::Jump { target } => self.emit(TOp::Jump { target }),
            Op::JumpIfFalse { cond, target } => {
                let real = self.reg(st, cond) == Ty::Real;
                self.emit(TOp::JumpIfFalse {
                    cond: treg(cond),
                    target,
                    real,
                });
            }
            Op::LoopInit {
                i,
                hi,
                step,
                var_slot,
            } => {
                for r in [i, hi, step] {
                    if self.reg(st, r) == Ty::Real {
                        self.emit(TOp::Cvt {
                            dst: treg(r),
                            src: treg(r),
                            cvt: Cvt::RtoI,
                        });
                    }
                    self.set_reg(st, r, Ty::Int);
                }
                self.emit(TOp::LoopInit {
                    step: treg(step),
                    var_slot,
                });
            }
            Op::LoopTest { i, hi, step, exit } => {
                self.ints(st, [i, hi, step]);
                self.emit(TOp::LoopTest {
                    i: treg(i),
                    hi: treg(hi),
                    step: treg(step),
                    exit,
                });
            }
            Op::LoopIncr { i, step } => {
                self.ints(st, [i, step, step]);
                self.emit(TOp::LoopIncr {
                    i: treg(i),
                    step: treg(step),
                });
                self.set_reg(st, i, Ty::Int);
            }
            Op::Call { site } => self.call(st, site),
            Op::Read { site } => {
                for &s in &self.chunk.reads[site as usize] {
                    st[s as usize] = ANY;
                }
                self.emit(TOp::Read { site });
            }
            Op::Fail { site } => self.emit(TOp::Fail { site }),
            _ => self.lower_fused(op, st),
        }
    }

    fn intrinsic(&mut self, st: &mut [u8], intr: Intrinsic, dst: Reg, base: Reg, n: u8) {
        let tys: Vec<Ty> = (0..n).map(|k| self.reg(st, base + u16::from(k))).collect();
        let int = |t: Option<&Ty>| t.is_none_or(|t| *t == Ty::Int);
        let res = match intr {
            Intrinsic::Min | Intrinsic::Max => {
                if tys.iter().all(|t| *t == Ty::Int) {
                    Ty::Int
                } else {
                    Ty::Real
                }
            }
            Intrinsic::Mod if int(tys.first()) && int(tys.get(1)) => Ty::Int,
            Intrinsic::Abs | Intrinsic::Int if int(tys.first()) => Ty::Int,
            Intrinsic::Int => Ty::Int,
            _ => Ty::Real,
        };
        let op = match (intr, tys.as_slice()) {
            (Intrinsic::Sqrt | Intrinsic::Exp | Intrinsic::Sin | Intrinsic::Cos, [t]) => {
                TOp::Math {
                    intr,
                    real: *t == Ty::Real,
                    dst: treg(dst),
                    src: treg(base),
                }
            }
            (Intrinsic::Int | Intrinsic::Dble, [t]) => TOp::Cvt {
                dst: treg(dst),
                src: treg(base),
                cvt: Cvt::between(*t, res),
            },
            _ if n <= 32 => TOp::Intrin {
                intr,
                dst: treg(dst),
                base: treg(base),
                n,
                reals: tys
                    .iter()
                    .enumerate()
                    .fold(0, |m, (k, t)| m | (u32::from(*t == Ty::Real) << k)),
            },
            _ => {
                self.dynamic = true;
                TOp::Fail { site: 0 }
            }
        };
        self.emit(op);
        self.set_reg(st, dst, res);
    }

    fn call(&mut self, st: &mut [u8], site: u16) {
        let cs = &self.chunk.calls[site as usize];
        let mut regs = Vec::new();
        for (p, spec) in cs.args.iter().enumerate() {
            match *spec {
                ArgSpec::Value { reg } => regs.push((treg(reg), self.reg(st, reg))),
                ArgSpec::Section { base, n, .. } => {
                    for k in 0..u16::from(n) {
                        regs.push((treg(base + k), self.reg(st, base + k)));
                    }
                }
                // Copy-in / copy-out runs on the frame's tagged slots;
                // what comes back is the value passed or what the
                // callee may write.
                ArgSpec::Var { scalar, .. } => st[scalar as usize] |= (self.writes)(cs.callee, p),
            }
        }
        self.call_regs[site as usize] = regs;
        self.emit(TOp::Call { site });
    }

    fn lower_fused(&mut self, op: &Op, st: &mut [u8]) {
        match *op {
            Op::FusedBinSS {
                charge,
                op,
                dst,
                a_slot,
                b_slot,
            } => {
                let mode = Mode::of(self.slot(st, a_slot), self.slot(st, b_slot));
                self.emit(TOp::BinSS {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    a_slot,
                    b_slot,
                });
                self.set_reg(st, dst, mode.result(op));
            }
            Op::FusedBinRS {
                charge,
                op,
                dst,
                a,
                b_slot,
            } => {
                let mode = Mode::of(self.reg(st, a), self.slot(st, b_slot));
                self.emit(TOp::BinRS {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    a: treg(a),
                    b_slot,
                });
                self.set_reg(st, dst, mode.result(op));
            }
            Op::FusedBinRK {
                charge,
                op,
                dst,
                a,
                k,
            } => {
                let (mode, k) = Mode::with_const(self.reg(st, a), self.konst(k));
                self.emit(TOp::BinRK {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    a: treg(a),
                    k,
                });
                self.set_reg(st, dst, mode.result(op));
            }
            Op::FusedBinRE {
                charge,
                op,
                dst,
                a,
                arr,
                idx_slot,
            } if self.int_slot(st, idx_slot) => {
                let mode = Mode::of(self.reg(st, a), self.arr(arr));
                self.emit(TOp::BinRE {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    a: treg(a),
                    arr,
                    idx_slot,
                });
                self.set_reg(st, dst, mode.result(op));
            }
            Op::FusedBinStore {
                charge,
                op,
                slot,
                dst,
                a,
                b,
            } => {
                let mode = Mode::of(self.reg(st, a), self.reg(st, b));
                let (res, d) = (mode.result(op), self.decl(slot));
                self.emit(TOp::BinStore {
                    charge,
                    op,
                    mode,
                    slot,
                    dst: treg(dst),
                    a: treg(a),
                    b: treg(b),
                    cvt: Cvt::between(res, d),
                    tag: bit(d),
                });
                self.set_reg(st, dst, res);
                self.set_slot(st, slot, d);
            }
            Op::FusedLoadElemS {
                charge,
                dst,
                arr,
                idx_slot,
            } if self.int_slot(st, idx_slot) => {
                let k = self.arr(arr);
                self.emit(TOp::LoadElemS {
                    charge,
                    dst: treg(dst),
                    arr,
                    idx_slot,
                });
                self.set_reg(st, dst, k);
            }
            Op::FusedStoreElemS {
                charge,
                arr,
                idx_slot,
                src,
            } if self.int_slot(st, idx_slot) => {
                let cvt = Cvt::between(self.reg(st, src), self.arr(arr));
                self.emit(TOp::StoreElemS {
                    charge,
                    arr,
                    idx_slot,
                    src: treg(src),
                    cvt,
                });
            }
            Op::FusedElemUpdateK {
                charge,
                op,
                dst,
                arr,
                idx_slot,
                k,
            } if self.int_slot(st, idx_slot) => {
                let ka = self.arr(arr);
                let (mode, k) = Mode::with_const(ka, self.konst(k));
                let res = mode.result(op);
                self.emit(TOp::ElemUpdateK {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    arr,
                    idx_slot,
                    k,
                    cvt: Cvt::between(res, ka),
                });
                self.set_reg(st, dst, res);
            }
            Op::FusedElemUpdateS {
                charge,
                op,
                dst,
                arr,
                idx_slot,
                b_slot,
            } if self.int_slot(st, idx_slot) => {
                let ka = self.arr(arr);
                let mode = Mode::of(ka, self.slot(st, b_slot));
                let res = mode.result(op);
                self.emit(TOp::ElemUpdateS {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    arr,
                    idx_slot,
                    b_slot,
                    cvt: Cvt::between(res, ka),
                });
                self.set_reg(st, dst, res);
            }
            Op::ChargedConst { charge, dst, k } => {
                let (bits, ty) = self.konst(k);
                let real = ty == Ty::Real;
                self.emit(TOp::ChargedConst {
                    charge,
                    dst: treg(dst),
                    bits,
                    real,
                });
                self.set_reg(st, dst, ty);
            }
            Op::ChargedLoadScalar { charge, dst, slot } => {
                let t = self.slot(st, slot);
                self.emit(TOp::ChargedLoadSlot {
                    charge,
                    dst: treg(dst),
                    slot,
                });
                self.set_reg(st, dst, t);
            }
            Op::FusedLoadElemE {
                charge,
                dst,
                idx_arr,
                idx_slot,
                arr,
            } if self.int_slot(st, idx_slot) && self.arr(idx_arr) == Ty::Int => {
                let k = self.arr(arr);
                self.emit(TOp::LoadElemE {
                    charge,
                    dst: treg(dst),
                    idx_arr,
                    idx_slot,
                    arr,
                });
                self.set_reg(st, dst, k);
            }
            Op::FusedStoreElemE {
                charge,
                idx_arr,
                idx_slot,
                arr,
                src,
            } if self.int_slot(st, idx_slot) && self.arr(idx_arr) == Ty::Int => {
                let cvt = Cvt::between(self.reg(st, src), self.arr(arr));
                self.emit(TOp::StoreElemE {
                    charge,
                    idx_arr,
                    idx_slot,
                    arr,
                    src: treg(src),
                    cvt,
                });
            }
            Op::FusedElemUpdateE {
                charge,
                op,
                dst,
                arr,
                idx_arr,
                idx_slot,
                idx_op,
                idx_k,
                k,
            } if self.int_slot(st, idx_slot)
                && self.arr(idx_arr) == Ty::Int
                && self.konst(idx_k).1 == Ty::Int =>
            {
                let ka = self.arr(arr);
                let (mode, k) = Mode::with_const(ka, self.konst(k));
                let res = mode.result(op);
                self.emit(TOp::ElemUpdateE {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    arr,
                    idx_arr,
                    idx_slot,
                    idx_op,
                    idx_k: self.konst(idx_k).0 as i64,
                    k,
                    cvt: Cvt::between(res, ka),
                });
                self.set_reg(st, dst, res);
            }
            Op::FusedRedAccS {
                charge,
                op,
                dst,
                acc_slot,
                arr,
                idx_slot,
            } if self.int_slot(st, idx_slot) => {
                let mode = Mode::of(self.slot(st, acc_slot), self.arr(arr));
                let (res, d) = (mode.result(op), self.decl(acc_slot));
                self.emit(TOp::RedAccS {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    acc_slot,
                    arr,
                    idx_slot,
                    cvt: Cvt::between(res, d),
                    tag: bit(d),
                });
                self.set_reg(st, dst, res);
                self.set_slot(st, acc_slot, d);
            }
            Op::FusedRedElemK {
                charge,
                op,
                dst,
                arr,
                idx_arr,
                idx_slot,
                k,
            } if self.int_slot(st, idx_slot) && self.arr(idx_arr) == Ty::Int => {
                let ka = self.arr(arr);
                let (mode, k) = Mode::with_const(ka, self.konst(k));
                let res = mode.result(op);
                self.emit(TOp::RedElemK {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    arr,
                    idx_arr,
                    idx_slot,
                    k,
                    cvt: Cvt::between(res, ka),
                });
                self.set_reg(st, dst, res);
            }
            Op::FusedRedElemS {
                charge,
                op,
                dst,
                arr,
                idx_arr,
                idx_slot,
                b_slot,
            } if self.int_slot(st, idx_slot) && self.arr(idx_arr) == Ty::Int => {
                let ka = self.arr(arr);
                let mode = Mode::of(ka, self.slot(st, b_slot));
                let res = mode.result(op);
                self.emit(TOp::RedElemS {
                    charge,
                    op,
                    mode,
                    dst: treg(dst),
                    arr,
                    idx_arr,
                    idx_slot,
                    b_slot,
                    cvt: Cvt::between(res, ka),
                });
                self.set_reg(st, dst, res);
            }
            Op::LoopTestSet {
                i,
                hi,
                step,
                exit,
                var_slot,
            } => {
                self.ints(st, [i, hi, step]);
                self.emit(TOp::LoopTestSet {
                    i: treg(i),
                    hi: treg(hi),
                    step: treg(step),
                    exit,
                    var_slot,
                });
                self.set_slot(st, var_slot, Ty::Int);
            }
            Op::LoopIncrJump { i, step, target } => {
                self.ints(st, [i, step, step]);
                self.emit(TOp::LoopIncrJump {
                    i: treg(i),
                    step: treg(step),
                    target,
                });
                self.set_reg(st, i, Ty::Int);
            }
            _ => {
                let mut plain = Vec::new();
                peephole::expand_full(op, &[self.scratch, self.scratch + 1], &mut plain);
                for simple in &plain {
                    self.lower(simple, st);
                }
            }
        }
    }
}

// ---- Execution ---------------------------------------------------------

/// An array resolved once per activation: its typed cells (the other
/// kind's slice is empty), the view offset less one, so a rank-1
/// subscript `i` addresses cell `base + i`, and whether the tracer
/// wants its writes.
#[derive(Clone, Copy)]
struct TArr<'f> {
    ints: &'f [AtomicI64],
    reals: &'f [AtomicU64],
    len: usize,
    base: i64,
    real: bool,
    /// [`AccessTracer::wants_writes`] of the buffer, asked once.
    hooked: bool,
    /// The first declared extent: the column stride of a rank-2 access.
    ext0: Option<i64>,
}

impl<'f> TArr<'f> {
    const EMPTY: TArr<'static> = TArr {
        ints: &[],
        reals: &[],
        len: 0,
        base: 0,
        real: false,
        hooked: false,
        ext0: None,
    };

    /// `view` as cells of `ty`, which the guard checked it holds.
    #[inline(always)]
    fn of(view: &'f ArrayView, ty: Ty, tracer: Option<&dyn AccessTracer>) -> TArr<'f> {
        let (ints, reals) = match ty {
            Ty::Int => (view.buf.int_cells().unwrap_or(&[]), &[][..]),
            Ty::Real => (&[][..], view.buf.real_cells().unwrap_or(&[])),
        };
        TArr {
            ints,
            reals,
            len: ints.len() + reals.len(),
            base: (view.offset as i64).wrapping_sub(1),
            real: ty == Ty::Real,
            hooked: tracer.is_some_and(|t| t.wants_writes(&view.buf)),
            ext0: view.extents.first().copied(),
        }
    }

    /// The cell a rank-1 subscript addresses, when in bounds (the
    /// `Value` stream's `offset + (i - 1)` check).
    #[inline(always)]
    fn index(&self, i: i64) -> Option<usize> {
        let abs = self.base.wrapping_add(i) as u64;
        (abs < self.len as u64).then_some(abs as usize)
    }

    /// The cell an `Int` rank-2 subscript addresses: exactly
    /// [`ArrayView::linearize`] on two subscripts (every overflow is out
    /// of bounds) and its bounds check.
    #[inline(always)]
    fn index2(&self, i: i64, j: i64) -> Option<usize> {
        let lin = i
            .checked_sub(1)?
            .checked_add(j.checked_sub(1)?.checked_mul(self.ext0?)?)?;
        let abs = self.base.wrapping_add(1).checked_add(lin)?;
        (abs >= 0 && (abs as u64) < self.len as u64).then_some(abs as usize)
    }

    #[inline(always)]
    fn get(&self, abs: usize) -> u64 {
        if self.real {
            self.reals[abs].load(Ordering::Relaxed)
        } else {
            self.ints[abs].load(Ordering::Relaxed) as u64
        }
    }

    #[inline(always)]
    fn set(&self, abs: usize, bits: u64) {
        if self.real {
            self.reals[abs].store(bits, Ordering::Relaxed);
        } else {
            self.ints[abs].store(bits as i64, Ordering::Relaxed);
        }
    }
}

/// `apply_bin` on raw words whose types `mode` fixes.
#[inline(always)]
fn bin(op: BinOp, mode: Mode, a: u64, b: u64) -> Result<u64, RunError> {
    let f = f64::from_bits;
    match mode {
        Mode::II => bin_i(op, a as i64, b as i64).map(|v| v as u64),
        Mode::RR => Ok(bin_r(op, f(a), f(b))),
        Mode::IR => Ok(bin_r(op, a as i64 as f64, f(b))),
        Mode::RI => Ok(bin_r(op, f(a), b as i64 as f64)),
    }
}

/// Integer mode: `+ - *` wrap, `/` and `**` go through `int_div_pow`
/// (an overflow is [`RunError::IntOverflow`]).
#[inline(always)]
fn bin_i(op: BinOp, a: i64, b: i64) -> Result<i64, RunError> {
    use BinOp::*;
    Ok(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div | Pow => return int_div_pow(op, a, b),
        Eq => i64::from(a == b),
        Ne => i64::from(a != b),
        Lt => i64::from(a < b),
        Le => i64::from(a <= b),
        Gt => i64::from(a > b),
        Ge => i64::from(a >= b),
        And => i64::from(a != 0 && b != 0),
        Or => i64::from(a != 0 || b != 0),
    })
}

/// Real mode: arithmetic gives `f64` bits, comparisons and connectives
/// an `Int` 0 / 1.
#[inline(always)]
fn bin_r(op: BinOp, a: f64, b: f64) -> u64 {
    use BinOp::*;
    match op {
        Add => (a + b).to_bits(),
        Sub => (a - b).to_bits(),
        Mul => (a * b).to_bits(),
        Div => (a / b).to_bits(),
        Pow => a.powf(b).to_bits(),
        Eq => u64::from(a == b),
        Ne => u64::from(a != b),
        Lt => u64::from(a < b),
        Le => u64::from(a <= b),
        Gt => u64::from(a > b),
        Ge => u64::from(a >= b),
        And => u64::from(a != 0.0 && b != 0.0),
        Or => u64::from(a != 0.0 || b != 0.0),
    }
}

fn value(bits: u64, real: bool) -> Value {
    if real {
        Value::Real(f64::from_bits(bits))
    } else {
        Value::Int(bits as i64)
    }
}

fn bits(v: Value) -> u64 {
    match v {
        Value::Int(i) => i as u64,
        Value::Real(r) => r.to_bits(),
    }
}

/// The intrinsics without a dedicated typed form (`MIN`, `MAX`, `MOD`,
/// `ABS`): `apply_intrinsic` on the arguments rebuilt as `Value`s in a
/// stack buffer (the lowering admits at most 32).
#[inline(never)]
fn intrinsic(intr: Intrinsic, args: &[u64], reals: u32) -> Result<u64, RunError> {
    let mut vals = [Value::Int(0); 32];
    for (k, (v, &b)) in vals.iter_mut().zip(args).enumerate() {
        *v = value(b, reals >> k & 1 != 0);
    }
    apply_intrinsic(intr, &vals[..args.len()]).map(bits)
}

#[cold]
#[inline(never)]
fn bad_index(chunk: &Chunk, arr: u16) -> RunError {
    RunError::BadIndex(chunk.arrays[arr as usize].0)
}

/// The cell an any-rank subscript addresses (`LoadN` / `StoreN`): two
/// `Int` subscripts inline through [`TArr::index2`], anything else
/// through [`index_general`].
#[inline(always)]
fn index_n(
    chunk: &Chunk,
    arrays: &[Option<ArrayView>],
    tab: &[TArr],
    r: &[u64; TREGS],
    (arr, base, n, reals): (u16, TReg, u8, u8),
) -> Result<usize, RunError> {
    if n == 2 && reals == 0 {
        // `base + 1` is the chunk's register, so the wrap never happens.
        let (i, j) = (r[base as usize], r[base.wrapping_add(1) as usize]);
        return tab[arr as usize]
            .index2(i as i64, j as i64)
            .ok_or_else(|| bad_index(chunk, arr));
    }
    index_general(chunk, arrays, tab, r, (arr, base, n, reals))
}

/// Rank 1 as [`TArr::index`], rank > 1 through [`ArrayView::linearize`],
/// as the `Value` stream does; a `REAL` subscript truncates.
#[inline(never)]
fn index_general(
    chunk: &Chunk,
    arrays: &[Option<ArrayView>],
    tab: &[TArr],
    r: &[u64; TREGS],
    (arr, base, n, reals): (u16, TReg, u8, u8),
) -> Result<usize, RunError> {
    let mut idx = [0i64; 7];
    for (k, i) in idx.iter_mut().take(n as usize).enumerate() {
        let b = r[base as usize + k];
        *i = if reals >> k & 1 != 0 {
            f64::from_bits(b) as i64
        } else {
            b as i64
        };
    }
    let found = if n == 1 {
        tab[arr as usize].index(idx[0])
    } else {
        arrays[arr as usize]
            .as_ref()
            .and_then(|v| v.linearize(&idx[..n as usize]))
    };
    found.ok_or_else(|| bad_index(chunk, arr))
}

impl Vm<'_> {
    /// The typed dispatch loop: [`Vm`]'s `Value` loop on raw registers,
    /// for an activation [`Typed::admits`]. `range` as for that loop.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_typed<const COUNT: bool, O: IterObserver>(
        &self,
        chunk: &Chunk,
        t: &Typed,
        range: Option<(u16, i64, i64, i64)>,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
        obs: &mut O,
    ) -> Result<(), RunError> {
        let Frame {
            regs: vregs,
            tregs,
            scalars: s,
            arrays,
            callees,
            ..
        } = frame;
        let r = &mut **tregs.get_or_insert_with(|| Box::new([0; TREGS]));
        let arrays = &arrays[..];
        let mut stack = [TArr::EMPTY; 8];
        let mut heap = Vec::new();
        let tab: &mut [TArr<'_>] = if arrays.len() <= stack.len() {
            &mut stack[..arrays.len()]
        } else {
            heap.resize(arrays.len(), TArr::EMPTY);
            &mut heap
        };
        for &(a, ty) in &t.arrays {
            if let Some(view) = &arrays[a as usize] {
                tab[a as usize] = TArr::of(view, ty, tracer);
            }
        }
        let tab = &*tab;
        let ops = &t.ops[..];
        let name = |arr: u16| chunk.arrays[arr as usize].0;
        let at = |arr: u16, i: u64| {
            tab[arr as usize]
                .index(i as i64)
                .ok_or_else(|| bad_index(chunk, arr))
        };
        let (var_slot, mut iter, last, step) = match range {
            Some((slot, first, last, step)) => (Some(slot), first, last, step),
            None => (None, 0, 0, 0),
        };
        macro_rules! charge {
            ($c:expr) => {
                if $c > 0 {
                    state.charge(u64::from($c))?;
                }
            };
        }
        // An access only reaches the hook after `at` resolved its view.
        let buf = |arr: u16| &*arrays[arr as usize].as_ref().expect("resolved").buf;
        let reader = tracer.filter(|t| t.wants_reads());
        macro_rules! read {
            ($arr:expr, $abs:expr) => {
                if let Some(tr) = reader {
                    tr.read(name($arr), buf($arr), $abs);
                }
            };
        }
        macro_rules! write {
            ($arr:expr, $abs:expr) => {
                if let Some(tr) = tracer {
                    if tab[$arr as usize].hooked {
                        tr.write(name($arr), buf($arr), $abs);
                    }
                }
            };
        }
        loop {
            if let Some(v) = var_slot {
                s[v as usize] = Slot::int(iter);
                if !obs.enter(iter, state.cost, Scalars(s)) {
                    return Ok(());
                }
            }
            let mut pc = 0usize;
            while pc < ops.len() {
                if COUNT {
                    counts.ops += 1;
                    counts.fused_ops += u64::from(ops[pc].is_fused());
                    counts.red_ops += u64::from(ops[pc].is_reduction());
                }
                match ops[pc] {
                    TOp::Charge(u) => state.charge(u64::from(u))?,
                    TOp::Const { dst, bits, .. } => r[dst as usize] = bits,
                    TOp::ChargedConst {
                        charge, dst, bits, ..
                    } => {
                        state.charge(u64::from(charge))?;
                        r[dst as usize] = bits;
                    }
                    TOp::LoadSlot { dst, slot } => r[dst as usize] = s[slot as usize].bits,
                    TOp::ChargedLoadSlot { charge, dst, slot } => {
                        state.charge(u64::from(charge))?;
                        r[dst as usize] = s[slot as usize].bits;
                    }
                    TOp::StoreSlot {
                        slot,
                        src,
                        cvt,
                        tag,
                    } => {
                        s[slot as usize] = Slot {
                            bits: cvt.apply(r[src as usize]),
                            tag,
                        };
                    }
                    TOp::Cvt { dst, src, cvt } => r[dst as usize] = cvt.apply(r[src as usize]),
                    TOp::Un { op, real, dst, src } => {
                        let x = r[src as usize];
                        r[dst as usize] = match (op, real) {
                            (UnOp::Neg, false) => {
                                (x as i64).checked_neg().ok_or(RunError::IntOverflow)? as u64
                            }
                            (UnOp::Neg, true) => (-f64::from_bits(x)).to_bits(),
                            (UnOp::Not, false) => u64::from(x == 0),
                            (UnOp::Not, true) => u64::from(f64::from_bits(x) == 0.0),
                        };
                    }
                    TOp::Bin {
                        op,
                        mode,
                        dst,
                        a,
                        b,
                    } => {
                        r[dst as usize] = bin(op, mode, r[a as usize], r[b as usize])?;
                    }
                    TOp::BinSS {
                        charge,
                        op,
                        mode,
                        dst,
                        a_slot,
                        b_slot,
                    } => {
                        charge!(charge);
                        r[dst as usize] =
                            bin(op, mode, s[a_slot as usize].bits, s[b_slot as usize].bits)?;
                    }
                    TOp::BinRS {
                        charge,
                        op,
                        mode,
                        dst,
                        a,
                        b_slot,
                    } => {
                        charge!(charge);
                        r[dst as usize] = bin(op, mode, r[a as usize], s[b_slot as usize].bits)?;
                    }
                    TOp::BinRK {
                        charge,
                        op,
                        mode,
                        dst,
                        a,
                        k,
                    } => {
                        charge!(charge);
                        r[dst as usize] = bin(op, mode, r[a as usize], k)?;
                    }
                    TOp::BinRE {
                        charge,
                        op,
                        mode,
                        dst,
                        a,
                        arr,
                        idx_slot,
                    } => {
                        charge!(charge);
                        let abs = at(arr, s[idx_slot as usize].bits)?;
                        read!(arr, abs);
                        let b = tab[arr as usize].get(abs);
                        r[dst as usize] = bin(op, mode, r[a as usize], b)?;
                    }
                    TOp::BinStore {
                        charge,
                        op,
                        mode,
                        slot,
                        dst,
                        a,
                        b,
                        cvt,
                        tag,
                    } => {
                        charge!(charge);
                        let v = bin(op, mode, r[a as usize], r[b as usize])?;
                        r[dst as usize] = v;
                        s[slot as usize] = Slot {
                            bits: cvt.apply(v),
                            tag,
                        };
                    }
                    TOp::Math {
                        intr,
                        real,
                        dst,
                        src,
                    } => {
                        let b = r[src as usize];
                        let x = if real {
                            f64::from_bits(b)
                        } else {
                            b as i64 as f64
                        };
                        r[dst as usize] = match intr {
                            Intrinsic::Sqrt => x.sqrt(),
                            Intrinsic::Exp => x.exp(),
                            Intrinsic::Sin => x.sin(),
                            _ => x.cos(),
                        }
                        .to_bits();
                    }
                    TOp::Intrin {
                        intr,
                        dst,
                        base,
                        n,
                        reals,
                    } => {
                        let args = &r[base as usize..base as usize + n as usize];
                        r[dst as usize] = intrinsic(intr, args, reals)?;
                    }
                    TOp::Load { dst, arr, idx } => {
                        let abs = at(arr, r[idx as usize])?;
                        read!(arr, abs);
                        r[dst as usize] = tab[arr as usize].get(abs);
                    }
                    TOp::LoadN {
                        dst,
                        arr,
                        base,
                        n,
                        reals,
                    } => {
                        let abs = index_n(chunk, arrays, tab, r, (arr, base, n, reals))?;
                        read!(arr, abs);
                        r[dst as usize] = tab[arr as usize].get(abs);
                    }
                    TOp::Store { arr, idx, src, cvt } => {
                        let v = cvt.apply(r[src as usize]);
                        let abs = at(arr, r[idx as usize])?;
                        write!(arr, abs);
                        tab[arr as usize].set(abs, v);
                    }
                    TOp::StoreN {
                        arr,
                        base,
                        n,
                        reals,
                        src,
                        cvt,
                    } => {
                        let v = cvt.apply(r[src as usize]);
                        let abs = index_n(chunk, arrays, tab, r, (arr, base, n, reals))?;
                        write!(arr, abs);
                        tab[arr as usize].set(abs, v);
                    }
                    TOp::LoadElemS {
                        charge,
                        dst,
                        arr,
                        idx_slot,
                    } => {
                        charge!(charge);
                        let abs = at(arr, s[idx_slot as usize].bits)?;
                        read!(arr, abs);
                        r[dst as usize] = tab[arr as usize].get(abs);
                    }
                    TOp::StoreElemS {
                        charge,
                        arr,
                        idx_slot,
                        src,
                        cvt,
                    } => {
                        charge!(charge);
                        let v = cvt.apply(r[src as usize]);
                        let abs = at(arr, s[idx_slot as usize].bits)?;
                        write!(arr, abs);
                        tab[arr as usize].set(abs, v);
                    }
                    TOp::ElemUpdateK {
                        charge,
                        op,
                        mode,
                        dst,
                        arr,
                        idx_slot,
                        k,
                        cvt,
                    } => {
                        charge!(charge);
                        let abs = at(arr, s[idx_slot as usize].bits)?;
                        read!(arr, abs);
                        let v = bin(op, mode, tab[arr as usize].get(abs), k)?;
                        write!(arr, abs);
                        tab[arr as usize].set(abs, cvt.apply(v));
                        r[dst as usize] = v;
                    }
                    TOp::ElemUpdateS {
                        charge,
                        op,
                        mode,
                        dst,
                        arr,
                        idx_slot,
                        b_slot,
                        cvt,
                    } => {
                        charge!(charge);
                        let abs = at(arr, s[idx_slot as usize].bits)?;
                        read!(arr, abs);
                        let cur = tab[arr as usize].get(abs);
                        let v = bin(op, mode, cur, s[b_slot as usize].bits)?;
                        write!(arr, abs);
                        tab[arr as usize].set(abs, cvt.apply(v));
                        r[dst as usize] = v;
                    }
                    TOp::LoadElemE {
                        charge,
                        dst,
                        idx_arr,
                        idx_slot,
                        arr,
                    } => {
                        charge!(charge);
                        let iabs = at(idx_arr, s[idx_slot as usize].bits)?;
                        read!(idx_arr, iabs);
                        let abs = at(arr, tab[idx_arr as usize].get(iabs))?;
                        read!(arr, abs);
                        r[dst as usize] = tab[arr as usize].get(abs);
                    }
                    TOp::StoreElemE {
                        charge,
                        idx_arr,
                        idx_slot,
                        arr,
                        src,
                        cvt,
                    } => {
                        charge!(charge);
                        let iabs = at(idx_arr, s[idx_slot as usize].bits)?;
                        read!(idx_arr, iabs);
                        let v = cvt.apply(r[src as usize]);
                        let abs = at(arr, tab[idx_arr as usize].get(iabs))?;
                        write!(arr, abs);
                        tab[arr as usize].set(abs, v);
                    }
                    TOp::ElemUpdateE {
                        charge,
                        op,
                        mode,
                        dst,
                        arr,
                        idx_arr,
                        idx_slot,
                        idx_op,
                        idx_k,
                        k,
                        cvt,
                    } => {
                        charge!(charge);
                        let iabs = at(idx_arr, s[idx_slot as usize].bits)?;
                        read!(idx_arr, iabs);
                        let j = tab[idx_arr as usize].get(iabs) as i64;
                        let abs = at(arr, bin_i(idx_op, j, idx_k)? as u64)?;
                        read!(arr, abs);
                        let v = bin(op, mode, tab[arr as usize].get(abs), k)?;
                        // The unfused store recomputes its subscript: a
                        // second traced index read before the write.
                        read!(idx_arr, iabs);
                        write!(arr, abs);
                        tab[arr as usize].set(abs, cvt.apply(v));
                        r[dst as usize] = v;
                    }
                    TOp::RedAccS {
                        charge,
                        op,
                        mode,
                        dst,
                        acc_slot,
                        arr,
                        idx_slot,
                        cvt,
                        tag,
                    } => {
                        state.charge(u64::from(charge))?;
                        let acc = s[acc_slot as usize].bits;
                        let abs = at(arr, s[idx_slot as usize].bits)?;
                        read!(arr, abs);
                        let v = bin(op, mode, acc, tab[arr as usize].get(abs))?;
                        r[dst as usize] = v;
                        s[acc_slot as usize] = Slot {
                            bits: cvt.apply(v),
                            tag,
                        };
                    }
                    TOp::RedElemK {
                        charge,
                        op,
                        mode,
                        dst,
                        arr,
                        idx_arr,
                        idx_slot,
                        k,
                        cvt,
                    } => {
                        charge!(charge);
                        let iabs = at(idx_arr, s[idx_slot as usize].bits)?;
                        read!(idx_arr, iabs);
                        let abs = at(arr, tab[idx_arr as usize].get(iabs))?;
                        read!(arr, abs);
                        let v = bin(op, mode, tab[arr as usize].get(abs), k)?;
                        read!(idx_arr, iabs);
                        write!(arr, abs);
                        tab[arr as usize].set(abs, cvt.apply(v));
                        r[dst as usize] = v;
                    }
                    TOp::RedElemS {
                        charge,
                        op,
                        mode,
                        dst,
                        arr,
                        idx_arr,
                        idx_slot,
                        b_slot,
                        cvt,
                    } => {
                        charge!(charge);
                        let iabs = at(idx_arr, s[idx_slot as usize].bits)?;
                        read!(idx_arr, iabs);
                        let abs = at(arr, tab[idx_arr as usize].get(iabs))?;
                        read!(arr, abs);
                        let cur = tab[arr as usize].get(abs);
                        let v = bin(op, mode, cur, s[b_slot as usize].bits)?;
                        read!(idx_arr, iabs);
                        write!(arr, abs);
                        tab[arr as usize].set(abs, cvt.apply(v));
                        r[dst as usize] = v;
                    }
                    TOp::Jump { target } => {
                        pc = target as usize;
                        continue;
                    }
                    TOp::JumpIfFalse { cond, target, real } => {
                        let c = r[cond as usize];
                        let truthy = if real {
                            f64::from_bits(c) != 0.0
                        } else {
                            c != 0
                        };
                        if !truthy {
                            pc = target as usize;
                            continue;
                        }
                    }
                    TOp::LoopInit { step, var_slot } => {
                        if r[step as usize] == 0 {
                            return Err(RunError::BadIndex(chunk.scalars[var_slot as usize].0));
                        }
                    }
                    TOp::LoopTest { i, hi, step, exit } => {
                        let (iv, hv, sv) = (
                            r[i as usize] as i64,
                            r[hi as usize] as i64,
                            r[step as usize] as i64,
                        );
                        if !((sv > 0 && iv <= hv) || (sv < 0 && iv >= hv)) {
                            pc = exit as usize;
                            continue;
                        }
                    }
                    TOp::LoopTestSet {
                        i,
                        hi,
                        step,
                        exit,
                        var_slot,
                    } => {
                        let (iv, hv, sv) = (
                            r[i as usize] as i64,
                            r[hi as usize] as i64,
                            r[step as usize] as i64,
                        );
                        if (sv > 0 && iv <= hv) || (sv < 0 && iv >= hv) {
                            s[var_slot as usize] = Slot::int(iv);
                        } else {
                            pc = exit as usize;
                            continue;
                        }
                    }
                    TOp::LoopIncr { i, step } => {
                        r[i as usize] = r[i as usize].wrapping_add(r[step as usize]);
                    }
                    TOp::LoopIncrJump { i, step, target } => {
                        r[i as usize] = r[i as usize].wrapping_add(r[step as usize]);
                        pc = target as usize;
                        continue;
                    }
                    TOp::Call { site } => {
                        for &(reg, ty) in &t.call_regs[site as usize] {
                            vregs[reg as usize] = value(r[reg as usize], ty == Ty::Real);
                        }
                        self.call::<COUNT>(
                            chunk, site, arrays, s, vregs, callees, state, tracer, counts,
                        )?;
                    }
                    TOp::Read { site } => self.read_inputs(chunk, site, s)?,
                    TOp::Fail { site } => return Err(Self::fail(chunk, site)),
                }
                pc += 1;
            }
            if iter == last {
                return Ok(());
            }
            iter += step;
        }
    }
}

// ---- Disassembly -------------------------------------------------------

impl Typed {
    /// A readable rendering of the typed stream against its chunk's
    /// tables, one op per line: `.ii` / `.rr` / `.ir` / `.ri` name a
    /// binary op's operand types, `i2r` / `r2i` a conversion, `:i` /
    /// `:r` the tag a scalar store leaves (and a `Real` branch
    /// condition). The substrate of the typed goldens
    /// (`tests/peephole_golden.rs`), so a lost typed form shows up as a
    /// line diff.
    pub fn disassemble(&self, chunk: &Chunk) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("{i:>3}  {}\n", render(chunk, op)));
        }
        out
    }
}

fn render(chunk: &Chunk, op: &TOp) -> String {
    let sc = |s: &u16| chunk.scalar_name(*s);
    let ar = |a: &u16| chunk.array_name(*a);
    let charge = |c: &u32| {
        if *c > 0 {
            format!("charge {c}; ")
        } else {
            String::new()
        }
    };
    let imm = |bits: &u64, real: bool| format!("{:?}", value(*bits, real));
    // The right operand's type under `mode`.
    let right_real = |m: &Mode| matches!(m, Mode::RR | Mode::IR);
    let tag = |t: &u8| if *t == REAL { ":r" } else { ":i" };
    match op {
        TOp::Charge(u) => format!("charge {u}"),
        TOp::Const { dst, bits, real } => format!("r{dst} = {}", imm(bits, *real)),
        TOp::ChargedConst {
            charge: c,
            dst,
            bits,
            real,
        } => format!("{}r{dst} = {}", charge(c), imm(bits, *real)),
        TOp::LoadSlot { dst, slot } => format!("r{dst} = {}", sc(slot)),
        TOp::ChargedLoadSlot {
            charge: c,
            dst,
            slot,
        } => format!("{}r{dst} = {}", charge(c), sc(slot)),
        TOp::StoreSlot {
            slot,
            src,
            cvt,
            tag: t,
        } => format!("{}{} := r{src}{}", sc(slot), tag(t), cvt.name()),
        TOp::Cvt { dst, src, cvt } => format!("r{dst} = r{src}{}", cvt.name()),
        TOp::Un { op, real, dst, src } => {
            format!("r{dst} = {op:?}.{} r{src}", if *real { "r" } else { "i" })
        }
        TOp::Bin {
            op,
            mode,
            dst,
            a,
            b,
        } => {
            format!("r{dst} = r{a} {op:?}.{} r{b}", mode.name())
        }
        TOp::BinSS {
            charge: c,
            op,
            mode,
            dst,
            a_slot,
            b_slot,
        } => format!(
            "{}r{dst} = {} {op:?}.{} {}",
            charge(c),
            sc(a_slot),
            mode.name(),
            sc(b_slot)
        ),
        TOp::BinRS {
            charge: c,
            op,
            mode,
            dst,
            a,
            b_slot,
        } => format!(
            "{}r{dst} = r{a} {op:?}.{} {}",
            charge(c),
            mode.name(),
            sc(b_slot)
        ),
        TOp::BinRK {
            charge: c,
            op,
            mode,
            dst,
            a,
            k,
        } => format!(
            "{}r{dst} = r{a} {op:?}.{} {}",
            charge(c),
            mode.name(),
            imm(k, right_real(mode))
        ),
        TOp::BinRE {
            charge: c,
            op,
            mode,
            dst,
            a,
            arr,
            idx_slot,
        } => format!(
            "{}r{dst} = r{a} {op:?}.{} {}[{}]",
            charge(c),
            mode.name(),
            ar(arr),
            sc(idx_slot)
        ),
        TOp::BinStore {
            charge: c,
            op,
            mode,
            slot,
            dst,
            a,
            b,
            cvt,
            tag: t,
        } => format!(
            "{}{}{} := r{dst} = r{a} {op:?}.{} r{b}{}",
            charge(c),
            sc(slot),
            tag(t),
            mode.name(),
            cvt.name()
        ),
        TOp::Math {
            intr,
            real,
            dst,
            src,
        } => format!(
            "r{dst} = {intr:?}.r(r{src}{})",
            if *real { "" } else { " i2r" }
        ),
        TOp::Intrin {
            intr,
            dst,
            base,
            n,
            reals,
        } => format!("r{dst} = {intr:?}(r{base}..+{n}, reals {reals:#b})"),
        TOp::Load { dst, arr, idx } => format!("r{dst} = {}[r{idx}]", ar(arr)),
        TOp::LoadN {
            dst,
            arr,
            base,
            n,
            reals,
        } => format!("r{dst} = {}[r{base}..+{n}, reals {reals:#b}]", ar(arr)),
        TOp::Store { arr, idx, src, cvt } => {
            format!("{}[r{idx}] = r{src}{}", ar(arr), cvt.name())
        }
        TOp::StoreN {
            arr,
            base,
            n,
            reals,
            src,
            cvt,
        } => format!(
            "{}[r{base}..+{n}, reals {reals:#b}] = r{src}{}",
            ar(arr),
            cvt.name()
        ),
        TOp::LoadElemS {
            charge: c,
            dst,
            arr,
            idx_slot,
        } => format!("{}r{dst} = {}[{}]", charge(c), ar(arr), sc(idx_slot)),
        TOp::StoreElemS {
            charge: c,
            arr,
            idx_slot,
            src,
            cvt,
        } => format!(
            "{}{}[{}] = r{src}{}",
            charge(c),
            ar(arr),
            sc(idx_slot),
            cvt.name()
        ),
        TOp::ElemUpdateK {
            charge: c,
            op,
            mode,
            dst,
            arr,
            idx_slot,
            k,
            cvt,
        } => format!(
            "{}{}[{}] {op:?}.{}= {}{} (r{dst})",
            charge(c),
            ar(arr),
            sc(idx_slot),
            mode.name(),
            imm(k, right_real(mode)),
            cvt.name()
        ),
        TOp::ElemUpdateS {
            charge: c,
            op,
            mode,
            dst,
            arr,
            idx_slot,
            b_slot,
            cvt,
        } => format!(
            "{}{}[{}] {op:?}.{}= {}{} (r{dst})",
            charge(c),
            ar(arr),
            sc(idx_slot),
            mode.name(),
            sc(b_slot),
            cvt.name()
        ),
        TOp::LoadElemE {
            charge: c,
            dst,
            idx_arr,
            idx_slot,
            arr,
        } => format!(
            "{}r{dst} = {}[{}[{}]]",
            charge(c),
            ar(arr),
            ar(idx_arr),
            sc(idx_slot)
        ),
        TOp::StoreElemE {
            charge: c,
            idx_arr,
            idx_slot,
            arr,
            src,
            cvt,
        } => format!(
            "{}{}[{}[{}]] = r{src}{}",
            charge(c),
            ar(arr),
            ar(idx_arr),
            sc(idx_slot),
            cvt.name()
        ),
        TOp::ElemUpdateE {
            charge: c,
            op,
            mode,
            dst,
            arr,
            idx_arr,
            idx_slot,
            idx_op,
            idx_k,
            k,
            cvt,
        } => format!(
            "{}{}[{}[{}] {idx_op:?} {idx_k}] {op:?}.{}= {}{} (r{dst})",
            charge(c),
            ar(arr),
            ar(idx_arr),
            sc(idx_slot),
            mode.name(),
            imm(k, right_real(mode)),
            cvt.name()
        ),
        TOp::RedAccS {
            charge: c,
            op,
            mode,
            dst,
            acc_slot,
            arr,
            idx_slot,
            cvt,
            tag: t,
        } => format!(
            "{}{}{} {op:?}.{}= {}[{}]{} (r{dst})",
            charge(c),
            sc(acc_slot),
            tag(t),
            mode.name(),
            ar(arr),
            sc(idx_slot),
            cvt.name()
        ),
        TOp::RedElemK {
            charge: c,
            op,
            mode,
            dst,
            arr,
            idx_arr,
            idx_slot,
            k,
            cvt,
        } => format!(
            "{}{}[{}[{}]] {op:?}.{}= {}{} (r{dst})",
            charge(c),
            ar(arr),
            ar(idx_arr),
            sc(idx_slot),
            mode.name(),
            imm(k, right_real(mode)),
            cvt.name()
        ),
        TOp::RedElemS {
            charge: c,
            op,
            mode,
            dst,
            arr,
            idx_arr,
            idx_slot,
            b_slot,
            cvt,
        } => format!(
            "{}{}[{}[{}]] {op:?}.{}= {}{} (r{dst})",
            charge(c),
            ar(arr),
            ar(idx_arr),
            sc(idx_slot),
            mode.name(),
            sc(b_slot),
            cvt.name()
        ),
        TOp::Jump { target } => format!("jump {target}"),
        TOp::JumpIfFalse { cond, target, real } => {
            format!("jump {target} if !r{cond}{}", if *real { ":r" } else { "" })
        }
        TOp::LoopInit { step, var_slot } => {
            format!("loop.init by r{step} ({})", sc(var_slot))
        }
        TOp::LoopTest { i, hi, step, exit } => {
            format!("loop.test r{i} r{hi} r{step} exit {exit}")
        }
        TOp::LoopTestSet {
            i,
            hi,
            step,
            exit,
            var_slot,
        } => format!(
            "loop.test-set r{i} r{hi} r{step} -> {}, exit {exit}",
            sc(var_slot)
        ),
        TOp::LoopIncr { i, step } => format!("r{i} += r{step}"),
        TOp::LoopIncrJump { i, step, target } => format!("r{i} += r{step}; jump {target}"),
        TOp::Call { site } => format!("call site {site}"),
        TOp::Read { site } => format!("read site {site}"),
        TOp::Fail { site } => format!("fail site {site}"),
    }
}

#[cfg(test)]
mod tests {
    use lip_ir::{ExecState, Ty, Value};
    use lip_symbolic::sym;

    use super::*;
    use crate::chunk::{BlockId, CompiledBlock, CompiledProgram};
    use crate::vm::{DispatchCounts, Frame, Vm};

    /// `r1 = n > 0 ? 1 : 0.5; y := r1` — register `r1` is `Int` on one
    /// arm and `Real` on the other, a join the compiler never emits
    /// (its registers die at statement ends) but the pass must refuse.
    fn join(then_k: u16) -> Chunk {
        Chunk {
            ops: vec![
                Op::LoadScalar { dst: 0, slot: 0 },
                Op::JumpIfFalse { cond: 0, target: 4 },
                Op::Const { dst: 1, k: then_k },
                Op::Jump { target: 5 },
                Op::Const { dst: 1, k: 1 },
                Op::StoreScalar { slot: 1, src: 1 },
            ],
            consts: vec![Value::Int(1), Value::Real(0.5)],
            nregs: 2,
            scalars: vec![(sym("n"), Ty::Int), (sym("y"), Ty::Real)],
            ..Chunk::default()
        }
    }

    /// Runs `chunk` as a block with `n` bound; `y` and the activations.
    fn run(chunk: Chunk, n: i64) -> (Option<Value>, DispatchCounts) {
        let prog = CompiledProgram {
            blocks: vec![CompiledBlock {
                chunk,
                exprs: vec![],
            }],
            ..CompiledProgram::default()
        };
        let chunk = &prog.blocks[0].chunk;
        let mut frame = Frame::for_chunk(chunk, &lip_ir::Store::new());
        frame.set_scalar(0, Value::Int(n));
        let mut counts = DispatchCounts::default();
        Vm::new(&prog)
            .run_range(
                BlockId(0),
                &mut frame,
                None,
                &mut ExecState::default(),
                None,
                Some(&mut counts),
                &mut crate::vm::Unobserved,
            )
            .expect("runs");
        (frame.scalar(1), counts)
    }

    #[test]
    fn a_register_join_of_int_and_real_is_dynamic() {
        let mut chunk = join(0);
        assert!(type_chunk(&chunk, &|_, _| ANY).typed.is_none());
        chunk.typed = None;
        for (n, y) in [(1, 1.0), (0, 0.5)] {
            let (got, counts) = run(chunk.clone(), n);
            assert_eq!(got, Some(Value::Real(y)));
            assert_eq!((counts.typed_runs, counts.untyped_runs), (0, 1));
        }
    }

    #[test]
    fn a_register_join_of_one_type_is_typed() {
        let mut chunk = join(1);
        let typed = type_chunk(&chunk, &|_, _| ANY).typed.expect("typed");
        assert_eq!(typed.scalars, vec![(0, INT)], "n is the one live-in");
        chunk.typed = Some(std::sync::Arc::new(typed));
        let (got, counts) = run(chunk, 1);
        assert_eq!(got, Some(Value::Real(0.5)));
        assert_eq!((counts.typed_runs, counts.untyped_runs), (1, 0));
    }
}
