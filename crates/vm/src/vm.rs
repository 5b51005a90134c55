//! The dispatch-loop VM.
//!
//! A [`Frame`] is the per-thread execution state for one chunk: a flat
//! register file, scalar slots, and array views resolved once from a
//! [`Store`]. Frames are `Send`, so `lip_runtime`'s worker threads run
//! compiled loop bodies directly instead of re-walking the AST.
//!
//! There is one dispatch function, `Vm::exec`, and the per-iteration
//! loop of a DO range runs *inside* it: [`Vm::run_range`] enters it
//! once for the range's values at its step, so its frame, prologue and
//! loop-invariant loads are paid per activation, not per iteration. A
//! driver with work between iterations does it in an [`IterObserver`]
//! the loop calls at each iteration's start, within the same activation.
//! [`Vm::run_block`] enters it for a single pass over the block — a
//! WHILE trip, a whole statement. The arms
//! that are rare in a loop body (`Call`, `Read`, `Fail`) are
//! out-of-line functions so they add nothing to that frame — as is
//! register-subscript addressing (`linearize`, which every rank > 1
//! access goes through) — and the value model (`lip_ir::apply_bin` et
//! al.) is inlined into the arms that use it.
//!
//! Two streams run here, behind one guard. Every activation goes
//! through `Vm::activate`: when the chunk has a typed stream
//! ([`crate::typed`]) and the frame's live-in scalars and arrays carry
//! the declared types, `Vm::exec_typed` runs it on raw registers;
//! otherwise `Vm::exec` runs the `Value` stream below. Scalar slots are
//! shared by both as raw bits plus a tag (`Slot`), so a frame moves
//! between the two from one activation to the next.
//!
//! A CALL costs slot and register copies, not heap traffic. The frames
//! callees run in hang off the root activation's frame, one per callee
//! and depth ([`Frame`]); each call resets its frame in place and
//! rebinds the formals' views in place, so a steady-state CALL
//! allocates nothing. A reshape extent that is a compile-time constant
//! (`DIMENSION H(8, *)`) is folded to a [`DimCode::Const`] that charges
//! what its fragment would; only extents that read callee scalars run a
//! fragment. Calls nest at most [`lip_ir::MAX_CALL_DEPTH`] deep, checked
//! through [`ExecState::enter_call`] exactly where the interpreter
//! checks it, so a recursive program fails with
//! [`RunError::CallDepth`] instead of exhausting the thread's stack.
//!
//! Semantics are the tree-walk interpreter's, bit for bit: values and
//! operators come from `lip_ir`'s shared model ([`lip_ir::apply_bin`]
//! et al.), addressing from [`ArrayView::linearize`], cost/budget
//! accounting from [`ExecState::charge`], and every array access
//! reports to the same [`AccessTracer`] hook the LRPD test and the
//! executor instrument.

use std::collections::HashMap;
use std::sync::Arc;

use lip_ir::{
    apply_bin, apply_intrinsic, apply_un, AccessTracer, ArrayBuf, ArrayView, ExecState, Machine,
    RunError, Store, Ty, Value,
};
use lip_symbolic::{sym, Sym};

use crate::chunk::{
    ArgSpec, BlockId, Chunk, CompiledProgram, CompiledSub, DimCode, ExprCode, LocalAlloc, Op,
};
use crate::typed;

/// A scalar slot as both streams share it: the value's raw 64 bits
/// (an `Int`'s `i64`, a `Real`'s `f64`) and its tag — [`typed::INT`],
/// [`typed::REAL`], or 0 while unbound. The typed stream reads `bits`
/// without looking at the tag; its guard checked the tag once.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Slot {
    pub bits: u64,
    pub tag: u8,
}

impl Slot {
    #[inline(always)]
    pub fn int(i: i64) -> Slot {
        Slot {
            bits: i as u64,
            tag: typed::INT,
        }
    }

    #[inline(always)]
    pub fn of(v: Value) -> Slot {
        match v {
            Value::Int(i) => Slot::int(i),
            Value::Real(r) => Slot {
                bits: r.to_bits(),
                tag: typed::REAL,
            },
        }
    }

    fn bound(v: Option<Value>) -> Slot {
        v.map(Slot::of).unwrap_or_default()
    }

    #[inline(always)]
    pub fn get(self) -> Option<Value> {
        match self.tag {
            typed::INT => Some(Value::Int(self.bits as i64)),
            typed::REAL => Some(Value::Real(f64::from_bits(self.bits))),
            _ => None,
        }
    }

    /// An assignment's value coerced to the slot's declared type.
    #[inline(always)]
    fn coerced(v: Value, ty: Ty) -> Slot {
        Slot::of(match ty {
            Ty::Int => Value::Int(v.as_i64()),
            Ty::Real => Value::Real(v.as_f64()),
        })
    }
}

/// Per-thread execution state for one chunk: registers, scalar slots
/// and resolved array views. `Send`, so worker threads own one each.
///
/// A frame also owns the frames its CALLs run in: one per subroutine it
/// calls (`callees`, indexed like [`CompiledProgram::subs`]), each
/// owning the frames of its own calls, so the path from the root
/// activation's frame to the running callee is the call stack. A callee
/// frame is reset on each call (`Frame::reset`) and kept for the next
/// call of the same subroutine from the same frame: a CALL in steady
/// state allocates nothing and, passing the arrays it passed last time,
/// leaves their reference counts alone. The frames are dropped with the
/// root frame.
///
/// The typed stream's registers are one fixed file of
/// [`typed::TREGS`] words per frame, so every [`typed::TReg`] indexes
/// it without a bounds check; a callee frame's reset zeroes only the
/// callee's own registers in it.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    /// The `Value` stream's registers, sized on the first activation
    /// that needs them (a typed callee frame never sizes them unless it
    /// calls out).
    pub(crate) regs: Vec<Value>,
    /// The typed stream's raw registers: a fixed file of
    /// [`typed::TREGS`] words, made on the first typed activation, that
    /// any [`typed::TReg`] indexes without a bounds check.
    pub(crate) tregs: Option<Box<[u64; typed::TREGS]>>,
    pub(crate) scalars: Vec<Slot>,
    pub(crate) arrays: Vec<Option<ArrayView>>,
    /// The frames of this frame's CALLs, by callee, made on first call.
    pub(crate) callees: Vec<Option<Box<Frame>>>,
    /// In a callee frame, each formal's view from the previous call
    /// (by parameter position), parked by [`Frame::reset`] for this
    /// call to rebind in place.
    pub(crate) parked: Vec<Option<ArrayView>>,
}

impl Frame {
    /// A frame over `chunk` with every slot resolved from `store`
    /// (unbound names stay empty and only error if touched).
    pub fn for_chunk(chunk: &Chunk, store: &Store) -> Frame {
        Frame {
            scalars: chunk
                .scalars
                .iter()
                .map(|(s, _)| Slot::bound(store.scalar(*s)))
                .collect(),
            arrays: chunk
                .arrays
                .iter()
                .map(|(s, _)| store.array(*s).cloned())
                .collect(),
            ..Frame::default()
        }
    }

    /// Makes this frame of callee `csub` a fresh one without freeing
    /// anything: every slot unbound, no `Value` register sized (the
    /// activation sizes them, zeroed), the callee's typed registers
    /// zeroed, and each formal's previous view parked. A callee frame
    /// only ever binds formals and locals.
    fn reset(&mut self, csub: &CompiledSub) {
        self.regs.clear();
        if let (Some(r), Some(t)) = (&mut self.tregs, csub.chunk.typed.as_deref()) {
            r[..t.nregs].fill(0);
        }
        self.scalars.clear();
        self.scalars
            .resize(csub.chunk.scalars.len(), Slot::default());
        self.arrays.resize(csub.chunk.arrays.len(), None);
        self.parked.resize(csub.params.len(), None);
        for (pm, parked) in csub.params.iter().zip(&mut self.parked) {
            if let Some(view) = self.arrays[pm.arr as usize].take() {
                *parked = Some(view);
            }
        }
        for local in &csub.locals {
            self.arrays[local.arr as usize] = None;
        }
    }

    /// Reads a scalar slot.
    pub fn scalar(&self, slot: u16) -> Option<Value> {
        self.scalars[slot as usize].get()
    }

    /// Writes a scalar slot verbatim (loop-variable / seeding
    /// semantics: no type coercion, like `Store::set_scalar`).
    pub fn set_scalar(&mut self, slot: u16, v: Value) {
        self.scalars[slot as usize] = Slot::of(v);
    }

    /// Sizes the `Value` register file for `chunk`.
    #[inline]
    pub(crate) fn value_regs(&mut self, chunk: &Chunk) {
        if self.regs.len() < chunk.nregs {
            self.regs.resize(chunk.nregs, Value::Int(0));
        }
    }

    /// Copies every bound scalar slot back into `store` (chunk supplies
    /// the slot→symbol mapping).
    pub fn writeback_scalars(&self, chunk: &Chunk, store: &mut Store) {
        for (i, v) in self.scalars.iter().enumerate() {
            if let Some(v) = v.get() {
                store.set_scalar(chunk.scalars[i].0, v);
            }
        }
    }

    /// Copies scalars and array bindings back into `store` (the entry
    /// frame publishes its allocated locals, as the interpreter's main
    /// frame does by construction).
    pub fn writeback_all(&self, chunk: &Chunk, store: &mut Store) {
        self.writeback_scalars(chunk, store);
        for (i, v) in self.arrays.iter().enumerate() {
            if let Some(view) = v {
                store.bind_array(chunk.arrays[i].0, view.clone());
            }
        }
    }
}

/// What a driver runs at the start of each iteration of a range
/// ([`Vm::run_range`]): the iteration, the units the activation's
/// state had charged before it, and the frame's scalar slots, the loop
/// variable already seeded. Answering `false` ends the range before
/// that iteration runs (the loop variable stays seeded with it). The
/// dispatch loops are generic over the observer, as they are over
/// counting, so a range with none ([`Unobserved`]) compiles to the loop
/// it always was.
pub trait IterObserver {
    /// Called before iteration `iter` runs, `units` charged so far;
    /// `false` stops the range.
    fn enter(&mut self, iter: i64, units: u64, scalars: Scalars<'_>) -> bool;
}

/// No observer: every range the executor runs without one.
pub struct Unobserved;

impl IterObserver for Unobserved {
    #[inline(always)]
    fn enter(&mut self, _: i64, _: u64, _: Scalars<'_>) -> bool {
        true
    }
}

/// A frame's scalar slots, as an [`IterObserver`] reads them.
#[derive(Clone, Copy)]
pub struct Scalars<'a>(pub(crate) &'a [Slot]);

impl Scalars<'_> {
    /// The value in `slot`, `None` while unbound (as [`Frame::scalar`]).
    pub fn get(&self, slot: u16) -> Option<Value> {
        self.0[slot as usize].get()
    }
}

/// The tracer, per array slot, when it wants the writes to the buffer
/// bound there. [`AccessTracer::wants_writes`] is asked at the slot's
/// first write in the activation, so an activation that writes no array
/// (an expression fragment, say) asks nothing. A slot past the first 64
/// is never asked: its writes all go to the tracer, which the trait's
/// contract makes harmless when it would have refused them.
struct Writers<'t> {
    tracer: Option<&'t dyn AccessTracer>,
    asked: u64,
    wanted: u64,
}

impl<'t> Writers<'t> {
    fn new(tracer: Option<&'t dyn AccessTracer>) -> Writers<'t> {
        Writers {
            tracer,
            asked: 0,
            wanted: 0,
        }
    }

    /// The tracer to hand a write to `buf`, bound at array slot `arr`,
    /// if any.
    #[inline(always)]
    fn get(&mut self, arr: u16, buf: &ArrayBuf) -> Option<&'t dyn AccessTracer> {
        let t = self.tracer?;
        let Some(bit) = 1u64.checked_shl(u32::from(arr)) else {
            return Some(t);
        };
        if self.asked & bit == 0 {
            self.asked |= bit;
            if t.wants_writes(buf) {
                self.wanted |= bit;
            }
        }
        (self.wanted & bit != 0).then_some(t)
    }
}

/// Dispatch statistics for one counted execution: how many
/// instructions ran and how many of them were peephole
/// superinstructions. Filled by [`Vm::run_range`] when it is given
/// one; the uncounted runs compile the tally out entirely (the dispatch
/// loop is monomorphized over a `COUNT` const), so the default paths
/// cost exactly what they did before this type existed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    /// Instructions dispatched.
    pub ops: u64,
    /// Of those, superinstructions ([`Op::is_fused`]).
    pub fused_ops: u64,
    /// Of the superinstructions, dedicated reduction ops
    /// ([`Op::is_reduction`]).
    pub red_ops: u64,
    /// Activations (blocks, ranges, callee bodies) the guard admitted
    /// to the typed stream.
    pub typed_runs: u64,
    /// Activations that ran the `Value` stream.
    pub untyped_runs: u64,
}

impl DispatchCounts {
    /// Accumulate another tally into this one.
    pub fn merge(&mut self, other: &DispatchCounts) {
        self.ops += other.ops;
        self.fused_ops += other.fused_ops;
        self.red_ops += other.red_ops;
        self.typed_runs += other.typed_runs;
        self.untyped_runs += other.untyped_runs;
    }
}

/// The last value a DO from `lo` to `hi` by `step` gives its variable,
/// as the interpreter steps it; `None` when it runs no iteration.
pub(crate) fn last_value(lo: i64, hi: i64, step: i64) -> Option<i64> {
    let span = (i128::from(hi) - i128::from(lo)) * i128::from(step.signum());
    let trips = span / i128::from(step.unsigned_abs());
    (span >= 0).then(|| (i128::from(lo) + trips * i128::from(step)) as i64)
}

/// The virtual machine: a compiled program plus READ-input bindings.
#[derive(Copy, Clone)]
pub struct Vm<'p> {
    prog: &'p CompiledProgram,
    inputs: Option<&'p HashMap<Sym, Value>>,
}

impl<'p> Vm<'p> {
    /// A VM over `prog` with no READ inputs.
    pub fn new(prog: &'p CompiledProgram) -> Vm<'p> {
        Vm { prog, inputs: None }
    }

    /// A VM over `prog` delivering `machine`'s READ inputs.
    pub fn for_machine(prog: &'p CompiledProgram, machine: &'p Machine) -> Vm<'p> {
        Vm {
            prog,
            inputs: Some(&machine.inputs),
        }
    }

    /// Runs the entry subroutine with `store` as its frame, returning
    /// the accumulated work units (the `Machine::run` equivalent).
    ///
    /// # Errors
    ///
    /// Any [`RunError`] raised during execution.
    pub fn run(&self, store: &mut Store) -> Result<u64, RunError> {
        let mut state = ExecState::default();
        self.run_with_state(store, &mut state, None)?;
        Ok(state.cost)
    }

    /// Runs the entry subroutine under an existing [`ExecState`],
    /// reporting array accesses to `tracer`.
    ///
    /// # Errors
    ///
    /// Any [`RunError`] raised during execution.
    pub fn run_with_state(
        &self,
        store: &mut Store,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
    ) -> Result<(), RunError> {
        self.run_entry::<false>(store, state, tracer, &mut DispatchCounts::default())
    }

    /// [`Vm::run_with_state`] with dispatch counting, as
    /// [`Vm::run_range`] counts a block.
    ///
    /// # Errors
    ///
    /// Any [`RunError`] raised during execution.
    pub fn run_program_counting(
        &self,
        store: &mut Store,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
    ) -> Result<(), RunError> {
        self.run_entry::<true>(store, state, tracer, counts)
    }

    fn run_entry<const COUNT: bool>(
        &self,
        store: &mut Store,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
    ) -> Result<(), RunError> {
        let entry = self
            .prog
            .entry
            .ok_or(RunError::NoSuchSubroutine(sym("main")))?;
        let csub = &self.prog.subs[entry];
        let mut frame = Frame::for_chunk(&csub.chunk, store);
        let ran = self
            .alloc_locals::<COUNT>(csub, &mut frame, state, tracer, counts)
            .and_then(|()| {
                let obs = &mut Unobserved;
                self.activate::<COUNT, _>(&csub.chunk, None, &mut frame, state, tracer, counts, obs)
            });
        // Published on failure too: the interpreter runs the entry in
        // the store itself, so its partial state is there either way.
        frame.writeback_all(&csub.chunk, store);
        ran
    }

    /// Runs a standalone block against `frame` once: a WHILE trip, a
    /// whole statement run as one block. [`Vm::run_range`] with no
    /// range, no tally and no observer.
    ///
    /// # Errors
    ///
    /// Any [`RunError`] raised during execution.
    pub fn run_block(
        &self,
        b: BlockId,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
    ) -> Result<(), RunError> {
        self.run_range(b, frame, None, state, tracer, None, &mut Unobserved)
    }

    /// Runs block `b` against `frame` as one VM activation: once when
    /// `range` is `None`, else once per value of a DO's variable —
    /// `Some((var_slot, lo, hi, step))`, from `lo` towards `hi` by
    /// `step`, as the interpreter steps it. Each iteration writes
    /// `Value::Int(i)` to `var_slot` verbatim, calls `obs` with the
    /// iteration and the units charged so far ([`IterObserver`]), and
    /// restarts the body at its first instruction, exactly as a
    /// [`Frame::set_scalar`] + [`Vm::run_block`] loop would. An empty
    /// range runs nothing and leaves the slot untouched; a range ending
    /// at `i64::MAX` or `i64::MIN` ends there. On error the frame,
    /// arrays and `state` are as that per-iteration loop leaves them.
    ///
    /// With `counts`, through the counting dispatch loop: tallies
    /// executed and fused instructions and the activations into it
    /// (adding to whatever is already there). A separately
    /// monomorphized dispatch loop, so the uncounted runs pay nothing
    /// for it.
    ///
    /// # Errors
    ///
    /// Any [`RunError`] raised during execution.
    ///
    /// # Panics
    ///
    /// If `step` is 0 (a DO's never is: it is a run-time error first).
    #[allow(clippy::too_many_arguments)]
    pub fn run_range<O: IterObserver>(
        &self,
        b: BlockId,
        frame: &mut Frame,
        range: Option<(u16, i64, i64, i64)>,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: Option<&mut DispatchCounts>,
        obs: &mut O,
    ) -> Result<(), RunError> {
        let chunk = &self.prog.block(b).chunk;
        match counts {
            Some(dc) => self.activate::<true, O>(chunk, range, frame, state, tracer, dc, obs),
            None => {
                let dc = &mut DispatchCounts::default();
                self.activate::<false, O>(chunk, range, frame, state, tracer, dc, obs)
            }
        }
    }

    /// Evaluates attached expression fragment `k` of block `b` against
    /// `frame` (WHILE conditions, CIV bounds). Charges its cost.
    ///
    /// # Errors
    ///
    /// Any [`RunError`] raised during evaluation.
    pub fn eval_block_expr(
        &self,
        b: BlockId,
        k: usize,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
    ) -> Result<Value, RunError> {
        let block = self.prog.block(b);
        self.eval_code::<false>(
            &block.chunk,
            &block.exprs[k],
            frame,
            state,
            tracer,
            &mut DispatchCounts::default(),
        )
    }

    fn eval_code<const COUNT: bool>(
        &self,
        chunk: &Chunk,
        code: &ExprCode,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
    ) -> Result<Value, RunError> {
        frame.value_regs(chunk);
        let obs = &mut Unobserved;
        self.exec::<COUNT, _>(chunk, &code.ops, None, frame, state, tracer, counts, obs)?;
        Ok(frame.regs[code.result as usize])
    }

    /// Entry allocation of non-parameter fixed-size arrays (skipping
    /// slots the frame already has bound, so drivers can pre-bind).
    fn alloc_locals<const COUNT: bool>(
        &self,
        csub: &CompiledSub,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
    ) -> Result<(), RunError> {
        for local in &csub.locals {
            if frame.arrays[local.arr as usize].is_some() {
                continue;
            }
            let (extents, len) =
                self.eval_dims::<COUNT>(csub, local, frame, state, tracer, counts)?;
            let buf = match local.ty {
                Ty::Int => ArrayBuf::new_int(len),
                Ty::Real => ArrayBuf::new_real(len),
            };
            frame.arrays[local.arr as usize] = Some(ArrayView {
                buf,
                offset: 0,
                extents,
            });
        }
        Ok(())
    }

    fn eval_dims<const COUNT: bool>(
        &self,
        csub: &CompiledSub,
        local: &LocalAlloc,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
    ) -> Result<(Vec<i64>, usize), RunError> {
        let mut extents = Vec::new();
        let mut len: i64 = 1;
        for dim in &local.dims {
            let v = self
                .extent::<COUNT>(&csub.chunk, dim, frame, state, tracer, counts)?
                .ok_or(RunError::BadIndex(local.name))?;
            extents.push(v);
            len = len.saturating_mul(v.max(0));
        }
        Ok((extents, usize::try_from(len.max(0)).unwrap_or(0)))
    }

    /// A declared extent, charged as its expression is (a constant one
    /// without running a fragment); `None` for an assumed size.
    fn extent<const COUNT: bool>(
        &self,
        chunk: &Chunk,
        dim: &DimCode,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
    ) -> Result<Option<i64>, RunError> {
        Ok(match dim {
            DimCode::Assumed => None,
            DimCode::Const { charge, extent } => {
                state.charge(u64::from(*charge))?;
                Some(*extent)
            }
            DimCode::Fixed(code) => Some(
                self.eval_code::<COUNT>(chunk, code, frame, state, tracer, counts)?
                    .as_i64(),
            ),
        })
    }

    /// Binds formal `j` of `csub` in the callee frame `inner` to the
    /// section of `buf` starting at `offset`, rebuilding the view the
    /// formal had last call in place. The extents are the callee's
    /// declared ones when it declares the formal (array reshaping at the
    /// call site, evaluated in `inner`, where the formals before this
    /// one are bound), else `incoming` — the caller's extents for a
    /// whole array, none for an element section.
    #[allow(clippy::too_many_arguments)]
    fn bind_view<const COUNT: bool>(
        &self,
        csub: &CompiledSub,
        j: usize,
        buf: &Arc<ArrayBuf>,
        offset: usize,
        incoming: &[i64],
        inner: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
    ) -> Result<(), RunError> {
        let mut view = match inner.parked[j].take() {
            Some(mut view) => {
                if !Arc::ptr_eq(&view.buf, buf) {
                    view.buf = buf.clone();
                }
                view.offset = offset;
                view.extents.clear();
                view
            }
            None => ArrayView {
                buf: buf.clone(),
                offset,
                extents: Vec::new(),
            },
        };
        let pm = &csub.params[j];
        match &pm.reshape {
            None => view.extents.extend_from_slice(incoming),
            Some(dims) => {
                for dim in dims {
                    let extent =
                        self.extent::<COUNT>(&csub.chunk, dim, inner, state, tracer, counts)?;
                    view.extents.push(extent.unwrap_or(i64::MAX));
                }
            }
        }
        inner.arrays[pm.arr as usize] = Some(view);
        Ok(())
    }

    /// One activation of `chunk`: the typed stream when the chunk has
    /// one and [`typed::Typed::admits`] the frame (for a range of more than one
    /// iteration, also [`typed::Typed::loops`]), the `Value` stream otherwise.
    /// A range's last value is computed here, once, and the dispatch
    /// loops end on it; its loop variable is seeded before the guard
    /// looks, as the first iteration would seed it anyway. An empty
    /// range is no activation at all.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn activate<const COUNT: bool, O: IterObserver>(
        &self,
        chunk: &Chunk,
        range: Option<(u16, i64, i64, i64)>,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
        obs: &mut O,
    ) -> Result<(), RunError> {
        let range = match range {
            Some((slot, lo, hi, step)) => match last_value(lo, hi, step) {
                Some(last) => Some((slot, lo, last, step)),
                None => return Ok(()),
            },
            None => None,
        };
        if let Some(t) = chunk.typed.as_deref() {
            let restarts = match range {
                Some((slot, first, last, _)) => {
                    frame.scalars[slot as usize] = Slot::int(first);
                    first != last
                }
                None => false,
            };
            if (t.loops || !restarts) && t.admits(frame) {
                if COUNT {
                    counts.typed_runs += 1;
                }
                if !chunk.calls.is_empty() {
                    // A call hands its arguments over in `Value` registers.
                    frame.value_regs(chunk);
                }
                return self
                    .exec_typed::<COUNT, O>(chunk, t, range, frame, state, tracer, counts, obs);
            }
        }
        if COUNT {
            counts.untyped_runs += 1;
        }
        frame.value_regs(chunk);
        self.exec::<COUNT, O>(chunk, &chunk.ops, range, frame, state, tracer, counts, obs)
    }

    /// Reads a scalar slot, erroring like `Op::LoadScalar` when
    /// unbound (the fused ops inline their operand loads).
    #[inline]
    fn slot_value(chunk: &Chunk, frame: &Frame, slot: u16) -> Result<Value, RunError> {
        frame.scalars[slot as usize]
            .get()
            .ok_or_else(|| RunError::UnboundScalar(chunk.scalars[slot as usize].0))
    }

    /// Rank-1 linearization with the subscript taken straight from a
    /// scalar slot (the fused element ops). Error order matches the
    /// unfused `LoadScalar`-then-`LoadElem` stream: unbound subscript
    /// first, then unbound array, then bounds. `inline(always)`: out of
    /// line, the three-word result comes back through memory at every
    /// fused element op (`int_histogram` runs 45 % slower that way).
    #[inline(always)]
    fn linearize_slot<'f>(
        chunk: &Chunk,
        frame: &'f Frame,
        arr: u16,
        idx_slot: u16,
    ) -> Result<(Sym, usize, &'f ArrayView), RunError> {
        let i = Self::slot_value(chunk, frame, idx_slot)?.as_i64();
        let name = chunk.arrays[arr as usize].0;
        let view = frame.arrays[arr as usize]
            .as_ref()
            .ok_or(RunError::UnboundArray(name))?;
        let abs = (view.offset as i64).wrapping_add(i.wrapping_sub(1));
        if abs < 0 || abs as usize >= view.buf.len() {
            return Err(RunError::BadIndex(name));
        }
        Ok((name, abs as usize, view))
    }

    fn linearize<'f>(
        chunk: &Chunk,
        arrays: &'f [Option<ArrayView>],
        regs: &[Value],
        arr: u16,
        base: u16,
        n: u8,
    ) -> Result<(Sym, usize, &'f ArrayView), RunError> {
        let name = chunk.arrays[arr as usize].0;
        let view = arrays[arr as usize]
            .as_ref()
            .ok_or(RunError::UnboundArray(name))?;
        // Rank-1 fast path: `ArrayView::linearize` never consults
        // extents for a single subscript, so this is exactly
        // `offset + (i - 1)` with the same bounds check.
        if n == 1 {
            let i = regs[base as usize].as_i64();
            let abs = (view.offset as i64).wrapping_add(i.wrapping_sub(1));
            if abs < 0 || abs as usize >= view.buf.len() {
                return Err(RunError::BadIndex(name));
            }
            return Ok((name, abs as usize, view));
        }
        let mut idx = [0i64; 7];
        for (k, slot) in idx.iter_mut().take(n as usize).enumerate() {
            *slot = regs[base as usize + k].as_i64();
        }
        let lin = view
            .linearize(&idx[..n as usize])
            .ok_or(RunError::BadIndex(name))?;
        Ok((name, lin, view))
    }

    /// The dispatch loop. With `range = Some((var_slot, first, last,
    /// step))` — a non-empty range, `last` reached from `first` by
    /// `step` ([`last_value`]) — one activation runs `ops` once per
    /// value from `first` to `last`, seeding the loop-variable slot
    /// verbatim and restarting at `pc = 0` each iteration; with `None`
    /// it runs `ops` once and seeds nothing.
    #[allow(clippy::too_many_arguments)]
    fn exec<const COUNT: bool, O: IterObserver>(
        &self,
        chunk: &Chunk,
        ops: &[Op],
        range: Option<(u16, i64, i64, i64)>,
        frame: &mut Frame,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
        obs: &mut O,
    ) -> Result<(), RunError> {
        let reader = tracer.filter(|t| t.wants_reads());
        let mut writers = Writers::new(tracer);
        // No range is one pass: `iter == last` from the start.
        let (var_slot, mut iter, last, step) = match range {
            Some((slot, first, last, step)) => (Some(slot), first, last, step),
            None => (None, 0, 0, 0),
        };
        loop {
            if let Some(slot) = var_slot {
                frame.scalars[slot as usize] = Slot::int(iter);
                if !obs.enter(iter, state.cost, Scalars(&frame.scalars)) {
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
                match &ops[pc] {
                    Op::Charge(units) => state.charge(*units as u64)?,
                    Op::Const { dst, k } => {
                        frame.regs[*dst as usize] = chunk.consts[*k as usize];
                    }
                    Op::LoadScalar { dst, slot } => {
                        frame.regs[*dst as usize] = Self::slot_value(chunk, frame, *slot)?;
                    }
                    Op::StoreScalar { slot, src } => {
                        let v = frame.regs[*src as usize];
                        frame.scalars[*slot as usize] =
                            Slot::coerced(v, chunk.scalars[*slot as usize].1);
                    }
                    Op::SetVarRaw { slot, src } => {
                        frame.scalars[*slot as usize] = Slot::of(frame.regs[*src as usize]);
                    }
                    Op::LoadElem { dst, arr, base, n } => {
                        let v = {
                            let (name, lin, view) = Self::linearize(
                                chunk,
                                &frame.arrays,
                                &frame.regs,
                                *arr,
                                *base,
                                *n,
                            )?;
                            if let Some(t) = reader {
                                t.read(name, &view.buf, lin);
                            }
                            view.buf.get(lin)
                        };
                        frame.regs[*dst as usize] = v;
                    }
                    Op::StoreElem { arr, base, n, src } => {
                        let v = frame.regs[*src as usize];
                        let (name, lin, view) =
                            Self::linearize(chunk, &frame.arrays, &frame.regs, *arr, *base, *n)?;
                        if let Some(t) = writers.get(*arr, &view.buf) {
                            t.write(name, &view.buf, lin);
                        }
                        view.buf.set(lin, v);
                    }
                    Op::Un { op, dst, src } => {
                        frame.regs[*dst as usize] = apply_un(*op, frame.regs[*src as usize])?;
                    }
                    Op::Bin { op, dst, a, b } => {
                        frame.regs[*dst as usize] =
                            apply_bin(*op, frame.regs[*a as usize], frame.regs[*b as usize])?;
                    }
                    Op::Intrin { intr, dst, base, n } => {
                        let args = &frame.regs[*base as usize..*base as usize + *n as usize];
                        frame.regs[*dst as usize] = apply_intrinsic(*intr, args)?;
                    }
                    Op::Jump { target } => {
                        pc = *target as usize;
                        continue;
                    }
                    Op::JumpIfFalse { cond, target } => {
                        if !frame.regs[*cond as usize].truthy() {
                            pc = *target as usize;
                            continue;
                        }
                    }
                    Op::LoopInit {
                        i,
                        hi,
                        step,
                        var_slot,
                    } => {
                        for r in [*i, *hi, *step] {
                            frame.regs[r as usize] = Value::Int(frame.regs[r as usize].as_i64());
                        }
                        if frame.regs[*step as usize].as_i64() == 0 {
                            return Err(RunError::BadIndex(chunk.scalars[*var_slot as usize].0));
                        }
                    }
                    Op::LoopTest { i, hi, step, exit } => {
                        let iv = frame.regs[*i as usize].as_i64();
                        let hv = frame.regs[*hi as usize].as_i64();
                        let sv = frame.regs[*step as usize].as_i64();
                        if !((sv > 0 && iv <= hv) || (sv < 0 && iv >= hv)) {
                            pc = *exit as usize;
                            continue;
                        }
                    }
                    Op::LoopIncr { i, step } => {
                        let v = frame.regs[*i as usize]
                            .as_i64()
                            .wrapping_add(frame.regs[*step as usize].as_i64());
                        frame.regs[*i as usize] = Value::Int(v);
                    }
                    Op::Call { site } => {
                        let Frame {
                            regs,
                            scalars,
                            arrays,
                            callees,
                            ..
                        } = frame;
                        self.call::<COUNT>(
                            chunk, *site, arrays, scalars, regs, callees, state, tracer, counts,
                        )?;
                    }
                    Op::Read { site } => self.read_inputs(chunk, *site, &mut frame.scalars)?,
                    Op::Fail { site } => return Err(Self::fail(chunk, *site)),

                    // Superinstructions ([`crate::peephole`]): each arm
                    // replays its unfused sequence exactly — folded charge
                    // first, then operand loads, traced accesses and
                    // register writes in the original order.
                    Op::FusedBinSS {
                        charge,
                        op,
                        dst,
                        a_slot,
                        b_slot,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let a = Self::slot_value(chunk, frame, *a_slot)?;
                        let b = Self::slot_value(chunk, frame, *b_slot)?;
                        frame.regs[*dst as usize] = apply_bin(*op, a, b)?;
                    }
                    Op::FusedBinRS {
                        charge,
                        op,
                        dst,
                        a,
                        b_slot,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let b = Self::slot_value(chunk, frame, *b_slot)?;
                        frame.regs[*dst as usize] = apply_bin(*op, frame.regs[*a as usize], b)?;
                    }
                    Op::FusedBinRK {
                        charge,
                        op,
                        dst,
                        a,
                        k,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        frame.regs[*dst as usize] =
                            apply_bin(*op, frame.regs[*a as usize], chunk.consts[*k as usize])?;
                    }
                    Op::FusedBinRE {
                        charge,
                        op,
                        dst,
                        a,
                        arr,
                        idx_slot,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let b = {
                            let (name, lin, view) =
                                Self::linearize_slot(chunk, frame, *arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(name, &view.buf, lin);
                            }
                            view.buf.get(lin)
                        };
                        frame.regs[*dst as usize] = apply_bin(*op, frame.regs[*a as usize], b)?;
                    }
                    Op::FusedBinStore {
                        charge,
                        op,
                        slot,
                        dst,
                        a,
                        b,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let v = apply_bin(*op, frame.regs[*a as usize], frame.regs[*b as usize])?;
                        frame.regs[*dst as usize] = v;
                        frame.scalars[*slot as usize] =
                            Slot::coerced(v, chunk.scalars[*slot as usize].1);
                    }
                    Op::FusedLoadElemS {
                        charge,
                        dst,
                        arr,
                        idx_slot,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let v = {
                            let (name, lin, view) =
                                Self::linearize_slot(chunk, frame, *arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(name, &view.buf, lin);
                            }
                            view.buf.get(lin)
                        };
                        frame.regs[*dst as usize] = v;
                    }
                    Op::FusedStoreElemS {
                        charge,
                        arr,
                        idx_slot,
                        src,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let v = frame.regs[*src as usize];
                        let (name, lin, view) =
                            Self::linearize_slot(chunk, frame, *arr, *idx_slot)?;
                        if let Some(t) = writers.get(*arr, &view.buf) {
                            t.write(name, &view.buf, lin);
                        }
                        view.buf.set(lin, v);
                    }
                    Op::FusedElemUpdateK {
                        charge,
                        op,
                        dst,
                        arr,
                        idx_slot,
                        k,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let v = {
                            let (name, lin, view) =
                                Self::linearize_slot(chunk, frame, *arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(name, &view.buf, lin);
                            }
                            let v = apply_bin(*op, view.buf.get(lin), chunk.consts[*k as usize])?;
                            if let Some(t) = writers.get(*arr, &view.buf) {
                                t.write(name, &view.buf, lin);
                            }
                            view.buf.set(lin, v);
                            v
                        };
                        frame.regs[*dst as usize] = v;
                    }
                    Op::FusedElemUpdateS {
                        charge,
                        op,
                        dst,
                        arr,
                        idx_slot,
                        b_slot,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let v = {
                            let (name, lin, view) =
                                Self::linearize_slot(chunk, frame, *arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(name, &view.buf, lin);
                            }
                            let cur = view.buf.get(lin);
                            // The operand load sits between the traced
                            // read and write in the unfused stream, so an
                            // unbound operand errors after the read.
                            let b = Self::slot_value(chunk, frame, *b_slot)?;
                            let v = apply_bin(*op, cur, b)?;
                            if let Some(t) = writers.get(*arr, &view.buf) {
                                t.write(name, &view.buf, lin);
                            }
                            view.buf.set(lin, v);
                            v
                        };
                        frame.regs[*dst as usize] = v;
                    }
                    Op::ChargedConst { charge, dst, k } => {
                        state.charge(u64::from(*charge))?;
                        frame.regs[*dst as usize] = chunk.consts[*k as usize];
                    }
                    Op::ChargedLoadScalar { charge, dst, slot } => {
                        state.charge(u64::from(*charge))?;
                        frame.regs[*dst as usize] = Self::slot_value(chunk, frame, *slot)?;
                    }
                    Op::FusedLoadElemE {
                        charge,
                        dst,
                        idx_arr,
                        idx_slot,
                        arr,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let idx = {
                            let (name, lin, view) =
                                Self::linearize_slot(chunk, frame, *idx_arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(name, &view.buf, lin);
                            }
                            view.buf.get(lin).as_i64()
                        };
                        let name = chunk.arrays[*arr as usize].0;
                        let v = {
                            let view = frame.arrays[*arr as usize]
                                .as_ref()
                                .ok_or(RunError::UnboundArray(name))?;
                            let abs = (view.offset as i64).wrapping_add(idx.wrapping_sub(1));
                            if abs < 0 || abs as usize >= view.buf.len() {
                                return Err(RunError::BadIndex(name));
                            }
                            if let Some(t) = reader {
                                t.read(name, &view.buf, abs as usize);
                            }
                            view.buf.get(abs as usize)
                        };
                        frame.regs[*dst as usize] = v;
                    }
                    Op::FusedStoreElemE {
                        charge,
                        idx_arr,
                        idx_slot,
                        arr,
                        src,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let idx = {
                            let (name, lin, view) =
                                Self::linearize_slot(chunk, frame, *idx_arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(name, &view.buf, lin);
                            }
                            view.buf.get(lin).as_i64()
                        };
                        let v = frame.regs[*src as usize];
                        let name = chunk.arrays[*arr as usize].0;
                        let view = frame.arrays[*arr as usize]
                            .as_ref()
                            .ok_or(RunError::UnboundArray(name))?;
                        let abs = (view.offset as i64).wrapping_add(idx.wrapping_sub(1));
                        if abs < 0 || abs as usize >= view.buf.len() {
                            return Err(RunError::BadIndex(name));
                        }
                        if let Some(t) = writers.get(*arr, &view.buf) {
                            t.write(name, &view.buf, abs as usize);
                        }
                        view.buf.set(abs as usize, v);
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
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let v = {
                            let (iname, ilin, iview) =
                                Self::linearize_slot(chunk, frame, *idx_arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(iname, &iview.buf, ilin);
                            }
                            let idx = apply_bin(
                                *idx_op,
                                iview.buf.get(ilin),
                                chunk.consts[*idx_k as usize],
                            )?
                            .as_i64();
                            let name = chunk.arrays[*arr as usize].0;
                            let view = frame.arrays[*arr as usize]
                                .as_ref()
                                .ok_or(RunError::UnboundArray(name))?;
                            let abs = (view.offset as i64).wrapping_add(idx.wrapping_sub(1));
                            if abs < 0 || abs as usize >= view.buf.len() {
                                return Err(RunError::BadIndex(name));
                            }
                            if let Some(t) = reader {
                                t.read(name, &view.buf, abs as usize);
                            }
                            let v = apply_bin(
                                *op,
                                view.buf.get(abs as usize),
                                chunk.consts[*k as usize],
                            )?;
                            // The unfused stream recomputes the subscript
                            // for the store: a second traced index-array
                            // read between the element read and the write
                            // (nothing in the window writes, so neither the
                            // index value nor the bounds outcome can differ).
                            if let Some(t) = reader {
                                t.read(iname, &iview.buf, ilin);
                            }
                            if let Some(t) = writers.get(*arr, &view.buf) {
                                t.write(name, &view.buf, abs as usize);
                            }
                            view.buf.set(abs as usize, v);
                            v
                        };
                        frame.regs[*dst as usize] = v;
                    }
                    Op::FusedRedAccS {
                        charge,
                        op,
                        dst,
                        acc_slot,
                        arr,
                        idx_slot,
                    } => {
                        // Replays `ChargedLoadScalar + FusedLoadElemS +
                        // FusedBinStore`: charge unconditionally (built
                        // from a ChargedLoadScalar, charge > 0), unbound
                        // accumulator errors before the subscript load.
                        state.charge(u64::from(*charge))?;
                        let acc = Self::slot_value(chunk, frame, *acc_slot)?;
                        let b = {
                            let (name, lin, view) =
                                Self::linearize_slot(chunk, frame, *arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(name, &view.buf, lin);
                            }
                            view.buf.get(lin)
                        };
                        let v = apply_bin(*op, acc, b)?;
                        frame.regs[*dst as usize] = v;
                        frame.scalars[*acc_slot as usize] =
                            Slot::coerced(v, chunk.scalars[*acc_slot as usize].1);
                    }
                    Op::FusedRedElemK {
                        charge,
                        op,
                        dst,
                        arr,
                        idx_arr,
                        idx_slot,
                        k,
                    }
                    | Op::FusedRedElemS {
                        charge,
                        op,
                        dst,
                        arr,
                        idx_arr,
                        idx_slot,
                        b_slot: k,
                    } => {
                        if *charge > 0 {
                            state.charge(u64::from(*charge))?;
                        }
                        let v = {
                            let (iname, ilin, iview) =
                                Self::linearize_slot(chunk, frame, *idx_arr, *idx_slot)?;
                            if let Some(t) = reader {
                                t.read(iname, &iview.buf, ilin);
                            }
                            let idx = iview.buf.get(ilin).as_i64();
                            let name = chunk.arrays[*arr as usize].0;
                            let view = frame.arrays[*arr as usize]
                                .as_ref()
                                .ok_or(RunError::UnboundArray(name))?;
                            let abs = (view.offset as i64).wrapping_add(idx.wrapping_sub(1));
                            if abs < 0 || abs as usize >= view.buf.len() {
                                return Err(RunError::BadIndex(name));
                            }
                            if let Some(t) = reader {
                                t.read(name, &view.buf, abs as usize);
                            }
                            let cur = view.buf.get(abs as usize);
                            // The operand sits between the element read and
                            // the store in the unfused stream, so an
                            // unbound scalar operand errors after the read.
                            let b = if matches!(&ops[pc], Op::FusedRedElemS { .. }) {
                                Self::slot_value(chunk, frame, *k)?
                            } else {
                                chunk.consts[*k as usize]
                            };
                            let v = apply_bin(*op, cur, b)?;
                            // The unfused stream recomputes the subscript
                            // for the store: a second traced index-array
                            // read between the element read and the write
                            // (nothing in the window writes, so neither the
                            // index value nor the bounds outcome can differ).
                            if let Some(t) = reader {
                                t.read(iname, &iview.buf, ilin);
                            }
                            if let Some(t) = writers.get(*arr, &view.buf) {
                                t.write(name, &view.buf, abs as usize);
                            }
                            view.buf.set(abs as usize, v);
                            v
                        };
                        frame.regs[*dst as usize] = v;
                    }
                    Op::LoopTestSet {
                        i,
                        hi,
                        step,
                        exit,
                        var_slot,
                    } => {
                        let iv = frame.regs[*i as usize].as_i64();
                        let hv = frame.regs[*hi as usize].as_i64();
                        let sv = frame.regs[*step as usize].as_i64();
                        if (sv > 0 && iv <= hv) || (sv < 0 && iv >= hv) {
                            frame.scalars[*var_slot as usize] = Slot::of(frame.regs[*i as usize]);
                        } else {
                            pc = *exit as usize;
                            continue;
                        }
                    }
                    Op::LoopIncrJump { i, step, target } => {
                        let v = frame.regs[*i as usize]
                            .as_i64()
                            .wrapping_add(frame.regs[*step as usize].as_i64());
                        frame.regs[*i as usize] = Value::Int(v);
                        pc = *target as usize;
                        continue;
                    }
                }
                pc += 1;
            }
            // Tested before the step, so a range ending at `i64::MAX`
            // or `i64::MIN` ends instead of overflowing.
            if iter == last {
                return Ok(());
            }
            iter += step;
        }
    }

    /// `Op::Read`, out of line: READ statements sit outside hot loops.
    #[cold]
    #[inline(never)]
    pub(crate) fn read_inputs(
        &self,
        chunk: &Chunk,
        site: u16,
        scalars: &mut [Slot],
    ) -> Result<(), RunError> {
        for slot in &chunk.reads[site as usize] {
            let name = chunk.scalars[*slot as usize].0;
            let v = self
                .inputs
                .and_then(|m| m.get(&name))
                .copied()
                .ok_or(RunError::MissingInput(name))?;
            scalars[*slot as usize] = Slot::of(v);
        }
        Ok(())
    }

    /// `Op::Fail`, out of line (the error clone is not trivially small).
    #[cold]
    #[inline(never)]
    pub(crate) fn fail(chunk: &Chunk, site: u16) -> RunError {
        chunk.fails[site as usize].clone()
    }

    /// `Op::Call` for either stream: the caller's array views, scalar
    /// slots, `Value` registers (the typed stream materializes the
    /// registers a call reads first) and callee frame. The callee runs
    /// in that frame, reset: arguments are bound in parameter order,
    /// the call is opened on `state` ([`ExecState::enter_call`], which
    /// stops a call nested deeper than [`lip_ir::MAX_CALL_DEPTH`]),
    /// locals are allocated, and the body is one more guarded
    /// activation. Scalars passed as bare variables are copied back in
    /// parameter order, so of one scalar passed twice the later formal
    /// wins.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    pub(crate) fn call<const COUNT: bool>(
        &self,
        caller: &Chunk,
        site: u16,
        arrays: &[Option<ArrayView>],
        scalars: &mut [Slot],
        regs: &[Value],
        callees: &mut Vec<Option<Box<Frame>>>,
        state: &mut ExecState,
        tracer: Option<&dyn AccessTracer>,
        counts: &mut DispatchCounts,
    ) -> Result<(), RunError> {
        let cs = &caller.calls[site as usize];
        let callee = &self.prog.subs[cs.callee];
        if callees.is_empty() {
            callees.resize_with(self.prog.subs.len(), || None);
        }
        let inner = &mut **callees[cs.callee].get_or_insert_with(Box::default);
        inner.reset(callee);
        for (j, (pm, spec)) in callee.params.iter().zip(&cs.args).enumerate() {
            // An array argument: the caller's view, where the formal's
            // starts in its buffer, and the extents it passes on.
            let (view, offset, incoming) = match spec {
                ArgSpec::Value { reg } => {
                    inner.scalars[pm.scalar as usize] = Slot::of(regs[*reg as usize]);
                    continue;
                }
                ArgSpec::Var { arr, scalar } => match &arrays[*arr as usize] {
                    Some(view) => (view, view.offset, &view.extents[..]),
                    None if scalars[*scalar as usize].tag != 0 => {
                        inner.scalars[pm.scalar as usize] = scalars[*scalar as usize];
                        continue;
                    }
                    None => {
                        return Err(RunError::UnboundScalar(caller.scalars[*scalar as usize].0))
                    }
                },
                ArgSpec::Section { arr, base, n } => {
                    let (_, lin, view) = Self::linearize(caller, arrays, regs, *arr, *base, *n)?;
                    (view, lin, &[][..])
                }
            };
            self.bind_view::<COUNT>(
                callee, j, &view.buf, offset, incoming, inner, state, tracer, counts,
            )?;
        }
        state.enter_call(callee.name)?;
        let ran = self
            .alloc_locals::<COUNT>(callee, inner, state, tracer, counts)
            .and_then(|()| {
                let obs = &mut Unobserved;
                self.activate::<COUNT, _>(&callee.chunk, None, inner, state, tracer, counts, obs)
            });
        state.leave_call();
        ran?;
        // Copy-out: every bare-variable argument the caller has no array
        // for was copied in above (or the call failed).
        for (pm, spec) in callee.params.iter().zip(&cs.args) {
            if let ArgSpec::Var { arr, scalar } = spec {
                let v = inner.scalars[pm.scalar as usize];
                if arrays[*arr as usize].is_none() && v.tag != 0 {
                    scalars[*scalar as usize] = v;
                }
            }
        }
        Ok(())
    }
}
