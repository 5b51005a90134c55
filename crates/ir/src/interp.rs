//! Tree-walking interpreter with deterministic work-unit cost accounting.
//!
//! Arrays are stored in shared, atomically-accessed buffers
//! ([`ArrayBuf`]): every element is an atomic cell accessed with relaxed
//! ordering, so *concurrent* interpretation of loop iterations (the whole
//! point of the parallelizer) is data-race-free at the Rust level, while
//! the *semantic* absence of conflicts is exactly what the paper's
//! analysis establishes before running a loop in parallel.
//!
//! Cost model: every statement dispatch, expression node and array access
//! adds one work unit (array accesses add two: address + cell). The
//! deterministic unit count is the timing substrate for the evaluation's
//! simulated-processor figures.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use lip_symbolic::{EvalCtx, Sym};

use crate::ast::*;

/// A runtime scalar value.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Real.
    Real(f64),
}

impl Value {
    /// Numeric coercion to `i64` (reals truncate, as Fortran `INT`).
    #[inline]
    pub fn as_i64(self) -> i64 {
        // The saturating float conversion sits behind a cold call so
        // the integer case (every subscript, every loop bound) is one
        // predicted branch instead of a branchless convert-and-select.
        #[cold]
        fn truncate(v: f64) -> i64 {
            v as i64
        }
        match self {
            Value::Int(v) => v,
            Value::Real(v) => truncate(v),
        }
    }

    /// Numeric coercion to `f64`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Real(v) => v,
        }
    }

    /// Fortran truthiness (non-zero).
    #[inline]
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Real(v) => v != 0.0,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
        }
    }
}

enum Cells {
    Int(Vec<AtomicI64>),
    Real(Vec<AtomicU64>),
}

/// A shared, atomically-accessed array buffer.
///
/// All accesses use relaxed atomic loads/stores: concurrent iterations
/// never race in the language sense, and when the analysis has proven
/// independence they never touch the same cell at all.
pub struct ArrayBuf {
    cells: Cells,
}

impl ArrayBuf {
    /// A zero-initialized integer buffer.
    pub fn new_int(len: usize) -> Arc<ArrayBuf> {
        Arc::new(ArrayBuf {
            cells: Cells::Int((0..len).map(|_| AtomicI64::new(0)).collect()),
        })
    }

    /// A zero-initialized real buffer.
    pub fn new_real(len: usize) -> Arc<ArrayBuf> {
        Arc::new(ArrayBuf {
            cells: Cells::Real((0..len).map(|_| AtomicU64::new(0f64.to_bits())).collect()),
        })
    }

    /// An integer buffer from initial contents.
    pub fn from_i64(data: &[i64]) -> Arc<ArrayBuf> {
        Arc::new(ArrayBuf {
            cells: Cells::Int(data.iter().map(|&v| AtomicI64::new(v)).collect()),
        })
    }

    /// A real buffer from initial contents.
    pub fn from_f64(data: &[f64]) -> Arc<ArrayBuf> {
        Arc::new(ArrayBuf {
            cells: Cells::Real(data.iter().map(|&v| AtomicU64::new(v.to_bits())).collect()),
        })
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.cells {
            Cells::Int(v) => v.len(),
            Cells::Real(v) => v.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type.
    pub fn ty(&self) -> Ty {
        match &self.cells {
            Cells::Int(_) => Ty::Int,
            Cells::Real(_) => Ty::Real,
        }
    }

    /// Reads element `idx` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> Value {
        match &self.cells {
            Cells::Int(v) => Value::Int(v[idx].load(Ordering::Relaxed)),
            Cells::Real(v) => Value::Real(f64::from_bits(v[idx].load(Ordering::Relaxed))),
        }
    }

    /// Writes element `idx` (0-based), coercing to the buffer's type.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn set(&self, idx: usize, v: Value) {
        match &self.cells {
            Cells::Int(cells) => cells[idx].store(v.as_i64(), Ordering::Relaxed),
            Cells::Real(cells) => cells[idx].store(v.as_f64().to_bits(), Ordering::Relaxed),
        }
    }

    /// The cells of an Int buffer (`None` for a Real one): what the
    /// VM's typed stream resolves an INTEGER array to once per
    /// activation, so an element access is one relaxed load with no
    /// representation `match`.
    #[inline]
    pub fn int_cells(&self) -> Option<&[AtomicI64]> {
        match &self.cells {
            Cells::Int(v) => Some(v),
            Cells::Real(_) => None,
        }
    }

    /// The cells of a Real buffer as `f64` bit patterns (`None` for an
    /// Int one); the REAL counterpart of [`ArrayBuf::int_cells`].
    #[inline]
    pub fn real_cells(&self) -> Option<&[AtomicU64]> {
        match &self.cells {
            Cells::Real(v) => Some(v),
            Cells::Int(_) => None,
        }
    }

    /// Reads element `idx` as `f64`.
    pub fn get_f64(&self, idx: usize) -> f64 {
        self.get(idx).as_f64()
    }

    /// Reads element `idx` as `i64`.
    pub fn get_i64(&self, idx: usize) -> i64 {
        self.get(idx).as_i64()
    }

    /// Copies cells `start .. start + out.len()` out under the `i64`
    /// view of [`Value::as_i64`] (Real cells truncate): the typed bulk
    /// read behind the runtime's input digests — one `match` per block,
    /// no `Value` per element.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn read_i64(&self, start: usize, out: &mut [i64]) {
        let range = start..start + out.len();
        match &self.cells {
            Cells::Int(v) => {
                for (o, c) in out.iter_mut().zip(&v[range]) {
                    *o = c.load(Ordering::Relaxed);
                }
            }
            Cells::Real(v) => {
                for (o, c) in out.iter_mut().zip(&v[range]) {
                    *o = f64::from_bits(c.load(Ordering::Relaxed)) as i64;
                }
            }
        }
    }

    /// Copies an Int buffer out as a flat `i64` vector (`None` for a
    /// Real buffer). The relaxed per-cell atomic API cannot
    /// autovectorize; a plain vector can, so the runtime's merge
    /// kernels copy out, merge flat slices, and write back with
    /// [`ArrayBuf::store_i64`].
    pub fn to_i64_vec(&self) -> Option<Vec<i64>> {
        match &self.cells {
            Cells::Int(v) => Some(v.iter().map(|c| c.load(Ordering::Relaxed)).collect()),
            Cells::Real(_) => None,
        }
    }

    /// Copies a Real buffer out as a flat `f64` vector (`None` for an
    /// Int buffer).
    pub fn to_f64_vec(&self) -> Option<Vec<f64>> {
        match &self.cells {
            Cells::Real(v) => Some(
                v.iter()
                    .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
                    .collect(),
            ),
            Cells::Int(_) => None,
        }
    }

    /// Bulk write-back of a flat slice into an Int buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is Real or the lengths differ.
    pub fn store_i64(&self, data: &[i64]) {
        match &self.cells {
            Cells::Int(v) => {
                assert_eq!(data.len(), v.len(), "flat store length mismatch");
                for (c, &x) in v.iter().zip(data) {
                    c.store(x, Ordering::Relaxed);
                }
            }
            Cells::Real(_) => panic!("store_i64 into a Real buffer"),
        }
    }

    /// Bulk write-back of a flat slice into a Real buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is Int or the lengths differ.
    pub fn store_f64(&self, data: &[f64]) {
        match &self.cells {
            Cells::Real(v) => {
                assert_eq!(data.len(), v.len(), "flat store length mismatch");
                for (c, &x) in v.iter().zip(data) {
                    c.store(x.to_bits(), Ordering::Relaxed);
                }
            }
            Cells::Int(_) => panic!("store_f64 into an Int buffer"),
        }
    }
}

impl fmt::Debug for ArrayBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArrayBuf(len={}, ty={:?})", self.len(), self.ty())
    }
}

/// A frame's view of an array: a shared buffer, a section offset (for
/// `HE(1, id)`-style actual arguments) and the locally declared extents
/// (reshaping: the same buffer can be viewed `(32, *)` by the caller and
/// `(8, *)` by the callee).
#[derive(Clone, Debug)]
pub struct ArrayView {
    /// Backing storage.
    pub buf: Arc<ArrayBuf>,
    /// 0-based element offset of this view's `(1,1,…)`.
    pub offset: usize,
    /// Declared extents; the last may be `i64::MAX` for assumed size.
    pub extents: Vec<i64>,
}

impl ArrayView {
    /// Column-major, 1-based linearization relative to the view.
    /// Returns the absolute buffer index, or `None` when out of bounds.
    /// Public so the bytecode VM shares the exact addressing model.
    pub fn linearize(&self, idx: &[i64]) -> Option<usize> {
        let mut lin: i64 = 0;
        let mut stride: i64 = 1;
        for (k, &i) in idx.iter().enumerate() {
            // Checked: a subscript whose offset leaves `i64` is out of
            // bounds on every build profile, not a debug-only panic.
            lin = lin.checked_add(i.checked_sub(1)?.checked_mul(stride)?)?;
            // The stride is only needed for the *next* dimension, so an
            // assumed-size (i64::MAX) last extent never enters a product.
            if k + 1 < idx.len() {
                stride = stride.checked_mul(*self.extents.get(k)?)?;
            }
        }
        let abs = (self.offset as i64).checked_add(lin)?;
        if abs < 0 || abs as usize >= self.buf.len() {
            return None;
        }
        Some(abs as usize)
    }

    /// Reads the element at 1-based, 1-D index `i` relative to the view.
    pub fn get_lin(&self, i: i64) -> Option<Value> {
        let abs = (self.offset as i64).wrapping_add(i.wrapping_sub(1));
        if abs < 0 || abs as usize >= self.buf.len() {
            return None;
        }
        Some(self.buf.get(abs as usize))
    }

    /// Reads element `idx` (0-based, relative to the view) as `f64`.
    pub fn get_f64(&self, idx: usize) -> f64 {
        self.buf.get_f64(self.offset + idx)
    }

    /// Reads element `idx` (0-based, relative to the view) as `i64`.
    pub fn get_i64(&self, idx: usize) -> i64 {
        self.buf.get_i64(self.offset + idx)
    }
}

/// A scalar/array binding frame (also the whole-program store handed to
/// [`Machine::run`]).
#[derive(Clone, Debug, Default)]
pub struct Store {
    scalars: HashMap<Sym, Value>,
    arrays: HashMap<Sym, ArrayView>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Binds a scalar.
    pub fn set_scalar(&mut self, s: Sym, v: Value) -> &mut Self {
        self.scalars.insert(s, v);
        self
    }

    /// Convenience: binds an integer scalar.
    pub fn set_int(&mut self, s: Sym, v: i64) -> &mut Self {
        self.set_scalar(s, Value::Int(v))
    }

    /// Reads a scalar.
    pub fn scalar(&self, s: Sym) -> Option<Value> {
        self.scalars.get(&s).copied()
    }

    /// Binds an array view.
    pub fn bind_array(&mut self, s: Sym, view: ArrayView) -> &mut Self {
        self.arrays.insert(s, view);
        self
    }

    /// Allocates and binds a fresh 1-D array.
    pub fn alloc_int(&mut self, s: Sym, len: usize) -> Arc<ArrayBuf> {
        let buf = ArrayBuf::new_int(len);
        self.bind_array(
            s,
            ArrayView {
                buf: buf.clone(),
                offset: 0,
                extents: vec![len as i64],
            },
        );
        buf
    }

    /// Allocates and binds a fresh 1-D real array.
    pub fn alloc_real(&mut self, s: Sym, len: usize) -> Arc<ArrayBuf> {
        let buf = ArrayBuf::new_real(len);
        self.bind_array(
            s,
            ArrayView {
                buf: buf.clone(),
                offset: 0,
                extents: vec![len as i64],
            },
        );
        buf
    }

    /// Looks up an array view.
    pub fn array(&self, s: Sym) -> Option<&ArrayView> {
        self.arrays.get(&s)
    }

    /// Iterates over bound arrays.
    pub fn arrays(&self) -> impl Iterator<Item = (Sym, &ArrayView)> {
        self.arrays.iter().map(|(s, v)| (*s, v))
    }

    /// Iterates over bound scalars (differential testing, writeback).
    pub fn scalars(&self) -> impl Iterator<Item = (Sym, Value)> + '_ {
        self.scalars.iter().map(|(s, v)| (*s, *v))
    }
}

/// An [`EvalCtx`] over a [`Store`], used to evaluate runtime predicates
/// and USRs against live program state. Array subscripts are interpreted
/// in the 1-based, 1-D (linearized) space of the bound view.
pub struct StoreCtx<'a>(pub &'a Store);

impl EvalCtx for StoreCtx<'_> {
    fn scalar(&self, s: Sym) -> Option<i64> {
        self.0.scalar(s).map(Value::as_i64)
    }

    fn elem(&self, arr: Sym, idx: i64) -> Option<i64> {
        self.0.array(arr)?.get_lin(idx).map(Value::as_i64)
    }

    fn elem_reader<'a>(&'a self, arr: Sym) -> Option<Box<dyn Fn(i64) -> Option<i64> + Sync + 'a>> {
        let view = self.0.array(arr)?.clone();
        Some(Box::new(move |idx| view.get_lin(idx).map(Value::as_i64)))
    }
}

/// Interpretation failure.
#[derive(Clone, PartialEq, Debug)]
pub enum RunError {
    /// Unbound scalar.
    UnboundScalar(Sym),
    /// Unbound array.
    UnboundArray(Sym),
    /// Out-of-bounds or malformed subscript.
    BadIndex(Sym),
    /// Unknown subroutine.
    NoSuchSubroutine(Sym),
    /// Wrong argument count at a call.
    BadArity(Sym),
    /// Missing READ input.
    MissingInput(Sym),
    /// Exceeded the step budget (runaway loop guard).
    StepLimit,
    /// The program or target is outside what the driver can run (the
    /// VM's static limits, a loop form it does not take); the reason is
    /// interned so the error stays one word on the VM's return paths.
    Unsupported(Sym),
    /// An integer operation whose result does not fit in `i64`:
    /// `i64::MIN / -1`, `-i64::MIN`, `ABS(i64::MIN)`, or an integer
    /// `**` past the range. (`+`, `-` and `*` wrap, as they always did.)
    IntOverflow,
    /// A CALL of the named subroutine would nest deeper than
    /// [`MAX_CALL_DEPTH`] (a recursive program; Fortran 77 has none).
    CallDepth(Sym),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnboundScalar(s) => write!(f, "unbound scalar {s}"),
            RunError::UnboundArray(s) => write!(f, "unbound array {s}"),
            RunError::BadIndex(s) => write!(f, "index out of bounds on {s}"),
            RunError::NoSuchSubroutine(s) => write!(f, "no such subroutine {s}"),
            RunError::BadArity(s) => write!(f, "wrong argument count calling {s}"),
            RunError::MissingInput(s) => write!(f, "no READ input bound for {s}"),
            RunError::StepLimit => write!(f, "step budget exhausted"),
            RunError::Unsupported(why) => write!(f, "unsupported: {why}"),
            RunError::IntOverflow => write!(f, "integer overflow"),
            RunError::CallDepth(s) => {
                write!(f, "calling {s} nests deeper than {MAX_CALL_DEPTH} calls")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// How deep CALLs may nest, in both engines: the call that would be
/// the `MAX_CALL_DEPTH + 1`-th open one fails with
/// [`RunError::CallDepth`] instead of exhausting the thread's stack.
pub const MAX_CALL_DEPTH: u32 = 64;

/// Execution statistics.
#[derive(Copy, Clone, Debug)]
pub struct ExecState {
    /// Accumulated work units.
    pub cost: u64,
    /// The most work units a run may accumulate: the step budget, or
    /// `u64::MAX` for none, so a charge makes one compare.
    limit: u64,
    /// CALLs currently open.
    depth: u32,
}

impl Default for ExecState {
    /// No cost yet and no budget.
    fn default() -> ExecState {
        ExecState::with_budget(0)
    }
}

impl ExecState {
    /// A state with the given step budget (0 = unlimited).
    pub fn with_budget(budget: u64) -> ExecState {
        ExecState {
            cost: 0,
            limit: if budget == 0 { u64::MAX } else { budget },
            depth: 0,
        }
    }

    /// Opens a CALL of `callee`, after its arguments are bound and
    /// before its locals are allocated — the same point in both
    /// engines, so a too-deep call leaves the same partial state.
    /// A call this opens is closed by [`ExecState::leave_call`] once
    /// its body has run, successfully or not.
    ///
    /// # Errors
    ///
    /// [`RunError::CallDepth`] when [`MAX_CALL_DEPTH`] calls are open.
    #[inline]
    pub fn enter_call(&mut self, callee: Sym) -> Result<(), RunError> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(RunError::CallDepth(callee));
        }
        self.depth += 1;
        Ok(())
    }

    /// Closes the innermost open CALL.
    #[inline]
    pub fn leave_call(&mut self) {
        self.depth -= 1;
    }

    /// Adds `units` work units, failing with [`RunError::StepLimit`]
    /// once the budget (if any) is exhausted. Public so the bytecode VM
    /// shares the interpreter's cost/budget accounting.
    #[inline]
    pub fn charge(&mut self, units: u64) -> Result<(), RunError> {
        self.cost += units;
        if self.cost > self.limit {
            return Err(RunError::StepLimit);
        }
        Ok(())
    }
}

/// Observes every array-element access during interpretation (the hook
/// used by the LRPD speculation test, the dynamic-last-value marks and
/// the inspector/executor).
///
/// Each access names the array as the executing unit spells it *and*
/// hands over the buffer behind that name. The runtime's hooks key on
/// the buffer (by address): a callee reaching the array through a
/// formal of another name touches the same memory, so it is the same
/// array to them. The name is for recorders that compare access streams.
pub trait AccessTracer: Send + Sync {
    /// Element `idx` (absolute buffer index) of `buf`, bound to `arr`
    /// in the executing unit, was read.
    fn read(&self, arr: Sym, buf: &ArrayBuf, idx: usize);
    /// Element `idx` (absolute buffer index) of `buf`, bound to `arr`
    /// in the executing unit, was written.
    fn write(&self, arr: Sym, buf: &ArrayBuf, idx: usize);
    /// Whether [`AccessTracer::read`] does anything. A tracer that
    /// answers `false` promises its `read` is a no-op, and the bytecode
    /// VM, which asks once per activation, then makes no call for a
    /// read at all.
    fn wants_reads(&self) -> bool {
        true
    }
    /// Whether [`AccessTracer::write`] does anything for `buf`. A tracer
    /// that answers `false` promises its `write` is a no-op for that
    /// buffer, and the bytecode VM, which asks at most once per
    /// activation and array, then makes no call for a write to it
    /// (except through an array slot past a chunk's 64th, which the
    /// `Value` stream hooks without asking).
    fn wants_writes(&self, _buf: &ArrayBuf) -> bool {
        true
    }
}

/// The interpreter: a program plus READ-input bindings.
#[derive(Clone)]
pub struct Machine {
    prog: Arc<Program>,
    /// Values delivered by `READ(*,*)`, keyed by target name.
    pub inputs: HashMap<Sym, Value>,
    tracer: Option<Arc<dyn AccessTracer>>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Machine(units={}, traced={})",
            self.prog.units.len(),
            self.tracer.is_some()
        )
    }
}

impl Machine {
    /// Wraps a parsed program.
    pub fn new(prog: Program) -> Machine {
        Machine {
            prog: Arc::new(prog),
            inputs: HashMap::new(),
            tracer: None,
        }
    }

    /// A copy of this machine that reports every array access to
    /// `tracer` (LRPD shadow instrumentation).
    pub fn with_tracer(&self, tracer: Arc<dyn AccessTracer>) -> Machine {
        let mut m = self.clone();
        m.tracer = Some(tracer);
        m
    }

    /// The tracer this machine reports array accesses to, if any (so
    /// alternative execution backends honor the same instrumentation).
    pub fn tracer(&self) -> Option<&Arc<dyn AccessTracer>> {
        self.tracer.as_ref()
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// The underlying program as a shared handle. Machines cloned from
    /// one another (e.g. via [`Machine::with_tracer`]) return the same
    /// `Arc` (what `lip_runtime`'s compat wrappers find a cache by).
    pub fn program_handle(&self) -> Arc<Program> {
        self.prog.clone()
    }

    /// Binds a READ input.
    pub fn set_input(&mut self, s: Sym, v: Value) -> &mut Self {
        self.inputs.insert(s, v);
        self
    }

    /// Runs the entry subroutine with `store` as its frame, returning
    /// the accumulated work units.
    ///
    /// # Errors
    ///
    /// Any [`RunError`] raised during interpretation.
    pub fn run(&self, store: &mut Store) -> Result<u64, RunError> {
        let mut state = ExecState::default();
        self.run_with_state(store, &mut state)?;
        Ok(state.cost)
    }

    /// Runs the entry subroutine under an existing [`ExecState`]
    /// (shared budget / cost accumulation).
    pub fn run_with_state(&self, store: &mut Store, state: &mut ExecState) -> Result<(), RunError> {
        let entry = self
            .prog
            .entry()
            .ok_or(RunError::NoSuchSubroutine(lip_symbolic::sym("main")))?
            .clone();
        self.alloc_locals(&entry, store, state)?;
        self.exec_block(&entry, store, &entry.body, state)
    }

    /// Allocates the subroutine's non-parameter fixed-size arrays into
    /// the frame (if not already bound, so drivers can pre-bind).
    pub fn alloc_locals(
        &self,
        sub: &Subroutine,
        frame: &mut Store,
        state: &mut ExecState,
    ) -> Result<(), RunError> {
        for d in &sub.decls {
            if d.dims.is_empty() || sub.params.contains(&d.name) || frame.array(d.name).is_some() {
                continue;
            }
            let mut extents = Vec::new();
            let mut len: i64 = 1;
            for dim in &d.dims {
                match dim {
                    DimDecl::Fixed(e) => {
                        let v = self.eval(sub, frame, e, state)?.as_i64();
                        extents.push(v);
                        len = len.saturating_mul(v.max(0));
                    }
                    DimDecl::Assumed => return Err(RunError::BadIndex(d.name)),
                }
            }
            let len = usize::try_from(len.max(0)).unwrap_or(0);
            let buf = match d.ty {
                Ty::Int => ArrayBuf::new_int(len),
                Ty::Real => ArrayBuf::new_real(len),
            };
            frame.bind_array(
                d.name,
                ArrayView {
                    buf,
                    offset: 0,
                    extents,
                },
            );
        }
        Ok(())
    }

    /// Executes a statement block in `frame`.
    pub fn exec_block(
        &self,
        sub: &Subroutine,
        frame: &mut Store,
        stmts: &[Stmt],
        state: &mut ExecState,
    ) -> Result<(), RunError> {
        for s in stmts {
            self.exec_stmt(sub, frame, s, state)?;
        }
        Ok(())
    }

    /// Executes one statement.
    pub fn exec_stmt(
        &self,
        sub: &Subroutine,
        frame: &mut Store,
        stmt: &Stmt,
        state: &mut ExecState,
    ) -> Result<(), RunError> {
        state.charge(1)?;
        match stmt {
            Stmt::Assign { lhs, rhs } => {
                let v = self.eval(sub, frame, rhs, state)?;
                match lhs {
                    LValue::Scalar(s) => {
                        let v = match sub.ty_of(*s) {
                            Ty::Int => Value::Int(v.as_i64()),
                            Ty::Real => Value::Real(v.as_f64()),
                        };
                        frame.set_scalar(*s, v);
                    }
                    LValue::Element(a, idx) => {
                        state.charge(2)?;
                        let lin = self.index_of(sub, frame, *a, idx, state)?;
                        let view = frame.array(*a).ok_or(RunError::UnboundArray(*a))?;
                        if let Some(t) = &self.tracer {
                            t.write(*a, &view.buf, lin);
                        }
                        view.buf.set(lin, v);
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(sub, frame, cond, state)?;
                if c.truthy() {
                    self.exec_block(sub, frame, then_body, state)
                } else {
                    self.exec_block(sub, frame, else_body, state)
                }
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let lo = self.eval(sub, frame, lo, state)?.as_i64();
                let hi = self.eval(sub, frame, hi, state)?.as_i64();
                let step = match step {
                    Some(e) => self.eval(sub, frame, e, state)?.as_i64(),
                    None => 1,
                };
                if step == 0 {
                    return Err(RunError::BadIndex(*var));
                }
                let mut i = lo;
                while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
                    frame.set_scalar(*var, Value::Int(i));
                    self.exec_block(sub, frame, body, state)?;
                    i = i.wrapping_add(step);
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    let c = self.eval(sub, frame, cond, state)?;
                    if !c.truthy() {
                        break;
                    }
                    self.exec_block(sub, frame, body, state)?;
                    state.charge(1)?;
                }
                Ok(())
            }
            Stmt::Call { callee, args } => self.exec_call(sub, frame, *callee, args, state),
            Stmt::Read { targets } => {
                for t in targets {
                    let v = self
                        .inputs
                        .get(t)
                        .copied()
                        .ok_or(RunError::MissingInput(*t))?;
                    frame.set_scalar(*t, v);
                }
                Ok(())
            }
        }
    }

    fn exec_call(
        &self,
        caller: &Subroutine,
        frame: &mut Store,
        callee_name: Sym,
        args: &[Expr],
        state: &mut ExecState,
    ) -> Result<(), RunError> {
        state.charge(4 + args.len() as u64)?;
        let callee = self
            .prog
            .subroutine(callee_name)
            .ok_or(RunError::NoSuchSubroutine(callee_name))?
            .clone();
        if callee.params.len() != args.len() {
            return Err(RunError::BadArity(callee_name));
        }
        let mut inner = Store::new();
        // Scalars passed by copy-in/copy-out; array arguments pass
        // (buffer, offset) sections.
        let mut copy_out: Vec<(Sym, Sym)> = Vec::new(); // (formal, actual)
        for (formal, actual) in callee.params.iter().zip(args.iter()) {
            match actual {
                Expr::Var(name) if frame.array(*name).is_some() => {
                    let view = frame.array(*name).expect("checked").clone();
                    let reshaped = self.reshape_view(&callee, &inner, *formal, view, state)?;
                    inner.bind_array(*formal, reshaped);
                }
                Expr::Elem(name, idx) if frame.array(*name).is_some() => {
                    let lin = self.index_of(caller, frame, *name, idx, state)?;
                    let base = frame.array(*name).expect("checked").clone();
                    let view = ArrayView {
                        buf: base.buf,
                        offset: lin,
                        extents: vec![],
                    };
                    let reshaped = self.reshape_view(&callee, &inner, *formal, view, state)?;
                    inner.bind_array(*formal, reshaped);
                }
                Expr::Var(name) => {
                    let v = frame.scalar(*name).ok_or(RunError::UnboundScalar(*name))?;
                    inner.set_scalar(*formal, v);
                    copy_out.push((*formal, *name));
                }
                e => {
                    let v = self.eval(caller, frame, e, state)?;
                    inner.set_scalar(*formal, v);
                }
            }
        }
        state.enter_call(callee_name)?;
        let ran = self
            .alloc_locals(&callee, &mut inner, state)
            .and_then(|()| self.exec_block(&callee, &mut inner, &callee.body, state));
        state.leave_call();
        ran?;
        for (formal, actual) in copy_out {
            if let Some(v) = inner.scalar(formal) {
                frame.set_scalar(actual, v);
            }
        }
        Ok(())
    }

    /// Applies the callee's declared extents to an incoming view
    /// (array reshaping at the call site).
    fn reshape_view(
        &self,
        callee: &Subroutine,
        callee_frame: &Store,
        formal: Sym,
        view: ArrayView,
        state: &mut ExecState,
    ) -> Result<ArrayView, RunError> {
        let Some(decl) = callee.decl(formal) else {
            return Ok(view);
        };
        let mut extents = Vec::new();
        for dim in &decl.dims {
            match dim {
                DimDecl::Fixed(e) => {
                    let v = self.eval(callee, callee_frame, e, state)?.as_i64();
                    extents.push(v);
                }
                DimDecl::Assumed => extents.push(i64::MAX),
            }
        }
        Ok(ArrayView {
            buf: view.buf,
            offset: view.offset,
            extents,
        })
    }

    fn index_of(
        &self,
        sub: &Subroutine,
        frame: &Store,
        arr: Sym,
        idx: &[Expr],
        state: &mut ExecState,
    ) -> Result<usize, RunError> {
        let mut vals = Vec::with_capacity(idx.len());
        for e in idx {
            vals.push(self.eval(sub, frame, e, state)?.as_i64());
        }
        let view = frame.array(arr).ok_or(RunError::UnboundArray(arr))?;
        view.linearize(&vals).ok_or(RunError::BadIndex(arr))
    }

    /// Evaluates an expression.
    pub fn eval(
        &self,
        sub: &Subroutine,
        frame: &Store,
        e: &Expr,
        state: &mut ExecState,
    ) -> Result<Value, RunError> {
        state.charge(1)?;
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Real(v) => Ok(Value::Real(*v)),
            Expr::Var(s) => frame.scalar(*s).ok_or(RunError::UnboundScalar(*s)),
            Expr::Elem(a, idx) => {
                state.charge(1)?;
                let lin = self.index_of(sub, frame, *a, idx, state)?;
                let view = frame.array(*a).ok_or(RunError::UnboundArray(*a))?;
                if let Some(t) = &self.tracer {
                    t.read(*a, &view.buf, lin);
                }
                Ok(view.buf.get(lin))
            }
            Expr::Un(op, a) => {
                let v = self.eval(sub, frame, a, state)?;
                apply_un(*op, v)
            }
            Expr::Bin(op, a, b) => {
                let x = self.eval(sub, frame, a, state)?;
                let y = self.eval(sub, frame, b, state)?;
                apply_bin(*op, x, y)
            }
            Expr::Intrin(intr, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(sub, frame, a, state)?);
                }
                apply_intrinsic(*intr, &vals)
            }
        }
    }
}

/// Applies a unary operator with the interpreter's value semantics
/// (shared with the bytecode VM). `-i64::MIN` is
/// [`RunError::IntOverflow`].
#[inline]
pub fn apply_un(op: UnOp, v: Value) -> Result<Value, RunError> {
    Ok(match op {
        UnOp::Neg => match v {
            Value::Int(x) => Value::Int(x.checked_neg().ok_or(RunError::IntOverflow)?),
            Value::Real(x) => Value::Real(-x),
        },
        UnOp::Not => Value::Int(i64::from(!v.truthy())),
    })
}

/// Applies a binary operator with the interpreter's value semantics:
/// integer mode iff both operands are integers, Fortran truthiness for
/// the logical connectives (shared with the bytecode VM). Integer `+`,
/// `-` and `*` wrap; a division or power whose result leaves `i64` is
/// [`RunError::IntOverflow`] ([`int_div_pow`]).
///
/// Only the same-type arms that are one machine instruction live
/// here; everything else is `apply_bin_cold`. `inline(always)`
/// because the plain hint is not honoured at the VM's twelve dispatch
/// sites (the arms still add up past the inliner's budget) and, without
/// LTO, an out-of-line call here costs more than the operation.
#[inline(always)]
pub fn apply_bin(op: BinOp, x: Value, y: Value) -> Result<Value, RunError> {
    use BinOp::*;
    use Value::{Int, Real};
    Ok(match (x, y) {
        (Int(a), Int(b)) => match op {
            Add => Int(a.wrapping_add(b)),
            Sub => Int(a.wrapping_sub(b)),
            Mul => Int(a.wrapping_mul(b)),
            Eq => Int(i64::from(a == b)),
            Ne => Int(i64::from(a != b)),
            Lt => Int(i64::from(a < b)),
            Le => Int(i64::from(a <= b)),
            Gt => Int(i64::from(a > b)),
            Ge => Int(i64::from(a >= b)),
            Div | Pow | And | Or => return from_pair(apply_bin_cold(op, x, y)),
        },
        (Real(a), Real(b)) => match op {
            Add => Real(a + b),
            Sub => Real(a - b),
            Mul => Real(a * b),
            Div => Real(a / b),
            Eq => Int(i64::from(a == b)),
            Ne => Int(i64::from(a != b)),
            Lt => Int(i64::from(a < b)),
            Le => Int(i64::from(a <= b)),
            Gt => Int(i64::from(a > b)),
            Ge => Int(i64::from(a >= b)),
            Pow | And | Or => return from_pair(apply_bin_cold(op, x, y)),
        },
        _ => return from_pair(apply_bin_cold(op, x, y)),
    })
}

/// A [`Value`] as `(tag, payload bits)`: tag 0 is Int, 1 is Real and
/// [`PAIR_OVERFLOW`] an integer overflow. [`apply_bin_cold`] returns
/// this instead of a `Result<Value, _>`: the pair comes back in two
/// registers, where a `Value` comes back through a stack slot that
/// every inlined hot arm of [`apply_bin`] would then have to write too
/// (and the 16-byte reload of that slot right after two 8-byte stores
/// defeats store forwarding — measured at a fifth of the `stencil`
/// body).
type ValuePair = (u8, u64);

const PAIR_OVERFLOW: u8 = 2;

#[inline(always)]
fn from_pair((tag, bits): ValuePair) -> Result<Value, RunError> {
    match tag {
        0 => Ok(Value::Int(bits as i64)),
        1 => Ok(Value::Real(f64::from_bits(bits))),
        _ => Err(RunError::IntOverflow),
    }
}

/// Integer `Div` / `Pow` with the interpreter's edge semantics:
/// division by zero is 0, a negative exponent is 0, the exponent clamps
/// at 62; a result outside `i64` (`i64::MIN / -1`, an overflowing
/// power) is [`RunError::IntOverflow`]. Shared by every engine (the
/// interpreter, the VM's `Value` stream and its typed `Int` ops).
///
/// # Panics
///
/// Panics if `op` is neither `Div` nor `Pow`.
#[inline(never)]
pub fn int_div_pow(op: BinOp, a: i64, b: i64) -> Result<i64, RunError> {
    let v = match op {
        BinOp::Div if b == 0 => Some(0),
        BinOp::Div => a.checked_div(b),
        BinOp::Pow if b < 0 => Some(0),
        BinOp::Pow => a.checked_pow(b.min(62) as u32),
        _ => panic!("int_div_pow on {op:?}"),
    };
    v.ok_or(RunError::IntOverflow)
}

/// The out-of-line half of [`apply_bin`]: integer `Div`/`Pow`, the
/// logical connectives, and real mode reached by coercion (mixed
/// operand types, real `Pow`).
#[inline(never)]
fn apply_bin_cold(op: BinOp, x: Value, y: Value) -> ValuePair {
    use BinOp::*;
    let v = match (op, x, y) {
        (And, ..) => Value::Int(i64::from(x.truthy() && y.truthy())),
        (Or, ..) => Value::Int(i64::from(x.truthy() || y.truthy())),
        (Div | Pow, Value::Int(a), Value::Int(b)) => match int_div_pow(op, a, b) {
            Ok(v) => Value::Int(v),
            Err(_) => return (PAIR_OVERFLOW, 0),
        },
        _ => {
            let (a, b) = (x.as_f64(), y.as_f64());
            match op {
                Add => Value::Real(a + b),
                Sub => Value::Real(a - b),
                Mul => Value::Real(a * b),
                Div => Value::Real(a / b),
                Pow => Value::Real(a.powf(b)),
                Eq => Value::Int(i64::from(a == b)),
                Ne => Value::Int(i64::from(a != b)),
                Lt => Value::Int(i64::from(a < b)),
                Le => Value::Int(i64::from(a <= b)),
                Gt => Value::Int(i64::from(a > b)),
                Ge => Value::Int(i64::from(a >= b)),
                And | Or => unreachable!("handled above"),
            }
        }
    };
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Real(r) => (1, r.to_bits()),
    }
}

/// Applies an intrinsic with the interpreter's value semantics (integer
/// mode for MIN/MAX iff every argument is an integer; shared with the
/// bytecode VM). `ABS(i64::MIN)` is [`RunError::IntOverflow`];
/// `MOD(i64::MIN, -1)` is 0.
pub fn apply_intrinsic(intr: Intrinsic, vals: &[Value]) -> Result<Value, RunError> {
    Ok(match intr {
        Intrinsic::Min => {
            let int_mode = vals.iter().all(|v| matches!(v, Value::Int(_)));
            if int_mode {
                Value::Int(vals.iter().map(|v| v.as_i64()).min().unwrap_or(0))
            } else {
                Value::Real(
                    vals.iter()
                        .map(|v| v.as_f64())
                        .fold(f64::INFINITY, f64::min),
                )
            }
        }
        Intrinsic::Max => {
            let int_mode = vals.iter().all(|v| matches!(v, Value::Int(_)));
            if int_mode {
                Value::Int(vals.iter().map(|v| v.as_i64()).max().unwrap_or(0))
            } else {
                Value::Real(
                    vals.iter()
                        .map(|v| v.as_f64())
                        .fold(f64::NEG_INFINITY, f64::max),
                )
            }
        }
        Intrinsic::Mod => {
            let a = vals.first().copied().unwrap_or(Value::Int(0));
            let b = vals.get(1).copied().unwrap_or(Value::Int(1));
            match (a, b) {
                (Value::Int(x), Value::Int(y)) if y != 0 => Value::Int(x.wrapping_rem(y)),
                (Value::Int(_), Value::Int(_)) => Value::Int(0),
                _ => Value::Real(a.as_f64() % b.as_f64()),
            }
        }
        Intrinsic::Abs => match vals.first() {
            Some(Value::Int(x)) => Value::Int(x.checked_abs().ok_or(RunError::IntOverflow)?),
            Some(Value::Real(x)) => Value::Real(x.abs()),
            None => Value::Int(0),
        },
        Intrinsic::Sqrt => Value::Real(vals.first().map(|v| v.as_f64().sqrt()).unwrap_or(0.0)),
        Intrinsic::Exp => Value::Real(vals.first().map(|v| v.as_f64().exp()).unwrap_or(1.0)),
        Intrinsic::Sin => Value::Real(vals.first().map(|v| v.as_f64().sin()).unwrap_or(0.0)),
        Intrinsic::Cos => Value::Real(vals.first().map(|v| v.as_f64().cos()).unwrap_or(1.0)),
        Intrinsic::Int => Value::Int(vals.first().map(|v| v.as_i64()).unwrap_or(0)),
        Intrinsic::Dble => Value::Real(vals.first().map(|v| v.as_f64()).unwrap_or(0.0)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use lip_symbolic::sym;

    fn run_src(src: &str) -> (Store, u64) {
        let prog = parse_program(src).expect("parses");
        let machine = Machine::new(prog);
        let mut store = Store::new();
        let cost = machine.run(&mut store).expect("runs");
        (store, cost)
    }

    #[test]
    fn arithmetic_and_loops() {
        let (store, cost) = run_src(
            "
SUBROUTINE main()
  INTEGER i, N, s
  N = 10
  s = 0
  DO i = 1, N
    s = s + i
  ENDDO
END
",
        );
        assert_eq!(store.scalar(sym("s")), Some(Value::Int(55)));
        assert!(cost > 10, "cost {cost}");
    }

    #[test]
    fn arrays_column_major_and_reshape() {
        // Caller views A as (4, 3); callee views the section A(1,2) as a
        // flat vector and writes 5 elements: they land in columns 2..3.
        let (store, _) = run_src(
            "
SUBROUTINE main()
  DIMENSION A(4, 3)
  INTEGER i, j
  DO j = 1, 3
    DO i = 1, 4
      A(i, j) = 0.0
    ENDDO
  ENDDO
  CALL fill(A(1, 2), 5)
END

SUBROUTINE fill(V, n)
  DIMENSION V(*)
  INTEGER k, n
  DO k = 1, n
    V(k) = k
  ENDDO
END
",
        );
        let a = store.array(sym("A")).expect("A");
        // Elements 4..8 (0-based) are the section written.
        assert_eq!(a.get_f64(4), 1.0);
        assert_eq!(a.get_f64(8), 5.0);
        assert_eq!(a.get_f64(3), 0.0);
        assert_eq!(a.get_f64(9), 0.0);
    }

    #[test]
    fn scalar_copy_out() {
        let (store, _) = run_src(
            "
SUBROUTINE main()
  INTEGER n
  n = 1
  CALL bump(n)
END

SUBROUTINE bump(k)
  INTEGER k
  k = k + 41
END
",
        );
        assert_eq!(store.scalar(sym("n")), Some(Value::Int(42)));
    }

    #[test]
    fn read_inputs() {
        let prog = parse_program(
            "
SUBROUTINE main()
  INTEGER n
  READ(*,*) n
  m = n * 2
END
",
        )
        .expect("parses");
        let mut machine = Machine::new(prog);
        machine.set_input(sym("n"), Value::Int(21));
        let mut store = Store::new();
        machine.run(&mut store).expect("runs");
        assert_eq!(store.scalar(sym("m")).map(Value::as_i64), Some(42));
    }

    #[test]
    fn while_loop_with_civ() {
        let (store, _) = run_src(
            "
SUBROUTINE main()
  INTEGER civ, i
  DIMENSION X(64)
  civ = 0
  DO i = 1, 10
    IF (MOD(i, 2) .EQ. 0) THEN
      civ = civ + 1
      X(civ) = i
    ENDIF
  ENDDO
END
",
        );
        assert_eq!(store.scalar(sym("civ")), Some(Value::Int(5)));
        let x = store.array(sym("X")).expect("X");
        assert_eq!(x.get_f64(0), 2.0);
        assert_eq!(x.get_f64(4), 10.0);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let prog = parse_program(
            "
SUBROUTINE main()
  DIMENSION A(4)
  A(5) = 1.0
END
",
        )
        .expect("parses");
        let machine = Machine::new(prog);
        let mut store = Store::new();
        assert_eq!(machine.run(&mut store), Err(RunError::BadIndex(sym("A"))));
    }

    #[test]
    fn step_budget_stops_runaway() {
        let prog = parse_program(
            "
SUBROUTINE main()
  INTEGER i
  i = 0
  DO WHILE (i .LT. 1000000000)
    i = i + 1
  ENDDO
END
",
        )
        .expect("parses");
        let machine = Machine::new(prog);
        let mut store = Store::new();
        let mut state = ExecState::with_budget(10_000);
        assert_eq!(
            machine.run_with_state(&mut store, &mut state),
            Err(RunError::StepLimit)
        );
    }

    #[test]
    fn figure1_end_to_end() {
        // The paper's Figure 1 kernel, with SYM != 1 so XE is written
        // before being read: the program must complete and fill HE.
        let src = "
SUBROUTINE main()
  INTEGER IA(8), IB(8)
  DIMENSION HE(25600), XE(64)
  INTEGER i, N, NS, NP, SYM
  N = 8
  NS = 16
  NP = 2
  SYM = 0
  DO i = 1, N
    IA(i) = 2
    IB(i) = 2 * i - 1
  ENDDO
  CALL solvh(HE, XE, IA, IB, N, NS, NP, SYM)
END

SUBROUTINE solvh(HE, XE, IA, IB, N, NS, NP, SYM)
  DIMENSION HE(32, *), XE(*)
  INTEGER IA(*), IB(*)
  INTEGER i, k, id, N, NS, NP, SYM
  DO do20 i = 1, N
    DO k = 1, IA(i)
      id = IB(i) + k - 1
      CALL geteu(XE, SYM, NP)
      CALL matmult(HE(1, id), XE, NS)
      CALL solvhe(HE(1, id), NP)
    ENDDO
  ENDDO
END

SUBROUTINE geteu(XE, SYM, NP)
  DIMENSION XE(16, *)
  INTEGER i, j, SYM, NP
  IF (SYM .NE. 1) THEN
    DO i = 1, NP
      DO j = 1, 16
        XE(j, i) = 1.5
      ENDDO
    ENDDO
  ENDIF
END

SUBROUTINE matmult(HE, XE, NS)
  DIMENSION HE(*), XE(*)
  INTEGER j, NS
  DO j = 1, NS
    HE(j) = XE(j)
    XE(j) = 2.0
  ENDDO
END

SUBROUTINE solvhe(HE, NP)
  DIMENSION HE(8, *)
  INTEGER i, j, NP
  DO j = 1, 3
    DO i = 1, NP
      HE(j, i) = HE(j, i) + 1.0
    ENDDO
  ENDDO
END
";
        let (store, cost) = run_src(src);
        let he = store.array(sym("HE")).expect("HE");
        // id runs over 1..=16; each HE(1, id) section got XE values then
        // solvhe increments. HE(1,1) (flat 0) = 1.5 + 1 = 2.5.
        assert_eq!(he.get_f64(0), 2.5);
        assert!(cost > 100);
    }
}
