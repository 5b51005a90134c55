//! AST → register bytecode compilation.
//!
//! The compiler's one non-obvious obligation is *cost parity*: the
//! tree-walk interpreter charges one work unit per expression node (two
//! per array reference) as it walks, and those figures are the timing
//! substrate for every reproduced table. Expression evaluation has no
//! side exits (no short-circuiting, no calls inside expressions), so
//! each expression's total charge is a static constant — the compiler
//! folds it into a single [`Op::Charge`] per statement (per iteration
//! for `DO WHILE` conditions) and the dispatch loop stays free of
//! per-node accounting.
//!
//! Register allocation is stack-disciplined: compiling an expression
//! nets exactly one live register at the current stack top, so
//! multi-value operands (subscripts, intrinsic arguments) land in
//! consecutive registers by construction.

use lip_ir::{
    apply_bin, apply_intrinsic, apply_un, DimDecl, Expr, LValue, Program, RunError, Stmt,
    Subroutine, Value,
};
use lip_symbolic::Sym;

use crate::chunk::{
    ArgSpec, BlockId, CallSite, Chunk, CompileError, CompiledBlock, CompiledProgram, CompiledSub,
    DimCode, ExprCode, LocalAlloc, Op, ParamMeta, Reg,
};

/// Static work units the interpreter charges to evaluate `e`
/// (one per node, plus one extra per array reference).
pub fn expr_cost(e: &Expr) -> u64 {
    1 + match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Var(_) => 0,
        Expr::Elem(_, idx) => 1 + index_cost(idx),
        Expr::Un(_, a) => expr_cost(a),
        Expr::Bin(_, a, b) => expr_cost(a) + expr_cost(b),
        Expr::Intrin(_, args) => args.iter().map(expr_cost).sum(),
    }
}

/// Static work units of evaluating a subscript list (no entry charge:
/// `index_of` evaluates each subscript expression but adds nothing of
/// its own).
fn index_cost(idx: &[Expr]) -> u64 {
    idx.iter().map(expr_cost).sum()
}

fn charge_amount(units: u64) -> u32 {
    u32::try_from(units).unwrap_or(u32::MAX)
}

/// Evaluates a variable-free expression at compile time with the
/// interpreter's exact value semantics (`apply_bin` et al., so integer
/// wrapping, division-by-zero-is-zero and `Pow` clamping are bit-for-
/// bit). Returns `None` as soon as a variable or array element is
/// involved, and for an integer overflow, which stays a run-time
/// [`RunError::IntOverflow`] at the statement that evaluates it. This
/// is the constant-folding slice of the peephole pass: subscript
/// arithmetic like `A(2*k+1)` with literal `k` collapses to a single
/// `Const`, shrinking the dispatch stream without touching the
/// statically-charged work units (costs are computed from the
/// unfolded AST).
fn try_const(e: &Expr) -> Option<Value> {
    match e {
        Expr::Int(v) => Some(Value::Int(*v)),
        Expr::Real(v) => Some(Value::Real(*v)),
        Expr::Var(_) | Expr::Elem(_, _) => None,
        Expr::Un(op, a) => apply_un(*op, try_const(a)?).ok(),
        Expr::Bin(op, a, b) => apply_bin(*op, try_const(a)?, try_const(b)?).ok(),
        Expr::Intrin(intr, args) => {
            let vals = args.iter().map(try_const).collect::<Option<Vec<Value>>>()?;
            apply_intrinsic(*intr, &vals).ok()
        }
    }
}

/// Compiles every subroutine of `prog`.
///
/// # Errors
///
/// [`CompileError`] when the program exceeds the bytecode's static
/// limits (callers fall back to tree-walk interpretation).
pub fn compile_program(prog: &Program) -> Result<CompiledProgram, CompileError> {
    let index: Vec<(Sym, usize)> = prog
        .units
        .iter()
        .map(|u| (u.name, u.params.len()))
        .collect();
    let mut subs = Vec::with_capacity(prog.units.len());
    for unit in &prog.units {
        subs.push(compile_sub(&index, unit)?);
    }
    let entry = prog
        .units
        .iter()
        .position(|u| u.name.name().eq_ignore_ascii_case("main"))
        .or(if prog.units.is_empty() { None } else { Some(0) });
    Ok(CompiledProgram {
        subs,
        blocks: Vec::new(),
        entry,
    })
}

/// Compiles a statement block in the context of `sub` as a standalone
/// block (loop bodies for the parallel executor, CIV slices, single
/// statements). `extra` symbols get scalar slots even when the block
/// never mentions them (loop variables, CIVs, reduction scalars).
///
/// # Errors
///
/// [`CompileError`] on static-limit overflow.
pub fn add_block(
    cp: &mut CompiledProgram,
    sub: &Subroutine,
    stmts: &[Stmt],
    extra: &[Sym],
) -> Result<BlockId, CompileError> {
    add_block_with_exprs(cp, sub, stmts, &[], extra)
}

/// Like [`add_block`], additionally compiling `exprs` as attached
/// expression fragments (evaluated on demand between block runs: WHILE
/// conditions, loop bounds). Fragments charge their own evaluation
/// cost.
///
/// # Errors
///
/// [`CompileError`] on static-limit overflow.
pub fn add_block_with_exprs(
    cp: &mut CompiledProgram,
    sub: &Subroutine,
    stmts: &[Stmt],
    exprs: &[&Expr],
    extra: &[Sym],
) -> Result<BlockId, CompileError> {
    let index: Vec<(Sym, usize)> = cp.subs.iter().map(|c| (c.name, c.params.len())).collect();
    let mut b = ChunkBuilder::new(sub, &index);
    for s in extra {
        b.scalar_slot(*s)?;
    }
    b.compile_stmts(stmts)?;
    let mut codes = Vec::with_capacity(exprs.len());
    for e in exprs {
        codes.push(b.expr_code(e)?);
    }
    cp.blocks.push(CompiledBlock {
        chunk: b.finish(),
        exprs: codes,
    });
    Ok(BlockId(cp.blocks.len() - 1))
}

fn compile_sub(index: &[(Sym, usize)], sub: &Subroutine) -> Result<CompiledSub, CompileError> {
    let mut b = ChunkBuilder::new(sub, index);
    // Params get slots up front so call binding never misses.
    let mut params = Vec::with_capacity(sub.params.len());
    for &p in &sub.params {
        let scalar = b.scalar_slot(p)?;
        let arr = b.array_slot(p)?;
        params.push((p, scalar, arr));
    }
    b.compile_stmts(&sub.body)?;
    // Reshape dims and local allocations compile after the body so the
    // slot tables are complete; their fragments reuse registers from 0
    // (they only ever run while no body ops are in flight).
    let params = params
        .into_iter()
        .map(|(p, scalar, arr)| {
            let reshape = match sub.decl(p) {
                None => None,
                Some(d) => Some(
                    d.dims
                        .iter()
                        .map(|dim| b.dim_code(dim))
                        .collect::<Result<Vec<_>, _>>()?,
                ),
            };
            Ok(ParamMeta {
                name: p,
                scalar,
                arr,
                reshape,
                writes: crate::typed::ANY,
            })
        })
        .collect::<Result<Vec<_>, CompileError>>()?;
    let mut locals = Vec::new();
    for d in &sub.decls {
        if d.dims.is_empty() || sub.params.contains(&d.name) {
            continue;
        }
        let arr = b.array_slot(d.name)?;
        let dims = d
            .dims
            .iter()
            .map(|dim| b.dim_code(dim))
            .collect::<Result<Vec<_>, _>>()?;
        locals.push(LocalAlloc {
            arr,
            name: d.name,
            ty: d.ty,
            dims,
        });
    }
    Ok(CompiledSub {
        name: sub.name,
        chunk: b.finish(),
        params,
        locals,
    })
}

struct ChunkBuilder<'p> {
    sub: &'p Subroutine,
    index: &'p [(Sym, usize)],
    chunk: Chunk,
    next_reg: u16,
}

impl<'p> ChunkBuilder<'p> {
    fn new(sub: &'p Subroutine, index: &'p [(Sym, usize)]) -> ChunkBuilder<'p> {
        ChunkBuilder {
            sub,
            index,
            chunk: Chunk::default(),
            next_reg: 0,
        }
    }

    fn finish(self) -> Chunk {
        self.chunk
    }

    fn emit(&mut self, op: Op) -> usize {
        self.chunk.ops.push(op);
        self.chunk.ops.len() - 1
    }

    fn charge(&mut self, units: u64) {
        if units > 0 {
            self.emit(Op::Charge(charge_amount(units)));
        }
    }

    fn push_reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.chunk.nregs = self.chunk.nregs.max(self.next_reg as usize);
        r
    }

    fn pop_to(&mut self, mark: u16) {
        self.next_reg = mark;
    }

    fn scalar_slot(&mut self, s: Sym) -> Result<u16, CompileError> {
        if let Some(slot) = self.chunk.scalar_slot(s) {
            return Ok(slot);
        }
        if self.chunk.scalars.len() > u16::MAX as usize {
            return Err(CompileError::TooLarge("scalar slot"));
        }
        self.chunk.scalars.push((s, self.sub.ty_of(s)));
        Ok((self.chunk.scalars.len() - 1) as u16)
    }

    fn array_slot(&mut self, s: Sym) -> Result<u16, CompileError> {
        if let Some(slot) = self.chunk.array_slot(s) {
            return Ok(slot);
        }
        if self.chunk.arrays.len() > u16::MAX as usize {
            return Err(CompileError::TooLarge("array slot"));
        }
        self.chunk.arrays.push((s, self.sub.ty_of(s)));
        Ok((self.chunk.arrays.len() - 1) as u16)
    }

    fn const_slot(&mut self, v: lip_ir::Value) -> Result<u16, CompileError> {
        // Bit-exact dedup: f64's `==` would alias -0.0 with +0.0 and
        // hand a folded `-(0.0)` the wrong sign bit.
        let same = |a: &Value, b: &Value| match (a, b) {
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        };
        if let Some(k) = self.chunk.consts.iter().position(|c| same(c, &v)) {
            return Ok(k as u16);
        }
        if self.chunk.consts.len() > u16::MAX as usize {
            return Err(CompileError::TooLarge("constant pool"));
        }
        self.chunk.consts.push(v);
        Ok((self.chunk.consts.len() - 1) as u16)
    }

    /// Compiles `e`; the result lands in exactly one new register at
    /// the stack top. Emits no `Charge` — statement compilation
    /// accounts the cost up front.
    fn compile_expr(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        // Peephole: any variable-free subtree (typically subscript
        // arithmetic) folds to one `Const` at compile time.
        if let Some(v) = try_const(e) {
            let k = self.const_slot(v)?;
            let dst = self.push_reg();
            self.emit(Op::Const { dst, k });
            return Ok(dst);
        }
        match e {
            Expr::Int(_) | Expr::Real(_) => unreachable!("literals fold above"),
            Expr::Var(s) => {
                let slot = self.scalar_slot(*s)?;
                let dst = self.push_reg();
                self.emit(Op::LoadScalar { dst, slot });
                Ok(dst)
            }
            Expr::Elem(a, idx) => {
                let arr = self.array_slot(*a)?;
                let n = self.compile_index(*a, idx)?;
                let base = if n == 0 {
                    self.push_reg()
                } else {
                    self.next_reg - n as u16
                };
                self.emit(Op::LoadElem {
                    dst: base,
                    arr,
                    base,
                    n,
                });
                self.pop_to(base + 1);
                Ok(base)
            }
            Expr::Un(op, a) => {
                let src = self.compile_expr(a)?;
                self.emit(Op::Un {
                    op: *op,
                    dst: src,
                    src,
                });
                Ok(src)
            }
            Expr::Bin(op, a, b) => {
                let ra = self.compile_expr(a)?;
                let rb = self.compile_expr(b)?;
                self.emit(Op::Bin {
                    op: *op,
                    dst: ra,
                    a: ra,
                    b: rb,
                });
                self.pop_to(ra + 1);
                Ok(ra)
            }
            Expr::Intrin(intr, args) => {
                let base = self.next_reg;
                for a in args {
                    self.compile_expr(a)?;
                }
                let dst = if args.is_empty() {
                    self.push_reg()
                } else {
                    base
                };
                let n = u8::try_from(args.len())
                    .map_err(|_| CompileError::TooManyDims(lip_symbolic::sym("intrinsic")))?;
                self.emit(Op::Intrin {
                    intr: *intr,
                    dst,
                    base,
                    n,
                });
                self.pop_to(dst + 1);
                Ok(dst)
            }
        }
    }

    /// Compiles a subscript list into consecutive registers; returns
    /// the subscript count.
    fn compile_index(&mut self, arr: Sym, idx: &[Expr]) -> Result<u8, CompileError> {
        let n = u8::try_from(idx.len()).map_err(|_| CompileError::TooManyDims(arr))?;
        if n > 7 {
            return Err(CompileError::TooManyDims(arr));
        }
        for e in idx {
            self.compile_expr(e)?;
        }
        Ok(n)
    }

    fn compile_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            let mark = self.next_reg;
            self.compile_stmt(s)?;
            self.pop_to(mark);
        }
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Assign { lhs, rhs } => match lhs {
                LValue::Scalar(s) => {
                    self.charge(1 + expr_cost(rhs));
                    let src = self.compile_expr(rhs)?;
                    let slot = self.scalar_slot(*s)?;
                    self.emit(Op::StoreScalar { slot, src });
                    Ok(())
                }
                LValue::Element(a, idx) => {
                    self.charge(1 + expr_cost(rhs) + 2 + index_cost(idx));
                    let src = self.compile_expr(rhs)?;
                    let arr = self.array_slot(*a)?;
                    let n = self.compile_index(*a, idx)?;
                    let base = self.next_reg - n as u16;
                    self.emit(Op::StoreElem { arr, base, n, src });
                    Ok(())
                }
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.charge(1 + expr_cost(cond));
                let rc = self.compile_expr(cond)?;
                let jif = self.emit(Op::JumpIfFalse {
                    cond: rc,
                    target: 0,
                });
                self.pop_to(rc);
                self.compile_stmts(then_body)?;
                let jend = self.emit(Op::Jump { target: 0 });
                self.patch_target(jif, self.chunk.ops.len());
                self.compile_stmts(else_body)?;
                let end = self.chunk.ops.len();
                self.patch_target(jend, end);
                Ok(())
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let step_cost = step.as_ref().map(expr_cost).unwrap_or(0);
                self.charge(1 + expr_cost(lo) + expr_cost(hi) + step_cost);
                let ri = self.compile_expr(lo)?;
                let rh = self.compile_expr(hi)?;
                let rs = match step {
                    Some(e) => self.compile_expr(e)?,
                    None => {
                        let k = self.const_slot(lip_ir::Value::Int(1))?;
                        let dst = self.push_reg();
                        self.emit(Op::Const { dst, k });
                        dst
                    }
                };
                let var_slot = self.scalar_slot(*var)?;
                self.emit(Op::LoopInit {
                    i: ri,
                    hi: rh,
                    step: rs,
                    var_slot,
                });
                let head = self.chunk.ops.len();
                let jtest = self.emit(Op::LoopTest {
                    i: ri,
                    hi: rh,
                    step: rs,
                    exit: 0,
                });
                self.emit(Op::SetVarRaw {
                    slot: var_slot,
                    src: ri,
                });
                self.compile_stmts(body)?;
                self.emit(Op::LoopIncr { i: ri, step: rs });
                self.emit(Op::Jump {
                    target: head as u32,
                });
                let exit = self.chunk.ops.len();
                self.patch_target(jtest, exit);
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                self.charge(1);
                let head = self.chunk.ops.len();
                self.charge(expr_cost(cond));
                let rc = self.compile_expr(cond)?;
                let jexit = self.emit(Op::JumpIfFalse {
                    cond: rc,
                    target: 0,
                });
                self.pop_to(rc);
                self.compile_stmts(body)?;
                self.charge(1);
                self.emit(Op::Jump {
                    target: head as u32,
                });
                let exit = self.chunk.ops.len();
                self.patch_target(jexit, exit);
                Ok(())
            }
            Stmt::Call { callee, args } => self.compile_call(*callee, args),
            Stmt::Read { targets } => {
                self.charge(1);
                let mut slots = Vec::with_capacity(targets.len());
                for t in targets {
                    slots.push(self.scalar_slot(*t)?);
                }
                if self.chunk.reads.len() > u16::MAX as usize {
                    return Err(CompileError::TooLarge("read site"));
                }
                self.chunk.reads.push(slots);
                let site = (self.chunk.reads.len() - 1) as u16;
                self.emit(Op::Read { site });
                Ok(())
            }
        }
    }

    fn compile_call(&mut self, callee: Sym, args: &[Expr]) -> Result<(), CompileError> {
        // The interpreter charges one unit for the statement plus the
        // call overhead before resolving the callee, so "unknown
        // subroutine" and "wrong arity" still cost `1 + 4 + nargs` —
        // mirrored here as Charge-then-Fail.
        let overhead = 1 + 4 + args.len() as u64;
        let Some(target) = self.index.iter().position(|(n, _)| *n == callee) else {
            self.charge(overhead);
            return self.emit_fail(RunError::NoSuchSubroutine(callee));
        };
        if self.index[target].1 != args.len() {
            self.charge(overhead);
            return self.emit_fail(RunError::BadArity(callee));
        }
        // Static caller-side evaluation cost: subscripts of section
        // arguments and full expressions for by-value arguments; bare
        // variables cost nothing whether they bind as arrays or
        // scalars — so the charge is backend-independent.
        let mut cost = overhead;
        for a in args {
            cost += match a {
                Expr::Var(_) => 0,
                Expr::Elem(_, idx) => index_cost(idx),
                e => expr_cost(e),
            };
        }
        self.charge(cost);
        let mut specs = Vec::with_capacity(args.len());
        for a in args {
            let spec = match a {
                Expr::Var(s) => ArgSpec::Var {
                    arr: self.array_slot(*s)?,
                    scalar: self.scalar_slot(*s)?,
                },
                Expr::Elem(s, idx) => {
                    let arr = self.array_slot(*s)?;
                    let n = self.compile_index(*s, idx)?;
                    let base = self.next_reg - n as u16;
                    ArgSpec::Section { arr, base, n }
                }
                e => {
                    let reg = self.compile_expr(e)?;
                    ArgSpec::Value { reg }
                }
            };
            specs.push(spec);
        }
        if self.chunk.calls.len() > u16::MAX as usize {
            return Err(CompileError::TooLarge("call site"));
        }
        self.chunk.calls.push(CallSite {
            callee: target,
            args: specs,
        });
        let site = (self.chunk.calls.len() - 1) as u16;
        self.emit(Op::Call { site });
        Ok(())
    }

    fn emit_fail(&mut self, err: RunError) -> Result<(), CompileError> {
        if self.chunk.fails.len() > u16::MAX as usize {
            return Err(CompileError::TooLarge("fail site"));
        }
        self.chunk.fails.push(err);
        let site = (self.chunk.fails.len() - 1) as u16;
        self.emit(Op::Fail { site });
        Ok(())
    }

    fn patch_target(&mut self, at: usize, to: usize) {
        match &mut self.chunk.ops[at] {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::LoopTest { exit: target, .. } => {
                *target = to as u32;
            }
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Compiles `e` as a standalone fragment (registers from 0,
    /// self-charging) against this chunk's tables.
    fn expr_code(&mut self, e: &Expr) -> Result<ExprCode, CompileError> {
        let saved_ops = std::mem::take(&mut self.chunk.ops);
        let saved_next = self.next_reg;
        self.next_reg = 0;
        self.charge(expr_cost(e));
        let compiled = self.compile_expr(e);
        let ops = std::mem::replace(&mut self.chunk.ops, saved_ops);
        self.next_reg = saved_next;
        Ok(ExprCode {
            ops,
            result: compiled?,
        })
    }

    /// Compiles one declared dimension (reshape / local allocation); a
    /// constant extent folds to its value and its charge.
    fn dim_code(&mut self, dim: &DimDecl) -> Result<DimCode, CompileError> {
        Ok(match dim {
            DimDecl::Assumed => DimCode::Assumed,
            DimDecl::Fixed(e) => match try_const(e) {
                Some(v) => DimCode::Const {
                    charge: charge_amount(expr_cost(e)),
                    extent: v.as_i64(),
                },
                None => DimCode::Fixed(self.expr_code(e)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Op;
    use lip_ir::{parse_program, Machine, Store};
    use lip_symbolic::sym;

    /// Constant subscript arithmetic folds to `Const` loads: the chunk
    /// shrinks (no arithmetic ops remain for the folded subtrees) and
    /// outputs/costs stay identical to the tree-walk interpreter.
    #[test]
    fn constant_folding_shrinks_and_stays_differential_clean() {
        let src = "
SUBROUTINE main()
  DIMENSION A(16)
  A(2 * 3 + 1) = 1.5 * 4.0
  A(MIN(9, 12)) = ABS(0.0 - 2.0)
END
";
        let prog = parse_program(src).expect("parses");
        let compiled = compile_program(&prog).expect("compiles");
        let chunk = &compiled.subs[0].chunk;
        let arith = chunk
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Bin { .. } | Op::Un { .. } | Op::Intrin { .. }))
            .count();
        assert_eq!(arith, 0, "constant arithmetic must fold: {:?}", chunk.ops);
        // 2 statements × (one folded subscript + one folded rhs).
        let consts = chunk
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Const { .. }))
            .count();
        assert_eq!(consts, 4, "one Const per folded subtree: {:?}", chunk.ops);

        // Differential: same outputs, same work units as the interpreter.
        let machine = Machine::new(prog);
        let mut is = Store::new();
        let interp_cost = machine.run(&mut is).expect("interp");
        let mut vs = Store::new();
        let vm_cost = crate::vm::Vm::new(&compiled).run(&mut vs).expect("vm");
        assert_eq!(interp_cost, vm_cost, "folding must not change charges");
        let (ia, va) = (
            is.array(sym("A")).expect("A"),
            vs.array(sym("A")).expect("A"),
        );
        for i in 0..16 {
            assert_eq!(ia.get_f64(i), va.get_f64(i), "element {i}");
        }
        assert_eq!(va.get_f64(6), 6.0);
        assert_eq!(va.get_f64(8), 2.0);
    }

    /// Folding respects the interpreter's exact semantics on the
    /// divide-by-zero and `Pow` edge cases.
    #[test]
    fn constant_folding_keeps_interpreter_edge_semantics() {
        let src = "
SUBROUTINE main()
  INTEGER d, p
  d = 7 / 0
  p = 2 ** 70
END
";
        let prog = parse_program(src).expect("parses");
        let compiled = compile_program(&prog).expect("compiles");
        let machine = Machine::new(prog);
        let mut is = Store::new();
        machine.run(&mut is).expect("interp");
        let mut vs = Store::new();
        crate::vm::Vm::new(&compiled).run(&mut vs).expect("vm");
        assert_eq!(is.scalar(sym("d")), vs.scalar(sym("d")));
        assert_eq!(is.scalar(sym("p")), vs.scalar(sym("p")));
    }
}
