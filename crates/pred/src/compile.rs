//! `Pdag` → predicate bytecode compilation.
//!
//! The compiler is *total* over the predicate language modulo table
//! limits: every `Pdag` — boolean leaves over canonical polynomials
//! (including array-element and `min`/`max` atoms), n-ary ∧/∨,
//! quantified `ForAll` conjunctions and `AtCall` barriers — lowers to
//! [`PredProgram`] bytecode whose verdicts match `Pdag::eval` exactly,
//! including the tri-state `Option<bool>` semantics, `i64` overflow
//! behavior and the global iteration budget.
//!
//! Register allocation is stack-disciplined (compiling any node nets
//! exactly one live register). Arithmetic that can fail (unbound
//! symbols, out-of-range elements, overflow) branches to a per-leaf
//! unknown-exit block, so the dispatch loop carries no `Option`s.
//!
//! Two structural facts keep the lowering faithful *and* fast:
//!
//! * `BoolExpr` leaves are side-effect- and budget-free, so their ∧/∨
//!   combinations compile to straight-line fused [`POp::And2`] /
//!   [`POp::Or2`] folds (the interval-disjointness and sorted-interval
//!   membership shapes) — same verdict as the tree-walk's
//!   short-circuit, no jump chain.
//! * `Pdag`-level ∧/∨ children can contain quantifiers, whose
//!   evaluation consumes budget; there the compiler emits genuine
//!   short-circuit jumps so the budget trace matches the tree-walk
//!   decrement for decrement.

use lip_core::{Pdag, PdagNode};
use lip_symbolic::{Atom, BoolExpr, Monomial, Sym, SymExpr};

use crate::prog::{
    BodyProg, POp, PReg, PredOverflow, PredProgram, TRI_FALSE, TRI_TRUE, TRI_UNKNOWN,
};

/// Compiles `p`; `Err` only on table overflow (the engine falls back to
/// tree-walk evaluation).
///
/// # Errors
///
/// [`PredOverflow`] when a register or slot table exceeds its 16-bit
/// index space.
pub fn compile_pred(p: &Pdag) -> Result<PredProgram, PredOverflow> {
    let mut cc = Compiler::default();
    let mut b = BodyBuilder::default();
    let result = cc.node(&mut b, p)?;
    Ok(PredProgram {
        scalars: cc.scalars,
        arrays: cc.arrays,
        bodies: cc.bodies,
        main: b.finish(result),
    })
}

/// Shared compilation state: slot tables, body programs, quantifier
/// bindings.
#[derive(Default)]
struct Compiler {
    scalars: Vec<Sym>,
    arrays: Vec<Sym>,
    bodies: Vec<BodyProg>,
    /// Enclosing `ForAll` variables, outermost first.
    bound: Vec<Sym>,
}

/// Per-body instruction builder with a stack-disciplined register file
/// and a pending list of fail targets for the current unknown-exit
/// scope.
#[derive(Default)]
struct BodyBuilder {
    ops: Vec<POp>,
    next: u16,
    nregs: usize,
    pending_fails: Vec<usize>,
}

impl BodyBuilder {
    fn finish(self, result: PReg) -> BodyProg {
        debug_assert!(self.pending_fails.is_empty(), "unresolved fail targets");
        BodyProg {
            ops: self.ops,
            nregs: self.nregs,
            result,
        }
    }

    fn emit(&mut self, op: POp) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Emits an op whose `fail` field joins the current unknown scope.
    fn emit_failable(&mut self, op: POp) -> usize {
        let at = self.emit(op);
        self.pending_fails.push(at);
        at
    }

    fn push_reg(&mut self) -> Result<PReg, PredOverflow> {
        let r = self.next;
        self.next = self.next.checked_add(1).ok_or(PredOverflow)?;
        self.nregs = self.nregs.max(self.next as usize);
        Ok(r)
    }

    fn pop_to(&mut self, mark: u16) {
        self.next = mark;
    }

    fn patch_jump(&mut self, at: usize, to: usize) {
        match &mut self.ops[at] {
            POp::Jump { target }
            | POp::JumpIfFalse { target, .. }
            | POp::JumpIfTrue { target, .. } => *target = to as u32,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn patch_fail(&mut self, at: usize, to: usize) {
        match &mut self.ops[at] {
            POp::LoadScalar { fail, .. }
            | POp::LoadElem { fail, .. }
            | POp::Add { fail, .. }
            | POp::AddK { fail, .. }
            | POp::Mul { fail, .. }
            | POp::MulK { fail, .. } => *fail = to as u32,
            other => unreachable!("patching non-failable {other:?}"),
        }
    }

    /// Closes the current unknown scope: on any pending failure, set
    /// `dst = UNKNOWN` and fall through. Call immediately after the
    /// scope's success path has written `dst` (a trailing `Jump` hops
    /// the unknown block).
    fn close_unknown_scope(&mut self, dst: PReg, saved: Vec<usize>) {
        let fails = std::mem::replace(&mut self.pending_fails, saved);
        if fails.is_empty() {
            return;
        }
        let jend = self.emit(POp::Jump { target: 0 });
        let lfail = self.ops.len();
        for at in fails {
            self.patch_fail(at, lfail);
        }
        self.emit(POp::SetTri {
            dst,
            v: TRI_UNKNOWN,
        });
        let end = self.ops.len();
        self.patch_jump(jend, end);
    }
}

impl Compiler {
    fn scalar_slot(&mut self, s: Sym) -> Result<u16, PredOverflow> {
        slot(&mut self.scalars, s)
    }

    fn array_slot(&mut self, s: Sym) -> Result<u16, PredOverflow> {
        slot(&mut self.arrays, s)
    }

    /// Compiles a `Pdag` node; the tri-state result lands in exactly
    /// one new register.
    fn node(&mut self, b: &mut BodyBuilder, p: &Pdag) -> Result<PReg, PredOverflow> {
        match p.node() {
            PdagNode::Bool(v) => {
                let dst = b.push_reg()?;
                b.emit(POp::SetTri {
                    dst,
                    v: if *v { TRI_TRUE } else { TRI_FALSE },
                });
                Ok(dst)
            }
            PdagNode::Leaf(be) => self.bool_expr(b, be),
            PdagNode::And(ps) => self.connective(b, ps, false),
            PdagNode::Or(ps) => self.connective(b, ps, true),
            PdagNode::AtCall(_, body) => self.node(b, body),
            PdagNode::ForAll { var, lo, hi, body } => {
                let dst = b.push_reg()?;
                let mark = b.next;
                let saved = std::mem::take(&mut b.pending_fails);
                let rlo = self.sym_expr(b, lo)?;
                let rhi = self.sym_expr(b, hi)?;
                // Parallel chunking is only sound for the outermost
                // quantifier: nested ones live inside a body program
                // already being driven per-iteration.
                let par = self.bound.is_empty();
                self.bound.push(*var);
                let mut bb = BodyBuilder::default();
                let br = self.node(&mut bb, body)?;
                self.bound.pop();
                if self.bodies.len() > u16::MAX as usize {
                    return Err(PredOverflow);
                }
                self.bodies.push(bb.finish(br));
                let body_idx = (self.bodies.len() - 1) as u16;
                b.emit(POp::ForAll {
                    body: body_idx,
                    lo: rlo,
                    hi: rhi,
                    dst,
                    par,
                });
                b.close_unknown_scope(dst, saved);
                b.pop_to(mark);
                Ok(dst)
            }
        }
    }

    /// `Pdag`-level ∧ (`or = false`) / ∨ (`or = true`) with genuine
    /// short-circuit jumps: children may contain quantifiers, so the
    /// budget trace must match the tree-walk's early returns.
    fn connective(
        &mut self,
        b: &mut BodyBuilder,
        ps: &[Pdag],
        or: bool,
    ) -> Result<PReg, PredOverflow> {
        let dst = b.push_reg()?;
        b.emit(POp::SetTri {
            dst,
            v: if or { TRI_FALSE } else { TRI_TRUE },
        });
        let mut exits = Vec::with_capacity(ps.len());
        for p in ps {
            let mark = b.next;
            let r = self.node(b, p)?;
            exits.push(if or {
                b.emit(POp::JumpIfTrue { src: r, target: 0 })
            } else {
                b.emit(POp::JumpIfFalse { src: r, target: 0 })
            });
            b.emit(POp::MergeUnknown { acc: dst, src: r });
            b.pop_to(mark);
        }
        let jend = b.emit(POp::Jump { target: 0 });
        let lshort = b.ops.len();
        for at in exits {
            b.patch_jump(at, lshort);
        }
        b.emit(POp::SetTri {
            dst,
            v: if or { TRI_TRUE } else { TRI_FALSE },
        });
        let end = b.ops.len();
        b.patch_jump(jend, end);
        Ok(dst)
    }

    /// Compiles a boolean leaf. Leaves are budget-free, so ∧/∨ fold
    /// through the fused straight-line [`POp::And2`]/[`POp::Or2`] ops.
    fn bool_expr(&mut self, b: &mut BodyBuilder, be: &BoolExpr) -> Result<PReg, PredOverflow> {
        match be {
            BoolExpr::Const(v) => {
                let dst = b.push_reg()?;
                b.emit(POp::SetTri {
                    dst,
                    v: if *v { TRI_TRUE } else { TRI_FALSE },
                });
                Ok(dst)
            }
            BoolExpr::Ge0(e) => self.comparison(b, e, |dst, src| POp::TestGe0 { dst, src }),
            BoolExpr::Gt0(e) => self.comparison(b, e, |dst, src| POp::TestGt0 { dst, src }),
            BoolExpr::Eq0(e) => self.comparison(b, e, |dst, src| POp::TestEq0 { dst, src }),
            BoolExpr::Ne0(e) => self.comparison(b, e, |dst, src| POp::TestNe0 { dst, src }),
            BoolExpr::Divides(k, e) => {
                let k = *k;
                self.comparison(b, e, move |dst, src| POp::TestDiv {
                    dst,
                    src,
                    k,
                    neg: false,
                })
            }
            BoolExpr::NotDivides(k, e) => {
                let k = *k;
                self.comparison(b, e, move |dst, src| POp::TestDiv {
                    dst,
                    src,
                    k,
                    neg: true,
                })
            }
            BoolExpr::And(bs) => self.leaf_fold(b, bs, false),
            BoolExpr::Or(bs) => self.leaf_fold(b, bs, true),
        }
    }

    /// One comparison/divisibility atom: evaluate the polynomial, test,
    /// route failures to the leaf's unknown exit.
    fn comparison(
        &mut self,
        b: &mut BodyBuilder,
        e: &SymExpr,
        test: impl FnOnce(PReg, PReg) -> POp,
    ) -> Result<PReg, PredOverflow> {
        let dst = b.push_reg()?;
        let mark = b.next;
        let saved = std::mem::take(&mut b.pending_fails);
        let src = self.sym_expr(b, e)?;
        b.emit(test(dst, src));
        b.close_unknown_scope(dst, saved);
        b.pop_to(mark);
        Ok(dst)
    }

    /// Straight-line tri-state fold of boolean-leaf children with the
    /// fused binary ops (`or = true` for ∨).
    fn leaf_fold(
        &mut self,
        b: &mut BodyBuilder,
        bs: &[BoolExpr],
        or: bool,
    ) -> Result<PReg, PredOverflow> {
        let mut acc: Option<PReg> = None;
        for be in bs {
            let r = self.bool_expr(b, be)?;
            match acc {
                None => acc = Some(r),
                Some(a) => {
                    b.emit(if or {
                        POp::Or2 { dst: a, a, b: r }
                    } else {
                        POp::And2 { dst: a, a, b: r }
                    });
                    b.pop_to(a + 1);
                }
            }
        }
        match acc {
            Some(a) => Ok(a),
            // Constructors never emit empty connectives, but match the
            // identity elements for safety.
            None => {
                let dst = b.push_reg()?;
                b.emit(POp::SetTri {
                    dst,
                    v: if or { TRI_FALSE } else { TRI_TRUE },
                });
                Ok(dst)
            }
        }
    }

    /// Compiles a canonical polynomial; failure ops join the caller's
    /// open unknown scope. Term/monomial evaluation order mirrors
    /// `SymExpr::eval` exactly so overflow produces `UNKNOWN` in
    /// precisely the same cases.
    fn sym_expr(&mut self, b: &mut BodyBuilder, e: &SymExpr) -> Result<PReg, PredOverflow> {
        if let Some(c) = e.as_const() {
            let dst = b.push_reg()?;
            b.emit(POp::Const { dst, v: c });
            return Ok(dst);
        }
        // `c + term` (subscripts `1 + i`, bounds `-1 + N`): one checked
        // add either way, so folding the constant into an `AddK` is
        // overflow-for-overflow identical to `SymExpr::eval`'s
        // const-first order.
        let terms: Vec<_> = e.terms().collect();
        if let [(m0, c0), (m1, c1)] = terms.as_slice() {
            if m0.is_one() && *c0 != 0 {
                let t = self.term(b, m1, *c1)?;
                b.emit_failable(POp::AddK {
                    dst: t,
                    src: t,
                    k: *c0,
                    fail: 0,
                });
                return Ok(t);
            }
        }
        let mut acc: Option<PReg> = None;
        for (m, c) in e.terms() {
            let t = self.term(b, m, c)?;
            match acc {
                None => acc = Some(t),
                Some(a) => {
                    b.emit_failable(POp::Add {
                        dst: a,
                        a,
                        b: t,
                        fail: 0,
                    });
                    b.pop_to(a + 1);
                }
            }
        }
        Ok(acc.expect("non-constant expression has terms"))
    }

    /// One `c * monomial` term.
    fn term(&mut self, b: &mut BodyBuilder, m: &Monomial, c: i64) -> Result<PReg, PredOverflow> {
        if m.is_one() {
            let dst = b.push_reg()?;
            b.emit(POp::Const { dst, v: c });
            return Ok(dst);
        }
        let mv = self.monomial(b, m)?;
        if c != 1 {
            b.emit_failable(POp::MulK {
                dst: mv,
                src: mv,
                k: c,
                fail: 0,
            });
        }
        Ok(mv)
    }

    /// A product of atom powers — `Monomial::eval` computes
    /// `acc = 1; acc *= v` (p times) per atom, and since the leading
    /// `1 * v₁` can never overflow, the product sequence starting from
    /// `v₁` itself is overflow-for-overflow identical. The dominant
    /// single-atom power-1 monomial therefore compiles to just the
    /// atom load.
    fn monomial(&mut self, b: &mut BodyBuilder, m: &Monomial) -> Result<PReg, PredOverflow> {
        let ((first, first_pow), rest) =
            m.atoms().split_first().expect("not the constant monomial");
        let acc = self.atom(b, first)?;
        if rest.is_empty() && *first_pow == 1 {
            return Ok(acc);
        }
        // General form: re-stage the first atom's value so higher
        // powers can keep multiplying by it.
        let av0 = b.push_reg()?;
        b.emit(POp::Copy { dst: av0, src: acc });
        for _ in 1..*first_pow {
            b.emit_failable(POp::Mul {
                dst: acc,
                a: acc,
                b: av0,
                fail: 0,
            });
        }
        b.pop_to(av0);
        for (atom, p) in rest {
            let av = self.atom(b, atom)?;
            for _ in 0..*p {
                b.emit_failable(POp::Mul {
                    dst: acc,
                    a: acc,
                    b: av,
                    fail: 0,
                });
            }
            b.pop_to(av);
        }
        Ok(acc)
    }

    fn atom(&mut self, b: &mut BodyBuilder, a: &Atom) -> Result<PReg, PredOverflow> {
        match a {
            Atom::Var(s) => {
                // Innermost binding wins, like the tree-walk's
                // `ScopedCtx` chain (shadowed quantifier variables).
                if let Some(depth) = self.bound.iter().rposition(|v| v == s) {
                    let dst = b.push_reg()?;
                    b.emit(POp::LoadEnv {
                        dst,
                        depth: depth as u16,
                    });
                    Ok(dst)
                } else {
                    let slot = self.scalar_slot(*s)?;
                    let dst = b.push_reg()?;
                    b.emit_failable(POp::LoadScalar { dst, slot, fail: 0 });
                    Ok(dst)
                }
            }
            Atom::Elem(arr, idx) => {
                let slot = self.array_slot(*arr)?;
                let ri = self.sym_expr(b, idx)?;
                b.emit_failable(POp::LoadElem {
                    dst: ri,
                    arr: slot,
                    idx: ri,
                    fail: 0,
                });
                Ok(ri)
            }
            Atom::Min(x, y) => {
                let rx = self.sym_expr(b, x)?;
                let ry = self.sym_expr(b, y)?;
                b.emit(POp::Min {
                    dst: rx,
                    a: rx,
                    b: ry,
                });
                b.pop_to(rx + 1);
                Ok(rx)
            }
            Atom::Max(x, y) => {
                let rx = self.sym_expr(b, x)?;
                let ry = self.sym_expr(b, y)?;
                b.emit(POp::Max {
                    dst: rx,
                    a: rx,
                    b: ry,
                });
                b.pop_to(rx + 1);
                Ok(rx)
            }
        }
    }
}

fn slot(table: &mut Vec<Sym>, s: Sym) -> Result<u16, PredOverflow> {
    if let Some(i) = table.iter().position(|t| *t == s) {
        return Ok(i as u16);
    }
    if table.len() > u16::MAX as usize {
        return Err(PredOverflow);
    }
    table.push(s);
    Ok((table.len() - 1) as u16)
}
