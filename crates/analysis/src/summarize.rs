//! Interprocedural RO/WF/RW summary construction over the IR
//! (paper §2.1, Figure 2).
//!
//! The summarizer walks a subroutine body in program order, executing
//! scalar code symbolically (see [`crate::symbridge`]) and building a
//! [`Summary`] per array. Branches gate their summaries, consecutive
//! regions compose, loops aggregate — introducing recurrence nodes only
//! when exact LMAD aggregation fails. Call sites inline the callee's
//! (cached) summary, substituting actuals for formals and translating
//! array sections by their symbolic offset (reshaping).
//!
//! Loop-variant scalars are classified per iteration as *invariant*,
//! *recomputed*, *affine induction variable*, or *CIV* (conditionally
//! incremented); CIVs are bound to per-iteration trace atoms — the
//! paper's `CIV@k` values of §3.3 — whose runtime values a loop slice
//! precomputes (CIV-COMP).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use lip_ir::{BinOp, Expr, Intrinsic, LValue, Program, Stmt, Subroutine};
use lip_lmad::{Lmad, LmadSet};
use lip_symbolic::{Atom, BoolExpr, Sym, SymExpr};
use lip_usr::{CallSiteId, Summary, Usr, UsrNode};

use crate::symbridge::{cond_to_bool, declared_size, expr_to_sym, linearize_subscripts, SymEnv};

/// Per-array facts accumulated by the summarizer.
#[derive(Clone, Debug)]
pub struct ArrayFacts {
    /// The RO/WF/RW summary.
    pub summary: Summary,
    /// Whether every access to the array is part of a reduction
    /// statement `A(e) = A(e) ⊕ expr` with a consistent operator.
    pub all_reduction: bool,
    /// The reduction operator, when consistent.
    pub red_op: Option<BinOp>,
}

impl Default for ArrayFacts {
    fn default() -> ArrayFacts {
        ArrayFacts {
            summary: Summary::empty(),
            all_reduction: true,
            red_op: None,
        }
    }
}

impl ArrayFacts {
    fn compose(&self, next: &ArrayFacts) -> ArrayFacts {
        let (red_op, consistent) = merge_ops(self.red_op, next.red_op);
        ArrayFacts {
            summary: self.summary.compose(&next.summary),
            all_reduction: self.all_reduction && next.all_reduction && consistent,
            red_op,
        }
    }
}

/// Merges two reduction-operator observations; the flag is false when
/// they disagree. Mixed operators (`+=` in one statement, `*=` in
/// another) mean the array is not a reduction at all — per-thread
/// buffers merged with either operator would compute the wrong value —
/// so every caller must drop `all_reduction` when the flag is false.
fn merge_ops(a: Option<BinOp>, b: Option<BinOp>) -> (Option<BinOp>, bool) {
    match (a, b) {
        (None, x) | (x, None) => (x, true),
        (Some(x), Some(y)) => (Some(x), x == y),
    }
}

/// The summary of a region: per-array facts plus the scalar environment
/// at region exit.
#[derive(Clone, Debug, Default)]
pub struct ScopeSummary {
    /// Facts per array symbol (in the *caller's* naming).
    pub arrays: BTreeMap<Sym, ArrayFacts>,
    /// Scalar environment after the region.
    pub env: SymEnv,
    /// CIV trace arrays minted in this region: `(scalar, trace array)`.
    pub civs: Vec<(Sym, Sym)>,
    /// Whether a `DO WHILE` was summarized (its trip count is a runtime
    /// slice output).
    pub has_while: bool,
}

impl ScopeSummary {
    fn compose(mut self, next: ScopeSummary) -> ScopeSummary {
        for (arr, facts) in next.arrays {
            let entry = self.arrays.entry(arr).or_default();
            *entry = entry.compose(&facts);
        }
        self.env = next.env;
        self.civs.extend(next.civs);
        self.has_while |= next.has_while;
        self
    }
}

/// How a loop-assigned scalar behaves across iterations.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalarKind {
    /// Never assigned in the loop.
    Invariant,
    /// Recomputed from the loop index and invariants before any use.
    Recomputed,
    /// `s += step` once per iteration with an invariant step.
    AffineIv {
        /// The per-iteration increment.
        step: SymExpr,
    },
    /// A pure accumulator (`s = s ⊕ e`, value never used otherwise):
    /// parallelizable as a scalar reduction.
    Reduction,
    /// Conditionally incremented / data-dependent: needs a trace.
    Civ,
}

/// The per-iteration view of a loop, the input to the independence
/// equations of §2.2.
#[derive(Clone, Debug)]
pub struct IterationSummary {
    /// Loop index.
    pub var: Sym,
    /// Symbolic lower bound.
    pub lo: SymExpr,
    /// Symbolic upper bound.
    pub hi: SymExpr,
    /// Per-iteration facts, parametrized by `var`.
    pub body: ScopeSummary,
    /// CIV traces minted for loop-variant scalars.
    pub civs: Vec<(Sym, Sym)>,
    /// Scalar classifications.
    pub kinds: BTreeMap<Sym, ScalarKind>,
}

/// The interprocedural summarizer.
pub struct Summarizer<'p> {
    prog: &'p Program,
    cache: HashMap<Sym, ScopeSummary>,
    in_progress: BTreeSet<Sym>,
    call_counter: u32,
}

impl<'p> Summarizer<'p> {
    /// Creates a summarizer for `prog`.
    pub fn new(prog: &'p Program) -> Summarizer<'p> {
        Summarizer {
            prog,
            cache: HashMap::new(),
            in_progress: BTreeSet::new(),
            call_counter: 0,
        }
    }

    /// Summarizes a statement block under `env`.
    pub fn summarize_block(
        &mut self,
        sub: &Subroutine,
        stmts: &[Stmt],
        env: SymEnv,
    ) -> ScopeSummary {
        let mut acc = ScopeSummary {
            env,
            ..ScopeSummary::default()
        };
        for s in stmts {
            let env = acc.env.clone();
            let next = self.summarize_stmt(sub, s, env);
            acc = acc.compose(next);
        }
        acc
    }

    /// Summarizes one statement under `env`.
    pub fn summarize_stmt(&mut self, sub: &Subroutine, stmt: &Stmt, env: SymEnv) -> ScopeSummary {
        match stmt {
            Stmt::Assign { lhs, rhs } => self.summarize_assign(sub, lhs, rhs, env),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let mut env = env;
                let g = cond_to_bool(sub, &mut env, cond);
                // Reads performed by the condition itself.
                let mut pre = ScopeSummary {
                    env: env.clone(),
                    ..ScopeSummary::default()
                };
                collect_expr_reads(sub, &pre.env, cond, &mut pre.arrays);
                let then_s = self.summarize_block(sub, then_body, env.clone());
                let else_s = self.summarize_block(sub, else_body, env.clone());
                let mut merged = ScopeSummary::default();
                let keys: BTreeSet<Sym> = then_s
                    .arrays
                    .keys()
                    .chain(else_s.arrays.keys())
                    .copied()
                    .collect();
                for arr in keys {
                    let t = then_s.arrays.get(&arr).cloned().unwrap_or_default();
                    let e = else_s.arrays.get(&arr).cloned().unwrap_or_default();
                    let (red_op, consistent) = merge_ops(t.red_op, e.red_op);
                    merged.arrays.insert(
                        arr,
                        ArrayFacts {
                            summary: Summary::branch(&g, &t.summary, &e.summary),
                            all_reduction: t.all_reduction && e.all_reduction && consistent,
                            red_op,
                        },
                    );
                }
                let mut out_env = then_s.env.clone();
                out_env.merge(&else_s.env);
                merged.env = out_env;
                merged.civs = [then_s.civs, else_s.civs].concat();
                merged.has_while = then_s.has_while || else_s.has_while;
                pre.compose(merged)
            }
            Stmt::Do {
                var, lo, hi, body, ..
            } => self.summarize_do(sub, *var, lo, hi, body, env),
            Stmt::While { label, body, cond } => {
                self.summarize_while(sub, label.as_deref(), cond, body, env)
            }
            Stmt::Call { callee, args } => self.summarize_call(sub, *callee, args, env),
            Stmt::Read { targets } => {
                let mut env = env;
                for t in targets {
                    env.bind_opaque(*t);
                }
                ScopeSummary {
                    env,
                    ..ScopeSummary::default()
                }
            }
        }
    }

    fn summarize_assign(
        &mut self,
        sub: &Subroutine,
        lhs: &LValue,
        rhs: &Expr,
        mut env: SymEnv,
    ) -> ScopeSummary {
        let mut arrays: BTreeMap<Sym, ArrayFacts> = BTreeMap::new();
        match lhs {
            LValue::Element(arr, idx) => {
                let target = linearize_subscripts(sub, &env, *arr, idx)
                    .unwrap_or_else(|| SymExpr::var(Sym::fresh(&format!("{arr}@idx"))));
                let set = LmadSet::single(Lmad::point(target.clone()));
                if let Some(op) = reduction_shape(sub, &env, *arr, &target, rhs) {
                    // Subscript reads happen either way.
                    for e in idx {
                        collect_expr_reads(sub, &env, e, &mut arrays);
                    }
                    // Reads in the non-self part of the RHS.
                    collect_expr_reads_excluding(sub, &env, rhs, *arr, &target, &mut arrays);
                    // Reduction access: an atomic read-modify-write.
                    let f = arrays.entry(*arr).or_default();
                    f.summary = f.summary.compose(&Summary::read_write(set));
                    let (red_op, consistent) = merge_ops(f.red_op, Some(op));
                    f.red_op = red_op;
                    f.all_reduction &= consistent;
                } else {
                    collect_expr_reads(sub, &env, rhs, &mut arrays);
                    for e in idx {
                        collect_expr_reads(sub, &env, e, &mut arrays);
                    }
                    let f = arrays.entry(*arr).or_default();
                    f.summary = f.summary.compose(&Summary::write(set));
                    f.all_reduction = false;
                }
            }
            LValue::Scalar(s) => {
                collect_expr_reads(sub, &env, rhs, &mut arrays);
                match expr_to_sym(sub, &env, rhs) {
                    Some(v) => env.bind(*s, v),
                    None => {
                        env.bind_opaque(*s);
                    }
                }
            }
        }
        // Any array write invalidates "all accesses are reductions" for
        // arrays it reads non-reductively; handled per-array above.
        ScopeSummary {
            arrays,
            env,
            ..ScopeSummary::default()
        }
    }

    /// Builds the per-iteration summary of a counted loop — the input to
    /// the independence equations (public so the classifier can pose
    /// them without re-aggregating).
    pub fn iteration_summary(
        &mut self,
        sub: &Subroutine,
        var: Sym,
        lo: &Expr,
        hi: &Expr,
        body: &[Stmt],
        env: &SymEnv,
    ) -> IterationSummary {
        let lo_s = expr_to_sym(sub, env, lo)
            .unwrap_or_else(|| SymExpr::var(Sym::fresh(&format!("{var}@lo"))));
        let hi_s = expr_to_sym(sub, env, hi)
            .unwrap_or_else(|| SymExpr::var(Sym::fresh(&format!("{var}@hi"))));

        // Classify loop-assigned scalars and bind their per-iteration
        // entry values.
        let assigned = assigned_scalars(body);
        let mut iter_env = env.clone();
        iter_env.bind(var, SymExpr::var(var));
        let mut kinds: BTreeMap<Sym, ScalarKind> = BTreeMap::new();
        let mut civs: Vec<(Sym, Sym)> = Vec::new();
        for s in &assigned {
            if *s == var {
                continue;
            }
            let kind = classify_scalar(sub, body, *s, var, &iter_env);
            match &kind {
                ScalarKind::Invariant => {}
                ScalarKind::Recomputed | ScalarKind::Reduction => {
                    iter_env.bind_opaque(*s);
                }
                ScalarKind::AffineIv { step } => {
                    let pre = env.value(*s);
                    let entry = &pre + &(step * &(&SymExpr::var(var) - &lo_s));
                    iter_env.bind(*s, entry);
                }
                ScalarKind::Civ => {
                    let trace = iter_env.bind_trace(*s, var);
                    civs.push((*s, trace));
                }
            }
            kinds.insert(*s, kind);
        }

        // Per-iteration summary.
        let body_sum = self.summarize_block(sub, body, iter_env);
        civs.extend(body_sum.civs.iter().cloned());
        IterationSummary {
            var,
            lo: lo_s,
            hi: hi_s,
            body: body_sum,
            civs,
            kinds,
        }
    }

    fn summarize_do(
        &mut self,
        sub: &Subroutine,
        var: Sym,
        lo: &Expr,
        hi: &Expr,
        body: &[Stmt],
        mut env: SymEnv,
    ) -> ScopeSummary {
        let it = self.iteration_summary(sub, var, lo, hi, body, &env);
        let (lo_s, hi_s) = (it.lo.clone(), it.hi.clone());
        let kinds = it.kinds;
        let civs = it.civs;
        let body_sum = it.body;

        // Aggregate each array across the loop.
        let mut arrays = BTreeMap::new();
        for (arr, facts) in &body_sum.arrays {
            arrays.insert(
                *arr,
                ArrayFacts {
                    summary: facts.summary.aggregate_loop(var, &lo_s, &hi_s),
                    all_reduction: facts.all_reduction,
                    red_op: facts.red_op,
                },
            );
        }

        // Post-loop scalar bindings.
        env.bind(var, &hi_s + &SymExpr::konst(1));
        for s in kinds.keys().copied().collect::<Vec<_>>() {
            let s = &s;
            match kinds.get(s) {
                // A nested loop's index classifies Invariant (its Do
                // header is not an Assign) but its post-loop value is
                // iteration-dependent: make it opaque.
                Some(ScalarKind::Invariant) | None => {
                    if is_do_var(body, *s) {
                        env.bind_opaque(*s);
                    }
                }
                Some(ScalarKind::AffineIv { step }) => {
                    let pre = env.value(*s);
                    let trip = &hi_s - &lo_s + SymExpr::konst(1);
                    env.bind(*s, &pre + &(step * &trip));
                }
                Some(ScalarKind::Civ) => {
                    // Value after the loop = trace(hi+1).
                    if let Some((_, trace)) = civs.iter().find(|(c, _)| c == s) {
                        env.bind(*s, SymExpr::elem(*trace, &hi_s + &SymExpr::konst(1)));
                    } else {
                        env.bind_opaque(*s);
                    }
                }
                Some(ScalarKind::Recomputed) | Some(ScalarKind::Reduction) => {
                    env.bind_opaque(*s);
                }
            }
        }

        ScopeSummary {
            arrays,
            env,
            civs,
            has_while: body_sum.has_while,
        }
    }

    fn summarize_while(
        &mut self,
        sub: &Subroutine,
        label: Option<&str>,
        cond: &Expr,
        body: &[Stmt],
        mut env: SymEnv,
    ) -> ScopeSummary {
        // Model as a counted loop with a slice-computed trip count
        // (CIV-COMP): every assigned scalar is a CIV by construction. The
        // iteration variable is a binder the entry values do not mention.
        self.call_counter += 1;
        let itvar = env.binders().first_free();
        // Not `LoopAnalysis::niters_sym`: nothing binds a nested WHILE's
        // trip count, so each summarized occurrence names its own.
        let niters = lip_symbolic::sym(&format!(
            "{}@niters{}",
            label.unwrap_or("while"),
            self.call_counter
        ));
        let lo_s = SymExpr::konst(1);
        let hi_s = SymExpr::var(niters);

        let assigned = assigned_scalars(body);
        let mut iter_env = env.clone();
        let mut civs = Vec::new();
        for s in &assigned {
            let trace = iter_env.bind_trace(*s, itvar);
            civs.push((*s, trace));
        }
        // Condition reads.
        let mut pre = ScopeSummary::default();
        collect_expr_reads(sub, &iter_env, cond, &mut pre.arrays);

        let body_sum = self.summarize_block(sub, body, iter_env);
        civs.extend(body_sum.civs.iter().cloned());
        let mut arrays = pre.arrays;
        for (arr, facts) in &body_sum.arrays {
            let agg = facts.summary.aggregate_loop(itvar, &lo_s, &hi_s);
            let entry = arrays.entry(*arr).or_default();
            *entry = entry.compose(&ArrayFacts {
                summary: agg,
                all_reduction: facts.all_reduction,
                red_op: facts.red_op,
            });
        }
        for s in &assigned {
            if let Some((_, trace)) = civs.iter().find(|(c, _)| c == s) {
                env.bind(*s, SymExpr::elem(*trace, &hi_s + &SymExpr::konst(1)));
            }
        }
        ScopeSummary {
            arrays,
            env,
            civs,
            has_while: true,
        }
    }

    fn summarize_call(
        &mut self,
        caller: &Subroutine,
        callee_name: Sym,
        args: &[Expr],
        mut env: SymEnv,
    ) -> ScopeSummary {
        self.call_counter += 1;
        let site = CallSiteId {
            callee: callee_name,
            site: self.call_counter,
        };
        let Some(callee) = self.prog.subroutine(callee_name) else {
            return self.opaque_call(caller, args, &env, site);
        };
        if self.in_progress.contains(&callee_name) || callee.params.len() != args.len() {
            return self.opaque_call(caller, args, &env, site);
        }
        let callee_sum = self.summarize_subroutine(callee_name);

        // Build the formal → actual mapping.
        let mut map = CallMap::default();
        let callee = self.prog.subroutine(callee_name).expect("checked");
        for (formal, actual) in callee.params.iter().zip(args.iter()) {
            let formal_is_array =
                callee.is_array(*formal) || callee_sum.arrays.contains_key(formal);
            if formal_is_array {
                match actual {
                    Expr::Var(name) => {
                        map.arrays.insert(*formal, (*name, SymExpr::zero()));
                    }
                    Expr::Elem(name, idx) => {
                        let shift = linearize_subscripts(caller, &env, *name, idx)
                            .map(|lin| lin - SymExpr::konst(1))
                            .unwrap_or_else(|| SymExpr::var(Sym::fresh(&format!("{name}@sec"))));
                        map.arrays.insert(*formal, (*name, shift));
                    }
                    _ => {
                        map.arrays.insert(*formal, (*formal, SymExpr::zero()));
                    }
                }
            } else {
                let v = expr_to_sym(caller, &env, actual)
                    .unwrap_or_else(|| SymExpr::var(Sym::fresh(&format!("{formal}@arg"))));
                map.scalars.insert(*formal, v);
            }
        }

        // Map the callee's per-array facts into the caller's space.
        // Callee-local arrays (not formals) are fresh per call and
        // invisible to the caller.
        let mut arrays = BTreeMap::new();
        for (arr, facts) in &callee_sum.arrays {
            let Some((target, shift)) = map.arrays.get(arr).cloned() else {
                continue;
            };
            let summary = map_summary(&facts.summary, &map, &shift);
            let entry: &mut ArrayFacts = arrays.entry(target).or_default();
            *entry = entry.compose(&ArrayFacts {
                summary,
                all_reduction: facts.all_reduction,
                red_op: facts.red_op,
            });
        }
        // Copy-out scalars become opaque in the caller.
        let callee_assigned = assigned_scalars(&callee.body);
        for (formal, actual) in callee.params.iter().zip(args.iter()) {
            if let Expr::Var(name) = actual {
                if !map.arrays.contains_key(formal) && callee_assigned.contains(formal) {
                    env.bind_opaque(*name);
                }
            }
        }
        ScopeSummary {
            arrays,
            env,
            civs: Vec::new(),
            has_while: callee_sum.has_while,
        }
    }

    /// Conservative summary for an unanalyzable call: every array actual
    /// is read-written over its whole extent behind a call barrier.
    fn opaque_call(
        &mut self,
        caller: &Subroutine,
        args: &[Expr],
        env: &SymEnv,
        site: CallSiteId,
    ) -> ScopeSummary {
        let mut arrays = BTreeMap::new();
        for a in args {
            if let Expr::Var(name) = a {
                if caller.is_array(*name) {
                    let set = match declared_size(caller, env, *name) {
                        Some(sz) => LmadSet::single(Lmad::interval(SymExpr::konst(1), sz)),
                        None => LmadSet::single(Lmad::point(SymExpr::var(Sym::fresh(&format!(
                            "{name}@opaque"
                        ))))),
                    };
                    let mut s = Summary::read_write(set);
                    s = s.at_call(site);
                    arrays.insert(
                        *name,
                        ArrayFacts {
                            summary: s,
                            all_reduction: false,
                            red_op: None,
                        },
                    );
                }
            }
        }
        ScopeSummary {
            arrays,
            env: env.clone(),
            ..ScopeSummary::default()
        }
    }

    /// Summarizes a whole subroutine body over its formals (cached).
    pub fn summarize_subroutine(&mut self, name: Sym) -> ScopeSummary {
        if let Some(cached) = self.cache.get(&name) {
            return cached.clone();
        }
        let Some(sub) = self.prog.subroutine(name) else {
            return ScopeSummary::default();
        };
        let sub = sub.clone();
        self.in_progress.insert(name);
        let summary = self.summarize_block(&sub, &sub.body, SymEnv::new());
        self.in_progress.remove(&name);
        self.cache.insert(name, summary.clone());
        summary
    }
}

#[derive(Default, Clone, Debug)]
struct CallMap {
    scalars: HashMap<Sym, SymExpr>,
    /// formal array → (actual array, element-index shift).
    arrays: HashMap<Sym, (Sym, SymExpr)>,
}

fn map_sym_expr(e: &SymExpr, map: &CallMap) -> SymExpr {
    let mut out = SymExpr::zero();
    for (m, c) in e.terms() {
        let mut term = SymExpr::konst(c);
        for (atom, p) in m.atoms() {
            let mapped = map_atom(atom, map);
            for _ in 0..*p {
                term = &term * &mapped;
            }
        }
        out = &out + &term;
    }
    out
}

fn map_atom(a: &Atom, map: &CallMap) -> SymExpr {
    match a {
        Atom::Var(s) => map
            .scalars
            .get(s)
            .cloned()
            .unwrap_or_else(|| SymExpr::var(*s)),
        Atom::Elem(arr, idx) => {
            let idx = map_sym_expr(idx, map);
            match map.arrays.get(arr) {
                Some((actual, shift)) => SymExpr::elem(*actual, idx + shift.clone()),
                None => SymExpr::elem(*arr, idx),
            }
        }
        Atom::Min(x, y) => SymExpr::min(map_sym_expr(x, map), map_sym_expr(y, map)),
        Atom::Max(x, y) => SymExpr::max(map_sym_expr(x, map), map_sym_expr(y, map)),
    }
}

fn map_bool(b: &BoolExpr, map: &CallMap) -> BoolExpr {
    match b {
        BoolExpr::Const(v) => BoolExpr::Const(*v),
        BoolExpr::Ge0(e) => BoolExpr::ge0(map_sym_expr(e, map)),
        BoolExpr::Gt0(e) => BoolExpr::gt0(map_sym_expr(e, map)),
        BoolExpr::Eq0(e) => BoolExpr::eq0(map_sym_expr(e, map)),
        BoolExpr::Ne0(e) => BoolExpr::ne0(map_sym_expr(e, map)),
        BoolExpr::Divides(k, e) => BoolExpr::divides(*k, map_sym_expr(e, map)),
        BoolExpr::NotDivides(k, e) => BoolExpr::not_divides(*k, map_sym_expr(e, map)),
        BoolExpr::And(ps) => BoolExpr::and(ps.iter().map(|p| map_bool(p, map)).collect()),
        BoolExpr::Or(ps) => BoolExpr::or(ps.iter().map(|p| map_bool(p, map)).collect()),
    }
}

fn map_usr(u: &Usr, map: &CallMap, shift: &SymExpr) -> Usr {
    match u.node() {
        UsrNode::Empty => Usr::empty(),
        UsrNode::Leaf(set) => {
            let mapped: Vec<Lmad> = set
                .lmads()
                .iter()
                .map(|l| {
                    let dims = l
                        .dims()
                        .iter()
                        .map(|d| lip_lmad::Dim {
                            stride: map_sym_expr(&d.stride, map),
                            span: map_sym_expr(&d.span, map),
                        })
                        .collect();
                    Lmad::from_dims(dims, map_sym_expr(l.offset(), map) + shift.clone())
                })
                .collect();
            Usr::leaf(LmadSet::from_vec(mapped))
        }
        UsrNode::Union(a, b) => Usr::union(map_usr(a, map, shift), map_usr(b, map, shift)),
        UsrNode::Intersect(a, b) => Usr::intersect(map_usr(a, map, shift), map_usr(b, map, shift)),
        UsrNode::Subtract(a, b) => Usr::subtract(map_usr(a, map, shift), map_usr(b, map, shift)),
        UsrNode::Gate(p, body) => Usr::gate(map_bool(p, map), map_usr(body, map, shift)),
        UsrNode::Call(site, body) => Usr::call(*site, map_usr(body, map, shift)),
        UsrNode::RecTotal { var, lo, hi, body } => Usr::rec_total(
            *var,
            map_sym_expr(lo, map),
            map_sym_expr(hi, map),
            map_usr(body, map, shift),
        ),
        UsrNode::RecPartial { var, lo, hi, body } => Usr::rec_partial(
            *var,
            map_sym_expr(lo, map),
            map_sym_expr(hi, map),
            map_usr(body, map, shift),
        ),
    }
}

fn map_summary(s: &Summary, map: &CallMap, shift: &SymExpr) -> Summary {
    Summary {
        wf: map_usr(&s.wf, map, shift),
        ro: map_usr(&s.ro, map, shift),
        rw: map_usr(&s.rw, map, shift),
    }
}

/// Detects the reduction shape `A(e) = A(e) ⊕ rest` (⊕ ∈ {+, −, *,
/// MIN, MAX}) where `rest` does not mention `A`.
fn reduction_shape(
    sub: &Subroutine,
    env: &SymEnv,
    arr: Sym,
    target: &SymExpr,
    rhs: &Expr,
) -> Option<BinOp> {
    let self_ref = |e: &Expr| -> bool {
        match e {
            Expr::Elem(a, idx) if *a == arr => {
                linearize_subscripts(sub, env, *a, idx).as_ref() == Some(target)
            }
            _ => false,
        }
    };
    match rhs {
        Expr::Bin(op @ (BinOp::Add | BinOp::Mul), x, y) => {
            let commutes = (self_ref(x) && !y.mentions(arr)) || (self_ref(y) && !x.mentions(arr));
            commutes.then_some(*op)
        }
        Expr::Bin(BinOp::Sub, x, y) => {
            if self_ref(x) && !y.mentions(arr) {
                Some(BinOp::Sub)
            } else {
                None
            }
        }
        Expr::Intrin(i @ (Intrinsic::Min | Intrinsic::Max), args) if args.len() == 2 => {
            let op = if *i == Intrinsic::Min {
                BinOp::Lt
            } else {
                BinOp::Gt
            };
            let commutes = (self_ref(&args[0]) && !args[1].mentions(arr))
                || (self_ref(&args[1]) && !args[0].mentions(arr));
            commutes.then_some(op)
        }
        _ => None,
    }
}

/// Collects RO contributions of every array element read in `e`.
fn collect_expr_reads(
    sub: &Subroutine,
    env: &SymEnv,
    e: &Expr,
    out: &mut BTreeMap<Sym, ArrayFacts>,
) {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Var(_) => {}
        Expr::Elem(arr, idx) => {
            for i in idx {
                collect_expr_reads(sub, env, i, out);
            }
            let lin = linearize_subscripts(sub, env, *arr, idx)
                .unwrap_or_else(|| SymExpr::var(Sym::fresh(&format!("{arr}@ridx"))));
            let f = out.entry(*arr).or_default();
            f.summary = f
                .summary
                .compose(&Summary::read(LmadSet::single(Lmad::point(lin))));
            f.all_reduction = false;
        }
        Expr::Bin(_, a, b) => {
            collect_expr_reads(sub, env, a, out);
            collect_expr_reads(sub, env, b, out);
        }
        Expr::Un(_, a) => collect_expr_reads(sub, env, a, out),
        Expr::Intrin(_, args) => {
            for a in args {
                collect_expr_reads(sub, env, a, out);
            }
        }
    }
}

/// Like [`collect_expr_reads`] but skips the self-reference of a
/// reduction statement.
fn collect_expr_reads_excluding(
    sub: &Subroutine,
    env: &SymEnv,
    e: &Expr,
    arr: Sym,
    target: &SymExpr,
    out: &mut BTreeMap<Sym, ArrayFacts>,
) {
    match e {
        Expr::Elem(a, idx) if *a == arr => {
            if linearize_subscripts(sub, env, *a, idx).as_ref() == Some(target) {
                // The self-reference is the reduction's RW access, but
                // its subscripts (e.g. the index array) are still reads.
                for i in idx {
                    collect_expr_reads(sub, env, i, out);
                }
                return;
            }
            collect_expr_reads(sub, env, e, out);
        }
        Expr::Bin(_, a, b) => {
            collect_expr_reads_excluding(sub, env, a, arr, target, out);
            collect_expr_reads_excluding(sub, env, b, arr, target, out);
        }
        Expr::Un(_, a) => collect_expr_reads_excluding(sub, env, a, arr, target, out),
        Expr::Intrin(_, args) => {
            for a in args {
                collect_expr_reads_excluding(sub, env, a, arr, target, out);
            }
        }
        other => collect_expr_reads(sub, env, other, out),
    }
}

/// Whether `s` is the index variable of some (possibly nested) DO loop.
fn is_do_var(stmts: &[Stmt], s: Sym) -> bool {
    stmts.iter().any(|st| match st {
        Stmt::Do { var, body, .. } => *var == s || is_do_var(body, s),
        _ => st.child_blocks().iter().any(|b| is_do_var(b, s)),
    })
}

/// All scalars assigned anywhere in `stmts` (including nested blocks and
/// loop variables).
pub fn assigned_scalars(stmts: &[Stmt]) -> BTreeSet<Sym> {
    let mut out = BTreeSet::new();
    collect_assigned(stmts, &mut out);
    out
}

fn collect_assigned(stmts: &[Stmt], out: &mut BTreeSet<Sym>) {
    for s in stmts {
        match s {
            Stmt::Assign {
                lhs: LValue::Scalar(v),
                ..
            } => {
                out.insert(*v);
            }
            Stmt::Do { var, .. } => {
                out.insert(*var);
            }
            Stmt::Read { targets } => out.extend(targets.iter().copied()),
            _ => {}
        }
        for block in s.child_blocks() {
            collect_assigned(block, out);
        }
    }
}

/// Classifies how scalar `s` behaves across iterations of the loop over
/// `var` with body `body` (see [`ScalarKind`]).
pub fn classify_scalar(
    sub: &Subroutine,
    body: &[Stmt],
    s: Sym,
    var: Sym,
    env: &SymEnv,
) -> ScalarKind {
    let mut assigns = Vec::new();
    collect_assignments_to(body, s, 0, &mut assigns);
    if assigns.is_empty() {
        return ScalarKind::Invariant;
    }
    // Increment-only shape: every assignment is s = s ± e.
    let all_increments = assigns.iter().all(|(rhs, _)| is_increment(rhs, s));
    if all_increments {
        if assigns.len() == 1 && assigns[0].1 == 0 {
            // Single unconditional top-level increment: affine IV when
            // the step is convertible and loop-invariant.
            if let Some(step) = increment_step(sub, env, &assigns[0].0, s) {
                if !step.contains_sym(var) && !step.contains_sym(s) {
                    return ScalarKind::AffineIv { step };
                }
            }
        }
        // A pure accumulator (never read outside its own updates) is a
        // scalar reduction; anything else is a CIV.
        if !used_outside_increments(body, s) {
            return ScalarKind::Reduction;
        }
        return ScalarKind::Civ;
    }
    // Recomputed: no assignment derives from s's previous value, no
    // use precedes the first unconditional definition, and every
    // iteration assigns it. One an iteration may skip carries an
    // earlier iteration's value out of the loop, and needs a trace.
    let self_free = assigns.iter().all(|(rhs, _)| !rhs.mentions(s));
    if self_free && !use_before_def(body, s) && assigned_outside_ifs(body, s) {
        return ScalarKind::Recomputed;
    }
    ScalarKind::Civ
}

/// Whether `s` is assigned outside every IF and WHILE of `stmts`: at
/// top level or in a nested DO's body (whose zero trips leave what the
/// iterations before left, as the executor's restore assumes).
fn assigned_outside_ifs(stmts: &[Stmt], s: Sym) -> bool {
    stmts.iter().any(|st| match st {
        Stmt::Assign {
            lhs: LValue::Scalar(v),
            ..
        } => *v == s,
        Stmt::Read { targets } => targets.contains(&s),
        Stmt::Do { body, .. } => assigned_outside_ifs(body, s),
        _ => false,
    })
}

/// Whether `s` is read anywhere other than in its own `s = s ± e`
/// update statements.
fn used_outside_increments(stmts: &[Stmt], s: Sym) -> bool {
    for st in stmts {
        match st {
            Stmt::Assign {
                lhs: LValue::Scalar(v),
                rhs,
            } if *v == s && is_increment(rhs, s) => {}
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if cond.mentions(s)
                    || used_outside_increments(then_body, s)
                    || used_outside_increments(else_body, s)
                {
                    return true;
                }
            }
            Stmt::Do {
                lo, hi, step, body, ..
            } => {
                if lo.mentions(s)
                    || hi.mentions(s)
                    || step.as_ref().is_some_and(|e| e.mentions(s))
                    || used_outside_increments(body, s)
                {
                    return true;
                }
            }
            Stmt::While { cond, body, .. } => {
                if cond.mentions(s) || used_outside_increments(body, s) {
                    return true;
                }
            }
            other => {
                if stmt_uses(other, s) {
                    return true;
                }
            }
        }
    }
    false
}

fn collect_assignments_to(stmts: &[Stmt], s: Sym, depth: u32, out: &mut Vec<(Expr, u32)>) {
    for st in stmts {
        match st {
            Stmt::Assign {
                lhs: LValue::Scalar(v),
                rhs,
            } if *v == s => out.push((rhs.clone(), depth)),
            Stmt::Read { targets } if targets.contains(&s) => {
                out.push((Expr::Int(0), depth + 1)); // opaque, conditional-ish
            }
            _ => {}
        }
        for block in st.child_blocks() {
            collect_assignments_to(block, s, depth + 1, out);
        }
    }
}

fn is_increment(rhs: &Expr, s: Sym) -> bool {
    match rhs {
        Expr::Bin(BinOp::Add, a, b) => {
            (matches!(&**a, Expr::Var(v) if *v == s) && !b.mentions(s))
                || (matches!(&**b, Expr::Var(v) if *v == s) && !a.mentions(s))
        }
        Expr::Bin(BinOp::Sub, a, b) => matches!(&**a, Expr::Var(v) if *v == s) && !b.mentions(s),
        _ => false,
    }
}

fn increment_step(sub: &Subroutine, env: &SymEnv, rhs: &Expr, s: Sym) -> Option<SymExpr> {
    let step_expr = match rhs {
        Expr::Bin(BinOp::Add, a, b) => {
            if matches!(&**a, Expr::Var(v) if *v == s) {
                (**b).clone()
            } else {
                (**a).clone()
            }
        }
        Expr::Bin(BinOp::Sub, _, b) => Expr::Un(lip_ir::UnOp::Neg, b.clone()),
        _ => return None,
    };
    expr_to_sym(sub, env, &step_expr)
}

/// Whether `s` may be used before its first unconditional top-level
/// definition in `stmts` (conservative).
pub fn use_before_def(stmts: &[Stmt], s: Sym) -> bool {
    let mut defined = false;
    for st in stmts {
        if !defined {
            // A nested DO whose header doesn't mention `s` only exposes
            // `s` through its body; recurse with the same first-use
            // discipline instead of counting any mention as a use, so a
            // scalar that every inner iteration defines before reading
            // (solvh's `id = IB(i) + k - 1`) isn't flagged.
            let uses = match st {
                Stmt::Do {
                    lo, hi, step, body, ..
                } if !lo.mentions(s)
                    && !hi.mentions(s)
                    && !step.as_ref().is_some_and(|e| e.mentions(s)) =>
                {
                    use_before_def(body, s)
                }
                _ => stmt_uses(st, s),
            };
            if uses {
                return true;
            }
            // Zero-trip conservatism: the DO may not execute, so it
            // never counts as a definition at this level.
        }
        if let Stmt::Assign {
            lhs: LValue::Scalar(v),
            ..
        } = st
        {
            if *v == s {
                defined = true;
            }
        }
    }
    false
}

fn stmt_uses(st: &Stmt, s: Sym) -> bool {
    let expr_uses = |e: &Expr| e.mentions(s);
    match st {
        Stmt::Assign { lhs, rhs } => {
            expr_uses(rhs)
                || match lhs {
                    LValue::Element(_, idx) => idx.iter().any(expr_uses),
                    LValue::Scalar(_) => false,
                }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            expr_uses(cond)
                || then_body.iter().any(|x| stmt_uses(x, s))
                || else_body.iter().any(|x| stmt_uses(x, s))
        }
        Stmt::Do {
            lo, hi, step, body, ..
        } => {
            expr_uses(lo)
                || expr_uses(hi)
                || step.as_ref().is_some_and(&expr_uses)
                || body.iter().any(|x| stmt_uses(x, s))
        }
        Stmt::While { cond, body, .. } => expr_uses(cond) || body.iter().any(|x| stmt_uses(x, s)),
        Stmt::Call { args, .. } => args.iter().any(expr_uses),
        Stmt::Read { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::parse_program;
    use lip_symbolic::sym;

    fn summarize_first(src: &str) -> (Program, ScopeSummary) {
        let prog = parse_program(src).expect("parses");
        let name = prog.units[0].name;
        let mut s = Summarizer::new(&prog);
        let sum = s.summarize_subroutine(name);
        (prog, sum)
    }

    #[test]
    fn simple_write_loop_aggregates() {
        let (_, sum) = summarize_first(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO i = 1, N
    A(i) = 1.0
  ENDDO
END
",
        );
        let a = &sum.arrays[&sym("A")];
        // WF aggregates to the exact interval [1, N] (gated on 1<=N).
        match a.summary.wf.node() {
            UsrNode::Gate(_, inner) => {
                assert!(matches!(inner.node(), UsrNode::Leaf(_)))
            }
            other => panic!("expected gated leaf, got {other:?}"),
        }
        assert!(a.summary.ro.is_empty());
        assert!(a.summary.rw.is_empty());
    }

    #[test]
    fn recomputed_scalar_stays_exact() {
        // off = 2*i; A(off) = ... — the write set must be the strided
        // leaf {2, 4, .., 2N}, not an opaque recurrence.
        let (_, sum) = summarize_first(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N, off
  DO i = 1, N
    off = 2 * i
    A(off) = 1.0
  ENDDO
END
",
        );
        let a = &sum.arrays[&sym("A")];
        match a.summary.wf.node() {
            UsrNode::Gate(_, inner) => match inner.node() {
                UsrNode::Leaf(set) => {
                    assert_eq!(set.lmads()[0].dims()[0].stride, SymExpr::konst(2));
                }
                other => panic!("expected leaf, got {other:?}"),
            },
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    fn gated_branch_write() {
        let (_, sum) = summarize_first(
            "
SUBROUTINE t(A, N, SYM)
  DIMENSION A(*)
  INTEGER i, N, SYM
  IF (SYM .NE. 1) THEN
    DO i = 1, N
      A(i) = 1.0
    ENDDO
  ENDIF
END
",
        );
        let a = &sum.arrays[&sym("A")];
        match a.summary.wf.node() {
            UsrNode::Gate(g, _) => {
                let expected = BoolExpr::ne(SymExpr::var(sym("SYM")), SymExpr::konst(1));
                // The branch gate is conjoined with the loop-bounds gate.
                assert!(
                    format!("{g}").contains(&format!("{expected}")) || *g == expected,
                    "gate was {g}"
                );
            }
            other => panic!("expected gate, got {other:?}"),
        }
    }

    #[test]
    fn reduction_detected() {
        let (_, sum) = summarize_first(
            "
SUBROUTINE t(A, B, N)
  DIMENSION A(*)
  INTEGER B(*)
  INTEGER i, N
  DO i = 1, N
    A(B(i)) = A(B(i)) + 2.0
  ENDDO
END
",
        );
        let a = &sum.arrays[&sym("A")];
        assert!(a.all_reduction);
        assert_eq!(a.red_op, Some(BinOp::Add));
        assert!(a.summary.wf.is_empty());
        assert!(!a.summary.rw.is_empty());
        // B is read (by the subscript) — not a reduction itself.
        let b = &sum.arrays[&sym("B")];
        assert!(!b.all_reduction);
        assert!(!b.summary.ro.is_empty());
    }

    #[test]
    fn call_translates_sections() {
        // CALL fill(A(off), n): the callee's WF [1, n] lands at
        // [off, off+n-1] in the caller.
        let (_, sum) = summarize_first(
            "
SUBROUTINE t(A, off, n)
  DIMENSION A(*)
  INTEGER off, n
  CALL fill(A(off), n)
END

SUBROUTINE fill(V, n)
  DIMENSION V(*)
  INTEGER k, n
  DO k = 1, n
    V(k) = 0.0
  ENDDO
END
",
        );
        let a = &sum.arrays[&sym("A")];
        match a.summary.wf.node() {
            UsrNode::Gate(_, inner) => match inner.node() {
                UsrNode::Leaf(set) => {
                    let l = &set.lmads()[0];
                    assert_eq!(*l.offset(), SymExpr::var(sym("off")));
                }
                other => panic!("expected leaf, got {other:?}"),
            },
            other => panic!("expected gated leaf, got {other:?}"),
        }
    }

    #[test]
    fn affine_iv_recognized() {
        let (prog, sum) = summarize_first(
            "
SUBROUTINE t(A, N, Q)
  DIMENSION A(*)
  INTEGER i, N, Q, p
  p = Q
  DO i = 1, N
    A(p) = 1.0
    p = p + 3
  ENDDO
END
",
        );
        // p is an affine IV: per-iteration p = Q + 3*(i-1); writes form
        // the strided set {Q, Q+3, ...}.
        let sub = prog.units[0].clone();
        let kind = classify_scalar(
            &sub,
            match &sub.body[1] {
                Stmt::Do { body, .. } => body,
                _ => panic!(),
            },
            sym("p"),
            sym("i"),
            &SymEnv::new(),
        );
        assert_eq!(
            kind,
            ScalarKind::AffineIv {
                step: SymExpr::konst(3)
            }
        );
        let a = &sum.arrays[&sym("A")];
        match a.summary.wf.node() {
            UsrNode::Gate(_, inner) => match inner.node() {
                UsrNode::Leaf(set) => {
                    assert_eq!(set.lmads()[0].dims()[0].stride, SymExpr::konst(3));
                }
                other => panic!("expected leaf, got {other:?}"),
            },
            other => panic!("expected gated leaf, got {other:?}"),
        }
    }

    #[test]
    fn civ_gets_trace() {
        let (prog, sum) = summarize_first(
            "
SUBROUTINE t(A, C, N)
  DIMENSION A(*)
  INTEGER C(*)
  INTEGER i, N, civ
  civ = 0
  DO i = 1, N
    IF (C(i) .GT. 0) THEN
      civ = civ + 1
      A(civ) = 1.0
    ENDIF
  ENDDO
END
",
        );
        let sub = prog.units[0].clone();
        let body = match &sub.body[1] {
            Stmt::Do { body, .. } => body,
            _ => panic!(),
        };
        assert_eq!(
            classify_scalar(&sub, body, sym("civ"), sym("i"), &SymEnv::new()),
            ScalarKind::Civ
        );
        assert_eq!(sum.civs.len(), 1);
        // The write set references the trace atom.
        let a = &sum.arrays[&sym("A")];
        let syms = a.summary.wf.free_syms();
        assert!(
            syms.iter().any(|s| s.name().contains("civ@trace")),
            "syms: {syms:?}"
        );
    }

    #[test]
    fn while_loop_marks_civ_comp() {
        let (_, sum) = summarize_first(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER k, N
  k = 1
  DO w1 WHILE (k .LT. N)
    A(k) = 1.0
    k = k + 2
  ENDDO
END
",
        );
        assert!(sum.has_while);
        assert!(!sum.civs.is_empty());
    }

    #[test]
    fn figure1_he_summary_shape() {
        // The full Figure 1 program: HE's per-outer-iteration WF must
        // aggregate the inner k-loop into an LMAD with the 32-stride
        // dimension (paper Figure 3(a)).
        let src = "
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
        let (_, sum) = summarize_first(src);
        let he = &sum.arrays[&sym("HE")];
        // The whole-loop HE summary must not be empty and must mention
        // IB (the section offsets) somewhere.
        assert!(!he.summary.written().is_empty());
        let syms = he.summary.written().free_syms();
        assert!(syms.contains(&sym("IB")), "syms: {syms:?}");
        // XE: written under the SYM gate, read-write in matmult.
        let xe = &sum.arrays[&sym("XE")];
        assert!(!xe.summary.wf.is_empty());
        let gates = format!("{}", xe.summary.wf);
        assert!(gates.contains("SYM"), "wf: {gates}");
    }
}
