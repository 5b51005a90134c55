//! Bridging IR expressions into the symbolic domain.
//!
//! The summarizer executes scalar code *symbolically*: every integer
//! scalar is tracked as a [`SymExpr`] over loop indexes, parameters and
//! array elements. A scalar whose value cannot be expressed (conditional
//! updates, reads of real data, …) is bound to a fresh *trace atom*
//! `s@trace(i)` — "the value of `s` at iteration `i`" — which is the
//! paper's `CIV@k` device (§3.3): still exact, evaluable at runtime via
//! a pre-computed slice (CIV-COMP), and amenable to the monotonicity
//! rule.

use std::collections::BTreeMap;

use lip_ir::{BinOp, Expr, Intrinsic, Subroutine, UnOp};
use lip_symbolic::{sym, Binders, BoolExpr, CmpOp, Sym, SymExpr};

/// A symbolic scalar environment.
///
/// Bindings live in a `BTreeMap` on purpose: [`SymEnv::merge`] mints
/// fresh opaque symbols while iterating them, so a randomized-order map
/// would make fresh-name assignment — and with it symbol interning
/// order, canonical `SymExpr` forms and every downstream factorization
/// choice — vary from process to process (the old `analyze_loop`
/// nondeterminism).
#[derive(Clone, Debug, Default)]
pub struct SymEnv {
    bindings: BTreeMap<Sym, SymExpr>,
    /// Fresh-name counter for trace atoms.
    counter: u32,
    /// Trace arrays minted for loop-variant scalars: `(scalar, trace)`.
    pub traces: Vec<(Sym, Sym)>,
}

impl SymEnv {
    /// An empty environment.
    pub fn new() -> SymEnv {
        SymEnv::default()
    }

    /// Binds `s` to a symbolic value.
    pub fn bind(&mut self, s: Sym, e: SymExpr) {
        self.bindings.insert(s, e);
    }

    /// The symbolic value of `s`: its binding, or the symbol itself
    /// (parameters and globals denote their runtime value).
    pub fn value(&self, s: Sym) -> SymExpr {
        self.bindings
            .get(&s)
            .cloned()
            .unwrap_or_else(|| SymExpr::var(s))
    }

    /// The pool binders the bound values mention: what the iteration
    /// variable of a loop entered with this environment must avoid.
    pub fn binders(&self) -> Binders {
        self.bindings
            .values()
            .fold(Binders::default(), |acc, e| acc | e.binders())
    }

    /// Whether `s` has an explicit binding.
    pub fn is_bound(&self, s: Sym) -> bool {
        self.bindings.contains_key(&s)
    }

    /// Binds `s` to a fresh opaque symbol (unknown but fixed value).
    pub fn bind_opaque(&mut self, s: Sym) -> SymExpr {
        self.counter += 1;
        let fresh = Sym::fresh(&format!("{s}@u{}", self.counter));
        let e = SymExpr::var(fresh);
        self.bind(s, e.clone());
        e
    }

    /// Binds `s` to its per-iteration trace atom `trace_s(var)` — the
    /// CIV device. Returns the trace array symbol.
    pub fn bind_trace(&mut self, s: Sym, var: Sym) -> Sym {
        self.counter += 1;
        let trace = sym(&format!("{s}@trace{}", self.counter));
        self.traces.push((s, trace));
        self.bind(s, SymExpr::elem(trace, SymExpr::var(var)));
        trace
    }

    /// Merges two environments after a branch: bindings that agree are
    /// kept; disagreeing bindings become opaque (the classic "kill").
    pub fn merge(&mut self, other: &SymEnv) {
        let keys: Vec<Sym> = self.bindings.keys().copied().collect();
        for k in keys {
            let mine = self.value(k);
            let theirs = other.value(k);
            if mine != theirs {
                self.bind_opaque(k);
            }
        }
        for (k, v) in &other.bindings {
            if !self.bindings.contains_key(k) {
                // Assigned only on the other path: unknown here.
                self.bindings.insert(*k, v.clone());
                let mine = self.value(*k);
                if mine != *v {
                    self.bind_opaque(*k);
                }
            }
        }
        self.counter = self.counter.max(other.counter);
        for t in &other.traces {
            if !self.traces.contains(t) {
                self.traces.push(*t);
            }
        }
    }
}

/// Converts an integer-typed IR expression to a [`SymExpr`], resolving
/// scalars through `env` and linearizing array subscripts against the
/// declared extents of `sub`. Returns `None` for non-polynomial forms
/// (division, real literals, `MOD`, …).
pub fn expr_to_sym(sub: &Subroutine, env: &SymEnv, e: &Expr) -> Option<SymExpr> {
    match e {
        Expr::Int(v) => Some(SymExpr::konst(*v)),
        Expr::Real(_) => None,
        Expr::Var(s) => Some(env.value(*s)),
        Expr::Elem(a, idx) => {
            let lin = linearize_subscripts(sub, env, *a, idx)?;
            Some(SymExpr::elem(*a, lin))
        }
        Expr::Bin(op, x, y) => {
            let a = expr_to_sym(sub, env, x)?;
            let b = expr_to_sym(sub, env, y)?;
            match op {
                BinOp::Add => Some(&a + &b),
                BinOp::Sub => Some(&a - &b),
                BinOp::Mul => Some(&a * &b),
                BinOp::Pow => {
                    let p = b.as_const()?;
                    if !(0..=4).contains(&p) {
                        return None;
                    }
                    let mut acc = SymExpr::konst(1);
                    for _ in 0..p {
                        acc = &acc * &a;
                    }
                    Some(acc)
                }
                BinOp::Div => {
                    // Exact constant division only.
                    let k = b.as_const()?;
                    a.exact_div(k)
                }
                _ => None,
            }
        }
        Expr::Un(UnOp::Neg, x) => Some(-expr_to_sym(sub, env, x)?),
        Expr::Un(UnOp::Not, _) => None,
        Expr::Intrin(Intrinsic::Min, args) if args.len() == 2 => {
            let a = expr_to_sym(sub, env, &args[0])?;
            let b = expr_to_sym(sub, env, &args[1])?;
            Some(SymExpr::min(a, b))
        }
        Expr::Intrin(Intrinsic::Max, args) if args.len() == 2 => {
            let a = expr_to_sym(sub, env, &args[0])?;
            let b = expr_to_sym(sub, env, &args[1])?;
            Some(SymExpr::max(a, b))
        }
        // INT(x) truncates a real: not polynomial (Dble is lossless).
        Expr::Intrin(Intrinsic::Dble, args) if args.len() == 1 => expr_to_sym(sub, env, &args[0]),
        Expr::Intrin(_, _) => None,
    }
}

/// Linearizes a (possibly multi-dimensional) subscript list into the
/// 1-based, 1-D index space of the array, using the declared extents:
/// `lin = 1 + Σ (idx_k − 1)·stride_k`.
pub fn linearize_subscripts(
    sub: &Subroutine,
    env: &SymEnv,
    arr: Sym,
    idx: &[Expr],
) -> Option<SymExpr> {
    let mut lin = SymExpr::konst(1);
    let mut stride = SymExpr::konst(1);
    for (k, e) in idx.iter().enumerate() {
        let v = expr_to_sym(sub, env, e)?;
        lin = &lin + &(&(&v - &SymExpr::konst(1)) * &stride);
        if k + 1 < idx.len() {
            let extent = declared_extent(sub, env, arr, k)?;
            stride = &stride * &extent;
        }
    }
    Some(lin)
}

/// The declared extent of dimension `k` of `arr` as a symbolic value
/// (`None` for assumed-size or undeclared dimensions).
pub fn declared_extent(sub: &Subroutine, env: &SymEnv, arr: Sym, k: usize) -> Option<SymExpr> {
    let decl = sub.decl(arr)?;
    match decl.dims.get(k)? {
        lip_ir::DimDecl::Fixed(e) => expr_to_sym(sub, env, e),
        lip_ir::DimDecl::Assumed => None,
    }
}

/// The declared total size of `arr` when all dimensions are fixed.
pub fn declared_size(sub: &Subroutine, env: &SymEnv, arr: Sym) -> Option<SymExpr> {
    let decl = sub.decl(arr)?;
    if decl.dims.is_empty() {
        return None;
    }
    let mut total = SymExpr::konst(1);
    for k in 0..decl.dims.len() {
        total = &total * &declared_extent(sub, env, arr, k)?;
    }
    Some(total)
}

/// Converts a condition expression to a [`BoolExpr`]. Unconvertible
/// conditions become an opaque test on a fresh condition symbol —
/// still *exact* as a gate (complement detection works), though not
/// statically decidable.
pub fn cond_to_bool(sub: &Subroutine, env: &mut SymEnv, e: &Expr) -> BoolExpr {
    if let Some(b) = try_cond(sub, env, e) {
        return b;
    }
    env.counter += 1;
    let fresh = Sym::fresh(&format!("cond@{}", env.counter));
    BoolExpr::ne(SymExpr::var(fresh), SymExpr::konst(0))
}

fn try_cond(sub: &Subroutine, env: &SymEnv, e: &Expr) -> Option<BoolExpr> {
    match e {
        Expr::Int(v) => Some(BoolExpr::Const(*v != 0)),
        Expr::Bin(op, x, y) => {
            let cmp = match op {
                BinOp::Eq => Some(CmpOp::Eq),
                BinOp::Ne => Some(CmpOp::Ne),
                BinOp::Lt => Some(CmpOp::Lt),
                BinOp::Le => Some(CmpOp::Le),
                BinOp::Gt => Some(CmpOp::Gt),
                BinOp::Ge => Some(CmpOp::Ge),
                _ => None,
            };
            if let Some(cmp) = cmp {
                // A predicate reads its operands as integers, so a REAL
                // comparison is not one: `B(i) .GT. 0` on a `B(i)` of
                // 0.75 holds where `0 > 0` does not.
                if reads_real(sub, x) || reads_real(sub, y) {
                    return None;
                }
                let a = expr_to_sym(sub, env, x)?;
                let b = expr_to_sym(sub, env, y)?;
                return Some(BoolExpr::cmp(cmp, a, b));
            }
            match op {
                BinOp::And => {
                    let a = try_cond(sub, env, x)?;
                    let b = try_cond(sub, env, y)?;
                    Some(BoolExpr::and(vec![a, b]))
                }
                BinOp::Or => {
                    let a = try_cond(sub, env, x)?;
                    let b = try_cond(sub, env, y)?;
                    Some(BoolExpr::or(vec![a, b]))
                }
                _ => None,
            }
        }
        Expr::Un(UnOp::Not, x) => Some(try_cond(sub, env, x)?.negated()),
        _ => None,
    }
}

/// Whether `e` reads a `REAL` variable or element outside subscripts.
fn reads_real(sub: &Subroutine, e: &Expr) -> bool {
    match e {
        Expr::Var(s) | Expr::Elem(s, _) => sub.ty_of(*s) == lip_ir::Ty::Real,
        Expr::Bin(_, a, b) => reads_real(sub, a) || reads_real(sub, b),
        Expr::Un(_, a) => reads_real(sub, a),
        Expr::Intrin(_, args) => args.iter().any(|a| reads_real(sub, a)),
        Expr::Int(_) | Expr::Real(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::parse_program;

    fn sub_of(src: &str) -> Subroutine {
        parse_program(src).expect("parses").units[0].clone()
    }

    fn simple_sub() -> Subroutine {
        sub_of(
            "
SUBROUTINE t(HE, IA, N)
  DIMENSION HE(32, *)
  INTEGER IA(*)
END
",
        )
    }

    #[test]
    fn linearizes_two_dim_subscript() {
        // HE(1, id) with extents (32, *): lin = 1 + 32*(id-1).
        let sub = simple_sub();
        let env = SymEnv::new();
        let e = Expr::Elem(sym("HE"), vec![Expr::Int(1), Expr::Var(sym("id"))]);
        let got = expr_to_sym(&sub, &env, &e).expect("converts");
        let id = SymExpr::var(sym("id"));
        let expected = SymExpr::elem(
            sym("HE"),
            SymExpr::konst(1) + (&id - &SymExpr::konst(1)).scale(32),
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn env_resolves_symbolic_scalars() {
        // id = IB(i) + k - 1, then HE offset uses the bound value.
        let sub = simple_sub();
        let mut env = SymEnv::new();
        let id_val = SymExpr::elem(sym("IB"), SymExpr::var(sym("i"))) + SymExpr::var(sym("k"))
            - SymExpr::konst(1);
        env.bind(sym("id"), id_val.clone());
        let got = expr_to_sym(&sub, &env, &Expr::Var(sym("id"))).expect("converts");
        assert_eq!(got, id_val);
    }

    #[test]
    fn conditions_convert_with_complements() {
        let sub = simple_sub();
        let mut env = SymEnv::new();
        let ne = |v: &str| {
            Expr::Bin(
                BinOp::Ne,
                Box::new(Expr::Var(sym(v))),
                Box::new(Expr::Int(1)),
            )
        };
        let b = cond_to_bool(&sub, &mut env, &ne("KSYM"));
        assert_eq!(
            b,
            BoolExpr::ne(SymExpr::var(sym("KSYM")), SymExpr::konst(1))
        );
        // `SYM` is REAL (implicitly), and an integer predicate over it
        // would truncate it: the condition stays opaque.
        let real = cond_to_bool(&sub, &mut env, &ne("SYM"));
        assert!(!real.syms().contains(&sym("SYM")), "{real:?}");
        // An unconvertible (real-valued) condition still yields a gate.
        let r = Expr::Bin(
            BinOp::Gt,
            Box::new(Expr::Real(0.5)),
            Box::new(Expr::Var(sym("x"))),
        );
        let g = cond_to_bool(&sub, &mut env, &r);
        assert!(!g.is_true() && !g.is_false());
        // Complement detection survives the opaque encoding.
        assert!(BoolExpr::and(vec![g.clone(), g.negated()]).is_false());
    }

    #[test]
    fn merge_kills_disagreeing_bindings() {
        let mut a = SymEnv::new();
        let mut b = SymEnv::new();
        a.bind(sym("x"), SymExpr::konst(1));
        b.bind(sym("x"), SymExpr::konst(2));
        a.bind(sym("y"), SymExpr::konst(7));
        b.bind(sym("y"), SymExpr::konst(7));
        a.merge(&b);
        assert_eq!(a.value(sym("y")), SymExpr::konst(7));
        // x becomes opaque: not equal to either constant.
        let x = a.value(sym("x"));
        assert_ne!(x, SymExpr::konst(1));
        assert_ne!(x, SymExpr::konst(2));
    }

    #[test]
    fn trace_atoms_are_per_iteration() {
        let mut env = SymEnv::new();
        let trace = env.bind_trace(sym("civ"), sym("i"));
        let v = env.value(sym("civ"));
        assert_eq!(v, SymExpr::elem(trace, SymExpr::var(sym("i"))));
        assert_eq!(env.traces.len(), 1);
    }

    #[test]
    fn division_only_when_exact() {
        let sub = simple_sub();
        let env = SymEnv::new();
        let e = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Int(4)),
                Box::new(Expr::Var(sym("n"))),
            )),
            Box::new(Expr::Int(2)),
        );
        assert_eq!(
            expr_to_sym(&sub, &env, &e),
            Some(SymExpr::var(sym("n")).scale(2))
        );
        let bad = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::Var(sym("n"))),
            Box::new(Expr::Int(2)),
        );
        assert_eq!(expr_to_sym(&sub, &env, &bad), None);
    }
}
