//! Metamorphic relations on `Session::analyze`: a rewrite that does not
//! change what a loop does must not change what the analysis concludes
//! of it — its class and its loop cascade (each stage's complexity,
//! leaf count and predicate). Over every suite kernel and the rows
//! below, three rewrites of the target loop:
//!
//! - renaming its variable (the new name read back as the old in the
//!   predicates);
//! - writing its step, `, 1`;
//! - spelling a comparison of a `REAL` with an integer literal `k` as
//!   one with `k.0`. A predicate reads its operands as integers, so the
//!   analysis keeps such a comparison opaque either way.

use std::fmt::Write as _;

use lip_ir::{parse_program, BinOp, Expr, LValue, Program, Stmt, Subroutine, Ty};
use lip_runtime::Session;
use lip_symbolic::{sym, Sym};

/// Hand-written loops the relations must hold on too: rows of
/// `session_matrix.rs` whose shapes no suite kernel has.
const ROWS: [&str; 4] = [
    "IF (B(i) .GT. 0) THEN\n K = K + 1\n A(K) = K\n ENDIF",
    "IF (B(i) .GT. 0) K = K + 1\n A(K) = B(i)",
    "IF (B(i) .GT. 0) K = K + 2\n A(K + 1) = B(i)",
    "IF (C(i) .GT. 0) THEN\n K = K + 1\n A(K) = B(i)\n ENDIF",
];

fn row(body: &str) -> String {
    format!(
        "
SUBROUTINE t(A, B, C, K, N)
  DIMENSION A(*), B(*)
  INTEGER C(*)
  INTEGER i, N, K
  DO l1 i = 1, N
    {body}
  ENDDO
END
"
    )
}

/// The class and the loop cascade of loop `label` of `prog`'s
/// subroutine `sub`, rendered, a renamed variable read as its old name.
fn conclusion(prog: &Program, sub: Sym, label: &str, renamed: Option<(Sym, Sym)>) -> String {
    let a = Session::default()
        .analyze(prog, sub, label)
        .expect("analysis");
    let mut out = format!("{:?}", a.class);
    for s in &a.cascade.stages {
        let mut pred = s.pred.to_string();
        if let Some((old, new)) = renamed {
            pred = pred.replace(&new.name(), &old.name());
        }
        let _ = write!(out, "\n{} {}: {pred}", s.complexity, s.pred.leaf_count());
    }
    out
}

/// The loop labelled `label` among `stmts`, at any depth.
fn target<'a>(stmts: &'a mut [Stmt], label: &str) -> Option<&'a mut Stmt> {
    stmts.iter_mut().find_map(|s| match s {
        Stmt::Do { label: Some(l), .. } | Stmt::While { label: Some(l), .. } if l == label => {
            Some(s)
        }
        Stmt::If {
            then_body,
            else_body,
            ..
        } => target(then_body, label).or_else(|| target(else_body, label)),
        Stmt::Do { body, .. } | Stmt::While { body, .. } => target(body, label),
        _ => None,
    })
}

/// `prog` with loop `label` of `sub` rewritten by `f`; `None` when `f`
/// does not apply to it.
fn rewritten(
    prog: &Program,
    sub: Sym,
    label: &str,
    f: impl Fn(&Subroutine, &mut Stmt) -> bool,
) -> Option<Program> {
    let mut prog = prog.clone();
    let unit = prog.units.iter_mut().find(|u| u.name == sub)?;
    let ctx = unit.clone();
    f(&ctx, target(&mut unit.body, label)?).then_some(prog)
}

/// Every expression of `s` through `f`, sub-expressions included, and
/// every scalar it assigns (a DO's variable among them) through `var`.
fn visit(s: &mut Stmt, f: &mut dyn FnMut(&mut Expr), var: &mut dyn FnMut(&mut Sym)) {
    fn expr(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
        f(e);
        match e {
            Expr::Elem(_, args) | Expr::Intrin(_, args) => args.iter_mut().for_each(|e| expr(e, f)),
            Expr::Bin(_, a, b) => {
                expr(a, f);
                expr(b, f);
            }
            Expr::Un(_, a) => expr(a, f),
            Expr::Int(_) | Expr::Real(_) | Expr::Var(_) => {}
        }
    }
    let mut exprs: Vec<&mut Expr> = Vec::new();
    let mut blocks: Vec<&mut Vec<Stmt>> = Vec::new();
    match s {
        Stmt::Assign { lhs, rhs } => {
            match lhs {
                LValue::Scalar(v) => var(v),
                LValue::Element(_, idx) => exprs.extend(idx),
            }
            exprs.push(rhs);
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            exprs.push(cond);
            blocks.extend([then_body, else_body]);
        }
        Stmt::Do {
            var: v,
            lo,
            hi,
            step,
            body,
            ..
        } => {
            var(v);
            exprs.extend([lo, hi].into_iter().chain(step));
            blocks.push(body);
        }
        Stmt::While { cond, body, .. } => {
            exprs.push(cond);
            blocks.push(body);
        }
        Stmt::Call { args, .. } => exprs.extend(args),
        Stmt::Read { targets } => targets.iter_mut().for_each(&mut *var),
    }
    exprs.into_iter().for_each(|e| expr(e, f));
    for s in blocks.into_iter().flatten() {
        visit(s, f, var);
    }
}

/// Renames a DO's variable to `to` throughout the loop.
fn rename_var(to: Sym) -> impl Fn(&Subroutine, &mut Stmt) -> bool {
    move |_, s| {
        let Stmt::Do { var: from, .. } = *s else {
            return false;
        };
        let swap = |v: &mut Sym| {
            if *v == from {
                *v = to;
            }
        };
        let mut in_expr = |e: &mut Expr| {
            if let Expr::Var(v) = e {
                swap(v);
            }
        };
        visit(s, &mut in_expr, &mut { swap });
        true
    }
}

/// Writes a DO's step `, 1` when it has none.
fn unit_step(_: &Subroutine, s: &mut Stmt) -> bool {
    match s {
        Stmt::Do {
            step: step @ None, ..
        } => {
            *step = Some(Expr::Int(1));
            true
        }
        _ => false,
    }
}

/// Spells each integer literal compared with a `REAL` variable or
/// element as a real one.
fn real_literals(sub: &Subroutine, s: &mut Stmt) -> bool {
    let real = |e: &Expr| matches!(e, Expr::Var(v) | Expr::Elem(v, _) if sub.ty_of(*v) == Ty::Real);
    let mut changed = false;
    let mut respell = |e: &mut Expr| {
        let Expr::Bin(BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, a, b) =
            e
        else {
            return;
        };
        let (x, y) = (real(a), real(b));
        for (lit, other_real) in [(&mut **b, x), (&mut **a, y)] {
            if let (true, Expr::Int(k)) = (other_real, &*lit) {
                *lit = Expr::Real(*k as f64);
                changed = true;
            }
        }
    };
    visit(s, &mut respell, &mut |_| {});
    changed
}

#[test]
fn rewrites_that_keep_a_loop_keep_its_analysis() {
    let kernels = lip_suite::all_shapes().into_iter();
    let kernels = kernels.map(|k| (k.source.to_owned(), k.sub, k.label));
    let rows = ROWS.iter().map(|body| (row(body), "t", "l1"));
    let (mut held, mut respelled) = (0, 0);
    for (src, sub, label) in kernels.chain(rows) {
        let prog = parse_program(&src).expect("parses");
        let sub = sym(sub);
        let want = conclusion(&prog, sub, label, None);
        let new = sym("ixx");
        let old = match prog.subroutine(sub).and_then(|u| u.find_loop(label)) {
            Some(Stmt::Do { var, .. }) => Some((*var, new)),
            _ => None,
        };
        type Rewrite = Box<dyn Fn(&Subroutine, &mut Stmt) -> bool>;
        let relations: [(&str, Rewrite, _); 3] = [
            ("its variable renamed", Box::new(rename_var(new)), old),
            ("its step written", Box::new(unit_step), None),
            (
                "REAL comparisons spelled real",
                Box::new(real_literals),
                None,
            ),
        ];
        for (what, f, renamed) in relations {
            let Some(changed) = rewritten(&prog, sub, label, f) else {
                continue;
            };
            respelled += usize::from(what.starts_with("REAL"));
            let got = conclusion(&changed, sub, label, renamed);
            assert_eq!(got, want, "{label} with {what}");
            held += 1;
        }
    }
    assert!(
        respelled >= 3,
        "{respelled} loops compare a REAL with an integer literal"
    );
    println!("{held} relations held");
}
