//! CIV precomputation (the paper's CIV-COMP, §3.3).
//!
//! Conditionally-incremented induction variables make per-iteration
//! access sets depend on loop-carried scalar state. The analysis binds
//! them to *trace atoms* `s@trace(i)`; before parallel execution, the
//! runtime materializes those traces by executing the *loop slice* — the
//! dependence closure of the statements computing the CIVs — once,
//! sequentially, recording each scalar's value at every iteration entry.
//! (For `track`'s while loops this slice is almost the whole body, which
//! is exactly why the paper reports RTov ≈ 47% there.)

use std::collections::BTreeSet;

use lip_ir::{
    AccessTracer, ArrayBuf, ExecState, LValue, RunError, Stmt, Store, Subroutine, Ty, Value,
};
use lip_symbolic::Sym;
use lip_vm::{IterObserver, Scalars};

use crate::backend::{do_body, DoShape, ExecEnv};
use crate::cache::CompiledBody;

/// Extracts the slice of `body` needed to compute `targets` each
/// iteration: the transitive closure of statements assigning needed
/// scalars, keeping enclosing control flow intact (paper §5: the
/// CDG-transitive closure of the predicate's input symbols).
pub fn extract_slice(body: &[Stmt], targets: &BTreeSet<Sym>) -> Vec<Stmt> {
    // Grow the needed-symbol set to a fixed point.
    let mut needed = targets.clone();
    loop {
        let before = needed.len();
        grow_needed(body, &mut needed);
        if needed.len() == before {
            break;
        }
    }
    filter_stmts(body, &needed)
}

fn grow_needed(stmts: &[Stmt], needed: &mut BTreeSet<Sym>) {
    for s in stmts {
        match s {
            Stmt::Assign {
                lhs: LValue::Scalar(v),
                rhs,
            } if needed.contains(v) => {
                needed.extend(expr_syms(rhs));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if touches(then_body, needed) || touches(else_body, needed) {
                    needed.extend(expr_syms(cond));
                }
                grow_needed(then_body, needed);
                grow_needed(else_body, needed);
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                if touches(body, needed) {
                    needed.insert(*var);
                    needed.extend(expr_syms(lo));
                    needed.extend(expr_syms(hi));
                    if let Some(st) = step {
                        needed.extend(expr_syms(st));
                    }
                }
                grow_needed(body, needed);
            }
            Stmt::While { cond, body, .. } => {
                if touches(body, needed) {
                    needed.extend(expr_syms(cond));
                }
                grow_needed(body, needed);
            }
            Stmt::Read { .. } | Stmt::Call { .. } | Stmt::Assign { .. } => {}
        }
    }
}

fn touches(stmts: &[Stmt], needed: &BTreeSet<Sym>) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Assign {
            lhs: LValue::Scalar(v),
            ..
        } => needed.contains(v),
        Stmt::Read { targets } => targets.iter().any(|t| needed.contains(t)),
        other => other.child_blocks().iter().any(|b| touches(b, needed)),
    })
}

fn filter_stmts(stmts: &[Stmt], needed: &BTreeSet<Sym>) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::Assign {
                lhs: LValue::Scalar(v),
                ..
            } if needed.contains(v) => out.push(s.clone()),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let t = filter_stmts(then_body, needed);
                let e = filter_stmts(else_body, needed);
                if !t.is_empty() || !e.is_empty() {
                    out.push(Stmt::If {
                        cond: cond.clone(),
                        then_body: t,
                        else_body: e,
                    });
                }
            }
            Stmt::Do {
                label,
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let b = filter_stmts(body, needed);
                if !b.is_empty() {
                    out.push(Stmt::Do {
                        label: label.clone(),
                        var: *var,
                        lo: lo.clone(),
                        hi: hi.clone(),
                        step: step.clone(),
                        body: b,
                    });
                }
            }
            Stmt::While { label, cond, body } => {
                let b = filter_stmts(body, needed);
                if !b.is_empty() {
                    out.push(Stmt::While {
                        label: label.clone(),
                        cond: cond.clone(),
                        body: b,
                    });
                }
            }
            Stmt::Read { targets } if targets.iter().any(|t| needed.contains(t)) => {
                out.push(s.clone())
            }
            _ => {}
        }
    }
    out
}

fn expr_syms(e: &lip_ir::Expr) -> BTreeSet<Sym> {
    use lip_ir::Expr;
    let mut out = BTreeSet::new();
    fn walk(e: &Expr, out: &mut BTreeSet<Sym>) {
        match e {
            Expr::Int(_) | Expr::Real(_) => {}
            Expr::Var(s) => {
                out.insert(*s);
            }
            Expr::Elem(a, idx) => {
                out.insert(*a);
                for i in idx {
                    walk(i, out);
                }
            }
            Expr::Bin(_, a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::Un(_, a) => walk(a, out),
            Expr::Intrin(_, args) => {
                for a in args {
                    walk(a, out);
                }
            }
        }
    }
    walk(e, &mut out);
    out
}

/// The slice driver: runs the CIV slice sequentially and records each
/// traced scalar's value at every iteration entry (plus the post-loop
/// value), a DO's indexed by its loop variable, a WHILE's by its trip
/// from 1; `niters_sym` (for while loops) receives the trip count. A
/// DO's slice is one VM activation at any step, recording through an
/// [`IterObserver`]; a WHILE's runs trip by trip, its condition
/// between them.
/// Returns the work units charged to `state` (the tests give it a step
/// budget). The slice — the dominant runtime-test cost for the
/// `track`-style while loops — is compiled once per program. It is a
/// runtime test, charged to `test_units`, so it runs with no tracer:
/// its reads are not the loop's. A DO's bounds are charged to it too,
/// but read from `shape`, the caller's evaluation of them (`None` for a
/// WHILE), so a run reads them once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn civ_traces(
    env: &ExecEnv<'_>,
    sub: &Subroutine,
    target: &Stmt,
    shape: Option<&DoShape>,
    civs: &[(Sym, Sym)],
    frame: &mut Store,
    niters_sym: Option<Sym>,
    mut state: ExecState,
) -> Result<u64, RunError> {
    let state = &mut state;
    if let Some(shape) = shape {
        state.charge(shape.units)?;
    }
    let targets: BTreeSet<Sym> = civs.iter().map(|(s, _)| *s).collect();
    let mut extra: Vec<Sym> = civs.iter().map(|(s, _)| *s).collect();
    let traces = civs.iter().map(|(s, t)| (*s, *t, Vec::new())).collect();
    let mut seen = Entries {
        slots: Vec::new(),
        traces,
    };
    let civ_slots = |cb: &CompiledBody| {
        let slot = |s: Sym| cb.chunk().scalar_slot(s).expect("interned");
        civs.iter().map(|(s, _)| slot(*s)).collect()
    };
    // A runtime test: its reads are not the loop's.
    let tracer: Option<&dyn AccessTracer> = None;
    match (shape.copied(), target) {
        (Some(shape), _) => {
            extra.push(shape.var);
            let slice = extract_slice(do_body(target), &targets);
            let cb = env.body(sub, &slice, &[], &extra)?;
            let range = shape.range(cb.chunk().scalar_slot(shape.var).expect("interned"));
            seen.slots = civ_slots(&cb);
            let mut f = cb.frame(frame);
            // Element `i` is the value on entry to iteration `i`, as
            // the analysis' `s@trace(i)` and the chunks' seeding read
            // it: the first `lo - 1` elements pad with the entry value.
            if shape.traces_by_var() {
                (1..shape.lo).for_each(|_| seen.push(|s| f.scalar(s)));
            }
            cb.run(env, &mut f, range, state, tracer, &mut seen)?;
            // Post-loop entry (trace(hi+1)).
            seen.push(|s| f.scalar(s));
        }
        (None, Stmt::While { cond, body, .. }) => {
            let slice = extract_slice(body, &targets);
            let cb = env.body(sub, &slice, &[cond], &extra)?;
            seen.slots = civ_slots(&cb);
            let mut f = cb.frame(frame);
            let vm = cb.vm(env);
            let mut n: i64 = 0;
            loop {
                let c = vm.eval_block_expr(cb.block, 0, &mut f, state, tracer)?;
                seen.push(|s| f.scalar(s));
                if !c.truthy() {
                    break;
                }
                n += 1;
                cb.run_once(env, &mut f, state, tracer)?;
                if n as u64 > crate::exec::TEST_BUDGET {
                    return Err(RunError::StepLimit);
                }
            }
            if let Some(ns) = niters_sym {
                frame.set_scalar(ns, Value::Int(n));
            }
        }
        // Non-loop targets still bind (empty) trace arrays.
        _ => {}
    }
    bind_traces(sub, frame, seen.traces);
    Ok(state.cost)
}

/// The traces a slice records: each traced scalar's slot, and per
/// scalar, its values on entry to each iteration so far.
struct Entries {
    slots: Vec<u16>,
    traces: Vec<(Sym, Sym, Vec<Value>)>,
}

impl Entries {
    /// Records each traced scalar's value as `read` gives it (an
    /// unbound one as 0).
    fn push(&mut self, read: impl Fn(u16) -> Option<Value>) {
        for (slot, (_, _, vals)) in self.slots.iter().zip(&mut self.traces) {
            vals.push(read(*slot).unwrap_or(Value::Int(0)));
        }
    }
}

/// A DO slice records on entry to each iteration, from the activation
/// that runs them all.
impl IterObserver for Entries {
    fn enter(&mut self, _: i64, _: u64, scalars: Scalars<'_>) -> bool {
        self.push(|s| scalars.get(s));
        true
    }
}

/// Binds each trace as a 1-D array of its scalar's declared type: a
/// `REAL` carried from one iteration into the next seeds a chunk with
/// its value, not with that value truncated.
fn bind_traces(sub: &Subroutine, frame: &mut Store, traces: Vec<(Sym, Sym, Vec<Value>)>) {
    for (civ, trace, vals) in traces {
        let buf = match sub.ty_of(civ) {
            Ty::Int => ArrayBuf::from_i64(&vals.iter().map(|v| v.as_i64()).collect::<Vec<_>>()),
            Ty::Real => ArrayBuf::from_f64(&vals.iter().map(|v| v.as_f64()).collect::<Vec<_>>()),
        };
        frame.bind_array(
            trace,
            lip_ir::ArrayView {
                buf,
                offset: 0,
                // Trace views are 1-D, assumed-size.
                extents: vec![i64::MAX],
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_ir::{parse_program, Machine};
    use lip_symbolic::sym;

    #[test]
    fn slice_keeps_only_needed_statements() {
        let prog = parse_program(
            "
SUBROUTINE t(A, C, N)
  DIMENSION A(*)
  INTEGER C(*)
  INTEGER i, civ, N
  DO l1 i = 1, N
    IF (C(i) .GT. 0) THEN
      civ = civ + 1
      A(civ) = 1.0
    ENDIF
  ENDDO
END
",
        )
        .expect("parses");
        let sub = prog.units[0].clone();
        let Stmt::Do { body, .. } = sub.find_loop("l1").expect("loop") else {
            panic!()
        };
        let targets: BTreeSet<Sym> = [sym("civ")].into_iter().collect();
        let slice = extract_slice(body, &targets);
        // The IF survives (its branch assigns civ) but the array write
        // is gone.
        assert_eq!(slice.len(), 1);
        let Stmt::If { then_body, .. } = &slice[0] else {
            panic!("expected IF, got {slice:?}")
        };
        assert_eq!(then_body.len(), 1);
    }

    #[test]
    fn traces_record_iteration_entries() {
        let prog = parse_program(
            "
SUBROUTINE t(A, C, N)
  DIMENSION A(*)
  INTEGER C(*)
  INTEGER i, civ, N
  civ = 0
  DO l1 i = 1, N
    IF (C(i) .GT. 0) THEN
      civ = civ + 1
      A(civ) = 1.0
    ENDIF
  ENDDO
END
",
        )
        .expect("parses");
        let sub = prog.units[0].clone();
        let machine = Machine::new(prog.clone());
        let target = sub.find_loop("l1").expect("loop").clone();
        let mut frame = Store::new();
        frame.set_int(sym("N"), 5).set_int(sym("civ"), 0);
        frame.alloc_real(sym("A"), 16);
        let c = frame.alloc_int(sym("C"), 5);
        for (i, v) in [1, 0, 1, 1, 0].iter().enumerate() {
            c.set(i, Value::Int(*v));
        }
        let civs = vec![(sym("civ"), sym("civ@tr"))];
        let cost = crate::session::Session::default()
            .civ_traces(&machine, &sub, &target, &civs, &mut frame, None)
            .expect("slice runs");
        assert!(cost > 0);
        let tr = frame.array(sym("civ@tr")).expect("trace bound");
        // Entry values: 0,1,1,2,3 then post-loop 3.
        let got: Vec<i64> = (0..6).map(|k| tr.get_i64(k)).collect();
        assert_eq!(got, vec![0, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn while_trip_count_is_bound() {
        let prog = parse_program(
            "
SUBROUTINE t(N)
  INTEGER k, N
  k = 1
  DO w1 WHILE (k .LT. N)
    k = k + 2
  ENDDO
END
",
        )
        .expect("parses");
        let sub = prog.units[0].clone();
        let machine = Machine::new(prog.clone());
        let target = sub.find_loop("w1").expect("loop").clone();
        let mut frame = Store::new();
        frame.set_int(sym("N"), 10).set_int(sym("k"), 1);
        let civs = vec![(sym("k"), sym("k@tr"))];
        crate::session::Session::default()
            .civ_traces(
                &machine,
                &sub,
                &target,
                &civs,
                &mut frame,
                Some(sym("w1@niters")),
            )
            .expect("slice runs");
        assert_eq!(frame.scalar(sym("w1@niters")).map(Value::as_i64), Some(5));
        let tr = frame.array(sym("k@tr")).expect("trace");
        assert_eq!(tr.get_i64(0), 1);
        assert_eq!(tr.get_i64(4), 9);
    }

    /// The CIV slice of `DO l1 i = LO, HI, <step>` with `HI` given,
    /// under a step budget, as `LO` varies: the result and the frame.
    fn slice_to(step: i64, hi: i64) -> impl Fn(i64) -> (Result<u64, RunError>, Store) {
        let prog = parse_program(&format!(
            "
SUBROUTINE t(LO, HI)
  INTEGER i, civ, LO, HI
  DO l1 i = LO, HI, {step}
    civ = civ + 1
  ENDDO
END
"
        ))
        .expect("parses");
        let sub = prog.units[0].clone();
        let machine = Machine::new(prog.clone());
        let target = sub.find_loop("l1").expect("loop").clone();
        let civs = vec![(sym("civ"), sym("civ@tr"))];
        let cache = crate::backend::test_cache();
        move |lo: i64| {
            let env = ExecEnv {
                machine: &machine,
                cache: &cache,
            };
            let mut frame = Store::new();
            frame.set_int(sym("LO"), lo).set_int(sym("HI"), hi);
            frame.set_int(sym("civ"), 0);
            let mut state = ExecState::with_budget(10_000);
            let shape = env
                .do_shape(&sub, &target, &frame, &mut state)
                .expect("bounds");
            let shape = shape.as_ref();
            let r = civ_traces(&env, &sub, &target, shape, &civs, &mut frame, None, state);
            (r, frame)
        }
    }

    /// A DO slice whose upper bound is `i64::MAX` used to step its
    /// counter past the end (`while i <= hi { …; i += 1 }`): a debug
    /// panic, a wrapped endless loop in release. Under a step budget so
    /// a regression ends in `StepLimit`, not a hang.
    #[test]
    fn do_slice_ending_at_i64_max_terminates() {
        let run = slice_to(1, i64::MAX);
        // The last three iterations of the i64 range, then done.
        let (r, frame) = run(i64::MAX - 2);
        assert!(r.is_ok(), "{r:?}");
        let tr = frame.array(sym("civ@tr")).expect("trace bound");
        assert_eq!(tr.buf.len(), 4, "three entries + post-loop");
        assert_eq!(tr.get_i64(3), 3);
        // The whole positive range: the budget ends it.
        assert_eq!(run(1).0, Err(RunError::StepLimit));
    }

    /// The stepped twin: a slice counting down to `i64::MIN` by 2 is one
    /// activation that ends there, its trace the three entries in order
    /// and the post-loop value; the whole negative range hits the budget.
    #[test]
    fn do_slice_counting_down_to_i64_min_terminates() {
        let run = slice_to(-2, i64::MIN);
        let (r, frame) = run(i64::MIN + 4);
        assert!(r.is_ok(), "{r:?}");
        let tr = frame.array(sym("civ@tr")).expect("trace bound");
        let got: Vec<i64> = (0..tr.buf.len()).map(|k| tr.get_i64(k)).collect();
        assert_eq!(got, [0, 1, 2, 3], "three entries + post-loop");
        assert_eq!(run(-1).0, Err(RunError::StepLimit));
    }
}
