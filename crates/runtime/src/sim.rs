//! The deterministic cost-model simulator.
//!
//! The paper's evaluation machines (quad-core Xeon, 8×dual-core POWER5)
//! are unavailable; per DESIGN.md, timing figures are regenerated on a
//! *virtual* `P`-processor machine over the interpreter's deterministic
//! work units: sequential time is the summed unit cost, parallel time is
//! the makespan of the block schedule plus a per-region spawn overhead,
//! and runtime tests charge their own units (and/or-reduced across
//! processors, as the paper's generated code evaluates O(N) predicates
//! in parallel). This preserves exactly the *shape* claims the paper
//! makes — speedups, scalability, overhead percentages, and the
//! granularity-induced slowdowns of tiny loops.
//!
//! The model is three pieces a caller composes with its own spawn
//! overhead, as `lip_suite`'s `LoopMeasurement::par_units` does:
//! [`crate::LoopHandle::per_iteration_costs`], [`makespan`] and
//! [`charged_test_units`].

use lip_ir::{ExecState, RunError, Stmt, Store, Subroutine};
use lip_vm::{IterObserver, Scalars};

use crate::backend::{do_body, exec_stmt_seq, ExecEnv};
use crate::pool::chunk_bounds;

/// Runtime-test units charged on the critical path: small (O(1)-ish)
/// tests run inline; larger ones are and/or-reduced across processors
/// at the price of one extra spawn. This is the single charging rule
/// (the suite harness applies it), and it mirrors what the `lip_pred`
/// engine actually does at runtime — quantified O(N) stages fork across
/// the pool only past a trip-count threshold (`LIP_PRED_PAR_MIN`),
/// never for tests too small to amortize the fork.
pub fn charged_test_units(test_units: u64, procs: usize, spawn: u64) -> u64 {
    if test_units == 0 {
        0
    } else if test_units <= 4 * spawn {
        test_units
    } else {
        test_units / procs.max(1) as u64 + spawn
    }
}

/// The measurement driver behind
/// [`crate::LoopHandle::per_iteration_costs`] (this is where the
/// measurement harness spends most of its wall-clock), charging
/// `state` (the tests give it a step budget). A DO is one activation,
/// its iterations' costs read off where each started ([`Starts`]); a
/// WHILE runs trip by trip, its condition between them.
pub(crate) fn per_iteration_costs(
    env: &ExecEnv<'_>,
    sub: &Subroutine,
    target: &Stmt,
    frame: &mut Store,
    mut state: ExecState,
) -> Result<Vec<u64>, RunError> {
    let state = &mut state;
    let costs = match (env.do_shape(sub, target, frame, state)?, target) {
        (Some(shape), _) => {
            let cb = env.body(sub, do_body(target), &[], &[shape.var])?;
            let range = shape.range(cb.chunk().scalar_slot(shape.var).expect("interned"));
            let (mut f, mut starts) = (cb.frame(frame), Starts(Vec::new()));
            cb.run(env, &mut f, range, state, env.tracer(), &mut starts)?;
            // The driver mutates `frame` so program state stays
            // correct for whatever follows.
            f.writeback_scalars(cb.chunk(), frame);
            // An iteration costs what was charged from its start to the
            // next one's, the last one's to the end of the activation.
            starts.0.push(state.cost);
            starts.0.windows(2).map(|w| w[1] - w[0]).collect()
        }
        (None, Stmt::While { cond, body, .. }) => {
            let cb = env.body(sub, body, &[cond], &[])?;
            let vm = cb.vm(env);
            let mut f = cb.frame(frame);
            let mut costs = Vec::new();
            loop {
                let c = vm.eval_block_expr(cb.block, 0, &mut f, state, env.tracer())?;
                if !c.truthy() {
                    break;
                }
                let before = state.cost;
                cb.run_once(env, &mut f, state, env.tracer())?;
                costs.push(state.cost - before);
                if costs.len() as u64 > crate::exec::TEST_BUDGET {
                    return Err(RunError::StepLimit);
                }
            }
            f.writeback_scalars(cb.chunk(), frame);
            costs
        }
        (None, other) => {
            let before = state.cost;
            exec_stmt_seq(env, sub, other, frame, state)?;
            vec![state.cost - before]
        }
    };
    Ok(costs)
}

/// The units charged when each iteration of a measured DO started.
struct Starts(Vec<u64>);

impl IterObserver for Starts {
    fn enter(&mut self, _: i64, units: u64, _: Scalars<'_>) -> bool {
        self.0.push(units);
        true
    }
}

/// Block-scheduled makespan of the per-iteration costs on `procs`
/// processors (same chunking as the real executor).
pub fn makespan(per_iter: &[u64], procs: usize) -> u64 {
    if per_iter.is_empty() {
        return 0;
    }
    let n = per_iter.len() as i64;
    chunk_bounds(procs, 1, n)
        .into_iter()
        .map(|(lo, hi)| {
            per_iter[(lo - 1) as usize..=(hi - 1) as usize]
                .iter()
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use lip_ir::{parse_program, Machine, Value};
    use lip_symbolic::sym;

    #[test]
    fn makespan_balances_uniform_work() {
        let costs = vec![10u64; 100];
        assert_eq!(makespan(&costs, 4), 250);
        assert_eq!(makespan(&costs, 1), 1000);
        // One fat iteration dominates.
        let mut skewed = vec![1u64; 99];
        skewed.push(1000);
        assert!(makespan(&skewed, 4) >= 1000);
    }

    /// Sequential units over `makespan + spawn` on four processors for
    /// `A(i) = <rhs>`, `i = 1..n` — the formula
    /// `lip_suite::LoopMeasurement::par_units` applies.
    fn speedup_on_4(rhs: &str, n: usize, spawn: u64) -> f64 {
        let prog = parse_program(&format!(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = 1, N
    A(i) = {rhs}
  ENDDO
END
"
        ))
        .expect("parses");
        let lp = Session::default()
            .load(prog)
            .prepare(sym("t"), "l1")
            .expect("loop");
        let mut frame = Store::new();
        frame.set_int(sym("N"), n as i64);
        frame.alloc_real(sym("A"), n);
        let per_iter = lp.per_iteration_costs(&mut frame).expect("measures");
        assert_eq!(per_iter.len(), n);
        per_iter.iter().sum::<u64>() as f64 / (makespan(&per_iter, 4) + spawn) as f64
    }

    #[test]
    fn simulation_produces_speedup_for_big_loops() {
        let s = speedup_on_4("A(i) * 1.5 + 2.0", 20_000, 1_000);
        assert!(s > 3.0 && s <= 4.0, "speedup {s}");
    }

    #[test]
    fn tiny_loops_slow_down() {
        // The flo52/ocean effect: granularity too small to amortize the
        // spawn overhead.
        let s = speedup_on_4("1.0", 16, 4_000);
        assert!(s < 1.0, "speedup {s}");
    }

    /// `per_iteration_costs` over `DO l1 i = LO, HI, <step>` with `HI`
    /// given, under a budget: each iteration's cost and where `i` ends,
    /// as `LO` varies.
    fn measure_to(
        step: i64,
        hi: i64,
    ) -> impl Fn(i64) -> Result<(Vec<u64>, Option<Value>), RunError> {
        let prog = parse_program(&format!(
            "
SUBROUTINE t(LO, HI)
  INTEGER i, s, LO, HI
  DO l1 i = LO, HI, {step}
    s = s + 1
  ENDDO
END
"
        ))
        .expect("parses");
        let sub = prog.units[0].clone();
        let target = sub.find_loop("l1").expect("loop").clone();
        let machine = Machine::new(prog);
        let cache = crate::backend::test_cache();
        move |lo: i64| {
            let env = ExecEnv {
                machine: &machine,
                cache: &cache,
            };
            let mut frame = Store::new();
            frame.set_int(sym("LO"), lo).set_int(sym("HI"), hi);
            frame.set_int(sym("s"), 0);
            let state = ExecState::with_budget(10_000);
            per_iteration_costs(&env, &sub, &target, &mut frame, state)
                .map(|costs| (costs, frame.scalar(sym("i"))))
        }
    }

    /// `per_iteration_costs` over a DO ending at `i64::MAX` (see the
    /// twin test in `civ.rs`): three iterations and out, and the whole
    /// positive range ends in `StepLimit` under a budget.
    #[test]
    fn do_loop_ending_at_i64_max_terminates() {
        let run = measure_to(1, i64::MAX);
        let (costs, i) = run(i64::MAX - 2).expect("three iterations");
        assert_eq!((costs.len(), i), (3, Some(Value::Int(i64::MAX))));
        assert_eq!(run(1), Err(RunError::StepLimit));
    }

    /// The stepped twin: a DO counting down to `i64::MIN` by 2 measures
    /// its three last iterations, each at the same cost, and the whole
    /// negative range ends in `StepLimit`.
    #[test]
    fn do_loop_counting_down_to_i64_min_terminates() {
        let run = measure_to(-2, i64::MIN);
        let (costs, i) = run(i64::MIN + 4).expect("three iterations");
        assert_eq!((costs.len(), i), (3, Some(Value::Int(i64::MIN))));
        assert!(costs.iter().all(|c| *c == costs[0] && *c > 0), "{costs:?}");
        assert_eq!(run(-1), Err(RunError::StepLimit));
    }

    /// A DO written with a step is measured over the iterations the
    /// interpreter runs.
    #[test]
    fn a_stepped_do_is_measured_over_its_own_iterations() {
        let prog = parse_program(
            "
SUBROUTINE t(A, N)
  DIMENSION A(*)
  INTEGER i, N
  DO l1 i = N, 1, -2
    A(i) = 1.0
  ENDDO
END
",
        )
        .expect("parses");
        let lp = Session::default()
            .load(prog)
            .prepare(sym("t"), "l1")
            .expect("loop");
        let mut frame = Store::new();
        frame.set_int(sym("N"), 9);
        frame.alloc_real(sym("A"), 9);
        let costs = lp.per_iteration_costs(&mut frame).expect("measures");
        assert_eq!(costs.len(), 5, "i = 9, 7, 5, 3, 1");
        assert_eq!(frame.scalar(sym("i")), Some(Value::Int(1)));
    }
}
