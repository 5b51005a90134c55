//! A loaded program and its prepared loops: what the paper's runtime
//! (§5) resolves once per loop — summaries, factorized cascade,
//! compiled tests — so that an invocation pays only the test and the
//! execution. A [`LoopHandle`]'s methods take only what changes between
//! invocations: the `Store`.

use std::rc::Rc;
use std::sync::Arc;

use lip_analysis::{analyze_loop, AnalysisConfig, LoopAnalysis};
use lip_ir::{ExecState, Machine, Program, RunError, Stmt, Store, Subroutine};
use lip_pred::EngineStats;
use lip_symbolic::Sym;

use crate::backend::ExecEnv;
use crate::cache::ProgramCache;
use crate::exec::RunStats;
use crate::plan::Plan;
use crate::Session;

impl Session {
    /// Loads `prog` with a compile / predicate cache of its own (no
    /// registry: it lives and dies with the [`Loaded`] handles).
    pub fn load(&self, prog: Program) -> Loaded {
        Loaded(Arc::new(LoadedProgram {
            machine: Machine::new(prog),
            cache: ProgramCache::new(self.config(), self.obs().clone()),
            analysis: self.analysis_config(),
        }))
    }
}

/// A program loaded into a [`Session`]; clones share the cache.
#[derive(Clone)]
pub struct Loaded(Arc<LoadedProgram>);

struct LoadedProgram {
    /// No READ inputs, no tracer: what the drivers compile, and the
    /// evaluator of single bound expressions.
    machine: Machine,
    cache: ProgramCache,
    analysis: AnalysisConfig,
}

impl Loaded {
    /// The loaded program.
    pub fn program(&self) -> &Program {
        self.0.machine.program()
    }

    /// Loop `label` of subroutine `sub`, analyzed under the session's
    /// configuration; `None` when there is no such loop.
    pub fn prepare(&self, sub: Sym, label: &str) -> Option<LoopHandle> {
        let analysis = analyze_loop(self.program(), sub, label, &self.0.analysis)?;
        self.prepare_analyzed(sub, label, Rc::new(analysis))
    }

    /// [`Loaded::prepare`] with an analysis the caller holds: this
    /// loop's, or one with the same analysis inputs (`lip_serve` keeps
    /// them by loop fingerprint, so a whitespace edit reuses one).
    pub fn prepare_analyzed(
        &self,
        sub: Sym,
        label: &str,
        analysis: Rc<LoopAnalysis>,
    ) -> Option<LoopHandle> {
        let units = &self.program().units;
        let sub = units.iter().position(|u| u.name == sub)?;
        let path = loop_path(&units[sub].body, label)?;
        Some(LoopHandle {
            loaded: self.clone(),
            sub,
            path,
            analysis,
        })
    }

    /// The predicate engine's counters (compilations, memo traffic).
    pub fn pred_stats(&self) -> EngineStats {
        self.0.cache.pred.stats()
    }

    fn env(&self) -> ExecEnv<'_> {
        ExecEnv {
            machine: &self.0.machine,
            cache: &self.0.cache,
        }
    }
}

/// One loop of a [`Loaded`] program, resolved and analyzed. It keeps
/// the program (and so the cache) alive and names the subroutine and
/// the loop by index, never by copy. The methods that run code fail
/// only with the VM's [`RunError`]s, [`RunError::Unsupported`] for a
/// program beyond its limits included.
pub struct LoopHandle {
    loaded: Loaded,
    sub: usize,
    /// The loop's index in each enclosing block (an IF's two branches
    /// count as one block, THEN first).
    path: Box<[usize]>,
    analysis: Rc<LoopAnalysis>,
}

impl LoopHandle {
    /// The program the loop is in.
    pub fn program(&self) -> &Program {
        self.loaded.program()
    }

    /// The subroutine the loop is in.
    pub fn sub(&self) -> &Subroutine {
        &self.loaded.program().units[self.sub]
    }

    /// The loop statement.
    pub fn target(&self) -> &Stmt {
        stmt_at(&self.sub().body, &self.path)
    }

    /// The loop's analysis.
    pub fn analysis(&self) -> &LoopAnalysis {
        &self.analysis
    }

    /// Runs the loop on `frame`: its [`LoopHandle::plan`], then
    /// parallel, speculative, distributed or sequential execution
    /// (paper §5).
    pub fn run(&self, frame: &mut Store) -> Result<RunStats, RunError> {
        let env = self.loaded.env();
        crate::exec::run_loop_impl(&env, self.sub(), self.target(), self.analysis(), frame)
    }

    /// How a run on `frame` would execute: the evaluated shape, the
    /// route (for a sequential one, its reason), each array's treatment
    /// and the test units by component. Planning runs what a run's
    /// decision runs — the CIV slice, which binds its traces (and a
    /// WHILE's trip count) into `frame`, and the tests — and executes
    /// nothing; a fissioned route's fragments are planned as a run
    /// reaches them, so here there are none.
    pub fn plan(&self, frame: &mut Store) -> Result<Plan, RunError> {
        let env = self.loaded.env();
        crate::plan::plan(&env, self.sub(), self.target(), self.analysis(), frame).map(|(p, _)| p)
    }

    /// Runs the loop once sequentially on `frame` and returns the work
    /// units of each iteration — the makespans' raw material.
    pub fn per_iteration_costs(&self, frame: &mut Store) -> Result<Vec<u64>, RunError> {
        let (env, state) = (self.loaded.env(), ExecState::default());
        crate::sim::per_iteration_costs(&env, self.sub(), self.target(), frame, state)
    }
}

/// The statement path of the loop `Subroutine::find_loop` finds.
fn loop_path(body: &[Stmt], label: &str) -> Option<Box<[usize]>> {
    fn walk<'a>(stmts: impl Iterator<Item = &'a Stmt>, label: &str, path: &mut Vec<usize>) -> bool {
        stmts.enumerate().any(|(k, s)| {
            path.push(k);
            let found = matches!(s, Stmt::Do { label: Some(l), .. }
                    | Stmt::While { label: Some(l), .. } if l == label)
                || walk(s.child_blocks().into_iter().flatten(), label, path);
            if !found {
                path.pop();
            }
            found
        })
    }
    let mut path = Vec::new();
    walk(body.iter(), label, &mut path).then(|| path.into())
}

fn stmt_at<'a>(body: &'a [Stmt], path: &[usize]) -> &'a Stmt {
    path[1..].iter().fold(&body[path[0]], |s, &k| {
        let child = s.child_blocks().into_iter().flatten().nth(k);
        child.expect("a path into this body")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use lip_ir::parse_program;
    use lip_obs::ObsLevel;
    use lip_symbolic::sym;

    const TWO_LOOPS: &str = "
SUBROUTINE t(A, B, N, M)
  DIMENSION A(*), B(*)
  INTEGER i, j, N, M
  IF (N .GT. 0) THEN
    A(1) = 0.0
  ELSE
    DO j = 1, N
      DO inner i = 1, N
        B(i) = 1.0
      ENDDO
    ENDDO
  ENDIF
  DO l1 i = 1, N
    A(i) = A(i + M) + 1.0
  ENDDO
  DO l2 i = 1, N
    B(i) = B(i + M) * 2.0
  ENDDO
END
";

    fn frame(n: i64) -> Store {
        let mut frame = Store::new();
        frame.set_int(sym("N"), n).set_int(sym("M"), n);
        frame.alloc_real(sym("A"), 2 * n as usize);
        frame.alloc_real(sym("B"), 2 * n as usize);
        frame
    }

    #[test]
    fn a_handle_resolves_the_loop_find_loop_finds() {
        let prog = parse_program(TWO_LOOPS).expect("parses");
        let loaded = Session::default().load(prog.clone());
        for label in ["inner", "l1", "l2"] {
            let h = loaded.prepare(sym("t"), label).expect("loop");
            assert_eq!(h.target(), prog.units[0].find_loop(label).expect("loop"));
            assert_eq!(h.sub().name, sym("t"));
            assert_eq!(h.analysis().label, label);
        }
        assert!(loaded.prepare(sym("t"), "nolabel").is_none());
        assert!(loaded.prepare(sym("nosub"), "l1").is_none());
    }

    /// Two handles of one program share its block cache and verdict
    /// memo: the program compiles once, and a predicate two loops
    /// share compiles once.
    #[test]
    fn handles_of_one_program_share_its_caches() {
        let session = Session::builder()
            .nthreads(2)
            .observer(ObsLevel::Metrics)
            .build();
        let loaded = session.load(parse_program(TWO_LOOPS).expect("parses"));
        let (l1, l2) = (
            loaded.prepare(sym("t"), "l1").expect("l1"),
            loaded.prepare(sym("t"), "l1").expect("l1 again"),
        );
        let other = loaded.prepare(sym("t"), "l2").expect("l2");
        let count = |name| session.metrics().counter(name).unwrap_or(0);
        l1.run(&mut frame(64)).expect("runs");
        let compiled = (count("vm.block_compiles"), loaded.pred_stats().compiles);
        assert_eq!(compiled.0, 1);
        assert!(compiled.1 > 0);
        l2.run(&mut frame(64)).expect("runs");
        assert_eq!(
            (count("vm.block_compiles"), loaded.pred_stats().compiles),
            compiled,
            "the second handle of one loop compiles nothing"
        );
        assert_eq!(count("vm.program_compiles"), 1);
        assert!(loaded.pred_stats().memo_hits > 0);
        // Another loop of the same program: its own block, same program.
        other.run(&mut frame(64)).expect("runs");
        assert_eq!(count("vm.block_compiles"), 2);
        assert_eq!(count("vm.program_compiles"), 1);
    }

    /// Carries `sessions_own_disjoint_caches_clones_share_within_one`
    /// over to the handle path: clones of a `Loaded` share one cache,
    /// two loads never do, two sessions never do.
    #[test]
    fn handles_from_two_sessions_never_share_a_cache() {
        let prog = parse_program(TWO_LOOPS).expect("parses");
        let (s1, s2) = (Session::default(), Session::default());
        let a = s1.load(prog.clone());
        let b = s2.load(prog.clone());
        let again = s1.load(prog);
        let run = |loaded: &Loaded| {
            let h = loaded.prepare(sym("t"), "l1").expect("l1");
            h.run(&mut frame(16)).expect("runs");
            loaded.pred_stats()
        };
        let first = run(&a);
        assert!(first.compiles > 0);
        assert_eq!(run(&a.clone()).compiles, first.compiles, "clones share");
        assert!(Arc::ptr_eq(&a.0, &a.clone().0));
        assert_eq!(b.pred_stats().compiles, 0, "another session starts cold");
        assert_eq!(again.pred_stats().compiles, 0, "another load starts cold");
        assert_eq!(run(&b).compiles, first.compiles);
    }

    #[test]
    fn dropping_a_loaded_frees_its_cache() {
        let loaded = Session::default().load(parse_program(TWO_LOOPS).expect("parses"));
        let h1 = loaded.prepare(sym("t"), "l1").expect("l1");
        let h2 = loaded.prepare(sym("t"), "l2").expect("l2");
        h1.run(&mut frame(8)).expect("runs");
        let weak = Arc::downgrade(&loaded.0);
        drop(loaded);
        assert!(weak.upgrade().is_some(), "a handle keeps its program");
        drop((h1, h2));
        assert!(weak.upgrade().is_none(), "the last handle frees the cache");
    }

    #[test]
    fn loaded_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Loaded>();
    }
}
