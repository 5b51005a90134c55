//! Property: on randomly generated predicates and the cascades built
//! from them, compiled evaluation — sequential and chunk-parallel with
//! an aggressive fork threshold — agrees with `Pdag::eval` on every
//! stage verdict (tri-state, including budget exhaustion) and the
//! engine's `first_success` agrees with `Cascade::first_success` on
//! both the chosen stage and the charged work units.
//!
//! Predicates are built from a seeded splitmix64 stream: comparison /
//! divisibility leaves over random polynomials (scalars, array
//! elements with symbolic subscripts, min/max atoms), n-ary ∧/∨ and
//! nested `ForAll` quantifiers; contexts randomly omit bindings so the
//! unknown paths are exercised as heavily as the decidable ones.

use lip_core::{build_cascade, Pdag};
use lip_pred::{compile_pred, eval_compiled, EvalParams, PredEngine};
use lip_symbolic::{sym, BoolExpr, MapCtx, RangeEnv, Sym, SymExpr};
use proptest::prelude::*;

struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

fn scalars() -> [Sym; 3] {
    [sym("Ng"), sym("Mg"), sym("Kg")]
}

fn arrays() -> [Sym; 2] {
    [sym("BB"), sym("CC")]
}

/// A random polynomial over the scalar pool, the bound variables in
/// scope, array elements and min/max atoms.
fn gen_expr(g: &mut Gen, bound: &[Sym], depth: u32) -> SymExpr {
    let mut e = SymExpr::konst(g.range(-6, 6));
    let terms = 1 + g.below(3);
    for _ in 0..terms {
        let atom = match g.below(if depth == 0 { 2 } else { 4 }) {
            0 => SymExpr::var(scalars()[g.below(3) as usize]),
            1 => {
                if bound.is_empty() {
                    SymExpr::var(scalars()[g.below(3) as usize])
                } else {
                    SymExpr::var(bound[g.below(bound.len() as u64) as usize])
                }
            }
            2 => SymExpr::elem(
                arrays()[g.below(2) as usize],
                gen_expr(g, bound, depth.saturating_sub(1)),
            ),
            _ => {
                let a = gen_expr(g, bound, depth.saturating_sub(1));
                let b = gen_expr(g, bound, depth.saturating_sub(1));
                if g.below(2) == 0 {
                    SymExpr::min(a, b)
                } else {
                    SymExpr::max(a, b)
                }
            }
        };
        e = e + atom.scale(g.range(-4, 4));
    }
    e
}

fn gen_leaf(g: &mut Gen, bound: &[Sym], depth: u32) -> BoolExpr {
    let e = gen_expr(g, bound, depth);
    match g.below(6) {
        0 => BoolExpr::ge0(e),
        1 => BoolExpr::eq0(e),
        2 => BoolExpr::ne0(e),
        3 => BoolExpr::divides(g.range(2, 5), e),
        4 => {
            let f = gen_expr(g, bound, depth);
            BoolExpr::or(vec![BoolExpr::gt0(e), BoolExpr::gt0(f)])
        }
        _ => BoolExpr::gt0(e),
    }
}

fn gen_pdag(g: &mut Gen, bound: &mut Vec<Sym>, depth: u32) -> Pdag {
    let choice = if depth == 0 { g.below(2) } else { g.below(6) };
    match choice {
        0 | 1 => Pdag::leaf(gen_leaf(g, bound, depth.min(1))),
        2 | 3 => {
            let n = 2 + g.below(2);
            let parts = (0..n).map(|_| gen_pdag(g, bound, depth - 1)).collect();
            if choice == 2 {
                Pdag::and(parts)
            } else {
                Pdag::or(parts)
            }
        }
        _ => {
            let var = sym(&format!("qv{}", bound.len()));
            let lo = SymExpr::konst(g.range(-2, 2));
            let hi = if g.below(2) == 0 {
                SymExpr::konst(g.range(-1, 12))
            } else {
                SymExpr::var(scalars()[g.below(3) as usize])
            };
            bound.push(var);
            let body = gen_pdag(g, bound, depth - 1);
            bound.pop();
            Pdag::forall(var, lo, hi, body)
        }
    }
}

fn gen_ctx(g: &mut Gen) -> MapCtx {
    let mut ctx = MapCtx::new();
    for s in scalars() {
        // Occasionally unbound to exercise the unknown paths.
        if g.below(5) != 0 {
            ctx.set_scalar(s, g.range(-4, 14));
        }
    }
    for a in arrays() {
        if g.below(5) != 0 {
            let len = 1 + g.below(12) as usize;
            let data = (0..len).map(|_| g.range(-8, 8)).collect();
            ctx.set_array(a, 1, data);
        }
    }
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Stage-by-stage verdict parity on random cascades, across budget
    /// regimes and both evaluation modes.
    #[test]
    fn compiled_matches_treewalk_on_random_cascades(seed in 0u64..1_000_000) {
        let mut g = Gen::new(seed);
        let mut bound = Vec::new();
        let p = gen_pdag(&mut g, &mut bound, 3);
        let ctx = gen_ctx(&mut g);
        let cascade = build_cascade(&p, &RangeEnv::new());
        for limit in [3u64, 50, 100_000] {
            for stage in &cascade.stages {
                let tree = stage.pred.eval(&ctx, limit);
                let prog = compile_pred(&stage.pred).expect("compiles");
                let seq = eval_compiled(&prog, &ctx, limit,
                    EvalParams { nthreads: 1, par_min: 1024 });
                let par = eval_compiled(&prog, &ctx, limit,
                    EvalParams { nthreads: 3, par_min: 2 });
                prop_assert_eq!(tree, seq,
                    "seq diverged: {} (limit {})", stage.pred, limit);
                prop_assert_eq!(tree, par,
                    "par diverged: {} (limit {})", stage.pred, limit);
            }
        }
    }

    /// `PredEngine::first_success` parity: chosen stage and charged
    /// work units match the tree-walk reference.
    #[test]
    fn engine_first_success_matches_reference(seed in 0u64..1_000_000) {
        let mut g = Gen::new(seed.wrapping_mul(0x9E37_79B9));
        let mut bound = Vec::new();
        let p = gen_pdag(&mut g, &mut bound, 3);
        let ctx = gen_ctx(&mut g);
        let cascade = build_cascade(&p, &RangeEnv::new());
        let limit = 10_000u64;
        let reference = cascade.first_success(&ctx, limit);
        let ref_units: u64 = cascade
            .stages
            .iter()
            .take(reference.map_or(cascade.stages.len(), |i| i + 1))
            .map(|s| s.pred.eval_cost(&ctx))
            .sum();
        let engine = PredEngine::with_par_min(2);
        let (hit, units) = engine.first_success(&cascade, &ctx, limit, 3, &mut |_| None, None);
        prop_assert_eq!(hit, reference, "stage diverged");
        prop_assert_eq!(units, ref_units, "units diverged");
    }
}
