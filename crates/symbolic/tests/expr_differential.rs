//! The shared-slice algebra against the `BTreeMap` algebra it replaced.
//!
//! `tests/expr_oracle/` is the old `SymExpr`, verbatim. Random recipes —
//! constants, variables, nested `Elem` / `Min` / `Max` atoms, `+ − ·`,
//! `scale`, `neg`, `subst` — are built in both algebras, and everything
//! an analysis can observe must agree: the canonical form term by term,
//! the rendering byte for byte, `==` and `cmp` on every pair (canonical
//! order decides the child order of every `∧`/`∨` above, and through it
//! cascade stage order), every accessor, evaluation. On the new side the
//! representation invariants are checked on every value produced, and
//! two routes to the same value must meet in one `==` class with one
//! hash.

mod expr_oracle;

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use expr_oracle as old;
use lip_symbolic::{sym, Atom, BoolExpr, MapCtx, Sym, SymExpr};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

// Terms cross threads inside analysis configurations.
const _: fn() = || {
    fn s<T: Send + Sync>() {}
    s::<SymExpr>();
    s::<BoolExpr>();
};

const VARS: [&str; 3] = ["xd_i", "xd_j", "xd_N"];
const ARRAYS: [&str; 2] = ["xd_IA", "xd_IB"];

fn var(k: usize) -> Sym {
    sym(VARS[k % VARS.len()])
}

fn array(k: usize) -> Sym {
    sym(ARRAYS[k % ARRAYS.len()])
}

/// How to build one expression, in either algebra.
#[derive(Clone, Debug)]
enum Recipe {
    Konst(i64),
    Var(usize),
    Elem(usize, Box<Recipe>),
    Min(Box<Recipe>, Box<Recipe>),
    Max(Box<Recipe>, Box<Recipe>),
    Add(Box<Recipe>, Box<Recipe>),
    Sub(Box<Recipe>, Box<Recipe>),
    Mul(Box<Recipe>, Box<Recipe>),
    Scale(Box<Recipe>, i64),
    Neg(Box<Recipe>),
    Subst(Box<Recipe>, usize, Box<Recipe>),
}

impl Recipe {
    fn random(rng: &mut TestRng, depth: u32) -> Recipe {
        let small = |rng: &mut TestRng| rng.below(9) as i64 - 4;
        let pick = if depth == 0 {
            rng.below(2)
        } else {
            rng.below(14)
        };
        let sub = |rng: &mut TestRng| Box::new(Recipe::random(rng, depth - 1));
        match pick {
            0 => Recipe::Konst(small(rng)),
            1 | 2 => Recipe::Var(rng.below(3) as usize),
            3 => Recipe::Elem(rng.below(2) as usize, sub(rng)),
            4 => Recipe::Min(sub(rng), sub(rng)),
            5 => Recipe::Max(sub(rng), sub(rng)),
            6 | 7 => Recipe::Add(sub(rng), sub(rng)),
            8 | 9 => Recipe::Sub(sub(rng), sub(rng)),
            10 => Recipe::Mul(sub(rng), sub(rng)),
            11 => Recipe::Scale(sub(rng), small(rng)),
            12 => Recipe::Neg(sub(rng)),
            _ => Recipe::Subst(sub(rng), rng.below(3) as usize, sub(rng)),
        }
    }

    /// The same value by another route: commutative operands swapped,
    /// `a − b` as `−b + a`, `neg` as `scale(−1)`.
    fn rerouted(&self) -> Recipe {
        let r = |x: &Recipe| Box::new(x.rerouted());
        match self {
            Recipe::Konst(_) | Recipe::Var(_) => self.clone(),
            Recipe::Elem(a, e) => Recipe::Elem(*a, r(e)),
            Recipe::Min(a, b) => Recipe::Min(r(b), r(a)),
            Recipe::Max(a, b) => Recipe::Max(r(b), r(a)),
            Recipe::Add(a, b) => Recipe::Add(r(b), r(a)),
            Recipe::Sub(a, b) => Recipe::Add(Box::new(Recipe::Neg(r(b))), r(a)),
            Recipe::Mul(a, b) => Recipe::Mul(r(b), r(a)),
            Recipe::Scale(a, k) => Recipe::Mul(Box::new(Recipe::Konst(*k)), r(a)),
            Recipe::Neg(a) => Recipe::Scale(r(a), -1),
            Recipe::Subst(a, s, w) => Recipe::Subst(r(a), *s, r(w)),
        }
    }

    fn build(&self) -> SymExpr {
        match self {
            Recipe::Konst(c) => SymExpr::konst(*c),
            Recipe::Var(k) => SymExpr::var(var(*k)),
            Recipe::Elem(a, e) => SymExpr::elem(array(*a), e.build()),
            Recipe::Min(a, b) => SymExpr::min(a.build(), b.build()),
            Recipe::Max(a, b) => SymExpr::max(a.build(), b.build()),
            Recipe::Add(a, b) => &a.build() + &b.build(),
            Recipe::Sub(a, b) => &a.build() - &b.build(),
            Recipe::Mul(a, b) => &a.build() * &b.build(),
            Recipe::Scale(a, k) => a.build().scale(*k),
            Recipe::Neg(a) => -&a.build(),
            Recipe::Subst(a, s, w) => a.build().subst(var(*s), &w.build()),
        }
    }

    fn build_old(&self) -> old::SymExpr {
        match self {
            Recipe::Konst(c) => old::SymExpr::konst(*c),
            Recipe::Var(k) => old::SymExpr::var(var(*k)),
            Recipe::Elem(a, e) => old::SymExpr::elem(array(*a), e.build_old()),
            Recipe::Min(a, b) => old::SymExpr::min(a.build_old(), b.build_old()),
            Recipe::Max(a, b) => old::SymExpr::max(a.build_old(), b.build_old()),
            Recipe::Add(a, b) => &a.build_old() + &b.build_old(),
            Recipe::Sub(a, b) => &a.build_old() - &b.build_old(),
            Recipe::Mul(a, b) => &a.build_old() * &b.build_old(),
            Recipe::Scale(a, k) => a.build_old().scale(*k),
            Recipe::Neg(a) => -&a.build_old(),
            Recipe::Subst(a, s, w) => a.build_old().subst(var(*s), &w.build_old()),
        }
    }
}

/// Recipes of depth ≤ 4: coefficients stay far inside `i64`.
struct Recipes;

impl Strategy for Recipes {
    type Value = Recipe;
    fn generate(&self, rng: &mut TestRng) -> Recipe {
        let depth = 1 + rng.below(4) as u32;
        Recipe::random(rng, depth)
    }
}

/// Sorted strictly, nothing zero — all the way down.
fn assert_canonical(e: &SymExpr) {
    let mut last = None;
    for (m, c) in e.terms() {
        assert_ne!(c, 0, "explicit zero coefficient in {e}");
        assert!(last.is_none_or(|l| l < m), "terms out of order in {e}");
        last = Some(m);
        let mut last_atom = None;
        for (a, p) in m.atoms() {
            assert!(*p > 0, "zero exponent in {e}");
            assert!(
                last_atom.is_none_or(|l| l < a),
                "powers out of order in {e}"
            );
            last_atom = Some(a);
            match a {
                Atom::Var(_) => {}
                Atom::Elem(_, idx) => assert_canonical(idx),
                Atom::Min(x, y) | Atom::Max(x, y) => {
                    assert_canonical(x);
                    assert_canonical(y);
                    assert!(x <= y, "min/max operands out of order in {e}");
                }
            }
        }
    }
    assert_eq!(e.is_zero(), e.terms().next().is_none());
}

/// The same canonical form: every term, in order, and the text.
fn assert_same(new: &SymExpr, old: &old::SymExpr, what: &str) {
    assert_canonical(new);
    assert_eq!(new.to_string(), old.to_string(), "{what}");
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{what}");
    let (mut n, mut o) = (new.terms(), old.terms());
    loop {
        match (n.next(), o.next()) {
            (None, None) => break,
            (Some((mn, cn)), Some((mo, co))) => {
                assert_eq!(cn, co, "{what}: coefficient in {new}");
                assert_eq!(mn.to_string(), mo.to_string(), "{what}: monomial in {new}");
                assert_eq!(mn.is_one(), mo.is_one(), "{what}");
            }
            _ => panic!("{what}: {new} and {old} differ in length"),
        }
    }
}

fn context() -> MapCtx {
    let mut ctx = MapCtx::new();
    ctx.set_scalar(var(0), 2)
        .set_scalar(var(1), -3)
        .set_scalar(var(2), 5);
    ctx.set_array(array(0), -40, (0..81).map(|k| (k * 7) % 11 - 5).collect());
    ctx.set_array(array(1), -40, (0..81).map(|k| 3 - (k % 6)).collect());
    ctx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Whatever is built, and whatever is asked of it, both algebras
    /// answer alike.
    #[test]
    fn operators_and_accessors_agree(
        ra in Recipes, rb in Recipes, k in -6i64..7, s in 0usize..3,
    ) {
        let (a, b) = (ra.build(), rb.build());
        let (oa, ob) = (ra.build_old(), rb.build_old());
        assert_same(&a, &oa, "a");
        assert_same(&b, &ob, "b");

        assert_same(&(&a + &b), &(&oa + &ob), "a + b");
        assert_same(&(&a - &b), &(&oa - &ob), "a - b");
        assert_same(&(&a * &b), &(&oa * &ob), "a * b");
        assert_same(&a.scale(k), &oa.scale(k), "scale");
        assert_same(&-&a, &-&oa, "neg");
        assert_same(&a.subst(var(s), &b), &oa.subst(var(s), &ob), "subst");
        assert_same(&SymExpr::min(a.clone(), b.clone()), &old::SymExpr::min(oa.clone(), ob.clone()), "min");
        assert_same(&SymExpr::max(a.clone(), b.clone()), &old::SymExpr::max(oa.clone(), ob.clone()), "max");

        match (a.split_linear(var(s)), oa.split_linear(var(s))) {
            (None, None) => {}
            (Some((p, q)), Some((op, oq))) => {
                assert_same(&p, &op, "split_linear slope");
                assert_same(&q, &oq, "split_linear rest");
                // a = p·s + q, and q is free of s.
                prop_assert_eq!(&(&p * &SymExpr::var(var(s))) + &q, a.clone());
                prop_assert!(!q.contains_sym(var(s)));
            }
            (n, o) => panic!("split_linear: {n:?} against {o:?}"),
        }
        // The candidates of a split, as `RangeEnv::lower_bound` walks them.
        let splittable: Vec<Sym> = oa
            .syms()
            .into_iter()
            .filter(|v| oa.split_linear(*v).is_some_and(|(p, _)| !p.is_zero()))
            .collect();
        let offered: Vec<Sym> = a
            .factor_vars()
            .filter(|v| a.split_linear(*v).is_some_and(|(p, _)| !p.is_zero()))
            .collect();
        prop_assert_eq!(offered, splittable);
        // The two questions the decision procedure asks without building
        // an answer: a constant slope, a constant sum.
        let slope = oa
            .split_linear(var(s))
            .and_then(|(p, _)| p.as_const())
            .filter(|c| *c != 0);
        prop_assert_eq!(a.linear_coeff(var(s)), slope);
        for (g, m) in [(1, -1), (1, 1), (k, -1), (2, k), (0, 0)] {
            prop_assert_eq!(
                a.combination_const(g, m, &b),
                (&oa.scale(g) + &ob.scale(m)).as_const(),
                "{}·({}) + {}·({})", g, &a, m, &b
            );
            // A combination that is constant by construction.
            let shifted = &a.scale(-m) + &SymExpr::konst(k);
            prop_assert_eq!(shifted.combination_const(g, g * m, &a), Some(g * k));
        }

        for d in [k, 2, 3, -1] {
            match (a.exact_div(d), oa.exact_div(d)) {
                (None, None) => {}
                (Some(q), Some(oq)) => assert_same(&q, &oq, "exact_div"),
                (n, o) => panic!("exact_div({d}): {n:?} against {o:?}"),
            }
        }
        if k != 0 {
            assert_same(&a.scale(k).exact_div(k).expect("divides"), &oa, "scale then exact_div");
        }

        prop_assert_eq!(a.coeff_gcd(), oa.coeff_gcd());
        prop_assert_eq!(a.const_term(), oa.const_term());
        prop_assert_eq!(a.as_const(), oa.as_const());
        prop_assert_eq!(a.as_var(), oa.as_var());
        prop_assert_eq!(a.is_zero(), oa.is_zero());
        prop_assert_eq!(a.syms(), oa.syms());
        for v in 0..3 {
            prop_assert_eq!(a.degree_in(var(v)), oa.degree_in(var(v)));
            prop_assert_eq!(a.contains_sym(var(v)), oa.contains_sym(var(v)));
        }
        for arr in 0..2 {
            prop_assert_eq!(a.contains_sym(array(arr)), oa.contains_sym(array(arr)));
        }
        let ctx = context();
        prop_assert_eq!(a.eval(&ctx), oa.eval(&ctx));
    }

    /// `==` and `cmp` are the derived ones of the map form, on every
    /// pair; equal values share a hash; another route to a value arrives
    /// at the same value.
    #[test]
    fn order_equality_and_hash_agree(r0 in Recipes, r1 in Recipes, r2 in Recipes) {
        let recipes = [r0.rerouted(), r1.rerouted(), r0.clone(), r1.clone(), r2.clone()];
        let new: Vec<SymExpr> = recipes.iter().map(Recipe::build).collect();
        let old: Vec<old::SymExpr> = recipes.iter().map(Recipe::build_old).collect();
        let hasher = RandomState::new();
        for i in 0..new.len() {
            for j in 0..new.len() {
                let (ord, eq) = (old[i].cmp(&old[j]), old[i] == old[j]);
                prop_assert_eq!(new[i].cmp(&new[j]), ord, "{} cmp {}", &new[i], &new[j]);
                prop_assert_eq!(new[i].partial_cmp(&new[j]), Some(ord));
                prop_assert_eq!(new[i] == new[j], eq, "{} == {}", &new[i], &new[j]);
                prop_assert_eq!(eq, ord == Ordering::Equal);
                if eq {
                    prop_assert_eq!(
                        hasher.hash_one(&new[i]),
                        hasher.hash_one(&new[j]),
                        "equal and hashed apart: {}", &new[i]
                    );
                }
                // The same order one level up, where it orders `∧`/`∨`.
                let (p, q) = (BoolExpr::ge0(new[i].clone()), BoolExpr::ge0(new[j].clone()));
                prop_assert_eq!(p == q, hasher.hash_one(&p) == hasher.hash_one(&q));
            }
        }
        // Rerouting is the identity on values (and a clone is the value).
        prop_assert_eq!(&new[0], &new[2], "rerouted {:?}", &recipes[2]);
        prop_assert_eq!(&new[1], &new[3], "rerouted {:?}", &recipes[3]);
        prop_assert_eq!(new[4].clone().cmp(&new[4]), Ordering::Equal);
    }
}

/// `is_negation_of` is `negated() ==`, decided without building the
/// negation; `any_complementary` is the quadratic search it replaces.
#[test]
fn negation_is_recognised_without_building_it() {
    let mut rng = TestRng::from_name("negation_is_recognised_without_building_it");
    let mut leaves = Vec::new();
    for _ in 0..400 {
        let e = Recipe::random(&mut rng, 2).build();
        let k = 2 + rng.below(3) as i64;
        leaves.extend([
            BoolExpr::ge0(e.clone()),
            BoolExpr::gt0(e.clone()),
            // Unnormalized on purpose: `Gt0` keeps its gcd.
            BoolExpr::gt0(e.scale(k)),
            BoolExpr::eq0(e.clone()),
            BoolExpr::ne0(e.clone()),
            BoolExpr::divides(k, e.clone()),
            BoolExpr::not_divides(k, e),
        ]);
    }
    let mut compounds = Vec::new();
    for w in leaves.chunks(3) {
        compounds.push(BoolExpr::and(w.to_vec()));
        compounds.push(BoolExpr::or(w.to_vec()));
    }
    leaves.extend(compounds);
    leaves.sort();
    leaves.dedup();
    let negations: Vec<BoolExpr> = leaves.iter().map(BoolExpr::negated).collect();
    let mut complements = 0;
    for (p, np) in leaves.iter().zip(&negations) {
        assert!(np.is_negation_of(p), "{np} is the negation of {p}");
        for q in &leaves {
            let is = q.is_negation_of(p);
            assert_eq!(is, q == np, "{q} against the negation of {p}");
            complements += usize::from(is);
        }
    }
    assert!(complements > 100, "only {complements} complementary pairs");
    for w in leaves.windows(4) {
        let brute = w.iter().any(|p| w.contains(&p.negated()));
        assert_eq!(BoolExpr::any_complementary(w.iter()), brute);
    }
}
