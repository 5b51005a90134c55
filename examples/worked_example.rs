//! The paper's worked example (Figures 1, 3 and 4): the SOLVH_DO20 loop
//! of the dyfesm benchmark.
//!
//! ```sh
//! cargo run --example worked_example
//! ```
//!
//! Reproduces the derivation of §1.2: XE's flow-independence predicate
//! `SYM.NE.1 ∧ NS ≤ 16·NP` emerges from factorizing the Figure 3(c)
//! USR, and the whole interprocedural loop is validated at runtime.

use lip::core::{build_cascade, Factorizer};
use lip::lmad::{Lmad, LmadSet};
use lip::symbolic::{sym, BoolExpr, MapCtx, RangeEnv, SymExpr};
use lip::usr::Usr;

fn main() {
    let v = |s: &str| SymExpr::var(sym(s));
    let k = SymExpr::konst;

    // Figure 3(c): the XE flow-independence USR.
    //   (SYM.NE.1 # ([0,NS-1] - [0,16NP-1]))  ∪  (SYM.EQ.1 # [0,NS-1])
    let g = BoolExpr::ne(v("SYM"), k(1));
    let written = Usr::leaf(LmadSet::single(Lmad::interval(
        k(0),
        v("NP").scale(16) - k(1),
    )));
    let read = Usr::leaf(LmadSet::single(Lmad::interval(k(0), v("NS") - k(1))));
    let find = Usr::union(
        Usr::gate(g.clone(), Usr::subtract(read.clone(), written)),
        Usr::gate(g.negated(), read),
    );
    println!("FIND-USR(XE) = {find}");

    // Figure 4: the translation F.
    let mut f = Factorizer::with_defaults();
    let pred = f.factor(&find);
    let env = RangeEnv::new().with_fact(BoolExpr::ge0(v("NS") - k(1)));
    let simplified = lip::core::simplify(&pred, &env);
    println!("F(FIND-USR) = {simplified}");

    let cascade = build_cascade(&pred, &env);
    for (i, stage) in cascade.stages.iter().enumerate() {
        println!(
            "cascade stage {i}: O(N^{}) {}",
            stage.complexity, stage.pred
        );
    }

    // Runtime evaluation matches the paper: holds for SYM != 1 and
    // NS <= 16*NP.
    let mut ctx = MapCtx::new();
    ctx.set_scalar(sym("SYM"), 0)
        .set_scalar(sym("NS"), 16)
        .set_scalar(sym("NP"), 2);
    println!("SYM=0, NS=16, NP=2  ->  {:?}", simplified.eval(&ctx, 1000));
    ctx.set_scalar(sym("SYM"), 1);
    println!("SYM=1              ->  {:?}", simplified.eval(&ctx, 1000));

    // And the full interprocedural kernel classifies + runs end to end.
    let shape = &lip::suite::SOLVH;
    let prog = lip::ir::parse_program(shape.source).expect("parses");
    let analysis = lip::Session::default()
        .analyze(&prog, sym(shape.sub), shape.label)
        .expect("analyzable");
    println!(
        "SOLVH_do20: {:?}, techniques {:?}",
        analysis.class,
        analysis
            .techniques
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
    );
}
