//! The production independence test: "is this USR empty", in one pass.
//!
//! [`crate::eval::eval_usr`] is the reference semantics — it builds the
//! whole index set, and rebuilds every `∪_{k<i}` prefix from `lo` for
//! every `i`, so it is quadratic in the trip count. [`independent`]
//! answers only the emptiness question the executor asks, under five
//! rules:
//!
//! 1. **Running prefixes.** A [`UsrNode::RecPartial`] keeps its union
//!    between evaluations and is *extended* from the `hi` it last
//!    covered, so Eq. 2/3 (`∪_i (S_i ∩ ∪_{k<i} S_k)`) cost one
//!    insertion and one probe per run instead of N²/2 insertions.
//! 2. **Early exit.** Emptiness short-circuits: a `Union` or `RecTotal`
//!    is non-empty at its first non-empty operand or iteration; an
//!    `Intersect` materializes one side and probes the other into it,
//!    operand by operand, iteration by iteration, stopping at the first
//!    common index; a `Gate(false)` and a subtraction by the empty set
//!    allocate nothing. A dependent input stops at its first collision.
//! 3. **Runs.** An index set is a sorted list of disjoint, non-adjacent
//!    inclusive runs `(lo, hi)`: a contiguous LMAD (a 32-wide window, a
//!    `[1 .. i-1]` prefix, a 16-wide column) is one run whatever its
//!    width, and every dimension whose stride does not exceed the width
//!    reached so far folds into that run.
//! 4. **Units.** One unit per run operation — a run written into a set
//!    or probed against one — and per recurrence iteration stepped: the
//!    currency of `Pdag::eval_cost`. The count depends only on the USR
//!    and the bindings (never on threads, observers or caches), and
//!    `budget` is in the same units: when it runs out the verdict is
//!    `None`, as the reference's element `limit` does.
//! 5. **Hoisting** is the caller's half (`exact_test` in `lip_runtime`'s plan): the
//!    verdict *and* its units are memoized per input fingerprint, and
//!    charged identically on hit and miss.
//!
//! # The evaluation plan
//!
//! A USR is lowered once into an [`ExactPlan`] (the runtime keeps one per
//! loop, beside the verdict memo, in `LoopAnalysis::exact_key`), and an
//! evaluation walks the plan, not the tree:
//!
//! * **Nodes in an arena**, `Call` wrappers dropped, each `RecPartial`
//!   numbered so its kept prefix is a slot of a table, not a hash-map
//!   entry.
//! * **Scalars in slots.** Every recurrence variable and every free
//!   scalar is resolved to a slot when the plan is built (innermost
//!   binder first, as nested scopes shadow); an evaluation reads the free
//!   scalars from the context once and steps a recurrence by writing its
//!   slot — no scope chain per iteration.
//! * **Expressions pre-lowered.** Each LMAD's offset, strides and spans
//!   and each gate's operands are polynomials over slots and array
//!   elements — an affine form for `P(i)`, `i - 1` or
//!   `-63 + 32k + 32·IB(i)`, the general terms otherwise — with every
//!   array resolved once per evaluation (`EvalCtx::elem_reader`). Terms
//!   keep the `SymExpr`'s order and checked arithmetic, so overflow and
//!   unbound symbols are `None` exactly where `SymExpr::eval` says so.
//! * **Invariants once per evaluation.** An expression or gate no
//!   recurrence variable reaches is computed when the evaluation starts,
//!   an LMAD whose strides and spans none reaches is folded then (its
//!   runs listed relative to the offset), and a subtree that reads no
//!   enclosing recurrence variable and keeps no prefix (`U[i=1..N](P(i)
//!   − Q(i))`, asked twice by `hoist_indirect`'s equations) is evaluated
//!   once per way it is asked — `empty`, `set`, `collect` — its answer
//!   kept with the units it took, which are charged again at each later
//!   ask, stopping at the budget exactly where the charges one by one
//!   would have. Equal such subtrees are one node.
//! * **Runs inline.** A set of up to two runs — a point `P(i)`, the
//!   difference `P(i) − Q(i)`, a strided leaf's two sections — lives
//!   inline; only a third run moves it to a vector, and vectors are
//!   recycled within an evaluation. `{P(i)} ∩ {Q(i)}` and
//!   `{P(i)} − {Q(i)}` are decided from the two points.
//!
//! The plan changes how fast a unit is spent, not which units are spent:
//! every operand is evaluated in the tree-walker's order and charged at
//! its points (`tests/golden/exact_corpus_units.txt` and `lip_suite`'s
//! `exact_units.txt` pin verdict and units, whole and at half budget).
//! On `hoist_indirect`'s fragment USR at n = 192 (8 822 units, shuffled
//! pass-shaped input) a unit cost 60 ns on the tree-walker and costs
//! 13 ns here; on `solvh`'s fail-shaped input at n = 48 (3 759 units),
//! 104 ns and 33 ns (release build, 2-vCPU x86-64 host, fastest of 201
//! alternating evaluations of each; on a busier host the tree-walker's
//! allocations cost more, and the ratios reached 6.3 and 3.6). Lowering
//! takes 21 µs and 106 µs for the two, once per analysis.
//!
//! # Why a kept prefix may be reused
//!
//! Under a fixed context the set `∪_{v=lo}^{h} body(v)` is a function of
//! `lo`, `h`, the values of `body`'s free scalars other than `v`, and the
//! arrays it indexes. Arrays cannot change during one call (the context
//! is borrowed immutably), so a prefix is keyed by node identity
//! ([`Usr::id`] when the plan is built: a node shared by two parents is
//! one prefix) plus the evaluated `lo` and those scalar values: when
//! they agree with the kept entry and `h` did not shrink, the kept union
//! is exactly the part of the requested one over `lo ..= kept h`, and
//! only the iterations above it are missing. Anything else starts over.
//! `solvh` is the worked case: `Upartial[kk=1..k-1](… IB(i) …)` sits
//! under `U[k=1..IA(i)]` under `U[i=1..N]`; while `k` steps the prefix
//! grows by one `kk` per step, and when `i` steps the body's free `i` has
//! a new value (and `k` falls back to 1, so `hi` shrinks), so it restarts
//! — `IA(i)` insertions per `i`, linear overall.
//!
//! # Relation to the reference
//!
//! `Some(true)` is answered only after every operand the reference
//! evaluates has been evaluated and found defined, so it implies
//! `eval_usr(..) == Some(∅)`; where the reference is `Some(s)` the
//! verdict is `Some(s.is_empty())`. The one asymmetry is rule 2: a
//! collision found *before* an operand the reference would have found
//! undefined (unbound symbol, non-positive stride) answers `Some(false)`
//! where the reference, which evaluates every operand before looking at
//! any, answers `None`. A prefix that sits under a `Union` inside a
//! `Subtract` or nested `Intersect` is copied per evaluation (still
//! correct; no equation in [`crate::equations`] builds that shape).

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use lip_lmad::Lmad;
use lip_symbolic::{Atom, BoolExpr, EvalCtx, Monomial, Sym, SymExpr};

use crate::node::{Usr, UsrNode};

/// What [`independent`] found and what finding it cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exact {
    /// `Some(true)`: the USR is empty (the loop is independent);
    /// `Some(false)`: it is not; `None`: undecidable — a symbol is
    /// unbound, a stride is not positive, or `budget` ran out.
    pub verdict: Option<bool>,
    /// Work units spent (run operations + recurrence iterations).
    pub units: u64,
}

/// Decides whether `u` denotes the empty set under `ctx`, spending at
/// most `budget` work units (see the module documentation). Lowers `u`
/// first; a caller that asks about one USR again and again keeps its
/// [`ExactPlan`] instead.
///
/// # Example
///
/// ```
/// use lip_usr::{exact, output_independence, Lmad, LmadSet, Usr};
/// use lip_symbolic::{sym, MapCtx, SymExpr};
///
/// // WF_i = {B(i)}: independent iff B is injective on 1..=3.
/// let b_i = SymExpr::elem(sym("B"), SymExpr::var(sym("i")));
/// let wf = Usr::leaf(LmadSet::single(Lmad::point(b_i)));
/// let (one, three) = (SymExpr::konst(1), SymExpr::konst(3));
/// let oind = output_independence(sym("i"), &one, &three, &wf);
/// let mut ctx = MapCtx::new();
/// ctx.set_array(sym("B"), 1, vec![4, 9, 4]);
/// assert_eq!(exact::independent(&oind, &ctx, 1_000).verdict, Some(false));
/// ctx.set_array(sym("B"), 1, vec![4, 9, 5]);
/// assert_eq!(exact::independent(&oind, &ctx, 1_000).verdict, Some(true));
/// ```
pub fn independent(u: &Usr, ctx: &dyn EvalCtx, budget: u64) -> Exact {
    ExactPlan::new(u).independent(ctx, budget)
}

/// A USR lowered for [`independent`]: built once, evaluated on any
/// number of contexts (see the module documentation).
#[derive(Clone, Debug)]
pub struct ExactPlan {
    nodes: Vec<Node>,
    root: NodeId,
    /// The free scalars and the slot each is read into.
    scalars: Vec<(Sym, Slot)>,
    /// Slots in all: the free scalars and one per recurrence.
    slots: usize,
    /// The arrays the plan reads, by index.
    arrays: Vec<Sym>,
    /// Distinct `RecPartial` nodes, each with a kept prefix.
    prefixes: usize,
    /// `Fixed` nodes.
    fixed_nodes: usize,
    /// The expressions no recurrence variable reaches, by
    /// [`Poly::Inv`] index: computed once per evaluation, children
    /// before parents.
    invariants: Vec<Terms>,
    /// The gate conditions no recurrence variable reaches, by
    /// [`Pred::Inv`] index.
    conditions: Vec<Pred>,
    /// The LMAD dimensions no recurrence variable reaches, by
    /// [`Shape::fixed`] index: evaluated and folded once per
    /// evaluation.
    fixed: Vec<Box<[(Poly, Poly)]>>,
}

type NodeId = u32;
type Slot = u32;

/// One node of the plan: a [`UsrNode`] with its expressions lowered and
/// its children in the arena.
#[derive(Clone, Debug)]
enum Node {
    Empty,
    /// A leaf of one LMAD with no dimension: one index.
    Point(Poly),
    Leaf(Box<[Shape]>),
    Union(NodeId, NodeId),
    Intersect(NodeId, NodeId),
    Subtract(NodeId, NodeId),
    Gate(Pred, NodeId),
    RecTotal {
        slot: Slot,
        lo: Poly,
        hi: Poly,
        body: NodeId,
    },
    RecPartial {
        slot: Slot,
        lo: Poly,
        hi: Poly,
        body: NodeId,
        /// The kept prefix's index.
        prefix: u32,
        /// The slots of the body's free symbols other than `slot`'s, in
        /// symbol order: a kept prefix is reused only under the values
        /// they had when it started.
        env: Box<[Slot]>,
    },
    /// A subtree no enclosing recurrence variable reaches and with no
    /// kept prefix inside: its value and its cost are the same each time
    /// in one evaluation, so it is evaluated once per way it is asked
    /// (`memo` indexes [`Pass::memo`]) and its units charged again.
    Fixed {
        inner: NodeId,
        memo: u32,
    },
}

/// An LMAD: the offset and each dimension's `(stride, span)`, or the
/// index of its dimensions in [`ExactPlan::fixed`] when they are the
/// same all evaluation long.
#[derive(Clone, Debug)]
struct Shape {
    offset: Poly,
    dims: Box<[(Poly, Poly)]>,
    fixed: Option<u32>,
}

/// A `SymExpr`'s terms in order, each a coefficient and a product.
type Terms = Box<[(i64, Mono)]>;

/// A `SymExpr`: computed once per evaluation, an affine form over
/// slots and elements at affine subscripts (nearly every offset and
/// subscript: `i - 1`, `P(i)`, `-63 + 32k + 32·IB(i)`), or its terms.
/// An affine form sums its constant first and its terms in the
/// expression's order, as `SymExpr::eval` does.
#[derive(Clone, Debug)]
enum Poly {
    Inv(u32),
    /// `k + c·x`.
    Slot(Affine),
    /// `k + c·A(j + d·x)`: `k`, `c`, the array index and the
    /// subscript.
    Elem(i64, i64, u32, Affine),
    /// `k + Σ c·t`.
    Linear(i64, Box<[(i64, Lin)]>),
    Terms(Terms),
}

/// `k + c·x` for the slot `x`.
#[derive(Clone, Copy, Debug)]
struct Affine {
    k: i64,
    c: i64,
    x: Slot,
}

impl Affine {
    #[inline]
    fn at(self, v: i64) -> Option<i64> {
        self.k.checked_add(self.c.checked_mul(v)?)
    }
}

/// A term of an affine form: a slot, or an element of an array at an
/// affine subscript.
#[derive(Clone, Copy, Debug)]
enum Lin {
    Slot(Slot),
    Elem(u32, Affine),
}

impl Lin {
    #[inline]
    fn eval(self, env: &Env<'_>) -> Option<i64> {
        match self {
            Lin::Slot(x) => env.slots[x as usize],
            Lin::Elem(arr, sub) => env.elem(arr, sub.at(env.slots[sub.x as usize]?)?),
        }
    }
}

#[derive(Clone, Debug)]
enum Mono {
    One,
    Atom(Leaf),
    Product(Box<[(Leaf, u32)]>),
}

#[derive(Clone, Debug)]
enum Leaf {
    Slot(Slot),
    /// Array index and subscript.
    Elem(u32, Box<Poly>),
    Min(Box<(Poly, Poly)>),
    Max(Box<(Poly, Poly)>),
}

/// A gate's `BoolExpr`, variant for variant.
#[derive(Clone, Debug)]
enum Pred {
    Const(bool),
    Ge0(Poly),
    Gt0(Poly),
    Eq0(Poly),
    Ne0(Poly),
    Divides(i64, Poly),
    NotDivides(i64, Poly),
    And(Box<[Pred]>),
    Or(Box<[Pred]>),
    /// Computed once per evaluation: the [`ExactPlan::conditions`] index.
    Inv(u32),
}

impl ExactPlan {
    /// Lowers `u`.
    pub fn new(u: &Usr) -> ExactPlan {
        let mut lower = Lower::default();
        let root = lower.node(u);
        ExactPlan {
            nodes: lower.nodes,
            root,
            scalars: lower.scalars,
            slots: lower.slots as usize,
            arrays: lower.arrays,
            prefixes: lower.prefixes.len(),
            fixed_nodes: lower.shared.len(),
            invariants: lower.invariants,
            conditions: lower.conditions,
            fixed: lower.fixed,
        }
    }

    /// Decides whether the lowered USR denotes the empty set under
    /// `ctx`, spending at most `budget` work units: what
    /// [`independent`] answers for the USR, unit for unit.
    pub fn independent(&self, ctx: &dyn EvalCtx, budget: u64) -> Exact {
        let mut pass = Pass {
            plan: self,
            env: Env::new(self, ctx),
            budget,
            units: 0,
            prefixes: (0..self.prefixes).map(|_| None).collect(),
            memo: vec![Memo::default(); self.fixed_nodes],
            dims: Vec::new(),
            pool: Vec::new(),
        };
        let verdict = pass.empty(self.root);
        Exact {
            verdict,
            units: pass.units,
        }
    }
}

/// The lowering's state: the arena, the slot and array tables, the
/// recurrence variables in scope.
#[derive(Default)]
struct Lower {
    nodes: Vec<Node>,
    scalars: Vec<(Sym, Slot)>,
    slots: Slot,
    arrays: Vec<Sym>,
    /// Enclosing recurrence variables, innermost last.
    scope: Vec<(Sym, Slot)>,
    /// Prefix index by `RecPartial` node identity.
    prefixes: HashMap<usize, u32>,
    /// Each `Fixed` node by the subtree it holds: equal subtrees are one
    /// node, one memo.
    shared: HashMap<Usr, NodeId>,
    /// Per DAG node (by identity): its free symbols, and whether a
    /// `RecPartial` sits in it.
    free: HashMap<usize, (Rc<BTreeSet<Sym>>, bool)>,
    /// Whether each slot holds a free scalar (the same all evaluation
    /// long) rather than a recurrence variable.
    outer: Vec<bool>,
    invariants: Vec<Terms>,
    conditions: Vec<Pred>,
    fixed: Vec<Box<[(Poly, Poly)]>>,
}

impl Lower {
    /// `u` lowered, as a `Fixed` node when it is one.
    fn node(&mut self, u: &Usr) -> NodeId {
        let compound = !matches!(
            u.node(),
            UsrNode::Empty | UsrNode::Leaf(_) | UsrNode::Call(..) | UsrNode::RecPartial { .. }
        );
        if !compound || !self.is_fixed(u) {
            return self.lower(u);
        }
        if let Some(&id) = self.shared.get(u) {
            return id;
        }
        let inner = self.lower(u);
        let memo = self.shared.len() as u32;
        self.nodes.push(Node::Fixed { inner, memo });
        let id = (self.nodes.len() - 1) as NodeId;
        self.shared.insert(u.clone(), id);
        id
    }

    /// Whether `u` reads no recurrence variable in scope and keeps no
    /// prefix.
    fn is_fixed(&mut self, u: &Usr) -> bool {
        let (free, keeps_prefix) = self.free(u);
        !keeps_prefix && !self.scope.iter().any(|(v, _)| free.contains(v))
    }

    /// `u`'s free symbols (`Usr::free_syms`) and whether it keeps a
    /// prefix, computed once per DAG node.
    fn free(&mut self, u: &Usr) -> (Rc<BTreeSet<Sym>>, bool) {
        if let Some(known) = self.free.get(&u.id()) {
            return known.clone();
        }
        let mut syms = BTreeSet::new();
        let add = |(free, prefix): (Rc<BTreeSet<Sym>>, bool), syms: &mut BTreeSet<Sym>| {
            syms.extend(free.iter().copied());
            prefix
        };
        let keeps_prefix = match u.node() {
            UsrNode::Empty => false,
            UsrNode::Leaf(set) => {
                syms = set.syms();
                false
            }
            UsrNode::Union(a, b) | UsrNode::Intersect(a, b) | UsrNode::Subtract(a, b) => {
                add(self.free(a), &mut syms) | add(self.free(b), &mut syms)
            }
            UsrNode::Gate(p, body) => {
                syms = p.syms();
                add(self.free(body), &mut syms)
            }
            UsrNode::Call(_, body) => add(self.free(body), &mut syms),
            UsrNode::RecTotal { var, lo, hi, body } | UsrNode::RecPartial { var, lo, hi, body } => {
                let in_body = add(self.free(body), &mut syms);
                syms.remove(var);
                syms.extend(lo.syms());
                syms.extend(hi.syms());
                in_body || matches!(u.node(), UsrNode::RecPartial { .. })
            }
        };
        let known = (Rc::new(syms), keeps_prefix);
        self.free.insert(u.id(), known.clone());
        known
    }

    fn lower(&mut self, u: &Usr) -> NodeId {
        let node = match u.node() {
            UsrNode::Empty => Node::Empty,
            UsrNode::Leaf(set) => match set.lmads() {
                [l] if l.dims().is_empty() => Node::Point(self.poly(l.offset())),
                lmads => Node::Leaf(lmads.iter().map(|l| self.shape(l)).collect()),
            },
            UsrNode::Union(a, b) => Node::Union(self.node(a), self.node(b)),
            UsrNode::Intersect(a, b) => Node::Intersect(self.node(a), self.node(b)),
            UsrNode::Subtract(a, b) => Node::Subtract(self.node(a), self.node(b)),
            UsrNode::Gate(p, body) => Node::Gate(self.pred(p), self.node(body)),
            UsrNode::Call(_, body) => return self.node(body),
            UsrNode::RecTotal { var, lo, hi, body } => {
                let (lo, hi) = (self.poly(lo), self.poly(hi));
                let slot = self.bind(*var);
                let body = self.node(body);
                self.scope.pop();
                Node::RecTotal { slot, lo, hi, body }
            }
            UsrNode::RecPartial { var, lo, hi, body } => {
                let (lo, hi) = (self.poly(lo), self.poly(hi));
                let next = self.prefixes.len() as u32;
                let prefix = *self.prefixes.entry(u.id()).or_insert(next);
                let free = self.free(body).0;
                let env = (free.iter().filter(|s| *s != var))
                    .map(|s| self.scalar(*s))
                    .collect();
                let slot = self.bind(*var);
                let body = self.node(body);
                self.scope.pop();
                Node::RecPartial {
                    slot,
                    lo,
                    hi,
                    body,
                    prefix,
                    env,
                }
            }
        };
        self.nodes.push(node);
        (self.nodes.len() - 1) as NodeId
    }

    fn fresh(&mut self, outer: bool) -> Slot {
        self.outer.push(outer);
        self.slots += 1;
        self.slots - 1
    }

    /// A slot for the recurrence variable `var`, in scope until popped.
    fn bind(&mut self, var: Sym) -> Slot {
        let slot = self.fresh(false);
        self.scope.push((var, slot));
        slot
    }

    /// The slot `s` reads in the current scope.
    fn scalar(&mut self, s: Sym) -> Slot {
        let mut bound = self.scope.iter().rev().chain(&self.scalars);
        if let Some(&(_, slot)) = bound.find(|(v, _)| *v == s) {
            return slot;
        }
        let slot = self.fresh(true);
        self.scalars.push((s, slot));
        slot
    }

    fn array(&mut self, a: Sym) -> u32 {
        let k = self.arrays.iter().position(|x| *x == a).unwrap_or_else(|| {
            self.arrays.push(a);
            self.arrays.len() - 1
        });
        k as u32
    }

    fn shape(&mut self, l: &Lmad) -> Shape {
        let offset = self.poly(l.offset());
        let dims: Box<[(Poly, Poly)]> = (l.dims().iter())
            .map(|d| (self.poly(&d.stride), self.poly(&d.span)))
            .collect();
        let varies = dims.iter().any(|(a, b)| a.varies() || b.varies());
        let fixed = (!dims.is_empty() && !varies).then(|| {
            self.fixed.push(dims.clone());
            (self.fixed.len() - 1) as u32
        });
        Shape {
            offset,
            dims,
            fixed,
        }
    }

    /// `e` lowered: an invariant, when no term reads a recurrence
    /// variable (nor an element at a subscript that does).
    fn poly(&mut self, e: &SymExpr) -> Poly {
        let terms: Terms = e.terms().map(|(m, c)| (c, self.mono(m))).collect();
        let varies = |a: &Leaf| match a {
            Leaf::Slot(s) => !self.outer[*s as usize],
            Leaf::Elem(_, at) => at.varies(),
            Leaf::Min(xy) | Leaf::Max(xy) => xy.0.varies() || xy.1.varies(),
        };
        if terms.iter().any(|(_, m)| match m {
            Mono::One => false,
            Mono::Atom(a) => varies(a),
            Mono::Product(atoms) => atoms.iter().any(|(a, _)| varies(a)),
        }) {
            let lin = |m: &Mono| match m {
                Mono::Atom(Leaf::Slot(x)) => Some(Lin::Slot(*x)),
                Mono::Atom(Leaf::Elem(arr, at)) => match **at {
                    Poly::Slot(sub) => Some(Lin::Elem(*arr, sub)),
                    _ => None,
                },
                _ => None,
            };
            let (k, rest) = match &*terms {
                [(k, Mono::One), rest @ ..] => (*k, rest),
                rest => (0, rest),
            };
            let form: Option<Box<[(i64, Lin)]>> =
                rest.iter().map(|(c, m)| Some((*c, lin(m)?))).collect();
            return match form.as_deref() {
                Some(&[(c, Lin::Slot(x))]) => Poly::Slot(Affine { k, c, x }),
                Some(&[(c, Lin::Elem(arr, sub))]) => Poly::Elem(k, c, arr, sub),
                Some(_) => Poly::Linear(k, form.expect("an affine form")),
                None => Poly::Terms(terms),
            };
        }
        self.invariants.push(terms);
        Poly::Inv((self.invariants.len() - 1) as u32)
    }

    fn mono(&mut self, m: &Monomial) -> Mono {
        match m.atoms() {
            [] => Mono::One,
            [(a, 1)] => Mono::Atom(self.leaf(a)),
            atoms => Mono::Product(atoms.iter().map(|(a, p)| (self.leaf(a), *p)).collect()),
        }
    }

    fn leaf(&mut self, a: &Atom) -> Leaf {
        match a {
            Atom::Var(s) => Leaf::Slot(self.scalar(*s)),
            Atom::Elem(arr, e) => Leaf::Elem(self.array(*arr), Box::new(self.poly(e))),
            Atom::Min(x, y) => Leaf::Min(Box::new((self.poly(x), self.poly(y)))),
            Atom::Max(x, y) => Leaf::Max(Box::new((self.poly(x), self.poly(y)))),
        }
    }

    /// `p` lowered: an invariant, when no operand reads a recurrence
    /// variable.
    fn pred(&mut self, p: &BoolExpr) -> Pred {
        let p = self.pred_terms(p);
        if matches!(p, Pred::Const(_)) || p.varies() {
            return p;
        }
        self.conditions.push(p);
        Pred::Inv((self.conditions.len() - 1) as u32)
    }

    fn pred_terms(&mut self, p: &BoolExpr) -> Pred {
        match p {
            BoolExpr::Const(b) => Pred::Const(*b),
            BoolExpr::Ge0(e) => Pred::Ge0(self.poly(e)),
            BoolExpr::Gt0(e) => Pred::Gt0(self.poly(e)),
            BoolExpr::Eq0(e) => Pred::Eq0(self.poly(e)),
            BoolExpr::Ne0(e) => Pred::Ne0(self.poly(e)),
            BoolExpr::Divides(k, e) => Pred::Divides(*k, self.poly(e)),
            BoolExpr::NotDivides(k, e) => Pred::NotDivides(*k, self.poly(e)),
            BoolExpr::And(ps) => Pred::And(ps.iter().map(|p| self.pred(p)).collect()),
            BoolExpr::Or(ps) => Pred::Or(ps.iter().map(|p| self.pred(p)).collect()),
        }
    }
}

type ElemReader<'a> = Box<dyn Fn(i64) -> Option<i64> + Sync + 'a>;

/// The bindings of one evaluation: the slots, and each array's reader
/// (`None` where the context offers none: [`EvalCtx::elem`] by name).
struct Env<'a> {
    ctx: &'a dyn EvalCtx,
    slots: Vec<Option<i64>>,
    arrays: Vec<(Sym, Option<ElemReader<'a>>)>,
    /// The values of [`ExactPlan::invariants`], [`ExactPlan::conditions`]
    /// and [`ExactPlan::fixed`].
    inv: Vec<Option<i64>>,
    conditions: Vec<Option<bool>>,
    fixed: Vec<Folded>,
    /// The run starts of each `Folded::Runs`, relative to the offset.
    bases: Vec<i64>,
}

/// Fixed dimensions, evaluated and folded once per evaluation.
#[derive(Clone, Copy)]
enum Folded {
    /// A component is unbound or a stride not positive.
    Undefined,
    /// A span is negative.
    Empty,
    /// Runs of `width` starting at the offset plus each of
    /// `bases[at..end]`, in [`each_base`]'s order.
    Runs { width: i64, at: usize, end: usize },
    /// More than [`LISTED`] runs: folded again at each evaluation of the
    /// LMAD.
    Many,
}

/// The most runs a fixed LMAD lists in [`Env::bases`].
const LISTED: usize = 64;

impl<'a> Env<'a> {
    /// `plan`'s bindings under `ctx`: the free scalars read, the arrays
    /// resolved, the invariants computed and the fixed LMADs folded.
    fn new(plan: &ExactPlan, ctx: &'a dyn EvalCtx) -> Env<'a> {
        let mut slots = vec![None; plan.slots];
        for &(s, slot) in &plan.scalars {
            slots[slot as usize] = ctx.scalar(s);
        }
        let arrays = plan.arrays.iter().map(|&a| (a, ctx.elem_reader(a)));
        let mut env = Env {
            ctx,
            slots,
            arrays: arrays.collect(),
            inv: Vec::with_capacity(plan.invariants.len()),
            conditions: Vec::with_capacity(plan.conditions.len()),
            fixed: Vec::with_capacity(plan.fixed.len()),
            bases: Vec::new(),
        };
        for terms in &plan.invariants {
            let v = eval_terms(terms, &env);
            env.inv.push(v);
        }
        for p in &plan.conditions {
            let v = p.eval(&env);
            env.conditions.push(v);
        }
        let mut dims = Vec::new();
        for lmad in &plan.fixed {
            let folded = match fold(lmad, &env, &mut dims) {
                None => Folded::Undefined,
                Some(None) => Folded::Empty,
                Some(Some(width)) => {
                    let at = env.bases.len();
                    let bases = &mut env.bases;
                    let listed = each_base(bases, &dims, 0, &mut |b: &mut Vec<i64>, x| {
                        b.push(x);
                        Some(b.len() - at > LISTED)
                    });
                    if listed == Some(false) {
                        let end = env.bases.len();
                        Folded::Runs { width, at, end }
                    } else {
                        env.bases.truncate(at);
                        Folded::Many
                    }
                }
            };
            env.fixed.push(folded);
        }
        env
    }

    /// Element `idx` of array `a`.
    #[inline]
    fn elem(&self, a: u32, idx: i64) -> Option<i64> {
        match &self.arrays[a as usize] {
            (_, Some(read)) => read(idx),
            (arr, None) => self.ctx.elem(*arr, idx),
        }
    }
}

impl Poly {
    #[inline]
    fn eval(&self, env: &Env<'_>) -> Option<i64> {
        match self {
            Poly::Inv(k) => env.inv[*k as usize],
            Poly::Slot(f) => f.at(env.slots[f.x as usize]?),
            Poly::Elem(k, c, arr, sub) => {
                k.checked_add(c.checked_mul(Lin::Elem(*arr, *sub).eval(env)?)?)
            }
            Poly::Linear(k, terms) => {
                let mut acc = *k;
                for (c, t) in terms.iter() {
                    acc = acc.checked_add(c.checked_mul(t.eval(env)?)?)?;
                }
                Some(acc)
            }
            Poly::Terms(terms) => eval_terms(terms, env),
        }
    }

    fn varies(&self) -> bool {
        !matches!(self, Poly::Inv(_))
    }
}

/// `SymExpr::eval`, term by term in the same order.
fn eval_terms(terms: &[(i64, Mono)], env: &Env<'_>) -> Option<i64> {
    let mut acc: i64 = 0;
    for (c, m) in terms {
        let v = match m {
            Mono::One => 1,
            Mono::Atom(a) => a.eval(env)?,
            Mono::Product(atoms) => {
                let mut v: i64 = 1;
                for (a, p) in atoms.iter() {
                    let x = a.eval(env)?;
                    for _ in 0..*p {
                        v = v.checked_mul(x)?;
                    }
                }
                v
            }
        };
        acc = acc.checked_add(c.checked_mul(v)?)?;
    }
    Some(acc)
}

impl Leaf {
    fn eval(&self, env: &Env<'_>) -> Option<i64> {
        match self {
            Leaf::Slot(s) => env.slots[*s as usize],
            Leaf::Elem(a, e) => env.elem(*a, e.eval(env)?),
            Leaf::Min(xy) => Some(xy.0.eval(env)?.min(xy.1.eval(env)?)),
            Leaf::Max(xy) => Some(xy.0.eval(env)?.max(xy.1.eval(env)?)),
        }
    }
}

impl Pred {
    /// [`Pred::eval`], an invariant without the call.
    #[inline]
    fn holds(&self, env: &Env<'_>) -> Option<bool> {
        match self {
            Pred::Inv(k) => env.conditions[*k as usize],
            _ => self.eval(env),
        }
    }

    fn varies(&self) -> bool {
        match self {
            Pred::Const(_) | Pred::Inv(_) => false,
            Pred::Ge0(e)
            | Pred::Gt0(e)
            | Pred::Eq0(e)
            | Pred::Ne0(e)
            | Pred::Divides(_, e)
            | Pred::NotDivides(_, e) => e.varies(),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().any(Pred::varies),
        }
    }

    /// `BoolExpr::eval`, variant for variant.
    fn eval(&self, env: &Env<'_>) -> Option<bool> {
        match self {
            Pred::Const(b) => Some(*b),
            Pred::Inv(k) => env.conditions[*k as usize],
            Pred::Ge0(e) => Some(e.eval(env)? >= 0),
            Pred::Gt0(e) => Some(e.eval(env)? > 0),
            Pred::Eq0(e) => Some(e.eval(env)? == 0),
            Pred::Ne0(e) => Some(e.eval(env)? != 0),
            Pred::Divides(k, e) => Some(e.eval(env)? % k == 0),
            Pred::NotDivides(k, e) => Some(e.eval(env)? % k != 0),
            Pred::And(ps) => {
                let mut unknown = false;
                for p in ps.iter() {
                    match p.eval(env) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => unknown = true,
                    }
                }
                (!unknown).then_some(true)
            }
            Pred::Or(ps) => {
                let mut unknown = false;
                for p in ps.iter() {
                    match p.eval(env) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => unknown = true,
                    }
                }
                (!unknown).then_some(false)
            }
        }
    }
}

type Run = (i64, i64);

/// A set of indices as sorted, disjoint, non-adjacent inclusive runs:
/// up to [`INLINE`] of them in place, more in a vector (from the
/// evaluation's pool).
#[derive(Clone, Debug)]
enum Runs {
    Inline(u8, [Run; INLINE]),
    Heap(Vec<Run>),
}

/// The runs a set holds before it needs a vector: a point, a window,
/// one section of a strided leaf and what a cut leaves of it.
const INLINE: usize = 2;

impl Default for Runs {
    fn default() -> Runs {
        Runs::Inline(0, [(0, 0); INLINE])
    }
}

impl Runs {
    fn one(lo: i64, hi: i64) -> Runs {
        Runs::Inline(1, [(lo, hi); INLINE])
    }

    #[inline]
    fn as_slice(&self) -> &[Run] {
        match self {
            Runs::Inline(len, runs) => &runs[..*len as usize],
            Runs::Heap(runs) => runs,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn clear(&mut self) {
        match self {
            Runs::Inline(len, _) => *len = 0,
            Runs::Heap(runs) => runs.clear(),
        }
    }

    /// Replaces the runs `a .. b` with `pieces`.
    fn splice(&mut self, a: usize, b: usize, pieces: &[Run], pool: &mut Vec<Vec<Run>>) {
        match self {
            Runs::Inline(len, runs) => {
                let n = *len as usize;
                let m = n - (b - a) + pieces.len();
                if m <= INLINE {
                    runs.copy_within(b..n, a + pieces.len());
                    runs[a..a + pieces.len()].copy_from_slice(pieces);
                    *len = m as u8;
                } else {
                    let mut heap = pool.pop().unwrap_or_default();
                    heap.extend_from_slice(&runs[..a]);
                    heap.extend_from_slice(pieces);
                    heap.extend_from_slice(&runs[b..n]);
                    *self = Runs::Heap(heap);
                }
            }
            Runs::Heap(runs) => {
                let kept = pieces.len().min(b - a);
                runs[a..a + kept].copy_from_slice(&pieces[..kept]);
                if kept < b - a {
                    runs.drain(a + kept..b);
                } else {
                    for (k, piece) in pieces[kept..].iter().enumerate() {
                        runs.insert(b + k, *piece);
                    }
                }
            }
        }
    }

    /// Adds `[lo, hi]`, absorbing every run it overlaps or touches.
    #[inline]
    fn insert(&mut self, lo: i64, hi: i64, pool: &mut Vec<Vec<Run>>) {
        let runs = self.as_slice();
        let n = runs.len();
        // Past the last run: the common case of an ascending union.
        if runs.last().is_none_or(|&(_, e)| e.saturating_add(1) < lo) {
            return self.splice(n, n, &[(lo, hi)], pool);
        }
        // The runs from `a` to `b` overlap or touch `[lo, hi]`.
        let a = runs.partition_point(|&(_, e)| e.saturating_add(1) < lo);
        let b = a + runs[a..].partition_point(|&(s, _)| s <= hi.saturating_add(1));
        let merged = if a == b {
            (lo, hi)
        } else {
            (runs[a].0.min(lo), runs[b - 1].1.max(hi))
        };
        self.splice(a, b, &[merged], pool);
    }

    /// Removes every index of `[lo, hi]`.
    fn remove(&mut self, lo: i64, hi: i64, pool: &mut Vec<Vec<Run>>) {
        let runs = self.as_slice();
        let (a, b) = overlapping_at(runs, lo, hi);
        if a == b {
            return;
        }
        // What is left of the cut runs: their parts below and above.
        let (first, last) = (runs[a].0, runs[b - 1].1);
        let mut pieces = [(0, 0); 2];
        let mut k = 0;
        for (keep, piece) in [(first < lo, (first, lo - 1)), (last > hi, (hi + 1, last))] {
            if keep {
                pieces[k] = piece;
                k += 1;
            }
        }
        self.splice(a, b, &pieces[..k], pool);
    }
}

/// The index range of the runs that share an index with `[lo, hi]`.
#[inline]
fn overlapping_at(runs: &[Run], lo: i64, hi: i64) -> (usize, usize) {
    let a = runs.partition_point(|&(_, e)| e < lo);
    (a, a + runs[a..].partition_point(|&(s, _)| s <= hi))
}

/// The runs that share an index with `[lo, hi]`, ascending.
fn overlapping(runs: &[Run], lo: i64, hi: i64) -> &[Run] {
    let (a, b) = overlapping_at(runs, lo, hi);
    &runs[a..b]
}

/// Whether some index of `[lo, hi]` is in `runs`.
#[inline]
fn meets(runs: &[Run], lo: i64, hi: i64) -> bool {
    let k = runs.partition_point(|&(s, _)| s <= hi);
    k > 0 && runs[k - 1].1 >= lo
}

/// Whether every index of `[lo, hi]` is in `runs` (runs never touch,
/// so one run must hold all of it).
#[inline]
fn covers(runs: &[Run], lo: i64, hi: i64) -> bool {
    let k = runs.partition_point(|&(s, _)| s <= lo);
    k > 0 && runs[k - 1].1 >= hi
}

/// A materialized operand: built for this evaluation, or a handle on a
/// kept prefix (never copied to be read).
enum Set {
    Owned(Runs),
    Kept(Rc<Runs>),
}

impl std::ops::Deref for Set {
    type Target = Runs;
    fn deref(&self) -> &Runs {
        match self {
            Set::Owned(r) => r,
            Set::Kept(r) => r,
        }
    }
}

impl Set {
    fn into_owned(self) -> Runs {
        match self {
            Set::Owned(r) => r,
            Set::Kept(r) => Rc::try_unwrap(r).unwrap_or_else(|shared| (*shared).clone()),
        }
    }
}

/// The running union of one `RecPartial` node (rule 1).
struct Prefix {
    /// The values of the node's `env` slots when the union was started.
    env: Vec<Option<i64>>,
    /// The evaluated lower bound the union was started from.
    lo: i64,
    /// The next iteration to add: `lo .. next` is covered.
    next: i64,
    set: Rc<Runs>,
}

/// What a `Fixed` node answered, with the units it took: as
/// [`Pass::empty`], [`Pass::set`], and [`Pass::collect`] (the union of
/// the runs it adds).
#[derive(Clone, Default)]
struct Memo {
    empty: Option<(bool, u64)>,
    set: Option<(Rc<Runs>, u64)>,
    collect: Option<(Rc<Runs>, u64)>,
}

/// One evaluation of a plan: the bindings, the unit meter, the kept
/// prefixes and the buffers it recycles.
struct Pass<'p> {
    plan: &'p ExactPlan,
    env: Env<'p>,
    budget: u64,
    units: u64,
    prefixes: Vec<Option<Prefix>>,
    /// Per `Fixed` node, what each way of asking answered and cost.
    memo: Vec<Memo>,
    /// [`shape`]'s buffer, reused from leaf to leaf.
    dims: Vec<(i64, i64)>,
    /// Run vectors no set holds any more.
    pool: Vec<Vec<Run>>,
}

impl<'p> Pass<'p> {
    /// Charges one unit; `None` once the budget is exhausted.
    #[inline]
    fn charge(&mut self) -> Option<()> {
        self.units += 1;
        (self.units <= self.budget).then_some(())
    }

    /// Charges `cost` units as that many [`Pass::charge`] calls would:
    /// the count stops at the first unit past the budget.
    fn charge_all(&mut self, cost: u64) -> Option<()> {
        if self.units.saturating_add(cost) <= self.budget {
            self.units += cost;
            Some(())
        } else {
            self.units = self.budget + 1;
            None
        }
    }

    /// Hands an operand's vector back to the pool.
    fn recycle(&mut self, s: Set) {
        if let Set::Owned(Runs::Heap(mut runs)) = s {
            runs.clear();
            self.pool.push(runs);
        }
    }

    /// Whether node `n` is empty, stopping at the first index found.
    fn empty(&mut self, n: NodeId) -> Option<bool> {
        let plan = self.plan;
        let Some(n) = self.open(n)? else {
            return Some(true);
        };
        match &plan.nodes[n as usize] {
            Node::Empty => Some(true),
            Node::Point(at) => {
                self.charge()?;
                at.eval(&self.env)?;
                Some(false)
            }
            Node::Leaf(shapes) => {
                let mut empty = true;
                for l in shapes.iter() {
                    self.charge()?;
                    empty &= shape(l, &self.env, &mut self.dims)?.is_none();
                }
                Some(empty)
            }
            Node::Union(a, b) => Some(self.empty(*a)? && self.empty(*b)?),
            Node::Intersect(a, b) => {
                let probe = self.operand(*a)?;
                let hit = self.hits(&probe, *b)?;
                self.recycle(probe);
                Some(!hit)
            }
            Node::Subtract(a, b) => {
                let (x, y) = (self.operand(*a)?, self.operand(*b)?);
                for &(lo, hi) in x.as_slice() {
                    self.charge()?;
                    if !covers(y.as_slice(), lo, hi) {
                        return Some(false);
                    }
                }
                self.recycle(x);
                self.recycle(y);
                Some(true)
            }
            Node::Gate(..) => unreachable!("opened"),
            Node::RecTotal { slot, lo, hi, body } => {
                let (lo, hi) = (lo.eval(&self.env)?, hi.eval(&self.env)?);
                for iv in lo..=hi {
                    self.charge()?;
                    self.env.slots[*slot as usize] = Some(iv);
                    if !self.empty(*body)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Node::RecPartial { .. } => {
                let s = self.set(n)?;
                Some(s.is_empty())
            }
            Node::Fixed { inner, memo } => {
                if let Some((empty, cost)) = self.memo[*memo as usize].empty {
                    self.charge_all(cost)?;
                    return Some(empty);
                }
                let before = self.units;
                let empty = self.empty(*inner)?;
                self.memo[*memo as usize].empty = Some((empty, self.units - before));
                Some(empty)
            }
        }
    }

    /// Whether node `n` shares an index with `probe`. `n` is walked, not
    /// built: unions and recurrences probe operand by operand and stop
    /// at the first hit, a kept prefix is probed in place.
    fn hits(&mut self, probe: &Runs, n: NodeId) -> Option<bool> {
        let plan = self.plan;
        let Some(n) = self.open(n)? else {
            return Some(false);
        };
        match &plan.nodes[n as usize] {
            Node::Empty => Some(false),
            Node::Point(at) => {
                let at = at.eval(&self.env)?;
                self.charge()?;
                Some(meets(probe.as_slice(), at, at))
            }
            Node::Leaf(shapes) => {
                for l in shapes.iter() {
                    let hit = self.runs_of(l, |pass, lo, hi| {
                        pass.charge()?;
                        Some(meets(probe.as_slice(), lo, hi))
                    })?;
                    if hit {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Node::Union(a, b) => Some(self.hits(probe, *a)? || self.hits(probe, *b)?),
            Node::Fixed { inner, .. } => self.hits(probe, *inner),
            Node::Gate(..) => unreachable!("opened"),
            Node::RecTotal { slot, lo, hi, body } => {
                let (lo, hi) = (lo.eval(&self.env)?, hi.eval(&self.env)?);
                for iv in lo..=hi {
                    self.charge()?;
                    self.env.slots[*slot as usize] = Some(iv);
                    if self.hits(probe, *body)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Node::Intersect(..) | Node::Subtract(..) | Node::RecPartial { .. } => {
                let other = self.operand(n)?;
                // Probe the smaller side into the larger.
                let (few, many) = if probe.len() <= other.len() {
                    (probe.as_slice(), other.as_slice())
                } else {
                    (other.as_slice(), probe.as_slice())
                };
                for &(lo, hi) in few {
                    self.charge()?;
                    if meets(many, lo, hi) {
                        return Some(true);
                    }
                }
                self.recycle(other);
                Some(false)
            }
        }
    }

    /// `n` with its gates opened: the node under them, or `None` when
    /// one is closed (the set is empty).
    #[inline]
    fn open(&self, mut n: NodeId) -> Option<Option<NodeId>> {
        while let Node::Gate(p, body) = &self.plan.nodes[n as usize] {
            if !p.holds(&self.env)? {
                return Some(None);
            }
            n = *body;
        }
        Some(Some(n))
    }

    /// [`Pass::set`] of `{a} ∩ {b}`, or of `{a} − {b}` when
    /// `subtract`, charged as the general arms charge it: each operand,
    /// then the probe or the cut, and for a common point its copy.
    fn points(&mut self, a: &Poly, b: &Poly, subtract: bool) -> Option<Set> {
        let a = a.eval(&self.env)?;
        self.charge()?;
        let b = b.eval(&self.env)?;
        let copied = u64::from(a == b && !subtract);
        (0..2 + copied).try_for_each(|_| self.charge())?;
        let kept = (a == b) != subtract;
        Some(Set::Owned(if kept {
            Runs::one(a, a)
        } else {
            Runs::default()
        }))
    }

    /// [`Pass::set`] with gates opened and a leaf, a point and a pair
    /// of points decided without the call (the callers' hot operands).
    #[inline]
    fn operand(&mut self, n: NodeId) -> Option<Set> {
        let Some(n) = self.open(n)? else {
            return Some(Set::Owned(Runs::default()));
        };
        let nodes = &self.plan.nodes;
        match &nodes[n as usize] {
            Node::Point(at) => {
                let at = at.eval(&self.env)?;
                self.charge()?;
                Some(Set::Owned(Runs::one(at, at)))
            }
            node @ (Node::Intersect(a, b) | Node::Subtract(a, b)) => {
                match (&nodes[*a as usize], &nodes[*b as usize]) {
                    (Node::Point(a), Node::Point(b)) => {
                        self.points(a, b, matches!(node, Node::Subtract(..)))
                    }
                    _ => self.set(n),
                }
            }
            Node::Leaf(shapes) => {
                let mut out = Runs::default();
                self.leaf(shapes, &mut out)?;
                Some(Set::Owned(out))
            }
            _ => self.set(n),
        }
    }

    /// The set node `n` denotes. Both operands of a binary node are
    /// always evaluated, so what is undefined for the reference is
    /// undefined here.
    fn set(&mut self, n: NodeId) -> Option<Set> {
        let plan = self.plan;
        let Some(n) = self.open(n)? else {
            return Some(Set::Owned(Runs::default()));
        };
        match &plan.nodes[n as usize] {
            Node::Intersect(a, b) => {
                let (x, y) = (self.operand(*a)?, self.operand(*b)?);
                let (few, many) = if x.len() <= y.len() {
                    (&x, &y)
                } else {
                    (&y, &x)
                };
                let mut out = Runs::default();
                for &(lo, hi) in few.as_slice() {
                    self.charge()?;
                    for &(s, e) in overlapping(many.as_slice(), lo, hi) {
                        self.charge()?;
                        out.insert(s.max(lo), e.min(hi), &mut self.pool);
                    }
                }
                self.recycle(x);
                self.recycle(y);
                Some(Set::Owned(out))
            }
            Node::Subtract(a, b) => {
                let (x, y) = (self.operand(*a)?, self.operand(*b)?);
                if x.is_empty() || y.is_empty() {
                    self.recycle(y);
                    return Some(x);
                }
                let mut out = x.into_owned();
                // Cut whichever way takes fewer cuts.
                if y.len() <= out.len() {
                    for &(lo, hi) in y.as_slice() {
                        self.charge()?;
                        out.remove(lo, hi, &mut self.pool);
                    }
                } else {
                    let mut mine = self.pool.pop().unwrap_or_default();
                    mine.extend_from_slice(out.as_slice());
                    for &(lo, hi) in &mine {
                        self.charge()?;
                        for &(s, e) in overlapping(y.as_slice(), lo, hi) {
                            self.charge()?;
                            out.remove(s, e, &mut self.pool);
                        }
                    }
                    mine.clear();
                    self.pool.push(mine);
                }
                self.recycle(y);
                Some(Set::Owned(out))
            }
            Node::Gate(..) => unreachable!("opened"),
            Node::RecPartial {
                slot,
                lo,
                hi,
                body,
                prefix,
                env,
            } => {
                let range = (lo.eval(&self.env)?, hi.eval(&self.env)?);
                let kept = self.prefix(*prefix as usize, *slot, range, *body, env)?;
                Some(Set::Kept(kept))
            }
            Node::Point(at) => {
                let at = at.eval(&self.env)?;
                self.charge()?;
                Some(Set::Owned(Runs::one(at, at)))
            }
            Node::Fixed { inner, memo } => {
                if let Some((set, cost)) = &self.memo[*memo as usize].set {
                    let set = set.clone();
                    self.charge_all(*cost)?;
                    return Some(Set::Kept(set));
                }
                let before = self.units;
                let set = match self.operand(*inner)? {
                    Set::Owned(runs) => Rc::new(runs),
                    Set::Kept(runs) => runs,
                };
                self.memo[*memo as usize].set = Some((set.clone(), self.units - before));
                Some(Set::Kept(set))
            }
            Node::Leaf(shapes) => {
                let mut out = Runs::default();
                self.leaf(shapes, &mut out)?;
                Some(Set::Owned(out))
            }
            Node::Empty | Node::Union(..) | Node::RecTotal { .. } => {
                let mut out = Runs::default();
                self.collect(n, &mut out)?;
                Some(Set::Owned(out))
            }
        }
    }

    /// Adds the set node `n` denotes to `out` (unions and recurrences
    /// write straight into the accumulator).
    fn collect(&mut self, n: NodeId, out: &mut Runs) -> Option<()> {
        let plan = self.plan;
        let Some(n) = self.open(n)? else {
            return Some(());
        };
        match &plan.nodes[n as usize] {
            Node::Empty => Some(()),
            Node::Point(at) => {
                let at = at.eval(&self.env)?;
                self.charge()?;
                out.insert(at, at, &mut self.pool);
                Some(())
            }
            Node::Leaf(shapes) => self.leaf(shapes, out),
            Node::Union(a, b) => {
                self.collect(*a, out)?;
                self.collect(*b, out)
            }
            Node::Fixed { inner, memo } => {
                let runs = match &self.memo[*memo as usize].collect {
                    Some((runs, cost)) => {
                        let runs = runs.clone();
                        self.charge_all(*cost)?;
                        runs
                    }
                    None => {
                        let (before, mut runs) = (self.units, Runs::default());
                        self.collect(*inner, &mut runs)?;
                        let runs = Rc::new(runs);
                        self.memo[*memo as usize].collect =
                            Some((runs.clone(), self.units - before));
                        runs
                    }
                };
                for &(lo, hi) in runs.as_slice() {
                    out.insert(lo, hi, &mut self.pool);
                }
                Some(())
            }
            Node::Gate(..) => unreachable!("opened"),
            Node::RecTotal { slot, lo, hi, body } => {
                let (lo, hi) = (lo.eval(&self.env)?, hi.eval(&self.env)?);
                for iv in lo..=hi {
                    self.charge()?;
                    self.env.slots[*slot as usize] = Some(iv);
                    self.collect(*body, out)?;
                }
                Some(())
            }
            Node::Intersect(..) | Node::Subtract(..) | Node::RecPartial { .. } => {
                let part = self.operand(n)?;
                for &(lo, hi) in part.as_slice() {
                    self.charge()?;
                    out.insert(lo, hi, &mut self.pool);
                }
                self.recycle(part);
                Some(())
            }
        }
    }

    /// Adds a leaf's runs to `out`.
    fn leaf(&mut self, shapes: &[Shape], out: &mut Runs) -> Option<()> {
        for l in shapes {
            self.runs_of(l, |pass, lo, hi| {
                pass.charge()?;
                out.insert(lo, hi, &mut pass.pool);
                Some(false)
            })?;
        }
        Some(())
    }

    /// Rule 1: the union of `body` over `slot ∈ lo ..= hi`, extended
    /// from the kept entry `k` when that entry was started from the same
    /// `lo` under the same `env` values and covers no more than `hi`;
    /// restarted otherwise.
    fn prefix(
        &mut self,
        k: usize,
        slot: Slot,
        (lo, hi): (i64, i64),
        body: NodeId,
        env: &[Slot],
    ) -> Option<Rc<Runs>> {
        // Out of the table while it grows: the body may hold other
        // prefixes. An undefined or over-budget iteration ends the
        // whole evaluation, so a half-extended entry is never read.
        let mut p = self.prefixes[k].take().unwrap_or_else(|| Prefix {
            env: Vec::new(),
            lo,
            next: lo,
            set: Rc::default(),
        });
        let slots = &self.env.slots;
        let reusable = p.lo == lo
            && p.next.checked_sub(1).is_some_and(|covered| covered <= hi)
            && p.env.len() == env.len()
            && env
                .iter()
                .zip(&p.env)
                .all(|(s, v)| slots[*s as usize] == *v);
        if !reusable {
            p.env.clear();
            p.env.extend(env.iter().map(|s| slots[*s as usize]));
            p.lo = lo;
            p.next = lo;
            match Rc::get_mut(&mut p.set) {
                Some(set) => set.clear(),
                None => p.set = Rc::default(),
            }
        }
        // Unique unless a caller still holds the handle of an earlier
        // evaluation, which then keeps its own snapshot.
        let set = Rc::make_mut(&mut p.set);
        while p.next <= hi {
            self.charge()?;
            self.env.slots[slot as usize] = Some(p.next);
            self.collect(body, set)?;
            p.next = p.next.checked_add(1)?;
        }
        let handle = p.set.clone();
        self.prefixes[k] = Some(p);
        Some(handle)
    }

    /// Calls `f` with the runs of `l` until it answers `true` ("stop");
    /// returns whether it did.
    fn runs_of(
        &mut self,
        l: &Shape,
        mut f: impl FnMut(&mut Self, i64, i64) -> Option<bool>,
    ) -> Option<bool> {
        // A point (`P(i)`, the commonest leaf) is its own run; fixed
        // dimensions listed their runs when the evaluation started. (The
        // relative starts sum non-negative terms, so the offset plus one
        // overflows exactly where the nested sums would.)
        let listed = match l.fixed.map(|k| self.env.fixed[k as usize]) {
            None if l.dims.is_empty() => Some((1, 0, 0)),
            Some(Folded::Runs { width, at, end }) => Some((width, at, end)),
            _ => None,
        };
        if let Some((width, at, end)) = listed {
            let offset = l.offset.eval(&self.env)?;
            if at == end {
                return f(self, offset, offset.checked_add(width - 1)?);
            }
            for k in at..end {
                let base = offset.checked_add(self.env.bases[k])?;
                if f(self, base, base.checked_add(width - 1)?)? {
                    return Some(true);
                }
            }
            return Some(false);
        }
        // Out of `self` while `f` borrows it; an early `?` only loses
        // the buffer's capacity.
        let mut dims = std::mem::take(&mut self.dims);
        let Some((offset, width)) = shape(l, &self.env, &mut dims)? else {
            self.dims = dims;
            return Some(false);
        };
        let stopped = each_base(self, &dims, offset, &mut |pass: &mut Self, base: i64| {
            f(pass, base, base.checked_add(width - 1)?)
        })?;
        self.dims = dims;
        Some(stopped)
    }
}

/// Evaluates `l` to `(offset, width)` — positions, each the start of a
/// run of `width` consecutive indices — and leaves in `dims` the
/// `(stride, steps)` of the dimensions that do not fold into the run:
/// positions are `offset + Σ j·stride`, `0 ≤ j ≤ steps`.
///
/// Components are evaluated in [`Lmad::enumerate`]'s order, so the two
/// are undefined on the same inputs: `None` on an unbound component or
/// a non-positive stride, `Some(None)` for the empty set (a negative
/// span, met before any later dimension is looked at). Dimensions fixed
/// for the evaluation were folded when it started: the same answer.
fn shape(l: &Shape, env: &Env<'_>, dims: &mut Vec<(i64, i64)>) -> Option<Option<(i64, i64)>> {
    let offset = l.offset.eval(env)?;
    let width = match l.fixed.map(|k| env.fixed[k as usize]) {
        Some(Folded::Undefined) => return None,
        Some(Folded::Empty) => None,
        // Only [`Pass::runs_of`] enumerates, and it reads the bases.
        Some(Folded::Runs { width, .. }) => Some(width),
        Some(Folded::Many) | None => fold(&l.dims, env, dims)?,
    };
    Some(width.map(|width| (offset, width)))
}

/// [`shape`]'s dimensions: the run's width, `dims` left holding those
/// that do not fold into it.
fn fold(lmad: &[(Poly, Poly)], env: &Env<'_>, dims: &mut Vec<(i64, i64)>) -> Option<Option<i64>> {
    dims.clear();
    for (stride, span) in lmad {
        let stride = stride.eval(env)?;
        let span = span.eval(env)?;
        if span < 0 {
            return Some(None);
        }
        if stride <= 0 {
            return None;
        }
        if span >= stride {
            dims.push((stride, span / stride));
        }
    }
    // Rule 3: narrowest stride first, a dimension whose stride does not
    // exceed the width reached so far extends the run instead of
    // multiplying the positions.
    dims.sort_unstable();
    let mut width = 1i64;
    let mut folded = Some(());
    dims.retain(|&(stride, steps)| {
        if stride > width {
            return true;
        }
        match stride.checked_mul(steps).and_then(|s| width.checked_add(s)) {
            Some(w) => width = w,
            None => folded = None,
        }
        false
    });
    folded?;
    Some(Some(width))
}

/// Calls `f` with the positions `base + Σ j·stride` of `dims` (last
/// dimension outermost) until it answers `true`; returns whether it did.
fn each_base<P, F: FnMut(&mut P, i64) -> Option<bool>>(
    pass: &mut P,
    dims: &[(i64, i64)],
    base: i64,
    f: &mut F,
) -> Option<bool> {
    let Some(((stride, steps), rest)) = dims.split_last() else {
        return f(pass, base);
    };
    for j in 0..=*steps {
        if each_base(pass, rest, base.checked_add(j.checked_mul(*stride)?)?, f)? {
            return Some(true);
        }
    }
    Some(false)
}
