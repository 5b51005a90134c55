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
//! 3. **Runs.** An index set is a sorted map of disjoint, non-adjacent
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
//! # Why a kept prefix may be reused
//!
//! Under a fixed context the set `∪_{v=lo}^{h} body(v)` is a function of
//! `lo`, `h`, the values of `body`'s free scalars other than `v`, and the
//! arrays it indexes. Arrays cannot change during one call (the context
//! is borrowed immutably), so a prefix is keyed by node identity
//! ([`Usr::id`], stable while the caller's `&Usr` is alive) plus the
//! evaluated `lo` and those scalar values: when they agree with the kept
//! entry and `h` did not shrink, the kept union is exactly the part of
//! the requested one over `lo ..= kept h`, and only the iterations above
//! it are missing. Anything else starts over. `solvh` is the worked
//! case: `Upartial[kk=1..k-1](… IB(i) …)` sits under `U[k=1..IA(i)]`
//! under `U[i=1..N]`; while `k` steps the prefix grows by one `kk` per
//! step, and when `i` steps the body's free `i` has a new value (and `k`
//! falls back to 1, so `hi` shrinks), so it restarts — `IA(i)` insertions
//! per `i`, linear overall.
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

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use lip_lmad::Lmad;
use lip_symbolic::{EvalCtx, ScopedCtx, Sym, SymExpr};

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
/// most `budget` work units (see the module documentation).
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
    let mut pass = Pass {
        budget,
        units: 0,
        prefixes: HashMap::new(),
        dims: Vec::new(),
    };
    let verdict = pass.empty(u, ctx);
    Exact {
        verdict,
        units: pass.units,
    }
}

/// A set of indices as disjoint, non-adjacent inclusive runs keyed by
/// their low end.
#[derive(Clone, Default, Debug)]
struct Runs(BTreeMap<i64, i64>);

impl Runs {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn iter(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.0.iter().map(|(lo, hi)| (*lo, *hi))
    }

    /// The runs that share an index with `[lo, hi]`, ascending.
    fn overlapping(&self, lo: i64, hi: i64) -> impl Iterator<Item = (i64, i64)> + '_ {
        let straddling = self.0.range(..lo).next_back().filter(|(_, e)| **e >= lo);
        straddling
            .into_iter()
            .chain(self.0.range(lo..=hi))
            .map(|(s, e)| (*s, *e))
    }

    /// Adds `[lo, hi]`, absorbing every run it overlaps or touches.
    fn insert(&mut self, mut lo: i64, mut hi: i64) {
        if let Some((&s, &e)) = self.0.range(..lo).next_back() {
            if e >= hi {
                return;
            }
            if e.saturating_add(1) >= lo {
                lo = s;
                self.0.remove(&s);
            }
        }
        while let Some((&s, &e)) = self.0.range(lo..=hi.saturating_add(1)).next() {
            hi = hi.max(e);
            self.0.remove(&s);
        }
        self.0.insert(lo, hi);
    }

    /// Removes every index of `[lo, hi]`.
    fn remove(&mut self, lo: i64, hi: i64) {
        let cut: Vec<(i64, i64)> = self.overlapping(lo, hi).collect();
        for (s, e) in cut {
            self.0.remove(&s);
            if s < lo {
                self.0.insert(s, lo - 1);
            }
            if e > hi {
                self.0.insert(hi + 1, e);
            }
        }
    }

    /// Whether some index of `[lo, hi]` is in the set.
    fn hits(&self, lo: i64, hi: i64) -> bool {
        self.0
            .range(..=hi)
            .next_back()
            .is_some_and(|(_, e)| *e >= lo)
    }

    /// Whether every index of `[lo, hi]` is in the set (runs never
    /// touch, so one run must hold all of it).
    fn covers(&self, lo: i64, hi: i64) -> bool {
        self.0
            .range(..=lo)
            .next_back()
            .is_some_and(|(_, e)| *e >= hi)
    }
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
    /// The body's free symbols other than the recurrence variable.
    syms: Vec<Sym>,
    /// Their scalar bindings when the union was started.
    env: Vec<Option<i64>>,
    /// The evaluated lower bound the union was started from.
    lo: i64,
    /// The next iteration to add: `lo .. next` is covered.
    next: i64,
    set: Rc<Runs>,
}

/// One call of [`independent`]: the unit meter and the kept prefixes.
struct Pass {
    budget: u64,
    units: u64,
    prefixes: HashMap<usize, Prefix>,
    /// [`shape`]'s buffer, reused from leaf to leaf.
    dims: Vec<(i64, i64)>,
}

impl Pass {
    /// Charges one unit; `None` once the budget is exhausted.
    fn charge(&mut self) -> Option<()> {
        self.units += 1;
        (self.units <= self.budget).then_some(())
    }

    /// Whether `u` is empty, stopping at the first index found.
    fn empty(&mut self, u: &Usr, ctx: &dyn EvalCtx) -> Option<bool> {
        match u.node() {
            UsrNode::Empty => Some(true),
            UsrNode::Leaf(set) => {
                let mut empty = true;
                for l in set.lmads() {
                    self.charge()?;
                    empty &= shape(l, ctx, &mut self.dims)?.is_none();
                }
                Some(empty)
            }
            UsrNode::Union(a, b) => Some(self.empty(a, ctx)? && self.empty(b, ctx)?),
            UsrNode::Intersect(a, b) => {
                let probe = self.set(a, ctx)?;
                Some(!self.hits(&probe, b, ctx)?)
            }
            UsrNode::Subtract(a, b) => {
                let (x, y) = (self.set(a, ctx)?, self.set(b, ctx)?);
                for (lo, hi) in x.iter() {
                    self.charge()?;
                    if !y.covers(lo, hi) {
                        return Some(false);
                    }
                }
                Some(true)
            }
            UsrNode::Gate(p, body) => {
                if p.eval(ctx)? {
                    self.empty(body, ctx)
                } else {
                    Some(true)
                }
            }
            UsrNode::Call(_, body) => self.empty(body, ctx),
            UsrNode::RecTotal { var, lo, hi, body } => {
                let (lo, hi) = bounds(lo, hi, ctx)?;
                for iv in lo..=hi {
                    self.charge()?;
                    if !self.empty(body, &ScopedCtx::new(ctx, *var, iv))? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            UsrNode::RecPartial { .. } => Some(self.set(u, ctx)?.is_empty()),
        }
    }

    /// Whether `u` shares an index with `probe`. `u` is walked, not
    /// built: unions and recurrences probe operand by operand and stop
    /// at the first hit, a kept prefix is probed in place.
    fn hits(&mut self, probe: &Runs, u: &Usr, ctx: &dyn EvalCtx) -> Option<bool> {
        match u.node() {
            UsrNode::Empty => Some(false),
            UsrNode::Leaf(set) => {
                for l in set.lmads() {
                    let hit = self.runs_of(l, ctx, &mut |pass, lo, hi| {
                        pass.charge()?;
                        Some(probe.hits(lo, hi))
                    })?;
                    if hit {
                        return Some(true);
                    }
                }
                Some(false)
            }
            UsrNode::Union(a, b) => Some(self.hits(probe, a, ctx)? || self.hits(probe, b, ctx)?),
            UsrNode::Gate(p, body) => {
                if p.eval(ctx)? {
                    self.hits(probe, body, ctx)
                } else {
                    Some(false)
                }
            }
            UsrNode::Call(_, body) => self.hits(probe, body, ctx),
            UsrNode::RecTotal { var, lo, hi, body } => {
                let (lo, hi) = bounds(lo, hi, ctx)?;
                for iv in lo..=hi {
                    self.charge()?;
                    if self.hits(probe, body, &ScopedCtx::new(ctx, *var, iv))? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            UsrNode::Intersect(..) | UsrNode::Subtract(..) | UsrNode::RecPartial { .. } => {
                let other = self.set(u, ctx)?;
                // Probe the smaller side into the larger.
                let (few, many) = if probe.len() <= other.len() {
                    (probe, &*other)
                } else {
                    (&*other, probe)
                };
                for (lo, hi) in few.iter() {
                    self.charge()?;
                    if many.hits(lo, hi) {
                        return Some(true);
                    }
                }
                Some(false)
            }
        }
    }

    /// The set `u` denotes. Both operands of a binary node are always
    /// evaluated, so what is undefined for the reference is undefined
    /// here.
    fn set(&mut self, u: &Usr, ctx: &dyn EvalCtx) -> Option<Set> {
        match u.node() {
            UsrNode::Intersect(a, b) => {
                let (x, y) = (self.set(a, ctx)?, self.set(b, ctx)?);
                let (few, many) = if x.len() <= y.len() { (x, y) } else { (y, x) };
                let mut out = Runs::default();
                for (lo, hi) in few.iter() {
                    self.charge()?;
                    for (s, e) in many.overlapping(lo, hi) {
                        self.charge()?;
                        out.0.insert(s.max(lo), e.min(hi));
                    }
                }
                Some(Set::Owned(out))
            }
            UsrNode::Subtract(a, b) => {
                let (x, y) = (self.set(a, ctx)?, self.set(b, ctx)?);
                if x.is_empty() || y.is_empty() {
                    return Some(x);
                }
                let mut out = x.into_owned();
                // Cut whichever way takes fewer cuts.
                if y.len() <= out.len() {
                    for (lo, hi) in y.iter() {
                        self.charge()?;
                        out.remove(lo, hi);
                    }
                } else {
                    let mine: Vec<(i64, i64)> = out.iter().collect();
                    for (lo, hi) in mine {
                        self.charge()?;
                        for (s, e) in y.overlapping(lo, hi) {
                            self.charge()?;
                            out.remove(s, e);
                        }
                    }
                }
                Some(Set::Owned(out))
            }
            UsrNode::Gate(p, body) => {
                if p.eval(ctx)? {
                    self.set(body, ctx)
                } else {
                    Some(Set::Owned(Runs::default()))
                }
            }
            UsrNode::Call(_, body) => self.set(body, ctx),
            UsrNode::RecPartial { var, lo, hi, body } => {
                let range = bounds(lo, hi, ctx)?;
                self.prefix(u.id(), *var, range, body, ctx).map(Set::Kept)
            }
            UsrNode::Empty | UsrNode::Leaf(_) | UsrNode::Union(..) | UsrNode::RecTotal { .. } => {
                let mut out = Runs::default();
                self.collect(u, ctx, &mut out)?;
                Some(Set::Owned(out))
            }
        }
    }

    /// Adds the set `u` denotes to `out` (unions and recurrences write
    /// straight into the accumulator).
    fn collect(&mut self, u: &Usr, ctx: &dyn EvalCtx, out: &mut Runs) -> Option<()> {
        match u.node() {
            UsrNode::Empty => Some(()),
            UsrNode::Leaf(set) => {
                for l in set.lmads() {
                    self.runs_of(l, ctx, &mut |pass, lo, hi| {
                        pass.charge()?;
                        out.insert(lo, hi);
                        Some(false)
                    })?;
                }
                Some(())
            }
            UsrNode::Union(a, b) => {
                self.collect(a, ctx, out)?;
                self.collect(b, ctx, out)
            }
            UsrNode::Gate(p, body) => {
                if p.eval(ctx)? {
                    self.collect(body, ctx, out)
                } else {
                    Some(())
                }
            }
            UsrNode::Call(_, body) => self.collect(body, ctx, out),
            UsrNode::RecTotal { var, lo, hi, body } => {
                let (lo, hi) = bounds(lo, hi, ctx)?;
                for iv in lo..=hi {
                    self.charge()?;
                    self.collect(body, &ScopedCtx::new(ctx, *var, iv), out)?;
                }
                Some(())
            }
            UsrNode::Intersect(..) | UsrNode::Subtract(..) | UsrNode::RecPartial { .. } => {
                let part = self.set(u, ctx)?;
                for (lo, hi) in part.iter() {
                    self.charge()?;
                    out.insert(lo, hi);
                }
                Some(())
            }
        }
    }

    /// Rule 1: the union of `body` over `var ∈ lo ..= hi`, extended from
    /// the kept entry of node `id` when that entry was started from the
    /// same `lo` under the same scalar bindings and covers no more than
    /// `hi`; restarted otherwise.
    fn prefix(
        &mut self,
        id: usize,
        var: Sym,
        (lo, hi): (i64, i64),
        body: &Usr,
        ctx: &dyn EvalCtx,
    ) -> Option<Rc<Runs>> {
        // Out of the table while it grows: the body may hold other
        // prefixes, and an undefined or over-budget iteration must not
        // leave a half-extended entry behind.
        let mut p = self.prefixes.remove(&id).unwrap_or_else(|| {
            let mut syms = body.free_syms();
            syms.remove(&var);
            Prefix {
                syms: syms.into_iter().collect(),
                env: Vec::new(),
                lo,
                next: lo,
                set: Rc::default(),
            }
        });
        let reusable = p.lo == lo
            && p.next.checked_sub(1).is_some_and(|covered| covered <= hi)
            && p.env.len() == p.syms.len()
            && p.syms.iter().zip(&p.env).all(|(s, v)| ctx.scalar(*s) == *v);
        if !reusable {
            p.env.clear();
            p.env.extend(p.syms.iter().map(|s| ctx.scalar(*s)));
            p.lo = lo;
            p.next = lo;
            match Rc::get_mut(&mut p.set) {
                Some(set) => set.0.clear(),
                None => p.set = Rc::default(),
            }
        }
        // Unique unless a caller still holds the handle of an earlier
        // evaluation, which then keeps its own snapshot.
        let set = Rc::make_mut(&mut p.set);
        while p.next <= hi {
            self.charge()?;
            self.collect(body, &ScopedCtx::new(ctx, var, p.next), set)?;
            p.next = p.next.checked_add(1)?;
        }
        let handle = p.set.clone();
        self.prefixes.insert(id, p);
        Some(handle)
    }

    /// Calls `f` with the runs of `l` until it answers `true` ("stop");
    /// returns whether it did.
    fn runs_of(
        &mut self,
        l: &Lmad,
        ctx: &dyn EvalCtx,
        f: &mut dyn FnMut(&mut Pass, i64, i64) -> Option<bool>,
    ) -> Option<bool> {
        // Out of `self` while `f` borrows it; an early `?` only loses
        // the buffer's capacity.
        let mut dims = std::mem::take(&mut self.dims);
        let Some((offset, width)) = shape(l, ctx, &mut dims)? else {
            self.dims = dims;
            return Some(false);
        };
        let stopped = each_base(self, &dims, offset, &mut |pass, base| {
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
/// span, met before any later dimension is looked at).
fn shape(l: &Lmad, ctx: &dyn EvalCtx, dims: &mut Vec<(i64, i64)>) -> Option<Option<(i64, i64)>> {
    let offset = l.offset().eval(ctx)?;
    dims.clear();
    for d in l.dims() {
        let stride = d.stride.eval(ctx)?;
        let span = d.span.eval(ctx)?;
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
    Some(Some((offset, width)))
}

/// Calls `f` with the positions `base + Σ j·stride` of `dims` (last
/// dimension outermost) until it answers `true`; returns whether it did.
fn each_base(
    pass: &mut Pass,
    dims: &[(i64, i64)],
    base: i64,
    f: &mut dyn FnMut(&mut Pass, i64) -> Option<bool>,
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

/// A recurrence's evaluated bounds (`lo` first, as the reference).
fn bounds(lo: &SymExpr, hi: &SymExpr, ctx: &dyn EvalCtx) -> Option<(i64, i64)> {
    Some((lo.eval(ctx)?, hi.eval(ctx)?))
}
