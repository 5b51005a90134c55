//! Gates on what a warm loop run asks of the heap.
//!
//! A warm `LoopHandle::run` — the program compiled, the verdicts
//! memoized — plans the run (shape, CIV slice, tests, each array's
//! treatment) and executes it. Plan building is what a small loop's run
//! spends most of its time on, and an allocation per run creeping back
//! into it shows here, by exact count, long before it shows on a clock.
//! Each bound is the count the executor made before its decision became
//! one `Plan` value; a run may allocate less, never more.
//!
//! The exact USR test's evaluation is gated the same way: one
//! evaluation of a lowered plan (what a memo miss runs) allocates its
//! slot and reader tables, its kept prefixes and a few recycled run
//! vectors, never per iteration or per run.
//!
//! Its own test binary, because of the counting `#[global_allocator]`,
//! and its tests take turns (`SERIAL`), because the count is taken on
//! every thread: a chunk may run on a pool worker, and no other test
//! runs meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lip_analysis::{analyze_loop, AnalysisConfig};
use lip_ir::{Store, StoreCtx, Value};
use lip_obs::ObsLevel;
use lip_runtime::{Session, TEST_BUDGET};
use lip_suite::check::deep_copy;
use lip_suite::KernelShape;
use lip_symbolic::sym;
use lip_usr::exact::ExactPlan;

/// `System`, counting every thread's calls.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches one atomic
// and no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

/// Per suite kernel, the allocations of one warm run at n = 64 and at
/// n = 256 (fission on, observer off, two chunks).
const BOUNDS: [(&str, u64, u64); 16] = [
    ("stencil", 21, 21),
    ("solvh", 91, 91),
    ("offset_crossover", 17, 17),
    ("monotone_windows", 22, 22),
    ("index_reduction", 20, 20),
    ("gated_branches", 17, 17),
    ("civ_conditional", 54, 56),
    ("civ_while", 30, 32),
    ("private_scratch", 40, 40),
    ("seq_recurrence", 5, 5),
    ("hoist_indirect", 28, 28),
    ("tls_feedback", 41, 41),
    ("ext_reduction", 20, 20),
    ("static_reduction", 42, 42),
    ("int_histogram", 22, 48),
    ("tiny_loop", 17, 17),
];

/// Allocations of one warm run of `shape`'s loop at `n`: a first run
/// compiles and memoizes, and the input copies are made before the
/// window opens.
fn warm_run(session: &Session, shape: &lip_suite::KernelShape, n: usize) -> u64 {
    let p = shape.prepared(n);
    let handle = session.load(p.machine.program().clone());
    let handle = handle.prepare(sym(p.sub), p.label).expect("loop");
    let (mut first, mut second) = (deep_copy(&p.frame), deep_copy(&p.frame));
    handle.run(&mut first).expect("runs");
    let before = ALLOCATED.load(Ordering::Relaxed);
    handle.run(&mut second).expect("runs");
    ALLOCATED.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_run_allocates_no_more_than_its_bound() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let session = Session::builder()
        .fission(true)
        .observer(ObsLevel::Off)
        .nthreads(2)
        .build();
    let mut over = Vec::new();
    let mut seen = Vec::new();
    for shape in lip_suite::all_shapes() {
        let got = [64, 256].map(|n| warm_run(&session, shape, n));
        seen.push((shape.name, got));
    }
    for (name, got) in &seen {
        println!("{name:<18} {:>6} {:>6}", got[0], got[1]);
    }
    for (name, got) in &seen {
        let bound = BOUNDS.iter().find(|(k, ..)| k == name);
        let (_, at64, at256) = bound.unwrap_or_else(|| panic!("no bound for {name}"));
        if got[0] > *at64 || got[1] > *at256 {
            over.push(format!("{name}: {got:?} against [{at64}, {at256}]"));
        }
    }
    assert!(over.is_empty(), "allocations over their bounds: {over:?}");
}

/// `shape`'s last independence USR (a fissioned loop's: its indirect
/// fragment's) lowered, and its input at `n` with `ints` written into
/// the index array `array`.
fn exact_case(
    shape: &'static KernelShape,
    n: usize,
    array: &str,
    ints: impl IntoIterator<Item = i64>,
) -> (ExactPlan, Store) {
    let p = shape.prepared(n);
    let prog = p.machine.program().clone();
    let cfg = AnalysisConfig::default();
    let a = analyze_loop(&prog, sym(shape.sub), shape.label, &cfg).expect("analysis");
    let frags = a.fission.iter().flat_map(|f| &f.fragments);
    let usr = (frags.filter_map(|f| f.analysis.ind_usr.clone()).last())
        .or(a.ind_usr.clone())
        .expect("an independence USR");
    let buf = &p.frame.array(sym(array)).expect("index array").buf;
    for (k, v) in ints.into_iter().enumerate() {
        buf.set(k, Value::Int(v));
    }
    (ExactPlan::new(&usr), p.frame)
}

/// One exact evaluation's allocations: `hoist_indirect`'s fragment on a
/// shuffled pass-shaped input at n = 192 (`P` a permutation of 1..=n,
/// `Q` one of n+1..=2n) and `solvh` on its fail-shaped input at n = 48
/// (`IB(i) = i`, each section overlapping the next). The tree-walking
/// evaluator this replaced made 3 972 and 2 078; a bound is a ceiling,
/// never raise it.
#[test]
fn one_exact_evaluation_allocates_no_more_than_its_bound() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let shuffled = |n: usize| (0..n).map(move |k| ((k * 7919 + 13) % n) as i64 + 1);
    let (n, mut rows) = (192, Vec::new());
    let (plan, frame) = exact_case(&lip_suite::HOIST_INDIRECT, n, "P", shuffled(n));
    let q = &frame.array(sym("Q")).expect("Q").buf;
    for (k, v) in shuffled(n).enumerate() {
        q.set(n - 1 - k, Value::Int(v + n as i64));
    }
    rows.push((
        "hoist_indirect fragment, n = 192",
        plan,
        frame,
        Some(true),
        32,
    ));
    let (plan, frame) = exact_case(&lip_suite::SOLVH, 48, "IB", 1..=48);
    rows.push(("solvh, n = 48, fail-shaped", plan, frame, Some(false), 35));
    for (name, plan, frame, verdict, bound) in rows {
        let ctx = StoreCtx(&frame);
        let before = ALLOCATED.load(Ordering::Relaxed);
        let e = plan.independent(&ctx, TEST_BUDGET);
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        println!("{name}: {allocated} allocations, {} units", e.units);
        assert_eq!(e.verdict, verdict, "{name}");
        assert!(
            allocated <= bound,
            "{name}: {allocated} allocations against {bound}"
        );
    }
}
