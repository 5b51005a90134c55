//! Gates on how much heap one cold analysis asks for.
//!
//! The predicate layer is arithmetic on symbolic terms, and what that
//! arithmetic costs is what it allocates: while `SymExpr` was an owned
//! `BTreeMap`, one `solvh` analysis made 695 351 allocations
//! (101.5 MB), `hoist_indirect` 112 605 (16.5 MB) and
//! `offset_crossover` 32 178 (4.9 MB); with shared-slice terms but
//! process-unique binders and identity-keyed factorizer memos, 102 576
//! (9.3 MB), 19 248 (1.6 MB) and 8 374 (0.72 MB). The counts below —
//! exact, and the same on every run — are what keeps terms shared and
//! each sub-problem solved once: a `bench_check` bound of 0.25 on a wall
//! clock would not notice a deep copy or a missed memo creeping back.
//!
//! Its own test binary, because of the counting `#[global_allocator]`.
//! The counters are per thread — one analysis runs on one thread — so
//! whatever the harness and the other tests allocate meanwhile is not
//! in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lip_ir::parse_program;
use lip_runtime::Session;
use lip_suite::KernelShape;
use lip_symbolic::sym;

/// `System`, counting this thread's calls and requested bytes.
struct Counting;

thread_local! {
    /// `(allocations, bytes)` so far on this thread. No destructor, so
    /// the allocator may touch it at any point of a thread's life.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| {
        let (allocs, total) = a.get();
        a.set((allocs + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches a
// thread-local `Cell` and no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` of one cold analysis of `shape`: a fresh
/// session, the program parsed before the window opens.
fn cold_analysis(shape: &KernelShape) -> (u64, u64) {
    let prog = parse_program(shape.source).expect("parses");
    let (sub, label) = (sym(shape.sub), shape.label);
    let session = Session::builder().build();
    let (a0, b0) = ALLOCATED.get();
    let analysis = session.analyze(&prog, sub, label).expect("analyzable");
    let (a1, b1) = ALLOCATED.get();
    drop(analysis);
    (a1 - a0, b1 - b0)
}

/// Bounds 10–15 % above what canonical binders and structural memo keys
/// reach (36 375 / 7 324 / 3 528 allocations, 3.36 / 0.68 / 0.34 MB),
/// and the same count twice: a few allocations of slack for the
/// interner's own tables, which grow when they grow.
fn gate(shape: &KernelShape, max_allocs: u64, max_bytes: u64) {
    // The first analysis in a process interns the kernel's names.
    cold_analysis(shape);
    let (allocs, bytes) = cold_analysis(shape);
    println!("{}: {allocs} allocations, {bytes} bytes", shape.name);
    assert!(
        allocs <= max_allocs,
        "{}: {allocs} allocations, bound {max_allocs}",
        shape.name
    );
    assert!(
        bytes <= max_bytes,
        "{}: {bytes} bytes allocated, bound {max_bytes}",
        shape.name
    );
    let (again, _) = cold_analysis(shape);
    assert!(
        allocs.abs_diff(again) <= 8,
        "{}: {allocs} then {again} allocations for the same analysis",
        shape.name
    );
}

#[test]
fn solvh_cold_analysis_allocations() {
    gate(&lip_suite::SOLVH, 41_000, 3_800_000);
}

#[test]
fn hoist_indirect_cold_analysis_allocations() {
    gate(&lip_suite::HOIST_INDIRECT, 8_300, 770_000);
}

#[test]
fn offset_crossover_cold_analysis_allocations() {
    gate(&lip_suite::OFFSET_CROSSOVER, 4_000, 390_000);
}
