//! Gates on what a CALL asks of the heap.
//!
//! `solvh` (the paper's Figure 1 loop) makes three CALLs per inner
//! iteration, passing whole arrays and element sections that the
//! callees reshape (`XE(16, *)`, `HE(8, *)`). A callee frame used to be
//! built fresh on every call — its slot vectors, its registers, a new
//! `extents` vector per array argument, a copy-out list — so the run's
//! allocation count grew with the number of calls: before this gate,
//! one VM run of the program made 2 572 allocations at N = 64 (384
//! calls) and 20 492 at N = 512 (3 072 calls), 6.7 per call. Callee
//! frames now hang off the root frame and are reset, not rebuilt, so a
//! run allocates the same 32 times at every N: the root frame, one
//! frame per callee, and the store write-back.
//!
//! Its own test binary, because of the counting `#[global_allocator]`.
//! The counters are per thread — the run is sequential on the test's
//! thread — so whatever the harness and the other tests allocate
//! meanwhile is not in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lip_ir::ExecState;
use lip_vm::{compile_program, optimize_program, Vm};

/// `System`, counting this thread's calls.
struct Counting;

thread_local! {
    /// Allocations so far on this thread. No destructor, so the
    /// allocator may touch it at any point of a thread's life.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches a
// thread-local `Cell` and no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one VM run of `solvh`'s program at `n`, the program
/// compiled and the store prepared before the window opens.
fn solvh_run(n: usize) -> u64 {
    let (mut store, machine) = (lip_suite::SOLVH.prepare)(n);
    let mut prog = compile_program(machine.program()).expect("compiles");
    optimize_program(&mut prog);
    let vm = Vm::new(&prog);
    let mut state = ExecState::default();
    let before = ALLOCATED.get();
    vm.run_with_state(&mut store, &mut state, None)
        .expect("runs");
    ALLOCATED.get() - before
}

#[test]
fn a_call_allocates_nothing_in_steady_state() {
    // The first run on a thread also pays for one-time set-up (the
    // interner's and `std`'s lazily built tables): not a CALL's cost.
    solvh_run(64);
    let small = solvh_run(64);
    let large = solvh_run(512);
    println!("solvh VM run: {small} allocations at N = 64, {large} at N = 512");
    assert_eq!(small, large, "allocations grew with the number of CALLs");
    assert!(small <= 32, "{small} allocations for one run");
}
