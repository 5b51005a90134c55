//! Stress and edge cases of the persistent chunk-claiming pool behind
//! `lip_pred::pool`: concurrent and nested regions, more chunks than
//! threads, error and panic propagation, worker survival.
//!
//! The tests of one binary run on parallel threads and share the one
//! process-wide pool, which is the point: every region here competes
//! with the others' for the same workers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::{self, ThreadId};

use lip_pred::pool::{chunk_bounds, parallel_chunks};

fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn concurrent_callers_hit_every_iteration_exactly_once() {
    thread::scope(|scope| {
        for caller in 0..8usize {
            scope.spawn(move || {
                let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
                for round in 0..2_000usize {
                    let nchunks = 1 + (round + caller) % 7;
                    let n = 1 + (round * 7 + caller) % 64;
                    parallel_chunks::<(), _>(nchunks, 1, n as i64, |_, lo, hi| {
                        for i in lo..=hi {
                            hits[(i - 1) as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(())
                    })
                    .expect("no chunk fails");
                    for (i, h) in hits.iter().enumerate() {
                        let want = u32::from(i < n);
                        assert_eq!(
                            h.swap(0, Ordering::Relaxed),
                            want,
                            "caller {caller}, round {round}: iteration {} of {n} over {nchunks} chunks",
                            i + 1
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn a_region_opened_inside_a_chunk_completes() {
    let total = AtomicUsize::new(0);
    parallel_chunks::<(), _>(3, 1, 3, |_, lo, hi| {
        assert_eq!(lo, hi);
        parallel_chunks::<(), _>(4, 1, 100, |_, lo, hi| {
            total.fetch_add((hi - lo + 1) as usize, Ordering::Relaxed);
            Ok(())
        })
    })
    .expect("nested regions run");
    assert_eq!(total.load(Ordering::Relaxed), 300);
}

#[test]
fn more_chunks_than_threads_cover_the_range() {
    let nchunks = 4 * nproc() + 3;
    let n = 10 * nchunks as i64 + 1;
    let seen: Mutex<Vec<(usize, i64, i64)>> = Mutex::new(Vec::new());
    parallel_chunks::<(), _>(nchunks, 1, n, |t, lo, hi| {
        seen.lock().unwrap().push((t, lo, hi));
        Ok(())
    })
    .expect("runs");
    let mut seen = seen.into_inner().unwrap();
    seen.sort_unstable();
    let want: Vec<(usize, i64, i64)> = chunk_bounds(nchunks, 1, n)
        .into_iter()
        .enumerate()
        .map(|(t, (lo, hi))| (t, lo, hi))
        .collect();
    assert!(
        want.len() > nproc(),
        "more chunks than any pool has threads"
    );
    assert_eq!(seen, want, "every chunk of the schedule ran exactly once");
}

#[test]
fn the_lowest_index_error_wins_and_every_chunk_still_runs() {
    for _ in 0..200 {
        let ran = AtomicUsize::new(0);
        let r = parallel_chunks::<usize, _>(7, 1, 7, |t, _, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            if t >= 2 {
                Err(t)
            } else {
                Ok(())
            }
        });
        assert_eq!(r, Err(2));
        assert_eq!(ran.load(Ordering::Relaxed), 7);
    }
}

/// Runs a two-chunk region whose chunks meet at a barrier, so two
/// distinct threads must be inside it at once: the caller and a pool
/// worker, or two workers. Returns the threads that ran the chunks.
fn two_threads_region(body: impl Fn(usize) + Sync) -> [ThreadId; 2] {
    let meet = Barrier::new(2);
    let ran: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_chunks::<(), _>(2, 1, 2, |t, _, _| {
            ran.lock().unwrap().push((t, thread::current().id()));
            meet.wait();
            body(t);
            Ok(())
        })
    }));
    let mut ran = ran.into_inner().unwrap();
    ran.sort_unstable_by_key(|(t, _)| *t);
    assert_eq!(ran.len(), 2, "both chunks ran");
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
    [ran[0].1, ran[1].1]
}

#[test]
fn a_panicking_chunk_reraises_on_the_caller_and_the_worker_survives() {
    // Lowest-index payload, remaining chunks complete.
    let ran = AtomicUsize::new(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        parallel_chunks::<(), _>(5, 1, 5, |t, _, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            if t == 1 || t == 3 {
                panic!("chunk {t}");
            }
            Ok(())
        })
    }));
    let payload = caught.expect_err("the panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("chunk 1")
    );
    assert_eq!(ran.load(Ordering::Relaxed), 5, "the other chunks completed");

    if nproc() < 2 {
        // No workers on a one-CPU box: everything runs on the caller.
        return;
    }
    // Panic on whichever thread is not the caller: that is a pool
    // worker, and the barrier guarantees there is one in the region.
    let caller = thread::current().id();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        two_threads_region(|t| {
            if thread::current().id() != caller {
                panic!("on a worker, chunk {t}");
            }
        })
    }));
    let payload = caught.expect_err("a worker's panic reaches the caller");
    assert!(payload
        .downcast_ref::<String>()
        .is_some_and(|m| m.starts_with("on a worker")));
    // The pool is as large as before: two threads still meet in a
    // region, so (with the single worker of a two-CPU box) the thread
    // that panicked is back at work.
    let [a, b] = two_threads_region(|_| {});
    assert_ne!(a, b);
    assert!(a != caller || b != caller, "a worker served the region");
}
