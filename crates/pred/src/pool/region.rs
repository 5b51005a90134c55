//! The process-wide worker pool, and the one `unsafe` in the
//! repository: handing a *borrowed* job to threads that outlive the
//! call (lifetime erasure, as scoped-thread libraries do internally).
//!
//! A region is `len` jobs, an atomic "next job" and a "done" count.
//! It is published on a shared list; parked workers wake, and workers
//! *and the calling thread* claim job indices until none are left. The
//! caller returns once `done == len`. Because jobs are claimed, not
//! assigned, the caller never waits on an idle pool (with every worker
//! busy or none started it runs the whole region itself), a region
//! opened from inside a job or from another thread cannot deadlock
//! (a thread only ever waits for jobs that some thread is running),
//! and a region shorter than a thread wake-up finishes on the caller
//! before the worker arrives.
//!
//! Workers are `available_parallelism() − 1` detached threads started
//! on the first region and parked on a condition variable when idle;
//! they live as long as the process and are never joined.
//!
//! A sleeping thread costs its waker a system call and itself a
//! wake-up, together about as long as the small regions this pool
//! exists for. So a thread that has run out of work polls for [`SPIN`]
//! before it sleeps: a worker for the next region (a hot loop opens
//! them microseconds apart), the caller for the jobs other threads are
//! still running (a worker woken for the region started one wake-up
//! late). Past that bound everything sleeps; nothing spins while idle.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

type Job<'a> = dyn Fn(usize) + Sync + 'a;
type Payload = Box<dyn Any + Send>;

struct Region {
    /// The caller's job with its lifetime erased. Dereferenced only by
    /// [`Region::work`], between a successful claim and the `done`
    /// bump; dangling once [`run`] has returned.
    job: *const Job<'static>,
    len: usize,
    /// Next unclaimed job index. `Relaxed`: it hands out indices and
    /// publishes nothing (the job is published by the list's mutex,
    /// results by `done`).
    next: AtomicUsize,
    /// Finished jobs. Bumped `AcqRel` after a job, read `Acquire` by
    /// the caller: everything the jobs wrote happens-before the
    /// caller's return.
    done: AtomicUsize,
    /// Every panicked job's index and payload. Kept, not dropped, until
    /// the caller has seen `done == len`: a payload's `Drop` is foreign
    /// code and must not run inside `work`.
    panics: Mutex<Vec<(usize, Payload)>>,
    caller: Thread,
}

// SAFETY: `job` is the only field that is not `Send + Sync` by itself.
// Its pointee is `Sync`, so calling it through a shared reference from
// several threads at once is what its type allows; that the pointee is
// still alive whenever it is called is argued in `run`. The pointer is
// never used to mutate or drop the job.
unsafe impl Send for Region {}
// SAFETY: as above — `&Region` only exposes `&Job` and atomics.
unsafe impl Sync for Region {}

impl Region {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    /// Claims and runs jobs until none are left. A panic is caught on
    /// the thread that ran the job, so the remaining jobs still run and
    /// a pool worker survives it.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // SAFETY: `i < len` is a successful claim, and this job's
            // `done` bump comes after the call. `run` does not return
            // or unwind before `done == len`, so the caller's borrow is
            // live for the whole call.
            let job = unsafe { &*self.job };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i))) {
                lock(&self.panics).push((i, payload));
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.len {
                // May land after the caller saw `done == len` itself
                // and left; the stale token then ends one later `park`
                // early, which `park` permits.
                self.caller.unpark();
            }
        }
    }
}

/// These locks are held only across `Vec` push, retain and scan and a
/// counter bump; the data is valid at every step, so a poisoned lock
/// is entered rather than wedging the pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How long a thread polls before it sleeps: about one sleep and
/// wake-up (10 µs to signal plus 25–35 µs until the woken thread runs,
/// measured on the 2-vCPU box the benchmark runs on), so polling costs
/// at most about what the sleep it tries to avoid would have. A
/// constant, not an option: paired runs against never polling moved
/// `hot_small` and left `hot_large` and `serve_mix` where they were.
const SPIN: Duration = Duration::from_micros(50);

/// Polls until `ready` or for [`SPIN`], whichever comes first.
fn spin_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() && start.elapsed() < SPIN {
        std::hint::spin_loop();
    }
}

struct Shared {
    /// Regions whose caller has not returned yet, and the number of
    /// workers waiting on `wake`.
    state: Mutex<State>,
    wake: Condvar,
    /// Regions published so far. Bumped with `state` locked, polled
    /// without it by a worker that found nothing to claim: a change
    /// says "lock and look again". `Relaxed`: the lock the worker then
    /// takes is what orders the list.
    published: AtomicUsize,
}

#[derive(Default)]
struct State {
    open: Vec<Arc<Region>>,
    idle: usize,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let workers = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        for k in 0..workers {
            // A failed spawn leaves a smaller pool; callers make up
            // for it by claiming more themselves.
            let _ = thread::Builder::new()
                .name(format!("lip-pool-{k}"))
                .spawn(worker);
        }
        Shared {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
            published: AtomicUsize::new(0),
        }
    })
}

fn worker() {
    let shared = shared();
    let mut state = lock(&shared.state);
    let mut worked = false;
    loop {
        let unclaimed = state.open.iter().find(|r| r.has_unclaimed()).cloned();
        match unclaimed {
            Some(region) => {
                drop(state);
                region.work();
                worked = true;
                state = lock(&shared.state);
            }
            // Just ran out of work: poll for the next region before
            // sleeping. Read under the lock, `seen` cannot miss a
            // region published after the scan above.
            None if worked => {
                worked = false;
                let seen = shared.published.load(Ordering::Relaxed);
                drop(state);
                spin_until(|| shared.published.load(Ordering::Relaxed) != seen);
                state = lock(&shared.state);
            }
            None => {
                state.idle += 1;
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state.idle -= 1;
            }
        }
    }
}

/// Waits, when dropped, until every job of the region has finished,
/// then takes the region off the shared list. A drop guard so that the
/// wait also happens if the caller's own [`Region::work`] unwinds.
struct Finish<'a>(&'a Arc<Region>);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        let region = self.0;
        let finished = || region.done.load(Ordering::Acquire) == region.len;
        spin_until(finished);
        while !finished() {
            thread::park();
        }
        lock(&shared().state)
            .open
            .retain(|r| !Arc::ptr_eq(r, region));
    }
}

/// Runs `job(i)` exactly once for every `i` in `0..len`, on pool
/// workers and the calling thread, and returns when all have finished.
/// If jobs panic, the rest still run and the payload of the
/// lowest-index one is re-raised here.
pub(super) fn run(len: usize, job: &Job<'_>) {
    let shared = shared();
    // SAFETY: only the lifetime of the trait object changes. The
    // erased pointer is dereferenced in `Region::work` alone, between
    // a claim `i < len` and that job's `done` bump. This function
    // cannot leave, by return or unwind, before `Finish::drop` has read
    // `done == len`; that means all `len` claims were made and
    // finished, so `next >= len` and no later claim succeeds. A worker
    // still holding the `Arc<Region>` after that touches its atomics,
    // `panics` and `caller`, never `job`.
    let job = unsafe { std::mem::transmute::<*const Job<'_>, *const Job<'static>>(job) };
    let region = Arc::new(Region {
        job,
        len,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panics: Mutex::new(Vec::new()),
        caller: thread::current(),
    });
    let idle = {
        let mut state = lock(&shared.state);
        state.open.push(Arc::clone(&region));
        shared.published.fetch_add(1, Ordering::Relaxed);
        state.idle
    };
    let finish = Finish(&region);
    // The caller takes one job itself; wake a sleeping worker for each
    // other (a polling one is not counted in `idle` and needs no wake).
    for _ in 0..idle.min(len.saturating_sub(1)) {
        shared.wake.notify_one();
    }
    region.work();
    drop(finish);
    let first = std::mem::take(&mut *lock(&region.panics))
        .into_iter()
        .min_by_key(|(i, _)| *i);
    if let Some((_, payload)) = first {
        resume_unwind(payload);
    }
}
