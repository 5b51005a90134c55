//! Admission control and per-worker job queues.
//!
//! Two mechanisms keep overload graceful instead of hanging:
//!
//! * [`Admission`] — a server-wide gate. A request is admitted only if
//!   the queued-job count stays under the queue bound **and** the sum
//!   of work-unit estimates of in-flight requests stays under the
//!   budget. Rejection is immediate and explicit (`overloaded`), on
//!   the connection thread, before anything is enqueued.
//! * [`WorkerQueue`] — one bounded-by-admission FIFO per pool worker,
//!   popped one job at a time: nothing overtakes, whatever its shard.
//!   Requests route to workers by shard-key hash, so a shard's
//!   non-`Send` caches stay thread-affine ([`crate::pool`]). A closed
//!   queue refuses new work (`shutting_down`) but still drains what it
//!   already accepted.
//!
//! Deadlines are checked at *dequeue* time, when that request is about
//! to run: a request whose deadline expired while queued is answered
//! with `deadline` and never occupies a worker.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

use lip_runtime::SessionConfig;

use crate::protocol::{Frame, RunRequest};

/// What a queued [`Job`] asks the worker to do.
pub enum JobKind {
    /// Analyze + execute a loop.
    Run(Box<RunRequest>),
    /// Proxy `Session::explain` on the job's shard.
    Explain {
        /// Loop label (or kernel name).
        label: String,
    },
    /// Diagnostic: hold the worker for `ms` milliseconds.
    Burn {
        /// Hold duration (milliseconds).
        ms: u64,
    },
    /// Diagnostic: panic inside the worker.
    Crash,
}

/// One admitted unit of work, routed to a pool worker.
pub struct Job {
    /// Shard routing key ([`SessionConfig::shard_key`]).
    pub shard_key: String,
    /// The validated session configuration for the shard.
    pub cfg: SessionConfig,
    /// What to do.
    pub kind: JobKind,
    /// Admission-control work-unit estimate (released after the reply).
    pub cost: u64,
    /// Expiry instant; checked when the worker dequeues the job.
    pub deadline: Option<Instant>,
    /// When the job passed admission (`serve.queue_ns` runs from here
    /// to the dequeue).
    pub admitted: Instant,
    /// The connection's reply frame: the worker writes the response
    /// into it and sends it back through `reply`, so the buffer is the
    /// connection's from one request to the next.
    pub frame: Frame,
    /// Where the finished response frame goes.
    pub reply: mpsc::Sender<Frame>,
}

/// The server-wide admission gate. Lock-free: counters are reserved
/// optimistically and rolled back on rejection.
pub struct Admission {
    queued: AtomicUsize,
    units: AtomicU64,
    queue_cap: usize,
    budget: u64,
}

impl Admission {
    /// A gate admitting at most `queue_cap` in-flight requests whose
    /// work-unit estimates sum to at most `budget`.
    pub fn new(queue_cap: usize, budget: u64) -> Admission {
        Admission {
            queued: AtomicUsize::new(0),
            units: AtomicU64::new(0),
            queue_cap,
            budget,
        }
    }

    /// Tries to admit a request of estimated `cost` work units.
    ///
    /// # Errors
    ///
    /// A human-readable reason (queue full / budget exhausted) for the
    /// `overloaded` response; nothing is reserved on rejection.
    pub fn try_admit(&self, cost: u64) -> Result<(), String> {
        let queued = self.queued.fetch_add(1, Ordering::SeqCst) + 1;
        if queued > self.queue_cap {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(format!(
                "queue full ({} of {} slots)",
                queued - 1,
                self.queue_cap
            ));
        }
        let units = self.units.fetch_add(cost, Ordering::SeqCst) + cost;
        if units > self.budget {
            self.units.fetch_sub(cost, Ordering::SeqCst);
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(format!(
                "work-unit budget exhausted ({} of {} units in flight, request wants {cost})",
                units - cost,
                self.budget
            ));
        }
        Ok(())
    }

    /// Returns an admitted request's reservation (after its reply).
    pub fn release(&self, cost: u64) {
        self.queued.fetch_sub(1, Ordering::SeqCst);
        self.units.fetch_sub(cost, Ordering::SeqCst);
    }

    /// Currently admitted (queued + running) requests.
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Currently reserved work units.
    pub fn units(&self) -> u64 {
        self.units.load(Ordering::SeqCst)
    }

    /// The queue bound.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// The work-unit budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// One worker's FIFO. Closing is one-way: a closed queue rejects new
/// pushes (the connection thread answers `shutting_down`) but the
/// worker still drains every job accepted before the close.
pub struct WorkerQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

impl Default for WorkerQueue {
    fn default() -> WorkerQueue {
        WorkerQueue::new()
    }
}

impl WorkerQueue {
    /// An empty, open queue.
    pub fn new() -> WorkerQueue {
        WorkerQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues a job.
    ///
    /// # Errors
    ///
    /// Returns the job back if the queue is closed (shutdown raced the
    /// admission), so the caller can release its reservation and
    /// answer `shutting_down`.
    pub fn push(&self, job: Job) -> Result<(), Box<Job>> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(Box::new(job));
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained — the worker's signal to exit.
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: future pushes fail, blocked `pop`s wake.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(shard: &str, kind: JobKind) -> (Job, mpsc::Receiver<Frame>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                shard_key: shard.to_owned(),
                cfg: SessionConfig::default(),
                kind,
                cost: 1,
                deadline: None,
                admitted: Instant::now(),
                frame: Frame::default(),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn admission_enforces_queue_and_budget() {
        let gate = Admission::new(2, 100);
        gate.try_admit(10).expect("first");
        gate.try_admit(10).expect("second");
        let err = gate.try_admit(10).expect_err("queue full");
        assert!(err.contains("queue full"), "{err}");
        assert_eq!((gate.queued(), gate.units()), (2, 20));

        gate.release(10);
        // 10 + 90 = 100 fits the budget exactly...
        gate.try_admit(90).expect("fills budget");
        gate.release(90);
        // ...but 10 + 91 does not, and rejection rolls back cleanly.
        let err = gate.try_admit(91).expect_err("budget");
        assert!(err.contains("budget"), "{err}");
        assert_eq!((gate.queued(), gate.units()), (1, 10));
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains() {
        let q = WorkerQueue::new();
        let (a, _rx_a) = job("s", JobKind::Crash);
        let (b, _rx_b) = job("s", JobKind::Burn { ms: 0 });
        assert!(q.push(a).is_ok());
        assert!(q.push(b).is_ok());
        q.close();
        let (c, _rx_c) = job("s", JobKind::Crash);
        assert!(q.push(c).is_err(), "closed queue must refuse work");
        assert!(matches!(q.pop().expect("drains").kind, JobKind::Crash));
        assert!(matches!(
            q.pop().expect("drains").kind,
            JobKind::Burn { ms: 0 }
        ));
        assert!(q.pop().is_none(), "closed + drained ends the worker");
    }

    #[test]
    fn close_wakes_a_blocked_pop() {
        let q = std::sync::Arc::new(WorkerQueue::new());
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.pop().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(waiter.join().expect("no panic"), "pop must observe close");
    }
}
