//! Fork-join parallelism over a persistent, process-wide worker pool.
//!
//! This is the one chunking/scheduling substrate shared by the whole
//! system: the parallel executor, the LRPD/inspector tests and the
//! predicate engine all derive their block schedules from
//! [`chunk_bounds`], so the simulator's makespan model, the executor's
//! chunks and the parallel predicate evaluation agree on which
//! iterations land in which chunk. It lives in `lip_pred` (the lowest
//! crate that runs anything in parallel); `lip_runtime::pool`
//! re-exports it.
//!
//! No thread is spawned per region. A region is its chunk list; the
//! pool's parked workers *and the calling thread* claim chunks until
//! none are left (`region`, the repository's only `unsafe`). So
//! `nthreads` is a chunk count, not a thread count: 7 chunks on a
//! 2-CPU box run on the two threads there are, a region nested in a
//! chunk or opened concurrently from another thread always completes,
//! and a region shorter than a thread wake-up finishes on the caller.
//! Which OS thread runs a chunk is therefore not stable; the chunk
//! index is, and that is what bodies, errors and trace lanes key on.

mod region;

use std::sync::Mutex;

/// Splits the inclusive iteration range `[lo, hi]` into `nthreads`
/// contiguous chunks and runs `body(chunk_index, chunk_lo, chunk_hi)`
/// once per non-empty chunk, on the pool's workers and the calling
/// thread (block scheduling, as the paper's OpenMP codegen would).
///
/// Every chunk runs even if another fails. Returns the error of the
/// lowest-index chunk that produced one; if a chunk panics, the
/// lowest-index panic is re-raised on the calling thread instead.
pub fn parallel_chunks<E, F>(nthreads: usize, lo: i64, hi: i64, body: F) -> Result<(), E>
where
    E: Send,
    F: Fn(usize, i64, i64) -> Result<(), E> + Sync,
{
    parallel_chunks_obs(nthreads, lo, hi, None, body)
}

/// [`parallel_chunks`] with an optional observer: records one
/// `pool.forks` bump and the number of chunks per fork, plus a trace
/// event carrying the range and schedule. At trace level each executed
/// chunk additionally records a `pool.chunk` span on a stable
/// per-chunk-index lane ([`lip_obs::WORKER_LANE_BASE`]` + index`), so
/// an exported timeline shows one lane per chunk index with the
/// chunk's range and any imbalance between lanes — whichever thread
/// claimed it.
pub fn parallel_chunks_obs<E, F>(
    nthreads: usize,
    lo: i64,
    hi: i64,
    obs: Option<&lip_obs::Obs>,
    body: F,
) -> Result<(), E>
where
    E: Send,
    F: Fn(usize, i64, i64) -> Result<(), E> + Sync,
{
    // The schedule comes from `chunk_bounds` — the single source of
    // truth the simulator and executor share.
    let chunks = chunk_bounds(nthreads, lo, hi);
    if let Some(obs) = obs {
        if obs.enabled() && chunks.len() > 1 {
            obs.count("pool.forks", 1);
            obs.count("pool.chunks", chunks.len() as u64);
            obs.event("pool.fork", || {
                format!("[{lo}, {hi}] over {} chunks", chunks.len())
            });
        }
    }
    match chunks.as_slice() {
        [] => return Ok(()),
        [(c_lo, c_hi)] => return body(0, *c_lo, *c_hi),
        _ => {}
    }
    let tracing = obs.filter(|o| o.trace_enabled());
    let run_chunk = |t: usize, c_lo: i64, c_hi: i64| match tracing {
        Some(obs) => lip_obs::with_lane(lip_obs::WORKER_LANE_BASE + t as u64, || {
            let span = obs.span("pool.chunk", || {
                format!("worker {t}: [{c_lo}, {c_hi}] ({} iters)", c_hi - c_lo + 1)
            });
            let r = body(t, c_lo, c_hi);
            obs.exit_span(span, if r.is_ok() { "ok" } else { "error" });
            r
        }),
        None => body(t, c_lo, c_hi),
    };
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
    region::run(chunks.len(), &|t| {
        let (c_lo, c_hi) = chunks[t];
        if let Err(e) = run_chunk(t, c_lo, c_hi) {
            let mut first = first_err.lock().expect("held across an assignment only");
            if first.as_ref().is_none_or(|(i, _)| t < *i) {
                *first = Some((t, e));
            }
        }
    });
    match first_err
        .into_inner()
        .expect("held across an assignment only")
    {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// The chunk bounds that [`parallel_chunks`] would assign — exposed so
/// the simulator and the executor agree on the schedule.
pub fn chunk_bounds(nthreads: usize, lo: i64, hi: i64) -> Vec<(i64, i64)> {
    if hi < lo {
        return Vec::new();
    }
    let n = (hi - lo + 1) as usize;
    let nthreads = nthreads.max(1).min(n);
    let chunk = n.div_ceil(nthreads);
    let mut out = Vec::new();
    for t in 0..nthreads {
        let c_lo = lo + (t * chunk) as i64;
        let c_hi = (c_lo + chunk as i64 - 1).min(hi);
        if c_lo <= c_hi {
            out.push((c_lo, c_hi));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    #[test]
    fn covers_range_exactly_once() {
        let hits: Vec<AtomicI64> = (0..100).map(|_| AtomicI64::new(0)).collect();
        parallel_chunks::<(), _>(4, 1, 100, |_, lo, hi| {
            for i in lo..=hi {
                hits[(i - 1) as usize].fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })
        .expect("runs");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_range_is_noop() {
        parallel_chunks::<(), _>(4, 5, 4, |_, _, _| panic!("must not run")).expect("ok");
    }

    #[test]
    fn chunks_partition() {
        let b = chunk_bounds(3, 1, 10);
        assert_eq!(b.first().map(|c| c.0), Some(1));
        assert_eq!(b.last().map(|c| c.1), Some(10));
        let total: i64 = b.iter().map(|(l, h)| h - l + 1).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn errors_propagate() {
        let r = parallel_chunks::<&str, _>(
            2,
            1,
            10,
            |_, lo, _| {
                if lo > 5 {
                    Err("boom")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r, Err("boom"));
    }
}
