//! Fork-join parallelism over the persistent, process-wide worker pool.
//!
//! The implementation lives in [`lip_pred::pool`] — the lowest crate
//! that runs anything in parallel — so the parallel executor, the
//! LRPD/inspector tests and the predicate engine all share one chunking
//! substrate and one set of worker threads: [`chunk_bounds`] is the
//! single source of truth for the block schedule the simulator's
//! makespan model assumes, and a region's chunks are claimed by the
//! pool's parked workers and the calling thread rather than handed to
//! freshly spawned threads.

pub use lip_pred::pool::{chunk_bounds, parallel_chunks, parallel_chunks_obs};
