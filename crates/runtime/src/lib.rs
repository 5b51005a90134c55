//! The parallel execution substrate (paper §5 "putting everything
//! together").
//!
//! Given a [`lip_analysis::LoopAnalysis`], the [`exec`] module runs the
//! loop: it evaluates the predicate cascade against live program state,
//! precomputes CIV traces via a loop slice ([`civ`]), then executes the
//! iterations — in parallel over real threads ([`pool`]) with
//! privatization, last-value restoration and reduction merging, falling
//! back to LRPD thread-level speculation ([`lrpd`], whose shadow
//! detector the [`inspector`]'s dry run shares) or sequential execution
//! when every test fails.
//!
//! The [`sim`] module provides the pieces of the deterministic cost
//! model (virtual `P` processors over interpreter work units:
//! per-iteration costs, [`makespan`], [`charged_test_units`]) from which
//! `lip_suite` regenerates the paper's 4/8/16-processor figures on any
//! host; the real-thread path cross-checks its shape at the host's core
//! count.
//!
//! All of it is driven through one configured entry point: a
//! [`Session`] (see [`session`]) owns the pool width, the per-machine
//! compile caches and the fission and observer knobs, and runs every
//! loop as fused `lip_vm` bytecode with cascade predicates on the
//! compiled `lip_pred` engine. Environment variables
//! (`LIP_PRED_PAR_MIN`, `LIP_FISSION`, `LIP_OBS`) are read in exactly
//! one place, [`SessionConfig::from_env`], with strict parsing.

pub mod backend;
pub mod cache;
pub mod civ;
pub mod digest;
pub mod exec;
pub mod inspector;
pub mod lrpd;
pub mod merge;
pub mod pool;
pub mod session;
pub mod sim;

pub use cache::{store_fingerprint, MachineCache};
pub use civ::extract_slice;
pub use digest::{InputDigests, KeyCost};
pub use exec::{
    cascade_test, exact_report, exact_test, fragment_tests, ExecOutcome, ExecPlan, FragmentTests,
    RunStats, TEST_BUDGET,
};
pub use inspector::{inspect, InspectVerdict};
pub use lrpd::LrpdOutcome;
pub use merge::{clone_buf, copy_back, identity_buf, merge_into};
pub use pool::parallel_chunks;
pub use session::compat::*;
pub use session::{ConfigError, Session, SessionBuilder, SessionConfig};
pub use sim::{charged_test_units, makespan};
