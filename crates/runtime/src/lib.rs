//! The parallel execution substrate (paper §5 "putting everything
//! together").
//!
//! Given a [`lip_analysis::LoopAnalysis`], a run is one decision and
//! its execution. [`plan`] decides it — precomputing CIV traces via a
//! loop slice ([`civ`]) and evaluating the predicate cascade against
//! live program state — into one [`Plan`] value, which `explain`, the
//! check and the cost model read too; the [`exec`] module runs it: the
//! iterations in parallel over real threads ([`pool`]) with
//! privatization, last-value restoration and reduction merging, LRPD
//! thread-level speculation ([`lrpd`]), fission fragments, or
//! sequential execution when every test fails.
//!
//! The [`sim`] module provides the pieces of the deterministic cost
//! model (virtual `P` processors over interpreter work units:
//! per-iteration costs, [`makespan`], [`charged_test_units`]) from which
//! `lip_suite` regenerates the paper's 4/8/16-processor figures on any
//! host; the real-thread path cross-checks its shape at the host's core
//! count.
//!
//! All of it is driven through one configured entry point: a
//! [`Session`] (see [`session`]) owns the pool width and the fission
//! and observer knobs; [`Session::load`] gives a program its own
//! compile cache ([`Loaded`]) and [`Loaded::prepare`] resolves a loop
//! once ([`LoopHandle`]), which runs as fused `lip_vm` bytecode with
//! cascade predicates on the compiled `lip_pred` engine. Environment
//! variables (`LIP_PRED_PAR_MIN`, `LIP_FISSION`, `LIP_OBS`) are read in
//! exactly one place, [`SessionConfig::from_env`], with strict parsing.

mod backend;
mod cache;
pub mod civ;
pub mod digest;
pub mod exec;
mod loaded;
pub mod lrpd;
pub mod merge;
pub mod plan;
pub mod pool;
pub mod session;
pub mod sim;

pub use backend::DoShape;
pub use cache::store_fingerprint;
pub use civ::extract_slice;
pub use digest::{InputDigests, KeyCost};
pub use exec::{ExecOutcome, RunStats, TEST_BUDGET};
pub use lip_obs::TestUnits;
pub use loaded::{Loaded, LoopHandle};
pub use lrpd::LrpdOutcome;
pub use merge::{clone_buf, copy_back, identity_buf, merge_into};
pub use plan::{ExecPlan, Fragment, Plan, Route, SeqReason};
pub use pool::parallel_chunks;
pub use session::compat::*;
pub use session::{ConfigError, Session, SessionBuilder, SessionConfig};
pub use sim::{charged_test_units, makespan};
