//! The USR (Uniform Set Representation) language — paper §2.
//!
//! A USR is a DAG whose leaves are [`LmadSet`]s and whose interior nodes
//! represent the operations that cannot be expressed exactly in the LMAD
//! domain: irreducible set operations (`∪ ∩ −`), control-flow *gates*
//! predicating a summary's existence, *call sites* across which summaries
//! cannot be translated, and total (`∪_{i=1}^{N}`) / partial
//! (`∪_{k=1}^{i-1}`) loop *recurrences* that fail exact aggregation.
//!
//! Because the representation is a language (closed under composition)
//! rather than a single array abstraction, summary construction performs
//! far fewer conservative approximations — the key property the paper's
//! predicate extraction relies on.
//!
//! Modules:
//!
//! * [`node`] — the [`Usr`] DAG and simplifying smart constructors,
//! * [`summary`] — RO/WF/RW triples and the data-flow equations of Fig. 2,
//! * [`equations`] — the FIND/OIND independence equations (Eq. 2–3),
//! * [`mod@reshape`] — Fig. 8's accuracy-enabling transformations
//!   (subtraction reassociation and UMEG preservation),
//! * [`exact`] — the production independence test: one-pass USR
//!   emptiness (running prefix unions, early exit, run-length sets),
//!   counted in work units, on an [`exact::ExactPlan`] the USR is
//!   lowered into once,
//! * [`eval`] — the set-valued reference semantics [`exact`] is tested
//!   against.

pub mod equations;
pub mod eval;
pub mod exact;
pub mod node;
pub mod reshape;
pub mod summary;

pub use equations::{flow_independence, output_independence, slv_equation};
pub use eval::eval_usr;
pub use exact::Exact;
pub use node::{CallSiteId, Usr, UsrNode};
pub use reshape::{reshape, ReshapeConfig};
pub use summary::Summary;

pub use lip_lmad::{Lmad, LmadSet};
