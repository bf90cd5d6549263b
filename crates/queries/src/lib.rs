//! Query library and workload generators for the NC query language.
//!
//! Everything here is *built from the public API of `ncql-core`*: each query is an
//! ordinary expression of the language, assembled by a builder function. The
//! library covers the paper's worked examples and the workloads the experiments
//! need:
//!
//! * [`parity`] — the §1 parity example, in its `dcr`, `sri`/`esr` and `loop`
//!   variants.
//! * [`graph`] — transitive closure in the §1 `dcr` form, the Example 7.1
//!   `log-loop` form, and an element-by-element (PTIME-style) form; plus
//!   reachability and related graph queries, and a native Rust baseline
//!   ([`relation::Relation`]) to cross-check results.
//! * [`relalg`] — classical relational-algebra queries phrased in NRA.
//! * [`aggregates`] — cardinality/sum/max aggregates via `dcr` with the external
//!   arithmetic Σ of Proposition 6.3.
//! * [`powerset`] — the high-complexity query that motivates *bounded* dcr over
//!   complex objects (§2), in unbounded and bounded forms.
//! * [`arith`] — the ordered-universe arithmetic toolkit of Proposition 7.8
//!   step 2 (successor, linear order, addition/multiplication/bit tables).
//! * [`iterate`] — the Example 7.2 iteration-count gadgets (`n`, `n²`, `log n`,
//!   `log² n` rounds).
//! * [`datagen`] — deterministic random workload generators (graphs, relations,
//!   nested complex objects).
//! * [`corpus`] — one closed instance of every query family above, iterated by
//!   the cross-backend differential test suite.

pub mod aggregates;
pub mod arith;
pub mod corpus;
pub mod datagen;
pub mod graph;
pub mod iterate;
pub mod parity;
pub mod powerset;
pub mod relalg;
pub mod relation;

pub use corpus::{differential_corpus, CorpusEntry};
pub use relation::Relation;
