//! The query pack of the NC query language, its workload generators and a
//! native baseline.
//!
//! Every query here is written in the language itself: one NCQL text per
//! `pack/<family>/<variant>.ncql`, whose header declares the text's free
//! variables. The families cover the paper's worked examples:
//!
//! * `parity` — the §1 parity example, in its `dcr`, `esr` and `loop` forms;
//! * `graph` — transitive closure in the §1 `dcr` form, the Example 7.1
//!   `logloop` form, a bounded `blogloop` form and an element-by-element
//!   (PTIME-style) form, plus reachability, strong connectivity, symmetric
//!   closure and same generation;
//! * `relalg` — relational algebra in NRA (join, semi- and anti-join,
//!   division, an order-based selection);
//! * `arith` — the ordered-universe toolkit of Proposition 7.8 (strict order,
//!   successor, a lookup in a precomputed addition table) and the arithmetic
//!   externals;
//! * `aggregates` — cardinality, sum, max and min, the Proposition 6.3
//!   doubling witness;
//! * `powerset` — the query that forces *bounded* recursion over complex
//!   objects (§2), unbounded and bounded;
//! * `iterate` — the Example 7.2 iteration counters and the bounded
//!   iterators;
//! * `recursion`, `nra`, `scope` — the remaining recursion forms and NRA
//!   constructs, and shadowing where the runtime binds by position.
//!
//! [`pack`] loads the texts; [`corpus`] binds each to [`datagen`] relations
//! at fixed sizes, the input of the cross-backend differential suites;
//! [`relation::Relation`] is the native baseline results are checked against.

pub mod corpus;
pub mod datagen;
pub mod pack;
pub mod relation;

pub use corpus::{differential_corpus, CorpusEntry};
pub use relation::Relation;
