//! Simulation translations between the recursion forms and the iterators.
//!
//! The paper's expressiveness results rest on a small number of inter-simulation
//! lemmas; this crate makes each of them executable so that the experiments can
//! check the *equivalences* and measure the *overheads*:
//!
//! * [`prop21`] — Proposition 2.1: `sri` can express `sru`, `esr` can express
//!   `dcr`, and `sri` can express `esr`, all with at most polynomial overhead.
//!   These are **source-to-source translations** on expressions.
//! * [`prop22`] — Proposition 2.2: over flat relations, `bdcr` together with the
//!   relational algebra expresses unbounded `dcr` (the bound is assembled from
//!   the active domain). Also a source-to-source translation.
//! * [`prop73`] — Proposition 7.3: over *ordered* databases, `dcr` and `log-loop`
//!   have the same expressive power. `dcr` as `⌈log₂ |x|⌉` rounds of pairwise
//!   combining is the evaluator's own halving tree, whose combiner calls and
//!   levels the tests read from its statistics; `log-loop` driven by a
//!   divide-and-conquer pass that carries `(cardinality, iterate table)` pairs
//!   is an **instrumented evaluation strategy** whose round counts and results
//!   the tests compare against the direct semantics. (The fully syntactic
//!   encodings exist in the paper's proof.)

pub mod prop21;
pub mod prop22;
pub mod prop73;
