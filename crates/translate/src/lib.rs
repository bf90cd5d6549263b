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
//!   have the same expressive power. The operational content — `dcr` can be
//!   computed in exactly `⌈log(|x|+1)⌉` rounds of order-driven pairwise
//!   combining, and `log-loop` can be driven by a divide-and-conquer pass that
//!   carries `(cardinality, iterate table)` pairs — is realized as two
//!   **instrumented evaluation strategies** whose round counts and results the
//!   tests compare against the direct semantics. (The fully syntactic encodings
//!   exist in the paper's proof; the measurable claims are the round counts and
//!   the equivalences, which is what these strategies expose.)

pub mod prop21;
pub mod prop22;
pub mod prop73;
