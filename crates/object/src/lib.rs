//! Complex-object value model for the NC query language.
//!
//! This crate implements the data model of Suciu & Breazu-Tannen,
//! *"A Query Language for NC"* (UPenn TR MS-CIS-94-05, 1994), sections 2, 3 and 5:
//!
//! * [`Type`] — complex object types built from an ordered base type `D`, booleans,
//!   `unit`, binary products and finite sets, plus the function types used by the
//!   ambient language NRA and an external natural-number type used in the
//!   arithmetic-extension experiments (Proposition 6.3).
//! * [`Value`] — complex object values with a canonical (sorted, duplicate-free)
//!   set representation and a total order lifted from the order on `D` to all
//!   types, as required for queries over *ordered* databases.
//! * [`flat`] — flat shapes (products of scalars) and the fixed-width word-row
//!   encoding behind [`VSet`]'s columnar representation of large flat-element
//!   sets, whose row order coincides with the lifted value order.
//! * [`encoding`] — the string encoding of complex objects over the eight-symbol
//!   alphabet of §5, minimal encodings, the 3-bits-per-symbol binary form, and the
//!   Immerman-style positional (characteristic vector) encoding of flat relations.
//! * [`intern`] — a process-wide atom interner: symbolic atoms (`@alice`)
//!   become dense `u32` ids tagged into the `u64` atom space, so atom-bearing
//!   shapes stay fixed-width (and hence columnar/kernel-eligible) while
//!   `Display` prints the name back.
//! * [`obs`] — process-wide observability counters for the columnar
//!   representation (promotions/demotions), kept outside the bit-compared
//!   cost model.
//! * [`morphism`] — base-domain morphisms (order-preserving injections) used to
//!   state and test genericity of database queries (§5, following Chandra & Harel).
//!
//! A value is walked in three forms, each with one job: boxed [`Value`]s are
//! the semantics of record (the other two are tested against them); [`flat`]
//! rows are what the kernels, `Display` and the wire read and write for sets of
//! flat elements; [`encoding`] bit-strings serve the circuit translation alone.
//!
//! The crate is purely a data substrate: it knows nothing about expressions,
//! evaluation, or circuits. Those live in `ncql-core`, `ncql-circuit` and friends.

pub mod encoding;
pub mod error;
pub mod flat;
pub mod intern;
pub mod morphism;
pub mod obs;
pub mod types;
pub mod value;

pub use error::ObjectError;
pub use flat::FlatShape;
pub use intern::{atom_name, intern_atom, NAMED_ATOM_BASE};
pub use obs::{columnar_stats, ColumnarStats};
pub use types::Type;
pub use value::{Atom, VSet, Value};
