//! Every recursor site of the query pack has a pinned `analysis::lawful`
//! class. Each row also records what the name-based §7.1 whitelist that
//! `lawful` replaced answered for the site, and only the differences
//! `WIDENED` lists are allowed: a site it accepted keeps its shape, a site it
//! rejected stays unchecked, and the insert sites it never read are
//! classified now.

use ncql::core::analysis::{lawful, Lawful, Shape};
use ncql::core::resolve::resolve;
use ncql::queries::differential_corpus;
use std::collections::BTreeMap;

/// What the replaced whitelist answered for a site.
#[derive(Debug, Clone, Copy)]
enum Before {
    Accepted(Shape),
    Rejected,
    /// An insert site: the whitelist read `dcr`/`sru`/`bdcr` only.
    NotRead,
}

use Before::{Accepted, NotRead, Rejected};
use Lawful::{Theorem, Unchecked};
use Shape::*;

/// One row per recursor site, by pack text, in pre-order within a text.
const TABLE: &[(&str, Before, Lawful)] = &[
    (
        "aggregates/cardinality_dcr",
        Accepted(NatAdd),
        Theorem(NatAdd),
    ),
    ("aggregates/sum_dcr", Accepted(NatAdd), Theorem(NatAdd)),
    (
        "aggregates/even_cardinality",
        Accepted(BoolXor),
        Theorem(BoolXor),
    ),
    ("parity/dcr", Accepted(BoolXor), Theorem(BoolXor)),
    (
        "aggregates/max_atom_dcr",
        Accepted(MaxByLeq),
        Theorem(MaxByLeq),
    ),
    (
        "graph/tc_dcr",
        Accepted(UnionCompose),
        Theorem(UnionCompose),
    ),
    (
        "graph/reflexive_tc_dcr",
        Accepted(UnionCompose),
        Theorem(UnionCompose),
    ),
    (
        "graph/reachable_from",
        Accepted(UnionCompose),
        Theorem(UnionCompose),
    ),
    (
        "graph/strongly_connected",
        Accepted(UnionCompose),
        Theorem(UnionCompose),
    ),
    (
        "arith/strict_order_via_tc",
        Accepted(UnionCompose),
        Theorem(UnionCompose),
    ),
    (
        "recursion/bdcr_bounded_union",
        Accepted(SetUnion),
        Theorem(SetUnion),
    ),
    ("recursion/union_sru", Accepted(SetUnion), Theorem(SetUnion)),
    ("aggregates/product_dcr", Rejected, Theorem(NatMul)),
    ("scope/dcr_combiner_shadows", Rejected, Theorem(NatAdd)),
    // `nat_min`'s unit is the greatest nat, not 100.
    ("aggregates/min_nat_dcr", Rejected, Unchecked),
    ("powerset/dcr", Rejected, Unchecked),
    ("powerset/bounded_small_subsets", Rejected, Unchecked),
    ("recursion/identity_sri", NotRead, Theorem(Insert)),
    ("recursion/bsri_bounded_fold", NotRead, Theorem(Insert)),
    ("parity/esr", NotRead, Theorem(IgnoresElement)),
    ("graph/tc_elementwise", NotRead, Theorem(IgnoresElement)),
];

/// The rejected sites that are theorems: the whitelist accepted the same
/// combiners written with `let a = π₁ p in …`, but not with `π₁ p`.
const WIDENED: &[&str] = &["aggregates/product_dcr", "scope/dcr_combiner_shadows"];

/// The `lawful` class of every recursor site of every pack text, by text.
fn pack_sites() -> BTreeMap<String, Vec<Lawful>> {
    let mut sites = BTreeMap::new();
    for entry in differential_corpus() {
        let name = entry
            .name
            .splitn(3, '/')
            .take(2)
            .collect::<Vec<_>>()
            .join("/");
        let parsed = ncql::surface::parse(entry.text).expect("a pack text parses");
        let mut found = Vec::new();
        resolve(&parsed)
            .expr
            .visit(&mut |e| found.extend(lawful(e)));
        if !found.is_empty() {
            sites.insert(name, found);
        }
    }
    sites
}

#[test]
fn every_pack_recursor_site_has_its_pinned_lawful_class() {
    let mut pinned: BTreeMap<String, Vec<Lawful>> = BTreeMap::new();
    for &(name, before, now) in TABLE {
        pinned.entry(name.to_string()).or_default().push(now);
        match before {
            Accepted(shape) => assert_eq!(now, Theorem(shape), "{name}"),
            Rejected if WIDENED.contains(&name) => {
                assert!(matches!(now, Theorem(_)), "{name}")
            }
            Rejected => assert_eq!(now, Unchecked, "{name}"),
            NotRead => assert_ne!(now, Unchecked, "{name}: an insert site is classified"),
        }
    }
    assert_eq!(TABLE.len(), 21);
    assert_eq!(pack_sites(), pinned);
}
