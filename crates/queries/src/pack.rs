//! The query pack: every query of this crate as an NCQL text, one file per
//! `pack/<family>/<variant>.ncql`, embedded at build time.
//!
//! A file's leading `--` comment block is its header, and each
//! `-- param NAME : TYPE` line of it declares one free variable. `--` starts a
//! comment in the surface syntax, so a file runs verbatim over the wire once
//! its parameters are bound, and in the REPL when it has none.
//!
//! One table lists the files. Each row also names the sizes the differential
//! corpus binds the text at and the [`datagen`] binder that makes its
//! relations for a size.

use crate::datagen;
use ncql_object::{Type, Value};
use ncql_surface::{parse_type, ParseError};

/// One text of the pack with its header's schema.
#[derive(Debug, Clone)]
pub struct PackQuery {
    /// `family/variant`: the file's path under `pack/`, without `.ncql`.
    pub name: &'static str,
    /// The file, verbatim.
    pub text: &'static str,
    /// The header's `param` declarations, in order.
    pub schema: Vec<(String, Type)>,
}

/// What a binder makes of one size: the suffix of the corpus entry's name
/// (empty for none) and the bindings of the text's parameters.
pub(crate) type Instance = (String, Vec<(&'static str, Value)>);

/// A row of [`TABLE`].
pub(crate) struct Row {
    /// `family/variant`.
    pub(crate) name: &'static str,
    /// The embedded file.
    pub(crate) text: &'static str,
    /// The sizes the corpus binds the text at, one entry each.
    pub(crate) sizes: &'static [u64],
    /// The bindings for a size.
    pub(crate) bind: fn(u64) -> Instance,
}

macro_rules! pack {
    ($(($name:literal, $sizes:expr, $bind:expr)),* $(,)?) => {
        &[$(Row {
            name: $name,
            text: include_str!(concat!("../pack/", $name, ".ncql")),
            sizes: $sizes,
            bind: $bind,
        }),*]
    };
}

const PARITY: &[u64] = &[0, 1, 7, 64, 130];
const TWO: &[u64] = &[6, 18];
const COUNTS: &[u64] = &[5, 16];
/// One instance, for the texts whose binder ignores the size.
const ONCE: &[u64] = &[0];

/// Every file of the pack, in corpus order.
pub(crate) const TABLE: &[Row] = pack![
    ("parity/dcr", PARITY, atoms),
    ("parity/esr", PARITY, atoms),
    ("parity/loop", PARITY, atoms),
    ("graph/tc_dcr", TWO, path),
    ("graph/tc_log_loop", TWO, cycle),
    ("graph/tc_elementwise", TWO, random),
    ("graph/tc_blog_loop", &[6], cycle),
    ("graph/reflexive_tc_dcr", &[10], path),
    ("graph/reachable_from", &[12], cycle_from_0),
    ("graph/strongly_connected", &[10], cycle),
    ("graph/symmetric_closure", &[12], path),
    ("graph/same_generation", &[8], path),
    ("relalg/join", ONCE, relations),
    ("relalg/semijoin", ONCE, relations),
    ("relalg/antijoin", ONCE, relations),
    ("relalg/select_leq", ONCE, relation),
    ("relalg/division", ONCE, divisor),
    ("relalg/diagonal", &[40], |n| (String::new(), atoms(n).1)),
    ("arith/strict_order", &[24], atoms),
    ("arith/successor", &[24], atoms),
    ("arith/strict_order_via_tc", &[12], atoms),
    ("arith/add_lookup", ONCE, addition),
    ("arith/nat_arith", ONCE, closed),
    ("arith/nat_bit", ONCE, closed),
    ("aggregates/sum_dcr", &[9, 70], atoms),
    ("aggregates/cardinality_dcr", &[9, 70], atoms),
    ("aggregates/cardinality_extern", &[33], atoms),
    ("aggregates/product_dcr", &[9, 70], atoms),
    ("aggregates/min_nat_dcr", &[9, 70], atoms),
    ("aggregates/max_atom_dcr", &[50], atoms),
    ("aggregates/min_atom_relational", &[20], atoms),
    ("aggregates/even_cardinality", &[21], atoms),
    ("aggregates/double_exponential", &[12], atoms),
    ("powerset/dcr", &[7], atoms),
    ("powerset/bounded_small_subsets", &[24], atoms),
    ("powerset/pairwise_union", &[3, 12], singletons),
    ("iterate/count_n", COUNTS, atoms),
    ("iterate/count_n_squared", COUNTS, atoms),
    ("iterate/count_log_n", COUNTS, atoms),
    ("iterate/count_log_squared_n", COUNTS, atoms),
    ("iterate/bloop_bounded", &[5], bounded),
    ("iterate/blogloop_bounded", &[5], bounded),
    ("recursion/union_sru", &[3, 70], atoms),
    ("recursion/identity_sri", &[3, 70], atoms),
    ("recursion/bdcr_bounded_union", &[5, 80], bounded),
    ("recursion/bsri_bounded_fold", &[5, 80], bounded),
    ("nra/pair_projections", ONCE, closed),
    ("nra/eq_leq", ONCE, closed),
    ("nra/isempty", &[3], atoms),
    ("nra/apply_lambda", &[3], atoms),
    ("nra/let_shadowing", &[3], atoms),
    ("nra/unit_value", ONCE, closed),
    ("scope/capture_under_reused_name", ONCE, relations),
    ("scope/let_rebinds_in_kernel", ONCE, relation),
    ("scope/shadowed_join_capture", ONCE, relations),
    ("scope/dcr_combiner_shadows", &[24], atoms),
];

/// `s` = `{@0, …, @n−1}`.
fn atoms(n: u64) -> Instance {
    (n.to_string(), vec![("s", Value::atom_set(0..n))])
}

fn graph(kind: &str, n: u64, r: crate::Relation) -> Instance {
    (format!("{kind}/{n}"), vec![("r", r.to_value())])
}

fn path(n: u64) -> Instance {
    graph("path", n, datagen::path_graph(n))
}

fn cycle(n: u64) -> Instance {
    graph("cycle", n, datagen::cycle_graph(n))
}

fn random(n: u64) -> Instance {
    graph("random", n, datagen::random_graph(n, 2.5 / n as f64, 7))
}

fn cycle_from_0(n: u64) -> Instance {
    let (label, mut bindings) = cycle(n);
    bindings.push(("start", Value::Atom(0)));
    (label, bindings)
}

/// A random relation `r` of 40 rows over 12 atoms.
fn relation(_: u64) -> Instance {
    let r = datagen::random_relation(12, 40, 11).to_value();
    (String::new(), vec![("r", r)])
}

/// `r`, and `s`, a second relation like it.
fn relations(n: u64) -> Instance {
    let (label, mut bindings) = relation(n);
    bindings.push(("s", datagen::random_relation(12, 40, 13).to_value()));
    (label, bindings)
}

/// `r`, and `s` = two second columns that `r` pairs atom 9 with, so that
/// `r ÷ s` is not empty.
fn divisor(n: u64) -> Instance {
    let (label, mut bindings) = relation(n);
    bindings.push(("s", Value::atom_set([1, 4])));
    (label, bindings)
}

/// An addition table over 16 atoms, and the operands 7 and 5.
fn addition(_: u64) -> Instance {
    let plus = ("plus", datagen::addition_table(16));
    let bindings = vec![plus, ("a", Value::Atom(7)), ("b", Value::Atom(5))];
    ("7+5".to_string(), bindings)
}

/// `s` = `{@0, …, @n−1}` and the bound `b` = `{@0, …, @⌈n/2⌉−1}`.
fn bounded(n: u64) -> Instance {
    let (label, mut bindings) = atoms(n);
    bindings.insert(0, ("b", Value::atom_set(0..n.div_ceil(2))));
    (label, bindings)
}

/// `p` = the singletons of `{@0, …, @n−1}`, `q` = those and `∅`.
fn singletons(n: u64) -> Instance {
    let singletons = || (0..n).map(|i| Value::atom_set([i]));
    let p = Value::set_from(singletons());
    let q = Value::set_from(singletons().chain([Value::empty_set()]));
    (n.to_string(), vec![("p", p), ("q", q)])
}

fn closed(_: u64) -> Instance {
    (String::new(), Vec::new())
}

/// The pack text called `name`.
pub fn query(name: &str) -> Option<PackQuery> {
    let row = TABLE.iter().find(|row| row.name == name)?;
    let schema = schema(row.text).unwrap_or_else(|e| panic!("{name}: bad header: {e}"));
    Some(PackQuery {
        name: row.name,
        text: row.text,
        schema,
    })
}

/// The free variables a text's header declares: its `-- param NAME : TYPE`
/// lines, in order.
pub(crate) fn schema(text: &str) -> Result<Vec<(String, Type)>, ParseError> {
    text.lines()
        .map_while(|line| line.strip_prefix("--"))
        .filter_map(|comment| comment.trim().strip_prefix("param "))
        .map(|decl| {
            let (name, ty) = decl.split_once(':').unwrap_or((decl, ""));
            Ok((name.trim().to_string(), parse_type(ty)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    /// `family/variant` of every `.ncql` file under `dir`.
    fn files(dir: &Path, family: &str, out: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("a readable pack directory") {
            let path = entry.expect("a directory entry").path();
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("a UTF-8 name");
            let name = format!("{family}{stem}");
            if path.is_dir() {
                files(&path, &format!("{name}/"), out);
            } else if path.extension().is_some_and(|ext| ext == "ncql") {
                out.insert(name);
            }
        }
    }

    #[test]
    fn every_pack_file_is_in_the_table_and_back() {
        let mut on_disk = BTreeSet::new();
        files(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("pack"),
            "",
            &mut on_disk,
        );
        let tabled: BTreeSet<String> = TABLE.iter().map(|row| row.name.to_string()).collect();
        assert_eq!(tabled.len(), TABLE.len(), "a name appears twice in TABLE");
        assert_eq!(on_disk, tabled, "pack/ and TABLE list different files");
    }

    #[test]
    fn headers_declare_schemas() {
        let join = query("relalg/join").expect("in the pack");
        let pair = Type::prod(Type::Base, Type::Base);
        assert_eq!(
            join.schema,
            [("r", &pair), ("s", &pair)].map(|(n, t)| (n.to_string(), Type::set(t.clone())))
        );
        assert!(query("arith/nat_bit")
            .expect("in the pack")
            .schema
            .is_empty());
        assert!(query("no/such_text").is_none());
        assert!(schema("-- param x : {atom\nx").is_err());
        // The header ends at the first line that is not a comment.
        assert!(schema("x\n-- param x : atom")
            .expect("no header")
            .is_empty());
        for row in TABLE {
            let query = query(row.name).expect("in the pack");
            ncql_surface::parse(query.text).unwrap_or_else(|e| panic!("{}: {e}", row.name));
        }
    }
}
