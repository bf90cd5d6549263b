//! The differential corpus: every text of the [pack] bound to its `datagen`
//! relations at each of its sizes, small enough for a test suite but large
//! enough that the parallel backend's cutover actually forks.
//!
//! The suites prepare an entry's `text` against its `schema` and execute it
//! with its `bindings`, as a client of the wire does; the backend and pool
//! suites evaluate `expr`, the same text closed over the same bindings.

use crate::pack::{self, TABLE};
use ncql_core::expr::Expr;
use ncql_object::{Type, Value};

/// One pack text bound at one size.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable name, `family/variant` followed by the binder's size label.
    pub name: String,
    /// The pack text, verbatim.
    pub text: &'static str,
    /// The text's free variables, from its header.
    pub schema: Vec<(String, Type)>,
    /// A value for every variable of `schema`, in the same order.
    pub bindings: Vec<(String, Value)>,
    /// The text closed over `bindings`: `let name = value in …`, the first
    /// binding outermost.
    pub expr: Expr,
}

/// Every pack text at every size its row of the pack's table names, in table
/// order.
pub fn differential_corpus() -> Vec<CorpusEntry> {
    let mut out = Vec::new();
    for row in TABLE {
        let schema = pack::schema(row.text).unwrap_or_else(|e| panic!("{}: {e}", row.name));
        let parsed = ncql_surface::parse(row.text).unwrap_or_else(|e| panic!("{}: {e}", row.name));
        for &size in row.sizes {
            let (label, bindings) = (row.bind)(size);
            let bindings: Vec<(String, Value)> = bindings
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect();
            let expr = bindings
                .iter()
                .rev()
                .fold(parsed.clone(), |body, (name, value)| {
                    Expr::let_in(name.clone(), Expr::constant(value.clone()), body)
                });
            out.push(CorpusEntry {
                name: match label.as_str() {
                    "" => row.name.to_string(),
                    _ => format!("{}/{label}", row.name),
                },
                text: row.text,
                schema: schema.clone(),
                bindings,
                expr,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_core::eval::eval_closed;
    use ncql_engine::Session;
    use std::collections::BTreeSet;

    #[test]
    fn corpus_names_are_unique_and_queries_closed() {
        let corpus = differential_corpus();
        assert!(corpus.len() >= 76, "corpus has {} entries", corpus.len());
        let names: BTreeSet<&str> = corpus.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names.len(), corpus.len(), "duplicate corpus names");
        for e in &corpus {
            assert!(
                ncql_core::analysis::free_vars(&e.expr).is_empty(),
                "{} has free variables",
                e.name
            );
        }
    }

    #[test]
    fn bindings_match_the_header_schema() {
        for e in differential_corpus() {
            let bound: Vec<&String> = e.bindings.iter().map(|(name, _)| name).collect();
            let declared: Vec<&String> = e.schema.iter().map(|(name, _)| name).collect();
            assert_eq!(bound, declared, "{}: bindings and header disagree", e.name);
            for ((name, value), (_, ty)) in e.bindings.iter().zip(&e.schema) {
                assert!(value.has_type(ty), "{}: {name} is not a {ty}", e.name);
            }
        }
    }

    #[test]
    fn every_corpus_query_evaluates_sequentially() {
        for e in differential_corpus() {
            eval_closed(&e.expr).unwrap_or_else(|err| panic!("{} failed: {err}", e.name));
        }
    }

    /// FNV-1a over the bytes of `text`.
    fn fnv1a64(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The value of every entry a Rust builder used to make, as
    /// `fnv1a64(value.to_string())` of the builder's result: the texts
    /// compute what the builders did. `relalg/division` is the exception —
    /// its text takes the unary divisor the query is defined for.
    const PINNED: &[(&str, u64)] = &[
        ("parity/dcr/0", 0xb5fa_e2c1_4238_b978),
        ("parity/esr/0", 0xb5fa_e2c1_4238_b978),
        ("parity/loop/0", 0xb5fa_e2c1_4238_b978),
        ("parity/dcr/1", 0x5b5c_98ef_514d_bfa5),
        ("parity/esr/1", 0x5b5c_98ef_514d_bfa5),
        ("parity/loop/1", 0x5b5c_98ef_514d_bfa5),
        ("parity/dcr/7", 0x5b5c_98ef_514d_bfa5),
        ("parity/esr/7", 0x5b5c_98ef_514d_bfa5),
        ("parity/loop/7", 0x5b5c_98ef_514d_bfa5),
        ("parity/dcr/64", 0xb5fa_e2c1_4238_b978),
        ("parity/esr/64", 0xb5fa_e2c1_4238_b978),
        ("parity/loop/64", 0xb5fa_e2c1_4238_b978),
        ("parity/dcr/130", 0xb5fa_e2c1_4238_b978),
        ("parity/esr/130", 0xb5fa_e2c1_4238_b978),
        ("parity/loop/130", 0xb5fa_e2c1_4238_b978),
        ("graph/tc_dcr/path/6", 0x1f3e_f1a5_523f_7f8c),
        ("graph/tc_log_loop/cycle/6", 0x2539_9da4_b5aa_8bbd),
        ("graph/tc_elementwise/random/6", 0x2539_9da4_b5aa_8bbd),
        ("graph/tc_dcr/path/18", 0xf9ac_613a_7acd_c4e6),
        ("graph/tc_log_loop/cycle/18", 0x9fd2_6bb2_3da1_4175),
        ("graph/tc_elementwise/random/18", 0xe7db_37df_f46f_41d5),
        ("graph/reflexive_tc_dcr/path/10", 0x7266_e82a_95e9_2dd9),
        ("graph/reachable_from/cycle/12", 0xeb5e_dbef_1608_cd31),
        ("graph/strongly_connected/cycle/10", 0x5b5c_98ef_514d_bfa5),
        ("graph/symmetric_closure/path/12", 0xa7f9_f192_34cc_f847),
        ("graph/same_generation/path/8", 0x62e9_5d78_e876_6321),
        ("relalg/join", 0xe65e_2855_a97e_9bc2),
        ("relalg/semijoin", 0xee5f_6c77_4964_fe15),
        ("relalg/antijoin", 0x08f4_4b07_b590_1a25),
        ("relalg/select_leq", 0x7db0_7644_85eb_f6e4),
        // The builder passed a binary divisor and returned `{}` (0x08f4_4b07_b590_1a25).
        ("relalg/division", 0x09af_f65b_7192_c78f),
        ("relalg/diagonal", 0xc475_29b1_73ba_52d7),
        ("arith/strict_order/24", 0xf27b_346a_4913_eacf),
        ("arith/successor/24", 0xd5db_537e_5f1e_1c93),
        ("arith/strict_order_via_tc/12", 0x6679_a1d6_a3e7_4473),
        ("arith/add_lookup/7+5", 0xc31f_4761_d4da_ade1),
        ("aggregates/sum_dcr/9", 0x07ff_8007_b4c0_08bc),
        ("aggregates/cardinality_dcr/9", 0xaf63_b44c_8601_a894),
        ("aggregates/sum_dcr/70", 0xf594_f90b_21e9_4fe9),
        ("aggregates/cardinality_dcr/70", 0x07f2_0607_b4b4_af12),
        ("aggregates/cardinality_extern/33", 0x07ff_7d07_b4c0_03a3),
        ("aggregates/max_atom_dcr/50", 0xe668_6819_04a5_ea63),
        ("aggregates/min_atom_relational/20", 0x0997_fa5b_717e_3c7a),
        ("aggregates/even_cardinality/21", 0xb5fa_e2c1_4238_b978),
        ("aggregates/double_exponential/12", 0x437c_f5d8_938c_2e92),
        ("powerset/dcr/7", 0x22f0_cef9_dba5_5075),
        ("powerset/bounded_small_subsets/24", 0x7ca2_34ae_3162_8375),
        ("iterate/count_n/5", 0xaf63_a84c_8601_9430),
        ("iterate/count_n_squared/5", 0x0802_ff07_b4c3_1660),
        ("iterate/count_log_n/5", 0xaf63_ae4c_8601_9e62),
        ("iterate/count_log_squared_n/5", 0xaf63_b44c_8601_a894),
        ("iterate/count_n/16", 0x07f8_9007_b4ba_053e),
        ("iterate/count_n_squared/16", 0x602d_b018_277e_f422),
        ("iterate/count_log_n/16", 0xaf63_a84c_8601_9430),
        ("iterate/count_log_squared_n/16", 0x0802_ff07_b4c3_1660),
        // Pinned on the interpreter's combining tree, before a `dcr` over an
        // associative word op folded in one sweep.
        ("aggregates/product_dcr/9", 0xd46d_402c_a43f_be4e),
        ("aggregates/min_nat_dcr/9", 0x0814_0407_b4d1_9212),
        ("aggregates/product_dcr/70", 0xedf2_a76b_38fc_3c54),
        ("aggregates/min_nat_dcr/70", 0x07ff_7f07_b4c0_0709),
        // Pinned before the evaluator resolved variables to slots.
        ("scope/capture_under_reused_name", 0xb12a_b0b5_a6b7_4ac2),
        ("scope/let_rebinds_in_kernel", 0x9065_f5a5_e7b1_e873),
        ("scope/shadowed_join_capture", 0xfc42_447d_8f87_b5c4),
        ("scope/dcr_combiner_shadows/24", 0x568e_9871_3ce5_0823),
    ];

    #[test]
    fn corpus_values_are_pinned() {
        let corpus = differential_corpus();
        let session = Session::new();
        for &(name, digest) in PINNED {
            let e = corpus.iter().find(|e| e.name == name).expect(name);
            let query = session
                .prepare_with_schema(e.text, &e.schema)
                .unwrap_or_else(|err| panic!("{name}: {err}"));
            let outcome = session
                .execute_with_bindings(&query, &e.bindings)
                .unwrap_or_else(|err| panic!("{name}: {err}"));
            let printed = outcome.value.to_string();
            assert_eq!(fnv1a64(&printed), digest, "{name}: {printed}");
        }
    }
}
