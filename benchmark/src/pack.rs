//! The query pack: six open query texts over the bibliographic relations,
//! each with one literal slot `k`. Executed instances use [`Item::default_k`];
//! the `prepare` workload draws a fresh `k` per text so every text is new.

use crate::data::{Row, FIRST_YEAR};
use crate::reference;
use ncql_object::{Type, Value};
use std::collections::BTreeSet;

/// The six pack queries. `scan` runs the first three, `nested` the last
/// three, `prepare` prepares all six, the `serve_*` workloads reuse
/// `FilterProject` and `ProjectSwap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    FilterRare,
    FilterProject,
    ProjectSwap,
    Join,
    AggSum,
    Tc,
}

/// What the reference evaluator says a pack item returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    Rows(BTreeSet<Row>),
    Nat(u64),
}

/// One generated relation: the plain rows the reference reads and the
/// engine value built from them (cloning the value is O(1)).
#[derive(Debug, Clone)]
pub struct Relation {
    pub rows: Vec<Row>,
    pub value: Value,
}

impl Relation {
    /// A `papers : {(atom * nat)}` relation.
    pub fn papers(rows: Vec<Row>) -> Relation {
        let value = Value::set_from(paper_rows(&rows));
        Relation { rows, value }
    }

    /// An `{(atom * atom)}` relation (`authored`, `cites`).
    pub fn pairs(rows: Vec<Row>) -> Relation {
        let value = Value::relation_from_pairs(rows.iter().copied());
        Relation { rows, value }
    }
}

/// The relations a pack item may read; an item only looks at the ones its
/// schema names.
#[derive(Debug, Clone, Copy)]
pub struct Relations<'a> {
    pub papers: &'a Relation,
    pub authored: &'a Relation,
    pub cites: &'a Relation,
}

impl Item {
    pub const ALL: [Item; 6] = [
        Item::FilterRare,
        Item::FilterProject,
        Item::ProjectSwap,
        Item::Join,
        Item::AggSum,
        Item::Tc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Item::FilterRare => "filter_rare",
            Item::FilterProject => "filter_project",
            Item::ProjectSwap => "project_swap",
            Item::Join => "join",
            Item::AggSum => "agg_sum",
            Item::Tc => "tc",
        }
    }

    /// The literal the executed instance of the text carries. For `Tc` it is
    /// a paper id outside every generated graph, so no path is excluded and
    /// the closure's size (hence its cost) does not depend on the seed.
    pub fn default_k(self) -> u64 {
        match self {
            Item::FilterRare => FIRST_YEAR,
            Item::FilterProject => 2015,
            Item::ProjectSwap => 0,
            Item::Join | Item::AggSum => FIRST_YEAR,
            Item::Tc => 999_999,
        }
    }

    /// The query text with literal `k`.
    pub fn text(self, k: u64) -> String {
        match self {
            // ~1 % of the rows survive: the kernel's loop dominates.
            Item::FilterRare => format!(
                "ext(\\p: (atom * nat). if nat_leq(pi2 p, {k}) then {{p}} \
                 else empty[(atom * nat)], papers)"
            ),
            // ~13 % survive and are rebuilt with arithmetic on the year.
            Item::FilterProject => format!(
                "ext(\\p: (atom * nat). if nat_leq({k}, pi2 p) \
                 then {{(pi1 p, nat_sub(pi2 p, {FIRST_YEAR}))}} \
                 else empty[(atom * nat)], papers)"
            ),
            // Every row survives in a new order: the merge dominates.
            Item::ProjectSwap => {
                format!("ext(\\p: (atom * nat). {{(nat_add(pi2 p, {k}), pi1 p)}}, papers)")
            }
            // The inner body captures `a`, so neither site is kernel-liftable.
            Item::Join => format!(
                "ext(\\a: (atom * atom). ext(\\p: (atom * nat). if pi2 a = pi1 p \
                 then {{(pi1 a, nat_sub(pi2 p, {k}))}} else empty[(atom * nat)], papers), authored)"
            ),
            Item::AggSum => format!(
                "dcr(0, \\p: (atom * nat). nat_sub(pi2 p, {k}), \
                 \\q: (nat * nat). nat_add(pi1 q, pi2 q), papers)"
            ),
            // Squaring: paths double per round; `@k` is never an intermediate.
            Item::Tc => format!(
                "logloop(\\s: {{(atom * atom)}}. s union ext(\\a: (atom * atom). \
                 ext(\\b: (atom * atom). if pi2 a = pi1 b \
                 then (if pi2 a = @{k} then empty[(atom * atom)] else {{(pi1 a, pi2 b)}}) \
                 else empty[(atom * atom)], s), s), cites, cites)"
            ),
        }
    }

    /// The free relations the text reads, with their types.
    pub fn schema(self) -> Vec<(String, Type)> {
        let papers = ("papers".to_string(), papers_type());
        let relation = |name: &str| (name.to_string(), Type::binary_relation());
        match self {
            Item::Join => vec![papers, relation("authored")],
            Item::Tc => vec![relation("cites")],
            _ => vec![papers],
        }
    }

    /// The printed type of the result.
    pub fn result_type(self) -> &'static str {
        match self {
            Item::ProjectSwap => "{(nat * atom)}",
            Item::AggSum => "nat",
            Item::Tc => "{(atom * atom)}",
            _ => "{(atom * nat)}",
        }
    }

    /// Bindings for the schema, built from the relations.
    pub fn bindings(self, rel: Relations<'_>) -> Vec<(String, Value)> {
        self.schema()
            .into_iter()
            .map(|(name, _)| {
                let relation = match name.as_str() {
                    "papers" => rel.papers,
                    "authored" => rel.authored,
                    _ => rel.cites,
                };
                (name, relation.value.clone())
            })
            .collect()
    }

    /// The reference evaluator's answer for the executed instance.
    pub fn expected(self, rel: Relations<'_>) -> Expected {
        let k = self.default_k();
        match self {
            Item::FilterRare => Expected::Rows(reference::filter_rare(&rel.papers.rows, k)),
            Item::FilterProject => Expected::Rows(reference::filter_project(&rel.papers.rows, k)),
            Item::ProjectSwap => Expected::Rows(reference::project_swap(&rel.papers.rows, k)),
            Item::Join => Expected::Rows(reference::join(&rel.authored.rows, &rel.papers.rows, k)),
            Item::AggSum => Expected::Nat(reference::agg_sum(&rel.papers.rows, k)),
            Item::Tc => Expected::Rows(reference::tc(&rel.cites.rows, k)),
        }
    }
}

/// `{(atom * nat)}`.
pub fn papers_type() -> Type {
    Type::set(Type::prod(Type::Base, Type::Nat))
}

/// Boxed `(atom, nat)` rows, in the order given.
pub fn paper_rows(rows: &[Row]) -> Vec<Value> {
    rows.iter()
        .map(|&(id, year)| Value::pair(Value::Atom(id), Value::Nat(year)))
        .collect()
}

/// A scalar atom or nat as its number.
fn scalar(value: &Value) -> Option<u64> {
    value.as_atom().or_else(|| value.as_nat())
}

/// Read an engine value back into the reference's vocabulary: a nat, or a
/// set of pairs of scalars.
pub fn extract(value: &Value) -> Option<Expected> {
    if let Some(n) = value.as_nat() {
        return Some(Expected::Nat(n));
    }
    let rows = value
        .as_set()?
        .iter()
        .map(|row| {
            let (a, b) = row.as_pair()?;
            Some((scalar(a)?, scalar(b)?))
        })
        .collect::<Option<BTreeSet<Row>>>()?;
    Some(Expected::Rows(rows))
}

/// Read a reply's `printed` field (`{(a3, 65), (a9, 70)}` or `1234`) back
/// into the reference's vocabulary: the digit runs, paired up.
pub fn extract_printed(printed: &str) -> Option<Expected> {
    let mut numbers = Vec::new();
    let mut current: Option<u64> = None;
    for byte in printed.bytes() {
        if byte.is_ascii_digit() {
            let digit = u64::from(byte - b'0');
            current = Some(current.unwrap_or(0).checked_mul(10)?.checked_add(digit)?);
        } else if let Some(n) = current.take() {
            numbers.push(n);
        }
    }
    numbers.extend(current);
    if !printed.starts_with('{') {
        return match numbers[..] {
            [n] => Some(Expected::Nat(n)),
            _ => None,
        };
    }
    if numbers.len() % 2 != 0 {
        return None;
    }
    let rows: BTreeSet<Row> = numbers.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    // A printed set is duplicate-free, so a shorter set means a misparse.
    (rows.len() == numbers.len() / 2).then_some(Expected::Rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{self, Rng};
    use ncql_engine::SessionBuilder;

    #[test]
    fn the_engine_agrees_with_the_reference_on_tiny_seeded_inputs() {
        for seed in [1, 2, 1994] {
            let mut rng = Rng::new(seed);
            let papers = Relation::papers(data::papers(&mut rng, 60));
            let authored = Relation::pairs(data::authored(&mut rng, 40, 60));
            let cites = Relation::pairs(data::cites(&mut rng, 9));
            let rel = Relations {
                papers: &papers,
                authored: &authored,
                cites: &cites,
            };
            let session = SessionBuilder::new().build();
            for item in Item::ALL {
                let query = session
                    .prepare_with_schema(&item.text(item.default_k()), &item.schema())
                    .unwrap_or_else(|e| panic!("{}: {e}", item.name()));
                assert_eq!(
                    query.ty().to_string(),
                    item.result_type(),
                    "{}",
                    item.name()
                );
                let outcome = session
                    .execute_with_bindings(&query, &item.bindings(rel))
                    .unwrap_or_else(|e| panic!("{}: {e}", item.name()));
                let expected = item.expected(rel);
                assert_eq!(
                    extract(&outcome.value),
                    Some(expected.clone()),
                    "{} seed {seed}",
                    item.name()
                );
                assert_eq!(
                    extract_printed(&outcome.value.to_string()),
                    Some(expected),
                    "{} seed {seed} (printed form)",
                    item.name()
                );
            }
        }
    }

    #[test]
    fn an_excluded_intermediate_really_cuts_paths() {
        // The executed `tc` never excludes anything, so check the literal slot
        // does what the text says on a graph where it matters.
        let cites = Relation::pairs(vec![(3, 2), (2, 1), (1, 0)]);
        let session = SessionBuilder::new().build();
        let query = session
            .prepare_with_schema(&Item::Tc.text(2), &Item::Tc.schema())
            .unwrap();
        let bindings = vec![("cites".to_string(), cites.value.clone())];
        let outcome = session.execute_with_bindings(&query, &bindings).unwrap();
        assert_eq!(
            extract(&outcome.value),
            Some(Expected::Rows(reference::tc(&cites.rows, 2)))
        );
    }

    #[test]
    fn printed_forms_that_are_not_sets_of_pairs_are_refused() {
        assert_eq!(extract_printed("42"), Some(Expected::Nat(42)));
        assert_eq!(extract_printed("{}"), Some(Expected::Rows(BTreeSet::new())));
        assert_eq!(extract_printed("{(a1, 2), (a1, 2)}"), None);
        assert_eq!(extract_printed("{a1, a2, a3}"), None);
        assert_eq!(extract_printed("true"), None);
    }
}
