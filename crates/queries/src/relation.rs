//! A native Rust binary-relation type used as the *baseline implementation*
//! against which the language-level queries are cross-checked, and by the
//! workload generators.
//!
//! The paper's claims are about expressiveness and parallel complexity of the
//! *language*; the baseline here is the ordinary sequential algorithm a database
//! engine would run (e.g. semi-naive transitive closure), which is what the
//! experiment harness compares shapes against.

use ncql_object::{Atom, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A binary relation over atoms, in a canonical sorted-set representation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Relation {
    pairs: BTreeSet<(Atom, Atom)>,
}

impl Relation {
    /// The empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// Build from an iterator of pairs.
    pub fn from_pairs<I: IntoIterator<Item = (Atom, Atom)>>(pairs: I) -> Relation {
        Relation {
            pairs: pairs.into_iter().collect(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, a: Atom, b: Atom) -> bool {
        self.pairs.contains(&(a, b))
    }

    /// Insert one tuple.
    pub fn insert(&mut self, a: Atom, b: Atom) {
        self.pairs.insert((a, b));
    }

    /// Iterate over the tuples in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (Atom, Atom)> + '_ {
        self.pairs.iter().copied()
    }

    /// The set of atoms mentioned in the relation (the active domain).
    pub fn active_domain(&self) -> BTreeSet<Atom> {
        self.pairs.iter().flat_map(|&(a, b)| [a, b]).collect()
    }

    /// Union of two relations.
    pub fn union(&self, other: &Relation) -> Relation {
        Relation {
            pairs: self.pairs.union(&other.pairs).copied().collect(),
        }
    }

    /// Relation composition `self ∘ other`.
    pub fn compose(&self, other: &Relation) -> Relation {
        // Index `other` by first component for a join.
        let mut by_first: BTreeMap<Atom, Vec<Atom>> = BTreeMap::new();
        for &(b, c) in &other.pairs {
            by_first.entry(b).or_default().push(c);
        }
        let mut out = BTreeSet::new();
        for &(a, b) in &self.pairs {
            if let Some(cs) = by_first.get(&b) {
                for &c in cs {
                    out.insert((a, c));
                }
            }
        }
        Relation { pairs: out }
    }

    /// Transitive closure by repeated squaring (the baseline NC-style algorithm:
    /// ⌈log n⌉ rounds of `r ← r ∪ r∘r`).
    pub fn transitive_closure(&self) -> Relation {
        let mut r = self.clone();
        loop {
            let next = r.union(&r.compose(&r));
            if next == r {
                return r;
            }
            r = next;
        }
    }

    /// Transitive closure by the sequential semi-naive algorithm (the baseline
    /// PTIME-style algorithm), kept as a second baseline the tests cross-check.
    pub fn transitive_closure_seminaive(&self) -> Relation {
        let mut total = self.clone();
        let mut delta = self.clone();
        while !delta.is_empty() {
            let new = delta.compose(self);
            let fresh: BTreeSet<(Atom, Atom)> =
                new.pairs.difference(&total.pairs).copied().collect();
            delta = Relation {
                pairs: fresh.clone(),
            };
            total.pairs.extend(fresh);
        }
        total
    }

    /// The set of nodes reachable from `start` (including `start` itself).
    pub fn reachable_from(&self, start: Atom) -> BTreeSet<Atom> {
        let mut seen: BTreeSet<Atom> = BTreeSet::new();
        let mut stack = vec![start];
        let mut by_first: BTreeMap<Atom, Vec<Atom>> = BTreeMap::new();
        for &(a, b) in &self.pairs {
            by_first.entry(a).or_default().push(b);
        }
        while let Some(x) = stack.pop() {
            if seen.insert(x) {
                if let Some(next) = by_first.get(&x) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        seen
    }

    /// Convert into a language value of type `{D × D}`.
    pub fn to_value(&self) -> Value {
        Value::relation_from_pairs(self.pairs.iter().copied())
    }

    /// Convert from a language value of type `{D × D}`. Returns `None` if the
    /// value is not a set of pairs of atoms.
    pub fn from_value(v: &Value) -> Option<Relation> {
        let set = v.as_set()?;
        let mut pairs = BTreeSet::new();
        for e in set.iter() {
            let (a, b) = e.as_pair()?;
            pairs.insert((a.as_atom()?, b.as_atom()?));
        }
        Some(Relation { pairs })
    }
}

impl FromIterator<(Atom, Atom)> for Relation {
    fn from_iter<I: IntoIterator<Item = (Atom, Atom)>>(iter: I) -> Relation {
        Relation::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_and_union() {
        let r = Relation::from_pairs(vec![(1, 2), (2, 3)]);
        let s = Relation::from_pairs(vec![(2, 9), (3, 10)]);
        assert_eq!(r.compose(&s), Relation::from_pairs(vec![(1, 9), (2, 10)]));
        assert_eq!(r.union(&s).len(), 4);
    }

    #[test]
    fn tc_on_a_path() {
        let r = Relation::from_pairs((0..5).map(|i| (i, i + 1)));
        let tc = r.transitive_closure();
        assert_eq!(tc.len(), 5 + 4 + 3 + 2 + 1);
        assert!(tc.contains(0, 5));
        assert!(!tc.contains(5, 0));
        assert_eq!(tc, r.transitive_closure_seminaive());
    }

    #[test]
    fn tc_on_a_cycle_is_complete() {
        let n = 6u64;
        let r = Relation::from_pairs((0..n).map(|i| (i, (i + 1) % n)));
        let tc = r.transitive_closure();
        assert_eq!(tc.len(), (n * n) as usize);
        assert_eq!(tc, r.transitive_closure_seminaive());
    }

    #[test]
    fn reachability() {
        let r = Relation::from_pairs(vec![(1, 2), (2, 3), (4, 5)]);
        let reach = r.reachable_from(1);
        assert_eq!(reach.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn value_round_trip() {
        let r = Relation::from_pairs(vec![(3, 1), (1, 2)]);
        let v = r.to_value();
        assert_eq!(Relation::from_value(&v), Some(r));
        assert_eq!(Relation::from_value(&Value::Bool(true)), None);
    }

    #[test]
    fn active_domain_collects_both_columns() {
        let r = Relation::from_pairs(vec![(1, 5), (2, 5)]);
        let dom: Vec<_> = r.active_domain().into_iter().collect();
        assert_eq!(dom, vec![1, 2, 5]);
    }
}
