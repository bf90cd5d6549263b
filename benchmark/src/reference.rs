//! Independent reference evaluator: the six pack queries over plain tuples.
//! No engine code — only `Vec`, `HashMap` and `BTreeSet` — so agreement with
//! the engine is evidence, not tautology.

use crate::data::{Row, FIRST_YEAR};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Papers published in or before year `k`.
pub fn filter_rare(papers: &[Row], k: u64) -> BTreeSet<Row> {
    papers
        .iter()
        .copied()
        .filter(|&(_, year)| year <= k)
        .collect()
}

/// `(id, years since 1950)` of papers published in or after year `k`.
pub fn filter_project(papers: &[Row], k: u64) -> BTreeSet<Row> {
    papers
        .iter()
        .filter(|&&(_, year)| k <= year)
        .map(|&(id, year)| (id, year.saturating_sub(FIRST_YEAR)))
        .collect()
}

/// `(year + k, id)` for every paper.
pub fn project_swap(papers: &[Row], k: u64) -> BTreeSet<Row> {
    papers
        .iter()
        .map(|&(id, year)| (year.saturating_add(k), id))
        .collect()
}

/// Hash join `authored ⋈ papers` on the paper id: `(author, year - k)`.
pub fn join(authored: &[Row], papers: &[Row], k: u64) -> BTreeSet<Row> {
    let year_of: HashMap<u64, u64> = papers.iter().copied().collect();
    authored
        .iter()
        .filter_map(|&(author, paper)| Some((author, year_of.get(&paper)?.saturating_sub(k))))
        .collect()
}

/// Sum over all papers of `year - k` (saturating, like `nat_sub`).
pub fn agg_sum(papers: &[Row], k: u64) -> u64 {
    papers.iter().map(|&(_, year)| year.saturating_sub(k)).sum()
}

/// All `(x, y)` joined by a non-empty citation path none of whose
/// *intermediate* nodes is `k`: one breadth-first search per source that
/// refuses to expand `k`.
pub fn tc(cites: &[Row], k: u64) -> BTreeSet<Row> {
    let mut out_edges: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(from, to) in cites {
        out_edges.entry(from).or_default().push(to);
    }
    let mut closure = BTreeSet::new();
    for &source in out_edges.keys() {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([source]);
        while let Some(node) = queue.pop_front() {
            if node == k && node != source {
                continue;
            }
            for &next in out_edges.get(&node).map(Vec::as_slice).unwrap_or(&[]) {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        closure.extend(seen.into_iter().map(|target| (source, target)));
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPERS: &[Row] = &[(0, 1950), (1, 1990), (2, 2020), (3, 2015)];

    #[test]
    fn filters_and_projections() {
        assert_eq!(filter_rare(PAPERS, 1950), BTreeSet::from([(0, 1950)]));
        assert_eq!(
            filter_project(PAPERS, 2015),
            BTreeSet::from([(2, 70), (3, 65)])
        );
        assert_eq!(
            project_swap(PAPERS, 0),
            BTreeSet::from([(1950, 0), (1990, 1), (2015, 3), (2020, 2)])
        );
    }

    #[test]
    fn join_and_sum() {
        let authored = [(100, 1), (100, 2), (101, 9)];
        assert_eq!(
            join(&authored, PAPERS, 1950),
            BTreeSet::from([(100, 40), (100, 70)])
        );
        assert_eq!(agg_sum(PAPERS, 1950), 40 + 70 + 65);
    }

    #[test]
    fn closure_avoids_the_excluded_intermediate() {
        let chain = [(3, 2), (2, 1), (1, 0)];
        let full = tc(&chain, 99);
        assert_eq!(full.len(), 6);
        // Excluding 2 as an intermediate cuts 3 off from 1 and 0, but 3 still
        // reaches 2 itself and 2 still reaches onwards.
        let cut = tc(&chain, 2);
        assert_eq!(cut, BTreeSet::from([(3, 2), (2, 1), (2, 0), (1, 0)]));
    }
}
