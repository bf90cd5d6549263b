//! Seeded bibliographic dataset: papers, authorship and citations as plain
//! tuples. The engine never sees this module's types — workloads convert the
//! rows to `Value`s, and the reference evaluator reads the same rows.

/// One flat row of any of the three relations.
pub type Row = (u64, u64);

/// First publication year; `papers` years are drawn from `FIRST_YEAR..=LAST_YEAR`.
pub const FIRST_YEAR: u64 = 1950;
/// Last publication year.
pub const LAST_YEAR: u64 = 2024;
/// Author atoms start here so they never collide with paper ids.
pub const AUTHOR_BASE: u64 = 1_000_000;

/// SplitMix64: small, seedable, and good enough to decorrelate the columns.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// `papers : {(atom * nat)}` — `(id, year)` for ids `0..n`, in shuffled order
/// so building the set has real canonicalisation work to do.
pub fn papers(rng: &mut Rng, n: u64) -> Vec<Row> {
    let span = LAST_YEAR - FIRST_YEAR + 1;
    let mut rows: Vec<Row> = (0..n)
        .map(|id| (id, FIRST_YEAR + rng.below(span)))
        .collect();
    rng.shuffle(&mut rows);
    rows
}

/// `authored : {(atom * atom)}` — `(author, paper)`; every row names an
/// existing paper id in `0..papers`, authors come from a pool a third the size.
pub fn authored(rng: &mut Rng, rows: u64, papers: u64) -> Vec<Row> {
    let authors = (papers / 3).max(1);
    (0..rows)
        .map(|_| (AUTHOR_BASE + rng.below(authors), rng.below(papers)))
        .collect()
}

/// `cites : {(atom * atom)}` — a random DAG with two out-edges per node: node
/// `i` cites its predecessor and one random earlier node. The chain makes the
/// closure the full order on every seed, so the closure query costs the same
/// whatever the seed; the random edges vary the intermediate rounds.
pub fn cites(rng: &mut Rng, nodes: u64) -> Vec<Row> {
    let mut edges = Vec::new();
    for i in 1..nodes {
        edges.push((i, i - 1));
        if i >= 2 {
            edges.push((i, rng.below(i - 1)));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_relations() {
        let gen = |seed| {
            let mut rng = Rng::new(seed);
            (
                papers(&mut rng, 500),
                authored(&mut rng, 100, 500),
                cites(&mut rng, 12),
            )
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn relations_have_the_documented_shape() {
        let mut rng = Rng::new(1994);
        let p = papers(&mut rng, 1000);
        let mut ids: Vec<u64> = p.iter().map(|r| r.0).collect();
        assert!(ids.windows(2).any(|w| w[0] > w[1]), "rows are shuffled");
        ids.sort_unstable();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
        assert!(p.iter().all(|r| (FIRST_YEAR..=LAST_YEAR).contains(&r.1)));
        let a = authored(&mut rng, 300, 1000);
        assert!(a.iter().all(|r| r.0 >= AUTHOR_BASE && r.1 < 1000));
        let c = cites(&mut rng, 24);
        assert_eq!(c.len(), 23 + 22, "two out-edges per node, one for node 1");
        assert!(
            c.iter().all(|&(from, to)| to < from),
            "edges point backwards: a DAG"
        );
    }
}
