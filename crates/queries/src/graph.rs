//! Graph queries: transitive closure and reachability, in the three styles the
//! paper contrasts.
//!
//! * [`tc_dcr`] — the §1 example: `e = ∅`, `f(y) = r`, `u(r1, r2) = r1 ∪ r2 ∪
//!   r1∘r2`, applied to the vertex set `Π₁(r) ∪ Π₂(r)`. The combiner is
//!   associative and commutative on the carrier `{r ∪ r² ∪ … ∪ rᵐ}`, and the
//!   balanced combining tree reaches paths of length `≥ n` in `⌈log n⌉` levels.
//! * [`tc_log_loop`] — Example 7.1: compute `v = Π₁(r) ∪ Π₂(r)` and repeat
//!   `⌈log(n+1)⌉` times `r ← r ∪ r∘r`.
//! * [`tc_elementwise`] — the PTIME-style element-by-element recursion
//!   (one composition with `r` per vertex), linear span.

use ncql_core::derived;
use ncql_core::expr::{fresh_var, Expr};
use ncql_object::Type;

/// The type of binary relations over atoms, `{D × D}`.
pub fn rel_type() -> Type {
    Type::binary_relation()
}

/// The element type of binary relations, `D × D`.
pub fn edge_type() -> Type {
    Type::prod(Type::Base, Type::Base)
}

/// The vertex set `Π₁(r) ∪ Π₂(r)` of a relation.
pub fn vertices(r: Expr) -> Expr {
    let rv = fresh_var("vrel");
    Expr::let_in(
        rv.clone(),
        r,
        Expr::union(
            derived::project1(Type::Base, Type::Base, Expr::var(rv.clone())),
            derived::project2(Type::Base, Type::Base, Expr::var(rv)),
        ),
    )
}

/// The §1 combiner `u(r1, r2) = r1 ∪ r2 ∪ r1∘r2`.
pub fn tc_combiner() -> Expr {
    Expr::lam2(
        "r1",
        "r2",
        Type::prod(rel_type(), rel_type()),
        Expr::union(
            Expr::union(Expr::var("r1"), Expr::var("r2")),
            derived::compose(
                Type::Base,
                Type::Base,
                Type::Base,
                Expr::var("r1"),
                Expr::var("r2"),
            ),
        ),
    )
}

/// Transitive closure via `dcr` (§1). `r` is an expression of type `{D × D}`.
pub fn tc_dcr(r: Expr) -> Expr {
    let rv = fresh_var("tcrel");
    Expr::let_in(
        rv.clone(),
        r,
        Expr::dcr(
            Expr::empty(edge_type()),
            Expr::lam("y", Type::Base, Expr::var(rv.clone())),
            tc_combiner(),
            vertices(Expr::var(rv)),
        ),
    )
}

/// The squaring step `λs. s ∪ s∘s` of Example 7.1.
pub fn squaring_step() -> Expr {
    Expr::lam(
        "s",
        rel_type(),
        Expr::union(
            Expr::var("s"),
            derived::compose(
                Type::Base,
                Type::Base,
                Type::Base,
                Expr::var("s"),
                Expr::var("s"),
            ),
        ),
    )
}

/// Transitive closure via `log-loop` (Example 7.1): `⌈log(n+1)⌉` squarings, where
/// `n` is the number of vertices.
pub fn tc_log_loop(r: Expr) -> Expr {
    let rv = fresh_var("tcrel");
    Expr::let_in(
        rv.clone(),
        r,
        Expr::log_loop(
            squaring_step(),
            vertices(Expr::var(rv.clone())),
            Expr::var(rv),
        ),
    )
}

/// Transitive closure via `blog-loop` with bound `V × V` — the complex-object
/// safe variant used when the same query is embedded in a nested context
/// (Theorem 6.1 requires bounded recursion there).
pub fn tc_blog_loop(r: Expr) -> Expr {
    let rv = fresh_var("tcrel");
    let vs = fresh_var("verts");
    Expr::let_in(
        rv.clone(),
        r,
        Expr::let_in(
            vs.clone(),
            vertices(Expr::var(rv.clone())),
            Expr::blog_loop(
                squaring_step(),
                derived::cartesian_product(
                    Type::Base,
                    Type::Base,
                    Expr::var(vs.clone()),
                    Expr::var(vs.clone()),
                ),
                Expr::var(vs),
                Expr::var(rv),
            ),
        ),
    )
}

/// Transitive closure element-by-element: `esr(∅, λ(v, acc). acc ∪ r ∪ acc∘r)`
/// over the vertex set — one composition per vertex, the PTIME-style evaluation
/// contrasted with `dcr` in §6 ("the difference between NC and PTIME boils down
/// to two different ways of recurring on sets").
pub fn tc_elementwise(r: Expr) -> Expr {
    let rv = fresh_var("tcrel");
    Expr::let_in(
        rv.clone(),
        r,
        Expr::esr(
            Expr::empty(edge_type()),
            Expr::lam2(
                "v",
                "acc",
                Type::prod(Type::Base, rel_type()),
                Expr::union(
                    Expr::union(Expr::var("acc"), Expr::var(rv.clone())),
                    derived::compose(
                        Type::Base,
                        Type::Base,
                        Type::Base,
                        Expr::var("acc"),
                        Expr::var(rv.clone()),
                    ),
                ),
            ),
            vertices(Expr::var(rv)),
        ),
    )
}

/// Reflexive-transitive closure: `tc(r) ∪ {(v, v) | v ∈ vertices}`.
pub fn reflexive_tc_dcr(r: Expr) -> Expr {
    let rv = fresh_var("rtcrel");
    let v = fresh_var("v");
    Expr::let_in(
        rv.clone(),
        r,
        Expr::union(
            tc_dcr(Expr::var(rv.clone())),
            Expr::ext(
                Expr::lam(
                    v.clone(),
                    Type::Base,
                    Expr::singleton(Expr::pair(Expr::var(v.clone()), Expr::var(v))),
                ),
                vertices(Expr::var(rv)),
            ),
        ),
    )
}

/// The set of nodes reachable from `start` in one or more steps:
/// `{ y | (start, y) ∈ tc(r) }`.
pub fn reachable_from(r: Expr, start: Expr) -> Expr {
    let s = fresh_var("start");
    Expr::let_in(
        s.clone(),
        start,
        derived::project2(
            Type::Base,
            Type::Base,
            derived::select(edge_type(), tc_dcr(r), |p| {
                Expr::eq(Expr::proj1(p), Expr::var(s))
            }),
        ),
    )
}

/// Is the graph strongly connected? `∀(x, y) ∈ V×V. (x, y) ∈ tc(r)` — phrased as
/// `V × V ⊆ tc(r)`.
pub fn strongly_connected(r: Expr) -> Expr {
    let rv = fresh_var("screl");
    let vs = fresh_var("verts");
    Expr::let_in(
        rv.clone(),
        r,
        Expr::let_in(
            vs.clone(),
            vertices(Expr::var(rv.clone())),
            derived::subset(
                edge_type(),
                derived::cartesian_product(
                    Type::Base,
                    Type::Base,
                    Expr::var(vs.clone()),
                    Expr::var(vs),
                ),
                tc_dcr(Expr::var(rv)),
            ),
        ),
    )
}

/// The symmetric closure `r ∪ r⁻¹` (useful for undirected connectivity queries).
pub fn symmetric_closure(r: Expr) -> Expr {
    let rv = fresh_var("symrel");
    let p = fresh_var("p");
    Expr::let_in(
        rv.clone(),
        r,
        Expr::union(
            Expr::var(rv.clone()),
            Expr::ext(
                Expr::lam(
                    p.clone(),
                    edge_type(),
                    Expr::singleton(Expr::pair(
                        Expr::proj2(Expr::var(p.clone())),
                        Expr::proj1(Expr::var(p)),
                    )),
                ),
                Expr::var(rv),
            ),
        ),
    )
}

/// Same-generation: pairs of nodes having a common ancestor at the same
/// distance — the classic recursive query beyond plain relational algebra.
/// Computed as the fixpoint of `sg ← sibling ∪ r⁻¹ ∘ sg ∘ r` where
/// `sibling = r⁻¹ ∘ r` (common parent), reached after at most `|V|` rounds and
/// therefore driven here by `loop` over the vertex set.
pub fn same_generation(r: Expr) -> Expr {
    let rv = fresh_var("sgrel");
    let inv = fresh_var("sginv");
    let sib = fresh_var("sgsib");
    let inverse_of = |rel: Expr| {
        let p = fresh_var("p");
        Expr::ext(
            Expr::lam(
                p.clone(),
                edge_type(),
                Expr::singleton(Expr::pair(
                    Expr::proj2(Expr::var(p.clone())),
                    Expr::proj1(Expr::var(p)),
                )),
            ),
            rel,
        )
    };
    let step = Expr::lam(
        "sg",
        rel_type(),
        Expr::union(
            Expr::var(sib.clone()),
            derived::compose(
                Type::Base,
                Type::Base,
                Type::Base,
                Expr::var(inv.clone()),
                derived::compose(
                    Type::Base,
                    Type::Base,
                    Type::Base,
                    Expr::var("sg"),
                    Expr::var(rv.clone()),
                ),
            ),
        ),
    );
    Expr::let_in(
        rv.clone(),
        r,
        Expr::let_in(
            inv.clone(),
            inverse_of(Expr::var(rv.clone())),
            Expr::let_in(
                sib.clone(),
                derived::compose(
                    Type::Base,
                    Type::Base,
                    Type::Base,
                    Expr::var(inv.clone()),
                    Expr::var(rv.clone()),
                ),
                Expr::loop_(step, vertices(Expr::var(rv)), Expr::var(sib)),
            ),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use ncql_core::analysis;
    use ncql_core::eval::{eval_closed, eval_with_stats};
    use ncql_core::typecheck::typecheck_closed;
    use ncql_object::Value;

    fn path(n: u64) -> Relation {
        Relation::from_pairs((0..n).map(|i| (i, i + 1)))
    }

    fn cycle(n: u64) -> Relation {
        Relation::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
    }

    fn expr_of(r: &Relation) -> Expr {
        Expr::constant(r.to_value())
    }

    #[test]
    fn tc_variants_agree_with_baseline_on_paths_and_cycles() {
        for rel in [
            path(5),
            cycle(6),
            cycle(12),
            Relation::from_pairs(vec![(1, 2), (2, 3), (5, 1), (3, 5)]),
        ] {
            let expected = rel.transitive_closure().to_value();
            assert_eq!(
                eval_closed(&tc_dcr(expr_of(&rel))).unwrap(),
                expected,
                "dcr"
            );
            assert_eq!(
                eval_closed(&tc_log_loop(expr_of(&rel))).unwrap(),
                expected,
                "log-loop"
            );
            assert_eq!(
                eval_closed(&tc_blog_loop(expr_of(&rel))).unwrap(),
                expected,
                "blog-loop"
            );
            assert_eq!(
                eval_closed(&tc_elementwise(expr_of(&rel))).unwrap(),
                expected,
                "elementwise"
            );
        }
    }

    #[test]
    fn tc_of_empty_relation_is_empty() {
        let e = tc_dcr(Expr::constant(Value::relation_from_pairs(
            Vec::<(u64, u64)>::new(),
        )));
        assert_eq!(eval_closed(&e).unwrap(), Value::empty_set());
    }

    #[test]
    fn tc_queries_typecheck() {
        let r = expr_of(&path(3));
        for q in [
            tc_dcr(r.clone()),
            tc_log_loop(r.clone()),
            tc_elementwise(r.clone()),
            tc_blog_loop(r.clone()),
        ] {
            assert_eq!(typecheck_closed(&q).unwrap(), rel_type());
        }
        assert_eq!(
            typecheck_closed(&strongly_connected(r.clone())).unwrap(),
            Type::Bool
        );
        assert_eq!(
            typecheck_closed(&reachable_from(r, Expr::atom(0))).unwrap(),
            Type::set(Type::Base)
        );
    }

    #[test]
    fn recursion_depths_match_the_paper() {
        let r = expr_of(&path(3));
        assert_eq!(analysis::recursion_depth(&tc_dcr(r.clone())), 1);
        assert_eq!(analysis::recursion_depth(&tc_log_loop(r.clone())), 1);
        assert_eq!(analysis::recursion_depth(&tc_elementwise(r)), 1);
    }

    #[test]
    fn dcr_span_scales_better_than_elementwise() {
        let small = path(8);
        let large = path(48);
        let (_, d_small) = eval_with_stats(&tc_dcr(expr_of(&small))).unwrap();
        let (_, d_large) = eval_with_stats(&tc_dcr(expr_of(&large))).unwrap();
        let (_, e_small) = eval_with_stats(&tc_elementwise(expr_of(&small))).unwrap();
        let (_, e_large) = eval_with_stats(&tc_elementwise(expr_of(&large))).unwrap();
        let dcr_growth = d_large.span as f64 / d_small.span as f64;
        let elem_growth = e_large.span as f64 / e_small.span as f64;
        assert!(
            dcr_growth < elem_growth,
            "dcr span grew {dcr_growth:.2}x, elementwise {elem_growth:.2}x"
        );
    }

    #[test]
    fn reachability_matches_baseline() {
        let rel = Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1), (7, 8)]);
        let out = eval_closed(&reachable_from(expr_of(&rel), Expr::atom(1))).unwrap();
        // Baseline reachable_from includes the start; the query asks for nodes at
        // distance ≥ 1, which here still includes 1 because it lies on a cycle.
        assert_eq!(out, Value::atom_set(vec![1, 2, 3]));
    }

    #[test]
    fn strong_connectivity() {
        assert_eq!(
            eval_closed(&strongly_connected(expr_of(&cycle(5)))).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_closed(&strongly_connected(expr_of(&path(4)))).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn symmetric_closure_and_same_generation() {
        let rel = Relation::from_pairs(vec![(1, 2)]);
        assert_eq!(
            eval_closed(&symmetric_closure(expr_of(&rel))).unwrap(),
            Value::relation_from_pairs(vec![(1, 2), (2, 1)])
        );
        // A balanced binary tree: 0 -> 1, 0 -> 2, 1 -> 3, 1 -> 4, 2 -> 5, 2 -> 6.
        let tree = Relation::from_pairs(vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let sg = eval_closed(&same_generation(expr_of(&tree))).unwrap();
        let sg_rel = Relation::from_value(&sg).unwrap();
        // Nodes 3 and 6 are in the same generation (both grandchildren of 0).
        assert!(sg_rel.contains(3, 6));
        assert!(sg_rel.contains(1, 2));
        // A node and its parent are not in the same generation.
        assert!(!sg_rel.contains(1, 0));
    }

    #[test]
    fn reflexive_tc_adds_the_diagonal() {
        let rel = path(3);
        let out = eval_closed(&reflexive_tc_dcr(expr_of(&rel))).unwrap();
        let out_rel = Relation::from_value(&out).unwrap();
        for v in 0..=3 {
            assert!(out_rel.contains(v, v));
        }
        assert!(out_rel.contains(0, 3));
    }
}
