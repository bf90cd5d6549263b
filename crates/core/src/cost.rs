//! The work/span cost model, stated once.
//!
//! An evaluation is charged two quantities ([`crate::eval::CostStats`]):
//! **work**, the number of elementary operations (processors × time of a
//! PRAM run), and **span**, the critical path under the parallel reading of
//! the constructs. The paper's results are observable only through them: `k`
//! nested `dcr` ⇔ ACᵏ (Theorems 6.1/6.2) shows up as polylogarithmic span,
//! `sri` capturing PTIME (Proposition 6.6) as linear span.
//!
//! The model is the table of [`Rule`]s below. Three consumers read it and
//! none restates it: [`crate::eval`] *charges* it (work as it goes, spans
//! composed per match arm), [`crate::analyze`] *bounds* it (the same rules
//! over symbolic carriers) and [`crate::kernel`] *folds* it into one constant
//! per path of a compiled `ext` body. A rule is the node's own work, its own
//! span, and whether its operands' spans add up (they run one after the
//! other) or only the deepest counts (they are independent):
//!
//! * every node charges [`NODE`] on entry — before its kind is looked at, so
//!   every node rule's `work` is `NODE` — and a leaf adds no depth;
//! * `=`/`<=` charge [`cmp_extra`] = `min(|a|, |b|)` more (in `Value::size`),
//!   `union` the cardinality of its result, an external call
//!   [`EXTERN_CALL`]; such data-dependent extras enter a composition as one
//!   more operand of no depth;
//! * applying a closure ([`APPLY`]) charges one unit and one level around
//!   the body; [`CALL_FLOOR`] is the least any application costs;
//! * `ext` applies its function once per element, independently — only the
//!   deepest element counts — and charges the cardinality of the flattened
//!   result, one parallel step (§3's reason for keeping `ext` primitive);
//! * the union recursors (`dcr`/`sru`/`bdcr`) apply the singleton map per
//!   element and combine along a balanced binary tree: `m − 1` combiner
//!   calls over [`tree_depth`]`(m)` levels, each level contributing the span
//!   of one combiner application — the AC link;
//! * the insert recursors (`sri`/`esr`/`bsri`) and the iterators run a
//!   sequential chain whose span is the *sum* of the step spans, one step
//!   per element or round (`|s|` rounds for `loop`, [`log_rounds`]`(|s|)`
//!   for `log-loop`); every recursion evaluates its operands independently
//!   first ([`RECURSION`] over [`INDEPENDENT`]).

/// One row of the model: what a node charges itself and how its operands'
/// spans compose.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The node's own work.
    pub work: u64,
    /// The node's own span.
    pub span: u64,
    /// Operand spans add up (`true`) or only the deepest counts (`false`).
    pub sum: bool,
}

/// The unit every node charges on entry.
pub const NODE: u64 = 1;

/// `Rule::sum`: only the deepest operand counts, or the operand spans add up.
const MAX: bool = false;
const SUM: bool = true;

/// The rule `(work, span, sum)`.
const fn rule(work: u64, span: u64, sum: bool) -> Rule {
    Rule { work, span, sum }
}

/// A variable, λ, literal, constant or `{}`.
pub const LEAF: Rule = rule(NODE, 0, MAX);
/// `f a`: the function, the argument, then the application.
pub const APP: Rule = rule(NODE, 0, SUM);
/// `let x = e in b`.
pub const LET: Rule = rule(NODE, 0, SUM);
/// `(a, b)`.
pub const PAIR: Rule = rule(NODE, 1, MAX);
/// `pi1 e` / `pi2 e`.
pub const PROJ: Rule = rule(NODE, 1, MAX);
/// `if c then t else e`: the condition, then the taken arm.
pub const IF: Rule = rule(NODE, 1, SUM);
/// `a = b` / `a <= b`, plus [`cmp_extra`].
pub const CMP: Rule = rule(NODE, 1, MAX);
/// `{e}`.
pub const SINGLETON: Rule = rule(NODE, 1, MAX);
/// `a union b`, plus the cardinality of the result.
pub const UNION: Rule = rule(NODE, 1, MAX);
/// `isempty e`.
pub const IS_EMPTY: Rule = rule(NODE, 1, MAX);
/// `ext(f, e)`: the function, the argument, then the deepest element
/// application; plus the cardinality of the result.
pub const EXT: Rule = rule(NODE, 1, SUM);
/// An external call over its arguments, plus [`EXTERN_CALL`].
pub const EXTERN: Rule = rule(NODE, 1, MAX);
/// A recursor or iterator: its operands, then the combining tree or chain.
pub const RECURSION: Rule = rule(NODE, 1, SUM);

/// Applying a closure to an argument: one unit and one level around the body.
pub const APPLY: Rule = rule(1, 1, SUM);
/// Computations with no node of their own of which only the deepest counts:
/// the operands of a recursion, the elements of one `ext`, the two subtrees
/// under a combining node.
pub const INDEPENDENT: Rule = rule(0, 0, MAX);
/// Computations with no node of their own that run one after the other: the
/// steps of a chain, the subtrees and then the combiner of a combining node.
pub const IN_SEQUENCE: Rule = rule(0, 0, SUM);

/// The unit an external charges for the call itself, after its arguments.
pub const EXTERN_CALL: u64 = 1;
/// The least an application charges: the call and one node of the body.
pub const CALL_FLOOR: u64 = APPLY.work + LEAF.work;

/// The extra work of `=`/`<=` on operands of the given `Value::size`s.
pub fn cmp_extra(a: u64, b: u64) -> u64 {
    a.min(b)
}

/// The number of bits needed to write the cardinality `m` in binary, i.e.
/// `⌈log₂(m+1)⌉` — the round count of `log-loop` (§7.1).
pub fn log_rounds(m: usize) -> u64 {
    (usize::BITS - m.leading_zeros()) as u64
}

/// `⌈log₂ m⌉` for `m ≥ 2`: the depth of the balanced combining tree over `m`
/// leaves.
pub fn tree_depth(m: u64) -> u32 {
    u64::BITS - (m - 1).leading_zeros()
}

/// A quantity the model is computed in: `u64` for the evaluator and the
/// kernel compiler, the analyser's symbolic ranges and bounds.
pub trait Carrier: Sized {
    /// The quantity of `c` units.
    fn constant(c: u64) -> Self;
    /// Both, one after the other.
    fn plus(self, other: Self) -> Self;
}

/// A [`Carrier`] that can also hold a span.
pub trait SpanCarrier: Carrier {
    /// The deeper of two independent computations.
    fn longest(self, other: Self) -> Self;
}

impl Carrier for u64 {
    fn constant(c: u64) -> u64 {
        c
    }
    fn plus(self, other: u64) -> u64 {
        self + other
    }
}

impl SpanCarrier for u64 {
    fn longest(self, other: u64) -> u64 {
        self.max(other)
    }
}

impl Rule {
    /// Two operand spans composed the way this rule composes them.
    #[inline]
    pub fn join<S: SpanCarrier>(&self, a: S, b: S) -> S {
        if self.sum {
            a.plus(b)
        } else {
            a.longest(b)
        }
    }

    /// [`Rule::join`] of `k` operands of span `s` each, in closed form.
    pub fn join_repeated(&self, s: u64, k: u64) -> u64 {
        s * if self.sum { k } else { k.min(1) }
    }

    /// The `(work, span)` of a node under this rule whose operands cost
    /// `kids`: their work and the rule's own; their spans composed by
    /// [`Rule::join`] plus the rule's own.
    #[inline]
    pub fn node<W: Carrier, S: SpanCarrier>(
        &self,
        kids: impl IntoIterator<Item = (W, S)>,
    ) -> (W, S) {
        let own = (W::constant(self.work), S::constant(self.span));
        let kids = kids.into_iter();
        match kids.reduce(|(w, s), (kw, ks)| (w.plus(kw), self.join(s, ks))) {
            Some((w, s)) => (w.plus(own.0), s.plus(own.1)),
            None => own,
        }
    }

    /// The span half of [`Rule::node`], for the evaluator, which charges
    /// work as it goes.
    #[inline]
    pub fn span_over(&self, kids: impl IntoIterator<Item = u64>) -> u64 {
        self.node(kids.into_iter().map(|s| (0u64, s))).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model's numbers. A change to the model edits the rule and this
    /// table, nothing else: the three consumers read the rule.
    #[test]
    fn the_table_is_pinned() {
        let rows = [
            ("LEAF", LEAF, (1, 0, false)),
            ("APP", APP, (1, 0, true)),
            ("LET", LET, (1, 0, true)),
            ("PAIR", PAIR, (1, 1, false)),
            ("PROJ", PROJ, (1, 1, false)),
            ("IF", IF, (1, 1, true)),
            ("CMP", CMP, (1, 1, false)),
            ("SINGLETON", SINGLETON, (1, 1, false)),
            ("UNION", UNION, (1, 1, false)),
            ("IS_EMPTY", IS_EMPTY, (1, 1, false)),
            ("EXT", EXT, (1, 1, true)),
            ("EXTERN", EXTERN, (1, 1, false)),
            ("RECURSION", RECURSION, (1, 1, true)),
            ("APPLY", APPLY, (1, 1, true)),
            ("INDEPENDENT", INDEPENDENT, (0, 0, false)),
            ("IN_SEQUENCE", IN_SEQUENCE, (0, 0, true)),
        ];
        for (name, rule, (work, span, sum)) in rows {
            assert_eq!(
                (rule.work, rule.span, rule.sum),
                (work, span, sum),
                "{name}"
            );
        }
        assert_eq!((NODE, EXTERN_CALL, CALL_FLOOR), (1, 1, 2));
        assert_eq!((cmp_extra(3, 7), cmp_extra(7, 3)), (3, 3));
        assert_eq!(
            [0, 1, 2, 3, 4, 1023, 1024].map(log_rounds),
            [0, 1, 2, 2, 3, 10, 11]
        );
        assert_eq!([2, 3, 4, 5, 8, 9].map(tree_depth), [1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn composition_sums_work_and_joins_spans_by_the_rule() {
        let kids = [(2u64, 3u64), (5, 1), (1, 0)];
        assert_eq!(PAIR.node(kids), (9, 4));
        assert_eq!(IF.node(kids), (9, 5));
        assert_eq!(LEAF.node::<u64, u64>([]), (1, 0));
        assert_eq!(EXT.span_over([1, 2, 3]), 7);
        assert_eq!((PAIR.join(3u64, 4), IF.join(3u64, 4)), (4, 7));
    }

    #[test]
    fn a_repeated_join_is_the_joins_one_by_one() {
        for rule in [IN_SEQUENCE, INDEPENDENT] {
            for (s, k) in [(0, 3), (3, 0), (3, 1), (3, 4), (7, 9)] {
                let one_by_one = (0..k).fold(0u64, |acc, _| rule.join(acc, s));
                assert_eq!(rule.join_repeated(s, k), one_by_one, "{rule:?} s {s} k {k}");
            }
        }
    }
}
