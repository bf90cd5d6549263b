//! Prepare-time static analysis: the cost interpreter. (The syntactic passes,
//! the linter included, live in [`crate::analysis`].)
//!
//! The paper's central claim is that queries in this language carry *static*
//! parallel-complexity guarantees — Theorems 6.1/6.2 place `dcr^(k)`/`bdcr^(k)`
//! queries in ACᵏ. This module turns that meta-theorem into an engine-usable
//! analysis: a compositional abstract interpreter over [`ExprKind`] that
//! computes **upper-bound polynomials** for the work and span the instrumented
//! evaluator in [`crate::eval`] will charge, in the cardinalities of the free
//! schema relations, plus one number, the **work floor**: the least work a
//! completed evaluation charges under any binding of those relations (every
//! cardinality at zero), used to reject queries that are guaranteed to exceed
//! a session's work limit before any evaluation happens. The paper states
//! only upper bounds, so only the upper side is symbolic.
//!
//! The cost model is the one `Evaluator` charges because both read it from
//! [`crate::cost`]: every `Cost` below is built by `Cost::node` from a rule of
//! that table, over the symbolic carriers `Range` and [`Bound`].
//!
//! Set growth through a recursion is resolved by a one-variable recurrence:
//! the combiner/step body is analysed once with a fresh *measure variable* `g`
//! standing for the accumulator size, the resulting size bound is decomposed
//! as `A·g + R`, and the closed form (`R·log m`, geometric in `A`, or the
//! bounded recursor's hard cap) is substituted back. When the argument
//! cardinality is a known constant the analyser instead runs the combining
//! tree / chain *numerically*, round by round, which gives finite bounds even
//! for non-linear combiners (the powerset query).
//!
//! The interpreter walks the resolved plan ([`crate::resolve`]): a closure
//! keeps the abstract values of its binders as positional `Frames`, and a
//! free name's schema relation is matched to it once, by name.
//!
//! The analyser runs at every prepare, and most of the charges it sums are
//! constants, so a [`Poly`] keeps its constant term inline and a constant
//! allocates nothing; its other terms sit in a sorted vector whose
//! monomials are shared, so a sum or join is a linear merge that copies
//! reference counts rather than maps of strings.
//!
//! Everything here is a *bound*, never a promise of tightness: `Unbounded`
//! (and a floor of 0) is always a sound answer, and the analyser degrades to
//! it (never panics) when its node budget runs out or a recurrence is not
//! linear in the measure.

use crate::analysis::{lint_pass, Finding, Severity};
use crate::cost::{self, log_rounds, Carrier, Rule, SpanCarrier};
use crate::expr::{Expr, ExprKind, Form, Slot};
use crate::externs::ExternRegistry;
use crate::resolve::{resolve, Frames, Resolved};
use ncql_object::{Type, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Polynomials
// ---------------------------------------------------------------------------

/// A monomial: each variable, in sorted order, with `(power, log-power)`,
/// i.e. the factor `v^power · log(v)^log_power`, where `log` is the
/// evaluator's [`log_rounds`] (`⌊log₂ v⌋ + 1` for `v ≥ 1`, `0` for `v = 0`).
/// Shared (across threads, as plans are), so copying a term is a
/// reference-count increment.
pub type Monomial = Arc<[(Arc<str>, (u32, u32))]>;

/// A multivariate polynomial with saturating `u64` coefficients over relation
/// cardinalities, admitting `log` factors. All coefficients are non-negative,
/// which the bound algebra leans on throughout: polynomials are monotone in
/// every variable, so substituting an upper bound for a variable preserves
/// upper bounds.
///
/// The constant term is inline (`0`: none), so a constant allocates nothing;
/// the other terms are sorted by monomial, each with a non-zero coefficient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    constant: u64,
    terms: Vec<(Monomial, u64)>,
}

/// Merging more terms than this triggers [`Poly::compact_upper`].
const MAX_TERMS: usize = 32;

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::constant(0)
    }

    /// A constant polynomial.
    pub fn constant(constant: u64) -> Poly {
        let terms = Vec::new();
        Poly { constant, terms }
    }

    /// The polynomial `v` for a single cardinality variable.
    pub fn var(name: &str) -> Poly {
        Poly::factor(&name.into(), (1, 0))
    }

    /// The polynomial `log(v)`.
    pub fn log_var(name: &str) -> Poly {
        Poly::factor(&name.into(), (0, 1))
    }

    /// The one-term polynomial `v^p · log(v)^q`.
    fn factor(v: &Arc<str>, powers: (u32, u32)) -> Poly {
        let m: Monomial = Arc::new([(v.clone(), powers)]);
        Poly::normalized(0, vec![(m, 1)])
    }

    /// Sort `terms` by monomial and sum the coefficients of equal ones.
    fn normalized(constant: u64, mut terms: Vec<(Monomial, u64)>) -> Poly {
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        terms.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.saturating_add(later.1);
            }
            same
        });
        Poly { constant, terms }
    }

    /// The number of terms, the constant included.
    fn len(&self) -> usize {
        self.terms.len() + usize::from(self.constant != 0)
    }

    /// `Some(c)` when the polynomial is a constant.
    pub fn as_const(&self) -> Option<u64> {
        self.terms.is_empty().then_some(self.constant)
    }

    /// Termwise `f` of the coefficients, a missing term counting as 0.
    fn zip_with(&self, other: &Poly, f: fn(u64, u64) -> u64) -> Poly {
        let constant = f(self.constant, other.constant);
        let terms = merge(&self.terms, &other.terms, f);
        Poly { constant, terms }
    }

    /// Pointwise sum.
    pub fn add(&self, other: &Poly) -> Poly {
        self.zip_with(other, u64::saturating_add)
    }

    /// `self + c`.
    pub fn add_const(&self, c: u64) -> Poly {
        self.add(&Poly::constant(c))
    }

    /// Product of two polynomials.
    pub fn mul(&self, other: &Poly) -> Poly {
        // Each side's constant scales the other side's terms.
        let mut terms = Vec::new();
        for (side, k) in [(&self.terms, other.constant), (&other.terms, self.constant)] {
            if k != 0 {
                terms.extend(side.iter().map(|(m, c)| (m.clone(), c.saturating_mul(k))));
            }
        }
        let add_powers =
            |(p, q): (u32, u32), (r, s): (u32, u32)| (p.saturating_add(r), q.saturating_add(s));
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                terms.push((merge(ma, mb, add_powers).into(), ca.saturating_mul(*cb)));
            }
        }
        Poly::normalized(self.constant.saturating_mul(other.constant), terms)
    }

    /// `c · self`.
    pub fn scale(&self, c: u64) -> Poly {
        if c == 0 {
            return Poly::zero();
        }
        let constant = self.constant.saturating_mul(c);
        let terms = self
            .terms
            .iter()
            .map(|(m, k)| (m.clone(), k.saturating_mul(c)));
        Poly::normalized(constant, terms.collect())
    }

    /// Pointwise coefficient maximum: a sound **upper** bound for
    /// `max(self, other)` at every non-negative assignment (each operand is
    /// dominated termwise by the joined coefficients).
    pub fn join(&self, other: &Poly) -> Poly {
        self.zip_with(other, u64::max)
    }

    /// Evaluate at concrete cardinalities. Returns `None` when a variable is
    /// missing from `lookup`. Log factors evaluate through [`log_rounds`].
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<u64>) -> Option<u64> {
        let mut total = self.constant;
        for (m, c) in &self.terms {
            let mut term = *c;
            for (v, (p, q)) in m.iter() {
                let val = lookup(v)?;
                for _ in 0..*p {
                    term = term.saturating_mul(val);
                }
                let lg = log_rounds(val as usize);
                for _ in 0..*q {
                    term = term.saturating_mul(lg);
                }
            }
            total = total.saturating_add(term);
        }
        Some(total)
    }

    /// Evaluate a closed (variable-free) polynomial; `None` if any variable
    /// remains.
    pub fn eval_closed(&self) -> Option<u64> {
        self.eval(&|_| None)
    }

    /// An upper bound for `log_rounds(self(x))` as a polynomial, valid at
    /// every non-negative assignment. Uses `log(c·Πvᵖ·log(v)^q) ≤
    /// log(c) + Σ(p+q)·log(v)` per monomial (since `log_rounds(ab) ≤
    /// log_rounds(a) + log_rounds(b)`, `log_rounds(v^p) ≤ p·log_rounds(v)`,
    /// and `log_rounds(log_rounds(v)) ≤ log_rounds(v)`), and
    /// `log_rounds(Σᵢ tᵢ) ≤ Σᵢ log_rounds(tᵢ) + 2(k−1)` across `k` monomials.
    pub fn log_bound(&self) -> Poly {
        let Some(k) = self.len().checked_sub(1) else {
            return Poly::zero();
        };
        let mut out = Poly::constant(log_rounds(self.constant as usize) + 2 * k as u64);
        for (m, c) in &self.terms {
            out = out.add_const(log_rounds(*c as usize));
            for (v, (p, q)) in m.iter() {
                let total = (*p as u64).saturating_add(*q as u64);
                out = out.add(&Poly::factor(v, (0, 1)).scale(total));
            }
        }
        out
    }

    /// Substitute an upper bound `replacement` for `var`. Sound for upper
    /// bounds because the polynomial is monotone in every variable:
    /// `v^p·log(v)^q ↦ P^p·log_bound(P)^q`.
    pub fn subst(&self, var: &str, replacement: &Poly) -> Poly {
        let mut out = Poly::constant(self.constant);
        let repl_log = replacement.log_bound();
        for (m, c) in &self.terms {
            let mut term = Poly::constant(*c);
            for (v, (p, q)) in m.iter() {
                if **v == *var {
                    for _ in 0..*p {
                        term = term.mul(replacement);
                    }
                    for _ in 0..*q {
                        term = term.mul(&repl_log);
                    }
                } else {
                    term = term.mul(&Poly::factor(v, (*p, *q)));
                }
            }
            out = out.add(&term);
        }
        out
    }

    /// Does the polynomial mention `var` at all?
    pub fn mentions(&self, var: &str) -> bool {
        let has = |m: &Monomial| m.iter().any(|(v, _)| **v == *var);
        self.terms.iter().any(|(m, _)| has(m))
    }

    /// Decompose as `A·var + R` where `R` does not mention `var`. `None` when
    /// any term is non-linear in `var` (including `log(var)` factors).
    pub fn linear_in(&self, var: &str) -> Option<(u64, Poly)> {
        let mut a = 0u64;
        let mut rest = Vec::new();
        for (m, c) in &self.terms {
            match m.iter().find(|(v, _)| **v == *var) {
                None => rest.push((m.clone(), *c)),
                Some((_, (1, 0))) if m.len() == 1 => a = a.saturating_add(*c),
                Some(_) => return None,
            }
        }
        Some((a, Poly::normalized(self.constant, rest)))
    }

    /// Coarsen an **upper** bound so it never exceeds `MAX_TERMS` terms:
    /// within each group of monomials sharing a variable support, log-powers
    /// fold into full powers (`log_rounds(v) ≤ v`), powers take the groupwise
    /// maximum, and coefficients sum. Sound because within a support group
    /// either every variable is ≥ 1 (so raising powers only grows the term)
    /// or some variable is 0 (so both sides vanish).
    pub fn compact_upper(self) -> Poly {
        if self.len() <= MAX_TERMS {
            return self;
        }
        let mut groups: BTreeMap<Vec<Arc<str>>, (Vec<u32>, u64)> = BTreeMap::new();
        for (m, c) in &self.terms {
            let support = m.iter().map(|(v, _)| v.clone()).collect();
            let (powers, k) = groups.entry(support).or_insert((vec![0; m.len()], 0));
            for (slot, (_, (p, q))) in powers.iter_mut().zip(m.iter()) {
                *slot = (*slot).max(p.saturating_add(*q));
            }
            *k = k.saturating_add(*c);
        }
        let terms = groups.into_iter().map(|(support, (powers, k))| {
            let m = support.into_iter().zip(powers).map(|(v, p)| (v, (p, 0)));
            (m.collect(), k)
        });
        Poly::normalized(self.constant, terms.collect())
    }

    /// A deterministic sample evaluation (every variable at 8) used only to
    /// *pick between* two already-sound bounds — never to establish one.
    fn sample(&self) -> u64 {
        self.eval(&|_| Some(8)).expect("total lookup")
    }

    /// Sound pointwise comparison: `true` guarantees `self(x) ≤ other(x)` at
    /// **every** non-negative assignment `x`; `false` means "could not prove
    /// it" (the check is incomplete, never unsound). The rewrite engine's
    /// cost gate leans on this direction: a rewrite only fires on a proven
    /// `≤`, so incompleteness can at worst suppress an optimisation.
    ///
    /// The certificate is a greedy matching: each monomial of `self` must be
    /// charged against coefficient budget of `other`-monomials that dominate
    /// it. `v^pb·log(v)^qb` dominates `v^pa·log(v)^qa` when `pb ≥ pa` and
    /// `pb + qb ≥ pa + qa` (excess plain powers absorb log powers since
    /// `log_rounds(v) ≤ v`, and `log_rounds(v) ≥ 1` for `v ≥ 1`). Domination
    /// additionally requires *identical* variable support: a superset support
    /// is unsound at assignments where the extra variable is 0 (the dominating
    /// term vanishes while the dominated one does not). So only the other
    /// constant covers a constant.
    pub fn le_pointwise(&self, other: &Poly) -> bool {
        if self.constant > other.constant {
            return false;
        }
        let mut budget: Vec<(&Monomial, u64)> = other.terms.iter().map(|(m, c)| (m, *c)).collect();
        'terms: for (m, c) in &self.terms {
            let mut need = *c;
            for (bm, avail) in budget.iter_mut() {
                if *avail == 0 || !monomial_dominates(bm, m) {
                    continue;
                }
                let used = need.min(*avail);
                *avail -= used;
                need -= used;
                if need == 0 {
                    continue 'terms;
                }
            }
            return false;
        }
        true
    }
}

/// The linear merge of two runs sorted by key, `f` meeting the values of a
/// key both runs carry.
fn merge<K: Ord + Clone, V: Copy>(
    x: &[(K, V)],
    y: &[(K, V)],
    f: impl Fn(V, V) -> V,
) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(x.len() + y.len());
    let (mut i, mut j) = (0, 0);
    while let (Some((kx, vx)), Some((ky, vy))) = (x.get(i), y.get(j)) {
        let order = kx.cmp(ky);
        out.push(match order {
            Ordering::Less => (kx.clone(), *vx),
            Ordering::Greater => (ky.clone(), *vy),
            Ordering::Equal => (kx.clone(), f(*vx, *vy)),
        });
        i += usize::from(order.is_le());
        j += usize::from(order.is_ge());
    }
    out.extend_from_slice(&x[i..]);
    out.extend_from_slice(&y[j..]);
    out
}

/// Does the monomial `big` dominate `small` at every non-negative assignment
/// (see [`Poly::le_pointwise`] for the exact side conditions)? Equal supports
/// line up entry by entry, both being sorted.
fn monomial_dominates(big: &Monomial, small: &Monomial) -> bool {
    let covers = |((vb, (pb, qb)), (va, (pa, qa))): (&(Arc<str>, (u32, u32)), &_)| {
        vb == va && pb >= pa && (*pb as u64) + (*qb as u64) >= (*pa as u64) + (*qa as u64)
    };
    big.len() == small.len() && big.iter().zip(small.iter()).all(covers)
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.as_const() == Some(0) {
            return write!(f, "0");
        }
        // Highest-degree first reads like a complexity bound; the constant
        // (degree 0) comes last.
        let mut terms: Vec<(&Monomial, u64)> = self.terms.iter().map(|(m, c)| (m, *c)).collect();
        terms.sort_by_key(|(m, _)| {
            let deg: u64 = m.iter().map(|(_, (p, q))| (*p as u64) + (*q as u64)).sum();
            std::cmp::Reverse(deg)
        });
        let mut sep = "";
        for (m, c) in terms {
            write!(f, "{sep}")?;
            sep = " + ";
            let mut factors: Vec<String> = Vec::new();
            for (v, (p, q)) in m.iter() {
                if *p == 1 {
                    factors.push(v.to_string());
                } else if *p > 1 {
                    factors.push(format!("{v}^{p}"));
                }
                if *q == 1 {
                    factors.push(format!("log({v})"));
                } else if *q > 1 {
                    factors.push(format!("log({v})^{q}"));
                }
            }
            if c == 1 {
                write!(f, "{}", factors.join("*"))?;
            } else {
                write!(f, "{c}*{}", factors.join("*"))?;
            }
        }
        if self.constant != 0 {
            write!(f, "{sep}{}", self.constant)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bounds and ranges
// ---------------------------------------------------------------------------

/// An upper bound that may be infinite. `Unbounded` is the analyser's honest
/// answer when a recurrence is non-linear or the node budget ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    /// A finite symbolic bound.
    Finite(Poly),
    /// No finite bound could be established.
    Unbounded,
}

impl Bound {
    /// A constant bound.
    pub fn constant(c: u64) -> Bound {
        Bound::Finite(Poly::constant(c))
    }

    /// The finite polynomial, if any.
    pub fn as_poly(&self) -> Option<&Poly> {
        match self {
            Bound::Finite(p) => Some(p),
            Bound::Unbounded => None,
        }
    }

    /// `Some(c)` when the bound is a finite constant.
    pub fn as_const(&self) -> Option<u64> {
        self.as_poly().and_then(Poly::as_const)
    }

    /// Lifted sum, coarsened by [`Poly::compact_upper`].
    pub fn add(&self, other: &Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.add(b).compact_upper()),
            _ => Bound::Unbounded,
        }
    }

    /// `self + c`.
    pub fn add_const(&self, c: u64) -> Bound {
        self.add(&Bound::constant(c))
    }

    /// Lifted product. Zero absorbs `Unbounded`: iterating an opaque body
    /// zero times costs nothing.
    pub fn mul(&self, other: &Bound) -> Bound {
        if self.as_const() == Some(0) || other.as_const() == Some(0) {
            return Bound::constant(0);
        }
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.mul(b).compact_upper()),
            _ => Bound::Unbounded,
        }
    }

    /// Upper bound for `max(self, other)`.
    pub fn join(&self, other: &Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.join(b)),
            _ => Bound::Unbounded,
        }
    }

    /// Sound pointwise comparison lifted from [`Poly::le_pointwise`]:
    /// everything is `≤ Unbounded`, `Unbounded` is `≤` nothing finite.
    /// Incomplete in the same proof-or-give-up sense.
    pub fn le_pointwise(&self, other: &Bound) -> bool {
        match (self, other) {
            (_, Bound::Unbounded) => true,
            (Bound::Unbounded, Bound::Finite(_)) => false,
            (Bound::Finite(a), Bound::Finite(b)) => a.le_pointwise(b),
        }
    }

    /// Upper bound for `min(self, other)`: exact on constants; a finite
    /// operand beats `Unbounded`; otherwise either finite operand is sound.
    pub fn upper_min(&self, other: &Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => match (a.as_const(), b.as_const()) {
                (Some(ca), Some(cb)) => Bound::constant(ca.min(cb)),
                _ => {
                    if a.sample() <= b.sample() {
                        self.clone()
                    } else {
                        other.clone()
                    }
                }
            },
            (Bound::Finite(_), Bound::Unbounded) => self.clone(),
            (Bound::Unbounded, _) => other.clone(),
        }
    }

    /// Lifted [`Poly::log_bound`].
    pub fn log_bound(&self) -> Bound {
        match self {
            Bound::Finite(p) => Bound::Finite(p.log_bound()),
            Bound::Unbounded => Bound::Unbounded,
        }
    }

    /// Evaluate at concrete cardinalities; `None` when unbounded or a
    /// variable is missing.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<u64>) -> Option<u64> {
        self.as_poly().and_then(|p| p.eval(lookup))
    }

    /// Evaluate a closed bound.
    pub fn eval_closed(&self) -> Option<u64> {
        self.as_poly().and_then(Poly::eval_closed)
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(p) => write!(f, "{p}"),
            Bound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// A two-sided range: the least value the quantity takes under *any* binding
/// of the schema relations (every cardinality at zero) and a (possibly
/// infinite) symbolic upper bound. The lower side is a number because its one
/// reader, the doomed-query check, compares it with a number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Range {
    pub lo: u64,
    pub hi: Bound,
}

impl Range {
    pub fn exact(c: u64) -> Range {
        Range::new(c, Bound::constant(c))
    }

    pub fn new(lo: u64, hi: Bound) -> Range {
        Range { lo, hi }
    }

    pub fn unknown_card() -> Range {
        Range::new(0, Bound::Unbounded)
    }

    /// Range covering *either* operand (e.g. the two branches of an `if`):
    /// the lower side must hold for both.
    pub fn join(&self, other: &Range) -> Range {
        Range {
            lo: self.lo.min(other.lo),
            hi: self.hi.join(&other.hi),
        }
    }
}

/// Work/span cost of evaluating one expression: a work range and a span
/// upper bound.
#[derive(Debug, Clone)]
pub(crate) struct Cost {
    pub work: Range,
    pub span: Bound,
}

impl Carrier for Range {
    fn constant(c: u64) -> Range {
        Range::exact(c)
    }
    fn plus(self, other: Range) -> Range {
        Range::new(self.lo.saturating_add(other.lo), self.hi.add(&other.hi))
    }
}

impl Carrier for Bound {
    fn constant(c: u64) -> Bound {
        Bound::constant(c)
    }
    fn plus(self, other: Bound) -> Bound {
        self.add(&other)
    }
}

impl SpanCarrier for Bound {
    fn longest(self, other: Bound) -> Bound {
        self.join(&other)
    }
}

impl Cost {
    pub fn new(work: Range, span: Bound) -> Cost {
        Cost { work, span }
    }

    /// The cost of a node under `rule` whose operands cost `kids`.
    pub fn node(rule: Rule, kids: impl IntoIterator<Item = Cost>) -> Cost {
        let (work, span) = rule.node(kids.into_iter().map(|c| (c.work, c.span)));
        Cost::new(work, span)
    }

    /// Data-dependent extra work: an operand of no depth.
    pub fn extra(work: Range) -> Cost {
        Cost::new(work, Bound::constant(0))
    }

    /// A cost covering *either* operand: the two arms of an `if`.
    pub fn either(&self, other: &Cost) -> Cost {
        Cost::new(self.work.join(&other.work), self.span.join(&other.span))
    }

    /// At least `floor`, nothing else known (budget exhausted / opaque function).
    pub fn opaque(floor: u64) -> Cost {
        Cost::new(Range::new(floor, Bound::Unbounded), Bound::Unbounded)
    }
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// Structural knowledge about an object value.
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    /// Atom / bool / unit / nat.
    Scalar,
    /// A pair with per-component bounds.
    Pair(Rc<ObjBound>, Rc<ObjBound>),
    /// A set with a bound covering *every* element.
    Set(Rc<ObjBound>),
    /// Unknown structure.
    Top,
}

/// Bounds on one object value: its cardinality (1 for non-sets), an upper
/// bound on its [`Value::size`], and its shape. For sets `card ≤ size − 1`
/// (each element has size ≥ 1).
#[derive(Debug, Clone)]
pub(crate) struct ObjBound {
    pub card: Range,
    pub size: Bound,
    pub shape: Shape,
}

impl ObjBound {
    pub fn scalar() -> ObjBound {
        ObjBound {
            card: Range::exact(1),
            size: Bound::constant(1),
            shape: Shape::Scalar,
        }
    }

    pub fn top() -> ObjBound {
        ObjBound {
            card: Range::unknown_card(),
            size: Bound::Unbounded,
            shape: Shape::Top,
        }
    }

    /// The pair `(a, b)`: `Value::size` counts the pair node itself.
    pub fn pair(a: ObjBound, b: ObjBound) -> ObjBound {
        ObjBound {
            card: Range::exact(1),
            size: a.size.add(&b.size).add_const(1),
            shape: Shape::Pair(Rc::new(a), Rc::new(b)),
        }
    }

    /// The singleton `{elem}`.
    pub fn singleton(elem: ObjBound) -> ObjBound {
        ObjBound {
            card: Range::exact(1),
            size: elem.size.add_const(1),
            shape: Shape::Set(Rc::new(elem)),
        }
    }

    /// The size of a set of at most `card` elements of size at most `elem`
    /// each: `Value::size` counts the set node itself.
    pub fn set_size(card: &Bound, elem: &Bound) -> Bound {
        card.mul(elem).add_const(1)
    }

    /// Exact bounds for a concrete value.
    pub fn of_value(v: &Value) -> ObjBound {
        match v {
            Value::Atom(_) | Value::Bool(_) | Value::Unit | Value::Nat(_) => ObjBound::scalar(),
            Value::Pair(a, b) => ObjBound::pair(ObjBound::of_value(a), ObjBound::of_value(b)),
            Value::Set(s) => {
                let card = s.len() as u64;
                let size = v.size() as u64;
                let elem = s
                    .iter()
                    .map(ObjBound::of_value)
                    .reduce(|a, b| a.join(&b))
                    .unwrap_or_else(ObjBound::top);
                ObjBound {
                    card: Range::exact(card),
                    size: Bound::constant(size),
                    shape: Shape::Set(Rc::new(elem)),
                }
            }
        }
    }

    /// Shape-only bounds from a type (cardinalities of sets unknown).
    pub fn of_type(ty: &Type) -> ObjBound {
        match ty {
            Type::Base | Type::Bool | Type::Unit | Type::Nat => ObjBound::scalar(),
            Type::Prod(a, b) => ObjBound::pair(ObjBound::of_type(a), ObjBound::of_type(b)),
            Type::Set(t) => {
                let elem = ObjBound::of_type(t);
                ObjBound {
                    card: Range::unknown_card(),
                    size: Bound::Unbounded,
                    shape: Shape::Set(Rc::new(elem)),
                }
            }
            Type::Fun(_, _) => ObjBound::top(),
        }
    }

    /// Bounds for a schema relation whose cardinality is the symbolic
    /// variable `name`: `card ≤ |name|` (0 at the least binding) and
    /// `size ≤ 1 + |name| · elem_size`.
    pub fn schema_relation(name: &str, ty: &Type) -> ObjBound {
        match ty {
            Type::Set(t) => {
                let elem = ObjBound::of_type(t);
                let n = Bound::Finite(Poly::var(name));
                ObjBound {
                    size: ObjBound::set_size(&n, &elem.size),
                    card: Range::new(0, n),
                    shape: Shape::Set(Rc::new(elem)),
                }
            }
            other => ObjBound::of_type(other),
        }
    }

    /// Covering join: bounds valid for a value that is *either* operand.
    pub fn join(&self, other: &ObjBound) -> ObjBound {
        let shape = match (&self.shape, &other.shape) {
            (Shape::Scalar, Shape::Scalar) => Shape::Scalar,
            (Shape::Pair(a1, b1), Shape::Pair(a2, b2)) => {
                Shape::Pair(Rc::new(a1.join(a2)), Rc::new(b1.join(b2)))
            }
            (Shape::Set(e1), Shape::Set(e2)) => Shape::Set(Rc::new(e1.join(e2))),
            _ => Shape::Top,
        };
        ObjBound {
            card: self.card.join(&other.card),
            size: self.size.join(&other.size),
            shape,
        }
    }

    /// Bounds after `meet(self, bound)` — the bounded recursors' cap. The
    /// meet is contained in `bound` structurally, so `bound`'s uppers apply;
    /// lowers collapse (the meet can be empty).
    pub fn cap(&self, bound: &ObjBound) -> ObjBound {
        ObjBound {
            card: Range::new(0, self.card.hi.upper_min(&bound.card.hi)),
            size: self.size.upper_min(&bound.size),
            shape: bound.shape.clone().loosen_lows(),
        }
    }

    /// [`ObjBound::cap`] under the bound of a bounded form, `self` otherwise.
    pub fn capped(self, cap: Option<&ObjBound>) -> ObjBound {
        match cap {
            Some(bound) => self.cap(bound),
            None => self,
        }
    }

    /// The element bound of a set-shaped value (`top` when unknown).
    pub fn set_elem(&self) -> ObjBound {
        match &self.shape {
            Shape::Set(e) => (**e).clone(),
            _ => ObjBound::top(),
        }
    }
}

impl Shape {
    /// Recursively zero the lower bounds of every nested range — used when a
    /// shape is reused as a *cover* for values that may be structurally
    /// smaller (the bounded recursors' meet).
    fn loosen_lows(self) -> Shape {
        fn loosen(b: &ObjBound) -> ObjBound {
            ObjBound {
                card: Range::new(0, b.card.hi.clone()),
                size: b.size.clone(),
                shape: b.shape.clone().loosen_lows(),
            }
        }
        match self {
            Shape::Pair(a, b) => Shape::Pair(Rc::new(loosen(&a)), Rc::new(loosen(&b))),
            Shape::Set(e) => Shape::Set(Rc::new(loosen(&e))),
            s => s,
        }
    }
}

/// An abstract runtime value: an object bound, a closure (the analyser is
/// higher-order, like the evaluator), or nothing known.
#[derive(Debug, Clone)]
pub(crate) enum AbsVal<'a> {
    Obj(ObjBound),
    Fun(Rc<AbsClosure<'a>>),
    Top,
}

/// A `λ` body with the abstract values of the binders around it; its
/// parameter is the body's `Slot::Bound(0)`.
#[derive(Debug)]
pub(crate) struct AbsClosure<'a> {
    body: &'a Expr,
    env: AbsEnv<'a>,
}

/// The abstract values of the binders in scope, innermost first.
type AbsEnv<'a> = Frames<AbsVal<'a>>;

impl<'a> AbsVal<'a> {
    /// View as an object bound (functions and Top degrade to `top()`).
    fn as_obj(&self) -> ObjBound {
        match self {
            AbsVal::Obj(b) => b.clone(),
            _ => ObjBound::top(),
        }
    }

    fn join(&self, other: &AbsVal<'a>) -> AbsVal<'a> {
        match (self, other) {
            (AbsVal::Obj(a), AbsVal::Obj(b)) => AbsVal::Obj(a.join(b)),
            (AbsVal::Fun(a), AbsVal::Fun(b)) if std::ptr::eq(a.body, b.body) => {
                AbsVal::Fun(a.clone())
            }
            _ => AbsVal::Top,
        }
    }
}

// ---------------------------------------------------------------------------
// The abstract interpreter
// ---------------------------------------------------------------------------

/// Node budget for a full query analysis. Abstract evaluation re-analyses
/// recursor bodies per simulated round, so this is comfortably above any
/// realistic query; exhausting it degrades the answer to `Unbounded`.
const DEFAULT_BUDGET: u64 = 200_000;

/// Budget for the cheap per-closure analysis behind the parallel-region gate.
const GATE_BUDGET: u64 = 2_000;

/// Maximum abstract call depth — a stack-overflow guard independent of the
/// node budget (deeply nested higher-order programs).
const MAX_DEPTH: u32 = 400;

/// Sequential chains (insert recursors, iterators) are simulated round by
/// round when the round count is a known constant up to this cap; beyond it
/// the symbolic recurrence takes over.
const NUMERIC_STEP_CAP: u64 = 256;

pub(crate) struct Analyzer<'a> {
    registry: &'a ExternRegistry,
    /// The schema relation each free name of the plan is, if it is one.
    free: Vec<Option<ObjBound>>,
    budget: u64,
    depth: u32,
    fresh: u64,
}

impl<'a> Analyzer<'a> {
    pub fn new(registry: &'a ExternRegistry, free: Vec<Option<ObjBound>>, budget: u64) -> Self {
        Analyzer {
            registry,
            free,
            budget,
            depth: 0,
            fresh: 0,
        }
    }

    fn fresh_measure(&mut self) -> String {
        self.fresh += 1;
        format!("%g{}", self.fresh)
    }

    /// Abstractly evaluate `expr`, returning a cover of its value and a
    /// work/span cost range: the arms of `Evaluator::eval_kind` under the
    /// same rules, so every arm's upper bound dominates the corresponding
    /// concrete charge sequence.
    pub fn eval(&mut self, expr: &'a Expr, env: &AbsEnv<'a>) -> (AbsVal<'a>, Cost) {
        if self.budget == 0 || self.depth >= MAX_DEPTH {
            return (AbsVal::Top, Cost::opaque(cost::NODE));
        }
        self.budget -= 1;
        let leaf = || Cost::node(cost::LEAF, []);
        match &expr.kind {
            ExprKind::Var(x) => {
                let val = match x.slot {
                    Slot::Bound(d) => env.get(d).cloned(),
                    Slot::Free(i) => self.free.get(i).cloned().flatten().map(AbsVal::Obj),
                    Slot::Unresolved => None,
                };
                (val.unwrap_or(AbsVal::Top), leaf())
            }
            ExprKind::Lam(_, _, body) => (
                AbsVal::Fun(Rc::new(AbsClosure {
                    body,
                    env: env.clone(),
                })),
                leaf(),
            ),
            ExprKind::Unit | ExprKind::Bool(_) => (AbsVal::Obj(ObjBound::scalar()), leaf()),
            ExprKind::Const(v) => (AbsVal::Obj(ObjBound::of_value(v)), leaf()),
            ExprKind::Empty(t) => (
                AbsVal::Obj(ObjBound {
                    card: Range::exact(0),
                    size: Bound::constant(1),
                    shape: Shape::Set(Rc::new(ObjBound::of_type(t))),
                }),
                leaf(),
            ),
            ExprKind::App(fe, ae) => {
                let (fv, fc) = self.eval(fe, env);
                let (av, ac) = self.eval(ae, env);
                let (rv, rc) = self.apply(&fv, av);
                (rv, Cost::node(cost::APP, [fc, ac, rc]))
            }
            ExprKind::Let(_, rhs, body) => {
                let (rv, rc) = self.eval(rhs, env);
                let inner = env.bind(rv);
                let (bv, bc) = self.eval(body, &inner);
                (bv, Cost::node(cost::LET, [rc, bc]))
            }
            ExprKind::Pair(a, b) => {
                let (av, ac) = self.eval(a, env);
                let (bv, bc) = self.eval(b, env);
                (
                    AbsVal::Obj(ObjBound::pair(av.as_obj(), bv.as_obj())),
                    Cost::node(cost::PAIR, [ac, bc]),
                )
            }
            ExprKind::Proj1(e) | ExprKind::Proj2(e) => {
                let first = matches!(expr.kind, ExprKind::Proj1(_));
                let (v, c) = self.eval(e, env);
                let out = match &v.as_obj().shape {
                    Shape::Pair(a, b) => (**if first { a } else { b }).clone(),
                    _ => ObjBound::top(),
                };
                (AbsVal::Obj(out), Cost::node(cost::PROJ, [c]))
            }
            ExprKind::If(cond, then, els) => {
                let (_, cc) = self.eval(cond, env);
                let (tv, tc) = self.eval(then, env);
                let (ev, ec) = self.eval(els, env);
                (tv.join(&ev), Cost::node(cost::IF, [cc, tc.either(&ec)]))
            }
            ExprKind::Eq(a, b) | ExprKind::Leq(a, b) => {
                let (av, ac) = self.eval(a, env);
                let (bv, bc) = self.eval(b, env);
                let ao = av.as_obj();
                let bo = bv.as_obj();
                // At least the charge for two scalars (`Value::size` ≥ 1).
                let cmp = Range::new(cost::cmp_extra(1, 1), ao.size.upper_min(&bo.size));
                (
                    AbsVal::Obj(ObjBound::scalar()),
                    Cost::node(cost::CMP, [ac, bc, Cost::extra(cmp)]),
                )
            }
            ExprKind::Singleton(e) => {
                let (v, c) = self.eval(e, env);
                (
                    AbsVal::Obj(ObjBound::singleton(v.as_obj())),
                    Cost::node(cost::SINGLETON, [c]),
                )
            }
            ExprKind::Union(a, b) => {
                let (av, ac) = self.eval(a, env);
                let (bv, bc) = self.eval(b, env);
                let ao = av.as_obj();
                let bo = bv.as_obj();
                // Extra charge |a ∪ b|: at most |a| + |b|, at least max.
                let merged = Range::new(ao.card.lo.max(bo.card.lo), ao.card.hi.add(&bo.card.hi));
                let out = ObjBound {
                    card: merged.clone(),
                    // size(a ∪ b) = 1 + Σ ≤ (size a − 1) + (size b − 1) + 1.
                    size: ao.size.add(&bo.size),
                    shape: Shape::Set(Rc::new(ao.set_elem().join(&bo.set_elem()))),
                };
                (
                    AbsVal::Obj(out),
                    Cost::node(cost::UNION, [ac, bc, Cost::extra(merged)]),
                )
            }
            ExprKind::IsEmpty(e) => {
                let (_, c) = self.eval(e, env);
                (
                    AbsVal::Obj(ObjBound::scalar()),
                    Cost::node(cost::IS_EMPTY, [c]),
                )
            }
            ExprKind::Ext(fe, ae) => self.eval_ext(fe, ae, env),
            ExprKind::UnionRec { form, e, f, u, arg } => {
                self.eval_union_recursor(e, f, u, form.bound(), arg, env)
            }
            ExprKind::InsertRec { form, e, i, arg } => {
                self.eval_insert_recursor(e, i, form.bound(), arg, env)
            }
            ExprKind::Iter { form, f, set, init } => {
                self.eval_iterator(f, form.bound(), set, init, form.is_log(), env)
            }
            ExprKind::Extern(name, args) => {
                let mut kids: Vec<Cost> = args.iter().map(|a| self.eval(a, env).1).collect();
                kids.push(Cost::extra(Range::exact(cost::EXTERN_CALL)));
                let out = self
                    .registry
                    .get(name)
                    .map(|f| ObjBound::of_type(&f.result))
                    .unwrap_or_else(ObjBound::top);
                (AbsVal::Obj(out), Cost::node(cost::EXTERN, kids))
            }
        }
    }

    /// Abstract function application: `Evaluator::apply` under
    /// [`cost::APPLY`].
    fn apply(&mut self, f: &AbsVal<'a>, arg: AbsVal<'a>) -> (AbsVal<'a>, Cost) {
        match f {
            AbsVal::Fun(clo) => {
                if self.budget == 0 || self.depth >= MAX_DEPTH {
                    return (AbsVal::Top, Cost::opaque(cost::NODE));
                }
                self.depth += 1;
                let inner = clo.env.bind(arg);
                let (v, c) = self.eval(clo.body, &inner);
                self.depth -= 1;
                (v, Cost::node(cost::APPLY, [c]))
            }
            _ => (AbsVal::Top, Cost::opaque(cost::CALL_FLOOR)),
        }
    }

    /// Apply to a pair `(a, b)` — the combiner/step calling convention.
    fn apply2(&mut self, f: &AbsVal<'a>, a: ObjBound, b: ObjBound) -> (AbsVal<'a>, Cost) {
        self.apply(f, AbsVal::Obj(ObjBound::pair(a, b)))
    }

    /// Evaluate one operand of a recursion: its cost joins `operands`.
    fn operand(&mut self, e: &'a Expr, env: &AbsEnv<'a>, operands: &mut Vec<Cost>) -> AbsVal<'a> {
        let (v, c) = self.eval(e, env);
        operands.push(c);
        v
    }
}

/// `base^k` over bounds (`k` is at most 64).
fn bound_pow(base: &Bound, k: u32) -> Bound {
    let mut out = Bound::constant(1);
    for _ in 0..k {
        out = out.mul(base);
    }
    out
}

/// Substitute an upper bound for a measure variable inside an upper bound.
fn subst_bound(b: &Bound, var: &str, replacement: &Bound) -> Bound {
    match b {
        Bound::Finite(p) if !p.mentions(var) => b.clone(),
        Bound::Finite(p) => match replacement {
            Bound::Finite(r) => Bound::Finite(p.subst(var, r).compact_upper()),
            Bound::Unbounded => Bound::Unbounded,
        },
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// The closed-form size cap for an accumulator recurrence `size' ≤ A·g + R`
/// iterated `rounds` times from starting size `s0`, given an optional hard
/// cap (the bounded recursors' meet) and whether growth beyond linear is
/// tolerable (`geometric_rounds` is `Some(levels)` for the combining tree,
/// where depth is logarithmic, and `None` for sequential chains).
#[allow(clippy::too_many_arguments)]
fn solve_size_recurrence(
    sigma: &Bound,
    g: &str,
    s0: &Bound,
    rounds: &Bound,
    cap: Option<&Bound>,
    m_for_geometric: Option<&Bound>,
) -> Bound {
    if let Some(c) = cap {
        // Every round ends in `meet(·, bound)`, so the bound's size caps all
        // intermediate values regardless of the recurrence.
        return c.join(s0);
    }
    let sigma = match sigma {
        Bound::Finite(p) => p,
        Bound::Unbounded => return Bound::Unbounded,
    };
    if !sigma.mentions(g) {
        return s0.join(&Bound::Finite(sigma.clone()));
    }
    match sigma.linear_in(g) {
        None => Bound::Unbounded,
        Some((0, rest)) => s0.join(&Bound::Finite(rest)),
        Some((1, rest)) => s0.add(&rounds.mul(&Bound::Finite(rest))),
        Some((a, rest)) => match m_for_geometric {
            // Tree depth is ⌈log₂ m⌉, so A^depth ≤ A · m^⌈log₂ A⌉.
            Some(m) => Bound::constant(a)
                .mul(&bound_pow(m, cost::tree_depth(a)))
                .mul(&s0.join(&Bound::Finite(rest)).add_const(1)),
            // A sequential chain compounds A^n — no polynomial bound.
            None => Bound::Unbounded,
        },
    }
}

impl<'a> Analyzer<'a> {
    /// `ext(f, e)` under [`cost::EXT`].
    fn eval_ext(&mut self, fe: &'a Expr, ae: &'a Expr, env: &AbsEnv<'a>) -> (AbsVal<'a>, Cost) {
        let (fv, fc) = self.eval(fe, env);
        let (av, ac) = self.eval(ae, env);
        let arg = av.as_obj();
        let m = arg.card.clone();
        let (rv, rc) = self.apply(&fv, AbsVal::Obj(arg.set_elem()));
        let out = rv.as_obj();
        // The flattened result may be empty whatever `m` is.
        let card = Range::new(0, m.hi.mul(&out.card.hi));
        let applications = Range::new(m.lo.saturating_mul(rc.work.lo), m.hi.mul(&rc.work.hi));
        let result = ObjBound {
            card: card.clone(),
            size: ObjBound::set_size(&m.hi, &out.size),
            shape: Shape::Set(Rc::new(out.set_elem())),
        };
        let elements = Cost::new(applications, rc.span);
        (
            AbsVal::Obj(result),
            Cost::node(cost::EXT, [fc, ac, elements, Cost::extra(card)]),
        )
    }

    /// `dcr` / `sru` / `bdcr`: the leaves, then the combining tree.
    fn eval_union_recursor(
        &mut self,
        e: &'a Expr,
        f: &'a Expr,
        u: &'a Expr,
        bound: Option<&'a Expr>,
        arg: &'a Expr,
        env: &AbsEnv<'a>,
    ) -> (AbsVal<'a>, Cost) {
        let mut operands = Vec::with_capacity(5);
        let ev = self.operand(e, env, &mut operands);
        let fv = self.operand(f, env, &mut operands);
        let uv = self.operand(u, env, &mut operands);
        let cap = bound.map(|b| self.operand(b, env, &mut operands).as_obj());
        let arg_obj = self.operand(arg, env, &mut operands).as_obj();
        let m = arg_obj.card.clone();

        let e_obj = ev.as_obj().capped(cap.as_ref());

        // Leaves: f per element; every leaf costs at least the call floor,
        // giving the work floor a term in m.
        let (leaf_v, leaf_c) = self.apply(&fv, AbsVal::Obj(arg_obj.set_elem()));
        let leaf_obj = leaf_v.as_obj().capped(cap.as_ref());
        let floor = m.lo.saturating_mul(cost::CALL_FLOOR);
        let leaves = Cost::new(Range::new(floor, m.hi.mul(&leaf_c.work.hi)), leaf_c.span);

        let (result, tree_work_hi, tree_span_hi) = match m.hi.as_const() {
            Some(mc) => self.numeric_tree(&uv, leaf_obj.join(&e_obj), mc, cap.as_ref()),
            None => self.symbolic_tree(&uv, &leaf_obj, &e_obj, &m.hi, cap.as_ref()),
        };
        let tree = Cost::new(Range::new(0, tree_work_hi), tree_span_hi);
        let operands = Cost::node(cost::INDEPENDENT, operands);
        (
            AbsVal::Obj(result),
            Cost::node(cost::RECURSION, [operands, leaves, tree]),
        )
    }

    /// Simulate the combining tree round by round for a known leaf count.
    /// Sound for any actual `m ≤ leaves` because node bounds only grow and a
    /// shallower tree's rounds are a prefix of the simulated ones. Finite
    /// even for non-linear combiners (powerset): at most 64 rounds.
    fn numeric_tree(
        &mut self,
        u: &AbsVal<'a>,
        start: ObjBound,
        leaves: u64,
        cap: Option<&ObjBound>,
    ) -> (ObjBound, Bound, Bound) {
        let mut node = start;
        let mut width = leaves;
        let mut work = Bound::constant(0);
        let mut span = Bound::constant(0);
        while width > 1 {
            let (rv, cc) = self.apply2(u, node.clone(), node.clone());
            node = node.join(&rv.as_obj().capped(cap));
            work = work.add(&Bound::constant(width / 2).mul(&cc.work.hi));
            span = cost::IN_SEQUENCE.join(span, cc.span);
            width = width.div_ceil(2);
        }
        (node, work, span)
    }

    /// Solve the combining-tree recurrence symbolically: analyse the combiner
    /// once at measure size `g`, decompose the result size as `A·g + R`, and
    /// charge `m − 1 ≤ m` calls at the closed-form maximum node size, with
    /// `⌈log₂ m⌉` levels on the span.
    fn symbolic_tree(
        &mut self,
        u: &AbsVal<'a>,
        leaf_obj: &ObjBound,
        e_obj: &ObjBound,
        m_hi: &Bound,
        cap: Option<&ObjBound>,
    ) -> (ObjBound, Bound, Bound) {
        let g = self.fresh_measure();
        let gx = measure_obj(&g);
        let (rv, cc) = self.apply2(u, gx.clone(), gx);
        let r_obj = rv.as_obj();
        let s0 = leaf_obj.size.join(&e_obj.size);
        let levels = m_hi.log_bound();
        let s_max = solve_size_recurrence(
            &r_obj.size,
            &g,
            &s0,
            &levels,
            cap.map(|b| &b.size),
            Some(m_hi),
        );
        let call_work = subst_bound(&cc.work.hi, &g, &s_max);
        let call_span = subst_bound(&cc.span, &g, &s_max);
        let result = capped_set_result(&s_max, cap);
        (result, m_hi.mul(&call_work), levels.mul(&call_span))
    }

    /// `sri` / `esr` / `bsri`: a sequential chain of `n` step calls.
    fn eval_insert_recursor(
        &mut self,
        e: &'a Expr,
        i: &'a Expr,
        bound: Option<&'a Expr>,
        arg: &'a Expr,
        env: &AbsEnv<'a>,
    ) -> (AbsVal<'a>, Cost) {
        let mut operands = Vec::with_capacity(4);
        let ev = self.operand(e, env, &mut operands);
        let iv = self.operand(i, env, &mut operands);
        let cap = bound.map(|b| self.operand(b, env, &mut operands).as_obj());
        let arg_obj = self.operand(arg, env, &mut operands).as_obj();
        let n = arg_obj.card.clone();
        let acc0 = ev.as_obj().capped(cap.as_ref());
        let elem = arg_obj.set_elem();
        let step = |this: &mut Self, acc: ObjBound| this.apply2(&iv, elem.clone(), acc);
        self.eval_chain(operands, acc0, n, step, cap)
    }

    /// `loop` / `log-loop` / `bloop` / `blog-loop`: the body applied `|set|`
    /// or `log_rounds(|set|)` times, sequentially.
    fn eval_iterator(
        &mut self,
        f: &'a Expr,
        bound: Option<&'a Expr>,
        set: &'a Expr,
        init: &'a Expr,
        logarithmic: bool,
        env: &AbsEnv<'a>,
    ) -> (AbsVal<'a>, Cost) {
        let mut operands = Vec::with_capacity(4);
        let fv = self.operand(f, env, &mut operands);
        let cap = bound.map(|b| self.operand(b, env, &mut operands).as_obj());
        let card = self.operand(set, env, &mut operands).as_obj().card;
        let iv = self.operand(init, env, &mut operands);
        let rounds = if logarithmic {
            Range::new(log_rounds(card.lo as usize), card.hi.log_bound())
        } else {
            card
        };
        let acc0 = iv.as_obj().capped(cap.as_ref());
        let step = |this: &mut Self, acc: ObjBound| this.apply(&fv, AbsVal::Obj(acc));
        self.eval_chain(operands, acc0, rounds, step, cap)
    }

    /// Shared chain analysis: numeric simulation for small known round
    /// counts, the `A·g + R` recurrence otherwise.
    fn eval_chain(
        &mut self,
        operands: Vec<Cost>,
        acc0: ObjBound,
        rounds: Range,
        mut step: impl FnMut(&mut Self, ObjBound) -> (AbsVal<'a>, Cost),
        cap: Option<ObjBound>,
    ) -> (AbsVal<'a>, Cost) {
        let numeric = rounds.hi.as_const().filter(|n| *n <= NUMERIC_STEP_CAP);
        let (result, chain_work_hi, chain_span_hi) = match numeric {
            Some(n) => {
                let mut acc = acc0;
                let mut work = Bound::constant(0);
                let mut span = Bound::constant(0);
                for _ in 0..n {
                    let (rv, cc) = step(self, acc.clone());
                    acc = acc.join(&rv.as_obj().capped(cap.as_ref()));
                    work = work.add(&cc.work.hi);
                    span = cost::IN_SEQUENCE.join(span, cc.span);
                }
                (acc, work, span)
            }
            None => {
                let g = self.fresh_measure();
                let gx = measure_obj(&g);
                let (rv, cc) = step(self, gx);
                let r_obj = rv.as_obj();
                let s_max = solve_size_recurrence(
                    &r_obj.size,
                    &g,
                    &acc0.size,
                    &rounds.hi,
                    cap.as_ref().map(|b| &b.size),
                    None,
                );
                let call_work = subst_bound(&cc.work.hi, &g, &s_max);
                let call_span = subst_bound(&cc.span, &g, &s_max);
                let mut result = capped_set_result(&s_max, cap.as_ref());
                if !matches!(result.shape, Shape::Pair(..) | Shape::Set(_)) {
                    result.shape = Shape::Top;
                }
                (result, rounds.hi.mul(&call_work), rounds.hi.mul(&call_span))
            }
        };
        // Every round costs at least the call floor.
        let floor = rounds.lo.saturating_mul(cost::CALL_FLOOR);
        let chain = Cost::new(Range::new(floor, chain_work_hi), chain_span_hi);
        let operands = Cost::node(cost::INDEPENDENT, operands);
        (
            AbsVal::Obj(result),
            Cost::node(cost::RECURSION, [operands, chain]),
        )
    }
}

/// The symbolic accumulator cover at measure `g`: any value of cardinality
/// and size at most `g`, with elements bounded the same way.
fn measure_obj(g: &str) -> ObjBound {
    let g = Bound::Finite(Poly::var(g));
    let elem = ObjBound {
        card: Range::new(0, g.clone()),
        size: g.clone(),
        shape: Shape::Top,
    };
    ObjBound {
        card: Range::new(0, g.clone()),
        size: g,
        shape: Shape::Set(Rc::new(elem)),
    }
}

/// The result cover of a symbolically-solved recursion: size (and hence
/// cardinality) at most `s_max`, shaped by the hard cap when one exists.
fn capped_set_result(s_max: &Bound, cap: Option<&ObjBound>) -> ObjBound {
    match cap {
        Some(b) => b.clone().cap(b),
        None => ObjBound {
            card: Range::new(0, s_max.clone()),
            size: s_max.clone(),
            shape: Shape::Top,
        },
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// The static cost bounds of one query: two symbolic upper bounds in the
/// cardinalities of its free schema relations (a variable `r` in the rendered
/// form reads as "the cardinality of relation `r`", e.g. `work <= 4*r + 3`),
/// plus the work floor — a plain number, so nothing that coarsens an upper
/// bound can ever be applied to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostBound {
    /// Upper bound on `CostStats::work`.
    pub work: Bound,
    /// Upper bound on `CostStats::span`.
    pub span: Bound,
    /// The least work any *completed* evaluation charges, however the schema
    /// relations are bound (every cardinality at zero). If this exceeds a
    /// session's `max_work`, evaluation is guaranteed to abort with
    /// `WorkLimitExceeded`.
    pub work_floor: u64,
}

impl fmt::Display for CostBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "work <= {}, span <= {}", self.work, self.span)
    }
}

/// The full result of analysing one query at prepare time.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// Symbolic work/span bounds.
    pub cost: CostBound,
    /// Lint findings, in source order.
    pub findings: Vec<Finding>,
}

impl QueryAnalysis {
    /// The findings that reject the query under a deny-level lint policy.
    pub fn deny_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
    }
}

/// Analyse a query against a schema: infer symbolic work/span bounds by
/// abstract interpretation of the evaluator's cost model, and run the lint
/// pass. Total: never panics, never diverges (node budget + depth guard),
/// degrades to `Bound::Unbounded` instead of guessing.
pub fn analyze_query(
    expr: &Expr,
    schema: &[(String, Type)],
    registry: &ExternRegistry,
) -> QueryAnalysis {
    resolve(expr).analyze(schema, registry)
}

impl Resolved<'_> {
    /// [`analyze_query`] of a resolved plan.
    pub fn analyze(&self, schema: &[(String, Type)], registry: &ExternRegistry) -> QueryAnalysis {
        let mut findings = Vec::new();
        lint_pass(self, schema, &mut findings);
        let cost = self.cost(schema, registry);
        QueryAnalysis { cost, findings }
    }

    /// The symbolic work/span bounds of a resolved plan, without its lints.
    pub fn cost(&self, schema: &[(String, Type)], registry: &ExternRegistry) -> CostBound {
        let relation = |name: &String| {
            let (name, ty) = schema.iter().rev().find(|(n, _)| n == name)?;
            Some(ObjBound::schema_relation(name, ty))
        };
        let free = self.free.iter().map(relation).collect();
        let mut analyzer = Analyzer::new(registry, free, DEFAULT_BUDGET);
        let (_, cost) = analyzer.eval(&self.expr, &Frames(None));
        CostBound {
            work: cost.work.hi,
            span: cost.span,
            work_floor: cost.work.lo,
        }
    }
}

/// The per-application cost estimate behind the evaluator's parallel-region
/// gate: the closure body's static work bound when the analyser can pin a
/// finite constant, else the legacy `1 + body size` heuristic. Memoised per
/// `λ` body in the plan's survey (`kernel::Sites`), so the (cheap,
/// gate-budgeted) analysis runs at most once per distinct lambda per plan.
/// The body is resolved in its plan; what it reads from outside is unknown.
pub(crate) fn region_gate_cost(body: &Expr, registry: &ExternRegistry) -> u64 {
    let mut analyzer = Analyzer::new(registry, Vec::new(), GATE_BUDGET);
    let (_, cost) = analyzer.eval(body, &Frames(None));
    match cost.work.hi.eval_closed() {
        Some(w) => w.max(1),
        None => 1 + body.size() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Lint;
    use crate::eval::{eval_with_stats, Evaluator};
    use crate::expr::Expr;

    fn analyze_closed(expr: &Expr) -> QueryAnalysis {
        analyze_query(expr, &[], &ExternRegistry::standard())
    }

    /// Assert `floor ≤ measured ≤ bound` for a closed query on the default
    /// sequential evaluator.
    fn assert_sound(expr: &Expr) {
        let (_, stats) = eval_with_stats(expr).expect("query evaluates");
        let analysis = analyze_closed(expr);
        let work_hi = analysis
            .cost
            .work
            .eval_closed()
            .expect("closed query has a closed work bound");
        let span_hi = analysis
            .cost
            .span
            .eval_closed()
            .expect("closed query has a closed span bound");
        assert!(
            stats.work <= work_hi,
            "work {} exceeds bound {work_hi}",
            stats.work
        );
        assert!(
            stats.span <= span_hi,
            "span {} exceeds bound {span_hi}",
            stats.span
        );
        assert!(
            analysis.cost.work_floor <= stats.work,
            "work floor {} exceeds measured {}",
            analysis.cost.work_floor,
            stats.work
        );
    }

    #[test]
    fn poly_algebra_and_display() {
        // Plans, and the bounds on them, are shared across threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Poly>();
        let p = Poly::var("|r|")
            .mul(&Poly::var("|r|"))
            .scale(3)
            .add_const(5);
        assert_eq!(p.to_string(), "3*|r|^2 + 5");
        assert_eq!(p.eval(&|_| Some(4)), Some(53));
        assert_eq!(Poly::log_var("|r|").eval(&|_| Some(8)), Some(4));
        assert_eq!(Poly::zero().to_string(), "0");
        let (a, rest) = Poly::var("g").scale(2).add_const(7).linear_in("g").unwrap();
        assert_eq!(a, 2);
        assert_eq!(rest.as_const(), Some(7));
        assert!(Poly::var("g").mul(&Poly::var("g")).linear_in("g").is_none());
    }

    #[test]
    fn log_bound_dominates_log_rounds() {
        // log_bound must over-approximate log_rounds of the polynomial's
        // value at every point.
        let p = Poly::var("n").mul(&Poly::var("n")).scale(3).add_const(17);
        let lb = p.log_bound();
        for n in [0u64, 1, 2, 5, 100, 4096] {
            let val = p.eval(&|_| Some(n)).unwrap();
            let bound = lb.eval(&|_| Some(n)).unwrap();
            assert!(
                log_rounds(val as usize) <= bound,
                "n={n}: log_rounds({val}) > {bound}"
            );
        }
    }

    #[test]
    fn closed_query_bounds_are_sound() {
        let union = Expr::union(
            Expr::singleton(Expr::atom(1)),
            Expr::singleton(Expr::atom(2)),
        );
        assert_sound(&union);

        let ext = Expr::ext(
            Expr::lam("x", Type::Base, Expr::singleton(Expr::var("x"))),
            Expr::constant(Value::atom_set(vec![1, 2, 3, 4, 5])),
        );
        assert_sound(&ext);

        // A dcr computing the union of singletons — exercises the tree.
        let ty = Type::set(Type::Base);
        let dcr = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
            Expr::lam2(
                "a",
                "b",
                Type::prod(ty.clone(), ty),
                Expr::union(Expr::var("a"), Expr::var("b")),
            ),
            Expr::constant(Value::atom_set(0..13)),
        );
        assert_sound(&dcr);

        // An insert recursor summing via extern arithmetic.
        let nat_pair = Type::prod(Type::Base, Type::Nat);
        let sri = Expr::sri(
            Expr::nat(0),
            Expr::lam2(
                "x",
                "acc",
                Type::prod(Type::Base, Type::Nat),
                Expr::extern_call(
                    "nat_add",
                    vec![
                        Expr::extern_call("atom_to_nat", vec![Expr::var("x")]),
                        Expr::var("acc"),
                    ],
                ),
            ),
            Expr::constant(Value::atom_set(vec![3, 1, 4, 1, 5])),
        );
        let _ = nat_pair;
        assert_sound(&sri);

        // An iterator doubling a counter log-many times.
        let log_loop = Expr::log_loop(
            Expr::lam(
                "n",
                Type::Nat,
                Expr::extern_call("nat_add", vec![Expr::var("n"), Expr::var("n")]),
            ),
            Expr::constant(Value::atom_set(0..9)),
            Expr::nat(1),
        );
        assert_sound(&log_loop);
    }

    #[test]
    fn symbolic_bound_covers_concrete_cardinalities() {
        // ext(λx. {x}, r) over a schema relation: the bound is symbolic in
        // |r| and must dominate the measured cost at every instantiation.
        let schema = vec![("r".to_string(), Type::set(Type::Base))];
        let expr = Expr::ext(
            Expr::lam("x", Type::Base, Expr::singleton(Expr::var("x"))),
            Expr::var("r"),
        );
        let analysis = analyze_query(&expr, &schema, &ExternRegistry::standard());
        let work = analysis.cost.work.clone();
        assert!(
            work.as_poly().expect("finite").mentions("r"),
            "bound should be symbolic in |r|: {work}"
        );
        for n in [0u64, 1, 7, 32] {
            let binding = vec![("r".to_string(), Value::atom_set(0..n))];
            let mut ev = Evaluator::default();
            ev.eval_with_bindings(&expr, &binding).expect("evaluates");
            let measured = ev.stats().work;
            let bound = work.eval(&|name| (name == "r").then_some(n)).unwrap();
            assert!(
                measured <= bound,
                "|r|={n}: measured {measured} > bound {bound}"
            );
            assert!(analysis.cost.work_floor <= measured);
        }
    }

    #[test]
    fn doomed_floor_exceeds_tiny_budget() {
        let expr = Expr::union(
            Expr::singleton(Expr::atom(1)),
            Expr::singleton(Expr::atom(2)),
        );
        let analysis = analyze_closed(&expr);
        // The concrete evaluation charges 7 units; the floor must sit in
        // (3, 7] for the doomed check to fire on a 3-unit budget.
        let floor = analysis.cost.work_floor;
        assert!(floor > 3, "floor {floor} too weak to catch max_work = 3");
        let (_, stats) = eval_with_stats(&expr).unwrap();
        assert!(floor <= stats.work);
    }

    #[test]
    fn lints_fire_and_classify() {
        // Unused binding + shadowed schema variable.
        let schema = vec![("r".to_string(), Type::set(Type::Base))];
        let expr = Expr::let_in("r", Expr::singleton(Expr::atom(1)), Expr::atom(2));
        let analysis = analyze_query(&expr, &schema, &ExternRegistry::standard());
        let lints: Vec<Lint> = analysis.findings.iter().map(|f| f.lint).collect();
        assert!(lints.contains(&Lint::UnusedBinding));
        assert!(lints.contains(&Lint::ShadowedSchemaVariable));
        assert!(analysis.deny_findings().next().is_none());

        // Empty union operand.
        let expr = Expr::union(Expr::empty(Type::Base), Expr::singleton(Expr::atom(1)));
        let analysis = analyze_closed(&expr);
        assert!(analysis
            .findings
            .iter()
            .any(|f| f.lint == Lint::EmptySetOperand));

        // A combiner that drops its first argument: deny.
        let ty = Type::set(Type::Base);
        let expr = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
            Expr::lam2("a", "b", Type::prod(ty.clone(), ty), Expr::var("b")),
            Expr::constant(Value::atom_set(vec![1, 2, 3])),
        );
        let analysis = analyze_closed(&expr);
        let deny: Vec<&Finding> = analysis.deny_findings().collect();
        assert_eq!(deny.len(), 1);
        assert_eq!(deny[0].lint, Lint::IgnoredCombinerArgument);

        // The same shape using both arguments is clean.
        let ty = Type::set(Type::Base);
        let expr = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
            Expr::lam2(
                "a",
                "b",
                Type::prod(ty.clone(), ty),
                Expr::union(Expr::var("a"), Expr::var("b")),
            ),
            Expr::constant(Value::atom_set(vec![1, 2, 3])),
        );
        assert!(analyze_closed(&expr).deny_findings().next().is_none());

        // An insert step may ignore the element but not the accumulator.
        let step_ignores_elem = Expr::sri(
            Expr::nat(0),
            Expr::lam2(
                "x",
                "acc",
                Type::prod(Type::Base, Type::Nat),
                Expr::extern_call("nat_add", vec![Expr::var("acc"), Expr::nat(1)]),
            ),
            Expr::constant(Value::atom_set(vec![1, 2])),
        );
        assert!(analyze_closed(&step_ignores_elem)
            .deny_findings()
            .next()
            .is_none());
        let step_ignores_acc = Expr::sri(
            Expr::nat(0),
            Expr::lam2(
                "x",
                "acc",
                Type::prod(Type::Base, Type::Nat),
                Expr::extern_call("atom_to_nat", vec![Expr::var("x")]),
            ),
            Expr::constant(Value::atom_set(vec![1, 2])),
        );
        assert!(analyze_closed(&step_ignores_acc)
            .deny_findings()
            .next()
            .is_some());

        // Constant subexpression under a lambda.
        let expr = Expr::ext(
            Expr::lam(
                "x",
                Type::Base,
                Expr::union(
                    Expr::singleton(Expr::atom(7)),
                    Expr::singleton(Expr::atom(8)),
                ),
            ),
            Expr::constant(Value::atom_set(vec![1, 2])),
        );
        assert!(analyze_closed(&expr)
            .findings
            .iter()
            .any(|f| f.lint == Lint::ConstantSubexpression));
    }

    #[test]
    fn region_gate_cost_is_finite_for_simple_bodies() {
        let standard = ExternRegistry::standard();
        let body = Expr::singleton(Expr::var("x"));
        assert_eq!(region_gate_cost(&body, &standard), 2);
        // Bodies the analyser cannot bound fall back to the size heuristic.
        let opaque = Expr::union(Expr::var("a"), Expr::var("b"));
        assert_eq!(
            region_gate_cost(&opaque, &standard),
            1 + opaque.size() as u64
        );
    }

    #[test]
    fn region_gate_cost_reads_the_registry_it_is_given() {
        // `tag` exists only in the session's registry. Its result type is
        // what makes `x = tag(x)` boundable, so the standard registry can
        // only offer the size fallback for the same body.
        let mut session = ExternRegistry::standard();
        session.register("tag", vec![Type::Base], Type::Base, |args| {
            Ok(args[0].clone())
        });
        let body = Expr::eq(
            Expr::var("x"),
            Expr::extern_call("tag", vec![Expr::var("x")]),
        );
        let fallback = 1 + body.size() as u64;
        assert_eq!(
            region_gate_cost(&body, &ExternRegistry::standard()),
            fallback
        );
        assert_eq!(region_gate_cost(&body, &session), 6);
    }
}
