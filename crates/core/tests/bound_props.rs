//! Property tests for the prepare-time cost bounds of `ncql_core::analyze`:
//! for randomly generated queries from the differential template family, the
//! measured `CostStats` must sit between the analyser's guaranteed floor and
//! its upper bound — on the sequential backend and on the work-stealing pool
//! (random thread count, pool size and steal seed), whose stats are
//! bit-identical by the parallel backend's contract.
//!
//! A second property analyses the *open* form of each template once (the set
//! argument is a free schema relation `r`) and checks the one symbolic bound
//! against many concrete cardinalities — the "analyse once, execute many"
//! contract the engine relies on.
//!
//! A third property checks the polynomial algebra itself against a reference
//! model: [`MapPoly`], the plain map-of-maps representation `Poly` had before
//! its constant term moved inline and its monomials became shared. Random
//! expression trees over the whole algebra must print, evaluate and compare
//! identically in both.

use ncql_core::analyze::{analyze_query, Poly, QueryAnalysis};
use ncql_core::eval::{eval_with_stats, CostStats, EvalConfig, Evaluator};
use ncql_core::expr::Expr;
use ncql_core::externs::ExternRegistry;
use ncql_object::{Type, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt;

fn xor_combiner() -> Expr {
    Expr::lam2(
        "a",
        "b",
        Type::prod(Type::Bool, Type::Bool),
        Expr::ite(
            Expr::var("a"),
            Expr::ite(Expr::var("b"), Expr::bool_val(false), Expr::bool_val(true)),
            Expr::var("b"),
        ),
    )
}

/// The template family of the parallel property suite, parameterized by the
/// set argument so the same shapes serve the closed and the open property.
fn query_over(shape: u64, arg: Expr, shift: u64) -> Expr {
    match shape % 4 {
        0 => Expr::dcr(
            Expr::bool_val(false),
            Expr::lam("y", Type::Base, Expr::bool_val(true)),
            xor_combiner(),
            arg,
        ),
        1 => Expr::dcr(
            Expr::nat(0),
            Expr::lam(
                "x",
                Type::Base,
                Expr::extern_call("atom_to_nat", vec![Expr::var("x")]),
            ),
            Expr::lam2(
                "a",
                "b",
                Type::prod(Type::Nat, Type::Nat),
                Expr::extern_call("nat_add", vec![Expr::var("a"), Expr::var("b")]),
            ),
            arg,
        ),
        2 => Expr::ext(
            Expr::lam(
                "x",
                Type::Base,
                Expr::union(
                    Expr::singleton(Expr::var("x")),
                    Expr::singleton(Expr::extern_call(
                        "nat_to_atom",
                        vec![Expr::extern_call(
                            "nat_add",
                            vec![
                                Expr::extern_call("atom_to_nat", vec![Expr::var("x")]),
                                Expr::nat(shift),
                            ],
                        )],
                    )),
                ),
            ),
            arg,
        ),
        _ => Expr::esr(
            Expr::bool_val(false),
            Expr::lam2(
                "y",
                "acc",
                Type::prod(Type::Base, Type::Bool),
                Expr::ite(
                    Expr::var("acc"),
                    Expr::bool_val(false),
                    Expr::bool_val(true),
                ),
            ),
            arg,
        ),
    }
}

/// Assert floor ≤ measured ≤ bound with the given cardinality lookup; the
/// template family must always get finite bounds.
fn assert_covers(
    analysis: &QueryAnalysis,
    stats: &CostStats,
    lookup: &dyn Fn(&str) -> Option<u64>,
    context: &str,
) {
    let cost = &analysis.cost;
    let work_hi = cost
        .work
        .eval(lookup)
        .unwrap_or_else(|| panic!("{context}: work bound not finite"));
    let span_hi = cost
        .span
        .eval(lookup)
        .unwrap_or_else(|| panic!("{context}: span bound not finite"));
    let floor = cost.work_floor;
    assert!(
        floor <= stats.work,
        "{context}: floor {floor} exceeds measured work {}",
        stats.work
    );
    assert!(
        stats.work <= work_hi,
        "{context}: measured work {} exceeds bound {work_hi}",
        stats.work
    );
    assert!(
        stats.span <= span_hi,
        "{context}: measured span {} exceeds bound {span_hi}",
        stats.span
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closed_bounds_cover_both_backends(
        shape in 0u64..4,
        atoms in proptest::collection::vec(0u64..500, 0..50),
        shift in 1u64..40,
        threads in 2usize..9,
        pool_threads in 2usize..10,
        steal_seed in proptest::prelude::any::<u64>(),
    ) {
        let q = query_over(shape, Expr::constant(Value::atom_set(atoms)), shift);
        let analysis = analyze_query(&q, &[], &ExternRegistry::standard());
        let (_, seq) = eval_with_stats(&q).expect("sequential eval");
        assert_covers(&analysis, &seq, &|_| None, &format!("shape {shape} (sequential)"));
        let mut par_ev = Evaluator::new(EvalConfig {
            parallelism: Some(threads),
            parallel_cutoff: 1,
            pool_threads: Some(pool_threads),
            pool_steal_seed: steal_seed,
            ..EvalConfig::default()
        });
        par_ev.eval_closed(&q).expect("parallel eval");
        assert_covers(&analysis, &par_ev.stats(), &|_| None, &format!("shape {shape} (parallel)"));
    }

    #[test]
    fn compaction_never_shrinks_the_exact_polynomial(
        coeffs in proptest::collection::vec(1u64..6, 36..48),
        vals in proptest::collection::vec(0u64..30, 12..13),
    ) {
        // Build a polynomial with more distinct monomials than `MAX_TERMS`
        // (32), mixing linear, quadratic, mixed and log-carrying terms, so
        // compaction actually coarsens. `compact_upper` may only grow the
        // polynomial, at every evaluation point.
        let mut exact = Poly::zero();
        for (i, c) in coeffs.iter().enumerate() {
            let v = Poly::var(&format!("x{}", i % 12));
            let term = match i % 4 {
                0 => v,
                1 => v.mul(&v),
                2 => v.mul(&Poly::log_var(&format!("x{}", i % 12))),
                _ => v.mul(&Poly::var(&format!("x{}", (i + 1) % 12))),
            };
            exact = exact.add(&term.scale(*c));
        }
        let upper = exact.clone().compact_upper();
        let lookup = |name: &str| {
            name.strip_prefix('x')
                .and_then(|i| i.parse::<usize>().ok())
                .map(|i| vals[i % vals.len()])
        };
        let at = exact.eval(&lookup).expect("exact is finite");
        let hi = upper.eval(&lookup).expect("upper stays finite");
        prop_assert!(at <= hi, "compact_upper shrank the polynomial: {at} > {hi}");
    }

    #[test]
    fn pointwise_le_is_sound(
        base in proptest::collection::vec((0u64..8, 1u64..5), 1..10),
        extra in proptest::collection::vec((0u64..8, 1u64..5), 0..6),
        vals in proptest::collection::vec(0u64..40, 8..9),
    ) {
        // `le_pointwise` drives the optimizer's cost gate; it may refuse a
        // true inequality (incomplete) but must never affirm a false one.
        let build = |terms: &[(u64, u64)]| {
            let mut p = Poly::zero();
            for (var, coeff) in terms {
                let v = Poly::var(&format!("x{}", var % 8));
                let term = if var % 2 == 0 { v.clone() } else { v.mul(&v) };
                p = p.add(&term.scale(*coeff));
            }
            p
        };
        let a = build(&base);
        let b = a.add(&build(&extra));
        // Adding terms can only grow the polynomial, and every monomial of
        // `a` survives in `b` with an equal-or-larger coefficient, so the
        // greedy matcher must find the witness.
        prop_assert!(a.le_pointwise(&b), "le_pointwise missed {a} <= {b}");
        // Soundness on arbitrary pairs: whenever the comparison affirms,
        // numeric evaluation agrees at every sampled point.
        let c = build(&extra);
        for (p, q) in [(&a, &b), (&a, &c), (&c, &a), (&b, &c)] {
            if p.le_pointwise(q) {
                let lookup = |name: &str| {
                    name.strip_prefix('x')
                        .and_then(|i| i.parse::<usize>().ok())
                        .map(|i| vals[i % vals.len()])
                };
                let pv = p.eval(&lookup).expect("finite");
                let qv = q.eval(&lookup).expect("finite");
                prop_assert!(pv <= qv, "le_pointwise affirmed {p} <= {q} but {pv} > {qv}");
            }
        }
    }

    #[test]
    fn floors_stay_sound_at_max_terms_pressure(
        card_seed in proptest::collection::vec(0u64..6, 40..41),
    ) {
        // A query over 40 distinct schema relations gives the analyser more
        // monomials than `MAX_TERMS` can hold, forcing the upper bound to
        // coarsen; the floor ≤ measured ≤ bound sandwich must survive.
        let mut arg = Expr::var("r0");
        for i in 1..40 {
            arg = Expr::union(arg, Expr::var(format!("r{i}")));
        }
        let q = Expr::ext(
            Expr::lam("x", Type::Base, Expr::singleton(Expr::var("x"))),
            arg,
        );
        let schema: Vec<(String, Type)> = (0..40)
            .map(|i| (format!("r{i}"), Type::set(Type::Base)))
            .collect();
        let analysis = analyze_query(&q, &schema, &ExternRegistry::standard());
        let bindings: Vec<(String, Value)> = card_seed
            .iter()
            .enumerate()
            .map(|(i, n)| (format!("r{i}"), Value::atom_set(i as u64 * 10..i as u64 * 10 + n)))
            .collect();
        let mut ev = Evaluator::new(EvalConfig::default());
        ev.eval_with_bindings(&q, &bindings).expect("open eval");
        let lookup = |name: &str| {
            name.strip_prefix('r')
                .and_then(|i| i.parse::<usize>().ok())
                .map(|i| card_seed[i])
        };
        assert_covers(&analysis, &ev.stats(), &lookup, "40-relation union");
    }

    #[test]
    fn one_symbolic_bound_covers_many_cardinalities(
        shape in 0u64..4,
        sets in proptest::collection::vec(proptest::collection::vec(0u64..300, 0..40), 1..6),
        shift in 1u64..40,
    ) {
        // Analyse once, symbolically in |r| ...
        let q = query_over(shape, Expr::var("r"), shift);
        let schema = vec![("r".to_string(), Type::set(Type::Base))];
        let analysis = analyze_query(&q, &schema, &ExternRegistry::standard());
        // ... then check that one bound against every concrete input.
        for atoms in sets {
            let value = Value::atom_set(atoms);
            let m = value.cardinality().unwrap_or(0) as u64;
            let mut ev = Evaluator::new(EvalConfig::default());
            ev.eval_with_bindings(&q, &[("r".to_string(), value)])
                .expect("open eval");
            let lookup = |name: &str| (name == "r").then_some(m);
            assert_covers(&analysis, &ev.stats(), &lookup, &format!("shape {shape} at |r|={m}"));
        }
    }
}

/// The reference model of `Poly`: every term, the constant included, in one
/// map keyed by a map from variable to `(power, log-power)`. Each operation is
/// the textbook one, written for clarity rather than speed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MapPoly {
    terms: BTreeMap<Mono, u64>,
}

/// A monomial of the model: variable to `(power, log-power)`.
type Mono = BTreeMap<String, (u32, u32)>;

/// `Poly`'s `MAX_TERMS`.
const MAX_TERMS: usize = 32;

/// The evaluator's `log_rounds`: `⌊log₂ v⌋ + 1`, and 0 at 0.
fn log_rounds(v: u64) -> u64 {
    (u64::BITS - v.leading_zeros()) as u64
}

impl MapPoly {
    fn zero() -> MapPoly {
        MapPoly {
            terms: BTreeMap::new(),
        }
    }

    fn constant(c: u64) -> MapPoly {
        MapPoly::monomial(BTreeMap::new(), c)
    }

    fn monomial(m: Mono, c: u64) -> MapPoly {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(m, c);
        }
        MapPoly { terms }
    }

    fn factor(name: &str, p: u32, q: u32) -> MapPoly {
        MapPoly::monomial(BTreeMap::from([(name.to_string(), (p, q))]), 1)
    }

    fn as_const(&self) -> Option<u64> {
        match self.terms.len() {
            0 => Some(0),
            1 => self.terms.get(&BTreeMap::new()).copied(),
            _ => None,
        }
    }

    fn zip_with(&self, other: &MapPoly, f: fn(u64, u64) -> u64) -> MapPoly {
        let mut out = self.terms.clone();
        for (m, c) in &other.terms {
            let slot = out.entry(m.clone()).or_insert(0);
            *slot = f(*slot, *c);
        }
        MapPoly { terms: out }
    }

    fn add(&self, other: &MapPoly) -> MapPoly {
        self.zip_with(other, u64::saturating_add)
    }

    fn join(&self, other: &MapPoly) -> MapPoly {
        self.zip_with(other, u64::max)
    }

    fn mul(&self, other: &MapPoly) -> MapPoly {
        let mut out = MapPoly::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                let mut m = ma.clone();
                for (v, (p, q)) in mb {
                    let slot = m.entry(v.clone()).or_insert((0, 0));
                    slot.0 = slot.0.saturating_add(*p);
                    slot.1 = slot.1.saturating_add(*q);
                }
                out = out.add(&MapPoly::monomial(m, ca.saturating_mul(*cb)));
            }
        }
        out
    }

    fn scale(&self, c: u64) -> MapPoly {
        self.mul(&MapPoly::constant(c))
    }

    fn eval(&self, lookup: &dyn Fn(&str) -> Option<u64>) -> Option<u64> {
        let mut total: u64 = 0;
        for (m, c) in &self.terms {
            let mut term = *c;
            for (v, (p, q)) in m {
                let val = lookup(v)?;
                for _ in 0..*p {
                    term = term.saturating_mul(val);
                }
                for _ in 0..*q {
                    term = term.saturating_mul(log_rounds(val));
                }
            }
            total = total.saturating_add(term);
        }
        Some(total)
    }

    fn log_bound(&self) -> MapPoly {
        if self.terms.is_empty() {
            return MapPoly::zero();
        }
        let mut out = MapPoly::constant(2 * (self.terms.len() as u64 - 1));
        for (m, c) in &self.terms {
            out = out.add(&MapPoly::constant(log_rounds(*c)));
            for (v, (p, q)) in m {
                let total = (*p as u64).saturating_add(*q as u64);
                out = out.add(&MapPoly::factor(v, 0, 1).scale(total));
            }
        }
        out
    }

    fn subst(&self, var: &str, replacement: &MapPoly) -> MapPoly {
        let repl_log = replacement.log_bound();
        let mut out = MapPoly::zero();
        for (m, c) in &self.terms {
            let mut term = MapPoly::constant(*c);
            for (v, (p, q)) in m {
                if v == var {
                    for _ in 0..*p {
                        term = term.mul(replacement);
                    }
                    for _ in 0..*q {
                        term = term.mul(&repl_log);
                    }
                } else {
                    term = term.mul(&MapPoly::factor(v, *p, *q));
                }
            }
            out = out.add(&term);
        }
        out
    }

    fn mentions(&self, var: &str) -> bool {
        self.terms.keys().any(|m| m.contains_key(var))
    }

    fn linear_in(&self, var: &str) -> Option<(u64, MapPoly)> {
        let mut a = 0u64;
        let mut rest = MapPoly::zero();
        for (m, c) in &self.terms {
            match m.get(var) {
                None => rest = rest.add(&MapPoly::monomial(m.clone(), *c)),
                Some(&(1, 0)) if m.len() == 1 => a = a.saturating_add(*c),
                Some(_) => return None,
            }
        }
        Some((a, rest))
    }

    fn compact_upper(self) -> MapPoly {
        if self.terms.len() <= MAX_TERMS {
            return self;
        }
        let mut groups: BTreeMap<Vec<String>, (Mono, u64)> = BTreeMap::new();
        for (m, c) in self.terms {
            let support: Vec<String> = m.keys().cloned().collect();
            let entry = groups.entry(support).or_default();
            for (v, (p, q)) in m {
                let slot = entry.0.entry(v).or_insert((0, 0));
                slot.0 = slot.0.max(p.saturating_add(q));
            }
            entry.1 = entry.1.saturating_add(c);
        }
        MapPoly {
            terms: groups.into_values().collect(),
        }
    }

    /// The greedy certificate: each monomial is charged, in map order,
    /// against the budget of `other`'s monomials of identical support that
    /// dominate it.
    fn le_pointwise(&self, other: &MapPoly) -> bool {
        let dominates = |big: &Mono, small: &Mono| {
            big.len() == small.len()
                && small.iter().all(|(v, &(pa, qa))| match big.get(v) {
                    Some(&(pb, qb)) => pb >= pa && pb as u64 + qb as u64 >= pa as u64 + qa as u64,
                    None => false,
                })
        };
        let mut budget: Vec<_> = other.terms.iter().map(|(m, c)| (m, *c)).collect();
        'terms: for (m, c) in &self.terms {
            let mut need = *c;
            for (bm, avail) in budget.iter_mut() {
                if *avail == 0 || !dominates(bm, m) {
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

    /// The highest power, plain and log together, of `var` in any term.
    fn degree_in(&self, var: &str) -> u32 {
        let power = |m: &Mono| m.get(var).map_or(0, |(p, q)| p + q);
        self.terms.keys().map(power).max().unwrap_or(0)
    }
}

impl fmt::Display for MapPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        let mut terms: Vec<_> = self.terms.iter().collect();
        terms.sort_by_key(|(m, _)| {
            std::cmp::Reverse(m.values().map(|(p, q)| *p as u64 + *q as u64).sum::<u64>())
        });
        for (i, (m, c)) in terms.into_iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            let mut factors: Vec<String> = Vec::new();
            for (v, (p, q)) in m {
                match p {
                    0 => {}
                    1 => factors.push(v.clone()),
                    _ => factors.push(format!("{v}^{p}")),
                }
                match q {
                    0 => {}
                    1 => factors.push(format!("log({v})")),
                    _ => factors.push(format!("log({v})^{q}")),
                }
            }
            match (factors.is_empty(), *c) {
                (true, c) => write!(f, "{c}")?,
                (false, 1) => write!(f, "{}", factors.join("*"))?,
                (false, c) => write!(f, "{c}*{}", factors.join("*"))?,
            }
        }
        Ok(())
    }
}

/// A random polynomial expression over the variables `x0`..`x3`.
#[derive(Debug, Clone)]
enum Term {
    Var(usize),
    LogVar(usize),
    Const(u64),
    /// A sum of `n` distinct monomials (the strategy draws `n > MAX_TERMS`).
    Wide(usize),
    Add(Box<Term>, Box<Term>),
    Mul(Box<Term>, Box<Term>),
    Join(Box<Term>, Box<Term>),
    Scale(Box<Term>, u64),
    Subst(Box<Term>, usize, Box<Term>),
    LogBound(Box<Term>),
    Compact(Box<Term>),
}

const VARS: [&str; 4] = ["x0", "x1", "x2", "x3"];

/// Coefficients and evaluation points, saturating ones included.
fn arb_number() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![0, 1, 2, 3, 5, 8, 100, 1 << 40, u64::MAX / 3, u64::MAX])
}

fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0usize..4).prop_map(Term::Var),
        (0usize..4).prop_map(Term::LogVar),
        arb_number().prop_map(Term::Const),
        (33usize..48).prop_map(Term::Wide),
    ];
    leaf.prop_recursive(5, 32, 2, |inner| {
        let pair = || (inner.clone(), inner.clone());
        prop_oneof![
            pair().prop_map(|(a, b)| Term::Add(Box::new(a), Box::new(b))),
            pair().prop_map(|(a, b)| Term::Mul(Box::new(a), Box::new(b))),
            pair().prop_map(|(a, b)| Term::Join(Box::new(a), Box::new(b))),
            (inner.clone(), arb_number()).prop_map(|(a, c)| Term::Scale(Box::new(a), c)),
            (inner.clone(), 0usize..4, inner.clone()).prop_map(|(a, v, r)| Term::Subst(
                Box::new(a),
                v,
                Box::new(r)
            )),
            inner.clone().prop_map(|a| Term::LogBound(Box::new(a))),
            inner.prop_map(|a| Term::Compact(Box::new(a))),
        ]
    })
}

/// Build a term in both representations. A product or substitution whose
/// reference result would run to thousands of terms is replaced, in both, by
/// its left operand's sum with the right, so each case stays quick.
fn build(term: &Term) -> (Poly, MapPoly) {
    match term {
        Term::Var(i) => (Poly::var(VARS[*i]), MapPoly::factor(VARS[*i], 1, 0)),
        Term::LogVar(i) => (Poly::log_var(VARS[*i]), MapPoly::factor(VARS[*i], 0, 1)),
        Term::Const(c) => (Poly::constant(*c), MapPoly::constant(*c)),
        Term::Wide(n) => {
            let (mut poly, mut model) = (Poly::zero(), MapPoly::zero());
            for i in 0..*n {
                let (v, w) = (VARS[i % 4], VARS[(i + 1) % 4]);
                // x_{i mod 4}^{i/4 + 1}, times log(x_{i+1 mod 4}) every third term.
                let (mut p, mut m) = (
                    Poly::constant(i as u64 + 1),
                    MapPoly::constant(i as u64 + 1),
                );
                for _ in 0..=i / 4 {
                    p = p.mul(&Poly::var(v));
                    m = m.mul(&MapPoly::factor(v, 1, 0));
                }
                if i % 3 == 0 {
                    p = p.mul(&Poly::log_var(w));
                    m = m.mul(&MapPoly::factor(w, 0, 1));
                }
                poly = poly.add(&p);
                model = model.add(&m);
            }
            (poly, model)
        }
        Term::Add(a, b) | Term::Mul(a, b) | Term::Join(a, b) => {
            let ((pa, ma), (pb, mb)) = (build(a), build(b));
            match term {
                Term::Mul(..) if ma.terms.len() * mb.terms.len() <= 600 => {
                    (pa.mul(&pb), ma.mul(&mb))
                }
                Term::Join(..) => (pa.join(&pb), ma.join(&mb)),
                _ => (pa.add(&pb), ma.add(&mb)),
            }
        }
        Term::Scale(a, c) => {
            let (p, m) = build(a);
            (p.scale(*c), m.scale(*c))
        }
        Term::Subst(a, v, r) => {
            let ((pa, ma), (pr, mr)) = (build(a), build(r));
            let var = VARS[*v];
            if ma.terms.len() <= 16 && mr.terms.len() <= 6 && ma.degree_in(var) <= 3 {
                (pa.subst(var, &pr), ma.subst(var, &mr))
            } else {
                (pa.add(&pr), ma.add(&mr))
            }
        }
        Term::LogBound(a) => {
            let (p, m) = build(a);
            (p.log_bound(), m.log_bound())
        }
        Term::Compact(a) => {
            let (p, m) = build(a);
            (p.compact_upper(), m.compact_upper())
        }
    }
}

/// Every observation of `poly` must equal the reference model's.
fn assert_agrees(poly: &Poly, model: &MapPoly, points: &[Vec<u64>], context: &str) {
    assert_eq!(poly.to_string(), model.to_string(), "{context}: display");
    assert_eq!(
        poly.as_const(),
        model.as_const(),
        "{context}: as_const of {model}"
    );
    for var in VARS.iter().chain(&["g"]) {
        assert_eq!(
            poly.mentions(var),
            model.mentions(var),
            "{context}: mentions {var} in {model}"
        );
        let linear = |(a, rest): (u64, Poly)| (a, rest.to_string());
        assert_eq!(
            poly.linear_in(var).map(linear),
            model.linear_in(var).map(|(a, rest)| (a, rest.to_string())),
            "{context}: linear_in {var} of {model}"
        );
    }
    for point in points {
        let at = |name: &str| VARS.iter().position(|v| *v == name).map(|i| point[i]);
        assert_eq!(
            poly.eval(&at),
            model.eval(&at),
            "{context}: {model} at {point:?}"
        );
    }
    // A lookup that misses `x3` fails exactly when the polynomial reads it.
    let partial = |name: &str| (name != "x3").then_some(7);
    assert_eq!(
        poly.eval(&partial),
        model.eval(&partial),
        "{context}: {model} without x3"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn poly_agrees_with_the_map_reference_model(
        left in arb_term(),
        right in arb_term(),
        wide in 33usize..48,
        shift in arb_number(),
        points in proptest::collection::vec(proptest::collection::vec(arb_number(), 4..5), 3..4),
    ) {
        let (a, ma) = build(&left);
        let (b, mb) = build(&right);
        assert_agrees(&a, &ma, &points, "left");
        assert_agrees(&b, &mb, &points, "right");
        // Past `MAX_TERMS` in every case: a wide sum, compacted.
        let (w, mw) = build(&Term::Wide(wide));
        assert!(mw.terms.len() > MAX_TERMS);
        let (c, mc) = (w.add(&a).compact_upper(), mw.add(&ma).compact_upper());
        assert_agrees(&c, &mc, &points, "compacted");
        // At `MAX_TERMS` exactly, the constant is the term that tips it over.
        let (edge, medge) = build(&Term::Wide(MAX_TERMS));
        let (k, mk) = (edge.add_const(shift).compact_upper(), medge.add(&MapPoly::constant(shift)).compact_upper());
        assert_agrees(&k, &mk, &points, "at MAX_TERMS");
        let pairs = [
            (&a, &b, &ma, &mb),
            (&b, &a, &mb, &ma),
            (&a, &c, &ma, &mc),
            (&c, &a, &mc, &ma),
        ];
        for (p, q, mp, mq) in pairs {
            prop_assert_eq!(p.le_pointwise(q), mp.le_pointwise(mq), "{} <= {}", mp, mq);
            let (sum, msum) = (p.add(q), mp.add(mq));
            prop_assert_eq!(p.le_pointwise(&sum), mp.le_pointwise(&msum), "{} <= {}", mp, msum);
            let (max, mmax) = (p.join(q), mp.join(mq));
            prop_assert_eq!(max.le_pointwise(p), mmax.le_pointwise(mp), "{} <= {}", mmax, mp);
        }
    }
}
