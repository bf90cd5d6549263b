//! Property-based equivalence of the compiled row-kernel path and the
//! interpreted `ext` element map and `dcr` tree.
//!
//! For random flat sets and random kernel-liftable closure bodies, evaluating
//! `ext(\x. body, set)` with row kernels enabled must be **bit-identical** —
//! value *and* `CostStats` — to evaluating with kernels disabled, on both the
//! sequential and the parallel backend; likewise a body that reads the row of
//! an enclosing `ext` (a kernel parameter), a join site that probes its inner
//! set by a key equality, a scalar `dcr` run as a kernel tree, and one whose
//! combiner is one associative word op, folded with no tree.
//! Unliftable bodies must reject at compile time (prepare-time analysis
//! and the runtime dispatch make the same decision) and fall back to the
//! interpreter with no observable change.

use ncql::core::externs::ExternRegistry;
use ncql::core::kernel::analyze_sites;
use ncql::core::{CostStats, Expr};
use ncql::object::{Type, Value};
use ncql::SessionBuilder;
use proptest::prelude::*;

fn pair_ty() -> Type {
    Type::prod(Type::Base, Type::Nat)
}

/// Random input sets of `(atom, nat)` pairs. The small sizes deliberately
/// straddle the columnar promotion threshold, so the suite exercises both
/// the kernel path (columnar input) and the boxed path (small input) under
/// the same bodies; the large ones straddle the kernel's first and second
/// block edges (1 024 and 2 048 rows, a few repeated rows aside).
fn arb_input_set() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop_oneof![
        proptest::collection::vec((0u64..40, 0u64..30), 0..96),
        proptest::collection::vec((0u64..4_000, 0u64..30), 1_000..1_100),
        proptest::collection::vec((0u64..4_000, 0u64..30), 2_040..2_100),
    ]
}

/// The pair variables a generated body may read: its own parameter, or that
/// and the parameter `a` of an enclosing `ext`.
type Vars = &'static [&'static str];
const OWN: Vars = &["x"];
const OWN_AND_CAPTURED: Vars = &["x", "a"];

/// Random kernel-liftable nat-valued scalars over `vars : atom * nat`:
/// arithmetic, and a scalar `if` as an operand, whose two arms join in one
/// slot, each on its own rows.
fn arb_nat_expr(vars: Vars) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        prop::sample::select(vars.to_vec()).prop_map(|v| Expr::proj2(Expr::var(v))),
        (0u64..40).prop_map(Expr::nat),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        let arithmetic = (
            inner.clone(),
            inner.clone(),
            prop::sample::select(vec![
                "nat_add", "nat_sub", "nat_mul", "nat_div", "nat_min", "nat_max",
            ]),
        )
            .prop_map(|(a, b, op)| Expr::extern_call(op, vec![a, b]));
        let chosen = (inner.clone(), 0u64..40, inner.clone(), inner).prop_map(|(a, k, t, e)| {
            Expr::ite(Expr::extern_call("nat_leq", vec![a, Expr::nat(k)]), t, e)
        });
        prop_oneof![arithmetic, chosen]
    })
}

/// Random kernel-liftable boolean scalars over `vars : atom * nat`:
/// word-level comparisons, scalar equality, and a whole-row `<=` that
/// exercises the multi-word lexicographic compare.
fn arb_bool_expr(vars: Vars) -> impl Strategy<Value = Expr> {
    let nat = || arb_nat_expr(vars);
    let var = prop::sample::select(vars.to_vec());
    (nat(), nat(), 0u8..3, var, 0u64..40, 0u64..30).prop_map(|(a, b, pick, v, probe_a, probe_n)| {
        match pick {
            0 => Expr::extern_call("nat_leq", vec![a, b]),
            1 => Expr::eq(a, b),
            _ => Expr::leq(
                Expr::var(v),
                Expr::pair(Expr::atom(probe_a), Expr::nat(probe_n)),
            ),
        }
    })
}

/// Random kernel-liftable `ext` bodies emitting `(atom, nat)` rows: filters,
/// projections-with-rebuild, lets, and nested conditionals — a set-level `if`
/// in a then-arm, and two arms that both emit, different rows.
fn arb_liftable_body(vars: Vars) -> impl Strategy<Value = Expr> {
    let var = || prop::sample::select(vars.to_vec());
    let emit = prop_oneof![
        // {(pi1 v, nat-expr)} — rebuild the pair with a computed column.
        (var(), arb_nat_expr(vars))
            .prop_map(|(v, n)| Expr::singleton(Expr::pair(Expr::proj1(Expr::var(v)), n))),
        // {v} — the identity emit.
        var().prop_map(|v| Expr::singleton(Expr::var(v))),
        // {} — drop the row.
        Just(Expr::empty(pair_ty())),
    ];
    let guarded = (arb_bool_expr(vars), emit.clone(), emit.clone())
        .prop_map(|(c, t, e)| Expr::ite(c, t, e))
        .boxed();
    // if c then (if d then <emit> else <emit>) else <emit>
    let nested =
        (arb_bool_expr(vars), guarded.clone(), emit).prop_map(|(c, t, e)| Expr::ite(c, t, e));
    // if c then {v} or {(pi1 v, n)} else {(pi1 w, m)}: the whole row next to
    // a rebuilt one, or two rebuilt ones.
    let rebuilt = |v: &'static str, n| Expr::singleton(Expr::pair(Expr::proj1(Expr::var(v)), n));
    let both = (
        arb_bool_expr(vars),
        (var(), arb_nat_expr(vars)),
        (var(), arb_nat_expr(vars)),
        any::<bool>(),
    )
        .prop_map(move |(c, (v, n), (w, m), whole)| {
            let then = if whole {
                Expr::singleton(Expr::var(v))
            } else {
                rebuilt(v, n)
            };
            Expr::ite(c, then, rebuilt(w, m))
        });
    prop_oneof![
        guarded.clone(),
        nested,
        both,
        // let y = nat-expr in if nat_leq(y, k) then <emit> else <emit>
        (arb_nat_expr(vars), guarded).prop_map(|(bound, body)| Expr::let_in("y", bound, body)),
    ]
}

/// Join sides of no rows, a few (boxed), a columnar handful, and more than
/// two accounting blocks.
fn arb_join_size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0), 1usize..8, 8usize..65, 2049usize..2100]
}

/// `(nat * nat)`: the rows of both sides of a generated join, so that any
/// column can be a key against any other.
fn nat_pair() -> Type {
    Type::prod(Type::Nat, Type::Nat)
}

const JOIN_BODIES: usize = 7;

/// The inner body of a generated join over `a, b : nat * nat`.
fn join_body(which: usize) -> Expr {
    let (a, b) = (|| Expr::var("a"), || Expr::var("b"));
    let joined = || Expr::singleton(Expr::pair(Expr::proj1(a()), Expr::proj2(b())));
    let (key, then) = match which {
        // A column-prefix key, and the same with its operands swapped.
        0 => (Expr::eq(Expr::proj2(a()), Expr::proj1(b())), joined()),
        1 => (Expr::eq(Expr::proj1(b()), Expr::proj2(a())), joined()),
        // A key that is not a column prefix.
        2 => (Expr::eq(Expr::proj2(a()), Expr::proj2(b())), joined()),
        // A key against a constant, and the whole row as the key.
        3 => (Expr::eq(Expr::proj1(b()), Expr::nat(1)), joined()),
        4 => (Expr::eq(b(), a()), joined()),
        // Every match of one outer row emits the same row.
        5 => (
            Expr::eq(Expr::proj2(a()), Expr::proj1(b())),
            Expr::singleton(Expr::proj1(a())),
        ),
        // The shape of a transitive-closure step: a then-arm with its own `if`.
        _ => (
            Expr::eq(Expr::proj2(a()), Expr::proj1(b())),
            Expr::ite(
                Expr::eq(Expr::proj2(a()), Expr::nat(2)),
                Expr::empty(nat_pair()),
                joined(),
            ),
        ),
    };
    Expr::ite(key, then, Expr::empty(nat_pair()))
}

fn input_value(rows: &[(u64, u64)]) -> Value {
    Value::set_from(
        rows.iter()
            .map(|&(a, n)| Value::pair(Value::Atom(a), Value::Nat(n))),
    )
}

/// Evaluate on the chosen backend through the engine's `Session` front door
/// (no optimizer — `evaluate` is the trusted raw path), returning
/// `(value, stats)`. The low cutoff makes the 64+-row cases actually fork.
fn run(expr: &Expr, kernels: bool, threads: Option<usize>) -> (Value, CostStats) {
    let session = SessionBuilder::new()
        .parallel_cutoff(64)
        .parallelism(threads)
        .row_kernels(kernels)
        .build();
    let out = session.evaluate(expr).expect("evaluation succeeds");
    (out.value, out.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for random liftable bodies over random flat
    /// sets, the kernel strategy is invisible — identical values, identical
    /// statistics — across all four (backend × kernels) combinations.
    #[test]
    fn kernel_and_interpreted_ext_are_bit_identical(
        rows in arb_input_set(),
        body in arb_liftable_body(OWN),
    ) {
        let expr = Expr::ext(
            Expr::lam("x", pair_ty(), body.clone()),
            Expr::constant(input_value(&rows)),
        );
        // The compiler must accept every body this generator produces —
        // otherwise the property is vacuously comparing interpreter to
        // interpreter.
        let sites = analyze_sites(&expr, &ExternRegistry::standard());
        prop_assert_eq!(sites.len(), 1);
        prop_assert!(sites[0].compiled, "generator produced an unliftable body: {}", sites[0].detail);

        let (v_seq_on, s_seq_on) = run(&expr, true, None);
        let (v_seq_off, s_seq_off) = run(&expr, false, None);
        prop_assert_eq!(&v_seq_on, &v_seq_off);
        prop_assert_eq!(s_seq_on, s_seq_off);
        let (v_par_on, s_par_on) = run(&expr, true, Some(4));
        let (v_par_off, s_par_off) = run(&expr, false, Some(4));
        prop_assert_eq!(&v_par_on, &v_par_off);
        prop_assert_eq!(s_par_on, s_par_off);
        // And the two backends agree with each other, kernels or not.
        prop_assert_eq!(&v_seq_on, &v_par_on);
        prop_assert_eq!(s_seq_on, s_par_on);
    }

    /// A join: the inner body reads the outer row `a`, which its kernel takes
    /// as a parameter — loaded once per inner `ext`, one compile for the site
    /// however many outer rows make a closure from it. Invisible on all four
    /// strategies, nested regions included.
    #[test]
    fn an_inner_ext_that_captures_the_outer_row_is_bit_identical(
        outer in proptest::collection::vec((0u64..40, 0u64..30), 0..24),
        inner in proptest::collection::vec((0u64..40, 0u64..30), 0..48),
        body in arb_liftable_body(OWN_AND_CAPTURED),
    ) {
        // Eight distinct rows on top of the random ones: always columnar.
        let inner: Vec<(u64, u64)> = inner.into_iter().chain((0..8).map(|i| (100 + i, i))).collect();
        let join = Expr::ext(
            Expr::lam("a", pair_ty(), ext_over(body, &inner)),
            Expr::constant(input_value(&outer)),
        );
        // The outer site is a join site when the body happens to begin with
        // a key equality and an empty else-arm; either way the inner compiles.
        let sites = analyze_sites(&join, &ExternRegistry::standard());
        prop_assert_eq!(sites.len(), 2);
        assert_all_four_agree(&join);
    }

    /// Unliftable bodies reject deterministically at prepare time and the
    /// runtime fallback changes nothing observable.
    #[test]
    fn unliftable_bodies_fall_back_identically(
        rows in arb_input_set(),
        which in 0usize..4,
    ) {
        let body = match which {
            // Union of two singletons: set-level union is not liftable.
            0 => Expr::union(
                Expr::singleton(Expr::var("x")),
                Expr::singleton(Expr::pair(Expr::proj1(Expr::var("x")), Expr::nat(0))),
            ),
            // A non-flat constant (a set literal) in the body.
            1 => Expr::ite(
                Expr::is_empty(Expr::constant(Value::atom_set([1, 2]))),
                Expr::singleton(Expr::var("x")),
                Expr::empty(pair_ty()),
            ),
            // A nested ext: set-typed subterms reject.
            2 => Expr::ext(
                Expr::lam("y", pair_ty(), Expr::singleton(Expr::var("y"))),
                Expr::singleton(Expr::var("x")),
            ),
            // The `card` external consumes a set — no word-level twin.
            _ => Expr::singleton(Expr::pair(
                Expr::proj1(Expr::var("x")),
                Expr::extern_call("card", vec![Expr::singleton(Expr::proj1(Expr::var("x")))]),
            )),
        };
        let expr = Expr::ext(
            Expr::lam("x", pair_ty(), body),
            Expr::constant(input_value(&rows)),
        );
        let outer = &analyze_sites(&expr, &ExternRegistry::standard())[0];
        prop_assert!(!outer.compiled, "body {which} unexpectedly compiled");

        let (v_on, s_on) = run(&expr, true, None);
        let (v_off, s_off) = run(&expr, false, None);
        prop_assert_eq!(v_on, v_off);
        prop_assert_eq!(s_on, s_off);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A scalar `dcr` whose leaf branches, over more than two blocks of
    /// rows: the kernel tree is invisible on all four strategies.
    #[test]
    fn a_scalar_dcr_with_a_branching_leaf_is_bit_identical(
        rows in proptest::collection::vec((0u64..4_000, 0u64..30), 2_100..2_200),
        leaf in (arb_bool_expr(OWN), arb_nat_expr(OWN), arb_nat_expr(OWN)),
        subtract in any::<bool>(),
    ) {
        let (c, t, e) = leaf;
        let leaf = Expr::lam("x", pair_ty(), Expr::ite(c, t, e));
        let q = || Expr::var("q");
        let combine = if subtract {
            sub_combiner()
        } else {
            call("nat_add", Expr::proj1(q()), Expr::proj2(q()))
        };
        let u = Expr::lam("q", Type::prod(Type::Nat, Type::Nat), combine);
        let sum = Expr::dcr(Expr::nat(0), leaf, u, Expr::constant(input_value(&rows)));
        let (_, stats) = assert_all_four_agree(&sum);
        prop_assert!(stats.combiner_calls > 2048, "{stats:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A join site — an outer `ext` whose body is an inner `ext` with a key
    /// equality — runs the inner kernel over the matching rows only, and is
    /// invisible on all four strategies: both sides empty, boxed, columnar or
    /// several blocks long, the inner set a constant or a variable, keys that
    /// are and are not column prefixes, in either operand order or against a
    /// constant, sides where every row matches, duplicate emissions, and a
    /// then-arm with its own `if`.
    #[test]
    fn a_join_site_is_bit_identical(
        sizes in (arb_join_size(), arb_join_size()),
        spreads in (0usize..5, 0usize..5),
        body in 0usize..JOIN_BODIES,
        bound in any::<bool>(),
    ) {
        // One side of more than two blocks at a time: the interpreted
        // strategies visit every pair of rows.
        let (outer, inner) = match sizes {
            (r, s) if r > 2048 => (r, s.min(24)),
            (r, s) if s > 2048 => (r.min(24), s),
            sizes => sizes,
        };
        let rows = |n: usize, spread: usize| {
            // One column repeats with period `m`, the other counts the
            // periods: all rows distinct, every value of `pi1` shared by
            // the whole set (m = 1) or of `pi2` (m = n), or neither — and
            // then `pi2` is out of order.
            let m = [1, n.max(1), 2, 3, n / 3 + 2][spread];
            let rows: Vec<Value> = (0..n as u64).map(|i| {
                Value::pair(Value::Nat(i % m as u64), Value::Nat(i / m as u64))
            }).collect();
            Expr::constant(Value::set_from(rows))
        };
        let (r, s) = (rows(outer, spreads.0), rows(inner, spreads.1));
        let inner_set = if bound { Expr::var("s") } else { s.clone() };
        let inner_ext = Expr::ext(Expr::lam("b", nat_pair(), join_body(body)), inner_set);
        let mut join = Expr::ext(Expr::lam("a", nat_pair(), inner_ext), r);
        if bound {
            join = Expr::let_in("s", s, join);
        }
        let sites = analyze_sites(&join, &ExternRegistry::standard());
        prop_assert!(sites[0].compiled && sites[0].detail.contains('⋈'), "{}", sites[0].detail);
        assert_all_four_agree(&join);
    }
}

/// Every outer row of a join site matches all of more than two blocks of
/// inner rows and emits the same row for each match: each outer row's result
/// is that one row, as in the nested loop, and so is every charge.
#[test]
fn a_join_site_whose_matches_all_emit_one_row_is_bit_identical() {
    let nats = |x: u64, y: u64| Value::pair(Value::Nat(x), Value::Nat(y));
    let r = Value::set_from((0..24).map(|i| nats(i, 0)));
    let s = Value::set_from((0..3_000).map(|i| nats(0, i)));
    let inner = Expr::ext(Expr::lam("b", nat_pair(), join_body(5)), Expr::constant(s));
    let join = Expr::ext(Expr::lam("a", nat_pair(), inner), Expr::constant(r));
    let site = &analyze_sites(&join, &ExternRegistry::standard())[0];
    assert!(
        site.compiled && site.detail.contains('⋈'),
        "{}",
        site.detail
    );
    let (value, stats) = assert_all_four_agree(&join);
    assert_eq!(value.as_set().expect("a set").len(), 24);
    assert_eq!((stats.ext_calls, stats.max_set_size), (24 + 24 * 3_000, 24));
}

/// A deterministic large-input check pinning the kernel path against the
/// interpreter at a size where the columnar representation and the parallel
/// merge are both certainly engaged.
#[test]
fn large_kernel_ext_is_bit_identical_across_strategies_and_backends() {
    let rows: Vec<(u64, u64)> = (0..4096u64)
        .map(|i| {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (k % 997, k % 613)
        })
        .collect();
    let body = Expr::let_in(
        "y",
        Expr::extern_call("nat_add", vec![Expr::proj2(Expr::var("x")), Expr::nat(17)]),
        Expr::ite(
            Expr::extern_call("nat_leq", vec![Expr::var("y"), Expr::nat(400)]),
            Expr::singleton(Expr::pair(Expr::var("y"), Expr::proj1(Expr::var("x")))),
            Expr::empty(Type::prod(Type::Nat, Type::Base)),
        ),
    );
    let expr = Expr::ext(
        Expr::lam("x", pair_ty(), body),
        Expr::constant(input_value(&rows)),
    );
    let mut results = Vec::new();
    for kernels in [true, false] {
        for threads in [None, Some(4)] {
            results.push(run(&expr, kernels, threads));
        }
    }
    let (v0, s0) = &results[0];
    for (v, s) in &results[1..] {
        assert_eq!(v, v0);
        assert_eq!(s, s0);
    }
    if let Value::Set(s) = v0 {
        // The filter must bite, or the `if` arm of the kernel is not exercised.
        assert!(!s.is_empty() && s.len() < rows.len());
    } else {
        panic!("ext must return a set");
    }
}

// ----- block accounting: sizes and shapes the random cases never reach -----

/// Like [`run`], but every region forks (`parallel_cutoff(1)`) and the
/// session may carry a work limit; evaluation errors are returned.
fn run_forking(
    expr: &Expr,
    kernels: bool,
    threads: Option<usize>,
    max_work: Option<u64>,
) -> Result<(Value, CostStats), ncql::core::EvalError> {
    let mut builder = SessionBuilder::new()
        .parallel_cutoff(1)
        .parallelism(threads)
        .row_kernels(kernels);
    if let Some(limit) = max_work {
        builder = builder.max_work(limit);
    }
    let out = builder.build().evaluate(expr)?;
    Ok((out.value, out.stats))
}

fn ext_over(body: Expr, rows: &[(u64, u64)]) -> Expr {
    Expr::ext(
        Expr::lam("x", pair_ty(), body),
        Expr::constant(input_value(rows)),
    )
}

fn scrambled_rows(n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (i % 997, k % 1201)
        })
        .collect()
}

fn call(f: &str, a: Expr, b: Expr) -> Expr {
    Expr::extern_call(f, vec![a, b])
}

/// Scalar and set-level conditionals nested inside a `let` and a `pair`, the
/// arms of every one differing in depth: the span of a row is a `max` over
/// whichever arms it took, and eight paths are reachable.
fn branching_body() -> Expr {
    let (x, y) = (|| Expr::var("x"), || Expr::var("y"));
    Expr::let_in(
        "y",
        Expr::ite(
            call("nat_leq", Expr::proj2(x()), Expr::nat(300)),
            call(
                "nat_add",
                call("nat_mul", Expr::proj2(x()), Expr::nat(2)),
                Expr::nat(1),
            ),
            Expr::proj2(x()),
        ),
        Expr::ite(
            call("nat_leq", y(), Expr::nat(500)),
            Expr::singleton(Expr::pair(
                Expr::ite(
                    Expr::eq(Expr::proj1(x()), Expr::atom(7)),
                    call("nat_sub", y(), Expr::nat(1)),
                    y(),
                ),
                Expr::ite(
                    call("nat_leq", Expr::nat(200), y()),
                    Expr::ite(
                        call("nat_leq", y(), Expr::nat(250)),
                        Expr::nat(1),
                        call("nat_min", call("nat_div", y(), Expr::nat(3)), Expr::nat(2)),
                    ),
                    Expr::nat(0),
                ),
            )),
            Expr::ite(
                call("nat_leq", Expr::nat(900), y()),
                Expr::empty(Type::prod(Type::Nat, Type::Nat)),
                Expr::singleton(Expr::pair(y(), Expr::nat(3))),
            ),
        ),
    )
}

/// The four (strategy × schedule) pairs every claim here is made over.
const STRATEGIES: [(bool, Option<usize>); 4] = [
    (false, None),
    (true, None),
    (true, Some(4)),
    (false, Some(4)),
];

/// All four (strategy × schedule) results of one expression whose innermost
/// site compiles, asserted equal in value and in all seven `CostStats`
/// fields; returns the common result.
fn assert_all_four_agree(expr: &Expr) -> (Value, CostStats) {
    let sites = analyze_sites(expr, &ExternRegistry::standard());
    let site = sites.last().expect("a site");
    assert!(site.compiled, "{}", site.detail);
    assert_the_four_strategies_agree(expr)
}

fn assert_the_four_strategies_agree(expr: &Expr) -> (Value, CostStats) {
    let run = |(kernels, threads)| run_forking(expr, kernels, threads, None).expect("evaluates");
    let reference = run(STRATEGIES[0]);
    for strategy in &STRATEGIES[1..] {
        assert_eq!(
            run(*strategy),
            reference,
            "(kernels, threads) = {strategy:?}"
        );
    }
    reference
}

#[test]
fn shards_spanning_several_accounting_blocks_charge_the_interpreters_cost() {
    // 9 000 rows: nine blocks on the inline schedule, and more than one per
    // forked shard.
    let rows = scrambled_rows(9_000);
    let (value, stats) = assert_all_four_agree(&ext_over(branching_body(), &rows));
    assert_eq!(stats.ext_calls, 9_000);
    let emitted = value.as_set().expect("a set").len();
    assert!(emitted > 0 && emitted < rows.len());

    // Rows that only ever take the shallowest path have a smaller span: the
    // charge follows the arms a row took, not the deepest the body has.
    let shallow: Vec<(u64, u64)> = rows.iter().copied().filter(|r| r.1 >= 900).collect();
    assert!(shallow.len() >= 8, "columnar, so the kernel runs");
    let (value, shallow_stats) = assert_all_four_agree(&ext_over(branching_body(), &shallow));
    assert_eq!(value, Value::empty_set());
    assert!(shallow_stats.span < stats.span);
}

/// Bodies that emit an input word no instruction reads, or read nothing at
/// all, over three blocks of which the last holds one row: a block
/// transposes only the words its instructions read and gathers the others
/// straight from its rows.
#[test]
fn bodies_that_emit_words_they_never_read_are_bit_identical_over_three_blocks() {
    let rows = scrambled_rows(2_049);
    let x = || Expr::var("x");
    let small = || call("nat_leq", Expr::proj2(x()), Expr::nat(500));
    let tagged = |n| Expr::singleton(Expr::pair(Expr::proj1(x()), Expr::nat(n)));
    let swapped = |first| Expr::singleton(Expr::pair(first, Expr::proj1(x())));
    // The inner step of a transitive closure, keyed on `pi2 x`: it emits
    // `pi2 b`, which nothing reads, and one outer value emits nothing.
    let b = || Expr::var("b");
    let excluded = rows.iter().map(|r| r.1).find(|&n| n < 64).expect("a match");
    let step = Expr::ite(
        Expr::eq(Expr::proj2(x()), Expr::proj1(b())),
        Expr::ite(
            Expr::eq(Expr::proj2(x()), Expr::nat(excluded)),
            Expr::empty(pair_ty()),
            Expr::singleton(Expr::pair(Expr::proj1(x()), Expr::proj2(b()))),
        ),
        Expr::empty(pair_ty()),
    );
    let steps = Value::set_from((0..64).map(|j| Value::pair(Value::Nat(j), Value::Nat(3 * j))));
    let join = Expr::ext(Expr::lam("b", nat_pair(), step), Expr::constant(steps));
    for body in [
        Expr::ite(small(), Expr::singleton(x()), Expr::empty(pair_ty())),
        swapped(Expr::proj2(x())),
        swapped(call("nat_add", Expr::proj2(x()), Expr::nat(1))),
        Expr::ite(small(), tagged(1), tagged(2)),
        join.clone(),
    ] {
        let expr = ext_over(body, &rows);
        let (value, _) = assert_all_four_agree(&expr);
        assert!(!value.as_set().expect("a set").is_empty(), "{expr}");
    }
    let sites = analyze_sites(&ext_over(join, &rows), &ExternRegistry::standard());
    assert!(sites[0].detail.contains('⋈'), "{}", sites[0].detail);
}

/// `\x. if pi2 a = pi2 x then {(pi1 a, nat_add(pi2 x, 1))} else {}`: a body
/// that reads `a`, the row of an enclosing `ext`.
fn join_inner() -> Expr {
    let (a, x) = (|| Expr::var("a"), || Expr::var("x"));
    let body = Expr::ite(
        Expr::eq(Expr::proj2(a()), Expr::proj2(x())),
        Expr::singleton(Expr::pair(
            Expr::proj1(a()),
            call("nat_add", Expr::proj2(x()), Expr::nat(1)),
        )),
        Expr::empty(pair_ty()),
    );
    Expr::lam("x", pair_ty(), body)
}

/// `ext(\a. ext(join_inner, inner), outer)`: the inner body runs as a kernel
/// with `a` a parameter.
fn join_over(outer: Expr, inner: Expr) -> Expr {
    let inner = Expr::ext(join_inner(), inner);
    Expr::ext(Expr::lam("a", pair_ty(), inner), outer)
}

/// A leaf map whose two arms differ in depth, so leaf spans differ.
fn branching_leaf() -> Expr {
    let n = || Expr::proj2(Expr::var("x"));
    let deep = call("nat_add", call("nat_mul", n(), Expr::nat(2)), Expr::nat(1));
    let body = Expr::ite(call("nat_leq", n(), Expr::nat(300)), deep, n());
    Expr::lam("x", pair_ty(), body)
}

/// `dcr(0, branching_leaf, \q. combine, set)` over `(atom * nat)` rows.
fn scalar_dcr_over(combine: Expr, set: Expr) -> Expr {
    let u = Expr::lam("q", Type::prod(Type::Nat, Type::Nat), combine);
    Expr::dcr(Expr::nat(0), branching_leaf(), u, set)
}

/// `3·pi1 q ∸ pi2 q`: neither associative nor commutative, and rarely 0, so
/// the value pins the tree's shape.
fn sub_combiner() -> Expr {
    let q = || Expr::var("q");
    let tripled = call("nat_mul", Expr::proj1(q()), Expr::nat(3));
    call("nat_sub", tripled, Expr::proj2(q()))
}

/// What a combiner computes on two words.
type Combine = fn(u64, u64) -> u64;

/// `leaves` combined along the tree the interpreter builds: adjacent pairs,
/// an odd tail passed through; `None` for no leaves.
fn tree(mut level: Vec<u64>, u: impl Fn(u64, u64) -> u64) -> Option<u64> {
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| pair.get(1).map_or(pair[0], |&b| u(pair[0], b)))
            .collect();
    }
    level.pop()
}

/// `n` rows with distinct first columns — so the set has exactly `n` rows,
/// in this order — and second columns `scrambled_rows`' mapped by `nat`.
fn distinct_rows(n: u64, nat: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
    (scrambled_rows(n).iter().zip(0..))
        .map(|(row, i)| (i, nat(row.1)))
        .collect()
}

/// What `branching_leaf` computes for the row `(_, y)`.
fn branching_leaf_of(y: u64) -> u64 {
    if y <= 300 {
        2 * y + 1
    } else {
        y
    }
}

#[test]
fn a_scalar_dcr_runs_the_interpreters_tree_on_kernels() {
    // After these two, one-call combiners that still keep the tree: an op
    // that is not associative, a constant operand, one operand twice.
    let q = || Expr::var("q");
    let combiners: [(Expr, Combine); 5] = [
        (sub_combiner(), |a, b| (3 * a).saturating_sub(b)),
        (Expr::proj1(q()), |a, _| a),
        (
            call("nat_sub", Expr::proj1(q()), Expr::proj2(q())),
            u64::saturating_sub,
        ),
        (call("nat_add", Expr::proj1(q()), Expr::nat(1)), |a, _| {
            a + 1
        }),
        (
            call("nat_add", Expr::proj1(q()), Expr::proj1(q())),
            |a, _| 2 * a,
        ),
    ];
    for n in [0u64, 1, 2, 3, 8, 1_025, 2_049] {
        let rows = distinct_rows(n, |y| y);
        let leaves: Vec<u64> = rows.iter().map(|&(_, y)| branching_leaf_of(y)).collect();
        let mut spans = Vec::new();
        for (combine, u) in &combiners {
            let expr = scalar_dcr_over(combine.clone(), Expr::constant(input_value(&rows)));
            let (value, stats) = assert_all_four_agree(&expr);
            let expected = tree(leaves.clone(), *u).unwrap_or(0);
            assert_eq!(value, Value::Nat(expected), "n = {n}, u = {combine}");
            assert_eq!(stats.combiner_calls, n.saturating_sub(1), "n = {n}");
            assert_eq!(stats.ext_calls, 0);
            spans.push(stats.span);
        }
        // `pi1 q` is a shallower combiner than `sub_combiner`.
        assert!(n < 2 || spans[1] < spans[0], "n = {n}: {spans:?}");
    }
}

/// The four associative, commutative word ops a combiner folds by, each
/// with its identity and what it does to two words.
const FOLDS: [(&str, u64, Combine); 4] = [
    ("nat_add", 0, u64::saturating_add),
    ("nat_mul", 1, u64::saturating_mul),
    ("nat_max", 0, |a, b| a.max(b)),
    ("nat_min", u64::MAX, |a, b| a.min(b)),
];

/// `op(pi1 q, pi2 q)`, its swap, and the first through `let`s.
fn one_call_combiners(op: &str) -> [Expr; 3] {
    let q = || Expr::var("q");
    let through_lets = Expr::let_in(
        "a",
        Expr::proj1(q()),
        Expr::let_in(
            "b",
            Expr::proj2(q()),
            call(op, Expr::var("a"), Expr::var("b")),
        ),
    );
    [
        call(op, Expr::proj1(q()), Expr::proj2(q())),
        call(op, Expr::proj2(q()), Expr::proj1(q())),
        through_lets,
    ]
}

/// `nat_add`/`nat_mul`/`nat_max`/`nat_min` combiners, however written, fold
/// to the tree's value and charges: at the sizes around a block and one far
/// beyond, from a straight-line or a branching leaf, with `e` the op's
/// identity or not, over words that saturate or do not.
#[test]
fn a_one_call_associative_combiner_folds_to_the_trees_value_and_cost() {
    let straight = Expr::lam("x", pair_ty(), Expr::proj2(Expr::var("x")));
    // Each leaf with what it computes for the row `(_, y)`.
    let leaves = [
        (straight, (|y| y) as fn(u64) -> u64),
        (branching_leaf(), branching_leaf_of),
    ];
    for (i, m) in [0u64, 1, 2, 1_023, 1_024, 1_025, 40_000]
        .into_iter()
        .enumerate()
    {
        // Small words, and words near the largest nat, which sums and
        // products saturate on.
        let small = distinct_rows(m, |y| y);
        let large = distinct_rows(m, |y| u64::MAX - y);
        for (j, (op, identity, u)) in FOLDS.into_iter().enumerate() {
            for (k, combine) in one_call_combiners(op).into_iter().enumerate() {
                // Each op meets each leaf, `e` and word size at each `m`.
                let (leaf, of) = &leaves[(j + k) % 2];
                let e = if (i + k) % 2 == 0 { identity } else { 7 };
                let rows = if (i + j + k) % 2 == 0 { &small } else { &large };
                let u_lam = Expr::lam("q", nat_pair(), combine.clone());
                let set = Expr::constant(input_value(rows));
                let expr = Expr::dcr(Expr::nat(e), leaf.clone(), u_lam, set);
                let (value, stats) = assert_all_four_agree(&expr);
                let expected = tree(rows.iter().map(|&(_, y)| of(y)).collect(), u);
                let context = format!("m = {m}, e = {e}, u = {combine}");
                assert_eq!(value, Value::Nat(expected.unwrap_or(e)), "{context}");
                assert_eq!(stats.combiner_calls, m.saturating_sub(1), "{context}");
            }
        }
    }
}

/// A leaf whose deep arm outweighs three combining rounds, taken by the last
/// of nine rows only: that row is each round's odd tail until the last, and
/// its span, passed through, sets the fold's.
#[test]
fn an_odd_tail_passed_through_keeps_its_span_in_a_fold() {
    let n = || Expr::proj2(Expr::var("x"));
    let deep = (0..12).fold(n(), |e, _| call("nat_add", e, Expr::nat(1)));
    let body = Expr::ite(call("nat_leq", n(), Expr::nat(300)), deep, n());
    let q = || Expr::var("q");
    let sum = Expr::lam(
        "q",
        nat_pair(),
        call("nat_add", Expr::proj1(q()), Expr::proj2(q())),
    );
    let dcr = |rows: &[(u64, u64)]| {
        let set = Expr::constant(input_value(rows));
        Expr::dcr(
            Expr::nat(0),
            Expr::lam("x", pair_ty(), body.clone()),
            sum.clone(),
            set,
        )
    };
    let shallow: Vec<(u64, u64)> = (0..9).map(|i| (i, 1_000 + i)).collect();
    let mut last_deep = shallow.clone();
    last_deep[8].1 = 0;
    let (value, stats) = assert_all_four_agree(&dcr(&last_deep));
    assert_eq!(
        value,
        Value::Nat((0..8).map(|i| 1_000 + i).sum::<u64>() + 12)
    );
    assert!(stats.span > assert_all_four_agree(&dcr(&shallow)).1.span);
}

/// A combiner that captures, and a registry whose `nat_add` is no word op,
/// keep the interpreter's tree, and its value.
#[test]
fn a_capturing_or_re_registered_combiner_keeps_the_tree() {
    let rows = distinct_rows(2_049, |y| y);
    let set = || Expr::constant(input_value(&rows));
    let leaves: Vec<u64> = rows.iter().map(|&(_, y)| branching_leaf_of(y)).collect();
    let q = || Expr::var("q");

    // A combiner that reads the outer λ's `y`.
    let capturing = call(
        "nat_add",
        Expr::proj1(q()),
        call("nat_min", Expr::proj2(q()), Expr::var("y")),
    );
    let dcr = scalar_dcr_over(capturing, set());
    let applied = Expr::app(Expr::lam("y", Type::Nat, dcr), Expr::nat(5));
    let (value, _) = assert_all_four_agree(&applied);
    let expected = tree(leaves.clone(), |a, b| a + b.min(5)).expect("leaves");
    assert_eq!(value, Value::Nat(expected));

    // `nat_add` re-registered: no word op, so no kernel combines with it.
    let mut registry = ExternRegistry::standard();
    registry.register("nat_add", vec![Type::Nat; 2], Type::Nat, |args| {
        let [a, b] = [&args[0], &args[1]].map(|v| v.as_nat().expect("a nat"));
        Ok(Value::Nat(a.saturating_mul(2).saturating_add(b)))
    });
    let straight = Expr::lam("x", pair_ty(), Expr::proj2(Expr::var("x")));
    let u = Expr::lam(
        "q",
        nat_pair(),
        call("nat_add", Expr::proj1(q()), Expr::proj2(q())),
    );
    let expr = Expr::dcr(Expr::nat(0), straight, u, set());
    let runs = STRATEGIES.map(|(kernels, threads)| {
        let session = SessionBuilder::new()
            .registry(registry.clone())
            .parallel_cutoff(1)
            .parallelism(threads)
            .row_kernels(kernels)
            .build();
        let out = session.evaluate(&expr).expect("evaluates");
        (out.value, out.stats)
    });
    assert!(runs.iter().all(|run| *run == runs[0]), "{runs:?}");
    let twice_plus = |a: u64, b: u64| a.saturating_mul(2).saturating_add(b);
    let expected = tree(rows.iter().map(|r| r.1).collect(), twice_plus).expect("leaves");
    assert_eq!(runs[0].0, Value::Nat(expected));
}

/// A limit inside the leaves, and one between the leaves' work and the
/// total, raise the interpreter's error on every strategy.
#[test]
fn a_work_limit_trips_in_a_folded_dcr_as_in_the_interpreters_tree() {
    let q = || Expr::var("q");
    let sum = call("nat_add", Expr::proj1(q()), Expr::proj2(q()));
    let set = Expr::constant(input_value(&scrambled_rows(9_000)));
    let expr = scalar_dcr_over(sum, set);
    let (_, stats) = assert_all_four_agree(&expr);
    // A `branching_leaf` application costs more than a combiner's, so a
    // third of the work falls inside the leaves; each combiner call costs at
    // least two units, so `work − combiner_calls` falls after the leaves.
    for limit in [stats.work / 3, stats.work - stats.combiner_calls] {
        let reference = run_forking(&expr, false, None, Some(limit)).expect_err("over budget");
        assert!(
            matches!(reference, ncql::core::EvalError::WorkLimitExceeded { limit: l, .. } if l == limit),
            "{reference}"
        );
        for (kernels, threads) in STRATEGIES {
            let error = run_forking(&expr, kernels, threads, Some(limit)).expect_err("over budget");
            let context = format!("limit {limit}: kernels {kernels}, threads {threads:?}");
            assert_eq!(error, reference, "{context}");
            assert_eq!(error.span(), reference.span(), "{context}");
        }
    }
}

/// The three shapes that run on kernels — a plain `ext`, an inner `ext` that
/// captures the outer row, a scalar `dcr` — over the sets `r` (64 rows) and
/// `s` (9 000 rows), written by `set`.
fn kernel_shapes(set: impl Fn(&'static str, u64) -> Expr) -> [(&'static str, Expr); 3] {
    let plain = Expr::ext(Expr::lam("x", pair_ty(), branching_body()), set("s", 9_000));
    [
        ("ext", plain),
        ("join", join_over(set("r", 64), set("s", 9_000))),
        ("dcr", scalar_dcr_over(sub_combiner(), set("s", 9_000))),
    ]
}

#[test]
fn a_work_limit_trips_inside_a_kernel_run_ext_on_every_strategy() {
    let closed = |_, n| Expr::constant(input_value(&scrambled_rows(n)));
    for (shape, expr) in kernel_shapes(closed) {
        let (_, stats) = assert_all_four_agree(&expr);
        // Limits that fall a third and three quarters of the way through —
        // inside the plain `ext`'s blocks, inside an inner `ext` of the join,
        // among the leaves and inside a combining round of the `dcr` — and
        // one unit below the full cost.
        for limit in [stats.work / 3, stats.work / 4 * 3, stats.work - 1] {
            for (kernels, threads) in STRATEGIES {
                let error =
                    run_forking(&expr, kernels, threads, Some(limit)).expect_err("over budget");
                assert!(
                    matches!(error, ncql::core::EvalError::WorkLimitExceeded { limit: l, .. } if l == limit),
                    "{shape}: kernels {kernels}, threads {threads:?}: {error}"
                );
            }
        }
        // The full cost fits.
        for (kernels, threads) in STRATEGIES {
            let exact = run_forking(&expr, kernels, threads, Some(stats.work)).expect("fits");
            assert_eq!(
                exact.1, stats,
                "{shape}: kernels {kernels}, threads {threads:?}"
            );
        }
    }
}

#[test]
fn a_cancelled_token_stops_a_large_kernel_ext() {
    use ncql::{CancelToken, ExecOptions};
    use std::time::Duration;

    let schema: Vec<(String, Type)> = ["r", "s"]
        .map(|name| (name.to_string(), Type::set(pair_ty())))
        .into();
    let bindings = |s_rows| {
        vec![
            ("r".to_string(), input_value(&scrambled_rows(64))),
            ("s".to_string(), input_value(&scrambled_rows(s_rows))),
        ]
    };
    let (large, small) = (bindings(100_000), bindings(9_000));
    // Beside the three shapes, the other kernel tree of
    // `a_scalar_dcr_runs_the_interpreters_tree_on_kernels`: combiner `pi1 q`.
    let first = scalar_dcr_over(Expr::proj1(Expr::var("q")), Expr::var("s"));
    let shapes = kernel_shapes(|name, _| Expr::var(name));
    for (shape, expr) in shapes.into_iter().chain([("dcr pi1", first)]) {
        for (kernels, threads) in STRATEGIES {
            let session = SessionBuilder::new()
                .parallel_cutoff(1)
                .parallelism(threads)
                .row_kernels(kernels)
                .build();
            let query = session
                .prepare_expr_with_schema(expr.clone(), &schema)
                .expect("prepares");
            let execute = |token: &CancelToken, bindings| {
                let options = ExecOptions::new().cancel(token.clone());
                session.execute_with_options(&query, bindings, &options)
            };
            let case = format!("{shape}: kernels {kernels}, threads {threads:?}");

            // Raised before the evaluation starts, and past due before it
            // starts: each evaluator reads the clock within its first 4 096
            // units of work, so a zero deadline stops every schedule.
            let stopped = CancelToken::new();
            stopped.cancel("stop");
            let expired = CancelToken::with_deadline(Duration::ZERO);
            for (token, expected) in [(stopped, "stop"), (expired, "deadline of 0ms exceeded")] {
                let error = execute(&token, &large).expect_err("cancelled");
                assert!(
                    matches!(
                        &error,
                        ncql::Error::Eval(ncql::core::EvalError::Cancelled { reason, .. }) if reason == expected
                    ),
                    "{case}: {error}"
                );
                assert!(token.is_cancelled(), "{case}");
            }

            // A deadline far off: the clock is read, nothing else changes.
            let reference = session
                .execute_with_bindings(&query, &small)
                .expect("evaluates");
            let distant = CancelToken::with_deadline(Duration::from_secs(60));
            let timed = execute(&distant, &small).expect("well inside 60 s");
            assert!(reference.stats.work > 4096, "{case}: {:?}", reference.stats);
            assert_eq!(timed.value, reference.value, "{case}");
            assert_eq!(timed.stats, reference.stats, "{case}");
            assert!(!distant.is_cancelled(), "{case}");
        }
    }

    // An `ext` region of some 8 000 units at the default cutoff, alone and as
    // each of the 64 rounds of a chain. Forked, its chunks charge far less
    // than 4 096 units each, and around the lone region the evaluator charges
    // less than that in all: only the clock read where each chunk starts
    // stops it.
    let result_ty = || Type::prod(Type::Nat, Type::Nat);
    let round = Expr::ext(Expr::lam("x", pair_ty(), branching_body()), Expr::var("s"));
    let chain = Expr::loop_(
        Expr::lam("acc", Type::set(result_ty()), round.clone()),
        Expr::var("r"),
        Expr::empty(result_ty()),
    );
    let few = bindings(256);
    for (shape, expr, rounds) in [("region", round, 1), ("loop", chain, 64)] {
        for (kernels, threads) in STRATEGIES {
            let session = SessionBuilder::new()
                .parallelism(threads)
                .row_kernels(kernels)
                .build();
            let query = session
                .prepare_expr_with_schema(expr.clone(), &schema)
                .expect("prepares");
            let case = format!("{shape}: kernels {kernels}, threads {threads:?}");
            let reference = session
                .execute_with_bindings(&query, &few)
                .expect("evaluates");
            let per_round = reference.stats.work / rounds;
            assert!((4096..3 * 4096).contains(&per_round), "{case}: {per_round}");
            let expired = CancelToken::with_deadline(Duration::ZERO);
            let options = ExecOptions::new().cancel(expired.clone());
            let error = session
                .execute_with_options(&query, &few, &options)
                .expect_err("cancelled");
            assert!(
                matches!(
                    &error,
                    ncql::Error::Eval(ncql::core::EvalError::Cancelled { reason, .. })
                        if reason == "deadline of 0ms exceeded"
                ),
                "{case}: {error}"
            );
            assert!(expired.is_cancelled(), "{case}");
        }
    }
}

#[test]
fn a_captured_set_or_function_rejects_by_name_and_evaluates_identically() {
    let rows = Expr::constant(input_value(&scrambled_rows(64)));
    let x = || Expr::var("x");
    // {(pi1 x, t)} under \t: {atom}, over a set of two sets.
    let tagged = Expr::ext(
        Expr::lam(
            "t",
            Type::set(Type::Base),
            Expr::ext(
                Expr::lam(
                    "x",
                    pair_ty(),
                    Expr::singleton(Expr::pair(Expr::proj1(x()), Expr::var("t"))),
                ),
                rows.clone(),
            ),
        ),
        Expr::constant(Value::set_from([
            Value::atom_set([1, 2]),
            Value::atom_set([3]),
        ])),
    );
    // (\f: nat -> nat. ext(\x. {(pi1 x, f(pi2 x))}, rows))(\n. n + 1)
    let mapped = Expr::app(
        Expr::lam(
            "f",
            Type::fun(Type::Nat, Type::Nat),
            Expr::ext(
                Expr::lam(
                    "x",
                    pair_ty(),
                    Expr::singleton(Expr::pair(
                        Expr::proj1(x()),
                        Expr::app(Expr::var("f"), Expr::proj2(x())),
                    )),
                ),
                rows,
            ),
        ),
        Expr::lam(
            "n",
            Type::Nat,
            call("nat_add", Expr::var("n"), Expr::nat(1)),
        ),
    );
    for (name, expr) in [("t", tagged), ("f", mapped)] {
        let sites = analyze_sites(&expr, &ExternRegistry::standard());
        let site = sites.last().expect("the inner ext");
        assert!(!site.compiled);
        assert!(
            site.detail.contains(&format!("captures `{name}`")),
            "{}",
            site.detail
        );
        let (value, stats) = assert_the_four_strategies_agree(&expr);
        assert!(stats.ext_calls >= 64 && value.as_set().is_some_and(|s| s.len() >= 64));
    }
}

/// A `λ` that is not written at its `ext` — bound by a `let`, passed as an
/// argument, or a `let` inside an outer body whose row it captures — is
/// compiled where it is written and reaches the site as a closure, which
/// finds that kernel by its body. The site itself reports that it is decided
/// at run time; values and statistics are the interpreter's. (That the kernel
/// really runs is a count: `tests/kernel_site_guard.rs`.)
#[test]
fn a_lambda_that_reaches_its_ext_as_a_closure_is_bit_identical() {
    let rows = || Expr::constant(input_value(&scrambled_rows(2_500)));
    let function = || Expr::lam("x", pair_ty(), branching_body());
    let bound = Expr::let_in("f", function(), Expr::ext(Expr::var("f"), rows()));
    let result = Type::set(Type::prod(Type::Nat, Type::Nat));
    let passed = Expr::app(
        Expr::lam(
            "g",
            Type::fun(pair_ty(), result),
            Expr::ext(Expr::var("g"), rows()),
        ),
        function(),
    );
    // join_over, with the inner function named before it is used.
    let named = Expr::let_in("f", join_inner(), Expr::ext(Expr::var("f"), rows()));
    let outer = Expr::constant(input_value(&scrambled_rows(64)));
    let capturing = Expr::ext(Expr::lam("a", pair_ty(), named), outer);

    for expr in [bound, passed, capturing] {
        let sites = analyze_sites(&expr, &ExternRegistry::standard());
        let site = sites.last().expect("the ext the closure reaches");
        assert!(!site.compiled);
        assert!(
            site.detail.contains("not a literal lambda"),
            "{}",
            site.detail
        );
        let (_, stats) = assert_the_four_strategies_agree(&expr);
        assert!(stats.ext_calls >= 2_500);
    }
}

/// `{(pi1 x, n)}` where `n` counts the thresholds `pi2 x` is at most: one
/// scalar conditional per threshold, summed along a balanced tree (so the
/// body stays shallow however many there are).
fn threshold_count_body(thresholds: &[u64]) -> Expr {
    fn sum(thresholds: &[u64]) -> Expr {
        match thresholds {
            [t] => Expr::ite(
                call("nat_leq", Expr::proj2(Expr::var("x")), Expr::nat(*t)),
                Expr::nat(1),
                Expr::nat(0),
            ),
            _ => {
                let (left, right) = thresholds.split_at(thresholds.len() / 2);
                call("nat_add", sum(left), sum(right))
            }
        }
    }
    Expr::singleton(Expr::pair(Expr::proj1(Expr::var("x")), sum(thresholds)))
}

#[test]
fn a_body_with_more_conditionals_than_the_path_key_holds_runs_interpreted() {
    let rows = scrambled_rows(2_500);
    let thresholds: Vec<u64> = (0..65).map(|i| i * 19).collect();

    // Sixty-four conditionals use every bit of the key, the top one included.
    let full = ext_over(threshold_count_body(&thresholds[..64]), &rows);
    assert_all_four_agree(&full);

    // One more does not fit: prepare-time analysis reports the compiler's
    // reason, and the interpreter runs the site.
    let body = threshold_count_body(&thresholds);
    let registry = ExternRegistry::standard();
    let over = ext_over(body, &rows);
    let site = &analyze_sites(&over, &registry)[0];
    assert!(!site.compiled);
    let reason = &site.detail;
    assert!(reason.contains("more than 64 conditionals"), "{reason}");
    let reference = run_forking(&over, false, None, None).expect("interpreted");
    for threads in [None, Some(4)] {
        assert_eq!(
            run_forking(&over, true, threads, None).expect("falls back"),
            reference
        );
    }
}

// ----- the cost table, row by row -----

/// One minimal term per rule of `core::cost`, so a rule no random case above
/// happens to generate cannot drift unobserved in one of its three consumers.
/// Closed terms: the interpreter's measured `(work, span)` is within
/// `analyze_query`'s bound, with *equality* where the term is branch-free and
/// charges no data-dependent extra. Liftable bodies: the kernel's folded
/// charge is the interpreter's on every strategy and schedule, and within the
/// bound.
#[test]
fn every_rule_of_the_cost_table_is_charged_bounded_and_folded_alike() {
    use ncql::core::analyze_query;
    let registry = ExternRegistry::standard();
    let x = || Expr::var("x");
    let atoms = |n: u64| Expr::constant(Value::atom_set(0..n));
    let nat_pair = Type::prod(Type::Nat, Type::Nat);
    let add = Expr::lam(
        "p",
        nat_pair.clone(),
        call(
            "nat_add",
            Expr::proj1(Expr::var("p")),
            Expr::proj2(Expr::var("p")),
        ),
    );
    let succ = Expr::lam(
        "n",
        Type::Nat,
        call("nat_add", Expr::var("n"), Expr::nat(1)),
    );
    let step = Expr::lam(
        "q",
        Type::prod(Type::Base, Type::Nat),
        call("nat_add", Expr::proj2(Expr::var("q")), Expr::nat(1)),
    );

    // (rule, term, bound is exact)
    let closed: Vec<(&str, Expr, bool)> = vec![
        ("LEAF", Expr::atom(1), true),
        ("LEAF/unit", Expr::unit(), true),
        ("LEAF/empty", Expr::empty(Type::Base), true),
        (
            "APP+APPLY",
            Expr::app(Expr::lam("x", Type::Base, x()), Expr::atom(1)),
            true,
        ),
        ("LET", Expr::let_in("x", Expr::atom(1), x()), true),
        (
            "PAIR",
            Expr::pair(Expr::atom(1), Expr::singleton(Expr::atom(2))),
            true,
        ),
        (
            "PROJ",
            Expr::proj2(Expr::pair(Expr::atom(1), Expr::atom(2))),
            true,
        ),
        ("SINGLETON", Expr::singleton(Expr::atom(1)), true),
        (
            "IS_EMPTY",
            Expr::is_empty(Expr::singleton(Expr::atom(1))),
            true,
        ),
        (
            "EXTERN+EXTERN_CALL",
            call(
                "nat_add",
                Expr::nat(1),
                Expr::proj1(Expr::pair(Expr::nat(2), Expr::nat(3))),
            ),
            true,
        ),
        (
            "IF",
            Expr::ite(
                Expr::bool_val(false),
                Expr::singleton(Expr::atom(1)),
                Expr::empty(Type::Base),
            ),
            false,
        ),
        (
            "CMP+cmp_extra",
            Expr::leq(
                Expr::pair(Expr::atom(1), Expr::atom(2)),
                Expr::pair(Expr::atom(1), Expr::atom(3)),
            ),
            false,
        ),
        (
            "UNION",
            Expr::union(Expr::singleton(Expr::atom(1)), atoms(3)),
            false,
        ),
        (
            "EXT+INDEPENDENT",
            Expr::ext(
                Expr::lam("x", Type::Base, Expr::singleton(Expr::pair(x(), x()))),
                atoms(3),
            ),
            false,
        ),
        (
            "RECURSION/dcr+IN_SEQUENCE",
            Expr::dcr(
                Expr::nat(0),
                Expr::lam("x", Type::Base, Expr::nat(1)),
                add.clone(),
                atoms(5),
            ),
            false,
        ),
        (
            "RECURSION/dcr/empty",
            Expr::dcr(
                Expr::nat(0),
                Expr::lam("x", Type::Base, Expr::nat(1)),
                add,
                Expr::empty(Type::Base),
            ),
            false,
        ),
        (
            "RECURSION/sri+IN_SEQUENCE",
            Expr::sri(Expr::nat(0), step, atoms(3)),
            false,
        ),
        (
            "RECURSION/loop",
            Expr::loop_(succ.clone(), atoms(3), Expr::nat(0)),
            false,
        ),
        (
            "RECURSION/logloop+log_rounds",
            Expr::log_loop(succ, atoms(5), Expr::nat(0)),
            false,
        ),
    ];
    for (rule, term, exact) in &closed {
        let (_, stats) = run(term, true, None);
        let bound = analyze_query(term, &[], &registry).cost;
        let (work, span) = (
            bound
                .work
                .eval_closed()
                .unwrap_or_else(|| panic!("{rule}: work bound")),
            bound
                .span
                .eval_closed()
                .unwrap_or_else(|| panic!("{rule}: span bound")),
        );
        assert!(bound.work_floor <= stats.work, "{rule}: floor");
        assert!(
            stats.work <= work && stats.span <= span,
            "{rule}: measured {}/{} exceeds the bound {work}/{span}",
            stats.work,
            stats.span
        );
        if *exact {
            assert_eq!(
                (stats.work, stats.span),
                (work, span),
                "{rule}: bound not tight"
            );
            assert_eq!(bound.work_floor, work, "{rule}: floor not tight");
        }
    }

    // (rule, ext body over `x : atom * nat`)
    let liftable: Vec<(&str, Expr)> = vec![
        ("LEAF/empty", Expr::empty(pair_ty())),
        ("SINGLETON+LEAF", Expr::singleton(x())),
        ("PROJ", Expr::singleton(Expr::proj1(x()))),
        (
            "PAIR",
            Expr::singleton(Expr::pair(Expr::proj2(x()), Expr::proj1(x()))),
        ),
        (
            "LET",
            Expr::let_in("y", Expr::proj2(x()), Expr::singleton(Expr::var("y"))),
        ),
        (
            "IF",
            Expr::ite(
                Expr::bool_val(true),
                Expr::singleton(x()),
                Expr::empty(pair_ty()),
            ),
        ),
        (
            "CMP+cmp_extra",
            Expr::singleton(Expr::eq(x(), Expr::pair(Expr::atom(3), Expr::nat(3)))),
        ),
        (
            "EXTERN+EXTERN_CALL",
            Expr::singleton(call("nat_add", Expr::proj2(x()), Expr::nat(1))),
        ),
    ];
    let rows = scrambled_rows(64);
    for (rule, body) in liftable {
        let expr = ext_over(body, &rows);
        let (_, stats) = assert_all_four_agree(&expr);
        let bound = analyze_query(&expr, &[], &registry).cost;
        let within =
            |b: &ncql::core::Bound, measured: u64| b.eval_closed().is_some_and(|b| measured <= b);
        assert!(
            within(&bound.work, stats.work) && within(&bound.span, stats.span),
            "{rule}: measured {}/{} exceeds {bound}",
            stats.work,
            stats.span
        );
    }
}
