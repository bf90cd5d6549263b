//! Iterators at a fixed point: once a `loop`/`logloop`/`bloop`/`blogloop`
//! round returns its own input, the rounds left are charged in closed form
//! instead of being run. Nothing observable may change:
//!
//! * every case's value and all seven `CostStats` fields equal literals
//!   recorded before the short-cut existed, sequential and forked, kernels on
//!   and off — for cases that reach a fixed point before their last round and
//!   for cases that never reach one;
//! * a work limit that runs out inside the round that finds the fixed point,
//!   or inside a round the short-cut charges, trips with the same error as
//!   running every round did; a limit that ends exactly with the last round
//!   still succeeds.

use ncql::core::EvalError;
use ncql::object::{Type, Value};
use ncql::queries::{pack, Relation};
use ncql::{Error, ExecOptions, Outcome, Session, SessionBuilder, Span};

/// The benchmark's `tc` item: `logloop` squaring over `cites`, with a guard
/// on an atom no path ever reaches.
const BENCH_TC: &str = "logloop(\\s: {(atom * atom)}. s union ext(\\a: (atom * atom). \
     ext(\\b: (atom * atom). if pi2 a = pi1 b \
     then (if pi2 a = @100 then empty[(atom * atom)] else {(pi1 a, pi2 b)}) \
     else empty[(atom * atom)], s), s), cites, cites)";

/// One closure step per round, `|r|` rounds: `s ← s ∪ s∘r`.
const LOOP_STEP: &str = "loop(\\s: {(atom * atom)}. s union ext(\\a: (atom * atom). \
     ext(\\b: (atom * atom). if pi2 a = pi1 b then {(pi1 a, pi2 b)} \
     else empty[(atom * atom)], r), s), r, r)";

/// The identity body: the first round is already a fixed point.
const IDENTITY: &str = "logloop(\\r: {atom}. r, s, empty[atom])";

/// An iterator per element of a forked `ext`: each reaches its fixed point in
/// round 2 on a worker.
const PER_ELEMENT: &str = "ext(\\x: atom. {logloop(\\r: {atom}. r union {x}, s, empty[atom])}, s)";

/// An 18-node chain `i → i−1` with one chord `i → (11·i) mod (i−1)` per node
/// from 2 on: 33 edges, so `logloop` over them runs 6 rounds, and the
/// 153-pair closure is complete after round 3 (as the benchmark's `cites`).
fn chain_with_chords() -> Value {
    let chain = (1..18).map(|i| (i, i - 1));
    let chords = (2..18).map(|i| (i, 11 * i % (i - 1)));
    Relation::from_pairs(chain.chain(chords)).to_value()
}

fn atoms(n: u64) -> Value {
    Value::atom_set(0..n)
}

fn atom_set(name: &str) -> (&str, Type) {
    (name, Type::set(Type::Base))
}

fn relation(name: &str) -> (&str, Type) {
    (name, Type::binary_relation())
}

/// A case: its name, text, schema and bindings.
struct Case {
    name: &'static str,
    text: String,
    schema: Vec<(String, Type)>,
    bindings: Vec<(String, Value)>,
}

/// A text over one parameter.
fn case(name: &'static str, text: &str, param: (&str, Type), value: Value) -> Case {
    Case {
        name,
        text: text.to_string(),
        schema: vec![(param.0.to_string(), param.1)],
        bindings: vec![(param.0.to_string(), value)],
    }
}

/// A pack text, with the schema its header declares.
fn pack_case(name: &'static str, bindings: Vec<(&str, Value)>) -> Case {
    let query = pack::query(name).unwrap_or_else(|| panic!("{name}: not in the pack"));
    Case {
        name,
        text: query.text.to_string(),
        schema: query.schema,
        bindings: (bindings.into_iter())
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
    }
}

fn bench_tc() -> Case {
    case("bench_tc", BENCH_TC, relation("cites"), chain_with_chords())
}

fn cases() -> Vec<Case> {
    vec![
        bench_tc(),
        pack_case("graph/tc_log_loop", vec![("r", chain_with_chords())]),
        pack_case("graph/tc_blog_loop", vec![("r", chain_with_chords())]),
        case("loop_step", LOOP_STEP, relation("r"), chain_with_chords()),
        case("identity", IDENTITY, atom_set("s"), atoms(12)),
        case("per_element", PER_ELEMENT, atom_set("s"), atoms(12)),
        // The bound empties round 1's `{@1}`: a fixed point only after it.
        pack_case(
            "iterate/bloop_bounded",
            vec![("b", Value::atom_set([2, 3])), ("s", atoms(12))],
        ),
        // Never a fixed point.
        pack_case("iterate/count_n", vec![("s", atoms(16))]),
        pack_case("parity/loop", vec![("s", atoms(16))]),
        pack_case("iterate/count_log_squared_n", vec![("s", atoms(16))]),
    ]
}

/// Sequential and forked (2 threads, every region forks), kernels on and off.
fn sessions() -> Vec<(String, Session)> {
    let mut out = Vec::new();
    for kernels in [true, false] {
        for parallelism in [None, Some(2)] {
            let session = SessionBuilder::new()
                .row_kernels(kernels)
                .parallelism(parallelism)
                .parallel_cutoff(1)
                .build();
            out.push((
                format!("kernels {kernels}, parallelism {parallelism:?}"),
                session,
            ));
        }
    }
    out
}

fn run(session: &Session, case: &Case, max_work: Option<u64>) -> Result<Outcome, ncql::Error> {
    let query = (session.prepare_with_schema(&case.text, &case.schema))
        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let options = match max_work {
        Some(limit) => ExecOptions::new().max_work(limit),
        None => ExecOptions::new(),
    };
    session.execute_with_options(&query, &case.bindings, &options)
}

/// The value — a long one as its cardinality and the FNV-1a hash of its
/// text — and all seven `CostStats` fields.
fn render(outcome: &Outcome) -> String {
    let mut value = outcome.value.to_string();
    if value.len() > 80 {
        let fnv = (value.bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let card = match &outcome.value {
            Value::Set(set) => set.len(),
            _ => 1,
        };
        value = format!("{card} elements, fnv {fnv:016x}");
    }
    let s = outcome.stats;
    format!(
        "{value} | work {} span {} combiner {} step {} ext {} rounds {} max_set {}",
        s.work,
        s.span,
        s.combiner_calls,
        s.step_calls,
        s.ext_calls,
        s.sequential_rounds,
        s.max_set_size
    )
}

/// Recorded with every round run.
const PINNED: &[(&str, &str)] = &[
    (
        "bench_tc",
        "153 elements, fnv 62296e88292c66d7 | work 881104 span 91 combiner 0 step 0 ext 93662 rounds 6 max_set 153",
    ),
    (
        "graph/tc_log_loop",
        "153 elements, fnv 62296e88292c66d7 | work 644914 span 66 combiner 0 step 0 ext 70166 rounds 5 max_set 153",
    ),
    (
        "graph/tc_blog_loop",
        "153 elements, fnv 62296e88292c66d7 | work 647259 span 72 combiner 0 step 0 ext 70508 rounds 5 max_set 324",
    ),
    (
        "loop_step",
        "153 elements, fnv 62296e88292c66d7 | work 1492237 span 397 combiner 0 step 0 ext 162112 rounds 33 max_set 153",
    ),
    (
        "identity",
        "{} | work 12 span 5 combiner 0 step 0 ext 0 rounds 4 max_set 0",
    ),
    (
        "per_element",
        "{{a0}, {a1}, {a2}, {a3}, {a4}, {a5}, {a6}, {a7}, {a8}, {a9}, {a10}, {a11}} | work 375 span 16 combiner 0 step 0 ext 12 rounds 4 max_set 12",
    ),
    (
        "iterate/bloop_bounded",
        "{} | work 65 span 25 combiner 0 step 0 ext 0 rounds 12 max_set 1",
    ),
    (
        "iterate/count_n",
        "16 | work 84 span 33 combiner 0 step 0 ext 0 rounds 16 max_set 0",
    ),
    (
        "parity/loop",
        "false | work 68 span 33 combiner 0 step 0 ext 0 rounds 16 max_set 0",
    ),
    (
        "iterate/count_log_squared_n",
        "25 | work 154 span 61 combiner 0 step 0 ext 0 rounds 5 max_set 0",
    ),
];

#[test]
fn values_and_charges_equal_the_every_round_run() {
    let mut got = Vec::new();
    for (config, session) in sessions() {
        for case in cases() {
            let outcome = run(&session, &case, None)
                .unwrap_or_else(|e| panic!("{} ({config}): {e}", case.name));
            got.push((config.clone(), case.name, render(&outcome)));
        }
    }
    for (config, name, line) in &got {
        let pinned = PINNED.iter().find(|(n, _)| n == name).map(|(_, l)| *l);
        assert_eq!(
            Some(line.as_str()),
            pinned,
            "{name} ({config})\nall: {got:#?}"
        );
    }
}

/// The work charged through the end of rounds 3, 4, 5 and 6 of `BENCH_TC` on
/// `chain_with_chords`. Round 4 finds the fixed point; rounds 5 and 6 are
/// the ones the short-cut charges.
const ROUND_ENDS: [u64; 4] = [216_964, 438_344, 659_724, 881_104];

#[test]
fn the_round_ends_are_where_the_limits_assume() {
    let session = SessionBuilder::new().build();
    let ends: Vec<u64> = (3..=6)
        .map(|j| {
            // Counting its rounds over `n`, a set of 2^(j−1) atoms, the text
            // runs exactly the first `j` rounds of `BENCH_TC`.
            let counting = Case {
                name: "bench_tc rounds",
                text: BENCH_TC.replace("cites, cites)", "n, cites)"),
                schema: [atom_set("n"), relation("cites")]
                    .map(|(n, ty)| (n.to_string(), ty))
                    .to_vec(),
                bindings: vec![
                    ("n".to_string(), atoms(1 << (j - 1))),
                    ("cites".to_string(), chain_with_chords()),
                ],
            };
            let outcome = run(&session, &counting, None).expect("no limit");
            assert_eq!(outcome.stats.sequential_rounds, j);
            outcome.stats.work
        })
        .collect();
    assert_eq!(ends, ROUND_ENDS);
}

/// Where a work limit trips on `BENCH_TC`, recorded with every round run:
/// `(max_work, the error's span sequential, its spans forked)`. The first
/// charge of a round is the iterator's own. Inside the squaring the
/// sequential schedule trips in the inner `ext`; forked, the shards share one
/// budget, and whether an inner `ext`'s charge or one of the outer `ext` it
/// shards crosses it first depends on timing, as it did before the short-cut.
const LIMITS: &[(u64, Bytes, &[Bytes])] = &[
    // Round 4: it finds the fixed point.
    (216_964, ITERATOR, &[ITERATOR]),
    (327_654, INNER_EXT, &[INNER_EXT, OUTER_EXT]),
    // Round 5: the first the short-cut charges.
    (438_344, ITERATOR, &[ITERATOR]),
    (549_034, INNER_EXT, &[INNER_EXT, OUTER_EXT]),
    // Round 6: the last the short-cut charges, at its first, a middle and its
    // last charge.
    (659_724, ITERATOR, &[ITERATOR]),
    (770_414, INNER_EXT, &[INNER_EXT, OUTER_EXT]),
    (881_103, BODY, &[BODY]),
];

/// A source span as `(start, end)`.
type Bytes = (usize, usize);

/// Spans of `BENCH_TC`: the whole `logloop`, its body's `union`, the outer
/// and the inner `ext`.
const ITERATOR: Bytes = (0, 219);
const BODY: Bytes = (29, 204);
const OUTER_EXT: Bytes = (37, 204);
const INNER_EXT: Bytes = (60, 200);

#[test]
fn a_work_limit_trips_where_every_round_run_trips() {
    let tc = bench_tc();
    let [.., whole] = ROUND_ENDS;
    for forked in [false, true] {
        let session = (SessionBuilder::new().parallelism(forked.then_some(2)))
            .parallel_cutoff(1)
            .build();
        for &(limit, sequential, sharded) in LIMITS {
            let spans = if forked { sharded } else { &[sequential] };
            let e = run(&session, &tc, Some(limit)).expect_err("over the limit");
            let Error::Eval(EvalError::WorkLimitExceeded { limit: at, span }) = e else {
                panic!("max_work {limit}, forked {forked}: {e:?}");
            };
            let span = span.map(|Span { start, end }| (start, end));
            assert_eq!(at, limit);
            assert!(
                spans.iter().any(|&s| Some(s) == span),
                "max_work {limit}, forked {forked}: {span:?}"
            );
            assert_eq!(
                e.to_string(),
                format!("evaluation error: total work exceeded the configured limit of {limit}")
            );
        }
        // A budget that ends exactly with the last round suffices.
        let outcome = run(&session, &tc, Some(whole)).expect("the whole query's work");
        assert_eq!(render(&outcome), PINNED[0].1, "forked {forked}");
    }
}
