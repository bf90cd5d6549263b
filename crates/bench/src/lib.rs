//! Experiment harness reproducing the paper's propositions and worked examples.
//!
//! The paper has no empirical tables (it is a theory paper); the "evaluation" we
//! reproduce is the set of measurable claims tabulated in the README's
//! "Experiments" section (E1–E13). Each `e*` function runs one experiment over a
//! parameter sweep and returns a [`Table`] of rows; the `report` binary prints
//! every table. Wall-clock performance is measured by `benchmark/`, not here.

use ncql_circuit::compile::compile_stats;
use ncql_circuit::dcl::direct_connection_language;
use ncql_circuit::logspace::{LogSpaceMeter, UniformTcFamily};
use ncql_circuit::relquery::RelQuery;
use ncql_core::eval::{eval_with_stats, log_rounds, EvalConfig, Evaluator};
use ncql_core::expr::Expr;
use ncql_core::wellformed::{CheckOptions, LawChecker};
use ncql_core::{derived, EvalError};
use ncql_engine::{OptLevel, SessionBuilder};
use ncql_object::encoding::{decode, encode};
use ncql_object::{Type, Value};
use ncql_queries::{aggregates, datagen, graph, iterate, parity, powerset};
use ncql_translate::{prop21, prop73};
use std::fmt;

/// A simple textual results table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment identifier (e.g. "E2").
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.id, self.title)?;
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map(String::len).unwrap_or(0))
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (i, c) in cells.iter().enumerate() {
                write!(
                    f,
                    "{:width$}  ",
                    c,
                    width = widths.get(i).copied().unwrap_or(8)
                )?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

fn atoms_expr(n: u64) -> Expr {
    Expr::constant(Value::atom_set(0..n))
}

/// E1 — §1 parity example: span/work of the `dcr`, `esr` and `loop` variants.
pub fn e1_parity(sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "E1",
        "Parity (§1): dcr span is logarithmic, esr/loop span is linear",
        &[
            "n",
            "dcr span",
            "dcr work",
            "esr span",
            "esr work",
            "loop span",
        ],
    );
    for &n in sizes {
        let (_, d) = eval_with_stats(&parity::parity_dcr(atoms_expr(n))).expect("parity dcr");
        let (_, e) = eval_with_stats(&parity::parity_esr(atoms_expr(n))).expect("parity esr");
        let (_, l) = eval_with_stats(&parity::parity_loop(atoms_expr(n))).expect("parity loop");
        t.push_row(vec![
            n.to_string(),
            d.span.to_string(),
            d.work.to_string(),
            e.span.to_string(),
            e.work.to_string(),
            l.span.to_string(),
        ]);
    }
    t
}

/// E2 — transitive closure (§1 / Example 7.1): span of the dcr, log-loop and
/// element-by-element forms on path graphs.
pub fn e2_transitive_closure(sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "E2",
        "Transitive closure: dcr / log-loop (NC shape) vs element-wise (PTIME shape)",
        &[
            "n",
            "dcr span",
            "logloop span",
            "elem span",
            "dcr work",
            "elem work",
            "rounds(logloop)",
        ],
    );
    for &n in sizes {
        let r = Expr::constant(datagen::path_graph(n).to_value());
        let (_, d) = eval_with_stats(&graph::tc_dcr(r.clone())).expect("tc dcr");
        let (_, l) = eval_with_stats(&graph::tc_log_loop(r.clone())).expect("tc logloop");
        let (_, e) = eval_with_stats(&graph::tc_elementwise(r)).expect("tc elementwise");
        t.push_row(vec![
            n.to_string(),
            d.span.to_string(),
            l.span.to_string(),
            e.span.to_string(),
            d.work.to_string(),
            e.work.to_string(),
            l.sequential_rounds.to_string(),
        ]);
    }
    t
}

/// E3 — Proposition 2.1: overhead of expressing `dcr` through `esr`/`sri`.
pub fn e3_recursion_translations(sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "E3",
        "Prop 2.1 translations: results agree, work overhead is polynomial, span grows",
        &[
            "n",
            "agree",
            "work factor (dcr->esr)",
            "span factor",
            "work factor (dcr->sri)",
        ],
    );
    let true_f = || Expr::lam("y", Type::Base, Expr::bool_val(true));
    let xor_u = || {
        Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Bool, Type::Bool),
            derived::xor(Expr::var("a"), Expr::var("b")),
        )
    };
    for &n in sizes {
        let direct = Expr::dcr(Expr::bool_val(false), true_f(), xor_u(), atoms_expr(n));
        let via_esr = prop21::dcr_via_esr(
            Expr::bool_val(false),
            true_f(),
            xor_u(),
            atoms_expr(n),
            Type::Base,
            Type::Bool,
        );
        let via_sri = prop21::dcr_via_sri(
            Expr::bool_val(false),
            true_f(),
            xor_u(),
            atoms_expr(n),
            Type::Base,
            Type::Bool,
        );
        let r1 = prop21::measure_overhead(&direct, &via_esr);
        let r2 = prop21::measure_overhead(&direct, &via_sri);
        match (r1, r2) {
            (Some(r1), Some(r2)) => t.push_row(vec![
                n.to_string(),
                "yes".to_string(),
                format!("{:.2}", r1.work_factor()),
                format!("{:.2}", r1.span_factor()),
                format!("{:.2}", r2.work_factor()),
            ]),
            _ => t.push_row(vec![
                n.to_string(),
                "NO".to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t
}

/// E4 — Proposition 2.2: bounded recursion equals unbounded recursion over flat
/// relations.
pub fn e4_bounded_dcr(sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "E4",
        "Prop 2.2: bounded recursion + relational algebra expresses dcr over flat relations",
        &[
            "n",
            "tc(dcr) == tc(bounded)",
            "bounded work",
            "unbounded work",
        ],
    );
    for &n in sizes {
        let r = Expr::constant(datagen::cycle_graph(n).to_value());
        let (v1, s1) = eval_with_stats(&graph::tc_dcr(r.clone())).expect("tc dcr");
        let (v2, s2) = eval_with_stats(&graph::tc_blog_loop(r)).expect("tc bounded");
        t.push_row(vec![
            n.to_string(),
            (v1 == v2).to_string(),
            s2.work.to_string(),
            s1.work.to_string(),
        ]);
    }
    t
}

/// E5 — Proposition 7.3: the halving simulation of dcr uses exactly ⌈log₂ m⌉
/// rounds and agrees with the direct semantics.
pub fn e5_dcr_logloop(sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "E5",
        "Prop 7.3: dcr by order-driven halving — rounds = ceil(log2 m), results agree",
        &["n", "rounds", "ceil(log2 n)", "agree", "combiner apps"],
    );
    let f = Expr::lam("y", Type::Base, Expr::bool_val(true));
    let u = Expr::lam2(
        "a",
        "b",
        Type::prod(Type::Bool, Type::Bool),
        derived::xor(Expr::var("a"), Expr::var("b")),
    );
    for &n in sizes {
        let x = Value::atom_set(0..n);
        let (direct, outcome) =
            prop73::verify_dcr_halving(&Expr::bool_val(false), &f, &u, &x).expect("halving");
        let expected = if n <= 1 {
            0
        } else {
            (n as f64).log2().ceil() as u64
        };
        t.push_row(vec![
            n.to_string(),
            outcome.rounds.to_string(),
            expected.to_string(),
            (direct == outcome.value).to_string(),
            outcome.combiner_applications.to_string(),
        ]);
    }
    t
}

/// E6 — Theorem 6.2 / Prop 7.7: compiled circuit depth and size per universe
/// size and iteration-nesting depth k.
pub fn e6_circuit_depth(ks: &[usize], ns: &[usize]) -> Table {
    let mut t = Table::new(
        "E6",
        "Compiled circuits: depth grows by a log-factor per nesting level (AC^k shape)",
        &["k", "n", "depth", "size", "ceil(log2 n)"],
    );
    for &k in ks {
        for &n in ns {
            let stats = compile_stats(&RelQuery::nested_depth_k(k), n);
            t.push_row(vec![
                k.to_string(),
                n.to_string(),
                stats.depth.to_string(),
                stats.size.to_string(),
                log_rounds(n).to_string(),
            ]);
        }
    }
    t
}

/// E7 — schedule independence: the dcr transitive closure (the NC shape
/// forks, the element-wise PTIME shape cannot) on the parallel backend and on
/// the sequential one must produce the same value and the same `CostStats`.
pub fn e7_ptime_vs_nc(sizes: &[u64], threads: usize) -> Table {
    let mut t = Table::new(
        "E7",
        "Schedule independence: dcr on the parallel backend vs the sequential backend",
        &["n", "stats agree"],
    );
    for &n in sizes {
        let query = graph::tc_dcr(Expr::constant(datagen::path_graph(n).to_value()));
        let mut par_ev = Evaluator::new(EvalConfig {
            parallelism: Some(threads),
            ..EvalConfig::default()
        });
        let par = par_ev.eval_closed(&query).expect("par dcr");
        let (seq, seq_stats) = eval_with_stats(&query).expect("seq dcr");
        assert_eq!(par, seq, "parallel and sequential TC must agree");
        t.push_row(vec![
            n.to_string(),
            (par_ev.stats() == seq_stats).to_string(),
        ]);
    }
    t
}

/// E8 — powerset blow-up: unbounded dcr exceeds a resource limit, bounded dcr
/// stays polynomial (Prop 6.3 / §2).
pub fn e8_bounded_vs_unbounded(sizes: &[u64], limit: usize) -> Table {
    let mut t = Table::new(
        "E8",
        "Powerset: unbounded dcr blows up exponentially, bdcr stays within the bound",
        &[
            "n",
            "unbounded outcome",
            "bounded |result|",
            "bounded max set",
        ],
    );
    for &n in sizes {
        let mut ev = Evaluator::new(EvalConfig {
            max_set_size: limit,
            ..EvalConfig::default()
        });
        let unbounded = match ev.eval_closed(&powerset::powerset_dcr(atoms_expr(n))) {
            Ok(v) => format!("|P(x)| = {}", v.cardinality().unwrap_or(0)),
            Err(EvalError::SetTooLarge { limit, .. }) => format!("exceeded limit {limit}"),
            Err(e) => format!("error: {e}"),
        };
        let mut ev2 = Evaluator::new(EvalConfig {
            max_set_size: limit,
            ..EvalConfig::default()
        });
        let bounded = ev2
            .eval_closed(&powerset::bounded_small_subsets(atoms_expr(n)))
            .expect("bounded powerset");
        t.push_row(vec![
            n.to_string(),
            unbounded,
            bounded.cardinality().unwrap_or(0).to_string(),
            ev2.stats().max_set_size.to_string(),
        ]);
    }
    t
}

/// E8b — the Proposition 6.3 witness: `loop` + unbounded `nat_add` doubles a
/// value `|x|` times, so the numeric value grows exponentially.
pub fn e8b_arithmetic_blowup(sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "E8b",
        "Prop 6.3: loop + nat_add doubles a value |x| times (exponential value growth)",
        &["n", "2^n"],
    );
    for &n in sizes {
        let v = ncql_core::eval::eval_closed(&aggregates::double_exponential(atoms_expr(n)))
            .expect("double exponential");
        t.push_row(vec![n.to_string(), format!("{}", v.as_nat().unwrap_or(0))]);
    }
    t
}

/// E9 — §5 encoding and the Lemma 7.4–7.6 gadgets: round-trips and constant
/// gadget depth.
pub fn e9_encoding_gadgets(sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "E9",
        "Encoding round-trips and gadget circuits (Lemmas 7.4-7.6): constant depth",
        &[
            "n (edges)",
            "encoding len",
            "roundtrip",
            "elem-starts depth",
            "paren depth",
            "eq depth",
        ],
    );
    for &n in sizes {
        let rel = datagen::cycle_graph(n).to_value();
        let s = encode(&rel);
        let back = decode(&s, &Type::binary_relation()).expect("decode");
        let len = s.len();
        let starts = ncql_circuit::gadgets::element_starts(len);
        let parens = ncql_circuit::gadgets::matched_parentheses(len);
        let eq = ncql_circuit::gadgets::encoding_equality(len);
        t.push_row(vec![
            n.to_string(),
            len.to_string(),
            (back == rel).to_string(),
            starts.depth().to_string(),
            parens.depth().to_string(),
            eq.depth().to_string(),
        ]);
    }
    t
}

/// E10 — uniformity: the arithmetic DCL decider for the TC family agrees with
/// the materialized DCL and uses O(log n) working bits.
pub fn e10_uniformity(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "E10",
        "DLOGSPACE-DCL uniformity of the TC circuit family",
        &[
            "n",
            "gates",
            "dcl tuples",
            "all tuples accepted",
            "work bits",
            "16*ceil(log2 gates)",
        ],
    );
    for &n in sizes {
        let circuit = UniformTcFamily::generate(n);
        let dcl = direct_connection_language(n, &circuit);
        let mut all_ok = true;
        let mut max_bits = 0u64;
        for tuple in dcl.iter().take(2000) {
            let mut meter = LogSpaceMeter::new();
            if !UniformTcFamily::dcl_member(n, tuple, &mut meter) {
                all_ok = false;
            }
            max_bits = max_bits.max(meter.bits_used());
        }
        let budget = 16 * (usize::BITS - UniformTcFamily::total_gates(n).leading_zeros()) as u64;
        t.push_row(vec![
            n.to_string(),
            circuit.size().to_string(),
            dcl.len().to_string(),
            all_ok.to_string(),
            max_bits.to_string(),
            budget.to_string(),
        ]);
    }
    t
}

/// E11 — Example 7.2 iteration counters: measured counts match n, n², log n, log² n.
pub fn e11_iteration_nesting(sizes: &[u64]) -> Table {
    let mut t = Table::new(
        "E11",
        "Example 7.2: loop / log-loop nesting reaches n, n^2, log n, log^2 n iterations",
        &[
            "n",
            "count_n",
            "count_n^2",
            "count_log n",
            "count_log^2 n",
            "ceil(log(n+1))",
        ],
    );
    for &n in sizes {
        let get = |e: &Expr| -> u64 {
            ncql_core::eval::eval_closed(e)
                .expect("iteration counter")
                .as_nat()
                .unwrap_or(0)
        };
        t.push_row(vec![
            n.to_string(),
            get(&iterate::count_n(atoms_expr(n))).to_string(),
            get(&iterate::count_n_squared(atoms_expr(n))).to_string(),
            get(&iterate::count_log_n(atoms_expr(n))).to_string(),
            get(&iterate::count_log_squared_n(atoms_expr(n))).to_string(),
            log_rounds(n as usize).to_string(),
        ]);
    }
    t
}

/// E12 — well-definedness checking (§2): the bounded checker accepts the orderly
/// combiners and rejects the crafted non-AC ones.
pub fn e12_wellformedness() -> Table {
    let mut t = Table::new(
        "E12",
        "Bounded algebraic-law checking: orderly combiners pass, the §2 counterexample fails",
        &[
            "instance",
            "well-formed",
            "checks performed",
            "orderly (syntactic)",
        ],
    );
    let input = Value::atom_set(0..6);
    let singleton_f = Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y")));
    let cases: Vec<(&str, Expr, Expr, Expr)> = vec![
        (
            "union",
            Expr::empty(Type::Base),
            singleton_f.clone(),
            derived::union_combiner(Type::Base),
        ),
        (
            "xor (parity)",
            Expr::bool_val(false),
            Expr::lam("y", Type::Base, Expr::bool_val(true)),
            Expr::lam2(
                "a",
                "b",
                Type::prod(Type::Bool, Type::Bool),
                Expr::ite(
                    Expr::var("a"),
                    Expr::ite(Expr::var("b"), Expr::bool_val(false), Expr::bool_val(true)),
                    Expr::var("b"),
                ),
            ),
        ),
        (
            "set difference (§2 counterexample)",
            Expr::empty(Type::Base),
            singleton_f.clone(),
            Expr::lam2(
                "a",
                "b",
                Type::prod(Type::set(Type::Base), Type::set(Type::Base)),
                derived::difference(Type::Base, Expr::var("a"), Expr::var("b")),
            ),
        ),
        (
            "left projection (non-commutative)",
            Expr::empty(Type::Base),
            singleton_f,
            Expr::lam2(
                "a",
                "b",
                Type::prod(Type::set(Type::Base), Type::set(Type::Base)),
                Expr::var("a"),
            ),
        ),
    ];
    for (name, e, f, u) in cases {
        let mut checker = LawChecker::default();
        let report = checker
            .check_dcr_instance(&e, &f, &u, &input, &CheckOptions::default())
            .expect("law check");
        let orderly = ncql_translate::orderly::recognize_combiner(&e, &u).is_some();
        t.push_row(vec![
            name.to_string(),
            report.is_well_formed().to_string(),
            report.checks_performed.to_string(),
            orderly.to_string(),
        ]);
    }
    t
}

/// E13 — the algebraic optimizer over the differential corpus: for every
/// query where at least one cost-gated rewrite fires, the static work bound
/// and the measured work of the raw plan vs the rewritten plan, with the
/// rules that fired. The rewritten numbers may only be equal or lower — the
/// optimizer's gate refuses any rewrite whose predicted cost regresses.
pub fn e13_optimizer() -> Table {
    let mut t = Table::new(
        "E13",
        "Algebraic optimizer: static work bound and measured work, raw plan vs rewritten plan",
        &[
            "query",
            "bound raw",
            "bound opt",
            "work raw",
            "work opt",
            "rules fired",
        ],
    );
    let raw_session = SessionBuilder::new().opt_level(OptLevel::None).build();
    let opt_session = SessionBuilder::new().opt_level(OptLevel::Default).build();
    for entry in ncql_queries::corpus::differential_corpus() {
        // A few corpus entries deliberately outrun the typechecker; the
        // optimizer runs after typecheck and never sees them.
        let Ok(raw) = raw_session.prepare_expr(entry.expr.clone()) else {
            continue;
        };
        let opt = opt_session
            .prepare_expr(entry.expr.clone())
            .expect("typechecked raw plan must also prepare optimized");
        if opt.rewrites().is_empty() {
            continue;
        }
        let raw_out = raw_session.execute(&raw).expect("raw corpus execute");
        let opt_out = opt_session.execute(&opt).expect("optimized corpus execute");
        let bound = |q: &ncql_engine::PreparedQuery| {
            q.analysis()
                .cost
                .work
                .eval_closed()
                .map(|n| n.to_string())
                .unwrap_or_else(|| "∞".to_string())
        };
        let rules: Vec<&str> = opt.rewrites().iter().map(|f| f.rule).collect();
        t.push_row(vec![
            entry.name.to_string(),
            bound(&raw),
            bound(&opt),
            raw_out.stats.work.to_string(),
            opt_out.stats.work.to_string(),
            rules.join(", "),
        ]);
    }
    t
}

/// Run every experiment at small, CI-friendly sizes and return all tables.
pub fn run_all_quick() -> Vec<Table> {
    vec![
        e1_parity(&[8, 32, 128, 512]),
        e2_transitive_closure(&[4, 8, 16, 32]),
        e3_recursion_translations(&[8, 32, 64]),
        e4_bounded_dcr(&[4, 8, 12]),
        e5_dcr_logloop(&[1, 4, 9, 33, 100]),
        e6_circuit_depth(&[1, 2, 3], &[4, 8, 16]),
        e7_ptime_vs_nc(&[8, 16], 4),
        e8_bounded_vs_unbounded(&[4, 8, 14], 2048),
        e8b_arithmetic_blowup(&[4, 10, 20]),
        e9_encoding_gadgets(&[2, 4, 8]),
        e10_uniformity(&[2, 3, 4]),
        e11_iteration_nesting(&[3, 7, 16]),
        e12_wellformedness(),
        e13_optimizer(),
    ]
}

/// Verify the expected qualitative shapes on the quick run. Used by the
/// integration tests so that "the experiment reproduces the paper's shape" is
/// itself a tested property.
pub fn check_shapes(tables: &[Table]) -> Result<(), String> {
    let find = |id: &str| {
        tables
            .iter()
            .find(|t| t.id == id)
            .ok_or(format!("missing {id}"))
    };
    // E1: dcr span grows much slower than esr span.
    let e1 = find("E1")?;
    let first = &e1.rows[0];
    let last = &e1.rows[e1.rows.len() - 1];
    let ratio = |row: &Vec<String>, i: usize| row[i].parse::<f64>().unwrap_or(1.0);
    let dcr_growth = ratio(last, 1) / ratio(first, 1);
    let esr_growth = ratio(last, 3) / ratio(first, 3);
    if dcr_growth >= esr_growth {
        return Err(format!(
            "E1 shape violated: dcr span grew {dcr_growth:.1}x vs esr {esr_growth:.1}x"
        ));
    }
    // E5: rounds always equal ⌈log₂ n⌉ and results agree.
    let e5 = find("E5")?;
    for row in &e5.rows {
        if row[1] != row[2] || row[3] != "true" {
            return Err(format!("E5 shape violated in row {row:?}"));
        }
    }
    // E6: for fixed n, depth increases with k.
    let e6 = find("E6")?;
    let depth_of = |k: &str, n: &str| {
        e6.rows
            .iter()
            .find(|r| r[0] == k && r[1] == n)
            .map(|r| r[2].parse::<usize>().unwrap_or(0))
            .unwrap_or(0)
    };
    if !(depth_of("1", "16") < depth_of("2", "16") && depth_of("2", "16") < depth_of("3", "16")) {
        return Err("E6 shape violated: depth not increasing with k".to_string());
    }
    // E8: unbounded exceeds the limit at the largest size, bounded never does.
    let e8 = find("E8")?;
    let last = &e8.rows[e8.rows.len() - 1];
    if !last[1].contains("exceeded") {
        return Err("E8 shape violated: unbounded powerset did not exceed the limit".to_string());
    }
    // E10: all DCL tuples accepted.
    let e10 = find("E10")?;
    for row in &e10.rows {
        if row[3] != "true" {
            return Err(format!("E10 shape violated in row {row:?}"));
        }
    }
    // E11: counters match the formulas.
    let e11 = find("E11")?;
    for row in &e11.rows {
        let n: u64 = row[0].parse().unwrap_or(0);
        if row[1] != n.to_string() || row[2] != (n * n).to_string() {
            return Err(format!("E11 shape violated in row {row:?}"));
        }
    }
    // E13: the optimizer fires somewhere, bounds and measured work never
    // regress, and at least one query's static bound strictly improves.
    let e13 = find("E13")?;
    if e13.rows.is_empty() {
        return Err("E13 shape violated: the optimizer fired on nothing".to_string());
    }
    let mut strict = 0usize;
    for row in &e13.rows {
        let num = |i: usize| row[i].parse::<u64>().ok();
        if let (Some(br), Some(bo)) = (num(1), num(2)) {
            if bo > br {
                return Err(format!("E13 shape violated: bound regressed in {row:?}"));
            }
            if bo < br {
                strict += 1;
            }
        }
        if let (Some(wr), Some(wo)) = (num(3), num(4)) {
            if wo > wr {
                return Err(format!("E13 shape violated: work regressed in {row:?}"));
            }
        }
    }
    if strict < 3 {
        return Err(format!(
            "E13 shape violated: only {strict} strictly improved static bounds"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_run_and_have_expected_shapes() {
        let tables = run_all_quick();
        assert_eq!(tables.len(), 14);
        for t in &tables {
            assert!(!t.rows.is_empty(), "table {} is empty", t.id);
            for row in &t.rows {
                assert_eq!(row.len(), t.headers.len(), "ragged row in {}", t.id);
            }
        }
        check_shapes(&tables).expect("qualitative shapes must hold");
    }

    #[test]
    fn tables_render_to_text() {
        let t = e11_iteration_nesting(&[4]);
        let text = t.to_string();
        assert!(text.contains("E11"));
        assert!(text.contains("4"));
    }

    #[test]
    fn e12_flags_the_counterexample() {
        let t = e12_wellformedness();
        let diff_row = t
            .rows
            .iter()
            .find(|r| r[0].contains("counterexample"))
            .expect("counterexample row");
        assert_eq!(diff_row[1], "false");
        let union_row = t.rows.iter().find(|r| r[0] == "union").expect("union row");
        assert_eq!(union_row[1], "true");
        assert_eq!(union_row[3], "true");
    }

    #[test]
    fn e7_reports_matching_results() {
        let t = e7_ptime_vs_nc(&[6], 2);
        assert_eq!(t.rows, [["6", "true"]]);
    }
}
