//! The five workloads: set-up, the timed op, its correctness check, and the
//! traced variant with its replay.
//!
//! An op is one round of the workload's request pack — each pack item once,
//! in order — so op latency is unimodal. Checks run between ops, outside the
//! timed interval.

use crate::data::{self, Rng};
use crate::layers::{self, Counters};
use crate::metrics::Metrics;
use crate::pack::{self, Item, Relation, Relations};
use crate::stats::{median, p90_or_supported, percentile};
use crate::trace::Tracer;
use ncql_engine::{PreparedQuery, Session, SessionBuilder};
use ncql_object::{Type, VSet, Value};
use ncql_serve::json::{self, Json};
use ncql_serve::protocol;
use ncql_serve::{ServeConfig, Server, ServerHandle};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

// Sizes. A run must complete at least a hundred ops for `op_p90_us` to have
// ten samples beyond it, which caps the `nested` round near 100 ms.
const SCAN_PAPERS: u64 = 100_000;
const JOIN_ROWS: u64 = 320;
const AGG_PAPERS: u64 = 40_000;
const TC_NODES: u64 = 18;
const POINT_ROWS: u64 = 16;
/// Requests pipelined per `serve_point` op.
const POINT_DEPTH: usize = 32;
const BULK_PAPERS: u64 = 20_000;
/// Client connections of the serve workloads (= `nproc` of the reference box).
const CONNECTIONS: usize = 2;
/// Worker threads of the `pram.*` replay session.
const PRAM_THREADS: usize = 2;

// Warm-up rounds, part of `setup_s`. Fixed counts, so set-up does fixed work.
const WARMUP_SCAN: usize = 10;
const WARMUP_NESTED: usize = 3;
const WARMUP_PREPARE: usize = 1000;
const WARMUP_SERVE: usize = 3;

/// First literal of the `prepare` workload's texts; literals stay six digits
/// wide so every text of one template has the same length.
const PREPARE_K_BASE: u64 = 100_000;
const PREPARE_K_RANGE: u64 = 900_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Scan,
    Nested,
    Prepare,
    ServePoint,
    ServeBulk,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Scan,
        Workload::Nested,
        Workload::Prepare,
        Workload::ServePoint,
        Workload::ServeBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Nested => "nested",
            Workload::Prepare => "prepare",
            Workload::ServePoint => "serve_point",
            Workload::ServeBulk => "serve_bulk",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What the timed ops of one measurement produced.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops the server refused with `busy`.
    pub busy: u64,
    /// The time base of `ops_per_s`: summed op time in process, wall time of
    /// the client threads over the wire.
    pub time_base_s: f64,
}

impl Samples {
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.time_base_s
    }

    pub fn p50_us(&self) -> f64 {
        median(&self.latencies_us).unwrap_or(0.0)
    }

    fn merge(&mut self, other: Samples) {
        self.latencies_us.extend(other.latencies_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.time_base_s += other.time_base_s;
    }
}

/// A workload that has been set up: ready to be measured or traced.
pub trait Running {
    /// Run ops closed-loop for `seconds`, timing each, checking each.
    fn measure(&mut self, seconds: f64) -> Samples;

    /// Run ops for `seconds` with a span around every call into a layer and
    /// a replay after each op; return the layer metrics this workload owns,
    /// the counts and ratios that describe it, and what the ops produced.
    fn traced(&mut self, t: &mut Tracer, seconds: f64) -> Traced;
}

/// The result of a traced segment.
pub struct Traced {
    /// Times, rates and speed-ups of the layers this workload exercises.
    pub owned: Metrics,
    /// Counts and ratios describing this workload, per op.
    pub scoped: Metrics,
    pub samples: Samples,
}

/// Data generation, session or server start, one reference check per pack
/// item, and warm-up. An `Err` means the engine disagreed with the reference.
pub fn set_up(workload: Workload, seed: u64) -> Result<Box<dyn Running>, String> {
    Ok(match workload {
        Workload::Scan | Workload::Nested => Box::new(InProcess::set_up(workload, seed)?),
        Workload::Prepare => Box::new(PrepareRun::set_up(seed)?),
        Workload::ServePoint | Workload::ServeBulk => Box::new(Served::set_up(workload, seed)?),
    })
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

fn us(elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / 1e3
}

/// The closed loop of the in-process workloads: run `op` until the time is
/// up. `op` times itself — so its preparation and its check stay outside the
/// timed interval — and says whether its result was correct.
fn measure_sequential(seconds: f64, mut op: impl FnMut() -> (Duration, bool)) -> Samples {
    let mut samples = Samples::default();
    let end = deadline(seconds);
    while Instant::now() < end {
        let (elapsed, correct) = op();
        samples.attempted += 1;
        if correct {
            samples.latencies_us.push(us(elapsed));
            samples.time_base_s += elapsed.as_secs_f64();
        } else {
            samples.failed += 1;
        }
    }
    samples
}

/// The share of a traced segment spent on the untraced baseline that
/// `trace.overhead_ratio` compares against.
const BASELINE_SHARE: f64 = 0.2;

/// Scoped metrics every workload reports the same way, and 0 for the ones
/// only some workloads have a value for (an op that prepares nothing fires no
/// rewrite and probes no cache; one that executes nothing does no work; one
/// that stays in process moves no bytes).
fn scoped_common(t: &Tracer, samples: &Samples, untraced_p50_us: f64) -> Metrics {
    let mut m = Metrics::new();
    for name in [
        "core.rewrite.fired",
        "core.eval.work",
        "core.eval.span",
        "engine.cache_hit_ratio",
        "engine.cache_evictions",
        "serve.server.request_bytes",
        "serve.server.response_bytes",
    ] {
        m.set(name, 0.0);
    }
    let ops = t.ops().max(1) as f64;
    m.set("trace.spans", t.spans().len() as f64 / ops);
    let ops_us = t.durations_us("op");
    let traced_p50 = median(&ops_us).unwrap_or(0.0);
    m.set("trace.overhead_ratio", traced_p50 / untraced_p50_us - 1.0);
    m.set("op_p90_us", p90_or_supported(&ops_us).unwrap_or(0.0));
    m.set(
        "error_ratio",
        samples.failed as f64 / samples.attempted.max(1) as f64,
    );
    m.set("serve.server.busy", samples.busy as f64);
    m
}

fn set_counters(m: &mut Metrics, counters: Counters, ops: u64) {
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    m.set("core.kernel.ext_hits", per_op(counters.kernel_ext_hits));
    m.set("core.kernel.rows", per_op(counters.kernel_rows));
    m.set("core.kernel.fallbacks", per_op(counters.kernel_fallbacks));
    m.set(
        "object.columnar_promotions",
        per_op(counters.columnar_promotions),
    );
    m.set(
        "object.columnar_demotions",
        per_op(counters.columnar_demotions),
    );
}

fn site_ratio<'a>(queries: impl IntoIterator<Item = &'a PreparedQuery>) -> f64 {
    let (compiled, all) = queries
        .into_iter()
        .map(layers::kernel_sites)
        .fold((0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1));
    if all == 0 {
        0.0
    } else {
        compiled as f64 / all as f64
    }
}

// ----- scan and nested: prepared once, executed in process -----

struct Prepared {
    item: Item,
    query: PreparedQuery,
    bindings: Vec<(String, Value)>,
    /// The value the reference confirmed at set-up; every op must return it.
    verified: Value,
    /// `CostStats` work and span of that evaluation (deterministic per plan).
    work: u64,
    span: u64,
}

struct InProcess {
    workload: Workload,
    session: Session,
    items: Vec<Prepared>,
    /// `scan` only: the shuffled boxed rows `papers` was built from, for the
    /// canonicalisation replay.
    paper_rows: Vec<Value>,
}

fn prepare_item(session: &Session, item: Item, rel: Relations<'_>) -> Result<Prepared, String> {
    let fail = |what: &str| format!("{}: {what}", item.name());
    let query = session
        .prepare_with_schema(&item.text(item.default_k()), &item.schema())
        .map_err(|e| fail(&e.to_string()))?;
    let bindings = item.bindings(rel);
    let outcome = session
        .execute_with_bindings(&query, &bindings)
        .map_err(|e| fail(&e.to_string()))?;
    if pack::extract(&outcome.value) != Some(item.expected(rel)) {
        return Err(fail(
            "the engine's value differs from the reference evaluator's",
        ));
    }
    Ok(Prepared {
        item,
        query,
        bindings,
        work: outcome.stats.work,
        span: outcome.stats.span,
        verified: outcome.value,
    })
}

impl InProcess {
    fn set_up(workload: Workload, seed: u64) -> Result<InProcess, String> {
        let mut rng = Rng::new(seed);
        let session = SessionBuilder::new().build();
        let none = Relation::pairs(Vec::new());
        let (items, paper_rows, warmup) = if workload == Workload::Scan {
            let rows = data::papers(&mut rng, SCAN_PAPERS);
            let boxed = pack::paper_rows(&rows);
            let papers = Relation::papers(rows);
            let rel = Relations {
                papers: &papers,
                authored: &none,
                cites: &none,
            };
            let items = [Item::FilterRare, Item::FilterProject, Item::ProjectSwap]
                .into_iter()
                .map(|item| prepare_item(&session, item, rel))
                .collect::<Result<Vec<_>, _>>()?;
            (items, boxed, WARMUP_SCAN)
        } else {
            let small = Relation::papers(data::papers(&mut rng, JOIN_ROWS));
            let authored = Relation::pairs(data::authored(&mut rng, JOIN_ROWS, JOIN_ROWS));
            let large = Relation::papers(data::papers(&mut rng, AGG_PAPERS));
            let cites = Relation::pairs(data::cites(&mut rng, TC_NODES));
            let with_papers = |papers| Relations {
                papers,
                authored: &authored,
                cites: &cites,
            };
            let items = vec![
                prepare_item(&session, Item::Join, with_papers(&small))?,
                prepare_item(&session, Item::AggSum, with_papers(&large))?,
                prepare_item(&session, Item::Tc, with_papers(&large))?,
            ];
            (items, Vec::new(), WARMUP_NESTED)
        };
        let run = InProcess {
            workload,
            session,
            items,
            paper_rows,
        };
        for _ in 0..warmup {
            if !run.round_is_correct() {
                return Err(format!("{}: a warm-up op failed", workload.name()));
            }
        }
        Ok(run)
    }

    fn round_is_correct(&self) -> bool {
        self.items.iter().all(|p| {
            self.session
                .execute_with_bindings(&p.query, &p.bindings)
                .is_ok_and(|o| o.value == p.verified)
        })
    }

    /// The traced op: every pack item under its own span, counters
    /// snapshotted around the real calls. Returns whether every value was the
    /// verified one.
    fn traced_round(&self, t: &mut Tracer, counters: &mut Counters) -> bool {
        let before = Counters::now();
        let outcomes = t.span("op", |t| {
            self.items
                .iter()
                .map(|p| {
                    layers::execute(t, exec_span(p.item), &self.session, &p.query, &p.bindings)
                })
                .collect::<Vec<_>>()
        });
        counters.add_delta(before, Counters::now());
        self.items
            .iter()
            .zip(outcomes)
            .all(|(p, o)| o.is_ok_and(|o| o.value == p.verified))
    }

    fn item(&self, item: Item) -> &Prepared {
        self.items
            .iter()
            .find(|p| p.item == item)
            .expect("the workload's pack holds the item")
    }
}

fn exec_span(item: Item) -> &'static str {
    match item {
        Item::FilterRare => "engine.execute.filter_rare",
        Item::FilterProject => "engine.execute.filter_project",
        Item::ProjectSwap => "engine.execute.project_swap",
        Item::Join => "engine.execute.join",
        Item::AggSum => "engine.execute.agg_sum",
        Item::Tc => "engine.execute.tc",
    }
}

fn pram_span(item: Item) -> &'static str {
    match item {
        Item::Join => "pram.join",
        Item::AggSum => "pram.agg_sum",
        _ => "pram.tc",
    }
}

impl Running for InProcess {
    fn measure(&mut self, seconds: f64) -> Samples {
        let mut outcomes = Vec::with_capacity(self.items.len());
        measure_sequential(seconds, || {
            outcomes.clear();
            let start = Instant::now();
            for p in &self.items {
                outcomes.push(self.session.execute_with_bindings(&p.query, &p.bindings));
            }
            let elapsed = start.elapsed();
            let correct = self
                .items
                .iter()
                .zip(&outcomes)
                .all(|(p, o)| o.as_ref().is_ok_and(|o| o.value == p.verified));
            (elapsed, correct)
        })
    }

    fn traced(&mut self, t: &mut Tracer, seconds: f64) -> Traced {
        let untraced = self.measure(seconds * BASELINE_SHARE);
        let scan = self.workload == Workload::Scan;
        // The replay's second session: the same plans without row kernels
        // (scan), or on the parallel backend (nested).
        let other = if scan {
            SessionBuilder::new().row_kernels(false).build()
        } else {
            SessionBuilder::new()
                .parallelism(Some(PRAM_THREADS))
                .build()
        };
        let replayed: Vec<Item> = if scan {
            vec![Item::FilterProject]
        } else {
            self.items.iter().map(|p| p.item).collect()
        };
        let other_queries: Vec<PreparedQuery> = replayed
            .iter()
            .map(|&item| {
                other
                    .prepare_with_schema(&item.text(item.default_k()), &item.schema())
                    .expect("the text prepared on the main session")
            })
            .collect();
        // The workload's large `papers` set and — for the union replay of
        // `nested` — its two interleaved halves.
        let large = if scan { Item::FilterRare } else { Item::AggSum };
        let papers = self.item(large).bindings[0].1.clone();
        let elems = papers.as_set().expect("papers is a set");
        let half = |parity: usize| -> VSet {
            let rows = elems.iter().skip(parity).step_by(2);
            rows.cloned().collect()
        };
        let halves = (!scan).then(|| (half(0), half(1)));

        let mut samples = Samples::default();
        let mut counters = Counters::default();
        let end = deadline(seconds * (1.0 - BASELINE_SHARE));
        while Instant::now() < end {
            t.begin_op();
            let correct = self.traced_round(t, &mut counters);
            samples.attempted += 1;
            samples.failed += u64::from(!correct);
            let rows = self.paper_rows.clone();
            t.span("replay", |t| {
                for (&item, query) in replayed.iter().zip(&other_queries) {
                    let name = if scan {
                        "core.eval.interpreted"
                    } else {
                        pram_span(item)
                    };
                    let outcome =
                        layers::execute(t, name, &other, query, &self.item(item).bindings);
                    if !outcome.is_ok_and(|o| o.value == self.item(item).verified) {
                        samples.failed += 1;
                    }
                }
                match &halves {
                    None => {
                        layers::has_type(t, &papers, &pack::papers_type());
                        layers::canonicalize(t, rows);
                    }
                    Some((evens, odds)) => {
                        layers::union(t, evens, odds);
                    }
                }
            });
        }

        let mut owned = Metrics::new();
        let input_rows = papers.cardinality().unwrap_or(1) as f64;
        let exec_us = |item| t.op_total_us(exec_span(item));
        if scan {
            for (item, name) in [
                (Item::FilterRare, "engine.exec.filter_rare_us"),
                (Item::FilterProject, "engine.exec.filter_project_us"),
                (Item::ProjectSwap, "engine.exec.project_swap_us"),
            ] {
                owned.set(name, exec_us(item));
            }
            let interpreted = t.op_total_us("core.eval.interpreted");
            owned.set(
                "core.kernel.ns_per_row",
                exec_us(Item::FilterRare) * 1e3 / input_rows,
            );
            owned.set("core.eval.ns_per_row", interpreted * 1e3 / input_rows);
            owned.set(
                "core.kernel.speedup",
                interpreted / exec_us(Item::FilterProject),
            );
            owned.set(
                "object.has_type_ns_per_row",
                t.op_total_us("object.has_type") * 1e3 / input_rows,
            );
            owned.set(
                "object.canonicalize_ns_per_row",
                t.op_total_us("object.canonicalize") * 1e3 / input_rows,
            );
        } else {
            for (item, name, speedup) in [
                (Item::Join, "engine.exec.join_us", "pram.speedup_join"),
                (
                    Item::AggSum,
                    "engine.exec.agg_sum_us",
                    "pram.speedup_agg_sum",
                ),
                (Item::Tc, "engine.exec.tc_us", "pram.speedup_tc"),
            ] {
                owned.set(name, exec_us(item));
                owned.set(speedup, exec_us(item) / t.op_total_us(pram_span(item)));
            }
            owned.set(
                "core.eval.ns_per_work",
                exec_us(Item::Join) * 1e3 / self.item(Item::Join).work as f64,
            );
            owned.set(
                "object.union_ns_per_row",
                t.op_total_us("object.union") * 1e3 / input_rows,
            );
        }

        let mut scoped = scoped_common(t, &samples, untraced.p50_us());
        set_counters(&mut scoped, counters, samples.attempted);
        let sum = |f: fn(&Prepared) -> u64| self.items.iter().map(f).sum::<u64>() as f64;
        scoped.set("core.eval.work", sum(|p| p.work));
        scoped.set("core.eval.span", sum(|p| p.span));
        scoped.set(
            "core.kernel.site_ratio",
            site_ratio(self.items.iter().map(|p| &p.query)),
        );
        Traced {
            owned,
            scoped,
            samples,
        }
    }
}

// ----- prepare: every text is new, nothing is executed -----

struct PrepareRun {
    session: Session,
    schemas: Vec<Vec<(String, Type)>>,
    next_k: u64,
}

impl PrepareRun {
    fn set_up(seed: u64) -> Result<PrepareRun, String> {
        let mut run = PrepareRun {
            session: SessionBuilder::new().build(),
            schemas: Item::ALL.iter().map(|item| item.schema()).collect(),
            next_k: Rng::new(seed).below(PREPARE_K_RANGE),
        };
        for _ in 0..WARMUP_PREPARE {
            if !run.timed_round().1 {
                return Err("prepare: a pack text was refused or mistyped".to_string());
            }
        }
        Ok(run)
    }

    /// The six pack texts with a literal no earlier round used.
    fn fresh_texts(&mut self) -> Vec<String> {
        let k = PREPARE_K_BASE + self.next_k % PREPARE_K_RANGE;
        self.next_k += 1;
        Item::ALL.iter().map(|item| item.text(k)).collect()
    }

    /// One op: cold-prepare six fresh texts. Timed around the prepares only;
    /// correct when the engine accepted each text with the pack item's type.
    fn timed_round(&mut self) -> (Duration, bool) {
        let texts = self.fresh_texts();
        let mut prepared = Vec::with_capacity(texts.len());
        let start = Instant::now();
        for (text, schema) in texts.iter().zip(&self.schemas) {
            prepared.push(self.session.prepare_with_schema(text, schema));
        }
        let elapsed = start.elapsed();
        let correct = prepared.iter().zip(Item::ALL).all(|(q, item)| {
            q.as_ref()
                .is_ok_and(|q| q.ty().to_string() == item.result_type())
        });
        (elapsed, correct)
    }
}

impl Running for PrepareRun {
    fn measure(&mut self, seconds: f64) -> Samples {
        measure_sequential(seconds, || self.timed_round())
    }

    fn traced(&mut self, t: &mut Tracer, seconds: f64) -> Traced {
        let untraced = self.measure(seconds * BASELINE_SHARE);
        let mut samples = Samples::default();
        let mut counters = Counters::default();
        let cache_before = self.session.cache_metrics();
        let (mut fired, mut sites) = (0, 0.0);
        let end = deadline(seconds * (1.0 - BASELINE_SHARE));
        while Instant::now() < end {
            let texts = self.fresh_texts();
            t.begin_op();
            let before = Counters::now();
            let prepared = t.span("op", |t| {
                texts
                    .iter()
                    .zip(&self.schemas)
                    .map(|(text, schema)| {
                        t.span("engine.prepare_cold", |_| {
                            self.session.prepare_with_schema(text, schema)
                        })
                    })
                    .collect::<Vec<_>>()
            });
            counters.add_delta(before, Counters::now());
            samples.attempted += 1;
            let queries: Vec<&PreparedQuery> = prepared.iter().flatten().collect();
            let mut correct = queries.len() == texts.len();
            fired = queries.iter().map(|q| q.rewrites().len()).sum();
            sites = site_ratio(queries);
            t.span("replay", |t| {
                for (text, schema) in texts.iter().zip(&self.schemas) {
                    correct &= layers::replay_prepare(t, &self.session, text, schema);
                }
            });
            samples.failed += u64::from(!correct);
        }
        let cache = self.session.cache_metrics();

        let mut owned = Metrics::new();
        let mut children = 0.0;
        for (span, name) in [
            ("surface.parse", "surface.parse_us"),
            ("core.typecheck.infer", "core.typecheck.infer_us"),
            ("core.analyze.analyze", "core.analyze.analyze_us"),
            ("core.rewrite.optimize", "core.rewrite.optimize_us"),
            ("core.kernel.sites", "core.kernel.sites_us"),
            ("surface.print", "surface.print_us"),
        ] {
            let per_text = t.call_us(span);
            owned.set(name, per_text);
            children += per_text;
        }
        // `parse` tokenizes internally, so tokenize is not a sibling.
        owned.set("surface.tokenize_us", t.call_us("surface.tokenize"));
        let cold = t.call_us("engine.prepare_cold");
        owned.set("engine.prepare_cold_us", cold);
        owned.set("engine.prepare_self_us", cold - children);

        let mut scoped = scoped_common(t, &samples, untraced.p50_us());
        set_counters(&mut scoped, counters, samples.attempted);
        scoped.set("core.rewrite.fired", fired as f64);
        scoped.set("core.kernel.site_ratio", sites);
        scoped.set(
            "engine.cache_hit_ratio",
            layers::hit_ratio(
                cache.hits - cache_before.hits,
                cache.misses - cache_before.misses,
            ),
        );
        scoped.set(
            "engine.cache_evictions",
            (cache.evictions - cache_before.evictions) as f64 / samples.attempted.max(1) as f64,
        );
        Traced {
            owned,
            scoped,
            samples,
        }
    }
}

// ----- serve_point and serve_bulk: the same plans over TCP -----

/// One client connection with its pre-serialised request pack.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Request lines, each ending in `\n`, with fixed ids.
    requests: Vec<String>,
    /// The reply line (no newline) the reference confirmed for each request.
    verified: Vec<String>,
}

impl Conn {
    fn connect(handle: &ServerHandle, requests: Vec<String>) -> io::Result<Conn> {
        let stream = TcpStream::connect(handle.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            requests,
            verified: Vec::new(),
        })
    }

    fn read_reply(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    fn round_trip(&mut self, request: usize) -> io::Result<String> {
        self.stream.write_all(self.requests[request].as_bytes())?;
        self.read_reply()
    }

    /// One op. Pipelined: every request written back-to-back, then every
    /// reply read. Otherwise one round trip per request, in order.
    fn round(&mut self, pipelined: bool) -> io::Result<Vec<String>> {
        if pipelined {
            let batch = self.requests.concat();
            self.stream.write_all(batch.as_bytes())?;
            (0..self.requests.len())
                .map(|_| self.read_reply())
                .collect()
        } else {
            (0..self.requests.len())
                .map(|i| self.round_trip(i))
                .collect()
        }
    }

    /// Did the op return exactly the verified reply lines? Also reports
    /// whether any reply was a `busy` refusal.
    fn judge(&self, replies: &io::Result<Vec<String>>) -> (bool, bool) {
        match replies {
            Ok(replies) => (
                replies == &self.verified,
                replies.iter().any(|r| r.contains("\"code\":\"busy\"")),
            ),
            Err(_) => (false, false),
        }
    }

    fn request_bytes(&self) -> usize {
        self.requests.iter().map(String::len).sum()
    }

    fn response_bytes(&self) -> usize {
        self.verified.iter().map(|r| r.len() + 1).sum()
    }
}

struct Served {
    /// `serve_point` pipelines its pack; `serve_bulk` ping-pongs it.
    pipelined: bool,
    conns: Vec<Conn>,
    /// Shuts the server down when dropped, after the connections close.
    _server: ServerHandle,
}

fn execute_line(id: u64, item: Item, papers: &Value) -> String {
    let schema = item
        .schema()
        .into_iter()
        .map(|(name, ty)| {
            Json::Obj(vec![
                ("name".to_string(), Json::str(name)),
                ("type".to_string(), Json::str(ty.to_string())),
            ])
        })
        .collect();
    let binding = Json::Obj(vec![
        ("name".to_string(), Json::str("papers")),
        ("value".to_string(), protocol::value_to_json(papers)),
    ]);
    let mut line = Json::Obj(vec![
        ("op".to_string(), Json::str("execute")),
        ("id".to_string(), Json::num(id)),
        ("text".to_string(), Json::str(item.text(item.default_k()))),
        ("schema".to_string(), Json::Arr(schema)),
        ("bindings".to_string(), Json::Arr(vec![binding])),
    ])
    .to_string();
    line.push('\n');
    line
}

/// The `printed` field of an `ok` reply, or why there is none.
fn printed_of(reply: &str) -> Result<String, String> {
    let json = json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
    json.get("ok")
        .and_then(|ok| ok.get("printed"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("reply is not an `ok` with a printed value: {reply:.200}"))
}

impl Served {
    fn set_up(workload: Workload, seed: u64) -> Result<Served, String> {
        let io_err = |e: io::Error| format!("{}: {e}", workload.name());
        let mut rng = Rng::new(seed);
        let server = Server::bind(ServeConfig::default(), SessionBuilder::new().build())
            .and_then(Server::spawn)
            .map_err(io_err)?;
        let point = workload == Workload::ServePoint;
        let none = Relation::pairs(Vec::new());
        let mut conns = Vec::new();
        for c in 0..CONNECTIONS {
            // Each request carries its own binding and a fixed id, so a
            // reply is right exactly when it is byte-identical to the first.
            let pack: Vec<(Item, Relation)> = if point {
                (0..POINT_DEPTH)
                    .map(|_| {
                        let rows = data::papers(&mut rng, POINT_ROWS);
                        (Item::FilterProject, Relation::papers(rows))
                    })
                    .collect()
            } else {
                let papers = Relation::papers(data::papers(&mut rng, BULK_PAPERS));
                vec![
                    (Item::FilterProject, papers.clone()),
                    (Item::ProjectSwap, papers),
                ]
            };
            let requests = pack
                .iter()
                .enumerate()
                .map(|(i, (item, papers))| {
                    execute_line((c * pack.len() + i + 1) as u64, *item, &papers.value)
                })
                .collect();
            let mut conn = Conn::connect(&server, requests).map_err(io_err)?;
            for (i, (item, papers)) in pack.iter().enumerate() {
                let reply = conn.round_trip(i).map_err(io_err)?;
                let rel = Relations {
                    papers,
                    authored: &none,
                    cites: &none,
                };
                if pack::extract_printed(&printed_of(&reply)?) != Some(item.expected(rel)) {
                    return Err(format!(
                        "{}: reply {i} differs from the reference evaluator's",
                        workload.name()
                    ));
                }
                conn.verified.push(reply);
            }
            conns.push(conn);
        }
        let mut run = Served {
            pipelined: point,
            conns,
            _server: server,
        };
        for _ in 0..WARMUP_SERVE {
            for conn in &mut run.conns {
                let replies = conn.round(point);
                if !conn.judge(&replies).0 {
                    return Err(format!("{}: a warm-up op failed", workload.name()));
                }
            }
        }
        Ok(run)
    }

    /// The server session's cache counters, over the wire.
    fn wire_cache_stats(&mut self) -> Option<(u64, u64, u64)> {
        let conn = &mut self.conns[0];
        conn.stream
            .write_all(b"{\"op\":\"stats\",\"id\":0}\n")
            .ok()?;
        let reply = json::parse(&conn.read_reply().ok()?).ok()?;
        let cache = reply.get("ok")?.get("cache")?;
        let field = |name| cache.get(name).and_then(Json::as_u64);
        Some((field("hits")?, field("misses")?, field("evictions")?))
    }
}

/// One client thread's closed loop.
fn client_loop(conn: &mut Conn, pipelined: bool, end: Instant) -> Samples {
    let mut samples = Samples::default();
    while Instant::now() < end {
        let start = Instant::now();
        let replies = conn.round(pipelined);
        let elapsed = start.elapsed();
        samples.attempted += 1;
        let (correct, busy) = conn.judge(&replies);
        if correct {
            samples.latencies_us.push(us(elapsed));
        } else {
            samples.failed += 1;
            samples.busy += u64::from(busy);
            if replies.is_err() {
                // The connection is gone; every further op would fail too.
                break;
            }
        }
    }
    samples
}

impl Running for Served {
    fn measure(&mut self, seconds: f64) -> Samples {
        let pipelined = self.pipelined;
        let start = Instant::now();
        let end = deadline(seconds);
        let per_client: Vec<Samples> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| scope.spawn(move || client_loop(conn, pipelined, end)))
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let mut samples = Samples::default();
        for client in per_client {
            samples.merge(client);
        }
        samples.time_base_s = start.elapsed().as_secs_f64();
        samples
    }

    /// Traced over the first connection only, so spans have one timeline.
    fn traced(&mut self, t: &mut Tracer, seconds: f64) -> Traced {
        let pipelined = self.pipelined;
        let untraced = client_loop(
            &mut self.conns[0],
            pipelined,
            deadline(seconds * BASELINE_SHARE),
        );
        // The replay runs the same requests against an in-process session
        // whose cache already holds their plans, as the server's does.
        let replay = SessionBuilder::new().build();
        let plans: Vec<PreparedQuery> = self.conns[0]
            .requests
            .iter()
            .filter_map(|r| match protocol::parse_request(r.trim_end()) {
                Ok(protocol::Request::Execute { text, schema, .. }) => {
                    replay.prepare_with_schema(&text, &schema).ok()
                }
                _ => None,
            })
            .collect();
        let cache_before = self.wire_cache_stats();
        let mut samples = Samples::default();
        let mut counters = Counters::default();
        let (mut work, mut span, mut output_rows) = (0, 0, 0);
        let end = deadline(seconds * (1.0 - BASELINE_SHARE));
        while Instant::now() < end {
            let conn = &mut self.conns[0];
            t.begin_op();
            let before = Counters::now();
            let replies = t.span("op", |t| {
                if pipelined {
                    t.span("serve.client.batch", |_| conn.round(true))
                } else {
                    let first = t.span("serve.client.bulk_in", |_| conn.round_trip(0));
                    let second = t.span("serve.client.bulk_inout", |_| conn.round_trip(1));
                    first.and_then(|a| Ok(vec![a, second?]))
                }
            });
            counters.add_delta(before, Counters::now());
            samples.attempted += 1;
            let (mut correct, busy) = conn.judge(&replies);
            samples.busy += u64::from(busy);
            if pipelined {
                let ping = t.span("serve.client.ping", |_| conn.round_trip(0));
                correct &= ping.is_ok_and(|reply| reply == conn.verified[0]);
            }
            (work, span, output_rows) = (0, 0, 0);
            t.span("replay", |t| {
                for (request, verified) in conn.requests.iter().zip(&conn.verified) {
                    match layers::replay_request(t, &replay, request.trim_end()) {
                        // A replay that builds another line than the server
                        // sent measures something the server does not do.
                        Some((reply, outcome)) if &reply == verified => {
                            work += outcome.stats.work;
                            span += outcome.stats.span;
                            output_rows += outcome.value.cardinality().unwrap_or(1);
                        }
                        _ => correct = false,
                    }
                }
            });
            samples.failed += u64::from(!correct);
            if replies.is_err() {
                break;
            }
        }
        let cache_after = self.wire_cache_stats();
        let conn = &self.conns[0];
        let (request_bytes, response_bytes) = (conn.request_bytes(), conn.response_bytes());

        let mut owned = Metrics::new();
        // Stages of one replayed request that are not nested in another.
        let stages = [
            "serve.protocol.parse_request",
            "engine.cache_hit",
            "engine.execute",
            "serve.protocol.value_to_json",
            "object.display",
            "serve.protocol.ok_response",
        ];
        if pipelined {
            let per_request: f64 = stages.iter().map(|s| t.call_us(s)).sum();
            let batch = t.op_total_us("serve.client.batch");
            owned.set("engine.cache_hit_us", t.call_us("engine.cache_hit"));
            owned.set("engine.exec.serve_point_us", t.call_us("engine.execute"));
            owned.set("serve.json.parse_point_us", t.call_us("serve.json.parse"));
            owned.set(
                "serve.protocol.parse_request_point_us",
                t.call_us("serve.protocol.parse_request"),
            );
            owned.set(
                "serve.server.point_self_us",
                batch / conn.requests.len() as f64 - per_request,
            );
            let pings = t.durations_us("serve.client.ping");
            owned.set("serve.server.rtt_us", median(&pings).unwrap_or(0.0));
            owned.set(
                "serve.server.p99_us",
                percentile(&pings, 0.99).unwrap_or(0.0),
            );
        } else {
            let per_op: f64 = stages.iter().map(|s| t.op_total_us(s)).sum();
            let parse = t.op_total_us("serve.json.parse");
            let parse_request = t.op_total_us("serve.protocol.parse_request");
            let ok_response = t.op_total_us("serve.protocol.ok_response");
            owned.set("serve.json.parse_mb_per_s", request_bytes as f64 / parse);
            owned.set(
                "serve.json.write_mb_per_s",
                response_bytes as f64 / ok_response,
            );
            owned.set("serve.protocol.parse_request_us", parse_request);
            owned.set("serve.protocol.decode_self_us", parse_request - parse);
            owned.set(
                "serve.protocol.value_to_json_us",
                t.op_total_us("serve.protocol.value_to_json"),
            );
            owned.set("serve.protocol.ok_response_us", ok_response);
            owned.set(
                "object.display_ns_per_row",
                t.op_total_us("object.display") * 1e3 / output_rows.max(1) as f64,
            );
            owned.set("engine.exec.serve_bulk_us", t.op_total_us("engine.execute"));
            owned.set(
                "serve.server.bulk_self_us",
                median(&t.durations_us("op")).unwrap_or(0.0) - per_op,
            );
            owned.set(
                "serve.server.bulk_in_us",
                t.op_total_us("serve.client.bulk_in"),
            );
            owned.set(
                "serve.server.bulk_inout_us",
                t.op_total_us("serve.client.bulk_inout"),
            );
        }

        let mut scoped = scoped_common(t, &samples, untraced.p50_us());
        set_counters(&mut scoped, counters, samples.attempted);
        scoped.set("core.eval.work", work as f64);
        scoped.set("core.eval.span", span as f64);
        scoped.set("core.kernel.site_ratio", site_ratio(&plans));
        let (ratio, evictions) = match (cache_before, cache_after) {
            (Some(b), Some(a)) => (layers::hit_ratio(a.0 - b.0, a.1 - b.1), a.2 - b.2),
            _ => (0.0, 0),
        };
        scoped.set("engine.cache_hit_ratio", ratio);
        scoped.set(
            "engine.cache_evictions",
            evictions as f64 / samples.attempted.max(1) as f64,
        );
        scoped.set("serve.server.request_bytes", request_bytes as f64);
        scoped.set("serve.server.response_bytes", response_bytes as f64);
        Traced {
            owned,
            scoped,
            samples,
        }
    }
}
