//! Every call the benchmark makes into a layer's public functions to *replay*
//! a request piece by piece, in one file: a signature change in a crate lands
//! here and nowhere else in the benchmark.
//!
//! The program has no internal spans yet, so after each real call
//! (`Session::prepare_with_schema`, `Session::execute_with_bindings`, a client
//! round trip) the harness re-runs the same input through the per-layer
//! functions below, one span each. The real call's self time is its median
//! minus the medians of these children.

use crate::trace::Tracer;
use ncql_core::analyze_query;
use ncql_core::kernel::analyze_sites;
use ncql_core::rewrite::optimize_analyzed;
use ncql_core::typecheck::{infer, TypeEnv};
use ncql_engine::{Outcome, PreparedQuery, Session};
use ncql_object::{Type, VSet, Value};
use ncql_serve::json::{self, Json};
use ncql_serve::protocol::{self, Request};

/// The front end, stage by stage, in the order `Session::prepare_with_schema`
/// runs it on a cache miss. Returns whether every stage accepted the text.
pub fn replay_prepare(
    t: &mut Tracer,
    session: &Session,
    text: &str,
    schema: &[(String, Type)],
) -> bool {
    let config = session.config();
    if t.span("surface.tokenize", |_| ncql_surface::tokenize(text))
        .is_err()
    {
        return false;
    }
    let Ok(expr) = t.span("surface.parse", |_| ncql_surface::parse(text)) else {
        return false;
    };
    let typed = t.span("core.typecheck.infer", |_| {
        let env = schema.iter().fold(TypeEnv::new(), |env, (name, ty)| {
            env.extend(name.clone(), ty.clone())
        });
        infer(&env, &config.registry, &expr)
    });
    if typed.is_err() {
        return false;
    }
    let analysis = t.span("core.analyze.analyze", |_| {
        analyze_query(&expr, schema, &config.registry)
    });
    let optimized = t.span("core.rewrite.optimize", |_| {
        optimize_analyzed(&expr, schema, config, analysis)
    });
    t.span("core.kernel.sites", |_| {
        analyze_sites(&optimized.expr, &config.registry)
    });
    // The plan stores both the normal form and the optimized form.
    t.span("surface.print", |_| {
        (
            ncql_surface::print_expr(&expr),
            ncql_surface::print_expr(&optimized.expr),
        )
    });
    true
}

/// One served `execute` request, stage by stage, against an in-process
/// session whose plan cache already holds the text. Returns the reply line
/// the stages produce (byte-identical to the server's) and the evaluation's
/// outcome, or `None` if a stage refused the request.
pub fn replay_request(t: &mut Tracer, session: &Session, line: &str) -> Option<(String, Outcome)> {
    t.span("serve.json.parse", |_| json::parse(line)).ok()?;
    let request = t
        .span("serve.protocol.parse_request", |_| {
            protocol::parse_request(line)
        })
        .ok()?;
    let Request::Execute {
        id,
        text,
        schema,
        bindings,
        ..
    } = request
    else {
        return None;
    };
    let query = t
        .span("engine.cache_hit", |_| {
            session.prepare_with_schema(&text, &schema)
        })
        .ok()?;
    let outcome = t
        .span("engine.execute", |_| {
            session.execute_with_bindings(&query, &bindings)
        })
        .ok()?;
    let value = t.span("serve.protocol.value_to_json", |_| {
        protocol::value_to_json(&outcome.value)
    });
    let printed = t.span("object.display", |_| outcome.value.to_string());
    let body = reply_body(value, printed, &query, &outcome);
    let reply = t.span("serve.protocol.ok_response", |_| {
        protocol::ok_response(id, body)
    });
    Some((reply, outcome))
}

/// The `ok` body of an `execute` reply, field for field as the server builds
/// it (its builder is private; a mismatch shows as a replayed reply that
/// differs from the served one, which the workloads check).
fn reply_body(value: Json, printed: String, query: &PreparedQuery, outcome: &Outcome) -> Json {
    let s = &outcome.stats;
    let stats = [
        ("work", s.work),
        ("span", s.span),
        ("combiner_calls", s.combiner_calls),
        ("step_calls", s.step_calls),
        ("ext_calls", s.ext_calls),
        ("sequential_rounds", s.sequential_rounds),
        ("max_set_size", s.max_set_size as u64),
    ];
    Json::Obj(vec![
        ("value".to_string(), value),
        ("printed".to_string(), Json::str(printed)),
        ("type".to_string(), Json::str(query.ty().to_string())),
        (
            "stats".to_string(),
            Json::Obj(
                stats
                    .iter()
                    .map(|&(name, n)| (name.to_string(), Json::num(n)))
                    .collect(),
            ),
        ),
        (
            "backend".to_string(),
            Json::str(outcome.backend.to_string()),
        ),
    ])
}

/// Execute a prepared query inside a span.
pub fn execute(
    t: &mut Tracer,
    span: &'static str,
    session: &Session,
    query: &PreparedQuery,
    bindings: &[(String, Value)],
) -> Result<Outcome, ncql_engine::Error> {
    t.span(span, |_| session.execute_with_bindings(query, bindings))
}

/// The binding check `execute_with_bindings` repeats on every call.
pub fn has_type(t: &mut Tracer, value: &Value, ty: &Type) -> bool {
    t.span("object.has_type", |_| value.has_type(ty))
}

/// Sort-and-deduplicate of unordered rows into a canonical set.
pub fn canonicalize(t: &mut Tracer, rows: Vec<Value>) -> Value {
    t.span("object.canonicalize", |_| Value::set_from(rows))
}

/// Merge of two canonical sets.
pub fn union(t: &mut Tracer, a: &VSet, b: &VSet) -> VSet {
    t.span("object.union", |_| a.union(b))
}

pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Process-wide counters the engine exposes, snapshotted around the real
/// calls of an op so counts are taken at the same boundaries as spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub kernel_ext_hits: u64,
    pub kernel_rows: u64,
    pub kernel_fallbacks: u64,
    pub columnar_promotions: u64,
    pub columnar_demotions: u64,
}

impl Counters {
    pub fn now() -> Counters {
        let k = ncql_engine::kernel_stats();
        let c = ncql_engine::columnar_stats();
        Counters {
            kernel_ext_hits: k.ext_hits,
            kernel_rows: k.rows,
            kernel_fallbacks: k.fallbacks,
            columnar_promotions: c.promotions,
            columnar_demotions: c.demotions,
        }
    }

    /// Add `after − before` to `self`.
    pub fn add_delta(&mut self, before: Counters, after: Counters) {
        self.kernel_ext_hits += after.kernel_ext_hits - before.kernel_ext_hits;
        self.kernel_rows += after.kernel_rows - before.kernel_rows;
        self.kernel_fallbacks += after.kernel_fallbacks - before.kernel_fallbacks;
        self.columnar_promotions += after.columnar_promotions - before.columnar_promotions;
        self.columnar_demotions += after.columnar_demotions - before.columnar_demotions;
    }
}

/// Compiled and total `ext` sites of a prepared plan.
pub fn kernel_sites(query: &PreparedQuery) -> (usize, usize) {
    let sites = query.kernel_sites();
    (sites.iter().filter(|s| s.compiled).count(), sites.len())
}
