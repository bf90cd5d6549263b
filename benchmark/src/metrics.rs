//! The metric tables: every name the benchmark reports, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a unit test compares).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; measured with tracing off, on every
/// workload. Two candidates are not here. `error_ratio` must be 0 and a gated
/// metric may not read 0: it is carried by the `attempted` / `failed` counts
/// of every run. `op_p90_us` and `peak_rss_mb` were not steady enough on the
/// reference box to gate (see the README): they are reported, ungated, with
/// the per-layer metrics.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("op_p50_us", "us"),
];

/// Single-layer numbers from the traced run. Times, rates and speed-ups are
/// owned by one workload's traced segment and measured in every traced run;
/// counts and ratios (the second block) describe the selected workload only.
pub const PER_LAYER: &[MetricDef] = &[
    lower("surface.tokenize_us", "us"),
    lower("surface.parse_us", "us"),
    lower("surface.print_us", "us"),
    lower("core.typecheck.infer_us", "us"),
    lower("core.analyze.analyze_us", "us"),
    lower("core.rewrite.optimize_us", "us"),
    lower("core.kernel.sites_us", "us"),
    lower("core.kernel.ns_per_row", "ns/row"),
    higher("core.kernel.speedup", "x"),
    lower("core.eval.ns_per_row", "ns/row"),
    lower("core.eval.ns_per_work", "ns/work"),
    higher("pram.speedup_join", "x"),
    higher("pram.speedup_agg_sum", "x"),
    higher("pram.speedup_tc", "x"),
    lower("object.canonicalize_ns_per_row", "ns/row"),
    lower("object.union_ns_per_row", "ns/row"),
    lower("object.has_type_ns_per_row", "ns/row"),
    lower("object.display_ns_per_row", "ns/row"),
    lower("engine.exec.filter_rare_us", "us"),
    lower("engine.exec.filter_project_us", "us"),
    lower("engine.exec.project_swap_us", "us"),
    lower("engine.exec.join_us", "us"),
    lower("engine.exec.agg_sum_us", "us"),
    lower("engine.exec.tc_us", "us"),
    lower("engine.exec.serve_point_us", "us"),
    lower("engine.exec.serve_bulk_us", "us"),
    lower("engine.prepare_cold_us", "us"),
    lower("engine.prepare_self_us", "us"),
    lower("engine.cache_hit_us", "us"),
    higher("serve.json.parse_mb_per_s", "MB/s"),
    higher("serve.json.write_mb_per_s", "MB/s"),
    lower("serve.json.parse_point_us", "us"),
    lower("serve.protocol.parse_request_us", "us"),
    lower("serve.protocol.decode_self_us", "us"),
    lower("serve.protocol.value_to_json_us", "us"),
    lower("serve.protocol.ok_response_us", "us"),
    lower("serve.protocol.parse_request_point_us", "us"),
    lower("serve.server.point_self_us", "us"),
    lower("serve.server.bulk_self_us", "us"),
    lower("serve.server.rtt_us", "us"),
    lower("serve.server.p99_us", "us"),
    lower("serve.server.bulk_in_us", "us"),
    lower("serve.server.bulk_inout_us", "us"),
    // Counts and ratios of the selected workload, per op.
    higher("core.rewrite.fired", "count"),
    higher("core.kernel.site_ratio", "ratio"),
    higher("core.kernel.ext_hits", "count"),
    higher("core.kernel.rows", "count"),
    lower("core.kernel.fallbacks", "count"),
    lower("core.eval.work", "count"),
    lower("core.eval.span", "count"),
    higher("object.columnar_promotions", "count"),
    lower("object.columnar_demotions", "count"),
    higher("engine.cache_hit_ratio", "ratio"),
    lower("engine.cache_evictions", "count"),
    lower("serve.server.busy", "count"),
    lower("serve.server.request_bytes", "bytes"),
    lower("serve.server.response_bytes", "bytes"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.spans", "count"),
    lower("error_ratio", "ratio"),
    // Demoted end-to-end candidates, of the selected workload's traced ops.
    lower("op_p90_us", "us"),
    lower("peak_rss_mb", "MB"),
];

/// Metric values by name. Setting a name that is in neither table is a bug.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not in the tables"
        );
        // A ratio over an empty sample must not poison the JSON line.
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The values of `table` in table order; panics on a metric never set,
    /// which would otherwise surface as a refused result line.
    pub fn in_order(&self, table: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        table
            .iter()
            .map(|def| {
                let value = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric `{}` was never measured", def.name));
                (*def, value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_serve::json::{self, Json};

    /// `BENCHMARK.json` sits one directory above this package.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable")).unwrap()
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("`{key}` is an array"))
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_tables_define() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), table(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
