//! Result files: writing them from full runs, printing them, comparing two.
//!
//! A result file holds one or more *runs* of the whole benchmark; a run maps
//! workload → mode (`end_to_end` | `per_layer`) → that process's result line.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::spread;
use crate::workloads::Workload;
use ncql_serve::json::{self, Json};

pub const MODES: [(&str, &[MetricDef]); 2] = [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)];

#[derive(Debug, Clone)]
pub struct ResultFile {
    pub fingerprint: Json,
    pub runs: Vec<Json>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::num(1)),
            ("fingerprint".to_string(), self.fingerprint.clone()),
            ("runs".to_string(), Json::Arr(self.runs.clone())),
        ])
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let json = json::parse(text).map_err(|e| e.to_string())?;
        let runs = json
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("no `runs` array")?
            .to_vec();
        Ok(ResultFile {
            fingerprint: json.get("fingerprint").cloned().unwrap_or(Json::Null),
            runs,
        })
    }

    pub fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    fn lines<'a>(&'a self, workload: &'a str, mode: &'a str) -> impl Iterator<Item = &'a Json> {
        self.runs
            .iter()
            .filter_map(move |run| run.get(workload)?.get(mode))
    }

    /// One metric's value in every run that has it.
    pub fn values(&self, workload: &str, mode: &str, metric: &str) -> Vec<f64> {
        self.lines(workload, mode)
            .filter_map(|line| line.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// Failed ÷ attempted ops over every run of a workload, both modes.
    pub fn error_ratio(&self, workload: &str) -> f64 {
        let (mut attempted, mut failed) = (0, 0);
        for (mode, _) in MODES {
            for line in self.lines(workload, mode) {
                attempted += line.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                failed += line.get("failed").and_then(Json::as_u64).unwrap_or(0);
            }
        }
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    }

    /// Ops attempted per run of a workload's end-to-end mode: the sample
    /// count behind its percentiles.
    fn samples(&self, workload: &str) -> Vec<u64> {
        self.lines(workload, "end_to_end")
            .filter_map(|line| line.get("attempted")?.as_u64())
            .collect()
    }
}

/// Every metric of every workload by name, with its unit: min, median, max
/// and spread over the file's runs (all equal for a single run).
pub fn print_table(file: &ResultFile) {
    println!("fingerprint {}", file.fingerprint);
    println!(
        "{:<12} {:<40} {:>7} {:>3} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "unit", "n", "min", "median", "max", "spread"
    );
    for workload in Workload::ALL.map(Workload::name) {
        println!(
            "{workload:<12} ops per run (sample count of the percentiles): {:?}; error_ratio {}",
            file.samples(workload),
            file.error_ratio(workload)
        );
        for (mode, table) in MODES {
            for def in table {
                let values = file.values(workload, mode, def.name);
                let Some(s) = spread(&values) else { continue };
                println!(
                    "{workload:<12} {:<40} {:>7} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.1}%",
                    def.name,
                    def.unit,
                    values.len(),
                    s.min,
                    s.median,
                    s.max,
                    s.ratio * 100.0
                );
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate runs `b` against base runs `a` of one gated metric.
///
/// `worse`: the candidate's median is worse than the base's by more than
/// `bound` (a share of the base median). Otherwise, when either side's
/// run-to-run spread is wider than the bound, the runs cannot show "no
/// change": `better` only if every candidate run beats every base run, else
/// `unresolved`. Otherwise `better` when the median improved by more than the
/// bound, else `within bound`.
pub fn judge(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Option<(f64, Verdict)> {
    let (sa, sb) = (spread(a)?, spread(b)?);
    if sa.median == 0.0 {
        return None;
    }
    let ratio = sb.median / sa.median;
    let worsening = if def.higher_is_better {
        1.0 - ratio
    } else {
        ratio - 1.0
    };
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if sa.ratio > bound || sb.ratio > bound {
        let every_run_better = if def.higher_is_better {
            sb.min > sa.max
        } else {
            sb.max < sa.min
        };
        if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if -worsening > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Some((ratio, verdict))
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let json = json::parse(benchmark_json).map_err(|e| e.to_string())?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no `end_to_end` array")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Print one row per metric × workload (median of each side, ratio with `a`
/// as its base, verdict) and return whether the candidate passes: no `worse`
/// row and no rise in any workload's error ratio. Per-layer metrics have no
/// bound and get no verdict, except that exact counts are marked when they
/// differ.
pub fn compare(a: &ResultFile, b: &ResultFile, bounds: &[(String, f64)]) -> bool {
    let mut pass = true;
    println!(
        "{:<12} {:<40} {:>7} {:>14} {:>14} {:>9}  verdict (ratio = candidate / base)",
        "workload", "metric", "unit", "base", "candidate", "ratio"
    );
    for workload in Workload::ALL.map(Workload::name) {
        let (ea, eb) = (a.error_ratio(workload), b.error_ratio(workload));
        if eb > ea {
            pass = false;
        }
        let errors = if eb > ea { "worse" } else { "within bound" };
        println!(
            "{workload:<12} {:<40} {:>7} {ea:>14.6} {eb:>14.6} {:>9}  {errors}",
            "error_ratio", "ratio", "-"
        );
        for (mode, table) in MODES {
            for def in table {
                let va = a.values(workload, mode, def.name);
                let vb = b.values(workload, mode, def.name);
                let (Some(sa), Some(sb)) = (spread(&va), spread(&vb)) else {
                    continue;
                };
                let bound = bounds.iter().find(|(n, _)| n == def.name).map(|(_, b)| *b);
                let (ratio, verdict) = match bound.and_then(|bd| judge(def, bd, &va, &vb)) {
                    Some((ratio, verdict)) => {
                        pass &= verdict != Verdict::Worse;
                        (ratio, verdict.label())
                    }
                    None if def.unit == "count" || def.unit == "bytes" => (
                        sb.median / sa.median,
                        if va == vb {
                            "same count"
                        } else {
                            "count differs"
                        },
                    ),
                    None => (sb.median / sa.median, "not gated"),
                };
                // 0 / 0: both sides read 0, there is no ratio to show.
                let ratio = if ratio.is_nan() {
                    "-".to_string()
                } else {
                    format!("{ratio:.4}")
                };
                println!(
                    "{workload:<12} {:<40} {:>7} {:>14.4} {:>14.4} {ratio:>9}  {verdict}",
                    def.name, def.unit, sa.median, sb.median
                );
            }
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = END_TO_END[2]; // op_p50_us
    const HIGHER: MetricDef = END_TO_END[1]; // ops_per_s

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let v = |a: &[f64], b: &[f64]| judge(&LOWER, 0.10, a, b).unwrap().1;
        assert_eq!(v(&[100.0], &[105.0]), Verdict::WithinBound);
        assert_eq!(v(&[100.0], &[111.0]), Verdict::Worse);
        assert_eq!(v(&[100.0], &[85.0]), Verdict::Better);
        // Noisy base: a small change cannot be called unchanged...
        assert_eq!(
            v(&[90.0, 100.0, 115.0], &[95.0, 104.0, 99.0]),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every base run.
        assert_eq!(
            v(&[90.0, 100.0, 115.0], &[80.0, 85.0, 89.0]),
            Verdict::Better
        );
        // A median worse by more than the bound is worse however noisy.
        assert_eq!(
            v(&[90.0, 100.0, 115.0], &[120.0, 125.0, 130.0]),
            Verdict::Worse
        );
        // Direction flips for higher-is-better metrics.
        let (ratio, verdict) = judge(&HIGHER, 0.10, &[100.0], &[80.0]).unwrap();
        assert_eq!((ratio, verdict), (0.8, Verdict::Worse));
        assert_eq!(
            judge(&HIGHER, 0.10, &[100.0], &[120.0]).unwrap().1,
            Verdict::Better
        );
    }

    fn file(p50: f64, failed: u64) -> ResultFile {
        let text = format!(
            "{{\"schema\":1,\"fingerprint\":null,\"runs\":[{{\"scan\":{{\"end_to_end\":\
             {{\"correct\":true,\"attempted\":100,\"failed\":{failed},\"metrics\":\
             {{\"op_p50_us\":{{\"value\":{p50},\"unit\":\"us\"}}}}}}}}}}]}}"
        );
        ResultFile::parse(&text).unwrap()
    }

    #[test]
    fn compare_fails_on_a_regression_or_a_rise_in_errors() {
        let bounds = vec![("op_p50_us".to_string(), 0.10)];
        assert!(compare(&file(100.0, 0), &file(104.0, 0), &bounds));
        assert!(!compare(&file(100.0, 0), &file(120.0, 0), &bounds));
        assert!(!compare(&file(100.0, 0), &file(100.0, 1), &bounds));
        assert!(compare(&file(100.0, 1), &file(100.0, 1), &bounds));
    }

    #[test]
    fn result_files_round_trip() {
        let f = file(12.5, 0);
        let again = ResultFile::parse(&f.to_json().to_string()).unwrap();
        assert_eq!(again.values("scan", "end_to_end", "op_p50_us"), vec![12.5]);
        assert_eq!(again.error_ratio("scan"), 0.0);
        assert_eq!(again.samples("scan"), vec![100]);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let text =
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;
        assert_eq!(bounds(text).unwrap(), vec![("setup_s".to_string(), 0.25)]);
        assert!(bounds("{}").is_err());
    }
}
