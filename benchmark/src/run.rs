//! One run of one workload in this process: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer metrics.

use crate::metrics::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use ncql_serve::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Set-ups per untraced run. Each is timed (`setup_s` is their median, so
/// one slow start does not read as a regression) and each is measured for an
/// equal share of the run, giving five *segments*.
///
/// A run reports the quartile segment on the good side: the second lowest of
/// the five segment medians for `op_p50_us`, the second highest segment rate
/// for `ops_per_s`. Noise on a shared box is one-sided — a busy neighbour
/// only ever slows a segment down — and op time also shifts by a few percent
/// with wherever each set-up's allocator put the relations. The pooled median
/// follows every slow segment; the best segment rewards one lucky placement;
/// the second best of five was the steadiest of the three on the reference
/// box. A change to the code moves every segment, so it moves this too.
const SETUP_REPEATS: usize = 5;

/// Share of a traced run's seconds given to the selected workload; the other
/// four split the rest evenly. Every traced run measures every workload's
/// layers, so each timing in the result is a measurement on every run.
const SELECTED_SHARE: f64 = 0.6;

/// Where traces and result files go, relative to the repository root.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The table the values belong to, and the values in its order.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl RunResult {
    /// The result line of the driver's contract.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(def, value)| {
                let entry = Json::Obj(vec![
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::str(def.unit)),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::num(self.attempted)),
            ("failed".to_string(), Json::num(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run, tracing off: [`SETUP_REPEATS`] times, set the
/// workload up and measure it for an equal share of `seconds`.
pub fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let (mut medians, mut rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let mut running = workloads::set_up(workload, seed)?;
        setups.push(start.elapsed().as_secs_f64());
        let segment = running.measure(seconds / SETUP_REPEATS as f64);
        if segment.latencies_us.is_empty() {
            return Err(format!("{}: no op completed correctly", workload.name()));
        }
        medians.push(segment.p50_us());
        rates.push(segment.ops_per_s());
        attempted += segment.attempted;
        failed += segment.failed;
        // `running` drops here: its server and sockets go before the next start.
    }
    let mut m = Metrics::new();
    m.set("setup_s", median(&setups).unwrap_or(0.0));
    m.set("ops_per_s", percentile(&rates, 0.75).unwrap_or(0.0));
    m.set("op_p50_us", percentile(&medians, 0.25).unwrap_or(0.0));
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.in_order(END_TO_END),
    })
}

/// The traced run: every workload's traced segment, the selected one first
/// and longest. Layer timings come from the workload that owns them; counts
/// and ratios, the trace file and the op counts describe the selected
/// workload, and so does `peak_rss_mb`, read before any other segment runs.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let others = Workload::ALL.into_iter().filter(|w| *w != workload);
    let other_share = (1.0 - SELECTED_SHARE) / (Workload::ALL.len() - 1) as f64;
    let mut m = Metrics::new();
    let mut result = None;
    for segment in std::iter::once(workload).chain(others) {
        let selected = segment == workload;
        let share = if selected {
            SELECTED_SHARE
        } else {
            other_share
        };
        let mut tracer = Tracer::new();
        let mut running = workloads::set_up(segment, seed)?;
        let traced = running.traced(&mut tracer, seconds * share);
        drop(running);
        m.extend(traced.owned);
        // A failure in any segment makes its layer numbers meaningless.
        let correct = traced.samples.failed == 0 && traced.samples.attempted > 0;
        if selected {
            m.extend(traced.scoped);
            m.set("peak_rss_mb", peak_rss_mb());
            write_trace(&tracer, workload, out_dir)?;
            result = Some((correct, traced.samples));
        } else if !correct {
            return Err(format!("{}: a traced op failed", segment.name()));
        }
    }
    let (correct, samples) = result.expect("the selected workload is one of the segments");
    Ok(RunResult {
        correct,
        attempted: samples.attempted,
        failed: samples.failed,
        metrics: m.in_order(PER_LAYER),
    })
}

fn write_trace(tracer: &Tracer, workload: Workload, out_dir: &Path) -> Result<(), String> {
    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer.write_json(workload.name(), &mut out)?;
            out.flush()
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run --smoke` in one process: every workload, both modes, one second
    /// each. One test, because the kernel and columnar counters are
    /// process-wide and the workloads must not overlap.
    #[test]
    fn smoke_every_workload_untraced_and_traced() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("smoke-{}", std::process::id()));
        for workload in Workload::ALL {
            let untraced = run_untraced(workload, 7, 1.0).unwrap();
            assert!(untraced.correct, "{}", workload.name());
            assert!(untraced.attempted >= 1 && untraced.failed == 0);
            assert_eq!(untraced.metrics.len(), END_TO_END.len());
            assert!(
                untraced.metrics.iter().all(|(_, v)| *v > 0.0),
                "{}: an end-to-end metric read 0: {:?}",
                workload.name(),
                untraced.metrics
            );

            let traced = run_traced(workload, 7, 1.0, &out).unwrap();
            assert!(traced.correct, "{}", workload.name());
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            let get = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|(d, _)| d.name == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            // Every timing is measured on every traced run.
            for (def, value) in &traced.metrics {
                if matches!(def.unit, "us" | "ns/row" | "ns/work" | "MB/s" | "x") {
                    assert!(*value != 0.0, "{}: {} read 0", workload.name(), def.name);
                }
            }
            // Workloads hit the layer they claim.
            let (sites, hits) = (get("core.kernel.site_ratio"), get("engine.cache_hit_ratio"));
            match workload {
                Workload::Scan => assert_eq!(sites, 1.0),
                Workload::Nested => assert_eq!(sites, 0.0),
                Workload::Prepare => assert_eq!(hits, 0.0),
                Workload::ServePoint | Workload::ServeBulk => assert_eq!(hits, 1.0),
            }
            assert_eq!(get("error_ratio"), 0.0);
            let trace = out.join(format!("trace-{}.json", workload.name()));
            let text = std::fs::read_to_string(trace).unwrap();
            assert!(ncql_serve::json::parse(&text).is_ok());
        }
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![(END_TO_END[0], 0.25)],
        };
        assert_eq!(
            result.to_json().to_string(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
