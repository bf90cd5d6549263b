//! `ncql-benchmark`: open prepared queries over bound relations, in process
//! and over TCP, with a per-layer trace. See `benchmark/README.md`.
//!
//! ```text
//! ncql-benchmark run --workload W --seed N --seconds S --trace 0|1   one run, one process
//! ncql-benchmark run [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! ncql-benchmark repeat N [same options]                              N full runs, spreads
//! ncql-benchmark compare BASE.json CANDIDATE.json                     gate on BENCHMARK.json
//! ```

mod data;
mod layers;
mod metrics;
mod pack;
mod reference;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use ncql_serve::json::{self, Json};
use report::ResultFile;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const DEFAULT_SEED: u64 = 1994;
/// Seconds one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: both modes (full runs only).
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            options.seconds = SMOKE_SECONDS;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => options.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds > 0.0 && options.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => options.out = Some(value.clone()),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(options)
}

/// One workload in this process. Prints every metric by name with its unit,
/// then the result line; fails on any incorrect op.
fn run_one(workload: Workload, options: &Options) -> Result<(), String> {
    let result = if options.trace == Some(true) {
        run::run_traced(
            workload,
            options.seed,
            options.seconds,
            Path::new(run::OUT_DIR),
        )
    } else {
        run::run_untraced(workload, options.seed, options.seconds)
    }?;
    println!(
        "{} seed {} seconds {}: {} ops, {} failed",
        workload.name(),
        options.seed,
        options.seconds,
        result.attempted,
        result.failed
    );
    for (def, value) in &result.metrics {
        println!("  {:<40} {value:>16.4} {}", def.name, def.unit);
    }
    println!("{}", result.to_json());
    if result.correct {
        Ok(())
    } else {
        Err(format!(
            "{}: {} of {} ops failed verification",
            workload.name(),
            result.failed,
            result.attempted
        ))
    }
}

/// Run one workload in a child process (so peak memory and the process-wide
/// counters are the workload's own) and return its result line.
fn run_child(workload: Workload, options: &Options, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    match json::parse(line) {
        Ok(json) if output.status.success() => Ok(json),
        _ => Err(format!(
            "{} (trace {}) failed: {}",
            workload.name(),
            u8::from(trace),
            line
        )),
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were measured: needed to read any of them.
fn fingerprint(options: &Options) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::Obj(vec![
        ("nproc".to_string(), Json::num(nproc)),
        ("cpu".to_string(), Json::str(cpu)),
        (
            "rustc".to_string(),
            Json::str(command_line("rustc", &["-V"])),
        ),
        (
            "git_sha".to_string(),
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".to_string(), Json::num(options.seed)),
        ("seconds".to_string(), Json::Num(options.seconds)),
    ])
}

/// `runs` full runs of the benchmark: each workload in its own process,
/// untraced then traced (or only the mode `--trace` names). Writes the
/// result file, prints the table.
fn run_full(runs: usize, options: &Options) -> Result<(), String> {
    let mut file = ResultFile {
        fingerprint: fingerprint(options),
        runs: Vec::new(),
    };
    for run in 1..=runs {
        let mut by_workload = Vec::new();
        for workload in Workload::ALL {
            let mut by_mode = Vec::new();
            for (mode, trace) in [("end_to_end", false), ("per_layer", true)] {
                if options.trace.is_some_and(|only| only != trace) {
                    continue;
                }
                eprintln!("run {run}/{runs}: {} {mode}", workload.name());
                by_mode.push((mode.to_string(), run_child(workload, options, trace)?));
            }
            by_workload.push((workload.name().to_string(), Json::Obj(by_mode)));
        }
        file.runs.push(Json::Obj(by_workload));
    }
    let path = options.out.clone().unwrap_or_else(|| {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        format!("{}/run-{stamp}.json", run::OUT_DIR)
    });
    if let Some(dir) = Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_json().to_string()).map_err(|e| format!("{path}: {e}"))?;
    report::print_table(&file);
    println!("wrote {path}");
    Ok(())
}

fn compare(base: &str, candidate: &str) -> Result<(), String> {
    let benchmark_json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = report::bounds(&benchmark_json)?;
    let pass = report::compare(
        &ResultFile::load(base)?,
        &ResultFile::load(candidate)?,
        &bounds,
    );
    if pass {
        Ok(())
    } else {
        Err("a metric is worse than its bound allows, or errors rose".to_string())
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: ncql-benchmark run|repeat N|compare BASE CANDIDATE [options]";
    match args.split_first() {
        Some((command, rest)) if command == "run" => {
            let options = parse_options(rest)?;
            match options.workload {
                Some(workload) => run_one(workload, &options),
                None => run_full(1, &options),
            }
        }
        Some((command, rest)) if command == "repeat" => {
            let (runs, rest) = rest.split_first().ok_or(USAGE)?;
            let runs: usize = runs.parse().map_err(|_| USAGE)?;
            let options = parse_options(rest)?;
            if options.workload.is_some() || runs == 0 {
                return Err(USAGE.to_string());
            }
            run_full(runs, &options)
        }
        Some((command, [base, candidate])) if command == "compare" => compare(base, candidate),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ncql-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let options = parse_options(&args(&[
            "--workload",
            "serve_bulk",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(options.workload, Some(Workload::ServeBulk));
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (42, 15.0, Some(true))
        );
    }

    #[test]
    fn defaults_smoke_and_bad_input() {
        let defaults = parse_options(&[]).unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds),
            (DEFAULT_SEED, DEFAULT_SECONDS)
        );
        assert_eq!(defaults.trace, None);
        assert_eq!(
            parse_options(&args(&["--smoke"])).unwrap().seconds,
            SMOKE_SECONDS
        );
        assert!(parse_options(&args(&["--workload", "nope"])).is_err());
        assert!(parse_options(&args(&["--trace", "2"])).is_err());
        assert!(parse_options(&args(&["--seconds", "0"])).is_err());
        assert!(parse_options(&args(&["--seed"])).is_err());
        assert!(dispatch(&args(&["repeat", "0"])).is_err());
        assert!(dispatch(&args(&["compare", "only-one.json"])).is_err());
    }
}
