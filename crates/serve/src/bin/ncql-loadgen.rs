//! `ncql-loadgen`: concurrent load against an `ncql-served` instance, with a
//! latency-percentile report on stdout (and as JSON in `--out PATH`, when
//! asked).
//!
//! ```text
//! ncql-loadgen [--addr HOST:PORT] [--clients N] [--requests N]
//!              [--deadline-ms MS] [--out PATH]
//! ```
//!
//! Without `--addr` the generator self-hosts: it starts an in-process server
//! (configured from the `NCQL_SERVE_*` environment) and aims the clients at
//! it, which is what the CI smoke leg and quick local runs use. `busy`
//! answers are retried with backoff and counted separately from errors; the
//! process exits non-zero if any request ultimately failed, so "zero errors"
//! is scriptable.

use ncql_engine::SessionBuilder;
use ncql_serve::loadgen::{run_load, LoadConfig};
use ncql_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut config = LoadConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = Some(a),
                None => return usage("--addr needs a HOST:PORT value"),
            },
            "--clients" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.clients = n,
                None => return usage("--clients needs an integer"),
            },
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.requests_per_client = n,
                None => return usage("--requests needs an integer"),
            },
            "--deadline-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => config.deadline_ms = Some(ms),
                None => return usage("--deadline-ms needs an integer"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => return usage("--out needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: ncql-loadgen [--addr HOST:PORT] [--clients N] [--requests N] \
                     [--deadline-ms MS] [--out PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    // Self-host when no address was given; the handle keeps the in-process
    // server alive for the duration of the run.
    let mut self_hosted = None;
    let target: SocketAddr = match addr {
        Some(addr) => match addr.parse() {
            Ok(addr) => addr,
            Err(e) => return usage(&format!("bad --addr `{addr}`: {e}")),
        },
        None => {
            let session = SessionBuilder::from_env().build();
            let server = match Server::bind(ServeConfig::from_env(), session) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("ncql-loadgen: self-host bind failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match server.spawn() {
                Ok(handle) => {
                    let addr = handle.addr();
                    self_hosted = Some(handle);
                    addr
                }
                Err(e) => {
                    eprintln!("ncql-loadgen: self-host spawn failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    eprintln!(
        "ncql-loadgen: {} clients x {} requests against {target}{}",
        config.clients,
        config.requests_per_client,
        if self_hosted.is_some() {
            " (self-hosted)"
        } else {
            ""
        }
    );
    let report = run_load(target, &config);
    if let Some(handle) = self_hosted {
        handle.shutdown();
    }

    println!(
        "ok {} / errors {} / busy retries {} in {:?} ({:.0} req/s)",
        report.ok,
        report.errors,
        report.busy_retries,
        report.elapsed,
        report.throughput_rps()
    );
    println!(
        "latency us: p50 {} / p95 {} / p99 {} / max {} / mean {}",
        report.latency.p50_us,
        report.latency.p95_us,
        report.latency.p99_us,
        report.latency.max_us,
        report.latency.mean_us
    );
    for sample in &report.error_samples {
        eprintln!("ncql-loadgen: error sample: {sample}");
    }

    if let Some(out_path) = out_path {
        if let Err(e) = std::fs::write(&out_path, format!("{}\n", report.to_json())) {
            eprintln!("ncql-loadgen: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("ncql-loadgen: wrote {out_path}");
    }

    if report.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("ncql-loadgen: {problem}");
    eprintln!(
        "usage: ncql-loadgen [--addr HOST:PORT] [--clients N] [--requests N] \
         [--deadline-ms MS] [--out PATH]"
    );
    ExitCode::FAILURE
}
