//! `ncql-served`: serve NC queries over TCP.
//!
//! ```text
//! ncql-served [--addr HOST:PORT] [--max-inflight N] [--deadline-ms MS]
//! ```
//!
//! Every knob also has an `NCQL_SERVE_*` environment override (flags win),
//! and the session is configured by `SessionBuilder::from_env` like every
//! other entry point in the workspace. The README's "Environment variables"
//! table lists all of them; `tests/arch_lint.rs` keeps it complete.
//!
//! The bound address is printed to stdout as `listening on ADDR` once the
//! listener is up (bind to port 0 to let the OS pick), so harnesses can
//! scrape it.

use ncql_engine::SessionBuilder;
use ncql_serve::{ServeConfig, Server};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut config = ServeConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => return usage("--addr needs a HOST:PORT value"),
            },
            "--max-inflight" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.max_inflight = n,
                None => return usage("--max-inflight needs an integer"),
            },
            "--deadline-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => config.default_deadline_ms = ms,
                None => return usage("--deadline-ms needs an integer"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: ncql-served [--addr HOST:PORT] [--max-inflight N] [--deadline-ms MS]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    let session = SessionBuilder::from_env().build();
    eprintln!(
        "ncql-served: backend {}, max inflight {}, default deadline {}ms",
        session.backend(),
        config.max_inflight,
        config.default_deadline_ms
    );
    let server = match Server::bind(config, session) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ncql-served: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("ncql-served: no local address: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.run() {
        eprintln!("ncql-served: accept loop failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("ncql-served: {problem}");
    eprintln!("usage: ncql-served [--addr HOST:PORT] [--max-inflight N] [--deadline-ms MS]");
    ExitCode::FAILURE
}
