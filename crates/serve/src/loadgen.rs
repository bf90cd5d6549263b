//! Concurrent load generation against a running server, with latency
//! percentiles.
//!
//! The machinery lives in the library (rather than the `ncql-loadgen` binary)
//! so the bench harness can drive the same measurement in-process and the
//! stress tests can reuse the retry-on-`busy` discipline. `busy` answers are
//! flow control, not failures: the client backs off briefly and retries, and
//! the report counts retries separately from errors.

use crate::client::{Client, ClientError};
use crate::corpus::CORPUS;
use crate::json::Json;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client issues (excluding `busy` retries).
    pub requests_per_client: usize,
    /// Per-request deadline to ask the server for (`None` = server default).
    pub deadline_ms: Option<u64>,
    /// How many times one request may be retried after `busy` before it is
    /// counted as an error.
    pub max_busy_retries: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 8,
            requests_per_client: 50,
            deadline_ms: None,
            max_busy_retries: 1000,
        }
    }
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: u64,
}

impl Percentiles {
    /// Compute percentiles from raw per-request latencies, using the
    /// ceil-based nearest-rank definition: the q-th percentile is the
    /// smallest observation with at least `⌈q·n⌉` observations at or below
    /// it. (A rounded `(n−1)·q` index understates high percentiles at low
    /// sample counts — e.g. p99 of 100 samples would land on the 99th value
    /// instead of the 100th.) The mean rounds to the nearest microsecond
    /// instead of truncating.
    pub fn from_latencies(latencies: &mut [u64]) -> Percentiles {
        if latencies.is_empty() {
            return Percentiles::default();
        }
        latencies.sort_unstable();
        let n = latencies.len();
        let at = |q: f64| {
            let rank = (q * n as f64).ceil() as usize;
            latencies[rank.clamp(1, n) - 1]
        };
        let sum: u64 = latencies.iter().sum();
        Percentiles {
            p50_us: at(0.50),
            p95_us: at(0.95),
            p99_us: at(0.99),
            max_us: *latencies.last().expect("non-empty"),
            mean_us: (sum + n as u64 / 2) / n as u64,
        }
    }
}

/// The outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent clients used.
    pub clients: usize,
    /// Requests that completed successfully.
    pub ok: u64,
    /// Total `busy` answers absorbed by retrying.
    pub busy_retries: u64,
    /// Requests that failed (transport, protocol, or typed server errors
    /// other than absorbed `busy`).
    pub errors: u64,
    /// Up to five sample error messages, for diagnosis.
    pub error_samples: Vec<String>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Latency percentiles over successful requests.
    pub latency: Percentiles,
}

impl LoadReport {
    /// Successful requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ok as f64 / secs
        }
    }

    /// The report as a JSON object (what `ncql-loadgen --out PATH` writes).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("clients".to_string(), Json::num(self.clients as u64)),
            ("ok".to_string(), Json::num(self.ok)),
            ("busy_retries".to_string(), Json::num(self.busy_retries)),
            ("errors".to_string(), Json::num(self.errors)),
            (
                "error_samples".to_string(),
                Json::Arr(self.error_samples.iter().map(Json::str).collect()),
            ),
            (
                "elapsed_ms".to_string(),
                Json::num(self.elapsed.as_millis() as u64),
            ),
            (
                "throughput_rps".to_string(),
                Json::Num(self.throughput_rps()),
            ),
            (
                "latency_us".to_string(),
                Json::Obj(vec![
                    ("p50".to_string(), Json::num(self.latency.p50_us)),
                    ("p95".to_string(), Json::num(self.latency.p95_us)),
                    ("p99".to_string(), Json::num(self.latency.p99_us)),
                    ("max".to_string(), Json::num(self.latency.max_us)),
                    ("mean".to_string(), Json::num(self.latency.mean_us)),
                ]),
            ),
        ])
    }
}

struct ClientTally {
    ok: u64,
    busy_retries: u64,
    errors: u64,
    error_samples: Vec<String>,
    latencies_us: Vec<u64>,
}

/// Run `config.clients` concurrent clients against `addr`, each issuing
/// `config.requests_per_client` requests round-robined over the
/// [`CORPUS`], and collect the merged report.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|client_index| scope.spawn(move || run_client(addr, client_index, config)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });

    let mut merged = ClientTally {
        ok: 0,
        busy_retries: 0,
        errors: 0,
        error_samples: Vec::new(),
        latencies_us: Vec::new(),
    };
    for tally in tallies {
        merged.ok += tally.ok;
        merged.busy_retries += tally.busy_retries;
        merged.errors += tally.errors;
        for sample in tally.error_samples {
            if merged.error_samples.len() < 5 {
                merged.error_samples.push(sample);
            }
        }
        merged.latencies_us.extend(tally.latencies_us);
    }
    LoadReport {
        clients: config.clients,
        ok: merged.ok,
        busy_retries: merged.busy_retries,
        errors: merged.errors,
        error_samples: merged.error_samples,
        elapsed: started.elapsed(),
        latency: Percentiles::from_latencies(&mut merged.latencies_us),
    }
}

fn run_client(addr: SocketAddr, client_index: usize, config: &LoadConfig) -> ClientTally {
    let mut tally = ClientTally {
        ok: 0,
        busy_retries: 0,
        errors: 0,
        error_samples: Vec::new(),
        latencies_us: Vec::new(),
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            tally.errors = config.requests_per_client as u64;
            tally.error_samples.push(format!("connect: {e}"));
            return tally;
        }
    };
    let params = crate::client::ExecuteParams {
        deadline_ms: config.deadline_ms,
        ..Default::default()
    };
    for request_index in 0..config.requests_per_client {
        // Offset by client id so concurrent clients overlap on *different*
        // corpus entries — more plan-cache sharing patterns, not fewer.
        let query = CORPUS[(client_index + request_index) % CORPUS.len()];
        let mut retries = 0usize;
        loop {
            let started = Instant::now();
            match client.execute_with(query.text, &params) {
                Ok(_) => {
                    tally
                        .latencies_us
                        .push(started.elapsed().as_micros() as u64);
                    tally.ok += 1;
                    break;
                }
                Err(e) if e.code() == Some(crate::protocol::code::BUSY) => {
                    tally.busy_retries += 1;
                    retries += 1;
                    if retries > config.max_busy_retries {
                        tally.errors += 1;
                        if tally.error_samples.len() < 5 {
                            tally
                                .error_samples
                                .push(format!("{}: busy retries exhausted", query.name));
                        }
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    tally.errors += 1;
                    if tally.error_samples.len() < 5 {
                        tally.error_samples.push(format!("{}: {e}", query.name));
                    }
                    // A transport error kills the connection; reconnect so
                    // the remaining requests still run.
                    if matches!(e, ClientError::Io(_)) {
                        match Client::connect(addr) {
                            Ok(fresh) => client = fresh,
                            Err(_) => return tally,
                        }
                    }
                    break;
                }
            }
        }
    }
    let _ = client.close();
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_distribution() {
        let mut latencies: Vec<u64> = (1..=100).collect();
        let p = Percentiles::from_latencies(&mut latencies);
        // Ceil-based nearest rank: p_q = value at rank ⌈q·n⌉.
        assert_eq!(p.p50_us, 50); // ⌈0.50·100⌉ = rank 50 -> value 50
        assert_eq!(p.p95_us, 95); // ⌈0.95·100⌉ = rank 95 -> value 95
        assert_eq!(p.p99_us, 99); // ⌈0.99·100⌉ = rank 99 -> value 99
        assert_eq!(p.max_us, 100);
        assert_eq!(p.mean_us, 51); // mean 50.5 rounds up, not truncates
                                   // Low sample counts are where the old round((n−1)·q) index overstated
                                   // percentile coverage: p99 of 10 samples must be the maximum.
        let mut ten: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        let p = Percentiles::from_latencies(&mut ten);
        assert_eq!(p.p50_us, 500);
        assert_eq!(p.p95_us, 1000);
        assert_eq!(p.p99_us, 1000);
        // A single sample is every percentile.
        let p = Percentiles::from_latencies(&mut [7]);
        assert_eq!((p.p50_us, p.p99_us, p.max_us, p.mean_us), (7, 7, 7, 7));
    }

    #[test]
    fn empty_latencies_yield_zeroes() {
        let p = Percentiles::from_latencies(&mut Vec::new());
        assert_eq!(p, Percentiles::default());
    }
}
