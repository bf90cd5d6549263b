//! Concurrency stress: many simultaneous wire clients against one server
//! must get, for every entry of the open query pack (`common::pack`), the
//! value and the `stats.work` that direct `Session` execution of the same
//! text over the same bindings produces — evaluated results, not folded
//! constants. The server must also absorb overload through typed `busy`
//! answers without deadlocking (including at pool width 1 — the
//! `NCQL_TEST_PARALLELISM=1` CI leg), and cancel an over-deadline query while
//! the rest of the in-flight traffic completes.
//!
//! On the `NCQL_TEST_PARALLELISM=4` leg every pack entry forks onto the
//! shared session's pool (the suite's cutoff is 1, so a region forks whenever
//! the pool's thread budget has a worker to lend): `ext/swap_off_diagonal`
//! shards its 96 columnar rows across kernel workers, `ext/join` forks the
//! outer element map over `edges` (and inner ones while budget remains),
//! `dcr/count` forks its leaf map and combines in log-depth pool rounds.

mod common;

use common::{expensive_query, pack, PackEntry};
use ncql_core::parallelism_from_env;
use ncql_engine::SessionBuilder;
use ncql_object::Value;
use ncql_serve::protocol::code;
use ncql_serve::{Client, ExecuteParams, ServeConfig, Server, ServerHandle, WireOutcome};
use std::time::Duration;

/// The suite's session builder: backend from `NCQL_TEST_PARALLELISM` (the
/// same idiom as the differential suites), cutover 1 so parallel legs fork.
fn builder() -> SessionBuilder {
    SessionBuilder::new()
        .parallelism(parallelism_from_env())
        .parallel_cutoff(1)
}

fn serve(config: ServeConfig) -> ServerHandle {
    Server::bind(config, builder().build())
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// Execute a pack entry over the wire, absorbing `busy` answers by retrying.
/// Panics after an implausible number of retries — that would be the
/// deadlock this suite exists to rule out.
fn execute_retrying(client: &mut Client, entry: &PackEntry) -> WireOutcome {
    for _ in 0..10_000 {
        match client.execute_with(entry.text, &entry.params()) {
            Ok(outcome) => return outcome,
            Err(e) if e.code() == Some(code::BUSY) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("wire execution of {} failed: {e}", entry.name),
        }
    }
    panic!(
        "{} starved: 10k busy answers in a row looks like livelock",
        entry.name
    );
}

/// Direct execution of every pack entry on a session configured like the
/// server's: the `(value, stats.work)` each wire answer must reproduce.
fn expected() -> Vec<(Value, u64)> {
    let local = builder().build();
    pack()
        .iter()
        .map(|entry| {
            let outcome = entry.run_direct(&local);
            (outcome.value, outcome.stats.work)
        })
        .collect()
}

#[test]
fn sixty_four_concurrent_clients_match_direct_execution_bit_for_bit() {
    let pack = pack();
    let expected = expected();

    // max_inflight far below the client count so admission control is
    // genuinely contended, not just present.
    let handle = serve(ServeConfig {
        max_inflight: 8,
        admission_timeout_ms: 5,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    const CLIENTS: usize = 64;
    const REQUESTS_PER_CLIENT: usize = 8;
    std::thread::scope(|scope| {
        let expected = &expected;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for request_index in 0..REQUESTS_PER_CLIENT {
                        let pick = (client_index + request_index) % pack.len();
                        let outcome = execute_retrying(&mut client, &pack[pick]);
                        assert_eq!(
                            (outcome.value, outcome.stats.work),
                            expected[pick],
                            "client {client_index} got a different (value, work) for {}",
                            pack[pick].name
                        );
                    }
                    client.close().expect("close");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });
    handle.shutdown();
}

#[test]
fn admission_width_one_never_deadlocks() {
    // The tightest possible admission window: one evaluation at a time, with
    // a 1ms acquire timeout, hammered by 16 clients. Every request must
    // eventually complete via busy-retry — if a permit ever leaked, this
    // would livelock and trip the retry bound.
    let handle = serve(ServeConfig {
        max_inflight: 1,
        admission_timeout_ms: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let pack = pack();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for request_index in 0..6 {
                        let pick = (client_index + request_index) % pack.len();
                        execute_retrying(&mut client, &pack[pick]);
                    }
                    client.close().expect("close");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });
    handle.shutdown();
}

#[test]
fn a_cancelled_deadline_does_not_disturb_other_in_flight_clients() {
    let handle = serve(ServeConfig::default());
    let addr = handle.addr();
    let pack = pack();
    let expected = expected();

    std::thread::scope(|scope| {
        // One slow client: an expensive query under a 1ms deadline, walked up
        // a size ladder until the deadline genuinely fires mid-evaluation.
        let slow = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            for n in [48usize, 64, 96, 128] {
                let text = expensive_query(n);
                match client.execute_with(
                    &text,
                    &ExecuteParams {
                        deadline_ms: Some(1),
                        ..Default::default()
                    },
                ) {
                    Ok(_) => continue,
                    Err(e) => {
                        let diag = e.remote().expect("typed error").clone();
                        assert_eq!(diag.code, code::DEADLINE);
                        client.close().expect("close");
                        return;
                    }
                }
            }
            panic!("no ladder size exceeded a 1ms deadline");
        });

        // Eight fast clients running the pack at the same time: all must
        // succeed with correct values while the slow query is cancelled.
        let fast: Vec<_> = (0..8)
            .map(|client_index| {
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for request_index in 0..6 {
                        let pick = (client_index + request_index) % pack.len();
                        let outcome = execute_retrying(&mut client, &pack[pick]);
                        assert_eq!(outcome.value, expected[pick].0, "{}", pack[pick].name);
                    }
                    client.close().expect("close");
                })
            })
            .collect();

        for h in fast {
            h.join().expect("fast client panicked");
        }
        slow.join().expect("slow client panicked");
    });
    handle.shutdown();
}
