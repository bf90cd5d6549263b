//! Graph analytics with the NC query language: transitive closure, reachability
//! and connectivity over generated graphs, comparing the divide-and-conquer
//! (NC-style) and element-by-element (PTIME-style) evaluation strategies, and
//! running the dcr combining tree on the parallel evaluation backend — all
//! through the engine's `Session` API, on the texts of the query pack.
//!
//! Run with: `cargo run --example graph_analytics --release`

use ncql::object::Value;
use ncql::queries::{datagen, pack};
use ncql::{Outcome, PreparedQuery, Session, SessionBuilder};
use std::time::Instant;

/// The pack text `name`, prepared on `session` against its header's schema.
fn prepare(session: &Session, name: &str) -> PreparedQuery {
    let query = pack::query(name).expect("in the pack");
    session
        .prepare_with_schema(query.text, &query.schema)
        .expect("the pack text typechecks")
}

/// `plan` run over the graph `r` (and `start`, when given).
fn run(session: &Session, plan: &PreparedQuery, r: Value, start: Option<u64>) -> Outcome {
    let mut bindings = vec![("r".to_string(), r)];
    bindings.extend(start.map(|s| ("start".to_string(), Value::Atom(s))));
    session
        .execute_with_bindings(plan, &bindings)
        .expect("the query evaluates")
}

fn main() {
    let session = Session::new();
    let tc_dcr = prepare(&session, "graph/tc_dcr");
    let tc_elementwise = prepare(&session, "graph/tc_elementwise");

    println!("n     dcr span   elementwise span   dcr work   elementwise work");
    for n in [8u64, 16, 32, 48] {
        let rel = datagen::random_graph(n, 2.0 / n as f64, 42);
        let dcr = run(&session, &tc_dcr, rel.to_value(), None);
        let elem = run(&session, &tc_elementwise, rel.to_value(), None);
        assert_eq!(
            dcr.value, elem.value,
            "both strategies compute the same closure"
        );
        assert_eq!(dcr.value, rel.transitive_closure().to_value());
        println!(
            "{:<5} {:<10} {:<18} {:<10} {:<10}",
            n, dcr.stats.span, elem.stats.span, dcr.stats.work, elem.stats.work
        );
    }

    // Reachability and connectivity queries.
    let cycle = datagen::cycle_graph(12).to_value();
    let reachable_from = prepare(&session, "graph/reachable_from");
    let reach = run(&session, &reachable_from, cycle.clone(), Some(0)).value;
    println!(
        "\nnodes reachable from 0 on a 12-cycle: {}",
        reach.cardinality().unwrap_or(0)
    );
    let strongly_connected = prepare(&session, "graph/strongly_connected");
    let connected = run(&session, &strongly_connected, cycle, None).value;
    println!("cycle is strongly connected        : {connected}");
    let path = datagen::path_graph(12).to_value();
    let connected_path = run(&session, &strongly_connected, path, None).value;
    println!("path  is strongly connected        : {connected_path}");

    // Wall-clock on the parallel evaluation backend: the dcr combining tree
    // forks across worker threads, the element-by-element fold cannot. Each
    // thread count is one session — the backend is a session-level choice.
    let n = 40u64;
    let path = datagen::path_graph(n).to_value();
    println!("\nthreads   tc_dcr wall-clock (ms)");
    for threads in [1usize, 2, 4, 8] {
        let parallel_session = SessionBuilder::new()
            .parallelism(Some(threads))
            .parallel_cutoff(256)
            .build();
        let query = prepare(&parallel_session, "graph/tc_dcr");
        let start = Instant::now();
        let out = run(&parallel_session, &query, path.clone(), None);
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(out.value.cardinality(), Some(((n + 1) * n / 2) as usize));
        println!("{threads:<9} {elapsed:.1}");
    }
}
