//! The wire runs every corpus entry: each pack text goes to an `ncql-serve`
//! server on an ephemeral port through `serve::client::Client::execute_with`,
//! with its header's types printed as the schema and its bindings as values,
//! and every reply must carry the value and `stats` that
//! `Session::execute_with_bindings` computes in process on a session built
//! the same way.

use ncql::core::parallelism_from_env;
use ncql::queries::differential_corpus;
use ncql::serve::{Client, ExecuteParams, ServeConfig, Server};
use ncql::SessionBuilder;

#[test]
fn every_corpus_entry_answers_over_the_wire_as_in_process() {
    let builder = || SessionBuilder::new().parallelism(parallelism_from_env());
    // No entry may be refused: one client, so admission never waits, and a
    // deadline far above the slowest entry of an unoptimized build.
    let config = ServeConfig {
        default_deadline_ms: 600_000,
        max_deadline_ms: 600_000,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, builder().build())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let session = builder().build();
    let mut client = Client::connect(server.addr()).expect("connect");
    let corpus = differential_corpus();
    for entry in &corpus {
        let name = &entry.name;
        let schema: Vec<(String, String)> = entry
            .schema
            .iter()
            .map(|(var, ty)| (var.clone(), ty.to_string()))
            .collect();
        let params = ExecuteParams {
            schema: &schema,
            bindings: &entry.bindings,
            ..ExecuteParams::default()
        };
        let wire = client
            .execute_with(entry.text, &params)
            .unwrap_or_else(|e| panic!("{name}: over the wire: {e}"));
        let plan = session
            .prepare_with_schema(entry.text, &entry.schema)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let local = session
            .execute_with_bindings(&plan, &entry.bindings)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(wire.value, local.value, "{name}: value");
        assert_eq!(
            [wire.stats.work, wire.stats.span, wire.stats.max_set_size],
            [
                local.stats.work,
                local.stats.span,
                local.stats.max_set_size as u64
            ],
            "{name}: stats"
        );
    }
    client.close().expect("close");
    server.shutdown();
}
