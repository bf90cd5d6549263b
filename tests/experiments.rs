//! The experiment harness itself is tested end-to-end: the quick sweep of every
//! experiment must run and reproduce the qualitative shapes recorded in the
//! README's "Experiments" section.

#[test]
fn quick_experiment_sweep_reproduces_the_expected_shapes() {
    let tables = ncql_bench_harness();
    ncql_check(&tables);
}

fn ncql_bench_harness() -> Vec<ncql_bench::Table> {
    ncql_bench::run_all_quick()
}

fn ncql_check(tables: &[ncql_bench::Table]) {
    ncql_bench::check_shapes(tables)
        .expect("the qualitative shapes of the README's Experiments section must hold");
    // Every table renders without panicking and mentions its experiment id.
    for t in tables {
        let text = t.to_string();
        assert!(text.contains(t.id));
    }
}
