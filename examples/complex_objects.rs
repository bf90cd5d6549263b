//! Complex objects: nested relations, nest/unnest, bounded recursion (`bdcr`)
//! and the powerset blow-up that motivates it (§2, Theorem 6.1), with resource
//! limits configured once on the engine's `Session`.
//!
//! Run with: `cargo run --example complex_objects`

use ncql::core::derived;
use ncql::core::expr::Expr;
use ncql::core::EvalError;
use ncql::object::{Type, Value};
use ncql::queries::{datagen, pack};
use ncql::{Error, Outcome, Session, SessionBuilder};

/// The pack text `name` run on `session` over the set `s`.
fn run(session: &Session, name: &str, s: Value) -> Result<Outcome, Error> {
    let query = pack::query(name).expect("in the pack");
    let plan = session.prepare_with_schema(query.text, &query.schema)?;
    session.execute_with_bindings(&plan, &[("s".to_string(), s)])
}

fn main() {
    let session = Session::new();

    // A nested "document store": a set of (group, sub-relation) pairs.
    let store = datagen::document_store(4, 6, 7);
    let store_ty = Type::set(Type::prod(Type::Base, Type::binary_relation()));
    assert!(store.has_type(&store_ty));
    println!(
        "document store ({} groups): {store}",
        store.cardinality().unwrap_or(0)
    );

    // Unnest it into a flat relation of (group, edge) pairs and project.
    let unnested = session
        .prepare_expr(derived::unnest(
            Type::Base,
            Type::prod(Type::Base, Type::Base),
            Expr::constant(store.clone()),
        ))
        .expect("unnest typechecks");
    let flat = session.execute(&unnested).expect("unnest evaluates").value;
    println!(
        "\nunnested to type {}: {} tuples",
        unnested.ty(),
        flat.cardinality().unwrap_or(0)
    );

    // Re-nest by group and check we recover a set of groups of the same size.
    let renested = derived::nest(
        Type::Base,
        Type::prod(Type::Base, Type::Base),
        Expr::constant(flat.clone()),
    );
    let grouped = session.evaluate(&renested).expect("nest evaluates").value;
    println!(
        "re-nested into {} groups",
        grouped.cardinality().unwrap_or(0)
    );

    // Powerset via unbounded dcr explodes: a session with a set-size limit
    // reports the blow-up instead of exhausting memory.
    let limited = SessionBuilder::new().max_set_size(4096).build();
    let input = Value::atom_set(0..18);
    match run(&limited, "powerset/dcr", input.clone()) {
        Err(Error::Eval(EvalError::SetTooLarge {
            limit, attempted, ..
        })) => println!(
            "\nunbounded powerset of an 18-element set: aborted \
             (intermediate set of {attempted} elements exceeds the limit {limit})"
        ),
        other => println!("\nunexpected outcome: {other:?}"),
    }

    // The bounded variant (bdcr) stays within the bound, as Theorem 6.1
    // requires — same limited session, no error.
    let bounded = run(&limited, "powerset/bounded_small_subsets", input)
        .expect("bounded recursion stays within the limit");
    println!(
        "bounded recursion over the same set: {} subsets, largest intermediate set {}",
        bounded.value.cardinality().unwrap_or(0),
        bounded.stats.max_set_size
    );

    // Small powersets are still fine, and exact.
    let small = run(&session, "powerset/dcr", Value::atom_set(0..6)).expect("small powerset");
    println!(
        "\npowerset of a 6-element set: {} subsets (work {}, span {})",
        small.value.cardinality().unwrap_or(0),
        small.stats.work,
        small.stats.span
    );
}
