//! Golden bytes: the reply lines of five requests, captured from the commit
//! before the wire codec stopped building `Json` trees for values (and kept
//! in `golden/replies.txt`, one per line), must come back byte-for-byte from
//! the server, which writes each line in one pass, and from `ok_response`
//! around a `Json` body composed as the server once built it.
//! The five: the three pack entries, a result with nested sets (boxed on
//! both sides of the wire), and a columnar result of interned atoms — whose
//! ids depend on interning order, which is why this suite is a test binary
//! of its own with a single test.

mod common;

use ncql_engine::{Outcome, SessionBuilder};
use ncql_serve::json::Json;
use ncql_serve::protocol::{ok_response, value_to_json};
use ncql_serve::{Client, ServeConfig, Server};

const GOLDEN: &str = include_str!("golden/replies.txt");

/// The `ok` body of an `execute` reply, field for field as the server built
/// it before it wrote the line in one pass.
fn reply_body(outcome: &Outcome, ty: &str) -> Json {
    let s = &outcome.stats;
    let stats = [
        ("work", s.work),
        ("span", s.span),
        ("combiner_calls", s.combiner_calls),
        ("step_calls", s.step_calls),
        ("ext_calls", s.ext_calls),
        ("sequential_rounds", s.sequential_rounds),
        ("max_set_size", s.max_set_size as u64),
    ];
    let stats = stats
        .iter()
        .map(|&(name, n)| (name.to_string(), Json::num(n)));
    Json::Obj(vec![
        ("value".to_string(), value_to_json(&outcome.value)),
        ("printed".to_string(), Json::str(outcome.value.to_string())),
        ("type".to_string(), Json::str(ty)),
        ("stats".to_string(), Json::Obj(stats.collect())),
        (
            "backend".to_string(),
            Json::str(outcome.backend.to_string()),
        ),
    ])
}

#[test]
fn replies_are_byte_identical_to_the_tree_codecs() {
    let pack = common::pack();
    let nested = common::PackEntry {
        name: "ext/nested",
        text: "ext(\\e: (atom * atom). {(pi1 e, {pi2 e})}, edges)",
        schema: pack[0].schema.clone(),
        bindings: pack[0].bindings.clone(),
    };
    let names = ["ada", "bob", "cy", "dee", "eve", "fay", "gus", "hal", "ivy"];
    let interned: Vec<String> = names.iter().map(|n| format!("{{@{n}}}")).collect();
    let interned = common::PackEntry {
        name: "closed/interned",
        text: Box::leak(interned.join(" union ").into_boxed_str()),
        schema: Vec::new(),
        bindings: Vec::new(),
    };
    let entries = pack.iter().chain([&nested, &interned]);

    let session = SessionBuilder::new().build();
    let handle = Server::bind(ServeConfig::default(), SessionBuilder::new().build())
        .and_then(Server::spawn)
        .expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut golden = GOLDEN.lines();
    for (i, entry) in entries.enumerate() {
        let id = i as u64 + 1;
        let expected = golden
            .next()
            .unwrap_or_else(|| panic!("no golden line {id}"));
        let request = common::encode(&entry.request(id));
        let served = client.round_trip_raw(&request).expect("answered");
        assert!(served == expected, "{}: served\n{served}", entry.name);

        let direct = entry.run_direct(&session);
        let columnar = [Some(true), Some(true), None, Some(false), Some(true)];
        assert_eq!(direct.value.as_set().map(|s| s.is_columnar()), columnar[i]);
        let ty = ncql_serve::json::parse(&served).expect("JSON reply");
        let ty = ty.get("ok").and_then(|ok| ok.get("type")?.as_str());
        let built = ok_response(id, reply_body(&direct, ty.expect("type")));
        assert!(built == expected, "{}: built\n{built}", entry.name);
    }
    assert_eq!(golden.next(), None);
    client.close().expect("close");
    handle.shutdown();
}
