//! Protocol round trips over a real socket: every engine error variant maps
//! to a wire diagnostic carrying the *exact* structured data (code, message,
//! span, line, column, snippet) that direct `Session` use produces; deadline
//! and work-budget rejections get their dedicated typed codes; malformed and
//! oversized request lines are answered with `protocol` errors on a
//! connection that stays usable.

mod common;

use common::{encode, expensive_query};
use ncql_core::CostStats;
use ncql_engine::{LintPolicy, Session, SessionBuilder};
use ncql_object::{Type, Value};
use ncql_serve::json::Json;
use ncql_serve::protocol::{code, decode_value, parse_request, value_to_json, Request};
use ncql_serve::{
    Client, ClientError, ExecuteParams, ServeConfig, Server, ServerHandle, WireDiagnostic,
};

/// Spawn a server over a default session; returns the handle to keep it
/// alive for the test's duration.
fn serve_default() -> ServerHandle {
    serve_with(SessionBuilder::new().build(), ServeConfig::default())
}

fn serve_with(session: Session, config: ServeConfig) -> ServerHandle {
    Server::bind(config, session)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// The expected wire diagnostic for `text` under a fresh default session:
/// run the same prepare/execute locally and convert the error with the same
/// `Diagnostic` machinery the server uses.
fn expected_diagnostic(error: &ncql_engine::Error, text: &str) -> (String, WireDiagnostic) {
    let diagnostic = error.diagnostic(text);
    let code = ncql_serve::error_code(error).to_string();
    (
        code.clone(),
        WireDiagnostic {
            code,
            severity: diagnostic.severity().to_string(),
            message: diagnostic.message.clone(),
            span: diagnostic.span.map(|s| (s.start, s.end)),
            line: diagnostic.line,
            column: diagnostic.column,
            snippet: diagnostic.snippet().map(str::to_string),
        },
    )
}

/// Assert that executing `text` over the wire produces exactly the
/// diagnostic that direct session use produces.
fn assert_error_parity(client: &mut Client, session: &Session, text: &str) -> String {
    let direct = session
        .prepare(text)
        .and_then(|plan| session.execute(&plan))
        .expect_err("query must fail directly");
    let (expected_code, expected) = expected_diagnostic(&direct, text);
    let wire = client
        .execute(text)
        .expect_err("query must fail over the wire");
    let got = wire.remote().expect("typed server error").clone();
    assert_eq!(got, expected, "wire diagnostic differs for `{text}`");
    expected_code
}

#[test]
fn parse_type_and_eval_errors_round_trip_with_exact_spans() {
    let handle = serve_default();
    let session = SessionBuilder::new().build();
    let mut client = Client::connect(handle.addr()).expect("connect");

    assert_eq!(
        assert_error_parity(&mut client, &session, "{@1} union $"),
        code::PARSE
    );
    assert_eq!(
        assert_error_parity(&mut client, &session, "nat_add(1"),
        code::PARSE
    );
    assert_eq!(
        assert_error_parity(&mut client, &session, "pi1 true"),
        code::TYPE
    );
    assert_eq!(
        assert_error_parity(&mut client, &session, "{@1} union {true}"),
        code::TYPE
    );
    // A multi-line query: the diagnostic must locate line 2.
    let multiline = "let x = {@1} in\npi1 x";
    assert_eq!(
        assert_error_parity(&mut client, &session, multiline),
        code::TYPE
    );
    let err = client.execute(multiline).unwrap_err();
    let diag = err.remote().unwrap();
    assert_eq!(diag.line, Some(2), "span resolves to the second line");
    assert_eq!(diag.snippet.as_deref(), Some("pi1 x"));

    // 10 000 nested parentheses (20 KB, far under the line limit) used to
    // overflow the parser's stack and abort the whole server; now a typed
    // parse diagnostic, and the connection answers the next request.
    let deep = format!("{}@1{}", "(".repeat(10_000), ")".repeat(10_000));
    assert_eq!(
        assert_error_parity(&mut client, &session, &deep),
        code::PARSE
    );
    assert_eq!(client.execute("nat_add(40, 2)").unwrap().printed, "42");
    // So did 1 500 `union` operands (16 KB): the chain nests nothing in the
    // text, but the tree it denotes is 1 499 levels deep.
    let chain = vec!["{@1}"; 1_500].join(" union ");
    assert_eq!(
        assert_error_parity(&mut client, &session, &chain),
        code::PARSE
    );
    assert_eq!(client.execute("nat_add(1, 2)").unwrap().printed, "3");

    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn object_errors_round_trip_for_bad_bindings() {
    let handle = serve_default();
    let session = SessionBuilder::new().build();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let text = "card(s)";
    let schema_local = vec![("s".to_string(), ncql_surface::parse_type("{atom}").unwrap())];
    let schema_wire = vec![("s".to_string(), "{atom}".to_string())];

    // Missing binding: Error::Object, located at the schema variable's use.
    let direct = session
        .prepare_with_schema(text, &schema_local)
        .and_then(|plan| session.execute(&plan))
        .expect_err("missing binding must fail");
    let (expected_code, expected) = expected_diagnostic(&direct, text);
    assert_eq!(expected_code, code::OBJECT);
    let wire = client
        .execute_with(
            text,
            &ExecuteParams {
                schema: &schema_wire,
                ..Default::default()
            },
        )
        .expect_err("missing binding must fail over the wire");
    assert_eq!(*wire.remote().expect("typed error"), expected);

    // Ill-typed binding value: also Error::Object.
    let bindings = vec![("s".to_string(), Value::Nat(3))];
    let err = client
        .execute_with(
            text,
            &ExecuteParams {
                schema: &schema_wire,
                bindings: &bindings,
                ..Default::default()
            },
        )
        .expect_err("ill-typed binding must fail");
    assert_eq!(err.code(), Some(code::OBJECT));

    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn lint_errors_round_trip_under_a_deny_session() {
    let session = SessionBuilder::new().lint_policy(LintPolicy::Deny).build();
    let local = SessionBuilder::new().lint_policy(LintPolicy::Deny).build();
    let handle = serve_with(session, ServeConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The combiner drops its second argument: a deny-level
    // `ignored-combiner-argument` finding rejects the plan at prepare.
    let text = "dcr(0, \\y: atom. 1, \\p: (nat * nat). pi1 p, {@1} union {@2})";
    let direct = local.prepare(text).expect_err("deny lint must reject");
    let (expected_code, expected) = expected_diagnostic(&direct, text);
    assert_eq!(expected_code, code::LINT);
    let wire = client.execute(text).expect_err("wire must reject too");
    assert_eq!(*wire.remote().expect("typed error"), expected);

    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn work_budget_and_set_size_rejections_are_typed() {
    let handle = serve_default();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Schema-bound queries: the optimizer cannot constant-fold them away, so
    // the per-request budgets are exercised by real evaluation work.
    let schema = vec![("s".to_string(), "{atom}".to_string())];
    let bindings = vec![("s".to_string(), Value::atom_set(1..=6))];

    // Per-request work budget: typed `work_budget`, not generic `eval`.
    let err = client
        .execute_with(
            "card(ext(\\x: atom. ext(\\y: atom. {(x, y)}, s), s))",
            &ExecuteParams {
                schema: &schema,
                bindings: &bindings,
                max_work: Some(5),
                ..Default::default()
            },
        )
        .expect_err("budget of 5 must trip");
    let diag = err.remote().expect("typed error");
    assert_eq!(diag.code, code::WORK_BUDGET);
    assert!(
        diag.message.contains("limit of 5"),
        "message names the limit: {}",
        diag.message
    );

    // Per-request set-size cap: surfaces as a plain `eval` error.
    let err = client
        .execute_with(
            "ext(\\x: atom. {(x, x)}, s)",
            &ExecuteParams {
                schema: &schema,
                bindings: &bindings,
                max_set_size: Some(2),
                ..Default::default()
            },
        )
        .expect_err("set cap of 2 must trip");
    assert_eq!(err.code(), Some(code::EVAL));

    // The connection is still healthy after typed failures.
    assert_eq!(client.execute("nat_add(20, 22)").unwrap().printed, "42");

    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn deadline_expiry_is_cancelled_and_typed() {
    let handle = serve_default();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Grow the query until a 1ms deadline fires mid-evaluation. The smallest
    // size is already expensive (hundreds of thousands of elementary steps);
    // the ladder keeps the test robust on fast machines.
    let mut deadline_hit = None;
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
            Err(err) => {
                let diag = err.remote().expect("typed server error").clone();
                deadline_hit = Some(diag);
                break;
            }
        }
    }
    let diag = deadline_hit.expect("no ladder size exceeded a 1ms deadline");
    assert_eq!(diag.code, code::DEADLINE);
    assert!(
        diag.message.contains("deadline of 1ms exceeded"),
        "cancellation reason survives to the wire: {}",
        diag.message
    );

    // The same connection serves the next request normally: cancellation
    // poisoned nothing.
    assert_eq!(client.execute("nat_mul(6, 7)").unwrap().printed, "42");

    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn a_panicking_request_is_an_internal_error_and_frees_its_slot() {
    let mut registry = ncql_core::externs::ExternRegistry::standard();
    registry.register("boom", vec![Type::Nat], Type::Nat, |_| {
        panic!("boom went the extern")
    });
    let session = SessionBuilder::new().registry(registry).build();
    let config = ServeConfig {
        max_inflight: 1,
        admission_timeout_ms: 1,
        ..ServeConfig::default()
    };
    let handle = serve_with(session, config);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Open, so prepare cannot fold the call: the panic happens in execute.
    let schema = vec![("n".to_string(), "nat".to_string())];
    let bindings = vec![("n".to_string(), Value::Nat(1))];
    let err = client
        .execute_with(
            "boom(n)",
            &ExecuteParams {
                schema: &schema,
                bindings: &bindings,
                ..Default::default()
            },
        )
        .expect_err("the extern panics");
    let diag = err.remote().expect("a typed error, not a hangup");
    assert_eq!(diag.code, code::INTERNAL);
    assert_eq!(diag.message, "internal error: boom went the extern");

    // The connection and the one admission slot both survive.
    assert_eq!(client.execute("nat_mul(6, 7)").unwrap().printed, "42");
    let mut second = Client::connect(handle.addr()).expect("connect");
    assert_eq!(second.execute("nat_add(1, 2)").unwrap().printed, "3");

    second.close().expect("close");
    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn admission_control_answers_busy_when_full() {
    let config = ServeConfig {
        max_inflight: 0,
        admission_timeout_ms: 1,
        ..ServeConfig::default()
    };
    let handle = serve_with(SessionBuilder::new().build(), config);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let err = client.execute("nat_add(1, 2)").expect_err("must be busy");
    let diag = err.remote().expect("typed error");
    assert_eq!(diag.code, code::BUSY);
    assert!(diag.message.contains("capacity"));

    // `stats` and `close` need no evaluation slot: still served at capacity.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_misses, 0);
    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn malformed_and_oversized_lines_get_protocol_errors_not_hangups() {
    let config = ServeConfig {
        max_line_bytes: 256,
        ..ServeConfig::default()
    };
    let handle = serve_with(SessionBuilder::new().build(), config);
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Not JSON at all: protocol error with a null id.
    let raw = client.round_trip_raw("this is not json").expect("answered");
    assert!(raw.contains("\"code\":\"protocol\""), "{raw}");
    assert!(raw.contains("\"id\":null"), "{raw}");

    // Unknown op: protocol error echoing the readable id.
    let raw = client
        .round_trip_raw(r#"{"op":"evaluate","id":41}"#)
        .expect("answered");
    assert!(raw.contains("\"code\":\"protocol\""), "{raw}");
    assert!(raw.contains("\"id\":41"), "{raw}");
    assert!(raw.contains("unknown op"), "{raw}");

    // Missing id: protocol error.
    let raw = client
        .round_trip_raw(r#"{"op":"execute","text":"1"}"#)
        .expect("answered");
    assert!(raw.contains("\"code\":\"protocol\""), "{raw}");

    // Bad schema type text: protocol error (never reaches the engine).
    let raw = client
        .round_trip_raw(r#"{"op":"prepare","id":7,"text":"s","schema":[{"name":"s","type":"{{"}]}"#)
        .expect("answered");
    assert!(raw.contains("\"code\":\"protocol\""), "{raw}");
    assert!(raw.contains("invalid schema type"), "{raw}");

    // An oversized line is drained and answered, not a hangup.
    let huge = format!(r#"{{"op":"execute","id":9,"text":"{}"}}"#, "x".repeat(1024));
    let raw = client.round_trip_raw(&huge).expect("answered");
    assert!(raw.contains("\"code\":\"protocol\""), "{raw}");
    assert!(raw.contains("256-byte limit"), "{raw}");

    // ...and the connection still works for a well-formed request.
    assert_eq!(client.execute("nat_add(40, 2)").unwrap().printed, "42");

    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn prepare_stats_and_values_round_trip() {
    let handle = serve_default();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let prepared = client.prepare("{@1} union {@2} union {@1}", &[]).unwrap();
    assert_eq!(prepared.ty, "{atom}");
    assert_eq!(prepared.recursion_depth, 0);
    assert_eq!(prepared.ac_level, 1); // ACᵏ level is max(1, depth)

    // Execute with bindings; the decoded value matches the canonical one.
    let bindings = vec![("s".to_string(), Value::atom_set([1, 2, 9]))];
    let schema = vec![("s".to_string(), "{atom}".to_string())];
    let outcome = client
        .execute_with(
            "card(s)",
            &ExecuteParams {
                schema: &schema,
                bindings: &bindings,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(outcome.value, Value::Nat(3));
    assert_eq!(outcome.printed, "3");
    assert_eq!(outcome.ty, "nat");
    assert!(outcome.stats.work > 0);

    // Pair/set structure survives the wire byte-for-byte.
    let outcome = client
        .execute("ext(\\x: atom. {(x, x)}, {@1} union {@2})")
        .unwrap();
    assert_eq!(
        outcome.value,
        Value::set_from([
            Value::pair(Value::Atom(1), Value::Atom(1)),
            Value::pair(Value::Atom(2), Value::Atom(2)),
        ])
    );

    // Stats reflect the traffic this test just sent.
    let stats = client.stats().unwrap();
    assert!(stats.cache_misses >= 3, "{stats:?}");
    assert!(stats.prepared_plans >= 3, "{stats:?}");
    assert!(!stats.backend.is_empty());

    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn a_served_open_query_reaches_the_evaluator_with_the_direct_sessions_stats() {
    let handle = serve_default();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let entry = &common::pack()[0];
    let direct = entry.run_direct(&SessionBuilder::new().build());

    // The typed client drops four of the seven counters, so speak the
    // protocol raw and read the whole `stats` object.
    let (name, ty) = &entry.schema[0];
    let request = format!(
        r#"{{"op":"execute","id":1,"text":{text},"schema":[{{"name":"{name}","type":"{ty}"}}],"bindings":[{{"name":"{name}","value":{rows}}}]}}"#,
        text = Json::str(entry.text),
        rows = value_to_json(&entry.bindings[0].1),
    );
    let raw = client.round_trip_raw(&request).expect("answered");
    let reply = ncql_serve::json::parse(&raw).expect("JSON reply");
    let ok = reply.get("ok").unwrap_or_else(|| panic!("not ok: {raw}"));
    let stat = |name: &str| {
        ok.get("stats")
            .and_then(|s| s.get(name)?.as_u64())
            .expect(name)
    };
    let served = CostStats {
        work: stat("work"),
        span: stat("span"),
        combiner_calls: stat("combiner_calls"),
        step_calls: stat("step_calls"),
        ext_calls: stat("ext_calls"),
        sequential_rounds: stat("sequential_rounds"),
        max_set_size: stat("max_set_size") as usize,
    };
    assert_eq!(served, direct.stats, "{}", entry.name);
    assert!(
        served.ext_calls >= common::EDGE_ROWS,
        "one `ext` application per bound row: {served:?}"
    );
    let value = ok.get("value").expect("value").to_string();
    assert_eq!(decode_value(&value), Ok(direct.value));

    client.close().expect("close");
    handle.shutdown();
}

#[test]
fn close_is_acknowledged_then_the_connection_ends() {
    let handle = serve_default();
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.execute("nat_add(2, 2)").unwrap().printed, "4");
    client.close().expect("close acknowledged");

    // A fresh connection still works (the server did not shut down).
    let mut again = Client::connect(handle.addr()).expect("reconnect");
    assert_eq!(again.execute("nat_add(2, 3)").unwrap().printed, "5");
    match again.round_trip_raw(r#"{"op":"close","id":99}"#) {
        Ok(raw) => assert!(raw.contains("\"closing\":true"), "{raw}"),
        Err(e) => panic!("close not acknowledged: {e}"),
    }
    // After the acknowledgement the server hangs up: the next round trip
    // fails with EOF (or a broken pipe on the write, depending on timing).
    assert!(matches!(
        again.round_trip_raw(r#"{"op":"stats","id":100}"#),
        Err(ClientError::Io(_))
    ));
    handle.shutdown();
}

#[test]
fn pipelined_batches_are_answered_in_order_without_a_nagle_stall() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};

    let handle = serve_default();
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    let mut exchange = |first_id: u64, count: u64| {
        // The whole batch leaves in one write, so the server finds every
        // later line already buffered while it answers the first.
        let batch: String = (first_id..first_id + count)
            .map(|id| format!("{{\"op\":\"execute\",\"id\":{id},\"text\":\"nat_add(20, 22)\"}}\n"))
            .collect();
        stream.write_all(batch.as_bytes()).expect("send");
        for id in first_id..first_id + count {
            let mut line = String::new();
            replies.read_line(&mut line).expect("reply");
            let reply = ncql_serve::json::parse(line.trim_end()).expect("JSON reply");
            assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id), "{line}");
            let printed = reply.get("ok").and_then(|ok| ok.get("printed")?.as_str());
            assert_eq!(printed, Some("42"), "{line}");
        }
    };
    // Warm the plan cache and the handler thread outside the timed part.
    exchange(1, 1);
    let started = Instant::now();
    for batch in 0..5 {
        exchange(100 * (batch + 1), 32);
    }
    // 160 cache-hit requests are a few milliseconds of work. With Nagle's
    // algorithm on and a flush per reply, every batch stalled on the
    // client's delayed ACK — 40 ms or more per batch, 200 ms in all.
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(100), "took {elapsed:?}");
    handle.shutdown();
}

/// No socket here: `parse_request` alone against damaged request lines. The
/// three pack requests, each with the three limits, are hit by a fixed-seed
/// stream of byte flips, deletions, truncations and duplications; whatever
/// comes out is a `Request` or a `ProtocolError`, never a panic, and every
/// `Request` is a fixed point of encode-then-parse. The outcomes, in order,
/// fold into one FNV-1a digest: a decoder change that reads any damaged line
/// differently, or words a refusal differently, moves it.
#[test]
fn twenty_thousand_damaged_request_lines_parse_or_are_refused() {
    let seeds: Vec<Vec<u8>> = common::pack()
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let Request::Execute {
                id,
                text,
                schema,
                bindings,
                ..
            } = entry.request(i as u64 + 1)
            else {
                unreachable!("a pack entry is an execute");
            };
            let request = Request::Execute {
                id,
                text,
                schema,
                bindings,
                deadline_ms: Some(250),
                max_work: Some(1 << 40),
                max_set_size: Some(4096),
            };
            let line = encode(&request);
            assert_eq!(parse_request(&line), Ok(request), "{}", entry.name);
            line.into_bytes()
        })
        .collect();

    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |below: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % below
    };
    let (mut accepted, mut refused) = (0, 0);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |outcome: &str| {
        for byte in outcome.bytes().chain([b'\n']) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for mutant in 0..21_000 {
        let mut bytes = seeds[mutant % seeds.len()].clone();
        for _ in 0..=next(2) {
            let at = next(bytes.len());
            match next(4) {
                0 => bytes[at] ^= 1 << next(8),
                1 => drop(bytes.remove(at)),
                2 => bytes.truncate(at),
                _ => bytes.insert(at, bytes[at]),
            }
            if bytes.is_empty() {
                bytes.push(b'{');
            }
        }
        // As the connection loop does with a line that is not UTF-8.
        let line = String::from_utf8_lossy(&bytes);
        match parse_request(&line) {
            Ok(request) => {
                accepted += 1;
                let encoded = encode(&request);
                fold(&encoded);
                let again = parse_request(&encoded);
                assert_eq!(again.as_ref(), Ok(&request), "mutant {mutant}: {line}");
            }
            Err(error) => {
                refused += 1;
                fold(&format!("{:?} {}", error.id, error.message));
                assert!(!error.message.is_empty(), "mutant {mutant}");
            }
        }
    }
    // Damage inside a number or a name leaves a well-formed request.
    assert!(
        accepted > 1_000 && refused > 10_000,
        "{accepted} / {refused}"
    );
    assert_eq!(digest, 0xd206_d436_f536_91b6, "{digest:#018x}");
}
