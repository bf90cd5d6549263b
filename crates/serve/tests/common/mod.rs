//! The serve suites' query pack: *open* queries over bound relations, sent
//! through the wire as schema + bindings, so the traffic the suites generate
//! reaches the evaluator. (Closed texts this small are folded to a constant
//! at prepare: a suite built on them measures JSON + TCP around
//! `ExprKind::Const`.) [`pack`] checks on first use that every entry still
//! evaluates.

#![allow(dead_code)] // each suite uses its own subset

use ncql_engine::{Outcome, Session};
use ncql_object::{Type, Value};
use ncql_serve::json::Json;
use ncql_serve::protocol::{value_to_json, Request};
use ncql_serve::ExecuteParams;
use std::sync::OnceLock;

/// Rows of `edges`: enough for the columnar representation (≥ 8) and for a
/// compiled `ext` kernel to run a real loop.
pub const EDGE_ROWS: u64 = 96;

/// One open query with the bindings it runs over.
pub struct PackEntry {
    pub name: &'static str,
    pub text: &'static str,
    /// Free-variable declarations in wire form (name, printed type).
    pub schema: Vec<(String, String)>,
    pub bindings: Vec<(String, Value)>,
}

impl PackEntry {
    /// The wire parameters that carry this entry's schema and bindings.
    pub fn params(&self) -> ExecuteParams<'_> {
        ExecuteParams {
            schema: &self.schema,
            bindings: &self.bindings,
            ..Default::default()
        }
    }

    /// The `execute` request that carries this entry, with no limits set.
    pub fn request(&self, id: u64) -> Request {
        let typed = |(name, ty): &(String, String)| {
            (name.clone(), ncql_surface::parse_type(ty).expect(self.name))
        };
        Request::Execute {
            id,
            text: self.text.to_string(),
            schema: self.schema.iter().map(typed).collect(),
            bindings: self.bindings.clone(),
            deadline_ms: None,
            max_work: None,
            max_set_size: None,
        }
    }

    /// Prepare and execute directly on `session`: the reference the wire
    /// answers are compared against.
    pub fn run_direct(&self, session: &Session) -> Outcome {
        let schema: Vec<(String, Type)> = self
            .schema
            .iter()
            .map(|(name, ty)| (name.clone(), ncql_surface::parse_type(ty).expect(self.name)))
            .collect();
        let plan = session
            .prepare_with_schema(self.text, &schema)
            .unwrap_or_else(|e| panic!("{} fails to prepare: {e}", self.name));
        session
            .execute_with_bindings(&plan, &self.bindings)
            .unwrap_or_else(|e| panic!("{} fails to evaluate: {e}", self.name))
    }
}

/// The pack: a kernel-compiled projection/filter over the columnar `edges`,
/// a two-relation join (the inner body captures `e`, so the interpreter runs
/// it), and a `dcr` aggregate. Built once per test binary; the first call
/// asserts on a default session that no entry is a folded constant.
pub fn pack() -> &'static [PackEntry] {
    static PACK: OnceLock<Vec<PackEntry>> = OnceLock::new();
    PACK.get_or_init(|| {
        let relation = |name: &str| (name.to_string(), "{(atom * atom)}".to_string());
        let edges = (
            "edges".to_string(),
            Value::relation_from_pairs((0..EDGE_ROWS).map(|i| (i, (i * 7 + 3) % 32))),
        );
        let labels = (
            "labels".to_string(),
            Value::relation_from_pairs((0..32).map(|j| (j, 100 + j % 4))),
        );
        let pack = vec![
            PackEntry {
                name: "ext/swap_off_diagonal",
                text: "ext(\\e: (atom * atom). if pi1 e = pi2 e then empty[(atom * atom)] \
                       else {(pi2 e, pi1 e)}, edges)",
                schema: vec![relation("edges")],
                bindings: vec![edges.clone()],
            },
            PackEntry {
                name: "ext/join",
                text: "ext(\\e: (atom * atom). ext(\\l: (atom * atom). if pi2 e = pi1 l \
                       then {(pi1 e, pi2 l)} else empty[(atom * atom)], labels), edges)",
                schema: vec![relation("edges"), relation("labels")],
                bindings: vec![edges.clone(), labels],
            },
            PackEntry {
                name: "dcr/count",
                text: "dcr(0, \\e: (atom * atom). 1, \\p: (nat * nat). nat_add(pi1 p, pi2 p), \
                       edges)",
                schema: vec![relation("edges")],
                bindings: vec![edges],
            },
        ];
        let session = Session::new();
        for entry in &pack {
            let work = entry.run_direct(&session).stats.work;
            assert!(
                work > 1,
                "{} executes with work {work}: the optimizer folded it to a constant",
                entry.name
            );
        }
        pack
    })
}

/// `request` as a line of the protocol (the inverse of `parse_request`).
pub fn encode(request: &Request) -> String {
    let quoted = |s: &str| Json::str(s).to_string();
    let common = |op: &str, id: u64, text: &str, schema: &[(String, Type)]| {
        let schema: Vec<String> = schema
            .iter()
            .map(|(name, ty)| {
                let ty = quoted(&ty.to_string());
                format!(r#"{{"name":{},"type":{ty}}}"#, quoted(name))
            })
            .collect();
        let (text, schema) = (quoted(text), schema.join(","));
        format!(r#"{{"op":"{op}","id":{id},"text":{text},"schema":[{schema}]"#)
    };
    match request {
        Request::Prepare { id, text, schema } => common("prepare", *id, text, schema) + "}",
        Request::Stats { id } => format!(r#"{{"op":"stats","id":{id}}}"#),
        Request::Close { id } => format!(r#"{{"op":"close","id":{id}}}"#),
        Request::Execute {
            id,
            text,
            schema,
            bindings,
            deadline_ms,
            max_work,
            max_set_size,
        } => {
            let bindings: Vec<String> = bindings
                .iter()
                .map(|(name, value)| {
                    let value = value_to_json(value);
                    format!(r#"{{"name":{},"value":{value}}}"#, quoted(name))
                })
                .collect();
            let mut line = common("execute", *id, text, schema);
            line += &format!(r#","bindings":[{}]"#, bindings.join(","));
            let limits = [
                ("deadline_ms", *deadline_ms),
                ("max_work", *max_work),
                ("max_set_size", max_set_size.map(|n| n as u64)),
            ];
            for (name, limit) in limits {
                line += &limit.map_or(String::new(), |n| format!(r#","{name}":{n}"#));
            }
            line + "}"
        }
    }
}

/// A closed query whose evaluation cost grows cubically with `n`: the set of
/// ordered triples over `n` atoms, reduced to its cardinality. Used by the
/// deadline tests, which need something provably expensive yet type-correct
/// (from n = 48 its 110 592 steps are far past the optimizer's fold budget).
pub fn expensive_query(n: usize) -> String {
    let atoms: Vec<String> = (1..=n.max(1)).map(|i| format!("{{@{i}}}")).collect();
    let base = atoms.join(" union ");
    format!(
        "card(ext(\\x: atom. ext(\\y: atom. ext(\\z: atom. {{((x, y), z)}}, {base}), {base}), {base}))"
    )
}
