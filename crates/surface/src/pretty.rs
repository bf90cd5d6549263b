//! Pretty-printer emitting the surface syntax, inverse (up to parentheses and
//! the `lam2` desugaring) of the parser.

use ncql_core::expr::Form;
use ncql_core::{Expr, ExprKind};
use ncql_object::Value;

fn print_value(v: &Value) -> Option<String> {
    match v {
        Value::Atom(a) => Some(match ncql_object::atom_name(*a) {
            Some(name) => format!("@{name}"),
            None => format!("@{a}"),
        }),
        Value::Nat(n) => Some(n.to_string()),
        Value::Bool(b) => Some(b.to_string()),
        Value::Unit => Some("()".to_string()),
        // Pairs and sets of literals can be printed as constructed expressions.
        Value::Pair(a, b) => Some(format!("({}, {})", print_value(a)?, print_value(b)?)),
        Value::Set(s) => {
            if s.is_empty() {
                // The element type is not recoverable from the value alone.
                None
            } else {
                let parts: Option<Vec<String>> = s
                    .iter()
                    .map(|x| print_value(x).map(|p| format!("{{{p}}}")))
                    .collect();
                parts.map(|p| p.join(" union "))
            }
        }
    }
}

/// Render an expression in the surface syntax. Constant sets whose element type
/// cannot be recovered (empty literal sets) are rendered as `empty[atom]`, which
/// is the parser's convention for untyped empties.
pub fn print_expr(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Var(x) => x.name.clone(),
        ExprKind::Lam(x, ty, b) => format!("\\{x}: {ty}. {}", print_expr(b)),
        ExprKind::App(f, a) => format!("apply({}, {})", print_expr(f), print_expr(a)),
        ExprKind::Let(x, a, b) => format!("let {x} = {} in {}", print_expr(a), print_expr(b)),
        ExprKind::Unit => "()".to_string(),
        ExprKind::Pair(a, b) => format!("({}, {})", print_expr(a), print_expr(b)),
        ExprKind::Proj1(a) => format!("pi1 ({})", print_expr(a)),
        ExprKind::Proj2(a) => format!("pi2 ({})", print_expr(a)),
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::If(c, t, f) => format!(
            "if {} then {} else {}",
            print_expr(c),
            print_expr(t),
            print_expr(f)
        ),
        ExprKind::Eq(a, b) => format!("(({}) = ({}))", print_expr(a), print_expr(b)),
        ExprKind::Leq(a, b) => format!("(({}) <= ({}))", print_expr(a), print_expr(b)),
        ExprKind::Const(v) => print_value(v).unwrap_or_else(|| "empty[atom]".to_string()),
        ExprKind::Empty(t) => format!("empty[{t}]"),
        ExprKind::Singleton(a) => format!("{{{}}}", print_expr(a)),
        ExprKind::Union(a, b) => format!("(({}) union ({}))", print_expr(a), print_expr(b)),
        ExprKind::IsEmpty(a) => format!("isempty({})", print_expr(a)),
        ExprKind::Ext(f, a) => format!("ext({}, {})", print_expr(f), print_expr(a)),
        ExprKind::UnionRec { form, .. } => print_call(form.keyword(), e),
        ExprKind::InsertRec { form, .. } => print_call(form.keyword(), e),
        ExprKind::Iter { form, .. } => print_call(form.keyword(), e),
        ExprKind::Extern(name, _) => print_call(name, e),
    }
}

/// `name(…)` over the node's operands, in [`Expr::children`] order.
fn print_call(name: &str, e: &Expr) -> String {
    let parts: Vec<String> = e.children().iter().map(|c| print_expr(c.expr)).collect();
    format!("{name}({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use ncql_core::eval::eval_closed;

    fn round_trip(text: &str) {
        let parsed = parse_expr(text).unwrap_or_else(|e| panic!("parse {text}: {e}"));
        let printed = print_expr(&parsed);
        let reparsed = parse_expr(&printed).unwrap_or_else(|e| panic!("reparse {printed}: {e}"));
        assert_eq!(
            parsed, reparsed,
            "round trip changed the expression: {printed}"
        );
    }

    #[test]
    fn parse_print_parse_is_stable() {
        for text in [
            "true",
            "@3",
            "17",
            "{@1} union {@2}",
            "(@1, (true, ()))",
            "pi1 (@1, @2)",
            "if isempty(empty[atom]) then @1 else @2",
            "\\x: {(atom * atom)}. ext(\\p: (atom * atom). {pi1 p}, x)",
            "let r = {@1} in dcr(empty[atom], \\y: atom. {y}, \\p: ({atom} * {atom}). pi1 p union pi2 p, r)",
            "logloop(\\r: {atom}. r, {@1}, empty[atom])",
            "nat_add(1, nat_mul(2, 3))",
            "@1 <= @2",
        ] {
            round_trip(text);
        }
    }

    #[test]
    fn every_recursion_form_prints_its_keyword_and_parses_back() {
        for form in Expr::recursion_forms() {
            let n = form.children().len() as u64;
            let e = form.with_children((1..=n).map(Expr::atom).collect());
            let keyword = e.kind.form().expect("a recursion form").keyword();
            let printed = print_expr(&e);
            assert!(printed.starts_with(&format!("{keyword}(@1, ")), "{printed}");
            assert_eq!(parse_expr(&printed).unwrap(), e, "{printed}");
        }
    }

    #[test]
    fn printed_programs_still_evaluate() {
        let text = "dcr(false, \\y: atom. true, \\p: (bool * bool). \
                    if pi1 p then (if pi2 p then false else true) else pi2 p, \
                    {@1} union {@2} union {@3})";
        let e = parse_expr(text).unwrap();
        let printed = print_expr(&e);
        let e2 = parse_expr(&printed).unwrap();
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&e2).unwrap());
    }

    #[test]
    fn constants_print_as_literals() {
        use ncql_object::Value;
        let e = Expr::constant(Value::atom_set(vec![1, 2]));
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed).unwrap();
        assert_eq!(eval_closed(&reparsed).unwrap(), Value::atom_set(vec![1, 2]));
    }
}
