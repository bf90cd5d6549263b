//! Type checker for the NC query language (§3 typing rules plus the side
//! conditions of §2 for the bounded recursors).
//!
//! The checker infers a type for every expression in a typing context. λ-binders
//! are annotated, so inference is syntax-directed. It walks the resolved plan
//! ([`crate::resolve`]): a binder's type is pushed while its body is checked,
//! a variable reads its binder's by position, and each free name is matched
//! to its schema type ([`TypeEnv`]) once. The judgement implemented is the
//! obvious one for the rules listed in §3; the extra conditions are:
//!
//! * `bdcr`/`bsri`/`blog-loop`/`bloop` require the result type to be a PS-type
//!   (product of sets) so that the bounding intersection `⊓ b` is defined.
//! * `Eq`/`Leq` require both sides to have the same *object* type (no functions).
//! * External calls must match the signature registered in [`ExternRegistry`].
//!
//! Every [`TypeError`] is *located*: the failing check names the span of the
//! most specific subexpression it can (usually the operand whose type was
//! wrong), and [`infer`] attaches the enclosing node's span to anything that
//! bubbles out still unlocated — so errors from parsed queries always point
//! back into the source text.

use crate::error::{TypeError, TypeErrorKind};
use crate::expr::{Expr, ExprKind, Form, Slot};
use crate::externs::ExternRegistry;
use crate::resolve::{resolve, Resolved};
use crate::span::Span;
use ncql_object::{Type, Value};

/// The typing context of a query's free names — its schema: an association
/// list from names to types (a later binding of a name shadows an earlier
/// one). The binders inside the query are the checker's own.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    bindings: Vec<(String, Type)>,
}

impl TypeEnv {
    /// The empty context.
    pub fn new() -> TypeEnv {
        TypeEnv {
            bindings: Vec::new(),
        }
    }

    /// Extend the context with one binding (returns a new context).
    pub fn extend(&self, name: impl Into<String>, ty: Type) -> TypeEnv {
        let mut bindings = self.bindings.clone();
        bindings.push((name.into(), ty));
        TypeEnv { bindings }
    }
}

/// Infer the type of a complex-object literal. Empty sets are given element type
/// `D` by convention; use [`ExprKind::Empty`] with an explicit element type when
/// a differently-typed empty set is needed.
pub fn value_type(v: &Value) -> Type {
    match v {
        Value::Atom(_) => Type::Base,
        Value::Bool(_) => Type::Bool,
        Value::Unit => Type::Unit,
        Value::Nat(_) => Type::Nat,
        Value::Pair(a, b) => Type::prod(value_type(a), value_type(b)),
        Value::Set(s) => match s.iter().next() {
            Some(first) => Type::set(value_type(first)),
            None => Type::set(Type::Base),
        },
    }
}

fn expect_eq(
    context: &str,
    expected: &Type,
    found: &Type,
    span: Option<Span>,
) -> Result<(), TypeError> {
    if expected == found {
        Ok(())
    } else {
        Err(TypeError::new(
            TypeErrorKind::Mismatch {
                context: context.to_string(),
                expected: expected.clone(),
                found: found.clone(),
            },
            span,
        ))
    }
}

fn expect_set(context: &str, ty: &Type, span: Option<Span>) -> Result<Type, TypeError> {
    match ty {
        Type::Set(t) => Ok((**t).clone()),
        _ => Err(TypeError::new(
            TypeErrorKind::NotASet {
                context: context.to_string(),
                found: ty.clone(),
            },
            span,
        )),
    }
}

fn expect_fun(context: &str, ty: &Type, span: Option<Span>) -> Result<(Type, Type), TypeError> {
    match ty {
        Type::Fun(a, b) => Ok(((**a).clone(), (**b).clone())),
        _ => Err(TypeError::new(
            TypeErrorKind::NotAFunction {
                context: context.to_string(),
                found: ty.clone(),
            },
            span,
        )),
    }
}

fn expect_bool(context: &str, ty: &Type, span: Option<Span>) -> Result<(), TypeError> {
    if *ty == Type::Bool {
        Ok(())
    } else {
        Err(TypeError::new(
            TypeErrorKind::NotABool {
                context: context.to_string(),
                found: ty.clone(),
            },
            span,
        ))
    }
}

fn expect_comparable(context: &str, ty: &Type, span: Option<Span>) -> Result<(), TypeError> {
    if ty.is_object_type() {
        Ok(())
    } else {
        Err(TypeError::new(
            TypeErrorKind::NotComparable {
                context: context.to_string(),
                found: ty.clone(),
            },
            span,
        ))
    }
}

fn expect_ps(context: &str, ty: &Type, span: Option<Span>) -> Result<(), TypeError> {
    if ty.is_ps_type() {
        Ok(())
    } else {
        Err(TypeError::new(
            TypeErrorKind::NotAPsType {
                context: context.to_string(),
                found: ty.clone(),
            },
            span,
        ))
    }
}

/// Type-check the shared shape of `dcr`/`sru`: `e : t`, `f : s → t`,
/// `u : t × t → t`, `arg : {s}`; result `t`.
fn check_union_recursor(
    name: &str,
    cx: &mut Checker,
    e: &Expr,
    f: &Expr,
    u: &Expr,
    arg: &Expr,
) -> Result<Type, TypeError> {
    let t = cx.infer(e)?;
    let f_ty = cx.infer(f)?;
    let (s, t_from_f) = expect_fun(&format!("{name} singleton map f"), &f_ty, f.span)?;
    expect_eq(&format!("{name} f result vs e"), &t, &t_from_f, f.span)?;
    let u_ty = cx.infer(u)?;
    let (u_dom, u_cod) = expect_fun(&format!("{name} combiner u"), &u_ty, u.span)?;
    expect_eq(
        &format!("{name} combiner domain"),
        &Type::prod(t.clone(), t.clone()),
        &u_dom,
        u.span,
    )?;
    expect_eq(&format!("{name} combiner codomain"), &t, &u_cod, u.span)?;
    let arg_ty = cx.infer(arg)?;
    let elem = expect_set(&format!("{name} argument"), &arg_ty, arg.span)?;
    expect_eq(
        &format!("{name} argument element type"),
        &s,
        &elem,
        arg.span,
    )?;
    Ok(t)
}

/// Type-check the shared shape of `sri`/`esr`: `e : t`, `i : s × t → t`,
/// `arg : {s}`; result `t`.
fn check_insert_recursor(
    name: &str,
    cx: &mut Checker,
    e: &Expr,
    i: &Expr,
    arg: &Expr,
) -> Result<Type, TypeError> {
    let t = cx.infer(e)?;
    let i_ty = cx.infer(i)?;
    let (dom, cod) = expect_fun(&format!("{name} step i"), &i_ty, i.span)?;
    let (s, t_in) = match dom {
        Type::Prod(a, b) => ((*a).clone(), (*b).clone()),
        other => {
            return Err(TypeError::new(
                TypeErrorKind::NotAProduct {
                    context: format!("{name} step domain"),
                    found: other,
                },
                i.span,
            ))
        }
    };
    expect_eq(&format!("{name} step accumulator"), &t, &t_in, i.span)?;
    expect_eq(&format!("{name} step result"), &t, &cod, i.span)?;
    let arg_ty = cx.infer(arg)?;
    let elem = expect_set(&format!("{name} argument"), &arg_ty, arg.span)?;
    expect_eq(
        &format!("{name} argument element type"),
        &s,
        &elem,
        arg.span,
    )?;
    Ok(t)
}

/// Type-check the shared shape of the iterators: `f : t → t`, `set : {s}`,
/// `init : t`; result `t`.
fn check_iterator(
    name: &str,
    cx: &mut Checker,
    f: &Expr,
    set: &Expr,
    init: &Expr,
) -> Result<Type, TypeError> {
    let f_ty = cx.infer(f)?;
    let (dom, cod) = expect_fun(&format!("{name} body"), &f_ty, f.span)?;
    expect_eq(
        &format!("{name} body must be an endofunction"),
        &dom,
        &cod,
        f.span,
    )?;
    let set_ty = cx.infer(set)?;
    expect_set(&format!("{name} counting set"), &set_ty, set.span)?;
    let init_ty = cx.infer(init)?;
    expect_eq(&format!("{name} initial value"), &dom, &init_ty, init.span)?;
    Ok(dom)
}

/// The side conditions a bounded form adds to its unbounded one: the result
/// type `t` is a PS-type and the bound has it.
fn check_bound(
    form: &dyn Form,
    cx: &mut Checker,
    t: Type,
    span: Option<Span>,
) -> Result<Type, TypeError> {
    if let Some(bound) = form.bound() {
        let name = form.name();
        expect_ps(&format!("{name} result"), &t, span)?;
        let b_ty = cx.infer(bound)?;
        expect_eq(&format!("{name} bound"), &t, &b_ty, bound.span)?;
    }
    Ok(t)
}

/// Infer the type of `expr` in context `env`, with external signatures from
/// `sigma`. Errors carry the span of the most specific locatable
/// subexpression (see the module docs).
pub fn infer(env: &TypeEnv, sigma: &ExternRegistry, expr: &Expr) -> Result<Type, TypeError> {
    resolve(expr).infer(&env.bindings, sigma)
}

impl Resolved<'_> {
    /// [`infer`] of a resolved plan whose free names `schema` types (a later
    /// binding of a name shadows an earlier one).
    pub fn infer(
        &self,
        schema: &[(String, Type)],
        sigma: &ExternRegistry,
    ) -> Result<Type, TypeError> {
        let typed = |x: &String| Some(schema.iter().rev().find(|(n, _)| n == x)?.1.clone());
        let free = self.free.iter().map(typed).collect();
        let binders = Vec::new();
        Checker {
            sigma,
            free,
            binders,
        }
        .infer(&self.expr)
    }
}

/// One walk of the checker over a resolved plan.
struct Checker<'a> {
    sigma: &'a ExternRegistry,
    /// The type of each free name of the plan, `None` for an unbound one.
    free: Vec<Option<Type>>,
    /// The types of the binders around the node being checked, innermost
    /// last: `Slot::Bound(d)` is entry `d` from the end.
    binders: Vec<Type>,
}

impl Checker<'_> {
    fn infer(&mut self, expr: &Expr) -> Result<Type, TypeError> {
        infer_kind(self, expr).map_err(|e| e.with_span_if_missing(expr.span))
    }

    /// The type of `body` with one more binder, of type `ty`, around it.
    fn bind(&mut self, ty: Type, body: &Expr) -> Result<Type, TypeError> {
        self.binders.push(ty);
        let body_ty = self.infer(body);
        self.binders.pop();
        body_ty
    }
}

fn infer_kind(cx: &mut Checker, expr: &Expr) -> Result<Type, TypeError> {
    match &expr.kind {
        ExprKind::Var(x) => {
            let ty = match x.slot {
                Slot::Bound(d) => cx.binders.iter().rev().nth(d),
                Slot::Free(i) => cx.free.get(i).and_then(Option::as_ref),
                Slot::Unresolved => None,
            };
            ty.cloned()
                .ok_or_else(|| TypeErrorKind::UnboundVariable(x.name.clone()).into())
        }
        ExprKind::Lam(_, ty, body) => Ok(Type::fun(ty.clone(), cx.bind(ty.clone(), body)?)),
        ExprKind::App(f, a) => {
            let f_ty = cx.infer(f)?;
            let (dom, cod) = expect_fun("application", &f_ty, f.span)?;
            let a_ty = cx.infer(a)?;
            expect_eq("application argument", &dom, &a_ty, a.span)?;
            Ok(cod)
        }
        ExprKind::Let(_, bound, body) => {
            let bound_ty = cx.infer(bound)?;
            cx.bind(bound_ty, body)
        }
        ExprKind::Unit => Ok(Type::Unit),
        ExprKind::Pair(a, b) => Ok(Type::prod(cx.infer(a)?, cx.infer(b)?)),
        ExprKind::Proj1(e) => match cx.infer(e)? {
            Type::Prod(a, _) => Ok(*a),
            other => Err(TypeError::new(
                TypeErrorKind::NotAProduct {
                    context: "pi1".to_string(),
                    found: other,
                },
                e.span,
            )),
        },
        ExprKind::Proj2(e) => match cx.infer(e)? {
            Type::Prod(_, b) => Ok(*b),
            other => Err(TypeError::new(
                TypeErrorKind::NotAProduct {
                    context: "pi2".to_string(),
                    found: other,
                },
                e.span,
            )),
        },
        ExprKind::Bool(_) => Ok(Type::Bool),
        ExprKind::If(c, t, e) => {
            let c_ty = cx.infer(c)?;
            expect_bool("if condition", &c_ty, c.span)?;
            let t_ty = cx.infer(t)?;
            let e_ty = cx.infer(e)?;
            expect_eq("if branches", &t_ty, &e_ty, e.span)?;
            Ok(t_ty)
        }
        ExprKind::Eq(a, b) => {
            let a_ty = cx.infer(a)?;
            let b_ty = cx.infer(b)?;
            expect_comparable("equality", &a_ty, a.span)?;
            expect_eq("equality operands", &a_ty, &b_ty, b.span)?;
            Ok(Type::Bool)
        }
        ExprKind::Leq(a, b) => {
            let a_ty = cx.infer(a)?;
            let b_ty = cx.infer(b)?;
            expect_comparable("order comparison", &a_ty, a.span)?;
            expect_eq("order comparison operands", &a_ty, &b_ty, b.span)?;
            Ok(Type::Bool)
        }
        ExprKind::Const(v) => Ok(value_type(v)),
        ExprKind::Empty(t) => Ok(Type::set(t.clone())),
        ExprKind::Singleton(e) => Ok(Type::set(cx.infer(e)?)),
        ExprKind::Union(a, b) => {
            let a_ty = cx.infer(a)?;
            expect_set("union left operand", &a_ty, a.span)?;
            let b_ty = cx.infer(b)?;
            expect_eq("union operands", &a_ty, &b_ty, b.span)?;
            Ok(a_ty)
        }
        ExprKind::IsEmpty(e) => {
            let ty = cx.infer(e)?;
            expect_set("isempty", &ty, e.span)?;
            Ok(Type::Bool)
        }
        ExprKind::Ext(f, e) => {
            let f_ty = cx.infer(f)?;
            let (dom, cod) = expect_fun("ext function", &f_ty, f.span)?;
            expect_set("ext function result", &cod, f.span)?;
            let e_ty = cx.infer(e)?;
            let elem = expect_set("ext argument", &e_ty, e.span)?;
            expect_eq("ext argument element type", &dom, &elem, e.span)?;
            Ok(cod)
        }
        ExprKind::UnionRec { form, e, f, u, arg } => {
            let t = check_union_recursor(form.name(), cx, e, f, u, arg)?;
            check_bound(form, cx, t, expr.span)
        }
        ExprKind::InsertRec { form, e, i, arg } => {
            let t = check_insert_recursor(form.name(), cx, e, i, arg)?;
            check_bound(form, cx, t, expr.span)
        }
        ExprKind::Iter { form, f, set, init } => {
            let t = check_iterator(form.name(), cx, f, set, init)?;
            check_bound(form, cx, t, expr.span)
        }
        ExprKind::Extern(name, args) => {
            let ext = (cx.sigma)
                .get(name)
                .ok_or_else(|| TypeErrorKind::UnknownExtern(name.clone()))?;
            if ext.params.len() != args.len() {
                return Err(TypeErrorKind::ExternArity {
                    name: name.clone(),
                    expected: ext.params.len(),
                    found: args.len(),
                }
                .into());
            }
            for (param, arg) in ext.params.iter().zip(args) {
                let arg_ty = cx.infer(arg)?;
                // `card` and similar polymorphic aggregates declare their set
                // parameter as `{D}`; accept any set type for a declared set
                // parameter whose element type is `D` (width subtyping would be
                // overkill here).
                let compatible = param == &arg_ty
                    || matches!(
                        (param, &arg_ty),
                        (Type::Set(p), Type::Set(_)) if **p == Type::Base
                    );
                if !compatible {
                    return Err(TypeError::new(
                        TypeErrorKind::Mismatch {
                            context: format!("extern `{name}` argument"),
                            expected: param.clone(),
                            found: arg_ty,
                        },
                        arg.span,
                    ));
                }
            }
            Ok(ext.result.clone())
        }
    }
}

/// Type-check an expression in the given context with the standard Σ registry.
pub fn typecheck(env: &TypeEnv, expr: &Expr) -> Result<Type, TypeError> {
    infer(env, &ExternRegistry::standard(), expr)
}

/// Type-check a closed expression with the standard Σ registry.
pub fn typecheck_closed(expr: &Expr) -> Result<Type, TypeError> {
    typecheck(&TypeEnv::new(), expr)
}

/// Check that every type occurring in the expression (binder annotations, empty
/// set annotations, literal types, and the final type) is *flat*, i.e. the
/// expression lies inside the restricted language NRA¹ of §3.
pub fn check_flat(env: &TypeEnv, sigma: &ExternRegistry, expr: &Expr) -> Result<Type, TypeError> {
    let ty = infer(env, sigma, expr)?;
    let mut bad: Option<(Type, Option<Span>)> = None;
    expr.visit(&mut |e| {
        let candidate = match &e.kind {
            ExprKind::Lam(_, t, _) => Some(t.clone()),
            ExprKind::Empty(t) => Some(Type::set(t.clone())),
            ExprKind::Const(v) => Some(value_type(v)),
            _ => None,
        };
        if let Some(t) = candidate {
            if !t.is_flat() && bad.is_none() {
                bad = Some((t, e.span));
            }
        }
    });
    if let Some((found, span)) = bad {
        return Err(TypeError::new(
            TypeErrorKind::NotFlat {
                context: "NRA¹ annotation".to_string(),
                found,
            },
            span.or(expr.span),
        ));
    }
    if !ty.is_flat() {
        return Err(TypeError::new(
            TypeErrorKind::NotFlat {
                context: "NRA¹ result".to_string(),
                found: ty,
            },
            expr.span,
        ));
    }
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_object::Value;

    fn tc(e: &Expr) -> Result<Type, TypeError> {
        typecheck_closed(e)
    }

    #[test]
    fn constants_and_pairs() {
        assert_eq!(tc(&Expr::atom(3)).unwrap(), Type::Base);
        assert_eq!(tc(&Expr::bool_val(true)).unwrap(), Type::Bool);
        assert_eq!(
            tc(&Expr::pair(Expr::atom(1), Expr::bool_val(false))).unwrap(),
            Type::prod(Type::Base, Type::Bool)
        );
    }

    #[test]
    fn lambda_and_application() {
        let id = Expr::lam("x", Type::Base, Expr::var("x"));
        assert_eq!(tc(&id).unwrap(), Type::fun(Type::Base, Type::Base));
        assert_eq!(tc(&Expr::app(id, Expr::atom(1))).unwrap(), Type::Base);
    }

    #[test]
    fn application_argument_mismatch_is_rejected() {
        let id = Expr::lam("x", Type::Base, Expr::var("x"));
        assert!(tc(&Expr::app(id, Expr::bool_val(true))).is_err());
    }

    #[test]
    fn unbound_variable_is_rejected() {
        assert!(matches!(
            tc(&Expr::var("nope")).map_err(|e| e.kind),
            Err(TypeErrorKind::UnboundVariable(_))
        ));
    }

    #[test]
    fn sets_and_ext() {
        let f = Expr::lam("x", Type::Base, Expr::singleton(Expr::var("x")));
        let e = Expr::ext(f, Expr::constant(Value::atom_set(vec![1, 2])));
        assert_eq!(tc(&e).unwrap(), Type::set(Type::Base));
    }

    #[test]
    fn ext_requires_set_valued_function() {
        let f = Expr::lam("x", Type::Base, Expr::var("x"));
        let e = Expr::ext(f, Expr::constant(Value::atom_set(vec![1])));
        assert!(tc(&e).is_err());
    }

    #[test]
    fn union_requires_matching_element_types() {
        let e = Expr::union(
            Expr::singleton(Expr::atom(1)),
            Expr::singleton(Expr::bool_val(true)),
        );
        assert!(tc(&e).is_err());
    }

    #[test]
    fn dcr_typing() {
        // parity : {D} -> bool
        let parity = Expr::dcr(
            Expr::bool_val(false),
            Expr::lam("y", Type::Base, Expr::bool_val(true)),
            Expr::lam2(
                "v1",
                "v2",
                Type::prod(Type::Bool, Type::Bool),
                Expr::ite(
                    Expr::var("v1"),
                    Expr::ite(Expr::var("v2"), Expr::bool_val(false), Expr::bool_val(true)),
                    Expr::var("v2"),
                ),
            ),
            Expr::constant(Value::atom_set(vec![1, 2, 3])),
        );
        assert_eq!(tc(&parity).unwrap(), Type::Bool);
    }

    #[test]
    fn bdcr_requires_ps_type() {
        // bdcr with a boolean accumulator must be rejected: bool is not a PS-type.
        let bad = Expr::bdcr(
            Expr::bool_val(false),
            Expr::lam("y", Type::Base, Expr::bool_val(true)),
            Expr::lam2("a", "b", Type::prod(Type::Bool, Type::Bool), Expr::var("a")),
            Expr::bool_val(true),
            Expr::constant(Value::atom_set(vec![1])),
        );
        assert!(matches!(
            tc(&bad).map_err(|e| e.kind),
            Err(TypeErrorKind::NotAPsType { .. })
        ));
    }

    #[test]
    fn log_loop_typing() {
        let ty = Type::set(Type::Base);
        let f = Expr::lam("r", ty.clone(), Expr::var("r"));
        let e = Expr::log_loop(
            f,
            Expr::constant(Value::atom_set(vec![1, 2, 3])),
            Expr::empty(Type::Base),
        );
        assert_eq!(tc(&e).unwrap(), ty);
    }

    #[test]
    fn extern_typing_and_arity() {
        let ok = Expr::extern_call("nat_add", vec![Expr::nat(1), Expr::nat(2)]);
        assert_eq!(tc(&ok).unwrap(), Type::Nat);
        let bad_arity = Expr::extern_call("nat_add", vec![Expr::nat(1)]);
        assert!(matches!(
            tc(&bad_arity).map_err(|e| e.kind),
            Err(TypeErrorKind::ExternArity { .. })
        ));
        let unknown = Expr::extern_call("no_such_fn", vec![]);
        assert!(matches!(
            tc(&unknown).map_err(|e| e.kind),
            Err(TypeErrorKind::UnknownExtern(_))
        ));
    }

    #[test]
    fn equality_rejected_at_function_type() {
        let id = Expr::lam("x", Type::Base, Expr::var("x"));
        let e = Expr::eq(id.clone(), id);
        assert!(matches!(
            tc(&e).map_err(|e| e.kind),
            Err(TypeErrorKind::NotComparable { .. })
        ));
    }

    #[test]
    fn flat_check_accepts_relational_and_rejects_nested() {
        let sigma = ExternRegistry::standard();
        let flat = Expr::union(
            Expr::constant(Value::relation_from_pairs(vec![(1, 2)])),
            Expr::empty(Type::prod(Type::Base, Type::Base)),
        );
        assert!(check_flat(&TypeEnv::new(), &sigma, &flat).is_ok());
        let nested = Expr::singleton(Expr::constant(Value::atom_set(vec![1])));
        assert!(matches!(
            check_flat(&TypeEnv::new(), &sigma, &nested).map_err(|e| e.kind),
            Err(TypeErrorKind::NotFlat { .. })
        ));
    }

    #[test]
    fn if_branches_must_agree() {
        let e = Expr::ite(Expr::bool_val(true), Expr::atom(1), Expr::bool_val(false));
        assert!(tc(&e).is_err());
    }

    #[test]
    fn let_binding_types_flow_through() {
        let e = Expr::let_in(
            "x",
            Expr::singleton(Expr::atom(1)),
            Expr::union(Expr::var("x"), Expr::var("x")),
        );
        assert_eq!(tc(&e).unwrap(), Type::set(Type::Base));
    }
}
