//! Abstract syntax of the NC query language.
//!
//! The constructs follow §3 (the nested relational calculus NRA), §2 (recursion
//! on sets), and §7.1 (the logarithmic iterators). Constructors that the paper
//! writes applied to an argument — `dcr(e, f, u)(x)`, `log-loop(f)(x, y)` — are
//! represented here together with that argument, which keeps the evaluator and
//! the cost model first-order.
//!
//! # Representation: [`Expr`] wraps [`ExprKind`] plus a source span
//!
//! An [`Expr`] is a struct pairing the structural [`ExprKind`] with an
//! `Option<`[`Span`]`>`: nodes built by the parser carry the byte range of the
//! surface text they came from; nodes built programmatically (the builder API,
//! the derived-form library, the source-to-source translations) carry `None`.
//! The span lives *inline* rather than in a side table keyed by node id
//! because the evaluator captures subtrees inside closures (`Arc<Expr>`
//! bodies) and applies them far from their original tree position — an
//! id-keyed table cannot survive that capture without threading ids through
//! every environment, whereas an inline span simply rides along.
//!
//! Equality ([`PartialEq`]) compares the `kind` only: spans are diagnostics
//! metadata, and `parse ∘ pretty ∘ parse` must remain the identity even though
//! the pretty text lays nodes out at different offsets.

use crate::span::Span;
use ncql_object::{Type, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An expression of the language: its structural [`ExprKind`] plus the source
/// span it was parsed from (`None` for programmatically built nodes).
///
/// Equality and the derived hash of [`ExprKind`] ignore spans — two
/// expressions are equal iff they are structurally equal.
#[derive(Debug, Clone)]
pub struct Expr {
    /// The structural node.
    pub kind: ExprKind,
    /// The byte range of the surface text this node was parsed from.
    pub span: Option<Span>,
}

impl PartialEq for Expr {
    /// Structural, span-agnostic equality (see the module docs).
    fn eq(&self, other: &Expr) -> bool {
        self.kind == other.kind
    }
}

impl Eq for Expr {}

impl From<ExprKind> for Expr {
    fn from(kind: ExprKind) -> Expr {
        Expr { kind, span: None }
    }
}

/// The structural cases of an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    // ----- variables, functions, let -----
    /// A variable.
    Var(String),
    /// λ-abstraction `λx:s. e` (the paper writes `λxˢ.e`).
    Lam(String, Type, Arc<Expr>),
    /// Function application `f(e)`.
    App(Box<Expr>, Box<Expr>),
    /// `let x = e1 in e2` — definable as `(λx. e2)(e1)`, kept primitive for
    /// readability of generated programs.
    Let(String, Box<Expr>, Box<Expr>),

    // ----- tuples -----
    /// The empty tuple `()`.
    Unit,
    /// Pair formation `(e1, e2)`.
    Pair(Box<Expr>, Box<Expr>),
    /// First projection `π₁ e`.
    Proj1(Box<Expr>),
    /// Second projection `π₂ e`.
    Proj2(Box<Expr>),

    // ----- booleans and comparisons -----
    /// A boolean constant.
    Bool(bool),
    /// Conditional `if e then e1 else e2`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Equality `e1 = e2`. The paper states equality at base type and notes that
    /// equality at all (object) types is expressible in NRA; we admit it at all
    /// object types directly.
    Eq(Box<Expr>, Box<Expr>),
    /// The order predicate `e1 ≤ e2` over the ordered base type, lifted to all
    /// object types (§3: "the order relation can be lifted to all types"). This
    /// is the external function that turns the language into `NRA(≤)`.
    Leq(Box<Expr>, Box<Expr>),

    // ----- constants -----
    /// An arbitrary complex-object literal (atoms, naturals, whole relations, …).
    Const(Value),

    // ----- sets -----
    /// The empty set `∅ : {t}` (annotated with its element type).
    Empty(Type),
    /// Singleton `{e}`.
    Singleton(Box<Expr>),
    /// Union `e1 ∪ e2`.
    Union(Box<Expr>, Box<Expr>),
    /// Emptiness test `empty(e)`.
    IsEmpty(Box<Expr>),
    /// `ext(f)(e)`: apply `f : s → {t}` to every element of `e : {s}` and union
    /// the results. Kept primitive (rather than derived from `sru`) because it is
    /// a *single* parallel step (§3).
    Ext(Box<Expr>, Box<Expr>),

    // ----- recursion on sets (§2) and iterators (§7.1) -----
    /// A recursor on the union presentation, `form(e, f, u)(arg)`:
    /// `φ(∅)=e`, `φ({y})=f(y)`, `φ(s₁∪s₂)=u(φ(s₁),φ(s₂))`.
    UnionRec {
        form: UnionForm,
        e: Box<Expr>,
        f: Box<Expr>,
        u: Box<Expr>,
        arg: Box<Expr>,
    },
    /// A recursor on the insert presentation, `form(e, i)(arg)`:
    /// `φ(∅)=e`, `φ(y ⊲ s)=i(y, φ(s))`.
    InsertRec {
        form: InsertForm,
        e: Box<Expr>,
        i: Box<Expr>,
        arg: Box<Expr>,
    },
    /// An iterator, `form(f)(set, init)`: `f` applied to `init` a number of
    /// times fixed by `|set|`.
    Iter {
        form: IterForm,
        f: Box<Expr>,
        set: Box<Expr>,
        init: Box<Expr>,
    },

    // ----- external functions Σ (Proposition 6.3) -----
    /// Application of a named external function to a list of arguments.
    Extern(String, Vec<Expr>),
}

/// Which recursor an [`ExprKind::UnionRec`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnionForm {
    /// Divide-and-conquer recursion `dcr(e, f, u)(arg)`. Well-defined when `u`
    /// is associative and commutative with identity `e` on a set containing
    /// `e` and the range of `f`.
    Dcr,
    /// Structural recursion on the union presentation `sru(e, f, u)(arg)` —
    /// like `dcr` but `u` must additionally be idempotent.
    Sru,
    /// Bounded divide-and-conquer recursion `bdcr(e, f, u, b)(arg)`, defined as
    /// `dcr(e ⊓ b, f ⊓ b, u ⊓ b)(arg)` where `⊓ b` intersects componentwise with
    /// the bound `b` at a PS-type (§2). This is the construct that stays inside
    /// NC over complex objects (Theorem 6.1).
    BDcr(Box<Expr>),
}

/// Which recursor an [`ExprKind::InsertRec`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertForm {
    /// Structural recursion on the insert presentation `sri(e, i)(arg)`, with
    /// `i` i-commutative and i-idempotent.
    Sri,
    /// Element-step recursion `esr(e, i)(arg)` — like `sri` but the step is only
    /// taken for elements not already seen (`i` need not be i-idempotent).
    Esr,
    /// Bounded insert recursion `bsri(e, i, b)(arg) = sri(e ⊓ b, i ⊓ b)(arg)`.
    BSri(Box<Expr>),
}

/// Which iterator an [`ExprKind::Iter`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IterForm {
    /// `log-loop(f)(set, init) = f^(⌈log(|set|+1)⌉)(init)`.
    LogLoop,
    /// `loop(f)(set, init) = f^(|set|)(init)`.
    Loop,
    /// Bounded logarithmic iterator `blog-loop(f, b)(set, init) =
    /// log-loop(f ⊓ b)(set, init ⊓ b)`.
    BLogLoop(Box<Expr>),
    /// Bounded iterator `bloop(f, b)(set, init) = loop(f ⊓ b)(set, init ⊓ b)`.
    BLoop(Box<Expr>),
}

/// What the form tag of a recursion node defines. §2 defines each bounded
/// form by its unbounded one (`bdcr(e, f, u, b) = dcr(e ⊓ b, f ⊓ b, u ⊓ b)`),
/// and `dcr`/`sru`, `sri`/`esr` differ only in an algebraic precondition, so
/// a form is its spelling plus an optional bound. The `parts` rows below are
/// the only definitions of the ten spellings: the parser, both printers and
/// every diagnostic read them from here.
pub trait Form {
    /// `(keyword, name, bound)`, as the three accessors return them.
    fn parts(&self) -> (&'static str, &'static str, Option<&Expr>);
    /// The surface-syntax keyword (`dcr`, `logloop`, …).
    fn keyword(&self) -> &'static str {
        self.parts().0
    }
    /// The paper's name, used in diagnostics (`log-loop` for `logloop`).
    fn name(&self) -> &'static str {
        self.parts().1
    }
    /// The bound `b` of a bounded form.
    fn bound(&self) -> Option<&Expr> {
        self.parts().2
    }
}

impl Form for UnionForm {
    fn parts(&self) -> (&'static str, &'static str, Option<&Expr>) {
        match self {
            UnionForm::Dcr => ("dcr", "dcr", None),
            UnionForm::Sru => ("sru", "sru", None),
            UnionForm::BDcr(b) => ("bdcr", "bdcr", Some(b)),
        }
    }
}

impl Form for InsertForm {
    fn parts(&self) -> (&'static str, &'static str, Option<&Expr>) {
        match self {
            InsertForm::Sri => ("sri", "sri", None),
            InsertForm::Esr => ("esr", "esr", None),
            InsertForm::BSri(b) => ("bsri", "bsri", Some(b)),
        }
    }
}

impl Form for IterForm {
    fn parts(&self) -> (&'static str, &'static str, Option<&Expr>) {
        match self {
            IterForm::LogLoop => ("logloop", "log-loop", None),
            IterForm::Loop => ("loop", "loop", None),
            IterForm::BLogLoop(b) => ("blogloop", "blog-loop", Some(b)),
            IterForm::BLoop(b) => ("bloop", "bloop", Some(b)),
        }
    }
}

impl IterForm {
    /// Whether the body runs `⌈log(|set|+1)⌉` times rather than `|set|` times.
    pub fn is_log(&self) -> bool {
        matches!(self, IterForm::LogLoop | IterForm::BLogLoop(_))
    }
}

impl ExprKind {
    /// The form tag of a recursor or iterator node.
    pub fn form(&self) -> Option<&dyn Form> {
        match self {
            ExprKind::UnionRec { form, .. } => Some(form),
            ExprKind::InsertRec { form, .. } => Some(form),
            ExprKind::Iter { form, .. } => Some(form),
            _ => None,
        }
    }
}

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Generate a fresh variable name with the given stem. Used by the derived-form
/// builders and the source-to-source translations so that generated binders never
/// capture user variables (user programs cannot contain `%` in identifiers).
pub fn fresh_var(stem: &str) -> String {
    let n = FRESH_COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("%{stem}{n}")
}

impl Expr {
    // ----- convenience constructors -----

    /// Attach (or replace) the source span of this node, leaving children
    /// untouched. The parser calls this on every node it builds.
    pub fn at(mut self, span: Span) -> Expr {
        self.span = Some(span);
        self
    }

    /// A variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        ExprKind::Var(name.into()).into()
    }

    /// λ-abstraction.
    pub fn lam(name: impl Into<String>, ty: Type, body: Expr) -> Expr {
        ExprKind::Lam(name.into(), ty, Arc::new(body)).into()
    }

    /// A λ-abstraction over a pair, `λ(x, y). e`, desugared as the paper does:
    /// `λz. e[π₁ z / x, π₂ z / y]` — realised here with a fresh variable and two
    /// `let` bindings, which avoids substitution.
    pub fn lam2(x: impl Into<String>, y: impl Into<String>, ty: Type, body: Expr) -> Expr {
        let z = fresh_var("pair");
        let (tx, ty_snd) = match &ty {
            Type::Prod(a, b) => ((**a).clone(), (**b).clone()),
            _ => (ty.clone(), ty.clone()),
        };
        let _ = (tx, ty_snd);
        Expr::lam(
            z.clone(),
            ty,
            Expr::let_in(
                x,
                Expr::proj1(Expr::var(z.clone())),
                Expr::let_in(y, Expr::proj2(Expr::var(z)), body),
            ),
        )
    }

    /// Function application.
    pub fn app(f: Expr, arg: Expr) -> Expr {
        ExprKind::App(Box::new(f), Box::new(arg)).into()
    }

    /// `let x = e1 in e2`.
    pub fn let_in(name: impl Into<String>, bound: Expr, body: Expr) -> Expr {
        ExprKind::Let(name.into(), Box::new(bound), Box::new(body)).into()
    }

    /// The empty tuple `()`.
    pub fn unit() -> Expr {
        ExprKind::Unit.into()
    }

    /// Pair formation.
    pub fn pair(a: Expr, b: Expr) -> Expr {
        ExprKind::Pair(Box::new(a), Box::new(b)).into()
    }

    /// First projection.
    pub fn proj1(e: Expr) -> Expr {
        ExprKind::Proj1(Box::new(e)).into()
    }

    /// Second projection.
    pub fn proj2(e: Expr) -> Expr {
        ExprKind::Proj2(Box::new(e)).into()
    }

    /// A boolean constant.
    pub fn bool_val(b: bool) -> Expr {
        ExprKind::Bool(b).into()
    }

    /// Conditional.
    pub fn ite(c: Expr, t: Expr, f: Expr) -> Expr {
        ExprKind::If(Box::new(c), Box::new(t), Box::new(f)).into()
    }

    /// Equality.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        ExprKind::Eq(Box::new(a), Box::new(b)).into()
    }

    /// Order predicate.
    pub fn leq(a: Expr, b: Expr) -> Expr {
        ExprKind::Leq(Box::new(a), Box::new(b)).into()
    }

    /// A complex-object literal.
    pub fn constant(v: Value) -> Expr {
        ExprKind::Const(v).into()
    }

    /// The empty set `∅ : {t}` with the given element type.
    pub fn empty(elem_ty: Type) -> Expr {
        ExprKind::Empty(elem_ty).into()
    }

    /// Singleton set.
    pub fn singleton(e: Expr) -> Expr {
        ExprKind::Singleton(Box::new(e)).into()
    }

    /// Union.
    pub fn union(a: Expr, b: Expr) -> Expr {
        ExprKind::Union(Box::new(a), Box::new(b)).into()
    }

    /// N-ary union (empty list gives `∅ : {t}` using the provided element type).
    pub fn union_all(elem_ty: Type, mut parts: Vec<Expr>) -> Expr {
        match parts.len() {
            0 => Expr::empty(elem_ty),
            1 => parts.pop().expect("len checked"),
            _ => {
                let mut it = parts.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, Expr::union)
            }
        }
    }

    /// Emptiness test.
    pub fn is_empty(e: Expr) -> Expr {
        ExprKind::IsEmpty(Box::new(e)).into()
    }

    /// `ext(f)(e)`.
    pub fn ext(f: Expr, e: Expr) -> Expr {
        ExprKind::Ext(Box::new(f), Box::new(e)).into()
    }

    /// A constant atom.
    pub fn atom(a: u64) -> Expr {
        Expr::constant(Value::Atom(a))
    }

    /// A constant natural number (external base type).
    pub fn nat(n: u64) -> Expr {
        Expr::constant(Value::Nat(n))
    }

    fn union_rec(form: UnionForm, e: Expr, f: Expr, u: Expr, arg: Expr) -> Expr {
        ExprKind::UnionRec {
            form,
            e: Box::new(e),
            f: Box::new(f),
            u: Box::new(u),
            arg: Box::new(arg),
        }
        .into()
    }

    fn insert_rec(form: InsertForm, e: Expr, i: Expr, arg: Expr) -> Expr {
        ExprKind::InsertRec {
            form,
            e: Box::new(e),
            i: Box::new(i),
            arg: Box::new(arg),
        }
        .into()
    }

    fn iter(form: IterForm, f: Expr, set: Expr, init: Expr) -> Expr {
        ExprKind::Iter {
            form,
            f: Box::new(f),
            set: Box::new(set),
            init: Box::new(init),
        }
        .into()
    }

    /// `dcr(e, f, u)(arg)`.
    pub fn dcr(e: Expr, f: Expr, u: Expr, arg: Expr) -> Expr {
        Expr::union_rec(UnionForm::Dcr, e, f, u, arg)
    }

    /// `sru(e, f, u)(arg)`.
    pub fn sru(e: Expr, f: Expr, u: Expr, arg: Expr) -> Expr {
        Expr::union_rec(UnionForm::Sru, e, f, u, arg)
    }

    /// `sri(e, i)(arg)`.
    pub fn sri(e: Expr, i: Expr, arg: Expr) -> Expr {
        Expr::insert_rec(InsertForm::Sri, e, i, arg)
    }

    /// `esr(e, i)(arg)`.
    pub fn esr(e: Expr, i: Expr, arg: Expr) -> Expr {
        Expr::insert_rec(InsertForm::Esr, e, i, arg)
    }

    /// `bdcr(e, f, u, b)(arg)`.
    pub fn bdcr(e: Expr, f: Expr, u: Expr, bound: Expr, arg: Expr) -> Expr {
        Expr::union_rec(UnionForm::BDcr(Box::new(bound)), e, f, u, arg)
    }

    /// `bsri(e, i, b)(arg)`.
    pub fn bsri(e: Expr, i: Expr, bound: Expr, arg: Expr) -> Expr {
        Expr::insert_rec(InsertForm::BSri(Box::new(bound)), e, i, arg)
    }

    /// `log-loop(f)(set, init)`.
    pub fn log_loop(f: Expr, set: Expr, init: Expr) -> Expr {
        Expr::iter(IterForm::LogLoop, f, set, init)
    }

    /// `loop(f)(set, init)`.
    pub fn loop_(f: Expr, set: Expr, init: Expr) -> Expr {
        Expr::iter(IterForm::Loop, f, set, init)
    }

    /// `blog-loop(f, b)(set, init)`.
    pub fn blog_loop(f: Expr, bound: Expr, set: Expr, init: Expr) -> Expr {
        Expr::iter(IterForm::BLogLoop(Box::new(bound)), f, set, init)
    }

    /// `bloop(f, b)(set, init)`.
    pub fn bloop(f: Expr, bound: Expr, set: Expr, init: Expr) -> Expr {
        Expr::iter(IterForm::BLoop(Box::new(bound)), f, set, init)
    }

    /// One node of each of the paper's ten recursion forms, every operand
    /// `()`. A reader of the surface syntax turns a keyword into a node by
    /// finding the form that spells it ([`Form::keyword`]) and supplying the
    /// operands through [`Expr::with_children`].
    pub fn recursion_forms() -> &'static [Expr; 10] {
        static FORMS: OnceLock<[Expr; 10]> = OnceLock::new();
        FORMS.get_or_init(|| {
            let o = Expr::unit;
            [
                Expr::dcr(o(), o(), o(), o()),
                Expr::sru(o(), o(), o(), o()),
                Expr::bdcr(o(), o(), o(), o(), o()),
                Expr::sri(o(), o(), o()),
                Expr::esr(o(), o(), o()),
                Expr::bsri(o(), o(), o(), o()),
                Expr::log_loop(o(), o(), o()),
                Expr::loop_(o(), o(), o()),
                Expr::blog_loop(o(), o(), o(), o()),
                Expr::bloop(o(), o(), o(), o()),
            ]
        })
    }

    /// Application of a named external function.
    pub fn extern_call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        ExprKind::Extern(name.into(), args).into()
    }

    /// Rebuild this node with its immediate children replaced, keeping the
    /// node's kind, form, span, binder names, and type annotations. The
    /// replacement vector must supply exactly one expression per
    /// [`Expr::children`] entry, in the same order — this is the write-side
    /// twin of that visitor, and the rewrite engine's only way to reconstruct
    /// an ancestor spine.
    ///
    /// # Panics
    ///
    /// Panics if `new.len()` differs from `self.children().len()`.
    pub fn with_children(&self, new: Vec<Expr>) -> Expr {
        let expected = self.children().len();
        assert_eq!(
            new.len(),
            expected,
            "with_children: node has {expected} children, got {}",
            new.len()
        );
        if let ExprKind::Extern(name, _) = &self.kind {
            return Expr {
                kind: ExprKind::Extern(name.clone(), new),
                span: self.span,
            };
        }
        let mut it = new.into_iter();
        let mut next = || Box::new(it.next().expect("arity checked above"));
        let kind = match &self.kind {
            ExprKind::Var(_)
            | ExprKind::Unit
            | ExprKind::Bool(_)
            | ExprKind::Const(_)
            | ExprKind::Empty(_) => self.kind.clone(),
            ExprKind::Lam(x, ty, _) => ExprKind::Lam(x.clone(), ty.clone(), Arc::from(next())),
            ExprKind::App(..) => ExprKind::App(next(), next()),
            ExprKind::Pair(..) => ExprKind::Pair(next(), next()),
            ExprKind::Eq(..) => ExprKind::Eq(next(), next()),
            ExprKind::Leq(..) => ExprKind::Leq(next(), next()),
            ExprKind::Union(..) => ExprKind::Union(next(), next()),
            ExprKind::Ext(..) => ExprKind::Ext(next(), next()),
            ExprKind::Let(x, ..) => ExprKind::Let(x.clone(), next(), next()),
            ExprKind::Proj1(_) => ExprKind::Proj1(next()),
            ExprKind::Proj2(_) => ExprKind::Proj2(next()),
            ExprKind::Singleton(_) => ExprKind::Singleton(next()),
            ExprKind::IsEmpty(_) => ExprKind::IsEmpty(next()),
            ExprKind::If(..) => ExprKind::If(next(), next(), next()),
            // Fields are evaluated as written, so they are written in
            // `children` order: the bound sits among the operands.
            ExprKind::UnionRec { form, .. } => ExprKind::UnionRec {
                e: next(),
                f: next(),
                u: next(),
                form: match form {
                    UnionForm::BDcr(_) => UnionForm::BDcr(next()),
                    unbounded => unbounded.clone(),
                },
                arg: next(),
            },
            ExprKind::InsertRec { form, .. } => ExprKind::InsertRec {
                e: next(),
                i: next(),
                form: match form {
                    InsertForm::BSri(_) => InsertForm::BSri(next()),
                    unbounded => unbounded.clone(),
                },
                arg: next(),
            },
            ExprKind::Iter { form, .. } => ExprKind::Iter {
                f: next(),
                form: match form {
                    IterForm::BLogLoop(_) => IterForm::BLogLoop(next()),
                    IterForm::BLoop(_) => IterForm::BLoop(next()),
                    unbounded => unbounded.clone(),
                },
                set: next(),
                init: next(),
            },
            ExprKind::Extern(..) => unreachable!("Extern handled above"),
        };
        debug_assert!(it.next().is_none(), "with_children: arity checked above");
        Expr {
            kind,
            span: self.span,
        }
    }

    /// `f(arg)` with the administrative redex removed when `f` is a literal
    /// λ-abstraction: `(λx. b)(arg)` becomes `let x = arg in b`, anything else
    /// stays an [`ExprKind::App`]. The `let` form keeps generated plans
    /// readable, skips the closure and its application, and gives the rewrite
    /// rules one shared way to compose function bodies without substitution.
    pub fn apply_lam(f: Expr, arg: Expr) -> Expr {
        match f.kind {
            ExprKind::Lam(x, _, body) => {
                let span = f.span;
                let mut e = Expr::let_in(x, arg, Arc::unwrap_or_clone(body));
                e.span = span;
                e
            }
            kind => Expr::app(Expr { kind, span: f.span }, arg),
        }
    }

    /// Number of AST nodes (used by tests and the translation-overhead reports).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Visit every sub-expression (pre-order). Built on [`Expr::children`] so
    /// every traversal in the workspace walks the AST through one shape-aware
    /// function.
    pub fn visit<F: FnMut(&Expr)>(&self, f: &mut F) {
        f(self);
        for child in self.children() {
            child.expr.visit(f);
        }
    }

    /// The immediate sub-expressions of this node, in evaluation/pre-order,
    /// each annotated with the binding structure the analyses need: which
    /// variable (if any) comes into scope for that child, and whether the
    /// child is the *iterated* operand of a recursor or iterator (the operand
    /// whose nesting stratifies the AC level per Theorems 6.1/6.2).
    ///
    /// This is the single shared visitor: `visit`, `analysis::free_vars`,
    /// `analysis::free_var_span`, `analysis::recursion_depth` and the
    /// `analyze` lint pass all walk the tree through it, so a new `ExprKind`
    /// variant only has to teach *this* function its shape.
    pub fn children(&self) -> Vec<Child<'_>> {
        fn plain(expr: &Expr) -> Child<'_> {
            Child {
                expr,
                binds: None,
                iterated: false,
            }
        }
        fn bound<'a>(expr: &'a Expr, name: &'a str) -> Child<'a> {
            Child {
                expr,
                binds: Some(name),
                iterated: false,
            }
        }
        fn iterated(expr: &Expr) -> Child<'_> {
            Child {
                expr,
                binds: None,
                iterated: true,
            }
        }
        /// `params`, then the form's bound if it has one, then `args` — the
        /// order every recursion form lists its operands in.
        fn with_bound<'a>(
            mut params: Vec<Child<'a>>,
            form: &'a dyn Form,
            args: &[&'a Expr],
        ) -> Vec<Child<'a>> {
            params.extend(
                form.bound()
                    .into_iter()
                    .chain(args.iter().copied())
                    .map(plain),
            );
            params
        }
        match &self.kind {
            ExprKind::Var(_)
            | ExprKind::Unit
            | ExprKind::Bool(_)
            | ExprKind::Const(_)
            | ExprKind::Empty(_) => Vec::new(),
            ExprKind::Lam(x, _, b) => vec![bound(b, x)],
            ExprKind::App(a, b)
            | ExprKind::Pair(a, b)
            | ExprKind::Eq(a, b)
            | ExprKind::Leq(a, b)
            | ExprKind::Union(a, b)
            | ExprKind::Ext(a, b) => vec![plain(a), plain(b)],
            ExprKind::Let(x, a, b) => vec![plain(a), bound(b, x)],
            ExprKind::Proj1(a)
            | ExprKind::Proj2(a)
            | ExprKind::Singleton(a)
            | ExprKind::IsEmpty(a) => vec![plain(a)],
            ExprKind::If(c, t, e) => vec![plain(c), plain(t), plain(e)],
            ExprKind::UnionRec { form, e, f, u, arg } => {
                with_bound(vec![plain(e), plain(f), iterated(u)], form, &[arg])
            }
            ExprKind::InsertRec { form, e, i, arg } => {
                with_bound(vec![plain(e), iterated(i)], form, &[arg])
            }
            ExprKind::Iter { form, f, set, init } => {
                with_bound(vec![iterated(f)], form, &[set, init])
            }
            ExprKind::Extern(_, args) => args.iter().map(plain).collect(),
        }
    }
}

/// One immediate sub-expression of an [`Expr`], as yielded by
/// [`Expr::children`], annotated with the enclosing node's binding structure.
#[derive(Debug, Clone, Copy)]
pub struct Child<'a> {
    /// The sub-expression itself.
    pub expr: &'a Expr,
    /// The variable the enclosing node brings into scope *for this child*
    /// (`Lam` bodies and `Let` bodies; `None` everywhere else, including a
    /// `Let`'s right-hand side).
    pub binds: Option<&'a str>,
    /// Whether this child is the iterated operand — the combiner of a
    /// `dcr`/`sru`/`bdcr`, the insert step of an `sri`/`esr`/`bsri`, or the
    /// iterated function of a `loop`/`log-loop` — whose own recursion depth
    /// is incremented when stratifying `dcr^(k)` nesting.
    pub iterated: bool,
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ExprKind::Var(x) => write!(f, "{x}"),
            ExprKind::Lam(x, ty, b) => write!(f, "(\\{x}: {ty}. {b})"),
            ExprKind::App(a, b) => write!(f, "{a}({b})"),
            ExprKind::Let(x, a, b) => write!(f, "(let {x} = {a} in {b})"),
            ExprKind::Unit => write!(f, "()"),
            ExprKind::Pair(a, b) => write!(f, "({a}, {b})"),
            ExprKind::Proj1(a) => write!(f, "pi1 {a}"),
            ExprKind::Proj2(a) => write!(f, "pi2 {a}"),
            ExprKind::Bool(b) => write!(f, "{b}"),
            ExprKind::If(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            ExprKind::Eq(a, b) => write!(f, "({a} = {b})"),
            ExprKind::Leq(a, b) => write!(f, "({a} <= {b})"),
            ExprKind::Const(v) => write!(f, "{v}"),
            ExprKind::Empty(ty) => write!(f, "(empty : {{{ty}}})"),
            ExprKind::Singleton(a) => write!(f, "{{{a}}}"),
            ExprKind::Union(a, b) => write!(f, "({a} union {b})"),
            ExprKind::IsEmpty(a) => write!(f, "isempty({a})"),
            ExprKind::Ext(g, e) => write!(f, "ext({g})({e})"),
            ExprKind::UnionRec { .. } | ExprKind::InsertRec { .. } => self.fmt_curried(f, 1),
            ExprKind::Iter { .. } => self.fmt_curried(f, 2),
            ExprKind::Extern(name, args) => {
                write!(f, "{name}(")?;
                comma_separated(f, args)?;
                write!(f, ")")
            }
        }
    }
}

fn comma_separated<'a>(
    f: &mut fmt::Formatter<'_>,
    items: impl IntoIterator<Item = &'a Expr>,
) -> fmt::Result {
    for (i, a) in items.into_iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    Ok(())
}

impl Expr {
    /// The paper's curried layout of a recursion form, `keyword(…)(args)`: the
    /// last `args` operands are the ones the form is applied to.
    fn fmt_curried(&self, f: &mut fmt::Formatter<'_>, args: usize) -> fmt::Result {
        let form = self.kind.form().expect("only recursion forms are curried");
        let operands = self.children();
        let (params, args) = operands.split_at(operands.len() - args);
        write!(f, "{}(", form.keyword())?;
        comma_separated(f, params.iter().map(|c| c.expr))?;
        write!(f, ")(")?;
        comma_separated(f, args.iter().map(|c| c.expr))?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_are_distinct() {
        let a = fresh_var("x");
        let b = fresh_var("x");
        assert_ne!(a, b);
        assert!(a.starts_with('%'));
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::union(Expr::singleton(Expr::atom(1)), Expr::empty(Type::Base));
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn display_is_reasonable() {
        let e = Expr::ite(
            Expr::eq(Expr::var("x"), Expr::atom(1)),
            Expr::bool_val(true),
            Expr::bool_val(false),
        );
        assert_eq!(e.to_string(), "(if (x = a1) then true else false)");
    }

    /// The ten constructors over operands `a1, a2, …` in argument order, each
    /// with its surface keyword and its `Display` form.
    fn ten_forms() -> [(&'static str, &'static str, Expr); 10] {
        let o = Expr::atom;
        [
            (
                "dcr",
                "dcr(a1, a2, a3)(a4)",
                Expr::dcr(o(1), o(2), o(3), o(4)),
            ),
            (
                "sru",
                "sru(a1, a2, a3)(a4)",
                Expr::sru(o(1), o(2), o(3), o(4)),
            ),
            (
                "bdcr",
                "bdcr(a1, a2, a3, a4)(a5)",
                Expr::bdcr(o(1), o(2), o(3), o(4), o(5)),
            ),
            ("sri", "sri(a1, a2)(a3)", Expr::sri(o(1), o(2), o(3))),
            ("esr", "esr(a1, a2)(a3)", Expr::esr(o(1), o(2), o(3))),
            (
                "bsri",
                "bsri(a1, a2, a3)(a4)",
                Expr::bsri(o(1), o(2), o(3), o(4)),
            ),
            (
                "logloop",
                "logloop(a1)(a2, a3)",
                Expr::log_loop(o(1), o(2), o(3)),
            ),
            ("loop", "loop(a1)(a2, a3)", Expr::loop_(o(1), o(2), o(3))),
            (
                "blogloop",
                "blogloop(a1, a2)(a3, a4)",
                Expr::blog_loop(o(1), o(2), o(3), o(4)),
            ),
            (
                "bloop",
                "bloop(a1, a2)(a3, a4)",
                Expr::bloop(o(1), o(2), o(3), o(4)),
            ),
        ]
    }

    #[test]
    fn every_form_displays_its_tags_keyword_and_rebuilds_from_its_children() {
        for (keyword, display, e) in ten_forms() {
            assert_eq!(e.kind.form().expect("a recursion form").keyword(), keyword);
            assert_eq!(e.to_string(), display);
            // `children` lists the operands in constructor order …
            let kids: Vec<Expr> = e.children().iter().map(|c| c.expr.clone()).collect();
            let n = kids.len() as u64;
            assert_eq!(kids, (1..=n).map(Expr::atom).collect::<Vec<_>>());
            // … and `with_children` puts replacements back into the same
            // slots of the same form.
            assert_eq!(e.with_children(kids), e);
            let moved: Vec<Expr> = (11..=10 + n).map(Expr::atom).collect();
            let rebuilt = e.with_children(moved.clone());
            assert_eq!(rebuilt.kind.form().unwrap().keyword(), keyword);
            let kids: Vec<Expr> = rebuilt.children().iter().map(|c| c.expr.clone()).collect();
            assert_eq!(kids, moved);
        }
    }

    #[test]
    fn recursion_forms_lists_exactly_the_ten_constructors() {
        let listed: Vec<&str> = Expr::recursion_forms()
            .iter()
            .map(|e| e.kind.form().expect("a recursion form").keyword())
            .collect();
        assert_eq!(listed, ten_forms().map(|(keyword, _, _)| keyword));
    }

    #[test]
    fn lam2_projects_components() {
        let e = Expr::lam2("a", "b", Type::prod(Type::Base, Type::Base), Expr::var("a"));
        // Structure: Lam(z, _, Let(a, pi1 z, Let(b, pi2 z, a)))
        match e.kind {
            ExprKind::Lam(_, _, body) => match body.kind {
                ExprKind::Let(ref a, _, _) => assert_eq!(a, "a"),
                _ => panic!("expected let"),
            },
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn union_all_handles_empty_and_singleton() {
        assert_eq!(Expr::union_all(Type::Base, vec![]), Expr::empty(Type::Base));
        assert_eq!(
            Expr::union_all(Type::Base, vec![Expr::atom(1)]),
            Expr::atom(1)
        );
        let e = Expr::union_all(
            Type::Base,
            vec![Expr::atom(1), Expr::atom(2), Expr::atom(3)],
        );
        assert_eq!(e.size(), 5);
    }

    #[test]
    fn equality_ignores_spans() {
        let bare = Expr::atom(1);
        let placed = Expr::atom(1).at(Span::new(3, 5));
        assert_eq!(bare, placed);
        assert_eq!(placed.span, Some(Span::new(3, 5)));
        // ...including spans buried in children.
        let u1 = Expr::union(Expr::atom(1).at(Span::new(0, 2)), Expr::atom(2));
        let u2 = Expr::union(Expr::atom(1), Expr::atom(2).at(Span::new(9, 11)));
        assert_eq!(u1, u2);
    }
}
