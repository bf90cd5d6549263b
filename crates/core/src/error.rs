//! Error types for type checking and evaluation, carrying source spans.
//!
//! Both error families are *located*: a [`TypeError`] records the span of the
//! offending AST node, and every [`EvalError`] variant carries an
//! `Option<`[`Span`]`>` naming the innermost spanned subexpression that was
//! being evaluated when the failure surfaced. Spans are `None` for errors
//! raised from programmatically built (span-less) expressions.
//!
//! Equality of [`EvalError`] is span-agnostic: the differential suites compare
//! errors *across backends*, and under the parallel backend the node at which
//! a shared resource budget trips is scheduling-dependent even when the error
//! kind is fully deterministic. The span is diagnostics metadata — compare
//! [`EvalError::span`] explicitly when location matters.

use crate::span::Span;
use ncql_object::Type;
use std::fmt;

/// The structural cases of a type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeErrorKind {
    /// A variable was used but not bound in the context.
    UnboundVariable(String),
    /// Two types that should have matched did not.
    Mismatch {
        /// Where the mismatch was detected (constructor name).
        context: String,
        /// The expected type.
        expected: Type,
        /// The type that was found.
        found: Type,
    },
    /// An expression of function type was expected.
    NotAFunction { context: String, found: Type },
    /// An expression of set type was expected.
    NotASet { context: String, found: Type },
    /// An expression of product type was expected.
    NotAProduct { context: String, found: Type },
    /// An expression of boolean type was expected.
    NotABool { context: String, found: Type },
    /// A bounded recursion construct requires its result type to be a PS-type.
    NotAPsType { context: String, found: Type },
    /// The restricted language NRA¹ only admits flat types.
    NotFlat { context: String, found: Type },
    /// An external function was referenced but is not registered.
    UnknownExtern(String),
    /// An external function was applied to the wrong number of arguments.
    ExternArity {
        name: String,
        expected: usize,
        found: usize,
    },
    /// Equality / order comparison at a non-object (function) type.
    NotComparable { context: String, found: Type },
}

impl fmt::Display for TypeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeErrorKind::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            TypeErrorKind::Mismatch {
                context,
                expected,
                found,
            } => {
                write!(f, "{context}: expected type {expected}, found {found}")
            }
            TypeErrorKind::NotAFunction { context, found } => {
                write!(f, "{context}: expected a function type, found {found}")
            }
            TypeErrorKind::NotASet { context, found } => {
                write!(f, "{context}: expected a set type, found {found}")
            }
            TypeErrorKind::NotAProduct { context, found } => {
                write!(f, "{context}: expected a product type, found {found}")
            }
            TypeErrorKind::NotABool { context, found } => {
                write!(f, "{context}: expected bool, found {found}")
            }
            TypeErrorKind::NotAPsType { context, found } => {
                write!(
                    f,
                    "{context}: expected a PS-type (product of sets), found {found}"
                )
            }
            TypeErrorKind::NotFlat { context, found } => {
                write!(f, "{context}: NRA¹ admits only flat types, found {found}")
            }
            TypeErrorKind::UnknownExtern(name) => write!(f, "unknown external function `{name}`"),
            TypeErrorKind::ExternArity {
                name,
                expected,
                found,
            } => write!(
                f,
                "external `{name}` expects {expected} argument(s), got {found}"
            ),
            TypeErrorKind::NotComparable { context, found } => {
                write!(f, "{context}: values of type {found} cannot be compared")
            }
        }
    }
}

/// An error raised by the type checker: what went wrong ([`TypeErrorKind`])
/// and the source span of the offending node (`None` when the expression was
/// built programmatically and carries no spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// The structural error.
    pub kind: TypeErrorKind,
    /// Span of the offending node in the surface text, when known.
    pub span: Option<Span>,
}

impl TypeError {
    /// A located type error.
    pub fn new(kind: TypeErrorKind, span: Option<Span>) -> TypeError {
        TypeError { kind, span }
    }

    /// The span of the offending node, when the source was spanned.
    pub fn span(&self) -> Option<Span> {
        self.span
    }

    /// Attach `span` unless a (more specific, innermost) span is already set.
    /// The checker calls this as errors bubble out of each node, so the first
    /// — deepest — frame to know a span wins.
    pub fn with_span_if_missing(mut self, span: Option<Span>) -> TypeError {
        if self.span.is_none() {
            self.span = span;
        }
        self
    }
}

impl From<TypeErrorKind> for TypeError {
    fn from(kind: TypeErrorKind) -> TypeError {
        TypeError { kind, span: None }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The span is deliberately not printed here: `Display` feeds the
        // engine's `Diagnostic` renderer, which places the caret itself.
        write!(f, "{}", self.kind)
    }
}

impl std::error::Error for TypeError {}

/// Errors raised by the evaluator. Every variant carries the span of the
/// innermost spanned subexpression being evaluated when the error surfaced
/// (`None` for span-less, programmatically built expressions).
///
/// This stays an *enum* (rather than a kind/span struct like [`TypeError`])
/// because variant-shape matching — `EvalError::SetTooLarge { .. }` — is part
/// of the public contract the differential and stress suites pin down.
#[derive(Debug, Clone)]
pub enum EvalError {
    /// A variable was not bound at run time (should be prevented by typechecking).
    UnboundVariable {
        /// The variable name.
        name: String,
        /// Span of the failing subexpression, when known.
        span: Option<Span>,
    },
    /// A value had the wrong shape for the operation (should be prevented by
    /// typechecking).
    Stuck {
        /// Description of the shape mismatch.
        message: String,
        /// Span of the failing subexpression, when known.
        span: Option<Span>,
    },
    /// An external function failed or was not registered.
    Extern {
        /// The extern's own failure message.
        message: String,
        /// Span of the failing extern call, when known.
        span: Option<Span>,
    },
    /// The configured resource limit on intermediate set sizes was exceeded.
    /// This is how the evaluator surfaces the exponential blow-up of, e.g.,
    /// `powerset` expressed with unbounded `dcr` over complex objects (§2).
    SetTooLarge {
        limit: usize,
        attempted: usize,
        /// Span of the subexpression whose result crossed the limit, when known.
        span: Option<Span>,
    },
    /// The configured limit on total work was exceeded.
    WorkLimitExceeded {
        limit: u64,
        /// Span of the subexpression being evaluated when the budget ran out,
        /// when known. Under the parallel backend this is the *reporting
        /// thread's* position — deterministic in kind, scheduling-dependent in
        /// location, which is why equality ignores it.
        span: Option<Span>,
    },
    /// A worker thread of the parallel backend panicked (e.g. inside a buggy
    /// extern). The panic is caught at the shard boundary, every sibling
    /// worker is joined and its partial results discarded, and the payload
    /// message is preserved here instead of aborting the process.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
        /// Span of the forked region's node, when known.
        span: Option<Span>,
    },
    /// The evaluation was cancelled from outside through a
    /// [`CancelToken`](crate::eval::CancelToken) — e.g. a shutting-down host
    /// asked in-flight work to stop — or by its deadline. The evaluator checks
    /// the token at every work charge: a raised flag lands within a few
    /// elementary operations, an expired deadline within 4 096 units of work
    /// per thread.
    Cancelled {
        /// Why the evaluation was cancelled (the canceller's message, e.g.
        /// `"deadline of 50ms exceeded"`).
        reason: String,
        /// Span of the subexpression being evaluated when the flag was
        /// noticed. Scheduling-dependent under the parallel backend, like
        /// [`EvalError::WorkLimitExceeded`]'s span.
        span: Option<Span>,
    },
}

impl EvalError {
    /// An [`EvalError::UnboundVariable`] with no span yet.
    pub fn unbound(name: impl Into<String>) -> EvalError {
        EvalError::UnboundVariable {
            name: name.into(),
            span: None,
        }
    }

    /// An [`EvalError::Stuck`] with no span yet.
    pub fn stuck(message: impl Into<String>) -> EvalError {
        EvalError::Stuck {
            message: message.into(),
            span: None,
        }
    }

    /// An [`EvalError::Extern`] with no span yet.
    pub fn extern_failure(message: impl Into<String>) -> EvalError {
        EvalError::Extern {
            message: message.into(),
            span: None,
        }
    }

    /// An [`EvalError::SetTooLarge`] with no span yet.
    pub fn set_too_large(limit: usize, attempted: usize) -> EvalError {
        EvalError::SetTooLarge {
            limit,
            attempted,
            span: None,
        }
    }

    /// An [`EvalError::WorkLimitExceeded`] with no span yet.
    pub fn work_limit_exceeded(limit: u64) -> EvalError {
        EvalError::WorkLimitExceeded { limit, span: None }
    }

    /// An [`EvalError::WorkerPanicked`] with no span yet.
    pub fn worker_panicked(message: impl Into<String>) -> EvalError {
        EvalError::WorkerPanicked {
            message: message.into(),
            span: None,
        }
    }

    /// An [`EvalError::Cancelled`] with no span yet.
    pub fn cancelled(reason: impl Into<String>) -> EvalError {
        EvalError::Cancelled {
            reason: reason.into(),
            span: None,
        }
    }

    /// The span of the failing subexpression, when the source was spanned.
    pub fn span(&self) -> Option<Span> {
        match self {
            EvalError::UnboundVariable { span, .. }
            | EvalError::Stuck { span, .. }
            | EvalError::Extern { span, .. }
            | EvalError::SetTooLarge { span, .. }
            | EvalError::WorkLimitExceeded { span, .. }
            | EvalError::WorkerPanicked { span, .. }
            | EvalError::Cancelled { span, .. } => *span,
        }
    }

    /// Attach `span` unless a (more specific, innermost) span is already set.
    /// The evaluator calls this as errors bubble out of each node, so the
    /// deepest spanned frame wins — that is the failing subexpression.
    pub fn with_span_if_missing(mut self, new_span: Option<Span>) -> EvalError {
        let slot = match &mut self {
            EvalError::UnboundVariable { span, .. }
            | EvalError::Stuck { span, .. }
            | EvalError::Extern { span, .. }
            | EvalError::SetTooLarge { span, .. }
            | EvalError::WorkLimitExceeded { span, .. }
            | EvalError::WorkerPanicked { span, .. }
            | EvalError::Cancelled { span, .. } => span,
        };
        if slot.is_none() {
            *slot = new_span;
        }
        self
    }
}

impl PartialEq for EvalError {
    /// Span-agnostic equality (see the module docs): two errors are equal iff
    /// their kind and payload agree, wherever they were raised.
    fn eq(&self, other: &EvalError) -> bool {
        match (self, other) {
            (
                EvalError::UnboundVariable { name: a, .. },
                EvalError::UnboundVariable { name: b, .. },
            ) => a == b,
            (EvalError::Stuck { message: a, .. }, EvalError::Stuck { message: b, .. }) => a == b,
            (EvalError::Extern { message: a, .. }, EvalError::Extern { message: b, .. }) => a == b,
            (
                EvalError::SetTooLarge {
                    limit: la,
                    attempted: aa,
                    ..
                },
                EvalError::SetTooLarge {
                    limit: lb,
                    attempted: ab,
                    ..
                },
            ) => la == lb && aa == ab,
            (
                EvalError::WorkLimitExceeded { limit: a, .. },
                EvalError::WorkLimitExceeded { limit: b, .. },
            ) => a == b,
            (
                EvalError::WorkerPanicked { message: a, .. },
                EvalError::WorkerPanicked { message: b, .. },
            ) => a == b,
            (EvalError::Cancelled { reason: a, .. }, EvalError::Cancelled { reason: b, .. }) => {
                a == b
            }
            _ => false,
        }
    }
}

impl Eq for EvalError {}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable { name, .. } => {
                write!(f, "unbound variable `{name}` at run time")
            }
            EvalError::Stuck { message, .. } => write!(f, "evaluation stuck: {message}"),
            EvalError::Extern { message, .. } => write!(f, "external function error: {message}"),
            EvalError::SetTooLarge {
                limit, attempted, ..
            } => write!(
                f,
                "intermediate set of {attempted} elements exceeds the configured limit of {limit}"
            ),
            EvalError::WorkLimitExceeded { limit, .. } => {
                write!(f, "total work exceeded the configured limit of {limit}")
            }
            EvalError::WorkerPanicked { message, .. } => {
                write!(f, "a parallel worker panicked: {message}")
            }
            EvalError::Cancelled { reason, .. } => {
                write!(f, "evaluation cancelled: {reason}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_error_equality_ignores_spans() {
        let bare = EvalError::work_limit_exceeded(7);
        let placed = EvalError::work_limit_exceeded(7).with_span_if_missing(Some(Span::new(1, 4)));
        assert_eq!(bare, placed);
        assert_eq!(placed.span(), Some(Span::new(1, 4)));
        assert_ne!(bare, EvalError::work_limit_exceeded(8));
        assert_ne!(bare, EvalError::set_too_large(7, 9));
    }

    #[test]
    fn innermost_span_wins() {
        let inner = Span::new(4, 6);
        let outer = Span::new(0, 10);
        let e = EvalError::stuck("pi1 of non-pair")
            .with_span_if_missing(Some(inner))
            .with_span_if_missing(Some(outer));
        assert_eq!(e.span(), Some(inner));
    }

    #[test]
    fn type_errors_locate_their_node() {
        let err = TypeError::from(TypeErrorKind::UnboundVariable("x".into()))
            .with_span_if_missing(Some(Span::new(2, 3)));
        assert_eq!(err.span(), Some(Span::new(2, 3)));
        assert_eq!(err.to_string(), "unbound variable `x`");
    }
}
