//! Byte spans into query source text.
//!
//! A [`Span`] names the half-open byte range `start..end` of a construct in
//! the surface text it was parsed from. The lexer attaches one to every token,
//! the parser to every AST node, and the type checker and evaluator thread
//! them into their errors, so a failing subexpression is locatable all the way
//! up at the engine's `Session` boundary.
//!
//! Spans are *metadata*, not semantics: structural equality of expressions
//! ([`crate::Expr`]) and of evaluation errors deliberately ignores them, so
//! `pretty ∘ parse` round-trips, differential comparisons across backends,
//! and prepared-plan cache keys are unaffected by where a term happened to
//! sit in its source file.

use std::fmt;

/// A half-open byte range `start..end` into a source string.
///
/// Invariant (checked by the parser's property suite): `start <= end`, and
/// both offsets lie within the source text the span was produced from. An
/// empty span (`start == end`) marks a *position* rather than an extent —
/// the parser uses one at end-of-input for "unexpected end of input" errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// Byte offset of the first byte of the construct.
    pub start: usize,
    /// Byte offset one past the last byte of the construct.
    pub end: usize,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Span {
        debug_assert!(start <= end, "span {start}..{end} is inverted");
        Span { start, end }
    }

    /// An empty span marking the position `at` (used for end-of-input).
    pub fn point(at: usize) -> Span {
        Span { start: at, end: at }
    }

    /// The number of bytes the span covers.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is this a zero-width position marker?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_merge_and_measure() {
        let a = Span::new(2, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(b.to(a), Span::new(2, 9));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Span::point(7).is_empty());
        assert_eq!(Span::new(1, 4).to_string(), "1..4");
    }
}
