//! Complex object types (§2 of the paper) plus the function types of the ambient
//! language NRA (§3) and the external `Nat` base type used by the arithmetic
//! extension experiments (Proposition 6.3).
//!
//! The grammar of complex object types in the paper is
//!
//! ```text
//! t ::= D | B | unit | t × t | {t}
//! ```
//!
//! *Flat types* are products of base types and of sets of products of base types:
//! they are the types of ordinary relational databases. *PS-types* ("product of
//! sets" types) are either set types or products of PS-types; they are the result
//! types allowed for bounded divide-and-conquer recursion (`bdcr`).

use std::fmt;

/// A complex object type, extended with function types (for NRA expressions) and
/// the external natural-number base type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// The ordered base type `D` of atoms.
    Base,
    /// The type `B` of booleans.
    Bool,
    /// The one-element type `unit` (containing only the empty tuple `()`).
    Unit,
    /// External natural numbers; not part of the paper's core grammar, used only
    /// when the external-function extension Σ of Proposition 6.3 is enabled.
    Nat,
    /// Binary products `s × t`.
    Prod(Box<Type>, Box<Type>),
    /// Finite sets `{t}`.
    Set(Box<Type>),
    /// Function types `s → t` of the ambient language NRA (§3). Function types are
    /// *not* complex object types: they never appear inside sets or products of
    /// database values, only as the types of query expressions.
    Fun(Box<Type>, Box<Type>),
}

impl Type {
    /// `s × t`.
    pub fn prod(s: Type, t: Type) -> Type {
        Type::Prod(Box::new(s), Box::new(t))
    }

    /// `{t}`.
    pub fn set(t: Type) -> Type {
        Type::Set(Box::new(t))
    }

    /// `s → t`.
    pub fn fun(s: Type, t: Type) -> Type {
        Type::Fun(Box::new(s), Box::new(t))
    }

    /// The type of binary relations over the base type, `{D × D}`.
    pub fn binary_relation() -> Type {
        Type::set(Type::prod(Type::Base, Type::Base))
    }

    /// The type of unary relations over the base type, `{D}`.
    pub fn unary_relation() -> Type {
        Type::set(Type::Base)
    }

    /// Is this a *complex object type*, i.e. built only from `D`, `B`, `unit`,
    /// `Nat`, products and sets (no function types)?
    pub fn is_object_type(&self) -> bool {
        match self {
            Type::Base | Type::Bool | Type::Unit | Type::Nat => true,
            Type::Prod(a, b) => a.is_object_type() && b.is_object_type(),
            Type::Set(t) => t.is_object_type(),
            Type::Fun(_, _) => false,
        }
    }

    /// The *set height* of a type: the maximum nesting depth of set brackets.
    /// Flat relational databases have set height ≤ 1.
    pub fn set_height(&self) -> usize {
        match self {
            Type::Base | Type::Bool | Type::Unit | Type::Nat => 0,
            Type::Prod(a, b) => a.set_height().max(b.set_height()),
            Type::Set(t) => 1 + t.set_height(),
            Type::Fun(a, b) => a.set_height().max(b.set_height()),
        }
    }

    /// Is this a product of atomic types (the element types allowed inside flat
    /// relations)?
    pub fn is_atomic_product(&self) -> bool {
        match self {
            Type::Base | Type::Bool | Type::Unit | Type::Nat => true,
            Type::Prod(a, b) => a.is_atomic_product() && b.is_atomic_product(),
            _ => false,
        }
    }

    /// Is this a *flat type* in the sense of §2: a product of base types and of
    /// set types `{s}` where `s` is itself a product of base types? These are the
    /// input/output/intermediate types allowed in the restricted language NRA¹.
    pub fn is_flat(&self) -> bool {
        match self {
            Type::Base | Type::Bool | Type::Unit | Type::Nat => true,
            Type::Set(s) => s.is_atomic_product(),
            Type::Prod(a, b) => a.is_flat() && b.is_flat(),
            Type::Fun(_, _) => false,
        }
    }

    /// Is this a *PS-type* ("product of sets" type): a set type, or a product of
    /// PS-types? Bounded dcr (`bdcr`) requires its result type to be a PS-type
    /// so that the bounding intersection is meaningful component-wise.
    pub fn is_ps_type(&self) -> bool {
        match self {
            Type::Set(_) => true,
            Type::Prod(a, b) => a.is_ps_type() && b.is_ps_type(),
            _ => false,
        }
    }

    /// The maximum nesting depth of the parenthesis/brace structure of encodings
    /// of values of this type. This is the constant `d_t` used in Lemma 7.4: for
    /// any fixed type the encodings have bounded bracket-nesting depth, which is
    /// why bracket matching is possible in constant circuit depth.
    pub fn bracket_depth(&self) -> usize {
        match self {
            Type::Base | Type::Bool | Type::Nat => 0,
            // `()` and `(X1, X2)` and `{X1, ..., Xm}` each contribute one level.
            Type::Unit => 1,
            Type::Prod(a, b) => 1 + a.bracket_depth().max(b.bracket_depth()),
            Type::Set(t) => 1 + t.bracket_depth(),
            Type::Fun(a, b) => a.bracket_depth().max(b.bracket_depth()),
        }
    }

    /// Number of type constructors (a crude size measure, used in tests and in
    /// cost reporting).
    pub fn size(&self) -> usize {
        match self {
            Type::Base | Type::Bool | Type::Unit | Type::Nat => 1,
            Type::Prod(a, b) | Type::Fun(a, b) => 1 + a.size() + b.size(),
            Type::Set(t) => 1 + t.size(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Base => write!(f, "atom"),
            Type::Bool => write!(f, "bool"),
            Type::Unit => write!(f, "unit"),
            Type::Nat => write!(f, "nat"),
            Type::Prod(a, b) => write!(f, "({a} * {b})"),
            Type::Set(t) => write!(f, "{{{t}}}"),
            Type::Fun(a, b) => write!(f, "({a} -> {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_relation_is_flat_and_ps() {
        let r = Type::binary_relation();
        assert!(r.is_flat());
        assert!(r.is_ps_type());
        assert!(r.is_object_type());
        assert_eq!(r.set_height(), 1);
    }

    #[test]
    fn nested_set_is_not_flat() {
        let t = Type::set(Type::set(Type::Base));
        assert!(!t.is_flat());
        assert!(t.is_ps_type());
        assert_eq!(t.set_height(), 2);
    }

    #[test]
    fn products_of_sets_are_ps_types() {
        let t = Type::prod(
            Type::set(Type::Base),
            Type::set(Type::prod(Type::Base, Type::Bool)),
        );
        assert!(t.is_ps_type());
        // A product containing a bare base type is not a PS-type.
        let t2 = Type::prod(Type::set(Type::Base), Type::Base);
        assert!(!t2.is_ps_type());
    }

    #[test]
    fn booleans_and_unit_are_flat_but_not_ps() {
        assert!(Type::Bool.is_flat());
        assert!(!Type::Bool.is_ps_type());
        assert!(Type::Unit.is_flat());
        assert!(!Type::Unit.is_ps_type());
    }

    #[test]
    fn function_types_are_not_object_types() {
        let t = Type::fun(Type::Base, Type::set(Type::Base));
        assert!(!t.is_object_type());
        assert!(!t.is_flat());
    }

    #[test]
    fn set_height_of_products_is_max() {
        let t = Type::prod(Type::set(Type::set(Type::Base)), Type::set(Type::Base));
        assert_eq!(t.set_height(), 2);
    }

    #[test]
    fn bracket_depth_is_bounded_per_type() {
        assert_eq!(Type::Base.bracket_depth(), 0);
        assert_eq!(Type::binary_relation().bracket_depth(), 2);
        let nested = Type::set(Type::set(Type::prod(Type::Base, Type::Base)));
        assert_eq!(nested.bracket_depth(), 3);
    }

    #[test]
    fn display_round_trips_visually() {
        let t = Type::set(Type::prod(Type::Base, Type::set(Type::Bool)));
        assert_eq!(t.to_string(), "{(atom * {bool})}");
    }

    #[test]
    fn size_counts_constructors() {
        let t = Type::set(Type::prod(Type::Base, Type::Bool));
        assert_eq!(t.size(), 4);
    }
}
