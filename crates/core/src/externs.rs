//! External functions Σ (Proposition 6.3).
//!
//! The paper considers extending the language with a set Σ of external base types
//! and functions computable in NC: "the usual arithmetical operations (+, *, −, /,
//! etc), and the usual aggregate functions (cardinality, sum, average, etc.)".
//! Proposition 6.3 states that `NRA(Σ, bdcr)` stays within NC, whereas unbounded
//! `dcr` together with unbounded arithmetic (`NRA¹(ℕ, +, dcr)`) can express
//! exponential-space queries (pinned by
//! `queries::aggregates::double_exponential_grows`) — the registry here is
//! what decides which side of that line a session is on.
//!
//! Every external is a total Rust function on values with a declared signature;
//! the type checker uses the signature, and a call is charged by the
//! [`crate::cost::EXTERN`] rule (externals are assumed to be NC-computable
//! black boxes).

use crate::error::EvalError;
use ncql_object::{FlatShape, Type, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Shared implementation signature of an external function.
pub type ExternBody = Arc<dyn Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync>;

/// The word-level meaning of a standard external over one-word scalars.
/// Booleans encode as 0/1 and atoms/naturals as themselves, so
/// [`WordOp::apply`] on the encoded arguments is the encoded result: the
/// boxed bodies of the standard arithmetic are `apply` on their arguments'
/// words, and the row-kernel compiler (`crate::kernel`) runs a call as one
/// loop of `apply` over a block of rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordOp {
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
    Leq,
    Bit,
    /// The unary coercions `atom_to_nat` and `nat_to_atom`.
    Identity,
}

impl WordOp {
    /// The op on the words `a` and `b` (`Identity` ignores `b`). Total.
    #[inline(always)]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            WordOp::Add => a.saturating_add(b),
            WordOp::Sub => a.saturating_sub(b),
            WordOp::Mul => a.saturating_mul(b),
            WordOp::Div => a.checked_div(b).unwrap_or(0),
            WordOp::Max => a.max(b),
            WordOp::Min => a.min(b),
            WordOp::Leq => u64::from(a <= b),
            // BIT(i, j): the j-th bit of the binary representation of i (the
            // BIT relation of Immerman used throughout §7).
            WordOp::Bit => u64::from(b < 64 && (a >> b) & 1 == 1),
            WordOp::Identity => a,
        }
    }
}

/// Implementation of a single external function.
#[derive(Clone)]
pub struct ExternFn {
    /// Argument types.
    pub params: Vec<Type>,
    /// Result type.
    pub result: Type,
    /// The implementation.
    pub body: ExternBody,
    /// Word-level twin of `body` for the row-kernel compiler, present only on
    /// the built-ins of [`ExternRegistry::standard`] (whose word semantics are
    /// known exactly). [`ExternRegistry::register`] always clears it, so
    /// re-registering a standard name with a custom body also disables the
    /// kernel shortcut for that name — the hint can never diverge from the
    /// boxed implementation.
    pub(crate) word: Option<WordOp>,
}

impl ExternFn {
    /// The word-level twin, when one exists (see [`WordOp`]).
    pub fn scalar_hint(&self) -> Option<WordOp> {
        self.word
    }
}

impl fmt::Debug for ExternFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExternFn({:?} -> {})", self.params, self.result)
    }
}

/// A registry Σ of external functions, keyed by name.
///
/// The map is `Arc`-shared with copy-on-write registration: cloning a registry
/// (which happens on every `EvalConfig` clone — once per evaluation and once
/// per parallel worker shard) is O(1) pointer sharing, and [`register`] only
/// deep-copies the map when the handle is actually shared.
///
/// [`register`]: ExternRegistry::register
#[derive(Debug, Clone, Default)]
pub struct ExternRegistry {
    fns: Arc<BTreeMap<String, ExternFn>>,
}

impl ExternRegistry {
    /// The empty Σ (the pure language of the main theorems).
    pub fn empty() -> ExternRegistry {
        ExternRegistry {
            fns: Arc::new(BTreeMap::new()),
        }
    }

    /// The standard arithmetic/aggregate extension used by the experiments:
    /// `nat_add`, `nat_sub`, `nat_mul`, `nat_div`, `nat_leq`, `nat_bit`,
    /// `card` (cardinality of a set as a natural), `nat_max`, `nat_min`,
    /// `atom_to_nat` and `nat_to_atom` (coercions along the order isomorphism).
    pub fn standard() -> ExternRegistry {
        let mut reg = ExternRegistry::empty();

        // The word-level externals: each body is its word op on the
        // arguments' words, so the kernel's loop of the op is the body by
        // construction. The last two coerce along the order isomorphism.
        for (name, op, param, result) in [
            ("nat_add", WordOp::Add, Type::Nat, Type::Nat),
            ("nat_sub", WordOp::Sub, Type::Nat, Type::Nat),
            ("nat_mul", WordOp::Mul, Type::Nat, Type::Nat),
            ("nat_div", WordOp::Div, Type::Nat, Type::Nat),
            ("nat_max", WordOp::Max, Type::Nat, Type::Nat),
            ("nat_min", WordOp::Min, Type::Nat, Type::Nat),
            ("nat_leq", WordOp::Leq, Type::Nat, Type::Bool),
            ("nat_bit", WordOp::Bit, Type::Nat, Type::Bool),
            ("atom_to_nat", WordOp::Identity, Type::Base, Type::Nat),
            ("nat_to_atom", WordOp::Identity, Type::Nat, Type::Base),
        ] {
            let params = vec![param; if op == WordOp::Identity { 1 } else { 2 }];
            let scalar = |ty: &Type| FlatShape::of_type(ty).expect("a one-word scalar");
            let (shapes, out): (Vec<_>, _) = (params.iter().map(scalar).collect(), scalar(&result));
            reg.register(name, params, result, move |args| {
                let [a, b] = words(args, &shapes).ok_or_else(|| {
                    EvalError::extern_failure(format!("{name} expects {shapes:?}, got {args:?}"))
                })?;
                Ok(out.decode(&[op.apply(a, b)]))
            });
            reg.attach_word(name, op);
        }

        // Cardinality of any set, as a natural number.
        reg.register(
            "card",
            vec![Type::set(Type::Base)],
            Type::Nat,
            |args| match args.first() {
                Some(Value::Set(s)) => Ok(Value::Nat(s.len() as u64)),
                other => Err(EvalError::extern_failure(format!(
                    "card expects a set, got {other:?}"
                ))),
            },
        );

        reg
    }

    /// Register an external function. Copy-on-write: when this registry handle
    /// shares its map with clones (e.g. a running session's config), the map
    /// is copied once here and the clones keep the old Σ.
    pub fn register<F>(&mut self, name: &str, params: Vec<Type>, result: Type, body: F)
    where
        F: Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    {
        Arc::make_mut(&mut self.fns).insert(
            name.to_string(),
            ExternFn {
                params,
                result,
                body: Arc::new(body),
                word: None,
            },
        );
    }

    /// Attach a word-level twin to an already-registered built-in (see
    /// [`ExternFn::scalar_hint`]). Private on purpose: hints are only sound
    /// when the twin matches the boxed body bit-for-bit, which this crate can
    /// promise for its own standard registry but not for user registrations.
    fn attach_word(&mut self, name: &str, op: WordOp) {
        if let Some(f) = Arc::make_mut(&mut self.fns).get_mut(name) {
            f.word = Some(op);
        }
    }

    /// Look up an external by name.
    pub fn get(&self, name: &str) -> Option<&ExternFn> {
        self.fns.get(name)
    }

    /// Names of all registered externals (sorted).
    pub fn names(&self) -> Vec<&str> {
        self.fns.keys().map(String::as_str).collect()
    }

    /// Does the registry contain the given name?
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(name)
    }

    /// A fingerprint of the registry's *interface*: a hash over the sorted
    /// function names and their declared signatures. Two registries with the
    /// same names and types fingerprint identically even if the Rust bodies
    /// differ — the bodies are opaque closures — so the fingerprint identifies
    /// what the *type checker* can observe. The engine's prepared-statement
    /// cache keys plans by (query text, registry fingerprint), which is exactly
    /// the pair the front end (parse + typecheck) depends on.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.fns.len().hash(&mut h);
        for (name, f) in self.fns.iter() {
            name.hash(&mut h);
            for p in &f.params {
                p.to_string().hash(&mut h);
            }
            f.result.to_string().hash(&mut h);
        }
        h.finish()
    }

    /// The maximum set height over all parameter and result types of the
    /// registered externals. Proposition 6.5 requires Σ to have set height ≤ 1
    /// for the conservative-extension result; this lets callers check that.
    pub fn max_set_height(&self) -> usize {
        self.fns
            .values()
            .flat_map(|f| f.params.iter().chain(std::iter::once(&f.result)))
            .map(Type::set_height)
            .max()
            .unwrap_or(0)
    }
}

/// The words of `args`, one-word scalars of the given shapes (the second
/// 0 for one argument), or `None` if they are not.
fn words(args: &[Value], shapes: &[FlatShape]) -> Option<[u64; 2]> {
    let mut words = [0; 2];
    if args.len() != shapes.len() {
        return None;
    }
    for ((arg, shape), word) in args.iter().zip(shapes).zip(&mut words) {
        *word = arg
            .as_atom()
            .or(arg.as_nat())
            .filter(|_| FlatShape::of_value(arg).as_ref() == Some(shape))?;
    }
    Some(words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_arithmetic() {
        let reg = ExternRegistry::standard();
        for name in ["nat_add", "nat_mul", "nat_leq", "card", "nat_bit"] {
            assert!(reg.contains(name), "missing {name}");
        }
    }

    #[test]
    fn nat_add_works() {
        let reg = ExternRegistry::standard();
        let f = reg.get("nat_add").unwrap();
        let v = (f.body)(&[Value::Nat(2), Value::Nat(3)]).unwrap();
        assert_eq!(v, Value::Nat(5));
    }

    #[test]
    fn nat_bit_extracts_bits() {
        let reg = ExternRegistry::standard();
        let f = reg.get("nat_bit").unwrap();
        assert_eq!(
            (f.body)(&[Value::Nat(5), Value::Nat(0)]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            (f.body)(&[Value::Nat(5), Value::Nat(1)]).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            (f.body)(&[Value::Nat(5), Value::Nat(2)]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn card_counts_elements() {
        let reg = ExternRegistry::standard();
        let f = reg.get("card").unwrap();
        let s = Value::atom_set(vec![1, 2, 3]);
        assert_eq!((f.body)(&[s]).unwrap(), Value::Nat(3));
    }

    #[test]
    fn arity_errors_are_reported() {
        let reg = ExternRegistry::standard();
        let f = reg.get("nat_add").unwrap();
        assert!((f.body)(&[Value::Nat(1)]).is_err());
    }

    #[test]
    fn registration_is_copy_on_write() {
        let mut original = ExternRegistry::standard();
        let shared = original.clone();
        original.register("extra", vec![Type::Nat], Type::Nat, |args| {
            Ok(args[0].clone())
        });
        assert!(original.contains("extra"));
        assert!(!shared.contains("extra"), "clones keep the old Σ");
        assert_ne!(original.fingerprint(), shared.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_the_interface() {
        let std1 = ExternRegistry::standard();
        let std2 = ExternRegistry::standard();
        assert_eq!(std1.fingerprint(), std2.fingerprint(), "deterministic");
        assert_ne!(
            std1.fingerprint(),
            ExternRegistry::empty().fingerprint(),
            "different name sets differ"
        );
        let mut extended = ExternRegistry::standard();
        extended.register("shout", vec![Type::Base], Type::Base, |args| {
            Ok(args[0].clone())
        });
        assert_ne!(
            std1.fingerprint(),
            extended.fingerprint(),
            "new extern changes it"
        );
        // Re-registering an existing name with a different *signature* changes it too.
        let mut retyped = ExternRegistry::standard();
        retyped.register("card", vec![Type::set(Type::Base)], Type::Base, |args| {
            Ok(args[0].clone())
        });
        assert_ne!(std1.fingerprint(), retyped.fingerprint());
    }

    #[test]
    fn scalar_hints_match_the_boxed_bodies() {
        let reg = ExternRegistry::standard();
        let samples = [0u64, 1, 2, 5, 63, 64, 1000, u64::MAX];
        for name in [
            "nat_add", "nat_sub", "nat_mul", "nat_div", "nat_max", "nat_min", "nat_leq", "nat_bit",
        ] {
            let f = reg.get(name).unwrap();
            let scalar = f.scalar_hint().expect("standard arithmetic has a twin");
            for &a in &samples {
                for &b in &samples {
                    let boxed = (f.body)(&[Value::Nat(a), Value::Nat(b)]).unwrap();
                    let word = scalar.apply(a, b);
                    let expected = match boxed {
                        Value::Nat(n) => n,
                        Value::Bool(v) => u64::from(v),
                        other => panic!("unexpected result {other}"),
                    };
                    assert_eq!(word, expected, "{name}({a}, {b})");
                }
            }
        }
        assert_eq!(
            reg.get("atom_to_nat")
                .unwrap()
                .scalar_hint()
                .unwrap()
                .apply(9, 0),
            9
        );
        assert!(reg.get("card").unwrap().scalar_hint().is_none());
    }

    #[test]
    fn user_registration_clears_the_scalar_hint() {
        let mut reg = ExternRegistry::standard();
        reg.register("nat_add", vec![Type::Nat, Type::Nat], Type::Nat, |args| {
            let [a, b] = words(args, &[FlatShape::Nat, FlatShape::Nat]).unwrap();
            Ok(Value::Nat(a.wrapping_add(b).wrapping_add(1)))
        });
        assert!(
            reg.get("nat_add").unwrap().scalar_hint().is_none(),
            "a re-registered body must not keep the old word twin"
        );
    }

    #[test]
    fn standard_registry_is_flat() {
        // All standard externals have set height ≤ 1 (Proposition 6.5 hypothesis).
        assert!(ExternRegistry::standard().max_set_height() <= 1);
    }
}
