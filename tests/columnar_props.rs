//! Property-based equivalence of the two `VSet` representations.
//!
//! `VSet::from_iter` promotes large flat-shaped element sets to the columnar
//! (word-row) representation while `VSet::from_iter_boxed` pins the boxed
//! one; every observable behaviour — equality, the lifted linear order,
//! hashing, the canonical printed form, membership, insertion, and the set
//! algebra — must be identical between the two, including with mixed
//! representations on the two sides of a binary operation.

use ncql::object::{FlatShape, Type, VSet, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn fingerprint(s: &VSet) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Random flat-shaped rows: nested pairs of atoms, bools, and nats. The
/// element pool is kept small so duplicate elements (and equal sets built
/// from different input orders) actually occur.
fn arb_flat_rows() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec((0u64..24, any::<bool>(), 0u64..6), 0..64).prop_map(|rows| {
        rows.into_iter()
            .map(|(a, b, n)| {
                Value::pair(Value::pair(Value::Atom(a), Value::Bool(b)), Value::Nat(n))
            })
            .collect()
    })
}

fn arb_atom_rows() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(0u64..40, 0..50)
        .prop_map(|xs| xs.into_iter().map(Value::Atom).collect())
}

/// Every pairwise observation on the four representation combinations of the
/// same two mathematical sets must agree.
fn assert_equivalent(xs: Vec<Value>, ys: Vec<Value>) {
    let (ac, bc) = (VSet::from_iter(xs.clone()), VSet::from_iter(ys.clone()));
    let (ab, bb) = (VSet::from_iter_boxed(xs), VSet::from_iter_boxed(ys));
    // The two representations of one set are indistinguishable.
    prop_assert_eq!(&ac, &ab);
    prop_assert_eq!(fingerprint(&ac), fingerprint(&ab));
    prop_assert_eq!(
        Value::Set(ac.clone()).to_string(),
        Value::Set(ab.clone()).to_string()
    );
    prop_assert_eq!(
        Value::Set(ac.clone()).cmp(&Value::Set(ab.clone())),
        Ordering::Equal
    );
    // Ordering between *different* sets is representation-independent.
    prop_assert_eq!(
        Value::Set(ac.clone()).cmp(&Value::Set(bc.clone())),
        Value::Set(ab.clone()).cmp(&Value::Set(bb.clone()))
    );
    // The set algebra agrees on every representation pairing.
    for (x, y) in [(&ac, &bc), (&ac, &bb), (&ab, &bc), (&ab, &bb)] {
        prop_assert_eq!(x.union(y), ac.union(&bc));
        prop_assert_eq!(x.intersect(y), ac.intersect(&bc));
        prop_assert_eq!(x.difference(y), ac.difference(&bc));
        prop_assert_eq!(x.is_subset_of(y), ab.is_subset_of(&bb));
    }
    // Membership sees exactly the same elements.
    for e in bc.iter() {
        prop_assert_eq!(ac.contains(e), ab.contains(e));
    }
    // Insertion preserves canonical form and equivalence.
    let (mut ic, mut ib) = (ac.clone(), ab.clone());
    for e in bc.iter() {
        prop_assert_eq!(ic.insert(e.clone()), ib.insert(e.clone()));
        prop_assert_eq!(&ic, &ib);
    }
    prop_assert_eq!(ic, ac.union(&bc));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_and_boxed_sets_are_observably_identical(
        xs in arb_flat_rows(),
        ys in arb_flat_rows(),
    ) {
        assert_equivalent(xs, ys);
    }

    #[test]
    fn scalar_sets_are_observably_identical(
        xs in arb_atom_rows(),
        ys in arb_atom_rows(),
    ) {
        assert_equivalent(xs, ys);
    }

    #[test]
    fn has_type_is_representation_independent(
        pairs in proptest::collection::vec((0u64..40, 0u64..40), 0..20),
    ) {
        // 0..20 rows straddles the promotion threshold (8 elements), so both
        // the per-row walk and the columnar shape comparison are exercised.
        let rows = || pairs.iter().map(|&(a, b)| Value::pair(Value::Atom(a), Value::Atom(b)));
        let promoted = Value::Set(VSet::from_iter(rows()));
        let boxed = Value::Set(VSet::from_iter_boxed(rows()));
        let right = Type::set(Type::prod(Type::Base, Type::Base));
        let same_width = Type::set(Type::prod(Type::Base, Type::Nat));
        let nested = Type::set(Type::prod(Type::Base, Type::set(Type::Base)));
        prop_assert!(promoted.has_type(&right));
        for ty in [&right, &same_width, &nested] {
            prop_assert_eq!(promoted.has_type(ty), boxed.has_type(ty), "{}", ty);
        }
    }

    #[test]
    fn union_many_is_canonical_for_any_shard_split(
        rows in arb_flat_rows(),
        cuts in proptest::collection::vec(0usize..8, 0..8),
    ) {
        // Split the rows into shards at pseudo-random boundaries; the merged
        // union must equal the set built from the undivided input.
        let expected = VSet::from_iter(rows.clone());
        let mut shards: Vec<VSet> = Vec::new();
        let mut rest = rows;
        for cut in cuts {
            let take = cut.min(rest.len());
            let tail = rest.split_off(take);
            shards.push(VSet::from_iter(rest));
            rest = tail;
        }
        shards.push(VSet::from_iter(rest));
        prop_assert_eq!(VSet::union_many(shards), expected);
    }

    #[test]
    fn row_encoding_orders_like_values(
        a in (0u64..64, any::<bool>(), 0u64..64),
        b in (0u64..64, any::<bool>(), 0u64..64),
    ) {
        // The columnar claim in one property: same-shape rows compare by
        // words exactly as their decoded values compare by the lifted order.
        let mk = |(x, f, n): (u64, bool, u64)| {
            Value::pair(Value::Atom(x), Value::pair(Value::Bool(f), Value::Nat(n)))
        };
        let (va, vb) = (mk(a), mk(b));
        let shape = FlatShape::of_value(&va).expect("flat");
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        prop_assert!(shape.encode_into(&va, &mut ra));
        prop_assert!(shape.encode_into(&vb, &mut rb));
        prop_assert_eq!(ra.cmp(&rb), va.cmp(&vb));
        prop_assert_eq!(shape.decode(&ra), va);
    }
}
