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

/// A random type of set height ≤ `height` over all five type constructors.
fn random_type(next: &mut impl FnMut(u64) -> u64, height: u64) -> Type {
    match next(if height == 0 { 6 } else { 8 }) {
        0 => Type::Unit,
        1 => Type::Bool,
        2 | 3 => Type::Base,
        4 => Type::Nat,
        5 => Type::prod(random_type(next, height), random_type(next, height)),
        _ => Type::set(random_type(next, height - 1)),
    }
}

/// A random value of `ty`: sets of up to 20 elements (both sides of the
/// promotion threshold), one atom in four an interned one, and now and then
/// a stray element of another type in a set — what an ill-typed binding
/// looks like on the wire.
fn random_value(next: &mut impl FnMut(u64) -> u64, ty: &Type) -> Value {
    match ty {
        Type::Unit => Value::Unit,
        Type::Bool => Value::Bool(next(2) == 1),
        Type::Base if next(4) == 0 => Value::Atom(ncql::object::intern_atom(&format!(
            "wire-prop-{}",
            next(12)
        ))),
        Type::Base => Value::Atom(next(12)),
        Type::Nat => Value::Nat(next(1 << 40)),
        Type::Prod(a, b) => Value::pair(random_value(next, a), random_value(next, b)),
        Type::Set(elem) => {
            let mut elems: Vec<Value> = (0..next(21)).map(|_| random_value(next, elem)).collect();
            if next(8) == 0 {
                let stray = random_type(next, 1);
                elems.push(random_value(next, &stray));
            }
            Value::set_from(elems)
        }
        Type::Fun(..) => unreachable!("random_type makes no function types"),
    }
}

/// `v` with every set rebuilt boxed, and the representation of each of its
/// sets in traversal order.
fn boxed_twin(v: &Value, layout: &mut Vec<bool>) -> Value {
    match v {
        Value::Pair(a, b) => Value::pair(boxed_twin(a, layout), boxed_twin(b, layout)),
        Value::Set(s) => {
            layout.push(s.is_columnar());
            let elems: Vec<Value> = s.iter().map(|x| boxed_twin(x, layout)).collect();
            Value::Set(VSet::from_iter_boxed(elems))
        }
        scalar => scalar.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wire codec and `Display` read and write a columnar set's rows
    /// directly; for values over all six constructors, both must be
    /// indistinguishable from going through the boxed elements.
    #[test]
    fn the_wire_and_display_agree_with_the_boxed_view(seed in any::<u64>()) {
        use ncql::serve::protocol::{decode_value, value_to_json};
        let mut state = seed | 1;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let ty = Type::set(random_type(&mut next, 2));
        let v = random_value(&mut next, &ty);
        let (mut layout, mut decoded_layout) = (Vec::new(), Vec::new());
        let boxed = boxed_twin(&v, &mut layout);
        prop_assert_eq!(&boxed, &v);
        // Display: the row path against the boxed path.
        prop_assert_eq!(v.to_string(), boxed.to_string());
        // The wire: the row writer against the boxed writer, then back.
        let text = value_to_json(&v).to_string();
        prop_assert_eq!(&text, &value_to_json(&boxed).to_string());
        let decoded = decode_value(&text).expect("the writer's own text");
        boxed_twin(&decoded, &mut decoded_layout);
        prop_assert_eq!(&decoded, &v);
        prop_assert_eq!(decoded_layout, layout);
    }
}

/// Right-nested pairs of atoms: a flat shape of exactly `width` words.
fn atoms_shape(width: usize) -> FlatShape {
    (1..width).fold(FlatShape::Atom, |rest, _| {
        FlatShape::Pair(Box::new(FlatShape::Atom), Box::new(rest))
    })
}

/// The bulk row canonicalization switches algorithm on row width (in-place
/// chunks up to four words, a general path above) and, by a cost rule, on the
/// row count and the number of bytes that vary (a radix sort when those are
/// few for the batch's size, a comparison sort otherwise) — sizes the
/// proptests above, which stop at 64 rows of width ≤ 3, never reach. For
/// every width, for row counts on both sides of the rule and for words that
/// vary in one byte, in the lowest and the highest (interned atoms set bit
/// 63), and in all eight (`0`, `u64::MAX`, random), `from_raw_rows` must
/// build exactly the set the boxed reference builds from the decoded rows,
/// whatever order the rows arrive in — among them rows strictly ascending in
/// the columns the sort keeps, which skip the duplicate-removing pass, and
/// rows that repeat in those columns, which must not.
#[test]
fn from_raw_rows_matches_the_boxed_reference_at_every_size_and_order() {
    use ncql::object::NAMED_ATOM_BASE;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for (alphabet, width, rows) in (0..3usize)
        .flat_map(|a| (1..=6usize).map(move |w| (a, w)))
        .flat_map(|(a, w)| [0usize, 1, 7, 1_000, 5_000].map(move |n| (a, w, n)))
    {
        let shape = atoms_shape(width);
        let mut word = |spread: u64| match (alphabet, next() % 4) {
            (1, 0) => NAMED_ATOM_BASE | (next() % spread),
            (2, 0) => 0,
            (2, 1) => u64::MAX,
            (2, _) => next(),
            _ => next() % spread,
        };
        let shuffled: Vec<u64> = (0..rows * width).map(|_| word(50)).collect();
        let mut sorted: Vec<Vec<u64>> = shuffled.chunks(width).map(<[u64]>::to_vec).collect();
        sorted.sort();
        sorted.dedup();
        let canonical = sorted.concat();
        let reversed: Vec<u64> = sorted.iter().rev().flatten().copied().collect();
        let all_equal = shuffled[..width.min(shuffled.len())].repeat(rows);
        let duplicated: Vec<u64> = (0..rows * width).map(|_| word(2)).collect();
        // Canonical rows with the last column moved to the front: in order
        // by every column but the first.
        let trailing: Vec<u64> = sorted
            .iter()
            .flat_map(|row| {
                let mut row = row.clone();
                row.rotate_right(1);
                row
            })
            .collect();
        // Random words before a strictly ascending last column: the rows are
        // pairwise distinct, so the sort need not deduplicate.
        let key_last: Vec<u64> = (0..rows as u64)
            .flat_map(|i| {
                let mut row: Vec<u64> = (1..width).map(|_| word(50)).collect();
                row.push(i);
                row
            })
            .collect();
        // Every row of `trailing` twice in a row: the columns the sort keeps
        // repeat, so it must deduplicate.
        let trailing_twice: Vec<u64> = trailing
            .chunks(width)
            .flat_map(|row| row.repeat(2))
            .collect();
        for (name, words) in [
            ("shuffled", shuffled),
            ("canonical", canonical),
            ("reversed", reversed),
            ("all equal", all_equal),
            ("duplicated", duplicated),
            ("trailing columns sorted", trailing),
            ("key column last", key_last),
            ("trailing columns sorted, every row twice", trailing_twice),
        ] {
            let expected = VSet::from_iter_boxed(words.chunks(width).map(|row| shape.decode(row)));
            let built = VSet::from_raw_rows(shape.clone(), words);
            assert!(
                built == expected,
                "alphabet {alphabet}, width {width}, {rows} rows, {name}"
            );
            assert_eq!(built.is_columnar(), expected.len() >= 8);
        }
    }
}
