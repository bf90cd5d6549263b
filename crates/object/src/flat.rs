//! Flat shapes and the fixed-width row encoding behind the columnar set
//! representation.
//!
//! A value is *flat* when it is built from scalars and pairs only — no set
//! constructor anywhere: atoms, booleans, `()`, external naturals, and nested
//! pairs thereof. §5's string encoding already observes that such values have
//! a fixed, type-determined size; this module promotes that observation into
//! the runtime. Every flat value of a given [`FlatShape`] encodes to exactly
//! [`FlatShape::width`] machine words, laid out left-to-right in constructor
//! order:
//!
//! * `()` contributes no words;
//! * `false`/`true` contribute `0`/`1`;
//! * atoms and naturals contribute their `u64` identity;
//! * a pair contributes its first component's words followed by its second's.
//!
//! The layout is chosen so that **lexicographic word comparison of two
//! same-shape rows equals [`Value`]'s lifted linear order** ([`Ord`] on
//! values): scalars order by their word, and the pair order (lexicographic,
//! first component first) coincides with comparing the concatenated rows
//! because the first component occupies a fixed prefix of the row. This is
//! what lets [`crate::VSet`] store a set of flat values as one `Vec<u64>` of
//! row-major rows and run membership, equality, ordering and the set
//! operations as tight word loops with no per-element dispatch.
//!
//! Bulk canonicalization (`row_sort_dedup`) works inside the buffer it is
//! given. Rows of up to four words are viewed as `[u64; W]` chunks and
//! surveyed once, adjacent row against adjacent row: for every trailing run
//! of word columns, whether the rows ever descend or repeat in it, and which
//! bits vary. Strictly ascending rows are returned untouched; otherwise they
//! are sorted in place — by an LSD radix sort over the bytes that vary when
//! those are few for the batch's size, by comparison otherwise. The radix
//! sort skips the trailing columns the input is already ordered by (a stable
//! sort of a sorted sequence is the identity), and the duplicate-removing
//! pass runs only if the rows repeat somewhere in those columns: rows
//! strictly ascending in them are pairwise distinct.

use crate::types::Type;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// The shape of a flat value: products of scalars, with no set constructor.
///
/// Shapes classify values, not types: [`FlatShape::of_value`] derives the
/// unique shape of a flat value, and two values are candidates for the same
/// columnar buffer exactly when their shapes are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FlatShape {
    /// The empty tuple `()` (zero words).
    Unit,
    /// A boolean (one word, `0` or `1`).
    Bool,
    /// An atom of the base type `D` (one word).
    Atom,
    /// An external natural number (one word).
    Nat,
    /// A pair of flat values (the components' words, concatenated).
    Pair(Box<FlatShape>, Box<FlatShape>),
}

impl FlatShape {
    /// The unique shape of `v`, or `None` if `v` contains a set anywhere
    /// (sets have data-dependent size and are not flat).
    pub fn of_value(v: &Value) -> Option<FlatShape> {
        match v {
            Value::Unit => Some(FlatShape::Unit),
            Value::Bool(_) => Some(FlatShape::Bool),
            Value::Atom(_) => Some(FlatShape::Atom),
            Value::Nat(_) => Some(FlatShape::Nat),
            Value::Pair(a, b) => Some(FlatShape::Pair(
                Box::new(FlatShape::of_value(a)?),
                Box::new(FlatShape::of_value(b)?),
            )),
            Value::Set(_) => None,
        }
    }

    /// The unique shape of all values of a *flat* type, or `None` if the type
    /// contains a set constructor anywhere. This is the static twin of
    /// [`FlatShape::of_value`]: every value of a flat type `t` has shape
    /// `of_type(t)`, which is what lets the row-kernel compiler derive shapes
    /// for an `ext` body from the lambda's parameter annotation before any
    /// value exists.
    pub fn of_type(ty: &Type) -> Option<FlatShape> {
        match ty {
            Type::Unit => Some(FlatShape::Unit),
            Type::Bool => Some(FlatShape::Bool),
            Type::Base => Some(FlatShape::Atom),
            Type::Nat => Some(FlatShape::Nat),
            Type::Prod(a, b) => Some(FlatShape::Pair(
                Box::new(FlatShape::of_type(a)?),
                Box::new(FlatShape::of_type(b)?),
            )),
            _ => None,
        }
    }

    /// Words per encoded row. `Unit` is zero-width, so shapes built only from
    /// units have width 0 — such shapes have a single inhabitant and the
    /// columnar representation declines them ([`crate::VSet`] keeps sets of
    /// width-0 shapes boxed).
    pub fn width(&self) -> usize {
        match self {
            FlatShape::Unit => 0,
            FlatShape::Bool | FlatShape::Atom | FlatShape::Nat => 1,
            FlatShape::Pair(a, b) => a.width() + b.width(),
        }
    }

    /// Append `v`'s row to `out`. Returns `false` (possibly after pushing a
    /// partial row — callers discard `out` on failure) when `v` does not have
    /// this shape; on success exactly [`FlatShape::width`] words were pushed.
    pub fn encode_into(&self, v: &Value, out: &mut Vec<u64>) -> bool {
        match (self, v) {
            (FlatShape::Unit, Value::Unit) => true,
            (FlatShape::Bool, Value::Bool(b)) => {
                out.push(u64::from(*b));
                true
            }
            (FlatShape::Atom, Value::Atom(a)) => {
                out.push(*a);
                true
            }
            (FlatShape::Nat, Value::Nat(n)) => {
                out.push(*n);
                true
            }
            (FlatShape::Pair(sa, sb), Value::Pair(a, b)) => {
                sa.encode_into(a, out) && sb.encode_into(b, out)
            }
            _ => false,
        }
    }

    /// Decode one row (exactly [`FlatShape::width`] words) back into a value.
    pub fn decode(&self, row: &[u64]) -> Value {
        let (v, used) = self.decode_prefix(row);
        debug_assert_eq!(used, row.len(), "row width mismatch in decode");
        v
    }

    /// Print the value this shape lays out in `row`, exactly as its boxed
    /// form's `Display` would.
    pub(crate) fn write_row(&self, out: &mut impl fmt::Write, row: &[u64]) -> fmt::Result {
        match self {
            FlatShape::Unit => out.write_str("()"),
            FlatShape::Bool => out.write_str(if row[0] == 0 { "false" } else { "true" }),
            FlatShape::Atom => write_atom(out, row[0]),
            FlatShape::Nat => write_u64(out, row[0]),
            FlatShape::Pair(a, b) => {
                let (first, second) = row.split_at(a.width());
                out.write_char('(')?;
                a.write_row(out, first)?;
                out.write_str(", ")?;
                b.write_row(out, second)?;
                out.write_char(')')
            }
        }
    }

    /// Decode this shape from the front of `words`, returning the value and
    /// the number of words consumed.
    fn decode_prefix(&self, words: &[u64]) -> (Value, usize) {
        match self {
            FlatShape::Unit => (Value::Unit, 0),
            FlatShape::Bool => (Value::Bool(words[0] != 0), 1),
            FlatShape::Atom => (Value::Atom(words[0]), 1),
            FlatShape::Nat => (Value::Nat(words[0]), 1),
            FlatShape::Pair(sa, sb) => {
                let (a, used_a) = sa.decode_prefix(words);
                let (b, used_b) = sb.decode_prefix(&words[used_a..]);
                (Value::Pair(Box::new(a), Box::new(b)), used_a + used_b)
            }
        }
    }
}

/// How an atom prints, boxed or in a row: an interned atom by name, a numeric
/// one as `a{n}` (the tag-bit check keeps the numeric path lock-free).
pub(crate) fn write_atom(out: &mut impl fmt::Write, atom: u64) -> fmt::Result {
    match crate::intern::atom_name(atom) {
        Some(name) => write!(out, "@{name}"),
        None => out.write_char('a').and_then(|()| write_u64(out, atom)),
    }
}

/// Append `n` in decimal. Printing a relation, or writing it to the wire,
/// puts out a number per word: too many to send each through `fmt::Arguments`.
pub fn write_u64(out: &mut impl fmt::Write, mut n: u64) -> fmt::Result {
    let mut digits = [b'0'; 20];
    let mut at = digits.len() - 1;
    while n >= 10 {
        digits[at] += (n % 10) as u8;
        n /= 10;
        at -= 1;
    }
    digits[at] += n as u8;
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

// ----- row kernels (crate-internal: `VSet` is the public surface) -----
//
// All kernels take row-major word buffers whose length is a multiple of
// `width` (`width ≥ 1`), rows sorted ascending and duplicate-free in the row
// (= value) order. They are the memcmp-style loops the columnar set
// representation compiles its hot paths to.

/// Compare two same-width rows: lexicographic on words, which for same-shape
/// rows equals the lifted [`Value`] order (see the module docs).
#[inline]
pub(crate) fn row_cmp(a: &[u64], b: &[u64]) -> Ordering {
    a.cmp(b)
}

/// Binary-search `rows` (sorted, dup-free) for `probe`; `Ok(i)` on a hit.
pub(crate) fn row_search(rows: &[u64], width: usize, probe: &[u64]) -> Result<usize, usize> {
    debug_assert_eq!(probe.len(), width);
    let n = rows.len() / width;
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match row_cmp(&rows[mid * width..(mid + 1) * width], probe) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// The two-pointer merge behind union, intersection and difference: walk two
/// sorted dup-free row-major buffers of `width`-wide rows and keep the rows
/// only in `a` (`L`), in both (`B`), only in `b` (`R`) — union is
/// `<true, true, true>`, intersection `<false, true, false>`, difference
/// `<true, false, false>`. Boxed element views are width-1 rows of [`Value`].
pub(crate) fn merge<T: Ord + Clone, const L: bool, const B: bool, const R: bool>(
    a: &[T],
    b: &[T],
    width: usize,
) -> Vec<T> {
    let mut out = Vec::new();
    if L && R {
        out.reserve(a.len() + b.len());
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (&a[i..i + width], &b[j..j + width]);
        match x.cmp(y) {
            Ordering::Less => {
                if L {
                    out.extend_from_slice(x);
                }
                i += width;
            }
            Ordering::Greater => {
                if R {
                    out.extend_from_slice(y);
                }
                j += width;
            }
            Ordering::Equal => {
                if B {
                    out.extend_from_slice(x);
                }
                i += width;
                j += width;
            }
        }
    }
    if L {
        out.extend_from_slice(&a[i..]);
    }
    if R {
        out.extend_from_slice(&b[j..]);
    }
    out
}

/// Is every row of `a` present in `b`? Two-pointer scan over sorted buffers.
pub(crate) fn row_subset(a: &[u64], b: &[u64], width: usize) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() {
        if j >= b.len() {
            return false;
        }
        match row_cmp(&a[i..i + width], &b[j..j + width]) {
            Ordering::Less => return false,
            Ordering::Greater => j += width,
            Ordering::Equal => {
                i += width;
                j += width;
            }
        }
    }
    true
}

/// Sort a row-major buffer by row and remove duplicate rows: the bulk
/// canonicalization behind `FromIterator`, `from_raw_rows` and the post-`ext`
/// merge. Already strictly ascending rows — an order-preserving filter or
/// projection, a canonical binding off the wire — come back untouched. Wider
/// rows than the in-place chunks cover sort an index permutation and gather.
pub(crate) fn row_sort_dedup(mut words: Vec<u64>, width: usize) -> Vec<u64> {
    debug_assert!(width >= 1 && words.len().is_multiple_of(width));
    match width {
        1 => canonicalize_chunks::<1>(&mut words),
        2 => canonicalize_chunks::<2>(&mut words),
        3 => canonicalize_chunks::<3>(&mut words),
        4 => canonicalize_chunks::<4>(&mut words),
        _ => {
            let row = |i: usize| &words[i * width..(i + 1) * width];
            let mut index: Vec<usize> = (0..words.len() / width).collect();
            if index.windows(2).all(|w| row(w[0]) < row(w[1])) {
                return words;
            }
            index.sort_unstable_by(|&x, &y| row_cmp(row(x), row(y)));
            index.dedup_by(|x, y| row(*x) == row(*y));
            return index.iter().flat_map(|&i| row(i)).copied().collect();
        }
    }
    words
}

/// [`row_sort_dedup`] for rows of `W` words, entirely within `words`.
fn canonicalize_chunks<const W: usize>(words: &mut Vec<u64>) {
    let (rows, _) = words.as_chunks_mut::<W>();
    // One pass over adjacent rows, with no branch per row. For the key made
    // of word columns `c..W`: `descends[c]`, some row is above the next in
    // it; `repeats[c]`, some row equals the next in it. `varying[c]`: the
    // bits of column `c` on which some two rows differ.
    let (mut descends, mut repeats, mut varying) = ([false; W], [false; W], [0u64; W]);
    for pair in rows.windows(2) {
        let (mut above, mut equal) = (false, true);
        for c in (0..W).rev() {
            let (x, y) = (pair[0][c], pair[1][c]);
            above = (x > y) | ((x == y) & above);
            equal &= x == y;
            descends[c] |= above;
            repeats[c] |= equal;
            varying[c] |= x ^ y;
        }
    }
    if !descends[0] && !repeats[0] {
        return;
    }
    // An LSD radix sort is a chain of stable passes, least significant byte
    // first. The passes over word columns `c..W` together stably sort by that
    // key, which leaves a sequence already in that order as it is — so they
    // are skipped for the widest such suffix (a column swap of a canonical
    // relation keeps every column but the new first one in order), as is a
    // pass over a byte on which all rows agree.
    let sorted_from = descends.iter().position(|&d| !d).unwrap_or(W);
    varying[sorted_from..].fill(0);
    let bytes = varying.iter().flat_map(|bits| bits.to_le_bytes());
    let passes = bytes.filter(|&byte| byte != 0).count();
    // A comparison sort looks at each row about log2(rows) times; a radix
    // pass reads every row twice (histogram, scatter) and walks 256 buckets.
    if 2 * passes * (rows.len() + 256) <= rows.len() * rows.len().ilog2() as usize {
        radix_sort::<W>(words, varying);
    } else {
        rows.sort_unstable();
    }
    // Rows strictly ascending in the key the sort kept are pairwise distinct.
    if repeats.get(sorted_from) == Some(&false) {
        return;
    }
    let (rows, _) = words.as_chunks_mut::<W>();
    let mut kept = 0;
    for i in 0..rows.len() {
        if kept == 0 || rows[i] != rows[kept - 1] {
            rows[kept] = rows[i];
            kept += 1;
        }
    }
    words.truncate(kept * W);
}

/// Stable LSD radix sort of `W`-word rows, one pass per byte that has a bit
/// set in `varying`. Ping-pongs between `words` and one buffer of its size.
fn radix_sort<const W: usize>(words: &mut Vec<u64>, varying: [u64; W]) {
    let mut spare = Vec::new();
    for c in (0..W).rev() {
        for shift in (0..u64::BITS).step_by(8) {
            if varying[c] >> shift & 0xFF == 0 {
                continue;
            }
            let byte = |row: &[u64; W]| (row[c] >> shift & 0xFF) as usize;
            spare.resize(words.len(), 0);
            let (from, _) = words.as_chunks::<W>();
            let (to, _) = spare.as_chunks_mut::<W>();
            let mut next = [0usize; 256];
            for row in from {
                next[byte(row)] += 1;
            }
            let mut start = 0;
            for slot in &mut next {
                start += std::mem::replace(slot, start);
            }
            for row in from {
                to[next[byte(row)]] = *row;
                next[byte(row)] += 1;
            }
            std::mem::swap(words, &mut spare);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: Value, b: Value) -> Value {
        Value::pair(a, b)
    }

    #[test]
    fn shapes_classify_flat_values_and_reject_sets() {
        assert_eq!(FlatShape::of_value(&Value::Atom(3)), Some(FlatShape::Atom));
        let p = pair(Value::Atom(1), pair(Value::Bool(true), Value::Nat(9)));
        let shape = FlatShape::of_value(&p).expect("flat");
        assert_eq!(shape.width(), 3);
        assert_eq!(FlatShape::of_value(&Value::empty_set()), None);
        assert_eq!(
            FlatShape::of_value(&pair(Value::Atom(1), Value::empty_set())),
            None
        );
    }

    #[test]
    fn of_type_agrees_with_of_value() {
        let ty = Type::prod(Type::Base, Type::prod(Type::Bool, Type::Nat));
        let v = pair(Value::Atom(1), pair(Value::Bool(true), Value::Nat(9)));
        assert_eq!(FlatShape::of_type(&ty), FlatShape::of_value(&v));
        assert_eq!(FlatShape::of_type(&Type::Unit), Some(FlatShape::Unit));
        assert_eq!(FlatShape::of_type(&Type::set(Type::Base)), None);
        assert_eq!(
            FlatShape::of_type(&Type::prod(Type::Base, Type::set(Type::Base))),
            None
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let samples = vec![
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Atom(42),
            Value::Nat(u64::MAX),
            pair(Value::Atom(1), Value::Atom(2)),
            pair(pair(Value::Unit, Value::Bool(true)), Value::Nat(7)),
        ];
        for v in samples {
            let shape = FlatShape::of_value(&v).expect("flat");
            let mut row = Vec::new();
            assert!(shape.encode_into(&v, &mut row));
            assert_eq!(row.len(), shape.width());
            assert_eq!(shape.decode(&row), v);
        }
    }

    #[test]
    fn encode_rejects_shape_mismatches() {
        let mut out = Vec::new();
        assert!(!FlatShape::Atom.encode_into(&Value::Nat(1), &mut out));
        assert!(
            !FlatShape::Pair(Box::new(FlatShape::Atom), Box::new(FlatShape::Atom))
                .encode_into(&pair(Value::Atom(1), Value::Bool(true)), &mut out)
        );
    }

    #[test]
    fn row_order_equals_value_order_on_same_shape_values() {
        // Exhaustive-ish sweep over a nested pair shape: word order must
        // coincide with the lifted linear order for every same-shape pair.
        let mut values = Vec::new();
        for a in 0..3u64 {
            for b in [false, true] {
                for c in 0..3u64 {
                    values.push(pair(Value::Atom(a), pair(Value::Bool(b), Value::Nat(c))));
                }
            }
        }
        let shape = FlatShape::of_value(&values[0]).unwrap();
        for x in &values {
            for y in &values {
                let (mut rx, mut ry) = (Vec::new(), Vec::new());
                assert!(shape.encode_into(x, &mut rx) && shape.encode_into(y, &mut ry));
                assert_eq!(row_cmp(&rx, &ry), x.cmp(y), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn kernels_agree_with_naive_set_algebra() {
        let width = 2;
        let enc = |pairs: &[(u64, u64)]| -> Vec<u64> {
            let mut rows: Vec<(u64, u64)> = pairs.to_vec();
            rows.sort_unstable();
            rows.dedup();
            rows.iter().flat_map(|&(a, b)| [a, b]).collect()
        };
        let a = enc(&[(1, 2), (3, 4), (5, 6), (9, 0)]);
        let b = enc(&[(3, 4), (5, 5), (9, 0), (9, 1)]);
        assert_eq!(
            merge::<_, true, true, true>(&a, &b, width),
            enc(&[(1, 2), (3, 4), (5, 5), (5, 6), (9, 0), (9, 1)])
        );
        assert_eq!(
            merge::<_, false, true, false>(&a, &b, width),
            enc(&[(3, 4), (9, 0)])
        );
        assert_eq!(
            merge::<_, true, false, false>(&a, &b, width),
            enc(&[(1, 2), (5, 6)])
        );
        assert!(row_subset(&enc(&[(3, 4), (9, 0)]), &a, width));
        assert!(!row_subset(&b, &a, width));
        assert_eq!(row_search(&a, width, &[5, 6]), Ok(2));
        assert!(row_search(&a, width, &[5, 5]).is_err());
    }

    #[test]
    fn sort_dedup_canonicalizes_any_row_order() {
        assert_eq!(row_sort_dedup(vec![5, 1, 3, 1, 5], 1), vec![1, 3, 5]);
        let rows = vec![9, 0, 1, 2, 9, 0, 1, 1];
        assert_eq!(row_sort_dedup(rows, 2), vec![1, 1, 1, 2, 9, 0]);
    }
}
