//! Complex object values and the linear order lifted to all types.
//!
//! Values mirror the type grammar of §2: atoms of the ordered base type `D`,
//! booleans, the empty tuple, pairs, and finite sets. Sets are kept in a
//! *canonical* representation — sorted by the lifted linear order with duplicates
//! removed — so that value equality is structural equality and the encoding of §5
//! ("no duplicates are allowed in the encoding of a set") is immediate.
//!
//! The order on the base type is the natural order on `u64` atom identifiers; it
//! is lifted to all types in the standard lexicographic way (booleans: `false <
//! true`; pairs: lexicographic; sets: by the sorted element sequences, shorter
//! prefix first), following the remark in §3 that "the order relation can be
//! lifted to all types".
//!
//! A canonical set has one of two physical representations, chosen by
//! [`VSet`]'s constructors and invisible to every public operation:
//!
//! * **Boxed** — an `Arc`'d sorted `Vec<Value>`. The general case.
//! * **Columnar** — when every element shares one *flat* shape (products of
//!   scalars, see [`crate::flat::FlatShape`]) and the set is large enough,
//!   elements are stored as fixed-width row-major `u64` rows in a single
//!   buffer. Membership, equality, ordering, and the set operations then run
//!   as tight word loops (the row order equals the lifted value order), and
//!   boxed `Value`s are materialized lazily only at API boundaries that hand
//!   out `&Value`.
//!
//! Both representations are `Arc`-backed: cloning a [`VSet`] (and hence a
//! set-shaped [`Value`]) is O(1) and the clone shares the buffer with the
//! original. This is what makes values cheap to hand to the parallel
//! evaluation backend — worker threads receive shared references to the same
//! canonical buffer instead of deep copies — and it is safe because canonical
//! sets are immutable in practice ([`VSet::insert`] copies-on-write when the
//! buffer is shared).

use crate::flat::{self, FlatShape, NameWriter};
use crate::types::Type;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// An atom of the ordered base type `D`. Atoms are abstract; only their identity
/// and relative order are observable by generic queries (see [`crate::morphism`]).
pub type Atom = u64;

/// A complex object value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An element of the ordered base type `D`.
    Atom(Atom),
    /// A boolean.
    Bool(bool),
    /// The empty tuple `()`, the only value of type `unit`.
    Unit,
    /// An external natural number (only used with the Σ extension of Prop 6.3).
    Nat(u64),
    /// A pair `(x, y)`.
    Pair(Box<Value>, Box<Value>),
    /// A finite set, kept sorted and duplicate-free.
    Set(VSet),
}

/// Sets whose canonical element count reaches this threshold (and whose
/// elements share one flat shape of width ≥ 1) are stored columnar; smaller
/// or non-flat sets stay boxed. Small sets gain nothing from the encode step,
/// and width-0 shapes (all-unit products) have a single inhabitant, so their
/// sets are at most singletons and never qualify.
const COLUMNAR_MIN_LEN: usize = 8;

/// The columnar payload: one flat shape, row-major sorted dup-free rows, and
/// a lazily materialized boxed view for `&Value` boundaries.
#[derive(Debug, Clone)]
struct Columnar {
    /// The shared shape of every element.
    shape: FlatShape,
    /// `shape.width()`, cached; always ≥ 1.
    width: usize,
    /// Row-major rows, sorted ascending by row (= value) order, no duplicates.
    words: Vec<u64>,
    /// Lazy boxed view; must be cleared whenever `words` is mutated.
    boxed: OnceLock<Vec<Value>>,
}

impl Columnar {
    fn len(&self) -> usize {
        self.words.len() / self.width
    }

    fn boxed(&self) -> &Vec<Value> {
        self.boxed
            .get_or_init(|| decode_rows(&self.shape, self.width, &self.words))
    }
}

/// Decode a row-major buffer back into boxed values, in order.
fn decode_rows(shape: &FlatShape, width: usize, words: &[u64]) -> Vec<Value> {
    words
        .chunks_exact(width)
        .map(|row| shape.decode(row))
        .collect()
}

/// The physical representation behind a [`VSet`].
#[derive(Debug, Clone)]
enum Repr {
    /// Sorted dup-free boxed elements (the general case).
    Boxed(Arc<Vec<Value>>),
    /// Fixed-width rows of one flat shape (large flat-element sets).
    Columnar(Arc<Columnar>),
}

/// A finite set of values in canonical form: elements are sorted by the lifted
/// linear order and contain no duplicates. Large sets of flat-shaped elements
/// are stored columnar (see the module docs); all operations are
/// representation-independent. The backing buffer is shared (`Arc`), so clones
/// are O(1) and safe to send across threads.
#[derive(Debug, Clone)]
pub struct VSet {
    repr: Repr,
}

impl VSet {
    /// The empty set. Every empty set shares one buffer, so making one
    /// allocates nothing ([`VSet::insert`] copies a shared buffer on write).
    pub fn empty() -> VSet {
        static EMPTY: OnceLock<Arc<Vec<Value>>> = OnceLock::new();
        VSet {
            repr: Repr::Boxed(EMPTY.get_or_init(Arc::default).clone()),
        }
    }

    /// A singleton set `{x}`.
    pub fn singleton(x: Value) -> VSet {
        VSet {
            repr: Repr::Boxed(Arc::new(vec![x])),
        }
    }

    /// Build a set from already-canonical (sorted, dup-free) elements,
    /// promoting to columnar when the policy allows.
    fn from_canonical_vec(elems: Vec<Value>) -> VSet {
        if elems.len() >= COLUMNAR_MIN_LEN {
            if let Some(shape) = FlatShape::of_value(&elems[0]) {
                let width = shape.width();
                if width >= 1 {
                    let mut words = Vec::with_capacity(elems.len() * width);
                    if elems.iter().all(|e| shape.encode_into(e, &mut words)) {
                        crate::obs::note_promotion();
                        return VSet {
                            repr: Repr::Columnar(Arc::new(Columnar {
                                shape,
                                width,
                                words,
                                boxed: OnceLock::from(elems),
                            })),
                        };
                    }
                }
            }
        }
        VSet {
            repr: Repr::Boxed(Arc::new(elems)),
        }
    }

    /// Build a set from already-canonical rows, demoting to boxed below the
    /// columnar threshold so small results don't keep a columnar husk.
    fn from_canonical_rows(shape: FlatShape, width: usize, words: Vec<u64>) -> VSet {
        debug_assert!(width >= 1 && words.len().is_multiple_of(width));
        if words.len() / width >= COLUMNAR_MIN_LEN {
            crate::obs::note_promotion();
            VSet {
                repr: Repr::Columnar(Arc::new(Columnar {
                    shape,
                    width,
                    words,
                    boxed: OnceLock::new(),
                })),
            }
        } else {
            crate::obs::note_demotion();
            VSet {
                repr: Repr::Boxed(Arc::new(decode_rows(&shape, width, &words))),
            }
        }
    }

    /// Build a set from raw (unsorted, possibly duplicated) rows of one flat
    /// shape: the bulk entry point for row producers — the compiled `ext`
    /// row kernels stream their output rows here. The rows are canonicalized
    /// by the vectorized row sort/dedup and the result follows the usual
    /// representation policy (columnar at ≥ 8 elements, decoded to boxed
    /// below), so the set is indistinguishable from one built element-wise.
    ///
    /// # Panics
    ///
    /// Panics when the shape has width 0 (all-unit shapes are never columnar;
    /// produce those element-wise) or when `words.len()` is not a multiple of
    /// the width.
    pub fn from_raw_rows(shape: FlatShape, words: Vec<u64>) -> VSet {
        let width = shape.width();
        assert!(
            width >= 1 && words.len().is_multiple_of(width),
            "from_raw_rows: rows must be non-empty-width and whole"
        );
        VSet::from_canonical_rows(shape, width, flat::row_sort_dedup(words, width))
    }

    /// The columnar payload of this set — its shared element shape, row
    /// width, and the row-major word buffer — or `None` for a boxed set.
    /// This is the zero-copy read side of the row-kernel entry points: the
    /// rows are sorted ascending in the row (= value) order and
    /// duplicate-free.
    pub fn columnar_rows(&self) -> Option<(&FlatShape, usize, &[u64])> {
        match &self.repr {
            Repr::Columnar(c) => Some((&c.shape, c.width, c.words.as_slice())),
            Repr::Boxed(_) => None,
        }
    }

    /// Like the [`FromIterator`] impl, but pinned to the boxed representation
    /// (columnar promotion bypassed). A/B support for the representation
    /// equivalence proptests; no evaluation path uses it.
    pub fn from_iter_boxed<I: IntoIterator<Item = Value>>(iter: I) -> VSet {
        let mut elems: Vec<Value> = iter.into_iter().collect();
        elems.sort();
        elems.dedup();
        VSet {
            repr: Repr::Boxed(Arc::new(elems)),
        }
    }

    /// Does this set currently use the columnar representation? The
    /// representation is an implementation detail — every public operation is
    /// representation-independent — but it is observable here for tests,
    /// benches, and documentation: a canonicalizing constructor goes columnar
    /// exactly when all elements share one flat shape of width ≥ 1 and the
    /// canonical set has ≥ 8 elements ([`VSet::insert`] never promotes).
    pub fn is_columnar(&self) -> bool {
        matches!(self.repr, Repr::Columnar(_))
    }

    /// The shared flat shape of the elements, when one exists. Cheap for
    /// columnar sets; for boxed sets this inspects only the first element
    /// (canonical sets are shape-homogeneous whenever any element is flat
    /// only by construction, so callers re-verify via [`VSet::rows_with_shape`]).
    fn element_shape(&self) -> Option<FlatShape> {
        match &self.repr {
            Repr::Columnar(c) => Some(c.shape.clone()),
            Repr::Boxed(elems) => elems.first().and_then(FlatShape::of_value),
        }
    }

    /// This set's rows under `shape`: borrowed from a columnar buffer when the
    /// shapes match, freshly encoded for a boxed set whose elements all fit,
    /// `None` otherwise.
    fn rows_with_shape(&self, shape: &FlatShape, width: usize) -> Option<Cow<'_, [u64]>> {
        match &self.repr {
            Repr::Columnar(c) => (c.shape == *shape).then(|| Cow::Borrowed(c.words.as_slice())),
            Repr::Boxed(elems) => {
                let mut words = Vec::with_capacity(elems.len() * width);
                if elems.iter().all(|e| shape.encode_into(e, &mut words)) {
                    Some(Cow::Owned(words))
                } else {
                    None
                }
            }
        }
    }

    /// Should a binary set operation with `other` try the row kernels, and
    /// under which shape? Yes when either side is already columnar, or when
    /// both are boxed but flat and jointly large enough that the output could
    /// be columnar (so the encode pays for itself).
    fn kernel_shape(&self, other: &VSet) -> Option<(FlatShape, usize)> {
        let shape = match (&self.repr, &other.repr) {
            (Repr::Columnar(c), _) | (_, Repr::Columnar(c)) => c.shape.clone(),
            (Repr::Boxed(a), Repr::Boxed(b)) => {
                if a.len() + b.len() < COLUMNAR_MIN_LEN {
                    return None;
                }
                let first = a.first().or_else(|| b.first())?;
                FlatShape::of_value(first)?
            }
        };
        let width = shape.width();
        (width >= 1).then_some((shape, width))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Boxed(elems) => elems.len(),
            Repr::Columnar(c) => c.len(),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test: binary search over the canonical representation —
    /// over encoded rows for a columnar set (a value that doesn't encode
    /// under the set's shape cannot be an element), over boxed values
    /// otherwise.
    pub fn contains(&self, x: &Value) -> bool {
        match &self.repr {
            Repr::Boxed(elems) => elems.binary_search(x).is_ok(),
            Repr::Columnar(c) => {
                let mut probe = Vec::with_capacity(c.width);
                c.shape.encode_into(x, &mut probe)
                    && flat::row_search(&c.words, c.width, &probe).is_ok()
            }
        }
    }

    /// Insert one element (the `insert presentation` constructor `x ⊲ s` of §2),
    /// preserving canonical form. Returns `true` if the element was new.
    /// Copies the shared buffer on write if other clones are alive; a unique
    /// owner mutates in place (`Arc::make_mut`). Insertion never changes a
    /// boxed set to columnar; inserting a value that doesn't match a columnar
    /// set's shape demotes the set to boxed.
    pub fn insert(&mut self, x: Value) -> bool {
        enum Plan {
            Duplicate,
            BoxedAt(usize),
            RowAt(usize, Vec<u64>),
            Demote,
        }
        let plan = match &self.repr {
            Repr::Boxed(elems) => match elems.binary_search(&x) {
                Ok(_) => Plan::Duplicate,
                Err(pos) => Plan::BoxedAt(pos),
            },
            Repr::Columnar(c) => {
                let mut probe = Vec::with_capacity(c.width);
                if c.shape.encode_into(&x, &mut probe) {
                    match flat::row_search(&c.words, c.width, &probe) {
                        Ok(_) => Plan::Duplicate,
                        Err(pos) => Plan::RowAt(pos, probe),
                    }
                } else {
                    Plan::Demote
                }
            }
        };
        match plan {
            Plan::Duplicate => false,
            Plan::BoxedAt(pos) => {
                let Repr::Boxed(elems) = &mut self.repr else {
                    unreachable!("plan chosen from boxed repr")
                };
                Arc::make_mut(elems).insert(pos, x);
                true
            }
            Plan::RowAt(pos, probe) => {
                let Repr::Columnar(col) = &mut self.repr else {
                    unreachable!("plan chosen from columnar repr")
                };
                let col = Arc::make_mut(col);
                let at = pos * col.width;
                col.words.splice(at..at, probe);
                // The boxed view (if materialized) no longer matches the rows.
                col.boxed.take();
                true
            }
            Plan::Demote => {
                crate::obs::note_demotion();
                let mut elems = std::mem::take(self).into_vec();
                let pos = elems
                    .binary_search(&x)
                    .expect_err("shape-mismatched value cannot already be an element");
                elems.insert(pos, x);
                self.repr = Repr::Boxed(Arc::new(elems));
                true
            }
        }
    }

    /// Set union (the `union presentation` constructor of §2).
    pub fn union(&self, other: &VSet) -> VSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        self.merge::<true, true, true>(other)
    }

    /// The one merge behind [`VSet::union`], [`VSet::intersect`] and
    /// [`VSet::difference`] (see [`flat::merge`] for `L`/`B`/`R`). Columnar-
    /// compatible operands merge as word rows; the general case merges boxed
    /// element views and re-applies the representation policy to the result.
    fn merge<const L: bool, const B: bool, const R: bool>(&self, other: &VSet) -> VSet {
        if let Some((shape, width)) = self.kernel_shape(other) {
            if let (Some(a), Some(b)) = (
                self.rows_with_shape(&shape, width),
                other.rows_with_shape(&shape, width),
            ) {
                let rows = flat::merge::<_, L, B, R>(&a, &b, width);
                return VSet::from_canonical_rows(shape, width, rows);
            }
        }
        let elems = flat::merge::<_, L, B, R>(self.as_slice(), other.as_slice(), 1);
        VSet::from_canonical_vec(elems)
    }

    /// Canonical union of many sets: the post-`ext` merge. When all parts
    /// share one flat shape their rows are flattened into a single buffer and
    /// canonicalized by a vectorized row sort/dedup; otherwise the parts are
    /// combined by a pairwise merge tree. Produces the same canonical set as
    /// folding [`VSet::union`], in O(total · log) word operations for the
    /// flat case.
    pub fn union_many(mut parts: Vec<VSet>) -> VSet {
        parts.retain(|s| !s.is_empty());
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_else(VSet::empty);
        }
        let total: usize = parts.iter().map(VSet::len).sum();
        if total >= COLUMNAR_MIN_LEN {
            if let Some(shape) = parts[0].element_shape() {
                let width = shape.width();
                if width >= 1 {
                    if let Some(rows) = parts
                        .iter()
                        .map(|p| p.rows_with_shape(&shape, width))
                        .collect::<Option<Vec<_>>>()
                    {
                        let mut words = Vec::with_capacity(total * width);
                        for r in &rows {
                            words.extend_from_slice(r);
                        }
                        return VSet::from_canonical_rows(
                            shape,
                            width,
                            flat::row_sort_dedup(words, width),
                        );
                    }
                }
            }
        }
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(a) = it.next() {
                next.push(match it.next() {
                    Some(b) => a.union(&b),
                    None => a,
                });
            }
            parts = next;
        }
        parts.pop().unwrap_or_else(VSet::empty)
    }

    /// Set intersection (used by the bounding step of `bdcr`/`bsri`).
    pub fn intersect(&self, other: &VSet) -> VSet {
        if self.is_empty() || other.is_empty() {
            return VSet::empty();
        }
        self.merge::<false, true, false>(other)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &VSet) -> VSet {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        self.merge::<true, false, false>(other)
    }

    /// Is `self` a subset of `other`? Same-shape columnar operands use a
    /// two-pointer row scan; the general case probes via [`VSet::contains`].
    pub fn is_subset_of(&self, other: &VSet) -> bool {
        if let (Repr::Columnar(a), Repr::Columnar(b)) = (&self.repr, &other.repr) {
            if a.shape == b.shape {
                return flat::row_subset(&a.words, &b.words, a.width);
            }
        }
        self.iter().all(|x| other.contains(x))
    }

    /// Iterate over the elements in the canonical (ascending) order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.as_slice().iter()
    }

    /// The elements as a slice, in canonical order. For a columnar set this
    /// materializes (once per buffer, lazily) the boxed element view.
    pub fn as_slice(&self) -> &[Value] {
        match &self.repr {
            Repr::Boxed(elems) => elems,
            Repr::Columnar(c) => c.boxed(),
        }
    }

    /// Consume the set and return the elements in canonical order. O(1) when
    /// this is the last clone of a boxed buffer (no per-element clone);
    /// decodes or copies otherwise.
    pub fn into_vec(self) -> Vec<Value> {
        match self.repr {
            Repr::Boxed(elems) => Arc::try_unwrap(elems).unwrap_or_else(|shared| (*shared).clone()),
            Repr::Columnar(col) => match Arc::try_unwrap(col) {
                Ok(col) => {
                    let Columnar {
                        shape,
                        width,
                        words,
                        boxed,
                    } = col;
                    boxed
                        .into_inner()
                        .unwrap_or_else(|| decode_rows(&shape, width, &words))
                }
                Err(shared) => shared.boxed().clone(),
            },
        }
    }

    /// Canonical comparison: lexicographic on the sorted element sequences,
    /// shorter prefix first. Same-shape columnar operands compare their word
    /// buffers directly (row order equals value order and the widths agree,
    /// so the word-lexicographic order coincides with the element order).
    fn cmp_canonical(&self, other: &VSet) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Columnar(a), Repr::Columnar(b)) if a.shape == b.shape => {
                debug_assert_eq!(a.width, b.width);
                a.words.cmp(&b.words)
            }
            _ => self.as_slice().cmp(other.as_slice()),
        }
    }
}

impl Default for VSet {
    fn default() -> VSet {
        VSet::empty()
    }
}

impl PartialEq for VSet {
    /// Representation-independent structural equality. Same-representation
    /// operands compare their buffers directly; a columnar set equals a boxed
    /// one exactly when their element sequences agree. (Two non-empty
    /// columnar sets with different shapes are never equal: equal values have
    /// equal shapes.)
    fn eq(&self, other: &VSet) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Boxed(a), Repr::Boxed(b)) => a == b,
            (Repr::Columnar(a), Repr::Columnar(b)) => a.shape == b.shape && a.words == b.words,
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl Eq for VSet {}

impl Hash for VSet {
    /// Hash of the canonical element sequence, so equal sets hash equally
    /// regardless of representation.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl IntoIterator for VSet {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a VSet {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<Value> for VSet {
    /// Build a set from an arbitrary iterator of elements: sorts and
    /// deduplicates, then picks the representation. Large flat-shaped inputs
    /// are encoded first so the canonicalizing sort runs over fixed-width
    /// word rows instead of boxed values.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> VSet {
        let mut elems: Vec<Value> = iter.into_iter().collect();
        if elems.len() >= COLUMNAR_MIN_LEN {
            if let Some(shape) = FlatShape::of_value(&elems[0]) {
                let width = shape.width();
                if width >= 1 {
                    let mut words = Vec::with_capacity(elems.len() * width);
                    if elems.iter().all(|e| shape.encode_into(e, &mut words)) {
                        return VSet::from_canonical_rows(
                            shape,
                            width,
                            flat::row_sort_dedup(words, width),
                        );
                    }
                }
            }
        }
        elems.sort();
        elems.dedup();
        VSet::from_canonical_vec(elems)
    }
}

/// Rank used to order values of *different* shapes. Generic queries only ever
/// compare values of the same type, but a total order on all values keeps the
/// canonical set representation simple and matches the paper's "lift the order to
/// all types" remark.
fn shape_rank(v: &Value) -> u8 {
    match v {
        Value::Unit => 0,
        Value::Bool(_) => 1,
        Value::Atom(_) => 2,
        Value::Nat(_) => 3,
        Value::Pair(_, _) => 4,
        Value::Set(_) => 5,
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Unit, Value::Unit) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Atom(a), Value::Atom(b)) => a.cmp(b),
            (Value::Nat(a), Value::Nat(b)) => a.cmp(b),
            (Value::Pair(a1, a2), Value::Pair(b1, b2)) => a1.cmp(b1).then_with(|| a2.cmp(b2)),
            (Value::Set(a), Value::Set(b)) => a.cmp_canonical(b),
            _ => shape_rank(self).cmp(&shape_rank(other)),
        }
    }
}

impl Value {
    /// The empty set of any element type.
    pub fn empty_set() -> Value {
        Value::Set(VSet::empty())
    }

    /// A singleton set `{x}`.
    pub fn singleton(x: Value) -> Value {
        Value::Set(VSet::singleton(x))
    }

    /// Build a set value from an iterator of elements.
    pub fn set_from<I: IntoIterator<Item = Value>>(iter: I) -> Value {
        Value::Set(VSet::from_iter(iter))
    }

    /// A pair `(x, y)`.
    pub fn pair(x: Value, y: Value) -> Value {
        Value::Pair(Box::new(x), Box::new(y))
    }

    /// Build a binary relation value `{(a, b), ...}` from atom pairs.
    pub fn relation_from_pairs<I: IntoIterator<Item = (Atom, Atom)>>(pairs: I) -> Value {
        Value::set_from(
            pairs
                .into_iter()
                .map(|(a, b)| Value::pair(Value::Atom(a), Value::Atom(b))),
        )
    }

    /// Build a unary relation value `{a, ...}` from atoms.
    pub fn atom_set<I: IntoIterator<Item = Atom>>(atoms: I) -> Value {
        Value::set_from(atoms.into_iter().map(Value::Atom))
    }

    /// If this is a set, borrow it.
    pub fn as_set(&self) -> Option<&VSet> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// If this is a pair, borrow the components.
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// If this is an atom, return it.
    pub fn as_atom(&self) -> Option<Atom> {
        match self {
            Value::Atom(a) => Some(*a),
            _ => None,
        }
    }

    /// If this is an external natural number, return it.
    pub fn as_nat(&self) -> Option<u64> {
        match self {
            Value::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// Does this value inhabit the given complex object type?
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Atom(_), Type::Base) => true,
            (Value::Bool(_), Type::Bool) => true,
            (Value::Unit, Type::Unit) => true,
            (Value::Nat(_), Type::Nat) => true,
            (Value::Pair(a, b), Type::Prod(ta, tb)) => a.has_type(ta) && b.has_type(tb),
            // A columnar set has one shape for all its rows, and `of_type` is
            // the static twin of the `of_value` that shape came from.
            (Value::Set(s), Type::Set(t)) => match s.columnar_rows() {
                Some((shape, _, _)) => FlatShape::of_type(t).as_ref() == Some(shape),
                None => s.iter().all(|x| x.has_type(t)),
            },
            _ => false,
        }
    }

    /// All atoms occurring in the value, in order of first occurrence of the
    /// canonical traversal. Used for the minimal encoding of §5 (atoms are
    /// renumbered `0 .. m−1`) and for genericity tests.
    pub fn atoms(&self) -> Vec<Atom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_atoms(&self, out: &mut Vec<Atom>) {
        match self {
            Value::Atom(a) => out.push(*a),
            Value::Bool(_) | Value::Unit | Value::Nat(_) => {}
            Value::Pair(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
            Value::Set(s) => {
                for x in s.iter() {
                    x.collect_atoms(out);
                }
            }
        }
    }

    /// Total number of value constructors (a size measure used in cost reporting
    /// and in the polynomial-size assertions of the encoding tests).
    pub fn size(&self) -> usize {
        match self {
            Value::Atom(_) | Value::Bool(_) | Value::Unit | Value::Nat(_) => 1,
            Value::Pair(a, b) => 1 + a.size() + b.size(),
            Value::Set(s) => 1 + s.iter().map(Value::size).sum::<usize>(),
        }
    }

    /// Maximum set-nesting depth of the value.
    pub fn set_height(&self) -> usize {
        match self {
            Value::Atom(_) | Value::Bool(_) | Value::Unit | Value::Nat(_) => 0,
            Value::Pair(a, b) => a.set_height().max(b.set_height()),
            Value::Set(s) => 1 + s.iter().map(Value::set_height).max().unwrap_or(0),
        }
    }

    /// Cardinality if this is a set; `None` otherwise.
    pub fn cardinality(&self) -> Option<usize> {
        self.as_set().map(VSet::len)
    }
}

impl Value {
    /// Write the printed form — [`Display`](fmt::Display)'s text — to `out`,
    /// each interned atom's name through `name`. A columnar set prints from
    /// its rows; no boxed view is made.
    pub fn write_printed<W: fmt::Write>(&self, out: &mut W, name: NameWriter<W>) -> fmt::Result {
        match self {
            Value::Atom(a) => flat::write_atom(out, *a, name),
            Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Value::Unit => out.write_str("()"),
            Value::Nat(n) => flat::write_u64(out, *n),
            Value::Pair(a, b) => {
                out.write_char('(')?;
                a.write_printed(out, name)?;
                out.write_str(", ")?;
                b.write_printed(out, name)?;
                out.write_char(')')
            }
            Value::Set(s) => {
                out.write_char('{')?;
                match s.columnar_rows() {
                    Some((shape, width, words)) => {
                        for (i, row) in words.chunks_exact(width).enumerate() {
                            if i > 0 {
                                out.write_str(", ")?;
                            }
                            shape.write_row(out, row, name)?;
                        }
                    }
                    None => {
                        for (i, x) in s.iter().enumerate() {
                            if i > 0 {
                                out.write_str(", ")?;
                            }
                            x.write_printed(out, name)?;
                        }
                    }
                }
                out.write_char('}')
            }
        }
    }
}

/// A formatter fed through a stack buffer: a printed row is many small
/// pieces, and each write to a [`fmt::Formatter`] is a dynamic call.
struct Buffered<'a, 'f> {
    f: &'a mut fmt::Formatter<'f>,
    buf: [u8; 512],
    len: usize,
}

impl Buffered<'_, '_> {
    fn flush(&mut self) -> fmt::Result {
        let text = std::str::from_utf8(&self.buf[..self.len]).expect("whole pieces of text");
        self.len = 0;
        self.f.write_str(text)
    }

    /// [`fmt::Write::write_str`] for a piece that does not fit: out of line,
    /// so the copy of one that does is small enough to inline.
    #[cold]
    #[inline(never)]
    fn flush_and_write(&mut self, s: &str) -> fmt::Result {
        self.flush()?;
        self.f.write_str(s)
    }
}

impl fmt::Write for Buffered<'_, '_> {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        if end > self.buf.len() {
            return self.flush_and_write(s);
        }
        self.buf[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Buffered {
            f,
            buf: [0; 512],
            len: 0,
        };
        self.write_printed(&mut out, fmt::Write::write_str)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> VSet {
        VSet::from_iter(vec![
            Value::Atom(2),
            Value::Atom(1),
            Value::Atom(3),
            Value::Atom(2),
        ])
    }

    #[test]
    fn sets_are_canonical() {
        let s = abc();
        assert_eq!(s.len(), 3);
        let elems: Vec<_> = s.iter().cloned().collect();
        assert_eq!(elems, vec![Value::Atom(1), Value::Atom(2), Value::Atom(3)]);
    }

    #[test]
    fn duplicate_insertion_is_idempotent() {
        let mut s = VSet::empty();
        assert!(s.insert(Value::Atom(7)));
        assert!(!s.insert(Value::Atom(7)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_is_associative_commutative_idempotent() {
        let a = VSet::from_iter(vec![Value::Atom(1), Value::Atom(2)]);
        let b = VSet::from_iter(vec![Value::Atom(2), Value::Atom(3)]);
        let c = VSet::from_iter(vec![Value::Atom(4)]);
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        assert_eq!(a.union(&a), a);
        assert_eq!(a.union(&VSet::empty()), a);
    }

    #[test]
    fn intersection_and_difference() {
        let a = VSet::from_iter(vec![Value::Atom(1), Value::Atom(2), Value::Atom(3)]);
        let b = VSet::from_iter(vec![Value::Atom(2), Value::Atom(3), Value::Atom(4)]);
        assert_eq!(
            a.intersect(&b),
            VSet::from_iter(vec![Value::Atom(2), Value::Atom(3)])
        );
        assert_eq!(a.difference(&b), VSet::from_iter(vec![Value::Atom(1)]));
        assert!(a.intersect(&b).is_subset_of(&a));
    }

    #[test]
    fn equality_is_structural_on_canonical_sets() {
        let s1 = Value::set_from(vec![Value::Atom(1), Value::Atom(2)]);
        let s2 = Value::set_from(vec![Value::Atom(2), Value::Atom(1), Value::Atom(1)]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn order_is_lifted_to_pairs_and_sets() {
        let p1 = Value::pair(Value::Atom(1), Value::Atom(9));
        let p2 = Value::pair(Value::Atom(2), Value::Atom(0));
        assert!(p1 < p2);
        let s1 = Value::set_from(vec![Value::Atom(1)]);
        let s2 = Value::set_from(vec![Value::Atom(1), Value::Atom(2)]);
        assert!(s1 < s2);
        let s3 = Value::set_from(vec![Value::Atom(2)]);
        assert!(s2 < s3);
    }

    #[test]
    fn has_type_checks_structure() {
        let rel = Value::relation_from_pairs(vec![(1, 2), (2, 3)]);
        assert!(rel.has_type(&Type::binary_relation()));
        assert!(!rel.has_type(&Type::unary_relation()));
        assert!(Value::Bool(true).has_type(&Type::Bool));
        assert!(!Value::Bool(true).has_type(&Type::Base));
        let nested = Value::set_from(vec![Value::atom_set(vec![1, 2]), Value::atom_set(vec![3])]);
        assert!(nested.has_type(&Type::set(Type::set(Type::Base))));
    }

    #[test]
    fn atoms_are_collected_sorted_and_deduplicated() {
        let v = Value::pair(
            Value::relation_from_pairs(vec![(5, 1), (1, 3)]),
            Value::Atom(3),
        );
        assert_eq!(v.atoms(), vec![1, 3, 5]);
    }

    #[test]
    fn size_and_set_height() {
        let v = Value::set_from(vec![Value::atom_set(vec![1]), Value::atom_set(vec![2, 3])]);
        assert_eq!(v.set_height(), 2);
        assert_eq!(v.size(), 1 + (1 + 1) + (1 + 2));
    }

    #[test]
    fn clones_share_the_buffer_and_insert_copies_on_write() {
        let a = VSet::from_iter((0..100).map(Value::Atom));
        let mut b = a.clone();
        // The clone shares storage with the original...
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
        // ...until a write, which must not disturb the original.
        assert!(b.insert(Value::Atom(1000)));
        assert_eq!(a.len(), 100);
        assert_eq!(b.len(), 101);
        assert!(!a.contains(&Value::Atom(1000)));
        assert!(b.contains(&Value::Atom(1000)));
    }

    #[test]
    fn empty_sets_are_equal_and_insert_into_one_leaves_the_others_empty() {
        let (mut a, b) = (VSet::empty(), VSet::empty());
        assert_eq!(a, b);
        assert!(a.insert(Value::Atom(1)));
        assert_eq!(a.len(), 1);
        assert!(b.is_empty() && VSet::empty().is_empty());
        assert_eq!(b, VSet::empty());
    }

    #[test]
    fn values_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Value>();
        assert_send_sync::<VSet>();
    }

    #[test]
    fn display_of_values() {
        let v = Value::pair(Value::Atom(1), Value::set_from(vec![Value::Bool(true)]));
        assert_eq!(v.to_string(), "(a1, {true})");
    }

    #[test]
    fn columnar_promotion_follows_the_policy() {
        // Large flat sets go columnar; small, non-flat, or pinned-boxed ones don't.
        assert!(VSet::from_iter((0..8).map(Value::Atom)).is_columnar());
        assert!(!VSet::from_iter((0..7).map(Value::Atom)).is_columnar());
        assert!(VSet::from_iter(
            (0..8).map(|i| Value::pair(Value::Atom(i), Value::Bool(i % 2 == 0)))
        )
        .is_columnar());
        assert!(!VSet::from_iter((0..20).map(|i| Value::singleton(Value::Atom(i)))).is_columnar());
        assert!(!VSet::from_iter_boxed((0..100).map(Value::Atom)).is_columnar());
        // Width-0 shapes (units) have one inhabitant and never reach the threshold.
        assert!(!VSet::from_iter(std::iter::repeat_n(Value::Unit, 20)).is_columnar());
    }

    #[test]
    fn columnar_and_boxed_representations_are_interchangeable() {
        let cols = VSet::from_iter((0..50).map(|i| Value::pair(Value::Atom(i), Value::Nat(i * i))));
        let boxed =
            VSet::from_iter_boxed((0..50).map(|i| Value::pair(Value::Atom(i), Value::Nat(i * i))));
        assert!(cols.is_columnar() && !boxed.is_columnar());
        assert_eq!(cols, boxed);
        assert_eq!(boxed, cols);
        assert_eq!(
            Value::Set(cols.clone()).cmp(&Value::Set(boxed.clone())),
            Ordering::Equal
        );
        let hash = |s: &VSet| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&cols), hash(&boxed));
        assert_eq!(Value::Set(cols).to_string(), Value::Set(boxed).to_string());
    }

    #[test]
    fn columnar_set_operations_match_the_boxed_merges() {
        let mk = |r: std::ops::Range<u64>, step: u64| -> Vec<Value> {
            r.map(|i| Value::pair(Value::Atom(i * step), Value::Atom(i)))
                .collect()
        };
        let (xs, ys) = (mk(0..40, 3), mk(0..40, 5));
        let (a, b) = (VSet::from_iter(xs.clone()), VSet::from_iter(ys.clone()));
        let (ab, bb) = (VSet::from_iter_boxed(xs), VSet::from_iter_boxed(ys));
        assert!(a.is_columnar() && b.is_columnar());
        assert_eq!(a.union(&b), ab.union(&bb));
        assert_eq!(a.intersect(&b), ab.intersect(&bb));
        assert_eq!(a.difference(&b), ab.difference(&bb));
        assert_eq!(a.is_subset_of(&b), ab.is_subset_of(&bb));
        assert!(a.intersect(&b).is_subset_of(&a));
        // Mixed-representation operands take the encode-one-side kernel path.
        assert_eq!(a.union(&bb), ab.union(&b));
    }

    #[test]
    fn union_many_matches_a_union_fold() {
        let parts: Vec<VSet> = (0..17)
            .map(|k| {
                VSet::from_iter(
                    (0..30).map(|i| Value::pair(Value::Atom((i * 7 + k) % 40), Value::Atom(k))),
                )
            })
            .collect();
        let folded = parts.iter().fold(VSet::empty(), |acc, s| acc.union(s));
        assert_eq!(VSet::union_many(parts.clone()), folded);
        // Non-flat parts exercise the pairwise merge tree.
        let nested: Vec<VSet> = (0..9)
            .map(|k| VSet::from_iter((0..5).map(|i| Value::singleton(Value::Atom(i + k)))))
            .collect();
        let folded_nested = nested.iter().fold(VSet::empty(), |acc, s| acc.union(s));
        assert_eq!(VSet::union_many(nested), folded_nested);
        assert_eq!(VSet::union_many(Vec::new()), VSet::empty());
    }

    #[test]
    fn unique_owner_insert_reuses_the_boxed_buffer() {
        // Dedup leaves spare capacity behind, so a unique owner's insert must
        // shift in place (Arc::make_mut's uniquely-owned branch) instead of
        // cloning or reallocating the buffer.
        let mut s = VSet::from_iter((0..32).flat_map(|i| {
            let v = Value::singleton(Value::Atom(i));
            [v.clone(), v]
        }));
        assert!(!s.is_columnar());
        assert_eq!(s.len(), 32);
        let before = s.as_slice().as_ptr();
        assert!(s.insert(Value::singleton(Value::Atom(99))));
        assert!(std::ptr::eq(before, s.as_slice().as_ptr()));
    }

    #[test]
    fn unique_owner_columnar_insert_splices_in_place() {
        let mut s = VSet::from_iter((0..64).map(|i| Value::Atom(2 * i)));
        assert!(s.is_columnar());
        // The first insert may grow the row buffer; the doubled capacity then
        // guarantees the second unique-owner insert splices in place.
        assert!(s.insert(Value::Atom(1)));
        let before = match &s.repr {
            Repr::Columnar(c) => c.words.as_ptr(),
            Repr::Boxed(_) => unreachable!("insert must not demote on matching shape"),
        };
        // Materialize the boxed view, then check the next insert refreshes it.
        assert_eq!(s.as_slice().len(), 65);
        assert!(s.insert(Value::Atom(3)));
        let after = match &s.repr {
            Repr::Columnar(c) => c.words.as_ptr(),
            Repr::Boxed(_) => unreachable!(),
        };
        assert!(std::ptr::eq(before, after));
        assert_eq!(s.as_slice().len(), 66);
        assert!(s.contains(&Value::Atom(3)));
    }

    #[test]
    fn raw_rows_round_trip_through_the_row_entry_points() {
        let vals: Vec<Value> = (0..20)
            .map(|i| Value::pair(Value::Atom(i % 7), Value::Nat(19 - i)))
            .collect();
        let expected = VSet::from_iter(vals.clone());
        let shape = FlatShape::of_value(&vals[0]).unwrap();
        // Encode in a scrambled order with duplicates: from_raw_rows must
        // canonicalize exactly like the element-wise constructor.
        let mut words = Vec::new();
        for v in vals.iter().rev().chain(vals.iter().take(5)) {
            assert!(shape.encode_into(v, &mut words));
        }
        let built = VSet::from_raw_rows(shape.clone(), words);
        assert_eq!(built, expected);
        let (s, w, rows) = built.columnar_rows().expect("20 flat rows go columnar");
        assert_eq!((s, w), (&shape, 2));
        assert_eq!(rows.len(), 2 * expected.len());
        // Below the threshold the result demotes to boxed, like every other
        // canonicalizing constructor.
        let mut few = Vec::new();
        for v in vals.iter().take(3) {
            assert!(shape.encode_into(v, &mut few));
        }
        let small = VSet::from_raw_rows(shape, few);
        assert!(small.columnar_rows().is_none());
        assert_eq!(small, VSet::from_iter(vals[..3].to_vec()));
    }

    #[test]
    fn shape_mismatched_insert_demotes_to_boxed() {
        let mut s = VSet::from_iter((0..10).map(Value::Atom));
        assert!(s.is_columnar());
        assert!(s.insert(Value::Nat(3)));
        assert!(!s.is_columnar());
        assert_eq!(s.len(), 11);
        assert!(s.contains(&Value::Nat(3)));
        assert!(s.contains(&Value::Atom(3)));
    }
}
