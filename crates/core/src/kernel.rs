//! Compiled row kernels: running `ext` bodies and scalar `dcr`/`sru` trees
//! directly over columnar rows, a block of rows at a time.
//!
//! [`VSet`] stores large flat-shaped sets as fixed-width `u64` rows; an
//! interpreted `ext` boxes every element back into a
//! [`Value`](ncql_object::Value) the moment its closure touches the set.
//! When an `ext` body is built from projections, pair construction, scalar
//! comparisons/arithmetic, `let`/`if`, and constants over a flat-shaped
//! input, the compiler lowers it to a [`RowKernel`]: a flat instruction list
//! over one-word *slots*, run over blocks of up to 1 024 rows as in
//! vectorised execution (MonetDB/X100). Each slot has a column, and each
//! instruction sweeps whole columns — an external is one loop of its
//! [`WordOp`] — so nothing is dispatched per row and no `Value` is built.
//! What a block fills is decided when the body is compiled: of a block's
//! rows only the words some instruction reads are transposed into columns,
//! an emitted word of the row is gathered straight from the rows, and
//! constants' columns are filled once, when a run lays its columns out.
//! Variables, `let`-bound values, projections and literals are plain slots
//! and cost no instruction. Every liftable operation is total, so both arms
//! of an `if` compute over the whole block: the `if` only sets a bit of each
//! row's *path key*, and the join of a scalar `if` and the choice of the
//! rows that emit — one branch-free pass — commit on the rows of their arm
//! alone.
//!
//! A body may read variables bound outside it: a captured flat value is a
//! constant for the duration of one inner loop, so it is a kernel
//! *parameter*, preloaded once per call like a literal. The compiler reads
//! the resolved plan ([`crate::resolve`]): a variable's slot says whether a
//! binder inside the body or a capture holds it, and a capture is the value
//! bound `up` frames out of the closure's environment, with the shape the
//! survey's stack of enclosing binders gives it. A body that begins
//! `if x = y then … else empty`, `x` read from its row and `y` preloaded, is
//! *keyed*: a row whose key differs takes path 0 and emits nothing. For a
//! column-prefix key only the range of the sorted rows that can match
//! executes (binary search); the rest are charged as path 0. An `ext` of
//! `\a: A. ext(\b: B. body, S)`, `A` flat, `S` a constant or a variable other
//! than `a` and `body` keyed, is a *join site* ([`Sites`]): per outer row,
//! loaded as the capture `a`, the inner kernel runs over `S` into one buffer
//! per shard while every charge of the nested loop is replayed in the
//! interpreter's order, so cost is unchanged by construction. A boxed side,
//! or kernels off, runs the nested loop.
//!
//! An unbounded `dcr`/`sru` whose `f : row → R` and `u : (R * R) → R` both
//! lower to scalars of one flat shape `R` runs as a kernel tree
//! ([`RowKernel::map_rows`]): one pass of the `f` kernel for the leaves, then
//! one pass of the `u` kernel over adjacent entries per round — the
//! interpreter's combining tree, so `u` need not be associative. But a `u`
//! of one `nat_add`/`nat_mul`/`nat_max`/`nat_min` call over both its words
//! (`RowKernel::word_fold`) gives every tree one value: no tree is built,
//! and the leaves fold per shard as blocks compute them (`RowKernel::fold_rows`).
//!
//! Three invariants make the kernel path *indistinguishable* from the
//! interpreter (the differential and property suites pin all three):
//!
//! 1. **Values** — the emitted rows, canonicalized through
//!    [`VSet::from_raw_rows`], produce exactly the set the interpreted
//!    element map produces (canonical representations are unique).
//! 2. **Cost** — the compiler folds the rules of [`crate::cost`] — the ones
//!    the interpreter charges — into a cost term per body: each `if` owns
//!    one bit of the path key, set on the rows that take its then-arm
//!    (conditionals charge only the taken arm), and a run charges a block of
//!    rows `Σ rows(path) × work(path)` and reports the span of each path.
//! 3. **Fallback** — anything unliftable (set-typed subterms, a captured
//!    variable no enclosing `λ` binds at a flat type, non-flat constants,
//!    externals without a word op, more conditionals than the path key has
//!    bits) rejects at compile time with a reason, and the site runs the
//!    ordinary interpreter. The decision depends only on the body, the
//!    annotated shapes of its parameter and of the enclosing `λ`s, and the
//!    registry, so prepare-time analysis ([`analyze_sites`]) predicts it
//!    exactly.
//!
//! Compilation happens once per `λ` of a plan, not per closure instance: the
//! plan is surveyed ([`Sites`]) when it is prepared — or, for a plan nobody
//! prepared, when its evaluation starts — and every closure made from a `λ`
//! — one per outer row, in a join — finds the kernel by the address of the
//! body it shares with the plan. A `λ` written at an `ext` or recursor site
//! is compiled for that site; any other flat-annotated `λ` (bound by a `let`,
//! passed as an argument) is compiled as an `ext` function, for whichever
//! site its closure reaches.

use crate::cost::{self, Rule};
use crate::expr::{Expr, ExprKind, Form, Slot, UnionForm, Var};
use crate::externs::{ExternRegistry, WordOp};
use crate::resolve::{resolve, Resolved};
use crate::span::Span;
use ncql_object::{FlatShape, VSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Conditionals one body may hold: each owns one bit of the `u64` path key.
const MAX_BRANCHES: u32 = u64::BITS;

/// Conditionals up to which a kernel tabulates the charge of every path key;
/// a body with more folds its cost term once per distinct path of a block.
const TABLE_BITS: u32 = 8;

/// Rows per block: the execution block, over which each instruction runs
/// once, and the accounting block, after which the work limit and the
/// cancel token are polled and `ext_calls`/work charged.
const BLOCK_ROWS: usize = 1024;

/// One instruction, run once over every row of a block. Operands are slots:
/// the input row's words, then — in the order the body first uses them —
/// the preloaded constants and captures, and a destination per instruction
/// that creates words, after its operands. The body is loop-free, so a
/// destination is written once per block.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `at = op(a, b)`: an external through its word op.
    Call {
        op: WordOp,
        a: usize,
        b: usize,
        at: usize,
    },
    /// `=` / `<=` on two same-shape operands of `len` slots:
    /// word-lexicographic comparison, which equals the lifted value order.
    Cmp {
        leq: bool,
        a: usize,
        b: usize,
        len: usize,
        at: usize,
    },
    /// A word of a pair, or of the one destination the arms of a scalar `if`
    /// or several `{…}` copy into: committed on the rows of `arm` only.
    Copy { src: usize, dst: usize, arm: Arm },
    /// A conditional in `arm`: its rows whose `cond` holds take the then-arm
    /// and set `bit` of their path key.
    If { cond: usize, bit: u32, arm: Arm },
}

impl Op {
    /// The slots the instruction reads.
    fn operands(self) -> [Range<usize>; 2] {
        match self {
            Op::Call { a, b, .. } => [a..a + 1, b..b + 1],
            Op::Cmp { a, b, len, .. } => [a..a + len, b..b + len],
            Op::Copy { src, .. } => [src..src + 1, 0..0],
            Op::If { cond, .. } => [cond..cond + 1, 0..0],
        }
    }
}

/// The rows of one arm of a body's conditionals: those whose path keys agree
/// with `want` on `care`, the bits of the conditionals around the arm (a row
/// that did not reach one of them already disagrees on an outer one).
#[derive(Debug, Clone, Copy, Default)]
struct Arm {
    care: u64,
    want: u64,
}

impl Arm {
    fn holds(self, path: u64) -> bool {
        path & self.care == self.want
    }

    /// The then-arm (`taken`) or the else-arm of the conditional owning `bit`.
    fn inner(self, bit: u32, taken: bool) -> Arm {
        let (care, want) = (self.care | 1 << bit, self.want | u64::from(taken) << bit);
        Arm { care, want }
    }
}

/// The interpreter's `(work, span)` charge for one body, as a function of
/// the path key. Built once by the compiler from the rules of
/// [`crate::cost`]; nothing is accounted in the row loop.
#[derive(Debug)]
enum Cost {
    /// A subterm without conditionals: the same charge on every row.
    Flat(u64, u64),
    /// A node under `rule` over the operands `kids`.
    Node { rule: Rule, kids: Vec<Cost> },
    /// The taken arm of the conditional owning `bit`.
    Branch {
        bit: u32,
        t: Box<Cost>,
        e: Box<Cost>,
    },
}

impl Cost {
    /// A node under `rule` over `kids`, folded to a constant when every
    /// operand is one.
    fn node(rule: Rule, kids: Vec<Cost>) -> Cost {
        let straight = kids.iter().all(|k| matches!(k, Cost::Flat(..)));
        let node = Cost::Node { rule, kids };
        if straight {
            let (work, span) = node.of(0);
            Cost::Flat(work, span)
        } else {
            node
        }
    }

    /// Extra work, static for a flat shape: an operand of no depth.
    fn extra(work: u64) -> Cost {
        Cost::Flat(work, 0)
    }

    /// The charge for a row that took `path`.
    fn of(&self, path: u64) -> (u64, u64) {
        match self {
            Cost::Flat(work, span) => (*work, *span),
            Cost::Node { rule, kids } => rule.node(kids.iter().map(|kid| kid.of(path))),
            Cost::Branch { bit, t, e } => {
                if path >> bit & 1 == 1 {
                    t.of(path)
                } else {
                    e.of(path)
                }
            }
        }
    }
}

/// A variable the body reads from outside itself: the value bound `up`
/// frames out of the closure's environment, preloaded once per run as the
/// words at `at`.
#[derive(Debug)]
struct Capture {
    up: usize,
    shape: FlatShape,
    at: usize,
}

impl Capture {
    fn slots(&self) -> Range<usize> {
        self.at..self.at + self.shape.width()
    }
}

/// The key of a keyed comprehension (see the module docs): `len` words at
/// `at` in the input row against preloaded words at `probe`.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: usize,
    probe: usize,
    len: usize,
}

/// The key of `body`, `if x = y then … else empty` lowered to `ops`: with
/// no instruction for `x` or `y`, `ops` begin comparing row words with
/// preloaded ones.
fn key(body: &Expr, ops: &[Op], input_width: usize) -> Option<Key> {
    let (&[Op::Cmp { a, b, len, .. }, Op::If { .. }, ..], ExprKind::If(test, _, otherwise)) =
        (ops, &body.kind)
    else {
        return None;
    };
    let shaped =
        matches!(test.kind, ExprKind::Eq(..)) && matches!(otherwise.kind, ExprKind::Empty(_));
    let in_row = |at: usize| at + len <= input_width;
    let (at, probe) = if in_row(a) { (a, b) } else { (b, a) };
    let keyed = shaped && len > 0 && in_row(at) && !in_row(probe);
    keyed.then_some(Key { at, probe, len })
}

/// The first of `0..n` at which the monotone `before` turns false.
fn partition(n: usize, before: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        (lo, hi) = if before(mid) {
            (mid + 1, hi)
        } else {
            (lo, mid)
        };
    }
    lo
}

/// A compiled `λ` body: a flat program over the slots of a block of rows.
#[derive(Debug)]
pub struct RowKernel {
    input_shape: FlatShape,
    input_width: usize,
    output_shape: FlatShape,
    /// Total slots: input row, constants, captures, destinations.
    slots: usize,
    /// The input words some instruction reads, ascending: the only ones a
    /// block transposes into columns.
    reads: Vec<usize>,
    /// Constant words preloaded once per scratch: `(slot, word)`.
    consts: Vec<(usize, u64)>,
    captures: Vec<Capture>,
    ops: Vec<Op>,
    /// The slot of each word of an output row.
    emit: Vec<usize>,
    /// The arms of the `{…}`s: the rows of these emit.
    keeps: Vec<Arm>,
    cost: Cost,
    /// `cost.of(path)` for every path key, when the body has at most
    /// [`TABLE_BITS`] conditionals; empty otherwise.
    table: Vec<(u64, u64)>,
    key: Option<Key>,
}

/// What one shard's runs of a kernel work in: allocated once per shard and
/// grown to the largest block it has run, so a run over a handful of rows
/// pays for a handful. `cols` holds one column of `rows` words per slot (a
/// constant's is filled when the columns are laid out, an input word's only
/// if some instruction reads it), `paths` each row's path key and `sel` the
/// rows that emit, in order.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The preloaded words — constants and captured values — at their slots.
    /// A join site writes each outer row into its capture's.
    pub(crate) words: Vec<u64>,
    rows: usize,
    cols: Vec<u64>,
    paths: Vec<u64>,
    sel: Vec<usize>,
}

impl Scratch {
    /// Room for a block of `n` rows of `kernel`; no column outlives a block.
    fn fit(&mut self, kernel: &RowKernel, n: usize) {
        if n > self.rows {
            self.rows = n.max(2 * self.rows).min(BLOCK_ROWS);
            self.cols.resize(kernel.slots * self.rows, 0);
            // Nothing writes a constant's column but this, once per layout.
            for &(at, word) in &kernel.consts {
                self.cols[at * self.rows..][..self.rows].fill(word);
            }
            self.paths.resize(self.rows, 0);
            self.sel = (0..self.rows).collect();
        }
    }
}

/// `out[i] = op(a[i], b[i])` over a block: every arm passes [`each`] a
/// constant op, so each op runs as a loop of its own.
fn sweep(op: WordOp, a: &[u64], b: &[u64], out: &mut [u64]) {
    use WordOp::*;
    match op {
        Add => each(Add, a, b, out),
        Sub => each(Sub, a, b, out),
        Mul => each(Mul, a, b, out),
        Div => each(Div, a, b, out),
        Max => each(Max, a, b, out),
        Min => each(Min, a, b, out),
        Leq => each(Leq, a, b, out),
        Bit => each(Bit, a, b, out),
        Identity => each(Identity, a, b, out),
    }
}

/// Write the rows of a block whose path keys `keep` holds for into `sel`, in
/// order, with no branch per row; returns how many there are.
#[inline(always)]
fn select(paths: &[u64], sel: &mut [usize], keep: impl Fn(u64) -> bool) -> usize {
    let mut len = 0;
    for (i, &path) in paths.iter().enumerate() {
        sel[len] = i;
        len += usize::from(keep(path));
    }
    len
}

#[inline(always)]
fn each(op: WordOp, a: &[u64], b: &[u64], out: &mut [u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = op.apply(x, y);
    }
}

/// `words` and `acc` folded with one of [`RowKernel::word_fold`]'s ops, each
/// a loop of its own, as in [`sweep`].
fn reduce(op: WordOp, words: &[u64], acc: Option<u64>) -> Option<u64> {
    let words = words.iter().copied().chain(acc);
    let fold = |op: WordOp| words.clone().reduce(|a, b| op.apply(a, b));
    match op {
        WordOp::Add => fold(WordOp::Add),
        WordOp::Mul => fold(WordOp::Mul),
        WordOp::Max => fold(WordOp::Max),
        WordOp::Min => fold(WordOp::Min),
        _ => unreachable!("{op:?} is no fold"),
    }
}

impl RowKernel {
    /// The flat shape of the rows the kernel reads.
    pub fn input_shape(&self) -> &FlatShape {
        &self.input_shape
    }

    /// The flat shape of the rows the kernel emits.
    pub fn output_shape(&self) -> &FlatShape {
        &self.output_shape
    }

    /// Is this a kernel `(R * R) → R` over `r`: can it combine, entry with
    /// adjacent entry, the results of a kernel that emits `r` rows?
    pub fn combines(&self, r: &FlatShape) -> bool {
        let paired = matches!(&self.input_shape, FlatShape::Pair(a, b) if **a == *r && **b == *r);
        paired && self.output_shape == *r
    }

    /// The variables the body captures, in the order a run expects their
    /// words: how many frames out of the closure's environment each is
    /// bound, with the flat shape its value must encode under.
    pub fn captures(&self) -> impl Iterator<Item = (usize, &FlatShape)> {
        self.captures.iter().map(|c| (c.up, &c.shape))
    }

    /// Run an `ext` body over one shard of input rows (row-major, whole rows,
    /// in canonical order) and return the canonical set of the emitted rows
    /// with the largest span any row took (the apply level included).
    /// `captures` holds the words of the captured values, concatenated in
    /// [`RowKernel::captures`] order.
    ///
    /// One call owns everything a shard needs — the scratch columns and the
    /// output rows — so nothing is allocated per block. The caller owns the
    /// statistics: after each block of at most 1 024 rows, `charge(rows, work)`
    /// receives the block's row count and the exact work the interpreter
    /// charges for applying the closure to those rows, and its error (work
    /// limit, cancellation) stops the shard.
    pub(crate) fn run_rows<E>(
        &self,
        rows: &[u64],
        captures: &[u64],
        charge: impl FnMut(u64, u64) -> Result<(), E>,
    ) -> Result<(VSet, u64), E> {
        let mut out = Vec::new();
        let max_span = self.probe(rows, &mut self.scratch(captures), &mut out, charge)?;
        // A selective filter leaves most of the reservation unused, and an
        // already-canonical batch is adopted as the set's buffer as is.
        out.shrink_to_fit();
        let set = VSet::from_raw_rows(self.output_shape.clone(), out);
        Ok((set, max_span))
    }

    /// Run a recursor's `f` or `u` body — a scalar, so every row yields
    /// exactly one result — over one shard of input rows: the result rows in
    /// input order, and the span of each application. `captures` holds the
    /// captured values' words in [`RowKernel::captures`] order; `charge`
    /// receives each block's rows and work, as for an `ext` body.
    pub fn map_rows<E>(
        &self,
        rows: &[u64],
        captures: &[u64],
        charge: impl FnMut(u64, u64) -> Result<(), E>,
    ) -> Result<(Vec<u64>, Vec<u64>), E> {
        let count = rows.len() / self.input_width;
        let mut out = Vec::with_capacity(count * self.output_shape.width());
        let mut spans = Vec::with_capacity(count);
        let scratch = &mut self.scratch(captures);
        self.run_blocks::<true, E>(rows, scratch, 0..count, &mut out, &mut spans, charge)?;
        assert_eq!(
            out.len(),
            count * self.output_shape.width(),
            "a scalar body yields one result per row"
        );
        Ok((out, spans))
    }

    /// [`RowKernel::map_rows`] for leaves whose one-word results fold with
    /// `op`: each block's results are folded where its columns hold them, so
    /// the words returned are the shard's fold (none for no rows), and the
    /// spans are each row's only if the body branches ([`RowKernel::straight`]).
    pub(crate) fn fold_rows<E>(
        &self,
        rows: &[u64],
        captures: &[u64],
        op: WordOp,
        mut charge: impl FnMut(u64, u64) -> Result<(), E>,
    ) -> Result<(Vec<u64>, Vec<u64>), E> {
        let (width, slot) = (self.input_width, self.emit[0]);
        let (s, mut acc, mut spans) = (&mut self.scratch(captures), None, Vec::new());
        for block in rows.chunks(BLOCK_ROWS * width) {
            let n = block.len() / width;
            self.run_block(block, s, None);
            let paths = &mut s.paths[..n];
            let (work, _) = match self.straight() {
                Some(_) => self.fold::<false>(paths, &mut spans),
                None => self.fold::<true>(paths, &mut spans),
            };
            charge(n as u64, work)?;
            let words = &mut s.cols[slot * s.rows..][..n];
            if slot < width {
                // An input word is no column unless an instruction reads it.
                for (word, row) in words.iter_mut().zip(block.chunks_exact(width)) {
                    *word = row[slot];
                }
            }
            acc = reduce(op, words, acc);
        }
        Ok((acc.into_iter().collect(), spans))
    }

    /// The `(work, span)` every row of a body without conditionals takes.
    pub(crate) fn straight(&self) -> Option<(u64, u64)> {
        (self.table.len() == 1).then(|| self.table[0])
    }

    /// The op and the one path's charge of a combiner compiled to exactly
    /// one call of an associative, commutative word op over its two input
    /// words, either order, with no capture: `\q. nat_add(pi1 q, pi2 q)`.
    pub(crate) fn word_fold(&self) -> Option<(WordOp, (u64, u64))> {
        let &[Op::Call { op, a, b, at }] = &self.ops[..] else {
            return None;
        };
        let folds = matches!(op, WordOp::Add | WordOp::Mul | WordOp::Max | WordOp::Min);
        let operands = self.input_width == 2 && matches!((a, b), (0, 1) | (1, 0));
        let plain = self.emit == [at] && self.captures.is_empty();
        (folds && operands && plain).then_some((op, self.straight()?))
    }

    /// A scratch with the body's constants and the captured values' words
    /// (see [`RowKernel::run_rows`]) preloaded, and no columns yet.
    pub(crate) fn scratch(&self, captures: &[u64]) -> Scratch {
        let mut words = vec![0u64; self.slots];
        let captured = self.captures.iter().flat_map(Capture::slots);
        debug_assert_eq!(captured.clone().count(), captures.len(), "a word per slot");
        let loaded = captured.zip(captures.iter().copied());
        for (at, word) in self.consts.iter().copied().chain(loaded) {
            words[at] = word;
        }
        Scratch {
            words,
            ..Scratch::default()
        }
    }

    /// Is the body keyed (see the module docs)?
    pub(crate) fn keyed(&self) -> bool {
        self.key.is_some()
    }

    /// Where the words of the capture bound `up` frames out sit among a
    /// scratch's preloaded words: a join site writes each outer row there.
    pub(crate) fn capture_slot(&self, up: usize) -> Option<Range<usize>> {
        Some(self.captures.iter().find(|c| c.up == up)?.slots())
    }

    /// [`RowKernel::run_rows`] over a loaded `scratch`, appending to `out`
    /// and returning the largest span: a column-prefix key executes only the
    /// range of `rows` that can match, any other body every row.
    pub(crate) fn probe<E>(
        &self,
        rows: &[u64],
        scratch: &mut Scratch,
        out: &mut Vec<u64>,
        charge: impl FnMut(u64, u64) -> Result<(), E>,
    ) -> Result<u64, E> {
        let (width, count) = (self.input_width, rows.len() / self.input_width);
        let hits = match self.key {
            Some(key) if key.at == 0 => {
                debug_assert!(rows.chunks_exact(width).is_sorted());
                let probe = &scratch.words[key.probe..][..key.len];
                let at = |i: usize| &rows[i * width..][..key.len];
                partition(count, |i| at(i) < probe)..partition(count, |i| at(i) <= probe)
            }
            _ => 0..count,
        };
        out.reserve(hits.len() * self.output_shape.width());
        self.run_blocks::<false, E>(rows, scratch, hits, out, &mut Vec::new(), charge)
    }

    /// The loop behind every entry point: blocks of [`BLOCK_ROWS`] rows,
    /// each run at once and charged `Σ rows(path) × work(path)`, where the
    /// rows outside `hits` cannot match the key and are charged as path 0
    /// unexecuted. Returns the largest span any row took; with `SPANS` (all
    /// rows hits), also appends every row's span to `spans`.
    fn run_blocks<const SPANS: bool, E>(
        &self,
        rows: &[u64],
        scratch: &mut Scratch,
        hits: Range<usize>,
        out: &mut Vec<u64>,
        spans: &mut Vec<u64>,
        mut charge: impl FnMut(u64, u64) -> Result<(), E>,
    ) -> Result<u64, E> {
        let width = self.input_width;
        debug_assert!(rows.len().is_multiple_of(width));
        let count = rows.len() / width;
        // A row that cannot match takes path 0.
        let path0 = self.table.first().copied();
        let (w0, s0) = path0.unwrap_or_else(|| self.cost.of(0));
        let mut max_span = 0u64;
        for start in (0..count).step_by(BLOCK_ROWS) {
            let end = count.min(start + BLOCK_ROWS);
            let (from, to) = (hits.start.clamp(start, end), hits.end.clamp(start, end));
            let mut work = 0u64;
            if from < to {
                self.run_block(&rows[from * width..to * width], scratch, Some(out));
                let (w, span) = self.fold::<SPANS>(&mut scratch.paths[..to - from], spans);
                (work, max_span) = (w, max_span.max(span));
            }
            let skipped = (end - start - (to - from)) as u64;
            debug_assert!(!SPANS || skipped == 0);
            if skipped > 0 {
                work = work.saturating_add(skipped.saturating_mul(w0));
                max_span = max_span.max(s0);
            }
            charge((end - start) as u64, work)?;
        }
        Ok(max_span)
    }

    /// The work and the largest span of the rows whose path keys are
    /// `paths`; with `SPANS`, each row's span appended to `spans`.
    fn fold<const SPANS: bool>(&self, paths: &mut [u64], spans: &mut Vec<u64>) -> (u64, u64) {
        let folded: Vec<(u64, u64)>;
        let table = match self.table[..] {
            // A straight-line body: one path.
            [(work, span)] => {
                if SPANS {
                    spans.resize(spans.len() + paths.len(), span);
                }
                return (paths.len() as u64 * work, span);
            }
            // One conditional: the keys of the rows that took it sum to that.
            [(w0, s0), (w1, s1)] if !SPANS => {
                let taken = paths.iter().sum::<u64>();
                let rest = paths.len() as u64 - taken;
                let span = match (rest, taken) {
                    (_, 0) => s0,
                    (0, _) => s1,
                    _ => s0.max(s1),
                };
                return (rest * w0 + taken * w1, span);
            }
            // Too many conditionals to tabulate: fold the cost term once per
            // distinct path, and key each row by its path's place.
            [] => {
                let mut distinct = paths.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                for path in paths.iter_mut() {
                    *path = distinct.binary_search(path).expect("a path of the block") as u64;
                }
                folded = distinct.iter().map(|&path| self.cost.of(path)).collect();
                &folded
            }
            ref table => table,
        };
        let (mut work, mut max_span) = (0, 0);
        for &path in paths.iter() {
            let (w, s) = table[path as usize];
            work += w;
            max_span = max_span.max(s);
            if SPANS {
                spans.push(s);
            }
        }
        (work, max_span)
    }

    /// Run the program once over a block of whole rows (row-major), leaving
    /// each row's path key in `s.paths`, and append the rows that emit to
    /// `out`, if any, in row order. Total and infallible: every liftable operation is.
    fn run_block(&self, rows: &[u64], s: &mut Scratch, out: Option<&mut Vec<u64>>) {
        let (width, n) = (self.input_width, rows.len() / self.input_width);
        s.fit(self, n);
        let stride = s.rows;
        let col = |slot: usize| slot * stride..slot * stride + n;
        let cols = &mut s.cols;
        for &c in &self.reads {
            for (cell, row) in cols[col(c)].iter_mut().zip(rows.chunks_exact(width)) {
                *cell = row[c];
            }
        }
        // A join site rewrites its captures for every outer row.
        for slot in self.captures.iter().flat_map(Capture::slots) {
            cols[col(slot)].fill(s.words[slot]);
        }
        let paths = &mut s.paths[..n];
        paths.fill(0);
        for &op in &self.ops {
            match op {
                Op::Call { op, a, b, at } => {
                    let (ins, dst) = cols.split_at_mut(at * stride);
                    sweep(op, &ins[col(a)], &ins[col(b)], &mut dst[..n]);
                }
                Op::Cmp { leq, a, b, len, at } => {
                    let (ins, dst) = cols.split_at_mut(at * stride);
                    let res = &mut dst[..n];
                    res.fill(1);
                    // From the last word to the first: `x <= y` is `x₀ < y₀`
                    // or `x₀ = y₀` and the rest `<=`; `=` is every word `=`.
                    for k in (0..len).rev() {
                        let words = ins[col(a + k)].iter().zip(&ins[col(b + k)]);
                        for (r, (&x, &y)) in res.iter_mut().zip(words) {
                            let tie = u64::from(x == y) & *r;
                            *r = if leq { u64::from(x < y) | tie } else { tie };
                        }
                    }
                }
                Op::Copy { src, dst, arm } if arm.care == 0 => {
                    cols.copy_within(col(src), dst * stride);
                }
                Op::Copy { src, dst, arm } => {
                    for (i, &path) in paths.iter().enumerate() {
                        if arm.holds(path) {
                            cols[dst * stride + i] = cols[src * stride + i];
                        }
                    }
                }
                Op::If { cond, bit, arm } => {
                    for (path, &c) in paths.iter_mut().zip(&cols[col(cond)]) {
                        *path |= u64::from(arm.holds(*path) & (c != 0)) << bit;
                    }
                }
            }
        }
        let Some(out) = out else { return };
        let len = match self.keeps[..] {
            [arm] if arm.care == 0 => n,
            [arm] => select(paths, &mut s.sel, |path| arm.holds(path)),
            ref keeps => select(paths, &mut s.sel, |path| {
                keeps.iter().any(|arm| arm.holds(path))
            }),
        };
        let (out_width, start) = (self.emit.len(), out.len());
        out.resize(start + len * out_width, 0);
        let (sel, emitted) = (&s.sel[..len], &mut out[start..]);
        for (c, &slot) in self.emit.iter().enumerate() {
            let dst = emitted.chunks_exact_mut(out_width).zip(sel);
            if slot < width {
                // An input word, read or not, comes straight from its row.
                for (row, &i) in dst {
                    row[c] = rows[i * width + slot];
                }
            } else {
                let column = &cols[col(slot)];
                for (row, &i) in dst {
                    row[c] = column[i];
                }
            }
        }
    }
}

/// Static value size of a flat shape (`Value::size` is shape-determined for
/// flat values): the `=`/`<=` comparison charge.
fn shape_size(shape: &FlatShape) -> u64 {
    match shape {
        FlatShape::Unit | FlatShape::Bool | FlatShape::Atom | FlatShape::Nat => 1,
        FlatShape::Pair(a, b) => 1 + shape_size(a) + shape_size(b),
    }
}

/// Human-readable shape description for diagnostics and site reports.
fn shape_desc(shape: &FlatShape) -> String {
    match shape {
        FlatShape::Unit => "unit".to_string(),
        FlatShape::Bool => "bool".to_string(),
        FlatShape::Atom => "atom".to_string(),
        FlatShape::Nat => "nat".to_string(),
        FlatShape::Pair(a, b) => format!("({} * {})", shape_desc(a), shape_desc(b)),
    }
}

/// A lowered subterm: what the caller needs to place it, and its cost term.
type Lowered<T> = Result<(T, Cost), String>;

/// The binders enclosing a `λ` site, innermost last: each name (for reports)
/// with the flat shape a `λ` annotation gives it, `None` when it is bound any
/// other way (a `let`, or a `λ` at a type with a set or a function in it).
/// A capture bound `up` frames out is entry `up` from the end.
pub type Scope<'a> = [(&'a str, Option<FlatShape>)];

struct Compiler<'a> {
    registry: &'a ExternRegistry,
    /// The binders inside the body, innermost last, with the slot and shape
    /// of their words: the parameter at slot 0, a `let`-bound scalar
    /// wherever its bound expression left its result.
    locals: Vec<(usize, FlatShape)>,
    /// The binders around the body, and the ones it has read so far.
    outer: &'a Scope<'a>,
    captures: Vec<Capture>,
    consts: Vec<(usize, u64)>,
    next: usize,
    ops: Vec<Op>,
    branches: u32,
    /// The arm the compiler is in.
    arm: Arm,
    /// The arm and the output-row slots of each `{…}`, in order.
    emits: Vec<(Arm, Vec<usize>)>,
}

impl Compiler<'_> {
    fn alloc(&mut self, width: usize) -> usize {
        let at = self.next;
        self.next += width;
        at
    }

    fn copy(&mut self, src: usize, dst: usize, len: usize) {
        let arm = self.arm;
        for (src, dst) in (src..src + len).zip(dst..) {
            self.ops.push(Op::Copy { src, dst, arm });
        }
    }

    /// The slot and shape of the words `x` refers to: a binder inside the
    /// body, or a capture — allotted on its first use, from the shape its
    /// binder's annotation gives it.
    fn var(&mut self, x: &Var) -> Result<(usize, FlatShape), String> {
        // A free name is bound by no `λ` around the body.
        let d = match x.slot {
            Slot::Bound(d) => d,
            _ => usize::MAX,
        };
        if let Some(local) = self.locals.iter().rev().nth(d) {
            return Ok(local.clone());
        }
        let up = d - self.locals.len();
        if let Some(c) = self.captures.iter().find(|c| c.up == up) {
            return Ok((c.at, c.shape.clone()));
        }
        let Some((_, Some(shape))) = self.outer.iter().rev().nth(up) else {
            let x = &x.name;
            return Err(format!(
                "captures `{x}`, which no enclosing λ binds at a flat type"
            ));
        };
        let (at, shape) = (self.alloc(shape.width()), shape.clone());
        self.captures.push(Capture {
            up,
            shape: shape.clone(),
            at,
        });
        Ok((at, shape))
    }

    fn lit(&mut self, words: &[u64], shape: FlatShape) -> Lowered<(usize, FlatShape)> {
        let at = self.alloc(words.len());
        let placed = words.iter().enumerate().map(|(i, &w)| (at + i, w));
        self.consts.extend(placed);
        Ok(((at, shape), Cost::node(cost::LEAF, Vec::new())))
    }

    /// Lower `if c then t else e`, each arm through `arm`: the condition,
    /// an `If` that owns the next path-key bit, the then-arm, the else-arm.
    fn conditional<T>(
        &mut self,
        c: &Expr,
        t: &Expr,
        e: &Expr,
        mut arm: impl FnMut(&mut Self, &Expr) -> Lowered<T>,
    ) -> Result<(T, T, Cost), String> {
        let ((cond, shape), cc) = self.scalar(c)?;
        if shape != FlatShape::Bool {
            return Err("if condition is not a boolean scalar".to_string());
        }
        if self.branches == MAX_BRANCHES {
            return Err(format!("more than {MAX_BRANCHES} conditionals in the body"));
        }
        let bit = self.branches;
        self.branches += 1;
        let outer = self.arm;
        self.ops.push(Op::If {
            cond,
            bit,
            arm: outer,
        });
        self.arm = outer.inner(bit, true);
        let (rt, ct) = arm(self, t)?;
        self.arm = outer.inner(bit, false);
        let (re, ce) = arm(self, e)?;
        self.arm = outer;
        let taken = Cost::Branch {
            bit,
            t: Box::new(ct),
            e: Box::new(ce),
        };
        Ok((rt, re, Cost::node(cost::IF, vec![cc, taken])))
    }

    /// Lower `let x = bound in body`: `x` reads wherever `bound` left its
    /// words, so the binding itself costs no instruction.
    fn bind<T>(&mut self, bound: &Expr, body: impl FnOnce(&mut Self) -> Lowered<T>) -> Lowered<T> {
        let (local, cb) = self.scalar(bound)?;
        self.locals.push(local);
        let result = body(self);
        self.locals.pop();
        let (lowered, cr) = result?;
        Ok((lowered, Cost::node(cost::LET, vec![cb, cr])))
    }

    /// Lower a scalar (value-level) subterm; returns the slot and shape of
    /// its words.
    fn scalar(&mut self, expr: &Expr) -> Lowered<(usize, FlatShape)> {
        match &expr.kind {
            ExprKind::Var(x) => Ok((self.var(x)?, Cost::node(cost::LEAF, Vec::new()))),
            ExprKind::Unit => self.lit(&[], FlatShape::Unit),
            ExprKind::Bool(b) => self.lit(&[u64::from(*b)], FlatShape::Bool),
            ExprKind::Const(v) => {
                let shape = FlatShape::of_value(v)
                    .ok_or_else(|| format!("non-flat constant {v} in the body"))?;
                let mut words = Vec::with_capacity(shape.width());
                if !shape.encode_into(v, &mut words) {
                    return Err(format!("constant {v} does not encode under its shape"));
                }
                self.lit(&words, shape)
            }
            ExprKind::Pair(a, b) => {
                let ((oa, sa), ca) = self.scalar(a)?;
                let ((ob, sb), cb) = self.scalar(b)?;
                let (wa, wb) = (sa.width(), sb.width());
                let at = self.alloc(wa + wb);
                self.copy(oa, at, wa);
                self.copy(ob, at + wa, wb);
                let shape = FlatShape::Pair(Box::new(sa), Box::new(sb));
                Ok(((at, shape), Cost::node(cost::PAIR, vec![ca, cb])))
            }
            ExprKind::Proj1(e) | ExprKind::Proj2(e) => {
                let ((at, shape), c) = self.scalar(e)?;
                let FlatShape::Pair(sa, sb) = shape else {
                    return Err("projection from a non-pair shape".to_string());
                };
                let part = if matches!(expr.kind, ExprKind::Proj1(_)) {
                    (at, *sa)
                } else {
                    (at + sa.width(), *sb)
                };
                Ok((part, Cost::node(cost::PROJ, vec![c])))
            }
            ExprKind::If(c, t, e) => {
                // Both arms copy their result into one destination, each on
                // its own rows, so the value has one slot whichever arm ran.
                let mut dest = None;
                let (st, se, cost) = self.conditional(c, t, e, |this, arm| {
                    let ((at, shape), cost) = this.scalar(arm)?;
                    let width = shape.width();
                    let dest = *dest.get_or_insert_with(|| this.alloc(width));
                    this.copy(at, dest, width);
                    Ok((shape, cost))
                })?;
                if st != se {
                    return Err("the two if branches have different shapes".to_string());
                }
                Ok(((dest.expect("both arms were lowered"), st), cost))
            }
            ExprKind::Let(_, bound, body) => self.bind(bound, |this| this.scalar(body)),
            ExprKind::Eq(a, b) | ExprKind::Leq(a, b) => {
                let ((oa, sa), ca) = self.scalar(a)?;
                let ((ob, sb), cb) = self.scalar(b)?;
                if sa != sb {
                    return Err("comparison operands have different shapes".to_string());
                }
                let at = self.alloc(1);
                self.ops.push(Op::Cmp {
                    leq: matches!(expr.kind, ExprKind::Leq(..)),
                    a: oa,
                    b: ob,
                    len: sa.width(),
                    at,
                });
                // Both operands have the one shape, so `min(|a|, |b|)` is
                // its size.
                let size = shape_size(&sa);
                let extra = Cost::extra(cost::cmp_extra(size, size));
                let cost = Cost::node(cost::CMP, vec![ca, cb, extra]);
                Ok(((at, FlatShape::Bool), cost))
            }
            ExprKind::Extern(name, args) => {
                let f = self
                    .registry
                    .get(name)
                    .ok_or_else(|| format!("unknown external `{name}`"))?;
                // Only the standard one-word externals have a word op.
                let op = f
                    .scalar_hint()
                    .ok_or_else(|| format!("external `{name}` has no word-level twin"))?;
                if args.len() != f.params.len() {
                    return Err(format!("external `{name}` arity not liftable"));
                }
                let mut slots = Vec::with_capacity(args.len());
                let mut costs = Vec::with_capacity(args.len() + 1);
                for (arg, param_ty) in args.iter().zip(&f.params) {
                    let ((at, shape), cost) = self.scalar(arg)?;
                    if FlatShape::of_type(param_ty) != Some(shape) {
                        return Err(format!("external `{name}` argument shape mismatch"));
                    }
                    slots.push(at);
                    costs.push(cost);
                }
                let result_shape = FlatShape::of_type(&f.result).expect("a one-word result");
                // An identity's result is its argument's word: no instruction.
                let at = match (op, &slots[..]) {
                    (WordOp::Identity, &[a]) => a,
                    (_, &[a, b]) => {
                        let at = self.alloc(1);
                        self.ops.push(Op::Call { op, a, b, at });
                        at
                    }
                    _ => return Err(format!("external `{name}` arity not liftable")),
                };
                costs.push(Cost::extra(cost::EXTERN_CALL));
                Ok(((at, result_shape), Cost::node(cost::EXTERN, costs)))
            }
            // An applied variable is a captured function: say which.
            ExprKind::App(f, _) if matches!(f.kind, ExprKind::Var(_)) => {
                self.scalar(f)?;
                Err("`application` is not liftable as a scalar".to_string())
            }
            other => Err(format!(
                "`{}` is not liftable as a scalar",
                kind_name(other)
            )),
        }
    }

    /// The slots of the words of `expr` as an output row, appended to
    /// `slots`. An emitted pair is gathered component by component:
    /// assembling it first would only add copies.
    fn emit(&mut self, expr: &Expr, slots: &mut Vec<usize>) -> Lowered<FlatShape> {
        if let ExprKind::Pair(a, b) = &expr.kind {
            let (sa, ca) = self.emit(a, slots)?;
            let (sb, cb) = self.emit(b, slots)?;
            let shape = FlatShape::Pair(Box::new(sa), Box::new(sb));
            return Ok((shape, Cost::node(cost::PAIR, vec![ca, cb])));
        }
        let ((at, shape), cost) = self.scalar(expr)?;
        slots.extend(at..at + shape.width());
        Ok((shape, cost))
    }

    /// Lower a set-level subterm — what an `ext` body may do with the scalar
    /// layer. Each input row contributes zero rows or one row to the output,
    /// which is exactly the singleton/empty comprehension shape filters
    /// are written in and the optimizer's ext-fusion produces. Returns the
    /// shape of the emitted rows, `None` when no path emits.
    fn set_op(&mut self, expr: &Expr) -> Lowered<Option<FlatShape>> {
        match &expr.kind {
            ExprKind::Empty(_) => Ok((None, Cost::node(cost::LEAF, Vec::new()))),
            ExprKind::Singleton(e) => {
                let mut slots = Vec::new();
                let (shape, c) = self.emit(e, &mut slots)?;
                if shape.width() == 0 {
                    return Err("zero-width output rows (all-unit elements)".to_string());
                }
                self.emits.push((self.arm, slots));
                Ok((Some(shape), Cost::node(cost::SINGLETON, vec![c])))
            }
            ExprKind::If(c, t, e) => {
                let (st, se, cost) = self.conditional(c, t, e, |this, arm| this.set_op(arm))?;
                let shape = match (st, se) {
                    (Some(a), Some(b)) if a != b => {
                        return Err("the two if branches emit different shapes".to_string())
                    }
                    (a, b) => a.or(b),
                };
                Ok((shape, cost))
            }
            ExprKind::Let(_, bound, body) => self.bind(bound, |this| this.set_op(body)),
            other => Err(format!(
                "`{}` is not a liftable set comprehension",
                kind_name(other)
            )),
        }
    }
}

/// A short constructor name for rejection messages.
fn kind_name(kind: &ExprKind) -> &'static str {
    match kind {
        ExprKind::Var(_) => "var",
        ExprKind::Lam(..) => "lambda",
        ExprKind::App(..) => "application",
        ExprKind::Let(..) => "let",
        ExprKind::Unit => "unit",
        ExprKind::Pair(..) => "pair",
        ExprKind::Proj1(_) => "pi1",
        ExprKind::Proj2(_) => "pi2",
        ExprKind::Bool(_) => "bool",
        ExprKind::If(..) => "if",
        ExprKind::Eq(..) => "=",
        ExprKind::Leq(..) => "<=",
        ExprKind::Const(_) => "const",
        ExprKind::Empty(_) => "empty",
        ExprKind::Singleton(_) => "singleton",
        ExprKind::Union(..) => "union",
        ExprKind::IsEmpty(_) => "isempty",
        ExprKind::Ext(..) => "ext",
        ExprKind::UnionRec { form, .. } => form.name(),
        ExprKind::InsertRec { form, .. } => form.name(),
        ExprKind::Iter { form, .. } => form.name(),
        ExprKind::Extern(..) => "extern",
    }
}

/// What a `λ` body is compiled as.
#[derive(Clone, Copy)]
enum Role {
    /// The function of an `ext`: each row emits zero rows or one.
    Comprehension,
    /// The `f` or `u` of a recursor: each row yields one flat result.
    Scalar,
}

/// Compile the body of a `λ` written under `scope` into a row kernel over
/// `input_shape` rows, or explain why it cannot be lifted; `body` is
/// resolved, its parameter `Slot::Bound(0)`. A variable the body reads from
/// `scope` becomes a kernel parameter. Pure in (body, shapes, registry): the
/// same inputs always make the same decision, which is what lets
/// prepare-time analysis predict the runtime path. Every compilation goes
/// through here, so [`kernel_stats`] counts them where they happen.
fn lower(
    body: &Expr,
    input_shape: &FlatShape,
    scope: &Scope<'_>,
    registry: &ExternRegistry,
    role: Role,
) -> Result<RowKernel, String> {
    let lowered = lower_body(body, input_shape, scope, registry, role);
    let counter = if lowered.is_ok() {
        &COMPILES
    } else {
        &FALLBACKS
    };
    counter.fetch_add(1, Ordering::Relaxed);
    lowered
}

fn lower_body(
    body: &Expr,
    input_shape: &FlatShape,
    scope: &Scope<'_>,
    registry: &ExternRegistry,
    role: Role,
) -> Result<RowKernel, String> {
    let input_width = input_shape.width();
    if input_width == 0 {
        return Err("zero-width input rows (all-unit elements)".to_string());
    }
    let mut c = Compiler {
        registry,
        locals: vec![(0, input_shape.clone())],
        outer: scope,
        captures: Vec::new(),
        consts: Vec::new(),
        next: input_width,
        ops: Vec::new(),
        branches: 0,
        arm: Arm::default(),
        emits: Vec::new(),
    };
    let (output_shape, cost) = match role {
        // A body that provably never emits (every path is `{}`) has no
        // output shape of its own; any flat shape canonicalizes an empty
        // row batch, so borrow the input's.
        Role::Comprehension => {
            let (shape, cost) = c.set_op(body)?;
            (shape.unwrap_or_else(|| input_shape.clone()), cost)
        }
        Role::Scalar => {
            let mut slots = Vec::new();
            let (shape, cost) = c.emit(body, &mut slots)?;
            c.emits.push((Arm::default(), slots));
            if shape.width() == 0 {
                return Err("zero-width results (all-unit values)".to_string());
            }
            (shape, cost)
        }
    };
    let key = key(body, &c.ops, input_width);
    // A row emits the slots of the `{…}` of its arm. With several, each copies
    // its words into one destination once every path is known: the slots
    // they read are never overwritten.
    let emits = std::mem::take(&mut c.emits);
    let keeps = emits.iter().map(|&(arm, _)| arm).collect();
    let emit = match &emits[..] {
        [] => Vec::new(),
        [(_, slots)] => slots.clone(),
        several => {
            let at = c.alloc(several[0].1.len());
            for &(arm, ref slots) in several {
                for (dst, &src) in (at..).zip(slots) {
                    c.ops.push(Op::Copy { src, dst, arm });
                }
            }
            (at..c.next).collect()
        }
    };
    let mut reads: Vec<usize> = (c.ops.iter())
        .flat_map(|op| op.operands().into_iter().flatten())
        .filter(|&slot| slot < input_width)
        .collect();
    reads.sort_unstable();
    reads.dedup();
    let cost = Cost::node(cost::APPLY, vec![cost]);
    let paths = (c.branches <= TABLE_BITS).then(|| 0..1u64 << c.branches);
    let table = paths
        .into_iter()
        .flatten()
        .map(|path| cost.of(path))
        .collect();
    Ok(RowKernel {
        input_shape: input_shape.clone(),
        input_width,
        output_shape,
        slots: c.next,
        reads,
        consts: c.consts,
        captures: c.captures,
        ops: c.ops,
        emit,
        keeps,
        cost,
        table,
        key,
    })
}

// ----- the sites of a plan -----

/// What the kernel compiler decided about one `ext` or `dcr`/`sru` site of a
/// plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSite {
    /// Source span of the site's expression, when the plan has spans.
    pub span: Option<Span>,
    /// Did the site compile to row kernels?
    pub compiled: bool,
    /// For a compiled site the row shapes of its kernels, captured variables
    /// in brackets — `(atom * nat) [a: (atom * atom)] -> (atom * nat)`, and
    /// `f`'s then `u`'s for a recursor, or a join site's two sides and key —
    /// `(atom * atom) ⋈ (atom * nat) on pi2 a = pi1 p -> (atom * nat)`;
    /// otherwise the compiler's rejection reason.
    pub detail: String,
}

/// Why a site whose function is a variable or an application is not decided
/// where it is written: the `λ` that reaches it is only known at run time.
const NOT_A_LITERAL: &str = "the site's function is not a literal lambda \
     (it runs on the kernel of the lambda that reaches it, if that one compiled)";

/// A kernel of the survey with the `λ` body it was compiled from.
type BodyKernel<'e> = (&'e Arc<Expr>, RowKernel);

/// One pre-order pass over a resolved plan, carrying the binders in scope.
struct Survey<'e, 'r> {
    registry: &'r ExternRegistry,
    /// Whether to compile at all, or only collect the `λ` bodies.
    kernels: bool,
    scope: Vec<(&'e str, Option<FlatShape>)>,
    report: Vec<KernelSite>,
    bodies: Vec<&'e Arc<Expr>>,
    compiled: Vec<BodyKernel<'e>>,
}

impl<'e> Survey<'e, '_> {
    /// `at_site`: is `expr` the function written at an `ext` or recursor
    /// site, which that site has decided?
    fn visit(&mut self, expr: &'e Expr, at_site: bool) {
        // An `ext` site whose body did not compile may be a join, decided once
        // its inner site is: its report entry, the first kernel compiled below.
        let mut join = None;
        // The functions this node decides, if it is a site.
        let functions: [Option<&Expr>; 2] = match &expr.kind {
            ExprKind::Ext(f, _) if self.kernels => {
                let decision = self.site_kernel(f, Role::Comprehension).map(|k| vec![k]);
                if decision.is_err() {
                    join = Some((self.report.len(), self.compiled.len()));
                }
                self.decided(expr, decision);
                [Some(f), None]
            }
            ExprKind::UnionRec { form, f, u, .. } if self.kernels => {
                let decision = self.recursor_site(form, f, u);
                self.decided(expr, decision);
                [Some(f), Some(u)]
            }
            ExprKind::Lam(_, ty, body) => {
                self.bodies.push(body);
                // A `λ` bound by a `let` or passed as an argument reaches its
                // `ext` as a closure: it is no site of its own, but the site
                // it reaches finds this kernel by the closure's body.
                let shape = FlatShape::of_type(ty).filter(|_| self.kernels && !at_site);
                let role = Role::Comprehension;
                let kernel =
                    shape.and_then(|s| lower(body, &s, &self.scope, self.registry, role).ok());
                self.compiled.extend(kernel.map(|k| (body, k)));
                [None, None]
            }
            _ => [None, None],
        };
        for child in expr.children() {
            let at_site = functions
                .iter()
                .flatten()
                .any(|f| std::ptr::eq(*f, child.expr));
            let Some(name) = child.binds else {
                self.visit(child.expr, at_site);
                continue;
            };
            let shape = match &expr.kind {
                ExprKind::Lam(_, ty, _) => FlatShape::of_type(ty),
                _ => None,
            };
            self.scope.push((name, shape));
            self.visit(child.expr, false);
            self.scope.pop();
        }
        if let (Some((site, from)), ExprKind::Ext(f, _)) = (join, &expr.kind) {
            self.join_site(site, f, from);
        }
    }

    /// Decide whether the `ext` site reported at `report[site]`, whose own
    /// body did not compile, is a join site (see the module docs) whose inner
    /// kernel is at or after `compiled[from]`. A function of another form
    /// keeps the compiler's reason.
    fn join_site(&mut self, site: usize, function: &'e Expr, from: usize) {
        let ExprKind::Lam(a, ty, body) = &function.kind else {
            return;
        };
        let (Some(outer), ExprKind::Ext(inner, set)) = (FlatShape::of_type(ty), &body.kind) else {
            return;
        };
        let ExprKind::Lam(_, _, inner) = &inner.kind else {
            return;
        };
        let leaf = matches!(&set.kind, ExprKind::Var(s) if s.slot != Slot::Bound(0))
            || matches!(set.kind, ExprKind::Const(_));
        let kernel = self.compiled[from..]
            .iter()
            .find(|(b, _)| Arc::ptr_eq(b, inner));
        let site = &mut self.report[site];
        let why = match (kernel, &inner.kind) {
            _ if !leaf => format!(
                "the inner set `{set}` is neither a variable other than `{a}` nor a constant"
            ),
            (None, _) => "the inner site runs interpreted".to_string(),
            (Some((_, kernel)), ExprKind::If(cond, ..)) if kernel.keyed() => {
                let ExprKind::Eq(x, y) = &cond.kind else {
                    unreachable!("a key is an equality")
                };
                let (from, to) = (kernel.input_shape(), kernel.output_shape());
                let (outer, from, to) = (shape_desc(&outer), shape_desc(from), shape_desc(to));
                site.detail = format!("{outer} ⋈ {from} on {x} = {y} -> {to}");
                site.compiled = true;
                return;
            }
            _ => "no equality key: the inner body does not begin `if x = y then … else empty` \
                 with `x` in its row and `y` a capture or a constant"
                .to_string(),
        };
        site.detail = format!("`ext` body runs as a nested loop: {why}");
    }

    /// Report the site `expr` and keep the kernels it compiled to.
    fn decided(&mut self, expr: &Expr, decision: Result<Vec<BodyKernel<'e>>, String>) {
        self.report.push(KernelSite {
            span: expr.span,
            compiled: decision.is_ok(),
            detail: match &decision {
                Ok(kernels) => {
                    let kernels: Vec<String> = kernels
                        .iter()
                        .map(|(_, k)| kernel_desc(k, &self.scope))
                        .collect();
                    kernels.join(", then ")
                }
                Err(reason) => reason.clone(),
            },
        });
        self.compiled.extend(decision.into_iter().flatten());
    }

    /// The kernel of the literal `λ` written at a site as `function`.
    fn site_kernel(&self, function: &'e Expr, role: Role) -> Result<BodyKernel<'e>, String> {
        let ExprKind::Lam(_, ty, body) = &function.kind else {
            return Err(NOT_A_LITERAL.to_string());
        };
        let shape = FlatShape::of_type(ty)
            .ok_or_else(|| format!("parameter type {ty} is not a flat shape"))?;
        let kernel = lower(body, &shape, &self.scope, self.registry, role)?;
        Ok((body, kernel))
    }

    /// `f : row → R` and `u : (R * R) → R` for one flat `R`, no bound.
    fn recursor_site(
        &self,
        form: &UnionForm,
        f: &'e Expr,
        u: &'e Expr,
    ) -> Result<Vec<BodyKernel<'e>>, String> {
        if form.bound().is_some() {
            return Err(format!("`{}` clips every step to its bound", form.name()));
        }
        let leaf = self.site_kernel(f, Role::Scalar)?;
        let node = self.site_kernel(u, Role::Scalar)?;
        let r = leaf.1.output_shape();
        if !node.1.combines(r) {
            return Err(format!(
                "the combiner is not ({0} * {0}) -> {0} over the leaves' {0}",
                shape_desc(r)
            ));
        }
        Ok(vec![leaf, node])
    }
}

/// `input [captures] -> output` of one kernel compiled in `scope`.
fn kernel_desc(kernel: &RowKernel, scope: &Scope<'_>) -> String {
    let name = |up: usize| scope[scope.len() - 1 - up].0;
    let captures: Vec<String> = kernel
        .captures()
        .map(|(up, shape)| format!("{}: {}", name(up), shape_desc(shape)))
        .collect();
    let captures = if captures.is_empty() {
        String::new()
    } else {
        format!(" [{}]", captures.join(", "))
    };
    format!(
        "{}{captures} -> {}",
        shape_desc(kernel.input_shape()),
        shape_desc(kernel.output_shape())
    )
}

/// Analyze every `ext` site and every `dcr`/`sru`/`bdcr` site of `expr`:
/// derive the row shapes from the `λ` annotations — the parameter's, and for
/// a captured variable the enclosing `λ`'s — and run the kernel compiler.
/// This is the report of [`Sites::of_plan`], the survey an evaluation of the
/// plan runs on, so a site reported `compiled` here is exactly a site the
/// evaluator will run through its kernels whenever the argument set is
/// columnar (and kernels are enabled).
pub fn analyze_sites(expr: &Expr, registry: &ExternRegistry) -> Vec<KernelSite> {
    Sites::of_plan(&resolve(expr), registry, true).report
}

/// What an evaluation knows about its resolved plan: the free names, the
/// kernels every `λ` body compiled to, and a per-body memo of the
/// region-gate estimate. Built once — when the plan is prepared, or else
/// when an evaluation of it starts — and shared by every worker evaluator, so
/// nothing is decided per closure instance; a closure finds its entry by the
/// address of its body, which it shares with the plan.
#[derive(Debug, Default)]
pub struct Sites {
    /// The plan's free names: `Slot::Free(i)` refers to `free[i]`.
    pub(crate) free: Vec<String>,
    /// One entry per `λ` body of the plan, sorted by the body's address.
    by_body: Vec<Site>,
    report: Vec<KernelSite>,
}

#[derive(Debug)]
struct Site {
    /// Keeps the address this entry is keyed by from being reused.
    body: Arc<Expr>,
    /// More than one when the body is written at several places of the plan
    /// (a plan that was cloned into itself shares its `λ` bodies).
    kernels: Vec<Arc<RowKernel>>,
    gate: OnceLock<u64>,
}

impl Sites {
    /// Survey a resolved plan: when `kernels` are enabled, compile every
    /// `ext` and `dcr`/`sru` site and every other flat-annotated `λ` of it
    /// (the region-gate memo needs the bodies either way). An evaluation
    /// finds these kernels by the addresses of `plan.expr`'s `λ` bodies.
    pub fn of_plan(plan: &Resolved, registry: &ExternRegistry, kernels: bool) -> Sites {
        let mut survey = Survey {
            registry,
            kernels,
            scope: Vec::new(),
            report: Vec::new(),
            bodies: Vec::new(),
            compiled: Vec::new(),
        };
        survey.visit(&plan.expr, false);
        survey.bodies.sort_by_key(|body| Arc::as_ptr(body));
        survey.bodies.dedup_by_key(|body| Arc::as_ptr(body));
        let entry = |body: &Arc<Expr>| Site {
            body: body.clone(),
            kernels: Vec::new(),
            gate: OnceLock::new(),
        };
        let mut sites = Sites {
            free: plan.free.clone(),
            by_body: survey.bodies.into_iter().map(entry).collect(),
            report: survey.report,
        };
        for (body, kernel) in survey.compiled {
            let at = sites.position(body).expect("every λ body is collected");
            sites.by_body[at].kernels.push(Arc::new(kernel));
        }
        sites
    }

    /// One [`KernelSite`] per `ext` and `dcr`/`sru`/`bdcr` site, in plan order.
    pub fn report(&self) -> &[KernelSite] {
        &self.report
    }

    fn position(&self, body: &Arc<Expr>) -> Option<usize> {
        self.by_body
            .binary_search_by_key(&Arc::as_ptr(body), |site| Arc::as_ptr(&site.body))
            .ok()
    }

    /// The kernels compiled from `body`.
    pub(crate) fn kernels(&self, body: &Arc<Expr>) -> &[Arc<RowKernel>] {
        self.position(body)
            .map_or(&[], |at| &self.by_body[at].kernels)
    }

    /// The region-gate estimate of one application of `body`
    /// ([`crate::analyze::region_gate_cost`]), analysed once per body — and
    /// unmemoized for a body of some other plan than the surveyed one.
    pub(crate) fn gate_cost(&self, body: &Arc<Expr>, registry: &ExternRegistry) -> u64 {
        let estimate = || crate::analyze::region_gate_cost(body, registry);
        match self.position(body) {
            Some(at) => *self.by_body[at].gate.get_or_init(estimate),
            None => estimate(),
        }
    }
}

// ----- process-wide observability counters -----

static COMPILES: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static EXT_HITS: AtomicU64 = AtomicU64::new(0);
static ROWS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide row-kernel counters (monotonic; kept out
/// of the bit-compared [`crate::eval::CostStats`] on purpose). `compiles` and
/// `fallbacks` count calls of the compiler itself, which a plan pays when it
/// is surveyed ([`Sites::of_plan`]: once at prepare, or when an evaluation
/// starts on a plan nobody prepared) — so executing a prepared plan moves
/// neither, whatever its inputs' sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// `λ` bodies the compiler lowered to a kernel.
    pub compiles: u64,
    /// `λ` bodies the compiler rejected; their sites run interpreted. Counted
    /// once per survey of the plan — not once per closure made from them.
    pub fallbacks: u64,
    /// `ext` and `dcr`/`sru` evaluations that executed through kernels (a
    /// join site's inner `ext` once per outer row).
    pub ext_hits: u64,
    /// Elements of the argument sets of those evaluations: `|R| × |S|` for a
    /// join site over `R` and `S`, as its nested loop counts them.
    pub rows: u64,
}

/// Record `exts` kernel-executed `ext`s or recursors over `rows` elements in
/// all.
pub(crate) fn note_hits(exts: usize, rows: usize) {
    EXT_HITS.fetch_add(exts as u64, Ordering::Relaxed);
    ROWS.fetch_add(rows as u64, Ordering::Relaxed);
}

/// Snapshot the process-wide kernel counters.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        compiles: COMPILES.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
        ext_hits: EXT_HITS.load(Ordering::Relaxed),
        rows: ROWS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{shape, Shape};
    use crate::eval::{EvalConfig, Evaluator};
    use ncql_object::{Type, Value};

    /// The kernel of the `ext` function `\param. body` written under
    /// `scope`, as a survey compiles it.
    fn compile(
        param: &str,
        body: &Expr,
        shape: &FlatShape,
        scope: &Scope<'_>,
        registry: &ExternRegistry,
    ) -> Result<RowKernel, String> {
        compile_as(Role::Comprehension, param, body, shape, scope, registry)
    }

    /// [`compile`] for a site that compiles `\param. body` as `role`.
    fn compile_as(
        role: Role,
        param: &str,
        body: &Expr,
        shape: &FlatShape,
        scope: &Scope<'_>,
        registry: &ExternRegistry,
    ) -> Result<RowKernel, String> {
        let names = scope.iter().map(|(name, _)| *name).chain([param]);
        let wrapped = (names.rev()).fold(body.clone(), |e, x| Expr::lam(x, Type::Unit, e));
        let mut plan = resolve(&wrapped).expr.into_owned();
        for _ in 0..=scope.len() {
            let ExprKind::Lam(_, _, body) = plan.kind else {
                unreachable!("wrapped in a λ per binder")
            };
            plan = Arc::unwrap_or_clone(body);
        }
        lower(&plan, shape, scope, registry, role)
    }

    fn pair_shape() -> FlatShape {
        FlatShape::Pair(Box::new(FlatShape::Atom), Box::new(FlatShape::Nat))
    }

    fn pair_ty() -> Type {
        Type::prod(Type::Base, Type::Nat)
    }

    /// The `nat` of row `i` of [`input`].
    fn scrambled(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 41
    }

    /// Input set: `n` distinct (atom, nat) rows — row `i` is `(i, scrambled
    /// nat)` — columnar from eight rows on.
    fn input(n: u64) -> Value {
        Value::set_from((0..n).map(|i| Value::pair(Value::Atom(i), Value::Nat(scrambled(i)))))
    }

    /// Evaluate `ext(\x: atom*nat. BODY, input)` with kernels forced on/off
    /// and assert bit-identical values and statistics.
    fn assert_kernel_matches_interpreter(body: Expr, n: u64) {
        let expr = Expr::ext(Expr::lam("x", pair_ty(), body), Expr::constant(input(n)));
        let mut with = Evaluator::new(EvalConfig::default());
        let v_with = with.eval_closed(&expr).expect("kernel path");
        let mut without = Evaluator::new(EvalConfig {
            kernels: false,
            ..EvalConfig::default()
        });
        let v_without = without.eval_closed(&expr).expect("interpreted path");
        assert_eq!(v_with, v_without, "values must agree");
        assert_eq!(with.stats(), without.stats(), "cost statistics must agree");
    }

    #[test]
    fn projection_kernel_matches_interpreter() {
        assert_kernel_matches_interpreter(Expr::singleton(Expr::proj1(Expr::var("x"))), 64);
    }

    #[test]
    fn never_emitting_kernel_matches_interpreter() {
        assert_kernel_matches_interpreter(Expr::empty(pair_ty()), 64);
    }

    #[test]
    fn swap_pair_kernel_matches_interpreter() {
        assert_kernel_matches_interpreter(
            Expr::singleton(Expr::pair(
                Expr::proj2(Expr::var("x")),
                Expr::proj1(Expr::var("x")),
            )),
            64,
        );
    }

    #[test]
    fn filter_kernel_matches_interpreter() {
        // if nat_leq(pi2 x, 20) then {x} else {}
        assert_kernel_matches_interpreter(
            Expr::ite(
                Expr::extern_call("nat_leq", vec![Expr::proj2(Expr::var("x")), Expr::nat(20)]),
                Expr::singleton(Expr::var("x")),
                Expr::empty(pair_ty()),
            ),
            64,
        );
    }

    #[test]
    fn let_and_arithmetic_kernel_matches_interpreter() {
        // let y = nat_add(pi2 x, 3) in if y <= 30 then {(pi1 x, y)} else {pi1 x, 0)}
        let body = Expr::let_in(
            "y",
            Expr::extern_call("nat_add", vec![Expr::proj2(Expr::var("x")), Expr::nat(3)]),
            Expr::ite(
                Expr::leq(Expr::var("y"), Expr::nat(30)),
                Expr::singleton(Expr::pair(Expr::proj1(Expr::var("x")), Expr::var("y"))),
                Expr::singleton(Expr::pair(Expr::proj1(Expr::var("x")), Expr::nat(0))),
            ),
        );
        assert_kernel_matches_interpreter(body, 64);
    }

    #[test]
    fn comparison_kernel_matches_interpreter() {
        // Pair comparison: {(x = x, (7, pi2 x) <= x ... )} exercises Cmp on
        // multi-word operands.
        let probe = Expr::pair(Expr::atom(40), Expr::nat(20));
        assert_kernel_matches_interpreter(
            Expr::singleton(Expr::pair(
                Expr::eq(Expr::var("x"), probe.clone()),
                Expr::leq(Expr::var("x"), probe),
            )),
            64,
        );
    }

    /// Arms that emit nothing, a then-arm that ends in an `if`, a scalar `if`
    /// inside an emitted pair and a two-word key, on both sides of the block
    /// edges.
    #[test]
    fn control_flow_edge_cases_match_the_interpreter_across_block_edges() {
        let x = || Expr::var("x");
        let small = || Expr::extern_call("nat_leq", vec![Expr::proj2(x()), Expr::nat(20)]);
        let empty = || Expr::empty(pair_ty());
        let tagged = |n: Expr| Expr::singleton(Expr::pair(Expr::proj1(x()), n));
        let plus_one = || Expr::extern_call("nat_add", vec![Expr::proj2(x()), Expr::nat(1)]);
        for n in [8, 1_023, 1_024, 1_025, 3_000] {
            let row = Value::pair(Value::Atom(n / 2), Value::Nat(scrambled(n / 2)));
            let keyed = Expr::ite(
                Expr::eq(x(), Expr::constant(row)),
                tagged(Expr::nat(1)),
                empty(),
            );
            let reg = ExternRegistry::standard();
            assert!(compile("x", &keyed, &pair_shape(), &[], &reg)
                .unwrap()
                .keyed());
            let ends_in_if = Expr::let_in(
                "y",
                plus_one(),
                Expr::ite(
                    Expr::leq(Expr::var("y"), Expr::nat(10)),
                    tagged(Expr::var("y")),
                    empty(),
                ),
            );
            for body in [
                Expr::ite(small(), empty(), Expr::singleton(x())),
                Expr::ite(small(), empty(), empty()),
                Expr::ite(small(), ends_in_if, tagged(Expr::nat(0))),
                tagged(Expr::ite(small(), plus_one(), Expr::nat(0))),
                keyed,
            ] {
                assert_kernel_matches_interpreter(body, n);
            }
        }
    }

    #[test]
    fn run_rows_charges_block_by_block_and_stops_at_the_first_refusal() {
        // if nat_leq(pi2 x, 20) then {x} else {}: applying it costs 9 units
        // over 5 levels when the row is kept, 8 over 4 when it is dropped.
        let body = Expr::ite(
            Expr::extern_call("nat_leq", vec![Expr::proj2(Expr::var("x")), Expr::nat(20)]),
            Expr::singleton(Expr::var("x")),
            Expr::empty(pair_ty()),
        );
        let kernel = compile("x", &body, &pair_shape(), &[], &ExternRegistry::standard()).unwrap();
        let rows: Vec<u64> = (0..2500u64).flat_map(|i| [i, i % 41]).collect();
        let kept = |from: u64, to: u64| (from..to).filter(|i| i % 41 <= 20).count() as u64;

        let mut blocks = Vec::new();
        let (set, span) = kernel
            .run_rows(&rows, &[], |rows, work| {
                blocks.push((rows, work));
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!((set.len() as u64, span), (kept(0, 2500), 5));
        let expected = [(0, 1024), (1024, 2048), (2048, 2500)]
            .map(|(from, to)| (to - from, 8 * (to - from) + kept(from, to)));
        assert_eq!(blocks, expected);

        // Rows that all take the cheaper path report the cheaper span.
        let dropped: Vec<u64> = (0..16u64).flat_map(|i| [i, 30]).collect();
        let (set, span) = kernel
            .run_rows(&dropped, &[], |_, _| Ok::<(), ()>(()))
            .unwrap();
        assert_eq!((set.len(), span), (0, 4));

        let mut calls = 0;
        let refused = kernel.run_rows(&rows, &[], |_, _| {
            calls += 1;
            if calls == 2 {
                Err("over budget")
            } else {
                Ok(())
            }
        });
        assert_eq!((refused.unwrap_err(), calls), ("over budget", 2));
    }

    /// The three bodies of the benchmark's `scan` read only `pi2` of their
    /// rows, and a transitive-closure step only `pi1` of its inner row: a
    /// block transposes no other word.
    #[test]
    fn a_block_transposes_only_the_words_its_instructions_read() {
        let reg = ExternRegistry::standard();
        let p = || Expr::var("p");
        let year = || Expr::proj2(p());
        let call = |f: &str, a, b| Expr::extern_call(f, vec![a, b]);
        let filter_rare = Expr::ite(
            call("nat_leq", year(), Expr::nat(1950)),
            Expr::singleton(p()),
            Expr::empty(pair_ty()),
        );
        let filter_project = Expr::ite(
            call("nat_leq", Expr::nat(2015), year()),
            Expr::singleton(Expr::pair(
                Expr::proj1(p()),
                call("nat_sub", year(), Expr::nat(1950)),
            )),
            Expr::empty(pair_ty()),
        );
        let project_swap = Expr::singleton(Expr::pair(
            call("nat_add", year(), Expr::nat(0)),
            Expr::proj1(p()),
        ));
        for body in [filter_rare, filter_project, project_swap] {
            let kernel = compile("p", &body, &pair_shape(), &[], &reg).unwrap();
            assert_eq!(kernel.reads, [1], "{body}");
        }

        let edge_ty = || Type::prod(Type::Base, Type::Base);
        let edge = FlatShape::of_type(&edge_ty()).unwrap();
        let (a, b) = (|| Expr::var("a"), || Expr::var("b"));
        let step = Expr::ite(
            Expr::eq(Expr::proj2(a()), Expr::proj1(b())),
            Expr::ite(
                Expr::eq(Expr::proj2(a()), Expr::atom(999_999)),
                Expr::empty(edge_ty()),
                Expr::singleton(Expr::pair(Expr::proj1(a()), Expr::proj2(b()))),
            ),
            Expr::empty(edge_ty()),
        );
        let scope = [("a", Some(edge.clone()))];
        let kernel = compile("b", &step, &edge, &scope, &reg).unwrap();
        assert!(kernel.keyed());
        assert_eq!(kernel.reads, [0]);
    }

    /// A join site's scratch grows with the matching range of its outer
    /// rows, and its constants' columns are laid out anew each time: a grown
    /// scratch runs exactly as a fresh one.
    #[test]
    fn a_scratch_that_grew_runs_as_a_fresh_one() {
        let (a, x) = (|| Expr::var("a"), || Expr::var("x"));
        let body = Expr::ite(
            Expr::eq(Expr::proj1(x()), Expr::proj2(a())),
            Expr::ite(
                Expr::extern_call("nat_leq", vec![Expr::proj2(x()), Expr::nat(20)]),
                Expr::singleton(x()),
                Expr::empty(pair_ty()),
            ),
            Expr::empty(pair_ty()),
        );
        let edge = FlatShape::Pair(Box::new(FlatShape::Atom), Box::new(FlatShape::Atom));
        let scope = [("a", Some(edge))];
        let reg = ExternRegistry::standard();
        let kernel = compile("x", &body, &pair_shape(), &scope, &reg).unwrap();
        assert!(kernel.keyed());
        // Key `k` matches 1, 3, 40 and 700 rows: each probe outgrows the last.
        let rows: Vec<u64> = [1, 3, 40, 700]
            .into_iter()
            .zip(0u64..)
            .flat_map(|(n, k)| (0..n).flat_map(move |i| [k, i]))
            .collect();
        let slot = kernel.capture_slot(0).unwrap();
        let run = |scratch: &mut Scratch, k: u64| {
            scratch.words[slot.clone()].copy_from_slice(&[0, k]);
            let (mut out, mut charges) = (Vec::new(), Vec::new());
            let span = kernel.probe(&rows, scratch, &mut out, |rows, work| {
                charges.push((rows, work));
                Ok::<(), ()>(())
            });
            (out, span.unwrap(), charges)
        };
        let mut grown = kernel.scratch(&[0, 0]);
        for k in 0..4 {
            let fresh = run(&mut kernel.scratch(&[0, 0]), k);
            assert!(!fresh.0.is_empty());
            assert_eq!(run(&mut grown, k), fresh, "key {k}");
        }
    }

    #[test]
    fn compile_rejects_unliftable_bodies_with_reasons() {
        let shape = pair_shape();
        let reg = ExternRegistry::standard();
        let scope = [("s", None), ("k", Some(FlatShape::Nat)), ("s", None)];
        let reject = |body: Expr| compile("x", &body, &shape, &scope, &reg).unwrap_err();
        assert!(reject(Expr::singleton(Expr::var("free"))).contains("captures `free`"));
        // The innermost binder of a name decides, and only a flat one lifts.
        assert!(reject(Expr::singleton(Expr::var("s"))).contains("captures `s`"));
        assert!(
            reject(Expr::singleton(Expr::app(Expr::var("s"), Expr::var("x"))))
                .contains("captures `s`")
        );
        assert!(
            reject(Expr::singleton(Expr::constant(Value::atom_set([1]))))
                .contains("non-flat constant")
        );
        assert!(reject(Expr::union(
            Expr::singleton(Expr::proj1(Expr::var("x"))),
            Expr::empty(Type::Base),
        ))
        .contains("union"));
        assert!(reject(Expr::singleton(Expr::unit())).contains("zero-width"));
        assert!(
            reject(Expr::singleton(Expr::extern_call(
                "card",
                vec![Expr::empty(Type::Base)]
            )))
            .contains("twin"),
            "set-consuming externs have no word twin"
        );
    }

    #[test]
    fn only_one_call_of_an_associative_word_op_over_both_input_words_folds() {
        let nat2 = FlatShape::Pair(Box::new(FlatShape::Nat), Box::new(FlatShape::Nat));
        let scope = [("y", Some(FlatShape::Nat))];
        let reg = ExternRegistry::standard();
        let q = || Expr::var("q");
        let (pi1, pi2) = (|| Expr::proj1(q()), || Expr::proj2(q()));
        let call = |f: &str, a, b| Expr::extern_call(f, vec![a, b]);
        let combiner = |body: &Expr, reg| compile_as(Role::Scalar, "q", body, &nat2, &scope, reg);
        // The analysis reads every body the kernel folds as the shape of the
        // same op, so the two recognisers cannot drift.
        let twins = [
            (Shape::NatAdd, WordOp::Add),
            (Shape::NatMul, WordOp::Mul),
            (Shape::NatMax, WordOp::Max),
            (Shape::NatMin, WordOp::Min),
        ];
        let fold = |body: Expr| {
            let kernel = combiner(&body, &reg).expect("compiles");
            let op = kernel.word_fold().map(|(op, _)| op);
            if let Some(op) = op {
                let lam = Expr::lam("q", Type::prod(Type::Nat, Type::Nat), body.clone());
                let twin = twins.iter().find(|&&(_, o)| o == op).map(|&(s, _)| s);
                assert_eq!(shape(&resolve(&lam).expr), twin, "{body}");
            }
            op
        };
        for (name, op) in [
            ("nat_add", WordOp::Add),
            ("nat_mul", WordOp::Mul),
            ("nat_max", WordOp::Max),
            ("nat_min", WordOp::Min),
        ] {
            assert_eq!(fold(call(name, pi1(), pi2())), Some(op));
            assert_eq!(fold(call(name, pi2(), pi1())), Some(op));
            let (a, b) = (Expr::var("a"), Expr::var("b"));
            let lets = Expr::let_in("a", pi1(), Expr::let_in("b", pi2(), call(name, a, b)));
            assert_eq!(fold(lets), Some(op));
        }
        // The interpreter's charge: the application, the call's node, two
        // projections of a variable and the call itself.
        let sum = combiner(&call("nat_add", pi1(), pi2()), &reg).expect("compiles");
        assert_eq!(sum.word_fold(), Some((WordOp::Add, (7, 3))));

        for body in [
            call("nat_sub", pi1(), pi2()),
            call("nat_add", pi1(), Expr::nat(1)),
            call("nat_add", pi1(), pi1()),
            call("nat_add", pi1(), call("nat_add", pi2(), Expr::nat(0))),
            call("nat_add", pi1(), call("nat_min", pi2(), Expr::var("y"))),
            // Captures `y`, though no instruction reads it.
            Expr::let_in("z", Expr::var("y"), call("nat_add", pi1(), pi2())),
            Expr::ite(
                call("nat_leq", pi1(), pi2()),
                call("nat_add", pi1(), pi2()),
                pi1(),
            ),
        ] {
            assert_eq!(fold(body.clone()), None, "{body}");
        }
        // A re-registered `nat_add` has no word op: no kernel at all.
        let mut custom = reg.clone();
        custom.register("nat_add", vec![Type::Nat; 2], Type::Nat, |args| {
            Ok(args[0].clone())
        });
        assert!(combiner(&call("nat_add", pi1(), pi2()), &custom).is_err());
    }

    #[test]
    fn analyze_sites_reports_compiled_and_fallback_sites() {
        let good = Expr::ext(
            Expr::lam("x", pair_ty(), Expr::singleton(Expr::proj1(Expr::var("x")))),
            Expr::constant(input(16)),
        );
        let sites = analyze_sites(&good, &ExternRegistry::standard());
        assert_eq!(sites.len(), 1);
        assert!(sites[0].compiled);
        assert_eq!(sites[0].detail, "(atom * nat) -> atom");

        let bad = Expr::ext(
            Expr::lam("s", Type::set(Type::Base), Expr::singleton(Expr::var("s"))),
            Expr::constant(Value::set_from([Value::atom_set([1, 2])])),
        );
        let sites = analyze_sites(&bad, &ExternRegistry::standard());
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].compiled);
        assert!(sites[0].detail.contains("not a flat shape"));

        // A join: the inner body reads the outer row, which is a kernel
        // parameter, and begins with a key equality, so the outer site runs
        // the inner kernel over the matching rows of `papers` only.
        let (a, p) = (|| Expr::var("a"), || Expr::var("p"));
        let join = |a_ty: Type, cond: Expr, papers: Expr| {
            let inner = Expr::lam(
                "p",
                pair_ty(),
                Expr::ite(
                    cond,
                    Expr::singleton(Expr::pair(Expr::proj1(a()), Expr::proj2(p()))),
                    Expr::empty(pair_ty()),
                ),
            );
            let outer = Expr::lam("a", a_ty, Expr::ext(inner, papers));
            let join = Expr::ext(outer, Expr::var("authored"));
            analyze_sites(&join, &ExternRegistry::standard())
        };
        let authored = || Type::prod(Type::Base, Type::Base);
        let key = || Expr::eq(Expr::proj2(a()), Expr::proj1(p()));
        let sites = join(authored(), key(), Expr::var("papers"));
        assert_eq!(sites.len(), 2);
        assert!(sites[0].compiled);
        assert_eq!(
            sites[0].detail,
            "(atom * atom) ⋈ (atom * nat) on pi2 a = pi1 p -> (atom * nat)"
        );
        assert!(sites[1].compiled);
        assert_eq!(
            sites[1].detail,
            "(atom * nat) [a: (atom * atom)] -> (atom * nat)"
        );
        // Without an equality key, or over an inner set that reads `a`, the
        // inner kernel still compiles but runs once per outer row.
        let no_key = Expr::extern_call("nat_leq", vec![Expr::proj2(a()), Expr::proj2(p())]);
        let reads_a = Expr::singleton(Expr::pair(Expr::proj1(a()), Expr::nat(1)));
        for (sites, why) in [
            (
                join(pair_ty(), no_key, Expr::var("papers")),
                "no equality key",
            ),
            (
                join(authored(), key(), reads_a),
                "the inner set `{(pi1 a, 1)}`",
            ),
        ] {
            assert!(!sites[0].compiled, "{}", sites[0].detail);
            assert!(
                sites[0]
                    .detail
                    .starts_with("`ext` body runs as a nested loop")
                    && sites[0].detail.contains(why),
                "{}",
                sites[0].detail
            );
            assert!(sites.last().expect("the inner site").compiled);
        }

        // A scalar recursor is one site with two kernels; a bound rejects.
        let leaf = Expr::lam("p", pair_ty(), Expr::proj2(p()));
        let add = Expr::lam(
            "q",
            Type::prod(Type::Nat, Type::Nat),
            Expr::extern_call(
                "nat_add",
                vec![Expr::proj1(Expr::var("q")), Expr::proj2(Expr::var("q"))],
            ),
        );
        let sum = Expr::dcr(Expr::nat(0), leaf.clone(), add.clone(), Expr::var("papers"));
        let sites = analyze_sites(&sum, &ExternRegistry::standard());
        assert_eq!(sites.len(), 1);
        assert!(sites[0].compiled);
        assert_eq!(
            sites[0].detail,
            "(atom * nat) -> nat, then (nat * nat) -> nat"
        );
        let mismatched = Expr::dcr(
            Expr::nat(0),
            leaf.clone(),
            leaf.clone(),
            Expr::var("papers"),
        );
        let sites = analyze_sites(&mismatched, &ExternRegistry::standard());
        assert!(!sites[0].compiled && sites[0].detail.contains("(nat * nat) -> nat"));
        let bounded = Expr::bdcr(Expr::nat(0), leaf, add, Expr::nat(9), Expr::var("papers"));
        let sites = analyze_sites(&bounded, &ExternRegistry::standard());
        assert!(!sites[0].compiled && sites[0].detail.contains("`bdcr`"));
    }
}
