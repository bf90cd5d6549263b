//! Compiled row kernels: running `ext` bodies directly over columnar rows.
//!
//! PR 9 taught [`VSet`] to store large flat-shaped sets as fixed-width `u64`
//! rows, but the evaluator still boxed every element back into a
//! [`Value`](ncql_object::Value)
//! the moment an `ext` closure touched the set — the columnar representation
//! accelerated the set algebra, not the comprehension hot loop where the
//! paper's NC work bounds are actually spent. This module closes that gap
//! with the classic "compile the comprehension instead of interpreting it"
//! move: when an `ext` body is built from projections, pair construction,
//! scalar comparisons/arithmetic, `let`/`if`, and constants over a
//! flat-shaped input, [`compile`] lowers it to a [`RowKernel`] — a small
//! register program over a scratch buffer of machine words, executed once
//! per input row, emitting canonical output rows without constructing a
//! single `Value`.
//!
//! Three invariants make the kernel path *indistinguishable* from the
//! interpreter (the differential and property suites pin all three):
//!
//! 1. **Values** — the emitted rows, canonicalized through
//!    [`VSet::from_raw_rows`], produce exactly the set the interpreted
//!    element map produces (canonical representations are unique).
//! 2. **Cost** — [`RowKernel::run_row`] returns the exact `(work, span)` the
//!    instrumented evaluator charges for applying the closure to that
//!    element: one unit per AST node visited (conditionals charge only the
//!    taken branch), the min-size charge of `=`/`<=`, the extra call unit of
//!    an external, plus the apply charge — bit-identical `CostStats`.
//! 3. **Fallback** — anything unliftable (set-typed subterms, captured free
//!    variables, non-flat constants, externals without a word-level twin)
//!    rejects at compile time with a reason, and the `ext` site runs the
//!    ordinary interpreter. The decision depends only on the body, the input
//!    shape, and the registry, so prepare-time analysis ([`analyze_sites`])
//!    predicts it exactly.
//!
//! Compilation happens at most once per closure instance (cached on the
//! closure like its region-gate estimate) and is itself cheap — one pass
//! over the body.

use crate::expr::{Expr, ExprKind, Form};
use crate::externs::{ExternRegistry, ScalarExternFn};
use crate::span::Span;
use ncql_object::{FlatShape, VSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum external-call arity the kernel executor supports (the argument
/// words live in a stack buffer; the standard registry's maximum is 2).
const MAX_CALL_ARGS: usize = 4;

/// A scalar (value-level) register operation. Every operation that *creates*
/// words owns a fixed destination range in the scratch buffer, assigned at
/// compile time; operations that merely reference existing words (variables,
/// projections, conditionals) return a view of another range, so a row
/// executes with zero allocation and no copies beyond pair assembly.
#[derive(Debug)]
enum Scalar {
    /// The lambda parameter: the input row at scratch offset 0.
    Input { width: usize },
    /// A `let`-bound value: the range recorded in the slot at runtime.
    Slot(usize),
    /// A constant (literal, boolean, or `()`), preloaded into scratch once.
    Lit { at: usize, width: usize },
    /// Pair assembly: children copied side by side into the destination.
    Pair {
        a: Box<Scalar>,
        b: Box<Scalar>,
        at: usize,
        width: usize,
    },
    /// Projection: a sub-range of the child's result, no copy.
    Proj {
        of: Box<Scalar>,
        off: usize,
        width: usize,
    },
    /// Conditional: returns the taken branch's range.
    If {
        c: Box<Scalar>,
        t: Box<Scalar>,
        e: Box<Scalar>,
    },
    /// Scalar `let`: records the bound range in a slot, then runs the body.
    Let {
        slot: usize,
        bound: Box<Scalar>,
        body: Box<Scalar>,
    },
    /// `=` / `<=` on same-shape operands: word-lexicographic comparison,
    /// which equals the lifted value order. `size` is the static value size
    /// of the shape (the interpreter's min-size comparison charge).
    Cmp {
        leq: bool,
        a: Box<Scalar>,
        b: Box<Scalar>,
        size: u64,
        at: usize,
    },
    /// An external call through its word-level twin.
    Call {
        f: ScalarExternFn,
        args: Vec<Scalar>,
        at: usize,
    },
}

/// A set-level operation: what an `ext` body may do with the scalar layer.
/// Each input row contributes zero rows or one row to the output, which is
/// exactly the singleton/empty comprehension shape the optimizer's
/// ext-fusion and filter-pushdown rewrites produce.
#[derive(Debug)]
enum SetOp {
    /// `{}` — contributes nothing.
    Empty,
    /// `{scalar}` — emits one output row.
    Single(Scalar),
    /// Conditional between two set-level branches.
    If {
        c: Scalar,
        t: Box<SetOp>,
        e: Box<SetOp>,
    },
    /// Scalar `let` over a set-level body.
    Let {
        slot: usize,
        bound: Scalar,
        body: Box<SetOp>,
    },
}

/// A compiled `ext` body: a register program over one input row.
#[derive(Debug)]
pub struct RowKernel {
    input_shape: FlatShape,
    input_width: usize,
    output_shape: FlatShape,
    output_width: usize,
    /// Total scratch words: input row, preloaded constants, destinations.
    scratch_len: usize,
    /// Number of `let` slots (ranges resolved at runtime).
    slot_count: usize,
    /// Constant words preloaded once per scratch buffer: `(offset, word)`.
    consts: Vec<(usize, u64)>,
    body: SetOp,
}

/// Reusable per-thread execution state for one kernel: the scratch buffer
/// (with constants preloaded) and the `let` slot table.
#[derive(Debug)]
pub struct KernelState {
    scratch: Vec<u64>,
    slots: Vec<(usize, usize)>,
}

impl RowKernel {
    /// The flat shape of the input rows this kernel was compiled for.
    pub fn input_shape(&self) -> &FlatShape {
        &self.input_shape
    }

    /// The flat shape of the rows the kernel emits.
    pub fn output_shape(&self) -> &FlatShape {
        &self.output_shape
    }

    /// Words per output row.
    pub fn output_width(&self) -> usize {
        self.output_width
    }

    /// Fresh execution state (one per worker thread).
    pub fn new_state(&self) -> KernelState {
        let mut scratch = vec![0u64; self.scratch_len];
        for &(at, w) in &self.consts {
            scratch[at] = w;
        }
        KernelState {
            scratch,
            slots: vec![(0, 0); self.slot_count],
        }
    }

    /// Execute the kernel over one input row, appending zero or one output
    /// rows to `out`. Returns the exact `(work, span)` the interpreter
    /// charges for applying the closure to this element (including the apply
    /// charge itself). Total and infallible: every liftable operation is.
    pub fn run_row(&self, row: &[u64], st: &mut KernelState, out: &mut Vec<u64>) -> (u64, u64) {
        debug_assert_eq!(row.len(), self.input_width);
        st.scratch[..self.input_width].copy_from_slice(row);
        let mut work = 1u64; // the apply charge
        let span = self.body.exec(st, &mut work, out);
        (work, span + 1) // apply contributes one span level
    }

    /// Canonicalize a batch of emitted rows into a set (the kernel-side twin
    /// of collecting interpreted per-element results).
    pub fn collect_rows(&self, out: Vec<u64>) -> VSet {
        VSet::from_raw_rows(self.output_shape.clone(), out)
    }
}

impl Scalar {
    /// Evaluate to a `(offset, width)` range in scratch, accumulating the
    /// interpreter's work charges and returning the node's span.
    fn exec(&self, st: &mut KernelState, work: &mut u64) -> (usize, usize, u64) {
        match self {
            Scalar::Input { width } => {
                *work += 1;
                (0, *width, 0)
            }
            Scalar::Slot(i) => {
                *work += 1;
                let (at, w) = st.slots[*i];
                (at, w, 0)
            }
            Scalar::Lit { at, width } => {
                *work += 1;
                (*at, *width, 0)
            }
            Scalar::Pair { a, b, at, width } => {
                let (ao, aw, sa) = a.exec(st, work);
                st.scratch.copy_within(ao..ao + aw, *at);
                let (bo, bw, sb) = b.exec(st, work);
                st.scratch.copy_within(bo..bo + bw, *at + aw);
                *work += 1;
                (*at, *width, sa.max(sb) + 1)
            }
            Scalar::Proj { of, off, width } => {
                let (o, _, s) = of.exec(st, work);
                *work += 1;
                (o + off, *width, s + 1)
            }
            Scalar::If { c, t, e } => {
                let (co, _, sc) = c.exec(st, work);
                let taken = if st.scratch[co] != 0 { t } else { e };
                let (o, w, sb) = taken.exec(st, work);
                *work += 1;
                (o, w, sc + sb + 1)
            }
            Scalar::Let { slot, bound, body } => {
                let (bo, bw, sb) = bound.exec(st, work);
                st.slots[*slot] = (bo, bw);
                let (o, w, sr) = body.exec(st, work);
                *work += 1;
                (o, w, sb + sr)
            }
            Scalar::Cmp {
                leq,
                a,
                b,
                size,
                at,
            } => {
                let (ao, w, sa) = a.exec(st, work);
                let (bo, _, sb) = b.exec(st, work);
                let r = {
                    let av = &st.scratch[ao..ao + w];
                    let bv = &st.scratch[bo..bo + w];
                    if *leq {
                        av <= bv
                    } else {
                        av == bv
                    }
                };
                st.scratch[*at] = u64::from(r);
                *work += 1 + size;
                (*at, 1, sa.max(sb) + 1)
            }
            Scalar::Call { f, args, at } => {
                let mut vals = [0u64; MAX_CALL_ARGS];
                let mut max_s = 0u64;
                for (i, a) in args.iter().enumerate() {
                    let (o, _, s) = a.exec(st, work);
                    vals[i] = st.scratch[o];
                    max_s = max_s.max(s);
                }
                // One unit for the extern node, one for the call itself —
                // matching the interpreter's two charges around the body.
                *work += 2;
                st.scratch[*at] = f(&vals[..args.len()]);
                (*at, 1, max_s + 1)
            }
        }
    }
}

impl SetOp {
    /// Execute over the current row: append the emitted row (if any) to
    /// `out`, accumulate work, return the span.
    fn exec(&self, st: &mut KernelState, work: &mut u64, out: &mut Vec<u64>) -> u64 {
        match self {
            SetOp::Empty => {
                *work += 1;
                0
            }
            SetOp::Single(s) => {
                let (o, w, sp) = s.exec(st, work);
                out.extend_from_slice(&st.scratch[o..o + w]);
                *work += 1;
                sp + 1
            }
            SetOp::If { c, t, e } => {
                let (co, _, sc) = c.exec(st, work);
                let taken = if st.scratch[co] != 0 { t } else { e };
                let sb = taken.exec(st, work, out);
                *work += 1;
                sc + sb + 1
            }
            SetOp::Let { slot, bound, body } => {
                let (bo, bw, sb) = bound.exec(st, work);
                st.slots[*slot] = (bo, bw);
                let sr = body.exec(st, work, out);
                *work += 1;
                sb + sr
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

/// What the compiler knows about a name in scope.
enum Binding {
    /// The lambda parameter (the input row).
    Param,
    /// A `let`-bound scalar: its slot and compile-time shape.
    Slot(usize, FlatShape),
}

struct Compiler<'a> {
    registry: &'a ExternRegistry,
    input_shape: &'a FlatShape,
    input_width: usize,
    scope: Vec<(String, Binding)>,
    consts: Vec<(usize, u64)>,
    next: usize,
    slot_count: usize,
}

impl<'a> Compiler<'a> {
    fn alloc(&mut self, width: usize) -> usize {
        let at = self.next;
        self.next += width;
        at
    }

    fn resolve(&self, name: &str) -> Option<&Binding> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b)
    }

    fn lit(&mut self, words: &[u64], shape: FlatShape) -> (Scalar, FlatShape) {
        let at = self.alloc(words.len());
        for (i, &w) in words.iter().enumerate() {
            self.consts.push((at + i, w));
        }
        (
            Scalar::Lit {
                at,
                width: words.len(),
            },
            shape,
        )
    }

    fn scalar(&mut self, expr: &Expr) -> Result<(Scalar, FlatShape), String> {
        match &expr.kind {
            ExprKind::Var(x) => match self.resolve(x) {
                Some(Binding::Param) => Ok((
                    Scalar::Input {
                        width: self.input_width,
                    },
                    self.input_shape.clone(),
                )),
                Some(Binding::Slot(slot, shape)) => Ok((Scalar::Slot(*slot), shape.clone())),
                None => Err(format!("captures the free variable `{x}`")),
            },
            ExprKind::Unit => Ok(self.lit(&[], FlatShape::Unit)),
            ExprKind::Bool(b) => Ok(self.lit(&[u64::from(*b)], FlatShape::Bool)),
            ExprKind::Const(v) => {
                let shape = FlatShape::of_value(v)
                    .ok_or_else(|| format!("non-flat constant {v} in the body"))?;
                let mut words = Vec::with_capacity(shape.width());
                if !shape.encode_into(v, &mut words) {
                    return Err(format!("constant {v} does not encode under its shape"));
                }
                Ok(self.lit(&words, shape))
            }
            ExprKind::Pair(a, b) => {
                let (ka, sa) = self.scalar(a)?;
                let (kb, sb) = self.scalar(b)?;
                let (wa, wb) = (sa.width(), sb.width());
                let at = self.alloc(wa + wb);
                Ok((
                    Scalar::Pair {
                        a: Box::new(ka),
                        b: Box::new(kb),
                        at,
                        width: wa + wb,
                    },
                    FlatShape::Pair(Box::new(sa), Box::new(sb)),
                ))
            }
            ExprKind::Proj1(e) | ExprKind::Proj2(e) => {
                let first = matches!(expr.kind, ExprKind::Proj1(_));
                let (k, s) = self.scalar(e)?;
                let FlatShape::Pair(sa, sb) = s else {
                    return Err("projection from a non-pair shape".to_string());
                };
                let (off, shape) = if first { (0, *sa) } else { (sa.width(), *sb) };
                Ok((
                    Scalar::Proj {
                        of: Box::new(k),
                        off,
                        width: shape.width(),
                    },
                    shape,
                ))
            }
            ExprKind::If(c, t, e) => {
                let (kc, sc) = self.scalar(c)?;
                if sc != FlatShape::Bool {
                    return Err("if condition is not a boolean scalar".to_string());
                }
                let (kt, st) = self.scalar(t)?;
                let (ke, se) = self.scalar(e)?;
                if st != se {
                    return Err("the two if branches have different shapes".to_string());
                }
                Ok((
                    Scalar::If {
                        c: Box::new(kc),
                        t: Box::new(kt),
                        e: Box::new(ke),
                    },
                    st,
                ))
            }
            ExprKind::Let(x, bound, body) => {
                let (kb, sb) = self.scalar(bound)?;
                let slot = self.slot_count;
                self.slot_count += 1;
                self.scope.push((x.clone(), Binding::Slot(slot, sb)));
                let result = self.scalar(body);
                self.scope.pop();
                let (kr, sr) = result?;
                Ok((
                    Scalar::Let {
                        slot,
                        bound: Box::new(kb),
                        body: Box::new(kr),
                    },
                    sr,
                ))
            }
            ExprKind::Eq(a, b) | ExprKind::Leq(a, b) => {
                let leq = matches!(expr.kind, ExprKind::Leq(_, _));
                let (ka, sa) = self.scalar(a)?;
                let (kb, sb) = self.scalar(b)?;
                if sa != sb {
                    return Err("comparison operands have different shapes".to_string());
                }
                let at = self.alloc(1);
                Ok((
                    Scalar::Cmp {
                        leq,
                        a: Box::new(ka),
                        b: Box::new(kb),
                        size: shape_size(&sa),
                        at,
                    },
                    FlatShape::Bool,
                ))
            }
            ExprKind::Extern(name, args) => {
                let f = self
                    .registry
                    .get(name)
                    .ok_or_else(|| format!("unknown external `{name}`"))?;
                let scalar = f
                    .scalar_hint()
                    .ok_or_else(|| format!("external `{name}` has no word-level twin"))?;
                if args.len() != f.params.len() || args.len() > MAX_CALL_ARGS {
                    return Err(format!("external `{name}` arity not liftable"));
                }
                let result_shape = FlatShape::of_type(&f.result)
                    .filter(|s| s.width() == 1)
                    .ok_or_else(|| format!("external `{name}` result is not one word"))?;
                let mut compiled = Vec::with_capacity(args.len());
                for (arg, param_ty) in args.iter().zip(&f.params) {
                    let want = FlatShape::of_type(param_ty)
                        .filter(|s| s.width() == 1)
                        .ok_or_else(|| format!("external `{name}` parameter is not one word"))?;
                    let (k, s) = self.scalar(arg)?;
                    if s != want {
                        return Err(format!("external `{name}` argument shape mismatch"));
                    }
                    compiled.push(k);
                }
                let at = self.alloc(1);
                Ok((
                    Scalar::Call {
                        f: scalar,
                        args: compiled,
                        at,
                    },
                    result_shape,
                ))
            }
            other => Err(format!(
                "`{}` is not liftable as a scalar",
                kind_name(other)
            )),
        }
    }

    fn set_op(&mut self, expr: &Expr) -> Result<(SetOp, Option<FlatShape>), String> {
        match &expr.kind {
            ExprKind::Empty(_) => Ok((SetOp::Empty, None)),
            ExprKind::Singleton(e) => {
                let (k, s) = self.scalar(e)?;
                if s.width() == 0 {
                    return Err("zero-width output rows (all-unit elements)".to_string());
                }
                Ok((SetOp::Single(k), Some(s)))
            }
            ExprKind::If(c, t, e) => {
                let (kc, sc) = self.scalar(c)?;
                if sc != FlatShape::Bool {
                    return Err("if condition is not a boolean scalar".to_string());
                }
                let (kt, st) = self.set_op(t)?;
                let (ke, se) = self.set_op(e)?;
                let shape = match (st, se) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    (Some(_), Some(_)) => {
                        return Err("the two if branches emit different shapes".to_string())
                    }
                    (a, b) => a.or(b),
                };
                Ok((
                    SetOp::If {
                        c: kc,
                        t: Box::new(kt),
                        e: Box::new(ke),
                    },
                    shape,
                ))
            }
            ExprKind::Let(x, bound, body) => {
                let (kb, sb) = self.scalar(bound)?;
                let slot = self.slot_count;
                self.slot_count += 1;
                self.scope.push((x.clone(), Binding::Slot(slot, sb)));
                let result = self.set_op(body);
                self.scope.pop();
                let (kr, shape) = result?;
                Ok((
                    SetOp::Let {
                        slot,
                        bound: kb,
                        body: Box::new(kr),
                    },
                    shape,
                ))
            }
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

/// Compile the body of `\param. body` into a row kernel over `input_shape`
/// rows, or explain why it cannot be lifted. Pure in (body, shape, registry):
/// the same inputs always make the same decision, which is what lets
/// prepare-time analysis predict the runtime path.
pub fn compile(
    param: &str,
    body: &Expr,
    input_shape: &FlatShape,
    registry: &ExternRegistry,
) -> Result<RowKernel, String> {
    let input_width = input_shape.width();
    let result = (|| {
        if input_width == 0 {
            return Err("zero-width input rows (all-unit elements)".to_string());
        }
        let mut c = Compiler {
            registry,
            input_shape,
            input_width,
            scope: vec![(param.to_string(), Binding::Param)],
            consts: Vec::new(),
            next: input_width,
            slot_count: 0,
        };
        let (body, out_shape) = c.set_op(body)?;
        // A body that provably never emits (every path is `{}`) has no output
        // shape of its own; any flat shape canonicalizes an empty row batch,
        // so borrow the input's.
        let output_shape = out_shape.unwrap_or_else(|| input_shape.clone());
        Ok(RowKernel {
            input_shape: input_shape.clone(),
            input_width,
            output_width: output_shape.width(),
            output_shape,
            scratch_len: c.next,
            slot_count: c.slot_count,
            consts: c.consts,
            body,
        })
    })();
    match &result {
        Ok(_) => COMPILES.fetch_add(1, Ordering::Relaxed),
        Err(_) => FALLBACKS.fetch_add(1, Ordering::Relaxed),
    };
    result
}

// ----- prepare-time site analysis -----

/// What the kernel compiler decided about one `ext` site of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSite {
    /// Source span of the `ext` expression, when the plan has spans.
    pub span: Option<Span>,
    /// Did the site compile to a row kernel?
    pub compiled: bool,
    /// `"input -> output"` row shapes for a compiled site, or the
    /// compiler's rejection reason.
    pub detail: String,
}

/// Analyze every `ext` site of `expr` whose function is a literal lambda:
/// derive the input row shape from the parameter annotation and run the
/// kernel compiler. Because [`compile`] is pure in (body, shape, registry),
/// a site reported `compiled` here is exactly a site the evaluator will run
/// through the kernel whenever the argument set is columnar (and kernels are
/// enabled).
pub fn analyze_sites(expr: &Expr, registry: &ExternRegistry) -> Vec<KernelSite> {
    let mut sites = Vec::new();
    expr.visit(&mut |e| {
        let ExprKind::Ext(f, _) = &e.kind else { return };
        let ExprKind::Lam(param, ty, body) = &f.kind else {
            sites.push(KernelSite {
                span: e.span,
                compiled: false,
                detail: "the ext function is not a literal lambda".to_string(),
            });
            return;
        };
        let site = match FlatShape::of_type(ty) {
            None => KernelSite {
                span: e.span,
                compiled: false,
                detail: format!("parameter type {ty} is not a flat shape"),
            },
            Some(shape) => match compile(param, body, &shape, registry) {
                Ok(kernel) => KernelSite {
                    span: e.span,
                    compiled: true,
                    detail: format!(
                        "{} -> {}",
                        shape_desc(&shape),
                        shape_desc(kernel.output_shape())
                    ),
                },
                Err(reason) => KernelSite {
                    span: e.span,
                    compiled: false,
                    detail: reason,
                },
            },
        };
        sites.push(site);
    });
    sites
}

// ----- process-wide observability counters -----

static COMPILES: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static EXT_HITS: AtomicU64 = AtomicU64::new(0);
static ROWS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide row-kernel counters (monotonic; kept out
/// of the bit-compared [`crate::eval::CostStats`] on purpose).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Bodies successfully compiled to kernels.
    pub compiles: u64,
    /// Compile attempts that fell back to the interpreter.
    pub fallbacks: u64,
    /// `ext` evaluations that executed through a kernel.
    pub ext_hits: u64,
    /// Input rows processed by kernels.
    pub rows: u64,
}

/// Record one kernel-executed `ext` over `rows` input rows.
pub(crate) fn note_ext_hit(rows: usize) {
    EXT_HITS.fetch_add(1, Ordering::Relaxed);
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
    use crate::eval::{EvalConfig, Evaluator};
    use ncql_object::{Type, Value};

    fn pair_shape() -> FlatShape {
        FlatShape::Pair(Box::new(FlatShape::Atom), Box::new(FlatShape::Nat))
    }

    fn pair_ty() -> Type {
        Type::prod(Type::Base, Type::Nat)
    }

    /// Input set: n scrambled (atom, nat) pairs, columnar.
    fn input(n: u64) -> Value {
        Value::set_from((0..n).map(|i| {
            let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Value::pair(Value::Atom(k % 97), Value::Nat(k % 41))
        }))
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

    #[test]
    fn compile_rejects_unliftable_bodies_with_reasons() {
        let shape = pair_shape();
        let reg = ExternRegistry::standard();
        let reject = |body: Expr| compile("x", &body, &shape, &reg).unwrap_err();
        assert!(reject(Expr::singleton(Expr::var("free"))).contains("free variable"));
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
    }
}
