//! Reference evaluator, instrumented with the work/span (PRAM) cost model.
//!
//! The evaluator computes the denotational semantics of §2/§3/§7.1 and, along
//! the way, the **work** and **span** of the evaluation. The model — what
//! every construct charges and how spans compose — is stated once, in
//! [`crate::cost`]; this module charges from that table and contains no cost
//! rule of its own.
//!
//! A plan is evaluated resolved ([`crate::resolve`]): a variable reads the
//! `Frames` of its binders by position, or the table of free values the
//! bindings were placed in once, when the run started. Closures, `let` and
//! application bind by position and allocate no name. A `dcr`/`sru` whose
//! combiner compiled to one associative word op builds no tree: its leaves
//! fold per shard ([`crate::kernel`]) and the tree's charges are computed.

use crate::cost;
use crate::error::EvalError;
use crate::expr::{Expr, ExprKind, Form, Slot, Var};
use crate::externs::ExternRegistry;
use crate::kernel::{RowKernel, Sites};
use crate::resolve::{resolve, Frames};
use crate::EvalResult;
use ncql_object::{VSet, Value};
use ncql_pram::{Pool, RegionPermit, TaskError};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Resource limits and options for an evaluation.
#[derive(Clone)]
pub struct EvalConfig {
    /// Maximum allowed cardinality of any intermediate set. Exceeding it aborts
    /// evaluation with [`EvalError::SetTooLarge`]; this is how the exponential
    /// blow-up of unbounded `dcr` over complex objects (e.g. `powerset`) is
    /// surfaced without hanging the process (pinned by the `powerset` rows of
    /// `pack_families_meet_their_claims` in `ncql-queries`).
    pub max_set_size: usize,
    /// Maximum total work before aborting with [`EvalError::WorkLimitExceeded`].
    pub max_work: u64,
    /// The external function registry Σ.
    pub registry: ExternRegistry,
    /// Number of pool workers a forked region may borrow. `None` (the default)
    /// and `Some(0 | 1)` evaluate on the calling thread only (see
    /// [`normalize_parallelism`]); `Some(n)` with `n ≥ 2` lets the regions
    /// the paper's Theorem 6.2 calls independent — the `ext` element map,
    /// the `dcr`/`sru`/`bdcr` leaf map and each round of the combining tree
    /// — fork onto `ncql-pram`'s persistent pool: one lazily-spawned worker
    /// set per evaluator (or per engine `Session`, which attaches its own)
    /// and one queue holding an entry per open region, whose chunks every
    /// free thread claims, so a region costs a queue push rather than a
    /// thread spawn. Each forked region borrows at most `n` permits from the
    /// pool's thread budget, which sets its chunk granularity and how much
    /// budget concurrent (nested) regions can hold; a nested region that
    /// gets no permit stays inline. The hard bound on worker *threads* is
    /// the pool size (`pool_threads`, default `n`).
    ///
    /// Forking is a *schedule* of one semantics: values, work, span and
    /// every per-construct counter agree bit-for-bit under every pool size
    /// and whichever thread claims which chunk, and a resource-limit error
    /// (`SetTooLarge` / `WorkLimitExceeded`) fires on a forked run exactly
    /// when one fires inline — though when one evaluation crosses both
    /// limits, which of the two is reported may differ, since shards
    /// discover their overruns concurrently.
    pub parallelism: Option<usize>,
    /// Cost-model-driven cutover: a region is only forked when its
    /// *estimated* work — number of independent applications × the applied
    /// closure's per-application cost (its body's static work bound from
    /// [`crate::analyze`] when finite, else `1 + body size`) — reaches this
    /// threshold. Small sets, and the top of every combining tree, therefore
    /// never pay region dispatch. Ignored when `parallelism` is `None`.
    pub parallel_cutoff: u64,
    /// Worker-thread count of the persistent pool forked regions run on.
    /// `None` (the default) sizes the pool by `parallelism`;
    /// `Some(n)` with `n ≥ 2` overrides it — e.g. an oversubscribed pool
    /// larger than the region fan-out, which the `NCQL_POOL_THREADS`
    /// environment knob (read by the engine's `SessionBuilder::from_env`)
    /// sets in the CI matrix. Degenerate values `Some(0 | 1)` are treated as
    /// `None` — the same normalization as `parallelism`, so the two knobs
    /// always agree: a sequential configuration never spawns a pool.
    pub pool_threads: Option<usize>,
    /// Enable compiled row kernels for `ext` and scalar `dcr`/`sru` over
    /// columnar sets (see [`crate::kernel`]). On by default; disabling forces
    /// every site through the interpreter. Values and `CostStats` are
    /// bit-identical either way — this is a pure execution-strategy knob
    /// (the engine's `NCQL_KERNELS=0` kill switch).
    pub kernels: bool,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            max_set_size: 1 << 22,
            max_work: u64::MAX,
            registry: ExternRegistry::standard(),
            parallelism: None,
            parallel_cutoff: 4096,
            pool_threads: None,
            kernels: true,
        }
    }
}

impl EvalConfig {
    /// The worker-thread count the evaluator's pool runs with:
    /// `pool_threads` when it names a real parallel count (`≥ 2`), otherwise
    /// the `parallelism` knob. `0` when the configuration is sequential —
    /// such a configuration never constructs a pool at all.
    pub fn effective_pool_threads(&self) -> usize {
        match normalize_parallelism(self.parallelism) {
            Some(n) => normalize_parallelism(self.pool_threads).unwrap_or(n),
            None => 0,
        }
    }
}

impl std::fmt::Debug for EvalConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalConfig")
            .field("max_set_size", &self.max_set_size)
            .field("max_work", &self.max_work)
            .field("parallelism", &self.parallelism)
            .field("parallel_cutoff", &self.parallel_cutoff)
            .field("pool_threads", &self.pool_threads)
            .field("kernels", &self.kernels)
            .finish()
    }
}

/// The one definition of "is this thread count parallel": `Some(n)` with
/// `n ≥ 2` is kept, `None` and the degenerate `Some(0 | 1)` become `None`.
/// The evaluator reads `parallelism` and `pool_threads` through it, and the
/// front door that accepts an override (the engine's `SessionBuilder`)
/// stores the normalized form, so a configuration never records a value that
/// *looks* parallel but evaluates on one thread.
pub fn normalize_parallelism(requested: Option<usize>) -> Option<usize> {
    requested.filter(|&n| n >= 2)
}

/// The parallelism requested through the *test* environment knob
/// `NCQL_TEST_PARALLELISM`: `None` when unset, empty, or unparseable. The CI
/// matrix sets it so the differential suites exercise both schedules on
/// every push. User-facing surfaces read
/// `NCQL_PARALLELISM` (the engine's `SessionBuilder::from_env`) instead, so
/// the test variable never silently overrides an explicit user request.
pub fn parallelism_from_env() -> Option<usize> {
    env_number("NCQL_TEST_PARALLELISM")
}

/// The environment variable `name` read as a number: `None` when it is
/// unset or its trimmed value does not parse. Every numeric `NCQL_*` knob
/// goes through here, so they all ignore the same garbage.
pub fn env_number<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The environment variable `name` read as a switch: `0`, `off` and
/// `off_word` are `Some(false)`, `1`, `on` and `on_word` are `Some(true)`,
/// anything else (unset included) is `None`.
pub fn env_switch(name: &str, off_word: &str, on_word: &str) -> Option<bool> {
    match std::env::var(name).ok()?.trim() {
        "0" | "off" => Some(false),
        "1" | "on" => Some(true),
        word if word == off_word => Some(false),
        word if word == on_word => Some(true),
        _ => None,
    }
}

/// A shared flag for cooperatively cancelling an in-flight evaluation from
/// another thread, or once a deadline passes.
///
/// Hand a clone of the token to [`Evaluator::attach_cancel`] (or the engine's
/// execute-time options) before starting the evaluation, keep the original,
/// and call [`CancelToken::cancel`] from any thread — a shutdown path, a
/// client disconnect handler. The evaluator polls the flag at every work
/// charge (one relaxed atomic load) and unwinds with [`EvalError::Cancelled`]
/// within a few elementary operations; it reads a deadline's clock once per
/// 4 096 units each thread charges and as each forked chunk starts. Forked
/// workers inherit the token, so one `cancel` stops every thread.
///
/// Tokens are single-shot: once cancelled they stay cancelled, and the first
/// recorded reason wins. Reuse across evaluations is therefore only sound for
/// evaluations that should all die together; per-request hosts create one
/// token per request.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// Raised exactly once; checked with relaxed ordering (the reason is
    /// published through the `OnceLock`'s own synchronization).
    flag: Arc<AtomicBool>,
    /// Why the evaluation was cancelled, set before the flag is raised.
    reason: Arc<OnceLock<String>>,
    /// When the token cancels itself, and the deadline it was given.
    deadline: Option<(Instant, Duration)>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that cancels itself (`deadline of {ms}ms exceeded`) once its
    /// evaluation reads the clock `after` from now; too far off is no deadline.
    pub fn with_deadline(after: Duration) -> CancelToken {
        CancelToken {
            deadline: Instant::now().checked_add(after).map(|due| (due, after)),
            ..CancelToken::default()
        }
    }

    /// The evaluator's poll; an expired deadline cancels if `read_clock`.
    fn check(&self, read_clock: bool) -> EvalResult<()> {
        if let Some((due, after)) = self.deadline.filter(|_| read_clock) {
            if Instant::now() >= due {
                self.cancel(format!("deadline of {}ms exceeded", after.as_millis()));
            }
        }
        if self.is_cancelled() {
            return Err(EvalError::cancelled(self.reason()));
        }
        Ok(())
    }

    /// Raise the flag with a reason (e.g. `"deadline of 50ms exceeded"`).
    /// The first caller's reason is the one evaluations report; later calls
    /// keep the token cancelled but change nothing.
    pub fn cancel(&self, reason: impl Into<String>) {
        let _ = self.reason.set(reason.into());
        self.flag.store(true, AtomicOrdering::Release);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(AtomicOrdering::Relaxed)
    }

    /// The recorded reason, or a generic message if the canceller supplied
    /// none (possible only through a racing `cancel` observed before its
    /// reason write — the acquire load makes that window empty in practice).
    pub fn reason(&self) -> String {
        self.reason
            .get()
            .cloned()
            .unwrap_or_else(|| "cancelled".to_string())
    }
}

/// Cost statistics accumulated over one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostStats {
    /// Total work (elementary operations).
    pub work: u64,
    /// Critical-path length under the parallel reading of the language.
    pub span: u64,
    /// Number of combiner (`u`) applications performed by `dcr`/`sru`/`bdcr`.
    pub combiner_calls: u64,
    /// Number of step (`i`) applications performed by `sri`/`esr`/`bsri`.
    pub step_calls: u64,
    /// Number of `ext` element applications.
    pub ext_calls: u64,
    /// Maximum number of *sequential* rounds of any single iterator or
    /// insert-recursion in the expression (the quantity bounded by `log` for
    /// `log-loop` and by `n` for `loop`/`sri`). The cost model counts every
    /// round, including those an iterator past its fixed point charges
    /// without running.
    pub sequential_rounds: u64,
    /// Largest intermediate set cardinality observed.
    pub max_set_size: usize,
}

/// Runtime values: complex objects or closures (function values exist only
/// transiently, as arguments of `ext`, recursors and applications).
#[derive(Debug, Clone)]
enum RtVal {
    Obj(Value),
    Clo(Closure),
}

/// Function values. `Arc`-shared body and environment make closures `Send +
/// Sync`, so the parallel backend can hand the *same* closure to every worker
/// thread instead of deep-copying expressions per element (the `Rc` this used
/// to be would have pinned evaluation to one thread). The body is the plan's
/// own (`ExprKind::Lam` holds it as an `Arc`), so making a closure copies
/// nothing and every closure of one `λ` names its site by the body's address
/// (see [`Sites`]). Its parameter is the body's `Slot::Bound(0)`.
#[derive(Debug, Clone)]
struct Closure {
    body: Arc<Expr>,
    env: Env,
}

/// The values of the binders in scope, innermost first.
type Env = Frames<RtVal>;

impl RtVal {
    fn into_obj(self, context: &str) -> EvalResult<Value> {
        match self {
            RtVal::Obj(v) => Ok(v),
            RtVal::Clo(_) => Err(EvalError::stuck(format!(
                "{context}: expected a complex object, found a function value"
            ))),
        }
    }

    fn into_clo(self, context: &str) -> EvalResult<Closure> {
        match self {
            RtVal::Clo(c) => Ok(c),
            RtVal::Obj(v) => Err(EvalError::stuck(format!(
                "{context}: expected a function value, found {v}"
            ))),
        }
    }
}

/// Componentwise intersection `v ⊓ b` at a PS-type: sets intersect, pairs meet
/// componentwise (§2, definition of bounded dcr).
pub fn meet(v: &Value, bound: &Value) -> EvalResult<Value> {
    match (v, bound) {
        (Value::Set(a), Value::Set(b)) => Ok(Value::Set(a.intersect(b))),
        (Value::Pair(a1, a2), Value::Pair(b1, b2)) => Ok(Value::pair(meet(a1, b1)?, meet(a2, b2)?)),
        _ => Err(EvalError::stuck(format!(
            "bounding meet applied at a non-PS-type value: {v} ⊓ {bound}"
        ))),
    }
}

/// An object result with its span.
fn obj(v: Value, span: u64) -> EvalResult<(RtVal, u64)> {
    Ok((RtVal::Obj(v), span))
}

/// `v ⊓ bound` for the bounded forms, `v` itself for the unbounded ones.
fn clip(v: Value, bound: &Option<Value>) -> EvalResult<Value> {
    match bound {
        Some(b) => meet(&v, b),
        None => Ok(v),
    }
}

/// Collapse a `ncql-pram` task error into an evaluation error: a worker that
/// failed forwards its own error; a worker that *panicked* (e.g. inside a
/// buggy extern) surfaces as [`EvalError::WorkerPanicked`] instead of
/// unwinding through the thread scope and aborting the process.
fn flatten_task_error(e: TaskError<EvalError>) -> EvalError {
    match e {
        TaskError::Failed(err) => err,
        TaskError::Panicked(msg) => EvalError::worker_panicked(msg),
    }
}

/// Like [`flatten_task_error`] for infallible pool tasks (the post-`ext`
/// shard merge): only a panic can surface, the `Failed` arm is uninhabited.
fn flatten_merge_panic(e: TaskError<std::convert::Infallible>) -> EvalError {
    match e {
        TaskError::Failed(never) => match never {},
        TaskError::Panicked(msg) => EvalError::worker_panicked(msg),
    }
}

/// A site's kernel ready to run: the words of the values it captures, in
/// [`RowKernel::captures`] order, beside it.
struct SiteKernel {
    kernel: Arc<RowKernel>,
    captures: Vec<u64>,
}

/// Sort and deduplicate the rows of `width` words in `out[start..]`, in
/// place; returns how many remain.
fn canonical_tail(out: &mut Vec<u64>, start: usize, width: usize) -> usize {
    let rows = out[start..].chunks_exact(width);
    if !rows.clone().is_sorted_by(|a, b| a < b) {
        let mut rows: Vec<&[u64]> = rows.collect();
        rows.sort_unstable();
        rows.dedup();
        let rows = rows.concat();
        out.truncate(start);
        out.extend(rows);
    }
    (out.len() - start) / width
}

/// The `(result rows, spans)` of the shards of one kernel pass, each
/// concatenated in shard order.
fn concat(shards: Vec<(Vec<u64>, Vec<u64>)>) -> (Vec<u64>, Vec<u64>) {
    let mut shards = shards.into_iter();
    let mut all = shards.next().unwrap_or_default();
    for (words, spans) in shards {
        all.0.extend(words);
        all.1.extend(spans);
    }
    all
}

/// Minimum total elements across the shards of one post-`ext` merge before a
/// parallel combine round is attempted; below this, forking costs more than
/// the sequential flat-row merge it replaces. Purely a scheduling heuristic —
/// every path produces the same canonical set.
const PAR_MERGE_MIN_ROWS: usize = 1024;

/// Work units between two clock reads under a deadline token.
const CLOCK_EVERY: u64 = 4096;

/// The instrumented evaluator.
#[derive(Debug)]
pub struct Evaluator {
    config: EvalConfig,
    stats: CostStats,
    /// Work charged by *all* threads of one top-level evaluation, used to
    /// enforce `max_work` globally when regions may fork: each
    /// worker's local tally only sees its own shard, so without a shared
    /// budget a query could exceed the limit by up to a factor of `threads`.
    /// `None` whenever enforcement can be done on the local tally alone
    /// (sequential configuration, or no finite limit configured).
    shared_work: Option<Arc<AtomicU64>>,
    /// The persistent pool parallel regions fork onto. Created
    /// lazily on the first evaluation under a parallel configuration (or
    /// attached by the owning `Session`, which shares one pool across
    /// executions); `None` under a sequential configuration, which therefore
    /// never spawns a worker thread.
    pool: Option<Arc<Pool>>,
    /// Cooperative cancellation flag, polled at every work charge. `None`
    /// (the default) costs nothing; workers inherit the parent's token so the
    /// whole evaluation stops together.
    cancel: Option<CancelToken>,
    /// The row kernels and region-gate estimates of the plan under
    /// evaluation, one entry per `λ` body, and its free names: the survey
    /// the plan was prepared with, or one made when the evaluation started.
    /// Shared with its workers.
    sites: Arc<Sites>,
    /// The value bound to each free name of the plan, `None` for a name no
    /// binding supplies (an error only where it is read).
    free: Arc<[Option<Value>]>,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::new(EvalConfig::default())
    }
}

impl Evaluator {
    /// Create an evaluator with the given configuration.
    pub fn new(config: EvalConfig) -> Evaluator {
        Evaluator {
            config,
            stats: CostStats::default(),
            shared_work: None,
            pool: None,
            cancel: None,
            sites: Arc::default(),
            free: Arc::new([]),
        }
    }

    /// Attach a persistent pool for parallel regions to fork
    /// onto, replacing the one this evaluator would otherwise create lazily.
    /// The engine's `Session` uses this to share one pool (one worker set)
    /// across every execution it dispatches.
    pub fn attach_pool(&mut self, pool: Arc<Pool>) {
        self.pool = Some(pool);
    }

    /// The pool parallel regions fork onto, if one has been created or
    /// attached yet.
    pub fn pool(&self) -> Option<&Arc<Pool>> {
        self.pool.as_ref()
    }

    /// Attach a cooperative cancellation token: every work charge of this
    /// evaluator (and of the worker evaluators it forks) polls the token and
    /// aborts with [`EvalError::Cancelled`] once it is raised. Attach a fresh
    /// token per evaluation — tokens are single-shot.
    pub fn attach_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// A worker evaluator for one parallel chunk: same limits, registry and
    /// parallelism knobs, fresh statistics (absorbed by the parent after the
    /// join), the parent's shared work budget, and the parent's pool handle —
    /// so a *nested* parallel region inside this worker can borrow whatever
    /// workers the pool's thread-budget semaphore still has idle, instead of
    /// being forced sequential the way the fork/join backend forced it.
    fn worker(&self) -> Evaluator {
        Evaluator {
            config: self.config.clone(),
            stats: CostStats::default(),
            shared_work: self.shared_work.clone(),
            pool: self.pool.clone(),
            cancel: self.cancel.clone(),
            sites: self.sites.clone(),
            free: self.free.clone(),
        }
    }

    /// Cost statistics of the most recent evaluation.
    pub fn stats(&self) -> CostStats {
        self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Evaluate a closed expression of object type. Resets the statistics.
    pub fn eval_closed(&mut self, expr: &Expr) -> EvalResult<Value> {
        self.eval_with_bindings(expr, &[])
    }

    /// Evaluate an expression whose free variables are bound to the given
    /// complex-object values; when a name is bound twice, the last binding
    /// wins. Resets the statistics. The plan is resolved and surveyed first
    /// (kernels compiled when enabled, see [`Sites`]); use
    /// [`Evaluator::eval_surveyed`] to do that once for many evaluations.
    pub fn eval_with_bindings(
        &mut self,
        expr: &Expr,
        bindings: &[(String, Value)],
    ) -> EvalResult<Value> {
        let plan = resolve(expr);
        let sites = Sites::of_plan(&plan, &self.config.registry, self.config.kernels);
        self.eval_surveyed(&plan.expr, Arc::new(sites), bindings)
    }

    /// [`Evaluator::eval_with_bindings`] on a plan that was surveyed before:
    /// `sites` is [`Sites::of_plan`] of the resolution whose tree `expr` is,
    /// under this configuration's registry. Nothing is resolved or compiled.
    pub fn eval_surveyed(
        &mut self,
        expr: &Expr,
        sites: Arc<Sites>,
        bindings: &[(String, Value)],
    ) -> EvalResult<Value> {
        self.stats = CostStats::default();
        // The schema boundary: each free name takes its last binding.
        let bound = |name| bindings.iter().rev().find(|(n, _)| n == name);
        self.free = (sites.free.iter())
            .map(|name| bound(name).map(|(_, v)| v.clone()))
            .collect();
        self.sites = sites;
        let parallel = normalize_parallelism(self.config.parallelism).is_some();
        // A finite work limit on a forking schedule needs one budget shared
        // by every thread of this evaluation (see `shared_work`).
        self.shared_work =
            (parallel && self.config.max_work != u64::MAX).then(|| Arc::new(AtomicU64::new(0)));
        // Regions fork onto a persistent pool: created once per evaluator
        // (first evaluation) unless the owner attached a longer-lived one.
        // Sequential configurations never construct a pool.
        if parallel && self.pool.is_none() {
            self.pool = Some(Arc::new(Pool::new(self.config.effective_pool_threads())));
        }
        let (val, span) = self.eval(expr, &Frames(None))?;
        self.stats.span = span;
        val.into_obj("query result")
    }

    // ----- internals -----

    fn add_work(&mut self, amount: u64) -> EvalResult<()> {
        // Cooperative cancellation: the work charge is the one choke point
        // every elementary operation passes through, so polling here bounds
        // the reaction latency by a handful of operations. A relaxed load of
        // an untouched cache line is noise next to the atomic budget add
        // below; the clock is read once per `CLOCK_EVERY` units of the tally.
        if let Some(token) = &self.cancel {
            token.check((self.stats.work % CLOCK_EVERY).saturating_add(amount) >= CLOCK_EVERY)?;
        }
        self.stats.work = self.stats.work.saturating_add(amount);
        let charged = match &self.shared_work {
            // Global budget: every thread adds its charge here, so the limit
            // fires on the same total work as the inline schedule.
            Some(total) => total
                .fetch_add(amount, AtomicOrdering::Relaxed)
                .saturating_add(amount),
            None => self.stats.work,
        };
        if charged > self.config.max_work {
            return Err(EvalError::work_limit_exceeded(self.config.max_work));
        }
        Ok(())
    }

    /// Fold a joined worker's statistics into this evaluator's tallies. Work
    /// and the per-construct counters are additive; the set-size and round
    /// high-water marks take the maximum. (Span is not a tally — it is
    /// threaded through the `(value, span)` results themselves.)
    fn absorb_stats(&mut self, worker: &CostStats) {
        self.stats.work = self.stats.work.saturating_add(worker.work);
        self.stats.combiner_calls += worker.combiner_calls;
        self.stats.step_calls += worker.step_calls;
        self.stats.ext_calls += worker.ext_calls;
        self.stats.sequential_rounds = self.stats.sequential_rounds.max(worker.sequential_rounds);
        self.stats.max_set_size = self.stats.max_set_size.max(worker.max_set_size);
    }

    /// Decide whether a region of `apps` independent applications of the
    /// closure is worth forking: the static work estimate (applications ×
    /// the [`Sites::gate_cost`] of the closure's site) must reach
    /// [`EvalConfig::parallel_cutoff`], and the pool's thread-budget
    /// semaphore must still have a worker to lend (nested regions compete
    /// for the same bounded worker set; a region that gets no permit stays
    /// sequential). Returns the borrowed permit to fork with, or `None` to
    /// stay sequential — which never changes the result or the cost
    /// statistics, only the schedule.
    fn parallel_region(&self, apps: usize, clo: &Closure) -> Option<RegionPermit> {
        let threads = normalize_parallelism(self.config.parallelism)?;
        if apps < 2 {
            return None;
        }
        let gate_cost = self.sites.gate_cost(&clo.body, &self.config.registry);
        let estimate = (apps as u64).saturating_mul(gate_cost);
        if estimate < self.config.parallel_cutoff {
            return None;
        }
        // The borrow is capped by the *parallelism* knob, not the pool size:
        // the permit sets this region's chunk granularity and leaves the rest
        // of the budget for concurrent (nested) regions to claim. Any idle
        // pool worker may claim a queued region's chunk, so the pool size,
        // not this cap, bounds worker threads.
        self.pool.as_ref()?.try_borrow(apps.min(threads))
    }

    /// What `ext` charges once its elements are mapped to a result of `len`
    /// elements: the result's work and size check. Returns the `ext`'s span
    /// over its function's, its argument's and its largest element's.
    fn ext_result(&mut self, len: usize, spans: [u64; 3]) -> EvalResult<u64> {
        self.add_work(len as u64)?;
        self.note_set(len)?;
        Ok(cost::EXT.span_over(spans))
    }

    fn note_set(&mut self, len: usize) -> EvalResult<()> {
        if len > self.stats.max_set_size {
            self.stats.max_set_size = len;
        }
        if len > self.config.max_set_size {
            return Err(EvalError::set_too_large(self.config.max_set_size, len));
        }
        Ok(())
    }

    /// Charge `k` more runs of the round that began at `before`: its growth of
    /// the additive tallies, `k` times (the high-water marks would not move).
    /// Returns `false`, charging nothing, when the work budget does not cover
    /// all `k`.
    fn repeat_round(&mut self, before: &CostStats, k: u64) -> EvalResult<bool> {
        let work = self.stats.work - before.work;
        let charged = (self.shared_work.as_ref())
            .map_or(self.stats.work, |total| total.load(AtomicOrdering::Relaxed));
        if work.saturating_mul(k) > self.config.max_work.saturating_sub(charged) {
            return Ok(false);
        }
        self.add_work(work.saturating_mul(k))?;
        self.stats.combiner_calls += (self.stats.combiner_calls - before.combiner_calls) * k;
        self.stats.step_calls += (self.stats.step_calls - before.step_calls) * k;
        self.stats.ext_calls += (self.stats.ext_calls - before.ext_calls) * k;
        Ok(true)
    }

    fn note_rounds(&mut self, rounds: u64) {
        if rounds > self.stats.sequential_rounds {
            self.stats.sequential_rounds = rounds;
        }
    }

    fn apply(&mut self, clo: &Closure, arg: RtVal) -> EvalResult<(RtVal, u64)> {
        self.add_work(cost::APPLY.work)?;
        let env = clo.env.bind(arg);
        let (v, s) = self.eval(&clo.body, &env)?;
        Ok((v, cost::APPLY.span_over([s])))
    }

    fn apply_obj(&mut self, clo: &Closure, arg: Value) -> EvalResult<(Value, u64)> {
        let (v, s) = self.apply(clo, RtVal::Obj(arg))?;
        Ok((v.into_obj("function application result")?, s))
    }

    /// One step of a recursor or iterator — a leaf, a combining node, an
    /// insert step, a loop round: apply `clo`, clip the result to the bound
    /// of the bounded forms, and record the size of a set result.
    fn apply_bounded(
        &mut self,
        clo: &Closure,
        arg: Value,
        bound: &Option<Value>,
    ) -> EvalResult<(Value, u64)> {
        let (v, s) = self.apply_obj(clo, arg)?;
        let v = clip(v, bound)?;
        if let Value::Set(set) = &v {
            self.note_set(set.len())?;
        }
        Ok((v, s))
    }

    /// The value and span of a bounded form's bound; `(None, 0)` otherwise.
    fn eval_bound(&mut self, bound: Option<&Expr>, env: &Env) -> EvalResult<(Option<Value>, u64)> {
        match bound {
            Some(b) => {
                let (bv, s) = self.eval_obj(b, env)?;
                Ok((Some(bv), s))
            }
            None => Ok((None, 0)),
        }
    }

    fn eval_obj(&mut self, expr: &Expr, env: &Env) -> EvalResult<(Value, u64)> {
        let (v, s) = self.eval(expr, env)?;
        Ok((v.into_obj("expected an object value")?, s))
    }

    fn eval_clo(&mut self, expr: &Expr, env: &Env, what: &str) -> EvalResult<(Closure, u64)> {
        let (v, s) = self.eval(expr, env)?;
        Ok((v.into_clo(what)?, s))
    }

    fn eval_set(&mut self, expr: &Expr, env: &Env, what: &str) -> EvalResult<(VSet, u64)> {
        let (v, s) = self.eval_obj(expr, env)?;
        match v {
            Value::Set(set) => Ok((set, s)),
            other => Err(EvalError::stuck(format!(
                "{what}: expected a set, got {other}"
            ))),
        }
    }

    /// Evaluate one node: locate any error that bubbles out still span-less
    /// at this node, so the deepest spanned frame — the failing subexpression
    /// itself — wins. Identical on every schedule: worker errors cross the
    /// pool boundary with their spans already attached.
    fn eval(&mut self, expr: &Expr, env: &Env) -> EvalResult<(RtVal, u64)> {
        self.eval_kind(expr, env)
            .map_err(|e| e.with_span_if_missing(expr.span))
    }

    /// The value `x` refers to in `env`.
    fn lookup(&self, x: &Var, env: &Env) -> EvalResult<RtVal> {
        let found = match x.slot {
            Slot::Bound(d) => env.get(d).cloned(),
            Slot::Free(i) => self.free.get(i).cloned().flatten().map(RtVal::Obj),
            Slot::Unresolved => None,
        };
        found.ok_or_else(|| EvalError::unbound(x.name.clone()))
    }

    fn eval_kind(&mut self, expr: &Expr, env: &Env) -> EvalResult<(RtVal, u64)> {
        self.add_work(cost::NODE)?;
        match &expr.kind {
            ExprKind::Var(x) => Ok((self.lookup(x, env)?, cost::LEAF.span)),
            ExprKind::Lam(_, _, body) => Ok((
                RtVal::Clo(Closure {
                    body: body.clone(),
                    env: env.clone(),
                }),
                cost::LEAF.span,
            )),
            ExprKind::App(f, a) => {
                let (fv, sf) = self.eval(f, env)?;
                let clo = fv.into_clo("application")?;
                let (av, sa) = self.eval(a, env)?;
                let (rv, sb) = self.apply(&clo, av)?;
                Ok((rv, cost::APP.span_over([sf, sa, sb])))
            }
            ExprKind::Let(_, bound, body) => {
                let (bv, sb) = self.eval(bound, env)?;
                let env2 = env.bind(bv);
                let (rv, sr) = self.eval(body, &env2)?;
                Ok((rv, cost::LET.span_over([sb, sr])))
            }
            ExprKind::Unit => obj(Value::Unit, cost::LEAF.span),
            ExprKind::Pair(a, b) => {
                let (av, sa) = self.eval_obj(a, env)?;
                let (bv, sb) = self.eval_obj(b, env)?;
                obj(Value::pair(av, bv), cost::PAIR.span_over([sa, sb]))
            }
            ExprKind::Proj1(e) => {
                let (v, s) = self.eval_obj(e, env)?;
                match v {
                    Value::Pair(a, _) => obj(*a, cost::PROJ.span_over([s])),
                    other => Err(EvalError::stuck(format!("pi1 of non-pair {other}"))),
                }
            }
            ExprKind::Proj2(e) => {
                let (v, s) = self.eval_obj(e, env)?;
                match v {
                    Value::Pair(_, b) => obj(*b, cost::PROJ.span_over([s])),
                    other => Err(EvalError::stuck(format!("pi2 of non-pair {other}"))),
                }
            }
            ExprKind::Bool(b) => obj(Value::Bool(*b), cost::LEAF.span),
            ExprKind::If(c, t, e) => {
                let (cv, sc) = self.eval_obj(c, env)?;
                match cv {
                    Value::Bool(taken) => {
                        let (v, s) = self.eval(if taken { t } else { e }, env)?;
                        Ok((v, cost::IF.span_over([sc, s])))
                    }
                    other => Err(EvalError::stuck(format!(
                        "if condition not a boolean: {other}"
                    ))),
                }
            }
            ExprKind::Eq(a, b) | ExprKind::Leq(a, b) => {
                let (av, sa) = self.eval_obj(a, env)?;
                let (bv, sb) = self.eval_obj(b, env)?;
                self.add_work(cost::cmp_extra(av.size() as u64, bv.size() as u64))?;
                let holds = match expr.kind {
                    ExprKind::Eq(..) => av == bv,
                    _ => av <= bv,
                };
                obj(Value::Bool(holds), cost::CMP.span_over([sa, sb]))
            }
            ExprKind::Const(v) => obj(v.clone(), cost::LEAF.span),
            ExprKind::Empty(_) => obj(Value::empty_set(), cost::LEAF.span),
            ExprKind::Singleton(e) => {
                let (v, s) = self.eval_obj(e, env)?;
                obj(Value::singleton(v), cost::SINGLETON.span_over([s]))
            }
            ExprKind::Union(a, b) => {
                let (av, sa) = self.eval_set(a, env, "union")?;
                let (bv, sb) = self.eval_set(b, env, "union")?;
                let u = av.union(&bv);
                self.add_work(u.len() as u64)?;
                self.note_set(u.len())?;
                obj(Value::Set(u), cost::UNION.span_over([sa, sb]))
            }
            ExprKind::IsEmpty(e) => {
                let (v, s) = self.eval_set(e, env, "isempty")?;
                obj(Value::Bool(v.is_empty()), cost::IS_EMPTY.span_over([s]))
            }
            ExprKind::Ext(f, e) => {
                let (clo, sf) = self.eval_clo(f, env, "ext function")?;
                let (set, se) = self.eval_set(e, env, "ext argument")?;
                // The permit outlives the element map: the same borrowed
                // workers run the parallel shard-merge rounds below.
                let region = self.parallel_region(set.len(), &clo);
                // A columnar argument whose function body compiles to a row
                // kernel runs directly over the word rows: an execution
                // strategy with no observable change (see [`crate::kernel`]).
                let kernel = set.columnar_rows().and_then(|(shape, _, _)| {
                    self.site_kernel(&clo, |kernel| kernel.input_shape() == shape)
                });
                let mapped = if let Some(kernel) = kernel {
                    self.ext_rows_kernel(region.as_ref(), &kernel, &set)?
                } else if let Some(mapped) = self.ext_join(region.as_ref(), &clo, &set) {
                    mapped?
                } else {
                    let elements = Cow::Borrowed(set.as_slice());
                    self.map_region(region.as_ref(), elements, 1, |ev, shard, _| {
                        let mut out = Vec::with_capacity(shard.len());
                        for x in shard.iter() {
                            ev.stats.ext_calls += 1;
                            out.push(ev.apply_obj(&clo, x.clone())?);
                        }
                        Ok(out)
                    })?
                };
                let mut parts: Vec<VSet> = Vec::with_capacity(mapped.len());
                let mut max_elem_span = 0u64;
                for (res, sx) in mapped {
                    max_elem_span = cost::INDEPENDENT.join(max_elem_span, sx);
                    match res {
                        Value::Set(s) => parts.push(s),
                        other => {
                            return Err(EvalError::stuck(format!(
                                "ext function returned a non-set {other}"
                            )))
                        }
                    }
                }
                let result = self.merge_ext_parts(region.as_ref(), parts)?;
                let span = self.ext_result(result.len(), [sf, se, max_elem_span])?;
                obj(Value::Set(result), span)
            }

            ExprKind::UnionRec { form, e, f, u, arg } => {
                self.eval_union_recursor(env, e, f, u, form.bound(), arg)
            }
            ExprKind::InsertRec { form, e, i, arg } => {
                self.eval_insert_recursor(env, e, i, form.bound(), arg)
            }
            ExprKind::Iter { form, f, set, init } => {
                self.eval_iterator(env, f, form.bound(), set, init, form.is_log())
            }

            ExprKind::Extern(name, args) => {
                let ext = self.config.registry.get(name).cloned().ok_or_else(|| {
                    EvalError::extern_failure(format!("unknown external `{name}`"))
                })?;
                let mut vals = Vec::with_capacity(args.len());
                let mut max_span = 0u64;
                for a in args {
                    let (v, s) = self.eval_obj(a, env)?;
                    max_span = cost::EXTERN.join(max_span, s);
                    vals.push(v);
                }
                self.add_work(cost::EXTERN_CALL)?;
                let result = (ext.body)(&vals)?;
                obj(result, cost::EXTERN.span_over([max_span]))
            }
        }
    }

    /// Shared evaluation of `dcr` / `sru` / `bdcr`: apply `f` to all elements in
    /// parallel, then combine with `u` along a balanced binary tree.
    fn eval_union_recursor(
        &mut self,
        env: &Env,
        e: &Expr,
        f: &Expr,
        u: &Expr,
        bound: Option<&Expr>,
        arg: &Expr,
    ) -> EvalResult<(RtVal, u64)> {
        let (e_val, se) = self.eval_obj(e, env)?;
        let (f_clo, sf) = self.eval_clo(f, env, "recursor singleton map")?;
        let (u_clo, su) = self.eval_clo(u, env, "recursor combiner")?;
        let (bound_val, sb) = self.eval_bound(bound, env)?;
        let e_val = clip(e_val, &bound_val)?;
        let (set, sarg) = self.eval_set(arg, env, "recursor argument")?;
        let prefix_span = cost::INDEPENDENT.span_over([se, sf, su, sb, sarg]);

        if set.is_empty() {
            return obj(e_val, cost::RECURSION.span_over([prefix_span]));
        }

        // An unbounded form over a columnar set, with `f : row → R` and
        // `u : (R * R) → R` both compiled, runs the same tree on row kernels.
        if let (None, Some((shape, _, _))) = (&bound_val, set.columnar_rows()) {
            let leaf = self.site_kernel(&f_clo, |leaf| leaf.input_shape() == shape);
            let node = leaf.as_ref().and_then(|leaf| {
                let combines = |node: &RowKernel| node.combines(leaf.kernel.output_shape());
                self.site_kernel(&u_clo, combines)
            });
            if let (Some(leaf), Some(node)) = (leaf, node) {
                let (result, tree_span) =
                    self.union_recursor_kernel((&f_clo, &leaf), (&u_clo, &node), &set)?;
                return obj(result, cost::RECURSION.span_over([prefix_span, tree_span]));
            }
        }

        // Leaves: f applied to every element, independently. (The block
        // returns the permit before the combining rounds borrow their own.)
        let leaves = {
            let region = self.parallel_region(set.len(), &f_clo);
            let elements = Cow::Borrowed(set.as_slice());
            self.map_region(region.as_ref(), elements, 1, |ev, shard, _| {
                let mut out = Vec::with_capacity(shard.len());
                for x in shard.iter() {
                    out.push(ev.apply_bounded(&f_clo, x.clone(), &bound_val)?);
                }
                Ok(out)
            })?
        };

        // Balanced combining tree: `u(v₀,v₁), u(v₂,v₃), …` with an odd tail
        // passed through unchanged. Each round's pairings are independent, so
        // a round is a region of its own (the top of the tree has too few
        // pairs to clear the cutover and runs inline). The inline schedule
        // owns the level and moves the operands into the combiner; a forked
        // shard clones its borrowed slice of it first.
        let mut level = leaves;
        while level.len() > 1 {
            let region = self.parallel_region(level.len() / 2, &u_clo);
            level = self.map_region(region.as_ref(), Cow::Owned(level), 2, |ev, shard, _| {
                let mut next = Vec::with_capacity(shard.len().div_ceil(2));
                let mut it = shard.into_owned().into_iter();
                while let Some((a, sa)) = it.next() {
                    next.push(match it.next() {
                        Some((b, sbn)) => {
                            ev.stats.combiner_calls += 1;
                            let subtrees = cost::INDEPENDENT.span_over([sa, sbn]);
                            let (c, sc) =
                                ev.apply_bounded(&u_clo, Value::pair(a, b), &bound_val)?;
                            (c, cost::IN_SEQUENCE.span_over([subtrees, sc]))
                        }
                        None => (a, sa),
                    });
                }
                Ok(next)
            })?;
        }
        let (result, tree_span) = level.pop().expect("non-empty set has a combining result");
        obj(result, cost::RECURSION.span_over([prefix_span, tree_span]))
    }

    /// Canonical union of the per-element result sets of one `ext`. With an
    /// active region, the shard list is halved by parallel pairwise-merge
    /// rounds ([`RegionPermit::combine_round`]) while it is wide and heavy
    /// enough to pay for forking; the remaining tail — and the whole merge on
    /// the inline schedule — goes through [`VSet::union_many`], whose
    /// flat-shape fast path canonicalizes fixed-width word rows instead of
    /// boxed values. Every path yields exactly the set the old sequential
    /// `VSet::from_iter` produced (canonical representations are unique), and
    /// like the sort it replaces the merge itself charges no work — the
    /// caller charges the result cardinality once.
    fn merge_ext_parts(
        &mut self,
        region: Option<&RegionPermit>,
        mut parts: Vec<VSet>,
    ) -> EvalResult<VSet> {
        if let Some(region) = region {
            parts.retain(|s| !s.is_empty());
            while parts.len() > 2
                && parts.iter().map(VSet::len).sum::<usize>() >= PAR_MERGE_MIN_ROWS
            {
                // Poll cancellation/limits between log-depth merge levels.
                self.add_work(0)?;
                parts = region
                    .combine_round(parts, |a, b| a.union(b))
                    .map_err(flatten_merge_panic)?;
            }
        }
        Ok(VSet::union_many(parts))
    }

    /// The kernel of the site `clo` was written at, with the words of the
    /// values it captures loaded from the closure's environment — if the
    /// survey compiled one that `fits` the rows at hand and that those values
    /// encode for.
    fn site_kernel(&self, clo: &Closure, fits: impl Fn(&RowKernel) -> bool) -> Option<SiteKernel> {
        if !self.config.kernels {
            return None;
        }
        self.sites.kernels(&clo.body).iter().find_map(|kernel| {
            if !fits(kernel) {
                return None;
            }
            let mut captures = Vec::new();
            for (up, shape) in kernel.captures() {
                match clo.env.get(up)? {
                    RtVal::Obj(value) if shape.encode_into(value, &mut captures) => {}
                    _ => return None,
                }
            }
            let kernel = kernel.clone();
            Some(SiteKernel { kernel, captures })
        })
    }

    /// The kernel-path element map of `ext`: run the compiled row kernel over
    /// every columnar row of `set`, charging block by block what the kernel
    /// folded from [`crate::cost`] for those rows (one `add_work` per block
    /// keeps the limit and the cancel poll). Each shard — the whole set on the
    /// inline schedule — canonicalizes its emitted rows into one result part
    /// with the shard's maximum element span, the same `(value, span)`
    /// currency the interpreted map produces per element.
    fn ext_rows_kernel(
        &mut self,
        region: Option<&RegionPermit>,
        site: &SiteKernel,
        set: &VSet,
    ) -> EvalResult<Vec<(Value, u64)>> {
        let (_, width, words) = set
            .columnar_rows()
            .expect("the kernel path is only taken for columnar sets");
        let parts = self.map_region(region, Cow::Borrowed(words), width, |ev, shard, _| {
            let (part, span) = site.kernel.run_rows(&shard, &site.captures, |rows, work| {
                ev.stats.ext_calls += rows;
                ev.add_work(work)
            })?;
            Ok(vec![(Value::Set(part), span)])
        })?;
        crate::kernel::note_hits(1, set.len());
        Ok(parts)
    }

    /// The join-site element map (see [`crate::kernel`]) of `ext(\a. ext(\b.
    /// body, S), R)` over `outer` (`R`) in the outer `ext`'s regions, each
    /// error located where the interpreter would raise it — or `None` if
    /// `clo` is no such `λ`, a side is boxed, or no keyed inner kernel fits
    /// (the first row of `outer` stands in for `a` to encode captures).
    fn ext_join(
        &mut self,
        region: Option<&RegionPermit>,
        clo: &Closure,
        outer: &VSet,
    ) -> Option<EvalResult<Vec<(Value, u64)>>> {
        let ext: &Expr = &clo.body;
        let ExprKind::Ext(function, set) = &ext.kind else {
            return None;
        };
        let ExprKind::Lam(_, _, body) = &function.kind else {
            return None;
        };
        let (row, width, rows) = outer.columnar_rows()?;
        let env = clo.env.bind(RtVal::Obj(row.decode(&rows[..width])));
        let inner = match &set.kind {
            ExprKind::Var(x) if x.slot != Slot::Bound(0) => match self.lookup(x, &env).ok()? {
                RtVal::Obj(Value::Set(inner)) => inner,
                _ => return None,
            },
            ExprKind::Const(Value::Set(inner)) => inner.clone(),
            _ => return None,
        };
        let (shape, _, inner_rows) = inner.columnar_rows()?;
        let fits = |k: &RowKernel| k.keyed() && k.input_shape() == shape;
        let body = body.clone();
        let site = self.site_kernel(&Closure { body, env }, fits)?;
        let located = |nodes: &[&Expr], e: EvalError| {
            (nodes.iter()).fold(e, |e, node| e.with_span_if_missing(node.span))
        };
        // The outer row is the inner `λ`'s capture 0, if its body reads it.
        let (kernel, slot) = (&site.kernel, site.kernel.capture_slot(0));
        let out_width = kernel.output_shape().width();
        let parts = self.map_region(region, Cow::Borrowed(rows), width, |ev, shard, _| {
            let (mut scratch, mut out, mut max_span) = (kernel.scratch(&site.captures), vec![], 0);
            for row in shard.chunks_exact(width) {
                // Replayed by hand from `apply_obj` and `eval_kind`: the
                // application, a node each for the inner `ext`, its `λ` and
                // its set. The `Ext` arm's tail is `ext_result`, shared.
                ev.stats.ext_calls += 1;
                ev.add_work(cost::APPLY.work)?;
                for nodes in [&[ext][..], &[&**function, ext], &[&**set, ext]] {
                    ev.add_work(cost::NODE).map_err(|e| located(nodes, e))?;
                }
                if let Some(slot) = slot.clone() {
                    scratch.words[slot].copy_from_slice(row);
                }
                let start = out.len();
                let charge = |rows, work| {
                    ev.stats.ext_calls += rows;
                    ev.add_work(work)
                };
                let probed = kernel.probe(inner_rows, &mut scratch, &mut out, charge);
                let span = probed.map_err(|e| located(&[ext], e))?;
                let len = canonical_tail(&mut out, start, out_width);
                let span = ev.ext_result(len, [cost::LEAF.span, cost::LEAF.span, span]);
                let span = span.map_err(|e| located(&[ext], e))?;
                max_span = cost::INDEPENDENT.join(max_span, cost::APPLY.span_over([span]));
            }
            let part = VSet::from_raw_rows(kernel.output_shape().clone(), out);
            Ok(vec![(Value::Set(part), max_span)])
        });
        Some(parts.inspect(|_| crate::kernel::note_hits(outer.len(), outer.len() * inner.len())))
    }

    /// The kernel-path tree of an unbounded `dcr`/`sru` over a columnar set:
    /// the leaves are one pass of `f`'s kernel, each round one pass of `u`'s
    /// over adjacent entries — two entries of `R` words are one `(R * R)` row
    /// where they lie — with an odd tail passed through, so the tree, its
    /// `combiner_calls`, and every entry's span are the interpreter's. Regions
    /// and their shard grain are the interpreter's too; work is charged per
    /// block. A combiner of one associative word op
    /// ([`RowKernel::word_fold`]) builds no tree: the leaves fold per shard.
    /// Returns the result and the tree's span.
    fn union_recursor_kernel(
        &mut self,
        (f_clo, leaf): (&Closure, &SiteKernel),
        (u_clo, node): (&Closure, &SiteKernel),
        set: &VSet,
    ) -> EvalResult<(Value, u64)> {
        let (_, width, rows) = set
            .columnar_rows()
            .expect("the kernel path is only taken for columnar sets");
        let result = leaf.kernel.output_shape();
        let entry = result.width();
        // A combining node's span: its two subtrees', then the combiner's.
        let combined = |a, b, node| {
            let subtrees = cost::INDEPENDENT.span_over([a, b]);
            cost::IN_SEQUENCE.span_over([subtrees, node])
        };
        let fold = node.kernel.word_fold();
        let leaves = {
            let region = self.parallel_region(set.len(), f_clo);
            let rows = Cow::Borrowed(rows);
            self.map_region(region.as_ref(), rows, width, |ev, shard, _| {
                let (kernel, captures) = (&leaf.kernel, &leaf.captures);
                let charge = |_, work| ev.add_work(work);
                Ok(vec![match fold {
                    Some((op, _)) => kernel.fold_rows(&shard, captures, op, charge)?,
                    None => kernel.map_rows(&shard, captures, charge)?,
                }])
            })?
        };
        let (mut words, mut spans) = concat(leaves);
        if let Some((op, (work, node_span))) = fold {
            // Any tree's value and charges: `m − 1` one-path calls, ⌈log₂ m⌉ deep.
            let m = set.len() as u64;
            self.stats.combiner_calls += m - 1;
            self.add_work((m - 1).saturating_mul(work))?;
            if let Some((_, s)) = leaf.kernel.straight() {
                // Equally deep leaves: the first is combined in every round.
                let rounds = if m < 2 { 0 } else { cost::tree_depth(m) };
                spans = vec![(0..rounds).fold(s, |s, _| combined(s, s, node_span))];
            }
            while spans.len() > 1 {
                let half = spans.len().div_ceil(2);
                for i in 0..half {
                    let (a, b) = (spans[2 * i], spans.get(2 * i + 1));
                    spans[i] = b.map_or(a, |&b| combined(a, b, node_span));
                }
                spans.truncate(half);
            }
            let value = words.into_iter().reduce(|a, b| op.apply(a, b));
            words = vec![value.expect("a non-empty set has leaves")];
        }
        while spans.len() > 1 {
            let region = self.parallel_region(spans.len() / 2, u_clo);
            let level = Cow::Borrowed(words.as_slice());
            let halved = self.map_region(region.as_ref(), level, 2 * entry, |ev, shard, at| {
                let below = &spans[at / entry..];
                let pairs = shard.len() / (2 * entry);
                let (paired, tail) = shard.split_at(pairs * 2 * entry);
                let charge = |pairs, work| {
                    ev.stats.combiner_calls += pairs;
                    ev.add_work(work)
                };
                let (mut words, applied) = node.kernel.map_rows(paired, &node.captures, charge)?;
                let mut spans: Vec<u64> = (applied.iter().zip(below.chunks_exact(2)))
                    .map(|(&sc, sub)| combined(sub[0], sub[1], sc))
                    .collect();
                if !tail.is_empty() {
                    words.extend_from_slice(tail);
                    spans.push(below[2 * pairs]);
                }
                Ok(vec![(words, spans)])
            })?;
            (words, spans) = concat(halved);
        }
        crate::kernel::note_hits(1, set.len());
        Ok((result.decode(&words), spans[0]))
    }

    /// The one place evaluator work meets a schedule. `body` maps a shard of
    /// `items` — and the index in `items` the shard starts at — to its
    /// results; the results of all shards, concatenated in item order, are
    /// returned. Without a permit the single shard is
    /// `items` itself and `body` runs on `self` — nothing is copied, and an
    /// owned `items` reaches `body` still owned. With a permit, `items` is
    /// cut at multiples of `grain` (so a pair, or a `width`-word row, never
    /// straddles two shards), the shards run on the pool with one worker
    /// evaluator each, and the workers' statistics are absorbed in shard
    /// order — so tallies match the inline schedule exactly no matter which
    /// thread claimed which chunk.
    fn map_region<T, R>(
        &mut self,
        region: Option<&RegionPermit>,
        items: Cow<'_, [T]>,
        grain: usize,
        body: impl Fn(&mut Evaluator, Cow<'_, [T]>, usize) -> EvalResult<Vec<R>> + Sync,
    ) -> EvalResult<Vec<R>>
    where
        T: Clone + Sync,
        R: Send,
    {
        let Some(region) = region else {
            return body(self, items, 0);
        };
        let starts: Vec<usize> = (0..items.len()).step_by(grain).collect();
        let parent = self.worker();
        let shards = region
            .run(&starts, |_, shard| {
                let mut ev = parent.worker();
                // Its tally starts at 0, so a chunk reads the clock as it starts.
                if let Some(token) = &ev.cancel {
                    token.check(true)?;
                }
                let end = (shard[shard.len() - 1] + grain).min(items.len());
                let out = body(&mut ev, Cow::Borrowed(&items[shard[0]..end]), shard[0])?;
                Ok::<_, EvalError>((out, ev.stats))
            })
            .map_err(flatten_task_error)?;
        let mut out = Vec::with_capacity(shards.iter().map(|(part, _)| part.len()).sum());
        for (part, stats) in shards {
            self.absorb_stats(&stats);
            out.extend(part);
        }
        Ok(out)
    }

    /// Shared evaluation of `sri` / `esr` / `bsri`: a sequential chain of step
    /// applications, one per element.
    fn eval_insert_recursor(
        &mut self,
        env: &Env,
        e: &Expr,
        i: &Expr,
        bound: Option<&Expr>,
        arg: &Expr,
    ) -> EvalResult<(RtVal, u64)> {
        let (acc, se) = self.eval_obj(e, env)?;
        let (i_clo, si) = self.eval_clo(i, env, "insert recursor step")?;
        let (bound_val, sb) = self.eval_bound(bound, env)?;
        let mut acc = clip(acc, &bound_val)?;
        let (set, sarg) = self.eval_set(arg, env, "insert recursor argument")?;
        let prefix_span = cost::INDEPENDENT.span_over([se, si, sb, sarg]);

        let mut chain_span = 0u64;
        let n = set.len() as u64;
        // Elements are inserted from the largest to the smallest, matching the
        // reading sri(e,i)({x1,…,xn}) = i(x1, i(x2, … i(xn, e)…)); i-commutativity
        // makes the order irrelevant for well-formed programs.
        for x in set.into_vec().into_iter().rev() {
            self.stats.step_calls += 1;
            let (v, s) = self.apply_bounded(&i_clo, Value::pair(x, acc), &bound_val)?;
            acc = v;
            chain_span = cost::IN_SEQUENCE.join(chain_span, s);
        }
        self.note_rounds(n);
        obj(acc, cost::RECURSION.span_over([prefix_span, chain_span]))
    }

    /// Shared evaluation of the iterators `loop` / `log-loop` / `bloop` /
    /// `blog-loop`: apply the body `|set|` or `⌈log(|set|+1)⌉` times, sequentially.
    /// A round is a function of the body and its input: once one returns its
    /// input, the rounds left repeat its charges, which are made without
    /// running them when the work budget covers them all.
    fn eval_iterator(
        &mut self,
        env: &Env,
        f: &Expr,
        bound: Option<&Expr>,
        set: &Expr,
        init: &Expr,
        logarithmic: bool,
    ) -> EvalResult<(RtVal, u64)> {
        let (f_clo, sf) = self.eval_clo(f, env, "iterator body")?;
        let (bound_val, sb) = self.eval_bound(bound, env)?;
        let (counting_set, ss) = self.eval_set(set, env, "iterator counting set")?;
        let (acc, si) = self.eval_obj(init, env)?;
        let mut acc = clip(acc, &bound_val)?;
        let rounds = if logarithmic {
            cost::log_rounds(counting_set.len())
        } else {
            counting_set.len() as u64
        };
        let prefix_span = cost::INDEPENDENT.span_over([sf, sb, ss, si]);
        let mut chain_span = 0u64;
        for round in 1..=rounds {
            let before = self.stats;
            let (v, s) = self.apply_bounded(&f_clo, acc.clone(), &bound_val)?;
            chain_span = cost::IN_SEQUENCE.join(chain_span, s);
            if v == acc && self.repeat_round(&before, rounds - round)? {
                let rest = cost::IN_SEQUENCE.join_repeated(s, rounds - round);
                chain_span = cost::IN_SEQUENCE.join(chain_span, rest);
                break;
            }
            acc = v;
        }
        self.note_rounds(rounds);
        obj(acc, cost::RECURSION.span_over([prefix_span, chain_span]))
    }
}

/// Evaluate a closed expression with the default configuration and return both
/// the value and the cost statistics.
pub fn eval_with_stats(expr: &Expr) -> EvalResult<(Value, CostStats)> {
    let mut ev = Evaluator::default();
    let v = ev.eval_closed(expr)?;
    Ok((v, ev.stats()))
}

/// Evaluate a closed expression with the default configuration.
pub fn eval_closed(expr: &Expr) -> EvalResult<Value> {
    Evaluator::default().eval_closed(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use ncql_object::Type;

    fn atoms(v: Vec<u64>) -> Value {
        Value::atom_set(v)
    }

    fn xor_combiner() -> Expr {
        Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Bool, Type::Bool),
            Expr::ite(
                Expr::var("a"),
                Expr::ite(Expr::var("b"), Expr::bool_val(false), Expr::bool_val(true)),
                Expr::var("b"),
            ),
        )
    }

    fn parity_of(set: Expr) -> Expr {
        Expr::dcr(
            Expr::bool_val(false),
            Expr::lam("y", Type::Base, Expr::bool_val(true)),
            xor_combiner(),
            set,
        )
    }

    #[test]
    fn basic_constructs() {
        assert_eq!(eval_closed(&Expr::unit()).unwrap(), Value::Unit);
        assert_eq!(
            eval_closed(&Expr::pair(Expr::atom(1), Expr::bool_val(true))).unwrap(),
            Value::pair(Value::Atom(1), Value::Bool(true))
        );
        assert_eq!(
            eval_closed(&Expr::proj1(Expr::pair(Expr::atom(1), Expr::atom(2)))).unwrap(),
            Value::Atom(1)
        );
        assert_eq!(
            eval_closed(&Expr::ite(
                Expr::bool_val(false),
                Expr::atom(1),
                Expr::atom(2)
            ))
            .unwrap(),
            Value::Atom(2)
        );
    }

    #[test]
    fn union_and_singleton_and_empty() {
        let e = Expr::union(
            Expr::singleton(Expr::atom(2)),
            Expr::union(Expr::empty(Type::Base), Expr::singleton(Expr::atom(1))),
        );
        assert_eq!(eval_closed(&e).unwrap(), atoms(vec![1, 2]));
        assert_eq!(
            eval_closed(&Expr::is_empty(Expr::empty(Type::Base))).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn eq_and_leq() {
        let e = Expr::eq(
            Expr::constant(atoms(vec![1, 2])),
            Expr::union(
                Expr::singleton(Expr::atom(2)),
                Expr::singleton(Expr::atom(1)),
            ),
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Bool(true));
        let l = Expr::leq(Expr::atom(3), Expr::atom(5));
        assert_eq!(eval_closed(&l).unwrap(), Value::Bool(true));
        let l2 = Expr::leq(Expr::atom(7), Expr::atom(5));
        assert_eq!(eval_closed(&l2).unwrap(), Value::Bool(false));
    }

    #[test]
    fn ext_maps_and_flattens() {
        // ext(λx.{x, x+shadowed}) over {1,2,3} — here: λx.{x} ∪ {1}
        let f = Expr::lam(
            "x",
            Type::Base,
            Expr::union(
                Expr::singleton(Expr::var("x")),
                Expr::singleton(Expr::atom(1)),
            ),
        );
        let e = Expr::ext(f, Expr::constant(atoms(vec![1, 2, 3])));
        assert_eq!(eval_closed(&e).unwrap(), atoms(vec![1, 2, 3]));
    }

    #[test]
    fn ext_span_is_one_parallel_step() {
        // The span of ext over n elements is independent of n (plus the spans of
        // the element computations, which are constant here).
        let f = Expr::lam("x", Type::Base, Expr::singleton(Expr::var("x")));
        let small = Expr::ext(f.clone(), Expr::constant(atoms((0..4).collect())));
        let large = Expr::ext(f, Expr::constant(atoms((0..256).collect())));
        let (_, st_small) = eval_with_stats(&small).unwrap();
        let (_, st_large) = eval_with_stats(&large).unwrap();
        assert_eq!(st_small.span, st_large.span);
        assert!(st_large.work > st_small.work);
    }

    #[test]
    fn dcr_parity_small_cases() {
        assert_eq!(
            eval_closed(&parity_of(Expr::empty(Type::Base))).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_closed(&parity_of(Expr::constant(atoms(vec![5])))).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_closed(&parity_of(Expr::constant(atoms(vec![1, 2])))).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_closed(&parity_of(Expr::constant(atoms((0..7).collect())))).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_closed(&parity_of(Expr::constant(atoms((0..8).collect())))).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn dcr_span_grows_logarithmically() {
        let (_, s16) =
            eval_with_stats(&parity_of(Expr::constant(atoms((0..16).collect())))).unwrap();
        let (_, s256) =
            eval_with_stats(&parity_of(Expr::constant(atoms((0..256).collect())))).unwrap();
        // 16 -> 4 combining levels, 256 -> 8 combining levels: span roughly doubles
        // while work grows 16x.
        assert!(
            s256.span <= s16.span * 3,
            "span {} vs {}",
            s256.span,
            s16.span
        );
        assert!(s256.work >= s16.work * 8);
        assert_eq!(s16.combiner_calls, 15);
        assert_eq!(s256.combiner_calls, 255);
    }

    #[test]
    fn sri_fold_computes_and_is_sequential() {
        // sri(∅, λ(x, acc). {x} ∪ acc) is the identity on sets, with linear span.
        let ty = Type::set(Type::Base);
        let step = Expr::lam2(
            "x",
            "acc",
            Type::prod(Type::Base, ty.clone()),
            Expr::union(Expr::singleton(Expr::var("x")), Expr::var("acc")),
        );
        let make = |n: u64| {
            Expr::sri(
                Expr::empty(Type::Base),
                step.clone(),
                Expr::constant(atoms((0..n).collect())),
            )
        };
        let (v, st16) = eval_with_stats(&make(16)).unwrap();
        assert_eq!(v, atoms((0..16).collect()));
        let (_, st64) = eval_with_stats(&make(64)).unwrap();
        assert!(
            st64.span >= st16.span * 3,
            "span {} vs {}",
            st64.span,
            st16.span
        );
        assert_eq!(st16.step_calls, 16);
        assert_eq!(st64.sequential_rounds, 64);
    }

    #[test]
    fn esr_agrees_with_sri_on_sets() {
        let ty = Type::set(Type::Base);
        let step = Expr::lam2(
            "x",
            "acc",
            Type::prod(Type::Base, ty.clone()),
            Expr::union(Expr::singleton(Expr::var("x")), Expr::var("acc")),
        );
        let arg = Expr::constant(atoms(vec![3, 1, 4, 1, 5]));
        let sri = Expr::sri(Expr::empty(Type::Base), step.clone(), arg.clone());
        let esr = Expr::esr(Expr::empty(Type::Base), step, arg);
        assert_eq!(eval_closed(&sri).unwrap(), eval_closed(&esr).unwrap());
    }

    #[test]
    fn log_loop_round_count_matches_cardinality_bits() {
        // Iterate a counter: f(y) = y ∪ {card-th atom}? Simpler: f adds atom 0.
        // We only check the round count via sequential_rounds.
        let ty = Type::set(Type::Base);
        let f = Expr::lam(
            "r",
            ty.clone(),
            Expr::union(Expr::var("r"), Expr::singleton(Expr::atom(0))),
        );
        for (n, expected_rounds) in [
            (0usize, 0u64),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (255, 8),
            (256, 9),
        ] {
            let e = Expr::log_loop(
                f.clone(),
                Expr::constant(atoms((0..n as u64).collect())),
                Expr::empty(Type::Base),
            );
            let (_, st) = eval_with_stats(&e).unwrap();
            assert_eq!(st.sequential_rounds, expected_rounds, "n = {n}");
        }
    }

    #[test]
    fn loop_iterates_cardinality_times() {
        let ty = Type::set(Type::Base);
        let f = Expr::lam("r", ty.clone(), Expr::var("r"));
        let e = Expr::loop_(
            f,
            Expr::constant(atoms((0..37).collect())),
            Expr::empty(Type::Base),
        );
        let (_, st) = eval_with_stats(&e).unwrap();
        assert_eq!(st.sequential_rounds, 37);
    }

    #[test]
    fn bounded_dcr_intersects_with_bound() {
        // bdcr over {1,2,3} building singletons, bounded by {1,2}: result ⊆ bound.
        let ty = Type::set(Type::Base);
        let f = Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y")));
        let u = Expr::lam2(
            "a",
            "b",
            Type::prod(ty.clone(), ty.clone()),
            Expr::union(Expr::var("a"), Expr::var("b")),
        );
        let e = Expr::bdcr(
            Expr::empty(Type::Base),
            f,
            u,
            Expr::constant(atoms(vec![1, 2])),
            Expr::constant(atoms(vec![1, 2, 3])),
        );
        assert_eq!(eval_closed(&e).unwrap(), atoms(vec![1, 2]));
    }

    #[test]
    fn set_size_limit_aborts_blowups() {
        // powerset via dcr: {∅} for empty, {∅,{y}} for singletons, pairwise unions.
        let elem = Type::set(Type::Base);
        let powerset_ty = Type::set(elem.clone());
        let f = Expr::lam(
            "y",
            Type::Base,
            Expr::union(
                Expr::singleton(Expr::empty(Type::Base)),
                Expr::singleton(Expr::singleton(Expr::var("y"))),
            ),
        );
        let pairwise = Expr::lam2(
            "p1",
            "p2",
            Type::prod(powerset_ty.clone(), powerset_ty.clone()),
            Expr::ext(
                Expr::lam(
                    "a",
                    elem.clone(),
                    Expr::ext(
                        Expr::lam(
                            "b",
                            elem.clone(),
                            Expr::singleton(Expr::union(Expr::var("a"), Expr::var("b"))),
                        ),
                        Expr::var("p2"),
                    ),
                ),
                Expr::var("p1"),
            ),
        );
        let e = Expr::dcr(
            Expr::singleton(Expr::empty(Type::Base)),
            f,
            pairwise,
            Expr::constant(atoms((0..20).collect())),
        );
        let mut ev = Evaluator::new(EvalConfig {
            max_set_size: 1024,
            ..EvalConfig::default()
        });
        assert!(matches!(
            ev.eval_closed(&e),
            Err(EvalError::SetTooLarge { .. })
        ));
    }

    #[test]
    fn work_limit_is_enforced() {
        let e = parity_of(Expr::constant(atoms((0..100).collect())));
        let mut ev = Evaluator::new(EvalConfig {
            max_work: 50,
            ..EvalConfig::default()
        });
        assert!(matches!(
            ev.eval_closed(&e),
            Err(EvalError::WorkLimitExceeded { .. })
        ));
    }

    #[test]
    fn eval_with_bindings_resolves_free_variables() {
        let e = Expr::union(Expr::var("r"), Expr::singleton(Expr::atom(9)));
        let mut ev = Evaluator::default();
        let v = ev
            .eval_with_bindings(&e, &[("r".to_string(), atoms(vec![1, 2]))])
            .unwrap();
        assert_eq!(v, atoms(vec![1, 2, 9]));
    }

    // ----- what a name refers to -----

    #[test]
    fn the_last_binding_of_a_duplicated_name_wins() {
        let bindings = [
            ("r".to_string(), atoms(vec![1])),
            ("s".to_string(), atoms(vec![5])),
            ("r".to_string(), atoms(vec![2])),
        ];
        let e = Expr::union(Expr::var("r"), Expr::var("s"));
        let v = Evaluator::default().eval_with_bindings(&e, &bindings);
        assert_eq!(v.unwrap(), atoms(vec![2, 5]));
    }

    #[test]
    fn an_unbound_variable_in_an_untaken_arm_raises_nothing() {
        let e = Expr::ite(Expr::bool_val(true), Expr::atom(1), Expr::var("nowhere"));
        assert_eq!(eval_closed(&e).unwrap(), Value::Atom(1));
    }

    #[test]
    fn a_reached_unbound_variable_raises_at_its_own_span() {
        use crate::span::Span;
        let missing = Expr::var("nowhere").at(Span::new(22, 29));
        let e = Expr::singleton(Expr::ite(Expr::bool_val(false), Expr::atom(1), missing))
            .at(Span::new(0, 30));
        match eval_closed(&e) {
            Err(EvalError::UnboundVariable { name, span }) => {
                assert_eq!((name.as_str(), span), ("nowhere", Some(Span::new(22, 29))))
            }
            other => panic!("expected an unbound variable, got {other:?}"),
        }
    }

    #[test]
    fn a_parameter_that_shadows_a_bound_schema_name_reads_the_parameter() {
        // (\r: {atom}. r union {@9})({@3}) with `r` bound to {@1, @2}.
        let f = Expr::lam(
            "r",
            Type::set(Type::Base),
            Expr::union(Expr::var("r"), Expr::singleton(Expr::atom(9))),
        );
        let e = Expr::union(
            Expr::app(f, Expr::constant(atoms(vec![3]))),
            Expr::singleton(Expr::atom(0)),
        );
        let bindings = [("r".to_string(), atoms(vec![1, 2]))];
        let v = Evaluator::default().eval_with_bindings(&e, &bindings);
        assert_eq!(v.unwrap(), atoms(vec![0, 3, 9]));
    }

    #[test]
    fn extern_calls_evaluate() {
        let e = Expr::extern_call(
            "nat_add",
            vec![
                Expr::nat(20),
                Expr::extern_call("nat_mul", vec![Expr::nat(4), Expr::nat(5)]),
            ],
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::Nat(40));
    }

    #[test]
    fn meet_is_componentwise() {
        let a = Value::pair(atoms(vec![1, 2, 3]), atoms(vec![4, 5]));
        let b = Value::pair(atoms(vec![2, 3]), atoms(vec![5, 6]));
        assert_eq!(
            meet(&a, &b).unwrap(),
            Value::pair(atoms(vec![2, 3]), atoms(vec![5]))
        );
        assert!(meet(&Value::Bool(true), &Value::Bool(true)).is_err());
    }

    // ----- one semantics, many schedules -----

    /// An evaluator whose every region forks (cutoff 1) onto `threads` workers.
    fn forking(threads: usize) -> EvalConfig {
        EvalConfig {
            parallelism: Some(threads),
            parallel_cutoff: 1,
            ..EvalConfig::default()
        }
    }

    fn parity_n(n: u64) -> Expr {
        parity_of(Expr::constant(Value::atom_set(0..n)))
    }

    #[test]
    fn every_schedule_matches_the_inline_value_and_stats() {
        let mut cases: Vec<(String, Expr, EvalConfig)> = Vec::new();
        for n in [0u64, 1, 2, 63, 64, 257] {
            for threads in [1usize, 2, 4, 8] {
                cases.push((
                    format!("parity n={n} threads={threads}"),
                    parity_n(n),
                    forking(threads),
                ));
            }
        }
        // A 500-element `ext` whose set-valued body the kernel compiler
        // rejects, so the interpreted element map is what forks.
        let spread = Expr::lam(
            "x",
            Type::Base,
            Expr::union(
                Expr::singleton(Expr::var("x")),
                Expr::singleton(Expr::atom(100_000)),
            ),
        );
        cases.push((
            "interpreted ext n=500 threads=4".to_string(),
            Expr::ext(spread, Expr::constant(Value::atom_set(0..500))),
            forking(4),
        ));
        // A cutoff so high nothing forks: a parallel configuration *is* the
        // inline schedule then.
        cases.push((
            "parity n=100 threads=8 cutoff=u64::MAX".to_string(),
            parity_n(100),
            EvalConfig {
                parallel_cutoff: u64::MAX,
                ..forking(8)
            },
        ));
        for (name, expr, config) in cases {
            let (seq_v, seq_stats) = eval_with_stats(&expr).unwrap();
            let mut ev = Evaluator::new(config);
            assert_eq!(ev.eval_closed(&expr).unwrap(), seq_v, "value: {name}");
            assert_eq!(ev.stats(), seq_stats, "stats: {name}");
        }
    }

    /// A `bdcr` whose bound actually clips — leaves `{y}` and unions of them
    /// are cut to `{0..10}` — over an odd cardinality with every region
    /// forked, so the shared bound helper and the odd-tail carry of the
    /// combining round both run on pool workers.
    #[test]
    fn clipping_bdcr_at_odd_cardinality_matches_on_the_forked_schedule() {
        let ty = Type::set(Type::Base);
        let e = Expr::bdcr(
            Expr::empty(Type::Base),
            Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
            Expr::lam2(
                "a",
                "b",
                Type::prod(ty.clone(), ty),
                Expr::union(Expr::var("a"), Expr::var("b")),
            ),
            Expr::constant(Value::atom_set(0..10)),
            Expr::constant(Value::atom_set(0..37)),
        );
        let (seq_v, seq_stats) = eval_with_stats(&e).unwrap();
        assert_eq!(seq_v, Value::atom_set(0..10));
        assert!(
            seq_stats.max_set_size <= 10,
            "clipped at every node, never after the fact: {seq_stats:?}"
        );
        for threads in [2usize, 3, 4] {
            let mut ev = Evaluator::new(forking(threads));
            assert_eq!(ev.eval_closed(&e).unwrap(), seq_v, "threads={threads}");
            assert_eq!(ev.stats(), seq_stats, "threads={threads}");
        }
    }

    #[test]
    fn work_limit_fires_identically_across_schedules() {
        let e = parity_n(128);
        let (_, full) = eval_with_stats(&e).unwrap();
        for limit in [full.work, full.work - 1, full.work / 2, 10] {
            let mut seq = Evaluator::new(EvalConfig {
                max_work: limit,
                ..EvalConfig::default()
            });
            let mut par = Evaluator::new(EvalConfig {
                max_work: limit,
                ..forking(4)
            });
            match (seq.eval_closed(&e), par.eval_closed(&e)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "limit={limit}"),
                (
                    Err(EvalError::WorkLimitExceeded { limit: a, .. }),
                    Err(EvalError::WorkLimitExceeded { limit: b, .. }),
                ) => assert_eq!(a, b, "limit={limit}"),
                (s, p) => panic!("schedules disagree at limit {limit}: seq={s:?} par={p:?}"),
            }
        }
    }

    /// The panic-propagation contract at the language level: an extern that
    /// panics inside one shard must surface as `EvalError::WorkerPanicked` —
    /// not abort the process — and the payload message must survive.
    #[test]
    fn panicking_extern_surfaces_as_eval_error() {
        let mut registry = ExternRegistry::standard();
        registry.register("explode", vec![Type::Base], Type::Base, |args| {
            if args.first().and_then(Value::as_atom) == Some(13) {
                panic!("extern exploded on atom 13");
            }
            Ok(args[0].clone())
        });
        let f = Expr::lam(
            "x",
            Type::Base,
            Expr::singleton(Expr::extern_call("explode", vec![Expr::var("x")])),
        );
        let e = Expr::ext(f, Expr::constant(Value::atom_set(0..64)));
        let mut ev = Evaluator::new(EvalConfig {
            registry,
            ..forking(4)
        });
        match ev.eval_closed(&e) {
            Err(EvalError::WorkerPanicked { message: msg, .. }) => {
                assert!(msg.contains("extern exploded on atom 13"), "got: {msg}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The evaluator is still usable after the caught panic.
        assert_eq!(ev.eval_closed(&parity_n(8)).unwrap(), Value::Bool(false));
    }

    #[test]
    fn one_pool_persists_across_evaluations() {
        let mut ev = Evaluator::new(forking(4));
        assert!(
            ev.pool().is_none(),
            "the pool is created lazily, not at construction"
        );
        ev.eval_closed(&parity_n(64)).unwrap();
        let first = ev
            .pool()
            .cloned()
            .expect("first evaluation creates the pool");
        assert_eq!(first.threads(), 4);
        ev.eval_closed(&parity_n(130)).unwrap();
        let second = ev.pool().cloned().expect("pool survives");
        assert!(
            Arc::ptr_eq(&first, &second),
            "evaluations share one persistent pool instead of re-creating it"
        );
    }

    #[test]
    fn pool_threads_knob_oversubscribes_the_worker_set() {
        // The pool may be wider than the parallelism knob; results and stats
        // must not notice.
        let e = parity_n(130);
        let (seq_v, seq_stats) = eval_with_stats(&e).unwrap();
        let mut ev = Evaluator::new(EvalConfig {
            pool_threads: Some(8),
            ..forking(2)
        });
        assert_eq!(ev.eval_closed(&e).unwrap(), seq_v);
        assert_eq!(ev.stats(), seq_stats);
        assert_eq!(ev.pool().unwrap().threads(), 8);
    }

    #[test]
    fn degenerate_parallelism_normalizes_to_none() {
        assert_eq!(normalize_parallelism(None), None);
        assert_eq!(normalize_parallelism(Some(0)), None);
        assert_eq!(normalize_parallelism(Some(1)), None);
        assert_eq!(normalize_parallelism(Some(2)), Some(2));
        assert_eq!(normalize_parallelism(Some(64)), Some(64));
        // A degenerate configuration never constructs a pool.
        let mut ev = Evaluator::new(EvalConfig {
            pool_threads: Some(8),
            ..forking(1)
        });
        assert_eq!(ev.config().effective_pool_threads(), 0);
        ev.eval_closed(&parity_n(64)).unwrap();
        assert!(ev.pool().is_none());
    }

    #[test]
    fn env_knob_parses() {
        // Not set in the test environment by default; just exercise the parser
        // logic via the public API shape.
        let _ = parallelism_from_env();
    }

    /// Evaluate a parity of 2 000 atoms — several multiples of `CLOCK_EVERY`
    /// units of work — under `token`.
    fn run_under(token: &CancelToken) -> (EvalResult<Value>, CostStats) {
        let mut ev = Evaluator::default();
        ev.attach_cancel(token.clone());
        let result = ev.eval_closed(&parity_n(2_000));
        (result, ev.stats())
    }

    #[test]
    fn an_expired_deadline_cancels_its_token_with_its_reason() {
        let token = CancelToken::with_deadline(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!token.is_cancelled(), "only an evaluation reads the clock");
        let (result, _) = run_under(&token);
        let reason = "deadline of 10ms exceeded";
        assert_eq!(result, Err(EvalError::cancelled(reason)));
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), reason);
    }

    #[test]
    fn a_deadline_its_evaluation_met_never_fires() {
        let token = CancelToken::with_deadline(Duration::from_secs(60));
        let (result, stats) = run_under(&token);
        assert!(!token.is_cancelled());
        assert_eq!(result, Ok(Value::Bool(false)));
        assert!(
            stats.work > 2 * CLOCK_EVERY,
            "the clock was read: {stats:?}"
        );
    }

    #[test]
    fn deadlines_expire_independently() {
        let fast = CancelToken::with_deadline(Duration::from_millis(5));
        let slow = CancelToken::with_deadline(Duration::from_secs(60));
        let never = CancelToken::with_deadline(Duration::MAX);
        std::thread::sleep(Duration::from_millis(10));
        assert!(run_under(&fast).0.is_err());
        assert!(run_under(&slow).0.is_ok());
        assert!(run_under(&never).0.is_ok());
        assert!(fast.is_cancelled());
        assert!(!slow.is_cancelled() && !never.is_cancelled());
    }
}
