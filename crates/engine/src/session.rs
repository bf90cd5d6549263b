//! Sessions: configuration, the prepared-statement cache, and execution.

use crate::cache::SharedLru;
use crate::error::Error;
use crate::prepared::{Backend, Outcome, PreparedPlan, PreparedQuery};
use ncql_core::eval::{
    env_number, env_switch, normalize_parallelism, CancelToken, EvalConfig, Evaluator,
};
use ncql_core::expr::Expr;
use ncql_core::externs::ExternRegistry;
use ncql_core::kernel::Sites;
use ncql_core::rewrite::{optimize_analyzed, OptLevel};
use ncql_core::typecheck::{infer, value_type, TypeEnv};
use ncql_core::{analysis, analyze_query, EvalError, Finding, Lint};
use ncql_object::{ObjectError, Type, Value};
use ncql_pram::WorkStealingPool;
use std::sync::{Arc, OnceLock};

/// Default number of prepared plans a session retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// What a session does with deny-level lint findings at prepare time.
///
/// The prepare-time analysis always runs and its findings are always
/// available through [`PreparedQuery::analysis`]; the policy only decides
/// whether deny-level findings *reject* the query before any evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LintPolicy {
    /// Report findings on the prepared plan but never reject (the default).
    #[default]
    Warn,
    /// Reject a query whose analysis produced a deny-level finding:
    /// `prepare` fails with [`Error::Lint`] carrying the finding's span, and
    /// the query never reaches the evaluator.
    Deny,
}

/// Cache key of a prepared plan: the exact query text, the schema it was
/// checked under, the registry fingerprint the front end depended on, and the
/// optimizer configuration the plan was rewritten under. The optimizer level
/// is part of the key because two sessions differing only in [`OptLevel`]
/// produce *different* plans for the same text — sharing one cache entry
/// would serve a rewritten plan to a session that asked for the raw AST (or
/// vice versa).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    text: String,
    schema: Vec<(String, String)>,
    registry_fingerprint: u64,
    opt_level: OptLevel,
}

impl PlanKey {
    fn new(
        text: &str,
        schema: &[(String, Type)],
        registry_fingerprint: u64,
        opt_level: OptLevel,
    ) -> PlanKey {
        PlanKey {
            text: text.to_string(),
            schema: schema
                .iter()
                .map(|(name, ty)| (name.clone(), ty.to_string()))
                .collect(),
            registry_fingerprint,
            opt_level,
        }
    }
}

/// Per-execution overrides for [`Session::execute_with_options`]: a
/// cooperative cancellation token and *tightened* resource limits for one
/// request, without touching the session's own configuration.
///
/// This is the isolation surface a serving front end needs: the session is
/// shared by every in-flight request (one plan cache, one work-stealing
/// pool), while each request runs under its own budget — a [`CancelToken`]
/// carrying the request's deadline, a per-request work cap, a per-request set
/// cap. The limits only ever *lower* the session's: a request asking for more
/// than the session allows still runs under the session limit, so a shared
/// deployment cannot be talked out of its guardrails.
///
/// ```
/// use ncql_engine::{CancelToken, ExecOptions, Session};
///
/// let session = Session::new();
/// let query = session.prepare("nat_add(20, 22)")?;
/// let token = CancelToken::new();
/// let opts = ExecOptions::new().cancel(token.clone()).max_work(10_000);
/// let outcome = session.execute_with_options(&query, &[], &opts)?;
/// assert_eq!(outcome.value.to_string(), "42");
/// # Ok::<(), ncql_engine::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Cooperative cancellation flag for this execution, polled at every work
    /// charge, and its deadline, if it carries one (see [`CancelToken`]).
    /// Cancelling aborts the evaluation with
    /// [`EvalError::Cancelled`](ncql_core::EvalError::Cancelled).
    pub cancel: Option<CancelToken>,
    /// Work budget for this execution; the effective limit is the *minimum*
    /// of this and the session's `max_work`.
    pub max_work: Option<u64>,
    /// Intermediate-set cardinality cap for this execution; the effective
    /// limit is the *minimum* of this and the session's `max_set_size`.
    pub max_set_size: Option<usize>,
}

impl ExecOptions {
    /// No overrides: equivalent to [`Session::execute_with_bindings`].
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Attach a cancellation token for this execution.
    pub fn cancel(mut self, token: CancelToken) -> ExecOptions {
        self.cancel = Some(token);
        self
    }

    /// Tighten the work budget for this execution.
    pub fn max_work(mut self, limit: u64) -> ExecOptions {
        self.max_work = Some(limit);
        self
    }

    /// Tighten the intermediate-set cardinality cap for this execution.
    pub fn max_set_size(mut self, limit: usize) -> ExecOptions {
        self.max_set_size = Some(limit);
        self
    }
}

/// Counters describing the prepared-statement cache's behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// `prepare` calls answered from the cache (front end skipped).
    pub hits: u64,
    /// `prepare` calls that ran the full front end.
    pub misses: u64,
    /// Plans evicted by the LRU policy.
    pub evictions: u64,
    /// Plans currently cached.
    pub len: usize,
    /// Maximum number of cached plans.
    pub capacity: usize,
}

/// Builds a [`Session`]: owns the external-function registry Σ, the resource
/// limits, the `parallelism`/`parallel_cutoff` knobs (i.e. the backend
/// choice), and the prepared-statement cache capacity.
///
/// ```
/// use ncql_engine::SessionBuilder;
///
/// let session = SessionBuilder::new()
///     .parallelism(Some(4))
///     .max_set_size(1 << 20)
///     .build();
/// assert_eq!(session.backend().to_string(), "parallel (4 threads)");
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: EvalConfig,
    cache_capacity: usize,
    lint_policy: LintPolicy,
    opt_level: OptLevel,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder::new()
    }
}

impl SessionBuilder {
    /// A builder with the default configuration: sequential backend, the
    /// standard registry Σ, the default resource limits and a
    /// [`DEFAULT_CACHE_CAPACITY`]-entry plan cache.
    pub fn new() -> SessionBuilder {
        SessionBuilder {
            config: EvalConfig::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            lint_policy: LintPolicy::default(),
            opt_level: OptLevel::default(),
        }
    }

    /// A builder configured from the environment, so deployments can select
    /// the backend without code changes: `NCQL_PARALLELISM` sets the worker
    /// thread count (`0`/`1` mean sequential), `NCQL_PARALLEL_CUTOFF` the
    /// fork threshold, and `NCQL_POOL_THREADS` the worker-thread count of the
    /// session's persistent work-stealing pool when it should differ from
    /// `NCQL_PARALLELISM` (e.g. an oversubscribed pool on a small machine).
    /// `NCQL_LINT=deny` (or `warn`) sets the [`LintPolicy`], and `NCQL_OPT=0`
    /// (or `none`/`off`) disables the algebraic optimizer
    /// (`1`/`default`/`on` restore it). `NCQL_KERNELS=0` (or `false`/`off`)
    /// disables compiled row kernels for `ext` and `dcr` over columnar sets, and
    /// `1`/`true`/`on` re-enables them. Unset, empty or unparseable variables
    /// leave the defaults untouched.
    pub fn from_env() -> SessionBuilder {
        let mut builder = SessionBuilder::new();
        if let Some(n) = env_number("NCQL_PARALLELISM") {
            builder.config.parallelism = normalize_parallelism(Some(n));
        }
        if let Some(cutoff) = env_number("NCQL_PARALLEL_CUTOFF") {
            builder.config.parallel_cutoff = cutoff;
        }
        if let Some(n) = env_number("NCQL_POOL_THREADS") {
            builder.config.pool_threads = normalize_parallelism(Some(n));
        }
        if let Ok(raw) = std::env::var("NCQL_LINT") {
            match raw.trim() {
                "deny" => builder.lint_policy = LintPolicy::Deny,
                "warn" => builder.lint_policy = LintPolicy::Warn,
                _ => {}
            }
        }
        match env_switch("NCQL_OPT", "none", "default") {
            Some(false) => builder.opt_level = OptLevel::None,
            Some(true) => builder.opt_level = OptLevel::Default,
            None => {}
        }
        if let Some(on) = env_switch("NCQL_KERNELS", "false", "true") {
            builder.config.kernels = on;
        }
        builder
    }

    /// Replace the whole evaluation configuration at once (the individual
    /// setters below tweak single fields). The parallelism and pool-size
    /// knobs are normalized: `Some(0 | 1)` is stored as `None`.
    pub fn config(mut self, config: EvalConfig) -> SessionBuilder {
        self.config = EvalConfig {
            parallelism: normalize_parallelism(config.parallelism),
            pool_threads: normalize_parallelism(config.pool_threads),
            ..config
        };
        self
    }

    /// Select the backend: `None`, `Some(0)` and `Some(1)` (all normalized to
    /// `None`) run the sequential reference evaluator; `Some(n)` with `n ≥ 2`
    /// runs the parallel backend with `n` worker threads.
    pub fn parallelism(mut self, parallelism: Option<usize>) -> SessionBuilder {
        self.config.parallelism = normalize_parallelism(parallelism);
        self
    }

    /// Cost-model fork threshold of the parallel backend: a region is forked
    /// only when its estimated work — applications × the closure body's
    /// static work bound (`1 + body size` when the analyser pins none, see
    /// [`EvalConfig::parallel_cutoff`]) — reaches this value.
    pub fn parallel_cutoff(mut self, cutoff: u64) -> SessionBuilder {
        self.config.parallel_cutoff = cutoff;
        self
    }

    /// Worker-thread count of the session's persistent work-stealing pool,
    /// when it should differ from [`SessionBuilder::parallelism`] (for
    /// example an oversubscribed pool wider than the per-region fan-out).
    /// Normalized exactly like `parallelism` — `Some(0 | 1)` is stored as
    /// `None`, meaning "size the pool by the parallelism knob" — so a
    /// sequential session never spawns a pool regardless of this value.
    pub fn pool_threads(mut self, threads: Option<usize>) -> SessionBuilder {
        self.config.pool_threads = normalize_parallelism(threads);
        self
    }

    /// Maximum allowed cardinality of any intermediate set.
    pub fn max_set_size(mut self, limit: usize) -> SessionBuilder {
        self.config.max_set_size = limit;
        self
    }

    /// Maximum total work before evaluation aborts.
    pub fn max_work(mut self, limit: u64) -> SessionBuilder {
        self.config.max_work = limit;
        self
    }

    /// The external-function registry Σ queries are checked and evaluated
    /// against.
    pub fn registry(mut self, registry: ExternRegistry) -> SessionBuilder {
        self.config.registry = registry;
        self
    }

    /// Enable or disable compiled row kernels for `ext` and scalar
    /// `dcr`/`sru` over columnar sets (on by default; the `NCQL_KERNELS=0` environment kill switch read by
    /// [`SessionBuilder::from_env`] sets the same knob). Purely an execution
    /// strategy: values and cost statistics are bit-identical either way.
    pub fn row_kernels(mut self, enabled: bool) -> SessionBuilder {
        self.config.kernels = enabled;
        self
    }

    /// Capacity of the prepared-statement cache. `0` disables caching (every
    /// `prepare` runs the full front end — the "cold" mode).
    pub fn cache_capacity(mut self, capacity: usize) -> SessionBuilder {
        self.cache_capacity = capacity;
        self
    }

    /// What to do with deny-level lint findings at prepare time: report them
    /// on the plan ([`LintPolicy::Warn`], the default) or reject the query
    /// before evaluation ([`LintPolicy::Deny`]).
    pub fn lint_policy(mut self, policy: LintPolicy) -> SessionBuilder {
        self.lint_policy = policy;
        self
    }

    /// How hard `prepare` tries to optimize a plan: [`OptLevel::Default`]
    /// runs the cost-gated algebraic rewriter of `ncql_core::rewrite` between
    /// typecheck and the cache insert; [`OptLevel::None`] keeps the raw typed
    /// AST (useful for debugging, differential testing, and pinning plans
    /// whose diagnostics must match the source text node for node).
    pub fn opt_level(mut self, level: OptLevel) -> SessionBuilder {
        self.opt_level = level;
        self
    }

    /// Build the session.
    pub fn build(self) -> Session {
        Session {
            config: self.config,
            lint_policy: self.lint_policy,
            opt_level: self.opt_level,
            registry_fingerprint: OnceLock::new(),
            pool: OnceLock::new(),
            cache: SharedLru::new(self.cache_capacity),
        }
    }
}

/// The single supported entry point for running NC queries.
///
/// A session owns one [`EvalConfig`] (registry Σ, resource limits, backend
/// choice) and a prepared-statement cache. [`Session::prepare`] runs the front
/// end — parse → typecheck → recursion-depth analysis — exactly once per
/// distinct (query text, schema, registry fingerprint) and caches the plan, so
/// [`Session::execute`] and friends only pay the Suciu–Tannen evaluation cost.
///
/// Sessions are `Sync`: one session can serve `prepare`/`execute` calls from
/// many threads (the cache is internally locked; executions are independent).
///
/// ```
/// use ncql_engine::Session;
///
/// let session = Session::new();
/// let query = session.prepare("nat_add(20, 22)")?;
/// assert_eq!(query.ty().to_string(), "nat");
/// let outcome = session.execute(&query)?;
/// assert_eq!(outcome.value.to_string(), "42");
/// # Ok::<(), ncql_engine::Error>(())
/// ```
#[derive(Debug)]
pub struct Session {
    config: EvalConfig,
    lint_policy: LintPolicy,
    opt_level: OptLevel,
    /// Computed lazily on the first `prepare`: pure-evaluation sessions (the
    /// corpus shim's trusted-AST path) never pay the hash.
    registry_fingerprint: OnceLock<u64>,
    /// The session's persistent work-stealing pool, shared by every parallel
    /// execution it dispatches (one worker set per session, not per query).
    /// Created lazily on the first parallel execution — and the pool itself
    /// spawns its workers lazily on the first forked region — so a
    /// sequential session never creates a worker thread at all.
    pool: OnceLock<Arc<WorkStealingPool>>,
    /// The prepared-plan cache: one exact-LRU map behind one mutex, held for
    /// a probe or an insert and never across a preparation.
    cache: SharedLru<PlanKey, Arc<PreparedPlan>>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session with the default configuration (sequential backend, standard
    /// registry Σ).
    pub fn new() -> Session {
        SessionBuilder::new().build()
    }

    /// Start building a customized session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The evaluation configuration this session runs every query under.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// The session's lint policy: what deny-level findings do at prepare.
    pub fn lint_policy(&self) -> LintPolicy {
        self.lint_policy
    }

    /// The session's optimizer level: whether `prepare` runs the cost-gated
    /// algebraic rewriter on each plan.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// The backend this session dispatches to.
    pub fn backend(&self) -> Backend {
        match normalize_parallelism(self.config.parallelism) {
            Some(threads) => Backend::Parallel { threads },
            None => Backend::Sequential,
        }
    }

    /// The fingerprint of the session's registry Σ (part of every cache key).
    pub fn registry_fingerprint(&self) -> u64 {
        *self
            .registry_fingerprint
            .get_or_init(|| self.config.registry.fingerprint())
    }

    /// Replace the registry Σ. Plans prepared under the old registry are keyed
    /// by its fingerprint and therefore invisible afterwards: the next
    /// `prepare` of the same text re-runs the front end against the new Σ.
    pub fn set_registry(&mut self, registry: ExternRegistry) {
        self.registry_fingerprint = OnceLock::new();
        self.config.registry = registry;
    }

    /// Counters describing the prepared-statement cache.
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.cache.metrics()
    }

    /// Prepare a closed query from its surface text: parse, type-check against
    /// the session's registry, analyse recursion depth, and pretty-print the
    /// normal form — once. Repeated calls with the same text return a handle
    /// to the *same* cached plan ([`PreparedQuery::ptr_eq`]).
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, Error> {
        self.prepare_with_schema(text, &[])
    }

    /// Prepare a query with free variables, declared by `schema` as
    /// name-to-type bindings. Execution must later supply a value for each
    /// declared name ([`Session::execute_with_bindings`]).
    pub fn prepare_with_schema(
        &self,
        text: &str,
        schema: &[(String, Type)],
    ) -> Result<PreparedQuery, Error> {
        let key = PlanKey::new(text, schema, self.registry_fingerprint(), self.opt_level);
        if let Some(plan) = self.cache.get(&key) {
            // The findings were computed with the plan and live on it, so a
            // deny policy also rejects cache hits — the cache amortizes the
            // front end, never the policy decision.
            self.enforce_lint_policy(&plan)?;
            return Ok(PreparedQuery { plan });
        }
        let expr = ncql_surface::parse(text)?;
        let plan = Arc::new(self.analyze(Some(text.to_string()), expr, schema)?);
        // Double-checked insert: no lock is held across the front end, so two
        // threads can race to first-prepare the same text. Whoever inserts
        // first wins and the loser adopts the winner's plan, keeping the
        // same-`Arc` contract for every handle ever returned (both front-end
        // runs are counted as misses).
        let plan = self.cache.insert_if_absent(key, plan);
        self.enforce_lint_policy(&plan)?;
        Ok(PreparedQuery { plan })
    }

    /// Prepare a closed query from a pre-built [`Expr`] (the Rust builder
    /// API). The full front end except parsing runs — typecheck, analysis,
    /// normal form — but the result is *not* cached: builder-API expressions
    /// have no canonical text to key by, and the caller already holds the
    /// amortization handle (the returned [`PreparedQuery`]).
    pub fn prepare_expr(&self, expr: Expr) -> Result<PreparedQuery, Error> {
        self.prepare_expr_with_schema(expr, &[])
    }

    /// [`Session::prepare_expr`] for an open expression with a declared
    /// schema.
    pub fn prepare_expr_with_schema(
        &self,
        expr: Expr,
        schema: &[(String, Type)],
    ) -> Result<PreparedQuery, Error> {
        let plan = Arc::new(self.analyze(None, expr, schema)?);
        self.enforce_lint_policy(&plan)?;
        Ok(PreparedQuery { plan })
    }

    /// The front end minus parsing: typecheck against the session registry
    /// under the declared schema, the cost-gated algebraic rewriter (at
    /// [`OptLevel::Default`]), recursion-depth analysis, static cost/lint
    /// analysis, normal form.
    ///
    /// Provenance of the stored analysis is deliberately split. The *lint
    /// findings* come from the raw expression, so their spans and messages
    /// describe the source text the user wrote (an unused binding the
    /// optimizer folds away is still the user's unused binding, and a rewrite
    /// can never introduce a syntactic finding the user cannot see). The
    /// *cost bounds* — and the doomed-work check below — come from the
    /// rewritten plan, because that is the plan the session executes:
    /// [`PreparedQuery::analysis`] must bound what `execute` will actually
    /// charge, and a query the optimizer made feasible must not be rejected
    /// for the raw plan's floor.
    fn analyze(
        &self,
        source: Option<String>,
        expr: Expr,
        schema: &[(String, Type)],
    ) -> Result<PreparedPlan, Error> {
        let mut env = TypeEnv::new();
        for (name, ty) in schema {
            env = env.extend(name.clone(), ty.clone());
        }
        let ty = infer(&env, &self.config.registry, &expr)?;
        let raw_analysis = analyze_query(&expr, schema, &self.config.registry);
        let normal_form = ncql_surface::print_expr(&expr);
        // Like the findings, the §3 recursion depth and ACᵏ level classify
        // the query the user wrote — folding a closed `dcr` to a constant
        // does not change which uniform circuit family the query names.
        let depth = analysis::recursion_depth(&expr);
        let ac_level = analysis::ac_level(&expr);
        let (expr, mut query_analysis, rewrites, cost_before) = match self.opt_level {
            OptLevel::None => (expr, raw_analysis, Vec::new(), None),
            OptLevel::Default => {
                // Keep the raw expression's findings: syntactic lints must
                // describe the source text, not the rewritten plan.
                let raw_findings = raw_analysis.findings.clone();
                let outcome = optimize_analyzed(&expr, schema, &self.config, raw_analysis);
                let mut stored = outcome.analysis;
                let cost_before = (!outcome.fired.is_empty()).then_some(outcome.cost_before);
                stored.findings = raw_findings;
                (outcome.expr, stored, outcome.fired, cost_before)
            }
        };
        // The doomed-query check needs the session's work limit, which the
        // core analyser does not know: a work *floor* above `max_work` means
        // every evaluation is guaranteed to abort with `WorkLimitExceeded`,
        // however the schema relations are bound (the floor is the
        // all-cardinalities-zero minimum). It runs on the rewritten plan's
        // floor — the cost the session will actually pay.
        let floor = query_analysis.cost.work_floor;
        if floor > self.config.max_work {
            query_analysis.findings.push(Finding {
                lint: Lint::DoomedWorkBound,
                severity: Lint::DoomedWorkBound.default_severity(),
                message: format!(
                    "query needs at least {floor} work but the session limit is {}; \
                     evaluation is guaranteed to exceed the work limit",
                    self.config.max_work
                ),
                span: expr.span,
            });
        }
        // The kernel compiler's one pass over the *executing* plan: every
        // execution runs on these kernels, so a site reported compiled here
        // is exactly a site the evaluator runs through row kernels whenever
        // its argument set is columnar and kernels are on.
        let sites = Arc::new(Sites::of_plan(&expr, &self.config.registry));
        Ok(PreparedPlan {
            source,
            ty,
            schema: schema.to_vec(),
            depth,
            ac_level,
            optimized_form: ncql_surface::print_expr(&expr),
            normal_form,
            analysis: query_analysis,
            opt_level: self.opt_level,
            rewrites,
            cost_before,
            sites,
            expr,
        })
    }

    /// Reject the plan when the session's policy is deny and the analysis
    /// produced a deny-level finding. Runs on every prepare path, cache hits
    /// included.
    fn enforce_lint_policy(&self, plan: &PreparedPlan) -> Result<(), Error> {
        if self.lint_policy == LintPolicy::Deny {
            if let Some(finding) = plan.analysis.deny_findings().next() {
                return Err(Error::Lint {
                    message: format!("{}: {}", finding.lint.name(), finding.message),
                    span: finding.span,
                });
            }
        }
        Ok(())
    }

    /// Execute a prepared closed query on the session's backend, paying only
    /// evaluation cost.
    pub fn execute(&self, query: &PreparedQuery) -> Result<Outcome, Error> {
        self.execute_with_bindings(query, &[])
    }

    /// Execute a prepared query with its schema's free variables bound to the
    /// given values.
    ///
    /// The bindings are validated against the schema declared at preparation
    /// time before evaluation starts: a missing binding, a duplicated name,
    /// or a value whose type does not match the declaration is rejected as
    /// [`Error::Object`] — the checked pipeline never hands an ill-typed
    /// value to the evaluator. Bindings for names the schema does not declare
    /// are ignored.
    pub fn execute_with_bindings(
        &self,
        query: &PreparedQuery,
        bindings: &[(String, Value)],
    ) -> Result<Outcome, Error> {
        self.execute_with_options(query, bindings, &ExecOptions::default())
    }

    /// [`Session::execute_with_bindings`] with per-execution overrides: a
    /// cancellation token and/or tightened resource limits for this one
    /// request (see [`ExecOptions`]). The serving front end routes every
    /// request through here — a token made by
    /// [`CancelToken::with_deadline`] cancels an over-deadline evaluation
    /// within 4 096 units of work on each of its threads once its deadline
    /// has passed, and per-request work
    /// budgets keep one expensive query from starving the rest of the
    /// traffic on the shared session.
    pub fn execute_with_options(
        &self,
        query: &PreparedQuery,
        bindings: &[(String, Value)],
        options: &ExecOptions,
    ) -> Result<Outcome, Error> {
        for (name, ty) in query.schema() {
            // Binding errors point at the schema variable's first use site in
            // the prepared source text (None for span-less builder plans).
            let use_site = || analysis::free_var_span(query.expr(), name);
            let mut matching = bindings.iter().filter(|(bound, _)| bound == name);
            match (matching.next(), matching.next()) {
                (None, _) => {
                    return Err(Error::Object {
                        source: ObjectError::TypeMismatch {
                            expected: format!(
                                "a binding for schema variable `{name}` of type {ty}"
                            ),
                            found: "no binding with that name".to_string(),
                        },
                        span: use_site(),
                    })
                }
                // A duplicated name is rejected outright: validation would
                // otherwise vouch for one occurrence while the evaluator's
                // environment (last binding shadows) resolves another.
                (Some(_), Some(_)) => {
                    return Err(Error::Object {
                        source: ObjectError::TypeMismatch {
                            expected: format!("exactly one binding for schema variable `{name}`"),
                            found: "multiple bindings with that name".to_string(),
                        },
                        span: use_site(),
                    })
                }
                (Some((_, value)), None) if !value.has_type(ty) => {
                    return Err(Error::Object {
                        source: ObjectError::TypeMismatch {
                            expected: format!("{ty} for schema variable `{name}`"),
                            found: value_type(value).to_string(),
                        },
                        span: use_site(),
                    })
                }
                (Some(_), None) => {}
            }
        }
        self.eval_raw(query.expr(), Some(&query.plan.sites), bindings, options)
            .map_err(Error::from)
    }

    /// Execute one prepared query over a batch of binding sets, returning one
    /// outcome per set. The front end ran once at `prepare` time; each element
    /// pays evaluation only. Errors are per-element: one failing binding set
    /// does not abort the rest of the batch.
    pub fn execute_many<B: AsRef<[(String, Value)]>>(
        &self,
        query: &PreparedQuery,
        batches: &[B],
    ) -> Vec<Result<Outcome, Error>> {
        batches
            .iter()
            .map(|bindings| self.execute_with_bindings(query, bindings.as_ref()))
            .collect()
    }

    /// Prepare (or fetch from the cache) and execute in one call — the
    /// convenience path for one-shot callers like the REPL.
    pub fn run(&self, text: &str) -> Result<Outcome, Error> {
        let query = self.prepare(text)?;
        self.execute(&query)
    }

    /// Evaluate a pre-built closed expression directly, skipping the front end
    /// entirely (no parse, no typecheck, no caching). This is the trusted-AST
    /// fast path for corpus runners and differential suites whose expressions
    /// come straight from the builder API; because nothing but evaluation
    /// runs, the error type is exactly [`EvalError`] — bit-compatible with the
    /// historical entry points. Prefer [`Session::prepare_expr`] +
    /// [`Session::execute`] when you want the checked pipeline.
    pub fn evaluate(&self, expr: &Expr) -> Result<Outcome, EvalError> {
        self.eval_raw(expr, None, &[], &ExecOptions::default())
    }

    /// The session's work-stealing pool, created on first use. Only the
    /// parallel dispatch path ever calls this, so sequential sessions stay
    /// pool-free.
    fn pool(&self) -> Arc<WorkStealingPool> {
        self.pool
            .get_or_init(|| Arc::new(WorkStealingPool::with_config(self.config.pool_config())))
            .clone()
    }

    /// Run one evaluation: a fresh evaluator under the session's (possibly
    /// tightened) configuration, forking onto the session's pool iff that
    /// configuration is parallel. `sites` is the survey `expr` was prepared
    /// with; an expression nobody prepared is surveyed by its evaluation.
    fn eval_raw(
        &self,
        expr: &Expr,
        sites: Option<&Arc<Sites>>,
        bindings: &[(String, Value)],
        options: &ExecOptions,
    ) -> Result<Outcome, EvalError> {
        let backend = self.backend();
        // Per-execution limits only ever tighten the session's: min of the
        // two, so a request cannot talk a shared deployment past its caps.
        let mut config = self.config.clone();
        if let Some(limit) = options.max_work {
            config.max_work = config.max_work.min(limit);
        }
        if let Some(limit) = options.max_set_size {
            config.max_set_size = config.max_set_size.min(limit);
        }
        let mut evaluator = Evaluator::new(config);
        if backend != Backend::Sequential {
            // One pool per session: every execution forks onto the same
            // persistent worker set instead of growing its own.
            evaluator.attach_pool(self.pool());
        }
        if let Some(token) = &options.cancel {
            evaluator.attach_cancel(token.clone());
        }
        let value = match sites {
            Some(sites) => evaluator.eval_surveyed(expr, sites, bindings)?,
            None => evaluator.eval_with_bindings(expr, bindings)?,
        };
        Ok(Outcome {
            value,
            stats: evaluator.stats(),
            backend,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_are_send_and_sync() {
        // The docs promise one session can serve many threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<Outcome>();
    }

    #[test]
    fn plan_keys_distinguish_optimizer_levels() {
        // Regression: the cache key must carry the optimizer configuration.
        // Two sessions (or one session whose configuration is later made
        // mutable, like `set_registry`) differing only in `OptLevel` produce
        // different plans for the same text; a key that ignored the level
        // would let one serve the other's plan.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let raw = PlanKey::new("{@1} union {@2}", &[], 7, OptLevel::None);
        let opt = PlanKey::new("{@1} union {@2}", &[], 7, OptLevel::Default);
        assert_ne!(raw, opt);
        let digest = |key: &PlanKey| {
            let mut hasher = DefaultHasher::new();
            key.hash(&mut hasher);
            hasher.finish()
        };
        assert_ne!(digest(&raw), digest(&opt));
    }

    #[test]
    fn optimizer_runs_by_default_and_none_disables_it() {
        // The duplicated-operand union is closed, so the default level folds
        // it; `OptLevel::None` must leave the raw AST untouched.
        let text = "{@1} union {@2} union {@1}";
        let optimized = Session::new().prepare(text).unwrap();
        assert_eq!(optimized.opt_level(), OptLevel::Default);
        assert!(!optimized.rewrites().is_empty());
        assert!(optimized.raw_cost().is_some());
        let raw = Session::builder()
            .opt_level(OptLevel::None)
            .build()
            .prepare(text)
            .unwrap();
        assert_eq!(raw.opt_level(), OptLevel::None);
        assert!(raw.rewrites().is_empty());
        assert!(raw.raw_cost().is_none());
        assert_eq!(raw.optimized_form(), raw.normal_form());
        assert_ne!(optimized.optimized_form(), optimized.normal_form());
        // The two plans agree on the value, and the optimized plan never
        // measures more work.
        let opt_out = Session::new().run(text).unwrap();
        let raw_out = Session::builder()
            .opt_level(OptLevel::None)
            .build()
            .run(text)
            .unwrap();
        assert_eq!(opt_out.value, raw_out.value);
        assert!(opt_out.stats.work <= raw_out.stats.work);
    }

    #[test]
    fn prepare_execute_round_trip() {
        let session = Session::new();
        let q = session.prepare("nat_add(20, 22)").unwrap();
        assert_eq!(q.ty().to_string(), "nat");
        assert_eq!(q.recursion_depth(), 0);
        assert_eq!(q.ac_level(), 1);
        assert_eq!(q.source(), Some("nat_add(20, 22)"));
        let out = session.execute(&q).unwrap();
        assert_eq!(out.value, Value::Nat(42));
        assert_eq!(out.backend, Backend::Sequential);
        assert!(out.stats.work > 0);
    }

    #[test]
    fn cache_hits_share_the_plan() {
        let session = Session::new();
        let a = session.prepare("{@1} union {@2}").unwrap();
        let b = session.prepare("{@1} union {@2}").unwrap();
        assert!(a.ptr_eq(&b));
        let metrics = session.cache_metrics();
        assert_eq!((metrics.hits, metrics.misses, metrics.len), (1, 1, 1));
        // Different text is a different plan.
        let c = session.prepare("{@1} union {@3}").unwrap();
        assert!(!a.ptr_eq(&c));
    }

    #[test]
    fn concurrent_first_preparations_converge_on_one_plan() {
        let session = Session::new();
        let text = "ext(\\x: atom. {x}, {@1} union {@2} union {@3})";
        let handles: Vec<PreparedQuery> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| session.prepare(text).unwrap()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        // Whatever interleaving happened, every handle shares one plan, and a
        // later prepare joins it too.
        for pair in handles.windows(2) {
            assert!(pair[0].ptr_eq(&pair[1]));
        }
        assert!(session.prepare(text).unwrap().ptr_eq(&handles[0]));
        assert_eq!(session.cache_metrics().len, 1);
    }

    #[test]
    fn concurrent_preparations_of_many_texts_share_one_plan_per_text() {
        // 8 threads × 64 texts race first-preparation of every text, then
        // every handle is checked against a fresh prepare: the same-`Arc`
        // contract must hold per text whatever the interleaving.
        let session = Session::builder().cache_capacity(256).build();
        let texts: Vec<String> = (0..64)
            .map(|n| format!("{{@{n}}} union {{@{}}}", n + 1))
            .collect();
        let per_thread: Vec<Vec<PreparedQuery>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|t| {
                    let texts = &texts;
                    let session = &session;
                    scope.spawn(move || {
                        // Stagger the iteration order per thread so the cache
                        // sees interleaved traffic, not a lockstep sweep.
                        (0..texts.len())
                            .map(|i| {
                                let text = &texts[(i + t * 13) % texts.len()];
                                session.prepare(text).unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (i, text) in texts.iter().enumerate() {
            let canonical = session.prepare(text).unwrap();
            for handles in &per_thread {
                let handle = handles
                    .iter()
                    .find(|h| h.source() == Some(text.as_str()))
                    .expect("every thread prepared every text");
                assert!(
                    handle.ptr_eq(&canonical),
                    "text #{i} diverged across threads"
                );
            }
        }
        let metrics = session.cache_metrics();
        assert_eq!(metrics.len, texts.len(), "all plans cached, none evicted");
        assert_eq!(metrics.capacity, 256);
        // 8 threads × 64 prepares + 64 canonical re-prepares; at least one
        // front-end run per text, and every later prepare was a hit unless it
        // lost a first-preparation race.
        assert_eq!(metrics.hits + metrics.misses, 8 * 64 + 64);
        assert!(metrics.misses >= 64);
        assert!(metrics.hits >= 7 * 64);
    }

    #[test]
    fn parallel_and_sequential_sessions_agree() {
        let text = "dcr(0, \\x: atom. atom_to_nat(x), \
                    \\p: (nat * nat). nat_add(pi1 p, pi2 p), \
                    {@4} union {@7} union {@9})";
        let seq = Session::new();
        let par = Session::builder()
            .parallelism(Some(4))
            .parallel_cutoff(1)
            .build();
        let a = seq.run(text).unwrap();
        let b = par.run(text).unwrap();
        assert_eq!(a.value, b.value);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.backend, Backend::Sequential);
        assert_eq!(b.backend, Backend::Parallel { threads: 4 });
        assert_eq!(a.value, Value::Nat(20));
    }

    #[test]
    fn degenerate_parallelism_is_normalized_at_build() {
        for requested in [None, Some(0), Some(1)] {
            let session = Session::builder().parallelism(requested).build();
            assert_eq!(
                session.config().parallelism,
                None,
                "requested {requested:?}"
            );
            assert_eq!(session.backend(), Backend::Sequential);
        }
    }

    #[test]
    fn schema_and_bindings_parameterize_a_query() {
        let session = Session::new();
        let schema = vec![("s".to_string(), Type::set(Type::Base))];
        let q = session
            .prepare_with_schema("ext(\\x: atom. {x}, s) union {@99}", &schema)
            .unwrap();
        let batches: Vec<Vec<(String, Value)>> = (0..3u64)
            .map(|n| vec![("s".to_string(), Value::atom_set(0..n))])
            .collect();
        let outcomes = session.execute_many(&q, &batches);
        for (n, out) in outcomes.into_iter().enumerate() {
            let value = out.unwrap().value;
            assert_eq!(value.cardinality(), Some(n + 1), "n atoms plus @99");
        }
    }

    #[test]
    fn ill_typed_or_missing_bindings_are_rejected_before_evaluation() {
        let session = Session::new();
        let schema = vec![("s".to_string(), Type::set(Type::Base))];
        let q = session.prepare_with_schema("card(s)", &schema).unwrap();
        // Wrong type: a bool where a set of atoms was declared.
        match session.execute_with_bindings(&q, &[("s".to_string(), Value::Bool(true))]) {
            Err(Error::Object {
                source: ObjectError::TypeMismatch { expected, found },
                ..
            }) => {
                assert!(expected.contains("`s`"), "{expected}");
                assert_eq!(found, "bool");
            }
            other => panic!("expected a binding type mismatch, got {other:?}"),
        }
        // Missing binding: the schema variable was never supplied.
        match session.execute_with_bindings(&q, &[("t".to_string(), Value::atom_set(0..2))]) {
            Err(Error::Object {
                source: ObjectError::TypeMismatch { expected, .. },
                ..
            }) => {
                assert!(expected.contains("`s`"), "{expected}");
            }
            other => panic!("expected a missing-binding error, got {other:?}"),
        }
        // A duplicated name is rejected even when one occurrence is well-typed
        // (the evaluator would resolve the shadowing last occurrence).
        match session.execute_with_bindings(
            &q,
            &[
                ("s".to_string(), Value::atom_set(0..3)),
                ("s".to_string(), Value::Bool(true)),
            ],
        ) {
            Err(Error::Object {
                source: ObjectError::TypeMismatch { expected, found },
                ..
            }) => {
                assert!(expected.contains("exactly one"), "{expected}");
                assert!(found.contains("multiple"), "{found}");
            }
            other => panic!("expected a duplicate-binding error, got {other:?}"),
        }
        // A correct binding (plus an ignored extra) evaluates.
        let out = session
            .execute_with_bindings(
                &q,
                &[
                    ("s".to_string(), Value::atom_set(0..3)),
                    ("unused".to_string(), Value::Bool(false)),
                ],
            )
            .unwrap();
        assert_eq!(out.value, Value::Nat(3));
    }

    #[test]
    fn prepare_runs_the_static_analysis_once_per_plan() {
        let session = Session::new();
        let schema = vec![("s".to_string(), Type::set(Type::Base))];
        let q = session
            .prepare_with_schema("ext(\\x: atom. {x}, s)", &schema)
            .unwrap();
        let analysis = q.analysis();
        // The work bound is symbolic in |s|: it grows with the cardinality.
        let at = |n: u64| {
            analysis
                .cost
                .work
                .eval(&|name| (name == "s").then_some(n))
                .expect("bound is finite in |s|")
        };
        assert!(at(100) > at(1), "bound grows with |s|: {}", analysis.cost);
        // A cache hit shares the same analysis (same plan).
        let again = session
            .prepare_with_schema("ext(\\x: atom. {x}, s)", &schema)
            .unwrap();
        assert!(again.ptr_eq(&q));
    }

    #[test]
    fn warn_policy_reports_doomed_queries_but_still_prepares() {
        let session = Session::builder().max_work(3).build();
        assert_eq!(session.lint_policy(), LintPolicy::Warn);
        let q = session.prepare("{@1} union {@2}").unwrap();
        let doomed: Vec<_> = q
            .analysis()
            .findings
            .iter()
            .filter(|f| f.lint == Lint::DoomedWorkBound)
            .collect();
        assert_eq!(doomed.len(), 1, "exactly one doomed-work-bound finding");
        assert!(
            doomed[0].message.contains("limit is 3"),
            "{}",
            doomed[0].message
        );
        // Warn never rejects; the evaluator raises the limit error instead.
        match session.execute(&q) {
            Err(Error::Eval(e)) => assert!(e.to_string().contains("work")),
            other => panic!("expected an eval-time work-limit error, got {other:?}"),
        }
    }

    #[test]
    fn deny_policy_rejects_doomed_queries_before_evaluation() {
        let session = Session::builder()
            .max_work(3)
            .lint_policy(LintPolicy::Deny)
            .build();
        let text = "{@1} union {@2}";
        match session.prepare(text) {
            Err(err @ Error::Lint { .. }) => {
                assert!(err.to_string().starts_with("lint error: doomed-work-bound"));
                assert!(err.span().is_some(), "rejection carries the query span");
                assert!(err.render(text).contains('^'), "caret diagnostic renders");
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
        // The rejection holds on the cache-hit path too.
        match session.prepare(text) {
            Err(Error::Lint { .. }) => {}
            other => panic!("expected a lint rejection on the cache hit, got {other:?}"),
        }
        // A harmless query still prepares and runs under the deny policy.
        let ok = Session::builder()
            .lint_policy(LintPolicy::Deny)
            .build()
            .run(text)
            .unwrap();
        assert_eq!(ok.value.cardinality(), Some(2));
    }

    #[test]
    fn deny_policy_rejects_ignored_combiner_arguments() {
        // A dcr combiner that drops its first argument cannot be associative
        // with identity — `wellformed` would flag it at runtime; the lint
        // rejects it at prepare.
        let text = "dcr(empty[atom], \\x: atom. {x}, \
                    \\p: ({atom} * {atom}). pi2 p, {@1} union {@2})";
        let deny = Session::builder().lint_policy(LintPolicy::Deny).build();
        match deny.prepare(text) {
            Err(err @ Error::Lint { .. }) => {
                assert!(
                    err.to_string().contains("ignored-combiner-argument"),
                    "{err}"
                );
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
        // The default policy only reports it.
        let warn = Session::new();
        let q = warn.prepare(text).unwrap();
        assert!(q
            .analysis()
            .findings
            .iter()
            .any(|f| f.lint == Lint::IgnoredCombinerArgument));
    }

    #[test]
    fn type_errors_surface_through_the_unified_error() {
        let session = Session::new();
        match session.prepare("pi1 true") {
            Err(Error::Type(_)) => {}
            other => panic!("expected a type error, got {other:?}"),
        }
        match session.prepare("nat_add(1") {
            Err(e @ Error::Parse(_)) => assert!(e.position().is_some()),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_extern_is_a_type_error_under_an_empty_registry() {
        let session = Session::builder().registry(ExternRegistry::empty()).build();
        match session.prepare("nat_add(1, 2)") {
            Err(Error::Type(e)) => match e.kind {
                ncql_core::TypeErrorKind::UnknownExtern(name) => assert_eq!(name, "nat_add"),
                other => panic!("expected UnknownExtern, got {other:?}"),
            },
            other => panic!("expected UnknownExtern, got {other:?}"),
        }
    }
}
