//! PRAM-style parallel execution substrate: a persistent work-stealing pool.
//!
//! The paper's complexity class NC is defined via uniform circuit families and is
//! equivalent to polylogarithmic time on a CRCW PRAM with polynomially many
//! processors (§4, citing Stockmeyer & Vishkin). We obviously cannot reproduce a
//! PRAM on stock hardware; what this crate reproduces is the *shape* of the
//! claim: the divide-and-conquer constructs of the language (`ext` fan-out and
//! the `dcr` combining tree) expose their parallelism to real threads, so the
//! critical path measured by the cost model in `ncql-core` translates into
//! wall-clock speedup, while the element-by-element recursion `sri` has a serial
//! chain that no number of threads can shorten.
//!
//! The NC bound is a *span* claim — `O(polylog)` parallel rounds — so the
//! substrate must not charge a thread start-up latency per round. Earlier
//! revisions forked every parallel region with `std::thread::scope`, paying
//! thread creation per region and never rebalancing uneven shard costs. This
//! crate now provides a [`WorkStealingPool`] instead:
//!
//! * **Persistent workers.** One lazily-spawned worker set per pool, created on
//!   the first [`RegionPermit::run`] and kept until [`WorkStealingPool::shutdown`]
//!   (or drop — shutdown is idempotent). A pool that never executes a region
//!   never spawns a thread (observable via [`live_pool_workers`]).
//! * **A chunk deque per worker.** A region's items are split into more chunks
//!   than workers and distributed round-robin; each worker pops its own deque
//!   LIFO and *steals* FIFO from a pseudo-randomly ordered sequence of victims
//!   when its own deque runs dry, so uneven chunk costs rebalance inside a
//!   region. The victim order is seeded by [`PoolConfig::steal_seed`] — the
//!   scheduling-stress suites vary it to prove results are schedule-invariant.
//! * **Caller participation.** The thread that opens a region executes that
//!   region's queued chunks itself while it waits, so a region always makes
//!   progress even when every worker is busy — which is what makes *nested*
//!   regions (an inner `dcr` inside an outer one's leaf) deadlock-free.
//! * **A thread-budget semaphore.** [`WorkStealingPool::try_borrow`] hands out
//!   at most `threads` worker permits across all concurrently open regions;
//!   an inner region can borrow workers an outer region left idle, and a
//!   caller that gets no permit simply stays sequential.
//!
//! The error and panic discipline is unchanged from the fork/join era and is
//! what `ncql-core` builds its backend equivalence on:
//!
//! * a chunk returning `Err` fails the whole region with [`TaskError::Failed`];
//! * a chunk *panicking* is caught ([`std::panic::catch_unwind`]) — every other
//!   chunk still runs to completion, all partial results are dropped, the
//!   payload message is preserved in [`TaskError::Panicked`], and the pool
//!   survives to serve the next region;
//! * when several chunks fail, the error of the lowest-indexed chunk wins, so
//!   the reported error is deterministic regardless of which thread ran what.
//!
//! This crate is deliberately *language-agnostic*: it knows nothing about
//! expressions or values, which is what lets `ncql-core` depend on it without a
//! cycle.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread;

/// How many chunks a region creates per borrowed worker. More chunks than
/// workers is what gives stealing something to rebalance when chunk costs are
/// uneven; 4 keeps per-chunk queueing overhead negligible while still letting
/// a fast worker take three extra chunks from a slow one.
const CHUNKS_PER_WORKER: usize = 4;

/// Worker threads alive across *all* pools in the process. Incremented when a
/// pool spawns its worker set, decremented as each worker exits (observed only
/// after the joining `shutdown` returns). The engine's "a sequential session
/// never creates worker threads" regression test is written against this.
static LIVE_POOL_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The number of pool worker threads currently alive in this process.
pub fn live_pool_workers() -> usize {
    LIVE_POOL_WORKERS.load(Ordering::SeqCst)
}

/// The number of hardware threads available, with a conservative fallback.
pub fn available_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Why a parallel region failed: a chunk returned an error, or a chunk
/// panicked (the panic is caught, every other chunk still completes, and all
/// partial results are discarded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError<E> {
    /// A worker closure returned `Err`.
    Failed(E),
    /// A worker closure panicked; the payload message is preserved.
    Panicked(String),
}

impl<E: std::fmt::Display> std::fmt::Display for TaskError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Failed(e) => write!(f, "parallel worker failed: {e}"),
            TaskError::Panicked(msg) => write!(f, "parallel worker panicked: {msg}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for TaskError<E> {}

/// Best-effort extraction of a panic payload message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Configuration of a [`WorkStealingPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of persistent worker threads (defaults to the number of
    /// available cores; clamped to at least 1).
    pub threads: usize,
    /// Seed for the workers' victim-selection order when stealing. Purely a
    /// scheduling knob: any seed produces bit-identical region results, which
    /// is exactly what the scheduling-stress test suites prove by sweeping it.
    pub steal_seed: u64,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            threads: available_threads(),
            steal_seed: 0,
        }
    }
}

/// One unit of queued work: a type-erased pointer to a region's state plus the
/// chunk index to execute. The pointer stays valid for as long as tasks of the
/// region can exist — see the safety argument on [`RegionState`].
#[derive(Clone, Copy)]
struct Task {
    region: *const (),
    run: unsafe fn(*const (), usize),
    chunk: usize,
}

// SAFETY: invariant — a `Task` is built only by `RegionPermit::run`, whose
// `region` points to that call's `RegionState<T, R, E, F>` and whose `run` is
// `run_chunk::<T, R, E, F>` of the same four types, and the call's bounds
// (`T: Sync`, `R: Send`, `E: Send`, `F: Sync`) are exactly what running a
// chunk from another thread needs: it reads `items` and `worker` through
// shared references and sends one `Result<R, TaskError<E>>` back. The
// pointer is dereferenced only inside `run`, and the region-exit protocol
// (see `RegionState`) keeps the pointee alive until every task of the region
// has run, so moving a `Task` to another thread moves no unsynchronised
// access; `chunk` is a plain index.
unsafe impl Send for Task {}

/// The shared state of one open region, allocated on the opening caller's
/// stack and type-erased into [`Task`]s.
///
/// # Safety protocol (why workers may touch stack data of another thread)
///
/// `RegionPermit::run` does not return until it has observed `done == true`
/// under the `done` mutex. `done` is set (and the condvar notified) by
/// whichever thread decrements `pending` to zero, *after* writing its result —
/// and that mutex release/acquire pair makes every chunk's accesses to the
/// region state happen-before the caller's return. A thread that ran a
/// non-final chunk makes no further access to region memory after its
/// `pending` decrement (its copy of the `Task` is a plain pointer whose drop
/// touches nothing), so no thread can dereference the region pointer once
/// `run` has returned and the stack frame is gone.
/// One chunk's slot: `None` until the chunk ran, then its result.
type ChunkSlot<R, E> = Option<Result<R, TaskError<E>>>;

struct RegionState<'scope, T, R, E, F> {
    items: &'scope [T],
    worker: &'scope F,
    chunk_size: usize,
    /// One slot per chunk, written exactly once by whichever thread runs it.
    results: Mutex<Vec<ChunkSlot<R, E>>>,
    /// Chunks not yet completed. The final decrement flips `done`.
    pending: AtomicUsize,
    done: Mutex<bool>,
    done_signal: Condvar,
}

/// Execute one chunk of the region behind `region` (monomorphized per region
/// type, taken by [`Task::run`] as a plain function pointer).
///
/// # Safety
///
/// `region` must point to a live `RegionState<T, R, E, F>` of exactly these
/// type parameters, and `chunk` must be one of its chunks not yet run. Both
/// hold for every [`Task`]: `RegionPermit::run` pairs the pointer with this
/// monomorphization when it builds the task and queues each chunk once, and
/// the region-exit protocol above keeps the state alive while its `pending`
/// count is above zero — which it is until this call's own decrement, after
/// which a non-final chunk touches nothing and the final one only `done`,
/// which the opening caller still waits on.
unsafe fn run_chunk<T, R, E, F>(region: *const (), chunk: usize)
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &[T]) -> Result<R, E> + Sync,
{
    // SAFETY: the `# Safety` contract above: a live state of these types.
    let state = &*(region as *const RegionState<'_, T, R, E, F>);
    let start = chunk * state.chunk_size;
    let end = (start + state.chunk_size).min(state.items.len());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        (state.worker)(chunk, &state.items[start..end])
    }));
    let result = match outcome {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(TaskError::Failed(e)),
        Err(payload) => Err(TaskError::Panicked(panic_message(payload))),
    };
    state.results.lock().unwrap()[chunk] = Some(result);
    if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last chunk: flip `done` under the mutex so the caller's wakeup
        // happens-after every chunk's writes (including this thread's).
        let mut done = state.done.lock().unwrap();
        *done = true;
        state.done_signal.notify_all();
    }
}

/// State shared between the pool handle, its permits, and its workers.
struct PoolShared {
    config: PoolConfig,
    /// One deque per worker. Owners pop the back (LIFO), thieves and helping
    /// callers take from the front (FIFO), submission is round-robin.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Wake generation: bumped (under the mutex) whenever tasks are pushed or
    /// shutdown begins, so sleeping workers never miss a wakeup.
    sleep: Mutex<u64>,
    wake_signal: Condvar,
    shutting_down: AtomicBool,
    /// Remaining lendable worker permits (the thread-budget semaphore).
    budget: AtomicUsize,
    /// Round-robin cursor for task distribution across the deques.
    next_queue: AtomicUsize,
    /// Lazily spawns the worker set on the first region.
    spawn: Once,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Workers this pool has spawned (0 until the first region runs).
    spawned_workers: AtomicUsize,
    /// Workers of *this pool* currently alive (spawned and not yet exited).
    /// Unlike the process-global [`LIVE_POOL_WORKERS`], this is safe to
    /// assert on from tests that run concurrently with other pool users.
    live_workers: AtomicUsize,
}

impl PoolShared {
    /// Pop a task: own deque first (LIFO), then steal FIFO from victims in the
    /// pseudo-random order drawn from `rng` — the order the stress suites
    /// randomize via [`PoolConfig::steal_seed`].
    fn find_task(&self, me: usize, rng: &mut u64) -> Option<Task> {
        if let Some(task) = self.queues[me].lock().unwrap().pop_back() {
            return Some(task);
        }
        let n = self.queues.len();
        let start = (xorshift(rng) as usize) % n;
        for offset in 0..n {
            let victim = (start + offset) % n;
            if victim == me {
                continue;
            }
            if let Some(task) = self.queues[victim].lock().unwrap().pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// Remove one queued task belonging to `region`, for the opening caller to
    /// execute itself while it waits (callers only help their own region, so a
    /// long-running foreign chunk can never delay a finished region's return).
    fn find_region_task(&self, region: *const ()) -> Option<Task> {
        for queue in &self.queues {
            let mut queue = queue.lock().unwrap();
            if let Some(at) = queue.iter().position(|t| std::ptr::eq(t.region, region)) {
                return queue.remove(at);
            }
        }
        None
    }

    /// Bump the wake generation and rouse every sleeping worker.
    fn wake_all(&self) {
        *self.sleep.lock().unwrap() += 1;
        self.wake_signal.notify_all();
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    // Seed per worker, never zero (xorshift's fixed point).
    let mut rng = shared
        .config
        .steal_seed
        .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        | 1;
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        if let Some(task) = shared.find_task(index, &mut rng) {
            // SAFETY: invariant — a task popped from a deque has not run, so
            // its region's `pending` count still includes it and the opening
            // caller is still inside `RegionPermit::run`, waiting on `done`:
            // the `RegionState` behind `task.region` is alive, and `task.run`
            // is the `run_chunk` of its exact types (see `run_chunk`).
            unsafe { (task.run)(task.region, task.chunk) };
            continue;
        }
        // Idle transition — the only path that touches the generation lock,
        // so the busy task-draining loop above stays lock-free with respect
        // to it. Rescan while *holding* the lock: a pusher must take it to
        // bump the generation, so it cannot complete a push-and-wake between
        // this scan and the wait below (no lost wakeup). The found task is
        // run after releasing the lock — running it may open a nested
        // region whose wake-up needs the same lock.
        let rescanned = {
            let mut sleep = shared.sleep.lock().unwrap();
            let task = shared.find_task(index, &mut rng);
            if task.is_none() {
                let seen = *sleep;
                while *sleep == seen && !shared.shutting_down.load(Ordering::Acquire) {
                    sleep = shared.wake_signal.wait(sleep).unwrap();
                }
            }
            task
        };
        if let Some(task) = rescanned {
            // SAFETY: invariant — as above: this task was popped from a deque
            // and has not run, so its region is still open and its state alive.
            unsafe { (task.run)(task.region, task.chunk) };
        }
    }
    shared.live_workers.fetch_sub(1, Ordering::SeqCst);
    LIVE_POOL_WORKERS.fetch_sub(1, Ordering::SeqCst);
}

/// A persistent work-stealing thread pool executing parallel *regions*: a
/// region splits a slice into chunks, distributes them across per-worker
/// deques, and blocks the opening caller (who helps) until every chunk ran.
///
/// Workers are spawned lazily on the first region and torn down by
/// [`WorkStealingPool::shutdown`] (idempotent; also run on drop). Opening a
/// region requires borrowing worker permits from the pool's thread-budget
/// semaphore via [`WorkStealingPool::try_borrow`], which is what lets nested
/// regions share one bounded worker set instead of multiplying threads.
///
/// ```
/// use ncql_pram::WorkStealingPool;
///
/// let pool = WorkStealingPool::new(4);
/// let permit = pool.try_borrow(4).expect("budget starts full");
/// let items: Vec<u64> = (0..1000).collect();
/// let squares = permit
///     .run(&items, |_chunk, shard| {
///         Ok::<u64, ()>(shard.iter().map(|x| x * x).sum())
///     })
///     .unwrap();
/// assert_eq!(squares.iter().sum::<u64>(), (0..1000u64).map(|x| x * x).sum());
/// ```
pub struct WorkStealingPool {
    shared: Arc<PoolShared>,
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("threads", &self.shared.config.threads)
            .field("steal_seed", &self.shared.config.steal_seed)
            .field("spawned_workers", &self.spawned_workers())
            .field("available_budget", &self.available_budget())
            .finish()
    }
}

impl WorkStealingPool {
    /// A pool with the given worker-thread count (clamped to at least 1) and
    /// the default steal seed. No thread is spawned until the first region.
    pub fn new(threads: usize) -> WorkStealingPool {
        WorkStealingPool::with_config(PoolConfig {
            threads,
            ..PoolConfig::default()
        })
    }

    /// A pool from a full configuration.
    pub fn with_config(config: PoolConfig) -> WorkStealingPool {
        let threads = config.threads.max(1);
        let config = PoolConfig { threads, ..config };
        WorkStealingPool {
            shared: Arc::new(PoolShared {
                queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
                sleep: Mutex::new(0),
                wake_signal: Condvar::new(),
                shutting_down: AtomicBool::new(false),
                budget: AtomicUsize::new(threads),
                next_queue: AtomicUsize::new(0),
                spawn: Once::new(),
                handles: Mutex::new(Vec::new()),
                spawned_workers: AtomicUsize::new(0),
                live_workers: AtomicUsize::new(0),
                config,
            }),
        }
    }

    /// The configured worker-thread count (the budget semaphore's capacity).
    pub fn threads(&self) -> usize {
        self.shared.config.threads
    }

    /// Worker threads this pool has spawned so far (`0` until the first
    /// region runs — lazy spawning is part of the pool's contract).
    pub fn spawned_workers(&self) -> usize {
        self.shared.spawned_workers.load(Ordering::SeqCst)
    }

    /// Worker threads of this pool currently alive: `spawned_workers` minus
    /// the workers that have exited. `0` after [`WorkStealingPool::shutdown`]
    /// returns (it joins every worker).
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::SeqCst)
    }

    /// Worker permits currently available to borrow.
    pub fn available_budget(&self) -> usize {
        self.shared.budget.load(Ordering::SeqCst)
    }

    /// Borrow up to `desired` worker permits from the thread-budget semaphore
    /// (never blocking): returns `None` when every permit is already lent out
    /// — the caller should then stay sequential — and otherwise a permit for
    /// `min(desired, available)` workers. Permits return to the budget when
    /// the [`RegionPermit`] drops, so an inner region can borrow whatever an
    /// outer region is not using.
    pub fn try_borrow(&self, desired: usize) -> Option<RegionPermit> {
        let desired = desired.max(1);
        let mut current = self.shared.budget.load(Ordering::Relaxed);
        loop {
            if current == 0 {
                return None;
            }
            let take = desired.min(current);
            match self.shared.budget.compare_exchange_weak(
                current,
                current - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(RegionPermit {
                        shared: self.shared.clone(),
                        workers: take,
                    })
                }
                Err(now) => current = now,
            }
        }
    }

    /// Tear the worker set down: signal shutdown, wake every sleeper, and join
    /// all worker threads. Idempotent — later calls (including the one from
    /// `Drop`) find nothing left to join. Chunks already queued are *not*
    /// lost: workers finish the chunk they are running before exiting, and a
    /// region's opening caller drains whatever its workers abandoned, so an
    /// in-flight region still completes (on the caller's thread alone).
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        self.shared.wake_all();
        let handles = std::mem::take(&mut *self.shared.handles.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A borrow of worker permits from a pool's thread-budget semaphore; the
/// handle through which regions execute ([`RegionPermit::run`]). Dropping the
/// permit returns its workers to the budget.
pub struct RegionPermit {
    shared: Arc<PoolShared>,
    workers: usize,
}

impl std::fmt::Debug for RegionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionPermit")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Drop for RegionPermit {
    fn drop(&mut self) {
        self.shared.budget.fetch_add(self.workers, Ordering::AcqRel);
    }
}

impl RegionPermit {
    /// How many workers this permit borrowed (chunking granularity:
    /// a region creates up to `workers × 4` chunks).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute one parallel region: split `items` into contiguous chunks, run
    /// `worker(chunk_index, chunk)` on each across the pool (the calling
    /// thread participates), and return the per-chunk results in chunk order.
    ///
    /// Single-chunk regions run inline on the calling thread — through the
    /// same panic discipline — so tiny inputs never touch the queues. Errors
    /// and panics follow the crate-level contract: every chunk runs to
    /// completion, partial results are dropped, and the lowest-indexed
    /// chunk's error wins deterministically.
    pub fn run<T, R, E, F>(&self, items: &[T], worker: F) -> Result<Vec<R>, TaskError<E>>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &[T]) -> Result<R, E> + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let target_chunks = items.len().min(self.workers * CHUNKS_PER_WORKER).max(1);
        let chunk_size = items.len().div_ceil(target_chunks);
        let chunks = items.len().div_ceil(chunk_size);
        if chunks == 1 {
            // Inline fast path, same worker signature and panic discipline, so
            // pool and no-pool execution are indistinguishable to the caller.
            return match catch_unwind(AssertUnwindSafe(|| worker(0, items))) {
                Ok(Ok(r)) => Ok(vec![r]),
                Ok(Err(e)) => Err(TaskError::Failed(e)),
                Err(payload) => Err(TaskError::Panicked(panic_message(payload))),
            };
        }

        self.ensure_spawned();
        let state = RegionState {
            items,
            worker: &worker,
            chunk_size,
            results: Mutex::new((0..chunks).map(|_| None).collect()),
            pending: AtomicUsize::new(chunks),
            done: Mutex::new(false),
            done_signal: Condvar::new(),
        };
        let region = &state as *const RegionState<'_, T, R, E, F> as *const ();
        let run: unsafe fn(*const (), usize) = run_chunk::<T, R, E, F>;

        // Distribute round-robin starting at a rotating cursor so consecutive
        // regions spread over different deques, then wake the workers.
        let n_queues = self.shared.queues.len();
        let base = self.shared.next_queue.fetch_add(chunks, Ordering::Relaxed);
        for chunk in 0..chunks {
            self.shared.queues[(base + chunk) % n_queues]
                .lock()
                .unwrap()
                .push_back(Task { region, run, chunk });
        }
        self.shared.wake_all();

        // Help with our own region's chunks, then wait for the stragglers.
        // The ONLY exit is observing `done` under its mutex — that is what
        // makes handing stack pointers to persistent threads sound (see the
        // RegionState safety protocol).
        loop {
            if let Some(task) = self.shared.find_region_task(region) {
                // SAFETY: invariant — `find_region_task` returns only tasks
                // of this region, whose `state` lives on this frame, and this
                // loop is the only way out of it: the state outlives the call,
                // and `task.run` is `run` above, built for its exact types.
                unsafe { (task.run)(task.region, task.chunk) };
                if *state.done.lock().unwrap() {
                    break;
                }
            } else {
                let mut done = state.done.lock().unwrap();
                while !*done {
                    done = state.done_signal.wait(done).unwrap();
                }
                break;
            }
        }

        let slots = std::mem::take(&mut *state.results.lock().unwrap());
        let mut out = Vec::with_capacity(chunks);
        for slot in slots {
            match slot.expect("every chunk runs exactly once before done flips") {
                Ok(r) => out.push(r),
                // Lowest chunk index wins; later successes (and errors) drop.
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Parallel map preserving item order: apply `f` to every element, chunked
    /// across the pool. Errors and panics follow [`RegionPermit::run`]'s
    /// discipline.
    pub fn map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, TaskError<E>>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        let per_chunk = self.run(items, |_, chunk| {
            chunk.iter().map(&f).collect::<Result<Vec<R>, E>>()
        })?;
        let mut out = Vec::with_capacity(items.len());
        for chunk in per_chunk {
            out.extend(chunk);
        }
        Ok(out)
    }

    /// One round of a parallel pairwise reduction: combine `items[0]` with
    /// `items[1]`, `items[2]` with `items[3]`, …, across the pool, and return
    /// the halved list in order (an odd tail item is carried over by clone).
    /// This is the merge primitive behind the evaluator's post-`ext`
    /// canonicalization: each round is one log-depth level of the combining
    /// tree, so callers can interleave rounds with their own policy (cutoffs,
    /// cancellation polls) between levels.
    ///
    /// `combine` is infallible; panics inside it follow the crate-level
    /// discipline and surface as [`TaskError::Panicked`].
    pub fn combine_round<T, F>(
        &self,
        items: Vec<T>,
        combine: F,
    ) -> Result<Vec<T>, TaskError<Infallible>>
    where
        T: Send + Sync + Clone,
        F: Fn(&T, &T) -> T + Sync,
    {
        if items.len() <= 1 {
            return Ok(items);
        }
        let pairs: Vec<&[T]> = items.chunks(2).collect();
        let per_chunk = self.run(&pairs, |_, chunk| {
            Ok::<_, Infallible>(
                chunk
                    .iter()
                    .map(|pair| match pair {
                        [a, b] => combine(a, b),
                        [a] => a.clone(),
                        _ => unreachable!("chunks(2) yields one- or two-item slices"),
                    })
                    .collect::<Vec<T>>(),
            )
        })?;
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in per_chunk {
            out.extend(chunk);
        }
        Ok(out)
    }

    /// Parallel tree reduction: repeat [`RegionPermit::combine_round`] until
    /// one item (or none, for empty input) remains. The reduction tree is
    /// deterministic — pairing is positional, never completion-ordered — so
    /// non-commutative results are reproducible across pool sizes and
    /// schedules.
    pub fn reduce<T, F>(
        &self,
        mut items: Vec<T>,
        combine: F,
    ) -> Result<Option<T>, TaskError<Infallible>>
    where
        T: Send + Sync + Clone,
        F: Fn(&T, &T) -> T + Sync,
    {
        while items.len() > 1 {
            items = self.combine_round(items, &combine)?;
        }
        Ok(items.pop())
    }

    /// Spawn the worker set once. Skipped after shutdown: a post-shutdown
    /// region still completes, executed entirely by its opening caller.
    fn ensure_spawned(&self) {
        let shared = &self.shared;
        shared.spawn.call_once(|| {
            // The shutdown check must happen *under* the handles lock:
            // `shutdown` drains the handles under the same lock after setting
            // the flag, so either we see the flag and spawn nothing, or our
            // freshly pushed handles are visible to the drain — never a
            // worker set that outlives a returned `shutdown()`.
            let mut handles = shared.handles.lock().unwrap();
            if shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            for index in 0..shared.config.threads {
                let worker_shared = Arc::clone(shared);
                // Counted before the spawn so the totals are exact the moment
                // `run` can first return (the worker only ever decrements).
                LIVE_POOL_WORKERS.fetch_add(1, Ordering::SeqCst);
                shared.live_workers.fetch_add(1, Ordering::SeqCst);
                shared.spawned_workers.fetch_add(1, Ordering::SeqCst);
                handles.push(
                    thread::Builder::new()
                        .name(format!("ncql-pool-{index}"))
                        .spawn(move || worker_loop(worker_shared, index))
                        .expect("spawning a pool worker thread"),
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(threads: usize) -> WorkStealingPool {
        WorkStealingPool::new(threads)
    }

    fn borrow(pool: &WorkStealingPool) -> RegionPermit {
        pool.try_borrow(pool.threads()).expect("budget starts full")
    }

    #[test]
    fn map_preserves_order_at_every_pool_size() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let p = pool(threads);
            let out = borrow(&p).map(&items, |x| Ok::<u64, ()>(x * x)).unwrap();
            assert_eq!(
                out,
                items.iter().map(|x| x * x).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn region_covers_every_item_exactly_once_in_chunk_order() {
        let items: Vec<u64> = (0..57).collect();
        let p = pool(4);
        let chunks = borrow(&p)
            .run(&items, |index, chunk| {
                Ok::<(usize, Vec<u64>), ()>((index, chunk.to_vec()))
            })
            .unwrap();
        let mut seen = Vec::new();
        for (i, (index, chunk)) in chunks.iter().enumerate() {
            assert_eq!(i, *index);
            seen.extend(chunk.iter().copied());
        }
        assert_eq!(seen, items);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let p = pool(4);
        let out = borrow(&p)
            .map(&Vec::<u64>::new(), |_| Ok::<u64, ()>(0))
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(
            p.spawned_workers(),
            0,
            "empty regions must not spawn the worker set"
        );
    }

    #[test]
    fn single_chunk_regions_stay_on_the_calling_thread() {
        let calling = std::thread::current().id();
        let items = [1u64];
        let p = pool(8);
        let out = borrow(&p)
            .run(&items, |_, chunk| {
                assert_eq!(std::thread::current().id(), calling);
                Ok::<usize, ()>(chunk.len())
            })
            .unwrap();
        assert_eq!(out, [1]);
        assert_eq!(
            p.spawned_workers(),
            0,
            "inline regions must not spawn the worker set"
        );
    }

    #[test]
    fn workers_spawn_lazily_and_persist_across_regions() {
        // Assert on the pool's OWN counters, not the process-global
        // `live_pool_workers`: sibling tests in this binary spawn pools
        // concurrently on a multi-core harness (the global counter is for
        // the engine's single-test guard binary).
        let p = pool(3);
        assert_eq!(p.spawned_workers(), 0);
        assert_eq!(p.live_workers(), 0);
        let items: Vec<u64> = (0..64).collect();
        for _ in 0..5 {
            let sum: u64 = borrow(&p)
                .run(&items, |_, c| Ok::<u64, ()>(c.iter().sum()))
                .unwrap()
                .into_iter()
                .sum();
            assert_eq!(sum, (0..64).sum());
        }
        // One worker set, spawned once, across all five regions.
        assert_eq!(p.spawned_workers(), 3);
        assert_eq!(p.live_workers(), 3);
        p.shutdown();
        assert_eq!(p.live_workers(), 0, "shutdown joins every worker");
        p.shutdown(); // idempotent
        drop(p); // drop after explicit shutdown is a no-op too
    }

    #[test]
    fn worker_errors_propagate_deterministically() {
        let items: Vec<u64> = (0..64).collect();
        // Several chunks fail; the lowest chunk index must win every run.
        for seed in 0..10 {
            let p = WorkStealingPool::with_config(PoolConfig {
                threads: 4,
                steal_seed: seed,
            });
            let err = borrow(&p)
                .run(&items, |index, _| {
                    if index >= 1 {
                        Err(format!("chunk {index} failed"))
                    } else {
                        Ok(index)
                    }
                })
                .unwrap_err();
            assert_eq!(
                err,
                TaskError::Failed("chunk 1 failed".to_string()),
                "seed={seed}"
            );
        }
    }

    /// Regression test for the panic-propagation contract, ported from the
    /// fork/join executor onto the pool: a panicking chunk surfaces as
    /// `TaskError::Panicked` with its payload preserved across a steal, the
    /// process survives, every sibling chunk still runs to completion, and
    /// every successful result is dropped rather than leaked into a partial
    /// output — pinned by counting constructed results against drops.
    #[test]
    fn panicking_worker_is_caught_joined_and_reported() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct CountsDrops;
        impl Drop for CountsDrops {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }

        let items: Vec<u64> = (0..64).collect();
        let p = pool(4);
        let result = borrow(&p).run(&items, |_, chunk| {
            if chunk.contains(&13) {
                panic!("extern exploded near atom 13");
            }
            BUILT.fetch_add(1, Ordering::SeqCst);
            Ok::<CountsDrops, String>(CountsDrops)
        });
        match result {
            Err(TaskError::Panicked(msg)) => assert!(
                msg.contains("extern exploded near atom 13"),
                "payload message preserved, got: {msg}"
            ),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Every successfully built result was joined and then dropped — none
        // leaked past the error return.
        assert!(
            BUILT.load(Ordering::SeqCst) > 0,
            "siblings of the panicking chunk still ran"
        );
        assert_eq!(DROPS.load(Ordering::SeqCst), BUILT.load(Ordering::SeqCst));
    }

    #[test]
    fn pool_survives_a_panicked_region_and_serves_the_next_one() {
        let items: Vec<u64> = (0..64).collect();
        let p = pool(4);
        for round in 0..3 {
            let err = borrow(&p)
                .run(&items, |_, _| -> Result<u64, ()> {
                    panic!("boom round {round}")
                })
                .unwrap_err();
            assert_eq!(err, TaskError::Panicked(format!("boom round {round}")));
            // The very next region on the same worker set succeeds.
            let ok: u64 = borrow(&p)
                .run(&items, |_, c| Ok::<u64, ()>(c.iter().sum()))
                .unwrap()
                .into_iter()
                .sum();
            assert_eq!(ok, (0..64).sum());
        }
        assert_eq!(p.spawned_workers(), 4, "panics must not kill pool workers");
    }

    #[test]
    fn panics_are_caught_on_the_inline_fast_path_too() {
        // Single-chunk regions run inline, but the panic contract holds there
        // as well.
        let items = [1u64];
        let p = pool(8);
        let err = borrow(&p)
            .run(&items, |_, _| -> Result<u64, ()> { panic!("inline boom") })
            .unwrap_err();
        assert_eq!(err, TaskError::Panicked("inline boom".to_string()));
        assert_eq!(p.spawned_workers(), 0, "a one-item region is one chunk");
    }

    #[test]
    fn panic_beaten_by_lower_indexed_error() {
        let items: Vec<u64> = (0..64).collect();
        let p = pool(4);
        let err = borrow(&p)
            .run(&items, |index, _| match index {
                1 => Err("chunk 1 error".to_string()),
                3 => panic!("chunk 3 panic"),
                _ => Ok(index),
            })
            .unwrap_err();
        assert_eq!(err, TaskError::Failed("chunk 1 error".to_string()));
    }

    #[test]
    fn string_panic_payloads_are_preserved() {
        let items: Vec<u64> = (0..32).collect();
        let owned = String::from("owned payload");
        let p = pool(2);
        let err = borrow(&p)
            .run(&items, |index, _| {
                if index == 0 {
                    panic!("{}", owned.clone());
                }
                Ok::<u64, ()>(0)
            })
            .unwrap_err();
        assert_eq!(err, TaskError::Panicked("owned payload".to_string()));
    }

    #[test]
    fn steal_order_randomization_never_changes_results() {
        // The scheduling shim: sweep seeds (different victim orders per run)
        // and demand bit-identical output every time.
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for seed in 0..24 {
            let p = WorkStealingPool::with_config(PoolConfig {
                threads: 4,
                steal_seed: seed,
            });
            let out = borrow(&p)
                .map(&items, |x| Ok::<u64, ()>(x * 3 + 1))
                .unwrap();
            assert_eq!(out, expected, "seed={seed}");
        }
    }

    #[test]
    fn budget_semaphore_lends_and_restores_permits() {
        let p = pool(4);
        assert_eq!(p.available_budget(), 4);
        let outer = p.try_borrow(3).unwrap();
        assert_eq!(outer.workers(), 3);
        assert_eq!(p.available_budget(), 1);
        // An inner region can borrow what the outer left idle — but no more.
        let inner = p.try_borrow(8).unwrap();
        assert_eq!(inner.workers(), 1);
        assert_eq!(p.available_budget(), 0);
        assert!(
            p.try_borrow(1).is_none(),
            "an exhausted budget refuses further borrows"
        );
        drop(inner);
        drop(outer);
        assert_eq!(
            p.available_budget(),
            4,
            "dropped permits return to the budget"
        );
    }

    #[test]
    fn nested_regions_share_one_worker_set_without_deadlock() {
        let p = pool(4);
        let outer_items: Vec<u64> = (0..32).collect();
        let outer = p.try_borrow(2).unwrap(); // leave two workers lendable
        let totals = outer
            .run(&outer_items, |_, chunk| {
                // Inner regions borrow whatever is left (possibly nothing —
                // then try_borrow fails and we run inline), all on the same
                // bounded worker set.
                let inner_items: Vec<u64> = (0..64).collect();
                let inner_total: u64 = match p.try_borrow(2) {
                    Some(permit) => permit
                        .run(&inner_items, |_, c| Ok::<u64, ()>(c.iter().sum()))
                        .map_err(|_| ())?
                        .into_iter()
                        .sum(),
                    None => inner_items.iter().sum(),
                };
                Ok::<u64, ()>(inner_total * chunk.len() as u64)
            })
            .unwrap();
        let inner_sum: u64 = (0..64).sum();
        assert_eq!(
            totals.iter().sum::<u64>(),
            inner_sum * outer_items.len() as u64
        );
        drop(outer);
        assert_eq!(p.available_budget(), 4, "nested permits all returned");
        assert_eq!(
            p.spawned_workers(),
            4,
            "nesting must not grow the worker set"
        );
    }

    /// Shutdown racing an in-flight region: the workers are told to exit while
    /// chunks are still queued. The region must still complete with correct
    /// results — the opening caller drains abandoned chunks itself — and the
    /// pool must join its workers cleanly.
    #[test]
    fn shutdown_mid_region_completes_the_region_on_the_caller() {
        let p = pool(4);
        let items: Vec<u64> = (0..256).collect();
        std::thread::scope(|scope| {
            let runner = scope.spawn(|| {
                let mut grand_total = 0u64;
                for _ in 0..50 {
                    let total: u64 = borrow(&p)
                        .run(&items, |_, chunk| {
                            std::thread::yield_now();
                            Ok::<u64, ()>(chunk.iter().sum())
                        })
                        .unwrap()
                        .into_iter()
                        .sum();
                    grand_total += total;
                }
                grand_total
            });
            // Tear the workers down while the runner is mid-region.
            p.shutdown();
            let grand_total = runner.join().unwrap();
            assert_eq!(grand_total, (0..256u64).sum::<u64>() * 50);
        });
        assert_eq!(p.live_workers(), 0, "every worker joined");
        // Post-shutdown regions still work, caller-only.
        let total: u64 = borrow(&p)
            .run(&items, |_, chunk| Ok::<u64, ()>(chunk.iter().sum()))
            .unwrap()
            .into_iter()
            .sum();
        assert_eq!(total, (0..256).sum());
    }

    #[test]
    fn uneven_chunk_costs_rebalance_across_workers() {
        // One pathological chunk sleeps; stealing lets the other workers chew
        // through the rest meanwhile. We can only assert completion and
        // correctness portably, but with 4 workers × 4 chunks each the slow
        // chunk overlaps 15 fast ones.
        let items: Vec<u64> = (0..160).collect();
        let p = pool(4);
        let out = borrow(&p)
            .run(&items, |index, chunk| {
                if index == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Ok::<u64, ()>(chunk.iter().sum())
            })
            .unwrap();
        assert_eq!(out.iter().sum::<u64>(), (0..160).sum());
    }

    #[test]
    fn combine_round_halves_in_order_and_carries_the_odd_tail() {
        let p = pool(4);
        let permit = borrow(&p);
        // Concatenation is non-commutative, so this checks pairing order too.
        let items: Vec<String> = (0..7).map(|i| i.to_string()).collect();
        let round = permit
            .combine_round(items, |a: &String, b: &String| format!("{a}{b}"))
            .unwrap();
        assert_eq!(round, vec!["01", "23", "45", "6"]);
        let single = permit.combine_round(vec![9u64], |a, b| a + b).unwrap();
        assert_eq!(single, vec![9]);
        let empty = permit
            .combine_round(Vec::<u64>::new(), |a, b| a + b)
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn reduce_matches_a_sequential_fold_across_pool_sizes() {
        for threads in [1, 2, 4, 8] {
            let p = pool(threads);
            let permit = borrow(&p);
            let items: Vec<String> = (0..37).map(|i| format!("<{i}>")).collect();
            let expected = {
                // The same positional pairing tree, folded sequentially.
                let mut level = items.clone();
                while level.len() > 1 {
                    level = level
                        .chunks(2)
                        .map(|c| c.iter().cloned().collect::<String>())
                        .collect();
                }
                level.pop().unwrap()
            };
            let got = permit
                .reduce(items, |a: &String, b: &String| format!("{a}{b}"))
                .unwrap()
                .unwrap();
            assert_eq!(got, expected);
            assert_eq!(
                permit.reduce(Vec::<u64>::new(), |a, b| a + b).unwrap(),
                None
            );
        }
    }

    #[test]
    fn combine_round_surfaces_panics_deterministically() {
        let p = pool(4);
        let permit = borrow(&p);
        let items: Vec<u64> = (0..64).collect();
        let err = permit
            .combine_round(items, |a, b| {
                if a + b == 1 {
                    panic!("boom at the first pair");
                }
                a + b
            })
            .unwrap_err();
        match err {
            TaskError::Panicked(msg) => assert!(msg.contains("boom"), "{msg}"),
            TaskError::Failed(_) => unreachable!("combine is infallible"),
        }
    }
}
