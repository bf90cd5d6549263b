//! PRAM-style parallel execution substrate: a persistent pool with one queue.
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
//! substrate must not charge a thread start-up latency per round, so regions
//! run on a [`Pool`] of persistent threads:
//!
//! * **Persistent workers.** One lazily-spawned worker set per pool, created on
//!   the first [`RegionPermit::run`] and kept until [`Pool::shutdown`] (or
//!   drop — shutdown is idempotent). A pool that never executes a region never
//!   spawns a thread (observable via [`live_pool_workers`]).
//! * **One queue, one entry per open region.** A region splits its items into
//!   a few chunks per borrowed worker and queues one entry; its chunks are
//!   handed out by an atomic counter in the region itself. An idle worker
//!   claims the next chunk of the front entry, and a thread that finishes a
//!   chunk claims that region's next one, so uneven chunk costs still spread
//!   over every thread that is free.
//! * **Caller participation.** The thread that opens a region claims that
//!   region's chunks itself too, so a region always makes progress even when
//!   every worker is busy — which is what makes *nested* regions (an inner
//!   `dcr` inside an outer one's leaf) deadlock-free.
//! * **A thread-budget semaphore.** [`Pool::try_borrow`] hands out at most
//!   `threads` worker permits across all concurrently open regions; an inner
//!   region can borrow workers an outer region left idle, and a caller that
//!   gets no permit simply stays sequential.
//!
//! The error and panic discipline, which `ncql-core`'s backend equivalence
//! builds on:
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread;

/// How many chunks a region creates per borrowed worker. More chunks than
/// workers is what lets a fast thread take more of a region when chunk costs
/// are uneven; 4 keeps the per-chunk claim negligible while still letting a
/// fast thread take three extra chunks from a slow one.
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

/// Run one chunk under the crate's panic discipline: an `Err` becomes
/// [`TaskError::Failed`], a caught panic [`TaskError::Panicked`].
fn catch<R, E>(chunk: impl FnOnce() -> Result<R, E>) -> Result<R, TaskError<E>> {
    catch_unwind(AssertUnwindSafe(chunk))
        .map_err(|payload| TaskError::Panicked(panic_message(payload)))
        .and_then(|result| result.map_err(TaskError::Failed))
}

/// The head of every region's state, and what a queue entry points to: the
/// claim counter and how many chunks there are to claim.
///
/// # The lifetime rules (why other threads may touch a caller's stack frame)
///
/// A region's state lives on the frame of the thread that opened it, and
/// [`RegionPermit::run`] does not return before it has removed the region's
/// entry from the queue and observed `done == true` under the `done` mutex.
/// Three rules make every other access happen while that frame is alive:
///
/// * **(a)** A region is touched under the queue lock only while its entry
///   is queued — the opener removes the entry under the same lock before it
///   waits for `done`.
/// * **(b)** A thread that is running chunk `i` claims its next chunk
///   *before* completing `i`: its own incomplete chunk keeps `pending` above
///   zero, so `done` cannot flip under the claim.
/// * **(c)** A thread reads everything it needs from the region (including
///   `chunks`) *before* the `pending` decrement that may complete it; after
///   that decrement it touches only `done`, and only when its decrement was
///   the last one, which the opener still waits on.
#[repr(C)]
struct Claims {
    /// The next chunk index to hand out; past `chunks` once all are claimed.
    /// Claimed `Relaxed`: a claim publishes no data, since the region's
    /// fields reach a worker through the queue lock it first claims under.
    next: AtomicUsize,
    chunks: usize,
}

/// One queued region: its claim header and the chunk runner of its exact
/// types, which takes a claimed chunk index.
#[derive(Clone, Copy)]
struct Entry {
    claims: *const Claims,
    /// SAFETY: called only for a chunk claimed under rule (a) or (b), which
    /// keeps the region alive; the runner itself keeps rules (b) and (c).
    run: unsafe fn(*const Claims, usize),
}

// SAFETY: an `Entry` is built only by `RegionPermit::run`, whose `claims`
// heads that call's `RegionState<T, R, E, F>` and whose `run` is
// `run_claimed::<T, R, E, F>` of the same four types; the call's bounds
// (`T: Sync`, `R: Send`, `E: Send`, `F: Sync`) are what running a chunk on
// another thread needs. The pointer is dereferenced only under the queue
// lock while the entry is queued (rule (a)) and by `run` for a claimed,
// incomplete chunk (rules (b) and (c)), so moving an `Entry` to another
// thread moves no unsynchronised access.
unsafe impl Send for Entry {}

/// One chunk's slot: `None` until the chunk ran, then its result.
type ChunkSlot<R, E> = Option<Result<R, TaskError<E>>>;

/// The shared state of one open region, on the opening caller's stack. The
/// `claims` header comes first (`repr(C)`), so a queue entry's pointer to it
/// is a pointer to the whole state.
#[repr(C)]
struct RegionState<'scope, T, R, E, F> {
    claims: Claims,
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

impl<T, R, E, F> RegionState<'_, T, R, E, F>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &[T]) -> Result<R, E> + Sync,
{
    /// Run the claimed `chunk`, then claim and run this region's next chunk
    /// until none is left, and complete them all with one decrement.
    fn run_from(&self, mut chunk: usize) {
        // Rule (c): `chunks` is read before the decrement below.
        let chunks = self.claims.chunks;
        let mut ran = 0;
        while chunk < chunks {
            let start = chunk * self.chunk_size;
            let end = (start + self.chunk_size).min(self.items.len());
            let result = catch(|| (self.worker)(chunk, &self.items[start..end]));
            self.results.lock().unwrap()[chunk] = Some(result);
            ran += 1;
            // Rule (b): the next claim happens while `chunk` is incomplete.
            chunk = self.claims.next.fetch_add(1, Ordering::Relaxed);
        }
        if self.pending.fetch_sub(ran, Ordering::AcqRel) == ran {
            // Last chunks: flip `done` and notify under the mutex, so the
            // caller's wakeup happens-after every chunk's writes and the
            // caller cannot return (freeing the condvar) before the notify.
            let mut done = self.done.lock().unwrap();
            *done = true;
            self.done_signal.notify_all();
        }
    }
}

/// [`RegionState::run_from`] behind a type-erased header pointer: the `run`
/// of every [`Entry`].
///
/// # Safety
///
/// `claims` must head a `RegionState<T, R, E, F>` of exactly these type
/// parameters, and `chunk` must be a chunk of it this thread claimed — under
/// the queue lock while the entry was queued (rule (a)) or while running an
/// earlier chunk (rule (b)) — and has not run.
unsafe fn run_claimed<T, R, E, F>(claims: *const Claims, chunk: usize)
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &[T]) -> Result<R, E> + Sync,
{
    // SAFETY: the `repr(C)` header is the state's first field, so the cast
    // names the whole state. It is alive: the chunk was claimed under rule
    // (a) or (b) and is incomplete, so `pending` is above zero and the opener
    // still waits, and `run_from` keeps rules (b) and (c) from here on.
    let state = unsafe { &*(claims as *const RegionState<'_, T, R, E, F>) };
    state.run_from(chunk);
}

/// The queue of open regions and the shutdown flag, under one lock.
#[derive(Default)]
struct Queue {
    entries: VecDeque<Entry>,
    shutdown: bool,
}

/// State shared between the pool handle, its permits, and its workers.
struct PoolShared {
    threads: usize,
    queue: Mutex<Queue>,
    /// Signalled when an entry is queued or shutdown begins.
    work: Condvar,
    /// Remaining lendable worker permits (the thread-budget semaphore).
    budget: AtomicUsize,
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

fn worker_loop(shared: Arc<PoolShared>) {
    let mut queue = shared.queue.lock().unwrap();
    while !queue.shutdown {
        let Some(&entry) = queue.entries.front() else {
            queue = shared.work.wait(queue).unwrap();
            continue;
        };
        // SAFETY: rule (a) — the entry is queued and the queue lock is held,
        // so its opener has not returned; this thread holds no chunk of the
        // region yet, so rules (b) and (c) have nothing to keep here.
        let claims = unsafe { &*entry.claims };
        let chunk = claims.next.fetch_add(1, Ordering::Relaxed);
        if chunk + 1 >= claims.chunks {
            queue.entries.pop_front();
        }
        if chunk >= claims.chunks {
            continue;
        }
        drop(queue);
        // SAFETY: `run` is `run_claimed` of the header's exact types, and
        // `chunk` was claimed under rule (a) and is incomplete, so the region
        // stays alive while `run` claims on (rule (b)) and reads it up to its
        // decrement (rule (c)).
        unsafe { (entry.run)(entry.claims, chunk) };
        queue = shared.queue.lock().unwrap();
    }
    drop(queue);
    shared.live_workers.fetch_sub(1, Ordering::SeqCst);
    LIVE_POOL_WORKERS.fetch_sub(1, Ordering::SeqCst);
}

/// A persistent thread pool executing parallel *regions*: a region splits a
/// slice into chunks, queues one entry from which every free thread claims
/// chunks, and blocks the opening caller (who claims too) until every chunk
/// ran.
///
/// Workers are spawned lazily on the first region and torn down by
/// [`Pool::shutdown`] (idempotent; also run on drop). Opening a region
/// requires borrowing worker permits from the pool's thread-budget semaphore
/// via [`Pool::try_borrow`], which is what lets nested regions share one
/// bounded worker set instead of multiplying threads.
///
/// ```
/// use ncql_pram::Pool;
///
/// let pool = Pool::new(4);
/// let permit = pool.try_borrow(4).expect("budget starts full");
/// let items: Vec<u64> = (0..1000).collect();
/// let squares = permit
///     .run(&items, |_chunk, shard| {
///         Ok::<u64, ()>(shard.iter().map(|x| x * x).sum())
///     })
///     .unwrap();
/// assert_eq!(squares.iter().sum::<u64>(), (0..1000u64).map(|x| x * x).sum());
/// ```
pub struct Pool {
    shared: Arc<PoolShared>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.shared.threads)
            .field("spawned_workers", &self.spawned_workers())
            .field("available_budget", &self.available_budget())
            .finish()
    }
}

impl Pool {
    /// A pool with the given worker-thread count (clamped to at least 1). No
    /// thread is spawned until the first region.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        Pool {
            shared: Arc::new(PoolShared {
                threads,
                queue: Mutex::default(),
                work: Condvar::new(),
                budget: AtomicUsize::new(threads),
                spawn: Once::new(),
                handles: Mutex::new(Vec::new()),
                spawned_workers: AtomicUsize::new(0),
                live_workers: AtomicUsize::new(0),
            }),
        }
    }

    /// The configured worker-thread count (the budget semaphore's capacity).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Worker threads this pool has spawned so far (`0` until the first
    /// region runs — lazy spawning is part of the pool's contract).
    pub fn spawned_workers(&self) -> usize {
        self.shared.spawned_workers.load(Ordering::SeqCst)
    }

    /// Worker threads of this pool currently alive: `spawned_workers` minus
    /// the workers that have exited. `0` after [`Pool::shutdown`] returns (it
    /// joins every worker).
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
        let free = (self.shared.budget)
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |free| {
                (free > 0).then(|| free - desired.min(free))
            })
            .ok()?;
        Some(RegionPermit {
            shared: self.shared.clone(),
            workers: desired.min(free),
        })
    }

    /// Tear the worker set down: signal shutdown, wake every sleeper, and join
    /// all worker threads. Idempotent — later calls (including the one from
    /// `Drop`) find nothing left to join. A region in flight is *not* lost:
    /// workers finish the chunks they claimed before exiting, and the
    /// region's opening caller claims whatever is left, so it still completes
    /// (on the caller's thread alone).
    pub fn shutdown(&self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.work.notify_all();
        let handles = std::mem::take(&mut *self.shared.handles.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Pool {
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
    /// same panic discipline — so tiny inputs never touch the queue. Errors
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
            return catch(|| worker(0, items)).map(|r| vec![r]);
        }

        self.ensure_spawned();
        let state = RegionState {
            // Chunk 0 is the caller's own.
            claims: Claims {
                next: AtomicUsize::new(1),
                chunks,
            },
            items,
            worker: &worker,
            chunk_size,
            results: Mutex::new((0..chunks).map(|_| None).collect()),
            pending: AtomicUsize::new(chunks),
            done: Mutex::new(false),
            done_signal: Condvar::new(),
        };
        let entry = Entry {
            claims: &state.claims,
            run: run_claimed::<T, R, E, F>,
        };
        self.shared.queue.lock().unwrap().entries.push_back(entry);
        // Wake at most `chunks - 1` workers, with one call when that is all
        // of them: each notify is a system call on the region's critical path.
        match chunks - 1 {
            wake if wake >= self.shared.threads => self.shared.work.notify_all(),
            wake => (0..wake).for_each(|_| self.shared.work.notify_one()),
        }

        // Claim our own region's chunks until none is left, take the entry
        // off the queue if no worker popped it (rule (a)), then wait for the
        // chunks other threads still run. The ONLY exit is observing `done`
        // under its mutex — that is what makes handing stack pointers to
        // persistent threads sound (see the rules on `Claims`).
        state.run_from(0);
        let mut queue = self.shared.queue.lock().unwrap();
        queue
            .entries
            .retain(|e| !std::ptr::eq(e.claims, entry.claims));
        drop(queue);
        let mut done = state.done.lock().unwrap();
        while !*done {
            done = state.done_signal.wait(done).unwrap();
        }
        drop(done);

        // Collecting stops at the first error in chunk order, so the lowest
        // chunk index wins; later successes (and errors) drop.
        let slots = std::mem::take(&mut *state.results.lock().unwrap());
        (slots.into_iter())
            .map(|slot| slot.expect("every chunk runs exactly once before done flips"))
            .collect()
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
        Ok(per_chunk.into_iter().flatten().collect())
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
            if shared.queue.lock().unwrap().shutdown {
                return;
            }
            for index in 0..shared.threads {
                let worker_shared = Arc::clone(shared);
                // Counted before the spawn so the totals are exact the moment
                // `run` can first return (the worker only ever decrements).
                LIVE_POOL_WORKERS.fetch_add(1, Ordering::SeqCst);
                shared.live_workers.fetch_add(1, Ordering::SeqCst);
                shared.spawned_workers.fetch_add(1, Ordering::SeqCst);
                handles.push(
                    thread::Builder::new()
                        .name(format!("ncql-pool-{index}"))
                        .spawn(move || worker_loop(worker_shared))
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

    fn pool(threads: usize) -> Pool {
        Pool::new(threads)
    }

    fn borrow(pool: &Pool) -> RegionPermit {
        pool.try_borrow(pool.threads()).expect("budget starts full")
    }

    /// An order-preserving parallel map: `f` over every item, one
    /// [`RegionPermit::run`] region.
    fn map<T: Sync, R: Send, E: Send>(
        permit: &RegionPermit,
        items: &[T],
        f: impl Fn(&T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, TaskError<E>> {
        let per_chunk: Vec<Vec<R>> =
            permit.run(items, |_, chunk| chunk.iter().map(&f).collect())?;
        Ok(per_chunk.into_iter().flatten().collect())
    }

    #[test]
    fn map_preserves_order_at_every_pool_size() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let p = pool(threads);
            let out = map(&borrow(&p), &items, |x| Ok::<u64, ()>(x * x)).unwrap();
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
        let out = map(&borrow(&p), &Vec::<u64>::new(), |_| Ok::<u64, ()>(0)).unwrap();
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
        for run in 0..10 {
            let p = pool(4);
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
                "run={run}"
            );
        }
    }

    /// Regression test for the panic-propagation contract, ported from the
    /// fork/join executor onto the pool: a panicking chunk surfaces as
    /// `TaskError::Panicked` with its payload preserved across threads, the
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

    /// The server's pattern: independent threads open top-level regions on
    /// one shared pool while some of those regions open a nested region in
    /// a chunk. Every region's results come back in chunk order, every chunk
    /// runs exactly once, and every permit returns to the budget.
    #[test]
    fn concurrent_callers_share_one_pool() {
        let p = pool(2);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for caller in 0..8u64 {
                let (p, start) = (&p, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..50u64 {
                        let items: Vec<u64> = (0..3 + (caller * 50 + round) % 40).collect();
                        let permit = loop {
                            match p.try_borrow(1) {
                                Some(permit) => break permit,
                                None => std::thread::yield_now(),
                            }
                        };
                        let runs: Vec<AtomicUsize> =
                            (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
                        let chunks = permit
                            .run(&items, |index, chunk| {
                                runs[index].fetch_add(1, Ordering::SeqCst);
                                // Every third round nests a four-chunk region
                                // on the outer permit inside each chunk.
                                let inner: Vec<u64> = (0..64).collect();
                                let inner_sum: u64 = if round % 3 == 0 {
                                    permit
                                        .run(&inner, |_, c| Ok::<u64, ()>(c.iter().sum()))?
                                        .into_iter()
                                        .sum()
                                } else {
                                    inner.iter().sum()
                                };
                                assert_eq!(inner_sum, (0..64).sum::<u64>());
                                Ok::<_, TaskError<()>>((index, chunk.to_vec()))
                            })
                            .unwrap();
                        let mut seen = Vec::new();
                        for (i, (index, chunk)) in chunks.iter().enumerate() {
                            assert_eq!(i, *index, "results in chunk order");
                            seen.extend(chunk.iter().copied());
                        }
                        assert_eq!(seen, items, "caller={caller} round={round}");
                        for (i, count) in runs.iter().enumerate() {
                            let expected = usize::from(i < chunks.len());
                            assert_eq!(count.load(Ordering::SeqCst), expected, "chunk {i}");
                        }
                    }
                });
            }
        });
        assert_eq!(p.available_budget(), p.threads(), "every permit returned");
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
        // One pathological chunk sleeps; the other threads claim the rest
        // meanwhile. We can only assert completion and
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
