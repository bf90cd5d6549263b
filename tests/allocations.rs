//! Allocation guards, counted by a `#[global_allocator]` that tallies each
//! thread's allocations (tests run concurrently, each on its own thread):
//!
//! * the cost analyser's constants are plain numbers — building, summing,
//!   joining, multiplying, scaling and evaluating constant polynomials and
//!   bounds allocates nothing, and most of the charges a prepare sums are
//!   constants;
//! * a plan-cache hit allocates nothing — the probe borrows the query text
//!   and the schema, and only a miss builds an owned key.

use ncql::core::{Bound, Poly};
use ncql::object::Type;
use ncql::Session;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and count the allocations it makes on this thread. What `f`
/// returns is dropped after the count is taken.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn constant_polynomials_and_bounds_allocate_nothing() {
    let (a, b) = (black_box(3u64), black_box(5u64));
    let ((poly, bound), count) = allocations_in(|| {
        let zero = Poly::zero();
        let poly = Poly::constant(a)
            .add(&Poly::constant(b))
            .add_const(a)
            .join(&zero)
            .mul(&Poly::constant(b))
            .scale(a);
        let bound = Bound::constant(a)
            .add(&Bound::constant(b))
            .add_const(a)
            .join(&Bound::constant(b))
            .mul(&Bound::constant(b));
        (poly, bound)
    });
    assert_eq!(count, 0, "constant arithmetic allocated {count} times");
    let (closed, count) = allocations_in(|| (poly.eval_closed(), bound.eval_closed()));
    assert_eq!(count, 0, "evaluating a constant allocated {count} times");
    assert_eq!(closed, (Some(165), Some(55)));
}

#[test]
fn a_plan_cache_hit_allocates_nothing() {
    let session = Session::new();
    let schema = vec![("r".to_string(), Type::set(Type::Base))];
    let text = "ext(\\x: atom. {x}, r)";
    let first = session.prepare_with_schema(text, &schema).unwrap();
    let (hit, count) = allocations_in(|| session.prepare_with_schema(text, &schema));
    assert_eq!(count, 0, "a cache hit allocated {count} times");
    assert!(hit.unwrap().ptr_eq(&first));
    let metrics = session.cache_metrics();
    assert_eq!((metrics.hits, metrics.misses), (1, 1));
}
