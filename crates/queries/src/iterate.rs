//! Example 7.2: controlling the number of iterations through `loop` / `log-loop`
//! nesting.
//!
//! "Let n = card(x). loop(f) and log-loop(f) allow us to iterate n and log n
//! times respectively. To iterate n² times, it suffices to loop over x × x,
//! which has n² elements. To iterate log² n times, we use a depth two of
//! iteration nesting."
//!
//! The builders here iterate a *counting* function (successor on the external
//! naturals) so that `counts_match_the_predicted_iteration_numbers` can read
//! the achieved iteration count directly off the result value.

use ncql_core::derived;
use ncql_core::expr::{fresh_var, Expr};
use ncql_object::Type;

/// The counting body `λc. c + 1` at type `ℕ → ℕ`.
pub fn increment_body() -> Expr {
    Expr::lam(
        "c",
        Type::Nat,
        Expr::extern_call("nat_add", vec![Expr::var("c"), Expr::nat(1)]),
    )
}

/// Iterate `|set|` times: `loop(+1)(set, 0)` — evaluates to the natural `n`.
pub fn count_n(set: Expr) -> Expr {
    Expr::loop_(increment_body(), set, Expr::nat(0))
}

/// Iterate `|set|²` times by looping over `set × set` — evaluates to `n²`.
pub fn count_n_squared(set: Expr) -> Expr {
    let s = fresh_var("sq");
    Expr::let_in(
        s.clone(),
        set,
        Expr::loop_(
            increment_body(),
            derived::cartesian_product(Type::Base, Type::Base, Expr::var(s.clone()), Expr::var(s)),
            Expr::nat(0),
        ),
    )
}

/// Iterate `⌈log(|set|+1)⌉` times — evaluates to that logarithm.
pub fn count_log_n(set: Expr) -> Expr {
    Expr::log_loop(increment_body(), set, Expr::nat(0))
}

/// Iterate `⌈log(|set|+1)⌉²` times with iteration-nesting depth two: an outer
/// `log-loop` whose body runs an inner `log-loop` that adds `⌈log(n+1)⌉` to the
/// counter.
pub fn count_log_squared_n(set: Expr) -> Expr {
    let s = fresh_var("lsq");
    Expr::let_in(
        s.clone(),
        set,
        Expr::log_loop(
            Expr::lam(
                "outer",
                Type::Nat,
                Expr::log_loop(increment_body(), Expr::var(s.clone()), Expr::var("outer")),
            ),
            Expr::var(s),
            Expr::nat(0),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_core::analysis;
    use ncql_core::cost::log_rounds;
    use ncql_core::eval::eval_closed;
    use ncql_core::typecheck::typecheck_closed;
    use ncql_object::Value;

    fn atoms(n: u64) -> Expr {
        Expr::constant(Value::atom_set(0..n))
    }

    #[test]
    fn counts_match_the_predicted_iteration_numbers() {
        for n in [0u64, 1, 2, 3, 5, 8, 13, 21] {
            let logn = log_rounds(n as usize);
            assert_eq!(
                eval_closed(&count_n(atoms(n))).unwrap(),
                Value::Nat(n),
                "n={n}"
            );
            assert_eq!(
                eval_closed(&count_n_squared(atoms(n))).unwrap(),
                Value::Nat(n * n),
                "n²  n={n}"
            );
            assert_eq!(
                eval_closed(&count_log_n(atoms(n))).unwrap(),
                Value::Nat(logn),
                "log n  n={n}"
            );
            assert_eq!(
                eval_closed(&count_log_squared_n(atoms(n))).unwrap(),
                Value::Nat(logn * logn),
                "log² n  n={n}"
            );
        }
    }

    #[test]
    fn nesting_depths_match_example_7_2() {
        assert_eq!(analysis::recursion_depth(&count_n(atoms(4))), 1);
        assert_eq!(analysis::recursion_depth(&count_n_squared(atoms(4))), 1);
        assert_eq!(analysis::recursion_depth(&count_log_n(atoms(4))), 1);
        assert_eq!(analysis::recursion_depth(&count_log_squared_n(atoms(4))), 2);
    }

    #[test]
    fn counters_typecheck_to_nat() {
        for q in [
            count_n(atoms(3)),
            count_n_squared(atoms(3)),
            count_log_n(atoms(3)),
            count_log_squared_n(atoms(3)),
        ] {
            assert_eq!(typecheck_closed(&q).unwrap(), Type::Nat);
        }
    }
}
