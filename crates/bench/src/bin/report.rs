//! Print every experiment table (the series the repository reproduces in place
//! of the paper's — nonexistent — empirical tables).
//!
//! Usage: `cargo run -p ncql-bench --bin report [--full]`
//!
//! The default run uses small, laptop-friendly parameter sweeps; `--full` uses
//! larger sweeps. The README's "Experiments" section lists what each table
//! shows and which shapes `check_shapes` gates on; committed performance
//! numbers come from `benchmark/` (see `benchmark/README.md`), not from here.

use ncql_bench as bench;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    println!("NCQL experiment report — reproducing Suciu & Breazu-Tannen, \"A Query Language for NC\" (1994)");
    println!("mode: {}\n", if full { "full" } else { "quick" });

    let tables = if full {
        vec![
            bench::e1_parity(&[16, 64, 256, 1024, 4096]),
            bench::e2_transitive_closure(&[8, 16, 32, 64, 96]),
            bench::e3_recursion_translations(&[16, 64, 128, 256]),
            bench::e4_bounded_dcr(&[4, 8, 16, 24]),
            bench::e5_dcr_logloop(&[1, 4, 9, 33, 100, 513, 2048]),
            bench::e6_circuit_depth(&[1, 2, 3], &[4, 8, 16, 32]),
            bench::e7_ptime_vs_nc(&[16, 32, 48], 8),
            bench::e8_bounded_vs_unbounded(&[4, 8, 12, 16, 20], 1 << 14),
            bench::e8b_arithmetic_blowup(&[8, 16, 32, 48]),
            bench::e9_encoding_gadgets(&[2, 4, 8, 16]),
            bench::e10_uniformity(&[2, 3, 4, 5, 6]),
            bench::e11_iteration_nesting(&[3, 7, 16, 33, 100]),
            bench::e12_wellformedness(),
        ]
    } else {
        bench::run_all_quick()
    };

    for table in &tables {
        println!("{table}");
    }

    match bench::check_shapes(&tables) {
        Ok(()) => {
            println!("All qualitative shapes hold (see README.md, \"Experiments\", for the expected shapes).")
        }
        Err(e) => {
            eprintln!("SHAPE CHECK FAILED: {e}");
            std::process::exit(1);
        }
    }
}
