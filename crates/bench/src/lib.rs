//! Reproduction harness for the LogR paper's evaluation.
//!
//! One module per table/figure (`repro --help` lists the experiment ids).
//! The `repro` binary dispatches to [`experiments`]; every experiment
//! prints an aligned text table to stdout and writes a CSV under
//! `results/`.
//!
//! Absolute numbers will differ from the paper (synthetic data, different
//! machine, Rust vs Python/MATLAB/PostgreSQL substrates) — the claims being
//! reproduced are the *shapes*: who wins, convergence trends, crossovers,
//! and orders of magnitude between methods.

pub mod datasets;
pub mod experiments;
pub mod report;

pub use datasets::Scale;

/// Run one experiment by id (`table1`, `fig2` … `fig10`, or `all`).
pub fn run_experiment(id: &str, scale: Scale) -> Result<(), String> {
    match id {
        "table1" => experiments::table1::run(scale),
        "fig2" => experiments::fig2::run(scale),
        "fig3" => experiments::fig3::run(scale),
        "fig4" => experiments::fig4::run(scale),
        "fig5" => experiments::fig5::run(scale),
        "table2" => experiments::table2::run(scale),
        "fig6" => experiments::fig6::run(scale),
        "fig7" => experiments::fig7::run(scale),
        "fig8" => experiments::fig8::run(scale),
        "fig9" => experiments::fig9::run(scale),
        "fig10" => experiments::fig10::run(scale),
        "all" => {
            for id in [
                "table1", "fig2", "fig3", "fig4", "fig5", "table2", "fig6", "fig7", "fig8", "fig9",
                "fig10",
            ] {
                run_experiment(id, scale)?;
            }
            Ok(())
        }
        other => Err(format!(
            "unknown experiment '{other}' (expected table1, fig2..fig10, table2, or all)"
        )),
    }
}
