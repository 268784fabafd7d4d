//! Regenerates the data behind every figure of the paper's evaluation: each
//! selected figure prints its table to stdout and writes a CSV file; the
//! docs of [`pmcast_sim::experiments::figures`] say which claim of the
//! paper each table checks.
//!
//! ```text
//! cargo run --release -p pmcast-sim --bin figures -- [FIGURE…] [FLAG…]
//!
//! FIGURE: fig4 | fig5 | fig6 | fig7 | views | baselines | rounds | all (default)
//! --quick | --paper    quick profile (default) or the paper's scale (n ≈ 10 648)
//! --json               JSON lines on stdout instead of the text tables
//! --check-model TOL    gate a model-predicted figure (fig4) at tolerance TOL
//! --out DIR            directory of the CSV files (default target/figures)
//! ```
//!
//! Anything else on the command line is a usage error (exit code 2).

fn main() -> std::process::ExitCode {
    pmcast_sim::sweep::main(None)
}
