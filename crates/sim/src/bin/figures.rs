//! Regenerates the data behind every figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p pmcast-sim --bin figures -- [FIGURE…] [--paper] [--out DIR]
//!
//! FIGURE: fig4 | fig5 | fig6 | fig7 | views | baselines | rounds | all (default)
//! --paper    run at the paper's scale (n ≈ 10 648, more trials; slower)
//! --out DIR  output directory for the CSV files (default target/figures)
//! ```
//!
//! Every selected experiment prints an ASCII table to stdout and writes a
//! CSV file to the output directory; the module docs of
//! [`pmcast_sim::experiments`] say which claim of the paper each table
//! checks.

use std::path::PathBuf;
use std::process::ExitCode;

use pmcast_sim::experiments::{
    baselines, reliability, rounds, scalability, spurious, tuning, views, Profile,
};
use pmcast_sim::report::{default_output_dir, to_ascii_table, write_csv, FigureRow};

struct Options {
    figures: Vec<String>,
    profile: Profile,
    output: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut figures = Vec::new();
    let mut profile = Profile::Quick;
    let mut output = default_output_dir();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--paper" => profile = Profile::Paper,
            "--quick" => profile = Profile::Quick,
            "--out" => {
                let dir = iter
                    .next()
                    .ok_or_else(|| "--out requires a directory argument".to_string())?;
                output = PathBuf::from(dir);
            }
            "--help" | "-h" => {
                return Err("usage: figures [fig4|fig5|fig6|fig7|views|baselines|rounds|all]… [--paper] [--out DIR]"
                    .to_string())
            }
            name => figures.push(name.to_string()),
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    Ok(Options {
        figures,
        profile,
        output,
    })
}

fn emit<R: FigureRow>(options: &Options, name: &str, title: &str, rows: &[R]) {
    println!("{}", to_ascii_table(title, rows));
    match write_csv(&options.output, name, rows) {
        Ok(path) => println!("wrote {}\n", path.display()),
        Err(error) => eprintln!("could not write {name}.csv: {error}\n"),
    }
}

fn run_figure(options: &Options, name: &str) -> Result<(), String> {
    let profile = options.profile;
    match name {
        "fig4" => emit(
            options,
            "fig4_reliability",
            "Figure 4 — delivery probability of interested processes",
            &reliability::run(profile),
        ),
        "fig5" => emit(
            options,
            "fig5_uninterested",
            "Figure 5 — reception probability of uninterested processes",
            &spurious::run(profile),
        ),
        "fig6" => emit(
            options,
            "fig6_scalability",
            "Figure 6 — scalability with growing subgroup size",
            &scalability::run(profile),
        ),
        "fig7" => emit(
            options,
            "fig7_tuning",
            "Figure 7 — tuned vs untuned algorithm",
            &tuning::run(profile),
        ),
        "views" => emit(
            options,
            "view_sizes",
            "Membership scalability — per-process view sizes (Eq. 2/12)",
            &views::run(profile),
        ),
        "baselines" => emit(
            options,
            "baseline_comparison",
            "Baselines — pmcast vs flooding broadcast vs genuine multicast",
            &baselines::run(profile),
        ),
        "rounds" => emit(
            options,
            "rounds_bound",
            "Rounds — simulated rounds vs analytical budget (Eq. 13)",
            &rounds::run(profile),
        ),
        "all" => {
            for figure in ["fig4", "fig5", "fig6", "fig7", "views", "baselines", "rounds"] {
                run_figure(options, figure)?;
            }
        }
        other => return Err(format!("unknown figure {other:?}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    for figure in options.figures.clone() {
        if let Err(message) = run_figure(&options, &figure) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
