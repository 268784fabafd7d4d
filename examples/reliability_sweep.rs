//! A miniature Figure 4: sweep the fraction of interested processes and
//! print, for every matching rate, the simulated delivery probability next
//! to the analytical prediction of Section 4.
//!
//! The `predicted` column is the scenario-level closed loop
//! (`pmcast_sim::prediction::predict` over the same experiment point);
//! `--check-model <tol>` exits nonzero when any rate drifts beyond the
//! tolerance.
//!
//! ```text
//! cargo run --release --example reliability_sweep          # quick (n = 216)
//! cargo run --release --example reliability_sweep -- paper # n = 10 648, slower
//! cargo run --release --example reliability_sweep -- --json
//! cargo run --release --example reliability_sweep -- --check-model 0.08
//! ```

use std::error::Error;

use pmcast::analysis::tree::TreeModel;
use pmcast::sim::experiments::{reliability, Profile};
use pmcast::{parse_check_model, predict, EnvParams, GroupParams};

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut gate, args) = parse_check_model(&args);
    let paper_scale = args.iter().any(|a| a == "paper" || a == "--paper");
    let json = args.iter().any(|a| a == "--json");
    let profile = if paper_scale { Profile::Paper } else { Profile::Quick };
    if !json {
        println!(
            "running the Figure 4 sweep with the {} profile…\n",
            if paper_scale { "paper (n = 10 648)" } else { "quick (n = 216)" }
        );
    }

    let rows = reliability::run(profile);
    if !json {
        println!(
            "{:>14} {:>20} {:>12} {:>22} {:>10} {:>8}",
            "matching rate", "delivery (simulated)", "std dev", "delivery (analytical)", "predicted", "rounds"
        );
    }
    let base = profile.reliability_base();
    for row in &rows {
        // The same experiment point, as the scenario the prediction module
        // maps onto the model — `delivery_analytical` is the legacy
        // tree-model column, `predicted` the scenario-level loop.
        let scenario = base.clone().matching_rate(row.matching_rate).build();
        let prediction = predict(&scenario);
        if let Some(gate) = gate.as_mut() {
            gate.record(
                &format!("reliability_sweep p_d={}", row.matching_rate),
                &prediction,
                row.delivery_simulated,
            );
        }
        if json {
            println!(
                "{{\"matching_rate\":{},\"delivery_simulated\":{:.4},\"delivery_std\":{:.4},\
                 \"delivery_analytical\":{:.4},\"rounds\":{:.1},{}}}",
                row.matching_rate,
                row.delivery_simulated,
                row.delivery_std,
                row.delivery_analytical,
                row.rounds,
                prediction.json_fields()
            );
        } else {
            println!(
                "{:>14.2} {:>20.4} {:>12.4} {:>22.4} {:>10} {:>8.1}",
                row.matching_rate,
                row.delivery_simulated,
                row.delivery_std,
                row.delivery_analytical,
                prediction.display(),
                row.rounds
            );
        }
    }

    // The analytical model also covers configurations we did not simulate;
    // show the predicted effect of a larger fanout.
    if !json {
        let base = if paper_scale {
            GroupParams { arity: 22, depth: 3, redundancy: 3, fanout: 2 }
        } else {
            GroupParams { arity: 6, depth: 3, redundancy: 3, fanout: 2 }
        };
        println!("\nanalytical what-if: delivery at p_d = 0.2 as the fanout grows");
        for fanout in [1, 2, 3, 4, 5] {
            let model = TreeModel::new(GroupParams { fanout, ..base }, EnvParams::default());
            let report = model.reliability(0.2);
            println!(
                "  F = {fanout}: reliability degree {:.4}, {} total rounds",
                report.reliability_degree, report.total_rounds
            );
        }
    }
    if let Some(gate) = gate {
        eprintln!("{}", gate.summary());
        if let Err(drift) = gate.verdict() {
            eprintln!("{drift}");
            std::process::exit(1);
        }
    }
    Ok(())
}
