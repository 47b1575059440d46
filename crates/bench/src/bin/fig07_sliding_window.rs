//! Figure 7: inference rate over a sliding window — auxiliary backup `t`,
//! target backup `t+s`.
//!
//! Paper shape: the advanced attack dominates the locality attack for every
//! window on variable-size datasets; larger `s` lowers the rate; the VM
//! dataset fluctuates wildly around its heavy-activity window.

use freqdedup_bench::{cli, data, harness, output};
use freqdedup_core::attacks::AttackKind;

const USAGE: &str = "fig07_sliding_window [--scale f] [--seed n] [--csv]";

fn main() {
    let args = cli::parse(std::env::args().skip(1), USAGE);
    println!("# Figure 7: ciphertext-only inference rate over a sliding window");
    for dataset in [
        data::Dataset::Fsl,
        data::Dataset::Synthetic,
        data::Dataset::Vm,
    ] {
        let series = data::series(dataset, args.scale, args.seed);
        let windows: &[usize] = if dataset == data::Dataset::Vm {
            &[1, 2, 3]
        } else {
            &[1, 2]
        };
        let mut table =
            output::Table::new(&["dataset", "aux_backup", "s", "locality_%", "advanced_%"]);
        for &s in windows {
            for t in 0..series.len().saturating_sub(s) {
                let aux = series.get(t).expect("aux");
                let target = series.get(t + s).expect("target");
                let params = harness::co_params();
                let locality =
                    harness::run_ciphertext_only(AttackKind::Locality, aux, target, &params);
                let advanced = if dataset == data::Dataset::Vm {
                    locality
                } else {
                    harness::run_ciphertext_only(AttackKind::Advanced, aux, target, &params)
                };
                table.push_row(vec![
                    dataset.name().into(),
                    aux.label.clone(),
                    s.to_string(),
                    output::pct(locality.rate),
                    output::pct(advanced.rate),
                ]);
            }
        }
        println!("\n## {dataset} dataset");
        table.print(args.csv);
    }
}
