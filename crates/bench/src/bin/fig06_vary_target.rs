//! Figure 6: inference rate in ciphertext-only mode — fixed auxiliary backup
//! (the first one), varying the target backup.
//!
//! Paper shape: rates are highest for targets adjacent to the auxiliary
//! backup and decay as updates accumulate; the VM dataset collapses once the
//! target crosses the heavy-activity window.

use freqdedup_bench::{cli, data, harness, output};
use freqdedup_core::attacks::AttackKind;

const USAGE: &str = "fig06_vary_target [--scale f] [--seed n] [--csv]";

fn main() {
    let args = cli::parse(std::env::args().skip(1), USAGE);
    println!("# Figure 6: ciphertext-only inference rate, varying target backup");
    for dataset in [
        data::Dataset::Fsl,
        data::Dataset::Synthetic,
        data::Dataset::Vm,
    ] {
        let series = data::series(dataset, args.scale, args.seed);
        let aux = series.get(0).expect("non-empty");
        let mut table = output::Table::new(&[
            "dataset",
            "target_backup",
            "basic_%",
            "locality_%",
            "advanced_%",
        ]);
        for target_idx in 1..series.len() {
            let target = series.get(target_idx).expect("target");
            let params = harness::co_params();
            let basic = harness::run_ciphertext_only(AttackKind::Basic, aux, target, &params);
            let locality = harness::run_ciphertext_only(AttackKind::Locality, aux, target, &params);
            let advanced = if dataset == data::Dataset::Vm {
                locality
            } else {
                harness::run_ciphertext_only(AttackKind::Advanced, aux, target, &params)
            };
            table.push_row(vec![
                dataset.name().into(),
                target.label.clone(),
                output::pct(basic.rate),
                output::pct(locality.rate),
                output::pct(advanced.rate),
            ]);
        }
        println!("\n## {dataset} dataset (auxiliary: {})", aux.label);
        table.print(args.csv);
    }
}
