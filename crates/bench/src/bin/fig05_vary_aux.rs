//! Figure 5: inference rate in ciphertext-only mode — fixed target (the
//! latest backup), varying the auxiliary backup.
//!
//! Paper shape: the basic attack is negligible everywhere (≤ 0.02%); the
//! locality-based and advanced attacks climb as the auxiliary backup gets
//! closer to the target, reaching tens of percent with the most recent
//! auxiliary; the advanced attack dominates the locality attack on
//! variable-size datasets and equals it on the fixed-size VM dataset, where
//! backups before the heavy-activity window are nearly useless as auxiliary
//! information.

use freqdedup_bench::{cli, data, harness, output};
use freqdedup_core::attacks::AttackKind;

const USAGE: &str = "fig05_vary_aux [--scale f] [--seed n] [--csv]";

fn main() {
    let args = cli::parse(std::env::args().skip(1), USAGE);
    println!("# Figure 5: ciphertext-only inference rate, varying auxiliary backup");
    for dataset in [
        data::Dataset::Fsl,
        data::Dataset::Synthetic,
        data::Dataset::Vm,
    ] {
        let series = data::series(dataset, args.scale, args.seed);
        let target = series.latest().expect("non-empty series");
        let mut table = output::Table::new(&[
            "dataset",
            "aux_backup",
            "basic_%",
            "locality_%",
            "advanced_%",
        ]);
        for aux_idx in 0..series.len() - 1 {
            let aux = series.get(aux_idx).expect("aux");
            let params = harness::co_params();
            let basic = harness::run_ciphertext_only(AttackKind::Basic, aux, target, &params);
            let locality = harness::run_ciphertext_only(AttackKind::Locality, aux, target, &params);
            // On fixed-size chunking the advanced attack is identical.
            let advanced = if dataset == data::Dataset::Vm {
                locality
            } else {
                harness::run_ciphertext_only(AttackKind::Advanced, aux, target, &params)
            };
            table.push_row(vec![
                dataset.name().into(),
                aux.label.clone(),
                output::pct(basic.rate),
                output::pct(locality.rate),
                output::pct(advanced.rate),
            ]);
        }
        println!("\n## {dataset} dataset (target: {})", target.label);
        table.print(args.csv);
    }
}
