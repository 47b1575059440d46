//! Figure 9: inference rate in known-plaintext mode (leakage fixed at
//! 0.05%), varying the auxiliary backup.
//!
//! Same targets as Figure 8. Paper shape: the same recency gradient as
//! Figure 5, uniformly lifted by the leaked seeds.

use freqdedup_bench::{cli, data, harness, output};
use freqdedup_core::attacks::AttackKind;

const USAGE: &str = "fig09_kp_vary_aux [--scale f] [--seed n] [--csv]";

/// Per-dataset target index (same as Figure 8).
const TARGETS: [(data::Dataset, usize); 3] = [
    (data::Dataset::Fsl, 4),
    (data::Dataset::Synthetic, 5),
    (data::Dataset::Vm, 12),
];

const LEAKAGE: f64 = 0.0005; // 0.05%

fn main() {
    let args = cli::parse(std::env::args().skip(1), USAGE);
    println!("# Figure 9: known-plaintext mode (leakage 0.05%), varying auxiliary backup");
    for (dataset, target_idx) in TARGETS {
        let series = data::series(dataset, args.scale, args.seed);
        let target = series.get(target_idx).expect("target");
        let params = harness::kp_params();
        let mut table = output::Table::new(&["dataset", "aux_backup", "locality_%", "advanced_%"]);
        for aux_idx in 0..target_idx {
            let aux = series.get(aux_idx).expect("aux");
            let locality = harness::run_known_plaintext(
                AttackKind::Locality,
                aux,
                target,
                &params,
                LEAKAGE,
                42,
            );
            let advanced = if dataset == data::Dataset::Vm {
                locality
            } else {
                harness::run_known_plaintext(
                    AttackKind::Advanced,
                    aux,
                    target,
                    &params,
                    LEAKAGE,
                    42,
                )
            };
            table.push_row(vec![
                dataset.name().into(),
                aux.label.clone(),
                output::pct(locality.rate),
                output::pct(advanced.rate),
            ]);
        }
        println!("\n## {dataset} dataset (target: {})", target.label);
        table.print(args.csv);
    }
}
