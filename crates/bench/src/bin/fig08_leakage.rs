//! Figure 8: inference rate in known-plaintext mode, varying the leakage
//! rate (0–0.2% of the target's unique ciphertext chunks).
//!
//! Paper setup: FSL Mar 22 → May 21, synthetic snap-00 → snap-05, VM week 9
//! → week 13; `w` raised to 500,000. Paper shape: a tiny leakage lifts the
//! inference rate substantially (every leaked pair seeds new crawls).

use freqdedup_bench::{cli, data, harness, output};
use freqdedup_core::attacks::AttackKind;

const USAGE: &str = "fig08_leakage [--scale f] [--seed n] [--csv]";

/// (dataset, aux index, target index) per the paper's §5.3.3 setup.
pub const PAIRS: [(data::Dataset, usize, usize); 3] = [
    (data::Dataset::Fsl, 2, 4),
    (data::Dataset::Synthetic, 0, 5),
    (data::Dataset::Vm, 8, 12),
];

fn main() {
    let args = cli::parse(std::env::args().skip(1), USAGE);
    println!("# Figure 8: known-plaintext mode, varying leakage rate");
    let mut table = output::Table::new(&["dataset", "leakage_%", "locality_%", "advanced_%"]);
    for (dataset, aux_idx, target_idx) in PAIRS {
        let series = data::series(dataset, args.scale, args.seed);
        let aux = series.get(aux_idx).expect("aux");
        let target = series.get(target_idx).expect("target");
        let params = harness::kp_params();
        for leakage in [0.0, 0.0005, 0.001, 0.0015, 0.002] {
            let locality = harness::run_known_plaintext(
                AttackKind::Locality,
                aux,
                target,
                &params,
                leakage,
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
                    leakage,
                    42,
                )
            };
            table.push_row(vec![
                dataset.name().into(),
                format!("{:.2}", leakage * 100.0),
                output::pct(locality.rate),
                output::pct(advanced.rate),
            ]);
        }
    }
    table.print(args.csv);
}
