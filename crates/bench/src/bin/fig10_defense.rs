//! Figure 10: defense effectiveness — inference rate of the advanced attack
//! in known-plaintext mode against MinHash encryption alone and against the
//! combined MinHash + scrambling scheme, varying the leakage rate.
//!
//! Paper shape: MinHash encryption alone suppresses the attack to single
//! digits; the combined scheme suppresses it to ≈ 0.2%, essentially just the
//! leaked chunks themselves.

use freqdedup_bench::{cli, data, harness, output};
use freqdedup_core::defense::MinHashScrambleScheme;

const USAGE: &str = "fig10_defense [--scale f] [--seed n] [--csv]";

/// Same (dataset, aux, target) pairs as Figure 8.
const PAIRS: [(data::Dataset, usize, usize); 3] = [
    (data::Dataset::Fsl, 2, 4),
    (data::Dataset::Synthetic, 0, 5),
    (data::Dataset::Vm, 8, 12),
];

fn main() {
    let args = cli::parse(std::env::args().skip(1), USAGE);
    println!("# Figure 10: inference rate under MinHash-only and Combined defenses");
    let mut table = output::Table::new(&[
        "dataset",
        "leakage_%",
        "undefended_%",
        "minhash_%",
        "combined_%",
    ]);
    for (dataset, aux_idx, target_idx) in PAIRS {
        let series = data::series(dataset, args.scale, args.seed);
        let aux = series.get(aux_idx).expect("aux");
        let target = series.get(target_idx).expect("target");
        let params = harness::kp_params();
        let seg = harness::segment_params(dataset.avg_chunk_size());
        let minhash = MinHashScrambleScheme::minhash_only(seg.clone());
        let combined = MinHashScrambleScheme::combined(seg, 0xdef);
        for leakage in [0.0, 0.0005, 0.001, 0.0015, 0.002] {
            let undefended = harness::run_known_plaintext(
                freqdedup_core::attacks::AttackKind::Advanced,
                aux,
                target,
                &params,
                leakage,
                42,
            );
            let mh = harness::run_defended(&minhash, aux, target, &params, leakage, 42);
            let cb = harness::run_defended(&combined, aux, target, &params, leakage, 42);
            table.push_row(vec![
                dataset.name().into(),
                format!("{:.2}", leakage * 100.0),
                output::pct(undefended.rate),
                output::pct(mh.rate),
                output::pct(cb.rate),
            ]);
        }
    }
    table.print(args.csv);
}
