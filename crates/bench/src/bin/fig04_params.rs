//! Figure 4: impact of the locality-attack parameters `u`, `v`, `w` on the
//! inference rate (ciphertext-only mode).
//!
//! Paper setup: FSL with the Mar 22 backup as auxiliary information against
//! the May 21 target; VM with week 12 against week 13. Paper shape: the rate
//! *decreases* with `u` (bad seeds pollute the inferred set), peaks around
//! `v = 15`, and increases with `w` until saturating around 200,000.

use freqdedup_bench::{cli, data, harness, output};
use freqdedup_core::attacks::locality::{LocalityAttack, LocalityParams};
use freqdedup_core::metrics;
use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup_trace::Backup;

const USAGE: &str = "fig04_params [--scale f] [--seed n] [--csv]";

fn rate(u: usize, v: usize, w: usize, aux: &Backup, target: &Backup) -> f64 {
    let enc = DeterministicTraceEncryptor::new(harness::MLE_SECRET);
    let observed = enc.encrypt_backup(target);
    let attack = LocalityAttack::new(LocalityParams::new(u, v, w));
    let inferred = attack.run_ciphertext_only(&observed.backup, aux);
    metrics::score(&inferred, &observed.backup, &observed.truth).rate
}

fn main() {
    let args = cli::parse(std::env::args().skip(1), USAGE);
    println!("# Figure 4: locality-attack parameter sensitivity (ciphertext-only)");

    let fsl = data::fsl_series(args.scale, args.seed);
    let vm = data::vm_series(args.scale, args.seed);
    let pairs: [(&str, &Backup, &Backup); 2] = [
        ("FSL", fsl.get(2).unwrap(), fsl.get(4).unwrap()),
        ("VM", vm.get(11).unwrap(), vm.get(12).unwrap()),
    ];

    // (a) varying u, fixed v=20, w=100,000.
    let mut ta = output::Table::new(&["dataset", "u", "inference_%"]);
    for &(name, aux, target) in &pairs {
        for u in [1usize, 3, 5, 7, 10, 13, 15, 17, 20] {
            ta.push_row(vec![
                name.into(),
                u.to_string(),
                output::pct(rate(u, 20, 100_000, aux, target)),
            ]);
        }
    }
    println!("\n## (a) varying u (v=20, w=100,000)");
    ta.print(args.csv);

    // (b) varying v, fixed u=10, w=100,000.
    let mut tb = output::Table::new(&["dataset", "v", "inference_%"]);
    for &(name, aux, target) in &pairs {
        for v in [5usize, 10, 15, 20, 25, 30, 35, 40] {
            tb.push_row(vec![
                name.into(),
                v.to_string(),
                output::pct(rate(10, v, 100_000, aux, target)),
            ]);
        }
    }
    println!("\n## (b) varying v (u=10, w=100,000)");
    tb.print(args.csv);

    // (c) varying w, fixed u=10, v=20.
    let mut tc = output::Table::new(&["dataset", "w", "inference_%"]);
    for &(name, aux, target) in &pairs {
        for w in [50_000usize, 100_000, 150_000, 200_000] {
            tc.push_row(vec![
                name.into(),
                w.to_string(),
                output::pct(rate(10, 20, w, aux, target)),
            ]);
        }
    }
    println!("\n## (c) varying w (u=10, v=20)");
    tc.print(args.csv);
}
