//! Ablation: tie-break policy in frequency analysis.
//!
//! §4.1 of the paper notes that "how to break a tie during sorting also
//! affects the frequency rank and hence the inference results". This
//! ablation quantifies just how much: each side of an FSL or VM pair is
//! counted **once**, and the locality attack crawls that state twice —
//! ranking ties by the paper's sequential-list neighbour order
//! (`StreamOrder`, ties stay aligned across versions) and by fingerprint
//! key order (`KeyOrder`, ties randomize). The policy is a property of the
//! sort, not of the counts. The gap is typically an order of magnitude —
//! the single most result-sensitive implementation detail in the whole
//! attack.

use freqdedup_bench::{cli, data, harness, output};
use freqdedup_core::attacks::{self, AttackKind};
use freqdedup_core::dense::DenseStats;
use freqdedup_core::metrics;
use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;

const USAGE: &str = "ablation_tiebreak [--scale f] [--seed n] [--threads t] [--csv]";

fn main() {
    let args = cli::parse(std::env::args().skip(1), USAGE);
    println!("# Ablation: neighbour-table tie-break policy (locality attack, ciphertext-only)");
    let mut table = output::Table::new(&["dataset", "aux_backup", "stream_order_%", "key_order_%"]);
    for dataset in [data::Dataset::Fsl, data::Dataset::Vm] {
        let series = data::series(dataset, args.scale, args.seed);
        let target = series.latest().expect("non-empty");
        let enc = DeterministicTraceEncryptor::new(harness::MLE_SECRET);
        let observed = enc.encrypt_backup(target);
        let params = harness::co_params().threads(args.threads);
        let sc = DenseStats::full_par(&observed.backup, params.par_config());
        for aux_idx in [series.len() - 3, series.len() - 2] {
            let aux = series.get(aux_idx).expect("aux");
            let sm = DenseStats::full_par(aux, params.par_config());
            // `[StreamOrder, KeyOrder]`, in that order.
            let rates = attacks::run_ciphertext_only_with_stats_both_policies(
                AttackKind::Locality,
                &sc,
                &sm,
                &params,
            )
            .map(|(_, inferred)| metrics::score(&inferred, &observed.backup, &observed.truth).rate);
            table.push_row(vec![
                dataset.name().into(),
                aux.label.clone(),
                output::pct(rates[0]),
                output::pct(rates[1]),
            ]);
        }
    }
    table.print(args.csv);
}
