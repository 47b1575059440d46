//! Shared driver for the metadata-access experiments (Figures 13 and 14).

use freqdedup_core::defense::MinHashScrambleScheme;
use freqdedup_store::engine::{DedupConfig, DedupEngine};
use freqdedup_store::stats::MetadataAccess;
use freqdedup_trace::BackupSeries;

use crate::{data, harness, output};

/// Result of ingesting one series: per-backup metadata-access deltas.
#[derive(Clone, Debug)]
pub struct MetadataRun {
    /// Backup labels, in ingest order.
    pub labels: Vec<String>,
    /// Per-backup metadata access (delta, not cumulative).
    pub per_backup: Vec<MetadataAccess>,
}

impl MetadataRun {
    /// Total metadata bytes across all backups.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.per_backup
            .iter()
            .map(MetadataAccess::total_bytes)
            .sum()
    }
}

/// Ingests a series through the DDFS-like engine and records per-backup
/// metadata-access deltas. `cache_entries` sizes the fingerprint cache.
#[must_use]
pub fn ingest(series: &BackupSeries, cache_entries: usize) -> MetadataRun {
    let total_unique: usize = {
        let mut seen = std::collections::HashSet::new();
        for b in series {
            for rec in b {
                seen.insert(rec.fp);
            }
        }
        seen.len()
    };
    let mut engine = DedupEngine::new(DedupConfig {
        container_bytes: 4 * 1024 * 1024,
        cache_entries,
        entry_bytes: 32,
        bloom_expected: (total_unique as u64).max(1024),
        bloom_fp_rate: 0.01,
        persist: None,
    })
    .expect("valid config");

    let mut labels = Vec::new();
    let mut per_backup = Vec::new();
    let mut prev = MetadataAccess::default();
    for backup in series {
        engine.ingest_backup(backup);
        let now = engine.metadata_access();
        labels.push(backup.label.clone());
        per_backup.push(now - prev);
        prev = now;
    }
    engine.finish();
    MetadataRun { labels, per_backup }
}

/// Counts distinct fingerprints across a series.
#[must_use]
pub fn unique_fingerprints(series: &BackupSeries) -> usize {
    let mut seen = std::collections::HashSet::new();
    for b in series {
        for rec in b {
            seen.insert(rec.fp);
        }
    }
    seen.len()
}

/// Runs the full Figure 13/14 experiment: the FSL series under plain MLE and
/// under the combined defense, through a cache holding `cache_frac` of the
/// total fingerprint population (the paper's 512 MB ≈ 25% of fingerprint
/// metadata; 4 GB ≈ 200%).
pub fn run(scale: f64, seed: Option<u64>, cache_frac: f64, csv: bool) {
    let series = data::fsl_series(scale, seed);
    let scheme = MinHashScrambleScheme::combined(harness::segment_params(8192), 0xdef);

    // Under plain deterministic MLE the ciphertext stream has exactly the
    // plaintext's fingerprint structure, so ingest the plaintext series;
    // the combined scheme changes both the fingerprints and the order.
    let (defended, _) = scheme.encrypt_series(&series);

    let n_mle = unique_fingerprints(&series);
    let n_comb = unique_fingerprints(&defended);
    let cache_entries = ((n_mle as f64) * cache_frac) as usize;
    println!(
        "# cache: {cache_entries} entries (= {} of {} unique MLE fingerprints, {} combined)",
        format_args!("{:.0}%", cache_frac * 100.0),
        n_mle,
        n_comb
    );

    let mle = ingest(&series, cache_entries);
    let comb = ingest(&defended, cache_entries);

    let mut overall = output::Table::new(&["backup", "mle_MiB", "combined_MiB", "overhead_%"]);
    for i in 0..mle.labels.len() {
        let m = mle.per_backup[i].total_bytes();
        let c = comb.per_backup[i].total_bytes();
        let overhead = if m == 0 {
            0.0
        } else {
            (c as f64 - m as f64) / m as f64 * 100.0
        };
        overall.push_row(vec![
            mle.labels[i].clone(),
            output::mib(m),
            output::mib(c),
            format!("{overhead:+.1}"),
        ]);
    }
    println!("\n## (a) overall metadata access per backup");
    overall.print(csv);

    for (name, run) in [("MLE", &mle), ("combined", &comb)] {
        let mut breakdown = output::Table::new(&[
            "backup",
            "update_MiB",
            "index_MiB",
            "loading_MiB",
            "loading_frac_%",
        ]);
        for (label, m) in run.labels.iter().zip(&run.per_backup) {
            breakdown.push_row(vec![
                label.clone(),
                output::mib(m.update_bytes),
                output::mib(m.index_bytes),
                output::mib(m.loading_bytes),
                format!("{:.1}", m.loading_fraction() * 100.0),
            ]);
        }
        println!("\n## breakdown for {name}");
        breakdown.print(csv);
    }
}
