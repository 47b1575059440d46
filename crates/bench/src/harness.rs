//! Attack/defense experiment drivers shared by the figure binaries, plus
//! the backup pair and store sizing `tournament` and `fault_overhead` run on.

use std::time::Instant;

use freqdedup_chunking::segment::SegmentParams;
use freqdedup_core::attacks::locality::LocalityParams;
use freqdedup_core::attacks::{self, AttackKind};
use freqdedup_core::defense::{DefenseScheme, KeyContext};
use freqdedup_core::metrics::{self, InferenceReport};
use freqdedup_datasets::fsl::{self, FslConfig};
use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup_store::engine::DedupConfig;
use freqdedup_trace::Backup;

/// The system-wide MLE secret used by all experiments (arbitrary; the
/// adversary never learns it).
pub const MLE_SECRET: &[u8] = b"freqdedup-experiment-secret";

/// The determinism seed every experiment hands to its defense scheme.
pub const DEFENSE_SEED: u64 = 0xdef;

/// The experiment-wide [`KeyContext`]: [`MLE_SECRET`] + [`DEFENSE_SEED`].
#[must_use]
pub fn key_context() -> KeyContext {
    KeyContext::new(MLE_SECRET, DEFENSE_SEED)
}

/// The paper's default attack parameters for ciphertext-only experiments
/// (§5.3.2): `u=1, v=15, w=200,000`.
#[must_use]
pub fn co_params() -> LocalityParams {
    LocalityParams::new(1, 15, 200_000)
}

/// The paper's known-plaintext parameters (§5.3.3): `w` raised to 500,000.
#[must_use]
pub fn kp_params() -> LocalityParams {
    LocalityParams::new(1, 15, 500_000)
}

/// Runs `kind` in ciphertext-only mode against deterministically encrypted
/// `target_plain`, using `aux_plain` as the auxiliary information, and
/// scores it.
#[must_use]
pub fn run_ciphertext_only(
    kind: AttackKind,
    aux_plain: &Backup,
    target_plain: &Backup,
    params: &LocalityParams,
) -> InferenceReport {
    let enc = DeterministicTraceEncryptor::new(MLE_SECRET);
    let observed = enc.encrypt_backup(target_plain);
    let inferred = attacks::run_ciphertext_only(kind, &observed.backup, aux_plain, params);
    metrics::score(&inferred, &observed.backup, &observed.truth)
}

/// Runs `kind` in known-plaintext mode with `leakage_rate` of the target's
/// unique ciphertext chunks leaked (sampled with `leak_seed`).
#[must_use]
pub fn run_known_plaintext(
    kind: AttackKind,
    aux_plain: &Backup,
    target_plain: &Backup,
    params: &LocalityParams,
    leakage_rate: f64,
    leak_seed: u64,
) -> InferenceReport {
    let enc = DeterministicTraceEncryptor::new(MLE_SECRET);
    let observed = enc.encrypt_backup(target_plain);
    let leaked = metrics::leak_pairs(&observed.backup, &observed.truth, leakage_rate, leak_seed);
    let inferred = attacks::run_known_plaintext(kind, &observed.backup, aux_plain, &leaked, params);
    metrics::score(&inferred, &observed.backup, &observed.truth)
}

/// Runs the advanced attack in known-plaintext mode against a **defended**
/// target (Fig. 10): the target is encrypted with `scheme` — any
/// [`DefenseScheme`] implementation — under the experiment-wide
/// [`key_context`] instead of plain deterministic MLE.
#[must_use]
pub fn run_defended(
    scheme: &dyn DefenseScheme,
    aux_plain: &Backup,
    target_plain: &Backup,
    params: &LocalityParams,
    leakage_rate: f64,
    leak_seed: u64,
) -> InferenceReport {
    let observed = scheme.encrypt_backup(target_plain, &key_context());
    let leaked = metrics::leak_pairs(&observed.backup, &observed.truth, leakage_rate, leak_seed);
    let inferred = attacks::run_known_plaintext(
        AttackKind::Advanced,
        &observed.backup,
        aux_plain,
        &leaked,
        params,
    );
    metrics::score(&inferred, &observed.backup, &observed.truth)
}

/// Segmentation parameters for a dataset's average chunk size (the paper's
/// 512 KB / 1 MB / 2 MB segments).
#[must_use]
pub fn segment_params(avg_chunk_size: u32) -> SegmentParams {
    SegmentParams::paper_default(avg_chunk_size)
}

/// Two consecutive FSL-like monthly backups of ~`chunks` logical chunks
/// each, as `(aux, target)`: the older is the adversary's plaintext
/// auxiliary information, the newer the encryption target.
#[must_use]
pub fn build_pair(chunks: usize) -> (Backup, Backup) {
    let cfg = FslConfig {
        backups: 2,
        ..FslConfig::scaled((chunks / 6).max(100))
    };
    let series = fsl::generate(&cfg);
    let backup = |i| series.get(i).expect("two backups generated").clone();
    (backup(0), backup(1))
}

/// Store configuration sized for a stream of `unique` distinct chunks.
#[must_use]
pub fn store_config(unique: usize) -> DedupConfig {
    DedupConfig {
        cache_entries: unique / 4,
        bloom_expected: (unique as u64).max(1024),
        ..DedupConfig::default()
    }
}

/// Milliseconds spent in `f`, plus its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqdedup_trace::ChunkRecord;

    fn chain_backup(label: &str, start: u64, n: u64) -> Backup {
        let mut fps: Vec<ChunkRecord> = Vec::new();
        for _ in 0..30 {
            fps.push(ChunkRecord::new(1u64, 8192));
            fps.push(ChunkRecord::new(2u64, 8192));
            fps.push(ChunkRecord::new(2u64, 8192));
        }
        fps.extend((start..start + n).map(|i| ChunkRecord::new(i, 8192)));
        Backup::from_chunks(label, fps)
    }

    #[test]
    fn ciphertext_only_pipeline() {
        let aux = chain_backup("aux", 1000, 500);
        let target = chain_backup("target", 1000, 500);
        let r = run_ciphertext_only(AttackKind::Locality, &aux, &target, &co_params());
        assert!(r.rate > 0.9, "rate {}", r.rate);
        let basic = run_ciphertext_only(AttackKind::Basic, &aux, &target, &co_params());
        assert!(basic.rate < r.rate);
    }

    #[test]
    fn known_plaintext_beats_ciphertext_only_under_defense() {
        let aux = chain_backup("aux", 1000, 2000);
        let target = chain_backup("target", 1000, 2000);
        let scheme =
            freqdedup_core::defense::MinHashScrambleScheme::combined(segment_params(8192), 1);
        let defended = run_defended(&scheme, &aux, &target, &kp_params(), 0.002, 7);
        let undefended =
            run_known_plaintext(AttackKind::Advanced, &aux, &target, &kp_params(), 0.002, 7);
        assert!(
            defended.rate < undefended.rate,
            "defense did not reduce the rate: {} vs {}",
            defended.rate,
            undefended.rate
        );
    }
}
