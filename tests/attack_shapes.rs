//! Integration shape assertions: the paper's headline qualitative results
//! must hold on freshly generated workloads (loose bounds — exact values are
//! recorded in DESIGN.md §4).

use freqdedup::chunking::segment::SegmentParams;
use freqdedup::core::attacks::locality::LocalityParams;
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::core::defense::MinHashScrambleScheme;
use freqdedup::core::metrics;
use freqdedup::datasets::fsl::{generate, FslConfig};
use freqdedup::mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup::trace::{Backup, BackupSeries};

fn series() -> BackupSeries {
    generate(&FslConfig::scaled(5_000))
}

fn encrypt(target: &Backup) -> freqdedup::mle::trace_enc::EncryptedBackup {
    DeterministicTraceEncryptor::new(b"secret").encrypt_backup(target)
}

#[test]
fn locality_beats_basic_by_orders_of_magnitude() {
    let s = series();
    let aux = s.get(3).unwrap();
    let observed = encrypt(s.latest().unwrap());
    let params = LocalityParams::default();

    let basic = attacks::run_ciphertext_only(AttackKind::Basic, &observed.backup, aux, &params);
    let locality =
        attacks::run_ciphertext_only(AttackKind::Locality, &observed.backup, aux, &params);
    let rb = metrics::score(&basic, &observed.backup, &observed.truth);
    let rl = metrics::score(&locality, &observed.backup, &observed.truth);
    assert!(rb.rate < 0.01, "basic attack rate {}", rb.rate);
    assert!(
        rl.rate > rb.rate * 10.0,
        "locality {} vs basic {}",
        rl.rate,
        rb.rate
    );
}

#[test]
fn advanced_exploits_size_information() {
    let s = series();
    let aux = s.get(3).unwrap();
    let observed = encrypt(s.latest().unwrap());
    let params = LocalityParams::default();
    let locality =
        attacks::run_ciphertext_only(AttackKind::Locality, &observed.backup, aux, &params);
    let advanced =
        attacks::run_ciphertext_only(AttackKind::Advanced, &observed.backup, aux, &params);
    let rl = metrics::score(&locality, &observed.backup, &observed.truth);
    let ra = metrics::score(&advanced, &observed.backup, &observed.truth);
    assert!(
        ra.rate > rl.rate,
        "advanced {} should beat locality {} on variable-size chunks",
        ra.rate,
        rl.rate
    );
}

#[test]
fn leakage_boosts_inference() {
    let s = series();
    let aux = s.get(2).unwrap();
    let observed = encrypt(s.latest().unwrap());
    let params = LocalityParams::known_plaintext_default();

    let no_leak =
        attacks::run_ciphertext_only(AttackKind::Locality, &observed.backup, aux, &params);
    let leaked = metrics::leak_pairs(&observed.backup, &observed.truth, 0.002, 3);
    let with_leak = attacks::run_known_plaintext(
        AttackKind::Locality,
        &observed.backup,
        aux,
        &leaked,
        &params,
    );
    let r0 = metrics::score(&no_leak, &observed.backup, &observed.truth);
    let r1 = metrics::score(&with_leak, &observed.backup, &observed.truth);
    assert!(
        r1.rate > r0.rate,
        "0.2% leakage should raise the rate ({} -> {})",
        r0.rate,
        r1.rate
    );
    assert!(r1.rate > 0.05, "known-plaintext rate {}", r1.rate);
}

#[test]
fn combined_defense_suppresses_attack() {
    let s = series();
    let aux = s.get(2).unwrap();
    let target = s.latest().unwrap();
    let params = LocalityParams::known_plaintext_default();
    let seg = SegmentParams::paper_default(8192);

    // Undefended baseline.
    let observed = encrypt(target);
    let leaked = metrics::leak_pairs(&observed.backup, &observed.truth, 0.002, 3);
    let attack = attacks::run_known_plaintext(
        AttackKind::Advanced,
        &observed.backup,
        aux,
        &leaked,
        &params,
    );
    let undefended = metrics::score(&attack, &observed.backup, &observed.truth);

    // Combined defense.
    let defended = MinHashScrambleScheme::combined(seg, 5).encrypt_backup(target);
    let leaked = metrics::leak_pairs(&defended.backup, &defended.truth, 0.002, 3);
    let attack = attacks::run_known_plaintext(
        AttackKind::Advanced,
        &defended.backup,
        aux,
        &leaked,
        &params,
    );
    let suppressed = metrics::score(&attack, &defended.backup, &defended.truth);

    assert!(
        suppressed.rate < undefended.rate * 0.2,
        "combined defense: {} vs undefended {}",
        suppressed.rate,
        undefended.rate
    );
    assert!(suppressed.rate < 0.02, "residual rate {}", suppressed.rate);
}

#[test]
fn defense_keeps_storage_saving_close_to_mle() {
    let s = series();
    let scheme = MinHashScrambleScheme::combined(SegmentParams::paper_default(8192), 5);
    let (defended, _) = scheme.encrypt_series(&s);
    let mle = freqdedup::trace::stats::dedup_ratio(&s);
    let combined = freqdedup::trace::stats::dedup_ratio(&defended);
    let mle_saving = 1.0 - 1.0 / mle;
    let comb_saving = 1.0 - 1.0 / combined;
    assert!(
        mle_saving - comb_saving < 0.12,
        "saving dropped from {mle_saving} to {comb_saving}"
    );
}

/// `ablation_tiebreak`'s loop at `--scale 0.1` (FSL and VM × the two
/// auxiliary backups before the target × both tie policies), pinned as
/// exact `(correct, total_unique)` pairs: the §4.1 tie-break gap is a
/// number, not a shape.
#[test]
fn tie_policy_ablation_is_pinned() {
    use freqdedup::core::attacks::locality::LocalityAttack;
    use freqdedup::core::TiePolicy;
    use freqdedup::datasets::vm::{self, VmConfig};

    // Recorded at 57bf155, before COUNT became policy-free.
    const PINS: [[(usize, usize); 2]; 4] = [
        [(433, 14_967), (188, 14_967)],
        [(664, 14_967), (239, 14_967)],
        [(2_798, 6_151), (1_271, 6_151)],
        [(3_973, 6_151), (1_037, 6_151)],
    ];
    let mut rows = Vec::new();
    for series in [
        generate(&FslConfig::scaled(2_000)),
        vm::generate(&VmConfig::scaled(1_200, 300)),
    ] {
        // The binary's MLE secret: `KeyOrder` ranks by ciphertext fingerprint.
        let observed = DeterministicTraceEncryptor::new(b"freqdedup-experiment-secret")
            .encrypt_backup(series.latest().unwrap());
        for aux_idx in [series.len() - 3, series.len() - 2] {
            let aux = series.get(aux_idx).unwrap();
            rows.push([TiePolicy::StreamOrder, TiePolicy::KeyOrder].map(|policy| {
                let inferred = LocalityAttack::new(LocalityParams::default().tie_policy(policy))
                    .run_ciphertext_only(&observed.backup, aux);
                let report = metrics::score(&inferred, &observed.backup, &observed.truth);
                (report.correct, report.total_unique)
            }));
        }
    }
    assert_eq!(rows, PINS);
}
