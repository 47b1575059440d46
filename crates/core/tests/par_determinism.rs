//! Determinism of the sharded parallel execution layer.
//!
//! The parallel layer (`freqdedup_core::par` + the `_par` constructors and
//! the `threads` attack knob) promises output **bit-identical** to the
//! sequential path at any thread count: parallel COUNT must reproduce the
//! frequency array and both CSR neighbour tables exactly (shard boundaries
//! must not perturb tie-break orders), and the attacks running on parallel
//! COUNT must produce the same inference sets — across both [`TiePolicy`]
//! variants, both analysis flavours (plain and size-classified), and both
//! attack modes (ciphertext-only and known-plaintext). These property
//! tests pin that promise on randomized tie-heavy backups for
//! `threads ∈ {1, 2, 8}` (1 = the sequential fast path itself, 2 and 8 =
//! fewer/more shards than typical row counts per shard, exercising both
//! near-empty and multi-run shard aggregations).

use freqdedup_core::attacks::advanced::AdvancedAttack;
use freqdedup_core::attacks::basic::BasicAttack;
use freqdedup_core::attacks::locality::{LocalityAttack, LocalityParams};
use freqdedup_core::counting::TiePolicy;
use freqdedup_core::dense::DenseStats;
use freqdedup_core::metrics::Inference;
use freqdedup_core::par::ParConfig;
use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// Builds a backup whose chunk sizes vary with the fingerprint, so the
/// size-classified (Algorithm 3) branch sees several block classes.
fn backup(fps: &[u64]) -> Backup {
    Backup::from_chunks(
        "t",
        fps.iter()
            .map(|&f| ChunkRecord::new(f, 64 + ((f % 5) * 16) as u32))
            .collect(),
    )
}

/// A small fingerprint domain forces duplicates, ties and shared
/// neighbourhoods — the regime where a single perturbed tie-break order
/// would swing the inference set.
fn fp_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..60, 0..300)
}

fn sorted_pairs(inf: &Inference) -> Vec<(Fingerprint, Fingerprint)> {
    let mut v: Vec<_> = inf.iter().collect();
    v.sort_unstable();
    v
}

proptest! {
    /// Parallel `COUNT` (frequencies + both CSR tables + interner) equals
    /// the sequential dense structures field-for-field at every thread
    /// count.
    #[test]
    fn count_and_csr_bit_identical(fps in fp_stream()) {
        let b = backup(&fps);
        let seq = DenseStats::full(&b);
        for t in THREADS {
            let par = DenseStats::full_par(&b, ParConfig::with_threads(t));
            prop_assert_eq!(&par, &seq, "threads {}", t);
        }
    }

    /// Parallel frequency-only counting equals the sequential pass.
    #[test]
    fn frequencies_only_bit_identical(fps in fp_stream()) {
        let b = backup(&fps);
        let seq = DenseStats::frequencies_only(&b);
        for t in THREADS {
            let par = DenseStats::frequencies_only_par(&b, ParConfig::with_threads(t));
            prop_assert_eq!(&par, &seq, "threads {}", t);
        }
    }

    /// The basic attack on parallel counting infers the same pair set.
    #[test]
    fn basic_attack_thread_invariant(aux_fps in fp_stream(), tgt_fps in fp_stream()) {
        let aux = backup(&aux_fps);
        let target = backup(&tgt_fps);
        let seq = BasicAttack::new().run(&target, &aux);
        for t in THREADS {
            let par = BasicAttack::new().run_par(&target, &aux, ParConfig::with_threads(t));
            prop_assert_eq!(sorted_pairs(&par), sorted_pairs(&seq), "threads {}", t);
        }
    }

    /// Ciphertext-only locality attack: identical inference sets at every
    /// thread count, across both tie policies and both analysis flavours
    /// (plain locality and the size-classified advanced attack).
    #[test]
    fn locality_ciphertext_only_thread_invariant(
        fps in fp_stream(),
        u in 1usize..4,
        v in 1usize..8,
    ) {
        let plain = backup(&fps);
        let observed = DeterministicTraceEncryptor::new(b"par").encrypt_backup(&plain);
        for policy in [TiePolicy::StreamOrder, TiePolicy::KeyOrder] {
            let base = LocalityParams::new(u, v, 100_000).tie_policy(policy);

            let seq = LocalityAttack::new(base.clone())
                .run_ciphertext_only(&observed.backup, &plain);
            let seq_adv = AdvancedAttack::new(base.clone())
                .run_ciphertext_only(&observed.backup, &plain);
            for t in THREADS {
                let par = LocalityAttack::new(base.clone().threads(t))
                    .run_ciphertext_only(&observed.backup, &plain);
                prop_assert_eq!(
                    sorted_pairs(&par),
                    sorted_pairs(&seq),
                    "locality threads {} policy {:?}",
                    t,
                    policy
                );
                let par_adv = AdvancedAttack::new(base.clone().threads(t))
                    .run_ciphertext_only(&observed.backup, &plain);
                prop_assert_eq!(
                    sorted_pairs(&par_adv),
                    sorted_pairs(&seq_adv),
                    "advanced threads {} policy {:?}",
                    t,
                    policy
                );
            }
        }
    }

    /// Known-plaintext mode: leaked seeds expand to identical inference
    /// sets at every thread count (also exercises the `w` queue bound).
    #[test]
    fn locality_known_plaintext_thread_invariant(
        fps in fp_stream(),
        leak_every in 1usize..10,
        w in 0usize..50,
    ) {
        let plain = backup(&fps);
        let observed = DeterministicTraceEncryptor::new(b"par").encrypt_backup(&plain);
        let leaked: Vec<(Fingerprint, Fingerprint)> = observed
            .backup
            .chunks
            .iter()
            .zip(&plain.chunks)
            .step_by(leak_every)
            .map(|(c, m)| (c.fp, m.fp))
            .collect();
        let base = LocalityParams::new(1, 5, w);
        let seq = LocalityAttack::new(base.clone())
            .run_known_plaintext(&observed.backup, &plain, &leaked);
        for t in THREADS {
            let par = LocalityAttack::new(base.clone().threads(t))
                .run_known_plaintext(&observed.backup, &plain, &leaked);
            prop_assert_eq!(sorted_pairs(&par), sorted_pairs(&seq), "threads {}", t);
        }
    }

    /// Parallel COUNT also agrees with the fingerprint-keyed *reference*
    /// attack path — the transitive closure of the dense-equivalence and
    /// thread-invariance guarantees, checked directly.
    #[test]
    fn parallel_attack_matches_reference_path(fps in fp_stream()) {
        let plain = backup(&fps);
        let observed = DeterministicTraceEncryptor::new(b"par").encrypt_backup(&plain);
        let params = LocalityParams::new(2, 3, 1000);
        let reference = LocalityAttack::new(params.clone())
            .run_ciphertext_only_reference(&observed.backup, &plain);
        let par = LocalityAttack::new(params.threads(8))
            .run_ciphertext_only(&observed.backup, &plain);
        prop_assert_eq!(sorted_pairs(&par), sorted_pairs(&reference));
    }

    /// Batch-parallel MLE trace encryption reproduces the sequential
    /// ciphertext stream and ground truth at every thread count.
    #[test]
    fn parallel_encryption_thread_invariant(fps in fp_stream()) {
        let plain = backup(&fps);
        let enc = DeterministicTraceEncryptor::new(b"par");
        let seq = enc.encrypt_backup(&plain);
        for t in THREADS {
            let par = enc.encrypt_backup_par(&plain, ParConfig::with_threads(t));
            prop_assert_eq!(&par.backup.chunks, &seq.backup.chunks, "threads {}", t);
            let mut pt: Vec<_> = par.truth.iter().collect();
            let mut st: Vec<_> = seq.truth.iter().collect();
            pt.sort_unstable();
            st.sort_unstable();
            prop_assert_eq!(pt, st, "threads {}", t);
        }
    }
}

/// The paper's worked example (§4.2) survives every thread count — a
/// deterministic anchor alongside the property tests.
#[test]
fn paper_example_thread_invariant() {
    let aux = backup(&[1, 2, 1, 2, 3, 4, 2, 3, 4]);
    let cipher = backup(&[101, 102, 105, 102, 101, 102, 103, 104, 102, 103, 104, 104]);
    let seq =
        LocalityAttack::new(LocalityParams::new(1, 1, 1000)).run_ciphertext_only(&cipher, &aux);
    for t in [2usize, 8, 64] {
        let par = LocalityAttack::new(LocalityParams::new(1, 1, 1000).threads(t))
            .run_ciphertext_only(&cipher, &aux);
        assert_eq!(sorted_pairs(&par), sorted_pairs(&seq), "threads {t}");
        for i in 1..=4u64 {
            assert_eq!(par.plain_of(Fingerprint(100 + i)), Some(Fingerprint(i)));
        }
    }
}
