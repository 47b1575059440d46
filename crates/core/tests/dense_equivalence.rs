//! Equivalence of the dense-id/CSR attack pipeline and the
//! fingerprint-keyed reference path.
//!
//! The dense layer (`freqdedup_core::dense`) re-implements `COUNT`,
//! `FREQ-ANALYSIS` and the locality crawl over interned `u32` ids and CSR
//! co-occurrence rows. Tie-break order — (count desc, first-seen order asc,
//! fingerprint asc) — must survive interning **bit-for-bit**, because §4.1's
//! tie sensitivity means a single reordered tie can swing the inference
//! rate by an order of magnitude. These property tests pin the two paths
//! together on randomized synthetic backups, across both `TiePolicy`
//! variants, plain and size-classified analysis, and both attack modes.
//!
//! The two paths apply the policy at different times — the reference
//! zeroes `KeyOrder` orders while it counts, the dense layer counts once
//! and ignores them while it ranks — so agreement under `KeyOrder` is an
//! independent check of the rank-time rule.

use std::collections::HashMap;

use freqdedup_core::attacks::basic::BasicAttack;
use freqdedup_core::attacks::locality::{LocalityAttack, LocalityParams};
use freqdedup_core::counting::{ChunkStats, FreqTable, TiePolicy};
use freqdedup_core::dense::DenseStats;
use freqdedup_core::freq_analysis::{freq_analysis, rank, rank_dense};
use freqdedup_core::metrics::Inference;
use freqdedup_core::IncrementalStats;
use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};
use proptest::prelude::*;

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
/// neighbourhoods — the tie-sensitive regime.
fn fp_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..60, 0..300)
}

fn sorted_pairs(inf: &Inference) -> Vec<(Fingerprint, Fingerprint)> {
    let mut v: Vec<_> = inf.iter().collect();
    v.sort_unstable();
    v
}

/// Neighbour tables with the orders dropped: what a policy-free `COUNT`
/// and a `KeyOrder` one must agree on.
fn counts_only(
    tables: &HashMap<Fingerprint, FreqTable>,
) -> HashMap<Fingerprint, HashMap<Fingerprint, u64>> {
    tables
        .iter()
        .map(|(&fp, row)| (fp, row.iter().map(|(&n, e)| (n, e.count)).collect()))
        .collect()
}

proptest! {
    /// `COUNT` equivalence: exporting the dense statistics back to the
    /// fingerprint-keyed representation reproduces `ChunkStats` exactly —
    /// frequencies, both neighbour tables (counts *and* first-seen
    /// orders), and sizes. The reference's `KeyOrder` tables are the same
    /// tables with the orders zeroed, so they match on counts.
    #[test]
    fn count_tables_identical(fps in fp_stream()) {
        let b = backup(&fps);
        let legacy = ChunkStats::full(&b);
        let dense = DenseStats::full(&b).to_chunk_stats();
        prop_assert_eq!(&dense.freq, &legacy.freq);
        prop_assert_eq!(&dense.left, &legacy.left);
        prop_assert_eq!(&dense.right, &legacy.right);
        prop_assert_eq!(&dense.sizes, &legacy.sizes);
        let by_key = ChunkStats::full_with_policy(&b, TiePolicy::KeyOrder);
        prop_assert_eq!(&dense.freq, &by_key.freq);
        prop_assert_eq!(counts_only(&dense.left), counts_only(&by_key.left));
        prop_assert_eq!(counts_only(&dense.right), counts_only(&by_key.right));
    }

    /// Global-ranking equivalence: the dense canonical ranking, mapped back
    /// to fingerprints, equals the fingerprint-keyed ranking.
    #[test]
    fn global_ranking_identical(fps in fp_stream()) {
        let b = backup(&fps);
        let legacy = ChunkStats::frequencies_only(&b);
        let dense = DenseStats::frequencies_only(&b);
        let legacy_order: Vec<u64> = rank(&legacy.freq).into_iter().map(|(f, _)| f.0).collect();
        let fps_tab = dense.interner.fingerprints();
        let dense_order: Vec<u64> = rank_dense(&dense.global_rows(), fps_tab, TiePolicy::StreamOrder)
            .into_iter()
            .map(|e| fps_tab[e.id as usize].0)
            .collect();
        prop_assert_eq!(legacy_order, dense_order);
    }

    /// The basic attack (dense path) equals raw fingerprint-keyed
    /// frequency analysis at full depth.
    #[test]
    fn basic_attack_identical(aux_fps in fp_stream(), tgt_fps in fp_stream()) {
        let aux = backup(&aux_fps);
        let target = backup(&tgt_fps);
        let dense = BasicAttack::new().run(&target, &aux);
        let fc = ChunkStats::frequencies_only(&target);
        let fm = ChunkStats::frequencies_only(&aux);
        let limit = fc.freq.len().min(fm.freq.len());
        let reference: Inference = freq_analysis(&fc.freq, &fm.freq, limit).into_iter().collect();
        prop_assert_eq!(sorted_pairs(&dense), sorted_pairs(&reference));
    }

    /// Ciphertext-only locality attack: identical inference sets across
    /// both tie policies and both analysis flavours (plain and
    /// size-classified), on an encrypted random stream with a related aux.
    /// The dense side is **one** batch state and one streaming state,
    /// built before the policy is chosen; the reference rebuilds per
    /// policy.
    #[test]
    fn locality_ciphertext_only_identical(
        fps in fp_stream(),
        u in 1usize..4,
        v in 1usize..8,
    ) {
        let plain = backup(&fps);
        let observed = DeterministicTraceEncryptor::new(b"eq").encrypt_backup(&plain);
        let (sc, sm) = (DenseStats::full(&observed.backup), DenseStats::full(&plain));
        let mut streamed = IncrementalStats::default();
        streamed.commit(&observed.backup);
        for policy in [TiePolicy::StreamOrder, TiePolicy::KeyOrder] {
            for size_aware in [false, true] {
                let params = LocalityParams::new(u, v, 100_000)
                    .tie_policy(policy)
                    .size_aware(size_aware);
                let attack = LocalityAttack::new(params);
                let reference = attack.run_ciphertext_only_reference(&observed.backup, &plain);
                for (dense, state) in [
                    (attack.run_ciphertext_only_with_stats(&sc, &sm), "batch"),
                    (attack.run_ciphertext_only_with_stats(&streamed.to_dense(), &sm), "streaming"),
                ] {
                    prop_assert_eq!(
                        sorted_pairs(&dense),
                        sorted_pairs(&reference),
                        "policy {:?} size_aware {} {}",
                        policy,
                        size_aware,
                        state
                    );
                }
            }
        }
    }

    /// Known-plaintext mode: leaked seeds (including pairs absent from one
    /// side, which both paths must drop) expand to identical inference
    /// sets. Also exercises the `w` queue bound.
    #[test]
    fn locality_known_plaintext_identical(
        fps in fp_stream(),
        leak_every in 1usize..10,
        w in 0usize..50,
    ) {
        let plain = backup(&fps);
        let observed = DeterministicTraceEncryptor::new(b"eq").encrypt_backup(&plain);
        let mut leaked: Vec<(Fingerprint, Fingerprint)> = observed
            .backup
            .chunks
            .iter()
            .zip(&plain.chunks)
            .step_by(leak_every)
            .map(|(c, m)| (c.fp, m.fp))
            .collect();
        // A foreign pair neither side knows: must be filtered by both paths.
        leaked.push((Fingerprint(u64::MAX), Fingerprint(u64::MAX - 1)));
        let (sc, sm) = (DenseStats::full(&observed.backup), DenseStats::full(&plain));
        let mut streamed = IncrementalStats::default();
        streamed.commit(&observed.backup);
        for policy in [TiePolicy::StreamOrder, TiePolicy::KeyOrder] {
            for size_aware in [false, true] {
                let params = LocalityParams::new(1, 5, w)
                    .tie_policy(policy)
                    .size_aware(size_aware);
                let attack = LocalityAttack::new(params);
                let reference =
                    attack.run_known_plaintext_reference(&observed.backup, &plain, &leaked);
                for (dense, state) in [
                    (attack.run_known_plaintext_with_stats(&sc, &sm, &leaked), "batch"),
                    (
                        attack.run_known_plaintext_with_stats(&streamed.to_dense(), &sm, &leaked),
                        "streaming",
                    ),
                ] {
                    prop_assert_eq!(
                        sorted_pairs(&dense),
                        sorted_pairs(&reference),
                        "policy {:?} size_aware {} {}",
                        policy,
                        size_aware,
                        state
                    );
                }
            }
        }
    }

    /// The inferred *mapping* (not just the pair set) matches: per
    /// ciphertext fingerprint, both paths choose the same plaintext.
    #[test]
    fn inferred_mapping_identical(fps in fp_stream()) {
        let plain = backup(&fps);
        let observed = DeterministicTraceEncryptor::new(b"eq").encrypt_backup(&plain);
        let attack = LocalityAttack::new(LocalityParams::new(2, 3, 1000));
        let dense = attack.run_ciphertext_only(&observed.backup, &plain);
        let reference = attack.run_ciphertext_only_reference(&observed.backup, &plain);
        let dm: HashMap<_, _> = dense.iter().collect();
        let rm: HashMap<_, _> = reference.iter().collect();
        prop_assert_eq!(dm, rm);
    }
}
