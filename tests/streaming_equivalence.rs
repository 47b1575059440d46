//! Batch-equivalence of the incremental attack engine.
//!
//! The streaming layer (`freqdedup::core::streaming`) promises that a
//! running [`IncrementalStats`] — frequencies, both segmented CSR
//! neighbour tables, and the interner, folded one [`StatsDelta`] per
//! committed backup — is **bit-identical** to a from-scratch batch
//! recompute of the same tape at every commit point: identical COUNT
//! structures (`to_dense` equals [`DenseStats::full_series`]),
//! identical top-k frequency ranks, and identical inference sets from the
//! attacks crawling the flattened running state. These property tests
//! pin that promise on randomized backup sequences for
//! `threads ∈ {1, 2, 8}`, both [`TiePolicy`] variants (one state, ranked
//! twice — `COUNT` is policy-free), both attack modes (ciphertext-only
//! and known-plaintext), and arbitrary interleaved compaction points
//! (compaction is a pure representation change and must be invisible in
//! every observable).
//!
//! Alongside the streaming properties, the suite pins the delta algebra
//! itself — [`StatsDelta::merged`] is a commutative, associative monoid
//! action on the state — and the shared-build guarantee of
//! [`attacks::run_ciphertext_only_both_policies`]: one `COUNT` per side
//! crawled under both tie policies must equal two independent
//! single-policy runs.

use freqdedup::core::attacks::locality::{LocalityAttack, LocalityParams};
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::core::counting::TiePolicy;
use freqdedup::core::freq_analysis::top_k_dense;
use freqdedup::core::{ChunkInterner, DenseStats, IncrementalStats, Inference, StatsDelta};
use freqdedup::trace::{Backup, ChunkRecord, Fingerprint};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];
const POLICIES: [TiePolicy; 2] = [TiePolicy::StreamOrder, TiePolicy::KeyOrder];

/// Builds a backup whose chunk sizes vary with the fingerprint, so the
/// size-classified (advanced) attack sees several block classes.
fn backup(label: &str, fps: &[u64]) -> Backup {
    Backup::from_chunks(
        label,
        fps.iter()
            .map(|&f| ChunkRecord::new(f, 64 + ((f % 5) * 16) as u32))
            .collect(),
    )
}

/// A random backup tape over a small fingerprint domain: duplicates, ties
/// and cross-backup chunk reuse are the norm, so a single perturbed count,
/// tie-break order or lost adjacency edge swings the comparison.
fn tape_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(1u64..60, 0..80), 0..8)
}

fn build_tape(fps: &[Vec<u64>]) -> Vec<Backup> {
    fps.iter()
        .enumerate()
        .map(|(i, f)| backup(&format!("b{i:02}"), f))
        .collect()
}

fn sorted_pairs(inf: &Inference) -> Vec<(Fingerprint, Fingerprint)> {
    let mut v: Vec<_> = inf.iter().collect();
    v.sort_unstable();
    v
}

proptest! {
    /// Streaming COUNT + CSR + top-k equal the batch recompute at **every
    /// prefix** of the tape, with compaction interleaved at arbitrary
    /// commit points.
    #[test]
    fn count_csr_and_topk_bit_identical_at_every_prefix(
        fps in tape_strategy(),
        compact_mask in prop::collection::vec(any::<bool>(), 8..9),
        k in 1usize..20,
    ) {
        let tape = build_tape(&fps);
        let mut inc = IncrementalStats::default();
        for (i, b) in tape.iter().enumerate() {
            inc.commit(b);
            if compact_mask[i] {
                inc.compact();
            }
            let batch = DenseStats::full_series(&tape[..=i]);
            let flat = inc.to_dense();
            prop_assert_eq!(
                &flat, &batch,
                "prefix {} compacted {}", i, compact_mask[i]
            );
            // Top-k frequency ranking off the flattened streaming state
            // (global rows carry no order, so the policy is moot).
            let policy = TiePolicy::StreamOrder;
            let inc_top =
                top_k_dense(&flat.global_rows(), k, inc.interner().fingerprints(), policy);
            let batch_top =
                top_k_dense(&batch.global_rows(), k, batch.interner.fingerprints(), policy);
            prop_assert_eq!(inc_top, batch_top, "top-{} prefix {}", k, i);
        }
    }

    /// Known-plaintext mode: leaked seeds crawled over the flattened
    /// streaming state expand to the same inference set as over a batch
    /// series recompute, at every thread count and both tie policies.
    #[test]
    fn known_plaintext_inference_thread_and_policy_invariant(
        fps in tape_strategy(),
        leak_every in 1usize..10,
    ) {
        let tape = build_tape(&fps);
        // Self-referential aux: the tape's own stream is the plaintext
        // side, so leaked identity pairs seed real crawls.
        let all: Vec<ChunkRecord> =
            tape.iter().flat_map(|b| b.chunks.iter().copied()).collect();
        let aux = Backup::from_chunks("aux", all);
        let leaked: Vec<(Fingerprint, Fingerprint)> = aux
            .chunks
            .iter()
            .step_by(leak_every)
            .map(|c| (c.fp, c.fp))
            .collect();
        let mut inc = IncrementalStats::default();
        for b in &tape {
            inc.commit(b);
        }
        let sc = DenseStats::full_series(&tape);
        let sm = DenseStats::full(&aux);
        for policy in POLICIES {
            for kind in [AttackKind::Locality, AttackKind::Advanced] {
                for t in THREADS {
                    let params = LocalityParams::new(1, 5, 1000)
                        .tie_policy(policy)
                        .threads(t);
                    let streamed = attacks::run_known_plaintext_streaming(
                        kind, &inc, &aux, &leaked, &params,
                    );
                    let batch = LocalityAttack::new(
                        params.size_aware(kind == AttackKind::Advanced),
                    )
                    .run_known_plaintext_with_stats(&sc, &sm, &leaked);
                    prop_assert_eq!(
                        sorted_pairs(&streamed),
                        sorted_pairs(&batch),
                        "{} threads {} policy {:?}",
                        kind, t, policy
                    );
                }
            }
        }
    }

    /// `run_ciphertext_only_both_policies` — one `COUNT` per side, crawled
    /// under both tie policies — equals two independent single-policy
    /// runs for every attack kind.
    #[test]
    fn both_policies_shared_build_matches_single_policy_runs(
        cipher_fps in prop::collection::vec(1u64..60, 1..200),
        aux_fps in prop::collection::vec(1u64..60, 1..200),
    ) {
        let cipher = backup("cipher", &cipher_fps);
        let aux = backup("aux", &aux_fps);
        for kind in AttackKind::ALL {
            let params = LocalityParams::new(2, 3, 1000);
            let both = attacks::run_ciphertext_only_both_policies(kind, &cipher, &aux, &params);
            prop_assert_eq!(both[0].0, TiePolicy::StreamOrder);
            prop_assert_eq!(both[1].0, TiePolicy::KeyOrder);
            for (policy, inference) in both {
                let single = attacks::run_ciphertext_only(
                    kind, &cipher, &aux, &params.clone().tie_policy(policy),
                );
                prop_assert_eq!(
                    sorted_pairs(&inference),
                    sorted_pairs(&single),
                    "{} policy {:?}", kind, policy
                );
            }
        }
    }

    /// Delta merge is commutative and associative, and a merged delta
    /// applied once equals the constituent deltas applied one at a time —
    /// the algebra that makes batching and re-sharding of commits safe.
    #[test]
    fn delta_merge_is_a_commutative_monoid_action(fps in tape_strategy()) {
        let tape = build_tape(&fps);
        // One shared interner, exactly as a sequential committer would
        // intern the tape; offsets track the logical stream position.
        let mut interner = ChunkInterner::new();
        let mut offset = 0u64;
        let deltas: Vec<StatsDelta> = tape
            .iter()
            .map(|b| {
                let d = StatsDelta::build(&mut interner, b, offset);
                offset += b.len() as u64;
                d
            })
            .collect();
        if deltas.len() >= 2 {
            let (a, b) = (&deltas[0], &deltas[1]);
            prop_assert_eq!(a.merged(b), b.merged(a), "commutativity");
        }
        if deltas.len() >= 3 {
            let (a, b, c) = (&deltas[0], &deltas[1], &deltas[2]);
            prop_assert_eq!(
                a.merged(b).merged(c),
                a.merged(&b.merged(c)),
                "associativity"
            );
        }
        // Folding all deltas into one and applying it to an empty
        // state equals committing them one by one.
        if let Some(first) = deltas.first() {
            let folded = deltas[1..]
                .iter()
                .fold(first.clone(), |acc, d| acc.merged(d));
            let mut merged_state = IncrementalStats::with_interner(interner.clone());
            merged_state.apply(folded);
            let mut stepped = IncrementalStats::default();
            for b in &tape {
                stepped.commit(b);
            }
            prop_assert_eq!(merged_state.to_dense(), stepped.to_dense(), "fold-vs-step");
        }
    }
}

proptest! {
    /// Ciphertext-only inference from the streaming state equals the batch
    /// series recompute after every commit — all three attack kinds, both
    /// tie policies, every thread count, compaction interleaved.
    #[test]
    fn ciphertext_only_inference_thread_and_policy_invariant(
        fps in tape_strategy(),
        aux_fps in prop::collection::vec(1u64..60, 1..120),
        compact_mask in prop::collection::vec(any::<bool>(), 8..9),
    ) {
        let tape = build_tape(&fps);
        let aux = backup("aux", &aux_fps);
        let mut inc = IncrementalStats::default();
        for (i, b) in tape.iter().enumerate() {
            inc.commit(b);
            if compact_mask[i] {
                inc.compact();
            }
            for policy in POLICIES {
                for kind in AttackKind::ALL {
                    for t in THREADS {
                        let params = LocalityParams::new(2, 3, 1000)
                            .tie_policy(policy)
                            .threads(t);
                        let streamed =
                            attacks::run_ciphertext_only_streaming(kind, &inc, &aux, &params);
                        let batch = attacks::run_ciphertext_only_series(
                            kind, &tape[..=i], &aux, &params,
                        );
                        prop_assert_eq!(
                            sorted_pairs(&streamed),
                            sorted_pairs(&batch),
                            "{} prefix {} threads {} policy {:?}",
                            kind, i, t, policy
                        );
                    }
                }
            }
        }
    }
}

/// Empty backup: the delta is empty and committing it changes nothing but
/// the commit counter.
#[test]
fn empty_backup_delta_is_identity() {
    let mut inc = IncrementalStats::default();
    inc.commit(&backup("seed", &[1, 2, 1, 3]));
    let before = inc.to_dense();
    let mut probe = inc.clone();
    let delta = probe.build_delta(&backup("empty", &[]));
    assert!(delta.is_empty(), "empty backup must build an empty delta");
    let receipt = inc.commit(&backup("empty", &[]));
    assert_eq!(receipt.chunks, 0);
    assert_eq!(receipt.new_unique, 0);
    assert_eq!(inc.to_dense(), before, "empty commit must be a no-op");
    assert_eq!(inc.commits(), 2, "but it still counts as a commit");
}

/// Duplicate-only backup: one fingerprint repeated — frequency is the run
/// length and the only adjacency edge is the self-edge.
#[test]
fn duplicate_only_backup_matches_batch() {
    let tape = vec![backup("dups", &[7; 12])];
    let mut inc = IncrementalStats::default();
    inc.commit(&tape[0]);
    assert_eq!(inc.to_dense(), DenseStats::full_series(&tape));
    assert_eq!(inc.freq(), &[12]);
    let flat = inc.to_dense();
    let left = flat.left.row(0);
    assert_eq!(left.len(), 1, "self-edge only");
    assert_eq!((left[0].id, left[0].count), (0, 11));
}

/// Single-chunk backup: frequency one, no adjacency events at all.
#[test]
fn single_chunk_backup_matches_batch() {
    let tape = vec![backup("one", &[42])];
    let mut inc = IncrementalStats::default();
    inc.commit(&tape[0]);
    assert_eq!(inc.to_dense(), DenseStats::full_series(&tape));
    assert_eq!(inc.freq(), &[1]);
    assert_eq!(inc.left().num_entries() + inc.right().num_entries(), 0);
}

/// A delta merged into an empty state reproduces a fresh batch build of
/// the same backup.
#[test]
fn delta_merged_into_empty_state_equals_batch() {
    let tape = vec![backup("a", &[1, 2, 1, 2, 3]), backup("b", &[3, 1, 3, 4])];
    let mut interner = ChunkInterner::new();
    let d0 = StatsDelta::build(&mut interner, &tape[0], 0);
    let d1 = StatsDelta::build(&mut interner, &tape[1], tape[0].len() as u64);
    let mut inc = IncrementalStats::with_interner(interner);
    inc.apply(d0.merged(&d1));
    assert_eq!(inc.to_dense(), DenseStats::full_series(&tape));
    assert_eq!(inc.logical_chunks(), 9);
}

/// Commit-boundary adjacency: chunks that touch only across a commit
/// boundary must NOT be neighbours — the streaming path appends per-epoch
/// segments and a leaked cross-boundary edge is the classic bug.
#[test]
fn no_adjacency_across_commit_boundaries() {
    let tape = vec![backup("a", &[1, 2]), backup("b", &[3, 4])];
    let mut inc = IncrementalStats::default();
    for b in &tape {
        inc.commit(b);
    }
    let id2 = inc.interner().get(Fingerprint(2)).unwrap();
    let id3 = inc.interner().get(Fingerprint(3)).unwrap();
    assert!(
        !inc.to_dense().right.row(id2).iter().any(|e| e.id == id3),
        "2 -> 3 spans the commit boundary and must not be an edge"
    );
    assert_eq!(inc.to_dense(), DenseStats::full_series(&tape));
}
