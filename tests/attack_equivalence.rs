//! The differential suite: the one `COUNT` engine and every attack that
//! crawls it, against the fingerprint-keyed reference in
//! `tests/support/reference.rs`.
//!
//! The engine (`freqdedup::core`) interns fingerprints to dense ids, runs
//! one sort-and-aggregate kernel into CSR tables — in a batch build over
//! one backup, or per commit in the streaming fold over a series — and
//! crawls the flat tables. The reference counts into one `HashMap` per
//! table and crawls those. Tie-break order — (count desc, first-seen order
//! asc, fingerprint asc) — must agree **bit-for-bit**, because §4.1's tie
//! sensitivity means a single reordered tie can swing the inference rate
//! by an order of magnitude.
//!
//! The properties run on random tie-heavy streams and tapes over
//! `threads ∈ {1, 2, 8}`, random commit splits (a tape is a series of
//! backups of random lengths), compaction at random commit points, both
//! `TiePolicy` variants, both attack modes (ciphertext-only and
//! known-plaintext) and plain and size-classified analysis. The paper's
//! worked example (§4.2) is one fixed case; a hot plaintext revisited
//! through many split ciphertexts, which exercises the crawl's memo of
//! ranked auxiliary rows, is another.

#[path = "support/reference.rs"]
mod reference;

use std::collections::HashMap;

use freqdedup::core::attacks::locality::{LocalityAttack, LocalityParams};
use freqdedup::core::attacks::{self, AttackKind};
use freqdedup::core::freq_analysis::{rank_dense, top_k_dense};
use freqdedup::core::{DenseStats, IncrementalStats, Inference, ParConfig, TiePolicy};
use freqdedup::mle::trace_enc::DeterministicTraceEncryptor;
use freqdedup::trace::{Backup, ChunkRecord, Fingerprint};
use proptest::prelude::*;
use reference::{ChunkStats, FreqTable};

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

/// A small fingerprint domain forces duplicates, ties and shared
/// neighbourhoods — the tie-sensitive regime.
fn fp_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..60, 0..300)
}

/// A random tape: up to eight backups of random length over the same small
/// domain, so chunks recur across commits and a lost or extra edge at a
/// commit boundary changes the tables.
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

/// The engine's `COUNT` of `tape` against the reference's, under both
/// policies: identical under `StreamOrder` (counts, first-seen orders and
/// sizes), identical counts under `KeyOrder`.
fn assert_count_matches(dense: &DenseStats, tape: &[Backup], what: &str) {
    let engine = ChunkStats::from_dense(dense);
    assert_eq!(
        engine,
        ChunkStats::series(tape, TiePolicy::StreamOrder),
        "{what}"
    );
    let by_key = ChunkStats::series(tape, TiePolicy::KeyOrder);
    assert_eq!(engine.freq, by_key.freq, "{what} KeyOrder");
    assert_eq!(
        counts_only(&engine.left),
        counts_only(&by_key.left),
        "{what} KeyOrder"
    );
    assert_eq!(
        counts_only(&engine.right),
        counts_only(&by_key.right),
        "{what} KeyOrder"
    );
}

/// Leaked pairs: every `step`-th aligned chunk pair, plus a pair neither
/// side knows, which both paths must drop.
fn leaks(cipher: &Backup, plain: &Backup, step: usize) -> Vec<(Fingerprint, Fingerprint)> {
    let mut leaked: Vec<_> = cipher
        .chunks
        .iter()
        .zip(&plain.chunks)
        .step_by(step)
        .map(|(c, m)| (c.fp, m.fp))
        .collect();
    leaked.push((Fingerprint(u64::MAX), Fingerprint(u64::MAX - 1)));
    leaked
}

proptest! {
    /// Batch `COUNT` equals the reference at every thread count — the
    /// full build and the frequency-only one.
    #[test]
    fn count_tables_identical(fps in fp_stream()) {
        let b = backup("t", &fps);
        let tape = std::slice::from_ref(&b);
        let freq_only = ChunkStats::frequencies_only(&b);
        for t in THREADS {
            let par = ParConfig::with_threads(t);
            assert_count_matches(&DenseStats::full_par(&b, par), tape, &format!("threads {t}"));
            let dense = ChunkStats::from_dense(&DenseStats::frequencies_only_par(&b, par));
            prop_assert_eq!(&dense.freq, &freq_only.freq, "threads {}", t);
            prop_assert_eq!(&dense.sizes, &freq_only.sizes, "threads {}", t);
        }
    }

    /// The folded series — compaction interleaved at random commit points
    /// — equals the reference series `COUNT` at **every prefix** of the
    /// tape, and so do its top-k global ranks.
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
            let flat = inc.to_dense();
            assert_count_matches(&flat, &tape[..=i], &format!("prefix {i}"));
            // Global rows carry no order, so the policy is moot.
            let fps = flat.interner.fingerprints();
            let top: Vec<Fingerprint> =
                top_k_dense(&flat.global_rows(), k, fps, TiePolicy::StreamOrder)
                    .into_iter()
                    .map(|e| fps[e.id as usize])
                    .collect();
            let reference = ChunkStats::series(&tape[..=i], TiePolicy::StreamOrder);
            let expected: Vec<Fingerprint> =
                reference::rank(&reference.freq).into_iter().take(k).map(|(f, _)| f).collect();
            prop_assert_eq!(top, expected, "top-{} prefix {}", k, i);
        }
    }

    /// The global ranking, mapped back to fingerprints, equals the
    /// reference ranking.
    #[test]
    fn global_ranking_identical(fps in fp_stream()) {
        let b = backup("t", &fps);
        let dense = DenseStats::frequencies_only(&b);
        let fps_tab = dense.interner.fingerprints();
        let engine: Vec<Fingerprint> =
            rank_dense(&dense.global_rows(), fps_tab, TiePolicy::StreamOrder)
                .into_iter()
                .map(|e| fps_tab[e.id as usize])
                .collect();
        let expected: Vec<Fingerprint> = reference::rank(&ChunkStats::frequencies_only(&b).freq)
            .into_iter()
            .map(|(f, _)| f)
            .collect();
        prop_assert_eq!(engine, expected);
    }

    /// Ciphertext-only mode over one backup: every attack kind, from a
    /// batch `COUNT` at every thread count and from a one-commit fold,
    /// infers exactly the reference's mapping under both policies.
    #[test]
    fn ciphertext_only_identical(
        fps in fp_stream(),
        u in 1usize..4,
        v in 1usize..8,
    ) {
        let plain = backup("aux", &fps);
        let observed = DeterministicTraceEncryptor::new(b"eq").encrypt_backup(&plain);
        let mut streamed = IncrementalStats::default();
        streamed.commit(&observed.backup);
        for policy in POLICIES {
            let params = LocalityParams::new(u, v, 100_000).tie_policy(policy);
            let sc = ChunkStats::full(&observed.backup, policy);
            let sm = ChunkStats::full(&plain, policy);
            for kind in AttackKind::ALL {
                let expected = sorted_pairs(&reference::ciphertext_only(kind, &params, &sc, &sm));
                for t in THREADS {
                    let params = params.clone().threads(t);
                    for (engine, state) in [
                        (attacks::run_ciphertext_only(kind, &observed.backup, &plain, &params), "batch"),
                        (attacks::run_ciphertext_only_streaming(kind, &streamed, &plain, &params), "fold"),
                    ] {
                        prop_assert_eq!(
                            &sorted_pairs(&engine),
                            &expected,
                            "{} {:?} threads {} {}",
                            kind, policy, t, state
                        );
                    }
                }
            }
        }
    }

    /// Known-plaintext mode over one backup: leaked seeds (including a
    /// pair absent from both sides) expand to the reference's inference
    /// set for both crawls, both policies and every thread count. Also
    /// exercises the `w` queue bound.
    #[test]
    fn known_plaintext_identical(
        fps in fp_stream(),
        leak_every in 1usize..10,
        w in 0usize..50,
    ) {
        let plain = backup("aux", &fps);
        let observed = DeterministicTraceEncryptor::new(b"eq").encrypt_backup(&plain);
        let leaked = leaks(&observed.backup, &plain, leak_every);
        let mut streamed = IncrementalStats::default();
        streamed.commit(&observed.backup);
        let sm_dense = DenseStats::full(&plain);
        for policy in POLICIES {
            let sc = ChunkStats::full(&observed.backup, policy);
            let sm = ChunkStats::full(&plain, policy);
            for kind in [AttackKind::Locality, AttackKind::Advanced] {
                let params = LocalityParams::new(1, 5, w)
                    .tie_policy(policy)
                    .size_aware(kind == AttackKind::Advanced);
                let expected = sorted_pairs(&reference::known_plaintext(&params, &sc, &sm, &leaked));
                let fold = LocalityAttack::new(params.clone())
                    .run_known_plaintext_with_stats(&streamed.to_dense(), &sm_dense, &leaked);
                prop_assert_eq!(&sorted_pairs(&fold), &expected, "{} {:?} fold", kind, policy);
                for t in THREADS {
                    let engine = attacks::run_known_plaintext(
                        kind, &observed.backup, &plain, &leaked, &params.clone().threads(t),
                    );
                    prop_assert_eq!(
                        &sorted_pairs(&engine),
                        &expected,
                        "{} {:?} threads {}",
                        kind, policy, t
                    );
                }
            }
        }
    }

    /// Known-plaintext mode over a series: leaked seeds crawled over the
    /// folded tape expand to the reference's inference set over the
    /// reference series `COUNT`, at every thread count and both policies.
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
        let leaked = leaks(&aux, &aux, leak_every);
        let mut inc = IncrementalStats::default();
        for b in &tape {
            inc.commit(b);
        }
        let sc_dense = inc.to_dense();
        for policy in POLICIES {
            let sc = ChunkStats::series(&tape, policy);
            let sm = ChunkStats::full(&aux, policy);
            for kind in [AttackKind::Locality, AttackKind::Advanced] {
                let params = LocalityParams::new(1, 5, 1000)
                    .tie_policy(policy)
                    .size_aware(kind == AttackKind::Advanced);
                let expected = sorted_pairs(&reference::known_plaintext(&params, &sc, &sm, &leaked));
                for t in THREADS {
                    let sm_dense = DenseStats::full_par(&aux, ParConfig::with_threads(t));
                    let engine = LocalityAttack::new(params.clone().threads(t))
                        .run_known_plaintext_with_stats(&sc_dense, &sm_dense, &leaked);
                    prop_assert_eq!(
                        &sorted_pairs(&engine),
                        &expected,
                        "{} threads {} policy {:?}",
                        kind, t, policy
                    );
                }
            }
        }
    }

    /// `run_ciphertext_only_both_policies` — one `COUNT` per side, crawled
    /// under both tie policies — equals two single-policy runs and the
    /// reference, for every attack kind.
    #[test]
    fn both_policies_shared_build_matches_single_policy_runs(
        cipher_fps in prop::collection::vec(1u64..60, 1..200),
        aux_fps in prop::collection::vec(1u64..60, 1..200),
    ) {
        let cipher = backup("cipher", &cipher_fps);
        let aux = backup("aux", &aux_fps);
        let params = LocalityParams::new(2, 3, 1000);
        for kind in AttackKind::ALL {
            let both = attacks::run_ciphertext_only_both_policies(kind, &cipher, &aux, &params);
            prop_assert_eq!(both[0].0, TiePolicy::StreamOrder);
            prop_assert_eq!(both[1].0, TiePolicy::KeyOrder);
            for (policy, inference) in both {
                let params = params.clone().tie_policy(policy);
                let single = attacks::run_ciphertext_only(kind, &cipher, &aux, &params);
                prop_assert_eq!(
                    sorted_pairs(&inference),
                    sorted_pairs(&single),
                    "{} policy {:?}", kind, policy
                );
                let (sc, sm) = (ChunkStats::full(&cipher, policy), ChunkStats::full(&aux, policy));
                prop_assert_eq!(
                    sorted_pairs(&inference),
                    sorted_pairs(&reference::ciphertext_only(kind, &params, &sc, &sm)),
                    "{} policy {:?} reference", kind, policy
                );
            }
        }
    }

    /// Ciphertext-only inference over a series — the running fold with
    /// compaction interleaved, and `run_ciphertext_only_series` over the
    /// prefix — equals the reference over the reference series `COUNT`
    /// after every commit: all three attack kinds, both tie policies,
    /// every thread count.
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
                let params = LocalityParams::new(2, 3, 1000).tie_policy(policy);
                let sc = ChunkStats::series(&tape[..=i], policy);
                let sm = ChunkStats::full(&aux, policy);
                for kind in AttackKind::ALL {
                    let expected =
                        sorted_pairs(&reference::ciphertext_only(kind, &params, &sc, &sm));
                    for t in THREADS {
                        let params = params.clone().threads(t);
                        for (engine, state) in [
                            (attacks::run_ciphertext_only_streaming(kind, &inc, &aux, &params), "running"),
                            (attacks::run_ciphertext_only_series(kind, &tape[..=i], &aux, &params), "series"),
                        ] {
                            prop_assert_eq!(
                                &sorted_pairs(&engine),
                                &expected,
                                "{} prefix {} threads {} policy {:?} {}",
                                kind, i, t, policy, state
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The paper's worked example (§4.2, Fig. 3): M = ⟨M1 M2 M1 M2 M3 M4 M2 M3
/// M4⟩, C = ⟨C1 C2 C5 C2 C1 C2 C3 C4 C2 C3 C4 C4⟩ where Ci encrypts Mi and
/// C5 is new. The engine's `COUNT` gives the paper's neighbour sets and
/// equals the reference's, and with u = v = 1 both crawls recover C1..C4
/// — but not C5 — at every thread count.
#[test]
fn paper_worked_example() {
    let aux = backup("m", &[1, 2, 1, 2, 3, 4, 2, 3, 4]);
    let cipher = backup(
        "c",
        &[101, 102, 105, 102, 101, 102, 103, 104, 102, 103, 104, 104],
    );
    let dense = DenseStats::full(&cipher);
    assert_count_matches(&dense, std::slice::from_ref(&cipher), "paper example");
    let neighbours = |csr: &freqdedup::core::CooccurrenceCsr| -> Vec<u64> {
        let c2 = dense.interner.get(Fingerprint(102)).unwrap();
        let mut row: Vec<u64> = csr
            .row(c2)
            .iter()
            .map(|e| dense.interner.fingerprint(e.id).0)
            .collect();
        row.sort_unstable();
        row
    };
    assert_eq!(
        neighbours(&dense.left),
        [101, 104, 105],
        "L_C2 = {{C1, C4, C5}}"
    );
    assert_eq!(
        neighbours(&dense.right),
        [101, 103, 105],
        "R_C2 = {{C1, C3, C5}}"
    );

    let params = LocalityParams::new(1, 1, 1000);
    let (sc, sm) = (
        ChunkStats::full(&cipher, TiePolicy::StreamOrder),
        ChunkStats::full(&aux, TiePolicy::StreamOrder),
    );
    let expected = reference::ciphertext_only(AttackKind::Locality, &params, &sc, &sm);
    for i in 1..=4u64 {
        assert_eq!(
            expected.plain_of(Fingerprint(100 + i)),
            Some(Fingerprint(i))
        );
    }
    assert_eq!(expected.plain_of(Fingerprint(105)), None);
    for t in [1usize, 2, 8, 64] {
        let engine =
            LocalityAttack::new(params.clone().threads(t)).run_ciphertext_only(&cipher, &aux);
        assert_eq!(
            sorted_pairs(&engine),
            sorted_pairs(&expected),
            "threads {t}"
        );
    }
}

/// Two fixed shapes the crawls walk far on: hot chunks adjoining a chain
/// of once-occurring chunks (the locality crawl), and a chain interleaved
/// with hot chunks in many size classes (the size-classified crawl).
#[test]
fn long_chains_match_reference() {
    let mut chain: Vec<u64> = (0..50).flat_map(|_| [1u64, 2, 2]).collect();
    chain.extend(1000..1400u64);
    let sized = |fps: &[u64]| -> Backup {
        let chunks = fps
            .iter()
            .map(|&f| ChunkRecord::new(f, 1024 + ((f % 64) * 16) as u32));
        Backup::from_chunks("aux", chunks.collect())
    };
    let interleaved: Vec<u64> = (0..200u64).flat_map(|i| [i, i % 7 + 900]).collect();
    for (plain, kind) in [
        (backup("aux", &chain), AttackKind::Locality),
        (sized(&interleaved), AttackKind::Advanced),
    ] {
        let observed = DeterministicTraceEncryptor::new(b"s").encrypt_backup(&plain);
        for policy in POLICIES {
            let sc = ChunkStats::full(&observed.backup, policy);
            let sm = ChunkStats::full(&plain, policy);
            for params in [LocalityParams::default(), LocalityParams::new(2, 5, 10_000)] {
                let params = params.tie_policy(policy);
                let engine = attacks::run_ciphertext_only(kind, &observed.backup, &plain, &params);
                let expected = reference::ciphertext_only(kind, &params, &sc, &sm);
                assert!(
                    expected.len() > 200,
                    "{kind} {policy:?}: {}",
                    expected.len()
                );
                assert_eq!(
                    sorted_pairs(&engine),
                    sorted_pairs(&expected),
                    "{kind} {policy:?}"
                );
            }
        }
    }
}

/// A long series of uneven commits over a shared pool keeps a deep merge
/// stack; its flatten equals the reference series `COUNT`.
#[test]
fn deep_merge_stack_matches_reference() {
    let tape: Vec<Backup> = (0..200u64)
        .map(|i| {
            let fps: Vec<u64> = (0..(i * 7) % 31 + 2).map(|j| (i * 5 + j) % 499).collect();
            backup("b", &fps)
        })
        .collect();
    let mut inc = IncrementalStats::default();
    for b in &tape {
        inc.commit(b);
    }
    assert!(
        inc.left().num_segments() >= 5,
        "{}",
        inc.left().num_segments()
    );
    assert_count_matches(&inc.to_dense(), &tape, "deep stack");
}

/// Empty backup: committing it changes nothing but the commit counter.
#[test]
fn empty_backup_delta_is_identity() {
    let mut inc = IncrementalStats::default();
    inc.commit(&backup("seed", &[1, 2, 1, 3]));
    let before = inc.to_dense();
    let receipt = inc.commit(&backup("empty", &[]));
    assert_eq!(receipt.chunks, 0);
    assert_eq!(receipt.new_unique, 0);
    assert_eq!(receipt.merged_entries, 0);
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
    let flat = inc.to_dense();
    assert_eq!(flat, DenseStats::full(&tape[0]));
    assert_count_matches(&flat, &tape, "duplicate-only");
    assert_eq!(inc.freq(), &[12]);
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
    assert_eq!(inc.to_dense(), DenseStats::full(&tape[0]));
    assert_count_matches(&inc.to_dense(), &tape, "single chunk");
    assert_eq!(inc.freq(), &[1]);
    assert_eq!(inc.left().num_entries() + inc.right().num_entries(), 0);
}

/// Commit-boundary adjacency: chunks that touch only across a commit
/// boundary must NOT be neighbours — the fold appends one run per commit,
/// and a leaked cross-boundary edge is the classic bug.
#[test]
fn no_adjacency_across_commit_boundaries() {
    let tape = vec![backup("a", &[1, 2]), backup("b", &[3, 4])];
    let mut inc = IncrementalStats::default();
    for b in &tape {
        inc.commit(b);
    }
    let flat = inc.to_dense();
    let id2 = flat.interner.get(Fingerprint(2)).unwrap();
    let id3 = flat.interner.get(Fingerprint(3)).unwrap();
    assert!(
        !flat.right.row(id2).iter().any(|e| e.id == id3),
        "2 -> 3 spans the commit boundary and must not be an edge"
    );
    assert_count_matches(&flat, &tape, "two commits");
}

/// The crawl ranks each auxiliary neighbour row once per side and reuses
/// prefixes of that ranking. This shape revisits one hot plaintext `H`
/// through many ciphertexts: the auxiliary stream is `H` followed by two
/// once-seen chunks, 200 times over (400 distinct chunks, so `H`'s left and
/// right rows differ), and the target is the same stream with `H` split
/// round-robin into 40 fresh fingerprints (TED's variant split),
/// trace-encrypted. So `H`'s rows are longer than `8·v` (`top_k_dense`
/// takes the heap path), several ciphertexts are inferred onto `H`, and
/// their rows are shorter than `v`, so steps at `H` take fewer than `v`
/// ranks. Both modes, both policies, batch and fold equal the reference,
/// and the test checks its own shape on the reference's output.
#[test]
fn revisited_hot_plaintext_matches_reference() {
    const H: u64 = 5000;
    let aux_fps: Vec<u64> = (0..200u64)
        .flat_map(|i| [H, 2 * i + 1, 2 * i + 2])
        .collect();
    let split: Vec<u64> = (0..200u64)
        .flat_map(|i| [6000 + i % 40, 2 * i + 1, 2 * i + 2])
        .collect();
    let plain = backup("aux", &aux_fps);
    let observed = DeterministicTraceEncryptor::new(b"hot").encrypt_backup(&backup("t", &split));
    let cipher = &observed.backup;
    let leaked = leaks(cipher, &plain, 7);
    let mut streamed = IncrementalStats::default();
    streamed.commit(cipher);
    let (sc_dense, sm_dense) = (streamed.to_dense(), DenseStats::full(&plain));
    for policy in POLICIES {
        let params = LocalityParams::default().tie_policy(policy);
        let (v, h) = (params.v, Fingerprint(H));
        let sc = ChunkStats::full(cipher, policy);
        let sm = ChunkStats::full(&plain, policy);
        assert!(sm.left[&h].len() > 8 * v && sm.right[&h].len() > 8 * v);
        let attack = LocalityAttack::new(params.clone());
        for (mode, expected, batch, fold) in [
            (
                "ciphertext-only",
                reference::ciphertext_only(AttackKind::Locality, &params, &sc, &sm),
                attacks::run_ciphertext_only(AttackKind::Locality, cipher, &plain, &params),
                attack.run_ciphertext_only_with_stats(&sc_dense, &sm_dense),
            ),
            (
                "known-plaintext",
                reference::known_plaintext(&params, &sc, &sm, &leaked),
                attacks::run_known_plaintext(
                    AttackKind::Locality,
                    cipher,
                    &plain,
                    &leaked,
                    &params,
                ),
                attack.run_known_plaintext_with_stats(&sc_dense, &sm_dense, &leaked),
            ),
        ] {
            let onto_h: Vec<Fingerprint> = expected
                .iter()
                .filter_map(|(c, m)| (m == h).then_some(c))
                .collect();
            assert!(onto_h.len() >= 2, "{mode} {policy:?}: {onto_h:?}");
            let short_rows = onto_h
                .iter()
                .filter(|c| sc.left.get(c).map_or(0, |r| r.len()) < v)
                .count();
            assert!(short_rows >= 1, "{mode} {policy:?}");
            let expected = sorted_pairs(&expected);
            assert_eq!(sorted_pairs(&batch), expected, "{mode} {policy:?} batch");
            assert_eq!(sorted_pairs(&fold), expected, "{mode} {policy:?} fold");
        }
    }
}
