//! Frequency-analysis inference attacks and defenses for encrypted
//! deduplication — the primary contribution of Li et al. (DSN 2017 /
//! arXiv:1904.05736).
//!
//! # The problem
//!
//! Deterministic message-locked encryption maps identical plaintext chunks to
//! identical ciphertext chunks, so the **frequency distribution** of chunks
//! survives encryption. Backup workloads are highly skewed (Fig. 1) and
//! exhibit **chunk locality** — neighbouring chunks re-occur together across
//! backup versions — so an adversary holding an older backup's plaintext
//! fingerprints can infer the content of the newest backup's ciphertext
//! chunks.
//!
//! # Attacks
//!
//! * [`attacks::basic`] — classical frequency analysis (Algorithm 1): match
//!   the i-th most frequent ciphertext chunk with the i-th most frequent
//!   plaintext chunk. Nearly useless in practice, but the building block.
//! * [`attacks::locality`] — the locality-based attack (Algorithm 2):
//!   iteratively extend an inferred set `G` through left/right neighbour
//!   co-occurrence statistics, parameterized by `u`, `v`, `w`.
//! * [`attacks::advanced`] — the advanced locality-based attack
//!   (Algorithm 3): every frequency-analysis step additionally classifies
//!   chunks by size in 16-byte cipher blocks, exploiting the size leakage of
//!   variable-size chunking.
//!
//! # Data layer
//!
//! Every attack crawls one state, [`DenseStats`]: the frequency table `F`
//! and the neighbour tables `L`/`R` of `COUNT`, over interned `u32` ids in
//! CSR form ([`dense`]). A batch `COUNT` builds it straight from one
//! backup, bucketing each side's adjacencies by row with a counting sort;
//! the running [`IncrementalStats`] ([`streaming`]) folds it commit by
//! commit over a series of backups, sorting each commit's adjacencies, and
//! its flatten is the same table. [`freq_analysis`] ranks its rows under a
//! [`TiePolicy`].
//!
//! # Defenses
//!
//! All implement the object-safe [`defense::DefenseScheme`] trait
//! (select one at runtime, hand it a [`defense::KeyContext`]):
//!
//! * [`defense::NoDefense`] — plain deterministic MLE, the test-pinned
//!   baseline every tournament row is measured against.
//! * [`defense::minhash`] — MinHash encryption (Algorithm 4): derive the
//!   encryption key per *segment* from the segment's minimum chunk
//!   fingerprint; Broder's theorem keeps keys mostly stable across similar
//!   backups, preserving deduplication while disturbing frequency ranks.
//! * [`defense::scramble`] — scrambling (Algorithm 5): per-segment random
//!   reordering of chunks, breaking the locality the attack feeds on.
//! * [`defense::combined`] — both, the paper's recommended configuration.
//! * [`defense::ted`] — TED-style tunable dedup: split hot fingerprints
//!   across multiple ciphertexts under a storage-blowup budget.
//! * [`defense::smooth`] — partition-based frequency smoothing (the PFSE
//!   shape): partition the histogram, smooth within partitions.
//!
//! # Quick start
//!
//! ```
//! use freqdedup_core::{attacks::locality::{LocalityAttack, LocalityParams}, metrics};
//! use freqdedup_mle::trace_enc::DeterministicTraceEncryptor;
//! use freqdedup_trace::{Backup, ChunkRecord};
//!
//! // A prior backup (auxiliary information) and the latest backup: hot
//! // chunks with *distinct* frequencies (the frequency-analysis anchor)
//! // followed by a long run of once-occurring chunks (the unique chain the
//! // locality crawl walks).
//! let mut fps: Vec<ChunkRecord> = Vec::new();
//! for _ in 0..50 {
//!     fps.push(ChunkRecord::new(1u64, 8192));
//!     fps.push(ChunkRecord::new(2u64, 8192));
//!     fps.push(ChunkRecord::new(2u64, 8192));
//! }
//! fps.extend((1000..3000u64).map(|i| ChunkRecord::new(i, 8192)));
//! let prior = Backup::from_chunks("prior", fps);
//! let latest = prior.clone();
//!
//! // The adversary taps the deterministic-MLE ciphertext stream.
//! let enc = DeterministicTraceEncryptor::new(b"system secret");
//! let observed = enc.encrypt_backup(&latest);
//!
//! // Locality-based attack in ciphertext-only mode.
//! let attack = LocalityAttack::new(LocalityParams::default());
//! let inferred = attack.run_ciphertext_only(&observed.backup, &prior);
//! let report = metrics::score(&inferred, &observed.backup, &observed.truth);
//! assert!(report.rate > 0.9); // identical backups leak almost everything
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod defense;
pub mod dense;
pub mod freq_analysis;
pub mod metrics;
pub mod par;
pub mod streaming;

pub use attacks::AttackKind;
pub use defense::{DefenseError, DefenseScheme, KeyContext};
pub use dense::{ChunkInterner, CooccurrenceCsr, DenseEntry, DenseStats};
pub use freq_analysis::TiePolicy;
pub use metrics::{Inference, InferenceReport};
pub use streaming::{CommitReceipt, IncrementalStats};
