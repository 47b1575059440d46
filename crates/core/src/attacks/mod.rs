//! The paper's three inference attacks (§4).

pub mod advanced;
pub mod basic;
pub mod locality;

use freqdedup_trace::{Backup, Fingerprint};

use crate::dense::DenseStats;
use crate::freq_analysis::TiePolicy;
use crate::metrics::Inference;
use crate::streaming::IncrementalStats;

/// Which attack to run — used by the experiment harness to sweep all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Classical frequency analysis (Algorithm 1).
    Basic,
    /// Locality-based attack (Algorithm 2).
    Locality,
    /// Advanced (size-aware) locality-based attack (Algorithm 3).
    Advanced,
}

impl AttackKind {
    /// All attacks, in the paper's presentation order.
    pub const ALL: [AttackKind; 3] = [
        AttackKind::Basic,
        AttackKind::Locality,
        AttackKind::Advanced,
    ];

    /// Human-readable name as used in the figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Basic => "Basic Attack",
            AttackKind::Locality => "Locality-based Attack",
            AttackKind::Advanced => "Advanced Attack",
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `kind` in ciphertext-only mode with the given locality parameters
/// (`u`, `v`, `w` are ignored by the basic attack).
#[must_use]
pub fn run_ciphertext_only(
    kind: AttackKind,
    cipher: &Backup,
    plain_aux: &Backup,
    params: &locality::LocalityParams,
) -> Inference {
    match kind {
        AttackKind::Basic => basic::BasicAttack::new().run(cipher, plain_aux),
        AttackKind::Locality => locality::LocalityAttack::new(params.clone().size_aware(false))
            .run_ciphertext_only(cipher, plain_aux),
        AttackKind::Advanced => {
            advanced::AdvancedAttack::new(params.clone()).run_ciphertext_only(cipher, plain_aux)
        }
    }
}

/// Runs `kind` in ciphertext-only mode over pre-built attack state on both
/// sides, ranking ties under `params.tie_policy`.
fn run_ciphertext_only_with_stats(
    kind: AttackKind,
    sc: &DenseStats,
    sm: &DenseStats,
    params: &locality::LocalityParams,
) -> Inference {
    match kind {
        AttackKind::Basic => basic::BasicAttack::new().run_with_stats(sc, sm),
        AttackKind::Locality => locality::LocalityAttack::new(params.clone().size_aware(false))
            .run_ciphertext_only_with_stats(sc, sm),
        AttackKind::Advanced => {
            advanced::AdvancedAttack::new(params.clone()).run_ciphertext_only_with_stats(sc, sm)
        }
    }
}

/// Runs `kind` in ciphertext-only mode over pre-built attack state on both
/// sides under **both** tie-break policies (`params.tie_policy` is
/// overridden per run), in `[StreamOrder, KeyOrder]` order: `COUNT` is
/// policy-free, so one state per side serves both crawls.
#[must_use]
pub fn run_ciphertext_only_with_stats_both_policies(
    kind: AttackKind,
    sc: &DenseStats,
    sm: &DenseStats,
    params: &locality::LocalityParams,
) -> [(TiePolicy, Inference); 2] {
    [TiePolicy::StreamOrder, TiePolicy::KeyOrder].map(|policy| {
        let per_policy = params.clone().tie_policy(policy);
        (
            policy,
            run_ciphertext_only_with_stats(kind, sc, sm, &per_policy),
        )
    })
}

/// Runs `kind` in ciphertext-only mode under **both** neighbour-table
/// tie-break policies: one `COUNT` per side, two crawls.
///
/// This is the attack entry point for provider-side tapped traces: the
/// live-traffic equivalence criterion requires that an adversary tap's
/// inference matches offline ingest under *either* [`TiePolicy`], so the
/// tap consumers (service example, integration tests, `fdbench`) sweep the
/// pair through this helper. The result is bit-identical to two
/// independent [`run_ciphertext_only`] calls (pinned by
/// `tests/attack_equivalence.rs`).
#[must_use]
pub fn run_ciphertext_only_both_policies(
    kind: AttackKind,
    cipher: &Backup,
    plain_aux: &Backup,
    params: &locality::LocalityParams,
) -> [(TiePolicy, Inference); 2] {
    let sc = DenseStats::full(cipher);
    let sm = DenseStats::full(plain_aux);
    run_ciphertext_only_with_stats_both_policies(kind, &sc, &sm, params)
}

/// Runs `kind` in ciphertext-only mode against a **series** of tapped
/// ciphertext backups: the tape is folded, in order, into a fresh
/// [`IncrementalStats`] (ids interned across the whole tape, frequencies
/// summed over the backups, no adjacency across a backup boundary),
/// flattened, and crawled like [`run_ciphertext_only_streaming`]. The fold
/// is dropped once flattened: the crawl reads only the flat table.
#[must_use]
pub fn run_ciphertext_only_series(
    kind: AttackKind,
    cipher_tape: &[impl std::borrow::Borrow<Backup>],
    plain_aux: &Backup,
    params: &locality::LocalityParams,
) -> Inference {
    let sc = {
        let mut cipher = IncrementalStats::default();
        for backup in cipher_tape {
            cipher.commit(backup.borrow());
        }
        cipher.to_dense()
    };
    let sm = DenseStats::full(plain_aux);
    run_ciphertext_only_with_stats(kind, &sc, &sm, params)
}

/// Runs `kind` in ciphertext-only mode against a **running**
/// [`IncrementalStats`] maintained behind live traffic — the adversary's
/// O(delta)-per-commit steady state. No ciphertext-side `COUNT` happens:
/// the state is flattened once ([`IncrementalStats::to_dense`], O(entries))
/// and crawled like a batch table.
#[must_use]
pub fn run_ciphertext_only_streaming(
    kind: AttackKind,
    cipher: &IncrementalStats,
    plain_aux: &Backup,
    params: &locality::LocalityParams,
) -> Inference {
    let sc = cipher.to_dense();
    let sm = DenseStats::full(plain_aux);
    run_ciphertext_only_with_stats(kind, &sc, &sm, params)
}

/// Runs `kind` in known-plaintext mode with leaked pairs. The basic attack
/// has no known-plaintext variant in the paper and ignores the leakage.
#[must_use]
pub fn run_known_plaintext(
    kind: AttackKind,
    cipher: &Backup,
    plain_aux: &Backup,
    leaked: &[(Fingerprint, Fingerprint)],
    params: &locality::LocalityParams,
) -> Inference {
    match kind {
        AttackKind::Basic => basic::BasicAttack::new().run(cipher, plain_aux),
        AttackKind::Locality => locality::LocalityAttack::new(params.clone().size_aware(false))
            .run_known_plaintext(cipher, plain_aux, leaked),
        AttackKind::Advanced => advanced::AdvancedAttack::new(params.clone())
            .run_known_plaintext(cipher, plain_aux, leaked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(AttackKind::Basic.name(), "Basic Attack");
        assert_eq!(AttackKind::Locality.to_string(), "Locality-based Attack");
        assert_eq!(AttackKind::ALL.len(), 3);
    }

    #[test]
    fn both_policies_match_single_policy_runs() {
        use freqdedup_trace::ChunkRecord;
        let backup = |fps: &[u64]| -> Backup {
            Backup::from_chunks("t", fps.iter().map(|&f| ChunkRecord::new(f, 8)).collect())
        };
        let aux = backup(&[1, 2, 1, 2, 3, 4, 2, 3, 4]);
        let cipher = backup(&[101, 102, 105, 102, 101, 102, 103, 104, 102, 103, 104, 104]);
        let params = locality::LocalityParams::new(1, 1, 1000);
        let both = run_ciphertext_only_both_policies(AttackKind::Locality, &cipher, &aux, &params);
        assert_eq!(both[0].0, TiePolicy::StreamOrder);
        assert_eq!(both[1].0, TiePolicy::KeyOrder);
        for (policy, inference) in both {
            let single = run_ciphertext_only(
                AttackKind::Locality,
                &cipher,
                &aux,
                &params.clone().tie_policy(policy),
            );
            let mut a: Vec<_> = inference.iter().collect();
            let mut b: Vec<_> = single.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "policy {policy:?}");
        }
    }
}
