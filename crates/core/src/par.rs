//! Sharded parallel execution for the attack pipeline — the canonical
//! public surface of the workspace's parallel layer.
//!
//! The primitives themselves ([`ParConfig`], [`shard_ranges`],
//! [`par_shards`], [`par_map`], [`par_fold`], [`par_for_each_mut`]) live
//! in `freqdedup_trace::par` (the workspace's base crate) so that the
//! `mle` and `store` layers — which `freqdedup-core` itself depends on —
//! can share them without a dependency cycle. This module re-exports them
//! unchanged; attack-side code should import from here.
//!
//! What runs on them in this crate:
//!
//! * [`crate::dense::DenseStats::full_par`] — batch `COUNT`:
//!   per-shard frequency counting over contiguous stream ranges
//!   (elementwise-summed in shard order), and the `COUNT` kernel run on
//!   each **chunk-id range** of the adjacency events, whose sorted runs
//!   concatenate into exactly the one sorted run of the whole stream.
//! * [`crate::attacks::locality::LocalityParams::threads`] — the knob
//!   that selects parallel `COUNT` inside the locality/advanced attacks
//!   (the crawl itself is inherently sequential FIFO expansion and stays
//!   single-threaded).
//! * [`crate::attacks::basic::BasicAttack::run_par`] — parallel
//!   frequency-only counting for Algorithm 1.
//!
//! All of these are **deterministic**: output is bit-identical to the
//! sequential path at every thread count (pinned by
//! `tests/attack_equivalence.rs`).

pub use freqdedup_trace::par::{
    par_fold, par_for_each_mut, par_map, par_shards, shard_ranges, ParConfig,
};
