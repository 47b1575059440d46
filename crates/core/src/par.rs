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
//! The attacks themselves run on one thread: `COUNT` is a counting sort
//! that outruns a two-thread comparison sort (DESIGN.md §6), and the
//! crawl is sequential FIFO expansion. What runs on these primitives
//! is the [`crate::defense::DefenseScheme::encrypt_backup_par`] contract
//! (bit-identical to the sequential path at every thread count, pinned by
//! `tests/defense_contract.rs`) and, outside this crate, the server's
//! bounded worker pool and the harnesses that shard a stream into epochs.

pub use freqdedup_trace::par::{
    par_fold, par_for_each_mut, par_map, par_shards, shard_ranges, ParConfig,
};
