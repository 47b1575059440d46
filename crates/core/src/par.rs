//! Sharded parallel execution for the attack pipeline — the canonical
//! public surface of the workspace's parallel layer.
//!
//! The primitives themselves ([`ParConfig`], [`shard_ranges`],
//! [`par_shards`], [`par_map`], [`par_for_each_mut`]) live
//! in `freqdedup_trace::par` (the workspace's base crate) so that the
//! `mle` and `store` layers — which `freqdedup-core` itself depends on —
//! can share them without a dependency cycle. This module re-exports them
//! unchanged; attack-side code should import from here.
//!
//! The attacks themselves run on one thread: `COUNT` is a counting sort
//! that outruns a two-thread comparison sort (DESIGN.md §6), and the
//! crawl is sequential FIFO expansion. What runs on these primitives is
//! outside this crate: sharded chunking and ingest, the server's bounded
//! worker pool, and the harnesses that shard a stream into epochs or
//! clients.

pub use freqdedup_trace::par::{par_for_each_mut, par_map, par_shards, shard_ranges, ParConfig};
