//! A DDFS-like deduplicated storage engine (paper §7.4, Fig. 12).
//!
//! The engine reproduces the metadata flow of the Data Domain File System
//! (Zhu et al., FAST 2008) that the paper's prototype is built on:
//!
//! * unique chunks are packed into multi-megabyte [containers](container) in
//!   logical order;
//! * a [fingerprint index](index) maps fingerprints to containers and is
//!   modelled as **on-disk**, with every access accounted in bytes;
//! * an in-memory [Bloom filter](bloom) short-circuits lookups for brand-new
//!   chunks;
//! * an in-memory [LRU fingerprint cache](cache) exploits chunk locality:
//!   on an index hit, the fingerprints of the whole enclosing container are
//!   prefetched into the cache.
//!
//! [`engine::DedupEngine`] wires these together with the exact S1→S4
//! workflow of §7.4.1 and produces the update / index / loading
//! metadata-access breakdown of Figures 13–14.
//! [`sharded::ShardedDedupEngine`] partitions the fingerprint space into
//! prefix shards — one full engine each — for shard-parallel ingest with
//! merged counters.
//!
//! Both engines can be **durable**: with [`persist::PersistConfig`] set on
//! the configuration, sealed containers are written to append-only [log
//! files](log), committed through a write-ahead [manifest journal +
//! snapshot](manifest) (a [`journal::Journal`], the same type the
//! service's catalog is kept in), and recovered on reopen — bit-identically after a
//! clean close, and to the last consistent sealed state after a crash.
//!
//! The [lifecycle] subsystem closes the loop for long-lived
//! stores: backups are committed as [recipes](lifecycle::Recipe) feeding
//! per-chunk [reference counts](refcount), `delete_backup` releases them,
//! a `gc` pass compacts mostly-dead containers (journaling every move
//! through the same write-ahead manifest), and REED-style `rekey`
//! re-encrypts stored payloads under a fresh key epoch in place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod cache;
pub mod container;
pub mod engine;
pub mod fault;
pub mod index;
pub mod journal;
pub mod lifecycle;
pub mod log;
pub mod manifest;
pub mod persist;
pub mod refcount;
pub mod sharded;
pub mod stats;
