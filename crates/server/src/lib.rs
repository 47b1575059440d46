//! Networked encrypted-deduplication service.
//!
//! Every experiment before this crate ran in one process; the paper's
//! adversary, however, sits at the *storage provider* — it observes the
//! ciphertext chunk stream that clients upload to an encrypted-dedup
//! service (§3: the logical order of ciphertext chunks of the latest
//! backup before deduplication). This crate builds that vantage point:
//!
//! * [`frame`] — length-prefixed, CRC-32-checked wire frames;
//! * [`proto`] — the message set (HELLO version negotiation,
//!   PUT-CHUNK-BATCH, COMMIT-MANIFEST, GET-CHUNK, RESTORE-BACKUP, STATS,
//!   SHUTDOWN) and its binary encoding;
//! * [`pool`] — a bounded connection worker pool built on the scoped
//!   deterministic primitives of [`freqdedup_core::par`];
//! * [`server`] — the TCP service: a [`freqdedup_store::sharded::ShardedDedupEngine`]
//!   (optionally durable via the PR 4 persistence layer) behind an accept
//!   loop and N session workers, with graceful drain-and-checkpoint
//!   shutdown;
//! * [`session`] — the protocol as one socket-free state machine (a
//!   session answers each message into any `std::io::Write` sink), and
//!   the per-connection TCP shell that drives it;
//! * [`client`] — the client library: batched, pipelined uploads and
//!   verified restore, plus [`client::ResilientClient`] — deadlines,
//!   seeded-backoff reconnects, and resumable exactly-once commits;
//! * [`fault`] — deterministic network fault injection: a seeded,
//!   frame-aware TCP proxy ([`fault::FaultProxy`]) for the chaos suite;
//! * [`catalog`] — the service's state and its write-ahead journal
//!   (`catalog.log`): one CRC-framed record per acknowledged COMMIT,
//!   DELETE-BACKUP, GC and REKEY, appended before the ack;
//! * [`tap`] — the provider-side adversary tap, an observer of the catalog:
//!   the per-session observed ciphertext fingerprint streams,
//!   re-materialized as ordinary [`freqdedup_trace::Backup`]s so
//!   `LocalityAttack` / `AdvancedAttack` run unchanged against live
//!   traffic.
//!
//! The wire format byte layout, the threading model and the tap's
//! threat-surface mapping to the paper's adversary models are documented
//! in `DESIGN.md` §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod fault;
pub mod frame;
pub mod pool;
pub mod proto;
pub mod server;
pub mod session;
pub mod tap;
