//! Deterministic fault injection for the persistence layer.
//!
//! Every durable write and fsync in [`crate::log`], [`crate::journal`]
//! (the server's `catalog.log` included) and [`crate::persist`] consults
//! an [`IoPolicy`] through the
//! [`IoPolicyHandle`] carried by
//! [`PersistConfig`](crate::persist::PersistConfig). The default handle is
//! empty — production paths pay one `Option` branch per durable operation
//! and nothing else. Tests install a policy to simulate the classic crash
//! shapes at any individual site:
//!
//! * **short write** — a prefix of the bytes lands, then the operation
//!   errors, leaving exactly the torn-tail shape the recovery invariant
//!   (DESIGN.md §7) must tolerate;
//! * **fsync failure** — the data may be in the page cache but durability
//!   was never confirmed, so recovery must not rely on it;
//! * **hard failure** — the operation errors before any byte lands.
//!
//! The engine's reaction to a persist error mid-ingest is a panic
//! (fail-stop; it then refuses every later durable write until reopened,
//! see [`PersistError::Failed`]), which the crash-matrix tests catch with
//! `std::panic::catch_unwind` before reopening the directory — the same
//! technique the torn-tail suite uses, now reaching sites a file-truncation
//! test cannot (fsync failures, mid-journal appends, snapshot renames).

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::persist::{FsyncPolicy, PersistError};

/// A durable operation site in the persistence layer. One value per
/// distinct crash point: failing at each site exercises a different edge
/// of the write-ahead ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PersistSite {
    /// Container log body (`container-NNNNNNNN.clog` create + records).
    ContainerWrite,
    /// Container log fsync (before its manifest record — the write-ahead
    /// ordering edge).
    ContainerSync,
    /// Manifest journal header write at creation.
    ManifestHeader,
    /// Any record appended to the manifest journal.
    ManifestAppend,
    /// Manifest journal fsync after an append.
    ManifestSync,
    /// Snapshot temp-file body write.
    SnapshotWrite,
    /// Snapshot temp-file fsync before the rename.
    SnapshotSync,
    /// The atomic rename that publishes `index.snap`.
    SnapshotRename,
    /// `store.meta` write at directory creation.
    MetaWrite,
    /// Backup recipe file body write (`recipe-*.rcp`, before its manifest
    /// record — the lifecycle write-ahead edge).
    RecipeWrite,
    /// Backup recipe file fsync before the manifest record.
    RecipeSync,
    /// Rekeyed container temp-file body write (`.clog.tmp`).
    RekeyWrite,
    /// Rekeyed container temp-file fsync before the rename.
    RekeySync,
    /// The atomic rename that publishes a rekeyed container log.
    RekeyRename,
    /// Directory-entry fsync after a create or rename.
    DirSync,
    /// The service's `catalog.log`: its header, then each record.
    CatalogAppend,
    /// `catalog.log` fsync after its header or a record.
    CatalogSync,
}

/// All injection sites a store engine writes through, in write-ahead
/// order — the crash-matrix tests iterate this.
pub const ALL_SITES: [PersistSite; 15] = [
    PersistSite::MetaWrite,
    PersistSite::ManifestHeader,
    PersistSite::ContainerWrite,
    PersistSite::ContainerSync,
    PersistSite::RecipeWrite,
    PersistSite::RecipeSync,
    PersistSite::ManifestAppend,
    PersistSite::ManifestSync,
    PersistSite::RekeyWrite,
    PersistSite::RekeySync,
    PersistSite::RekeyRename,
    PersistSite::SnapshotWrite,
    PersistSite::SnapshotSync,
    PersistSite::SnapshotRename,
    PersistSite::DirSync,
];

/// The injection sites of the service's `catalog.log`, which no store
/// engine writes (its creation's directory fsync is [`PersistSite::DirSync`]).
pub const CATALOG_SITES: [PersistSite; 2] = [PersistSite::CatalogAppend, PersistSite::CatalogSync];

/// What an [`IoPolicy`] tells a site to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Perform the operation normally.
    Proceed,
    /// Write only the first `n` bytes, then fail — a torn write. At a sync
    /// site (where there are no bytes) this degrades to [`Self::Fail`].
    ShortWrite(usize),
    /// Fail without performing the operation.
    Fail,
}

/// A fault-injection policy consulted before every durable operation.
///
/// Implementations are stateful by design (count operations, fire once,
/// follow a seeded schedule); the handle serializes calls behind a mutex,
/// so `&mut self` is safe even when shards write concurrently.
pub trait IoPolicy: Send {
    /// Called before writing `len` bytes at `site`.
    fn before_write(&mut self, site: PersistSite, len: usize) -> FaultAction;
    /// Called before an fsync (of a file or directory) at `site`.
    fn before_sync(&mut self, site: PersistSite) -> FaultAction;
}

/// A cloneable, shareable handle to an optional [`IoPolicy`].
///
/// The default (empty) handle is what every production
/// [`PersistConfig`](crate::persist::PersistConfig) carries: each durable
/// operation then costs a single `Option::is_none` branch. Clones share
/// the same underlying policy, so a
/// [`ShardedDedupEngine`](crate::sharded::ShardedDedupEngine) threading
/// one config into N shard directories drives all shards from one
/// schedule.
#[derive(Clone, Default)]
pub struct IoPolicyHandle {
    inner: Option<Arc<Mutex<Box<dyn IoPolicy>>>>,
}

impl IoPolicyHandle {
    /// The empty handle (no injection; the production default).
    #[must_use]
    pub fn none() -> Self {
        IoPolicyHandle::default()
    }

    /// Wraps a policy for injection.
    pub fn new(policy: impl IoPolicy + 'static) -> Self {
        IoPolicyHandle {
            inner: Some(Arc::new(Mutex::new(Box::new(policy)))),
        }
    }

    /// Whether a policy is installed.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Consults the policy before a write. Empty handle: [`FaultAction::Proceed`].
    pub(crate) fn before_write(&self, site: PersistSite, len: usize) -> FaultAction {
        match &self.inner {
            None => FaultAction::Proceed,
            Some(p) => p
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .before_write(site, len),
        }
    }

    /// Consults the policy before a sync; returns the typed injection
    /// error when the policy fails the site.
    pub(crate) fn check_sync(&self, site: PersistSite) -> Result<(), PersistError> {
        let action = match &self.inner {
            None => FaultAction::Proceed,
            Some(p) => p
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .before_sync(site),
        };
        match action {
            FaultAction::Proceed => Ok(()),
            FaultAction::ShortWrite(_) | FaultAction::Fail => Err(PersistError::Injected { site }),
        }
    }
}

impl fmt::Debug for IoPolicyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.inner.is_some() {
            "IoPolicyHandle(active)"
        } else {
            "IoPolicyHandle(none)"
        })
    }
}

/// Handles compare equal regardless of policy: the policy is test
/// instrumentation, not configuration, and must not affect config
/// round-trip equality (`store.meta` does not echo it either).
impl PartialEq for IoPolicyHandle {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for IoPolicyHandle {}

/// A `File` wrapper that consults the policy once per write, which lands
/// whole, torn or not at all; every durable file write goes through one.
/// An injected fault is an `io::Error` naming the site.
#[derive(Debug)]
pub(crate) struct FaultFile {
    file: File,
    io: IoPolicyHandle,
    site: PersistSite,
}

impl FaultFile {
    pub(crate) fn new(file: File, io: IoPolicyHandle, site: PersistSite) -> Self {
        FaultFile { file, io, site }
    }

    /// The wrapped file.
    pub(crate) fn file(&self) -> &File {
        &self.file
    }

    /// Policy-checked [`crate::persist::maybe_sync`] of the wrapped file,
    /// under the *sync* site for this file (distinct from the write site).
    pub(crate) fn maybe_sync(
        &self,
        policy: FsyncPolicy,
        site: PersistSite,
    ) -> Result<(), PersistError> {
        if policy == FsyncPolicy::Always {
            self.io.check_sync(site)?;
            self.file.sync_all()?;
        }
        Ok(())
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let landed = match self.io.before_write(self.site, buf.len()) {
            FaultAction::Proceed => return self.file.write_all(buf).map(|()| buf.len()),
            FaultAction::ShortWrite(n) => n.min(buf.len()),
            FaultAction::Fail => 0,
        };
        self.file.write_all(&buf[..landed])?;
        Err(std::io::Error::other(format!(
            "injected fault at {:?}",
            self.site
        )))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

// ---------------------------------------------------------------------------
// Ready-made policies for the crash-matrix tests.
// ---------------------------------------------------------------------------

/// Counts operations per site without injecting anything. A probe run
/// with this policy tells the crash matrix how many (site, k) crash
/// points a workload has.
#[derive(Default)]
pub struct CountingPolicy {
    counts: Arc<Mutex<HashMap<PersistSite, u64>>>,
}

impl CountingPolicy {
    /// A fresh counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared view of the counts (clone before installing the policy).
    #[must_use]
    pub fn counts(&self) -> Arc<Mutex<HashMap<PersistSite, u64>>> {
        Arc::clone(&self.counts)
    }
}

impl IoPolicy for CountingPolicy {
    fn before_write(&mut self, site: PersistSite, _len: usize) -> FaultAction {
        *self
            .counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(site)
            .or_insert(0) += 1;
        FaultAction::Proceed
    }

    fn before_sync(&mut self, site: PersistSite) -> FaultAction {
        self.before_write(site, 0)
    }
}

/// How [`FailAt`] fails its target operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailMode {
    /// Error without touching the file.
    Error,
    /// Tear the write in half (sync sites degrade to [`Self::Error`]).
    Torn,
}

/// Lets the first `skip` operations at `site` through, injects once, then
/// proceeds forever (by then the engine has already panicked or the caller
/// has observed the error).
pub struct FailAt {
    site: PersistSite,
    skip: u64,
    mode: FailMode,
    fired: Arc<AtomicBool>,
}

impl FailAt {
    /// A policy that fails the `skip`-th (0-based) operation at `site`.
    #[must_use]
    pub fn new(site: PersistSite, skip: u64, mode: FailMode) -> Self {
        FailAt {
            site,
            skip,
            mode,
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Shared flag set once the fault has been injected (clone before
    /// installing the policy). A matrix cell whose fault never fired did
    /// not actually test anything — assert on this.
    #[must_use]
    pub fn fired(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fired)
    }

    fn decide(&mut self, site: PersistSite, len: usize, is_sync: bool) -> FaultAction {
        if site != self.site || self.fired.load(Ordering::Relaxed) {
            return FaultAction::Proceed;
        }
        if self.skip > 0 {
            self.skip -= 1;
            return FaultAction::Proceed;
        }
        self.fired.store(true, Ordering::Relaxed);
        match self.mode {
            FailMode::Error => FaultAction::Fail,
            FailMode::Torn if is_sync => FaultAction::Fail,
            FailMode::Torn => FaultAction::ShortWrite(len / 2),
        }
    }
}

impl IoPolicy for FailAt {
    fn before_write(&mut self, site: PersistSite, len: usize) -> FaultAction {
        self.decide(site, len, false)
    }

    fn before_sync(&mut self, site: PersistSite) -> FaultAction {
        self.decide(site, 0, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_handle_always_proceeds() {
        let h = IoPolicyHandle::none();
        assert!(!h.is_active());
        assert_eq!(
            h.before_write(PersistSite::ContainerWrite, 100),
            FaultAction::Proceed
        );
        assert!(h.check_sync(PersistSite::ContainerSync).is_ok());
    }

    #[test]
    fn fail_at_skips_then_fires_once() {
        let policy = FailAt::new(PersistSite::ManifestAppend, 2, FailMode::Error);
        let fired = policy.fired();
        let h = IoPolicyHandle::new(policy);
        assert!(h.is_active());
        for _ in 0..2 {
            assert_eq!(
                h.before_write(PersistSite::ManifestAppend, 10),
                FaultAction::Proceed
            );
        }
        // Other sites never trip the countdown.
        assert_eq!(
            h.before_write(PersistSite::ContainerWrite, 10),
            FaultAction::Proceed
        );
        assert_eq!(
            h.before_write(PersistSite::ManifestAppend, 10),
            FaultAction::Fail
        );
        assert!(fired.load(Ordering::Relaxed));
        // One-shot: later operations proceed.
        assert_eq!(
            h.before_write(PersistSite::ManifestAppend, 10),
            FaultAction::Proceed
        );
    }

    #[test]
    fn torn_mode_halves_writes_and_fails_syncs() {
        let h = IoPolicyHandle::new(FailAt::new(PersistSite::SnapshotWrite, 0, FailMode::Torn));
        assert_eq!(
            h.before_write(PersistSite::SnapshotWrite, 64),
            FaultAction::ShortWrite(32)
        );
        let h = IoPolicyHandle::new(FailAt::new(PersistSite::SnapshotSync, 0, FailMode::Torn));
        assert!(matches!(
            h.check_sync(PersistSite::SnapshotSync),
            Err(PersistError::Injected { .. })
        ));
    }

    #[test]
    fn counting_policy_tallies_per_site() {
        let policy = CountingPolicy::new();
        let counts = policy.counts();
        let h = IoPolicyHandle::new(policy);
        h.before_write(PersistSite::ContainerWrite, 1);
        h.before_write(PersistSite::ContainerWrite, 1);
        let _ = h.check_sync(PersistSite::ContainerSync);
        let counts = counts.lock().unwrap();
        assert_eq!(counts.get(&PersistSite::ContainerWrite), Some(&2));
        assert_eq!(counts.get(&PersistSite::ContainerSync), Some(&1));
    }

    #[test]
    fn handles_compare_equal() {
        // Policy presence must not break PersistConfig equality.
        let a = IoPolicyHandle::none();
        let b = IoPolicyHandle::new(CountingPolicy::new());
        assert_eq!(a, b);
        assert!(format!("{b:?}").contains("active"));
    }
}
