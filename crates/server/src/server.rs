//! The encrypted-dedup TCP service.
//!
//! One [`ShardedDedupEngine`] (optionally durable via the PR 4
//! persistence layer) serves N concurrent client sessions:
//!
//! * the **acceptor** polls a non-blocking [`TcpListener`] and feeds
//!   accepted connections into a [`JobQueue`];
//! * `workers` **session workers** drain the queue, each running the
//!   [`crate::session`] shell, and the state machine inside it, for one
//!   connection at a time;
//! * all of them are scoped threads under
//!   [`crate::pool::run_bounded`] — no detached threads, panics
//!   propagate, and [`Server::run`] returns only after a full drain.
//!
//! **Graceful shutdown** (SHUTDOWN message, or [`ShutdownHandle`]): the
//! acceptor stops accepting, in-flight sessions finish their current
//! requests and disconnect, queued connections are still served, and the
//! engine is then checkpointed and closed — sealed containers, manifest
//! journal and snapshot are made durable, so a restart *never* relies on
//! crash recovery.
//!
//! **The catalog** ([`crate::catalog`], `catalog.log` beside the store)
//! is written ahead of every ack, not at shutdown: a crash loses no
//! acknowledged COMMIT, DELETE-BACKUP, GC or REKEY. [`Server::bind`]
//! replays it and releases every store backup it does not hold live —
//! such a backup was never acknowledged. The adversary tap folds it
//! after the acks, when sessions idle or end, never before one.
//!
//! **No socket below the listener:** `Shared::open` builds the engine,
//! catalog and tap, and releases the unacked backups, and `Shared::close`
//! saves the tap's cache and closes the engine; [`Server::bind`] is
//! `Shared::open` plus a listener, so the session's tests drive the same
//! state with no port.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use freqdedup_store::engine::DedupConfig;
use freqdedup_store::persist::{FsyncPolicy, PersistError};
use freqdedup_store::sharded::ShardedDedupEngine;
use freqdedup_trace::io::TraceIoError;
use freqdedup_trace::ChunkRecord;

use crate::catalog::Catalog;
use crate::pool::{self, JobQueue};
use crate::proto::ServerStats;
use crate::session;
use crate::tap::AdversaryTap;

/// File name of the write-ahead catalog inside the store directory.
pub const CATALOG_FILE: &str = "catalog.log";

/// File name of the running attack state's cache, beside
/// [`CATALOG_FILE`], saved at graceful shutdown. A bind that finds it
/// covering a prefix of the catalog resumes it and folds only the rest.
pub const STREAM_FILE: &str = "tap.fqis";

/// File name of a pre-catalog store's manifest catalog: read once, by the
/// import into [`CATALOG_FILE`], never written.
pub const TAP_FILE: &str = "tap.fqdt";

/// File name of a pre-catalog store's applied-commit registry: read once,
/// by the import into [`CATALOG_FILE`], never written.
pub const CIDS_FILE: &str = "tap.cids";

/// Locks a mutex, tolerating poison: session workers survive handler
/// panics ([`crate::pool`] catches them), so a mutex poisoned by a dying
/// handler must not cascade into every other session. The protected state
/// is safe to reuse — sessions never leave it partially updated across an
/// unwind point (the engine's own ingest path is panic-fail-stop at a
/// lower layer).
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A client's resumable upload (one declared by RESUME), keyed by client
/// name.
#[derive(Debug)]
pub(crate) enum Upload {
    /// Held by the running session `session`. A RESUME of another session
    /// of the client sets `superseded` and waits for the holder to stop,
    /// at its next frame boundary or idle tick, and park.
    Running {
        session: u64,
        superseded: Arc<AtomicBool>,
    },
    /// Left behind by a session that ended mid-upload.
    Parked(Parked),
}

/// Upload progress parked for a disconnected resumable session: a client
/// that declared a commit id (RESUME) and then lost its connection
/// mid-upload can reconnect and continue from `acked_batches` instead of
/// restarting — and, crucially, instead of double-ingesting what the
/// server already observed.
#[derive(Debug)]
pub(crate) struct Parked {
    /// Observed (pre-dedup) stream so far toward the commit.
    pub pending: Vec<ChunkRecord>,
    /// PUT batches fully ingested toward the commit.
    pub acked_batches: u32,
    /// The commit id the client declared for this upload.
    pub commit_id: u64,
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address. Defaults to `127.0.0.1:0` (loopback, ephemeral
    /// port) — the CI-safe configuration; nothing in this workspace ever
    /// listens beyond loopback by default.
    pub addr: String,
    /// Concurrent session workers (bounded pool size).
    pub workers: usize,
    /// Fingerprint-prefix shards of the backing engine.
    pub shards: usize,
    /// Engine configuration; set [`DedupConfig::persist`] to make the
    /// service durable (the catalog is then kept alongside as
    /// [`CATALOG_FILE`]).
    pub engine: DedupConfig,
    /// Append-only service log (one line per event); `None` disables.
    pub log_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            shards: 4,
            engine: DedupConfig::default(),
            log_file: None,
        }
    }
}

/// Errors surfaced by [`Server::bind`] / [`Server::run`].
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The backing store failed to open, checkpoint or close.
    Persist(PersistError),
    /// A pre-catalog `tap.fqdt` failed to import.
    Tap(TraceIoError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Persist(e) => write!(f, "store error: {e}"),
            ServeError::Tap(e) => write!(f, "tap error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

impl From<TraceIoError> for ServeError {
    fn from(e: TraceIoError) -> Self {
        ServeError::Tap(e)
    }
}

/// State shared between the acceptor, the session workers and
/// [`ShutdownHandle`]s.
#[derive(Debug)]
pub(crate) struct Shared {
    /// The engine; `None` once [`Shared::close`] has closed it. Its
    /// payload mode (all-payload or all-metadata) is fixed by the first
    /// chunk a PUT stores and enforced thereafter, also across restarts.
    pub engine: Mutex<Option<ShardedDedupEngine>>,
    /// Lock order: tap, catalog, engine (a session takes the tap only
    /// when idle, and never waits for it).
    pub catalog: Mutex<Catalog>,
    pub tap: Mutex<AdversaryTap>,
    /// Resumable uploads by client name.
    pub uploads: Mutex<HashMap<String, Upload>>,
    /// Notified whenever a session releases its [`Upload::Running`].
    pub upload_released: Condvar,
    pub stop: AtomicBool,
    pub sessions_served: AtomicU64,
    /// Degraded-but-serving events: the bind's tap warnings, a failed
    /// cache save at shutdown, a session worker surviving a handler
    /// panic.
    pub tap_warnings: AtomicU64,
    /// Where `tap.fqis` is saved at close, and the store's fsync policy
    /// for it.
    stream_path: Option<(PathBuf, FsyncPolicy)>,
    log: Option<Mutex<std::fs::File>>,
}

impl Shared {
    /// Opens (or recovers) the backing engine, catalog and tap, and
    /// releases every store backup the catalog does not hold live.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the store directory or its
    /// `catalog.log` fails to open or recover, [`ServeError::Tap`] when a
    /// pre-catalog `tap.fqdt` is corrupt, [`ServeError::Io`] when the log
    /// file cannot be opened.
    pub fn open(config: &ServerConfig) -> Result<Shared, ServeError> {
        let mut engine = ShardedDedupEngine::open(config.engine.clone(), config.shards)?;
        let persist = config.engine.persist.as_ref();
        let stream_path = persist.map(|p| (p.dir.join(STREAM_FILE), p.fsync));
        let catalog = persist.map_or_else(|| Ok(Catalog::default()), Catalog::open)?;
        let tap = (stream_path.as_ref()).map_or_else(AdversaryTap::default, |(path, _)| {
            AdversaryTap::open(path, &catalog)
        });
        let log = match &config.log_file {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        // A store backup the catalog does not hold live was never acked: a
        // crash came between the store's commit and the catalog append, or
        // before a retired manifest's release.
        let unacked: Vec<u64> = engine
            .committed_backups()
            .into_iter()
            .map(|(id, _)| id)
            .filter(|&id| !catalog.is_live(id))
            .collect();
        for &id in &unacked {
            let _ = engine.delete_backup(id);
        }
        let (commits, warnings) = (catalog.commits(), catalog.warnings() + tap.warnings());
        let shared = Shared {
            engine: Mutex::new(Some(engine)),
            catalog: Mutex::new(catalog),
            tap: Mutex::new(tap),
            uploads: Mutex::new(HashMap::new()),
            upload_released: Condvar::new(),
            stop: AtomicBool::new(false),
            sessions_served: AtomicU64::new(0),
            tap_warnings: AtomicU64::new(warnings),
            stream_path,
            log,
        };
        shared.log(&format!(
            "open: {} shards, {commits} committed manifests, {} unacked released, {warnings} tap warnings",
            config.shards,
            unacked.len(),
        ));
        Ok(shared)
    }

    /// Runs `f` on the engine under its lock.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut ShardedDedupEngine) -> R) -> R {
        let mut engine = lock_unpoisoned(&self.engine);
        f(engine.as_mut().expect("engine open while serving"))
    }

    /// Appends one line to the service log (best-effort).
    pub fn log(&self, line: &str) {
        if let Some(file) = &self.log {
            use std::io::Write;
            let ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis());
            let mut file = lock_unpoisoned(file);
            let _ = writeln!(file, "[{ms}] {line}");
        }
    }

    /// Folds the catalog's new records into the tap, unless another thread
    /// holds it; sessions call it only when idle or ending, so no client
    /// waits on the adversary.
    pub fn catch_up_tap(&self) {
        if let Ok(mut tap) = self.tap.try_lock() {
            tap.catch_up(&self.catalog);
        }
    }

    /// Aggregate service counters (engine stats + session/commit totals).
    pub fn stats(&self) -> ServerStats {
        let committed_backups = lock_unpoisoned(&self.catalog).commits();
        let s = self.with_engine(|engine| engine.stats());
        ServerStats {
            logical_chunks: s.logical_chunks,
            logical_bytes: s.logical_bytes,
            unique_chunks: s.unique_chunks,
            unique_bytes: s.unique_bytes,
            dup_cache_hits: s.dup_cache_hits,
            dup_buffer_hits: s.dup_buffer_hits,
            dup_index_hits: s.dup_index_hits,
            containers_sealed: s.containers_sealed,
            committed_backups,
            sessions_served: self.sessions_served.load(Ordering::SeqCst),
            tap_warnings: self.tap_warnings.load(Ordering::SeqCst),
        }
    }

    /// Saves the caught-up tap as its `tap.fqis` cache, then checkpoints
    /// and closes the engine. The catalog is already durable; a failed
    /// save keeps the old cache, costs the next open a longer fold, never
    /// data, and does not skip the close.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the engine's final checkpoint fails.
    ///
    /// # Panics
    ///
    /// Panics when the engine is already closed.
    pub fn close(&self) -> Result<(), ServeError> {
        if let Some((path, fsync)) = &self.stream_path {
            let mut tap = lock_unpoisoned(&self.tap);
            tap.catch_up(&self.catalog);
            if let Err(e) = tap.streaming().save(path, *fsync) {
                self.tap_warnings.fetch_add(1, Ordering::SeqCst);
                self.log(&format!("shutdown: tap.fqis save failed ({e})"));
            }
        }
        let engine = lock_unpoisoned(&self.engine).take();
        engine.expect("engine open until close").close()?;
        Ok(())
    }
}

/// What one completed service run did (returned by [`Server::run`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Sessions served over the lifetime of the run.
    pub sessions: u64,
    /// Final aggregate counters (taken just before the engine closed).
    pub stats: ServerStats,
}

/// Requests a graceful stop of a running [`Server`] from another thread
/// (the protocol-level SHUTDOWN message does the same thing).
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Signals the server to drain and stop.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }
}

/// A bound (not yet running) encrypted-dedup service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
}

/// A read handle on a running server's adversary tap, for observing the
/// live attack state (catalog + running inference) from another thread —
/// e.g. to snapshot mid-stream inference between commits.
#[derive(Clone, Debug)]
pub struct TapView {
    shared: Arc<Shared>,
}

impl TapView {
    /// Catches the tap up with the catalog, then runs `f` under the tap
    /// lock and returns its result. No session waits on this lock.
    pub fn with_tap<R>(&self, f: impl FnOnce(&AdversaryTap) -> R) -> R {
        let mut tap = lock_unpoisoned(&self.shared.tap);
        tap.catch_up(&self.shared.catalog);
        f(&tap)
    }

    /// Runs `f` under the catalog lock and returns its result. Keep `f`
    /// short: every acknowledged operation takes this lock.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&lock_unpoisoned(&self.shared.catalog))
    }
}

impl Server {
    /// Opens (or recovers) the backing engine, catalog and tap, and binds
    /// the listen socket.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the store directory or its
    /// `catalog.log` fails to open or recover, [`ServeError::Tap`] when a
    /// pre-catalog `tap.fqdt` is corrupt, [`ServeError::Io`] when the
    /// socket cannot be bound.
    pub fn bind(config: ServerConfig) -> Result<Server, ServeError> {
        let shared = Shared::open(&config)?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let workers = config.workers.max(1);
        shared.log(&format!(
            "serve: bound {} ({workers} workers)",
            listener.local_addr()?
        ));
        Ok(Server {
            listener,
            shared: Arc::new(shared),
            workers,
        })
    }

    /// The bound listen address (use after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A read handle on the adversary tap, valid while (and after) the
    /// server runs.
    #[must_use]
    pub fn tap_handle(&self) -> TapView {
        TapView {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until SHUTDOWN (or a [`ShutdownHandle`]), then drains
    /// in-flight sessions, saves the tap's `tap.fqis` cache, and
    /// checkpoints and closes the engine. Blocks the calling thread for
    /// the lifetime of the service.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the final checkpoint fails — the
    /// serve loop itself only logs per-session errors.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any session worker (scoped-pool
    /// contract).
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        let shared = &self.shared;
        let queue: JobQueue<TcpStream> = JobQueue::new();
        let worker_panics = pool::run_bounded(
            &queue,
            self.workers,
            || {
                while !shared.stop.load(Ordering::SeqCst) {
                    match self.listener.accept() {
                        Ok((stream, peer)) => {
                            let _ = stream.set_nodelay(true);
                            shared.log(&format!("accept: {peer} (backlog {})", queue.backlog()));
                            queue.push(stream);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => {
                            shared.log(&format!("accept error: {e}"));
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            },
            |stream| {
                let id = shared.sessions_served.fetch_add(1, Ordering::SeqCst) + 1;
                session::serve_connection(stream, shared, id);
            },
        );
        if worker_panics > 0 {
            shared
                .tap_warnings
                .fetch_add(worker_panics, Ordering::SeqCst);
            shared.log(&format!(
                "serve: {worker_panics} session(s) ended in a caught handler panic"
            ));
        }

        // Drained: every accepted session has finished. Take the final
        // numbers, then save the tap and checkpoint + close (graceful
        // shutdown makes the final state durable so a restart never needs
        // crash recovery).
        let summary = ServeSummary {
            sessions: shared.sessions_served.load(Ordering::SeqCst),
            stats: shared.stats(),
        };
        shared.close()?;
        shared.log(&format!(
            "shutdown: {} sessions, {} commits, {} unique chunks",
            summary.sessions, summary.stats.committed_backups, summary.stats.unique_chunks
        ));
        Ok(summary)
    }
}
