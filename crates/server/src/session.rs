//! Per-connection protocol state machine.
//!
//! A session is one TCP connection, handled start-to-finish by one pool
//! worker: HELLO version negotiation, then a request loop until the
//! client disconnects, the stream errors, or SHUTDOWN arrives. Between
//! requests the session polls the server's stop flag (the socket carries
//! a short read timeout), so a graceful shutdown drains in-flight
//! sessions instead of cutting them.
//!
//! Every PUT batch is deduplicated, and its `(fp, size)` records are
//! appended to the session's pending observed stream, which
//! COMMIT-MANIFEST writes to the catalog as one [`Backup`]. COMMIT,
//! DELETE-BACKUP, GC and REKEY share one exactly-once path
//! (`Session::once`): under the catalog lock, a replayed operation id
//! returns its recorded ack; otherwise the engine applies the operation
//! and its record is appended to `catalog.log` before the ack is
//! written. The [`crate::tap::AdversaryTap`] folds it later, when the
//! session is idle or ends: no ack, and no request after one, waits on
//! the adversary. A disconnect
//! with uncommitted chunks drops them, unless the session declared a
//! commit id via RESUME: then the tail is *parked* under the client's
//! name and a reconnecting session resumes it exactly where it broke (see
//! `Upload` in `server.rs`). A RESUME that finds the broken session still
//! running first stops it and waits for it to park.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use freqdedup_store::engine::ChunkLookup;
use freqdedup_store::lifecycle::LifecycleError;
use freqdedup_store::sharded::ShardedDedupEngine;
use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};

use crate::catalog::{AppliedCommit, Catalog, CatalogRecord, OpKind};
use crate::frame::{read_frame, write_frame, WireError, READ_BUFFER_BYTES};
use crate::proto::{
    code, put_chunk_resp, ChunkStatus, Message, RecordListEncoder, ResumeState, MIN_WIRE_VERSION,
    WIRE_VERSION,
};
use crate::server::{lock_unpoisoned, Parked, Shared, Upload};

/// Poll interval for the stop flag while a session is idle.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Write deadline on the session socket: a peer that stops draining its
/// receive buffer (half-open connection) errors the session out instead
/// of pinning the pool worker on a blocked `write`.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Most records one RESTORE-BATCH frame carries. A session takes the
/// engine lock once per batch, and beside a writer that holds the lock
/// for most of every PUT batch each acquisition waits one out — so the
/// count of batches, not their size, is what a contended restore costs.
const RESTORE_BATCH_CHUNKS: usize = 1024;

/// Most payload bytes one RESTORE-BATCH frame carries (a single larger
/// chunk still travels, alone): bounds what a session buffers per batch
/// and how long it holds the engine lock copying it.
const RESTORE_BATCH_BYTES: usize = 4 << 20;

/// Runs one connection to completion. Never panics the worker on
/// protocol or socket errors — they are logged and end the session.
pub(crate) fn serve_connection(stream: TcpStream, shared: &Shared, id: u64) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut conn = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    let mut session = Session {
        shared,
        id,
        hello_done: false,
        client: String::new(),
        resume_declared: None,
        superseded: Arc::new(AtomicBool::new(false)),
        acked_batches: 0,
        pending: Vec::new(),
        epoch: 0,
    };
    let outcome = session.run(&mut conn);
    drop(session);
    shared.catch_up_tap();
    match outcome {
        Ok(()) => shared.log(&format!("session {id}: closed")),
        Err(e) => shared.log(&format!("session {id}: error: {e}")),
    }
}

struct Session<'a> {
    shared: &'a Shared,
    id: u64,
    hello_done: bool,
    /// Client name from HELLO (the parked-upload key).
    client: String,
    /// The commit id declared by RESUME, if any: marks this session's
    /// uncommitted tail as resumable (parked on disconnect).
    resume_declared: Option<u64>,
    /// Set by a RESUME of a newer session of the same client: this
    /// session then stops at its next frame boundary or idle tick.
    superseded: Arc<AtomicBool>,
    /// PUT batches fully ingested since the last commit.
    acked_batches: u32,
    /// Observed (pre-dedup) stream since the last commit.
    pending: Vec<ChunkRecord>,
    /// The store's key epoch when this session negotiated (refreshed
    /// when the session itself rekeys). Reads are refused with
    /// [`code::STALE_EPOCH`] once another session advances the epoch —
    /// the wire-level face of "old-key reads stop working after the
    /// rekey commits".
    epoch: u64,
}

impl Session<'_> {
    /// Requests are read through `conn`'s buffer; replies are written
    /// straight to the socket under it, one `write` per frame.
    fn run(&mut self, conn: &mut BufReader<TcpStream>) -> Result<(), WireError> {
        loop {
            if self.superseded.load(Ordering::SeqCst) {
                let id = self.id;
                self.shared
                    .log(&format!("session {id}: superseded by a RESUME"));
                return Ok(());
            }
            let frame = read_frame(conn);
            let stream = conn.get_mut();
            let payload = match frame {
                Ok(Some(payload)) => payload,
                Ok(None) => return Ok(()), // clean disconnect
                Err(WireError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Idle tick: drain on shutdown, else let the tap catch
                    // up and keep waiting.
                    if self.shared.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    self.shared.catch_up_tap();
                    continue;
                }
                Err(e @ (WireError::BadCrc { .. } | WireError::Oversize { .. })) => {
                    // Torn / corrupt frame: report, then drop the
                    // connection (an oversize prefix desyncs the stream;
                    // a CRC failure means the peer's framing is not to
                    // be trusted either).
                    self.reply_err(stream, code::BAD_STATE, &e.to_string());
                    return Err(e);
                }
                Err(e) => return Err(e),
            };
            let msg = match Message::decode(&payload) {
                Ok(msg) => msg,
                Err(e) => {
                    // The frame was whole (CRC passed) so the stream is
                    // still aligned; reject the message and continue.
                    self.reply_err(stream, code::BAD_STATE, &e.to_string());
                    continue;
                }
            };
            if !self.hello_done && !matches!(msg, Message::Hello { .. }) {
                self.reply_err(stream, code::BAD_STATE, "HELLO required first");
                continue;
            }
            match msg {
                Message::Hello { version, client } => {
                    if version < MIN_WIRE_VERSION {
                        self.reply_err(stream, code::BAD_VERSION, "client version too old");
                        return Err(WireError::BadVersion(version));
                    }
                    self.hello_done = true;
                    self.epoch = self.current_epoch();
                    self.shared.log(&format!(
                        "session {}: hello from {client:?} (v{WIRE_VERSION})",
                        self.id
                    ));
                    self.client = client;
                    self.reply(
                        stream,
                        &Message::HelloAck {
                            version: WIRE_VERSION,
                        },
                    )?;
                }
                Message::Resume { commit_id } => self.handle_resume(stream, commit_id)?,
                Message::PutChunkBatch {
                    seq,
                    chunks,
                    payloads,
                } => self.handle_put(stream, seq, chunks, payloads)?,
                Message::CommitManifest { label, commit_id } => {
                    self.handle_commit(stream, label, commit_id)?;
                }
                Message::GetChunk { fp } => self.handle_get(stream, Fingerprint(fp))?,
                Message::RestoreBackup { label } => self.handle_restore(stream, &label)?,
                Message::DeleteBackup { label, commit_id } => {
                    self.handle_delete(stream, label, commit_id)?;
                }
                Message::Gc {
                    threshold_permille,
                    commit_id,
                } => self.handle_gc(stream, threshold_permille, commit_id)?,
                Message::Rekey { secret, commit_id } => {
                    self.handle_rekey(stream, &secret, commit_id)?;
                }
                Message::StatsReq => {
                    let stats = self.shared.stats();
                    self.reply(stream, &Message::StatsResp(stats))?;
                }
                Message::Shutdown => {
                    self.shared
                        .log(&format!("session {}: shutdown requested", self.id));
                    self.reply(stream, &Message::ShutdownAck)?;
                    self.shared.stop.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                // Server-only messages arriving at the server are a
                // client bug, not a transport failure.
                Message::HelloAck { .. }
                | Message::PutAck { .. }
                | Message::ResumeAck { .. }
                | Message::CommitAck { .. }
                | Message::ChunkResp { .. }
                | Message::RestoreHeader { .. }
                | Message::RestoreBatch { .. }
                | Message::DeleteBackupAck { .. }
                | Message::GcAck { .. }
                | Message::RekeyAck { .. }
                | Message::StatsResp(_)
                | Message::ShutdownAck
                | Message::ErrorResp { .. } => {
                    self.reply_err(stream, code::BAD_STATE, "unexpected server-side message");
                }
            }
        }
    }

    /// Answers a RESUME: reports what the server already knows about the
    /// client's `commit_id` so the client can continue an interrupted
    /// upload without re-sending (and without the server double-tapping)
    /// anything already observed.
    fn handle_resume(&mut self, stream: &mut TcpStream, commit_id: u64) -> Result<(), WireError> {
        if commit_id == 0 {
            self.reply_err(
                stream,
                code::BAD_STATE,
                "RESUME requires a nonzero commit id",
            );
            return Ok(());
        }
        if self.client.is_empty() {
            self.reply_err(stream, code::BAD_STATE, "RESUME requires a named client");
            return Ok(());
        }
        if !self.pending.is_empty() {
            self.reply_err(stream, code::BAD_STATE, "RESUME must precede any PUT");
            return Ok(());
        }
        // An earlier session of this client that still runs holds the
        // upload: stop it and wait until it has parked its progress.
        let mut uploads = lock_unpoisoned(&self.shared.uploads);
        while let Some(Upload::Running {
            session,
            superseded,
        }) = uploads.get(&self.client)
        {
            if *session == self.id {
                break;
            }
            superseded.store(true, Ordering::SeqCst);
            uploads =
                (self.shared.upload_released.wait(uploads)).unwrap_or_else(PoisonError::into_inner);
        }
        let running = Upload::Running {
            session: self.id,
            superseded: Arc::clone(&self.superseded),
        };
        let previous = uploads.insert(self.client.clone(), running);
        drop(uploads);
        self.resume_declared = Some(commit_id);
        // Already applied? The commit finished before the client saw its
        // ack — replay the verdict; nothing to upload (and the client's
        // parked progress is dropped). Otherwise adopt the parked progress
        // if its commit id matches (a different id means the client
        // abandoned that upload).
        let applied = lock_unpoisoned(&self.shared.catalog)
            .applied_commits()
            .get(&commit_id)
            .map(|a| a.chunks);
        let (state, acked, chunks) = match (applied, previous) {
            (Some(chunks), _) => (ResumeState::Committed, 0, chunks),
            (None, Some(Upload::Parked(p))) if p.commit_id == commit_id => {
                self.pending = p.pending;
                self.acked_batches = p.acked_batches;
                let chunks = self.pending.len() as u64;
                (ResumeState::InProgress, self.acked_batches, chunks)
            }
            _ => (ResumeState::Fresh, 0, 0),
        };
        self.shared.log(&format!(
            "session {}: resume {commit_id:#x} -> {state:?} ({acked} batches, {chunks} chunks)",
            self.id
        ));
        self.reply(
            stream,
            &Message::ResumeAck {
                state,
                acked_batches: acked,
                chunks,
            },
        )
    }

    /// Runs one catalogued operation exactly once, under the catalog lock,
    /// and answers it. A nonzero `op_id` already applied gets its recorded
    /// ack. Otherwise `op` checks the request against the catalog, applies
    /// it to the engine, and returns its record plus a store backup id to
    /// release once the record is durable; the record is appended to
    /// `catalog.log`. The ack (`reply` of it) is written after the lock is
    /// released; an append failure is an error reply, never an ack. The tap
    /// folds the record later (`Shared::catch_up_tap`). Returns the ack, if
    /// one was written.
    fn once(
        &self,
        stream: &mut TcpStream,
        what: &str,
        op_id: u64,
        op: impl FnOnce(&Catalog, &mut ShardedDedupEngine) -> Result<Applied, (u16, String)>,
        reply: impl FnOnce(&AppliedCommit) -> Message,
    ) -> Result<Option<AppliedCommit>, WireError> {
        let done = (|| {
            let mut catalog = lock_unpoisoned(&self.shared.catalog);
            if let Some(ack) = catalog.applied_commits().get(&op_id) {
                return Ok((ack.clone(), "replayed"));
            }
            let (record, release) = {
                let mut slot = lock_unpoisoned(&self.shared.slot);
                op(
                    &catalog,
                    slot.engine.as_mut().expect("engine open while serving"),
                )?
            };
            let ack = catalog.append(record).map_err(|e| {
                let message = format!("{what}: catalog append failed: {e}");
                (code::NOT_DURABLE, message)
            })?;
            if let Some(id) = release {
                let mut slot = lock_unpoisoned(&self.shared.slot);
                let engine = slot.engine.as_mut().expect("engine open while serving");
                let _ = engine.delete_backup(id);
            }
            Ok((ack, "applied"))
        })();
        match done {
            Ok((ack, how)) => {
                let (id, msg) = (self.id, reply(&ack));
                self.shared
                    .log(&format!("session {id}: {what} {how} ({ack:?})"));
                self.reply(stream, &msg)?;
                Ok(Some(ack))
            }
            Err((code, message)) => {
                self.reply_err(stream, code, &message);
                Ok(None)
            }
        }
    }

    /// Commits the pending observed stream as one manifest, under a store
    /// backup id the catalog issues. A reused label retires the earlier
    /// manifest, whose id is released once the new record is durable. The
    /// pending stream is consumed whatever the outcome; a replayed
    /// `commit_id` drops it, as the store deduplicated it and the tap must
    /// not observe the stream twice.
    fn handle_commit(
        &mut self,
        stream: &mut TcpStream,
        label: String,
        commit_id: u64,
    ) -> Result<(), WireError> {
        let records = std::mem::take(&mut self.pending);
        self.acked_batches = 0;
        let commit = |catalog: &Catalog, engine: &mut ShardedDedupEngine| {
            let backup_id = catalog.next_backup_id();
            let timestamp = catalog.commits() + 1;
            let mut committed = engine.commit_backup(backup_id, timestamp, &records);
            if let Err(LifecycleError::DuplicateBackup { .. }) = committed {
                // The catalog never made this id live: a commit whose
                // append failed left it behind, unacked. Replace it.
                let _ = engine.delete_backup(backup_id);
                committed = engine.commit_backup(backup_id, timestamp, &records);
            }
            committed.map_err(|e| (code::NOT_DURABLE, e.to_string()))?;
            let retired = catalog.live(&label).map(|(_, id)| id);
            let backup = Arc::new(Backup::from_chunks(label, records));
            let record = CatalogRecord::Commit {
                op_id: commit_id,
                backup_id,
                timestamp,
                backup,
            };
            Ok((record, retired))
        };
        let ack = |a: &AppliedCommit| Message::CommitAck {
            label: a.label.clone(),
            chunks: a.chunks,
        };
        let answered = self.once(stream, "commit", commit_id, commit, ack);
        // Only now, with the commit in the registry, may a waiting RESUME
        // of this client read it.
        self.release_upload();
        answered.map(drop)
    }

    /// Releases this session's resumable upload, if it declared one: its
    /// uncommitted tail, if any, is parked under the client's name, and a
    /// RESUME waiting on this session goes on.
    fn release_upload(&mut self) {
        let Some(commit_id) = self.resume_declared.take() else {
            return;
        };
        let mut uploads = lock_unpoisoned(&self.shared.uploads);
        if self.pending.is_empty() {
            uploads.remove(&self.client);
        } else {
            let parked = Parked {
                pending: std::mem::take(&mut self.pending),
                acked_batches: self.acked_batches,
                commit_id,
            };
            self.shared.log(&format!(
                "session {}: parked {} chunks ({} batches) for {:?} commit {commit_id:#x}",
                self.id,
                parked.pending.len(),
                parked.acked_batches,
                self.client,
            ));
            uploads.insert(self.client.clone(), Upload::Parked(parked));
        }
        drop(uploads);
        self.shared.upload_released.notify_all();
    }

    /// Deletes a live manifest. Its record is the commit point: the store
    /// releases the backup's references right after the append, and a
    /// crash in between leaves an id the next bind releases. The deletion
    /// itself becomes an adversary observable.
    fn handle_delete(
        &mut self,
        stream: &mut TcpStream,
        label: String,
        commit_id: u64,
    ) -> Result<(), WireError> {
        let delete = |catalog: &Catalog, _: &mut ShardedDedupEngine| {
            let Some((backup, id)) = catalog.live(&label) else {
                return Err((code::UNKNOWN_LABEL, format!("no manifest {label:?}")));
            };
            let counts = [backup.len() as u64, backup.logical_bytes(), 0];
            Ok((
                op(OpKind::Delete, commit_id, label.clone(), counts),
                Some(id),
            ))
        };
        let ack = |a: &AppliedCommit| Message::DeleteBackupAck {
            label: a.label.clone(),
            chunks: a.chunks,
            logical_bytes: a.extra,
        };
        self.once(stream, "delete", commit_id, delete, ack)
            .map(drop)
    }

    /// Runs a garbage-collection pass over every shard and records it as
    /// an adversary observable.
    fn handle_gc(
        &mut self,
        stream: &mut TcpStream,
        threshold_permille: u32,
        commit_id: u64,
    ) -> Result<(), WireError> {
        let gc = |_: &Catalog, engine: &mut ShardedDedupEngine| {
            let r = engine.gc(threshold_permille);
            let counts = [r.containers_dropped, r.reclaimed_bytes, r.moved_chunks];
            Ok((op(OpKind::Gc, commit_id, String::new(), counts), None))
        };
        let ack = |a: &AppliedCommit| Message::GcAck {
            containers_dropped: a.chunks,
            reclaimed_bytes: a.extra,
            moved_chunks: a.extra2,
        };
        self.once(stream, "gc", commit_id, gc, ack).map(drop)
    }

    /// REED-style rekeying: re-encrypts every stored container under the
    /// next key epoch derived from `secret`. The rekeying session stays
    /// current; every other open session's reads turn
    /// [`code::STALE_EPOCH`].
    fn handle_rekey(
        &mut self,
        stream: &mut TcpStream,
        secret: &[u8],
        commit_id: u64,
    ) -> Result<(), WireError> {
        if secret.is_empty() {
            self.reply_err(stream, code::BAD_STATE, "REKEY requires a nonempty secret");
            return Ok(());
        }
        let rekey = |_: &Catalog, engine: &mut ShardedDedupEngine| {
            let r = engine.rekey(secret);
            let counts = [r.epoch, r.containers_rewritten, 0];
            Ok((op(OpKind::Rekey, commit_id, String::new(), counts), None))
        };
        let ack = |a: &AppliedCommit| Message::RekeyAck {
            epoch: a.chunks,
            containers_rewritten: a.extra,
        };
        if let Some(a) = self.once(stream, "rekey", commit_id, rekey, ack)? {
            self.epoch = self.epoch.max(a.chunks);
        }
        Ok(())
    }

    /// Ingests one batch: dedup through the sharded engine *and* append
    /// to the session's observed stream (the tap sees the logical
    /// pre-dedup order, exactly the paper's adversary).
    fn handle_put(
        &mut self,
        stream: &mut TcpStream,
        seq: u32,
        chunks: Vec<ChunkRecord>,
        payloads: Option<Vec<Vec<u8>>>,
    ) -> Result<(), WireError> {
        if let Some(p) = &payloads {
            if p.len() != chunks.len()
                || p.iter()
                    .zip(&chunks)
                    .any(|(bytes, rec)| bytes.len() != rec.size as usize)
            {
                self.reply_err(
                    stream,
                    code::BAD_BATCH,
                    "payload sizes disagree with records",
                );
                return Ok(());
            }
        }
        let has_payloads = payloads.is_some();
        let (unique, duplicate) = {
            let mut slot = lock_unpoisoned(&self.shared.slot);
            match slot.payload_mode {
                None => slot.payload_mode = Some(has_payloads),
                Some(mode) if mode != has_payloads => {
                    drop(slot);
                    self.reply_err(
                        stream,
                        code::MIXED_MODE,
                        "service already committed to the other payload mode",
                    );
                    return Ok(());
                }
                Some(_) => {}
            }
            let engine = slot.engine.as_mut().expect("engine open while serving");
            let mut unique = 0u32;
            let mut duplicate = 0u32;
            for (i, &rec) in chunks.iter().enumerate() {
                let outcome = match &payloads {
                    Some(p) => engine.process_with_payload(rec, &p[i]),
                    None => engine.process(rec),
                };
                if outcome.is_duplicate() {
                    duplicate += 1;
                } else {
                    unique += 1;
                }
            }
            (unique, duplicate)
        };
        self.pending.extend(chunks);
        // Counted as ingested *before* the ack write: if the ack is lost
        // to a disconnect, RESUME still reports the batch as done and the
        // client skips it (the tap must not observe it twice).
        self.acked_batches = self.acked_batches.wrapping_add(1);
        self.reply(
            stream,
            &Message::PutAck {
                seq,
                unique,
                duplicate,
            },
        )
    }

    /// Streams a committed backup back: header, then RESTORE-BATCH frames
    /// in logical order. Refused once the store's key epoch moved past
    /// the one this session negotiated.
    fn handle_restore(&mut self, stream: &mut TcpStream, label: &str) -> Result<(), WireError> {
        if self.check_stale_epoch(stream) {
            return Ok(());
        }
        let live = lock_unpoisoned(&self.shared.catalog)
            .live(label)
            .map(|(b, _)| Arc::clone(b));
        let Some(backup) = live else {
            self.reply_err(
                stream,
                code::UNKNOWN_LABEL,
                &format!("no manifest {label:?}"),
            );
            return Ok(());
        };
        let records = &backup.chunks;
        self.reply(
            stream,
            &Message::RestoreHeader {
                label: label.to_string(),
                count: records.len() as u64,
            },
        )?;
        // Stream in bounded batches: each batch is encoded, payload bytes
        // included, under one short engine lock, then written with the
        // lock released — a multi-GB restore never buffers the whole
        // backup in memory nor starves other sessions of the engine for
        // its full duration.
        let mut rest = &records[..];
        let mut body = Vec::new();
        while !rest.is_empty() {
            let batch = {
                let slot = lock_unpoisoned(&self.shared.slot);
                let engine = slot.engine.as_ref().expect("engine open while serving");
                restore_batch(engine, slot.payload_mode == Some(true), rest, &mut body)
            };
            match batch {
                Ok(taken) => {
                    rest = &rest[taken..];
                    write_frame(stream, &body)?;
                }
                Err(offset) => {
                    self.reply_err(
                        stream,
                        code::MISSING_CHUNK,
                        &format!(
                            "restore {label:?}: chunk {} (fp {}) missing from store",
                            records.len() - rest.len() + offset,
                            rest[offset].fp
                        ),
                    );
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Serves GET-CHUNK, refused like restores once the session's key
    /// epoch is stale.
    fn handle_get(&mut self, stream: &mut TcpStream, fp: Fingerprint) -> Result<(), WireError> {
        if self.check_stale_epoch(stream) {
            return Ok(());
        }
        let body = {
            let slot = lock_unpoisoned(&self.shared.slot);
            let engine = slot.engine.as_ref().expect("engine open while serving");
            chunk_resp(engine, fp)
        };
        write_frame(stream, &body)
    }

    /// The store's current key epoch (max across shards).
    fn current_epoch(&self) -> u64 {
        let slot = lock_unpoisoned(&self.shared.slot);
        slot.engine
            .as_ref()
            .map_or(0, freqdedup_store::sharded::ShardedDedupEngine::epoch)
    }

    /// Replies [`code::STALE_EPOCH`] (returning `true`) when the store
    /// was rekeyed after this session negotiated — the session's view of
    /// the at-rest keys is obsolete; it must reconnect to read again.
    fn check_stale_epoch(&mut self, stream: &mut TcpStream) -> bool {
        let current = self.current_epoch();
        if current == self.epoch {
            return false;
        }
        self.reply_err(
            stream,
            code::STALE_EPOCH,
            &format!(
                "store rekeyed to epoch {current} after this session negotiated epoch {}; reconnect",
                self.epoch
            ),
        );
        true
    }

    fn reply(&self, stream: &mut TcpStream, msg: &Message) -> Result<(), WireError> {
        write_frame(stream, &msg.encode())
    }

    fn reply_err(&self, stream: &mut TcpStream, code: u16, message: &str) {
        self.shared
            .log(&format!("session {}: error {code}: {message}", self.id));
        let _ = self.reply(
            stream,
            &Message::ErrorResp {
                code,
                message: message.to_string(),
            },
        );
    }
}

/// A resumable upload that lost its connection mid-commit is *parked*
/// under the client's name: the chunks are already in the store and
/// counted toward `acked_batches`, so the reconnecting client continues
/// instead of re-sending (which would double-ingest the observed stream).
/// Any other uncommitted tail never becomes a manifest. Parking on drop
/// also releases an upload whose handler panicked.
impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.release_upload();
    }
}

/// What [`Session::once`]'s operation returns: the catalog record, and a
/// store backup id to release once the record is durable.
type Applied = (CatalogRecord, Option<u64>);

/// The catalog record of a non-commit operation, from its ack's label
/// and its `chunks`, `extra` and `extra2` counters.
fn op(kind: OpKind, op_id: u64, label: String, [chunks, extra, extra2]: [u64; 3]) -> CatalogRecord {
    let ack = AppliedCommit {
        label,
        chunks,
        extra,
        extra2,
    };
    CatalogRecord::Op { kind, op_id, ack }
}

/// Encodes the GET-CHUNK [`Message::ChunkResp`] for a fingerprint straight
/// from the store's bytes, distinguishing payload-bearing, metadata-only
/// (size unknown: the engine keeps no per-chunk sizes without payloads)
/// and missing chunks.
fn chunk_resp(engine: &ShardedDedupEngine, fp: Fingerprint) -> Vec<u8> {
    let (status, payload): (_, &[u8]) = match engine.lookup_chunk(fp) {
        ChunkLookup::Payload(bytes) => (ChunkStatus::Payload, bytes),
        ChunkLookup::Metadata => (ChunkStatus::Metadata, &[]),
        ChunkLookup::Missing => (ChunkStatus::Missing, &[]),
    };
    let mut body = Vec::with_capacity(21 + payload.len());
    put_chunk_resp(&mut body, fp.value(), status, payload.len() as u32, payload);
    body
}

/// Encodes one [`Message::RestoreBatch`] into `body` (cleared first) and
/// returns its record count: the records at the front of `rest` that fit
/// [`RESTORE_BATCH_CHUNKS`] and [`RESTORE_BATCH_BYTES`] (always at least
/// one), with their payloads, copied from the store into the frame body,
/// when the service is in content mode. A record the store cannot serve
/// in that mode — missing outright, or held without the bytes — fails the
/// batch with its offset in `rest`.
fn restore_batch(
    engine: &ShardedDedupEngine,
    content_mode: bool,
    rest: &[ChunkRecord],
    body: &mut Vec<u8>,
) -> Result<usize, usize> {
    body.clear();
    let mut list = RecordListEncoder::restore_batch(body, content_mode);
    let mut payload_bytes = 0usize;
    for rec in rest.iter().take(RESTORE_BATCH_CHUNKS) {
        match (engine.lookup_chunk(rec.fp), content_mode) {
            (ChunkLookup::Payload(bytes), true) => {
                if list.records() > 0 && payload_bytes + bytes.len() > RESTORE_BATCH_BYTES {
                    break;
                }
                payload_bytes += bytes.len();
                list.push(*rec, bytes);
            }
            (ChunkLookup::Metadata, false) => list.push(*rec, &[]),
            _ => return Err(list.records()),
        }
    }
    Ok(list.finish())
}
