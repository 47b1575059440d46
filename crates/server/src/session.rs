//! Per-connection protocol state machine, and the TCP shell around it.
//!
//! `Session` is the protocol with no socket: `Session::on` takes one
//! decoded [`Message`] and writes its replies to any [`std::io::Write`]
//! sink — the connection's socket in service, a `Vec<u8>` in this
//! module's tests. It owns the HELLO gate (exactly one HELLO, before
//! anything else; a second is refused with `BAD_STATE` and changes
//! neither the session's client name nor its key epoch) and the dispatch.
//! A handler that answers with one message returns it, or a refusal that
//! `Session::answer` turns into the one logged `ErrorResp`; RESTORE and
//! GET-CHUNK write their pre-encoded bodies to the sink themselves.
//! `serve_connection` is the shell: it reads frames, ticks while idle (the
//! socket carries a short read timeout, so a graceful shutdown drains
//! in-flight sessions instead of cutting them), refuses torn, corrupt and
//! undecodable frames, and hands every message to `Session::on` until
//! the client disconnects, the stream errors, or SHUTDOWN arrives.
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
//! the adversary. A session dropped
//! with uncommitted chunks drops them, unless it declared a
//! commit id via RESUME: then the tail is *parked* under the client's
//! name and a reconnecting session resumes it exactly where it broke (see
//! `Upload` in `server.rs`). A RESUME that finds the broken session still
//! running first stops it and waits for it to park.

use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use freqdedup_store::container::PayloadMode;
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

/// What the shell does after [`Session::on`] has answered a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Read the next frame.
    Continue,
    /// Close the connection (SHUTDOWN was answered).
    Close,
}

/// Why a request is refused: the [`code`] and its detail, sent as one
/// [`Message::ErrorResp`] by [`Session::answer`].
type Refusal = (u16, String);

/// A handler's outcome: its one reply, or the refusal sent in its place.
type Reply = Result<Message, Refusal>;

fn refusal(code: u16, message: &str) -> Refusal {
    (code, message.to_string())
}

/// Runs one connection to completion: the transport shell around
/// [`Session::on`]. It reads frames through a buffer, ticks while idle
/// (draining on shutdown, stopping when superseded, letting the tap catch
/// up), refuses torn, corrupt and undecodable frames, and hands every
/// decoded message to the session, which writes its replies straight to
/// the socket, one `write` per frame. Never panics the worker on protocol
/// or socket errors — they are logged and end the session.
pub(crate) fn serve_connection(stream: std::net::TcpStream, shared: &Shared, id: u64) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut conn = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    let mut session = Session::new(shared, id);
    let outcome = loop {
        if session.superseded.load(Ordering::SeqCst) {
            shared.log(&format!("session {id}: superseded by a RESUME"));
            break Ok(Flow::Close);
        }
        let step = match read_frame(&mut conn) {
            Ok(Some(payload)) => match Message::decode(&payload) {
                Ok(msg) => session.on(msg, conn.get_mut()),
                // The frame was whole (CRC passed), so the stream is still
                // aligned: refuse the message and go on.
                Err(e) => (session.answer(conn.get_mut(), Err((code::BAD_STATE, e.to_string()))))
                    .map(|()| Flow::Continue),
            },
            Ok(None) => Ok(Flow::Close), // clean disconnect
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle tick: drain on shutdown, else let the tap catch up
                // and keep waiting.
                if shared.stop.load(Ordering::SeqCst) {
                    Ok(Flow::Close)
                } else {
                    shared.catch_up_tap();
                    Ok(Flow::Continue)
                }
            }
            Err(e @ (WireError::BadCrc { .. } | WireError::Oversize { .. })) => {
                // Torn / corrupt frame: report, then drop the connection
                // (an oversize prefix desyncs the stream; a CRC failure
                // means the peer's framing is not to be trusted either).
                let _ = session.answer(conn.get_mut(), Err((code::BAD_STATE, e.to_string())));
                Err(e)
            }
            Err(e) => Err(e),
        };
        match step {
            Ok(Flow::Continue) => {}
            done => break done,
        }
    };
    drop(session);
    shared.catch_up_tap();
    match outcome {
        Ok(_) => shared.log(&format!("session {id}: closed")),
        Err(e) => shared.log(&format!("session {id}: error: {e}")),
    }
}

pub(crate) struct Session<'a> {
    shared: &'a Shared,
    id: u64,
    hello_done: bool,
    /// Client name from HELLO (the parked-upload key).
    client: String,
    /// The commit id declared by RESUME, if any: marks this session's
    /// uncommitted tail as resumable (parked on disconnect).
    resume_declared: Option<u64>,
    /// Set by a RESUME of a newer session of the same client: the shell
    /// then stops this session at its next frame boundary or idle tick.
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

impl<'a> Session<'a> {
    /// A session before its HELLO.
    pub(crate) fn new(shared: &'a Shared, id: u64) -> Self {
        Session {
            shared,
            id,
            hello_done: false,
            client: String::new(),
            resume_declared: None,
            superseded: Arc::new(AtomicBool::new(false)),
            acked_batches: 0,
            pending: Vec::new(),
            epoch: 0,
        }
    }

    /// Answers one request, writing its replies to `out`: the HELLO gate
    /// (one HELLO, first), then the handler. A refused request leaves the
    /// session open. Errors are the sink's, or a HELLO below
    /// [`MIN_WIRE_VERSION`], which ends the session after its refusal.
    pub(crate) fn on(&mut self, msg: Message, out: &mut impl Write) -> Result<Flow, WireError> {
        let reply = match msg {
            Message::Hello { .. } if self.hello_done => {
                Err(refusal(code::BAD_STATE, "HELLO already done"))
            }
            Message::Hello { version, .. } if version < MIN_WIRE_VERSION => {
                let refused = refusal(code::BAD_VERSION, "client version too old");
                self.answer(out, Err(refused))?;
                return Err(WireError::BadVersion(version));
            }
            Message::Hello { client, .. } => Ok(self.handle_hello(client)),
            _ if !self.hello_done => Err(refusal(code::BAD_STATE, "HELLO required first")),
            Message::Resume { commit_id } => self.handle_resume(commit_id),
            Message::PutChunkBatch {
                seq,
                chunks,
                payloads,
            } => self.handle_put(seq, chunks, payloads),
            Message::CommitManifest { label, commit_id } => self.handle_commit(label, commit_id),
            Message::GetChunk { fp } => match self.handle_get(out, Fingerprint(fp))? {
                Ok(()) => return Ok(Flow::Continue),
                Err(refused) => Err(refused),
            },
            Message::RestoreBackup { label } => match self.handle_restore(out, &label)? {
                Ok(()) => return Ok(Flow::Continue),
                Err(refused) => Err(refused),
            },
            Message::DeleteBackup { label, commit_id } => self.handle_delete(label, commit_id),
            Message::Gc {
                threshold_permille,
                commit_id,
            } => self.handle_gc(threshold_permille, commit_id),
            Message::Rekey { secret, commit_id } => self.handle_rekey(&secret, commit_id),
            Message::StatsReq => Ok(Message::StatsResp(self.shared.stats())),
            Message::Shutdown => {
                self.shared
                    .log(&format!("session {}: shutdown requested", self.id));
                self.answer(out, Ok(Message::ShutdownAck))?;
                self.shared.stop.store(true, Ordering::SeqCst);
                return Ok(Flow::Close);
            }
            // Server-only messages arriving at the server are a client
            // bug, not a transport failure.
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
                Err(refusal(code::BAD_STATE, "unexpected server-side message"))
            }
        };
        self.answer(out, reply)?;
        Ok(Flow::Continue)
    }

    /// Writes a reply, or a refusal as a logged [`Message::ErrorResp`]:
    /// the one place a refusal reaches the wire.
    fn answer(&self, out: &mut impl Write, reply: Reply) -> Result<(), WireError> {
        let msg = reply.unwrap_or_else(|(code, message)| {
            self.shared
                .log(&format!("session {}: error {code}: {message}", self.id));
            Message::ErrorResp { code, message }
        });
        write_frame(out, &msg.encode())
    }

    /// Negotiates the session: the client's name and the store's current
    /// key epoch are fixed here, once.
    fn handle_hello(&mut self, client: String) -> Message {
        self.hello_done = true;
        self.epoch = self.current_epoch();
        self.shared.log(&format!(
            "session {}: hello from {client:?} (v{WIRE_VERSION})",
            self.id
        ));
        self.client = client;
        Message::HelloAck {
            version: WIRE_VERSION,
        }
    }

    /// Answers a RESUME: reports what the server already knows about the
    /// client's `commit_id` so the client can continue an interrupted
    /// upload without re-sending (and without the server double-tapping)
    /// anything already observed.
    fn handle_resume(&mut self, commit_id: u64) -> Reply {
        if commit_id == 0 {
            return Err(refusal(
                code::BAD_STATE,
                "RESUME requires a nonzero commit id",
            ));
        }
        if self.client.is_empty() {
            return Err(refusal(code::BAD_STATE, "RESUME requires a named client"));
        }
        if !self.pending.is_empty() {
            return Err(refusal(code::BAD_STATE, "RESUME must precede any PUT"));
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
        Ok(Message::ResumeAck {
            state,
            acked_batches: acked,
            chunks,
        })
    }

    /// Runs one catalogued operation exactly once, under the catalog lock,
    /// and returns its ack. A nonzero `op_id` already applied gets its
    /// recorded ack. Otherwise `op` checks the request against the catalog,
    /// applies it to the engine, and returns its record plus a store backup
    /// id to release once the record is durable; the record is appended to
    /// `catalog.log`. The ack is written after the lock is released; an
    /// append failure is a refusal, never an ack. The tap folds the record
    /// later (`Shared::catch_up_tap`).
    fn once(
        &self,
        what: &str,
        op_id: u64,
        op: impl FnOnce(&Catalog, &mut ShardedDedupEngine) -> Result<Applied, Refusal>,
    ) -> Result<AppliedCommit, Refusal> {
        let mut catalog = lock_unpoisoned(&self.shared.catalog);
        let (ack, how) = if let Some(ack) = catalog.applied_commits().get(&op_id) {
            (ack.clone(), "replayed")
        } else {
            let (record, release) = self.shared.with_engine(|engine| op(&catalog, engine))?;
            let ack = catalog.append(record).map_err(|e| {
                let message = format!("{what}: catalog append failed: {e}");
                (code::NOT_DURABLE, message)
            })?;
            if let Some(id) = release {
                let _ = self.shared.with_engine(|engine| engine.delete_backup(id));
            }
            (ack, "applied")
        };
        drop(catalog);
        self.shared
            .log(&format!("session {}: {what} {how} ({ack:?})", self.id));
        Ok(ack)
    }

    /// Commits the pending observed stream as one manifest, under a store
    /// backup id the catalog issues. A reused label retires the earlier
    /// manifest, whose id is released once the new record is durable. The
    /// pending stream is consumed whatever the outcome; a replayed
    /// `commit_id` drops it, as the store deduplicated it and the tap must
    /// not observe the stream twice.
    fn handle_commit(&mut self, label: String, commit_id: u64) -> Reply {
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
        let applied = self.once("commit", commit_id, commit);
        // Only now, with the commit in the registry, may a waiting RESUME
        // of this client read it.
        self.release_upload();
        applied.map(|a| Message::CommitAck {
            label: a.label,
            chunks: a.chunks,
        })
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
    fn handle_delete(&self, label: String, commit_id: u64) -> Reply {
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
        let a = self.once("delete", commit_id, delete)?;
        Ok(Message::DeleteBackupAck {
            label: a.label,
            chunks: a.chunks,
            logical_bytes: a.extra,
        })
    }

    /// Runs a garbage-collection pass over every shard and records it as
    /// an adversary observable.
    fn handle_gc(&self, threshold_permille: u32, commit_id: u64) -> Reply {
        let gc = |_: &Catalog, engine: &mut ShardedDedupEngine| {
            let r = engine.gc(threshold_permille);
            let counts = [r.containers_dropped, r.reclaimed_bytes, r.moved_chunks];
            Ok((op(OpKind::Gc, commit_id, String::new(), counts), None))
        };
        let a = self.once("gc", commit_id, gc)?;
        Ok(Message::GcAck {
            containers_dropped: a.chunks,
            reclaimed_bytes: a.extra,
            moved_chunks: a.extra2,
        })
    }

    /// REED-style rekeying: re-encrypts every stored container under the
    /// next key epoch derived from `secret`. The rekeying session stays
    /// current; every other open session's reads turn
    /// [`code::STALE_EPOCH`].
    fn handle_rekey(&mut self, secret: &[u8], commit_id: u64) -> Reply {
        if secret.is_empty() {
            return Err(refusal(code::BAD_STATE, "REKEY requires a nonempty secret"));
        }
        let rekey = |_: &Catalog, engine: &mut ShardedDedupEngine| {
            let r = engine.rekey(secret);
            let counts = [r.epoch, r.containers_rewritten, 0];
            Ok((op(OpKind::Rekey, commit_id, String::new(), counts), None))
        };
        let a = self.once("rekey", commit_id, rekey)?;
        self.epoch = self.epoch.max(a.chunks);
        Ok(Message::RekeyAck {
            epoch: a.chunks,
            containers_rewritten: a.extra,
        })
    }

    /// Ingests one batch: dedup through the sharded engine *and* append
    /// to the session's observed stream (the tap sees the logical
    /// pre-dedup order, exactly the paper's adversary). The store's
    /// payload mode, fixed by the first chunk it stored, refuses a batch
    /// of the other mode.
    fn handle_put(
        &mut self,
        seq: u32,
        chunks: Vec<ChunkRecord>,
        payloads: Option<Vec<Vec<u8>>>,
    ) -> Reply {
        if let Some(p) = &payloads {
            if p.len() != chunks.len()
                || p.iter()
                    .zip(&chunks)
                    .any(|(bytes, rec)| bytes.len() != rec.size as usize)
            {
                return Err(refusal(
                    code::BAD_BATCH,
                    "payload sizes disagree with records",
                ));
            }
        }
        let mode = if payloads.is_some() {
            PayloadMode::Payload
        } else {
            PayloadMode::Metadata
        };
        let (unique, duplicate) = self.shared.with_engine(|engine| {
            if engine.payload_mode().is_some_and(|m| m != mode) {
                return Err(refusal(
                    code::MIXED_MODE,
                    "service already committed to the other payload mode",
                ));
            }
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
            Ok((unique, duplicate))
        })?;
        self.pending.extend(chunks);
        // Counted as ingested *before* the ack write: if the ack is lost
        // to a disconnect, RESUME still reports the batch as done and the
        // client skips it (the tap must not observe it twice).
        self.acked_batches = self.acked_batches.wrapping_add(1);
        Ok(Message::PutAck {
            seq,
            unique,
            duplicate,
        })
    }

    /// Streams a committed backup back to `out`: header, then
    /// RESTORE-BATCH frames in logical order. Refused once the store's key
    /// epoch moved past the one this session negotiated; a record the
    /// store cannot serve ends the stream with its refusal in place of the
    /// next batch.
    fn handle_restore(
        &self,
        out: &mut impl Write,
        label: &str,
    ) -> Result<Result<(), Refusal>, WireError> {
        if let Err(refused) = self.check_epoch() {
            return Ok(Err(refused));
        }
        let live = lock_unpoisoned(&self.shared.catalog)
            .live(label)
            .map(|(b, _)| Arc::clone(b));
        let Some(backup) = live else {
            let refused = (code::UNKNOWN_LABEL, format!("no manifest {label:?}"));
            return Ok(Err(refused));
        };
        let records = &backup.chunks;
        let header = Message::RestoreHeader {
            label: label.to_string(),
            count: records.len() as u64,
        };
        write_frame(out, &header.encode())?;
        // Stream in bounded batches: each batch is encoded, payload bytes
        // included, under one short engine lock, then written with the
        // lock released — a multi-GB restore never buffers the whole
        // backup in memory nor starves other sessions of the engine for
        // its full duration.
        let mut rest = &records[..];
        let mut body = Vec::new();
        while !rest.is_empty() {
            let batch = self.shared.with_engine(|engine| {
                let content_mode = engine.payload_mode() == Some(PayloadMode::Payload);
                restore_batch(engine, content_mode, rest, &mut body)
            });
            match batch {
                Ok(taken) => {
                    rest = &rest[taken..];
                    write_frame(out, &body)?;
                }
                Err(offset) => {
                    let index = records.len() - rest.len() + offset;
                    let fp = rest[offset].fp;
                    let message =
                        format!("restore {label:?}: chunk {index} (fp {fp}) missing from store");
                    return Ok(Err((code::MISSING_CHUNK, message)));
                }
            }
        }
        Ok(Ok(()))
    }

    /// Serves GET-CHUNK straight from the store's bytes, refused like
    /// restores once the session's key epoch is stale.
    fn handle_get(
        &self,
        out: &mut impl Write,
        fp: Fingerprint,
    ) -> Result<Result<(), Refusal>, WireError> {
        if let Err(refused) = self.check_epoch() {
            return Ok(Err(refused));
        }
        let body = self.shared.with_engine(|engine| chunk_resp(engine, fp));
        write_frame(out, &body).map(Ok)
    }

    /// The store's current key epoch (max across shards).
    fn current_epoch(&self) -> u64 {
        self.shared.with_engine(|engine| engine.epoch())
    }

    /// Refuses a read with [`code::STALE_EPOCH`] when the store was
    /// rekeyed after this session negotiated — the session's view of the
    /// at-rest keys is obsolete; it must reconnect to read again.
    fn check_epoch(&self) -> Result<(), Refusal> {
        let current = self.current_epoch();
        if current == self.epoch {
            return Ok(());
        }
        Err((
            code::STALE_EPOCH,
            format!(
                "store rekeyed to epoch {current} after this session negotiated epoch {}; reconnect",
                self.epoch
            ),
        ))
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

/// Protocol checks driven through [`Session::on`] with a `Vec<u8>` sink
/// and no socket: what the state machine answers, frame by frame. What
/// only the shell does — torn frames, idle ticks, the shutdown drain,
/// concurrent sessions — is `tests/server_integration.rs`'s.
#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use freqdedup_store::engine::DedupConfig;
    use freqdedup_store::persist::{FsyncPolicy, PersistConfig};

    use super::*;
    use crate::client::synthetic_payload;
    use crate::server::ServerConfig;

    /// Small engine so containers actually seal during the tests.
    fn small_engine() -> DedupConfig {
        DedupConfig {
            container_bytes: 4096,
            cache_entries: 1024,
            bloom_expected: 100_000,
            ..DedupConfig::default()
        }
    }

    fn open(engine: DedupConfig) -> Shared {
        Shared::open(&ServerConfig {
            engine,
            ..ServerConfig::default()
        })
        .unwrap()
    }

    /// A durable engine in a fresh directory (removed first).
    fn durable(tag: &str) -> (PathBuf, DedupConfig) {
        let dir =
            std::env::temp_dir().join(format!("freqdedup-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = DedupConfig {
            persist: Some(PersistConfig::new(&dir).fsync(FsyncPolicy::Never)),
            ..small_engine()
        };
        (dir, engine)
    }

    /// Every frame in `bytes`, decoded.
    fn frames(mut bytes: &[u8]) -> Vec<Message> {
        let mut msgs = Vec::new();
        while let Some(payload) = read_frame(&mut bytes).unwrap() {
            msgs.push(Message::decode(&payload).unwrap());
        }
        msgs
    }

    /// Feeds one message to the session; returns every frame it wrote.
    fn send(session: &mut Session, msg: Message) -> Vec<Message> {
        let mut out = Vec::new();
        assert_eq!(session.on(msg, &mut out).unwrap(), Flow::Continue);
        frames(&out)
    }

    /// [`send`] for a message answered by exactly one frame.
    fn call(session: &mut Session, msg: Message) -> Message {
        let mut replies = send(session, msg);
        assert_eq!(replies.len(), 1, "{replies:?}");
        replies.pop().unwrap()
    }

    fn error_code(reply: &Message) -> Option<u16> {
        match reply {
            Message::ErrorResp { code, .. } => Some(*code),
            _ => None,
        }
    }

    fn hello_msg(version: u16, client: &str) -> Message {
        Message::Hello {
            version,
            client: client.into(),
        }
    }

    /// Negotiates `s` at `version`: always answered with this server's.
    fn session_hello(s: &mut Session, version: u16, client: &str) {
        assert_eq!(
            call(s, hello_msg(version, client)),
            Message::HelloAck {
                version: WIRE_VERSION
            }
        );
    }

    /// A session past its HELLO.
    fn session<'a>(shared: &'a Shared, id: u64, client: &str) -> Session<'a> {
        let mut s = Session::new(shared, id);
        session_hello(&mut s, WIRE_VERSION, client);
        s
    }

    fn backup(label: &str, chunks: impl Iterator<Item = ChunkRecord>) -> Backup {
        Backup::from_chunks(label, chunks.collect())
    }

    fn payloads(chunks: &[ChunkRecord]) -> Vec<Vec<u8>> {
        chunks
            .iter()
            .map(|r| synthetic_payload(r.fp, r.size))
            .collect()
    }

    fn put_msg(seq: u32, chunks: &[ChunkRecord], content: bool) -> Message {
        Message::PutChunkBatch {
            seq,
            chunks: chunks.to_vec(),
            payloads: content.then(|| payloads(chunks)),
        }
    }

    /// Uploads `chunks` in `batch`-record PUTs; returns the summed
    /// `(unique, duplicate)` of their acks.
    fn put(s: &mut Session, chunks: &[ChunkRecord], content: bool, batch: usize) -> (u32, u32) {
        let (mut unique, mut duplicate) = (0, 0);
        for (seq, part) in (0..).zip(chunks.chunks(batch)) {
            match call(s, put_msg(seq, part, content)) {
                Message::PutAck {
                    seq: acked,
                    unique: u,
                    duplicate: d,
                } if acked == seq => (unique, duplicate) = (unique + u, duplicate + d),
                other => panic!("PUT {seq}: {other:?}"),
            }
        }
        (unique, duplicate)
    }

    fn commit(s: &mut Session, label: &str, commit_id: u64) -> Message {
        let label = label.into();
        call(s, Message::CommitManifest { label, commit_id })
    }

    fn restore(s: &mut Session, label: &str) -> Vec<Message> {
        let label = label.into();
        send(s, Message::RestoreBackup { label })
    }

    /// A whole restore stream's announced count and every batch's
    /// `(records, payload bytes)`; the header is the first frame and the
    /// batches are every frame after it.
    fn restore_shape(replies: &[Message]) -> (u64, Vec<(usize, usize)>) {
        let Some(Message::RestoreHeader { count, .. }) = replies.first() else {
            panic!("no RestoreHeader: {replies:?}");
        };
        let batches: Vec<_> = replies[1..]
            .iter()
            .map(|m| match m {
                Message::RestoreBatch { chunks, payloads } => {
                    let bytes = payloads
                        .as_ref()
                        .map_or(0, |p| p.iter().map(Vec::len).sum());
                    (chunks.len(), bytes)
                }
                other => panic!("not a RestoreBatch: {other:?}"),
            })
            .collect();
        assert_eq!(batches.iter().map(|b| b.0 as u64).sum::<u64>(), *count);
        (*count, batches)
    }

    /// The records and (content mode) payloads a restore stream carried.
    fn restored(replies: &[Message]) -> (Vec<ChunkRecord>, Option<Vec<Vec<u8>>>) {
        restore_shape(replies);
        let mut records = Vec::new();
        let mut bytes: Option<Vec<Vec<u8>>> = None;
        for m in &replies[1..] {
            if let Message::RestoreBatch { chunks, payloads } = m {
                records.extend_from_slice(chunks);
                if let Some(p) = payloads {
                    bytes.get_or_insert_with(Vec::new).extend(p.iter().cloned());
                }
            }
        }
        (records, bytes)
    }

    fn stats(s: &mut Session) -> crate::proto::ServerStats {
        match call(s, Message::StatsReq) {
            Message::StatsResp(stats) => stats,
            other => panic!("STATS: {other:?}"),
        }
    }

    #[test]
    fn protocol_round_trip_every_message_type() {
        assert_eq!(MIN_WIRE_VERSION, WIRE_VERSION, "one wire version");
        let shared = open(small_engine());
        let mut s = session(&shared, 1, "round-trip");

        // PUT (payload mode) + COMMIT.
        let b0 = backup("b0", (0..300u64).map(|i| ChunkRecord::new(i % 100, 64)));
        assert_eq!(put(&mut s, &b0.chunks, true, 128), (100, 200));
        let ack = commit(&mut s, "b0", 0);
        assert_eq!(
            ack,
            Message::CommitAck {
                label: "b0".into(),
                chunks: 300
            }
        );

        // GET-CHUNK: stored and missing fingerprints.
        let reply = call(&mut s, Message::GetChunk { fp: 5 });
        let Message::ChunkResp {
            fp: 5,
            status: ChunkStatus::Payload,
            size: 64,
            payload,
        } = reply
        else {
            panic!("GET 5: {reply:?}");
        };
        assert_eq!(payload, synthetic_payload(Fingerprint(5), 64));
        let reply = call(&mut s, Message::GetChunk { fp: 987_654_321 });
        assert!(
            matches!(
                reply,
                Message::ChunkResp {
                    status: ChunkStatus::Missing,
                    ..
                }
            ),
            "{reply:?}"
        );

        // RESTORE-BACKUP: the stream, payloads included.
        let (records, bytes) = restored(&restore(&mut s, "b0"));
        assert_eq!(records, b0.chunks);
        assert_eq!(bytes, Some(payloads(&b0.chunks)));

        // RESTORE of an unknown label: a refusal, and the session goes on.
        let reply = restore(&mut s, "nope");
        assert_eq!(reply.len(), 1);
        assert_eq!(error_code(&reply[0]), Some(code::UNKNOWN_LABEL));

        // STATS.
        let st = stats(&mut s);
        assert_eq!(st.logical_chunks, 300);
        assert_eq!(st.unique_chunks, 100);
        assert_eq!(st.committed_backups, 1);

        // A server-side message from a client is refused.
        let reply = call(&mut s, Message::ShutdownAck);
        assert_eq!(error_code(&reply), Some(code::BAD_STATE));

        // SHUTDOWN: acked, the service stops, the connection closes.
        let mut out = Vec::new();
        assert_eq!(s.on(Message::Shutdown, &mut out).unwrap(), Flow::Close);
        assert_eq!(frames(&out), vec![Message::ShutdownAck]);
        assert!(shared.stop.load(Ordering::SeqCst));
        let st = shared.stats();
        assert_eq!((st.committed_backups, st.unique_chunks), (1, 100));
    }

    #[test]
    fn hello_is_required_and_versions_negotiate() {
        let shared = open(small_engine());

        // A request before HELLO is refused with BAD_STATE; the session
        // survives the refusal, and HELLO still works.
        let mut s = Session::new(&shared, 1);
        let reply = call(&mut s, Message::StatsReq);
        assert_eq!(error_code(&reply), Some(code::BAD_STATE));
        session_hello(&mut s, WIRE_VERSION, "late-hello");

        // An older client version is refused with BAD_VERSION, and the
        // session ends (the shell then drops the connection): there is
        // one wire version, no per-chunk restore fallback.
        let mut s = Session::new(&shared, 2);
        let mut out = Vec::new();
        let old = WIRE_VERSION - 1;
        let ended = s.on(hello_msg(old, "antique"), &mut out);
        assert!(matches!(ended, Err(WireError::BadVersion(v)) if v == old));
        let reply = frames(&out);
        assert_eq!(reply.len(), 1);
        assert_eq!(error_code(&reply[0]), Some(code::BAD_VERSION));

        // A future client version negotiates down to the server's version.
        let mut s = Session::new(&shared, 3);
        session_hello(&mut s, 999, "futuristic");
    }

    /// One HELLO per session: a second is refused with BAD_STATE, and the
    /// session keeps the name and the key epoch it negotiated — a second
    /// HELLO neither lifts the rekey fence nor moves the upload it
    /// declared under another name.
    #[test]
    fn a_second_hello_is_refused_and_changes_nothing() {
        let shared = open(small_engine());
        let mut alice = session(&shared, 1, "alice");
        let reply = call(&mut alice, Message::Resume { commit_id: 7 });
        assert!(matches!(
            reply,
            Message::ResumeAck {
                state: ResumeState::Fresh,
                ..
            }
        ));

        let mut admin = session(&shared, 2, "admin");
        put(&mut admin, &[ChunkRecord::new(1, 16)], false, 1);
        commit(&mut admin, "a", 0);
        let secret = b"rekey".to_vec();
        let reply = call(
            &mut admin,
            Message::Rekey {
                secret,
                commit_id: 3,
            },
        );
        assert!(
            matches!(reply, Message::RekeyAck { epoch: 1, .. }),
            "{reply:?}"
        );

        let stale = |s: &mut Session| error_code(&call(s, Message::GetChunk { fp: 1 }));
        assert_eq!(stale(&mut alice), Some(code::STALE_EPOCH));
        let reply = call(&mut alice, hello_msg(WIRE_VERSION, "bob"));
        assert_eq!(error_code(&reply), Some(code::BAD_STATE));
        assert_eq!(stale(&mut alice), Some(code::STALE_EPOCH));

        drop(alice);
        let uploads = lock_unpoisoned(&shared.uploads);
        assert!(!uploads.contains_key("alice"), "{uploads:?}");
        assert!(!uploads.contains_key("bob"), "{uploads:?}");
    }

    /// The store's payload mode is fixed by the first chunk it stores: a
    /// batch of the other mode is refused MIXED_MODE — also after a
    /// graceful restart, whose recovered containers carry the mode. A
    /// PUT with no chunks fixes nothing.
    #[test]
    fn mixed_payload_modes_are_refused() {
        let records: Vec<_> = (0..10u64).map(|i| ChunkRecord::new(i, 16)).collect();
        let shared = open(small_engine());
        let mut meta = session(&shared, 1, "meta");
        put(&mut meta, &[], true, 1);
        put(&mut meta, &records, false, 512);
        let mut content = session(&shared, 2, "content");
        let reply = call(&mut content, put_msg(0, &records, true));
        assert_eq!(error_code(&reply), Some(code::MIXED_MODE));

        let (dir, engine) = durable("mixed-mode");
        let config = ServerConfig {
            engine,
            ..ServerConfig::default()
        };
        let shared = Shared::open(&config).unwrap();
        let mut s = session(&shared, 1, "content");
        put(&mut s, &records, true, 512);
        commit(&mut s, "c", 0);
        drop(s);
        shared.close().unwrap();
        let shared = Shared::open(&config).unwrap();
        let mut s = session(&shared, 1, "meta");
        let reply = call(&mut s, put_msg(0, &records, false));
        assert_eq!(error_code(&reply), Some(code::MIXED_MODE));
        assert_eq!(put(&mut s, &records, true, 512), (0, 10));
        drop(s);
        shared.close().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn restore_batches_equal_upload_at_every_cap_boundary() {
        // Metadata mode: an empty backup is a header and nothing else;
        // 1 024 records are one batch, 1 025 spill one record into a
        // second. Nothing follows the last batch.
        let shared = open(small_engine());
        let mut s = session(&shared, 1, "meta");
        for (n, shape) in [
            (0u64, vec![]),
            (1024, vec![(1024, 0)]),
            (1025, vec![(1024, 0), (1, 0)]),
        ] {
            let label = format!("meta-{n}");
            let b = backup(
                &label,
                (0..n).map(|i| ChunkRecord::new(i % 300, 64 + (i % 7) as u32)),
            );
            put(&mut s, &b.chunks, false, 512);
            commit(&mut s, &label, 0);
            let replies = restore(&mut s, &label);
            assert_eq!(restore_shape(&replies), (n, shape));
            assert_eq!(restored(&replies), (b.chunks, None), "{n} records");
        }

        // Payload mode: 100 chunks of 100 000 bytes — 41 fit under the
        // 4 MiB byte cap, the 42nd would cross it — so the byte cap, not
        // the record cap, splits the stream; the bytes come back exact.
        let shared = open(DedupConfig {
            container_bytes: 4 << 20,
            ..small_engine()
        });
        let mut s = session(&shared, 1, "payload");
        let big = backup(
            "big",
            (0..100u64).map(|i| ChunkRecord::new(1000 + i % 35, 100_000)),
        );
        put(&mut s, &big.chunks, true, 20);
        commit(&mut s, "big", 0);
        let replies = restore(&mut s, "big");
        assert_eq!(
            restore_shape(&replies),
            (100, vec![(41, 4_100_000), (41, 4_100_000), (18, 1_800_000)])
        );
        assert_eq!(
            restored(&replies),
            (big.chunks.clone(), Some(payloads(&big.chunks)))
        );
    }

    /// A catalog that names chunks the store lost ends the restore stream
    /// with MISSING_CHUNK after the batches the store could serve, in
    /// place of the next one — and the session keeps serving.
    #[test]
    fn restore_of_a_lost_chunk_fails_typed_mid_stream() {
        let shared = open(small_engine());
        let mut s = session(&shared, 1, "reader");
        let full = backup("full", (0..2500u64).map(|i| ChunkRecord::new(i, 32)));
        put(&mut s, &full.chunks[..1600], false, 512);
        commit(&mut s, "prefix", 0);
        {
            let mut catalog = lock_unpoisoned(&shared.catalog);
            let record = CatalogRecord::Commit {
                op_id: 0,
                backup_id: catalog.next_backup_id(),
                timestamp: catalog.commits() + 1,
                backup: Arc::new(full),
            };
            catalog.append(record).unwrap();
        }
        let replies = restore(&mut s, "full");
        assert_eq!(replies.len(), 3, "{replies:?}");
        assert!(matches!(
            replies[0],
            Message::RestoreHeader { count: 2500, .. }
        ));
        assert!(
            matches!(&replies[1], Message::RestoreBatch { chunks, .. } if chunks.len() == 1024)
        );
        let Message::ErrorResp { code: c, message } = &replies[2] else {
            panic!("{:?}", replies[2]);
        };
        assert_eq!(*c, code::MISSING_CHUNK);
        assert!(message.contains("chunk 1600"), "{message}");
        assert_eq!(stats(&mut s).committed_backups, 2);
    }

    /// A commit id makes COMMIT-MANIFEST idempotent: a later session's
    /// RESUME reads it as `Committed`, and a replayed COMMIT returns the
    /// recorded ack and changes no counter. A session dropped mid-upload
    /// after its RESUME parks its acked batches, and the next session of
    /// the client adopts them and finishes without resending them.
    #[test]
    fn commit_ids_are_exactly_once_across_sessions() {
        let shared = open(small_engine());
        let resume = |s: &mut Session, commit_id| match call(s, Message::Resume { commit_id }) {
            Message::ResumeAck {
                state,
                acked_batches,
                chunks,
            } => (state, acked_batches, chunks),
            other => panic!("RESUME {commit_id}: {other:?}"),
        };
        let committed = |label: &str, chunks| Message::CommitAck {
            label: label.into(),
            chunks,
        };

        let eo = backup(
            "eo-backup",
            (0..300u64).map(|i| ChunkRecord::new(i % 120, 64)),
        );
        let mut s = session(&shared, 1, "once");
        assert_eq!(resume(&mut s, 7), (ResumeState::Fresh, 0, 0));
        put(&mut s, &eo.chunks, false, 512);
        assert_eq!(commit(&mut s, "eo-backup", 7), committed("eo-backup", 300));
        let once = stats(&mut s);
        drop(s);

        let mut s = session(&shared, 2, "once");
        assert_eq!(resume(&mut s, 7), (ResumeState::Committed, 0, 300));
        assert_eq!(commit(&mut s, "eo-backup", 7), committed("eo-backup", 300));
        let replay = stats(&mut s);
        assert_eq!(replay.logical_chunks, once.logical_chunks);
        assert_eq!(replay.unique_chunks, once.unique_chunks);
        assert_eq!(
            replay.committed_backups, once.committed_backups,
            "a replayed commit must not double-ingest"
        );
        drop(s);

        let parked = backup(
            "parked-backup",
            (1000..1300u64).map(|i| ChunkRecord::new(i, 32)),
        );
        let mut s = session(&shared, 3, "parker");
        assert_eq!(resume(&mut s, 9).0, ResumeState::Fresh);
        put(&mut s, &parked.chunks[..150], false, 50);
        drop(s); // before COMMIT: the three acked batches are parked
        let mut s = session(&shared, 4, "parker");
        assert_eq!(resume(&mut s, 9), (ResumeState::InProgress, 3, 150));
        put(&mut s, &parked.chunks[150..], false, 50);
        let ack = commit(&mut s, "parked-backup", 9);
        assert_eq!(ack, committed("parked-backup", 300));
        let (records, _) = restored(&restore(&mut s, "parked-backup"));
        assert_eq!(records, parked.chunks, "the full stream, in order, once");
        assert_eq!(stats(&mut s).logical_chunks, 600, "no chunk ingested twice");
    }

    /// DELETE-BACKUP, GC and REKEY answered under their commit ids: a
    /// replay returns the recorded ack verbatim, even once the label no
    /// longer resolves; refusals leave the session open; and reads are
    /// fenced to the key epoch a session negotiated.
    #[test]
    fn lifecycle_replays_are_exactly_once_and_reads_fence_by_epoch() {
        let (dir, engine) = durable("lifecycle");
        let shared = open(engine);
        let mk = |label: &str, fps: std::ops::Range<u64>| {
            backup(label, fps.map(|i| ChunkRecord::new(i, 64)))
        };
        // The victim shares boundary chunks with both survivors; 100..180
        // are exclusive to it and must be physically reclaimed by GC.
        let (keep_a, victim, keep_b) = (
            mk("keep-a", 0..100),
            mk("victim", 80..200),
            mk("keep-b", 180..260),
        );
        let mut c = session(&shared, 1, "lifecycle");
        for b in [&keep_a, &victim, &keep_b] {
            put(&mut c, &b.chunks, true, 512);
            commit(&mut c, &b.label, 0);
        }
        let verify = |s: &mut Session, b: &Backup| {
            let (records, bytes) = restored(&restore(s, &b.label));
            assert_eq!(records, b.chunks);
            assert_eq!(bytes, Some(payloads(&b.chunks)));
        };
        // A session that negotiates before the rekey, to be fenced later.
        let mut stale = session(&shared, 2, "pre-rekey");
        verify(&mut stale, &keep_a);

        // DELETE-BACKUP, its replay, and a fresh delete of the gone label.
        let delete = |s: &mut Session, commit_id| {
            let label = "victim".into();
            call(s, Message::DeleteBackup { label, commit_id })
        };
        let deleted = Message::DeleteBackupAck {
            label: "victim".into(),
            chunks: 120,
            logical_bytes: 120 * 64,
        };
        assert_eq!(delete(&mut c, 21), deleted);
        assert_eq!(delete(&mut c, 21), deleted);
        assert_eq!(error_code(&delete(&mut c, 29)), Some(code::UNKNOWN_LABEL));
        let reply = restore(&mut c, "victim");
        assert_eq!(error_code(&reply[0]), Some(code::UNKNOWN_LABEL));

        // GC reclaims the victim's exclusive chunks; its replay is a no-op.
        let gc = |s: &mut Session| {
            call(
                s,
                Message::Gc {
                    threshold_permille: 1000,
                    commit_id: 22,
                },
            )
        };
        let summary = gc(&mut c);
        let Message::GcAck {
            containers_dropped,
            reclaimed_bytes,
            ..
        } = summary
        else {
            panic!("GC: {summary:?}");
        };
        assert!(containers_dropped > 0, "GC dropped nothing");
        assert!(reclaimed_bytes >= 80 * 64, "{summary:?}");
        assert_eq!(gc(&mut c), summary, "GC replay must be a no-op");
        verify(&mut c, &keep_a);
        verify(&mut c, &keep_b);
        let reply = call(&mut c, Message::GetChunk { fp: 150 });
        assert!(matches!(
            reply,
            Message::ChunkResp {
                status: ChunkStatus::Missing,
                ..
            }
        ));

        // REKEY: an empty secret is refused; the rekey's replay is a no-op.
        let rekey = |s: &mut Session, secret: &[u8], commit_id| {
            let secret = secret.to_vec();
            call(s, Message::Rekey { secret, commit_id })
        };
        assert_eq!(error_code(&rekey(&mut c, b"", 99)), Some(code::BAD_STATE));
        let ack = rekey(&mut c, b"reed-epoch-secret", 23);
        let Message::RekeyAck {
            epoch: 1,
            containers_rewritten,
        } = ack
        else {
            panic!("REKEY: {ack:?}");
        };
        assert!(containers_rewritten > 0, "rekey rewrote nothing");
        assert_eq!(
            rekey(&mut c, b"reed-epoch-secret", 23),
            ack,
            "rekey replay must be a no-op"
        );

        // The rekeying session reads on; the pre-rekey one is fenced, and
        // a new session negotiates the current epoch and reads fine.
        verify(&mut c, &keep_a);
        let reply = restore(&mut stale, "keep-a");
        assert_eq!(reply.len(), 1);
        assert_eq!(error_code(&reply[0]), Some(code::STALE_EPOCH));
        let mut fresh = session(&shared, 3, "post-rekey");
        verify(&mut fresh, &keep_b);
        assert_eq!(
            stats(&mut c).committed_backups,
            3,
            "commit counter is monotonic"
        );
        drop((c, stale, fresh));
        shared.close().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }
}
