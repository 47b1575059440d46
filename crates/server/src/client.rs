//! Client library: batched, pipelined uploads and verified restore.
//!
//! [`Client`] speaks the [`crate::proto`] message set over one TCP
//! connection. Uploads are *pipelined*: up to [`Client::window`] PUT
//! batches are in flight before the client starts consuming acks, so a
//! loopback round-trip never serializes the stream (acks are tiny and
//! cannot back up the socket buffers against the much larger data
//! direction). Acks arrive strictly in batch order — the server handles
//! a session sequentially — so matching them is a simple window drain.
//!
//! The client never sends plaintext: it uploads `(fingerprint, size)`
//! records of **MLE-encrypted** chunks (and, in content mode, the
//! ciphertext bytes). What the provider can nevertheless infer from that
//! stream is exactly what the rest of this workspace measures.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use freqdedup_chunking::{chunk_stream_par, content_fingerprint, Chunker};
use freqdedup_core::defense::{DefenseScheme, KeyContext};
use freqdedup_mle::{ChunkKey, Mle, MleError};
use freqdedup_trace::par::{par_map, ParConfig};
use freqdedup_trace::{Backup, ChunkRecord, Fingerprint};

use crate::fault::SplitMix64;
use crate::frame::{read_frame, write_frame, WireError, READ_BUFFER_BYTES};
use crate::proto::{
    append_restore_batch, ChunkStatus, Message, RecordListEncoder, ResumeState, ServerStats,
    MAX_BATCH_CHUNKS, WIRE_VERSION,
};

/// A ciphertext-payload provider: maps a chunk record to its exact
/// `record.size` ciphertext bytes.
pub type PayloadFn<'a> = &'a dyn Fn(&ChunkRecord) -> Vec<u8>;

/// Default chunks per PUT batch.
pub const DEFAULT_BATCH: usize = 512;
/// Default pipeline window (unacked batches in flight).
pub const DEFAULT_WINDOW: usize = 8;

/// Errors surfaced by the client library.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The server answered with a protocol error.
    Server {
        /// One of the [`crate::proto::code`] constants.
        code: u16,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with the wrong message type, or restore
    /// verification failed.
    Protocol(String),
    /// A [`ResilientClient`] ran out of attempts; carries the error of
    /// the final attempt.
    Exhausted {
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The error that ended the final attempt.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// Totals of one [`Client::upload_backup`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UploadSummary {
    /// Logical chunks sent.
    pub chunks: u64,
    /// Chunks the server stored as unique.
    pub unique: u64,
    /// Chunks the server deduplicated.
    pub duplicate: u64,
    /// PUT batches sent.
    pub batches: u32,
}

/// What one server-side GC pass did, as acknowledged over the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcSummary {
    /// Containers dropped.
    pub containers_dropped: u64,
    /// Physical container bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Live chunks rewritten into fresh containers.
    pub moved_chunks: u64,
}

/// A backup streamed back by [`Client::restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestoredBackup {
    /// The restored record stream (label = manifest label).
    pub backup: Backup,
    /// Ciphertext payloads parallel to `backup.chunks` (content-mode
    /// stores only).
    pub payloads: Option<Vec<Vec<u8>>>,
}

/// One client session against a [`crate::server::Server`].
#[derive(Debug)]
pub struct Client {
    /// Replies are read through the buffer; requests are written straight
    /// to the socket under it, one `write` per frame.
    conn: BufReader<TcpStream>,
    /// Negotiated protocol version.
    version: u16,
    next_seq: u32,
    batch: usize,
    window: usize,
}

impl Client {
    /// Connects and performs HELLO version negotiation.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on connect failure, [`ClientError::Server`]
    /// when the server refuses the protocol version.
    pub fn connect(addr: impl ToSocketAddrs, name: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            conn: BufReader::with_capacity(READ_BUFFER_BYTES, stream),
            version: WIRE_VERSION,
            next_seq: 0,
            batch: DEFAULT_BATCH,
            window: DEFAULT_WINDOW,
        };
        let reply = client.call(&Message::Hello {
            version: WIRE_VERSION,
            client: name.to_string(),
        })?;
        match reply {
            Message::HelloAck { version } => {
                client.version = version;
                Ok(client)
            }
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// The negotiated protocol version.
    #[must_use]
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Sets the PUT batch size (builder style; clamped to ≥ 1).
    #[must_use]
    pub fn batch(mut self, chunks: usize) -> Self {
        self.batch = chunks.max(1);
        self
    }

    /// Sets the pipeline window in batches (builder style; clamped to ≥ 1).
    #[must_use]
    pub fn window(mut self, batches: usize) -> Self {
        self.window = batches.max(1);
        self
    }

    /// Uploads a backup's chunk stream metadata-only (trace mode), in
    /// logical order, pipelined.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; the session should be dropped afterwards.
    pub fn upload_backup(&mut self, backup: &Backup) -> Result<UploadSummary, ClientError> {
        self.upload_inner(backup, None::<fn(&ChunkRecord) -> Vec<u8>>)
    }

    /// Uploads a backup with ciphertext payload bytes (content mode);
    /// `payload_of` supplies the MLE ciphertext of each record and must
    /// return exactly `record.size` bytes.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; the session should be dropped afterwards.
    pub fn upload_backup_payloads(
        &mut self,
        backup: &Backup,
        payload_of: impl Fn(&ChunkRecord) -> Vec<u8>,
    ) -> Result<UploadSummary, ClientError> {
        self.upload_inner(backup, Some(payload_of))
    }

    /// Sets (or clears) the per-operation socket deadline: both the read
    /// and the write timeout. With a deadline set, a server that stops
    /// answering surfaces as a wire error instead of blocking forever.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.conn.get_ref().set_read_timeout(timeout)?;
        self.conn.get_ref().set_write_timeout(timeout)
    }

    /// Declares an idempotent upload (RESUME): asks the server what it
    /// already knows about `commit_id`. Returns the state plus the
    /// already-ingested batch count and chunk count.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn resume(&mut self, commit_id: u64) -> Result<(ResumeState, u32, u64), ClientError> {
        match self.call(&Message::Resume { commit_id })? {
            Message::ResumeAck {
                state,
                acked_batches,
                chunks,
            } => Ok((state, acked_batches, chunks)),
            other => Err(unexpected("ResumeAck", &other)),
        }
    }

    fn upload_inner<P: AsRef<[u8]>>(
        &mut self,
        backup: &Backup,
        payload_of: Option<impl Fn(&ChunkRecord) -> P>,
    ) -> Result<UploadSummary, ClientError> {
        self.upload_from(backup, payload_of, 0)
    }

    /// [`Self::upload_inner`] starting at batch index `skip` (resume
    /// path: the server already ingested the first `skip` batches of the
    /// deterministic `self.batch`-sized split). `payload_of` may lend the
    /// bytes (`&[u8]`) or make them (`Vec<u8>`); either way they are
    /// copied once, into the PUT frame's body.
    fn upload_from<P: AsRef<[u8]>>(
        &mut self,
        backup: &Backup,
        payload_of: Option<impl Fn(&ChunkRecord) -> P>,
        skip: u32,
    ) -> Result<UploadSummary, ClientError> {
        let mut summary = UploadSummary::default();
        let mut inflight: u32 = 0;
        let mut body = Vec::new();
        for chunk_batch in backup.chunks.chunks(self.batch).skip(skip as usize) {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            body.clear();
            let mut list = RecordListEncoder::put_batch(&mut body, seq, payload_of.is_some());
            for rec in chunk_batch {
                match &payload_of {
                    Some(payload_of) => list.push(*rec, payload_of(rec).as_ref()),
                    None => list.push(*rec, &[]),
                }
            }
            list.finish();
            write_frame(self.conn.get_mut(), &body)?;
            summary.batches += 1;
            summary.chunks += chunk_batch.len() as u64;
            inflight += 1;
            if inflight as usize >= self.window {
                self.drain_ack(&mut summary)?;
                inflight -= 1;
            }
        }
        while inflight > 0 {
            self.drain_ack(&mut summary)?;
            inflight -= 1;
        }
        Ok(summary)
    }

    fn drain_ack(&mut self, summary: &mut UploadSummary) -> Result<(), ClientError> {
        match self.recv()? {
            Message::PutAck {
                unique, duplicate, ..
            } => {
                summary.unique += u64::from(unique);
                summary.duplicate += u64::from(duplicate);
                Ok(())
            }
            other => Err(unexpected("PutAck", &other)),
        }
    }

    /// Commits everything uploaded since the last commit as one backup
    /// manifest; returns the committed chunk count.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; [`ClientError::Protocol`] when `label`
    /// exceeds the wire limit (it would otherwise be silently clipped,
    /// committing under a different name than requested).
    pub fn commit(&mut self, label: &str) -> Result<u64, ClientError> {
        self.commit_with_id(label, 0)
    }

    /// [`Self::commit`] with an idempotent commit id: a nonzero id that
    /// the server already applied is *not* re-ingested — the recorded
    /// ack is replayed (exactly-once commit). Id `0` opts out.
    ///
    /// # Errors
    ///
    /// As [`Self::commit`].
    pub fn commit_with_id(&mut self, label: &str, commit_id: u64) -> Result<u64, ClientError> {
        check_label(label)?;
        match self.call(&Message::CommitManifest {
            label: label.to_string(),
            commit_id,
        })? {
            Message::CommitAck { chunks, .. } => Ok(chunks),
            other => Err(unexpected("CommitAck", &other)),
        }
    }

    /// Fetches one stored chunk's ciphertext payload (`None` when the
    /// fingerprint is unknown or the store is metadata-only).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn get_chunk(&mut self, fp: Fingerprint) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&Message::GetChunk { fp: fp.value() })? {
            Message::ChunkResp {
                status, payload, ..
            } => Ok((status == ChunkStatus::Payload).then_some(payload)),
            other => Err(unexpected("ChunkResp", &other)),
        }
    }

    /// Restores a committed backup: the full record stream in logical
    /// order, plus payload bytes when the store holds content.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`crate::proto::code::UNKNOWN_LABEL`]
    /// for unknown manifests and [`crate::proto::code::MISSING_CHUNK`]
    /// when the store lost a chunk of the backup;
    /// [`ClientError::Protocol`] when the batches do not add up to
    /// exactly the announced record count.
    pub fn restore(&mut self, label: &str) -> Result<RestoredBackup, ClientError> {
        check_label(label)?;
        let count = match self.call(&Message::RestoreBackup {
            label: label.to_string(),
        })? {
            Message::RestoreHeader { count, .. } => count,
            other => return Err(unexpected("RestoreHeader", &other)),
        };
        // `count` is the server's claim: reserve for at most one batch of
        // it up front, and grow as records actually arrive.
        let mut records: Vec<ChunkRecord> =
            Vec::with_capacity(count.min(MAX_BATCH_CHUNKS as u64) as usize);
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let mut content_mode = false;
        while (records.len() as u64) < count {
            let frame = self.recv_frame()?;
            let before = records.len();
            let Some(has_payloads) = append_restore_batch(&frame, &mut records, &mut payloads)?
            else {
                return Err(match decode_reply(&frame) {
                    Ok(other) => unexpected("RestoreBatch", &other),
                    Err(e) => e,
                });
            };
            let violation = if records.len() == before {
                Some("an empty batch")
            } else if records.len() as u64 > count {
                Some("more records than announced")
            } else if before > 0 && has_payloads != content_mode {
                Some("payload and metadata batches mixed")
            } else {
                None
            };
            if let Some(what) = violation {
                return Err(ClientError::Protocol(format!(
                    "restore {label:?}: {what} after {before} of {count} records"
                )));
            }
            content_mode = has_payloads;
        }
        Ok(RestoredBackup {
            backup: Backup::from_chunks(label, records),
            payloads: content_mode.then_some(payloads),
        })
    }

    /// Restores `original.label` and verifies it: record stream equal to
    /// `original`, and — when `payload_of` is given — every payload byte
    /// equal to the recomputed ciphertext.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] describing the first divergence.
    pub fn verify_restore(
        &mut self,
        original: &Backup,
        payload_of: Option<PayloadFn<'_>>,
    ) -> Result<(), ClientError> {
        let restored = self.restore(&original.label)?;
        if restored.backup.chunks != original.chunks {
            return Err(ClientError::Protocol(format!(
                "restore {:?}: record stream diverges (got {} chunks, want {})",
                original.label,
                restored.backup.len(),
                original.len()
            )));
        }
        if let Some(payload_of) = payload_of {
            let Some(payloads) = &restored.payloads else {
                return Err(ClientError::Protocol(format!(
                    "restore {:?}: expected payloads, store is metadata-only",
                    original.label
                )));
            };
            for (i, (rec, bytes)) in original.chunks.iter().zip(payloads).enumerate() {
                if *bytes != payload_of(rec) {
                    return Err(ClientError::Protocol(format!(
                        "restore {:?}: payload {i} (fp {}) diverges",
                        original.label, rec.fp
                    )));
                }
            }
        }
        Ok(())
    }

    /// Fetches the aggregate service counters.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Message::StatsReq)? {
            Message::StatsResp(stats) => Ok(stats),
            other => Err(unexpected("StatsResp", &other)),
        }
    }

    /// Deletes a committed backup manifest; returns `(chunk references
    /// released, logical bytes released)`. Deletion is logical — space
    /// comes back with a later [`Self::gc`]. A nonzero `commit_id` makes
    /// the operation idempotent (a replayed delete returns the recorded
    /// ack).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`crate::proto::code::UNKNOWN_LABEL`]
    /// for unknown manifests; any other [`ClientError`].
    pub fn delete_backup(
        &mut self,
        label: &str,
        commit_id: u64,
    ) -> Result<(u64, u64), ClientError> {
        check_label(label)?;
        match self.call(&Message::DeleteBackup {
            label: label.to_string(),
            commit_id,
        })? {
            Message::DeleteBackupAck {
                chunks,
                logical_bytes,
                ..
            } => Ok((chunks, logical_bytes)),
            other => Err(unexpected("DeleteBackupAck", &other)),
        }
    }

    /// Asks the server to garbage-collect: rewrite live chunks out of
    /// containers whose live fraction is at most `threshold_permille`
    /// per thousand, and drop the dead containers. A nonzero `commit_id`
    /// makes the pass idempotent.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn gc(
        &mut self,
        threshold_permille: u32,
        commit_id: u64,
    ) -> Result<GcSummary, ClientError> {
        match self.call(&Message::Gc {
            threshold_permille,
            commit_id,
        })? {
            Message::GcAck {
                containers_dropped,
                reclaimed_bytes,
                moved_chunks,
            } => Ok(GcSummary {
                containers_dropped,
                reclaimed_bytes,
                moved_chunks,
            }),
            other => Err(unexpected("GcAck", &other)),
        }
    }

    /// Asks the server to rekey all stored containers under the next key
    /// epoch derived from `secret` (REED-style re-encryption under
    /// churn); returns `(epoch now in force, containers rewritten)`.
    /// Other open sessions' reads turn
    /// [`crate::proto::code::STALE_EPOCH`] afterwards. A nonzero
    /// `commit_id` makes the operation idempotent.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn rekey(&mut self, secret: &[u8], commit_id: u64) -> Result<(u64, u64), ClientError> {
        match self.call(&Message::Rekey {
            secret: secret.to_vec(),
            commit_id,
        })? {
            Message::RekeyAck {
                epoch,
                containers_rewritten,
            } => Ok((epoch, containers_rewritten)),
            other => Err(unexpected("RekeyAck", &other)),
        }
    }

    /// Asks the server to drain, checkpoint and stop.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Message::Shutdown)? {
            Message::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }

    fn send(&mut self, msg: &Message) -> Result<(), ClientError> {
        write_frame(self.conn.get_mut(), &msg.encode())?;
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, ClientError> {
        Ok(read_frame(&mut self.conn)?.ok_or(WireError::Truncated)?)
    }

    /// Receives one message, surfacing server-side errors as
    /// [`ClientError::Server`].
    fn recv(&mut self) -> Result<Message, ClientError> {
        decode_reply(&self.recv_frame()?)
    }

    fn call(&mut self, msg: &Message) -> Result<Message, ClientError> {
        self.send(msg)?;
        self.recv()
    }
}

/// Tuning for [`ResilientClient`] reconnect/retry behaviour.
#[derive(Clone, Copy, Debug)]
pub struct RetryOptions {
    /// Connection attempts per operation before giving up.
    pub max_attempts: u32,
    /// First retry backoff; doubles per retry (capped at `max_backoff`).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Per-operation socket deadline (read and write).
    pub op_timeout: Duration,
    /// Deterministic PUT batch size — **must be stable across attempts**:
    /// resume skips server-acked batches by index of this fixed split.
    pub batch: usize,
}

impl Default for RetryOptions {
    fn default() -> Self {
        RetryOptions {
            max_attempts: 8,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
            op_timeout: Duration::from_secs(10),
            batch: DEFAULT_BATCH,
        }
    }
}

/// What a [`ResilientClient`] did to get its operations through
/// (diagnostics; the `fault_overhead` bench binary reports it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Operation attempts (first try + retries).
    pub attempts: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// TCP connections established.
    pub connects: u64,
    /// PUT batches skipped because RESUME reported them already
    /// ingested (work saved by the exactly-once protocol).
    pub batches_skipped: u64,
    /// Total time slept in backoff, in microseconds.
    pub backoff_micros: u64,
    /// Connect + HELLO + RESUME handshake latency of each connection,
    /// in microseconds.
    pub connect_micros: Vec<u64>,
}

/// A self-healing client: wraps [`Client`] with per-operation deadlines,
/// capped-exponential-backoff reconnects (deterministic jitter, seeded
/// from the client name), and **resumable, exactly-once uploads**.
///
/// [`Self::upload_commit`] survives any number of mid-stream connection
/// failures up to [`RetryOptions::max_attempts`]: each reconnect opens
/// with a RESUME handshake, the server reports how many deterministic
/// batches it already ingested toward the commit id, and the client
/// continues from there. A commit whose ack was lost is never re-applied
/// — the server replays the recorded ack. The result is that a completed
/// `upload_commit` leaves store, stats and adversary tap **bit-identical**
/// to a fault-free run, no matter where connections broke.
#[derive(Debug)]
pub struct ResilientClient {
    addr: String,
    name: String,
    opts: RetryOptions,
    rng: SplitMix64,
    inner: Option<Client>,
    report: ResilienceReport,
}

impl ResilientClient {
    /// Creates a resilient client for `addr`; nothing connects until the
    /// first operation. The backoff jitter stream is seeded from `name`,
    /// so a given client name retries on a reproducible schedule.
    pub fn new(addr: impl Into<String>, name: impl Into<String>, opts: RetryOptions) -> Self {
        let name = name.into();
        ResilientClient {
            addr: addr.into(),
            rng: SplitMix64::from_name(&name),
            name,
            opts,
            inner: None,
            report: ResilienceReport::default(),
        }
    }

    /// What this client did so far (attempts, reconnects, backoff time).
    #[must_use]
    pub fn report(&self) -> &ResilienceReport {
        &self.report
    }

    /// Uploads `backup` metadata-only and commits it under the nonzero
    /// idempotent `commit_id`, surviving connection failures; returns the
    /// committed chunk count.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] after `max_attempts` transport
    /// failures; any non-retryable [`ClientError`] immediately.
    pub fn upload_commit(&mut self, backup: &Backup, commit_id: u64) -> Result<u64, ClientError> {
        self.run_upload(backup, None, commit_id)
    }

    /// [`Self::upload_commit`] with ciphertext payload bytes
    /// (content mode); `payload_of` must be deterministic — it is
    /// re-invoked for re-sent batches after a reconnect.
    ///
    /// # Errors
    ///
    /// As [`Self::upload_commit`].
    pub fn upload_commit_payloads(
        &mut self,
        backup: &Backup,
        payload_of: PayloadFn<'_>,
        commit_id: u64,
    ) -> Result<u64, ClientError> {
        self.run_upload(backup, Some(payload_of), commit_id)
    }

    fn run_upload(
        &mut self,
        backup: &Backup,
        payload_of: Option<PayloadFn<'_>>,
        commit_id: u64,
    ) -> Result<u64, ClientError> {
        if commit_id == 0 {
            return Err(ClientError::Protocol(
                "resumable uploads need a nonzero commit id".into(),
            ));
        }
        check_label(&backup.label)?;
        let mut last: Option<ClientError> = None;
        for attempt in 0..self.opts.max_attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            self.report.attempts += 1;
            match self.attempt(backup, payload_of, commit_id) {
                Ok(chunks) => return Ok(chunks),
                // Transport failures retry on a fresh connection; server
                // verdicts and protocol violations do not.
                Err(e @ ClientError::Wire(_)) => {
                    self.inner = None;
                    self.report.retries += 1;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::Exhausted {
            attempts: self.opts.max_attempts,
            last: Box::new(last.expect("at least one attempt ran")),
        })
    }

    /// One attempt: (re)connect if needed, RESUME, upload the batches the
    /// server does not already have, commit.
    fn attempt(
        &mut self,
        backup: &Backup,
        payload_of: Option<PayloadFn<'_>>,
        commit_id: u64,
    ) -> Result<u64, ClientError> {
        let connected = Instant::now();
        let fresh = self.inner.is_none();
        if fresh {
            let mut client =
                Client::connect(self.addr.as_str(), &self.name)?.batch(self.opts.batch);
            client.set_op_timeout(Some(self.opts.op_timeout))?;
            self.inner = Some(client);
            self.report.connects += 1;
        }
        let client = self.inner.as_mut().expect("connected above");
        let (state, acked, chunks) = client.resume(commit_id)?;
        if fresh {
            self.report
                .connect_micros
                .push(u64::try_from(connected.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        let skip = match state {
            // Finished before we asked — the previous ack was lost.
            ResumeState::Committed => return Ok(chunks),
            ResumeState::InProgress => acked,
            ResumeState::Fresh => 0,
        };
        self.report.batches_skipped += u64::from(skip);
        match payload_of {
            Some(f) => client.upload_from(backup, Some(f), skip)?,
            None => client.upload_from(backup, None::<fn(&ChunkRecord) -> Vec<u8>>, skip)?,
        };
        client.commit_with_id(&backup.label, commit_id)
    }

    /// Sleeps `min(base · 2^(attempt-1), max)` half fixed, half
    /// deterministic jitter from the name-seeded stream.
    fn backoff(&mut self, attempt: u32) {
        let exp = attempt.saturating_sub(1).min(16);
        let ceiling = self
            .opts
            .base_backoff
            .saturating_mul(1 << exp)
            .min(self.opts.max_backoff);
        let half = ceiling.as_micros() as u64 / 2;
        let jitter = if half == 0 {
            0
        } else {
            self.rng.next_u64() % (half + 1)
        };
        let sleep = Duration::from_micros(half + jitter);
        self.report.backoff_micros += sleep.as_micros() as u64;
        std::thread::sleep(sleep);
    }
}

/// Decodes a reply frame; a server-side error becomes
/// [`ClientError::Server`].
fn decode_reply(frame: &[u8]) -> Result<Message, ClientError> {
    match Message::decode(frame)? {
        Message::ErrorResp { code, message } => Err(ClientError::Server { code, message }),
        msg => Ok(msg),
    }
}

fn unexpected(wanted: &str, got: &Message) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}

/// Manifest labels must survive the wire verbatim — a label longer than
/// the `u16`-length string field would be silently clipped by the codec
/// and committed (or looked up) under a different name.
fn check_label(label: &str) -> Result<(), ClientError> {
    if label.len() > crate::proto::MAX_STR_BYTES {
        return Err(ClientError::Protocol(format!(
            "label of {} bytes exceeds the wire limit of {}",
            label.len(),
            crate::proto::MAX_STR_BYTES
        )));
    }
    Ok(())
}

/// A raw byte stream chunked and MLE-encrypted on the client, ready for
/// batched upload: the full client-side ingest pipeline
/// (chunk → encrypt → fingerprint), with the key store a real client
/// would persist locally.
///
/// Records carry **ciphertext** fingerprints — the server and its
/// [`crate::tap::AdversaryTap`] only ever see `(SHA-256-prefix(E(chunk)),
/// len)` pairs plus ciphertext bytes, exactly the paper's threat model.
/// MLE is deterministic and length-preserving, so equal ciphertext
/// fingerprints imply equal ciphertext bytes (deduplication works) and
/// `record.size` equals the plaintext chunk length (the boundary-leakage
/// observable survives encryption).
///
/// [`Self::decode`] inverts the pipeline: restored payloads are decrypted
/// with the stored keys and reassembled into the original bytes.
#[derive(Debug)]
pub struct EncodedStream {
    /// The upload stream: ciphertext-fingerprint records in chunk order.
    pub backup: Backup,
    /// Plaintext bytes consumed (the sum of chunk lengths).
    pub plain_bytes: u64,
    /// Ciphertext by ciphertext fingerprint (deterministic MLE: one
    /// ciphertext per fingerprint).
    payloads: HashMap<u64, Vec<u8>>,
    /// The client's key store: MLE key by ciphertext fingerprint.
    keys: HashMap<u64, ChunkKey>,
}

impl EncodedStream {
    /// Chunks `data` with `chunker` (in parallel per `par`; bit-identical
    /// to sequential at any thread count), encrypts every chunk with
    /// `mle`, and fingerprints the ciphertexts.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MleError`] from key derivation.
    pub fn encode<C, M>(
        label: &str,
        data: &[u8],
        chunker: &C,
        mle: &M,
        par: ParConfig,
    ) -> Result<EncodedStream, MleError>
    where
        C: Chunker + Sync + ?Sized,
        M: Mle + Sync,
    {
        let spans = chunk_stream_par(data, chunker, par);
        let encrypted = par_map(par.resolve(), &spans, |span| {
            mle.encrypt(&data[span.clone()])
        });
        let mut backup = Backup::new(label);
        let mut payloads = HashMap::new();
        let mut keys = HashMap::new();
        for result in encrypted {
            let (key, ciphertext) = result?;
            let fp = content_fingerprint(&ciphertext);
            backup.push(ChunkRecord::new(fp, ciphertext.len() as u32));
            payloads.entry(fp.value()).or_insert(ciphertext);
            keys.entry(fp.value()).or_insert(key);
        }
        Ok(EncodedStream {
            backup,
            plain_bytes: data.len() as u64,
            payloads,
            keys,
        })
    }

    /// The ciphertext of one record (for [`PayloadFn`] uploads).
    ///
    /// # Panics
    ///
    /// Panics when `rec` is not part of this stream.
    #[must_use]
    pub fn payload(&self, rec: &ChunkRecord) -> Vec<u8> {
        self.ciphertext(rec.fp.value()).to_vec()
    }

    /// The stored ciphertext with fingerprint `fp`.
    fn ciphertext(&self, fp: u64) -> &[u8] {
        self.payloads
            .get(&fp)
            .expect("record belongs to this stream")
    }

    /// Distinct ciphertext chunks in this stream.
    #[must_use]
    pub fn unique_chunks(&self) -> usize {
        self.payloads.len()
    }

    /// Decrypts and reassembles a [`Client::restore`] result back into
    /// the original plaintext bytes using the stream's key store.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the restore is metadata-only, a
    /// fingerprint has no stored key, or a payload does not decrypt back
    /// to a chunk of the recorded size.
    pub fn decode<M: Mle>(
        &self,
        restored: &RestoredBackup,
        mle: &M,
    ) -> Result<Vec<u8>, ClientError> {
        let Some(payloads) = &restored.payloads else {
            return Err(ClientError::Protocol(format!(
                "decode {:?}: restore carries no payloads (metadata-only store)",
                restored.backup.label
            )));
        };
        let mut out = Vec::with_capacity(usize::try_from(self.plain_bytes).unwrap_or(0));
        for (i, (rec, ciphertext)) in restored.backup.chunks.iter().zip(payloads).enumerate() {
            let Some(key) = self.keys.get(&rec.fp.value()) else {
                return Err(ClientError::Protocol(format!(
                    "decode {:?}: chunk {i} (fp {}) has no key in the client store",
                    restored.backup.label, rec.fp
                )));
            };
            let before = out.len();
            mle.decrypt_into(key, ciphertext, &mut out);
            if out.len() - before != rec.size as usize {
                return Err(ClientError::Protocol(format!(
                    "decode {:?}: chunk {i} decrypts to {} bytes, recorded {}",
                    restored.backup.label,
                    out.len() - before,
                    rec.size
                )));
            }
        }
        Ok(out)
    }
}

impl EncodedStream {
    /// Applies a [`DefenseScheme`] to this stream's ciphertext-fingerprint
    /// sequence, producing the **defended** upload view: the backup the
    /// server (and the adversary tap) will observe, plus the client-side
    /// recipe that maps every defended fingerprint back to its underlying
    /// MLE ciphertext. This is the content pipeline's scheme-selection
    /// point — the same trait object drives the trace experiments and the
    /// real client→server→tap route.
    ///
    /// Defenses operate in fingerprint space on top of the MLE layer:
    /// a scheme may *rename* ciphertexts (so the provider cannot match
    /// frequencies), *reorder* records within segments, or *split* one
    /// ciphertext into several variants (paying real storage blowup at
    /// the server, since each variant fingerprint stores its own payload
    /// copy). The recipe — the moral equivalent of the paper's encrypted
    /// file recipe — lets [`DefendedStream::decode`] undo all three.
    #[must_use]
    pub fn defend<'a>(
        &'a self,
        scheme: &dyn DefenseScheme,
        ctx: &KeyContext,
    ) -> DefendedStream<'a> {
        let enc = scheme.encrypt_backup(&self.backup, ctx);
        let mut recipe = HashMap::with_capacity(enc.truth.len());
        for (defended, inner) in enc.truth.iter() {
            recipe.insert(defended.value(), inner.value());
        }
        DefendedStream {
            inner: self,
            backup: enc.backup,
            recipe,
        }
    }
}

/// An [`EncodedStream`] with a [`DefenseScheme`] applied: the defended
/// record stream bound for the server, plus the recipe needed to invert
/// the defense on restore. Borrows the underlying stream — payload bytes
/// and the key store stay in one place.
#[derive(Debug)]
pub struct DefendedStream<'a> {
    inner: &'a EncodedStream,
    /// The defended upload stream (what the server and tap observe).
    pub backup: Backup,
    /// Defended fingerprint → underlying MLE ciphertext fingerprint.
    recipe: HashMap<u64, u64>,
}

impl DefendedStream<'_> {
    /// The ciphertext bytes of one defended record: every variant of an
    /// underlying ciphertext carries that ciphertext's exact bytes, so
    /// equal defended fingerprints still imply equal payloads and the
    /// server's dedup and restore invariants hold unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `rec` is not part of this defended stream.
    #[must_use]
    pub fn payload(&self, rec: &ChunkRecord) -> Vec<u8> {
        self.ciphertext(rec).to_vec()
    }

    fn ciphertext(&self, rec: &ChunkRecord) -> &[u8] {
        let inner_fp = self
            .recipe
            .get(&rec.fp.value())
            .expect("record belongs to this defended stream");
        self.inner.ciphertext(*inner_fp)
    }

    /// Measured storage blowup of the defense on this stream: unique
    /// defended fingerprints per unique underlying ciphertext (1.0 for
    /// pure renaming/reordering schemes; up to the scheme's budget for
    /// splitting schemes).
    #[must_use]
    pub fn blowup(&self) -> f64 {
        if self.inner.unique_chunks() == 0 {
            return 1.0;
        }
        self.recipe.len() as f64 / self.inner.unique_chunks() as f64
    }

    /// Decrypts and reassembles a [`Client::restore`] of the *defended*
    /// backup into the original plaintext bytes: each restored payload is
    /// matched to its defended fingerprint, mapped through the recipe to
    /// the underlying ciphertext, decrypted with the stream's key store,
    /// and emitted in the **original chunk order** — undoing any
    /// scramble-style reordering the defense applied on upload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the restore is metadata-only, a
    /// restored fingerprint is not in the recipe, the restore is missing
    /// a variant for some chunk, or a payload does not decrypt back to a
    /// chunk of the recorded size.
    pub fn decode<M: Mle>(
        &self,
        restored: &RestoredBackup,
        mle: &M,
    ) -> Result<Vec<u8>, ClientError> {
        let label = &restored.backup.label;
        let Some(payloads) = &restored.payloads else {
            return Err(ClientError::Protocol(format!(
                "decode {label:?}: restore carries no payloads (metadata-only store)"
            )));
        };
        // One restored payload per underlying ciphertext (variants of the
        // same ciphertext carry identical bytes, so any variant serves).
        let mut by_inner: HashMap<u64, &Vec<u8>> = HashMap::new();
        for (rec, bytes) in restored.backup.chunks.iter().zip(payloads) {
            let Some(inner) = self.recipe.get(&rec.fp.value()) else {
                return Err(ClientError::Protocol(format!(
                    "decode {label:?}: restored fp {} is not in the recipe",
                    rec.fp
                )));
            };
            by_inner.insert(*inner, bytes);
        }
        let mut out = Vec::with_capacity(usize::try_from(self.inner.plain_bytes).unwrap_or(0));
        for (i, rec) in self.inner.backup.chunks.iter().enumerate() {
            let Some(ciphertext) = by_inner.get(&rec.fp.value()) else {
                return Err(ClientError::Protocol(format!(
                    "decode {label:?}: chunk {i} (fp {}) has no restored variant",
                    rec.fp
                )));
            };
            let Some(key) = self.inner.keys.get(&rec.fp.value()) else {
                return Err(ClientError::Protocol(format!(
                    "decode {label:?}: chunk {i} (fp {}) has no key in the client store",
                    rec.fp
                )));
            };
            let before = out.len();
            mle.decrypt_into(key, ciphertext, &mut out);
            if out.len() - before != rec.size as usize {
                return Err(ClientError::Protocol(format!(
                    "decode {label:?}: chunk {i} decrypts to {} bytes, recorded {}",
                    out.len() - before,
                    rec.size
                )));
            }
        }
        Ok(out)
    }
}

impl Client {
    /// Uploads an [`EncodedStream`] with its ciphertext payloads — the
    /// full client pipeline's network leg.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; the session should be dropped afterwards.
    pub fn upload_bytes(&mut self, stream: &EncodedStream) -> Result<UploadSummary, ClientError> {
        self.upload_inner(
            &stream.backup,
            Some(|rec: &ChunkRecord| stream.ciphertext(rec.fp.value())),
        )
    }

    /// Uploads a [`DefendedStream`] with its ciphertext payloads — the
    /// defended client pipeline's network leg.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; the session should be dropped afterwards.
    pub fn upload_defended(
        &mut self,
        stream: &DefendedStream<'_>,
    ) -> Result<UploadSummary, ClientError> {
        self.upload_inner(
            &stream.backup,
            Some(|rec: &ChunkRecord| stream.ciphertext(rec)),
        )
    }
}

/// Deterministic synthetic ciphertext for trace-driven content uploads:
/// `size` pseudo-random bytes expanded from the (ciphertext) fingerprint
/// with SplitMix64. Models deterministic MLE at the byte level — equal
/// ciphertext fingerprints imply equal ciphertext bytes, so cross-client
/// deduplication behaves exactly like a real convergent-encryption
/// deployment, and a restore can be *verified* by recomputation.
#[must_use]
pub fn synthetic_payload(fp: Fingerprint, size: u32) -> Vec<u8> {
    let mut state = fp.value() ^ 0x9e37_79b9_7f4a_7c15;
    let mut out = Vec::with_capacity(size as usize);
    while out.len() < size as usize {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let needed = (size as usize - out.len()).min(8);
        out.extend_from_slice(&z.to_le_bytes()[..needed]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_payload_deterministic_and_sized() {
        for size in [0u32, 1, 7, 8, 9, 4096] {
            let a = synthetic_payload(Fingerprint(42), size);
            let b = synthetic_payload(Fingerprint(42), size);
            assert_eq!(a, b);
            assert_eq!(a.len(), size as usize);
        }
        assert_ne!(
            synthetic_payload(Fingerprint(1), 64),
            synthetic_payload(Fingerprint(2), 64)
        );
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn encoded_stream_roundtrips_without_network() {
        use freqdedup_chunking::fastcdc::FastCdc;
        use freqdedup_mle::convergent::Convergent;

        let data = pseudo_random(200_000, 77);
        let chunker = FastCdc::with_avg_size(1024).unwrap();
        let mle = Convergent::new();
        let stream =
            EncodedStream::encode("rt", &data, &chunker, &mle, ParConfig::with_threads(4)).unwrap();

        // Sizes are plaintext chunk lengths (MLE is length-preserving)
        // and cover the input exactly.
        assert_eq!(stream.plain_bytes, data.len() as u64);
        let total: u64 = stream.backup.chunks.iter().map(|r| u64::from(r.size)).sum();
        assert_eq!(total, data.len() as u64);
        assert!(stream.unique_chunks() <= stream.backup.len());

        // Decode a simulated full restore back to the original bytes.
        let payloads: Vec<Vec<u8>> = stream
            .backup
            .chunks
            .iter()
            .map(|rec| stream.payload(rec))
            .collect();
        let restored = RestoredBackup {
            backup: stream.backup.clone(),
            payloads: Some(payloads),
        };
        assert_eq!(stream.decode(&restored, &mle).unwrap(), data);
    }

    #[test]
    fn defended_stream_roundtrips_under_every_scheme() {
        use freqdedup_chunking::fastcdc::FastCdc;
        use freqdedup_chunking::segment::SegmentParams;
        use freqdedup_core::defense::prelude::*;
        use freqdedup_mle::convergent::Convergent;

        let data = pseudo_random(200_000, 13);
        let chunker = FastCdc::with_avg_size(1024).unwrap();
        let mle = Convergent::new();
        let stream =
            EncodedStream::encode("rt", &data, &chunker, &mle, ParConfig::sequential()).unwrap();
        let ctx = KeyContext::new(b"client-secret", 7);
        let seg = SegmentParams::paper_default(1024);
        let schemes: Vec<Box<dyn DefenseScheme>> = vec![
            Box::new(NoDefense),
            Box::new(MinHashEncryption::new(seg.clone())),
            Box::new(ScrambleScheme::new(seg.clone())),
            Box::new(MinHashScrambleScheme::combined(seg, 3)),
            Box::new(TedScheme::new(1.5).unwrap()),
            Box::new(PartitionSmoothing::new(8, 1.5).unwrap()),
        ];
        for scheme in &schemes {
            let defended = stream.defend(scheme.as_ref(), &ctx);
            // The upload view preserves logical shape and honors the
            // configured blowup budget.
            assert_eq!(defended.backup.len(), stream.backup.len());
            if let Some(budget) = scheme.blowup_budget() {
                assert!(
                    defended.blowup() <= budget + 1e-9,
                    "{}: blowup {} over budget {budget}",
                    scheme.name(),
                    defended.blowup()
                );
            }
            // Simulate a full restore of the defended stream and decode
            // back to the original bytes through the key store.
            let payloads: Vec<Vec<u8>> = defended
                .backup
                .chunks
                .iter()
                .map(|rec| defended.payload(rec))
                .collect();
            let restored = RestoredBackup {
                backup: defended.backup.clone(),
                payloads: Some(payloads),
            };
            assert_eq!(
                defended.decode(&restored, &mle).unwrap(),
                data,
                "{}: defended restore diverged",
                scheme.name()
            );
        }
    }

    #[test]
    fn encoded_stream_deterministic_across_thread_counts() {
        use freqdedup_chunking::fastcdc::FastCdc;
        use freqdedup_mle::convergent::Convergent;

        let data = pseudo_random(120_000, 5);
        let chunker = FastCdc::with_avg_size(1024).unwrap();
        let mle = Convergent::new();
        let seq =
            EncodedStream::encode("d", &data, &chunker, &mle, ParConfig::sequential()).unwrap();
        let par =
            EncodedStream::encode("d", &data, &chunker, &mle, ParConfig::with_threads(8)).unwrap();
        assert_eq!(seq.backup, par.backup);
    }

    #[test]
    fn encoded_stream_hides_plaintext_fingerprints() {
        use freqdedup_chunking::fastcdc::FastCdc;
        use freqdedup_chunking::{records_from_bytes, Chunker as _};
        use freqdedup_mle::convergent::Convergent;

        let data = pseudo_random(80_000, 9);
        let chunker = FastCdc::with_avg_size(1024).unwrap();
        let stream = EncodedStream::encode(
            "h",
            &data,
            &chunker,
            &Convergent::new(),
            ParConfig::sequential(),
        )
        .unwrap();
        // Same boundaries, different (ciphertext) fingerprints.
        let plain = records_from_bytes(&data, &chunker);
        assert_eq!(plain.len(), stream.backup.len());
        let sizes_match = plain
            .iter()
            .zip(&stream.backup.chunks)
            .all(|(p, c)| p.size == c.size && p.fp != c.fp);
        assert!(sizes_match);
        assert_eq!(chunker.spans(&data).len(), stream.backup.len());
    }
}
