//! The wire message set and its binary encoding.
//!
//! One encoded message per [frame](crate::frame). The first payload byte
//! is the message tag; all integers are little-endian; strings are
//! `u16` length + UTF-8 bytes. See `DESIGN.md` §8 for the full byte
//! layout of every message.
//!
//! The protocol is deliberately session-oriented: a connection performs
//! `HELLO` version negotiation once, then uploads chunk batches that the
//! server both deduplicates *and* taps (the provider observes the
//! pre-dedup logical stream — exactly the paper's adversary model), and
//! finally commits the stream as a named backup manifest.

use freqdedup_trace::{ChunkRecord, Fingerprint};

use crate::frame::{WireError, MAX_FRAME_BYTES};

/// The wire protocol version — the only one this implementation speaks.
/// Version 2 added the session-resume handshake ([`Message::Resume`] /
/// [`Message::ResumeAck`]), the idempotent-commit id on
/// [`Message::CommitManifest`], and the `tap_warnings` counter in
/// [`ServerStats`]. Version 3 added the storage-lifecycle messages
/// ([`Message::DeleteBackup`], [`Message::Gc`], [`Message::Rekey`] and
/// their acks) and the [`code::STALE_EPOCH`] refusal for readers that
/// negotiated before a rekey. Version 4 streams a restore as
/// [`Message::RestoreBatch`] frames and ends it with
/// [`code::MISSING_CHUNK`] when the store lost a chunk.
pub const WIRE_VERSION: u16 = 4;
/// Oldest wire protocol version this implementation accepts: the
/// current one (a v2/v3 peer would wait for per-chunk restore frames
/// that no longer exist).
pub const MIN_WIRE_VERSION: u16 = WIRE_VERSION;

/// Upper bound on chunks per PUT or RESTORE batch (keeps frames well
/// under [`MAX_FRAME_BYTES`] even with payloads).
pub const MAX_BATCH_CHUNKS: usize = 65_536;

const TAG_HELLO: u8 = 0x01;
const TAG_HELLO_ACK: u8 = 0x02;
const TAG_PUT_BATCH: u8 = 0x03;
const TAG_PUT_ACK: u8 = 0x04;
const TAG_COMMIT: u8 = 0x05;
const TAG_COMMIT_ACK: u8 = 0x06;
const TAG_GET_CHUNK: u8 = 0x07;
const TAG_CHUNK_RESP: u8 = 0x08;
const TAG_RESTORE: u8 = 0x09;
const TAG_RESTORE_HEADER: u8 = 0x0a;
const TAG_STATS: u8 = 0x0b;
const TAG_STATS_RESP: u8 = 0x0c;
const TAG_SHUTDOWN: u8 = 0x0d;
const TAG_SHUTDOWN_ACK: u8 = 0x0e;
const TAG_ERROR: u8 = 0x0f;
const TAG_RESUME: u8 = 0x10;
const TAG_RESUME_ACK: u8 = 0x11;
const TAG_DELETE_BACKUP: u8 = 0x12;
const TAG_DELETE_BACKUP_ACK: u8 = 0x13;
const TAG_GC: u8 = 0x14;
const TAG_GC_ACK: u8 = 0x15;
const TAG_REKEY: u8 = 0x16;
const TAG_REKEY_ACK: u8 = 0x17;
const TAG_RESTORE_BATCH: u8 = 0x18;

/// Protocol error codes carried by [`Message::ErrorResp`].
pub mod code {
    /// The client's protocol version is unsupported.
    pub const BAD_VERSION: u16 = 1;
    /// Message invalid in the current session state (e.g. before HELLO).
    pub const BAD_STATE: u16 = 2;
    /// Payload-bearing and metadata-only uploads were mixed.
    pub const MIXED_MODE: u16 = 3;
    /// RESTORE-BACKUP named an unknown manifest label.
    pub const UNKNOWN_LABEL: u16 = 4;
    /// A batch was structurally invalid (counts or sizes disagree).
    pub const BAD_BATCH: u16 = 5;
    /// The store was rekeyed to a newer key epoch after this session
    /// negotiated; reads under the old epoch are refused — reconnect to
    /// pick up the current epoch.
    pub const STALE_EPOCH: u16 = 6;
    /// A restore stream ended early: the manifest names a chunk the
    /// store no longer holds.
    pub const MISSING_CHUNK: u16 = 7;
    /// The operation's catalog record could not be made durable, so it
    /// is not acknowledged; a retry under the same operation id is safe.
    pub const NOT_DURABLE: u16 = 8;
}

/// How a [`Message::ChunkResp`] relates to stored payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkStatus {
    /// The fingerprint is not stored.
    Missing,
    /// Stored with payload bytes (content mode); the response carries them.
    Payload,
    /// Stored metadata-only (trace mode); the response carries no bytes.
    Metadata,
}

/// What the server knows about the commit named by a [`Message::Resume`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeState {
    /// Nothing uploaded yet under this (client, commit id): start at
    /// batch 0.
    Fresh,
    /// A previous session uploaded `acked_batches` batches toward this
    /// commit before disconnecting; continue from there.
    InProgress,
    /// The commit id was already applied: do not re-upload anything —
    /// the ack carries the recorded manifest size.
    Committed,
}

impl ResumeState {
    fn to_byte(self) -> u8 {
        match self {
            ResumeState::Fresh => 0,
            ResumeState::InProgress => 1,
            ResumeState::Committed => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(ResumeState::Fresh),
            1 => Ok(ResumeState::InProgress),
            2 => Ok(ResumeState::Committed),
            _ => Err(WireError::Malformed("resume state")),
        }
    }
}

impl ChunkStatus {
    fn to_byte(self) -> u8 {
        match self {
            ChunkStatus::Missing => 0,
            ChunkStatus::Payload => 1,
            ChunkStatus::Metadata => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(ChunkStatus::Missing),
            1 => Ok(ChunkStatus::Payload),
            2 => Ok(ChunkStatus::Metadata),
            _ => Err(WireError::Malformed("chunk status")),
        }
    }
}

/// Aggregate service counters returned by STATS.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Logical chunks ingested (duplicates included).
    pub logical_chunks: u64,
    /// Logical bytes ingested.
    pub logical_bytes: u64,
    /// Unique chunks stored.
    pub unique_chunks: u64,
    /// Unique bytes stored.
    pub unique_bytes: u64,
    /// S1 duplicate hits (fingerprint cache).
    pub dup_cache_hits: u64,
    /// Open-container buffer duplicate hits.
    pub dup_buffer_hits: u64,
    /// S4 duplicate hits (on-disk index).
    pub dup_index_hits: u64,
    /// Containers sealed across all shards.
    pub containers_sealed: u64,
    /// COMMIT records in the service's catalog (deleted manifests
    /// included): the commit clock, which a restart does not wind back.
    pub committed_backups: u64,
    /// Sessions served since the service started.
    pub sessions_served: u64,
    /// Tap-degradation warnings: full catalog folds forced by a corrupt,
    /// stale or ahead-of-the-catalog `tap.fqis`, an unreadable
    /// pre-catalog registry, a failed `tap.fqis` save at shutdown, and
    /// caught session-handler panics.
    pub tap_warnings: u64,
}

/// One wire protocol message (both directions share the message space).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Client → server: open a session, negotiate the protocol version.
    Hello {
        /// Highest version the client speaks.
        version: u16,
        /// Client name (diagnostics / server log only).
        client: String,
    },
    /// Server → client: session accepted at [`WIRE_VERSION`] (the server
    /// rejects clients below [`MIN_WIRE_VERSION`] with
    /// [`code::BAD_VERSION`]).
    HelloAck {
        /// Negotiated protocol version.
        version: u16,
    },
    /// Client → server: a batch of MLE-encrypted chunks in logical
    /// (pre-dedup) stream order. `payloads`, when present, carries the
    /// ciphertext bytes of every chunk in the batch (all-or-none per
    /// batch; a service instance must not mix modes).
    PutChunkBatch {
        /// Client-assigned batch sequence number (echoed by the ack).
        seq: u32,
        /// `(fingerprint, size)` records in stream order.
        chunks: Vec<ChunkRecord>,
        /// Ciphertext payloads, parallel to `chunks` (content mode).
        payloads: Option<Vec<Vec<u8>>>,
    },
    /// Server → client: batch processed.
    PutAck {
        /// Echo of the batch sequence number.
        seq: u32,
        /// Chunks stored as unique.
        unique: u32,
        /// Chunks deduplicated.
        duplicate: u32,
    },
    /// Client → server: re-attach to an interrupted upload. Sent at most
    /// once per session, after HELLO and before any PUT; the server
    /// matches the (client name, commit id) pair against its parked
    /// uploads and applied-commit registry.
    Resume {
        /// Client-chosen idempotent commit id (nonzero).
        commit_id: u64,
    },
    /// Server → client: what the server knows about that commit.
    ResumeAck {
        /// Where the upload stands.
        state: ResumeState,
        /// Batches already processed toward this commit
        /// ([`ResumeState::InProgress`]; 0 otherwise).
        acked_batches: u32,
        /// Logical chunks recorded ([`ResumeState::Committed`]: the
        /// committed manifest size; [`ResumeState::InProgress`]: chunks
        /// pending so far).
        chunks: u64,
    },
    /// Client → server: commit everything uploaded on this session since
    /// the last commit as one named backup manifest.
    CommitManifest {
        /// Backup label (unique per backup; reused labels shadow).
        label: String,
        /// Client-chosen idempotent commit id; `0` opts out of
        /// idempotence tracking. A nonzero id that was already applied is
        /// *not* re-ingested — the server replays the recorded ack.
        commit_id: u64,
    },
    /// Server → client: manifest committed.
    CommitAck {
        /// Echo of the label.
        label: String,
        /// Logical chunks in the committed manifest.
        chunks: u64,
    },
    /// Client → server: fetch one stored chunk by fingerprint.
    GetChunk {
        /// Fingerprint to fetch.
        fp: u64,
    },
    /// Server → client: the answer to [`Message::GetChunk`].
    ChunkResp {
        /// Fingerprint of the chunk.
        fp: u64,
        /// Whether the chunk exists and carries payload bytes.
        status: ChunkStatus,
        /// Chunk size in bytes (0 when missing).
        size: u32,
        /// Payload bytes ([`ChunkStatus::Payload`] only, else empty).
        payload: Vec<u8>,
    },
    /// Client → server: stream back a committed backup.
    RestoreBackup {
        /// Manifest label to restore.
        label: String,
    },
    /// Server → client: restore accepted; [`Message::RestoreBatch`]
    /// frames totalling exactly `count` records follow, in logical stream
    /// order (none for an empty backup). A chunk the store no longer
    /// holds ends the stream early with [`code::MISSING_CHUNK`].
    RestoreHeader {
        /// Echo of the label.
        label: String,
        /// Number of records the batches that follow add up to.
        count: u64,
    },
    /// Server → client: the next records of a restore stream, in the
    /// record-list encoding of [`Message::PutChunkBatch`]. `payloads` is
    /// present on every batch of a content-mode store and on none of a
    /// metadata-only one.
    RestoreBatch {
        /// `(fingerprint, size)` records in stream order (never empty).
        chunks: Vec<ChunkRecord>,
        /// Ciphertext payloads, parallel to `chunks` (content mode).
        payloads: Option<Vec<Vec<u8>>>,
    },
    /// Client → server: delete a committed backup manifest. Deletion is
    /// logical — chunk references are released and the manifest stops
    /// being restorable; container space is reclaimed by a later
    /// [`Message::Gc`].
    DeleteBackup {
        /// Manifest label to delete.
        label: String,
        /// Client-chosen idempotent operation id; `0` opts out. A nonzero
        /// id that was already applied replays the recorded ack instead
        /// of deleting twice.
        commit_id: u64,
    },
    /// Server → client: backup deleted.
    DeleteBackupAck {
        /// Echo of the label.
        label: String,
        /// Chunk references released by the deletion.
        chunks: u64,
        /// Logical bytes those references covered.
        logical_bytes: u64,
    },
    /// Client → server: run garbage collection — rewrite live chunks out
    /// of mostly-dead containers and drop the dead containers.
    Gc {
        /// A container is collected when at most this many live chunks
        /// per thousand remain in it (1000 collects everything not fully
        /// live; 0 collects only fully dead containers).
        threshold_permille: u32,
        /// Idempotent operation id (`0` opts out), as on
        /// [`Message::DeleteBackup`].
        commit_id: u64,
    },
    /// Server → client: garbage collection finished.
    GcAck {
        /// Containers dropped.
        containers_dropped: u64,
        /// Physical container bytes reclaimed.
        reclaimed_bytes: u64,
        /// Live chunks rewritten into fresh containers to free their
        /// old homes.
        moved_chunks: u64,
    },
    /// Client → server: REED-style rekeying — re-encrypt all stored
    /// containers under the next key epoch derived from `secret`,
    /// preserving dedup structure. After the ack, sessions that
    /// negotiated before the rekey are refused reads with
    /// [`code::STALE_EPOCH`].
    Rekey {
        /// The new epoch's secret key material.
        secret: Vec<u8>,
        /// Idempotent operation id (`0` opts out), as on
        /// [`Message::DeleteBackup`].
        commit_id: u64,
    },
    /// Server → client: rekey committed.
    RekeyAck {
        /// The key epoch now in force.
        epoch: u64,
        /// Containers rewritten under the new epoch.
        containers_rewritten: u64,
    },
    /// Client → server: request aggregate service counters.
    StatsReq,
    /// Server → client: aggregate service counters.
    StatsResp(ServerStats),
    /// Client → server: drain in-flight sessions, checkpoint the store,
    /// stop the service.
    Shutdown,
    /// Server → client: shutdown initiated.
    ShutdownAck,
    /// Server → client: request failed.
    ErrorResp {
        /// One of the [`code`] constants.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Longest string (label, client name, error detail) a message carries.
pub const MAX_STR_BYTES: usize = u16::MAX as usize;

fn put_str(out: &mut Vec<u8>, s: &str) {
    // Over-length strings are clipped at a char boundary so the frame
    // always decodes; callers that must not silently clip (the client's
    // manifest labels) validate against MAX_STR_BYTES before encoding.
    let mut len = s.len().min(MAX_STR_BYTES);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

/// Writes the record list shared by [`Message::PutChunkBatch`] and
/// [`Message::RestoreBatch`] — payload flag, count, then per record
/// fingerprint, size and (flag set) length-prefixed payload bytes — one
/// record at a time from borrowed payload bytes. A sender that holds the
/// bytes elsewhere (the client's ciphertext map, the store's containers)
/// copies them once, into the frame body, without building a [`Message`].
pub(crate) struct RecordListEncoder<'a> {
    out: &'a mut Vec<u8>,
    /// Offset of the record count, written by [`Self::finish`].
    count_at: usize,
    count: u32,
    has_payloads: bool,
}

impl<'a> RecordListEncoder<'a> {
    /// Starts a [`Message::PutChunkBatch`] body in `out`.
    pub(crate) fn put_batch(out: &'a mut Vec<u8>, seq: u32, has_payloads: bool) -> Self {
        out.push(TAG_PUT_BATCH);
        out.extend_from_slice(&seq.to_le_bytes());
        Self::begin(out, has_payloads)
    }

    /// Starts a [`Message::RestoreBatch`] body in `out`.
    pub(crate) fn restore_batch(out: &'a mut Vec<u8>, has_payloads: bool) -> Self {
        out.push(TAG_RESTORE_BATCH);
        Self::begin(out, has_payloads)
    }

    fn begin(out: &'a mut Vec<u8>, has_payloads: bool) -> Self {
        out.push(u8::from(has_payloads));
        let count_at = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        RecordListEncoder {
            out,
            count_at,
            count: 0,
            has_payloads,
        }
    }

    /// Appends one record; `payload` is ignored by a list without payloads.
    #[inline]
    pub(crate) fn push(&mut self, rec: ChunkRecord, payload: &[u8]) {
        let mut head = [0u8; 16];
        head[..8].copy_from_slice(&rec.fp.value().to_le_bytes());
        head[8..12].copy_from_slice(&rec.size.to_le_bytes());
        if self.has_payloads {
            head[12..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            self.out.extend_from_slice(&head);
            self.out.extend_from_slice(payload);
        } else {
            self.out.extend_from_slice(&head[..12]);
        }
        self.count += 1;
    }

    /// Records appended so far.
    pub(crate) fn records(&self) -> usize {
        self.count as usize
    }

    /// Completes the list and returns its record count.
    pub(crate) fn finish(self) -> usize {
        self.out[self.count_at..self.count_at + 4].copy_from_slice(&self.count.to_le_bytes());
        self.records()
    }

    /// The whole list of an owned message.
    fn put_all(mut self, chunks: &[ChunkRecord], payloads: Option<&[Vec<u8>]>) {
        match payloads {
            Some(payloads) => {
                let mut payloads = payloads.iter();
                for rec in chunks {
                    self.push(*rec, payloads.next().map_or(&[], Vec::as_slice));
                }
            }
            None => {
                for rec in chunks {
                    self.push(*rec, &[]);
                }
            }
        }
        self.finish();
    }
}

/// Writes a [`Message::ChunkResp`] body from borrowed payload bytes (the
/// GET-CHUNK reply is encoded straight from the store's container).
pub(crate) fn put_chunk_resp(
    out: &mut Vec<u8>,
    fp: u64,
    status: ChunkStatus,
    size: u32,
    payload: &[u8],
) {
    out.push(TAG_CHUNK_RESP);
    out.extend_from_slice(&fp.to_le_bytes());
    out.push(status.to_byte());
    out.extend_from_slice(&size.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes an encoded [`Message::RestoreBatch`] onto the end of `chunks`
/// and `payloads` — a restore accumulates its batches without a pair of
/// vectors per frame — and says whether the batch carried payloads.
/// `None` when `frame` holds some other message (decode it as one).
///
/// # Errors
///
/// [`WireError::Malformed`] as [`Message::decode`]; records decoded before
/// the fault stay appended.
pub(crate) fn append_restore_batch(
    frame: &[u8],
    chunks: &mut Vec<ChunkRecord>,
    payloads: &mut Vec<Vec<u8>>,
) -> Result<Option<bool>, WireError> {
    let mut r = Cursor { buf: frame };
    if r.u8()? != TAG_RESTORE_BATCH {
        return Ok(None);
    }
    let has_payloads = r.records_into(chunks, payloads)?;
    r.finish()?;
    Ok(Some(has_payloads))
}

impl Message {
    /// Encodes the message into one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello { version, client } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&version.to_le_bytes());
                put_str(&mut out, client);
            }
            Message::HelloAck { version } => {
                out.push(TAG_HELLO_ACK);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Message::PutChunkBatch {
                seq,
                chunks,
                payloads,
            } => {
                RecordListEncoder::put_batch(&mut out, *seq, payloads.is_some())
                    .put_all(chunks, payloads.as_deref());
            }
            Message::PutAck {
                seq,
                unique,
                duplicate,
            } => {
                out.push(TAG_PUT_ACK);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&unique.to_le_bytes());
                out.extend_from_slice(&duplicate.to_le_bytes());
            }
            Message::Resume { commit_id } => {
                out.push(TAG_RESUME);
                out.extend_from_slice(&commit_id.to_le_bytes());
            }
            Message::ResumeAck {
                state,
                acked_batches,
                chunks,
            } => {
                out.push(TAG_RESUME_ACK);
                out.push(state.to_byte());
                out.extend_from_slice(&acked_batches.to_le_bytes());
                out.extend_from_slice(&chunks.to_le_bytes());
            }
            Message::CommitManifest { label, commit_id } => {
                out.push(TAG_COMMIT);
                put_str(&mut out, label);
                out.extend_from_slice(&commit_id.to_le_bytes());
            }
            Message::CommitAck { label, chunks } => {
                out.push(TAG_COMMIT_ACK);
                put_str(&mut out, label);
                out.extend_from_slice(&chunks.to_le_bytes());
            }
            Message::GetChunk { fp } => {
                out.push(TAG_GET_CHUNK);
                out.extend_from_slice(&fp.to_le_bytes());
            }
            Message::ChunkResp {
                fp,
                status,
                size,
                payload,
            } => put_chunk_resp(&mut out, *fp, *status, *size, payload),
            Message::RestoreBackup { label } => {
                out.push(TAG_RESTORE);
                put_str(&mut out, label);
            }
            Message::RestoreHeader { label, count } => {
                out.push(TAG_RESTORE_HEADER);
                put_str(&mut out, label);
                out.extend_from_slice(&count.to_le_bytes());
            }
            Message::RestoreBatch { chunks, payloads } => {
                RecordListEncoder::restore_batch(&mut out, payloads.is_some())
                    .put_all(chunks, payloads.as_deref());
            }
            Message::DeleteBackup { label, commit_id } => {
                out.push(TAG_DELETE_BACKUP);
                put_str(&mut out, label);
                out.extend_from_slice(&commit_id.to_le_bytes());
            }
            Message::DeleteBackupAck {
                label,
                chunks,
                logical_bytes,
            } => {
                out.push(TAG_DELETE_BACKUP_ACK);
                put_str(&mut out, label);
                out.extend_from_slice(&chunks.to_le_bytes());
                out.extend_from_slice(&logical_bytes.to_le_bytes());
            }
            Message::Gc {
                threshold_permille,
                commit_id,
            } => {
                out.push(TAG_GC);
                out.extend_from_slice(&threshold_permille.to_le_bytes());
                out.extend_from_slice(&commit_id.to_le_bytes());
            }
            Message::GcAck {
                containers_dropped,
                reclaimed_bytes,
                moved_chunks,
            } => {
                out.push(TAG_GC_ACK);
                out.extend_from_slice(&containers_dropped.to_le_bytes());
                out.extend_from_slice(&reclaimed_bytes.to_le_bytes());
                out.extend_from_slice(&moved_chunks.to_le_bytes());
            }
            Message::Rekey { secret, commit_id } => {
                out.push(TAG_REKEY);
                // Secrets ride as u16-length raw bytes (same bound as
                // strings, no UTF-8 requirement).
                let len = secret.len().min(MAX_STR_BYTES);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&secret[..len]);
                out.extend_from_slice(&commit_id.to_le_bytes());
            }
            Message::RekeyAck {
                epoch,
                containers_rewritten,
            } => {
                out.push(TAG_REKEY_ACK);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&containers_rewritten.to_le_bytes());
            }
            Message::StatsReq => out.push(TAG_STATS),
            Message::StatsResp(s) => {
                out.push(TAG_STATS_RESP);
                for v in [
                    s.logical_chunks,
                    s.logical_bytes,
                    s.unique_chunks,
                    s.unique_bytes,
                    s.dup_cache_hits,
                    s.dup_buffer_hits,
                    s.dup_index_hits,
                    s.containers_sealed,
                    s.committed_backups,
                    s.sessions_served,
                    s.tap_warnings,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Message::Shutdown => out.push(TAG_SHUTDOWN),
            Message::ShutdownAck => out.push(TAG_SHUTDOWN_ACK),
            Message::ErrorResp { code, message } => {
                out.push(TAG_ERROR);
                out.extend_from_slice(&code.to_le_bytes());
                put_str(&mut out, message);
            }
        }
        debug_assert!(out.len() <= MAX_FRAME_BYTES, "message exceeds frame bound");
        out
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on unknown tags, truncated fields, or
    /// structurally invalid batches.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = Cursor { buf: payload };
        let tag = r.u8()?;
        let msg = match tag {
            TAG_HELLO => Message::Hello {
                version: r.u16()?,
                client: r.str()?,
            },
            TAG_HELLO_ACK => Message::HelloAck { version: r.u16()? },
            TAG_PUT_BATCH => {
                let seq = r.u32()?;
                let (chunks, payloads) = r.records()?;
                Message::PutChunkBatch {
                    seq,
                    chunks,
                    payloads,
                }
            }
            TAG_PUT_ACK => Message::PutAck {
                seq: r.u32()?,
                unique: r.u32()?,
                duplicate: r.u32()?,
            },
            TAG_RESUME => Message::Resume {
                commit_id: r.u64()?,
            },
            TAG_RESUME_ACK => Message::ResumeAck {
                state: ResumeState::from_byte(r.u8()?)?,
                acked_batches: r.u32()?,
                chunks: r.u64()?,
            },
            TAG_COMMIT => Message::CommitManifest {
                label: r.str()?,
                commit_id: r.u64()?,
            },
            TAG_COMMIT_ACK => Message::CommitAck {
                label: r.str()?,
                chunks: r.u64()?,
            },
            TAG_GET_CHUNK => Message::GetChunk { fp: r.u64()? },
            TAG_CHUNK_RESP => {
                let fp = r.u64()?;
                let status = ChunkStatus::from_byte(r.u8()?)?;
                let size = r.u32()?;
                let n = r.u32()? as usize;
                let payload = r.bytes(n)?.to_vec();
                Message::ChunkResp {
                    fp,
                    status,
                    size,
                    payload,
                }
            }
            TAG_RESTORE => Message::RestoreBackup { label: r.str()? },
            TAG_RESTORE_HEADER => Message::RestoreHeader {
                label: r.str()?,
                count: r.u64()?,
            },
            TAG_RESTORE_BATCH => {
                let (chunks, payloads) = r.records()?;
                Message::RestoreBatch { chunks, payloads }
            }
            TAG_DELETE_BACKUP => Message::DeleteBackup {
                label: r.str()?,
                commit_id: r.u64()?,
            },
            TAG_DELETE_BACKUP_ACK => Message::DeleteBackupAck {
                label: r.str()?,
                chunks: r.u64()?,
                logical_bytes: r.u64()?,
            },
            TAG_GC => Message::Gc {
                threshold_permille: r.u32()?,
                commit_id: r.u64()?,
            },
            TAG_GC_ACK => Message::GcAck {
                containers_dropped: r.u64()?,
                reclaimed_bytes: r.u64()?,
                moved_chunks: r.u64()?,
            },
            TAG_REKEY => {
                let n = r.u16()? as usize;
                let secret = r.bytes(n)?.to_vec();
                Message::Rekey {
                    secret,
                    commit_id: r.u64()?,
                }
            }
            TAG_REKEY_ACK => Message::RekeyAck {
                epoch: r.u64()?,
                containers_rewritten: r.u64()?,
            },
            TAG_STATS => Message::StatsReq,
            TAG_STATS_RESP => Message::StatsResp(ServerStats {
                logical_chunks: r.u64()?,
                logical_bytes: r.u64()?,
                unique_chunks: r.u64()?,
                unique_bytes: r.u64()?,
                dup_cache_hits: r.u64()?,
                dup_buffer_hits: r.u64()?,
                dup_index_hits: r.u64()?,
                containers_sealed: r.u64()?,
                committed_backups: r.u64()?,
                sessions_served: r.u64()?,
                tap_warnings: r.u64()?,
            }),
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_SHUTDOWN_ACK => Message::ShutdownAck,
            TAG_ERROR => Message::ErrorResp {
                code: r.u16()?,
                message: r.str()?,
            },
            _ => return Err(WireError::Malformed("unknown message tag")),
        };
        // Trailing garbage means a codec mismatch.
        r.finish()?;
        Ok(msg)
    }
}

/// The contents of a record-list message: the records and, in content
/// mode, their payloads.
type RecordList = (Vec<ChunkRecord>, Option<Vec<Vec<u8>>>);

/// Bounds-checked little-endian reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed("field truncated"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| WireError::Malformed("string not utf-8"))
    }

    fn records(&mut self) -> Result<RecordList, WireError> {
        let (mut chunks, mut payloads) = (Vec::new(), Vec::new());
        let has_payloads = self.records_into(&mut chunks, &mut payloads)?;
        Ok((chunks, has_payloads.then_some(payloads)))
    }

    /// Decodes a [`RecordListEncoder`] list onto the end of `chunks` and
    /// (when the list is flagged as carrying them, which is returned)
    /// `payloads`. The declared count is untrusted: it is bounded by
    /// [`MAX_BATCH_CHUNKS`], and the vectors grow by what the remaining
    /// bytes could hold at most, so a lying count cannot drive an
    /// allocation the frame does not back.
    fn records_into(
        &mut self,
        chunks: &mut Vec<ChunkRecord>,
        payloads: &mut Vec<Vec<u8>>,
    ) -> Result<bool, WireError> {
        let has_payloads = match self.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::Malformed("payload flag")),
        };
        let count = self.u32()? as usize;
        if count > MAX_BATCH_CHUNKS {
            return Err(WireError::Malformed("batch chunk count"));
        }
        // fp + size, plus the payload length prefix when flagged.
        let min_record_bytes = if has_payloads { 16 } else { 12 };
        let capacity = count.min(self.buf.len() / min_record_bytes);
        chunks.reserve(capacity);
        if has_payloads {
            payloads.reserve(capacity);
        }
        for _ in 0..count {
            let fp = self.u64()?;
            let size = self.u32()?;
            chunks.push(ChunkRecord::new(Fingerprint(fp), size));
            if has_payloads {
                let n = self.u32()? as usize;
                payloads.push(self.bytes(n)?.to_vec());
            }
        }
        Ok(has_payloads)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Hello {
            version: WIRE_VERSION,
            client: "client-a".into(),
        });
        round_trip(Message::HelloAck {
            version: WIRE_VERSION,
        });
        round_trip(Message::PutChunkBatch {
            seq: 7,
            chunks: vec![ChunkRecord::new(1u64, 100), ChunkRecord::new(2u64, 50)],
            payloads: None,
        });
        round_trip(Message::PutChunkBatch {
            seq: 8,
            chunks: vec![ChunkRecord::new(9u64, 3)],
            payloads: Some(vec![vec![1, 2, 3]]),
        });
        round_trip(Message::PutAck {
            seq: 7,
            unique: 1,
            duplicate: 1,
        });
        round_trip(Message::Resume { commit_id: 77 });
        round_trip(Message::ResumeAck {
            state: ResumeState::Fresh,
            acked_batches: 0,
            chunks: 0,
        });
        round_trip(Message::ResumeAck {
            state: ResumeState::InProgress,
            acked_batches: 3,
            chunks: 1536,
        });
        round_trip(Message::ResumeAck {
            state: ResumeState::Committed,
            acked_batches: 0,
            chunks: 4096,
        });
        round_trip(Message::CommitManifest {
            label: "week-01".into(),
            commit_id: 0,
        });
        round_trip(Message::CommitManifest {
            label: "week-01".into(),
            commit_id: u64::MAX,
        });
        round_trip(Message::CommitAck {
            label: "week-01".into(),
            chunks: 1234,
        });
        round_trip(Message::GetChunk { fp: 42 });
        round_trip(Message::ChunkResp {
            fp: 42,
            status: ChunkStatus::Payload,
            size: 3,
            payload: vec![4, 5, 6],
        });
        round_trip(Message::ChunkResp {
            fp: 43,
            status: ChunkStatus::Missing,
            size: 0,
            payload: Vec::new(),
        });
        round_trip(Message::RestoreBackup {
            label: "week-01".into(),
        });
        round_trip(Message::RestoreHeader {
            label: "week-01".into(),
            count: 99,
        });
        round_trip(Message::RestoreBatch {
            chunks: vec![ChunkRecord::new(1u64, 100), ChunkRecord::new(2u64, 50)],
            payloads: None,
        });
        round_trip(Message::RestoreBatch {
            chunks: vec![ChunkRecord::new(9u64, 3), ChunkRecord::new(10u64, 0)],
            payloads: Some(vec![vec![1, 2, 3], Vec::new()]),
        });
        round_trip(Message::DeleteBackup {
            label: "week-01".into(),
            commit_id: 5,
        });
        round_trip(Message::DeleteBackupAck {
            label: "week-01".into(),
            chunks: 1234,
            logical_bytes: 99_000,
        });
        round_trip(Message::Gc {
            threshold_permille: 300,
            commit_id: 6,
        });
        round_trip(Message::GcAck {
            containers_dropped: 4,
            reclaimed_bytes: 16_384,
            moved_chunks: 12,
        });
        round_trip(Message::Rekey {
            secret: b"epoch-one-secret".to_vec(),
            commit_id: 7,
        });
        round_trip(Message::Rekey {
            secret: Vec::new(),
            commit_id: 0,
        });
        round_trip(Message::RekeyAck {
            epoch: 1,
            containers_rewritten: 9,
        });
        round_trip(Message::StatsReq);
        round_trip(Message::StatsResp(ServerStats {
            logical_chunks: 1,
            logical_bytes: 2,
            unique_chunks: 3,
            unique_bytes: 4,
            dup_cache_hits: 5,
            dup_buffer_hits: 6,
            dup_index_hits: 7,
            containers_sealed: 8,
            committed_backups: 9,
            sessions_served: 10,
            tap_warnings: 11,
        }));
        round_trip(Message::Shutdown);
        round_trip(Message::ShutdownAck);
        round_trip(Message::ErrorResp {
            code: code::BAD_STATE,
            message: "nope".into(),
        });
    }

    #[test]
    fn rejects_unknown_tag() {
        assert!(matches!(
            Message::decode(&[0xee]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_truncated_fields() {
        let full = Message::CommitAck {
            label: "x".into(),
            chunks: 5,
        }
        .encode();
        for cut in 1..full.len() {
            assert!(
                Message::decode(&full[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = Message::Shutdown.encode();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Malformed("trailing bytes"))
        ));
    }

    /// The bytes before the record list of each batch message.
    fn batch_prefixes() -> [Vec<u8>; 2] {
        let mut put = vec![TAG_PUT_BATCH];
        put.extend_from_slice(&0u32.to_le_bytes());
        [put, vec![TAG_RESTORE_BATCH]]
    }

    #[test]
    fn rejects_oversize_batch_count() {
        for mut bytes in batch_prefixes() {
            bytes.push(0);
            bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
            assert!(matches!(
                Message::decode(&bytes),
                Err(WireError::Malformed("batch chunk count"))
            ));
        }
    }

    #[test]
    fn rejects_bad_payload_flag() {
        for mut bytes in batch_prefixes() {
            bytes.push(7);
            bytes.extend_from_slice(&0u32.to_le_bytes());
            assert!(matches!(
                Message::decode(&bytes),
                Err(WireError::Malformed("payload flag"))
            ));
        }
    }

    #[test]
    fn batch_count_that_outruns_the_frame_is_rejected_cheaply() {
        // The largest legal count over one record's worth of bytes: the
        // decoder must fail on the missing bytes, having reserved for
        // what the frame could hold, not for what the count claims.
        for flag in [0u8, 1] {
            for mut bytes in batch_prefixes() {
                bytes.push(flag);
                bytes.extend_from_slice(&(MAX_BATCH_CHUNKS as u32).to_le_bytes());
                bytes.extend_from_slice(&[0u8; 16]);
                assert!(matches!(
                    Message::decode(&bytes),
                    Err(WireError::Malformed("field truncated"))
                ));
            }
        }
    }

    #[test]
    fn restore_batch_rejects_every_truncation_and_overrun() {
        let full = Message::RestoreBatch {
            chunks: vec![ChunkRecord::new(9u64, 3), ChunkRecord::new(10u64, 2)],
            payloads: Some(vec![vec![1, 2, 3], vec![4, 5]]),
        }
        .encode();
        for cut in 1..full.len() {
            assert!(
                Message::decode(&full[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
        let mut trailing = full.clone();
        trailing.push(0);
        assert!(matches!(
            Message::decode(&trailing),
            Err(WireError::Malformed("trailing bytes"))
        ));
        // A payload length that overruns the frame: tag, flag, count,
        // fp, size, then the first payload's length prefix.
        let len_at = 1 + 1 + 4 + 8 + 4;
        let mut overrun = full.clone();
        overrun[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode(&overrun),
            Err(WireError::Malformed("field truncated"))
        ));
        // Any single-byte mutation either fails or decodes to a message
        // that re-encodes to exactly the mutated bytes — never a panic,
        // never a silently different frame.
        for i in 0..full.len() {
            let mut mutated = full.clone();
            mutated[i] ^= 0x55;
            if let Ok(msg) = Message::decode(&mutated) {
                assert_eq!(msg.encode(), mutated, "mutation at {i}");
            }
        }
    }

    #[test]
    fn borrowed_encoders_write_the_owned_messages_bytes() {
        let chunks = vec![ChunkRecord::new(9u64, 3), ChunkRecord::new(10u64, 2)];
        let bytes: [&[u8]; 2] = [&[1, 2, 3], &[4, 5]];
        for has_payloads in [false, true] {
            let payloads = has_payloads.then(|| bytes.iter().map(|b| b.to_vec()).collect());
            let mut put = Vec::new();
            let mut restore = Vec::new();
            let mut lists = [
                RecordListEncoder::put_batch(&mut put, 41, has_payloads),
                RecordListEncoder::restore_batch(&mut restore, has_payloads),
            ];
            for list in &mut lists {
                assert_eq!(list.records(), 0);
                for (rec, payload) in chunks.iter().zip(bytes) {
                    list.push(*rec, payload);
                }
            }
            assert_eq!(lists.map(RecordListEncoder::finish), [2, 2]);
            let owned = Message::PutChunkBatch {
                seq: 41,
                chunks: chunks.clone(),
                payloads: payloads.clone(),
            };
            assert_eq!(put, owned.encode());
            let owned = Message::RestoreBatch {
                chunks: chunks.clone(),
                payloads,
            };
            assert_eq!(restore, owned.encode());
        }
    }

    #[test]
    fn append_restore_batch_accumulates_and_passes_other_messages_by() {
        let first = Message::RestoreBatch {
            chunks: vec![ChunkRecord::new(9u64, 3), ChunkRecord::new(10u64, 2)],
            payloads: Some(vec![vec![1, 2, 3], vec![4, 5]]),
        };
        let second = Message::RestoreBatch {
            chunks: vec![ChunkRecord::new(11u64, 1)],
            payloads: Some(vec![vec![6]]),
        };
        let (mut chunks, mut payloads) = (Vec::new(), Vec::new());
        for batch in [&first, &second] {
            let flagged = append_restore_batch(&batch.encode(), &mut chunks, &mut payloads);
            assert_eq!(flagged.unwrap(), Some(true));
        }
        assert_eq!(chunks.iter().map(|r| r.fp.value()).sum::<u64>(), 30);
        assert_eq!(payloads, [vec![1, 2, 3], vec![4, 5], vec![6]]);

        let metadata = Message::RestoreBatch {
            chunks: vec![ChunkRecord::new(12u64, 8)],
            payloads: None,
        };
        let flagged = append_restore_batch(&metadata.encode(), &mut chunks, &mut payloads);
        assert_eq!(flagged.unwrap(), Some(false));
        assert_eq!((chunks.len(), payloads.len()), (4, 3));

        let other = Message::ErrorResp {
            code: code::MISSING_CHUNK,
            message: "gone".into(),
        };
        let passed = append_restore_batch(&other.encode(), &mut chunks, &mut payloads);
        assert_eq!(passed.unwrap(), None);
        let mut trailing = second.encode();
        trailing.push(0);
        assert!(append_restore_batch(&trailing, &mut chunks, &mut payloads).is_err());
        assert!(append_restore_batch(&[], &mut chunks, &mut payloads).is_err());
    }
}
