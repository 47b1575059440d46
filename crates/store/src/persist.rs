//! Durable-store plumbing: configuration, the error type (and its mapping
//! from the shared codec's [`CodecError`]), and the store metadata file.
//! Every store file is written and read with
//! [`freqdedup_trace::io::CrcWriter`] / [`freqdedup_trace::io::CrcReader`].
//!
//! The on-disk layout of a persistent engine directory is:
//!
//! ```text
//! <dir>/store.meta            fixed-size config echo (magic FQSM + CRC)
//! <dir>/manifest.log          write-ahead journal of lifecycle events
//! <dir>/index.snap            fingerprint-index + counters snapshot
//! <dir>/container-NNNNNNNN.clog   one file per sealed container
//! ```
//!
//! A [`crate::sharded::ShardedDedupEngine`] directory holds a `store.meta`
//! of kind *sharded* plus one engine directory per prefix shard
//! (`shard-NNN/`). All integers are little-endian; every file carries a
//! magic, a version, and a trailing CRC-32 (IEEE) so truncation and
//! corruption are detectable. See `DESIGN.md` §7 for the recovery
//! invariant.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use freqdedup_trace::io::{CodecError, CrcReader, CrcWriter};

use crate::fault::{FaultFile, IoPolicy, IoPolicyHandle, PersistSite};

/// When the engine calls `fsync` on its persistence files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` container files before their manifest record, `fsync` the
    /// journal after every append, and `fsync` snapshots and directories.
    /// This is the crash-safe mode: a manifest-recorded container is always
    /// fully durable, so only the *tail* of the store can ever be torn.
    #[default]
    Always,
    /// Never `fsync` (leave durability to the OS page cache). Much faster;
    /// crash consistency degrades to best-effort. Intended for tests and
    /// throughput experiments.
    Never,
}

/// Where and how a [`crate::engine::DedupEngine`] persists its state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistConfig {
    /// Root directory of the store (created on first open).
    pub dir: PathBuf,
    /// Fsync policy for container, journal and snapshot writes.
    pub fsync: FsyncPolicy,
    /// Write an index snapshot at the first consistent point
    /// ([`crate::engine::DedupEngine::finish`]) once at least this many
    /// containers have been sealed since the last snapshot. `0` disables
    /// interval snapshots — one is still always written by
    /// [`crate::engine::DedupEngine::close`].
    pub snapshot_every_seals: u32,
    /// Fault-injection hook consulted before every durable operation.
    /// Empty by default (one `Option` branch per operation, nothing else);
    /// ignored by `Clone`-shared equality — see
    /// [`crate::fault::IoPolicyHandle`].
    pub io: IoPolicyHandle,
    /// Key-epoch secrets for reading rekeyed container payloads:
    /// `(epoch, secret)` pairs. Epoch 0 is the identity (payloads stored
    /// unwrapped) and needs no entry. Secrets are **never persisted** —
    /// a store rekeyed to epoch *e* can only be reopened by supplying the
    /// epoch-*e* secret here, which is the REED revocation property.
    pub keys: Vec<(u64, Vec<u8>)>,
}

impl PersistConfig {
    /// Persistence rooted at `dir` with the crash-safe defaults
    /// ([`FsyncPolicy::Always`], snapshots only at close).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            snapshot_every_seals: 0,
            io: IoPolicyHandle::none(),
            keys: Vec::new(),
        }
    }

    /// Sets the fsync policy (builder style).
    #[must_use]
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the snapshot interval in sealed containers (builder style).
    #[must_use]
    pub fn snapshot_every_seals(mut self, seals: u32) -> Self {
        self.snapshot_every_seals = seals;
        self
    }

    /// Installs a fault-injection policy (builder style; tests only).
    #[must_use]
    pub fn io_policy(mut self, policy: impl IoPolicy + 'static) -> Self {
        self.io = IoPolicyHandle::new(policy);
        self
    }

    /// Registers the secret of a key epoch (builder style). Required to
    /// reopen a store whose payloads were rekeyed to that epoch.
    #[must_use]
    pub fn epoch_secret(mut self, epoch: u64, secret: impl Into<Vec<u8>>) -> Self {
        self.keys.push((epoch, secret.into()));
        self
    }
}

/// Errors produced by the durable-store layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A file's magic bytes did not match its expected format.
    BadMagic {
        /// The offending file (relative name).
        file: String,
    },
    /// A file carries an unsupported format version.
    BadVersion {
        /// The offending file (relative name).
        file: String,
        /// The version found.
        version: u16,
    },
    /// A file ends mid-record or fails its CRC — the signature of a torn
    /// (interrupted) write. Recovery tolerates this on the *tail* of the
    /// store only.
    Torn {
        /// The offending file (relative name).
        file: String,
        /// What was being read when the tear was detected.
        detail: String,
    },
    /// A structural invariant does not hold (ids out of order, counts
    /// disagreeing, a valid container after a torn one, ...).
    Corrupt(String),
    /// The directory was created under a different configuration than the
    /// one now supplied.
    ConfigMismatch(String),
    /// The supplied engine configuration failed
    /// [`crate::engine::DedupConfig::validate`].
    InvalidConfig(String),
    /// A container payload is wrapped under a key epoch whose secret is
    /// missing from [`PersistConfig::keys`] or fails the stored key-check
    /// value — the REED "old key reads refused" signal, distinct from data
    /// corruption.
    WrongKey {
        /// The epoch the container was written under.
        epoch: u64,
    },
    /// A fault-injection policy failed this operation (tests only; never
    /// produced without an installed [`crate::fault::IoPolicy`]).
    Injected {
        /// The durable-operation site that was failed.
        site: PersistSite,
    },
    /// An earlier durable write of this engine failed, so its memory is
    /// ahead of its files; it writes nothing more until it is reopened.
    Failed,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic { file } => write!(f, "{file}: not a freqdedup store file"),
            PersistError::BadVersion { file, version } => {
                write!(f, "{file}: unsupported format version {version}")
            }
            PersistError::Torn { file, detail } => {
                write!(f, "{file}: torn write detected ({detail})")
            }
            PersistError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            PersistError::ConfigMismatch(msg) => write!(f, "configuration mismatch: {msg}"),
            PersistError::InvalidConfig(msg) => write!(f, "{msg}"),
            PersistError::WrongKey { epoch } => {
                write!(f, "missing or wrong secret for key epoch {epoch}")
            }
            PersistError::Injected { site } => write!(f, "injected fault at {site:?}"),
            PersistError::Failed => {
                f.write_str("an earlier durable write failed; reopen the engine")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A short read or a CRC mismatch is a torn write; a foreign header keeps
/// its own variants; a real I/O error stays [`PersistError::Io`] and is
/// never classified as torn.
impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => PersistError::Io(e),
            CodecError::Truncated { file, field } => PersistError::Torn {
                file,
                detail: format!("file ends inside {field}"),
            },
            CodecError::BadChecksum {
                file,
                expected,
                actual,
            } => PersistError::Torn {
                file,
                detail: format!(
                    "checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
                ),
            },
            CodecError::BadMagic { file } => PersistError::BadMagic { file },
            CodecError::BadVersion { file, version } => PersistError::BadVersion { file, version },
            other @ CodecError::BadUtf8 { .. } => PersistError::Corrupt(other.to_string()),
        }
    }
}

/// `fsync`s `file` when the policy requires it.
pub fn maybe_sync(file: &File, policy: FsyncPolicy) -> Result<(), PersistError> {
    if policy == FsyncPolicy::Always {
        file.sync_all()?;
    }
    Ok(())
}

/// `fsync`s the directory itself (making renames/creations durable) when
/// the policy requires it. Best-effort on platforms where directories
/// cannot be opened for sync.
pub fn maybe_sync_dir(dir: &Path, policy: FsyncPolicy) -> Result<(), PersistError> {
    if policy == FsyncPolicy::Always {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// store.meta — configuration echo written once at directory creation.
// ---------------------------------------------------------------------------

const META_MAGIC: &[u8; 4] = b"FQSM";
const META_VERSION: u16 = 1;
pub(crate) const META_FILE: &str = "store.meta";
/// The `index_shards` field `store.meta` and `index.snap` still carry: the
/// index is one map now, and is written as one shard.
pub(crate) const LEGACY_INDEX_SHARDS: u32 = 1;

/// What kind of engine owns a persistence directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaKind {
    /// A single [`crate::engine::DedupEngine`].
    Engine,
    /// A [`crate::sharded::ShardedDedupEngine`] root (shard subdirectories
    /// below it each carry an `Engine` meta of their own).
    Sharded,
}

/// The configuration echo stored in `store.meta`, validated on reopen so a
/// directory cannot silently be opened under an incompatible configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Directory kind.
    pub kind: MetaKind,
    /// Shard count (1 for a plain engine).
    pub shards: u32,
    /// Configured metadata entry size in bytes.
    pub entry_bytes: u64,
    /// Configured container capacity in bytes.
    pub container_bytes: u64,
}

/// Writes `store.meta` into `dir`.
pub(crate) fn write_meta(
    dir: &Path,
    meta: &StoreMeta,
    policy: FsyncPolicy,
    io: &IoPolicyHandle,
) -> Result<(), PersistError> {
    let file = FaultFile::new(
        File::create(dir.join(META_FILE))?,
        io.clone(),
        PersistSite::MetaWrite,
    );
    let mut w = CrcWriter::new(std::io::BufWriter::new(file));
    w.header(META_MAGIC, META_VERSION)?;
    w.u8(match meta.kind {
        MetaKind::Engine => 1,
        MetaKind::Sharded => 2,
    })?;
    w.u32(meta.shards)?;
    w.u64(meta.entry_bytes)?;
    w.u32(LEGACY_INDEX_SHARDS)?;
    w.u64(meta.container_bytes)?;
    let mut buf = w.finish()?;
    buf.flush()?;
    buf.get_ref().maybe_sync(policy, PersistSite::MetaWrite)?;
    io.check_sync(PersistSite::DirSync)?;
    maybe_sync_dir(dir, policy)?;
    Ok(())
}

/// Ensures `dir` carries this configuration's `store.meta`: validates an
/// existing file against `meta` (rejecting a mismatch) and writes one only
/// when the directory has none yet — an existing, matching meta is never
/// rewritten, so a crash here can't tear an already-good file.
pub(crate) fn ensure_meta(
    dir: &Path,
    meta: &StoreMeta,
    policy: FsyncPolicy,
    io: &IoPolicyHandle,
) -> Result<(), PersistError> {
    if dir.join(META_FILE).exists() {
        let found = read_meta(dir)?;
        if found != *meta {
            return Err(PersistError::ConfigMismatch(format!(
                "directory was created as {found:?}, opened as {meta:?}"
            )));
        }
        Ok(())
    } else {
        write_meta(dir, meta, policy, io)
    }
}

/// Reads and verifies `store.meta` from `dir`.
pub(crate) fn read_meta(dir: &Path) -> Result<StoreMeta, PersistError> {
    let file = File::open(dir.join(META_FILE))?;
    let mut r = CrcReader::new(std::io::BufReader::new(file), META_FILE);
    r.expect_header(META_MAGIC, META_VERSION)?;
    let kind = match r.u8("kind")? {
        1 => MetaKind::Engine,
        2 => MetaKind::Sharded,
        other => {
            return Err(PersistError::Corrupt(format!(
                "store.meta: unknown directory kind {other}"
            )))
        }
    };
    let shards = r.u32("shards")?;
    let entry_bytes = r.u64("entry_bytes")?;
    // Stores written while the index could be split carry their split
    // count here; the layout of every other file is the same either way.
    let _index_shards = r.u32("index_shards")?;
    let container_bytes = r.u64("container_bytes")?;
    r.expect_crc()?;
    Ok(StoreMeta {
        kind,
        shards,
        entry_bytes,
        container_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "freqdedup-persist-unit-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn meta_round_trip() {
        let dir = tmp_dir("meta");
        let meta = StoreMeta {
            kind: MetaKind::Sharded,
            shards: 4,
            entry_bytes: 32,
            container_bytes: 4096,
        };
        write_meta(&dir, &meta, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        assert_eq!(read_meta(&dir).unwrap(), meta);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_rejects_corruption() {
        let dir = tmp_dir("meta-corrupt");
        let meta = StoreMeta {
            kind: MetaKind::Engine,
            shards: 1,
            entry_bytes: 32,
            container_bytes: 64,
        };
        write_meta(&dir, &meta, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        let path = dir.join(META_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 5; // inside the payload, before the CRC
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_meta(&dir),
            Err(PersistError::Torn { .. } | PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_display_readable() {
        let e = PersistError::Torn {
            file: "x.clog".into(),
            detail: "file ends inside record".into(),
        };
        assert!(e.to_string().contains("torn"));
        let e = PersistError::ConfigMismatch("entry_bytes 16 vs 32".into());
        assert!(e.to_string().contains("mismatch"));
    }

    #[test]
    fn persist_config_builder() {
        let c = PersistConfig::new("/tmp/x")
            .fsync(FsyncPolicy::Never)
            .snapshot_every_seals(8)
            .epoch_secret(1, b"s1".as_slice());
        assert_eq!(c.fsync, FsyncPolicy::Never);
        assert_eq!(c.snapshot_every_seals, 8);
        assert_eq!(c.dir, PathBuf::from("/tmp/x"));
        assert_eq!(c.keys, vec![(1, b"s1".to_vec())]);
    }
}
