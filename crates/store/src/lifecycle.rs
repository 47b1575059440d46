//! Storage lifecycle: backup recipes, retention, GC reports and rekey
//! epochs.
//!
//! A *backup* becomes a first-class store object here: committing one
//! writes a **recipe** — the ordered `(fingerprint, size)` stream of the
//! backup — to its own `recipe-*.rcp` file, then commits it through the
//! write-ahead manifest journal (recipe file durable *before* its
//! `Backup` record, mirroring the container/seal ordering). Deleting a
//! backup journals a `BackupDelete` record, releases the recipe's
//! [reference counts](crate::refcount) and removes the file; the chunks
//! themselves stay stored until a GC pass drops their containers.
//!
//! Rekeying is keyed by **epoch**: epoch 0 is the identity (payloads
//! stored as uploaded), and each `rekey` call re-wraps every live
//! container payload under a keystream derived from the new epoch secret,
//! bumping the store epoch once all containers are rewritten. The epoch
//! secrets are never persisted — an epoch-`e` store can only be opened by
//! a caller supplying the epoch-`e` secret, which is exactly the REED
//! revocation property: after the epoch commits, the old key no longer
//! reads anything.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use freqdedup_crypto::ctr::Aes256Ctr;
use freqdedup_crypto::{hmac, kdf};
use freqdedup_trace::io::{CrcReader, CrcWriter};
use freqdedup_trace::{ChunkRecord, Fingerprint};

use crate::fault::{FaultFile, IoPolicyHandle, PersistSite};
use crate::persist::{maybe_sync_dir, FsyncPolicy, PersistError};

const RECIPE_MAGIC: &[u8; 4] = b"FQRC";
const RECIPE_VERSION: u16 = 1;

/// Which committed backups a retention pass should delete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Keep the `N` most recently committed backups (by timestamp, ties
    /// broken toward the higher backup id), delete the rest.
    KeepLastN(usize),
    /// Delete backups older than `max_age` time units relative to the
    /// caller-supplied `now` (the store never reads a clock — callers pass
    /// logical or wall time consistently).
    MaxAge(u64),
}

impl RetentionPolicy {
    /// The backup ids the policy would delete, given `(id, timestamp)`
    /// pairs of the committed backups and the caller's `now`. The result
    /// is sorted by id for deterministic deletion order.
    #[must_use]
    pub fn victims(&self, backups: &[(u64, u64)], now: u64) -> Vec<u64> {
        let mut victims: Vec<u64> = match *self {
            RetentionPolicy::KeepLastN(n) => {
                let mut by_recency: Vec<(u64, u64)> = backups.to_vec();
                // Most recent first: timestamp desc, id desc as tiebreak.
                by_recency.sort_unstable_by_key(|&(id, ts)| std::cmp::Reverse((ts, id)));
                by_recency.iter().skip(n).map(|&(id, _)| id).collect()
            }
            RetentionPolicy::MaxAge(max_age) => backups
                .iter()
                .filter(|&&(_, ts)| now.saturating_sub(ts) > max_age)
                .map(|&(id, _)| id)
                .collect(),
        };
        victims.sort_unstable();
        victims
    }
}

/// The ordered chunk stream of one committed backup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recipe {
    /// Caller-supplied commit timestamp (logical or wall time).
    pub timestamp: u64,
    /// The backup's logical chunk stream, duplicates included.
    pub chunks: Vec<ChunkRecord>,
}

impl Recipe {
    /// Number of logical chunks in the backup.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the backup holds no chunks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Logical bytes of the backup (duplicates included).
    #[must_use]
    pub fn logical_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.size)).sum()
    }
}

/// A lifecycle operation failed.
#[derive(Debug)]
pub enum LifecycleError {
    /// `delete_backup` named an id that is not committed (or was already
    /// deleted).
    UnknownBackup {
        /// The offending backup id.
        id: u64,
    },
    /// `commit_backup` reused the id of a still-committed backup.
    DuplicateBackup {
        /// The offending backup id.
        id: u64,
    },
    /// The underlying persistence operation failed.
    Persist(PersistError),
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleError::UnknownBackup { id } => {
                write!(f, "backup {id} is not committed in this store")
            }
            LifecycleError::DuplicateBackup { id } => {
                write!(f, "backup {id} is already committed")
            }
            LifecycleError::Persist(e) => write!(f, "lifecycle persistence failure: {e}"),
        }
    }
}

impl std::error::Error for LifecycleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LifecycleError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for LifecycleError {
    fn from(e: PersistError) -> Self {
        LifecycleError::Persist(e)
    }
}

/// What a `delete_backup` call released (logically — nothing is physically
/// reclaimed until GC).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeleteReport {
    /// Logical chunks released.
    pub chunks_released: u64,
    /// Logical bytes released.
    pub logical_bytes: u64,
}

/// What one `gc` pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Sealed containers examined.
    pub containers_scanned: u64,
    /// Containers dropped (victims below the live threshold).
    pub containers_dropped: u64,
    /// Live chunks rewritten out of victims into fresh containers.
    pub moved_chunks: u64,
    /// Bytes of live chunks rewritten.
    pub moved_bytes: u64,
    /// Dead chunk copies dropped with their victims.
    pub dead_chunks: u64,
    /// Bytes physically reclaimed (the dead chunks' bytes).
    pub reclaimed_bytes: u64,
}

impl std::ops::AddAssign for GcReport {
    fn add_assign(&mut self, o: GcReport) {
        self.containers_scanned += o.containers_scanned;
        self.containers_dropped += o.containers_dropped;
        self.moved_chunks += o.moved_chunks;
        self.moved_bytes += o.moved_bytes;
        self.dead_chunks += o.dead_chunks;
        self.reclaimed_bytes += o.reclaimed_bytes;
    }
}

/// What one `rekey` call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RekeyReport {
    /// The committed key epoch after the call.
    pub epoch: u64,
    /// Live containers rewritten under the new epoch key.
    pub containers_rewritten: u64,
}

// ---------------------------------------------------------------------------
// Recipe files.
// ---------------------------------------------------------------------------

/// The recipe file path of backup `id` under `dir`.
#[must_use]
pub fn recipe_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("recipe-{id:016x}.rcp"))
}

/// Serializes a backup recipe to its file under `dir` (magic + version,
/// backup id, timestamp, chunk count, `(fingerprint, size)` records, CRC),
/// durable before the manifest's `Backup` record commits it.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure (including injected
/// faults at [`PersistSite::RecipeWrite`] / [`PersistSite::RecipeSync`]).
pub fn write_recipe(
    dir: &Path,
    id: u64,
    recipe: &Recipe,
    policy: FsyncPolicy,
    io: &IoPolicyHandle,
) -> Result<(), PersistError> {
    let file = FaultFile::new(
        File::create(recipe_path(dir, id))?,
        io.clone(),
        PersistSite::RecipeWrite,
    );
    let mut w = CrcWriter::new(BufWriter::new(file));
    w.header(RECIPE_MAGIC, RECIPE_VERSION)?;
    w.u64(id)?;
    w.u64(recipe.timestamp)?;
    w.u32(recipe.chunks.len() as u32)?;
    for c in &recipe.chunks {
        w.u64(c.fp.value())?;
        w.u32(c.size)?;
    }
    let mut buf = w.finish()?;
    buf.flush()?;
    buf.get_ref().maybe_sync(policy, PersistSite::RecipeSync)?;
    io.check_sync(PersistSite::DirSync)?;
    maybe_sync_dir(dir, policy)?;
    Ok(())
}

/// Reads and verifies the recipe file of backup `id` under `dir`.
///
/// # Errors
///
/// * [`PersistError::Torn`] — the file ends mid-record or fails its CRC;
/// * [`PersistError::Io`] — the file is missing or unreadable;
/// * [`PersistError::BadMagic`] / [`PersistError::BadVersion`] /
///   [`PersistError::Corrupt`] — not a recipe file, or its header names a
///   different backup.
pub fn read_recipe(dir: &Path, id: u64) -> Result<Recipe, PersistError> {
    let file = File::open(recipe_path(dir, id))?;
    let mut r = CrcReader::new(BufReader::new(file), "recipe file");
    r.expect_header(RECIPE_MAGIC, RECIPE_VERSION)?;
    let file_id = r.u64("backup id")?;
    if file_id != id {
        return Err(PersistError::Corrupt(format!(
            "recipe file for backup {id} claims backup id {file_id}"
        )));
    }
    let timestamp = r.u64("timestamp")?;
    let count = r.u32("chunk count")?;
    let chunks = r.seq(u64::from(count), |r| {
        let fp = Fingerprint(r.u64("record fingerprint")?);
        Ok::<_, PersistError>(ChunkRecord {
            fp,
            size: r.u32("record size")?,
        })
    })?;
    r.expect_crc()?;
    Ok(Recipe { timestamp, chunks })
}

/// Removes the recipe file of backup `id`, tolerating its absence (the
/// delete already committed in the journal; the file removal is cleanup).
pub(crate) fn remove_recipe(dir: &Path, id: u64) {
    let _ = std::fs::remove_file(recipe_path(dir, id));
}

/// The backup ids of every `recipe-*.rcp` file under `dir` (recovery's
/// stale-file sweep).
pub(crate) fn scan_recipe_ids(dir: &Path) -> Result<Vec<u64>, PersistError> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name
            .strip_prefix("recipe-")
            .and_then(|s| s.strip_suffix(".rcp"))
        {
            if let Ok(id) = u64::from_str_radix(hex, 16) {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

// ---------------------------------------------------------------------------
// Epoch keys.
// ---------------------------------------------------------------------------

/// Derives the 256-bit payload-wrapping key of `epoch` from its secret.
#[must_use]
pub fn epoch_key(secret: &[u8], epoch: u64) -> [u8; 32] {
    kdf::derive_key(b"freqdedup-store-epoch", secret, &epoch.to_le_bytes())
}

/// The key-check value stored in epoch-`e` container headers: lets
/// recovery refuse a wrong (e.g. revoked) epoch secret with a typed error
/// instead of silently unwrapping garbage.
#[must_use]
pub fn key_check_value(key: &[u8; 32]) -> u64 {
    hmac::hmac_u64(key, b"freqdedup-epoch-kcv")
}

/// XORs the epoch keystream for chunk `fp` into `buf` in place (AES-256
/// CTR keyed by the epoch key, IV bound to the fingerprint). Applying it
/// twice is the identity, so the same routine wraps and unwraps.
pub fn apply_epoch_keystream(key: &[u8; 32], fp: Fingerprint, buf: &mut [u8]) {
    let mut iv = [0u8; 16];
    iv[..8].copy_from_slice(&fp.to_bytes());
    Aes256Ctr::new(key, &iv).apply_keystream(buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("freqdedup-rcp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn recipe(ts: u64, fps: &[u64]) -> Recipe {
        Recipe {
            timestamp: ts,
            chunks: fps.iter().map(|&v| ChunkRecord::new(v, 16)).collect(),
        }
    }

    #[test]
    fn recipe_round_trips() {
        let dir = tmp_dir("rt");
        let r = recipe(42, &[1, 2, 2, 3]);
        write_recipe(&dir, 7, &r, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        let back = read_recipe(&dir, 7).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.logical_bytes(), 64);
        assert_eq!(scan_recipe_ids(&dir).unwrap(), vec![7]);
        remove_recipe(&dir, 7);
        assert!(matches!(read_recipe(&dir, 7), Err(PersistError::Io(_))));
        remove_recipe(&dir, 7); // tolerated
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_recipe_reports_torn() {
        let dir = tmp_dir("torn");
        let r = recipe(1, &[10, 20, 30]);
        write_recipe(&dir, 3, &r, FsyncPolicy::Never, &IoPolicyHandle::none()).unwrap();
        let path = recipe_path(&dir, 3);
        let full = std::fs::read(&path).unwrap();
        for cut in [full.len() - 1, full.len() - 5, full.len() / 2, 3] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(read_recipe(&dir, 3), Err(PersistError::Torn { .. })),
                "cut at {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recipe_id_mismatch_reports_corrupt() {
        let dir = tmp_dir("wrong-id");
        write_recipe(
            &dir,
            1,
            &recipe(0, &[5]),
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        std::fs::rename(recipe_path(&dir, 1), recipe_path(&dir, 2)).unwrap();
        assert!(matches!(
            read_recipe(&dir, 2),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keep_last_n_by_recency() {
        let backups = [(1, 100), (2, 300), (3, 200), (4, 300)];
        let p = RetentionPolicy::KeepLastN(2);
        // Most recent two are ids 4 and 2 (ts 300, id desc tiebreak).
        assert_eq!(p.victims(&backups, 999), vec![1, 3]);
        assert_eq!(
            RetentionPolicy::KeepLastN(0).victims(&backups, 0),
            vec![1, 2, 3, 4]
        );
        assert!(RetentionPolicy::KeepLastN(10)
            .victims(&backups, 0)
            .is_empty());
    }

    #[test]
    fn max_age_by_caller_clock() {
        let backups = [(1, 100), (2, 300), (3, 200)];
        let p = RetentionPolicy::MaxAge(150);
        assert_eq!(p.victims(&backups, 350), vec![1]);
        assert_eq!(p.victims(&backups, 420), vec![1, 3]);
        assert_eq!(p.victims(&backups, 500), vec![1, 2, 3]);
        assert!(p.victims(&backups, 100).is_empty(), "nothing old yet");
    }

    #[test]
    fn keystream_is_an_involution_and_epoch_separated() {
        let k1 = epoch_key(b"secret-one", 1);
        let k2 = epoch_key(b"secret-one", 2);
        let fp = Fingerprint(0xDEAD_BEEF);
        let plain = b"payload bytes of some chunk".to_vec();
        let mut buf = plain.clone();
        apply_epoch_keystream(&k1, fp, &mut buf);
        assert_ne!(buf, plain);
        let wrapped_e1 = buf.clone();
        apply_epoch_keystream(&k1, fp, &mut buf);
        assert_eq!(buf, plain, "wrap twice = identity");
        apply_epoch_keystream(&k2, fp, &mut buf);
        assert_ne!(buf, wrapped_e1, "epochs use distinct keystreams");
        apply_epoch_keystream(&k2, fp, &mut buf);
        // Different fingerprints get different streams under one key.
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        apply_epoch_keystream(&k1, Fingerprint(1), &mut a);
        apply_epoch_keystream(&k1, Fingerprint(2), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn key_check_value_detects_wrong_secret() {
        let right = epoch_key(b"new-secret", 3);
        let wrong = epoch_key(b"old-secret", 3);
        assert_ne!(key_check_value(&right), key_check_value(&wrong));
        assert_eq!(
            key_check_value(&right),
            key_check_value(&epoch_key(b"new-secret", 3))
        );
    }
}
