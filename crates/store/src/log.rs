//! The on-disk container log: one append-only file per sealed container.
//!
//! Sealed containers are immutable, so each one is serialized into its own
//! `container-NNNNNNNN.clog` file the moment it is sealed — the file *is*
//! the durable copy of the container, written before the seal is recorded
//! in the [manifest journal](crate::manifest) (write-ahead ordering: the
//! manifest record commits the container).
//!
//! ## Format (all integers little-endian)
//!
//! ```text
//! magic        b"FQCL"                          4 bytes
//! version      u16 (= 2)                        2 bytes
//! flags        u8 (bit 0: payload present)      1 byte
//! reserved     u8 (= 0)                         1 byte
//! container id u32                              4 bytes
//! chunk count  u32                              4 bytes
//! data bytes   u64                              8 bytes
//! key epoch    u64 (0 = payloads unwrapped)     8 bytes
//! kcv          u64 key-check value (0 when no key applies)
//! record*      u32 record length (= 12 + payload length)
//!              u64 fingerprint
//!              u32 chunk size
//!              payload bytes (payload mode only; wrapped when epoch > 0)
//! crc          u32 CRC-32 (IEEE) of everything before it
//! ```
//!
//! At key epoch 0 payloads are stored exactly as uploaded. After a
//! [rekey](crate::lifecycle), payloads are wrapped in place with the
//! epoch's [keystream](crate::lifecycle::apply_epoch_keystream) (the CRC
//! covers the wrapped bytes — integrity is checkable without any key),
//! and the header's *kcv* commits to the epoch key so a reader holding a
//! missing or revoked secret gets a typed
//! [`PersistError::WrongKey`] instead of silently unwrapping garbage.
//! In-memory [`Container`]s always hold **unwrapped** payloads; wrapping
//! exists only at the file boundary.
//!
//! A file that ends mid-record, or whose CRC does not match, is a **torn
//! write** ([`PersistError::Torn`]): the process died while the file was
//! being written. Recovery tolerates this only on the *last* sealed
//! container (see `DESIGN.md` §7); a torn file earlier in the sequence is
//! hard corruption.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use freqdedup_trace::io::{CrcReader, CrcWriter};
use freqdedup_trace::Fingerprint;

use crate::container::{Container, ContainerId};
use crate::fault::{FaultFile, IoPolicyHandle, PersistSite};
use crate::lifecycle::{apply_epoch_keystream, key_check_value};
use crate::persist::{maybe_sync_dir, FsyncPolicy, PersistError};

const LOG_MAGIC: &[u8; 4] = b"FQCL";
const LOG_VERSION: u16 = 2;
const FLAG_PAYLOAD: u8 = 0b0000_0001;
/// Fixed per-record framing ahead of the payload: fingerprint + size.
const RECORD_HEADER: u32 = 12;

/// The log file path of container `id` under `dir`.
#[must_use]
pub fn container_path(dir: &Path, id: ContainerId) -> PathBuf {
    dir.join(format!("container-{:08}.clog", id.0))
}

/// Serializes a sealed container into its log file under `dir`,
/// overwriting any stale file of the same id. With `epoch > 0` and a
/// payload-mode container, `key` must be the epoch key and every chunk
/// payload is wrapped with its keystream on the way out (the in-memory
/// container is not modified).
///
/// # Errors
///
/// Returns [`PersistError::Io`] on write failure (including injected
/// faults — see [`crate::fault`]).
///
/// # Panics
///
/// Panics if `epoch > 0`, the container carries payloads, and no `key`
/// was supplied — the caller's keychain bookkeeping is broken, which is a
/// logic error, not an I/O condition.
pub fn write_container(
    dir: &Path,
    container: &Container,
    epoch: u64,
    key: Option<&[u8; 32]>,
    policy: FsyncPolicy,
    io: &IoPolicyHandle,
) -> Result<(), PersistError> {
    let file = FaultFile::new(
        File::create(container_path(dir, container.id))?,
        io.clone(),
        PersistSite::ContainerWrite,
    );
    let mut w = CrcWriter::new(BufWriter::new(file));
    write_body(&mut w, container, epoch, key)?;
    let mut buf = w.finish()?;
    buf.flush()?;
    buf.get_ref()
        .maybe_sync(policy, PersistSite::ContainerSync)?;
    // The directory entry must be durable too, or a manifest-committed
    // container could vanish in a crash despite its data being fsynced.
    io.check_sync(PersistSite::DirSync)?;
    maybe_sync_dir(dir, policy)?;
    Ok(())
}

/// Serializes `container` under a different file name — the rekey path
/// writes `container-NNNNNNNN.clog.tmp` (fault site
/// [`PersistSite::RekeyWrite`] / [`PersistSite::RekeySync`]) and renames
/// it over the live file only once fully durable.
pub(crate) fn write_container_tmp(
    dir: &Path,
    container: &Container,
    epoch: u64,
    key: Option<&[u8; 32]>,
    policy: FsyncPolicy,
    io: &IoPolicyHandle,
) -> Result<PathBuf, PersistError> {
    let path = container_path(dir, container.id).with_extension("clog.tmp");
    let file = FaultFile::new(File::create(&path)?, io.clone(), PersistSite::RekeyWrite);
    write_rekey_body(file, container, epoch, key, policy)?;
    Ok(path)
}

fn write_rekey_body(
    file: FaultFile,
    container: &Container,
    epoch: u64,
    key: Option<&[u8; 32]>,
    policy: FsyncPolicy,
) -> Result<(), PersistError> {
    let mut w = CrcWriter::new(BufWriter::new(file));
    write_body(&mut w, container, epoch, key)?;
    let mut buf = w.finish()?;
    buf.flush()?;
    buf.get_ref().maybe_sync(policy, PersistSite::RekeySync)?;
    Ok(())
}

fn write_body(
    w: &mut CrcWriter<BufWriter<FaultFile>>,
    container: &Container,
    epoch: u64,
    key: Option<&[u8; 32]>,
) -> Result<(), PersistError> {
    let wrap = epoch > 0 && container.has_payload();
    let key = if wrap {
        Some(key.expect("payload container written at epoch > 0 without its epoch key"))
    } else {
        None
    };
    let kcv = key.map_or(0, key_check_value);
    let flags = if container.has_payload() {
        FLAG_PAYLOAD
    } else {
        0
    };
    w.header(LOG_MAGIC, LOG_VERSION)?;
    w.u8(flags)?;
    w.u8(0)?;
    w.u32(container.id.0)?;
    w.u32(container.len() as u32)?;
    w.u64(container.data_bytes)?;
    w.u64(epoch)?;
    w.u64(kcv)?;
    let mut scratch = Vec::new();
    for (i, (&fp, &size)) in container
        .fingerprints
        .iter()
        .zip(container.chunk_sizes())
        .enumerate()
    {
        let payload = container.chunk_payload(i);
        let payload_len = payload.map_or(0, <[u8]>::len) as u32;
        w.u32(RECORD_HEADER + payload_len)?;
        w.u64(fp.value())?;
        w.u32(size)?;
        match (payload, key) {
            (Some(bytes), Some(k)) => {
                scratch.clear();
                scratch.extend_from_slice(bytes);
                apply_epoch_keystream(k, fp, &mut scratch);
                w.bytes(&scratch)?;
            }
            (Some(bytes), None) => w.bytes(bytes)?,
            (None, _) => {}
        }
    }
    Ok(())
}

/// Reads and verifies the log file of container `id` under `dir`,
/// rebuilding the in-memory [`Container`] (payloads unwrapped). `keys`
/// maps key epochs to their derived keys; it is consulted only when the
/// file's header names an epoch above 0 and the container carries
/// payloads.
///
/// # Errors
///
/// * [`PersistError::Torn`] — the file ends mid-record or fails its CRC
///   (recovery treats this as a torn tail write when `id` is the last
///   sealed container);
/// * [`PersistError::WrongKey`] — the payloads are wrapped under an epoch
///   whose key is absent from `keys` or fails the header's key-check
///   value (a revoked or mistyped secret);
/// * [`PersistError::Io`] — the file is missing or unreadable;
/// * [`PersistError::BadMagic`] / [`PersistError::BadVersion`] /
///   [`PersistError::Corrupt`] — the file is not a container log or its
///   structure is inconsistent with its header.
pub fn read_container(
    dir: &Path,
    id: ContainerId,
    keys: &HashMap<u64, [u8; 32]>,
) -> Result<Container, PersistError> {
    let path = container_path(dir, id);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut r = CrcReader::new(BufReader::new(File::open(&path)?), &name);
    r.expect_header(LOG_MAGIC, LOG_VERSION)?;
    let has_payload = r.u8("flags")? & FLAG_PAYLOAD != 0;
    let _reserved = r.u8("reserved")?;
    let file_id = r.u32("container id")?;
    if file_id != id.0 {
        return Err(PersistError::Corrupt(format!(
            "{name}: header claims container id {file_id}"
        )));
    }
    let count = r.u32("chunk count")?;
    let data_bytes = r.u64("data bytes")?;
    let epoch = r.u64("key epoch")?;
    let kcv = r.u64("key check value")?;
    let key = if epoch > 0 && has_payload {
        // Refuse old or wrong keys *before* touching any payload bytes.
        let key = keys.get(&epoch).ok_or(PersistError::WrongKey { epoch })?;
        if key_check_value(key) != kcv {
            return Err(PersistError::WrongKey { epoch });
        }
        Some(*key)
    } else {
        None
    };
    let mut payload = has_payload.then(Vec::new);
    let records = r.seq(u64::from(count), |r| -> Result<_, PersistError> {
        let rec_len = r.u32("record length")?;
        if rec_len < RECORD_HEADER {
            return Err(PersistError::Corrupt(format!(
                "{name}: record length {rec_len} shorter than framing"
            )));
        }
        let payload_len = rec_len - RECORD_HEADER;
        let fp = Fingerprint(r.u64("record fingerprint")?);
        let size = r.u32("record size")?;
        match &mut payload {
            Some(_) if payload_len != size => Err(PersistError::Corrupt(format!(
                "{name}: payload length {payload_len} disagrees with chunk size {size}"
            ))),
            Some(buf) => {
                let start = buf.len();
                r.bytes_into(buf, u64::from(payload_len), "record payload")?;
                if let Some(k) = &key {
                    apply_epoch_keystream(k, fp, &mut buf[start..]);
                }
                Ok((fp, size))
            }
            None if payload_len != 0 => Err(PersistError::Corrupt(format!(
                "{name}: metadata-only container carries {payload_len} payload bytes"
            ))),
            None => Ok((fp, size)),
        }
    })?;
    r.expect_crc()?;
    let (fingerprints, sizes): (Vec<Fingerprint>, Vec<u32>) = records.into_iter().unzip();
    let total: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
    if total != data_bytes {
        return Err(PersistError::Corrupt(format!(
            "{name}: header claims {data_bytes} data bytes, records sum to {total}"
        )));
    }
    Ok(Container::from_restored(id, fingerprints, sizes, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerStore;
    use crate::lifecycle::epoch_key;
    use freqdedup_trace::ChunkRecord;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("freqdedup-clog-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_keys() -> HashMap<u64, [u8; 32]> {
        HashMap::new()
    }

    fn sealed_payload_container() -> Container {
        let mut store = ContainerStore::new(64);
        store
            .append(ChunkRecord::new(11u64, 5), Some(b"hello"))
            .unwrap();
        store
            .append(ChunkRecord::new(22u64, 6), Some(b"world!"))
            .unwrap();
        let id = store.flush().unwrap();
        store.get(id).unwrap().clone()
    }

    fn sealed_metadata_container() -> Container {
        let mut store = ContainerStore::new(64);
        for i in 0..4u64 {
            store.append(ChunkRecord::new(i, 16), None).unwrap();
        }
        let id = store.flush().unwrap();
        store.get(id).unwrap().clone()
    }

    #[test]
    fn payload_container_round_trips() {
        let dir = tmp_dir("payload-rt");
        let c = sealed_payload_container();
        write_container(
            &dir,
            &c,
            0,
            None,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        let back = read_container(&dir, c.id, &no_keys()).unwrap();
        assert_eq!(back.fingerprints, c.fingerprints);
        assert_eq!(back.chunk_sizes(), c.chunk_sizes());
        assert_eq!(back.data_bytes, c.data_bytes);
        assert_eq!(back.chunk_payload(0), Some(&b"hello"[..]));
        assert_eq!(back.chunk_payload(1), Some(&b"world!"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metadata_container_round_trips() {
        let dir = tmp_dir("meta-rt");
        let c = sealed_metadata_container();
        write_container(
            &dir,
            &c,
            0,
            None,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        let back = read_container(&dir, c.id, &no_keys()).unwrap();
        assert_eq!(back.fingerprints, c.fingerprints);
        assert_eq!(back.chunk_sizes(), c.chunk_sizes());
        assert!(!back.has_payload());
        assert_eq!(back.chunk_payload(0), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rekeyed_container_wraps_on_disk_and_unwraps_in_memory() {
        let dir = tmp_dir("rekey-rt");
        let c = sealed_payload_container();
        let key = epoch_key(b"epoch-secret", 3);
        write_container(
            &dir,
            &c,
            3,
            Some(&key),
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        // The raw file must not contain the plaintext payloads.
        let raw = std::fs::read(container_path(&dir, c.id)).unwrap();
        assert!(!raw.windows(5).any(|w| w == b"hello"));
        let mut keys = no_keys();
        keys.insert(3, key);
        let back = read_container(&dir, c.id, &keys).unwrap();
        assert_eq!(back.chunk_payload(0), Some(&b"hello"[..]));
        assert_eq!(back.chunk_payload(1), Some(&b"world!"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_wrong_epoch_key_is_refused() {
        let dir = tmp_dir("rekey-refuse");
        let c = sealed_payload_container();
        let key = epoch_key(b"right-secret", 2);
        write_container(
            &dir,
            &c,
            2,
            Some(&key),
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        assert!(
            matches!(
                read_container(&dir, c.id, &no_keys()),
                Err(PersistError::WrongKey { epoch: 2 })
            ),
            "no key supplied"
        );
        let mut wrong = no_keys();
        wrong.insert(2, epoch_key(b"old-revoked-secret", 2));
        assert!(
            matches!(
                read_container(&dir, c.id, &wrong),
                Err(PersistError::WrongKey { epoch: 2 })
            ),
            "wrong secret refused via key-check value"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metadata_container_at_nonzero_epoch_needs_no_key() {
        let dir = tmp_dir("rekey-meta");
        let c = sealed_metadata_container();
        write_container(
            &dir,
            &c,
            4,
            None,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        let back = read_container(&dir, c.id, &no_keys()).unwrap();
        assert_eq!(back.fingerprints, c.fingerprints);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_reports_torn() {
        let dir = tmp_dir("torn");
        let c = sealed_payload_container();
        write_container(
            &dir,
            &c,
            0,
            None,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        let path = container_path(&dir, c.id);
        let full = std::fs::read(&path).unwrap();
        // Chop the file off mid-record (and mid-CRC, and mid-header):
        // every truncation point must surface as Torn, never as Ok.
        for cut in [full.len() - 1, full.len() - 3, full.len() / 2, 9, 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            match read_container(&dir, c.id, &no_keys()) {
                Err(PersistError::Torn { .. }) => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_chunk_count_fails_typed_without_driving_an_allocation() {
        let dir = tmp_dir("forged-count");
        let c = sealed_metadata_container();
        write_container(
            &dir,
            &c,
            0,
            None,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        let path = container_path(&dir, c.id);
        let mut bytes = std::fs::read(&path).unwrap();
        // magic 4 + version 2 + flags 1 + reserved 1 + id 4, then the count:
        // at 57bf155 this reserved 32 GiB before reading a record.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_container(&dir, c.id, &no_keys()),
            Err(PersistError::Torn { .. } | PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_reports_torn_checksum() {
        let dir = tmp_dir("bitflip");
        let c = sealed_metadata_container();
        write_container(
            &dir,
            &c,
            0,
            None,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        let path = container_path(&dir, c.id);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 6; // inside the last record
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_container(&dir, c.id, &no_keys()),
            Err(PersistError::Torn { .. } | PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_id_reports_corrupt() {
        let dir = tmp_dir("wrong-id");
        let c = sealed_metadata_container();
        write_container(
            &dir,
            &c,
            0,
            None,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        // Ask for id 0's file under id 5's name.
        std::fs::rename(
            container_path(&dir, c.id),
            container_path(&dir, ContainerId(5)),
        )
        .unwrap();
        assert!(matches!(
            read_container(&dir, ContainerId(5), &no_keys()),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reports_io() {
        let dir = tmp_dir("missing");
        assert!(matches!(
            read_container(&dir, ContainerId(0), &no_keys()),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn not_a_container_log_reports_bad_magic() {
        let dir = tmp_dir("magic");
        std::fs::write(
            container_path(&dir, ContainerId(0)),
            b"NOPE----------------",
        )
        .unwrap();
        assert!(matches!(
            read_container(&dir, ContainerId(0), &no_keys()),
            Err(PersistError::BadMagic { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The log files the byte-wise CRC and AES wrote for this container
    /// (generated at commit 06fbb93), unwrapped and wrapped under a rekey
    /// key: a kernel change that alters a stored byte fails here, not at a
    /// reopen.
    #[test]
    fn container_log_bytes_are_pinned() {
        let dir = tmp_dir("pin");
        let a: Vec<u8> = (0..40u8).collect();
        let b: Vec<u8> = (0..70u8)
            .map(|i| i.wrapping_mul(7).wrapping_add(3))
            .collect();
        let mut store = ContainerStore::new(256);
        store.append(ChunkRecord::new(11u64, 40), Some(&a)).unwrap();
        store.append(ChunkRecord::new(22u64, 70), Some(&b)).unwrap();
        let id = store.flush().unwrap();
        let c = store.get(id).unwrap().clone();
        let key = epoch_key(b"pin-secret", 1);
        let pins = [
            (
                0,
                None,
                concat!(
                    "4651434c0200010000000000020000006e000000000000000000000000000000",
                    "0000000000000000340000000b00000000000000280000000001020304050607",
                    "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324252627",
                    "52000000160000000000000046000000030a11181f262d343b424950575e656c",
                    "737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c",
                    "535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6e279a912",
                ),
            ),
            (
                1,
                Some(&key),
                concat!(
                    "4651434c0200010000000000020000006e000000000000000100000000000000",
                    "ae20e6de31e0c5a1340000000b0000000000000028000000e5437ab76f247b11",
                    "1a0911f4bc694193efedcfe7f30c9063fbb32a3a48fe25a481edd2e1e53dfa95",
                    "520000001600000000000000460000008586623dc0383dcf32a705e554d9e004",
                    "01713dba332f879ed811063f26b497ebc6c5fe12d21da0467fb8169c7df74abb",
                    "5ebb8cc4331d34d56c277e246aafe28de25619db792f2a0975e1",
                ),
            ),
        ];
        for (epoch, key, pinned) in pins {
            write_container(
                &dir,
                &c,
                epoch,
                key,
                FsyncPolicy::Never,
                &IoPolicyHandle::none(),
            )
            .unwrap();
            let raw = std::fs::read(container_path(&dir, c.id)).unwrap();
            let hex: String = raw.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned, "epoch {epoch}");
            let keys = key.map(|k| (epoch, *k)).into_iter().collect();
            let back = read_container(&dir, c.id, &keys).unwrap();
            assert_eq!(back.chunk_payload(0), Some(&a[..]), "epoch {epoch}");
            assert_eq!(back.chunk_payload(1), Some(&b[..]), "epoch {epoch}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One record claiming a `u32::MAX`-byte payload in a file of under
    /// 200 bytes: the reader runs off the end of the input (torn) without
    /// sizing a 4 GiB buffer from the unverified length.
    #[test]
    fn forged_payload_length_is_torn_without_a_4_gib_buffer() {
        let dir = tmp_dir("forged-payload");
        let mut store = ContainerStore::new(64);
        store
            .append(ChunkRecord::new(11u64, 5), Some(b"hello"))
            .unwrap();
        let id = store.flush().unwrap();
        let c = store.get(id).unwrap();
        write_container(
            &dir,
            c,
            0,
            None,
            FsyncPolicy::Never,
            &IoPolicyHandle::none(),
        )
        .unwrap();
        let path = container_path(&dir, id);
        let mut raw = std::fs::read(&path).unwrap();
        assert!(raw.len() < 200);
        // Header is 40 bytes; the record is length u32, fingerprint u64,
        // size u32, payload.
        raw[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        raw[52..56].copy_from_slice(&(u32::MAX - RECORD_HEADER).to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            read_container(&dir, id, &no_keys()),
            Err(PersistError::Torn { .. } | PersistError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
