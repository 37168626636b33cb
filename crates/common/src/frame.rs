//! Crash-safe artifact files: atomic writes and checksummed frames.
//!
//! Two guarantees every long-running sweep leans on:
//!
//! 1. **Atomicity** — [`atomic_write`] is the single write-temp → fsync →
//!    rename helper in the workspace. A reader (or a resumed run) either
//!    sees the previous complete file or the new complete file, never a
//!    torn prefix, even across a `SIGKILL` or power loss mid-write.
//! 2. **Integrity** — [`write_frame_atomic`] / [`read_frame`] wrap a
//!    payload in a versioned, CRC32-checksummed frame. Any single-byte
//!    corruption of a frame file — header, length, checksum or payload —
//!    is rejected on load with [`QntnError::CorruptFrame`]; a
//!    checkpoint is never half-trusted.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"QNTNFRM\x01"
//!      8     4  version (caller-defined schema version)
//!     12     8  payload length in bytes
//!     20     4  CRC32 (IEEE) of the payload
//!     24     n  payload
//! ```

use crate::QntnError;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic prefix of every frame file.
pub const FRAME_MAGIC: [u8; 8] = *b"QNTNFRM\x01";

const HEADER_LEN: usize = 24;

/// CRC32 lookup table (IEEE 802.3 reflected polynomial), built at compile
/// time so the checksum has no runtime setup.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// FNV-1a over `bytes` — the workspace's cheap stable fingerprint hash
/// (checkpoints use it to bind a frame to the run parameters that
/// produced it).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold a sequence of `u64` words into one FNV-1a fingerprint — the
/// canonical way runs derive their checkpoint-binding fingerprint from
/// their parameters (sizes, seeds, float bit patterns).
pub fn fingerprint(words: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Write `bytes` to `path` atomically: write a sibling temp file, fsync
/// it, rename it over `path`, and fsync the directory (on Unix) so the
/// rename itself is durable. Concurrent writers are safe against each
/// other (distinct temp names); readers never observe a partial file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), QntnError> {
    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| QntnError::Io {
            op: "write",
            path: path.display().to_string(),
            message: "path has no file name".into(),
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));

    let result = (|| {
        // qntn-lint: allow(atomic-writes-only) -- this IS atomic_write: the one canonical temp-file creation
        let mut f = fs::File::create(&tmp).map_err(|e| QntnError::io("create", &tmp, &e))?;
        f.write_all(bytes)
            .map_err(|e| QntnError::io("write", &tmp, &e))?;
        f.sync_all().map_err(|e| QntnError::io("fsync", &tmp, &e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| QntnError::io("rename", path, &e))?;
        #[cfg(unix)]
        {
            // Make the rename durable: fsync the containing directory.
            if let Ok(d) = fs::File::open(&dir) {
                #[allow(
                    clippy::let_underscore_must_use,
                    reason = "directory fsync is best-effort durability hardening; the data fsync above already errored loudly"
                )]
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup; the error from the write path is what matters.
        #[allow(
            clippy::let_underscore_must_use,
            reason = "temp-file cleanup on the error path must not mask the original write error"
        )]
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Frame `payload` under `version` and write it atomically to `path`.
pub fn write_frame_atomic(path: &Path, version: u32, payload: &[u8]) -> Result<(), QntnError> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&version.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    atomic_write(path, &frame)
}

fn corrupt(path: &Path, detail: impl std::fmt::Display) -> QntnError {
    QntnError::CorruptFrame {
        path: path.display().to_string(),
        detail: detail.to_string(),
    }
}

/// Validate the frame in `bytes` (as read from `path`, used only for error
/// context) and return its payload.
pub fn decode_frame(
    path: &Path,
    bytes: &[u8],
    expected_version: u32,
) -> Result<Vec<u8>, QntnError> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(
            path,
            format!(
                "{} bytes is shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            ),
        ));
    }
    if bytes[..8] != FRAME_MAGIC {
        return Err(corrupt(path, "bad magic"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != expected_version {
        return Err(corrupt(
            path,
            format!("version {version}, expected {expected_version}"),
        ));
    }
    let len = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let payload = &bytes[HEADER_LEN..];
    if len != payload.len() as u64 {
        return Err(corrupt(
            path,
            format!(
                "payload length {} does not match header {len}",
                payload.len()
            ),
        ));
    }
    let stored_crc = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(corrupt(
            path,
            format!("CRC32 mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"),
        ));
    }
    Ok(payload.to_vec())
}

/// Read and validate the frame at `path`, returning its payload.
pub fn read_frame(path: &Path, expected_version: u32) -> Result<Vec<u8>, QntnError> {
    let bytes = fs::read(path).map_err(|e| QntnError::io("read", path, &e))?;
    decode_frame(path, &bytes, expected_version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "qntn_frame_test_{}_{}_{tag}.bin",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        let path = temp_path("roundtrip");
        let payload = b"hello checkpoint".to_vec();
        write_frame_atomic(&path, 3, &payload).unwrap();
        assert_eq!(read_frame(&path, 3).unwrap(), payload);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let path = temp_path("flip");
        write_frame_atomic(&path, 1, b"payload bytes under test").unwrap();
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            let result = decode_frame(&path, &bad, 1);
            assert!(
                matches!(result, Err(QntnError::CorruptFrame { .. })),
                "flip at byte {i} was accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let path = temp_path("trunc");
        write_frame_atomic(&path, 1, b"0123456789").unwrap();
        let good = std::fs::read(&path).unwrap();
        for cut in 0..good.len() {
            assert!(
                matches!(
                    decode_frame(&path, &good[..cut], 1),
                    Err(QntnError::CorruptFrame { .. })
                ),
                "truncation to {cut} bytes was accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let path = temp_path("version");
        write_frame_atomic(&path, 7, b"x").unwrap();
        assert!(matches!(
            read_frame(&path, 8),
            Err(QntnError::CorruptFrame { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let path = temp_path("atomic");
        atomic_write(&path, b"first contents").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reports_io_not_corruption() {
        let path = temp_path("missing");
        assert!(matches!(read_frame(&path, 1), Err(QntnError::Io { .. })));
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[3, 2, 1]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
    }
}
