//! Content-addressed on-disk persistence for the daemon's memo tables.
//!
//! Each cached value is one file, `<root>/<kind>/<digest as %016x>.bin`,
//! wrapped in a small envelope: magic `ECLC`, version, the digest it is
//! filed under (so a renamed file cannot impersonate another key) and an
//! FNV-1a checksum over the payload. Writes go through a temp file and
//! an atomic rename, so a crash mid-write leaves either the old value or
//! nothing — never a torn file. Loads treat *any* defect (missing,
//! truncated, bad magic, checksum mismatch, digest mismatch) as a cache
//! miss and count it, because a persistent cache must never turn
//! corruption into a wrong answer when recomputing is always possible.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ecl_aaa::{DigestMemo, Fnv1a};
use ecl_telemetry::bytes::{ByteReader, ByteWriter, CodecError};

/// Envelope magic of one cache file.
const MAGIC: &[u8] = b"ECLC";
/// Envelope version.
const VERSION: u8 = 1;

/// A directory of content-addressed cache kinds.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    corrupt: AtomicU64,
}

/// FNV-1a digest of a payload, the envelope's integrity check.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(payload);
    h.finish()
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            corrupt: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Defective files seen by [`load`](DiskStore::load)/
    /// [`load_all`](DiskStore::load_all) since open.
    pub fn corrupt_seen(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn file_path(&self, kind: &str, digest: u64) -> PathBuf {
        self.root.join(kind).join(format!("{digest:016x}.bin"))
    }

    /// Persists `payload` under `(kind, digest)` atomically
    /// (temp file + rename). Overwrites any previous value.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, kind: &str, digest: u64, payload: &[u8]) -> std::io::Result<()> {
        let path = self.file_path(kind, digest);
        let dir = path.parent().expect("cache file has a kind directory");
        std::fs::create_dir_all(dir)?;
        let mut w = ByteWriter::with_capacity(payload.len() + 32);
        w.put_raw(MAGIC);
        w.put_u8(VERSION);
        w.put_u64(digest);
        w.put_seq_len(payload.len());
        w.put_raw(payload);
        w.put_u64(checksum(payload));
        // The temp name embeds the digest, so concurrent saves of
        // *different* keys never collide; same-key racers write
        // identical bytes and the last rename wins harmlessly.
        let tmp = dir.join(format!(".{digest:016x}.tmp"));
        std::fs::write(&tmp, w.as_bytes())?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Decodes one envelope, checking magic, version, digest and checksum.
    fn decode(expected_digest: u64, bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_magic(MAGIC)?;
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(CodecError::Invalid {
                reason: format!("cache envelope version {version}"),
            });
        }
        let digest = r.get_u64()?;
        if digest != expected_digest {
            return Err(CodecError::Invalid {
                reason: format!("cache file digest {digest:016x} under key {expected_digest:016x}"),
            });
        }
        let len = r.get_seq_len()?;
        let payload = r.get_raw(len)?.to_vec();
        let sum = r.get_u64()?;
        r.finish()?;
        if sum != checksum(&payload) {
            return Err(CodecError::Invalid {
                reason: "cache payload checksum".into(),
            });
        }
        Ok(payload)
    }

    /// The payload stored under `(kind, digest)`, or `None` when the
    /// file is missing or defective (defects are counted, never errors).
    pub fn load(&self, kind: &str, digest: u64) -> Option<Vec<u8>> {
        let path = self.file_path(kind, digest);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => return None,
        };
        match Self::decode(digest, &bytes) {
            Ok(payload) => Some(payload),
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Seeds `memo` with every valid entry of `kind` that `decode`
    /// accepts — a restarted daemon's warm start. Seeded entries start
    /// saved, so [`write_back`](DiskStore::write_back) never rewrites them.
    pub fn warm_start<V>(
        &self,
        kind: &str,
        memo: &DigestMemo<V>,
        decode: impl Fn(Vec<u8>) -> Option<V>,
    ) {
        for (digest, payload) in self.load_all(kind) {
            if let Some(value) = decode(payload) {
                memo.seed(digest, value);
            }
        }
    }

    /// Saves every entry of `memo` not yet in the store under `kind`,
    /// encoded by `encode`, and marks it saved. A failed save leaves its
    /// entry unsaved, so the next call retries it. Returns the number of
    /// failed saves.
    pub fn write_back<V>(
        &self,
        kind: &str,
        memo: &DigestMemo<V>,
        encode: impl Fn(&V) -> Vec<u8>,
    ) -> u64 {
        let mut failed = 0;
        for (digest, value) in memo.unsaved() {
            match self.save(kind, digest, &encode(&value)) {
                Ok(()) => memo.mark_saved(digest),
                Err(_) => failed += 1,
            }
        }
        failed
    }

    /// Every valid `(digest, payload)` of `kind`, sorted by digest so
    /// warm-start seeding is deterministic. Defective files are counted
    /// and skipped.
    pub fn load_all(&self, kind: &str) -> Vec<(u64, Vec<u8>)> {
        let dir = self.root.join(kind);
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(hex) = name.strip_suffix(".bin") else {
                continue;
            };
            let Ok(digest) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            if let Some(payload) = self.load(kind, digest) {
                out.push((digest, payload));
            }
        }
        out.sort_by_key(|&(digest, _)| digest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> DiskStore {
        let dir =
            std::env::temp_dir().join(format!("ecl-serve-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskStore::open(dir).expect("open temp store")
    }

    #[test]
    fn save_load_round_trip() {
        let store = temp_store("roundtrip");
        assert_eq!(store.load("schedules", 7), None);
        store.save("schedules", 7, b"alpha").unwrap();
        store.save("schedules", 9, b"beta").unwrap();
        assert_eq!(store.load("schedules", 7).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.load("schedules", 9).as_deref(), Some(&b"beta"[..]));
        assert_eq!(store.load("responses", 7), None, "kinds are disjoint");
        assert_eq!(
            store.load_all("schedules"),
            vec![(7, b"alpha".to_vec()), (9, b"beta".to_vec())]
        );
        assert_eq!(store.corrupt_seen(), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corruption_is_a_counted_miss() {
        let store = temp_store("corrupt");
        store.save("runs", 3, b"payload").unwrap();
        // Flip one payload byte on disk; the checksum must catch it.
        let path = store.root().join("runs").join(format!("{:016x}.bin", 3u64));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 12;
        bytes[at] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(store.load("runs", 3), None);
        assert_eq!(store.corrupt_seen(), 1);
        // A file renamed under the wrong digest must also be rejected.
        store.save("runs", 4, b"other").unwrap();
        let wrong = store.root().join("runs").join(format!("{:016x}.bin", 5u64));
        std::fs::rename(
            store.root().join("runs").join(format!("{:016x}.bin", 4u64)),
            &wrong,
        )
        .unwrap();
        assert_eq!(store.load("runs", 5), None);
        assert_eq!(store.corrupt_seen(), 2);
        assert!(store.load_all("runs").is_empty());
        let _ = std::fs::remove_dir_all(store.root());
    }
}
