//! Content-addressed on-disk persistence for the daemon's memo tables.
//!
//! Each cache kind is one append-only segment, `<root>/<kind>/segment`,
//! holding a sequence of self-checking records:
//!
//! | field    | bytes    | content                                     |
//! |----------|----------|---------------------------------------------|
//! | magic    | 4        | `ECLC`                                      |
//! | version  | 1        | `2` (1 was the per-file envelope)           |
//! | digest   | 8        | the key the record is filed under           |
//! | length   | 4        | payload bytes, at most [`MAX_SEQ`]          |
//! | payload  | length   |                                             |
//! | checksum | 8        | over every byte of the record before it     |
//!
//! [`save`](DiskStore::save) appends one record with a single write
//! through a handle the store keeps open, and never rewrites a record.
//! Opening a store reads nothing: a kind's segment is indexed on its
//! first lookup, and [`back`](DiskStore::back) makes a memo look its
//! misses up here, so a restarted daemon decodes only the records it is
//! asked for. Every reader verifies each record before handing it out. A
//! record that fails any check — torn by a crash mid-append, a flipped
//! bit, a wrong version — is a counted miss, and the reader resumes at
//! the next offset where a whole record verifies, so a defect costs only
//! the records it touches, never the ones appended after it. A
//! persistent cache must never turn corruption into a wrong answer when
//! recomputing is always possible.
//!
//! Files other than the segment (such as the `<digest>.bin` files of
//! the one-file-per-entry layout this replaced) are never read: a store
//! holding only those starts cold.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ecl_aaa::{DigestMap, DigestMemo};
use ecl_telemetry::bytes::{ByteReader, ByteWriter, MAX_SEQ};

/// Record magic.
const MAGIC: &[u8] = b"ECLC";
/// Record version (1 was the per-file envelope).
const VERSION: u8 = 2;
/// Magic, version, digest and length.
const HEADER: usize = 4 + 1 + 8 + 4;
/// The checksum.
const TRAILER: usize = 8;
/// File name of a kind's segment.
const SEGMENT: &str = "segment";

/// A 64-bit checksum of `bytes`, read eight bytes at a time on four
/// independent lanes so the multiplies overlap. Each step is a bijection
/// of its lane's state, so any change confined to one 8-byte word —
/// every single-bit flip — always changes the result.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let mut lanes = [1u64, 2, 3, 4].map(|i| K.wrapping_mul(i) ^ bytes.len() as u64);
    let mut absorb = |block: &[u8]| {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(
                *lane,
                u64::from_le_bytes(word.try_into().expect("8-byte word")),
            );
        }
    };
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        absorb(block);
    }
    let mut tail = [0u8; 32];
    tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    absorb(&tail);
    lanes.into_iter().fold(0, mix)
}

/// One verified record of a segment buffer.
struct Record {
    digest: u64,
    /// Where the payload sits in the buffer.
    payload: Range<usize>,
}

impl Record {
    /// Offset of the record's first byte.
    fn start(&self) -> usize {
        self.payload.start - HEADER
    }

    /// Offset one past the record's last byte.
    fn end(&self) -> usize {
        self.payload.end + TRAILER
    }
}

/// The record starting at `at`, if it is whole and every check passes.
fn parse(buf: &[u8], at: usize) -> Option<Record> {
    let mut r = ByteReader::new(buf.get(at..)?);
    r.expect_magic(MAGIC).ok()?;
    if r.get_u8().ok()? != VERSION {
        return None;
    }
    let digest = r.get_u64().ok()?;
    let len = r.get_seq_len().ok()?;
    r.get_raw(len).ok()?;
    let sum = r.get_u64().ok()?;
    let payload = at + HEADER..at + HEADER + len;
    (checksum(&buf[at..payload.end]) == sum).then_some(Record { digest, payload })
}

/// Hands every verified record of `buf` to `visit`, in file order. A
/// record that fails verification is skipped with everything up to the
/// next offset where a record verifies, and that stretch is counted
/// once. Returns the end of the last verified record — bytes after it
/// are a torn or still-arriving tail — and the skipped-stretch count.
fn scan(buf: &[u8], mut visit: impl FnMut(Record)) -> (usize, u64) {
    let (mut at, mut skipped) = (0, 0);
    while at < buf.len() {
        let record = match parse(buf, at) {
            Some(record) => record,
            None => {
                let next = (at + 1..buf.len())
                    .filter(|&i| buf[i..].starts_with(MAGIC))
                    .find_map(|i| parse(buf, i));
                let Some(record) = next else { break };
                skipped += 1;
                record
            }
        };
        at = record.end();
        visit(record);
    }
    (at, skipped)
}

/// Every verified record of one segment, read in one piece: the
/// payloads are borrowed from the read buffer, one per digest (the
/// first appended wins), sorted by digest.
#[derive(Debug)]
pub struct Records {
    buf: Vec<u8>,
    entries: Vec<(u64, Range<usize>)>,
}

impl Records {
    /// Number of distinct digests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the segment held no verified record.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every `(digest, payload)`, sorted by digest.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.entries
            .iter()
            .map(|(digest, payload)| (*digest, &self.buf[payload.clone()]))
    }
}

/// An open segment: the append handle and the digest-to-record index
/// [`DiskStore::load`] reads through.
#[derive(Debug)]
struct Segment {
    file: File,
    /// Byte range of each indexed record (the first appended wins).
    index: DigestMap<Range<u64>>,
    /// Bytes of the file the index covers: up to the end of the last
    /// verified record.
    indexed: u64,
    /// Length of the file at the last scan.
    scanned: u64,
    /// Whether the bytes after `indexed` were counted as a torn tail.
    torn_counted: bool,
}

impl Segment {
    fn open(dir: &Path, create: bool) -> io::Result<Segment> {
        if create {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .open(dir.join(SEGMENT))?;
        Ok(Segment {
            file,
            index: DigestMap::default(),
            indexed: 0,
            scanned: 0,
            torn_counted: false,
        })
    }

    /// Indexes the records appended, by any handle, since the last call;
    /// reads only the bytes after the last indexed record, and nothing
    /// when the file has not grown. Returns the defects found: one per
    /// skipped stretch, and one for a torn tail, counted once — neither
    /// while it stays torn nor when a record appended after it makes it
    /// a skipped stretch.
    fn catch_up(&mut self) -> io::Result<u64> {
        let len = self.file.metadata()?.len();
        if len <= self.scanned {
            return Ok(0);
        }
        let mut tail = vec![0; usize::try_from(len - self.indexed).expect("segment fits memory")];
        self.file.seek(SeekFrom::Start(self.indexed))?;
        self.file.read_exact(&mut tail)?;
        let (base, index) = (self.indexed, &mut self.index);
        let mut head_verified = false;
        let (end, skipped) = scan(&tail, |record| {
            head_verified |= record.start() == 0;
            let at = |offset: usize| base + offset as u64;
            index
                .entry(record.digest)
                .or_insert(at(record.start())..at(record.end()));
        });
        let torn = end < tail.len();
        let recounted = self.torn_counted && !head_verified;
        self.indexed += end as u64;
        self.scanned = len;
        self.torn_counted = torn;
        Ok(skipped + u64::from(torn) - u64::from(recounted))
    }

    /// The payload of `digest`'s indexed record, re-verified on read;
    /// `Ok(None)` when the index has none or the record no longer
    /// verifies (then it is dropped from the index and counted).
    fn read(&mut self, digest: u64, corrupt: &AtomicU64) -> io::Result<Option<Vec<u8>>> {
        if !self.index.contains_key(&digest) {
            corrupt.fetch_add(self.catch_up()?, Ordering::Relaxed);
        }
        let Some(range) = self.index.get(&digest).cloned() else {
            return Ok(None);
        };
        let mut record = vec![0; usize::try_from(range.end - range.start).expect("record fits")];
        self.file.seek(SeekFrom::Start(range.start))?;
        self.file.read_exact(&mut record)?;
        match parse(&record, 0) {
            Some(r) if r.digest == digest && r.end() == record.len() => {
                record.truncate(r.payload.end);
                record.drain(..r.payload.start);
                Ok(Some(record))
            }
            _ => {
                self.index.remove(&digest);
                corrupt.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }
}

/// A directory of content-addressed cache kinds, one segment each.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Segments opened by `save` or `load`, by kind.
    segments: Mutex<HashMap<String, Segment>>,
    corrupt: AtomicU64,
    loaded: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            segments: Mutex::new(HashMap::new()),
            corrupt: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Defective records seen by [`load`](DiskStore::load)/
    /// [`load_all`](DiskStore::load_all) since open: one per skipped
    /// stretch and one per torn tail, and one per verified record a
    /// [`back`](DiskStore::back)ed memo could not decode.
    pub fn corrupt_seen(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Records decoded into a [`back`](DiskStore::back)ed memo since
    /// open.
    pub(crate) fn records_loaded(&self) -> u64 {
        self.loaded.load(Ordering::Relaxed)
    }

    /// Runs `f` on `kind`'s open segment, opening it first (creating it
    /// when `create`) if this store has not yet.
    fn with_segment<R>(
        &self,
        kind: &str,
        create: bool,
        f: impl FnOnce(&mut Segment) -> io::Result<R>,
    ) -> io::Result<R> {
        let mut segments = self.segments.lock().expect("segment table");
        if !segments.contains_key(kind) {
            let segment = Segment::open(&self.root.join(kind), create)?;
            segments.insert(kind.to_owned(), segment);
        }
        f(segments.get_mut(kind).expect("opened above"))
    }

    /// Appends `payload` under `(kind, digest)` as one record, in a
    /// single write. Never rewrites an earlier record; a digest saved
    /// twice loads once.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], appending nothing, for a payload
    /// over [`MAX_SEQ`] bytes, which no reader would accept; otherwise
    /// filesystem failures.
    pub fn save(&self, kind: &str, digest: u64, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_SEQ {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "a {}-byte payload exceeds the {MAX_SEQ}-byte record cap",
                    payload.len()
                ),
            ));
        }
        let mut w = ByteWriter::with_capacity(HEADER + payload.len() + TRAILER);
        w.put_raw(MAGIC);
        w.put_u8(VERSION);
        w.put_u64(digest);
        w.put_seq_len(payload.len());
        w.put_raw(payload);
        w.put_u64(checksum(w.as_bytes()));
        self.with_segment(kind, true, |segment| segment.file.write_all(w.as_bytes()))
    }

    /// The payload stored under `(kind, digest)`, or `None` when there is
    /// none or it is defective (defects are counted, never errors). The
    /// first call per kind indexes the segment; later calls read only
    /// the bytes appended since, and then the one record.
    pub fn load(&self, kind: &str, digest: u64) -> Option<Vec<u8>> {
        self.with_segment(kind, false, |segment| segment.read(digest, &self.corrupt))
            .ok()
            .flatten()
    }

    /// The value stored under `(kind, digest)` as `decode` reads it, or
    /// `None` (see [`load`](DiskStore::load)). A record that verifies
    /// but that `decode` refuses is a counted defect too, and leaves the
    /// index, so a copy appended after it is found.
    fn load_decoded<V>(
        &self,
        kind: &str,
        digest: u64,
        decode: impl FnOnce(&[u8]) -> Option<V>,
    ) -> Option<V> {
        let value = self.with_segment(kind, false, |segment| {
            let Some(payload) = segment.read(digest, &self.corrupt)? else {
                return Ok(None);
            };
            let value = decode(&payload);
            if value.is_none() {
                segment.index.remove(&digest);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
            }
            Ok(value)
        });
        let value = value.ok().flatten()?;
        self.loaded.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Every verified record of `kind`, read in one piece and sorted by
    /// digest. Defects are counted and skipped.
    pub fn load_all(&self, kind: &str) -> Records {
        let buf = std::fs::read(self.root.join(kind).join(SEGMENT)).unwrap_or_default();
        let mut entries = Vec::new();
        let (end, skipped) = scan(&buf, |record| entries.push((record.digest, record.payload)));
        let torn = u64::from(end < buf.len());
        self.corrupt.fetch_add(skipped + torn, Ordering::Relaxed);
        // Stable, so the first record of a digest stays first.
        entries.sort_by_key(|(digest, _)| *digest);
        entries.dedup_by_key(|(digest, _)| *digest);
        Records { buf, entries }
    }

    /// Makes `kind`'s records the [source](DigestMemo::set_source) of
    /// `memo`: a miss loads the digest's record, decoded by `decode`,
    /// before anything is computed. A loaded entry starts saved, so
    /// [`write_back`](DiskStore::write_back) never appends it again; a
    /// record appended by another handle after this one started is found
    /// too.
    ///
    /// # Panics
    ///
    /// When `memo` already has a source.
    pub fn back<V>(
        self: &Arc<Self>,
        kind: &'static str,
        memo: &DigestMemo<V>,
        decode: impl Fn(&[u8]) -> Option<V> + Send + Sync + 'static,
    ) {
        let store = Arc::clone(self);
        memo.set_source(move |digest| store.load_decoded(kind, digest, &decode));
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

    fn segment_path(store: &DiskStore, kind: &str) -> PathBuf {
        store.root().join(kind).join(SEGMENT)
    }

    fn all(store: &DiskStore, kind: &str) -> Vec<(u64, Vec<u8>)> {
        let records = store.load_all(kind);
        records.iter().map(|(d, p)| (d, p.to_vec())).collect()
    }

    #[test]
    fn save_load_round_trip() {
        let store = temp_store("roundtrip");
        assert_eq!(store.load("schedules", 7), None);
        store.save("schedules", 9, b"beta").unwrap();
        store.save("schedules", 7, b"alpha").unwrap();
        store.save("schedules", 8, b"").unwrap();
        assert_eq!(store.load("schedules", 7).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.load("schedules", 9).as_deref(), Some(&b"beta"[..]));
        assert_eq!(store.load("schedules", 8).as_deref(), Some(&b""[..]));
        assert_eq!(store.load("responses", 7), None, "kinds are disjoint");
        assert!(
            !store.root().join("responses").exists(),
            "a load creates nothing"
        );
        // Appended after the index was built: found by catching up.
        store.save("schedules", 3, b"gamma").unwrap();
        assert_eq!(store.load("schedules", 3).as_deref(), Some(&b"gamma"[..]));
        assert_eq!(
            all(&store, "schedules"),
            [
                (3, b"gamma".to_vec()),
                (7, b"alpha".to_vec()),
                (8, Vec::new()),
                (9, b"beta".to_vec())
            ]
        );
        assert_eq!(store.corrupt_seen(), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Every single-bit flip anywhere in a middle record — magic,
    /// version, digest, length, payload or checksum — makes that record
    /// one counted miss, and both neighbours still load, through
    /// `load_all` and through `load`.
    #[test]
    fn a_flipped_bit_costs_only_its_record() {
        let store = temp_store("bitflip");
        store.save("runs", 1, b"first payload").unwrap();
        let start = std::fs::metadata(segment_path(&store, "runs"))
            .unwrap()
            .len() as usize;
        store.save("runs", 2, b"the middle payload").unwrap();
        let end = std::fs::metadata(segment_path(&store, "runs"))
            .unwrap()
            .len() as usize;
        store.save("runs", 3, b"last payload").unwrap();
        let pristine = std::fs::read(segment_path(&store, "runs")).unwrap();
        let root = store.root().to_path_buf();
        for bit in start * 8..end * 8 {
            let mut bytes = pristine.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(root.join("runs").join(SEGMENT), &bytes).unwrap();
            let fresh = DiskStore::open(&root).unwrap();
            let loaded: Vec<u64> = fresh.load_all("runs").iter().map(|(d, _)| d).collect();
            assert_eq!(loaded, [1, 3], "bit {bit}");
            assert_eq!(fresh.corrupt_seen(), 1, "bit {bit}");
            let fresh = DiskStore::open(&root).unwrap();
            assert_eq!(fresh.load("runs", 2), None, "bit {bit}");
            assert_eq!(
                fresh.load("runs", 3).as_deref(),
                Some(&b"last payload"[..]),
                "bit {bit}"
            );
            assert_eq!(
                fresh.load("runs", 1).as_deref(),
                Some(&b"first payload"[..])
            );
            assert_eq!(fresh.corrupt_seen(), 1, "bit {bit}");
        }
        let _ = std::fs::remove_dir_all(root);
    }

    /// A crash mid-append leaves a torn tail: it costs only that record,
    /// and records appended after it load again.
    #[test]
    fn a_torn_tail_costs_only_its_record() {
        let store = temp_store("torn");
        store.save("runs", 1, b"whole").unwrap();
        store.save("runs", 2, b"torn by a crash").unwrap();
        let path = segment_path(&store, "runs");
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        assert_eq!(all(&store, "runs"), [(1, b"whole".to_vec())]);
        assert_eq!(store.corrupt_seen(), 1, "the torn tail is counted");
        assert_eq!(store.load("runs", 2), None);

        store.save("runs", 3, b"after the crash").unwrap();
        let fresh = DiskStore::open(store.root()).unwrap();
        assert_eq!(
            all(&fresh, "runs"),
            [(1, b"whole".to_vec()), (3, b"after the crash".to_vec())]
        );
        assert_eq!(fresh.corrupt_seen(), 1);
        assert_eq!(
            store.load("runs", 3).as_deref(),
            Some(&b"after the crash"[..])
        );
        assert_eq!(store.load("runs", 2), None);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Through `load`, a torn tail is counted when it is first read, and
    /// once: not again while it stays torn (an unchanged file is not even
    /// re-read), nor when a record appended after it skips it.
    #[test]
    fn a_torn_tail_is_counted_once_by_lookups() {
        let store = temp_store("torn-lookup");
        store.save("runs", 1, b"whole").unwrap();
        store.save("runs", 2, b"torn by a crash").unwrap();
        let path = segment_path(&store, "runs");
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let fresh = DiskStore::open(store.root()).unwrap();
        assert_eq!(fresh.corrupt_seen(), 0, "opening reads nothing");
        assert_eq!(fresh.load("runs", 2), None);
        assert_eq!(fresh.load("runs", 9), None);
        assert_eq!(fresh.load("runs", 1).as_deref(), Some(&b"whole"[..]));
        assert_eq!(fresh.corrupt_seen(), 1);
        store.save("runs", 3, b"after the crash").unwrap();
        assert_eq!(
            fresh.load("runs", 3).as_deref(),
            Some(&b"after the crash"[..])
        );
        assert_eq!(fresh.corrupt_seen(), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A backed memo loads a stored entry on its first lookup, saved and
    /// without a compute. A record that verifies but does not decode is a
    /// counted defect: the entry is computed, written back once, and the
    /// new copy is what the next lookup of that digest finds.
    #[test]
    fn a_backed_memo_loads_on_first_use() {
        let store = Arc::new(temp_store("backed"));
        store.save("names", 1, b"one").unwrap();
        store.save("names", 2, &[0xff]).unwrap();
        let decode = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).ok();
        let memo: DigestMemo<String> = DigestMemo::new();
        store.back("names", &memo, decode);
        assert_eq!(store.records_loaded(), 0);
        let (one, hit) = memo
            .get_or_compute(1, || Err::<String, _>("must not compute"))
            .unwrap();
        assert_eq!((one.as_str(), hit), ("one", true));
        let (two, hit) = memo
            .get_or_compute(2, || Ok::<_, ()>("two".to_string()))
            .unwrap();
        assert_eq!((two.as_str(), hit), ("two", false));
        assert_eq!((store.records_loaded(), store.corrupt_seen()), (1, 1));
        let encode = |v: &String| v.as_bytes().to_vec();
        let len = || {
            std::fs::metadata(segment_path(&store, "names"))
                .unwrap()
                .len()
        };
        let before = len();
        assert_eq!(store.write_back("names", &memo, encode), 0);
        let after = len();
        assert_eq!(after - before, (HEADER + 3 + TRAILER) as u64, "one record");
        assert_eq!(store.write_back("names", &memo, encode), 0);
        assert_eq!(len(), after, "nothing is appended twice");
        let later: DigestMemo<String> = DigestMemo::new();
        store.back("names", &later, decode);
        let (two, hit) = later
            .get_or_compute(2, || Err::<String, _>("must not compute"))
            .unwrap();
        assert_eq!((two.as_str(), hit), ("two", true));
        assert_eq!(memo.computes() + later.computes(), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A payload no reader would accept is refused before anything is
    /// appended, in every build profile.
    #[test]
    fn an_oversized_payload_is_refused_and_appends_nothing() {
        let store = temp_store("oversized");
        store.save("runs", 1, b"kept").unwrap();
        let before = std::fs::read(segment_path(&store, "runs")).unwrap();
        let err = store
            .save("runs", 2, &vec![0; MAX_SEQ + 1])
            .expect_err("an oversized payload is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(std::fs::read(segment_path(&store, "runs")).unwrap(), before);
        assert_eq!(store.load("runs", 2), None);
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Two handles on one store append the same digest: it loads once.
    #[test]
    fn a_digest_appended_by_two_handles_loads_once() {
        let a = temp_store("twice");
        let b = DiskStore::open(a.root()).unwrap();
        a.save("schedules", 5, b"same").unwrap();
        b.save("schedules", 5, b"same").unwrap();
        b.save("schedules", 6, b"other").unwrap();
        assert_eq!(
            all(&a, "schedules"),
            [(5, b"same".to_vec()), (6, b"other".to_vec())]
        );
        assert_eq!(a.load("schedules", 6).as_deref(), Some(&b"other"[..]));
        assert_eq!(b.load("schedules", 5).as_deref(), Some(&b"same"[..]));
        assert_eq!(a.corrupt_seen() + b.corrupt_seen(), 0);
        let _ = std::fs::remove_dir_all(a.root());
    }

    /// A `<digest>.bin` file of the one-file-per-entry layout is never
    /// read: such a store starts cold, and counts no defect.
    #[test]
    fn a_legacy_entry_file_is_ignored() {
        let store = temp_store("legacy");
        let dir = store.root().join("schedules");
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = ByteWriter::new();
        w.put_raw(MAGIC);
        w.put_u8(1);
        w.put_u64(7);
        w.put_seq_len(5);
        w.put_raw(b"alpha");
        w.put_u64(ecl_bench::fnv64(b"alpha"));
        std::fs::write(dir.join(format!("{:016x}.bin", 7u64)), w.as_bytes()).unwrap();
        assert!(store.load_all("schedules").is_empty());
        assert_eq!(store.load("schedules", 7), None);
        assert_eq!(store.corrupt_seen(), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn checksum_sees_every_word_and_the_length() {
        let bytes: Vec<u8> = (0..100u8).collect();
        let sum = checksum(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&flipped), sum, "bit {bit}");
        }
        assert_ne!(checksum(&[0; 3]), checksum(&[0; 4]));
        assert_ne!(checksum(&[]), checksum(&[0]));
    }
}
