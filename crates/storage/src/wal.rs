//! The metadata write-ahead log.
//!
//! Adaptive metadata mutations (partition splits, merge-file operations,
//! ingest appends, query statistics) are tiny compared to the data pages they
//! describe, but they are what recovery must reconstruct exactly. The
//! [`MetaWal`] stores them as a stream of checksummed records packed into
//! 4 KB pages of a [`PagedFile`]:
//!
//! * page 0 is a header page carrying the log *epoch* — the checkpoint
//!   sequence number the log belongs to. A log whose epoch does not match
//!   the manifest's is a leftover from before the last checkpoint and is
//!   ignored wholesale (this closes the crash window between the manifest
//!   rename and the log reset);
//! * pages 1.. hold the record stream. Each record is framed as
//!   `magic ∥ length ∥ crc32(payload) ∥ payload` and the stream is packed
//!   page by page; the current partial tail page is rewritten on every
//!   append, so a record is durable the moment [`MetaWal::append`] returns;
//! * replay decodes records until the first frame that fails validation
//!   (zeroed magic, impossible length, checksum mismatch). Everything before
//!   that point is the *consistent prefix* recovery applies; the torn tail a
//!   crash may leave mid-write is discarded.
//!
//! The record payloads are opaque bytes: the engine layer defines their
//! schema (see `odyssey-core`'s durability module), the storage layer
//! guarantees atomicity and ordering.

use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::fault;
use crate::file::PagedFile;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::sync::{Exclusive, LockClass};

/// File name of the metadata WAL inside a durable store's directory.
pub const WAL_FILE_NAME: &str = "wal.sowl";

/// Magic bytes of the WAL header page.
const WAL_MAGIC: [u8; 4] = *b"SOWL";

/// On-disk format version of the WAL.
const WAL_VERSION: u32 = 1;

/// Magic word framing each record in the stream.
const RECORD_MAGIC: u32 = 0x57A1_5EC5;

/// Frame overhead per record: magic + length + checksum.
const FRAME_HEADER: usize = 12;

/// Hard cap on a single record's payload (a malformed length field must not
/// make replay allocate gigabytes).
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// What [`MetaWal::open`] found in an existing log.
pub struct WalRecovery {
    /// The epoch recorded in the log's header page.
    pub epoch: u64,
    /// The payloads of every valid record, in append order.
    pub records: Vec<Vec<u8>>,
    /// `true` if the stream ended in a torn or corrupt frame (a crash
    /// mid-append); the records before it are still valid.
    pub torn_tail: bool,
}

struct WalState {
    /// Bytes of the record stream written so far (excluding the header page).
    len: u64,
    /// Contents of the current partial tail page, written to the device as
    /// is on every append (no per-record copy).
    tail: Page,
    /// Set when an append failed partway: the on-disk stream may end in a
    /// torn frame, so later appends — which replay would discard along with
    /// the torn frame — must not pretend to be durable.
    poisoned: bool,
}

/// Append-only, checksummed metadata log over a [`PagedFile`].
pub struct MetaWal {
    file: Box<dyn PagedFile>,
    epoch: u64,
    wal_state: Exclusive<WalState>,
}

fn header_page(epoch: u64) -> Page {
    let mut page = Page::zeroed();
    let bytes = page.as_bytes_mut();
    bytes[..4].copy_from_slice(&WAL_MAGIC);
    bytes[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
    bytes[8..16].copy_from_slice(&epoch.to_le_bytes());
    let crc = crc32(&bytes[..16]);
    bytes[16..20].copy_from_slice(&crc.to_le_bytes());
    page
}

fn parse_header(page: &Page) -> Option<u64> {
    let bytes = page.as_bytes();
    if bytes[..4] != WAL_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("version slice")); // analyzer: allow(header length checked above)
    if version != WAL_VERSION {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("crc slice")); // analyzer: allow(header length checked above)
    if crc != crc32(&bytes[..16]) {
        return None;
    }
    Some(u64::from_le_bytes(
        bytes[8..16].try_into().expect("epoch slice"), // analyzer: allow(header length checked above)
    ))
}

impl MetaWal {
    /// Creates (or resets) a log on `file` for the given epoch: the file is
    /// truncated and a fresh header page is written.
    pub fn create(file: Box<dyn PagedFile>, epoch: u64) -> StorageResult<Self> {
        let _cover = fault::enter("MetaWal::create");
        let wal = MetaWal {
            file,
            epoch,
            wal_state: Exclusive::new(
                LockClass::WalState,
                WalState {
                    len: 0,
                    tail: Page::zeroed(),
                    poisoned: false,
                },
            ),
        };
        wal.reset_file(epoch)?;
        Ok(wal)
    }

    /// Opens an existing log, replaying its valid record prefix. A file
    /// without a readable header (torn reset, empty file) comes back as an
    /// empty log at epoch `fallback_epoch`.
    pub fn open(
        file: Box<dyn PagedFile>,
        fallback_epoch: u64,
    ) -> StorageResult<(Self, WalRecovery)> {
        let _cover = fault::enter("MetaWal::open");
        let header_epoch = if file.num_pages() > 0 {
            parse_header(&file.read_page(PageId(0))?)
        } else {
            None
        };
        let Some(epoch) = header_epoch else {
            let wal = MetaWal::create(file, fallback_epoch)?;
            return Ok((
                wal,
                WalRecovery {
                    epoch: fallback_epoch,
                    records: Vec::new(),
                    torn_tail: false,
                },
            ));
        };

        // Pull in the full record stream.
        let data_pages = file.num_pages() - 1;
        let mut stream = Vec::with_capacity((data_pages as usize) * PAGE_SIZE);
        for p in 0..data_pages {
            stream.extend_from_slice(file.read_page(PageId(p + 1))?.as_bytes());
        }

        // Decode records until the first invalid frame.
        let mut records = Vec::new();
        let mut offset = 0usize;
        let mut torn_tail = false;
        loop {
            if offset + FRAME_HEADER > stream.len() {
                // Leftover bytes smaller than a frame header: torn only if
                // any of them is non-zero.
                torn_tail = stream[offset..].iter().any(|&b| b != 0);
                break;
            }
            let magic = u32::from_le_bytes(stream[offset..offset + 4].try_into().expect("magic")); // analyzer: allow(frame bounds checked by the loop condition)
            if magic == 0 {
                break; // clean end of stream
            }
            if magic != RECORD_MAGIC {
                torn_tail = true;
                break;
            }
            let len =
                u32::from_le_bytes(stream[offset + 4..offset + 8].try_into().expect("length")); // analyzer: allow(frame bounds checked by the loop condition)
            let crc = u32::from_le_bytes(stream[offset + 8..offset + 12].try_into().expect("crc")); // analyzer: allow(frame bounds checked by the loop condition)
            let end = offset + FRAME_HEADER + len as usize;
            if len > MAX_RECORD_LEN || end > stream.len() {
                torn_tail = true;
                break;
            }
            let payload = &stream[offset + FRAME_HEADER..end];
            if crc32(payload) != crc {
                torn_tail = true;
                break;
            }
            records.push(payload.to_vec());
            offset = end;
        }

        // Position the appender right after the last valid record.
        let len = offset as u64;
        let mut tail = Page::zeroed();
        let tail_bytes = (len % PAGE_SIZE as u64) as usize;
        if tail_bytes > 0 {
            let page_start = (len as usize) - tail_bytes;
            tail.as_bytes_mut()[..tail_bytes]
                .copy_from_slice(&stream[page_start..page_start + tail_bytes]);
        }
        // Drop any pages past the append point so later appends and the
        // replayed state agree on the file's shape.
        let keep_pages = 1 + len.div_ceil(PAGE_SIZE as u64);
        file.truncate(keep_pages)?;

        let wal = MetaWal {
            file,
            epoch,
            wal_state: Exclusive::new(
                LockClass::WalState,
                WalState {
                    len,
                    tail,
                    poisoned: false,
                },
            ),
        };
        Ok((
            wal,
            WalRecovery {
                epoch,
                records,
                torn_tail,
            },
        ))
    }

    /// The epoch the log currently belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bytes of record stream appended since the last reset.
    pub fn len_bytes(&self) -> u64 {
        self.wal_state.lock().len
    }

    /// Number of pages the log occupies on disk (header included).
    pub fn pages(&self) -> u64 {
        self.file.num_pages()
    }

    /// Appends one record; when this returns, the record (and everything
    /// before it) is on the device.
    ///
    /// A failed append **poisons** the log: the stream may now end in a torn
    /// frame, and replay discards everything from the first torn frame on —
    /// so a later append claiming success would be a lie. Every append after
    /// a failure returns an error until the next [`MetaWal::reset`].
    pub fn append(&self, payload: &[u8]) -> StorageResult<()> {
        let _cover = fault::enter("MetaWal::append");
        if payload.len() as u64 > MAX_RECORD_LEN as u64 {
            return Err(StorageError::Corrupt(format!(
                "WAL record of {} bytes exceeds the {} byte cap",
                payload.len(),
                MAX_RECORD_LEN
            )));
        }
        let mut state = self.wal_state.lock();
        if state.poisoned {
            return Err(StorageError::Corrupt(
                "WAL poisoned by an earlier failed append; recover by reopening".into(),
            ));
        }
        let result = self.append_locked(&mut state, payload);
        if result.is_err() {
            state.poisoned = true;
        }
        result
    }

    fn append_locked(&self, state: &mut WalState, payload: &[u8]) -> StorageResult<()> {
        let _cover = fault::enter("MetaWal::append_locked");
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);

        let mut written = 0usize;
        while written < frame.len() {
            let tail_bytes = (state.len % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - tail_bytes).min(frame.len() - written);
            state.tail.as_bytes_mut()[tail_bytes..tail_bytes + take]
                .copy_from_slice(&frame[written..written + take]);
            if tail_bytes + take == PAGE_SIZE {
                // The tail page filled up: persist it and start a fresh one.
                self.persist_tail(state)?;
                state.tail.as_bytes_mut().fill(0);
            }
            state.len += take as u64;
            written += take;
        }
        if !state.len.is_multiple_of(PAGE_SIZE as u64) {
            // Persist the partial tail so the record is durable now.
            self.persist_tail(state)?;
        }
        // Flush to the device: when append returns, the record survives
        // power loss, not just a process crash.
        self.file.sync()
    }

    /// Writes the current tail page at its slot (page-granular durability).
    fn persist_tail(&self, state: &WalState) -> StorageResult<()> {
        let _cover = fault::enter("MetaWal::persist_tail");
        let page_index = 1 + state.len / PAGE_SIZE as u64;
        if page_index < self.file.num_pages() {
            self.file.write_page(PageId(page_index), &state.tail)
        } else {
            debug_assert_eq!(page_index, self.file.num_pages());
            self.file.append_page(&state.tail).map(|_| ())
        }
    }

    /// Resets the log for a new epoch (called right after a checkpoint's
    /// manifest has been committed): all records are discarded and the
    /// header is rewritten.
    pub fn reset(&mut self, epoch: u64) -> StorageResult<()> {
        let _cover = fault::enter("MetaWal::reset");
        self.reset_file(epoch)?;
        self.epoch = epoch;
        let mut state = self.wal_state.lock();
        state.len = 0;
        state.tail.as_bytes_mut().fill(0);
        state.poisoned = false;
        Ok(())
    }

    fn reset_file(&self, epoch: u64) -> StorageResult<()> {
        let _cover = fault::enter("MetaWal::reset_file");
        // Invalidate the old header *before* truncating, and sync before
        // writing the new one: without the intermediate sync the device
        // could persist the new-epoch header while the old record stream
        // survives, and recovery would replay records the manifest already
        // contains. With it, a crash anywhere in the reset leaves either the
        // old log (manifest epoch has moved on → ignored) or an unreadable
        // one (→ treated as empty) — never a new header over stale records.
        if self.file.num_pages() > 0 {
            self.file.write_page(PageId(0), &Page::zeroed())?;
        }
        self.file.truncate(1)?;
        self.file.sync()?;
        if self.file.num_pages() == 0 {
            self.file.append_page(&header_page(epoch))?;
        } else {
            self.file.write_page(PageId(0), &header_page(epoch))?;
        }
        self.file.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{DiskFile, FaultInjectingFile, MemFile};

    fn mem_wal(epoch: u64) -> MetaWal {
        MetaWal::create(Box::new(MemFile::new()), epoch).unwrap()
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(WAL_FILE_NAME);
        let wal = MetaWal::create(Box::new(DiskFile::create(&path).unwrap()), 3).unwrap();
        let records: Vec<Vec<u8>> = (0..40u32)
            .map(|i| {
                // Mix small and page-spanning records.
                let len = if i % 7 == 0 { 9000 } else { 30 + i as usize };
                vec![(i % 251) as u8; len]
            })
            .collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        assert!(wal.len_bytes() > 0);
        drop(wal);

        let (wal, rec) = MetaWal::open(Box::new(DiskFile::open(&path).unwrap()), 0).unwrap();
        assert_eq!(rec.epoch, 3);
        assert!(!rec.torn_tail);
        assert_eq!(rec.records, records);
        // Appending after recovery continues the stream.
        wal.append(b"after-reopen").unwrap();
        drop(wal);
        let (_, rec) = MetaWal::open(Box::new(DiskFile::open(&path).unwrap()), 0).unwrap();
        assert_eq!(rec.records.len(), records.len() + 1);
        assert_eq!(rec.records.last().unwrap(), b"after-reopen");
    }

    #[test]
    fn truncated_log_replays_a_consistent_prefix() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(WAL_FILE_NAME);
        let wal = MetaWal::create(Box::new(DiskFile::create(&path).unwrap()), 1).unwrap();
        for i in 0..100u32 {
            wal.append(&i.to_le_bytes().repeat(40)).unwrap();
        }
        let full_pages = wal.pages();
        drop(wal);

        let mut last_count = usize::MAX;
        for keep in (1..full_pages).rev() {
            let f = DiskFile::open(&path).unwrap();
            f.truncate(keep).unwrap();
            drop(f);
            let (_, rec) = MetaWal::open(Box::new(DiskFile::open(&path).unwrap()), 0).unwrap();
            assert!(rec.records.len() <= last_count, "prefix must shrink");
            last_count = rec.records.len();
            for (i, r) in rec.records.iter().enumerate() {
                assert_eq!(
                    r,
                    &(i as u32).to_le_bytes().repeat(40),
                    "record {i} corrupt"
                );
            }
        }
    }

    #[test]
    fn corrupt_tail_is_detected_and_discarded() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(WAL_FILE_NAME);
        let wal = MetaWal::create(Box::new(DiskFile::create(&path).unwrap()), 1).unwrap();
        wal.append(b"good-record-one").unwrap();
        wal.append(b"good-record-two").unwrap();
        drop(wal);
        // Flip a byte inside the second record's payload: the stream starts
        // at page 1; record one occupies 12 + 15 = 27 bytes, so record two's
        // payload covers stream bytes 39..54.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_SIZE + 45] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let (_, rec) = MetaWal::open(Box::new(DiskFile::open(&path).unwrap()), 0).unwrap();
        assert_eq!(rec.records, vec![b"good-record-one".to_vec()]);
        assert!(rec.torn_tail);
    }

    #[test]
    fn reset_discards_records_and_advances_epoch() {
        let mut wal = mem_wal(5);
        wal.append(b"pre-checkpoint").unwrap();
        wal.reset(6).unwrap();
        assert_eq!(wal.epoch(), 6);
        assert_eq!(wal.len_bytes(), 0);
        wal.append(b"post-checkpoint").unwrap();
        assert!(wal.len_bytes() > 0);
    }

    #[test]
    fn unreadable_header_falls_back_to_fresh_log() {
        let file = MemFile::new();
        file.append_page(&Page::from_bytes(vec![0xAB; PAGE_SIZE]))
            .unwrap();
        let (wal, rec) = MetaWal::open(Box::new(file), 9).unwrap();
        assert_eq!(rec.epoch, 9);
        assert!(rec.records.is_empty());
        assert_eq!(wal.epoch(), 9);
    }

    #[test]
    fn fault_injected_append_fails_cleanly() {
        // Header costs one write; then each small append rewrites one tail
        // page. Budget 3 = header + two appends.
        let file = FaultInjectingFile::new(Box::new(MemFile::new()), 3);
        let mut wal = MetaWal::create(Box::new(file), 0).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        assert!(wal.append(b"three").is_err());
        // The failed append poisons the log: the stream may end in a torn
        // frame, so later appends must not claim durability — even ones the
        // device would now accept.
        assert!(wal.append(b"four").is_err());
        // A reset (checkpoint) clears the poison. The MemFile fault budget
        // is exhausted, so the reset itself fails here — which is fine, the
        // point is that it is the only recovery path.
        assert!(wal.reset(1).is_err());
    }
}
