//! Paged files: the unit of on-disk storage.
//!
//! A paged file is a growable array of fixed-size pages. Two backends are
//! provided: [`MemFile`] keeps pages in memory (used by tests and by the
//! deterministic cost-model benchmarks, where simulated time comes from the
//! access trace, not the medium) and [`DiskFile`] stores pages in a real file
//! through `std::fs` (used to validate that nothing depends on the in-memory
//! shortcut).
//!
//! # Concurrency
//!
//! All operations take `&self` so that a [`crate::StorageManager`] can be
//! shared across query threads. Individual page reads and writes are atomic
//! at page granularity (a reader never observes a half-written page; a
//! [`MemFile`] hands out and keeps shared, copy-on-write [`Page`] frames);
//! multi-page runs are kept consistent by the index-level locks of the
//! callers (see the crate docs of `odyssey-core`).

use crate::error::{StorageError, StorageResult};
use crate::fault::{self, FaultState, SiteClass};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::sync::{Exclusive, LockClass, Shared};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Identifier of a file managed by the [`crate::StorageManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u32);

impl FileId {
    /// Raw index of the file.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A growable array of fixed-size pages, shareable across threads.
pub trait PagedFile: Send + Sync {
    /// Number of pages currently in the file.
    fn num_pages(&self) -> u64;

    /// Reads the page at `page`.
    fn read_page(&self, page: PageId) -> StorageResult<Page>;

    /// Overwrites the page at `page` (must already exist).
    fn write_page(&self, page: PageId, data: &Page) -> StorageResult<()>;

    /// Appends a page at the end of the file and returns its id.
    fn append_page(&self, data: &Page) -> StorageResult<PageId>;

    /// Ensures the file has at least `pages` pages, filling with empty pages
    /// as needed (used when pre-allocating partition extents). The default
    /// implementation appends one page at a time; [`MemFile`] and
    /// [`DiskFile`] override it with bulk extension.
    fn grow_to(&self, pages: u64) -> StorageResult<()> {
        while self.num_pages() < pages {
            self.append_page(&Page::empty())?;
        }
        Ok(())
    }

    /// Shrinks the file to at most `pages` pages, dropping everything beyond.
    /// A no-op when the file is already short enough. Crash recovery uses
    /// this to cut orphaned pages (written after the last committed metadata
    /// record) off the tail of every data file.
    fn truncate(&self, pages: u64) -> StorageResult<()>;

    /// Flushes written pages to the device (`fdatasync` for [`DiskFile`]).
    /// The durability protocol syncs a data file before appending the WAL
    /// record that references its pages, and the WAL after every append, so
    /// the write ordering recovery relies on holds against power loss, not
    /// just process crashes. A no-op for in-memory files.
    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
}

/// Pages per positioned write in [`DiskFile::grow_to`]'s bulk extension
/// (1 MiB chunks).
const GROW_CHUNK_PAGES: u64 = 256;

/// In-memory paged file.
#[derive(Default)]
pub struct MemFile {
    pages: Shared<Vec<Page>>,
}

impl MemFile {
    /// Creates an empty in-memory file.
    pub fn new() -> Self {
        MemFile {
            pages: Shared::new(LockClass::FilePages, Vec::new()),
        }
    }
}

fn out_of_range(page: PageId, len: u64) -> StorageError {
    StorageError::PageOutOfRange {
        file: u32::MAX,
        page: page.0,
        len,
    }
}

impl PagedFile for MemFile {
    fn num_pages(&self) -> u64 {
        self.pages.read().len() as u64
    }

    fn read_page(&self, page: PageId) -> StorageResult<Page> {
        let pages = self.pages.read();
        pages
            .get(page.0 as usize)
            .cloned()
            .ok_or_else(|| out_of_range(page, pages.len() as u64))
    }

    fn write_page(&self, page: PageId, data: &Page) -> StorageResult<()> {
        let mut pages = self.pages.write();
        let len = pages.len() as u64;
        let slot = pages
            .get_mut(page.0 as usize)
            .ok_or_else(|| out_of_range(page, len))?;
        *slot = data.clone();
        Ok(())
    }

    fn append_page(&self, data: &Page) -> StorageResult<PageId> {
        let mut pages = self.pages.write();
        pages.push(data.clone());
        Ok(PageId(pages.len() as u64 - 1))
    }

    fn grow_to(&self, target: u64) -> StorageResult<()> {
        let mut pages = self.pages.write();
        if (pages.len() as u64) < target {
            pages.resize(target as usize, Page::empty());
        }
        Ok(())
    }

    fn truncate(&self, target: u64) -> StorageResult<()> {
        let mut pages = self.pages.write();
        if (pages.len() as u64) > target {
            pages.truncate(target as usize);
        }
        Ok(())
    }
}

/// Paged file backed by a real file on disk.
///
/// Reads and writes use positioned I/O (`pread`/`pwrite`), so concurrent
/// readers never race on a shared cursor; the page count is guarded by a
/// mutex so appends are atomic.
pub struct DiskFile {
    file: File,
    path: PathBuf,
    num_pages: Exclusive<u64>,
}

impl DiskFile {
    /// Creates (or truncates) a paged file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let _cover = fault::enter("DiskFile::create");
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(DiskFile {
            file,
            path,
            num_pages: Exclusive::new(LockClass::FilePages, 0),
        })
    }

    /// Opens an existing paged file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let _cover = fault::enter("DiskFile::open");
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file {} length {len} is not a multiple of the page size",
                path.display()
            )));
        }
        Ok(DiskFile {
            file,
            path,
            num_pages: Exclusive::new(LockClass::FilePages, len / PAGE_SIZE as u64),
        })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl PagedFile for DiskFile {
    fn num_pages(&self) -> u64 {
        *self.num_pages.lock()
    }

    fn read_page(&self, page: PageId) -> StorageResult<Page> {
        let len = *self.num_pages.lock();
        if page.0 >= len {
            return Err(out_of_range(page, len));
        }
        // Read straight into the frame the caller (and then the buffer
        // pool) will share: one allocation, no copy.
        let mut data = Page::zeroed();
        self.file
            .read_exact_at(data.as_bytes_mut(), page.0 * PAGE_SIZE as u64)?;
        Ok(data)
    }

    fn write_page(&self, page: PageId, data: &Page) -> StorageResult<()> {
        let len = *self.num_pages.lock();
        if page.0 >= len {
            return Err(out_of_range(page, len));
        }
        self.file
            .write_all_at(data.as_bytes(), page.0 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn append_page(&self, data: &Page) -> StorageResult<PageId> {
        let mut len = self.num_pages.lock();
        self.file
            .write_all_at(data.as_bytes(), *len * PAGE_SIZE as u64)?;
        let id = PageId(*len);
        *len += 1;
        Ok(id)
    }

    /// Bulk extension: instead of one 4 KB write (and one length-mutex round
    /// trip) per page, the new empty pages are written in 1 MiB chunks with
    /// a single positioned write each — one large sequential transfer rather
    /// than thousands of tiny ones.
    fn grow_to(&self, target: u64) -> StorageResult<()> {
        let mut len = self.num_pages.lock();
        if *len >= target {
            return Ok(());
        }
        let empty = Page::empty();
        let mut chunk: Vec<u8> = Vec::new();
        while *len < target {
            let pages = (target - *len).min(GROW_CHUNK_PAGES) as usize;
            let want = pages * PAGE_SIZE;
            if chunk.len() < want {
                while chunk.len() < want {
                    chunk.extend_from_slice(empty.as_bytes());
                }
            }
            self.file
                .write_all_at(&chunk[..want], *len * PAGE_SIZE as u64)?;
            *len += pages as u64;
        }
        Ok(())
    }

    fn truncate(&self, target: u64) -> StorageResult<()> {
        let mut len = self.num_pages.lock();
        if *len > target {
            self.file.set_len(target * PAGE_SIZE as u64)?;
            *len = target;
        }
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// A [`PagedFile`] wrapper that injects a write failure after a configured
/// number of page writes — the crash lever of the durability tests.
///
/// Reads always pass through. Every page the wrapper writes (via
/// [`PagedFile::write_page`], [`PagedFile::append_page`] or
/// [`PagedFile::grow_to`]) consumes one unit of the budget; once the budget
/// is exhausted, writes fail with an I/O error *without touching the inner
/// file*, exactly like a device that died mid-workload. Reopening the
/// directory that the inner [`DiskFile`] lives in then recovers from a real
/// crash image: everything written before the fault is on disk, nothing
/// after.
pub struct FaultInjectingFile {
    inner: Box<dyn PagedFile>,
    writes_left: Exclusive<u64>,
}

impl FaultInjectingFile {
    /// Wraps `inner`, allowing `write_budget` page writes before faulting.
    pub fn new(inner: Box<dyn PagedFile>, write_budget: u64) -> Self {
        FaultInjectingFile {
            inner,
            writes_left: Exclusive::new(LockClass::FilePages, write_budget),
        }
    }

    /// Page writes remaining before the injected fault.
    pub fn writes_remaining(&self) -> u64 {
        *self.writes_left.lock()
    }

    fn charge(&self, pages: u64) -> StorageResult<()> {
        let mut left = self.writes_left.lock();
        if *left < pages {
            *left = 0;
            return Err(StorageError::Io(std::io::Error::other(
                "injected write fault (simulated crash)",
            )));
        }
        *left -= pages;
        Ok(())
    }
}

impl PagedFile for FaultInjectingFile {
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&self, page: PageId) -> StorageResult<Page> {
        self.inner.read_page(page)
    }

    fn write_page(&self, page: PageId, data: &Page) -> StorageResult<()> {
        self.charge(1)?;
        self.inner.write_page(page, data)
    }

    fn append_page(&self, data: &Page) -> StorageResult<PageId> {
        self.charge(1)?;
        self.inner.append_page(data)
    }

    fn grow_to(&self, pages: u64) -> StorageResult<()> {
        let current = self.inner.num_pages();
        if pages > current {
            self.charge(pages - current)?;
        }
        self.inner.grow_to(pages)
    }

    fn truncate(&self, pages: u64) -> StorageResult<()> {
        self.inner.truncate(pages)
    }

    fn sync(&self) -> StorageResult<()> {
        self.inner.sync()
    }
}

/// A [`PagedFile`] wrapper charging every operation against the manager's
/// [`FaultState`] under a per-family [`SiteClass`] (`wal.*` for the WAL
/// file, `data.*` for durable data files) and recording the call into the
/// fault-surface coverage registry.
///
/// This is the site-addressable successor of [`FaultInjectingFile`]'s
/// global write budget: a [`crate::FaultPlan`] can fail the Nth read,
/// write or sync of a specific file family instead of the Nth page write
/// anywhere. The durable [`crate::StorageManager`] wraps its WAL file and
/// every on-disk data file in this type; with the state disarmed the
/// wrapper costs two relaxed atomic loads per operation.
pub struct FaultHookFile {
    inner: Box<dyn PagedFile>,
    fault: Arc<FaultState>,
    read_site: SiteClass,
    write_site: SiteClass,
    sync_site: SiteClass,
}

impl FaultHookFile {
    /// Wraps the WAL file: operations charge `wal.read` / `wal.write` /
    /// `wal.sync`.
    pub fn wal(inner: Box<dyn PagedFile>, fault: Arc<FaultState>) -> Self {
        FaultHookFile {
            inner,
            fault,
            read_site: SiteClass::WalRead,
            write_site: SiteClass::WalWrite,
            sync_site: SiteClass::WalSync,
        }
    }

    /// Wraps a durable data file: operations charge `data.read` /
    /// `data.write` / `data.sync`.
    pub fn data(inner: Box<dyn PagedFile>, fault: Arc<FaultState>) -> Self {
        FaultHookFile {
            inner,
            fault,
            read_site: SiteClass::DataRead,
            write_site: SiteClass::DataWrite,
            sync_site: SiteClass::DataSync,
        }
    }
}

impl PagedFile for FaultHookFile {
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&self, page: PageId) -> StorageResult<Page> {
        let _cover = fault::enter("FaultHookFile::read_page");
        self.fault.charge(self.read_site)?;
        self.inner.read_page(page)
    }

    fn write_page(&self, page: PageId, data: &Page) -> StorageResult<()> {
        let _cover = fault::enter("FaultHookFile::write_page");
        self.fault.charge(self.write_site)?;
        self.inner.write_page(page, data)
    }

    fn append_page(&self, data: &Page) -> StorageResult<PageId> {
        let _cover = fault::enter("FaultHookFile::append_page");
        self.fault.charge(self.write_site)?;
        self.inner.append_page(data)
    }

    fn grow_to(&self, pages: u64) -> StorageResult<()> {
        let _cover = fault::enter("FaultHookFile::grow_to");
        self.fault.charge(self.write_site)?;
        self.inner.grow_to(pages)
    }

    fn truncate(&self, pages: u64) -> StorageResult<()> {
        let _cover = fault::enter("FaultHookFile::truncate");
        self.fault.charge(self.write_site)?;
        self.inner.truncate(pages)
    }

    fn sync(&self) -> StorageResult<()> {
        let _cover = fault::enter("FaultHookFile::sync");
        self.fault.charge(self.sync_site)?;
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_geom::{Aabb, DatasetId, ObjectId, SpatialObject, Vec3};

    fn obj(id: u64) -> SpatialObject {
        SpatialObject::new(
            ObjectId(id),
            DatasetId(0),
            Aabb::from_min_max(Vec3::ZERO, Vec3::ONE),
        )
    }

    fn exercise_file(f: &dyn PagedFile) {
        assert_eq!(f.num_pages(), 0);
        let p0 = Page::from_objects(&[obj(1), obj(2)]).unwrap();
        let p1 = Page::from_objects(&[obj(3)]).unwrap();
        assert_eq!(f.append_page(&p0).unwrap(), PageId(0));
        assert_eq!(f.append_page(&p1).unwrap(), PageId(1));
        assert_eq!(f.num_pages(), 2);
        assert_eq!(f.read_page(PageId(0)).unwrap().objects().unwrap().len(), 2);
        assert_eq!(f.read_page(PageId(1)).unwrap().objects().unwrap().len(), 1);
        // Overwrite.
        let p2 = Page::from_objects(&[obj(9), obj(10), obj(11)]).unwrap();
        f.write_page(PageId(0), &p2).unwrap();
        assert_eq!(f.read_page(PageId(0)).unwrap().objects().unwrap().len(), 3);
        // Out of range accesses error.
        assert!(f.read_page(PageId(5)).is_err());
        assert!(f.write_page(PageId(5), &p2).is_err());
        // Growing appends zeroed pages.
        f.grow_to(5).unwrap();
        assert_eq!(f.num_pages(), 5);
        assert_eq!(f.read_page(PageId(4)).unwrap().record_count().unwrap(), 0);
        // grow_to with a smaller target is a no-op.
        f.grow_to(2).unwrap();
        assert_eq!(f.num_pages(), 5);
        // Grown pages are valid, checksummed empty pages.
        assert!(f.read_page(PageId(3)).unwrap().verify_checksum());
        // Truncation drops the tail; truncating to a larger size is a no-op.
        f.truncate(3).unwrap();
        assert_eq!(f.num_pages(), 3);
        assert!(f.read_page(PageId(3)).is_err());
        f.truncate(10).unwrap();
        assert_eq!(f.num_pages(), 3);
        f.grow_to(5).unwrap();
        assert_eq!(f.num_pages(), 5);
    }

    #[test]
    fn mem_file_behaviour() {
        let f = MemFile::new();
        exercise_file(&f);
    }

    #[test]
    fn disk_file_behaviour() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("test.pages");
        let f = DiskFile::create(&path).unwrap();
        exercise_file(&f);
        drop(f);
        // Reopen and verify persistence.
        let f = DiskFile::open(&path).unwrap();
        assert_eq!(f.num_pages(), 5);
        assert_eq!(f.read_page(PageId(0)).unwrap().objects().unwrap().len(), 3);
        assert_eq!(f.path(), path);
    }

    #[test]
    fn disk_file_open_missing_fails() {
        let dir = tempfile::tempdir().unwrap();
        assert!(DiskFile::open(dir.path().join("nope.pages")).is_err());
    }

    #[test]
    fn disk_file_open_corrupt_length_fails() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("bad.pages");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        assert!(matches!(
            DiskFile::open(&path),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn disk_grow_to_bulk_extension_is_equivalent() {
        let dir = tempfile::tempdir().unwrap();
        let f = DiskFile::create(dir.path().join("grow.pages")).unwrap();
        f.append_page(&Page::from_objects(&[obj(1)]).unwrap())
            .unwrap();
        // Grow past one chunk boundary to exercise the chunked path.
        let target = GROW_CHUNK_PAGES + 10;
        f.grow_to(target).unwrap();
        assert_eq!(f.num_pages(), target);
        assert_eq!(
            std::fs::metadata(f.path()).unwrap().len(),
            target * PAGE_SIZE as u64
        );
        assert_eq!(f.read_page(PageId(0)).unwrap().objects().unwrap().len(), 1);
        let tail = f.read_page(PageId(target - 1)).unwrap();
        assert_eq!(tail.record_count().unwrap(), 0);
        assert!(tail.verify_checksum());
        // Truncate back down and verify the physical size follows.
        f.truncate(2).unwrap();
        assert_eq!(
            std::fs::metadata(f.path()).unwrap().len(),
            2 * PAGE_SIZE as u64
        );
    }

    #[test]
    fn fault_injecting_file_fails_after_budget() {
        let f = FaultInjectingFile::new(Box::new(MemFile::new()), 3);
        let page = Page::from_objects(&[obj(1)]).unwrap();
        f.append_page(&page).unwrap();
        f.append_page(&page).unwrap();
        assert_eq!(f.writes_remaining(), 1);
        f.write_page(PageId(0), &page).unwrap();
        // Budget exhausted: writes fail, the inner file is untouched.
        assert!(f.append_page(&page).is_err());
        assert!(f.write_page(PageId(0), &page).is_err());
        assert!(f.grow_to(5).is_err());
        assert_eq!(f.num_pages(), 2);
        // Reads and truncation still work.
        assert_eq!(f.read_page(PageId(1)).unwrap().objects().unwrap().len(), 1);
        f.truncate(1).unwrap();
        assert_eq!(f.num_pages(), 1);
    }

    #[test]
    fn fault_hook_file_charges_per_family_sites() {
        use crate::fault::FaultPlan;
        let state = FaultState::from_plan(Some(FaultPlan::nth(SiteClass::DataWrite, 2)));
        let f = FaultHookFile::data(Box::new(MemFile::new()), Arc::clone(&state));
        let page = Page::from_objects(&[obj(1)]).unwrap();
        f.append_page(&page).unwrap();
        // Second write at data.write fires and latches.
        assert!(f.append_page(&page).is_err());
        assert!(f.write_page(PageId(0), &page).is_err());
        assert!(state.fired());
        // Other site families are unaffected.
        assert!(f.read_page(PageId(0)).is_ok());
        assert!(f.sync().is_ok());
        // A WAL-family wrapper over the same (latched) state also passes:
        // wal.write is a different class than the armed data.write.
        let w = FaultHookFile::wal(Box::new(MemFile::new()), state);
        assert!(w.append_page(&page).is_ok());
    }

    #[test]
    fn concurrent_appends_assign_distinct_pages() {
        let f = MemFile::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let f = &f;
                s.spawn(move || {
                    for _ in 0..100 {
                        f.append_page(&Page::empty()).unwrap();
                    }
                });
            }
        });
        assert_eq!(f.num_pages(), 400);
    }

    #[test]
    fn concurrent_reads_see_complete_pages() {
        let f = MemFile::new();
        for i in 0..20u64 {
            f.append_page(&Page::from_objects(&[obj(i), obj(i + 100)]).unwrap())
                .unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let f = &f;
                s.spawn(move || {
                    for i in 0..20u64 {
                        let page = f.read_page(PageId(i)).unwrap();
                        assert_eq!(page.objects().unwrap().len(), 2);
                    }
                });
            }
        });
    }
}
