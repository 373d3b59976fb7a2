//! The storage manager: the façade every index implementation talks to.
//!
//! A [`StorageManager`] owns a set of paged files, a buffer pool, the I/O
//! counters and the cost model. Indexes create files, append or rewrite
//! object pages and read page ranges; the manager classifies each device
//! access as sequential or random (the property the paper's evaluation hinges
//! on) and keeps the running [`IoStats`].
//!
//! # Concurrency
//!
//! Every operation takes `&self`: a single manager is shared by reference
//! across all query threads. Internally,
//!
//! * the file table is an `RwLock<Vec<Arc<…>>>` — reads of *different* files
//!   (and, for the in-memory backend, of different pages of the same file)
//!   proceed fully in parallel; creating a file takes the write lock briefly;
//! * the buffer pool is sharded (see [`BufferPool`]) and holds shared page
//!   frames: a miss reads from the device into the frame the pool then
//!   shares with the caller, a hit is a refcount bump;
//! * the I/O counters are atomics ([`crate::stats::AtomicIoStats`]);
//! * the sequential/random access classifier keeps the last-touched page in
//!   one atomic word. Under concurrency the classification is a best-effort
//!   approximation (two interleaved sequential scans can classify each
//!   other's accesses as random — exactly as interleaved streams would behave
//!   on a real spinning disk). Single-threaded runs classify identically to
//!   the pre-concurrency implementation, which the deterministic cost-model
//!   tests rely on.
//!
//! Page-level reads and writes are atomic; runs of pages belonging to one
//! partition are kept consistent by the per-dataset locks in `odyssey-core`.

use crate::buffer::BufferPool;
use crate::cost::CostModel;
use crate::error::{StorageError, StorageResult};
use crate::fault::{self, FaultPlan, FaultState, SiteClass};
use crate::file::{DiskFile, FaultHookFile, FaultInjectingFile, FileId, MemFile, PagedFile};
use crate::manifest::{Manifest, ManifestFileEntry, MANIFEST_FILE_NAME};
use crate::page::{pages_needed, Page, PageId, OBJECTS_PER_PAGE};
use crate::stats::{AtomicIoStats, IoStats};
use crate::sync::{Exclusive, LockClass, Shared};
use crate::wal::{MetaWal, WAL_FILE_NAME};
use odyssey_geom::SpatialObject;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where pages physically live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageBackend {
    /// Pages are kept in memory; timing comes from the cost model only.
    /// This is the default for experiments: it makes runs deterministic and
    /// independent of the host's disk and page cache.
    Memory,
    /// Pages are stored in real files inside the given directory.
    Disk(PathBuf),
}

/// Durability settings of a [`StorageManager`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Enables the manifest + metadata-WAL machinery. Requires the
    /// [`StorageBackend::Disk`] backend; construct through
    /// [`StorageManager::create`] (fresh store) or [`StorageManager::open`]
    /// (recover an existing one).
    pub durable: bool,
    /// Testing knob: the WAL's backing file fails (simulating a crash) after
    /// this many page writes, via a [`FaultInjectingFile`] wrapper. `None`
    /// disables fault injection.
    pub wal_write_limit: Option<u64>,
    /// Testing knob: a site-addressable fault plan — fail the Nth operation
    /// at a named [`SiteClass`] (`wal.sync`, `manifest.rename`, `dir.sync`,
    /// …), then keep failing, like a device that died. `None` disarms. The
    /// plan can also be (re)armed mid-run through
    /// [`StorageManager::faults`].
    pub fault: Option<FaultPlan>,
}

/// Configuration of a [`StorageManager`].
#[derive(Debug, Clone)]
pub struct StorageOptions {
    /// Physical backend.
    pub backend: StorageBackend,
    /// Buffer-pool capacity in pages (the memory budget of the paper:
    /// 1 GB ⇒ 262 144 pages of 4 KB). Zero disables caching.
    pub buffer_pages: usize,
    /// Cost model used to convert I/O counters into simulated seconds.
    pub cost_model: CostModel,
    /// Durability (manifest + WAL) settings.
    pub durability: DurabilityOptions,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            backend: StorageBackend::Memory,
            // Default scaled-down memory budget: 16 MiB of 4 KiB pages. The
            // experiment harness overrides this per run.
            buffer_pages: 4096,
            cost_model: CostModel::default(),
            durability: DurabilityOptions::default(),
        }
    }
}

impl StorageOptions {
    /// In-memory backend with the given buffer budget (pages).
    pub fn in_memory(buffer_pages: usize) -> Self {
        StorageOptions {
            backend: StorageBackend::Memory,
            buffer_pages,
            ..Default::default()
        }
    }

    /// On-disk backend rooted at `dir` with the given buffer budget (pages).
    pub fn on_disk<P: Into<PathBuf>>(dir: P, buffer_pages: usize) -> Self {
        StorageOptions {
            backend: StorageBackend::Disk(dir.into()),
            buffer_pages,
            ..Default::default()
        }
    }

    /// On-disk backend rooted at `dir` with the manifest + WAL machinery
    /// enabled. Pass to [`StorageManager::create`] (format a fresh store) or
    /// [`StorageManager::open`] (recover an existing one).
    pub fn durable<P: Into<PathBuf>>(dir: P, buffer_pages: usize) -> Self {
        StorageOptions {
            backend: StorageBackend::Disk(dir.into()),
            buffer_pages,
            durability: DurabilityOptions {
                durable: true,
                wal_write_limit: None,
                fault: None,
            },
            ..Default::default()
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Sets the WAL fault-injection budget (testing; see
    /// [`DurabilityOptions::wal_write_limit`]).
    pub fn with_wal_write_limit(mut self, limit: u64) -> Self {
        self.durability.wal_write_limit = Some(limit);
        self
    }

    /// Arms a site-addressable fault plan (testing; see
    /// [`DurabilityOptions::fault`]).
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.durability.fault = Some(plan);
        self
    }
}

/// What [`StorageManager::open`] recovered from a durable store's directory:
/// the checkpointed engine payload plus the WAL suffix the engine layer must
/// replay over it.
#[derive(Debug)]
pub struct RecoveredState {
    /// The engine snapshot stored in the manifest (opaque to storage).
    pub payload: Vec<u8>,
    /// Committed page count per file at checkpoint time, indexed by
    /// [`FileId`]. Files created after the checkpoint (present on disk but
    /// absent from the manifest) report 0 committed pages; only WAL records
    /// can extend them.
    pub file_pages: Vec<u64>,
    /// Files the manifest committed as live but that are missing on disk.
    /// The only legitimate cause is a deletion that happened after the
    /// checkpoint (the deletion's WAL record is durable *before* the unlink,
    /// so it is guaranteed to be in [`RecoveredState::wal_records`]); the
    /// engine layer verifies each one is deleted by the replayed records and
    /// treats anything else as corruption.
    pub missing_files: Vec<FileId>,
    /// The valid record prefix of the metadata WAL, in append order.
    pub wal_records: Vec<Vec<u8>>,
    /// `true` if the WAL ended in a torn record (crash mid-append); the
    /// records in [`RecoveredState::wal_records`] are still a consistent
    /// prefix.
    pub wal_truncated: bool,
}

/// Space accounting of one live paged file: its current size and how many of
/// those pages no metadata references anymore (orphaned by an append-only
/// rewrite, a refinement that laid its children elsewhere, …). The index
/// layer reports dead pages through [`StorageManager::note_dead_pages`]; the
/// compactor reads the ratio to decide when a copy-forward rewrite pays off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileSpaceStats {
    /// Pages the file currently occupies.
    pub pages: u64,
    /// Pages no longer referenced by any live metadata.
    pub dead_pages: u64,
}

impl FileSpaceStats {
    /// Pages still referenced (`pages - dead_pages`, saturating).
    #[inline]
    pub fn live_pages(&self) -> u64 {
        self.pages.saturating_sub(self.dead_pages)
    }

    /// Fraction of the file that is dead space (0.0 for an empty file).
    #[inline]
    pub fn dead_ratio(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.dead_pages as f64 / self.pages as f64
        }
    }
}

/// One registered file: its display name, the backend handle, and the
/// dead-page counter of the space accounting.
struct FileEntry {
    name: String,
    file: Box<dyn PagedFile>,
    dead_pages: AtomicU64,
}

/// On-disk path of a paged file: the `NNNN_` prefix *is* the file id, which
/// is how `open`'s directory scan recovers the table. The single source of
/// the naming format — `create_file`, `delete_file` and the scan must agree,
/// or a drifted unlink would silently leak the file (deletion swallows
/// `NotFound` for crash redo) and the next open would resurrect it.
fn paged_file_path(dir: &Path, id: FileId, name: &str) -> PathBuf {
    dir.join(format!("{:04}_{name}.pages", id.0))
}

/// Packed (file, page) cursor used by the sequential/random classifier.
///
/// Layout: bits 40.. hold `file id + 1` (so the zero word means "no previous
/// access"), bits 0..40 hold the page index truncated to 40 bits — files of
/// up to a trillion pages classify exactly; beyond that, a wrap-around can at
/// worst misclassify one access.
#[inline]
fn pack_cursor(file: FileId, page: u64) -> u64 {
    ((file.0 as u64 + 1) << 40) | (page & ((1 << 40) - 1))
}

/// Owns files, buffer pool, statistics and the cost model.
pub struct StorageManager {
    options: StorageOptions,
    /// File table indexed by [`FileId`]. A `None` slot is a tombstone left by
    /// [`StorageManager::delete_file`]: ids are **never reused**, so a stale
    /// cached frame or metadata handle can never alias a newer file.
    files: Shared<Vec<Option<Arc<FileEntry>>>>,
    buffer: BufferPool,
    stats: AtomicIoStats,
    last_read: AtomicU64,
    last_write: AtomicU64,
    /// Metadata WAL of a durable store (`None` for plain managers). The
    /// mutex serializes appends and checkpoint resets.
    wal: Option<Exclusive<MetaWal>>,
    /// Site-addressable fault-injection state. Disarmed (two relaxed atomic
    /// loads per charged operation) unless a [`FaultPlan`] is configured or
    /// armed mid-run; shared with every [`FaultHookFile`] wrapper this
    /// manager creates.
    faults: Arc<FaultState>,
}

impl std::fmt::Debug for StorageManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageManager")
            .field("files", &self.file_count())
            .field("stats", &self.stats())
            .field("buffer", &self.buffer)
            .finish()
    }
}

impl StorageManager {
    /// Creates a manager with the given options.
    ///
    /// # Panics
    /// Panics when the options request durability: a durable store is
    /// explicitly *created* ([`StorageManager::create`]) or *opened*
    /// ([`StorageManager::open`]) so that formatting an existing store can
    /// never happen by accident.
    pub fn new(options: StorageOptions) -> Self {
        assert!(
            !options.durability.durable,
            "durable stores are created with StorageManager::create or \
             opened with StorageManager::open"
        );
        let faults = FaultState::from_plan(options.durability.fault);
        Self::with_wal(options, None, faults)
    }

    fn with_wal(options: StorageOptions, wal: Option<MetaWal>, faults: Arc<FaultState>) -> Self {
        let buffer = BufferPool::new(options.buffer_pages);
        StorageManager {
            options,
            files: Shared::new(LockClass::StorageFiles, Vec::new()),
            buffer,
            stats: AtomicIoStats::default(),
            last_read: AtomicU64::new(0),
            last_write: AtomicU64::new(0),
            wal: wal.map(|w| Exclusive::new(LockClass::Wal, w)),
            faults,
        }
    }

    /// The fault-injection state: tests arm a [`FaultPlan`] mid-run
    /// (`manager.faults().arm(plan)`), and check whether it fired.
    pub fn faults(&self) -> &Arc<FaultState> {
        &self.faults
    }

    /// Convenience constructor: in-memory backend with the default options.
    pub fn in_memory() -> Self {
        StorageManager::new(StorageOptions::default())
    }

    /// The directory of a durable store (the options must have the disk
    /// backend and durability enabled).
    fn durable_dir(options: &StorageOptions) -> StorageResult<&Path> {
        let _cover = fault::enter("StorageManager::durable_dir");
        if !options.durability.durable {
            return Err(StorageError::Corrupt(
                "storage options do not enable durability".into(),
            ));
        }
        match &options.backend {
            StorageBackend::Disk(dir) => Ok(dir),
            StorageBackend::Memory => Err(StorageError::Corrupt(
                "a durable store requires the disk backend".into(),
            )),
        }
    }

    /// Opens (or creates) the WAL's backing file, applying the legacy
    /// write-budget wrapper when configured and then the site-addressable
    /// [`FaultHookFile`] (always — disarmed it only costs atomic loads, and
    /// it is what routes `wal.*` site charges and coverage recording).
    fn wal_file(
        options: &StorageOptions,
        dir: &Path,
        fresh: bool,
        faults: &Arc<FaultState>,
    ) -> StorageResult<Box<dyn PagedFile>> {
        let _cover = fault::enter("StorageManager::wal_file");
        let path = dir.join(WAL_FILE_NAME);
        let file: Box<dyn PagedFile> = if fresh || !path.exists() {
            Box::new(DiskFile::create(&path)?)
        } else {
            Box::new(DiskFile::open(&path)?)
        };
        let file = match options.durability.wal_write_limit {
            Some(limit) => Box::new(FaultInjectingFile::new(file, limit)),
            None => file,
        };
        Ok(Box::new(FaultHookFile::wal(file, Arc::clone(faults))))
    }

    /// Formats a **fresh** durable store in the options' directory: existing
    /// paged files, manifest and WAL in that directory are removed, and an
    /// empty WAL at epoch 0 is created. The store only becomes openable once
    /// the first checkpoint writes a manifest (the engine's durable
    /// constructor does this).
    pub fn create(options: StorageOptions) -> StorageResult<Self> {
        let _cover = fault::enter("StorageManager::create");
        let faults = FaultState::from_plan(options.durability.fault);
        let dir = Self::durable_dir(&options)?.to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".pages")
                || name == MANIFEST_FILE_NAME
                || name == format!("{MANIFEST_FILE_NAME}.tmp")
                || name == WAL_FILE_NAME
            {
                std::fs::remove_file(entry.path())?;
            }
        }
        let wal = MetaWal::create(Self::wal_file(&options, &dir, true, &faults)?, 0)?;
        Ok(Self::with_wal(options, Some(wal), faults))
    }

    /// Opens an existing durable store: reads and validates the manifest,
    /// reopens every paged file listed in the directory, and replays the
    /// metadata WAL's valid prefix. The storage layer hands the recovered
    /// payload and records to the engine layer (`SpaceOdyssey::open`), which
    /// applies them and truncates orphaned file tails.
    pub fn open(options: StorageOptions) -> StorageResult<(Self, RecoveredState)> {
        let _cover = fault::enter("StorageManager::open");
        let faults = FaultState::from_plan(options.durability.fault);
        let dir = Self::durable_dir(&options)?.to_path_buf();
        let manifest = Manifest::read(&dir, &faults)?.ok_or_else(|| {
            StorageError::Corrupt(format!(
                "{} is not a durable store (no {MANIFEST_FILE_NAME})",
                dir.display()
            ))
        })?;

        // Rebuild the file table from the directory: every data file encodes
        // `id_name.pages` in its file name, so files created after the last
        // checkpoint are found too.
        let mut found: Vec<(u32, String, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let file_name = entry.file_name();
            let file_name = file_name.to_string_lossy().into_owned();
            let Some(stem) = file_name.strip_suffix(".pages") else {
                continue;
            };
            let Some((id_part, name)) = stem.split_once('_') else {
                return Err(StorageError::Corrupt(format!(
                    "unrecognized paged file {file_name} in store directory"
                )));
            };
            let id: u32 = id_part
                .parse()
                .map_err(|_| StorageError::Corrupt(format!("bad file id prefix in {file_name}")))?;
            found.push((id, name.to_string(), entry.path()));
        }
        found.sort_by_key(|(id, _, _)| *id);
        // The table spans every id ever assigned: ids found on disk, ids the
        // manifest committed, and the manifest's recorded slot count (which
        // covers files created *and* deleted between two checkpoints, so
        // their ids are never handed out again). A gap is a tombstone left
        // by `delete_file`, not corruption.
        let slots = found
            .iter()
            .map(|(id, _, _)| *id as usize + 1)
            .chain(manifest.files.iter().map(|f| f.id as usize + 1))
            .chain(std::iter::once(manifest.file_slots as usize))
            .max()
            .unwrap_or(0);
        // A manifest-committed file missing on disk was deleted after the
        // checkpoint; the deletion's WAL record preceded the unlink, so the
        // engine layer verifies it during replay. With no same-epoch WAL to
        // replay there is no record that could justify the hole — corrupt.
        let mut missing_files: Vec<FileId> = Vec::new();
        for entry in &manifest.files {
            if !found
                .iter()
                .any(|(id, name, _)| *id == entry.id && *name == entry.name)
            {
                missing_files.push(FileId(entry.id));
            }
        }

        let mut entries: Vec<Option<Arc<FileEntry>>> = (0..slots).map(|_| None).collect();
        for (id, name, path) in &found {
            let file = Box::new(DiskFile::open(path)?);
            entries[*id as usize] = Some(Arc::new(FileEntry {
                name: name.clone(),
                file: Box::new(FaultHookFile::data(file, Arc::clone(&faults))),
                dead_pages: AtomicU64::new(0),
            }));
        }

        let (wal, recovery) = MetaWal::open(
            Self::wal_file(&options, &dir, false, &faults)?,
            manifest.epoch,
        )?;
        // A WAL from a different epoch predates (or post-dates a torn reset
        // of) the manifest: its records are already folded into the
        // checkpoint image and must not be replayed again.
        let (wal, wal_records, wal_truncated) = if recovery.epoch == manifest.epoch {
            (wal, recovery.records, recovery.torn_tail)
        } else {
            let mut wal = wal;
            wal.reset(manifest.epoch)?;
            (wal, Vec::new(), false)
        };
        if !missing_files.is_empty() && wal_records.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "file {} listed in the manifest is missing on disk and no WAL \
                 record can account for its deletion",
                missing_files[0].0
            )));
        }

        let mut file_pages = vec![0u64; entries.len()];
        for entry in &manifest.files {
            if let Some(slot) = file_pages.get_mut(entry.id as usize) {
                *slot = entry.pages;
            }
        }

        let manager = Self::with_wal(options, Some(wal), faults);
        *manager.files.write() = entries;
        Ok((
            manager,
            RecoveredState {
                payload: manifest.payload,
                file_pages,
                missing_files,
                wal_records,
                wal_truncated,
            },
        ))
    }

    /// Whether this manager logs metadata mutations (durable store).
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Appends one opaque metadata record to the WAL; the record is durable
    /// when this returns. A no-op on non-durable managers, so callers can
    /// log unconditionally.
    pub fn log_meta(&self, payload: &[u8]) -> StorageResult<()> {
        let _cover = fault::enter("StorageManager::log_meta");
        match &self.wal {
            Some(wal) => wal.lock().append(payload),
            None => Ok(()),
        }
    }

    /// Number of pages the metadata WAL currently occupies (0 when not
    /// durable); a checkpoint resets it.
    pub fn wal_pages(&self) -> u64 {
        self.wal.as_ref().map(|wal| wal.lock().pages()).unwrap_or(0)
    }

    /// Writes a checkpoint: the manifest (file table + the engine `payload`)
    /// is committed atomically and the WAL is reset for the next epoch.
    /// Callers must be quiescent (no concurrent mutations) — the engine's
    /// `checkpoint` documents the same requirement.
    pub fn checkpoint(&self, payload: &[u8]) -> StorageResult<()> {
        let _cover = fault::enter("StorageManager::checkpoint");
        let Some(wal) = &self.wal else {
            return Err(StorageError::Corrupt(
                "checkpoint on a non-durable storage manager".into(),
            ));
        };
        let dir = Self::durable_dir(&self.options)?.to_path_buf();
        let mut wal = wal.lock();
        let epoch = wal.epoch() + 1;
        let files = self.files.read();
        // Sync every data file before committing a manifest that references
        // its pages — this covers writes that never produce a WAL record
        // (seed raw files written before the first checkpoint, in
        // particular), completing the data-before-commit ordering.
        for entry in files.iter().flatten() {
            entry.file.sync()?;
        }
        let manifest = Manifest {
            epoch,
            file_slots: files.len() as u64,
            files: files
                .iter()
                .enumerate()
                .filter_map(|(id, slot)| slot.as_ref().map(|e| (id, e)))
                .map(|(id, e)| ManifestFileEntry {
                    id: id as u32,
                    name: e.name.clone(),
                    pages: e.file.num_pages(),
                })
                .collect(),
            payload: payload.to_vec(),
        };
        drop(files);
        manifest.write_atomic(&dir, &self.faults)?;
        wal.reset(epoch)
    }

    /// Flushes a file's written pages to the device. Part of the durability
    /// write ordering — a data file is synced *before* the WAL record that
    /// references its pages is appended — and therefore a no-op on
    /// non-durable managers, which make no crash promises.
    pub fn sync_file(&self, file: FileId) -> StorageResult<()> {
        let _cover = fault::enter("StorageManager::sync_file");
        if self.wal.is_none() {
            return Ok(());
        }
        self.entry(file)?.file.sync()
    }

    /// Shrinks a file to at most `pages` pages, dropping cached copies of
    /// the removed tail. Recovery uses this to cut orphaned appends.
    pub fn truncate_file(&self, file: FileId, pages: u64) -> StorageResult<()> {
        let _cover = fault::enter("StorageManager::truncate_file");
        let entry = self.entry(file)?;
        let before = entry.file.num_pages();
        entry.file.truncate(pages)?;
        for page in pages..before {
            self.buffer.invalidate((file, PageId(page)));
        }
        Ok(())
    }

    /// The configured options.
    pub fn options(&self) -> &StorageOptions {
        &self.options
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.options.cost_model
    }

    /// Current I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Buffer-pool introspection (resident pages, hits, evictions).
    pub fn buffer(&self) -> &BufferPool {
        &self.buffer
    }

    /// Simulated seconds for everything since the given snapshot.
    pub fn seconds_since(&self, snapshot: &IoStats) -> f64 {
        self.options
            .cost_model
            .seconds(&self.stats().since(snapshot).0)
    }

    /// Simulated seconds for all activity so far.
    pub fn total_seconds(&self) -> f64 {
        self.options.cost_model.seconds(&self.stats())
    }

    /// Records CPU work (object intersection tests) performed by an index on
    /// data it already had in memory, so that pure-CPU filtering is charged.
    pub fn note_objects_scanned(&self, n: u64) {
        AtomicIoStats::add(&self.stats.objects_scanned, n);
    }

    /// Records `n` objects accepted through the online-ingestion path. The
    /// page writes the ingest performs are charged separately (and
    /// automatically) as writes; this counter tracks arrival volume so
    /// ingest-heavy workloads can be reported per phase.
    pub fn note_objects_ingested(&self, n: u64) {
        AtomicIoStats::add(&self.stats.objects_ingested, n);
    }

    /// Records a query answered entirely from the engine's result cache.
    pub fn note_cache_hit(&self) {
        AtomicIoStats::add(&self.stats.cache_hits, 1);
    }

    /// Records a query that found no usable result-cache entry.
    pub fn note_cache_miss(&self) {
        AtomicIoStats::add(&self.stats.cache_misses, 1);
    }

    /// Records a query that reused the fresh components of a cache entry and
    /// re-executed only the stale remainder.
    pub fn note_cache_partial_reuse(&self) {
        AtomicIoStats::add(&self.stats.cache_partial_reuses, 1);
    }

    /// Records `n` object records an early-exiting execution provably skipped
    /// (kNN mindist pruning, Count metadata short-circuits).
    pub fn note_rows_skipped(&self, n: u64) {
        AtomicIoStats::add(&self.stats.rows_skipped_by_early_exit, n);
    }

    /// Records maintenance jobs accepted into the scheduler queue and raises
    /// the queue-depth high-water mark to the depth after the enqueue.
    pub fn note_maintenance_enqueued(&self, n: u64, queue_depth: u64) {
        AtomicIoStats::add(&self.stats.maintenance_jobs_enqueued, n);
        AtomicIoStats::raise(&self.stats.maintenance_queue_peak, queue_depth);
    }

    /// Records maintenance jobs run to completion.
    pub fn note_maintenance_completed(&self, n: u64) {
        AtomicIoStats::add(&self.stats.maintenance_jobs_completed, n);
    }

    /// Records maintenance jobs re-enqueued by recovery from checkpointed
    /// progress.
    pub fn note_maintenance_resumed(&self, n: u64) {
        AtomicIoStats::add(&self.stats.maintenance_jobs_resumed, n);
    }

    /// Records pages written by maintenance job steps.
    pub fn note_maintenance_pages(&self, n: u64) {
        AtomicIoStats::add(&self.stats.maintenance_pages_written, n);
    }

    /// Drops all cached pages, mirroring the paper's "OS caches and disk
    /// buffers are cleared before each query" methodology when desired.
    pub fn clear_cache(&self) {
        self.buffer.clear();
    }

    /// Creates a new, empty paged file and returns its id. `name` is used for
    /// the on-disk backend's file name and for debugging.
    pub fn create_file(&self, name: &str) -> StorageResult<FileId> {
        let _cover = fault::enter("StorageManager::create_file");
        let mut files = self.files.write();
        let id = FileId(files.len() as u32);
        let file: Box<dyn PagedFile> = match &self.options.backend {
            StorageBackend::Memory => Box::new(MemFile::new()),
            StorageBackend::Disk(dir) => {
                std::fs::create_dir_all(dir)?;
                let file = DiskFile::create(paged_file_path(dir, id, name))?;
                if self.wal.is_some() {
                    // A durable store's file table is recovered from the
                    // directory listing, so the new directory entry must
                    // survive power loss before any WAL record names the id.
                    fault::fs_sync_dir(&self.faults, SiteClass::DirSync, dir)?;
                    Box::new(FaultHookFile::data(
                        Box::new(file),
                        Arc::clone(&self.faults),
                    ))
                } else {
                    Box::new(file)
                }
            }
        };
        files.push(Some(Arc::new(FileEntry {
            name: name.to_string(),
            file,
            dead_pages: AtomicU64::new(0),
        })));
        AtomicIoStats::add(&self.stats.files_created, 1);
        Ok(id)
    }

    /// Deletes a file: its table slot becomes a permanent tombstone (the id
    /// is never handed out again), every buffer frame of the file is
    /// invalidated, and — on the disk backend — the backing file is removed
    /// and the directory fsynced so the deletion survives power loss.
    /// Returns the number of pages the file occupied (the reclaimed space).
    ///
    /// Idempotent: deleting an already-deleted file returns `Ok(0)`, which is
    /// what makes crash-recovery redo (replay a deletion record whose unlink
    /// already happened) safe. On durable managers, callers must log the WAL
    /// record that implies the deletion *before* calling — the record is
    /// what recovery uses to tell a legitimate post-checkpoint deletion from
    /// a corrupt store.
    pub fn delete_file(&self, file: FileId) -> StorageResult<u64> {
        let _cover = fault::enter("StorageManager::delete_file");
        let entry = {
            let mut files = self.files.write();
            let slot = files
                .get_mut(file.index())
                .ok_or(StorageError::UnknownFile(file.0))?;
            match slot.take() {
                Some(entry) => entry,
                None => return Ok(0), // already deleted
            }
        };
        // Invalidate *after* the tombstone is in place: a concurrent reader
        // that re-inserts a frame mid-invalidation would have had to resolve
        // the id through the table first, which now refuses it.
        self.buffer.invalidate_file(file);
        let pages = entry.file.num_pages();
        if let StorageBackend::Disk(dir) = &self.options.backend {
            let path = paged_file_path(dir, file, &entry.name);
            fault::fs_remove_file(&self.faults, SiteClass::DataUnlink, &path)?;
            if self.wal.is_some() {
                // The durable file table is recovered from the directory
                // listing; the removal must be durable before the next
                // checkpoint claims the file no longer exists.
                fault::fs_sync_dir(&self.faults, SiteClass::DirSync, dir)?;
            }
        }
        AtomicIoStats::add(&self.stats.files_deleted, 1);
        Ok(pages)
    }

    /// Whether the file id maps to a live (not deleted, in-range) file.
    pub fn file_exists(&self, file: FileId) -> bool {
        self.files
            .read()
            .get(file.index())
            .is_some_and(Option::is_some)
    }

    /// Records that `n` pages of `file` lost their last metadata reference
    /// (an append-only overflow rewrite, a refinement that laid children
    /// elsewhere, …). Feeds [`StorageManager::space_stats`], which the
    /// compactor polls. A no-op for deleted files.
    pub fn note_dead_pages(&self, file: FileId, n: u64) {
        if n == 0 {
            return;
        }
        if let Ok(entry) = self.entry(file) {
            entry.dead_pages.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Overwrites the dead-page counter of `file` (recovery recomputes dead
    /// space as committed size minus metadata-referenced pages, since the
    /// live counters die with the process).
    pub fn set_dead_pages(&self, file: FileId, n: u64) {
        if let Ok(entry) = self.entry(file) {
            entry.dead_pages.store(n, Ordering::Relaxed);
        }
    }

    /// Space accounting of one live file (size + dead pages).
    pub fn space_stats(&self, file: FileId) -> StorageResult<FileSpaceStats> {
        let _cover = fault::enter("StorageManager::space_stats");
        let entry = self.entry(file)?;
        Ok(FileSpaceStats {
            pages: entry.file.num_pages(),
            dead_pages: entry.dead_pages.load(Ordering::Relaxed),
        })
    }

    /// Total pages across all live files — the store's physical footprint
    /// (the numerator of the space-amplification metric).
    pub fn total_file_pages(&self) -> u64 {
        self.files
            .read()
            .iter()
            .flatten()
            .map(|e| e.file.num_pages())
            .sum()
    }

    /// Total dead pages across all live files.
    pub fn total_dead_pages(&self) -> u64 {
        self.files
            .read()
            .iter()
            .flatten()
            .map(|e| e.dead_pages.load(Ordering::Relaxed))
            .sum()
    }

    fn entry(&self, file: FileId) -> StorageResult<Arc<FileEntry>> {
        let _cover = fault::enter("StorageManager::entry");
        self.files
            .read()
            .get(file.index())
            .and_then(|slot| slot.clone())
            .ok_or(StorageError::UnknownFile(file.0))
    }

    /// Name the file was created with.
    pub fn file_name(&self, file: FileId) -> StorageResult<String> {
        Ok(self.entry(file)?.name.clone())
    }

    /// Names of all live (not deleted) files, in creation order.
    pub fn file_names(&self) -> Vec<String> {
        self.files
            .read()
            .iter()
            .flatten()
            .map(|e| e.name.clone())
            .collect()
    }

    /// Number of file-table slots assigned so far (deleted files keep their
    /// slot as a tombstone, so this is "ids ever handed out", not the live
    /// count).
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }

    /// Number of pages in a file.
    pub fn num_pages(&self, file: FileId) -> StorageResult<u64> {
        Ok(self.entry(file)?.file.num_pages())
    }

    /// Classifies one access against the packed `(file, page)` cursor and
    /// advances the cursor.
    #[inline]
    fn classify(cursor: &AtomicU64, file: FileId, page: u64) -> bool {
        let prev = cursor.swap(pack_cursor(file, page), Ordering::Relaxed);
        page > 0 && prev == pack_cursor(file, page - 1)
    }

    /// Reads one page, going through the buffer pool and classifying the
    /// device access as sequential or random. Every page that comes off the
    /// device is verified against its header CRC-32; a mismatch surfaces as
    /// [`StorageError::CorruptPage`] (buffer hits were verified when they
    /// were first read or written).
    pub fn read_page(&self, file: FileId, page: PageId) -> StorageResult<Page> {
        if let Some(p) = self.buffer.get((file, page)) {
            AtomicIoStats::add(&self.stats.buffer_hits, 1);
            return Ok(p);
        }
        let entry = self.entry(file)?;
        let data = entry.file.read_page(page)?;
        if !data.verify_checksum() {
            return Err(StorageError::CorruptPage {
                file: file.0,
                page: page.0,
            });
        }
        if Self::classify(&self.last_read, file, page.0) {
            AtomicIoStats::add(&self.stats.sequential_reads, 1);
        } else {
            AtomicIoStats::add(&self.stats.random_reads, 1);
        }
        self.buffer.insert((file, page), data.clone());
        Ok(data)
    }

    /// Charges one device write against the sequential/random classifier.
    fn note_write(&self, file: FileId, page: u64) {
        if Self::classify(&self.last_write, file, page) {
            AtomicIoStats::add(&self.stats.sequential_writes, 1);
        } else {
            AtomicIoStats::add(&self.stats.random_writes, 1);
        }
    }

    /// Overwrites one page with an already stamped image, write-through to
    /// the buffer pool (which then shares `data`'s frame).
    fn write_stamped(
        &self,
        entry: &FileEntry,
        file: FileId,
        page: PageId,
        data: &Page,
    ) -> StorageResult<()> {
        entry.file.write_page(page, data)?;
        self.note_write(file, page.0);
        self.buffer.update_if_resident((file, page), data);
        Ok(())
    }

    /// Appends an already stamped page image at the end of a file.
    fn append_stamped(
        &self,
        entry: &FileEntry,
        file: FileId,
        data: &Page,
    ) -> StorageResult<PageId> {
        let id = entry.file.append_page(data)?;
        // Appends at the end of a file are sequential whenever the previous
        // write targeted the preceding page of the same file.
        self.note_write(file, id.0);
        Ok(id)
    }

    /// Overwrites one page (write-through to the buffer pool). The page
    /// reaches the device with a valid header CRC-32: a page whose slot is
    /// already right (anything built by [`Page::from_objects`] or
    /// [`Page::empty`]) is written as is, a hand-mutated one is restamped.
    pub fn write_page(&self, file: FileId, page: PageId, data: &Page) -> StorageResult<()> {
        self.write_stamped(&*self.entry(file)?, file, page, &data.stamped())
    }

    /// Appends one page at the end of a file, with a valid header CRC-32
    /// (see [`StorageManager::write_page`]).
    pub fn append_page(&self, file: FileId, data: &Page) -> StorageResult<PageId> {
        self.append_stamped(&*self.entry(file)?, file, &data.stamped())
    }

    /// Grows a file with empty pages up to `pages` pages through the
    /// backend's bulk extension (a single `set_len`-style chunked write for
    /// [`DiskFile`], one `resize` for [`crate::MemFile`]), charging the same
    /// per-page write classification the old append-one-page-at-a-time path
    /// produced so the deterministic cost model is unchanged.
    pub fn grow_to(&self, file: FileId, pages: u64) -> StorageResult<()> {
        let entry = self.entry(file)?;
        let current = entry.file.num_pages();
        if pages <= current {
            return Ok(());
        }
        entry.file.grow_to(pages)?;
        for p in current..pages {
            self.note_write(file, p);
        }
        Ok(())
    }

    /// Reads every object stored in the page range `[range.start, range.end)`
    /// of `file`, in page order.
    pub fn read_objects(
        &self,
        file: FileId,
        range: Range<u64>,
    ) -> StorageResult<Vec<SpatialObject>> {
        let pages = range.end.saturating_sub(range.start) as usize;
        let mut out = Vec::with_capacity(pages * OBJECTS_PER_PAGE);
        self.read_objects_into(file, range, &mut out)?;
        Ok(out)
    }

    /// Like [`StorageManager::read_objects`] but appends into `out`.
    pub fn read_objects_into(
        &self,
        file: FileId,
        range: Range<u64>,
        out: &mut Vec<SpatialObject>,
    ) -> StorageResult<usize> {
        let mut total = 0usize;
        for p in range {
            let page = self.read_page(file, PageId(p))?;
            let n = page.objects_into(out)?;
            total += n;
            AtomicIoStats::add(&self.stats.objects_scanned, n as u64);
        }
        Ok(total)
    }

    /// Appends the objects as densely packed pages at the end of `file`,
    /// returning the page range they occupy. Each page is encoded through
    /// one scratch page and stamped once, on its way to the device.
    ///
    /// The pages of one call are appended back to back; callers that append
    /// to the same file from several threads must serialize those calls (the
    /// engine's per-dataset and merger locks do) or the runs will interleave.
    pub fn append_objects(
        &self,
        file: FileId,
        objects: &[SpatialObject],
    ) -> StorageResult<Range<u64>> {
        let entry = self.entry(file)?;
        let start = entry.file.num_pages();
        let mut scratch = Page::zeroed();
        for chunk in objects.chunks(OBJECTS_PER_PAGE) {
            scratch.set_objects(chunk)?;
            self.append_stamped(&entry, file, &scratch)?;
        }
        AtomicIoStats::add(&self.stats.objects_written, objects.len() as u64);
        Ok(start..entry.file.num_pages())
    }

    /// Rewrites the objects into pages starting at `start_page`, growing the
    /// file if needed, and returns the page range used. Used by Space
    /// Odyssey's in-place partition refinement, which reuses the partition's
    /// old pages and appends any overflow at the end of the file.
    pub fn write_objects_at(
        &self,
        file: FileId,
        start_page: u64,
        objects: &[SpatialObject],
    ) -> StorageResult<Range<u64>> {
        let end = start_page + pages_needed(objects.len());
        self.grow_to(file, end)?;
        let entry = self.entry(file)?;
        let mut scratch = Page::zeroed();
        for (page, chunk) in (start_page..end).zip(objects.chunks(OBJECTS_PER_PAGE)) {
            scratch.set_objects(chunk)?;
            self.write_stamped(&entry, file, PageId(page), &scratch)?;
        }
        AtomicIoStats::add(&self.stats.objects_written, objects.len() as u64);
        Ok(start_page..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{pack_objects, PAGE_SIZE};
    use odyssey_geom::{Aabb, DatasetId, ObjectId, Vec3};

    fn objs(n: u64) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    DatasetId(0),
                    Aabb::from_min_max(Vec3::splat(i as f64), Vec3::splat(i as f64 + 1.0)),
                )
            })
            .collect()
    }

    #[test]
    fn create_files_and_names() {
        let m = StorageManager::in_memory();
        let a = m.create_file("alpha").unwrap();
        let b = m.create_file("beta").unwrap();
        assert_eq!(m.file_count(), 2);
        assert_eq!(m.file_name(a).unwrap(), "alpha");
        assert_eq!(m.file_name(b).unwrap(), "beta");
        assert_eq!(
            m.file_names(),
            vec!["alpha".to_string(), "beta".to_string()]
        );
        assert_eq!(m.stats().files_created, 2);
        assert!(m.file_name(FileId(9)).is_err());
        assert!(m.num_pages(FileId(9)).is_err());
    }

    #[test]
    fn append_and_read_objects_roundtrip() {
        let m = StorageManager::in_memory();
        let f = m.create_file("data").unwrap();
        let data = objs(200);
        let range = m.append_objects(f, &data).unwrap();
        assert_eq!(range, 0..4); // 200 objects / 63 per page = 4 pages
        let back = m.read_objects(f, range).unwrap();
        assert_eq!(back, data);
        assert_eq!(m.stats().objects_written, 200);
        assert!(m.stats().objects_scanned >= 200);
    }

    #[test]
    fn sequential_vs_random_classification() {
        let m = StorageManager::new(StorageOptions::in_memory(0)); // no cache
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(63 * 10)).unwrap();
        let before = m.stats();
        // Read pages 0..10 in order: first access random, rest sequential.
        for p in 0..10u64 {
            m.read_page(f, PageId(p)).unwrap();
        }
        let d = m.stats().since(&before).0;
        assert_eq!(d.random_reads, 1);
        assert_eq!(d.sequential_reads, 9);

        let before = m.stats();
        // Read every other page: all random.
        for p in (0..10u64).step_by(2) {
            m.read_page(f, PageId(p)).unwrap();
        }
        let d = m.stats().since(&before).0;
        assert_eq!(d.random_reads, 5);
        assert_eq!(d.sequential_reads, 0);
    }

    #[test]
    fn appends_are_sequential_writes() {
        let m = StorageManager::new(StorageOptions::in_memory(0));
        let f = m.create_file("data").unwrap();
        let before = m.stats();
        m.append_objects(f, &objs(63 * 5)).unwrap();
        let d = m.stats().since(&before).0;
        assert_eq!(d.random_writes, 1, "only the first append seeks");
        assert_eq!(d.sequential_writes, 4);
    }

    #[test]
    fn buffer_hits_avoid_device_reads() {
        let m = StorageManager::new(StorageOptions::in_memory(64));
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(63)).unwrap();
        m.read_page(f, PageId(0)).unwrap();
        let before = m.stats();
        m.read_page(f, PageId(0)).unwrap();
        let d = m.stats().since(&before).0;
        assert_eq!(d.pages_read(), 0);
        assert_eq!(d.buffer_hits, 1);
    }

    #[test]
    fn clear_cache_forces_rereads() {
        let m = StorageManager::new(StorageOptions::in_memory(64));
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(63)).unwrap();
        m.read_page(f, PageId(0)).unwrap();
        m.clear_cache();
        let before = m.stats();
        m.read_page(f, PageId(0)).unwrap();
        let d = m.stats().since(&before).0;
        assert_eq!(d.pages_read(), 1);
        assert_eq!(d.buffer_hits, 0);
    }

    #[test]
    fn write_objects_at_reuses_and_grows() {
        let m = StorageManager::in_memory();
        let f = m.create_file("data").unwrap();
        // Initially two pages worth of objects.
        m.append_objects(f, &objs(100)).unwrap();
        assert_eq!(m.num_pages(f).unwrap(), 2);
        // Rewrite starting at page 0 with more data than fits in two pages.
        let range = m.write_objects_at(f, 0, &objs(300)).unwrap();
        assert_eq!(range, 0..5);
        assert_eq!(m.num_pages(f).unwrap(), 5);
        let back = m.read_objects(f, 0..5).unwrap();
        assert_eq!(back.len(), 300);
    }

    #[test]
    fn write_page_out_of_range_errors() {
        let m = StorageManager::in_memory();
        let f = m.create_file("data").unwrap();
        assert!(m.write_page(f, PageId(3), &Page::empty()).is_err());
    }

    #[test]
    fn simulated_seconds_accumulate() {
        let m = StorageManager::new(StorageOptions::in_memory(0));
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(63 * 20)).unwrap();
        let snap = m.stats();
        assert!(m.total_seconds() > 0.0);
        for p in 0..20u64 {
            m.read_page(f, PageId(p)).unwrap();
        }
        let t = m.seconds_since(&snap);
        assert!(t > 0.0);
        assert!(m.total_seconds() > t);
    }

    #[test]
    fn disk_backend_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::new(StorageOptions::on_disk(dir.path(), 16));
        let f = m.create_file("data").unwrap();
        let data = objs(150);
        let range = m.append_objects(f, &data).unwrap();
        let back = m.read_objects(f, range).unwrap();
        assert_eq!(back, data);
        // Actual file exists on disk with the expected size.
        let entries: Vec<_> = std::fs::read_dir(dir.path()).unwrap().collect();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn grow_to_is_idempotent() {
        let m = StorageManager::in_memory();
        let f = m.create_file("data").unwrap();
        m.grow_to(f, 4).unwrap();
        m.grow_to(f, 2).unwrap();
        assert_eq!(m.num_pages(f).unwrap(), 4);
    }

    #[test]
    fn note_objects_scanned_feeds_cost() {
        let m = StorageManager::in_memory();
        let before = m.total_seconds();
        m.note_objects_scanned(1_000_000);
        assert!(m.total_seconds() > before);
    }

    #[test]
    fn shared_reference_use_across_threads() {
        let m = StorageManager::new(StorageOptions::in_memory(2048));
        // One file per "dataset"; readers of distinct files run in parallel.
        let files: Vec<FileId> = (0..4)
            .map(|i| {
                let f = m.create_file(&format!("ds{i}")).unwrap();
                m.append_objects(f, &objs(63 * 8)).unwrap();
                f
            })
            .collect();
        std::thread::scope(|s| {
            for &f in &files {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..10 {
                        let objects = m.read_objects(f, 0..8).unwrap();
                        assert_eq!(objects.len(), 63 * 8);
                    }
                });
            }
        });
        // Every page read is accounted for: 4 files × 10 rounds × 8 pages.
        let total = m.stats();
        assert_eq!(total.pages_read() + total.buffer_hits, 4 * 10 * 8);
    }

    #[test]
    fn device_bit_flips_surface_as_corrupt_page() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::new(StorageOptions::on_disk(dir.path(), 16));
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(100)).unwrap();
        // Sanity: clean reads verify.
        m.clear_cache();
        assert_eq!(m.read_objects(f, 0..2).unwrap().len(), 100);
        // Flip one payload bit of page 1 directly on the medium.
        let path = dir.path().join("0000_data.pages");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_SIZE + 100] ^= 0x04;
        std::fs::write(&path, bytes).unwrap();
        m.clear_cache();
        assert_eq!(m.read_objects(f, 0..1).unwrap().len(), 63);
        assert!(matches!(
            m.read_page(f, PageId(1)),
            Err(StorageError::CorruptPage { file: 0, page: 1 })
        ));
        // A cached page is trusted; re-reading page 0 still works.
        assert!(m.read_page(f, PageId(0)).is_ok());
    }

    #[test]
    fn bulk_writers_read_back_through_the_device_check() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::new(StorageOptions::on_disk(dir.path(), 16));
        let f = m.create_file("data").unwrap();
        // Both bulk writers stamp each page once and hand it to the device
        // unverified; a cold read-back (which does verify) must accept them.
        m.append_objects(f, &objs(100)).unwrap();
        m.write_objects_at(f, 1, &objs(150)).unwrap();
        m.clear_cache();
        let mut back = Vec::new();
        assert_eq!(m.read_objects_into(f, 0..4, &mut back).unwrap(), 63 + 150);
        // The on-disk pages are exactly what `Page::from_objects` builds.
        let path = dir.path().join("0000_data.pages");
        let mut bytes = std::fs::read(&path).unwrap();
        for (i, page) in pack_objects(&objs(150)).iter().enumerate() {
            let at = (1 + i) * PAGE_SIZE;
            assert_eq!(&bytes[at..at + PAGE_SIZE], page.as_bytes(), "page {i}");
        }
        // A bit flipped in a bulk-written page is caught on every read path.
        bytes[2 * PAGE_SIZE + 777] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();
        m.clear_cache();
        assert!(matches!(
            m.read_page(f, PageId(2)),
            Err(StorageError::CorruptPage { file: 0, page: 2 })
        ));
        assert!(matches!(
            m.read_objects_into(f, 0..4, &mut back),
            Err(StorageError::CorruptPage { file: 0, page: 2 })
        ));
        assert!(matches!(
            m.read_objects(f, 2..3),
            Err(StorageError::CorruptPage { file: 0, page: 2 })
        ));
    }

    #[test]
    fn mutating_a_read_page_never_changes_the_resident_frame() {
        let dir = tempfile::tempdir().unwrap();
        for options in [
            StorageOptions::in_memory(16),
            StorageOptions::on_disk(dir.path(), 16),
        ] {
            let m = StorageManager::new(options);
            let f = m.create_file("data").unwrap();
            m.append_objects(f, &objs(63)).unwrap();
            let pristine = m.read_page(f, PageId(0)).unwrap();
            // The miss above made the page resident; scribble over the handle
            // a second (hit) read returns.
            let mut scribbled = m.read_page(f, PageId(0)).unwrap();
            scribbled.as_bytes_mut()[PAGE_SIZE / 2] ^= 0xFF;
            assert_ne!(scribbled, pristine);
            // Neither the resident frame nor the device saw it.
            assert_eq!(m.read_page(f, PageId(0)).unwrap(), pristine);
            m.clear_cache();
            let reread = m.read_page(f, PageId(0)).unwrap();
            assert_eq!(reread, pristine);
            assert_eq!(reread.objects().unwrap(), objs(63));
        }
    }

    #[test]
    fn hand_mutated_pages_land_with_a_valid_checksum() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::new(StorageOptions::on_disk(dir.path(), 16));
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(2 * 63)).unwrap();
        // Resident, so the write-through below replaces a pool frame too.
        m.read_page(f, PageId(0)).unwrap();
        let mut page = Page::from_objects(&objs(3)).unwrap();
        page.as_bytes_mut()[8] = 0x5A; // reserved header byte; slot now stale
        assert!(!page.verify_checksum());
        m.write_page(f, PageId(0), &page).unwrap();
        assert_eq!(m.append_page(f, &page).unwrap(), PageId(2));
        assert!(!page.verify_checksum(), "the caller's page is left alone");
        // The pool serves the restamped image…
        let resident = m.read_page(f, PageId(0)).unwrap();
        assert!(resident.verify_checksum());
        assert_eq!(resident.as_bytes()[8], 0x5A);
        // …and so does the device, for both the overwrite and the append.
        m.clear_cache();
        for p in [0, 2] {
            let cold = m.read_page(f, PageId(p)).unwrap();
            assert_eq!(cold, resident);
            assert_eq!(cold.objects().unwrap(), objs(3));
        }
        // An already valid page is written as is.
        m.write_page(f, PageId(1), &resident).unwrap();
        m.clear_cache();
        assert_eq!(m.read_page(f, PageId(1)).unwrap(), resident);
    }

    #[test]
    fn bulk_grow_matches_per_append_classification() {
        // The bulk grow_to must charge exactly what the old one-append-per-
        // page implementation charged, so the deterministic cost model is
        // unchanged.
        let m = StorageManager::new(StorageOptions::in_memory(0));
        let f = m.create_file("data").unwrap();
        let before = m.stats();
        m.grow_to(f, 12).unwrap();
        let d = m.stats().since(&before).0;
        assert_eq!(d.random_writes, 1, "only the initial placement seeks");
        assert_eq!(d.sequential_writes, 11);
        // Grown pages read back as valid, checksummed empty pages.
        assert_eq!(
            m.read_page(f, PageId(11)).unwrap().record_count().unwrap(),
            0
        );
    }

    #[test]
    fn truncate_file_drops_tail_and_cache() {
        let m = StorageManager::new(StorageOptions::in_memory(64));
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(63 * 4)).unwrap();
        for p in 0..4u64 {
            m.read_page(f, PageId(p)).unwrap();
        }
        m.truncate_file(f, 2).unwrap();
        assert_eq!(m.num_pages(f).unwrap(), 2);
        assert!(m.read_page(f, PageId(2)).is_err());
        // The cached copies of the dropped pages are gone too.
        let before = m.stats();
        m.read_page(f, PageId(1)).unwrap();
        assert_eq!(m.stats().since(&before).0.buffer_hits, 1);
    }

    #[test]
    fn durable_create_checkpoint_open_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::create(StorageOptions::durable(dir.path(), 16)).unwrap();
        assert!(m.wal_enabled());
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(100)).unwrap();
        m.log_meta(b"record-one").unwrap();
        m.checkpoint(b"engine-payload").unwrap();
        m.log_meta(b"record-two").unwrap();
        // A second file created after the checkpoint is discovered on open.
        let g = m.create_file("late").unwrap();
        m.append_objects(g, &objs(10)).unwrap();
        drop(m);

        let (m2, rec) = StorageManager::open(StorageOptions::durable(dir.path(), 16)).unwrap();
        assert_eq!(rec.payload, b"engine-payload");
        assert_eq!(rec.wal_records, vec![b"record-two".to_vec()]);
        assert!(!rec.wal_truncated);
        assert_eq!(
            rec.file_pages,
            vec![2, 0],
            "late file has no committed pages"
        );
        assert_eq!(m2.file_count(), 2);
        assert_eq!(m2.file_name(FileId(0)).unwrap(), "data");
        assert_eq!(m2.file_name(FileId(1)).unwrap(), "late");
        assert_eq!(m2.read_objects(FileId(0), 0..2).unwrap(), objs(100));
        // Non-durable managers refuse checkpoints; opening a plain directory
        // refuses too.
        let plain = StorageManager::in_memory();
        assert!(plain.checkpoint(b"x").is_err());
        assert!(plain.log_meta(b"x").is_ok(), "log_meta is a silent no-op");
        let empty = tempfile::tempdir().unwrap();
        assert!(StorageManager::open(StorageOptions::durable(empty.path(), 16)).is_err());
    }

    #[test]
    fn stale_epoch_wal_is_ignored_on_open() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::create(StorageOptions::durable(dir.path(), 16)).unwrap();
        m.create_file("data").unwrap();
        m.log_meta(b"pre-checkpoint").unwrap();
        m.checkpoint(b"p1").unwrap();
        drop(m);
        // Forge a WAL reset failure: restore a log whose epoch is one behind
        // the manifest by re-creating it at the stale epoch with a record.
        let wal_path = dir.path().join(WAL_FILE_NAME);
        let wal = MetaWal::create(Box::new(DiskFile::create(&wal_path).unwrap()), 0).unwrap();
        wal.append(b"stale-record").unwrap();
        drop(wal);
        let (_, rec) = StorageManager::open(StorageOptions::durable(dir.path(), 16)).unwrap();
        assert!(
            rec.wal_records.is_empty(),
            "records from a stale epoch must not replay"
        );
    }

    #[test]
    fn delete_file_reclaims_space_and_updates_accounting() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::new(StorageOptions::on_disk(dir.path(), 16));
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(200)).unwrap();
        assert_eq!(m.space_stats(f).unwrap().pages, 4);
        m.note_dead_pages(f, 3);
        let s = m.space_stats(f).unwrap();
        assert_eq!(s.dead_pages, 3);
        assert_eq!(s.live_pages(), 1);
        assert!((s.dead_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(m.total_file_pages(), 4);
        assert_eq!(m.total_dead_pages(), 3);
        // Deletion removes the physical file and the accounting.
        assert_eq!(m.delete_file(f).unwrap(), 4);
        assert_eq!(m.total_file_pages(), 0);
        assert_eq!(m.total_dead_pages(), 0);
        assert!(m.space_stats(f).is_err());
        assert!(!dir.path().join("0000_data.pages").exists());
        // Dead-page notes on deleted files are silently dropped.
        m.note_dead_pages(f, 5);
        m.set_dead_pages(f, 5);
        assert_eq!(m.total_dead_pages(), 0);
        // file_names skips tombstones; file_count keeps the slot.
        assert!(m.file_names().is_empty());
        assert_eq!(m.file_count(), 1);
    }

    #[test]
    fn missing_manifest_file_without_wal_records_is_corrupt() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::create(StorageOptions::durable(dir.path(), 16)).unwrap();
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(10)).unwrap();
        m.checkpoint(b"p").unwrap();
        drop(m);
        // Simulate an impossible hole: the file vanishes although no WAL
        // record of the manifest's epoch could have deleted it.
        std::fs::remove_file(dir.path().join("0000_data.pages")).unwrap();
        assert!(matches!(
            StorageManager::open(StorageOptions::durable(dir.path(), 16)),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn missing_manifest_file_with_wal_records_is_reported_for_replay() {
        let dir = tempfile::tempdir().unwrap();
        let m = StorageManager::create(StorageOptions::durable(dir.path(), 16)).unwrap();
        let f = m.create_file("data").unwrap();
        m.append_objects(f, &objs(10)).unwrap();
        m.checkpoint(b"p").unwrap();
        // A post-checkpoint record that (at the engine layer) would justify
        // the deletion; storage only validates that *some* record exists and
        // leaves the verification to the engine's replay.
        m.log_meta(b"delete-record").unwrap();
        m.delete_file(f).unwrap();
        drop(m);
        let (m2, rec) = StorageManager::open(StorageOptions::durable(dir.path(), 16)).unwrap();
        assert_eq!(rec.missing_files, vec![f]);
        assert_eq!(rec.wal_records, vec![b"delete-record".to_vec()]);
        assert!(!m2.file_exists(f));
        // The tombstone keeps its slot: the next id continues after it.
        assert_eq!(m2.create_file("next").unwrap(), FileId(1));
    }

    #[test]
    #[should_panic(expected = "durable stores are created")]
    fn new_refuses_durable_options() {
        let dir = tempfile::tempdir().unwrap();
        let _ = StorageManager::new(StorageOptions::durable(dir.path(), 16));
    }

    #[test]
    fn concurrent_file_creation_yields_distinct_ids() {
        let m = StorageManager::in_memory();
        let ids = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let (m, ids) = (&m, &ids);
                s.spawn(move || {
                    for i in 0..16 {
                        let id = m.create_file(&format!("f{t}_{i}")).unwrap();
                        ids.lock().unwrap().push(id);
                    }
                });
            }
        });
        let mut ids = ids.into_inner().unwrap();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8 * 16);
        assert_eq!(m.file_count(), 8 * 16);
    }
}
