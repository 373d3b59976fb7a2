//! The Query Processor and the public [`SpaceOdyssey`] engine.
//!
//! [`SpaceOdyssey::execute_query`] answers any of the four typed
//! [`Query`] kinds — range, point, k-nearest-neighbour and count — and
//! orchestrates each one end to end:
//!
//! 0. the cost-based [`crate::Planner`] picks an access path per queried dataset
//!    (sequential scan of the raw file, the adaptive partitioned path, or
//!    the merge-file path), recording each decision in the outcome,
//! 1. each dataset on the partitioned path is prepared by its Adaptor
//!    (first-touch partitioning, rt-driven refinement; kNN queries traverse
//!    best-first instead and never refine),
//! 2. the merge directory is consulted and the query is routed to the exact /
//!    superset / subset merge file where possible; everything else is read
//!    from the individual per-dataset partition files (count queries take
//!    partitions fully inside their range from metadata, without any read),
//! 3. the Statistics Collector records the combination and the partitions it
//!    retrieved,
//! 4. the Merger is invoked when the combination has crossed the merge
//!    threshold, copying (or extending) its partitions into a merge file and
//!    enforcing the space budget.
//!
//! Every path returns brute-force-identical answers; the planner only moves
//! work between layouts. [`SpaceOdyssey::execute`] remains as the
//! range-query entry point the paper's experiments drive.
//!
//! Since the streaming rework, the phases live in
//! [`crate::cursor::QueryCursor`]: `execute_query` opens a cursor and drains
//! it batch by batch, so the materialized API is a thin wrapper over the
//! streaming read path ([`SpaceOdyssey::open_cursor`] exposes it directly).
//! With [`OdysseyConfig::result_cache_enabled`] set, materialized answers
//! are kept in an ingest-sequence-invalidated [`ResultCache`] and reused —
//! wholly or per dataset — while their datasets have not ingested since the
//! answer was computed. Streaming cursors bypass the cache (their point is
//! not to materialize).
//!
//! # Concurrency model
//!
//! `execute` takes `&self` and a shared `&StorageManager`: one engine serves
//! any number of threads. The shared state is sharded so the read path
//! scales:
//!
//! | state                               | synchronization                     |
//! |-------------------------------------|-------------------------------------|
//! | partition tables + partition files  | one `RwLock` per dataset            |
//! | merge directory + merge files       | engine-level `RwLock` (read to route/read and to decide a converged merge trigger, write to merge/repair/evict) |
//! | statistics collector                | engine-level `RwLock` (short write per query) |
//! | query counter, LRU clocks, layout versions | atomics                      |
//!
//! The adaptive semantics survive contention: first-touch partitioning and
//! each refinement happen exactly once (per-dataset write lock +
//! re-validation), and a threshold-crossing merge is performed exactly once
//! (merger write lock + an idempotent, append-only merge directory). A
//! converged query takes no exclusive lock at all: its merge trigger is
//! gated by the combination's layout version and decided under read locks.
//! Lock-ordering discipline: a thread only acquires a dataset lock while
//! holding the merger or stats lock in two places — `merge_combination`
//! (merger write lock + dataset **read** locks) and the planner's probe
//! (merger read lock + dataset **read** locks). No code path waits on a
//! merger or stats lock while holding a dataset lock, so no cycle is
//! possible.
//!
//! [`SpaceOdyssey::execute_batch`] fans a workload out over a scoped thread
//! pool; per-query answers are identical to sequential execution (adaptation
//! *timing* may differ — merges can land a few queries earlier or later — but
//! answers are a pure function of the data and the query).

use crate::compactor::Compactor;
use crate::config::OdysseyConfig;
use crate::cursor::QueryCursor;
use crate::durability::{
    self, ComboSnapshot, EngineSnapshot, MergeFileSnapshot, MergerSnapshot, MetaRecord,
};
use crate::merge_file::{MergeEntry, MergeFile};
use crate::merger::{MergeDirectory, Merger, RouteKind};
use crate::octree::{top_k_candidates, DatasetIndex, IngestStats};
use crate::planner::{AccessPath, PlanChoice};
use crate::result_cache::{CacheLookup, CachedComponent, ResultCache};
use crate::scheduler::{JobSpec, MaintenanceScheduler};
use crate::stats::StatsCollector;
use odyssey_geom::{
    CountQuery, DatasetId, DatasetSet, KnnQuery, PointQuery, Query, QuerySignature, RangeQuery,
    SpatialObject,
};
use odyssey_storage::sync::{Exclusive, LockClass, Shared, SharedReadGuard};
use odyssey_storage::{
    FileId, RawDataset, RecoveredState, StorageError, StorageManager, StorageResult,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// What happened while executing one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The materialized query answer. Empty for count queries, which report
    /// through [`QueryOutcome::count`] only; sorted by
    /// `(distance, dataset, id)` for kNN queries.
    pub objects: Vec<SpatialObject>,
    /// Number of matching objects, for every query kind (equals
    /// `objects.len()` except for count queries).
    pub count: u64,
    /// The access path the planner chose for each queried (known) dataset,
    /// with its cost estimate — the audit trail for plan-quality benches.
    pub plans: Vec<PlanChoice>,
    /// How the query was routed with respect to merge files.
    pub route: RouteKind,
    /// Number of partitions refined by this query across all its datasets.
    pub partitions_refined: usize,
    /// Number of (dataset, partition) reads served from a merge file.
    pub partitions_from_merge_file: usize,
    /// Number of (dataset, partition) reads served from individual dataset
    /// files (including reads folded into refinement).
    pub partitions_from_datasets: usize,
    /// Number of (dataset, partition) pairs a count query answered from
    /// partition metadata alone, without reading a single page.
    pub partitions_counted_from_metadata: usize,
    /// Whether this query triggered a merge (creation or extension of a merge
    /// file with at least one new entry).
    pub merge_performed: bool,
    /// Number of staleness-repair runs this query appended to bring a stale
    /// merge file up to date before reading from it.
    pub stale_merge_repairs: usize,
    /// Whether a routed merge file was stale for at least one queried dataset
    /// and was bypassed (that dataset read from the octree path instead of
    /// paying the repair).
    pub stale_merge_bypassed: bool,
    /// Dataset-file compactions this query triggered inline (dead-page ratio
    /// crossed [`OdysseyConfig::compaction_dead_ratio`] on a queried
    /// dataset).
    pub compactions_performed: usize,
    /// 1 if this query was answered entirely from the result cache (no
    /// storage read at all), 0 otherwise.
    pub cache_hits: u64,
    /// 1 if the result cache was consulted and had no reusable answer,
    /// 0 otherwise (always 0 with the cache disabled).
    pub cache_misses: u64,
    /// 1 if part of the answer was reused from the result cache and only the
    /// datasets invalidated by ingests were re-executed, 0 otherwise.
    pub cache_partial_reuses: u64,
    /// Rows (objects) provably skipped by an early exit: partitions and
    /// merge entries a count query took from metadata without reading them,
    /// plus partitions a kNN traversal pruned with its mindist bound.
    pub rows_skipped_by_early_exit: u64,
    /// Number of in-flight maintenance jobs this query blocked on (a stale
    /// merge file whose repair was already running in a background drain:
    /// the query waits for that job instead of repairing alongside it).
    pub maintenance_jobs_waited: u64,
    /// Microseconds this query waited in a serving-tier queue before the
    /// engine started executing it. Zero for direct engine calls; filled by
    /// the front-end (`odyssey-serve`) when it demultiplexes a batch, so a
    /// served query's end-to-end latency decomposes into queue wait plus
    /// execute time.
    pub queue_wait_micros: u64,
    /// Size of the coalesced batch this query was served in (1 for
    /// per-request dispatch, 0 for direct engine calls that never crossed a
    /// serving tier).
    pub batch_size_served: u64,
}

impl QueryOutcome {
    /// Convenience: `true` if any part of the answer came from a merge file.
    pub fn used_merge_file(&self) -> bool {
        self.partitions_from_merge_file > 0
    }

    /// Convenience: `true` if any dataset was answered by the given path.
    pub fn used_path(&self, path: AccessPath) -> bool {
        self.plans.iter().any(|p| p.path == path)
    }
}

/// What happened while ingesting one batch of objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The dataset the batch went to.
    pub dataset: DatasetId,
    /// Number of objects appended (0 when the dataset is unknown).
    pub objects_ingested: usize,
    /// Partitions refined because the batch pushed them across the
    /// ingest-split threshold.
    pub partitions_split: usize,
    /// Leaf partitions created for regions that previously had none.
    pub partitions_created: usize,
    /// Number of merge files whose combination includes the dataset and that
    /// are now stale (missing this batch) — the files a later query will
    /// repair or bypass.
    pub merge_files_stale: usize,
    /// Whether this batch triggered an inline dataset-file compaction.
    pub compaction_performed: bool,
    /// Pages reclaimed by that compaction (0 when none ran).
    pub pages_reclaimed: u64,
}

/// One operation of a mixed ingest+query batch.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineOp {
    /// Execute a typed query.
    Query(Query),
    /// Ingest a batch of objects into one dataset.
    Ingest {
        /// The receiving dataset.
        dataset: DatasetId,
        /// The arriving objects (ids must be fresh within the dataset).
        objects: Vec<SpatialObject>,
    },
}

/// The outcome of one [`EngineOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// Outcome of a query op.
    Query(QueryOutcome),
    /// Outcome of an ingest op.
    Ingest(IngestOutcome),
}

impl OpOutcome {
    /// The query outcome, or `None` for ingest ops.
    pub fn as_query(&self) -> Option<&QueryOutcome> {
        match self {
            OpOutcome::Query(o) => Some(o),
            OpOutcome::Ingest(_) => None,
        }
    }

    /// The ingest outcome, or `None` for query ops.
    pub fn as_ingest(&self) -> Option<&IngestOutcome> {
        match self {
            OpOutcome::Ingest(o) => Some(o),
            OpOutcome::Query(_) => None,
        }
    }
}

/// The Space Odyssey engine over a set of raw datasets.
///
/// The engine is `Sync`: share it (and the [`StorageManager`]) by reference
/// across threads, or use [`SpaceOdyssey::execute_batch`] which does so
/// internally.
#[derive(Debug)]
pub struct SpaceOdyssey {
    pub(crate) config: OdysseyConfig,
    pub(crate) datasets: Vec<DatasetIndex>,
    pub(crate) stats: Shared<StatsCollector>,
    pub(crate) merger: Shared<Merger>,
    pub(crate) compactor: Compactor,
    pub(crate) maintenance: MaintenanceScheduler,
    queries_executed: AtomicU64,
    ingests_performed: AtomicU64,
    pub(crate) stale_bypasses: AtomicU64,
    result_cache: ResultCache,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_partial_reuses: AtomicU64,
    pub(crate) rows_skipped_by_early_exit: AtomicU64,
    queue_wait_micros_total: AtomicU64,
    batch_ops_served: AtomicU64,
    deadlines_expired: AtomicU64,
}

impl SpaceOdyssey {
    /// Creates an engine over the given raw datasets. No data is read until
    /// the first query.
    ///
    /// # Errors
    /// Returns a description of the problem if the configuration is invalid.
    pub fn new(config: OdysseyConfig, raws: Vec<RawDataset>) -> Result<Self, String> {
        config.validate()?;
        let datasets = raws.into_iter().map(DatasetIndex::new).collect();
        Ok(SpaceOdyssey {
            result_cache: ResultCache::new(config.result_cache_budget_bytes),
            maintenance: MaintenanceScheduler::new(config.maintenance_max_jobs),
            config,
            datasets,
            stats: Shared::new(LockClass::Stats, StatsCollector::new()),
            merger: Shared::new(LockClass::Merger, Merger::new()),
            compactor: Compactor::new(),
            queries_executed: AtomicU64::new(0),
            ingests_performed: AtomicU64::new(0),
            stale_bypasses: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_partial_reuses: AtomicU64::new(0),
            rows_skipped_by_early_exit: AtomicU64::new(0),
            queue_wait_micros_total: AtomicU64::new(0),
            batch_ops_served: AtomicU64::new(0),
            deadlines_expired: AtomicU64::new(0),
        })
    }

    /// Creates an engine over `raws` on a **durable** storage manager
    /// (built with `StorageManager::create`) and writes the initial
    /// checkpoint, which is what makes the store's directory openable later
    /// with [`SpaceOdyssey::open`]. Use this instead of
    /// [`SpaceOdyssey::new`] whenever the storage is durable — mutations
    /// logged before the first checkpoint would otherwise have no manifest
    /// to replay over.
    pub fn create(
        config: OdysseyConfig,
        raws: Vec<RawDataset>,
        storage: &StorageManager,
    ) -> StorageResult<Self> {
        let engine = SpaceOdyssey::new(config, raws).map_err(StorageError::Corrupt)?;
        engine.checkpoint(storage)?;
        Ok(engine)
    }

    /// Reopens the engine persisted in a durable store: decodes the
    /// checkpointed [`EngineSnapshot`] from the manifest payload, replays
    /// the WAL's valid record prefix over it, truncates every data file to
    /// its committed length (cutting orphaned appends a crash may have left)
    /// and rebuilds the in-memory ingest logs from the raw files' tails.
    ///
    /// Seed data is **not** re-scanned: an opened engine resumes from the
    /// recovered adaptive state — octree shape, merge directory, ingest
    /// logs, statistics — and answers queries exactly like an engine that
    /// never shut down after the same operations. A fresh checkpoint is
    /// written at the end, collapsing the replayed WAL.
    pub fn open(storage: &StorageManager, recovered: RecoveredState) -> StorageResult<Self> {
        let mut snap = EngineSnapshot::decode(&recovered.payload)?;
        let mut lens = recovered.file_pages.clone();
        let mut deleted: Vec<FileId> = Vec::new();
        for bytes in &recovered.wal_records {
            snap.apply(&MetaRecord::decode(bytes)?, &mut lens, &mut deleted)?;
        }
        snap.config.validate().map_err(StorageError::Corrupt)?;

        // Integrity net for deletions: a file the manifest committed as live
        // but that is missing on disk can only mean it was deleted after the
        // checkpoint — and a deletion's WAL record is durable *before* the
        // unlink, so the replayed prefix must account for every hole.
        for missing in &recovered.missing_files {
            if !deleted.contains(missing) {
                return Err(StorageError::Corrupt(format!(
                    "file {} is missing on disk but no replayed record deletes it",
                    missing.0
                )));
            }
        }

        // Cut every surviving file back to its committed length. Files no
        // surviving metadata references (created right before the crash) go
        // to zero; they keep their id slot but hold no data. Files the
        // replayed records deleted are re-deleted — redo for a crash that
        // hit between a deletion's record and its unlink.
        for id in 0..storage.file_count() {
            let file = FileId(id as u32);
            if deleted.contains(&file) {
                storage.delete_file(file)?;
                continue;
            }
            if !storage.file_exists(file) {
                continue;
            }
            let len = lens.get(id).copied().unwrap_or(0);
            storage.truncate_file(file, len)?;
        }

        // Rebuild the dead-page accounting the compactor triggers on: the
        // live counters died with the process, but dead space is exactly
        // "committed size minus metadata-referenced pages".
        for ds in &snap.datasets {
            if let Some(file) = ds.file {
                let live: u64 = ds
                    .partitions
                    .iter()
                    .map(|m| m.page_count + m.overflow_page_count)
                    .sum();
                let len = lens.get(file.index()).copied().unwrap_or(0);
                storage.set_dead_pages(file, len.saturating_sub(live));
            }
        }
        for f in &snap.merger.files {
            let live: u64 = f
                .entries
                .iter()
                .flat_map(|(_, runs)| runs.iter())
                .map(|r| r.page_count)
                .sum();
            let len = lens.get(f.file.index()).copied().unwrap_or(0);
            storage.set_dead_pages(f.file, len.saturating_sub(live));
        }

        // Rebuild the per-dataset ingest logs by re-reading the raw tails
        // (each committed ingest batch occupies its own pages after the
        // seed, so the tail pages hold exactly the logged objects).
        let mut datasets = Vec::with_capacity(snap.datasets.len());
        for ds in &snap.datasets {
            let log = if ds.ingest_count > 0 {
                let objects =
                    storage.read_objects(ds.raw.file, ds.seed_pages..ds.raw.page_range.1)?;
                if objects.len() as u64 != ds.ingest_count {
                    return Err(StorageError::Corrupt(format!(
                        "dataset {}: raw tail holds {} objects but the ingest log \
                         committed {}",
                        ds.raw.dataset,
                        objects.len(),
                        ds.ingest_count
                    )));
                }
                objects
            } else {
                Vec::new()
            };
            datasets.push(DatasetIndex::restore(&snap.config, ds, log));
        }

        let files: Vec<MergeFile> = snap
            .merger
            .files
            .iter()
            .map(|f| {
                MergeFile::restore(
                    f.combination,
                    f.file,
                    f.entries.iter().map(|(key, runs)| MergeEntry {
                        key: *key,
                        runs: runs.clone(),
                    }),
                    f.last_used,
                )
            })
            .collect();
        let directory = MergeDirectory::restore(files, snap.merger.clock, snap.merger.evictions);
        let merger = Merger::restore(
            directory,
            snap.merger.merges_performed,
            snap.merger.staleness_repairs,
        );
        let mut stats = StatsCollector::new();
        for c in &snap.stats {
            stats.restore_combo(c.combination, c.count, c.retrieved.iter().copied());
        }

        let engine = SpaceOdyssey {
            config: snap.config,
            datasets,
            stats: Shared::new(LockClass::Stats, stats),
            merger: Shared::new(LockClass::Merger, merger),
            compactor: Compactor::restore(snap.compactions_performed),
            maintenance: MaintenanceScheduler::restore(
                snap.config.maintenance_max_jobs,
                &snap.maintenance,
            ),
            queries_executed: AtomicU64::new(snap.queries_executed),
            ingests_performed: AtomicU64::new(snap.ingests_performed),
            stale_bypasses: AtomicU64::new(snap.stale_bypasses),
            // The cache itself is not persisted (it is an in-memory
            // acceleration structure); a reopened engine starts cold.
            result_cache: ResultCache::new(snap.config.result_cache_budget_bytes),
            cache_hits: AtomicU64::new(snap.cache_hits),
            cache_misses: AtomicU64::new(snap.cache_misses),
            cache_partial_reuses: AtomicU64::new(snap.cache_partial_reuses),
            rows_skipped_by_early_exit: AtomicU64::new(snap.rows_skipped_by_early_exit),
            queue_wait_micros_total: AtomicU64::new(snap.queue_wait_micros_total),
            batch_ops_served: AtomicU64::new(snap.batch_ops_served),
            deadlines_expired: AtomicU64::new(snap.deadlines_expired),
        };
        // Resume compactions parked mid-copy at the crash: re-enqueue each
        // with its checkpointed progress, so the copy continues after the
        // last committed phase instead of starting over. In foreground mode
        // the queue is drained right here (an opened engine owes no deferred
        // work); in background mode the jobs wait for the next
        // [`SpaceOdyssey::run_maintenance`] pump and the checkpoint below
        // re-persists them as still pending.
        for pending in snap.maintenance.pending_compactions {
            let dataset = pending.dataset;
            let (new, depth) = engine.maintenance.enqueue_resumed(JobSpec::Compaction {
                dataset,
                pending: Some(pending),
            });
            storage.note_maintenance_enqueued(u64::from(new), depth as u64);
            storage.note_maintenance_resumed(u64::from(new));
        }
        if !engine.config.maintenance_background {
            engine.run_maintenance(storage)?;
        }
        // Collapse the replayed records into a fresh checkpoint so the WAL
        // stays bounded across repeated crash/reopen cycles.
        engine.checkpoint(storage)?;
        Ok(engine)
    }

    /// Captures the engine's complete durable state. Also the checkpoint
    /// payload; exposed so tests and tools can compare recovered state
    /// deeply against a live engine's.
    pub fn snapshot(&self) -> EngineSnapshot {
        let datasets = self.datasets.iter().map(|d| d.snapshot()).collect();
        let merger_snapshot = {
            let merger = self.merger.read();
            let dir = merger.directory();
            MergerSnapshot {
                merges_performed: merger.merges_performed(),
                staleness_repairs: merger.staleness_repairs(),
                clock: dir.clock(),
                evictions: dir.evictions(),
                files: dir
                    .iter()
                    .map(|f| MergeFileSnapshot {
                        combination: f.combination,
                        file: f.file_id(),
                        last_used: f.last_used(),
                        entries: f
                            .entries_sorted()
                            .into_iter()
                            .map(|e| (e.key, e.runs.clone()))
                            .collect(),
                    })
                    .collect(),
            }
        };
        let mut stats: Vec<ComboSnapshot> = self
            .stats
            .read()
            .iter()
            .map(|(set, combo)| ComboSnapshot {
                combination: *set,
                count: combo.count,
                retrieved: combo.retrieved.iter().copied().collect(),
            })
            .collect();
        stats.sort_by_key(|c| c.combination.0);
        EngineSnapshot {
            config: self.config,
            queries_executed: self.queries_executed.load(Ordering::Relaxed),
            ingests_performed: self.ingests_performed.load(Ordering::Relaxed),
            stale_bypasses: self.stale_bypasses.load(Ordering::Relaxed),
            compactions_performed: self.compactor.compactions_performed(),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_partial_reuses: self.cache_partial_reuses.load(Ordering::Relaxed),
            rows_skipped_by_early_exit: self.rows_skipped_by_early_exit.load(Ordering::Relaxed),
            queue_wait_micros_total: self.queue_wait_micros_total.load(Ordering::Relaxed),
            batch_ops_served: self.batch_ops_served.load(Ordering::Relaxed),
            deadlines_expired: self.deadlines_expired.load(Ordering::Relaxed),
            datasets,
            merger: merger_snapshot,
            stats,
            maintenance: self.maintenance.snapshot(),
        }
    }

    /// Writes a checkpoint: the full engine snapshot becomes the new
    /// manifest (committed atomically by the storage layer) and the WAL is
    /// reset. Requires a durable storage manager.
    ///
    /// Call from a quiescent point — no queries or ingests may be executing
    /// concurrently, or the snapshot could miss a mutation whose WAL record
    /// the reset then discards. (The batch entry points return before their
    /// last operation's locks are released, so "after a batch" is safe.)
    pub fn checkpoint(&self, storage: &StorageManager) -> StorageResult<()> {
        storage.checkpoint(&self.snapshot().encode())
    }

    /// Clean shutdown: checkpoint and consume the engine. A dropped engine
    /// that skips `close` loses nothing — the WAL replays on the next open —
    /// but closing makes the subsequent open cheaper (no replay).
    pub fn close(self, storage: &StorageManager) -> StorageResult<()> {
        self.checkpoint(storage)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &OdysseyConfig {
        &self.config
    }

    /// The per-dataset incremental index, if the dataset exists.
    pub fn dataset(&self, id: DatasetId) -> Option<&DatasetIndex> {
        self.datasets.iter().find(|d| d.dataset() == id)
    }

    /// All per-dataset indexes.
    pub fn datasets(&self) -> &[DatasetIndex] {
        &self.datasets
    }

    /// Read access to the statistics collected so far. The returned guard
    /// holds the stats read lock; drop it before executing queries from the
    /// same thread.
    pub fn stats(&self) -> SharedReadGuard<'_, StatsCollector> {
        self.stats.read()
    }

    /// Read access to the Merger (exposes the merge-file directory). The
    /// returned guard holds the merger read lock; drop it before executing
    /// queries from the same thread.
    pub fn merger(&self) -> SharedReadGuard<'_, Merger> {
        self.merger.read()
    }

    /// Number of queries executed so far.
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed.load(Ordering::Relaxed)
    }

    /// Number of non-empty ingest batches accepted so far (empty batches and
    /// unknown-dataset no-ops are not counted — this counter mirrors the WAL
    /// exactly, so it survives crash recovery unchanged).
    pub fn ingests_performed(&self) -> u64 {
        self.ingests_performed.load(Ordering::Relaxed)
    }

    /// Number of queries that bypassed a stale merge file to the octree path
    /// instead of repairing it.
    pub fn stale_bypasses(&self) -> u64 {
        self.stale_bypasses.load(Ordering::Relaxed)
    }

    /// Queries answered entirely from the result cache. Persisted as of the
    /// last checkpoint (like the other engine counters, but without replay:
    /// cache events produce no WAL records, so a crash loses the events
    /// since the last checkpoint — they are observability, not state).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Queries that consulted the result cache and found nothing reusable.
    /// Same crash semantics as [`SpaceOdyssey::cache_hits`].
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Queries that reused part of a cached answer and re-executed only the
    /// ingest-invalidated datasets. Same crash semantics as
    /// [`SpaceOdyssey::cache_hits`].
    pub fn cache_partial_reuses(&self) -> u64 {
        self.cache_partial_reuses.load(Ordering::Relaxed)
    }

    /// Total rows provably skipped by early exits (count metadata
    /// short-circuits, kNN mindist pruning) across all queries. Same crash
    /// semantics as [`SpaceOdyssey::cache_hits`].
    pub fn rows_skipped_by_early_exit(&self) -> u64 {
        self.rows_skipped_by_early_exit.load(Ordering::Relaxed)
    }

    /// Total microseconds requests spent waiting in serving-tier queues
    /// before the engine started them (reported by the front-end via
    /// [`SpaceOdyssey::note_queue_wait_micros`]). Same crash semantics as
    /// [`SpaceOdyssey::cache_hits`]: persisted at every checkpoint, no WAL
    /// replay — observability, not state.
    pub fn queue_wait_micros_total(&self) -> u64 {
        self.queue_wait_micros_total.load(Ordering::Relaxed)
    }

    /// Total operations served through coalesced serving-tier batches
    /// (reported via [`SpaceOdyssey::note_batch_served`]). Same crash
    /// semantics as [`SpaceOdyssey::cache_hits`].
    pub fn batch_ops_served(&self) -> u64 {
        self.batch_ops_served.load(Ordering::Relaxed)
    }

    /// Requests dropped because their deadline expired before the engine
    /// ran them (reported via [`SpaceOdyssey::note_deadlines_expired`], or
    /// counted directly when an admission callback rejects an op in
    /// [`SpaceOdyssey::execute_ops_batch_admitted`]). Same crash semantics
    /// as [`SpaceOdyssey::cache_hits`].
    pub fn deadlines_expired(&self) -> u64 {
        self.deadlines_expired.load(Ordering::Relaxed)
    }

    /// Records queue wait accumulated by a serving tier in front of this
    /// engine. The engine cannot observe queueing itself (it only sees ops
    /// once they are dispatched), so the front-end reports it here to make
    /// the served tail decomposable into queue wait plus execute time.
    pub fn note_queue_wait_micros(&self, micros: u64) {
        self.queue_wait_micros_total
            .fetch_add(micros, Ordering::Relaxed);
    }

    /// Records `ops` operations served through one coalesced batch.
    pub fn note_batch_served(&self, ops: u64) {
        self.batch_ops_served.fetch_add(ops, Ordering::Relaxed);
    }

    /// Records `n` requests shed by deadline expiry before execution.
    pub fn note_deadlines_expired(&self, n: u64) {
        self.deadlines_expired.fetch_add(n, Ordering::Relaxed);
    }

    /// The materialized-result cache (empty and inert unless
    /// [`OdysseyConfig::result_cache_enabled`] is set).
    pub fn result_cache(&self) -> &ResultCache {
        &self.result_cache
    }

    /// The online compactor (inline dataset-file copy-forward rewrites).
    pub fn compactor(&self) -> &Compactor {
        &self.compactor
    }

    /// Dataset-file compactions committed so far (crash-exact: replayed from
    /// `CompactionCommit` records).
    pub fn compactions_performed(&self) -> u64 {
        self.compactor.compactions_performed()
    }

    /// The maintenance scheduler: its lifetime job counters
    /// (enqueued / completed / resumed, pages written) are persisted at
    /// every checkpoint, like the cache counters.
    pub fn maintenance(&self) -> &MaintenanceScheduler {
        &self.maintenance
    }

    /// Maintenance jobs currently queued and not yet picked up by a drain.
    pub fn maintenance_queue_depth(&self) -> usize {
        self.maintenance.queue_depth()
    }

    /// Pages currently referenced by live metadata across the whole engine:
    /// every raw file, every partition run, every merge-file entry run. The
    /// denominator of the space-amplification metric — a healthy store keeps
    /// `storage.total_file_pages()` within a small constant factor of this.
    pub fn live_pages(&self) -> u64 {
        let datasets: u64 = self.datasets.iter().map(|d| d.live_pages()).sum();
        datasets + self.merger.read().directory().total_pages()
    }

    /// Executes one range query over its combination of datasets. The
    /// range-only entry point the paper's experiments drive; equivalent to
    /// [`SpaceOdyssey::execute_query`] with [`Query::Range`].
    pub fn execute(
        &self,
        storage: &StorageManager,
        query: &RangeQuery,
    ) -> StorageResult<QueryOutcome> {
        self.execute_query(storage, &Query::Range(*query))
    }

    /// Executes one typed query — range, point, k-nearest-neighbour or count
    /// — over its combination of datasets, through the cost-based planner.
    ///
    /// Internally this opens a streaming [`QueryCursor`] and drains it, so
    /// the materialized answer is exactly the concatenation of the cursor's
    /// batches. With [`OdysseyConfig::result_cache_enabled`] set, the result
    /// cache is consulted first and filled from the drained answer.
    pub fn execute_query(
        &self,
        storage: &StorageManager,
        query: &Query,
    ) -> StorageResult<QueryOutcome> {
        self.queries_executed.fetch_add(1, Ordering::Relaxed);
        if self.config.result_cache_enabled {
            self.execute_query_cached(storage, query)
        } else {
            Self::drain_cursor(QueryCursor::open(self, storage, query)?)
        }
    }

    /// Opens a streaming cursor over `query`: the caller pulls batches with
    /// [`QueryCursor::next_batch`] (bounded by
    /// [`OdysseyConfig::stream_batch_objects`]) instead of materializing the
    /// whole answer. Counts as one executed query; statistics and adaptation
    /// triggers fire when the cursor is drained. Streaming cursors bypass
    /// the result cache.
    pub fn open_cursor<'a>(
        &'a self,
        storage: &'a StorageManager,
        query: &Query,
    ) -> StorageResult<QueryCursor<'a>> {
        self.queries_executed.fetch_add(1, Ordering::Relaxed);
        QueryCursor::open(self, storage, query)
    }

    /// Drains a cursor to completion and materializes its outcome.
    fn drain_cursor(mut cursor: QueryCursor<'_>) -> StorageResult<QueryOutcome> {
        let mut objects: Vec<SpatialObject> = Vec::new();
        while let Some(batch) = cursor.next_batch()? {
            objects.extend(batch);
        }
        let mut outcome = cursor.finish();
        outcome.objects = objects;
        Ok(outcome)
    }

    /// The cache-enabled execution path: serve from the result cache when
    /// every queried dataset's ingest sequence still matches the cached
    /// answer's, re-execute only the invalidated datasets on a partial
    /// match, and fill the cache on a miss.
    fn execute_query_cached(
        &self,
        storage: &StorageManager,
        query: &Query,
    ) -> StorageResult<QueryOutcome> {
        let sig = QuerySignature::of(query);
        let live: Vec<(DatasetId, u64)> = query
            .datasets()
            .iter()
            .filter_map(|id| {
                self.datasets
                    .iter()
                    .find(|d| d.dataset() == id)
                    .map(|d| (id, d.ingest_seq()))
            })
            .collect();
        match self.result_cache.lookup(&sig, &live) {
            CacheLookup::Hit(components) => {
                storage.note_cache_hit();
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                // A hit is still an executed query: record the combination
                // (with no partition keys — nothing was read) and its WAL
                // record, so recovered statistics and the merge trigger
                // match a cache-less engine's query counts.
                {
                    let mut stats = self.stats.write();
                    stats.record(query.datasets(), &[]);
                    durability::log(
                        storage,
                        MetaRecord::QueryStats {
                            combination: query.datasets(),
                            retrieved: Vec::new(),
                            stale_bypassed: false,
                        },
                    )?;
                }
                let mut outcome = Self::assemble_cached(query, &components);
                outcome.cache_hits = 1;
                Ok(outcome)
            }
            CacheLookup::Partial { fresh, stale } => {
                storage.note_cache_partial_reuse();
                self.cache_partial_reuses.fetch_add(1, Ordering::Relaxed);
                // Re-execute only the invalidated datasets, but record
                // statistics against the full combination — the cache must
                // not starve the merge trigger of the combination's heat.
                let restricted = Self::restrict_query(query, stale);
                let cursor =
                    QueryCursor::open_with_stats(self, storage, &restricted, query.datasets())?;
                let (partial, new_components) = Self::drain_collecting(cursor, &restricted)?;
                let mut components = fresh;
                components.extend(new_components);
                components.sort_by_key(|c| c.dataset.0);
                let mut outcome = Self::assemble_cached(query, &components);
                self.result_cache.insert(sig, components);
                // The assembled answer, with the re-execution's counters.
                outcome.plans = partial.plans;
                outcome.route = partial.route;
                outcome.partitions_refined = partial.partitions_refined;
                outcome.partitions_from_merge_file = partial.partitions_from_merge_file;
                outcome.partitions_from_datasets = partial.partitions_from_datasets;
                outcome.partitions_counted_from_metadata = partial.partitions_counted_from_metadata;
                outcome.merge_performed = partial.merge_performed;
                outcome.stale_merge_repairs = partial.stale_merge_repairs;
                outcome.stale_merge_bypassed = partial.stale_merge_bypassed;
                outcome.compactions_performed = partial.compactions_performed;
                outcome.rows_skipped_by_early_exit = partial.rows_skipped_by_early_exit;
                outcome.maintenance_jobs_waited = partial.maintenance_jobs_waited;
                outcome.cache_partial_reuses = 1;
                Ok(outcome)
            }
            CacheLookup::Miss => {
                storage.note_cache_miss();
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
                let cursor = QueryCursor::open(self, storage, query)?;
                let (mut outcome, components) = Self::drain_collecting(cursor, query)?;
                self.result_cache.insert(sig, components);
                outcome.cache_misses = 1;
                Ok(outcome)
            }
        }
    }

    /// Drains a cursor while splitting the answer into the per-dataset
    /// [`CachedComponent`]s a cache fill needs, each stamped with the ingest
    /// sequence the cursor captured before its first read.
    fn drain_collecting(
        mut cursor: QueryCursor<'_>,
        executed: &Query,
    ) -> StorageResult<(QueryOutcome, Vec<CachedComponent>)> {
        let mut objects: Vec<SpatialObject> = Vec::new();
        while let Some(batch) = cursor.next_batch()? {
            objects.extend(batch);
        }
        let seqs: Vec<(DatasetId, u64)> = cursor.captured_seqs().to_vec();
        let mut components: Vec<CachedComponent> = Vec::with_capacity(seqs.len());
        match executed {
            Query::Count(_) => {
                let counts = cursor.per_dataset_counts();
                for (dataset, seq) in seqs {
                    let count = counts
                        .iter()
                        .find(|(d, _)| *d == dataset)
                        .map(|(_, c)| *c)
                        .unwrap_or(0);
                    components.push(CachedComponent {
                        dataset,
                        seq,
                        objects: Vec::new(),
                        count,
                    });
                }
            }
            Query::KNearestNeighbors(_) => {
                // Cache each dataset's full top-k list, not the merged
                // answer: the per-dataset lists stay valid when *other*
                // datasets ingest, which is what makes partial reuse of a
                // multi-dataset kNN sound.
                for (dataset, seq) in seqs {
                    let objs = cursor
                        .knn_components()
                        .iter()
                        .find(|(d, _)| *d == dataset)
                        .map(|(_, o)| o.clone())
                        .unwrap_or_default();
                    components.push(CachedComponent {
                        dataset,
                        seq,
                        count: objs.len() as u64,
                        objects: objs,
                    });
                }
            }
            _ => {
                for (dataset, seq) in seqs {
                    let objs: Vec<SpatialObject> = objects
                        .iter()
                        .filter(|o| o.dataset == dataset)
                        .copied()
                        .collect();
                    components.push(CachedComponent {
                        dataset,
                        seq,
                        count: objs.len() as u64,
                        objects: objs,
                    });
                }
            }
        }
        let mut outcome = cursor.finish();
        outcome.objects = objects;
        Ok((outcome, components))
    }

    /// Rebuilds a full answer from per-dataset cached components: counts
    /// add up, kNN lists rank-merge to the global top-k, range and point
    /// answers concatenate. Plans and read counters are zero — nothing was
    /// planned or read.
    fn assemble_cached(query: &Query, components: &[CachedComponent]) -> QueryOutcome {
        let (objects, count) = match query {
            Query::Count(_) => (Vec::new(), components.iter().map(|c| c.count).sum()),
            Query::KNearestNeighbors(q) => {
                let objects = top_k_candidates(
                    components.iter().flat_map(|c| c.objects.iter().copied()),
                    q.point,
                    q.k,
                );
                let count = objects.len() as u64;
                (objects, count)
            }
            _ => {
                let objects: Vec<SpatialObject> = components
                    .iter()
                    .flat_map(|c| c.objects.iter().copied())
                    .collect();
                let count = objects.len() as u64;
                (objects, count)
            }
        };
        QueryOutcome {
            objects,
            count,
            plans: Vec::new(),
            route: RouteKind::None,
            partitions_refined: 0,
            partitions_from_merge_file: 0,
            partitions_from_datasets: 0,
            partitions_counted_from_metadata: 0,
            merge_performed: false,
            stale_merge_repairs: 0,
            stale_merge_bypassed: false,
            compactions_performed: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_partial_reuses: 0,
            rows_skipped_by_early_exit: 0,
            maintenance_jobs_waited: 0,
            queue_wait_micros: 0,
            batch_size_served: 0,
        }
    }

    /// The same query restricted to `datasets` — what a partial cache reuse
    /// re-executes.
    fn restrict_query(query: &Query, datasets: DatasetSet) -> Query {
        match query {
            Query::Range(q) => Query::Range(RangeQuery { datasets, ..*q }),
            Query::Point(q) => Query::Point(PointQuery { datasets, ..*q }),
            Query::Count(q) => Query::Count(CountQuery { datasets, ..*q }),
            Query::KNearestNeighbors(q) => Query::KNearestNeighbors(KnnQuery { datasets, ..*q }),
        }
    }

    /// Ingests a batch of newly arrived objects into `dataset`, online: the
    /// objects are appended to the dataset's raw file, inserted incrementally
    /// into its octree (routed to the deepest existing leaf by center, via
    /// that partition's overflow run, splitting partitions that cross the
    /// ingest-split threshold), and every merge file covering the dataset
    /// becomes stale — a later query repairs it through the append-only merge
    /// path or bypasses it until repaired.
    ///
    /// Objects whose `dataset` field disagrees with the target dataset are
    /// rejected with [`odyssey_storage::StorageError::InvalidIngest`] before
    /// any of the batch is applied. Ingesting into an unknown dataset is a
    /// no-op that reports zero objects (mirroring how queries treat unknown
    /// datasets).
    pub fn ingest(
        &self,
        storage: &StorageManager,
        dataset: DatasetId,
        objects: &[SpatialObject],
    ) -> StorageResult<IngestOutcome> {
        let mut outcome = IngestOutcome {
            dataset,
            objects_ingested: 0,
            partitions_split: 0,
            partitions_created: 0,
            merge_files_stale: 0,
            compaction_performed: false,
            pages_reclaimed: 0,
        };
        let Some(index) = self.datasets.iter().find(|d| d.dataset() == dataset) else {
            return Ok(outcome);
        };
        if let Some(wrong) = objects.iter().find(|o| o.dataset != dataset) {
            return Err(odyssey_storage::StorageError::InvalidIngest(format!(
                "object {:?} is tagged {} but the batch targets {}",
                wrong.id, wrong.dataset, dataset
            )));
        }
        // With background maintenance on, splits are deferred out of the
        // batch's write-lock hold and picked up by an `IngestSplitRefine`
        // job; foreground mode keeps them inside the batch, as always.
        let stats: IngestStats = index.ingest_with(
            storage,
            &self.config,
            objects,
            self.config.maintenance_background,
        )?;
        outcome.objects_ingested = stats.objects_ingested;
        outcome.partitions_split = stats.partitions_split;
        outcome.partitions_created = stats.partitions_created;
        if stats.objects_ingested > 0 {
            // Count accepted non-empty batches only — exactly the batches
            // that produce a WAL record, so a recovered engine's counter
            // matches a never-crashed one's.
            self.ingests_performed.fetch_add(1, Ordering::Relaxed);
            let merger = self.merger.read();
            outcome.merge_files_stale = merger
                .directory()
                .iter()
                .filter(|f| !self.stale_subset(f, DatasetSet::single(dataset)).is_empty())
                .count();
            drop(merger);
            if stats.partitions_pending_split > 0 {
                self.submit_job(storage, JobSpec::IngestSplitRefine { dataset });
            }
            // Ingest is the heaviest dead-page producer (every batch's
            // overflow rewrite orphans the previous run on durable
            // managers), so it is also a compaction trigger point — now a
            // scheduled job rather than an inline rewrite.
            if self.compactor.should_compact(storage, &self.config, index) {
                self.submit_job(
                    storage,
                    JobSpec::Compaction {
                        dataset,
                        pending: None,
                    },
                );
            }
            if !self.config.maintenance_background {
                let report = self.run_maintenance(storage)?;
                outcome.compaction_performed = report.compactions_committed > 0;
                outcome.pages_reclaimed = report.pages_reclaimed;
            }
        }
        Ok(outcome)
    }

    /// The subset of `wanted` datasets the merge file is **stale** for: its
    /// per-dataset high-water mark lags the dataset's live ingest sequence.
    /// Datasets outside the file's combination or unknown to the engine are
    /// never reported stale (the file cannot serve them anyway). The single
    /// source of truth for the phase-0.5 repair/bypass decision, the phase-2
    /// freshness net, and the post-ingest staleness count.
    pub(crate) fn stale_subset(
        &self,
        file: &crate::merge_file::MergeFile,
        wanted: DatasetSet,
    ) -> DatasetSet {
        DatasetSet::from_ids(wanted.intersection(file.combination).iter().filter(|id| {
            self.datasets
                .iter()
                .find(|d| d.dataset() == *id)
                .is_some_and(|d| file.is_stale_for(*id, d.ingest_seq()))
        }))
    }

    /// The summed layout version ([`DatasetIndex::layout_version`]) of the
    /// combination's known datasets: it stands still exactly while none of
    /// their leaf key sets changes.
    pub(crate) fn layout_version(&self, combination: DatasetSet) -> u64 {
        self.datasets
            .iter()
            .filter(|d| combination.contains(d.dataset()))
            .map(DatasetIndex::layout_version)
            .sum()
    }

    /// Executes a mixed batch of ingest and query operations, fanning out
    /// over all available cores. See
    /// [`SpaceOdyssey::execute_ops_batch_with_threads`].
    pub fn execute_ops_batch(
        &self,
        storage: &StorageManager,
        ops: &[EngineOp],
    ) -> StorageResult<Vec<OpOutcome>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.execute_ops_batch_with_threads(storage, ops, threads)
    }

    /// Executes a mixed ingest+query batch on `threads` worker threads.
    ///
    /// The batch runs in two internal phases: **all ingest ops first**, then
    /// all query ops. That is what keeps mixed batches deterministic under
    /// the same shuffle rules as adaptation: each ingest is applied exactly
    /// once (the per-dataset write lock serializes same-dataset batches),
    /// and every query observes the complete post-ingest state, so per-query
    /// answers are identical to sequential execution regardless of thread
    /// interleaving or op order within the batch. Outcomes are returned in
    /// the input order of `ops`.
    pub fn execute_ops_batch_with_threads(
        &self,
        storage: &StorageManager,
        ops: &[EngineOp],
        threads: usize,
    ) -> StorageResult<Vec<OpOutcome>> {
        let outcomes = self.execute_ops_batch_admitted(storage, ops, threads, |_| true)?;
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("admit returned true for every op")) // analyzer: allow(the constant admit closure rejects nothing)
            .collect())
    }

    /// Executes a mixed ingest+query batch with a per-op admission gate —
    /// the serving tier's deadline hook.
    ///
    /// `admit` is called with each op's index in `ops` immediately before a
    /// worker would execute it, and the op is **skipped entirely** when it
    /// returns `false`: no state is mutated, no statistics are recorded, no
    /// pages are read — the outcome slot stays `None` and the engine's
    /// [`SpaceOdyssey::deadlines_expired`] counter is bumped. Because the
    /// batch runs ingests-first, the gate is consulted at two points in a
    /// request's life: when its phase dequeues it, and — for queries — after
    /// the whole ingest phase has completed, so a deadline that expires
    /// while ingests run still drops the query before it consumes engine
    /// time. Admitted ops keep the exact shuffle-deterministic semantics of
    /// [`SpaceOdyssey::execute_ops_batch_with_threads`]: the admitted
    /// sub-batch answers as if it had been the whole batch.
    pub fn execute_ops_batch_admitted(
        &self,
        storage: &StorageManager,
        ops: &[EngineOp],
        threads: usize,
        admit: impl Fn(usize) -> bool + Sync,
    ) -> StorageResult<Vec<Option<OpOutcome>>> {
        let ingests: Vec<(usize, &EngineOp)> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, EngineOp::Ingest { .. }))
            .collect();
        let queries: Vec<(usize, &EngineOp)> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, EngineOp::Query(_)))
            .collect();
        let gate = |i: usize| {
            let pass = admit(i);
            if !pass {
                self.deadlines_expired.fetch_add(1, Ordering::Relaxed);
            }
            pass
        };
        let mut ingest_results = self
            .run_batch(&ingests, threads, |(i, op)| match op {
                EngineOp::Ingest { dataset, objects } if gate(*i) => self
                    .ingest(storage, *dataset, objects)
                    .map(OpOutcome::Ingest)
                    .map(Some),
                EngineOp::Ingest { .. } => Ok(None),
                EngineOp::Query(_) => unreachable!("ingest phase only sees ingest ops"), // analyzer: allow(ops filtered to ingests above)
            })?
            .into_iter();
        let mut query_results = self
            .run_batch(&queries, threads, |(i, op)| match op {
                EngineOp::Query(query) if gate(*i) => self
                    .execute_query(storage, query)
                    .map(OpOutcome::Query)
                    .map(Some),
                EngineOp::Query(_) => Ok(None),
                EngineOp::Ingest { .. } => unreachable!("query phase only sees query ops"), // analyzer: allow(ops filtered to queries above)
            })?
            .into_iter();
        Ok(ops
            .iter()
            .map(|op| match op {
                EngineOp::Ingest { .. } => {
                    ingest_results.next().expect("one outcome per ingest op") // analyzer: allow(run_batch returns one outcome per op)
                }
                EngineOp::Query(_) => query_results.next().expect("one outcome per query op"), // analyzer: allow(run_batch returns one outcome per op)
            })
            .collect())
    }

    /// Executes a batch of range queries, fanning out over all available
    /// cores. See [`SpaceOdyssey::execute_batch_with_threads`].
    pub fn execute_batch(
        &self,
        storage: &StorageManager,
        queries: &[RangeQuery],
    ) -> StorageResult<Vec<QueryOutcome>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.execute_batch_with_threads(storage, queries, threads)
    }

    /// Executes a batch of range queries on exactly `threads` worker threads
    /// (clamped to the batch size; `0` or `1` runs inline on the caller).
    ///
    /// Workers pull queries from a shared cursor, so skewed workloads stay
    /// balanced. The paper's adaptive semantics are preserved under
    /// contention — first-touch partitioning, refinement and
    /// threshold-triggered merges each happen exactly once — and the answer
    /// of every query matches sequential execution. The first error, if any,
    /// is returned (remaining queries still run to completion).
    pub fn execute_batch_with_threads(
        &self,
        storage: &StorageManager,
        queries: &[RangeQuery],
        threads: usize,
    ) -> StorageResult<Vec<QueryOutcome>> {
        self.run_batch(queries, threads, |q| self.execute(storage, q))
    }

    /// Executes a batch of typed queries, fanning out over all available
    /// cores. See [`SpaceOdyssey::execute_query_batch_with_threads`].
    pub fn execute_query_batch(
        &self,
        storage: &StorageManager,
        queries: &[Query],
    ) -> StorageResult<Vec<QueryOutcome>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.execute_query_batch_with_threads(storage, queries, threads)
    }

    /// Executes a batch of typed queries on exactly `threads` worker threads.
    ///
    /// Mixed-kind batches keep the `execute_batch` contract: per-query
    /// answers (objects or counts) are deterministic — identical to
    /// sequential execution regardless of thread interleaving — and every
    /// adaptation (first touch, refinement, merge) happens exactly once.
    /// Planner *decisions* may differ run to run (they react to live cache
    /// statistics and adaptation timing); the answers they produce cannot.
    pub fn execute_query_batch_with_threads(
        &self,
        storage: &StorageManager,
        queries: &[Query],
        threads: usize,
    ) -> StorageResult<Vec<QueryOutcome>> {
        self.run_batch(queries, threads, |q| self.execute_query(storage, q))
    }

    /// Shared fan-out harness of the batch entry points (queries, ingests and
    /// mixed phases all pull work from one cursor).
    fn run_batch<T: Sync, R: Send>(
        &self,
        items: &[T],
        threads: usize,
        run: impl Fn(&T) -> StorageResult<R> + Sync,
    ) -> StorageResult<Vec<R>> {
        let threads = threads.clamp(1, items.len().max(1));
        if threads <= 1 {
            return items.iter().map(run).collect();
        }
        let cursor = AtomicUsize::new(0);
        let collected: Vec<Exclusive<Option<StorageResult<R>>>> = items
            .iter()
            .map(|_| Exclusive::new(LockClass::WorkCell, None))
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let result = run(item);
                    *collected[i].lock() = Some(result);
                });
            }
        });
        collected
            .into_iter()
            .map(|slot| {
                slot.into_inner().expect("every work slot is filled") // analyzer: allow(each scoped worker fills its slot before the scope joins)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_geom::{Aabb, ObjectId, QueryId, Vec3};
    use odyssey_storage::{write_raw_dataset, StorageOptions};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn bounds() -> Aabb {
        Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0))
    }

    fn config() -> OdysseyConfig {
        let mut c = OdysseyConfig::paper(bounds());
        c.partitions_per_level = 8;
        c
    }

    fn clustered_objects(n: u64, ds: u16, seed: u64) -> Vec<SpatialObject> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed * 977 + 13);
        let centers: Vec<Vec3> = (0..6)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(15.0..85.0),
                    rng.gen_range(15.0..85.0),
                    rng.gen_range(15.0..85.0),
                )
            })
            .collect();
        (0..n)
            .map(|i| {
                let c = centers[rng.gen_range(0..centers.len())];
                let jitter = Vec3::new(
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                );
                SpatialObject::new(
                    ObjectId(i),
                    DatasetId(ds),
                    Aabb::from_center_extent(c + jitter, Vec3::splat(rng.gen_range(0.1..0.5))),
                )
            })
            .collect()
    }

    struct Fixture {
        storage: StorageManager,
        engine: SpaceOdyssey,
        all_objects: Vec<SpatialObject>,
    }

    fn fixture(num_datasets: u16, per_dataset: u64, cfg: OdysseyConfig) -> Fixture {
        let storage = StorageManager::new(StorageOptions::in_memory(256));
        let mut raws = Vec::new();
        let mut all_objects = Vec::new();
        for ds in 0..num_datasets {
            let objs = clustered_objects(per_dataset, ds, ds as u64 + 1);
            raws.push(write_raw_dataset(&storage, DatasetId(ds), &objs).unwrap());
            all_objects.extend(objs);
        }
        let engine = SpaceOdyssey::new(cfg, raws).unwrap();
        Fixture {
            storage,
            engine,
            all_objects,
        }
    }

    fn query(id: u32, center: Vec3, side: f64, datasets: &[u16]) -> RangeQuery {
        RangeQuery::new(
            QueryId(id),
            Aabb::from_center_extent(center, Vec3::splat(side)),
            DatasetSet::from_ids(datasets.iter().map(|&d| DatasetId(d))),
        )
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = config();
        cfg.refinement_threshold = -1.0;
        assert!(SpaceOdyssey::new(cfg, Vec::new()).is_err());
    }

    #[test]
    fn answers_match_scan_oracle_over_a_workload() {
        let Fixture {
            storage,
            engine,
            all_objects,
        } = fixture(4, 1500, config());
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for i in 0..60 {
            let c = Vec3::new(
                rng.gen_range(10.0..90.0),
                rng.gen_range(10.0..90.0),
                rng.gen_range(10.0..90.0),
            );
            let m = rng.gen_range(1..=4usize);
            let mut ids: Vec<u16> = (0..4u16).collect();
            for j in (1..ids.len()).rev() {
                ids.swap(j, rng.gen_range(0..=j));
            }
            ids.truncate(m);
            let q = query(i, c, rng.gen_range(2.0..12.0), &ids);
            let outcome = engine.execute(&storage, &q).unwrap();
            let mut expected: Vec<_> = odyssey_geom::scan_query(&q, all_objects.iter())
                .iter()
                .map(|o| (o.dataset, o.id))
                .collect();
            let mut got: Vec<_> = outcome.objects.iter().map(|o| (o.dataset, o.id)).collect();
            expected.sort_unstable();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, expected, "query {i} diverged");
        }
        assert_eq!(engine.queries_executed(), 60);
    }

    #[test]
    fn only_queried_datasets_are_initialized() {
        let Fixture {
            storage, engine, ..
        } = fixture(5, 500, config());
        let q = query(0, Vec3::splat(50.0), 5.0, &[1, 3]);
        engine.execute(&storage, &q).unwrap();
        assert!(engine.dataset(DatasetId(1)).unwrap().is_initialized());
        assert!(engine.dataset(DatasetId(3)).unwrap().is_initialized());
        assert!(!engine.dataset(DatasetId(0)).unwrap().is_initialized());
        assert!(!engine.dataset(DatasetId(2)).unwrap().is_initialized());
        assert!(!engine.dataset(DatasetId(4)).unwrap().is_initialized());
    }

    #[test]
    fn hot_combination_gets_merged_and_later_queries_use_the_merge_file() {
        let Fixture {
            storage, engine, ..
        } = fixture(4, 2000, config());
        let hot = [0u16, 1, 2];
        let mut merged_seen = false;
        let mut merge_file_used = false;
        for i in 0..12 {
            // Keep queries within the same hot region so the same partitions
            // are retrieved repeatedly.
            let c = Vec3::splat(48.0 + (i % 3) as f64);
            let q = query(i, c, 4.0, &hot);
            let outcome = engine.execute(&storage, &q).unwrap();
            merged_seen |= outcome.merge_performed;
            merge_file_used |= outcome.used_merge_file();
        }
        assert!(merged_seen, "the hot combination should have been merged");
        assert!(
            merge_file_used,
            "later queries should read from the merge file"
        );
        assert_eq!(engine.merger().directory().len(), 1);
        assert!(engine.merger().directory().total_pages() > 0);
        // Statistics recorded the combination.
        let combo = DatasetSet::from_ids(hot.iter().map(|&d| DatasetId(d)));
        assert_eq!(engine.stats().count(combo), 12);
    }

    #[test]
    fn disabled_planner_records_no_plans_and_keeps_legacy_merge_routing() {
        let Fixture {
            storage, engine, ..
        } = fixture(4, 2000, config().without_planner());
        let hot = [0u16, 1, 2];
        let mut merge_file_used = false;
        for i in 0..12 {
            let q = query(i, Vec3::splat(48.0 + (i % 3) as f64), 4.0, &hot);
            let outcome = engine.execute(&storage, &q).unwrap();
            assert!(
                outcome.plans.is_empty(),
                "legacy mode must not record planner decisions"
            );
            merge_file_used |= outcome.used_merge_file();
        }
        assert!(
            merge_file_used,
            "legacy per-key merge routing must still serve hot queries"
        );
    }

    #[test]
    fn small_combinations_are_never_merged() {
        let Fixture {
            storage, engine, ..
        } = fixture(3, 800, config());
        for i in 0..8 {
            let q = query(i, Vec3::splat(50.0), 4.0, &[0, 1]);
            let outcome = engine.execute(&storage, &q).unwrap();
            assert!(!outcome.merge_performed);
            assert_eq!(outcome.route, RouteKind::None);
        }
        assert!(engine.merger().directory().is_empty());
    }

    #[test]
    fn disabling_merging_keeps_directory_empty() {
        let Fixture {
            storage, engine, ..
        } = fixture(4, 1000, config().without_merging());
        for i in 0..10 {
            let q = query(i, Vec3::splat(50.0), 4.0, &[0, 1, 2, 3]);
            engine.execute(&storage, &q).unwrap();
        }
        assert!(engine.merger().directory().is_empty());
        assert_eq!(engine.merger().merges_performed(), 0);
    }

    #[test]
    fn superset_merge_file_serves_smaller_queries() {
        let Fixture {
            storage, engine, ..
        } = fixture(4, 1500, config());
        // Heat up {0,1,2,3} so it gets merged.
        for i in 0..6 {
            let q = query(i, Vec3::splat(50.0), 5.0, &[0, 1, 2, 3]);
            engine.execute(&storage, &q).unwrap();
        }
        assert_eq!(engine.merger().directory().len(), 1);
        // Now query a 3-subset in the same region: it should route to the
        // superset merge file.
        let q = query(100, Vec3::splat(50.0), 5.0, &[0, 1, 3]);
        let outcome = engine.execute(&storage, &q).unwrap();
        assert_eq!(outcome.route, RouteKind::Superset);
    }

    #[test]
    fn merge_respects_space_budget() {
        let mut cfg = config();
        cfg.merge_space_budget_pages = Some(1);
        let Fixture {
            storage, engine, ..
        } = fixture(4, 1500, cfg);
        for i in 0..8 {
            let q = query(i, Vec3::splat(50.0), 5.0, &[0, 1, 2]);
            engine.execute(&storage, &q).unwrap();
        }
        // The directory can never exceed the one-page budget; with entries
        // larger than a page it ends up empty (evicted) or minimal.
        assert!(engine.merger().directory().total_pages() <= 1);
    }

    #[test]
    fn queries_on_unknown_datasets_return_nothing_extra() {
        let Fixture {
            storage,
            engine,
            all_objects,
        } = fixture(2, 500, config());
        // Dataset 7 does not exist; the answer covers only dataset 0.
        let q = query(0, Vec3::splat(50.0), 60.0, &[0, 7]);
        let outcome = engine.execute(&storage, &q).unwrap();
        let expected: Vec<_> = odyssey_geom::scan_query(&q, all_objects.iter())
            .iter()
            .filter(|o| o.dataset == DatasetId(0))
            .map(|o| o.id)
            .collect();
        assert_eq!(outcome.objects.len(), expected.len());
        assert!(outcome.objects.iter().all(|o| o.dataset == DatasetId(0)));
    }

    #[test]
    fn merging_accelerates_the_hot_combination() {
        // The Figure 5c effect: queries for the hot combination become
        // cheaper once its partitions are merged.
        let run = |merging: bool| {
            let cfg = if merging {
                config()
            } else {
                config().without_merging()
            };
            let Fixture {
                storage, engine, ..
            } = fixture(5, 3000, cfg);
            let hot = [0u16, 1, 2, 3, 4];
            // Warm-up: let refinement converge and merging trigger.
            for i in 0..10 {
                let q = query(i, Vec3::splat(50.0), 4.0, &hot);
                engine.execute(&storage, &q).unwrap();
            }
            // Measure steady-state queries with a cold cache, as in the paper.
            let mut total = 0.0;
            for i in 0..10 {
                storage.clear_cache();
                let before = storage.stats();
                let q = query(100 + i, Vec3::splat(50.0 + (i % 3) as f64), 4.0, &hot);
                engine.execute(&storage, &q).unwrap();
                total += storage.seconds_since(&before);
            }
            total
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "merged hot-combination queries ({with}s) should beat unmerged ({without}s)"
        );
    }

    #[test]
    fn execute_batch_returns_results_in_order() {
        let Fixture {
            storage,
            engine,
            all_objects,
        } = fixture(3, 1000, config());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let queries: Vec<RangeQuery> = (0..24)
            .map(|i| {
                let c = Vec3::new(
                    rng.gen_range(10.0..90.0),
                    rng.gen_range(10.0..90.0),
                    rng.gen_range(10.0..90.0),
                );
                query(i, c, rng.gen_range(3.0..10.0), &[0, 1, 2])
            })
            .collect();
        let outcomes = engine
            .execute_batch_with_threads(&storage, &queries, 4)
            .unwrap();
        assert_eq!(outcomes.len(), queries.len());
        assert_eq!(engine.queries_executed(), queries.len() as u64);
        for (q, outcome) in queries.iter().zip(&outcomes) {
            let mut expected: Vec<_> = odyssey_geom::scan_query(q, all_objects.iter())
                .iter()
                .map(|o| (o.dataset, o.id))
                .collect();
            let mut got: Vec<_> = outcome.objects.iter().map(|o| (o.dataset, o.id)).collect();
            expected.sort_unstable();
            got.sort_unstable();
            got.dedup();
            assert_eq!(
                got, expected,
                "query {:?} diverged under batch execution",
                q.id
            );
        }
    }

    #[test]
    fn ingest_updates_answers_and_unknown_datasets_are_noops() {
        let Fixture {
            storage,
            engine,
            mut all_objects,
        } = fixture(2, 800, config());
        // Warm both datasets.
        let q = query(0, Vec3::splat(50.0), 30.0, &[0, 1]);
        engine.execute(&storage, &q).unwrap();
        let arrivals: Vec<SpatialObject> = (0..150u64)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(700_000 + i),
                    DatasetId(0),
                    Aabb::from_center_extent(Vec3::splat(40.0 + (i % 20) as f64), Vec3::splat(0.4)),
                )
            })
            .collect();
        let outcome = engine.ingest(&storage, DatasetId(0), &arrivals).unwrap();
        assert_eq!(outcome.objects_ingested, 150);
        all_objects.extend(arrivals.iter().copied());
        assert_eq!(engine.ingests_performed(), 1);
        assert_eq!(storage.stats().objects_ingested, 150);
        // Answers include the arrivals immediately.
        let q2 = query(1, Vec3::splat(50.0), 30.0, &[0, 1]);
        let got = engine.execute(&storage, &q2).unwrap();
        let expected = odyssey_geom::scan_query(&q2, all_objects.iter()).len();
        let mut ids: Vec<_> = got.objects.iter().map(|o| (o.dataset, o.id)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), expected);
        // Unknown dataset: accepted as a no-op.
        let unknown = engine.ingest(&storage, DatasetId(9), &[]).unwrap();
        assert_eq!(unknown.objects_ingested, 0);
        // A batch tagged with the wrong dataset is rejected before any of it
        // is applied.
        let before_seq = engine.dataset(DatasetId(1)).unwrap().ingest_seq();
        assert!(engine
            .ingest(&storage, DatasetId(1), &arrivals_for(0, 5))
            .is_err());
        assert_eq!(
            engine.dataset(DatasetId(1)).unwrap().ingest_seq(),
            before_seq,
            "a rejected batch must leave the dataset untouched"
        );
    }

    fn arrivals_for(ds: u16, n: u64) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(800_000 + i),
                    DatasetId(ds),
                    Aabb::from_center_extent(Vec3::splat(30.0), Vec3::splat(0.3)),
                )
            })
            .collect()
    }

    #[test]
    fn stale_merge_files_are_repaired_before_serving() {
        // Legacy mode (planner off): a stale merge file must be repaired on
        // the next touching query, and the repaired file serves the tail.
        let Fixture {
            storage,
            engine,
            mut all_objects,
        } = fixture(4, 2000, config().without_planner());
        let hot = [0u16, 1, 2];
        for i in 0..8 {
            let q = query(i, Vec3::splat(48.0 + (i % 3) as f64), 4.0, &hot);
            engine.execute(&storage, &q).unwrap();
        }
        assert_eq!(engine.merger().directory().len(), 1);
        // Ingest into dataset 1, inside the merged hot region.
        let arrivals: Vec<SpatialObject> = (0..60u64)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(900_000 + i),
                    DatasetId(1),
                    Aabb::from_center_extent(Vec3::splat(48.0 + (i % 3) as f64), Vec3::splat(0.3)),
                )
            })
            .collect();
        let ingest = engine.ingest(&storage, DatasetId(1), &arrivals).unwrap();
        assert_eq!(ingest.merge_files_stale, 1);
        all_objects.extend(arrivals.iter().copied());
        // The next hot query repairs the file and serves from it — with the
        // tail included in the answer.
        let q = query(100, Vec3::splat(49.0), 4.0, &hot);
        let outcome = engine.execute(&storage, &q).unwrap();
        assert!(outcome.stale_merge_repairs > 0, "{outcome:?}");
        assert!(!outcome.stale_merge_bypassed);
        assert!(outcome.used_merge_file());
        let mut got: Vec<_> = outcome.objects.iter().map(|o| (o.dataset, o.id)).collect();
        let mut expected: Vec<_> = odyssey_geom::scan_query(&q, all_objects.iter())
            .iter()
            .map(|o| (o.dataset, o.id))
            .collect();
        got.sort_unstable();
        got.dedup();
        expected.sort_unstable();
        assert_eq!(got, expected, "repaired merge file must serve the tail");
        assert!(engine.merger().staleness_repairs() > 0);
        // Once repaired, later queries see a fresh file: no further repairs.
        let q2 = query(101, Vec3::splat(49.0), 4.0, &hot);
        let outcome2 = engine.execute(&storage, &q2).unwrap();
        assert_eq!(outcome2.stale_merge_repairs, 0);
        assert!(outcome2.used_merge_file());
    }

    #[test]
    fn huge_ingest_tail_makes_the_planner_bypass_the_stale_file() {
        let Fixture {
            storage,
            engine,
            mut all_objects,
        } = fixture(4, 2000, config());
        let hot = [0u16, 1, 2];
        for i in 0..8 {
            let q = query(i, Vec3::splat(48.0 + (i % 3) as f64), 4.0, &hot);
            engine.execute(&storage, &q).unwrap();
        }
        assert_eq!(engine.merger().directory().len(), 1);
        // A tail far larger than anything a tiny query would read: repairing
        // costs more than serving the few hit partitions from the octree.
        let arrivals: Vec<SpatialObject> = (0..20_000u64)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(950_000 + i),
                    DatasetId(1),
                    Aabb::from_center_extent(
                        Vec3::new(
                            10.0 + (i % 80) as f64,
                            10.0 + ((i / 80) % 80) as f64,
                            10.0 + ((i / 6400) % 80) as f64,
                        ),
                        Vec3::splat(0.2),
                    ),
                )
            })
            .collect();
        engine.ingest(&storage, DatasetId(1), &arrivals).unwrap();
        all_objects.extend(arrivals.iter().copied());
        let q = query(200, Vec3::splat(48.5), 2.0, &hot);
        let outcome = engine.execute(&storage, &q).unwrap();
        assert!(
            outcome.stale_merge_bypassed,
            "a tiny query must not pay a 20k-object repair: {:?}",
            outcome.plans
        );
        assert_eq!(outcome.stale_merge_repairs, 0);
        assert!(engine.stale_bypasses() > 0);
        // Bypassed — but still exact.
        let mut got: Vec<_> = outcome.objects.iter().map(|o| (o.dataset, o.id)).collect();
        let mut expected: Vec<_> = odyssey_geom::scan_query(&q, all_objects.iter())
            .iter()
            .map(|o| (o.dataset, o.id))
            .collect();
        got.sort_unstable();
        got.dedup();
        expected.sort_unstable();
        assert_eq!(got, expected, "bypassed stale file must not lose the tail");
    }

    #[test]
    fn mixed_ops_batch_is_deterministic_and_ordered() {
        let cfg = config();
        let Fixture {
            storage,
            engine,
            mut all_objects,
        } = fixture(3, 1000, cfg);
        let mut ops: Vec<EngineOp> = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for i in 0..24u32 {
            if i % 4 == 0 {
                let ds = (i % 3) as u16;
                let objects: Vec<SpatialObject> = (0..50u64)
                    .map(|j| {
                        SpatialObject::new(
                            ObjectId(600_000 + i as u64 * 100 + j),
                            DatasetId(ds),
                            Aabb::from_center_extent(
                                Vec3::new(
                                    rng.gen_range(20.0..80.0),
                                    rng.gen_range(20.0..80.0),
                                    rng.gen_range(20.0..80.0),
                                ),
                                Vec3::splat(0.3),
                            ),
                        )
                    })
                    .collect();
                all_objects.extend(objects.iter().copied());
                ops.push(EngineOp::Ingest {
                    dataset: DatasetId(ds),
                    objects,
                });
            } else {
                let c = Vec3::new(
                    rng.gen_range(15.0..85.0),
                    rng.gen_range(15.0..85.0),
                    rng.gen_range(15.0..85.0),
                );
                ops.push(EngineOp::Query(Query::Range(query(
                    i,
                    c,
                    rng.gen_range(3.0..10.0),
                    &[0, 1, 2],
                ))));
            }
        }
        let outcomes = engine
            .execute_ops_batch_with_threads(&storage, &ops, 8)
            .unwrap();
        assert_eq!(outcomes.len(), ops.len());
        // Outcomes align with input ops, every ingest applied exactly once,
        // and every query answers over the full post-ingest state.
        for (op, outcome) in ops.iter().zip(&outcomes) {
            match (op, outcome) {
                (EngineOp::Ingest { objects, .. }, OpOutcome::Ingest(o)) => {
                    assert_eq!(o.objects_ingested, objects.len());
                }
                (EngineOp::Query(q), OpOutcome::Query(o)) => {
                    let mut got: Vec<_> = o.objects.iter().map(|x| (x.dataset, x.id)).collect();
                    let mut expected: Vec<_> = match q {
                        Query::Range(rq) => odyssey_geom::scan_query(rq, all_objects.iter())
                            .iter()
                            .map(|x| (x.dataset, x.id))
                            .collect(),
                        _ => unreachable!(),
                    };
                    got.sort_unstable();
                    got.dedup();
                    expected.sort_unstable();
                    assert_eq!(got, expected, "query {:?} diverged", q.id());
                    assert!(outcome.as_query().is_some() && outcome.as_ingest().is_none());
                }
                _ => panic!("outcome kind does not match op kind"),
            }
        }
        let total: u64 = (0..3u16)
            .map(|d| {
                engine
                    .dataset(DatasetId(d))
                    .unwrap()
                    .partitions()
                    .iter()
                    .map(|p| p.object_count)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(
            total,
            3 * 1000 + 2 * 50 + 4 * 50,
            "ingests applied exactly once"
        );
    }

    #[test]
    fn execute_batch_with_zero_or_one_thread_runs_inline() {
        let Fixture {
            storage, engine, ..
        } = fixture(2, 400, config());
        let queries = vec![
            query(0, Vec3::splat(40.0), 5.0, &[0, 1]),
            query(1, Vec3::splat(60.0), 5.0, &[0]),
        ];
        assert_eq!(
            engine
                .execute_batch_with_threads(&storage, &queries, 0)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            engine
                .execute_batch_with_threads(&storage, &queries, 1)
                .unwrap()
                .len(),
            2
        );
        assert!(engine.execute_batch(&storage, &[]).unwrap().is_empty());
    }
}
