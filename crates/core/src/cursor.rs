//! Seeking query cursors: the streaming read path.
//!
//! [`QueryCursor`] executes any typed [`Query`] as a sequence of *stages*
//! that are drained lazily, batch by batch, instead of materializing the
//! whole answer upfront:
//!
//! 1. **buffered** — objects that had to be gathered while adapting
//!    (refinement and first-touch side effects), plus the merged top-`k` of
//!    a kNN query (which is `O(k)` by construction);
//! 2. **merge file** — the partition runs routed to a merge file, visited in
//!    file order (sorted by run start) so the merged layout's long
//!    sequential sweeps survive streaming; each pull reads one entry;
//! 3. **octree** — the remaining partitioned reads, one region per pull;
//! 4. **sequential scans** — datasets the planner sent to the raw file,
//!    read in page chunks sized to the batch.
//!
//! Memory per in-flight query is bounded by the configured
//! [`crate::OdysseyConfig::stream_batch_objects`] plus the largest single
//! partition or merge entry (a pull never splits one partition read), not by
//! the result cardinality. Two caveats keep the adaptive semantics intact:
//! refinement work at `open` buffers the objects it had to touch (stage 1),
//! and a count query performs all its counting on the first
//! [`QueryCursor::next_batch`] call — counts have nothing to stream.
//!
//! Early exits are first-class: count queries take provably contained
//! partitions from partition metadata (octree path) **or** merge-run
//! metadata (merge path) without reading their pages, and kNN traversals
//! stop at the mindist bound — both report the rows they skipped through
//! [`QueryOutcome::rows_skipped_by_early_exit`].
//!
//! # Consistency
//!
//! A cursor observes each (dataset, partition) exactly once, so a fully
//! drained cursor returns exactly what the materialized path returns for the
//! same engine state. There is **no snapshot isolation across batches**: an
//! ingest that lands between two `next_batch` calls may or may not appear in
//! later batches, exactly as it may or may not appear in a concurrently
//! executing materialized query. Merge files are re-validated on every pull
//! (eviction or staleness between batches falls back to the octree path), so
//! a stale merge entry is never served.
//!
//! The Statistics Collector, the WAL query record, the merge trigger and
//! the maintenance-job triggers all run when the cursor is *exhausted* —
//! an abandoned (dropped, partially drained) cursor contributes no
//! statistics and triggers no adaptation, mirroring a query that never ran
//! to completion. The one exception is maintenance: dropping an
//! unexhausted cursor still *enqueues* (never runs) the compaction
//! triggers it observed, so abandoning a query cannot silently swallow a
//! dataset's dead-page debt.

use crate::durability::{self, MetaRecord};
use crate::engine::{QueryOutcome, SpaceOdyssey};
use crate::merger::RouteKind;
use crate::octree::{top_k_candidates, DatasetIndex};
use crate::partition::PartitionKey;
use crate::planner::{AccessPath, PlanChoice, Planner};
use crate::scheduler::{JobKey, JobSpec};
use odyssey_geom::{DatasetId, DatasetSet, KnnQuery, Query, RangeQuery, SpatialObject};
use odyssey_storage::{pages_needed, FileId, StorageManager, StorageResult};
use std::collections::VecDeque;

/// One dataset's sequential-scan progress.
#[derive(Debug, Clone, Copy)]
struct ScanState {
    dataset: DatasetId,
    file: FileId,
    next_page: u64,
    end_page: u64,
}

/// What kind of drain the cursor performs.
#[derive(Debug, Clone, Copy)]
enum CursorMode {
    /// Range, point and count queries (point queries arrive as degenerate
    /// ranges; `counting` selects the non-materializing count mode).
    Rangelike { query: RangeQuery, counting: bool },
    /// kNN queries: the `O(k)` answer is computed at open and streamed from
    /// the buffered stage.
    Knn,
}

/// A streaming handle over one executing query. Obtain one with
/// [`SpaceOdyssey::open_cursor`], then call [`QueryCursor::next_batch`]
/// until it returns `None` and [`QueryCursor::finish`] for the outcome.
#[derive(Debug)]
pub struct QueryCursor<'a> {
    engine: &'a SpaceOdyssey,
    storage: &'a StorageManager,
    mode: CursorMode,
    batch_objects: usize,
    scan_chunk_pages: u64,
    /// Combination recorded in statistics and the WAL (differs from the
    /// executed combination only for cache partial-reuse re-executions).
    stats_combination: DatasetSet,
    /// Combination actually executed by this cursor.
    exec_combination: DatasetSet,
    /// Per-dataset ingest sequences captured before the first read — the
    /// freshness stamps a result-cache fill records.
    captured_seqs: Vec<(DatasetId, u64)>,
    // --- stages ---
    buffered: VecDeque<SpatialObject>,
    served: Vec<(PartitionKey, DatasetSet)>,
    served_pos: usize,
    merge_target: DatasetSet,
    pending: Vec<(DatasetId, PartitionKey)>,
    pending_pos: usize,
    scans: Vec<ScanState>,
    // --- per-dataset answer shares (result-cache components) ---
    per_dataset_counts: Vec<(DatasetId, u64)>,
    knn_components: Vec<(DatasetId, Vec<SpatialObject>)>,
    // --- accumulated outcome ---
    count: u64,
    emitted: u64,
    plans: Vec<PlanChoice>,
    route: RouteKind,
    refined: usize,
    from_merge: usize,
    from_datasets: usize,
    metadata_counted: usize,
    retrieved_union: Vec<PartitionKey>,
    stale_repairs: usize,
    stale_bypassed: bool,
    rows_skipped: u64,
    merge_performed: bool,
    compactions: usize,
    jobs_waited: u64,
    exhausted: bool,
}

impl<'a> QueryCursor<'a> {
    /// Opens a cursor over `query` with statistics recorded against the
    /// query's own combination.
    pub(crate) fn open(
        engine: &'a SpaceOdyssey,
        storage: &'a StorageManager,
        query: &Query,
    ) -> StorageResult<Self> {
        Self::open_with_stats(engine, storage, query, query.datasets())
    }

    /// Opens a cursor over `query` while recording statistics against
    /// `stats_combination` — the cache partial-reuse path re-executes only
    /// the stale datasets but must keep counting the full combination, or
    /// recovered statistics (and the merge trigger) would drift from a
    /// cache-less engine's.
    pub(crate) fn open_with_stats(
        engine: &'a SpaceOdyssey,
        storage: &'a StorageManager,
        query: &Query,
        stats_combination: DatasetSet,
    ) -> StorageResult<Self> {
        match query {
            Query::Range(q) => Self::open_rangelike(engine, storage, *q, false, stats_combination),
            Query::Point(q) => {
                Self::open_rangelike(engine, storage, q.as_range(), false, stats_combination)
            }
            Query::Count(q) => {
                Self::open_rangelike(engine, storage, q.as_range(), true, stats_combination)
            }
            Query::KNearestNeighbors(q) => Self::open_knn(engine, storage, q, stats_combination),
        }
    }

    fn blank(
        engine: &'a SpaceOdyssey,
        storage: &'a StorageManager,
        mode: CursorMode,
        stats_combination: DatasetSet,
        exec_combination: DatasetSet,
    ) -> Self {
        let batch_objects = engine.config.stream_batch_objects.max(1);
        QueryCursor {
            engine,
            storage,
            mode,
            batch_objects,
            scan_chunk_pages: pages_needed(batch_objects).max(1),
            stats_combination,
            exec_combination,
            captured_seqs: Vec::new(),
            buffered: VecDeque::new(),
            served: Vec::new(),
            served_pos: 0,
            merge_target: DatasetSet::EMPTY,
            pending: Vec::new(),
            pending_pos: 0,
            scans: Vec::new(),
            per_dataset_counts: Vec::new(),
            knn_components: Vec::new(),
            count: 0,
            emitted: 0,
            plans: Vec::new(),
            route: RouteKind::None,
            refined: 0,
            from_merge: 0,
            from_datasets: 0,
            metadata_counted: 0,
            retrieved_union: Vec::new(),
            stale_repairs: 0,
            stale_bypassed: false,
            rows_skipped: 0,
            merge_performed: false,
            compactions: 0,
            jobs_waited: 0,
            exhausted: false,
        }
    }

    /// Captures every known queried dataset's ingest sequence *before* the
    /// first read. An ingest racing the capture can only make the stamps
    /// conservative (older than the data actually read), so a cache entry
    /// filled from them can be invalidated needlessly but never served
    /// stale.
    fn capture_seqs(&mut self) {
        self.captured_seqs = self
            .exec_combination
            .iter()
            .filter_map(|id| {
                self.engine
                    .datasets
                    .iter()
                    .find(|d| d.dataset() == id)
                    .map(|d| (id, d.ingest_seq()))
            })
            .collect();
    }

    fn add_dataset_count(&mut self, dataset: DatasetId, n: u64) {
        match self
            .per_dataset_counts
            .iter_mut()
            .find(|(d, _)| *d == dataset)
        {
            Some((_, c)) => *c += n,
            None => self.per_dataset_counts.push((dataset, n)),
        }
    }

    /// The staged open of range, point and count queries: the planner probe,
    /// staleness resolution and per-dataset adaptation happen here (they are
    /// what decides *what* to read); the reads themselves are deferred to
    /// [`QueryCursor::next_batch`].
    fn open_rangelike(
        engine: &'a SpaceOdyssey,
        storage: &'a StorageManager,
        query: RangeQuery,
        counting: bool,
        stats_combination: DatasetSet,
    ) -> StorageResult<Self> {
        let combination = query.datasets;
        let mut cursor = Self::blank(
            engine,
            storage,
            CursorMode::Rangelike { query, counting },
            stats_combination,
            combination,
        );
        cursor.capture_seqs();
        let planner = Planner::new(&engine.config);

        // Phase 0: choose an access path per queried dataset. The probe peeks
        // at the merge directory without bumping its LRU clock; the real
        // routing decision below records recency as before. With the planner
        // disabled (the paper's behaviour) no probe runs and no plans are
        // recorded: every dataset takes the adaptive path and stays eligible
        // for per-key merge routing.
        let merge_eligible = if engine.config.planner_enabled {
            let merger = engine.merger.read();
            let (file, _) = merger.directory().peek(combination);
            for dataset_id in combination.iter() {
                if let Some(index) = engine.datasets.iter().find(|d| d.dataset() == dataset_id) {
                    cursor
                        .plans
                        .push(planner.plan_rangelike(storage, index, &query, counting, file));
                }
            }
            DatasetSet::from_ids(
                cursor
                    .plans
                    .iter()
                    .filter(|p| p.path == AccessPath::MergeFile)
                    .map(|p| p.dataset),
            )
        } else {
            combination
        };

        // Phase 0.5: staleness resolution, through the maintenance
        // scheduler. If a repair job for the routed file is already in
        // flight, wait for it and re-probe — a query never repairs
        // alongside an in-flight repair. What remains stale becomes a
        // `StalenessRepair` job: foreground mode drains it before reading
        // (observably identical to the old inline repair), background mode
        // leaves it queued for the next `run_maintenance` pump and takes
        // the bypass path (phase 2's freshness check routes the stale
        // datasets to the octree) for this query.
        {
            let probe = || {
                let merger = engine.merger.read();
                match merger.directory().peek(combination).0 {
                    Some(file) => {
                        let stale = engine.stale_subset(file, combination);
                        (
                            file.combination,
                            stale.intersection(merge_eligible),
                            stale.difference(merge_eligible),
                        )
                    }
                    None => (DatasetSet::EMPTY, DatasetSet::EMPTY, DatasetSet::EMPTY),
                }
            };
            let (mut target, mut to_repair, mut to_bypass) = probe();
            if !to_repair.is_empty()
                && engine
                    .maintenance
                    .wait_if_running(JobKey::StalenessRepair(target))
            {
                cursor.jobs_waited += 1;
                (target, to_repair, to_bypass) = probe();
            }
            let mut bypassed = !to_bypass.is_empty();
            if !to_repair.is_empty() {
                engine.submit_job(
                    storage,
                    JobSpec::StalenessRepair {
                        combination: target,
                        wanted: to_repair,
                    },
                );
                if engine.config.maintenance_background {
                    bypassed = true;
                } else {
                    let report = engine.run_maintenance(storage)?;
                    cursor.stale_repairs = report.repair_runs_appended as usize;
                }
            }
            if bypassed {
                cursor.stale_bypassed = true;
                engine
                    .stale_bypasses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }

        // Phase 1: per dataset, either set up the chunked raw-file sweep
        // (sequential-scan path, adaptive state deliberately untouched) or
        // adapt now and queue the partition reads. The per-dataset prepare
        // calls fan out over borrowed maintenance helper slots when
        // [`crate::OdysseyConfig::intra_query_parallelism`] allows — each
        // dataset's adaptation stays exactly-once under its own lock, and
        // the fold below runs in dataset order, so the cursor's state is
        // identical to the sequential build.
        let mut prep_targets: Vec<(DatasetId, &DatasetIndex)> = Vec::new();
        for dataset_id in combination.iter() {
            let Some(index) = engine.datasets.iter().find(|d| d.dataset() == dataset_id) else {
                continue; // unknown dataset: nothing to answer
            };
            let path = cursor
                .plans
                .iter()
                .find(|p| p.dataset == dataset_id)
                .map(|p| p.path)
                .unwrap_or(AccessPath::Octree);
            if path == AccessPath::SeqScan {
                let raw = index.raw();
                let pages = raw.pages();
                cursor.scans.push(ScanState {
                    dataset: dataset_id,
                    file: raw.file,
                    next_page: pages.start,
                    end_page: pages.end,
                });
                continue;
            }
            prep_targets.push((dataset_id, index));
        }
        let preps = engine.fan_datasets(&prep_targets, |(_, index)| {
            index.prepare_query(storage, &engine.config, &query)
        })?;
        for ((dataset_id, _), prep) in prep_targets.iter().zip(preps) {
            let dataset_id = *dataset_id;
            cursor.refined += prep.refined;
            // Partitions answered during refinement / first touch count as
            // individual-dataset reads.
            cursor.from_datasets += prep.retrieved_keys.len() - prep.pending_keys.len();
            if counting {
                cursor.count += prep.collected.len() as u64;
                cursor.add_dataset_count(dataset_id, prep.collected.len() as u64);
            } else {
                cursor.buffered.extend(prep.collected);
            }
            cursor
                .retrieved_union
                .extend(prep.retrieved_keys.iter().copied());
            cursor
                .pending
                .extend(prep.pending_keys.iter().map(|k| (dataset_id, *k)));
        }
        cursor.retrieved_union.sort_unstable();
        cursor.retrieved_union.dedup();

        // Count short-circuit, octree path: a pending partition whose bounds
        // lie fully inside the counted range contributes its object count
        // from the partition table alone — objects are assigned by center,
        // so every object of such a partition has its center (hence its MBR)
        // in the range. No page is read.
        if counting {
            let mut count = cursor.count;
            let mut metadata_counted = cursor.metadata_counted;
            let mut rows_skipped = cursor.rows_skipped;
            let mut counted: Vec<(DatasetId, u64)> = Vec::new();
            cursor.pending.retain(|(dataset_id, key)| {
                let index = engine
                    .datasets
                    .iter()
                    .find(|d| d.dataset() == *dataset_id)
                    .expect("pending keys only come from known datasets"); // analyzer: allow(staged keys reference datasets resolved at plan time)
                if let Some(partition) = index.partition(key) {
                    if query.range.contains(&partition.bounds) {
                        count += partition.object_count;
                        metadata_counted += 1;
                        rows_skipped += partition.object_count;
                        counted.push((*dataset_id, partition.object_count));
                        return false;
                    }
                }
                true
            });
            cursor.count = count;
            cursor.metadata_counted = metadata_counted;
            cursor.rows_skipped = rows_skipped;
            for (dataset, n) in counted {
                cursor.add_dataset_count(dataset, n);
            }
        }

        // Phase 2 (selection only): route the pending reads of merge-planned
        // datasets through the merge directory and order them by run start,
        // so the streaming reads still come back as the merged layout's long
        // sequential sweeps. The reads themselves happen per pull, each
        // under a fresh merger read guard with freshness re-validated —
        // eviction or new staleness between batches falls back to the
        // octree path instead of serving dropped objects.
        {
            let merger = engine.merger.read();
            let (file, route) = merger.directory().route(combination);
            cursor.route = route;
            if let Some(file) = file {
                let merged_combo = file.combination;
                let fresh = combination
                    .intersection(merged_combo)
                    .difference(engine.stale_subset(file, combination));
                let mut served: Vec<(PartitionKey, DatasetSet)> = Vec::new();
                cursor.pending.retain(|(dataset, key)| {
                    let in_file = merge_eligible.contains(*dataset)
                        && fresh.contains(*dataset)
                        && file.contains(key);
                    if in_file {
                        match served.iter_mut().find(|(k, _)| k == key) {
                            Some((_, set)) => set.insert(*dataset),
                            None => served.push((*key, DatasetSet::single(*dataset))),
                        }
                        false
                    } else {
                        true
                    }
                });
                served.sort_by_key(|(key, _)| {
                    file.entry(key)
                        .and_then(|e| e.runs.first().map(|r| r.page_start))
                        .unwrap_or(u64::MAX)
                });
                cursor.served = served;
                cursor.merge_target = merged_combo;
            }
        }
        Ok(cursor)
    }

    /// kNN open: the answer is `O(k)` per dataset, so it is computed here
    /// (with the mindist-pruned, heap-bounded traversal) and streamed from
    /// the buffered stage.
    fn open_knn(
        engine: &'a SpaceOdyssey,
        storage: &'a StorageManager,
        query: &KnnQuery,
        stats_combination: DatasetSet,
    ) -> StorageResult<Self> {
        let combination = query.datasets;
        let mut cursor = Self::blank(
            engine,
            storage,
            CursorMode::Knn,
            stats_combination,
            combination,
        );
        cursor.capture_seqs();
        let planner = Planner::new(&engine.config);
        let targets: Vec<(DatasetId, &DatasetIndex)> = combination
            .iter()
            .filter_map(|dataset_id| {
                engine
                    .datasets
                    .iter()
                    .find(|d| d.dataset() == dataset_id)
                    .map(|index| (dataset_id, index))
                // unknown datasets: nothing to answer
            })
            .collect();
        // Per-dataset planning + top-k gathering, fanned over borrowed
        // helper slots when intra-query parallelism allows; the fold below
        // runs in dataset order, keeping plans and components (and hence
        // the merged answer) deterministic.
        let gathered = engine.fan_datasets(&targets, |(_, index)| {
            let plan = engine
                .config
                .planner_enabled
                .then(|| planner.plan_knn(storage, index, query));
            let path = plan.as_ref().map(|p| p.path).unwrap_or(AccessPath::Octree);
            if path == AccessPath::SeqScan {
                let candidates = top_k_candidates(index.scan_raw(storage)?, query.point, query.k);
                Ok((plan, candidates, 0))
            } else {
                let prep = index.knn(storage, &engine.config, query.point, query.k)?;
                Ok((plan, prep.results, prep.rows_skipped))
            }
        })?;
        for ((dataset_id, _), (plan, candidates, rows_skipped)) in targets.iter().zip(gathered) {
            cursor.plans.extend(plan);
            cursor.rows_skipped += rows_skipped;
            cursor.knn_components.push((*dataset_id, candidates));
        }
        // Deterministic (distance, dataset, id) merge across the per-dataset
        // top-k lists.
        cursor.buffered = top_k_candidates(
            cursor
                .knn_components
                .iter()
                .flat_map(|(_, objs)| objs.iter().copied()),
            query.point,
            query.k,
        )
        .into();
        Ok(cursor)
    }

    /// Whether any stage still has reads (or buffered objects) left.
    fn has_work(&self) -> bool {
        !self.buffered.is_empty()
            || self.served_pos < self.served.len()
            || self.pending_pos < self.pending.len()
            || self.scans.iter().any(|s| s.next_page < s.end_page)
    }

    /// Performs one unit of staged work, appending any produced objects to
    /// `out`. Returns `false` when every stage is exhausted.
    fn pull(&mut self, out: &mut Vec<SpatialObject>) -> StorageResult<bool> {
        if !self.buffered.is_empty() {
            let want = self.batch_objects.saturating_sub(out.len()).max(1);
            for _ in 0..want {
                match self.buffered.pop_front() {
                    Some(o) => {
                        self.emitted += 1;
                        out.push(o);
                    }
                    None => break,
                }
            }
            return Ok(true);
        }
        if self.served_pos < self.served.len() {
            self.pull_merge_entry(out)?;
            return Ok(true);
        }
        if self.pending_pos < self.pending.len() {
            self.pull_pending_region(out)?;
            return Ok(true);
        }
        if let Some(i) = self.scans.iter().position(|s| s.next_page < s.end_page) {
            self.pull_scan_chunk(i, out)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reads (or metadata-counts) one routed merge entry. The merge file is
    /// re-located and its freshness re-checked under a fresh read guard:
    /// entries evicted or gone stale since the cursor opened fall back to
    /// the per-dataset octree path, so streaming never serves an answer a
    /// materialized query would not.
    fn pull_merge_entry(&mut self, out: &mut Vec<SpatialObject>) -> StorageResult<()> {
        let (key, wanted) = self.served[self.served_pos];
        self.served_pos += 1;
        let CursorMode::Rangelike { query, counting } = self.mode else {
            // analyzer: allow(merge entries are staged only in Rangelike mode)
            unreachable!("merge entries are only staged for range-like queries");
        };
        let engine = self.engine;
        let merger = engine.merger.read();
        let file = merger
            .directory()
            .iter()
            .find(|f| f.combination == self.merge_target && f.contains(&key));
        let Some(file) = file else {
            drop(merger);
            for ds in wanted.iter() {
                self.pending.push((ds, key));
            }
            return Ok(());
        };
        let stale = engine.stale_subset(file, wanted);
        let fresh = wanted.difference(stale);
        for ds in stale.iter() {
            self.pending.push((ds, key));
        }
        if fresh.is_empty() {
            return Ok(());
        }
        // Count short-circuit, merge path: a contained entry is counted from
        // its run metadata (main run + repair tails hold exactly the fresh
        // datasets' objects for the region) without reading a page — the
        // same I/O a metadata-counted octree partition costs, so the
        // planner's choice of path never changes how much I/O a count needs.
        if counting {
            let k = engine.config.splits_per_dimension();
            let bounds = key.bounds(&engine.config.bounds, k);
            if query.range.contains(&bounds) {
                if let Some(entry) = file.entry(&key) {
                    let mut counted: Vec<(DatasetId, u64)> = Vec::new();
                    for run in entry.runs.iter().filter(|r| fresh.contains(r.dataset)) {
                        counted.push((run.dataset, run.object_count));
                    }
                    drop(merger);
                    for (dataset, n) in counted {
                        self.count += n;
                        self.rows_skipped += n;
                        self.add_dataset_count(dataset, n);
                    }
                    self.metadata_counted += fresh.len();
                    return Ok(());
                }
            }
        }
        let objs = file.read(self.storage, &key, fresh)?;
        drop(merger);
        self.storage.note_objects_scanned(objs.len() as u64);
        self.from_merge += fresh.len();
        for o in objs {
            if query.matches(&o) {
                if counting {
                    self.count += 1;
                    self.add_dataset_count(o.dataset, 1);
                } else {
                    self.emitted += 1;
                    out.push(o);
                }
            }
        }
        Ok(())
    }

    /// Reads one pending region from its dataset's partition file.
    /// `read_region` (rather than a plain key lookup) closes the race where
    /// another thread refines a pending partition away between the open's
    /// planning phase and this read.
    fn pull_pending_region(&mut self, out: &mut Vec<SpatialObject>) -> StorageResult<()> {
        let (dataset_id, key) = self.pending[self.pending_pos];
        self.pending_pos += 1;
        let CursorMode::Rangelike { query, counting } = self.mode else {
            // analyzer: allow(regions are staged only in Rangelike mode)
            unreachable!("pending regions are only staged for range-like queries");
        };
        let index = self
            .engine
            .datasets
            .iter()
            .find(|d| d.dataset() == dataset_id)
            .expect("pending keys only come from known datasets"); // analyzer: allow(staged keys reference datasets resolved at plan time)
        let objs = index
            .read_region(self.storage, &self.engine.config, &key)?
            .unwrap_or_default();
        self.storage.note_objects_scanned(objs.len() as u64);
        self.from_datasets += 1;
        for o in objs {
            if query.matches(&o) {
                if counting {
                    self.count += 1;
                    self.add_dataset_count(o.dataset, 1);
                } else {
                    self.emitted += 1;
                    out.push(o);
                }
            }
        }
        Ok(())
    }

    /// Reads the next page chunk of one sequential scan.
    fn pull_scan_chunk(&mut self, i: usize, out: &mut Vec<SpatialObject>) -> StorageResult<()> {
        let scan = self.scans[i];
        let CursorMode::Rangelike { query, counting } = self.mode else {
            unreachable!("scans are only staged for range-like queries"); // analyzer: allow(scans are staged only in Rangelike mode)
        };
        let end = (scan.next_page + self.scan_chunk_pages).min(scan.end_page);
        let objs = self.storage.read_objects(scan.file, scan.next_page..end)?;
        self.scans[i].next_page = end;
        for o in objs {
            if query.matches(&o) {
                if counting {
                    self.count += 1;
                    self.add_dataset_count(scan.dataset, 1);
                } else {
                    self.emitted += 1;
                    out.push(o);
                }
            }
        }
        Ok(())
    }

    /// Returns the next batch of matching objects, or `None` once the query
    /// is fully drained (count queries always drain on the first call and
    /// return `None`; their count is reported by [`QueryCursor::finish`]).
    ///
    /// A batch holds at least one and roughly
    /// [`crate::OdysseyConfig::stream_batch_objects`] objects — one pull
    /// never splits a single partition or merge entry, so a batch can
    /// overshoot by at most one partition's matches.
    pub fn next_batch(&mut self) -> StorageResult<Option<Vec<SpatialObject>>> {
        if self.exhausted {
            return Ok(None);
        }
        let mut out: Vec<SpatialObject> = Vec::new();
        loop {
            if out.len() >= self.batch_objects {
                break;
            }
            if !self.pull(&mut out)? {
                break;
            }
        }
        if out.is_empty() && !self.has_work() {
            self.finalize()?;
            self.exhausted = true;
            return Ok(None);
        }
        Ok(Some(out))
    }

    /// Advances the cursor past up to `n` matching objects without
    /// returning them; returns how many were actually skipped (fewer only
    /// when the query is exhausted). Pagination's `OFFSET`: the skipped
    /// objects are still read and filtered — provable skipping (metadata
    /// counts, kNN pruning) is the engine's job, not the seek's.
    pub fn seek(&mut self, n: u64) -> StorageResult<u64> {
        let mut skipped = 0u64;
        while skipped < n {
            let Some(batch) = self.next_batch()? else {
                break;
            };
            let need = (n - skipped) as usize;
            if batch.len() > need {
                // Put the overshoot back so the next batch starts exactly
                // where the seek ended.
                for o in batch.into_iter().skip(need).rev() {
                    self.buffered.push_front(o);
                    self.emitted -= 1;
                }
                skipped += need as u64;
            } else {
                skipped += batch.len() as u64;
            }
        }
        Ok(skipped)
    }

    /// Whether the cursor has been fully drained (statistics recorded).
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The ingest sequences captured at open, per known queried dataset.
    pub(crate) fn captured_seqs(&self) -> &[(DatasetId, u64)] {
        &self.captured_seqs
    }

    /// Count queries: the per-dataset share of the count.
    pub(crate) fn per_dataset_counts(&self) -> &[(DatasetId, u64)] {
        &self.per_dataset_counts
    }

    /// kNN queries: each dataset's full top-`k` candidate list.
    pub(crate) fn knn_components(&self) -> &[(DatasetId, Vec<SpatialObject>)] {
        &self.knn_components
    }

    /// The drained query's outcome. Objects are whatever the caller
    /// collected from [`QueryCursor::next_batch`]; the returned outcome
    /// carries the counters (and, for count queries, the count). Calling
    /// this before the cursor is exhausted reports the counters so far —
    /// statistics are only recorded at exhaustion.
    pub fn finish(mut self) -> QueryOutcome {
        let counting = matches!(self.mode, CursorMode::Rangelike { counting: true, .. });
        QueryOutcome {
            objects: Vec::new(),
            count: if counting { self.count } else { self.emitted },
            plans: std::mem::take(&mut self.plans),
            route: self.route,
            partitions_refined: self.refined,
            partitions_from_merge_file: self.from_merge,
            partitions_from_datasets: self.from_datasets,
            partitions_counted_from_metadata: self.metadata_counted,
            merge_performed: self.merge_performed,
            stale_merge_repairs: self.stale_repairs,
            stale_merge_bypassed: self.stale_bypassed,
            compactions_performed: self.compactions,
            cache_hits: 0,
            cache_misses: 0,
            cache_partial_reuses: 0,
            rows_skipped_by_early_exit: self.rows_skipped,
            maintenance_jobs_waited: self.jobs_waited,
            queue_wait_micros: 0,
            batch_size_served: 0,
        }
    }

    /// The merge trigger, gated by the combination's summed layout version
    /// ([`SpaceOdyssey::layout_version`]). A merge file remembers the version
    /// at which every retrieved key was last swept into it; every key that
    /// sweep left out failed the same-level check, and that check depends
    /// on the leaf key sets only. So while the version stands still, only
    /// keys new to the statistics (`new_keys`) can merge, and the trigger
    /// does work proportional to them:
    ///
    /// * file present, version unchanged, nothing stale, every new key
    ///   already merged: decided under read locks — no exclusive lock, no
    ///   candidate copy;
    /// * version unchanged but new keys or a repair due: merge just the new
    ///   keys (the merge repairs first);
    /// * otherwise (no file, the version moved, an eviction or a reopen
    ///   dropped the record): the full sweep over every retrieved key,
    ///   recorded at the version read *before* it started.
    ///
    /// New keys are appended in key order, as a full sweep would append
    /// them, so the file's layout is the same either way.
    fn merge_trigger(&mut self, new_keys: Vec<PartitionKey>) -> StorageResult<()> {
        let engine = self.engine;
        let combination = self.stats_combination;
        let layout = engine.layout_version(combination);
        let incremental = {
            let merger = engine.merger.read();
            if !merger.should_merge(&engine.config, &engine.stats.read(), combination) {
                return Ok(());
            }
            match merger.directory().get_exact(combination) {
                Some(file) if file.swept_at() == Some(layout) => {
                    if engine.stale_subset(file, combination).is_empty()
                        && new_keys.iter().all(|key| file.contains(key))
                    {
                        return Ok(());
                    }
                    true
                }
                _ => false,
            }
        };
        let candidates: Vec<PartitionKey> = if incremental {
            new_keys
        } else {
            engine
                .stats
                .read()
                .retrieved(combination)
                .map(|set| set.iter().copied().collect())
                .unwrap_or_default()
        };
        if candidates.is_empty() && !incremental {
            return Ok(());
        }
        let mut merger = engine.merger.write();
        let summary = merger.merge_combination(
            self.storage,
            &engine.config,
            combination,
            &candidates,
            &engine.datasets,
        )?;
        if !incremental {
            if let Some(file) = merger.directory_mut().get_exact_mut(combination) {
                file.record_sweep(layout);
            }
        }
        self.merge_performed = summary.entries_appended > 0;
        Ok(())
    }

    /// The end-of-query phases the materialized path ran after its reads:
    /// statistics + WAL record, the merge trigger, inline compaction, and
    /// the early-exit accounting.
    fn finalize(&mut self) -> StorageResult<()> {
        let engine = self.engine;
        if self.rows_skipped > 0 {
            self.storage.note_rows_skipped(self.rows_skipped);
            engine
                .rows_skipped_by_early_exit
                .fetch_add(self.rows_skipped, std::sync::atomic::Ordering::Relaxed);
        }
        let new_keys = {
            let mut stats = engine.stats.write();
            let new_keys = stats.record(self.stats_combination, &self.retrieved_union);
            durability::log(
                self.storage,
                MetaRecord::QueryStats {
                    combination: self.stats_combination,
                    retrieved: self.retrieved_union.clone(),
                    stale_bypassed: self.stale_bypassed,
                },
            )?;
            new_keys
        };
        if matches!(self.mode, CursorMode::Knn) {
            // The kNN path reads partitions directly and never benefits from
            // merge files; no merge trigger, no compaction — as before.
            return Ok(());
        }
        self.merge_trigger(new_keys)?;
        // Query-side maintenance triggers: each executed dataset whose
        // partition file crossed the dead-page ratio gets a `Compaction`
        // job. Foreground mode drains the queue before the query returns
        // (picking up jobs parked by abandoned cursors too); background
        // mode leaves it for the next `run_maintenance` pump.
        for dataset_id in self.exec_combination.iter() {
            if let Some(index) = engine.datasets.iter().find(|d| d.dataset() == dataset_id) {
                if engine
                    .compactor
                    .should_compact(self.storage, &engine.config, index)
                {
                    engine.submit_job(
                        self.storage,
                        JobSpec::Compaction {
                            dataset: dataset_id,
                            pending: None,
                        },
                    );
                }
            }
        }
        if !engine.config.maintenance_background && engine.maintenance.queue_depth() > 0 {
            let report = engine.run_maintenance(self.storage)?;
            self.compactions += report.compactions_committed as usize;
        }
        Ok(())
    }
}

impl Drop for QueryCursor<'_> {
    /// An abandoned (partially drained) cursor still surfaces the
    /// maintenance triggers it observed: compaction-worthy executed
    /// datasets are *enqueued* — never run, drops must stay cheap and
    /// infallible — so the next trigger-site drain or
    /// [`SpaceOdyssey::run_maintenance`] pump picks them up. An exhausted
    /// cursor already ran its finalize phase and enqueues nothing here.
    fn drop(&mut self) {
        if self.exhausted {
            return;
        }
        let engine = self.engine;
        for dataset_id in self.exec_combination.iter() {
            if let Some(index) = engine.datasets.iter().find(|d| d.dataset() == dataset_id) {
                if engine
                    .compactor
                    .should_compact(self.storage, &engine.config, index)
                {
                    engine.submit_job(
                        self.storage,
                        JobSpec::Compaction {
                            dataset: dataset_id,
                            pending: None,
                        },
                    );
                }
            }
        }
    }
}
