//! The Adaptor: an incrementally refined, space-oriented index per dataset.
//!
//! Nothing is built upfront. The first query that touches a dataset scans its
//! raw file once and splits the brain volume into `ppl` partitions (objects
//! assigned by center, query-window extension instead of replication). Every
//! later query refines the partitions it intersects whenever the partition is
//! still much larger than the query (`Vp / Vq > rt`), splitting it into `ppl`
//! children, rewriting the partition's pages in place and appending overflow
//! pages at the end of the file — §3.1 of the paper.
//!
//! # Concurrency
//!
//! A [`DatasetIndex`] is shared by reference across query threads. Its
//! mutable state (partition table, partition-file layout, `maxExtent`) lives
//! behind one `RwLock` per dataset — the sharding unit of the engine:
//!
//! * queries that only *read* a dataset (the common case once refinement has
//!   converged) take the read lock, so reads of the same dataset, and of
//!   distinct datasets, proceed in parallel;
//! * first-touch partitioning and refinement take the write lock, which makes
//!   them atomic with respect to readers **and** keeps partition data
//!   consistent with partition metadata (a reader can never observe a
//!   half-rewritten page run, because `read_partition` holds the read lock
//!   across its page reads);
//! * double-checked locking ensures first-touch partitioning and each
//!   individual refinement happen exactly once under contention — a thread
//!   that lost the race re-validates against the new partition table and
//!   simply reads the finer partitions.

use crate::config::OdysseyConfig;
use crate::durability::{self, DatasetSnapshot, MetaRecord, PartitionMeta, PendingCompaction};
use crate::partition::{Partition, PartitionKey};
use odyssey_geom::{knn_key_cmp, Aabb, DatasetId, RangeQuery, SpatialObject, Vec3};
use odyssey_storage::sync::{LockClass, Shared};
use odyssey_storage::{
    append_to_raw_dataset, pages_needed, FileId, RawDataset, StorageManager, StorageResult,
    OBJECTS_PER_PAGE,
};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of preparing one dataset for a query: which partitions intersect,
/// which still have to be read, and what was already collected as a side
/// effect of refinement.
#[derive(Debug, Default)]
pub struct PreparedQuery {
    /// Keys of every leaf partition intersecting the (extended) query after
    /// refinement — the `P` recorded by the Statistics Collector.
    pub retrieved_keys: Vec<PartitionKey>,
    /// Keys that still need to be read (either from the dataset's partition
    /// file or from a merge file).
    pub pending_keys: Vec<PartitionKey>,
    /// Objects already gathered while refining partitions (they match the
    /// original query range and belong to this dataset).
    pub collected: Vec<SpatialObject>,
    /// Number of partitions refined while executing this query.
    pub refined: usize,
}

/// Result of a best-first k-nearest-neighbour traversal over one dataset
/// ([`DatasetIndex::knn`]): partitions are visited in ascending
/// `(mindist, key)` order off a heap built in `O(n)` over the `n` leaves,
/// each visit costing `O(log n)`, until the `k`-th distance bound prunes the
/// rest.
#[derive(Debug, Default)]
pub struct PreparedKnn {
    /// The dataset's `k` best candidates, sorted by
    /// `(distance², dataset, id)`.
    pub results: Vec<SpatialObject>,
    /// Keys of the partitions the traversal had to visit.
    pub retrieved_keys: Vec<PartitionKey>,
    /// Objects in partitions the mindist bound pruned — rows the traversal
    /// provably never had to examine.
    pub rows_skipped: u64,
}

/// Pages per chunk when streaming a partition's runs into the kNN heap.
/// Small enough that a visited partition's candidate pages are folded into
/// the `O(k)` heap and released almost immediately (instead of staying
/// pinned as a whole-partition object vector until the query finishes),
/// large enough that the chunked reads stay sequential sweeps.
const KNN_READ_CHUNK_PAGES: u64 = 8;

/// A kNN candidate ordered by the deterministic `(distance², dataset, id)`
/// rank, so a [`BinaryHeap`] (a max-heap) keeps the *worst* retained
/// candidate on top — one `peek` away from the pruning bound.
#[derive(Debug, Clone)]
pub(crate) struct RankedCandidate {
    pub(crate) key: (f64, u16, u64),
    pub(crate) object: SpatialObject,
}

impl PartialEq for RankedCandidate {
    fn eq(&self, other: &Self) -> bool {
        knn_key_cmp(&self.key, &other.key) == std::cmp::Ordering::Equal
    }
}

impl Eq for RankedCandidate {}

impl PartialOrd for RankedCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedCandidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        knn_key_cmp(&self.key, &other.key)
    }
}

/// Selects the `k` best candidates around `point` in one pass with `O(k)`
/// memory — the one top-k selection of the engine: the sequential-scan kNN
/// path ranks a raw dataset with it, and the cursor and the result cache
/// merge per-dataset top-k lists into the global answer with it. Results
/// come back sorted by `(distance², dataset, id)`.
pub(crate) fn top_k_candidates(
    objects: impl IntoIterator<Item = SpatialObject>,
    point: Vec3,
    k: usize,
) -> Vec<SpatialObject> {
    if k == 0 {
        return Vec::new();
    }
    let mut best: BinaryHeap<RankedCandidate> = BinaryHeap::with_capacity(k + 1);
    for o in objects {
        best.push(RankedCandidate {
            key: (o.mbr.min_distance_squared_to(point), o.dataset.0, o.id.0),
            object: o,
        });
        if best.len() > k {
            best.pop();
        }
    }
    best.into_sorted_vec()
        .into_iter()
        .map(|c| c.object)
        .collect()
}

/// A leaf on the kNN frontier. Ordered so that [`BinaryHeap`] (a max-heap)
/// pops the smallest `(mindist, key)` first; keys are unique, so the visit
/// order is total.
struct FrontierLeaf<'a> {
    mindist: f64,
    partition: &'a Partition,
}

impl PartialEq for FrontierLeaf<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for FrontierLeaf<'_> {}

impl PartialOrd for FrontierLeaf<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrontierLeaf<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .mindist
            .total_cmp(&self.mindist)
            .then_with(|| other.partition.key.cmp(&self.partition.key))
    }
}

/// How a dataset's current leaves cover a region key — the vocabulary of the
/// Merger's same-refinement-level rule under sparse key coverage (refinement
/// skips empty children, so a region can legitimately have *no* leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionCoverage {
    /// The dataset has not been initialized yet.
    Uninitialized,
    /// A leaf with exactly this key exists.
    Exact,
    /// No leaf touches the region although its neighbourhood was refined to
    /// this level: the region holds zero objects. Equivalent, for merging,
    /// to an exact leaf with an empty run.
    Hole,
    /// The region is covered by deeper leaves (it was refined further).
    Finer,
    /// The region lies inside a coarser leaf.
    Coarser,
}

impl RegionCoverage {
    /// Whether the dataset holds the region at exactly the asked level
    /// (an exact leaf, or a hole = empty at that level).
    pub fn is_same_level(self) -> bool {
        matches!(self, RegionCoverage::Exact | RegionCoverage::Hole)
    }
}

/// Result of one committed dataset-file compaction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Pages the old partition file occupied.
    pub pages_before: u64,
    /// Pages the rewritten file occupies.
    pub pages_after: u64,
    /// Pages reclaimed by deleting the old file (equals `pages_before`).
    pub pages_reclaimed: u64,
}

/// Outcome of one bounded step of a phased compaction
/// ([`DatasetIndex::compact_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactStep {
    /// The dataset is uninitialized or the dead-page trigger no longer holds
    /// (nothing was started).
    NotNeeded,
    /// The page budget ran out mid-copy. Progress is durable (a
    /// [`MetaRecord::CompactionProgress`] record) and carried in the caller's
    /// [`PendingCompaction`]; call again to continue.
    Yielded {
        /// Pages copied into the replacement file this step.
        pages_written: u64,
    },
    /// The copy completed and the swap committed.
    Committed {
        /// The committed rewrite's stats.
        stats: CompactionStats,
        /// Pages copied into the replacement file this step.
        pages_written: u64,
    },
}

/// Result of one ingest call on a dataset.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Number of objects appended.
    pub objects_ingested: usize,
    /// Partitions that crossed the split threshold and were refined.
    pub partitions_split: usize,
    /// Partitions created for regions that previously had no leaf (holes left
    /// by empty-child-skipping refinement).
    pub partitions_created: usize,
    /// Partitions that crossed the split threshold but whose refinement was
    /// deferred to a scheduled `IngestSplitRefine` job (always 0 unless the
    /// batch was ingested with splits deferred).
    pub partitions_pending_split: usize,
}

/// The leaf partitions of one dataset plus the key indexes that turn every
/// by-key question — "which slot holds this key", "is anything below it",
/// "which leaf covers it" — into O(levels) hash probes instead of a table
/// scan.
///
/// The leaves dereference as a slice in *slot order*, the order every table
/// scan, snapshot and log record sees. Structural changes go through
/// [`PartitionTable::push`] and [`PartitionTable::swap_remove`] only, so the
/// indexes cannot drift from the leaves; [`PartitionTable::set`] rewrites a
/// leaf's runs and counts in place but never its key.
#[derive(Debug, Default)]
struct PartitionTable {
    leaves: Vec<Partition>,
    /// Leaf key → slot in `leaves`.
    slots: HashMap<PartitionKey, usize>,
    /// Interior keys: every key with at least one leaf strictly below it
    /// (a region refined away), with the number of such leaves.
    interior: HashMap<PartitionKey, usize>,
}

impl std::ops::Deref for PartitionTable {
    type Target = [Partition];

    fn deref(&self) -> &[Partition] {
        &self.leaves
    }
}

impl PartitionTable {
    /// A table over `leaves`, kept in the given slot order.
    fn new(k: usize, leaves: impl IntoIterator<Item = Partition>) -> Self {
        let mut table = PartitionTable::default();
        for p in leaves {
            table.push(k, p);
        }
        table
    }

    /// Appends a leaf in the last slot and returns that slot.
    fn push(&mut self, k: usize, p: Partition) -> usize {
        let slot = self.leaves.len();
        self.slots.insert(p.key, slot);
        for level in 1..p.key.level {
            *self.interior.entry(p.key.ancestor(k, level)).or_default() += 1;
        }
        self.leaves.push(p);
        slot
    }

    /// Removes the leaf at `slot`; the last leaf moves into its place.
    fn swap_remove(&mut self, k: usize, slot: usize) -> Partition {
        let p = self.leaves.swap_remove(slot);
        self.slots.remove(&p.key);
        if let Some(moved) = self.leaves.get(slot) {
            self.slots.insert(moved.key, slot);
        }
        for level in 1..p.key.level {
            let ancestor = p.key.ancestor(k, level);
            if let Some(n) = self.interior.get_mut(&ancestor) {
                *n -= 1;
                if *n == 0 {
                    self.interior.remove(&ancestor);
                }
            }
        }
        p
    }

    /// Replaces the leaf at `slot` with an updated copy of itself.
    fn set(&mut self, slot: usize, p: Partition) {
        debug_assert_eq!(self.leaves[slot].key, p.key, "set never changes a key");
        self.leaves[slot] = p;
    }

    fn slot(&self, key: &PartitionKey) -> Option<usize> {
        self.slots.get(key).copied()
    }

    fn get(&self, key: &PartitionKey) -> Option<&Partition> {
        self.slot(key).map(|slot| &self.leaves[slot])
    }

    /// Whether some leaf lies strictly below `key`.
    fn is_interior(&self, key: &PartitionKey) -> bool {
        self.interior.contains_key(key)
    }

    /// The leaves directly below `key`, in the (z, y, x) child order
    /// refinement lays them out in.
    fn children(&self, k: usize, key: PartitionKey) -> impl Iterator<Item = &Partition> + '_ {
        let k32 = k as u32;
        (0..k32 * k32 * k32)
            .filter_map(move |i| self.get(&key.child(k, i % k32, i / k32 % k32, i / (k32 * k32))))
    }

    /// The coarser leaf whose region contains `key`'s, if any.
    fn ancestor_leaf(&self, k: usize, key: &PartitionKey) -> Option<&Partition> {
        (1..key.level).find_map(|level| self.get(&key.ancestor(k, level)))
    }

    /// The slot of the leaf containing point `c`: walk down the levels
    /// while the containing cell is interior.
    fn leaf_containing(&self, bounds: &Aabb, k: usize, c: Vec3) -> Option<usize> {
        let mut level = 1;
        loop {
            let key = PartitionKey::containing(bounds, k, level, c);
            if let Some(slot) = self.slot(&key) {
                return Some(slot);
            }
            if !self.is_interior(&key) {
                return None;
            }
            level += 1;
        }
    }

    /// How the leaves cover the region `key` (see [`RegionCoverage`]).
    fn coverage(&self, k: usize, key: &PartitionKey) -> RegionCoverage {
        if self.slots.contains_key(key) {
            RegionCoverage::Exact
        } else if self.is_interior(key) {
            RegionCoverage::Finer
        } else if self.ancestor_leaf(k, key).is_some() {
            RegionCoverage::Coarser
        } else {
            RegionCoverage::Hole
        }
    }
}

/// The mutable state of one dataset's index, guarded by the per-dataset lock.
#[derive(Debug)]
struct IndexState {
    /// Partition file; created lazily on the dataset's first query.
    file: Option<FileId>,
    /// Current leaf partitions, keyed.
    partitions: PartitionTable,
    max_extent: Vec3,
    /// Every object accepted through [`DatasetIndex::ingest`], in arrival
    /// order. The log position doubles as the ingest sequence number that
    /// merge files track per dataset: a merge entry whose recorded sequence
    /// is below `ingest_log.len()` may be missing tail objects and must be
    /// repaired (or bypassed) before it can serve this dataset.
    ingest_log: Vec<SpatialObject>,
}

/// The incremental index of one dataset.
#[derive(Debug)]
pub struct DatasetIndex {
    dataset: DatasetId,
    /// Raw-file metadata, mutable because online ingestion appends to the raw
    /// file. Lock order: `state` before `raw` (never the other way around).
    raw: Shared<RawDataset>,
    state: Shared<IndexState>,
    total_refinements: AtomicU64,
    /// Bumped under the state write lock whenever the leaf key set changes
    /// (see [`DatasetIndex::layout_version`]).
    layout_version: AtomicU64,
    /// Mirror of `ingest_log.len()`, readable without the state lock (used by
    /// the planner's staleness estimates; exact values are read under the
    /// state lock).
    ingested: AtomicU64,
    /// Objects in the raw file when the index was created — everything after
    /// them is the ingest log, which is how recovery re-reads the log from
    /// the raw file instead of duplicating it in the checkpoint.
    seed_objects: u64,
    /// Pages those seed objects occupy.
    seed_pages: u64,
}

impl DatasetIndex {
    /// Wraps a raw dataset; no I/O happens until the first query.
    pub fn new(raw: RawDataset) -> Self {
        DatasetIndex {
            dataset: raw.dataset,
            seed_objects: raw.num_objects,
            seed_pages: raw.page_range.1,
            raw: Shared::new(LockClass::DatasetRaw, raw),
            state: Shared::new(
                LockClass::DatasetState,
                IndexState {
                    file: None,
                    partitions: PartitionTable::default(),
                    max_extent: Vec3::ZERO,
                    ingest_log: Vec::new(),
                },
            ),
            total_refinements: AtomicU64::new(0),
            layout_version: AtomicU64::new(0),
            ingested: AtomicU64::new(0),
        }
    }

    /// Reinstates a checkpointed index (see
    /// [`crate::durability::DatasetSnapshot`]); `ingest_log` must hold
    /// exactly the objects the snapshot's ingest count covers, re-read from
    /// the raw file's tail.
    pub fn restore(
        config: &OdysseyConfig,
        snapshot: &DatasetSnapshot,
        ingest_log: Vec<SpatialObject>,
    ) -> Self {
        debug_assert_eq!(ingest_log.len() as u64, snapshot.ingest_count);
        DatasetIndex {
            dataset: snapshot.raw.dataset,
            seed_objects: snapshot.seed_objects,
            seed_pages: snapshot.seed_pages,
            raw: Shared::new(LockClass::DatasetRaw, snapshot.raw),
            ingested: AtomicU64::new(ingest_log.len() as u64),
            state: Shared::new(
                LockClass::DatasetState,
                IndexState {
                    file: snapshot.file,
                    partitions: PartitionTable::new(
                        config.splits_per_dimension(),
                        snapshot.partitions.iter().map(|m| m.restore(config)),
                    ),
                    max_extent: snapshot.max_extent,
                    ingest_log,
                },
            ),
            total_refinements: AtomicU64::new(snapshot.total_refinements),
            layout_version: AtomicU64::new(0),
        }
    }

    /// Captures the index's durable state under one consistent lock
    /// acquisition (the checkpoint building block).
    pub fn snapshot(&self) -> DatasetSnapshot {
        let state = self.state.read();
        let raw = *self.raw.read();
        DatasetSnapshot {
            raw,
            seed_objects: self.seed_objects,
            seed_pages: self.seed_pages,
            file: state.file,
            max_extent: state.max_extent,
            partitions: state.partitions.iter().map(PartitionMeta::of).collect(),
            ingest_count: state.ingest_log.len() as u64,
            total_refinements: self.total_refinements.load(Ordering::Relaxed),
        }
    }

    /// The dataset this index covers.
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// Snapshot of the underlying raw file's metadata (used by the planner to
    /// cost the sequential-scan access path, and by the scan path itself).
    /// A copy, not a reference: ingestion grows the raw file over time.
    pub fn raw(&self) -> RawDataset {
        *self.raw.read()
    }

    /// Reads every object of the dataset straight from its raw file — the
    /// sequential-scan access path. Touches none of the adaptive state: a
    /// dataset answered by scans stays uninitialized.
    pub fn scan_raw(&self, storage: &StorageManager) -> StorageResult<Vec<SpatialObject>> {
        let raw = self.raw();
        storage.read_objects(raw.file, raw.pages())
    }

    /// Size snapshot for the planner: `(partition count, data pages, stored
    /// objects)`, or `None` while the dataset is uninitialized.
    pub fn summary(&self) -> Option<(usize, u64, u64)> {
        let state = self.state.read();
        state.file?;
        let pages = state.partitions.iter().map(|p| p.total_page_count()).sum();
        let objects = state.partitions.iter().map(|p| p.object_count).sum();
        Some((state.partitions.len(), pages, objects))
    }

    /// The ingest sequence number: how many objects have been ingested into
    /// this dataset so far. Merge files record the sequence they are synced
    /// to per dataset; a file whose recorded sequence is older is *stale*.
    pub fn ingest_seq(&self) -> u64 {
        self.ingested.load(Ordering::Acquire)
    }

    /// The layout version: a counter bumped under the state write lock at
    /// every change of the leaf key set — first touch, hole creation,
    /// refinement — and at every compaction commit. Merge-level checks
    /// depend on the leaf key sets only, so while the summed version of a
    /// combination's datasets stands still the Merger's verdicts do too.
    /// Derived state: a restored index starts again at 0.
    pub fn layout_version(&self) -> u64 {
        self.layout_version.load(Ordering::Acquire)
    }

    fn bump_layout_version(&self) {
        self.layout_version.fetch_add(1, Ordering::Release);
    }

    /// The dataset's partition file, once first-touch partitioning created
    /// it. The compactor polls this file's space stats for the dead-page
    /// trigger.
    pub fn partition_file(&self) -> Option<FileId> {
        self.state.read().file
    }

    /// Pages currently referenced by live metadata: the raw file plus every
    /// partition's main and overflow runs. The denominator of the
    /// space-amplification metric (total physical pages / live pages).
    pub fn live_pages(&self) -> u64 {
        let state = self.state.read();
        let partitions: u64 = state.partitions.iter().map(|p| p.total_page_count()).sum();
        self.raw.read().num_pages() + partitions
    }

    /// Copy-forwards the dataset's live partition runs into a fresh partition
    /// file — the compaction rewrite. Every partition's main + overflow runs
    /// are coalesced into one contiguous main run (written in key order, so
    /// spatially adjacent regions end up physically adjacent and later
    /// multi-partition reads coalesce into sequential sweeps), the swap is
    /// committed with a single [`MetaRecord::CompactionCommit`] record, and
    /// the old file is deleted. Crash at any WAL prefix recovers either the
    /// old layout (record absent: the new file is an unreferenced orphan
    /// recovery truncates to zero) or the new one (record present: the old
    /// file is redeleted on open) — never a mix.
    ///
    /// Runs under the dataset's write lock and re-checks the dead-page
    /// trigger there, so concurrent trigger points compact exactly once.
    /// Returns `Ok(None)` when the dataset is uninitialized or the trigger
    /// no longer holds. Implemented as an unbounded
    /// [`DatasetIndex::compact_step`], so the whole copy happens in one step
    /// and no progress records are logged.
    pub fn compact(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
    ) -> StorageResult<Option<CompactionStats>> {
        let mut pending = None;
        loop {
            match self.compact_step(storage, config, &mut pending, u64::MAX)? {
                CompactStep::NotNeeded => return Ok(None),
                CompactStep::Yielded { .. } => continue,
                CompactStep::Committed { stats, .. } => return Ok(Some(stats)),
            }
        }
    }

    /// One bounded step of a phased compaction: copy-forwards up to
    /// `max_pages` pages of live partition runs (in key order, each
    /// partition's main + overflow runs coalesced into one contiguous run)
    /// into the replacement file, then either commits the swap (everything
    /// copied) or logs a [`MetaRecord::CompactionProgress`] checkpoint and
    /// yields, releasing the dataset's write lock between steps so
    /// foreground queries never wait for more than one step.
    ///
    /// `pending` carries the copy state across steps. Pass `None` to start a
    /// new compaction (the dead-page trigger is re-checked under the lock;
    /// `NotNeeded` is returned when it no longer holds); pass the state a
    /// previous step — or crash recovery — left behind to resume. Resume
    /// re-validates every copied partition against the live table and
    /// re-copies any whose source changed in the meantime (the orphaned new-
    /// file pages are counted dead), so a resumed compaction never serves
    /// stale data. Commit is exact: a crash at any WAL prefix recovers the
    /// old layout plus checkpointed progress, or the new layout — never a
    /// mix.
    pub fn compact_step(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        pending: &mut Option<PendingCompaction>,
        max_pages: u64,
    ) -> StorageResult<CompactStep> {
        let mut state = self.state.write();
        let state = &mut *state;
        let job = match pending.take() {
            Some(job) => {
                // Resuming. The dataset must still read from the file the
                // copy started on; a mismatch means another path already
                // swapped it (the queue dedupes per dataset, so this only
                // guards against misuse) — abandon the stale attempt.
                if state.file != Some(job.old_file) || !storage.file_exists(job.new_file) {
                    // analyzer: allow(best-effort cleanup of an uncommitted replacement file: no WAL record names it, so a leftover copy is garbage, not corruption)
                    storage.delete_file(job.new_file).ok();
                    return Ok(CompactStep::NotNeeded);
                }
                job
            }
            None => {
                let Some(old_file) = state.file else {
                    return Ok(CompactStep::NotNeeded);
                };
                // Re-check under the lock (double-checked trigger): a thread
                // that lost the race finds a fresh file with zero dead pages.
                let space = storage.space_stats(old_file)?;
                if space.dead_pages == 0 || space.dead_ratio() < config.compaction_dead_ratio {
                    return Ok(CompactStep::NotNeeded);
                }
                let new_file =
                    storage.create_file(&format!("odyssey_partitions_ds{}", self.dataset.0))?;
                PendingCompaction {
                    dataset: self.dataset,
                    old_file,
                    new_file,
                    copied: Vec::new(),
                    new_len: 0,
                }
            }
        };
        let mut job = job;
        // Drop copied entries whose source partition was rewritten since the
        // copy (ingest overflow rewrite, refinement): their new-file pages
        // are orphans, and the partition is re-copied below.
        job.copied.retain(|(meta, source)| {
            let live = state.partitions.get(&source.key).map(PartitionMeta::of);
            if live == Some(*source) {
                true
            } else {
                storage.note_dead_pages(job.new_file, meta.page_count);
                false
            }
        });
        // Copy uncopied live partitions in key order until the budget runs
        // out (always at least one partition per step, so steps make
        // progress under any budget).
        let mut order: Vec<usize> = (0..state.partitions.len())
            .filter(|&i| {
                let key = state.partitions[i].key;
                !job.copied.iter().any(|(m, _)| m.key == key)
            })
            .collect();
        order.sort_by_key(|&i| state.partitions[i].key);
        let mut pages_written = 0u64;
        let mut step_copied: Vec<PartitionMeta> = Vec::new();
        let mut remaining = order.into_iter();
        for idx in remaining.by_ref() {
            let partition = state.partitions[idx];
            let objects = Self::read_runs(storage, job.old_file, &partition)?;
            debug_assert_eq!(objects.len() as u64, partition.object_count);
            let range = storage.append_objects(job.new_file, &objects)?;
            let mut meta = PartitionMeta::of(&partition);
            meta.page_start = range.start;
            meta.page_count = range.end - range.start;
            meta.overflow_page_start = 0;
            meta.overflow_page_count = 0;
            pages_written += meta.page_count;
            step_copied.push(meta);
            job.copied.push((meta, PartitionMeta::of(&partition)));
            if pages_written >= max_pages {
                break;
            }
        }
        if remaining.next().is_some() {
            // Budget exhausted mid-copy: checkpoint the step and yield.
            job.new_len = storage.num_pages(job.new_file)?;
            let record = MetaRecord::CompactionProgress {
                dataset: self.dataset,
                old_file: job.old_file,
                new_file: job.new_file,
                copied: step_copied,
                new_len: job.new_len,
            };
            storage.sync_file(job.new_file)?; // data before its record, durably
            durability::log(storage, record)?;
            *pending = Some(job);
            return Ok(CompactStep::Yielded { pages_written });
        }
        // Everything copied: stage the rewritten table in live order and
        // commit. The shared state must not change until the commit record
        // is durable, or an error between the copies and the WAL append
        // would leave the live table pointing at new-file offsets while
        // `state.file` still names the old file — silently wrong reads from
        // then on.
        let mut staged = state.partitions.to_vec();
        for slot in staged.iter_mut() {
            let (meta, _) = job
                .copied
                .iter()
                .find(|(m, _)| m.key == slot.key)
                .expect("every live partition was copied"); // analyzer: allow(compaction copies every live partition)
            slot.page_start = meta.page_start;
            slot.page_count = meta.page_count;
            slot.overflow_page_start = 0;
            slot.overflow_page_count = 0;
        }
        let space = storage.space_stats(job.old_file)?;
        let new_len = storage.num_pages(job.new_file)?;
        let record = MetaRecord::CompactionCommit {
            dataset: self.dataset,
            old_file: job.old_file,
            new_file: job.new_file,
            partitions: staged.iter().map(PartitionMeta::of).collect(),
            new_len,
        };
        storage.sync_file(job.new_file)?; // data before its record, durably
        durability::log(storage, record)?;
        for (slot, partition) in staged.into_iter().enumerate() {
            state.partitions.set(slot, partition);
        }
        state.file = Some(job.new_file);
        self.bump_layout_version();
        let pages_reclaimed = storage.delete_file(job.old_file)?;
        // Re-copied partitions orphaned their first copy inside the new
        // file; the dead counter becomes exact at the commit.
        let live: u64 = state.partitions.iter().map(|p| p.total_page_count()).sum();
        storage.set_dead_pages(job.new_file, new_len.saturating_sub(live));
        Ok(CompactStep::Committed {
            stats: CompactionStats {
                pages_before: space.pages,
                pages_after: new_len,
                pages_reclaimed,
            },
            pages_written,
        })
    }

    /// The ingested objects with log positions in `[from, len)`, plus the
    /// current sequence number, read under one state-lock acquisition (so the
    /// tail and the sequence are mutually consistent).
    pub fn ingest_tail(&self, from: u64) -> (Vec<SpatialObject>, u64) {
        let state = self.state.read();
        let len = state.ingest_log.len() as u64;
        let from = from.min(len);
        (state.ingest_log[from as usize..].to_vec(), len)
    }

    /// Calls `visit` for every current leaf partition whose (query-window
    /// extended) bounds intersect the query range, under one read-lock
    /// acquisition and without allocating. Returns `None` when the dataset is
    /// not initialized yet (the planner then falls back to a geometric
    /// estimate over the level-1 grid).
    pub fn probe_hits<F: FnMut(&Partition)>(
        &self,
        query: &RangeQuery,
        mut visit: F,
    ) -> Option<usize> {
        let state = self.state.read();
        state.file?;
        let extended = query.extended_range(state.max_extent);
        for p in state.partitions.iter() {
            if p.bounds.intersects(&extended) {
                visit(p);
            }
        }
        Some(state.partitions.len())
    }

    /// Whether the first-touch partitioning has happened.
    pub fn is_initialized(&self) -> bool {
        self.state.read().file.is_some()
    }

    /// Maximum object extent seen during the initial scan (zero before
    /// initialization). Queries are extended by half of this per dimension.
    pub fn max_extent(&self) -> Vec3 {
        self.state.read().max_extent
    }

    /// A snapshot of the current leaf partitions (unordered).
    pub fn partitions(&self) -> Vec<Partition> {
        self.state.read().partitions.to_vec()
    }

    /// Total number of refinement operations performed so far.
    pub fn total_refinements(&self) -> u64 {
        self.total_refinements.load(Ordering::Relaxed)
    }

    /// Looks up a leaf partition by key.
    pub fn partition(&self, key: &PartitionKey) -> Option<Partition> {
        self.state.read().partitions.get(key).copied()
    }

    /// The extended probe range for a query against this dataset
    /// (query-window extension with the recorded `maxExtent`).
    pub fn extended_range(&self, query: &RangeQuery) -> Aabb {
        query.extended_range(self.max_extent())
    }

    /// First-touch initialization: scan the raw file and create the level-1
    /// partitioning. Idempotent and race-free (double-checked locking).
    pub fn ensure_initialized(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
    ) -> StorageResult<()> {
        if self.state.read().file.is_some() {
            return Ok(());
        }
        let mut state = self.state.write();
        if state.file.is_some() {
            return Ok(()); // another thread won the race
        }
        let k = config.splits_per_dimension();
        let raw = *self.raw.read();
        let objects = storage.read_objects(raw.file, raw.pages())?;
        let mut max_extent = Vec3::ZERO;
        let mut groups: Vec<Vec<SpatialObject>> = vec![Vec::new(); k * k * k];
        for obj in objects {
            max_extent = max_extent.max(obj.extent());
            let key = PartitionKey::containing(&config.bounds, k, 1, obj.center());
            let idx = ((key.z as usize * k) + key.y as usize) * k + key.x as usize;
            groups[idx].push(obj);
        }
        let file = storage.create_file(&format!("odyssey_partitions_ds{}", self.dataset.0))?;
        let mut partitions = Vec::with_capacity(k * k * k);
        for iz in 0..k as u32 {
            for iy in 0..k as u32 {
                for ix in 0..k as u32 {
                    let key = PartitionKey::root_cell(k, ix, iy, iz);
                    let idx = ((iz as usize * k) + iy as usize) * k + ix as usize;
                    let objs = &groups[idx];
                    let range = storage.append_objects(file, objs)?;
                    partitions.push(Partition::from_main_run(
                        key,
                        key.bounds(&config.bounds, k),
                        range,
                        objs.len() as u64,
                    ));
                }
            }
        }
        state.file = Some(file);
        state.partitions = PartitionTable::new(k, partitions);
        state.max_extent = max_extent;
        self.bump_layout_version();
        // Log the first-touch result while the write lock is held, so no
        // later record can reference partitions the WAL does not know yet.
        let record = MetaRecord::InitDataset {
            dataset: self.dataset,
            file,
            max_extent,
            partitions: state.partitions.iter().map(PartitionMeta::of).collect(),
            file_len: storage.num_pages(file)?,
        };
        storage.sync_file(file)?; // data before its record, durably
        durability::log(storage, record)?;
        Ok(())
    }

    /// Prepares the dataset for `query`: initializes it if necessary, refines
    /// every intersected partition that is still too coarse, and reports the
    /// partitions the query has to read.
    pub fn prepare_query(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        query: &RangeQuery,
    ) -> StorageResult<PreparedQuery> {
        let first_touch = !self.is_initialized();
        self.ensure_initialized(storage, config)?;
        let query_volume = query.volume();

        // Fast path: under the read lock, check whether any intersected
        // partition still needs refinement. If not (the steady state), the
        // prepared answer is assembled without ever writing.
        if !first_touch {
            let state = self.state.read();
            let extended = query.extended_range(state.max_extent);
            storage.note_objects_scanned(state.partitions.len() as u64);
            let hits: Vec<&Partition> = state
                .partitions
                .iter()
                .filter(|p| p.bounds.intersects(&extended))
                .collect();
            if !hits
                .iter()
                .any(|p| self.should_refine(config, p, query_volume))
            {
                let mut out = PreparedQuery::default();
                for p in hits {
                    out.retrieved_keys.push(p.key);
                    out.pending_keys.push(p.key);
                }
                return Ok(out);
            }
        }

        // Slow path: refinement (or the dataset's very first query). The
        // write lock makes the whole adapt step atomic; candidates are
        // re-validated against the current partition table, so a refinement
        // another thread performed in the meantime is simply observed, never
        // repeated.
        let mut state = self.state.write();
        let state = &mut *state;
        let extended = query.extended_range(state.max_extent);
        let mut out = PreparedQuery::default();

        // Identify intersecting partitions; the scan over partition MBRs is
        // CPU work charged to the cost model. (The fast path above also
        // charged one scan — matching the fact that it really did scan.)
        storage.note_objects_scanned(state.partitions.len() as u64);
        let keys: Vec<PartitionKey> = state
            .partitions
            .iter()
            .filter(|p| p.bounds.intersects(&extended))
            .map(|p| p.key)
            .collect();

        // Refine qualifying partitions (one level per query, as in §3.1.1),
        // answering the query from the data read during refinement.
        let k = config.splits_per_dimension();
        for key in keys {
            let Some(idx) = state.partitions.slot(&key) else {
                continue;
            };
            let partition = state.partitions[idx];
            if self.should_refine(config, &partition, query_volume) {
                let objects = self.refine(state, storage, config, idx)?;
                out.refined += 1;
                // The refinement already read every object of the old
                // partition; answer from it directly and record the child
                // partitions that intersect the query as retrieved.
                out.collected
                    .extend(objects.iter().filter(|o| query.matches(o)).copied());
                storage.note_objects_scanned(objects.len() as u64);
                for child in state
                    .partitions
                    .children(k, key)
                    .filter(|p| p.bounds.intersects(&extended))
                {
                    out.retrieved_keys.push(child.key);
                }
            } else {
                out.retrieved_keys.push(key);
                out.pending_keys.push(key);
            }
        }

        // The very first query on a dataset already scanned the whole raw
        // file; answer it from that scan rather than re-reading partitions.
        if first_touch {
            let file = state.file.expect("initialized"); // analyzer: allow(first_touch initialized the file above)
            let mut collected_from_pending = Vec::new();
            for key in &out.pending_keys {
                if let Some(p) = state.partitions.get(key) {
                    if p.object_count > 0 {
                        let objs = Self::read_runs(storage, file, p)?;
                        collected_from_pending
                            .extend(objs.into_iter().filter(|o| query.matches(o)));
                    }
                }
            }
            out.collected.extend(collected_from_pending);
            out.pending_keys.clear();
        }

        Ok(out)
    }

    /// Reads every object of a partition (main run, then overflow run).
    fn read_runs(
        storage: &StorageManager,
        file: FileId,
        partition: &Partition,
    ) -> StorageResult<Vec<SpatialObject>> {
        let mut out = Vec::with_capacity(partition.total_page_count() as usize * OBJECTS_PER_PAGE);
        Self::read_runs_into(storage, file, partition, &mut out)?;
        Ok(out)
    }

    /// Like [`DatasetIndex::read_runs`] but appends into `out`.
    fn read_runs_into(
        storage: &StorageManager,
        file: FileId,
        partition: &Partition,
        out: &mut Vec<SpatialObject>,
    ) -> StorageResult<()> {
        for run in partition.runs() {
            storage.read_objects_into(file, run, out)?;
        }
        Ok(())
    }

    /// Appends newly arrived objects to the dataset: the raw file first (the
    /// ground truth every scan and rebuild reads), then — if the dataset has
    /// been initialized — incrementally into the octree, routing each object
    /// to the deepest existing leaf containing its center and appending to
    /// that partition's overflow run. A partition whose object count crosses
    /// [`OdysseyConfig::ingest_split_objects`] is refined in place by the
    /// existing refinement machinery (one level per ingest, like one level
    /// per query).
    ///
    /// The whole operation runs under the dataset's write lock, which makes
    /// the raw append, the ingest-log append and the partition updates atomic
    /// with respect to queries and merges: a reader either sees none of the
    /// batch or all of it, and the log position of every object is exactly
    /// consistent with the partition data — the invariant merge-file
    /// staleness repair is built on.
    pub fn ingest(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        objects: &[SpatialObject],
    ) -> StorageResult<IngestStats> {
        self.ingest_with(storage, config, objects, false)
    }

    /// Like [`DatasetIndex::ingest`], but with `defer_splits` the partitions
    /// that cross the split threshold are *not* refined inside the batch's
    /// write-lock hold; they are only counted
    /// ([`IngestStats::partitions_pending_split`]) so the caller can schedule
    /// an `IngestSplitRefine` job ([`DatasetIndex::refine_oversized`])
    /// instead. The engine defers exactly when background maintenance is on.
    pub fn ingest_with(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        objects: &[SpatialObject],
        defer_splits: bool,
    ) -> StorageResult<IngestStats> {
        let mut stats = IngestStats::default();
        if objects.is_empty() {
            return Ok(stats);
        }
        let mut state = self.state.write();
        let state = &mut *state;
        append_to_raw_dataset(storage, &mut self.raw.write(), objects)?;
        stats.objects_ingested = objects.len();

        if let Some(file) = state.file {
            // Route each object to its leaf through the keyed table (one
            // probe per level walked); group per partition so every
            // overflow run is rewritten at most once per batch.
            let k = config.splits_per_dimension();
            let mut groups: Vec<(usize, Vec<SpatialObject>)> = Vec::new();
            let mut created_keys: Vec<PartitionKey> = Vec::new();
            for obj in objects {
                state.max_extent = state.max_extent.max(obj.extent());
                let center = obj.center();
                let found = state.partitions.leaf_containing(&config.bounds, k, center);
                let idx = match found {
                    Some(idx) => idx,
                    None => {
                        // A hole: the region's leaf was never created (its
                        // refinement produced no objects there). Materialize
                        // an empty leaf at the hole's level.
                        let key = Self::hole_key(state, config, k, center);
                        let idx = state.partitions.push(
                            k,
                            Partition::from_main_run(key, key.bounds(&config.bounds, k), 0..0, 0),
                        );
                        self.bump_layout_version();
                        stats.partitions_created += 1;
                        created_keys.push(key);
                        idx
                    }
                };
                match groups.iter_mut().find(|(i, _)| *i == idx) {
                    Some((_, list)) => list.push(*obj),
                    None => groups.push((idx, vec![*obj])),
                }
            }
            // Charge the routing pass: the table build plus the per-object
            // level probes.
            storage.note_objects_scanned(state.partitions.len() as u64 + objects.len() as u64 * 2);

            let mut split_candidates = Vec::new();
            let mut updated_keys: Vec<PartitionKey> = Vec::new();
            for (idx, arrivals) in groups {
                let partition = state.partitions[idx];
                // Rebuild the overflow run: existing overflow objects plus
                // the arrivals. On a non-durable manager the grown run is
                // rewritten in place when it still fits the old pages;
                // otherwise — and always on a durable manager — a fresh run
                // is appended at the end of the file (the old pages become
                // dead space until the next refinement compacts the
                // partition). Durable stores are strictly append-only on
                // purpose: the old run stays intact until the batch's WAL
                // record commits, so a crash mid-batch can never tear an
                // overflow run — recovery truncates the orphaned appends and
                // the partition reads exactly as before the batch.
                let mut overflow = if partition.overflow_page_count > 0 {
                    storage.read_objects(file, partition.overflow_pages())?
                } else {
                    Vec::new()
                };
                overflow.extend(arrivals.iter().copied());
                let need = pages_needed(overflow.len());
                let range = if !storage.wal_enabled() && partition.overflow_page_count == need {
                    storage.write_objects_at(file, partition.overflow_page_start, &overflow)?
                } else {
                    // The fresh run orphans the old overflow run: its pages
                    // stay in the file as dead space until compaction
                    // copy-forwards the partition.
                    storage.note_dead_pages(file, partition.overflow_page_count);
                    storage.append_objects(file, &overflow)?
                };
                let mut p = partition;
                p.overflow_page_start = range.start;
                p.overflow_page_count = range.end - range.start;
                p.object_count += arrivals.len() as u64;
                state.partitions.set(idx, p);
                updated_keys.push(p.key);
                if config.ingest_split_objects > 0
                    && p.object_count >= config.ingest_split_objects
                    && p.key.level < config.max_refinement_level
                {
                    split_candidates.push(p.key);
                }
            }
            // Log the batch's routing result *before* any ingest-triggered
            // split: replay applies the batch metadata first, then the
            // splits' own Refine records, matching the live mutation order.
            let meta_of = |key: &PartitionKey| {
                state
                    .partitions
                    .get(key)
                    .map(PartitionMeta::of)
                    .expect("logged partitions exist") // analyzer: allow(replayed keys come from this dataset's log)
            };
            let record = MetaRecord::Ingest {
                dataset: self.dataset,
                count: objects.len() as u64,
                raw_len: self.raw.read().page_range.1,
                updated: updated_keys.iter().map(meta_of).collect(),
                created: created_keys.iter().map(meta_of).collect(),
                max_extent: state.max_extent,
                part_file_len: Some(storage.num_pages(file)?),
            };
            storage.sync_file(self.raw.read().file)?;
            storage.sync_file(file)?;
            durability::log(storage, record)?;
            if defer_splits {
                stats.partitions_pending_split = split_candidates.len();
            } else {
                for key in split_candidates {
                    if let Some(idx) = state.partitions.slot(&key) {
                        self.refine(state, storage, config, idx)?;
                        stats.partitions_split += 1;
                    }
                }
            }
        } else {
            // Uninitialized dataset: the batch only extends the raw file and
            // the ingest log.
            let record = MetaRecord::Ingest {
                dataset: self.dataset,
                count: objects.len() as u64,
                raw_len: self.raw.read().page_range.1,
                updated: Vec::new(),
                created: Vec::new(),
                max_extent: state.max_extent,
                part_file_len: None,
            };
            storage.sync_file(self.raw.read().file)?;
            durability::log(storage, record)?;
        }

        // Log last: the sequence number only advances once the data is
        // queryable, so a concurrent merge can never stamp an entry with a
        // sequence covering objects it did not read.
        state.ingest_log.extend(objects.iter().copied());
        self.ingested
            .store(state.ingest_log.len() as u64, Ordering::Release);
        Ok(stats)
    }

    /// Refines every partition whose object count crossed the ingest-split
    /// threshold — the body of a scheduled `IngestSplitRefine` job, picking
    /// up the splits a deferred ingest
    /// ([`DatasetIndex::ingest_with`]) left behind. Splits cascade until no
    /// partition exceeds the threshold (or hits the level cap), so a job
    /// catches up even when several deferred batches piled onto one region.
    /// Returns the number of refinements performed.
    pub fn refine_oversized(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
    ) -> StorageResult<usize> {
        if config.ingest_split_objects == 0 {
            return Ok(0);
        }
        let mut state = self.state.write();
        let state = &mut *state;
        if state.file.is_none() {
            return Ok(0);
        }
        let mut splits = 0;
        while let Some(idx) = state.partitions.iter().position(|p| {
            p.object_count >= config.ingest_split_objects
                && p.key.level < config.max_refinement_level
        }) {
            self.refine(state, storage, config, idx)?;
            splits += 1;
        }
        Ok(splits)
    }

    /// The key at which a missing leaf for `c` should be created: one level
    /// below the deepest refinement that covers the center's region (level 1
    /// when not even the root cell exists).
    fn hole_key(state: &IndexState, config: &OdysseyConfig, k: usize, c: Vec3) -> PartitionKey {
        // Find the deepest level at which the center's cell is interior
        // (some existing leaf lies below it): the refinement reached below
        // that cell, so the hole sits one level further down. With no
        // related leaf at all, the hole is the level-1 root cell itself.
        let mut hole = PartitionKey::containing(&config.bounds, k, 1, c);
        for level in 1..config.max_refinement_level {
            let key = PartitionKey::containing(&config.bounds, k, level, c);
            if state.partitions.is_interior(&key) {
                hole = PartitionKey::containing(&config.bounds, k, level + 1, c);
            } else {
                break;
            }
        }
        hole
    }

    fn should_refine(
        &self,
        config: &OdysseyConfig,
        partition: &Partition,
        query_volume: f64,
    ) -> bool {
        if query_volume <= 0.0 {
            return false;
        }
        // The paper's rule is purely volume-driven (Vp / Vq > rt); the
        // object-count guard only kicks in when explicitly configured, so
        // that refinement levels stay aligned across datasets by default.
        partition.volume() / query_volume > config.refinement_threshold
            && partition.object_count >= config.min_objects_to_refine as u64
            && partition.key.level < config.max_refinement_level
    }

    /// Refines the partition at `idx` into up to `ppl` children, rewriting
    /// its main page run in place and appending whatever does not fit at the
    /// end of the file. Children that would hold zero objects are *not*
    /// recorded: empty partitions only inflate the partition table (and with
    /// it every table scan and the planner's CPU term) while answering
    /// nothing. Probe code must therefore tolerate sparse key coverage —
    /// lookups for a never-populated region simply find no leaf. Returns the
    /// objects of the refined partition (they were read anyway, so the caller
    /// can answer the current query from them without another read). Runs
    /// under the dataset's write lock.
    fn refine(
        &self,
        state: &mut IndexState,
        storage: &StorageManager,
        config: &OdysseyConfig,
        idx: usize,
    ) -> StorageResult<Vec<SpatialObject>> {
        let file = state.file.expect("refine requires an initialized dataset"); // analyzer: allow(refine runs only on initialized datasets)
        let parent = state.partitions[idx];
        let k = config.splits_per_dimension();
        let objects = Self::read_runs(storage, file, &parent)?;

        // Group objects into the k³ children by their center's position
        // inside the parent (clamped so boundary centers stay in the parent).
        let pb = parent.bounds;
        let pe = pb.extent();
        let mut groups: Vec<Vec<SpatialObject>> = vec![Vec::new(); k * k * k];
        for obj in &objects {
            let c = obj.center();
            let cell = |v: f64, lo: f64, extent: f64| -> u32 {
                if extent <= 0.0 {
                    return 0;
                }
                let f = ((v - lo) / extent * k as f64).floor();
                if f < 0.0 {
                    0
                } else {
                    (f as u32).min(k as u32 - 1)
                }
            };
            let (cx, cy, cz) = (
                cell(c.x, pb.min.x, pe.x),
                cell(c.y, pb.min.y, pe.y),
                cell(c.z, pb.min.z, pe.z),
            );
            groups[((cz as usize * k) + cy as usize) * k + cx as usize].push(*obj);
        }

        // Lay the children out. Non-durable managers reuse the parent's main
        // page run first (in place), appending at the end of the file once
        // the old pages are exhausted — the paper's §3.1 layout. Durable
        // managers lay every child out append-only instead: the parent's
        // pages stay untouched until the split's WAL record commits, so a
        // crash at *any* WAL prefix leaves either the parent (record lost;
        // the appended children are unreferenced orphans recovery truncates)
        // or the children (record present; their appended pages were written
        // before it) — never a torn mix. The write volume is identical; the
        // parent's pages become dead space like any unreclaimed rewrite.
        // Each child starts with a single contiguous main run and no
        // overflow; empty children are skipped entirely.
        let in_place_allowed = !storage.wal_enabled();
        let mut children = Vec::with_capacity(k * k * k);
        let mut in_place_cursor = parent.page_start;
        let in_place_end = parent.page_start + parent.page_count;
        for cz in 0..k as u32 {
            for cy in 0..k as u32 {
                for cx in 0..k as u32 {
                    let objs = &groups[((cz as usize * k) + cy as usize) * k + cx as usize];
                    if objs.is_empty() {
                        continue;
                    }
                    let key = parent.key.child(k, cx, cy, cz);
                    let need = pages_needed(objs.len());
                    let range = if in_place_allowed && in_place_cursor + need <= in_place_end {
                        let r = storage.write_objects_at(file, in_place_cursor, objs)?;
                        in_place_cursor = r.end;
                        r
                    } else {
                        storage.append_objects(file, objs)?
                    };
                    children.push(Partition::from_main_run(
                        key,
                        key.bounds(&config.bounds, k),
                        range,
                        objs.len() as u64,
                    ));
                }
            }
        }
        // Space accounting: the append-only layout kills both parent runs;
        // the in-place layout kills the parent's overflow run plus whatever
        // tail of the main run the children did not refill.
        let dead = if in_place_allowed {
            (in_place_end - in_place_cursor) + parent.overflow_page_count
        } else {
            parent.total_page_count()
        };
        storage.note_dead_pages(file, dead);
        let record = MetaRecord::Refine {
            dataset: self.dataset,
            parent: parent.key,
            children: children.iter().map(PartitionMeta::of).collect(),
            file_len: storage.num_pages(file)?,
        };
        state.partitions.swap_remove(k, idx);
        for child in children {
            state.partitions.push(k, child);
        }
        self.bump_layout_version();
        storage.sync_file(file)?; // data before its record, durably
        durability::log(storage, record)?;
        self.total_refinements.fetch_add(1, Ordering::Relaxed);
        Ok(objects)
    }

    /// Reads every object of the partition identified by `key` from the
    /// dataset's partition file. The read lock is held across the page reads
    /// so a concurrent refinement can never tear the partition's run.
    pub fn read_partition(
        &self,
        storage: &StorageManager,
        key: &PartitionKey,
    ) -> StorageResult<Vec<SpatialObject>> {
        let state = self.state.read();
        let Some(partition) = state.partitions.get(key) else {
            return Ok(Vec::new());
        };
        if partition.object_count == 0 {
            return Ok(Vec::new());
        }
        let file = state
            .file
            .expect("read_partition requires an initialized dataset"); // analyzer: allow(read_partition runs only on initialized datasets)
        Self::read_runs(storage, file, partition)
    }

    /// Reads every object of the *region* identified by `key`, at whatever
    /// refinement level the dataset currently holds it: the exact leaf if it
    /// still exists, otherwise the union of the descendant leaves a
    /// concurrent (or earlier) refinement produced, otherwise the coarser
    /// covering leaf filtered down to the region.
    ///
    /// Returns `Ok(None)` when the region cannot be assembled at all (the
    /// dataset is uninitialized or the key lies outside its partitioning).
    ///
    /// The lookup and all page reads happen under **one** read-lock
    /// acquisition, so a refinement that replaces `key` between a caller's
    /// planning phase and its read phase can never make a populated region
    /// come back empty — the property the engine's
    /// "batch answers equal sequential answers" guarantee rests on.
    pub fn read_region(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        key: &PartitionKey,
    ) -> StorageResult<Option<Vec<SpatialObject>>> {
        Ok(self
            .read_region_versioned(storage, config, key)?
            .map(|(objects, _)| objects))
    }

    /// Like [`DatasetIndex::read_region`] but also returns the dataset's
    /// ingest sequence number observed under the *same* lock acquisition as
    /// the read. The merger stamps merge-file entries with this sequence:
    /// because ingestion appends to the log and to the partitions atomically
    /// (both under the state write lock), every object with a log position
    /// below the returned sequence is guaranteed to be in the returned data —
    /// the exactness the staleness-repair path depends on to never duplicate
    /// an object into a merge entry.
    pub fn read_region_versioned(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        key: &PartitionKey,
    ) -> StorageResult<Option<(Vec<SpatialObject>, u64)>> {
        let state = self.state.read();
        let seq = state.ingest_log.len() as u64;
        let Some(file) = state.file else {
            return Ok(None);
        };
        // Exact leaf.
        if let Some(p) = state.partitions.get(key) {
            if p.object_count == 0 {
                return Ok(Some((Vec::new(), seq)));
            }
            return Self::read_runs(storage, file, p).map(|objs| Some((objs, seq)));
        }
        let k = config.splits_per_dimension();
        // The cost model charges a table scan for every non-exact region,
        // as it always has.
        storage.note_objects_scanned(state.partitions.len() as u64);
        // Descendants: the union of the leaves below the region, in table
        // order. The rare arm that still scans the table.
        if state.partitions.is_interior(key) {
            let mut out = Vec::new();
            for p in state
                .partitions
                .iter()
                .filter(|p| p.key.level > key.level && p.key.ancestor(k, key.level) == *key)
            {
                if p.object_count > 0 {
                    Self::read_runs_into(storage, file, p, &mut out)?;
                }
            }
            return Ok(Some((out, seq)));
        }
        // Coarser ancestor: the leaf containing the region; filter its
        // objects down to the region (centers only, matching assignment
        // rules).
        let region = key.bounds(&config.bounds, k);
        if let Some(p) = state.partitions.ancestor_leaf(k, key) {
            if p.object_count == 0 {
                return Ok(Some((Vec::new(), seq)));
            }
            let objects = Self::read_runs(storage, file, p)?;
            return Ok(Some((
                objects
                    .into_iter()
                    .filter(|o| {
                        region.contains_point_half_open(o.center())
                            || region.contains_point(o.center())
                    })
                    .collect(),
                seq,
            )));
        }
        // A hole: the dataset is partitioned but no leaf touches the region
        // (its objectsless leaves were never materialized). The region is
        // empty by construction.
        Ok(Some((Vec::new(), seq)))
    }

    /// Classifies how the dataset's current leaves cover the region `key`
    /// (see [`RegionCoverage`]). One read-lock acquisition, no I/O.
    pub fn region_coverage(&self, config: &OdysseyConfig, key: &PartitionKey) -> RegionCoverage {
        let state = self.state.read();
        if state.file.is_none() {
            return RegionCoverage::Uninitialized;
        }
        state
            .partitions
            .coverage(config.splits_per_dimension(), key)
    }

    /// Best-first k-nearest-neighbour traversal: visits leaf partitions in
    /// ascending `(mindist, key)` order and stops as soon as no unvisited
    /// partition can still improve the `k` best candidates.
    ///
    /// Objects are assigned to partitions by center, so an object's MBR may
    /// stick out of its partition by up to half the dataset's `maxExtent`;
    /// the pruning bound therefore uses the partition bounds *expanded* by
    /// that margin — the kNN analogue of query-window extension. Ties at the
    /// pruning boundary are resolved by reading (`mindist <= kth` rather than
    /// `<`), so the answer equals the brute-force oracle's including its
    /// `(distance, dataset, id)` tie-break.
    ///
    /// Cost: one `mindist` pass and an `O(n)` heap build over the `n`
    /// leaves, then `O(log n)` per visited partition — the table is never
    /// sorted, so a query pays for the partitions it reads, not for the ones
    /// it prunes.
    ///
    /// The whole traversal runs under one read-lock acquisition: the
    /// partition table and every page run it reads belong to one consistent
    /// snapshot, so concurrent refinement can never tear the answer.
    /// Initializes the dataset on first touch; never refines.
    pub fn knn(
        &self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        point: Vec3,
        k: usize,
    ) -> StorageResult<PreparedKnn> {
        self.ensure_initialized(storage, config)?;
        let mut out = PreparedKnn::default();
        if k == 0 {
            return Ok(out);
        }
        let state = self.state.read();
        let file = state.file.expect("knn requires an initialized dataset"); // analyzer: allow(knn runs only on initialized datasets)
        let margin = state.max_extent * 0.5;

        // One pass computes every leaf's extended-bounds mindist and totals
        // the objects; the frontier is heapified in O(n) and popped only as
        // far as the traversal goes. The scan over the partition table is
        // CPU work, like every other partition-MBR scan.
        storage.note_objects_scanned(state.partitions.len() as u64);
        let mut unvisited_objects = 0u64;
        let mut leaves = Vec::with_capacity(state.partitions.len());
        for p in state.partitions.iter() {
            unvisited_objects += p.object_count;
            leaves.push(FrontierLeaf {
                mindist: p.bounds.expanded(margin).min_distance_squared_to(point),
                partition: p,
            });
        }
        let mut frontier = BinaryHeap::from(leaves);

        // A bounded max-heap of the k best candidates: the worst retained
        // candidate sits on top, so the pruning bound is one peek and memory
        // stays O(k) no matter how many objects the visited partitions hold.
        let mut best: BinaryHeap<RankedCandidate> = BinaryHeap::with_capacity(k + 1);
        let mut kth = f64::INFINITY;
        let mut chunk: Vec<SpatialObject> = Vec::new();
        while let Some(FrontierLeaf { mindist, partition }) = frontier.pop() {
            if best.len() >= k && mindist > kth {
                break;
            }
            unvisited_objects -= partition.object_count;
            out.retrieved_keys.push(partition.key);
            if partition.object_count == 0 {
                continue;
            }
            // Stream each run in bounded page chunks and fold every chunk
            // into the heap immediately: a partition's candidates are
            // released as soon as its contribution is finalized, instead of
            // staying pinned as whole-partition vectors until the query
            // completes — what keeps large-k queries from starving a small
            // buffer pool under concurrent batches.
            for run in partition.runs() {
                let mut next = run.start;
                while next < run.end {
                    let end = (next + KNN_READ_CHUNK_PAGES).min(run.end);
                    chunk.clear();
                    storage.read_objects_into(file, next..end, &mut chunk)?;
                    next = end;
                    for o in chunk.drain(..) {
                        best.push(RankedCandidate {
                            key: (o.mbr.min_distance_squared_to(point), o.dataset.0, o.id.0),
                            object: o,
                        });
                        if best.len() > k {
                            best.pop();
                        }
                    }
                }
            }
            if best.len() == k {
                kth = best.peek().expect("heap holds k candidates").key.0; // analyzer: allow(heap size just compared equal to k)
            }
        }
        // Everything left on the frontier is provably outside the k-th
        // distance bound: count the objects the traversal never examined.
        out.rows_skipped = unvisited_objects;
        out.results = best
            .into_sorted_vec()
            .into_iter()
            .map(|c| c.object)
            .collect();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_geom::{DatasetSet, ObjectId, QueryId};
    use odyssey_storage::write_raw_dataset;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn bounds() -> Aabb {
        Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0))
    }

    fn config() -> OdysseyConfig {
        let mut c = OdysseyConfig::paper(bounds());
        c.partitions_per_level = 8; // octree splits keep test partition counts small
        c.min_objects_to_refine = 4;
        c
    }

    fn random_objects(n: u64, seed: u64) -> Vec<SpatialObject> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let c = Vec3::new(
                    rng.gen_range(1.0..99.0),
                    rng.gen_range(1.0..99.0),
                    rng.gen_range(1.0..99.0),
                );
                SpatialObject::new(
                    ObjectId(i),
                    DatasetId(0),
                    Aabb::from_center_extent(c, Vec3::splat(rng.gen_range(0.1..0.6))),
                )
            })
            .collect()
    }

    fn setup(n: u64) -> (StorageManager, Vec<SpatialObject>, DatasetIndex) {
        let storage = StorageManager::in_memory();
        let objs = random_objects(n, 11);
        let raw = write_raw_dataset(&storage, DatasetId(0), &objs).unwrap();
        (storage, objs, DatasetIndex::new(raw))
    }

    fn query(lo: f64, hi: f64) -> RangeQuery {
        RangeQuery::new(
            QueryId(0),
            Aabb::from_min_max(Vec3::splat(lo), Vec3::splat(hi)),
            DatasetSet::single(DatasetId(0)),
        )
    }

    /// Runs a full query against the index the way the engine would:
    /// prepare, then read the pending partitions and filter.
    fn run_query(
        storage: &StorageManager,
        index: &DatasetIndex,
        config: &OdysseyConfig,
        q: &RangeQuery,
    ) -> Vec<SpatialObject> {
        let prep = index.prepare_query(storage, config, q).unwrap();
        let mut result = prep.collected;
        for key in &prep.pending_keys {
            let objs = index.read_partition(storage, key).unwrap();
            result.extend(objs.into_iter().filter(|o| q.matches(o)));
        }
        result
    }

    /// Linear-scan oracle of [`DatasetIndex::partition`].
    fn partition_scan(index: &DatasetIndex, key: &PartitionKey) -> Option<Partition> {
        index
            .state
            .read()
            .partitions
            .iter()
            .find(|p| p.key == *key)
            .copied()
    }

    /// Linear-scan oracle of [`DatasetIndex::region_coverage`]: geometric
    /// containment over the whole table.
    fn coverage_scan(
        index: &DatasetIndex,
        config: &OdysseyConfig,
        key: &PartitionKey,
    ) -> RegionCoverage {
        let state = index.state.read();
        if state.file.is_none() {
            return RegionCoverage::Uninitialized;
        }
        let region = key.bounds(&config.bounds, config.splits_per_dimension());
        let mut coverage = RegionCoverage::Hole;
        for p in state.partitions.iter() {
            if p.key == *key {
                return RegionCoverage::Exact;
            }
            if p.key.level > key.level && region.contains(&p.bounds) {
                coverage = RegionCoverage::Finer;
            } else if p.key.level < key.level
                && p.bounds.contains(&region)
                && coverage == RegionCoverage::Hole
            {
                coverage = RegionCoverage::Coarser;
            }
        }
        coverage
    }

    /// Linear-scan oracle of [`DatasetIndex::read_region_versioned`].
    fn read_region_scan(
        index: &DatasetIndex,
        storage: &StorageManager,
        config: &OdysseyConfig,
        key: &PartitionKey,
    ) -> Option<(Vec<SpatialObject>, u64)> {
        let state = index.state.read();
        let seq = state.ingest_log.len() as u64;
        let file = state.file?;
        let read = |p: &Partition| DatasetIndex::read_runs(storage, file, p).unwrap();
        if let Some(p) = state.partitions.iter().find(|p| p.key == *key) {
            return Some((read(p), seq));
        }
        let region = key.bounds(&config.bounds, config.splits_per_dimension());
        let below: Vec<&Partition> = state
            .partitions
            .iter()
            .filter(|p| p.key.level > key.level && region.contains(&p.bounds))
            .collect();
        if !below.is_empty() {
            return Some((below.into_iter().flat_map(read).collect(), seq));
        }
        if let Some(p) = state
            .partitions
            .iter()
            .find(|p| p.key.level < key.level && p.bounds.contains(&region))
        {
            let objects = read(p)
                .into_iter()
                .filter(|o| {
                    region.contains_point_half_open(o.center()) || region.contains_point(o.center())
                })
                .collect();
            return Some((objects, seq));
        }
        Some((Vec::new(), seq))
    }

    /// Linear oracle of [`DatasetIndex::knn`]: sort the whole table by
    /// `(mindist, key)`, then visit in that order until the k-th bound.
    fn knn_scan(
        index: &DatasetIndex,
        storage: &StorageManager,
        point: Vec3,
        k: usize,
    ) -> PreparedKnn {
        let state = index.state.read();
        let file = state.file.unwrap();
        let margin = state.max_extent * 0.5;
        let mut order: Vec<(f64, &Partition)> = state
            .partitions
            .iter()
            .map(|p| (p.bounds.expanded(margin).min_distance_squared_to(point), p))
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.key.cmp(&b.1.key)));
        let mut out = PreparedKnn::default();
        let mut best: BinaryHeap<RankedCandidate> = BinaryHeap::new();
        let mut kth = f64::INFINITY;
        let mut visited = 0;
        for (mindist, p) in &order {
            if best.len() >= k && *mindist > kth {
                break;
            }
            visited += 1;
            out.retrieved_keys.push(p.key);
            for o in DatasetIndex::read_runs(storage, file, p).unwrap() {
                best.push(RankedCandidate {
                    key: (o.mbr.min_distance_squared_to(point), o.dataset.0, o.id.0),
                    object: o,
                });
                if best.len() > k {
                    best.pop();
                }
            }
            if best.len() == k {
                kth = best.peek().unwrap().key.0;
            }
        }
        out.rows_skipped = order[visited..].iter().map(|(_, p)| p.object_count).sum();
        out.results = best
            .into_sorted_vec()
            .into_iter()
            .map(|c| c.object)
            .collect();
        out
    }

    /// Asserts that the keyed answers equal the linear-scan oracles for a
    /// probe set around the current leaves, and that the table's indexes
    /// equal ones rebuilt from scratch.
    fn assert_keyed_matches_scan(
        index: &DatasetIndex,
        storage: &StorageManager,
        config: &OdysseyConfig,
        rng: &mut ChaCha8Rng,
        step: &str,
    ) {
        let k = config.splits_per_dimension();
        let leaves = index.partitions();
        {
            let state = index.state.read();
            let rebuilt = PartitionTable::new(k, leaves.iter().copied());
            assert_eq!(state.partitions.slots, rebuilt.slots, "{step}: slot index");
            assert_eq!(
                state.partitions.interior, rebuilt.interior,
                "{step}: interior keys"
            );
        }
        let mut probes: Vec<PartitionKey> = Vec::new();
        for p in leaves.iter().take(24) {
            probes.push(p.key);
            probes.extend(p.key.parent(k));
            probes.push(p.key.child(k, 0, 1 % k as u32, 0));
        }
        for _ in 0..24 {
            let level = rng.gen_range(1..5u32);
            let c = Vec3::new(
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
            );
            probes.push(PartitionKey::containing(&config.bounds, k, level, c));
        }
        for key in &probes {
            assert_eq!(
                index.partition(key),
                partition_scan(index, key),
                "{step}: partition {key:?}"
            );
            assert_eq!(
                index.region_coverage(config, key),
                coverage_scan(index, config, key),
                "{step}: coverage {key:?}"
            );
            let ids = |r: Option<(Vec<SpatialObject>, u64)>| {
                r.map(|(objs, seq)| (objs.iter().map(|o| o.id).collect::<Vec<_>>(), seq))
            };
            assert_eq!(
                ids(index.read_region_versioned(storage, config, key).unwrap()),
                ids(read_region_scan(index, storage, config, key)),
                "{step}: read_region {key:?}"
            );
        }
    }

    fn clustered_objects(n: u64, first_id: u64, rng: &mut ChaCha8Rng) -> Vec<SpatialObject> {
        let centers = [
            Vec3::splat(12.0),
            Vec3::new(70.0, 30.0, 60.0),
            Vec3::splat(88.0),
        ];
        (0..n)
            .map(|i| {
                let c = centers[rng.gen_range(0..centers.len())]
                    + Vec3::new(
                        rng.gen_range(-9.0..9.0),
                        rng.gen_range(-9.0..9.0),
                        rng.gen_range(-9.0..9.0),
                    );
                SpatialObject::new(
                    ObjectId(first_id + i),
                    DatasetId(0),
                    Aabb::from_center_extent(c, Vec3::splat(rng.gen_range(0.1..0.5))),
                )
            })
            .collect()
    }

    #[test]
    fn keyed_lookups_match_the_linear_scan_oracle() {
        for (seed, ppl, min_objects) in [(1u64, 8, 0usize), (2, 8, 4), (3, 64, 0), (4, 64, 2)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let storage = StorageManager::in_memory();
            let seed_objects = clustered_objects(1500, 0, &mut rng);
            let raw = write_raw_dataset(&storage, DatasetId(0), &seed_objects).unwrap();
            let mut index = DatasetIndex::new(raw);
            let mut cfg = OdysseyConfig::paper(bounds())
                .with_ingest_split_objects(60)
                .with_compaction_dead_ratio(0.05);
            cfg.partitions_per_level = ppl;
            cfg.min_objects_to_refine = min_objects;
            assert_keyed_matches_scan(&index, &storage, &cfg, &mut rng, "uninitialized");
            let mut next_id = 1_000_000u64;
            for step in 0..40 {
                let op = if step == 0 {
                    0
                } else {
                    rng.gen_range(0..10u32)
                };
                let label = format!("seed {seed} step {step} op {op}");
                match op {
                    0..=3 => {
                        let c = Vec3::new(
                            rng.gen_range(5.0..95.0),
                            rng.gen_range(5.0..95.0),
                            rng.gen_range(5.0..95.0),
                        );
                        let q = RangeQuery::new(
                            QueryId(step),
                            Aabb::from_center_extent(c, Vec3::splat(rng.gen_range(0.5..8.0))),
                            DatasetSet::single(DatasetId(0)),
                        );
                        run_query(&storage, &index, &cfg, &q);
                    }
                    4..=6 => {
                        // Uniform arrivals: many land in holes.
                        let arrivals: Vec<SpatialObject> = (0..rng.gen_range(1..40u64))
                            .map(|i| {
                                let c = Vec3::new(
                                    rng.gen_range(1.0..99.0),
                                    rng.gen_range(1.0..99.0),
                                    rng.gen_range(1.0..99.0),
                                );
                                SpatialObject::new(
                                    ObjectId(next_id + i),
                                    DatasetId(0),
                                    Aabb::from_center_extent(c, Vec3::splat(0.3)),
                                )
                            })
                            .collect();
                        next_id += 100;
                        let defer = rng.gen_range(0..2u32) == 0;
                        index.ingest_with(&storage, &cfg, &arrivals, defer).unwrap();
                        if defer {
                            index.refine_oversized(&storage, &cfg).unwrap();
                        }
                    }
                    7 => {
                        index.compact(&storage, &cfg).unwrap();
                    }
                    _ => {
                        let (log, _) = index.ingest_tail(0);
                        index = DatasetIndex::restore(&cfg, &index.snapshot(), log);
                    }
                }
                assert_keyed_matches_scan(&index, &storage, &cfg, &mut rng, &label);
            }
            assert!(index.total_refinements() > 0, "seed {seed} never refined");
        }
    }

    #[test]
    fn layout_version_moves_exactly_with_the_leaf_key_set() {
        let (storage, _, index) = setup(3000);
        let cfg = config();
        assert_eq!(index.layout_version(), 0);
        index.ensure_initialized(&storage, &cfg).unwrap();
        let v = index.layout_version();
        assert!(v > 0, "first touch moves the version");
        // A converged read leaves it alone.
        let big = query(10.0, 90.0);
        run_query(&storage, &index, &cfg, &big);
        assert_eq!(index.layout_version(), v);
        // Refinement moves it.
        run_query(&storage, &index, &cfg, &query(30.0, 31.0));
        assert!(index.total_refinements() > 0);
        let v = index.layout_version();
        assert!(v > 1);
        // An ingest into existing leaves (no hole, no split) leaves it alone.
        let leaf = index.partitions()[0];
        let arrival = SpatialObject::new(
            ObjectId(77_777),
            DatasetId(0),
            Aabb::from_center_extent(leaf.bounds.center(), Vec3::splat(0.1)),
        );
        let stats = index
            .ingest(&storage, &cfg.with_ingest_split_objects(0), &[arrival])
            .unwrap();
        assert_eq!((stats.partitions_created, stats.partitions_split), (0, 0));
        assert_eq!(index.layout_version(), v);
        // A restored index starts over: the version is derived state.
        let restored = DatasetIndex::restore(&cfg, &index.snapshot(), index.ingest_tail(0).0);
        assert_eq!(restored.layout_version(), 0);
        assert_eq!(restored.partitions().len(), index.partitions().len());
    }

    #[test]
    fn lazy_until_first_query() {
        let (_, _, index) = setup(100);
        assert!(!index.is_initialized());
        assert!(index.partitions().is_empty());
        assert_eq!(index.max_extent(), Vec3::ZERO);
    }

    #[test]
    fn first_query_partitions_into_ppl_cells() {
        let (storage, _, index) = setup(2000);
        let cfg = config();
        let q = query(40.0, 42.0);
        let _ = index.prepare_query(&storage, &cfg, &q).unwrap();
        assert!(index.is_initialized());
        // May already have refined the hit cell once, so at least ppl cells.
        assert!(index.partitions().len() >= cfg.partitions_per_level);
        // Every object is in exactly one partition.
        let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn query_results_match_scan_oracle_over_a_sequence() {
        let (storage, objs, index) = setup(3000);
        let cfg = config();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for i in 0..40 {
            let c = Vec3::new(
                rng.gen_range(5.0..95.0),
                rng.gen_range(5.0..95.0),
                rng.gen_range(5.0..95.0),
            );
            let side = rng.gen_range(1.0..15.0);
            let q = RangeQuery::new(
                QueryId(i),
                Aabb::from_center_extent(c, Vec3::splat(side)),
                DatasetSet::single(DatasetId(0)),
            );
            let mut expected: Vec<_> = odyssey_geom::scan_query(&q, objs.iter())
                .iter()
                .map(|o| o.id)
                .collect();
            let mut got: Vec<_> = run_query(&storage, &index, &cfg, &q)
                .iter()
                .map(|o| o.id)
                .collect();
            expected.sort_unstable();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, expected, "query {i} diverged from the oracle");
        }
    }

    #[test]
    fn repeated_small_queries_refine_the_hot_area() {
        let (storage, _, index) = setup(5000);
        let cfg = config();
        // Hammer the same small region, well inside one level-1 cell so the
        // opposite corner of the volume is never touched.
        for i in 0..6 {
            let q = RangeQuery::new(
                QueryId(i),
                Aabb::from_center_extent(Vec3::splat(25.0), Vec3::splat(2.0)),
                DatasetSet::single(DatasetId(0)),
            );
            run_query(&storage, &index, &cfg, &q);
        }
        assert!(index.total_refinements() > 0);
        // The partition containing the hot point must now be much smaller
        // than a level-1 cell.
        let hot = index
            .partitions()
            .iter()
            .filter(|p| p.bounds.contains_point(Vec3::splat(25.0)))
            .map(|p| p.key.level)
            .max()
            .unwrap();
        assert!(hot >= 2, "hot area should have been refined, level = {hot}");
        // Untouched areas (the opposite corner cell) stay at level 1.
        let cold = index
            .partitions()
            .iter()
            .filter(|p| p.bounds.contains_point(Vec3::splat(90.0)))
            .map(|p| p.key.level)
            .max()
            .unwrap();
        assert_eq!(cold, 1);
    }

    #[test]
    fn refinement_converges_and_stops() {
        let (storage, _, index) = setup(4000);
        let cfg = config();
        let q = RangeQuery::new(
            QueryId(0),
            Aabb::from_center_extent(Vec3::splat(50.0), Vec3::splat(10.0)),
            DatasetSet::single(DatasetId(0)),
        );
        // Enough repetitions to converge: afterwards no further refinement
        // happens for this query size.
        for _ in 0..10 {
            run_query(&storage, &index, &cfg, &q);
        }
        let before = index.total_refinements();
        run_query(&storage, &index, &cfg, &q);
        let after = index.total_refinements();
        assert_eq!(before, after, "refinement must stop once Vp/Vq <= rt");
    }

    #[test]
    fn object_counts_are_preserved_across_refinements() {
        let (storage, _, index) = setup(3000);
        let cfg = config();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for i in 0..15 {
            let c = Vec3::new(
                rng.gen_range(10.0..90.0),
                rng.gen_range(10.0..90.0),
                rng.gen_range(10.0..90.0),
            );
            let q = RangeQuery::new(
                QueryId(i),
                Aabb::from_center_extent(c, Vec3::splat(3.0)),
                DatasetSet::single(DatasetId(0)),
            );
            run_query(&storage, &index, &cfg, &q);
            let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
            assert_eq!(total, 3000, "objects lost or duplicated after query {i}");
        }
    }

    #[test]
    fn partition_keys_are_unique_leaves() {
        let (storage, _, index) = setup(2000);
        let cfg = config();
        for i in 0..10 {
            let q = RangeQuery::new(
                QueryId(i),
                Aabb::from_center_extent(Vec3::splat(30.0 + i as f64), Vec3::splat(2.0)),
                DatasetSet::single(DatasetId(0)),
            );
            run_query(&storage, &index, &cfg, &q);
        }
        let mut keys: Vec<_> = index.partitions().iter().map(|p| p.key).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate leaf partitions");
    }

    #[test]
    fn first_query_cost_dominates_later_queries() {
        let (storage, _, index) = setup(5000);
        let cfg = config();
        let q = query(45.0, 47.0);
        let before = storage.stats();
        run_query(&storage, &index, &cfg, &q);
        let first_cost = storage.seconds_since(&before);
        // Converge, then measure a later identical query.
        for _ in 0..8 {
            run_query(&storage, &index, &cfg, &q);
        }
        storage.clear_cache();
        let before = storage.stats();
        run_query(&storage, &index, &cfg, &q);
        let later_cost = storage.seconds_since(&before);
        assert!(
            first_cost > 3.0 * later_cost,
            "first query ({first_cost}s) should dwarf converged queries ({later_cost}s)"
        );
    }

    #[test]
    fn read_partition_of_unknown_key_is_empty() {
        let (storage, _, index) = setup(200);
        let cfg = config();
        index.ensure_initialized(&storage, &cfg).unwrap();
        let bogus = PartitionKey {
            level: 5,
            x: 999,
            y: 0,
            z: 0,
        };
        assert!(index.read_partition(&storage, &bogus).unwrap().is_empty());
    }

    #[test]
    fn max_extent_is_recorded() {
        let (storage, objs, index) = setup(800);
        let cfg = config();
        index.ensure_initialized(&storage, &cfg).unwrap();
        assert_eq!(index.max_extent(), odyssey_geom::max_extent(objs.iter()));
        assert_eq!(index.dataset(), DatasetId(0));
    }

    #[test]
    fn read_region_resolves_keys_refined_away() {
        // The race the engine's phase 3 must survive: a pending key is
        // refined into children between planning and reading. read_region
        // must return the region's full object set from the descendants.
        let (storage, objs, index) = setup(4000);
        let cfg = config();
        index.ensure_initialized(&storage, &cfg).unwrap();
        let parent = index
            .partitions()
            .iter()
            .max_by_key(|p| p.object_count)
            .map(|p| p.key)
            .unwrap();
        let before: usize = index.read_partition(&storage, &parent).unwrap().len();
        assert!(before > 0, "pick a populated partition");
        // Refine the parent away by querying a tiny region inside it.
        let center = index.partition(&parent).unwrap().bounds.center();
        let q = RangeQuery::new(
            QueryId(0),
            Aabb::from_center_extent(center, Vec3::splat(0.5)),
            DatasetSet::single(DatasetId(0)),
        );
        index.prepare_query(&storage, &cfg, &q).unwrap();
        assert!(
            index.partition(&parent).is_none(),
            "parent key must be refined away"
        );
        // The stale handle still resolves to the full region.
        assert!(index.read_partition(&storage, &parent).unwrap().is_empty());
        let via_region = index.read_region(&storage, &cfg, &parent).unwrap().unwrap();
        assert_eq!(
            via_region.len(),
            before,
            "descendants must cover the region"
        );
        // A key deeper than the current leaves resolves through the ancestor
        // filter; unknown regions outside any partitioning resolve to None
        // only for uninitialized datasets.
        let child = parent.child(cfg.splits_per_dimension(), 0, 0, 0);
        let deeper = child.child(cfg.splits_per_dimension(), 0, 0, 0);
        let via_ancestor = index.read_region(&storage, &cfg, &deeper).unwrap().unwrap();
        let oracle = objs
            .iter()
            .filter(|o| {
                let b = deeper.bounds(&cfg.bounds, cfg.splits_per_dimension());
                b.contains_point_half_open(o.center()) || b.contains_point(o.center())
            })
            .count();
        assert_eq!(via_ancestor.len(), oracle);
    }

    #[test]
    fn knn_matches_brute_force_before_and_after_refinement() {
        use odyssey_geom::{scan_knn_query, KnnQuery};
        let (storage, objs, index) = setup(3000);
        let cfg = config();
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let mut probe = |index: &DatasetIndex| {
            for i in 0..15u32 {
                let p = Vec3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                let k = rng.gen_range(1..40usize);
                let q = KnnQuery::new(QueryId(i), p, k, DatasetSet::single(DatasetId(0)));
                let got: Vec<_> = index
                    .knn(&storage, &cfg, p, k)
                    .unwrap()
                    .results
                    .iter()
                    .map(|o| o.id)
                    .collect();
                let expected: Vec<_> = scan_knn_query(&q, objs.iter())
                    .iter()
                    .map(|o| o.id)
                    .collect();
                assert_eq!(got, expected, "kNN diverged (k={k}, p={p:?})");
            }
        };
        probe(&index);
        // Refine a hot area, then probe again: answers must be unchanged.
        for i in 0..6 {
            let q = RangeQuery::new(
                QueryId(100 + i),
                Aabb::from_center_extent(Vec3::splat(30.0), Vec3::splat(2.0)),
                DatasetSet::single(DatasetId(0)),
            );
            run_query(&storage, &index, &cfg, &q);
        }
        assert!(index.total_refinements() > 0);
        probe(&index);
    }

    #[test]
    fn knn_edge_cases_and_pruning() {
        let (storage, objs, index) = setup(2000);
        let cfg = config();
        // k = 0 returns nothing and reads nothing.
        let empty = index.knn(&storage, &cfg, Vec3::splat(50.0), 0).unwrap();
        assert!(empty.results.is_empty());
        assert!(empty.retrieved_keys.is_empty());
        // k >= n returns every object.
        let all = index.knn(&storage, &cfg, Vec3::splat(50.0), 5000).unwrap();
        assert_eq!(all.results.len(), objs.len());
        // A small k well inside one cell prunes the far partitions. (A probe
        // at the exact center would touch all 2³ level-1 cells legitimately —
        // their expanded bounds all contain it.)
        let small = index.knn(&storage, &cfg, Vec3::splat(25.0), 3).unwrap();
        assert_eq!(small.results.len(), 3);
        assert!(
            small.retrieved_keys.len() < index.partitions().len(),
            "best-first must not visit every partition for a small k"
        );
    }

    #[test]
    fn knn_visit_order_matches_the_linear_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(56);
        let storage = StorageManager::in_memory();
        let objs = clustered_objects(1200, 0, &mut rng);
        let raw = write_raw_dataset(&storage, DatasetId(0), &objs).unwrap();
        let index = DatasetIndex::new(raw);
        // No ingest splits, so arrivals stay in overflow runs.
        let cfg = config().with_ingest_split_objects(0);
        // Refine the three hot spots several levels deep.
        let spots = [
            Vec3::splat(12.0),
            Vec3::new(70.0, 30.0, 60.0),
            Vec3::splat(88.0),
        ];
        for (i, c) in spots.iter().cycle().take(18).enumerate() {
            let q = RangeQuery::new(
                QueryId(i as u32),
                Aabb::from_center_extent(*c, Vec3::splat(0.8)),
                DatasetSet::single(DatasetId(0)),
            );
            run_query(&storage, &index, &cfg, &q);
        }
        let arrivals: Vec<SpatialObject> = (0..20u64)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(1_000_000 + i),
                    DatasetId(0),
                    Aabb::from_center_extent(
                        spots[1] + Vec3::splat(i as f64 * 0.1),
                        Vec3::splat(0.3),
                    ),
                )
            })
            .collect();
        index.ingest(&storage, &cfg, &arrivals).unwrap();
        let leaves = index.partitions();
        assert!(
            leaves.iter().any(|p| p.key.level >= 3),
            "refined three levels"
        );
        assert!(
            leaves.iter().any(|p| p.overflow_page_count > 0),
            "an overflow run"
        );
        let covered: f64 = leaves.iter().map(|p| p.volume()).sum();
        assert!(covered < cfg.bounds.volume(), "at least one hole");

        let n = objs.len() + arrivals.len();
        let mut points: Vec<Vec3> = (0..200)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                )
            })
            .collect();
        // Cell corners and face centers, where mindist-0 ties occur.
        for p in leaves.iter().step_by(leaves.len() / 20 + 1) {
            let (lo, mid) = (p.bounds.min, p.bounds.center());
            points.push(lo);
            points.push(Vec3::new(lo.x, mid.y, mid.z));
        }
        points.extend([
            Vec3::splat(-25.0),
            Vec3::new(150.0, 50.0, 50.0),
            Vec3::new(50.0, -5.0, 120.0),
            Vec3::splat(1e4),
        ]);
        for p in points {
            for k in [1, 8, 40, n + 5] {
                let got = index.knn(&storage, &cfg, p, k).unwrap();
                let expected = knn_scan(&index, &storage, p, k);
                assert_eq!(got.results, expected.results, "results (k={k}, p={p:?})");
                assert_eq!(
                    got.retrieved_keys, expected.retrieved_keys,
                    "visit order (k={k}, p={p:?})"
                );
                assert_eq!(
                    got.rows_skipped, expected.rows_skipped,
                    "rows_skipped (k={k}, p={p:?})"
                );
            }
        }
    }

    #[test]
    fn scan_raw_and_probe_hits() {
        let (storage, objs, index) = setup(1000);
        let cfg = config();
        // scan_raw works without initializing the dataset.
        let scanned = index.scan_raw(&storage).unwrap();
        assert_eq!(scanned.len(), objs.len());
        assert!(!index.is_initialized());
        assert_eq!(index.raw().num_objects, objs.len() as u64);
        // probe_hits reports None while uninitialized.
        let q = query(40.0, 60.0);
        assert!(index.probe_hits(&q, |_| {}).is_none());
        index.ensure_initialized(&storage, &cfg).unwrap();
        let mut hits = 0usize;
        let total = index.probe_hits(&q, |_| hits += 1).unwrap();
        assert_eq!(total, index.partitions().len());
        assert!(hits > 0 && hits <= total);
    }

    #[test]
    fn refine_skips_empty_children() {
        // Regression: refining a corner-clustered partition used to push all
        // k³ children into the table, empty ones included, inflating every
        // table scan and the planner's CPU term.
        let storage = StorageManager::in_memory();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // All objects inside one corner of one level-1 cell (cell [0,50)³ for
        // k = 2; cluster within [0,10)³).
        let objs: Vec<SpatialObject> = (0..1000)
            .map(|i| {
                let c = Vec3::new(
                    rng.gen_range(1.0..9.0),
                    rng.gen_range(1.0..9.0),
                    rng.gen_range(1.0..9.0),
                );
                SpatialObject::new(
                    ObjectId(i),
                    DatasetId(0),
                    Aabb::from_center_extent(c, Vec3::splat(0.2)),
                )
            })
            .collect();
        let raw = write_raw_dataset(&storage, DatasetId(0), &objs).unwrap();
        let index = DatasetIndex::new(raw);
        let cfg = config();
        index.ensure_initialized(&storage, &cfg).unwrap();
        assert_eq!(index.partitions().len(), 8, "level-1 cells are complete");
        // Refine the corner cell with a tiny query inside the cluster.
        let q = RangeQuery::new(
            QueryId(0),
            Aabb::from_center_extent(Vec3::splat(5.0), Vec3::splat(1.0)),
            DatasetSet::single(DatasetId(0)),
        );
        run_query(&storage, &index, &cfg, &q);
        assert!(index.total_refinements() >= 1);
        // Every partition beyond level 1 holds objects: no empty child was
        // ever materialized, and the object count is preserved.
        assert!(index
            .partitions()
            .iter()
            .filter(|p| p.key.level > 1)
            .all(|p| p.object_count > 0));
        let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
        assert_eq!(total, 1000);
        // The corner cluster fits one child: the table shrank below the dense
        // 8 roots + 8 children it would have held with empty children kept.
        assert!(
            index.partitions().len() < 15,
            "empty children must not inflate the table: {} partitions",
            index.partitions().len()
        );
        // Probe code tolerates the sparse coverage: the refined-away root's
        // empty siblings resolve to empty regions, not errors.
        let hole = PartitionKey {
            level: 2,
            x: 3,
            y: 3,
            z: 3,
        };
        assert_eq!(index.region_coverage(&cfg, &hole), RegionCoverage::Coarser);
        let empty_child = PartitionKey {
            level: 2,
            x: 1,
            y: 1,
            z: 1,
        };
        assert_eq!(
            index.region_coverage(&cfg, &empty_child),
            RegionCoverage::Hole
        );
        assert!(index
            .read_region(&storage, &cfg, &empty_child)
            .unwrap()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn warm_cache_reads_after_refine_are_fresh() {
        // Satellite check: `refine` rewrites the parent's page run in place
        // through the write-through storage path, so buffer-pool frames
        // cached before the refinement must never serve pre-refine bytes.
        let (storage, objs, index) = setup(4000);
        let cfg = config();
        let q = query(20.0, 30.0);
        // Warm the cache over the queried region (first touch + reads).
        run_query(&storage, &index, &cfg, &q);
        let warm_hits_before = storage.buffer().hits();
        // Refine the hot region with tiny queries; in-place rewrites hit the
        // same pages that are resident in the pool.
        for i in 0..4 {
            let tiny = RangeQuery::new(
                QueryId(10 + i),
                Aabb::from_center_extent(Vec3::splat(25.0), Vec3::splat(1.0)),
                DatasetSet::single(DatasetId(0)),
            );
            run_query(&storage, &index, &cfg, &tiny);
        }
        assert!(index.total_refinements() > 0);
        // Re-run the original query against the warm cache: served pages come
        // from the pool and must reflect the post-refine layout exactly.
        let mut got: Vec<_> = run_query(&storage, &index, &cfg, &q)
            .iter()
            .map(|o| o.id)
            .collect();
        let mut expected: Vec<_> = odyssey_geom::scan_query(&q, objs.iter())
            .iter()
            .map(|o| o.id)
            .collect();
        got.sort_unstable();
        got.dedup();
        expected.sort_unstable();
        assert_eq!(got, expected, "a stale cached pre-refine page was served");
        assert!(
            storage.buffer().hits() > warm_hits_before,
            "the verification must actually exercise warm-cache reads"
        );
    }

    #[test]
    fn ingest_routes_to_leaves_and_preserves_answers() {
        let (storage, mut objs, index) = setup(3000);
        let cfg = config();
        index.ensure_initialized(&storage, &cfg).unwrap();
        // Refine a hot area first so arrivals route to deep leaves.
        for i in 0..5 {
            let q = RangeQuery::new(
                QueryId(i),
                Aabb::from_center_extent(Vec3::splat(30.0), Vec3::splat(2.0)),
                DatasetSet::single(DatasetId(0)),
            );
            run_query(&storage, &index, &cfg, &q);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for round in 0..4u64 {
            let arrivals: Vec<SpatialObject> = (0..200u64)
                .map(|i| {
                    let c = Vec3::new(
                        rng.gen_range(1.0..99.0),
                        rng.gen_range(1.0..99.0),
                        rng.gen_range(1.0..99.0),
                    );
                    SpatialObject::new(
                        ObjectId(1_000_000 + round * 1000 + i),
                        DatasetId(0),
                        Aabb::from_center_extent(c, Vec3::splat(0.3)),
                    )
                })
                .collect();
            let stats = index.ingest(&storage, &cfg, &arrivals).unwrap();
            assert_eq!(stats.objects_ingested, 200);
            objs.extend(arrivals);
            // Invariants: object counts preserved, raw file grew, sequence
            // advanced, answers stay oracle-exact.
            let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
            assert_eq!(total, 3000 + (round + 1) * 200);
            assert_eq!(index.raw().num_objects, 3000 + (round + 1) * 200);
            assert_eq!(index.ingest_seq(), (round + 1) * 200);
            for i in 0..8u32 {
                let c = Vec3::new(
                    rng.gen_range(5.0..95.0),
                    rng.gen_range(5.0..95.0),
                    rng.gen_range(5.0..95.0),
                );
                let q = RangeQuery::new(
                    QueryId(100 + i),
                    Aabb::from_center_extent(c, Vec3::splat(rng.gen_range(2.0..10.0))),
                    DatasetSet::single(DatasetId(0)),
                );
                let mut got: Vec<_> = run_query(&storage, &index, &cfg, &q)
                    .iter()
                    .map(|o| o.id)
                    .collect();
                let mut expected: Vec<_> = odyssey_geom::scan_query(&q, objs.iter())
                    .iter()
                    .map(|o| o.id)
                    .collect();
                got.sort_unstable();
                got.dedup();
                expected.sort_unstable();
                assert_eq!(got, expected, "round {round} query {i} diverged");
            }
        }
        // The ingest log replays the arrival order.
        let (tail, seq) = index.ingest_tail(0);
        assert_eq!(seq, 800);
        assert_eq!(tail.len(), 800);
        assert_eq!(index.ingest_tail(795).0.len(), 5);
    }

    #[test]
    fn ingest_split_threshold_triggers_refinement() {
        let (storage, _, index) = setup(500);
        let mut cfg = config();
        cfg.ingest_split_objects = 128;
        index.ensure_initialized(&storage, &cfg).unwrap();
        let before_refines = index.total_refinements();
        // Pour arrivals into one spot until its leaf crosses the threshold.
        let arrivals: Vec<SpatialObject> = (0..300u64)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(10_000 + i),
                    DatasetId(0),
                    Aabb::from_center_extent(Vec3::splat(10.0 + (i % 7) as f64), Vec3::splat(0.2)),
                )
            })
            .collect();
        let stats = index.ingest(&storage, &cfg, &arrivals).unwrap();
        assert!(
            stats.partitions_split > 0,
            "crossing the split threshold must refine: {stats:?}"
        );
        assert!(index.total_refinements() > before_refines);
        // Split children carry no overflow and the data is intact.
        let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
        assert_eq!(total, 800);
        // Disabled threshold: no splits, only overflow growth.
        let (storage2, _, index2) = setup(500);
        let cfg2 = config().with_ingest_split_objects(0);
        index2.ensure_initialized(&storage2, &cfg2).unwrap();
        let stats2 = index2.ingest(&storage2, &cfg2, &arrivals).unwrap();
        assert_eq!(stats2.partitions_split, 0);
    }

    #[test]
    fn ingest_into_holes_creates_leaves() {
        // Build a corner-clustered dataset, refine so empty siblings become
        // holes, then ingest into a hole: a leaf must be created there.
        let storage = StorageManager::in_memory();
        let objs: Vec<SpatialObject> = (0..600)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    DatasetId(0),
                    Aabb::from_center_extent(Vec3::splat(2.0 + (i % 5) as f64), Vec3::splat(0.2)),
                )
            })
            .collect();
        let raw = write_raw_dataset(&storage, DatasetId(0), &objs).unwrap();
        let index = DatasetIndex::new(raw);
        let cfg = config();
        index.ensure_initialized(&storage, &cfg).unwrap();
        let q = RangeQuery::new(
            QueryId(0),
            Aabb::from_center_extent(Vec3::splat(4.0), Vec3::splat(1.0)),
            DatasetSet::single(DatasetId(0)),
        );
        run_query(&storage, &index, &cfg, &q);
        assert!(index.total_refinements() > 0);
        // [30,40]³ lies inside the refined root cell but held no data: a hole.
        let hole_center = Vec3::splat(35.0);
        let hole_key = PartitionKey::containing(&cfg.bounds, 2, 2, hole_center);
        assert_eq!(index.region_coverage(&cfg, &hole_key), RegionCoverage::Hole);
        let arrival = SpatialObject::new(
            ObjectId(9999),
            DatasetId(0),
            Aabb::from_center_extent(hole_center, Vec3::splat(0.3)),
        );
        let stats = index.ingest(&storage, &cfg, &[arrival]).unwrap();
        assert_eq!(stats.partitions_created, 1);
        assert_eq!(
            index.region_coverage(&cfg, &hole_key),
            RegionCoverage::Exact
        );
        let got = index.read_partition(&storage, &hole_key).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, ObjectId(9999));
    }

    #[test]
    fn ingest_before_initialization_lands_in_first_touch() {
        let (storage, mut objs, index) = setup(400);
        let cfg = config();
        assert!(!index.is_initialized());
        let arrivals: Vec<SpatialObject> = (0..100u64)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(50_000 + i),
                    DatasetId(0),
                    Aabb::from_center_extent(Vec3::splat(60.0 + (i % 9) as f64), Vec3::splat(0.3)),
                )
            })
            .collect();
        let stats = index.ingest(&storage, &cfg, &arrivals).unwrap();
        assert_eq!(stats.objects_ingested, 100);
        assert!(
            !index.is_initialized(),
            "pre-initialization ingest stays lazy"
        );
        objs.extend(arrivals);
        // The first query partitions raw + ingested together.
        let q = query(55.0, 75.0);
        let mut got: Vec<_> = run_query(&storage, &index, &cfg, &q)
            .iter()
            .map(|o| o.id)
            .collect();
        let mut expected: Vec<_> = odyssey_geom::scan_query(&q, objs.iter())
            .iter()
            .map(|o| o.id)
            .collect();
        got.sort_unstable();
        got.dedup();
        expected.sort_unstable();
        assert_eq!(got, expected);
        let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn concurrent_first_touch_initializes_once() {
        let (storage, _, index) = setup(3000);
        let cfg = config();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (storage, index, cfg) = (&storage, &index, &cfg);
                s.spawn(move || index.ensure_initialized(storage, cfg).unwrap());
            }
        });
        assert!(index.is_initialized());
        // Exactly one partition file was created (plus the raw file).
        assert_eq!(storage.file_count(), 2);
        let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
        assert_eq!(total, 3000);
    }

    #[test]
    fn concurrent_queries_preserve_objects_and_answers() {
        let (storage, objs, index) = setup(4000);
        let cfg = config();
        let queries: Vec<RangeQuery> = {
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            (0..32)
                .map(|i| {
                    let c = Vec3::new(
                        rng.gen_range(10.0..90.0),
                        rng.gen_range(10.0..90.0),
                        rng.gen_range(10.0..90.0),
                    );
                    RangeQuery::new(
                        QueryId(i),
                        Aabb::from_center_extent(c, Vec3::splat(rng.gen_range(2.0..8.0))),
                        DatasetSet::single(DatasetId(0)),
                    )
                })
                .collect()
        };
        std::thread::scope(|s| {
            for chunk in queries.chunks(8) {
                let (storage, index, cfg, objs) = (&storage, &index, &cfg, &objs);
                s.spawn(move || {
                    for q in chunk {
                        let mut got: Vec<_> = run_query(storage, index, cfg, q)
                            .iter()
                            .map(|o| o.id)
                            .collect();
                        let mut expected: Vec<_> = odyssey_geom::scan_query(q, objs.iter())
                            .iter()
                            .map(|o| o.id)
                            .collect();
                        got.sort_unstable();
                        got.dedup();
                        expected.sort_unstable();
                        assert_eq!(got, expected, "query {:?} diverged", q.id);
                    }
                });
            }
        });
        let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
        assert_eq!(total, 4000, "objects lost under concurrent refinement");
    }
}
