//! The Merger and its merge-file directory.
//!
//! Once the Statistics Collector shows that a combination `C` has been
//! queried more than the merge threshold `mt` times (and `|C|` is at least
//! the configured minimum, 3 in the paper), the Merger copies the partitions
//! retrieved in the context of `C` into a merge file (§3.2.1). A directory
//! records which partitions of which combinations are stored together so the
//! Query Processor can route queries to the exact / superset / subset merge
//! file (§3.2.3), and a space budget with least-recently-used eviction keeps
//! the replicated data bounded (§3.2.4).
//!
//! Two pieces of derived state keep the Merger's steady-state cost
//! proportional to what changed rather than to what it holds:
//!
//! * **High-water multisets.** Every merge file keeps, per dataset, the
//!   multiset of its entries' sync sequences, so the staleness checks on
//!   the read path and the repair's starting point read a minimum instead
//!   of walking the entries. A repair routes the ingest tail once per entry
//!   level and repairs entries in key order, so the runs it appends land in
//!   the file in the same order on every run.
//! * **Sweep version.** Every merge file records the summed layout version
//!   of its datasets at the last full sweep of the combination's retrieved
//!   keys ([`MergeFile::swept_at`]). While that version stands, the query
//!   cursor's merge trigger hands [`Merger::merge_combination`] only the
//!   keys no earlier query retrieved, or nothing at all: the keys a sweep
//!   left out failed the same-level check, which depends only on the leaf
//!   key sets the version tracks.

use crate::config::{MergeLevelPolicy, OdysseyConfig};
use crate::durability::{self, MetaRecord};
use crate::merge_file::{MergeFile, MergeSource};
use crate::octree::DatasetIndex;
use crate::partition::PartitionKey;
use crate::stats::StatsCollector;
use odyssey_geom::{DatasetSet, SpatialObject};
use odyssey_storage::{StorageManager, StorageResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a query's combination relates to the merge file chosen for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteKind {
    /// A merge file stores exactly the queried combination.
    Exact,
    /// The merge file stores a superset; unwanted datasets are skipped.
    Superset,
    /// The merge file stores a subset (or overlapping set); the remaining
    /// datasets are read from their individual files.
    Subset,
    /// No merge file is useful; only individual files are read.
    None,
}

/// Directory of merge files, indexed by combination.
///
/// Routing (the per-query lookup) works through `&self`: the LRU clock and
/// the files' recency stamps are atomics, so concurrent queries can route and
/// read in parallel under the engine's directory read lock. Structural
/// changes (inserting a merge file, eviction) take `&mut self` and therefore
/// the engine's write lock.
#[derive(Debug, Default)]
pub struct MergeDirectory {
    files: Vec<MergeFile>,
    clock: AtomicU64,
    evictions: u64,
}

impl MergeDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        MergeDirectory::default()
    }

    /// Number of live merge files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Returns `true` if no merge file exists.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total pages across all live merge files, counted from their directory
    /// entries (the replicated space a query can actually be served from).
    pub fn total_pages(&self) -> u64 {
        self.files.iter().map(|f| f.total_pages()).sum()
    }

    /// Total pages the merge files' *backing files* occupy on the storage
    /// manager. This is what the space budget is enforced against: entry
    /// page counts drift below the physical size whenever an append partially
    /// fails or a repair lands pages the entry bookkeeping missed, and a
    /// budget enforced on the drifting number silently overshoots.
    pub fn total_file_pages(&self, storage: &StorageManager) -> u64 {
        self.files
            .iter()
            .map(|f| storage.num_pages(f.file_id()).unwrap_or(f.total_pages()))
            .sum()
    }

    /// Number of merge files evicted so far to respect the space budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Current value of the routing LRU clock.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Reinstates a checkpointed directory (files in checkpoint order, which
    /// is the live directory's order).
    pub fn restore(files: Vec<MergeFile>, clock: u64, evictions: u64) -> Self {
        MergeDirectory {
            files,
            clock: AtomicU64::new(clock),
            evictions,
        }
    }

    /// Iterates over the live merge files.
    pub fn iter(&self) -> impl Iterator<Item = &MergeFile> {
        self.files.iter()
    }

    /// Index of the merge file storing exactly `combination`.
    fn find_exact(&self, combination: DatasetSet) -> Option<usize> {
        self.files.iter().position(|f| f.combination == combination)
    }

    /// The merge file storing exactly `combination`, if any.
    pub fn get_exact(&self, combination: DatasetSet) -> Option<&MergeFile> {
        self.find_exact(combination).map(|i| &self.files[i])
    }

    /// Mutable access to the merge file for exactly `combination`.
    pub fn get_exact_mut(&mut self, combination: DatasetSet) -> Option<&mut MergeFile> {
        self.find_exact(combination)
            .map(move |i| &mut self.files[i])
    }

    /// Like [`MergeDirectory::route`] but without recording recency: used by
    /// the access-path planner, whose probe must not perturb the LRU order
    /// the real routing decision maintains.
    pub fn peek(&self, combination: DatasetSet) -> (Option<&MergeFile>, RouteKind) {
        // Exact.
        if let Some(i) = self.find_exact(combination) {
            return (Some(&self.files[i]), RouteKind::Exact);
        }
        // Smallest superset.
        let superset = self
            .files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.combination.is_superset_of(combination))
            .min_by_key(|(_, f)| f.combination.len())
            .map(|(i, _)| i);
        if let Some(i) = superset {
            return (Some(&self.files[i]), RouteKind::Superset);
        }
        // Largest overlap (subset or partial overlap).
        let best_overlap = self
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.combination.intersection(combination).len()))
            .filter(|(_, overlap)| *overlap > 0)
            .max_by_key(|(_, overlap)| *overlap)
            .map(|(i, _)| i);
        if let Some(i) = best_overlap {
            return (Some(&self.files[i]), RouteKind::Subset);
        }
        (None, RouteKind::None)
    }

    /// Chooses the best merge file for a queried combination, following the
    /// paper's routing rules: exact match first, then the smallest superset,
    /// then the file sharing the most datasets with the query. Marks the
    /// chosen file as recently used.
    pub fn route(&self, combination: DatasetSet) -> (Option<&MergeFile>, RouteKind) {
        let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let (file, kind) = self.peek(combination);
        if let Some(file) = file {
            file.touch(clock);
        }
        (file, kind)
    }

    /// Registers a new merge file.
    pub fn insert(&mut self, file: MergeFile) {
        let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        file.touch(clock);
        self.files.push(file);
    }

    /// Drops least-recently-used merge files until the total replicated space
    /// fits the budget — down to an *empty* directory when even a single
    /// file exceeds the budget on its own (the earlier two-phase loop kept
    /// `files.len() > 1` as its guard, which silently let one oversized file
    /// violate the budget forever once the guard and the final-file check
    /// drifted apart). The budget is measured against the **actual backing
    /// file sizes** on `storage`, not the entry-derived page counts, so
    /// append drift (a partially failed append, repair pages the entry
    /// bookkeeping missed) can never grow a file past what the budget sees.
    /// Returns the evicted files themselves, budget violators included, so
    /// callers can observe every drop *and* delete the backing files.
    pub fn enforce_budget(
        &mut self,
        storage: &StorageManager,
        budget_pages: Option<u64>,
    ) -> Vec<MergeFile> {
        let Some(budget) = budget_pages else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while self.total_file_pages(storage) > budget && !self.files.is_empty() {
            let lru = self
                .files
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.last_used())
                .map(|(i, _)| i)
                .expect("non-empty directory"); // analyzer: allow(caller checked the directory is non-empty)
            evicted.push(self.files.swap_remove(lru));
            self.evictions += 1;
        }
        evicted
    }
}

/// Outcome of a merge attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeSummary {
    /// Whether a new merge file was created by this call.
    pub created_file: bool,
    /// Number of partition entries appended.
    pub entries_appended: usize,
    /// Number of candidate partitions skipped because the datasets held them
    /// at different refinement levels (same-level-only policy).
    pub skipped_level_mismatch: usize,
    /// Number of staleness-repair runs appended to pre-existing entries
    /// before the merge proper (a merge always brings its file fully up to
    /// date first, so the per-dataset high-water marks can advance).
    pub repair_runs_appended: usize,
}

/// The Merger: decides when to merge and performs the copies.
///
/// The engine keeps the merger behind an `RwLock`: every query routes and
/// reads through the read lock (routing only touches atomics), and so does a
/// converged query's merge trigger; merge operations, repairs and evictions
/// take the write lock, which also makes the merge-threshold decision
/// execute-exactly-once — a thread that loses the race re-checks the
/// directory under the lock and finds nothing left to do.
#[derive(Debug, Default)]
pub struct Merger {
    directory: MergeDirectory,
    merges_performed: u64,
    staleness_repairs: u64,
}

impl Merger {
    /// Creates a merger with an empty directory.
    pub fn new() -> Self {
        Merger::default()
    }

    /// Reinstates a checkpointed merger.
    pub fn restore(
        directory: MergeDirectory,
        merges_performed: u64,
        staleness_repairs: u64,
    ) -> Self {
        Merger {
            directory,
            merges_performed,
            staleness_repairs,
        }
    }

    /// Enforces the space budget; every dropped file's backing paged file is
    /// **deleted** (an evicted merge file used to leak its file forever —
    /// the directory entry vanished but the pages stayed). One
    /// [`MetaRecord::MergeEvict`] is logged per drop *before* the unlink, so
    /// recovery redoes both the directory removal and the deletion from the
    /// single record at any crash point.
    fn enforce_budget_logged(
        &mut self,
        storage: &StorageManager,
        config: &OdysseyConfig,
    ) -> StorageResult<()> {
        for file in self
            .directory
            .enforce_budget(storage, config.merge_space_budget_pages)
        {
            durability::log(
                storage,
                MetaRecord::MergeEvict {
                    combination: file.combination,
                },
            )?;
            storage.delete_file(file.file_id())?;
        }
        Ok(())
    }

    /// The merge-file directory.
    pub fn directory(&self) -> &MergeDirectory {
        &self.directory
    }

    /// Mutable access to the directory (used by the query processor for
    /// routing, which updates recency).
    pub fn directory_mut(&mut self) -> &mut MergeDirectory {
        &mut self.directory
    }

    /// Number of merge operations performed (creations and extensions that
    /// appended at least one entry).
    pub fn merges_performed(&self) -> u64 {
        self.merges_performed
    }

    /// Number of staleness-repair operations performed: one per
    /// `(merge file, dataset)` pair whose missing ingest tail was appended.
    pub fn staleness_repairs(&self) -> u64 {
        self.staleness_repairs
    }

    /// Brings the merge file of exactly `combination` (if any) up to date for
    /// the given `datasets` of its combination: for every dataset whose
    /// ingest sequence has moved past the file's high-water mark, the missing
    /// tail objects are routed to the entries whose regions contain their
    /// centers and appended as repair runs — the same append-only path the
    /// merge itself uses. Returns the number of repair runs appended.
    ///
    /// Runs under the engine's merger write lock; the per-entry sequence
    /// checks make it idempotent, so a thread that lost the race to a
    /// concurrent repair finds nothing left to append.
    pub fn repair_combination(
        &mut self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        combination: DatasetSet,
        wanted: DatasetSet,
        datasets: &[DatasetIndex],
    ) -> StorageResult<usize> {
        let Some(file_idx) = self.directory.find_exact(combination) else {
            return Ok(0);
        };
        let k = config.splits_per_dimension();
        let mut runs_appended = 0usize;
        for dataset_id in combination.intersection(wanted).iter() {
            let Some(index) = datasets.iter().find(|d| d.dataset() == dataset_id) else {
                continue;
            };
            let file = &mut self.directory.files[file_idx];
            let synced = file.synced_seq(dataset_id);
            let (tail, live_seq) = index.ingest_tail(synced);
            if live_seq <= synced {
                continue;
            }
            // Route each tail object to every entry whose region contains its
            // center; entries at several levels may each cover the region
            // (each entry is an independent snapshot of its region, so each
            // gets the tail). Routing is one pass over the tail per entry
            // level, bucketing tail positions by the containing key; the
            // per-entry sequence then skips the prefix a deeper-synced entry
            // already holds. Entries are repaired in key order, so the runs
            // land in the file deterministically.
            let keys = file.keys();
            let mut levels: Vec<u32> = keys.iter().map(|key| key.level).collect();
            levels.sort_unstable();
            levels.dedup();
            let mut routed: HashMap<PartitionKey, Vec<usize>> = HashMap::new();
            for level in levels {
                for (pos, o) in tail.iter().enumerate() {
                    routed
                        .entry(PartitionKey::containing(
                            &config.bounds,
                            k,
                            level,
                            o.center(),
                        ))
                        .or_default()
                        .push(pos);
                }
            }
            let mut repaired_any = false;
            for key in keys {
                let entry_synced = file
                    .entry(&key)
                    .map(|e| e.synced_seq(dataset_id))
                    .unwrap_or(0);
                let from = entry_synced.saturating_sub(synced) as usize;
                let positions = routed.get(&key).map(Vec::as_slice).unwrap_or_default();
                let missing: Vec<SpatialObject> = positions
                    [positions.partition_point(|&pos| pos < from)..]
                    .iter()
                    .map(|&pos| tail[pos])
                    .collect();
                // The cost model charges the tail suffix each entry examines.
                storage.note_objects_scanned(tail.len().saturating_sub(from) as u64);
                let appended =
                    file.append_repair_run(storage, &key, dataset_id, &missing, live_seq)?;
                if appended {
                    runs_appended += 1;
                }
                // Log the repair — appended run or pure sequence advance —
                // so a recovered file's high-water marks match the live ones.
                let run = if appended {
                    file.entry(&key).and_then(|e| e.runs.last()).copied()
                } else {
                    None
                };
                let record = MetaRecord::MergeRepair {
                    combination,
                    key,
                    dataset: dataset_id,
                    run,
                    synced_seq: live_seq,
                    file_len: storage.num_pages(file.file_id())?,
                };
                storage.sync_file(file.file_id())?; // data before its record
                durability::log(storage, record)?;
                repaired_any = true;
            }
            if repaired_any {
                self.staleness_repairs += 1;
            }
        }
        if runs_appended > 0 {
            self.enforce_budget_logged(storage, config)?;
        }
        Ok(runs_appended)
    }

    /// Returns `true` if the combination qualifies for merging under the
    /// configuration and current statistics.
    pub fn should_merge(
        &self,
        config: &OdysseyConfig,
        stats: &StatsCollector,
        combination: DatasetSet,
    ) -> bool {
        config.merge_enabled
            && combination.len() >= config.min_merge_combination_size
            && stats.count(combination) > config.merge_threshold
    }

    /// Merges (or extends the merge file of) `combination`: every candidate
    /// partition that all datasets of the combination hold at the same
    /// refinement level is copied into the combination's merge file. Already
    /// merged partitions are left untouched (the file is append-only); stale
    /// pre-existing entries are repaired first, so a merge always leaves the
    /// file fully synced to every dataset's live ingest sequence.
    pub fn merge_combination(
        &mut self,
        storage: &StorageManager,
        config: &OdysseyConfig,
        combination: DatasetSet,
        candidates: &[PartitionKey],
        datasets: &[DatasetIndex],
    ) -> StorageResult<MergeSummary> {
        let mut summary = MergeSummary {
            repair_runs_appended: self.repair_combination(
                storage,
                config,
                combination,
                combination,
                datasets,
            )?,
            ..MergeSummary::default()
        };
        // Ensure the merge file exists.
        if self.directory.find_exact(combination).is_none() {
            let label = combination
                .iter()
                .map(|d| d.0.to_string())
                .collect::<Vec<_>>()
                .join("_");
            let file = MergeFile::create(storage, combination, &label)?;
            durability::log(
                storage,
                MetaRecord::MergeCreate {
                    combination,
                    file: file.file_id(),
                },
            )?;
            self.directory.insert(file);
            summary.created_file = true;
        }

        for key in candidates {
            let already = self
                .directory
                .get_exact_mut(combination)
                .map(|f| f.contains(key))
                .unwrap_or(false);
            if already {
                continue;
            }
            // Check the level policy for every dataset *before* reading any
            // data: a mismatch discovered halfway through would waste the
            // reads already performed, and mismatched candidates are
            // re-examined on every later query. A *hole* (no leaf because
            // refinement skipped the empty child) counts as holding the
            // region at that level with zero objects.
            if config.merge_level_policy == MergeLevelPolicy::SameLevelOnly {
                let aligned = combination.iter().all(|dataset_id| {
                    datasets
                        .iter()
                        .find(|d| d.dataset() == dataset_id)
                        .map(|d| d.region_coverage(config, key).is_same_level())
                        .unwrap_or(false)
                });
                if !aligned {
                    summary.skipped_level_mismatch += 1;
                    continue;
                }
            }
            // Gather the region's objects from every dataset in the
            // combination. `read_region` resolves the key at whatever
            // refinement level each dataset currently holds it, under one
            // per-dataset lock acquisition — so a refinement racing this
            // merge can never bake an incomplete entry into the append-only
            // merge file. (Under the same-level policy the alignment
            // pre-check above already filtered mismatched candidates; a
            // refinement slipping in between merely reads the region from
            // its finer leaves, with identical content.)
            let mut parts: Vec<MergeSource> = Vec::new();
            let mut mismatch = false;
            for dataset_id in combination.iter() {
                let Some(index) = datasets.iter().find(|d| d.dataset() == dataset_id) else {
                    mismatch = true;
                    break;
                };
                match index.read_region_versioned(storage, config, key)? {
                    Some((objects, synced_seq)) => parts.push(MergeSource {
                        dataset: dataset_id,
                        objects,
                        synced_seq,
                    }),
                    None => {
                        mismatch = true;
                        break;
                    }
                }
            }
            if mismatch {
                summary.skipped_level_mismatch += 1;
                continue;
            }
            let file = self
                .directory
                .get_exact_mut(combination)
                .expect("merge file created above"); // analyzer: allow(inserted earlier in this function)
            if file.append_entry(storage, *key, &parts)? {
                summary.entries_appended += 1;
                let record = MetaRecord::MergeAppend {
                    combination,
                    key: *key,
                    runs: file
                        .entry(key)
                        .map(|e| e.runs.clone())
                        .expect("entry appended above"), // analyzer: allow(appended earlier in this function)
                    file_len: storage.num_pages(file.file_id())?,
                };
                storage.sync_file(file.file_id())?; // data before its record
                durability::log(storage, record)?;
            }
        }

        if summary.entries_appended > 0 {
            self.merges_performed += 1;
        }
        self.enforce_budget_logged(storage, config)?;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_geom::{Aabb, DatasetId, Vec3};
    use odyssey_storage::StorageManager;

    fn combo(ids: &[u16]) -> DatasetSet {
        DatasetSet::from_ids(ids.iter().map(|&i| DatasetId(i)))
    }

    fn key(x: u32) -> PartitionKey {
        PartitionKey {
            level: 1,
            x,
            y: 0,
            z: 0,
        }
    }

    fn empty_merge_file(storage: &StorageManager, ids: &[u16]) -> MergeFile {
        MergeFile::create(storage, combo(ids), "t").unwrap()
    }

    #[test]
    fn routing_prefers_exact_then_superset_then_overlap() {
        let storage = StorageManager::in_memory();
        let mut dir = MergeDirectory::new();
        dir.insert(empty_merge_file(&storage, &[0, 1, 2]));
        dir.insert(empty_merge_file(&storage, &[0, 1, 2, 3, 4]));
        dir.insert(empty_merge_file(&storage, &[5, 6, 7]));

        let (f, kind) = dir.route(combo(&[0, 1, 2]));
        assert_eq!(kind, RouteKind::Exact);
        assert_eq!(f.unwrap().combination, combo(&[0, 1, 2]));

        let (f, kind) = dir.route(combo(&[0, 1]));
        assert_eq!(kind, RouteKind::Superset);
        // Smallest superset is {0,1,2}, not {0,1,2,3,4}.
        assert_eq!(f.unwrap().combination, combo(&[0, 1, 2]));

        let (f, kind) = dir.route(combo(&[5, 6, 7, 8, 9]));
        assert_eq!(kind, RouteKind::Subset);
        assert_eq!(f.unwrap().combination, combo(&[5, 6, 7]));

        let (f, kind) = dir.route(combo(&[8, 9]));
        assert_eq!(kind, RouteKind::None);
        assert!(f.is_none());
    }

    #[test]
    fn directory_basic_accounting() {
        let storage = StorageManager::in_memory();
        let mut dir = MergeDirectory::new();
        assert!(dir.is_empty());
        dir.insert(empty_merge_file(&storage, &[0, 1, 2]));
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.total_pages(), 0);
        assert_eq!(dir.iter().count(), 1);
    }

    #[test]
    fn budget_eviction_drops_least_recently_used() {
        let storage = StorageManager::in_memory();
        let mut dir = MergeDirectory::new();
        // Two merge files with one entry each (non-zero pages).
        let mk = |storage: &StorageManager, ids: &[u16]| {
            let mut f = MergeFile::create(storage, combo(ids), "x").unwrap();
            let objects: Vec<_> = (0..100u64)
                .map(|i| {
                    odyssey_geom::SpatialObject::new(
                        odyssey_geom::ObjectId(i),
                        DatasetId(ids[0]),
                        Aabb::from_min_max(Vec3::ZERO, Vec3::ONE),
                    )
                })
                .collect();
            f.append_entry(
                storage,
                key(0),
                &[MergeSource {
                    dataset: DatasetId(ids[0]),
                    objects,
                    synced_seq: 0,
                }],
            )
            .unwrap();
            f
        };
        dir.insert(mk(&storage, &[0, 1, 2]));
        dir.insert(mk(&storage, &[3, 4, 5]));
        // Touch the first file so the second becomes LRU.
        dir.route(combo(&[0, 1, 2]));
        let total = dir.total_pages();
        assert!(total > 0);
        assert_eq!(dir.total_file_pages(&storage), total);
        let evicted = dir.enforce_budget(&storage, Some(total / 2));
        assert_eq!(
            evicted.iter().map(|f| f.combination).collect::<Vec<_>>(),
            vec![combo(&[3, 4, 5])]
        );
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.evictions(), 1);
        // No budget: nothing happens.
        assert!(dir.enforce_budget(&storage, None).is_empty());
        // Budget of zero drops everything.
        let evicted = dir.enforce_budget(&storage, Some(0));
        assert_eq!(evicted.len(), 1);
        assert!(dir.is_empty());
    }

    #[test]
    fn budget_smaller_than_a_single_file_evicts_it() {
        // Regression: a lone merge file larger than the budget must not be
        // allowed to violate it silently — the directory evicts down to zero
        // files and reports the violator in the evicted list.
        let storage = StorageManager::in_memory();
        let mut dir = MergeDirectory::new();
        let mut f = MergeFile::create(&storage, combo(&[0, 1, 2]), "big").unwrap();
        let objects: Vec<_> = (0..500u64)
            .map(|i| {
                odyssey_geom::SpatialObject::new(
                    odyssey_geom::ObjectId(i),
                    DatasetId(0),
                    Aabb::from_min_max(Vec3::ZERO, Vec3::ONE),
                )
            })
            .collect();
        f.append_entry(
            &storage,
            key(0),
            &[MergeSource {
                dataset: DatasetId(0),
                objects,
                synced_seq: 0,
            }],
        )
        .unwrap();
        let pages = f.total_pages();
        assert!(pages > 1);
        dir.insert(f);
        let evicted = dir.enforce_budget(&storage, Some(1));
        assert_eq!(
            evicted.iter().map(|f| f.combination).collect::<Vec<_>>(),
            vec![combo(&[0, 1, 2])]
        );
        assert!(dir.is_empty());
        assert_eq!(dir.total_pages(), 0);
        assert_eq!(dir.evictions(), 1);
    }

    #[test]
    fn should_merge_honours_config_and_stats() {
        let config = OdysseyConfig::paper(Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0)));
        let merger = Merger::new();
        let mut stats = StatsCollector::new();
        let c3 = combo(&[0, 1, 2]);
        let c2 = combo(&[0, 1]);
        // Not enough queries yet.
        stats.record(c3, &[]);
        stats.record(c3, &[]);
        assert!(!merger.should_merge(&config, &stats, c3));
        // Third query exceeds mt = 2.
        stats.record(c3, &[]);
        assert!(merger.should_merge(&config, &stats, c3));
        // Small combinations never merge.
        for _ in 0..5 {
            stats.record(c2, &[]);
        }
        assert!(!merger.should_merge(&config, &stats, c2));
        // Disabled merging.
        let disabled = config.without_merging();
        assert!(!merger.should_merge(&disabled, &stats, c3));
    }
}
