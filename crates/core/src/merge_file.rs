//! Merge files: the adapted physical layout across datasets.
//!
//! A merge file stores *copies* of the partitions that a hot combination of
//! datasets retrieves together, laid out so one sequential read returns the
//! region's objects from every dataset (§3.2.2):
//!
//! * the file is append-only; a new partition entry is always added at the
//!   end,
//! * within an entry the objects are grouped by dataset and stored in
//!   consecutive page runs, so a query for a *subset* of the merged datasets
//!   can read the runs it needs and skip the rest,
//! * the original per-dataset partitions are kept, so queries on individual
//!   datasets stay efficient.
//!
//! # Online ingestion and staleness
//!
//! Merge entries are snapshots: once a dataset keeps ingesting, an entry
//! written earlier is missing the *tail* of objects that arrived since. Every
//! run therefore records the dataset's ingest sequence number it is synced to
//! ([`MergeRun::synced_seq`]); the per-dataset minimum across entries
//! ([`MergeFile::synced_seq`]) is the file's high-water mark for that
//! dataset. A file whose high-water mark lags the dataset's live sequence is
//! **stale** for that dataset and must not serve it until the Merger repairs
//! it — by appending the missing tail objects as extra runs
//! ([`MergeFile::append_repair_run`]), reusing the append-only layout — or
//! the router bypasses it to the per-dataset octree path.
//!
//! Freshness is checked on every routed read, so the high-water marks are
//! kept up to date rather than recomputed: per dataset of the combination the
//! file holds an ordered multiset of its entries' sync sequences (a count per
//! sequence), updated wherever an entry's sequence changes — append, repair,
//! restore. Its minimum *is* the high-water mark, so a freshness check costs
//! O(datasets), not O(entries).
//!
//! # Sweep version
//!
//! A file also remembers the summed layout version
//! ([`crate::DatasetIndex::layout_version`]) of its combination's datasets at
//! which the Merger last swept *every* retrieved key of the combination
//! ([`MergeFile::swept_at`]). While that sum has not moved, no leaf key set
//! changed, so a key that failed the same-level check then fails it again:
//! the merge trigger only has to look at keys it has never seen. The record
//! is derived state — never persisted; a reopened or re-created file starts
//! without one and gets a full sweep.

use crate::partition::PartitionKey;
use odyssey_geom::{DatasetId, DatasetSet, SpatialObject};
use odyssey_storage::{FileId, StorageManager, StorageResult, OBJECTS_PER_PAGE};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// One per-dataset page run inside a merge entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeRun {
    /// The dataset the run's objects belong to.
    pub dataset: DatasetId,
    /// First page of the run.
    pub page_start: u64,
    /// Number of pages.
    pub page_count: u64,
    /// Number of objects in the run.
    pub object_count: u64,
    /// The dataset's ingest sequence number this run (together with the
    /// entry's earlier runs for the same dataset) is synced to: every object
    /// of the region with a log position below this value is present in the
    /// entry.
    pub synced_seq: u64,
}

/// The data of one dataset for a merge entry: the region's objects plus the
/// ingest sequence number the read is consistent with (see
/// [`crate::DatasetIndex::read_region_versioned`]).
#[derive(Debug, Clone)]
pub struct MergeSource {
    /// The contributing dataset.
    pub dataset: DatasetId,
    /// The region's objects from that dataset.
    pub objects: Vec<SpatialObject>,
    /// Ingest sequence the objects are consistent with.
    pub synced_seq: u64,
}

/// One merged partition: the same spatial region copied from every dataset of
/// the combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeEntry {
    /// The partition (region + level) this entry stores.
    pub key: PartitionKey,
    /// Page runs, in the order they were written (one per dataset).
    pub runs: Vec<MergeRun>,
}

impl MergeEntry {
    /// Datasets present in the entry.
    pub fn datasets(&self) -> DatasetSet {
        DatasetSet::from_ids(self.runs.iter().map(|r| r.dataset))
    }

    /// Total pages occupied by the entry.
    pub fn pages(&self) -> u64 {
        self.runs.iter().map(|r| r.page_count).sum()
    }

    /// The ingest sequence this entry is synced to for `dataset` (0 when the
    /// entry holds no run of that dataset).
    pub fn synced_seq(&self, dataset: DatasetId) -> u64 {
        self.runs
            .iter()
            .filter(|r| r.dataset == dataset)
            .map(|r| r.synced_seq)
            .max()
            .unwrap_or(0)
    }
}

/// Per dataset of a combination, the multiset of the entries' sync
/// sequences: sequence → number of entries synced exactly there. The
/// minimum key is the file's high-water mark for the dataset.
#[derive(Debug, Default)]
struct HighWater(Vec<(DatasetId, BTreeMap<u64, usize>)>);

impl HighWater {
    fn new(combination: DatasetSet) -> Self {
        HighWater(combination.iter().map(|d| (d, BTreeMap::new())).collect())
    }

    fn add(&mut self, entry: &MergeEntry) {
        for (dataset, seqs) in &mut self.0 {
            *seqs.entry(entry.synced_seq(*dataset)).or_default() += 1;
        }
    }

    fn remove(&mut self, entry: &MergeEntry) {
        for (dataset, seqs) in &mut self.0 {
            let seq = entry.synced_seq(*dataset);
            if let Some(n) = seqs.get_mut(&seq) {
                *n -= 1;
                if *n == 0 {
                    seqs.remove(&seq);
                }
            }
        }
    }

    /// The smallest sequence recorded for `dataset`; `None` for a dataset
    /// outside the combination or a file without entries.
    fn min(&self, dataset: DatasetId) -> Option<u64> {
        self.0
            .iter()
            .find(|(d, _)| *d == dataset)
            .and_then(|(_, seqs)| seqs.keys().next().copied())
    }
}

/// A merge file for one combination of datasets.
#[derive(Debug)]
pub struct MergeFile {
    /// The combination this file was created for.
    pub combination: DatasetSet,
    file: FileId,
    entries: HashMap<PartitionKey, MergeEntry>,
    high_water: HighWater,
    total_pages: u64,
    /// Logical timestamp of the last query that used this file (LRU). Atomic
    /// so routing can refresh recency through a shared reference.
    pub last_used: AtomicU64,
    swept_at: Option<u64>,
}

impl MergeFile {
    /// Creates an empty merge file for `combination`.
    pub fn create(
        storage: &StorageManager,
        combination: DatasetSet,
        label: &str,
    ) -> StorageResult<Self> {
        let file = storage.create_file(&format!("merge_{label}"))?;
        Ok(MergeFile {
            combination,
            file,
            entries: HashMap::new(),
            high_water: HighWater::new(combination),
            total_pages: 0,
            last_used: AtomicU64::new(0),
            swept_at: None,
        })
    }

    /// Reinstates a checkpointed merge file: the entries are adopted as-is
    /// (their page runs already exist in the backing file) and the total
    /// page count and high-water marks are recomputed from them. The sweep
    /// record starts empty.
    pub fn restore(
        combination: DatasetSet,
        file: FileId,
        entries: impl IntoIterator<Item = MergeEntry>,
        last_used: u64,
    ) -> Self {
        let entries: HashMap<PartitionKey, MergeEntry> =
            entries.into_iter().map(|e| (e.key, e)).collect();
        let total_pages = entries.values().map(|e| e.pages()).sum();
        let mut high_water = HighWater::new(combination);
        for entry in entries.values() {
            high_water.add(entry);
        }
        MergeFile {
            combination,
            file,
            entries,
            high_water,
            total_pages,
            last_used: AtomicU64::new(last_used),
            swept_at: None,
        }
    }

    /// Id of the backing paged file.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// The merged entries sorted by key — the deterministic iteration order
    /// checkpoints serialize (the internal hash map's order is not stable).
    pub fn entries_sorted(&self) -> Vec<&MergeEntry> {
        let mut entries: Vec<&MergeEntry> = self.entries.values().collect();
        entries.sort_by_key(|e| e.key);
        entries
    }

    /// Logical timestamp of the last query routed to this file.
    pub fn last_used(&self) -> u64 {
        self.last_used.load(Ordering::Relaxed)
    }

    /// Refreshes the recency stamp.
    pub fn touch(&self, clock: u64) {
        self.last_used.store(clock, Ordering::Relaxed);
    }

    /// Whether the file already holds the partition `key`.
    pub fn contains(&self, key: &PartitionKey) -> bool {
        self.entries.contains_key(key)
    }

    /// The entry for `key`, if present.
    pub fn entry(&self, key: &PartitionKey) -> Option<&MergeEntry> {
        self.entries.get(key)
    }

    /// The keys of every merged partition, in key order.
    pub fn keys(&self) -> Vec<PartitionKey> {
        let mut keys: Vec<PartitionKey> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// The ingest sequence the file is synced to for `dataset`: the minimum
    /// over all entries, i.e. the file's per-dataset high-water mark, read
    /// off the maintained multiset. A file without entries is vacuously
    /// synced (`u64::MAX`); a dataset outside the combination has no runs
    /// (0).
    pub fn synced_seq(&self, dataset: DatasetId) -> u64 {
        if self.entries.is_empty() {
            return u64::MAX;
        }
        self.high_water.min(dataset).unwrap_or(0)
    }

    /// The O(entries) definition [`MergeFile::synced_seq`] maintains: the
    /// oracle the model tests compare against.
    #[cfg(test)]
    fn synced_seq_scan(&self, dataset: DatasetId) -> u64 {
        self.entries
            .values()
            .map(|e| e.synced_seq(dataset))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The summed layout version at which the Merger last swept every
    /// retrieved key of the combination into this file, if it has since the
    /// file was created or reopened.
    pub fn swept_at(&self) -> Option<u64> {
        self.swept_at
    }

    /// Records a completed full sweep at the summed layout version read
    /// before it started.
    pub(crate) fn record_sweep(&mut self, layout_version: u64) {
        self.swept_at = Some(layout_version);
    }

    /// Whether the file is stale for `dataset` given the dataset's live
    /// ingest sequence: some entry is missing tail objects ingested since it
    /// was written or last repaired.
    pub fn is_stale_for(&self, dataset: DatasetId, live_seq: u64) -> bool {
        self.synced_seq(dataset) < live_seq
    }

    /// Number of merged partitions.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Total pages occupied by the file's entries.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Appends a new entry at the end of the file: the objects of partition
    /// `key` from each dataset, one dataset after another so subsets can be
    /// skipped on read. Datasets are written in ascending id order.
    ///
    /// Appending an already-present key is a no-op (merge files never rewrite
    /// existing entries; tails arriving later go through
    /// [`MergeFile::append_repair_run`]).
    pub fn append_entry(
        &mut self,
        storage: &StorageManager,
        key: PartitionKey,
        parts: &[MergeSource],
    ) -> StorageResult<bool> {
        if self.entries.contains_key(&key) {
            return Ok(false);
        }
        let mut parts_sorted: Vec<&MergeSource> = parts.iter().collect();
        parts_sorted.sort_by_key(|s| s.dataset);
        let mut runs = Vec::with_capacity(parts_sorted.len());
        for source in parts_sorted {
            let range = storage.append_objects(self.file, &source.objects)?;
            runs.push(MergeRun {
                dataset: source.dataset,
                page_start: range.start,
                page_count: range.end - range.start,
                object_count: source.objects.len() as u64,
                synced_seq: source.synced_seq,
            });
        }
        let entry = MergeEntry { key, runs };
        self.total_pages += entry.pages();
        self.high_water.add(&entry);
        self.entries.insert(key, entry);
        Ok(true)
    }

    /// Repairs a stale entry for one dataset: appends the missing tail
    /// `objects` (those ingested into the entry's region since the entry's
    /// recorded sequence) as one more run at the end of the file — the same
    /// append-only path a merge extension takes — and advances the entry's
    /// sequence for that dataset to `synced_seq`.
    ///
    /// Returns `true` if a run with data was appended (`objects` may be empty
    /// when the ingested tail missed this region; the sequence still
    /// advances so the entry is no longer considered stale).
    pub fn append_repair_run(
        &mut self,
        storage: &StorageManager,
        key: &PartitionKey,
        dataset: DatasetId,
        objects: &[SpatialObject],
        synced_seq: u64,
    ) -> StorageResult<bool> {
        let Some(entry) = self.entries.get_mut(key) else {
            return Ok(false);
        };
        if objects.is_empty() {
            // Nothing landed in this region: advance the recorded sequence
            // without touching the file.
            self.high_water.remove(entry);
            if let Some(run) = entry
                .runs
                .iter_mut()
                .filter(|r| r.dataset == dataset)
                .max_by_key(|r| r.synced_seq)
            {
                run.synced_seq = run.synced_seq.max(synced_seq);
            }
            self.high_water.add(entry);
            return Ok(false);
        }
        let range = storage.append_objects(self.file, objects)?;
        let run = MergeRun {
            dataset,
            page_start: range.start,
            page_count: range.end - range.start,
            object_count: objects.len() as u64,
            synced_seq,
        };
        self.total_pages += run.page_count;
        self.high_water.remove(entry);
        entry.runs.push(run);
        self.high_water.add(entry);
        Ok(true)
    }

    /// Reads the objects of partition `key` for the requested datasets,
    /// skipping the runs of datasets that were not asked for. Returns an
    /// empty vector if the key is not merged.
    pub fn read(
        &self,
        storage: &StorageManager,
        key: &PartitionKey,
        wanted: DatasetSet,
    ) -> StorageResult<Vec<SpatialObject>> {
        let Some(entry) = self.entries.get(key) else {
            return Ok(Vec::new());
        };
        let wanted_runs = || {
            entry
                .runs
                .iter()
                .filter(|run| wanted.contains(run.dataset) && run.page_count > 0)
        };
        let pages: u64 = wanted_runs().map(|run| run.page_count).sum();
        let mut out = Vec::with_capacity(pages as usize * OBJECTS_PER_PAGE);
        for run in wanted_runs() {
            storage.read_objects_into(
                self.file,
                run.page_start..run.page_start + run.page_count,
                &mut out,
            )?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_geom::{Aabb, ObjectId, Vec3};

    fn key(x: u32) -> PartitionKey {
        PartitionKey {
            level: 2,
            x,
            y: 0,
            z: 0,
        }
    }

    fn objs(ds: u16, n: u64) -> MergeSource {
        MergeSource {
            dataset: DatasetId(ds),
            objects: (0..n)
                .map(|i| {
                    SpatialObject::new(
                        ObjectId(ds as u64 * 1000 + i),
                        DatasetId(ds),
                        Aabb::from_min_max(Vec3::splat(i as f64), Vec3::splat(i as f64 + 1.0)),
                    )
                })
                .collect(),
            synced_seq: 0,
        }
    }

    fn combo(ids: &[u16]) -> DatasetSet {
        DatasetSet::from_ids(ids.iter().map(|&i| DatasetId(i)))
    }

    #[test]
    fn append_and_read_all_datasets() {
        let storage = StorageManager::in_memory();
        let mut mf = MergeFile::create(&storage, combo(&[0, 1, 2]), "c012").unwrap();
        let parts = vec![objs(0, 100), objs(1, 50), objs(2, 70)];
        assert!(mf.append_entry(&storage, key(3), &parts).unwrap());
        assert_eq!(mf.entry_count(), 1);
        assert!(mf.contains(&key(3)));
        let all = mf.read(&storage, &key(3), combo(&[0, 1, 2])).unwrap();
        assert_eq!(all.len(), 220);
    }

    #[test]
    fn subset_reads_skip_unwanted_datasets() {
        let storage = StorageManager::in_memory();
        let mut mf = MergeFile::create(&storage, combo(&[0, 1, 2]), "c012").unwrap();
        mf.append_entry(&storage, key(1), &[objs(0, 80), objs(1, 90), objs(2, 100)])
            .unwrap();
        let only_0_and_2 = mf.read(&storage, &key(1), combo(&[0, 2])).unwrap();
        assert_eq!(only_0_and_2.len(), 180);
        assert!(only_0_and_2.iter().all(|o| o.dataset != DatasetId(1)));
    }

    #[test]
    fn skipping_reads_fewer_pages() {
        let storage = StorageManager::new(odyssey_storage::StorageOptions::in_memory(0));
        let mut mf = MergeFile::create(&storage, combo(&[0, 1, 2]), "c").unwrap();
        mf.append_entry(
            &storage,
            key(0),
            &[objs(0, 630), objs(1, 630), objs(2, 630)],
        )
        .unwrap();
        let before = storage.stats();
        mf.read(&storage, &key(0), combo(&[0, 1, 2])).unwrap();
        let all_pages = storage.stats().since(&before).0.pages_read();
        let before = storage.stats();
        mf.read(&storage, &key(0), combo(&[0])).unwrap();
        let subset_pages = storage.stats().since(&before).0.pages_read();
        assert_eq!(all_pages, 30);
        assert_eq!(subset_pages, 10);
    }

    #[test]
    fn duplicate_append_is_ignored() {
        let storage = StorageManager::in_memory();
        let mut mf = MergeFile::create(&storage, combo(&[0, 1, 2]), "c").unwrap();
        assert!(mf
            .append_entry(&storage, key(0), &[objs(0, 10), objs(1, 10), objs(2, 10)])
            .unwrap());
        let pages = mf.total_pages();
        assert!(!mf
            .append_entry(&storage, key(0), &[objs(0, 10), objs(1, 10), objs(2, 10)])
            .unwrap());
        assert_eq!(mf.total_pages(), pages);
        assert_eq!(mf.entry_count(), 1);
    }

    #[test]
    fn missing_key_reads_empty() {
        let storage = StorageManager::in_memory();
        let mf = MergeFile::create(&storage, combo(&[0, 1, 2]), "c").unwrap();
        assert!(mf.read(&storage, &key(9), combo(&[0])).unwrap().is_empty());
        assert!(mf.entry(&key(9)).is_none());
        assert_eq!(mf.total_pages(), 0);
    }

    #[test]
    fn repair_runs_extend_entries_and_advance_the_high_water_mark() {
        let storage = StorageManager::in_memory();
        let mut mf = MergeFile::create(&storage, combo(&[0, 1, 2]), "c").unwrap();
        mf.append_entry(&storage, key(0), &[objs(0, 30), objs(1, 30), objs(2, 30)])
            .unwrap();
        assert_eq!(mf.synced_seq(DatasetId(0)), 0);
        assert!(!mf.is_stale_for(DatasetId(0), 0));
        assert!(mf.is_stale_for(DatasetId(0), 5));
        // Repair with the 5-object tail: the entry grows, the mark advances.
        let tail = objs(0, 5).objects;
        let pages_before = mf.total_pages();
        assert!(mf
            .append_repair_run(&storage, &key(0), DatasetId(0), &tail, 5)
            .unwrap());
        assert!(mf.total_pages() > pages_before);
        assert_eq!(mf.synced_seq(DatasetId(0)), 5);
        assert!(!mf.is_stale_for(DatasetId(0), 5));
        // The repaired entry serves the tail alongside the original run.
        let all = mf.read(&storage, &key(0), combo(&[0])).unwrap();
        assert_eq!(all.len(), 35);
        // An empty tail advances the mark without writing.
        let pages = mf.total_pages();
        assert!(!mf
            .append_repair_run(&storage, &key(0), DatasetId(0), &[], 9)
            .unwrap());
        assert_eq!(mf.total_pages(), pages);
        assert_eq!(mf.synced_seq(DatasetId(0)), 9);
        // Unknown keys are ignored.
        assert!(!mf
            .append_repair_run(&storage, &key(7), DatasetId(0), &tail, 9)
            .unwrap());
        // A file without entries is never stale.
        let empty = MergeFile::create(&storage, combo(&[0, 1, 2]), "e").unwrap();
        assert!(!empty.is_stale_for(DatasetId(0), u64::MAX - 1));
    }

    #[test]
    fn high_water_marks_match_the_entry_scan_oracle() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let storage = StorageManager::in_memory();
        let ids = [1u16, 4, 6];
        let check = |mf: &MergeFile, step: usize| {
            for ds in [0u16, 1, 2, 4, 6, 9] {
                assert_eq!(
                    mf.synced_seq(DatasetId(ds)),
                    mf.synced_seq_scan(DatasetId(ds)),
                    "step {step}, dataset {ds}"
                );
                for live in [0, 3, 17, 40] {
                    assert_eq!(
                        mf.is_stale_for(DatasetId(ds), live),
                        mf.synced_seq_scan(DatasetId(ds)) < live
                    );
                }
            }
        };
        for seed in 0..8u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut mf = MergeFile::create(&storage, combo(&ids), "m").unwrap();
            check(&mf, 0);
            for step in 1..80 {
                let k = key(rng.gen_range(0..12u32));
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        // Parts may omit a dataset (its entry seq is then 0).
                        let mut parts: Vec<MergeSource> = Vec::new();
                        for &d in &ids {
                            if rng.gen_range(0..5u32) > 0 {
                                parts.push(MergeSource {
                                    synced_seq: rng.gen_range(0..30u64),
                                    ..objs(d, rng.gen_range(0..3u64))
                                });
                            }
                        }
                        mf.append_entry(&storage, k, &parts).unwrap();
                    }
                    4..=8 => {
                        let ds = DatasetId(ids[rng.gen_range(0..ids.len())]);
                        let tail = objs(ds.0, rng.gen_range(0..3u64)).objects;
                        let seq = rng.gen_range(0..40u64);
                        mf.append_repair_run(&storage, &k, ds, &tail, seq).unwrap();
                    }
                    _ => {
                        let entries: Vec<MergeEntry> =
                            mf.entries_sorted().into_iter().cloned().collect();
                        mf = MergeFile::restore(mf.combination, mf.file_id(), entries, 0);
                        assert_eq!(mf.swept_at(), None, "restore drops the sweep record");
                    }
                }
                check(&mf, step);
            }
        }
    }

    #[test]
    fn entry_metadata() {
        let storage = StorageManager::in_memory();
        let mut mf = MergeFile::create(&storage, combo(&[1, 3, 5]), "c").unwrap();
        mf.append_entry(&storage, key(2), &[objs(5, 63), objs(1, 1), objs(3, 64)])
            .unwrap();
        let entry = mf.entry(&key(2)).unwrap();
        // Runs are stored in ascending dataset order regardless of input order.
        let order: Vec<u16> = entry.runs.iter().map(|r| r.dataset.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert_eq!(entry.datasets(), combo(&[1, 3, 5]));
        assert_eq!(entry.pages(), 1 + 1 + 2);
        assert_eq!(mf.total_pages(), 4);
    }

    #[test]
    fn reads_within_an_entry_are_sequential() {
        let storage = StorageManager::new(odyssey_storage::StorageOptions::in_memory(0));
        let mut mf = MergeFile::create(&storage, combo(&[0, 1, 2]), "c").unwrap();
        mf.append_entry(
            &storage,
            key(0),
            &[objs(0, 315), objs(1, 315), objs(2, 315)],
        )
        .unwrap();
        let before = storage.stats();
        mf.read(&storage, &key(0), combo(&[0, 1, 2])).unwrap();
        let d = storage.stats().since(&before).0;
        // 15 pages total; only the first read of the file seeks.
        assert_eq!(d.pages_read(), 15);
        assert_eq!(d.random_reads, 1);
        assert_eq!(d.sequential_reads, 14);
    }
}
