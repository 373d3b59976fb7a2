//! Durability integration tests: checkpoint + reopen equivalence, WAL replay
//! after a drop without close, crash injection at arbitrary WAL prefixes
//! (both by truncating the log and through the fault-injecting paged-file
//! wrapper), and cold-open behaviour.
//!
//! The central property: an engine reopened from a durable store answers the
//! full query-kind mix identically to the engine that never shut down, and
//! its recovered state is a consistent prefix of the applied operations — no
//! torn partition table, no half-registered merge file, no half-applied
//! ingest batch is ever observable.

use space_odyssey::core::{EngineSnapshot, OdysseyConfig, SpaceOdyssey};
use space_odyssey::geom::{
    scan_knn_query, scan_query, Aabb, CountQuery, DatasetId, DatasetSet, KnnQuery, ObjectId,
    PointQuery, Query, QueryId, RangeQuery, SpatialObject, Vec3,
};
use space_odyssey::storage::fault::{self, FaultPlan, SiteClass};
use space_odyssey::storage::{
    write_raw_dataset, Manifest, StorageManager, StorageOptions, MANIFEST_FILE_NAME, PAGE_SIZE,
    WAL_FILE_NAME,
};
use std::path::Path;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const NUM_DATASETS: u16 = 3;
const PER_DATASET: u64 = 1500;

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

/// One ingest batch aimed at the hot region, so merge staleness and repair
/// actually engage.
fn arrivals(ds: u16, batch: u64, n: u64) -> Vec<SpatialObject> {
    (0..n)
        .map(|i| {
            SpatialObject::new(
                ObjectId(500_000 + batch * 10_000 + i),
                DatasetId(ds),
                Aabb::from_center_extent(
                    Vec3::splat(47.0 + ((batch + i) % 5) as f64),
                    Vec3::splat(0.3),
                ),
            )
        })
        .collect()
}

struct Store {
    storage: StorageManager,
    engine: SpaceOdyssey,
    seeds: Vec<Vec<SpatialObject>>,
}

fn build_store(dir: &Path, cfg: OdysseyConfig) -> Store {
    let storage = StorageManager::create(StorageOptions::durable(dir, 256)).unwrap();
    let mut raws = Vec::new();
    let mut seeds = Vec::new();
    for ds in 0..NUM_DATASETS {
        let objs = clustered_objects(PER_DATASET, ds, ds as u64 + 1);
        raws.push(write_raw_dataset(&storage, DatasetId(ds), &objs).unwrap());
        seeds.push(objs);
    }
    let engine = SpaceOdyssey::create(cfg, raws, &storage).unwrap();
    Store {
        storage,
        engine,
        seeds,
    }
}

fn hot_query(id: u32, offset: f64, side: f64) -> RangeQuery {
    RangeQuery::new(
        QueryId(id),
        Aabb::from_center_extent(Vec3::splat(48.0 + offset), Vec3::splat(side)),
        DatasetSet::first_n(NUM_DATASETS as usize),
    )
}

/// Runs the interleaved trace: hot queries that refine and merge, ingest
/// batches that stale the merge file, queries that repair it. Returns the
/// ingest batches applied per dataset, in order.
fn run_trace(store: &Store) -> Vec<Vec<SpatialObject>> {
    run_trace_checkpointing(store, usize::MAX)
}

/// [`run_trace`], checkpointing after every `every`-th operation.
fn run_trace_checkpointing(store: &Store, every: usize) -> Vec<Vec<SpatialObject>> {
    let mut ops = 0usize;
    let mut op_done = || {
        ops += 1;
        if ops.is_multiple_of(every) {
            store.engine.checkpoint(&store.storage).unwrap();
        }
    };
    let mut ingested: Vec<Vec<SpatialObject>> = (0..NUM_DATASETS).map(|_| Vec::new()).collect();
    for i in 0..8 {
        store
            .engine
            .execute(&store.storage, &hot_query(i, (i % 3) as f64, 4.0))
            .unwrap();
        op_done();
    }
    for batch in 0..3u64 {
        let ds = (batch % NUM_DATASETS as u64) as u16;
        let objs = arrivals(ds, batch, 40);
        store
            .engine
            .ingest(&store.storage, DatasetId(ds), &objs)
            .unwrap();
        ingested[ds as usize].extend(objs);
        op_done();
        store
            .engine
            .execute(&store.storage, &hot_query(100 + batch as u32, 1.0, 4.0))
            .unwrap();
        op_done();
    }
    assert!(
        store
            .engine
            .datasets()
            .iter()
            .any(|d| d.total_refinements() > 0),
        "trace must trigger at least one refinement"
    );
    assert!(
        !store.engine.merger().directory().is_empty(),
        "trace must trigger at least one merge"
    );
    ingested
}

/// The verification mix: every query kind, spread over the volume.
fn verification_mix() -> Vec<Query> {
    let mut queries = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(777);
    for i in 0..18u32 {
        let c = Vec3::new(
            rng.gen_range(10.0..90.0),
            rng.gen_range(10.0..90.0),
            rng.gen_range(10.0..90.0),
        );
        let combo = DatasetSet::first_n(NUM_DATASETS as usize);
        queries.push(match i % 4 {
            0 => Query::Range(RangeQuery::new(
                QueryId(1000 + i),
                Aabb::from_center_extent(c, Vec3::splat(rng.gen_range(3.0..10.0))),
                combo,
            )),
            1 => Query::Point(PointQuery::new(QueryId(1000 + i), c, combo)),
            2 => Query::Count(CountQuery::new(
                QueryId(1000 + i),
                Aabb::from_center_extent(c, Vec3::splat(rng.gen_range(5.0..20.0))),
                combo,
            )),
            _ => Query::KNearestNeighbors(KnnQuery::new(
                QueryId(1000 + i),
                c,
                rng.gen_range(1..20),
                combo,
            )),
        });
    }
    // The hot region too, so merge-file reads are part of the mix.
    queries.push(Query::Range(hot_query(2000, 0.5, 4.0)));
    queries
}

/// Canonical answer of one query: count plus sorted (dataset, id) pairs
/// (kNN keeps its deterministic order).
fn canonical(engine: &SpaceOdyssey, storage: &StorageManager, q: &Query) -> (u64, Vec<(u16, u64)>) {
    let outcome = engine.execute_query(storage, q).unwrap();
    let mut ids: Vec<(u16, u64)> = outcome
        .objects
        .iter()
        .map(|o| (o.dataset.0, o.id.0))
        .collect();
    if !matches!(q, Query::KNearestNeighbors(_)) {
        ids.sort_unstable();
        ids.dedup();
    }
    (outcome.count, ids)
}

/// Brute-force oracle for the same canonical form.
fn oracle(all: &[SpatialObject], q: &Query) -> (u64, Vec<(u16, u64)>) {
    match q {
        Query::Range(rq) => {
            let mut ids: Vec<(u16, u64)> = scan_query(rq, all.iter())
                .iter()
                .map(|o| (o.dataset.0, o.id.0))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            (ids.len() as u64, ids)
        }
        Query::Point(pq) => {
            let rq = pq.as_range();
            let mut ids: Vec<(u16, u64)> = scan_query(&rq, all.iter())
                .iter()
                .map(|o| (o.dataset.0, o.id.0))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            (ids.len() as u64, ids)
        }
        Query::Count(cq) => {
            let rq = cq.as_range();
            let mut ids: Vec<(u16, u64)> = scan_query(&rq, all.iter())
                .iter()
                .map(|o| (o.dataset.0, o.id.0))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            (ids.len() as u64, Vec::new())
        }
        Query::KNearestNeighbors(kq) => {
            let ids: Vec<(u16, u64)> = scan_knn_query(kq, all.iter())
                .iter()
                .map(|o| (o.dataset.0, o.id.0))
                .collect();
            (ids.len() as u64, ids)
        }
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Recency stamps (LRU clock, per-file last_used) and the op-level
/// observability counters (merges performed, staleness repairs) are
/// checkpointed but not WAL-logged; after a crash they recover as of the
/// last checkpoint. Normalize them for crash-path state comparisons — none
/// of them influences answers (recency only steers future eviction order).
fn normalized(mut s: EngineSnapshot) -> EngineSnapshot {
    s.merger.clock = 0;
    s.merger.merges_performed = 0;
    s.merger.staleness_repairs = 0;
    for f in &mut s.merger.files {
        f.last_used = 0;
    }
    // Scheduler job counters are the same kind of checkpoint-only
    // observability; pending compactions are deliberately NOT normalized —
    // replay must reconstruct parked copy progress exactly.
    s.maintenance.jobs_enqueued = 0;
    s.maintenance.jobs_completed = 0;
    s.maintenance.jobs_resumed = 0;
    s.maintenance.pages_written = 0;
    s
}

#[test]
fn checkpoint_reopen_yields_identical_state_and_answers() {
    let dir = tempfile::tempdir().unwrap();
    // Planner off: state comparison stays strict (no bypass counters that
    // only exist on the planner path), repairs engage deterministically.
    let store = build_store(dir.path(), config().without_planner());
    let ingested = run_trace(&store);
    store.engine.checkpoint(&store.storage).unwrap();
    let live_snapshot = store.engine.snapshot();

    // Reopen from a copy of the directory (the live engine keeps running on
    // the original, so the two must diverge in nothing but their paths).
    let copy = tempfile::tempdir().unwrap();
    copy_dir(dir.path(), copy.path());
    let (storage2, recovered) =
        StorageManager::open(StorageOptions::durable(copy.path(), 256)).unwrap();
    assert!(
        recovered.wal_records.is_empty(),
        "a checkpointed store has an empty WAL"
    );
    let engine2 = SpaceOdyssey::open(&storage2, recovered).unwrap();

    // Bit-exact state: partition tables (order included), merge directory,
    // ingest logs, statistics, counters.
    assert_eq!(engine2.snapshot(), live_snapshot);
    for ds in 0..NUM_DATASETS {
        let (log, seq) = engine2.dataset(DatasetId(ds)).unwrap().ingest_tail(0);
        assert_eq!(log, ingested[ds as usize], "recovered ingest log diverged");
        assert_eq!(seq, ingested[ds as usize].len() as u64);
    }

    // Answer equivalence over the full query-kind mix, against both the
    // never-closed engine and the brute-force oracle.
    let mut all: Vec<SpatialObject> = store.seeds.iter().flatten().copied().collect();
    for batch in &ingested {
        all.extend(batch.iter().copied());
    }
    for q in &verification_mix() {
        let live = canonical(&store.engine, &store.storage, q);
        let reopened = canonical(&engine2, &storage2, q);
        assert_eq!(reopened, live, "query {:?} diverged after reopen", q.id());
        assert_eq!(live, oracle(&all, q), "live engine diverged from oracle");
    }
    // The reopened engine keeps adapting and checkpointing.
    engine2.checkpoint(&storage2).unwrap();
    engine2.close(&storage2).unwrap();
}

#[test]
fn drop_without_close_replays_the_wal() {
    let dir = tempfile::tempdir().unwrap();
    let (live_snapshot, ingested, seeds) = {
        let store = build_store(dir.path(), config().without_planner());
        let ingested = run_trace(&store);
        // NO checkpoint, NO close: everything after the creation checkpoint
        // lives only in the WAL.
        (store.engine.snapshot(), ingested, store.seeds)
        // storage + engine dropped here = crash
    };

    let (storage2, recovered) =
        StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
    assert!(
        !recovered.wal_records.is_empty(),
        "the trace must have produced WAL records"
    );
    let engine2 = SpaceOdyssey::open(&storage2, recovered).unwrap();
    assert_eq!(
        normalized(engine2.snapshot()),
        normalized(live_snapshot),
        "WAL replay must reconstruct the exact pre-crash state"
    );

    let mut all: Vec<SpatialObject> = seeds.iter().flatten().copied().collect();
    for batch in &ingested {
        all.extend(batch.iter().copied());
    }
    for q in &verification_mix() {
        assert_eq!(
            canonical(&engine2, &storage2, q),
            oracle(&all, q),
            "query {:?} diverged after WAL recovery",
            q.id()
        );
    }
}

/// A crash exactly at the manifest rename leaves the OLD manifest in place
/// with the WAL intact: the atomic-commit point was never crossed, so
/// recovery replays the full record stream and must reconstruct the
/// pre-crash state (modulo checkpoint-only observability counters).
#[test]
fn crash_at_manifest_rename_recovers_pre_crash_state() {
    let dir = tempfile::tempdir().unwrap();
    let (live_snapshot, ingested, seeds) = {
        let store = build_store(dir.path(), config().without_planner());
        let ingested = run_trace(&store);
        store
            .storage
            .faults()
            .arm(FaultPlan::first(SiteClass::ManifestRename));
        let err = store.engine.checkpoint(&store.storage).unwrap_err();
        assert!(fault::is_injected(&err), "unexpected error: {err}");
        (store.engine.snapshot(), ingested, store.seeds)
        // dropped here = crash at the failed commit
    };

    let (storage2, recovered) =
        StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
    assert!(
        !recovered.wal_records.is_empty(),
        "the rename never happened, so the WAL must still hold the trace"
    );
    let engine2 = SpaceOdyssey::open(&storage2, recovered).unwrap();
    assert_eq!(
        normalized(engine2.snapshot()),
        normalized(live_snapshot),
        "WAL replay past a failed manifest commit must reconstruct the \
         pre-crash state"
    );
    let mut all: Vec<SpatialObject> = seeds.iter().flatten().copied().collect();
    for batch in &ingested {
        all.extend(batch.iter().copied());
    }
    for q in &verification_mix() {
        assert_eq!(
            canonical(&engine2, &storage2, q),
            oracle(&all, q),
            "query {:?} diverged after crash-at-rename recovery",
            q.id()
        );
    }
}

/// A crash at the directory fsync right AFTER the manifest rename is on the
/// far side of the commit point: the new manifest (epoch N+1) is in place
/// while the WAL still carries epoch N. Recovery must detect the epoch
/// mismatch, discard the already-folded records, and come up on the
/// checkpoint image — which IS the pre-crash state, since the checkpoint
/// payload was encoded before the failure.
#[test]
fn crash_at_directory_fsync_recovers_from_the_new_manifest() {
    let dir = tempfile::tempdir().unwrap();
    let (live_snapshot, ingested, seeds) = {
        let store = build_store(dir.path(), config().without_planner());
        let ingested = run_trace(&store);
        store
            .storage
            .faults()
            .arm(FaultPlan::first(SiteClass::DirSync));
        let err = store.engine.checkpoint(&store.storage).unwrap_err();
        assert!(fault::is_injected(&err), "unexpected error: {err}");
        (store.engine.snapshot(), ingested, store.seeds)
    };

    let (storage2, recovered) =
        StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
    assert!(
        recovered.wal_records.is_empty(),
        "the new manifest committed, so the stale-epoch WAL must be discarded"
    );
    let engine2 = SpaceOdyssey::open(&storage2, recovered).unwrap();
    assert_eq!(
        normalized(engine2.snapshot()),
        normalized(live_snapshot),
        "the committed checkpoint image must equal the pre-crash state"
    );
    let mut all: Vec<SpatialObject> = seeds.iter().flatten().copied().collect();
    for batch in &ingested {
        all.extend(batch.iter().copied());
    }
    for q in &verification_mix() {
        assert_eq!(
            canonical(&engine2, &storage2, q),
            oracle(&all, q),
            "query {:?} diverged after crash-at-dir-sync recovery",
            q.id()
        );
    }
    // The store must keep working: the next checkpoint starts a fresh epoch.
    engine2.checkpoint(&storage2).unwrap();
}

/// Checks the consistent-prefix property of one crash image: the engine
/// opens, every recovered ingest log is a prefix of what was sent, and all
/// answers match the oracle over exactly the recovered object set.
fn assert_consistent_prefix(dir: &Path, seeds: &[Vec<SpatialObject>], sent: &[Vec<SpatialObject>]) {
    let (storage, recovered) = StorageManager::open(StorageOptions::durable(dir, 256)).unwrap();
    let engine = SpaceOdyssey::open(&storage, recovered).unwrap();
    let mut visible: Vec<SpatialObject> = seeds.iter().flatten().copied().collect();
    for ds in 0..NUM_DATASETS {
        let (log, seq) = engine.dataset(DatasetId(ds)).unwrap().ingest_tail(0);
        assert_eq!(seq as usize, log.len());
        assert!(
            log.len() <= sent[ds as usize].len(),
            "recovered more than was ever ingested"
        );
        assert_eq!(
            log,
            sent[ds as usize][..log.len()],
            "recovered ingest log of DS{ds} is not a prefix of the sent batches"
        );
        visible.extend(log);
        // No torn partition table: if initialized, its object counts add up
        // to seed + recovered log.
        let index = engine.dataset(DatasetId(ds)).unwrap();
        if index.is_initialized() {
            let total: u64 = index.partitions().iter().map(|p| p.object_count).sum();
            assert_eq!(total, seeds[ds as usize].len() as u64 + seq);
        }
    }
    for q in &verification_mix() {
        assert_eq!(
            canonical(&engine, &storage, q),
            oracle(&visible, q),
            "query {:?} diverged on a crash image",
            q.id()
        );
    }
}

#[test]
fn crash_at_arbitrary_wal_prefixes_recovers_a_consistent_prefix() {
    let dir = tempfile::tempdir().unwrap();
    let (seeds, sent) = {
        let store = build_store(dir.path(), config());
        let sent = run_trace(&store);
        (store.seeds, sent)
    };
    let wal_bytes = std::fs::metadata(dir.path().join(WAL_FILE_NAME))
        .unwrap()
        .len();
    let wal_pages = wal_bytes / PAGE_SIZE as u64;
    assert!(wal_pages > 3, "trace should span several WAL pages");

    // Crash after every WAL page prefix (page 1 = header only).
    for keep in 1..=wal_pages {
        let copy = tempfile::tempdir().unwrap();
        copy_dir(dir.path(), copy.path());
        let wal = copy.path().join(WAL_FILE_NAME);
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(keep * PAGE_SIZE as u64).unwrap();
        drop(f);
        assert_consistent_prefix(copy.path(), &seeds, &sent);
    }

    // A torn page: zero the second half of the last WAL page.
    let copy = tempfile::tempdir().unwrap();
    copy_dir(dir.path(), copy.path());
    let wal = copy.path().join(WAL_FILE_NAME);
    let mut bytes = std::fs::read(&wal).unwrap();
    let torn_from = bytes.len() - PAGE_SIZE / 2;
    bytes[torn_from..].fill(0);
    std::fs::write(&wal, bytes).unwrap();
    assert_consistent_prefix(copy.path(), &seeds, &sent);
}

#[test]
fn fault_injected_wal_writes_crash_cleanly_and_recover() {
    // Let the WAL die mid-workload at several budgets: the op that hits the
    // fault surfaces an error; the directory is then a genuine crash image.
    for budget in [4u64, 9, 17, 26] {
        let dir = tempfile::tempdir().unwrap();
        let (seeds, sent) = {
            let storage = StorageManager::create(
                StorageOptions::durable(dir.path(), 256).with_wal_write_limit(budget),
            )
            .unwrap();
            let mut raws = Vec::new();
            let mut seeds = Vec::new();
            for ds in 0..NUM_DATASETS {
                let objs = clustered_objects(PER_DATASET, ds, ds as u64 + 1);
                raws.push(write_raw_dataset(&storage, DatasetId(ds), &objs).unwrap());
                seeds.push(objs);
            }
            // The creation checkpoint itself may hit the fault for tiny
            // budgets; skip those runs (no manifest = no store to recover).
            let Ok(engine) = SpaceOdyssey::create(config(), raws, &storage) else {
                continue;
            };
            let mut sent: Vec<Vec<SpatialObject>> = (0..NUM_DATASETS).map(|_| Vec::new()).collect();
            let mut crashed = false;
            'workload: for i in 0..8u32 {
                if engine
                    .execute(&storage, &hot_query(i, (i % 3) as f64, 4.0))
                    .is_err()
                {
                    crashed = true;
                    break 'workload;
                }
                if i % 2 == 1 {
                    let ds = (i % NUM_DATASETS as u32) as u16;
                    let objs = arrivals(ds, i as u64, 40);
                    match engine.ingest(&storage, DatasetId(ds), &objs) {
                        Ok(_) => sent[ds as usize].extend(objs),
                        Err(_) => {
                            // The batch may have been partially durable; the
                            // prefix check below treats it as sent.
                            sent[ds as usize].extend(objs);
                            crashed = true;
                            break 'workload;
                        }
                    }
                }
            }
            assert!(crashed, "budget {budget} should fault mid-workload");
            (seeds, sent)
        };
        assert_consistent_prefix(dir.path(), &seeds, &sent);
    }
}

#[test]
fn periodic_checkpoints_shrink_the_wal_at_a_crash() {
    // The same trace on two stores, one never checkpointed after creation
    // and one checkpointed every four operations; both crash (drop without
    // close) at the end.
    let crash = |every: usize| {
        let dir = tempfile::tempdir().unwrap();
        let (wal_pages, ingested, seeds) = {
            let store = build_store(dir.path(), config());
            let ingested = run_trace_checkpointing(&store, every);
            (store.storage.wal_pages(), ingested, store.seeds)
        };
        // The manifest's epoch counts the checkpoints written.
        let manifest = std::fs::read(dir.path().join(MANIFEST_FILE_NAME)).unwrap();
        let epoch = Manifest::decode(&manifest).unwrap().epoch;

        let (storage, recovered) =
            StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
        let engine = SpaceOdyssey::open(&storage, recovered).unwrap();
        let mut all: Vec<SpatialObject> = seeds.into_iter().flatten().collect();
        all.extend(ingested.into_iter().flatten());
        for q in &verification_mix() {
            assert_eq!(
                canonical(&engine, &storage, q),
                oracle(&all, q),
                "query {:?} diverged after recovery (checkpoint every {every})",
                q.id()
            );
        }
        (wal_pages, epoch)
    };
    let (never_wal, never_epoch) = crash(usize::MAX);
    let (periodic_wal, periodic_epoch) = crash(4);
    assert!(never_wal > 1, "the WAL must hold the trace");
    assert!(
        periodic_wal < never_wal,
        "checkpointing must shrink the WAL at the crash: {periodic_wal} vs {never_wal} pages"
    );
    assert!(
        periodic_epoch > never_epoch,
        "the periodic store must have written more checkpoints"
    );
}

#[test]
fn cold_open_skips_seed_loading() {
    let dir = tempfile::tempdir().unwrap();
    {
        let store = build_store(dir.path(), config());
        run_trace(&store);
        store.engine.close(&store.storage).unwrap();
    }
    let (storage2, recovered) =
        StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
    let engine2 = SpaceOdyssey::open(&storage2, recovered).unwrap();
    let open_reads = storage2.stats().pages_read();
    let seed_pages: u64 = (0..NUM_DATASETS)
        .map(|ds| engine2.dataset(DatasetId(ds)).unwrap().raw().num_pages())
        .sum();
    assert!(
        open_reads < seed_pages / 2,
        "cold open must not rescan the seeds ({open_reads} pages read, {seed_pages} seed pages)"
    );
    // The adaptive state is live immediately: initialized datasets, a merge
    // directory, preserved counters.
    assert!(engine2
        .datasets()
        .iter()
        .any(|d| d.is_initialized() && d.partitions().len() > 8));
    assert!(!engine2.merger().directory().is_empty());
    assert!(engine2.queries_executed() >= 11);
    // And it answers correctly without any warm-up.
    let store_objects: Vec<SpatialObject> = {
        let mut all = Vec::new();
        for ds in 0..NUM_DATASETS {
            all.extend(clustered_objects(PER_DATASET, ds, ds as u64 + 1));
            let (log, _) = engine2.dataset(DatasetId(ds)).unwrap().ingest_tail(0);
            all.extend(log);
        }
        all
    };
    for q in verification_mix().iter().take(6) {
        assert_eq!(canonical(&engine2, &storage2, q), oracle(&store_objects, q));
    }
}

#[test]
fn reopening_twice_is_stable() {
    let dir = tempfile::tempdir().unwrap();
    {
        let store = build_store(dir.path(), config().without_planner());
        run_trace(&store);
        // Crash without close.
    }
    let first = {
        let (storage, recovered) =
            StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
        let engine = SpaceOdyssey::open(&storage, recovered).unwrap();
        engine.snapshot()
        // Crash again right after recovery (open wrote a fresh checkpoint).
    };
    let (storage, recovered) =
        StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
    assert!(recovered.wal_records.is_empty());
    let engine = SpaceOdyssey::open(&storage, recovered).unwrap();
    assert_eq!(engine.snapshot(), first, "recovery must be idempotent");
}
