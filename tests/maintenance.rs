//! Maintenance-scheduler integration tests.
//!
//! * **Crash-resumable compaction** — a scheduled, phased compaction is
//!   crashed at every WAL write budget; each crash image reopens, resumes
//!   the parked copy-forward from its last checkpointed phase (no page is
//!   re-copied) and answers the query mix oracle-exactly.
//! * **Determinism under the scheduler** — shuffled mixed ingest+query
//!   batches on 8 threads, with background maintenance drains racing the
//!   queries and per-dataset intra-query fan-out enabled, return exactly
//!   the answers a sequential foreground engine returns.
//! * **Trigger coverage** — dropping an unexhausted streaming cursor still
//!   enqueues the compaction trigger it observed; concurrent drains and
//!   queries never repair the same merge file twice.
//! * **Foreground tail** — the same churn on two durable stores, scheduler
//!   on vs inline drains: the scheduler answers identically, its
//!   per-operation p99 (simulated seconds, so deterministic on any host)
//!   is no worse than inline, and it does not inflate write amplification.

use space_odyssey::core::{OdysseyConfig, SpaceOdyssey};
use space_odyssey::datagen::{
    BrainModel, CombinationDistribution, DatasetSpec, QueryRangeDistribution, WorkloadSpec,
};
use space_odyssey::geom::{
    scan_knn_query, scan_query, Aabb, CountQuery, DatasetId, DatasetSet, KnnQuery, ObjectId,
    PointQuery, Query, QueryId, RangeQuery, SpatialObject, Vec3,
};
use space_odyssey::storage::{write_raw_dataset, StorageManager, StorageOptions};
use std::collections::HashMap;
use std::path::Path;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bounds() -> Aabb {
    Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0))
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

/// Churn batch aimed at one hot cell: every batch rewrites the same
/// partitions' overflow runs, orphaning the previous runs and driving the
/// dead-page ratio toward the compaction trigger.
fn churn(ds: u16, batch: u64, n: u64) -> Vec<SpatialObject> {
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

fn hot_query(id: u32, datasets: usize) -> RangeQuery {
    RangeQuery::new(
        QueryId(id),
        Aabb::from_center_extent(Vec3::splat(48.0), Vec3::splat(5.0)),
        DatasetSet::first_n(datasets),
    )
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

/// The verification mix for one dataset: every query kind.
fn verification_mix(datasets: usize) -> Vec<Query> {
    let combo = DatasetSet::first_n(datasets);
    vec![
        Query::Range(hot_query(9_000, datasets)),
        Query::Range(RangeQuery::new(
            QueryId(9_001),
            Aabb::from_center_extent(Vec3::splat(50.0), Vec3::splat(40.0)),
            combo,
        )),
        Query::Count(CountQuery::new(
            QueryId(9_002),
            Aabb::from_center_extent(Vec3::splat(45.0), Vec3::splat(20.0)),
            combo,
        )),
        Query::KNearestNeighbors(KnnQuery::new(QueryId(9_003), Vec3::splat(48.0), 12, combo)),
        Query::Point(PointQuery::new(QueryId(9_004), Vec3::splat(48.0), combo)),
    ]
}

const SEED_OBJECTS: u64 = 600;
const CHURN_BATCHES: u64 = 8;
const CHURN_OBJECTS: u64 = 60;

/// Config for the crash sweep: tiny copy budget so a scheduled compaction
/// spans many checkpointed phases (many `CompactionProgress` records), and
/// a low dead ratio so the churn trips the trigger quickly.
fn compaction_config() -> OdysseyConfig {
    let mut c = OdysseyConfig::paper(bounds());
    c.partitions_per_level = 8;
    c.with_ingest_split_objects(0)
        .with_compaction_dead_ratio(0.3)
        .with_maintenance_pages_per_step(2)
}

/// Runs the churn workload. Returns `(sent, crashed)`: the batches handed
/// to `ingest` (a faulted batch counts as sent — it may be partially
/// durable) and whether a WAL fault surfaced.
fn run_churn(engine: &SpaceOdyssey, storage: &StorageManager) -> (Vec<SpatialObject>, bool) {
    let mut sent = Vec::new();
    if engine.execute(storage, &hot_query(0, 1)).is_err() {
        return (sent, true);
    }
    for batch in 0..CHURN_BATCHES {
        let objs = churn(0, batch, CHURN_OBJECTS);
        let failed = engine.ingest(storage, DatasetId(0), &objs).is_err();
        sent.extend(objs);
        if failed {
            return (sent, true);
        }
    }
    (sent, false)
}

/// Reopens a crash image and checks the resumable-compaction contract:
/// the store opens, any parked compaction resumes from its checkpointed
/// phase without re-copying pages, and every answer matches the oracle
/// over exactly the recovered object prefix. Returns whether this image
/// resumed a mid-flight compaction.
fn verify_crash_image(dir: &Path, seeds: &[SpatialObject], sent: &[SpatialObject]) -> bool {
    let (storage, recovered) = StorageManager::open(StorageOptions::durable(dir, 256)).unwrap();
    let engine = SpaceOdyssey::open(&storage, recovered).unwrap();
    let resumed = engine.maintenance().jobs_resumed() > 0;
    if resumed {
        // Foreground open drains the resumed job before its re-checkpoint;
        // nothing may still be queued afterwards.
        assert_eq!(engine.maintenance_queue_depth(), 0, "resume must drain");
        // No redone copy-forward: a re-copied entry would orphan the pages
        // of its first copy inside the *new* file, so a clean resume leaves
        // the compacted file with zero dead pages.
        let file = engine
            .dataset(DatasetId(0))
            .unwrap()
            .partition_file()
            .expect("initialized dataset has a partition file");
        assert_eq!(
            storage.space_stats(file).unwrap().dead_pages,
            0,
            "resumed compaction re-copied pages it had already copied"
        );
    }
    // Consistent prefix: the recovered ingest log is a prefix of what was
    // sent, and answers are oracle-exact over exactly that prefix.
    let (log, seq) = engine.dataset(DatasetId(0)).unwrap().ingest_tail(0);
    assert_eq!(seq as usize, log.len());
    assert!(log.len() <= sent.len(), "recovered more than was ingested");
    assert_eq!(log, sent[..log.len()], "recovered log is not a sent prefix");
    let mut visible = seeds.to_vec();
    visible.extend(log);
    for q in &verification_mix(1) {
        assert_eq!(
            canonical(&engine, &storage, q),
            oracle(&visible, q),
            "query {:?} diverged on a crash image",
            q.id()
        );
    }
    resumed
}

#[test]
fn crash_at_every_wal_budget_resumes_the_scheduled_compaction() {
    let seeds = clustered_objects(SEED_OBJECTS, 0, 1);

    // Reference run, no faults: the churn must actually schedule a phased
    // compaction (several yielded steps before the commit).
    {
        let dir = tempfile::tempdir().unwrap();
        let storage = StorageManager::create(StorageOptions::durable(dir.path(), 256)).unwrap();
        let raw = write_raw_dataset(&storage, DatasetId(0), &seeds).unwrap();
        let engine = SpaceOdyssey::create(compaction_config(), vec![raw], &storage).unwrap();
        let (_, crashed) = run_churn(&engine, &storage);
        assert!(!crashed, "unfaulted run must complete");
        assert!(
            engine.compactions_performed() >= 1,
            "churn must commit at least one scheduled compaction"
        );
        assert!(
            engine.maintenance().pages_written() > engine.config().maintenance_pages_per_step,
            "compaction must span more than one phase (got {} pages in steps of {})",
            engine.maintenance().pages_written(),
            engine.config().maintenance_pages_per_step
        );
        assert_eq!(
            engine.maintenance().jobs_completed(),
            engine.maintenance().jobs_enqueued(),
            "foreground mode drains every trigger at its site"
        );
    }

    // Crash sweep: let the WAL die after every write budget until one
    // budget survives the whole workload. Every crash image must reopen to
    // a consistent prefix; at least one must land mid-compaction and
    // resume from checkpointed progress.
    let mut resumed_images = 0u32;
    let mut crash_images = 0u32;
    let mut completed = false;
    for budget in 1..=400u64 {
        let dir = tempfile::tempdir().unwrap();
        let sent = {
            let storage = StorageManager::create(
                StorageOptions::durable(dir.path(), 256).with_wal_write_limit(budget),
            )
            .unwrap();
            let raw = write_raw_dataset(&storage, DatasetId(0), &seeds).unwrap();
            // The creation checkpoint itself may hit the fault for tiny
            // budgets; no manifest means no store to recover, skip those.
            let Ok(engine) = SpaceOdyssey::create(compaction_config(), vec![raw], &storage) else {
                continue;
            };
            let (sent, crashed) = run_churn(&engine, &storage);
            if !crashed {
                completed = true;
            }
            sent
        };
        if completed {
            break;
        }
        crash_images += 1;
        if verify_crash_image(dir.path(), &seeds, &sent) {
            resumed_images += 1;
        }
    }
    assert!(completed, "the sweep must reach a budget that survives");
    assert!(crash_images > 20, "sweep produced too few crash images");
    assert!(
        resumed_images > 0,
        "at least one budget must crash mid-compaction and resume \
         ({crash_images} crash images, none with parked progress)"
    );
}

#[test]
fn resumed_answers_match_a_never_crashed_engine() {
    // One deliberate mid-compaction crash, compared against an engine that
    // ran the identical durable workload prefix without ever crashing.
    let seeds = clustered_objects(SEED_OBJECTS, 0, 1);
    let mut compared = false;
    for budget in 1..=400u64 {
        let dir = tempfile::tempdir().unwrap();
        let sent = {
            let storage = StorageManager::create(
                StorageOptions::durable(dir.path(), 256).with_wal_write_limit(budget),
            )
            .unwrap();
            let raw = write_raw_dataset(&storage, DatasetId(0), &seeds).unwrap();
            let Ok(engine) = SpaceOdyssey::create(compaction_config(), vec![raw], &storage) else {
                continue;
            };
            let (sent, crashed) = run_churn(&engine, &storage);
            if !crashed {
                break;
            }
            sent
        };
        let (storage, recovered) =
            StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
        let engine = SpaceOdyssey::open(&storage, recovered).unwrap();
        if engine.maintenance().jobs_resumed() == 0 {
            continue;
        }
        // This image crashed mid-compaction. Ingest batches are atomic in
        // the WAL and the copy loop runs after the batch that tripped the
        // trigger, so the recovered log is a whole number of churn batches.
        let (log, _) = engine.dataset(DatasetId(0)).unwrap().ingest_tail(0);
        assert_eq!(log, sent[..log.len()]);
        assert_eq!(
            log.len() as u64 % CHURN_OBJECTS,
            0,
            "a crash inside the copy loop keeps whole ingest batches"
        );

        // Never-crashed reference over exactly the recovered prefix.
        let ref_dir = tempfile::tempdir().unwrap();
        let ref_storage =
            StorageManager::create(StorageOptions::durable(ref_dir.path(), 256)).unwrap();
        let ref_raw = write_raw_dataset(&ref_storage, DatasetId(0), &seeds).unwrap();
        let ref_engine =
            SpaceOdyssey::create(compaction_config(), vec![ref_raw], &ref_storage).unwrap();
        ref_engine.execute(&ref_storage, &hot_query(0, 1)).unwrap();
        for batch in 0..log.len() as u64 / CHURN_OBJECTS {
            ref_engine
                .ingest(&ref_storage, DatasetId(0), &churn(0, batch, CHURN_OBJECTS))
                .unwrap();
        }
        for q in &verification_mix(1) {
            assert_eq!(
                canonical(&engine, &storage, q),
                canonical(&ref_engine, &ref_storage, q),
                "query {:?} diverged between resumed and never-crashed engines",
                q.id()
            );
        }
        compared = true;
        break;
    }
    assert!(compared, "no budget produced a resumable crash image");
}

#[test]
fn shuffled_mixed_batches_stay_deterministic_with_the_scheduler_on() {
    const DATASETS: usize = 3;
    let seeds: Vec<Vec<SpatialObject>> = (0..DATASETS)
        .map(|ds| clustered_objects(900, ds as u16, ds as u64 + 1))
        .collect();
    let base = {
        let mut c = OdysseyConfig::paper(bounds());
        c.partitions_per_level = 8;
        c
    };

    // Three op phases: hot queries that merge, ingests that stale the merge
    // file, then the mixed verification round.
    let phase1: Vec<Query> = (0..10)
        .map(|i| Query::Range(hot_query(i, DATASETS)))
        .collect();
    let ingests: Vec<(DatasetId, Vec<SpatialObject>)> = (0..DATASETS as u64)
        .map(|ds| (DatasetId(ds as u16), churn(ds as u16, ds, 50)))
        .collect();
    let phase2: Vec<Query> = (20..30)
        .map(|i| Query::Range(hot_query(i, DATASETS)))
        .collect();
    let phase3 = verification_mix(DATASETS);

    // Reference: sequential foreground engine, same phase order the batch
    // API guarantees (all ingests of a batch before its queries).
    let mut expected: HashMap<u32, (u64, Vec<(u16, u64)>)> = HashMap::new();
    {
        let storage = StorageManager::new(StorageOptions::in_memory(2048));
        let raws = seeds
            .iter()
            .enumerate()
            .map(|(ds, objs)| write_raw_dataset(&storage, DatasetId(ds as u16), objs).unwrap())
            .collect();
        let engine = SpaceOdyssey::new(base, raws).unwrap();
        for q in &phase1 {
            expected.insert(q.id().0, canonical(&engine, &storage, q));
        }
        for (ds, objs) in &ingests {
            engine.ingest(&storage, *ds, objs).unwrap();
        }
        for q in phase2.iter().chain(&phase3) {
            expected.insert(q.id().0, canonical(&engine, &storage, q));
        }
    }

    // Scheduler on: background maintenance, 3-job pool, per-dataset
    // intra-query fan-out, shuffled 8-thread batches, with a drain thread
    // racing the queries.
    let storage = StorageManager::new(StorageOptions::in_memory(2048));
    let raws = seeds
        .iter()
        .enumerate()
        .map(|(ds, objs)| write_raw_dataset(&storage, DatasetId(ds as u16), objs).unwrap())
        .collect();
    let cfg = base
        .with_background_maintenance()
        .with_maintenance_max_jobs(3)
        .with_intra_query_parallelism(4);
    let engine = SpaceOdyssey::new(cfg, raws).unwrap();

    let mut rng = ChaCha8Rng::seed_from_u64(0xbadc0de);
    let mut shuffle = |mut ops: Vec<space_odyssey::core::EngineOp>| {
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.gen_range(0..=i));
        }
        ops
    };
    use space_odyssey::core::EngineOp;
    let batch1 = shuffle(phase1.iter().cloned().map(EngineOp::Query).collect());
    let mut batch2: Vec<EngineOp> = ingests
        .iter()
        .cloned()
        .map(|(dataset, objects)| EngineOp::Ingest { dataset, objects })
        .collect();
    batch2.extend(phase2.iter().cloned().map(EngineOp::Query));
    let batch2 = shuffle(batch2);
    let batch3 = shuffle(phase3.iter().cloned().map(EngineOp::Query).collect());

    let done = std::sync::atomic::AtomicBool::new(false);
    let outcomes = std::thread::scope(|s| {
        let (engine_ref, storage_ref, done_ref) = (&engine, &storage, &done);
        // The drain thread races the queries: repairs the queries enqueue
        // run concurrently with queries deciding to wait or bypass.
        s.spawn(move || {
            while !done_ref.load(std::sync::atomic::Ordering::Relaxed) {
                engine_ref.run_maintenance(storage_ref).unwrap();
                std::thread::yield_now();
            }
        });
        let mut all = Vec::new();
        for batch in [&batch1, &batch2, &batch3] {
            all.extend(
                engine
                    .execute_ops_batch_with_threads(&storage, batch, 8)
                    .unwrap(),
            );
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        all
    });
    engine.run_maintenance(&storage).unwrap();
    assert_eq!(engine.maintenance_queue_depth(), 0);

    let ops: Vec<&EngineOp> = batch1.iter().chain(&batch2).chain(&batch3).collect();
    let mut queries_checked = 0;
    for (op, outcome) in ops.iter().zip(&outcomes) {
        let EngineOp::Query(q) = op else { continue };
        let got = outcome.as_query().expect("query op yields a query outcome");
        let mut ids: Vec<(u16, u64)> = got.objects.iter().map(|o| (o.dataset.0, o.id.0)).collect();
        if !matches!(q, Query::KNearestNeighbors(_)) {
            ids.sort_unstable();
            ids.dedup();
        }
        assert_eq!(
            &(got.count, ids),
            expected.get(&q.id().0).expect("query id exists"),
            "query {:?} diverged under the background scheduler",
            q.id()
        );
        queries_checked += 1;
    }
    assert_eq!(queries_checked, phase1.len() + phase2.len() + phase3.len());
}

#[test]
fn dropping_an_unexhausted_cursor_still_enqueues_the_compaction_trigger() {
    let dir = tempfile::tempdir().unwrap();
    let storage = StorageManager::create(StorageOptions::durable(dir.path(), 256)).unwrap();
    let seeds = clustered_objects(SEED_OBJECTS, 0, 1);
    let raw = write_raw_dataset(&storage, DatasetId(0), &seeds).unwrap();
    let cfg = compaction_config()
        .with_background_maintenance()
        .with_stream_batch_objects(16);
    let engine = SpaceOdyssey::create(cfg, vec![raw], &storage).unwrap();

    // Initialize the dataset, then make its partition file compaction-worthy
    // *after* the last trigger site ran.
    engine.execute(&storage, &hot_query(0, 1)).unwrap();
    engine.run_maintenance(&storage).unwrap();
    let before = engine.maintenance().jobs_enqueued();
    let compactions_before = engine.compactions_performed();
    let file = engine
        .dataset(DatasetId(0))
        .unwrap()
        .partition_file()
        .unwrap();
    let pages = storage.space_stats(file).unwrap().pages;
    storage.note_dead_pages(file, pages); // dead ratio 0.5 > threshold 0.3

    // Open a streaming cursor, pull one bounded batch, abandon it. The
    // query spans the whole seeded volume, so it yields many 16-object
    // batches and the cursor is dropped far from exhausted.
    let broad = RangeQuery::new(
        QueryId(1),
        Aabb::from_center_extent(Vec3::splat(50.0), Vec3::splat(40.0)),
        DatasetSet::first_n(1),
    );
    {
        let mut cursor = engine.open_cursor(&storage, &Query::Range(broad)).unwrap();
        let batch = cursor.next_batch().unwrap();
        assert!(batch.is_some(), "hot query must yield at least one batch");
        // Dropped here, unexhausted: finalize() never runs.
    }
    assert_eq!(
        engine.maintenance().jobs_enqueued(),
        before + 1,
        "cursor drop must enqueue the compaction trigger it observed"
    );
    assert_eq!(engine.maintenance_queue_depth(), 1);
    assert_eq!(
        engine.compactions_performed(),
        compactions_before,
        "enqueue-only on drop"
    );

    // The explicit pump runs it.
    let report = engine.run_maintenance(&storage).unwrap();
    assert_eq!(report.compactions_committed, 1);
    assert_eq!(engine.compactions_performed(), compactions_before + 1);
    let new_file = engine
        .dataset(DatasetId(0))
        .unwrap()
        .partition_file()
        .unwrap();
    assert_ne!(new_file, file, "compaction swaps in a fresh file");
    assert_eq!(storage.space_stats(new_file).unwrap().dead_pages, 0);
    for q in &verification_mix(1) {
        assert_eq!(canonical(&engine, &storage, q), oracle(&seeds, q));
    }
}

#[test]
fn concurrent_drains_and_queries_never_double_repair() {
    // Background mode: queries enqueue StalenessRepair jobs; a racing drain
    // thread runs them. A query observing an in-flight repair must wait for
    // it (surfaced via QueryOutcome::maintenance_jobs_waited), never start a
    // second one — a double repair would append duplicate runs and inflate
    // counts past the oracle.
    const DATASETS: usize = 3;
    let storage = StorageManager::new(StorageOptions::in_memory(2048));
    let seeds: Vec<Vec<SpatialObject>> = (0..DATASETS)
        .map(|ds| clustered_objects(900, ds as u16, ds as u64 + 1))
        .collect();
    let raws = seeds
        .iter()
        .enumerate()
        .map(|(ds, objs)| write_raw_dataset(&storage, DatasetId(ds as u16), objs).unwrap())
        .collect();
    let cfg = {
        let mut c = OdysseyConfig::paper(bounds());
        c.partitions_per_level = 8;
        c.with_background_maintenance().with_maintenance_max_jobs(2)
    };
    let engine = SpaceOdyssey::new(cfg, raws).unwrap();

    // Merge the hot combination, then stale it.
    for i in 0..10 {
        engine.execute(&storage, &hot_query(i, DATASETS)).unwrap();
    }
    engine.run_maintenance(&storage).unwrap();
    assert!(!engine.merger().directory().is_empty(), "merge must exist");
    let mut all: Vec<SpatialObject> = seeds.into_iter().flatten().collect();
    for ds in 0..DATASETS as u16 {
        let objs = churn(ds, ds as u64, 40);
        engine.ingest(&storage, DatasetId(ds), &objs).unwrap();
        all.extend(objs);
    }

    // Race: repeated drains vs. hot queries over the stale combination.
    let done = std::sync::atomic::AtomicBool::new(false);
    let waited = std::thread::scope(|s| {
        let (engine_ref, storage_ref, done_ref) = (&engine, &storage, &done);
        s.spawn(move || {
            while !done_ref.load(std::sync::atomic::Ordering::Relaxed) {
                engine_ref.run_maintenance(storage_ref).unwrap();
                std::thread::yield_now();
            }
        });
        let queries: Vec<RangeQuery> = (100..140).map(|i| hot_query(i, DATASETS)).collect();
        let outcomes = engine
            .execute_batch_with_threads(&storage, &queries, 4)
            .unwrap();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let expect = oracle(&all, &Query::Range(queries[0]));
        for (q, o) in queries.iter().zip(&outcomes) {
            let mut ids: Vec<(u16, u64)> =
                o.objects.iter().map(|o| (o.dataset.0, o.id.0)).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                (o.count, ids),
                expect.clone(),
                "query {:?} diverged under racing repairs (double repair?)",
                q.id
            );
        }
        outcomes
            .iter()
            .map(|o| o.maintenance_jobs_waited)
            .sum::<u64>()
    });
    engine.run_maintenance(&storage).unwrap();
    // Waiting is timing-dependent; what is guaranteed is that waits are
    // bounded by completed jobs and the queue fully drains.
    assert!(waited <= engine.maintenance().jobs_completed());
    assert_eq!(engine.maintenance_queue_depth(), 0);
}

/// One store's run of the scheduler-vs-inline churn.
#[derive(Debug)]
struct ChurnRun {
    /// p99 over every foreground operation (queries and ingest batches),
    /// simulated seconds.
    op_p99_s: f64,
    /// p99 over the ingest batches alone.
    ingest_p99_s: f64,
    /// Simulated seconds spent in the explicit pumps (scheduler only).
    pump_seconds: f64,
    /// Pages written over the churn per page of net live growth.
    write_amplification: f64,
    jobs_completed: u64,
    stale_bypasses: u64,
    /// Canonical answers to the verification queries afterwards.
    answers: Vec<(u64, Vec<(u16, u64)>)>,
}

/// Nearest-rank 99th percentile.
fn p99(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() * 99).div_ceil(100) - 1]
}

/// Sixteen churn rounds on a durable brain-model store: each round ingests
/// 64 objects per dataset into a narrow hot band (staling merge files and
/// orphaning overflow pages), runs three adaptive queries and, with the
/// scheduler on, one maintenance pump. A 48-page merge budget keeps
/// evictions and staleness repairs coming.
fn scheduler_churn(background: bool) -> ChurnRun {
    const ROUNDS: usize = 16;
    const QUERIES_PER_ROUND: usize = 3;
    let spec = DatasetSpec {
        num_datasets: 3,
        objects_per_dataset: 900,
        soma_clusters: 4,
        segments_per_neuron: 30,
        seed: 11,
        ..Default::default()
    };
    let model = BrainModel::new(spec.clone());
    let bounds = model.bounds();
    let workload = |queries, volume, seed| {
        WorkloadSpec {
            num_datasets: spec.num_datasets,
            datasets_per_query: 3,
            num_queries: queries,
            query_volume_fraction: volume,
            range_distribution: QueryRangeDistribution::Clustered { num_clusters: 4 },
            combination_distribution: CombinationDistribution::Zipf,
            seed,
        }
        .generate(&bounds)
    };
    let churn_queries = workload(ROUNDS * QUERIES_PER_ROUND, 1e-4, 31);
    let hot_band = |ds: u16, round: u64| -> Vec<SpatialObject> {
        let e = bounds.extent();
        (0..64u64)
            .map(|i| {
                let t = ((round * 13 + i) % 89) as f64 / 89.0;
                let c = Vec3::new(
                    bounds.min.x + e.x * (0.40 + 0.12 * t),
                    bounds.min.y + e.y * (0.40 + 0.12 * ((t * 3.0) % 1.0)),
                    bounds.min.z + e.z * (0.40 + 0.12 * ((t * 7.0) % 1.0)),
                );
                SpatialObject::new(
                    ObjectId(700_000 + round * 100_000 + i),
                    DatasetId(ds),
                    Aabb::from_center_extent(c, Vec3::splat(e.x * 0.002)),
                )
            })
            .collect()
    };

    let seeds = model.generate_all();
    let mut all: Vec<SpatialObject> = seeds.iter().flatten().copied().collect();
    let dir = tempfile::tempdir().unwrap();
    let storage = StorageManager::create(StorageOptions::durable(dir.path(), 512)).unwrap();
    let raws = seeds
        .iter()
        .enumerate()
        .map(|(ds, objs)| write_raw_dataset(&storage, DatasetId(ds as u16), objs).unwrap())
        .collect();
    let mut cfg = OdysseyConfig::paper(bounds).with_maintenance_pages_per_step(32);
    cfg.merge_space_budget_pages = Some(48);
    if background {
        cfg = cfg.with_background_maintenance();
    }
    let engine = SpaceOdyssey::create(cfg, raws, &storage).unwrap();

    let churn_start = storage.stats();
    let live_before = engine.live_pages();
    let (mut query_costs, mut ingest_costs, mut pump_seconds) = (Vec::new(), Vec::new(), 0.0);
    for round in 0..ROUNDS {
        for ds in 0..spec.num_datasets {
            let objs = hot_band(ds as u16, (round * spec.num_datasets + ds) as u64);
            let before = storage.stats();
            engine
                .ingest(&storage, DatasetId(ds as u16), &objs)
                .unwrap();
            ingest_costs.push(storage.seconds_since(&before));
            all.extend(objs);
        }
        for q in &churn_queries.queries[round * QUERIES_PER_ROUND..][..QUERIES_PER_ROUND] {
            let before = storage.stats();
            engine.execute(&storage, q).unwrap();
            query_costs.push(storage.seconds_since(&before));
        }
        if background {
            let before = storage.stats();
            engine.run_maintenance(&storage).unwrap();
            pump_seconds += storage.seconds_since(&before);
        }
    }
    let pages_written = (storage.stats() - churn_start).pages_written();
    let live_delta = engine.live_pages().saturating_sub(live_before).max(1);
    // Verification: the hot band itself, plus queries large enough to
    // return data, each checked against the oracle.
    let e = bounds.extent();
    let mut verify = vec![Query::Range(RangeQuery::new(
        QueryId(9_000),
        Aabb::from_min_max(bounds.min + e * 0.40, bounds.min + e * 0.52),
        DatasetSet::first_n(spec.num_datasets),
    ))];
    verify.extend(workload(10, 1e-2, 67).queries.into_iter().map(Query::Range));
    let answers: Vec<_> = verify
        .iter()
        .map(|q| canonical(&engine, &storage, q))
        .collect();
    for (q, answer) in verify.iter().zip(&answers) {
        assert_eq!(answer, &oracle(&all, q), "query {:?} diverged", q.id());
    }
    let op_costs = query_costs.iter().chain(&ingest_costs).copied().collect();
    ChurnRun {
        op_p99_s: p99(op_costs),
        ingest_p99_s: p99(ingest_costs),
        pump_seconds,
        write_amplification: pages_written as f64 / live_delta as f64,
        jobs_completed: engine.maintenance().jobs_completed(),
        stale_bypasses: engine.stale_bypasses(),
        answers,
    }
}

#[test]
fn scheduler_moves_maintenance_off_the_foreground_tail() {
    let scheduler = scheduler_churn(true);
    let inline = scheduler_churn(false);
    assert_eq!(
        scheduler.answers, inline.answers,
        "deferred maintenance changed an answer"
    );
    assert!(
        scheduler.op_p99_s <= inline.op_p99_s,
        "scheduler-on foreground-op p99 must not exceed inline: {scheduler:?} vs {inline:?}"
    );
    assert!(
        scheduler.ingest_p99_s <= inline.ingest_p99_s,
        "deferred compaction must cut the ingest tail: {scheduler:?} vs {inline:?}"
    );
    assert!(
        scheduler.stale_bypasses > 0,
        "background queries must bypass stale entries: {scheduler:?}"
    );
    assert!(
        scheduler.jobs_completed > 0 && inline.jobs_completed > 0,
        "both modes must run maintenance jobs: {scheduler:?} vs {inline:?}"
    );
    assert!(
        scheduler.pump_seconds > 0.0,
        "the pump must have done real work: {scheduler:?}"
    );
    // Deferring maintenance moves work; it must not meaningfully add any.
    assert!(
        scheduler.write_amplification <= inline.write_amplification * 1.5,
        "scheduler must not inflate write amplification: {scheduler:?} vs {inline:?}"
    );
}
