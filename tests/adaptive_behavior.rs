//! Integration tests for the adaptive behaviour the paper's Section 3
//! describes: convergence of incremental refinement, the hybrid 1fE/Ain1
//! character of the engine, the benefit of merge files for hot
//! combinations, and the merge trigger's contract — it stops working once
//! a combination has converged, without ever missing a merge a full sweep
//! would have made.

use space_odyssey::core::{OdysseyConfig, RouteKind, SpaceOdyssey};
use space_odyssey::datagen::{BrainModel, DatasetSpec};
use space_odyssey::geom::{
    scan_any_query, Aabb, CountQuery, DatasetId, DatasetSet, KnnQuery, ObjectId, PointQuery, Query,
    QueryId, RangeQuery, SpatialObject, Vec3,
};
use space_odyssey::storage::{write_raw_dataset, RawDataset, StorageManager, StorageOptions};
use std::sync::mpsc;
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn setup(num_datasets: usize, objects: usize) -> (StorageManager, Vec<RawDataset>, Aabb, Vec3) {
    let spec = DatasetSpec {
        num_datasets,
        objects_per_dataset: objects,
        soma_clusters: 5,
        segments_per_neuron: 40,
        seed: 4242,
        ..Default::default()
    };
    let model = BrainModel::new(spec);
    let storage = StorageManager::new(StorageOptions::in_memory(256));
    let raws = model
        .generate_all()
        .iter()
        .enumerate()
        .map(|(i, objs)| write_raw_dataset(&storage, DatasetId(i as u16), objs).unwrap())
        .collect();
    // A region that actually holds data: partitions only exist where objects
    // are (refinement skips empty children), so the adaptive behaviour under
    // test must be probed inside a soma cluster.
    let hot = model.cluster_centers()[0];
    (storage, raws, model.bounds(), hot)
}

fn cube_query(id: u32, center: Vec3, side: f64, datasets: &[u16]) -> RangeQuery {
    RangeQuery::new(
        QueryId(id),
        Aabb::from_center_extent(center, Vec3::splat(side)),
        DatasetSet::from_ids(datasets.iter().map(|&d| DatasetId(d))),
    )
}

#[test]
fn refinement_depth_matches_the_convergence_formula() {
    let (storage, raws, bounds, hot) = setup(1, 4_000);
    let config = OdysseyConfig::paper(bounds);
    let engine = SpaceOdyssey::new(config, raws).unwrap();

    // Query volume chosen so the paper's formula predicts exactly two extra
    // levels beyond the initial partitioning: log_ppl(Vp / (Vq * rt)).
    let level1_volume = bounds.volume() / config.partitions_per_level as f64;
    let query_volume = level1_volume / (config.refinement_threshold * 64.0 * 20.0);
    let side = query_volume.cbrt();
    let expected_levels = config.queries_to_converge(level1_volume, query_volume);
    assert_eq!(expected_levels, 2);

    for i in 0..6u32 {
        engine
            .execute(&storage, &cube_query(i, hot, side, &[0]))
            .unwrap();
    }
    let index = engine.dataset(DatasetId(0)).unwrap();
    // Judge convergence on the partitions the query actually touches: leaves
    // only exist where objects are, so the *intersecting* leaves (not a
    // single probe point, which may sit in a hole) carry the refinement
    // level.
    let query_box = Aabb::from_center_extent(hot, Vec3::splat(side));
    let deepest = index
        .partitions()
        .iter()
        .filter(|p| p.bounds.intersects(&query_box))
        .map(|p| p.key.level)
        .max()
        .unwrap();
    assert_eq!(
        deepest,
        1 + expected_levels,
        "hot region should converge exactly to the predicted level"
    );
    // Further identical queries do not refine any more.
    let refinements = index.total_refinements();
    for i in 10..13u32 {
        engine
            .execute(&storage, &cube_query(i, hot, side, &[0]))
            .unwrap();
    }
    assert_eq!(
        engine.dataset(DatasetId(0)).unwrap().total_refinements(),
        refinements
    );
}

#[test]
fn per_query_cost_decreases_once_the_hot_area_converges() {
    let (storage, raws, bounds, hot) = setup(3, 6_000);
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(bounds), raws).unwrap();
    let side = bounds.extent().x * 0.01;
    let mut costs = Vec::new();
    for i in 0..10u32 {
        storage.clear_cache();
        let before = storage.stats();
        engine
            .execute(&storage, &cube_query(i, hot, side, &[0, 1, 2]))
            .unwrap();
        costs.push(storage.seconds_since(&before));
    }
    let first = costs[0];
    let converged: f64 = costs[7..].iter().sum::<f64>() / 3.0;
    assert!(
        converged < first,
        "converged queries ({converged}s) must be cheaper than the first ({first}s)"
    );
}

#[test]
fn merge_routing_prefers_exact_over_superset_over_none() {
    let (storage, raws, bounds, hot) = setup(5, 3_000);
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(bounds), raws).unwrap();
    let side = bounds.extent().x * 0.012;

    // Make {0,1,2,3} hot enough to be merged.
    for i in 0..6u32 {
        engine
            .execute(&storage, &cube_query(i, hot, side, &[0, 1, 2, 3]))
            .unwrap();
    }
    assert_eq!(engine.merger().directory().len(), 1);

    // Exact: same combination again.
    let exact = engine
        .execute(&storage, &cube_query(20, hot, side, &[0, 1, 2, 3]))
        .unwrap();
    assert_eq!(exact.route, RouteKind::Exact);

    // Superset route: a query for a subset of the merged datasets.
    let superset = engine
        .execute(&storage, &cube_query(21, hot, side, &[0, 1, 2]))
        .unwrap();
    assert_eq!(superset.route, RouteKind::Superset);

    // Unrelated combination: no merge file applies.
    let none = engine
        .execute(&storage, &cube_query(22, hot, side, &[4]))
        .unwrap();
    assert_eq!(none.route, RouteKind::None);
}

#[test]
fn merged_combination_queries_read_fewer_random_pages() {
    let (storage, raws, bounds, hot) = setup(4, 8_000);
    let config = OdysseyConfig::paper(bounds);
    let engine = SpaceOdyssey::new(config, raws.clone()).unwrap();
    let side = bounds.extent().x * 0.012;
    let combo = [0u16, 1, 2, 3];

    // Warm up until merging has happened and refinement has converged.
    for i in 0..10u32 {
        engine
            .execute(&storage, &cube_query(i, hot, side, &combo))
            .unwrap();
    }
    assert!(!engine.merger().directory().is_empty());

    // Measure a steady-state query with merging...
    storage.clear_cache();
    let before = storage.stats();
    let outcome = engine
        .execute(&storage, &cube_query(50, hot, side, &combo))
        .unwrap();
    let merged_seeks = storage.stats().since(&before).0.random_reads;
    assert!(outcome.used_merge_file());

    // ... and the same steady state without merging (fresh engine, merging off).
    let (storage2, raws2, _, _) = setup(4, 8_000);
    let engine2 = SpaceOdyssey::new(config.without_merging(), raws2).unwrap();
    for i in 0..10u32 {
        engine2
            .execute(&storage2, &cube_query(i, hot, side, &combo))
            .unwrap();
    }
    storage2.clear_cache();
    let before2 = storage2.stats();
    let outcome2 = engine2
        .execute(&storage2, &cube_query(50, hot, side, &combo))
        .unwrap();
    let unmerged_seeks = storage2.stats().since(&before2).0.random_reads;
    assert!(!outcome2.used_merge_file());

    assert!(
        merged_seeks < unmerged_seeks,
        "reading the merged layout should seek less ({merged_seeks} vs {unmerged_seeks})"
    );
    assert_eq!(
        outcome.objects.len(),
        outcome2.objects.len(),
        "merging must not change the answer"
    );
}

#[test]
fn odyssey_is_a_hybrid_of_1fe_and_ain1() {
    // Individually-queried datasets keep their own files (1fE character);
    // hot combinations additionally get a shared merged layout (Ain1
    // character). Both must coexist in one engine.
    let (storage, raws, bounds, hot) = setup(6, 2_500);
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(bounds), raws).unwrap();
    let side = bounds.extent().x * 0.012;

    for i in 0..6u32 {
        engine
            .execute(&storage, &cube_query(i, hot, side, &[0, 1, 2]))
            .unwrap();
        engine
            .execute(&storage, &cube_query(100 + i, hot, side, &[4]))
            .unwrap();
    }
    // The hot 3-dataset combination was merged; the single dataset was not.
    assert!(engine
        .merger()
        .directory()
        .iter()
        .any(|f| f.combination.len() == 3));
    assert!(engine
        .merger()
        .directory()
        .iter()
        .all(|f| f.combination.len() >= 3));
    // Dataset 4 is still served (and refined) individually.
    assert!(engine.dataset(DatasetId(4)).unwrap().is_initialized());
    assert!(engine.dataset(DatasetId(4)).unwrap().total_refinements() > 0);
    // Dataset 5 was never queried, so it was never even scanned.
    assert!(!engine.dataset(DatasetId(5)).unwrap().is_initialized());
}

/// A seeded mix of range, count, point and kNN queries around the data
/// clusters. Sizes span an order of magnitude and the combinations overlap,
/// so datasets refine at different rates and many retrieved keys sit at
/// mismatched levels until a later refinement aligns them.
fn mixed_queries(model: &BrainModel, n: usize, seed: u64) -> Vec<Query> {
    const COMBOS: [&[u16]; 5] = [&[0, 1, 2], &[1, 2, 3], &[0, 2, 3], &[0, 1, 2, 3], &[1, 3]];
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let extent = model.bounds().extent();
    let centers = model.cluster_centers();
    (0..n as u32)
        .map(|i| {
            // Skewed towards the first combinations, as hot ones are.
            let combo = COMBOS[rng
                .gen_range(0..COMBOS.len())
                .min(rng.gen_range(0..COMBOS.len()))];
            let datasets = DatasetSet::from_ids(combo.iter().map(|&d| DatasetId(d)));
            let center = centers[rng.gen_range(0..centers.len().min(3))]
                + Vec3::new(
                    rng.gen_range(-0.03..0.03) * extent.x,
                    rng.gen_range(-0.03..0.03) * extent.y,
                    rng.gen_range(-0.03..0.03) * extent.z,
                );
            let range = Aabb::from_center_extent(center, extent * rng.gen_range(0.004..0.04));
            match i % 7 {
                3 => Query::Count(CountQuery::new(QueryId(i), range, datasets)),
                5 => Query::Point(PointQuery::new(QueryId(i), center, datasets)),
                6 => Query::KNearestNeighbors(KnnQuery::new(QueryId(i), center, 8, datasets)),
                _ => Query::Range(RangeQuery::new(QueryId(i), range, datasets)),
            }
        })
        .collect()
}

/// The merge trigger's soundness check: had this query's finalize run a
/// full sweep over every key its combination ever retrieved, it would
/// have appended nothing — each unmerged key still fails the same-level
/// check somewhere in the combination.
fn assert_full_sweep_appends_nothing(engine: &SpaceOdyssey, combination: DatasetSet, step: usize) {
    let config = engine.config();
    let merger = engine.merger();
    let stats = engine.stats();
    if !merger.should_merge(config, &stats, combination) {
        return;
    }
    let Some(retrieved) = stats.retrieved(combination) else {
        return;
    };
    let file = merger.directory().get_exact(combination);
    for key in retrieved {
        if file.is_some_and(|f| f.contains(key)) {
            continue;
        }
        let aligned = combination.iter().all(|id| {
            engine
                .dataset(id)
                .is_some_and(|d| d.region_coverage(config, key).is_same_level())
        });
        assert!(
            !aligned,
            "step {step}: a full sweep of {combination:?} would still merge {key:?}"
        );
    }
}

/// Arrivals for one dataset: half uniform over the volume (many land in
/// holes, creating leaves), half around one data cluster (overflow runs,
/// ingest splits, stale merge entries).
fn arrivals(
    rng: &mut ChaCha8Rng,
    bounds: Aabb,
    hot: Vec3,
    dataset: u16,
    first_id: u64,
) -> Vec<SpatialObject> {
    (0..48u64)
        .map(|i| {
            let c = if i % 2 == 0 {
                Vec3::new(
                    rng.gen_range(bounds.min.x..bounds.max.x),
                    rng.gen_range(bounds.min.y..bounds.max.y),
                    rng.gen_range(bounds.min.z..bounds.max.z),
                )
            } else {
                let e = bounds.extent() * 0.02;
                hot + Vec3::new(
                    rng.gen_range(-e.x..e.x),
                    rng.gen_range(-e.y..e.y),
                    rng.gen_range(-e.z..e.z),
                )
            };
            SpatialObject::new(
                ObjectId(first_id + i),
                DatasetId(dataset),
                Aabb::from_center_extent(c, bounds.extent() * 0.001),
            )
        })
        .collect()
}

#[test]
fn merge_trigger_never_misses_a_merge_a_full_sweep_would_make() {
    for background in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        let spec = DatasetSpec {
            num_datasets: 4,
            objects_per_dataset: 2_500,
            soma_clusters: 5,
            segments_per_neuron: 40,
            seed: 4242,
            ..Default::default()
        };
        let model = BrainModel::new(spec);
        let bounds = model.bounds();
        let hot = model.cluster_centers()[0];
        let mut all: Vec<SpatialObject> = model.generate_all().into_iter().flatten().collect();
        let mut config = OdysseyConfig::paper(bounds).with_ingest_split_objects(96);
        if background {
            config = config.with_background_maintenance();
        }
        let open_store = || {
            let (storage, recovered) =
                StorageManager::open(StorageOptions::durable(dir.path(), 256)).unwrap();
            let engine = SpaceOdyssey::open(&storage, recovered).unwrap();
            (storage, engine)
        };
        let (mut storage, mut engine) = {
            let storage = StorageManager::create(StorageOptions::durable(dir.path(), 256)).unwrap();
            let raws = model
                .generate_all()
                .iter()
                .enumerate()
                .map(|(i, objs)| write_raw_dataset(&storage, DatasetId(i as u16), objs).unwrap())
                .collect();
            let engine = SpaceOdyssey::create(config, raws, &storage).unwrap();
            (storage, engine)
        };
        let queries = mixed_queries(&model, 160, 11);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut next_id = 50_000_000u64;
        for (step, query) in queries.iter().enumerate() {
            if step == queries.len() / 2 {
                // Reopen midway: the sweep records are derived state and
                // must be rebuilt by the first full sweep after the open.
                engine.close(&storage).unwrap();
                drop(storage);
                (storage, engine) = open_store();
                assert!(engine
                    .merger()
                    .directory()
                    .iter()
                    .all(|f| f.swept_at().is_none()));
            }
            if step % 9 == 4 {
                let dataset = (step % 4) as u16;
                let batch = arrivals(&mut rng, bounds, hot, dataset, next_id);
                next_id += batch.len() as u64;
                engine.ingest(&storage, DatasetId(dataset), &batch).unwrap();
                all.extend(batch);
            }
            if background && step % 5 == 0 {
                engine.run_maintenance(&storage).unwrap();
            }
            let outcome = engine.execute_query(&storage, query).unwrap();
            assert_eq!(
                outcome.count,
                scan_any_query(query, all.iter()).count(),
                "step {step}: answer diverged from the oracle"
            );
            if !matches!(query, Query::KNearestNeighbors(_)) {
                assert_full_sweep_appends_nothing(&engine, query.datasets(), step);
            }
        }
        assert!(
            engine.merger().merges_performed() > 0,
            "the trace must actually merge (background = {background})"
        );
        assert!(
            engine
                .merger()
                .directory()
                .iter()
                .any(|f| f.swept_at().is_some()),
            "the trace must reach a recorded sweep (background = {background})"
        );
    }
}

/// A fixed seeded workload's adaptation record: how often it merged, what
/// the merge files hold and where, how much it refined, and the simulated
/// seconds it cost.
#[derive(Debug, PartialEq)]
struct Pins {
    merges: u64,
    entries: usize,
    /// FNV-1a over every file's combination and every entry's key and run
    /// page starts, in directory then key order.
    layout_digest: u64,
    partitions_refined: usize,
    sim_seconds: String,
}

fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn pinned_workload_record() -> Pins {
    let (storage, raws, bounds, _) = setup(4, 3_000);
    let model = BrainModel::new(DatasetSpec {
        num_datasets: 4,
        objects_per_dataset: 3_000,
        soma_clusters: 5,
        segments_per_neuron: 40,
        seed: 4242,
        ..Default::default()
    });
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(bounds), raws).unwrap();
    let before = storage.stats();
    let mut partitions_refined = 0;
    for query in mixed_queries(&model, 240, 7) {
        partitions_refined += engine
            .execute_query(&storage, &query)
            .unwrap()
            .partitions_refined;
    }
    let merger = engine.merger();
    let mut layout_digest = 0xcbf2_9ce4_8422_2325u64;
    let mut entries = 0;
    for file in merger.directory().iter() {
        layout_digest = fnv(layout_digest, file.combination.0);
        for entry in file.entries_sorted() {
            entries += 1;
            let k = entry.key;
            for word in [k.level, k.x, k.y, k.z] {
                layout_digest = fnv(layout_digest, word as u64);
            }
            for run in &entry.runs {
                layout_digest = fnv(layout_digest, run.page_start);
            }
        }
    }
    Pins {
        merges: merger.merges_performed(),
        entries,
        layout_digest,
        partitions_refined,
        sim_seconds: format!("{:.9}", storage.seconds_since(&before)),
    }
}

#[test]
fn merge_and_refinement_record_is_pinned() {
    // Golden values captured from the engine before the merge trigger was
    // version-gated and partition lookups were keyed: both changes must
    // leave every adaptive decision, every byte position and every charged
    // cost exactly where it was.
    assert_eq!(
        pinned_workload_record(),
        Pins {
            merges: 93,
            entries: 458,
            layout_digest: 17_184_638_704_129_229_740,
            partitions_refined: 148,
            sim_seconds: "9.686194033".to_string(),
        }
    );
}

#[test]
fn converged_reads_take_no_exclusive_merger_lock() {
    let (storage, raws, bounds, hot) = setup(4, 3_000);
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(bounds), raws).unwrap();
    let side = bounds.extent().x * 0.012;
    let combo = [0u16, 1, 2, 3];
    // Converge: refinement stops and the combination is merged.
    for i in 0..12u32 {
        engine
            .execute(&storage, &cube_query(i, hot, side, &combo))
            .unwrap();
    }
    assert_eq!(engine.merger().directory().len(), 1);
    // Hold the merger's read lock; any `merger.write()` on the query thread
    // would now block until the timeout below.
    let (done, finished) = mpsc::channel();
    let completed = std::thread::scope(|s| {
        let guard = engine.merger();
        let (engine, storage) = (&engine, &storage);
        s.spawn(move || {
            for i in 0..60u32 {
                let outcome = engine
                    .execute(storage, &cube_query(100 + i, hot, side, &combo))
                    .unwrap();
                assert!(outcome.used_merge_file());
                assert_eq!(outcome.partitions_refined, 0);
            }
            done.send(()).unwrap();
        });
        let completed = finished.recv_timeout(Duration::from_secs(30)).is_ok();
        drop(guard); // let a blocked query thread finish so the scope can join
        completed
    });
    assert!(
        completed,
        "converged queries blocked behind a held merger read lock"
    );
}
