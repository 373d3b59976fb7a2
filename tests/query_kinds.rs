//! Integration tests for the generalized query engine: typed query kinds
//! behind the cost-based access-path planner.
//!
//! * **Correctness** — for seeded random workloads, every kind (range,
//!   point, kNN, count) returns brute-force-identical answers, with the
//!   planner on and off.
//! * **Plan switching** — one workload where the recorded
//!   [`QueryOutcome::plans`] differ between queries: tiny ranges take the
//!   partitioned path, whole-volume counts fall back to sequential scans,
//!   and hot merged combinations route to merge files.
//! * **Concurrency** — a shuffled mixed-kind batch on many threads returns,
//!   per query, exactly the answers of sequential execution.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use space_odyssey::core::{AccessPath, OdysseyConfig, QueryOutcome, SpaceOdyssey};
use space_odyssey::datagen::{
    BrainModel, DatasetSpec, MixedWorkloadSpec, QueryKindMix, WorkloadSpec,
};
use space_odyssey::geom::{
    scan_any_query, Aabb, CountQuery, DatasetId, DatasetSet, KnnQuery, ObjectId, PointQuery, Query,
    QueryAnswer, QueryId, RangeQuery, SpatialObject, Vec3,
};
use space_odyssey::storage::{write_raw_dataset, RawDataset, StorageManager, StorageOptions};

fn spec(num_datasets: usize, objects: usize) -> DatasetSpec {
    DatasetSpec {
        num_datasets,
        objects_per_dataset: objects,
        soma_clusters: 5,
        segments_per_neuron: 40,
        seed: 2026,
        ..Default::default()
    }
}

struct World {
    storage: StorageManager,
    raws: Vec<RawDataset>,
    bounds: Aabb,
    all_objects: Vec<SpatialObject>,
}

fn fresh_world(spec: &DatasetSpec) -> World {
    let storage = StorageManager::new(StorageOptions::in_memory(2048));
    let model = BrainModel::new(spec.clone());
    let mut all_objects = Vec::new();
    let raws = model
        .generate_all()
        .iter()
        .enumerate()
        .map(|(i, objs)| {
            all_objects.extend(objs.iter().copied());
            write_raw_dataset(&storage, DatasetId(i as u16), objs).unwrap()
        })
        .collect();
    World {
        storage,
        raws,
        bounds: model.bounds(),
        all_objects,
    }
}

fn mixed_queries(num_datasets: usize, bounds: &Aabb, n: usize, seed: u64) -> Vec<Query> {
    MixedWorkloadSpec {
        base: WorkloadSpec {
            num_datasets,
            datasets_per_query: 3,
            num_queries: n,
            query_volume_fraction: 1e-5,
            seed,
            ..Default::default()
        },
        mix: QueryKindMix::balanced(),
    }
    .generate(bounds)
    .queries
}

/// Normalizes an outcome for comparison against the oracle: `(dataset, id)`
/// pairs (order-sensitive for kNN, sorted otherwise) plus the count.
fn normalize(query: &Query, outcome: &QueryOutcome) -> (Vec<(DatasetId, u64)>, u64) {
    let mut ids: Vec<(DatasetId, u64)> = outcome
        .objects
        .iter()
        .map(|o| (o.dataset, o.id.0))
        .collect();
    if !matches!(query, Query::KNearestNeighbors(_)) {
        ids.sort_unstable();
    }
    (ids, outcome.count)
}

fn normalize_answer(query: &Query, answer: &QueryAnswer) -> (Vec<(DatasetId, u64)>, u64) {
    let mut ids: Vec<(DatasetId, u64)> = answer
        .objects()
        .unwrap_or(&[])
        .iter()
        .map(|o| (o.dataset, o.id.0))
        .collect();
    if !matches!(query, Query::KNearestNeighbors(_)) {
        ids.sort_unstable();
    }
    (ids, answer.count())
}

#[test]
fn every_kind_matches_brute_force_planner_on_and_off() {
    for planner in [true, false] {
        for seed in [7u64, 23, 91] {
            let world = fresh_world(&spec(4, 3_000));
            let mut config = OdysseyConfig::paper(world.bounds);
            config.planner_enabled = planner;
            let engine = SpaceOdyssey::new(config, world.raws.clone()).unwrap();
            let queries = mixed_queries(4, &world.bounds, 48, seed);
            for q in &queries {
                let outcome = engine.execute_query(&world.storage, q).unwrap();
                let expected = scan_any_query(q, world.all_objects.iter());
                assert_eq!(
                    normalize(q, &outcome),
                    normalize_answer(q, &expected),
                    "planner={planner} seed={seed} query {:?} diverged",
                    q.id()
                );
            }
        }
    }
}

#[test]
fn adhoc_kind_edge_cases_match_brute_force() {
    let world = fresh_world(&spec(3, 2_000));
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(world.bounds), world.raws.clone()).unwrap();
    let all = DatasetSet::from_ids((0..3u16).map(DatasetId));
    let center = world.bounds.center();
    let queries: Vec<Query> = vec![
        // Whole-volume count (exercises the scan path and metadata counts).
        CountQuery::new(QueryId(0), world.bounds.expanded_uniform(1.0), all).into(),
        // Count over a tiny region.
        CountQuery::new(
            QueryId(1),
            Aabb::from_center_extent(center, Vec3::splat(2.0)),
            all,
        )
        .into(),
        // Point lookups inside and far outside the data.
        PointQuery::new(QueryId(2), center, all).into(),
        PointQuery::new(QueryId(3), Vec3::splat(-500.0), all).into(),
        // kNN with k = 0, small k, and k beyond the population.
        KnnQuery::new(QueryId(4), center, 0, all).into(),
        KnnQuery::new(QueryId(5), center, 17, all).into(),
        KnnQuery::new(QueryId(6), Vec3::splat(-500.0), 10_000, all).into(),
        // A range over an unknown dataset mixed into the combination.
        RangeQuery::new(
            QueryId(7),
            Aabb::from_center_extent(center, Vec3::splat(50.0)),
            DatasetSet::from_ids([DatasetId(1), DatasetId(9)].into_iter()),
        )
        .into(),
    ];
    for q in &queries {
        let outcome = engine.execute_query(&world.storage, q).unwrap();
        let expected = scan_any_query(q, world.all_objects.iter());
        assert_eq!(
            normalize(q, &outcome),
            normalize_answer(q, &expected),
            "query {:?} diverged",
            q.id()
        );
        // Count queries never materialize.
        if matches!(q, Query::Count(_)) {
            assert!(outcome.objects.is_empty());
        }
    }
}

/// kNN across three datasets whose objects sit at identical lattice
/// positions: every distance is shared by a tie group spanning the datasets
/// (and repeated positions inside each), and `k` cuts inside such groups, so
/// the answer hangs on the `(distance, dataset, id)` tie-break of the
/// per-dataset top-k merge — live, and rebuilt from the result cache.
#[test]
fn knn_ties_across_datasets_cut_by_k_match_brute_force() {
    let bounds = Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0));
    let mut rng = ChaCha8Rng::seed_from_u64(56);
    let lattice = |rng: &mut ChaCha8Rng| 5.0 * rng.gen_range(1..20u32) as f64;
    let positions: Vec<Vec3> = (0..1_500)
        .map(|_| Vec3::new(lattice(&mut rng), lattice(&mut rng), lattice(&mut rng)))
        .collect();
    let objects = |d: u16| -> Vec<SpatialObject> {
        positions
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                SpatialObject::new(
                    ObjectId(i as u64),
                    DatasetId(d),
                    Aabb::from_center_extent(c, Vec3::splat(0.5)),
                )
            })
            .collect()
    };
    let all = DatasetSet::from_ids((0..3u16).map(DatasetId));
    // Lattice points (distance-0 groups) and midpoints between them
    // (groups of equidistant neighbours).
    let points: Vec<Vec3> = positions
        .iter()
        .take(12)
        .flat_map(|&c| [c, c + Vec3::new(2.5, 0.0, 0.0), c + Vec3::splat(2.5)])
        .collect();
    let mut cut_ties = 0;
    for config in [
        OdysseyConfig::paper(bounds),
        OdysseyConfig::paper(bounds).with_result_cache(8 << 20),
    ] {
        let storage = StorageManager::new(StorageOptions::in_memory(2048));
        let mut all_objects = Vec::new();
        let raws: Vec<RawDataset> = (0..3u16)
            .map(|d| {
                let objs = objects(d);
                all_objects.extend(objs.iter().copied());
                write_raw_dataset(&storage, DatasetId(d), &objs).unwrap()
            })
            .collect();
        let engine = SpaceOdyssey::new(config, raws).unwrap();
        // Refine around the probe points first.
        let mut refined = 0;
        for (i, &c) in points.iter().enumerate().cycle().take(3 * points.len()) {
            let q = Query::Range(RangeQuery::new(
                QueryId(i as u32),
                Aabb::from_center_extent(c, Vec3::splat(1.0)),
                all,
            ));
            refined += engine
                .execute_query(&storage, &q)
                .unwrap()
                .partitions_refined;
        }
        assert!(refined > 0, "range queries refine the datasets");
        for (i, &p) in points.iter().enumerate() {
            // The oracle's ranking, one past the largest k: each answer is a
            // prefix of it.
            let ranked = scan_any_query(
                &Query::KNearestNeighbors(KnnQuery::new(QueryId(0), p, 51, all)),
                all_objects.iter(),
            );
            let ranked = ranked.objects().unwrap();
            let distance = |j: usize| ranked[j].mbr.min_distance_squared_to(p);
            for k in [1, 2, 4, 5, 7, 13, 50] {
                if distance(k - 1) == distance(k) {
                    cut_ties += 1;
                }
                let q =
                    Query::KNearestNeighbors(KnnQuery::new(QueryId(1_000 + i as u32), p, k, all));
                let expected: Vec<(DatasetId, u64)> =
                    ranked[..k].iter().map(|o| (o.dataset, o.id.0)).collect();
                // Twice: with the cache on, the second answer is rebuilt
                // from the cached per-dataset lists.
                for _ in 0..2 {
                    let outcome = engine.execute_query(&storage, &q).unwrap();
                    assert_eq!(
                        normalize(&q, &outcome),
                        (expected.clone(), k as u64),
                        "kNN k={k} at {p:?} diverged"
                    );
                }
            }
        }
        if engine.config().result_cache_enabled {
            assert!(engine.cache_hits() > 0, "the cached merge ran");
        }
    }
    assert!(cut_ties > 0, "k must cut inside a tie group");
}

#[test]
fn planner_switches_access_paths_within_one_workload() {
    let world = fresh_world(&spec(4, 4_000));
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(world.bounds), world.raws.clone()).unwrap();
    let hot = DatasetSet::from_ids((0..3u16).map(DatasetId));
    // Anchor the hot queries on an actual object: leaves only exist where
    // objects are, and a hot region probing vacuum retrieves (and therefore
    // merges) nothing.
    let center = world
        .all_objects
        .iter()
        .find(|o| o.dataset == DatasetId(0))
        .unwrap()
        .center();
    let small = |i: u32| {
        Query::Range(RangeQuery::new(
            QueryId(i),
            Aabb::from_center_extent(center, Vec3::splat(world.bounds.extent().x * 0.01)),
            hot,
        ))
    };
    // Heat the combination so a merge file appears.
    let mut merged = false;
    for i in 0..8 {
        let outcome = engine.execute_query(&world.storage, &small(i)).unwrap();
        merged |= outcome.merge_performed;
    }
    assert!(merged, "the hot combination should have been merged");

    // 1) Small range on the hot merged combination: merge-file path.
    let hot_outcome = engine.execute_query(&world.storage, &small(100)).unwrap();
    assert!(
        hot_outcome.used_path(AccessPath::MergeFile),
        "hot query plans: {:?}",
        hot_outcome.plans
    );

    // 2) Whole-volume materializing range: sequential scan wins.
    let sweep = Query::Range(RangeQuery::new(
        QueryId(101),
        world.bounds.expanded_uniform(1.0),
        hot,
    ));
    let sweep_outcome = engine.execute_query(&world.storage, &sweep).unwrap();
    assert!(
        sweep_outcome.used_path(AccessPath::SeqScan),
        "sweep plans: {:?}",
        sweep_outcome.plans
    );

    // 3) Whole-volume count: the metadata short-circuit keeps the
    //    partitioned path competitive, and most partitions are counted
    //    without any read.
    let count = Query::Count(CountQuery::new(
        QueryId(102),
        world.bounds.expanded_uniform(1.0),
        hot,
    ));
    let count_outcome = engine.execute_query(&world.storage, &count).unwrap();
    assert!(
        count_outcome.used_path(AccessPath::Octree),
        "count plans: {:?}",
        count_outcome.plans
    );
    assert!(
        count_outcome.partitions_counted_from_metadata > 0,
        "a whole-volume count should be served from partition metadata"
    );
    assert_eq!(
        count_outcome.count,
        world
            .all_objects
            .iter()
            .filter(|o| hot.contains(o.dataset))
            .count() as u64
    );

    // The three outcomes demonstrably recorded different plans.
    let path_of = |o: &QueryOutcome| o.plans.first().map(|p| p.path);
    let mut distinct: Vec<_> = [&hot_outcome, &sweep_outcome, &count_outcome]
        .iter()
        .filter_map(|o| path_of(o))
        .collect();
    distinct.sort_by_key(|p| p.name());
    distinct.dedup();
    assert!(
        distinct.len() >= 2,
        "expected plan switching, got {distinct:?}"
    );

    // Every estimate the planner recorded is a finite, non-negative cost.
    for outcome in [&hot_outcome, &sweep_outcome, &count_outcome] {
        for plan in &outcome.plans {
            assert!(plan.estimated_seconds.is_finite() && plan.estimated_seconds >= 0.0);
        }
    }
}

#[test]
fn shuffled_mixed_kind_batches_are_deterministic() {
    let world = fresh_world(&spec(4, 2_500));
    let queries = mixed_queries(4, &world.bounds, 64, 1234);

    // Sequential reference on a fresh engine.
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(world.bounds), world.raws.clone()).unwrap();
    let reference: Vec<_> = queries
        .iter()
        .map(|q| {
            let o = engine.execute_query(&world.storage, q).unwrap();
            normalize(q, &o)
        })
        .collect();

    // Shuffled parallel batches on fresh engines (fresh storage too, so
    // adaptation starts from scratch under contention).
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for round in 0..3 {
        let world2 = fresh_world(&spec(4, 2_500));
        let engine2 =
            SpaceOdyssey::new(OdysseyConfig::paper(world2.bounds), world2.raws.clone()).unwrap();
        let mut order: Vec<usize> = (0..queries.len()).collect();
        for j in (1..order.len()).rev() {
            order.swap(j, rng.gen_range(0..=j));
        }
        let shuffled: Vec<Query> = order.iter().map(|&i| queries[i]).collect();
        let outcomes = engine2
            .execute_query_batch_with_threads(&world2.storage, &shuffled, 8)
            .unwrap();
        assert_eq!(outcomes.len(), shuffled.len());
        for (slot, outcome) in order.iter().zip(&outcomes) {
            assert_eq!(
                normalize(&queries[*slot], outcome),
                reference[*slot],
                "round {round}: query {slot} diverged under a shuffled parallel batch"
            );
        }
        assert_eq!(engine2.queries_executed(), queries.len() as u64);
    }
}

#[test]
fn saved_workload_replays_identically_across_engines() {
    use space_odyssey::datagen::SavedWorkload;
    let world = fresh_world(&spec(3, 1_500));
    let queries = mixed_queries(3, &world.bounds, 24, 77);
    let saved = SavedWorkload {
        bounds: world.bounds,
        objects: world.all_objects.clone(),
        queries: queries.clone(),
    };
    let reloaded = SavedWorkload::from_json(&saved.to_json()).unwrap();
    assert_eq!(saved, reloaded);

    // Rebuild a world from the reloaded objects and replay: identical
    // normalized answers.
    let storage = StorageManager::new(StorageOptions::in_memory(2048));
    let mut datasets: Vec<Vec<SpatialObject>> = vec![Vec::new(); 3];
    for obj in &reloaded.objects {
        datasets[obj.dataset.index()].push(*obj);
    }
    let raws: Vec<RawDataset> = datasets
        .iter()
        .enumerate()
        .map(|(i, objs)| write_raw_dataset(&storage, DatasetId(i as u16), objs).unwrap())
        .collect();
    let original =
        SpaceOdyssey::new(OdysseyConfig::paper(world.bounds), world.raws.clone()).unwrap();
    let replayed = SpaceOdyssey::new(OdysseyConfig::paper(reloaded.bounds), raws).unwrap();
    for q in &reloaded.queries {
        let a = original.execute_query(&world.storage, q).unwrap();
        let b = replayed.execute_query(&storage, q).unwrap();
        assert_eq!(normalize(q, &a), normalize(q, &b), "{:?}", q.id());
    }
}
