//! Criterion micro-benchmarks of the building blocks: partitioning and
//! refinement, the static index builds and probes, the converged read path
//! (one merge-path range query, one kNN query, and the range path's thread
//! scaling), and the page service path of the storage layer (checksum, page
//! codec, buffer-pool hit and miss). These measure wall-clock of the
//! in-memory implementation (they complement the simulated-seconds figures,
//! which measure the modelled disk); the `storage/*` group reproduces the
//! wall-clock benchmark's per-layer `storage.*` numbers without a 20-second
//! run.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use odyssey_baselines::strategy::{build_approach, Approach, ApproachConfig};
use odyssey_baselines::GridConfig;
use odyssey_core::{OdysseyConfig, SpaceOdyssey};
use odyssey_datagen::{
    BrainModel, CombinationDistribution, DatasetSpec, QueryRangeDistribution, WorkloadSpec,
};
use odyssey_geom::{DatasetId, DatasetSet, KnnQuery, Query, QueryId};
use odyssey_storage::{
    crc32, pack_objects, write_raw_dataset, Page, PageId, RawDataset, StorageManager,
    StorageOptions, OBJECTS_PER_PAGE,
};

struct Fixture {
    storage: StorageManager,
    raws: Vec<RawDataset>,
    bounds: odyssey_geom::Aabb,
    spec: DatasetSpec,
}

fn fixture(objects_per_dataset: usize, num_datasets: usize) -> Fixture {
    let spec = DatasetSpec {
        num_datasets,
        objects_per_dataset,
        soma_clusters: 8,
        segments_per_neuron: 50,
        seed: 42,
        ..Default::default()
    };
    let model = BrainModel::new(spec.clone());
    let storage = StorageManager::new(StorageOptions::in_memory(1024));
    let raws: Vec<RawDataset> = model
        .generate_all()
        .iter()
        .enumerate()
        .map(|(i, objs)| write_raw_dataset(&storage, DatasetId(i as u16), objs).unwrap())
        .collect();
    Fixture {
        storage,
        raws,
        bounds: model.bounds(),
        spec,
    }
}

fn workload(
    spec: &DatasetSpec,
    bounds: &odyssey_geom::Aabb,
    n: usize,
) -> odyssey_datagen::Workload {
    WorkloadSpec {
        num_datasets: spec.num_datasets,
        datasets_per_query: 3.min(spec.num_datasets),
        num_queries: n,
        query_volume_fraction: 1e-5,
        range_distribution: QueryRangeDistribution::Clustered { num_clusters: 5 },
        combination_distribution: CombinationDistribution::Zipf,
        seed: 7,
    }
    .generate(bounds)
}

fn bench_dataset_generation(c: &mut Criterion) {
    c.bench_function("datagen/brain_10k_objects", |b| {
        let spec = DatasetSpec {
            objects_per_dataset: 10_000,
            ..Default::default()
        };
        let model = BrainModel::new(spec);
        b.iter(|| model.generate_dataset(DatasetId(0)));
    });
}

fn bench_static_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    for (name, approach) in [
        ("grid_1fe", Approach::Grid1fE),
        ("rtree_ain1", Approach::RTreeAin1),
        ("flat_ain1", Approach::FlatAin1),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || fixture(5_000, 4),
                |f| {
                    let config = ApproachConfig {
                        grid: GridConfig {
                            cells_per_dim: 12,
                            bounds: f.bounds,
                            build_buffer_objects: 50_000,
                        },
                        ..ApproachConfig::paper(f.bounds)
                    };
                    build_approach(&f.storage, approach, &config, &f.raws).unwrap()
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_static_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    group.sample_size(20);
    for (name, approach) in [
        ("grid_1fe", Approach::Grid1fE),
        ("rtree_ain1", Approach::RTreeAin1),
        ("flat_ain1", Approach::FlatAin1),
    ] {
        let f = fixture(5_000, 4);
        let config = ApproachConfig {
            grid: GridConfig {
                cells_per_dim: 12,
                bounds: f.bounds,
                build_buffer_objects: 50_000,
            },
            ..ApproachConfig::paper(f.bounds)
        };
        let index = build_approach(&f.storage, approach, &config, &f.raws).unwrap();
        let queries = workload(&f.spec, &f.bounds, 50).queries;
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                index.query(&f.storage, q).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_odyssey_query_sequence(c: &mut Criterion) {
    let mut group = c.benchmark_group("odyssey");
    group.sample_size(10);
    group.bench_function("adaptive_100_queries", |b| {
        b.iter_batched(
            || {
                let f = fixture(5_000, 4);
                let queries = workload(&f.spec, &f.bounds, 100).queries;
                (f, queries)
            },
            |(f, queries)| {
                let engine =
                    SpaceOdyssey::new(OdysseyConfig::paper(f.bounds), f.raws.clone()).unwrap();
                for q in &queries {
                    engine.execute(&f.storage, q).unwrap();
                }
                engine.queries_executed()
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// The steady-state read path on a converged 4-dataset store whose one
/// combination is merged: `range_query` is a single merge-path range query;
/// `knn_query` is a k = 8 nearest-neighbour query over all four datasets at
/// the same spot (kNN is always served by the octree, never a merge file);
/// `batch_300_threads_{1,2}` drain the same 300 queries through
/// `execute_query_batch_with_threads`. The ratio of the two batch times is
/// the read path's two-thread speed-up (a converged read takes read locks
/// only, so it has nothing to serialize on).
fn bench_converged_query(c: &mut Criterion) {
    let f = fixture(5_000, 4);
    let queries: Vec<Query> = WorkloadSpec {
        num_datasets: 4,
        datasets_per_query: 4,
        num_queries: 300,
        query_volume_fraction: 1e-4,
        range_distribution: QueryRangeDistribution::Clustered { num_clusters: 5 },
        combination_distribution: CombinationDistribution::Zipf,
        seed: 7,
    }
    .generate(&f.bounds)
    .queries
    .into_iter()
    .map(Query::Range)
    .collect();
    let engine = SpaceOdyssey::new(OdysseyConfig::paper(f.bounds), f.raws.clone()).unwrap();
    // Converge: repeat the workload until a pass neither refines nor merges.
    loop {
        let outcomes = engine
            .execute_query_batch_with_threads(&f.storage, &queries, 1)
            .unwrap();
        if outcomes
            .iter()
            .all(|o| o.partitions_refined == 0 && !o.merge_performed)
        {
            break;
        }
    }
    let merged = *queries
        .iter()
        .find(|q| {
            engine
                .execute_query(&f.storage, q)
                .unwrap()
                .used_merge_file()
        })
        .expect("a converged query reads the merge file");
    let Query::Range(hot) = merged else {
        unreachable!("the workload holds range queries only")
    };
    let knn = Query::KNearestNeighbors(KnnQuery::new(
        QueryId(0),
        hot.range.center(),
        8,
        DatasetSet::from_ids((0..4u16).map(DatasetId)),
    ));

    let mut group = c.benchmark_group("core/converged_query");
    group.sample_size(20);
    group.bench_function("range_query", |b| {
        b.iter(|| engine.execute_query(&f.storage, &merged).unwrap().count);
    });
    group.bench_function("knn_query", |b| {
        b.iter(|| engine.execute_query(&f.storage, &knn).unwrap().count);
    });
    for threads in [1, 2] {
        group.bench_function(format!("batch_300_threads_{threads}"), |b| {
            b.iter(|| {
                engine
                    .execute_query_batch_with_threads(&f.storage, &queries, threads)
                    .unwrap()
                    .len()
            });
        });
    }
    group.finish();
}

/// The page service path, one batch of `PAGES` pages per measured
/// invocation (the rate column divides it back out): `crc32_4k` is the
/// checksum alone, `page_encode`/`page_decode` the record codec (encode
/// includes the frame allocation and the stamp), `pool_hit` a resident
/// `read_page`, `read_page_miss` a `read_page` after the pool was dropped
/// (file read from the operating system's cache + verify + pool insert).
fn bench_storage_layer(c: &mut Criterion) {
    const PAGES: usize = 256;
    let objects = BrainModel::new(DatasetSpec {
        objects_per_dataset: PAGES * OBJECTS_PER_PAGE,
        ..Default::default()
    })
    .generate_dataset(DatasetId(0));
    let pages = pack_objects(&objects);
    let dir = tempfile::tempdir().unwrap();
    let storage = StorageManager::new(StorageOptions::on_disk(dir.path(), 2 * PAGES));
    let file = storage.create_file("micro").unwrap();
    storage.append_objects(file, &objects).unwrap();
    let read_all = || {
        for p in 0..pages.len() as u64 {
            criterion::black_box(storage.read_page(file, PageId(p)).unwrap());
        }
    };

    let mut group = c.benchmark_group("storage");
    group.sample_size(30);
    group.throughput(Throughput::Bytes((pages.len() * 4096) as u64));
    group.bench_function("crc32_4k", |b| {
        b.iter(|| {
            pages.iter().fold(0, |acc, page| {
                acc ^ crc32(criterion::black_box(page.as_bytes()))
            })
        });
    });
    group.throughput(Throughput::Elements(objects.len() as u64));
    group.bench_function("page_encode", |b| {
        b.iter(|| {
            for chunk in objects.chunks(OBJECTS_PER_PAGE) {
                criterion::black_box(Page::from_objects(chunk).unwrap());
            }
        });
    });
    group.bench_function("page_decode", |b| {
        let mut decoded = Vec::with_capacity(objects.len());
        b.iter(|| {
            decoded.clear();
            for page in &pages {
                page.objects_into(&mut decoded).unwrap();
            }
            decoded.len()
        });
    });
    group.throughput(Throughput::Elements(pages.len() as u64));
    group.bench_function("pool_hit", |b| {
        read_all();
        b.iter(read_all);
    });
    group.bench_function("read_page_miss", |b| {
        b.iter_batched(
            || storage.clear_cache(),
            |()| read_all(),
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_storage_layer,
    bench_dataset_generation,
    bench_static_builds,
    bench_static_queries,
    bench_odyssey_query_sequence,
    bench_converged_query
);
criterion_main!(micro);
