//! Integration tests for the serving tier (`odyssey-serve`) against the
//! real dispatcher — not the virtual-time replay harness.
//!
//! * **Coalescing equivalence** — the same read-only workload submitted
//!   through a micro-batching server from eight shuffled client threads
//!   returns, per query, exactly the answer a per-request server returns:
//!   batching is a latency/throughput optimisation, never a semantic one.
//! * **Admission isolation** — under a deliberately flooding tenant,
//!   innocent tenants are never shed, every shed is a typed
//!   [`ServeError::Overloaded`] naming the flooding tenant, and every
//!   served innocent answer matches the engine's direct answer. (The
//!   quantitative p99 bound lives in the deterministic replay suite in
//!   `odyssey-bench`, where it is immune to wall-clock noise.)
//! * **Deadline expiry** — requests whose deadline has already passed are
//!   rejected with a typed error before any engine work: no query
//!   executes, no ingest lands, and no simulated I/O cost is charged.

use odyssey_serve::{
    AdmissionConfig, BatchPolicy, Frontend, Request, ServeConfig, ServeError, Server,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use space_odyssey::core::{EngineOp, OdysseyConfig, OpOutcome, SpaceOdyssey};
use space_odyssey::datagen::{
    BrainModel, CombinationDistribution, DatasetSpec, QueryRangeDistribution, WorkloadSpec,
};
use space_odyssey::geom::{
    Aabb, CountQuery, DatasetId, DatasetSet, Query, QueryId, SpatialObject, Vec3,
};
use space_odyssey::storage::{crc32, write_raw_dataset, StorageManager, StorageOptions};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn spec() -> DatasetSpec {
    DatasetSpec {
        num_datasets: 4,
        objects_per_dataset: 900,
        soma_clusters: 4,
        segments_per_neuron: 30,
        seed: 2016,
        ..Default::default()
    }
}

/// Builds a fresh engine seeded with the brain-model datasets.
fn fresh_world(spec: &DatasetSpec) -> (Arc<SpaceOdyssey>, Arc<StorageManager>, Aabb) {
    let storage = Arc::new(StorageManager::new(StorageOptions::in_memory(2048)));
    let model = BrainModel::new(spec.clone());
    let raws = model
        .generate_all()
        .iter()
        .enumerate()
        .map(|(i, objs)| write_raw_dataset(&storage, DatasetId(i as u16), objs).unwrap())
        .collect();
    let config = OdysseyConfig::paper(model.bounds());
    let engine = Arc::new(SpaceOdyssey::new(config, raws).unwrap());
    (engine, storage, model.bounds())
}

fn queries(bounds: &Aabb, n: usize, seed: u64) -> Vec<Query> {
    let workload = WorkloadSpec {
        num_datasets: 4,
        datasets_per_query: 2,
        num_queries: n,
        query_volume_fraction: 0.02,
        range_distribution: QueryRangeDistribution::Clustered { num_clusters: 4 },
        combination_distribution: CombinationDistribution::Zipf,
        seed,
    }
    .generate(bounds);
    workload.queries.into_iter().map(Query::Range).collect()
}

/// Order-insensitive digest of one query answer: sorted-deduped
/// `(dataset, id)` pairs plus the count.
fn answer_checksum(outcome: &OpOutcome) -> u64 {
    let OpOutcome::Query(q) = outcome else {
        panic!("expected a query outcome");
    };
    let mut ids: Vec<(u16, u64)> = q.objects.iter().map(|o| (o.dataset.0, o.id.0)).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut bytes = Vec::with_capacity(ids.len() * 10 + 8);
    for (ds, id) in &ids {
        bytes.extend_from_slice(&ds.to_le_bytes());
        bytes.extend_from_slice(&id.to_le_bytes());
    }
    bytes.extend_from_slice(&q.count.to_le_bytes());
    crc32(&bytes) as u64 ^ ((ids.len() as u64) << 32)
}

/// Submits every `(index, query)` pair through `server` from `threads`
/// client threads in a shuffled order and returns `index -> checksum`,
/// plus the largest batch any answer reports it was served in.
fn submit_shuffled(
    server: &Server,
    queries: &[Query],
    threads: usize,
    seed: u64,
) -> (BTreeMap<usize, u64>, u64) {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let chunk = order.len().div_ceil(threads);
    let results = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, part) in order.chunks(chunk.max(1)).enumerate() {
            let handle = server.handle();
            let part = part.to_vec();
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(part.len());
                for idx in part {
                    let served = handle
                        .submit(Request {
                            tenant: t as u16,
                            deadline_micros: None,
                            op: EngineOp::Query(queries[idx]),
                        })
                        .unwrap_or_else(|e| panic!("query {idx} failed: {e}"));
                    let OpOutcome::Query(q) = &served.outcome else {
                        panic!("expected a query outcome");
                    };
                    out.push((idx, answer_checksum(&served.outcome), q.batch_size_served));
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let largest_batch = results.iter().map(|r| r.2).max().unwrap_or(0);
    let checksums = results
        .into_iter()
        .map(|(idx, sum, _)| (idx, sum))
        .collect();
    (checksums, largest_batch)
}

#[test]
fn coalesced_batches_return_per_request_answers() {
    let spec = spec();
    let qs = queries(&fresh_world(&spec).2, 96, 7);

    // Reference: per-request dispatch (batch cap 1), one client.
    let (engine, storage, _) = fresh_world(&spec);
    let reference_server = Server::start(
        engine,
        storage,
        ServeConfig {
            batch: BatchPolicy::per_request(),
            admission: None,
            threads: 1,
            maintenance_interval: None,
        },
    );
    let (reference, _) = submit_shuffled(&reference_server, &qs, 1, 11);
    reference_server.stop();

    // Candidate: backlog batching, eight engine threads, eight clients
    // racing shuffled slices of the same workload. With one dispatcher,
    // requests queue behind every batch that runs and coalesce.
    let (engine, storage, _) = fresh_world(&spec);
    let batched_server = Server::start(
        engine,
        storage,
        ServeConfig {
            batch: BatchPolicy { max_batch: 16 },
            admission: None,
            threads: 8,
            maintenance_interval: None,
        },
    );
    let (batched, largest_batch) = submit_shuffled(&batched_server, &qs, 8, 13);
    let report = batched_server.stop();

    assert_eq!(reference.len(), qs.len());
    assert_eq!(batched.len(), qs.len());
    for (idx, checksum) in &reference {
        assert_eq!(
            batched.get(idx),
            Some(checksum),
            "query {idx}: coalesced answer diverged from per-request answer"
        );
    }
    assert_eq!(report.served, qs.len() as u64);
    assert_eq!(report.shed, 0);
    assert!(
        largest_batch > 1,
        "no request was served in a coalesced batch, so nothing was compared"
    );
}

#[test]
fn flood_never_sheds_innocents_and_errors_are_typed() {
    let spec = spec();
    let (engine, storage, bounds) = fresh_world(&spec);
    let qs = Arc::new(queries(&bounds, 24, 21));

    // Direct engine answers for the innocent workload, computed up front on
    // the same engine (queries are read-only, so serving cannot change them).
    let ops: Vec<EngineOp> = qs.iter().cloned().map(EngineOp::Query).collect();
    let direct = engine
        .execute_ops_batch_with_threads(&storage, &ops, 4)
        .expect("direct execution");
    let expected: Vec<u64> = direct.iter().map(answer_checksum).collect();

    let server = Server::start(
        Arc::clone(&engine),
        Arc::clone(&storage),
        ServeConfig {
            batch: BatchPolicy { max_batch: 32 },
            admission: Some(AdmissionConfig {
                tokens_per_sec: 400.0,
                burst_tokens: 8.0,
                max_queued_per_tenant: 64,
            }),
            threads: 4,
            maintenance_interval: None,
        },
    );

    let flood_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (innocent_results, flood_shed) = std::thread::scope(|scope| {
        // Tenant 0 floods from two threads with no pacing.
        let flooders: Vec<_> = (0..2)
            .map(|f| {
                let handle = server.handle();
                let qs = Arc::clone(&qs);
                let stop = Arc::clone(&flood_stop);
                scope.spawn(move || {
                    let mut shed = 0u64;
                    let mut i = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        match handle.submit(Request {
                            tenant: 0,
                            deadline_micros: None,
                            op: EngineOp::Query(qs[(f * 7 + i) % qs.len()]),
                        }) {
                            Ok(_) => {}
                            Err(ServeError::Overloaded { tenant, .. }) => {
                                assert_eq!(tenant, 0, "shed must name the flooding tenant");
                                shed += 1;
                            }
                            Err(e) => panic!("flood got a non-overload error: {e}"),
                        }
                        i += 1;
                    }
                    shed
                })
            })
            .collect();

        // Three innocent tenants pace their requests well under the bucket.
        let innocents: Vec<_> = (1u16..=3)
            .map(|tenant| {
                let handle = server.handle();
                let qs = Arc::clone(&qs);
                scope.spawn(move || {
                    let mut answers = Vec::with_capacity(qs.len());
                    for (i, q) in qs.iter().enumerate() {
                        let served = handle
                            .submit(Request {
                                tenant,
                                deadline_micros: None,
                                op: EngineOp::Query(*q),
                            })
                            .unwrap_or_else(|e| {
                                panic!("innocent tenant {tenant} shed at request {i}: {e}")
                            });
                        answers.push(answer_checksum(&served.outcome));
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    answers
                })
            })
            .collect();

        let innocent_results: Vec<Vec<u64>> = innocents
            .into_iter()
            .map(|h| h.join().expect("innocent thread"))
            .collect();
        flood_stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let flood_shed: u64 = flooders
            .into_iter()
            .map(|h| h.join().expect("flood thread"))
            .sum();
        (innocent_results, flood_shed)
    });
    server.stop();

    assert!(
        flood_shed > 0,
        "an unpaced flood must clear its token bucket"
    );
    for (tenant, answers) in innocent_results.iter().enumerate() {
        assert_eq!(
            answers,
            &expected,
            "innocent tenant {} got a wrong answer under the flood",
            tenant + 1
        );
    }
}

#[test]
fn expired_deadlines_never_touch_the_engine() {
    let run = || {
        let (engine, storage, bounds) = fresh_world(&spec());
        let server = Server::start(
            Arc::clone(&engine),
            Arc::clone(&storage),
            ServeConfig {
                batch: BatchPolicy { max_batch: 8 },
                admission: None,
                threads: 2,
                maintenance_interval: None,
            },
        );
        // Let the server clock advance past the deadline we are about to use.
        std::thread::sleep(Duration::from_millis(2));
        let io_before = storage.stats();

        // An expired query and an expired ingest: both must be rejected with
        // the typed error before the engine sees them.
        let probe = Query::Count(CountQuery::new(
            QueryId(9_000),
            bounds,
            DatasetSet::from_ids([DatasetId(0)]),
        ));
        let intruder = SpatialObject::new(
            space_odyssey::geom::ObjectId(u64::MAX),
            DatasetId(0),
            Aabb::from_center_extent(bounds.min, Vec3::splat(0.5)),
        );
        for op in [
            EngineOp::Query(probe),
            EngineOp::Ingest {
                dataset: DatasetId(0),
                objects: vec![intruder],
            },
        ] {
            let err = server
                .handle()
                .submit(Request {
                    tenant: 1,
                    deadline_micros: Some(1),
                    op,
                })
                .expect_err("an expired request must not be served");
            assert!(
                matches!(err, ServeError::DeadlineExceeded { tenant: 1 }),
                "expected a typed deadline error, got: {err}"
            );
        }

        assert_eq!(
            engine.queries_executed(),
            0,
            "an expired query must never reach the engine"
        );
        assert_eq!(
            storage.seconds_since(&io_before),
            0.0,
            "expired requests must not charge simulated I/O"
        );

        // The expired ingest must not have landed: serve the probe for real
        // and return its answer for the cross-run determinism check.
        let served = server
            .handle()
            .submit(Request {
                tenant: 1,
                deadline_micros: None,
                op: EngineOp::Query(probe),
            })
            .expect("live probe");
        let report = server.stop();
        assert_eq!(report.expired_at_dequeue + report.served, 3);
        let OpOutcome::Query(q) = &served.outcome else {
            panic!("expected a query outcome");
        };
        assert!(
            q.objects.iter().all(|o| o.id.0 != u64::MAX),
            "an expired ingest mutated the engine"
        );
        (answer_checksum(&served.outcome), engine.deadlines_expired())
    };

    let (first_answer, first_expired) = run();
    let (second_answer, second_expired) = run();
    assert_eq!(first_answer, second_answer, "expiry must be deterministic");
    assert_eq!(first_expired, second_expired);
    assert!(first_expired >= 2, "both expired requests must be counted");
}
