//! Integration tests for the serving tier (`odyssey-serve`).
//!
//! Against the real dispatcher:
//!
//! * **Coalescing equivalence** — the same read-only workload submitted
//!   through a micro-batching server from eight shuffled client threads
//!   returns, per query, exactly the answer a per-request server returns:
//!   batching is a latency/throughput optimisation, never a semantic one.
//! * **Admission isolation** — under a deliberately flooding tenant,
//!   innocent tenants are never shed, every shed is a typed
//!   [`ServeError::Overloaded`] naming the flooding tenant, and every
//!   served innocent answer matches the engine's direct answer.
//! * **Deadline expiry** — requests whose deadline has already passed are
//!   rejected with a typed error before any engine work: no query
//!   executes, no ingest lands, and no simulated I/O cost is charged.
//!
//! Through the virtual-time [`replay`], whose latencies are simulated I/O
//! cost over a modeled worker pool and therefore deterministic on any host
//! (see `crates/serve/src/replay.rs`):
//!
//! * **Batching gate** — on an open-loop query+ingest trace, backlog
//!   batching returns the per-request answers, coalesces, and keeps the
//!   served p99 at or below per-request dispatch.
//! * **Flood gate** — under a flooding tenant, admission control sheds the
//!   flood, never an innocent, and keeps the innocents' p99 at or below
//!   what the unchecked flood inflicts on them.

use odyssey_serve::{
    replay, AdmissionConfig, BatchPolicy, Frontend, ReplayRequest, Request, RequestFate,
    ServeConfig, ServeError, Server,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use space_odyssey::core::{EngineOp, OdysseyConfig, OpOutcome, SpaceOdyssey};
use space_odyssey::datagen::{
    BrainModel, CombinationDistribution, DatasetSpec, OpenLoopProfile, QueryRangeDistribution,
    WorkloadSpec,
};
use space_odyssey::geom::{
    Aabb, CountQuery, DatasetId, DatasetSet, ObjectId, Query, QueryId, SpatialObject, Vec3,
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
            ObjectId(u64::MAX),
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

/// Replay scale: four brain-model datasets of 2,000 objects, 120 open-loop
/// requests over four tenants and a 2,000-request flood — long enough that
/// its unchecked backlog outweighs the batch-mates it incidentally donates
/// to the innocents.
fn replay_spec() -> DatasetSpec {
    DatasetSpec {
        num_datasets: 4,
        objects_per_dataset: 2_000,
        soma_clusters: 5,
        segments_per_neuron: 40,
        seed: 777,
        ..Default::default()
    }
}

const REPLAY_REQUESTS: usize = 120;
const FLOOD_REQUESTS: usize = 2_000;
const TRACE_SEED: u64 = 41;

/// Backlog batching with eight modeled workers and no admission control.
fn batched_config() -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy { max_batch: 32 },
        admission: None,
        threads: 8,
        maintenance_interval: None,
    }
}

/// Small ingest batch in the middle of the volume.
fn replay_ingest(bounds: &Aabb, round: u64, dataset: DatasetId) -> Vec<SpatialObject> {
    let e = bounds.extent();
    (0..48u64)
        .map(|i| {
            let t = ((round * 13 + i) % 89) as f64 / 89.0;
            let c = Vec3::new(
                bounds.min.x + e.x * (0.30 + 0.35 * t),
                bounds.min.y + e.y * (0.30 + 0.35 * ((t * 3.0) % 1.0)),
                bounds.min.z + e.z * (0.30 + 0.35 * ((t * 7.0) % 1.0)),
            );
            SpatialObject::new(
                ObjectId(900_000 + round * 10_000 + i),
                dataset,
                Aabb::from_center_extent(c, Vec3::splat(e.x * 0.002)),
            )
        })
        .collect()
}

/// The open-loop trace: about 500 requests/s offered over four tenants,
/// past per-request capacity but within batched capacity; every 16th
/// request is an ingest.
fn replay_trace(bounds: &Aabb) -> Vec<ReplayRequest> {
    let datasets = replay_spec().num_datasets;
    let arrivals = OpenLoopProfile {
        mean_interarrival_micros: 2_000,
        tenants: 4,
        hot_tenant_share: 0.25,
        seed: TRACE_SEED,
    }
    .arrivals(REPLAY_REQUESTS);
    let workload = WorkloadSpec {
        num_datasets: datasets,
        datasets_per_query: 3,
        num_queries: REPLAY_REQUESTS,
        query_volume_fraction: 1e-4,
        range_distribution: QueryRangeDistribution::Clustered { num_clusters: 4 },
        combination_distribution: CombinationDistribution::Zipf,
        seed: TRACE_SEED ^ 0x51,
    }
    .generate(bounds);
    arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let op = if i % 16 == 15 {
                let dataset = DatasetId((i % datasets) as u16);
                EngineOp::Ingest {
                    dataset,
                    objects: replay_ingest(bounds, i as u64, dataset),
                }
            } else {
                EngineOp::Query(Query::Range(workload.queries[i]))
            };
            ReplayRequest {
                offset_micros: a.offset_micros,
                tenant: a.tenant,
                deadline_micros: None,
                op,
            }
        })
        .collect()
}

/// The same trace with its tenants shifted to 1..=4, plus tenant 0
/// flooding one query every 20 µs (~50k/s).
fn flood_trace(bounds: &Aabb) -> Vec<ReplayRequest> {
    let mut reqs = replay_trace(bounds);
    for r in &mut reqs {
        r.tenant += 1;
    }
    let flood = WorkloadSpec {
        num_datasets: replay_spec().num_datasets,
        datasets_per_query: 2,
        num_queries: FLOOD_REQUESTS,
        query_volume_fraction: 1e-4,
        range_distribution: QueryRangeDistribution::Clustered { num_clusters: 4 },
        combination_distribution: CombinationDistribution::Zipf,
        seed: TRACE_SEED ^ 0xF1,
    }
    .generate(bounds);
    reqs.extend(
        flood
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| ReplayRequest {
                offset_micros: i as u64 * 20,
                tenant: 0,
                deadline_micros: None,
                op: EngineOp::Query(Query::Range(*q)),
            }),
    );
    reqs.sort_by_key(|r| r.offset_micros);
    reqs
}

/// Replays `trace` on a fresh engine.
fn replay_fresh(trace: &[ReplayRequest], cfg: &ServeConfig) -> Vec<RequestFate> {
    let (engine, storage, _) = fresh_world(&replay_spec());
    replay(&engine, &storage, trace, cfg).expect("replay")
}

/// What the replay gates read from one run's served requests.
struct ReplayDigest {
    served: usize,
    p99_micros: u64,
    mean_batch: f64,
    /// Per served query, in trace order.
    answers: Vec<u64>,
}

fn digest<'a>(fates: impl IntoIterator<Item = &'a RequestFate>) -> ReplayDigest {
    let mut latencies = Vec::new();
    let mut batch_total = 0;
    let mut answers = Vec::new();
    for fate in fates {
        if let RequestFate::Served {
            e2e_micros,
            batch_size,
            outcome,
            ..
        } = fate
        {
            latencies.push(*e2e_micros);
            batch_total += batch_size;
            if matches!(outcome, OpOutcome::Query(_)) {
                answers.push(answer_checksum(outcome));
            }
        }
    }
    latencies.sort_unstable();
    // Nearest rank.
    let rank = (latencies.len() * 99).div_ceil(100).max(1);
    ReplayDigest {
        served: latencies.len(),
        p99_micros: latencies.get(rank - 1).copied().unwrap_or(0),
        mean_batch: batch_total as f64 / latencies.len().max(1) as f64,
        answers,
    }
}

#[test]
fn replayed_batching_preserves_answers_and_does_not_regress_p99() {
    let trace = replay_trace(&BrainModel::new(replay_spec()).bounds());
    let batched = digest(&replay_fresh(&trace, &batched_config()));
    let per_request = digest(&replay_fresh(
        &trace,
        &ServeConfig {
            batch: BatchPolicy::per_request(),
            ..batched_config()
        },
    ));

    assert_eq!(batched.served, REPLAY_REQUESTS);
    assert_eq!(per_request.served, REPLAY_REQUESTS);
    assert_eq!(
        batched.answers, per_request.answers,
        "coalesced answers must equal per-request answers"
    );
    assert!(batched.mean_batch > 1.0, "the backlog must coalesce");
    assert_eq!(per_request.mean_batch, 1.0);
    assert!(
        batched.p99_micros <= per_request.p99_micros,
        "batched p99 {} us > per-request p99 {} us",
        batched.p99_micros,
        per_request.p99_micros
    );
}

#[test]
fn replayed_flood_sheds_only_the_flooder_and_bounds_innocent_p99() {
    let trace = flood_trace(&BrainModel::new(replay_spec()).bounds());
    let on = replay_fresh(
        &trace,
        &ServeConfig {
            admission: Some(AdmissionConfig {
                // Above each innocent tenant's ~125/s, far below the flood.
                tokens_per_sec: 250.0,
                burst_tokens: 32.0,
                max_queued_per_tenant: 256,
            }),
            ..batched_config()
        },
    );
    let off = replay_fresh(&trace, &batched_config());

    let shed = |flooder: bool| {
        trace
            .iter()
            .zip(&on)
            .filter(|(r, f)| (r.tenant == 0) == flooder && matches!(f, RequestFate::Shed { .. }))
            .count()
    };
    assert_eq!(shed(false), 0, "innocent tenants must never shed");
    assert!(shed(true) > 0, "the flood must shed");

    let innocents = |fates: &[RequestFate]| {
        digest(
            trace
                .iter()
                .zip(fates)
                .filter(|(r, _)| r.tenant != 0)
                .map(|(_, f)| f),
        )
    };
    let (on, off) = (innocents(&on), innocents(&off));
    assert!(
        on.p99_micros <= off.p99_micros,
        "admission must not make innocents slower than the unchecked flood: {} us > {} us",
        on.p99_micros,
        off.p99_micros
    );
}
