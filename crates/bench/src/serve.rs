//! Serving-tier experiment: open-loop multi-tenant traffic replayed through
//! the front-end's policies in deterministic virtual time.
//!
//! Two comparisons, each on fresh engines over the same seeded trace:
//!
//! * **Micro-batching on vs off** at the same offered load. The batched
//!   run coalesces the backlog that queued while the previous batch ran
//!   into one planned engine batch; the per-request run dispatches each
//!   alone. Both runs' query answers are checksummed — coalescing must be
//!   answer-preserving — and the batched served-query p99 must not exceed
//!   the per-request p99 (batching amortizes queue drain, so under load it
//!   strictly helps).
//! * **Admission control on vs off** under a flooding tenant. With
//!   admission on, the flood sheds against its own token bucket and the
//!   innocent tenants' p99 stays at (or below) what the flood inflicted on
//!   them with admission off — and innocent tenants are never shed.
//!
//! All latencies are **virtual microseconds** from the replay clock
//! (simulated I/O cost fanned over the modeled worker pool), so the
//! comparison is deterministic and meaningful on a single-core CI runner;
//! see `crates/serve/src/replay.rs` for the model.

use odyssey_core::{EngineOp, OdysseyConfig, OpOutcome, SpaceOdyssey};
use odyssey_datagen::{
    BrainModel, CombinationDistribution, DatasetSpec, OpenLoopProfile, QueryRangeDistribution,
    WorkloadSpec,
};
use odyssey_geom::{Aabb, DatasetId, ObjectId, Query, SpatialObject, Vec3};
use odyssey_serve::{
    replay, AdmissionConfig, BatchPolicy, ReplayRequest, RequestFate, ServeConfig,
};
use odyssey_storage::{crc32, write_raw_dataset, StorageManager, StorageOptions};

/// Configuration of the serving-tier experiment.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Seed datasets (the brain model).
    pub dataset_spec: DatasetSpec,
    /// Open-loop requests in the latency trace.
    pub requests: usize,
    /// Mean gap between arrivals, virtual microseconds.
    pub mean_interarrival_micros: u64,
    /// Simulated tenant population.
    pub tenants: u16,
    /// Every `ingest_every`-th request is a small ingest batch instead of a
    /// query (0 disables ingests).
    pub ingest_every: usize,
    /// Objects per ingest request.
    pub ingest_batch: usize,
    /// Batch size cap of the batched run.
    pub max_batch: usize,
    /// Modeled worker threads (scales the virtual makespan of a batch).
    pub threads: usize,
    /// Flooding-tenant requests added to the admission trace.
    pub flood_requests: usize,
    /// Gap between flood arrivals, virtual microseconds.
    pub flood_gap_micros: u64,
    /// Admission knobs of the admission-on run.
    pub admission: AdmissionConfig,
    /// Buffer-pool pages of each store.
    pub buffer_pages: usize,
    /// Master seed (trace + workload).
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            dataset_spec: DatasetSpec {
                num_datasets: 4,
                objects_per_dataset: 2_000,
                soma_clusters: 5,
                segments_per_neuron: 40,
                seed: 777,
                ..Default::default()
            },
            requests: 400,
            // ~500 req/s offered in total (~125/s per tenant): past the
            // per-request virtual capacity (~90/s) so batching has queueing
            // to amortize, but within the batched capacity so the batched
            // run is stable.
            mean_interarrival_micros: 2_000,
            tenants: 4,
            ingest_every: 16,
            ingest_batch: 48,
            max_batch: 32,
            threads: 8,
            flood_requests: 1_200,
            flood_gap_micros: 20,
            admission: AdmissionConfig {
                // Above every innocent tenant's ~125/s rate (with headroom
                // for arrival jitter), far below the flood's ~50k/s — and
                // low enough that the admitted flood plus the innocents
                // still fits the batched capacity, so innocent queue slices
                // never overflow.
                tokens_per_sec: 250.0,
                burst_tokens: 32.0,
                max_queued_per_tenant: 256,
            },
            buffer_pages: 2_048,
            seed: 41,
        }
    }
}

/// Latency digest of one replayed run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRun {
    /// Display label.
    pub label: String,
    /// Requests the engine answered.
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests expired before execution.
    pub expired: usize,
    /// Served end-to-end p50, virtual microseconds.
    pub p50_us: f64,
    /// Served end-to-end p99, virtual microseconds.
    pub p99_us: f64,
    /// Served end-to-end p99.9, virtual microseconds.
    pub p999_us: f64,
    /// Mean coalesced batch size over served requests.
    pub mean_batch: f64,
    /// Order-sensitive checksum over every served query answer.
    pub checksum: u64,
}

/// The full experiment: the batching pair and the admission pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeComparison {
    /// Micro-batching on, no admission, no flood.
    pub batched: ServeRun,
    /// Per-request dispatch, same trace as `batched`.
    pub per_request: ServeRun,
    /// Admission on under a flooding tenant — innocent tenants only.
    pub admission_on_innocent: ServeRun,
    /// Admission off under the same flood — innocent tenants only.
    pub admission_off_innocent: ServeRun,
    /// Flooding tenant's shed count with admission on.
    pub flood_shed: usize,
    /// Innocent-tenant requests shed with admission on (must be 0).
    pub innocent_shed: usize,
}

impl ServeComparison {
    /// Whether coalesced answers are checksum-equal to per-request answers.
    pub fn answers_match(&self) -> bool {
        self.batched.checksum == self.per_request.checksum
    }

    /// Served-query p99 improvement of batching over per-request dispatch.
    pub fn batching_p99_speedup(&self) -> f64 {
        if self.batched.p99_us > 0.0 {
            self.per_request.p99_us / self.batched.p99_us
        } else {
            f64::INFINITY
        }
    }
}

fn build_engine(cfg: &ServeBenchConfig) -> (SpaceOdyssey, StorageManager) {
    let model = BrainModel::new(cfg.dataset_spec.clone());
    let storage = StorageManager::new(StorageOptions::in_memory(cfg.buffer_pages));
    let raws = model
        .generate_all()
        .iter()
        .enumerate()
        .map(|(i, objs)| {
            write_raw_dataset(&storage, DatasetId(i as u16), objs).expect("raw dataset")
        })
        .collect();
    let engine =
        SpaceOdyssey::new(OdysseyConfig::paper(model.bounds()), raws).expect("valid config");
    (engine, storage)
}

fn ingest_objects(
    bounds: &Aabb,
    round: u64,
    dataset: DatasetId,
    batch: usize,
) -> Vec<SpatialObject> {
    let e = bounds.extent();
    (0..batch as u64)
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

/// The shared open-loop trace: seeded arrivals (satellite of PR 9's datagen
/// work) carrying a query/ingest mix.
fn build_trace(cfg: &ServeBenchConfig, bounds: &Aabb) -> Vec<ReplayRequest> {
    let arrivals = OpenLoopProfile {
        mean_interarrival_micros: cfg.mean_interarrival_micros,
        tenants: cfg.tenants,
        hot_tenant_share: 0.25,
        seed: cfg.seed,
    }
    .arrivals(cfg.requests);
    let workload = WorkloadSpec {
        num_datasets: cfg.dataset_spec.num_datasets,
        datasets_per_query: 3.min(cfg.dataset_spec.num_datasets),
        num_queries: cfg.requests,
        query_volume_fraction: 1e-4,
        range_distribution: QueryRangeDistribution::Clustered { num_clusters: 4 },
        combination_distribution: CombinationDistribution::Zipf,
        seed: cfg.seed ^ 0x51,
    }
    .generate(bounds);
    arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let op = if cfg.ingest_every > 0 && i % cfg.ingest_every == cfg.ingest_every - 1 {
                let dataset = DatasetId((i % cfg.dataset_spec.num_datasets) as u16);
                EngineOp::Ingest {
                    dataset,
                    objects: ingest_objects(bounds, i as u64, dataset, cfg.ingest_batch),
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

/// The flood trace: the latency trace's tenants shifted to 1.., plus a
/// tenant-0 flood of closely spaced queries.
fn build_flood_trace(cfg: &ServeBenchConfig, bounds: &Aabb) -> Vec<ReplayRequest> {
    let mut reqs = build_trace(cfg, bounds);
    for r in &mut reqs {
        r.tenant = r.tenant.saturating_add(1).min(cfg.tenants);
    }
    let flood_wl = WorkloadSpec {
        num_datasets: cfg.dataset_spec.num_datasets,
        datasets_per_query: 2.min(cfg.dataset_spec.num_datasets),
        num_queries: cfg.flood_requests,
        query_volume_fraction: 1e-4,
        range_distribution: QueryRangeDistribution::Clustered { num_clusters: 4 },
        combination_distribution: CombinationDistribution::Zipf,
        seed: cfg.seed ^ 0xF1,
    }
    .generate(bounds);
    for (i, q) in flood_wl.queries.iter().enumerate() {
        reqs.push(ReplayRequest {
            offset_micros: (i as u64) * cfg.flood_gap_micros,
            tenant: 0,
            deadline_micros: None,
            op: EngineOp::Query(Query::Range(*q)),
        });
    }
    reqs.sort_by_key(|r| r.offset_micros);
    reqs
}

fn checksum_fates(reqs: &[ReplayRequest], fates: &[RequestFate], tenant: Option<u16>) -> u64 {
    let mut acc = 0u64;
    for (req, fate) in reqs.iter().zip(fates) {
        if tenant.is_some_and(|t| req.tenant != t) {
            continue;
        }
        if let RequestFate::Served {
            outcome: OpOutcome::Query(q),
            ..
        } = fate
        {
            let mut ids: Vec<(u16, u64)> =
                q.objects.iter().map(|o| (o.dataset.0, o.id.0)).collect();
            ids.sort_unstable();
            ids.dedup();
            let mut bytes = Vec::with_capacity(ids.len() * 10 + 8);
            for (ds, id) in &ids {
                bytes.extend_from_slice(&ds.to_le_bytes());
                bytes.extend_from_slice(&id.to_le_bytes());
            }
            bytes.extend_from_slice(&q.count.to_le_bytes());
            acc = acc
                .wrapping_mul(0x100000001B3)
                .wrapping_add(crc32(&bytes) as u64)
                .wrapping_add(ids.len() as u64);
        }
    }
    acc
}

/// Percentile over raw samples (nearest-rank; `p` in 0..=100).
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

fn digest(
    label: &str,
    reqs: &[ReplayRequest],
    fates: &[RequestFate],
    tenant_filter: Option<u16>,
) -> ServeRun {
    let mut latencies = Vec::new();
    let mut served = 0usize;
    let mut shed = 0usize;
    let mut expired = 0usize;
    let mut batch_total = 0u64;
    for (req, fate) in reqs.iter().zip(fates) {
        if let Some(t) = tenant_filter {
            if req.tenant != t {
                continue;
            }
        }
        match fate {
            RequestFate::Served {
                e2e_micros,
                batch_size,
                ..
            } => {
                served += 1;
                batch_total += *batch_size as u64;
                latencies.push(*e2e_micros as f64);
            }
            RequestFate::Shed { .. } => shed += 1,
            RequestFate::Expired => expired += 1,
        }
    }
    ServeRun {
        label: label.to_string(),
        served,
        shed,
        expired,
        p50_us: percentile(&mut latencies, 50.0),
        p99_us: percentile(&mut latencies, 99.0),
        p999_us: percentile(&mut latencies, 99.9),
        mean_batch: if served > 0 {
            batch_total as f64 / served as f64
        } else {
            0.0
        },
        checksum: checksum_fates(reqs, fates, tenant_filter),
    }
}

/// Digest over every request NOT from `flood_tenant` (the innocents).
fn digest_innocents(label: &str, reqs: &[ReplayRequest], fates: &[RequestFate]) -> ServeRun {
    // Reuse digest by temporarily treating "not tenant 0" as the filter:
    // inline the loop instead, since digest filters by equality.
    let keep: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].tenant != 0).collect();
    let sub_reqs: Vec<ReplayRequest> = keep.iter().map(|&i| reqs[i].clone()).collect();
    let sub_fates: Vec<RequestFate> = keep.iter().map(|&i| fates[i].clone()).collect();
    digest(label, &sub_reqs, &sub_fates, None)
}

/// Runs the full serving-tier experiment.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> ServeComparison {
    let model = BrainModel::new(cfg.dataset_spec.clone());
    let bounds = model.bounds();

    // Batching pair: same trace, fresh engine each run.
    let trace = build_trace(cfg, &bounds);
    let batched_cfg = ServeConfig {
        batch: BatchPolicy {
            max_batch: cfg.max_batch,
        },
        admission: None,
        threads: cfg.threads,
        maintenance_interval: None,
    };
    let (engine, storage) = build_engine(cfg);
    let batched_fates = replay(&engine, &storage, &trace, &batched_cfg).expect("batched replay");
    let per_request_cfg = ServeConfig {
        batch: BatchPolicy::per_request(),
        ..batched_cfg
    };
    let (engine, storage) = build_engine(cfg);
    let single_fates =
        replay(&engine, &storage, &trace, &per_request_cfg).expect("per-request replay");

    // Admission pair: flood trace, fresh engine each run.
    let flood = build_flood_trace(cfg, &bounds);
    let admission_on_cfg = ServeConfig {
        admission: Some(cfg.admission),
        ..batched_cfg
    };
    let (engine, storage) = build_engine(cfg);
    let on_fates = replay(&engine, &storage, &flood, &admission_on_cfg).expect("admission replay");
    let (engine, storage) = build_engine(cfg);
    let off_fates = replay(&engine, &storage, &flood, &batched_cfg).expect("no-admission replay");

    let flood_shed = flood
        .iter()
        .zip(&on_fates)
        .filter(|(r, f)| r.tenant == 0 && matches!(f, RequestFate::Shed { .. }))
        .count();
    let innocent_shed = flood
        .iter()
        .zip(&on_fates)
        .filter(|(r, f)| r.tenant != 0 && matches!(f, RequestFate::Shed { .. }))
        .count();

    ServeComparison {
        batched: digest("batching-on", &trace, &batched_fates, None),
        per_request: digest("batching-off", &trace, &single_fates, None),
        admission_on_innocent: digest_innocents("admission-on", &flood, &on_fates),
        admission_off_innocent: digest_innocents("admission-off", &flood, &off_fates),
        flood_shed,
        innocent_shed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeBenchConfig {
        ServeBenchConfig {
            dataset_spec: DatasetSpec {
                num_datasets: 3,
                objects_per_dataset: 600,
                soma_clusters: 3,
                segments_per_neuron: 20,
                seed: 777,
                ..Default::default()
            },
            requests: 120,
            // A flood long enough that its unchecked backlog dominates the
            // batch-amortisation it incidentally gives innocents (a brief
            // flood can *help* bystanders by donating batch-mates).
            flood_requests: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn batching_preserves_answers_and_does_not_regress_p99() {
        let cmp = run_serve_bench(&small_cfg());
        assert!(
            cmp.answers_match(),
            "coalesced answers must be checksum-equal"
        );
        assert!(
            cmp.batched.p99_us <= cmp.per_request.p99_us,
            "batched p99 {} > per-request p99 {}",
            cmp.batched.p99_us,
            cmp.per_request.p99_us
        );
        assert!(cmp.batched.mean_batch > 1.0, "the backlog must coalesce");
        assert!((cmp.per_request.mean_batch - 1.0).abs() < 1e-9);
        assert_eq!(cmp.batched.served, 120);
        assert_eq!(cmp.per_request.served, 120);
    }

    #[test]
    fn flood_sheds_only_the_flooder_and_bounds_innocent_p99() {
        let cmp = run_serve_bench(&small_cfg());
        assert_eq!(cmp.innocent_shed, 0, "innocent tenants must never shed");
        assert!(cmp.flood_shed > 0, "the flood must shed");
        assert!(
            cmp.admission_on_innocent.p99_us <= cmp.admission_off_innocent.p99_us,
            "admission must not make innocents slower than the unprotected flood: {} > {}",
            cmp.admission_on_innocent.p99_us,
            cmp.admission_off_innocent.p99_us
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let cfg = small_cfg();
        let a = run_serve_bench(&cfg);
        let b = run_serve_bench(&cfg);
        assert_eq!(a, b);
    }
}
