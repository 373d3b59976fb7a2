//! The calls the harness makes into the engine and the serve tier, each
//! under a named span, and the counters it reads back from their public
//! outcomes.

use crate::data::{answer_checksum, objects_sum};
use crate::trace::Tracer;
use odyssey_core::{AccessPath, EngineOp, QueryOutcome, SpaceOdyssey};
use odyssey_geom::{DatasetId, Query, SpatialObject};
use odyssey_serve::{Frontend, Request, ServeResult};
use odyssey_storage::{IoStats, StorageManager, StorageResult};

pub const OPEN: &str = "core.cursor.open";
pub const FIRST_BATCH: &str = "core.cursor.first_batch";
pub const NEXT_BATCH: &str = "core.cursor.next_batch";
pub const FINISH: &str = "core.cursor.finish";
pub const INGEST: &str = "core.engine.ingest";
pub const TCP_SUBMIT: &str = "serve.tcp.submit";
pub const HANDLE_SUBMIT: &str = "serve.server.submit";
pub const ENGINE_OPEN: &str = "core.durability.open";
pub const STORAGE_OPEN: &str = "storage.manager.open";
pub const CHECKPOINT: &str = "core.durability.checkpoint";

/// Checksum recorded for an operation that returned an error; no answer
/// hashes to it, so it also fails the comparison with the expected value.
pub const FAILED: u64 = u64::MAX;

/// Books a failed operation, saying why on standard error.
fn failed(seconds: f64, op: u64, error: &dyn std::fmt::Display) -> OpResult {
    eprintln!("operation {op} failed: {error}");
    OpResult {
        seconds,
        checksum: FAILED,
    }
}

/// Counts read from public outcomes and counters, summed over operations.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub queries: u64,
    pub ingests: u64,
    pub rows: u64,
    pub batches: u64,
    pub plans_seqscan: u64,
    pub plans_octree: u64,
    pub plans_mergefile: u64,
    pub estimated_seconds: f64,
    pub partitions_refined: u64,
    pub partitions_from_merge: u64,
    pub partitions_from_datasets: u64,
    pub merges: u64,
    pub stale_repairs: u64,
    pub stale_bypasses: u64,
    pub compactions: u64,
    pub objects_ingested: u64,
    pub queue_wait_us: Vec<f64>,
    pub batch_sizes: Vec<f64>,
    /// Storage counters over the same operations.
    pub io: IoStats,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub simulated_seconds: f64,
    pub wall_seconds: f64,
    pub wal_pages: u64,
    pub blocks: u64,
}

impl Tally {
    pub fn note_query(&mut self, outcome: &QueryOutcome, rows: u64, batches: u64) {
        self.queries += 1;
        self.rows += rows;
        self.batches += batches;
        for plan in &outcome.plans {
            match plan.path {
                AccessPath::SeqScan => self.plans_seqscan += 1,
                AccessPath::Octree => self.plans_octree += 1,
                AccessPath::MergeFile => self.plans_mergefile += 1,
            }
            self.estimated_seconds += plan.estimated_seconds;
        }
        self.partitions_refined += outcome.partitions_refined as u64;
        self.partitions_from_merge += outcome.partitions_from_merge_file as u64;
        self.partitions_from_datasets += outcome.partitions_from_datasets as u64;
        self.merges += u64::from(outcome.merge_performed);
        self.stale_repairs += outcome.stale_merge_repairs as u64;
    }

    /// Adds what the store's and the engine's counters moved by since
    /// `before`.
    pub fn note_since(&mut self, storage: &StorageManager, engine: &SpaceOdyssey, before: &Mark) {
        let now = Mark::take(storage, engine);
        self.io.merge(&(now.io - before.io));
        self.pool_hits += now.hits - before.hits;
        self.pool_misses += now.misses - before.misses;
        self.pool_evictions += now.evictions - before.evictions;
        self.stale_bypasses += now.stale_bypasses - before.stale_bypasses;
        self.compactions += now.compactions - before.compactions;
        self.simulated_seconds += storage.seconds_since(&before.io);
        // A checkpoint in between resets the log; count that as no growth.
        self.wal_pages += now.wal_pages.saturating_sub(before.wal_pages);
    }

    pub fn merge(&mut self, other: &Tally) {
        self.queries += other.queries;
        self.ingests += other.ingests;
        self.rows += other.rows;
        self.batches += other.batches;
        self.plans_seqscan += other.plans_seqscan;
        self.plans_octree += other.plans_octree;
        self.plans_mergefile += other.plans_mergefile;
        self.estimated_seconds += other.estimated_seconds;
        self.partitions_refined += other.partitions_refined;
        self.partitions_from_merge += other.partitions_from_merge;
        self.partitions_from_datasets += other.partitions_from_datasets;
        self.merges += other.merges;
        self.stale_repairs += other.stale_repairs;
        self.stale_bypasses += other.stale_bypasses;
        self.compactions += other.compactions;
        self.objects_ingested += other.objects_ingested;
        self.queue_wait_us.extend_from_slice(&other.queue_wait_us);
        self.batch_sizes.extend_from_slice(&other.batch_sizes);
        self.io.merge(&other.io);
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_evictions += other.pool_evictions;
        self.simulated_seconds += other.simulated_seconds;
        self.wall_seconds += other.wall_seconds;
        self.wal_pages += other.wal_pages;
        self.blocks += other.blocks;
    }
}

/// The public counters of a store and its engine at one instant.
#[derive(Debug, Clone)]
pub struct Mark {
    io: IoStats,
    hits: u64,
    misses: u64,
    evictions: u64,
    stale_bypasses: u64,
    compactions: u64,
    wal_pages: u64,
}

impl Mark {
    pub fn take(storage: &StorageManager, engine: &SpaceOdyssey) -> Mark {
        let pool = storage.buffer();
        Mark {
            io: storage.stats(),
            hits: pool.hits(),
            misses: pool.misses(),
            evictions: pool.evictions(),
            stale_bypasses: engine.stale_bypasses(),
            compactions: engine.compactions_performed(),
            wal_pages: storage.wal_pages(),
        }
    }
}

/// One finished operation as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Time spent inside the calls the operation made.
    pub seconds: f64,
    pub checksum: u64,
}

/// Runs one query in process through the streaming read path —
/// `open_cursor`, `next_batch` until exhausted, `finish` — which is the
/// loop `execute_query` itself runs; taking it apart here is what lets a
/// traced run see the three phases.
pub fn run_query(
    engine: &SpaceOdyssey,
    storage: &StorageManager,
    query: &Query,
    op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> OpResult {
    let mut batches: Vec<Vec<SpatialObject>> = Vec::new();
    let mut seconds = 0.0;
    let outcome = tracer.request(op, |t| {
        let (cursor, s) = t.call(OPEN, || engine.open_cursor(storage, query));
        seconds += s;
        let mut cursor = cursor?;
        loop {
            let name = if batches.is_empty() {
                FIRST_BATCH
            } else {
                NEXT_BATCH
            };
            let (batch, s) = t.call(name, || cursor.next_batch());
            seconds += s;
            match batch? {
                Some(batch) => batches.push(batch),
                None => break,
            }
        }
        let (outcome, s) = t.call(FINISH, || cursor.finish());
        seconds += s;
        StorageResult::Ok(outcome)
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => return failed(seconds, op, &e),
    };
    let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
    tally.note_query(&outcome, rows, batches.len() as u64);
    let checksum = batches
        .iter()
        .fold(answer_checksum(&[], outcome.count), |acc, batch| {
            acc.wrapping_add(objects_sum(batch))
        });
    OpResult { seconds, checksum }
}

/// Ingests one batch in process; its checksum is the number of objects the
/// engine acknowledged.
pub fn run_ingest(
    engine: &SpaceOdyssey,
    storage: &StorageManager,
    dataset: DatasetId,
    objects: &[SpatialObject],
    op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> OpResult {
    let (outcome, seconds) = tracer.request(op, |t| {
        t.call(INGEST, || engine.ingest(storage, dataset, objects))
    });
    match outcome {
        Ok(outcome) => {
            tally.ingests += 1;
            tally.objects_ingested += outcome.objects_ingested as u64;
            OpResult {
                seconds,
                checksum: outcome.objects_ingested as u64,
            }
        }
        Err(e) => failed(seconds, op, &e),
    }
}

/// Sends one query through a serve front-end (`span` names which) and
/// waits for its answer. A refusal or an error is a failed operation.
pub fn run_served(
    frontend: &dyn Frontend,
    span: &'static str,
    tenant: u16,
    query: &Query,
    op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> OpResult {
    let request = Request {
        tenant,
        deadline_micros: None,
        op: EngineOp::Query(*query),
    };
    let (result, seconds): (ServeResult, f64) =
        tracer.request(op, |t| t.call(span, || frontend.submit(request)));
    let served = match result {
        Ok(served) => served,
        Err(e) => return failed(seconds, op, &e),
    };
    let Some(outcome) = served.outcome.as_query() else {
        return failed(seconds, op, &"a query was answered with an ingest outcome");
    };
    tally.note_query(outcome, outcome.objects.len() as u64, 0);
    tally.queue_wait_us.push(served.queue_wait_micros as f64);
    tally.batch_sizes.push(served.batch_size as f64);
    OpResult {
        seconds,
        checksum: answer_checksum(&outcome.objects, outcome.count),
    }
}
