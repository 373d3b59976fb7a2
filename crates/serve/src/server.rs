//! The real-time front-end: a dispatcher thread multiplexing many client
//! threads onto one shared [`SpaceOdyssey`] engine.
//!
//! # Request lifecycle
//!
//! 1. A client calls [`Frontend::submit`]. Under the `ServeQueue` lock the
//!    request is admission-checked (token bucket + queue slice, see
//!    [`AdmissionController`]) and, if admitted, appended to the pending
//!    queue with its arrival timestamp and a fresh response slot.
//! 2. The dispatcher thread, blocked on the arrival condvar whenever the
//!    queue is empty, cuts an answer-preserving batch ([`batch_cut`]) off
//!    the front of the queue the moment it is free. It never waits for a
//!    batch to fill: the requests that arrived while the previous batch ran
//!    form the next one ("backlog batching"), so an idle server answers a
//!    lone request at once and a loaded one coalesces its backlog. Requests
//!    whose deadline passed while queued are completed with
//!    [`ServeError::DeadlineExceeded`] *before* the engine runs — they
//!    consume no engine time and mutate no engine state.
//! 3. The surviving batch goes to the engine as one
//!    `execute_ops_batch_admitted` call; the admit closure re-checks each
//!    deadline between the batch's ingest and query phases, so a request
//!    that expires while its batch peers execute is also dropped.
//! 4. Outcomes are demultiplexed back into per-request response slots, with
//!    `queue_wait_micros` / `batch_size_served` filled in, and the waiting
//!    clients wake.
//!
//! # Locking
//!
//! The queue lives in a [`LockClass::ServeQueue`] lock — the outermost
//! class in the workspace order — and the dispatcher always releases it
//! before calling into the engine, so front-end locks never interleave
//! with engine or storage locks. Response slots are `WorkCell`-classed
//! leaves.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::batcher::{batch_cut, BatchPolicy};
use crate::protocol::{Request, ServeError, ServeResult, ServedOutcome};
use odyssey_core::{EngineOp, MaintenancePump, OpOutcome, PumpReport, SpaceOdyssey};
use odyssey_storage::sync::{Exclusive, LockClass};
use odyssey_storage::StorageManager;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Anything that can serve a [`Request`]: the in-process handle and the TCP
/// client both implement this, so tests and benches can swap transports.
pub trait Frontend {
    /// Executes one request to completion, blocking until its answer (or
    /// typed failure) is available.
    fn submit(&self, request: Request) -> ServeResult;
}

/// Serving-tier configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Micro-batching policy ([`BatchPolicy::per_request`] disables
    /// coalescing).
    pub batch: BatchPolicy,
    /// Per-tenant admission control; `None` admits everything.
    pub admission: Option<AdmissionConfig>,
    /// Worker threads per engine batch (forwarded to
    /// `execute_ops_batch_admitted`).
    pub threads: usize,
    /// When set, a [`MaintenancePump`] drives `run_maintenance` at this
    /// interval for the server's lifetime (background-maintenance engines
    /// only need this to make progress without query traffic).
    pub maintenance_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch: BatchPolicy::default(),
            admission: None,
            threads: 4,
            maintenance_interval: None,
        }
    }
}

/// Counters reported by [`Server::stop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests answered with an engine outcome.
    pub served: u64,
    /// Requests shed by admission control (rate limit + queue slice).
    pub shed: u64,
    /// Requests dropped at dequeue because their deadline had passed.
    pub expired_at_dequeue: u64,
    /// Maintenance pump summary, when a pump was configured.
    pub pump: Option<PumpReport>,
}

/// One request's response rendezvous: the client blocks on `ready` until
/// the dispatcher fills `cell`.
struct ResponseSlot {
    /// `WorkCell`-classed leaf; holds the result once available.
    cell: Exclusive<Option<ServeResult>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(ResponseSlot {
            cell: Exclusive::new(LockClass::WorkCell, None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, result: ServeResult) {
        let mut guard = self.cell.lock();
        *guard = Some(result);
        drop(guard);
        self.ready.notify_all();
    }

    fn take(&self) -> ServeResult {
        let guard = self.cell.lock();
        let mut guard = self.cell.wait_while(guard, &self.ready, |r| r.is_none());
        guard.take().unwrap_or_else(|| {
            // wait_while returned, so the slot is filled; this arm is
            // unreachable but keeps the panic surface clean.
            Err(ServeError::Engine("response slot drained twice".into()))
        })
    }
}

struct PendingRequest {
    tenant: u16,
    deadline_micros: Option<u64>,
    enqueued_micros: u64,
    op: EngineOp,
    slot: Arc<ResponseSlot>,
}

struct QueueState {
    pending: VecDeque<PendingRequest>,
    admission: Option<AdmissionController>,
    shutting_down: bool,
    served: u64,
    expired_at_dequeue: u64,
}

struct ServerInner {
    engine: Arc<SpaceOdyssey>,
    storage: Arc<StorageManager>,
    cfg: ServeConfig,
    /// `ServeQueue`-classed: always released before engine calls.
    queue: Exclusive<QueueState>,
    arrived: Condvar,
    start: Instant,
}

impl ServerInner {
    /// Microseconds since the server's epoch — the clock domain of request
    /// deadlines and queue-wait measurements.
    fn now_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn submit(&self, request: Request) -> ServeResult {
        let now = self.now_micros();
        let mut q = self.queue.lock();
        if q.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        if let Some(ctl) = q.admission.as_mut() {
            if let Err(reason) = ctl.try_admit(request.tenant, now) {
                return Err(ServeError::Overloaded {
                    tenant: request.tenant,
                    reason,
                });
            }
        }
        let slot = ResponseSlot::new();
        q.pending.push_back(PendingRequest {
            tenant: request.tenant,
            deadline_micros: request.deadline_micros,
            enqueued_micros: now,
            op: request.op,
            slot: Arc::clone(&slot),
        });
        drop(q);
        self.arrived.notify_all();
        slot.take()
    }

    /// Dispatcher loop body: runs until shutdown with an empty queue.
    fn dispatch_loop(&self) {
        loop {
            let mut q = self.queue.lock();
            q = self.queue.wait_while(q, &self.arrived, |s| {
                s.pending.is_empty() && !s.shutting_down
            });
            if q.pending.is_empty() {
                // Only reachable when shutting down: drain is complete.
                return;
            }
            let ops: Vec<&EngineOp> = q.pending.iter().map(|p| &p.op).collect();
            let take = batch_cut(&ops, self.cfg.batch.max_batch);
            let mut batch: Vec<PendingRequest> = q.pending.drain(..take).collect();
            let now = self.now_micros();
            for req in &batch {
                if let Some(ctl) = q.admission.as_mut() {
                    ctl.release(req.tenant);
                }
            }
            // Deadline check at dequeue: expired requests answer without
            // touching the engine.
            let mut kept = Vec::with_capacity(batch.len());
            for req in batch.drain(..) {
                if req.deadline_micros.is_some_and(|d| now > d) {
                    q.expired_at_dequeue += 1;
                    self.engine.note_deadlines_expired(1);
                    req.slot
                        .fill(Err(ServeError::DeadlineExceeded { tenant: req.tenant }));
                } else {
                    kept.push(req);
                }
            }
            drop(q);
            if kept.is_empty() {
                continue;
            }
            self.execute_batch(kept, now);
        }
    }

    /// Runs one cut batch through the engine and demultiplexes the answers.
    /// Called with no locks held.
    fn execute_batch(&self, batch: Vec<PendingRequest>, dispatched_micros: u64) {
        let ops: Vec<EngineOp> = batch.iter().map(|p| p.op.clone()).collect();
        let deadlines: Vec<Option<u64>> = batch.iter().map(|p| p.deadline_micros).collect();
        let batch_size = batch.len();
        // Re-checked between the batch's ingest and query phases: a request
        // whose deadline expires mid-batch is dropped before execution (the
        // engine counts it in `deadlines_expired`).
        let admit = |i: usize| {
            deadlines
                .get(i)
                .copied()
                .flatten()
                .is_none_or(|d| self.now_micros() <= d)
        };
        let result = self.engine.execute_ops_batch_admitted(
            &self.storage,
            &ops,
            self.cfg.threads.max(1),
            admit,
        );
        match result {
            Ok(outcomes) => {
                let mut served = 0u64;
                let mut wait_total = 0u64;
                for (req, outcome) in batch.into_iter().zip(outcomes) {
                    match outcome {
                        Some(mut outcome) => {
                            let wait = dispatched_micros.saturating_sub(req.enqueued_micros);
                            if let OpOutcome::Query(q) = &mut outcome {
                                q.queue_wait_micros = wait;
                                q.batch_size_served = batch_size as u64;
                            }
                            served += 1;
                            wait_total += wait;
                            req.slot.fill(Ok(ServedOutcome {
                                outcome,
                                queue_wait_micros: wait,
                                batch_size,
                            }));
                        }
                        None => {
                            req.slot
                                .fill(Err(ServeError::DeadlineExceeded { tenant: req.tenant }));
                        }
                    }
                }
                self.engine.note_queue_wait_micros(wait_total);
                self.engine.note_batch_served(served);
                let mut q = self.queue.lock();
                q.served += served;
            }
            Err(e) => {
                let msg = e.to_string();
                for req in batch {
                    req.slot.fill(Err(ServeError::Engine(msg.clone())));
                }
            }
        }
    }
}

/// The serving tier: owns the dispatcher thread and (optionally) a
/// maintenance pump, and hands out [`ServeHandle`]s for clients.
pub struct Server {
    inner: Arc<ServerInner>,
    dispatcher: Option<JoinHandle<()>>,
    pump: Option<MaintenancePump>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("cfg", &self.inner.cfg)
            .field("running", &self.dispatcher.is_some())
            .finish()
    }
}

impl Server {
    /// Starts the dispatcher (and the maintenance pump when configured)
    /// over a shared engine and store.
    pub fn start(
        engine: Arc<SpaceOdyssey>,
        storage: Arc<StorageManager>,
        cfg: ServeConfig,
    ) -> Server {
        let inner = Arc::new(ServerInner {
            engine: Arc::clone(&engine),
            storage: Arc::clone(&storage),
            cfg,
            queue: Exclusive::new(
                LockClass::ServeQueue,
                QueueState {
                    pending: VecDeque::new(),
                    admission: cfg.admission.map(AdmissionController::new),
                    shutting_down: false,
                    served: 0,
                    expired_at_dequeue: 0,
                },
            ),
            arrived: Condvar::new(),
            start: Instant::now(),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("odyssey-serve-dispatch".into())
                .spawn(move || inner.dispatch_loop())
                .unwrap_or_else(|e| {
                    // analyzer: allow(thread spawn failure at startup is unrecoverable)
                    panic!("failed to spawn dispatcher thread: {e}")
                })
        };
        let pump = cfg
            .maintenance_interval
            .map(|interval| MaintenancePump::start(engine, storage, interval));
        Server {
            inner,
            dispatcher: Some(dispatcher),
            pump,
        }
    }

    /// A cloneable in-process client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The server's clock (microseconds since its epoch) — deadlines in
    /// submitted requests use this domain.
    pub fn now_micros(&self) -> u64 {
        self.inner.now_micros()
    }

    /// Stops accepting requests, drains the pending queue, joins the
    /// dispatcher and pump, and reports serving counters.
    pub fn stop(mut self) -> ServeReport {
        self.shutdown();
        let q = self.inner.queue.lock();
        let shed = q
            .admission
            .as_ref()
            .map_or(0, |ctl| ctl.shed_rate_limited() + ctl.shed_queue_full());
        let report = ServeReport {
            served: q.served,
            shed,
            expired_at_dequeue: q.expired_at_dequeue,
            pump: None,
        };
        drop(q);
        let pump = self.pump.take().map(|p| match p.stop() {
            Ok(report) => report,
            Err(_) => PumpReport {
                pumps: 0,
                panics: 1,
            },
        });
        ServeReport { pump, ..report }
    }

    fn shutdown(&mut self) {
        {
            let mut q = self.inner.queue.lock();
            q.shutting_down = true;
        }
        self.inner.arrived.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            // A dispatcher panic already answered no one; joining surfaces
            // that the thread is gone so shutdown isn't silently lossy.
            if handle.join().is_err() {
                eprintln!("serve: dispatcher thread panicked during shutdown");
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Frontend for Server {
    fn submit(&self, request: Request) -> ServeResult {
        self.inner.submit(request)
    }
}

/// Cloneable in-process client of a [`Server`]; implements [`Frontend`].
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<ServerInner>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle").finish()
    }
}

impl Frontend for ServeHandle {
    fn submit(&self, request: Request) -> ServeResult {
        self.inner.submit(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_core::OdysseyConfig;
    use odyssey_geom::{
        Aabb, CountQuery, DatasetId, DatasetSet, ObjectId, Query, QueryId, SpatialObject, Vec3,
    };
    use odyssey_storage::{write_raw_dataset, StorageOptions};

    fn new_engine() -> (Arc<SpaceOdyssey>, Arc<StorageManager>) {
        let storage = Arc::new(StorageManager::new(StorageOptions::in_memory(512)));
        let bounds = Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0));
        let config = OdysseyConfig::paper(bounds);
        let raws = vec![write_raw_dataset(&storage, DatasetId(0), &[]).expect("raw dataset")];
        let engine = Arc::new(SpaceOdyssey::new(config, raws).expect("valid config"));
        (engine, storage)
    }

    fn obj(id: u64, x: f64) -> SpatialObject {
        SpatialObject::new(
            ObjectId(id),
            DatasetId(0),
            Aabb::from_min_max(Vec3::splat(x), Vec3::splat(x + 1.0)),
        )
    }

    fn count_all(id: u32) -> Request {
        Request {
            tenant: 0,
            deadline_micros: None,
            op: EngineOp::Query(Query::Count(CountQuery::new(
                QueryId(id),
                Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0)),
                DatasetSet::from_ids([DatasetId(0)]),
            ))),
        }
    }

    #[test]
    fn serves_an_ingest_then_queries_reflect_it() {
        let (engine, storage) = new_engine();
        let server = Server::start(engine, storage, ServeConfig::default());
        let ingest = Request {
            tenant: 1,
            deadline_micros: None,
            op: EngineOp::Ingest {
                dataset: DatasetId(0),
                objects: (0..10).map(|i| obj(i, i as f64)).collect(),
            },
        };
        let served = server.submit(ingest).expect("ingest served");
        match served.outcome {
            OpOutcome::Ingest(i) => assert_eq!(i.objects_ingested, 10),
            other => panic!("expected ingest outcome, got {other:?}"),
        }
        let served = server.submit(count_all(1)).expect("query served");
        match served.outcome {
            OpOutcome::Query(q) => {
                assert_eq!(q.count, 10);
                assert!(q.batch_size_served >= 1);
            }
            other => panic!("expected query outcome, got {other:?}"),
        }
        let report = server.stop();
        assert_eq!(report.served, 2);
        assert_eq!(report.shed, 0);
    }

    #[test]
    fn expired_deadline_is_rejected_without_engine_work() {
        let (engine, storage) = new_engine();
        let cfg = ServeConfig {
            batch: BatchPolicy { max_batch: 8 },
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(&engine), storage, cfg);
        // Wait out the deadline before submitting, so it has already
        // passed when the request is queued.
        let deadline = server.now_micros();
        while server.now_micros() <= deadline {
            std::hint::spin_loop();
        }
        let mut req = count_all(7);
        req.deadline_micros = Some(deadline);
        let result = server.submit(req);
        assert_eq!(result, Err(ServeError::DeadlineExceeded { tenant: 0 }));
        assert_eq!(engine.queries_executed(), 0);
        assert!(engine.deadlines_expired() >= 1);
        let report = server.stop();
        assert_eq!(report.served, 0);
        assert_eq!(report.expired_at_dequeue, 1);
    }

    #[test]
    fn shutdown_rejects_new_requests_with_a_typed_error() {
        let (engine, storage) = new_engine();
        let server = Server::start(engine, storage, ServeConfig::default());
        let handle = server.handle();
        drop(server); // shuts down via Drop
        assert_eq!(handle.submit(count_all(1)), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn admission_sheds_a_burst_past_the_bucket() {
        let (engine, storage) = new_engine();
        let cfg = ServeConfig {
            batch: BatchPolicy::per_request(),
            admission: Some(AdmissionConfig {
                tokens_per_sec: 1.0,
                burst_tokens: 2.0,
                max_queued_per_tenant: 64,
            }),
            ..ServeConfig::default()
        };
        let server = Server::start(engine, storage, cfg);
        let mut ok = 0;
        let mut shed = 0;
        for i in 0..6 {
            match server.submit(count_all(i)) {
                Ok(_) => ok += 1,
                Err(ServeError::Overloaded { tenant: 0, .. }) => shed += 1,
                other => panic!("unexpected result: {other:?}"),
            }
        }
        assert_eq!(ok, 2, "burst capacity admits exactly two");
        assert_eq!(shed, 4);
        let report = server.stop();
        assert_eq!(report.served, 2);
        assert_eq!(report.shed, 4);
    }
}
