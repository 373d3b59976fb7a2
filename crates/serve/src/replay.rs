//! Deterministic virtual-time replay of an open-loop request trace through
//! the serving tier's policies.
//!
//! The real [`Server`](crate::Server) measures wall-clock time, which makes
//! its latency distribution non-deterministic and meaningless on a 1-core
//! CI runner. The replay reproduces the same decisions — admission at
//! arrival instants, backlog batching (a batch is dispatched at
//! `max(busy_until, head arrival)` and takes what queued by then), the
//! answer-preserving batch cut, deadline expiry at dispatch — against a
//! **virtual clock**, and charges each batch its simulated I/O cost from
//! the storage cost model (`StorageManager::seconds_since`). Worker-pool
//! parallelism is modeled: a batch of `b` requests executed with `t`
//! configured threads completes in `cost / min(t, b)` virtual time, which
//! is exactly why coalescing beats per-request dispatch — a lone request
//! can only keep one worker busy. Engine answers are computed with one real thread so results are
//! bit-reproducible; the thread count only scales the virtual makespan.
//!
//! The same trace replayed with the same seed and configuration produces
//! identical fates and identical latency percentiles on any machine, which
//! is what lets CI gate on them.

use crate::admission::AdmissionController;
use crate::batcher::batch_cut;
use crate::protocol::ShedReason;
use crate::server::ServeConfig;
use odyssey_core::{EngineOp, OpOutcome, SpaceOdyssey};
use odyssey_storage::{StorageManager, StorageResult};
use std::collections::VecDeque;

/// One request of an open-loop trace: it arrives at its offset regardless
/// of how the previous requests fared (the load is not closed-loop).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRequest {
    /// Arrival time, microseconds since the trace's start.
    pub offset_micros: u64,
    /// Issuing tenant.
    pub tenant: u16,
    /// Relative deadline: the request expires `deadline_micros` after its
    /// arrival. `None` never expires.
    pub deadline_micros: Option<u64>,
    /// The operation.
    pub op: EngineOp,
}

/// What happened to one replayed request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFate {
    /// Executed by the engine.
    Served {
        /// Virtual microseconds spent queued before dispatch.
        queue_wait_micros: u64,
        /// Virtual end-to-end latency: arrival to batch completion.
        e2e_micros: u64,
        /// Size of the coalesced batch that served it.
        batch_size: usize,
        /// The engine's answer.
        outcome: OpOutcome,
    },
    /// Refused at its arrival instant by admission control.
    Shed {
        /// What overflowed.
        reason: ShedReason,
    },
    /// Admitted but expired before its batch executed; the engine never
    /// saw it.
    Expired,
}

struct ReplayState<'a> {
    requests: &'a [ReplayRequest],
    fates: Vec<Option<RequestFate>>,
    admission: Option<AdmissionController>,
    /// Next arrival index not yet processed.
    arrived: usize,
    /// Admitted, undispatched request indices in arrival order.
    queue: VecDeque<usize>,
}

impl ReplayState<'_> {
    /// Processes every arrival with `offset <= now`: sheds or enqueues.
    fn admit_arrivals_up_to(&mut self, now: u64) {
        while self.arrived < self.requests.len() && self.requests[self.arrived].offset_micros <= now
        {
            let i = self.arrived;
            self.arrived += 1;
            let req = &self.requests[i];
            match self.admission.as_mut() {
                Some(ctl) => match ctl.try_admit(req.tenant, req.offset_micros) {
                    Ok(()) => self.queue.push_back(i),
                    Err(reason) => self.fates[i] = Some(RequestFate::Shed { reason }),
                },
                None => self.queue.push_back(i),
            }
        }
    }
}

/// Replays `requests` (sorted by `offset_micros`) through the serving
/// policies in `cfg` against a shared engine, in virtual time. Returns one
/// fate per request, in input order.
pub fn replay(
    engine: &SpaceOdyssey,
    storage: &StorageManager,
    requests: &[ReplayRequest],
    cfg: &ServeConfig,
) -> StorageResult<Vec<RequestFate>> {
    debug_assert!(
        requests
            .windows(2)
            .all(|w| w[0].offset_micros <= w[1].offset_micros),
        "replay requires arrival-sorted requests"
    );
    let mut st = ReplayState {
        requests,
        fates: vec![None; requests.len()],
        admission: cfg.admission.map(AdmissionController::new),
        arrived: 0,
        queue: VecDeque::new(),
    };
    let mut busy_until = 0u64;
    loop {
        if st.queue.is_empty() {
            if st.arrived >= requests.len() {
                break;
            }
            // Idle: jump the clock to the next arrival.
            let next = requests[st.arrived].offset_micros;
            st.admit_arrivals_up_to(next);
            continue;
        }
        // Backlog batching: dispatch as soon as the engine is free, taking
        // whatever arrived by then.
        let head_arrival = requests[st.queue[0]].offset_micros;
        let dispatch = busy_until.max(head_arrival);
        st.admit_arrivals_up_to(dispatch);
        let pending: Vec<&EngineOp> = st.queue.iter().map(|&i| &requests[i].op).collect();
        let take = batch_cut(&pending, cfg.batch.max_batch);
        let batch_idx: Vec<usize> = st.queue.drain(..take).collect();
        if let Some(ctl) = st.admission.as_mut() {
            for &i in &batch_idx {
                ctl.release(requests[i].tenant);
            }
        }
        // Deadline check at dispatch: expired requests never reach the
        // engine and never advance the virtual clock.
        let mut admitted = Vec::with_capacity(batch_idx.len());
        for &i in &batch_idx {
            let expired = requests[i]
                .deadline_micros
                .is_some_and(|d| dispatch > requests[i].offset_micros.saturating_add(d));
            if expired {
                st.fates[i] = Some(RequestFate::Expired);
                engine.note_deadlines_expired(1);
            } else {
                admitted.push(i);
            }
        }
        if admitted.is_empty() {
            busy_until = busy_until.max(dispatch);
            continue;
        }
        let ops: Vec<EngineOp> = admitted.iter().map(|&i| requests[i].op.clone()).collect();
        let before = storage.stats();
        // One real thread: answers stay bit-reproducible. Parallelism is
        // applied to the *virtual* makespan below.
        let outcomes = engine.execute_ops_batch_with_threads(storage, &ops, 1)?;
        let cost_micros = (storage.seconds_since(&before) * 1_000_000.0) as u64;
        let workers = cfg.threads.max(1).min(ops.len()) as u64;
        let makespan = cost_micros / workers.max(1);
        let done = dispatch + makespan;
        let batch_size = ops.len();
        let mut wait_total = 0u64;
        for (&i, mut outcome) in admitted.iter().zip(outcomes) {
            let queue_wait = dispatch - requests[i].offset_micros;
            wait_total += queue_wait;
            if let OpOutcome::Query(q) = &mut outcome {
                q.queue_wait_micros = queue_wait;
                q.batch_size_served = batch_size as u64;
            }
            st.fates[i] = Some(RequestFate::Served {
                queue_wait_micros: queue_wait,
                e2e_micros: done - requests[i].offset_micros,
                batch_size,
                outcome,
            });
        }
        engine.note_queue_wait_micros(wait_total);
        engine.note_batch_served(batch_size as u64);
        busy_until = done;
    }
    // Every request is arrival-processed exactly once, so every fate is
    // filled; the fallback arm keeps the panic surface clean.
    Ok(st
        .fates
        .into_iter()
        .map(|f| f.unwrap_or(RequestFate::Expired))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::batcher::BatchPolicy;
    use odyssey_core::OdysseyConfig;
    use odyssey_geom::{
        Aabb, CountQuery, DatasetId, DatasetSet, ObjectId, Query, QueryId, SpatialObject, Vec3,
    };
    use odyssey_storage::{write_raw_dataset, StorageOptions};

    fn new_engine() -> (SpaceOdyssey, StorageManager) {
        let storage = StorageManager::new(StorageOptions::in_memory(1024));
        let bounds = Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0));
        let objects: Vec<SpatialObject> = (0..200u64)
            .map(|i| {
                let x = (i % 100) as f64;
                SpatialObject::new(
                    ObjectId(i),
                    DatasetId(0),
                    Aabb::from_min_max(Vec3::splat(x * 0.9), Vec3::splat(x * 0.9 + 1.0)),
                )
            })
            .collect();
        let raws = vec![write_raw_dataset(&storage, DatasetId(0), &objects).expect("raw dataset")];
        let engine = SpaceOdyssey::new(OdysseyConfig::paper(bounds), raws).expect("valid config");
        (engine, storage)
    }

    fn count_req(offset: u64, tenant: u16, id: u32) -> ReplayRequest {
        ReplayRequest {
            offset_micros: offset,
            tenant,
            deadline_micros: None,
            op: EngineOp::Query(Query::Count(CountQuery::new(
                QueryId(id),
                Aabb::from_min_max(Vec3::ZERO, Vec3::splat(50.0)),
                DatasetSet::from_ids([DatasetId(0)]),
            ))),
        }
    }

    #[test]
    fn replay_is_deterministic_and_serves_everything_without_admission() {
        let reqs: Vec<ReplayRequest> = (0..40)
            .map(|i| count_req(i * 100, (i % 3) as u16, i as u32))
            .collect();
        let cfg = ServeConfig::default();
        // Fresh engine per replay: replaying mutates adaptive engine state
        // (result cache, statistics), so determinism is engine-for-engine.
        let run = || {
            let (engine, storage) = new_engine();
            replay(&engine, &storage, &reqs, &cfg).expect("replay")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same trace, same config => identical fates");
        assert!(a.iter().all(|f| matches!(f, RequestFate::Served { .. })));
    }

    #[test]
    fn batching_coalesces_and_per_request_does_not() {
        let (engine, storage) = new_engine();
        // 8 requests arrive 10us apart, faster than one batch executes, so
        // the later ones queue behind the first and form a backlog batch.
        let reqs: Vec<ReplayRequest> = (0..8).map(|i| count_req(i * 10, 0, i as u32)).collect();
        let coalesced = replay(
            &engine,
            &storage,
            &reqs,
            &ServeConfig {
                batch: BatchPolicy { max_batch: 16 },
                ..ServeConfig::default()
            },
        )
        .expect("replay");
        assert!(coalesced
            .iter()
            .any(|f| matches!(f, RequestFate::Served { batch_size, .. } if *batch_size > 1)));
        let singles = replay(
            &engine,
            &storage,
            &reqs,
            &ServeConfig {
                batch: BatchPolicy::per_request(),
                ..ServeConfig::default()
            },
        )
        .expect("replay");
        assert!(singles
            .iter()
            .all(|f| matches!(f, RequestFate::Served { batch_size: 1, .. })));
    }

    #[test]
    fn relative_deadlines_expire_queued_requests_deterministically() {
        let (engine, storage) = new_engine();
        let mut reqs: Vec<ReplayRequest> = (0..10).map(|i| count_req(i, 0, i as u32)).collect();
        for r in &mut reqs {
            r.deadline_micros = Some(0); // expires immediately after arrival
        }
        let cfg = ServeConfig {
            batch: BatchPolicy { max_batch: 64 },
            ..ServeConfig::default()
        };
        let fates = replay(&engine, &storage, &reqs, &cfg).expect("replay");
        // Requests arriving while an earlier batch executes queue past their
        // zero deadline; only a request dispatched at its own arrival
        // instant (the first) can still be served.
        let expired = fates
            .iter()
            .filter(|f| matches!(f, RequestFate::Expired))
            .count();
        assert!(expired >= 9, "expired {expired}/10");
        assert!(engine.deadlines_expired() >= expired as u64);
    }

    #[test]
    fn flooding_tenant_sheds_while_innocent_tenant_is_served() {
        let (engine, storage) = new_engine();
        let mut reqs = Vec::new();
        // Tenant 0 floods: 300 requests in 3ms. Tenant 1 submits 10 spaced out.
        for i in 0..300u64 {
            reqs.push(count_req(i * 10, 0, i as u32));
        }
        for i in 0..10u64 {
            reqs.push(count_req(i * 300, 1, 1_000 + i as u32));
        }
        reqs.sort_by_key(|r| r.offset_micros);
        let cfg = ServeConfig {
            admission: Some(AdmissionConfig {
                tokens_per_sec: 1_000.0,
                burst_tokens: 8.0,
                max_queued_per_tenant: 16,
            }),
            ..ServeConfig::default()
        };
        let fates = replay(&engine, &storage, &reqs, &cfg).expect("replay");
        let shed_by_tenant = |t: u16| {
            reqs.iter()
                .zip(&fates)
                .filter(|(r, f)| r.tenant == t && matches!(f, RequestFate::Shed { .. }))
                .count()
        };
        assert!(shed_by_tenant(0) > 200, "the flood must mostly shed");
        assert_eq!(shed_by_tenant(1), 0, "innocent tenants are never shed");
    }
}
