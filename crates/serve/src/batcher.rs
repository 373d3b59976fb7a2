//! Dynamic micro-batching policy: how many pending requests to coalesce
//! into one engine batch, and where the batch must be cut to preserve
//! per-request semantics.
//!
//! The engine's batch call (`execute_ops_batch_with_threads`) runs **all
//! ingests before all queries** inside one batch. Coalescing is therefore
//! only answer-preserving if no query in a batch is followed by an ingest
//! that arrived *after* it: that ingest would be hoisted ahead of the
//! query and could change its answer relative to per-request dispatch.
//! [`batch_cut`] encodes the rule — take pending requests in arrival order
//! up to the size cap, but stop in front of the first ingest once any
//! query is already in the batch. The equivalence test in `tests/serve.rs`
//! checks the end-to-end guarantee (coalesced answers == per-request
//! answers) that this rule buys.

use odyssey_core::EngineOp;

/// Micro-batching knobs. The dispatcher never waits for a batch to fill:
/// whatever queued while the previous batch ran is the next batch
/// ("backlog batching"), cut at `max_batch` by [`batch_cut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Hard cap on requests per engine batch.
    pub max_batch: usize,
}

impl BatchPolicy {
    /// Per-request dispatch: one request per engine call. This is the
    /// baseline the micro-batching bench compares against.
    pub fn per_request() -> Self {
        BatchPolicy { max_batch: 1 }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 32 }
    }
}

/// Returns how many of `pending` (in arrival order) may form one engine
/// batch without changing any request's answer, given the engine's
/// ingests-first batch semantics. Always at least 1 when `pending` is
/// non-empty.
pub fn batch_cut(pending: &[&EngineOp], max_batch: usize) -> usize {
    let cap = pending.len().min(max_batch.max(1));
    let mut saw_query = false;
    for (i, op) in pending.iter().take(cap).enumerate() {
        match op {
            EngineOp::Ingest { .. } if saw_query => return i,
            EngineOp::Ingest { .. } => {}
            EngineOp::Query(_) => saw_query = true,
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_geom::{Aabb, DatasetId, DatasetSet, Query, QueryId, RangeQuery, Vec3};

    fn q(id: u32) -> EngineOp {
        EngineOp::Query(Query::Range(RangeQuery::new(
            QueryId(id),
            Aabb::from_min_max(Vec3::ZERO, Vec3::ONE),
            DatasetSet(1),
        )))
    }

    fn ing() -> EngineOp {
        EngineOp::Ingest {
            dataset: DatasetId(0),
            objects: Vec::new(),
        }
    }

    #[test]
    fn cut_stops_before_an_ingest_that_follows_a_query() {
        let ops = [q(1), q(2), ing(), q(3)];
        let refs: Vec<&EngineOp> = ops.iter().collect();
        assert_eq!(
            batch_cut(&refs, 8),
            2,
            "ingest after queries starts a new batch"
        );
    }

    #[test]
    fn leading_ingests_coalesce_with_following_queries() {
        let ops = [ing(), ing(), q(1), q(2)];
        let refs: Vec<&EngineOp> = ops.iter().collect();
        assert_eq!(
            batch_cut(&refs, 8),
            4,
            "ingests-first ordering matches arrival order here"
        );
    }

    #[test]
    fn cut_respects_the_size_cap_and_is_never_zero() {
        let ops = [q(1), q(2), q(3)];
        let refs: Vec<&EngineOp> = ops.iter().collect();
        assert_eq!(batch_cut(&refs, 2), 2);
        let one = [ing()];
        let refs: Vec<&EngineOp> = one.iter().collect();
        assert_eq!(batch_cut(&refs, 1), 1);
        assert_eq!(batch_cut(&refs, 0), 1, "cap of zero still dispatches one");
    }
}
