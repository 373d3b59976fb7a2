//! `scan_large`: large range queries over every dataset, drained through
//! cursors, on a store whose working set is twenty times the buffer pool.
//! Page read + CRC, decode/filter, eviction and cursor batching are the
//! work; the planner has one obvious answer and the serve tier is idle.

use super::{
    fatal, finish_store, phase, pool_pages, range_spec, replay, shuffle, world_data, world_seed,
    BlockResult, Fallible, Finish, FirstTouchProbe, Workload,
};
use crate::data::{build_store, oracle_checksums, Data, StoreRoot};
use crate::ops::{self, Mark};
use crate::spec::Sizes;
use crate::trace::Tracer;
use odyssey_core::SpaceOdyssey;
use odyssey_datagen::{as_typed_queries, QueryRangeDistribution};
use odyssey_geom::Query;
use odyssey_storage::StorageManager;
use std::path::PathBuf;

/// Share of the brain volume one query covers.
const VOLUME: f64 = 1e-3;
/// Untimed replays of the list before the first block, so refinement and
/// merging have settled and every block sees the same store.
const WARM_REPLAYS: usize = 2;

pub struct ScanLarge {
    data: Data,
    queries: Vec<Query>,
    dir: PathBuf,
    storage: StorageManager,
    engine: SpaceOdyssey,
    probe: FirstTouchProbe,
}

impl ScanLarge {
    pub fn new(sizes: Sizes, seed: u64, root: &StoreRoot) -> Fallible<ScanLarge> {
        let data = phase("generate datasets", || world_data(&sizes));
        let spec = range_spec(
            &sizes,
            sizes.queries_per_block,
            sizes.datasets,
            VOLUME,
            QueryRangeDistribution::Uniform,
            world_seed(2),
        );
        let mut queries = as_typed_queries(&spec.generate(&data.bounds));
        shuffle(&mut queries, seed);
        let dir = root.path("scan_large");
        let (storage, engine) = phase("write raw files, create engine", || {
            build_store(&dir, data.bounds, &data.datasets, pool_pages(&data, 0.05))
        })
        .map_err(fatal("build store"))?;
        phase("warm replays", || {
            (0..WARM_REPLAYS).try_for_each(|_| replay(&engine, &storage, &queries).map(drop))
        })?;
        Ok(ScanLarge {
            data,
            queries,
            dir,
            storage,
            engine,
            probe: FirstTouchProbe::new(root, &sizes, VOLUME),
        })
    }
}

impl Workload for ScanLarge {
    fn block(&mut self, index: usize, tracer: &mut Tracer) -> Fallible<BlockResult> {
        let mut result = BlockResult::default();
        let mark = Mark::take(&self.storage, &self.engine);
        let base = (index * self.queries.len()) as u64;
        for (i, query) in self.queries.iter().enumerate() {
            let op = ops::run_query(
                &self.engine,
                &self.storage,
                query,
                base + i as u64,
                tracer,
                &mut result.tally,
            );
            result.push(op, true);
        }
        result.tally.note_since(&self.storage, &self.engine, &mark);
        Ok(result)
    }

    fn expected(&self) -> Vec<u64> {
        oracle_checksums(&self.queries, &self.data)
    }

    fn first_touch_probe(&self) -> Option<&FirstTouchProbe> {
        Some(&self.probe)
    }

    fn finish(&mut self, tracer: &mut Tracer) -> Fallible<Finish> {
        finish_store(
            &self.dir,
            &self.storage,
            &self.engine,
            self.data.objects(),
            tracer,
        )
    }
}
