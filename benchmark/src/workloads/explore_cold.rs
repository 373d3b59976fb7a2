//! `explore_cold`: the paper's Figure-4 scenario. Every block writes the raw
//! files into a fresh durable store and explores them with the same range
//! queries, so first-touch partitioning, refinement, merging and their WAL
//! records are the work, and the buffer pool starts cold.

use super::{
    fatal, finish_store, pool_pages, range_spec, relabelled_world_data, world_seed, BlockResult,
    Fallible, Finish, Workload,
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
use std::time::Instant;

pub struct ExploreCold {
    data: Data,
    queries: Vec<Query>,
    buffer_pages: usize,
    dir: PathBuf,
    /// The last block's store, kept for `finish`.
    store: Option<(StorageManager, SpaceOdyssey)>,
}

impl ExploreCold {
    pub fn new(sizes: Sizes, seed: u64, root: &StoreRoot) -> ExploreCold {
        let data = relabelled_world_data(&sizes, seed);
        let spec = range_spec(
            &sizes,
            sizes.queries_per_block,
            5,
            1e-4,
            QueryRangeDistribution::Clustered { num_clusters: 10 },
            world_seed(2),
        );
        ExploreCold {
            queries: as_typed_queries(&spec.generate(&data.bounds)),
            buffer_pages: pool_pages(&data, 0.10),
            data,
            dir: root.path("explore_cold"),
            store: None,
        }
    }
}

impl Workload for ExploreCold {
    fn block(&mut self, index: usize, tracer: &mut Tracer) -> Fallible<BlockResult> {
        // The previous block's files must be closed before `create` wipes
        // the directory.
        self.store = None;
        let preparing = Instant::now();
        let (storage, engine) = build_store(
            &self.dir,
            self.data.bounds,
            &self.data.datasets,
            self.buffer_pages,
        )
        .map_err(fatal("build fresh store"))?;
        let mut result = BlockResult {
            prepare_s: preparing.elapsed().as_secs_f64(),
            ..BlockResult::default()
        };
        let mark = Mark::take(&storage, &engine);
        let base = (index * self.queries.len()) as u64;
        for (i, query) in self.queries.iter().enumerate() {
            let op = ops::run_query(
                &engine,
                &storage,
                query,
                base + i as u64,
                tracer,
                &mut result.tally,
            );
            if i == 0 {
                // Every dataset of the first query is touched for the
                // first time.
                result.first_touch_ms = Some(op.seconds * 1e3 / query.datasets().len() as f64);
            }
            result.push(op, true);
        }
        result.tally.note_since(&storage, &engine, &mark);
        self.store = Some((storage, engine));
        Ok(result)
    }

    fn expected(&self) -> Vec<u64> {
        oracle_checksums(&self.queries, &self.data)
    }

    fn finish(&mut self, tracer: &mut Tracer) -> Fallible<Finish> {
        let (storage, engine) = self.store.take().ok_or("finish before any block")?;
        finish_store(&self.dir, &storage, &engine, self.data.objects(), tracer)
    }
}
