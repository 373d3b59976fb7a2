//! `ingest_mix`: writes beside reads. Set-up converges a durable store and
//! keeps its directory as an image; every block copies the image, reopens
//! it (`StorageManager::open` + `SpaceOdyssey::open`) and replays the same
//! interleaved ingest+query trace. Overflow appends, ingest-split
//! refinement, stale-merge repair or bypass, WAL append + sync and the
//! reopen itself are the work.

use super::{
    balanced_spec, fatal, finish_store, phase, pool_pages, relabelled_world_data, replay,
    world_seed, BlockResult, Fallible, Finish, FirstTouchProbe, Workload,
};
use crate::data::{build_store, copy_dir, dir_bytes, oracle_checksum, user_bytes, Data, StoreRoot};
use crate::ops::{self, Mark, Tally};
use crate::spec::Sizes;
use crate::trace::Tracer;
use odyssey_core::SpaceOdyssey;
use odyssey_datagen::{IngestProfile, InterleavedTraceSpec, TraceStep};
use odyssey_geom::SpatialObject;
use odyssey_storage::{StorageManager, StorageOptions};
use std::path::PathBuf;
use std::time::Instant;

/// Share of the brain volume the base range of a balanced query covers.
const VOLUME: f64 = 1e-5;

pub struct IngestMix {
    data: Data,
    steps: Vec<TraceStep>,
    buffer_pages: usize,
    image: PathBuf,
    work: PathBuf,
    /// The last block's store, kept for `finish`.
    store: Option<(StorageManager, SpaceOdyssey)>,
    probe: FirstTouchProbe,
}

impl IngestMix {
    pub fn new(sizes: Sizes, seed: u64, root: &StoreRoot) -> Fallible<IngestMix> {
        let data = phase("generate datasets", || relabelled_world_data(&sizes, seed));
        let trace = InterleavedTraceSpec {
            mixed: balanced_spec(&sizes, sizes.queries_per_block, VOLUME, world_seed(2)),
            ingest: IngestProfile {
                ingest_ratio: 0.3,
                batch_size: 64,
                ..IngestProfile::default()
            },
        }
        .generate(&data.bounds);

        let buffer_pages = pool_pages(&data, 0.50);
        let image = root.path("ingest_mix.image");
        let (storage, engine) = phase("write raw files, create engine", || {
            build_store(&image, data.bounds, &data.datasets, buffer_pages)
        })
        .map_err(fatal("build image store"))?;
        let converge = balanced_spec(&sizes, sizes.converge_queries, VOLUME, world_seed(3))
            .generate(&data.bounds);
        phase("converge and close the image", || {
            replay(&engine, &storage, &converge.queries)?;
            engine.close(&storage).map_err(fatal("close image store"))
        })?;
        drop(storage);

        Ok(IngestMix {
            data,
            steps: trace.steps,
            buffer_pages,
            image,
            work: root.path("ingest_mix"),
            store: None,
            probe: FirstTouchProbe::new(root, &sizes, VOLUME),
        })
    }

    fn reopen(&self, tracer: &mut Tracer) -> Fallible<(StorageManager, SpaceOdyssey, f64)> {
        let options = StorageOptions::durable(&self.work, self.buffer_pages);
        let (opened, storage_s) = tracer.call(ops::STORAGE_OPEN, || StorageManager::open(options));
        let (storage, recovered) = opened.map_err(fatal("open store"))?;
        let (engine, engine_s) =
            tracer.call(ops::ENGINE_OPEN, || SpaceOdyssey::open(&storage, recovered));
        let engine = engine.map_err(fatal("recover engine"))?;
        Ok((storage, engine, storage_s + engine_s))
    }

    /// Objects ingested by one replay of the trace.
    fn arrivals(&self) -> impl Iterator<Item = &SpatialObject> {
        self.steps.iter().flat_map(|step| match step {
            TraceStep::Ingest { objects, .. } => objects.as_slice(),
            TraceStep::Query(_) => &[],
        })
    }
}

impl Workload for IngestMix {
    fn block(&mut self, index: usize, tracer: &mut Tracer) -> Fallible<BlockResult> {
        self.store = None;
        let preparing = Instant::now();
        copy_dir(&self.image, &self.work).map_err(fatal("restore image"))?;
        let mut result = BlockResult {
            prepare_s: preparing.elapsed().as_secs_f64(),
            ..BlockResult::default()
        };
        let (storage, engine, open_s) = self.reopen(tracer)?;
        // Reopening is part of what the caller waits for in this workload.
        result.wall_s += open_s;
        let mark = Mark::take(&storage, &engine);
        let base = (index * self.steps.len()) as u64;
        for (i, step) in self.steps.iter().enumerate() {
            let op_id = base + i as u64;
            let tally = &mut result.tally;
            match step {
                TraceStep::Query(query) => {
                    let op = ops::run_query(&engine, &storage, query, op_id, tracer, tally);
                    result.push(op, true);
                }
                TraceStep::Ingest { dataset, objects } => {
                    let op =
                        ops::run_ingest(&engine, &storage, *dataset, objects, op_id, tracer, tally);
                    result.push(op, false);
                }
            }
        }
        result.tally.note_since(&storage, &engine, &mark);
        // No `close`: the block ends like a crash, the next one starts from
        // the image again.
        self.store = Some((storage, engine));
        Ok(result)
    }

    fn expected(&self) -> Vec<u64> {
        let mut arrived: Vec<SpatialObject> = Vec::new();
        self.steps
            .iter()
            .map(|step| match step {
                TraceStep::Ingest { objects, .. } => {
                    arrived.extend_from_slice(objects);
                    objects.len() as u64
                }
                TraceStep::Query(query) => oracle_checksum(
                    query,
                    self.data.datasets.iter().flatten().chain(arrived.iter()),
                ),
            })
            .collect()
    }

    fn first_touch_probe(&self) -> Option<&FirstTouchProbe> {
        Some(&self.probe)
    }

    /// Besides space: the durability check. The last block's engine is
    /// dropped without `close`, the store reopened (WAL replay) and the
    /// block's queries asked again; each must give what the oracle gives
    /// over the seed data plus every ingested object.
    fn finish(&mut self, tracer: &mut Tracer) -> Fallible<Finish> {
        let (storage, engine) = self.store.take().ok_or("finish before any block")?;
        let user_objects = self.data.objects() + self.arrivals().count() as u64;
        let bytes = dir_bytes(&self.work).map_err(fatal("measure store"))?;
        let space_amp = bytes as f64 / user_bytes(user_objects) as f64;
        drop(engine);
        drop(storage);

        let (storage, engine, _) = self.reopen(tracer)?;
        let mut attempted = 0;
        let mut failed = 0;
        let mut tally = Tally::default();
        for query in self.steps.iter().filter_map(TraceStep::as_query) {
            let op = ops::run_query(&engine, &storage, query, u64::MAX, tracer, &mut tally);
            let expected = oracle_checksum(
                query,
                self.data.datasets.iter().flatten().chain(self.arrivals()),
            );
            attempted += 1;
            failed += u64::from(op.checksum != expected);
        }
        let finish = finish_store(&self.work, &storage, &engine, user_objects, tracer)?;
        Ok(Finish {
            space_amp,
            extra_attempted: attempted,
            extra_failed: failed,
            ..finish
        })
    }
}
