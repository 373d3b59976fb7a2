//! The four workloads behind one interface: a block is always the same
//! operation list on the same starting state, so block *i* of any run is the
//! same work.

mod explore_cold;
mod ingest_mix;
mod scan_large;
mod serve_converged;

use crate::data::{build_store, dir_bytes, user_bytes, Data, StoreRoot};
use crate::ops::{self, OpResult, Tally};
use crate::spec::{Sizes, WorkloadKind, WORLD_SEED};
use crate::trace::Tracer;
use odyssey_core::SpaceOdyssey;
use odyssey_datagen::{
    CombinationDistribution, MixedWorkloadSpec, QueryKindMix, QueryRangeDistribution, WorkloadSpec,
};
use odyssey_geom::{Aabb, DatasetId, DatasetSet, Query, QueryId, RangeQuery, SpatialObject, Vec3};
use odyssey_storage::{pages_needed, StorageManager};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A failure that stops the run (set-up or teardown could not be done), as
/// opposed to a failed operation, which is counted.
pub type Fallible<T> = Result<T, String>;

pub fn fatal<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// What one block measured.
#[derive(Debug, Default)]
pub struct BlockResult {
    /// Seconds of untimed preparation the block needed before its first
    /// operation (a fresh store, a restored image): per-block set-up.
    pub prepare_s: f64,
    /// Seconds the caller spent waiting on the block's operations.
    pub wall_s: f64,
    /// Caller-observed latency of every query of the block.
    pub latencies_ms: Vec<f64>,
    /// One checksum per operation, in operation-list order.
    pub checksums: Vec<u64>,
    /// Fresh-engine query latency per raw dataset touched, where the block
    /// starts from a fresh engine.
    pub first_touch_ms: Option<f64>,
    pub tally: Tally,
}

impl BlockResult {
    /// Books one in-process operation: the caller waited `seconds` for it.
    fn push(&mut self, op: OpResult, is_query: bool) {
        self.wall_s += op.seconds;
        if is_query {
            self.latencies_ms.push(op.seconds * 1e3);
        }
        self.checksums.push(op.checksum);
    }
}

/// What is read off the store once the last block is done.
#[derive(Debug, Default)]
pub struct Finish {
    pub space_amp: f64,
    pub checkpoint_s: f64,
    pub dead_page_ratio: f64,
    /// Operations of an end-of-run check (the `ingest_mix` durability
    /// check), counted with the blocks' operations.
    pub extra_attempted: u64,
    pub extra_failed: u64,
    /// Requests the serve tier shed and replies it could not write back.
    pub shed: u64,
    pub dropped_replies: u64,
}

pub trait Workload {
    /// Runs one block. Every call does the same work.
    fn block(&mut self, index: usize, tracer: &mut Tracer) -> Fallible<BlockResult>;

    /// The brute-force oracle's checksum for every operation of a block.
    fn expected(&self) -> Vec<u64>;

    /// The probe behind `first_touch_ms`, for workloads whose blocks do not
    /// start from a fresh engine themselves.
    fn first_touch_probe(&self) -> Option<&FirstTouchProbe> {
        None
    }

    /// Per-layer numbers only this workload can give, from extra traced
    /// blocks it runs itself; returns those blocks' tally.
    fn layer_extras(
        &mut self,
        _tracer: &mut Tracer,
        _out: &mut BTreeMap<&'static str, f64>,
    ) -> Fallible<Tally> {
        Ok(Tally::default())
    }

    /// Reads space and store state after the last block and tears down.
    fn finish(&mut self, tracer: &mut Tracer) -> Fallible<Finish>;
}

pub fn create(
    kind: WorkloadKind,
    sizes: Sizes,
    seed: u64,
    root: &StoreRoot,
    tracer: &Tracer,
) -> Fallible<Box<dyn Workload>> {
    Ok(match kind {
        WorkloadKind::ExploreCold => Box::new(explore_cold::ExploreCold::new(sizes, seed, root)),
        WorkloadKind::ServeConverged => Box::new(serve_converged::ServeConverged::new(
            sizes, seed, root, tracer,
        )?),
        WorkloadKind::ScanLarge => Box::new(scan_large::ScanLarge::new(sizes, seed, root)?),
        WorkloadKind::IngestMix => Box::new(ingest_mix::IngestMix::new(sizes, seed, root)?),
    })
}

/// Runs one set-up phase and prints how long it took, so that a change in
/// `setup_s` points at a phase.
fn phase<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    println!("set-up: {name} {:.3} s", start.elapsed().as_secs_f64());
    out
}

/// Distinct seeds for the generators of the fixed world.
fn world_seed(stream: u64) -> u64 {
    WORLD_SEED.wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Fisher-Yates shuffle driven by a splitmix64 stream of `seed`: the one
/// place `--seed` enters a run.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// The world's datasets, unchanged: what the converged workloads serve.
fn world_data(sizes: &Sizes) -> Data {
    Data::generate(sizes.datasets, sizes.objects_per_dataset, world_seed(1))
}

/// The world's datasets with the seed deciding which of them sits behind
/// which dataset id — and so which data each query combination meets. The
/// adaptive workloads draw their seed this way: the sequence of first
/// touches, refinements, merges and repairs stays the list's own, the data
/// under every one of them changes.
fn relabelled_world_data(sizes: &Sizes, seed: u64) -> Data {
    let mut data = world_data(sizes);
    shuffle(&mut data.datasets, seed);
    for (id, objects) in data.datasets.iter_mut().enumerate() {
        for object in objects {
            object.dataset = DatasetId(id as u16);
        }
    }
    data
}

fn range_spec(
    sizes: &Sizes,
    queries: usize,
    datasets_per_query: usize,
    volume: f64,
    range_distribution: QueryRangeDistribution,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        num_datasets: sizes.datasets,
        datasets_per_query: datasets_per_query.min(sizes.datasets),
        num_queries: queries,
        query_volume_fraction: volume,
        range_distribution,
        combination_distribution: CombinationDistribution::Zipf,
        seed,
    }
}

/// `QueryKindMix::balanced()` queries over clustered ranges.
fn balanced_spec(sizes: &Sizes, queries: usize, volume: f64, seed: u64) -> MixedWorkloadSpec {
    MixedWorkloadSpec {
        base: range_spec(
            sizes,
            queries,
            5,
            volume,
            QueryRangeDistribution::Clustered { num_clusters: 10 },
            seed,
        ),
        mix: QueryKindMix::balanced(),
    }
}

/// Buffer-pool pages for a pool holding `share` of the raw pages.
fn pool_pages(data: &Data, share: f64) -> usize {
    ((data.raw_pages() as f64 * share) as usize).max(16)
}

/// Replays `queries` in process, untimed: how set-up warms and converges a
/// store. Returns what the replay did, so callers can tell whether the
/// store still adapts.
fn replay(engine: &SpaceOdyssey, storage: &StorageManager, queries: &[Query]) -> Fallible<Tally> {
    let mut tally = Tally::default();
    let mut idle = Tracer::idle();
    for query in queries {
        let op = ops::run_query(engine, storage, query, 0, &mut idle, &mut tally);
        if op.checksum == ops::FAILED {
            return Err("a set-up query failed".into());
        }
    }
    Ok(tally)
}

/// `first_touch_ms` for workloads whose blocks reuse one engine: the
/// latency of one query on a fresh engine over a raw dataset of the
/// workload's own size, on a fresh store every time. The runner takes the
/// samples between blocks, spread over the whole run, so that a loud
/// moment cannot colour all of them.
pub struct FirstTouchProbe {
    dir: PathBuf,
    bounds: Aabb,
    /// A dataset of the probe's own, so that no seed changes what is probed.
    datasets: Vec<Vec<SpatialObject>>,
    query: Query,
    buffer_pages: usize,
}

impl FirstTouchProbe {
    fn new(root: &StoreRoot, sizes: &Sizes, volume: f64) -> FirstTouchProbe {
        let Data { bounds, datasets } = Data::generate(1, sizes.objects_per_dataset, world_seed(4));
        let side = (bounds.volume() * volume).cbrt();
        let range = Aabb::from_center_extent(datasets[0][0].mbr.center(), Vec3::splat(side));
        FirstTouchProbe {
            dir: root.path("first_touch"),
            bounds,
            query: Query::Range(RangeQuery::new(
                QueryId(0),
                range,
                DatasetSet::single(DatasetId(0)),
            )),
            buffer_pages: (pages_needed(datasets[0].len()) as usize / 10).max(16),
            datasets,
        }
    }

    /// One sample, in milliseconds (the query touches one raw dataset).
    pub fn sample(&self) -> Fallible<f64> {
        let (storage, engine) =
            build_store(&self.dir, self.bounds, &self.datasets, self.buffer_pages)
                .map_err(fatal("first-touch store"))?;
        let op = ops::run_query(
            &engine,
            &storage,
            &self.query,
            0,
            &mut Tracer::idle(),
            &mut Tally::default(),
        );
        if op.checksum == ops::FAILED {
            return Err("the first-touch probe query failed".into());
        }
        Ok(op.seconds * 1e3)
    }
}

/// Space and store state after the last block, then a timed checkpoint.
fn finish_store(
    dir: &Path,
    storage: &StorageManager,
    engine: &SpaceOdyssey,
    user_objects: u64,
    tracer: &mut Tracer,
) -> Fallible<Finish> {
    let bytes = dir_bytes(dir).map_err(fatal("measure store directory"))?;
    let file_pages = storage.total_file_pages();
    let dead_page_ratio = if file_pages == 0 {
        0.0
    } else {
        storage.total_dead_pages() as f64 / file_pages as f64
    };
    let (checkpoint, checkpoint_s) = tracer.call(ops::CHECKPOINT, || engine.checkpoint(storage));
    checkpoint.map_err(fatal("final checkpoint"))?;
    Ok(Finish {
        space_amp: bytes as f64 / user_bytes(user_objects) as f64,
        checkpoint_s,
        dead_page_ratio,
        ..Finish::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let sorted: Vec<u32> = (0..100).collect();
        let (mut a, mut b, mut c) = (sorted.clone(), sorted.clone(), sorted.clone());
        shuffle(&mut a, 1);
        shuffle(&mut b, 1);
        shuffle(&mut c, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, sorted);
        a.sort_unstable();
        assert_eq!(a, sorted);
    }

    #[test]
    fn the_seed_decides_which_data_sits_behind_which_id() {
        let sizes = WORKLOADS[0].quick;
        let (a, b, c) = (
            relabelled_world_data(&sizes, 1),
            relabelled_world_data(&sizes, 1),
            relabelled_world_data(&sizes, 2),
        );
        assert_eq!(a.datasets, b.datasets);
        assert_ne!(a.datasets, c.datasets);
        for (id, objects) in c.datasets.iter().enumerate() {
            assert_eq!(objects.len(), sizes.objects_per_dataset);
            assert!(objects.iter().all(|o| o.dataset == DatasetId(id as u16)));
        }
    }
}
