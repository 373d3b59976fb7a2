//! The experiment runner: one harness that drives every approach over an
//! identical workload and measures it with the deterministic disk cost model.
//!
//! Methodology mirrors the paper's §4.1:
//!
//! * every approach starts from the same raw dataset files,
//! * every approach is limited to the same memory budget (a buffer pool sized
//!   to a small fraction of the data, like the paper's 1 GB against 50 GB),
//! * caches are cleared before every query,
//! * static approaches pay an indexing phase first; Space Odyssey starts
//!   answering queries immediately,
//! * times are simulated seconds from the disk cost model over the exact page
//!   access trace (see `odyssey_storage::cost` for why this substitution
//!   preserves the paper's comparisons), with wall-clock also recorded.

use odyssey_baselines::strategy::{build_approach, Approach, ApproachConfig};
use odyssey_baselines::GridConfig;
use odyssey_core::{OdysseyConfig, SpaceOdyssey};
use odyssey_datagen::{BrainModel, DatasetSpec, Workload};
use odyssey_geom::{Aabb, DatasetId, SpatialObject};
use odyssey_storage::{
    write_raw_dataset, CostModel, IoStats, RawDataset, StorageManager, StorageOptions,
    OBJECTS_PER_PAGE,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which system to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApproachSelection {
    /// One of the paper's static competitors.
    Static(Approach),
    /// Space Odyssey with the full configuration.
    Odyssey,
    /// Space Odyssey with merging disabled (Figure 5c).
    OdysseyNoMerge,
}

impl ApproachSelection {
    /// Display name used in tables (matches the paper's legends).
    pub fn name(&self) -> String {
        match self {
            ApproachSelection::Static(a) => a.name().to_string(),
            ApproachSelection::Odyssey => "Odyssey".to_string(),
            ApproachSelection::OdysseyNoMerge => "Odyssey w/o merging".to_string(),
        }
    }

    /// The five approaches plotted in Figure 4.
    pub fn figure4_set() -> Vec<ApproachSelection> {
        let mut v: Vec<ApproachSelection> = Approach::FIGURE4
            .iter()
            .map(|a| ApproachSelection::Static(*a))
            .collect();
        v.push(ApproachSelection::Odyssey);
        v
    }
}

/// Scale and environment of an experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The synthetic datasets (number, size, brain volume).
    pub dataset_spec: DatasetSpec,
    /// Buffer-pool budget as a fraction of the raw data size (the paper's
    /// 1 GB / 50 GB ≈ 0.02).
    pub memory_fraction: f64,
    /// Disk cost model.
    pub cost_model: CostModel,
    /// Whether to clear the cache before every query (the paper does).
    pub cold_queries: bool,
    /// Overrides the Grid resolution; `None` picks a resolution scaled to the
    /// data volume (the paper tuned 60³ for its 50 GB datasets through a
    /// parameter sweep, so the cell-occupancy criterion is what transfers).
    pub grid_cells_override: Option<u32>,
    /// Space Odyssey configuration; bounds are overwritten with the dataset
    /// bounds at run time.
    pub odyssey: OdysseyConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        let spec = DatasetSpec::default();
        ExperimentConfig {
            odyssey: OdysseyConfig::paper(spec.bounds),
            dataset_spec: spec,
            memory_fraction: 0.02,
            cost_model: CostModel::default(),
            cold_queries: true,
            grid_cells_override: None,
        }
    }
}

impl ExperimentConfig {
    /// A small configuration for tests and the Criterion benches.
    pub fn small() -> Self {
        let spec = DatasetSpec {
            objects_per_dataset: 4_000,
            num_datasets: 6,
            ..Default::default()
        };
        ExperimentConfig {
            odyssey: OdysseyConfig::paper(spec.bounds),
            dataset_spec: spec,
            ..Default::default()
        }
    }

    /// Grid resolution used for this experiment: either the override or a
    /// resolution targeting a few pages of objects per cell.
    pub fn grid_cells_per_dim(&self) -> u32 {
        if let Some(c) = self.grid_cells_override {
            return c;
        }
        let total_objects =
            (self.dataset_spec.num_datasets * self.dataset_spec.objects_per_dataset) as f64;
        let target_cells = total_objects / (OBJECTS_PER_PAGE as f64 * 2.0);
        (target_cells.cbrt().round() as u32).clamp(4, 60)
    }

    /// Buffer pool size in pages for a given raw-data page count.
    pub fn buffer_pages(&self, raw_pages: u64) -> usize {
        ((raw_pages as f64 * self.memory_fraction) as usize).max(64)
    }
}

/// Per-query measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QueryRecord {
    /// Query position in the workload.
    pub query_id: u32,
    /// Simulated seconds (cost model) for this query.
    pub seconds: f64,
    /// Pages read from the (simulated) device by this query.
    pub pages_read: u64,
    /// Number of result objects.
    pub results: u64,
    /// Whether any part of the answer came from a merge file (Space Odyssey
    /// only; always `false` for static approaches).
    pub used_merge_file: bool,
    /// Whether this query triggered merge-file creation or extension work
    /// (Space Odyssey only); its time includes that adaptation cost.
    pub performed_merge: bool,
}

/// The measurements of one approach over one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApproachRun {
    /// Approach display name.
    pub approach: String,
    /// Simulated seconds spent building indexes (0 for Space Odyssey).
    pub indexing_seconds: f64,
    /// Simulated seconds per query.
    pub queries: Vec<QueryRecord>,
    /// Aggregate I/O counters over the whole run (indexing + querying).
    pub io: IoStats,
    /// Wall-clock seconds the run took on the host (diagnostic only).
    pub wall_seconds: f64,
    /// Sum of result counts over all queries — identical across approaches
    /// when they agree on the answers.
    pub total_results: u64,
}

impl ApproachRun {
    /// Simulated seconds spent on queries.
    pub fn query_seconds(&self) -> f64 {
        self.queries.iter().map(|q| q.seconds).sum()
    }

    /// Total simulated processing cost (indexing + querying), the y-axis of
    /// Figure 4.
    pub fn total_seconds(&self) -> f64 {
        self.indexing_seconds + self.query_seconds()
    }

    /// Number of queries this approach answered before spending
    /// `budget_seconds` of simulated time (used for the paper's
    /// "answers half the queries before Grid finishes indexing" claim).
    pub fn queries_answered_within(&self, budget_seconds: f64) -> usize {
        let mut elapsed = self.indexing_seconds;
        let mut answered = 0;
        for q in &self.queries {
            elapsed += q.seconds;
            if elapsed > budget_seconds {
                break;
            }
            answered += 1;
        }
        answered
    }
}

/// Builds datasets once and runs approaches over workloads.
pub struct ExperimentRunner {
    config: ExperimentConfig,
    datasets: Vec<Vec<SpatialObject>>,
    bounds: Aabb,
}

impl ExperimentRunner {
    /// Generates the synthetic datasets for the given configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        let model = BrainModel::new(config.dataset_spec.clone());
        let datasets = model.generate_all();
        let bounds = model.bounds();
        ExperimentRunner {
            config,
            datasets,
            bounds,
        }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The brain volume shared by the datasets.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The generated datasets (used by Figure 3 and the oracle checks).
    pub fn datasets(&self) -> &[Vec<SpatialObject>] {
        &self.datasets
    }

    /// Creates a runner over externally supplied datasets (e.g. a workload
    /// loaded from JSON) instead of generating synthetic ones.
    pub fn from_datasets(
        config: ExperimentConfig,
        datasets: Vec<Vec<SpatialObject>>,
        bounds: Aabb,
    ) -> Self {
        ExperimentRunner {
            config,
            datasets,
            bounds,
        }
    }

    /// Creates a fresh storage manager and writes the raw dataset files into
    /// it, returning the manager, the raw handles and the I/O snapshot taken
    /// *after* the raw files were written (raw-data creation is not part of
    /// any approach's cost).
    pub(crate) fn fresh_storage(&self) -> (StorageManager, Vec<RawDataset>, IoStats) {
        let raw_pages: u64 = self
            .datasets
            .iter()
            .map(|d| (d.len() as u64).div_ceil(OBJECTS_PER_PAGE as u64))
            .sum();
        let options = StorageOptions::in_memory(self.config.buffer_pages(raw_pages))
            .with_cost_model(self.config.cost_model);
        let storage = StorageManager::new(options);
        let mut raws = Vec::with_capacity(self.datasets.len());
        for (i, objects) in self.datasets.iter().enumerate() {
            raws.push(
                write_raw_dataset(&storage, DatasetId(i as u16), objects)
                    .expect("in-memory raw write cannot fail"),
            );
        }
        storage.clear_cache();
        let snapshot = storage.stats();
        (storage, raws, snapshot)
    }

    /// Runs one approach over the workload.
    pub fn run(&self, selection: ApproachSelection, workload: &Workload) -> ApproachRun {
        match selection {
            ApproachSelection::Static(approach) => self.run_static(approach, workload),
            ApproachSelection::Odyssey => self.run_odyssey(workload, true),
            ApproachSelection::OdysseyNoMerge => self.run_odyssey(workload, false),
        }
    }

    fn run_static(&self, approach: Approach, workload: &Workload) -> ApproachRun {
        let wall_start = Instant::now();
        let (storage, raws, baseline) = self.fresh_storage();
        let approach_config = ApproachConfig {
            grid: GridConfig {
                cells_per_dim: self.config.grid_cells_per_dim(),
                bounds: self.bounds,
                build_buffer_objects: (self.config.buffer_pages(1) * OBJECTS_PER_PAGE).max(1_000),
            },
            ..ApproachConfig::paper(self.bounds)
        };

        // Indexing phase.
        let before_build = storage.stats();
        let index = build_approach(&storage, approach, &approach_config, &raws)
            .expect("in-memory build cannot fail");
        let indexing_seconds = storage.seconds_since(&before_build);

        // Query phase.
        let mut queries = Vec::with_capacity(workload.queries.len());
        let mut total_results = 0u64;
        for q in &workload.queries {
            if self.config.cold_queries {
                storage.clear_cache();
            }
            let before = storage.stats();
            let result = index
                .query(&storage, q)
                .expect("in-memory query cannot fail");
            let seconds = storage.seconds_since(&before);
            let pages_read = storage.stats().since(&before).0.pages_read();
            total_results += result.len() as u64;
            queries.push(QueryRecord {
                query_id: q.id.0,
                seconds,
                pages_read,
                results: result.len() as u64,
                used_merge_file: false,
                performed_merge: false,
            });
        }
        ApproachRun {
            approach: approach.name().to_string(),
            indexing_seconds,
            queries,
            io: storage.stats().since(&baseline).0,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            total_results,
        }
    }

    fn run_odyssey(&self, workload: &Workload, merging: bool) -> ApproachRun {
        let wall_start = Instant::now();
        let (storage, raws, baseline) = self.fresh_storage();
        let mut odyssey_config = self.config.odyssey;
        odyssey_config.bounds = self.bounds;
        odyssey_config.merge_enabled = merging;
        let engine = SpaceOdyssey::new(odyssey_config, raws).expect("validated configuration");

        let mut queries = Vec::with_capacity(workload.queries.len());
        let mut total_results = 0u64;
        for q in &workload.queries {
            if self.config.cold_queries {
                storage.clear_cache();
            }
            let before = storage.stats();
            let outcome = engine
                .execute(&storage, q)
                .expect("in-memory query cannot fail");
            let seconds = storage.seconds_since(&before);
            let pages_read = storage.stats().since(&before).0.pages_read();
            total_results += outcome.objects.len() as u64;
            queries.push(QueryRecord {
                query_id: q.id.0,
                seconds,
                pages_read,
                results: outcome.objects.len() as u64,
                used_merge_file: outcome.used_merge_file(),
                performed_merge: outcome.merge_performed,
            });
        }
        ApproachRun {
            approach: if merging {
                "Odyssey"
            } else {
                "Odyssey w/o merging"
            }
            .to_string(),
            indexing_seconds: 0.0,
            queries,
            io: storage.stats().since(&baseline).0,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            total_results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_datagen::{CombinationDistribution, QueryRangeDistribution, WorkloadSpec};

    fn tiny_runner() -> ExperimentRunner {
        let spec = DatasetSpec {
            num_datasets: 4,
            objects_per_dataset: 1_500,
            soma_clusters: 4,
            segments_per_neuron: 30,
            seed: 3,
            ..Default::default()
        };
        let config = ExperimentConfig {
            odyssey: OdysseyConfig::paper(spec.bounds),
            dataset_spec: spec,
            ..Default::default()
        };
        ExperimentRunner::new(config)
    }

    fn tiny_workload(runner: &ExperimentRunner, m: usize, n: usize) -> Workload {
        WorkloadSpec {
            num_datasets: runner.config().dataset_spec.num_datasets,
            datasets_per_query: m,
            num_queries: n,
            query_volume_fraction: 1e-5,
            range_distribution: QueryRangeDistribution::Clustered { num_clusters: 4 },
            combination_distribution: CombinationDistribution::Zipf,
            seed: 7,
        }
        .generate(&runner.bounds())
    }

    #[test]
    fn all_approaches_agree_on_results() {
        let runner = tiny_runner();
        let workload = tiny_workload(&runner, 3, 25);
        let mut totals = Vec::new();
        for sel in [
            ApproachSelection::Static(Approach::Grid1fE),
            ApproachSelection::Static(Approach::RTreeAin1),
            ApproachSelection::Static(Approach::FlatAin1),
            ApproachSelection::Odyssey,
            ApproachSelection::OdysseyNoMerge,
        ] {
            let run = runner.run(sel, &workload);
            assert_eq!(run.queries.len(), 25);
            totals.push((run.approach.clone(), run.total_results));
        }
        let reference = totals[0].1;
        for (name, total) in &totals {
            assert_eq!(*total, reference, "{name} disagrees with {}", totals[0].0);
        }
    }

    #[test]
    fn odyssey_has_no_indexing_phase_and_statics_do() {
        let runner = tiny_runner();
        let workload = tiny_workload(&runner, 3, 10);
        let odyssey = runner.run(ApproachSelection::Odyssey, &workload);
        assert_eq!(odyssey.indexing_seconds, 0.0);
        let grid = runner.run(ApproachSelection::Static(Approach::Grid1fE), &workload);
        assert!(grid.indexing_seconds > 0.0);
        assert!(grid.total_seconds() >= grid.indexing_seconds);
        // The first Odyssey query scans the raw files of its combination, so
        // it reads more pages than any later query (later queries only read
        // the partitions they touch — at the paper's data scale this is also
        // what makes the first query by far the slowest; at this miniature
        // scale seek costs blur the *time* ratio, so the page counter is the
        // scale-robust check).
        let first_pages = odyssey.queries[0].pages_read;
        let later_max_pages = odyssey.queries[1..]
            .iter()
            .map(|q| q.pages_read)
            .max()
            .unwrap_or(0);
        assert!(
            first_pages > later_max_pages,
            "first query read {first_pages} pages vs later max {later_max_pages}"
        );
    }

    #[test]
    fn queries_answered_within_budget_is_monotone() {
        let runner = tiny_runner();
        let workload = tiny_workload(&runner, 3, 15);
        let run = runner.run(ApproachSelection::Odyssey, &workload);
        let a = run.queries_answered_within(run.total_seconds() * 0.25);
        let b = run.queries_answered_within(run.total_seconds() * 0.75);
        let c = run.queries_answered_within(run.total_seconds() + 1.0);
        assert!(a <= b && b <= c);
        assert_eq!(c, 15);
    }

    #[test]
    fn grid_resolution_scales_with_data() {
        let small = ExperimentConfig {
            dataset_spec: DatasetSpec {
                objects_per_dataset: 1_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let large = ExperimentConfig {
            dataset_spec: DatasetSpec {
                objects_per_dataset: 200_000,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(small.grid_cells_per_dim() < large.grid_cells_per_dim());
        let fixed = ExperimentConfig {
            grid_cells_override: Some(60),
            ..Default::default()
        };
        assert_eq!(fixed.grid_cells_per_dim(), 60);
    }

    #[test]
    fn selection_names() {
        assert_eq!(ApproachSelection::Odyssey.name(), "Odyssey");
        assert_eq!(
            ApproachSelection::OdysseyNoMerge.name(),
            "Odyssey w/o merging"
        );
        assert_eq!(
            ApproachSelection::Static(Approach::FlatAin1).name(),
            "FLAT-Ain1"
        );
        assert_eq!(ApproachSelection::figure4_set().len(), 5);
    }
}
