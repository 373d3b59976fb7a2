//! Reproduction of every figure in the paper's evaluation.
//!
//! Each function returns the rows/series the corresponding figure plots and a
//! rendered text report; the figure binaries print the report and write the
//! CSV next to it. The absolute numbers come from the disk cost model
//! (`odyssey_storage::cost`); the *shape* — which approach wins, by roughly
//! what factor, and where the crossovers are — is what to compare against
//! the paper (see the README's Benchmarks section for where they differ).

use crate::experiment::{ApproachRun, ApproachSelection, ExperimentConfig, ExperimentRunner};
use crate::report::{fmt_seconds, Table};
use odyssey_datagen::{CombinationDistribution, QueryRangeDistribution, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Workload seed shared by all figures (results stay comparable across runs).
pub const WORKLOAD_SEED: u64 = 0x0D15_5EA5;

/// One of Figure 4's four panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Figure4Panel {
    /// (a) clustered query ranges, Zipf dataset combinations.
    A,
    /// (b) clustered query ranges, heavy-hitter combinations.
    B,
    /// (c) clustered query ranges, self-similar combinations.
    C,
    /// (d) uniform query ranges, uniform combinations (worst case).
    D,
}

impl Figure4Panel {
    /// All panels.
    pub const ALL: [Figure4Panel; 4] = [
        Figure4Panel::A,
        Figure4Panel::B,
        Figure4Panel::C,
        Figure4Panel::D,
    ];

    /// Parses a panel letter.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "a" => Some(Figure4Panel::A),
            "b" => Some(Figure4Panel::B),
            "c" => Some(Figure4Panel::C),
            "d" => Some(Figure4Panel::D),
            _ => None,
        }
    }

    /// Panel letter.
    pub fn letter(self) -> &'static str {
        match self {
            Figure4Panel::A => "a",
            Figure4Panel::B => "b",
            Figure4Panel::C => "c",
            Figure4Panel::D => "d",
        }
    }

    /// The query-range distribution of the panel.
    pub fn range_distribution(self) -> QueryRangeDistribution {
        match self {
            Figure4Panel::D => QueryRangeDistribution::Uniform,
            _ => QueryRangeDistribution::Clustered { num_clusters: 10 },
        }
    }

    /// The dataset-combination distribution of the panel.
    pub fn combination_distribution(self) -> CombinationDistribution {
        match self {
            Figure4Panel::A => CombinationDistribution::Zipf,
            Figure4Panel::B => CombinationDistribution::HeavyHitter,
            Figure4Panel::C => CombinationDistribution::SelfSimilar,
            Figure4Panel::D => CombinationDistribution::Uniform,
        }
    }

    /// The panel caption as in the paper.
    pub fn caption(self) -> String {
        format!(
            "query ranges: {}, dataset ids: {}",
            self.range_distribution().name(),
            self.combination_distribution().name()
        )
    }
}

/// One bar of Figure 4: an approach at a given number of queried datasets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure4Row {
    /// Panel letter.
    pub panel: String,
    /// Number of datasets queried (m).
    pub datasets_queried: usize,
    /// Number of possible combinations C(n, m).
    pub possible_combinations: usize,
    /// Number of distinct combinations actually queried.
    pub queried_combinations: usize,
    /// Approach name.
    pub approach: String,
    /// Simulated indexing seconds.
    pub indexing_seconds: f64,
    /// Simulated querying seconds.
    pub querying_seconds: f64,
    /// Total simulated seconds.
    pub total_seconds: f64,
}

/// The result of one Figure 4 panel: all rows plus the rendered report.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Data rows (one per approach per x-axis position).
    pub table: Table,
    /// Human-readable report.
    pub report: String,
}

/// Builds the workload spec for a Figure 4 / Figure 5 configuration.
pub fn workload_spec(
    num_datasets: usize,
    datasets_per_query: usize,
    num_queries: usize,
    range: QueryRangeDistribution,
    combos: CombinationDistribution,
) -> WorkloadSpec {
    WorkloadSpec {
        num_datasets,
        datasets_per_query,
        num_queries,
        query_volume_fraction: 1e-6,
        range_distribution: range,
        combination_distribution: combos,
        seed: WORKLOAD_SEED,
    }
}

/// Runs one Figure 4 panel: every approach at every number of queried
/// datasets in `m_values`, over `num_queries` queries.
pub fn figure4_panel(
    runner: &ExperimentRunner,
    panel: Figure4Panel,
    m_values: &[usize],
    num_queries: usize,
) -> (Vec<Figure4Row>, FigureResult) {
    let mut rows = Vec::new();
    let n = runner.config().dataset_spec.num_datasets;
    for &m in m_values {
        let workload = workload_spec(
            n,
            m,
            num_queries,
            panel.range_distribution(),
            panel.combination_distribution(),
        )
        .generate(&runner.bounds());
        for selection in ApproachSelection::figure4_set() {
            let run = runner.run(selection, &workload);
            rows.push(Figure4Row {
                panel: panel.letter().to_string(),
                datasets_queried: m,
                possible_combinations: workload.possible_combinations,
                queried_combinations: workload.distinct_combinations(),
                approach: run.approach.clone(),
                indexing_seconds: run.indexing_seconds,
                querying_seconds: run.query_seconds(),
                total_seconds: run.total_seconds(),
            });
        }
    }
    let mut table = Table::new([
        "panel",
        "m",
        "possible_combos",
        "queried_combos",
        "approach",
        "indexing_s",
        "querying_s",
        "total_s",
    ]);
    for r in &rows {
        table.push_row([
            r.panel.clone(),
            r.datasets_queried.to_string(),
            r.possible_combinations.to_string(),
            r.queried_combinations.to_string(),
            r.approach.clone(),
            fmt_seconds(r.indexing_seconds),
            fmt_seconds(r.querying_seconds),
            fmt_seconds(r.total_seconds),
        ]);
    }
    let report = format!(
        "Figure 4{}) {} — total workload processing time ({} queries)\n\n{}",
        panel.letter(),
        panel.caption(),
        num_queries,
        table.render()
    );
    (rows, FigureResult { table, report })
}

/// One point of a Figure 5 series.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Figure5Point {
    /// Query position in the sequence.
    pub query_id: u32,
    /// Simulated seconds for this query (static approaches exclude their
    /// indexing phase, exactly as the paper plots them).
    pub seconds: f64,
    /// Whether the answer used a merge file (Odyssey only).
    pub used_merge_file: bool,
    /// Whether the query paid for merge-file creation/extension (Odyssey
    /// only); such queries appear as spikes in the series.
    pub performed_merge: bool,
}

/// A full Figure 5 series for one approach.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure5Series {
    /// Approach name.
    pub approach: String,
    /// Per-query points in sequence order.
    pub points: Vec<Figure5Point>,
}

impl Figure5Series {
    fn from_run(run: &ApproachRun) -> Self {
        Figure5Series {
            approach: run.approach.clone(),
            points: run
                .queries
                .iter()
                .map(|q| Figure5Point {
                    query_id: q.query_id,
                    seconds: q.seconds,
                    used_merge_file: q.used_merge_file,
                    performed_merge: q.performed_merge,
                })
                .collect(),
        }
    }

    /// Mean seconds over the last `tail` queries (steady state).
    pub fn steady_state_mean(&self, tail: usize) -> f64 {
        let n = self.points.len();
        if n == 0 {
            return 0.0;
        }
        let start = n.saturating_sub(tail);
        let slice = &self.points[start..];
        slice.iter().map(|p| p.seconds).sum::<f64>() / slice.len() as f64
    }
}

/// One of Figure 5's three panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure5Panel {
    /// (a) clustered ranges, self-similar combinations; FLAT-Ain1 vs Grid-1fE
    /// vs Odyssey.
    A,
    /// (b) uniform ranges, uniform combinations; same approaches.
    B,
    /// (c) clustered ranges (5 cluster centers), Zipf combinations; Odyssey
    /// vs Odyssey without merging, only queries for the hottest combination.
    C,
}

impl Figure5Panel {
    /// Parses a panel letter.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "a" => Some(Figure5Panel::A),
            "b" => Some(Figure5Panel::B),
            "c" => Some(Figure5Panel::C),
            _ => None,
        }
    }

    /// Panel letter.
    pub fn letter(self) -> &'static str {
        match self {
            Figure5Panel::A => "a",
            Figure5Panel::B => "b",
            Figure5Panel::C => "c",
        }
    }
}

/// Result of a Figure 5 panel.
#[derive(Debug, Clone)]
pub struct Figure5Result {
    /// One series per approach.
    pub series: Vec<Figure5Series>,
    /// CSV table (query id × approach seconds).
    pub table: Table,
    /// Rendered report with the summary statistics the paper quotes.
    pub report: String,
    /// For panel (c): average gain of merged queries vs the no-merging run
    /// (the paper reports ~25%).
    pub merging_gain: Option<f64>,
}

/// Runs one Figure 5 panel with `num_queries` queries and 5 datasets queried.
pub fn figure5_panel(
    runner: &ExperimentRunner,
    panel: Figure5Panel,
    num_queries: usize,
) -> Figure5Result {
    let n = runner.config().dataset_spec.num_datasets;
    let m = 5.min(n);
    match panel {
        Figure5Panel::A | Figure5Panel::B => {
            let (range, combos) = if panel == Figure5Panel::A {
                (
                    QueryRangeDistribution::Clustered { num_clusters: 10 },
                    CombinationDistribution::SelfSimilar,
                )
            } else {
                (
                    QueryRangeDistribution::Uniform,
                    CombinationDistribution::Uniform,
                )
            };
            let workload =
                workload_spec(n, m, num_queries, range, combos).generate(&runner.bounds());
            let selections = [
                ApproachSelection::Static(odyssey_baselines::Approach::FlatAin1),
                ApproachSelection::Static(odyssey_baselines::Approach::Grid1fE),
                ApproachSelection::Odyssey,
            ];
            let runs: Vec<ApproachRun> = selections
                .iter()
                .map(|s| runner.run(*s, &workload))
                .collect();
            let series: Vec<Figure5Series> = runs.iter().map(Figure5Series::from_run).collect();
            let mut table = Table::new(["query_id", "approach", "seconds", "used_merge_file"]);
            for s in &series {
                for p in &s.points {
                    table.push_row([
                        p.query_id.to_string(),
                        s.approach.clone(),
                        format!("{:.6}", p.seconds),
                        p.used_merge_file.to_string(),
                    ]);
                }
            }
            let mut report = format!(
                "Figure 5{}) query ranges: {}, dataset ids: {}, #datasets queried: {} (out of {})\n\n",
                panel.letter(),
                range.name(),
                combos.name(),
                m,
                n
            );
            for (s, run) in series.iter().zip(&runs) {
                report.push_str(&format!(
                    "  {:<22} first query {:>10}s   steady-state mean {:>10}s   indexing phase {:>10}s\n",
                    s.approach,
                    fmt_seconds(s.points.first().map(|p| p.seconds).unwrap_or(0.0)),
                    fmt_seconds(s.steady_state_mean(num_queries / 5)),
                    fmt_seconds(run.indexing_seconds),
                ));
            }
            Figure5Result {
                series,
                table,
                report,
                merging_gain: None,
            }
        }
        Figure5Panel::C => {
            // 5 query cluster centers (instead of 10) so queries repeatedly
            // hit areas that benefit from merging; only the queries that
            // request the most popular combination are plotted.
            let workload = workload_spec(
                n,
                m,
                num_queries,
                QueryRangeDistribution::Clustered { num_clusters: 5 },
                CombinationDistribution::Zipf,
            )
            .generate(&runner.bounds());
            let with = runner.run(ApproachSelection::Odyssey, &workload);
            let without = runner.run(ApproachSelection::OdysseyNoMerge, &workload);
            let hottest: Vec<u32> = workload
                .hottest_combination_queries()
                .iter()
                .map(|q| q.id.0)
                .collect();
            let filter = |run: &ApproachRun| Figure5Series {
                approach: run.approach.clone(),
                points: run
                    .queries
                    .iter()
                    .filter(|q| hottest.contains(&q.query_id))
                    .map(|q| Figure5Point {
                        query_id: q.query_id,
                        seconds: q.seconds,
                        used_merge_file: q.used_merge_file,
                        performed_merge: q.performed_merge,
                    })
                    .collect(),
            };
            let series = vec![filter(&without), filter(&with)];
            let mut table = Table::new(["query_id", "approach", "seconds", "used_merge_file"]);
            for s in &series {
                for p in &s.points {
                    table.push_row([
                        p.query_id.to_string(),
                        s.approach.clone(),
                        format!("{:.6}", p.seconds),
                        p.used_merge_file.to_string(),
                    ]);
                }
            }
            // Average gain on the queries that actually hit merged
            // partitions. Queries that also *performed* merging (reading the
            // partitions from every dataset and appending the copies) are
            // reported separately: their time is adaptation cost, not the
            // read-path benefit the paper's 25% figure refers to.
            let with_series = &series[1];
            let without_series = &series[0];
            let mut gains = Vec::new();
            let mut gains_incl_adaptation = Vec::new();
            for (w, wo) in with_series.points.iter().zip(&without_series.points) {
                if w.used_merge_file && wo.seconds > 0.0 {
                    gains_incl_adaptation.push(1.0 - w.seconds / wo.seconds);
                    if !w.performed_merge {
                        gains.push(1.0 - w.seconds / wo.seconds);
                    }
                }
            }
            let mean = |v: &[f64]| {
                if v.is_empty() {
                    None
                } else {
                    Some(v.iter().sum::<f64>() / v.len() as f64)
                }
            };
            let merging_gain = mean(&gains);
            let fmt_gain = |g: Option<f64>| {
                g.map(|g| format!("{:.1}%", g * 100.0))
                    .unwrap_or_else(|| "n/a".to_string())
            };
            let report = format!(
                "Figure 5c) query ranges: clustered (5 centers), dataset ids: zipf, \
                 #datasets queried: {m} (out of {n})\n\n  most popular combination queried {} times\n  \
                 queries answered from merged partitions: {}\n  \
                 average gain on those queries (read path): {}\n  \
                 average gain including merge-maintenance spikes: {}\n",
                hottest.len(),
                with_series.points.iter().filter(|p| p.used_merge_file).count(),
                fmt_gain(merging_gain),
                fmt_gain(mean(&gains_incl_adaptation)),
            );
            Figure5Result {
                series,
                table,
                report,
                merging_gain,
            }
        }
    }
}

/// Figure 3: the clustered and uniform query ranges over one dataset — the
/// paper visualises them; we emit the coordinates as CSV so any plotting tool
/// can redraw the figure.
pub fn figure3(runner: &ExperimentRunner, num_queries: usize) -> FigureResult {
    let bounds = runner.bounds();
    let mut table = Table::new(["kind", "x", "y", "z", "side_or_size"]);
    // A sample of dataset 0's objects (sub-sampled to keep the CSV small).
    let ds0 = &runner.datasets()[0];
    let step = (ds0.len() / 2000).max(1);
    for obj in ds0.iter().step_by(step) {
        let c = obj.center();
        table.push_row([
            "object".to_string(),
            format!("{:.3}", c.x),
            format!("{:.3}", c.y),
            format!("{:.3}", c.z),
            format!("{:.4}", obj.extent().max_component()),
        ]);
    }
    for (kind, dist) in [
        (
            "clustered_query",
            QueryRangeDistribution::Clustered { num_clusters: 10 },
        ),
        ("uniform_query", QueryRangeDistribution::Uniform),
    ] {
        let spec = workload_spec(
            runner.config().dataset_spec.num_datasets,
            1,
            num_queries,
            dist,
            CombinationDistribution::Uniform,
        );
        let workload = spec.generate(&bounds);
        for q in &workload.queries {
            let c = q.range.center();
            table.push_row([
                kind.to_string(),
                format!("{:.3}", c.x),
                format!("{:.3}", c.y),
                format!("{:.3}", c.z),
                format!("{:.4}", q.range.extent().x),
            ]);
        }
    }
    let report = format!(
        "Figure 3) clustered (red) and uniform (green) range queries over one dataset\n\
         rows: {} (objects sub-sampled 1/{step}, plus {num_queries} query centers per distribution)",
        table.len()
    );
    FigureResult { table, report }
}

/// The quantitative claims made in the paper's introduction and §4.2,
/// computed from a Figure-4-style run at `m` datasets per query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeadlineClaims {
    /// Number of queried datasets used for the computation.
    pub datasets_queried: usize,
    /// Queries Space Odyssey answers before the fastest static approach
    /// (Grid) finishes indexing ("several hundred / more than half").
    pub odyssey_queries_before_grid_indexed: usize,
    /// Ratio of FLAT build time to Space Odyssey's entire workload time
    /// ("at least 2x").
    pub flat_build_over_odyssey_total: f64,
    /// Ratio of RTree build time to Space Odyssey's entire workload time.
    pub rtree_build_over_odyssey_total: f64,
    /// Ratio of Grid build time to FLAT build time ("FLAT up to 5x slower
    /// than Grid to build").
    pub flat_build_over_grid_build: f64,
    /// Ratio of Odyssey per-query time to FLAT-Ain1 per-query time once both
    /// are warm ("up to 9x").
    pub odyssey_query_over_flat_query: f64,
    /// Ratio of Grid per-query to FLAT per-query ("up to 6x").
    pub grid_query_over_flat_query: f64,
    /// Ratio of RTree per-query to FLAT per-query ("up to 5x").
    pub rtree_query_over_flat_query: f64,
}

/// Computes the headline claims at `m` datasets per query (the paper quotes
/// them for the clustered/Zipf workload).
pub fn headline_claims(
    runner: &ExperimentRunner,
    m: usize,
    num_queries: usize,
) -> (HeadlineClaims, String) {
    use odyssey_baselines::Approach;
    let n = runner.config().dataset_spec.num_datasets;
    let workload = workload_spec(
        n,
        m,
        num_queries,
        QueryRangeDistribution::Clustered { num_clusters: 10 },
        CombinationDistribution::Zipf,
    )
    .generate(&runner.bounds());

    let odyssey = runner.run(ApproachSelection::Odyssey, &workload);
    let grid = runner.run(ApproachSelection::Static(Approach::Grid1fE), &workload);
    let rtree = runner.run(ApproachSelection::Static(Approach::RTreeAin1), &workload);
    let flat = runner.run(ApproachSelection::Static(Approach::FlatAin1), &workload);

    let steady = |run: &ApproachRun| {
        let tail = run.queries.len().max(5) / 5;
        let start = run.queries.len().saturating_sub(tail);
        let slice = &run.queries[start..];
        slice.iter().map(|q| q.seconds).sum::<f64>() / slice.len().max(1) as f64
    };

    let claims = HeadlineClaims {
        datasets_queried: m,
        odyssey_queries_before_grid_indexed: odyssey.queries_answered_within(grid.indexing_seconds),
        flat_build_over_odyssey_total: flat.indexing_seconds / odyssey.total_seconds(),
        rtree_build_over_odyssey_total: rtree.indexing_seconds / odyssey.total_seconds(),
        flat_build_over_grid_build: flat.indexing_seconds / grid.indexing_seconds,
        odyssey_query_over_flat_query: steady(&odyssey) / steady(&flat),
        grid_query_over_flat_query: steady(&grid) / steady(&flat),
        rtree_query_over_flat_query: steady(&rtree) / steady(&flat),
    };

    let report = format!(
        "Headline claims (clustered ranges, zipf ids, m = {m}, {num_queries} queries)\n\
         ------------------------------------------------------------------------\n\
         paper: Odyssey answers several hundred queries (more than half) before the fastest\n\
         static approach has indexed      -> measured: {} of {} queries answered before Grid\n\
         finishes indexing\n\
         paper: building FLAT/RTree takes >= 2x the whole Odyssey workload\n\
           -> measured: FLAT build / Odyssey total  = {:.2}x\n\
           -> measured: RTree build / Odyssey total = {:.2}x\n\
         paper: FLAT indexing up to 5x slower than Grid -> measured {:.2}x\n\
         paper: FLAT queries up to 5x/6x/9x faster than RTree/Grid/Odyssey\n\
           -> measured: RTree/FLAT   = {:.2}x\n\
           -> measured: Grid/FLAT    = {:.2}x\n\
           -> measured: Odyssey/FLAT = {:.2}x\n",
        claims.odyssey_queries_before_grid_indexed,
        num_queries,
        claims.flat_build_over_odyssey_total,
        claims.rtree_build_over_odyssey_total,
        claims.flat_build_over_grid_build,
        claims.rtree_query_over_flat_query,
        claims.grid_query_over_flat_query,
        claims.odyssey_query_over_flat_query,
    );
    (claims, report)
}

/// Ablation study over Space Odyssey's parameters (the knobs §3.2.5 proposes
/// to auto-tune): refinement threshold, partitions per level, merge
/// threshold, minimum combination size and the merge-level policy.
pub fn ablation(runner: &ExperimentRunner, num_queries: usize) -> FigureResult {
    use odyssey_core::MergeLevelPolicy;
    let n = runner.config().dataset_spec.num_datasets;
    let workload = workload_spec(
        n,
        5.min(n),
        num_queries,
        QueryRangeDistribution::Clustered { num_clusters: 10 },
        CombinationDistribution::Zipf,
    )
    .generate(&runner.bounds());

    let mut table = Table::new(["variant", "total_s", "querying_s", "mean_query_s"]);
    let mut run_variant = |label: &str, mutate: &dyn Fn(&mut ExperimentConfig)| {
        let mut config = runner.config().clone();
        mutate(&mut config);
        let local = ExperimentRunner::new(config);
        let run = local.run(ApproachSelection::Odyssey, &workload);
        table.push_row([
            label.to_string(),
            fmt_seconds(run.total_seconds()),
            fmt_seconds(run.query_seconds()),
            fmt_seconds(run.query_seconds() / run.queries.len().max(1) as f64),
        ]);
    };

    run_variant("baseline (rt=4, ppl=64, mt=2, |C|>=3)", &|_| {});
    run_variant("rt=1", &|c| c.odyssey.refinement_threshold = 1.0);
    run_variant("rt=16", &|c| c.odyssey.refinement_threshold = 16.0);
    run_variant("ppl=8 (octree)", &|c| c.odyssey.partitions_per_level = 8);
    run_variant("mt=8 (merge later)", &|c| c.odyssey.merge_threshold = 8);
    run_variant("|C|>=2 (merge small combos)", &|c| {
        c.odyssey.min_merge_combination_size = 2
    });
    run_variant("no merging", &|c| c.odyssey.merge_enabled = false);
    run_variant("merge policy: refine-to-finest", &|c| {
        c.odyssey.merge_level_policy = MergeLevelPolicy::RefineToFinest
    });
    run_variant("merge budget: 256 pages", &|c| {
        c.odyssey.merge_space_budget_pages = Some(256)
    });
    run_variant("nvme cost model", &|c| {
        c.cost_model = odyssey_storage::CostModel::nvme()
    });

    let report = format!(
        "Space Odyssey parameter ablation ({} queries, clustered/zipf, m=5)\n\n{}",
        num_queries,
        table.render()
    );
    FigureResult { table, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_core::OdysseyConfig;
    use odyssey_datagen::DatasetSpec;

    fn tiny_runner() -> ExperimentRunner {
        let spec = DatasetSpec {
            num_datasets: 5,
            objects_per_dataset: 1_200,
            soma_clusters: 4,
            segments_per_neuron: 30,
            seed: 5,
            ..Default::default()
        };
        ExperimentRunner::new(ExperimentConfig {
            odyssey: OdysseyConfig::paper(spec.bounds),
            dataset_spec: spec,
            ..Default::default()
        })
    }

    #[test]
    fn panel_parsing() {
        assert_eq!(Figure4Panel::parse("A"), Some(Figure4Panel::A));
        assert_eq!(Figure4Panel::parse("d"), Some(Figure4Panel::D));
        assert_eq!(Figure4Panel::parse("x"), None);
        assert_eq!(Figure5Panel::parse("c"), Some(Figure5Panel::C));
        assert_eq!(Figure5Panel::parse("z"), None);
        assert_eq!(
            Figure4Panel::A.caption(),
            "query ranges: clustered, dataset ids: zipf"
        );
        assert_eq!(
            Figure4Panel::D.caption(),
            "query ranges: uniform, dataset ids: uniform"
        );
    }

    #[test]
    fn figure4_panel_produces_all_rows() {
        let runner = tiny_runner();
        let (rows, result) = figure4_panel(&runner, Figure4Panel::A, &[1, 3], 12);
        assert_eq!(rows.len(), 2 * 5); // 2 m-values x 5 approaches
        assert!(result.report.contains("Figure 4a"));
        assert_eq!(result.table.len(), rows.len());
        // Odyssey rows have no indexing cost; static rows do.
        for r in &rows {
            if r.approach == "Odyssey" {
                assert_eq!(r.indexing_seconds, 0.0);
            } else {
                assert!(
                    r.indexing_seconds > 0.0,
                    "{} should pay indexing",
                    r.approach
                );
            }
            assert!(r.total_seconds >= r.querying_seconds);
        }
    }

    #[test]
    fn figure5_panel_a_series() {
        let runner = tiny_runner();
        let result = figure5_panel(&runner, Figure5Panel::A, 20);
        assert_eq!(result.series.len(), 3);
        for s in &result.series {
            assert_eq!(s.points.len(), 20);
        }
        assert!(result.report.contains("Figure 5a"));
        assert!(result.merging_gain.is_none());
    }

    #[test]
    fn figure5_panel_c_reports_merging_gain() {
        let runner = tiny_runner();
        let result = figure5_panel(&runner, Figure5Panel::C, 40);
        assert_eq!(result.series.len(), 2);
        assert!(result.report.contains("Figure 5c"));
        // Both series are restricted to the hottest combination's queries.
        assert_eq!(result.series[0].points.len(), result.series[1].points.len());
        assert!(!result.series[0].points.is_empty());
    }

    #[test]
    fn figure3_emits_objects_and_queries() {
        let runner = tiny_runner();
        let result = figure3(&runner, 25);
        let csv = result.table.to_csv();
        assert!(csv.contains("object"));
        assert!(csv.contains("clustered_query"));
        assert!(csv.contains("uniform_query"));
    }

    #[test]
    fn headline_claims_have_the_papers_shape() {
        // At the miniature test scale the absolute data-to-query advantage is
        // small (the full-scale numbers come from the headline binary); here
        // we verify the structural relations that must hold at any scale:
        // FLAT and RTree builds cost more than Grid's, all ratios are finite
        // and positive, and the report is well-formed.
        let runner = tiny_runner();
        let (claims, report) = headline_claims(&runner, 3, 30);
        assert!(claims.flat_build_over_grid_build > 1.0);
        assert!(claims.flat_build_over_odyssey_total > 0.0);
        assert!(claims.rtree_build_over_odyssey_total > 0.0);
        assert!(claims.odyssey_query_over_flat_query.is_finite());
        assert!(claims.grid_query_over_flat_query > 0.0);
        assert!(claims.rtree_query_over_flat_query > 0.0);
        assert_eq!(claims.datasets_queried, 3);
        assert!(report.contains("Headline claims"));
    }
}
