//! # odyssey-bench
//!
//! The paper's evaluation (Section 4), run in simulated seconds.
//!
//! * [`experiment`] — builds the synthetic datasets, runs each approach
//!   (FLAT-Ain1, FLAT-1fE, RTree-Ain1, RTree-1fE, Grid-1fE, Space Odyssey,
//!   Space Odyssey without merging) on an identical workload and records the
//!   indexing/querying breakdown in simulated seconds (disk cost model) plus
//!   raw I/O counters,
//! * [`figures`] — regenerates every figure of the paper: the query/dataset
//!   visualisation (Figure 3), the total-processing-cost bars (Figure 4a–d),
//!   the per-query time series (Figure 5a–c), the headline claims of the
//!   introduction, and the parameter ablations suggested in §3.2.5,
//! * [`report`] — table/CSV formatting shared by the binaries,
//! * [`query_kinds`] — the mixed-kind experiment: range / point / kNN /
//!   count queries against the planner-enabled engine (planner on vs off)
//!   and the static baselines, with per-kind cost and plan audits,
//! * [`latency`] — the streaming/caching experiment: time-to-first-batch
//!   vs time-to-full-result through the seeking cursors, and cold-vs-warm
//!   query cost through the result cache, with cross-checked checksums.
//!
//! Binaries: `figure3`, `figure4`, `figure5`, `headline`, `ablation`,
//! `query_kinds`, `latency`
//! (`cargo run -p odyssey-bench --release --bin figure4 -- --help`).
//!
//! Costs are simulated seconds from the disk cost model (wall-clock times
//! are reported only as diagnostics). Wall-clock performance is measured by
//! the separate `benchmark/` package that `BENCHMARK.json` declares.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod experiment;
pub mod figures;
pub mod latency;
pub mod query_kinds;
pub mod report;

pub use experiment::{
    ApproachRun, ApproachSelection, ExperimentConfig, ExperimentRunner, QueryRecord,
};
pub use latency::{run_latency, LatencyConfig, LatencyReport};
pub use query_kinds::{KindBreakdown, PathCounts, QueryKindsRun};
pub use report::{format_table, write_csv, Table};
