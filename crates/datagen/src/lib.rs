//! # odyssey-datagen
//!
//! Synthetic datasets and query workloads mirroring the paper's evaluation.
//!
//! The paper uses ten real neuroscience datasets (neuron meshes from the
//! Human Brain Project, ~5 GB each) and a synthetic workload of 1000 range
//! queries whose spatial ranges follow a clustered or uniform distribution
//! and whose *dataset combinations* follow the Gray et al. heavy-hitter,
//! self-similar, Zipf or uniform distributions. The real data is not
//! redistributable, so this crate generates a faithful, deterministic
//! substitute:
//!
//! * [`brain`] — neuron-morphology generator that fills a brain volume with
//!   spatially clustered tubular segments, one object per segment,
//! * [`distributions`] — the Gray et al. discrete distributions,
//! * [`queries`] — clustered / uniform query-range generators with a fixed
//!   query volume,
//! * [`combos`] — combination pickers over `C(n, m)` dataset subsets,
//! * [`workload`] — ties everything together into a reproducible
//!   [`Workload`] (sequence of [`odyssey_geom::RangeQuery`]),
//! * [`mixed`] — re-types a base workload into a mixed-kind sequence of
//!   [`odyssey_geom::Query`] (range / point / kNN / count),
//! * [`trace`] — interleaves a mixed-kind workload with an online-arrival
//!   stream (configurable ingest ratio and per-dataset arrival skew) into an
//!   ingest+query trace,
//! * [`json`] — dependency-free JSON save/load of a full workload
//!   (objects + queries) or an interleaved trace, for reproducible
//!   cross-host benchmark runs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod brain;
pub mod combos;
pub mod distributions;
pub mod json;
pub mod mixed;
pub mod queries;
pub mod trace;
pub mod workload;

pub use brain::{BrainModel, DatasetSpec};
pub use combos::CombinationPicker;
pub use distributions::{CombinationDistribution, DiscreteSampler};
pub use json::{JsonError, JsonValue, SavedWorkload};
pub use mixed::{as_typed_queries, MixedWorkload, MixedWorkloadSpec, QueryKindMix};
pub use queries::{QueryRangeDistribution, QueryRangeGenerator};
pub use trace::{
    Arrival, IngestProfile, InterleavedTrace, InterleavedTraceSpec, OpenLoopProfile, TraceStep,
};
pub use workload::{Workload, WorkloadSpec};
