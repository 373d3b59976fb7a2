//! Interleaved ingest/query trace generation.
//!
//! Real scientific archives keep ingesting while users explore: NASA's
//! long-term astrophysics archives and ESASky both serve *growing* mission
//! catalogs. [`InterleavedTraceSpec`] extends the mixed-kind workload model
//! with an online-arrival stream: the generated trace interleaves ingest
//! batches between queries, with a configurable ingest ratio and a
//! configurable arrival skew over datasets (hot datasets receive most of the
//! new data, like an actively observing mission). Arrivals cluster near the
//! positions the following queries probe, modelling the
//! observation-then-inspection loop of exploration portals.
//!
//! Traces are deterministic per seed: the same spec regenerates the
//! identical trace on any host.

use crate::mixed::MixedWorkloadSpec;
use odyssey_geom::{Aabb, DatasetId, DatasetSet, ObjectId, Query, QueryKind, SpatialObject, Vec3};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The arrival stream of an interleaved trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestProfile {
    /// Probability that an ingest batch precedes any given query (so the
    /// trace holds roughly `ingest_ratio · num_queries` ingest steps).
    pub ingest_ratio: f64,
    /// Objects per ingest batch.
    pub batch_size: usize,
    /// Skew of the arrival stream over datasets: weight of dataset `d` is
    /// `1 / (d + 1)^skew`. `0` spreads arrivals uniformly; larger values
    /// concentrate them on the low-id (hot) datasets.
    pub arrival_skew: f64,
    /// First object id assigned to arrivals (per dataset, counting up).
    /// Keep it above every id the initial datasets use.
    pub first_object_id: u64,
    /// Arrival extent as a fraction of the brain volume's extent per
    /// dimension.
    pub object_extent_fraction: f64,
    /// Jitter of arrival centers around the next query's position, as a
    /// fraction of the volume extent (arrivals correlate with where the
    /// exploration is looking — the observation-then-inspection loop).
    pub position_jitter_fraction: f64,
}

impl Default for IngestProfile {
    fn default() -> Self {
        IngestProfile {
            ingest_ratio: 0.25,
            batch_size: 64,
            arrival_skew: 1.0,
            first_object_id: 1 << 32,
            object_extent_fraction: 2e-3,
            position_jitter_fraction: 0.04,
        }
    }
}

/// Everything needed to (re)generate an interleaved ingest/query trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterleavedTraceSpec {
    /// The mixed-kind query workload the ingests interleave with.
    pub mixed: MixedWorkloadSpec,
    /// The arrival stream.
    pub ingest: IngestProfile,
}

/// When one trace step arrives at a serving tier, and from whom.
///
/// A plain trace is closed-loop: each step starts when the previous one
/// finishes. Attaching one `Arrival` per step turns it into an *open-loop*
/// trace — steps arrive at absolute offsets regardless of how fast the
/// server drains them, which is what makes queueing (and therefore tail
/// latency) measurable. See [`OpenLoopProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Microseconds after the trace's epoch at which the step arrives.
    pub offset_micros: u64,
    /// The issuing tenant (client) id.
    pub tenant: u16,
}

/// Deterministic open-loop arrival generator: interarrival gaps drawn
/// uniformly in `[1, 2·mean)` (so the offered load averages one request per
/// `mean_interarrival_micros`), tenants drawn with one optionally *hot*
/// tenant taking a fixed share of the stream and the rest spread uniformly.
/// Seeded and reproducible, like every other generator in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpenLoopProfile {
    /// Mean gap between consecutive arrivals, in microseconds.
    pub mean_interarrival_micros: u64,
    /// Number of tenants issuing requests (ids `0..tenants`).
    pub tenants: u16,
    /// Share of all requests issued by tenant 0, in `0.0..=1.0`. With
    /// `1.0 / tenants` the stream is uniform; larger values model one
    /// flooding tenant for admission-control experiments.
    pub hot_tenant_share: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OpenLoopProfile {
    fn default() -> Self {
        OpenLoopProfile {
            mean_interarrival_micros: 1_000,
            tenants: 4,
            hot_tenant_share: 0.25,
            seed: 0x4F50_454E,
        }
    }
}

impl OpenLoopProfile {
    /// Generates `n` arrivals in nondecreasing offset order.
    ///
    /// # Panics
    /// Panics if `tenants` is zero, the mean gap is zero, or
    /// `hot_tenant_share` lies outside `0.0..=1.0`.
    pub fn arrivals(&self, n: usize) -> Vec<Arrival> {
        assert!(self.tenants > 0, "tenants must be positive");
        assert!(
            self.mean_interarrival_micros > 0,
            "mean_interarrival_micros must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.hot_tenant_share),
            "hot_tenant_share must lie in 0.0..=1.0"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x4F50_454E_5F4C_4F4F);
        let mut offset = 0u64;
        (0..n)
            .map(|_| {
                offset += rng.gen_range(1..=self.mean_interarrival_micros.saturating_mul(2) - 1);
                let tenant = if rng.gen_bool(self.hot_tenant_share) || self.tenants == 1 {
                    0
                } else {
                    rng.gen_range(1..self.tenants)
                };
                Arrival {
                    offset_micros: offset,
                    tenant,
                }
            })
            .collect()
    }
}

/// One step of an interleaved trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceStep {
    /// Execute a typed query.
    Query(Query),
    /// Ingest a batch of objects into one dataset.
    Ingest {
        /// The receiving dataset.
        dataset: DatasetId,
        /// The arriving objects (fresh ids within the dataset).
        objects: Vec<SpatialObject>,
    },
}

impl TraceStep {
    /// The step's query, if it is a query step.
    pub fn as_query(&self) -> Option<&Query> {
        match self {
            TraceStep::Query(q) => Some(q),
            TraceStep::Ingest { .. } => None,
        }
    }

    /// `true` for ingest steps.
    pub fn is_ingest(&self) -> bool {
        matches!(self, TraceStep::Ingest { .. })
    }
}

/// A concrete interleaved ingest/query sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedTrace {
    /// The spec the trace was generated from.
    pub spec: InterleavedTraceSpec,
    /// The steps, in execution order.
    pub steps: Vec<TraceStep>,
    /// The combination favoured by the base workload's skewed distributions.
    pub hottest_combination: DatasetSet,
}

impl InterleavedTrace {
    /// Number of steps (ingests + queries).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the trace has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of ingest steps.
    pub fn ingest_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.is_ingest()).count()
    }

    /// Number of query steps.
    pub fn query_steps(&self) -> usize {
        self.len() - self.ingest_steps()
    }

    /// Total objects arriving over the trace.
    pub fn objects_ingested(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                TraceStep::Ingest { objects, .. } => objects.len(),
                TraceStep::Query(_) => 0,
            })
            .sum()
    }

    /// How many ingest batches each dataset receives, in dataset order.
    pub fn arrivals_per_dataset(&self, num_datasets: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_datasets];
        for step in &self.steps {
            if let TraceStep::Ingest { dataset, .. } = step {
                if dataset.index() < counts.len() {
                    counts[dataset.index()] += 1;
                }
            }
        }
        counts
    }

    /// How many queries each kind received, in [`QueryKind::ALL`] order.
    pub fn kind_counts(&self) -> [(QueryKind, usize); 4] {
        QueryKind::ALL.map(|kind| {
            (
                kind,
                self.steps
                    .iter()
                    .filter(|s| s.as_query().is_some_and(|q| q.kind() == kind))
                    .count(),
            )
        })
    }
}

impl InterleavedTraceSpec {
    /// Generates the interleaved trace for the given brain volume.
    ///
    /// # Panics
    /// Panics if the ingest ratio is outside `[0, 1)` or the batch size is 0.
    pub fn generate(&self, bounds: &Aabb) -> InterleavedTrace {
        assert!(
            (0.0..1.0).contains(&self.ingest.ingest_ratio),
            "ingest_ratio must be in [0, 1)"
        );
        assert!(self.ingest.batch_size > 0, "batch_size must be positive");
        let mixed = self.mixed.generate(bounds);
        // An independent stream drives the arrivals, so the same seed varies
        // the ingest pattern without moving the queries.
        let mut rng = ChaCha8Rng::seed_from_u64(self.mixed.base.seed ^ 0x494E_4745_5354_5F31);
        let num_datasets = self.mixed.base.num_datasets;
        let weights: Vec<f64> = (0..num_datasets)
            .map(|d| 1.0 / ((d + 1) as f64).powf(self.ingest.arrival_skew))
            .collect();
        let weight_total: f64 = weights.iter().sum();
        let mut next_id = vec![self.ingest.first_object_id; num_datasets];
        let extent = bounds.extent();
        let mut steps = Vec::with_capacity(mixed.queries.len() * 2);
        for query in mixed.queries {
            if rng.gen_range(0.0..1.0) < self.ingest.ingest_ratio {
                // Pick the receiving dataset from the skewed arrival weights.
                let mut pick = rng.gen_range(0.0..weight_total);
                let mut dataset = num_datasets - 1;
                for (d, w) in weights.iter().enumerate() {
                    if pick < *w {
                        dataset = d;
                        break;
                    }
                    pick -= w;
                }
                let anchor = query_position(&query, bounds);
                let objects = (0..self.ingest.batch_size)
                    .map(|_| {
                        let jitter = Vec3::new(
                            rng.gen_range(-1.0..1.0),
                            rng.gen_range(-1.0..1.0),
                            rng.gen_range(-1.0..1.0),
                        ) * self.ingest.position_jitter_fraction;
                        let center = (anchor
                            + Vec3::new(
                                jitter.x * extent.x,
                                jitter.y * extent.y,
                                jitter.z * extent.z,
                            ))
                        .clamp(bounds.min, bounds.max);
                        let obj_extent =
                            extent * (self.ingest.object_extent_fraction * rng.gen_range(0.5..1.5));
                        let id = ObjectId(next_id[dataset]);
                        next_id[dataset] += 1;
                        SpatialObject::new(
                            id,
                            DatasetId(dataset as u16),
                            Aabb::from_center_extent(center, obj_extent),
                        )
                    })
                    .collect();
                steps.push(TraceStep::Ingest {
                    dataset: DatasetId(dataset as u16),
                    objects,
                });
            }
            steps.push(TraceStep::Query(query));
        }
        InterleavedTrace {
            spec: self.clone(),
            steps,
            hottest_combination: mixed.hottest_combination,
        }
    }
}

/// The spatial anchor of a query (range/count center, probe point).
fn query_position(query: &Query, bounds: &Aabb) -> Vec3 {
    match query {
        Query::Range(q) => q.range.center(),
        Query::Count(q) => q.range.center(),
        Query::Point(q) => q.point,
        Query::KNearestNeighbors(q) => q.point,
    }
    .clamp(bounds.min, bounds.max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed::QueryKindMix;
    use crate::workload::WorkloadSpec;

    fn bounds() -> Aabb {
        Aabb::from_min_max(Vec3::ZERO, Vec3::splat(1000.0))
    }

    fn spec(ratio: f64, skew: f64) -> InterleavedTraceSpec {
        InterleavedTraceSpec {
            mixed: MixedWorkloadSpec {
                base: WorkloadSpec {
                    num_queries: 400,
                    ..Default::default()
                },
                mix: QueryKindMix::balanced(),
            },
            ingest: IngestProfile {
                ingest_ratio: ratio,
                arrival_skew: skew,
                batch_size: 16,
                ..Default::default()
            },
        }
    }

    #[test]
    fn ratio_controls_the_ingest_share() {
        let t = spec(0.25, 1.0).generate(&bounds());
        assert_eq!(t.query_steps(), 400);
        let share = t.ingest_steps() as f64 / 400.0;
        assert!((0.15..0.35).contains(&share), "share {share}");
        assert_eq!(t.objects_ingested(), t.ingest_steps() * 16);
        assert!(!t.is_empty());
        assert_eq!(t.len(), t.ingest_steps() + t.query_steps());
        // Every kind still appears among the query steps.
        for (kind, count) in t.kind_counts() {
            assert!(count > 0, "kind {kind:?} missing");
        }
        // Zero ratio: a pure query trace.
        let pure = spec(0.0, 1.0).generate(&bounds());
        assert_eq!(pure.ingest_steps(), 0);
        assert_eq!(pure.len(), 400);
    }

    #[test]
    fn arrival_skew_concentrates_on_hot_datasets() {
        let skewed = spec(0.5, 2.0).generate(&bounds());
        let counts = skewed.arrivals_per_dataset(10);
        assert!(
            counts[0] > 3 * counts.iter().skip(5).max().unwrap().max(&1),
            "dataset 0 must dominate arrivals: {counts:?}"
        );
        let uniform = spec(0.5, 0.0).generate(&bounds());
        let u = uniform.arrivals_per_dataset(10);
        let (min, max) = (u.iter().min().unwrap(), u.iter().max().unwrap());
        assert!(*max < 4 * min.max(&1), "uniform arrivals: {u:?}");
    }

    #[test]
    fn arrivals_have_fresh_ids_and_stay_in_bounds() {
        let t = spec(0.4, 1.0).generate(&bounds());
        for step in &t.steps {
            if let TraceStep::Ingest { dataset, objects } = step {
                for o in objects {
                    assert_eq!(o.dataset, *dataset);
                    assert!(o.id.0 >= 1 << 32);
                    assert!(bounds().contains_point(o.center()));
                }
            }
        }
        // Ids are unique per dataset across the whole trace.
        let mut seen = std::collections::HashSet::new();
        for step in &t.steps {
            if let TraceStep::Ingest { objects, .. } = step {
                for o in objects {
                    assert!(seen.insert((o.dataset, o.id)), "duplicate id {o:?}");
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let s = spec(0.3, 1.0);
        assert_eq!(s.generate(&bounds()), s.generate(&bounds()));
        let mut other = s.clone();
        other.mixed.base.seed ^= 1;
        assert_ne!(s.generate(&bounds()).steps, other.generate(&bounds()).steps);
    }

    #[test]
    #[should_panic(expected = "ingest_ratio")]
    fn out_of_range_ratio_panics() {
        let _ = spec(1.5, 1.0).generate(&bounds());
    }

    #[test]
    fn open_loop_arrivals_are_sorted_deterministic_and_tenant_bounded() {
        let p = OpenLoopProfile {
            mean_interarrival_micros: 500,
            tenants: 5,
            hot_tenant_share: 0.6,
            seed: 42,
        };
        let a = p.arrivals(400);
        assert_eq!(a.len(), 400);
        assert_eq!(a, p.arrivals(400), "deterministic per seed");
        assert!(a
            .windows(2)
            .all(|w| w[0].offset_micros <= w[1].offset_micros));
        assert!(a.iter().all(|x| x.tenant < 5));
        assert!(a.iter().all(|x| x.offset_micros > 0));
        // The hot share concentrates on tenant 0.
        let hot = a.iter().filter(|x| x.tenant == 0).count();
        assert!(hot > 150 && hot < 350, "hot tenant got {hot}/400");
        // The mean gap lands near the configured mean.
        let span = a.last().map(|x| x.offset_micros).unwrap_or(0);
        let mean = span / 400;
        assert!((250..=750).contains(&mean), "mean gap {mean}");
        let mut other = p;
        other.seed ^= 1;
        assert_ne!(other.arrivals(400), a, "seed-sensitive");
    }

    #[test]
    #[should_panic(expected = "hot_tenant_share")]
    fn out_of_range_hot_share_panics() {
        let _ = OpenLoopProfile {
            hot_tenant_share: 1.5,
            ..Default::default()
        }
        .arrivals(1);
    }
}
