//! What the benchmark declares: its workloads with their sizes, and every
//! metric with its unit, good direction and bound. `../BENCHMARK.json`
//! mirrors these tables (a test holds the two together); sizes live only
//! here.

use crate::stats::Better;

/// The `--seconds` value the block counts below are written for
/// (`run_seconds` in `BENCHMARK.json`). Another value scales the block
/// count in proportion; nothing ever reads a clock to decide how much work
/// a run does.
pub const NOMINAL_SECONDS: u64 = 20;

/// Seed of the benchmark's fixed world: the datasets and the pool of
/// operations (query shapes with their combinations, arrival batches) are
/// generated from it, the same for every run. `--seed` draws how a run
/// meets the world — which dataset sits behind which id on the adaptive
/// workloads, the order of the list on the converged ones (see
/// `workloads/mod.rs` and the README's "What `--seed` draws"). Measured on
/// this sandbox, a fresh world per seed moves every timing by 11-70 %
/// between seeds (ten clustered query centres and sixteen soma clusters do
/// not average out over a few hundred queries); no 10 % gate survives that.
pub const WORLD_SEED: u64 = 0x0D15_5EA5;

/// Fewest blocks a full run keeps when `--seconds` is cut: the quiet decile
/// needs a population to pick from.
pub const MIN_BLOCKS: usize = 20;

/// Blocks in a `--quick` run.
pub const QUICK_BLOCKS: usize = 3;

/// Fewest fresh-engine probes behind `first_touch_ms` on the workloads whose
/// blocks do not build a store themselves.
pub const FIRST_TOUCH_REPS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    ExploreCold,
    ServeConverged,
    ScanLarge,
    IngestMix,
}

/// Sizes of one workload. One block is always the same `ops_per_block`
/// operation list on the same starting state.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub datasets: usize,
    pub objects_per_dataset: usize,
    /// Queries in one block's operation list (ingest steps come on top in
    /// `ingest_mix`).
    pub queries_per_block: usize,
    /// Blocks at [`NOMINAL_SECONDS`].
    pub blocks: usize,
    /// Queries the set-up runs to converge the store (`ingest_mix` only;
    /// the other workloads replay their own list).
    pub converge_queries: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDecl {
    pub kind: WorkloadKind,
    pub name: &'static str,
    pub why: &'static str,
    pub full: Sizes,
    pub quick: Sizes,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        kind: WorkloadKind::ExploreCold,
        name: "explore_cold",
        why: "Paper Fig. 4: every block builds a fresh durable store and explores it; first-touch partitioning, refinement, merging and their WAL records do the work, serve tier idle, pool cold.",
        full: Sizes {
            datasets: 10,
            objects_per_dataset: 30_000,
            queries_per_block: 240,
            blocks: 24,
            converge_queries: 0,
        },
        quick: Sizes {
            datasets: 4,
            objects_per_dataset: 1_500,
            queries_per_block: 24,
            blocks: QUICK_BLOCKS,
            converge_queries: 0,
        },
    },
    WorkloadDecl {
        kind: WorkloadKind::ServeConverged,
        name: "serve_converged",
        why: "Steady multi-tenant serving: two closed-loop TCP clients on a converged, fully cached store; poll loop, batcher, codecs, planner and cursor dominate, refinement and device reads idle.",
        full: Sizes {
            datasets: 10,
            objects_per_dataset: 50_000,
            queries_per_block: 300,
            blocks: 30,
            converge_queries: 0,
        },
        quick: Sizes {
            datasets: 4,
            objects_per_dataset: 1_500,
            queries_per_block: 24,
            blocks: QUICK_BLOCKS,
            converge_queries: 0,
        },
    },
    WorkloadDecl {
        kind: WorkloadKind::ScanLarge,
        name: "scan_large",
        why: "Large range scans drained through cursors with a working set 20x the buffer pool: page read + CRC, decode/filter, eviction and batching dominate; planner and serve tier idle.",
        full: Sizes {
            datasets: 4,
            objects_per_dataset: 200_000,
            queries_per_block: 300,
            blocks: 24,
            converge_queries: 0,
        },
        quick: Sizes {
            datasets: 2,
            objects_per_dataset: 4_000,
            queries_per_block: 16,
            blocks: QUICK_BLOCKS,
            converge_queries: 0,
        },
    },
    WorkloadDecl {
        kind: WorkloadKind::IngestMix,
        name: "ingest_mix",
        why: "Writes beside reads: each block reopens a converged store image and replays an ingest+query trace; overflow appends, ingest splits, stale-merge repair, WAL append+sync and reopen all show.",
        full: Sizes {
            datasets: 10,
            objects_per_dataset: 40_000,
            queries_per_block: 200,
            blocks: 24,
            converge_queries: 800,
        },
        quick: Sizes {
            datasets: 4,
            objects_per_dataset: 1_500,
            queries_per_block: 24,
            blocks: QUICK_BLOCKS,
            converge_queries: 48,
        },
    },
];

impl WorkloadDecl {
    pub fn by_name(name: &str) -> Option<&'static WorkloadDecl> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Sizes and block count of a run: a function of the table and the
    /// command line only.
    pub fn sizes(&self, quick: bool, seconds: u64) -> Sizes {
        if quick {
            return self.quick;
        }
        let scaled = (self.full.blocks as u64 * seconds).div_ceil(NOMINAL_SECONDS) as usize;
        Sizes {
            blocks: scaled.max(MIN_BLOCKS),
            ..self.full
        }
    }
}

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by `--trace 0` runs.
pub const END_TO_END: [MetricDecl; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.15),
    e2e("query_p50_ms", "ms", Lower, 0.15),
    e2e("query_p95_ms", "ms", Lower, 0.20),
    e2e("first_touch_ms", "ms", Lower, 0.10),
    e2e("space_amp", "ratio", Lower, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// One layer each; printed by `--trace 1` runs. A workload that does not
/// exercise a layer reports 0 for it. Directions of the planner shares are
/// nominal (they describe a mix, not a cost).
pub const PER_LAYER: [MetricDecl; 51] = [
    layer("serve.tcp.overhead_us", "us", Lower),
    layer("serve.server.overhead_us", "us", Lower),
    layer("serve.server.queue_wait_us", "us", Lower),
    layer("serve.batcher.batch_size", "count", Higher),
    layer("serve.protocol.encode_ns", "ns", Lower),
    layer("serve.protocol.decode_ns", "ns", Lower),
    layer("serve.protocol.reply_bytes", "bytes", Lower),
    layer("serve.admission.shed", "count", Lower),
    layer("serve.tcp.dropped_replies", "count", Lower),
    layer("core.cursor.open_us", "us", Lower),
    layer("core.cursor.first_batch_us", "us", Lower),
    layer("core.cursor.drain_us", "us", Lower),
    layer("core.cursor.finish_us", "us", Lower),
    layer("core.cursor.batches_per_query", "count", Lower),
    layer("core.planner.share_seqscan", "ratio", Lower),
    layer("core.planner.share_octree", "ratio", Lower),
    layer("core.planner.share_mergefile", "ratio", Higher),
    layer("core.planner.est_over_sim", "ratio", Lower),
    layer("core.octree.partitions_refined", "count", Lower),
    layer("core.octree.objects_scanned_per_result", "ratio", Lower),
    layer("core.merger.merges", "count", Lower),
    layer("core.merger.mergefile_partition_share", "ratio", Higher),
    layer("core.merger.stale_repairs", "count", Lower),
    layer("core.merger.stale_bypasses", "count", Lower),
    layer("core.engine.ingest_us", "us", Lower),
    layer("core.scheduler.jobs_completed", "count", Lower),
    layer("core.scheduler.queue_peak", "count", Lower),
    layer("core.compactor.compactions", "count", Lower),
    layer("core.compactor.pages_written", "count", Lower),
    layer("core.durability.open_ms", "ms", Lower),
    layer("core.durability.checkpoint_ms", "ms", Lower),
    layer("storage.manager.open_ms", "ms", Lower),
    layer("storage.buffer.hit_ratio", "ratio", Higher),
    layer("storage.buffer.evictions", "count", Lower),
    layer("storage.buffer.hit_ns", "ns", Lower),
    layer("storage.file.miss_us", "us", Lower),
    layer("storage.file.pages_read_per_query", "count", Lower),
    layer("storage.file.seq_read_share", "ratio", Higher),
    layer("storage.file.pages_written_per_op", "count", Lower),
    layer("storage.page.decode_ns_per_object", "ns", Lower),
    layer("storage.page.encode_ns_per_object", "ns", Lower),
    layer("storage.wal.pages", "count", Lower),
    layer("storage.wal.append_us", "us", Lower),
    layer("storage.manager.write_amp", "ratio", Lower),
    layer("storage.manager.dead_page_ratio", "ratio", Lower),
    layer("storage.cost.sim_s", "s", Lower),
    layer("storage.cost.sim_over_wall", "ratio", Lower),
    layer("bench.trace_overhead", "ratio", Lower),
    layer("bench.op_attributed_share", "ratio", Higher),
    layer("bench.block_spread", "ratio", Lower),
    layer("bench.canary_quiet_ratio", "ratio", Higher),
];

/// The contents of `BENCHMARK.json`, generated from the tables above so the
/// file and the program cannot drift apart.
pub fn benchmark_json() -> String {
    let quote = |s: &str| odyssey_datagen::JsonValue::String(s.to_string()).to_json();
    let list = |items: Vec<String>| items.join(", ");
    let block = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let metric = |d: &MetricDecl| {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(d.name),
            quote(d.unit),
            quote(d.better.name())
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {NOMINAL_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(COMMAND.iter().map(|s| quote(s)).collect()),
        list(PATHS.iter().map(|s| quote(s)).collect()),
        block(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
                .collect()
        ),
        block(END_TO_END.iter().map(metric).collect()),
        block(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload and metric the program can print is declared in
    /// `BENCHMARK.json`, and nothing else is: the file is this text.
    #[test]
    fn benchmark_json_is_the_declared_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `odyssey-benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn declarations_respect_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(d.unit.len() <= 16, "{}", d.unit);
            names.push(d.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn block_count_follows_the_command_line_only() {
        let w = &WORKLOADS[0];
        assert_eq!(w.sizes(false, NOMINAL_SECONDS).blocks, w.full.blocks);
        assert_eq!(
            w.sizes(false, 2 * NOMINAL_SECONDS).blocks,
            2 * w.full.blocks
        );
        assert_eq!(w.sizes(false, 1).blocks, MIN_BLOCKS);
        assert_eq!(w.sizes(true, 60).blocks, QUICK_BLOCKS);
    }
}
