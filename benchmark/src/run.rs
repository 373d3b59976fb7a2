//! One benchmark run: set-up, a fixed number of identical blocks, the
//! quiet-decile estimators over them, and the report.

use crate::canary;
use crate::data::{peak_rss_mb, StoreRoot};
use crate::ops::{self, Tally};
use crate::probes;
use crate::spec::{MetricDecl, WorkloadDecl, END_TO_END, FIRST_TOUCH_REPS, PER_LAYER};
use crate::stats::{median, percentile, quartiles, quiet_decile, Better};
use crate::trace::{self, Tracer};
use crate::workloads::{self, fatal, BlockResult, Fallible, Workload};
use odyssey_storage::OBJECTS_PER_PAGE;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The flush policy every store of the benchmark runs under, printed with
/// each run so that both sides of a comparison can be seen to share it.
const FLUSH_POLICY: &str = "durable Disk backend; fdatasync after every WAL append; data file \
synced before the WAL record naming its pages; checkpoint syncs all data files before the manifest";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static WorkloadDecl,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    /// Directories to try, in order, for the store directories.
    pub store_bases: Vec<PathBuf>,
    /// Directory trace files are written to.
    pub results_dir: PathBuf,
}

/// What a run reports: the contract's last line, as values.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-block numbers of the blocks run so far, and the failure count.
#[derive(Default)]
struct Blocks {
    prepare_s: Vec<f64>,
    wall_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p95_ms: Vec<f64>,
    first_touch_ms: Vec<f64>,
    canary_s: Vec<f64>,
    /// The oracle's checksums for one block, computed after the first.
    expected: Option<Vec<u64>>,
    attempted: u64,
    failed: u64,
}

impl Blocks {
    /// Runs block `index` (after a canary sample), checks every answer
    /// against the oracle's and books the block's numbers.
    fn run(
        &mut self,
        workload: &mut dyn Workload,
        index: usize,
        tracer: &mut Tracer,
    ) -> Fallible<BlockResult> {
        self.canary_s.push(canary::run());
        let mut block = workload.block(index, tracer)?;
        // The oracle runs once, after the first block and outside any timed
        // region; every block must reproduce its checksums.
        let expected = self.expected.get_or_insert_with(|| {
            let start = Instant::now();
            let expected = workload.expected();
            println!(
                "oracle: {} answers by brute force in {:.3} s",
                expected.len(),
                start.elapsed().as_secs_f64()
            );
            expected
        });
        let ops = block.checksums.len() as u64;
        let wrong = block
            .checksums
            .iter()
            .zip(expected.iter())
            .filter(|(got, want)| got != want)
            .count() as u64
            + ops.abs_diff(expected.len() as u64);
        self.attempted += ops;
        self.failed += wrong;
        self.prepare_s.push(block.prepare_s);
        self.wall_s.push(block.wall_s);
        self.ops_per_s
            .push((ops - wrong.min(ops)) as f64 / block.wall_s);
        self.p50_ms.push(percentile(&block.latencies_ms, 50.0));
        self.p95_ms.push(percentile(&block.latencies_ms, 95.0));
        self.first_touch_ms.extend(block.first_touch_ms);
        block.tally.wall_seconds = block.wall_s;
        block.tally.blocks = 1;
        Ok(block)
    }
}

fn spread_line(name: &str, values: &[f64], better: Better) {
    let [q1, q2, q3] = quartiles(values);
    println!(
        "  {name}: quiet decile {:.4} | over {} samples: q1 {:.4} median {:.4} q3 {:.4}",
        quiet_decile(values, better),
        values.len(),
        q1,
        q2,
        q3
    );
}

pub fn run(args: &RunArgs, started: Instant) -> Fallible<Report> {
    let decl = args.workload;
    let sizes = decl.sizes(args.quick, args.seconds);
    let root = StoreRoot::create_in_first(&args.store_bases).map_err(fatal("create store root"))?;
    println!(
        "workload {} seed {} blocks {} ({} datasets x {} objects, {} queries per block){}",
        decl.name,
        args.seed,
        sizes.blocks,
        sizes.datasets,
        sizes.objects_per_dataset,
        sizes.queries_per_block,
        if args.trace { " [traced run]" } else { "" }
    );
    println!("why: {}", decl.why);
    println!(
        "stores: {} on {}; {}",
        root.dir().display(),
        root.filesystem(),
        FLUSH_POLICY
    );
    println!(
        "threads available: {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let mut tracer = Tracer::new(started, 0);
    let mut workload = workloads::create(decl.kind, sizes, args.seed, &root, &tracer)?;
    let one_time_setup_s = started.elapsed().as_secs_f64();

    let mut blocks = Blocks::default();
    let workload = workload.as_mut();
    let report = if args.trace {
        run_traced(
            args,
            sizes.blocks,
            workload,
            &mut blocks,
            &mut tracer,
            &root,
        )?
    } else {
        run_end_to_end(
            sizes.blocks,
            one_time_setup_s,
            workload,
            &mut blocks,
            &mut tracer,
        )?
    };

    let quiet = canary::quiet_ratio(&blocks.canary_s);
    println!(
        "canary: best/median {:.3} over {} samples (median {:.3} ms)",
        quiet,
        blocks.canary_s.len(),
        median(&blocks.canary_s) * 1e3
    );
    if quiet < canary::LOUD_BELOW {
        println!("WARNING: the machine was loud during this run; compare with care");
    }
    println!(
        "ops_attempted {} ops_failed {} failed_share {:.6}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    Ok(report)
}

/// The report over `decls`, in declaration order; a metric the run has no
/// value for (a layer the workload does not exercise) reads 0.
fn report(blocks: &Blocks, decls: &[MetricDecl], values: &BTreeMap<&'static str, f64>) -> Report {
    Report {
        correct: blocks.failed == 0,
        attempted: blocks.attempted.max(1),
        failed: blocks.failed,
        metrics: decls
            .iter()
            .map(|d| (d.name, values.get(d.name).copied().unwrap_or(0.0), d.unit))
            .collect(),
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// An untraced run: every block, then the quiet-decile estimators.
fn run_end_to_end(
    block_count: usize,
    one_time_setup_s: f64,
    workload: &mut dyn Workload,
    blocks: &mut Blocks,
    tracer: &mut Tracer,
) -> Fallible<Report> {
    // Where blocks do not start from a fresh engine, a probe samples
    // `first_touch_ms` between them, spread evenly over the run.
    let probe_every = (block_count / FIRST_TOUCH_REPS).max(1);
    for index in 0..block_count {
        if let Some(probe) = workload.first_touch_probe() {
            if index % probe_every == 0 {
                blocks.first_touch_ms.push(probe.sample()?);
            }
        }
        blocks.run(workload, index, tracer)?;
    }
    let finish = workload.finish(tracer)?;
    blocks.attempted += finish.extra_attempted;
    blocks.failed += finish.extra_failed;

    println!("per-block spread (not gated):");
    spread_line("ops_per_s", &blocks.ops_per_s, Better::Higher);
    spread_line("query_p50_ms", &blocks.p50_ms, Better::Lower);
    spread_line("query_p95_ms", &blocks.p95_ms, Better::Lower);
    spread_line("first_touch_ms", &blocks.first_touch_ms, Better::Lower);
    spread_line("block_wall_s", &blocks.wall_s, Better::Lower);
    let walls: Vec<String> = blocks.wall_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("  block_wall_s in run order: {}", walls.join(" "));
    // Set-up a block repeats (a fresh store, a restored image) enters
    // as the median over the blocks, on top of what was done once.
    let per_block_setup_s = median(&blocks.prepare_s);
    println!("set-up: {one_time_setup_s:.3} s once + {per_block_setup_s:.3} s per block (median)");
    let m = BTreeMap::from([
        ("setup_s", one_time_setup_s + per_block_setup_s),
        ("ops_per_s", quiet_decile(&blocks.ops_per_s, Better::Higher)),
        ("query_p50_ms", quiet_decile(&blocks.p50_ms, Better::Lower)),
        ("query_p95_ms", quiet_decile(&blocks.p95_ms, Better::Lower)),
        (
            "first_touch_ms",
            quiet_decile(&blocks.first_touch_ms, Better::Lower),
        ),
        ("space_amp", finish.space_amp),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    Ok(report(blocks, &END_TO_END, &m))
}

/// A traced run: a quarter of the blocks untraced (the baseline of the
/// tracing overhead), the same number with spans recorded, the workload's
/// own extra blocks, then the storage micro-probes. End-to-end numbers
/// never come from here.
fn run_traced(
    args: &RunArgs,
    block_count: usize,
    workload: &mut dyn Workload,
    blocks: &mut Blocks,
    tracer: &mut Tracer,
    root: &StoreRoot,
) -> Fallible<Report> {
    let quarter = (block_count / 4).max(1);
    for index in 0..quarter {
        blocks.run(workload, index, tracer)?;
    }
    let untraced_wall = blocks.wall_s.clone();

    tracer.set_recording(true);
    let mut traced = Tally::default();
    for index in quarter..2 * quarter {
        traced.merge(&blocks.run(workload, index, tracer)?.tally);
    }
    let traced_wall = &blocks.wall_s[quarter..];
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let extras = workload.layer_extras(tracer, &mut m)?;
    tracer.set_recording(false);
    let finish = workload.finish(tracer)?;
    blocks.attempted += finish.extra_attempted;
    blocks.failed += finish.extra_failed;
    probes::run(&root.path("probe"), &mut m)?;

    let spans = std::mem::replace(tracer, Tracer::new(Instant::now(), 0)).into_spans();
    let path = args
        .results_dir
        .join(format!("trace-{}.jsonl", args.workload.name));
    trace::write_jsonl(&path, &spans).map_err(fatal("write trace file"))?;
    println!("trace: {} spans in {}", spans.len(), path.display());

    // Where the serve tier sits in front of the engine, plans and cursor
    // phases are only visible in the workload's direct block.
    let engine = if extras.queries > 0 { &extras } else { &traced };
    let per_block = |total: u64, tally: &Tally| ratio(total as f64, tally.blocks as f64);
    let p50_of = |name: &str, scale: f64| percentile(&trace::durations(&spans, name), 50.0) * scale;
    let cursors = trace::durations(&spans, ops::OPEN).len() as f64;

    m.insert(
        "serve.server.queue_wait_us",
        percentile(&traced.queue_wait_us, 50.0),
    );
    m.insert(
        "serve.batcher.batch_size",
        crate::stats::mean(&traced.batch_sizes),
    );
    m.insert("serve.admission.shed", finish.shed as f64);
    m.insert("serve.tcp.dropped_replies", finish.dropped_replies as f64);

    m.insert("core.cursor.open_us", p50_of(ops::OPEN, 1e6));
    m.insert("core.cursor.first_batch_us", p50_of(ops::FIRST_BATCH, 1e6));
    m.insert(
        "core.cursor.drain_us",
        ratio(
            trace::durations(&spans, ops::NEXT_BATCH)
                .iter()
                .fold(0.0, |sum, s| sum + s)
                * 1e6,
            cursors,
        ),
    );
    m.insert("core.cursor.finish_us", p50_of(ops::FINISH, 1e6));
    m.insert(
        "core.cursor.batches_per_query",
        ratio(engine.batches as f64, cursors),
    );
    let plans = (engine.plans_seqscan + engine.plans_octree + engine.plans_mergefile) as f64;
    m.insert(
        "core.planner.share_seqscan",
        ratio(engine.plans_seqscan as f64, plans),
    );
    m.insert(
        "core.planner.share_octree",
        ratio(engine.plans_octree as f64, plans),
    );
    m.insert(
        "core.planner.share_mergefile",
        ratio(engine.plans_mergefile as f64, plans),
    );
    m.insert(
        "core.planner.est_over_sim",
        ratio(engine.estimated_seconds, engine.simulated_seconds),
    );
    m.insert(
        "core.octree.partitions_refined",
        per_block(engine.partitions_refined, engine),
    );
    m.insert(
        "core.octree.objects_scanned_per_result",
        ratio(engine.io.objects_scanned as f64, engine.rows as f64),
    );
    m.insert("core.merger.merges", per_block(engine.merges, engine));
    m.insert(
        "core.merger.mergefile_partition_share",
        ratio(
            engine.partitions_from_merge as f64,
            (engine.partitions_from_merge + engine.partitions_from_datasets) as f64,
        ),
    );
    m.insert(
        "core.merger.stale_repairs",
        per_block(engine.stale_repairs, engine),
    );
    m.insert(
        "core.merger.stale_bypasses",
        per_block(engine.stale_bypasses, engine),
    );
    m.insert("core.engine.ingest_us", p50_of(ops::INGEST, 1e6));
    m.insert(
        "core.scheduler.jobs_completed",
        per_block(engine.io.maintenance_jobs_completed, engine),
    );
    m.insert(
        "core.scheduler.queue_peak",
        engine.io.maintenance_queue_peak as f64,
    );
    m.insert(
        "core.compactor.compactions",
        per_block(engine.compactions, engine),
    );
    m.insert(
        "core.compactor.pages_written",
        per_block(engine.io.maintenance_pages_written, engine),
    );
    m.insert("core.durability.open_ms", p50_of(ops::ENGINE_OPEN, 1e3));
    m.insert("core.durability.checkpoint_ms", finish.checkpoint_s * 1e3);
    m.insert("storage.manager.open_ms", p50_of(ops::STORAGE_OPEN, 1e3));
    m.insert(
        "storage.buffer.hit_ratio",
        ratio(
            engine.pool_hits as f64,
            (engine.pool_hits + engine.pool_misses) as f64,
        ),
    );
    m.insert(
        "storage.buffer.evictions",
        per_block(engine.pool_evictions, engine),
    );
    m.insert(
        "storage.file.pages_read_per_query",
        ratio(engine.io.pages_read() as f64, engine.queries as f64),
    );
    m.insert(
        "storage.file.seq_read_share",
        ratio(
            engine.io.sequential_reads as f64,
            engine.io.pages_read() as f64,
        ),
    );
    m.insert(
        "storage.file.pages_written_per_op",
        ratio(
            engine.io.pages_written() as f64,
            (engine.queries + engine.ingests) as f64,
        ),
    );
    m.insert("storage.wal.pages", per_block(engine.wal_pages, engine));
    m.insert(
        "storage.manager.write_amp",
        ratio(
            engine.io.pages_written() as f64,
            engine.objects_ingested as f64 / OBJECTS_PER_PAGE as f64,
        ),
    );
    m.insert("storage.manager.dead_page_ratio", finish.dead_page_ratio);
    m.insert(
        "storage.cost.sim_s",
        ratio(engine.simulated_seconds, engine.blocks as f64),
    );
    m.insert(
        "storage.cost.sim_over_wall",
        ratio(engine.simulated_seconds, engine.wall_seconds),
    );
    m.insert(
        "bench.trace_overhead",
        ratio(median(traced_wall), median(&untraced_wall)),
    );
    m.insert("bench.op_attributed_share", trace::attributed_share(&spans));
    let [q1, q2, q3] = quartiles(&untraced_wall);
    m.insert("bench.block_spread", ratio(q3 - q1, q2));
    m.insert(
        "bench.canary_quiet_ratio",
        canary::quiet_ratio(&blocks.canary_s),
    );

    let report = report(blocks, &PER_LAYER, &m);
    for (name, value, unit) in &report.metrics {
        println!("  {name} = {value} {unit}");
    }
    Ok(report)
}

/// Appends the run as one line of a result set that `compare` reads.
pub fn append_result(path: &Path, args: &RunArgs, report: &Report) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        report.to_json()
    )
}
