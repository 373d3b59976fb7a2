//! Serving-tier smoke + benchmark: replay an open-loop multi-tenant trace
//! through the front-end's policies in deterministic virtual time and emit
//! the served-latency percentiles and shed counts as `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p odyssey-bench --bin serve -- \
//!     --requests 400 --tenants 4 --out BENCH_serve.json
//! ```
//!
//! Exits non-zero if micro-batching changes any query answer (checksum
//! mismatch against per-request dispatch), if the batching-on served p99
//! exceeds the batching-off p99 at the same offered load, if admission
//! control sheds a single innocent request under the flooding tenant, or
//! if admission-on makes the innocent tenants' p99 worse than leaving the
//! flood unchecked. Latencies are virtual microseconds from the replay
//! clock (simulated I/O cost over a modeled worker pool), so every gate
//! holds on a single-core runner.

use odyssey_bench::cli::Args;
use odyssey_bench::serve::{run_serve_bench, ServeBenchConfig, ServeRun};
use odyssey_datagen::{DatasetSpec, JsonValue};

fn run_json(run: &ServeRun) -> JsonValue {
    JsonValue::Object(vec![
        ("label".into(), JsonValue::String(run.label.clone())),
        ("served".into(), JsonValue::Number(run.served as f64)),
        ("shed".into(), JsonValue::Number(run.shed as f64)),
        ("expired".into(), JsonValue::Number(run.expired as f64)),
        ("p50_us".into(), JsonValue::Number(run.p50_us)),
        ("p99_us".into(), JsonValue::Number(run.p99_us)),
        ("p999_us".into(), JsonValue::Number(run.p999_us)),
        ("mean_batch".into(), JsonValue::Number(run.mean_batch)),
        (
            "checksum".into(),
            JsonValue::String(format!("{:016x}", run.checksum)),
        ),
    ])
}

fn print_run(run: &ServeRun) {
    println!(
        "{:<14} served={:>5} shed={:>5} expired={:>4}  p50={:>9.1}us p99={:>9.1}us p99.9={:>9.1}us  mean batch={:>5.2}",
        run.label, run.served, run.shed, run.expired, run.p50_us, run.p99_us, run.p999_us, run.mean_batch,
    );
}

fn main() {
    let args = Args::parse();
    if args.wants_help() {
        println!(
            "serve — serving-tier experiment (micro-batching + admission control)\n\
             \n\
             options:\n\
             --datasets N    number of datasets (default 4)\n\
             --objects N     seed objects per dataset (default 2000)\n\
             --requests N    open-loop requests (default 400)\n\
             --tenants N     simulated tenants (default 4)\n\
             --gap N         mean interarrival in virtual us (default 2000)\n\
             --max-batch N   batch size cap (default 32)\n\
             --threads N     modeled worker threads (default 8)\n\
             --flood N       flooding-tenant requests (default 1200)\n\
             --out PATH      write results JSON (default BENCH_serve.json)"
        );
        return;
    }
    let cfg = ServeBenchConfig {
        dataset_spec: DatasetSpec {
            num_datasets: args.get_usize("datasets", 4),
            objects_per_dataset: args.get_usize("objects", 2_000),
            soma_clusters: 5,
            segments_per_neuron: 40,
            seed: 777,
            ..Default::default()
        },
        requests: args.get_usize("requests", 400),
        mean_interarrival_micros: args.get_usize("gap", 2_000) as u64,
        tenants: args.get_usize("tenants", 4) as u16,
        max_batch: args.get_usize("max-batch", 32),
        threads: args.get_usize("threads", 8),
        flood_requests: args.get_usize("flood", 1_200),
        ..Default::default()
    };

    let cmp = run_serve_bench(&cfg);
    println!(
        "serve experiment: {} datasets x {} objects, {} requests over {} tenants\n",
        cfg.dataset_spec.num_datasets,
        cfg.dataset_spec.objects_per_dataset,
        cfg.requests,
        cfg.tenants,
    );
    print_run(&cmp.batched);
    print_run(&cmp.per_request);
    print_run(&cmp.admission_on_innocent);
    print_run(&cmp.admission_off_innocent);
    println!(
        "\nbatching p99 speedup {:.2}x  answers_match={}  flood shed={} innocent shed={}",
        cmp.batching_p99_speedup(),
        cmp.answers_match(),
        cmp.flood_shed,
        cmp.innocent_shed,
    );

    let out = args
        .get("out")
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let doc = JsonValue::Object(vec![
        ("experiment".into(), JsonValue::String("serve".into())),
        ("requests".into(), JsonValue::Number(cfg.requests as f64)),
        ("tenants".into(), JsonValue::Number(cfg.tenants as f64)),
        (
            "batching_p99_speedup".into(),
            JsonValue::Number(cmp.batching_p99_speedup()),
        ),
        ("answers_match".into(), JsonValue::Bool(cmp.answers_match())),
        (
            "flood_shed".into(),
            JsonValue::Number(cmp.flood_shed as f64),
        ),
        (
            "innocent_shed".into(),
            JsonValue::Number(cmp.innocent_shed as f64),
        ),
        (
            "runs".into(),
            JsonValue::Array(vec![
                run_json(&cmp.batched),
                run_json(&cmp.per_request),
                run_json(&cmp.admission_on_innocent),
                run_json(&cmp.admission_off_innocent),
            ]),
        ),
    ]);
    std::fs::write(&out, doc.to_json()).expect("write results JSON");
    println!("wrote {out}");

    if !cmp.answers_match() {
        eprintln!("FAIL: micro-batching changed a query answer");
        std::process::exit(1);
    }
    if cmp.batched.p99_us > cmp.per_request.p99_us {
        eprintln!("FAIL: batching-on served p99 regressed past batching-off");
        std::process::exit(1);
    }
    if cmp.innocent_shed > 0 {
        eprintln!("FAIL: admission control shed an innocent tenant's request");
        std::process::exit(1);
    }
    if cmp.admission_on_innocent.p99_us > cmp.admission_off_innocent.p99_us {
        eprintln!("FAIL: admission control made innocent tenants slower than the raw flood");
        std::process::exit(1);
    }
}
