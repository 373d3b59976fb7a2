//! Self-driving demo of the serving tier over real TCP loopback.
//!
//! Seeds an in-memory store from the synthetic brain model, starts the
//! dispatcher (micro-batching + admission control + maintenance pump) and a
//! framed-TCP front-end on loopback, then drives it with several concurrent
//! client connections — including one deliberately flooding tenant — and
//! prints per-tenant latency percentiles and shed counts.
//!
//! ```text
//! odyssey-serve [--requests N] [--clients N] [--port P]
//! ```

use odyssey_core::{EngineOp, OdysseyConfig, SpaceOdyssey};
use odyssey_datagen::{BrainModel, DatasetSpec};
use odyssey_geom::{Aabb, CountQuery, DatasetId, DatasetSet, Query, QueryId, Vec3};
use odyssey_serve::{
    AdmissionConfig, BatchPolicy, Frontend, Request, ServeConfig, ServeError, Server, TcpClient,
    TcpServer,
};
use odyssey_storage::{write_raw_dataset, StorageManager, StorageOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args(Vec<String>);

impl Args {
    fn get_usize(&self, flag: &str, default: usize) -> usize {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.0.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "odyssey-serve: serving-tier demo over TCP loopback\n\
             \n\
               --requests N   requests per well-behaved client (default 60)\n\
               --clients N    well-behaved client connections (default 4)\n\
               --port P       listen port (default 0 = ephemeral)"
        );
        return;
    }
    let requests = args.get_usize("--requests", 60);
    let clients = args.get_usize("--clients", 4);
    let port = args.get_usize("--port", 0);

    // Engine seeded from the synthetic brain model.
    let spec = DatasetSpec::with_size(4, 3_000, 17);
    let model = BrainModel::new(spec);
    let storage = Arc::new(StorageManager::new(StorageOptions::in_memory(2_048)));
    let raws: Vec<_> = model
        .generate_all()
        .iter()
        .enumerate()
        .map(|(i, objs)| {
            write_raw_dataset(&storage, DatasetId(i as u16), objs).expect("raw dataset")
        })
        .collect();
    let config = OdysseyConfig::paper(model.bounds()).with_background_maintenance();
    let engine = Arc::new(SpaceOdyssey::new(config, raws).expect("valid config"));

    let serve_cfg = ServeConfig {
        batch: BatchPolicy { max_batch: 32 },
        admission: Some(AdmissionConfig {
            tokens_per_sec: 800.0,
            burst_tokens: 16.0,
            max_queued_per_tenant: 64,
        }),
        threads: 4,
        maintenance_interval: Some(Duration::from_millis(5)),
    };
    let server = Server::start(Arc::clone(&engine), Arc::clone(&storage), serve_cfg);
    let tcp = TcpServer::start(server.handle(), ("127.0.0.1", port as u16), 8).expect("bind");
    let addr = tcp.local_addr();
    println!("serving on {addr} ({clients} clients + 1 flooder)");

    let bounds = model.bounds();
    let extent = bounds.extent();
    let query_for = move |tenant: u16, i: usize| {
        let t = ((tenant as usize * 131 + i * 17) % 97) as f64 / 97.0;
        let lo = Vec3::new(
            bounds.min.x + extent.x * 0.6 * t,
            bounds.min.y + extent.y * 0.6 * ((t * 3.0) % 1.0),
            bounds.min.z,
        );
        let hi = lo + extent * 0.25;
        Request {
            tenant,
            deadline_micros: None,
            op: EngineOp::Query(Query::Count(CountQuery::new(
                QueryId(((tenant as u32) << 16) | i as u32),
                Aabb::from_min_max(lo, hi),
                DatasetSet::from_ids([DatasetId((i % 4) as u16)]),
            ))),
        }
    };

    // Well-behaved tenants: `clients` connections pacing their requests.
    let started = Instant::now();
    let mut handles = Vec::new();
    for tenant in 1..=clients as u16 {
        handles.push(std::thread::spawn(move || {
            let client = TcpClient::connect(addr).expect("connect");
            let mut latencies = Vec::with_capacity(requests);
            let mut shed = 0u64;
            for i in 0..requests {
                let begin = Instant::now();
                match client.submit(query_for(tenant, i)) {
                    Ok(_) => latencies.push(begin.elapsed().as_secs_f64() * 1e3),
                    Err(ServeError::Overloaded { .. }) => shed += 1,
                    Err(e) => panic!("tenant {tenant}: {e}"),
                }
                std::thread::sleep(Duration::from_micros(800));
            }
            (tenant, latencies, shed)
        }));
    }
    // Tenant 0 floods with no pacing over several parallel connections, so
    // its offered rate clears its token bucket and admission sheds it.
    let flood_conns = 6;
    let flooders: Vec<_> = (0..flood_conns)
        .map(|c| {
            std::thread::spawn(move || {
                let client = TcpClient::connect(addr).expect("connect");
                let mut ok = 0u64;
                let mut shed = 0u64;
                for i in 0..requests * 4 {
                    match client.submit(query_for(0, c * 10_000 + i)) {
                        Ok(_) => ok += 1,
                        Err(ServeError::Overloaded { .. }) => shed += 1,
                        Err(e) => panic!("flooder: {e}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();

    for handle in handles {
        let (tenant, mut lat, shed) = handle.join().expect("client thread");
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        println!(
            "tenant {tenant}: served {:3}  shed {shed:3}  p50 {:7.3}ms  p99 {:7.3}ms",
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 99.0),
        );
    }
    let (mut flood_ok, mut flood_shed) = (0u64, 0u64);
    for flooder in flooders {
        let (ok, shed) = flooder.join().expect("flooder thread");
        flood_ok += ok;
        flood_shed += shed;
    }
    println!("tenant 0 (flood): served {flood_ok}  shed {flood_shed}");

    tcp.stop();
    let report = server.stop();
    println!(
        "drained in {:.1}ms: served {} shed {} expired {} pump {:?}",
        started.elapsed().as_secs_f64() * 1e3,
        report.served,
        report.shed,
        report.expired_at_dequeue,
        report.pump,
    );
    println!(
        "engine: queue-wait total {}us over {} batched ops, {} deadline drops",
        engine.queue_wait_micros_total(),
        engine.batch_ops_served(),
        engine.deadlines_expired(),
    );
}
