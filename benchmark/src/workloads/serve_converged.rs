//! `serve_converged`: steady multi-tenant serving. Two closed-loop clients,
//! each on its own persistent TCP connection, send the same balanced query
//! list to a `TcpServer` in this process, over a store that has converged
//! and fits the buffer pool. The poll loop, the batcher window, the codecs,
//! the planner and cursors over cached pages are the work.

use super::{
    balanced_spec, fatal, finish_store, phase, pool_pages, replay, shuffle, world_data, world_seed,
    BlockResult, Fallible, Finish, FirstTouchProbe, Workload,
};
use crate::data::{build_store, oracle_checksums, Data, StoreRoot};
use crate::ops::{self, Mark, OpResult, Tally};
use crate::spec::Sizes;
use crate::stats::{mean, percentile};
use crate::trace::Tracer;
use odyssey_core::{EngineOp, SpaceOdyssey};
use odyssey_geom::Query;
use odyssey_serve::{
    decode_request, decode_response, encode_request, encode_response, Frontend, Request,
    ServeConfig, ServeHandle, ServeResult, Server, TcpClient, TcpServer,
};
use odyssey_storage::StorageManager;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Share of the brain volume the base range of a balanced query covers.
const VOLUME: f64 = 1e-5;
/// Untimed in-process replays of the list before serving starts.
const WARM_REPLAYS: usize = 3;
/// Closed-loop clients, one connection and one tenant each.
const CLIENTS: usize = 2;

pub struct ServeConverged {
    data: Data,
    queries: Vec<Query>,
    dir: PathBuf,
    storage: Arc<StorageManager>,
    engine: Arc<SpaceOdyssey>,
    /// Taken apart in `finish`, in this order.
    clients: Vec<TcpClient>,
    tcp: Option<TcpServer>,
    server: Option<Server>,
    /// One tracer per client thread; they follow the run tracer's recording
    /// state and hand their spans over in `layer_extras`.
    lanes: Vec<Tracer>,
    /// Latencies of the traced TCP blocks, for the transport's overhead.
    tcp_latencies_ms: Vec<f64>,
    probe: FirstTouchProbe,
}

impl ServeConverged {
    pub fn new(
        sizes: Sizes,
        seed: u64,
        root: &StoreRoot,
        tracer: &Tracer,
    ) -> Fallible<ServeConverged> {
        let data = phase("generate datasets", || world_data(&sizes));
        let mut queries = balanced_spec(&sizes, sizes.queries_per_block, VOLUME, world_seed(2))
            .generate(&data.bounds)
            .queries;
        shuffle(&mut queries, seed);
        let dir = root.path("serve_converged");
        let (storage, engine) = phase("write raw files, create engine", || {
            build_store(&dir, data.bounds, &data.datasets, pool_pages(&data, 4.0))
        })
        .map_err(fatal("build store"))?;
        let last = phase("warm replays", || {
            let mut last = Tally::default();
            for _ in 0..WARM_REPLAYS {
                last = replay(&engine, &storage, &queries)?;
            }
            Ok::<_, String>(last)
        })?;
        println!(
            "converged: the last of {WARM_REPLAYS} warm replays refined {} partitions and ran {} merges",
            last.partitions_refined, last.merges
        );
        let storage = Arc::new(storage);
        let engine = Arc::new(engine);
        // Defaults, sized to this sandbox's two cores; no admission control.
        let config = ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(&engine), Arc::clone(&storage), config);
        let tcp = TcpServer::start(server.handle(), "127.0.0.1:0", 2)
            .map_err(fatal("start TCP server"))?;
        let clients = (0..CLIENTS)
            .map(|_| TcpClient::connect(tcp.local_addr()))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(fatal("connect client"))?;
        Ok(ServeConverged {
            data,
            queries,
            dir,
            storage,
            engine,
            clients,
            tcp: Some(tcp),
            server: Some(server),
            lanes: (0..CLIENTS).map(|c| tracer.lane(c as u32 + 1)).collect(),
            tcp_latencies_ms: Vec::new(),
            probe: FirstTouchProbe::new(root, &sizes, VOLUME),
        })
    }

    fn handle(&self) -> Fallible<ServeHandle> {
        Ok(self
            .server
            .as_ref()
            .ok_or("server already stopped")?
            .handle())
    }

    /// One block through `frontends` (one per client thread): the threads
    /// start together and each sends its share of the list, one request in
    /// flight at a time.
    fn block_through(
        &mut self,
        frontends: &[&(dyn Frontend + Sync)],
        span: &'static str,
        first_op: u64,
        tracer: &Tracer,
    ) -> BlockResult {
        let share = self.queries.len().div_ceil(frontends.len());
        let barrier = Barrier::new(frontends.len());
        let mark = Mark::take(&self.storage, &self.engine);
        let queries = &self.queries;
        let barrier = &barrier;
        let per_client: Vec<(Vec<OpResult>, Tally, f64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .lanes
                .iter_mut()
                .zip(frontends)
                .enumerate()
                .map(|(c, (lane, frontend))| {
                    lane.set_recording(tracer.is_recording());
                    scope.spawn(move || {
                        let mine = queries.iter().enumerate().skip(c * share).take(share);
                        let mut tally = Tally::default();
                        let mut ops = Vec::with_capacity(share);
                        barrier.wait();
                        let start = Instant::now();
                        for (i, query) in mine {
                            ops.push(ops::run_served(
                                *frontend,
                                span,
                                c as u16,
                                query,
                                first_op + i as u64,
                                lane,
                                &mut tally,
                            ));
                        }
                        (ops, tally, start.elapsed().as_secs_f64())
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let mut result = BlockResult::default();
        for (ops, tally, elapsed) in per_client {
            // The clients start together, so the block ends with the slower.
            result.wall_s = result.wall_s.max(elapsed);
            for op in ops {
                result.latencies_ms.push(op.seconds * 1e3);
                result.checksums.push(op.checksum);
            }
            result.tally.merge(&tally);
        }
        result.tally.note_since(&self.storage, &self.engine, &mark);
        result
    }

    /// The block's requests and replies as they cross the wire, for the
    /// codec numbers.
    fn wire_messages(&self) -> Fallible<(Vec<Request>, Vec<ServeResult>)> {
        let handle = self.handle()?;
        let requests: Vec<Request> = self
            .queries
            .iter()
            .map(|q| Request {
                tenant: 0,
                deadline_micros: None,
                op: EngineOp::Query(*q),
            })
            .collect();
        let replies = requests.iter().map(|r| handle.submit(r.clone())).collect();
        Ok((requests, replies))
    }
}

/// Mean nanoseconds per message of `f` over `messages`, repeated so the
/// total is long enough to time.
fn per_message_ns<M>(messages: &[M], mut f: impl FnMut(&M)) -> f64 {
    const ROUNDS: usize = 20;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        messages.iter().for_each(&mut f);
    }
    start.elapsed().as_nanos() as f64 / (ROUNDS * messages.len().max(1)) as f64
}

impl Workload for ServeConverged {
    fn block(&mut self, index: usize, tracer: &mut Tracer) -> Fallible<BlockResult> {
        let clients = std::mem::take(&mut self.clients);
        let frontends: Vec<&(dyn Frontend + Sync)> = clients
            .iter()
            .map(|c| c as &(dyn Frontend + Sync))
            .collect();
        let first_op = (index * self.queries.len()) as u64;
        let result = self.block_through(&frontends, ops::TCP_SUBMIT, first_op, tracer);
        drop(frontends);
        self.clients = clients;
        if tracer.is_recording() {
            self.tcp_latencies_ms
                .extend_from_slice(&result.latencies_ms);
        }
        Ok(result)
    }

    fn expected(&self) -> Vec<u64> {
        oracle_checksums(&self.queries, &self.data)
    }

    fn first_touch_probe(&self) -> Option<&FirstTouchProbe> {
        Some(&self.probe)
    }

    /// The same block once more through the in-process `ServeHandle` (two
    /// threads) and once by direct engine calls (one thread): the
    /// differences of the medians are what the transport and the server
    /// add. Then the codecs on the block's own messages.
    fn layer_extras(
        &mut self,
        tracer: &mut Tracer,
        out: &mut BTreeMap<&'static str, f64>,
    ) -> Fallible<Tally> {
        let handle = self.handle()?;
        let handles: Vec<&(dyn Frontend + Sync)> = (0..CLIENTS)
            .map(|_| &handle as &(dyn Frontend + Sync))
            .collect();
        // Operation ids of the extra blocks start far above any block's.
        let via_handle = self.block_through(&handles, ops::HANDLE_SUBMIT, 1 << 40, tracer);
        for lane in &mut self.lanes {
            tracer.absorb(lane);
        }

        let mut direct = BlockResult::default();
        let mark = Mark::take(&self.storage, &self.engine);
        for query in &self.queries {
            let op = ops::run_query(
                &self.engine,
                &self.storage,
                query,
                1 << 41,
                tracer,
                &mut direct.tally,
            );
            direct.latencies_ms.push(op.seconds * 1e3);
        }
        direct.tally.note_since(&self.storage, &self.engine, &mark);

        let p50_us = |ms: &[f64]| percentile(ms, 50.0) * 1e3;
        let (tcp, handle_us, direct_us) = (
            p50_us(&self.tcp_latencies_ms),
            p50_us(&via_handle.latencies_ms),
            p50_us(&direct.latencies_ms),
        );
        out.insert("serve.tcp.overhead_us", tcp - handle_us);
        out.insert("serve.server.overhead_us", handle_us - direct_us);

        let (requests, replies) = self.wire_messages()?;
        let request_bytes: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
        let reply_bytes: Vec<Vec<u8>> = replies.iter().map(encode_response).collect();
        out.insert(
            "serve.protocol.encode_ns",
            per_message_ns(&requests, |r| {
                std::hint::black_box(encode_request(r));
            }) + per_message_ns(&replies, |r| {
                std::hint::black_box(encode_response(r));
            }),
        );
        out.insert(
            "serve.protocol.decode_ns",
            per_message_ns(&request_bytes, |b| {
                std::hint::black_box(decode_request(b).is_ok());
            }) + per_message_ns(&reply_bytes, |b| {
                std::hint::black_box(decode_response(b).is_ok());
            }),
        );
        let sizes: Vec<f64> = reply_bytes.iter().map(|b| b.len() as f64).collect();
        out.insert("serve.protocol.reply_bytes", mean(&sizes));
        // Plans never cross the wire, so the planner's numbers come from
        // the direct block alone.
        Ok(direct.tally)
    }

    fn finish(&mut self, tracer: &mut Tracer) -> Fallible<Finish> {
        self.clients.clear();
        let tcp = self.tcp.take().ok_or("finish called twice")?;
        let dropped = tcp.dropped_replies();
        tcp.stop();
        let report = self.server.take().ok_or("finish called twice")?.stop();
        let mut finish = finish_store(
            &self.dir,
            &self.storage,
            &self.engine,
            self.data.objects(),
            tracer,
        )?;
        // A shed request or a dropped reply already failed its operation at
        // the client; the server-side counts are reported beside that.
        finish.shed = report.shed;
        finish.dropped_replies = dropped;
        Ok(finish)
    }
}
