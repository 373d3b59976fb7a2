//! A hand-rolled blocking TCP transport over the in-process serving tier —
//! no async runtime and no polling: `std::net` sockets in blocking mode,
//! one acceptor thread and one thread per connection.
//!
//! # Wire format
//!
//! Every message (both directions) is one frame:
//!
//! ```text
//! [u32 LE: payload length N] [N bytes: u64 LE request id, then body]
//! ```
//!
//! Request bodies are [`encode_request`] payloads, response bodies
//! [`encode_response`] payloads, and the response echoes its request's id.
//! A client may pipeline: frames sent back to back on one connection are
//! answered in order. The blocking [`TcpClient`] keeps one request in
//! flight; tenants wanting concurrency open several connections, which is
//! what gives the dispatcher a backlog to batch.
//!
//! # Threads
//!
//! The acceptor blocks in `accept` and hands each connection to a thread of
//! its own (with a small fixed stack) that loops: read one frame, decode
//! it, [`ServeHandle::submit`] it, write the reply with a blocking
//! `write_all`. Nothing on that path sleeps or polls. At most
//! `MAX_CONNECTIONS` (256) connections are served at once; one accepted
//! past the cap is closed at once. Finished connection threads are reaped at
//! the next accept. `workers` bounds how many TCP requests are inside the
//! serving tier at once: a counting gate admits a decoded request to
//! `submit` only while fewer than `workers` others are there.
//!
//! [`TcpServer::stop`] wakes the acceptor with a loopback connection, shuts
//! every live socket down (idle clients then read an error, not a hang)
//! and joins every thread.

use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, ServeError,
    ServeResult,
};
use crate::server::{Frontend, ServeHandle};
use odyssey_storage::sync::{Exclusive, LockClass};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

const FRAME_HEADER: usize = 4;
const FRAME_ID: usize = 8;
/// Upper bound on one frame's payload; a header past this is a protocol
/// violation (or desynchronized framing) and drops the connection.
const MAX_FRAME: usize = 64 << 20;
/// Connections served at once; the acceptor closes any past this.
const MAX_CONNECTIONS: usize = 256;
/// Stack of a connection thread: it decodes, submits and encodes, while the
/// engine runs on the dispatcher thread.
const CONNECTION_STACK: usize = 256 << 10;

fn frame(id: u64, body: &[u8]) -> Vec<u8> {
    let n = FRAME_ID + body.len();
    let mut out = Vec::with_capacity(FRAME_HEADER + n);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Reads one frame, returning its id and body. A length outside
/// `FRAME_ID..=MAX_FRAME` means the framing is corrupt or desynchronized
/// and is reported as `InvalidData`. The body buffer grows with the bytes
/// that actually arrive, so a hostile length costs no up-front allocation.
fn read_frame(mut reader: impl Read) -> std::io::Result<(u64, Vec<u8>)> {
    let mut header = [0u8; FRAME_HEADER];
    reader.read_exact(&mut header)?;
    let n = u32::from_le_bytes(header) as usize;
    if !(FRAME_ID..=MAX_FRAME).contains(&n) {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("bad frame length {n}"),
        ));
    }
    let mut id = [0u8; FRAME_ID];
    reader.read_exact(&mut id)?;
    let body_len = n - FRAME_ID;
    let mut body = Vec::new();
    reader.take(body_len as u64).read_to_end(&mut body)?;
    if body.len() < body_len {
        return Err(ErrorKind::UnexpectedEof.into());
    }
    Ok((u64::from_le_bytes(id), body))
}

/// Shuts both directions of a socket down. A socket whose peer already
/// left reports `NotConnected`, which is the state wanted anyway.
fn hang_up(stream: &TcpStream) {
    // analyzer: allow(a failed shutdown leaves a socket that is closing anyway)
    let _ = stream.shutdown(Shutdown::Both);
}

/// Counting gate: at most `limit` TCP requests inside the serving tier.
struct InflightGate {
    /// `WorkCell`-classed leaf: requests currently past the gate.
    inside: Exclusive<usize>,
    freed: Condvar,
    limit: usize,
}

impl InflightGate {
    /// Blocks until fewer than `limit` requests are inside, then counts
    /// the caller in until the returned pass drops.
    fn wait_for_slot(&self) -> GatePass<'_> {
        let guard = self.inside.lock();
        let mut inside = self
            .inside
            .wait_while(guard, &self.freed, |n| *n >= self.limit);
        *inside += 1;
        GatePass { gate: self }
    }
}

struct GatePass<'a> {
    gate: &'a InflightGate,
}

impl Drop for GatePass<'_> {
    fn drop(&mut self) {
        *self.gate.inside.lock() -= 1;
        self.gate.freed.notify_one();
    }
}

struct Shared {
    stopping: AtomicBool,
    /// Responses that could not be written back (client hung up mid-reply).
    dropped_replies: AtomicU64,
    gate: InflightGate,
}

/// A live connection as the acceptor tracks it.
struct Connection {
    /// The socket its thread reads and writes, kept for `stop()`.
    stream: Arc<TcpStream>,
    thread: JoinHandle<()>,
}

/// The TCP front-end: owns the listener, the acceptor and the connection
/// threads, all serving one [`ServeHandle`].
pub struct TcpServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Returns the connections still registered when it exits.
    acceptor: Option<JoinHandle<Vec<Connection>>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.shared.gate.limit)
            .finish()
    }
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `handle`, with at most `workers` TCP requests inside the serving
    /// tier at once.
    pub fn start<A: ToSocketAddrs>(
        handle: ServeHandle,
        addr: A,
        workers: usize,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stopping: AtomicBool::new(false),
            dropped_replies: AtomicU64::new(0),
            gate: InflightGate {
                inside: Exclusive::new(LockClass::WorkCell, 0),
                freed: Condvar::new(),
                limit: workers.max(1),
            },
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("odyssey-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &handle))?
        };
        Ok(TcpServer {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Responses dropped because the client hung up before the reply could
    /// be written. Nonzero values are client-side churn, not server faults,
    /// but a monotonically climbing count under a stable client population
    /// points at reply-path I/O trouble.
    pub fn dropped_replies(&self) -> u64 {
        self.shared.dropped_replies.load(Ordering::Relaxed)
    }

    /// Stops accepting, shuts every connection down and joins every
    /// thread. A request already inside the serving tier finishes, but its
    /// reply is dropped.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stopping.store(true, Ordering::Release);
        // Wake the blocking accept with a connection of our own.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Err(e) = TcpStream::connect(wake) {
            eprintln!("tcp server: cannot wake the acceptor ({e}); leaving its threads running");
            return;
        }
        let Ok(live) = acceptor.join() else {
            eprintln!("tcp server: acceptor thread panicked during shutdown");
            return;
        };
        for conn in &live {
            hang_up(&conn.stream);
        }
        for conn in live {
            if conn.thread.join().is_err() {
                eprintln!("tcp server: connection thread panicked during shutdown");
            }
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until `stop()`, one thread per connection; returns the
/// connections still registered.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handle: &ServeHandle,
) -> Vec<Connection> {
    let mut live: Vec<Connection> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stopping.load(Ordering::Acquire) {
            return live;
        }
        for conn in live.extract_if(.., |c| c.thread.is_finished()) {
            if conn.thread.join().is_err() {
                eprintln!("tcp server: connection thread panicked");
            }
        }
        // An accept error (a connection reset before it was accepted, or
        // descriptor exhaustion) costs that connection only.
        let Ok((stream, _)) = accepted else {
            continue;
        };
        if live.len() >= MAX_CONNECTIONS {
            continue; // dropping the stream closes it
        }
        // Replies are single writes; do not let Nagle hold one back behind
        // an unacknowledged earlier reply of a pipelining client.
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        let stream = Arc::new(stream);
        let spawned = {
            let stream = Arc::clone(&stream);
            let shared = Arc::clone(shared);
            let handle = handle.clone();
            std::thread::Builder::new()
                .name("odyssey-serve-conn".into())
                .stack_size(CONNECTION_STACK)
                .spawn(move || serve_connection(&stream, &shared, &handle))
        };
        match spawned {
            Ok(thread) => live.push(Connection { stream, thread }),
            Err(e) => eprintln!("tcp server: cannot spawn a connection thread ({e})"),
        }
    }
}

/// One connection's loop: read a frame, submit it, write the reply — until
/// the client leaves, sends a corrupt frame or the server stops.
fn serve_connection(stream: &TcpStream, shared: &Shared, handle: &ServeHandle) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    while let Ok((id, body)) = read_frame(&mut reader) {
        let response: ServeResult = match decode_request(&body) {
            Ok(request) => {
                let _pass = shared.gate.wait_for_slot();
                handle.submit(request)
            }
            Err(e) => Err(ServeError::Protocol(e.to_string())),
        };
        // A send failure means the client hung up; there is no one left to
        // answer, but the drop is counted so operators can see reply-path
        // trouble (see [`TcpServer::dropped_replies`]).
        let reply = frame(id, &encode_response(&response));
        if writer.write_all(&reply).is_err() {
            shared.dropped_replies.fetch_add(1, Ordering::Relaxed);
            break;
        }
    }
    hang_up(stream);
}

/// Blocking TCP client of a [`TcpServer`]; implements [`Frontend`] with
/// one request in flight at a time (open more clients for concurrency).
pub struct TcpClient {
    stream: Exclusive<BufReader<TcpStream>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient").finish()
    }
}

impl TcpClient {
    /// Connects to a serving-tier address.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            stream: Exclusive::new(LockClass::WorkCell, BufReader::new(stream)),
            next_id: AtomicU64::new(1),
        })
    }

    fn roundtrip(&self, request: &Request) -> Result<ServeResult, ServeError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bytes = frame(id, &encode_request(request));
        let proto = |e: &dyn std::fmt::Display| ServeError::Protocol(e.to_string());
        let mut stream = self.stream.lock();
        stream.get_mut().write_all(&bytes).map_err(|e| proto(&e))?;
        let (got_id, body) = read_frame(&mut *stream).map_err(|e| proto(&e))?;
        drop(stream);
        if got_id != id {
            return Err(ServeError::Protocol(format!(
                "response id {got_id} does not match request id {id}"
            )));
        }
        decode_response(&body).map_err(|e| proto(&e))
    }
}

impl Frontend for TcpClient {
    fn submit(&self, request: Request) -> ServeResult {
        self.roundtrip(&request).and_then(|result| result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};
    use odyssey_core::{EngineOp, OdysseyConfig, OpOutcome, SpaceOdyssey};
    use odyssey_geom::{
        Aabb, CountQuery, DatasetId, DatasetSet, ObjectId, Query, QueryId, SpatialObject, Vec3,
    };
    use odyssey_storage::{write_raw_dataset, StorageManager, StorageOptions};
    use std::time::{Duration, Instant};

    /// A server over an engine whose one dataset holds `objects` unit cubes.
    fn serve(objects: u64, workers: usize) -> (Server, TcpServer) {
        let storage = Arc::new(StorageManager::new(StorageOptions::in_memory(512)));
        let bounds = Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0));
        let seed: Vec<SpatialObject> = (0..objects).map(cube).collect();
        let raws = vec![write_raw_dataset(&storage, DatasetId(0), &seed).expect("raw dataset")];
        let engine =
            Arc::new(SpaceOdyssey::new(OdysseyConfig::paper(bounds), raws).expect("valid config"));
        let server = Server::start(engine, storage, ServeConfig::default());
        let tcp = TcpServer::start(server.handle(), "127.0.0.1:0", workers).expect("bind");
        (server, tcp)
    }

    fn cube(i: u64) -> SpatialObject {
        SpatialObject::new(
            ObjectId(i),
            DatasetId(0),
            Aabb::from_min_max(Vec3::splat(i as f64), Vec3::splat(i as f64 + 1.0)),
        )
    }

    fn count_all(id: u32) -> Request {
        Request {
            tenant: 2,
            deadline_micros: None,
            op: EngineOp::Query(Query::Count(CountQuery::new(
                QueryId(id),
                Aabb::from_min_max(Vec3::ZERO, Vec3::splat(100.0)),
                DatasetSet::from_ids([DatasetId(0)]),
            ))),
        }
    }

    fn count_of(result: &ServeResult) -> u64 {
        match result {
            Ok(served) => match &served.outcome {
                OpOutcome::Query(q) => q.count,
                other => panic!("expected a query outcome, got {other:?}"),
            },
            Err(e) => panic!("request failed: {e}"),
        }
    }

    #[test]
    fn tcp_roundtrip_serves_ingest_and_query() {
        let (server, tcp) = serve(0, 2);
        let client = TcpClient::connect(tcp.local_addr()).expect("connect");

        let served = client
            .submit(Request {
                tenant: 2,
                deadline_micros: None,
                op: EngineOp::Ingest {
                    dataset: DatasetId(0),
                    objects: (0..20u64).map(cube).collect(),
                },
            })
            .expect("ingest over tcp");
        assert!(matches!(served.outcome, OpOutcome::Ingest(ref i) if i.objects_ingested == 20));
        assert_eq!(count_of(&client.submit(count_all(1))), 20);
        tcp.stop();
        server.stop();
    }

    #[test]
    fn a_frame_written_in_three_byte_pieces_is_reassembled() {
        let (server, tcp) = serve(5, 2);
        let mut raw = TcpStream::connect(tcp.local_addr()).expect("connect");
        raw.set_nodelay(true).expect("nodelay");
        for piece in frame(42, &encode_request(&count_all(1))).chunks(3) {
            raw.write_all(piece).expect("write piece");
            raw.flush().expect("flush");
        }
        let (id, body) = read_frame(&raw).expect("reply frame");
        assert_eq!(id, 42);
        assert_eq!(count_of(&decode_response(&body).expect("reply body")), 5);
        tcp.stop();
        server.stop();
    }

    #[test]
    fn a_bad_frame_length_closes_only_that_connection() {
        let (server, tcp) = serve(5, 2);
        let healthy = TcpClient::connect(tcp.local_addr()).expect("connect");
        assert_eq!(count_of(&healthy.submit(count_all(1))), 5);
        for bad_len in [0u32, FRAME_ID as u32 - 1, MAX_FRAME as u32 + 1] {
            let mut raw = TcpStream::connect(tcp.local_addr()).expect("connect");
            raw.write_all(&bad_len.to_le_bytes()).expect("write header");
            let mut rest = Vec::new();
            // The server hangs up: EOF (or a reset), never a reply or a hang.
            let read = raw.read_to_end(&mut rest);
            assert!(
                read.is_err() || rest.is_empty(),
                "length {bad_len}: got {} reply bytes",
                rest.len()
            );
            assert_eq!(count_of(&healthy.submit(count_all(2))), 5);
        }
        tcp.stop();
        server.stop();
    }

    #[test]
    fn pipelined_frames_are_answered_in_order() {
        let (server, tcp) = serve(5, 2);
        let mut raw = TcpStream::connect(tcp.local_addr()).expect("connect");
        let ingest = Request {
            tenant: 2,
            deadline_micros: None,
            op: EngineOp::Ingest {
                dataset: DatasetId(0),
                objects: (10..13u64).map(cube).collect(),
            },
        };
        let mut both = frame(7, &encode_request(&ingest));
        both.extend(frame(9, &encode_request(&count_all(1))));
        raw.write_all(&both).expect("write both frames");
        let (first, body) = read_frame(&raw).expect("first reply");
        assert_eq!(first, 7);
        assert!(matches!(
            decode_response(&body).expect("first body"),
            Ok(ref served) if matches!(served.outcome, OpOutcome::Ingest(_))
        ));
        let (second, body) = read_frame(&raw).expect("second reply");
        assert_eq!(second, 9);
        // The query was sent after the ingest, so it sees its objects.
        assert_eq!(count_of(&decode_response(&body).expect("second body")), 8);
        tcp.stop();
        server.stop();
    }

    #[test]
    fn stop_returns_promptly_and_an_idle_client_then_errs() {
        let (server, tcp) = serve(5, 2);
        let client = TcpClient::connect(tcp.local_addr()).expect("connect");
        assert_eq!(count_of(&client.submit(count_all(1))), 5);
        let began = Instant::now();
        tcp.stop();
        assert!(
            began.elapsed() < Duration::from_secs(2),
            "stop took {:?} with an idle client connected",
            began.elapsed()
        );
        assert!(matches!(
            client.submit(count_all(2)),
            Err(ServeError::Protocol(_))
        ));
        server.stop();
    }

    #[test]
    fn one_worker_admits_one_tcp_request_at_a_time() {
        let (server, tcp) = serve(50, 1);
        let addr = tcp.local_addr();
        let sizes: Vec<usize> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4u32)
                .map(|c| {
                    scope.spawn(move || {
                        let client = TcpClient::connect(addr).expect("connect");
                        (0..25u32)
                            .map(|i| match client.submit(count_all(c * 100 + i)) {
                                Ok(served) => served.batch_size,
                                Err(e) => panic!("client {c}: {e}"),
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread"))
                .collect()
        });
        assert_eq!(sizes.len(), 100);
        assert!(
            sizes.iter().all(|&b| b == 1),
            "a batch of more than one TCP request passed a one-slot gate: {sizes:?}"
        );
        tcp.stop();
        server.stop();
    }
}
