//! Serving tier of the Space Odyssey reproduction: an open-loop front-end
//! multiplexing many tenants onto one shared engine.
//!
//! The paper's engine answers one query at a time from an interactive
//! exploration loop; a deployment puts many such loops — tenants — in
//! front of one store. This crate adds the four mechanisms that makes that
//! share well:
//!
//! * **Backlog micro-batching** ([`BatchPolicy`], [`batch_cut`]): the
//!   dispatcher never waits for a batch to fill. The requests that queued
//!   while the previous batch ran coalesce into the next planned engine
//!   batch, amortizing planning and fanning the batch across the worker
//!   pool; an idle server answers a lone request at once. Answers are
//!   demultiplexed per request and are checksum-equal to per-request
//!   execution (the cut rule never reorders an ingest ahead of an earlier
//!   query).
//! * **Per-tenant admission control** ([`AdmissionController`]): token
//!   buckets plus bounded queue slices, decided purely per tenant — a
//!   flooding tenant sheds its own traffic with typed
//!   [`ServeError::Overloaded`] errors and cannot crowd out others.
//! * **Deadline propagation**: each [`Request`] can carry an absolute
//!   deadline; it is checked at dequeue and again between the batch's
//!   ingest and query phases, so expired work is dropped *before* it
//!   consumes engine time, with [`ServeError::DeadlineExceeded`].
//! * **Background maintenance pump**: a [`MaintenancePump`] (from
//!   `odyssey-core`) drives deferred maintenance while the front-end runs,
//!   stopped gracefully on shutdown.
//!
//! Two front-ends implement the same [`Frontend`] trait: the in-process
//! [`ServeHandle`] and the framed-TCP pair [`TcpServer`]/[`TcpClient`]
//! (no async runtime and no polling — one blocking thread per connection).
//! Nothing on a request's path sleeps on a clock. [`replay()`] replays
//! open-loop traces through the identical policies in deterministic
//! virtual time, which is what the latency benches and CI gates run on.
//!
//! [`MaintenancePump`]: odyssey_core::MaintenancePump

#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod protocol;
pub mod replay;
pub mod server;
pub mod tcp;

pub use admission::{AdmissionConfig, AdmissionController};
pub use batcher::{batch_cut, BatchPolicy};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, ServeError,
    ServeResult, ServedOutcome, ShedReason,
};
pub use replay::{replay, ReplayRequest, RequestFate};
pub use server::{Frontend, ServeConfig, ServeHandle, ServeReport, Server};
pub use tcp::{TcpClient, TcpServer};
