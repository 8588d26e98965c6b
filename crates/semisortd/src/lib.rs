//! `semisortd`: a long-running semisort service built for overload.
//!
//! The library crates answer *"how fast can one semisort go?"*; this crate
//! answers *"what happens when a million of them arrive at once?"*. The
//! design goal is **survival under load** (DESIGN.md §14): bounded memory,
//! bounded latency, and structured failure instead of crashes.
//!
//! # Architecture
//!
//! One [`server::Server`] owns a fixed set of **engine shards** — each a
//! [`semisort::Semisorter`] pinned to its own worker thread with a warm
//! scratch pool and a bounded request queue. Connections (TCP or stdio)
//! speak the length-prefixed protocol of [`proto`]; each parsed request
//! passes **admission control** (drain state, request-size cap, scratch-byte
//! estimate, queue capacity) before it may touch an engine. Requests that
//! fail admission are *shed* with a structured `overloaded` error —
//! the server never queues unboundedly and never blocks the accept path on
//! engine work.
//!
//! # The degradation ladder
//!
//! In order of increasing distress, a request can experience:
//!
//! 1. **Served** — admitted, semisorted within its deadline.
//! 2. **Shed** — rejected at admission with `overloaded` (the client's
//!    [`client::RetryPolicy`] backs off and retries).
//! 3. **Deadlined** — admitted but its per-request deadline expired; the
//!    engine's [`semisort::CancelToken`] is polled at phase boundaries,
//!    so the run aborts all-or-nothing and the client gets
//!    `deadline-exceeded` (not retried: the answer is already late). The
//!    default InPlace backend commits once its scatter starts: a deadline
//!    that expires after that point completes the request instead.
//! 4. **Poisoned** — the engine panicked mid-run. `catch_unwind` contains
//!    the unwind, the request fails with `engine-poisoned`, and the shard
//!    transparently **rebuilds** a fresh engine before its next request.
//! 5. **Drained** — on shutdown the server stops admitting, answers every
//!    in-flight request, then exits cleanly.
//!
//! Every rung increments a counter on [`semisort::ServiceCounters`],
//! surfaced through the `service` section of the `semisort-stats-v2` JSON.
//!
//! The [`faults`] module extends the deterministic fault discipline of
//! [`semisort::FaultPlan`] to the service layer (dropped replies, delayed
//! processing, forced shard panics, short writes), which is what lets the
//! chaos soak in `semisortd-load` *prove* the ladder end-to-end.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod faults;
pub mod latency;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, RetryPolicy};
pub use faults::ServiceFaultPlan;
pub use latency::LatencyRecorder;
pub use proto::{Op, Request, Response};
pub use server::{Server, ServerConfig};
