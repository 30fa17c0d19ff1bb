//! Network front-end for the sharded serving tier.
//!
//! `reuse-serve-net` puts the [`reuse_serve::ShardedServer`] behind a
//! TCP socket with a length-prefixed binary frame protocol — no external
//! event-loop or serialization dependency (the build environment pins an
//! offline registry), just `std::net` non-blocking sockets served by one
//! loop thread while per-shard workers execute frames. Between passes the
//! loop blocks in `poll(2)` on its sockets and on a wake pipe the workers
//! write to after every tick, so it runs when there is work and sleeps
//! otherwise.
//!
//! * [`protocol`] — the wire format: preamble, request/response framing,
//!   status codes.
//! * [`NetServer`] — bind + event loop (accept, parse, submit to the
//!   owning shard, drain completions, write responses).
//! * [`NetClient`] — a small blocking client used by tests, the CI
//!   smoke, and `reuse_cli serve-net --smoke`.
//!
//! A stream belongs to the connection that first submits it. When that
//! connection closes, the stream is closed with it
//! ([`reuse_serve::ShardedServer::close_stream`]), so the id's next owner
//! starts a fresh session and never receives an earlier owner's outputs.
//!
//! Outputs returned over the wire are bit-identical to running the same
//! frames through a standalone [`reuse_core::ReuseSession`] — enforced by
//! `tests/roundtrip.rs` and by the CI smoke (`reuse_cli serve-net
//! --smoke`).

#![warn(missing_docs)]

mod client;
pub mod protocol;
mod server;

pub use client::{NetClient, Response};
pub use protocol::Status;
pub use server::NetServer;
