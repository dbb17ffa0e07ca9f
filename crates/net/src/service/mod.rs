//! Thread-per-connection query service: the layer that turns the fast
//! routing engine into a fast system.
//!
//! The paper's `O(k)` route construction (Algorithm 1 / Theorem 2) and
//! `O(1)` per-hop forwarding make a high-QPS distance/route service
//! feasible; this module supplies the serving substrate, std-only:
//!
//! * **Inline answering.** Each connection thread ([`QueryService`])
//!   does the blocking HTTP/1.1 keep-alive protocol work and answers
//!   its own queries, with routing buffers it owns. An undirected
//!   `DG(2,16)` answer costs about 2 µs; handing it to a worker thread
//!   and back cost more than that, so no query leaves its connection.
//! * **Sharded route cache.** One clock-eviction
//!   [`RouteCache`](debruijn_core::routing::RouteCache) per core behind
//!   a mutex ([`QueryShards`]). The deterministic
//!   [`destination_shard`](debruijn_core::routing::destination_shard)
//!   map sends every query toward one destination to the shard that
//!   already holds its route, and each shard solves one query at a time,
//!   so compute concurrency stays at one per core.
//! * **Admission control.** Each shard bounds its in-flight queries
//!   ([`ServiceConfig::max_inflight`]); overflow is shed immediately
//!   with `503` + `Retry-After` and counted in
//!   `dbr_service_shed_total`, keeping latency bounded under overload.
//!   A queue-depth flight-recorder trigger can freeze the pre-overload
//!   event window for post-mortems.
//! * **Bounded input.** Request lines, headers and bodies are read
//!   under fixed caps and refused with `414`, `431`, `413` or `411`, so
//!   no client can grow the server's memory without limit.
//!
//! Responses are byte-identical to the single-threaded direct engine
//! answers on any number of cores — [`answer_query_direct`] is the
//! reference the tests hold the service to. Design rationale is
//! recorded in `docs/adr/0008-thread-per-core-service.md` and, for the
//! removal of the worker pool, `docs/adr/0009-inline-query-answering.md`;
//! the operator-facing walkthrough lives in `docs/OBSERVABILITY.md`.

mod query;
mod server;
mod shards;

pub use query::{
    answer_query_cached, answer_query_direct, parse_query, Query, QueryError, QueryKind,
};
pub use server::QueryService;
pub use shards::{InFlight, QueryShards, ServiceConfig};
