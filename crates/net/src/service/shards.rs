//! The compute state connection threads share: route-cache shards and
//! per-shard admission control.
//!
//! [`QueryShards`] holds one mutex-guarded [`RouteCache`] per shard, one
//! shard per core. Queries are assigned to shards by
//! [`destination_shard`] — a deterministic hash of the destination — so
//! repeated traffic toward one destination always meets the cache that
//! already holds its route, whichever connection carried it.
//!
//! Admission control is a per-shard in-flight count:
//! [`QueryShards::admit`] never blocks, and a shard already answering
//! [`ServiceConfig::max_inflight`] queries refuses the next one so the
//! HTTP layer can shed it with `503` + `Retry-After`. An admitted query
//! holds an [`InFlight`] guard whose drop frees the slot, so a panic
//! while answering cannot leak it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use debruijn_core::routing::{
    destination_shard, RouteCache, RouteCacheStats, RoutePath, RoutingScratch,
};
use debruijn_core::Word;
use debruijn_parallel::effective_threads;

use super::query::{answer_directed, answer_query_cached, Query, QueryKind};
use crate::metrics::{Anomaly, Counter, FlightRecorder, GaugeMerge, Histogram, MetricsRegistry};
use crate::record::{NetEvent, Recorder};

/// Tuning knobs for the query service, exposed as `dbr serve` flags.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Radix of the served `DG(d,k)` address space.
    pub d: u8,
    /// Total cached routes, split evenly across shards (`0` disables
    /// caching).
    pub cache_capacity: usize,
    /// Per-shard bound on queries being answered at once: queries
    /// beyond it are shed with `503`.
    pub max_inflight: usize,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u64,
}

impl ServiceConfig {
    /// Production defaults for radix `d`: 4096 cached routes and 256
    /// in-flight queries per shard.
    pub fn new(d: u8) -> Self {
        Self {
            d,
            cache_capacity: 4096,
            max_inflight: 256,
            retry_after_secs: 1,
        }
    }
}

struct Shard {
    cache: Mutex<RouteCache>,
    counters: CacheCounters,
    in_flight: AtomicU64,
    high_water: AtomicU64,
}

/// The service's compute state: one route cache and one in-flight count
/// per shard behind a deterministic destination-shard map, plus the
/// flight recorder fed by admission decisions.
pub struct QueryShards {
    config: ServiceConfig,
    shards: Arc<Vec<Shard>>,
    shed_total: Counter,
    latency: [Histogram; 2],
    flight: Mutex<Option<FlightRecorder>>,
    flight_armed: AtomicBool,
    seq: AtomicU64,
}

impl QueryShards {
    /// Builds one shard per core ([`effective_threads`]`(0)`), splitting
    /// `config.cache_capacity` evenly across them, and registers the
    /// `dbr_service_*` families the shards publish on `registry`.
    pub fn new(config: ServiceConfig, registry: &MetricsRegistry) -> Self {
        let count = effective_threads(0);
        let per_shard = if config.cache_capacity == 0 {
            0
        } else {
            config.cache_capacity.div_ceil(count).max(1)
        };
        let shards: Arc<Vec<Shard>> = Arc::new(
            (0..count)
                .map(|s| Shard {
                    cache: Mutex::new(RouteCache::new(per_shard)),
                    counters: CacheCounters::new(registry, &s.to_string()),
                    in_flight: AtomicU64::new(0),
                    high_water: AtomicU64::new(0),
                })
                .collect(),
        );
        let gauge_shards = Arc::clone(&shards);
        registry.register_collector(move |snap| {
            for (s, shard) in gauge_shards.iter().enumerate() {
                let label = s.to_string();
                snap.set_gauge(
                    "dbr_service_queue_depth",
                    "Queries in flight per cache shard.",
                    &[("shard", &label)],
                    GaugeMerge::Sum,
                    shard.in_flight.load(Ordering::Relaxed) as i64,
                );
                snap.set_gauge(
                    "dbr_service_queue_depth_high_water",
                    "Peak queries in flight observed per cache shard.",
                    &[("shard", &label)],
                    GaugeMerge::Max,
                    shard.high_water.load(Ordering::Relaxed) as i64,
                );
            }
        });
        let shed_total = registry.counter(
            "dbr_service_shed_total",
            "Queries shed with 503 because their cache shard was at max-inflight.",
        );
        let latency = [QueryKind::Distance, QueryKind::Route].map(|kind| {
            registry.histogram_with(
                "dbr_service_latency_ns",
                "Admission-to-answer latency per query, nanoseconds.",
                &[("endpoint", kind.label())],
            )
        });
        Self {
            config,
            shards,
            shed_total,
            latency,
            flight: Mutex::new(None),
            flight_armed: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        }
    }

    /// Installs a flight recorder fed one synthetic forward event per
    /// admission decision, carrying the shard's in-flight count — so an
    /// [`crate::metrics::AnomalyTriggers::queue_depth_limit`] of
    /// [`ServiceConfig::max_inflight`] trips exactly when the service
    /// starts shedding and freezes the pre-overload window.
    pub fn with_flight_recorder(self, recorder: FlightRecorder) -> Self {
        *self.flight.lock().expect("flight lock") = Some(recorder);
        self.flight_armed.store(true, Ordering::SeqCst);
        self
    }

    /// The configuration the shards were built from.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of cache shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a destination hashes to.
    pub fn shard_of(&self, y: &Word) -> usize {
        destination_shard(y, self.shards.len())
    }

    /// Admits `query` to its destination shard, or returns `None` when
    /// the shard already has [`ServiceConfig::max_inflight`] queries in
    /// flight (the caller sheds it with `503`). Never blocks.
    pub fn admit<'a>(&'a self, query: &'a Query) -> Option<InFlight<'a>> {
        let shard = &self.shards[self.shard_of(&query.y)];
        let limit = self.config.max_inflight as u64;
        let admitted = shard
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < limit).then_some(n + 1)
            });
        let armed = self.flight_armed.load(Ordering::Relaxed);
        match admitted {
            Ok(before) => {
                shard.high_water.fetch_max(before + 1, Ordering::Relaxed);
                if armed {
                    self.record_flight(query, before as usize + 1);
                }
                Some(InFlight {
                    shards: self,
                    shard,
                    query,
                    admitted: Instant::now(),
                })
            }
            Err(_) => {
                self.shed_total.inc();
                if armed {
                    // A refusal means the shard sits at its bound: report
                    // the bound so a queue-depth trigger set to
                    // `max_inflight` fires on the first shed.
                    self.record_flight(query, self.config.max_inflight);
                }
                None
            }
        }
    }

    /// Takes the flight recorder and finalizes it, writing the dump
    /// file when one was configured and an anomaly fired.
    ///
    /// # Errors
    ///
    /// Returns the dump-file write error.
    pub fn finish_flight(&self) -> std::io::Result<Option<Anomaly>> {
        match self.flight.lock().expect("flight lock").take() {
            Some(recorder) => recorder.finish(),
            None => Ok(None),
        }
    }

    fn record_flight(&self, query: &Query, queue_depth: usize) {
        let mut guard = self.flight.lock().expect("flight lock");
        if let Some(flight) = guard.as_mut() {
            // Admission decisions mapped onto the trace vocabulary:
            // one Forward per admitted (or shed) query, sequenced by a
            // monotone counter standing in for simulator time.
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            flight.record(&NetEvent::Forward {
                time: seq,
                message: seq as usize,
                hop: 0,
                from: query.x.clone(),
                to: query.y.clone(),
                departs: seq,
                arrives: seq,
                queue_wait: 0,
                queue_depth,
            });
        }
    }
}

/// One admitted query's slot in its shard. Dropping the guard, answered
/// or not, frees the slot.
pub struct InFlight<'a> {
    shards: &'a QueryShards,
    shard: &'a Shard,
    query: &'a Query,
    admitted: Instant,
}

impl InFlight<'_> {
    /// Answers the admitted query with the caller's reusable buffers and
    /// frees its slot.
    ///
    /// An undirected query is answered by [`answer_query_cached`] under
    /// its shard's cache lock, so each shard computes one answer at a
    /// time; the lookup's hit/miss/eviction deltas are published to
    /// `dbr_service_cache_total` and `dbr_service_cache_shard_total`. A
    /// directed query skips the cache and takes no lock.
    pub fn answer(self, scratch: &mut RoutingScratch, path_buf: &mut RoutePath) -> String {
        let query = self.query;
        let body = if query.directed {
            answer_directed(query, scratch, path_buf)
        } else {
            let (body, delta) = {
                // A panic under the lock leaves the cache consistent
                // (inserts happen after the solve), so keep serving.
                let mut cache = self
                    .shard
                    .cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let before = cache.stats();
                let body = answer_query_cached(query, &mut cache, scratch, path_buf);
                (body, cache.stats().since(&before))
            };
            self.shard.counters.publish(&delta);
            body
        };
        let latency = &self.shards.latency[match query.kind {
            QueryKind::Distance => 0,
            QueryKind::Route => 1,
        }];
        latency.observe(self.admitted.elapsed().as_nanos() as u64);
        body
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.shard.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The six counter handles a shard publishes cache-stat deltas to:
/// per-shard series plus the cross-shard aggregate (distinct family
/// names, so a scrape never double counts).
struct CacheCounters {
    shard: [Counter; 3],
    aggregate: [Counter; 3],
}

const OUTCOMES: [&str; 3] = ["hit", "miss", "eviction"];

impl CacheCounters {
    fn new(registry: &MetricsRegistry, shard_label: &str) -> Self {
        let shard = OUTCOMES.map(|outcome| {
            registry.counter_with(
                "dbr_service_cache_shard_total",
                "Route-cache lookups per cache shard, by outcome.",
                &[("shard", shard_label), ("outcome", outcome)],
            )
        });
        let aggregate = OUTCOMES.map(|outcome| {
            registry.counter_with(
                "dbr_service_cache_total",
                "Route-cache lookups across all shards, by outcome.",
                &[("outcome", outcome)],
            )
        });
        Self { shard, aggregate }
    }

    fn publish(&self, delta: &RouteCacheStats) {
        for (i, n) in [delta.hits, delta.misses, delta.evictions]
            .into_iter()
            .enumerate()
        {
            if n > 0 {
                self.shard[i].add(n);
                self.aggregate[i].add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AnomalyTriggers;
    use crate::service::query::{answer_query_direct, parse_query};

    #[test]
    fn admission_sheds_beyond_max_inflight_and_guards_free_their_slots() {
        let registry = MetricsRegistry::new();
        let triggers = AnomalyTriggers {
            drop_burst: None,
            no_route_burst: None,
            queue_depth_limit: Some(8),
            queue_wait_limit: None,
        };
        let config = ServiceConfig {
            max_inflight: 8,
            ..ServiceConfig::new(2)
        };
        let shards = QueryShards::new(config, &registry)
            .with_flight_recorder(FlightRecorder::new(64, triggers));
        let q = parse_query(2, QueryKind::Route, "x=0110&y=1011").unwrap();
        let s = shards.shard_of(&q.y);
        let in_flight = || shards.shards[s].in_flight.load(Ordering::Acquire);

        // Exactly max_inflight admissions succeed; the rest shed.
        let mut held = Vec::new();
        let mut sheds = 0;
        for _ in 0..20 {
            match shards.admit(&q) {
                Some(slot) => held.push(slot),
                None => sheds += 1,
            }
            assert!(in_flight() <= 8, "depth stays bounded");
        }
        assert_eq!((held.len(), sheds), (8, 12));
        assert_eq!(in_flight(), 8);
        let anomaly = shards.finish_flight().unwrap();
        assert!(
            matches!(
                anomaly,
                Some(Anomaly::QueueDepthBreach {
                    depth: 8,
                    limit: 8,
                    ..
                })
            ),
            "{anomaly:?}"
        );

        // Answering or dropping a guard frees its slot; admission resumes.
        let mut scratch = RoutingScratch::new();
        let mut path_buf = RoutePath::empty();
        let body = held.pop().unwrap().answer(&mut scratch, &mut path_buf);
        assert_eq!(body, answer_query_direct(&q));
        drop(held.pop());
        assert_eq!(in_flight(), 6);
        assert!(shards.admit(&q).is_some());
        drop(held);
        assert_eq!(in_flight(), 0);

        // A panic while a guard is held still frees the slot.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = shards.admit(&q).unwrap();
            assert_eq!(in_flight(), 1);
            panic!("answering failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(in_flight(), 0);

        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("dbr_service_shed_total", &[]), Some(12));
        let label = s.to_string();
        assert_eq!(
            snap.gauge_value("dbr_service_queue_depth_high_water", &[("shard", &label)]),
            Some(8),
            "the high-water mark never exceeds the bound"
        );
        assert_eq!(
            snap.gauge_value("dbr_service_queue_depth", &[("shard", &label)]),
            Some(0)
        );
    }
}
