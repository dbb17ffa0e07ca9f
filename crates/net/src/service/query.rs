//! The query grammar of the service plane: parsing `/distance` and
//! `/route` targets into typed [`Query`] values and answering them.
//!
//! Two answer paths exist on purpose:
//!
//! * [`answer_query_cached`] — the production path: the destination's
//!   [`RouteCache`] shard for undirected queries (the expensive Theorem-2
//!   solves), allocation-free Algorithm 1 for directed ones.
//! * [`answer_query_direct`] — the reference path with no cache and no
//!   reused buffers.
//!
//! The two must agree byte for byte for every query; the e2e tests
//! assert exactly that, which is what makes the service's shard layout
//! and connection assignment invisible to clients.

use debruijn_core::distance::undirected::Engine;
use debruijn_core::routing::{
    self, algorithm1_into, route_with_engine_into, RouteCache, RoutePath, RoutingScratch,
};
use debruijn_core::{distance, Word};

/// Which endpoint a query arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `GET /distance` — answer is the distance followed by a newline.
    Distance,
    /// `GET /route` — answer is the two-line `dbr route` report.
    Route,
}

impl QueryKind {
    /// The metrics label for this endpoint (`distance` / `route`).
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Distance => "distance",
            QueryKind::Route => "route",
        }
    }
}

/// One validated route/distance query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The endpoint.
    pub kind: QueryKind,
    /// Source address.
    pub x: Word,
    /// Destination address.
    pub y: Word,
    /// Uni-directional network (`directed=1|true`) instead of the
    /// default bi-directional one.
    pub directed: bool,
}

/// A rejected query: a stable kebab-case `kind` (bounded label set for
/// `dbr_service_errors_total`) plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// One of `missing-param`, `bad-address`, `length-mismatch`.
    pub kind: &'static str,
    /// What exactly was wrong, for the JSON error body.
    pub detail: String,
}

impl QueryError {
    fn new(kind: &'static str, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }
}

/// Parses the query string of a `/distance` or `/route` request into a
/// [`Query`] over radix-`d` words.
///
/// Grammar: `x=WORD&y=WORD[&directed=1|true]`. Both words must parse in
/// radix `d` and have equal length.
///
/// # Errors
///
/// [`QueryError`] with kind `missing-param` (no `x` or `y`),
/// `bad-address` (a word that does not parse in radix `d`), or
/// `length-mismatch` (`x` and `y` of different lengths).
///
/// # Examples
///
/// ```
/// use debruijn_net::service::{parse_query, QueryKind};
///
/// let q = parse_query(2, QueryKind::Route, "x=0110&y=1011").unwrap();
/// assert_eq!(q.x.to_string(), "0110");
/// assert!(!q.directed);
/// assert_eq!(parse_query(2, QueryKind::Route, "x=0110").unwrap_err().kind, "missing-param");
/// assert_eq!(parse_query(2, QueryKind::Route, "x=012&y=000").unwrap_err().kind, "bad-address");
/// ```
pub fn parse_query(d: u8, kind: QueryKind, query: &str) -> Result<Query, QueryError> {
    let param = |key: &str| {
        query.split('&').find_map(|kv| {
            kv.split_once('=')
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v)
        })
    };
    let x = param("x")
        .ok_or_else(|| QueryError::new("missing-param", "missing query parameter 'x'"))?;
    let y = param("y")
        .ok_or_else(|| QueryError::new("missing-param", "missing query parameter 'y'"))?;
    let directed = matches!(param("directed"), Some("1" | "true"));
    let x = Word::parse(d, x).map_err(|e| QueryError::new("bad-address", format!("bad X: {e}")))?;
    let y = Word::parse(d, y).map_err(|e| QueryError::new("bad-address", format!("bad Y: {e}")))?;
    if !x.same_space(&y) {
        return Err(QueryError::new(
            "length-mismatch",
            "X and Y must have the same length",
        ));
    }
    Ok(Query {
        kind,
        x,
        y,
        directed,
    })
}

/// Formats the response body for a distance answer.
fn distance_body(dist: usize) -> String {
    format!("{dist}\n")
}

/// Formats the response body for a route answer (the same two lines
/// `dbr route` prints).
fn route_body(route: &RoutePath) -> String {
    format!("distance: {}\nroute:    {route}\n", route.len())
}

/// Answers `query` through a cache shard and the caller's reusable
/// buffers: `cache` memoizes the bi-directional Theorem-2 solves (a hit
/// is one `Vec` clone), and directed queries run Algorithm 1
/// allocation-free through `scratch` and `path_buf`.
///
/// Undirected `/distance` is served from the cached route's length —
/// valid because every route the library computes has length equal to
/// the exact graph distance — so distance traffic warms the route cache
/// and vice versa.
pub fn answer_query_cached(
    query: &Query,
    cache: &mut RouteCache,
    scratch: &mut RoutingScratch,
    path_buf: &mut RoutePath,
) -> String {
    if query.directed {
        return answer_directed(query, scratch, path_buf);
    }
    let route = cache.get_or_compute(&query.x, &query.y, |x, y| {
        let mut out = RoutePath::empty();
        route_with_engine_into(x, y, Engine::Auto, &mut out);
        out
    });
    match query.kind {
        QueryKind::Distance => distance_body(route.len()),
        QueryKind::Route => route_body(&route),
    }
}

/// Answers a directed query with Algorithm 1, allocation-free: `O(k)`,
/// so not worth a cache slot.
pub(crate) fn answer_directed(
    query: &Query,
    scratch: &mut RoutingScratch,
    path_buf: &mut RoutePath,
) -> String {
    algorithm1_into(&query.x, &query.y, scratch, path_buf);
    match query.kind {
        QueryKind::Distance => distance_body(path_buf.len()),
        QueryKind::Route => route_body(path_buf),
    }
}

/// The uncached, unbuffered reference answer — what a single-threaded
/// `dbr distance`/`dbr route` invocation would print. Every service
/// response must be byte-equal to this.
pub fn answer_query_direct(query: &Query) -> String {
    match (query.kind, query.directed) {
        (QueryKind::Distance, true) => {
            distance_body(distance::directed::distance(&query.x, &query.y))
        }
        (QueryKind::Distance, false) => distance_body(distance::undirected::distance_with(
            Engine::Auto,
            &query.x,
            &query.y,
        )),
        (QueryKind::Route, true) => route_body(&routing::algorithm1(&query.x, &query.y)),
        (QueryKind::Route, false) => route_body(&routing::route_with_engine(
            &query.x,
            &query.y,
            Engine::Auto,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debruijn_core::DeBruijn;

    #[test]
    fn parse_accepts_the_full_grammar() {
        let q = parse_query(2, QueryKind::Distance, "x=0110&y=1011&directed=1").unwrap();
        assert_eq!(q.kind, QueryKind::Distance);
        assert!(q.directed);
        let q = parse_query(2, QueryKind::Route, "y=1011&x=0110&directed=true").unwrap();
        assert!(q.directed);
        let q = parse_query(2, QueryKind::Route, "x=0110&y=1011&directed=0").unwrap();
        assert!(!q.directed, "only 1|true enable directed");
        let q = parse_query(3, QueryKind::Route, "x=012&y=210").unwrap();
        assert_eq!(q.y.to_string(), "210");
    }

    #[test]
    fn parse_rejections_carry_stable_kinds() {
        let cases = [
            ("", "missing-param"),
            ("y=1011", "missing-param"),
            ("x=0110", "missing-param"),
            ("x=0210&y=0000", "bad-address"),
            ("x=0110&y=01a1", "bad-address"),
            ("x=0110&y=01", "length-mismatch"),
        ];
        for (query, kind) in cases {
            let err = parse_query(2, QueryKind::Distance, query).unwrap_err();
            assert_eq!(err.kind, kind, "{query}: {err:?}");
            assert!(!err.detail.is_empty());
        }
    }

    #[test]
    fn cached_and_direct_answers_agree_exhaustively() {
        let g = DeBruijn::new(2, 5).unwrap();
        let mut cache = RouteCache::new(64);
        let mut scratch = RoutingScratch::new();
        let mut path_buf = RoutePath::empty();
        for x in g.vertices() {
            for y in g.vertices() {
                for kind in [QueryKind::Distance, QueryKind::Route] {
                    for directed in [false, true] {
                        let q = Query {
                            kind,
                            x: x.clone(),
                            y: y.clone(),
                            directed,
                        };
                        // Twice: the second answer is a cache hit and
                        // must still be byte-identical.
                        for _ in 0..2 {
                            assert_eq!(
                                answer_query_cached(&q, &mut cache, &mut scratch, &mut path_buf),
                                answer_query_direct(&q),
                                "{x}->{y} {kind:?} directed={directed}"
                            );
                        }
                    }
                }
            }
        }
        assert!(cache.stats().hits > 0, "repeat queries must hit");
    }

    #[test]
    fn bodies_match_the_cli_formats() {
        let q = parse_query(2, QueryKind::Distance, "x=0000&y=1111").unwrap();
        assert_eq!(answer_query_direct(&q), "4\n");
        let q = parse_query(2, QueryKind::Route, "x=0000&y=1111").unwrap();
        let body = answer_query_direct(&q);
        assert!(body.starts_with("distance: 4\nroute:    "), "{body}");
        assert!(body.ends_with('\n'));
    }
}
