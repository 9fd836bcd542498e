//! The live introspection endpoint: one route table for every
//! deployment, from one shard to N.
//!
//! Every route reads the shards' mutex-free handles ([`ShardView`]) —
//! registries, trace rings, provenance tables, postmortems and logs —
//! so no route ever waits on an engine mutex. Routes whose data lives
//! per shard answer one entry per shard, indexed by shard.

use super::{merged_stats, ShardMap, ShardView, ShardedDb};
use crate::provenance::ProvHop;
use crate::reenact::{self, Purpose, Reenactment};
use rh_common::{Lsn, ObjectId, Result};
use rh_obs::{
    names, promtext, HttpResponse, IntrospectionServer, JsonValue, Obs, RegistrySnapshot, Sampler,
};
use rh_wal::LogManager;
use std::sync::Arc;

/// The built-in routes, in the order the index (404) page lists them.
const ENDPOINTS: &[&str] = &[
    "/stats",
    "/metrics",
    "/timeseries",
    "/slowops",
    "/trace",
    "/provenance",
    "/provenance/<ob>",
    "/postmortem",
    "/asof/<ob>/<lsn>",
    "/history/<ob>",
];

impl ShardedDb {
    /// Starts the live introspection endpoint on `addr` (use port 0 for
    /// ephemeral). Routes:
    ///
    /// * `/stats` (merged registry, JSON) and `/metrics` (the same
    ///   registry in Prometheus text exposition);
    /// * `/timeseries`, `/slowops`, `/trace`: router plus per-shard
    ///   views — queue phases live on the router, commit and 2PC edge
    ///   phases on the shards, so a stitcher needs both;
    /// * `/provenance` and `/postmortem`: arrays indexed by shard
    ///   (`null` for a shard whose recovery found no predecessor black
    ///   box); `/provenance/<ob>` is routed to the owning shard;
    /// * `/asof/<ob>/<lsn>` and `/history/<ob>`: reenacted off the
    ///   owning shard's log, in-doubt 2PC outcomes stitched from every
    ///   shard's coordinator decisions.
    ///
    /// Holds no engine mutex on any route. Also spawns the cadence
    /// sampler that feeds `/timeseries` once per second until
    /// [`ShardedDb::stop_introspection`].
    pub fn serve_introspection(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        self.serve_introspection_with(addr, &[], None)
    }

    /// [`ShardedDb::serve_introspection`] with caller-supplied routes:
    /// `extra` is consulted before the built-in match (so a host can
    /// mount e.g. `/replication`), and `extra_endpoints` extends the
    /// endpoint listing printed on the index page.
    pub fn serve_introspection_with(
        &self,
        addr: &str,
        extra_endpoints: &[&str],
        extra: Option<rh_obs::Handler>,
    ) -> std::io::Result<std::net::SocketAddr> {
        let routes = Arc::new(Routes {
            router: Arc::clone(&self.obs),
            map: self.map,
            views: self.shards.iter().map(|c| c.view.clone()).collect(),
        });
        let mut endpoints = ENDPOINTS.to_vec();
        endpoints.extend_from_slice(extra_endpoints);
        let handler: rh_obs::Handler = {
            let routes = Arc::clone(&routes);
            Arc::new(move |path: &str| {
                extra.as_ref().and_then(|h| h(path)).or_else(|| routes.answer(path))
            })
        };
        let server = IntrospectionServer::bind(addr, &endpoints, handler)?;
        let bound = server.local_addr();
        let sampler = Sampler::spawn_every(
            std::time::Duration::from_secs(1),
            Box::new(move || {
                routes.router.registry.inc(names::M_TS_SAMPLES);
                crate::witness_bridge::sample_lock_witness(&routes.router.registry);
                routes.router.timeseries.sample(&routes.stats());
            }),
        );
        *self.sampler.lock() = Some(sampler);
        *self.server.lock() = Some(server);
        Ok(bound)
    }

    /// Stops the introspection endpoint (and its cadence sampler), if
    /// running.
    pub fn stop_introspection(&self) {
        *self.sampler.lock() = None;
        *self.server.lock() = None;
    }
}

/// What the service thread and the sampler share: the router's obs and
/// every shard's mutex-free handles.
struct Routes {
    router: Arc<Obs>,
    map: ShardMap,
    views: Vec<ShardView>,
}

impl Routes {
    /// The absorbed and merged registry — the arithmetic of
    /// [`ShardedDb::stats`].
    fn stats(&self) -> RegistrySnapshot {
        merged_stats(&self.router, self.views.iter())
    }

    /// `{router, shards: [..]}`: one document from the router's obs and
    /// one per shard.
    fn per_obs(&self, doc: impl Fn(&Obs) -> JsonValue) -> JsonValue {
        JsonValue::obj(vec![
            ("router", doc(&self.router)),
            ("shards", JsonValue::Arr(self.views.iter().map(|v| doc(&v.obs)).collect())),
        ])
    }

    /// One document per shard, indexed by shard.
    fn per_shard(&self, doc: impl Fn(&ShardView) -> JsonValue) -> JsonValue {
        JsonValue::Arr(self.views.iter().map(doc).collect())
    }

    /// [`ShardedDb::reenact`] over the captured handles.
    fn reenact(&self, ob: ObjectId, as_of: Lsn, purpose: Purpose) -> Result<Reenactment> {
        let owner = &self.views[self.map.shard_of(ob)];
        let logs: Vec<&LogManager> = self.views.iter().map(|v| &*v.log).collect();
        reenact::query(&owner.log, &logs, &owner.obs, ob, as_of, purpose)
    }

    fn answer(&self, path: &str) -> Option<HttpResponse> {
        let json = HttpResponse::Json;
        match path {
            "/stats" => Some(json(self.stats().to_json())),
            "/metrics" => Some(HttpResponse::Text {
                content_type: rh_obs::serve::PROMETHEUS_CONTENT_TYPE,
                body: promtext::render(&self.stats()),
            }),
            "/timeseries" => Some(json(self.per_obs(|o| o.timeseries.to_json()))),
            "/slowops" => Some(json(self.per_obs(|o| o.slowops.to_json()))),
            "/trace" => Some(json(self.per_obs(|o| o.tracer.snapshot().to_json()))),
            "/provenance" => Some(json(self.per_shard(ShardView::provenance_json))),
            "/postmortem" => Some(json(self.per_shard(ShardView::postmortem_json))),
            p => {
                if let Some(rest) = p.strip_prefix("/asof/") {
                    Some(self.asof(rest))
                } else if let Some(rest) = p.strip_prefix("/history/") {
                    Some(self.history(rest))
                } else {
                    p.strip_prefix("/provenance/").map(|rest| self.chain(rest))
                }
            }
        }
    }

    /// `/provenance/<ob>`: one object's chain, from its owning shard.
    /// Malformed segments are a 400, not a 404: the route shape matched,
    /// the parameter did not.
    fn chain(&self, rest: &str) -> HttpResponse {
        let Ok(ob) = rest.parse::<u64>() else {
            return HttpResponse::bad_request("object id must be numeric");
        };
        let ob = ObjectId(ob);
        let prov = self.views[self.map.shard_of(ob)].prov.lock();
        HttpResponse::Json(JsonValue::Arr(prov.chain(ob).iter().map(ProvHop::to_json).collect()))
    }

    /// `/asof/<ob>/<lsn>`: the reenacted committed value at an LSN (a
    /// decimal LSN, or `now` for the log's last record). Malformed
    /// segments are a 400; an unanswerable target (truncated history)
    /// is a 400 carrying the reenactment error.
    fn asof(&self, rest: &str) -> HttpResponse {
        let mut it = rest.splitn(2, '/');
        let ob = it.next().and_then(|s| s.parse::<u64>().ok());
        let lsn = it.next().and_then(|s| match s {
            "now" => Some(Lsn::NULL),
            s => s.parse::<u64>().ok().map(Lsn),
        });
        let (Some(ob), Some(lsn)) = (ob, lsn) else {
            return HttpResponse::bad_request(
                "expected /asof/<ob>/<lsn> with numeric segments (or \"now\" for the lsn)",
            );
        };
        match self.reenact(ObjectId(ob), lsn, Purpose::Value) {
            Ok(r) => HttpResponse::Json(r.asof_json()),
            Err(e) => HttpResponse::bad_request(e.to_string()),
        }
    }

    /// `/history/<ob>`: the full `history.v1` version timeline up to the
    /// log's last record. Errors as for `/asof`.
    fn history(&self, rest: &str) -> HttpResponse {
        let Ok(ob) = rest.parse::<u64>() else {
            return HttpResponse::bad_request("object id must be numeric");
        };
        match self.reenact(ObjectId(ob), Lsn::NULL, Purpose::History) {
            Ok(r) => HttpResponse::Json(r.to_json_range(Lsn::FIRST, r.as_of)),
            Err(e) => HttpResponse::bad_request(e.to_string()),
        }
    }
}
