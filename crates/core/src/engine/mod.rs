//! The pay-as-you-go query engines (paper §5).
//!
//! - [`basic`] — the default fetch-and-process strategy (§5.2) with the
//!   bloom-join and single-peer optimizations; used for the frequent,
//!   low-overhead corporate-network queries (Figures 6–10).
//! - [`parallel`] — the parallel P2P strategy with replicated joins
//!   (§5.3, processing graph of Definition 3).
//! - [`mr`] — the MapReduce engine (§5.4), sharing the SMS-style
//!   compiler with the HadoopDB baseline but reading from BestPeer++
//!   instances with access control applied.
//! - [`adaptive`] — Algorithm 2: estimate `C_BP` and `C_MR` from the
//!   histograms and runtime parameters and run the cheaper engine.
//! - [`online`] — distributed online aggregation (reference \[25\]):
//!   progressive estimates with confidence intervals for long-running
//!   aggregates.

pub mod adaptive;
pub mod basic;
pub mod mr;
pub mod online;
pub mod parallel;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use bestpeer_common::{Error, PeerId, Result, TableSchema};
use bestpeer_simnet::{Phase, SimTime, Task, Trace};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::exec::{ExecStats, ResultSet};
use bestpeer_transport::{Request, Response, Transport};

use crate::access::Role;
use crate::admission::AdmissionState;
use crate::fault::FaultState;
use crate::indexer::{IndexOverlay, PeerLocator};
use crate::network::{NetworkConfig, RemotePeer};
use crate::peer::NormalPeer;
use crate::rescache::ResultCache;
use crate::router::{QueryFingerprint, RoutingAdvisor};

/// Everything an engine needs to process one query.
pub struct EngineCtx<'a> {
    /// The network's normal peers (engines only read their data).
    pub peers: &'a BTreeMap<PeerId, NormalPeer>,
    /// Data peers living in other processes, reachable over
    /// `transport`. Engines treat them exactly like local owners —
    /// the serve paths dispatch on membership in this map.
    pub remotes: &'a BTreeMap<PeerId, RemotePeer>,
    /// The wire transport for `remotes` (`None` in pure in-process
    /// networks, where `remotes` is necessarily empty).
    pub transport: Option<&'a dyn Transport>,
    /// The BATON overlay holding the indices.
    pub overlay: &'a mut IndexOverlay,
    /// The submitting peer's index cache.
    pub locator: &'a mut PeerLocator,
    /// Network configuration (optimization toggles, MR overheads).
    pub config: &'a NetworkConfig,
    /// The global shared schema.
    pub schemas: &'a [TableSchema],
    /// The querying user's role (applied by every data owner).
    pub role: &'a Role,
    /// The query's snapshot timestamp (Definition 2).
    pub query_ts: u64,
    /// The network's fault-injection state; every subquery served ticks
    /// its virtual clock, so scheduled faults land mid-query.
    pub faults: &'a FaultState,
    /// The network's admission-control state: each serve claims a slot
    /// in the owner's bounded queue or is shed with
    /// [`Error::Overloaded`]. Disabled (zero-cost) by default.
    pub admission: &'a AdmissionState,
    /// Execution counters accumulated across every subquery this query
    /// touches (rows shared vs cloned, top-K short-circuits, …); a
    /// `Cell` because [`EngineCtx::serve`] takes `&self`. The network
    /// folds these into the telemetry registry after the engine runs.
    pub exec: Cell<ExecStats>,
    /// The submitting peer's remote-fetch result cache (level 2 of the
    /// caching subsystem; consulted by [`EngineCtx::serve_cached`]). A
    /// `RefCell` because serving takes `&self`.
    pub rescache: &'a RefCell<ResultCache>,
    /// The network's learned routing advisor: confirmed query templates
    /// short-circuit [`EngineCtx::locate`] to their remembered owner
    /// maps (zero overlay hops); misses fall through to BATON and are
    /// observed. A `RefCell` because the network owns the advisor
    /// across queries.
    pub advisor: &'a RefCell<RoutingAdvisor>,
}

impl EngineCtx<'_> {
    /// Look up a normal peer.
    pub fn peer(&self, id: PeerId) -> Result<&NormalPeer> {
        self.peers
            .get(&id)
            .ok_or_else(|| Error::Network(format!("{id} is not a live peer")))
    }

    /// Run a subquery at a data owner, with access control and snapshot
    /// checks (the owner enforces both). Advances the fault clock one
    /// operation; a crash scheduled for this instant fires *before* the
    /// owner answers, so the failure lands mid-query.
    pub fn serve(&self, owner: PeerId, stmt: &SelectStmt) -> Result<(ResultSet, ExecStats)> {
        self.faults.tick();
        if self.faults.is_down(owner) {
            return Err(Error::Unavailable(format!(
                "data peer {owner} is down (crashed mid-query)"
            )));
        }
        self.faults.note_serve(owner);
        self.admission.admit(owner)?;
        if let Some(remote) = self.remotes.get(&owner) {
            let (rs, stats) =
                remote_execute(self.transport, remote, stmt, self.role, self.query_ts)?;
            self.note_exec(&stats);
            return Ok((rs, stats));
        }
        let (rs, stats) = self
            .peer(owner)?
            .serve_subquery(stmt, self.role, self.query_ts)?;
        self.note_exec(&stats);
        Ok((rs, stats))
    }

    /// Run a subquery like [`EngineCtx::serve`], but consult the
    /// submitter's result cache first: a repeated pushed-down subquery
    /// against an unchanged owner is
    /// answered from memory instead of re-fetched. The third return
    /// value is `true` on a warm hit; the caller charges the hit where
    /// the cached result is consumed — the basic engine replays the
    /// fetch at the submitter (no owner disk, no tuple shipping), while
    /// the parallel and MapReduce engines memoize the owner's partition
    /// scan in place (no disk or scan CPU; placement, shuffle, and the
    /// level's parallel structure stay exactly as cold, so a hit can
    /// only shorten queue timelines).
    ///
    /// Correctness is preserved exactly: a hit still runs the full
    /// fault preamble (clock tick, crash check, slow-link charge) and
    /// the owner's snapshot check, so crashes, retries, and
    /// stale-snapshot rejections land identically to a cold run — only
    /// the data movement differs. Entries are validated against the
    /// owner's current `load_timestamp` and dropped on mismatch.
    pub fn serve_cached(
        &self,
        owner: PeerId,
        stmt: &SelectStmt,
    ) -> Result<(ResultSet, ExecStats, bool)> {
        if !self.rescache.borrow().enabled() {
            let (rs, stats) = self.serve(owner, stmt)?;
            return Ok((rs, stats, false));
        }
        // The fault preamble of `serve`, verbatim — the cache must not
        // mask a crash scheduled for this operation.
        self.faults.tick();
        if self.faults.is_down(owner) {
            return Err(Error::Unavailable(format!(
                "data peer {owner} is down (crashed mid-query)"
            )));
        }
        self.faults.note_serve(owner);
        self.admission.admit(owner)?;
        if let Some(remote) = self.remotes.get(&owner) {
            // The submitter-side snapshot check uses the remote's
            // advertised load timestamp; the owner re-enforces the
            // authoritative one when the subquery arrives.
            let load_ts = remote.load_timestamp;
            if load_ts < self.query_ts {
                return Err(Error::StaleSnapshot(format!(
                    "peer {owner} data timestamp {load_ts} is older than query timestamp {}",
                    self.query_ts
                )));
            }
            let fp = ResultCache::fingerprint(stmt, &self.role.name);
            if let Some(rs) = self.rescache.borrow_mut().get(owner, fp, load_ts) {
                return Ok((rs, ExecStats::default(), true));
            }
            let (rs, stats) =
                remote_execute(self.transport, remote, stmt, self.role, self.query_ts)?;
            self.note_exec(&stats);
            self.rescache
                .borrow_mut()
                .insert(owner, fp, stmt.from.clone(), rs.clone(), load_ts);
            return Ok((rs, stats, false));
        }
        let peer = self.peer(owner)?;
        let load_ts = peer.db.load_timestamp();
        // The owner's own snapshot check (Definition 2), applied before
        // the cache so a hit cannot outrun the loader.
        if load_ts < self.query_ts {
            return Err(Error::StaleSnapshot(format!(
                "peer {owner} data timestamp {load_ts} is older than query timestamp {}",
                self.query_ts
            )));
        }
        let fp = ResultCache::fingerprint(stmt, &self.role.name);
        if let Some(rs) = self.rescache.borrow_mut().get(owner, fp, load_ts) {
            return Ok((rs, ExecStats::default(), true));
        }
        let (rs, stats) = peer.serve_subquery(stmt, self.role, self.query_ts)?;
        self.note_exec(&stats);
        self.rescache
            .borrow_mut()
            .insert(owner, fp, stmt.from.clone(), rs.clone(), load_ts);
        Ok((rs, stats, false))
    }

    /// Serve the same pushed-down statement at several owners, fanning
    /// the pure execution work out to pool workers while preserving the
    /// one-at-a-time semantics of [`EngineCtx::serve_cached`] exactly.
    ///
    /// Three phases:
    ///
    /// 1. **Preamble, sequential, in owner order** — fault-clock tick,
    ///    crash check, slow-link charge, peer lookup, snapshot check,
    ///    cache probe, and (on a miss) access control. The first failure
    ///    stops the phase: owners after it never tick, exactly as if the
    ///    loop had returned early.
    /// 2. **Execution, parallel** — each cache miss runs
    ///    [`NormalPeer::execute_subquery`] (pure `&self`) on a pool
    ///    worker.
    /// 3. **Merge, sequential, in owner order** — exec stats fold in,
    ///    cache inserts land, and results come back in owner order; a
    ///    preamble failure from phase 1 surfaces only after the earlier
    ///    owners' misses have executed and been cached, matching the
    ///    sequential path's cache state on error.
    ///
    /// Because phase 1 is order-identical to the sequential loop and
    /// phase 3 merges in owner order, results, traces, fault landings,
    /// and stats are byte-identical at any thread count.
    pub fn serve_cached_batch(
        &self,
        owners: &[PeerId],
        stmt: &SelectStmt,
    ) -> Result<Vec<(ResultSet, ExecStats, bool)>> {
        /// Where a cache miss executes in the parallel phase: on a
        /// local peer's database, or over the wire at a remote peer.
        enum MissTarget<'p> {
            Local(&'p NormalPeer),
            Remote(&'p RemotePeer),
        }
        enum Prepared<'p> {
            Hit(ResultSet),
            /// A miss to execute; `cache_key` is `(fingerprint, load_ts)`
            /// when the result should be admitted to the cache.
            Miss {
                target: MissTarget<'p>,
                cache_key: Option<(u64, u64)>,
            },
        }
        // The cache key's statement half, rendered once for all owners
        // (`None` when the cache is off).
        let fp = self
            .rescache
            .borrow()
            .enabled()
            .then(|| ResultCache::fingerprint(stmt, &self.role.name));
        let mut prepared: Vec<Prepared> = Vec::with_capacity(owners.len());
        let mut preamble_err: Option<Error> = None;
        for &owner in owners {
            self.faults.tick();
            if self.faults.is_down(owner) {
                preamble_err = Some(Error::Unavailable(format!(
                    "data peer {owner} is down (crashed mid-query)"
                )));
                break;
            }
            self.faults.note_serve(owner);
            if let Err(e) = self.admission.admit(owner) {
                preamble_err = Some(e);
                break;
            }
            if let Some(remote) = self.remotes.get(&owner) {
                // No local precheck for remote owners: the owner
                // enforces access control and its authoritative
                // snapshot check when the subquery arrives.
                let Some(fp) = fp else {
                    prepared.push(Prepared::Miss {
                        target: MissTarget::Remote(remote),
                        cache_key: None,
                    });
                    continue;
                };
                let load_ts = remote.load_timestamp;
                if load_ts < self.query_ts {
                    preamble_err = Some(Error::StaleSnapshot(format!(
                        "peer {owner} data timestamp {load_ts} is older than query timestamp {}",
                        self.query_ts
                    )));
                    break;
                }
                if let Some(rs) = self.rescache.borrow_mut().get(owner, fp, load_ts) {
                    prepared.push(Prepared::Hit(rs));
                } else {
                    prepared.push(Prepared::Miss {
                        target: MissTarget::Remote(remote),
                        cache_key: Some((fp, load_ts)),
                    });
                }
                continue;
            }
            let peer = match self.peer(owner) {
                Ok(p) => p,
                Err(e) => {
                    preamble_err = Some(e);
                    break;
                }
            };
            let Some(fp) = fp else {
                match peer.precheck_subquery(stmt, self.role, self.query_ts) {
                    Ok(()) => prepared.push(Prepared::Miss {
                        target: MissTarget::Local(peer),
                        cache_key: None,
                    }),
                    Err(e) => {
                        preamble_err = Some(e);
                        break;
                    }
                }
                continue;
            };
            let load_ts = peer.db.load_timestamp();
            if load_ts < self.query_ts {
                preamble_err = Some(Error::StaleSnapshot(format!(
                    "peer {owner} data timestamp {load_ts} is older than query timestamp {}",
                    self.query_ts
                )));
                break;
            }
            if let Some(rs) = self.rescache.borrow_mut().get(owner, fp, load_ts) {
                prepared.push(Prepared::Hit(rs));
                continue;
            }
            match peer.precheck_subquery(stmt, self.role, self.query_ts) {
                Ok(()) => prepared.push(Prepared::Miss {
                    target: MissTarget::Local(peer),
                    cache_key: Some((fp, load_ts)),
                }),
                Err(e) => {
                    preamble_err = Some(e);
                    break;
                }
            }
        }
        let misses: Vec<&MissTarget> = prepared
            .iter()
            .filter_map(|p| match p {
                Prepared::Miss { target, .. } => Some(target),
                Prepared::Hit(_) => None,
            })
            .collect();
        // The closure captures only `Sync` state (the transport is
        // `Sync` by trait bound) — never `self`, whose `Cell`/`RefCell`
        // fields must stay on this thread.
        let role = self.role;
        let query_ts = self.query_ts;
        let transport = self.transport;
        let executed = bestpeer_common::pool::run_tasks(&misses, |_, target| match target {
            MissTarget::Local(peer) => peer.execute_subquery(stmt, role),
            MissTarget::Remote(remote) => remote_execute(transport, remote, stmt, role, query_ts),
        });
        let mut out = Vec::with_capacity(prepared.len());
        let mut executed = executed.into_iter();
        for (p, &owner) in prepared.into_iter().zip(owners) {
            match p {
                Prepared::Hit(rs) => out.push((rs, ExecStats::default(), true)),
                Prepared::Miss { cache_key, .. } => {
                    let (rs, stats) = executed.next().expect("one result per miss")?;
                    self.note_exec(&stats);
                    if let Some((fp, load_ts)) = cache_key {
                        self.rescache.borrow_mut().insert(
                            owner,
                            fp,
                            stmt.from.clone(),
                            rs.clone(),
                            load_ts,
                        );
                    }
                    out.push((rs, stats, false));
                }
            }
        }
        match preamble_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Fold one execution's stats into the query-wide counters.
    pub fn note_exec(&self, stats: &ExecStats) {
        let mut agg = self.exec.get();
        agg.merge(stats);
        self.exec.set(agg);
    }

    /// Record one coordinator-side top-K short-circuit (an engine's
    /// [`bestpeer_sql::apply_order_limit`] answered `ORDER BY … LIMIT`
    /// with the bounded heap instead of a full sort).
    pub fn note_topk(&self) {
        let mut agg = self.exec.get();
        agg.topk_short_circuits += 1;
        self.exec.set(agg);
    }

    /// The schema of one global table.
    pub fn schema(&self, table: &str) -> Result<&TableSchema> {
        self.schemas
            .iter()
            .find(|s| s.name == table)
            .ok_or_else(|| Error::Catalog(format!("no global table `{table}`")))
    }

    /// Schemas for each FROM table of a statement, in order.
    pub fn from_schemas(&self, stmt: &SelectStmt) -> Result<Vec<TableSchema>> {
        stmt.from.iter().map(|t| self.schema(t).cloned()).collect()
    }

    /// Locate the owner peers per table and charge the BATON routing
    /// hops as a "locate" phase on the submitter.
    ///
    /// The routing advisor is consulted first: a confirmed, fresh
    /// template answers from its remembered owner map with zero overlay
    /// hops. Misses fall through to the BATON lookup within the same
    /// call and the answer is observed, so the advisor only ever
    /// replays maps a fresh lookup produced — it changes who is asked,
    /// never what is returned.
    pub fn locate(
        &mut self,
        submitter: PeerId,
        stmt: &SelectStmt,
        trace: &mut Trace,
    ) -> Result<BTreeMap<String, Vec<PeerId>>> {
        let fp = if self.advisor.borrow().enabled() {
            let fp = QueryFingerprint::of(stmt);
            if let Some(routed) = self.advisor.borrow_mut().route(&fp) {
                return Ok(routed);
            }
            Some(fp)
        } else {
            None
        };
        let hops_before = self.locator.stats().hops;
        let located = self
            .locator
            .peers_for_query_from(self.overlay, Some(submitter), stmt)?;
        let hops = self.locator.stats().hops - hops_before;
        if hops > 0 {
            trace.push(
                Phase::new("locate").task(Task::on(submitter).fixed(SimTime::from_micros(
                    hops * self.config.hop_latency.as_micros(),
                ))),
            );
        }
        let located: BTreeMap<String, Vec<PeerId>> = located.into_iter().collect();
        if let Some(fp) = fp {
            self.advisor.borrow_mut().observe(&fp, &located, stmt);
        }
        Ok(located)
    }
}

/// Execute one pushed-down subquery at a remote peer over the wire.
/// Pure with respect to the engine context (callers fold the returned
/// stats via [`EngineCtx::note_exec`]), so it can run on pool workers.
/// The role travels as its opaque core encoding; the statement travels
/// as SQL text and is re-parsed at the owner. Wire-level failures are
/// already mapped onto [`Error::Unavailable`] / [`Error::Timeout`] by
/// the transport, so the network's retry loop treats a dead remote
/// exactly like a crashed local peer.
fn remote_execute(
    transport: Option<&dyn Transport>,
    remote: &RemotePeer,
    stmt: &SelectStmt,
    role: &Role,
    query_ts: u64,
) -> Result<(ResultSet, ExecStats)> {
    let transport = transport.ok_or_else(|| {
        Error::Network(format!(
            "remote peer {} registered without a transport",
            remote.id
        ))
    })?;
    let req = Request::Subquery {
        sql: stmt.to_string(),
        role: role.encode(),
        query_ts,
    };
    match transport.call(&remote.addr, &req)? {
        Response::Rows {
            columns,
            rows,
            stats,
        } => Ok((
            ResultSet { columns, rows },
            crate::node::counters_to_stats(&stats),
        )),
        Response::Err { kind, message } => Err(Error::from_kind(&kind, message)),
        other => Err(Error::Network(format!(
            "unexpected response to subquery from {}: {other:?}",
            remote.addr
        ))),
    }
}

/// Every engine returns the materialized result plus its cost trace.
pub type EngineOutput = (ResultSet, Trace);
