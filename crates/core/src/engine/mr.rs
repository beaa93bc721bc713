//! The MapReduce engine inside BestPeer++ (paper §5.4).
//!
//! "Besides its native processing strategy, we also implement a
//! MapReduce-style engine for BestPeer++. ... the mappers read data
//! directly from the BestPeer++ instances and the output of reducers are
//! written back to HDFS. ... instead of doing replicate joins, the
//! symmetric-hash join approach is adopted: each tuple only needs to be
//! shuffled once on each level", at the price of the per-job start-up
//! overhead `φ`.
//!
//! The compiler is shared with the HadoopDB baseline
//! ([`bestpeer_mapreduce::sqlcompile`]); what differs here is the
//! [`LocalSource`]: map tasks read from the normal peers through the
//! access-controlled, snapshot-checked subquery interface.

use std::cell::RefCell;
use std::collections::BTreeMap;

use bestpeer_common::{PeerId, Result, TableSchema};
use bestpeer_mapreduce::sqlcompile::{run_stmt, LocalSource};
use bestpeer_mapreduce::{Hdfs, MapReduceEngine};
use bestpeer_sql::ast::SelectStmt;
use bestpeer_sql::exec::ResultSet;

use crate::access::Role;
use crate::fault::FaultState;
use crate::peer::NormalPeer;
use crate::rescache::ResultCache;

use super::{EngineCtx, EngineOutput};

/// [`LocalSource`] over the normal peers: subqueries run through
/// [`NormalPeer::serve_subquery`], so access control and Definition 2's
/// snapshot check apply exactly as in the native engines — and the fault
/// clock ticks per map task, so injected crashes land mid-job.
struct PeerSource<'a> {
    peers: &'a BTreeMap<PeerId, NormalPeer>,
    schemas: &'a [TableSchema],
    role: &'a Role,
    query_ts: u64,
    faults: &'a FaultState,
    /// The submitter's result cache: a map task whose pushed-down scan
    /// is cached reads it from memory (zero input-scan bytes) instead
    /// of re-running the owner-side subquery.
    cache: &'a RefCell<ResultCache>,
}

impl LocalSource for PeerSource<'_> {
    fn peers(&self) -> Vec<PeerId> {
        self.peers.keys().copied().collect()
    }

    fn run_local(&self, peer: PeerId, stmt: &SelectStmt) -> Result<(ResultSet, u64)> {
        self.faults.tick();
        if self.faults.is_down(peer) {
            return Err(bestpeer_common::Error::Unavailable(format!(
                "data peer {peer} is down (crashed mid-job)"
            )));
        }
        self.faults.note_serve(peer);
        let p = self
            .peers
            .get(&peer)
            .ok_or_else(|| bestpeer_common::Error::Network(format!("{peer} is not a live peer")))?;
        // A peer whose partition lacks the table contributes nothing.
        if !stmt.from.iter().all(|t| p.db.has_table(t)) {
            return Ok((ResultSet::default(), 0));
        }
        if self.cache.borrow().enabled() {
            let load_ts = p.db.load_timestamp();
            // The owner's snapshot check (Definition 2) applies to warm
            // and cold map tasks alike.
            if load_ts < self.query_ts {
                return Err(bestpeer_common::Error::StaleSnapshot(format!(
                    "peer {peer} data timestamp {load_ts} is older than query timestamp {}",
                    self.query_ts
                )));
            }
            let fp = ResultCache::fingerprint(stmt, &self.role.name);
            if let Some(rs) = self.cache.borrow_mut().get(peer, fp, load_ts) {
                return Ok((rs, 0));
            }
            let (rs, stats) = p.serve_subquery(stmt, self.role, self.query_ts)?;
            self.cache
                .borrow_mut()
                .insert(peer, fp, stmt.from.clone(), rs.clone(), load_ts);
            return Ok((rs, stats.bytes_scanned));
        }
        let (rs, stats) = p.serve_subquery(stmt, self.role, self.query_ts)?;
        Ok((rs, stats.bytes_scanned))
    }

    /// Batched map-task input: phase 1 replays [`PeerSource::run_local`]'s
    /// preamble (fault tick, crash check, lookup, snapshot check, cache
    /// probe, access check) sequentially in peer order — stopping at the
    /// first failure so later peers never tick — then the cache-miss
    /// subqueries execute on pool workers and merge back in peer order
    /// (with their cache inserts). Results, errors, fault landings, and
    /// cache state are identical to the sequential loop at any thread
    /// count.
    fn run_local_batch(
        &self,
        peers: &[PeerId],
        stmt: &SelectStmt,
    ) -> Result<Vec<(ResultSet, u64)>> {
        enum Prepared<'p> {
            Empty,
            Hit(ResultSet),
            Miss {
                peer: &'p NormalPeer,
                cache_key: Option<(u64, u64)>,
            },
        }
        // The cache key's statement half, rendered once for all peers
        // (`None` when the cache is off).
        let fp = self
            .cache
            .borrow()
            .enabled()
            .then(|| ResultCache::fingerprint(stmt, &self.role.name));
        let mut prepared: Vec<Prepared> = Vec::with_capacity(peers.len());
        let mut preamble_err: Option<bestpeer_common::Error> = None;
        for &peer in peers {
            self.faults.tick();
            if self.faults.is_down(peer) {
                preamble_err = Some(bestpeer_common::Error::Unavailable(format!(
                    "data peer {peer} is down (crashed mid-job)"
                )));
                break;
            }
            self.faults.note_serve(peer);
            let p = match self.peers.get(&peer).ok_or_else(|| {
                bestpeer_common::Error::Network(format!("{peer} is not a live peer"))
            }) {
                Ok(p) => p,
                Err(e) => {
                    preamble_err = Some(e);
                    break;
                }
            };
            if !stmt.from.iter().all(|t| p.db.has_table(t)) {
                prepared.push(Prepared::Empty);
                continue;
            }
            let cache_key = if let Some(fp) = fp {
                let load_ts = p.db.load_timestamp();
                if load_ts < self.query_ts {
                    preamble_err = Some(bestpeer_common::Error::StaleSnapshot(format!(
                        "peer {peer} data timestamp {load_ts} is older than query timestamp {}",
                        self.query_ts
                    )));
                    break;
                }
                if let Some(rs) = self.cache.borrow_mut().get(peer, fp, load_ts) {
                    prepared.push(Prepared::Hit(rs));
                    continue;
                }
                Some((fp, load_ts))
            } else {
                None
            };
            match p.precheck_subquery(stmt, self.role, self.query_ts) {
                Ok(()) => prepared.push(Prepared::Miss { peer: p, cache_key }),
                Err(e) => {
                    preamble_err = Some(e);
                    break;
                }
            }
        }
        let misses: Vec<&NormalPeer> = prepared
            .iter()
            .filter_map(|p| match p {
                Prepared::Miss { peer, .. } => Some(*peer),
                _ => None,
            })
            .collect();
        let role = self.role;
        let executed =
            bestpeer_common::pool::run_tasks(&misses, |_, p| p.execute_subquery(stmt, role));
        let mut out = Vec::with_capacity(prepared.len());
        let mut executed = executed.into_iter();
        for (entry, &peer) in prepared.into_iter().zip(peers) {
            match entry {
                Prepared::Empty => out.push((ResultSet::default(), 0)),
                Prepared::Hit(rs) => out.push((rs, 0)),
                Prepared::Miss { cache_key, .. } => {
                    let (rs, stats) = executed.next().expect("one result per miss")?;
                    if let Some((fp, load_ts)) = cache_key {
                        self.cache.borrow_mut().insert(
                            peer,
                            fp,
                            stmt.from.clone(),
                            rs.clone(),
                            load_ts,
                        );
                    }
                    out.push((rs, stats.bytes_scanned));
                }
            }
        }
        match preamble_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    fn table_schema(&self, table: &str) -> Result<TableSchema> {
        self.schemas
            .iter()
            .find(|s| s.name == table)
            .cloned()
            .ok_or_else(|| bestpeer_common::Error::Catalog(format!("no global table `{table}`")))
    }
}

/// Execute `stmt` with the MapReduce engine. An HDFS instance is
/// mounted over the normal peers for the job chain ("a Hadoop
/// distributed file system is mounted at system start time to serve as
/// the temporal storage media for MapReduce jobs").
pub fn execute(
    ctx: &mut EngineCtx<'_>,
    _submitter: PeerId,
    stmt: &SelectStmt,
) -> Result<EngineOutput> {
    let workers: Vec<PeerId> = ctx.peers.keys().copied().collect();
    let engine = MapReduceEngine::new(workers.clone(), ctx.config.mr);
    let mut hdfs = Hdfs::new(workers, ctx.config.hdfs_replication);
    let source = PeerSource {
        peers: ctx.peers,
        schemas: ctx.schemas,
        role: ctx.role,
        query_ts: ctx.query_ts,
        faults: ctx.faults,
        cache: ctx.rescache,
    };
    let (mut rs, trace) = run_stmt(stmt, &source, &engine, &mut hdfs)?;
    // Idempotent re-application: the ordering/truncation contract all
    // engines share is enforced at the engine boundary, not left to a
    // compiler-internal detail of `run_stmt`.
    if bestpeer_sql::apply_order_limit(stmt, &mut rs) {
        ctx.note_topk();
    }
    Ok((rs, trace))
}
