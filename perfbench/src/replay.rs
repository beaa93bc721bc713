//! The traced run's outside-in replay of one Basic read.
//!
//! After the real `submit_query` returns, the benchmark replays the
//! Basic engine's steps through the same public functions, in the
//! engine's order, timing each call as a span: parse, locate (live BATON
//! lookups through a benchmark-owned locator), per-owner plan, precheck
//! and execution (or one TCP call for a remote owner), result codec,
//! MemTable staging, the submitter's processing step, and report
//! assembly. Nothing here runs inside the timed end-to-end loop.

use std::collections::{BTreeMap, BTreeSet};

use bestpeer::common::{Error, PeerId, Result, TableSchema};
use bestpeer::core::indexer::PeerLocator;
use bestpeer::core::network::BestPeerNetwork;
use bestpeer::core::node::counters_to_stats;
use bestpeer::core::Role;
use bestpeer::simnet::{Cluster, Trace};
use bestpeer::sql::ast::SelectStmt;
use bestpeer::sql::bloom::BloomFilter;
use bestpeer::sql::decompose::{decompose, reorder_for_selectivity};
use bestpeer::sql::exec::{execute_select, ExecStats, ResultSet};
use bestpeer::sql::{apply_order_limit, parse_select, plan_physical, split_aggregate, NoStats};
use bestpeer::storage::{Database, MemTable};
use bestpeer::telemetry::QueryReport;
use bestpeer::transport::{Request, Response, TcpTransport, Transport};

use bestpeer_perfbench::trace::Recorder;

/// Span names whose durations count as attributed submit time. Planning
/// is excluded because execution re-plans internally, and the codec
/// because in-process owners never encode their results.
pub const ATTRIBUTED: [&str; 9] = [
    "sql.parse",
    "core.locate",
    "core.precheck",
    "core.serve_exec",
    "transport.rtt",
    "sql.bloom",
    "storage.stage",
    "sql.process",
    "telemetry.report",
];

/// Counts gathered by one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Rows scanned by owner subqueries and the processing step.
    pub rows_scanned: u64,
    /// Rows produced by owner subqueries and the processing step.
    pub rows_out: u64,
    /// Encoded bytes of owner results.
    pub codec_bytes: u64,
    /// Subquery calls to remote owners.
    pub remote_calls: u64,
    /// Request plus response bytes of those calls.
    pub remote_bytes: u64,
    /// Summed durations of the [`ATTRIBUTED`] spans, ns.
    pub attributed_ns: u64,
}

/// Where the replay reaches owners.
pub struct Owners<'a> {
    /// Remote owners' listen addresses.
    pub remotes: &'a BTreeMap<PeerId, String>,
    /// The benchmark's own transport to them.
    pub transport: &'a TcpTransport,
}

struct Ctx<'a> {
    rec: &'a mut Recorder,
    op: u64,
    parent: usize,
    counts: ReplayCounts,
}

impl Ctx<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.time(self.op, Some(self.parent), name, f)
    }
}

/// Serve one subquery at one owner the way the engine's batch serve
/// does: plan, precheck and execute locally, or one wire call.
fn serve(
    ctx: &mut Ctx<'_>,
    net: &BestPeerNetwork,
    owners: &Owners<'_>,
    role: &Role,
    owner: PeerId,
    stmt: &SelectStmt,
) -> Result<ResultSet> {
    let (rs, stats) = if let Some(addr) = owners.remotes.get(&owner) {
        let req = Request::Subquery {
            sql: stmt.to_string(),
            role: role.encode(),
            query_ts: 0,
        };
        let resp = ctx.time("transport.rtt", || owners.transport.call(addr, &req))?;
        ctx.counts.remote_calls += 1;
        ctx.counts.remote_bytes += (req.encode().len() + resp.encode().len()) as u64;
        match resp {
            Response::Rows {
                columns,
                rows,
                stats,
            } => (ResultSet { columns, rows }, counters_to_stats(&stats)),
            Response::Err { kind, message } => return Err(Error::from_kind(&kind, message)),
            other => return Err(Error::Network(format!("unexpected reply {other:?}"))),
        }
    } else {
        let peer = net.peer(owner)?;
        ctx.time("sql.plan", || plan_physical(stmt, &peer.db, &NoStats))?;
        ctx.time("core.precheck", || peer.precheck_subquery(stmt, role, 0))?;
        ctx.time("core.serve_exec", || peer.execute_subquery(stmt, role))?
    };
    note(&mut ctx.counts, &stats);
    let bytes = ctx.time("common.codec", || {
        let bytes = rs.encode();
        ResultSet::decode(&bytes).map(|back| (bytes.len(), back == rs))
    })?;
    if !bytes.1 {
        return Err(Error::Codec(
            "result set did not survive encode/decode".into(),
        ));
    }
    ctx.counts.codec_bytes += bytes.0 as u64;
    Ok(rs)
}

fn note(counts: &mut ReplayCounts, stats: &ExecStats) {
    counts.rows_scanned += stats.rows_scanned;
    counts.rows_out += stats.rows_output;
}

/// Replay a Basic read of `sql` from `submitter`. `warm` says the real
/// read was answered wholly from the result cache, in which case a
/// single-owner read skips the owner work, as the engine did.
/// `submitted` is the real read's trace, for report assembly.
#[allow(clippy::too_many_arguments)]
pub fn replay_basic(
    rec: &mut Recorder,
    op: u64,
    parent: usize,
    net: &mut BestPeerNetwork,
    owners: &Owners<'_>,
    submitter: PeerId,
    sql: &str,
    warm: bool,
    submitted: &Trace,
) -> Result<ReplayCounts> {
    let first_span = rec.spans().len();
    let mut ctx = Ctx {
        rec,
        op,
        parent,
        counts: ReplayCounts::default(),
    };
    let stmt = ctx.time("sql.parse", || parse_select(sql))?;
    let mut locator = PeerLocator::new(false);
    let located: BTreeMap<String, Vec<PeerId>> = ctx
        .time("core.locate", || {
            locator.peers_for_query_from(net.overlay_mut(), Some(submitter), &stmt)
        })?
        .into_iter()
        .collect();
    let role = net.bootstrap().role("R")?.clone();
    let schemas: Vec<TableSchema> = net.bootstrap().global_schemas().to_vec();
    let net: &BestPeerNetwork = net;

    let all: BTreeSet<PeerId> = located.values().flatten().copied().collect();
    if net.config().single_peer_opt && all.len() == 1 {
        if !warm {
            let owner = *all.iter().next().expect("one owner");
            serve(&mut ctx, net, owners, &role, owner, &stmt)?;
        }
    } else if stmt.is_aggregate() && stmt.join_count() == 0 {
        let dist = split_aggregate(&stmt)?;
        let table_owners = located.get(&stmt.from[0]).cloned().unwrap_or_default();
        let mut cols = Vec::new();
        let mut rows = Vec::new();
        for owner in table_owners {
            let rs = serve(&mut ctx, net, owners, &role, owner, &dist.partial)?;
            cols = rs.columns;
            rows.extend(rs.rows);
        }
        ctx.time("sql.process", || {
            let mut rs = dist.combine.apply(&cols, &rows)?;
            apply_order_limit(&stmt, &mut rs);
            Ok::<_, Error>(rs)
        })?;
    } else {
        let from: Vec<TableSchema> = stmt
            .from
            .iter()
            .map(|t| {
                schemas
                    .iter()
                    .find(|s| &s.name == t)
                    .cloned()
                    .ok_or_else(|| Error::Catalog(format!("no table {t}")))
            })
            .collect::<Result<_>>()?;
        let (stmt, from) = reorder_for_selectivity(&stmt, &from);
        let decomp = decompose(&stmt, &from)?;
        let mut temp = Database::new();
        for part in &decomp.parts {
            temp.create_table(temp_schema(&part.binding, &from)?)?;
        }
        let mut order = vec![0usize];
        order.extend(decomp.joins.iter().map(|j| j.part));
        let mut binding = decomp.parts[0].binding.clone();
        for (pos, &pi) in order.iter().enumerate() {
            let part = &decomp.parts[pi];
            let part_owners = located.get(&part.table).cloned().unwrap_or_default();
            let keys = if pos > 0 && net.config().bloom_join {
                decomp.joins[pos - 1].keys
            } else {
                None
            };
            let bloom = match keys {
                Some((l, r)) => Some(ctx.time("sql.bloom", || {
                    let (table, column) = binding.col(l).clone();
                    let table = table.ok_or_else(|| Error::Internal("unqualified".into()))?;
                    let t = temp.table(&table)?;
                    let idx = t.schema().column_index(&column)?;
                    let values: Vec<_> = t.scan().map(|row| row.get(idx).clone()).collect();
                    let mut f = BloomFilter::new(values.len().max(16), 0.01);
                    for v in values.iter().filter(|v| !v.is_null()) {
                        f.insert(v);
                    }
                    Ok::<_, Error>((f, r))
                })?),
                None => None,
            };
            let mut fetched = Vec::new();
            for owner in part_owners {
                let mut rs = serve(&mut ctx, net, owners, &role, owner, &part.subquery)?;
                if let Some((filter, key)) = &bloom {
                    rs.rows.retain(|row| {
                        let v = row.get(*key);
                        !v.is_null() && filter.contains(v)
                    });
                }
                fetched.push(rs);
            }
            let budget = net.config().memtable_budget;
            ctx.time("storage.stage", || {
                let mut memtable = MemTable::new(part.table.clone(), budget);
                for row in fetched.into_iter().flat_map(|rs| rs.rows) {
                    memtable.push(&mut temp, row)?;
                }
                memtable.flush(&mut temp).map(|_| ())
            })?;
            if pos > 0 {
                binding = decomp.joins[pos - 1].out_binding.clone();
            }
        }
        let (_, stats) = ctx.time("sql.process", || execute_select(&stmt, &temp))?;
        note(&mut ctx.counts, &stats);
    }
    let cluster = Cluster::new(net.config().resources);
    ctx.time("telemetry.report", || {
        let report = QueryReport::from_trace("basic", submitted, &cluster);
        report.to_json().render().len()
    });
    let mut counts = ctx.counts;
    counts.attributed_ns = rec.spans()[first_span..]
        .iter()
        .filter(|s| s.parent == Some(parent) && ATTRIBUTED.contains(&s.name))
        .map(|s| s.duration_ns())
        .sum();
    Ok(counts)
}

/// The staging table of one fetched part: its columns with their
/// global types and no primary key, as the Basic engine stages them.
fn temp_schema(
    binding: &bestpeer::sql::plan::Binding,
    schemas: &[TableSchema],
) -> Result<TableSchema> {
    let table = binding
        .col(0)
        .0
        .clone()
        .ok_or_else(|| Error::Internal("unqualified binding".into()))?;
    let global = schemas
        .iter()
        .find(|s| s.name == table)
        .ok_or_else(|| Error::Catalog(format!("no schema for `{table}`")))?;
    let mut cols = Vec::with_capacity(binding.arity());
    for i in 0..binding.arity() {
        let name = &binding.col(i).1;
        let ty = global.columns[global.column_index(name)?].ty;
        cols.push(bestpeer::common::ColumnDef::new(name.clone(), ty));
    }
    TableSchema::new(table, cols, vec![])
}
