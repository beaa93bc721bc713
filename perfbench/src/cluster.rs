//! Network construction for each workload, timed phase by phase, and
//! the `bestpeer-node` child processes of the TCP workload.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use bestpeer::common::{PeerId, Row};
use bestpeer::core::indexer::decode_entries;
use bestpeer::core::network::{BestPeerNetwork, NetworkConfig};
use bestpeer::core::Role;
use bestpeer::tpch::dbgen::{DbGen, TpchConfig};
use bestpeer::tpch::schema;
use bestpeer::transport::{Request, Response, TcpConfig, TcpTransport, Transport};

use bestpeer_perfbench::cpu::CpuClock;
use bestpeer_perfbench::gen::PeerShape;
use bestpeer_perfbench::oracle::Oracle;

/// Seconds spent in each set-up phase, summed over peers.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupPhases {
    /// `DbGen::generate*`.
    pub gen_s: f64,
    /// `Database::bulk_insert` of the generated rows.
    pub load_s: f64,
    /// `Database::create_index` of the secondary indices.
    pub index_s: f64,
    /// `publish_indices`.
    pub publish_s: f64,
}

/// A built workload network.
pub struct Built {
    /// The network under test.
    pub net: BestPeerNetwork,
    /// Peer ids by workload peer index.
    pub peers: Vec<PeerId>,
    /// Data shape of each peer, by index.
    pub shapes: Vec<PeerShape>,
    /// In-process set-up phase timings.
    pub phases: SetupPhases,
    /// Child processes serving remote peers (TCP workload only), held
    /// so they live exactly as long as the build.
    pub nodes: Nodes,
    /// Remote peers' listen addresses.
    pub remotes: BTreeMap<PeerId, String>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The full-read role `R` over every TPC-H table.
pub fn full_read_role() -> Role {
    let tables = schema::all_tables();
    let spec: Vec<(&str, Vec<&str>)> = tables
        .iter()
        .map(|t| {
            (
                t.name.as_str(),
                t.columns.iter().map(|c| c.name.as_str()).collect(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[&str])> = spec.iter().map(|(t, cs)| (*t, cs.as_slice())).collect();
    Role::full_read("R", &borrowed)
}

/// Load `data` into a joined peer the way `load_peer` does (logged bulk
/// inserts, load timestamp 1, index publish), then create `indices`.
fn load(
    net: &mut BestPeerNetwork,
    id: PeerId,
    data: BTreeMap<String, Vec<Row>>,
    indices: &[(&str, &str)],
    phases: &mut SetupPhases,
) -> bestpeer::common::Result<()> {
    let t = Instant::now();
    {
        let peer = net.peer_mut(id)?;
        for (table, rows) in data {
            peer.db.bulk_insert(&table, rows)?;
        }
        peer.db.set_load_timestamp(1)?;
    }
    phases.load_s += secs(t);
    let t = Instant::now();
    net.publish_indices(id)?;
    phases.publish_s += secs(t);
    let t = Instant::now();
    for (table, column) in indices {
        net.peer_mut(id)?.db.create_index(table, column)?;
    }
    phases.index_s += secs(t);
    Ok(())
}

fn generate(
    cfg: TpchConfig,
    tables: Option<&[&str]>,
    phases: &mut SetupPhases,
) -> BTreeMap<String, Vec<Row>> {
    let t = Instant::now();
    let mut gen = DbGen::new(cfg);
    let data = match tables {
        Some(ts) => gen.generate_tables(&ts.iter().map(|s| s.to_string()).collect::<Vec<_>>()),
        None => gen.generate(),
    };
    phases.gen_s += secs(t);
    data
}

fn add_to_oracle(oracle: Option<&mut Oracle>, data: &BTreeMap<String, Vec<Row>>) {
    if let Some(o) = oracle {
        for (table, rows) in data {
            o.add(table, rows);
        }
    }
}

/// `peers` data peers, each with `rows` lineitems of every TPC-H table
/// and the Table 4 secondary indices (the §6.1 network).
pub fn build_analytic(
    peers: usize,
    rows: usize,
    seed: u64,
    mut oracle: Option<&mut Oracle>,
) -> bestpeer::common::Result<Built> {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    let mut phases = SetupPhases::default();
    let mut ids = Vec::new();
    let mut shapes = Vec::new();
    for node in 0..peers {
        let id = net.join(&format!("business-{node}"))?;
        let cfg = TpchConfig {
            lineitem_rows: rows,
            seed,
            node_index: node as u64,
            nation: None,
        };
        let data = generate(cfg, None, &mut phases);
        add_to_oracle(oracle.as_deref_mut(), &data);
        load(
            &mut net,
            id,
            data,
            &schema::secondary_indices(),
            &mut phases,
        )?;
        ids.push(id);
        shapes.push(PeerShape {
            node_index: node as u64,
            lineitem_rows: rows,
            nation: None,
        });
    }
    Ok(Built {
        net,
        peers: ids,
        shapes,
        phases,
        nodes: Nodes::default(),
        remotes: BTreeMap::new(),
    })
}

/// One side of the supply chain.
struct Side {
    name: &'static str,
    tables: &'static [&'static str],
    indices: &'static [(&'static str, &'static str)],
    node_base: usize,
}

/// The §6.2 supply chain: `nations` suppliers (indices `0..nations`)
/// and `nations` retailers, one nation each, with range indices on the
/// nation keys. Mirrors `bestpeer_bench::throughput::build_supply_chain`
/// with both caches and the advisor at their defaults.
pub fn build_supply_chain(
    nations: usize,
    rows: usize,
    seed: u64,
    mut oracle: Option<&mut Oracle>,
) -> bestpeer::common::Result<Built> {
    let range_cols: Vec<(String, String)> = schema::all_tables()
        .iter()
        .filter_map(|t| schema::nationkey_column(&t.name).map(|c| (t.name.clone(), c.to_owned())))
        .collect();
    let config = NetworkConfig {
        range_index_columns: range_cols,
        ..NetworkConfig::default()
    };
    let mut net = BestPeerNetwork::new(schema::all_tables(), config);
    net.define_role(full_read_role());
    let mut phases = SetupPhases::default();
    let mut ids = Vec::new();
    let mut shapes = Vec::new();
    // Suppliers take node indices 0..nations, retailers the next
    // `nations`; each side hosts its own sub-schema.
    let sides = [
        Side {
            name: "supplier",
            tables: &["supplier", "partsupp", "part"],
            indices: &[("partsupp", "ps_availqty")],
            node_base: 0,
        },
        Side {
            name: "retailer",
            tables: &["lineitem", "orders", "customer"],
            indices: &[],
            node_base: nations,
        },
    ];
    for side in sides {
        for nation in 0..nations {
            let id = net.join(&format!("{}-{nation}", side.name))?;
            let cfg = TpchConfig {
                lineitem_rows: rows,
                seed,
                node_index: (side.node_base + nation) as u64,
                nation: Some(nation as i64),
            };
            let data = generate(cfg, Some(side.tables), &mut phases);
            add_to_oracle(oracle.as_deref_mut(), &data);
            load(&mut net, id, data, side.indices, &mut phases)?;
            ids.push(id);
            shapes.push(PeerShape {
                node_index: cfg.node_index,
                lineitem_rows: rows,
                nation: cfg.nation,
            });
        }
    }
    Ok(Built {
        net,
        peers: ids,
        shapes,
        phases,
        nodes: Nodes::default(),
        remotes: BTreeMap::new(),
    })
}

/// Peer id base of node `k` in the TCP workload (processes partition
/// the id space, as `bestpeer-node serve --id-base` does).
fn id_base(node: u64) -> u64 {
    node * 100
}

/// Join node `node`'s peer, loaded as `bestpeer-node serve --node-index
/// node --rows rows` loads it.
fn join_tcp_fixture(
    net: &mut BestPeerNetwork,
    node: u64,
    rows: usize,
    oracle: Option<&mut Oracle>,
    phases: &mut SetupPhases,
) -> bestpeer::common::Result<PeerId> {
    net.bootstrap_mut().set_next_peer_id(id_base(node));
    let id = net.join(&format!("business-{node}"))?;
    let data = generate(TpchConfig::tiny(node).with_rows(rows), None, phases);
    add_to_oracle(oracle, &data);
    load(net, id, data, &schema::secondary_indices(), phases)?;
    Ok(id)
}

fn tcp_fixture_shape(node: u64, rows: usize) -> PeerShape {
    PeerShape {
        node_index: node,
        lineitem_rows: rows,
        nation: None,
    }
}

/// The TCP network: peer 0 in this process, peers `1..peers` in
/// `bestpeer-node serve` children on loopback, registered through one
/// `TcpTransport` bounded to `connections` per remote.
pub fn build_tcp(
    node_bin: &Path,
    peers: usize,
    rows: usize,
    connections: usize,
) -> Result<Built, String> {
    // Spawn first: the children generate their data while this process
    // generates its own.
    let mut nodes = Nodes::default();
    for node in 1..peers as u64 {
        nodes.spawn(node_bin, node, rows)?;
    }
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    let mut phases = SetupPhases::default();
    let local =
        join_tcp_fixture(&mut net, 0, rows, None, &mut phases).map_err(|e| e.to_string())?;
    let transport = TcpTransport::with_config(TcpConfig {
        max_idle_per_remote: connections,
        max_in_flight_per_remote: connections,
        ..TcpConfig::default()
    });
    let mut peers_out = vec![local];
    let mut remotes = BTreeMap::new();
    let mut inventories = Vec::new();
    for addr in nodes.addrs()? {
        match transport.call(&addr, &Request::Inventory) {
            Ok(Response::Inventory {
                peer,
                load_ts,
                entries,
            }) => inventories.push((PeerId::new(peer), addr, load_ts, entries)),
            Ok(other) => return Err(format!("unexpected inventory reply {other:?}")),
            Err(e) => return Err(format!("inventory from {addr}: {e}")),
        }
    }
    net.set_transport(Arc::new(transport));
    for (peer, addr, load_ts, entries) in inventories {
        let entries = decode_entries(&entries).map_err(|e| e.to_string())?;
        net.register_remote_peer(peer, addr.clone(), load_ts, entries)
            .map_err(|e| e.to_string())?;
        peers_out.push(peer);
        remotes.insert(peer, addr);
    }
    Ok(Built {
        net,
        peers: peers_out,
        shapes: (0..peers as u64)
            .map(|n| tcp_fixture_shape(n, rows))
            .collect(),
        phases,
        nodes,
        remotes,
    })
}

/// The TCP workload's all-in-process twin: the same `peers` fixtures in
/// one network, the reference every TCP answer must equal exactly.
pub fn build_tcp_twin(
    peers: usize,
    rows: usize,
    oracle: &mut Oracle,
) -> bestpeer::common::Result<BestPeerNetwork> {
    let mut net = BestPeerNetwork::new(schema::all_tables(), NetworkConfig::default());
    net.define_role(full_read_role());
    let mut phases = SetupPhases::default();
    for node in 0..peers as u64 {
        join_tcp_fixture(&mut net, node, rows, Some(oracle), &mut phases)?;
    }
    Ok(net)
}

/// One `bestpeer-node serve` child.
struct Node {
    child: Child,
    addr: String,
    /// The child's stdout: its first line announces the address; kept
    /// open afterwards so the child never writes into a closed pipe.
    stdout: Lines<BufReader<ChildStdout>>,
}

/// Child processes, killed and reaped when dropped — on every exit
/// path of the benchmark, unwinding panics included.
#[derive(Default)]
pub struct Nodes(Vec<Node>);

impl Nodes {
    /// Spawn `bestpeer-node serve` for fixture `node` on an ephemeral
    /// loopback port; [`Nodes::addrs`] waits for its address.
    fn spawn(&mut self, bin: &Path, node: u64, rows: usize) -> Result<(), String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--node-index",
                &node.to_string(),
                "--id-base",
                &id_base(node).to_string(),
                "--rows",
                &rows.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        self.0.push(Node {
            child,
            addr: String::new(),
            stdout: BufReader::new(stdout).lines(),
        });
        Ok(())
    }

    /// Listen addresses in spawn order, read from each child's
    /// `LISTENING` line.
    fn addrs(&mut self) -> Result<Vec<String>, String> {
        for n in &mut self.0 {
            if !n.addr.is_empty() {
                continue;
            }
            let line = n
                .stdout
                .next()
                .ok_or("bestpeer-node exited before announcing its port")?
                .map_err(|e| format!("read LISTENING line: {e}"))?;
            n.addr = line
                .strip_prefix("LISTENING ")
                .and_then(|rest| rest.split_whitespace().next())
                .ok_or_else(|| format!("unexpected first line from bestpeer-node: {line}"))?
                .to_string();
        }
        Ok(self.0.iter().map(|n| n.addr.clone()).collect())
    }

    /// The children's CPU clocks.
    pub fn cpu_clocks(&self) -> Vec<CpuClock> {
        self.0
            .iter()
            .filter_map(|n| CpuClock::of_process(n.child.id()).ok())
            .collect()
    }

    /// Summed `VmHWM` of the live children, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.0
            .iter()
            .map(|n| peak_rss_mb(&format!("/proc/{}/status", n.child.id())))
            .sum()
    }

    /// Ask each child to shut down, then kill and reap them all.
    pub fn stop(&mut self) {
        let admin = TcpTransport::new();
        for n in self.0.iter().filter(|n| !n.addr.is_empty()) {
            let _ = admin.call(&n.addr, &Request::Shutdown);
        }
        for mut n in self.0.drain(..) {
            let _ = n.child.kill();
            let _ = n.child.wait();
        }
    }
}

impl Drop for Nodes {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in
/// MiB; 0 when it cannot be read.
pub fn peak_rss_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
