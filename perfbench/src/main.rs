//! `perfbench`: closed-loop benchmark of BestPeer++'s public query and
//! write path.
//!
//! ```text
//! perfbench --workload analytic|supply-chain|analytic-tcp --seed N
//!           --seconds S --trace 0|1 [--node-bin PATH]
//! ```
//!
//! One client thread issues one operation at a time and waits for it.
//! With `--trace 0` it times `BestPeerNetwork::submit_query` and the
//! write calls, on the CPU clocks of the system under test and on the
//! wall clock, and prints the end-to-end metrics; with `--trace 1` it
//! additionally replays each Basic read's steps through the modules'
//! public functions and prints per-layer metrics. Every answer is
//! checked against the oracle outside the timed region. The last line
//! of standard output is the result as one JSON object.

mod cluster;
mod replay;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bestpeer::common::rng::Rng;
use bestpeer::common::{pool, PeerId, Row};
use bestpeer::core::network::{BestPeerNetwork, EngineChoice, QueryOutput};
use bestpeer::telemetry::QueryReport;
use bestpeer::transport::{TcpConfig, TcpTransport};

use bestpeer_perfbench::calib::Calibration;
use bestpeer_perfbench::cpu::{CpuClock, CpuMeter};
use bestpeer_perfbench::gen::{
    supply_chain_templates, Op, OpStream, Query, ReadMix, WriteBatch, Zipf,
};
use bestpeer_perfbench::oracle::{compare, Oracle};
use bestpeer_perfbench::stats::{mean, median, min_samples, percentile, ratio};
use bestpeer_perfbench::trace::{self_time_by_name, to_json_lines, Recorder};

use cluster::{Built, SetupPhases};
use replay::{replay_basic, Owners, ReplayCounts};

/// Network builds before and after the measured phase; `setup_s` is
/// the median of all of them. Building at both ends of the run samples
/// the machine's speed at two times, not one.
const SETUPS_BEFORE: usize = 11;
const SETUPS_AFTER: usize = 10;

/// Reference-kernel samples spread over the measured phase; see
/// [`bestpeer_perfbench::calib`].
const CALIBRATION_SAMPLES: u64 = 64;

/// Upper bound on one measured phase, so a stalled run still exits in
/// time.
const PHASE_CAP: Duration = Duration::from_secs(60);

/// Zipf skew of the supply-chain template popularity.
const ZIPF_THETA: f64 = 1.1;

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

/// Seed of the coin that picks which reads the traced run traces.
const TRACE_COIN_SEED: u64 = 0x7ACE;

/// Connections per remote in the TCP workload.
const TCP_CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Analytic,
    SupplyChain,
    AnalyticTcp,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "analytic" => Some(Workload::Analytic),
            "supply-chain" => Some(Workload::SupplyChain),
            "analytic-tcp" => Some(Workload::AnalyticTcp),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Analytic => "analytic",
            Workload::SupplyChain => "supply-chain",
            Workload::AnalyticTcp => "analytic-tcp",
        }
    }
}

/// Shape of one workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    /// Data peers.
    peers: usize,
    /// `lineitem` rows per data peer.
    rows: usize,
    /// Every `write_every`-th operation is a write.
    write_every: u64,
    /// New orders per write (four lineitems each).
    orders_per_write: usize,
    /// Operations run before measuring, to fill the caches. Pooled TCP
    /// connections are not warmed past their start-up: that cost is
    /// part of what `analytic-tcp` measures.
    warmup_ops: u64,
    /// Nominal operations per second of the closed loop on a 2-core
    /// machine, answer checks included. A run measures `--seconds` times
    /// this many operations: a fixed count, not a deadline, so caches,
    /// data growth and therefore every simulated figure evolve the same
    /// way on every run of a seed, whatever the machine's speed.
    ops_per_second: f64,
}

fn spec(w: Workload) -> Spec {
    match w {
        Workload::Analytic => Spec {
            peers: 8,
            rows: 2_000,
            write_every: 2,
            orders_per_write: 1,
            warmup_ops: 30,
            ops_per_second: 100.0,
        },
        Workload::SupplyChain => Spec {
            peers: 16,
            rows: 4_000,
            write_every: 20,
            orders_per_write: 2,
            warmup_ops: 400,
            ops_per_second: 300.0,
        },
        Workload::AnalyticTcp => Spec {
            peers: 3,
            rows: 2_000,
            write_every: 2,
            orders_per_write: 1,
            warmup_ops: 30,
            ops_per_second: 80.0,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        node_bin: get("--node-bin").map(PathBuf::from),
    })
}

/// Wall and CPU time of one timed call.
#[derive(Debug, Clone, Copy)]
struct Timing {
    ms: f64,
    /// CPU time of the system under test during the call.
    cpu_ms: f64,
}

/// Run `f`, timing it on the wall clock and on `cpu`.
fn timed<T>(cpu: &CpuMeter, f: impl FnOnce() -> T) -> (Timing, T) {
    let cpu0 = cpu.now_ns();
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = cpu.now_ns().saturating_sub(cpu0) as f64 / 1e6;
    (Timing { ms, cpu_ms }, out)
}

/// Per-read facts the end-to-end and per-layer metrics are built from.
struct ReadSample {
    time: Timing,
    report: QueryReport,
}

/// The closed loop's state: the network, its oracle, and the stream.
struct Harness {
    built: Built,
    oracle: Oracle,
    /// Oracle answers, dropped when a write touches their tables.
    memo: HashMap<Query, Vec<Row>>,
    /// The TCP workload's all-in-process twin and its peer ids.
    twin: Option<(BestPeerNetwork, Vec<PeerId>)>,
    stream: OpStream,
    /// CPU clocks of this process and the serving children.
    cpu: CpuMeter,
    attempted: u64,
    failures: Vec<String>,
}

impl Harness {
    fn fail(&mut self, msg: String) {
        if self.failures.len() < 5 {
            eprintln!("perfbench: wrong or failed operation: {msg}");
        }
        self.failures.push(msg);
    }

    /// Check a read's answer against the oracle (and the twin).
    fn check(&mut self, submitter: usize, query: &Query, engine: EngineChoice, out: &QueryOutput) {
        let sql = query.sql();
        let want = self
            .memo
            .entry(*query)
            .or_insert_with(|| self.oracle.answer(query));
        if let Err(e) = compare(&out.result.rows, want) {
            return self.fail(format!("{sql} on {engine:?}: {e}"));
        }
        if let Some((twin, ids)) = &mut self.twin {
            match twin.submit_query(ids[submitter], &sql, "R", engine, 0) {
                Ok(t) if t.result.digest() == out.result.digest() => {}
                Ok(_) => self.fail(format!(
                    "{sql} on {engine:?}: differs from in-process answer"
                )),
                Err(e) => self.fail(format!("{sql} on {engine:?}: in-process twin failed: {e}")),
            }
        }
    }

    /// One read; `None` when it failed.
    fn read(
        &mut self,
        submitter: usize,
        query: Query,
        engine: EngineChoice,
        trace: Option<&mut Tracing>,
    ) -> Option<ReadSample> {
        self.attempted += 1;
        let sql = query.sql();
        let id = self.built.peers[submitter];
        let out = match trace {
            None => {
                let net = &mut self.built.net;
                let (time, out) = timed(&self.cpu, || net.submit_query(id, &sql, "R", engine, 0));
                out.map(|o| (time, o))
            }
            Some(tr) => tr.read(&mut self.built, &self.cpu, id, &sql, engine),
        };
        match out {
            Ok((time, out)) => {
                self.check(submitter, &query, engine, &out);
                Some(ReadSample {
                    time,
                    report: out.report,
                })
            }
            Err(e) => {
                self.fail(format!("{sql} on {engine:?}: {e}"));
                None
            }
        }
    }

    /// One write; its timing, `None` when it failed.
    fn write(&mut self, batch: WriteBatch, trace: Option<&mut Tracing>) -> Option<Timing> {
        self.attempted += 1;
        let id = self.built.peers[batch.peer];
        let (orders, lineitems) = (batch.orders.clone(), batch.lineitems.clone());
        let net = &mut self.built.net;
        let res = match trace {
            None => {
                let (time, res) = timed(&self.cpu, || apply_write(net, id, orders, lineitems));
                res.map(|_| time)
            }
            Some(tr) => tr.write(net, &self.cpu, id, orders, lineitems),
        };
        self.oracle.add("orders", &batch.orders);
        self.oracle.add("lineitem", &batch.lineitems);
        self.memo.retain(|q, _| !q.reads_written_tables());
        if let Some((twin, ids)) = &mut self.twin {
            let mirrored = apply_write(
                twin,
                ids[batch.peer],
                batch.orders.clone(),
                batch.lineitems.clone(),
            );
            if let Err(e) = mirrored {
                self.fail(format!("twin write: {e}"));
            }
        }
        match res {
            Ok(time) => Some(time),
            Err(e) => {
                self.fail(format!("write at peer {id}: {e}"));
                None
            }
        }
    }
}

/// The write path: logged inserts of the new orders and lineitems,
/// then the index publish. Returns the publish's overlay hops.
fn apply_write(
    net: &mut BestPeerNetwork,
    id: PeerId,
    orders: Vec<Row>,
    lineitems: Vec<Row>,
) -> bestpeer::common::Result<u32> {
    let db = &mut net.peer_mut(id)?.db;
    db.bulk_insert("orders", orders)?;
    db.bulk_insert("lineitem", lineitems)?;
    net.publish_indices(id)
}

/// Samples of one measured phase.
#[derive(Default)]
struct Phase {
    reads: Vec<ReadSample>,
    writes: Vec<Timing>,
    /// Every operation's timing, reads and writes, in issue order.
    ops: Vec<Timing>,
    /// With tracing on: latencies of the reads that ran untraced.
    untraced_read_ms: Vec<f64>,
}

/// Run the next `ops` operations of the stream. With `trace`, every
/// write and half the reads are traced; the untraced reads, drawn from
/// the same stretch of the run, give the tracing overhead. A coin, not
/// strict alternation, picks the half: the read mix cycles with an even
/// period on `analytic-tcp`, so alternation would trace only some of
/// its query shapes. With `calib`, the reference kernel runs between
/// operations, [`CALIBRATION_SAMPLES`] times over the phase.
fn run_phase(
    h: &mut Harness,
    ops: u64,
    mut trace: Option<&mut Tracing>,
    mut calib: Option<&mut Calibration>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut coin = Rng::seed_from_u64(TRACE_COIN_SEED);
    let calibrate_every = ops.div_ceil(CALIBRATION_SAMPLES).max(1);
    for done in 0..ops {
        if start.elapsed() > PHASE_CAP {
            return Err(format!("phase cap hit after {done} of {ops} operations"));
        }
        if done % calibrate_every == 0 {
            if let Some(calib) = calib.as_deref_mut() {
                calib.sample();
            }
        }
        match h.stream.next_op() {
            Op::Read {
                submitter,
                query,
                engine,
            } => {
                if trace.is_some() && coin.next_u64().is_multiple_of(2) {
                    if let Some(r) = h.read(submitter, query, engine, None) {
                        phase.untraced_read_ms.push(r.time.ms);
                    }
                } else if let Some(r) = h.read(submitter, query, engine, trace.as_deref_mut()) {
                    phase.ops.push(r.time);
                    phase.reads.push(r);
                }
            }
            Op::Write(batch) => {
                if let Some(time) = h.write(batch, trace.as_deref_mut()) {
                    phase.ops.push(time);
                    phase.writes.push(time);
                }
            }
        }
    }
    Ok(phase)
}

/// Span recording and counters of the traced run.
struct Tracing {
    rec: Recorder,
    op: u64,
    /// The benchmark's own transport to remote owners.
    transport: TcpTransport,
    replays: u64,
    counts: ReplayCounts,
    unattributed_us: Vec<f64>,
    submit_us: BTreeMap<&'static str, Vec<f64>>,
    pool_tasks: u64,
    pool_busy_ns: u64,
    writes: u64,
    publish_hops: u64,
    wal_fsyncs: u64,
    wal_bytes: u64,
}

fn engine_span(engine: EngineChoice) -> &'static str {
    match engine {
        EngineChoice::Basic => "core.submit.basic",
        EngineChoice::ParallelP2P => "core.submit.parallel-p2p",
        EngineChoice::MapReduce => "core.submit.mapreduce",
        EngineChoice::Adaptive => "core.submit.adaptive",
    }
}

impl Tracing {
    fn new() -> Tracing {
        Tracing {
            rec: Recorder::default(),
            op: 0,
            transport: TcpTransport::with_config(TcpConfig {
                max_idle_per_remote: TCP_CONNECTIONS,
                max_in_flight_per_remote: TCP_CONNECTIONS,
                ..TcpConfig::default()
            }),
            replays: 0,
            counts: ReplayCounts::default(),
            unattributed_us: Vec::new(),
            submit_us: BTreeMap::new(),
            pool_tasks: 0,
            pool_busy_ns: 0,
            writes: 0,
            publish_hops: 0,
            wal_fsyncs: 0,
            wal_bytes: 0,
        }
    }

    fn read(
        &mut self,
        built: &mut Built,
        cpu: &CpuMeter,
        id: PeerId,
        sql: &str,
        engine: EngineChoice,
    ) -> bestpeer::common::Result<(Timing, QueryOutput)> {
        self.op += 1;
        let op = self.op;
        let root = self.rec.begin(op, None, "op.read");
        // Pool work of the previous replay must not count toward this
        // read: the network folds the pool's counters into its registry
        // after each engine run.
        pool::drain_counters();
        let m = built.net.metrics();
        let (tasks0, busy0) = (m.counter("pool.tasks"), m.counter("pool.busy_ns"));
        let span = self.rec.begin(op, Some(root), engine_span(engine));
        let net = &mut built.net;
        let (time, out) = timed(cpu, || net.submit_query(id, sql, "R", engine, 0));
        let ms = time.ms;
        self.rec.end(span);
        let out = out?;
        let m = built.net.metrics();
        self.pool_tasks += m.counter("pool.tasks") - tasks0;
        self.pool_busy_ns += m.counter("pool.busy_ns") - busy0;
        self.submit_us
            .entry(engine_span(engine))
            .or_default()
            .push(ms * 1e3);
        if engine == EngineChoice::Basic {
            let r = &out.report;
            let warm = r.cache_hits > 0 && r.cache_misses == 0;
            let replay = self.rec.begin(op, Some(root), "replay");
            let owners = Owners {
                remotes: &built.remotes,
                transport: &self.transport,
            };
            let counts = replay_basic(
                &mut self.rec,
                op,
                replay,
                &mut built.net,
                &owners,
                id,
                sql,
                warm,
                &out.trace,
            )?;
            self.rec.end(replay);
            self.replays += 1;
            let c = &mut self.counts;
            c.rows_scanned += counts.rows_scanned;
            c.rows_out += counts.rows_out;
            c.codec_bytes += counts.codec_bytes;
            c.remote_calls += counts.remote_calls;
            c.remote_bytes += counts.remote_bytes;
            self.unattributed_us
                .push(ms * 1e3 - counts.attributed_ns as f64 / 1e3);
        }
        self.rec.end(root);
        Ok((time, out))
    }

    fn write(
        &mut self,
        net: &mut BestPeerNetwork,
        cpu: &CpuMeter,
        id: PeerId,
        orders: Vec<Row>,
        lineitems: Vec<Row>,
    ) -> bestpeer::common::Result<Timing> {
        self.op += 1;
        let op = self.op;
        let root = self.rec.begin(op, None, "op.write");
        let (time, hops) = timed(cpu, || {
            self.rec.time(op, Some(root), "storage.insert", || {
                let db = &mut net.peer_mut(id)?.db;
                db.bulk_insert("orders", orders)?;
                db.bulk_insert("lineitem", lineitems)
            })?;
            self.rec
                .time(op, Some(root), "core.publish", || net.publish_indices(id))
        });
        let hops = hops?;
        self.rec.end(root);
        // Reads append nothing to the log, so what the peer's WAL holds
        // undrained is exactly this write.
        if let Some(w) = net.peer_mut(id)?.db.drain_wal_stats() {
            self.wal_fsyncs += w.fsyncs;
            self.wal_bytes += w.bytes;
        }
        self.writes += 1;
        self.publish_hops += u64::from(hops);
        Ok(time)
    }
}

/// One build of the workload's network; the oracle, when given, is
/// filled with every generated row.
fn build(args: &Args, spec: &Spec, oracle: Option<&mut Oracle>) -> Result<Built, String> {
    match args.workload {
        Workload::Analytic => cluster::build_analytic(spec.peers, spec.rows, args.seed, oracle)
            .map_err(|e| e.to_string()),
        Workload::SupplyChain => {
            cluster::build_supply_chain(spec.peers / 2, spec.rows, args.seed, oracle)
                .map_err(|e| e.to_string())
        }
        Workload::AnalyticTcp => {
            let bin = args
                .node_bin
                .as_deref()
                .ok_or("analytic-tcp needs --node-bin")?;
            cluster::build_tcp(bin, spec.peers, spec.rows, TCP_CONNECTIONS)
        }
    }
}

/// Set-up timings: total seconds and phase split of each build.
#[derive(Default)]
struct SetupTimes {
    /// Wall seconds of each build.
    total: Vec<f64>,
    /// CPU seconds of each build: this process plus the children.
    cpu: Vec<f64>,
    phases: Vec<SetupPhases>,
}

impl SetupTimes {
    /// Build `times` networks, each torn down before the next is timed,
    /// and keep the last; the oracle, when given, is filled by the last.
    fn build(
        &mut self,
        args: &Args,
        spec: &Spec,
        times: usize,
        mut oracle: Option<&mut Oracle>,
    ) -> Result<Built, String> {
        let mut last: Option<Built> = None;
        for i in 0..times {
            drop(last.take());
            let fill = if i + 1 == times { oracle.take() } else { None };
            let (time, built) = timed(&CpuMeter::new(vec![CpuClock::this_process()]), || {
                build(args, spec, fill)
            });
            let built = built?;
            // The children started inside the build: all their CPU time
            // so far is set-up.
            let children_ns = CpuMeter::new(built.nodes.cpu_clocks()).now_ns();
            self.total.push(time.ms / 1e3);
            self.cpu
                .push((time.cpu_ms + children_ns as f64 / 1e6) / 1e3);
            self.phases.push(built.phases);
            last = Some(built);
        }
        last.ok_or_else(|| "no build requested".to_string())
    }
}

fn op_stream(args: &Args, spec: &Spec, built: &Built) -> OpStream {
    let writable: Vec<_> = match args.workload {
        // Only the in-process peer accepts writes over the public API.
        Workload::AnalyticTcp => vec![(0, built.shapes[0])],
        // Writes land at retailers (the second half of the peers).
        Workload::SupplyChain => (spec.peers / 2..spec.peers)
            .map(|i| (i, built.shapes[i]))
            .collect(),
        Workload::Analytic => built.shapes.iter().copied().enumerate().collect(),
    };
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x5EED_CAFE);
    let mix = match args.workload {
        Workload::Analytic => ReadMix::Analytic {
            engines: vec![
                EngineChoice::Basic,
                EngineChoice::ParallelP2P,
                EngineChoice::MapReduce,
            ],
            submitters: (0..spec.peers).collect(),
        },
        Workload::AnalyticTcp => ReadMix::Analytic {
            engines: vec![EngineChoice::Basic, EngineChoice::ParallelP2P],
            submitters: vec![0],
        },
        Workload::SupplyChain => {
            let templates = supply_chain_templates(spec.peers / 2, &mut rng);
            let zipf = Zipf::new(templates.len(), ZIPF_THETA);
            ReadMix::Templates { templates, zipf }
        }
    };
    OpStream::new(
        rng.next_u64(),
        mix,
        spec.write_every,
        writable,
        spec.orders_per_write,
    )
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Throughput and latency figures of one clock, `ms` (wall) or
/// `cpu_ms`, over the whole measured phase: operations per second of
/// the clock, then the read and write p50 and p95.
fn latency_figures(phase: &Phase, clock: fn(&Timing) -> f64) -> [f64; 5] {
    let reads: Vec<f64> = phase.reads.iter().map(|r| clock(&r.time)).collect();
    let writes: Vec<f64> = phase.writes.iter().map(clock).collect();
    let total_ms: f64 = phase.ops.iter().map(clock).sum();
    [
        phase.ops.len() as f64 * 1e3 / total_ms,
        median(&reads),
        percentile(&reads, 0.95),
        median(&writes),
        percentile(&writes, 0.95),
    ]
}

/// End-to-end metrics of the measured phase: the gated ones, on CPU
/// time multiplied by `scale` (the run's [`Calibration::scale`]), and
/// the wall-clock ones, which are only printed (see README).
fn end_to_end(phase: &Phase, built: &Built, scale: f64) -> (Metrics, Metrics) {
    let sim: Vec<f64> = phase
        .reads
        .iter()
        .map(|r| r.report.total_latency.as_secs_f64())
        .collect();
    let [ops_per_cpu_s, q50, q95, w50, w95] = latency_figures(phase, |t| t.cpu_ms);
    let gated = vec![
        ("ops_per_cpu_s", ops_per_cpu_s / scale, "1/s"),
        ("query_cpu_ms_p50", q50 * scale, "ms"),
        ("query_cpu_ms_p95", q95 * scale, "ms"),
        ("write_cpu_ms_p50", w50 * scale, "ms"),
        ("write_cpu_ms_p95", w95 * scale, "ms"),
        ("sim_query_s_mean", mean(&sim), "sim_s"),
        // The benchmark process (which also holds the oracle and, for
        // analytic-tcp, the in-process twin) plus the serving children.
        (
            "peak_rss_mb",
            cluster::peak_rss_mb("/proc/self/status") + built.nodes.peak_rss_mb(),
            "MiB",
        ),
    ];
    let [qps, q50, q95, w50, w95] = latency_figures(phase, |t| t.ms);
    let wall = vec![
        ("qps", qps, "1/s"),
        ("query_ms_p50", q50, "ms"),
        ("query_ms_p95", q95, "ms"),
        ("write_ms_p50", w50, "ms"),
        ("write_ms_p95", w95, "ms"),
    ];
    (gated, wall)
}

fn per_layer(tr: &Tracing, traced: &Phase) -> Metrics {
    let by_name = self_time_by_name(tr.rec.spans());
    let replays = tr.replays as f64;
    let per_replay_us = |name: &str| {
        ratio(
            by_name.get(name).map_or(0, |&(_, ns)| ns) as f64 / 1e3,
            replays,
        )
    };
    let reads = traced.reads.len() as f64;
    let sum = |f: &dyn Fn(&ReadSample) -> u64| traced.reads.iter().map(f).sum::<u64>() as f64;
    let rc_hits = sum(&|r| r.report.cache_hits);
    let rc_misses = sum(&|r| r.report.cache_misses);
    let ic_hits = sum(&|r| r.report.index_cache_hits);
    let ic_misses = sum(&|r| r.report.index_cache_misses);
    let submit = |name: &str| tr.submit_us.get(name).map_or(0.0, |v| mean(v));
    let writes = tr.writes as f64;
    let per_write_us = |name: &str| {
        ratio(
            by_name.get(name).map_or(0, |&(_, ns)| ns) as f64 / 1e3,
            writes,
        )
    };
    let traced_ms: Vec<f64> = traced.reads.iter().map(|r| r.time.ms).collect();
    let c = &tr.counts;
    vec![
        ("sql.parse_us", per_replay_us("sql.parse"), "us"),
        ("sql.plan_us", per_replay_us("sql.plan"), "us"),
        ("core.locate_us", per_replay_us("core.locate"), "us"),
        (
            "baton.hops_per_read",
            ratio(sum(&|r| r.report.overlay_hops), reads),
            "count",
        ),
        (
            "core.advisor.hit_ratio",
            ratio(sum(&|r| u64::from(r.report.advisor_hit)), reads),
            "ratio",
        ),
        (
            "core.rescache.hit_ratio",
            ratio(rc_hits, rc_hits + rc_misses),
            "ratio",
        ),
        (
            "core.index_cache.hit_ratio",
            ratio(ic_hits, ic_hits + ic_misses),
            "ratio",
        ),
        ("core.precheck_us", per_replay_us("core.precheck"), "us"),
        ("core.serve_exec_us", per_replay_us("core.serve_exec"), "us"),
        (
            "sql.rows_scanned_per_read",
            ratio(c.rows_scanned as f64, replays),
            "count",
        ),
        (
            "sql.rows_out_per_read",
            ratio(c.rows_out as f64, replays),
            "count",
        ),
        ("common.codec_us", per_replay_us("common.codec"), "us"),
        (
            "common.codec_bytes_per_read",
            ratio(c.codec_bytes as f64, replays),
            "B",
        ),
        ("storage.stage_us", per_replay_us("storage.stage"), "us"),
        ("sql.process_us", per_replay_us("sql.process"), "us"),
        (
            "common.pool.tasks_per_read",
            ratio(tr.pool_tasks as f64, reads),
            "count",
        ),
        (
            "common.pool.busy_ms_per_read",
            ratio(tr.pool_busy_ns as f64 / 1e6, reads),
            "ms",
        ),
        ("common.pool.workers", pool::thread_count() as f64, "count"),
        ("core.submit_us.basic", submit("core.submit.basic"), "us"),
        (
            "core.submit_us.parallel-p2p",
            submit("core.submit.parallel-p2p"),
            "us",
        ),
        (
            "core.submit_us.mapreduce",
            submit("core.submit.mapreduce"),
            "us",
        ),
        ("core.unattributed_us", mean(&tr.unattributed_us), "us"),
        (
            "telemetry.report_us",
            per_replay_us("telemetry.report"),
            "us",
        ),
        ("storage.insert_us", per_write_us("storage.insert"), "us"),
        (
            "storage.wal_fsyncs_per_write",
            ratio(tr.wal_fsyncs as f64, writes),
            "count",
        ),
        (
            "storage.wal_bytes_per_write",
            ratio(tr.wal_bytes as f64, writes),
            "B",
        ),
        ("core.publish_us", per_write_us("core.publish"), "us"),
        (
            "baton.publish_hops_per_write",
            ratio(tr.publish_hops as f64, writes),
            "count",
        ),
        (
            "transport.rtt_us",
            ratio(
                by_name.get("transport.rtt").map_or(0, |&(_, ns)| ns) as f64 / 1e3,
                c.remote_calls as f64,
            ),
            "us",
        ),
        (
            "transport.calls_per_read",
            ratio(c.remote_calls as f64, replays),
            "count",
        ),
        (
            "transport.bytes_per_read",
            ratio(c.remote_bytes as f64, replays),
            "B",
        ),
        (
            "trace.submit_overhead_ratio",
            ratio(median(&traced_ms), median(&traced.untraced_read_ms)),
            "ratio",
        ),
    ]
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = spec(args.workload);
    let mut setup = SetupTimes::default();
    let mut oracle = Oracle::default();
    let built = setup.build(args, &spec, SETUPS_BEFORE, Some(&mut oracle))?;
    let twin = if args.workload == Workload::AnalyticTcp {
        let net = cluster::build_tcp_twin(spec.peers, spec.rows, &mut oracle)
            .map_err(|e| e.to_string())?;
        Some((net, built.peers.clone()))
    } else {
        None
    };
    let stream = op_stream(args, &spec, &built);
    let mut clocks = vec![CpuClock::this_process()];
    clocks.extend(built.nodes.cpu_clocks());
    let mut h = Harness {
        built,
        oracle,
        memo: HashMap::new(),
        twin,
        stream,
        cpu: CpuMeter::new(clocks),
        attempted: 0,
        failures: Vec::new(),
    };
    run_phase(&mut h, spec.warmup_ops, None, None)?;
    let mut calib = Calibration::default();
    let ops = (args.seconds * spec.ops_per_second).round() as u64;
    let (mut metrics, wall) = if args.trace {
        let mut tr = Tracing::new();
        let traced = run_phase(&mut h, ops, Some(&mut tr), Some(&mut calib))?;
        let dir = Path::new(TRACE_DIR);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {TRACE_DIR}: {e}"))?;
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        std::fs::write(&path, to_json_lines(tr.rec.spans()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        eprintln!("perfbench: self time by span (count, total ms):");
        for (name, (count, ns)) in self_time_by_name(tr.rec.spans()) {
            eprintln!("  {name:<28} {count:>7} {:>12.3}", ns as f64 / 1e6);
        }
        (per_layer(&tr, &traced), Vec::new())
    } else {
        let phase = run_phase(&mut h, ops, None, Some(&mut calib))?;
        let min = min_samples(0.95);
        if phase.reads.len() < min || phase.writes.len() < min {
            return Err(format!(
                "{} reads and {} writes cannot support a p95; raise --seconds",
                phase.reads.len(),
                phase.writes.len()
            ));
        }
        eprintln!(
            "perfbench: measured {} reads and {} writes",
            phase.reads.len(),
            phase.writes.len()
        );
        end_to_end(&phase, &h.built, calib.scale())
    };
    let (attempted, failed) = (h.attempted, h.failures.len() as u64);
    // Tear the measured network down (children included), then build
    // again for the second set-up sample.
    drop(h);
    setup.build(args, &spec, SETUPS_AFTER, None)?;
    let setup_median =
        |f: fn(&SetupPhases) -> f64| median(&setup.phases.iter().map(f).collect::<Vec<_>>());
    if args.trace {
        metrics.extend([
            ("tpch.gen_s", setup_median(|p| p.gen_s), "s"),
            ("storage.load_s", setup_median(|p| p.load_s), "s"),
            ("storage.index_build_s", setup_median(|p| p.index_s), "s"),
            ("core.publish_s", setup_median(|p| p.publish_s), "s"),
        ]);
    } else {
        metrics.push(("setup_s", median(&setup.cpu) * calib.scale(), "s"));
    }
    eprintln!(
        "perfbench: workload={} seed={} trace={} pool_workers={} attempted={} failed_ratio={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        pool::thread_count(),
        attempted,
        ratio(failed as f64, attempted as f64)
    );
    eprintln!(
        "perfbench: reference kernel {:.3} ms (mean of {} samples); CPU times scaled by {:.4}",
        calib.kernel_ms(),
        calib.samples(),
        calib.scale()
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    if !wall.is_empty() {
        eprintln!("perfbench: wall clock (not part of the result):");
        for (name, value, unit) in wall
            .iter()
            .chain(&[("setup_wall_s", median(&setup.total), "s")])
        {
            eprintln!("  {name:<32} {value:>16.6} {unit}");
        }
    }
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
