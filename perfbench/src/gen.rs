//! Seeded input generators: query literals, the Zipf template sampler,
//! write batches with fresh keys, and the operation stream of each
//! workload. The benchmark's seed enters here and nowhere else; the
//! system under test only ever sees the generated SQL and rows.

use bestpeer::common::rng::Rng;
use bestpeer::common::value::days_from_civil;
use bestpeer::common::{Row, Value};
use bestpeer::core::network::EngineChoice;
use bestpeer::tpch::queries;

/// Date range of `o_orderdate` in the TPC-H generator (inclusive).
pub fn orderdate_range() -> (i32, i32) {
    (days_from_civil(1992, 1, 1), days_from_civil(1998, 8, 2))
}

/// Date range of `l_shipdate`: order date plus 1–121 days.
pub fn shipdate_range() -> (i32, i32) {
    let (lo, hi) = orderdate_range();
    (lo + 1, hi + 121)
}

/// Date range of `l_commitdate`: order date plus 30–90 days.
pub fn commitdate_range() -> (i32, i32) {
    let (lo, hi) = orderdate_range();
    (lo + 30, hi + 90)
}

/// Range of `p_size`.
pub const PART_SIZE_RANGE: (i64, i64) = (1, 50);

/// Q1's commit-date literal trails its ship-date literal by this many
/// days, as in the paper's constants (1998-11-05 / 1998-10-01).
pub const Q1_COMMIT_LAG: i32 = 35;

/// The five analytic query shapes of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Selection on ship and commit date.
    Q1,
    /// Aggregation over a ship-date selection.
    Q2,
    /// `lineitem ⋈ orders` on an order-date selection.
    Q3,
    /// `partsupp ⋈ part` grouped by part type, on a size selection.
    Q4,
    /// Four-table join grouped by market segment.
    Q5,
}

/// The analytic kinds in round-robin order.
pub const ANALYTIC_KINDS: [QueryKind; 5] = [
    QueryKind::Q1,
    QueryKind::Q2,
    QueryKind::Q3,
    QueryKind::Q4,
    QueryKind::Q5,
];

/// The range each kind's literal is drawn from (inclusive; dates as
/// days since 1970-01-01). Each range sits inside its column's data
/// range and around the paper's constant, so every draw selects rows.
pub fn literal_range(kind: QueryKind) -> (i64, i64) {
    let d = |y, m, day| i64::from(days_from_civil(y, m, day));
    match kind {
        QueryKind::Q1 => (d(1998, 10, 20), d(1998, 11, 15)),
        QueryKind::Q2 => (d(1998, 6, 1), d(1998, 10, 1)),
        QueryKind::Q3 => (d(1998, 3, 1), d(1998, 7, 1)),
        QueryKind::Q4 => (5, 15),
        QueryKind::Q5 => (d(1995, 7, 1), d(1996, 7, 1)),
    }
}

/// One read's query: a shape and its literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Q1 with `l_shipdate > ship_after` and a commit date
    /// [`Q1_COMMIT_LAG`] days earlier.
    Q1 {
        /// Ship-date literal.
        ship_after: i32,
    },
    /// Q2 with `l_shipdate > ship_after`.
    Q2 {
        /// Ship-date literal.
        ship_after: i32,
    },
    /// Q3 with `o_orderdate > order_after`.
    Q3 {
        /// Order-date literal.
        order_after: i32,
    },
    /// Q4 with `p_size < size_below`.
    Q4 {
        /// Size literal.
        size_below: i64,
    },
    /// Q5 with `o_orderdate > order_after`.
    Q5 {
        /// Order-date literal.
        order_after: i32,
    },
    /// The §6.2 supplier query for one nation.
    Supplier {
        /// Nation key.
        nation: i64,
    },
    /// The §6.2 retailer query for one nation.
    Retailer {
        /// Nation key.
        nation: i64,
    },
}

fn date(d: i32) -> String {
    Value::Date(d).to_string()
}

impl Query {
    /// `kind`'s literal at position `u` in `[0, 1)` of
    /// [`literal_range`].
    pub fn at(kind: QueryKind, u: f64) -> Query {
        let (lo, hi) = literal_range(kind);
        let span = (hi - lo + 1) as f64;
        let v = (lo + (u * span) as i64).min(hi);
        let day = v as i32;
        match kind {
            QueryKind::Q1 => Query::Q1 { ship_after: day },
            QueryKind::Q2 => Query::Q2 { ship_after: day },
            QueryKind::Q3 => Query::Q3 { order_after: day },
            QueryKind::Q4 => Query::Q4 { size_below: v },
            QueryKind::Q5 => Query::Q5 { order_after: day },
        }
    }

    /// True when the query reads `orders` or `lineitem`, the tables
    /// every write appends to.
    pub fn reads_written_tables(&self) -> bool {
        !matches!(self, Query::Q4 { .. } | Query::Supplier { .. })
    }

    /// The SQL text submitted to the network.
    pub fn sql(&self) -> String {
        match *self {
            Query::Q1 { ship_after } => format!(
                "SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, l_extendedprice \
                 FROM lineitem \
                 WHERE l_shipdate > DATE '{}' AND l_commitdate > DATE '{}'",
                date(ship_after),
                date(ship_after - Q1_COMMIT_LAG)
            ),
            Query::Q2 { ship_after } => format!(
                "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue \
                 FROM lineitem WHERE l_shipdate > DATE '{}'",
                date(ship_after)
            ),
            Query::Q3 { order_after } => format!(
                "SELECT l_orderkey, o_orderdate, l_quantity, l_extendedprice \
                 FROM lineitem, orders \
                 WHERE l_orderkey = o_orderkey AND o_orderdate > DATE '{}'",
                date(order_after)
            ),
            Query::Q4 { size_below } => format!(
                "SELECT p_type, SUM(ps_supplycost * ps_availqty) AS total_cost, COUNT(*) AS parts \
                 FROM partsupp, part \
                 WHERE ps_partkey = p_partkey AND p_size < {size_below} \
                 GROUP BY p_type"
            ),
            Query::Q5 { order_after } => format!(
                "SELECT c_mktsegment, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
                 COUNT(*) AS items \
                 FROM customer, orders, lineitem, supplier \
                 WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey \
                 AND o_orderdate > DATE '{}' \
                 GROUP BY c_mktsegment",
                date(order_after)
            ),
            Query::Supplier { nation } => queries::supplier_query(nation),
            Query::Retailer { nation } => queries::retailer_query(nation),
        }
    }
}

/// The golden-ratio sequence `frac(offset + i * φ)`: successive points
/// spread evenly over `[0, 1)`, so a short run already covers each
/// literal range nearly uniformly and runs with different seeds (which
/// differ only in `offset`) draw the same mix of literals.
pub fn spread_point(offset: f64, i: u64) -> f64 {
    const PHI_FRAC: f64 = 0.618_033_988_749_894_9;
    (offset + i as f64 * PHI_FRAC).fract()
}

/// Zipf distribution over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^theta`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks with skew `theta`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over no ranks");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Pin the last step so every u in [0, 1) maps to a rank.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// The cumulative distribution, one entry per rank.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// The rank that uniform draw `u` in `[0, 1)` falls on.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank(rng.random_unit())
    }
}

/// Key stride between node partitions in the TPC-H generator: node
/// `k`'s keys start at `k * KEY_STRIDE + 1`.
pub const KEY_STRIDE: i64 = 100_000_000_000;

/// Offset of written keys inside a node's stride, far above any key the
/// generator produces, so written keys never collide with loaded ones.
pub const FRESH_KEY_BASE: i64 = 50_000_000_000;

/// What a writer needs to know about one data peer's generated
/// partition to make rows that join with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerShape {
    /// The generator's node index of the peer's data.
    pub node_index: u64,
    /// `lineitem` rows the peer was loaded with.
    pub lineitem_rows: usize,
    /// The peer's pinned nation, if any.
    pub nation: Option<i64>,
}

impl PeerShape {
    fn key_offset(&self) -> i64 {
        self.node_index as i64 * KEY_STRIDE
    }

    fn customers(&self) -> i64 {
        ((self.lineitem_rows / 4) / 10).max(1) as i64
    }

    fn parts(&self) -> i64 {
        (self.lineitem_rows / 30).max(1) as i64
    }

    fn suppliers(&self) -> i64 {
        (self.lineitem_rows / 600).max(1) as i64
    }
}

/// One write: new `orders` rows and their `lineitem` rows for one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteBatch {
    /// Index of the target peer in the workload's peer list.
    pub peer: usize,
    /// New `orders` rows.
    pub orders: Vec<Row>,
    /// New `lineitem` rows, four per order.
    pub lineitems: Vec<Row>,
}

/// Makes write batches with fresh order keys. Customers, parts and
/// suppliers are drawn from the target peer's own partition, so new
/// rows join like loaded ones.
#[derive(Debug)]
pub struct WriteGen {
    rng: Rng,
    next_key: i64,
}

impl WriteGen {
    /// A generator drawing from `rng`.
    pub fn new(rng: Rng) -> WriteGen {
        WriteGen { rng, next_key: 1 }
    }

    /// A batch of `orders` new orders (with four lineitems each) for
    /// the peer at `peer` whose data has `shape`.
    pub fn batch(&mut self, peer: usize, shape: &PeerShape, orders: usize) -> WriteBatch {
        let (lo, hi) = orderdate_range();
        let base = shape.key_offset();
        let mut out = WriteBatch {
            peer,
            orders: Vec::with_capacity(orders),
            lineitems: Vec::with_capacity(orders * 4),
        };
        for _ in 0..orders {
            let orderkey = base + FRESH_KEY_BASE + self.next_key;
            self.next_key += 1;
            let r = &mut self.rng;
            let nation = shape.nation.unwrap_or_else(|| r.random_range(0..25i64));
            let orderdate = r.random_range(lo..=hi);
            let cust = base + r.random_range(0..shape.customers()) + 1;
            let status = ["O", "F", "P"][r.random_range(0..3usize)];
            out.orders.push(Row::new(vec![
                Value::Int(orderkey),
                Value::Int(cust),
                Value::str(status),
                Value::Float(r.random_range(1_000.0..500_000.0)),
                Value::Date(orderdate),
                Value::Int(nation),
            ]));
            for line in 1..=4i64 {
                let qty = r.random_range(1..=50i64);
                out.lineitems.push(Row::new(vec![
                    Value::Int(orderkey),
                    Value::Int(line),
                    Value::Int(base + r.random_range(0..shape.parts()) + 1),
                    Value::Int(base + r.random_range(0..shape.suppliers()) + 1),
                    Value::Int(qty),
                    Value::Float(qty as f64 * r.random_range(900.0..2000.0)),
                    Value::Float(r.random_range(0.0..0.10)),
                    Value::Float(r.random_range(0.0..0.08)),
                    Value::Date(orderdate + r.random_range(1..=121)),
                    Value::Date(orderdate + r.random_range(30..=90)),
                    Value::Int(nation),
                ]));
            }
        }
        out
    }
}

/// One operation of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A query submitted from the peer at index `submitter`.
    Read {
        /// Submitting peer's index in the workload's peer list.
        submitter: usize,
        /// The query.
        query: Query,
        /// The engine to run it on.
        engine: EngineChoice,
    },
    /// A logged insert followed by an index publish.
    Write(WriteBatch),
}

/// How reads are drawn.
#[derive(Debug, Clone)]
pub enum ReadMix {
    /// Round-robin over `ANALYTIC_KINDS × engines`; each kind's
    /// literals follow [`spread_point`] from a seeded offset, and
    /// submitters are drawn uniformly from `submitters`.
    Analytic {
        /// Engines to cycle through.
        engines: Vec<EngineChoice>,
        /// Peer indices allowed to submit.
        submitters: Vec<usize>,
    },
    /// Zipf over a seeded permutation of `(submitter, query)` templates,
    /// all on the Basic engine.
    Templates {
        /// The templates, most popular first.
        templates: Vec<(usize, Query)>,
        /// Rank distribution over `templates`.
        zipf: Zipf,
    },
}

/// The deterministic operation stream of one workload run.
#[derive(Debug)]
pub struct OpStream {
    rng: Rng,
    mix: ReadMix,
    writes: WriteGen,
    /// Every `write_every`-th operation is a write (0 = never).
    write_every: u64,
    /// Peers that accept writes, with their data shapes.
    writable: Vec<(usize, PeerShape)>,
    /// Orders per write batch.
    orders_per_write: usize,
    /// Per analytic kind, the seeded offset of its literal sequence.
    offsets: [f64; 5],
    issued: u64,
    reads: u64,
}

impl OpStream {
    /// A stream seeded by `seed`.
    pub fn new(
        seed: u64,
        mix: ReadMix,
        write_every: u64,
        writable: Vec<(usize, PeerShape)>,
        orders_per_write: usize,
    ) -> OpStream {
        let mut rng = Rng::seed_from_u64(seed);
        let writes = WriteGen::new(Rng::seed_from_u64(rng.next_u64()));
        let offsets = std::array::from_fn(|_| rng.random_unit());
        OpStream {
            offsets,
            rng,
            mix,
            writes,
            write_every,
            writable,
            orders_per_write,
            issued: 0,
            reads: 0,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.write_every > 0 && self.issued.is_multiple_of(self.write_every) {
            let pick = self.rng.random_range(0..self.writable.len());
            let (peer, shape) = self.writable[pick];
            return Op::Write(self.writes.batch(peer, &shape, self.orders_per_write));
        }
        let j = self.reads;
        self.reads += 1;
        match &self.mix {
            ReadMix::Analytic {
                engines,
                submitters,
            } => {
                let k = (j % 5) as usize;
                let engine = engines[((j / 5) % engines.len() as u64) as usize];
                let submitter = submitters[self.rng.random_range(0..submitters.len())];
                Op::Read {
                    submitter,
                    query: Query::at(ANALYTIC_KINDS[k], spread_point(self.offsets[k], j / 5)),
                    engine,
                }
            }
            ReadMix::Templates { templates, zipf } => {
                let (submitter, query) = templates[zipf.sample(&mut self.rng)];
                Op::Read {
                    submitter,
                    query,
                    engine: EngineChoice::Basic,
                }
            }
        }
    }
}

/// The §6.2 templates of a supply chain with `nations` suppliers (peer
/// indices `0..nations`) and `nations` retailers (`nations..2*nations`):
/// retailers send supplier queries, suppliers send retailer queries,
/// for every nation. The popularity order is seeded but alternates the
/// two sides, so every seed gets the same mix of light supplier and
/// heavy retailer queries at each rank.
pub fn supply_chain_templates(nations: usize, rng: &mut Rng) -> Vec<(usize, Query)> {
    let mut shuffle = |mut v: Vec<(usize, Query)>| {
        for i in (1..v.len()).rev() {
            let j = rng.random_range(0..=i);
            v.swap(i, j);
        }
        v
    };
    let pairs = |f: &dyn Fn(usize, i64) -> (usize, Query)| {
        (0..nations as i64)
            .flat_map(|n| (0..nations).map(move |p| (p, n)))
            .map(|(p, n)| f(p, n))
            .collect::<Vec<_>>()
    };
    let supplier = shuffle(pairs(&|r, n| (nations + r, Query::Supplier { nation: n })));
    let retailer = shuffle(pairs(&|s, n| (s, Query::Retailer { nation: n })));
    supplier
        .into_iter()
        .zip(retailer)
        .flat_map(|(a, b)| [a, b])
        .collect()
}
