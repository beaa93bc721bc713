//! The answer oracle: a centralized copy of every row the workload
//! loads or writes, and a hand-written evaluator per query shape. It
//! shares no planning or execution code with the system under test:
//! joins are hash lookups over plain row vectors, aggregates are sums
//! in a map.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

use bestpeer::common::{Row, Value};
use bestpeer::tpch::schema;

use crate::gen::{Query, Q1_COMMIT_LAG};

/// Relative tolerance for floating-point aggregates, whose summation
/// order differs between a distributed plan and this oracle.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// All rows of the workload's tables, in one place.
#[derive(Debug, Default, Clone)]
pub struct Oracle {
    tables: BTreeMap<String, Vec<Row>>,
}

/// Column position by name.
fn col(table: &str, column: &str) -> usize {
    schema::all_tables()
        .into_iter()
        .find(|t| t.name == table)
        .unwrap_or_else(|| panic!("no table {table}"))
        .column_index(column)
        .unwrap_or_else(|e| panic!("{table}.{column}: {e}"))
}

fn int(row: &Row, i: usize) -> i64 {
    match row.get(i) {
        Value::Int(v) => *v,
        other => panic!("expected an integer, found {other:?}"),
    }
}

fn float(row: &Row, i: usize) -> f64 {
    match row.get(i) {
        Value::Float(v) => *v,
        Value::Int(v) => *v as f64,
        other => panic!("expected a number, found {other:?}"),
    }
}

fn day(row: &Row, i: usize) -> i32 {
    match row.get(i) {
        Value::Date(d) => *d,
        other => panic!("expected a date, found {other:?}"),
    }
}

impl Oracle {
    /// Append `rows` to `table`.
    pub fn add(&mut self, table: &str, rows: &[Row]) {
        self.tables
            .entry(table.to_string())
            .or_default()
            .extend_from_slice(rows);
    }

    fn rows(&self, table: &str) -> &[Row] {
        self.tables.get(table).map_or(&[], Vec::as_slice)
    }

    /// The expected answer of `q`, in no particular order.
    pub fn answer(&self, q: &Query) -> Vec<Row> {
        match *q {
            Query::Q1 { ship_after } => self.q1(ship_after),
            Query::Q2 { ship_after } => self.q2(ship_after),
            Query::Q3 { order_after } => self.q3(order_after),
            Query::Q4 { size_below } => self.q4(size_below),
            Query::Q5 { order_after } => self.q5(order_after),
            Query::Supplier { nation } => self.supplier(nation),
            Query::Retailer { nation } => self.retailer(nation),
        }
    }

    fn q1(&self, ship_after: i32) -> Vec<Row> {
        let ship = col("lineitem", "l_shipdate");
        let commit = col("lineitem", "l_commitdate");
        let out: Vec<usize> = [
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_linenumber",
            "l_quantity",
            "l_extendedprice",
        ]
        .iter()
        .map(|c| col("lineitem", c))
        .collect();
        self.rows("lineitem")
            .iter()
            .filter(|r| day(r, ship) > ship_after && day(r, commit) > ship_after - Q1_COMMIT_LAG)
            .map(|r| Row::new(out.iter().map(|&i| r.get(i).clone()).collect()))
            .collect()
    }

    /// `l_extendedprice * (1 - l_discount)` as a closure over one row.
    fn revenue() -> impl Fn(&Row) -> f64 {
        let price = col("lineitem", "l_extendedprice");
        let disc = col("lineitem", "l_discount");
        move |r| float(r, price) * (1.0 - float(r, disc))
    }

    fn q2(&self, ship_after: i32) -> Vec<Row> {
        let ship = col("lineitem", "l_shipdate");
        let sum: f64 = self
            .rows("lineitem")
            .iter()
            .filter(|r| day(r, ship) > ship_after)
            .map(Self::revenue())
            .sum();
        vec![Row::new(vec![Value::Float(sum)])]
    }

    fn q3(&self, order_after: i32) -> Vec<Row> {
        let okey = col("orders", "o_orderkey");
        let odate = col("orders", "o_orderdate");
        let dates: HashMap<i64, i32> = self
            .rows("orders")
            .iter()
            .filter(|r| day(r, odate) > order_after)
            .map(|r| (int(r, okey), day(r, odate)))
            .collect();
        let lkey = col("lineitem", "l_orderkey");
        let qty = col("lineitem", "l_quantity");
        let price = col("lineitem", "l_extendedprice");
        self.rows("lineitem")
            .iter()
            .filter_map(|r| {
                let d = dates.get(&int(r, lkey))?;
                Some(Row::new(vec![
                    r.get(lkey).clone(),
                    Value::Date(*d),
                    r.get(qty).clone(),
                    r.get(price).clone(),
                ]))
            })
            .collect()
    }

    fn q4(&self, size_below: i64) -> Vec<Row> {
        let pkey = col("part", "p_partkey");
        let size = col("part", "p_size");
        let ptype = col("part", "p_type");
        let types: HashMap<i64, Value> = self
            .rows("part")
            .iter()
            .filter(|r| int(r, size) < size_below)
            .map(|r| (int(r, pkey), r.get(ptype).clone()))
            .collect();
        let pskey = col("partsupp", "ps_partkey");
        let cost = col("partsupp", "ps_supplycost");
        let avail = col("partsupp", "ps_availqty");
        let mut groups: HashMap<String, (Value, f64, i64)> = HashMap::new();
        for r in self.rows("partsupp") {
            if let Some(t) = types.get(&int(r, pskey)) {
                let g = groups
                    .entry(t.to_string())
                    .or_insert_with(|| (t.clone(), 0.0, 0));
                g.1 += float(r, cost) * float(r, avail);
                g.2 += 1;
            }
        }
        groups
            .into_values()
            .map(|(t, sum, n)| Row::new(vec![t, Value::Float(sum), Value::Int(n)]))
            .collect()
    }

    fn q5(&self, order_after: i32) -> Vec<Row> {
        let ckey = col("customer", "c_custkey");
        let seg = col("customer", "c_mktsegment");
        let segments: HashMap<i64, Value> = self
            .rows("customer")
            .iter()
            .map(|r| (int(r, ckey), r.get(seg).clone()))
            .collect();
        let okey = col("orders", "o_orderkey");
        let ocust = col("orders", "o_custkey");
        let odate = col("orders", "o_orderdate");
        let order_cust: HashMap<i64, i64> = self
            .rows("orders")
            .iter()
            .filter(|r| day(r, odate) > order_after)
            .map(|r| (int(r, okey), int(r, ocust)))
            .collect();
        let skey = col("supplier", "s_suppkey");
        let suppliers: HashSet<i64> = self.rows("supplier").iter().map(|r| int(r, skey)).collect();
        let lkey = col("lineitem", "l_orderkey");
        let lsupp = col("lineitem", "l_suppkey");
        let revenue = Self::revenue();
        let mut groups: HashMap<String, (Value, f64, i64)> = HashMap::new();
        for r in self.rows("lineitem") {
            if !suppliers.contains(&int(r, lsupp)) {
                continue;
            }
            let Some(cust) = order_cust.get(&int(r, lkey)) else {
                continue;
            };
            let Some(s) = segments.get(cust) else {
                continue;
            };
            let g = groups
                .entry(s.to_string())
                .or_insert_with(|| (s.clone(), 0.0, 0));
            g.1 += revenue(r);
            g.2 += 1;
        }
        groups
            .into_values()
            .map(|(s, sum, n)| Row::new(vec![s, Value::Float(sum), Value::Int(n)]))
            .collect()
    }

    fn supplier(&self, nation: i64) -> Vec<Row> {
        let skey = col("supplier", "s_suppkey");
        let sname = col("supplier", "s_name");
        let snation = col("supplier", "s_nationkey");
        let names: HashMap<i64, Value> = self
            .rows("supplier")
            .iter()
            .filter(|r| int(r, snation) == nation)
            .map(|r| (int(r, skey), r.get(sname).clone()))
            .collect();
        let pssupp = col("partsupp", "ps_suppkey");
        let avail = col("partsupp", "ps_availqty");
        let cost = col("partsupp", "ps_supplycost");
        let psnation = col("partsupp", "ps_nationkey");
        self.rows("partsupp")
            .iter()
            .filter(|r| int(r, avail) < 500 && int(r, psnation) == nation)
            .filter_map(|r| {
                let name = names.get(&int(r, pssupp))?;
                Some(Row::new(vec![
                    r.get(pssupp).clone(),
                    name.clone(),
                    r.get(avail).clone(),
                    r.get(cost).clone(),
                ]))
            })
            .collect()
    }

    fn retailer(&self, nation: i64) -> Vec<Row> {
        let ckey = col("customer", "c_custkey");
        let cnation = col("customer", "c_nationkey");
        let customers: HashSet<i64> = self
            .rows("customer")
            .iter()
            .filter(|r| int(r, cnation) == nation)
            .map(|r| int(r, ckey))
            .collect();
        let okey = col("orders", "o_orderkey");
        let ocust = col("orders", "o_custkey");
        let onation = col("orders", "o_nationkey");
        let order_cust: HashMap<i64, i64> = self
            .rows("orders")
            .iter()
            .filter(|r| int(r, onation) == nation && customers.contains(&int(r, ocust)))
            .map(|r| (int(r, okey), int(r, ocust)))
            .collect();
        let lkey = col("lineitem", "l_orderkey");
        let lnation = col("lineitem", "l_nationkey");
        let revenue = Self::revenue();
        let mut groups: BTreeMap<i64, f64> = BTreeMap::new();
        for r in self.rows("lineitem") {
            if int(r, lnation) != nation {
                continue;
            }
            if let Some(cust) = order_cust.get(&int(r, lkey)) {
                *groups.entry(*cust).or_default() += revenue(r);
            }
        }
        groups
            .into_iter()
            .map(|(c, sum)| Row::new(vec![Value::Int(c), Value::Float(sum)]))
            .collect()
    }
}

/// A total order on values for canonical sorting: by type, then value
/// (floats by `total_cmp`).
fn cmp_value(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
            Value::Date(_) => 3,
        }
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Date(x), Value::Date(y)) => x.cmp(y),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            float_of(a).total_cmp(&float_of(b))
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

fn float_of(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

fn cmp_row(a: &Row, b: &Row) -> Ordering {
    a.values()
        .iter()
        .zip(b.values())
        .map(|(x, y)| cmp_value(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.arity().cmp(&b.arity()))
}

/// Equal values, with numbers compared at [`FLOAT_TOLERANCE`].
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(_), Value::Int(_) | Value::Float(_)) | (Value::Int(_), Value::Float(_)) => {
            let (x, y) = (float_of(a), float_of(b));
            (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

/// Compare an answer with the oracle's rows as multisets (order-free):
/// no benchmark query has an ORDER BY.
pub fn compare(got: &[Row], want: &[Row]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} rows returned, {} expected",
            got.len(),
            want.len()
        ));
    }
    let mut got: Vec<&Row> = got.iter().collect();
    let mut want: Vec<&Row> = want.iter().collect();
    got.sort_by(|a, b| cmp_row(a, b));
    want.sort_by(|a, b| cmp_row(a, b));
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let same = g.arity() == w.arity()
            && g.values()
                .iter()
                .zip(w.values())
                .all(|(x, y)| same_value(x, y));
        if !same {
            return Err(format!("row {i}: got {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}
