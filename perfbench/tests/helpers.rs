//! Tests of the benchmark's own helpers: order statistics, generators,
//! the oracle comparison, span arithmetic and CPU clocks.

use bestpeer::common::rng::Rng;
use bestpeer::common::{Row, Value};
use bestpeer::core::network::EngineChoice;
use bestpeer_perfbench::calib::{reference_kernel, scale, Calibration, REFERENCE_MS, SENSITIVITY};
use bestpeer_perfbench::cpu::{CpuClock, CpuMeter};
use bestpeer_perfbench::gen::{
    commitdate_range, literal_range, orderdate_range, shipdate_range, spread_point,
    supply_chain_templates, Op, OpStream, PeerShape, Query, QueryKind, ReadMix, WriteGen, Zipf,
    ANALYTIC_KINDS, FRESH_KEY_BASE, KEY_STRIDE, PART_SIZE_RANGE, Q1_COMMIT_LAG,
};
use bestpeer_perfbench::oracle::{compare, Oracle};
use bestpeer_perfbench::stats::{beyond, median, min_samples, nearest_rank, percentile, supports};
use bestpeer_perfbench::trace::{self_time_by_name, self_times, Recorder, Span};

#[test]
fn nearest_rank_percentiles() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), 50.0);
    assert_eq!(percentile(&samples, 0.95), 95.0);
    assert_eq!(percentile(&samples, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.95), 7.0);
    assert_eq!(nearest_rank(200, 0.95), 190);
    assert_eq!(nearest_rank(201, 0.95), 191);
    assert_eq!(nearest_rank(3, 0.01), 1);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn percentile_guard_needs_ten_beyond() {
    assert_eq!(beyond(200, 0.95), 10);
    assert_eq!(beyond(199, 0.95), 9);
    assert!(supports(200, 0.95));
    assert!(!supports(199, 0.95));
    assert!(!supports(0, 0.95));
    assert_eq!(min_samples(0.95), 200);
    assert_eq!(min_samples(0.5), 20);
}

#[test]
fn zipf_cdf_is_a_distribution_with_the_right_skew() {
    let theta = 1.1;
    let z = Zipf::new(128, theta);
    let cdf = z.cdf();
    assert_eq!(cdf.len(), 128);
    assert!(cdf.windows(2).all(|w| w[0] < w[1]), "cdf must increase");
    assert_eq!(*cdf.last().unwrap(), 1.0);
    let p0 = cdf[0];
    let p1 = cdf[1] - cdf[0];
    assert!((p0 / p1 - 2f64.powf(theta)).abs() < 1e-9);
    assert_eq!(z.rank(0.0), 0);
    assert_eq!(z.rank(p0 - 1e-12), 0);
    assert_eq!(z.rank(p0), 1);
    assert_eq!(z.rank(0.999_999_999), 127);

    let mut rng = Rng::seed_from_u64(7);
    let n = 100_000;
    let top = (0..n).filter(|_| z.sample(&mut rng) == 0).count();
    let share = top as f64 / n as f64;
    assert!(
        (share - p0).abs() < 0.01,
        "rank 0 drawn {share}, expected {p0}"
    );
}

#[test]
fn literals_stay_inside_their_columns_data() {
    let (ship_lo, ship_hi) = shipdate_range();
    let (commit_lo, commit_hi) = commitdate_range();
    let (order_lo, order_hi) = orderdate_range();
    for kind in ANALYTIC_KINDS {
        let (lo, hi) = literal_range(kind);
        assert!(lo <= hi);
        let (data_lo, data_hi) = match kind {
            QueryKind::Q1 | QueryKind::Q2 => (ship_lo, ship_hi),
            QueryKind::Q3 | QueryKind::Q5 => (order_lo, order_hi),
            QueryKind::Q4 => (PART_SIZE_RANGE.0 as i32, PART_SIZE_RANGE.1 as i32),
        };
        assert!(
            lo >= i64::from(data_lo) && hi <= i64::from(data_hi),
            "{kind:?}"
        );
        assert_eq!(Query::at(kind, 0.0), Query::at(kind, 0.0));
        for i in 0..500 {
            let q = Query::at(kind, spread_point(0.37, i));
            let v = match q {
                Query::Q1 { ship_after } => {
                    let commit = ship_after - Q1_COMMIT_LAG;
                    assert!(commit >= commit_lo && commit <= commit_hi);
                    i64::from(ship_after)
                }
                Query::Q2 { ship_after } => i64::from(ship_after),
                Query::Q3 { order_after } | Query::Q5 { order_after } => i64::from(order_after),
                Query::Q4 { size_below } => size_below,
                other => panic!("unexpected {other:?}"),
            };
            assert!(
                v >= lo && v <= hi,
                "{kind:?} literal {v} outside [{lo}, {hi}]"
            );
        }
        let ends = [Query::at(kind, 0.0), Query::at(kind, 0.999_999)];
        assert_ne!(ends[0], ends[1], "{kind:?} covers its range");
    }
}

#[test]
fn spread_points_cover_the_unit_interval_evenly() {
    let mut buckets = [0u32; 10];
    for i in 0..1000 {
        let u = spread_point(0.5, i);
        assert!((0.0..1.0).contains(&u));
        buckets[(u * 10.0) as usize] += 1;
    }
    assert!(
        buckets.iter().all(|&b| (95..=105).contains(&b)),
        "{buckets:?}"
    );
}

#[test]
fn write_batches_use_fresh_keys_pinned_to_the_nation() {
    let shape = PeerShape {
        node_index: 11,
        lineitem_rows: 4000,
        nation: Some(3),
    };
    let mut gen = WriteGen::new(Rng::seed_from_u64(1));
    let a = gen.batch(11, &shape, 2);
    let b = gen.batch(11, &shape, 2);
    assert_eq!(a.orders.len(), 2);
    assert_eq!(a.lineitems.len(), 8);
    let base = 11 * KEY_STRIDE;
    let mut keys = Vec::new();
    for batch in [&a, &b] {
        for o in &batch.orders {
            let Value::Int(k) = o.get(0) else { panic!() };
            assert!(*k > base + FRESH_KEY_BASE && *k < base + KEY_STRIDE);
            keys.push(*k);
            let Value::Int(cust) = o.get(1) else { panic!() };
            assert!(*cust > base && *cust <= base + 100, "customer of this peer");
            assert_eq!(o.get(5), &Value::Int(3));
        }
        for l in &batch.lineitems {
            assert_eq!(l.get(10), &Value::Int(3));
        }
    }
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 4, "order keys never repeat");
}

#[test]
fn op_streams_are_seeded() {
    let mk = |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let templates = supply_chain_templates(4, &mut rng);
        assert_eq!(templates.len(), 32);
        for (rank, (_, q)) in templates.iter().enumerate() {
            let supplier = matches!(q, Query::Supplier { .. });
            assert_eq!(supplier, rank % 2 == 0, "ranks alternate the two sides");
        }
        let zipf = Zipf::new(templates.len(), 1.1);
        let shape = PeerShape {
            node_index: 4,
            lineitem_rows: 400,
            nation: Some(0),
        };
        let mut s = OpStream::new(
            seed,
            ReadMix::Templates { templates, zipf },
            5,
            vec![(4, shape)],
            1,
        );
        (0..50).map(|_| s.next_op()).collect::<Vec<_>>()
    };
    let a = mk(1);
    assert_eq!(a, mk(1));
    assert_ne!(a, mk(2));
    for (i, op) in a.iter().enumerate() {
        assert_eq!(matches!(op, Op::Write(_)), (i + 1) % 5 == 0, "op {i}");
        if let Op::Read {
            submitter, query, ..
        } = op
        {
            match query {
                Query::Supplier { .. } => {
                    assert!(*submitter >= 4, "retailers send supplier queries")
                }
                Query::Retailer { .. } => {
                    assert!(*submitter < 4, "suppliers send retailer queries")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    let mut s = OpStream::new(
        3,
        ReadMix::Analytic {
            engines: vec![EngineChoice::Basic, EngineChoice::MapReduce],
            submitters: vec![0, 1],
        },
        0,
        Vec::new(),
        1,
    );
    let kinds: Vec<(u8, EngineChoice)> = (0..10)
        .map(|_| match s.next_op() {
            Op::Read { query, engine, .. } => (
                match query {
                    Query::Q1 { .. } => 1,
                    Query::Q2 { .. } => 2,
                    Query::Q3 { .. } => 3,
                    Query::Q4 { .. } => 4,
                    Query::Q5 { .. } => 5,
                    _ => 0,
                },
                engine,
            ),
            Op::Write(_) => panic!("no writes configured"),
        })
        .collect();
    assert_eq!(kinds[0], (1, EngineChoice::Basic));
    assert_eq!(kinds[4], (5, EngineChoice::Basic));
    assert_eq!(kinds[5], (1, EngineChoice::MapReduce));
}

fn row(vals: Vec<Value>) -> Row {
    Row::new(vals)
}

#[test]
fn oracle_comparison_ignores_order_but_not_content() {
    let a = vec![
        row(vec![Value::Int(1), Value::str("x"), Value::Float(0.5)]),
        row(vec![Value::Int(2), Value::str("y"), Value::Float(1.5)]),
        row(vec![Value::Int(2), Value::str("y"), Value::Float(1.5)]),
    ];
    let mut shuffled = a.clone();
    shuffled.rotate_left(1);
    assert!(compare(&shuffled, &a).is_ok());

    // Multiset, not set: a missing duplicate is a mismatch.
    let mut fewer = a.clone();
    fewer.pop();
    fewer.push(row(vec![Value::Int(1), Value::str("x"), Value::Float(0.5)]));
    assert!(compare(&fewer, &a).is_err());
    assert!(compare(&a[..2], &a).is_err());

    // Float sums agree within tolerance, in either numeric type.
    let sum = vec![row(vec![Value::Float(0.1 + 0.2)])];
    assert!(compare(&sum, &[row(vec![Value::Float(0.3)])]).is_ok());
    assert!(compare(&sum, &[row(vec![Value::Float(0.31)])]).is_err());
    let count = vec![row(vec![Value::Int(3)])];
    assert!(compare(&count, &[row(vec![Value::Float(3.0)])]).is_ok());
    assert!(compare(&count, &[row(vec![Value::Str("3".into())])]).is_err());
}

#[test]
fn oracle_answers_a_join_and_an_aggregate() {
    let d = |s: &str| Value::date_from_str(s).unwrap();
    let mut o = Oracle::default();
    o.add(
        "orders",
        &[
            row(vec![
                Value::Int(1),
                Value::Int(10),
                Value::str("O"),
                Value::Float(1.0),
                d("1998-07-01"),
                Value::Int(0),
            ]),
            row(vec![
                Value::Int(2),
                Value::Int(10),
                Value::str("O"),
                Value::Float(1.0),
                d("1990-01-01"),
                Value::Int(0),
            ]),
        ],
    );
    let line = |order: i64, price: f64, disc: f64, ship: &str| {
        row(vec![
            Value::Int(order),
            Value::Int(1),
            Value::Int(5),
            Value::Int(6),
            Value::Int(3),
            Value::Float(price),
            Value::Float(disc),
            Value::Float(0.0),
            d(ship),
            d(ship),
            Value::Int(0),
        ])
    };
    o.add(
        "lineitem",
        &[
            line(1, 100.0, 0.5, "1998-10-01"),
            line(1, 10.0, 0.0, "1998-01-01"),
            line(2, 1000.0, 0.0, "1998-10-01"),
        ],
    );
    let after = |s: &str| match d(s) {
        Value::Date(x) => x,
        _ => unreachable!(),
    };
    let q3 = o.answer(&Query::Q3 {
        order_after: after("1998-06-01"),
    });
    assert_eq!(q3.len(), 2, "only order 1 qualifies, with both its lines");
    let q2 = o.answer(&Query::Q2 {
        ship_after: after("1998-09-01"),
    });
    assert_eq!(q2, vec![row(vec![Value::Float(100.0 * 0.5 + 1000.0)])]);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |parent, start_ns, end_ns| Span {
        op: 1,
        parent,
        name: if parent.is_none() { "root" } else { "child" },
        start_ns,
        end_ns,
    };
    let spans = vec![
        span(None, 0, 100),
        // Overlapping children cover 10..50 once, not twice.
        span(Some(0), 10, 30),
        span(Some(0), 20, 50),
        // A child running past its parent counts only inside it.
        span(Some(0), 90, 120),
        // A grandchild reduces its parent's self time, not the root's.
        span(Some(1), 12, 18),
    ];
    let t = self_times(&spans);
    assert_eq!(t, vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    let by_name = self_time_by_name(&spans);
    assert_eq!(by_name["root"], (1, 50));
    assert_eq!(by_name["child"], (4, 14 + 30 + 30 + 6));

    let mut rec = Recorder::default();
    let outer = rec.begin(9, None, "outer");
    let inner = rec.time(9, Some(outer), "inner", || 42);
    rec.end(outer);
    assert_eq!(inner, 42);
    let s = rec.spans();
    assert_eq!(s.len(), 2);
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    let t = self_times(s);
    assert_eq!(t[0] + t[1], s[0].duration_ns());
}

/// Held by the tests that burn or measure process CPU time, so that
/// one's kernel does not land in the other's sleep.
static PROCESS_CPU: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn cpu_clocks_count_work_not_waiting() {
    let _quiet = PROCESS_CPU.lock().unwrap_or_else(|e| e.into_inner());
    let me = CpuClock::this_process();
    let t0 = me.now_ns();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let slept = me.now_ns() - t0;
    assert!(slept < 20_000_000, "sleeping used {slept} ns of CPU");

    let t0 = me.now_ns();
    let wall = std::time::Instant::now();
    let mut x = 0u64;
    while wall.elapsed() < std::time::Duration::from_millis(50) {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let busy = me.now_ns() - t0;
    assert!(
        busy > 5_000_000,
        "spinning 50 ms used only {busy} ns of CPU"
    );

    // A meter sums its clocks; a child's clock reads 0 once it is gone.
    let twice = CpuMeter::new(vec![me, me]).now_ns();
    assert!(twice >= 2 * t0);
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("--list")
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let clock = CpuClock::of_process(child.id());
    child.wait().unwrap();
    if let Ok(clock) = clock {
        assert_eq!(clock.now_ns(), 0);
    }
}

#[test]
fn calibration_rescales_to_the_reference_machine() {
    let _quiet = PROCESS_CPU.lock().unwrap_or_else(|e| e.into_inner());
    // The kernel does the same work on every call.
    assert_eq!(reference_kernel(), reference_kernel());

    // A machine on which the kernel takes twice the reference time on
    // average scales its CPU times by 0.5^SENSITIVITY.
    let slow = [1.5 * REFERENCE_MS, 2.5 * REFERENCE_MS, 2.0 * REFERENCE_MS];
    assert!((scale(&slow) - 0.5f64.powf(SENSITIVITY)).abs() < 1e-12);
    assert!(scale(&slow) > 0.5 && scale(&slow) < 1.0);
    assert!((scale(&[REFERENCE_MS]) - 1.0).abs() < 1e-12);

    let mut calib = Calibration::default();
    calib.sample();
    calib.sample();
    assert_eq!(calib.samples(), 2);
    assert!(calib.kernel_ms() > 0.0);
    assert!((calib.scale() - scale(&[calib.kernel_ms()])).abs() < 1e-12);
}
