//! The set-up every workload shares — generated data, one engine, one
//! in-process service and one loopback server — plus each workload's
//! inputs and the reference answers replies are checked against.

use std::sync::Arc;

use rqo_core::ConfidenceThreshold;
use rqo_datagen::{workload, StarConfig, StarData, TpchConfig, TpchData};
use rqo_exec::AggExpr;
use rqo_exec::{ExecOptions, MorselScheduler};
use rqo_expr::Expr;
use rqo_optimizer::Query;
use rqo_service::{
    Engine, NetClient, NetServer, NetServerConfig, QueryService, ServiceConfig, WorkerPool,
};
use rqo_storage::{days_from_civil, parse_date, Catalog, Value};

/// TPC-H-like scale: about 120k `lineitem` rows.
pub const SCALE_FACTOR: f64 = 0.02;
/// Star-schema fact rows.
pub const FACT_ROWS: usize = 100_000;
/// Closed-loop clients (the host has two cores).
pub const CLIENTS: usize = 2;
/// Rows per `Insert` batch on `ingest_mix`.
pub const INSERT_BATCH_ROWS: usize = 500;
/// Distinct `point_churn` requests drawn per client before the stream
/// wraps around.
const CHURN_POOL: usize = 60_000;
/// `point_churn` requests each client sends during warm-up.
const CHURN_WARMUP: usize = 24;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Exp 1–3 sweeps on two in-process sessions, cache warm.
    PaperSweep,
    /// Seed-drawn selective Exp-1-template queries over two connections.
    PointChurn,
    /// One connection inserting `lineitem` batches, one running Exp 1.
    IngestMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_sweep" => Some(Workload::PaperSweep),
            "point_churn" => Some(Workload::PointChurn),
            "ingest_mix" => Some(Workload::IngestMix),
            _ => None,
        }
    }
}

/// SplitMix64: a tiny deterministic generator for the benchmark's own
/// inputs, independent of the library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            out.swap(i, self.range(0, i as i64) as usize);
        }
        out
    }
}

/// A query with the rows every reply to it must equal.
#[derive(Debug, Clone)]
pub struct RefQuery {
    pub query: Query,
    pub rows: Vec<Vec<Value>>,
}

/// One `point_churn` request: an Exp-1-template `COUNT(*)` whose answer
/// was computed by the benchmark's own scan of the generated rows.
#[derive(Debug, Clone, Copy)]
pub struct ChurnRequest {
    ship_lo: i32,
    width: i32,
    offset: i32,
    count: i64,
}

impl ChurnRequest {
    pub fn query(&self) -> Query {
        let lo = Expr::lit(Value::Date(self.ship_lo));
        let hi = Expr::lit(Value::Date(self.ship_lo + self.width));
        let ship = Expr::col("l_shipdate").between(lo.clone(), hi.clone());
        let offset = i64::from(self.offset);
        let receipt = Expr::col("l_receiptdate")
            .between(lo.add(Expr::lit(offset)), hi.add(Expr::lit(offset)));
        Query::over(&["lineitem"])
            .filter("lineitem", ship.and(receipt))
            .aggregate(AggExpr::count_star("n"))
    }

    pub fn expected(&self) -> Vec<Vec<Value>> {
        vec![vec![Value::Int(self.count)]]
    }
}

/// Independent `COUNT(*)` oracle for the Exp 1 template: `(ship,
/// receipt)` pairs sorted by ship date.
struct ShipOracle(Vec<(i32, i32)>);

impl ShipOracle {
    fn new(catalog: &Catalog) -> ShipOracle {
        let t = catalog.table("lineitem").expect("lineitem is generated");
        let ship = t.date_column(t.schema().expect_index("l_shipdate"));
        let receipt = t.date_column(t.schema().expect_index("l_receiptdate"));
        let mut pairs: Vec<(i32, i32)> =
            ship.iter().copied().zip(receipt.iter().copied()).collect();
        pairs.sort_unstable();
        ShipOracle(pairs)
    }

    fn count(&self, ship_lo: i32, ship_hi: i32, recv_lo: i32, recv_hi: i32) -> i64 {
        let start = self.0.partition_point(|p| p.0 < ship_lo);
        self.0[start..]
            .iter()
            .take_while(|p| p.0 <= ship_hi)
            .filter(|p| (recv_lo..=recv_hi).contains(&p.1))
            .count() as i64
    }

    fn draw(&self, rng: &mut Rng) -> ChurnRequest {
        let (first, last) = (self.0[0].0, self.0[self.0.len() - 1].0);
        let width = rng.range(2, 20) as i32;
        let ship_lo = rng.range(i64::from(first), i64::from(last - width)) as i32;
        let offset = rng.range(0, 45) as i32;
        let count = self.count(
            ship_lo,
            ship_lo + width,
            ship_lo + offset,
            ship_lo + width + offset,
        );
        ChurnRequest {
            ship_lo,
            width,
            offset,
            count,
        }
    }
}

/// Fresh `lineitem` rows for `ingest_mix`, drawn like the generator's own
/// but with ship dates outside Exp 1's window (Q3 1997), so the readers'
/// reference answers hold however reads and batches interleave.
pub struct RowSource {
    rng: Rng,
    orders: i64,
    parts: i64,
    ship_min: i32,
    ship_max: i32,
    window: (i32, i32),
}

impl RowSource {
    fn new(seed: u64) -> RowSource {
        let cfg = TpchConfig::at_scale(SCALE_FACTOR);
        RowSource {
            rng: Rng::new(seed ^ 0x1A5E_5700_D00D),
            orders: cfg.num_orders() as i64,
            parts: cfg.num_parts() as i64,
            ship_min: days_from_civil(1992, 1, 2),
            ship_max: days_from_civil(1998, 12, 1),
            window: (date("1997-07-01"), date("1997-09-30")),
        }
    }

    pub fn batch(&mut self) -> Vec<Vec<Value>> {
        (0..INSERT_BATCH_ROWS).map(|_| self.row()).collect()
    }

    fn row(&mut self) -> Vec<Value> {
        let r = &mut self.rng;
        let partkey = r.range(1, self.parts);
        let quantity = r.range(1, 50) as f64;
        let price = quantity * (900.0 + (partkey % 1000) as f64 * 0.1);
        let ship = loop {
            let d = r.range(i64::from(self.ship_min), i64::from(self.ship_max)) as i32;
            if !(self.window.0..=self.window.1).contains(&d) {
                break d;
            }
        };
        vec![
            Value::Int(r.range(1, self.orders)),
            Value::Int(partkey),
            Value::Float(quantity),
            Value::Float(price),
            Value::Date(ship),
            Value::Date(ship + r.range(1, 30) as i32),
        ]
    }
}

fn date(s: &str) -> i32 {
    match parse_date(s) {
        Value::Date(d) => d,
        other => unreachable!("parse_date returned {other:?}"),
    }
}

/// Everything one run measures against.
pub struct World {
    pub engine: Arc<Engine>,
    pub service: QueryService,
    pub server: NetServer,
    /// A worker pool like the service's own, so that calls made below the
    /// service (`Engine::run_opts`, the executor) run as the service runs
    /// them.
    pool: Arc<WorkerPool>,
    /// `paper_sweep`: the 39 Exp 1–3 queries; `ingest_mix`: the 16 Exp 1
    /// queries the reader cycles through.
    pub sweep: Vec<RefQuery>,
    /// `point_churn`: one request stream per client.
    pub churn: Vec<Vec<ChurnRequest>>,
    /// Fresh `lineitem` rows and the table size they are appended to.
    pub rows: Option<(RowSource, u64)>,
    /// Simulated cost (ms) of the plans run while setting up: identifies
    /// the plans chosen, never a speed figure.
    pub plan_cost_sum_ms: f64,
}

/// Generates the TPC-H-like tables and the star schema into one catalog.
/// The data is fixed (the generators' default seeds), like the scale:
/// the workload seed varies the requests, not the plans the sweep's
/// fixed queries get, so runs with different seeds measure the same work.
fn catalog() -> Catalog {
    let mut cat = TpchData::generate(&TpchConfig {
        scale_factor: SCALE_FACTOR,
        ..TpchConfig::default()
    })
    .into_catalog();
    let star = StarData::generate(&StarConfig {
        fact_rows: FACT_ROWS,
        ..StarConfig::default()
    });
    for t in star.dims {
        cat.add_table(t).expect("dimension names are fresh");
    }
    cat.add_table(star.fact).expect("fact name is fresh");
    for (col, dim) in [("f_key1", "dim1"), ("f_key2", "dim2"), ("f_key3", "dim3")] {
        cat.add_foreign_key("fact", col, dim, "d_key")
            .expect("valid FK");
        cat.ensure_secondary_index("fact", col)
            .expect("column exists");
    }
    cat
}

/// Exp 1 (16 receipt offsets): `SUM(l_extendedprice)` over `lineitem`.
pub fn exp1_queries() -> Vec<Query> {
    workload::exp1_offsets()
        .into_iter()
        .map(exp1_query)
        .collect()
}

pub fn exp1_query(offset: i64) -> Query {
    Query::over(&["lineitem"])
        .filter("lineitem", workload::exp1_lineitem_predicate(offset))
        .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
}

fn exp2_queries() -> Vec<Query> {
    workload::exp2_window_starts()
        .into_iter()
        .map(|start| {
            Query::over(&["lineitem", "orders", "part"])
                .filter("part", workload::exp2_part_predicate(start))
                .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
                .aggregate(AggExpr::count_star("n"))
        })
        .collect()
}

fn exp3_queries() -> Vec<Query> {
    workload::exp3_levels()
        .into_iter()
        .map(|level| {
            let mut q = Query::over(&["fact", "dim1", "dim2", "dim3"])
                .aggregate(AggExpr::sum("f_measure1", "total"))
                .aggregate(AggExpr::avg("f_measure2", "mean"));
            for dim in ["dim1", "dim2", "dim3"] {
                q = q.filter(dim, workload::exp3_dim_predicate(level));
            }
            q
        })
        .collect()
}

/// Whether a reply's rows equal the reference.  Floats agree to 1e-9
/// relative: a SUM or AVG adds its inputs in the order the plan produces
/// them, so two correct plans can differ in the last bits.
pub fn same_rows(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|(a, b)| match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                    }
                    _ => a == b,
                })
        })
}

/// Runs `queries` once in-process at the default threshold and keeps the
/// answers.  With `cross_check`, each answer must also equal the answers
/// at T = 5% and T = 95%: plans never change answers, so a disagreement
/// means the reference itself is wrong.
fn references(
    service: &QueryService,
    queries: Vec<Query>,
    cross_check: bool,
) -> (Vec<RefQuery>, f64) {
    let session = service.session();
    let mut cost_ms = 0.0;
    let refs = queries
        .into_iter()
        .map(|query| {
            let out = session.run(&query).expect("reference run succeeds");
            cost_ms += out.simulated_seconds * 1000.0;
            if cross_check {
                for pct in [5.0, 95.0] {
                    let hinted = query
                        .clone()
                        .with_hint(ConfidenceThreshold::from_percent(pct));
                    let other = session.run(&hinted).expect("reference run succeeds");
                    assert!(
                        same_rows(&other.rows, &out.rows),
                        "answer changed between T=80% and T={pct}%: {:?} vs {:?}",
                        other.rows,
                        out.rows
                    );
                }
            }
            RefQuery {
                query,
                rows: out.rows,
            }
        })
        .collect();
    (refs, cost_ms)
}

impl World {
    /// The executor options the service passes for a query.
    pub fn exec_options(&self) -> ExecOptions {
        let pool: Arc<dyn MorselScheduler> = Arc::clone(&self.pool) as _;
        self.engine.query_exec_options(None, Some(pool))
    }

    /// Builds the shared stack and the workload's inputs, computes every
    /// reference answer, and warms the caches.  Panics when a reference
    /// or warm-up reply is wrong.
    pub fn build(workload: Workload, seed: u64) -> World {
        let engine = Arc::new(Engine::new(catalog()));
        let config = ServiceConfig::default();
        let pool = Arc::new(WorkerPool::new(config.workers));
        let service = QueryService::over(Arc::clone(&engine), config);
        let server = NetServer::bind(service.clone(), "127.0.0.1:0", NetServerConfig::default())
            .expect("bind a loopback port");
        let mut world = World {
            engine,
            service,
            server,
            pool,
            sweep: Vec::new(),
            churn: Vec::new(),
            rows: None,
            plan_cost_sum_ms: 0.0,
        };

        // A table's first streamed batch also seeds its sketches.  Take
        // that one-time cost here, before any reference is computed, so
        // every workload starts from the same table.
        let mut rows = RowSource::new(seed);
        let mut table_rows = world
            .engine
            .catalog()
            .table("lineitem")
            .expect("generated")
            .num_rows() as u64;
        let mut client = NetClient::connect(world.server.local_addr()).expect("connect");
        let inserted = client
            .insert("lineitem", rows.batch())
            .expect("warm-up insert");
        table_rows += INSERT_BATCH_ROWS as u64;
        assert_eq!(inserted, (INSERT_BATCH_ROWS as u64, table_rows));

        match workload {
            Workload::PaperSweep => {
                let mut queries = exp1_queries();
                queries.extend(exp2_queries());
                queries.extend(exp3_queries());
                let (refs, cost) = references(&world.service, queries, true);
                world.sweep = refs;
                world.plan_cost_sum_ms = cost;
                // Warm-up: one more pass per client session.
                std::thread::scope(|s| {
                    for _ in 0..CLIENTS {
                        let session = world.service.session();
                        let sweep = &world.sweep;
                        s.spawn(move || {
                            for r in sweep {
                                let out = session.run(&r.query).expect("warm-up run succeeds");
                                assert!(same_rows(&out.rows, &r.rows), "warm-up answer differs");
                            }
                        });
                    }
                });
            }
            Workload::PointChurn => {
                let oracle = ShipOracle::new(&world.engine.catalog());
                let mut rng = Rng::new(seed ^ 0xC4_0C4);
                let warm: Vec<Vec<ChurnRequest>> = (0..CLIENTS)
                    .map(|_| (0..CHURN_WARMUP).map(|_| oracle.draw(&mut rng)).collect())
                    .collect();
                world.churn = (0..CLIENTS)
                    .map(|_| (0..CHURN_POOL).map(|_| oracle.draw(&mut rng)).collect())
                    .collect();
                // The oracle must agree with the engine before it judges
                // replies: check the warm-up requests in-process first.
                let session = world.service.session();
                for r in warm.iter().flatten() {
                    let out = session.run(&r.query()).expect("reference run succeeds");
                    assert_eq!(out.rows, r.expected(), "COUNT(*) oracle disagrees");
                    world.plan_cost_sum_ms += out.simulated_seconds * 1000.0;
                }
                let addr = world.server.local_addr();
                std::thread::scope(|s| {
                    for reqs in &warm {
                        s.spawn(move || {
                            let mut client = NetClient::connect(addr).expect("connect");
                            for r in reqs {
                                let reply = client.run(&r.query()).expect("warm-up run succeeds");
                                assert_eq!(reply.rows, r.expected(), "warm-up answer differs");
                            }
                        });
                    }
                });
            }
            Workload::IngestMix => {
                let (refs, cost) = references(&world.service, exp1_queries(), false);
                world.sweep = refs;
                world.plan_cost_sum_ms = cost;
                // Warm-up: one read pass over the wire.
                for r in &world.sweep {
                    let reply = client.run(&r.query).expect("warm-up run succeeds");
                    assert!(same_rows(&reply.rows, &r.rows), "warm-up answer differs");
                }
            }
        }
        world.rows = Some((rows, table_rows));
        world
    }
}
