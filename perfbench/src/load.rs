//! Closed-loop clients: each sends its next request only after the
//! previous reply has been checked.  An untraced phase times only the
//! requests themselves; a traced phase also records spans around every
//! layer call made for a request (see [`crate::trace`]).

use std::time::{Duration, Instant};

use rqo_optimizer::Query;
use rqo_service::proto::DEFAULT_BATCH_ROWS;
use rqo_service::{Engine, NetClient, Request, Response, RunMode, Session};
use rqo_stats::TableSketches;
use rqo_storage::{Catalog, Value};

use crate::trace::{self, Log};
use crate::world::{
    exp1_query, same_rows, ChurnRequest, RowSource, Workload, World, INSERT_BATCH_ROWS,
};

/// What one client does.
enum Role {
    /// `paper_sweep`: cycles the sweep in-process.
    Sweep,
    /// `point_churn`: sends its own stream of fresh requests.
    Churn(Vec<ChurnRequest>),
    /// `ingest_mix` reader: cycles Exp 1 over the wire.
    Reader,
    /// `ingest_mix` inserter: streams `lineitem` batches over the wire.
    Inserter,
}

/// One closed-loop client and where it is in its stream.
pub struct Client {
    id: usize,
    role: Role,
    session: Session,
    net: NetClient,
    /// Order in which this client visits `World::sweep`.
    order: Vec<usize>,
    next: usize,
}

/// What a phase measured, over all clients.
#[derive(Default)]
pub struct Phase {
    pub query_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    pub rows_ingested: u64,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub logs: Vec<Log>,
}

impl Phase {
    fn check(&mut self, what: &str, ok: Result<bool, String>) {
        self.attempted += 1;
        match ok {
            Ok(true) => {}
            Ok(false) => self.fail(format!("{what}: reply differs from the reference")),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Takes over another phase's checks: attempted, failed, errors.
    pub fn add_checks(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    fn merge(&mut self, mut other: Phase) {
        self.query_ms.append(&mut other.query_ms);
        self.insert_ms.append(&mut other.insert_ms);
        self.rows_ingested += other.rows_ingested;
        self.logs.append(&mut other.logs);
        self.add_checks(other);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Opens the workload's clients (part of set-up).
pub fn clients(world: &mut World, workload: Workload, seed: u64) -> Vec<Client> {
    let mut rng = crate::world::Rng::new(seed ^ 0x0D_E12);
    let mut churn = std::mem::take(&mut world.churn).into_iter();
    (0..crate::world::CLIENTS)
        .map(|id| {
            let role = match workload {
                Workload::PaperSweep => Role::Sweep,
                Workload::PointChurn => Role::Churn(churn.next().expect("one stream per client")),
                Workload::IngestMix if id == 0 => Role::Inserter,
                Workload::IngestMix => Role::Reader,
            };
            let mut net = NetClient::connect(world.server.local_addr()).expect("connect");
            net.ping().expect("ping the server");
            Client {
                id,
                role,
                session: world.service.session(),
                net,
                order: rng.permutation(world.sweep.len()),
                next: 0,
            }
        })
        .collect()
}

/// Runs every client for `seconds` and gathers what they measured.
pub fn run(world: &mut World, clients: &mut [Client], seconds: f64, traced: bool) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut rows = world.rows.take();
    let mut phase = Phase::default();
    {
        let world = &*world;
        let mut slot = rows.as_mut();
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    let mut source = match c.role {
                        Role::Inserter => slot.take(),
                        _ => None,
                    };
                    s.spawn(move || {
                        let mut log = traced.then(|| Log::new(start, c.id));
                        let mut out = Phase::default();
                        while Instant::now() < deadline {
                            match (&c.role, source.as_deref_mut()) {
                                (Role::Inserter, Some(src)) => {
                                    insert_once(world, c, src, &mut out, log.as_mut());
                                }
                                _ => query_once(world, c, &mut out, log.as_mut()),
                            }
                        }
                        out.logs.extend(log);
                        out
                    })
                })
                .collect();
            for h in handles {
                phase.merge(h.join().expect("client thread panicked"));
            }
        });
    }
    world.rows = rows;
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// The client's next query and its reference rows.
fn next_query(world: &World, c: &mut Client) -> (Query, Vec<Vec<Value>>) {
    let i = c.next;
    c.next += 1;
    match &c.role {
        Role::Churn(stream) => {
            let r = &stream[i % stream.len()];
            (r.query(), r.expected())
        }
        _ => {
            let r = &world.sweep[c.order[i % c.order.len()]];
            (r.query.clone(), r.rows.clone())
        }
    }
}

/// The levels a query request passes through, outermost first.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Level {
    Net,
    Session,
    Engine,
}

impl Level {
    fn span(self) -> &'static str {
        match self {
            Level::Net => "net.run",
            Level::Session => "service.session",
            Level::Engine => "engine.run",
        }
    }
}

fn call(world: &World, c: &mut Client, level: Level, q: &Query) -> Result<Vec<Vec<Value>>, String> {
    match level {
        Level::Net => c.net.run(q).map(|r| r.rows).map_err(|e| e.to_string()),
        Level::Session => c.session.run(q).map(|r| r.rows).map_err(|e| e.to_string()),
        Level::Engine => {
            let opts = world.exec_options();
            world
                .engine
                .run_opts(q, &opts)
                .map(|r| r.rows)
                .map_err(|e| format!("{e:?}"))
        }
    }
}

fn query_once(world: &World, c: &mut Client, out: &mut Phase, log: Option<&mut Log>) {
    let real = match c.role {
        Role::Sweep => Level::Session,
        _ => Level::Net,
    };
    let (q, expected) = next_query(world, c);
    let Some(log) = log else {
        let t = Instant::now();
        let got = call(world, c, real, &q);
        let dt = ms(t.elapsed());
        if got.is_ok() {
            out.query_ms.push(dt);
        }
        out.check("query", got.map(|rows| same_rows(&rows, &expected)));
        return;
    };

    let req = log.request();
    let root = log.open(req, 0, "request");
    let under = probe_engine(world, log, req, root, &q, &expected, out);
    proto_probe(log, req, root, &q, &expected);

    // The real request, then replays of the other levels outermost
    // first.  A `point_churn` replay takes the next request of the same
    // stream, so that it misses the plan cache as the real one did.
    let mut ids = [0u32; 3];
    let order: Vec<Level> = std::iter::once(real)
        .chain(
            [Level::Net, Level::Session, Level::Engine]
                .into_iter()
                .filter(|l| *l != real),
        )
        .collect();
    for level in order {
        let (lq, lexp) = if level == real || !matches!(c.role, Role::Churn(_)) {
            (q.clone(), expected.clone())
        } else {
            next_query(world, c)
        };
        let (got, id) = log.time(req, root, level.span(), || call(world, c, level, &lq));
        if level == real && got.is_ok() {
            out.query_ms.push(log.dur_us(id) / 1e3);
        }
        out.check(level.span(), got.map(|rows| same_rows(&rows, &lexp)));
        ids[level as usize] = id;
    }
    log.set_parent(ids[Level::Session as usize], ids[Level::Net as usize]);
    log.set_parent(ids[Level::Engine as usize], ids[Level::Session as usize]);
    for id in under {
        log.set_parent(id, ids[Level::Engine as usize]);
    }
    log.close(root);
}

/// Probes the layers under `Engine::run_opts` for `q`, in the state the
/// real request is about to see: the plan-cache lookup, a fresh plan from
/// a probe optimizer, and an analyzed execution of the plan the engine
/// would run.  Returns the spans that lie on the engine's path (the plan
/// only on a miss).
fn probe_engine(
    world: &World,
    log: &mut Log,
    req: u64,
    root: u32,
    q: &Query,
    expected: &[Vec<Value>],
    out: &mut Phase,
) -> Vec<u32> {
    let engine: &Engine = &world.engine;
    let (cached, lookup) = log.time(req, root, "cache.lookup", || {
        engine.plan_cache().get(&engine.fingerprint(q))
    });
    let (fresh, plan) = trace::probe_plan(log, req, root, engine, q);
    let mut on_path = vec![lookup];
    if cached.is_none() {
        on_path.push(plan);
    }
    let chosen = cached.as_ref().map_or(&fresh.plan, |p| &p.plan);
    let catalog = engine.catalog();
    let opts = world.exec_options();
    let (res, exec) = log.time(req, root, "exec", || {
        rqo_exec::try_execute_analyze(chosen, &catalog, engine.params(), &opts)
    });
    on_path.push(exec);
    match res {
        Ok((batch, _, metrics)) => {
            trace::record_op_metrics(log, &metrics);
            out.check("exec probe", Ok(same_rows(&batch.rows, expected)));
        }
        Err(e) => out.check("exec probe", Err(format!("{e:?}"))),
    }
    on_path
}

/// Times the wire codec on the request and on the reply the server
/// streams for it (`Batch` frames of `DEFAULT_BATCH_ROWS`, then `Done`).
fn proto_probe(log: &mut Log, req: u64, root: u32, q: &Query, rows: &[Vec<Value>]) {
    let request = Request::Run {
        id: req,
        mode: RunMode::Run,
        deadline_ms: 0,
        query: q.clone(),
    };
    let (bytes, _) = log.time(req, root, "proto.request_encode", || request.encode());
    let (decoded, _) = log.time(req, root, "proto.request_decode", || {
        Request::decode(&bytes)
    });
    debug_assert!(decoded.is_ok());
    let frames: Vec<Response> = rows
        .chunks(DEFAULT_BATCH_ROWS)
        .map(|chunk| Response::Batch {
            id: req,
            rows: chunk.to_vec(),
        })
        .chain(std::iter::once(Response::Done {
            id: req,
            columns: Vec::new(),
            total_rows: rows.len() as u64,
            simulated_seconds: 0.0,
            estimated_seconds: 0.0,
            replans: 0,
        }))
        .collect();
    let (reply_bytes, _) = log.time(req, root, "proto.response_encode", || {
        frames.iter().map(|f| f.encode().len() + 4).sum::<usize>()
    });
    log.sample("proto.reply_bytes", reply_bytes as f64);
}

/// The Exp 1 query the replan probe plans after each batch: an offset
/// the reader never runs, so every batch leaves it uncached.
fn replan_probe_query() -> Query {
    exp1_query(50)
}

fn insert_once(
    world: &World,
    c: &mut Client,
    src: &mut (RowSource, u64),
    out: &mut Phase,
    log: Option<&mut Log>,
) {
    let (source, table_rows) = src;
    let rows = source.batch();
    let expect = (
        INSERT_BATCH_ROWS as u64,
        *table_rows + INSERT_BATCH_ROWS as u64,
    );
    let Some(log) = log else {
        let t = Instant::now();
        let got = c.net.insert("lineitem", rows);
        let dt = ms(t.elapsed());
        if got.is_ok() {
            out.insert_ms.push(dt);
            out.rows_ingested += INSERT_BATCH_ROWS as u64;
            *table_rows += INSERT_BATCH_ROWS as u64;
        }
        out.check(
            "insert",
            got.map(|r| r == expect).map_err(|e| e.to_string()),
        );
        return;
    };
    let got = traced_insert(world, c, rows, log);
    if let Ok((_, dt)) = &got {
        out.insert_ms.push(*dt);
        out.rows_ingested += INSERT_BATCH_ROWS as u64;
        *table_rows += INSERT_BATCH_ROWS as u64;
    }
    out.check("insert", got.map(|(r, _)| r == expect));
}

/// One traced batch: the storage and statistics work of an insert probed
/// on copies, then the insert itself — over the wire on even batches and
/// straight into `Engine::insert_rows` on odd ones — then the first plan
/// after it.  Returns `(rows_inserted, table_rows)` and the latency.
fn traced_insert(
    world: &World,
    c: &mut Client,
    rows: Vec<Vec<Value>>,
    log: &mut Log,
) -> Result<((u64, u64), f64), String> {
    let engine: &Engine = &world.engine;
    let req = log.request();
    let root = log.open(req, 0, "insert");
    let snapshot = engine.catalog();
    let (mut copy, _) = log.time(req, root, "storage.catalog_clone", || {
        Catalog::clone(&snapshot)
    });
    let (assigned, _) = log.time(req, root, "storage.append", || {
        copy.append_rows("lineitem", &rows)
    });
    drop(copy);
    if let (Ok(parts), Some(sketches)) = (assigned, engine.sketches_for("lineitem")) {
        let mut sketches = TableSketches::clone(&sketches);
        log.time(req, root, "stats.sketch_observe", || {
            for (row, &p) in rows.iter().zip(&parts) {
                sketches.observe(p, row);
            }
        });
    }
    let via_net = c.next.is_multiple_of(2);
    c.next += 1;
    let (got, id) = if via_net {
        log.time(req, root, "net.insert", || {
            c.net.insert("lineitem", rows).map_err(|e| e.to_string())
        })
    } else {
        log.time(req, root, "engine.insert", || {
            engine
                .insert_rows("lineitem", &rows)
                .map(|s| (s.rows_inserted as u64, s.table_rows as u64))
                .map_err(|e| e.to_string())
        })
    };
    let dt = log.dur_us(id) / 1e3;
    let probe = replan_probe_query();
    log.time(req, root, "engine.replan_after_insert", || {
        engine.optimize(&probe)
    });
    log.close(root);
    got.map(|r| (r, dt))
}

/// `batches` inserts in a row by the first client, on a server doing
/// nothing else.  Read-only workloads run this after their timed phase,
/// so that every workload measures the write path.
pub fn writes(world: &mut World, clients: &mut [Client], batches: usize, traced: bool) -> Phase {
    let mut out = Phase::default();
    let mut src = world.rows.take().expect("row source is built in set-up");
    let mut log = traced.then(|| Log::new(Instant::now(), clients.len()));
    let start = Instant::now();
    for _ in 0..batches {
        insert_once(world, &mut clients[0], &mut src, &mut out, log.as_mut());
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    world.rows = Some(src);
    out.logs.extend(log);
    out
}
