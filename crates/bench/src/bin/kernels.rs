//! Per-kernel throughput driver: vectorized columnar kernels vs. the
//! row-at-a-time baseline at morsel granularity, emitted as
//! `BENCH_kernels.json`.
//!
//! Four hot kernels are measured over a synthetic table, each driven
//! through the executor's morsel path (one thread, 4096-row morsels —
//! the same chunking the parallel executor uses, without thread-pool
//! noise).  The row-at-a-time baselines live in this file; the executor
//! itself has only the columnar kernels.
//!
//! * **filter** — predicated sequential scan: typed `select` over
//!   zero-copy column views + gather, vs. per-row materialize + `eval_bool`;
//! * **hash_agg** — grouped aggregation: column-at-a-time typed update
//!   loops vs. per-row `Value` dispatch;
//! * **hash_join** — typed-key build/probe vs. `Value`-keyed hashing;
//! * **project** — column-at-a-time output assembly vs. row-at-a-time.
//!
//! The run self-asserts the tentpole acceptance bar: filter or hash_agg
//! must be at least 2× faster than the row baseline.
//!
//! ```sh
//! cargo run --release -p rqo-bench --bin kernels -- \
//!     [--rows N] [--iters N] [--out PATH] [--tiny]
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use rqo_exec::agg::{hash_aggregate, AggState};
use rqo_exec::join::hash_join;
use rqo_exec::kernels::project_batch;
use rqo_exec::scan::seq_scan;
use rqo_exec::{AggExpr, Batch, ExecOptions};
use rqo_expr::Expr;
use rqo_storage::{Catalog, CostParams, CostTracker, DataType, Rid, Schema, TableBuilder, Value};

/// Morsel size used for every measurement: the executor's granularity.
const MORSEL: usize = 4096;

struct Args {
    rows: usize,
    iters: usize,
    out: String,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            rows: 262_144,
            iters: 10,
            out: "BENCH_kernels.json".to_string(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                // CI smoke preset: small table, few iterations.
                "--tiny" => {
                    args.rows = 16_384;
                    args.iters = 3;
                    i += 1;
                }
                flag => {
                    let value = argv
                        .get(i + 1)
                        .unwrap_or_else(|| panic!("missing value after {flag}"));
                    match flag {
                        "--rows" => args.rows = value.parse().expect("--rows"),
                        "--iters" => args.iters = value.parse().expect("--iters"),
                        "--out" => args.out = value.clone(),
                        other => panic!("unknown flag {other:?}"),
                    }
                    i += 2;
                }
            }
        }
        args
    }
}

struct KernelResult {
    name: &'static str,
    rows: usize,
    iters: usize,
    row_ns: u128,
    col_ns: u128,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.row_ns as f64 / self.col_ns as f64
    }

    fn mrows_per_sec(&self, ns: u128) -> f64 {
        (self.rows * self.iters) as f64 / (ns as f64 / 1e9) / 1e6
    }
}

/// Synthetic table `k(id, grp, val, tag)`: 64-value group domain, an
/// integer-valued float measure, an 8-value string tag.
fn build_catalog(n: usize) -> Catalog {
    let mut b = TableBuilder::new(
        "k",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("grp", DataType::Int),
            ("val", DataType::Float),
            ("tag", DataType::Str),
        ]),
        n,
    );
    let tags = ["ax", "bx", "cx", "dx", "ex", "fx", "gx", "hx"];
    for i in 0..n as i64 {
        b.push_row(&[
            Value::Int(i),
            Value::Int(i % 64),
            Value::Float((i * 7 % 1000) as f64 * 0.5),
            Value::str(tags[(i % 8) as usize]),
        ]);
    }
    let mut cat = Catalog::new();
    cat.add_table(b.finish()).unwrap();
    cat
}

/// 64-row build side keyed like `k.grp`.
fn build_side() -> Batch {
    let schema = Schema::from_pairs(&[("bk", DataType::Int), ("bw", DataType::Int)]);
    let rows = (0..64i64)
        .map(|i| vec![Value::Int(i), Value::Int(i * 11)])
        .collect();
    Batch::new(schema, rows)
}

/// Row-at-a-time baseline for the predicated scan, chunked at the morsel
/// granularity: materializes every row, then tests the predicate.
fn row_scan(
    cat: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    predicate: &Expr,
) -> Batch {
    let t = cat.table(table).expect("table exists");
    tracker.charge_seq_pages(params.data_pages(t.num_rows(), t.row_width_bytes()));
    tracker.charge_cpu_ops(t.num_rows() as u64);
    let bound = predicate.bind(t.schema()).expect("predicate binds");
    let parts = (0..t.num_rows())
        .step_by(MORSEL)
        .map(|start| {
            let mut rows = Vec::new();
            for rid in start..(start + MORSEL).min(t.num_rows()) {
                let row = t.row(rid as Rid);
                if rqo_expr::eval_bool(&bound, &row) {
                    rows.push(row);
                }
            }
            rows
        })
        .collect();
    Batch::from_parts(t.schema().clone(), parts)
}

/// Row-at-a-time baseline for the hash join: `Value`-keyed per-morsel
/// build maps merged in morsel order, then a per-morsel probe.
fn row_hash_join(
    tracker: &mut CostTracker,
    build: Batch,
    probe: Batch,
    build_key: &str,
    probe_key: &str,
) -> Batch {
    let schema = build.schema.join(&probe.schema, "l", "r");
    let bk = build.schema.expect_index(build_key);
    let pk = probe.schema.expect_index(probe_key);

    tracker.charge_hash_builds(build.len() as u64);
    let partials: Vec<HashMap<Value, Vec<usize>>> = build
        .rows
        .chunks(MORSEL)
        .enumerate()
        .map(|(m, chunk)| {
            let mut local: HashMap<Value, Vec<usize>> = HashMap::new();
            for (j, row) in chunk.iter().enumerate() {
                local
                    .entry(row[bk].clone())
                    .or_default()
                    .push(m * MORSEL + j);
            }
            local
        })
        .collect();
    let mut table: HashMap<Value, Vec<usize>> = HashMap::with_capacity(build.len());
    for partial in partials {
        for (key, mut indices) in partial {
            table.entry(key).or_default().append(&mut indices);
        }
    }

    tracker.charge_hash_probes(probe.len() as u64);
    let out: Vec<Vec<Value>> = probe
        .rows
        .chunks(MORSEL)
        .flat_map(|chunk| {
            let mut out = Vec::new();
            for prow in chunk {
                if let Some(matches) = table.get(&prow[pk]) {
                    for &bi in matches {
                        let mut row = build.rows[bi].clone();
                        row.extend(prow.iter().cloned());
                        out.push(row);
                    }
                }
            }
            out
        })
        .collect();
    tracker.charge_cpu_ops(out.len() as u64);
    Batch::new(schema, out)
}

/// Row-at-a-time baseline for grouped aggregation: per-morsel
/// `group → states` maps updated through [`AggState::update`] with one
/// `Value` dispatch per row and aggregate, merged in morsel order, then
/// finished and sorted by group key.
fn row_hash_aggregate(
    tracker: &mut CostTracker,
    input: Batch,
    group_by: &[String],
    aggregates: &[AggExpr],
) -> Vec<Vec<Value>> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema.expect_index(g))
        .collect();
    let agg_idx: Vec<Option<usize>> = aggregates
        .iter()
        .map(|a| a.column.as_ref().map(|c| input.schema.expect_index(c)))
        .collect();
    tracker.charge_hash_builds(input.len() as u64);
    let partials: Vec<HashMap<Vec<Value>, Vec<AggState>>> = input
        .rows
        .chunks(MORSEL)
        .map(|chunk| {
            let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
            for row in chunk {
                let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
                let states = groups
                    .entry(key)
                    .or_insert_with(|| aggregates.iter().map(|a| AggState::new(a.func)).collect());
                for (state, idx) in states.iter_mut().zip(&agg_idx) {
                    state.update(idx.map(|i| &row[i]));
                }
            }
            groups
        })
        .collect();
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    for partial in partials {
        for (key, states) in partial {
            match groups.entry(key) {
                Entry::Occupied(mut existing) => {
                    for (into, from) in existing.get_mut().iter_mut().zip(states) {
                        into.merge(from);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(states);
                }
            }
        }
    }
    let mut rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut key, states)| {
            key.extend(states.into_iter().map(AggState::finish));
            key
        })
        .collect();
    rows.sort_by(|a, b| a[..group_idx.len()].cmp(&b[..group_idx.len()]));
    tracker.charge_cpu_ops(rows.len() as u64);
    rows
}

fn main() {
    let args = Args::parse();
    let cat = build_catalog(args.rows);
    let params = CostParams::default();
    // One inline worker, fixed morsel size: measures kernel work at the
    // executor's chunk granularity without thread-pool scheduling noise.
    let opts = ExecOptions::with_threads(1).with_morsel_size(MORSEL);
    // ~5% selective: the row scan materializes every row before testing
    // the predicate, the columnar scan gathers only the survivors — the
    // access-pattern asymmetry the vectorized path exists for.
    let pred = Expr::col("val").lt(Expr::lit(25.0));
    let mut results = Vec::new();

    // --- filter: predicated scan, row vs columnar -------------------
    {
        let (mut row_ns, mut col_ns) = (0u128, 0u128);
        for round in 0..args.iters + 1 {
            let mut t = CostTracker::new();
            let start = Instant::now();
            let out = row_scan(&cat, &params, &mut t, "k", &pred);
            let ns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            let mut t = CostTracker::new();
            let start = Instant::now();
            let out = seq_scan(&cat, &params, &mut t, "k", Some(&pred), &opts).unwrap();
            let cns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            if round > 0 {
                // Round 0 is warmup.
                row_ns += ns;
                col_ns += cns;
            }
        }
        results.push(KernelResult {
            name: "filter",
            rows: args.rows,
            iters: args.iters,
            row_ns,
            col_ns,
        });
    }

    // Materialize the full table once as the input batch for the
    // batch-consuming kernels below.
    let mut sink = CostTracker::new();
    let input = seq_scan(&cat, &params, &mut sink, "k", None, &opts).unwrap();

    // --- hash_agg: grouped aggregation, row vs columnar -------------
    {
        let group = vec!["grp".to_string()];
        let aggs = vec![
            AggExpr::sum("val", "s"),
            AggExpr::count_star("n"),
            AggExpr::avg("val", "m"),
            AggExpr::min("val", "lo"),
            AggExpr::max("val", "hi"),
        ];
        let (mut row_ns, mut col_ns) = (0u128, 0u128);
        for round in 0..args.iters + 1 {
            let batch = input.clone();
            let mut t = CostTracker::new();
            let start = Instant::now();
            let out = row_hash_aggregate(&mut t, batch, &group, &aggs);
            let ns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            let batch = input.clone();
            let mut t = CostTracker::new();
            let start = Instant::now();
            let out = hash_aggregate(&mut t, batch, &group, &aggs, &opts).unwrap();
            let cns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            if round > 0 {
                row_ns += ns;
                col_ns += cns;
            }
        }
        results.push(KernelResult {
            name: "hash_agg",
            rows: args.rows,
            iters: args.iters,
            row_ns,
            col_ns,
        });
    }

    // --- hash_join: 64-row build, full-table probe ------------------
    {
        let build = build_side();
        let (mut row_ns, mut col_ns) = (0u128, 0u128);
        for round in 0..args.iters + 1 {
            let (b, p) = (build.clone(), input.clone());
            let mut t = CostTracker::new();
            let start = Instant::now();
            let out = row_hash_join(&mut t, b, p, "bk", "grp");
            let ns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            let (b, p) = (build.clone(), input.clone());
            let mut t = CostTracker::new();
            let start = Instant::now();
            let out = hash_join(&mut t, b, p, "bk", "grp", &opts).unwrap();
            let cns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            if round > 0 {
                row_ns += ns;
                col_ns += cns;
            }
        }
        results.push(KernelResult {
            name: "hash_join",
            rows: args.rows,
            iters: args.iters,
            row_ns,
            col_ns,
        });
    }

    // --- project: three-column reorder ------------------------------
    {
        let ordinals = [2usize, 1, 0];
        let schema = input.schema.project(&ordinals);
        let (mut row_ns, mut col_ns) = (0u128, 0u128);
        for round in 0..args.iters + 1 {
            let batch = input.clone();
            let start = Instant::now();
            // Row baseline, chunked at the same morsel granularity.  The
            // input batch is dropped inside the timed region, exactly as
            // the kernel (which consumes its input) pays for it.
            let parts: Vec<Vec<Vec<Value>>> = batch
                .rows
                .chunks(MORSEL)
                .map(|chunk| {
                    chunk
                        .iter()
                        .map(|row| ordinals.iter().map(|&i| row[i].clone()).collect())
                        .collect()
                })
                .collect();
            drop(batch);
            let out = Batch::from_parts(schema.clone(), parts);
            let ns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            let batch = input.clone();
            let start = Instant::now();
            let out = project_batch(batch, &ordinals, schema.clone(), &opts).unwrap();
            let cns = start.elapsed().as_nanos();
            std::hint::black_box(out);
            if round > 0 {
                row_ns += ns;
                col_ns += cns;
            }
        }
        results.push(KernelResult {
            name: "project",
            rows: args.rows,
            iters: args.iters,
            row_ns,
            col_ns,
        });
    }

    let gate = results
        .iter()
        .filter(|r| r.name == "filter" || r.name == "hash_agg")
        .map(KernelResult::speedup)
        .fold(0.0f64, f64::max);

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"kernels\",").unwrap();
    writeln!(json, "  \"rows\": {},", args.rows).unwrap();
    writeln!(json, "  \"morsel_size\": {MORSEL},").unwrap();
    writeln!(json, "  \"kernels\": [").unwrap();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"rows\": {}, \"iters\": {}, \"row_mrows_per_sec\": {:.2}, \"columnar_mrows_per_sec\": {:.2}, \"speedup\": {:.2}}}{comma}",
            r.name,
            r.rows,
            r.iters,
            r.mrows_per_sec(r.row_ns),
            r.mrows_per_sec(r.col_ns),
            r.speedup()
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"filter_or_agg_max_speedup\": {gate:.2}").unwrap();
    writeln!(json, "}}").unwrap();

    print!("{json}");
    std::fs::write(&args.out, &json).expect("write BENCH json");
    for r in &results {
        eprintln!(
            "{:9} {:6.1} Mrows/s row → {:6.1} Mrows/s columnar ({:.2}×)",
            r.name,
            r.mrows_per_sec(r.row_ns),
            r.mrows_per_sec(r.col_ns),
            r.speedup()
        );
    }
    eprintln!("wrote {}", args.out);
    assert!(
        gate >= 2.0,
        "columnar filter or hash_agg must be ≥ 2× the row baseline at morsel granularity (got {gate:.2}×)"
    );
}
