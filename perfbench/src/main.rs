//! `rqo-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|point_churn|ingest_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process sets up a TPC-H-like catalog plus the star schema, one
//! engine, one in-process `QueryService` and one loopback `NetServer`,
//! then drives the chosen workload with two closed-loop clients for
//! `--seconds`, checking every reply against a reference computed before
//! timing.  `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! half the time untraced and half traced and reports per-layer metrics
//! (see `trace.rs`).  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod load;
mod stats;
mod trace;
mod world;

use std::time::Instant;

use rqo_stats::{SynopsisRepository, TableSketches};

use crate::stats::{mean, median, percentile, Metrics};
use crate::world::{Workload, World};

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Batches a read-only workload inserts after its timed phase, so that
/// it too reports the insert metrics (uncontended).
const WRITE_SERIES_BATCHES: usize = 80;
/// Traced batches appended after a read-only workload's traced phase.
const WRITE_PROBE_BATCHES: usize = 6;
/// Repetitions of the statistics-rebuild probes in a traced run.
const STATS_PROBE_REPS: usize = 3;
/// The synopsis sample size and seed `Engine::new` uses.
const SYNOPSIS_SAMPLE: usize = 500;
const SYNOPSIS_SEED: u64 = 0xD5;
/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

const USAGE: &str = "usage: rqo-perfbench --workload <paper_sweep|point_churn|ingest_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The tail percentiles each workload reports as `query_tail_ms` and
/// `insert_tail_ms`, fixed so that a faster build compares the same ones.
/// Each leaves at least ten samples beyond it at today's rates in a
/// 20-second run; the query tails stop at p95 because higher ones swing
/// with the host's scheduling noise by more than the bound.
fn tails(workload: Workload) -> (f64, f64) {
    match workload {
        Workload::PaperSweep | Workload::PointChurn => (0.95, 0.85),
        Workload::IngestMix => (0.90, 0.85),
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous stack down before timing the next one.
        drop(stack.take());
        let t = Instant::now();
        let mut world = World::build(args.workload, args.seed);
        let clients = load::clients(&mut world, args.workload, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        stack = Some((world, clients));
    }
    let (mut world, mut clients) = stack.expect("at least one set-up");

    let mut m = Metrics::default();
    let phase = if args.trace {
        traced(&args, &mut world, &mut clients, &mut m)
    } else {
        untraced(&args, &mut world, &mut clients, &setup_s, &mut m)
    };
    drop(clients);
    drop(world);

    for e in &phase.errors {
        eprintln!("failure: {e}");
    }
    let failed_share = phase.failed as f64 / phase.attempted.max(1) as f64;
    println!(
        "failed_share = {failed_share} ({} of {})",
        phase.failed, phase.attempted
    );
    m.print_table();
    let correct = phase.failed == 0 && phase.attempted > 0 && m.complete();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        phase.attempted,
        phase.failed,
        m.json()
    );
}

/// The end-to-end run: the workload for `--seconds`, then, on a
/// read-only workload, the idle write series.
fn untraced(
    args: &Args,
    world: &mut World,
    clients: &mut [load::Client],
    setup_s: &[f64],
    m: &mut Metrics,
) -> load::Phase {
    let mut p = load::run(world, clients, args.seconds, false);
    let w = match args.workload {
        Workload::IngestMix => None,
        _ => Some(load::writes(world, clients, WRITE_SERIES_BATCHES, false)),
    };
    let (qt, it) = tails(args.workload);
    let (insert_ms, rows, write_s) = match &w {
        Some(w) => (&w.insert_ms, w.rows_ingested, w.elapsed_s),
        None => (&p.insert_ms, p.rows_ingested, p.elapsed_s),
    };
    m.put("setup_s", median(setup_s), "s");
    m.put("query_p50_ms", median(&p.query_ms), "ms");
    m.put("query_tail_ms", percentile(&p.query_ms, qt), "ms");
    m.put(
        "queries_per_s",
        p.query_ms.len() as f64 / p.elapsed_s,
        "1/s",
    );
    m.put("insert_p50_ms", median(insert_ms), "ms");
    m.put("insert_tail_ms", percentile(insert_ms, it), "ms");
    m.put("rows_ingested_per_s", rows as f64 / write_s, "rows/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "{}: {} queries in {:.2} s (tail p{}), {} inserts in {:.2} s (tail p{}); set-ups {setup_s:.3?} s",
        args.name,
        p.query_ms.len(),
        p.elapsed_s,
        qt * 100.0,
        insert_ms.len(),
        write_s,
        it * 100.0
    );
    if let Some(w) = w {
        p.add_checks(w);
    }
    p
}

/// The traced run: half the time untraced (the baseline for
/// `trace.overhead_ms`), half traced, then the write-path and
/// statistics probes.  Fills the per-layer metrics, prints where the
/// time of a request and of a batch goes, and writes the spans out.
fn traced(
    args: &Args,
    world: &mut World,
    clients: &mut [load::Client],
    m: &mut Metrics,
) -> load::Phase {
    let half = args.seconds / 2.0;
    let mut phase = load::run(world, clients, half, false);
    let untraced_p50 = median(&phase.query_ms);

    let service0 = world.service.stats();
    let cache0 = world.engine.cache_stats();
    let mut traced = load::run(world, clients, half, true);
    let service1 = world.service.stats();
    let cache1 = world.engine.cache_stats();
    let traced_p50 = median(&traced.query_ms);
    if args.workload != Workload::IngestMix {
        let mut probe = load::writes(world, clients, WRITE_PROBE_BATCHES, true);
        traced.logs.append(&mut probe.logs);
        traced.add_checks(probe);
    }
    let real = match args.workload {
        Workload::PaperSweep => "service.session",
        _ => "net.run",
    };
    let mut summary = trace::Summary::default();
    for log in &traced.logs {
        summary.add(log, real);
    }
    let path = format!("{TRACE_DIR}/{}-seed{}.tsv", args.name, args.seed);
    if let Err(e) = trace::write_tsv(&path, &traced.logs) {
        eprintln!("could not write {path}: {e}");
    }

    // Statistics rebuilds, timed directly with the engine's own sample
    // size and seed.
    let catalog = world.engine.catalog();
    let lineitem = catalog.table("lineitem").expect("generated");
    let mut seed_ms = Vec::new();
    let mut synopsis_ms = Vec::new();
    for _ in 0..STATS_PROBE_REPS {
        let t = Instant::now();
        std::hint::black_box(TableSketches::seeded_from_table(
            lineitem,
            catalog.partitioning("lineitem").map(|p| &**p),
            rqo_stats::sketch::DEFAULT_PRECISION,
            SYNOPSIS_SAMPLE,
            SYNOPSIS_SEED,
        ));
        seed_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(SynopsisRepository::build_all(
            &catalog,
            SYNOPSIS_SAMPLE,
            SYNOPSIS_SEED,
        ));
        synopsis_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    let values = |map: &std::collections::HashMap<&str, Vec<f64>>, name: &str| {
        map.get(name).cloned().unwrap_or_default()
    };
    let d = |name: &str| median(&values(&summary.dur_us, name));
    let own = |name: &str| median(&values(&summary.self_us, name));
    let s = |name: &str| median(&values(&summary.samples, name));

    m.put("net.roundtrip_us", d("net.run"), "us");
    m.put("net.wire_us", own("net.run"), "us");
    m.put("net.insert_roundtrip_ms", d("net.insert") / 1e3, "ms");
    m.put("proto.request_encode_us", d("proto.request_encode"), "us");
    m.put("proto.request_decode_us", d("proto.request_decode"), "us");
    m.put("proto.response_encode_us", d("proto.response_encode"), "us");
    m.put("proto.reply_bytes", s("proto.reply_bytes"), "bytes");
    m.put("service.session_us", d("service.session"), "us");
    m.put("service.admission_us", own("service.session"), "us");
    let admitted = service1.admitted - service0.admitted;
    m.put(
        "service.queued_share",
        (service1.queued - service0.queued) as f64 / admitted.max(1) as f64,
        "share",
    );
    m.put("service.peak_queued", service1.peak_queued as f64, "count");
    m.put("engine.run_us", d("engine.run"), "us");
    m.put("engine.insert_ms", d("engine.insert") / 1e3, "ms");
    m.put(
        "engine.replan_after_insert_us",
        d("engine.replan_after_insert"),
        "us",
    );
    m.put("cache.lookup_us", d("cache.lookup"), "us");
    let lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    m.put(
        "cache.hit_rate",
        (cache1.hits - cache0.hits) as f64 / lookups.max(1) as f64,
        "share",
    );
    m.put("cache.entries", cache1.entries as f64, "count");
    m.put(
        "cache.invalidations",
        (cache1.epoch_invalidations - cache0.epoch_invalidations) as f64,
        "count",
    );
    m.put("optimizer.plan_us", d("optimizer.plan"), "us");
    m.put("optimizer.plan_cost_sum", world.plan_cost_sum_ms, "sim_ms");
    m.put(
        "estimator.calls_per_plan",
        s("estimator.calls_per_plan"),
        "count",
    );
    m.put("estimator.us_per_plan", s("estimator.us_per_plan"), "us");
    m.put("exec.us", d("exec"), "us");
    // Means, not medians: most requests of a workload use only some
    // operator kinds, and the means add up to the executor's time.
    for name in [
        "exec.scan_us",
        "exec.index_us",
        "exec.join_us",
        "exec.agg_us",
    ] {
        m.put(name, mean(&values(&summary.samples, name)), "us");
    }
    m.put("exec.rows_in", s("exec.rows_in"), "count");
    m.put("exec.morsels", s("exec.morsels"), "count");
    m.put(
        "exec.peak_hash_entries",
        s("exec.peak_hash_entries"),
        "count",
    );
    m.put("storage.append_ms", d("storage.append") / 1e3, "ms");
    m.put(
        "storage.catalog_clone_ms",
        d("storage.catalog_clone") / 1e3,
        "ms",
    );
    m.put(
        "stats.sketch_observe_ms",
        d("stats.sketch_observe") / 1e3,
        "ms",
    );
    m.put("stats.sketch_seed_ms", median(&seed_ms), "ms");
    m.put("stats.synopsis_build_ms", median(&synopsis_ms), "ms");
    m.put("trace.overhead_ms", traced_p50 - untraced_p50, "ms");

    println!("query latency by layer ({real} and the calls under it, mean per request):");
    for (name, us, share) in summary.attribution() {
        println!("  {name:<28} {us:>12.1} us {:>6.1}%", share * 100.0);
    }
    let batch = mean(&values(&summary.dur_us, "net.insert"));
    println!(
        "insert batch over the wire, mean {:.2} ms; inside it:",
        batch / 1e3
    );
    for name in [
        "engine.insert",
        "storage.append",
        "storage.catalog_clone",
        "stats.sketch_observe",
    ] {
        let us = mean(&values(&summary.dur_us, name));
        println!(
            "  {name:<28} {:>12.3} ms {:>6.1}%",
            us / 1e3,
            us / batch * 100.0
        );
    }
    eprintln!(
        "{}: traced {} requests, {} spans written to {path}; p50 untraced {untraced_p50:.3} ms, traced {traced_p50:.3} ms",
        args.name,
        traced.query_ms.len(),
        summary.spans
    );
    phase.add_checks(traced);
    phase
}
