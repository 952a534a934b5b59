//! `histbench`: the repository's benchmark. See `README.md` beside this
//! crate for the workloads, the metric catalogue and how to run it.
//!
//! ```text
//! histbench --workload cold-read|hot-ingest|restart --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run builds the durable 4-shard deployment (three times, for
//! `setup_s`), then runs all three phases — cold reads, restarts, hot
//! reads with ingest — so every end-to-end metric is reported on every
//! workload. The workload names the phase that gets 40% of the measuring
//! time (`slice` in `main` gives the others' shares) and, with
//! `--trace 1`, the phase whose request stream the traced in-process run
//! replays.

mod cold;
mod deploy;
mod gen;
mod hot;
mod net;
mod reference;
mod restart;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::deploy::Workdir;
use crate::reference::{Reference, TextKey};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdRead,
    HotIngest,
    Restart,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold-read" => Some(Workload::ColdRead),
            "hot-ingest" => Some(Workload::HotIngest),
            "restart" => Some(Workload::Restart),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {:?}", args[i]))?;
        let value = args.get(i + 1).ok_or(format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
        i += 2;
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?).ok_or("unknown --workload")?;
    let seed = get("seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How it was read, e.g. "p99 of n=1200".
    pub note: String,
}

pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn reading_note(r: &stats::Reading) -> String {
    format!("p{} of n={}", (r.pct * 10.0).round() / 10.0, r.n)
}

fn p(samples: &[f64], pct: f64, name: &'static str, unit: &'static str) -> Metric {
    match stats::percentile(samples, pct) {
        Some(r) => metric(name, r.value, unit, reading_note(&r)),
        None => metric(name, f64::NAN, unit, "no samples"),
    }
}

/// Whether one validity condition holds; printed either way.
fn validity(ok: bool, what: String) -> bool {
    println!("validity {}: {what}", if ok { "ok  " } else { "FAIL" });
    ok
}

/// Rounds the phases are interleaved over: the machine's speed drifts by
/// tens of percent over seconds, and interleaving spreads every phase
/// over the whole run instead of one contiguous stretch.
const ROUNDS: u32 = 4;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("histbench: {e}");
            eprintln!("usage: histbench --workload cold-read|hot-ingest|restart --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let workers = deploy::nproc();
    let connections = workers.clamp(1, 2);
    // Each phase's share of the measuring time, split evenly over the
    // rounds: 40% for the workload's own phase. Every metric needs enough
    // samples on every workload, so the rest is shared, except that R
    // beside W, whose own latencies are not bounded, gets only 25% when it
    // is not the workload's phase (the other phase gets 35%).
    let slice = |w: Workload| {
        let s = Duration::from_secs(args.seconds.max(1));
        let percent = if w == args.workload {
            40
        } else if args.workload == Workload::HotIngest {
            30
        } else if w == Workload::HotIngest {
            25
        } else {
            35
        };
        s * percent / 100 / ROUNDS
    };
    let root = std::env::current_dir()
        .expect("working directory")
        .join(".bench_data");
    let work = Workdir::new(&root, "run");
    let dirs: Vec<PathBuf> = ["cold", "restart", "hot"]
        .iter()
        .map(|d| work.path(d))
        .collect();

    // The answer key, computed before any timed setup.
    let dataset = deploy::dataset();
    let reference = Reference::build(&dataset.events);
    let key = TextKey::new(&reference);
    let times = reference.times();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut valid = true;

    // Setup, three times, one deployment per phase: generate the trace,
    // build it durably, serve it, answer once. Each setup's footprint is
    // its peak resident set above the process's resident set before it.
    let mut setup_s = Vec::new();
    let mut footprint_mib = Vec::new();
    let mut live = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        let baseline = deploy::reset_peak_rss();
        let t0 = Instant::now();
        let ds = deploy::dataset();
        let shard_events = if i == 2 { hot::SHARD_EVENTS } else { 0 };
        let router = deploy::build(&ds, dir, shard_events);
        let server = deploy::serve(&router);
        let mut conn = net::Conn::connect(server.addr()).expect("connect");
        attempted += 1;
        let first = conn.text(&format!(
            "GET GRAPH AT {} WITH {}",
            reference.end,
            gen::ATTRS
        ));
        if !first.is_ok_and(|r| r == key.point(reference.end)) {
            failed += 1;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        footprint_mib.push(deploy::peak_rss_mib() - baseline);
        live.push((router, server));
    }
    let (hot_router, hot_server) = live.pop().expect("hot deployment");
    drop(live.pop()); // the restart phase reopens its directory
    let (cold_router, cold_server) = live.pop().expect("cold deployment");
    let built_stored = deploy::stored_bytes(&cold_router);
    let events = dataset.events.len() as f64;
    println!(
        "setup: {} events, {} shards, wal-sync always, caches {}+{} entries/shard, \
         {workers} server workers, {connections} load connections, nproc {workers}",
        dataset.events.len(),
        cold_router.shard_count(),
        deploy::CACHE_ENTRIES,
        deploy::CACHE_ENTRIES
    );

    // The hot deployment.
    let shards_before = hot_router.shard_count();
    let tail_lower = hot_router
        .shard_infos()
        .last()
        .and_then(|s| s.lower)
        .expect("tail bound");
    let hot_times = hot::hot_times(&reference, tail_lower.raw());
    let sealed_before: Vec<_> = hot_router.shard_infos()[..shards_before - 1].to_vec();
    let mut hot = hot::Hot::start(
        hot_server.addr(),
        &reference,
        &hot_times,
        args.seed,
        slice(Workload::HotIngest) * ROUNDS,
    );

    // The measured rounds.
    let mut cold = cold::ColdResult::default();
    let mut rs = restart::RestartResult::default();
    let mut cold_rng = gen::stream(args.seed, "cold");
    let mut restart_rng = gen::stream(args.seed, "restart");
    for _ in 0..ROUNDS {
        cold::run(
            cold_server.addr(),
            &cold_router,
            &key,
            &times,
            &mut cold_rng,
            slice(Workload::ColdRead),
            connections,
            &mut cold,
        );
        restart::run(
            &dirs[1],
            &key,
            reference.start,
            reference.end,
            &mut restart_rng,
            slice(Workload::Restart),
            &mut rs,
        );
        hot.beside(slice(Workload::HotIngest));
    }
    // So far the hot server has served only the reference rung beside W;
    // then R alone climbs the ladder and sends the uncapped burst probe.
    hot.res.beside_metrics = trace::stats_metrics(hot_server.addr());
    hot.ladder();
    hot.burst(hot_server.addr());
    let hot = hot.finish(hot_server.addr(), &reference);
    failed += cold.failed + rs.failed + hot.failed;
    attempted += cold.attempted + rs.attempted + hot.attempted;
    let burst_answered_share = hot.burst_answered as f64 / hot.burst_sent.max(1) as f64;
    println!(
        "probe pipelined burst: {} of {} requests answered within {} s{}",
        hot.burst_answered,
        hot.burst_sent,
        hot::BURST_DRAIN.as_secs(),
        if hot.burst_answered < hot.burst_sent {
            " (known server defect: buffered request lines left unparsed; not counted in failed)"
        } else {
            ""
        }
    );

    // Validity conditions.
    let cold_cache = cold_router.cache_overview();
    valid &= validity(
        cold_cache.stats.hits == 0 && cold_cache.response.hits == 0,
        format!(
            "cold-read cache hits: snapshot {} of {}, response {} of {} (want 0)",
            cold_cache.stats.hits,
            cold_cache.stats.hits + cold_cache.stats.misses,
            cold_cache.response.hits,
            cold_cache.response.hits + cold_cache.response.misses
        ),
    );
    valid &= validity(
        rs.cycles_not_fully_hydrated == 0,
        format!(
            "restart: {} of {} cycles hydrated every shard",
            rs.cycles - rs.cycles_not_fully_hydrated,
            rs.cycles
        ),
    );
    let rolls = hot_router.shard_count() - shards_before;
    let sealed_after = hot_router.shard_infos();
    let (mut r_hits, mut r_lookups) = (0u64, 0u64);
    for (b, a) in sealed_before.iter().zip(&sealed_after) {
        r_hits += a.response.hits - b.response.hits;
        r_lookups += (a.response.hits + a.response.misses) - (b.response.hits + b.response.misses);
    }
    let r_hit_ratio = r_hits as f64 / r_lookups.max(1) as f64;
    valid &= validity(
        r_hit_ratio >= 0.99,
        format!("hot-ingest R response-cache hit ratio {r_hit_ratio:.4} over {r_lookups} lookups (want ~1)"),
    );
    let roll_share = rolls as f64 / hot.batches_acked.max(1) as f64;
    valid &= validity(
        roll_share >= 0.01,
        format!(
            "hot-ingest rolls: {rolls} of {} batches ({:.1}%, want >= 1%)",
            hot.batches_acked,
            roll_share * 100.0
        ),
    );
    valid &= validity(
        hot.final_visible,
        format!(
            "hot-ingest: all {} acked batches visible at t={}",
            hot.batches_acked, hot.last_acked
        ),
    );
    for (i, r) in hot.rungs.iter().chain(&hot.reference_rung).enumerate() {
        println!(
            "hot {} {:>6.0}/s: sent {:>6} p50 {:>9.1} us p99 {:>10.1} us ({}) lateness p99 {:>7.1} us backlog {} {}",
            if i < hot.rungs.len() { "rung  " } else { "beside" },
            r.rung.rate,
            r.sent,
            r.p50_us,
            r.p99.value,
            reading_note(&r.p99),
            r.lateness_p99_us,
            r.rung.backlog_end,
            if stats::rung_passes(&r.rung, hot::P99_LIMIT_US) { "pass" } else { "fail" }
        );
    }
    let rungs: Vec<stats::Rung> = hot.rungs.iter().map(|r| r.rung.clone()).collect();
    let capacity = stats::capacity(&rungs, hot::P99_LIMIT_US).unwrap_or(0.0);

    // The traced run: the workload's own stream, in process.
    let mut layer = match (args.trace, args.workload) {
        (false, _) => Vec::new(),
        (true, Workload::ColdRead) => trace::cold(&cold_router, &cold_server, &cold, &dataset),
        (true, Workload::HotIngest) => trace::hot(&hot_router, &hot, &reference, capacity),
        (true, Workload::Restart) => trace::restart(&dirs[1], &rs, &reference),
    };
    if args.trace {
        layer.push(metric(
            "server.pipelined_answered_share",
            burst_answered_share,
            "ratio",
            format!(
                "{} of {} pipelined hot GETs answered within {} s",
                hot.burst_answered,
                hot.burst_sent,
                hot::BURST_DRAIN.as_secs()
            ),
        ));
    }
    let stored_per_event = if args.workload == Workload::HotIngest {
        deploy::stored_bytes(&hot_router) as f64 / (events + hot.events_acked as f64)
    } else {
        built_stored as f64 / events
    };
    drop((cold_server, cold_router, hot_server, hot_router));

    let e2e = vec![
        metric(
            "setup_s",
            stats::median(&setup_s).expect("3 setups"),
            "s",
            "median of 3 setups",
        ),
        metric(
            "peak_rss_mb",
            stats::median(&footprint_mib).expect("3 setups"),
            "MiB",
            format!(
                "median of 3 setups' VmHWM above VmRSS before each: {:.1?}",
                footprint_mib
            ),
        ),
        p(&cold.point_ms, 99.0, "cold_point_p99_ms", "ms"),
        p(&cold.multi_ms, 50.0, "cold_multipoint_p50_ms", "ms"),
        metric(
            "cold_snapshots_per_s",
            cold.snapshots as f64 / cold.busy_s.max(1e-9),
            "1/s",
            format!(
                "{} snapshots in {:.2} s, {} passes",
                cold.snapshots, cold.busy_s, cold.passes
            ),
        ),
        p(&rs.first_answer_ms, 50.0, "restart_first_answer_ms", "ms"),
        p(&rs.all_shards_ms, 50.0, "restart_all_shards_ms", "ms"),
        metric(
            "stored_bytes_per_event",
            stored_per_event,
            "B",
            if args.workload == Workload::HotIngest {
                "after ingest"
            } else {
                "as built"
            },
        ),
    ];
    // Printed, but not bounded in BENCHMARK.json: a share that is 0 on
    // every correct run (the burst probe is not in it), and tails whose
    // spread across seeds on the 2-core machine exceeded any allowed bound
    // (see README).
    let unbounded = [
        metric(
            "failed_share",
            (failed + hot.unanswered) as f64 / attempted.max(1) as f64,
            "ratio",
            format!(
                "{failed} wrong or refused + {} unanswered of {attempted} operations",
                hot.unanswered
            ),
        ),
        p(&cold.point_ms, 50.0, "cold_point_p50_ms", "ms"),
        p(&hot.reference_us, 50.0, "hot_read_p50_us", "us"),
        p(&hot.reference_us, 99.0, "hot_read_p99_us", "us"),
        p(&hot.tail_ms, 50.0, "tail_read_p50_ms", "ms"),
        p(&hot.append_ms, 50.0, "append_batch_p50_ms", "ms"),
        p(&hot.append_ms, 99.0, "append_batch_p99_ms", "ms"),
        metric(
            "hot_read_capacity_qps",
            capacity,
            "1/s",
            format!("R-only ladder, p99 limit {} us", hot::P99_LIMIT_US),
        ),
    ];
    let shown = if args.trace { &layer } else { &e2e };
    for m in &e2e {
        println!(
            "e2e   {:<28} {:>14.4} {:<5} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for m in &unbounded {
        println!(
            "info  {:<28} {:>14.4} {:<5} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for m in &layer {
        println!(
            "layer {:<32} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    // Correct: every operation was answered, and answered right, and every
    // validity condition held. The burst probe's unanswered requests are
    // its reading, not failed operations.
    let correct =
        failed == 0 && hot.unanswered == 0 && valid && shown.iter().all(|m| m.value.is_finite());
    println!(
        "workload {:?} seed {} seconds {} trace {} nproc {workers} server_workers {workers} wall {:.1} s",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        process_start.elapsed().as_secs_f64()
    );
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed + hot.unanswered,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
