//! Query throughput of the `histql` TCP server: N concurrent client
//! connections issue a mixed workload (point, multipoint, interval, diff,
//! entity, stats, append) against one shared index for a fixed duration.
//!
//! ```text
//! cargo run --release -p bench --bin query_throughput -- \
//!     [--scale 0.2] [--memory] [--clients 8] [--seconds 5] \
//!     [--hot] [--cache 256] [--resp-cache 256] [--hot-points 4] \
//!     [--proto text|binary] [--shards 4] [--connections 1000,4000] \
//!     [--workers 4] [--request-timeout-ms 0] [--max-queue-depth 0] \
//!     [--batch 16]
//! ```
//!
//! `--batch N` switches to the transactional-ingest workload: all clients
//! append at the tail for the run duration, once as single-event `APPEND`
//! requests and once as N-event `APPEND BATCH` requests. The table (and
//! `BENCH_query_throughput.json`, mode `batch`) reports events/s and
//! requests/s for both, so the claim that batching amortizes the
//! per-request epoch bump, cache invalidation, and round trip is measured,
//! not asserted.
//!
//! `--hot` switches to the hot-point workload: every client hammers `GET
//! GRAPH AT t` over a small set of shared timestamps — the scenario the
//! two cache tiers exist for. The workload runs one pass per
//! configuration — snapshot cache off/on, response cache off/on, text vs
//! binary protocol — and reports each throughput, hit rates, and the
//! speedup against the text/snapshot-cache-on baseline (the PR 3 state),
//! so both the byte cache's and the binary protocol's wins are measured,
//! not asserted. `--proto` restricts the passes to one protocol (the
//! text/cache-on baseline always runs, for the speedup column).
//!
//! `--shards N` switches to the sharded mixed workload: half the clients
//! append at the tail while the other half hammer hot *historical* points,
//! once against a 1-shard serving layer (every session funnelled through
//! one `RwLock`) and once against N time-range shards behind the router.
//! The table reports append and read throughput for both, so the claim
//! that sharding unserializes writers from historical readers is measured,
//! not asserted. Sharded passes build one in-memory store per shard.
//!
//! `--connections N[,M,...]` switches to the connection-scaling workload.
//! The baseline pass drives the server with 8 blocking [`Client`] threads,
//! closed-loop. Each listed N then runs under open-loop load: one
//! load-generator thread multiplexing N simultaneous connections over the
//! same readiness poller the server uses, each connection keeping one
//! hot-point request in flight. The table (and `BENCH_connections.json`) reports qps plus
//! p50/p99 request latency per pass. This mode defaults to `--scale 0.05`
//! (a few-KiB reply) so it measures the serving core's per-connection
//! overhead rather than reply memcpy bandwidth; pass `--scale` to
//! override. The mixed and hot modes likewise emit
//! `BENCH_query_throughput.json` next to their tables.
//!
//! `--restart` switches to the durability workload: the sharded router is
//! built once and persisted to disk (`--wal-sync` selects the fsync
//! policy), then the time from a cold process start to the first answered
//! query is measured two ways — recovering the persisted deployment
//! (segment files + WAL replay) versus rebuilding the whole router from
//! the raw event trace. Cold-read latencies over a spread of historical
//! points follow on each, all caches empty. The table (and
//! `BENCH_durability.json`) reports both paths, so the claim that durable
//! restart beats a full rebuild is measured, not asserted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bench::json::{write_json, Json};
use bench::{dataset2, fresh_store, print_table, HarnessOptions};
use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager};
use server::{serve_sharded, Client, ServerConfig};
use tgraph::Timestamp;

const QUERY_CLASSES: [&str; 7] = [
    "point",
    "multipoint",
    "interval",
    "diff",
    "node",
    "stats",
    "append",
];

fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_value(name: &str, default: usize) -> usize {
    arg_str(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Deterministic per-thread generator (splitmix64), so runs are repeatable.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One hot-pass configuration: cache capacities, wire protocol, and
/// whether latency-histogram collection is on (the overhead guard turns
/// it off for one comparison pass).
struct HotPass {
    label: &'static str,
    snap_cache: usize,
    resp_cache: usize,
    binary: bool,
    metrics: bool,
}

/// Measurements from one hot pass.
struct HotResult {
    queries: u64,
    elapsed: f64,
    snap_hits: u64,
    snap_misses: u64,
    resp_hits: u64,
    resp_misses: u64,
    verb_latency: Json,
}

fn hit_rate(hits: u64, misses: u64) -> Option<f64> {
    (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64)
}

/// Snapshots `STATS METRICS` off a live server and distills the per-verb
/// latency histograms with traffic into JSON rows (count / p50 / p99 per
/// verb) for the bench artifacts.
fn verb_latency_json(addr: std::net::SocketAddr) -> Json {
    let lines = match Client::connect(addr).and_then(|mut probe| probe.send("STATS METRICS")) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("warning: STATS METRICS probe failed: {e}");
            return Json::Arr(Vec::new());
        }
    };
    let rows = lines
        .iter()
        .filter_map(|line| {
            // "M verb_us_<verb> hist count=N p50=N p90=N p99=N max=N sum=N"
            let rest = line.strip_prefix("M verb_us_")?;
            let mut parts = rest.split_whitespace();
            let verb = parts.next()?;
            let field = |name: &str| -> u64 {
                rest.split_whitespace()
                    .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            };
            (parts.next() == Some("hist") && field("count") > 0).then(|| {
                Json::obj(vec![
                    ("verb", Json::from(verb)),
                    ("count", Json::from(field("count"))),
                    ("p50_us", Json::from(field("p50"))),
                    ("p99_us", Json::from(field("p99"))),
                ])
            })
        })
        .collect();
    Json::Arr(rows)
}

/// `--slow-query-us N` passthrough: capture over-threshold requests in the
/// server's slow-query ring during the run (0 = off, the default).
fn slow_query_us_arg() -> u64 {
    arg_str("--slow-query-us")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `--request-timeout-ms N` (default 0 = off): per-request deadline on the
/// benched server, passed through so CI can smoke the overload-protection
/// path under a real workload.
fn request_timeout_ms_arg() -> u64 {
    arg_str("--request-timeout-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `--max-queue-depth N` (default 0 = unbounded): admission cap on the
/// benched server's worker queue.
fn max_queue_depth_arg() -> usize {
    arg_str("--max-queue-depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One pass of the hot-point workload: `clients` connections all issuing
/// `GET GRAPH AT t` over the same few `hot` timestamps for `seconds`,
/// in the pass's protocol and cache configuration.
fn run_hot_pass(
    ds: &datagen::Dataset,
    store: std::sync::Arc<dyn kvstore::KeyValueStore>,
    pass: &HotPass,
    clients: usize,
    seconds: usize,
    hot: &[i64],
) -> HotResult {
    let router = ShardedGraphManager::build(
        &ds.events,
        ShardedConfig::default().with_manager(
            GraphManagerConfig::default()
                .with_snapshot_cache(pass.snap_cache)
                .with_response_cache(pass.resp_cache),
        ),
        move |_| Arc::clone(&store),
    )
    .expect("index construction");
    let server = serve_sharded(
        router,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: clients + 2,
            metrics_enabled: pass.metrics,
            slow_query_us: slow_query_us_arg(),
            request_timeout_ms: request_timeout_ms_arg(),
            max_queue_depth: max_queue_depth_arg(),
            ..Default::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let binary = pass.binary;

    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let hot = hot.to_vec();
            thread::spawn(move || {
                let mut rng = Rng(0xFACADE ^ c as u64);
                let mut client = Client::connect(addr).expect("connect");
                if binary {
                    client.binary().expect("protocol switch");
                }
                let mut completed = 0u64;
                let mut issued = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = hot[rng.pick(hot.len())];
                    let request = format!("GET GRAPH AT {t} WITH +node:all");
                    if binary {
                        // Count frames without decoding them (payload =
                        // version byte + envelope; envelope tag 0 = Ok):
                        // the server-side cost is what is being measured.
                        match client.send_binary_raw(&request) {
                            Ok(payload) if payload.get(1) == Some(&0) => completed += 1,
                            Ok(_) | Err(_) => {}
                        }
                    } else {
                        match client.send(&request) {
                            Ok(lines) if lines.first().is_some_and(|l| l.starts_with("OK")) => {
                                completed += 1;
                            }
                            Ok(_) | Err(_) => {}
                        }
                    }
                    issued += 1;
                    if issued.is_multiple_of(64) {
                        // Sessions drop their references; with the cache on,
                        // the shared overlays stay warm for the next round.
                        let _ = if binary {
                            client.send_binary_raw("RELEASE ALL").map(|_| ())
                        } else {
                            client.send("RELEASE ALL").map(|_| ())
                        };
                    }
                }
                completed
            })
        })
        .collect();

    let started = Instant::now();
    thread::sleep(Duration::from_secs(seconds as u64));
    stop.store(true, Ordering::Relaxed);
    let completed: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let elapsed = started.elapsed().as_secs_f64();

    // Read the hit/miss counters off the server before it goes down. The
    // probe is a fresh text-mode session; `OK CACHE` carries the snapshot
    // cache's counters, the `RC` line the response cache's.
    let mut probe = Client::connect(addr).expect("stats connect");
    let lines = probe.send("STATS CACHE").expect("stats cache");
    let field = |prefix: &str, name: &str| -> u64 {
        lines
            .iter()
            .find(|l| l.starts_with(prefix))
            .and_then(|line| {
                line.split_whitespace()
                    .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            })
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    HotResult {
        queries: completed,
        elapsed,
        snap_hits: field("OK CACHE", "hits"),
        snap_misses: field("OK CACHE", "misses"),
        resp_hits: field("RC", "hits"),
        resp_misses: field("RC", "misses"),
        verb_latency: verb_latency_json(addr),
    }
}

fn run_hot(opts: &HarnessOptions, clients: usize, seconds: usize) {
    let cache = arg_value("--cache", 256);
    let resp_cache = arg_value("--resp-cache", 256);
    let proto = arg_str("--proto").map(|v| v.to_ascii_lowercase());
    if let Some(p) = &proto {
        assert!(
            p == "text" || p == "binary",
            "--proto takes 'text' or 'binary', got {p:?}"
        );
    }
    let hot_points = arg_value("--hot-points", 4).max(1);
    // Full scale (the mixed workload shrinks to 0.2×): the cache's win is
    // the skipped index traversal, so the history must be deep enough for
    // that traversal to be the dominant cost.
    let ds = dataset2(opts.scale);
    let start_t = ds.start_time().raw();
    let end_t = ds.end_time().raw();
    let span = (end_t - start_t).max(1);
    let hot: Vec<i64> = (0..hot_points)
        .map(|i| start_t + span * (i as i64 + 1) / (hot_points as i64 + 1))
        .collect();
    println!(
        "hot-point workload: {clients} clients x {seconds}s over {hot_points} \
         timestamps {hot:?}, snapshot cache {cache}, response cache {resp_cache}"
    );

    // The text/snapshot-cache-on/response-cache-off pass is the PR 3
    // baseline every speedup is measured against; it always runs.
    let all = [
        HotPass {
            label: "text cache-off",
            snap_cache: 0,
            resp_cache: 0,
            binary: false,
            metrics: true,
        },
        HotPass {
            label: "text",
            snap_cache: cache,
            resp_cache: 0,
            binary: false,
            metrics: true,
        },
        HotPass {
            label: "text+rc",
            snap_cache: cache,
            resp_cache,
            binary: false,
            metrics: true,
        },
        HotPass {
            label: "binary",
            snap_cache: cache,
            resp_cache: 0,
            binary: true,
            metrics: true,
        },
        HotPass {
            label: "binary+rc",
            snap_cache: cache,
            resp_cache,
            binary: true,
            metrics: true,
        },
    ];
    let passes: Vec<&HotPass> = match proto.as_deref() {
        Some("text") => all.iter().filter(|p| !p.binary).collect(),
        Some("binary") => all
            .iter()
            .filter(|p| p.binary || p.label == "text")
            .collect(),
        _ => all.iter().collect(),
    };

    let results: Vec<(&HotPass, HotResult)> = passes
        .into_iter()
        .map(|pass| {
            let store = fresh_store(opts, &format!("hot_{}", pass.label.replace('+', "_")));
            let result = run_hot_pass(&ds, store, pass, clients, seconds, &hot);
            (pass, result)
        })
        .collect();

    let baseline_qps = results
        .iter()
        .find(|(p, _)| p.label == "text")
        .map(|(_, r)| r.queries as f64 / r.elapsed)
        .unwrap_or(f64::MIN_POSITIVE);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(pass, r)| {
            let qps = r.queries as f64 / r.elapsed;
            let fmt_rate =
                |rate: Option<f64>| rate.map_or("-".into(), |x| format!("{:.1}%", x * 100.0));
            vec![
                pass.label.into(),
                r.queries.to_string(),
                format!("{qps:.0}"),
                fmt_rate(hit_rate(r.snap_hits, r.snap_misses)),
                fmt_rate(hit_rate(r.resp_hits, r.resp_misses)),
                format!("{:.2}x", qps / baseline_qps),
            ]
        })
        .collect();
    print_table(
        "hot-point throughput (speedup vs the text/cache-on baseline)",
        &[
            "config", "queries", "qps", "snap hit", "resp hit", "speedup",
        ],
        &rows,
    );

    // Overhead guard: rerun the baseline configuration with histogram
    // collection disabled and report the delta. The hot path records into
    // relaxed atomics only, so this should stay within the run-to-run
    // noise floor (the CI budget is a few percent).
    let guard = HotPass {
        label: "text metrics-off",
        snap_cache: cache,
        resp_cache: 0,
        binary: false,
        metrics: false,
    };
    let store = fresh_store(opts, "hot_metrics_off");
    let off = run_hot_pass(&ds, store, &guard, clients, seconds, &hot);
    let off_qps = off.queries as f64 / off.elapsed;
    let overhead_pct = (off_qps - baseline_qps) / off_qps.max(f64::MIN_POSITIVE) * 100.0;
    println!(
        "metrics overhead (text/cache-on): {baseline_qps:.0} qps instrumented vs \
         {off_qps:.0} qps with --no-metrics ({overhead_pct:+.1}%)"
    );

    let passes_json: Vec<Json> = results
        .iter()
        .map(|(pass, r)| {
            let opt_rate = |rate: Option<f64>| rate.map_or(Json::Null, Json::Num);
            Json::obj(vec![
                ("config", Json::from(pass.label)),
                ("queries", Json::from(r.queries)),
                ("qps", Json::from(r.queries as f64 / r.elapsed)),
                (
                    "snap_hit_rate",
                    opt_rate(hit_rate(r.snap_hits, r.snap_misses)),
                ),
                (
                    "resp_hit_rate",
                    opt_rate(hit_rate(r.resp_hits, r.resp_misses)),
                ),
                ("verb_latency_us", r.verb_latency.clone()),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("bench", Json::from("query_throughput")),
        ("mode", Json::from("hot")),
        ("clients", Json::from(clients)),
        ("seconds", Json::from(seconds)),
        ("scale", Json::from(opts.scale)),
        (
            "hot_points",
            Json::Arr(hot.iter().map(|&t| Json::Int(t)).collect()),
        ),
        ("passes", Json::Arr(passes_json)),
        (
            "metrics_overhead",
            Json::obj(vec![
                ("qps_metrics_on", Json::from(baseline_qps)),
                ("qps_metrics_off", Json::from(off_qps)),
                ("overhead_pct", Json::from(overhead_pct)),
            ]),
        ),
    ]);
    if let Err(e) = write_json("BENCH_query_throughput.json", &doc) {
        eprintln!("warning: could not write BENCH_query_throughput.json: {e}");
    }
}

/// Measurements from one sharded mixed-workload pass.
struct ShardedResult {
    shards: usize,
    appends: u64,
    reads: u64,
    elapsed: f64,
    snap_hits: u64,
    snap_misses: u64,
    historical_invalidations: u64,
}

/// One sharded-pass configuration: shard count, per-shard caches, and the
/// writer/reader split.
struct ShardedPass {
    shards: usize,
    cache: usize,
    resp_cache: usize,
    writers: usize,
    readers: usize,
}

/// One pass of the sharded mixed workload: `writers` connections append at
/// the tail while `readers` connections hammer hot historical points, all
/// against a `shards`-way time-range-sharded serving layer.
fn run_sharded_pass(
    ds: &datagen::Dataset,
    pass: &ShardedPass,
    seconds: usize,
    hot: &[i64],
) -> ShardedResult {
    let ShardedPass {
        shards,
        cache,
        resp_cache,
        writers,
        readers,
    } = *pass;
    let router = ShardedGraphManager::build_in_memory(
        &ds.events,
        ShardedConfig::default().with_shards(shards).with_manager(
            GraphManagerConfig::default()
                .with_snapshot_cache(cache)
                .with_response_cache(resp_cache),
        ),
    )
    .expect("sharded index construction");
    let shard_count = router.shard_count();
    let server = serve_sharded(
        router.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: writers + readers + 2,
            ..Default::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    // Appends must be globally non-decreasing; writers draw times from one
    // shared counter past the built history.
    let append_t = Arc::new(std::sync::atomic::AtomicI64::new(ds.end_time().raw() + 1));

    let write_workers: Vec<_> = (0..writers)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let append_t = Arc::clone(&append_t);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut completed = 0u64;
                let mut node = 2_000_000 + c as u64 * 1_000_000;
                while !stop.load(Ordering::Relaxed) {
                    let t = append_t.fetch_add(1, Ordering::Relaxed);
                    node += 1;
                    match client.send(&format!("APPEND NODE {t} {node}")) {
                        Ok(lines) if lines.first().is_some_and(|l| l.starts_with("OK")) => {
                            completed += 1;
                        }
                        Ok(_) | Err(_) => {}
                    }
                }
                completed
            })
        })
        .collect();
    let read_workers: Vec<_> = (0..readers)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let hot = hot.to_vec();
            thread::spawn(move || {
                let mut rng = Rng(0x5AD ^ c as u64);
                let mut client = Client::connect(addr).expect("connect");
                let mut completed = 0u64;
                let mut issued = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = hot[rng.pick(hot.len())];
                    match client.send(&format!("GET GRAPH AT {t} WITH +node:all")) {
                        Ok(lines) if lines.first().is_some_and(|l| l.starts_with("OK")) => {
                            completed += 1;
                        }
                        Ok(_) | Err(_) => {}
                    }
                    issued += 1;
                    if issued.is_multiple_of(64) {
                        let _ = client.send("RELEASE ALL");
                    }
                }
                completed
            })
        })
        .collect();

    let started = Instant::now();
    thread::sleep(Duration::from_secs(seconds as u64));
    stop.store(true, Ordering::Relaxed);
    let appends: u64 = write_workers.into_iter().map(|w| w.join().unwrap()).sum();
    let reads: u64 = read_workers.into_iter().map(|w| w.join().unwrap()).sum();
    let elapsed = started.elapsed().as_secs_f64();

    // Read counters off the router directly: summed snapshot-cache hit
    // rates plus the invalidations ingest caused on *historical* (non-tail)
    // shards — the number that must stay 0 under sharding.
    let infos = router.shard_infos();
    let historical_invalidations = infos
        .iter()
        .take(infos.len().saturating_sub(1))
        .map(|i| i.cache.invalidations)
        .sum();
    let overview = router.cache_overview();
    ShardedResult {
        shards: shard_count,
        appends,
        reads,
        elapsed,
        snap_hits: overview.stats.hits,
        snap_misses: overview.stats.misses,
        historical_invalidations,
    }
}

fn run_sharded(opts: &HarnessOptions, clients: usize, seconds: usize) {
    let shards = arg_value("--shards", 4).max(1);
    let cache = arg_value("--cache", 256);
    let resp_cache = arg_value("--resp-cache", 256);
    let hot_points = arg_value("--hot-points", 4).max(1);
    let writers = (clients / 2).max(1);
    let readers = (clients - writers).max(1);
    let ds = dataset2(opts.scale);
    let start_t = ds.start_time().raw();
    let end_t = ds.end_time().raw();
    // Hot points in the first half of the history: under sharding they live
    // on historical shards, far from the tail the writers hammer.
    let half = (end_t - start_t).max(1) / 2;
    let hot: Vec<i64> = (0..hot_points)
        .map(|i| start_t + half * (i as i64 + 1) / (hot_points as i64 + 1))
        .collect();
    println!(
        "sharded mixed workload: {writers} writers + {readers} readers x {seconds}s, \
         hot historical points {hot:?}, snapshot cache {cache}/shard, \
         response cache {resp_cache}/shard"
    );

    let mut passes = vec![1usize];
    if shards > 1 {
        passes.push(shards);
    }
    let results: Vec<ShardedResult> = passes
        .into_iter()
        .map(|n| {
            let pass = ShardedPass {
                shards: n,
                cache,
                resp_cache,
                writers,
                readers,
            };
            run_sharded_pass(&ds, &pass, seconds, &hot)
        })
        .collect();

    let base_append = results[0].appends as f64 / results[0].elapsed;
    let base_read = results[0].reads as f64 / results[0].elapsed;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let aps = r.appends as f64 / r.elapsed;
            let rps = r.reads as f64 / r.elapsed;
            vec![
                format!("{} shard(s)", r.shards),
                format!("{aps:.0}"),
                format!("{rps:.0}"),
                hit_rate(r.snap_hits, r.snap_misses)
                    .map_or("-".into(), |x| format!("{:.1}%", x * 100.0)),
                r.historical_invalidations.to_string(),
                format!("{:.2}x", aps / base_append.max(f64::MIN_POSITIVE)),
                format!("{:.2}x", rps / base_read.max(f64::MIN_POSITIVE)),
            ]
        })
        .collect();
    print_table(
        "sharded append/read throughput (speedup vs 1 shard)",
        &[
            "config",
            "append qps",
            "read qps",
            "snap hit",
            "hist inval",
            "append speedup",
            "read speedup",
        ],
        &rows,
    );
}

/// One multiplexed load-generator connection: a single request in flight,
/// reply bytes scanned chunk-by-chunk for the lone `END` terminator line.
///
/// Reply bytes are *not* accumulated — only the qps/latency numbers are
/// needed, so each read chunk is scanned in place and discarded. `tail`
/// carries the last four bytes across chunk boundaries so a straddling
/// `\nEND\n` is still seen; it is seeded with a single `\n` at issue time
/// so a reply beginning with `END` matches too. Keeping no per-connection
/// reply buffer matters at 1k+ connections: it is the difference between
/// a ~16 KiB shared scratch buffer and tens of MiB of cold per-connection
/// heap in the measurement loop.
struct LoadConn {
    stream: std::net::TcpStream,
    tail: [u8; 4],
    tail_len: usize,
    pending: Vec<u8>,
    pending_pos: usize,
    sent_at: Instant,
    /// The in-flight request is a `RELEASE ALL` housekeeping round, not a
    /// measured query.
    maintenance: bool,
    issued: u64,
    hot_idx: usize,
    interest: epoll::Interest,
}

impl LoadConn {
    fn has_pending(&self) -> bool {
        self.pending_pos < self.pending.len()
    }

    /// READABLE always (a reply may be arriving), WRITABLE only while part
    /// of the request is still unwritten.
    fn desired_interest(&self) -> epoll::Interest {
        if self.has_pending() {
            epoll::Interest::BOTH
        } else {
            epoll::Interest::READABLE
        }
    }

    /// Feeds one read chunk through the terminator scanner. Returns `true`
    /// when the chunk (or its straddle with the previous one) completes
    /// the in-flight reply with a lone `END` line.
    fn saw_reply_end(&mut self, chunk: &[u8]) -> bool {
        const TERM: &[u8; 5] = b"\nEND\n";
        // The straddle window: carried tail plus the first four new bytes.
        let mut window = [0u8; 8];
        window[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let head = chunk.len().min(4);
        window[self.tail_len..self.tail_len + head].copy_from_slice(&chunk[..head]);
        let done = window[..self.tail_len + head].windows(5).any(|w| w == TERM)
            || chunk.windows(5).any(|w| w == TERM);
        if !done {
            // Carry the last four bytes seen into the next chunk's window.
            if chunk.len() >= 4 {
                self.tail.copy_from_slice(&chunk[chunk.len() - 4..]);
                self.tail_len = 4;
            } else {
                let keep = (self.tail_len + chunk.len()).min(4);
                let from_tail = keep - chunk.len();
                self.tail
                    .copy_within(self.tail_len - from_tail..self.tail_len, 0);
                self.tail[from_tail..keep].copy_from_slice(chunk);
                self.tail_len = keep;
            }
        }
        done
    }
}

/// Measurements from one connection-scaling pass.
struct OpenLoopResult {
    /// How the load was driven: `blocking-threads` or `open-loop`.
    client: &'static str,
    connections: usize,
    completed: u64,
    elapsed: f64,
    p50_us: u64,
    p99_us: u64,
}

impl OpenLoopResult {
    fn qps(&self) -> f64 {
        self.completed as f64 / self.elapsed.max(f64::MIN_POSITIVE)
    }
}

/// The low-connection baseline: one blocking [`Client`] per connection on
/// its own OS thread, closed-loop over the hot points. The scaled rows use
/// the open-loop multiplexed client instead — floating thousands of
/// blocking client threads on one host would measure the load generator,
/// not the server.
fn run_blocking_clients(
    addr: std::net::SocketAddr,
    connections: usize,
    seconds: usize,
    hot: &[i64],
) -> OpenLoopResult {
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let hot = hot.to_vec();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies_us: Vec<u64> = Vec::new();
                let mut issued = 0u64;
                let mut hot_idx = c % hot.len();
                while !stop.load(Ordering::Relaxed) {
                    hot_idx = (hot_idx + 1) % hot.len();
                    let request = format!("GET GRAPH AT {}", hot[hot_idx]);
                    let sent = Instant::now();
                    match client.send(&request) {
                        Ok(lines) if lines.first().is_some_and(|l| l.starts_with("OK")) => {
                            latencies_us.push(sent.elapsed().as_micros() as u64);
                        }
                        Ok(_) | Err(_) => {}
                    }
                    issued += 1;
                    if issued.is_multiple_of(64) {
                        let _ = client.send("RELEASE ALL");
                    }
                }
                latencies_us
            })
        })
        .collect();
    let started = Instant::now();
    thread::sleep(Duration::from_secs(seconds as u64));
    stop.store(true, Ordering::Relaxed);
    let mut latencies_us: Vec<u64> = Vec::new();
    for w in workers {
        latencies_us.extend(w.join().expect("client thread"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let idx = ((latencies_us.len() as f64 * p) as usize).min(latencies_us.len() - 1);
        latencies_us[idx]
    };
    OpenLoopResult {
        client: "blocking-threads",
        connections,
        completed: latencies_us.len() as u64,
        elapsed,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

/// Runs `connections` simultaneous hot-point sessions against `addr` for
/// `seconds`, all multiplexed on this thread over the same readiness
/// poller the event server uses. Each connection keeps exactly one request
/// in flight (with a `RELEASE ALL` every 64th round to bound overlay
/// refcounts), so the offered load scales with the connection count.
fn run_open_loop(
    addr: std::net::SocketAddr,
    connections: usize,
    seconds: usize,
    hot: &[i64],
) -> OpenLoopResult {
    use epoll::{Events, Interest, Poller, Token};
    use std::io::{ErrorKind, Read, Write};

    let mut poller = Poller::new().expect("poller");
    let mut conns: Vec<Option<LoadConn>> = Vec::with_capacity(connections);
    for i in 0..connections {
        // Momentary backlog overflow while thousands of sockets connect is
        // expected; retry briefly rather than failing the pass.
        let mut attempts = 0;
        let stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    attempts += 1;
                    assert!(attempts < 100, "connect {i}: {e}");
                    thread::sleep(Duration::from_millis(10));
                }
            }
        };
        stream.set_nonblocking(true).expect("nonblocking");
        let _ = stream.set_nodelay(true);
        conns.push(Some(LoadConn {
            stream,
            tail: [0u8; 4],
            tail_len: 0,
            pending: Vec::new(),
            pending_pos: 0,
            sent_at: Instant::now(),
            maintenance: false,
            issued: 0,
            hot_idx: i % hot.len(),
            interest: Interest::READABLE,
        }));
    }

    let mut latencies_us: Vec<u64> = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds as u64);
    let mut completed = 0u64;

    let issue = |conn: &mut LoadConn, hot: &[i64]| {
        conn.issued += 1;
        conn.maintenance = conn.issued.is_multiple_of(64);
        let request = if conn.maintenance {
            "RELEASE ALL\n".to_string()
        } else {
            conn.hot_idx = (conn.hot_idx + 1) % hot.len();
            format!("GET GRAPH AT {}\n", hot[conn.hot_idx])
        };
        conn.pending = request.into_bytes();
        conn.pending_pos = 0;
        // Virtual preceding newline so a reply that *starts* with the
        // `END` line still matches the `\nEND\n` scanner.
        conn.tail = [b'\n', 0, 0, 0];
        conn.tail_len = 1;
        conn.sent_at = Instant::now();
    };

    let flush = |conn: &mut LoadConn| -> bool {
        while conn.pending_pos < conn.pending.len() {
            match conn.stream.write(&conn.pending[conn.pending_pos..]) {
                Ok(0) => return false,
                Ok(n) => conn.pending_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    };

    // Prime every connection with its first request, then register.
    for (i, slot) in conns.iter_mut().enumerate() {
        let conn = slot.as_mut().expect("fresh conn");
        issue(conn, hot);
        if !flush(conn) {
            *slot = None;
            continue;
        }
        let desired = conn.desired_interest();
        conn.interest = desired;
        use std::os::fd::AsRawFd;
        poller
            .register(conn.stream.as_raw_fd(), Token(i), desired)
            .expect("register");
    }

    let mut events = Events::new();
    // One shared read scratch: zeroing a fresh 16 KiB chunk per readiness
    // event would dominate the measurement loop at high event rates.
    let mut chunk = vec![0u8; 16 * 1024];
    'run: loop {
        let now = Instant::now();
        if now >= deadline {
            break 'run;
        }
        if poller.wait(&mut events, Some(deadline - now)).is_err() {
            break 'run;
        }
        for event in events.iter() {
            let i = event.token().0;
            let Some(conn) = conns.get_mut(i).and_then(|s| s.as_mut()) else {
                continue;
            };
            let mut dead = false;
            if event.is_writable() && !flush(conn) {
                dead = true;
            }
            if !dead && event.is_readable() {
                let mut done = false;
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => {
                            if conn.saw_reply_end(&chunk[..n]) {
                                // One request in flight: the terminator is
                                // the last byte the server will send.
                                done = true;
                                break;
                            }
                            if n < chunk.len() {
                                // Short read: skip the would-be EAGAIN; the
                                // level-triggered poller re-reports leftovers.
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if !dead && done && !conn.has_pending() {
                    if !conn.maintenance {
                        completed += 1;
                        latencies_us.push(conn.sent_at.elapsed().as_micros() as u64);
                    }
                    issue(conn, hot);
                    if !flush(conn) {
                        dead = true;
                    }
                }
            }
            if dead {
                use std::os::fd::AsRawFd;
                let _ = poller.deregister(conn.stream.as_raw_fd());
                conns[i] = None;
                continue;
            }
            let desired = conn.desired_interest();
            if desired != conn.interest {
                use std::os::fd::AsRawFd;
                if poller
                    .reregister(conn.stream.as_raw_fd(), Token(i), desired)
                    .is_ok()
                {
                    conn.interest = desired;
                }
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let idx = ((latencies_us.len() as f64 * p) as usize).min(latencies_us.len() - 1);
        latencies_us[idx]
    };
    OpenLoopResult {
        client: "open-loop",
        connections,
        completed,
        elapsed,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

/// The connection-scaling workload: a baseline of 8 blocking client
/// threads, then open-loop load at each requested connection count.
fn run_connections(opts: &HarnessOptions, seconds: usize) {
    let counts: Vec<usize> = arg_str("--connections")
        .expect("--connections")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    assert!(!counts.is_empty(), "--connections needs at least one count");
    let cache = arg_value("--cache", 256);
    let resp_cache = arg_value("--resp-cache", 256);
    let workers = arg_value("--workers", 4);
    let hot_points = arg_value("--hot-points", 4).max(1);
    // Connection scaling measures the serving core — accept/poll/dispatch
    // overhead per request — so the per-request payload is kept small
    // (a few KiB), like redis-benchmark's. `--scale` still overrides.
    let scale = if arg_str("--scale").is_some() {
        opts.scale
    } else {
        0.05
    };

    let max_conns = counts.iter().copied().max().unwrap_or(8).max(8);
    // fds: one per load-generator socket plus one per server-side socket,
    // plus headroom for the poller, waker, and listener.
    let counts: Vec<usize> = match epoll::raise_nofile_limit((2 * max_conns + 256) as u64) {
        Ok(limit) => {
            // Both sides of every connection live in this process, so the
            // hard fd cap bounds the feasible count; clamp rather than die
            // so a `--connections 10000` run still reports what fits.
            let ceiling = (limit.saturating_sub(256) / 2) as usize;
            counts
                .into_iter()
                .map(|n| {
                    if n > ceiling {
                        eprintln!(
                            "warning: clamping {n} connections to {ceiling} \
                             (fd limit {limit})"
                        );
                        ceiling
                    } else {
                        n
                    }
                })
                .collect()
        }
        Err(e) => {
            eprintln!("warning: could not raise fd limit: {e}");
            counts
        }
    };

    let ds = dataset2(scale);
    let start_t = ds.start_time().raw();
    let end_t = ds.end_time().raw();
    let span = (end_t - start_t).max(1);
    let hot: Vec<i64> = (0..hot_points)
        .map(|i| start_t + span * (i as i64 + 1) / (hot_points as i64 + 1))
        .collect();
    println!(
        "open-loop connection scaling: {seconds}s per pass over hot points {hot:?} \
         (scale {scale}), snapshot cache {cache}, response cache {resp_cache}, \
         {workers} worker(s)"
    );

    // Each pass probes STATS METRICS before its server goes down, so the
    // JSON artifact carries per-verb service latency alongside the
    // end-to-end request latency the load generator measures.
    let run_pass = |blocking: bool, n: usize| -> (OpenLoopResult, Json) {
        let router = ShardedGraphManager::build_in_memory(
            &ds.events,
            ShardedConfig::default().with_manager(
                GraphManagerConfig::default()
                    .with_snapshot_cache(cache)
                    .with_response_cache(resp_cache),
            ),
        )
        .expect("index construction");
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: n + 8,
            worker_threads: workers,
            slow_query_us: slow_query_us_arg(),
            request_timeout_ms: request_timeout_ms_arg(),
            max_queue_depth: max_queue_depth_arg(),
            ..Default::default()
        };
        let server = serve_sharded(router, config).expect("server start");
        let result = if blocking {
            run_blocking_clients(server.addr(), n, seconds, &hot)
        } else {
            run_open_loop(server.addr(), n, seconds, &hot)
        };
        let verbs = verb_latency_json(server.addr());
        (result, verbs)
    };

    let mut results = vec![run_pass(true, 8)];
    for &n in &counts {
        results.push(run_pass(false, n));
    }

    let baseline_qps = results[0].0.qps().max(f64::MIN_POSITIVE);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(r, _)| {
            vec![
                format!("{} @ {}", r.client, r.connections),
                r.completed.to_string(),
                format!("{:.0}", r.qps()),
                format!("{:.2}", r.p50_us as f64 / 1000.0),
                format!("{:.2}", r.p99_us as f64 / 1000.0),
                format!("{:.2}x", r.qps() / baseline_qps),
            ]
        })
        .collect();
    print_table(
        "hot-point throughput: open-loop load vs 8 blocking client threads",
        &["config", "queries", "qps", "p50 ms", "p99 ms", "speedup"],
        &rows,
    );

    let passes: Vec<Json> = results
        .iter()
        .map(|(r, verbs)| {
            Json::obj(vec![
                ("client", Json::from(r.client)),
                ("connections", Json::from(r.connections)),
                ("completed", Json::from(r.completed)),
                ("elapsed_s", Json::from(r.elapsed)),
                ("qps", Json::from(r.qps())),
                ("p50_us", Json::from(r.p50_us)),
                ("p99_us", Json::from(r.p99_us)),
                ("verb_latency_us", verbs.clone()),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("bench", Json::from("connections")),
        ("seconds", Json::from(seconds)),
        ("scale", Json::from(scale)),
        (
            "hot_points",
            Json::Arr(hot.iter().map(|&t| Json::Int(t)).collect()),
        ),
        ("workers", Json::from(workers)),
        ("passes", Json::Arr(passes)),
    ]);
    if let Err(e) = write_json("BENCH_connections.json", &doc) {
        eprintln!("warning: could not write BENCH_connections.json: {e}");
    }
}

/// Measurements from one append-ingest pass.
struct BatchResult {
    label: String,
    batch: usize,
    requests: u64,
    events: u64,
    elapsed: f64,
}

/// One pass of the ingest workload: every client appends at the tail for
/// `seconds`, issuing either single-event `APPEND`s (`batch == 1`) or
/// `batch`-event `APPEND BATCH` requests. Each batch draws one timestamp
/// from the shared counter, so batches stay chronological across clients.
fn run_batch_pass(
    ds: &datagen::Dataset,
    batch: usize,
    clients: usize,
    seconds: usize,
) -> BatchResult {
    let router = ShardedGraphManager::build_in_memory(&ds.events, ShardedConfig::default())
        .expect("index construction");
    let server = serve_sharded(
        router,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: clients + 2,
            ..Default::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let append_t = Arc::new(std::sync::atomic::AtomicI64::new(ds.end_time().raw() + 1));

    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let append_t = Arc::clone(&append_t);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut node = 3_000_000 + c as u64 * 1_000_000;
                let mut requests = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = append_t.fetch_add(1, Ordering::Relaxed);
                    let request = if batch <= 1 {
                        node += 1;
                        format!("APPEND NODE {t} {node}")
                    } else {
                        let specs: Vec<String> = (0..batch)
                            .map(|_| {
                                node += 1;
                                format!("NODE {t} {node}")
                            })
                            .collect();
                        format!("APPEND BATCH {}", specs.join(" ; "))
                    };
                    match client.send(&request) {
                        Ok(lines) if lines.first().is_some_and(|l| l.starts_with("OK")) => {
                            requests += 1;
                        }
                        Ok(_) | Err(_) => {}
                    }
                }
                requests
            })
        })
        .collect();

    let started = Instant::now();
    thread::sleep(Duration::from_secs(seconds as u64));
    stop.store(true, Ordering::Relaxed);
    let requests: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let elapsed = started.elapsed().as_secs_f64();
    BatchResult {
        label: if batch <= 1 {
            "APPEND x1".into()
        } else {
            format!("APPEND BATCH x{batch}")
        },
        batch: batch.max(1),
        requests,
        events: requests * batch.max(1) as u64,
        elapsed,
    }
}

/// `--batch N`: single-event appends vs N-event atomic batches, same
/// client count and duration, events/s side by side.
fn run_batch(opts: &HarnessOptions, clients: usize, seconds: usize) {
    let batch = arg_value("--batch", 16).max(2);
    let ds = dataset2(opts.scale * 0.2);
    println!(
        "ingest workload: {clients} clients x {seconds}s, single appends vs \
         {batch}-event atomic batches"
    );
    let results = [
        run_batch_pass(&ds, 1, clients, seconds),
        run_batch_pass(&ds, batch, clients, seconds),
    ];
    let base_eps = results[0].events as f64 / results[0].elapsed;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let eps = r.events as f64 / r.elapsed;
            vec![
                r.label.clone(),
                r.requests.to_string(),
                format!("{:.0}", r.requests as f64 / r.elapsed),
                format!("{eps:.0}"),
                format!("{:.2}x", eps / base_eps.max(f64::MIN_POSITIVE)),
            ]
        })
        .collect();
    print_table(
        "append ingest throughput (events/s speedup vs single appends)",
        &["config", "requests", "req/s", "events/s", "speedup"],
        &rows,
    );

    let passes: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("config", Json::from(r.label.as_str())),
                ("batch", Json::from(r.batch)),
                ("requests", Json::from(r.requests)),
                ("events", Json::from(r.events)),
                ("elapsed_s", Json::from(r.elapsed)),
                ("events_per_s", Json::from(r.events as f64 / r.elapsed)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("bench", Json::from("query_throughput")),
        ("mode", Json::from("batch")),
        ("clients", Json::from(clients)),
        ("seconds", Json::from(seconds)),
        ("scale", Json::from(opts.scale)),
        ("batch", Json::from(batch)),
        ("passes", Json::Arr(passes)),
        (
            "batch_speedup",
            Json::from(
                (results[1].events as f64 / results[1].elapsed) / base_eps.max(f64::MIN_POSITIVE),
            ),
        ),
    ]);
    if let Err(e) = write_json("BENCH_query_throughput.json", &doc) {
        eprintln!("warning: could not write BENCH_query_throughput.json: {e}");
    }
}

/// `--restart`: durable recovery vs full in-memory rebuild, measured from
/// a cold start to the first answered query, then over cold historical
/// reads. Runs in-process (no TCP) so the numbers isolate storage and
/// index construction rather than connection setup.
fn run_restart(opts: &HarnessOptions) {
    use historygraph::tgraph::AttrOptions;
    use historygraph::WalSyncPolicy;

    let shards = arg_value("--shards", 4).max(1);
    let wal_sync = arg_str("--wal-sync")
        .map(|v| WalSyncPolicy::parse(&v).expect("--wal-sync"))
        .unwrap_or(WalSyncPolicy::Always);
    let ds = dataset2(opts.scale * 0.2);
    let (start_t, end_t) = (ds.start_time().raw(), ds.end_time().raw());
    println!(
        "query_throughput --restart: scale={} shards={shards} wal-sync={wal_sync} ({} events)",
        opts.scale,
        ds.events.len()
    );
    let config = ShardedConfig::default().with_shards(shards);
    let dir = std::env::temp_dir().join(format!("bench-durability-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // One-time cost: build the router AND persist it (segments + WAL).
    let t0 = Instant::now();
    let durable = ShardedGraphManager::build_durable(&ds.events, config.clone(), &dir, wal_sync)
        .expect("durable build");
    let build_persist_ms = t0.elapsed().as_secs_f64() * 1e3;
    let info = durable.storage_info();
    drop(durable); // "process exit"

    // Cold probe points: a spread over the whole history, none repeated,
    // so every read pays the full fetch path on empty caches.
    let probes: Vec<i64> = (0..64)
        .map(|i| start_t + (end_t - start_t) * i / 63)
        .collect();
    let opts_all = AttrOptions::all();
    let measure = |router: &ShardedGraphManager| -> (f64, Vec<u64>) {
        let t0 = Instant::now();
        router
            .snapshot_at(Timestamp(probes[probes.len() / 2]), &opts_all)
            .expect("first query");
        let first_query_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut lat: Vec<u64> = probes
            .iter()
            .map(|&t| {
                let q = Instant::now();
                router.snapshot_at(Timestamp(t), &opts_all).expect("probe");
                q.elapsed().as_micros() as u64
            })
            .collect();
        lat.sort_unstable();
        (first_query_ms, lat)
    };
    let pct = |lat: &[u64], p: f64| -> u64 {
        let idx = ((lat.len() as f64 * p) as usize).min(lat.len() - 1);
        lat[idx]
    };

    // Path 1: restart = recover the persisted deployment.
    let t0 = Instant::now();
    let recovered = ShardedGraphManager::open(&dir, config.clone(), wal_sync).expect("recovery");
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (first_after_open_ms, open_lat) = measure(&recovered);
    let restart_total_ms = open_ms + first_after_open_ms;
    drop(recovered);

    // Path 2: rebuild = construct the same router from the raw trace (what
    // a restart has to do without durable storage).
    let t0 = Instant::now();
    let rebuilt = ShardedGraphManager::build_in_memory(&ds.events, config).expect("rebuild");
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (first_after_rebuild_ms, rebuild_lat) = measure(&rebuilt);
    let rebuild_total_ms = rebuild_ms + first_after_rebuild_ms;
    drop(rebuilt);
    std::fs::remove_dir_all(&dir).ok();

    let rows = vec![
        vec![
            "durable restart".to_string(),
            format!("{open_ms:.1}"),
            format!("{first_after_open_ms:.2}"),
            format!("{restart_total_ms:.1}"),
            format!("{}", pct(&open_lat, 0.5)),
            format!("{}", pct(&open_lat, 0.99)),
        ],
        vec![
            "in-memory rebuild".to_string(),
            format!("{rebuild_ms:.1}"),
            format!("{first_after_rebuild_ms:.2}"),
            format!("{rebuild_total_ms:.1}"),
            format!("{}", pct(&rebuild_lat, 0.5)),
            format!("{}", pct(&rebuild_lat, 0.99)),
        ],
    ];
    print_table(
        "restart to first query",
        &[
            "path",
            "startup ms",
            "first query ms",
            "total ms",
            "cold p50 us",
            "cold p99 us",
        ],
        &rows,
    );
    println!(
        "speedup: durable restart reaches its first answer {:.2}x faster than a full rebuild",
        rebuild_total_ms / restart_total_ms.max(0.001)
    );

    let json = Json::obj(vec![
        ("bench", Json::from("durability")),
        ("mode", Json::from("restart")),
        ("scale", Json::from(opts.scale)),
        ("shards", Json::from(shards)),
        ("wal_sync", Json::from(wal_sync.to_string().as_str())),
        ("events", Json::from(ds.events.len())),
        ("build_persist_ms", Json::from(build_persist_ms)),
        ("segments", Json::from(info.segments)),
        ("segment_bytes", Json::from(info.segment_bytes)),
        ("wal_bytes", Json::from(info.wal_bytes)),
        (
            "durable_restart",
            Json::obj(vec![
                ("startup_ms", Json::from(open_ms)),
                ("first_query_ms", Json::from(first_after_open_ms)),
                ("total_ms", Json::from(restart_total_ms)),
                ("cold_read_p50_us", Json::from(pct(&open_lat, 0.5))),
                ("cold_read_p99_us", Json::from(pct(&open_lat, 0.99))),
            ]),
        ),
        (
            "in_memory_rebuild",
            Json::obj(vec![
                ("startup_ms", Json::from(rebuild_ms)),
                ("first_query_ms", Json::from(first_after_rebuild_ms)),
                ("total_ms", Json::from(rebuild_total_ms)),
                ("cold_read_p50_us", Json::from(pct(&rebuild_lat, 0.5))),
                ("cold_read_p99_us", Json::from(pct(&rebuild_lat, 0.99))),
            ]),
        ),
        (
            "restart_speedup",
            Json::from(rebuild_total_ms / restart_total_ms.max(0.001)),
        ),
    ]);
    write_json("BENCH_durability.json", &json).expect("write BENCH_durability.json");
}

fn main() {
    let opts = HarnessOptions::from_args();
    let clients = arg_value("--clients", 8);
    let seconds = arg_value("--seconds", 5);

    if std::env::args().any(|a| a == "--restart") {
        run_restart(&opts);
        return;
    }
    if arg_str("--connections").is_some() {
        run_connections(&opts, seconds);
        return;
    }
    if arg_str("--batch").is_some() {
        run_batch(&opts, clients, seconds);
        return;
    }
    if arg_str("--shards").is_some() {
        run_sharded(&opts, clients, seconds);
        return;
    }
    if std::env::args().any(|a| a == "--hot") {
        run_hot(&opts, clients, seconds);
        return;
    }

    println!(
        "query_throughput: scale={} store={} clients={clients} duration={seconds}s",
        opts.scale,
        if opts.on_disk { "disk" } else { "memory" }
    );

    let ds = dataset2(opts.scale * 0.2);
    let start_t = ds.start_time().raw();
    let end_t = ds.end_time().raw();
    let store = fresh_store(&opts, "query_throughput");
    let router = ShardedGraphManager::build(&ds.events, ShardedConfig::default(), move |_| {
        Arc::clone(&store)
    })
    .expect("index construction");
    // Bind one key per client for the entity queries.
    let sample_nodes: Vec<u64> = {
        let snap = ds.snapshot_at(Timestamp((start_t + end_t) / 2));
        let mut ids: Vec<u64> = snap.node_ids().map(|n| n.raw()).collect();
        ids.sort_unstable();
        ids.truncate(clients.max(1));
        ids
    };

    let server = serve_sharded(
        router,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: clients + 2,
            slow_query_us: slow_query_us_arg(),
            ..Default::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let node = sample_nodes[c % sample_nodes.len()];
            thread::spawn(move || {
                let mut rng = Rng(0xC0FFEE ^ c as u64);
                let mut client = Client::connect(addr).expect("connect");
                let key = format!("bench{c}");
                client.send_ok(&format!("BIND {key} {node}")).unwrap();
                let span = (end_t - start_t).max(1);
                let mut counts = [0u64; QUERY_CLASSES.len()];
                let mut issued = 0u64;
                // Appends must use non-decreasing, post-history timestamps.
                let mut append_t = end_t + 1;
                while !stop.load(Ordering::Relaxed) {
                    let t1 = start_t + (rng.next() % span as u64) as i64;
                    let t2 = start_t + (rng.next() % span as u64) as i64;
                    let (lo, hi) = (t1.min(t2), t1.max(t2).max(t1.min(t2) + 1));
                    let class = match rng.pick(20) {
                        0..=7 => 0,   // 40% point
                        8..=11 => 1,  // 20% multipoint
                        12..=13 => 2, // 10% interval
                        14..=15 => 3, // 10% diff
                        16..=17 => 4, // 10% entity
                        18 => 5,      // 5% stats
                        _ => 6,       // 5% append
                    };
                    let request = match class {
                        0 => format!("GET GRAPH AT {t1} WITH +node:all"),
                        1 => format!("GET GRAPHS AT {lo}, {hi}"),
                        2 => format!("GET GRAPH BETWEEN {lo} AND {hi}"),
                        3 => format!("DIFF {hi} {lo}"),
                        4 => format!("NODE {key} AT {t1}"),
                        5 => "STATS".into(),
                        _ => {
                            append_t += 1;
                            format!(
                                "APPEND NODE {append_t} {}",
                                1_000_000 + rng.next() % 100_000
                            )
                        }
                    };
                    match client.send(&request) {
                        Ok(lines) if lines.first().is_some_and(|l| l.starts_with("OK")) => {
                            counts[class] += 1;
                        }
                        Ok(_) | Err(_) => {}
                    }
                    issued += 1;
                    if issued.is_multiple_of(64) {
                        // Bound pool growth: drop this session's overlays.
                        let _ = client.send("RELEASE ALL");
                    }
                }
                counts
            })
        })
        .collect();

    let started = Instant::now();
    thread::sleep(Duration::from_secs(seconds as u64));
    stop.store(true, Ordering::Relaxed);
    let all: Vec<[u64; QUERY_CLASSES.len()]> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();
    let elapsed = started.elapsed().as_secs_f64();

    let mut rows = Vec::new();
    let mut total = 0u64;
    for (i, class) in QUERY_CLASSES.iter().enumerate() {
        let n: u64 = all.iter().map(|c| c[i]).sum();
        total += n;
        rows.push(vec![
            class.to_string(),
            n.to_string(),
            format!("{:.0}", n as f64 / elapsed),
        ]);
    }
    rows.push(vec![
        "total".into(),
        total.to_string(),
        format!("{:.0}", total as f64 / elapsed),
    ]);
    print_table(
        "histql server throughput",
        &["class", "queries", "qps"],
        &rows,
    );

    let classes: Vec<Json> = QUERY_CLASSES
        .iter()
        .enumerate()
        .map(|(i, class)| {
            let n: u64 = all.iter().map(|c| c[i]).sum();
            Json::obj(vec![
                ("class", Json::from(*class)),
                ("queries", Json::from(n)),
                ("qps", Json::from(n as f64 / elapsed)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("bench", Json::from("query_throughput")),
        ("mode", Json::from("mixed")),
        ("clients", Json::from(clients)),
        ("seconds", Json::from(seconds)),
        ("scale", Json::from(opts.scale)),
        ("elapsed_s", Json::from(elapsed)),
        ("classes", Json::Arr(classes)),
        ("total_queries", Json::from(total)),
        ("total_qps", Json::from(total as f64 / elapsed)),
        ("verb_latency_us", verb_latency_json(addr)),
    ]);
    if let Err(e) = write_json("BENCH_query_throughput.json", &doc) {
        eprintln!("warning: could not write BENCH_query_throughput.json: {e}");
    }
}
