//! Standalone `histql` snapshot server over a generated dataset.
//!
//! ```text
//! cargo run --release -p server --bin histql_server -- \
//!     [--addr 127.0.0.1:7171] [--toy | --churn] [--scale 1.0] \
//!     [--max-conns 64] [--cache 128] [--resp-cache 128] \
//!     [--resp-cache-bytes 0] [--workers 4] \
//!     [--shards 1] [--shard-events 0] [--no-metrics] \
//!     [--metrics-addr 127.0.0.1:9191] [--slow-query-us 0] \
//!     [--data-dir DIR] [--wal-sync always|interval[=ms]|off] \
//!     [--request-timeout-ms 0] [--max-queue-depth 0]
//! ```
//!
//! `--cache N` sizes each shard's snapshot cache (entries; 0 disables it):
//! repeated `GET GRAPH AT t` across sessions is served from one shared,
//! reference-counted pool overlay instead of recomputing per session.
//! `--resp-cache N` sizes the rendered-response byte cache on top of it:
//! hot point replies are served as pre-framed bytes (text or binary, per
//! the session's `PROTOCOL`) with zero per-request rendering.
//! `--resp-cache-bytes B` additionally caps that cache's total payload
//! bytes per shard (0 = entry count only); the least recently used entries
//! are evicted until the cache fits.
//!
//! The server is event-driven: one reactor thread multiplexes all
//! connections, `--workers N` threads execute requests, and concurrent
//! identical point queries are coalesced into single renders (`STATS
//! SERVER` shows the counters).
//!
//! `--shards N` splits the serving layer into N time-range shards behind a
//! router (equi-width over the built history): reads route to the shard
//! owning their time, multipoint queries fan out in parallel, and `APPEND`s
//! go to the tail shard only — historical shards (and their caches) are
//! immutable. `--shard-events M` rolls a fresh tail shard once the tail
//! holds M events (0 = never roll). `STATS SHARDS` reports the layout.
//!
//! Observability (see `docs/OBSERVABILITY.md`): per-verb and per-phase
//! latency histograms are collected by default (`STATS METRICS` reports
//! them; `--no-metrics` turns collection off). `--metrics-addr A` binds a
//! Prometheus-style plaintext `GET /metrics` scrape endpoint on `A`, and
//! `--slow-query-us N` captures requests slower than N µs into the ring
//! drained by `STATS SLOW`.
//!
//! Durability (see `docs/STORAGE.md`): `--data-dir DIR` persists the
//! router to `DIR` — sealed shards as immutable segment files, the tail
//! behind a write-ahead log fsynced per `--wal-sync` (default `always`).
//! When `DIR` already holds a deployment the server *recovers* it (the
//! dataset flags are ignored) and `STATS STORAGE` reports the recovery;
//! otherwise it builds the dataset and persists it there.
//!
//! Overload protection (see `docs/RELIABILITY.md`):
//! `--request-timeout-ms N` refuses requests whose queue wait exceeded the
//! deadline with `ERR deadline exceeded` (service overruns are counted but
//! complete), and `--max-queue-depth N` sheds requests arriving over a full
//! worker queue with `ERR overloaded`. Both default to 0 (off) and surface
//! in `STATS METRICS` / `GET /metrics` as `deadline_exceeded_total` and
//! `requests_shed_total`.
//!
//! Prints the bound address on stdout, then serves until killed. Talk to it
//! with any line client:
//!
//! ```text
//! $ nc 127.0.0.1 7171
//! GET GRAPH AT 6 WITH +node:all
//! OK GRAPH t=6 nodes=3 edges=2
//! ...
//! END
//! ```

use historygraph::datagen::{churn_trace, toy_trace, ChurnConfig};
use historygraph::{
    is_durable_dir, GraphManagerConfig, ShardedConfig, ShardedGraphManager, WalSyncPolicy,
};
use server::{serve_sharded, ServerConfig};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7171".into());
    let max_connections = arg_value("--max-conns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let scale: f64 = arg_value("--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let cache: usize = arg_value("--cache")
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let resp_cache: usize = arg_value("--resp-cache")
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let resp_cache_bytes: u64 = arg_value("--resp-cache-bytes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let workers: usize = arg_value("--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let shards: usize = arg_value("--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    let shard_events: usize = arg_value("--shard-events")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let metrics_enabled = !std::env::args().any(|a| a == "--no-metrics");
    let metrics_addr = arg_value("--metrics-addr");
    let slow_query_us: u64 = arg_value("--slow-query-us")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let request_timeout_ms: u64 = arg_value("--request-timeout-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let max_queue_depth: usize = arg_value("--max-queue-depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let toy = std::env::args().any(|a| a == "--toy");
    let data_dir = arg_value("--data-dir");
    let wal_sync = arg_value("--wal-sync")
        .map(|v| WalSyncPolicy::parse(&v).expect("--wal-sync"))
        .unwrap_or(WalSyncPolicy::Always);

    let sharded_config = ShardedConfig::default()
        .with_shards(shards)
        .with_shard_events(shard_events)
        .with_manager(
            GraphManagerConfig::default()
                .with_snapshot_cache(cache)
                .with_response_cache(resp_cache)
                .with_response_cache_bytes(resp_cache_bytes),
        );
    let router = match &data_dir {
        Some(dir) if is_durable_dir(dir) => {
            eprintln!("recovering durable deployment from {dir} (wal-sync {wal_sync})...");
            let router = ShardedGraphManager::open(dir, sharded_config, wal_sync)
                .expect("recovery from --data-dir");
            let info = router.storage_info();
            eprintln!(
                "recovered {} segment(s) + WAL ({} bytes) in {} ms{}",
                info.segments,
                info.wal_bytes,
                info.recovery_ms,
                if info.torn_truncations > 0 {
                    format!(" — truncated a torn tail ({} bytes)", info.torn_bytes)
                } else {
                    String::new()
                }
            );
            router
        }
        _ => {
            let (events, label) = if toy {
                (toy_trace().events, "toy trace".to_string())
            } else {
                let ds = churn_trace(&ChurnConfig::default().scaled(scale * 0.1));
                (ds.events, format!("churn trace (scale {scale})"))
            };
            eprintln!(
                "building index over a {label} ({} events, {shards} shard(s), snapshot \
                 cache {cache}/shard, response cache {resp_cache}/shard)...",
                events.len()
            );
            match &data_dir {
                Some(dir) => {
                    eprintln!("persisting to {dir} (wal-sync {wal_sync})...");
                    std::fs::create_dir_all(dir).expect("create --data-dir");
                    ShardedGraphManager::build_durable(&events, sharded_config, dir, wal_sync)
                        .expect("durable index construction")
                }
                None => ShardedGraphManager::build_in_memory(&events, sharded_config)
                    .expect("index construction"),
            }
        }
    };
    let infos = router.shard_infos();
    // Computed without touching cold shards, so a recovered deployment
    // reaches its banner (and its first query) after building only the tail.
    let (start, end) = router.history_range().expect("non-empty history");
    let config = ServerConfig {
        addr,
        max_connections,
        worker_threads: workers,
        metrics_enabled,
        metrics_addr,
        slow_query_us,
        request_timeout_ms,
        max_queue_depth,
        ..Default::default()
    };
    let server = serve_sharded(router, config).expect("bind");
    println!(
        "histql server on {} — history [{start}, {end}], {} shard(s){}",
        server.addr(),
        infos.len(),
        if data_dir.is_some() { ", durable" } else { "" }
    );
    if let Some(addr) = server.metrics_addr() {
        println!("metrics scrape endpoint on http://{addr}/metrics");
    }
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
