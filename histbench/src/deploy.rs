//! The deployment under test, configured exactly like
//! `histql_server --data-dir DIR --shards 4` with its default caches.

use std::path::{Path, PathBuf};
use std::time::Instant;

use datagen::{churn_trace, ChurnConfig, Dataset};
use historygraph::{GraphManagerConfig, ShardedConfig, ShardedGraphManager, WalSyncPolicy};
use server::{serve_sharded, ServerConfig, ServerHandle};

/// Dataset 2 at this scale (`bench::dataset2(0.5)`): 50,521 events.
pub const SCALE: f64 = 0.5;
pub const SHARDS: usize = 4;
/// The server's default per-shard snapshot and response cache sizes.
pub const CACHE_ENTRIES: usize = 128;
pub const WAL_SYNC: WalSyncPolicy = WalSyncPolicy::Always;

pub fn dataset() -> Dataset {
    churn_trace(&ChurnConfig::default().scaled(SCALE))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The router configuration; `shard_events` is the tail roll budget
/// (0 never rolls, the server default).
pub fn sharded_config(shard_events: usize) -> ShardedConfig {
    ShardedConfig::default()
        .with_shards(SHARDS)
        .with_shard_events(shard_events)
        .with_manager(
            GraphManagerConfig::default()
                .with_snapshot_cache(CACHE_ENTRIES)
                .with_response_cache(CACHE_ENTRIES),
        )
}

/// The serving configuration: the event core with one worker per core.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        worker_threads: nproc(),
        ..ServerConfig::default()
    }
}

pub fn serve(router: &ShardedGraphManager) -> ServerHandle {
    serve_sharded(router.clone(), server_config()).expect("bind a loopback port")
}

/// Builds the durable deployment in `dir` (replacing any previous one).
pub fn build(dataset: &Dataset, dir: &Path, shard_events: usize) -> ShardedGraphManager {
    std::fs::create_dir_all(dir).expect("create the data directory");
    ShardedGraphManager::build_durable(&dataset.events, sharded_config(shard_events), dir, WAL_SYNC)
        .expect("durable build")
}

/// Recovers the deployment in `dir`; returns the router and the time the
/// `open` call took.
pub fn open(dir: &Path, shard_events: usize) -> (ShardedGraphManager, f64) {
    let started = Instant::now();
    let router = ShardedGraphManager::open(dir, sharded_config(shard_events), WAL_SYNC)
        .expect("recover the durable deployment");
    (router, started.elapsed().as_secs_f64() * 1e3)
}

/// Bytes the deployment occupies on disk: sealed segments plus the WAL.
pub fn stored_bytes(router: &ShardedGraphManager) -> u64 {
    let info = router.storage_info();
    info.segment_bytes + info.wal_bytes
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: hands the heap's free pages back to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Resets the peak resident set (`VmHWM`) to the current one (`VmRSS`)
/// and returns that, in MiB. Free heap pages are handed back first, so a
/// later allocation that reuses them shows in the peak again.
pub fn reset_peak_rss() -> f64 {
    // SAFETY: malloc_trim only releases memory the allocator holds free.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
    status_mib("VmRSS:")
}

/// Peak resident set (`VmHWM`) since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// A scratch directory inside the checkout, removed on drop.
pub struct Workdir(pub PathBuf);

impl Workdir {
    pub fn new(root: &Path, label: &str) -> Workdir {
        let dir = root.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the work directory");
        Workdir(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
