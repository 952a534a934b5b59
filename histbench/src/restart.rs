//! The `restart` phase: recover the deployment built in setup, serve it,
//! and answer first at the tail, then once on every historical shard.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::deploy;
use crate::gen::ATTRS;
use crate::net::{is_ok, Conn};
use crate::reference::TextKey;

#[derive(Default)]
pub struct RestartResult {
    pub open_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,
    pub first_answer_ms: Vec<f64>,
    pub all_shards_ms: Vec<f64>,
    pub cycles: usize,
    /// Cycles after which some shard was still not hydrated.
    pub cycles_not_fully_hydrated: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The historical probe times of each cycle (the traced run replays
    /// them).
    pub probes: Vec<Vec<i64>>,
}

/// One seeded probe time inside each historical shard's range.
pub fn probe_times(rng: &mut StdRng, bounds: &[(i64, i64)]) -> Vec<i64> {
    bounds
        .iter()
        .map(|&(lo, hi)| lo + rng.gen_range(0..(hi - lo).max(1)))
        .collect()
}

/// `[lower, upper)` of every historical shard, from the router's layout.
pub fn historical_bounds(
    router: &historygraph::ShardedGraphManager,
    start: i64,
) -> Vec<(i64, i64)> {
    let infos = router.shard_infos();
    infos[..infos.len() - 1]
        .iter()
        .map(|s| {
            (
                s.lower.map_or(start, |t| t.raw()),
                s.upper.expect("historical shards are bounded").raw(),
            )
        })
        .collect()
}

/// Runs restart cycles until `budget` has elapsed (at least one), adding
/// to `res`.
pub fn run(
    dir: &Path,
    key: &TextKey,
    start: i64,
    end: i64,
    rng: &mut StdRng,
    budget: Duration,
    res: &mut RestartResult,
) {
    let began = Instant::now();
    let first = res.cycles;
    while res.cycles == first || began.elapsed() < budget {
        let opened = Instant::now();
        let (router, open_ms) = deploy::open(dir, 0);
        res.open_ms.push(open_ms);
        res.recovery_ms
            .push(router.storage_info().recovery_ms as f64);
        let bounds = historical_bounds(&router, start);
        let probes = probe_times(rng, &bounds);
        let server = deploy::serve(&router);
        let mut conn = Conn::connect(server.addr()).expect("connect");
        let mut ok_all = true;
        for (i, t) in std::iter::once(end)
            .chain(probes.iter().copied())
            .enumerate()
        {
            res.attempted += 1;
            let reply = conn.text(&format!("GET GRAPH AT {t} WITH {ATTRS}"));
            let ms = opened.elapsed().as_secs_f64() * 1e3;
            match reply {
                Ok(r) if is_ok(&r, false) && r == key.point(t) => {
                    if i == 0 {
                        res.first_answer_ms.push(ms);
                    }
                }
                _ => {
                    res.failed += 1;
                    ok_all = false;
                }
            }
        }
        if ok_all {
            res.all_shards_ms.push(opened.elapsed().as_secs_f64() * 1e3);
        }
        if router
            .health_info()
            .shards
            .iter()
            .any(|s| s.state != "ready")
        {
            res.cycles_not_fully_hydrated += 1;
        }
        drop(conn);
        drop(server);
        drop(router);
        res.probes.push(probes);
        res.cycles += 1;
    }
}
