//! The `cold-read` phase: a closed loop on text connections asking for
//! snapshots that no cache holds.
//!
//! The trace's history has only 72 whole times, fewer than one shard's
//! 128-entry caches, so "never repeated" cannot hold for a whole run.
//! The stream is therefore cut into passes that each use every time once;
//! between passes both sessions `RELEASE ALL` and the benchmark purges
//! every shard's caches (`GraphManager::release_all`), outside the timed
//! requests. Within a pass every request misses both caches.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use historygraph::ShardedGraphManager;
use rand::rngs::StdRng;

use crate::gen::{cold_pass, ColdReq};
use crate::net::{is_ok, Conn};
use crate::reference::TextKey;

#[derive(Default)]
pub struct ColdResult {
    pub point_ms: Vec<f64>,
    pub multi_ms: Vec<f64>,
    /// Snapshots delivered (each member of a multipoint counts).
    pub snapshots: u64,
    /// Wall time spent inside passes (purges excluded).
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    /// The requests actually sent, pass by pass (the traced run replays
    /// them).
    pub stream: Vec<Vec<ColdReq>>,
}

/// Drops every cached snapshot and reply and every overlay on every shard.
/// Only valid when no session holds a reference (after `RELEASE ALL`).
pub fn purge_caches(router: &ShardedGraphManager) {
    for shard in router.shard_handles().expect("every shard hydrated") {
        shard.write().release_all();
    }
}

/// Runs cold passes until `budget` has elapsed (at least one), adding to
/// `res`. `rng` carries the stream across slices.
#[allow(clippy::too_many_arguments)]
pub fn run(
    addr: SocketAddr,
    router: &ShardedGraphManager,
    key: &TextKey,
    times: &[i64],
    rng: &mut StdRng,
    budget: Duration,
    connections: usize,
    res: &mut ColdResult,
) {
    let result = Mutex::new(std::mem::take(res));
    let pass: Mutex<Vec<ColdReq>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(connections);
    let started = Instant::now();
    let busy = Mutex::new(Duration::ZERO);
    purge_caches(router);
    *pass.lock().unwrap() = cold_pass(rng, times);
    let rng = Mutex::new(rng);
    std::thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| {
                let mut conn = Conn::connect(addr).expect("connect");
                let mut reply = Vec::with_capacity(1 << 20);
                loop {
                    let pass_started = Instant::now();
                    let reqs = pass.lock().unwrap().clone();
                    let mut local = ColdResult::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        reply.clear();
                        let t0 = Instant::now();
                        let sent = conn
                            .send(&req.line())
                            .and_then(|_| conn.read_text(&mut reply));
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        local.attempted += 1;
                        let correct = sent.is_ok()
                            && is_ok(&reply, false)
                            && match req {
                                ColdReq::Point(t) => reply == key.point(*t),
                                ColdReq::Multi(ts) => key.check_multi(&reply, ts),
                            };
                        if !correct {
                            local.failed += 1;
                            if sent.is_err() {
                                break;
                            }
                            continue;
                        }
                        local.snapshots += req.snapshots() as u64;
                        match req {
                            ColdReq::Point(_) => local.point_ms.push(ms),
                            ColdReq::Multi(_) => local.multi_ms.push(ms),
                        }
                    }
                    let pass_busy = pass_started.elapsed();
                    local.attempted += 1;
                    if !conn.text("RELEASE ALL").is_ok_and(|r| is_ok(&r, false)) {
                        local.failed += 1;
                    }
                    {
                        let mut res = result.lock().unwrap();
                        res.point_ms.extend(local.point_ms);
                        res.multi_ms.extend(local.multi_ms);
                        res.snapshots += local.snapshots;
                        res.attempted += local.attempted;
                        res.failed += local.failed;
                    }
                    let mut b = busy.lock().unwrap();
                    *b = (*b).max(pass_busy);
                    drop(b);
                    if barrier.wait().is_leader() {
                        let mut res = result.lock().unwrap();
                        res.busy_s += busy.lock().unwrap().as_secs_f64();
                        *busy.lock().unwrap() = Duration::ZERO;
                        res.passes += 1;
                        res.stream.push(std::mem::take(&mut *pass.lock().unwrap()));
                        drop(res);
                        purge_caches(router);
                        if started.elapsed() >= budget {
                            done.store(true, Ordering::Relaxed);
                        } else {
                            *pass.lock().unwrap() = cold_pass(&mut rng.lock().unwrap(), times);
                            next.store(0, Ordering::Relaxed);
                        }
                    }
                    barrier.wait();
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
    });
    *res = result.into_inner().unwrap();
}
