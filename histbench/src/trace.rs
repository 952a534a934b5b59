//! The traced run: the phase's seeded requests replayed in process, once
//! through `Executor::execute_framed` (untraced) and once split into the
//! calls the executor makes, one span per call. Spans are kept in memory
//! and written to `.bench_data/spans-<workload>.jsonl` at the end.
//!
//! Untraced and split executions of each request alternate which goes
//! first, so warm CPU caches favour neither; the split reply must be
//! byte-identical to the untraced one.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use historygraph::{ShardedGraphManager, WireFormat};
use histql::{Executor, MetricEntry, MetricValue, Response};
use kvstore::stats::StatsSnapshot;
use kvstore::{KeyValueStore, MemStore, StoreKey, StoreResult};
use tgraph::{AttrOptions, Snapshot, Timestamp};

use crate::cold::{purge_caches, ColdResult};
use crate::gen::{BatchGen, ColdReq, ATTRS};
use crate::hot::HotResult;
use crate::net::Conn;
use crate::reference::{graph_line, model_reply, Reference, ALL_ATTRS};
use crate::restart::{historical_bounds, RestartResult};
use crate::stats::{self, Interval};
use crate::{deploy, metric, Metric};

/// Every per-layer metric, in report order, with its unit. A workload
/// that does not exercise a layer reports 0 for it ("not exercised").
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("server.queue_wait_us.p99", "us"),
    ("server.fast_path_share", "ratio"),
    ("server.io_us.p50", "us"),
    ("histql.parse_us.p50", "us"),
    ("histql.execute_us.p50", "us"),
    ("histql.execute_us.p99", "us"),
    ("histql.render_us.p50", "us"),
    ("histql.reply_bytes.p50", "B"),
    ("sharded.route_us.p50", "us"),
    ("sharded.query_skew", "ratio"),
    ("sharded.rolls", "count"),
    ("sharded.roll_ms.p50", "ms"),
    ("sharded.hydrate_ms.tail", "ms"),
    ("sharded.hydrate_ms.historical", "ms"),
    ("cache.snapshot_hit_ratio", "ratio"),
    ("cache.response_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("manager.append_batch_us.p50", "us"),
    ("manager.append_batch_us.p99", "us"),
    ("manager.normalized_share", "ratio"),
    ("shared.read_wait_us.p99", "us"),
    ("shared.write_wait_us.p99", "us"),
    ("durable.open_ms", "ms"),
    ("durable.recovery_ms", "ms"),
    ("durable.wal_fsyncs_per_batch", "count"),
    ("durable.segment_bytes", "B"),
    ("durable.wal_bytes", "B"),
    ("deltagraph.plan_us.p50", "us"),
    ("deltagraph.retrieve_us.p50", "us"),
    ("deltagraph.retrieve_us.p99", "us"),
    ("deltagraph.multipoint_us.p50", "us"),
    ("deltagraph.path_edges.p50", "count"),
    ("deltagraph.cost_model_ratio", "ratio"),
    ("kvstore.gets_per_point", "count"),
    ("kvstore.bytes_read_per_point", "B"),
    ("kvstore.get_us_per_point", "us"),
    ("graphpool.overlay_us.p50", "us"),
    ("graphpool.release_us.p50", "us"),
    ("graphpool.memory_bytes", "B"),
    ("loadgen.lateness_us.p99", "us"),
    ("loadgen.backlog_max", "count"),
    ("loadgen.capacity_qps", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.residual_us.p50", "us"),
];

/// Collected per-layer values, keyed by metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, String)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, (value, note.into()));
    }

    fn pct(&mut self, name: &'static str, samples: &[f64], pct: f64) {
        if let Some(r) = stats::percentile(samples, pct) {
            let note = format!("p{} of n={}", (r.pct * 10.0).round() / 10.0, r.n);
            self.set(name, r.value, note);
        }
    }

    fn finish(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| match self.0.get(name) {
                Some((v, note)) => metric(name, *v, unit, note.clone()),
                None => metric(name, 0.0, unit, "not exercised by this workload"),
            })
            .collect()
    }
}

/// One span: a timed call into one layer.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
}

/// Spans of the whole traced run, in memory until the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        end - span.start_us
    }

    /// Runs `f` inside a child span of `parent`; returns its result and µs.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let out = f();
        let us = self.close(id);
        (out, us)
    }

    /// Self time of every span with this name.
    fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: BTreeMap<usize, Vec<Interval>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(Interval {
                    start: s.start_us,
                    end: s.end_us,
                });
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let span = Interval {
                    start: s.start_us,
                    end: s.end_us,
                };
                stats::self_time(span, children.get(&i).map_or(&[], |v| v.as_slice()))
            })
            .collect()
    }

    /// Durations of every span with this name.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    fn write(&self, path: &Path) {
        let write = || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (i, s) in self.spans.iter().enumerate() {
                writeln!(
                    out,
                    "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}, \"request\": {}}}",
                    s.name,
                    s.start_us,
                    s.end_us,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )?;
            }
            out.flush()
        };
        match write() {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }
}

fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn opts() -> AttrOptions {
    AttrOptions::parse(ATTRS).expect("valid options")
}

/// `STATS METRICS` of the server at `addr`.
pub fn stats_metrics(addr: std::net::SocketAddr) -> Vec<MetricEntry> {
    let mut conn = Conn::connect(addr).expect("connect");
    conn.use_binary().expect("binary");
    conn.metrics().expect("STATS METRICS")
}

/// The server-side counters the event core exports over `STATS METRICS`.
fn server_metrics(entries: &[MetricEntry], layers: &mut Layers) {
    let get = |name: &str| entries.iter().find(|e| e.name == name).map(|e| e.value);
    if let Some(MetricValue::Histogram(h)) = get("phase_us_queue_wait") {
        layers.set(
            "server.queue_wait_us.p99",
            h.p99 as f64,
            format!(
                "phase_us_queue_wait p99 of n={} (log-bucket upper bound)",
                h.count
            ),
        );
    }
    if let (Some(MetricValue::Counter(fast)), Some(MetricValue::Histogram(points))) =
        (get("path_fast_total"), get("verb_us_get_graph_at"))
    {
        layers.set(
            "server.fast_path_share",
            fast as f64 / points.count.max(1) as f64,
            format!("{fast} of {} GET GRAPH AT", points.count),
        );
    }
}

/// Cache and shard counters of a router after a phase.
fn router_counters(router: &ShardedGraphManager, layers: &mut Layers) {
    let o = router.cache_overview();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    layers.set(
        "cache.snapshot_hit_ratio",
        ratio(o.stats.hits, o.stats.misses),
        format!("{} of {}", o.stats.hits, o.stats.hits + o.stats.misses),
    );
    layers.set(
        "cache.response_hit_ratio",
        ratio(o.response.hits, o.response.misses),
        format!(
            "{} of {}",
            o.response.hits,
            o.response.hits + o.response.misses
        ),
    );
    layers.set(
        "cache.evictions",
        (o.stats.evictions + o.response.evictions) as f64,
        "snapshot + response",
    );
    layers.set(
        "cache.invalidations",
        (o.stats.invalidations + o.response.invalidations) as f64,
        "snapshot + response",
    );
    let infos = router.shard_infos();
    let queries: Vec<f64> = infos.iter().map(|s| s.queries as f64).collect();
    let mean = queries.iter().sum::<f64>() / queries.len() as f64;
    let max = queries.iter().copied().fold(0.0, f64::max);
    layers.set(
        "sharded.query_skew",
        max / mean.max(1e-9),
        format!("max/mean of {queries:?}"),
    );
    let st = router.storage_info();
    layers.set("durable.segment_bytes", st.segment_bytes as f64, "");
    layers.set("durable.wal_bytes", st.wal_bytes as f64, "");
    let mut pool = 0usize;
    for shard in router.shard_handles().expect("hydrated") {
        pool += shard.read().pool().approx_memory();
    }
    layers.set(
        "graphpool.memory_bytes",
        pool as f64,
        "approx_memory over shards",
    );
}

/// A `MemStore` that times its reads (the in-memory twin's fetch cost).
struct TimingStore {
    inner: MemStore,
    get_ns: Arc<AtomicU64>,
}

impl KeyValueStore for TimingStore {
    fn put(&self, key: StoreKey, value: &[u8]) -> StoreResult<()> {
        self.inner.put(key, value)
    }
    fn get(&self, key: StoreKey) -> StoreResult<Option<Vec<u8>>> {
        let t0 = Instant::now();
        let out = self.inner.get(key);
        self.get_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
    fn delete(&self, key: StoreKey) -> StoreResult<()> {
        self.inner.delete(key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }
    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
    fn backend_name(&self) -> &'static str {
        "timed-mem"
    }
}

/// Passes of the cold stream replayed in process (bounded for run time).
const COLD_PASSES: usize = 4;

pub fn cold(
    router: &ShardedGraphManager,
    server: &server::ServerHandle,
    cold: &ColdResult,
    dataset: &datagen::Dataset,
) -> Vec<Metric> {
    let mut layers = Layers::default();
    server_metrics(&stats_metrics(server.addr()), &mut layers);
    router_counters(router, &mut layers);
    let opts = opts();
    let mut tracer = Tracer::new();
    let mut exec = Executor::for_router(router.clone());
    let (mut untraced, mut traced, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let (mut execute_points, mut reply_bytes) = (Vec::new(), Vec::new());
    let (mut path_edges, mut gets, mut bytes_read) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cost_est, mut cost_actual) = (0f64, 0f64);
    let mut mismatches = 0usize;
    let mut release_us = Vec::new();
    let mut request = 0u64;
    let points: Vec<i64> = cold
        .stream
        .iter()
        .take(COLD_PASSES)
        .flatten()
        .filter_map(|r| match r {
            ColdReq::Point(t) => Some(*t),
            ColdReq::Multi(_) => None,
        })
        .collect();
    for pass in cold.stream.iter().take(COLD_PASSES) {
        purge_caches(router);
        let mut sessions: BTreeMap<usize, historygraph::PoolSession> = BTreeMap::new();
        for req in pass {
            request += 1;
            let line = req.line();
            let run_untraced = |exec: &mut Executor| {
                let t0 = Instant::now();
                let reply = exec.execute_framed(&line);
                (reply.as_ref().to_vec(), us_since(t0))
            };
            let mut run_split = |tracer: &mut Tracer| -> (Vec<u8>, f64) {
                let root = tracer.open("histql.execute", None, request);
                let (query, _) = tracer.span("histql.parse", root, || histql::parse(&line));
                let query = query.expect("valid request");
                let reply = match query {
                    histql::Query::GetGraphAt { t, .. } => {
                        let (shard, _) = tracer.span("sharded.route", root, || {
                            router.shard_for(t).expect("route")
                        });
                        let index = router.shard_index_for(t);
                        let before = shard.read().index().payload_store().backing_store().stats();
                        let (gm, _) = tracer.span("shared.read_wait", root, || shard.read());
                        let (plan, _) = tracer.span("deltagraph.plan", root, || {
                            gm.index().plan_snapshot(t, &opts).expect("plan")
                        });
                        let (snap, _) = tracer.span("deltagraph.retrieve", root, || {
                            gm.index().get_snapshot(t, &opts).expect("retrieve")
                        });
                        drop(gm);
                        let after = shard.read().index().payload_store().backing_store().stats();
                        if let Some(plan) = plan {
                            path_edges.push(plan.path.len() as f64);
                            cost_est += plan.estimated_cost as f64;
                            cost_actual += (after.bytes_read - before.bytes_read) as f64;
                        }
                        gets.push((after.gets - before.gets) as f64);
                        bytes_read.push((after.bytes_read - before.bytes_read) as f64);
                        let snap = Arc::new(snap);
                        let session = sessions.entry(index).or_insert_with(|| shard.session());
                        tracer.span("graphpool.overlay", root, || session.overlay(&snap, t));
                        let resp = Response::Graph { t, graph: snap };
                        tracer
                            .span("histql.render", root, || resp.to_frame(WireFormat::Text))
                            .0
                    }
                    histql::Query::GetGraphsAt { times, .. } => {
                        let (groups, _) = tracer.span("sharded.route", root, || {
                            let mut g: BTreeMap<usize, Vec<Timestamp>> = BTreeMap::new();
                            for &t in &times {
                                g.entry(router.shard_index_for(t)).or_default().push(t);
                            }
                            g
                        });
                        let mut by_time: BTreeMap<Timestamp, Arc<Snapshot>> = BTreeMap::new();
                        for (index, ts) in groups {
                            let shard = router.shard_at(index).expect("shard");
                            let (gm, _) = tracer.span("shared.read_wait", root, || shard.read());
                            let (snaps, _) = tracer.span("deltagraph.multipoint", root, || {
                                gm.index().get_snapshots(&ts, &opts).expect("multipoint")
                            });
                            drop(gm);
                            let session = sessions.entry(index).or_insert_with(|| shard.session());
                            for (t, snap) in ts.into_iter().zip(snaps) {
                                let snap = Arc::new(snap);
                                tracer
                                    .span("graphpool.overlay", root, || session.overlay(&snap, t));
                                by_time.insert(t, snap);
                            }
                        }
                        let resp = Response::Graphs {
                            items: times
                                .iter()
                                .map(|t| (*t, Arc::clone(&by_time[t])))
                                .collect(),
                        };
                        tracer
                            .span("histql.render", root, || resp.to_frame(WireFormat::Text))
                            .0
                    }
                    other => panic!("unexpected cold request {other:?}"),
                };
                (reply, tracer.close(root))
            };
            let ((a, a_us), (b, b_us)) = if request.is_multiple_of(2) {
                let u = run_untraced(&mut exec);
                (u, run_split(&mut tracer))
            } else {
                let s = run_split(&mut tracer);
                (run_untraced(&mut exec), s)
            };
            if a != b {
                mismatches += 1;
            }
            untraced.push(a_us);
            traced.push(b_us);
            reply_bytes.push(a.len() as f64);
            if matches!(req, ColdReq::Point(_)) {
                execute_points.push(a_us);
            }
            // Residual: execute_framed's time beyond the split calls' self
            // times for the same request.
            let root = tracer.spans.len()
                - tracer
                    .spans
                    .iter()
                    .rev()
                    .position(|s| s.parent.is_none())
                    .expect("a root")
                - 1;
            let children: f64 = tracer
                .spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| s.end_us - s.start_us)
                .sum();
            residual.push(a_us - children);
        }
        let t0 = Instant::now();
        for session in sessions.values_mut() {
            session.release_now();
        }
        release_us.push(us_since(t0));
        exec.execute_framed("RELEASE ALL");
    }
    purge_caches(router);
    if mismatches > 0 {
        println!("trace: FAIL {mismatches} split replies differ from execute_framed");
    }
    layers.set(
        "trace.overhead_share",
        (traced.iter().sum::<f64>() - untraced.iter().sum::<f64>()) / untraced.iter().sum::<f64>(),
        format!("split vs execute_framed over {} requests", untraced.len()),
    );
    layers.pct("trace.residual_us.p50", &residual, 50.0);
    layers.pct("histql.execute_us.p50", &execute_points, 50.0);
    layers.pct("histql.execute_us.p99", &execute_points, 99.0);
    layers.pct("histql.reply_bytes.p50", &reply_bytes, 50.0);
    layers.pct(
        "histql.parse_us.p50",
        &tracer.self_times("histql.parse"),
        50.0,
    );
    layers.pct(
        "histql.render_us.p50",
        &tracer.self_times("histql.render"),
        50.0,
    );
    layers.pct(
        "sharded.route_us.p50",
        &tracer.self_times("sharded.route"),
        50.0,
    );
    layers.pct(
        "deltagraph.plan_us.p50",
        &tracer.self_times("deltagraph.plan"),
        50.0,
    );
    let retrieve = tracer.self_times("deltagraph.retrieve");
    layers.pct("deltagraph.retrieve_us.p50", &retrieve, 50.0);
    layers.pct("deltagraph.retrieve_us.p99", &retrieve, 99.0);
    layers.pct(
        "deltagraph.multipoint_us.p50",
        &tracer.self_times("deltagraph.multipoint"),
        50.0,
    );
    layers.pct("deltagraph.path_edges.p50", &path_edges, 50.0);
    layers.set(
        "deltagraph.cost_model_ratio",
        cost_actual / cost_est.max(1.0),
        format!("{cost_actual} bytes read / {cost_est} estimated"),
    );
    layers.set(
        "kvstore.gets_per_point",
        stats::median(&gets).unwrap_or(0.0),
        format!("median of n={}", gets.len()),
    );
    layers.set(
        "kvstore.bytes_read_per_point",
        stats::median(&bytes_read).unwrap_or(0.0),
        format!("median of n={}", bytes_read.len()),
    );
    layers.pct(
        "graphpool.overlay_us.p50",
        &tracer.self_times("graphpool.overlay"),
        50.0,
    );
    layers.pct("graphpool.release_us.p50", &release_us, 50.0);
    layers.pct(
        "shared.read_wait_us.p99",
        &tracer.durations("shared.read_wait"),
        99.0,
    );
    // server.io_us: TCP latency minus in-process execute_framed, points.
    if let (Some(tcp), Some(inproc)) = (
        stats::median(&cold.point_ms.iter().map(|ms| ms * 1e3).collect::<Vec<_>>()),
        stats::median(&execute_points),
    ) {
        layers.set(
            "server.io_us.p50",
            tcp - inproc,
            "TCP p50 - execute_framed p50, points",
        );
    }
    // kvstore fetch time from the in-memory twin with the same boundaries.
    let twin_ns = Arc::new(AtomicU64::new(0));
    let bounds: Vec<Timestamp> = router
        .shard_infos()
        .iter()
        .filter_map(|s| s.lower)
        .collect();
    let ns = Arc::clone(&twin_ns);
    let twin = ShardedGraphManager::build(
        &dataset.events,
        deploy::sharded_config(0).with_boundaries(bounds),
        move |_| {
            Arc::new(TimingStore {
                inner: MemStore::new(),
                get_ns: Arc::clone(&ns),
            }) as Arc<dyn KeyValueStore>
        },
    )
    .expect("in-memory twin");
    twin_ns.store(0, Ordering::Relaxed);
    for &t in &points {
        let shard = twin.shard_for(Timestamp(t)).expect("twin shard");
        let _ = shard.read().index().get_snapshot(Timestamp(t), &opts);
    }
    layers.set(
        "kvstore.get_us_per_point",
        twin_ns.load(Ordering::Relaxed) as f64 / 1e3 / points.len().max(1) as f64,
        format!("in-memory twin, mean of n={}", points.len()),
    );
    finish(tracer, layers, "cold-read", mismatches)
}

fn finish(tracer: Tracer, layers: Layers, workload: &str, mismatches: usize) -> Vec<Metric> {
    let root = std::env::current_dir()
        .expect("working directory")
        .join(".bench_data");
    let _ = std::fs::create_dir_all(&root);
    tracer.write(&root.join(format!("spans-{workload}.jsonl")));
    let mut out = layers.finish();
    if mismatches > 0 {
        // Surfaces as a non-finite metric, which fails the run.
        out.push(metric(
            "trace.mismatches",
            f64::NAN,
            "count",
            "split != execute_framed",
        ));
    }
    out
}

/// Extra batches the traced run appends in process: enough to carry the
/// tail past the roll budget once more, so a roll is timed.
const TRACE_BATCHES: usize = 240;
/// R requests replayed in process.
const TRACE_HOT_READS: usize = 20_000;

pub fn hot(
    router: &ShardedGraphManager,
    hot: &HotResult,
    reference: &Reference,
    capacity: f64,
) -> Vec<Metric> {
    let mut layers = Layers::default();
    layers.set(
        "loadgen.capacity_qps",
        capacity,
        format!("R-only ladder, p99 limit {} us", crate::hot::P99_LIMIT_US),
    );
    // Read before the ladder and the burst: the server had served only
    // the reference rung beside W, after the setup's few requests.
    server_metrics(&hot.beside_metrics, &mut layers);
    router_counters(router, &mut layers);
    // Hot-read cache ratios come from the sealed shards R reads (the tail's
    // counters are W's).
    let infos = router.shard_infos();
    let sealed = &infos[..deploy::SHARDS - 1];
    let (sh, sm) = sealed
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.cache.hits, m + s.cache.misses));
    let (rh, rm) = sealed.iter().fold((0, 0), |(h, m), s| {
        (h + s.response.hits, m + s.response.misses)
    });
    layers.set(
        "cache.snapshot_hit_ratio",
        sh as f64 / (sh + sm).max(1) as f64,
        "sealed shards (R)",
    );
    layers.set(
        "cache.response_hit_ratio",
        rh as f64 / (rh + rm).max(1) as f64,
        "sealed shards (R)",
    );
    layers.pct("loadgen.lateness_us.p99", &hot.lateness_us, 99.0);
    layers.set(
        "loadgen.backlog_max",
        hot.rungs
            .iter()
            .map(|r| r.rung.backlog_end)
            .max()
            .unwrap_or(0) as f64,
        "largest backlog at a rung's end",
    );
    let opts = opts();
    let mut tracer = Tracer::new();
    let mut exec = Executor::for_router(router.clone());
    exec.execute_framed("PROTOCOL BINARY");
    let mut session = router.session();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut reply_bytes = Vec::new();
    let mut mismatches = 0usize;
    let mut request = 0u64;
    for &t in hot.r_stream.iter().take(TRACE_HOT_READS) {
        request += 1;
        let line = format!("GET GRAPH AT {t} WITH {ATTRS}");
        let mut run_split = |tracer: &mut Tracer| -> (Vec<u8>, f64) {
            let root = tracer.open("histql.execute", None, request);
            let (query, _) = tracer.span("histql.parse", root, || histql::parse(&line));
            let Ok(histql::Query::GetGraphAt { t, .. }) = query else {
                panic!("unexpected hot request")
            };
            let (shared, _) = tracer.span("cache.snapshot", root, || {
                session
                    .retrieve_cached_routed(t, &opts)
                    .expect("retrieve")
                    .0
            });
            let (bytes, _) = tracer.span("cache.response", root, || {
                shared.response_cache_get(t, &opts, WireFormat::Binary)
            });
            let bytes = bytes.expect("hot reply is cached").to_vec();
            (bytes, tracer.close(root))
        };
        let run_untraced = |exec: &mut Executor| {
            let t0 = Instant::now();
            let reply = exec.execute_framed(&line);
            (reply.as_ref().to_vec(), us_since(t0))
        };
        let ((a, a_us), (b, b_us)) = if request.is_multiple_of(2) {
            let u = run_untraced(&mut exec);
            (u, run_split(&mut tracer))
        } else {
            let s = run_split(&mut tracer);
            (run_untraced(&mut exec), s)
        };
        if a != b {
            mismatches += 1;
        }
        untraced.push(a_us);
        traced.push(b_us);
        reply_bytes.push(a.len() as f64);
        if request.is_multiple_of(4096) {
            // Keep the sessions' overlay reference lists short.
            exec.execute_framed("RELEASE ALL");
            session.release_now();
        }
    }
    exec.execute_framed("RELEASE ALL");
    session.release_now();
    layers.set(
        "trace.overhead_share",
        (traced.iter().sum::<f64>() - untraced.iter().sum::<f64>()) / untraced.iter().sum::<f64>(),
        format!("split vs execute_framed over {} hot reads", untraced.len()),
    );
    layers.pct(
        "histql.parse_us.p50",
        &tracer.self_times("histql.parse"),
        50.0,
    );
    layers.pct("histql.execute_us.p50", &untraced, 50.0);
    layers.pct("histql.execute_us.p99", &untraced, 99.0);
    layers.pct("histql.reply_bytes.p50", &reply_bytes, 50.0);
    if let (Some(tcp), Some(inproc)) = (
        stats::median(&hot.reference_sent_us),
        stats::median(&untraced),
    ) {
        layers.set(
            "server.io_us.p50",
            tcp - inproc,
            "TCP p50 (from send) - execute_framed p50, hot reads",
        );
    }
    let route: Vec<f64> = {
        let t = Timestamp(hot.r_stream.first().copied().unwrap_or(reference.start));
        (0..1000)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(router.shard_for(std::hint::black_box(t)).expect("route"));
                us_since(t0)
            })
            .collect()
    };
    layers.pct("sharded.route_us.p50", &route, 50.0);

    // W in process: further batches through the manager, with a second
    // thread timing tail lock acquisitions meanwhile.
    let mut model = reference.final_state.clone();
    let mut gen = BatchGen::new(hot.seed, &model, reference.end + 1);
    for _ in 0..hot.batches_acked {
        gen.next(&mut model);
    }
    let batches: Vec<_> = (0..TRACE_BATCHES).map(|_| gen.next(&mut model)).collect();
    let fsyncs_before = router.storage_info().wal_fsyncs;
    let done = AtomicBool::new(false);
    let (mut append_us, mut roll_ms) = (Vec::new(), Vec::new());
    let (mut applied, mut normalized, mut rolls) = (0usize, 0usize, 0usize);
    let (read_wait, write_wait) = std::thread::scope(|s| {
        let prober = s.spawn(|| {
            let (mut r, mut w) = (Vec::new(), Vec::new());
            while !done.load(Ordering::Relaxed) {
                let tail = router.shard_at(router.shard_count() - 1).expect("tail");
                let t0 = Instant::now();
                drop(tail.read());
                r.push(us_since(t0));
                let t0 = Instant::now();
                drop(tail.write());
                w.push(us_since(t0));
                std::thread::sleep(Duration::from_micros(200));
            }
            (r, w)
        });
        // Paced like W over TCP, so the prober gets to contend between
        // batches instead of queueing behind back-to-back writers.
        for b in &batches {
            std::thread::sleep(Duration::from_millis(2));
            let shards = router.shard_count();
            let t0 = Instant::now();
            let outcome = router.append_batch(b.raw.clone()).expect("append batch");
            let us = us_since(t0);
            append_us.push(us);
            applied += outcome.applied;
            normalized += outcome.normalized;
            if router.shard_count() != shards {
                rolls += 1;
                roll_ms.push(us / 1e3);
            }
        }
        done.store(true, Ordering::Relaxed);
        prober.join().expect("prober thread")
    });
    let fsyncs = router.storage_info().wal_fsyncs - fsyncs_before;
    layers.pct("manager.append_batch_us.p50", &append_us, 50.0);
    layers.pct("manager.append_batch_us.p99", &append_us, 99.0);
    layers.set(
        "manager.normalized_share",
        normalized as f64 / applied.max(1) as f64,
        format!("{normalized} of {applied} applied events"),
    );
    layers.set(
        "sharded.rolls",
        rolls as f64,
        format!("of {} in-process batches", batches.len()),
    );
    layers.pct("sharded.roll_ms.p50", &roll_ms, 50.0);
    layers.set(
        "durable.wal_fsyncs_per_batch",
        fsyncs as f64 / batches.len() as f64,
        format!("{fsyncs} fsyncs"),
    );
    layers.pct("shared.read_wait_us.p99", &read_wait, 99.0);
    layers.pct("shared.write_wait_us.p99", &write_wait, 99.0);
    // The in-process batches must all be visible at the last one's time.
    let last = batches.last().expect("batches").time;
    let mut text = Executor::for_router(router.clone());
    let reply = text.execute_framed(&graph_line(last, ALL_ATTRS));
    if reply.as_ref() != model_reply(&model, last, ALL_ATTRS).as_slice() {
        mismatches += 1;
    }
    finish(tracer, layers, "hot-ingest", mismatches)
}

/// Restart cycles replayed in process.
const TRACE_CYCLES: usize = 3;

pub fn restart(dir: &Path, rs: &RestartResult, reference: &Reference) -> Vec<Metric> {
    let mut layers = Layers::default();
    let opts = opts();
    let (mut open_ms, mut recovery_ms) = (Vec::new(), Vec::new());
    let (mut tail_ms, mut hist_ms) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    let mut mismatches = 0usize;
    for (cycle, probes) in rs.probes.iter().take(TRACE_CYCLES).enumerate() {
        let root = tracer.open("restart.cycle", None, cycle as u64);
        let ((router, ms), _) = tracer.span("durable.open", root, || deploy::open(dir, 0));
        open_ms.push(ms);
        recovery_ms.push(router.storage_info().recovery_ms as f64);
        let bounds = historical_bounds(&router, reference.start);
        // Tail first, as the TCP cycle does, then each historical shard.
        let targets = std::iter::once((reference.end, reference.end - 1)).chain(
            probes
                .iter()
                .zip(&bounds)
                .map(|(&t, &(lo, hi))| (t, if t + 1 < hi { t + 1 } else { lo.max(t - 1) })),
        );
        for (i, (t, second)) in targets.enumerate() {
            let ((first, first_us), _) = tracer.span("sharded.first_touch", root, || {
                let t0 = Instant::now();
                let s = router
                    .snapshot_at(Timestamp(t), &opts)
                    .expect("first touch");
                (s, us_since(t0))
            });
            let ((_, second_us), _) = tracer.span("deltagraph.retrieve", root, || {
                let t0 = Instant::now();
                let s = router
                    .snapshot_at(Timestamp(second), &opts)
                    .expect("second read");
                (s, us_since(t0))
            });
            let reply = Response::Graph {
                t: Timestamp(t),
                graph: Arc::new(first),
            }
            .to_frame(WireFormat::Text);
            if reply != reference.point(t, WireFormat::Text) {
                mismatches += 1;
            }
            let hydrate = (first_us - second_us) / 1e3;
            if i == 0 {
                tail_ms.push(hydrate);
            } else {
                hist_ms.push(hydrate);
            }
        }
        let st = router.storage_info();
        layers.set("durable.segment_bytes", st.segment_bytes as f64, "");
        layers.set("durable.wal_bytes", st.wal_bytes as f64, "");
        tracer.close(root);
    }
    layers.pct("durable.open_ms", &open_ms, 50.0);
    layers.pct("durable.recovery_ms", &recovery_ms, 50.0);
    layers.pct("sharded.hydrate_ms.tail", &tail_ms, 50.0);
    layers.pct("sharded.hydrate_ms.historical", &hist_ms, 50.0);
    finish(tracer, layers, "restart", mismatches)
}
