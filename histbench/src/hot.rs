//! The `hot-ingest` phase: an open loop from one generator thread over two
//! connections, with one reader thread collecting both connections'
//! replies as they arrive.
//!
//! * R (binary) asks for `GET GRAPH AT t WITH +node:all`, `t` drawn
//!   Zipf(1) over 16 fixed times inside sealed shards. Latency counts from
//!   each request's due time.
//! * W (text) alternates an 8-event `APPEND BATCH` at the tail with
//!   `GET GRAPH AT <last acked time>` (structure only, the verb's
//!   default), paced at a fixed rate. W is paced rather than pipelined:
//!   one connection is served one request at a time anyway, and pacing
//!   makes "the last acked time" exact.
//!
//! First R alone climbs a ladder of offered rates, which gives the
//! capacity reading: on a 2-core machine the write path's fsyncs and tail
//! renders stall every rung by milliseconds, so a ladder run beside W
//! measures those stalls, not the read path's capacity. Then, in slices
//! interleaved with the other phases, R holds the reference rate beside W,
//! which gives the hot-read latencies and every write-side metric. The
//! tail rolls inside those slices (see [`SHARD_EVENTS`]), so a roll's
//! stall shows in R's and W's latencies.
//!
//! The ladder and the slices cap the R requests in flight (see
//! [`MAX_IN_FLIGHT`]). A last, uncapped burst pipelines [`BURST`] requests
//! on a connection of its own. It is a probe: every reply that comes back
//! is checked, and the share answered within [`BURST_DRAIN`] is reported
//! (`server.pipelined_answered_share`), but the requests never answered
//! are not counted as failed operations, because on this server how many
//! stay unanswered varies from run to run (see the README).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use epoll::{Events, Interest, Poller, Token};
use histql::WireFormat;

use crate::gen::{hot_stream, Batch, BatchGen, ATTRS};
use crate::net::{ends_text_reply, is_ok, Conn};
use crate::reference::{graph_line, model_reply, Reference, ALL_ATTRS};
use crate::stats::{self, OpenLoopSample, Rung};

/// Offered rates of the R ladder, requests per second.
pub const RATES: [f64; 10] = [
    4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 14000.0, 17000.0, 20000.0, 24000.0, 28000.0,
];
/// The rate R keeps beside W; its latencies are `hot_read_p50_us`/`p99_us`.
pub const REFERENCE_RATE: f64 = 2000.0;
/// The tail-latency limit of the capacity rule. It sits above the
/// scheduling stalls of a shared 2-core machine (single-digit ms) and
/// below the queueing delay a rung ~5% over capacity builds up.
pub const P99_LIMIT_US: f64 = 25_000.0;
/// W operations (batches plus tail reads) per second.
pub const W_RATE: f64 = 18.0;
/// Length of one ladder rung.
pub const LADDER_RUNG: Duration = Duration::from_millis(200);
/// Tail roll budget (events). The built tail (32k events) exceeds it, so
/// the first batch rolls the built tail; after that the tail rolls again
/// every ~30 batches (8 events each plus the injected clears), about 3% of
/// the batches.
pub const SHARD_EVENTS: usize = 256;
/// Requests in the uncapped pipelined burst.
pub const BURST: usize = 8000;
/// How long the burst's replies may take. Served at the ladder's top
/// rate, 8000 hot replies need under 0.3 s.
pub const BURST_DRAIN: Duration = Duration::from_secs(1);
/// How long the capped drives wait for their last replies.
const DRAIN: Duration = Duration::from_secs(20);
/// Number of hot times.
pub const HOT_TIMES: usize = 16;

/// The 16 hot times: evenly spread over the sealed shards' whole times.
pub fn hot_times(reference: &Reference, tail_lower: i64) -> Vec<i64> {
    let sealed: Vec<i64> = reference
        .times()
        .into_iter()
        .filter(|&t| t < tail_lower)
        .collect();
    (0..HOT_TIMES)
        .map(|i| sealed[i * (sealed.len() - 1) / (HOT_TIMES - 1)])
        .collect()
}

pub struct RungResult {
    pub rung: Rung,
    pub p50_us: f64,
    pub p99: stats::Reading,
    pub lateness_p99_us: f64,
    pub sent: usize,
    pub latencies_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
    /// Latencies from the actual send, microseconds.
    pub service_us: Vec<f64>,
}

#[derive(Default)]
pub struct HotResult {
    /// The R-only ladder.
    pub rungs: Vec<RungResult>,
    /// R at the reference rate beside W.
    pub reference_rung: Option<RungResult>,
    /// Latencies (from due time) at the reference rung, microseconds.
    pub reference_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
    pub append_ms: Vec<f64>,
    pub tail_ms: Vec<f64>,
    pub batches_acked: usize,
    pub events_acked: usize,
    pub attempted: u64,
    /// Error replies and wrong answers.
    pub failed: u64,
    /// Requests never answered on the capped drives (failed operations).
    pub unanswered: u64,
    /// The burst probe: requests sent and answered.
    pub burst_sent: usize,
    pub burst_answered: usize,
    pub final_visible: bool,
    /// Hot-time draws actually sent (the traced run replays them).
    pub r_stream: Vec<i64>,
    pub last_acked: i64,
    pub seed: u64,
    /// Hot-read latencies at the reference rung measured from the send.
    pub reference_sent_us: Vec<f64>,
    /// The server's `STATS METRICS` right after the last slice beside W.
    pub beside_metrics: Vec<histql::MetricEntry>,
}

enum WKind {
    Batch(usize),
    Tail(usize),
}

struct WOp {
    due: Instant,
    kind: WKind,
}

struct Shared {
    r_pending: Mutex<VecDeque<(Instant, Instant, i64, usize)>>,
    w_pending: Mutex<Option<WOp>>,
    r_answered: AtomicU64,
    stop: AtomicBool,
}

/// Writes all of `bytes` to a non-blocking socket.
fn write_all_nb(mut stream: &TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sleeps until `deadline`. No spinning: on a 2-core machine a spinning
/// generator takes a core from the server it measures (tried: tail reads
/// slowed and hot reads got noisier). The timer's slack shows up as
/// lateness, which is reported.
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

#[derive(Default)]
struct ReaderOut {
    r: Vec<(OpenLoopSample, usize, bool)>,
    append_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    batch_ok: Vec<(usize, bool)>,
    tails: Vec<(usize, Vec<u8>)>,
    failed: u64,
}

fn reader(
    shared: &Shared,
    r: &TcpStream,
    w: &TcpStream,
    expected: &HashMap<i64, Vec<u8>>,
    batches: &[Batch],
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut poller = Poller::new().expect("poller");
    poller
        .register(r.as_raw_fd(), Token(0), Interest::READABLE)
        .expect("register R");
    poller
        .register(w.as_raw_fd(), Token(1), Interest::READABLE)
        .expect("register W");
    let mut events = Events::new();
    let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut rpos = 0usize;
    let mut wbuf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 256 * 1024];
    let mut open = [true, true];
    loop {
        poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("poll");
        let mut progressed = false;
        for (i, (stream, buf)) in [(r, &mut rbuf), (w, &mut wbuf)].into_iter().enumerate() {
            while open[i] {
                match (&*stream).read(&mut chunk) {
                    Ok(0) => {
                        eprintln!("hot: connection closed by the server");
                        open[i] = false;
                        let _ = poller.deregister(stream.as_raw_fd());
                    }
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        eprintln!("hot: read error {e}");
                        break;
                    }
                }
            }
        }
        let now = Instant::now();
        // R: length-prefixed frames.
        while rbuf.len() - rpos >= 4 {
            let n = u32::from_le_bytes(rbuf[rpos..rpos + 4].try_into().expect("4 bytes")) as usize;
            if rbuf.len() - rpos < 4 + n {
                break;
            }
            let frame = &rbuf[rpos..rpos + 4 + n];
            let pending = shared.r_pending.lock().unwrap().pop_front();
            if let Some((due, sent, t, rung)) = pending {
                let ok = is_ok(frame, true) && expected.get(&t).is_some_and(|e| e == frame);
                out.r.push((
                    OpenLoopSample {
                        due,
                        sent,
                        done: now,
                    },
                    rung,
                    ok,
                ));
            } else {
                out.failed += 1;
            }
            shared.r_answered.fetch_add(1, Ordering::Relaxed);
            rpos += 4 + n;
        }
        if rpos > 0 && rpos == rbuf.len() {
            rbuf.clear();
            rpos = 0;
        } else if rpos > (1 << 20) {
            rbuf.drain(..rpos);
            rpos = 0;
        }
        // W: one text reply at a time (paced).
        if ends_text_reply(&wbuf) {
            let op = shared.w_pending.lock().unwrap().take();
            match op {
                Some(op) => {
                    let ms = now.saturating_duration_since(op.due).as_secs_f64() * 1e3;
                    match op.kind {
                        WKind::Batch(k) => {
                            let b = &batches[k];
                            let expect = format!(
                                "OK APPENDED BATCH count={} normalized={} t_min={} t_max={}\nEND\n",
                                b.expanded.len(),
                                b.normalized,
                                b.time,
                                b.time
                            );
                            let ok = wbuf == expect.as_bytes();
                            if !ok {
                                eprintln!(
                                    "hot: batch {k} acked {:?}, expected {expect:?}",
                                    String::from_utf8_lossy(&wbuf[..wbuf.len().min(300)])
                                );
                            }
                            out.batch_ok.push((k, ok));
                            if ok {
                                out.append_ms.push(ms);
                            }
                        }
                        WKind::Tail(k) => {
                            out.tail_ms.push(ms);
                            out.tails.push((k, std::mem::take(&mut wbuf)));
                        }
                    }
                }
                None => out.failed += 1,
            }
            wbuf.clear();
        }
        if !progressed && shared.stop.load(Ordering::Relaxed) {
            return out;
        }
    }
}

/// What one drive of the generator produced.
struct Drive {
    out: ReaderOut,
    backlogs: Vec<usize>,
    sent_per_rung: Vec<usize>,
    w_sent: usize,
    draws_used: usize,
}

/// Requests R may have in flight while latencies are read. A stalled
/// server makes the generator wait here, and the wait counts (latency is
/// from the due time). It keeps the readings clear of the pipelining
/// defect the burst probes; the burst itself runs uncapped.
const MAX_IN_FLIGHT: u64 = 32;

/// The W ops one drive sends: op `j` of `first..end` is due at
/// `start + (j - first) * interval`; even ops are batches, odd ops tail
/// reads of the batch before them.
#[derive(Clone, Copy)]
struct WOps {
    first: usize,
    end: usize,
    interval: Duration,
}

/// Runs the open loop: R at each `(rate, duration)` rung in turn (stopping
/// at the first overloaded rung) with at most `cap` requests in flight,
/// and the given W ops beside it; then waits up to `drain` for the
/// replies.
#[allow(clippy::too_many_arguments)]
fn drive(
    rs: &TcpStream,
    ws: &TcpStream,
    expected: &HashMap<i64, Vec<u8>>,
    batches: &[Batch],
    draws: &[i64],
    rungs: &[(f64, Duration)],
    w: Option<WOps>,
    cap: u64,
    drain: Duration,
) -> Drive {
    let shared = Shared {
        r_pending: Mutex::new(VecDeque::new()),
        w_pending: Mutex::new(None),
        r_answered: AtomicU64::new(0),
        stop: AtomicBool::new(false),
    };
    let mut backlogs = Vec::new();
    let mut sent_per_rung = Vec::new();
    let mut w_sent = 0usize;
    let mut draw = 0usize;
    let out = std::thread::scope(|s| {
        let reader_handle = s.spawn(|| reader(&shared, rs, ws, expected, batches));
        let start = Instant::now();
        let mut sent_total = 0u64;
        let mut next_w = w.map_or(0, |w| w.first);
        let mut service_w = |now: Instant, w_sent: &mut usize| {
            let Some(w) = w else { return };
            if next_w >= w.end {
                return;
            }
            let due = start + w.interval * (next_w - w.first) as u32;
            if due > now {
                return;
            }
            let mut slot = shared.w_pending.lock().unwrap();
            if slot.is_some() {
                return;
            }
            let k = next_w / 2;
            let (kind, text) = if next_w.is_multiple_of(2) {
                (WKind::Batch(k), batches[k].line())
            } else {
                (WKind::Tail(k), graph_line(batches[k].time, ""))
            };
            *slot = Some(WOp { due, kind });
            drop(slot);
            let mut bytes = text.into_bytes();
            bytes.push(b'\n');
            write_all_nb(ws, &bytes).expect("send W");
            next_w += 1;
            *w_sent += 1;
        };
        let mut rung_start = start;
        for (ri, &(rate, time)) in rungs.iter().enumerate() {
            let n = (rate * time.as_secs_f64()) as usize;
            for j in 0..n {
                let due = rung_start + Duration::from_secs_f64(j as f64 / rate);
                loop {
                    let now = Instant::now();
                    service_w(now, &mut w_sent);
                    let in_flight = sent_total - shared.r_answered.load(Ordering::Relaxed);
                    if now >= due && in_flight < cap {
                        break;
                    }
                    sleep_until(
                        due.max(now + Duration::from_micros(20))
                            .min(now + Duration::from_micros(300)),
                    );
                }
                let t = draws[draw];
                draw += 1;
                let line = format!("GET GRAPH AT {t} WITH {ATTRS}\n");
                shared
                    .r_pending
                    .lock()
                    .unwrap()
                    .push_back((due, Instant::now(), t, ri));
                write_all_nb(rs, line.as_bytes()).expect("send R");
                sent_total += 1;
            }
            let rung_end = rung_start + time;
            loop {
                let now = Instant::now();
                service_w(now, &mut w_sent);
                if now >= rung_end {
                    break;
                }
                sleep_until(rung_end.min(now + Duration::from_micros(300)));
            }
            // Backlog at the rung's end: requests in flight plus those
            // that were due but still unsent (the generator overran).
            let overrun = Instant::now().saturating_duration_since(rung_end);
            let in_flight = sent_total.saturating_sub(shared.r_answered.load(Ordering::Relaxed));
            let backlog = in_flight as usize + (overrun.as_secs_f64() * rate) as usize;
            backlogs.push(backlog);
            sent_per_rung.push(n);
            rung_start = rung_end.max(Instant::now());
            // Overload: climbing further only digs a deeper hole.
            if backlog as f64 > rate * P99_LIMIT_US / 1e6 {
                break;
            }
        }
        // Drain: let in-flight requests finish (bounded), then stop.
        let drain_deadline = Instant::now() + drain;
        while Instant::now() < drain_deadline
            && (shared.r_answered.load(Ordering::Relaxed) < sent_total
                || shared.w_pending.lock().unwrap().is_some())
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let answered = shared.r_answered.load(Ordering::Relaxed);
        if answered < sent_total {
            eprintln!(
                "hot: {} of {sent_total} requests unanswered after the drain",
                sent_total - answered
            );
        }
        shared.stop.store(true, Ordering::Relaxed);
        reader_handle.join().expect("reader thread")
    });
    Drive {
        out,
        backlogs,
        sent_per_rung,
        w_sent,
        draws_used: draw,
    }
}

fn rung_result(
    rate: f64,
    backlog_end: usize,
    sent: usize,
    samples: &[(OpenLoopSample, bool)],
) -> RungResult {
    let bad = samples.iter().filter(|(_, ok)| !ok).count();
    let lat: Vec<f64> = samples.iter().map(|(s, _)| s.latency_us()).collect();
    let late: Vec<f64> = samples.iter().map(|(s, _)| s.lateness_us()).collect();
    let p99 = stats::percentile(&lat, 99.0).unwrap_or(stats::Reading {
        pct: 99.0,
        value: f64::INFINITY,
        n: 0,
    });
    RungResult {
        rung: Rung {
            rate,
            p99_us: p99.value,
            backlog_end,
            all_ok: bad == 0 && samples.len() == sent,
        },
        p50_us: stats::median(&lat).unwrap_or(f64::INFINITY),
        p99,
        lateness_p99_us: stats::percentile(&late, 99.0).map_or(0.0, |r| r.value),
        sent,
        service_us: samples
            .iter()
            .map(|(s, _)| s.latency_us() - s.lateness_us())
            .collect(),
        latencies_us: lat,
        lateness_us: late,
    }
}

/// The hot-ingest phase, run in slices so it can interleave with the
/// other phases.
pub struct Hot {
    expected: HashMap<i64, Vec<u8>>,
    r: Conn,
    w: Conn,
    rs: TcpStream,
    ws: TcpStream,
    batches: Vec<Batch>,
    draws: Vec<i64>,
    draw: usize,
    /// Next W op.
    next_w: usize,
    /// Every R request beside W, with its correctness.
    beside: Vec<(OpenLoopSample, bool)>,
    beside_sent: usize,
    /// W replies of every slice, verified at the end.
    w_out: ReaderOut,
    w_sent: usize,
    pub res: HotResult,
}

impl Hot {
    /// Connects R and W and makes the hot times hot. `beside_total` is the
    /// time all [`Hot::beside`] slices will add up to (it sizes the
    /// pre-generated streams).
    pub fn start(
        addr: SocketAddr,
        reference: &Reference,
        hot: &[i64],
        seed: u64,
        beside_total: Duration,
    ) -> Hot {
        let mut res = HotResult {
            seed,
            ..HotResult::default()
        };
        let expected: HashMap<i64, Vec<u8>> = hot
            .iter()
            .map(|&t| (t, reference.point(t, WireFormat::Binary)))
            .collect();
        let mut r = Conn::connect(addr).expect("connect R");
        r.use_binary().expect("binary R");
        for _ in 0..2 {
            for &t in hot {
                res.attempted += 1;
                match r.binary(&format!("GET GRAPH AT {t} WITH {ATTRS}")) {
                    Ok(rep) if rep == expected[&t] => {}
                    _ => res.failed += 1,
                }
            }
        }
        let w = Conn::connect(addr).expect("connect W");
        let w_ops = (W_RATE * beside_total.as_secs_f64()) as usize + 2;
        let mut model = reference.final_state.clone();
        let mut gen = BatchGen::new(seed, &model, reference.end + 1);
        let batches: Vec<Batch> = (0..w_ops / 2 + 2).map(|_| gen.next(&mut model)).collect();
        let n_draws = (RATES.iter().sum::<f64>() * LADDER_RUNG.as_secs_f64()
            + REFERENCE_RATE * beside_total.as_secs_f64()) as usize
            + BURST
            + 1000;
        let draws = hot_stream(seed, hot, n_draws);
        let (rs, ws) = (
            r.stream().try_clone().unwrap(),
            w.stream().try_clone().unwrap(),
        );
        Hot {
            expected,
            r,
            w,
            rs,
            ws,
            batches,
            draws,
            draw: 0,
            next_w: 0,
            beside: Vec::new(),
            beside_sent: 0,
            w_out: ReaderOut::default(),
            w_sent: 0,
            res,
        }
    }

    /// R alone climbs the rate ladder (the capacity reading).
    pub fn ladder(&mut self) {
        let ladder: Vec<(f64, Duration)> = RATES.iter().map(|&rate| (rate, LADDER_RUNG)).collect();
        self.set_nonblocking(true);
        let d = drive(
            &self.rs,
            &self.ws,
            &self.expected,
            &self.batches,
            &self.draws[self.draw..],
            &ladder,
            None,
            MAX_IN_FLIGHT,
            DRAIN,
        );
        self.draw += d.draws_used;
        let sent: usize = d.sent_per_rung.iter().sum();
        self.res.attempted += sent as u64;
        self.res.unanswered += (sent - d.out.r.len()) as u64;
        self.res.failed += d.out.failed;
        for (ri, (&rate, &backlog)) in RATES.iter().zip(&d.backlogs).enumerate() {
            let samples: Vec<(OpenLoopSample, bool)> = d
                .out
                .r
                .iter()
                .filter(|(_, rung, _)| *rung == ri)
                .map(|(s, _, ok)| (*s, *ok))
                .collect();
            let r = rung_result(rate, backlog, d.sent_per_rung[ri], &samples);
            self.res.failed += samples.iter().filter(|(_, ok)| !ok).count() as u64;
            self.res.lateness_us.extend(&r.lateness_us);
            self.res.rungs.push(r);
        }
    }

    /// R pipelines [`BURST`] requests on a fresh connection with no cap
    /// on those in flight, as fast as the socket takes them.
    pub fn burst(&mut self, addr: SocketAddr) {
        let mut c = Conn::connect(addr).expect("connect burst");
        c.use_binary().expect("binary burst");
        let bs = c.stream().try_clone().expect("burst socket");
        bs.set_nonblocking(true).expect("socket mode");
        self.ws.set_nonblocking(true).expect("socket mode");
        // All due at once: a rate of BURST per millisecond.
        let rung = [(BURST as f64 * 1000.0, Duration::from_millis(1))];
        let d = drive(
            &bs,
            &self.ws,
            &self.expected,
            &self.batches,
            &self.draws[self.draw..],
            &rung,
            None,
            u64::MAX,
            BURST_DRAIN,
        );
        self.draw += d.draws_used;
        let sent: usize = d.sent_per_rung.iter().sum();
        let wrong = d.out.r.iter().filter(|(_, _, ok)| !ok).count();
        // Replies that came back are operations like any other; the ones
        // that never came are the probe's reading, not failed operations.
        self.res.attempted += d.out.r.len() as u64;
        self.res.failed += d.out.failed + wrong as u64;
        self.res.burst_sent = sent;
        self.res.burst_answered = d.out.r.len();
    }

    /// R at the reference rate beside W, for `time`.
    pub fn beside(&mut self, time: Duration) {
        let ops =
            ((W_RATE * time.as_secs_f64()) as usize).min(self.batches.len() * 2 - self.next_w);
        let w = WOps {
            first: self.next_w,
            end: self.next_w + ops,
            interval: Duration::from_secs_f64(1.0 / W_RATE),
        };
        self.set_nonblocking(true);
        let d = drive(
            &self.rs,
            &self.ws,
            &self.expected,
            &self.batches,
            &self.draws[self.draw..],
            &[(REFERENCE_RATE, time)],
            Some(w),
            MAX_IN_FLIGHT,
            DRAIN,
        );
        self.draw += d.draws_used;
        self.next_w = w.end;
        self.w_sent += d.w_sent;
        let sent: usize = d.sent_per_rung.iter().sum();
        self.res.attempted += sent as u64;
        self.res.unanswered += (sent - d.out.r.len()) as u64;
        self.res.failed += d.out.failed;
        self.beside_sent += sent;
        self.beside
            .extend(d.out.r.iter().map(|(s, _, ok)| (*s, *ok)));
        let mut out = d.out;
        self.w_out.append_ms.append(&mut out.append_ms);
        self.w_out.tail_ms.append(&mut out.tail_ms);
        self.w_out.batch_ok.append(&mut out.batch_ok);
        self.w_out.tails.append(&mut out.tails);
    }

    fn set_nonblocking(&self, on: bool) {
        self.rs.set_nonblocking(on).expect("socket mode");
        self.ws.set_nonblocking(on).expect("socket mode");
    }

    /// Verifies every W reply against the replayed model and that every
    /// acked batch is visible at the last acked time.
    pub fn finish(mut self, addr: SocketAddr, reference: &Reference) -> HotResult {
        let mut res = std::mem::take(&mut self.res);
        let r = rung_result(REFERENCE_RATE, 0, self.beside_sent, &self.beside);
        res.failed += self.beside.iter().filter(|(_, ok)| !ok).count() as u64;
        res.reference_us = r.latencies_us.clone();
        res.reference_sent_us = r.service_us.clone();
        res.lateness_us.extend(&r.lateness_us);
        res.reference_rung = Some(r);
        res.r_stream = self.draws[..self.draw].to_vec();
        let out = &self.w_out;
        res.attempted += self.w_sent as u64;
        res.failed += (self.w_sent - out.batch_ok.len() - out.tails.len()) as u64;
        res.append_ms.extend(&out.append_ms);
        res.tail_ms.extend(&out.tail_ms);
        let mut acked = 0;
        for &(k, ok) in &out.batch_ok {
            if ok && k == acked {
                acked += 1;
            } else {
                res.failed += 1;
            }
        }
        let mut model = reference.final_state.clone();
        let mut tails = out.tails.iter().peekable();
        for (k, batch) in self.batches.iter().enumerate().take(acked) {
            for ev in &batch.expanded {
                model.apply_forward(ev).expect("well formed");
            }
            while let Some((_, bytes)) = tails.next_if(|(tk, _)| *tk == k) {
                if *bytes != model_reply(&model, batch.time, "") {
                    res.failed += 1;
                }
            }
        }
        res.failed += tails.count() as u64;
        res.batches_acked = acked;
        res.events_acked = self.batches[..acked].iter().map(|b| b.expanded.len()).sum();
        res.last_acked = self.batches[acked.max(1) - 1].time;
        drop((self.r, self.w, self.rs, self.ws));
        let mut check = Conn::connect(addr).expect("connect");
        res.attempted += 1;
        res.final_visible = check
            .text(&graph_line(res.last_acked, ALL_ATTRS))
            .is_ok_and(|rep| rep == model_reply(&model, res.last_acked, ALL_ATTRS));
        if !res.final_visible {
            res.failed += 1;
        }
        res
    }
}
