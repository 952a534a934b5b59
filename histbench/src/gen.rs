//! Seeded request streams. `--seed` drives every draw made here (cold
//! times, multipoint windows, Zipf ranks, batch contents); the dataset
//! itself is fixed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgraph::{AttrValue, EdgeId, Event, NodeId, Snapshot};

/// A generator for one named stream of one seed, so streams drawn from
/// the same seed stay independent of each other's lengths.
pub fn stream(seed: u64, name: &str) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// One `cold-read` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColdReq {
    /// `GET GRAPH AT t WITH +node:all`.
    Point(i64),
    /// `GET GRAPHS AT t1,t2,t3,t4 WITH +node:all`, ascending.
    Multi([i64; 4]),
}

impl ColdReq {
    pub fn line(&self) -> String {
        match self {
            ColdReq::Point(t) => format!("GET GRAPH AT {t} WITH {ATTRS}"),
            ColdReq::Multi(ts) => format!(
                "GET GRAPHS AT {},{},{},{} WITH {ATTRS}",
                ts[0], ts[1], ts[2], ts[3]
            ),
        }
    }

    pub fn snapshots(&self) -> usize {
        match self {
            ColdReq::Point(_) => 1,
            ColdReq::Multi(_) => 4,
        }
    }
}

/// The attribute options of every cold and hot read.
pub const ATTRS: &str = "+node:all";

/// Half-width of the window a multipoint request draws its times from.
pub const MULTI_WINDOW: i64 = 6;

/// One pass of the cold stream: every time of `times` is used exactly once,
/// so no point repeats within a pass (and the benchmark purges both caches
/// between passes — see the cold phase). Every 4th request is a multipoint
/// whose four times come from one window around a seeded anchor, so their
/// Steiner paths overlap.
pub fn cold_pass(rng: &mut StdRng, times: &[i64]) -> Vec<ColdReq> {
    let mut pool = times.to_vec();
    shuffle(rng, &mut pool);
    let mut out = Vec::new();
    while !pool.is_empty() {
        if out.len() % 4 == 3 && pool.len() >= 4 {
            let anchor = pool.swap_remove(0);
            // Unused times nearest the anchor, ties broken by the draw order.
            let mut near: Vec<usize> = (0..pool.len())
                .filter(|&i| (pool[i] - anchor).abs() <= MULTI_WINDOW)
                .collect();
            shuffle(rng, &mut near);
            near.sort_by_key(|&i| (pool[i] - anchor).abs());
            let mut picked: Vec<usize> = near.into_iter().take(3).collect();
            if picked.len() < 3 {
                // Window exhausted: fall back to the closest unused times.
                let mut rest: Vec<usize> =
                    (0..pool.len()).filter(|i| !picked.contains(i)).collect();
                rest.sort_by_key(|&i| (pool[i] - anchor).abs());
                picked.extend(rest.into_iter().take(3 - picked.len()));
            }
            let mut ts = vec![anchor];
            ts.extend(picked.iter().map(|&i| pool[i]));
            picked.sort_unstable_by(|a, b| b.cmp(a));
            for i in picked {
                pool.swap_remove(i);
            }
            ts.sort_unstable();
            out.push(ColdReq::Multi([ts[0], ts[1], ts[2], ts[3]]));
        } else {
            out.push(ColdReq::Point(pool.swap_remove(0)));
        }
    }
    out
}

/// Zipf(1) sampler over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// A rank in `0..n` (0 is the most popular).
    pub fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The hot read stream: `n` times drawn Zipf(1) over `hot_times`, whose
/// rank order is itself a seeded permutation.
pub fn hot_stream(seed: u64, hot_times: &[i64], n: usize) -> Vec<i64> {
    let mut rng = stream(seed, "hot");
    let mut ranked = hot_times.to_vec();
    shuffle(&mut rng, &mut ranked);
    let zipf = Zipf::new(ranked.len());
    (0..n).map(|_| ranked[zipf.draw(&mut rng)]).collect()
}

/// One `APPEND BATCH` as wire specs plus the events the server applies
/// after §3.1 normalization (what the reference model replays).
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    pub time: i64,
    pub specs: Vec<String>,
    /// The events the server builds from `specs` (attribute `old` values
    /// read from the graph before the batch), before normalization.
    pub raw: Vec<Event>,
    /// The normalized event sequence (injected clearing events included).
    pub expanded: Vec<Event>,
    /// Clearing events the server is expected to inject.
    pub normalized: usize,
}

impl Batch {
    pub fn line(&self) -> String {
        format!("APPEND BATCH {}", self.specs.join(" ; "))
    }
}

/// An edge with its endpoints and attributes.
type AttributedEdge = (EdgeId, NodeId, NodeId, Vec<(String, AttrValue)>);

/// Events per batch, as the wire sends them (before normalization).
pub const BATCH_EVENTS: usize = 8;

/// Generates batches against (and applies them to) `model`, the graph the
/// server's tail holds. Every batch lands at its own time, strictly after
/// the previous one. Even batches delete an attributed edge without
/// clearing it first, so the server's §3.1 normalization injects the
/// clearing events.
pub struct BatchGen {
    rng: StdRng,
    next_time: i64,
    next_node: u64,
    next_edge: u64,
    count: u64,
}

impl BatchGen {
    pub fn new(seed: u64, model: &Snapshot, first_time: i64) -> BatchGen {
        let next_node = model.node_ids().map(|n| n.raw()).max().unwrap_or(0) + 1_000_000;
        let next_edge = model.edge_ids().map(|e| e.raw()).max().unwrap_or(0) + 1_000_000;
        BatchGen {
            rng: stream(seed, "batches"),
            next_time: first_time,
            next_node,
            next_edge,
            count: 0,
        }
    }

    fn random_node(&mut self, nodes: &[NodeId]) -> NodeId {
        nodes[self.rng.gen_range(0..nodes.len())]
    }

    /// The next batch; `model` is advanced past it.
    pub fn next(&mut self, model: &mut Snapshot) -> Batch {
        let t = self.next_time;
        self.next_time += 1;
        self.count += 1;
        let mut nodes: Vec<NodeId> = model.node_ids().collect();
        nodes.sort_unstable();
        let mut specs = Vec::with_capacity(BATCH_EVENTS);
        let mut raw = Vec::with_capacity(BATCH_EVENTS);
        let mut events = Vec::new();
        let mut normalized = 0;
        // A new node with one attribute.
        let n = NodeId(self.next_node);
        self.next_node += 1;
        specs.push(format!("NODE {t} {}", n.raw()));
        events.push(Event::add_node(t, n));
        let v = (self.rng.gen_range(0..1000)) as i64;
        specs.push(format!("NODEATTR {t} {} a0 {v}", n.raw()));
        events.push(Event::set_node_attr(
            t,
            n,
            "a0",
            None,
            Some(AttrValue::Int(v)),
        ));
        raw.extend(events.iter().cloned());
        let edges_to_add = if self.count.is_multiple_of(2) { 2 } else { 3 };
        for _ in 0..edges_to_add {
            let e = EdgeId(self.next_edge);
            self.next_edge += 1;
            let src = n;
            let dst = self.random_node(&nodes);
            specs.push(format!("EDGE {t} {} {} {}", e.raw(), src.raw(), dst.raw()));
            events.push(Event::add_edge(t, e, src, dst));
            raw.push(Event::add_edge(t, e, src, dst));
            let w = self.rng.gen_range(0..100) as i64;
            specs.push(format!("EDGEATTR {t} {} w {w}", e.raw()));
            let attr = Event::set_edge_attr(t, e, "w", None, Some(AttrValue::Int(w)));
            events.push(attr.clone());
            raw.push(attr);
        }
        if self.count.is_multiple_of(2) {
            // Delete an existing attributed edge without clearing it.
            let mut attributed: Vec<AttributedEdge> = model
                .edges()
                .filter(|(_, d)| !d.attrs.is_empty())
                .map(|(e, d)| {
                    let attrs = d
                        .attrs
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    (e, d.src, d.dst, attrs)
                })
                .collect();
            attributed.sort_by_key(|(e, ..)| *e);
            // Earlier batches always leave attributed edges behind.
            let (e, src, dst, mut attrs) =
                attributed.swap_remove(self.rng.gen_range(0..attributed.len()));
            attrs.sort_by(|a, b| a.0.cmp(&b.0));
            specs.push(format!(
                "DELEDGE {t} {} {} {}",
                e.raw(),
                src.raw(),
                dst.raw()
            ));
            raw.push(Event::delete_edge(t, e, src, dst));
            for (key, value) in attrs {
                events.push(Event::set_edge_attr(t, e, key, Some(value), None));
                normalized += 1;
            }
            events.push(Event::delete_edge(t, e, src, dst));
        }
        // Pad with attribute updates on existing nodes up to BATCH_EVENTS.
        while specs.len() < BATCH_EVENTS {
            let target = self.random_node(&nodes);
            let v = self.rng.gen_range(0..1000) as i64;
            specs.push(format!("NODEATTR {t} {} a1 {v}", target.raw()));
            let old = model.node_attr(target, "a1").cloned();
            raw.push(Event::set_node_attr(
                t,
                target,
                "a1",
                old.clone(),
                Some(AttrValue::Int(v)),
            ));
            // Later updates in the same batch see earlier ones.
            let old = events
                .iter()
                .rev()
                .find_map(|ev: &Event| match &ev.kind {
                    tgraph::EventKind::SetNodeAttr { node, key, new, .. }
                        if *node == target && key == "a1" =>
                    {
                        Some(new.clone())
                    }
                    _ => None,
                })
                .unwrap_or(old);
            events.push(Event::set_node_attr(
                t,
                target,
                "a1",
                old,
                Some(AttrValue::Int(v)),
            ));
        }
        for ev in &events {
            model
                .apply_forward(ev)
                .expect("generated batch is well formed");
        }
        Batch {
            time: t,
            specs,
            raw,
            expanded: events,
            normalized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Snapshot {
        datagen::toy_trace().final_snapshot()
    }

    fn streams(seed: u64) -> (Vec<Vec<ColdReq>>, Vec<i64>, Vec<String>) {
        let times: Vec<i64> = (1940..=2012).collect();
        let mut rng = stream(seed, "cold");
        let cold = (0..3).map(|_| cold_pass(&mut rng, &times)).collect();
        let hot = hot_stream(seed, &[1950, 1960, 1970, 1980], 200);
        let mut model = base();
        let mut gen = BatchGen::new(seed, &model, 100);
        let batches = (0..20).map(|_| gen.next(&mut model).line()).collect();
        (cold, hot, batches)
    }

    #[test]
    fn equal_seeds_give_identical_streams_and_different_seeds_do_not() {
        assert_eq!(streams(7), streams(7));
        let (a, b) = (streams(7), streams(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn a_cold_pass_never_repeats_a_time() {
        let times: Vec<i64> = (1940..=2012).collect();
        let pass = cold_pass(&mut stream(3, "cold"), &times);
        let mut seen: Vec<i64> = pass
            .iter()
            .flat_map(|r| match r {
                ColdReq::Point(t) => vec![*t],
                ColdReq::Multi(ts) => ts.to_vec(),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, times);
        assert!(pass.iter().any(|r| matches!(r, ColdReq::Multi(_))));
    }

    #[test]
    fn batches_are_well_formed_and_some_need_normalization() {
        let mut model = base();
        let mut gen = BatchGen::new(1, &model, 100);
        let batches: Vec<Batch> = (0..6).map(|_| gen.next(&mut model)).collect();
        assert!(batches.iter().all(|b| b.specs.len() == BATCH_EVENTS));
        assert!(batches.iter().any(|b| b.normalized > 0));
        assert!(batches.windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(16);
        let mut rng = stream(1, "z");
        let mut counts = [0usize; 16];
        for _ in 0..10_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[15]);
    }
}
