//! The answer key: naive replay of the fixed trace, rendered with the
//! server's own response types so replies can be compared byte-for-byte.

use std::collections::BTreeMap;
use std::sync::Arc;

use histql::{Response, WireFormat};
use tgraph::{AttrOptions, EventList, Snapshot, Timestamp};

use crate::gen::ATTRS;

/// Replayed snapshots of the trace at every whole time of its history,
/// projected to the benchmark's read options ([`ATTRS`]), plus the full
/// final state (the model that ingest starts from).
pub struct Reference {
    snaps: BTreeMap<i64, Arc<Snapshot>>,
    pub final_state: Snapshot,
    pub start: i64,
    pub end: i64,
}

impl Reference {
    pub fn build(events: &EventList) -> Reference {
        let start = events.start_time().expect("non-empty trace").raw();
        let end = events.end_time().expect("non-empty trace").raw();
        let opts = AttrOptions::parse(ATTRS).expect("valid options");
        let mut snaps = BTreeMap::new();
        let mut state = Snapshot::new();
        let evs = events.events();
        let mut i = 0;
        for t in start..=end {
            while i < evs.len() && evs[i].time.raw() <= t {
                state
                    .apply_forward(&evs[i])
                    .expect("fixed trace is well formed");
                i += 1;
            }
            snaps.insert(t, Arc::new(state.project_attrs(&opts)));
        }
        Reference {
            snaps,
            final_state: state,
            start,
            end,
        }
    }

    /// Every whole time of the history, ascending.
    pub fn times(&self) -> Vec<i64> {
        self.snaps.keys().copied().collect()
    }

    fn snap(&self, t: i64) -> Arc<Snapshot> {
        Arc::clone(
            self.snaps
                .get(&t)
                .expect("reference time inside the history"),
        )
    }

    /// The reply to `GET GRAPH AT t WITH +node:all`.
    pub fn point(&self, t: i64, format: WireFormat) -> Vec<u8> {
        Response::Graph {
            t: Timestamp(t),
            graph: self.snap(t),
        }
        .to_frame(format)
    }

    /// The reply to `GET GRAPHS AT t1,.. WITH +node:all`.
    #[cfg(test)]
    pub fn multi(&self, times: &[i64], format: WireFormat) -> Vec<u8> {
        Response::Graphs {
            items: times
                .iter()
                .map(|&t| (Timestamp(t), self.snap(t)))
                .collect(),
        }
        .to_frame(format)
    }
}

/// Precomputed text replies, so checking a reply is a byte comparison.
pub struct TextKey {
    points: BTreeMap<i64, Vec<u8>>,
}

impl TextKey {
    pub fn new(reference: &Reference) -> TextKey {
        let points = reference
            .times()
            .into_iter()
            .map(|t| (t, reference.point(t, WireFormat::Text)))
            .collect();
        TextKey { points }
    }

    pub fn point(&self, t: i64) -> &[u8] {
        &self.points[&t]
    }

    /// Whether `reply` is byte-identical to the text reply of a multipoint
    /// query over `times`: a header, then each point's reply without its
    /// `OK ` prefix and `END` sentinel, then `END`.
    pub fn check_multi(&self, reply: &[u8], times: &[i64]) -> bool {
        let header = format!("OK GRAPHS count={}\n", times.len());
        let Some(mut rest) = reply.strip_prefix(header.as_bytes()) else {
            return false;
        };
        for t in times {
            let p = self.point(*t);
            let item = &p[3..p.len() - 4];
            match rest.strip_prefix(item) {
                Some(r) => rest = r,
                None => return false,
            }
        }
        rest == b"END\n"
    }
}

/// `GET GRAPH AT t`, with `WITH attrs` unless `attrs` is empty (the
/// structure only, the verb's default).
pub fn graph_line(t: i64, attrs: &str) -> String {
    if attrs.is_empty() {
        format!("GET GRAPH AT {t}")
    } else {
        format!("GET GRAPH AT {t} WITH {attrs}")
    }
}

/// Every attribute: the options of the final check that every acked batch
/// is visible, attributes and normalized deletes included.
pub const ALL_ATTRS: &str = "+node:all+edge:all";

/// The text reply to [`graph_line`]`(t, attrs)` over `model`.
pub fn model_reply(model: &Snapshot, t: i64, attrs: &str) -> Vec<u8> {
    let opts = AttrOptions::parse(attrs).expect("valid options");
    Response::Graph {
        t: Timestamp(t),
        graph: Arc::new(model.project_attrs(&opts)),
    }
    .to_frame(WireFormat::Text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipoint_check_matches_the_server_rendering() {
        let ds = datagen::toy_trace();
        let r = Reference::build(&ds.events);
        let key = TextKey::new(&r);
        let times = [r.start, r.start + 2, r.end];
        let reply = r.multi(&times, WireFormat::Text);
        assert!(key.check_multi(&reply, &times));
        assert!(!key.check_multi(&reply, &[r.start, r.start + 1, r.end]));
        assert_eq!(key.point(r.end), &r.point(r.end, WireFormat::Text)[..]);
    }
}
