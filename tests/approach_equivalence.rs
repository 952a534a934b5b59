//! Every snapshot-retrieval approach — DeltaGraph (all differential
//! functions), Copy+Log, naive Log, and the interval tree — must return
//! byte-for-byte identical snapshots for identical queries. This is the
//! cross-cutting invariant behind every comparison figure in the paper.

use std::sync::Arc;

use historygraph::baselines::{CopyLog, IntervalTree, NaiveLog, SnapshotSource};
use historygraph::datagen::{churn_trace, uniform_timepoints, ChurnConfig};
use historygraph::deltagraph::{DeltaGraph, DeltaGraphConfig, DifferentialFunction};
use historygraph::kvstore::MemStore;
use historygraph::tgraph::{AttrOptions, Event, Timestamp};
use historygraph::{
    DeltaGraphSource, GraphManager, GraphManagerConfig, ShardedConfig, ShardedGraphManager,
};
use proptest::prelude::*;

#[test]
fn all_approaches_return_identical_snapshots() {
    let ds = churn_trace(&ChurnConfig::tiny(201));
    let times = uniform_timepoints(ds.start_time(), ds.end_time(), 9);

    let log = NaiveLog::new(ds.events.clone());
    let copylog = CopyLog::build(&ds.events, 100, Arc::new(MemStore::new())).unwrap();
    let tree = IntervalTree::build(&ds.events);

    let mut deltagraphs = Vec::new();
    for f in [
        DifferentialFunction::Intersection,
        DifferentialFunction::Balanced,
        DifferentialFunction::Mixed { r1: 0.9, r2: 0.1 },
        DifferentialFunction::Empty,
    ] {
        deltagraphs.push(
            DeltaGraph::build(
                &ds.events,
                DeltaGraphConfig::new(90, 3).with_diff_fn(f),
                Arc::new(MemStore::new()),
            )
            .unwrap(),
        );
    }

    for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
        for &t in &times {
            let reference = log.snapshot_at(t, &opts).unwrap();
            assert_eq!(
                copylog.snapshot_at(t, &opts).unwrap(),
                reference,
                "copy+log t={t}"
            );
            assert_eq!(
                tree.snapshot_at(t, &opts).unwrap(),
                reference,
                "interval tree t={t}"
            );
            for dg in &deltagraphs {
                let source = DeltaGraphSource::new(dg);
                assert_eq!(
                    source.snapshot_at(t, &opts).unwrap(),
                    reference,
                    "deltagraph {} t={t}",
                    dg.config().diff_fn.name()
                );
            }
        }
    }
}

proptest! {
    /// The sharded serving layer extends the cross-approach invariant: for
    /// random event streams, random shard boundaries (explicit or
    /// equi-width), and a random roll budget, `ShardedGraphManager`
    /// snapshots are node/edge/attribute-identical to a single
    /// `GraphManager` replaying the same stream — across the built history,
    /// at and around every shard boundary, and through live appends that
    /// roll new tail shards.
    #[test]
    fn prop_sharded_router_matches_single_manager_replay(
        seed in 0u64..6,
        shard_count in 1usize..6,
        fracs in proptest::collection::vec(1u64..100, 0..4),
        budget in 0usize..12,
    ) {
        let ds = churn_trace(&ChurnConfig::tiny(500 + seed));
        let start = ds.start_time().raw();
        let end = ds.end_time().raw();
        let span = (end - start).max(1);
        let base = if fracs.is_empty() {
            ShardedConfig::default().with_shards(shard_count)
        } else {
            let bounds: Vec<Timestamp> = fracs
                .iter()
                .map(|&f| Timestamp(start + span * f as i64 / 100))
                .collect();
            ShardedConfig::default().with_boundaries(bounds)
        };
        let sharded =
            ShardedGraphManager::build_in_memory(&ds.events, base.with_shard_events(budget))
                .unwrap();
        let mut single =
            GraphManager::build_in_memory(&ds.events, GraphManagerConfig::default()).unwrap();

        // Probe times: a uniform spread plus every shard boundary and its
        // neighbours (the seams the seeding logic must get right).
        let mut times: Vec<Timestamp> =
            uniform_timepoints(ds.start_time(), ds.end_time(), 7);
        for info in sharded.shard_infos() {
            if let Some(lower) = info.lower {
                times.extend([lower.prev(), lower, lower.next()]);
            }
        }
        let compare = |sharded: &ShardedGraphManager, single: &GraphManager, times: &[Timestamp]| {
            for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
                for &t in times {
                    let got = sharded.snapshot_at(t, &opts).unwrap();
                    let want = single.index().get_snapshot(t, &opts).unwrap();
                    assert_eq!(got, want, "t={} opts={}", t.raw(), opts.canonical_string());
                }
            }
        };
        compare(&sharded, &single, &times);

        // Live appends land on the tail (rolling new shards under small
        // budgets) and must stay equivalent, including around the rolls.
        let mut append_times = Vec::new();
        for i in 0..15i64 {
            let t = end + 1 + i;
            let node = 900_000 + i as u64;
            let ev = Event::add_node(t, node);
            sharded.append_event(ev.clone()).unwrap();
            single.append_event(ev).unwrap();
            let attr = Event::set_node_attr(
                t,
                node,
                "w",
                None,
                Some(historygraph::tgraph::AttrValue::Int(i)),
            );
            sharded.append_event(attr.clone()).unwrap();
            single.append_event(attr).unwrap();
            append_times.push(Timestamp(t));
        }
        compare(&sharded, &single, &times);
        compare(&sharded, &single, &append_times);
    }
}

proptest! {
    /// `APPEND BATCH` extends the invariant to transactional ingest: for
    /// random roll budgets and batch shapes, a sharded router applying
    /// whole batches (each routed to the tail as a unit, rolling at most
    /// one new shard per batch) stays snapshot-identical to a single
    /// manager applying the same batches — including batches whose arrival
    /// triggers a tail roll, and batches that carry ill-formed deletes the
    /// §3.1 boundary must normalize identically on both sides.
    #[test]
    fn prop_sharded_batches_match_single_manager_across_rolls(
        seed in 0u64..4,
        shard_count in 1usize..4,
        budget in 0usize..8,
        batches in 1usize..6,
        batch_len in 1usize..5,
    ) {
        use historygraph::tgraph::AttrValue;

        let ds = churn_trace(&ChurnConfig::tiny(700 + seed));
        let end = ds.end_time().raw();
        let sharded = ShardedGraphManager::build_in_memory(
            &ds.events,
            ShardedConfig::default()
                .with_shards(shard_count)
                .with_shard_events(budget),
        )
        .unwrap();
        let mut single =
            GraphManager::build_in_memory(&ds.events, GraphManagerConfig::default()).unwrap();

        let mut t = end;
        let mut probe_times = Vec::new();
        for b in 0..batches as i64 {
            // Each batch: a node birth, an attribute write, and (for the
            // later batches) an ill-formed delete of the previous batch's
            // still-attributed node — exercising normalization inside the
            // atomic unit on both the sharded and the single path.
            let node = 910_000 + b as u64;
            let mut batch = Vec::new();
            for k in 0..batch_len as i64 {
                t += 1;
                batch.push(match k % 3 {
                    0 => Event::add_node(t, node + 1000 * k as u64),
                    1 => Event::set_node_attr(
                        t,
                        node,
                        "w",
                        None,
                        Some(AttrValue::Int(b * 100 + k)),
                    ),
                    _ => Event::delete_node(t, node + 1000 * (k - 2) as u64),
                });
            }
            let got = sharded.append_batch(batch.clone()).unwrap();
            let want = single.append_batch(batch).unwrap();
            assert_eq!(got.applied, want.applied, "batch {b} applied count");
            assert_eq!(got.normalized, want.normalized, "batch {b} normalization");
            // The whole batch landed in one shard: its time span never
            // straddles a shard boundary.
            assert_eq!(
                sharded.shard_index_for(got.t_min),
                sharded.shard_index_for(got.t_max),
                "batch {b} straddles shards"
            );
            probe_times.extend([got.t_min, got.t_max]);
        }
        for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
            for &pt in &probe_times {
                let got = sharded.snapshot_at(pt, &opts).unwrap();
                let want = single.index().get_snapshot(pt, &opts).unwrap();
                assert_eq!(got, want, "t={} opts={}", pt.raw(), opts.canonical_string());
            }
        }
    }
}

proptest! {
    /// Durable recovery extends the invariant to crashes: for random
    /// streams, shard layouts, roll budgets, live appends (single events
    /// and `APPEND BATCH`es), and a random kill point (the WAL torn at an
    /// arbitrary byte offset), a recovered router must answer point
    /// retrievals identically to an in-memory manager replaying the
    /// surviving prefix of the stream. The prefix is computed from the
    /// appends the test made and the WAL's record headers: every append —
    /// a single event or a whole batch — is one record, so a tear keeps or
    /// loses each batch whole and never leaves a batch prefix.
    #[test]
    fn prop_recovered_router_matches_in_memory_over_surviving_prefix(
        seed in 0u64..4,
        shard_count in 1usize..4,
        budget in 0usize..10,
        unit_sizes in proptest::collection::vec(1usize..5, 1..12),
        cut_frac in 0u64..101,
    ) {
        use historygraph::kvstore::read_wal_events;
        use historygraph::WalSyncPolicy;

        let dir = std::env::temp_dir().join(format!(
            "recovery-equivalence-{}-{seed}-{shard_count}-{budget}-{}-{cut_frac}",
            std::process::id(),
            unit_sizes.len(),
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let ds = churn_trace(&ChurnConfig::tiny(900 + seed));
        let end = ds.end_time().raw();
        let config = ShardedConfig::default()
            .with_shards(shard_count)
            .with_shard_events(budget);
        let durable = ShardedGraphManager::build_durable(
            &ds.events,
            config.clone(),
            &dir,
            WalSyncPolicy::Off,
        )
        .unwrap();
        // The stream's units in write order: every built event is its own
        // unit, then each append — one event, or one batch at one time.
        let mut all_events: Vec<Event> = ds.events.events().to_vec();
        let mut units: Vec<usize> = vec![1; all_events.len()];
        for (u, &size) in unit_sizes.iter().enumerate() {
            let t = end + 1 + u as i64;
            let unit: Vec<Event> = (0..size)
                .map(|k| Event::add_node(t, 900_000 + (u * 8 + k) as u64))
                .collect();
            if size == 1 {
                durable.append_event(unit[0].clone()).unwrap();
            } else {
                let outcome = durable.append_batch(unit.clone()).unwrap();
                assert_eq!(outcome.applied, size);
            }
            all_events.extend(unit);
            units.push(size);
        }
        drop(durable); // the "crash": no shutdown hook runs

        // Tear the tail WAL at cut_frac% of its length. The tail WAL holds
        // the newest units, one record each; a unit survives iff its whole
        // record lies before the cut, and losing the log's last records
        // loses exactly the stream's tail.
        let wal = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                p.extension().is_some_and(|x| x == "log")
                    && p.file_name().is_some_and(|f| f != "keys.log")
            })
            .expect("tail wal");
        let mut in_wal = read_wal_events(&wal).unwrap().len();
        let mut wal_units = Vec::new();
        while in_wal > 0 {
            let size = units.pop().expect("the WAL holds whole units");
            assert!(size <= in_wal, "a unit straddles the WAL's start");
            in_wal -= size;
            wal_units.insert(0, size);
        }
        let bytes = std::fs::read(&wal).unwrap();
        let mut record_ends = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            // Record header: magic byte, payload length (u32 LE), CRC-32.
            let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
            pos += 9 + len as usize;
            record_ends.push(pos as u64);
        }
        assert_eq!(
            record_ends.len(),
            wal_units.len(),
            "every append, single or batch, is exactly one WAL record"
        );
        let cut = bytes.len() as u64 * cut_frac / 100;
        let dropped: usize = record_ends
            .iter()
            .zip(&wal_units)
            .filter(|(&end, _)| end > cut)
            .map(|(_, &size)| size)
            .sum();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let surviving = &all_events[..all_events.len() - dropped];

        if surviving.is_empty() {
            // Nothing survived anywhere (single shard, WAL fully gone):
            // recovery must refuse rather than serve an empty history.
            assert!(ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).is_err());
        } else {
            let recovered =
                ShardedGraphManager::open(&dir, config, WalSyncPolicy::Off).unwrap();
            let oracle = GraphManager::build_in_memory(
                &historygraph::tgraph::EventList::from_events(surviving.to_vec()),
                GraphManagerConfig::default(),
            )
            .unwrap();

            let last = surviving.last().unwrap().time;
            let mut times: Vec<Timestamp> =
                uniform_timepoints(ds.start_time(), last, 7);
            times.push(last);
            for info in recovered.shard_infos() {
                if let Some(lower) = info.lower {
                    times.extend([lower.prev(), lower, lower.next()]);
                }
            }
            for opts in [AttrOptions::all(), AttrOptions::structure_only()] {
                for &t in &times {
                    let got = recovered.snapshot_at(t, &opts).unwrap();
                    let want = oracle.index().get_snapshot(t, &opts).unwrap();
                    assert_eq!(got, want, "t={} opts={}", t.raw(), opts.canonical_string());
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn storage_footprints_are_reported_and_ordered_sensibly() {
    let ds = churn_trace(&ChurnConfig::tiny(203));

    let copylog = CopyLog::build(&ds.events, 100, Arc::new(MemStore::new())).unwrap();
    let dg = DeltaGraph::build(
        &ds.events,
        DeltaGraphConfig::new(100, 2).with_diff_fn(DifferentialFunction::Intersection),
        Arc::new(MemStore::new()),
    )
    .unwrap();
    let tree = IntervalTree::build(&ds.events);

    // Copy+Log stores full snapshots and must use more disk than the
    // Intersection DeltaGraph at the same leaf granularity.
    let dg_source = DeltaGraphSource::new(&dg);
    assert!(copylog.storage_bytes() > dg_source.storage_bytes());
    // The interval tree is an in-memory structure.
    assert_eq!(tree.storage_bytes(), 0);
    assert!(tree.memory_bytes() > 0);
}
