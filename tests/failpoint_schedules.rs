//! Property test: random IO-fault schedules against the append/roll
//! protocol never corrupt a durable deployment.
//!
//! Each case builds a small durable router, arms one failpoint (random
//! site × fault kind × trigger window, path-scoped to the case's own data
//! directory), then pushes appends through the tail — crossing several
//! shard rolls, so the WAL, segment seal, and manifest rewrite sites are
//! all exercised. Individual appends may fail and the tail may degrade;
//! that is the injected failure doing its job. The invariant is about
//! what's on disk afterwards: with the fault cleared, `open` must succeed,
//! every *acknowledged* append must be visible again at its own timestamp
//! (an unacknowledged append may also survive — a fault after the
//! durability point loses the ack, not the data — but nothing may be
//! half-applied), and the recovered tail must accept new appends. Note a
//! fault in the *roll* path fails a few appends mid-sequence without
//! degrading the WAL tail, so gaps in the survivor set are legitimate.

use std::sync::atomic::{AtomicUsize, Ordering};

use historygraph::{ShardedConfig, ShardedGraphManager, WalSyncPolicy};
use kvstore::faults::{self, FaultKind};
use proptest::prelude::*;
use tgraph::{AttrOptions, Event, EventList, NodeId, Timestamp};

/// Every failpoint site the append/roll protocol crosses.
const SITES: &[&str] = &[
    "wal.create",
    "wal.append",
    "wal.truncate",
    "wal.sync",
    "segment.open",
    "segment.write",
    "segment.sync",
    "segment.rename",
    "segment.dirsync",
    "manifest.open",
    "manifest.write",
    "manifest.sync",
    "manifest.rename",
    "keys.append",
];

const KINDS: &[FaultKind] = &[
    FaultKind::Enospc,
    FaultKind::Eio,
    FaultKind::ShortWrite,
    FaultKind::FsyncFail,
    FaultKind::RenameFail,
    FaultKind::Transient,
];

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #[test]
    fn random_fault_schedules_never_corrupt_recovery(
        site_idx in 0..14usize,
        kind_idx in 0..6usize,
        skip in 0..8u64,
        count in 1..4u64,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "failpoint-prop-{}-{case}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let scope = dir.to_str().unwrap().to_string();

        // A small healthy deployment: 16 nodes, tail rolls every 8 events,
        // so the appends below cross several seal-and-roll cycles.
        let events = EventList::from_events(
            (1..=16).map(|i| Event::add_node(i, 1000 + i as u64)).collect(),
        );
        let config = ShardedConfig::default().with_shard_events(8);
        let router = ShardedGraphManager::build_durable(
            &events,
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();

        // One random fault, scoped to this case's directory only.
        faults::arm_scoped(SITES[site_idx], KINDS[kind_idx], skip, Some(count), Some(&scope));

        const APPENDS: u64 = 24;
        let mut acked = Vec::new();
        for i in 0..APPENDS {
            let event = Event::add_node(100 + i as i64, 2000 + i);
            if router.append_event(event).is_ok() {
                acked.push(2000 + i);
            }
        }
        faults::clear(SITES[site_idx]);
        drop(router);

        // With the fault gone, recovery must succeed outright...
        let reopened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always)
            .unwrap_or_else(|e| panic!(
                "recovery failed after {}={:?}:skip={skip}:count={count}: {e}",
                SITES[site_idx], KINDS[kind_idx]
            ));
        let snap = reopened
            .snapshot_at(Timestamp(1000), &AttrOptions::all())
            .unwrap();
        // ...every acknowledged append must be there...
        for id in &acked {
            assert!(
                snap.has_node(NodeId(*id)),
                "acked node {id} lost after {}={:?}:skip={skip}:count={count}",
                SITES[site_idx], KINDS[kind_idx]
            );
        }
        // ...at its own timestamp, not just at the end of history (the
        // event was recovered whole, into the right shard)...
        if let Some(&last) = acked.last() {
            let i = last - 2000;
            let at = reopened
                .snapshot_at(Timestamp(100 + i as i64), &AttrOptions::all())
                .unwrap();
            assert!(at.has_node(NodeId(last)), "acked node {last} misplaced in time");
        }
        // ...nothing outside the attempted sequence was conjured up...
        for id in snap.node_ids() {
            assert!(
                (1001..=1016).contains(&id.0) || (2000..2000 + APPENDS).contains(&id.0),
                "unexpected node {} after {}={:?}:skip={skip}:count={count}",
                id.0, SITES[site_idx], KINDS[kind_idx]
            );
        }
        // ...and the recovered tail serves writes again.
        reopened
            .append_event(Event::add_node(900, 3000 + case as u64))
            .unwrap_or_else(|e| panic!(
                "recovered tail refused a fresh append after {}={:?}: {e}",
                SITES[site_idx], KINDS[kind_idx]
            ));
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    /// The batch analogue: random fault schedules against `APPEND BATCH`
    /// never tear a batch. Each batch is written write-ahead as a unit and
    /// rolled back to its start offset on failure, so recovery must see
    /// every batch all-or-nothing: an acked batch fully visible, a failed
    /// batch either fully absent or (when the fault struck after the
    /// durability point, losing only the ack) fully present — never a
    /// prefix.
    #[test]
    fn random_fault_schedules_never_tear_batches(
        site_idx in 0..14usize,
        kind_idx in 0..6usize,
        skip in 0..8u64,
        count in 1..4u64,
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "failpoint-batch-prop-{}-{case}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let scope = dir.to_str().unwrap().to_string();

        let events = EventList::from_events(
            (1..=16).map(|i| Event::add_node(i, 1000 + i as u64)).collect(),
        );
        let config = ShardedConfig::default().with_shard_events(8);
        let router = ShardedGraphManager::build_durable(
            &events,
            config.clone(),
            &dir,
            WalSyncPolicy::Always,
        )
        .unwrap();

        faults::arm_scoped(SITES[site_idx], KINDS[kind_idx], skip, Some(count), Some(&scope));

        // 8 batches of 3 events each, crossing at least one tail roll.
        const BATCHES: u64 = 8;
        const PER: u64 = 3;
        let mut acked = Vec::new();
        for b in 0..BATCHES {
            let t = 100 + b as i64 * 10;
            let batch: Vec<Event> = (0..PER)
                .map(|k| Event::add_node(t + k as i64, 2000 + b * 100 + k))
                .collect();
            if router.append_batch(batch).is_ok() {
                acked.push(b);
            }
        }
        faults::clear(SITES[site_idx]);
        drop(router);

        let reopened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always)
            .unwrap_or_else(|e| panic!(
                "recovery failed after {}={:?}:skip={skip}:count={count}: {e}",
                SITES[site_idx], KINDS[kind_idx]
            ));
        let snap = reopened
            .snapshot_at(Timestamp(1000), &AttrOptions::all())
            .unwrap();
        for b in 0..BATCHES {
            let present: Vec<bool> = (0..PER)
                .map(|k| snap.has_node(NodeId(2000 + b * 100 + k)))
                .collect();
            let whole = present.iter().all(|&p| p);
            let none = present.iter().all(|&p| !p);
            assert!(
                whole || none,
                "batch {b} recovered torn ({present:?}) after {}={:?}:skip={skip}:count={count}",
                SITES[site_idx], KINDS[kind_idx]
            );
            if acked.contains(&b) {
                assert!(
                    whole,
                    "acked batch {b} lost after {}={:?}:skip={skip}:count={count}",
                    SITES[site_idx], KINDS[kind_idx]
                );
            }
        }
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Transient faults on a batch count **one retry per batch attempt**, not
/// one per event: a batch is one WAL record, truncated back to its start
/// offset and rewritten whole, so `storage_retries_total` moves by the
/// number of rewrite rounds, never by the batch's width.
#[test]
fn transient_batch_fault_counts_one_retry_not_one_per_event() {
    let dir = std::env::temp_dir().join(format!("failpoint-batch-retry-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let scope = dir.to_str().unwrap().to_string();

    let events = EventList::from_events(
        (1..=4)
            .map(|i| Event::add_node(i, 1000 + i as u64))
            .collect(),
    );
    let config = ShardedConfig::default();
    let router =
        ShardedGraphManager::build_durable(&events, config, &dir, WalSyncPolicy::Always).unwrap();

    // One transient fault striking the 3-event batch's one WAL write.
    faults::arm_scoped("wal.append", FaultKind::Transient, 0, Some(1), Some(&scope));
    let batch: Vec<Event> = (0..3)
        .map(|k| Event::add_node(100 + k, 2000 + k as u64))
        .collect();
    let outcome = router.append_batch(batch).unwrap();
    faults::clear("wal.append");
    assert_eq!(outcome.applied, 3);

    let health = router.health_info();
    assert_eq!(
        health.storage_retries, 1,
        "one rewrite round must count one retry, not one per event"
    );
    assert!(!health.degraded, "a recovered transient must not degrade");
    // The retried batch is fully visible.
    let snap = router
        .snapshot_at(Timestamp(200), &AttrOptions::all())
        .unwrap();
    for k in 0..3u64 {
        assert!(
            snap.has_node(NodeId(2000 + k)),
            "node {k} missing after retry"
        );
    }
    drop(router);
    std::fs::remove_dir_all(&dir).ok();
}

/// A fatal mid-batch fault degrades the tail exactly once and leaves it
/// serving the pre-batch state: no event of the failed batch is visible at
/// any timestamp, and recovery (with the fault cleared) agrees.
#[test]
fn fatal_mid_batch_fault_leaves_pre_batch_state() {
    let dir = std::env::temp_dir().join(format!("failpoint-batch-fatal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let scope = dir.to_str().unwrap().to_string();

    let events = EventList::from_events(
        (1..=4)
            .map(|i| Event::add_node(i, 1000 + i as u64))
            .collect(),
    );
    let config = ShardedConfig::default();
    let router =
        ShardedGraphManager::build_durable(&events, config.clone(), &dir, WalSyncPolicy::Always)
            .unwrap();

    // A short write: half of the batch's one WAL record reaches the file,
    // then EIO — a torn batch on disk, fatal, no retry.
    faults::arm_scoped(
        "wal.append",
        FaultKind::ShortWrite,
        0,
        Some(u64::MAX),
        Some(&scope),
    );
    let batch: Vec<Event> = (0..3)
        .map(|k| Event::add_node(100 + k, 2000 + k as u64))
        .collect();
    let err = router.append_batch(batch).unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
    faults::clear("wal.append");

    let health = router.health_info();
    assert!(health.degraded, "fatal batch fault must degrade the tail");
    assert_eq!(health.storage_retries, 0, "a fatal fault is not a retry");
    // The live tail serves the pre-batch state — no prefix of the batch.
    let snap = router
        .snapshot_at(Timestamp(200), &AttrOptions::all())
        .unwrap();
    for k in 0..3u64 {
        assert!(!snap.has_node(NodeId(2000 + k)), "batch prefix leaked live");
    }
    drop(router);

    // And so does recovery.
    let reopened = ShardedGraphManager::open(&dir, config, WalSyncPolicy::Always).unwrap();
    let snap = reopened
        .snapshot_at(Timestamp(200), &AttrOptions::all())
        .unwrap();
    for k in 0..3u64 {
        assert!(
            !snap.has_node(NodeId(2000 + k)),
            "batch prefix survived recovery"
        );
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
