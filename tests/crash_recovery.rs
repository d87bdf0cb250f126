//! Fault-injection proof of the durability subsystem: a kill-point
//! matrix over a scripted churn workload.
//!
//! The model is a machine losing power at an arbitrary page write. A
//! [`FaultStore`] kills the store after exactly `k` writes; because every
//! durable commit is itself a page write, sweeping `k` over the whole
//! session covers **every WAL record boundary** — and every intermediate
//! state between boundaries, which is strictly stronger than the
//! boundary matrix alone. After each kill the store is reopened through
//! [`FlatDb::open_durable`] and must contain *exactly the committed
//! prefix* of the workload: every acknowledged batch survives, the
//! recovered index answers range and kNN queries identically to a
//! brute-force oracle over that prefix's survivors, and the structural
//! invariants hold.
//!
//! Set `FLAT_CRASH_STRIDE=n` to thin the matrix for quick local runs
//! (CI runs the full stride-1 matrix in release mode).

use flat_repro::prelude::*;
use flat_repro::storage::CrashStyle;
use std::collections::HashMap;

mod common;
use common::{
    apply_op, assert_matches_ground_truth, fresh_entries, run_crash_session, survivors_after,
    verify_crash_recovery, Op, SharedStore,
};

/// Matrix thinning for local runs; CI keeps the default of 1.
fn stride() -> usize {
    std::env::var("FLAT_CRASH_STRIDE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

fn domain() -> Aabb {
    Aabb::new(Point3::splat(0.0), Point3::splat(100.0))
}

fn durable_options() -> DbOptions {
    DbOptions::updatable(domain()).with_durability(Durability::WalCheckpoint { every_batches: 7 })
}

/// The scripted churn workload: 22 batches mixing id-spread deletes,
/// fresh inserts across generations, spatial-stripe deletes (which
/// retire whole partitions), and compactions. Built against a tracked
/// survivor map so every delete list is concrete and non-empty.
fn build_script(initial: &[Entry]) -> Vec<Op> {
    let domain = domain();
    let mut live: HashMap<u64, Entry> = initial.iter().map(|e| (e.id, *e)).collect();
    let mut ops: Vec<Op> = Vec::new();
    let mut push = |live: &mut HashMap<u64, Entry>, op: Op| {
        if let Op::Delete(ids) = &op {
            assert!(!ids.is_empty(), "scripted deletes must be non-empty");
        }
        apply_op(live, &op);
        ops.push(op);
    };
    // A delete list for everything in a spatial stripe of the current
    // survivors: empties whole partitions, so retirement runs.
    let stripe = |live: &HashMap<u64, Entry>, frac: f64| -> Vec<u64> {
        let cut = domain.min.x + domain.extents().x * frac;
        let mut ids: Vec<u64> = live
            .values()
            .filter(|e| e.mbr.center().x < cut)
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        ids
    };

    let initial_ids: Vec<u64> = initial.iter().map(|e| e.id).collect();
    push(
        &mut live,
        Op::Delete(initial_ids.iter().copied().filter(|i| i % 7 == 0).collect()),
    );
    push(
        &mut live,
        Op::Insert(fresh_entries(130, 1_000_000, &domain, 51)),
    );
    push(
        &mut live,
        Op::Delete(
            initial_ids
                .iter()
                .copied()
                .filter(|i| i % 5 == 1)
                .chain((1_000_000..1_000_060).step_by(3))
                .collect(),
        ),
    );
    push(
        &mut live,
        Op::Insert(fresh_entries(120, 2_000_000, &domain, 52)),
    );
    let doomed = stripe(&live, 0.2);
    push(&mut live, Op::Delete(doomed));
    push(&mut live, Op::Compact);
    push(
        &mut live,
        Op::Insert(fresh_entries(110, 3_000_000, &domain, 53)),
    );
    push(&mut live, Op::Delete((3_000_000..3_000_050).collect()));
    push(
        &mut live,
        Op::Insert(fresh_entries(90, 4_000_000, &domain, 54)),
    );
    let doomed = stripe(&live, 0.15);
    push(&mut live, Op::Delete(doomed));
    push(&mut live, Op::Compact);
    push(
        &mut live,
        Op::Insert(fresh_entries(80, 5_000_000, &domain, 55)),
    );
    let mod3: Vec<u64> = {
        let mut ids: Vec<u64> = live.keys().copied().filter(|i| i % 3 == 2).collect();
        ids.sort_unstable();
        ids
    };
    push(&mut live, Op::Delete(mod3));
    push(
        &mut live,
        Op::Insert(fresh_entries(70, 6_000_000, &domain, 56)),
    );
    push(&mut live, Op::Delete((5_000_000..5_000_040).collect()));
    push(&mut live, Op::Compact);
    push(
        &mut live,
        Op::Insert(fresh_entries(60, 7_000_000, &domain, 57)),
    );
    let doomed = stripe(&live, 0.1);
    push(&mut live, Op::Delete(doomed));
    push(
        &mut live,
        Op::Insert(fresh_entries(50, 8_000_000, &domain, 58)),
    );
    let every4th: Vec<u64> = {
        let mut ids: Vec<u64> = live.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().step_by(4).collect()
    };
    push(&mut live, Op::Delete(every4th));
    push(
        &mut live,
        Op::Insert(fresh_entries(40, 9_000_000, &domain, 59)),
    );
    push(&mut live, Op::Compact);
    assert!(ops.len() >= 20, "the acceptance matrix wants >= 20 ops");
    assert!(!live.is_empty());
    ops
}

/// The tentpole: page-atomic power cuts at **every** write index of the
/// whole session — create, build, churn batches, automatic checkpoints —
/// each followed by recovery and the committed-prefix equivalence check.
#[test]
fn kill_point_matrix_recovers_exactly_the_committed_prefix() {
    let initial = fresh_entries(700, 0, &domain(), 41);
    let ops = build_script(&initial);

    // Baseline: the same session with no fault, to size the matrix and
    // pin the clean-path behavior.
    let disk = SharedStore::new();
    let baseline = run_crash_session(&disk, None, &initial, &ops, &durable_options());
    assert!(baseline.created && baseline.built);
    assert_eq!(
        baseline.acked,
        ops.len(),
        "clean session must ack everything"
    );
    verify_crash_recovery(
        "clean",
        &disk,
        &baseline,
        &initial,
        &ops,
        &durable_options(),
        false,
    );
    assert!(
        baseline.writes > 100,
        "expected a substantial write trace, got {}",
        baseline.writes
    );

    let mut kills = 0u64;
    let mut unrecoverable = 0u64;
    for k in (0..baseline.writes).step_by(stride()) {
        let disk = SharedStore::new();
        let outcome = run_crash_session(
            &disk,
            Some((k, CrashStyle::Clean)),
            &initial,
            &ops,
            &durable_options(),
        );
        if !outcome.created {
            unrecoverable += 1;
        }
        verify_crash_recovery(
            &format!("kill {k}"),
            &disk,
            &outcome,
            &initial,
            &ops,
            &durable_options(),
            false,
        );
        kills += 1;
    }
    assert!(kills * stride() as u64 >= baseline.writes);
    // The unrecoverable window is exactly the handful of writes before
    // the initial checkpoint commits — not a growing fraction.
    assert!(
        unrecoverable < 16,
        "{unrecoverable} kill points predate the initial checkpoint"
    );
}

/// The same matrix with the final write torn in half: a sector-sized
/// power loss. Committed batches must still all survive; the torn tail
/// is detected (checksum mismatch) and truncated, never replayed.
#[test]
fn torn_final_write_matrix_never_replays_the_torn_record() {
    let initial = fresh_entries(700, 0, &domain(), 41);
    let ops = build_script(&initial);
    let disk = SharedStore::new();
    let baseline = run_crash_session(&disk, None, &initial, &ops, &durable_options());
    assert_eq!(baseline.acked, ops.len());

    // Tear at an awkward offset (mid-record-header, mid-payload) rather
    // than a clean fraction of the page.
    for (style_id, prefix) in [(0usize, 37usize), (1, 1500)] {
        for k in (1..baseline.writes).step_by(stride()) {
            let disk = SharedStore::new();
            let outcome = run_crash_session(
                &disk,
                Some((k, CrashStyle::Torn { prefix })),
                &initial,
                &ops,
                &durable_options(),
            );
            verify_crash_recovery(
                &format!("torn({prefix}) kill {k} [{style_id}]"),
                &disk,
                &outcome,
                &initial,
                &ops,
                &durable_options(),
                true,
            );
        }
    }
}

/// A database recovered from a kill is a full citizen: it accepts the
/// rest of the workload, checkpoints, survives a second reopen, and ends
/// bit-equivalent to the oracle over the whole script.
#[test]
fn recovered_database_stays_writable_and_durable() {
    let initial = fresh_entries(700, 0, &domain(), 41);
    let ops = build_script(&initial);
    let disk = SharedStore::new();
    let baseline = run_crash_session(&disk, None, &initial, &ops, &durable_options());

    // Kill mid-script (around 60% of the write trace).
    let kill = baseline.writes * 6 / 10;
    let disk = SharedStore::new();
    let outcome = run_crash_session(
        &disk,
        Some((kill, CrashStyle::Clean)),
        &initial,
        &ops,
        &durable_options(),
    );
    assert!(outcome.created && outcome.built, "pick a later kill point");
    assert!(
        outcome.acked < ops.len(),
        "kill point {kill} did not interrupt the script"
    );

    let (mut db, report) = FlatDb::open_durable(disk.clone(), durable_options()).unwrap();
    let committed = report.last_committed_seq as usize;

    // Finish the script on the recovered session.
    for op in &ops[committed..] {
        let mut writer = db.writer().unwrap();
        match op {
            Op::Insert(entries) => writer.insert(entries.clone()).unwrap(),
            Op::Delete(ids) => {
                writer.delete(ids).unwrap();
            }
            Op::Compact => {
                writer.compact().unwrap();
            }
        }
    }
    let survivors = survivors_after(&initial, &ops, ops.len());
    assert_matches_ground_truth(&db, &survivors, &domain(), 77);

    // And the continuation itself is durable: checkpoint, drop, reopen.
    db.checkpoint().unwrap();
    drop(db);
    let (db, report) = FlatDb::open_durable(disk.clone(), durable_options()).unwrap();
    assert_eq!(report.replayed, 0, "checkpoint must have truncated the log");
    assert_eq!(report.last_committed_seq as usize, ops.len());
    assert_matches_ground_truth(&db, &survivors, &domain(), 78);
}

/// A crash leaks no page. Each cycle commits a few batches, crashes
/// before the next checkpoint (the page versions are lost, the log keeps
/// the batches), recovers — replaying them — and checkpoints. After every
/// cycle the store holds exactly as many allocated, non-free pages as a
/// session that never crashed and committed the same batches: the pages
/// the lost versions had taken are free again.
#[test]
fn crash_recover_checkpoint_cycles_leak_no_page() {
    let initial = fresh_entries(700, 0, &domain(), 41);
    let ops = build_script(&initial);
    let options = DbOptions::updatable(domain()).with_durability(Durability::Wal);
    let in_use = |db: &FlatDb<MemStore>| {
        let store = db.store();
        store.num_pages() - store.free_pages().len() as u64
    };
    let session = || {
        let mut db = FlatDb::create_durable(MemStore::new(), options).unwrap();
        db.build_from(initial.clone()).unwrap();
        db
    };
    let (mut crashed, mut clean) = (session(), session());
    let mut cycles = 0;
    for group in ops.chunks(3) {
        for db in [&mut crashed, &mut clean] {
            for op in group {
                let mut writer = db.writer().unwrap();
                match op {
                    Op::Insert(entries) => writer.insert(entries.clone()).unwrap(),
                    Op::Delete(ids) => {
                        writer.delete(ids).unwrap();
                    }
                    Op::Compact => {
                        writer.compact().unwrap();
                    }
                }
            }
        }
        let (recovered, report) = FlatDb::open_durable(crashed.into_store(), options).unwrap();
        assert_eq!(report.replayed, group.len(), "the crash lost no batch");
        crashed = recovered;
        crashed.checkpoint().unwrap();
        clean.checkpoint().unwrap();
        assert_eq!(
            in_use(&crashed),
            in_use(&clean),
            "pages in use after crash cycle {cycles}"
        );
        cycles += 1;
    }
    assert!(cycles >= 7, "{cycles} crash cycles");
    let survivors = survivors_after(&initial, &ops, ops.len());
    assert_matches_ground_truth(&crashed, &survivors, &domain(), 80);
}

// ---------- media corruption ----------

/// Offsets of WAL head-page geometry (see `flat_storage::wal`): magic at
/// byte 0, generation at byte 8, record stream at byte 24.
const WAL_MAGIC: u64 = 0x464C_4154_5741_4C31;
const WAL_STREAM_START: usize = 24;

/// Finds the active (highest-generation) WAL slot page by scanning for
/// the log magic — the test deliberately rediscovers the layout instead
/// of asking the store, as a forensic tool would.
fn active_wal_slot(store: &MemStore) -> (PageId, Page) {
    let mut best: Option<(u64, PageId, Page)> = None;
    for id in 0..store.num_pages() {
        let mut page = Page::new();
        if store.read_page(PageId(id), &mut page).is_err() {
            continue;
        }
        if page.get_u64(0) == WAL_MAGIC {
            let generation = page.get_u64(8);
            if best.as_ref().is_none_or(|(g, _, _)| generation > *g) {
                best = Some((generation, PageId(id), page.clone()));
            }
        }
    }
    let (_, id, page) = best.expect("no WAL slot page found");
    (id, page)
}

/// A flipped bit in the last log record's payload — media corruption
/// after the fsync — must be *detected* (checksum) and the tail
/// *truncated*, recovering the pre-record state; it must never replay
/// the corrupt bytes.
#[test]
fn corrupt_log_tail_is_truncated_not_replayed() {
    let options = DbOptions::updatable(domain()).with_durability(Durability::Wal);
    let mut db = FlatDb::create_durable(MemStore::new(), options).unwrap();
    let initial = fresh_entries(400, 0, &domain(), 61);
    db.build_from(initial.clone()).unwrap();
    // One small acknowledged batch sits in the log, after the build's
    // checkpoint record.
    let extra = fresh_entries(20, 1_000_000, &domain(), 62);
    db.writer().unwrap().insert(extra).unwrap();
    let mut store = db.into_store();

    // Walk the record stream of the active slot to find the last record
    // (the logical insert), then flip one bit inside its payload.
    let (slot, page) = active_wal_slot(&store);
    let mut pos = 0usize;
    let mut last: Option<(usize, usize)> = None;
    loop {
        let len = page.get_u32(WAL_STREAM_START + pos) as usize;
        if len == 0 {
            break;
        }
        last = Some((pos, len));
        pos += 8 + len;
    }
    let (start, len) = last.expect("log has no records");
    assert!(len > 16, "expected the insert record last, got {len} bytes");
    let mut corrupt = page.clone();
    let target = WAL_STREAM_START + start + 8 + len / 2;
    corrupt.bytes_mut()[target] ^= 0x10;
    store.write_page(slot, &corrupt).unwrap();

    let (db, report) = FlatDb::open_durable(store, options).unwrap();
    assert!(
        report.torn_tail_truncated,
        "corruption went undetected and the record may have replayed"
    );
    assert_eq!(report.replayed, 0, "a corrupt record must not replay");
    // The recovered state is the pre-batch build — the corrupt insert
    // is gone entirely, not half-applied.
    let survivors: HashMap<u64, Entry> = initial.iter().map(|e| (e.id, *e)).collect();
    assert_matches_ground_truth(&db, &survivors, &domain(), 79);
}

/// A flipped bit in the store header is unrecoverable and must be
/// reported as corruption, not silently reinitialized.
#[test]
fn corrupt_header_fails_loudly() {
    let options = DbOptions::updatable(domain()).with_durability(Durability::Wal);
    let mut db = FlatDb::create_durable(MemStore::new(), options).unwrap();
    db.build_from(fresh_entries(100, 0, &domain(), 63)).unwrap();
    let mut store = db.into_store();

    let mut header = Page::new();
    store.read_page(PageId(0), &mut header).unwrap();
    header.bytes_mut()[3] ^= 0x01; // inside the magic
    store.write_page(PageId(0), &header).unwrap();

    let err = FlatDb::open_durable(store, options).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("magic") || msg.contains("corrupt") || msg.contains("Corrupt"),
        "unexpected error for a corrupt header: {msg}"
    );
}
