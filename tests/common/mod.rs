//! Shared machinery for the integration suites: scripted update ops, the
//! differential harness that pins the delta layer to from-scratch
//! rebuilds, brute-force oracles (range counts, ε-joins, crash-recovery
//! answers), and a clonable in-memory "disk" whose contents survive the
//! session that wrote them (so fault-injection tests can reopen the store
//! a crashed session consumed).
//!
//! Each integration test binary compiles its own copy of this module and
//! uses a different subset of it, so unused items are expected.
#![allow(dead_code)]

use flat_repro::prelude::*;
use flat_repro::storage::StorageError;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// FNV-1a (64-bit) over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the store's page count and every page's bytes, in page-id
/// order. Freed pages cannot be read: their ids are hashed after the
/// allocated pages instead (nothing, for a store that never freed a page).
pub fn store_digest(store: &impl PageStore) -> u64 {
    let mut bytes = store.num_pages().to_le_bytes().to_vec();
    for page in allocated_pages(store) {
        bytes.extend_from_slice(page.bytes());
    }
    bytes.extend(store.free_pages().iter().flat_map(|id| id.0.to_le_bytes()));
    fnv1a(&bytes)
}

/// Every page of `store` that is not on its free list, in page-id order.
pub fn allocated_pages(store: &impl PageStore) -> Vec<Page> {
    let free = store.free_pages();
    (0..store.num_pages())
        .map(PageId)
        .filter(|id| !free.contains(id))
        .map(|id| {
            let mut page = Page::new();
            store.read_page(id, &mut page).unwrap();
            page
        })
        .collect()
}

/// How many of `entries` intersect `q` — the range-query oracle.
pub fn brute_force(entries: &[Entry], q: &Aabb) -> usize {
    entries.iter().filter(|e| q.intersects(&e.mbr)).count()
}

/// Every `(outer id, inner id)` pair whose MBR distance is within `eps`,
/// sorted as the join engines sort — the ε-join oracle, by definition.
pub fn brute_join(outer: &[Entry], inner: &[Entry], eps: f64) -> Vec<(u64, u64)> {
    let eps2 = eps * eps;
    let mut pairs: Vec<(u64, u64)> = outer
        .iter()
        .flat_map(|a| {
            inner
                .iter()
                .filter(move |b| a.mbr.distance_sq(&b.mbr) <= eps2)
                .map(move |b| (a.id, b.id))
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

pub fn options(domain: Aabb) -> FlatOptions {
    FlatOptions {
        layout: LeafLayout::WithIds,
        domain: Some(domain),
        ..FlatOptions::default()
    }
}

/// Sorted (id, MBR-bits) keys for bit-exact result comparison.
pub fn keys(hits: &[Hit]) -> Vec<(u64, [u64; 6])> {
    let mut keys: Vec<(u64, [u64; 6])> = hits.iter().map(|h| entry_key(h.id, &h.mbr)).collect();
    keys.sort_unstable();
    keys
}

/// The comparison key of one element: its id plus the exact bits of its
/// MBR, so ground-truth sets built from raw [`Entry`] values compare
/// bit-for-bit against query results.
pub fn entry_key(id: u64, mbr: &Aabb) -> (u64, [u64; 6]) {
    (
        id,
        [
            mbr.min.x.to_bits(),
            mbr.min.y.to_bits(),
            mbr.min.z.to_bits(),
            mbr.max.x.to_bits(),
            mbr.max.y.to_bits(),
            mbr.max.z.to_bits(),
        ],
    )
}

/// One scripted operation.
pub enum Op {
    Insert(Vec<Entry>),
    Delete(Vec<u64>),
    Compact,
}

/// The machinery under test plus the tracked ground truth.
pub struct Harness {
    pub pool: ConcurrentBufferPool<MemStore>,
    pub delta: DeltaIndex,
    /// Ground truth: the surviving entries, tracked independently.
    pub survivors: HashMap<u64, Entry>,
    pub domain: Aabb,
}

impl Harness {
    pub fn new(entries: Vec<Entry>, domain: Aabb) -> Harness {
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries.clone(), options(domain)).unwrap();
        let delta = DeltaIndex::new(&pool, index, options(domain)).unwrap();
        Harness {
            pool,
            delta,
            survivors: entries.into_iter().map(|e| (e.id, e)).collect(),
            domain,
        }
    }

    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(entries) => {
                for e in entries {
                    assert!(self.survivors.insert(e.id, *e).is_none());
                }
                self.delta
                    .insert_batch(&mut self.pool, entries.clone())
                    .unwrap();
            }
            Op::Delete(ids) => {
                let expected = ids
                    .iter()
                    .filter(|i| self.survivors.remove(i).is_some())
                    .count();
                let got = self.delta.delete_batch(&mut self.pool, ids).unwrap();
                assert_eq!(got, expected, "delete count disagrees with ground truth");
            }
            Op::Compact => {
                self.delta.compact(&mut self.pool).unwrap();
                self.assert_compact_byte_identical();
            }
        }
    }

    /// Fresh `FlatIndex::build` over the tracked survivors, in its own pool.
    pub fn rebuild(&self) -> (ConcurrentBufferPool<MemStore>, FlatIndex) {
        let mut entries: Vec<Entry> = self.survivors.values().copied().collect();
        entries.sort_by_key(|e| e.id); // any order works; keep it stable
        let mut pool = ConcurrentBufferPool::new(MemStore::new(), 1 << 16);
        let (index, _) = FlatIndex::build(&mut pool, entries, options(self.domain)).unwrap();
        (pool, index)
    }

    /// Every range and kNN probe agrees with the rebuild.
    pub fn assert_equivalent(&self, seed: u64) {
        let (fresh_pool, fresh) = self.rebuild();
        assert_eq!(self.delta.num_live_elements(), self.survivors.len() as u64);

        // Range queries: mixed sizes, plus the whole domain and a miss.
        let queries = recovery_queries(&self.domain, 12, seed);
        let serial: Vec<Vec<Hit>> = queries
            .iter()
            .map(|q| self.delta.range_query(&self.pool, q).unwrap())
            .collect();
        for (i, q) in queries.iter().enumerate() {
            let expected = keys(&fresh.range_query(&fresh_pool, q).unwrap());
            assert_eq!(keys(&serial[i]), expected, "range query {i} diverged");
        }

        // kNN: distances must match exactly; identities must match for
        // every hit strictly inside the k-th distance (ties at the k-th
        // break by physical location, which legitimately differs between
        // an updated index and a rebuild).
        for (i, (p, k)) in knn_probes(&self.domain, seed).iter().enumerate() {
            let got = self.delta.knn_query(&self.pool, *p, *k).unwrap();
            let expected = fresh.knn_query(&fresh_pool, *p, *k).unwrap();
            let got_d: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
            let exp_d: Vec<f64> = expected.iter().map(|n| n.dist_sq).collect();
            assert_eq!(got_d, exp_d, "kNN distances diverged (probe {i}, k {k})");
            let cutoff = exp_d.last().copied().unwrap_or(f64::INFINITY);
            let got_ids = inside_cutoff(&got, cutoff);
            let exp_ids = inside_cutoff(&expected, cutoff);
            assert_eq!(
                got_ids, exp_ids,
                "kNN identities diverged (probe {i}, k {k})"
            );
        }
    }

    /// After `compact()` the pool's pages are byte-identical to the fresh
    /// rebuild (extra freed pages at the tail excepted — they must all be
    /// on the free list). `verify_compacted_store` is the one shared
    /// checker for this contract.
    pub fn assert_compact_byte_identical(&self) {
        let (fresh_pool, _) = self.rebuild();
        flat_repro::core::verify_compacted_store(&*self.pool.store(), &*fresh_pool.store())
            .unwrap_or_else(|e| panic!("compaction broke byte identity: {e}"));
    }
}

/// The shared recovery/equivalence query mix: `count` seeded boxes of
/// mixed size plus the whole domain and a guaranteed miss.
pub fn recovery_queries(domain: &Aabb, count: usize, seed: u64) -> Vec<Aabb> {
    let mut queries = range_queries(
        domain,
        &WorkloadConfig {
            count,
            volume_fraction: 2e-3,
            proportion_range: (1.0, 4.0),
            seed,
        },
    );
    queries.push(Aabb::cube(domain.center(), domain.extents().x * 4.0));
    queries.push(Aabb::cube(
        domain.max + Point3::splat(10.0 * domain.extents().x),
        1.0,
    ));
    queries
}

/// Seeded kNN probe points with a mix of `k` values, including the domain
/// corner (an extremal probe).
pub fn knn_probes(domain: &Aabb, seed: u64) -> Vec<(Point3, usize)> {
    let mut points = range_queries(
        domain,
        &WorkloadConfig {
            count: 6,
            volume_fraction: 1e-4,
            proportion_range: (1.0, 1.0),
            seed: seed ^ 0xABCD,
        },
    );
    points.push(Aabb::point(domain.min));
    points
        .iter()
        .flat_map(|probe| {
            let p = probe.center();
            [1usize, 9, 40].into_iter().map(move |k| (p, k))
        })
        .collect()
}

/// Neighbor ids strictly inside the distance cutoff (ties at the cutoff
/// legitimately break by physical location).
fn inside_cutoff(neighbors: &[Neighbor], cutoff: f64) -> Vec<u64> {
    let mut ids: Vec<u64> = neighbors
        .iter()
        .filter(|n| n.dist_sq < cutoff)
        .map(|n| n.hit.id)
        .collect();
    ids.sort_unstable();
    ids
}

pub fn fresh_entries(count: usize, base_id: u64, domain: &Aabb, seed: u64) -> Vec<Entry> {
    uniform_entries(&UniformConfig {
        count,
        domain: *domain,
        element_volume: domain.volume() * 2e-6,
        length_range: (1.0, 2.0),
        seed,
    })
    .into_iter()
    .map(|e| Entry::new(e.id + base_id, e.mbr))
    .collect()
}

// ---------- crash-recovery oracles ----------

/// The query surface the brute-force oracle drives: whole-database
/// answers of a [`FlatDb`] or a [`ShardedDb`], one fresh snapshot per
/// call.
pub trait Answers {
    fn live(&self) -> u64;
    fn range(&self, q: &Aabb) -> Vec<Hit>;
    fn knn(&self, p: Point3, k: usize) -> Vec<Neighbor>;
    fn count(&self, q: &Aabb) -> u64;
}

impl<S: PageStore> Answers for FlatDb<S> {
    fn live(&self) -> u64 {
        self.num_live_elements()
    }
    fn range(&self, q: &Aabb) -> Vec<Hit> {
        self.reader().range(q).unwrap()
    }
    fn knn(&self, p: Point3, k: usize) -> Vec<Neighbor> {
        self.reader().knn(p, k).unwrap()
    }
    fn count(&self, q: &Aabb) -> u64 {
        self.reader().aggregate_count(q).unwrap()
    }
}

impl<S: PageStore + Send + Sync + 'static> Answers for ShardedDb<S> {
    fn live(&self) -> u64 {
        self.num_live_elements()
    }
    fn range(&self, q: &Aabb) -> Vec<Hit> {
        self.range_query(q).unwrap()
    }
    fn knn(&self, p: Point3, k: usize) -> Vec<Neighbor> {
        self.knn_query(p, k).unwrap()
    }
    fn count(&self, q: &Aabb) -> u64 {
        self.aggregate_count(q).unwrap()
    }
}

/// Asserts that `db` answers every range, aggregate-count and kNN probe
/// exactly like a brute-force scan over `survivors`. Brute force (rather
/// than a rebuilt index) keeps the check cheap enough to run at every
/// kill point of a fault-injection matrix, and is an *independent* ground
/// truth: it shares no index code with the system under test.
pub fn assert_answers_match(
    db: &impl Answers,
    survivors: &HashMap<u64, Entry>,
    domain: &Aabb,
    seed: u64,
) {
    assert_eq!(
        db.live(),
        survivors.len() as u64,
        "live-element count diverged from the committed prefix"
    );

    for (i, q) in recovery_queries(domain, 6, seed).iter().enumerate() {
        let got = keys(&db.range(q));
        let mut expected: Vec<(u64, [u64; 6])> = survivors
            .values()
            .filter(|e| q.intersects(&e.mbr))
            .map(|e| entry_key(e.id, &e.mbr))
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected, "range query {i} diverged from brute force");
        assert_eq!(
            db.count(q),
            expected.len() as u64,
            "aggregate count {i} diverged from brute force"
        );
    }

    for (i, (p, k)) in knn_probes(domain, seed).iter().enumerate() {
        let got = db.knn(*p, *k);
        let mut brute: Vec<(f64, u64)> = survivors
            .values()
            .map(|e| (e.mbr.distance_sq_to_point(p), e.id))
            .collect();
        brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
        brute.truncate(*k);
        let got_d: Vec<f64> = got.iter().map(|n| n.dist_sq).collect();
        let exp_d: Vec<f64> = brute.iter().map(|(d, _)| *d).collect();
        assert_eq!(got_d, exp_d, "kNN distances diverged (probe {i}, k {k})");
        let cutoff = exp_d.last().copied().unwrap_or(f64::INFINITY);
        let got_ids = inside_cutoff(&got, cutoff);
        let mut exp_ids: Vec<u64> = brute
            .iter()
            .filter(|(d, _)| *d < cutoff)
            .map(|(_, id)| *id)
            .collect();
        exp_ids.sort_unstable();
        assert_eq!(
            got_ids, exp_ids,
            "kNN identities diverged (probe {i}, k {k})"
        );
    }
}

/// The recovery oracle: [`assert_answers_match`] plus the structural
/// invariants of the recovered delta layer.
pub fn assert_matches_ground_truth<S: PageStore>(
    db: &FlatDb<S>,
    survivors: &HashMap<u64, Entry>,
    domain: &Aabb,
    seed: u64,
) {
    assert_answers_match(db, survivors, domain, seed);
    db.check_invariants()
        .unwrap_or_else(|e| panic!("structural invariants violated after recovery: {e}"));
}

/// An in-memory "disk" that outlives the session writing to it: a shared
/// handle to one [`MemStore`]. Fault-injection sessions consume their
/// store (a crashed `create_durable`/`open_durable` takes it down with
/// the error), so recovery tests keep a second handle to the platter and
/// reopen from that — exactly a machine rebooting onto the same disk.
///
/// Not `Send`: strictly for single-threaded fault drills.
#[derive(Clone)]
pub struct SharedStore(pub Rc<RefCell<MemStore>>);

impl SharedStore {
    pub fn new() -> SharedStore {
        SharedStore(Rc::new(RefCell::new(MemStore::new())))
    }
}

impl PageStore for SharedStore {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.0.borrow_mut().alloc()
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        self.0.borrow_mut().write_page(id, page)
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        self.0.borrow().read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        self.0.borrow_mut().free_page(id)
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.0.borrow().free_pages()
    }

    fn num_pages(&self) -> u64 {
        self.0.borrow().num_pages()
    }
}

// ---------- crash-session driver ----------

use flat_repro::storage::{CrashStyle, FaultStore};

/// Applies one scripted op to a ground-truth survivor map.
pub fn apply_op(survivors: &mut HashMap<u64, Entry>, op: &Op) {
    match op {
        Op::Insert(entries) => {
            for e in entries {
                survivors.insert(e.id, *e);
            }
        }
        Op::Delete(ids) => {
            for id in ids {
                survivors.remove(id);
            }
        }
        Op::Compact => {}
    }
}

/// The ground truth after the first `prefix` ops of a script.
pub fn survivors_after(initial: &[Entry], ops: &[Op], prefix: usize) -> HashMap<u64, Entry> {
    let mut survivors: HashMap<u64, Entry> = initial.iter().map(|e| (e.id, *e)).collect();
    for op in &ops[..prefix] {
        apply_op(&mut survivors, op);
    }
    survivors
}

/// What one (possibly killed) durable session managed to do.
pub struct SessionOutcome {
    /// `create_durable` returned — the initial checkpoint committed.
    pub created: bool,
    /// `build_from` returned — the build's rebase checkpoint committed.
    pub built: bool,
    /// Writer batches acknowledged before the crash.
    pub acked: usize,
    /// Page writes that (fully or partially) reached the platter.
    pub writes: u64,
}

/// Runs create → build → script against `disk`, with an optional
/// scripted crash, stopping at the first error the way a real client
/// would. The session object is dropped at the end — losing all RAM
/// state, exactly like the power cut it simulates.
pub fn run_crash_session(
    disk: &SharedStore,
    kill: Option<(u64, CrashStyle)>,
    initial: &[Entry],
    ops: &[Op],
    options: &DbOptions,
) -> SessionOutcome {
    let store = match kill {
        Some((writes, style)) => FaultStore::crash_after_with(disk.clone(), writes, style),
        None => FaultStore::new(disk.clone()),
    };
    let mut outcome = SessionOutcome {
        created: false,
        built: false,
        acked: 0,
        writes: 0,
    };
    let mut db = match FlatDb::create_durable(store, *options) {
        Ok(db) => db,
        // The store went down with the failed create; the disk handle
        // survives for the recovery attempt.
        Err(_) => return outcome,
    };
    outcome.created = true;
    if db.build_from(initial.to_vec()).is_ok() {
        outcome.built = true;
        for op in ops {
            let Ok(mut writer) = db.writer() else { break };
            let acked = match op {
                Op::Insert(entries) => writer.insert(entries.clone()).is_ok(),
                Op::Delete(ids) => writer.delete(ids).is_ok(),
                Op::Compact => writer.compact().is_ok(),
            };
            if !acked {
                break;
            }
            outcome.acked += 1;
        }
    }
    outcome.writes = db.into_store().writes_done();
    outcome
}

/// Reopens the disk a killed session left behind and checks the recovery
/// contract: the recovered database holds exactly some committed prefix,
/// no shorter than what the session saw acknowledged — then answers
/// queries identically to the brute-force oracle over that prefix.
pub fn verify_crash_recovery(
    label: &str,
    disk: &SharedStore,
    outcome: &SessionOutcome,
    initial: &[Entry],
    ops: &[Op],
    options: &DbOptions,
    torn_allowed: bool,
) {
    let domain = options.index.domain.expect("crash drills fix the domain");
    match FlatDb::open_durable(disk.clone(), *options) {
        Err(e) => {
            // Only a store whose very first checkpoint never committed
            // may be unrecoverable; once create_durable acks, every
            // later kill must reopen.
            assert!(
                !outcome.created,
                "{label}: store unrecoverable after create was acknowledged: {e}"
            );
        }
        Ok((db, report)) => {
            let committed = report.last_committed_seq as usize;
            assert!(
                committed >= outcome.acked,
                "{label}: {} batches were acknowledged but only {committed} recovered",
                outcome.acked
            );
            assert!(
                committed <= ops.len(),
                "{label}: recovered {committed} batches from a {}-op script",
                ops.len()
            );
            if !torn_allowed {
                assert!(
                    !report.torn_tail_truncated,
                    "{label}: page-atomic kills must never leave a torn tail"
                );
            }
            if db.is_built() {
                let survivors = survivors_after(initial, ops, committed);
                assert_matches_ground_truth(&db, &survivors, &domain, 0xBEEF ^ committed as u64);
            } else {
                // Recovered to the pre-build checkpoint: only possible if
                // the build itself never acked, and then nothing is live.
                assert!(
                    !outcome.built,
                    "{label}: build was acknowledged but recovery lost it"
                );
                assert_eq!(committed, 0, "{label}: batches without a build");
                assert_eq!(db.num_live_elements(), 0, "{label}");
            }
        }
    }
}
