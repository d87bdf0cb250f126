//! End-to-end durability: build indexes into a real file, drop every
//! in-memory handle, reopen the file in a new process-like context, and
//! query — results must match brute force exactly.

use flat_repro::prelude::*;

fn dataset() -> (Vec<Entry>, Aabb) {
    let config = NeuronConfig::bbp(8, 500, 77);
    let model = NeuronModel::generate(&config);
    (model.entries(), config.domain)
}

fn brute_force(entries: &[Entry], q: &Aabb) -> usize {
    entries.iter().filter(|e| q.intersects(&e.mbr)).count()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("flat-repro-persistence");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn flat_index_survives_reopen() {
    let (entries, domain) = dataset();
    let path = temp_path("flat.pages");
    let descriptor;
    {
        let store = FileStore::create(&path).expect("create store");
        let mut pool = ConcurrentBufferPool::new(store, 1 << 12);
        let (index, _) = FlatIndex::build(
            &mut pool,
            entries.clone(),
            FlatOptions {
                domain: Some(domain),
                ..FlatOptions::default()
            },
        )
        .expect("build");
        descriptor = index.save(&mut pool).expect("save");
        // Everything dropped here: pool, index, file handle.
    }
    {
        let store = FileStore::open(&path).expect("reopen store");
        let pool = ConcurrentBufferPool::new(store, 1 << 12);
        let index = FlatIndex::load(&pool, descriptor).expect("load");
        assert_eq!(index.num_elements(), entries.len() as u64);
        for side in [10.0, 40.0, 120.0] {
            let q = Aabb::cube(domain.center(), side);
            assert_eq!(
                index.range_query(&pool, &q).expect("query").len(),
                brute_force(&entries, &q),
                "side {side}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn rtree_survives_reopen() {
    let (entries, domain) = dataset();
    let path = temp_path("rtree.pages");
    let descriptor;
    {
        let store = FileStore::create(&path).expect("create store");
        let mut pool = ConcurrentBufferPool::new(store, 1 << 12);
        let tree = RTree::bulk_load(
            &mut pool,
            entries.clone(),
            BulkLoad::PrTree,
            RTreeConfig::default(),
        )
        .expect("build");
        descriptor = tree.save(&mut pool).expect("save");
    }
    {
        let store = FileStore::open(&path).expect("reopen store");
        let pool = ConcurrentBufferPool::new(store, 1 << 12);
        let tree = RTree::load(&pool, descriptor).expect("load");
        let q = Aabb::cube(domain.center(), 60.0);
        assert_eq!(
            tree.range_query(&pool, &q).expect("query").len(),
            brute_force(&entries, &q)
        );
        // The reloaded tree still validates structurally.
        flat_repro::rtree::validate::check_invariants(&pool, &tree).expect("invariants");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn both_indexes_share_one_file() {
    // FLAT and an R-tree can coexist in the same page file; two
    // descriptors address their respective structures.
    let (entries, domain) = dataset();
    let path = temp_path("shared.pages");
    let (flat_desc, rtree_desc);
    {
        let store = FileStore::create(&path).expect("create store");
        let mut pool = ConcurrentBufferPool::new(store, 1 << 12);
        let (index, _) = FlatIndex::build(
            &mut pool,
            entries.clone(),
            FlatOptions {
                domain: Some(domain),
                ..FlatOptions::default()
            },
        )
        .expect("build flat");
        flat_desc = index.save(&mut pool).expect("save flat");
        let tree = RTree::bulk_load(
            &mut pool,
            entries.clone(),
            BulkLoad::Str,
            RTreeConfig::default(),
        )
        .expect("build rtree");
        rtree_desc = tree.save(&mut pool).expect("save rtree");
    }
    {
        let store = FileStore::open(&path).expect("reopen");
        let pool = ConcurrentBufferPool::new(store, 1 << 12);
        let index = FlatIndex::load(&pool, flat_desc).expect("load flat");
        let tree = RTree::load(&pool, rtree_desc).expect("load rtree");
        let q = Aabb::cube(domain.center(), 45.0);
        let expected = brute_force(&entries, &q);
        assert_eq!(
            index.range_query(&pool, &q).expect("flat query").len(),
            expected
        );
        assert_eq!(
            tree.range_query(&pool, &q).expect("rtree query").len(),
            expected
        );
    }
    std::fs::remove_file(&path).ok();
}
