//! [`CrashStore`]: a page store whose unsynced writes can be lost.
//!
//! Killing a process leaves the operating system's cache intact, so a
//! durability check that merely drops the database proves nothing about
//! what reached the medium. `CrashStore` models the medium honestly: a
//! page write is volatile until the next [`PageStore::sync`], and
//! [`CrashStore::crash`] rolls every volatile write back to the bytes
//! the page held at that sync. Allocation and free-list changes are
//! treated as immediately durable — the same convention the library's
//! own `FaultStore` harness uses; the durability layer tolerates leaked
//! pages by design.
//!
//! [`CrashHandle::fail_next_sync`] additionally makes one `sync` fail, so
//! a workload can put a commit *in flight* — written but never
//! acknowledged — and then check that recovery does not resurrect it.

use flat_storage::{Page, PageId, PageStore, StorageError};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Shared {
    /// Bytes each page held at the last sync, for pages written since.
    /// Behind a mutex because `sync` takes `&self`.
    preimages: Mutex<HashMap<u64, Page>>,
    fail_next_sync: AtomicBool,
    writes_dropped: AtomicU64,
}

/// A [`PageStore`] wrapper that can forget every write since the last
/// `sync` (see the module docs).
#[derive(Debug)]
pub struct CrashStore<S: PageStore> {
    inner: S,
    shared: Arc<Shared>,
}

/// The crash controls of one [`CrashStore`], usable while a database
/// owns the store itself.
#[derive(Debug, Clone)]
pub struct CrashHandle {
    shared: Arc<Shared>,
}

impl<S: PageStore> CrashStore<S> {
    /// Wraps `inner` (whose current contents count as synced).
    pub fn new(inner: S) -> CrashStore<S> {
        CrashStore {
            inner,
            shared: Arc::new(Shared::default()),
        }
    }

    /// The controls for this store.
    pub fn handle(&self) -> CrashHandle {
        CrashHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Simulates power loss: every page written since the last `sync`
    /// reverts to its bytes as of that sync. Returns how many page
    /// writes were dropped.
    pub fn crash(&mut self) -> usize {
        let preimages = std::mem::take(
            &mut *self
                .shared
                .preimages
                .lock()
                .expect("pre-image lock poisoned"),
        );
        let dropped = preimages.len();
        for (id, page) in preimages {
            self.inner
                .write_page(PageId(id), &page)
                .expect("a page written since the last sync is still allocated");
        }
        self.shared
            .writes_dropped
            .fetch_add(dropped as u64, Ordering::Relaxed);
        self.shared.fail_next_sync.store(false, Ordering::SeqCst);
        dropped
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl CrashHandle {
    /// Makes the next `sync` fail (once), as if power were lost before
    /// the flush completed: the commit issuing it is never acknowledged.
    pub fn fail_next_sync(&self) {
        self.shared.fail_next_sync.store(true, Ordering::SeqCst);
    }

    /// Page writes currently volatile (written since the last sync).
    pub fn unsynced_pages(&self) -> usize {
        self.shared
            .preimages
            .lock()
            .expect("pre-image lock poisoned")
            .len()
    }

    /// Page writes dropped by crashes so far.
    pub fn writes_dropped(&self) -> u64 {
        self.shared.writes_dropped.load(Ordering::Relaxed)
    }
}

impl<S: PageStore> PageStore for CrashStore<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.inner.alloc()
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        let mut preimages = self
            .shared
            .preimages
            .lock()
            .expect("pre-image lock poisoned");
        if let Entry::Vacant(slot) = preimages.entry(id.0) {
            let mut before = Page::new();
            self.inner.read_page(id, &mut before)?;
            slot.insert(before);
        }
        drop(preimages);
        self.inner.write_page(id, page)
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        self.inner.read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        // A free is durable at once, so the page has no content left to
        // roll back to.
        self.shared
            .preimages
            .lock()
            .expect("pre-image lock poisoned")
            .remove(&id.0);
        self.inner.free_page(id)
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.inner.free_pages()
    }

    fn num_free(&self) -> u64 {
        self.inner.num_free()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<(), StorageError> {
        if self.shared.fail_next_sync.swap(false, Ordering::SeqCst) {
            return Err(StorageError::Io(std::io::Error::other(
                "injected power loss before sync completed",
            )));
        }
        self.inner.sync()?;
        self.shared
            .preimages
            .lock()
            .expect("pre-image lock poisoned")
            .clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_storage::MemStore;

    fn stamped(value: u64) -> Page {
        let mut page = Page::new();
        page.put_u64(0, value);
        page
    }

    fn value(store: &impl PageStore, id: u64) -> u64 {
        let mut page = Page::new();
        store.read_page(PageId(id), &mut page).unwrap();
        page.get_u64(0)
    }

    #[test]
    fn crash_drops_exactly_the_unsynced_writes() {
        let mut store = CrashStore::new(MemStore::new());
        let handle = store.handle();
        for i in 0..4 {
            let id = store.alloc().unwrap();
            store.write_page(id, &stamped(i)).unwrap();
        }
        store.sync().unwrap();
        assert_eq!(handle.unsynced_pages(), 0);

        store.write_page(PageId(1), &stamped(100)).unwrap();
        store.write_page(PageId(1), &stamped(101)).unwrap(); // same page twice
        store.write_page(PageId(3), &stamped(300)).unwrap();
        assert_eq!(value(&store, 1), 101, "writes are visible before the crash");
        assert_eq!(handle.unsynced_pages(), 2);

        assert_eq!(store.crash(), 2);
        assert_eq!(
            (0..4).map(|i| value(&store, i)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "every page back to its synced bytes"
        );
        assert_eq!(handle.writes_dropped(), 2);
        assert_eq!(store.crash(), 0, "nothing volatile after a crash");
    }

    #[test]
    fn synced_writes_survive_and_reads_pass_through() {
        let mut store = CrashStore::new(MemStore::new());
        let id = store.alloc().unwrap();
        store.write_page(id, &stamped(7)).unwrap();
        store.sync().unwrap();
        store.write_page(id, &stamped(8)).unwrap();
        store.sync().unwrap();
        store.crash();
        assert_eq!(value(&store, 0), 8);
        let mut direct = Page::new();
        store.inner().read_page(id, &mut direct).unwrap();
        assert_eq!(direct.get_u64(0), 8);
    }

    #[test]
    fn injected_sync_failure_fires_once_and_keeps_writes_volatile() {
        let mut store = CrashStore::new(MemStore::new());
        let handle = store.handle();
        let id = store.alloc().unwrap();
        store.write_page(id, &stamped(1)).unwrap();
        store.sync().unwrap();
        store.write_page(id, &stamped(2)).unwrap();
        handle.fail_next_sync();
        assert!(store.sync().is_err());
        assert_eq!(handle.unsynced_pages(), 1);
        store.crash();
        assert_eq!(value(&store, 0), 1);
        store.sync().unwrap(); // the failure was one-shot
    }

    #[test]
    fn freed_pages_are_not_resurrected() {
        let mut store = CrashStore::new(MemStore::new());
        let a = store.alloc().unwrap();
        store.write_page(a, &stamped(5)).unwrap();
        store.sync().unwrap();
        store.write_page(a, &stamped(6)).unwrap();
        store.free_page(a).unwrap();
        assert_eq!(store.crash(), 0);
        assert_eq!(store.num_free(), 1);
    }
}
