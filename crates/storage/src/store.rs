//! Page store backends: in-memory and file-backed.

use crate::{Page, PageId, StorageError, PAGE_SIZE};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The backing medium for pages.
///
/// A store is an append-allocated array of fixed-size pages with a free
/// list. Stores know nothing about caching or statistics — that is the
/// [`crate::ConcurrentBufferPool`]'s job — and nothing about what the pages contain.
pub trait PageStore {
    /// Allocates a zeroed page and returns its id. While no page has ever
    /// been freed, ids are dense and allocated in increasing order (the
    /// contract bulkloads lean on); once pages are freed, allocation reuses
    /// the **lowest** freed id first, so a store whose pages were all freed
    /// hands ids back out in the original dense order.
    fn alloc(&mut self) -> Result<PageId, StorageError>;

    /// Writes `page` to `id`.
    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError>;

    /// Reads page `id` into `out`.
    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError>;

    /// Returns page `id` to the allocator. The page's bytes are zeroed and
    /// any read or write of it fails until [`PageStore::alloc`] hands the
    /// id out again — which turns use-after-free bugs into loud errors
    /// instead of silent corruption.
    fn free_page(&mut self, id: PageId) -> Result<(), StorageError>;

    /// Ids currently on the free list, ascending.
    fn free_pages(&self) -> Vec<PageId>;

    /// Number of pages on the free list.
    fn num_free(&self) -> u64 {
        self.free_pages().len() as u64
    }

    /// Number of allocated pages (a high-water mark: freed pages still
    /// count until they are reused).
    fn num_pages(&self) -> u64;

    /// Total allocated size in bytes.
    fn size_bytes(&self) -> u64 {
        self.num_pages() * PAGE_SIZE as u64
    }

    /// Forces previously written pages onto the durable medium.
    ///
    /// A no-op for stores with no volatile buffer between them and their
    /// medium ([`MemStore`] — the "medium" *is* memory). [`FileStore`]
    /// flushes the OS page cache with `File::sync_all`. The durability
    /// layer calls this at every commit point, so a WAL over a file
    /// store survives OS-level crashes, not just process exits.
    fn sync(&self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// An in-memory page store.
///
/// The default substrate for tests and benchmarks: page-read counting (the
/// paper's metric) is done by the buffer pool, so the benchmark figures are
/// identical whether pages physically live in memory or on disk, and the
/// in-memory store keeps the density sweeps fast and deterministic.
#[derive(Debug, Default)]
pub struct MemStore {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    free: std::collections::BTreeSet<u64>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Creates a store with capacity reserved for `n` pages.
    pub fn with_capacity(n: usize) -> MemStore {
        MemStore {
            pages: Vec::with_capacity(n),
            free: std::collections::BTreeSet::new(),
        }
    }

    fn check(&self, id: PageId) -> Result<usize, StorageError> {
        let idx = id.0 as usize;
        if idx >= self.pages.len() {
            Err(StorageError::PageOutOfRange {
                page: id,
                allocated: self.pages.len() as u64,
            })
        } else if self.free.contains(&id.0) {
            Err(StorageError::Corrupt(format!("access to freed {id}")))
        } else {
            Ok(idx)
        }
    }
}

impl PageStore for MemStore {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        if let Some(&lowest) = self.free.iter().next() {
            self.free.remove(&lowest);
            return Ok(PageId(lowest)); // zeroed when it was freed
        }
        let id = PageId(self.pages.len() as u64);
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(id)
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        let idx = self.check(id)?;
        self.pages[idx].copy_from_slice(page.bytes());
        Ok(())
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        let idx = self.check(id)?;
        out.bytes_mut().copy_from_slice(&self.pages[idx][..]);
        Ok(())
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        let idx = self.check(id)?; // rejects double frees too
        self.pages[idx].fill(0);
        self.free.insert(id.0);
        Ok(())
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.free.iter().map(|&i| PageId(i)).collect()
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }
}

/// A file-backed page store: page `i` lives at byte offset `i · 4096`.
///
/// The file handle sits behind a mutex (seek + read must be one atomic
/// step), so the store is `Sync` and a [`crate::ConcurrentBufferPool`] can
/// serve file-backed pages to many reader threads.
///
/// The free list is kept in memory only: freed pages are zeroed on disk
/// but reopening a store forgets which pages were free, so they leak until
/// the next index compaction rewrites the file.
#[derive(Debug)]
pub struct FileStore {
    file: std::sync::Mutex<File>,
    num_pages: u64,
    free: std::collections::BTreeSet<u64>,
}

impl FileStore {
    /// Creates (truncating) a store at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<FileStore, StorageError> {
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore {
            file: std::sync::Mutex::new(file),
            num_pages: 0,
            free: std::collections::BTreeSet::new(),
        })
    }

    /// Opens an existing store at `path`.
    ///
    /// The file length must be a whole number of pages.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<FileStore, StorageError> {
        let file = File::options().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of the page size"
            )));
        }
        Ok(FileStore {
            file: std::sync::Mutex::new(file),
            num_pages: len / PAGE_SIZE as u64,
            free: std::collections::BTreeSet::new(),
        })
    }

    fn check(&self, id: PageId) -> Result<(), StorageError> {
        if id.0 >= self.num_pages {
            Err(StorageError::PageOutOfRange {
                page: id,
                allocated: self.num_pages,
            })
        } else if self.free.contains(&id.0) {
            Err(StorageError::Corrupt(format!("access to freed {id}")))
        } else {
            Ok(())
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, File> {
        crate::sync_util::lock_unpoisoned(&self.file)
    }
}

impl PageStore for FileStore {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        if let Some(&lowest) = self.free.iter().next() {
            self.free.remove(&lowest);
            return Ok(PageId(lowest)); // zeroed on disk when it was freed
        }
        let id = PageId(self.num_pages);
        let zeros = [0u8; PAGE_SIZE];
        let mut file = self.lock();
        file.seek(SeekFrom::Start(id.byte_offset()))?;
        file.write_all(&zeros)?;
        drop(file);
        self.num_pages += 1;
        Ok(id)
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        self.check(id)?;
        let mut file = self.lock();
        file.seek(SeekFrom::Start(id.byte_offset()))?;
        file.write_all(page.bytes())?;
        Ok(())
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        self.check(id)?;
        let mut file = self.lock();
        file.seek(SeekFrom::Start(id.byte_offset()))?;
        file.read_exact(out.bytes_mut())?;
        Ok(())
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        self.check(id)?; // rejects double frees too
        let zeros = [0u8; PAGE_SIZE];
        let mut file = self.lock();
        file.seek(SeekFrom::Start(id.byte_offset()))?;
        file.write_all(&zeros)?;
        drop(file);
        self.free.insert(id.0);
        Ok(())
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.free.iter().map(|&i| PageId(i)).collect()
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.lock().sync_all()?;
        Ok(())
    }
}

/// A store wrapper that charges a fixed latency per physical page read,
/// emulating a storage device with bounded internal parallelism.
///
/// The paper's queries are I/O-bound (97.8–98.8 % disk time, §VII-E.2);
/// wrapping a [`MemStore`] in a `ThrottledStore` makes that real: a cache
/// miss *blocks* the reading thread for the device latency, so overlapping
/// query streams — which the shared [`crate::ConcurrentBufferPool`] read
/// path enables — recover the wait time, exactly as concurrent streams
/// against a disk array would.
///
/// # Queue-depth-aware device model
///
/// Real devices serve a bounded number of requests at once; beyond that,
/// requests *queue* and their completion times stack up. A virtual device
/// clock models exactly that: requests are admitted at a sustained rate of
/// `parallelism / read_latency`, and each completes one full latency after
/// its admission slot. A single stream still sees the raw latency per
/// read, while saturating traffic sees throughput capped at the device's
/// service rate — which is what makes scheduling and sharding wins
/// *measurable* rather than assumed.
#[derive(Debug)]
pub struct ThrottledStore<S: PageStore> {
    inner: S,
    read_latency: std::time::Duration,
    /// Concurrent reads the device serves at full speed (at least 1).
    parallelism: usize,
    clock: std::sync::Mutex<DeviceClock>,
    queue_depth: std::sync::atomic::AtomicU64,
    max_queue_depth: std::sync::atomic::AtomicU64,
}

/// Virtual admission clock: the instant the device frees a service slot.
#[derive(Debug, Default)]
struct DeviceClock {
    next_slot: Option<std::time::Instant>,
}

impl<S: PageStore> ThrottledStore<S> {
    /// Wraps `inner` with a queue-depth-aware device model: every page read
    /// takes `read_latency`, at most `parallelism` reads are serviced
    /// concurrently at full speed, and sustained throughput is capped at
    /// `parallelism / read_latency`. A `parallelism` of 0 is read as 1.
    pub fn with_parallelism(
        inner: S,
        read_latency: std::time::Duration,
        parallelism: usize,
    ) -> ThrottledStore<S> {
        ThrottledStore {
            inner,
            read_latency,
            parallelism: parallelism.max(1),
            clock: std::sync::Mutex::new(DeviceClock::default()),
            queue_depth: std::sync::atomic::AtomicU64::new(0),
            max_queue_depth: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The device's internal parallelism.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Highest number of simultaneously outstanding reads observed so far
    /// (demand queue depth at the device, including the ones in service).
    pub fn max_queue_depth(&self) -> u64 {
        self.max_queue_depth
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the store.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Computes this read's completion instant under the device model and
    /// blocks until then: one service slot frees up every
    /// latency / parallelism, and a read admitted at slot `t` completes at
    /// `t + latency`.
    fn charge_read(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        let depth = self.queue_depth.fetch_add(1, Relaxed) + 1;
        self.max_queue_depth.fetch_max(depth, Relaxed);
        let gap = self.read_latency / self.parallelism as u32;
        let mut clock = crate::sync_util::lock_unpoisoned(&self.clock);
        let now = std::time::Instant::now();
        let admitted = match clock.next_slot {
            Some(slot) if slot > now => slot,
            _ => now,
        };
        clock.next_slot = Some(admitted + gap);
        drop(clock);
        let completion = admitted + self.read_latency;
        let now = std::time::Instant::now();
        if completion > now {
            std::thread::sleep(completion - now);
        }
        self.queue_depth.fetch_sub(1, Relaxed);
    }
}

impl<S: PageStore> PageStore for ThrottledStore<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        self.inner.alloc()
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        self.inner.write_page(id, page)
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        self.charge_read();
        self.inner.read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        self.inner.free_page(id)
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.inner.free_pages()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<S: PageStore>(store: &mut S) {
        let a = store.alloc().unwrap();
        let b = store.alloc().unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(store.num_pages(), 2);

        let mut page = Page::new();
        page.put_u64(0, 0xAA55);
        page.put_f64(8, 2.75);
        store.write_page(b, &page).unwrap();

        let mut out = Page::new();
        store.read_page(b, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 0xAA55);
        assert_eq!(out.get_f64(8), 2.75);

        // Page a was never written: must read back zeroed.
        store.read_page(a, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 0);
    }

    #[test]
    fn mem_store_roundtrip() {
        roundtrip(&mut MemStore::new());
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join("flat-storage-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        roundtrip(&mut FileStore::create(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mem_store_out_of_range_read_fails() {
        let store = MemStore::new();
        let mut out = Page::new();
        let err = store.read_page(PageId(0), &mut out).unwrap_err();
        assert!(matches!(err, StorageError::PageOutOfRange { .. }));
    }

    #[test]
    fn file_store_reopen_preserves_pages() {
        let dir = std::env::temp_dir().join("flat-storage-test-reopen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        {
            let mut store = FileStore::create(&path).unwrap();
            let id = store.alloc().unwrap();
            let mut page = Page::new();
            page.put_u32(100, 777);
            store.write_page(id, &page).unwrap();
        }
        {
            let store = FileStore::open(&path).unwrap();
            assert_eq!(store.num_pages(), 1);
            let mut out = Page::new();
            store.read_page(PageId(0), &mut out).unwrap();
            assert_eq!(out.get_u32(100), 777);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_rejects_ragged_files() {
        let dir = std::env::temp_dir().join("flat-storage-test-ragged");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.bin");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    fn free_list_reuse<S: PageStore>(store: &mut S) {
        for _ in 0..4 {
            store.alloc().unwrap();
        }
        store.free_page(PageId(2)).unwrap();
        store.free_page(PageId(0)).unwrap();
        assert_eq!(store.num_free(), 2);
        assert_eq!(store.free_pages(), vec![PageId(0), PageId(2)]);
        // Freed pages are fenced off until reallocated.
        let mut out = Page::new();
        assert!(store.read_page(PageId(0), &mut out).is_err());
        assert!(store.write_page(PageId(0), &Page::new()).is_err());
        assert!(store.free_page(PageId(0)).is_err(), "double free");
        // Reuse is lowest-id-first, and reallocated pages read back zeroed.
        assert_eq!(store.alloc().unwrap(), PageId(0));
        assert_eq!(store.alloc().unwrap(), PageId(2));
        assert_eq!(store.alloc().unwrap(), PageId(4));
        store.read_page(PageId(2), &mut out).unwrap();
        assert_eq!(out.get_u64(0), 0, "freed page was not zeroed");
        assert_eq!(store.num_free(), 0);
        assert_eq!(store.num_pages(), 5);
    }

    #[test]
    fn mem_store_free_list_reuse() {
        free_list_reuse(&mut MemStore::new());
    }

    #[test]
    fn file_store_free_list_reuse() {
        let dir = std::env::temp_dir().join("flat-storage-test-free");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        free_list_reuse(&mut FileStore::create(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn throttled_store_free_list_delegates() {
        let mut store =
            ThrottledStore::with_parallelism(MemStore::new(), std::time::Duration::ZERO, 0);
        assert_eq!(store.parallelism(), 1, "a parallelism of 0 is read as 1");
        free_list_reuse(&mut store);
    }

    #[test]
    fn freeing_a_written_page_zeroes_it() {
        let mut store = MemStore::new();
        let id = store.alloc().unwrap();
        let mut page = Page::new();
        page.put_u64(0, 0xDEAD);
        store.write_page(id, &page).unwrap();
        store.free_page(id).unwrap();
        assert_eq!(store.alloc().unwrap(), id);
        let mut out = Page::new();
        store.read_page(id, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 0);
    }

    #[test]
    fn size_bytes_tracks_allocation() {
        let mut store = MemStore::new();
        store.alloc().unwrap();
        store.alloc().unwrap();
        assert_eq!(store.size_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn stores_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemStore>();
        assert_send_sync::<FileStore>();
        assert_send_sync::<ThrottledStore<MemStore>>();
    }

    #[test]
    fn throttled_store_delays_reads_and_delegates() {
        let mut inner = MemStore::new();
        let id = inner.alloc().unwrap();
        let mut page = Page::new();
        page.put_u64(0, 17);
        inner.write_page(id, &page).unwrap();

        let latency = std::time::Duration::from_millis(5);
        let store = ThrottledStore::with_parallelism(inner, latency, 1);
        let mut out = Page::new();
        let start = std::time::Instant::now();
        store.read_page(id, &mut out).unwrap();
        assert!(
            start.elapsed() >= latency,
            "read returned before the device latency"
        );
        assert_eq!(out.get_u64(0), 17);
        assert_eq!(store.num_pages(), 1);
    }

    #[test]
    fn queue_depth_model_caps_throughput() {
        let mut inner = MemStore::new();
        let id = inner.alloc().unwrap();
        inner.write_page(id, &Page::new()).unwrap();

        // 8 concurrent reads against a device that serves 2 at a time:
        // admission slots are latency/2 apart, so the last read is admitted
        // at 3.5 latencies and completes at 4.5 — well past the one
        // latency each read would pay on an idle device.
        let latency = std::time::Duration::from_millis(4);
        let store = ThrottledStore::with_parallelism(inner, latency, 2);
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let mut out = Page::new();
                    store.read_page(id, &mut out).unwrap();
                });
            }
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed >= latency * 3,
            "8 reads at parallelism 2 finished in {elapsed:?}; queueing was not modelled"
        );
        assert!(store.max_queue_depth() >= 2, "depth high-water not tracked");
        assert_eq!(store.parallelism(), 2);
    }

    #[test]
    fn queue_depth_model_single_stream_sees_raw_latency() {
        // A lone reader must not pay any queueing penalty beyond ~1 latency
        // per read: slots are always free when it arrives.
        let mut inner = MemStore::new();
        let id = inner.alloc().unwrap();
        inner.write_page(id, &Page::new()).unwrap();
        let latency = std::time::Duration::from_millis(2);
        let store = ThrottledStore::with_parallelism(inner, latency, 4);
        let mut out = Page::new();
        let start = std::time::Instant::now();
        for _ in 0..3 {
            store.read_page(id, &mut out).unwrap();
        }
        // 3 sequential reads: each admitted immediately (previous read's
        // slot freed long before), so ~3 latencies, not 3 + queueing.
        assert!(start.elapsed() >= latency * 3);
    }
}
