//! Fault injection for crash-recovery testing: a [`PageStore`] wrapper
//! that kills the store after a scripted number of page writes, and can
//! tear the final write in half.
//!
//! A "crash" freezes the wrapped store exactly as a power loss would:
//! every subsequent mutation (and allocation) fails, while reads keep
//! working so a test can inspect the frozen state. Unwrapping with
//! [`FaultStore::into_inner`] hands the frozen store to a fresh
//! [`crate::VersionedPool::open_durable`], which is the recovery path
//! under test.
//!
//! Because write-ahead logging turns every commit into a page write, a
//! kill-point matrix over *write indices* (crash after write 0, 1, 2, …)
//! covers every WAL record boundary — plus every intermediate state in
//! between, which is strictly more than the record-boundary matrix the
//! acceptance criteria ask for.

use crate::{Page, PageId, PageStore, StorageError, PAGE_SIZE};

/// How the scripted crash mangles the final write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStyle {
    /// The final write completes, then the store dies (page-atomic
    /// writes; the classic kill-point model).
    Clean,
    /// The final write *tears*: only a prefix of the new bytes lands,
    /// the rest of the page keeps its old contents — the torn-page
    /// failure a sector-sized power loss produces.
    Torn {
        /// Bytes of the final write that make it to the store.
        prefix: usize,
    },
}

/// A [`PageStore`] wrapper that injects crashes and corruption.
#[derive(Debug)]
pub struct FaultStore<S: PageStore> {
    inner: S,
    /// Writes remaining before the scripted crash (`None` = never).
    crash_after: Option<u64>,
    style: CrashStyle,
    writes_done: u64,
    crashed: bool,
}

impl<S: PageStore> FaultStore<S> {
    /// Wraps `inner` with no crash scheduled.
    pub fn new(inner: S) -> FaultStore<S> {
        FaultStore {
            inner,
            crash_after: None,
            style: CrashStyle::Clean,
            writes_done: 0,
            crashed: false,
        }
    }

    /// Wraps `inner`, scheduling a crash once `writes` page writes have
    /// completed (`writes == 0` crashes before the first write).
    pub fn crash_after(inner: S, writes: u64) -> FaultStore<S> {
        FaultStore {
            inner,
            crash_after: Some(writes),
            style: CrashStyle::Clean,
            writes_done: 0,
            crashed: false,
        }
    }

    /// Like [`FaultStore::crash_after`], but the last admitted write
    /// tears per `style` instead of completing.
    pub fn crash_after_with(inner: S, writes: u64, style: CrashStyle) -> FaultStore<S> {
        FaultStore {
            inner,
            crash_after: Some(writes),
            style,
            writes_done: 0,
            crashed: false,
        }
    }

    /// Page writes that have fully or partially reached the store.
    pub fn writes_done(&self) -> u64 {
        self.writes_done
    }

    /// Whether the scripted crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the (possibly frozen) store for recovery.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn dead() -> StorageError {
        StorageError::Io(std::io::Error::other("simulated crash: store is down"))
    }

    /// Admits one write, firing the scripted crash when its count is
    /// reached. Returns what fraction of the write should be applied.
    fn admit_write(&mut self) -> Result<CrashStyle, StorageError> {
        if self.crashed {
            return Err(Self::dead());
        }
        match self.crash_after {
            Some(n) if self.writes_done >= n => {
                self.crashed = true;
                Err(Self::dead())
            }
            Some(n) if self.writes_done + 1 == n && self.style != CrashStyle::Clean => {
                // The crash strikes *during* this write: apply the torn
                // prefix, then die.
                self.writes_done += 1;
                self.crashed = true;
                Ok(self.style)
            }
            _ => {
                self.writes_done += 1;
                Ok(CrashStyle::Clean)
            }
        }
    }
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn alloc(&mut self) -> Result<PageId, StorageError> {
        if self.crashed {
            return Err(Self::dead());
        }
        self.inner.alloc()
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> Result<(), StorageError> {
        match self.admit_write()? {
            CrashStyle::Clean => {
                self.inner.write_page(id, page)?;
                if self.crashed {
                    // Unreachable by construction (crash fires before the
                    // write), kept for clarity.
                    return Err(Self::dead());
                }
                Ok(())
            }
            CrashStyle::Torn { prefix } => {
                let keep = prefix.min(PAGE_SIZE);
                let mut merged = Page::new();
                self.inner.read_page(id, &mut merged)?;
                merged.bytes_mut()[..keep].copy_from_slice(&page.bytes()[..keep]);
                self.inner.write_page(id, &merged)?;
                Err(Self::dead())
            }
        }
    }

    fn read_page(&self, id: PageId, out: &mut Page) -> Result<(), StorageError> {
        // Reads survive the crash: recovery inspects the frozen store.
        self.inner.read_page(id, out)
    }

    fn free_page(&mut self, id: PageId) -> Result<(), StorageError> {
        if self.crashed {
            return Err(Self::dead());
        }
        self.inner.free_page(id)
    }

    fn free_pages(&self) -> Vec<PageId> {
        self.inner.free_pages()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<(), StorageError> {
        if self.crashed {
            return Err(Self::dead());
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn crash_fires_after_the_scripted_write_count() {
        let mut inner = MemStore::new();
        let a = inner.alloc().unwrap();
        let b = inner.alloc().unwrap();
        let mut store = FaultStore::crash_after(inner, 2);
        let mut page = Page::new();
        page.put_u64(0, 1);
        store.write_page(a, &page).unwrap();
        page.put_u64(0, 2);
        store.write_page(b, &page).unwrap();
        assert_eq!(store.writes_done(), 2);
        assert!(!store.crashed());
        let err = store.write_page(a, &page).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(store.crashed());
        // Everything mutating now fails; reads still work.
        assert!(store.alloc().is_err());
        assert!(store.free_page(a).is_err());
        assert!(store.sync().is_err());
        let mut out = Page::new();
        store.read_page(b, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 2);
        let inner = store.into_inner();
        let mut out = Page::new();
        inner.read_page(a, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 1);
    }

    #[test]
    fn crash_after_zero_blocks_every_write() {
        let mut inner = MemStore::new();
        let a = inner.alloc().unwrap();
        let mut store = FaultStore::crash_after(inner, 0);
        assert!(store.write_page(a, &Page::new()).is_err());
        assert_eq!(store.writes_done(), 0);
    }

    #[test]
    fn torn_final_write_applies_only_the_prefix() {
        let mut inner = MemStore::new();
        let a = inner.alloc().unwrap();
        let mut old = Page::new();
        old.put_u64(0, 0x1111);
        old.put_u64(2048, 0x2222);
        inner.write_page(a, &old).unwrap();

        let mut store = FaultStore::crash_after_with(inner, 1, CrashStyle::Torn { prefix: 1024 });
        let mut new = Page::new();
        new.put_u64(0, 0x9999);
        new.put_u64(2048, 0x8888);
        assert!(store.write_page(a, &new).is_err());
        assert!(store.crashed());
        assert_eq!(store.writes_done(), 1);

        let inner = store.into_inner();
        let mut out = Page::new();
        inner.read_page(a, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 0x9999, "prefix carries the new bytes");
        assert_eq!(out.get_u64(2048), 0x2222, "suffix keeps the old bytes");
    }

    #[test]
    fn unscripted_store_is_transparent() {
        let mut store = FaultStore::new(MemStore::new());
        let a = store.alloc().unwrap();
        let mut page = Page::new();
        page.put_u64(8, 42);
        store.write_page(a, &page).unwrap();
        store.sync().unwrap();
        let mut out = Page::new();
        store.read_page(a, &mut out).unwrap();
        assert_eq!(out.get_u64(8), 42);
        store.free_page(a).unwrap();
        assert_eq!(store.free_pages(), vec![a]);
        assert_eq!(store.num_pages(), 1);
    }
}
