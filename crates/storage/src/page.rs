//! The fixed-size, shared copy-on-write page buffer and its serialization
//! helpers.

use std::sync::Arc;

/// Size of every disk page in bytes, matching the paper: "All approaches
/// store data on the disk in 4K pages" (§VII-A).
pub const PAGE_SIZE: usize = 4096;

/// A 4 KB page buffer, shared copy-on-write.
///
/// A page is a handle on an immutable 4 KB buffer: cloning one bumps a
/// reference count, so the page cache hands out the very buffer it holds
/// (a hit copies nothing) and the MVCC version map keeps page versions by
/// reference. Mutation goes through [`Page::edit`], which makes the buffer
/// this handle's own first — copying it only if another handle shares it —
/// so no writer can change the bytes another handle sees.
///
/// Indexes serialize their node formats with the positional accessors.
/// All scalars are little-endian. The `put_*` methods are one-call conveniences that each pay the sharing
/// check; an encoder writing a run of scalars takes one [`PageMut`] from
/// [`Page::edit`] and writes through it.
#[derive(Clone)]
pub struct Page {
    data: Arc<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

/// Pages compare by content.
impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Page {}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

impl Page {
    /// A zero-filled page.
    pub fn new() -> Page {
        Page {
            data: Arc::new([0u8; PAGE_SIZE]),
        }
    }

    /// Read-only view of the page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable view of the page bytes (copied first if the buffer is
    /// shared).
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        Arc::make_mut(&mut self.data)
    }

    /// A mutable view for a run of writes: the sharing check (and the copy,
    /// if the buffer is shared) is paid here, once, not per scalar.
    #[inline]
    pub fn edit(&mut self) -> PageMut<'_> {
        PageMut {
            bytes: self.bytes_mut(),
        }
    }

    /// Zero-fills the page. A shared buffer is not copied first: this
    /// handle gets a fresh zeroed one.
    pub fn clear(&mut self) {
        match Arc::get_mut(&mut self.data) {
            Some(bytes) => bytes.fill(0),
            None => *self = Page::new(),
        }
    }

    /// The `N` bytes at `offset`, which every scalar getter decodes.
    #[inline]
    fn get<const N: usize>(&self, offset: usize) -> [u8; N] {
        let mut bytes = [0; N];
        bytes.copy_from_slice(&self.data[offset..offset + N]);
        bytes
    }

    /// Writes a `u16` at `offset`.
    #[inline]
    pub fn put_u16(&mut self, offset: usize, v: u16) {
        self.edit().put_u16(offset, v);
    }

    /// Reads a `u16` from `offset`.
    #[inline]
    pub fn get_u16(&self, offset: usize) -> u16 {
        u16::from_le_bytes(self.get(offset))
    }

    /// Writes a `u32` at `offset`.
    #[inline]
    pub fn put_u32(&mut self, offset: usize, v: u32) {
        self.edit().put_u32(offset, v);
    }

    /// Reads a `u32` from `offset`.
    #[inline]
    pub fn get_u32(&self, offset: usize) -> u32 {
        u32::from_le_bytes(self.get(offset))
    }

    /// Writes a `u64` at `offset`.
    #[inline]
    pub fn put_u64(&mut self, offset: usize, v: u64) {
        self.edit().put_u64(offset, v);
    }

    /// Reads a `u64` from `offset`.
    #[inline]
    pub fn get_u64(&self, offset: usize) -> u64 {
        u64::from_le_bytes(self.get(offset))
    }

    /// Writes an `f64` at `offset`.
    #[inline]
    pub fn put_f64(&mut self, offset: usize, v: f64) {
        self.edit().put_f64(offset, v);
    }

    /// Reads an `f64` from `offset`.
    #[inline]
    pub fn get_f64(&self, offset: usize) -> f64 {
        f64::from_le_bytes(self.get(offset))
    }
}

/// A mutable view of one [`Page`], from [`Page::edit`]: the buffer is
/// already this page's own, so its writes are plain stores. Scalars are
/// little-endian, as [`Page`]'s getters read them.
pub struct PageMut<'a> {
    bytes: &'a mut [u8; PAGE_SIZE],
}

impl PageMut<'_> {
    #[inline]
    fn put<const N: usize>(&mut self, offset: usize, v: [u8; N]) {
        self.bytes[offset..offset + N].copy_from_slice(&v);
    }

    /// Writes a `u16` at `offset`.
    #[inline]
    pub fn put_u16(&mut self, offset: usize, v: u16) {
        self.put(offset, v.to_le_bytes());
    }

    /// Writes a `u32` at `offset`.
    #[inline]
    pub fn put_u32(&mut self, offset: usize, v: u32) {
        self.put(offset, v.to_le_bytes());
    }

    /// Writes a `u64` at `offset`.
    #[inline]
    pub fn put_u64(&mut self, offset: usize, v: u64) {
        self.put(offset, v.to_le_bytes());
    }

    /// Writes an `f64` at `offset`.
    #[inline]
    pub fn put_f64(&mut self, offset: usize, v: f64) {
        self.put(offset, v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_zeroed() {
        let p = Page::new();
        assert!(p.bytes().iter().all(|b| *b == 0));
    }

    #[test]
    fn scalar_roundtrips() {
        let mut p = Page::new();
        p.put_u16(0, 0xBEEF);
        p.put_u32(2, 0xDEAD_BEEF);
        p.put_u64(6, u64::MAX - 1);
        p.put_f64(14, -123.456);
        assert_eq!(p.get_u16(0), 0xBEEF);
        assert_eq!(p.get_u32(2), 0xDEAD_BEEF);
        assert_eq!(p.get_u64(6), u64::MAX - 1);
        assert_eq!(p.get_f64(14), -123.456);
    }

    #[test]
    fn accessors_reach_the_last_byte() {
        let mut p = Page::new();
        p.put_u64(PAGE_SIZE - 8, 42);
        assert_eq!(p.get_u64(PAGE_SIZE - 8), 42);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_put_panics() {
        let mut p = Page::new();
        p.put_u64(PAGE_SIZE - 7, 1);
    }

    #[test]
    fn clear_resets_contents() {
        let mut p = Page::new();
        p.put_u64(0, u64::MAX);
        p.clear();
        assert_eq!(p.get_u64(0), 0);
    }

    #[test]
    fn a_clone_shares_the_buffer_until_one_side_writes() {
        let mut a = Page::new();
        a.put_u64(0, 7);
        let writes: [fn(&mut Page); 4] = [
            |p| p.put_u64(0, 8),
            |p| p.edit().put_u16(0, 8),
            |p| p.bytes_mut()[0] = 8,
            |p| p.clear(),
        ];
        for write in writes {
            let mut b = a.clone();
            assert!(std::ptr::eq(a.bytes(), b.bytes()), "a clone copies nothing");
            write(&mut b);
            assert!(!std::ptr::eq(a.bytes(), b.bytes()));
            assert_eq!(a.get_u64(0), 7, "the other handle keeps its bytes");
            assert_ne!(b.get_u64(0), 7);
        }
    }

    #[test]
    fn an_unshared_page_is_edited_in_place() {
        let mut p = Page::new();
        let buffer: *const [u8; PAGE_SIZE] = p.bytes();
        p.put_u64(0, 1);
        p.edit().put_f64(8, 2.0);
        p.bytes_mut()[16] = 3;
        p.clear();
        // A dropped clone leaves the page unshared again.
        drop(p.clone());
        p.put_u32(0, 5);
        assert!(
            std::ptr::eq(p.bytes(), buffer),
            "an unshared page reallocated"
        );
        assert_eq!(p.get_u32(0), 5);
    }

    #[test]
    fn float_nan_payload_survives_roundtrip() {
        let mut p = Page::new();
        p.put_f64(0, f64::NAN);
        assert!(p.get_f64(0).is_nan());
    }
}
