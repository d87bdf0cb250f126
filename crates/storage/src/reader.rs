//! The one reader of records encoded as little-endian bytes.

use crate::StorageError;

/// A bounds-checked little-endian reader over one encoded record.
///
/// Every read fails with [`StorageError::Corrupt`], naming the record's
/// kind, when the record is too short: a count is checked against the
/// bytes left before anything is allocated for it ([`Reader::len`]), and
/// [`Reader::finish`] rejects trailing bytes. No arithmetic on a value
/// read from the record can overflow.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not read yet.
    bytes: &'a [u8],
    /// What the record is, for error messages.
    kind: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, one record of `kind`.
    pub fn new(bytes: &'a [u8], kind: &'static str) -> Reader<'a> {
        Reader { bytes, kind }
    }

    fn truncated(&self, wanted: usize) -> StorageError {
        StorageError::Corrupt(format!(
            "truncated {}: {wanted} bytes wanted, {} left",
            self.kind,
            self.bytes.len()
        ))
    }

    /// The next `N` bytes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let Some((head, rest)) = self.bytes.split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.bytes = rest;
        Ok(*head)
    }

    /// The next `n` bytes, borrowed from the record.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let Some((head, rest)) = self.bytes.split_at_checked(n) else {
            return Err(self.truncated(n));
        };
        self.bytes = rest;
        Ok(head)
    }

    /// Every byte not read yet.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.bytes)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        self.take().map(u8::from_le_bytes)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StorageError> {
        self.take().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        self.take().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        self.take().map(u64::from_le_bytes)
    }

    /// The next little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, StorageError> {
        self.take().map(f64::from_le_bytes)
    }

    /// A count of `what` read from the record as `n`, checked against the
    /// bytes left (each counted item is at least one byte), so a corrupt
    /// count fails before any giant allocation or loop.
    pub fn len(&self, n: u64, what: &str) -> Result<usize, StorageError> {
        match usize::try_from(n) {
            Ok(len) if len <= self.bytes.len() => Ok(len),
            _ => Err(StorageError::Corrupt(format!(
                "implausible {what} {n} in a {} with {} bytes left",
                self.kind,
                self.bytes.len()
            ))),
        }
    }

    /// A `u64` count checked by [`Reader::len`], then that many items.
    pub fn list<T>(
        &mut self,
        what: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, StorageError>,
    ) -> Result<Vec<T>, StorageError> {
        let n = self.u64()?;
        let n = self.len(n, what)?;
        (0..n).map(|_| item(self)).collect()
    }

    /// Ends the record: trailing bytes are [`StorageError::Corrupt`].
    pub fn finish(self) -> Result<(), StorageError> {
        if !self.bytes.is_empty() {
            return Err(StorageError::Corrupt(format!(
                "{} has {} trailing bytes",
                self.kind,
                self.bytes.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrupt(err: StorageError) -> String {
        match err {
            StorageError::Corrupt(msg) => msg,
            e => panic!("expected a corrupt-record error, got {e}"),
        }
    }

    #[test]
    fn reads_little_endian_fields_in_order() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0x0102u16.to_le_bytes());
        bytes.extend_from_slice(&0x0304_0506u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(-2.5f64).to_le_bytes());
        bytes.extend_from_slice(b"tail");
        let mut r = Reader::new(&bytes, "test record");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u32().unwrap(), 0x0304_0506);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.bytes(2).unwrap(), b"ta");
        assert_eq!(r.rest(), b"il");
        r.finish().unwrap();
    }

    #[test]
    fn every_error_names_the_record_kind() {
        let msg = corrupt(Reader::new(&[1, 2, 3], "spilled thing").u32().unwrap_err());
        assert!(msg.contains("truncated spilled thing"), "{msg}");
        let msg = corrupt(Reader::new(&[1], "spilled thing").bytes(2).unwrap_err());
        assert!(msg.contains("truncated spilled thing"), "{msg}");
        let msg = corrupt(Reader::new(&[1], "spilled thing").finish().unwrap_err());
        assert!(msg.contains("spilled thing has 1 trailing bytes"), "{msg}");
        let msg = corrupt(
            Reader::new(&[1], "spilled thing")
                .len(2, "count")
                .unwrap_err(),
        );
        assert!(
            msg.contains("implausible count 2 in a spilled thing"),
            "{msg}"
        );
    }

    #[test]
    fn counts_past_the_bytes_left_are_refused_before_any_item() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.push(0);
        let mut calls = 0;
        let err = Reader::new(&bytes, "list")
            .list("item count", |r| {
                calls += 1;
                r.u8()
            })
            .unwrap_err();
        assert!(corrupt(err).contains("implausible item count"));
        assert_eq!(calls, 0);
        // The largest count that fits is accepted, and reads its items.
        let mut bytes = 3u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[4, 5, 6]);
        let mut r = Reader::new(&bytes, "list");
        assert_eq!(r.list("item count", Reader::u8).unwrap(), vec![4, 5, 6]);
        r.finish().unwrap();
    }
}
