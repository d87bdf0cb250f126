//! Storage-layer errors.

use crate::PageId;
use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// A page id beyond the allocated range was accessed.
    PageOutOfRange {
        /// The offending page id.
        page: PageId,
        /// Number of pages currently allocated.
        allocated: u64,
    },
    /// Malformed on-page data encountered while decoding.
    Corrupt(String),
    /// An underlying file I/O error.
    Io(std::io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfRange { page, allocated } => {
                write!(f, "{page} out of range ({allocated} pages allocated)")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt page data: {msg}"),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::PageOutOfRange {
            page: PageId(7),
            allocated: 3,
        };
        assert!(e.to_string().contains("page#7"));
        assert!(e.to_string().contains('3'));
        let e = StorageError::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        use std::error::Error;
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = StorageError::from(inner);
        assert!(e.source().is_some());
    }

    #[test]
    fn errors_cross_thread_boundaries() {
        // Worker threads report failures to the coordinating thread, so the
        // error type must be Send + Sync (and stay that way).
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<StorageError>();

        let err: StorageError = std::io::Error::other("device gone").into();
        let joined = std::thread::spawn(move || err).join().unwrap();
        assert!(joined.to_string().contains("device gone"));
    }
}
