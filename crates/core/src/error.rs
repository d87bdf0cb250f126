//! The unified error type of the session façade.
//!
//! The low-level crates report everything as
//! [`StorageError`](flat_storage::StorageError) — appropriate for code
//! that lives at the page level, but a caller of the [`crate::FlatDb`]
//! façade sees build, query, update and persistence operations, not
//! pages. [`FlatError`] wraps the storage error and adds one variant per
//! façade concern, so every [`crate::FlatDb`] / [`crate::ShardedDb`]
//! entry point returns a single error type with a usable
//! [`std::error::Error`] source chain.

use flat_storage::StorageError;
use std::fmt;

/// Any error the FLAT façade can produce.
#[derive(Debug)]
pub enum FlatError {
    /// An error from the paged storage substrate (I/O, corrupt pages,
    /// out-of-range accesses). The source chain continues into the
    /// wrapped [`StorageError`].
    Storage(StorageError),
    /// The requested build or the session options are invalid (e.g. a
    /// zero-page cache), or the database is not in a state that can be
    /// built (e.g. it already holds an index).
    Build(String),
    /// The requested mutation is not possible (e.g. opening a writer on
    /// an index built without stable element ids or a fixed domain).
    Update(String),
    /// A query was malformed (e.g. a batch terminal invoked on the wrong
    /// kind of query set).
    Query(String),
    /// Opening a database file failed structurally (the options are not
    /// durable, or the log does not replay in sequence).
    Persist(String),
}

impl fmt::Display for FlatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatError::Storage(e) => write!(f, "storage error: {e}"),
            FlatError::Build(msg) => write!(f, "build error: {msg}"),
            FlatError::Update(msg) => write!(f, "update error: {msg}"),
            FlatError::Query(msg) => write!(f, "query error: {msg}"),
            FlatError::Persist(msg) => write!(f, "persistence error: {msg}"),
        }
    }
}

impl std::error::Error for FlatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlatError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for FlatError {
    fn from(e: StorageError) -> Self {
        FlatError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn storage_errors_convert_and_chain() {
        let inner = std::io::Error::other("device gone");
        let e: FlatError = StorageError::from(inner).into();
        assert!(e.to_string().contains("device gone"));
        // Two-level source chain: FlatError → StorageError → io::Error.
        let storage = e.source().expect("storage source");
        assert!(storage.source().is_some(), "io source missing");
    }

    #[test]
    fn every_variant_displays_its_message() {
        for (e, needle) in [
            (FlatError::Build("already built".into()), "already built"),
            (FlatError::Update("no domain".into()), "no domain"),
            (FlatError::Query("empty batch".into()), "empty batch"),
            (FlatError::Persist("no descriptor".into()), "no descriptor"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
            assert!(e.source().is_none());
        }
    }

    #[test]
    fn errors_cross_thread_boundaries() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<FlatError>();
    }
}
