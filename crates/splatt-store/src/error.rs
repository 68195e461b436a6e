//! The store's typed error surface.

use crate::frame::FrameDefect;
use crate::io::IoFault;
use std::path::PathBuf;

/// Everything a persistence operation can fail with. The invariant the
/// whole crate is built around: corruption and injected faults are
/// *values* of this type, never panics and never silently wrong data.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A frame failed validation somewhere other than a truncatable
    /// WAL tail — e.g. a checksum mismatch in a non-final segment or a
    /// damaged artifact file. Acknowledged data is implicated, so the
    /// store refuses to silently drop it.
    Corrupt {
        path: PathBuf,
        /// Byte offset of the defect within the file.
        offset: u64,
        defect: FrameDefect,
    },
    /// WAL record sequence numbers were not contiguous — segments are
    /// missing or reordered.
    SequenceGap {
        path: PathBuf,
        expected: u64,
        found: u64,
    },
    /// An injected disk fault fired (crash or failed fsync). The
    /// operation was not acknowledged.
    Fault(IoFault),
}

impl StoreError {
    /// Whether this error is an injected process death — the storm
    /// harness uses this to tell "the process died here" apart from a
    /// real failure.
    pub fn is_crash(&self) -> bool {
        matches!(self, StoreError::Fault(IoFault::Crash { .. }))
    }

    /// Whether this error is an injected fsync failure (data written
    /// but not acknowledged durable; a retry may succeed).
    #[cfg(test)]
    pub(crate) fn is_fsync_failure(&self) -> bool {
        matches!(self, StoreError::Fault(IoFault::FsyncFailed { .. }))
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt {
                path,
                offset,
                defect,
            } => write!(
                f,
                "corrupt frame in {} at byte {offset}: {defect}",
                path.display()
            ),
            StoreError::SequenceGap {
                path,
                expected,
                found,
            } => write!(
                f,
                "wal sequence gap in {}: expected seq {expected}, found {found}",
                path.display()
            ),
            StoreError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<IoFault> for StoreError {
    fn from(e: IoFault) -> Self {
        StoreError::Fault(e)
    }
}

impl From<StoreError> for std::io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
