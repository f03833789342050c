//! Error type for the serving runtime.

use quorum_core::QuorumError;
use std::error::Error;
use std::fmt;
use std::io;

/// Errors produced by freezing, thawing or serving a detector.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The artifact bytes are malformed, truncated, corrupt or of an
    /// unsupported version.
    Artifact(String),
    /// A scoring request is unusable (wrong feature width, empty batch).
    Request(String),
    /// The underlying pipeline failed while scoring or freezing.
    Quorum(QuorumError),
    /// A transport-level failure on the TCP server or client.
    Io(io::Error),
    /// The server shed this request to protect itself: the submission
    /// queue was full or the per-request deadline expired. The request
    /// was *not* scored; retrying after a backoff is safe.
    Overloaded(String),
    /// The runtime could not spawn a worker thread — resource
    /// exhaustion surfacing as a typed error instead of a panic.
    Spawn {
        /// What the thread would have been (e.g. `"quorum-batcher"`).
        thread: String,
        /// The OS-level spawn failure.
        source: io::Error,
    },
    /// An ensemble group's scoring panicked on every attempt: the first
    /// try and [`crate::frozen::GROUP_RETRIES`] in-place retries. The
    /// panel was not scored; the server itself keeps serving.
    Faulted(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Artifact(msg) => write!(f, "invalid artifact: {msg}"),
            ServeError::Request(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Quorum(e) => write!(f, "scoring failed: {e}"),
            ServeError::Io(e) => write!(f, "transport failed: {e}"),
            ServeError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            ServeError::Spawn { thread, source } => {
                write!(f, "could not spawn thread {thread:?}: {source}")
            }
            ServeError::Faulted(msg) => write!(f, "scoring faulted: {msg}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Quorum(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Spawn { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ServeError {
    /// Wraps a thread-spawn failure for the named thread.
    pub(crate) fn spawn(thread: &str, source: io::Error) -> Self {
        ServeError::Spawn {
            thread: thread.to_string(),
            source,
        }
    }
}

impl From<QuorumError> for ServeError {
    fn from(e: QuorumError) -> Self {
        ServeError::Quorum(e)
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::Artifact("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        assert!(Error::source(&e).is_none());
        let e: ServeError = QuorumError::InvalidData("too small".into()).into();
        assert!(e.to_string().contains("too small"));
        assert!(Error::source(&e).is_some());
        let e: ServeError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, ServeError::Io(_)));
        let e = ServeError::Overloaded("queue full".into());
        assert!(e.to_string().contains("overloaded"));
        assert!(Error::source(&e).is_none());
        let e = ServeError::spawn(
            "quorum-batcher",
            io::Error::new(io::ErrorKind::OutOfMemory, "no threads left"),
        );
        assert!(e.to_string().contains("quorum-batcher"));
        assert!(Error::source(&e).is_some());
        let e = ServeError::Faulted("group 3 panicked on all 3 scoring attempts".into());
        assert!(e.to_string().contains("scoring faulted"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ServeError>();
    }
}
