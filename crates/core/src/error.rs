//! Error type shared by the engines and runners.

use crate::codec::CodecError;
use std::io;

/// Anything that can go wrong while running a job.
#[derive(Debug)]
pub enum MrError {
    /// A reduce task's partial results exceeded the heap cap under the
    /// in-memory policy — the Figure 5(a) failure mode. The job is killed.
    OutOfMemory {
        /// Which reduce partition died.
        reducer: usize,
        /// Modelled heap bytes at the moment of death.
        used_bytes: u64,
        /// The configured cap.
        cap_bytes: u64,
    },
    /// Spill file or KV store I/O failed.
    Io(io::Error),
    /// A spill file or a shuffle batch failed to decode.
    Codec(CodecError),
    /// A worker thread panicked (bug in an application function).
    WorkerPanic(String),
    /// A [`JobConfig`](crate::JobConfig) knob combination made no sense
    /// (zero shuffle batch, zero spill threshold, …). Returned by
    /// `JobConfig::validate()` before any worker thread starts, instead
    /// of panicking mid-job.
    InvalidConfig(String),
}

impl std::fmt::Display for MrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrError::OutOfMemory {
                reducer,
                used_bytes,
                cap_bytes,
            } => write!(
                f,
                "reducer {reducer} out of memory: {used_bytes} bytes used, cap {cap_bytes}"
            ),
            MrError::Io(e) => write!(f, "I/O error: {e}"),
            MrError::Codec(e) => write!(f, "decode error: {e}"),
            MrError::WorkerPanic(what) => write!(f, "worker panicked: {what}"),
            MrError::InvalidConfig(what) => write!(f, "invalid job config: {what}"),
        }
    }
}

impl std::error::Error for MrError {}

impl From<io::Error> for MrError {
    fn from(e: io::Error) -> Self {
        MrError::Io(e)
    }
}

impl From<CodecError> for MrError {
    fn from(e: CodecError) -> Self {
        MrError::Codec(e)
    }
}

/// Result alias used throughout the framework.
pub type MrResult<T> = Result<T, MrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MrError::OutOfMemory {
            reducer: 3,
            used_bytes: 1_300_000_000,
            cap_bytes: 1_200_000_000,
        };
        let msg = e.to_string();
        assert!(msg.contains("reducer 3"));
        assert!(msg.contains("1300000000"));

        let io_err: MrError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(io_err.to_string().contains("gone"));

        let codec_err: MrError = CodecError::UnexpectedEof.into();
        assert!(codec_err.to_string().contains("end of input"));
    }
}
