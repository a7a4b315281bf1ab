//! Unified pass error type.

use std::fmt;

use relax_core::{BuildError, DeduceError, LegalizeError, WellFormedError};
use relax_tir::transform::TransformError;

/// Error raised by a compiler pass.
#[derive(Debug)]
pub enum PassError {
    /// Shape deduction failed.
    Deduce(DeduceError),
    /// Operator legalization failed.
    Legalize(LegalizeError),
    /// Tensor-program transformation failed.
    Transform(TransformError),
    /// Function building failed.
    Build(BuildError),
    /// The input module is not well formed.
    WellFormed(WellFormedError),
    /// A module pass produced a malformed module (caught by the
    /// well-formedness check a debug build runs after every module pass).
    WellFormedAfter {
        /// The pass that ran immediately before the check.
        pass: String,
        /// The violation found.
        error: WellFormedError,
    },
    /// Lowering encountered an unsupported construct.
    Unsupported {
        /// Which pass.
        pass: &'static str,
        /// Detail.
        detail: String,
    },
    /// The lowered executable failed validation (see `relax_vm::verify`).
    Verify {
        /// Pipeline stage or pass after which validation ran.
        stage: String,
        /// The violations found.
        error: relax_vm::VerifyError,
    },
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::Deduce(e) => write!(f, "{e}"),
            PassError::Legalize(e) => write!(f, "{e}"),
            PassError::Transform(e) => write!(f, "{e}"),
            PassError::Build(e) => write!(f, "{e}"),
            PassError::WellFormed(e) => write!(f, "{e}"),
            PassError::WellFormedAfter { pass, error } => {
                write!(f, "module malformed after pass `{pass}`: {error}")
            }
            PassError::Unsupported { pass, detail } => write!(f, "{pass}: {detail}"),
            PassError::Verify { stage, error } => {
                write!(f, "executable validation failed after {stage}: {error}")
            }
        }
    }
}

impl std::error::Error for PassError {}

impl From<DeduceError> for PassError {
    fn from(e: DeduceError) -> Self {
        PassError::Deduce(e)
    }
}

impl From<LegalizeError> for PassError {
    fn from(e: LegalizeError) -> Self {
        PassError::Legalize(e)
    }
}

impl From<TransformError> for PassError {
    fn from(e: TransformError) -> Self {
        PassError::Transform(e)
    }
}

impl From<BuildError> for PassError {
    fn from(e: BuildError) -> Self {
        PassError::Build(e)
    }
}

impl From<WellFormedError> for PassError {
    fn from(e: WellFormedError) -> Self {
        PassError::WellFormed(e)
    }
}
