//! Error types for IR construction, verification and interpretation.

use std::error::Error;
use std::fmt;

/// Error produced by the IR verifier or module linker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError {
    /// Function the error was found in, when known.
    pub function: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl IrError {
    /// Error not attributed to a particular function.
    pub fn new(message: impl Into<String>) -> Self {
        IrError {
            function: None,
            message: message.into(),
        }
    }

    /// Error attributed to `function`.
    pub fn in_function(function: impl Into<String>, message: impl Into<String>) -> Self {
        IrError {
            function: Some(function.into()),
            message: message.into(),
        }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(name) => write!(f, "in function `{name}`: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl Error for IrError {}

/// Error raised while interpreting a kernel over an NDRange.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// A kernel or helper function name did not resolve.
    UnknownFunction(String),
    /// Kernel argument list did not match the kernel signature.
    ArgMismatch(String),
    /// Memory access outside a buffer or arena.
    OutOfBounds {
        /// What was accessed.
        what: String,
        /// Byte offset of the access.
        offset: usize,
        /// Size of the underlying storage in bytes.
        size: usize,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Work items of one work group reached different barriers (undefined
    /// behaviour in OpenCL; a hard error here).
    BarrierDivergence(String),
    /// The work item executed more than the configured instruction budget
    /// (runaway loop guard).
    StepLimitExceeded(u64),
    /// A call would nest more calls than this limit
    /// ([`crate::interp::MAX_CALL_DEPTH`]).
    CallDepthExceeded(usize),
    /// Any other dynamic violation (bad cast, call of a kernel, ...).
    Invalid(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            InterpError::ArgMismatch(m) => write!(f, "kernel argument mismatch: {m}"),
            InterpError::OutOfBounds { what, offset, size } => {
                write!(
                    f,
                    "out-of-bounds access to {what}: byte offset {offset} of {size}"
                )
            }
            InterpError::DivideByZero => f.write_str("integer division by zero"),
            InterpError::BarrierDivergence(m) => write!(f, "barrier divergence: {m}"),
            InterpError::StepLimitExceeded(n) => {
                write!(f, "work item exceeded the step limit of {n} instructions")
            }
            InterpError::CallDepthExceeded(n) => {
                write!(f, "work item exceeded the call depth of {n}")
            }
            InterpError::Invalid(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl Error for InterpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = IrError::in_function("k", "bad terminator");
        assert_eq!(e.to_string(), "in function `k`: bad terminator");
        assert_eq!(IrError::new("x").to_string(), "x");
        assert!(InterpError::DivideByZero.to_string().contains("division"));
        let oob = InterpError::OutOfBounds {
            what: "buffer 0".into(),
            offset: 64,
            size: 32,
        };
        assert!(oob.to_string().contains("byte offset 64"));
        assert!(InterpError::StepLimitExceeded(10)
            .to_string()
            .contains("10"));
    }

    #[test]
    fn errors_are_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<IrError>();
        assert_err::<InterpError>();
    }
}
