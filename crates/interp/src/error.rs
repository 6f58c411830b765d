//! Interpreter errors.

use std::fmt;

use axi4mlir_sim::dma::DmaError;
use axi4mlir_support::diag::Diagnostic;

/// Why interpretation stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum InterpError {
    /// An operation the interpreter does not implement.
    UnsupportedOp {
        /// The op name.
        name: String,
    },
    /// An unknown runtime callee.
    UnknownCallee {
        /// The callee symbol.
        name: String,
    },
    /// A value had the wrong runtime type.
    TypeMismatch {
        /// What went wrong.
        context: String,
    },
    /// The DMA engine rejected a transfer (driver-generation bug).
    Dma(DmaError),
    /// The module breaks a rule of the dialect verifier, which the
    /// interpreter checks for each op before it resolves it: the module
    /// could not have run whatever its inputs.
    Unverified {
        /// The verifier's message, naming the op.
        message: String,
    },
    /// The function was called with the wrong arguments.
    BadArguments {
        /// What went wrong.
        context: String,
    },
    /// Anything else, with a message.
    Other {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnsupportedOp { name } => write!(f, "unsupported operation `{name}`"),
            InterpError::UnknownCallee { name } => write!(f, "unknown runtime callee `{name}`"),
            InterpError::TypeMismatch { context } => write!(f, "type mismatch: {context}"),
            InterpError::Dma(e) => write!(f, "dma error: {e}"),
            InterpError::Unverified { message } => write!(f, "unverified module: {message}"),
            InterpError::BadArguments { context } => write!(f, "bad arguments: {context}"),
            InterpError::Other { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<DmaError> for InterpError {
    fn from(e: DmaError) -> Self {
        InterpError::Dma(e)
    }
}

impl From<InterpError> for Diagnostic {
    fn from(e: InterpError) -> Self {
        Diagnostic::error(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            InterpError::UnsupportedOp { name: "x.y".into() }.to_string(),
            "unsupported operation `x.y`"
        );
        assert!(InterpError::Dma(DmaError::NotInitialized).to_string().contains("dma_init"));
        let d: Diagnostic = InterpError::UnknownCallee { name: "f".into() }.into();
        assert!(d.message.contains("unknown runtime callee"));
    }
}
