//! Assembler error type.

use std::fmt;

/// An error produced while building or assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    message: String,
}

impl AsmError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> AsmError {
        AsmError {
            message: message.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for AsmError {}
