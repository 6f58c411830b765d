//! Structured diagnostics.
//!
//! Passes and parsers report problems through a [`DiagnosticEngine`] rather
//! than panicking or returning bare strings, so callers can collect several
//! errors in one run and render them with source locations.

use std::fmt;

/// Severity of a [`Diagnostic`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Something suspicious that does not stop compilation.
    Warning,
    /// A hard error; the producing stage failed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A location in a textual source (configuration file or IR assembly).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SourceLoc {
    /// 1-based line; 0 means "unknown".
    pub line: u32,
    /// 1-based column; 0 means "unknown".
    pub col: u32,
}

impl SourceLoc {
    /// Creates a location from 1-based line and column.
    pub fn new(line: u32, col: u32) -> Self {
        Self { line, col }
    }

    /// The unknown location.
    fn unknown() -> Self {
        Self::default()
    }

    /// Returns `true` if this is the unknown location.
    fn is_unknown(&self) -> bool {
        self.line == 0
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unknown() {
            write!(f, "<unknown>")
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

/// A single diagnostic message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable message, lowercase, no trailing punctuation.
    pub message: String,
    /// Where in the source it happened, if known.
    pub loc: SourceLoc,
    /// Optional notes elaborating on the primary message.
    pub notes: Vec<String>,
    /// Machine-readable code (lint/verifier rules), e.g. `lint::isa-opcode`.
    /// Rendered as `error[CODE]:`; absent for free-form diagnostics.
    pub code: Option<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic with no location.
    pub fn error(message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Error,
            message: message.into(),
            loc: SourceLoc::unknown(),
            notes: Vec::new(),
            code: None,
        }
    }

    /// Creates a warning diagnostic with no location.
    pub fn warning(message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Warning,
            message: message.into(),
            loc: SourceLoc::unknown(),
            notes: Vec::new(),
            code: None,
        }
    }

    /// Attaches a source location.
    pub(crate) fn at(mut self, loc: SourceLoc) -> Self {
        self.loc = loc;
        self
    }

    /// Appends an explanatory note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Attaches a machine-readable code (rendered as `error[CODE]:`).
    pub fn with_code(mut self, code: impl Into<String>) -> Self {
        self.code = Some(code.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.loc.is_unknown() {
            write!(f, "{}: ", self.loc)?;
        }
        match &self.code {
            Some(code) => write!(f, "{}[{code}]: {}", self.severity, self.message)?,
            None => write!(f, "{}: {}", self.severity, self.message)?,
        }
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

/// Collects diagnostics produced by a compilation stage.
///
/// # Examples
///
/// ```
/// use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};
///
/// let mut engine = DiagnosticEngine::new();
/// engine.emit(Diagnostic::warning("tile size rounded down"));
/// assert!(!engine.has_errors());
/// engine.emit(Diagnostic::error("unknown opcode `sX`"));
/// assert!(engine.has_errors());
/// assert_eq!(engine.diagnostics().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiagnosticEngine {
    diagnostics: Vec<Diagnostic>,
}

impl DiagnosticEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a diagnostic.
    pub fn emit(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Shorthand for emitting an [`Severity::Error`].
    pub fn error(&mut self, message: impl Into<String>) {
        self.emit(Diagnostic::error(message));
    }

    /// Returns `true` if any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// All recorded diagnostics, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Renders all diagnostics, one per line.
    pub fn render(&self) -> String {
        self.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    }

    /// Summarizes the recorded diagnostics into a `Result` while leaving
    /// them in the engine for the caller to inspect. Verifiers use this to
    /// collect into a caller-supplied engine *and* return a `Result` from
    /// the same engine, without cloning everything into a second one.
    ///
    /// # Errors
    ///
    /// Returns the first error diagnostic (with all other messages rendered
    /// into its notes) when [`DiagnosticEngine::has_errors`] is true.
    pub fn result(&self) -> Result<(), Diagnostic> {
        let Some(mut primary) =
            self.diagnostics.iter().find(|d| d.severity == Severity::Error).cloned()
        else {
            return Ok(());
        };
        let extra: Vec<String> =
            self.diagnostics.iter().filter(|d| **d != primary).map(|d| d.to_string()).collect();
        primary.notes.extend(extra);
        Err(primary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_with_location() {
        let d =
            Diagnostic::error("bad token").at(SourceLoc::new(3, 14)).with_note("expected `send`");
        let rendered = d.to_string();
        assert_eq!(rendered, "3:14: error: bad token\n  note: expected `send`");
    }

    #[test]
    fn display_without_location() {
        let d = Diagnostic::warning("tile not divisible");
        assert_eq!(d.to_string(), "warning: tile not divisible");
    }

    #[test]
    fn engine_collects_and_reports() {
        let mut e = DiagnosticEngine::new();
        assert!(!e.has_errors());
        e.emit(Diagnostic::warning("w"));
        e.error("e");
        assert!(e.has_errors());
        assert_eq!(e.diagnostics().len(), 2);
        let rendered = e.render();
        assert!(rendered.contains("warning: w"));
        assert!(rendered.contains("error: e"));
    }

    #[test]
    fn into_result_ok_without_errors() {
        let mut e = DiagnosticEngine::new();
        e.emit(Diagnostic::warning("only a warning"));
        assert!(e.result().is_ok());
    }

    #[test]
    fn into_result_err_with_errors() {
        let mut e = DiagnosticEngine::new();
        e.emit(Diagnostic::warning("context"));
        e.error("boom");
        let err = e.result().unwrap_err();
        assert_eq!(err.message, "boom");
        assert!(err.notes.iter().any(|n| n.contains("context")));
    }

    #[test]
    fn display_with_code() {
        let d = Diagnostic::error("burst writes past the memref").with_code("lint::dma-bounds");
        assert_eq!(d.to_string(), "error[lint::dma-bounds]: burst writes past the memref");
        let located = d.at(SourceLoc::new(2, 7));
        assert_eq!(
            located.to_string(),
            "2:7: error[lint::dma-bounds]: burst writes past the memref"
        );
    }

    #[test]
    fn result_leaves_the_engine_intact() {
        let mut e = DiagnosticEngine::new();
        e.emit(Diagnostic::warning("context"));
        e.error("boom");
        let err = e.result().unwrap_err();
        assert_eq!(err.message, "boom");
        assert!(err.notes.iter().any(|n| n.contains("context")));
        // The engine still holds everything it collected.
        assert_eq!(e.diagnostics().len(), 2);
        assert!(e.result().is_err(), "result() is repeatable");
    }

    #[test]
    fn result_preserves_the_error_code() {
        let mut e = DiagnosticEngine::new();
        e.emit(Diagnostic::error("illegal flow").with_code("lint::flow-legal"));
        let err = e.result().unwrap_err();
        assert_eq!(err.code.as_deref(), Some("lint::flow-legal"));
    }

    #[test]
    fn unknown_location_renders_as_placeholder() {
        assert_eq!(SourceLoc::unknown().to_string(), "<unknown>");
        assert!(SourceLoc::unknown().is_unknown());
        assert!(!SourceLoc::new(1, 1).is_unknown());
    }
}
