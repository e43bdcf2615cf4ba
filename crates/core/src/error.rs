//! Error types for topology parsing and pipeline composition.
//!
//! Three shapes reach a caller: a [`ComposeError::Parse`] from the
//! topology parser, a [`ComposeError::UnknownComponent`] from a direct
//! [`ComponentRegistry::build`](crate::composer::ComponentRegistry::build),
//! and a [`ComposeError::Analysis`] for everything the static analyzer
//! finds in an elaborated design — including the findings that stop a
//! pipeline from compiling at all (unknown names, arity, latency and
//! metadata width), which carry their `C`-code and span.

use std::error::Error;
use std::fmt;

/// A half-open byte range `[start, end)` into the topology source text.
///
/// Spans let diagnostics point at the exact token that caused a problem —
/// every parse error and every component-attributed analysis diagnostic
/// carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first offending character.
    pub start: usize,
    /// Byte offset one past the last offending character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// A zero-width span at `pos` (used for "unexpected end of input").
    pub fn point(pos: usize) -> Self {
        Self {
            start: pos,
            end: pos,
        }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// `true` when the span covers no characters.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// A caret line (`^^^` under the offending range) for terminal
    /// rendering beneath the topology text.
    pub fn caret_line(&self) -> String {
        let mut s = " ".repeat(self.start);
        s.push_str(&"^".repeat(self.len().max(1)));
        s
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// An error raised while parsing a topology expression or composing a
/// predictor pipeline from one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// The topology expression could not be parsed.
    Parse {
        /// Human-readable description of the syntax problem.
        reason: String,
        /// Byte range of the offending token in the topology text.
        span: Span,
    },
    /// A component name in the topology has no registered factory.
    UnknownComponent {
        /// The unresolved name, e.g. `"FOO3"`.
        name: String,
        /// Byte range of the name in the topology text, when the caller
        /// of [`ComponentRegistry::build`](crate::composer::ComponentRegistry::build)
        /// has one.
        span: Option<Span>,
    },
    /// Static analysis rejected the design with one or more error-level
    /// diagnostics (see [`crate::analysis`]).
    Analysis {
        /// The error-level diagnostics, in pass order.
        diagnostics: Vec<crate::analysis::Diagnostic>,
    },
}

impl ComposeError {
    /// The span of the offending token, when the error points into the
    /// topology text.
    pub fn span(&self) -> Option<Span> {
        match self {
            ComposeError::Parse { span, .. } => Some(*span),
            ComposeError::UnknownComponent { span, .. } => *span,
            ComposeError::Analysis { diagnostics } => diagnostics.iter().find_map(|d| d.span),
        }
    }
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::Parse { reason, span } => {
                write!(f, "topology parse error at {span}: {reason}")
            }
            ComposeError::UnknownComponent { name, .. } => {
                write!(f, "unknown component name `{name}`")
            }
            ComposeError::Analysis { diagnostics } => {
                let first = diagnostics
                    .first()
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "design rejected".into());
                if diagnostics.len() > 1 {
                    write!(f, "{first} (+{} more)", diagnostics.len() - 1)
                } else {
                    write!(f, "{first}")
                }
            }
        }
    }
}

impl Error for ComposeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = ComposeError::UnknownComponent {
            name: "FOO3".into(),
            span: None,
        };
        assert_eq!(e.to_string(), "unknown component name `FOO3`");
    }

    #[test]
    fn parse_errors_render_span() {
        let e = ComposeError::Parse {
            reason: "unexpected `]`".into(),
            span: Span::new(4, 5),
        };
        assert!(e.to_string().contains("4..5"));
        assert_eq!(e.span(), Some(Span::new(4, 5)));
    }

    #[test]
    fn unknown_component_carries_span() {
        let e = ComposeError::UnknownComponent {
            name: "FOO3".into(),
            span: Some(Span::new(7, 11)),
        };
        assert_eq!(e.span(), Some(Span::new(7, 11)));
        assert_eq!(e.to_string(), "unknown component name `FOO3`");
    }

    #[test]
    fn span_caret_line_underlines_range() {
        assert_eq!(Span::new(2, 5).caret_line(), "  ^^^");
        assert_eq!(Span::point(3).caret_line(), "   ^");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<T: Error + Send + Sync + 'static>() {}
        assert_err::<ComposeError>();
    }
}
