//! Rendering located errors as caret diagnostics, with no external deps.
//!
//! A [`Diagnostic`] pairs an error message with the byte [`Span`] it refers
//! to, resolved against the source text into a 1-based line/column and a
//! single-line snippet with a caret underline:
//!
//! ```text
//! error: type error: union operands: expected type {atom}, found {bool}
//!  --> line 1, column 12
//!   |
//! 1 | {@1} union {true}
//!   |            ^^^^^^
//! ```
//!
//! Errors without a span (raised from programmatically built expressions)
//! render as the bare `error:` line. Spans wider than one source line are
//! clipped to the first line — one line is enough to locate the construct,
//! and it keeps snapshots stable.

use ncql_core::{Finding, Severity, Span};
use std::fmt;

/// A rendered-form error: the message plus, when located, the resolved
/// line/column and the snippet line the caret points into.
///
/// Build one with [`crate::Error::diagnostic`] (or render straight to a
/// string with [`crate::Error::render`]). Lint findings render through
/// [`Diagnostic::from_finding`], which labels warnings `warning:` instead of
/// `error:`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The severity label the rendered form leads with (`error` or
    /// `warning`).
    label: &'static str,
    /// The error message (the `Display` form of the underlying error).
    pub message: String,
    /// The byte span in the source text, when the error is located.
    pub span: Option<Span>,
    /// 1-based line of the span's start (`None` when unlocated).
    pub line: Option<usize>,
    /// 1-based column (in bytes) of the span's start on its line.
    pub column: Option<usize>,
    /// The full source line the span starts on.
    snippet: Option<String>,
    /// Caret underline aligned under `snippet`.
    underline: Option<String>,
}

impl Diagnostic {
    /// Resolve `span` against `source` and build the diagnostic for
    /// `message`. A span that does not lie within `source` (e.g. the error
    /// came from a different text than the one supplied) is treated as
    /// unlocated rather than panicking.
    pub fn new(message: impl Into<String>, span: Option<Span>, source: &str) -> Diagnostic {
        Diagnostic::with_label("error", message, span, source)
    }

    /// [`Diagnostic::new`] for a lint finding: the message is
    /// `<lint-name>: <finding message>` and the label is `warning` unless the
    /// finding is deny-level.
    pub fn from_finding(finding: &Finding, source: &str) -> Diagnostic {
        let label = match finding.severity {
            Severity::Deny => "error",
            Severity::Warning => "warning",
        };
        Diagnostic::with_label(
            label,
            format!("{}: {}", finding.lint.name(), finding.message),
            finding.span,
            source,
        )
    }

    fn with_label(
        label: &'static str,
        message: impl Into<String>,
        span: Option<Span>,
        source: &str,
    ) -> Diagnostic {
        let message = message.into();
        // Foreign spans — wrong text entirely, or offsets landing mid-way
        // through a multibyte character of this text — degrade to unlocated;
        // slicing below must never panic.
        let located = span.filter(|s| {
            s.start <= s.end
                && s.end <= source.len()
                && source.is_char_boundary(s.start)
                && source.is_char_boundary(s.end)
        });
        match located {
            None => Diagnostic {
                label,
                message,
                span,
                line: None,
                column: None,
                snippet: None,
                underline: None,
            },
            Some(s) => {
                // The line containing the span's start byte.
                let line_start = source[..s.start].rfind('\n').map(|i| i + 1).unwrap_or(0);
                let line_end = source[s.start..]
                    .find('\n')
                    .map(|i| s.start + i)
                    .unwrap_or(source.len());
                let line_no = source[..s.start].matches('\n').count() + 1;
                let column = s.start - line_start + 1;
                let snippet = source[line_start..line_end].to_string();
                // Caret width: the span clipped to this line; a zero-width
                // (end-of-input) span still gets one caret.
                let width = s.end.min(line_end).saturating_sub(s.start).max(1);
                let underline = format!("{}{}", " ".repeat(column - 1), "^".repeat(width));
                Diagnostic {
                    label,
                    message,
                    span,
                    line: Some(line_no),
                    column: Some(column),
                    snippet: Some(snippet),
                    underline: Some(underline),
                }
            }
        }
    }

    /// The source line the caret points into, when located.
    pub fn snippet(&self) -> Option<&str> {
        self.snippet.as_deref()
    }

    /// The severity label the rendered form leads with: `"error"` or
    /// `"warning"`.
    pub fn severity(&self) -> &'static str {
        self.label
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.label, self.message)?;
        if let (Some(line), Some(column), Some(snippet), Some(underline)) =
            (self.line, self.column, &self.snippet, &self.underline)
        {
            let gutter = line.to_string();
            let pad = " ".repeat(gutter.len());
            writeln!(f)?;
            writeln!(f, "{pad}--> line {line}, column {column}")?;
            writeln!(f, "{pad} |")?;
            writeln!(f, "{gutter} | {snippet}")?;
            write!(f, "{pad} | {underline}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlocated_errors_render_as_one_line() {
        let d = Diagnostic::new("something failed", None, "irrelevant");
        assert_eq!(d.to_string(), "error: something failed");
        assert_eq!(d.line, None);
    }

    #[test]
    fn caret_points_at_the_span() {
        let src = "{@1} union {true}";
        let d = Diagnostic::new("bad operand", Some(Span::new(11, 17)), src);
        assert_eq!(d.line, Some(1));
        assert_eq!(d.column, Some(12));
        let expected = [
            "error: bad operand",
            " --> line 1, column 12",
            "  |",
            "1 | {@1} union {true}",
            "  |            ^^^^^^",
        ]
        .join("\n");
        assert_eq!(d.to_string(), expected);
    }

    #[test]
    fn multi_line_sources_resolve_lines_and_clip_carets() {
        let src = "let r = {@1}\nin r union {true}";
        // Span of `{true}` on line 2: bytes 24..30.
        let d = Diagnostic::new("bad", Some(Span::new(24, 30)), src);
        assert_eq!(d.line, Some(2));
        assert_eq!(d.column, Some(12));
        assert_eq!(d.snippet(), Some("in r union {true}"));
        // A span covering both lines clips to the first.
        let wide = Diagnostic::new("bad", Some(Span::new(8, 30)), src);
        assert_eq!(wide.line, Some(1));
        assert_eq!(wide.snippet(), Some("let r = {@1}"));
        let rendered = wide.to_string();
        let caret_line = rendered.lines().last().unwrap();
        assert_eq!(caret_line, "  |         ^^^^");
    }

    #[test]
    fn zero_width_spans_get_one_caret() {
        let src = "{@1} union";
        let d = Diagnostic::new("expected more", Some(Span::point(10)), src);
        assert_eq!(d.column, Some(11));
        assert!(d.to_string().ends_with("^"));
    }

    #[test]
    fn lint_findings_render_with_severity_labels() {
        use ncql_core::Lint;
        let src = "let x = {@1} in {@2}";
        let warn = Finding {
            lint: Lint::UnusedBinding,
            severity: Severity::Warning,
            message: "binding `x` is never used".to_string(),
            span: Some(Span::new(4, 5)),
        };
        let d = Diagnostic::from_finding(&warn, src);
        let rendered = d.to_string();
        assert!(
            rendered.starts_with("warning: unused-binding: binding `x` is never used"),
            "{rendered}"
        );
        assert_eq!(d.column, Some(5));
        // Deny findings keep the error label.
        let deny = Finding {
            lint: Lint::DoomedWorkBound,
            severity: Severity::Deny,
            message: "doomed".to_string(),
            span: None,
        };
        assert_eq!(
            Diagnostic::from_finding(&deny, src).to_string(),
            "error: doomed-work-bound: doomed"
        );
    }

    #[test]
    fn foreign_spans_degrade_to_unlocated() {
        let d = Diagnostic::new("oops", Some(Span::new(90, 95)), "short");
        assert_eq!(d.to_string(), "error: oops");
        // A span whose offsets land mid-way through a multibyte character of
        // the supplied text (e.g. a cached error rendered against edited
        // source) is just as foreign: degrade, don't panic.
        let mid_char = Diagnostic::new("oops", Some(Span::new(1, 4)), "€€€€");
        assert_eq!(mid_char.to_string(), "error: oops");
        assert_eq!(mid_char.line, None);
    }
}
