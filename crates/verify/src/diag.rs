//! The diagnostics engine shared by every verifier pass: stable rule
//! codes, severities, source-entity anchors, deterministic ordering, and
//! text + JSON renderers.

use std::fmt;

use ecl_aaa::{AlgorithmGraph, OpId};

use crate::bounds::LatencyBoundReport;
use crate::envelope::EnvelopeReport;

/// Severity of a diagnostic. Orders `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A property worth knowing that requires no action.
    Info,
    /// A suspicious construction that degrades quality but not soundness.
    Warn,
    /// A violated property: the artifact must not be deployed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The source entity a diagnostic anchors to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// An operation of the algorithm graph.
    Op {
        /// The operation's index.
        index: usize,
        /// The operation's name.
        name: String,
    },
    /// A processor of the architecture graph.
    Proc {
        /// The processor's index.
        index: usize,
        /// The processor's name.
        name: String,
    },
    /// A communication medium of the architecture graph.
    Medium {
        /// The medium's index.
        index: usize,
        /// The medium's name.
        name: String,
    },
    /// A communication slot (index into the schedule's transfer list).
    Comm {
        /// The slot's index.
        index: usize,
    },
    /// The artifact as a whole.
    Model,
}

impl Anchor {
    /// The anchor of operation `op` of `alg`.
    pub fn op(alg: &AlgorithmGraph, op: OpId) -> Anchor {
        Anchor::Op {
            index: op.index(),
            name: alg.name(op).to_string(),
        }
    }

    /// Total order used for deterministic report ordering.
    fn order_key(&self) -> (u8, usize) {
        match self {
            Anchor::Model => (0, 0),
            Anchor::Op { index, .. } => (1, *index),
            Anchor::Proc { index, .. } => (2, *index),
            Anchor::Medium { index, .. } => (3, *index),
            Anchor::Comm { index } => (4, *index),
        }
    }
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anchor::Op { index, name } => write!(f, "op '{name}' (op{index})"),
            Anchor::Proc { index, name } => write!(f, "processor '{name}' (p{index})"),
            Anchor::Medium { index, name } => write!(f, "medium '{name}' (m{index})"),
            Anchor::Comm { index } => write!(f, "comm slot {index}"),
            Anchor::Model => write!(f, "model"),
        }
    }
}

/// One finding of the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`EV001`, ...). See DESIGN.md §10 for the registry.
    pub code: &'static str,
    /// Fixed severity of the rule.
    pub severity: Severity,
    /// The entity the finding anchors to.
    pub anchor: Anchor,
    /// Human-readable explanation.
    pub message: String,
}

/// The outcome of a verification run: deterministically ordered
/// diagnostics plus, when derived, the static latency bounds.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    diagnostics: Vec<Diagnostic>,
    /// Static `Ls`/`La` bounds, when the bounds pass ran.
    pub bounds: Option<LatencyBoundReport>,
    /// Fault-family completion envelopes, when the envelope pass ran.
    pub envelope: Option<EnvelopeReport>,
}

impl VerifyReport {
    /// Builds a report from raw findings, imposing the deterministic
    /// order: errors first, then by rule code, anchor, and message.
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(b.code))
                .then(a.anchor.order_key().cmp(&b.anchor.order_key()))
                .then(a.message.cmp(&b.message))
        });
        VerifyReport {
            diagnostics,
            bounds: None,
            envelope: None,
        }
    }

    /// The ordered findings.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` iff no finding is an [`Severity::Error`].
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// `true` iff some finding carries rule code `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the report as readable text.
    pub fn render(&self) -> String {
        let mut s = String::from("## Static verification\n");
        s.push_str(&format!(
            "status: {} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        ));
        if self.diagnostics.is_empty() {
            s.push_str("findings: none\n");
        } else {
            s.push_str("findings:\n");
            for d in &self.diagnostics {
                s.push_str(&format!(
                    "  {} {:<5} {}: {}\n",
                    d.code,
                    d.severity.to_string(),
                    d.anchor,
                    d.message
                ));
            }
        }
        if let Some(b) = &self.bounds {
            s.push_str(&b.render());
        }
        if let Some(e) = &self.envelope {
            s.push_str(&e.render());
        }
        s
    }

    /// Renders the report as deterministic, hand-formatted JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"errors\": {},\n", self.count(Severity::Error)));
        s.push_str(&format!(
            "  \"warnings\": {},\n",
            self.count(Severity::Warn)
        ));
        s.push_str(&format!("  \"infos\": {},\n", self.count(Severity::Info)));
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \"anchor\": \"{}\", \"message\": \"{}\"}}",
                d.code,
                d.severity,
                escape(&d.anchor.to_string()),
                escape(&d.message)
            ));
        }
        if self.diagnostics.is_empty() {
            s.push(']');
        } else {
            s.push_str("\n  ]");
        }
        if let Some(b) = &self.bounds {
            s.push_str(",\n");
            s.push_str(&b.json_fragment());
        }
        if let Some(e) = &self.envelope {
            s.push_str(",\n");
            s.push_str(&e.json_fragment());
        }
        s.push_str("\n}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes and backslashes; names and
/// messages contain no control characters).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
