//! Engine-level errors.

use std::fmt;

use pgq_algebra::AlgebraError;
use pgq_durability::DurabilityError;
use pgq_graph::store::GraphError;
use pgq_parser::ParseError;

/// Anything that can go wrong when driving the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The query text failed to parse.
    Parse(ParseError),
    /// The query failed to compile (outside the fragment, unknown
    /// variables, or not incrementally maintainable when registering a
    /// view).
    Algebra(AlgebraError),
    /// The store rejected an update.
    Graph(GraphError),
    /// Referenced view does not exist.
    UnknownView,
    /// A view with this name already exists.
    DuplicateView(String),
    /// Valid Cypher the engine's update interpreter does not support.
    Unsupported(String),
    /// A `$name` parameter without a value, or a value for a parameter
    /// the statement does not write (`GraphEngine::execute_with`).
    Parameter(String),
    /// The durability layer failed. The commit that hit this error did
    /// **not** happen: the in-memory state was rolled back along with
    /// the WAL, and the engine stays usable. The typed payload says what
    /// was attempted and how it failed.
    Durability(DurabilityError),
    /// The engine is in read-only degraded mode: repeated durability
    /// failures (see [`EngineError::Durability`]) tripped the breaker.
    /// Queries and views keep working; updates are refused until an
    /// operator clears the condition (fix the disk, then
    /// `reset_durability`). Carries the failure that tripped it.
    ReadOnly(DurabilityError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Algebra(e) => write!(f, "{e}"),
            EngineError::Graph(e) => write!(f, "{e}"),
            EngineError::UnknownView => write!(f, "unknown view"),
            EngineError::DuplicateView(n) => write!(f, "view `{n}` already exists"),
            EngineError::Unsupported(s) => write!(f, "unsupported: {s}"),
            EngineError::Parameter(s) => write!(f, "parameter {s}"),
            EngineError::Durability(e) => write!(f, "durability: {e}"),
            EngineError::ReadOnly(e) => {
                write!(f, "engine is read-only (degraded after: {e})")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DurabilityError> for EngineError {
    fn from(e: DurabilityError) -> Self {
        EngineError::Durability(e)
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}
impl From<AlgebraError> for EngineError {
    fn from(e: AlgebraError) -> Self {
        EngineError::Algebra(e)
    }
}
impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}
