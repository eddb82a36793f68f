//! Error types for policy construction and the `fv` front end.

use core::fmt;

use crate::label::ClassId;

/// Errors raised while building a scheduling tree from a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildTreeError {
    /// Two classes share the same id.
    DuplicateClass(ClassId),
    /// A class references a parent that does not exist.
    UnknownParent {
        /// The class with the dangling reference.
        class: ClassId,
        /// The missing parent id.
        parent: ClassId,
    },
    /// No root class (class without a parent) was declared.
    MissingRoot,
    /// More than one root class was declared.
    MultipleRoots(ClassId, ClassId),
    /// The root class has no rate, so the tree has no bandwidth to divide.
    RootWithoutRate(ClassId),
    /// A cycle was found in the parent relation.
    CyclicHierarchy(ClassId),
    /// The tree is deeper than [`crate::label::MAX_DEPTH`].
    TooDeep(ClassId),
    /// A class has weight zero.
    ZeroWeight(ClassId),
    /// A borrow label names a class that does not exist.
    UnknownBorrowClass(ClassId),
    /// A ceiling is lower than the configured guarantee.
    CeilBelowRate(ClassId),
    /// A rate or ceil is too large for the token arithmetic: its token
    /// rate, its bucket burst or the tokens it accrues in one expiry window
    /// would overflow.
    RateOutOfRange(ClassId),
}

impl fmt::Display for BuildTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildTreeError::DuplicateClass(c) => write!(f, "duplicate class {c}"),
            BuildTreeError::UnknownParent { class, parent } => {
                write!(f, "class {class} references unknown parent {parent}")
            }
            BuildTreeError::MissingRoot => write!(f, "no root class declared"),
            BuildTreeError::MultipleRoots(a, b) => {
                write!(f, "multiple root classes declared ({a} and {b})")
            }
            BuildTreeError::RootWithoutRate(c) => {
                write!(f, "root class {c} has no rate")
            }
            BuildTreeError::CyclicHierarchy(c) => {
                write!(f, "cycle in class hierarchy involving {c}")
            }
            BuildTreeError::TooDeep(c) => write!(f, "class {c} exceeds maximum tree depth"),
            BuildTreeError::ZeroWeight(c) => write!(f, "class {c} has zero weight"),
            BuildTreeError::UnknownBorrowClass(c) => {
                write!(f, "borrow label references unknown class {c}")
            }
            BuildTreeError::CeilBelowRate(c) => {
                write!(f, "class {c} has ceil below its guaranteed rate")
            }
            BuildTreeError::RateOutOfRange(c) => {
                write!(f, "class {c} has a rate or ceil too large to meter")
            }
        }
    }
}

impl std::error::Error for BuildTreeError {}

/// Errors raised by the `fv` command parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFvError {
    /// The command does not start with a recognized object
    /// (`qdisc`, `class`, `filter`).
    UnknownObject(String),
    /// An unexpected verb for the object (only `add` is supported).
    UnknownVerb(String),
    /// A required option is missing.
    MissingOption(&'static str),
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        option: &'static str,
        /// The offending text.
        value: String,
    },
    /// A rate suffix other than `bit`, `kbit`, `mbit`, `gbit`.
    BadRate(String),
    /// A malformed `major:minor` handle.
    BadHandle(String),
    /// The line was empty after stripping comments.
    EmptyCommand,
    /// Building the final tree failed.
    Build(BuildTreeError),
}

impl fmt::Display for ParseFvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFvError::UnknownObject(s) => write!(f, "unknown object '{s}'"),
            ParseFvError::UnknownVerb(s) => write!(f, "unknown verb '{s}'"),
            ParseFvError::MissingOption(o) => write!(f, "missing option '{o}'"),
            ParseFvError::BadValue { option, value } => {
                write!(f, "bad value '{value}' for option '{option}'")
            }
            ParseFvError::BadRate(s) => write!(f, "bad rate '{s}'"),
            ParseFvError::BadHandle(s) => write!(f, "bad class handle '{s}'"),
            ParseFvError::EmptyCommand => write!(f, "empty command"),
            ParseFvError::Build(e) => write!(f, "policy error: {e}"),
        }
    }
}

impl std::error::Error for ParseFvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseFvError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildTreeError> for ParseFvError {
    fn from(e: BuildTreeError) -> Self {
        ParseFvError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = BuildTreeError::UnknownParent {
            class: ClassId(10),
            parent: ClassId(1),
        };
        assert_eq!(e.to_string(), "class 1:10 references unknown parent 1:1");
        let p = ParseFvError::BadRate("10zbit".into());
        assert_eq!(p.to_string(), "bad rate '10zbit'");
    }

    #[test]
    fn parse_error_wraps_build_error_as_source() {
        use std::error::Error as _;
        let p: ParseFvError = BuildTreeError::MissingRoot.into();
        assert!(p.source().is_some());
    }
}
