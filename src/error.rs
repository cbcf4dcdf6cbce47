//! The unified `marchgen` error taxonomy.
//!
//! Each workspace crate keeps its own precise error type
//! ([`ParseFaultError`], [`GenerateError`], [`ScheduleError`],
//! [`ParseMarchError`]); this module folds them into one [`Error`] enum
//! with `std::error::Error` sources, so service-layer callers handle a
//! single type and `?` works across the whole facade.

use marchgen_faults::ParseFaultError;
use marchgen_generator::{GenerateError, ScheduleError};
use marchgen_march::ParseMarchError;
use std::fmt;

/// Any error the `marchgen` facade can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A fault list failed to parse.
    Parse(ParseFaultError),
    /// A March test string failed to parse.
    ParseMarch(ParseMarchError),
    /// The generation engine failed outright.
    Generate(GenerateError),
    /// A Test Pattern tour could not be scheduled into a March test.
    Schedule(ScheduleError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(_) => f.write_str("invalid fault list"),
            Error::ParseMarch(_) => f.write_str("invalid march test"),
            Error::Generate(_) => f.write_str("generation failed"),
            Error::Schedule(_) => f.write_str("tour scheduling failed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::ParseMarch(e) => Some(e),
            Error::Generate(e) => Some(e),
            Error::Schedule(e) => Some(e),
        }
    }
}

/// Flattens an error and its sources into one line, `outer: inner: ...`
/// — the text of the `"error"` entries of `marchgen batch --json` and of
/// the daemon's generation failures.
#[must_use]
pub fn error_chain(error: &dyn std::error::Error) -> String {
    let mut text = error.to_string();
    let mut source = error.source();
    while let Some(cause) = source {
        text.push_str(": ");
        text.push_str(&cause.to_string());
        source = cause.source();
    }
    text
}

impl From<ParseFaultError> for Error {
    fn from(e: ParseFaultError) -> Error {
        Error::Parse(e)
    }
}

impl From<ParseMarchError> for Error {
    fn from(e: ParseMarchError) -> Error {
        Error::ParseMarch(e)
    }
}

impl From<GenerateError> for Error {
    fn from(e: GenerateError) -> Error {
        Error::Generate(e)
    }
}

impl From<ScheduleError> for Error {
    fn from(e: ScheduleError) -> Error {
        Error::Schedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn sources_chain() {
        let parse_err = marchgen_faults::parse_fault_list("NOPE").unwrap_err();
        let err: Error = parse_err.clone().into();
        assert_eq!(err, Error::Parse(parse_err.clone()));
        let source = err.source().expect("has source");
        assert_eq!(source.to_string(), parse_err.to_string());
    }

    #[test]
    fn question_mark_composes_across_crates() {
        fn flow() -> Result<usize, Error> {
            let models = marchgen_faults::parse_fault_list("SAF")?;
            let outcome =
                marchgen_generator::generate(&marchgen_generator::GenerateRequest::new(models))?;
            Ok(outcome.complexity())
        }
        assert_eq!(flow().unwrap(), 4);
    }

    #[test]
    fn generate_errors_wrap() {
        let err = flow_err().unwrap_err();
        assert!(matches!(
            err,
            Error::Generate(GenerateError::EmptyFaultList)
        ));
        fn flow_err() -> Result<(), Error> {
            marchgen_generator::generate(&marchgen_generator::GenerateRequest::default())?;
            Ok(())
        }
    }
}
