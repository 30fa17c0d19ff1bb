//! `REUSE_*` environment knobs: unset means the default, a valid value is
//! used, and a set-but-malformed one stops the program instead of silently
//! running the default.

use std::fmt::Display;
use std::str::FromStr;

/// Parses the raw `value` of knob `name`; `Ok(None)` when it is unset.
///
/// # Errors
///
/// Returns the message to print when the value does not parse: the knob,
/// the offending value and what `T` accepts.
fn parse_knob<T>(name: &str, value: Option<&str>) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    value
        .map(|v| v.parse().map_err(|e| format!("invalid {name}={v:?}: {e}")))
        .transpose()
}

/// The environment knob `name`, parsed; `None` when unset. Meant for a
/// binary's start-up: a malformed value prints what is accepted and exits
/// with status 2 (a usage error), like a mistyped command-line flag.
pub fn env_parse<T>(name: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, value.as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn scale_knob_unset_valid_malformed() {
        assert_eq!(parse_knob::<Scale>("REUSE_SCALE", None), Ok(None));
        for (text, scale) in [
            ("full", Scale::Full),
            ("small", Scale::Small),
            ("Tiny", Scale::Tiny),
        ] {
            assert_eq!(parse_knob("REUSE_SCALE", Some(text)), Ok(Some(scale)));
        }
        for text in ["ful", ""] {
            let message = parse_knob::<Scale>("REUSE_SCALE", Some(text)).unwrap_err();
            assert!(message.contains("REUSE_SCALE"), "{message}");
            assert!(message.contains("full, small or tiny"), "{message}");
        }
    }

    #[test]
    fn numeric_knob_unset_valid_malformed() {
        assert_eq!(parse_knob::<usize>("REUSE_EXECUTIONS", None), Ok(None));
        assert_eq!(
            parse_knob("REUSE_EXECUTIONS", Some("80")),
            Ok(Some(80usize))
        );
        assert_eq!(
            parse_knob("REUSE_SERVE_MIN_FPS", Some("0.5")),
            Ok(Some(0.5f64))
        );
        let message = parse_knob::<usize>("REUSE_EXECUTIONS", Some("8O")).unwrap_err();
        assert!(message.contains("REUSE_EXECUTIONS=\"8O\""), "{message}");
        assert!(parse_knob::<f64>("REUSE_SERVE_MIN_FPS", Some("fast")).is_err());
    }
}
