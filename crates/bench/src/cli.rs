//! Command-line parsing shared by the harness binaries (`experiments`,
//! `ablations`, `validate`): a malformed flag is a usage error that names
//! the flag and exits with code 2, never a panic with a backtrace.

use std::fmt;
use std::str::FromStr;

/// A malformed command line; the message names the offending argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(String);

impl UsageError {
    /// An argument no binary flag or command matches.
    pub fn unknown(arg: &str) -> Self {
        Self(format!("unknown argument: {arg}"))
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// Parses the value that follows `flag` (`value` is `None` when the flag
/// ended the command line); `what` describes the expected value.
pub fn flag_value<T: FromStr>(
    flag: &str,
    value: Option<&String>,
    what: &str,
) -> Result<T, UsageError> {
    let raw = value.ok_or_else(|| UsageError(format!("{flag} needs {what}")))?;
    raw.parse()
        .map_err(|_| UsageError(format!("{flag} needs {what}, got `{raw}`")))
}

/// The parsed arguments, or the process exit a binary's command line asks
/// for: `Ok(None)` (help requested) prints `usage` and exits 0, a usage
/// error prints it with `usage` and exits 2.
pub fn args_or_exit<A>(parsed: Result<Option<A>, UsageError>, usage: &str) -> A {
    match parsed {
        Ok(Some(args)) => args,
        Ok(None) => {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        Err(error) => {
            eprintln!("error: {error}\n{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_values_parse_or_name_the_flag() {
        let good = "12".to_string();
        let bad = "bogus".to_string();
        assert_eq!(
            flag_value::<u64>("--trials", Some(&good), "a number"),
            Ok(12)
        );
        let err = flag_value::<u64>("--trials", Some(&bad), "a number").unwrap_err();
        assert_eq!(err.to_string(), "--trials needs a number, got `bogus`");
        let err = flag_value::<u64>("--seed", None, "a number").unwrap_err();
        assert_eq!(err.to_string(), "--seed needs a number");
    }
}
