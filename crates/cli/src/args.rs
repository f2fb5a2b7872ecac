//! A small deterministic flag parser (no external dependencies).
//!
//! Grammar: `rim <command> [--flag value]... [--switch]...`. Flags may
//! appear in any order; unknown flags are errors; every flag accessor
//! records the key so [`Args::finish`] can reject typos.

use std::collections::BTreeMap;

/// Parsed command line: a command word plus `--key value` flags.
#[derive(Debug)]
pub struct Args {
    command: String,
    flags: BTreeMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Command-line usage error.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, UsageError> {
        let mut it = raw.into_iter();
        let command = it
            .next()
            .ok_or_else(|| UsageError("missing command".into()))?;
        if command.starts_with('-') {
            return Err(UsageError(format!("expected a command, got flag {command}")));
        }
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| UsageError(format!("expected --flag, got {tok}")))?;
            if key.is_empty() {
                return Err(UsageError("empty flag name".into()));
            }
            let value = it
                .next()
                .ok_or_else(|| UsageError(format!("flag --{key} needs a value")))?;
            if flags.insert(key.to_string(), value).is_some() {
                return Err(UsageError(format!("flag --{key} given twice")));
            }
        }
        Ok(Args {
            command,
            flags,
            consumed: std::cell::RefCell::new(Vec::new()),
        })
    }

    /// The command word.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Required string flag.
    pub fn required(&self, key: &str) -> Result<String, UsageError> {
        self.consumed.borrow_mut().push(key.to_string());
        self.flags
            .get(key)
            .cloned()
            .ok_or_else(|| UsageError(format!("missing required flag --{key}")))
    }

    /// Optional string flag with default.
    pub fn opt(&self, key: &str, default: &str) -> String {
        self.consumed.borrow_mut().push(key.to_string());
        self.flags.get(key).cloned().unwrap_or_else(|| default.into())
    }

    /// Optional parsed flag with default.
    pub fn opt_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, UsageError>
    where
        T::Err: std::fmt::Display,
    {
        self.consumed.borrow_mut().push(key.to_string());
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| UsageError(format!("bad value for --{key}: {e}"))),
        }
    }

    /// Rejects any flag that no accessor asked about (typo protection).
    pub fn finish(&self) -> Result<(), UsageError> {
        let consumed = self.consumed.borrow();
        for key in self.flags.keys() {
            if !consumed.iter().any(|c| c == key) {
                return Err(UsageError(format!("unknown flag --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, UsageError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_and_flags() {
        let a = parse(&["generate", "--n", "10", "--seed", "7"]).unwrap();
        assert_eq!(a.command(), "generate");
        assert_eq!(a.required("n").unwrap(), "10");
        assert_eq!(a.opt_parse::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.opt("kind", "uniform"), "uniform");
        a.finish().unwrap();
    }

    #[test]
    fn missing_and_malformed() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--n", "3"]).is_err());
        assert!(parse(&["cmd", "-n", "3"]).is_err());
        assert!(parse(&["cmd", "--n"]).is_err());
        assert!(parse(&["cmd", "--n", "1", "--n", "2"]).is_err());
        let a = parse(&["cmd", "--n", "x"]).unwrap();
        assert!(a.opt_parse::<usize>("n", 0).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_at_finish() {
        let a = parse(&["cmd", "--typo", "1"]).unwrap();
        let _ = a.opt("n", "5");
        assert!(a.finish().is_err());
    }
}
