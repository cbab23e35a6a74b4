//! Minimal dependency-free argument parsing: `--key value` flags and
//! positional arguments, collected into a lookup structure the command
//! implementations consume.

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` options (`--flag` with no value stores an empty string).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed {
    /// The subcommand name (first non-flag argument).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` and bare `--flag` options.
    pub options: HashMap<String, String>,
}

impl Parsed {
    /// Looks an option up.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a bare flag (or any value) was supplied.
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Parses an option as a finite `f64`, the numbers the daemon's
    /// JSON decoder accepts: `inf`, `nan` and overflowing values such
    /// as `1e400` are rejected.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag if the value is missing, not a
    /// number, or not finite.
    pub fn get_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.parse::<f64>() {
                Ok(n) if n.is_finite() => Ok(Some(n)),
                Ok(_) => Err(format!("--{key} expects a finite number, got `{v}`")),
                Err(_) => Err(format!("--{key} expects a number, got `{v}`")),
            },
        }
    }

    /// Parses an option as `u64`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag if the value is missing or not an
    /// integer.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} expects an integer, got `{v}`")),
        }
    }

    /// The worker-thread count from `--threads N`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag if the value is not an integer.
    pub fn threads(&self) -> Result<Option<usize>, String> {
        Ok(self.get_u64("threads")?.map(|n| n as usize))
    }
}

/// Parses raw arguments (without the program name).
///
/// A `--key` consumes the next argument as its value unless that argument
/// is itself a flag, in which case `--key` is a bare flag.
#[must_use]
pub fn parse(args: &[String]) -> Parsed {
    let mut parsed = Parsed::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(key) = arg.strip_prefix("--") {
            let value = match args.get(i + 1) {
                Some(next) if !next.starts_with("--") => {
                    i += 1;
                    next.clone()
                }
                _ => String::new(),
            };
            parsed.options.insert(key.to_string(), value);
        } else if parsed.command.is_empty() {
            parsed.command = arg.clone();
        } else {
            parsed.positional.push(arg.clone());
        }
        i += 1;
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Parsed {
        parse(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn subcommand_and_options() {
        let p = parse_strs(&["profile", "--example", "idea", "--budget", "100"]);
        assert_eq!(p.command, "profile");
        assert_eq!(p.get("example"), Some("idea"));
        assert_eq!(p.get_u64("budget").unwrap(), Some(100));
        assert!(p.positional.is_empty());
    }

    #[test]
    fn bare_flags_and_positionals() {
        let p = parse_strs(&["profile", "prog.s", "--blocks", "--hysteresis", "12"]);
        assert_eq!(p.positional, vec!["prog.s"]);
        assert!(p.has("blocks"));
        assert_eq!(p.get("blocks"), Some(""));
        assert_eq!(p.get_u64("hysteresis").unwrap(), Some(12));
    }

    #[test]
    fn adjacent_flags_do_not_consume_each_other() {
        let p = parse_strs(&["x", "--a", "--b", "v"]);
        assert_eq!(p.get("a"), Some(""));
        assert_eq!(p.get("b"), Some("v"));
    }

    #[test]
    fn numeric_errors_name_the_flag() {
        let p = parse_strs(&["x", "--vt", "abc"]);
        let err = p.get_f64("vt").unwrap_err();
        assert!(err.contains("--vt"));
        assert!(err.contains("abc"));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for v in ["inf", "-inf", "Infinity", "nan", "NaN", "1e400", "-1e400"] {
            let p = parse_strs(&["x", "--vdd", v]);
            let err = p.get_f64("vdd").unwrap_err();
            assert_eq!(err, format!("--vdd expects a finite number, got `{v}`"));
        }
        let p = parse_strs(&["x", "--vdd", "1e-400"]);
        assert_eq!(p.get_f64("vdd").unwrap(), Some(0.0), "underflow is finite");
    }

    #[test]
    fn missing_options_are_none() {
        let p = parse_strs(&["x"]);
        assert_eq!(p.get_f64("vt").unwrap(), None);
        assert!(!p.has("anything"));
    }
}
