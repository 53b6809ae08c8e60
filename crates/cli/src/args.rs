//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
///
/// Options live in a `BTreeMap` so error reporting (e.g. which unknown
/// option [`Args::expect_only`] names first) is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    opts: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Result<Args, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (testable).
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = items.into_iter().peekable();
        while let Some(item) = it.next() {
            if let Some(key) = item.strip_prefix("--") {
                // Support both `--key value` and `--key=value`.
                let (key, value) = match key.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => {
                        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                        (key.to_string(), v)
                    }
                };
                if args.opts.insert(key.clone(), value).is_some() {
                    return Err(format!("--{key} given twice"));
                }
            } else if args.command.is_none() {
                args.command = Some(item);
            } else {
                return Err(format!("unexpected argument '{item}'"));
            }
        }
        Ok(args)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// A parsed option with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    /// A duration option counted in units of `unit_ns` nanoseconds
    /// (`1_000` for a `-us` flag, `1_000_000` for an `-ms` one), with a
    /// default. Returns the value as given and in nanoseconds; a value
    /// whose nanoseconds overflow `u64` is an error.
    pub fn duration(&self, key: &str, default: u64, unit_ns: u64) -> Result<(u64, u64), String> {
        let v: u64 = self.num(key, default)?;
        let ns = v
            .checked_mul(unit_ns)
            .ok_or_else(|| format!("--{key}: {v} overflows the 64-bit nanosecond clock"))?;
        Ok((v, ns))
    }

    /// Rejects unknown options (catches typos).
    pub fn expect_only(&self, known: &[&str]) -> Result<(), String> {
        for k in self.opts.keys() {
            if !known.contains(&k.as_str()) {
                return Err(format!(
                    "unknown option --{k} (expected one of: {})",
                    known.join(", ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("design --switches 33 --rate 10.0").unwrap();
        assert_eq!(a.command.as_deref(), Some("design"));
        assert_eq!(a.num("switches", 0usize).unwrap(), 33);
        assert_eq!(a.num("rate", 0.0f64).unwrap(), 10.0);
        assert_eq!(a.num("absent", 7usize).unwrap(), 7);
    }

    #[test]
    fn equals_form_works() {
        let a = parse("plan --switches=9").unwrap();
        assert_eq!(a.num("switches", 0usize).unwrap(), 9);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse("design --switches").is_err());
    }

    #[test]
    fn duplicate_option_is_an_error() {
        assert!(parse("x --a 1 --a 2").is_err());
    }

    #[test]
    fn durations_convert_and_reject_overflow() {
        let a = parse("x --window-us 7 --horizon-ms 18446744073710").unwrap();
        assert_eq!(a.duration("window-us", 0, 1_000).unwrap(), (7, 7_000));
        assert_eq!(
            a.duration("absent-ms", 3, 1_000_000).unwrap(),
            (3, 3_000_000)
        );
        let err = a.duration("horizon-ms", 0, 1_000_000).unwrap_err();
        assert!(err.starts_with("--horizon-ms: "), "{err}");
    }

    #[test]
    fn unknown_option_detected() {
        let a = parse("design --swtches 33").unwrap();
        assert!(a.expect_only(&["switches"]).is_err());
    }

    #[test]
    fn stray_positional_is_an_error() {
        assert!(parse("design extra").is_err());
    }
}
