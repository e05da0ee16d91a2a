//! The command line of a bench binary, checked before it does any work.
//!
//! Each binary declares what it accepts in a [`Spec`]. An unknown flag, a
//! flag without its value, a surplus bare argument or a non-numeric number
//! stops the binary with one `error:` line that carries its usage, before
//! any run or file write: a typo such as `sweep --smok` must not start the
//! full sweep and overwrite its committed record.
//!
//! ```
//! use sidefp_bench::args::{parse, Kind, Spec};
//! const SPEC: Spec = Spec {
//!     usage: "table1 [seed] [--trace]",
//!     switches: &["--trace"],
//!     options: &[],
//!     positional: (1, Kind::Number),
//! };
//! let args = parse(&SPEC, ["7", "--trace"].map(String::from)).unwrap();
//! assert_eq!((args.numbers().next(), args.switch("--trace")), (Some(7), true));
//! assert!(parse(&SPEC, ["4x"].map(String::from)).is_err());
//! ```

/// What an argument's value must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A non-negative integer.
    Number,
    /// Any text, such as a path.
    Text,
}

/// Everything a binary accepts.
#[derive(Debug)]
pub struct Spec {
    /// The usage line printed with every error, starting with the binary's name.
    pub usage: &'static str,
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags followed by one value of the given kind.
    pub options: &'static [(&'static str, Kind)],
    /// How many bare arguments at most, and their kind.
    pub positional: (usize, Kind),
}

/// A command line that matched its [`Spec`].
#[derive(Debug)]
pub struct Args {
    switches: Vec<String>,
    options: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    /// The process's arguments. On a mismatch prints `error: <why>; usage:
    /// <usage>` and exits with status 2.
    pub fn from_env(spec: &Spec) -> Args {
        parse(spec, std::env::args().skip(1)).unwrap_or_else(|why| {
            eprintln!("error: {why}; usage: {}", spec.usage);
            std::process::exit(2);
        })
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of the option `name`, if given.
    pub fn text(&self, name: &str) -> Option<&str> {
        let found = self.options.iter().find(|(o, _)| o == name);
        found.map(|(_, v)| v.as_str())
    }

    /// The value of the numeric option `name`, if given.
    pub fn number(&self, name: &str) -> Option<u64> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    /// The bare arguments, in order.
    pub fn positional(&self) -> impl Iterator<Item = &str> {
        self.positional.iter().map(String::as_str)
    }

    /// The bare arguments of a numeric [`Spec::positional`], in order.
    pub fn numbers(&self) -> impl Iterator<Item = u64> + '_ {
        self.positional().filter_map(|v| v.parse().ok())
    }
}

fn check(kind: Kind, what: &str, value: &str) -> Result<(), String> {
    match kind {
        Kind::Number if value.parse::<u64>().is_err() => {
            Err(format!("{what} `{value}` is not a non-negative integer"))
        }
        _ => Ok(()),
    }
}

/// Matches `argv` (without the program name) against `spec`.
///
/// # Errors
///
/// Why the first argument that does not fit `spec` does not.
pub fn parse(spec: &Spec, argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        switches: Vec::new(),
        options: Vec::new(),
        positional: Vec::new(),
    };
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if spec.switches.contains(&arg.as_str()) {
            args.switches.push(arg);
        } else if let Some(&(name, kind)) = spec.options.iter().find(|(o, _)| *o == arg) {
            let value = argv
                .next()
                .ok_or_else(|| format!("`{name}` needs a value"))?;
            check(kind, &format!("`{name}` value"), &value)?;
            args.options.push((arg, value));
        } else if arg.starts_with('-') && arg.len() > 1 {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            let (max, kind) = spec.positional;
            if args.positional.len() == max {
                return Err(format!("unexpected argument `{arg}`"));
            }
            check(kind, "argument", &arg)?;
            args.positional.push(arg);
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        usage: "demo [seed] [--json] [--batches N] [--out PATH]",
        switches: &["--json"],
        options: &[("--batches", Kind::Number), ("--out", Kind::Text)],
        positional: (1, Kind::Number),
    };

    fn run(argv: &[&str]) -> Result<Args, String> {
        parse(&SPEC, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_what_the_spec_names() {
        let args = run(&["--batches", "20", "7", "--json", "--out", "x.md"]).unwrap();
        assert!(args.switch("--json"));
        assert_eq!(args.number("--batches"), Some(20));
        assert_eq!(args.text("--out"), Some("x.md"));
        assert_eq!(args.numbers().collect::<Vec<_>>(), [7]);
        let none = run(&[]).unwrap();
        assert!(!none.switch("--json"));
        assert_eq!(
            (none.number("--batches"), none.positional().next()),
            (None, None)
        );
    }

    #[test]
    fn unknown_flag_fails() {
        assert_eq!(run(&["--smok"]).unwrap_err(), "unknown flag `--smok`");
        assert_eq!(run(&["-j"]).unwrap_err(), "unknown flag `-j`");
    }

    #[test]
    fn bad_number_fails() {
        let err = run(&["4x"]).unwrap_err();
        assert_eq!(err, "argument `4x` is not a non-negative integer");
        let err = run(&["--batches", "x"]).unwrap_err();
        assert_eq!(err, "`--batches` value `x` is not a non-negative integer");
        assert!(run(&["-3"]).is_err());
    }

    #[test]
    fn missing_value_fails() {
        assert_eq!(
            run(&["--batches"]).unwrap_err(),
            "`--batches` needs a value"
        );
        assert_eq!(run(&["7", "--out"]).unwrap_err(), "`--out` needs a value");
    }

    #[test]
    fn surplus_argument_fails() {
        assert_eq!(run(&["1", "2"]).unwrap_err(), "unexpected argument `2`");
    }
}
