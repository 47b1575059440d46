//! Minimal command-line parsing for the experiment binaries.

/// Common experiment flags.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Dataset scale factor (1.0 = the default reproduction scale).
    pub scale: f64,
    /// Master seed override.
    pub seed: Option<u64>,
    /// Emit machine-readable CSV instead of the aligned table.
    pub csv: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: 1.0,
            seed: None,
            csv: false,
        }
    }
}

/// Parses `--scale <f64>`, `--seed <u64>` and `--csv` from an argument
/// iterator; unknown flags abort with a usage message.
///
/// # Panics
///
/// Exits the process (status 2) on malformed arguments.
#[must_use]
pub fn parse(mut it: impl Iterator<Item = String>, usage: &str) -> CommonArgs {
    let mut out = CommonArgs::default();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                out.scale = flag_value(&mut it, usage, "--scale", "a number");
                // `nan` and `inf` parse as `f64`; neither sizes a dataset.
                if !(out.scale.is_finite() && out.scale > 0.0) {
                    die(usage, "--scale must be a positive finite number");
                }
            }
            "--seed" => out.seed = Some(flag_value(&mut it, usage, "--seed", "an integer")),
            "--csv" => out.csv = true,
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => die(usage, &format!("unknown flag {other}")),
        }
    }
    out
}

/// Logical chunks per backup under `--quick` (the CI size) of the two
/// sized binaries, `tournament` and `fault_overhead`.
pub const QUICK_CHUNKS: usize = 60_000;

/// Parses the flags of the two sized binaries — `--quick` and
/// `--chunks <usize>` — into logical chunks per backup (1,000,000 when
/// neither is given); exits like [`parse`] on anything else.
#[must_use]
pub fn parse_chunks(mut it: impl Iterator<Item = String>, usage: &str) -> usize {
    let mut chunks = 1_000_000;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => chunks = QUICK_CHUNKS,
            "--chunks" => {
                chunks = flag_value(&mut it, usage, "--chunks", "a positive integer");
                if chunks == 0 {
                    die(usage, "--chunks must be a positive integer");
                }
            }
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => die(usage, &format!("unknown flag {other}")),
        }
    }
    chunks
}

/// The value following `flag`, parsed as `T`; a missing value or one that
/// does not parse exits through [`die`] ("`flag` must be `what`").
fn flag_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    usage: &str,
    flag: &str,
    what: &str,
) -> T {
    let v = it
        .next()
        .unwrap_or_else(|| die(usage, &format!("{flag} needs a value")));
    v.parse()
        .unwrap_or_else(|_| die(usage, &format!("{flag} must be {what}")))
}

/// Prints `msg` and `usage` to stderr and exits with status 2 (the
/// malformed-arguments exit of every binary in this crate).
fn die(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| (*s).to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn defaults() {
        let a = parse(args(&[]), "u");
        assert!((a.scale - 1.0).abs() < 1e-12);
        assert_eq!(a.seed, None);
        assert!(!a.csv);
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(args(&["--scale", "0.5", "--seed", "7", "--csv"]), "u");
        assert!((a.scale - 0.5).abs() < 1e-12);
        assert_eq!(a.seed, Some(7));
        assert!(a.csv);
    }

    #[test]
    fn chunks_flags() {
        assert_eq!(parse_chunks(args(&[]), "u"), 1_000_000);
        assert_eq!(parse_chunks(args(&["--quick"]), "u"), QUICK_CHUNKS);
        assert_eq!(parse_chunks(args(&["--chunks", "123"]), "u"), 123);
    }
}
