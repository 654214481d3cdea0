//! Command-line arguments shared by `bench` and `bench_trace`.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// One workload (positional or `--workload`); `None` runs all five.
    pub workload: Option<String>,
    /// Seed base: a repetition runs seeds `seed..seed + k`.
    pub seed: u64,
    /// Wall-clock budget of the repetitions of one run.
    pub seconds: f64,
    /// `--trace 0|1`, when given: `bench` accepts 0, `bench_trace` 1.
    pub trace: Option<bool>,
    /// One seed, one repetition: a quick check of every code path.
    pub smoke: bool,
    /// Run the whole end-to-end pass twice and compare within bounds.
    pub check: bool,
    /// Exactly this many repetitions instead of the `seconds` budget.
    pub reps: Option<usize>,
    /// Print `BENCHMARK.json` and exit.
    pub manifest: bool,
    /// Internal: run the calibration kernel once, print its CPU seconds.
    pub calibrate: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: bench|bench_trace [<workload> | --workload <name>] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--reps R] [--check] [--manifest]\n\
workloads: flat128 sparse1024 churn16 log_steady log_failover (default: all five, one process each)";

/// Parses `args` (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        check: false,
        reps: None,
        manifest: false,
        calibrate: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => out.seed = number(&value("a number")?)?,
            "--seconds" => {
                out.seconds = number(&value("a number")?)?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(format!(
                        "--seconds {} is out of range (0, 600]",
                        out.seconds
                    ));
                }
            }
            "--trace" => {
                out.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--reps" => {
                let reps: usize = number(&value("a number")?)?;
                if !(1..=64).contains(&reps) {
                    return Err(format!("--reps {reps} is out of range 1..=64"));
                }
                out.reps = Some(reps);
            }
            "--smoke" => out.smoke = true,
            "--check" => out.check = true,
            "--manifest" => out.manifest = true,
            "--calibrate" => out.calibrate = true,
            name if !name.starts_with('-') && out.workload.is_none() => {
                out.workload = Some(name.to_string())
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{text:?} is not a valid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_form_and_positional_form_agree() {
        let a = parse_str("--workload churn16 --seed 7 --seconds 3 --trace 0").unwrap();
        let b = parse_str("churn16 --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!(a, b);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, Some(false)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_str("--seed").is_err());
        assert!(parse_str("--seed x").is_err());
        assert!(parse_str("--trace 2").is_err());
        assert!(parse_str("--seconds 0").is_err());
        assert!(parse_str("--reps 0").is_err());
        assert!(parse_str("a b").is_err());
        assert!(parse_str("--bogus").is_err());
    }
}
