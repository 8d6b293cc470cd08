//! Command-line arguments: `--workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`, all four required, each exactly once.

use std::fmt;

/// The four workloads, in the order a traced run visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The full 5,040-point design-space grid.
    Dse,
    /// The paper's figures and tables plus the platform x network grid.
    Paper,
    /// The fault-free online serving block.
    ServeSteady,
    /// The fault and control-plane serving blocks.
    ServeChaos,
}

impl Workload {
    /// Every workload, in traced-run order.
    pub const ALL: [Workload; 4] = [
        Workload::Dse,
        Workload::Paper,
        Workload::ServeSteady,
        Workload::ServeChaos,
    ];

    /// The name used on the command line and in metric names.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Dse => "dse",
            Workload::Paper => "paper",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeChaos => "serve_chaos",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed, validated arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Workload to measure (a traced run visits all four).
    pub workload: Workload,
    /// Input seed (the serve trace's; `dse` and `paper` record it unused).
    pub seed: u64,
    /// Seconds the timed loop runs.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Why the arguments were rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Longest timed loop accepted, so a typo cannot hold a run for hours.
const MAX_SECONDS: u64 = 600;

/// Parses the arguments that follow the program name.
///
/// # Errors
///
/// A missing, repeated, unknown or malformed argument.
pub fn parse(args: &[String]) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| ArgError(format!("{flag} needs a value")))?;
        let repeated = match flag.as_str() {
            "--workload" => workload
                .replace(Workload::parse(value).ok_or_else(|| {
                    ArgError(format!(
                        "unknown workload {value:?} (expected one of: {})",
                        Workload::ALL.map(Workload::name).join(", ")
                    ))
                })?)
                .is_some(),
            "--seed" => seed.replace(number(flag, value)?).is_some(),
            "--seconds" => {
                let secs = number(flag, value)?;
                if !(1..=MAX_SECONDS).contains(&secs) {
                    return Err(ArgError(format!(
                        "--seconds must be 1..={MAX_SECONDS}, got {secs}"
                    )));
                }
                seconds.replace(secs).is_some()
            }
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ArgError(format!("--trace must be 0 or 1, got {value:?}"))),
                })
                .is_some(),
            _ => return Err(ArgError(format!("unknown argument {flag:?}"))),
        };
        if repeated {
            return Err(ArgError(format!("{flag} given twice")));
        }
    }
    let missing = |name: &str| ArgError(format!("missing {name}"));
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn number(flag: &str, value: &str) -> Result<u64, ArgError> {
    value.parse().map_err(|_| {
        ArgError(format!(
            "{flag} needs a non-negative integer, got {value:?}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, ArgError> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&args)
    }

    #[test]
    fn parses_every_workload_in_any_order() {
        for w in Workload::ALL {
            let args = parse_str(&format!(
                "--trace 1 --seconds 10 --seed 42 --workload {}",
                w.name()
            ))
            .expect("valid arguments");
            assert_eq!(
                args,
                Args {
                    workload: w,
                    seed: 42,
                    seconds: 10,
                    trace: true
                }
            );
        }
    }

    #[test]
    fn seed_takes_the_full_u64_range() {
        let args = parse_str("--workload dse --seed 18446744073709551615 --seconds 1 --trace 0")
            .expect("u64::MAX is a valid seed");
        assert_eq!(args.seed, u64::MAX);
        assert!(!args.trace);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "--workload dse --seed 1 --seconds 10",
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload dse --seed -1 --seconds 10 --trace 0",
            "--workload dse --seed 0x10 --seconds 10 --trace 0",
            "--workload dse --seed 1 --seconds 0 --trace 0",
            "--workload dse --seed 1 --seconds 601 --trace 0",
            "--workload dse --seed 1 --seconds 10 --trace 2",
            "--workload dse --seed 1 --seconds 10 --trace 0 --seed 2",
            "--workload dse --seed 1 --seconds 10 --trace 0 --extra 1",
            "--workload dse --seed 1 --seconds 10 --trace",
        ] {
            assert!(parse_str(bad).is_err(), "accepted {bad:?}");
        }
    }
}
