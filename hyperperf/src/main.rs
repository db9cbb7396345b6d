//! `hyperperf` — the repository's benchmark.
//!
//! ```text
//! hyperperf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! hyperperf run [--seed N] [--runs K] [--seconds S] [--trace] [--smoke] [--out FILE]
//! hyperperf compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! The first form is one run of one workload and is what
//! `BENCHMARK.json`'s command invokes: detail goes to stderr, and the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `run` drives that form in a child process per
//! run; `compare` judges two of its ledgers.

use std::path::PathBuf;
use std::process::ExitCode;

use hyperperf::json::{obj, parse, Value};
use hyperperf::measure::{self, Plan};
use hyperperf::runner::{run_all, RunArgs};
use hyperperf::workloads::{self, WORKLOADS};
use hyperperf::{compare, envinfo};

const USAGE: &str = "usage:
  hyperperf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  hyperperf run [--seed N] [--runs K] [--seconds S] [--trace] [--smoke] [--out FILE]
  hyperperf compare A.json B.json [--benchmark BENCHMARK.json]";

/// `--flag value` pairs and bare words, as given.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>, driver_form: bool) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        while let Some(a) = raw.next() {
            if !a.starts_with("--") {
                args.words.push(a);
            } else if a == "--smoke" || (a == "--trace" && !driver_form) {
                // Switches; the driver's form gives `--trace` a value.
                args.flags.push((a, None));
            } else {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a, Some(v)));
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, v)) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("bad value for {flag}")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

/// One run of one workload; prints the result line last on stdout.
fn one_run(args: &Args) -> Result<ExitCode, String> {
    args.known(&["--workload", "--seed", "--seconds", "--trace", "--smoke"])?;
    let name: String = args.value("--workload")?.ok_or("missing --workload")?;
    let def = workloads::find(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    let seed: u64 = args.value("--seed")?.ok_or("missing --seed")?;
    let seconds: f64 = args.value("--seconds")?.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match args.value::<u8>("--trace")?.ok_or("missing --trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if def.pin {
        if let Some(code) = envinfo::repin() {
            return Ok(ExitCode::from(code as u8));
        }
    }
    let plan = if args.has("--smoke") {
        Plan::SMOKE
    } else {
        Plan::FULL
    };
    let out = measure::run(def, seed, seconds, trace, &plan).map_err(|e| e.to_string())?;
    eprint!("{}", out.report);
    let metrics = obj(out.metrics.iter().map(|&(name, value, unit)| {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
        let m = obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.into())),
        ]);
        (name, m)
    }));
    let correct = out.tally.is_correct();
    eprintln!(
        "  failed_ops {} of attempted_ops {}",
        out.tally.failed, out.tally.attempted
    );
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(out.tally.attempted as f64)),
        ("failed", Value::Num(out.tally.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_cmd(args: &Args) -> Result<ExitCode, String> {
    args.known(&[
        "--seed",
        "--runs",
        "--seconds",
        "--trace",
        "--smoke",
        "--out",
    ])?;
    let run = RunArgs {
        seed: args.value("--seed")?.unwrap_or(workloads::DEFAULT_SEED),
        runs: args.value("--runs")?.unwrap_or(1),
        seconds: args
            .value("--seconds")?
            .unwrap_or(workloads::DEFAULT_SECONDS),
        trace: args.has("--trace"),
        smoke: args.has("--smoke"),
        out: args.value::<PathBuf>("--out")?,
    };
    Ok(if run_all(&run)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &Args) -> Result<ExitCode, String> {
    args.known(&["--benchmark"])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare takes two ledger files".into());
    };
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let benchmark = args
        .value::<String>("--benchmark")?
        .unwrap_or_else(|| "BENCHMARK.json".into());
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?, &load(&benchmark)?)?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let sub = raw.first().map(String::as_str);
    let driver_form = !matches!(sub, Some("run" | "compare"));
    let outcome = Args::parse(raw.iter().cloned(), driver_form).and_then(|args| match sub {
        Some("run") => run_cmd(&args),
        Some("compare") => compare_cmd(&args),
        Some(_) if args.words.is_empty() => one_run(&args),
        _ => Err("no command".into()),
    });
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
