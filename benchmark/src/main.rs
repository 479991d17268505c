//! `rock-benchmark`: the repository's end-to-end and per-layer benchmark.
//! Built and started by `benchmark/run.sh`; see `benchmark/README.md`.
//!
//! ```text
//! rock-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rock-benchmark all [--seed <n>] [--seconds <s>] [--runs <n>] [--out <file>]
//! rock-benchmark compare <results-a> <results-b>
//! rock-benchmark manifest
//! ```

mod compare;
mod json;
mod layers;
mod metrics;
mod pipeline;
mod run;
mod stats;
mod stream;
mod trace;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last stdout line is the result
  run.sh all [--seed <n>] [--seconds <s>] [--runs <n>] [--out <file>] every workload, untraced then traced
  run.sh compare <results-a> <results-b>                            two `all --out` files, row by row
  run.sh manifest                                                   print BENCHMARK.json
  run.sh test                                                       the harness's and stand-ins' unit tests";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: {v:?} is not a number")),
            None => Ok(default),
        }
    }

    fn run_args(&self, workload: String) -> Result<run::Args, String> {
        let trace = match self.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: {other:?} is not 0 or 1")),
        };
        let seconds: f64 = self.num("seconds", metrics::RUN_SECONDS as f64)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds: {seconds} is not in (0, 600]"));
        }
        Ok(run::Args {
            workload,
            seed: self.num("seed", 42)?,
            seconds,
            trace,
            compat_fixes: self.num("compat-fixes", 0)?,
            out_dir: PathBuf::from(self.get("out-dir").unwrap_or("rock-benchmark-results")),
        })
    }
}

/// One run in this process. Prints the metrics by name, then the result
/// line.
fn one_run(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags
        .get("workload")
        .ok_or("--workload is required")?
        .to_owned();
    let args = flags.run_args(workload)?;
    let outcome = run::run(&args)?;
    for why in &outcome.failures {
        println!("failed: {why}");
    }
    let result = outcome.to_json(args.trace);
    for (name, m) in result.get("metrics").map(Json::fields).unwrap_or_default() {
        println!(
            "{name} = {} {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    println!("{}", result.to_line());
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each run in a process of its own (so that `peak_rss_mb`
/// is the workload's and not the largest so far), untraced then traced,
/// for `--runs` consecutive seeds.
fn all(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.num("seed", 42)?;
    let runs: u64 = flags.num("runs", 1)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lines = String::new();
    let mut all_correct = true;
    for w in metrics::WORKLOADS {
        for seed in seed..seed + runs {
            for trace in ["0", "1"] {
                let mut cmd = Command::new(&exe);
                cmd.args([
                    "--workload",
                    w.name,
                    "--seed",
                    &seed.to_string(),
                    "--trace",
                    trace,
                ]);
                for pass in ["seconds", "compat-fixes", "out-dir"] {
                    if let Some(v) = flags.get(pass) {
                        cmd.args([format!("--{pass}"), v.to_owned()]);
                    }
                }
                println!("== {} seed {seed} trace {trace}", w.name);
                let out = cmd.output().map_err(|e| e.to_string())?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let (report, result) = stdout
                    .trim_end()
                    .rsplit_once('\n')
                    .unwrap_or(("", stdout.trim_end()));
                println!("{report}");
                let parsed = Json::parse(result).ok().filter(|_| out.status.success());
                let Some(parsed) = parsed else {
                    eprintln!("{}", String::from_utf8_lossy(&out.stderr));
                    return Err(format!(
                        "{} seed {seed} trace {trace} gave no result",
                        w.name
                    ));
                };
                let correct = parsed.get("correct").and_then(Json::as_bool) == Some(true);
                println!(
                    "correct = {correct}, attempted = {}, failed = {}",
                    parsed
                        .get("attempted")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN),
                    parsed
                        .get("failed")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN),
                );
                all_correct &= correct;
                lines += &Json::obj([
                    ("workload", Json::str(w.name)),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Num(if trace == "1" { 1.0 } else { 0.0 })),
                    ("result", parsed),
                ])
                .to_line();
                lines.push('\n');
            }
        }
    }
    if let Some(path) = flags.get("out") {
        std::fs::write(path, lines).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| -> Result<Vec<Json>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        compare::parse_set(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, any_worse) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("all") => Flags::parse(&args[1..]).and_then(|f| all(&f)),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("manifest") => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).and_then(|f| one_run(&f)),
        _ => Err(USAGE.to_owned()),
    };
    done.unwrap_or_else(|why| {
        eprintln!("rock-benchmark: {why}");
        ExitCode::from(2)
    })
}
