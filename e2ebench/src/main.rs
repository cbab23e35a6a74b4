//! `lvbench`: see the library documentation for usage and how to read
//! the results.

use std::path::Path;

use lowvolt_e2ebench::compare::{compare, load_bounds};
use lowvolt_e2ebench::jobs::{Scale, Workload};
use lowvolt_e2ebench::measure::Outcome;
use lowvolt_e2ebench::proc::Program;
use lowvolt_e2ebench::{metrics_json, result_line, run_workload, RUN_SECONDS};
use lowvolt_serve::json::Json;

/// Scratch space, spans and results stay under this directory of the
/// current working directory.
const WORK_ROOT: &str = ".bench_work";

struct Args(Vec<String>);

impl Args {
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) if i + 1 < self.0.len() => {
                let v = self.0.remove(i + 1);
                self.0.remove(i);
                Ok(Some(v))
            }
            Some(_) => Err(format!("{flag} needs a value")),
        }
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take(flag)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag}: not a number: `{v}`"))
            })
            .transpose()
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(()),
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn print_outcome(workload: Workload, outcome: &Outcome) {
    for m in &outcome.metrics {
        println!(
            "{:<16} {:<34} {:>16.4} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    if let Some(d) = &outcome.digest {
        println!("{:<16} {:<34} {d:>16}", workload.name(), "output_digest");
    }
    println!(
        "{:<16} {:<34} {:>16} of {} failed",
        workload.name(),
        "jobs",
        outcome.failed,
        outcome.attempted
    );
    for n in &outcome.notes {
        println!("{:<16} {n}", workload.name());
    }
    for f in &outcome.failures {
        println!("{:<16} failure: {f}", workload.name());
    }
}

fn seed(args: &mut Args) -> Result<u64, String> {
    args.number("--seed")?
        .ok_or_else(|| "--seed N is required".to_string())
}

fn run() -> Result<(), String> {
    let mut args = Args(std::env::args().skip(1).collect());
    let work_root = Path::new(WORK_ROOT);
    let scale = Scale::full();
    let sub = args.0.first().filter(|a| !a.starts_with("--")).cloned();
    if sub.is_some() {
        args.0.remove(0);
    }
    match sub.as_deref() {
        None => {
            let workload =
                Workload::parse(&args.take("--workload")?.ok_or("--workload W is required")?)?;
            let seed = seed(&mut args)?;
            let seconds: f64 = args.number("--seconds")?.ok_or("--seconds S is required")?;
            let traced = match args.take("--trace")?.as_deref() {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
            };
            args.finish()?;
            let program = Program::beside_self()?;
            let outcome =
                run_workload(&program, workload, seed, seconds, traced, &scale, work_root)?;
            println!("nproc {}", nproc());
            print_outcome(workload, &outcome);
            println!("{}", result_line(&outcome));
        }
        Some("run") => {
            let seed = seed(&mut args)?;
            let seconds = RUN_SECONDS as f64;
            let out = args.take("--out")?;
            args.finish()?;
            let program = Program::beside_self()?;
            println!("nproc {}  seed {seed}  seconds {seconds}", nproc());
            let mut rows = Vec::new();
            for w in Workload::ALL {
                let outcome = run_workload(&program, w, seed, seconds, false, &scale, work_root)?;
                print_outcome(w, &outcome);
                rows.push(Json::Obj(vec![
                    ("name".to_string(), Json::Str(w.name().to_string())),
                    ("correct".to_string(), Json::Bool(outcome.correct())),
                    ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
                    ("failed".to_string(), Json::Num(outcome.failed as f64)),
                    (
                        "output_digest".to_string(),
                        Json::Str(outcome.digest.clone().unwrap_or_default()),
                    ),
                    ("metrics".to_string(), metrics_json(&outcome)),
                ]));
            }
            let doc = Json::Obj(vec![
                ("seed".to_string(), Json::Num(seed as f64)),
                ("nproc".to_string(), Json::Num(nproc() as f64)),
                ("seconds".to_string(), Json::Num(seconds)),
                ("workloads".to_string(), Json::Arr(rows)),
            ]);
            if let Some(path) = out {
                std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
                println!("wrote {path}");
            }
        }
        Some("trace") => {
            let seed = seed(&mut args)?;
            args.finish()?;
            let program = Program::beside_self()?;
            println!("nproc {}  seed {seed}", nproc());
            for w in Workload::ALL {
                let outcome = run_workload(&program, w, seed, 0.0, true, &scale, work_root)?;
                print_outcome(w, &outcome);
                println!(
                    "{:<16} spans in {WORK_ROOT}/spans-{}-seed{seed}.json",
                    w.name(),
                    w.name()
                );
            }
        }
        Some("compare") => {
            let [a, b] = <[String; 2]>::try_from(std::mem::take(&mut args.0))
                .map_err(|_| "compare needs two results files".to_string())?;
            let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let bounds = load_bounds(&read("BENCHMARK.json")?)?;
            let (report, holds) = compare(&read(&a)?, &read(&b)?, &bounds)?;
            print!("{report}");
            if !holds {
                return Err("B does not hold up against A".to_string());
            }
        }
        Some(other) => {
            return Err(format!(
                "unknown subcommand `{other}` (run, trace, compare)"
            ))
        }
    }
    Ok(())
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("lvbench: error: {msg}");
        std::process::exit(1);
    }
}
