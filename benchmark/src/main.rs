//! `velox-benchmark`: runs one workload (or all four) from one process and
//! reports every metric by name and unit.
//!
//! ```text
//! velox-benchmark --workload <name|all> [--seed N] [--seconds S]
//!                 [--trace 0|1] [--smoke] [--out DIR] [--label L]
//!                 [--soak SECONDS]
//! ```
//!
//! The last line of stdout is one JSON object — `correct`, `attempted`,
//! `failed`, `metrics` — for the last workload run; the result file holds
//! everything. Exits non-zero when a correctness check fails or an
//! operation fails.

use std::path::PathBuf;
use std::process::ExitCode;

use velox_benchmark::contract::WORKLOADS;
use velox_benchmark::result::{write_file, Provenance};
use velox_benchmark::{rest_cluster, run_workload, RunArgs, DEFAULT_SEED};

struct Cli {
    workload: String,
    args: RunArgs,
    label: Option<String>,
    soak: Option<u64>,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        args: RunArgs {
            seed: DEFAULT_SEED,
            seconds: 25,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
        label: None,
        soak: None,
    };
    let mut argv = std::env::args().skip(1);
    let mut seconds_given = false;
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = value("a workload name")?,
            "--seed" => {
                cli.args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.args.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                cli.args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.args.smoke = true,
            "--out" => cli.args.out_dir = PathBuf::from(value("a directory")?),
            "--label" => cli.label = Some(value("a label")?),
            "--soak" => {
                cli.soak = Some(value("seconds")?.parse().map_err(|e| format!("--soak: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.args.smoke && !seconds_given {
        cli.args.seconds = 2;
    }
    if cli.args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if cli.workload != "all" && !WORKLOADS.iter().any(|w| w.name == cli.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {}; one of all, {}", cli.workload, names.join(", ")));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("velox-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cli.args.out_dir) {
        eprintln!("velox-benchmark: cannot create {}: {e}", cli.args.out_dir.display());
        return ExitCode::from(2);
    }
    let provenance = Provenance::collect(&cli.args.out_dir);
    println!(
        "# velox-benchmark  git {}  nproc {}  kernel {}  WAL filesystem {}",
        provenance.git_sha, provenance.nproc, provenance.kernel, provenance.wal_fs_type
    );

    let runs = match cli.soak {
        Some(seconds) => {
            let run = rest_cluster::soak(&cli.args, seconds);
            run.print();
            vec![run]
        }
        None => WORKLOADS
            .iter()
            .filter(|w| cli.workload == "all" || cli.workload == w.name)
            .map(|w| {
                println!("\n# {}: {}", w.name, w.why);
                let run =
                    run_workload(w.name, &cli.args).expect("workload table and dispatch agree");
                run.print();
                run
            })
            .collect(),
    };
    let label = cli.label.unwrap_or_else(|| {
        let what = if cli.soak.is_some() { "soak" } else { cli.workload.as_str() };
        format!("{what}-seed{}-trace{}", cli.args.seed, cli.args.trace as u8)
    });
    let path = cli.args.out_dir.join(format!("result-{label}.json"));
    match write_file(&path, &provenance, &runs) {
        Ok(()) => println!("\nresult file: {}", path.display()),
        Err(e) => {
            eprintln!("velox-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let last = runs.last().expect("at least one workload ran");
    println!("{}", last.driver_line());
    if runs.iter().all(|r| r.correct()) {
        ExitCode::SUCCESS
    } else {
        eprintln!("velox-benchmark: a correctness check or an operation failed");
        ExitCode::FAILURE
    }
}
