//! The benchmark's command line:
//!
//! ```text
//! ftbb-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --noded <path to ftbb-noded> [--out <dir>]
//! ```
//!
//! Prints a human-readable report, writes it with its provenance to
//! `<out>/<workload>-seed<n>-trace<t>.json` (spans beside it), and ends
//! standard output with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics`. Exits 0 when every solve passed its check, 1 when one
//! did not, 2 on a usage error.

use ftbb_e2ebench::layers::{measure_des_traced, measure_real_traced};
use ftbb_e2ebench::output::{correct, git_commit, report, result_file, result_line};
use ftbb_e2ebench::spans::Spans;
use ftbb_e2ebench::workloads::{absolute, all, by_name, measure_des, measure_real, Ctx, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    noded: PathBuf,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = all().iter().map(|w| w.name()).collect();
    format!(
        "usage: ftbb-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --noded <path> [--out <dir>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut noded = None;
    let mut out = PathBuf::from("e2ebench/results");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(by_name(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--noded" => noded = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let noded = noded.ok_or("--noded is required")?;
    if !noded.is_file() {
        return Err(format!("no ftbb-noded binary at {}", noded.display()));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        noded: absolute(&noded),
        out: absolute(&out),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftbb-e2ebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("ftbb-e2ebench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let command = std::env::var("E2EBENCH_COMMAND").unwrap_or_else(|_| argv.join(" "));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let name = args.workload.name();
    let provenance: Vec<(String, String)> = vec![
        ("workload".into(), name.into()),
        ("workload seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), nproc.to_string()),
        (
            "git commit".into(),
            git_commit(&std::env::current_dir().unwrap_or_default()),
        ),
        ("command".into(), command),
        (
            "build".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ];
    let mut ctx = Ctx {
        noded: args.noded,
        out_dir: args.out.clone(),
        seed: args.seed,
        seconds: args.seconds,
        spans: Spans::new(),
    };
    let outcome = match (&args.workload, args.trace) {
        (Workload::Real(w), false) => measure_real(w, &mut ctx),
        (Workload::Real(w), true) => measure_real_traced(w, &mut ctx),
        (Workload::Des(w), false) => measure_des(w, &mut ctx),
        (Workload::Des(w), true) => measure_des_traced(w, &mut ctx),
    };

    let mut text = report(&outcome, &provenance, args.trace);
    text.push_str("spans (count, total s, self s):\n");
    for (span, count, total_us, self_us) in ctx.spans.totals() {
        text.push_str(&format!(
            "  {span:<24} {count:>5} {:>9.3} {:>9.3}\n",
            total_us / 1e6,
            self_us / 1e6
        ));
    }
    print!("{text}");
    let stem = format!("{name}-seed{}-trace{}", args.seed, args.trace as u8);
    let writes = [
        (
            format!("{stem}.json"),
            result_file(&outcome, &provenance, args.trace),
        ),
        (format!("{stem}.spans.json"), ctx.spans.to_json()),
    ];
    for (file, body) in writes {
        let path = args.out.join(file);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("ftbb-e2ebench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", result_line(&outcome, args.trace));
    if correct(&outcome, args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
