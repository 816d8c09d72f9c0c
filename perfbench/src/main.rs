//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench write-expected WORKLOAD FILE    # regenerate committed digests
//! ```
//!
//! Prints a host/config fingerprint line, then one JSON result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics of `BENCHMARK.json` with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits non-zero, printing no
//! result, when it cannot measure.

mod batch;
mod gen;
mod http;
mod out;
mod serve;
mod stats;
mod traced;

use out::Outcome;

pub const WORKLOADS: [&str; 3] = ["exact-churn", "swap-sweep", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build facts every result carries: Auto's choices depend on
/// the CPU count, so a result without them cannot be compared.
fn host_fingerprint(out: &mut Outcome, args: &Args) {
    out.note("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("trace", args.trace);
    out.note(
        "nproc",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    out.note("threads", bbncg_par::max_threads());
    out.note("rustc", command_output("rustc", &["--version"]));
    out.note("git_commit", command_output("git", &["rev-parse", "HEAD"]));
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        // The server child of `serve-mixed`: exactly `bbncg serve`.
        Some(serve::CHILD_MODE) => {
            let mut args = vec!["serve".to_string()];
            args.extend(raw[1..].iter().cloned());
            match bbncg_cli::dispatch(&args) {
                Ok(s) => print!("{s}"),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
            return;
        }
        Some("write-expected") => {
            let (Some(w), Some(path)) = (raw.get(1), raw.get(2)) else {
                eprintln!("usage: perfbench write-expected WORKLOAD FILE");
                std::process::exit(2);
            };
            if let Err(e) = batch::write_expected(w, path) {
                eprintln!("{e}");
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let load_start = stats::loadavg();
    let steal = stats::StealMeter::start();
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("serve-mixed", false) => serve::run(args.seed, args.seconds),
        ("serve-mixed", true) => traced::run_serve(args.seed, args.seconds),
        (w, false) => batch::run(w, args.seed, args.seconds),
        (w, true) => traced::run_batch(w, args.seed, args.seconds),
    };
    host_fingerprint(&mut outcome, &args);
    outcome.note("loadavg_start", load_start);
    outcome.note("loadavg_end", stats::loadavg());
    outcome.note("cpu_steal_share", format!("{:.4}", steal.share()));
    let catalogue = if args.trace {
        out::PER_LAYER
    } else {
        out::END_TO_END
    };
    match outcome.result_line(catalogue) {
        Ok(line) => {
            println!("{}", outcome.fingerprint_line());
            println!("{line}");
        }
        Err(e) => {
            eprintln!("{}", outcome.fingerprint_line());
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
