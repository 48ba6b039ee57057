//! Whole-run benchmark of the `rpu-serve` fleet simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide_rr --seed 0 --seconds 20 --trace 0
//! ```
//!
//! The parent process re-executes this binary once per measured run
//! (`--child`), so every run starts in a fresh single-threaded process
//! with its own peak-RSS counter, until `--seconds` of host time have
//! passed. It then checks the runs agree, prints one summary line per
//! run, and prints one JSON object on the last line of standard output.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of the traced run. See README.md.

mod procfs;
mod run;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use run::{fast_end, Counts, Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Kind, Spec};

/// Measured runs per invocation, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    spec: Spec,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut requests = None;
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            "--requests" => {
                let n = value.parse::<u32>().map_err(|e| bad(&e))?;
                if n < 4 {
                    return Err("--requests must be at least 4".into());
                }
                requests = Some(n);
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let kind = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        spec: Spec::new(kind, seed.unwrap_or(workloads::DEFAULT_SEED), requests),
        seconds,
        trace: trace.unwrap_or(false),
        child,
    })
}

/// One measured run, in the child: prints the outcome as plain lines.
fn child(args: &Args) {
    let out = if args.trace {
        run::layers(&args.spec)
    } else {
        run::end_to_end(&args.spec)
    };
    print!("{}", render_outcome(&out));
}

/// The child-to-parent protocol: one `counts`, one `digest` and one
/// `setups` line (every set-up timing), then one `metric` line per
/// metric.
fn render_outcome(out: &Outcome) -> String {
    let c = out.counts;
    let mut text = format!(
        "counts {} {} {}\ndigest {:016x}\nsetups",
        c.attempted, c.completed, c.rejected, out.digest.0
    );
    for s in &out.setups {
        text.push_str(&format!(" {s:?}"));
    }
    text.push('\n');
    for (name, value) in &out.metrics {
        text.push_str(&format!("metric {name} {value:?}\n"));
    }
    text
}

/// Parses a child's standard output back into an [`Outcome`].
fn parse_outcome(text: &str) -> Option<Outcome> {
    let mut counts = None;
    let mut digest = None;
    let mut setups = None;
    let mut metrics = Vec::new();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        match words.next()? {
            "counts" => {
                let mut n = || words.next()?.parse::<u64>().ok();
                counts = Some(Counts {
                    attempted: n()?,
                    completed: n()?,
                    rejected: n()?,
                });
            }
            "digest" => {
                digest = Some(rpu_serve::ReportDigest(
                    u64::from_str_radix(words.next()?, 16).ok()?,
                ));
            }
            "setups" => {
                setups = Some(
                    words
                        .map(|w| w.parse::<f64>().ok())
                        .collect::<Option<_>>()?,
                );
            }
            "metric" => {
                let name = words.next()?;
                let known = END_TO_END.iter().chain(&PER_LAYER).find(|m| m.0 == name)?;
                metrics.push((known.0, words.next()?.parse::<f64>().ok()?));
            }
            _ => return None,
        }
    }
    Some(Outcome {
        counts: counts?,
        digest: digest?,
        metrics,
        setups: setups?,
    })
}

/// Runs one child process to completion and reads its outcome; `None`
/// when it failed (a panic, a lost request, a digest mismatch).
fn spawn_child(args: &Args) -> Option<Outcome> {
    let exe = std::env::current_exe().expect("locate this executable");
    let output = Command::new(exe)
        .args([
            "--child",
            "--workload",
            args.spec.kind.name(),
            "--seed",
            &args.spec.seed.to_string(),
            "--requests",
            &args.spec.requests.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .output()
        .expect("spawn a measured run");
    if !output.status.success() {
        eprintln!(
            "run failed ({}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        return None;
    }
    parse_outcome(&String::from_utf8_lossy(&output.stdout))
}

/// The result line: `correct`, `attempted`, `failed` and one value per
/// metric of the mode.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn parent(args: &Args) {
    let start = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut runs = 0;
    while runs < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        runs += 1;
        attempted += u64::from(args.spec.requests);
        match spawn_child(args) {
            Some(out) => {
                let c = out.counts;
                println!(
                    "run {runs}: {} seed {} digest {:016x}: attempted {} completed {} rejected {}",
                    args.spec.kind.name(),
                    args.spec.seed,
                    out.digest.0,
                    c.attempted,
                    c.completed,
                    c.rejected
                );
                outcomes.push(out);
            }
            None => {
                println!(
                    "run {runs}: {} seed {} FAILED",
                    args.spec.kind.name(),
                    args.spec.seed
                );
                failed += u64::from(args.spec.requests);
            }
        }
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = failed == 0 && !outcomes.is_empty();
    // Every run simulates the same inputs, so every run must produce the
    // same report, and the simulated metrics must repeat exactly.
    if let Some(first) = outcomes.first() {
        for out in &outcomes[1..] {
            let same_sim = out
                .metrics
                .iter()
                .zip(&first.metrics)
                .all(|(a, b)| !a.0.starts_with("sim_") || a.1.to_bits() == b.1.to_bits());
            if out.digest != first.digest || !same_sim {
                eprintln!("runs of the same seed disagree");
                correct = false;
            }
        }
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for out in &outcomes {
        for &(name, value) in &out.metrics {
            by_name.entry(name).or_default().push(value);
        }
    }
    // The two host-time figures of an untraced invocation come from the
    // fast end of many short timings: every set-up of every run, pooled,
    // and the whole-run rate of every run. Everything else is a median.
    let setups: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.setups.iter().copied())
        .collect();
    if !args.trace && !setups.is_empty() {
        by_name.insert("setup_s", setups);
    }
    let metrics: Vec<(&str, &str, f64)> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = by_name.remove(name).map_or(0.0, |mut xs| match name {
                "setup_s" => fast_end(&mut xs, true),
                "requests_per_s" => fast_end(&mut xs, false),
                _ => run::median(&mut xs),
            });
            if !value.is_finite() {
                eprintln!("metric {name} is not finite");
                correct = false;
            }
            (name, unit, if value.is_finite() { value } else { 0.0 })
        })
        .collect();
    if outcomes.iter().any(|o| o.metrics.len() != wanted.len()) {
        eprintln!("a run reported the wrong metric set");
        correct = false;
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args);
        return ExitCode::SUCCESS;
    }
    parent(&args);
    ExitCode::SUCCESS
}
