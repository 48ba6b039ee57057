//! `repro` — regenerates every table and figure of the paper's
//! evaluation as a thin driver over the `rpu_core::experiments`
//! registry.
//!
//! ```text
//! repro                       # run everything, aligned text to stdout
//! repro fig1 fig9             # run selected targets
//! repro --jobs 8              # experiments AND grid points in parallel
//! repro --format json         # one JSON array of experiment objects
//! repro --format csv          # #-titled CSV blocks
//! repro --out results/        # one file per target instead of stdout
//! repro --list                # list available targets
//! ```
//!
//! Output is deterministic at every `--jobs` count: the engine
//! index-stamps grid results, so `--jobs 8` emits bytes identical to
//! `--jobs 1` (pinned by the goldens under `tests/golden/repro/`).

use rpu_core::engine::Engine;
use rpu_core::experiments::{self as exp, Experiment, Format};
use std::process::ExitCode;

struct Options {
    jobs: usize,
    format: Format,
    out: Option<std::path::PathBuf>,
    targets: Vec<&'static dyn Experiment>,
}

fn usage() {
    println!(
        "usage: repro [--list] [--jobs N] [--format text|json|csv] [--out DIR] [target ...]\n"
    );
    println!("Regenerates the paper's tables and figures. With no targets,");
    println!("runs every target in order. --jobs runs experiments and their");
    println!("grid points in parallel without changing a byte of output;");
    println!("--out writes one file per target instead of stdout.");
}

fn parse(args: &[String]) -> Result<Option<Options>, String> {
    let mut jobs = 1usize;
    let mut format = Format::Text;
    let mut out = None;
    let mut targets = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" | "-l" => {
                for t in exp::registry() {
                    println!("{:14} {}", t.name(), t.about());
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                usage();
                return Ok(None);
            }
            // Hidden: per-subsystem hot-path counters (route calls,
            // routing-index updates) from one probe run per built-in
            // router. CI checks the output has one line per router and
            // no `route_calls=0`.
            "--counters" => {
                print!("{}", exp::fleet_scale::counters_report());
                return Ok(None);
            }
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v
                    .parse()
                    .map_err(|_| format!("bad --jobs value `{v}` (want a positive integer)"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--format" | "-f" => {
                let v = it.next().ok_or("--format needs a value")?;
                format = v.parse()?;
            }
            "--out" | "-o" => {
                let v = it.next().ok_or("--out needs a directory")?;
                out = Some(std::path::PathBuf::from(v));
            }
            name => {
                let t = exp::find(name).ok_or(format!("unknown target `{name}` (try --list)"))?;
                targets.push(t);
            }
        }
    }
    if targets.is_empty() {
        targets = exp::registry();
    }
    Ok(Some(Options {
        jobs,
        format,
        out,
        targets,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // The job budget is split across the two levels so the worker
    // count never exceeds --jobs: the outer engine fans experiments
    // out, and each experiment's inner engine gets the remaining budget
    // (all of it when a single target is selected). Rendering happens
    // after the runs, in registry order, so parallelism never reorders
    // output — and the output bytes are engine-independent anyway.
    let outer = Engine::new(opts.jobs.min(opts.targets.len()));
    let inner = Engine::new(opts.jobs / outer.jobs().max(1));
    let rendered = outer.par_map(&opts.targets, |_, t| {
        exp::render(*t, &t.run(&inner), opts.format)
    });

    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for (t, body) in opts.targets.iter().zip(&rendered) {
            let path = dir.join(format!("{}.{}", t.name(), opts.format.extension()));
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "wrote {} target{} to {}",
            rendered.len(),
            if rendered.len() == 1 { "" } else { "s" },
            dir.display()
        );
        return ExitCode::SUCCESS;
    }

    match opts.format {
        Format::Text | Format::Csv => {
            for body in &rendered {
                print!("{body}");
            }
        }
        // One valid JSON document per invocation: an array of
        // experiment objects.
        Format::Json => {
            println!("[{}]", rendered.join(","));
        }
    }
    ExitCode::SUCCESS
}
