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
//! repro --resume run.ck       # checkpoint to / resume from run.ck
//! repro --resume run.ck --checkpoint-every 2   # persist every 2 targets
//! repro --resume run.ck --halt-after 3         # stop after 3 new targets
//! repro --list                # list available targets
//! ```
//!
//! Output is deterministic at every `--jobs` count: the engine
//! index-stamps grid results, so `--jobs 8` emits bytes identical to
//! `--jobs 1` (pinned by the goldens under `tests/golden/repro/`).
//! Checkpointed runs share the guarantee: interrupting a run
//! (`--halt-after`), then resuming it from the same `--resume` file,
//! emits bytes identical to the uninterrupted run.

use rpu_core::engine::Engine;
use rpu_core::experiments::checkpoint::{self, RunCheckpoint};
use rpu_core::experiments::{self as exp, Experiment, Format};
use std::process::ExitCode;

struct Options {
    jobs: usize,
    format: Format,
    out: Option<std::path::PathBuf>,
    resume: Option<std::path::PathBuf>,
    checkpoint_every: Option<usize>,
    halt_after: Option<usize>,
    targets: Vec<&'static dyn Experiment>,
}

fn usage() {
    println!(
        "usage: repro [--list] [--jobs N] [--format text|json|csv] [--out DIR]\n             [--resume FILE [--checkpoint-every N] [--halt-after K]] [target ...]\n"
    );
    println!("Regenerates the paper's tables and figures. With no targets,");
    println!("runs every target in order. --jobs runs experiments and their");
    println!("grid points in parallel without changing a byte of output;");
    println!("--out writes one file per target instead of stdout.");
    println!("--resume checkpoints completed targets to FILE and skips them");
    println!("on the next invocation; --checkpoint-every persists FILE every");
    println!("N freshly completed targets, --halt-after stops (successfully)");
    println!("after K fresh targets so the run can be finished later.");
}

fn parse(args: &[String]) -> Result<Option<Options>, String> {
    let mut jobs = 1usize;
    let mut format = Format::Text;
    let mut out = None;
    let mut resume = None;
    let mut checkpoint_every = None;
    let mut halt_after = None;
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
            "--resume" => {
                let v = it.next().ok_or("--resume needs a file")?;
                resume = Some(std::path::PathBuf::from(v));
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs a value")?;
                let n: usize = v.parse().map_err(|_| {
                    format!("bad --checkpoint-every value `{v}` (want a positive integer)")
                })?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                checkpoint_every = Some(n);
            }
            "--halt-after" => {
                let v = it.next().ok_or("--halt-after needs a value")?;
                let n: usize = v.parse().map_err(|_| {
                    format!("bad --halt-after value `{v}` (want a positive integer)")
                })?;
                if n == 0 {
                    return Err("--halt-after must be at least 1".into());
                }
                halt_after = Some(n);
            }
            name => {
                let t = exp::find(name).ok_or(format!("unknown target `{name}` (try --list)"))?;
                targets.push(t);
            }
        }
    }
    if resume.is_none() && (checkpoint_every.is_some() || halt_after.is_some()) {
        return Err("--checkpoint-every/--halt-after need --resume FILE to persist to".into());
    }
    if targets.is_empty() {
        targets = exp::registry();
    }
    Ok(Some(Options {
        jobs,
        format,
        out,
        resume,
        checkpoint_every,
        halt_after,
        targets,
    }))
}

/// Loads the checkpoint at `path`, or a fresh one if the file does not
/// exist yet. The recorded format must match the requested one — mixed
/// formats in one checkpoint file would splice unlike outputs.
fn load_checkpoint(path: &std::path::Path, format: Format) -> Result<RunCheckpoint, String> {
    if !path.exists() {
        return Ok(RunCheckpoint::new(format));
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let ck = RunCheckpoint::from_bytes(&bytes)
        .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
    if ck.format() != format {
        return Err(format!(
            "checkpoint {} was rendered in a different format; delete it or match --format",
            path.display()
        ));
    }
    Ok(ck)
}

fn persist_checkpoint(path: &std::path::Path, ck: &RunCheckpoint) -> Result<(), String> {
    std::fs::write(path, ck.to_bytes()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The checkpointed path: resume from `path`, make (possibly bounded)
/// progress, persist, and return the full rendered outputs once every
/// target is present — or `None` when `--halt-after` stopped the run
/// early.
fn run_resumable(opts: &Options, path: &std::path::Path) -> Result<Option<Vec<String>>, String> {
    let mut ck = load_checkpoint(path, opts.format)?;
    let targets: Vec<&dyn Experiment> = opts.targets.to_vec();
    let missing = targets
        .iter()
        .filter(|t| ck.rendered(t.name()).is_none())
        .count();
    let budget = opts.halt_after.unwrap_or(missing).min(missing);

    if opts.checkpoint_every.is_none() && opts.halt_after.is_none() {
        // Unbounded: one resumable parallel sweep, then persist once.
        let outer = Engine::new(opts.jobs.min(targets.len()));
        let inner = Engine::new(opts.jobs / outer.jobs().max(1));
        let rendered = checkpoint::render_resumed(&targets, &outer, &inner, &mut ck);
        persist_checkpoint(path, &ck)?;
        return Ok(Some(rendered));
    }

    // Bounded: advance in persisted batches, in registry order. Grid
    // points still fan out across the full --jobs budget.
    let engine = Engine::new(opts.jobs);
    let mut fresh = 0;
    while fresh < budget {
        let batch = opts.checkpoint_every.unwrap_or(budget).min(budget - fresh);
        let n = checkpoint::advance(&targets, &engine, &mut ck, batch);
        persist_checkpoint(path, &ck)?;
        if n == 0 {
            break;
        }
        fresh += n;
    }
    let left = targets
        .iter()
        .filter(|t| ck.rendered(t.name()).is_none())
        .count();
    if left > 0 {
        eprintln!(
            "halted after {fresh} fresh target{}; {left} remaining (resume with --resume {})",
            if fresh == 1 { "" } else { "s" },
            path.display()
        );
        return Ok(None);
    }
    Ok(Some(
        targets
            .iter()
            .map(|t| {
                ck.rendered(t.name())
                    .expect("complete checkpoint covers every target")
                    .to_string()
            })
            .collect(),
    ))
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

    let rendered: Vec<String> = if let Some(path) = opts.resume.clone() {
        match run_resumable(&opts, &path) {
            Ok(Some(rendered)) => rendered,
            // --halt-after stopped early: the checkpoint is persisted,
            // nothing is emitted yet.
            Ok(None) => return ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // The job budget is split across the two levels so the worker
        // count never exceeds --jobs: the outer engine fans experiments
        // out, and each experiment's inner engine gets the remaining
        // budget (all of it when a single target is selected). Rendering
        // happens after the runs, in registry order, so parallelism never
        // reorders output — and the output bytes are engine-independent
        // anyway.
        let outer = Engine::new(opts.jobs.min(opts.targets.len()));
        let inner = Engine::new(opts.jobs / outer.jobs().max(1));
        outer.par_map(&opts.targets, |_, t| {
            exp::render(*t, &t.run(&inner), opts.format)
        })
    };

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
