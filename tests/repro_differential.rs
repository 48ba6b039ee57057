//! Differential suite for the experiment engine: `repro`'s rendered
//! output must be byte-identical across job counts AND across the
//! table/engine refactor itself.
//!
//! Two gates per registry target:
//!
//! 1. **Jobs invariance** — rendering with the parallel engine
//!    (`jobs` = 2, 4 and 8) produces exactly the bytes of the
//!    sequential reference. The engine index-stamps grid results, so any
//!    divergence means a grid point read thread-dependent state.
//! 2. **Golden stability** — the sequential rendering matches the
//!    snapshot under `tests/golden/repro/`, captured from the
//!    pre-refactor `repro` binary (only `serving` was re-blessed, for
//!    its intentional bursty rung). A diff means the structured-table
//!    path changed published bytes.
//!
//! To re-bless after an intentional output change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p rpu --test repro_differential
//! git diff tests/golden/repro/   # review the drift before committing
//! ```

use rpu::core::engine::Engine;
use rpu::core::experiments::{registry, render, Experiment, Format};
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/repro")
        .join(format!("{name}.txt"))
}

/// Renders one target exactly as `repro <name>` prints it.
fn text(exp: &dyn Experiment, engine: &Engine) -> String {
    render(exp, &exp.run(engine), Format::Text)
}

#[test]
fn every_target_is_byte_identical_across_job_counts_and_to_its_golden() {
    let bless = std::env::var_os("GOLDEN_BLESS").is_some();
    for exp in registry() {
        let seq = text(exp, &Engine::sequential());
        for jobs in [2, 4, 8] {
            assert_eq!(
                seq,
                text(exp, &Engine::new(jobs)),
                "{}: --jobs {jobs} output diverged from --jobs 1",
                exp.name()
            );
        }

        let path = golden_path(exp.name());
        if bless {
            fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
            fs::write(&path, &seq).expect("write golden file");
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {}: {e}\nbless it with \
                 `GOLDEN_BLESS=1 cargo test -p rpu --test repro_differential`",
                path.display()
            )
        });
        assert!(
            golden == seq,
            "{}: rendered text drifted from {}\n\
             if intentional, re-bless with GOLDEN_BLESS=1 and review the diff",
            exp.name(),
            path.display()
        );
    }
}

#[test]
fn json_and_csv_renderings_are_jobs_invariant_and_well_formed() {
    // The structured formats ride the same tables, so spot-check a
    // cheap sim-backed target end to end at both job counts.
    let exp = rpu::core::experiments::find("fleet").expect("fleet target registered");
    let tables_seq = exp.run(&Engine::sequential());
    let tables_par = exp.run(&Engine::new(8));
    for format in [Format::Json, Format::Csv] {
        let a = render(exp, &tables_seq, format);
        let b = render(exp, &tables_par, format);
        assert_eq!(a, b, "{format:?} diverged across job counts");
    }
    let json = render(exp, &tables_seq, Format::Json);
    assert!(json.starts_with("{\"name\":\"fleet\""));
    // Crude but dependency-free well-formedness: balanced delimiters
    // outside string literals (full validity is checked in CI with a
    // real JSON parser).
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced JSON delimiters");
    }
    assert_eq!(depth, 0, "unbalanced JSON delimiters");
    assert!(!in_str, "unterminated JSON string");
    let csv = render(exp, &tables_seq, Format::Csv);
    assert!(csv.starts_with("# ==== fleet"));
}
