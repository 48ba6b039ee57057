//! One module per paper figure/table, each regenerating the rows or
//! series the paper plots — unified behind the [`Experiment`] trait.
//!
//! Every module exposes a `run(...)` function returning a structured
//! result plus a `table()` (or `tables()`) rendering; the hot sweeps
//! additionally take a [`crate::engine::Engine`] via `run_with(...)` to
//! fan their grids out over worker threads.
//!
//! The [`registry`] lists every experiment as an [`Experiment`] trait
//! object; the `repro` binary is a thin driver over it — selection,
//! parallelism ([`crate::engine::Engine`]) and rendering ([`render`],
//! [`Format`]) all live here so tests can pin the exact bytes `repro`
//! emits.

pub mod ablations;
pub mod autoscale;
pub mod design_points;
pub mod ext_scaleout;
pub mod fig01_roofline;
pub mod fig02_h100_profile;
pub mod fig03_kernel_power;
pub mod fig04_landscape;
pub mod fig05_hbmco_tradeoffs;
pub mod fig08_pipeline_trace;
pub mod fig09_pareto;
pub mod fig10_sku_map;
pub mod fig11_scaling;
pub mod fig12_energy_cost;
pub mod fig13_batch_sweep;
pub mod fig14_platforms;
pub mod fleet_scale;
pub mod fleet_sweep;
pub mod policy_sweep;
pub mod serving_sweep;

use crate::engine::Engine;
use rpu_util::table::Table;

/// One reproducible experiment: a named unit of the paper's evaluation
/// that renders to structured [`Table`]s.
///
/// Implementations must be deterministic *per grid point*: given the
/// same inputs, [`Experiment::run`] returns the same tables at every
/// [`Engine`] job count (the engine index-stamps results, so thread
/// interleaving never leaks into output order).
///
/// # Examples
///
/// Adding a new experiment is implementing this trait — sweep your grid
/// through the engine, return typed rows and register the value:
///
/// ```
/// use rpu_core::engine::{grid, Engine};
/// use rpu_core::experiments::{render, Experiment, Format};
/// use rpu_util::table::{Cell, Table};
///
/// struct SquareSweep;
///
/// impl Experiment for SquareSweep {
///     fn name(&self) -> &'static str {
///         "squares"
///     }
///
///     fn about(&self) -> &'static str {
///         "x^2 over a toy grid"
///     }
///
///     fn run(&self, engine: &Engine) -> Vec<Table> {
///         // The sweep grid: every point independent, so let the
///         // engine fan it out. Results come back in input order.
///         let points = grid(&[1i64, 2, 3], &[10i64]);
///         let rows = engine.par_map(&points, |_, &(x, scale)| (x, x * x * scale));
///         let mut t = Table::new("Squares", &["x", "x^2 (scaled)"]);
///         for (x, y) in rows {
///             t.push_row(vec![Cell::int(x), Cell::int(y)]);
///         }
///         vec![t]
///     }
/// }
///
/// // The driver renders any experiment the same way, at any job count.
/// let seq = render(&SquareSweep, &SquareSweep.run(&Engine::sequential()), Format::Text);
/// let par = render(&SquareSweep, &SquareSweep.run(&Engine::new(8)), Format::Text);
/// assert_eq!(seq, par);
/// assert!(seq.starts_with("==== squares — x^2 over a toy grid"));
/// ```
pub trait Experiment: Sync {
    /// The registry/CLI name, e.g. `"fig11"`.
    fn name(&self) -> &'static str;

    /// A one-line description for listings.
    fn about(&self) -> &'static str;

    /// Runs the experiment, fanning independent grid points out through
    /// `engine`, and returns its rendered-ready tables.
    fn run(&self, engine: &Engine) -> Vec<Table>;
}

/// A registry entry: static metadata plus the run function.
struct Entry {
    name: &'static str,
    about: &'static str,
    run: fn(&Engine) -> Vec<Table>,
}

impl Experiment for Entry {
    fn name(&self) -> &'static str {
        self.name
    }

    fn about(&self) -> &'static str {
        self.about
    }

    fn run(&self, engine: &Engine) -> Vec<Table> {
        (self.run)(engine)
    }
}

/// Every experiment of the reproduction, in `repro`'s canonical order.
static REGISTRY: [Entry; 20] = [
    Entry {
        name: "fig1",
        about: "rooflines: H100 vs RPU at ISO-TDP; AI vs batch",
        run: |_| fig01_roofline::run().tables(),
    },
    Entry {
        name: "fig2",
        about: "H100 power trace and VMM bandwidth utilisation",
        run: |_| fig02_h100_profile::run().tables(),
    },
    Entry {
        name: "fig3",
        about: "H100 kernel power and energy per FLOP vs batch",
        run: |_| vec![fig03_kernel_power::run().table()],
    },
    Entry {
        name: "fig4",
        about: "memory technology landscape (Goldilocks gap)",
        run: |_| vec![fig04_landscape::run().table()],
    },
    Entry {
        name: "fig5",
        about: "HBM-CO design space: cost/GB and energy/bit",
        run: |_| fig05_hbmco_tradeoffs::run().tables(),
    },
    Entry {
        name: "fig8",
        about: "one-CU pipeline timelines, BS=1 vs BS=32",
        run: |_| fig08_pipeline_trace::run().tables(),
    },
    Entry {
        name: "fig9",
        about: "HBM-CO Pareto frontier for Llama3-405B, 64 CUs",
        run: |_| vec![fig09_pareto::run().table()],
    },
    Entry {
        name: "fig10",
        about: "SKU selection map and slowdown matrix (Maverick)",
        run: |_| fig10_sku_map::run().tables(),
    },
    Entry {
        name: "fig11",
        about: "strong scaling vs H100 ISO-TDP; batched throughput",
        run: |e| fig11_scaling::run_with(e).tables(),
    },
    Entry {
        name: "fig12",
        about: "energy per inference and system cost vs CU count",
        run: |_| fig12_energy_cost::run().tables(),
    },
    Entry {
        name: "fig13",
        about: "speedup and energy vs H100 across batch sizes",
        run: |e| vec![fig13_batch_sweep::run_with(e).table()],
    },
    Entry {
        name: "fig14",
        about: "platform comparison under speculative decoding",
        run: |_| vec![fig14_platforms::run().table()],
    },
    Entry {
        name: "ablations",
        about: "section IX decomposed contributions",
        run: |e| vec![ablations::run_with(e).table()],
    },
    Entry {
        name: "design-points",
        about: "section VIII edge/datacenter/peak design points",
        run: |_| vec![design_points::run().table()],
    },
    Entry {
        name: "ext-scaleout",
        about: "extension: two-level ring vs flat-ring plateau",
        run: |_| vec![ext_scaleout::run().table()],
    },
    Entry {
        name: "serving",
        about: "request-level SLO sweep over offered load (rpu-serve)",
        run: |e| vec![serving_sweep::run_with(e).table()],
    },
    Entry {
        name: "policy",
        about: "scheduling policies vs offered load, two SLO classes",
        run: |e| vec![policy_sweep::run_with(e).table()],
    },
    Entry {
        name: "fleet",
        about: "capacity planning: replicas to hold the SLO, per router",
        run: |e| vec![fleet_sweep::run_with(e).table()],
    },
    Entry {
        name: "fleet-scale",
        about: "event-core width sweep to 1000 replicas, digest-pinned",
        run: |e| vec![fleet_scale::run_with(e).table()],
    },
    Entry {
        name: "autoscale",
        about: "autoscaler vs static fleets: SLO-seconds vs machine-seconds",
        run: |e| vec![autoscale::run_with(e).table()],
    },
];

/// Every registered experiment, in `repro`'s canonical order.
#[must_use]
pub fn registry() -> Vec<&'static dyn Experiment> {
    REGISTRY.iter().map(|e| e as &dyn Experiment).collect()
}

/// Looks an experiment up by its registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY
        .iter()
        .find(|e| e.name == name)
        .map(|e| e as &dyn Experiment)
}

/// An output format of the `repro` driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned text tables (the golden-pinned default).
    Text,
    /// One JSON object per experiment with typed cells.
    Json,
    /// CSV, one `#`-titled block per table.
    Csv,
}

impl Format {
    /// The file extension `repro --out` uses for this format.
    #[must_use]
    pub fn extension(self) -> &'static str {
        match self {
            Self::Text => "txt",
            Self::Json => "json",
            Self::Csv => "csv",
        }
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Self::Text),
            "json" => Ok(Self::Json),
            "csv" => Ok(Self::Csv),
            other => Err(format!("unknown format `{other}` (text|json|csv)")),
        }
    }
}

/// Renders one experiment's tables in the given format.
///
/// The text rendering is the byte-stability contract of the whole
/// refactor: it reproduces exactly what `repro` has always printed per
/// target (`==== name — about`, blank line, each table followed by two
/// blank lines), so the golden snapshots under `tests/golden/repro/`
/// pin it across job counts and refactors.
#[must_use]
pub fn render(exp: &dyn Experiment, tables: &[Table], format: Format) -> String {
    let mut out = String::new();
    match format {
        Format::Text => {
            out.push_str(&format!("==== {} — {}\n\n", exp.name(), exp.about()));
            for t in tables {
                out.push_str(&t.to_string());
                out.push('\n');
                out.push('\n');
            }
        }
        Format::Json => {
            out.push_str(&format!(
                "{{\"name\":{},\"about\":{},\"tables\":[",
                rpu_util::table::json_string(exp.name()),
                rpu_util::table::json_string(exp.about())
            ));
            for (i, t) in tables.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&t.to_json());
            }
            out.push_str("]}");
        }
        Format::Csv => {
            out.push_str(&format!("# ==== {} — {}\n", exp.name(), exp.about()));
            for t in tables {
                out.push_str(&format!("# {}\n", t.title()));
                out.push_str(&t.to_csv());
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let reg = registry();
        assert_eq!(reg.len(), 20);
        for e in &reg {
            assert!(std::ptr::eq(find(e.name()).unwrap(), *e));
            assert!(!e.about().is_empty());
        }
        let mut names: Vec<&str> = reg.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate registry name");
        assert!(find("no-such-target").is_none());
    }

    #[test]
    fn format_parses_and_maps_extensions() {
        assert_eq!("text".parse::<Format>().unwrap(), Format::Text);
        assert_eq!("json".parse::<Format>().unwrap(), Format::Json);
        assert_eq!("csv".parse::<Format>().unwrap(), Format::Csv);
        assert!("yaml".parse::<Format>().is_err());
        assert_eq!(Format::Json.extension(), "json");
    }

    #[test]
    fn text_render_matches_the_historical_repro_layout() {
        // A cheap target pins the frame: header line, blank line, table,
        // two trailing blank lines.
        let exp = find("fig4").unwrap();
        let tables = exp.run(&Engine::sequential());
        let s = render(exp, &tables, Format::Text);
        assert!(s.starts_with("==== fig4 — memory technology landscape (Goldilocks gap)\n\n== "));
        assert!(s.ends_with("\n\n\n"));
    }

    #[test]
    fn json_render_is_one_object_per_experiment() {
        let exp = find("fig4").unwrap();
        let tables = exp.run(&Engine::sequential());
        let s = render(exp, &tables, Format::Json);
        assert!(s.starts_with("{\"name\":\"fig4\","));
        assert!(s.ends_with("]}"));
        assert_eq!(s.matches("\"title\"").count(), tables.len());
    }

    #[test]
    fn csv_render_titles_every_table() {
        let exp = find("fig1").unwrap();
        let tables = exp.run(&Engine::sequential());
        let s = render(exp, &tables, Format::Csv);
        assert!(s.starts_with("# ==== fig1"));
        assert_eq!(s.matches("\n# ").count(), tables.len());
    }
}
