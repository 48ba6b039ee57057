//! Fig. 8: simulation of one compute unit — decoupled memory / compute /
//! network pipeline timelines, buffer occupancy and power, for batch
//! size 1 (seq 16k) and batch size 32 (seq 8k) Llama3-8B on a 64-CU RPU.

use crate::RpuSystem;
use rpu_models::{ModelConfig, Precision};
use rpu_sim::{SimConfig, SimReport};
use rpu_util::table::{Cell, Table};

/// One simulated scenario (a batch/seq-len pairing).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Batch size.
    pub batch: u32,
    /// Sequence length.
    pub seq_len: u32,
    /// Full simulator report, with the time-binned trace attached.
    pub report: SimReport,
}

/// Results for Fig. 8.
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// Batch-1, 16k-context scenario (top panel).
    pub bs1: Scenario,
    /// Batch-32, 8k-context scenario (bottom panel).
    pub bs32: Scenario,
}

fn simulate(batch: u32, seq_len: u32) -> Scenario {
    let model = ModelConfig::llama3_8b();
    let prec = Precision::mxfp4_inference();
    let mut sys = RpuSystem::with_optimal_memory(&model, prec, batch, seq_len, 64)
        .expect("Llama3-8B fits a 64-CU RPU");
    // Bin the trace finely enough to resolve single layers (~0.07 us of
    // weight streaming per layer at BS=1).
    sys.sim_config = SimConfig {
        trace_bin_s: Some(50e-9),
        ..SimConfig::default()
    };
    let report = sys
        .decode_step(&model, batch, seq_len)
        .expect("simulation succeeds");
    Scenario {
        batch,
        seq_len,
        report,
    }
}

/// Runs both Fig. 8 scenarios.
#[must_use]
pub fn run() -> Fig08 {
    Fig08 {
        bs1: simulate(1, 16 * 1024),
        bs32: simulate(32, 8 * 1024),
    }
}

impl Scenario {
    /// Summary row: `(label, step time us, mem util, comp util, net
    /// util, peak buffer KB, avg power W/CU)`.
    #[must_use]
    pub fn summary(&self) -> (String, f64, f64, f64, f64, f64, f64) {
        let r = &self.report;
        let cores_per_cu = 16.0;
        let cu_power = r.avg_system_power_w() / r.plan.num_cus as f64;
        (
            format!("BS={} seq={}k", self.batch, self.seq_len / 1024),
            r.total_time_s * 1e6,
            r.mem_bw_utilization(),
            r.compute_utilization(),
            r.net_busy_s / r.total_time_s,
            r.peak_buffer_bytes as f64 * cores_per_cu / 1024.0,
            cu_power,
        )
    }
}

impl Fig08 {
    /// Renders the scenario summaries and trace excerpts.
    #[must_use]
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "Fig. 8: one-CU simulation, Llama3-8B MXFP4, 64 CUs",
            &[
                "scenario",
                "step (us)",
                "mem util",
                "comp util",
                "net util",
                "peak buf (KB/CU)",
                "power (W/CU)",
            ],
        );
        for s in [&self.bs1, &self.bs32] {
            let (label, us, m, c, n, buf, p) = s.summary();
            t.push_row(vec![
                Cell::str(label),
                Cell::num(us, 1),
                Cell::num(m, 2),
                Cell::num(c, 2),
                Cell::num(n, 2),
                Cell::num(buf, 0),
                Cell::num(p, 1),
            ]);
        }
        let mut tr = Table::new(
            "Fig. 8: trace excerpt (first bins, BS=1)",
            &["bin", "mem util", "comp util", "net util", "power (W/CU)"],
        );
        if let Some(trace) = &self.bs1.report.trace {
            let cores = 16.0;
            for i in (0..trace.mem_util.len().min(400)).step_by(40) {
                tr.push_row(vec![
                    Cell::int(i as i64),
                    Cell::num(trace.mem_util[i], 2),
                    Cell::num(trace.comp_util[i], 2),
                    Cell::num(trace.net_util[i], 2),
                    Cell::num(trace.power_w[i] * cores, 1),
                ]);
            }
        }
        vec![t, tr]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bs1_saturates_memory_bandwidth() {
        // §VI: "At batch size 1, the RPU saturates memory bandwidth and
        // achieves roofline performance."
        let s = simulate(1, 16 * 1024);
        assert!(
            s.report.mem_bw_utilization() > 0.85,
            "BS=1 mem BW util {}",
            s.report.mem_bw_utilization()
        );
    }

    #[test]
    fn bs32_much_slower_per_step() {
        // Fig. 8 caption: batch 32 generates tokens ~13x slower than
        // batch 1, primarily due to sequential KV$ computations.
        let f = run();
        let slow = f.bs32.report.total_time_s / f.bs1.report.total_time_s;
        assert!(slow > 6.0 && slow < 25.0, "BS=32 step slowdown {slow}");
    }

    #[test]
    fn bs32_has_higher_compute_utilisation() {
        let f = run();
        assert!(f.bs32.report.compute_utilization() > 2.0 * f.bs1.report.compute_utilization());
    }

    #[test]
    fn traces_are_attached_and_nonempty() {
        let f = run();
        for s in [&f.bs1, &f.bs32] {
            let tr = s.report.trace.as_ref().expect("trace enabled");
            assert!(!tr.mem_util.is_empty());
            assert_eq!(tr.mem_util.len(), tr.comp_util.len());
            assert_eq!(tr.mem_util.len(), tr.net_util.len());
            assert!(tr.mem_util.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
        }
    }

    #[test]
    fn memory_power_dominates() {
        // Fig. 8: "Memory power dominates total system power".
        let f = run();
        assert!(
            f.bs1.report.energy.memory_fraction() > 0.5,
            "memory energy fraction {}",
            f.bs1.report.energy.memory_fraction()
        );
    }

    #[test]
    fn buffer_absorbs_phase_imbalance_at_bs32() {
        // §VI batch-32 walkthrough: the memory pipeline prefetches ahead,
        // filling the on-chip buffer far deeper than at BS=1.
        let f = run();
        assert!(f.bs32.report.peak_buffer_bytes > f.bs1.report.peak_buffer_bytes);
    }

    #[test]
    fn tables_render() {
        let f = run();
        let t = f.tables();
        assert!(t[0].to_string().contains("BS=1"));
        assert!(t[0].to_string().contains("BS=32"));
    }
}
