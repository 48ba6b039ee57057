//! The discrete-event engine executing one representative core.

use crate::buffers::{BufferId, DataflowState};
use crate::report::{EnergyBuckets, KernelStat, SimReport, Trace};
use rpu_arch::{
    ring_broadcast_latency, ring_reduce_latency, two_level_broadcast_latency,
    two_level_reduce_latency, CoreSpec, EnergyCoeffs, LinkSpec, TwoLevelRing,
};
use rpu_hbmco::{energy_per_bit, HbmCoConfig};
use rpu_isa::{CollectiveKind, CoreProgram, Instr, Op, Production, ShardPlan, Tag};
use rpu_models::{KernelKind, Precision};
use rpu_util::stats::Binner;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

const PS: f64 = 1e12;

/// Simulator knobs, including the §IX ablation switches.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Streaming quantum, bytes (models the chunked DMA transfers).
    pub chunk_bytes: u64,
    /// Ablation: serialise pipelines at kernel boundaries (memory may not
    /// prefetch past what compute is consuming).
    pub coupled_pipelines: bool,
    /// Ablation: every network collective acts as a global barrier.
    pub global_sync: bool,
    /// On-the-fly stream dequantisation (§V). Disabling it stores decoded
    /// BF16 in the buffers, multiplying SRAM-interface traffic.
    pub stream_decode: bool,
    /// Use the hierarchical two-level ring of the paper's §VIII future
    /// direction for collectives instead of the flat CU ring.
    pub two_level_ring: bool,
    /// Bin width for the Fig. 8 traces; `None` disables trace capture.
    pub trace_bin_s: Option<f64>,
    /// Safety limit on processed events.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            chunk_bytes: 16 * 1024,
            coupled_pipelines: false,
            global_sync: false,
            stream_decode: true,
            two_level_ring: false,
            trace_bin_s: None,
            max_events: 200_000_000,
        }
    }
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No pipeline can make progress but instructions remain.
    Deadlock {
        /// Program counters (mem, comp, net) at the stall.
        pcs: [usize; 3],
    },
    /// The event budget was exhausted (likely a configuration bug).
    EventLimit,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { pcs } => write!(
                f,
                "simulation deadlock at pcs mem={} comp={} net={}",
                pcs[0], pcs[1], pcs[2]
            ),
            SimError::EventLimit => f.write_str("simulation event limit exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// The simulator: machine parameters plus configuration.
#[derive(Debug, Clone)]
pub struct Simulator {
    core: CoreSpec,
    coeffs: EnergyCoeffs,
    precision: Precision,
    plan: ShardPlan,
    config: SimConfig,
    mem_pj_bit: f64,
    link: LinkSpec,
}

impl Simulator {
    /// Builds a simulator for the paper-spec core attached to the given
    /// HBM-CO stack, running a program compiled for `plan`.
    #[must_use]
    pub fn new(
        memory: HbmCoConfig,
        precision: Precision,
        plan: ShardPlan,
        config: SimConfig,
    ) -> Self {
        let core = CoreSpec::paper();
        Self {
            core,
            coeffs: EnergyCoeffs::paper(),
            precision,
            plan,
            config,
            mem_pj_bit: energy_per_bit(&memory).total(),
            link: LinkSpec {
                // Ring links operate at CU granularity: all cores of a CU
                // inject in parallel over the 256 GB/s CU link.
                core_bandwidth: f64::from(plan.cores_per_cu) * CoreSpec::paper().net_bandwidth,
                ..LinkSpec::paper()
            },
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Bits per stored value a VMM of `kernel` streams: the KV cache for
    /// attention, the weights otherwise.
    fn stored_bits(&self, kernel: KernelKind) -> f64 {
        match kernel {
            KernelKind::AttnScore | KernelKind::AttnContext => {
                self.precision.kv_cache.bits_per_value()
            }
            _ => self.precision.weights.bits_per_value(),
        }
    }

    fn decode_rate(&self, kernel: KernelKind) -> f64 {
        let decoded_bytes_per_s =
            f64::from(self.core.compute_bus_bits) / 8.0 * self.core.bus_clock_hz;
        decoded_bytes_per_s * self.stored_bits(kernel) / self.precision.activations.bits_per_value()
    }

    fn expansion(&self, kernel: KernelKind) -> f64 {
        self.precision.activations.bits_per_value() / self.stored_bits(kernel)
    }

    fn vops_rate(&self) -> f64 {
        f64::from(self.core.vops_per_cycle) * self.core.bus_clock_hz
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the dataflow stalls and
    /// [`SimError::EventLimit`] if the event budget is exhausted.
    pub fn run(&self, program: &CoreProgram) -> Result<SimReport, SimError> {
        Engine::new(self, program).run()
    }
}

#[derive(Debug, Clone)]
struct Pending {
    /// Tags consumed when the pending applies; drained on the first
    /// attempt, so a publish-blocked retry never consumes twice.
    consumes: Vec<Tag>,
    publish: Option<Production>,
    /// (progress delta, instruction complete?)
    advance: (u64, bool),
    energy: EnergyBuckets,
}

#[derive(Debug)]
struct PipeRt<'a> {
    stream: &'a [Instr],
    pc: usize,
    progress: u64,
    free_at: u64,
    pending: Option<Pending>,
}

impl<'a> PipeRt<'a> {
    fn new(stream: &'a [Instr]) -> Self {
        Self {
            stream,
            pc: 0,
            progress: 0,
            free_at: 0,
            pending: None,
        }
    }

    fn finished(&self) -> bool {
        self.pc >= self.stream.len() && self.pending.is_none()
    }
}

struct Engine<'a> {
    sim: &'a Simulator,
    state: DataflowState,
    pipes: [PipeRt<'a>; 3],
    heap: BinaryHeap<Reverse<(u64, u8)>>,
    sync_floor: u64,
    events: u64,
    /// In-flight HP-VOPs operations: the vector unit is a separate
    /// execution resource (§V), so VOps do not hold the compute pipe —
    /// the TMAC feed continues streaming weights underneath them.
    vops_inflight: Vec<(u64, Pending)>,
    /// Indexed by tag: the first compute instruction that consumes it,
    /// if any (for the coupled-pipeline prefetch fence).
    comp_consumer: Vec<Option<usize>>,
    // accounting
    busy_ps: [u64; 3],
    end_ps: u64,
    /// Indexed by `KernelKind as usize`; `Some` once the kernel ran.
    kernels: [Option<KernelStat>; KernelKind::ALL.len()],
    energy: EnergyBuckets,
    streamed: u64,
    stored: u64,
    flops: f64,
    peak_buffer: u64,
    util_bins: Option<[Binner; 3]>,
    power_bin: Option<Binner>,
    buffer_samples: Vec<(f64, u64)>,
}

impl<'a> Engine<'a> {
    fn new(sim: &'a Simulator, program: &'a CoreProgram) -> Self {
        let mut state = DataflowState::new(
            sim.core.mem_buf_bytes,
            sim.core.net_buf_bytes,
            sim.core.act_buf_bytes * u64::from(sim.core.tmacs) / 2,
        );
        for i in program.all() {
            let buffer = match i.pipeline() {
                rpu_isa::Pipeline::Memory => BufferId::Mem,
                rpu_isa::Pipeline::Compute => BufferId::Act,
                rpu_isa::Pipeline::Network => BufferId::Net,
            };
            for p in i.productions() {
                state.declare(p.tag, p.bytes, p.valid_count, buffer);
            }
        }
        let mut comp_consumer = Vec::new();
        for (idx, i) in program.comp.iter().enumerate() {
            for t in i.consumptions() {
                let t = t as usize;
                if t >= comp_consumer.len() {
                    comp_consumer.resize(t + 1, None);
                }
                comp_consumer[t].get_or_insert(idx);
            }
        }
        let mut heap = BinaryHeap::new();
        for p in 0..3u8 {
            heap.push(Reverse((0u64, p)));
        }
        let trace = sim.config.trace_bin_s;
        Self {
            sim,
            state,
            pipes: [
                PipeRt::new(&program.mem),
                PipeRt::new(&program.comp),
                PipeRt::new(&program.net),
            ],
            heap,
            sync_floor: 0,
            events: 0,
            vops_inflight: Vec::new(),
            comp_consumer,
            busy_ps: [0; 3],
            end_ps: 0,
            kernels: [None; KernelKind::ALL.len()],
            energy: EnergyBuckets::default(),
            streamed: 0,
            stored: 0,
            flops: 0.0,
            peak_buffer: 0,
            util_bins: trace.map(|w| [Binner::new(w), Binner::new(w), Binner::new(w)]),
            power_bin: trace.map(Binner::new),
            buffer_samples: Vec::new(),
        }
    }

    fn wake_others(&mut self, t: u64, me: u8) {
        for p in 0..3u8 {
            if p != me {
                self.heap.push(Reverse((t, p)));
            }
        }
    }

    fn record_busy(&mut self, pipe: u8, kernel: KernelKind, start: u64, end: u64) {
        let dur = end - start;
        self.busy_ps[pipe as usize] += dur;
        self.end_ps = self.end_ps.max(end);
        let ks = self.kernels[kernel as usize].get_or_insert_with(KernelStat::default);
        let secs = dur as f64 / PS;
        match pipe {
            0 => ks.mem_busy_s += secs,
            1 => ks.comp_busy_s += secs,
            _ => ks.net_busy_s += secs,
        }
        if let Some(bins) = &mut self.util_bins {
            bins[pipe as usize].add_interval(start as f64 / PS, end as f64 / PS, secs);
        }
    }

    fn deposit_energy(&mut self, e: &EnergyBuckets, start: u64, end: u64) {
        self.energy.mem_device += e.mem_device;
        self.energy.sram += e.sram;
        self.energy.tmac += e.tmac;
        self.energy.vops += e.vops;
        self.energy.decode += e.decode;
        self.energy.net += e.net;
        if let Some(pb) = &mut self.power_bin {
            let cores = f64::from(self.sim.plan.cores_per_cu);
            pb.add_interval(
                start as f64 / PS,
                (end.max(start + 1)) as f64 / PS,
                e.total() * cores,
            );
        }
    }

    fn sample_buffers(&mut self, t: u64) {
        let occ = self.state.total_occupied();
        self.peak_buffer = self.peak_buffer.max(occ);
        if self.util_bins.is_some() {
            self.buffer_samples.push((t as f64 / PS, occ));
        }
    }

    fn apply_pending(&mut self, pipe: u8, t: u64) -> bool {
        let mut pending = self.pipes[pipe as usize]
            .pending
            .take()
            .expect("pending exists");
        for tag in pending.consumes.drain(..) {
            self.state.consume(tag);
        }
        if let Some(p) = pending.publish {
            if !self.state.can_publish(p.tag) {
                self.pipes[pipe as usize].pending = Some(pending);
                return false;
            }
            self.state.publish(p.tag, p.bytes);
        }
        let start = self.pipes[pipe as usize].free_at.min(t);
        self.deposit_energy(&pending.energy, start.saturating_sub(1), t);
        let (delta, complete) = pending.advance;
        let rt = &mut self.pipes[pipe as usize];
        rt.progress += delta;
        if complete {
            rt.progress = 0;
            rt.pc += 1;
        }
        self.sample_buffers(t);
        true
    }

    /// Attempts to start the next quantum of `pipe` at wall time `t`.
    /// Returns `true` if something was scheduled.
    fn try_start(&mut self, pipe: u8, t: u64) -> bool {
        let rt = &self.pipes[pipe as usize];
        if rt.pc >= rt.stream.len() {
            return false;
        }
        let instr = &rt.stream[rt.pc];
        let kernel = instr.kernel;
        let start = t.max(if self.sim.config.global_sync {
            self.sync_floor
        } else {
            0
        });
        let chunk = self.sim.config.chunk_bytes;
        let cfg = &self.sim.config;

        match &instr.op {
            Op::MemLoad { out, bytes, .. } => {
                // Coupled ablation: no prefetching past the compute
                // pipeline's current instruction. A global barrier
                // (global_sync) implies the same fence: no pipeline may
                // run ahead of the synchronisation point.
                if cfg.coupled_pipelines || cfg.global_sync {
                    if let Some(&Some(ci)) = self.comp_consumer.get(*out as usize) {
                        if ci > self.pipes[1].pc {
                            return false;
                        }
                    }
                }
                if !self.state.can_publish(*out) {
                    return false;
                }
                let remaining = bytes - rt.progress;
                let q = remaining.min(chunk);
                let dur = ((q as f64 / self.sim.core.mem_bandwidth) * PS).ceil() as u64;
                let e = EnergyBuckets {
                    mem_device: q as f64 * 8.0 * self.sim.mem_pj_bit * 1e-12,
                    sram: q as f64 * 8.0 * self.sim.coeffs.sram_write_pj_bit * 1e-12,
                    ..EnergyBuckets::default()
                };
                self.streamed += q;
                let last = q == remaining;
                let publish = Some(Production {
                    tag: *out,
                    bytes: q,
                    valid_count: 1,
                });
                // Publication capacity was checked above; the publish in
                // the pending applies unconditionally via overshoot rule.
                self.schedule(
                    pipe,
                    kernel,
                    start,
                    dur,
                    Pending {
                        consumes: vec![],
                        publish,
                        advance: (q, last),
                        energy: e,
                    },
                );
                true
            }
            Op::MemStore { input, bytes } => {
                if let Some(i) = input {
                    if !self.state.fully_published(*i) {
                        return false;
                    }
                }
                let dur = ((*bytes as f64 / self.sim.core.mem_bandwidth) * PS).ceil() as u64;
                let e = EnergyBuckets {
                    mem_device: *bytes as f64 * 8.0 * self.sim.mem_pj_bit * 1e-12,
                    sram: *bytes as f64 * 8.0 * self.sim.coeffs.sram_read_pj_bit * 1e-12,
                    ..EnergyBuckets::default()
                };
                self.stored += bytes;
                self.schedule(
                    pipe,
                    kernel,
                    start,
                    dur.max(1),
                    Pending {
                        consumes: input.iter().copied().collect(),
                        publish: None,
                        advance: (0, true),
                        energy: e,
                    },
                );
                true
            }
            Op::Vmm {
                weights,
                acts,
                out,
                weight_bytes,
                flops,
            } => {
                let remaining = weight_bytes - rt.progress;
                let q = remaining.min(chunk);
                let last = q == remaining;
                // Column-sharded overlap (§IV): each core starts on its
                // locally available activation fragment while the rest
                // of the vector is still broadcast on the ring, so the
                // VMM streams weights immediately and only its *last*
                // quantum waits for the gathered activations to land.
                if last {
                    for a in acts {
                        if !self.state.fully_published(*a) {
                            return false;
                        }
                    }
                }
                if self.state.stream_available(*weights) < q {
                    return false;
                }
                let flops_q = *flops as f64 * q as f64 / *weight_bytes as f64;
                let t_feed = q as f64 / self.sim.decode_rate(kernel);
                let t_mac = flops_q / self.sim.core.peak_flops();
                let dur = ((t_feed.max(t_mac)) * PS).ceil() as u64;
                let expansion = self.sim.expansion(kernel);
                let sram_factor = if cfg.stream_decode { 1.0 } else { expansion };
                let e = EnergyBuckets {
                    sram: q as f64 * 8.0 * self.sim.coeffs.sram_read_pj_bit * sram_factor * 1e-12,
                    decode: if cfg.stream_decode {
                        q as f64 * 8.0 * self.sim.coeffs.stream_decode_pj_bit * expansion * 1e-12
                    } else {
                        0.0
                    },
                    tmac: flops_q * self.sim.coeffs.flop_pj() * 1e-12,
                    ..EnergyBuckets::default()
                };
                self.flops += flops_q;
                // Drain at quantum start: frees memory-buffer space for
                // the prefetcher (the compute "catch-up" of Fig. 8).
                self.state.drain(*weights, q);
                self.wake_others(start, pipe);
                let (consumes, publish) = if last {
                    (acts.clone(), *out)
                } else {
                    (vec![], None)
                };
                self.schedule(
                    pipe,
                    kernel,
                    start,
                    dur.max(1),
                    Pending {
                        consumes,
                        publish,
                        advance: (q, last),
                        energy: e,
                    },
                );
                true
            }
            Op::VOps { inputs, out, flops } => {
                for i in inputs {
                    if !self.state.fully_published(*i) {
                        return false;
                    }
                }
                let dur = ((*flops as f64 / self.sim.vops_rate()) * PS)
                    .ceil()
                    .max(1000.0) as u64;
                let e = EnergyBuckets {
                    vops: *flops as f64 * self.sim.coeffs.vop_pj * 1e-12,
                    ..EnergyBuckets::default()
                };
                self.flops += *flops as f64;
                // HP-VOPs run on a dedicated vector unit, not the TMAC
                // feed: retire the instruction from the compute stream
                // immediately and complete it asynchronously, so weight
                // streaming continues underneath the vector op. Data
                // dependencies still gate consumers via the output tag,
                // which is published only when the op finishes.
                let end = start + dur;
                self.record_busy(pipe, kernel, start, end);
                self.vops_inflight.push((
                    end,
                    Pending {
                        consumes: inputs.clone(),
                        publish: *out,
                        advance: (0, true),
                        energy: e,
                    },
                ));
                self.pipes[pipe as usize].pc += 1;
                self.heap.push(Reverse((end, pipe)));
                true
            }
            Op::Collective {
                kind,
                input,
                out,
                fragment_bytes,
                participants,
            } => {
                if let Some(i) = input {
                    if !self.state.fully_published(*i) {
                        return false;
                    }
                }
                // Global-sync ablation: a collective is a barrier — it
                // may only begin once every pipeline has drained its
                // in-flight work, and nothing may start until it ends
                // (via `sync_floor`). This removes the prefetch-ahead
                // that normally hides collective latency.
                let start = if self.sim.config.global_sync {
                    start
                        .max(self.pipes[0].free_at)
                        .max(self.pipes[1].free_at)
                        .max(self.pipes[2].free_at)
                } else {
                    start
                };
                let frag = *fragment_bytes as f64;
                let flat = match kind {
                    CollectiveKind::AllGather | CollectiveKind::GroupGather => {
                        ring_broadcast_latency(*participants, frag, &self.sim.link)
                    }
                    CollectiveKind::Reduce => {
                        ring_reduce_latency(*participants, frag, &self.sim.link)
                    }
                };
                let lat = if self.sim.config.two_level_ring {
                    // The hierarchical topology contains the flat local
                    // rings, so a collective that fits one board never
                    // pays the station hop: route over whichever level
                    // is cheaper.
                    let ring = TwoLevelRing {
                        local: self.sim.link,
                        ..TwoLevelRing::balanced(*participants)
                    };
                    let hier = match kind {
                        CollectiveKind::AllGather | CollectiveKind::GroupGather => {
                            two_level_broadcast_latency(*participants, frag, &ring)
                        }
                        CollectiveKind::Reduce => {
                            two_level_reduce_latency(*participants, frag, &ring)
                        }
                    };
                    hier.min(flat)
                } else {
                    flat
                };
                let dur = (lat * PS).ceil().max(1000.0) as u64;
                let traffic = frag * f64::from(*participants);
                let per_core = traffic / f64::from(self.sim.plan.cores_per_cu);
                let wire = match kind {
                    CollectiveKind::Reduce => 2.0,
                    _ => 1.0,
                };
                let out_bytes = out.map_or(0.0, |p| p.bytes as f64);
                let e = EnergyBuckets {
                    net: (per_core * 8.0 * self.sim.coeffs.ucie_substrate_pj_bit * wire
                        + out_bytes * 8.0 * self.sim.coeffs.sram_write_pj_bit)
                        * 1e-12,
                    ..EnergyBuckets::default()
                };
                let end = start + dur;
                if self.sim.config.global_sync {
                    self.sync_floor = self.sync_floor.max(end);
                }
                self.schedule(
                    pipe,
                    kernel,
                    start,
                    dur,
                    Pending {
                        consumes: input.iter().copied().collect(),
                        publish: *out,
                        advance: (0, true),
                        energy: e,
                    },
                );
                true
            }
            Op::Inject { out } => {
                self.schedule(
                    pipe,
                    kernel,
                    start,
                    1,
                    Pending {
                        consumes: vec![],
                        publish: Some(*out),
                        advance: (0, true),
                        energy: EnergyBuckets::default(),
                    },
                );
                true
            }
        }
    }

    fn schedule(&mut self, pipe: u8, kernel: KernelKind, start: u64, dur: u64, pending: Pending) {
        let end = start + dur;
        self.record_busy(pipe, kernel, start, end);
        let rt = &mut self.pipes[pipe as usize];
        rt.free_at = end;
        rt.pending = Some(pending);
        self.heap.push(Reverse((end, pipe)));
    }

    /// Completes every in-flight HP-VOPs operation due at or before `t`:
    /// consumes its inputs, publishes its output tag and deposits energy.
    fn flush_vops(&mut self, t: u64) {
        let mut i = 0;
        while i < self.vops_inflight.len() {
            if self.vops_inflight[i].0 <= t {
                let (end, pending) = self.vops_inflight.swap_remove(i);
                for tag in &pending.consumes {
                    self.state.consume(*tag);
                }
                if let Some(p) = pending.publish {
                    // The act/acc buffer is elastic; vector outputs never
                    // block.
                    self.state.publish(p.tag, p.bytes);
                }
                self.deposit_energy(&pending.energy, end.saturating_sub(1), end);
                self.sample_buffers(end);
                self.wake_others(end, 1);
            } else {
                i += 1;
            }
        }
    }

    fn run(mut self) -> Result<SimReport, SimError> {
        while let Some(Reverse((t, pipe))) = self.heap.pop() {
            self.events += 1;
            if self.events > self.sim.config.max_events {
                return Err(SimError::EventLimit);
            }
            self.flush_vops(t);
            let rt = &self.pipes[pipe as usize];
            if rt.free_at > t {
                continue; // stale wake; a later wake is queued
            }
            if rt.pending.is_some() {
                if !self.apply_pending(pipe, t) {
                    continue; // publish blocked; retried on next wake
                }
                self.wake_others(t, pipe);
            }
            // Keep starting quanta as long as the pipeline can progress
            // instantly (zero-duration scheduling is prevented by dur>=1).
            if !self.pipes[pipe as usize].finished() {
                let _ = self.try_start(pipe, t);
            }
        }
        if self.pipes.iter().any(|p| !p.finished()) {
            return Err(SimError::Deadlock {
                pcs: [self.pipes[0].pc, self.pipes[1].pc, self.pipes[2].pc],
            });
        }
        let total_time_s = self.end_ps as f64 / PS;
        let trace = self.util_bins.map(|bins| {
            let w = bins[0].width();
            let len = bins
                .iter()
                .map(|b| b.bins().len())
                .chain(self.power_bin.as_ref().map(|p| p.bins().len()))
                .max()
                .unwrap_or(0);
            let norm = |b: &Binner| {
                let mut v: Vec<f64> = b.bins().iter().map(|x| x / w).collect();
                v.resize(len, 0.0);
                v
            };
            Trace {
                bin_s: w,
                mem_util: norm(&bins[0]),
                comp_util: norm(&bins[1]),
                net_util: norm(&bins[2]),
                power_w: self.power_bin.as_ref().map(norm).unwrap_or_default(),
                buffer_samples: self.buffer_samples,
            }
        });
        Ok(SimReport {
            total_time_s,
            mem_busy_s: self.busy_ps[0] as f64 / PS,
            comp_busy_s: self.busy_ps[1] as f64 / PS,
            net_busy_s: self.busy_ps[2] as f64 / PS,
            streamed_bytes: self.streamed,
            stored_bytes: self.stored,
            flops: self.flops,
            peak_buffer_bytes: self.peak_buffer,
            energy: self.energy,
            kernels: KernelKind::ALL
                .into_iter()
                .zip(self.kernels)
                .filter_map(|(k, s)| Some((k, s?)))
                .collect(),
            trace,
            plan: self.sim.plan,
            core_mem_bandwidth: self.sim.core.mem_bandwidth,
            core_peak_flops: self.sim.core.peak_flops(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_isa::{compile_decode_step, ShardPlan};
    use rpu_models::{DecodeWorkload, ModelConfig, MoeConfig};
    use rpu_util::assert_approx;

    fn run_model(
        model: &ModelConfig,
        batch: u32,
        seq: u32,
        n_cus: u32,
        config: SimConfig,
    ) -> SimReport {
        let prec = Precision::mxfp4_inference();
        let plan = ShardPlan::new(n_cus, 16);
        let prog = compile_decode_step(model, prec, batch, seq, &plan);
        Simulator::new(HbmCoConfig::candidate(), prec, plan, config)
            .run(&prog)
            .expect("simulation completes")
    }

    #[test]
    fn kernel_breakdown_lists_exactly_the_kernels_that_ran() {
        let prec = Precision::mxfp4_inference();
        let plan = ShardPlan::new(16, 16);
        let prog = compile_decode_step(&ModelConfig::llama3_8b(), prec, 2, 1024, &plan);
        let r = Simulator::new(HbmCoConfig::candidate(), prec, plan, SimConfig::default())
            .run(&prog)
            .expect("simulation completes");
        let ran: std::collections::HashSet<KernelKind> = prog.all().map(|i| i.kernel).collect();
        let keys: std::collections::HashSet<KernelKind> = r.kernels.keys().copied().collect();
        assert_eq!(keys, ran);
        let comp: f64 = r.kernels.values().map(|k| k.comp_busy_s).sum();
        assert_approx(comp, r.comp_busy_s, 1e-9, "per-kernel compute busy time");
    }

    #[test]
    fn bs1_is_memory_bandwidth_bound() {
        // §VI: "At batch size 1, the RPU saturates memory bandwidth and
        // achieves roofline performance."
        let r = run_model(
            &ModelConfig::llama3_8b(),
            1,
            16 * 1024,
            64,
            SimConfig::default(),
        );
        assert!(
            r.mem_bw_utilization() > 0.90,
            "BW util {}",
            r.mem_bw_utilization()
        );
        assert!(
            r.compute_utilization() < 0.25,
            "comp util {}",
            r.compute_utilization()
        );
    }

    #[test]
    fn streamed_bytes_match_program() {
        let prec = Precision::mxfp4_inference();
        let plan = ShardPlan::new(64, 16);
        let model = ModelConfig::llama3_8b();
        let prog = compile_decode_step(&model, prec, 1, 8192, &plan);
        let r = Simulator::new(HbmCoConfig::candidate(), prec, plan, SimConfig::default())
            .run(&prog)
            .unwrap();
        assert_approx(
            r.streamed_bytes as f64,
            prog.stats().weight_bytes,
            1e-9,
            "streamed bytes conservation",
        );
        assert_approx(
            r.stored_bytes as f64,
            prog.stats().store_bytes,
            1e-9,
            "stored bytes",
        );
    }

    #[test]
    fn moe_without_a_shared_expert_lowers_no_shared_block() {
        let mut model = ModelConfig::llama4_scout();
        model.moe = model.moe.map(|m| MoeConfig {
            shared_intermediate: 0,
            ..m
        });
        let prec = Precision::mxfp4_inference();
        let plan = ShardPlan::new(64, 16);
        let prog = compile_decode_step(&model, prec, 1, 16 * 1024, &plan);
        let shared = prog
            .all()
            .filter(|i| matches!(i.kernel, KernelKind::SharedGateUp | KernelKind::SharedDown))
            .count();
        assert_eq!(shared, 0, "shared-expert instructions");
        prog.validate_dataflow().expect("balanced dataflow");
        Simulator::new(HbmCoConfig::candidate(), prec, plan, SimConfig::default())
            .run(&prog)
            .expect("simulation completes");
        let wl = DecodeWorkload::new(&model, prec, 1, 16 * 1024);
        assert_approx(
            prog.stats().weight_bytes * plan.total_cores(),
            wl.weight_bytes() + wl.kv_read_bytes(),
            0.01,
            "streamed bytes",
        );
    }

    #[test]
    fn latency_bounded_below_by_roofline() {
        let model = ModelConfig::llama3_70b();
        let prec = Precision::mxfp4_inference();
        let r = run_model(&model, 1, 8192, 128, SimConfig::default());
        let wl = DecodeWorkload::new(&model, prec, 1, 8192);
        let plan_cores = 128.0 * 16.0;
        let roofline = wl.streaming_bytes() / plan_cores / 32e9;
        assert!(
            r.total_time_s >= roofline * 0.99,
            "{} < {roofline}",
            r.total_time_s
        );
        // ...and within 40 % of it (decoupling hides most stalls).
        assert!(
            r.total_time_s < roofline * 1.4,
            "{} vs {roofline}",
            r.total_time_s
        );
    }

    #[test]
    fn coupled_pipelines_are_slower() {
        let model = ModelConfig::llama3_8b();
        let fast = run_model(&model, 1, 8192, 64, SimConfig::default());
        let slow = run_model(
            &model,
            1,
            8192,
            64,
            SimConfig {
                coupled_pipelines: true,
                ..SimConfig::default()
            },
        );
        assert!(
            slow.total_time_s > 1.05 * fast.total_time_s,
            "coupled {} vs decoupled {}",
            slow.total_time_s,
            fast.total_time_s
        );
    }

    #[test]
    fn global_sync_is_slower() {
        let model = ModelConfig::llama3_8b();
        let fast = run_model(&model, 1, 8192, 64, SimConfig::default());
        let slow = run_model(
            &model,
            1,
            8192,
            64,
            SimConfig {
                global_sync: true,
                ..SimConfig::default()
            },
        );
        assert!(slow.total_time_s > fast.total_time_s);
    }

    #[test]
    fn bs32_has_compute_bound_phases() {
        // §VI Fig. 8 bottom: BS=32 alternates memory-bound KV$ phases and
        // compute-bound weight phases; overall compute utilisation rises
        // far above the BS=1 level.
        let r1 = run_model(&ModelConfig::llama3_8b(), 1, 8192, 64, SimConfig::default());
        let r32 = run_model(
            &ModelConfig::llama3_8b(),
            32,
            8192,
            64,
            SimConfig::default(),
        );
        assert!(r32.compute_utilization() > 4.0 * r1.compute_utilization());
        assert!(r32.total_time_s > r1.total_time_s);
    }

    #[test]
    fn buffer_occupancy_bounded_by_prefetch_window() {
        let r = run_model(&ModelConfig::llama3_8b(), 1, 8192, 64, SimConfig::default());
        // Peak occupancy stays within the SRAM budget plus one overshoot
        // publication.
        let cap = 512 * 1024 + 256 * 1024 + 64 * 1024 + 64 * 1024;
        assert!(
            r.peak_buffer_bytes <= cap,
            "peak buffer {}",
            r.peak_buffer_bytes
        );
        assert!(
            r.peak_buffer_bytes > 16 * 1024,
            "prefetching should fill buffers"
        );
    }

    #[test]
    fn memory_dominates_energy() {
        // Fig. 8: "Memory power dominates total system power".
        let r = run_model(
            &ModelConfig::llama3_8b(),
            1,
            16 * 1024,
            64,
            SimConfig::default(),
        );
        assert!(
            r.energy.memory_fraction() > 0.6,
            "mem fraction {}",
            r.energy.memory_fraction()
        );
    }

    #[test]
    fn energy_scales_with_system_size() {
        let r = run_model(&ModelConfig::llama3_8b(), 1, 8192, 64, SimConfig::default());
        let sys = r.system_energy_j();
        assert_approx(sys, r.energy.total() * 1024.0, 1e-9, "energy scaling");
    }

    #[test]
    fn traces_capture_utilisation() {
        let model = ModelConfig::llama3_8b();
        let r = run_model(
            &model,
            1,
            8192,
            64,
            SimConfig {
                trace_bin_s: Some(1e-6),
                ..SimConfig::default()
            },
        );
        let t = r.trace.as_ref().expect("trace enabled");
        assert!(!t.mem_util.is_empty());
        assert!(t.mem_util.iter().all(|&u| u <= 1.0 + 1e-6));
        // Average binned utilisation matches the aggregate number.
        let avg = t.mem_util.iter().sum::<f64>() / t.mem_util.len() as f64;
        assert!((avg - r.mem_busy_s / r.total_time_s).abs() < 0.15);
        assert!(!t.buffer_samples.is_empty());
        assert!(!t.power_w.is_empty());
    }

    #[test]
    fn two_level_ring_speeds_up_large_systems() {
        // §VIII future direction, wired end-to-end: hierarchical
        // collectives shorten broadcast-bound decode at 428 CUs.
        let model = ModelConfig::llama3_405b();
        let flat = run_model(&model, 1, 8192, 428, SimConfig::default());
        let two = run_model(
            &model,
            1,
            8192,
            428,
            SimConfig {
                two_level_ring: true,
                ..SimConfig::default()
            },
        );
        assert!(
            two.total_time_s < flat.total_time_s,
            "two-level {} vs flat {}",
            two.total_time_s,
            flat.total_time_s
        );
    }

    #[test]
    fn moe_model_simulates() {
        let r = run_model(
            &ModelConfig::llama4_maverick(),
            1,
            8192,
            64,
            SimConfig::default(),
        );
        assert!(r.total_time_s > 0.0);
        assert!(
            r.mem_bw_utilization() > 0.5,
            "BW util {}",
            r.mem_bw_utilization()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_model(&ModelConfig::llama3_8b(), 2, 4096, 32, SimConfig::default());
        let b = run_model(&ModelConfig::llama3_8b(), 2, 4096, 32, SimConfig::default());
        assert_eq!(a.total_time_s, b.total_time_s);
        assert_eq!(a.streamed_bytes, b.streamed_bytes);
    }
}
