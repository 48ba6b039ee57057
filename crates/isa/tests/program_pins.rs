//! Byte pins of the compiler and the kernel table.
//!
//! For every point of a grid (the five zoo presets x batch {1, 8, 32} x
//! context {1, 4096, 131072} x CUs {1, 16, 64}, 16 cores per CU, at
//! `Precision::mxfp4_inference()`) `program_digests.txt` records the
//! FNV-1a 64 digest of the compiled program's `Debug` text, its
//! instruction count, and the digest of the `Debug` text of
//! `layer_kernels` for every layer plus `lm_head_kernel`. `f64`'s
//! `Debug` round-trips, so equal text means equal bits: a refactor of the
//! lowering that keeps every line here moves no byte downstream.

use rpu_isa::{compile_decode_step, ShardPlan};
use rpu_models::{layer_kernels, lm_head_kernel, ModelConfig, Precision};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn pin_line(model: &ModelConfig, batch: u32, seq_len: u32, cus: u32) -> String {
    let p = Precision::mxfp4_inference();
    let program = compile_decode_step(model, p, batch, seq_len, &ShardPlan::new(cus, 16));
    let kernels: Vec<_> = (0..model.num_layers)
        .map(|layer| layer_kernels(model, p, batch, seq_len, layer))
        .collect();
    let head = lm_head_kernel(model, p, batch);
    format!(
        "{} {batch} {seq_len} {cus} {:016x} {} {:016x}",
        model.name,
        fnv1a(&format!("{program:?}")),
        program.stats().instructions,
        fnv1a(&format!("{kernels:?} {head:?}")),
    )
}

#[test]
fn compiled_programs_and_kernel_tables_match_their_pins() {
    let pinned: Vec<&str> = include_str!("program_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    let mut lines = Vec::new();
    for model in ModelConfig::zoo() {
        for batch in [1, 8, 32] {
            for seq_len in [1, 4096, 131_072] {
                for cus in [1, 16, 64] {
                    lines.push(pin_line(&model, batch, seq_len, cus));
                }
            }
        }
    }
    assert_eq!(lines.len(), 135);
    assert_eq!(pinned.len(), lines.len(), "pin table length");
    for (got, want) in lines.iter().zip(&pinned) {
        assert_eq!(got, want, "program or kernel table moved");
    }
}
