//! Numeric datatypes and block-quantised format accounting.

use std::fmt;

/// Numeric datatype, including the block-quantised formats the RPU's
/// stream decoder dequantises on the fly (§V, "Stream Decoder").
///
/// Block formats share an exponent across a block of values; their
/// effective bits per value include that amortised overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE-754 single precision.
    Fp32,
    /// Brain float 16.
    Bf16,
    /// 8-bit float (E4M3/E5M2 class).
    Fp8,
    /// Microscaling FP4: 4-bit elements, 8-bit scale per 32-element block.
    Mxfp4,
    /// Microscaling FP6.
    Mxfp6,
    /// Microscaling FP8.
    Mxfp8,
    /// Nanoscaling FP4 (NxFP, ref 39): adaptive micro-exponents, slightly
    /// denser than MXFP4.
    Nxfp4,
    /// Block floating point with 8-bit mantissas (BFP, ref 53).
    Bfp8,
}

impl DType {
    /// Effective storage bits per value, including amortised block-scale
    /// overhead for block formats.
    #[must_use]
    pub fn bits_per_value(self) -> f64 {
        match self {
            DType::Fp32 => 32.0,
            DType::Bf16 => 16.0,
            DType::Fp8 => 8.0,
            // 4-bit elements; the paper's capacity and traffic accounting
            // treats MXFP4/NxFP4 as flat 4-bit ("4-bit weights" [18]),
            // with the per-32-element shared exponents folded into the
            // 4-bit budget. We follow that convention so the Fig. 9
            // capacity anchors (405B fits 64 CUs at 192 MiB/core) hold.
            DType::Mxfp4 => 4.0,
            DType::Mxfp6 => 6.0 + 8.0 / 32.0,
            DType::Mxfp8 => 8.0 + 8.0 / 32.0,
            DType::Nxfp4 => 4.0,
            // BFP-8: 8-bit mantissa + shared 8-bit exponent per 16 values.
            DType::Bfp8 => 8.0 + 8.0 / 16.0,
        }
    }

    /// Effective bytes per value.
    #[must_use]
    pub fn bytes_per_value(self) -> f64 {
        self.bits_per_value() / 8.0
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Fp32 => "FP32",
            DType::Bf16 => "BF16",
            DType::Fp8 => "FP8",
            DType::Mxfp4 => "MXFP4",
            DType::Mxfp6 => "MXFP6",
            DType::Mxfp8 => "MXFP8",
            DType::Nxfp4 => "NxFP4",
            DType::Bfp8 => "BFP8",
        };
        f.write_str(s)
    }
}

/// Precision assignment for an inference deployment: weights, activations
/// and KV-cache datatypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Precision {
    /// Weight storage format (streamed from memory).
    pub weights: DType,
    /// Activation format (on-chip and over the network).
    pub activations: DType,
    /// KV-cache storage format.
    pub kv_cache: DType,
}

impl Precision {
    /// The paper's headline RPU deployment: MXFP4 weights, BF16
    /// activations, FP8 KV cache (Fig. 8 caption).
    #[must_use]
    pub fn mxfp4_inference() -> Self {
        Self {
            weights: DType::Mxfp4,
            activations: DType::Bf16,
            kv_cache: DType::Fp8,
        }
    }

    /// The GPU-baseline deployment of §VIII: 4-bit weights with 16-bit
    /// activations (MARLIN-style, ref 18) and FP8 KV cache.
    #[must_use]
    pub fn gpu_w4a16() -> Self {
        Self::mxfp4_inference()
    }

    /// Full BF16 deployment (used for the §II characterisation kernels).
    #[must_use]
    pub fn bf16() -> Self {
        Self {
            weights: DType::Bf16,
            activations: DType::Bf16,
            kv_cache: DType::Bf16,
        }
    }

    /// FP8 weights with BF16 activations (the §II Llama3-70B profile).
    #[must_use]
    pub fn fp8_weights() -> Self {
        Self {
            weights: DType::Fp8,
            activations: DType::Bf16,
            kv_cache: DType::Fp8,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} weights | {} act | {} KV$",
            self.weights, self.activations, self.kv_cache
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mxfp4_is_flat_four_bit() {
        assert!((DType::Mxfp4.bits_per_value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn four_bit_formats_agree() {
        assert!((DType::Nxfp4.bits_per_value() - DType::Mxfp4.bits_per_value()).abs() < 1e-12);
        assert!(DType::Mxfp6.bits_per_value() > 6.0);
    }

    #[test]
    fn bytes_per_value_consistency() {
        for d in [
            DType::Fp32,
            DType::Bf16,
            DType::Fp8,
            DType::Mxfp4,
            DType::Mxfp6,
            DType::Mxfp8,
            DType::Nxfp4,
            DType::Bfp8,
        ] {
            assert!((d.bytes_per_value() * 8.0 - d.bits_per_value()).abs() < 1e-12);
            assert!(d.bits_per_value() > 0.0);
        }
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(DType::Mxfp4.to_string(), "MXFP4");
        assert_eq!(
            Precision::mxfp4_inference().to_string(),
            "MXFP4 weights | BF16 act | FP8 KV$"
        );
    }
}
