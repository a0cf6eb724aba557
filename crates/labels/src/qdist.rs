use ron_core::bits::index_bits;

/// A distance quantized to a mantissa/exponent pair (proofs of
/// Theorems 3.2 and 3.4).
///
/// The paper stores distances "as a `O(log 1/delta)`-bit mantissa and
/// `O(log log Delta)`-bit exponent": enough precision that sums of two
/// encoded distances stay `(1+delta)`-accurate (footnote 11 warns that
/// *differences* are not protected, which is why the labeling schemes use
/// the upper bound `D+` only).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct EncodedDistance {
    /// Power-of-two exponent, `i32::MIN` encodes the distance 0.
    exp: i32,
    /// Mantissa in `[2^mb, 2^(mb+1))` for mantissa bits `mb`.
    man: u32,
}

impl EncodedDistance {
    /// The encoding of distance zero.
    pub const ZERO: EncodedDistance = EncodedDistance {
        exp: i32::MIN,
        man: 0,
    };

    /// Whether this encodes the distance 0.
    fn is_zero(self) -> bool {
        self.exp == i32::MIN
    }
}

/// Encoder/decoder for quantized distances with a fixed mantissa width.
///
/// Encoding **rounds up**, so decoded values never undershoot: the label
/// estimates stay valid upper bounds, and Theorem 4.1's requirement of a
/// *non-contracting* distance function on labels holds by construction.
///
/// # Example
///
/// ```
/// use ron_labels::DistanceCodec;
///
/// let codec = DistanceCodec::for_delta(0.1);
/// let d = 123.456;
/// let round_trip = codec.decode(codec.encode(d));
/// assert!(round_trip >= d);
/// assert!(round_trip <= d * 1.1);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DistanceCodec {
    mantissa_bits: u32,
}

impl DistanceCodec {
    /// A codec whose relative error is at most `delta` (in fact at most
    /// `2^-(ceil(log2(1/delta)))` `<= delta`).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1)`.
    #[must_use]
    pub fn for_delta(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        let mantissa_bits = (1.0 / delta).log2().ceil().max(1.0) as u32;
        Self::with_mantissa_bits(mantissa_bits)
    }

    /// A codec with an explicit mantissa width (1..=32 bits).
    ///
    /// # Panics
    ///
    /// Panics if `mantissa_bits` is 0 or exceeds 31.
    #[must_use]
    pub fn with_mantissa_bits(mantissa_bits: u32) -> Self {
        assert!(
            (1..=31).contains(&mantissa_bits),
            "mantissa width out of range"
        );
        DistanceCodec { mantissa_bits }
    }

    /// The mantissa width in bits.
    #[must_use]
    pub fn mantissa_bits(self) -> u32 {
        self.mantissa_bits
    }

    /// Worst-case relative error of `decode(encode(d)) / d - 1`.
    #[must_use]
    pub fn relative_error(self) -> f64 {
        (0.5f64).powi(self.mantissa_bits as i32)
    }

    /// Encodes a nonnegative finite distance, rounding up.
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative or not finite.
    #[must_use]
    pub fn encode(self, d: f64) -> EncodedDistance {
        assert!(
            d.is_finite() && d >= 0.0,
            "distance must be finite and nonnegative"
        );
        if d == 0.0 {
            return EncodedDistance::ZERO;
        }
        let mb = self.mantissa_bits;
        // d = frac * 2^exp with frac in [1, 2).
        let exp = d.log2().floor() as i32;
        let frac = d / (2.0f64).powi(exp);
        // Round the mantissa up to keep decode >= d.
        let man = (frac * (1u64 << mb) as f64).ceil() as u64;
        if man >= (1u64 << (mb + 1)) {
            // Rounding crossed a power of two.
            EncodedDistance {
                exp: exp + 1,
                man: 1u32 << mb,
            }
        } else {
            EncodedDistance {
                exp,
                man: man as u32,
            }
        }
    }

    /// Decodes a quantized distance.
    #[must_use]
    pub fn decode(self, e: EncodedDistance) -> f64 {
        if e.is_zero() {
            return 0.0;
        }
        let mb = self.mantissa_bits;
        e.man as f64 / (1u64 << mb) as f64 * (2.0f64).powi(e.exp)
    }

    /// Bits per stored distance under the paper's encoding: the mantissa
    /// plus an exponent field covering the `log2(Delta) + O(1)` distinct
    /// scales of a metric with aspect ratio `Delta` — i.e.
    /// `O(log 1/delta) + O(log log Delta)` bits.
    #[must_use]
    pub fn bits_per_distance(self, aspect_ratio: f64) -> u64 {
        let scales = aspect_ratio.max(2.0).log2().ceil() as usize + 2;
        self.mantissa_bits as u64 + index_bits(scales)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_round_trips() {
        let codec = DistanceCodec::for_delta(0.25);
        assert_eq!(codec.decode(codec.encode(0.0)), 0.0);
        assert!(codec.encode(0.0).is_zero());
    }

    #[test]
    fn decode_never_undershoots() {
        let codec = DistanceCodec::for_delta(0.1);
        for &d in &[1e-9, 0.3, 1.0, 1.999, 2.0, 123.456, 1e18] {
            let r = codec.decode(codec.encode(d));
            assert!(r >= d, "decode({d}) = {r} undershoots");
            assert!(r <= d * (1.0 + codec.relative_error()) * (1.0 + 1e-12));
        }
    }

    #[test]
    fn power_of_two_boundary() {
        let codec = DistanceCodec::with_mantissa_bits(4);
        // A value just below 2.0 rounds up across the boundary.
        let e = codec.encode(1.9999999);
        assert_eq!(codec.decode(e), 2.0);
    }

    #[test]
    fn exact_powers_encode_exactly() {
        let codec = DistanceCodec::with_mantissa_bits(8);
        for p in [-5i32, 0, 1, 10] {
            let d = (2.0f64).powi(p);
            assert_eq!(codec.decode(codec.encode(d)), d);
        }
    }

    #[test]
    fn delta_controls_error() {
        for delta in [0.5, 0.25, 0.1, 0.01] {
            let codec = DistanceCodec::for_delta(delta);
            assert!(codec.relative_error() <= delta);
        }
    }

    #[test]
    fn sums_of_encoded_distances_stay_accurate() {
        // The paper's observation: if x', y' are (1+delta)-approximations
        // from above, x' + y' approximates x + y within (1+delta).
        let codec = DistanceCodec::for_delta(0.05);
        let (x, y) = (3.7, 91.2);
        let sum = codec.decode(codec.encode(x)) + codec.decode(codec.encode(y));
        assert!(sum >= x + y);
        assert!(sum <= (x + y) * 1.05);
    }

    #[test]
    fn bits_accounting_grows_with_log_log_aspect() {
        let codec = DistanceCodec::for_delta(0.25);
        let small = codec.bits_per_distance(16.0);
        let huge = codec.bits_per_distance(1e30);
        assert!(small < huge);
        // log2(1e30) ~ 100 scales -> 7 exponent bits.
        assert_eq!(huge, codec.mantissa_bits() as u64 + 7);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_distance() {
        let _ = DistanceCodec::for_delta(0.5).encode(f64::INFINITY);
    }
}
