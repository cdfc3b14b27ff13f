//! Gorilla-style value compression (Facebook's in-memory TSDB, VLDB
//! 2015 §4.1.2): XOR'd IEEE-754 values over a packed bit stream.
//!
//! The cold tier of [`crate::TieredSeries`] freezes blocks of samples
//! with this codec. It is **lossless to the bit**: decoding returns
//! exactly the `f64` bit patterns that went in (NaN payloads included),
//! which is what lets the tiered store promise bit-identical reads.

/// An append-only bit stream backed by 64-bit words.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BitWriter {
    words: Vec<u64>,
    /// Bits used in the last word (0 when the stream is word-aligned).
    used: u32,
}

impl BitWriter {
    /// An empty stream.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `n` bits of `value`, most-significant first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "at most one word per write");
        if n == 0 {
            return;
        }
        let value = if n == 64 {
            value
        } else {
            value & ((1 << n) - 1)
        };
        if self.used == 0 {
            self.words.push(0);
        }
        let free = 64 - self.used;
        let last = self.words.last_mut().expect("word pushed above");
        if n <= free {
            *last |= value << (free - n);
            self.used = (self.used + n) % 64;
        } else {
            let hi = n - free;
            *last |= value >> hi;
            self.words.push(value << (64 - hi));
            self.used = hi;
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Total bits written.
    pub fn bit_len(&self) -> u64 {
        if self.used == 0 {
            self.words.len() as u64 * 64
        } else {
            (self.words.len() as u64 - 1) * 64 + self.used as u64
        }
    }

    /// Heap bytes backing the stream.
    pub fn approx_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Drops excess capacity (a frozen block never grows again).
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }

    /// A cursor over the written bits.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader {
            words: &self.words,
            pos: 0,
        }
    }
}

/// A sequential cursor over a [`BitWriter`]'s bits.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u64],
    pos: u64,
}

impl BitReader<'_> {
    /// Reads the next `n` bits as the low bits of a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the stream has fewer than `n` bits left or `n > 64`.
    pub fn read_bits(&mut self, n: u32) -> u64 {
        assert!(n <= 64, "at most one word per read");
        if n == 0 {
            return 0;
        }
        let word = (self.pos / 64) as usize;
        let offset = (self.pos % 64) as u32;
        self.pos += n as u64;
        let free = 64 - offset;
        if n <= free {
            let shifted = self.words[word] << offset;
            shifted >> (64 - n)
        } else {
            let hi = (self.words[word] << offset) >> (64 - n);
            let lo = self.words[word + 1] >> (64 - (n - free));
            hi | lo
        }
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> bool {
        self.read_bits(1) == 1
    }
}

/// Streaming XOR compressor for `f64` values (Gorilla §4.1.2).
///
/// The first value is stored raw; each later value stores the XOR with
/// its predecessor — `0` for a repeat, otherwise a control bit plus
/// either the previous meaningful-bit window or a fresh
/// `(leading, length)` header and the meaningful bits.
#[derive(Debug, Clone)]
pub struct ValueEncoder {
    prev: u64,
    leading: u32,
    meaningful: u32,
    count: usize,
}

impl ValueEncoder {
    /// A fresh encoder (no values seen).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        ValueEncoder {
            prev: 0,
            // An impossible window forces the first XOR to write a header.
            leading: u32::MAX,
            meaningful: 0,
            count: 0,
        }
    }

    /// Appends one value to `out`.
    pub fn push(&mut self, value: f64, out: &mut BitWriter) {
        let bits = value.to_bits();
        if self.count == 0 {
            out.write_bits(bits, 64);
            self.prev = bits;
            self.count = 1;
            return;
        }
        let xor = self.prev ^ bits;
        self.prev = bits;
        self.count += 1;
        if xor == 0 {
            out.write_bit(false);
            return;
        }
        out.write_bit(true);
        // Cap leading at 31 so it fits the 5-bit header.
        let leading = xor.leading_zeros().min(31);
        let trailing = xor.trailing_zeros();
        let meaningful = 64 - leading - trailing;
        let prev_trailing = 64u32.saturating_sub(self.leading + self.meaningful);
        if self.leading != u32::MAX
            && leading >= self.leading
            && trailing >= prev_trailing
            && self.meaningful > 0
        {
            // Reuse the previous window: control 0 + the meaningful bits.
            out.write_bit(false);
            out.write_bits(xor >> prev_trailing, self.meaningful);
        } else {
            // New window: control 1 + 5-bit leading + 6-bit (length − 1).
            out.write_bit(true);
            out.write_bits(leading as u64, 5);
            out.write_bits((meaningful - 1) as u64, 6);
            out.write_bits(xor >> trailing, meaningful);
            self.leading = leading;
            self.meaningful = meaningful;
        }
    }
}

/// Streaming decoder mirroring [`ValueEncoder`].
#[derive(Debug, Clone)]
pub struct ValueDecoder {
    prev: u64,
    leading: u32,
    meaningful: u32,
    count: usize,
}

impl ValueDecoder {
    /// A fresh decoder.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        ValueDecoder {
            prev: 0,
            leading: 0,
            meaningful: 0,
            count: 0,
        }
    }

    /// Decodes the next value from `bits`.
    pub fn next(&mut self, bits: &mut BitReader<'_>) -> f64 {
        if self.count == 0 {
            self.prev = bits.read_bits(64);
            self.count = 1;
            return f64::from_bits(self.prev);
        }
        self.count += 1;
        if !bits.read_bit() {
            return f64::from_bits(self.prev);
        }
        if bits.read_bit() {
            self.leading = bits.read_bits(5) as u32;
            self.meaningful = bits.read_bits(6) as u32 + 1;
        }
        let trailing = 64 - self.leading - self.meaningful;
        let xor = bits.read_bits(self.meaningful) << trailing;
        self.prev ^= xor;
        f64::from_bits(self.prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_values(values: &[f64]) {
        let mut out = BitWriter::new();
        let mut enc = ValueEncoder::new();
        for &v in values {
            enc.push(v, &mut out);
        }
        let mut bits = out.reader();
        let mut dec = ValueDecoder::new();
        for (i, &want) in values.iter().enumerate() {
            let got = dec.next(&mut bits);
            assert_eq!(got.to_bits(), want.to_bits(), "value {i}");
        }
    }

    #[test]
    fn bit_writer_round_trips_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(u64::MAX, 64);
        w.write_bit(false);
        w.write_bits(0xdead_beef, 32);
        assert_eq!(w.bit_len(), 3 + 64 + 1 + 32);
        let mut r = w.reader();
        assert_eq!(r.read_bits(3), 0b101);
        assert_eq!(r.read_bits(64), u64::MAX);
        assert!(!r.read_bit());
        assert_eq!(r.read_bits(32), 0xdead_beef);
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        roundtrip_values(&[1.0, 1.0, 1.5, -2.25, 0.0, -0.0, 1e300, 1e-300]);
        roundtrip_values(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 42.0]);
        let smooth: Vec<f64> = (0..500).map(|t| 40.0 + ((t * 3) % 5) as f64).collect();
        roundtrip_values(&smooth);
    }

    #[test]
    fn repeated_values_cost_one_bit() {
        let mut out = BitWriter::new();
        let mut enc = ValueEncoder::new();
        for _ in 0..1000 {
            enc.push(37.5, &mut out);
        }
        assert_eq!(out.bit_len(), 64 + 999);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary f64 bit patterns round-trip exactly.
        #[test]
        fn value_codec_is_lossless(bits in proptest::collection::vec(0u64..=u64::MAX, 1..200)) {
            let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let mut out = BitWriter::new();
            let mut enc = ValueEncoder::new();
            for &v in &values {
                enc.push(v, &mut out);
            }
            let mut r = out.reader();
            let mut dec = ValueDecoder::new();
            for &want in &values {
                prop_assert_eq!(dec.next(&mut r).to_bits(), want.to_bits());
            }
        }
    }
}
