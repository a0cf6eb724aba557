//! Bit-size accounting for the paper's storage bounds.
//!
//! The paper measures routing tables, routing labels and packet headers in
//! bits, under concrete encodings (e.g. a translation function costs
//! `K^2 ceil(log K)` bits, a first-hop pointer `ceil(log Dout)` bits, a
//! quantized distance a mantissa plus exponent). The benchmark harness
//! recomputes every table of the paper with these encodings applied to the
//! *actual* data structures, via the helpers here.

use std::fmt;

/// Bits needed to index one of `k` alternatives: `ceil(log2 k)`, with the
/// conventions `index_bits(0) = index_bits(1) = 0`.
///
/// # Example
///
/// ```
/// use ron_core::bits::index_bits;
///
/// assert_eq!(index_bits(1), 0);
/// assert_eq!(index_bits(2), 1);
/// assert_eq!(index_bits(5), 3);
/// assert_eq!(index_bits(1024), 10);
/// ```
#[must_use]
pub fn index_bits(k: usize) -> u64 {
    if k <= 1 {
        return 0;
    }
    let mut bits = 0u64;
    let mut cap = 1usize;
    while cap < k {
        // cap < k <= usize::MAX, and k is reachable by doubling from 1,
        // saturating to avoid overflow at the top bit.
        cap = cap.saturating_mul(2);
        bits += 1;
    }
    bits
}

/// Bits for a global node identifier among `n` nodes: `ceil(log2 n)`, at
/// least 1 (an ID field exists even for tiny networks).
#[must_use]
pub fn id_bits(n: usize) -> u64 {
    index_bits(n).max(1)
}

/// An itemized bit count with named components.
///
/// Reports render like
/// `first-hop pointers: 420 bits; translation maps: 1337 bits`.
///
/// # Example
///
/// ```
/// use ron_core::bits::SizeReport;
///
/// let mut report = SizeReport::new("routing table");
/// report.add("pointers", 420);
/// report.add("maps", 1337);
/// assert_eq!(report.total_bits(), 1757);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SizeReport {
    name: String,
    parts: Vec<(String, u64)>,
}

impl SizeReport {
    /// Starts an empty report with a display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        SizeReport {
            name: name.into(),
            parts: Vec::new(),
        }
    }

    /// Adds a named component (accumulates if the name repeats).
    pub fn add(&mut self, part: impl Into<String>, bits: u64) {
        let part = part.into();
        if let Some(entry) = self.parts.iter_mut().find(|(p, _)| *p == part) {
            entry.1 += bits;
        } else {
            self.parts.push((part, bits));
        }
    }

    /// Merges another report's components into this one.
    pub fn merge(&mut self, other: &SizeReport) {
        for (part, bits) in &other.parts {
            self.add(part.clone(), *bits);
        }
    }

    /// The report's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The named components in insertion order.
    #[must_use]
    pub fn parts(&self) -> &[(String, u64)] {
        &self.parts
    }

    /// Sum of all components, in bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.parts.iter().map(|(_, b)| b).sum()
    }
}

impl fmt::Display for SizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} bits", self.name, self.total_bits())?;
        if !self.parts.is_empty() {
            write!(f, " (")?;
            for (i, (part, bits)) in self.parts.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{part}: {bits}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_bits_edge_cases() {
        assert_eq!(index_bits(0), 0);
        assert_eq!(index_bits(1), 0);
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(3), 2);
        assert_eq!(index_bits(4), 2);
        assert_eq!(index_bits(usize::MAX), usize::BITS as u64);
    }

    #[test]
    fn id_bits_has_floor_one() {
        assert_eq!(id_bits(1), 1);
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(1000), 10);
    }

    #[test]
    fn report_accumulates_and_merges() {
        let mut a = SizeReport::new("a");
        a.add("x", 10);
        a.add("x", 5);
        a.add("y", 1);
        assert_eq!(a.total_bits(), 16);
        assert_eq!(a.parts().len(), 2);

        let mut b = SizeReport::new("b");
        b.add("y", 9);
        a.merge(&b);
        assert_eq!(a.total_bits(), 25);
    }

    #[test]
    fn display_mentions_components() {
        let mut r = SizeReport::new("table");
        r.add("ptrs", 8);
        let text = r.to_string();
        assert!(text.contains("table"));
        assert!(text.contains("ptrs: 8"));
    }
}
