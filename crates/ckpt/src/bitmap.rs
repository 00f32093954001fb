//! A compact criticality bitmap: one bit per checkpoint element.
//!
//! Bit `i` set ⇔ element `i` is critical (has non-zero impact on the
//! output, per the paper's definition in §III.A).

/// Fixed-length bit vector over element indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-clear bitmap of `len` elements.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-set bitmap (everything critical — the conservative default).
    pub fn full(len: usize) -> Self {
        let mut b = Self::new(len);
        for i in 0..len {
            b.set(i, true);
        }
        b
    }

    /// Build from a predicate over element indices.
    pub fn from_fn(len: usize, mut pred: impl FnMut(usize) -> bool) -> Self {
        let mut b = Self::new(len);
        for i in 0..len {
            if pred(i) {
                b.set(i, true);
            }
        }
        b
    }

    /// Number of elements (bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length bitmap.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Number of set (critical) bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear (uncritical) bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Fraction of clear bits — the paper's "uncritical rate" (Table II).
    pub fn uncritical_rate(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_zeros() as f64 / self.len as f64
        }
    }

    /// Indices whose bits differ from `other`.
    pub fn diff_indices(&self, other: &Bitmap) -> Vec<usize> {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        (0..self.len)
            .filter(|&i| self.get(i) != other.get(i))
            .collect()
    }

    /// Iterator over all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterator over indices of set bits.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Iterator over indices of clear bits.
    pub fn zeros(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| !self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::new(130);
        for i in (0..130).step_by(3) {
            b.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn counts_and_rate() {
        let b = Bitmap::from_fn(100, |i| i < 85);
        assert_eq!(b.count_ones(), 85);
        assert_eq!(b.count_zeros(), 15);
        assert!((b.uncritical_rate() - 0.15).abs() < 1e-15);
    }

    #[test]
    fn full_is_all_ones() {
        let b = Bitmap::full(77);
        assert_eq!(b.count_ones(), 77);
        assert_eq!(b.uncritical_rate(), 0.0);
    }

    #[test]
    fn diff_indices_finds_mismatches() {
        let a = Bitmap::from_fn(10, |i| i < 5);
        let b = Bitmap::from_fn(10, |i| i < 7);
        assert_eq!(a.diff_indices(&b), vec![5, 6]);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.uncritical_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        Bitmap::new(8).get(8);
    }
}
