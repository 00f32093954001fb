//! Run-length regions: the auxiliary file's data model.
//!
//! The paper (§III.B): *"The auxiliary file only records the start and end
//! locations of the region of continuous critical elements."* `Regions` is
//! that list — sorted, disjoint, half-open `[start, end)` element ranges —
//! with conversions from/to [`Bitmap`] and the set operations the planner
//! needs.

use crate::Bitmap;

/// One contiguous run of critical elements, half-open `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First element index in the run.
    pub start: u64,
    /// One past the last element index.
    pub end: u64,
}

impl Region {
    /// Number of elements covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the region covers nothing (not a valid stored region).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A sorted, disjoint set of [`Region`]s.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Regions {
    runs: Vec<Region>,
}

impl Regions {
    /// Empty region set (nothing critical).
    pub fn empty() -> Self {
        Regions { runs: Vec::new() }
    }

    /// A single run covering `[0, total)` (everything critical).
    pub fn all(total: u64) -> Self {
        if total == 0 {
            Self::empty()
        } else {
            Regions {
                runs: vec![Region {
                    start: 0,
                    end: total,
                }],
            }
        }
    }

    /// Build from an explicit run list; panics unless sorted, disjoint and
    /// non-empty per run (the invariants the binary format relies on).
    pub fn from_runs(runs: Vec<Region>) -> Self {
        let mut prev_end = 0u64;
        for (i, r) in runs.iter().enumerate() {
            assert!(!r.is_empty(), "region {i} is empty: {r:?}");
            assert!(
                i == 0 || r.start > prev_end,
                "region {i} overlaps or touches its predecessor (merge required): {r:?}"
            );
            prev_end = r.end;
        }
        Regions { runs }
    }

    /// Run-length encode a criticality bitmap (set bits become regions).
    pub fn from_bitmap(bits: &Bitmap) -> Self {
        let mut runs = Vec::new();
        let mut start: Option<usize> = None;
        for i in 0..bits.len() {
            match (bits.get(i), start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    runs.push(Region {
                        start: s as u64,
                        end: i as u64,
                    });
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            runs.push(Region {
                start: s as u64,
                end: bits.len() as u64,
            });
        }
        Regions { runs }
    }

    /// Expand back to a bitmap of `total` elements (the inverse
    /// [`Regions::from_bitmap`] is tested against).
    #[cfg(test)]
    pub(crate) fn to_bitmap(&self, total: usize) -> Bitmap {
        let mut b = Bitmap::new(total);
        for r in &self.runs {
            for i in r.start..r.end {
                b.set(i as usize, true);
            }
        }
        b
    }

    /// The underlying run list.
    pub fn runs(&self) -> &[Region] {
        &self.runs
    }

    /// Number of runs — the auxiliary file stores two u64 per run, so this
    /// drives the auxiliary storage cost.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total number of covered (critical) elements.
    pub fn covered(&self) -> u64 {
        self.runs.iter().map(Region::len).sum()
    }

    /// True when no element is covered.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Does the set contain element `i`?
    pub fn contains(&self, i: u64) -> bool {
        // Runs are sorted: binary search by start.
        self.runs
            .binary_search_by(|r| {
                if i < r.start {
                    std::cmp::Ordering::Greater
                } else if i >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Iterate all covered element indices in ascending order.
    pub fn indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|r| r.start..r.end)
    }

    /// The sub-set covering stored-order (covered) elements `k0..k1`: the
    /// `k`-th covered element of `self` is covered by the result iff
    /// `k0 <= k < k1`. This is how the sharded serializer splits one
    /// variable's payload into independently serializable element ranges
    /// in O(runs) instead of iterating every index.
    pub fn covered_range(&self, k0: u64, k1: u64) -> Regions {
        assert!(k0 <= k1, "covered_range bounds reversed: {k0} > {k1}");
        let mut runs = Vec::new();
        let mut seen = 0u64; // covered elements strictly before this run
        for r in &self.runs {
            let len = r.len();
            let lo = k0.saturating_sub(seen).min(len);
            let hi = k1.saturating_sub(seen).min(len);
            if lo < hi {
                runs.push(Region {
                    start: r.start + lo,
                    end: r.start + hi,
                });
            }
            seen += len;
            if seen >= k1 {
                break;
            }
        }
        Regions { runs }
    }

    /// Complement within `[0, total)` — the uncritical regions.
    pub fn complement(&self, total: u64) -> Regions {
        let mut runs = Vec::new();
        let mut cursor = 0u64;
        for r in &self.runs {
            if r.start > cursor {
                runs.push(Region {
                    start: cursor,
                    end: r.start,
                });
            }
            cursor = r.end;
        }
        if cursor < total {
            runs.push(Region {
                start: cursor,
                end: total,
            });
        }
        Regions { runs }
    }

    /// Set union of two region sets.
    pub fn union(&self, other: &Regions) -> Regions {
        let mut all: Vec<Region> = self.runs.iter().chain(&other.runs).copied().collect();
        all.sort_by_key(|r| r.start);
        let mut merged: Vec<Region> = Vec::with_capacity(all.len());
        for r in all {
            match merged.last_mut() {
                Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
                _ => merged.push(r),
            }
        }
        Regions { runs: merged }
    }

    /// Set intersection of two region sets.
    pub fn intersect(&self, other: &Regions) -> Regions {
        let mut runs = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let a = self.runs[i];
            let b = other.runs[j];
            let start = a.start.max(b.start);
            let end = a.end.min(b.end);
            if start < end {
                runs.push(Region { start, end });
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        Regions { runs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(pattern: &[u8]) -> Bitmap {
        Bitmap::from_fn(pattern.len(), |i| pattern[i] == 1)
    }

    #[test]
    fn encode_simple_runs() {
        let r = Regions::from_bitmap(&bm(&[1, 1, 0, 0, 1, 0, 1, 1, 1]));
        assert_eq!(
            r.runs(),
            &[
                Region { start: 0, end: 2 },
                Region { start: 4, end: 5 },
                Region { start: 6, end: 9 }
            ]
        );
        assert_eq!(r.covered(), 6);
        assert_eq!(r.run_count(), 3);
    }

    #[test]
    fn roundtrip_bitmap() {
        let b = bm(&[0, 1, 1, 0, 1, 0, 0, 1]);
        assert_eq!(Regions::from_bitmap(&b).to_bitmap(8), b);
    }

    #[test]
    fn all_and_empty() {
        assert_eq!(Regions::all(10).covered(), 10);
        assert_eq!(Regions::all(0).run_count(), 0);
        assert!(Regions::empty().is_empty());
    }

    #[test]
    fn complement_splits_gaps() {
        let r = Regions::from_runs(vec![
            Region { start: 2, end: 4 },
            Region { start: 7, end: 9 },
        ]);
        let c = r.complement(12);
        assert_eq!(
            c.runs(),
            &[
                Region { start: 0, end: 2 },
                Region { start: 4, end: 7 },
                Region { start: 9, end: 12 }
            ]
        );
        assert_eq!(r.covered() + c.covered(), 12);
    }

    #[test]
    fn contains_uses_binary_search() {
        let r = Regions::from_runs(vec![
            Region { start: 5, end: 8 },
            Region { start: 20, end: 21 },
        ]);
        for i in 0..30u64 {
            assert_eq!(r.contains(i), (5..8).contains(&i) || i == 20, "index {i}");
        }
    }

    #[test]
    fn union_merges_touching() {
        let a = Regions::from_runs(vec![Region { start: 0, end: 5 }]);
        let b = Regions::from_runs(vec![Region { start: 5, end: 9 }]);
        assert_eq!(a.union(&b).runs(), &[Region { start: 0, end: 9 }]);
    }

    #[test]
    fn intersect_overlapping() {
        let a = Regions::from_runs(vec![
            Region { start: 0, end: 10 },
            Region { start: 20, end: 30 },
        ]);
        let b = Regions::from_runs(vec![Region { start: 5, end: 25 }]);
        assert_eq!(
            a.intersect(&b).runs(),
            &[Region { start: 5, end: 10 }, Region { start: 20, end: 25 }]
        );
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn from_runs_rejects_overlap() {
        Regions::from_runs(vec![
            Region { start: 0, end: 5 },
            Region { start: 4, end: 6 },
        ]);
    }

    #[test]
    fn covered_range_splits_stored_order() {
        let r = Regions::from_runs(vec![
            Region { start: 2, end: 5 },   // covered elems 0,1,2
            Region { start: 9, end: 10 },  // covered elem 3
            Region { start: 20, end: 24 }, // covered elems 4..8
        ]);
        let all: Vec<u64> = r.indices().collect();
        for k0 in 0..=all.len() {
            for k1 in k0..=all.len() {
                let sub = r.covered_range(k0 as u64, k1 as u64);
                let got: Vec<u64> = sub.indices().collect();
                assert_eq!(got, &all[k0..k1], "range {k0}..{k1}");
            }
        }
        // Out-of-bounds upper end is clamped.
        assert_eq!(r.covered_range(6, 100).covered(), 2);
    }

    #[test]
    fn indices_iterates_in_order() {
        let r = Regions::from_bitmap(&bm(&[1, 0, 1, 1]));
        assert_eq!(r.indices().collect::<Vec<_>>(), vec![0, 2, 3]);
    }
}
