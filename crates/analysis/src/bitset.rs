//! A dense fixed-capacity bit set used by the dataflow analyses.

/// A fixed-universe bit set over `0..len`.
///
/// All dataflow facts in this crate (live registers, defined registers,
/// live spill slots) are represented as `BitSet`s over a dense numbering.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with universe `0..len`.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of universe {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] = old | (1 << b);
        old & (1 << b) == 0
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of universe {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] = old & !(1 << b);
        old & (1 << b) != 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self ← self ∪ other`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ← self ∩ other`; returns `true` if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ← self \ other`; returns `true` if `self` changed.
    pub fn subtract(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a & !*b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to fit the largest element (universe = max + 1).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> BitSet {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0) && s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(129));
        assert!(!s.remove(129));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn union_intersect_subtract() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(1);
        a.insert(70);
        b.insert(70);
        b.insert(99);
        assert!(a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 70, 99]);
        assert!(!a.union_with(&b)); // no change the second time
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![70, 99]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let s: BitSet = [63usize, 64, 65, 127, 128].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![63, 64, 65, 127, 128]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn oob_insert_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn empty_universe() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
