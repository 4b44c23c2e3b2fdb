//! Dense fixed-capacity bit sets used by the dataflow analyses: one set
//! ([`BitSet`]) and one set per row of a flat table ([`BitRows`]).

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

    /// Creates the full set `0..len`.
    pub fn full(len: usize) -> BitSet {
        let mut words = vec![!0u64; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - len % 64) % 64;
        }
        BitSet { words, len }
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

    /// The backing words: bit `i % 64` of word `i / 64` holds `i`, and
    /// bits past the universe are zero. Lets a caller OR the set into a
    /// row of its own bit matrix a word at a time.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Makes the set equal to `row`, a set over the same universe in the
    /// layout of [`Self::words`] (one row of a [`BitRows`], say), without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not have this set's number of words.
    #[inline]
    pub fn copy_from_row(&mut self, row: &[u64]) {
        self.words.copy_from_slice(row);
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
        ones(&self.words)
    }
}

/// One bit set per row, over one universe, in one row-major buffer: row
/// `r` is the `words()` words from `r · words()`, laid out as
/// [`BitSet::words`]. The dataflow core takes gen/kill sets and returns
/// its facts in this form, so a problem over `b` blocks is a fixed number
/// of allocations whatever `b` is.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitRows {
    bits: Vec<u64>,
    words: usize,
    rows: usize,
    universe: usize,
}

impl BitRows {
    /// `rows` empty sets over `0..universe`.
    pub fn new(rows: usize, universe: usize) -> BitRows {
        let words = universe.div_ceil(64);
        BitRows {
            bits: vec![0; rows * words],
            words,
            rows,
            universe,
        }
    }

    /// `rows` full sets `0..universe` (bits past the universe stay zero).
    pub(crate) fn full(rows: usize, universe: usize) -> BitRows {
        let mut t = BitRows::new(rows, universe);
        t.bits.fill(!0);
        if t.words > 0 {
            let last = !0u64 >> ((64 - universe % 64) % 64);
            for row in t.bits.chunks_exact_mut(t.words) {
                row[t.words - 1] = last;
            }
        }
        t
    }

    /// The number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The universe size of every row.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Words per row.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Row `r`'s words.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    /// Row `r`'s words, mutably. Crate-private, so bits past the universe
    /// stay zero.
    #[inline]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.bits[r * self.words..(r + 1) * self.words]
    }

    /// Whether row `r` holds `i`.
    #[inline]
    pub fn contains(&self, r: usize, i: usize) -> bool {
        i < self.universe && self.row(r)[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds `i` to row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    #[inline]
    pub fn insert(&mut self, r: usize, i: usize) {
        assert!(
            i < self.universe,
            "bit {i} out of universe {}",
            self.universe
        );
        self.row_mut(r)[i / 64] |= 1 << (i % 64);
    }
}

/// The set bits of `words` in increasing order, numbered as in a
/// [`BitSet`]: bit `i % 64` of word `i / 64` is `i`. Iterates a bit set
/// kept as a slice of a larger array, such as one row of a bit matrix.
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(move |(wi, w)| {
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
    fn full_holds_exactly_the_universe() {
        for len in [0, 1, 63, 64, 65, 130] {
            let s = BitSet::full(len);
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..len).collect::<Vec<_>>());
            let mut t = BitSet::new(len);
            for i in 0..len {
                t.insert(i);
            }
            assert_eq!(s, t);
        }
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
    fn rows_match_bitsets_across_word_boundaries() {
        for u in [0, 1, 63, 64, 65, 130] {
            let full = BitRows::full(3, u);
            let mut rows = BitRows::new(3, u);
            for r in 0..3 {
                assert_eq!(full.row(r), BitSet::full(u).words());
                assert_eq!(rows.row(r), BitSet::new(u).words());
            }
            let mut want = BitSet::new(u);
            for i in (0..u).step_by(7) {
                rows.insert(1, i);
                want.insert(i);
            }
            assert_eq!(rows.row(1), want.words());
            assert!(rows.row(0).iter().chain(rows.row(2)).all(|w| *w == 0));
            let mut set = BitSet::full(u);
            set.copy_from_row(rows.row(1));
            assert_eq!(set, want);
            assert!(!rows.contains(1, u), "past the universe");
        }
    }

    #[test]
    fn empty_universe() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
