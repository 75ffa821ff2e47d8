//! A fixed-capacity vector stored inline, so the system-layer state is a
//! plain `Copy` value and `ProtocolSpec::step` never touches the heap.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` items held in a `[T; N]` array; the first `len` are live and
/// the vector derefs to exactly that slice. Equality and `Debug` look at
/// the live slice only, so stale slots behind it are never observed.
#[derive(Clone, Copy)]
pub struct InlineVec<T: Copy, const N: usize> {
    items: [T; N],
    len: u8,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// `len` copies of `value` (`value` also fills the unused slots, so
    /// `filled(x, 0)` is an empty vector).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the capacity `N`.
    pub fn filled(value: T, len: usize) -> Self {
        assert!(len <= N, "{len} items exceed the inline capacity {N}");
        InlineVec {
            items: [value; N],
            len: len as u8,
        }
    }

    /// Appends `value`.
    ///
    /// # Panics
    ///
    /// Panics if the vector is already at its capacity `N`.
    pub fn push(&mut self, value: T) {
        let len = self.len as usize;
        assert!(len < N, "inline capacity {N} exceeded");
        self.items[len] = value;
        self.len += 1;
    }

    /// Empties the vector, keeping its slots (stale, never observed).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Removes and returns the item at `index`, shifting the rest down.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove(&mut self, index: usize) -> T {
        let value = self[index];
        self.items.copy_within(index + 1..self.len as usize, index);
        self.len -= 1;
        value
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<T: Copy, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_stale_slots() {
        let mut a: InlineVec<u16, 4> = InlineVec::filled(0, 0);
        a.push(1);
        a.push(2);
        a.push(3);
        assert_eq!(a.remove(0), 1);
        let mut b = InlineVec::filled(9, 0);
        b.push(2);
        b.push(3);
        assert_eq!(a, b);
        assert_eq!(&a[..], &[2, 3]);
        assert_eq!(format!("{a:?}"), "[2, 3]");
        a.clear();
        assert_eq!(a, InlineVec::filled(7, 0));
        a.push(4);
        assert_eq!(&a[..], &[4]);
    }

    #[test]
    #[should_panic(expected = "inline capacity 2 exceeded")]
    fn push_past_capacity_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::filled(0, 2);
        v.push(1);
    }
}
