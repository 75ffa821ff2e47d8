//! The functional memory image: current value of every array element, plus
//! the backup/restore machinery speculative execution needs.
//!
//! Before a loop is executed speculatively, "we need to save the state of
//! the arrays that will be modified in the loop" (paper §2.2.1). On failure
//! "we restore the arrays from their backups and re-start serial execution".
//! [`MemoryImage::snapshot`] and [`MemoryImage::restore`] implement exactly
//! that; the *cost* of the copies is charged separately by the machine layer
//! (backup/restore are simulated as memory-to-memory copy loops).

use specrt_ir::{ArrayId, MemOracle, Scalar};

use crate::idmap::IdMap;

/// Values of every registered array.
///
/// This is the *functional* state of the simulated machine. Timing
/// (caches, directories, NUMA latencies) is modelled separately; values are
/// applied in program order per processor, which is sound for the workloads
/// the system runs (see DESIGN.md §3).
#[derive(Debug, Clone, Default)]
pub struct MemoryImage {
    arrays: IdMap<ArrayId, Vec<Scalar>>,
}

/// A saved copy of selected arrays, produced by [`MemoryImage::snapshot`].
#[derive(Debug, Clone)]
pub struct ArrayBackup {
    saved: Vec<(ArrayId, Vec<Scalar>)>,
}

impl ArrayBackup {
    /// Ids of the arrays captured, in snapshot order.
    pub fn arrays(&self) -> impl Iterator<Item = ArrayId> + '_ {
        self.saved.iter().map(|(id, _)| *id)
    }

    /// Total number of elements captured (proportional to backup cost).
    pub fn element_count(&self) -> u64 {
        self.saved.iter().map(|(_, v)| v.len() as u64).sum()
    }
}

impl MemoryImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        MemoryImage::default()
    }

    /// Registers an array of `len` elements, zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered.
    pub fn register(&mut self, id: ArrayId, len: u64) {
        let prev = self.arrays.insert(id, vec![Scalar::ZERO; len as usize]);
        assert!(prev.is_none(), "array {id} registered twice in image");
    }

    /// Registers an array with explicit initial contents.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered.
    pub fn register_with(&mut self, id: ArrayId, values: Vec<Scalar>) {
        let prev = self.arrays.insert(id, values);
        assert!(prev.is_none(), "array {id} registered twice in image");
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: ArrayId) -> bool {
        self.arrays.contains_key(&id)
    }

    /// Length of array `id`.
    ///
    /// # Panics
    ///
    /// Panics if unregistered.
    pub fn len_of(&self, id: ArrayId) -> u64 {
        self.arr(id).len() as u64
    }

    fn arr(&self, id: ArrayId) -> &Vec<Scalar> {
        self.arrays
            .get(&id)
            .unwrap_or_else(|| panic!("array {id} not registered in image"))
    }

    fn arr_mut(&mut self, id: ArrayId) -> &mut Vec<Scalar> {
        self.arrays
            .get_mut(&id)
            .unwrap_or_else(|| panic!("array {id} not registered in image"))
    }

    /// Reads element `idx` of `id`.
    ///
    /// # Panics
    ///
    /// Panics if unregistered or out of bounds.
    pub fn read(&self, id: ArrayId, idx: u64) -> Scalar {
        self.arr(id)[idx as usize]
    }

    /// Writes element `idx` of `id`.
    ///
    /// # Panics
    ///
    /// Panics if unregistered or out of bounds.
    pub fn write(&mut self, id: ArrayId, idx: u64, v: Scalar) {
        self.arr_mut(id)[idx as usize] = v;
    }

    /// A full copy of array `id`'s contents.
    pub fn contents(&self, id: ArrayId) -> Vec<Scalar> {
        self.arr(id).clone()
    }

    /// Overwrites array `id`'s contents.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn set_contents(&mut self, id: ArrayId, values: Vec<Scalar>) {
        let arr = self.arr_mut(id);
        assert_eq!(arr.len(), values.len(), "length mismatch for {id}");
        *arr = values;
    }

    /// Captures the current contents of `ids` for later [`restore`].
    ///
    /// [`restore`]: Self::restore
    pub fn snapshot(&self, ids: &[ArrayId]) -> ArrayBackup {
        ArrayBackup {
            saved: ids.iter().map(|&id| (id, self.arr(id).clone())).collect(),
        }
    }

    /// Restores every array captured in `backup` to its snapshot contents.
    pub fn restore(&mut self, backup: &ArrayBackup) {
        for (id, values) in &backup.saved {
            let arr = self.arr_mut(*id);
            assert_eq!(arr.len(), values.len(), "backup length mismatch for {id}");
            arr.clone_from(values);
        }
    }

    /// Whether two images hold identical contents for `ids` (used by tests
    /// that compare speculative and serial executions).
    pub fn same_contents(&self, other: &MemoryImage, ids: &[ArrayId]) -> bool {
        ids.iter().all(|&id| self.arr(id) == other.arr(id))
    }

    /// Ids of all registered arrays, in id order.
    pub fn array_ids(&self) -> Vec<ArrayId> {
        let mut v: Vec<_> = self.arrays.keys().copied().collect();
        v.sort();
        v
    }
}

impl MemOracle for MemoryImage {
    fn read(&mut self, arr: ArrayId, idx: u64) -> Scalar {
        MemoryImage::read(self, arr, idx)
    }

    fn write(&mut self, arr: ArrayId, idx: u64, value: Scalar) {
        MemoryImage::write(self, arr, idx, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_read_write() {
        let mut m = MemoryImage::new();
        m.register(ArrayId(0), 4);
        assert_eq!(m.read(ArrayId(0), 0), Scalar::ZERO);
        m.write(ArrayId(0), 2, Scalar::Float(1.5));
        assert_eq!(m.read(ArrayId(0), 2), Scalar::Float(1.5));
        assert_eq!(m.len_of(ArrayId(0)), 4);
        assert!(m.contains(ArrayId(0)));
        assert!(!m.contains(ArrayId(1)));
    }

    #[test]
    fn register_with_contents() {
        let mut m = MemoryImage::new();
        m.register_with(ArrayId(1), vec![Scalar::Int(1), Scalar::Int(2)]);
        assert_eq!(m.read(ArrayId(1), 1), Scalar::Int(2));
        assert_eq!(m.contents(ArrayId(1)), vec![Scalar::Int(1), Scalar::Int(2)]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut m = MemoryImage::new();
        m.register(ArrayId(0), 1);
        m.register(ArrayId(0), 1);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_read_panics() {
        MemoryImage::new().read(ArrayId(0), 0);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut m = MemoryImage::new();
        m.register(ArrayId(0), 3);
        m.register(ArrayId(1), 2);
        m.write(ArrayId(0), 0, Scalar::Int(10));
        let backup = m.snapshot(&[ArrayId(0)]);
        assert_eq!(backup.element_count(), 3);
        assert_eq!(backup.arrays().collect::<Vec<_>>(), vec![ArrayId(0)]);

        // Corrupt both arrays; restore only fixes the captured one.
        m.write(ArrayId(0), 0, Scalar::Int(-1));
        m.write(ArrayId(1), 0, Scalar::Int(-1));
        m.restore(&backup);
        assert_eq!(m.read(ArrayId(0), 0), Scalar::Int(10));
        assert_eq!(m.read(ArrayId(1), 0), Scalar::Int(-1));
    }

    #[test]
    fn same_contents_compares_selected_arrays() {
        let mut a = MemoryImage::new();
        let mut b = MemoryImage::new();
        for m in [&mut a, &mut b] {
            m.register(ArrayId(0), 2);
            m.register(ArrayId(1), 2);
        }
        a.write(ArrayId(1), 0, Scalar::Int(5));
        assert!(a.same_contents(&b, &[ArrayId(0)]));
        assert!(!a.same_contents(&b, &[ArrayId(0), ArrayId(1)]));
    }

    #[test]
    fn set_contents_replaces() {
        let mut m = MemoryImage::new();
        m.register(ArrayId(0), 2);
        m.set_contents(ArrayId(0), vec![Scalar::Int(1), Scalar::Int(2)]);
        assert_eq!(m.read(ArrayId(0), 1), Scalar::Int(2));
    }

    #[test]
    fn array_ids_sorted() {
        let mut m = MemoryImage::new();
        m.register(ArrayId(5), 1);
        m.register(ArrayId(1), 1);
        assert_eq!(m.array_ids(), vec![ArrayId(1), ArrayId(5)]);
    }

    #[test]
    fn mem_oracle_impl_delegates() {
        let mut m = MemoryImage::new();
        m.register(ArrayId(0), 1);
        let oracle: &mut dyn MemOracle = &mut m;
        oracle.write(ArrayId(0), 0, Scalar::Int(9));
        assert_eq!(oracle.read(ArrayId(0), 0), Scalar::Int(9));
    }
}
