//! Which protocol applies to which array: the paper's address-range
//! comparator (§4.1).
//!
//! "A better approach is to have a simple address-range comparator for the
//! various arrays that decides the type of protocol to be employed based on
//! the address of the array. The compiler inserts system calls that load and
//! unload the comparator appropriately." [`TestPlan`] is that comparator's
//! contents, keyed by logical array (the physical-range lookup itself is
//! `specrt_mem::AddressMap`).

use specrt_ir::ArrayId;

use crate::protospec::SpecVariant;

/// Protocol assigned to one array for a speculative loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Plain cache coherence; the array is not under test (compile-time
    /// analyzable, read-only, or not accessed).
    Plain,
    /// The non-privatization algorithm (Figures 4/6/7).
    NonPriv,
    /// The privatization algorithm (Figures 8/9).
    Priv {
        /// Whether private copies are lazily initialized from the shared
        /// array (read-in). Without it, reads that precede all writes in an
        /// iteration read uninitialized private data, so the compiler only
        /// disables read-in when every read is preceded by a write.
        read_in: bool,
        /// Whether the privatized array is live after the loop and must be
        /// merged back (copy-out, last-writer wins).
        copy_out: bool,
    },
}

impl ProtocolKind {
    /// Whether the array is under test at all.
    pub fn is_under_test(self) -> bool {
        !matches!(self, ProtocolKind::Plain)
    }

    /// Whether the array is privatized.
    pub fn is_privatized(self) -> bool {
        matches!(self, ProtocolKind::Priv { .. })
    }

    /// The protocol variant that tests the array, if any: privatization
    /// without read-in and copy-out runs the reduced state of Fig. 5-b.
    pub fn variant(self) -> Option<SpecVariant> {
        match self {
            ProtocolKind::Plain => None,
            ProtocolKind::NonPriv => Some(SpecVariant::NonPriv),
            ProtocolKind::Priv {
                read_in: false,
                copy_out: false,
            } => Some(SpecVariant::Priv3),
            ProtocolKind::Priv { .. } => Some(SpecVariant::Priv),
        }
    }
}

/// The per-loop assignment of protocols to arrays.
///
/// # Examples
///
/// ```
/// use specrt_ir::ArrayId;
/// use specrt_spec::{ProtocolKind, TestPlan};
///
/// let mut plan = TestPlan::new();
/// plan.set(ArrayId(0), ProtocolKind::NonPriv);
/// plan.set(ArrayId(1), ProtocolKind::Priv { read_in: false, copy_out: false });
/// assert_eq!(plan.kind_of(ArrayId(0)), ProtocolKind::NonPriv);
/// assert_eq!(plan.kind_of(ArrayId(9)), ProtocolKind::Plain); // default
/// assert_eq!(plan.arrays_under_test().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TestPlan {
    // Sorted by id. A loop tests a handful of arrays, so the per-access
    // `kind_of` scans this flat vector instead of walking a tree, and
    // `arrays_under_test` reads it in id order as it is.
    kinds: Vec<(ArrayId, ProtocolKind)>,
}

impl TestPlan {
    /// An empty plan: every array uses plain coherence.
    pub fn new() -> Self {
        TestPlan::default()
    }

    /// Assigns `kind` to `array`. Assigning [`ProtocolKind::Plain`] removes
    /// any previous assignment.
    pub fn set(&mut self, array: ArrayId, kind: ProtocolKind) {
        match self.kinds.binary_search_by_key(&array, |&(a, _)| a) {
            Ok(i) if kind == ProtocolKind::Plain => {
                self.kinds.remove(i);
            }
            Ok(i) => self.kinds[i].1 = kind,
            Err(_) if kind == ProtocolKind::Plain => {}
            Err(i) => self.kinds.insert(i, (array, kind)),
        }
    }

    /// The protocol for `array` ([`ProtocolKind::Plain`] if unassigned).
    #[inline]
    pub fn kind_of(&self, array: ArrayId) -> ProtocolKind {
        self.kinds
            .iter()
            .find(|&&(a, _)| a == array)
            .map_or(ProtocolKind::Plain, |&(_, k)| k)
    }

    /// All arrays under test, in id order.
    pub fn arrays_under_test(&self) -> impl Iterator<Item = (ArrayId, ProtocolKind)> + '_ {
        self.kinds.iter().copied()
    }

    /// Arrays under the non-privatization test.
    pub fn nonpriv_arrays(&self) -> Vec<ArrayId> {
        self.kinds
            .iter()
            .filter(|(_, k)| matches!(k, ProtocolKind::NonPriv))
            .map(|(a, _)| *a)
            .collect()
    }

    /// Arrays under the privatization test.
    pub fn priv_arrays(&self) -> Vec<ArrayId> {
        self.kinds
            .iter()
            .filter(|(_, k)| matches!(k, ProtocolKind::Priv { .. }))
            .map(|(a, _)| *a)
            .collect()
    }

    /// Whether any array is under test.
    pub fn any_under_test(&self) -> bool {
        !self.kinds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_plain() {
        let plan = TestPlan::new();
        assert_eq!(plan.kind_of(ArrayId(0)), ProtocolKind::Plain);
        assert!(!plan.any_under_test());
    }

    #[test]
    fn set_and_classify() {
        let mut plan = TestPlan::new();
        plan.set(ArrayId(1), ProtocolKind::NonPriv);
        plan.set(
            ArrayId(2),
            ProtocolKind::Priv {
                read_in: true,
                copy_out: true,
            },
        );
        assert_eq!(plan.nonpriv_arrays(), vec![ArrayId(1)]);
        assert_eq!(plan.priv_arrays(), vec![ArrayId(2)]);
        assert!(plan.kind_of(ArrayId(2)).is_privatized());
        assert!(plan.kind_of(ArrayId(1)).is_under_test());
        assert!(!plan.kind_of(ArrayId(3)).is_under_test());
    }

    #[test]
    fn setting_plain_unassigns() {
        let mut plan = TestPlan::new();
        plan.set(ArrayId(1), ProtocolKind::NonPriv);
        plan.set(ArrayId(1), ProtocolKind::Plain);
        assert!(!plan.any_under_test());
    }

    #[test]
    fn arrays_under_test_in_id_order() {
        let mut plan = TestPlan::new();
        plan.set(ArrayId(5), ProtocolKind::NonPriv);
        plan.set(ArrayId(2), ProtocolKind::NonPriv);
        let ids: Vec<u32> = plan.arrays_under_test().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![2, 5]);
    }
}
