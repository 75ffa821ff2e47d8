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

/// The per-loop assignment of protocols to arrays. An array the plan does
/// not name uses plain cache coherence: it is not under test
/// (compile-time analyzable, read-only, or not accessed).
///
/// # Examples
///
/// ```
/// use specrt_ir::ArrayId;
/// use specrt_spec::{SpecVariant, TestPlan};
///
/// let mut plan = TestPlan::new();
/// plan.set(ArrayId(0), SpecVariant::NonPriv);
/// plan.set(ArrayId(1), SpecVariant::Priv3);
/// assert_eq!(plan.variant_of(ArrayId(0)), Some(SpecVariant::NonPriv));
/// assert_eq!(plan.variant_of(ArrayId(9)), None); // plain coherence
/// assert_eq!(plan.arrays_under_test().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TestPlan {
    // Sorted by id. A loop tests a handful of arrays, so the per-access
    // `variant_of` scans this flat vector instead of walking a tree, and
    // `arrays_under_test` reads it in id order as it is.
    variants: Vec<(ArrayId, SpecVariant)>,
}

impl TestPlan {
    /// An empty plan: every array uses plain coherence.
    pub fn new() -> Self {
        TestPlan::default()
    }

    /// Puts `array` under the test of `variant`.
    pub fn set(&mut self, array: ArrayId, variant: SpecVariant) {
        match self.variants.binary_search_by_key(&array, |&(a, _)| a) {
            Ok(i) => self.variants[i].1 = variant,
            Err(i) => self.variants.insert(i, (array, variant)),
        }
    }

    /// The protocol variant that tests `array`, or `None` under plain
    /// coherence.
    #[inline]
    pub fn variant_of(&self, array: ArrayId) -> Option<SpecVariant> {
        self.variants
            .iter()
            .find(|&&(a, _)| a == array)
            .map(|&(_, v)| v)
    }

    /// Whether a privatization variant tests `array`.
    #[inline]
    pub fn privatizes(&self, array: ArrayId) -> bool {
        self.variant_of(array)
            .is_some_and(SpecVariant::is_privatized)
    }

    /// All arrays under test, in id order.
    pub fn arrays_under_test(&self) -> impl Iterator<Item = (ArrayId, SpecVariant)> + '_ {
        self.variants.iter().copied()
    }

    /// Arrays under either privatization test, in id order.
    pub fn priv_arrays(&self) -> Vec<ArrayId> {
        self.variants
            .iter()
            .filter(|(_, v)| v.is_privatized())
            .map(|(a, _)| *a)
            .collect()
    }

    /// Whether any array is under test.
    pub fn any_under_test(&self) -> bool {
        !self.variants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_plain() {
        let plan = TestPlan::new();
        assert_eq!(plan.variant_of(ArrayId(0)), None);
        assert!(!plan.any_under_test());
    }

    #[test]
    fn set_and_classify() {
        let mut plan = TestPlan::new();
        plan.set(ArrayId(1), SpecVariant::NonPriv);
        plan.set(ArrayId(2), SpecVariant::Priv);
        plan.set(ArrayId(4), SpecVariant::Priv3);
        assert_eq!(plan.priv_arrays(), vec![ArrayId(2), ArrayId(4)]);
        assert_eq!(plan.variant_of(ArrayId(1)), Some(SpecVariant::NonPriv));
        assert_eq!(plan.variant_of(ArrayId(3)), None);
        assert!(plan.privatizes(ArrayId(2)) && plan.privatizes(ArrayId(4)));
        assert!(!plan.privatizes(ArrayId(1)) && !plan.privatizes(ArrayId(3)));
        plan.set(ArrayId(2), SpecVariant::NonPriv);
        assert_eq!(plan.priv_arrays(), vec![ArrayId(4)]);
    }

    #[test]
    fn arrays_under_test_in_id_order() {
        let mut plan = TestPlan::new();
        plan.set(ArrayId(5), SpecVariant::NonPriv);
        plan.set(ArrayId(2), SpecVariant::NonPriv);
        let ids: Vec<u32> = plan.arrays_under_test().map(|(a, _)| a.0).collect();
        assert_eq!(ids, vec![2, 5]);
    }
}
