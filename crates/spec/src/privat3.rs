//! The reduced, no-read-in privatization state (paper Figure 5-b and §4.1).
//!
//! When read-in and copy-out are not needed — "the large majority of
//! parallelizable loops" — the per-element directory state shrinks from two
//! iteration time stamps to a few bits:
//!
//! * private directory (§4.1): `Read1st` and `Write`, "used like the
//!   Read1st and Write fields of the cache tags … cleared at the beginning
//!   of each iteration", plus the sticky `WriteAny` bit ("set if the
//!   element has been written in any of the iterations executed so far");
//! * shared directory: two sticky bits — some iteration read-first
//!   (`AnyR1st`), some iteration wrote (`AnyW`).
//!
//! Without time stamps the ordering between a read-first and a write in
//! different iterations is unknown, so the test is **conservative**: any
//! element that is both read-first and written (in distinct iterations)
//! FAILs, even when the stamped protocol would have proven all read-firsts
//! early enough. That loses exactly the Figure-3 patterns — which need
//! read-in anyway — and nothing else; the property tests pin this down.

use crate::fail::FailReason;

/// Shared-directory per-element state: two sticky bits (Figure 5-b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivNoReadInShared {
    /// Some iteration read the element before writing it.
    pub any_r1st: bool,
    /// Some iteration wrote the element.
    pub any_w: bool,
}

impl PrivNoReadInShared {
    /// Compact state label for tracing: `Clear`, `AnyR1st`, `AnyW` or
    /// `AnyR1st,AnyW`.
    pub fn state_label(&self) -> String {
        match (self.any_r1st, self.any_w) {
            (false, false) => "Clear".to_string(),
            (true, false) => "AnyR1st".to_string(),
            (false, true) => "AnyW".to_string(),
            (true, true) => "AnyR1st,AnyW".to_string(),
        }
    }

    /// A read-first signal arrived.
    ///
    /// # Errors
    ///
    /// FAILs if the element was already written by some iteration: with no
    /// stamps the order is unknown, so the worst case (flow dependence) is
    /// assumed.
    pub fn on_read_first(&mut self) -> Result<(), FailReason> {
        if self.any_w {
            return Err(FailReason::ReadFirstAfterWrite { iter: 0, min_w: 0 });
        }
        self.any_r1st = true;
        Ok(())
    }

    /// A first-write signal arrived.
    ///
    /// # Errors
    ///
    /// FAILs if the element was already read-first by some iteration.
    pub fn on_first_write(&mut self) -> Result<(), FailReason> {
        if self.any_r1st {
            return Err(FailReason::WriteBeforeReadFirst {
                iter: 0,
                max_r1st: 0,
            });
        }
        self.any_w = true;
        Ok(())
    }

    /// Clears the element (loop start).
    pub fn clear(&mut self) {
        *self = PrivNoReadInShared::default();
    }
}

/// Private-directory per-element state: `Read1st`/`Write` per iteration
/// plus the sticky `WriteAny` (§4.1's three-bit optimization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivNoReadInPrivate {
    /// This iteration read the element before writing it.
    pub read1st: bool,
    /// This iteration wrote the element.
    pub write: bool,
    /// Some iteration of this processor wrote the element.
    pub write_any: bool,
}

impl PrivNoReadInPrivate {
    /// Whether neither per-iteration bit nor the sticky bit is set.
    pub fn is_untouched(&self) -> bool {
        !self.read1st && !self.write && !self.write_any
    }

    /// Start of a new iteration: clears the per-iteration bits.
    pub fn clear_iteration(&mut self) {
        self.read1st = false;
        self.write = false;
    }

    /// A read by this processor. Returns whether a read-first signal must
    /// go to the shared directory (the iteration's first access to the
    /// element).
    ///
    /// # Errors
    ///
    /// FAILs when the read is a read-first and an *earlier* iteration of
    /// this same processor wrote the element — a same-processor flow
    /// dependence across iterations, which even the stamped protocol
    /// rejects.
    pub fn on_read(&mut self) -> Result<bool, FailReason> {
        if self.read1st || self.write {
            return Ok(false);
        }
        // A read-first for this iteration.
        if self.write_any {
            return Err(FailReason::ReadFirstAfterWrite { iter: 0, min_w: 0 });
        }
        self.read1st = true;
        Ok(true)
    }

    /// A write by this processor. Returns whether a first-write signal
    /// must go to the shared directory: only the processor's *first* write
    /// to the element in the whole loop sends one (mirroring the
    /// `PMaxW == 0` test of algorithm (g)).
    pub fn on_write(&mut self) -> bool {
        let first_in_loop = !self.write_any;
        self.write = true;
        self.write_any = true;
        first_in_loop
    }

    /// Clears everything (loop start).
    pub fn clear(&mut self) {
        *self = PrivNoReadInPrivate::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privat::PrivSharedElem;

    #[test]
    fn no_read_in_state_labels() {
        let mut s = PrivNoReadInShared::default();
        assert_eq!(s.state_label(), "Clear");
        s.on_read_first().unwrap();
        assert_eq!(s.state_label(), "AnyR1st");
        let mut w = PrivNoReadInShared::default();
        w.on_first_write().unwrap();
        assert_eq!(w.state_label(), "AnyW");
    }

    #[test]
    fn write_before_read_pattern_passes() {
        // The workspace pattern: every iteration writes then reads.
        let mut p = PrivNoReadInPrivate::default();
        let mut s = PrivNoReadInShared::default();
        for _iter in 0..5 {
            p.clear_iteration();
            if p.on_write() {
                s.on_first_write().unwrap();
            }
            assert!(!p.on_read().unwrap());
        }
        assert!(s.any_w && !s.any_r1st);
    }

    #[test]
    fn read_only_pattern_passes() {
        let mut p = PrivNoReadInPrivate::default();
        let mut s = PrivNoReadInShared::default();
        for _ in 0..3 {
            p.clear_iteration();
            if p.on_read().unwrap() {
                s.on_read_first().unwrap();
            }
        }
        assert!(s.any_r1st && !s.any_w);
    }

    #[test]
    fn same_proc_write_then_later_read_first_fails_locally() {
        let mut p = PrivNoReadInPrivate::default();
        p.on_write();
        p.clear_iteration();
        assert!(p.on_read().is_err());
    }

    #[test]
    fn cross_proc_mixed_read_write_fails_at_shared() {
        let mut s = PrivNoReadInShared::default();
        s.on_read_first().unwrap();
        assert!(s.on_first_write().is_err());
        let mut s2 = PrivNoReadInShared::default();
        s2.on_first_write().unwrap();
        assert!(s2.on_read_first().is_err());
    }

    #[test]
    fn conservative_wrt_stamps_on_figure3_patterns() {
        // Reads (iters 1..2) then writes (iters 3..4): the stamped protocol
        // passes (needs read-in); the reduced state must fail.
        let mut stamped = PrivSharedElem::default();
        stamped.on_read_first(1).unwrap();
        stamped.on_read_first(2).unwrap();
        stamped.on_first_write(3).unwrap();
        stamped.on_first_write(4).unwrap(); // passes

        let mut reduced = PrivNoReadInShared::default();
        reduced.on_read_first().unwrap();
        reduced.on_read_first().unwrap();
        assert!(
            reduced.on_first_write().is_err(),
            "reduced state is conservative"
        );
    }

    #[test]
    fn untouched_and_clear() {
        let mut p = PrivNoReadInPrivate::default();
        assert!(p.is_untouched());
        p.on_write();
        assert!(!p.is_untouched());
        p.clear_iteration();
        assert!(!p.is_untouched(), "WriteAny is sticky across iterations");
        p.clear();
        assert!(p.is_untouched());
        let mut s = PrivNoReadInShared::default();
        s.on_first_write().unwrap();
        s.clear();
        assert_eq!(s, PrivNoReadInShared::default());
    }

    #[test]
    fn exhaustive_agreement_with_stamps_when_not_mixed() {
        // For every per-iteration behaviour sequence of length 4 executed by
        // ONE processor, the reduced protocol fails iff the stamped protocol
        // fails OR the element is both read-first and written (the
        // conservative extension).
        #[derive(Clone, Copy, PartialEq)]
        enum B {
            Skip,
            ReadFirst,
            WriteFirst,
        }
        let opts = [B::Skip, B::ReadFirst, B::WriteFirst];
        for a in opts {
            for b in opts {
                for c in opts {
                    for d in opts {
                        let seq = [a, b, c, d];
                        // Stamped.
                        let mut st = PrivSharedElem::default();
                        let mut st_fail = false;
                        for (i, beh) in seq.iter().enumerate() {
                            let iter = i as u64 + 1;
                            let r = match beh {
                                B::Skip => Ok(()),
                                B::ReadFirst => st.on_read_first(iter),
                                B::WriteFirst => st.on_first_write(iter),
                            };
                            if r.is_err() {
                                st_fail = true;
                                break;
                            }
                        }
                        // Reduced.
                        let mut rd = PrivNoReadInShared::default();
                        let mut rd_fail = false;
                        for beh in seq.iter() {
                            let r = match beh {
                                B::Skip => Ok(()),
                                B::ReadFirst => rd.on_read_first(),
                                B::WriteFirst => rd.on_first_write(),
                            };
                            if r.is_err() {
                                rd_fail = true;
                                break;
                            }
                        }
                        let mixed = seq.contains(&B::ReadFirst) && seq.contains(&B::WriteFirst);
                        assert_eq!(rd_fail, mixed, "reduced = mixed-use detector");
                        if st_fail {
                            assert!(rd_fail, "reduced must be conservative wrt stamps");
                        }
                    }
                }
            }
        }
    }
}
