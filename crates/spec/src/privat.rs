//! The privatization algorithm with read-in and copy-out (paper Figures 8
//! and 9).
//!
//! Each processor works on a **private copy** of the array under test. An
//! iteration that reads an element before writing it is a *read-first*
//! iteration for that element. The loop is parallel as long as, per element,
//! every read-first iteration is no later than every writing iteration:
//! the shared array's directory keeps `MaxR1st` (highest read-first
//! iteration so far) and `MinW` (lowest writing iteration so far) and FAILs
//! the moment `MaxR1st > MinW` would become true.
//!
//! To keep traffic off the shared directory, each processor's *private*
//! directory keeps `PMaxR1st`/`PMaxW` per element, and the cache tags keep
//! per-iteration `Read1st`/`Write` bits (cleared at the start of every
//! iteration) as a first-level filter.
//!
//! Iteration numbers used here are **effective, 1-based** stamps: 0 is
//! reserved for "never". Block-cyclic chunking (§4.1) and the
//! processor-wise extreme are expressed by mapping global iterations to
//! coarser effective numbers before calling in — see
//! [`crate::chunking::IterationNumbering`].

use specrt_cache::ElemTag;

use crate::fail::FailReason;
use crate::fault;
use crate::protospec::PrivateEffect;

/// Sentinel for `MinW` before any write has been observed.
const NO_WRITE: u64 = u64::MAX;

/// Per-element state in the directory of the **shared** copy of an array
/// under test (Figure 5-c: two time stamps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivSharedElem {
    /// Highest read-first iteration executed so far by any processor
    /// (0 = none yet).
    pub max_r1st: u64,
    /// Lowest iteration executed so far by any processor that wrote the
    /// element (`u64::MAX` = none yet).
    pub min_w: u64,
}

impl Default for PrivSharedElem {
    fn default() -> Self {
        PrivSharedElem {
            max_r1st: 0,
            min_w: NO_WRITE,
        }
    }
}

impl PrivSharedElem {
    /// Compact stamp label for tracing, e.g. `MaxR1st=0,MinW=inf` (the
    /// clear state) or `MaxR1st=3,MinW=2`.
    pub fn state_label(&self) -> String {
        let min_w = if self.min_w == NO_WRITE {
            "inf".to_string()
        } else {
            self.min_w.to_string()
        };
        format!("MaxR1st={},MinW={min_w}", self.max_r1st)
    }

    /// Handles a read-first signal or a read-in request (algorithms (d) and
    /// (e)): both run the same test and stamp update; whether a data line is
    /// also returned is the protocol layer's business.
    ///
    /// # Errors
    ///
    /// FAILs when `iter` is later than an already-recorded writing iteration
    /// (`iter > MinW`): some earlier iteration produced a value this
    /// iteration should have consumed — a flow dependence.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is 0 (stamps are 1-based).
    pub fn on_read_first(&mut self, iter: u64) -> Result<(), FailReason> {
        assert!(iter > 0, "effective iteration stamps are 1-based");
        // Injectable bug (`swap-ts-compare`): the Fig. 8 comparison runs
        // inverted, failing legal read-firsts and passing flow hazards. The
        // stamp invariant no longer holds under it, so the debug asserts
        // below are gated off while it is active — the conformance harness
        // must catch the bug through the oracle, not through an assert.
        let swapped = fault::active(fault::FaultKind::SwapTsCompare);
        let fails = if swapped {
            iter <= self.min_w
        } else {
            iter > self.min_w
        };
        if fails {
            return Err(FailReason::ReadFirstAfterWrite {
                iter,
                min_w: self.min_w,
            });
        }
        // Injectable bug (`drop-maxr1st`): the stamp update is lost, so a
        // later first-write tests against a stale `MaxR1st`.
        if fault::active(fault::FaultKind::DropMaxR1stUpdate) {
            return Ok(());
        }
        #[cfg(debug_assertions)]
        let old = self.max_r1st;
        self.max_r1st = self.max_r1st.max(iter);
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.max_r1st >= old, "MaxR1st must never decrease");
            debug_assert!(
                swapped || self.max_r1st <= self.min_w,
                "stamp invariant broken: MaxR1st={} > MinW={}",
                self.max_r1st,
                self.min_w
            );
        }
        Ok(())
    }

    /// Handles a first-write signal or a read-in-for-write request
    /// (algorithms (i) and (j)).
    ///
    /// # Errors
    ///
    /// FAILs when `iter` is earlier than an already-recorded read-first
    /// iteration (`iter < MaxR1st`): a later iteration already read the
    /// value this write would have replaced — an anti/flow hazard.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is 0.
    pub fn on_first_write(&mut self, iter: u64) -> Result<(), FailReason> {
        assert!(iter > 0, "effective iteration stamps are 1-based");
        if iter < self.max_r1st {
            return Err(FailReason::WriteBeforeReadFirst {
                iter,
                max_r1st: self.max_r1st,
            });
        }
        #[cfg(debug_assertions)]
        let old = self.min_w;
        self.min_w = self.min_w.min(iter);
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.min_w <= old, "MinW must never increase");
            // An active `swap-ts-compare` injection corrupts the stamps by
            // design; see `on_read_first`.
            debug_assert!(
                fault::active(fault::FaultKind::SwapTsCompare) || self.max_r1st <= self.min_w,
                "stamp invariant broken: MaxR1st={} > MinW={}",
                self.max_r1st,
                self.min_w
            );
        }
        Ok(())
    }

    /// Whether any write has been recorded (used by copy-out).
    pub fn written(&self) -> bool {
        self.min_w != NO_WRITE
    }

    /// Clears the element's stamps (loop start, or periodic stamp-overflow
    /// resynchronization — §3.3).
    pub fn clear(&mut self) {
        *self = PrivSharedElem::default();
    }
}

/// Per-element state in the directory of one processor's **private** copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrivPrivateElem {
    /// Highest read-first iteration executed so far *by this processor*
    /// (0 = none).
    pub pmax_r1st: u64,
    /// Highest iteration executed so far by this processor that wrote the
    /// element (0 = none).
    pub pmax_w: u64,
}

impl PrivPrivateElem {
    /// Whether neither stamp is set (element untouched by this processor).
    pub fn is_untouched(&self) -> bool {
        self.pmax_r1st == 0 && self.pmax_w == 0
    }

    /// Private directory receives a read-first *signal* from its processor's
    /// cache (algorithm (b)): records the stamp. The signal always goes on
    /// to the shared directory.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is 0.
    pub fn on_read_first_signal(&mut self, iter: u64) -> PrivateEffect {
        assert!(iter > 0, "effective iteration stamps are 1-based");
        self.pmax_r1st = self.pmax_r1st.max(iter);
        PrivateEffect::SignalReadFirst
    }

    /// Private directory receives a read *request* (cache miss, algorithm
    /// (c)). `line_untouched` is true when every element of the requested
    /// memory line has both stamps zero (the read-in test). A first touch
    /// of the line reads it in from the shared array, which runs the
    /// shared directory's read-first test; a read-first iteration for this
    /// element signals the shared directory; anything else is a plain
    /// refill from the private copy.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is 0.
    pub fn on_read_miss(&mut self, iter: u64, line_untouched: bool) -> PrivateEffect {
        assert!(iter > 0, "effective iteration stamps are 1-based");
        if line_untouched {
            self.pmax_r1st = iter;
            PrivateEffect::TestReadFirst
        } else if self.pmax_r1st < iter && self.pmax_w < iter {
            self.pmax_r1st = iter;
            PrivateEffect::SignalReadFirst
        } else {
            PrivateEffect::None
        }
    }

    /// Private directory receives a first-write *signal* from its cache
    /// (algorithm (g)). The shared directory is signalled only on the
    /// processor's very first write to the element.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is 0.
    pub fn on_first_write_signal(&mut self, iter: u64) -> PrivateEffect {
        assert!(iter > 0, "effective iteration stamps are 1-based");
        let first = self.pmax_w == 0;
        self.pmax_w = self.pmax_w.max(iter);
        if first {
            PrivateEffect::SignalFirstWrite
        } else {
            PrivateEffect::None
        }
    }

    /// Private directory receives a write *request* (cache miss, algorithm
    /// (h)). The processor's first write to the element either reads the
    /// line in from the shared array (first touch of the line), which runs
    /// the shared directory's first-write test, or signals the shared
    /// directory; later writes are handled locally.
    ///
    /// # Panics
    ///
    /// Panics if `iter` is 0.
    pub fn on_write_miss(&mut self, iter: u64, line_untouched: bool) -> PrivateEffect {
        assert!(iter > 0, "effective iteration stamps are 1-based");
        let first = self.pmax_w == 0;
        self.pmax_w = self.pmax_w.max(iter);
        match (first, line_untouched) {
            (true, true) => PrivateEffect::TestFirstWrite,
            (true, false) => PrivateEffect::SignalFirstWrite,
            (false, _) => PrivateEffect::None,
        }
    }

    /// Clears the stamps (loop start).
    pub fn clear(&mut self) {
        *self = PrivPrivateElem::default();
    }
}

/// Cache-side read hit (algorithm (a)): checks/sets the per-iteration
/// `Read1st` bit. Returns whether the read is a read-first, which the
/// private directory (and from there the shared directory) must be
/// signalled.
pub fn priv_cache_read(tag: &mut ElemTag) -> bool {
    let first = !tag.read1st() && !tag.write();
    if first {
        tag.set_read1st(true);
    }
    first
}

/// Cache-side write hit (algorithm (f)): checks/sets the per-iteration
/// `Write` bit. Returns whether this is the iteration's first write to the
/// element, which the private directory must be signalled.
pub fn priv_cache_write(tag: &mut ElemTag) -> bool {
    let first = !tag.write();
    tag.set_write(true);
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- shared-directory stamp tests ----

    #[test]
    fn reads_then_later_writes_pass() {
        // Figure 3 pattern: early iterations read, later iterations write.
        let mut s = PrivSharedElem::default();
        s.on_read_first(1).unwrap();
        s.on_read_first(2).unwrap();
        s.on_first_write(2).unwrap(); // same iteration as the last read-first
        s.on_first_write(5).unwrap();
        assert_eq!(s.max_r1st, 2);
        assert_eq!(s.min_w, 2);
        assert!(s.written());
    }

    #[test]
    fn stamp_labels_render_compactly() {
        let mut s = PrivSharedElem::default();
        assert_eq!(s.state_label(), "MaxR1st=0,MinW=inf");
        s.on_read_first(3).unwrap();
        s.on_first_write(4).unwrap();
        assert_eq!(s.state_label(), "MaxR1st=3,MinW=4");
    }

    #[test]
    fn read_first_after_write_fails() {
        let mut s = PrivSharedElem::default();
        s.on_first_write(3).unwrap();
        let err = s.on_read_first(5).unwrap_err();
        assert_eq!(err, FailReason::ReadFirstAfterWrite { iter: 5, min_w: 3 });
    }

    #[test]
    fn read_first_before_or_at_min_write_passes() {
        let mut s = PrivSharedElem::default();
        s.on_first_write(3).unwrap();
        s.on_read_first(3).unwrap(); // same iteration: read preceded its own write
        s.on_read_first(2).unwrap(); // earlier iteration arriving late
        assert_eq!(s.max_r1st, 3);
    }

    #[test]
    fn write_before_read_first_fails() {
        let mut s = PrivSharedElem::default();
        s.on_read_first(7).unwrap();
        let err = s.on_first_write(4).unwrap_err();
        assert_eq!(
            err,
            FailReason::WriteBeforeReadFirst {
                iter: 4,
                max_r1st: 7
            }
        );
    }

    #[test]
    fn min_w_tracks_minimum_across_processors() {
        let mut s = PrivSharedElem::default();
        s.on_first_write(9).unwrap();
        s.on_first_write(4).unwrap(); // another processor's first write
        assert_eq!(s.min_w, 4);
        assert!(s.on_read_first(5).is_err());
        // But a read-first at iteration 4 itself is fine.
        let mut s2 = PrivSharedElem::default();
        s2.on_first_write(4).unwrap();
        s2.on_read_first(4).unwrap();
    }

    #[test]
    fn write_only_pattern_passes_any_order() {
        let mut s = PrivSharedElem::default();
        for iter in [5, 2, 9, 1] {
            s.on_first_write(iter).unwrap();
        }
        assert_eq!(s.min_w, 1);
        assert_eq!(s.max_r1st, 0);
    }

    #[test]
    fn clear_resets_stamps() {
        let mut s = PrivSharedElem::default();
        s.on_first_write(1).unwrap();
        s.on_read_first(1).unwrap();
        s.clear();
        assert_eq!(s, PrivSharedElem::default());
        assert!(!s.written());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_stamp_rejected() {
        PrivSharedElem::default().on_read_first(0).unwrap();
    }

    // ---- injectable-bug behaviour (consumed by the conformance harness) ----

    #[test]
    fn drop_maxr1st_injection_loses_the_stamp_and_misses_the_hazard() {
        let _g = fault::Injected::new(fault::FaultKind::DropMaxR1stUpdate);
        let mut s = PrivSharedElem::default();
        s.on_read_first(7).unwrap();
        assert_eq!(s.max_r1st, 0, "the injected bug drops the stamp update");
        // Write iteration 4 precedes read-first iteration 7: must FAIL
        // (Fig. 9-j), but the stale stamp lets it through.
        assert!(s.on_first_write(4).is_ok());
    }

    #[test]
    fn swap_ts_compare_injection_inverts_the_read_first_test() {
        let _g = fault::Injected::new(fault::FaultKind::SwapTsCompare);
        // A perfectly legal first read-first now fails...
        let mut s = PrivSharedElem::default();
        assert!(s.on_read_first(1).is_err());
        // ...and a genuine flow hazard passes.
        let mut s2 = PrivSharedElem::default();
        s2.on_first_write(3).unwrap();
        assert!(s2.on_read_first(5).is_ok());
    }

    // ---- private-directory tests ----

    #[test]
    fn read_miss_on_untouched_line_is_read_in() {
        let mut p = PrivPrivateElem::default();
        assert!(p.is_untouched());
        assert_eq!(p.on_read_miss(3, true), PrivateEffect::TestReadFirst);
        assert_eq!(p.pmax_r1st, 3);
        assert!(!p.is_untouched());
    }

    #[test]
    fn read_miss_new_iteration_is_read_first() {
        let mut p = PrivPrivateElem::default();
        p.on_read_miss(1, true);
        assert_eq!(p.on_read_miss(4, false), PrivateEffect::SignalReadFirst);
        assert_eq!(p.pmax_r1st, 4);
    }

    #[test]
    fn read_miss_same_iteration_is_plain() {
        let mut p = PrivPrivateElem::default();
        p.on_read_miss(2, true);
        // Line evicted, re-read within the same iteration: already counted.
        assert_eq!(p.on_read_miss(2, false), PrivateEffect::None);
    }

    #[test]
    fn read_miss_after_write_in_same_iteration_is_plain() {
        let mut p = PrivPrivateElem::default();
        p.on_write_miss(5, true);
        // Read later in iteration 5: written first, so not read-first.
        assert_eq!(p.on_read_miss(5, false), PrivateEffect::None);
    }

    #[test]
    fn write_miss_first_in_loop_notifies_or_reads_in() {
        let mut p = PrivPrivateElem::default();
        assert_eq!(p.on_write_miss(2, true), PrivateEffect::TestFirstWrite);
        assert_eq!(p.pmax_w, 2);

        let mut q = PrivPrivateElem::default();
        q.on_read_first_signal(1); // line already resident via a read
        assert_eq!(q.on_write_miss(2, false), PrivateEffect::SignalFirstWrite);
    }

    #[test]
    fn write_miss_later_iterations_local() {
        let mut p = PrivPrivateElem::default();
        p.on_write_miss(1, true);
        assert_eq!(p.on_write_miss(4, false), PrivateEffect::None);
        assert_eq!(p.pmax_w, 4);
        // Same-iteration re-write after eviction also local, stamp unchanged.
        assert_eq!(p.on_write_miss(4, false), PrivateEffect::None);
        assert_eq!(p.pmax_w, 4);
    }

    #[test]
    fn first_write_signal_forwards_only_once() {
        let mut p = PrivPrivateElem::default();
        assert_eq!(p.on_first_write_signal(2), PrivateEffect::SignalFirstWrite);
        assert_eq!(p.on_first_write_signal(3), PrivateEffect::None);
        assert_eq!(p.pmax_w, 3);
    }

    #[test]
    fn read_first_signal_records_max() {
        let mut p = PrivPrivateElem::default();
        p.on_read_first_signal(2);
        p.on_read_first_signal(5);
        p.on_read_first_signal(3);
        assert_eq!(p.pmax_r1st, 5);
    }

    #[test]
    fn private_clear_resets() {
        let mut p = PrivPrivateElem::default();
        p.on_read_first_signal(1);
        p.clear();
        assert!(p.is_untouched());
    }

    // ---- cache-tag side ----

    #[test]
    fn cache_read_signals_once_per_iteration() {
        let mut t = ElemTag::CLEAR;
        assert!(priv_cache_read(&mut t));
        assert!(!priv_cache_read(&mut t));
        t.clear_iteration_bits(); // next iteration
        assert!(priv_cache_read(&mut t));
    }

    #[test]
    fn cache_read_after_write_is_not_read_first() {
        let mut t = ElemTag::CLEAR;
        assert!(priv_cache_write(&mut t));
        assert!(!priv_cache_read(&mut t));
    }

    #[test]
    fn cache_write_signals_once_per_iteration() {
        let mut t = ElemTag::CLEAR;
        assert!(priv_cache_write(&mut t));
        assert!(!priv_cache_write(&mut t));
        t.clear_iteration_bits();
        assert!(priv_cache_write(&mut t));
    }

    // ---- end-to-end stamp property on one element ----

    #[test]
    fn stamp_test_matches_oracle_exhaustively() {
        // Enumerate all per-iteration behaviours over 4 iterations, where an
        // iteration either skips the element, reads it first, writes it
        // first, or writes-then-reads (not read-first). The protocol must
        // fail exactly when some iteration reads-first and an *earlier*
        // iteration writes.
        #[derive(Clone, Copy, PartialEq)]
        enum B {
            Skip,
            ReadFirst,
            WriteFirst,
            WriteThenRead,
        }
        let opts = [B::Skip, B::ReadFirst, B::WriteFirst, B::WriteThenRead];
        for a in opts {
            for b in opts {
                for c in opts {
                    for d in opts {
                        let seq = [a, b, c, d];
                        let mut s = PrivSharedElem::default();
                        let mut failed = false;
                        'outer: for (i, beh) in seq.iter().enumerate() {
                            let iter = i as u64 + 1;
                            let steps: &[bool] = match beh {
                                B::Skip => &[],
                                B::ReadFirst => &[true],
                                B::WriteFirst => &[false],
                                B::WriteThenRead => &[false], // read not read-first
                            };
                            for &is_read in steps {
                                let r = if is_read {
                                    s.on_read_first(iter)
                                } else {
                                    s.on_first_write(iter)
                                };
                                if r.is_err() {
                                    failed = true;
                                    break 'outer;
                                }
                            }
                        }
                        // Oracle: exists i < j with seq[i] writes and seq[j]
                        // reads-first.
                        let mut oracle_fail = false;
                        for i in 0..4 {
                            for j in (i + 1)..4 {
                                let wi = matches!(seq[i], B::WriteFirst | B::WriteThenRead);
                                let rj = seq[j] == B::ReadFirst;
                                if wi && rj {
                                    oracle_fail = true;
                                }
                            }
                        }
                        assert_eq!(failed, oracle_fail);
                    }
                }
            }
        }
    }
}
