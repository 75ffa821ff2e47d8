//! The non-privatization algorithm (paper Figures 4, 6 and 7).
//!
//! Invariant enforced per element of an array under test: the element is
//! either **read-only** (arbitrarily shared) or **not shared** (accessed by
//! exactly one processor, which may read and write it freely). Any access
//! pattern outside this envelope FAILs the speculation.
//!
//! State:
//!
//! * directory (home node), per element: `First` — id of the first processor
//!   to access the element; `NoShr` — the element has been written; `ROnly`
//!   — the element has been read by more than one processor;
//! * cache tags, per element: the same bits, except `First` is summarized to
//!   NONE/OWN/OTHER (a cache only needs to know whether *it* was first).
//!
//! Tag bits are kept coherent with the directory lazily: changes made while
//! the line is **dirty** need no message (any other processor must fetch the
//! line — and the tags — from the owner); changes on clean lines send
//! `First_update` / `ROnly_update` messages, whose races the directory
//! resolves (algorithms (f)–(h)).
//!
//! One deliberate deviation from the paper's literal pseudo-code is
//! documented at [`NonPrivDirElem::on_first_update`].

use specrt_cache::{ElemTag, FirstTag};
use specrt_mem::ProcId;

use crate::fail::FailReason;
use crate::protospec::{CacheEmission, DirEmission};

/// Directory-side per-element state for the non-privatization protocol
/// (Figure 5-a: `log(Proc)`-bit `First` + `NoShr` + `ROnly`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NonPrivDirElem {
    /// First processor to access the element, if any.
    pub first: Option<ProcId>,
    /// Set when the element has been written.
    pub no_shr: bool,
    /// Set when the element has been read by more than one processor.
    pub r_only: bool,
}

impl NonPrivDirElem {
    /// Compact state label for tracing: `Clear`, or the set bits joined
    /// with `,` — e.g. `First(cpu1)`, `NoShr,First(cpu0)`,
    /// `ROnly,First(cpu2)`.
    pub fn state_label(&self) -> String {
        let mut parts = Vec::new();
        if self.no_shr {
            parts.push("NoShr".to_string());
        }
        if self.r_only {
            parts.push("ROnly".to_string());
        }
        if let Some(p) = self.first {
            parts.push(format!("First({p})"));
        }
        if parts.is_empty() {
            "Clear".to_string()
        } else {
            parts.join(",")
        }
    }

    /// Directory part of a read request (algorithm (b)). Call *after*
    /// merging any dirty owner's tag state via [`merge_writeback`].
    ///
    /// # Errors
    ///
    /// FAILs when the requester reads data already written by another
    /// processor.
    ///
    /// [`merge_writeback`]: Self::merge_writeback
    pub fn on_read_req(&mut self, req: ProcId) -> Result<(), FailReason> {
        if self.first != Some(req) && self.no_shr && self.first.is_some() {
            return Err(FailReason::ReadOfRemotelyWritten {
                reader: req,
                first: self.first,
            });
        }
        match self.first {
            None => self.first = Some(req),
            Some(f) if f != req && !self.r_only => self.r_only = true,
            _ => {}
        }
        Ok(())
    }

    /// Directory part of a write request (algorithm (d)). Call *after*
    /// invalidating sharers / merging the dirty owner's tag state.
    ///
    /// # Errors
    ///
    /// FAILs when another processor accessed the element first, or the
    /// element is marked read-shared.
    pub fn on_write_req(&mut self, req: ProcId) -> Result<(), FailReason> {
        let foreign_first = matches!(self.first, Some(f) if f != req);
        // The `r_only` disjunct is the check the conformance harness can
        // deliberately disable to prove the fuzzer catches protocol bugs.
        let r_only_conflict =
            self.r_only && !crate::fault::active(crate::fault::FaultKind::DropROnlyCheck);
        if foreign_first || r_only_conflict {
            return Err(FailReason::WriteConflict {
                writer: req,
                first: self.first,
                r_only: self.r_only,
            });
        }
        self.first = Some(req);
        self.no_shr = true;
        Ok(())
    }

    /// Directory receives a `First_update` from `sender` (algorithm (f)).
    /// `dir.First` NONE records the sender; a `dir.First` that already
    /// names the sender makes the update redundant; both emit nothing.
    /// When another processor won the race, `dir.ROnly` is set and a
    /// `First_update_fail` bounces back to the sender (handled at its cache
    /// by [`nonpriv_on_first_update_fail`]). The update FAILs when it races
    /// with a write that reached the directory first (`dir.NoShr` set).
    ///
    /// Deviation from the paper's literal pseudo-code: when `dir.First`
    /// already equals the sender the update is treated as redundant instead
    /// of bouncing (the paper's code would set `ROnly` and bounce, which is
    /// safe but needlessly conservative; the bounce branch is annotated
    /// "race between two First_updates", i.e. intended for *different*
    /// senders).
    pub fn on_first_update(&mut self, sender: ProcId) -> Option<DirEmission> {
        if self.no_shr {
            return Some(DirEmission::Fail(FailReason::FirstUpdateRace { sender }));
        }
        match self.first {
            None => {
                self.first = Some(sender);
                None
            }
            Some(f) if f == sender => None,
            Some(_) => {
                self.r_only = true;
                Some(DirEmission::SendFirstUpdateFail { target: sender })
            }
        }
    }

    /// Directory receives an `ROnly_update` (algorithm (h)). A race between
    /// two `ROnly_update`s needs no bounce: the second is plainly ignored.
    ///
    /// # Errors
    ///
    /// FAILs when the update races with a write (`dir.NoShr` already set).
    pub fn on_r_only_update(&mut self, sender: ProcId) -> Result<(), FailReason> {
        if self.no_shr {
            return Err(FailReason::ROnlyUpdateRace { sender });
        }
        self.r_only = true;
        Ok(())
    }

    /// Merges a dirty line's tag state into the directory (algorithm (e),
    /// and the "update dir.First, dir.Priv and dir.ROnly" steps of (b) and
    /// (d)). `owner` is the processor whose cache held the dirty line.
    ///
    /// Extension over the paper's literal pseudo-code: the merge itself
    /// checks for conflicts. A processor that holds a line dirty updates tag
    /// bits of *other elements on the line* without messaging the home, so
    /// by the time the line is written back the directory may hold a
    /// different `First` (from an update message that raced in). The merge
    /// is the first moment both views meet; if together they show an element
    /// both written and touched by two processors, the speculation FAILs
    /// here — before any other processor can consume the line, since every
    /// fetch of a dirty line performs this merge first.
    ///
    /// # Errors
    ///
    /// FAILs when the combined state leaves the read-only-or-single-
    /// processor envelope.
    pub fn merge_writeback(&mut self, tag: ElemTag, owner: ProcId) -> Result<(), FailReason> {
        let mut multi_proc = false;
        if tag.first() == FirstTag::Own {
            match self.first {
                None => self.first = Some(owner),
                Some(q) if q == owner => {}
                Some(_) => multi_proc = true,
            }
        }
        self.no_shr |= tag.no_shr();
        self.r_only |= tag.r_only();
        if multi_proc {
            if self.no_shr {
                return Err(FailReason::WriteConflict {
                    writer: owner,
                    first: self.first,
                    r_only: self.r_only,
                });
            }
            // Two distinct processors have (only) read the element.
            self.r_only = true;
        }
        if self.no_shr && self.r_only {
            return Err(FailReason::WriteConflict {
                writer: owner,
                first: self.first,
                r_only: true,
            });
        }
        Ok(())
    }

    /// Projects the directory state into the cache-tag view sent to
    /// `viewer` with a data reply ("Copy dir state to tag state for all the
    /// words in the line").
    pub fn to_tag(&self, viewer: ProcId) -> ElemTag {
        let mut t = ElemTag::CLEAR;
        t.set_first(match self.first {
            None => FirstTag::None,
            Some(p) if p == viewer => FirstTag::Own,
            Some(_) => FirstTag::Other,
        });
        t.set_no_shr(self.no_shr);
        t.set_r_only(self.r_only);
        t
    }

    /// Clears the element's state (loop start).
    pub fn clear(&mut self) {
        *self = NonPrivDirElem::default();
    }
}

/// Cache-side read of an element whose line is resident (algorithm (a)).
///
/// Mutates the tag and returns the update message (if any) to send to the
/// home node: `First_update` when `tag.First` went NONE→OWN, `ROnly_update`
/// when `tag.ROnly` was set. No message is needed when the line is dirty,
/// because any other processor must fetch the line — tags included — from
/// this cache. FAILs when the tag shows the element written by another
/// processor (`First == OTHER && NoShr`).
pub fn nonpriv_cache_read(
    tag: &mut ElemTag,
    line_dirty: bool,
    reader: ProcId,
) -> Option<CacheEmission> {
    if tag.first() == FirstTag::Other && tag.no_shr() {
        return Some(CacheEmission::Fail(FailReason::ReadOfRemotelyWritten {
            reader,
            first: None,
        }));
    }
    if tag.first() == FirstTag::None {
        tag.set_first(FirstTag::Own);
        if !line_dirty {
            return Some(CacheEmission::SendFirstUpdate);
        }
    } else if tag.first() == FirstTag::Other && !tag.r_only() {
        tag.set_r_only(true);
        if !line_dirty {
            return Some(CacheEmission::SendROnlyUpdate);
        }
    }
    None
}

/// Cache-side write of an element whose line is resident (algorithm (c)).
///
/// On a dirty line the write proceeds locally, the tags are updated and
/// nothing is emitted. On a clean line the tags stay as they are and a
/// `write_req` (upgrade) must go to the home; [`nonpriv_complete_write`]
/// updates the tags once the exclusive grant arrives. FAILs when the
/// element was first accessed by another processor or is marked
/// read-shared.
pub fn nonpriv_cache_write(
    tag: &mut ElemTag,
    line_dirty: bool,
    writer: ProcId,
) -> Option<CacheEmission> {
    if tag.first() == FirstTag::Other || tag.r_only() {
        return Some(CacheEmission::Fail(FailReason::WriteConflict {
            writer,
            first: None,
            r_only: tag.r_only(),
        }));
    }
    if line_dirty {
        nonpriv_complete_write(tag);
        None
    } else {
        Some(CacheEmission::NeedWriteReq)
    }
}

/// Applies the tag effects of a completed write: `tag.First = OWN`,
/// `tag.NoShr = 1` ("no need to tell the directory" — the write request
/// itself already updated it, or the line is dirty).
pub fn nonpriv_complete_write(tag: &mut ElemTag) {
    tag.set_first(FirstTag::Own);
    tag.set_no_shr(true);
}

/// Cache receives a `First_update_fail` bounce (algorithm (g)): this
/// processor was not first after all.
///
/// # Errors
///
/// FAILs when the processor had *already written* the element on the
/// strength of believing it was first (`tag.First == OWN && tag.NoShr`).
pub fn nonpriv_on_first_update_fail(tag: &mut ElemTag, proc: ProcId) -> Result<(), FailReason> {
    if tag.first() == FirstTag::Own && tag.no_shr() {
        return Err(FailReason::FirstUpdateFailAfterWrite { proc });
    }
    tag.set_first(FirstTag::Other);
    tag.set_r_only(true);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    // ---- directory-level sequences (as if uncached) ----

    #[test]
    fn state_labels_follow_transitions() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(d.state_label(), "Clear");
        d.on_read_req(P0).unwrap();
        assert_eq!(d.state_label(), "First(cpu0)");
        d.on_read_req(P1).unwrap();
        assert_eq!(d.state_label(), "ROnly,First(cpu0)");
        let mut w = NonPrivDirElem::default();
        w.on_write_req(P1).unwrap();
        assert_eq!(w.state_label(), "NoShr,First(cpu1)");
    }

    #[test]
    fn single_processor_read_write_passes() {
        let mut d = NonPrivDirElem::default();
        d.on_read_req(P0).unwrap();
        d.on_write_req(P0).unwrap();
        d.on_read_req(P0).unwrap();
        d.on_write_req(P0).unwrap();
        assert_eq!(d.first, Some(P0));
        assert!(d.no_shr);
        assert!(!d.r_only);
    }

    #[test]
    fn read_only_sharing_passes() {
        let mut d = NonPrivDirElem::default();
        d.on_read_req(P0).unwrap();
        d.on_read_req(P1).unwrap();
        d.on_read_req(P0).unwrap();
        assert!(d.r_only);
        assert!(!d.no_shr);
    }

    #[test]
    fn remote_read_after_write_fails() {
        let mut d = NonPrivDirElem::default();
        d.on_write_req(P0).unwrap();
        let err = d.on_read_req(P1).unwrap_err();
        assert!(matches!(err, FailReason::ReadOfRemotelyWritten { reader, .. } if reader == P1));
    }

    #[test]
    fn write_after_foreign_first_fails() {
        let mut d = NonPrivDirElem::default();
        d.on_read_req(P0).unwrap();
        let err = d.on_write_req(P1).unwrap_err();
        assert!(matches!(err, FailReason::WriteConflict { writer, .. } if writer == P1));
    }

    #[test]
    fn write_to_read_shared_element_fails_even_for_first() {
        let mut d = NonPrivDirElem::default();
        d.on_read_req(P0).unwrap();
        d.on_read_req(P1).unwrap(); // sets ROnly
        let err = d.on_write_req(P0).unwrap_err();
        assert!(matches!(
            err,
            FailReason::WriteConflict { r_only: true, .. }
        ));
    }

    #[test]
    fn two_concurrent_writes_second_fails() {
        // The paper's §3.2 race walk-through: both writes serialize at the
        // directory; the second finds NoShr set by the first.
        let mut d = NonPrivDirElem::default();
        d.on_write_req(P0).unwrap();
        assert!(d.on_write_req(P1).is_err());
    }

    // ---- update-message races (algorithms (f)-(h)) ----

    #[test]
    fn first_update_accepted_then_bounced() {
        let mut d = NonPrivDirElem::default();
        assert_eq!(d.on_first_update(P0), None);
        assert_eq!(
            d.on_first_update(P1),
            Some(DirEmission::SendFirstUpdateFail { target: P1 })
        );
        assert!(
            d.r_only,
            "losing a First_update race marks the element read-shared"
        );
    }

    #[test]
    fn first_update_redundant_for_same_sender() {
        let mut d = NonPrivDirElem::default();
        d.on_first_update(P0);
        assert_eq!(d.on_first_update(P0), None);
        assert!(!d.r_only);
    }

    #[test]
    fn first_update_vs_write_race_fails() {
        let mut d = NonPrivDirElem::default();
        d.on_write_req(P0).unwrap();
        assert_eq!(
            d.on_first_update(P1),
            Some(DirEmission::Fail(FailReason::FirstUpdateRace {
                sender: P1
            }))
        );
    }

    #[test]
    fn r_only_update_vs_write_race_fails() {
        let mut d = NonPrivDirElem::default();
        d.on_write_req(P0).unwrap();
        assert!(d.on_r_only_update(P1).is_err());
    }

    #[test]
    fn r_only_update_race_between_readers_is_benign() {
        let mut d = NonPrivDirElem::default();
        d.on_read_req(P0).unwrap();
        d.on_read_req(P1).unwrap();
        d.on_r_only_update(P0).unwrap();
        d.on_r_only_update(P1).unwrap(); // second plainly ignored
        assert!(d.r_only);
    }

    // ---- cache-tag side ----

    #[test]
    fn cache_read_first_touch_sends_first_update_when_clean() {
        let mut t = ElemTag::CLEAR;
        let em = nonpriv_cache_read(&mut t, false, P0);
        assert_eq!(em, Some(CacheEmission::SendFirstUpdate));
        assert_eq!(t.first(), FirstTag::Own);
    }

    #[test]
    fn cache_read_first_touch_on_dirty_line_is_silent() {
        let mut t = ElemTag::CLEAR;
        assert_eq!(nonpriv_cache_read(&mut t, true, P0), None);
        assert_eq!(t.first(), FirstTag::Own);
    }

    #[test]
    fn cache_read_sets_r_only_when_other_was_first() {
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Other);
        let em = nonpriv_cache_read(&mut t, false, P0);
        assert_eq!(em, Some(CacheEmission::SendROnlyUpdate));
        assert!(t.r_only());
        // A second read needs no further message.
        assert_eq!(nonpriv_cache_read(&mut t, false, P0), None);
    }

    #[test]
    fn cache_read_of_remotely_written_fails() {
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Other);
        t.set_no_shr(true);
        assert!(matches!(
            nonpriv_cache_read(&mut t, false, P0),
            Some(CacheEmission::Fail(_))
        ));
    }

    #[test]
    fn cache_write_dirty_line_proceeds_and_tags() {
        let mut t = ElemTag::CLEAR;
        assert_eq!(nonpriv_cache_write(&mut t, true, P0), None);
        assert_eq!(t.first(), FirstTag::Own);
        assert!(t.no_shr());
    }

    #[test]
    fn cache_write_clean_line_needs_upgrade() {
        let mut t = ElemTag::CLEAR;
        let em = nonpriv_cache_write(&mut t, false, P0);
        assert_eq!(em, Some(CacheEmission::NeedWriteReq));
        // Tags are not yet updated; they are set on grant completion.
        assert_eq!(t.first(), FirstTag::None);
        nonpriv_complete_write(&mut t);
        assert_eq!(t.first(), FirstTag::Own);
        assert!(t.no_shr());
    }

    #[test]
    fn cache_write_fails_on_other_first_or_r_only() {
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Other);
        let em = nonpriv_cache_write(&mut t, false, P0);
        assert!(matches!(em, Some(CacheEmission::Fail(_))));
        let mut t = ElemTag::CLEAR;
        t.set_r_only(true);
        let em = nonpriv_cache_write(&mut t, true, P0);
        assert!(matches!(em, Some(CacheEmission::Fail(_))));
    }

    #[test]
    fn first_update_fail_bounce_without_write_demotes() {
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Own);
        nonpriv_on_first_update_fail(&mut t, P0).unwrap();
        assert_eq!(t.first(), FirstTag::Other);
        assert!(t.r_only());
    }

    #[test]
    fn first_update_fail_bounce_after_write_fails() {
        // "The slower processor not only read but also wrote the data before
        // knowing whether it was the First processor" (paper §3.2).
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Own);
        t.set_no_shr(true);
        let err = nonpriv_on_first_update_fail(&mut t, P1).unwrap_err();
        assert!(matches!(err, FailReason::FirstUpdateFailAfterWrite { proc } if proc == P1));
    }

    // ---- dir <-> tag projection ----

    #[test]
    fn to_tag_maps_first_to_viewpoint() {
        let mut d = NonPrivDirElem::default();
        d.on_write_req(P0).unwrap();
        let own = d.to_tag(P0);
        assert_eq!(own.first(), FirstTag::Own);
        assert!(own.no_shr());
        let other = d.to_tag(P1);
        assert_eq!(other.first(), FirstTag::Other);
    }

    #[test]
    fn merge_writeback_propagates_owner_state() {
        let mut d = NonPrivDirElem::default();
        let mut t = ElemTag::CLEAR;
        // Owner read and wrote the element while the line was dirty: the
        // directory never heard about it until the write-back.
        t.set_first(FirstTag::Own);
        t.set_no_shr(true);
        d.merge_writeback(t, P1).unwrap();
        assert_eq!(d.first, Some(P1));
        assert!(d.no_shr);
        // A read by another processor now fails, as required.
        assert!(d.on_read_req(P0).is_err());
    }

    #[test]
    fn merge_writeback_of_untouched_tag_is_noop() {
        let mut d = NonPrivDirElem::default();
        d.merge_writeback(ElemTag::CLEAR, P1).unwrap();
        assert_eq!(d, NonPrivDirElem::default());
    }

    #[test]
    fn merge_writeback_detects_in_flight_read_vs_dirty_write() {
        // P0's First_update (from a read) reached the directory while P1
        // held the line dirty and wrote the element without messaging.
        let mut d = NonPrivDirElem::default();
        d.on_first_update(P0);
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Own);
        t.set_no_shr(true);
        let err = d.merge_writeback(t, P1).unwrap_err();
        assert!(matches!(err, FailReason::WriteConflict { writer, .. } if writer == P1));
    }

    #[test]
    fn merge_writeback_two_silent_readers_become_r_only() {
        // P0 read (directory knows); P1 read the same element on a line it
        // held dirty (for some other element) — silent. The merge must
        // conclude "read by two processors" without failing.
        let mut d = NonPrivDirElem::default();
        d.on_first_update(P0);
        let mut t = ElemTag::CLEAR;
        t.set_first(FirstTag::Own); // P1 believed it was first
        d.merge_writeback(t, P1).unwrap();
        assert!(d.r_only);
        assert_eq!(d.first, Some(P0));
        // A later write by anyone now fails.
        assert!(d.on_write_req(P0).is_err());
    }

    #[test]
    fn clear_resets_dir_elem() {
        let mut d = NonPrivDirElem::default();
        d.on_write_req(P0).unwrap();
        d.clear();
        assert_eq!(d, NonPrivDirElem::default());
    }

    // ---- order-independence property of the envelope ----

    #[test]
    fn envelope_property_exhaustive_small() {
        // For every access sequence of length <= 4 over 2 processors and one
        // element (directory-serialized, uncached), the protocol passes iff
        // the element is read-only or single-processor.
        #[derive(Clone, Copy)]
        enum Acc {
            R(ProcId),
            W(ProcId),
        }
        let choices = [Acc::R(P0), Acc::W(P0), Acc::R(P1), Acc::W(P1)];
        for len in 0..=4usize {
            let mut idx = vec![0usize; len];
            loop {
                let seq: Vec<Acc> = idx.iter().map(|&i| choices[i]).collect();
                // Run protocol.
                let mut d = NonPrivDirElem::default();
                let mut failed = false;
                for a in &seq {
                    let r = match a {
                        Acc::R(p) => d.on_read_req(*p),
                        Acc::W(p) => d.on_write_req(*p),
                    };
                    if r.is_err() {
                        failed = true;
                        break;
                    }
                }
                // Oracle.
                let procs: std::collections::BTreeSet<u32> = seq
                    .iter()
                    .map(|a| match a {
                        Acc::R(p) | Acc::W(p) => p.0,
                    })
                    .collect();
                let any_write = seq.iter().any(|a| matches!(a, Acc::W(_)));
                let ok = procs.len() <= 1 || !any_write;
                assert_eq!(!failed, ok, "mismatch for sequence of length {len}");
                // Next index vector.
                let mut k = 0;
                loop {
                    if k == len {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < choices.len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == len {
                    break;
                }
            }
        }
    }
}
