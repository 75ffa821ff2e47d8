//! The paper's race sites, defined once.
//!
//! The paper resolves every protocol race with a lettered algorithm:
//! Figs. 6–7 (a)–(h) for the non-privatization protocol and Fig. 9
//! (a)–(j) for privatization with read-in. The no-read-in variant of §4.1
//! runs Fig. 9's algorithms on its reduced bits, minus the read-in ones.
//! A [`RaceSite`] names one such algorithm of one variant. The element
//! functions of [`ProtocolSpec`](crate::ProtocolSpec) return the site of
//! each decision they take, so the machine's `MemSystem` counts and
//! traces exactly the decisions the model checker enumerates.
//!
//! Each site's trace label and `StatSet` key are generated from the table
//! below: the label is the letter, prefixed by `9` under Fig. 9 and by
//! `4.1` under §4.1, and the key is `race_case_` followed by the label.

use crate::protospec::SpecVariant;

macro_rules! race_sites {
    ($($site:ident = $variant:ident $label:literal $delivery:literal, $doc:literal;)*) => {
        /// One lettered race-resolution algorithm of one protocol variant
        /// (see the [module docs](self)).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum RaceSite {
            $(#[doc = $doc] $site,)*
        }

        impl RaceSite {
            /// How many sites there are, over all variants.
            pub const COUNT: usize = [$($label,)*].len();
            /// The most sites one variant has. A variant's sites are
            /// declared together, so its `i`-th site in letter order is
            /// `ALL[first + i]`.
            pub const MAX_PER_VARIANT: usize = {
                let (mut max, mut run, mut i) = (0, 0, 0);
                while i < RaceSite::COUNT {
                    let same = i > 0
                        && RaceSite::VARIANTS[i] as u8 == RaceSite::VARIANTS[i - 1] as u8;
                    run = if same { run + 1 } else { 1 };
                    if run > max {
                        max = run;
                    }
                    i += 1;
                }
                max
            };
            /// Every site, variant by variant, in letter order.
            pub const ALL: [RaceSite; RaceSite::COUNT] = [$(RaceSite::$site,)*];
            /// Every site's `StatSet` key, in [`Self::ALL`] order.
            pub const KEYS: [&'static str; RaceSite::COUNT] = [$(concat!("race_case_", $label),)*];
            const LABELS: [&'static str; RaceSite::COUNT] = [$($label,)*];
            const VARIANTS: [SpecVariant; RaceSite::COUNT] = [$(SpecVariant::$variant,)*];
            const DELIVERIES: [bool; RaceSite::COUNT] = [$($delivery,)*];
        }
    };
}

race_sites! {
    NonPrivA = NonPriv "a" false, "Figs. 6–7 (a): a read hit at the cache tags.";
    NonPrivB = NonPriv "b" false, "Figs. 6–7 (b): a read miss's test at the directory.";
    NonPrivC = NonPriv "c" false, "Figs. 6–7 (c): a write hit at the cache tags.";
    NonPrivD = NonPriv "d" false, "Figs. 6–7 (d): a write miss's or upgrade's test at the directory.";
    NonPrivE = NonPriv "e" false, "Figs. 6–7 (e): one element of a dirty line's tags merging into the directory.";
    NonPrivF = NonPriv "f" true, "Figs. 6–7 (f): a `First_update` arriving at the directory.";
    NonPrivG = NonPriv "g" true, "Figs. 6–7 (g): a `First_update_fail` bounce arriving at a resident copy.";
    NonPrivH = NonPriv "h" true, "Figs. 6–7 (h): an `ROnly_update` arriving at the directory.";
    PrivA = Priv "9a" false, "Fig. 9 (a): a read hit at the cache tags.";
    PrivB = Priv "9b" false, "Fig. 9 (b): a read-first signal at the private directory.";
    PrivC = Priv "9c" false, "Fig. 9 (c): a read miss at the private directory.";
    PrivD = Priv "9d" true, "Fig. 9 (d): a read-first signal arriving at the shared directory.";
    PrivE = Priv "9e" false, "Fig. 9 (e): a read-in request's read-first test at the shared directory.";
    PrivF = Priv "9f" false, "Fig. 9 (f): a write hit at the cache tags.";
    PrivG = Priv "9g" false, "Fig. 9 (g): a first-write signal at the private directory.";
    PrivH = Priv "9h" false, "Fig. 9 (h): a write miss at the private directory.";
    PrivI = Priv "9i" true, "Fig. 9 (i): a first-write signal arriving at the shared directory.";
    PrivJ = Priv "9j" false, "Fig. 9 (j): a read-in-for-write request's test at the shared directory.";
    Priv3A = Priv3 "4.1a" false, "§4.1 running Fig. 9 (a): a read hit at the cache tags.";
    Priv3B = Priv3 "4.1b" false, "§4.1 running Fig. 9 (b): a read-first signal at the private directory's bits.";
    Priv3C = Priv3 "4.1c" false, "§4.1 running Fig. 9 (c): a read miss at the private directory's bits.";
    Priv3D = Priv3 "4.1d" true, "§4.1 running Fig. 9 (d): a read-first signal arriving at the shared bits.";
    Priv3F = Priv3 "4.1f" false, "§4.1 running Fig. 9 (f): a write hit at the cache tags.";
    Priv3G = Priv3 "4.1g" false, "§4.1 running Fig. 9 (g): a first-write signal at the private directory's bits.";
    Priv3H = Priv3 "4.1h" false, "§4.1 running Fig. 9 (h): a write miss at the private directory's bits.";
    Priv3I = Priv3 "4.1i" true, "§4.1 running Fig. 9 (i): a first-write signal arriving at the shared bits.";
}

impl RaceSite {
    /// The site's trace label (the `case` of a transaction).
    pub fn label(self) -> &'static str {
        Self::LABELS[self as usize]
    }

    /// The site's `StatSet` key.
    pub fn key(self) -> &'static str {
        Self::KEYS[self as usize]
    }

    /// The protocol variant the site belongs to.
    pub fn variant(self) -> SpecVariant {
        Self::VARIANTS[self as usize]
    }

    /// Whether the site is taken where an asynchronous message arrives,
    /// rather than by an access or a write-back: a transaction's own
    /// `case` never names such a site, even when the transaction drains
    /// the message first.
    pub fn delivery(self) -> bool {
        Self::DELIVERIES[self as usize]
    }

    /// The sites of `variant`, in letter order.
    pub fn of(variant: SpecVariant) -> impl Iterator<Item = RaceSite> {
        RaceSite::ALL
            .into_iter()
            .filter(move |s| s.variant() == variant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_keys_are_unique_and_generated() {
        for (i, a) in RaceSite::ALL.into_iter().enumerate() {
            assert_eq!(a as usize, i, "ALL is in declaration order");
            assert_eq!(a.key(), format!("race_case_{}", a.label()));
            for b in RaceSite::ALL.into_iter().skip(i + 1) {
                assert_ne!(a.label(), b.label());
            }
        }
        let per_variant = SpecVariant::ALL.map(|v| RaceSite::of(v).count());
        assert_eq!(per_variant, [8, 10, 8]);
        assert_eq!(RaceSite::MAX_PER_VARIANT, 10);
        // Each variant's sites are contiguous in `ALL`.
        for v in SpecVariant::ALL {
            let first = RaceSite::of(v).next().unwrap() as usize;
            for (i, site) in RaceSite::of(v).enumerate() {
                assert_eq!(site as usize, first + i);
            }
        }
    }
}
