//! Bit kernels: QC counting and score accumulation directly on 2-bit
//! packed genotype columns — no byte materialization.
//!
//! A packed column (PLINK-style, see `sparkscore_data::packed`) stores
//! four codes per byte, patient `i` in bits `2·(i % 4)` of byte `i / 4`;
//! codes 0/1/2 are dosages and `0b11` marks a missing call. Loaded as
//! little-endian u64 words, 32 patients sit in each word, and with
//! `lo = w & 0x5555…` (the low bit of every slot) and `hi = (w >> 1) &
//! 0x5555…` the genotype classes fall out of three popcounts:
//!
//! * heterozygous (`0b01`):   `popcount(lo & !hi)`
//! * homozygous-alt (`0b10`): `popcount(hi & !lo)`
//! * missing (`0b11`):        `popcount(lo & hi)`
//! * dosage sum:              `het + 2·hom_alt`
//!
//! Homozygous-ref is derived as `n − het − hom_alt − missing`, and the
//! padding slots of the last partial byte are masked to zero before
//! counting, so neither the `0b00` padding nor a dirty packer can leak
//! into the counts.
//!
//! `std::simd` is nightly-only, so the word pass is an explicit u64×4
//! unroll with independent accumulator lanes (the popcounts of
//! neighbouring words don't serialize on one add chain); missing codes
//! are handled by sparse fixup loops over the missing mask, so fully
//! typed columns pay nothing for the missing branch.
//!
//! Every kernel here is verified against the byte oracles: integer
//! counts bitwise, f64 sums exactly under the documented accumulation
//! order (see the proptests at the bottom).

/// Bit 0 of every 2-bit slot in a word.
const LO_BITS: u64 = 0x5555_5555_5555_5555;

/// Genotype-class counts of one packed column, straight from the
/// popcount pass. `hom_ref` excludes both missing calls and the padding
/// slots of the last partial byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedCounts {
    pub hom_ref: usize,
    pub het: usize,
    pub hom_alt: usize,
    pub missing: usize,
}

impl PackedCounts {
    /// Patients with a called genotype.
    #[inline]
    fn non_missing(&self) -> usize {
        self.hom_ref + self.het + self.hom_alt
    }

    /// `Σ g_i` over non-missing patients — exact, since dosages are
    /// integers: `het + 2·hom_alt`.
    #[inline]
    fn dosage_sum(&self) -> u64 {
        self.het as u64 + 2 * self.hom_alt as u64
    }
}

/// `(lo, hi)` bit planes of a word of 16 packed codes × 4 bytes.
#[inline]
fn split(word: u64) -> (u64, u64) {
    (word & LO_BITS, (word >> 1) & LO_BITS)
}

#[inline]
fn load_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Split a column into its fully valid body and, when `n % 4 != 0`, the
/// last byte with the padding slots masked to zero.
#[inline]
fn split_tail(packed: &[u8], n: usize) -> (&[u8], Option<u8>) {
    debug_assert_eq!(packed.len(), n.div_ceil(4));
    if n.is_multiple_of(4) {
        (packed, None)
    } else {
        let (body, last) = packed.split_at(packed.len() - 1);
        (body, Some(last[0] & ((1u8 << (2 * (n % 4))) - 1)))
    }
}

/// Drive `f(base_patient_index, word)` over the column as little-endian
/// u64 words of 32 slots, tail zero-padded and padding slots masked.
#[inline]
fn for_each_word(packed: &[u8], n: usize, mut f: impl FnMut(usize, u64)) {
    let (body, last) = split_tail(packed, n);
    let mut words = body.chunks_exact(8);
    let mut base = 0usize;
    for w in words.by_ref() {
        f(base, load_word(w));
        base += 32;
    }
    let rest = words.remainder();
    if !rest.is_empty() || last.is_some() {
        let mut buf = [0u8; 8];
        buf[..rest.len()].copy_from_slice(rest);
        if let Some(b) = last {
            buf[rest.len()] = b;
        }
        f(base, load_word(&buf));
    }
}

#[inline]
fn accumulate(word: u64, het: &mut u64, hom: &mut u64, mis: &mut u64) {
    let (lo, hi) = split(word);
    *het += (lo & !hi).count_ones() as u64;
    *hom += (hi & !lo).count_ones() as u64;
    *mis += (lo & hi).count_ones() as u64;
}

/// Walk the set slots of a 2-bit-slot mask (bits only at even
/// positions), calling `f` with each slot's patient index.
#[inline]
fn for_each_slot(mut mask: u64, base: usize, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(base + (mask.trailing_zeros() / 2) as usize);
        mask &= mask - 1;
    }
}

/// Count genotype classes of a packed column of `n` patients in one
/// popcount pass over the words — the packed-direct substrate for
/// `GenotypeCounts`/MAF/HWE QC.
pub(crate) fn count_codes(packed: &[u8], n: usize) -> PackedCounts {
    assert_eq!(packed.len(), n.div_ceil(4), "packed column length mismatch");
    let (body, last) = split_tail(packed, n);
    // u64×4 unroll: four independent accumulator lanes per class.
    let mut het = [0u64; 4];
    let mut hom = [0u64; 4];
    let mut mis = [0u64; 4];
    let mut quads = body.chunks_exact(32);
    for quad in quads.by_ref() {
        for (k, w) in quad.chunks_exact(8).enumerate() {
            accumulate(load_word(w), &mut het[k], &mut hom[k], &mut mis[k]);
        }
    }
    let mut words = quads.remainder().chunks_exact(8);
    for w in words.by_ref() {
        accumulate(load_word(w), &mut het[0], &mut hom[0], &mut mis[0]);
    }
    let rest = words.remainder();
    if !rest.is_empty() || last.is_some() {
        let mut buf = [0u8; 8];
        buf[..rest.len()].copy_from_slice(rest);
        if let Some(b) = last {
            buf[rest.len()] = b;
        }
        accumulate(load_word(&buf), &mut het[0], &mut hom[0], &mut mis[0]);
    }
    let het: u64 = het.iter().sum();
    let hom: u64 = hom.iter().sum();
    let mis: u64 = mis.iter().sum();
    PackedCounts {
        hom_ref: n - (het + hom + mis) as usize,
        het: het as usize,
        hom_alt: hom as usize,
        missing: mis as usize,
    }
}

/// Dosage dot-product `Σ_i g_i·x_i` over non-missing patients, computed
/// as `Σ_{het carriers} x_i + 2·Σ_{hom-alt carriers} x_i` — carrier sets
/// come from the word masks and are walked sparsely, so cost scales with
/// carrier count, not cohort size, and missing calls are excluded by
/// construction (no fixup needed).
///
/// Accumulation order is fixed: ascending-index sum over het carriers,
/// plus `2.0 ×` the ascending-index sum over hom-alt carriers. Oracles
/// built with the same order compare exactly.
pub fn dot_dosage(packed: &[u8], x: &[f64]) -> f64 {
    let n = x.len();
    assert_eq!(packed.len(), n.div_ceil(4), "packed column length mismatch");
    let mut het_sum = 0.0f64;
    let mut hom_sum = 0.0f64;
    for_each_word(packed, n, |base, w| {
        let (lo, hi) = split(w);
        for_each_slot(lo & !hi, base, |i| het_sum += x[i]);
        for_each_slot(hi & !lo, base, |i| hom_sum += x[i]);
    });
    het_sum + 2.0 * hom_sum
}

/// Centered-residual contributions `out[i] = r_i (g_i − ḡ)` straight
/// from the packed column — the packed-direct twin of the byte kernel
/// behind the Gaussian/binomial `contributions_into` (whose per-patient
/// contribution is affine in dosage, so a 4-entry table indexed by the
/// 2-bit code replaces the unpack).
///
/// When the column has no missing calls this is bitwise identical to the
/// byte path: the dosage sum is the same u64 popcount total, the mean the
/// same division, and `table[g] = f64::from(g) − ḡ` the same subtraction
/// the byte kernel performs inline. Missing calls (which the byte kernel
/// rejects) are handled here: the mean is taken over called genotypes
/// and a sparse fixup pass over the missing mask zeroes those patients'
/// contributions (a missing call carries no information), so fully typed
/// columns pay nothing for the branch.
pub(crate) fn residual_contributions_packed(residuals: &[f64], packed: &[u8], out: &mut [f64]) {
    let n = residuals.len();
    assert_eq!(out.len(), n, "output vector length mismatch");
    assert_eq!(packed.len(), n.div_ceil(4), "packed column length mismatch");
    let counts = count_codes(packed, n);
    if counts.non_missing() == 0 {
        // Fully missing column: no genotype information at all.
        out.fill(0.0);
        return;
    }
    let g_mean = counts.dosage_sum() as f64 / counts.non_missing() as f64;
    // table[code] = f64::from(code) − ḡ, bit-for-bit what the byte kernel
    // computes inline; the missing slot is a placeholder the fixup pass
    // overwrites.
    let table = [0.0 - g_mean, 1.0 - g_mean, 2.0 - g_mean, f64::NAN];
    let mut quads = out.chunks_exact_mut(4);
    let mut r_quads = residuals.chunks_exact(4);
    let mut bytes = packed.iter();
    for quad in quads.by_ref() {
        let r = r_quads.next().expect("residual quad");
        let b = *bytes.next().expect("stride covers all full quads");
        quad[0] = r[0] * table[(b & 0b11) as usize];
        quad[1] = r[1] * table[((b >> 2) & 0b11) as usize];
        quad[2] = r[2] * table[((b >> 4) & 0b11) as usize];
        quad[3] = r[3] * table[(b >> 6) as usize];
    }
    let rest = quads.into_remainder();
    if !rest.is_empty() {
        let r = r_quads.remainder();
        let b = *bytes.next().expect("stride covers the remainder");
        for (i, (o, ri)) in rest.iter_mut().zip(r).enumerate() {
            *o = ri * table[((b >> (2 * i)) & 0b11) as usize];
        }
    }
    if counts.missing > 0 {
        for_each_word(packed, n, |base, w| {
            let (lo, hi) = split(w);
            for_each_slot(lo & hi, base, |i| out[i] = 0.0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pack a byte dosage vector the same way `GenotypeBlock::push_row`
    /// does (kept local: `sparkscore-data` depends on this crate, not the
    /// other way around).
    fn pack(dosages: &[u8]) -> Vec<u8> {
        let mut data = vec![0u8; dosages.len().div_ceil(4)];
        for (i, &d) in dosages.iter().enumerate() {
            assert!(d <= 3);
            data[i / 4] |= d << (2 * (i % 4));
        }
        data
    }

    fn byte_counts(g: &[u8]) -> PackedCounts {
        let mut c = PackedCounts::default();
        for &d in g {
            match d {
                0 => c.hom_ref += 1,
                1 => c.het += 1,
                2 => c.hom_alt += 1,
                _ => c.missing += 1,
            }
        }
        c
    }

    /// Same accumulation order as `dot_dosage`: ascending het sum plus
    /// 2 × ascending hom-alt sum.
    fn byte_dot(g: &[u8], x: &[f64]) -> f64 {
        let het: f64 = g
            .iter()
            .zip(x)
            .filter(|(&d, _)| d == 1)
            .map(|(_, &xi)| xi)
            .sum();
        let hom: f64 = g
            .iter()
            .zip(x)
            .filter(|(&d, _)| d == 2)
            .map(|(_, &xi)| xi)
            .sum();
        het + 2.0 * hom
    }

    /// Byte reference for the packed contributions kernel with the same
    /// mean definition (called genotypes only) and write rule.
    fn byte_contributions(residuals: &[f64], g: &[u8]) -> Vec<f64> {
        let called: Vec<u64> = g
            .iter()
            .filter(|&&d| d < 3)
            .map(|&d| u64::from(d))
            .collect();
        if called.is_empty() {
            return vec![0.0; g.len()];
        }
        let mean = called.iter().sum::<u64>() as f64 / called.len() as f64;
        residuals
            .iter()
            .zip(g)
            .map(|(r, &d)| {
                if d < 3 {
                    r * (f64::from(d) - mean)
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn counts_cover_awkward_tail_lengths() {
        // n ∈ {0, 1, 3, 4, 5, 64, 65}: empty, sub-byte, byte-exact,
        // byte+1, word-exact, word+1.
        for n in [0usize, 1, 3, 4, 5, 64, 65] {
            let g: Vec<u8> = (0..n).map(|i| (i % 4) as u8).collect();
            let packed = pack(&g);
            assert_eq!(count_codes(&packed, n), byte_counts(&g), "n={n}");
        }
    }

    #[test]
    fn padding_slots_cannot_leak_into_counts() {
        // A dirty last byte: pack 5 patients, then set the 3 padding
        // slots of byte 1 to garbage. The tail mask must hide them.
        let g = [1u8, 2, 3, 0, 2];
        let mut packed = pack(&g);
        packed[1] |= 0b1111_1100;
        assert_eq!(count_codes(&packed, 5), byte_counts(&g));
        assert_eq!(count_codes(&packed, 5).dosage_sum(), 1 + 2 + 2);
    }

    #[test]
    fn all_missing_column_counts_and_contributes_zero() {
        let n = 37;
        let g = vec![3u8; n];
        let packed = pack(&g);
        let c = count_codes(&packed, n);
        assert_eq!(c.missing, n);
        assert_eq!(c.non_missing(), 0);
        assert_eq!(c.dosage_sum(), 0);
        let residuals: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let mut out = vec![f64::NAN; n];
        residual_contributions_packed(&residuals, &packed, &mut out);
        assert_eq!(out, vec![0.0; n]);
    }

    #[test]
    fn dot_dosage_empty_and_tiny() {
        assert_eq!(dot_dosage(&[], &[]), 0.0);
        assert_eq!(dot_dosage(&pack(&[2]), &[1.5]), 3.0);
        assert_eq!(dot_dosage(&pack(&[3]), &[1.5]), 0.0);
    }

    proptest! {
        /// Popcount counts equal the byte-loop oracle across random
        /// missingness and every tail length.
        #[test]
        fn prop_count_codes_equals_byte_oracle(
            g in proptest::collection::vec(0u8..4, 0..200)
        ) {
            let packed = pack(&g);
            prop_assert_eq!(count_codes(&packed, g.len()), byte_counts(&g));
        }

        /// The sparse dot-product matches a byte oracle with the same
        /// accumulation order exactly, and the dense naive sum closely.
        #[test]
        fn prop_dot_dosage_exact(
            pairs in proptest::collection::vec((0u8..4, -10.0f64..10.0), 0..150)
        ) {
            let g: Vec<u8> = pairs.iter().map(|&(d, _)| d).collect();
            let x: Vec<f64> = pairs.iter().map(|&(_, v)| v).collect();
            let packed = pack(&g);
            let direct = dot_dosage(&packed, &x);
            prop_assert_eq!(direct, byte_dot(&g, &x));
            let naive: f64 = g.iter().zip(&x)
                .filter(|(&d, _)| d < 3)
                .map(|(&d, &xi)| f64::from(d) * xi)
                .sum();
            prop_assert!((direct - naive).abs() <= 1e-9 * (1.0 + naive.abs()));
        }

        /// Packed-direct contributions equal the byte reference exactly
        /// under random missingness, and dosage_sum matches the integer
        /// oracle.
        #[test]
        fn prop_contributions_and_sum_equal_oracle(
            pairs in proptest::collection::vec((0u8..4, -5.0f64..5.0), 0..150)
        ) {
            let g: Vec<u8> = pairs.iter().map(|&(d, _)| d).collect();
            let r: Vec<f64> = pairs.iter().map(|&(_, v)| v).collect();
            let packed = pack(&g);
            prop_assert_eq!(count_codes(&packed, g.len()).dosage_sum(), byte_counts(&g).dosage_sum());
            let mut out = vec![f64::NAN; g.len()];
            residual_contributions_packed(&r, &packed, &mut out);
            prop_assert_eq!(out, byte_contributions(&r, &g));
        }
    }
}
