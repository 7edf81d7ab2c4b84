//! Columnar 2-bit-packed genotype storage.
//!
//! A [`GenotypeBlock`] holds one partition's SNPs column-major: each SNP's
//! patient vector is a contiguous run of `ceil(n/4)` bytes, four dosages
//! per byte (PLINK-style). Codes 0/1/2 are dosages;
//! [`MISSING_DOSAGE`] (`0b11`) marks a missing call — the convention is
//! defined once, in `sparkscore_stats::score`, and shared by packer and
//! kernels.
//!
//! Byte genotypes (`Vec<u8>`, one byte per call) cost 4× the memory the
//! information content needs; since the cached `U`-contribution pipeline
//! keeps genotype partitions in the LRU block cache, that waste directly
//! evicts other partitions. The packed block's `EstimateSize` is exact, so
//! the cache budget reflects real bytes.

use sparkscore_dfs::text::block_lines;
use sparkscore_rdd::EstimateSize;
use sparkscore_stats::score::MISSING_DOSAGE;

use crate::io::parse_genotype_line;

/// One partition of SNPs, 2-bit-packed column-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenotypeBlock {
    num_patients: usize,
    /// Bytes per SNP column: `ceil(num_patients / 4)`.
    stride: usize,
    /// SNP identifiers, one per column.
    ids: Vec<u64>,
    /// Column-major packed dosages; SNP `c` occupies
    /// `data[c * stride .. (c + 1) * stride]`, patient `i` in bits
    /// `2·(i % 4)` of byte `i / 4`.
    data: Vec<u8>,
}

impl GenotypeBlock {
    /// An empty block for a cohort of `num_patients`.
    fn new(num_patients: usize) -> Self {
        GenotypeBlock {
            num_patients,
            stride: num_patients.div_ceil(4),
            ids: Vec::new(),
            data: Vec::new(),
        }
    }

    /// An empty block with room reserved for `rows` columns. Both packing
    /// constructors size their vectors here and nowhere else, so blocks
    /// holding equal rows have equal capacities — what [`EstimateSize`]
    /// charges the block cache.
    fn with_room(num_patients: usize, rows: usize) -> Self {
        let mut block = GenotypeBlock::new(num_patients);
        block.ids.reserve(rows);
        block.data.reserve(rows * block.stride);
        block
    }

    /// Pack a slice of `(snp_id, byte dosages)` rows.
    pub fn from_rows(num_patients: usize, rows: &[(u64, Vec<u8>)]) -> Self {
        let mut block = GenotypeBlock::with_room(num_patients, rows.len());
        for (id, dosages) in rows {
            block.push_row(*id, dosages);
        }
        block
    }

    /// Pack the genotype lines of one text block, keeping the SNPs whose
    /// id `keep` accepts, and count the lines the block held. The result
    /// is what parsing every line with [`parse_genotype_line`], filtering
    /// on the id and packing the survivors with
    /// [`GenotypeBlock::from_rows`] yields — equal field for field and in
    /// estimated size, panicking where that would — without materializing
    /// a line or a byte row.
    ///
    /// A line written the way `format_genotype_line` writes it is packed
    /// straight from its bytes (`push_canonical_line`). Every other line —
    /// and every line that arm turns down — takes `parse_genotype_line`
    /// and `GenotypeBlock::push_row`, which stay the definition of the
    /// format.
    pub fn from_text(
        num_patients: usize,
        block: &[u8],
        keep: impl Fn(u64) -> bool,
    ) -> (Self, usize) {
        // Packed as it is read, into vectors that grow; the kept count
        // that sizes the result is only known at the end.
        let mut packed = GenotypeBlock::new(num_patients);
        let mut lines = 0;
        let mut pos = 0;
        while pos < block.len() {
            lines += 1;
            pos += match packed.push_canonical_line(&block[pos..], &keep) {
                Some(consumed) => consumed,
                None => {
                    // Find where the line really ends: the fast arm's
                    // guess may have landed on a later line's newline.
                    let rest = &block[pos..];
                    let end = rest
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(rest.len(), |i| i + 1);
                    let line = block_lines(&rest[..end])
                        .next()
                        .expect("a non-empty slice holds a line");
                    let (id, dosages) = parse_genotype_line(line);
                    if keep(id) {
                        packed.push_row(id, &dosages);
                    }
                    end
                }
            };
        }
        let mut out = GenotypeBlock::with_room(num_patients, packed.ids.len());
        out.ids.extend_from_slice(&packed.ids);
        out.data.extend_from_slice(&packed.data);
        (out, lines)
    }

    /// The fast arm of [`GenotypeBlock::from_text`]: take the line at the
    /// head of `text` if it is *canonical* — 1 to 19 ASCII digits, then
    /// exactly `num_patients` × (one space, one of `0 1 2`), then a
    /// newline or the end of the block — and return the bytes consumed.
    /// Anything else returns `None` with the block as it was.
    ///
    /// The line's end is predicted from the digit count and
    /// `num_patients`, not searched for. A newline at the predicted offset
    /// proves nothing by itself (a short line followed by another can put
    /// one there), but then some separator before it is a newline and not
    /// a space, which [`scan_dosages`] reports. A line `keep` turns away
    /// is checked all the same, without being written: a malformed line
    /// is an error whether or not its SNP is wanted.
    fn push_canonical_line(&mut self, text: &[u8], keep: impl Fn(u64) -> bool) -> Option<usize> {
        // 19 digits cannot overflow a u64; a twentieth fails the
        // separator check below.
        let digits = text
            .iter()
            .take(19)
            .take_while(|b| b.is_ascii_digit())
            .count();
        let end = digits + 2 * self.num_patients;
        let ends_here = end == text.len() || text.get(end) == Some(&b'\n');
        if digits == 0 || self.num_patients == 0 || !ends_here {
            return None;
        }
        let id = text[..digits]
            .iter()
            .fold(0u64, |id, &b| id * 10 + u64::from(b - b'0'));
        let body = &text[digits..end];
        if keep(id) {
            let start = self.data.len();
            self.data.resize(start + self.stride, 0);
            if !scan_dosages(body, &mut self.data[start..]) {
                self.data.truncate(start);
                return None;
            }
            self.ids.push(id);
        } else if !dosages_are_canonical(body) {
            return None;
        }
        Some((end + 1).min(text.len()))
    }

    /// Append one SNP column. Accepts dosages 0/1/2 and the
    /// [`MISSING_DOSAGE`] code; panics on anything larger (those values
    /// were previously accepted silently and scored as huge dosages).
    fn push_row(&mut self, id: u64, dosages: &[u8]) {
        assert_eq!(
            dosages.len(),
            self.num_patients,
            "genotype vector length mismatch"
        );
        let start = self.data.len();
        self.data.resize(start + self.stride, 0);
        if !pack_codes(dosages, &mut self.data[start..]) {
            // Leave the block as it was: one column per id.
            self.data.truncate(start);
            panic!(
                "dosage out of range: 2-bit packing holds 0/1/2 and the missing code {MISSING_DOSAGE}"
            );
        }
        self.ids.push(id);
    }

    #[inline]
    pub fn num_snps(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    #[cfg(test)]
    fn num_patients(&self) -> usize {
        self.num_patients
    }

    #[inline]
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    #[inline]
    pub fn snp_id(&self, col: usize) -> u64 {
        self.ids[col]
    }

    /// The raw packed bytes of SNP column `col` — the bit-kernel facing
    /// view: `sparkscore_stats::bitkern` computes counts and affine
    /// score contributions on these words without unpacking.
    #[inline]
    pub fn column(&self, col: usize) -> &[u8] {
        &self.data[col * self.stride..(col + 1) * self.stride]
    }

    /// Dosage of patient `i` at SNP column `col` (0/1/2 or
    /// [`MISSING_DOSAGE`]).
    #[cfg(test)]
    fn dosage(&self, col: usize, i: usize) -> u8 {
        assert!(i < self.num_patients, "patient index out of range");
        let byte = self.data[col * self.stride + i / 4];
        (byte >> (2 * (i % 4))) & 0b11
    }

    /// Unpack SNP column `col` into `out` (length `num_patients`) — the
    /// kernel-facing path, normally fed a thread-local scratch slice.
    pub fn unpack_into(&self, col: usize, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.num_patients,
            "output vector length mismatch"
        );
        unpack_codes(self.column(col), out);
    }

    /// Visit every `(snp_id, unpacked dosages)` row through one
    /// caller-provided buffer of length `num_patients` — no allocation
    /// per row; the round-trip tests read a block back with it.
    #[cfg(test)]
    fn for_each_row(&self, buf: &mut [u8], mut f: impl FnMut(u64, &[u8])) {
        assert_eq!(buf.len(), self.num_patients, "row buffer length mismatch");
        for c in 0..self.num_snps() {
            self.unpack_into(c, buf);
            f(self.ids[c], buf);
        }
    }
}

// Each genotype codec below is one safe body, written as loops over sized
// slices so that LLVM vectorizes it (no intrinsics), and compiled three
// times, as the Cox and perturbation kernels in `sparkscore-stats` are: the
// entry point runs the AVX-512 arm, the AVX2 arm or the plain body, the
// widest the running CPU supports. `scripts/ci.sh` disassembles both
// vector arms of each.

/// Check that `body` is a run of (one space, one of `0 1 2`) pairs and
/// write into `out` (`body.len() / 8` bytes, rounded up) the bytes
/// [`GenotypeBlock::push_row`] would pack from those dosages. Returns
/// whether the run was well formed; when it was not, `out` holds garbage.
fn scan_dosages(body: &[u8], out: &mut [u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            // SAFETY: `scan_dosages_avx512` requires only that the running
            // CPU supports AVX-512F and AVX-512BW, which the detection above
            // just reported.
            return unsafe { scan_dosages_avx512(body, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `scan_dosages_avx2` requires only that the running CPU
            // supports AVX2, which the detection on the line above just
            // reported.
            return unsafe { scan_dosages_avx2(body, out) };
        }
    }
    scan_dosages_body(body, out)
}

/// [`scan_dosages_body`] compiled with 512-bit vectors.
///
/// # Safety
///
/// The running CPU must support AVX-512F and AVX-512BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn scan_dosages_avx512(body: &[u8], out: &mut [u8]) -> bool {
    scan_dosages_body(body, out)
}

/// [`scan_dosages_body`] compiled with 256-bit vectors.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_dosages_avx2(body: &[u8], out: &mut [u8]) -> bool {
    scan_dosages_body(body, out)
}

/// Eight text bytes — four pairs — are one little-endian word (whatever
/// the host's byte order, `from_le_bytes` puts the first text byte lowest).
/// XOR with the pattern `" 0 0 0 0"` leaves 0 in every separator lane and
/// the dosage in every digit lane; any other bit, or a digit lane holding
/// 3, is a violation, OR-ed into one flag that is tested once, after the
/// loop. With the lanes clean the four dosages sit at bits 8, 24, 40 and
/// 56, and three shifts gather them into one byte, first patient lowest.
/// One word in, one byte out, no branch: the loop runs eight words (or
/// four) to a vector.
#[inline(always)]
fn scan_dosages_body(body: &[u8], out: &mut [u8]) -> bool {
    const SPACE_ZERO: u64 = 0x3020_3020_3020_3020;
    const DOSAGE_BITS: u64 = 0x0300_0300_0300_0300;
    const DOSAGE_LOW_BIT: u64 = 0x0100_0100_0100_0100;
    debug_assert_eq!(out.len(), body.len().div_ceil(8));
    let mut bad = 0u64;
    let mut words = body.chunks_exact(8);
    let mut bytes = out.iter_mut();
    for (word, byte) in words.by_ref().zip(bytes.by_ref()) {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ SPACE_ZERO;
        bad |= (x & !DOSAGE_BITS) | (x & (x >> 1) & DOSAGE_LOW_BIT);
        let d = x >> 8;
        *byte = (d | d >> 14 | d >> 28 | d >> 42) as u8;
    }
    // The last `num_patients % 4` pairs share one byte.
    let rest = words.remainder();
    if let Some(last) = bytes.next() {
        let mut byte = 0u8;
        for (i, pair) in rest.chunks_exact(2).enumerate() {
            let d = pair[1] ^ b'0';
            bad |= u64::from(pair[0] ^ b' ') | u64::from(d > 2);
            byte |= (d & 0b11) << (2 * i);
        }
        *last = byte;
    }
    bad == 0
}

/// Whether `body` is what [`scan_dosages`] accepts, checked a piece at a
/// time into a stack buffer: for a line nobody wants, nothing is written
/// to the block and nothing is allocated. Every piece but the last is a
/// whole number of words, so each piece's tail is the body's tail.
fn dosages_are_canonical(body: &[u8]) -> bool {
    let mut sink = [0u8; 64];
    body.chunks(8 * sink.len())
        .all(|piece| scan_dosages(piece, &mut sink[..piece.len().div_ceil(8)]))
}

/// Unpack a packed column into one code per byte: `out[i]` is patient
/// `i`'s 2-bit code, and the padding slots of the last byte are not read.
/// `column` is `out.len() / 4` bytes, rounded up.
fn unpack_codes(column: &[u8], out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            // SAFETY: `unpack_codes_avx512` requires only that the running
            // CPU supports AVX-512F and AVX-512BW, which the detection above
            // just reported.
            return unsafe { unpack_codes_avx512(column, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `unpack_codes_avx2` requires only that the running CPU
            // supports AVX2, which the detection on the line above just
            // reported.
            return unsafe { unpack_codes_avx2(column, out) };
        }
    }
    unpack_codes_body(column, out);
}

/// [`unpack_codes_body`] compiled with 512-bit vectors.
///
/// # Safety
///
/// The running CPU must support AVX-512F and AVX-512BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn unpack_codes_avx512(column: &[u8], out: &mut [u8]) {
    unpack_codes_body(column, out);
}

/// [`unpack_codes_body`] compiled with 256-bit vectors.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack_codes_avx2(column: &[u8], out: &mut [u8]) {
    unpack_codes_body(column, out);
}

/// One packed byte becomes four code bytes by two shift-and-mask steps:
/// the two nibbles to bits 0 and 16, then each nibble's two codes to
/// bytes 0 and 1 of its half.
#[inline(always)]
fn spread_codes(byte: u8) -> [u8; 4] {
    let v = u32::from(byte);
    let v = (v | v << 12) & 0x000F_000F;
    ((v | v << 6) & 0x0303_0303).to_le_bytes()
}

#[inline(always)]
fn unpack_codes_body(column: &[u8], out: &mut [u8]) {
    debug_assert_eq!(column.len(), out.len().div_ceil(4));
    let mut quads = out.chunks_exact_mut(4);
    for (quad, &byte) in quads.by_ref().zip(column) {
        quad.copy_from_slice(&spread_codes(byte));
    }
    let rest = quads.into_remainder();
    if !rest.is_empty() {
        let last = column[column.len() - 1];
        rest.copy_from_slice(&spread_codes(last)[..rest.len()]);
    }
}

/// Pack one code per byte into `out` (`codes.len() / 4` bytes, rounded
/// up), first patient lowest, the padding slots of the last byte 0.
/// Returns whether every code was at most [`MISSING_DOSAGE`]; when one was
/// not, `out` holds garbage.
fn pack_codes(codes: &[u8], out: &mut [u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            // SAFETY: `pack_codes_avx512` requires only that the running CPU
            // supports AVX-512F and AVX-512BW, which the detection above just
            // reported.
            return unsafe { pack_codes_avx512(codes, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `pack_codes_avx2` requires only that the running CPU
            // supports AVX2, which the detection on the line above just
            // reported.
            return unsafe { pack_codes_avx2(codes, out) };
        }
    }
    pack_codes_body(codes, out)
}

/// [`pack_codes_body`] compiled with 512-bit vectors.
///
/// # Safety
///
/// The running CPU must support AVX-512F and AVX-512BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn pack_codes_avx512(codes: &[u8], out: &mut [u8]) -> bool {
    pack_codes_body(codes, out)
}

/// [`pack_codes_body`] compiled with 256-bit vectors.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_codes_avx2(codes: &[u8], out: &mut [u8]) -> bool {
    pack_codes_body(codes, out)
}

/// Eight code bytes, one little-endian word, become two packed bytes by
/// three shift-and-mask steps — `spread_codes` run backwards, twice as
/// wide: byte pairs to nibbles, nibble pairs to bytes, then the two bytes
/// side by side. Any bit above a code's two is a range violation, OR-ed
/// into one flag.
#[inline(always)]
fn pack_codes_body(codes: &[u8], out: &mut [u8]) -> bool {
    #[inline(always)]
    fn gather(x: u64) -> [u8; 2] {
        let x = (x | x >> 6) & 0x000F_000F_000F_000F;
        let x = (x | x >> 12) & 0x0000_00FF_0000_00FF;
        ((x | x >> 24) as u16).to_le_bytes()
    }
    debug_assert_eq!(out.len(), codes.len().div_ceil(4));
    let mut high = 0u64;
    let mut words = codes.chunks_exact(8);
    for (word, pair) in words.by_ref().zip(out.chunks_exact_mut(2)) {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        high |= x;
        pair.copy_from_slice(&gather(x));
    }
    // The last `codes.len() % 8` codes fill one or two bytes.
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        let x = u64::from_le_bytes(word);
        high |= x;
        let tail = rest.len().div_ceil(4);
        let last = out.len() - tail;
        out[last..].copy_from_slice(&gather(x)[..tail]);
    }
    high & 0xFCFC_FCFC_FCFC_FCFC == 0
}

impl EstimateSize for GenotypeBlock {
    /// Exact heap footprint — the LRU cache budget pays for real packed
    /// bytes, not the 4×-inflated byte-per-call representation.
    fn estimate_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.data.capacity()
            + self.ids.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(n: usize, rows: &[(u64, Vec<u8>)]) {
        let block = GenotypeBlock::from_rows(n, rows);
        assert_eq!(block.num_snps(), rows.len());
        assert_eq!(block.num_patients(), n);
        let mut buf = vec![0u8; n];
        let mut visited = Vec::new();
        block.for_each_row(&mut buf, |id, dosages| visited.push((id, dosages.to_vec())));
        assert_eq!(visited, rows);
        for (c, (_, dosages)) in rows.iter().enumerate() {
            assert_eq!(block.column(c).len(), block.stride);
            for (i, &d) in dosages.iter().enumerate() {
                assert_eq!(block.dosage(c, i), d, "col {c} patient {i}");
                assert_eq!((block.column(c)[i / 4] >> (2 * (i % 4))) & 0b11, d);
            }
        }
    }

    #[test]
    fn round_trips_awkward_patient_counts() {
        // 0, 1, 3, 4, 5, 64, 65: empty, sub-byte, byte-exact, byte+1.
        for n in [0usize, 1, 3, 4, 5, 64, 65] {
            let rows: Vec<(u64, Vec<u8>)> = (0..3)
                .map(|r| (r as u64 * 7, (0..n).map(|i| ((i + r) % 4) as u8).collect()))
                .collect();
            round_trip(n, &rows);
        }
    }

    #[test]
    fn empty_block_round_trips() {
        round_trip(17, &[]);
        assert!(GenotypeBlock::new(17).is_empty());
    }

    #[test]
    fn packs_four_dosages_per_byte() {
        let block = GenotypeBlock::from_rows(9, &[(1, vec![0, 1, 2, 3, 0, 1, 2, 3, 2])]);
        // 9 patients → 3 bytes per column.
        assert_eq!(block.data.len(), 3);
        assert_eq!(block.dosage(0, 3), MISSING_DOSAGE);
        assert_eq!(block.dosage(0, 8), 2);
    }

    #[test]
    fn estimate_size_reflects_packed_bytes() {
        let n = 1000;
        let rows: Vec<(u64, Vec<u8>)> = (0..8).map(|r| (r, vec![1u8; n])).collect();
        let block = GenotypeBlock::from_rows(n, &rows);
        let bytes = block.estimate_bytes();
        // 8 columns × 250 packed bytes + ids + header — far below the
        // 8 × 1000 B the byte representation would charge.
        assert!(bytes >= 8 * 250, "underestimates: {bytes}");
        assert!(
            bytes < 8 * 1000 / 2,
            "packed block should be ~4x smaller: {bytes}"
        );
    }

    #[test]
    #[should_panic(expected = "dosage out of range")]
    fn rejects_unpackable_dosage() {
        GenotypeBlock::from_rows(2, &[(0, vec![0, 4])]);
    }

    #[test]
    fn a_refused_row_leaves_the_block_as_it_was() {
        let mut block = GenotypeBlock::from_rows(9, &[(1, vec![2; 9])]);
        let before = block.clone();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            block.push_row(2, &[0, 1, 2, 3, 0, 1, 2, 5, 0])
        }));
        assert!(refused.is_err());
        assert_eq!(block, before);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_ragged_rows() {
        GenotypeBlock::from_rows(3, &[(0, vec![0, 1])]);
    }

    /// The path `from_text` stands for: every line parsed to a byte row,
    /// rows filtered on the id, survivors packed.
    fn two_step(n: usize, block: &[u8], keep: impl Fn(u64) -> bool) -> (GenotypeBlock, usize) {
        let rows: Vec<(u64, Vec<u8>)> = block_lines(block).map(parse_genotype_line).collect();
        let lines = rows.len();
        let kept: Vec<(u64, Vec<u8>)> = rows.into_iter().filter(|(id, _)| keep(*id)).collect();
        (GenotypeBlock::from_rows(n, &kept), lines)
    }

    fn assert_from_text_matches(n: usize, block: &[u8], keep: impl Fn(u64) -> bool) {
        let (want, want_lines) = two_step(n, block, &keep);
        let (got, lines) = GenotypeBlock::from_text(n, block, &keep);
        let shown = String::from_utf8_lossy(block);
        assert_eq!(lines, want_lines, "lines of {shown:?}");
        assert_eq!(got.ids, want.ids, "ids of {shown:?}");
        assert_eq!(got.stride, want.stride);
        for c in 0..want.num_snps() {
            assert_eq!(got.column(c), want.column(c), "column {c} of {shown:?}");
        }
        assert_eq!(got.estimate_bytes(), want.estimate_bytes(), "{shown:?}");
        assert_eq!(got, want);
    }

    /// Both paths must refuse `block`, whichever lines `keep` wants.
    fn assert_both_panic(n: usize, block: &[u8]) {
        for keep_all in [true, false] {
            let refused =
                |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
            let shown = String::from_utf8_lossy(block);
            let reference = refused(&|| drop(two_step(n, block, |_| keep_all)));
            let fused = refused(&|| drop(GenotypeBlock::from_text(n, block, |_| keep_all)));
            assert!(reference, "the two-step path accepts {shown:?}");
            assert!(fused, "from_text accepts {shown:?} (keep = {keep_all})");
        }
    }

    /// `"<id> d d … d"` with dosage `i` being `(id + i) % 3`.
    fn canonical_line(id: u64, n: usize) -> String {
        let mut line = id.to_string();
        for i in 0..n {
            line.push(' ');
            line.push(char::from(b'0' + (((id % 3) as usize + i) % 3) as u8));
        }
        line
    }

    #[test]
    fn from_text_edge_blocks() {
        for n in [1usize, 3, 4, 5, 64, 65] {
            assert_from_text_matches(n, b"", |_| true);
            let a = canonical_line(7, n);
            let b = canonical_line(u64::MAX, n);
            // With and without the final newline; a 20-digit id that fits.
            assert_from_text_matches(n, format!("{a}\n{b}\n").as_bytes(), |_| true);
            assert_from_text_matches(n, format!("{a}\n{b}").as_bytes(), |_| true);
            // Nothing wanted: an empty block, every line still counted.
            assert_from_text_matches(n, format!("{a}\n{b}\n").as_bytes(), |_| false);
            assert_from_text_matches(n, format!("{a}\n{b}\n").as_bytes(), |id| id == 7);
        }
    }

    #[test]
    fn from_text_does_not_glue_a_short_line_to_its_neighbour() {
        // A line two dosages short, then a line of one dosage: the second
        // line's newline sits exactly where the first, were it whole, would
        // end. Nobody wants either SNP, so neither path packs (or measures)
        // them — and both must see two lines.
        for n in [4usize, 6, 9] {
            let short = canonical_line(7, n - 2);
            let block = format!("{short}\n1 2\n");
            assert_eq!(block.len(), 1 + 2 * n + 1);
            assert_from_text_matches(n, block.as_bytes(), |_| false);
            assert_eq!(
                GenotypeBlock::from_text(n, block.as_bytes(), |_| false).1,
                2
            );
        }
    }

    #[test]
    fn from_text_refuses_what_the_line_parser_refuses() {
        // 4: whole words only; 6: a word and a two-dosage tail; 9: two
        // words and a one-dosage tail.
        for n in [4usize, 6, 9] {
            let good = canonical_line(7, n);
            let with = |at: usize, byte: &str| {
                let mut line = good.clone();
                line.replace_range(at..at + 1, byte);
                format!(
                    "{}\n{line}\n{}\n",
                    canonical_line(3, n),
                    canonical_line(8, n)
                )
            };
            for dosage in [1, n - 1] {
                let at = 2 + 2 * dosage;
                assert_both_panic(n, with(at, "3").as_bytes());
                assert_both_panic(n, with(at, "12").as_bytes());
                assert_both_panic(n, with(at, "é").as_bytes());
                // A digit where the separator belongs: a token like "001".
                assert_both_panic(n, with(at - 1, "0").as_bytes());
            }
            // A stray byte that is not UTF-8 at all.
            let mut raw = with(2, "0").into_bytes();
            raw[2 * n + 4] = 0xFF;
            assert_both_panic(n, &raw);
            // No id, a non-numeric id, an id past u64.
            assert_both_panic(n, format!("{good}\n\n{good}\n").as_bytes());
            assert_both_panic(n, format!("x{good}\n").as_bytes());
            assert_both_panic(n, format!("9999999999999999999{good}\n").as_bytes());
            // One dosage short, with a line of just "1" behind it whose
            // newline lands where the short line, were it whole, would
            // end: only the separator test tells them apart.
            let short = canonical_line(7, n - 1);
            assert_both_panic(n, format!("{short}\n1\n").as_bytes());
        }
        // A wrong dosage count is the packer's to refuse, and only for a
        // SNP somebody wants.
        for (n, have) in [(5usize, 4usize), (5, 6)] {
            let block = format!("{}\n", canonical_line(7, have));
            for fused in [false, true] {
                let r = std::panic::catch_unwind(|| {
                    if fused {
                        GenotypeBlock::from_text(n, block.as_bytes(), |_| true)
                    } else {
                        two_step(n, block.as_bytes(), |_| true)
                    }
                });
                assert!(r.is_err(), "n={n} have={have} fused={fused}");
            }
            assert_from_text_matches(n, block.as_bytes(), |_| false);
        }
    }

    // ---- every compilation of each codec against the scalar code it replaced ----

    /// The byte-at-a-time scan the vector codec replaced, kept as its
    /// oracle: the same lane arithmetic, one word and one `push` at a time.
    fn scan_oracle(body: &[u8]) -> (bool, Vec<u8>) {
        const SPACE_ZERO: u64 = 0x3020_3020_3020_3020;
        const DOSAGE_BITS: u64 = 0x0300_0300_0300_0300;
        const DOSAGE_LOW_BIT: u64 = 0x0100_0100_0100_0100;
        let mut packed = Vec::new();
        let mut bad = 0u64;
        let mut words = body.chunks_exact(8);
        for word in words.by_ref() {
            let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ SPACE_ZERO;
            bad |= (x & !DOSAGE_BITS) | (x & (x >> 1) & DOSAGE_LOW_BIT);
            let d = x >> 8;
            packed.push((d | d >> 14 | d >> 28 | d >> 42) as u8);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut byte = 0u8;
            for (i, pair) in rest.chunks_exact(2).enumerate() {
                let d = pair[1] ^ b'0';
                bad |= u64::from(pair[0] ^ b' ') | u64::from(d > 2);
                byte |= (d & 0b11) << (2 * i);
            }
            packed.push(byte);
        }
        (bad == 0, packed)
    }

    /// The byte-at-a-time unpack the vector codec replaced.
    fn unpack_oracle(column: &[u8], n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        let mut quads = out.chunks_exact_mut(4);
        let mut bytes = column.iter();
        for quad in quads.by_ref() {
            let b = *bytes.next().expect("stride covers all full quads");
            quad[0] = b & 0b11;
            quad[1] = (b >> 2) & 0b11;
            quad[2] = (b >> 4) & 0b11;
            quad[3] = b >> 6;
        }
        let rest = quads.into_remainder();
        if !rest.is_empty() {
            let b = *bytes.next().expect("stride covers the remainder");
            for (i, o) in rest.iter_mut().enumerate() {
                *o = (b >> (2 * i)) & 0b11;
            }
        }
        out
    }

    /// The quad-at-a-time pack the vector codec replaced, its range check
    /// first: `None` where `push_row` panics.
    fn pack_oracle(codes: &[u8]) -> Option<Vec<u8>> {
        if codes.iter().any(|&d| d > MISSING_DOSAGE) {
            return None;
        }
        let mut data = Vec::new();
        let mut chunks = codes.chunks_exact(4);
        for quad in chunks.by_ref() {
            data.push(quad[0] | quad[1] << 2 | quad[2] << 4 | quad[3] << 6);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut byte = 0u8;
            for (i, &d) in rest.iter().enumerate() {
                byte |= d << (2 * i);
            }
            data.push(byte);
        }
        Some(data)
    }

    /// `n` codes below `bound` from a seeded stream.
    fn seeded_codes(n: usize, bound: u64, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % bound) as u8
            })
            .collect()
    }

    /// `" d d … d"`: the body of a canonical line holding `dosages`.
    fn body_of(dosages: &[u8]) -> Vec<u8> {
        dosages.iter().flat_map(|&d| [b' ', b'0' + d]).collect()
    }

    /// The vector arms of one codec, `[avx2, avx512]`, each named and kept
    /// only if this CPU runs it.
    #[cfg(target_arch = "x86_64")]
    fn vector_arms<F>(arms: [F; 2]) -> impl Iterator<Item = (&'static str, F)> {
        let runs = [
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw"),
        ];
        ["avx2", "avx512"]
            .into_iter()
            .zip(arms)
            .zip(runs)
            .filter_map(|(arm, runs)| runs.then_some(arm))
    }

    type ScanArm = unsafe fn(&[u8], &mut [u8]) -> bool;
    type UnpackArm = unsafe fn(&[u8], &mut [u8]);
    type PackArm = unsafe fn(&[u8], &mut [u8]) -> bool;

    /// Every compilation of the scan this CPU runs, the dispatched entry
    /// point first.
    fn scan_dosages_arms() -> Vec<(&'static str, ScanArm)> {
        let mut arms: Vec<(&'static str, ScanArm)> =
            vec![("dispatched", scan_dosages), ("plain", scan_dosages_body)];
        #[cfg(target_arch = "x86_64")]
        arms.extend(vector_arms([scan_dosages_avx2, scan_dosages_avx512]));
        arms
    }

    /// Every compilation of the unpack this CPU runs.
    fn unpack_codes_arms() -> Vec<(&'static str, UnpackArm)> {
        let mut arms: Vec<(&'static str, UnpackArm)> =
            vec![("dispatched", unpack_codes), ("plain", unpack_codes_body)];
        #[cfg(target_arch = "x86_64")]
        arms.extend(vector_arms([unpack_codes_avx2, unpack_codes_avx512]));
        arms
    }

    /// Every compilation of the pack this CPU runs.
    fn pack_codes_arms() -> Vec<(&'static str, PackArm)> {
        let mut arms: Vec<(&'static str, PackArm)> =
            vec![("dispatched", pack_codes), ("plain", pack_codes_body)];
        #[cfg(target_arch = "x86_64")]
        arms.extend(vector_arms([pack_codes_avx2, pack_codes_avx512]));
        arms
    }

    /// `(arm, accepted, bytes written)` for every compilation of the scan
    /// this CPU runs, each into an output filled with `0xAA`.
    fn every_scan_arm(body: &[u8]) -> Vec<(&'static str, bool, Vec<u8>)> {
        scan_dosages_arms()
            .into_iter()
            .map(|(arm, scan)| {
                let mut out = vec![0xAA; body.len().div_ceil(8)];
                // SAFETY: `scan_dosages_arms` lists only the arms this CPU
                // runs.
                let accepted = unsafe { scan(body, &mut out) };
                (arm, accepted, out)
            })
            .collect()
    }

    #[test]
    fn every_scan_arm_packs_what_the_byte_scan_packed() {
        // 0..=200 pairs: every tail length, across the 8-, 32- and 64-byte
        // seams of the vector bodies.
        for n in 0..=200usize {
            let body = body_of(&seeded_codes(n, 3, n as u64));
            let (accepted, want) = scan_oracle(&body);
            assert!(accepted, "n = {n}");
            for (arm, accepted, got) in every_scan_arm(&body) {
                assert!(accepted, "{arm} refuses a canonical body, n = {n}");
                assert_eq!(got, want, "{arm}, n = {n}");
            }
            assert!(dosages_are_canonical(&body), "n = {n}");
        }
    }

    #[test]
    fn every_scan_arm_refuses_a_fault_at_every_byte() {
        // Every byte of the first 64-byte chunks and of the tails: a 3 (or
        // another non-dosage) in a digit lane; a digit, a tab or a newline
        // (the glue case) in a separator lane; a non-ASCII byte anywhere.
        for n in [1usize, 4, 5, 31, 32, 33, 100, 131] {
            let good = body_of(&seeded_codes(n, 3, 7 * n as u64));
            for at in 0..good.len() {
                let lane: &[u8] = if at % 2 == 1 { b"349 \n" } else { b"012\t\n" };
                for &byte in lane.iter().chain(&[0x80, 0xC3, 0xFF]) {
                    let mut body = good.clone();
                    body[at] = byte;
                    let shown = format!("byte {byte:#04x} at {at} of {n} pairs");
                    assert!(!scan_oracle(&body).0, "the oracle accepts {shown}");
                    for (arm, accepted, _) in every_scan_arm(&body) {
                        assert!(!accepted, "{arm} accepts {shown}");
                    }
                    assert!(!dosages_are_canonical(&body), "{shown}");
                }
            }
        }
    }

    #[test]
    fn the_unwanted_line_check_is_the_scan_across_its_pieces() {
        // Pieces are 512 text bytes (256 pairs): a 3 in the digit lanes on
        // both sides of the seam and in the last, partial piece.
        for n in [255usize, 256, 257, 600] {
            let good = body_of(&seeded_codes(n, 3, n as u64));
            assert!(dosages_are_canonical(&good), "n = {n}");
            for at in [1, 509, 511, 513, 515, 2 * n - 1]
                .into_iter()
                .filter(|&at| at < 2 * n)
            {
                let mut body = good.clone();
                body[at] = b'3';
                assert!(!dosages_are_canonical(&body), "a 3 at {at} of {n} pairs");
            }
        }
    }

    #[test]
    fn every_unpack_arm_is_the_byte_unpack() {
        for n in 0..=200usize {
            let codes = seeded_codes(n, 4, n as u64);
            let mut column = pack_oracle(&codes).expect("codes of at most 3");
            // Dirty padding slots must not reach the output.
            if n % 4 != 0 {
                *column.last_mut().expect("a partial byte") |= 0xFF << (2 * (n % 4));
            }
            let want = unpack_oracle(&column, n);
            assert_eq!(want, codes, "n = {n}");
            for (arm, unpack) in unpack_codes_arms() {
                let mut out = vec![0xAA; n];
                // SAFETY: `unpack_codes_arms` lists only the arms this CPU
                // runs.
                unsafe { unpack(&column, &mut out) };
                assert_eq!(out, want, "{arm}, n = {n}");
            }
        }
    }

    #[test]
    fn every_pack_arm_is_the_quad_pack() {
        for n in 0..=200usize {
            let codes = seeded_codes(n, 4, n as u64);
            let want = pack_oracle(&codes).expect("codes of at most 3");
            for (arm, pack) in pack_codes_arms() {
                // Filled with ones, so an unwritten byte or padding slot
                // shows.
                let mut out = vec![0xFF; n.div_ceil(4)];
                // SAFETY: `pack_codes_arms` lists only the arms this CPU runs.
                let accepted = unsafe { pack(&codes, &mut out) };
                assert!(accepted, "{arm} refuses codes of at most 3, n = {n}");
                assert_eq!(out, want, "{arm}, n = {n}");
            }
        }
        for n in [1usize, 7, 8, 9, 64, 100] {
            let good = seeded_codes(n, 4, n as u64);
            for at in 0..n {
                for byte in [4u8, 0x80, 0xFF] {
                    let mut codes = good.clone();
                    codes[at] = byte;
                    assert!(pack_oracle(&codes).is_none());
                    for (arm, pack) in pack_codes_arms() {
                        let mut out = vec![0u8; n.div_ceil(4)];
                        // SAFETY: as above.
                        let accepted = unsafe { pack(&codes, &mut out) };
                        assert!(!accepted, "{arm} packs {byte} at {at} of {n}");
                    }
                }
            }
        }
    }

    proptest! {
        /// Pack/unpack round-trips all dosage values including the missing
        /// code, at arbitrary cohort sizes and row counts.
        #[test]
        fn prop_pack_unpack_round_trip(
            n in 0usize..130,
            raw in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(0u8..4, 0..130)),
                0..6,
            )
        ) {
            let rows: Vec<(u64, Vec<u8>)> = raw.into_iter()
                .map(|(id, mut d)| { d.resize(n, MISSING_DOSAGE); (id, d) })
                .collect();
            let block = GenotypeBlock::from_rows(n, &rows);
            let mut buf = vec![0u8; n];
            let mut visited = Vec::new();
            block.for_each_row(&mut buf, |id, d| visited.push((id, d.to_vec())));
            prop_assert_eq!(visited, rows);
        }

        /// `for_each_row` rejects a wrongly sized buffer.
        #[test]
        fn prop_for_each_row_checks_buffer_length(n in 1usize..40) {
            let block = GenotypeBlock::from_rows(n, &[(0, vec![1; n])]);
            let mut short = vec![0u8; n - 1];
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                block.for_each_row(&mut short, |_, _| {});
            }));
            prop_assert!(r.is_err());
        }

        /// `from_text` is the two-step path, field for field, whatever the
        /// cohort size, the filter, and the way each line is dressed.
        #[test]
        fn prop_from_text_equals_parse_filter_pack(
            n_pick in 0usize..7,
            lines in proptest::collection::vec(
                (any::<u64>(), 0u8..6, any::<bool>(), any::<u64>()),
                0..12,
            ),
            final_newline in any::<bool>(),
        ) {
            let n = [1usize, 3, 4, 5, 64, 65, 1000][n_pick];
            let mut text = String::new();
            let mut wanted = Vec::new();
            for (k, &(id, dress, keep, mut state)) in lines.iter().enumerate() {
                // Small ids as well as ones that fill all twenty digits.
                let id = if state % 2 == 0 { id % 5000 } else { id };
                if keep {
                    wanted.push(id);
                }
                let tokens: Vec<String> = (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) % 3).to_string()
                    })
                    .collect();
                let line = match dress {
                    0 => format!("{id} {}", tokens.join(" ")),
                    1 => format!("{id}\t{}", tokens.join("\t")),
                    2 => format!("{id}  {}", tokens.join("  ")),
                    3 => format!("{id} {} ", tokens.join(" ")),
                    4 => format!("{id} {}\r", tokens.join(" ")),
                    _ => format!("+{id} {}", tokens.join(" ")),
                };
                text.push_str(&line);
                if final_newline || k + 1 < lines.len() {
                    text.push('\n');
                }
            }
            assert_from_text_matches(n, text.as_bytes(), |id| wanted.contains(&id));
        }
    }
}
