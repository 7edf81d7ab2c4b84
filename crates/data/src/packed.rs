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
    /// and [`GenotypeBlock::push_row`], which stay the definition of the
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
    /// is scanned all the same: a malformed line is an error whether or
    /// not its SNP is wanted.
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
            if !scan_dosages(body, |byte| self.data.push(byte)) {
                self.data.truncate(start);
                return None;
            }
            self.ids.push(id);
        } else if !scan_dosages(body, |_| {}) {
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
        assert!(
            dosages.iter().all(|&d| d <= MISSING_DOSAGE),
            "dosage out of range: 2-bit packing holds 0/1/2 and the missing code {MISSING_DOSAGE}"
        );
        self.ids.push(id);
        let mut chunks = dosages.chunks_exact(4);
        for quad in chunks.by_ref() {
            self.data
                .push(quad[0] | quad[1] << 2 | quad[2] << 4 | quad[3] << 6);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut byte = 0u8;
            for (i, &d) in rest.iter().enumerate() {
                byte |= d << (2 * i);
            }
            self.data.push(byte);
        }
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
        let column = &self.data[col * self.stride..(col + 1) * self.stride];
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

/// Check that `body` is a run of (one space, one of `0 1 2`) pairs and
/// hand `emit` the bytes [`GenotypeBlock::push_row`] would pack from those
/// dosages, in order. Returns whether the run was well formed; when it was
/// not, what `emit` received is to be discarded.
///
/// Eight text bytes — four pairs — are one little-endian word (whatever
/// the host's byte order, `from_le_bytes` puts the first text byte lowest).
/// XOR with the pattern `" 0 0 0 0"` leaves 0 in every separator lane and
/// the dosage in every digit lane; any other bit, or a digit lane holding
/// 3, is a violation, OR-ed into one flag that is tested once. With the
/// lanes clean the four dosages sit at bits 8, 24, 40 and 56, and three
/// shifts gather them into one byte, first patient lowest.
fn scan_dosages(body: &[u8], mut emit: impl FnMut(u8)) -> bool {
    const SPACE_ZERO: u64 = 0x3020_3020_3020_3020;
    const DOSAGE_BITS: u64 = 0x0300_0300_0300_0300;
    const DOSAGE_LOW_BIT: u64 = 0x0100_0100_0100_0100;
    let mut bad = 0u64;
    let mut words = body.chunks_exact(8);
    for word in words.by_ref() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ SPACE_ZERO;
        bad |= (x & !DOSAGE_BITS) | (x & (x >> 1) & DOSAGE_LOW_BIT);
        let d = x >> 8;
        emit((d | d >> 14 | d >> 28 | d >> 42) as u8);
    }
    // The last `num_patients % 4` pairs share one byte.
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut byte = 0u8;
        for (i, pair) in rest.chunks_exact(2).enumerate() {
            let d = pair[1] ^ b'0';
            bad |= u64::from(pair[0] ^ b' ') | u64::from(d > 2);
            byte |= (d & 0b11) << (2 * i);
        }
        emit(byte);
    }
    bad == 0
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
