//! Minimal dense linear algebra, from scratch — just enough to support
//! covariate adjustment: column-major matrices, Cholesky factorization of
//! symmetric positive-definite systems, and residualization via the normal
//! equations. Cohort design matrices here are tall and thin (n patients ×
//! a handful of covariates), where normal equations are accurate and fast.

/// A dense column-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: element (r, c) at `data[c * rows + r]`.
    data: Vec<f64>,
}

impl Matrix {
    fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from columns (each of equal length).
    fn from_columns(columns: &[Vec<f64>]) -> Self {
        assert!(!columns.is_empty(), "need at least one column");
        let rows = columns[0].len();
        assert!(rows > 0, "columns must be non-empty");
        let mut m = Matrix::zeros(rows, columns.len());
        for (c, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), rows, "ragged columns");
            m.data[c * rows..(c + 1) * rows].copy_from_slice(col);
        }
        m
    }

    /// A design matrix: a leading all-ones intercept column followed by
    /// the given covariate columns.
    pub(crate) fn design(n: usize, covariates: &[Vec<f64>]) -> Self {
        let mut cols = Vec::with_capacity(covariates.len() + 1);
        cols.push(vec![1.0; n]);
        for c in covariates {
            assert_eq!(c.len(), n, "covariate length mismatch");
            cols.push(c.clone());
        }
        Matrix::from_columns(&cols)
    }

    #[inline]
    fn get(&self, r: usize, c: usize) -> f64 {
        self.data[c * self.rows + r]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[c * self.rows + r] = v;
    }

    #[inline]
    fn column(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// `self · v`.
    fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (c, &vc) in v.iter().enumerate() {
            let col = self.column(c);
            for (o, &x) in out.iter_mut().zip(col) {
                *o += x * vc;
            }
        }
        out
    }

    /// `selfᵀ · v`.
    fn tr_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        (0..self.cols)
            .map(|c| self.column(c).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Gram matrix `selfᵀ · self` (symmetric, cols × cols).
    pub(crate) fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        for i in 0..p {
            for j in i..p {
                let dot: f64 = self
                    .column(i)
                    .iter()
                    .zip(self.column(j))
                    .map(|(a, b)| a * b)
                    .sum();
                g.set(i, j, dot);
                g.set(j, i, dot);
            }
        }
        g
    }
}

/// Lower-triangular Cholesky factor of a symmetric positive-definite
/// matrix (`A = L·Lᵀ`), enabling O(p²) solves.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

/// Failure modes of the factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not (numerically) positive definite — for a design
    /// Gram matrix this means collinear covariates.
    NotPositiveDefinite { pivot: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(
                    f,
                    "matrix not positive definite at pivot {pivot} (collinear columns?)"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    pub(crate) fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        assert_eq!(a.rows, a.cols, "Cholesky needs a square matrix");
        let p = a.rows;
        let mut l = Matrix::zeros(p, p);
        for j in 0..p {
            let mut diag = a.get(j, j);
            for k in 0..j {
                let ljk = l.get(j, k);
                diag -= ljk * ljk;
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let diag = diag.sqrt();
            l.set(j, j, diag);
            for i in (j + 1)..p {
                let mut v = a.get(i, j);
                for k in 0..j {
                    v -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, v / diag);
            }
        }
        Ok(Cholesky { l })
    }

    /// Solve `A x = b` via forward/backward substitution.
    #[allow(clippy::needless_range_loop)] // textbook triangular-solve form
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let p = self.l.rows;
        assert_eq!(b.len(), p, "dimension mismatch");
        // Forward: L y = b.
        let mut y = vec![0.0; p];
        for i in 0..p {
            let mut v = b[i];
            for k in 0..i {
                v -= self.l.get(i, k) * y[k];
            }
            y[i] = v / self.l.get(i, i);
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; p];
        for i in (0..p).rev() {
            let mut v = y[i];
            for k in (i + 1)..p {
                v -= self.l.get(k, i) * x[k];
            }
            x[i] = v / self.l.get(i, i);
        }
        x
    }
}

/// Residuals of `y` after projecting out the column space of `x`
/// (`y − X (XᵀX)⁻¹ Xᵀ y`), given `chol`, the Cholesky factor of `XᵀX`.
pub(crate) fn residualize(x: &Matrix, chol: &Cholesky, y: &[f64]) -> Vec<f64> {
    let beta = chol.solve(&x.tr_mul_vec(y));
    let fitted = x.mul_vec(&beta);
    y.iter().zip(&fitted).map(|(a, b)| a - b).collect()
}

/// Doubles of `Z` one patient tile of the multiplier kernel covers: the
/// tile is `PERTURB_Z_TILE / k` patients long, so the `Z` block every row
/// block re-reads is 32 KiB whatever the replicate width and stays in a
/// 48 KiB L1d beside the `U` segments in flight — 128 patients at the
/// default `k = 32`. Sized by `Z` bytes rather than as a fixed patient
/// count because at `k = 1` (the paper-faithful replicate pass) a short
/// fixed tile walks the whole of `U` in 1 KiB pieces per tile, which ran
/// slower than one sequential pass per row; `4096 / 1` patients is a whole
/// cohort, so that shape streams each row once.
const PERTURB_Z_TILE: usize = 4096;

/// Rows of `U` a full register tile advances together in the plain and
/// AVX2 arms. `6 × 8` doubles is twelve 256-bit accumulators, leaving
/// AVX2's other four registers for the `Z` operands and the broadcast `U`
/// value: twelve independent multiply-add chains cover the two FMA ports'
/// latency, where the `4 × 8` tile of the unfused kernel had eight.
/// The AVX-512 arm's tiles are `12 × 16`: twenty-four of its 32 `zmm`
/// registers.
const PERTURB_MR: usize = 6;

/// Blocked Monte Carlo multiplier kernel — the GEMM-shaped core of
/// Algorithm 3. Computes `out[j·k + kk] = Σ_i U[j·n + i] · Z[i·k + kk]`:
/// each of `k` replicates' perturbed scores `Ũ_j = Σ_i Z_i U_ij` for every
/// SNP `j`, in one pass over the contribution matrix instead of `k`.
///
/// * `contribs` — row-major `num_snps × num_patients` contribution matrix
///   (the cached `U`).
/// * `z_tile` — patient-major `num_patients × k` multiplier tile
///   (`z_tile[i·k + kk]` = replicate `kk`'s weight for patient `i`).
/// * `out` — replicate-major `num_snps × k` output.
///
/// Bitwise contract: for each `(j, kk)` the accumulation is a single chain
/// `acc = u.mul_add(z, acc)` from `+0.0` in patient order — IEEE 754
/// `fusedMultiplyAdd`, one rounding per step — so results are
/// bit-identical to running the replicates one at a time with that fold.
/// Register and patient tiling only choose *which* chains advance
/// together, never the order within a chain.
pub(crate) fn perturb_scores_blocked(
    contribs: &[f64],
    num_snps: usize,
    num_patients: usize,
    z_tile: &[f64],
    k: usize,
    out: &mut [f64],
) {
    assert_eq!(contribs.len(), num_snps * num_patients, "U dimensions");
    let rows: Vec<&[f64]> = contribs.chunks_exact(num_patients).collect();
    perturb_rows_blocked(&rows, num_patients, z_tile, k, out);
}

/// `perturb_scores_blocked` over a gather of independent `U` rows instead
/// of one contiguous matrix — the shape each partition of the distributed
/// resampling GEMM holds (`(snp, contribution-row)` records, so the rows a
/// task sees are contiguous per SNP but scattered between SNPs). Same
/// bitwise contract: each `(j, kk)` accumulator is one `u.mul_add(z, acc)`
/// chain in patient order, so a grid of these cells reproduces the single-task
/// kernel bit for bit.
///
/// One register-blocked body (`perturb_rows_body`) compiled three times:
/// for the build's baseline target, and on x86-64 once with AVX2 + FMA and
/// once with AVX-512 enabled, the widest the running CPU reports taken. A
/// fused multiply-add is correctly rounded whether it is one instruction
/// or, in a baseline x86-64 build, a libm `fma` call, so all three execute
/// the same IEEE operations in the same order per chain and which one runs
/// is invisible in the result.
pub fn perturb_rows_blocked(
    rows: &[&[f64]],
    num_patients: usize,
    z_tile: &[f64],
    k: usize,
    out: &mut [f64],
) {
    assert!(k > 0, "replicate tile width must be positive");
    assert_eq!(z_tile.len(), num_patients * k, "Z tile dimensions");
    assert_eq!(out.len(), rows.len() * k, "output dimensions");
    for row in rows {
        assert_eq!(row.len(), num_patients, "U row length");
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `perturb_rows_avx512` requires only that the running
            // CPU supports AVX-512F, which the detection on the line above
            // just reported (a cached atomic load after the first call).
            return unsafe { perturb_rows_avx512(rows, num_patients, z_tile, k, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: `perturb_rows_avx2` requires only that the running CPU
            // supports AVX2 and FMA, which the detection on the line above
            // just reported (cached atomic loads after the first call).
            return unsafe { perturb_rows_avx2(rows, num_patients, z_tile, k, out) };
        }
    }
    perturb_rows_body::<PERTURB_MR, false>(rows, num_patients, z_tile, k, out);
}

/// [`perturb_rows_body`] compiled with 512-bit vectors, on `12 × 16` tiles
/// led by a 16-wide replicate strip. Rust's `avx512f` implies `fma`, so each
/// `mul_add` of the tile is one `zmm` `vfmadd…pd`; `scripts/ci.sh`
/// disassembles the release build and fails if this arm holds none, or
/// still holds a `vmulpd` (a multiply the contract no longer rounds alone).
///
/// # Safety
///
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn perturb_rows_avx512(
    rows: &[&[f64]],
    num_patients: usize,
    z_tile: &[f64],
    k: usize,
    out: &mut [f64],
) {
    perturb_rows_body::<12, true>(rows, num_patients, z_tile, k, out);
}

/// [`perturb_rows_body`] compiled with 256-bit vectors and FMA: each
/// `mul_add` of the tile is one `ymm` `vfmadd…pd`. Without `fma` enabled
/// the same source would still give the contract's bits, through a libm
/// `fma` call per step, so `scripts/ci.sh` fails if this arm holds no
/// `vfmadd…pd`.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn perturb_rows_avx2(
    rows: &[&[f64]],
    num_patients: usize,
    z_tile: &[f64],
    k: usize,
    out: &mut [f64],
) {
    perturb_rows_body::<PERTURB_MR, false>(rows, num_patients, z_tile, k, out);
}

/// The kernel proper; the caller has checked every dimension. Patient tiles
/// outermost (so the tile's `Z` block is read from L1 by every row block),
/// then blocks of `MR` rows, under `WIDE` one block of eight if at least
/// eight rows are left, one block of four if at least four are, then the
/// last `rows mod 4` (under `WIDE` one block of two or three, otherwise one
/// row at a time). `WIDE` also leads each block's replicate strips with a
/// 16-wide one: the cascade is 16 → 8 → 4 → 2 → 1 instead of 8 → 4 → 2 → 1.
#[inline(always)]
fn perturb_rows_body<const MR: usize, const WIDE: bool>(
    rows: &[&[f64]],
    num_patients: usize,
    z_tile: &[f64],
    k: usize,
    out: &mut [f64],
) {
    out.fill(0.0);
    let (blocks, rest) = rows.split_at(rows.len() - rows.len() % MR);
    let (octs, rest) = rest.split_at(if WIDE { rest.len() - rest.len() % 8 } else { 0 });
    let (quads, singles) = rest.split_at(rest.len() - rest.len() % 4);
    let (out_blocks, out_rest) = out.split_at_mut(blocks.len() * k);
    let (out_octs, out_rest) = out_rest.split_at_mut(octs.len() * k);
    let (out_quads, out_singles) = out_rest.split_at_mut(quads.len() * k);
    let patient_tile = (PERTURB_Z_TILE / k).max(1);
    for i0 in (0..num_patients).step_by(patient_tile) {
        let patients = i0..(i0 + patient_tile).min(num_patients);
        let z = &z_tile[patients.start * k..patients.end * k];
        for (block, acc) in blocks
            .chunks_exact(MR)
            .zip(out_blocks.chunks_exact_mut(MR * k))
        {
            let u: [&[f64]; MR] = std::array::from_fn(|r| &block[r][patients.clone()]);
            perturb_block::<MR, WIDE>(u, z, k, acc);
        }
        for (oct, acc) in octs.chunks_exact(8).zip(out_octs.chunks_exact_mut(8 * k)) {
            let u: [&[f64]; 8] = std::array::from_fn(|r| &oct[r][patients.clone()]);
            perturb_block::<8, WIDE>(u, z, k, acc);
        }
        for (quad, acc) in quads.chunks_exact(4).zip(out_quads.chunks_exact_mut(4 * k)) {
            let u: [&[f64]; 4] = std::array::from_fn(|r| &quad[r][patients.clone()]);
            perturb_block::<4, WIDE>(u, z, k, acc);
        }
        match singles {
            // Under `WIDE`, two or three leftover rows still share `Z` loads
            // as one block of `16`-wide strips. AVX2's `8`-wide block strips
            // would hold fewer accumulators than the single-row strips.
            [a, b] if WIDE => {
                let u = [*a, *b].map(|row| &row[patients.clone()]);
                perturb_block::<2, WIDE>(u, z, k, out_singles);
            }
            [a, b, c] if WIDE => {
                let u = [*a, *b, *c].map(|row| &row[patients.clone()]);
                perturb_block::<3, WIDE>(u, z, k, out_singles);
            }
            // A row with no neighbour to share `Z` loads with takes strips
            // four times as wide as a `4 × 8` tile: 32 accumulator doubles.
            _ => {
                for (row, acc) in singles.iter().zip(out_singles.chunks_exact_mut(k)) {
                    let u = [&row[patients.clone()]];
                    let c0 = perturb_strips::<1, 32>(u, z, k, 0, acc);
                    let c0 = perturb_strips::<1, 16>(u, z, k, c0, acc);
                    let c0 = perturb_strips::<1, 8>(u, z, k, c0, acc);
                    let c0 = perturb_strips::<1, 4>(u, z, k, c0, acc);
                    let c0 = perturb_strips::<1, 2>(u, z, k, c0, acc);
                    perturb_strips::<1, 1>(u, z, k, c0, acc);
                }
            }
        }
    }
}

/// One block of `MR` rows across all `k` replicates: the strip cascade,
/// widest first.
#[inline(always)]
fn perturb_block<const MR: usize, const WIDE: bool>(
    u: [&[f64]; MR],
    z: &[f64],
    k: usize,
    acc: &mut [f64],
) {
    let c0 = if WIDE {
        perturb_strips::<MR, 16>(u, z, k, 0, acc)
    } else {
        0
    };
    let c0 = perturb_strips::<MR, 8>(u, z, k, c0, acc);
    let c0 = perturb_strips::<MR, 4>(u, z, k, c0, acc);
    let c0 = perturb_strips::<MR, 2>(u, z, k, c0, acc);
    perturb_strips::<MR, 1>(u, z, k, c0, acc);
}

/// Run `MR × NR` register tiles over replicate columns `c0..` while a full
/// `NR`-wide strip still fits in `k`; returns the first column not covered.
#[inline(always)]
fn perturb_strips<const MR: usize, const NR: usize>(
    u: [&[f64]; MR],
    z: &[f64],
    k: usize,
    mut c0: usize,
    out: &mut [f64],
) -> usize {
    while k - c0 >= NR {
        perturb_tile::<MR, NR>(u, z, k, c0, out);
        c0 += NR;
    }
    c0
}

/// The register tile: `MR` rows × `NR` replicates of accumulators held in
/// local fixed-size arrays — registers, once the constant-bound loops are
/// unrolled — loaded from `out` before the patient tile, advanced one
/// patient at a time, stored back after it. `u` holds the rows' segments
/// for this patient tile, `z` the tile's `u[r].len() × k` block of
/// multipliers, `out` the rows' `k`-wide outputs.
#[inline(always)]
fn perturb_tile<const MR: usize, const NR: usize>(
    u: [&[f64]; MR],
    z: &[f64],
    k: usize,
    c0: usize,
    out: &mut [f64],
) {
    // Constant-count loops over `r`, so they unroll: bounded by
    // `out.chunks_exact(k)`, a `12 × 16` tile's copy loops stayed rolled
    // and its accumulators lived on the stack.
    let mut acc: [[f64; NR]; MR] =
        std::array::from_fn(|r| out[r * k + c0..][..NR].try_into().expect("NR accumulators"));
    for (i, z_row) in z.chunks_exact(k).enumerate() {
        let z_row: &[f64; NR] = z_row[c0..c0 + NR]
            .try_into()
            .expect("slice of NR multipliers");
        for (a, u_row) in acc.iter_mut().zip(&u) {
            let ui = u_row[i];
            for (a, &zk) in a.iter_mut().zip(z_row) {
                *a = ui.mul_add(zk, *a);
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        out[r * k + c0..][..NR].copy_from_slice(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn matrix_basics() {
        let m = Matrix::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!((m.rows, m.cols), (2, 2));
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![4.0, 6.0]);
        assert_eq!(m.tr_mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let m = Matrix::from_columns(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 1.0]]);
        let g = m.gram();
        assert_eq!(g.get(0, 0), 5.0);
        assert_eq!(g.get(1, 1), 10.0);
        assert_eq!(g.get(0, 1), 2.0);
        assert_eq!(g.get(1, 0), 2.0);
    }

    #[test]
    fn cholesky_solves_known_system() {
        // A = [[4, 2], [2, 3]], b = [8, 7]  →  x = [1.25, 1.5].
        let a = Matrix::from_columns(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let chol = Cholesky::factor(&a).unwrap();
        let x = chol.solve(&[8.0, 7.0]);
        close(x[0], 1.25, 1e-12);
        close(x[1], 1.5, 1e-12);
    }

    #[test]
    fn cholesky_rejects_singular() {
        // Perfectly collinear columns → singular Gram matrix.
        let x = Matrix::from_columns(&[vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]]);
        assert!(matches!(
            Cholesky::factor(&x.gram()),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn least_squares_recovers_exact_coefficients() {
        // y = 2 + 3·x exactly.
        let xs = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let design = Matrix::design(5, &[xs]);
        let chol = Cholesky::factor(&design.gram()).unwrap();
        let beta = chol.solve(&design.tr_mul_vec(&y));
        close(beta[0], 2.0, 1e-10);
        close(beta[1], 3.0, 1e-10);
    }

    #[test]
    fn residualize_removes_covariate_signal() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![2.0, 4.0, 6.0, 8.0]; // y = 2x: fully explained.
        let design = Matrix::design(4, &[xs]);
        let chol = Cholesky::factor(&design.gram()).unwrap();
        let r = residualize(&design, &chol, &y);
        for v in r {
            close(v, 0.0, 1e-10);
        }
    }

    #[test]
    fn design_prepends_intercept() {
        let d = Matrix::design(3, &[vec![5.0, 6.0, 7.0]]);
        assert_eq!(d.column(0), &[1.0, 1.0, 1.0]);
        assert_eq!(d.column(1), &[5.0, 6.0, 7.0]);
    }

    #[test]
    fn perturb_blocked_is_bitwise_identical_to_naive() {
        // Sizes straddle the patient tile (256) to exercise the tile seam;
        // equality is exact, not approximate.
        for &(m, n, k) in &[
            (3usize, 7usize, 1usize),
            (5, 256, 4),
            (4, 300, 3),
            (2, 513, 8),
        ] {
            let u: Vec<f64> = (0..m * n).map(|v| (v as f64 * 0.37).sin()).collect();
            let z: Vec<f64> = (0..n * k).map(|v| (v as f64 * 0.71).cos()).collect();
            let mut out = vec![f64::NAN; m * k];
            perturb_scores_blocked(&u, m, n, &z, k, &mut out);
            let rows: Vec<&[f64]> = u.chunks_exact(n).collect();
            assert_eq!(out, perturb_fold(&rows, n, &z, k), "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn perturb_blocked_handles_empty_snp_set() {
        let mut out = vec![];
        perturb_scores_blocked(&[], 0, 10, &[0.5; 20], 2, &mut out);
        assert!(out.is_empty());
    }

    /// The contract written out, one replicate at a time: one
    /// `u.mul_add(z, acc)` chain per `(j, kk)` from `+0.0` in patient order.
    fn perturb_fold(rows: &[&[f64]], n: usize, z: &[f64], k: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows.len() * k);
        for row in rows {
            for kk in 0..k {
                out.push((0..n).fold(0.0, |acc, i| row[i].mul_add(z[i * k + kk], acc)));
            }
        }
        out
    }

    /// Bit equality, except that any NaN equals any NaN: IEEE 754 leaves
    /// the sign and payload a NaN result carries to the implementation, and
    /// the compiler may commute the operands that decide them.
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: slot {at} is {g:e} ({:#018x}), want {w:e} ({:#018x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Every way the kernel runs on this CPU, each called directly:
    /// `(arm, output)` pairs for the dispatched entry point, the plain body
    /// and every vector compilation the CPU can execute.
    fn every_arm(rows: &[&[f64]], n: usize, z: &[f64], k: usize) -> Vec<(&'static str, Vec<f64>)> {
        let run = |arm: &dyn Fn(&mut [f64])| {
            let mut out = vec![f64::NAN; rows.len() * k];
            arm(&mut out);
            out
        };
        let mut arms = vec![
            (
                "dispatched",
                run(&|out| perturb_rows_blocked(rows, n, z, k, out)),
            ),
            (
                "plain",
                run(&|out| perturb_rows_body::<PERTURB_MR, false>(rows, n, z, k, out)),
            ),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: the CPU reported AVX2 and FMA on the lines above.
                let avx2 = run(&|out| unsafe { perturb_rows_avx2(rows, n, z, k, out) });
                arms.push(("avx2", avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU reported AVX-512F on the line above.
                let avx512 = run(&|out| unsafe { perturb_rows_avx512(rows, n, z, k, out) });
                arms.push(("avx512", avx512));
            }
        }
        arms
    }

    #[test]
    fn perturb_chains_start_from_positive_zero() {
        // Every product is -0.0: each step is `-0.0 + acc` exactly, and the
        // chain starts from +0.0, so every arm answers +0.0 at every strip
        // width and row remainder (a chain from -0.0 would say -0.0).
        for (m, k) in [(1usize, 1usize), (3, 17), (4, 1), (5, 7), (6, 40), (14, 33)] {
            let n = 3;
            let u = vec![-0.0f64; m * n];
            let rows: Vec<&[f64]> = u.chunks_exact(n).collect();
            let z = vec![1.0; n * k];
            let want = vec![0.0; m * k];
            assert_same_bits(&perturb_fold(&rows, n, &z, k), &want, "fold");
            for (arm, out) in every_arm(&rows, n, &z, k) {
                assert_same_bits(&out, &want, &format!("{arm}, all products -0.0, {m} x {k}"));
            }
        }
    }

    #[test]
    fn perturb_underflowing_products_keep_their_sign() {
        // `1e-200 · ±1e-200` is ±1e-400 exactly, below the least subnormal.
        // Fused, a step onto a zero accumulator rounds that exact value
        // once, to a zero of its sign; a rounded multiply and then an add
        // would give ±0.0 + acc, which is +0.0 from a +0.0 start. So each
        // chain ends at the sign of its last patient's product: -0.0 where
        // that is negative, which an unfused kernel can never answer.
        for (m, n, k) in [
            (1usize, 1usize, 1usize),
            (3, 2, 7),
            (4, 3, 1),
            (5, 2, 7),
            (14, 5, 40),
        ] {
            let u: Vec<f64> = (0..m * n)
                .map(|v| if v % 3 == 1 { -1e-200 } else { 1e-200 })
                .collect();
            let z: Vec<f64> = (0..n * k)
                .map(|v| if v % 2 == 0 { -1e-200 } else { 1e-200 })
                .collect();
            let rows: Vec<&[f64]> = u.chunks_exact(n).collect();
            let last = &z[(n - 1) * k..];
            let want: Vec<f64> = rows
                .iter()
                .flat_map(|row| {
                    last.iter()
                        .map(|zl| 0.0f64.copysign(row[n - 1].signum() * zl))
                })
                .collect();
            assert!(
                want.iter().any(|v| v.is_sign_negative()),
                "{m} x {n} x {k}: a -0.0 to check"
            );
            assert_same_bits(&perturb_fold(&rows, n, &z, k), &want, "fold");
            for (arm, out) in every_arm(&rows, n, &z, k) {
                assert_same_bits(
                    &out,
                    &want,
                    &format!("{arm}, underflowing products, {m} x {n} x {k}"),
                );
            }
        }
    }

    #[test]
    fn perturb_plain_and_dispatched_agree_at_the_benchmark_shape() {
        // One grid cell of the benchmark's `grid_*` workloads, and the
        // rows of one `svc_mc` query set (20 over 2000 patients).
        for (m, n, k) in [(256usize, 4000usize, 32usize), (20, 2000, 32)] {
            let u: Vec<f64> = (0..m * n).map(|v| (v as f64 * 0.37).sin()).collect();
            let z: Vec<f64> = (0..n * k).map(|v| (v as f64 * 0.71).cos()).collect();
            let rows: Vec<&[f64]> = u.chunks_exact(n).collect();
            let want = perturb_fold(&rows, n, &z, k);
            assert!(want.iter().all(|v| v.is_finite()));
            for (arm, out) in every_arm(&rows, n, &z, k) {
                assert_same_bits(&out, &want, &format!("{arm} at {m} x {n} x {k}"));
            }
        }
    }

    proptest! {
        /// Every compilation of the kernel reproduces the fold bit for bit:
        /// every row remainder (0..=27 rows: blocks of twelve or six, a
        /// block of eight, a block of four, single rows), patient-tile
        /// seams (the tile is `4096 / k` patients) and every strip
        /// decomposition of `k` (up to 16 + 16 + 8), over values that
        /// include signed zeros, infinities, NaN, subnormals and products
        /// that underflow, at a per-case density from none to one in four.
        #[test]
        fn prop_perturb_reproduces_the_fold_bit_for_bit(
            m in 0usize..=27,
            n in 1usize..=600,
            k in 1usize..=40,
            density in 0usize..4,
            seed in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            const SPECIALS: [f64; 8] = [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                f64::MIN_POSITIVE / 4.0,
                -f64::MIN_POSITIVE / 4.0,
                5e-324,
            ];
            let specials_per_1000 = [0u32, 1, 20, 250][density];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut value = |_| {
                if rng.gen_range(0u32..1000) < specials_per_1000 {
                    SPECIALS[rng.gen_range(0..SPECIALS.len())]
                } else {
                    rng.gen_range(-2.0f64..2.0)
                }
            };
            let u: Vec<f64> = (0..m * n).map(&mut value).collect();
            let z: Vec<f64> = (0..n * k).map(&mut value).collect();
            let rows: Vec<&[f64]> = u.chunks_exact(n).collect();
            let want = perturb_fold(&rows, n, &z, k);
            for (arm, out) in every_arm(&rows, n, &z, k) {
                assert_same_bits(&out, &want, arm);
            }
        }

        /// Residuals are orthogonal to every design column.
        #[test]
        fn prop_residual_orthogonality(
            seed_y in proptest::collection::vec(-10.0f64..10.0, 8..30),
            seed_x in proptest::collection::vec(-5.0f64..5.0, 8..30),
        ) {
            let n = seed_y.len().min(seed_x.len());
            let y = &seed_y[..n];
            let x = seed_x[..n].to_vec();
            let design = Matrix::design(n, &[x]);
            if let Ok(chol) = Cholesky::factor(&design.gram()) {
                let r = residualize(&design, &chol, y);
                for c in 0..design.cols {
                    let dot: f64 = design.column(c).iter().zip(&r).map(|(a, b)| a * b).sum();
                    prop_assert!(dot.abs() < 1e-6, "column {c} dot {dot}");
                }
            }
        }

        /// Cholesky solve inverts mul for random SPD matrices (AᵀA + I).
        #[test]
        fn prop_cholesky_round_trip(
            vals in proptest::collection::vec(-3.0f64..3.0, 9..=9),
            rhs in proptest::collection::vec(-5.0f64..5.0, 3..=3),
        ) {
            let base = Matrix::from_columns(&[
                vals[0..3].to_vec(), vals[3..6].to_vec(), vals[6..9].to_vec(),
            ]);
            let mut spd = base.gram();
            for i in 0..3 {
                spd.set(i, i, spd.get(i, i) + 1.0); // ensure PD
            }
            let chol = Cholesky::factor(&spd).unwrap();
            let x = chol.solve(&rhs);
            let back = spd.mul_vec(&x);
            for (a, b) in back.iter().zip(&rhs) {
                prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
            }
        }
    }
}
