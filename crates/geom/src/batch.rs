//! Batched, cache-friendly feasibility scoring over shared point sets.
//!
//! Every planner in the workspace bottlenecks on the same question: *how
//! many quasi-Monte-Carlo sample points does a candidate plan keep
//! feasible?* The scalar path answers it one point at a time — each point
//! a separately heap-allocated [`Vector`], each node constraint a fresh
//! dot product — which thrashes the cache as soon as the point set no
//! longer fits in L2.
//!
//! [`PointBatch`] stores the same point set column-major (structure of
//! arrays): one contiguous `f64` slice per input dimension. A node's load
//! at every point is then a column-wise fused accumulation
//!
//! ```text
//! load[p] += l_ik · col_k[p]        (k = 1..d, p over a block)
//! ```
//!
//! whose inner loop is a straight multiply-add over contiguous slices —
//! exactly the shape LLVM auto-vectorises into f64 lanes.
//! [`FeasibilityKernel`] layers *survivor compaction* on top: once a
//! constraint pass kills more than half the current working set, the
//! surviving points' coordinates are physically copied into fresh dense
//! columns, so later node rows run the same vectorised inner loop over a
//! geometrically shrinking point set. This is the batched analogue of the
//! scalar walk's per-point early exit — without it a dense kernel does
//! `n·d` work per point while the scalar path stops at the first violated
//! constraint; with index-gather compaction instead, the bounds-checked
//! indexed loads defeat vectorisation and give the win straight back.
//!
//! **Bit-identity.** The per-point accumulation order is unchanged: for a
//! fixed point `p`, loads are summed over `k` ascending starting from
//! `0.0`, precisely the order of the scalar iterator-`sum` walk in
//! [`FeasibleRegion::contains`]. IEEE-754 addition is deterministic for a
//! fixed operand order, so every per-point feasibility decision — and
//! therefore every count, ratio and placement derived from one — is
//! bit-identical to the scalar path. The equivalence tests in this module
//! and the golden suite in `rod-bench` pin this down.
//!
//! **Explicit SIMD.** On x86-64 hosts with AVX2 the kernel's inner loops
//! run through the hand-written 4×f64-lane implementations in
//! [`crate::simd`] (runtime-detected; forceable back to scalar with
//! `ROD_NO_SIMD` or the `force_scalar` constructors). The AVX2 block
//! scorer is *tile-major*: ordinary regions are walked once in pairs of
//! 16-point register tiles, folding every bound and constraint row into
//! per-tile live-bit words and abandoning a pair the moment its words
//! die — which subsumes the survivor compaction above at tile
//! granularity without copying anything. Regions with a long tail of
//! rows fall back to segmented passes that compact survivors with a
//! vectorised compress between segments. Lanes are points and the SIMD
//! loops multiply-then-add per lane (never FMA), so the same per-point
//! operand-order argument applies verbatim and the two paths are
//! bit-identical — see the `rod_geom::simd` module docs for the full
//! contract and `tests/simd_equivalence.rs` for the proptests pinning
//! it.

use std::sync::Mutex;

use crate::simd::{self, KernelPath};
use crate::vector::Vector;
use crate::volume::FeasibleRegion;

/// Granularity of the precomputed per-column coordinate ranges in
/// [`PointBatch`] — the same 2048 points as the kernel's scoring block,
/// so a block's bounds are usually one lookup (two when a thread
/// partition splits mid-chunk).
pub(crate) const CHUNK: usize = 2048;

/// A point set stored column-major: one contiguous column per input
/// dimension, so per-plan node-load dot products accumulate column-wise
/// over cache-line-friendly slices.
#[derive(Clone, Debug)]
pub struct PointBatch {
    num_points: usize,
    dim: usize,
    /// Column-major storage: `cols[k · num_points + p]` is coordinate `k`
    /// of point `p`.
    cols: Vec<f64>,
    /// Per-column minimum (`+inf` for an empty batch), used to skip
    /// lower-bound columns no point can violate.
    col_min: Vec<f64>,
    /// Per-column, per-[`CHUNK`] `(min, max, nan_free)`, laid out
    /// `[k · n_chunks + chunk]` — precomputed once here so the SIMD
    /// block scorer's interval pruning never re-reads column data (a
    /// streaming bounds pass would cost more than the early-exiting
    /// kernel it is trying to save).
    chunk_bounds: Vec<(f64, f64, bool)>,
}

impl PointBatch {
    /// Transposes a row-major point set into columns.
    pub fn from_points(points: &[Vector]) -> Self {
        let num_points = points.len();
        let dim = points.first().map_or(0, Vector::dim);
        let mut cols = vec![0.0; dim * num_points];
        for (p, point) in points.iter().enumerate() {
            assert_eq!(point.dim(), dim, "ragged point set");
            for (k, &x) in point.as_slice().iter().enumerate() {
                cols[k * num_points + p] = x;
            }
        }
        let mut chunk_bounds = Vec::with_capacity(dim * num_points.div_ceil(CHUNK));
        for k in 0..dim {
            chunk_bounds.extend(
                cols[k * num_points..(k + 1) * num_points]
                    .chunks(CHUNK)
                    .map(chunk_bound),
            );
        }
        PointBatch::with_bounds(dim, num_points, cols, chunk_bounds)
    }

    /// Generates `num_points` points of dimension `dim` straight into
    /// their column slots — no row-major copy is ever held.
    ///
    /// The points are dealt to [`rod_pool::global`] in up to `ranges`
    /// contiguous index ranges of whole [`CHUNK`]s (never more ranges
    /// than chunks). Each task calls `start_at(first)` once for a point
    /// source positioned at its range's first index, draws its points in
    /// order into one reused `dim`-slot buffer, scatters each into its
    /// own disjoint slices of the final columns, and folds every chunk's
    /// bounds while the chunk is still in cache. A point's bits depend on
    /// its index alone, so the batch is the same for every `ranges` and
    /// every pool size, and equal to [`from_points`](Self::from_points)
    /// over the same points (also when `num_points` is 0, except that
    /// the dimension is `dim` rather than 0).
    pub(crate) fn generate<G>(
        dim: usize,
        num_points: usize,
        ranges: usize,
        start_at: impl Fn(usize) -> G + Sync,
    ) -> Self
    where
        G: FnMut(&mut [f64]),
    {
        let n_chunks = num_points.div_ceil(CHUNK);
        let mut cols = vec![0.0; dim * num_points];
        let mut chunk_bounds = vec![(f64::INFINITY, f64::NEG_INFINITY, true); dim * n_chunks];
        let ranges = rod_pool::chunks(n_chunks, ranges);
        // Task `t`'s slice of every column and of every column's chunk
        // bounds, taken by exactly one task.
        type Slices<'a> = (Vec<&'a mut [f64]>, Vec<&'a mut [(f64, f64, bool)]>);
        let mut parts: Vec<Slices> = ranges
            .iter()
            .map(|_| (Vec::with_capacity(dim), Vec::with_capacity(dim)))
            .collect();
        if num_points > 0 {
            for (mut col, mut bounds) in cols
                .chunks_mut(num_points)
                .zip(chunk_bounds.chunks_mut(n_chunks))
            {
                for (part, r) in parts.iter_mut().zip(&ranges) {
                    let points = (r.end * CHUNK).min(num_points) - r.start * CHUNK;
                    let (head, tail) = col.split_at_mut(points);
                    part.0.push(head);
                    col = tail;
                    let (head, tail) = bounds.split_at_mut(r.len());
                    part.1.push(head);
                    bounds = tail;
                }
            }
        }
        let parts: Vec<Mutex<Option<Slices>>> =
            parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        rod_pool::global().map_reduce(
            ranges.len(),
            |t| {
                let (mut cols, mut bounds) = parts[t]
                    .lock()
                    .expect("no task panics while holding its slot")
                    .take()
                    .expect("each range is generated once");
                let len = cols.first().map_or(0, |c| c.len());
                let mut next = start_at(ranges[t].start * CHUNK);
                let mut point = vec![0.0; dim];
                for (c, lo) in (0..len).step_by(CHUNK).enumerate() {
                    let hi = (lo + CHUNK).min(len);
                    for p in lo..hi {
                        next(&mut point);
                        for (col, &x) in cols.iter_mut().zip(&point) {
                            col[p] = x;
                        }
                    }
                    for (col, bounds) in cols.iter().zip(bounds.iter_mut()) {
                        bounds[c] = chunk_bound(&col[lo..hi]);
                    }
                }
            },
            (),
            |(), ()| (),
        );
        PointBatch::with_bounds(dim, num_points, cols, chunk_bounds)
    }

    /// Assembles a batch from its columns and their per-chunk bounds,
    /// folding the per-column minima from the bounds.
    fn with_bounds(
        dim: usize,
        num_points: usize,
        cols: Vec<f64>,
        chunk_bounds: Vec<(f64, f64, bool)>,
    ) -> Self {
        let n_chunks = num_points.div_ceil(CHUNK);
        // Comparison-select folds ignore NaN exactly like the previous
        // `f64::min` fold, so the lower-bound column skip is unchanged.
        let col_min = (0..dim)
            .map(|k| {
                chunk_bounds[k * n_chunks..(k + 1) * n_chunks]
                    .iter()
                    .map(|&(mn, _, _)| mn)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        PointBatch {
            num_points,
            dim,
            cols,
            col_min,
            chunk_bounds,
        }
    }

    /// Conservative `(min, max, nan_free)` over `column(k)[start..end]`,
    /// folded from the precomputed [`CHUNK`] bounds of every chunk
    /// overlapping the range (a superset of it, so the bounds are valid
    /// for any prune that only needs containment). The min/max are
    /// comparison selections of actual coordinates — no arithmetic, no
    /// rounding.
    pub(crate) fn range_bounds(&self, k: usize, start: usize, end: usize) -> (f64, f64, bool) {
        debug_assert!(start < end && end <= self.num_points);
        let n_chunks = self.num_points.div_ceil(CHUNK);
        let (c0, c1) = (start / CHUNK, (end - 1) / CHUNK);
        let mut mn = f64::INFINITY;
        let mut mx = f64::NEG_INFINITY;
        let mut nan_free = true;
        for &(a, b, ok) in &self.chunk_bounds[k * n_chunks + c0..=k * n_chunks + c1] {
            if a < mn {
                mn = a;
            }
            if b > mx {
                mx = b;
            }
            nan_free &= ok;
        }
        (mn, mx, nan_free)
    }

    /// Number of points held.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Dimension of each point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// One coordinate column, contiguous over all points.
    pub fn column(&self, k: usize) -> &[f64] {
        &self.cols[k * self.num_points..(k + 1) * self.num_points]
    }

    /// Point `p` gathered from the columns into a row-major [`Vector`] —
    /// for point-at-a-time reference walks; the kernels read columns.
    pub fn point(&self, p: usize) -> Vector {
        assert!(p < self.num_points, "point {p} out of range");
        Vector::new((0..self.dim).map(|k| self.column(k)[p]).collect())
    }

    /// Writes `out[p] = Σ_k coeffs[k] · col_k[p]` for every point,
    /// accumulating columns in ascending `k` — the same per-point operand
    /// order as a scalar row-times-point dot product, so results are
    /// bit-identical to `coeffs.iter().zip(point).map(|(c, x)| c * x).sum()`.
    ///
    /// Zero coefficients are skipped entirely: a `0.0 · x` term is `±0.0`
    /// for finite `x`, and adding `±0.0` to an accumulator that started at
    /// `+0.0` never changes its bits, so the skip is exact. Sparse
    /// coefficient rows (operators touching a few streams out of many)
    /// thus cost O(nnz · P) instead of O(d · P).
    pub fn dot_into(&self, coeffs: &[f64], out: &mut [f64]) {
        self.dot_into_with_path(coeffs, out, simd::select_path(false));
    }

    /// [`dot_into`](Self::dot_into) pinned to the scalar loop regardless
    /// of host support — the reference path for A/B tests and the perf
    /// harness.
    pub fn dot_into_scalar(&self, coeffs: &[f64], out: &mut [f64]) {
        self.dot_into_with_path(coeffs, out, KernelPath::Scalar);
    }

    fn dot_into_with_path(&self, coeffs: &[f64], out: &mut [f64], path: KernelPath) {
        assert_eq!(coeffs.len(), self.dim, "coefficient row has wrong arity");
        assert_eq!(out.len(), self.num_points, "output buffer has wrong length");
        simd::note_dot(path);
        out.fill(0.0);
        #[cfg(target_arch = "x86_64")]
        if path == KernelPath::Simd {
            for (k, &c) in coeffs.iter().enumerate() {
                if c == 0.0 {
                    continue;
                }
                // SAFETY: `Simd` is only selected when AVX2 was detected.
                unsafe { simd::avx2::axpy(c, self.column(k), out) };
            }
            return;
        }
        for (k, &c) in coeffs.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            let col = self.column(k);
            for (acc, &x) in out.iter_mut().zip(col) {
                *acc += c * x;
            }
        }
    }
}

#[cfg(test)]
impl PointBatch {
    /// Every stored bit: the columns, the per-chunk bounds and the
    /// per-column minima.
    #[allow(clippy::type_complexity)]
    pub(crate) fn bits(&self) -> (Vec<u64>, Vec<(u64, u64, bool)>, Vec<u64>) {
        (
            self.cols.iter().map(|x| x.to_bits()).collect(),
            self.chunk_bounds
                .iter()
                .map(|&(mn, mx, ok)| (mn.to_bits(), mx.to_bits(), ok))
                .collect(),
            self.col_min.iter().map(|x| x.to_bits()).collect(),
        )
    }
}

/// `(min, max, nan_free)` of one chunk of a column: comparison-select
/// folds, so the min and max are actual coordinates.
fn chunk_bound(chunk: &[f64]) -> (f64, f64, bool) {
    let mut mn = f64::INFINITY;
    let mut mx = f64::NEG_INFINITY;
    let mut nan_free = true;
    for &x in chunk {
        if x < mn {
            mn = x;
        }
        if x > mx {
            mx = x;
        }
        nan_free &= !x.is_nan();
    }
    (mn, mx, nan_free)
}

/// Batched feasibility counter over a [`PointBatch`]: scores all sample
/// points for a candidate plan's [`FeasibleRegion`] in one blocked pass.
#[derive(Clone, Debug)]
pub struct FeasibilityKernel {
    batch: PointBatch,
    /// Which inner-loop implementation this kernel scores with, decided
    /// once at construction (see [`crate::simd::select_path`]). Both
    /// paths are bit-identical; the field only affects speed — and the
    /// [`crate::simd::path_counts`] attribution.
    path: KernelPath,
}

impl FeasibilityKernel {
    /// Kernel over a row-major point set (transposed once here). Uses
    /// the AVX2 path when the host supports it and `ROD_NO_SIMD` is not
    /// set; [`path`](Self::path) reports the decision.
    pub fn new(points: &[Vector]) -> Self {
        FeasibilityKernel::from_batch(PointBatch::from_points(points))
    }

    /// [`new`](Self::new) pinned to the scalar reference path — for CI
    /// A/B runs and oracle comparisons, independent of the environment.
    pub fn new_force_scalar(points: &[Vector]) -> Self {
        FeasibilityKernel::from_batch_force_scalar(PointBatch::from_points(points))
    }

    /// Kernel over an existing batch (runtime path selection).
    pub fn from_batch(batch: PointBatch) -> Self {
        FeasibilityKernel {
            batch,
            path: simd::select_path(false),
        }
    }

    /// [`from_batch`](Self::from_batch) pinned to the scalar path.
    pub fn from_batch_force_scalar(batch: PointBatch) -> Self {
        FeasibilityKernel {
            batch,
            path: KernelPath::Scalar,
        }
    }

    /// The inner-loop implementation this kernel selected.
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// The underlying column store.
    pub fn batch(&self) -> &PointBatch {
        &self.batch
    }

    /// Number of points feasible for `region` — bit-identical to counting
    /// [`FeasibleRegion::contains`] over the same points in order.
    pub fn count_feasible(&self, region: &FeasibleRegion) -> usize {
        self.count_feasible_range(region, 0, self.batch.num_points)
    }

    /// [`count_feasible`](Self::count_feasible) restricted to the point
    /// index range `start..end` — the unit of work handed to each thread
    /// by the parallel estimator (integer counts merge associatively, so
    /// any partition of the range sums to the serial count exactly).
    ///
    /// The range is processed in cache-sized blocks so every constraint
    /// pass re-reads the working set from L2 instead of DRAM; see the
    /// module docs for the blocking + survivor-compaction design.
    pub fn count_feasible_range(&self, region: &FeasibleRegion, start: usize, end: usize) -> usize {
        self.count_range_with_path(region, start, end, self.path)
    }

    /// [`count_feasible_range`](Self::count_feasible_range) pinned to
    /// the scalar reference loops regardless of this kernel's selected
    /// path — the oracle leg of forced-path A/B comparisons without
    /// re-transposing the point set.
    pub fn count_feasible_range_scalar(
        &self,
        region: &FeasibleRegion,
        start: usize,
        end: usize,
    ) -> usize {
        self.count_range_with_path(region, start, end, KernelPath::Scalar)
    }

    fn count_range_with_path(
        &self,
        region: &FeasibleRegion,
        start: usize,
        end: usize,
        path: KernelPath,
    ) -> usize {
        assert!(start <= end && end <= self.batch.num_points);
        assert_eq!(
            region.dim(),
            self.batch.dim,
            "region dimension must match the point set"
        );
        // ~2048 points × d columns × 8 bytes keeps a block's columns,
        // loads and mask L2-resident for the dimensions ROD uses (d ≤ 16),
        // so re-streaming them once per node constraint is cheap.
        const BLOCK: usize = 2048;
        let mut scratch = Scratch::default();
        let mut total = 0usize;
        let mut s = start;
        while s < end {
            let e = (s + BLOCK).min(end);
            total += self.count_block(region, s, e, &mut scratch, path);
            s = e;
        }
        total
    }

    /// Scores one cache-resident block of points. Constraints are
    /// evaluated in node order against a dense working set that starts as
    /// the raw column range and is physically compacted (surviving
    /// coordinates copied into fresh dense columns) whenever a pass
    /// leaves fewer than half the points alive. Dead points therefore
    /// never cost more than 2× the live work, every inner loop stays a
    /// zipped-slice multiply-add the compiler can vectorise, and the
    /// per-point arithmetic order is untouched — so the count is
    /// bit-identical to the scalar walk. A block whose points all die
    /// skips the remaining constraints entirely (feasibility is a
    /// conjunction, so the count is independent of evaluation order).
    fn count_block(
        &self,
        region: &FeasibleRegion,
        start: usize,
        end: usize,
        scr: &mut Scratch,
        path: KernelPath,
    ) -> usize {
        simd::note_block(path);
        #[cfg(target_arch = "x86_64")]
        if path == KernelPath::Simd {
            // SAFETY: `Simd` is only ever selected after runtime AVX2
            // detection (see `simd::select_path`).
            return unsafe { self.count_block_avx2(region, start, end, scr) };
        }
        self.count_block_scalar(region, start, end, scr)
    }

    /// The reference blocked-scalar block scorer — kept verbatim as the
    /// oracle the SIMD path must match bit for bit.
    fn count_block_scalar(
        &self,
        region: &FeasibleRegion,
        start: usize,
        end: usize,
        scr: &mut Scratch,
    ) -> usize {
        let d = self.batch.dim;
        let n = region.constraints();
        let lb = region.lower_bound.as_slice();
        let width = end - start;

        // Alive flags over the current working set (initially the raw
        // column range).
        scr.mask.clear();
        scr.mask.resize(width, true);
        let mut live = width;

        // Lower bound `B ≤ R`, component-wise. Columns whose minimum
        // already clears the bound are skipped — no point can fail.
        for (k, &b) in lb.iter().enumerate() {
            if b <= self.batch.col_min[k] {
                continue;
            }
            let col = &self.batch.column(k)[start..end];
            live = 0;
            for (m, &x) in scr.mask.iter_mut().zip(col) {
                *m &= b <= x;
                live += *m as usize;
            }
        }

        // Node constraints `L^n_i · R ≤ C_i`, accumulated column-wise.
        // Until the first compaction the original batch columns serve as
        // the working set; afterwards `scr.work` holds the survivors'
        // coordinates, column-major with stride `w_len`. Loads for a tile
        // of `TILE` points accumulate in a stack array small enough to
        // live in registers, so each constraint row streams every column
        // exactly once with no load/store traffic on the accumulators.
        const TILE: usize = 16;
        let mut compacted = false;
        let mut w_len = width;
        // Distance between consecutive columns in `scr.work`; one slot
        // wider than `w_len` so the branchless compaction below may write
        // one harmless element past the survivors.
        let mut w_stride = width;
        for i in 0..n {
            if live == 0 {
                return 0;
            }
            let row = region.coefficients.row(i);
            // Zero columns of the constraint row contribute exactly `+0.0`
            // to every accumulator below (finite coordinates, accumulators
            // start at `+0.0`), so skipping them preserves every bit while
            // cutting a sparse row's pass from O(d) columns to O(nnz).
            scr.nz.clear();
            scr.nz.extend(
                row.iter()
                    .enumerate()
                    .filter_map(|(k, &c)| (c != 0.0).then_some((k, c))),
            );
            // Same tolerance as the scalar `contains` walk.
            let cap = region.capacities[i] + 1e-12;
            let tiled = w_len - w_len % TILE;
            let mut t = 0;
            live = 0;
            while t < tiled {
                let mut acc = [0.0f64; TILE];
                for &(k, c) in &scr.nz {
                    let col: &[f64] = if compacted {
                        &scr.work[k * w_stride..k * w_stride + w_len]
                    } else {
                        &self.batch.column(k)[start..end]
                    };
                    let src = &col[t..t + TILE];
                    for (a, &x) in acc.iter_mut().zip(src) {
                        *a += c * x;
                    }
                }
                for (m, &load) in scr.mask[t..t + TILE].iter_mut().zip(&acc) {
                    *m &= load <= cap;
                    live += *m as usize;
                }
                t += TILE;
            }
            // Ragged tail, one point at a time (same k-ascending order).
            for p in tiled..w_len {
                let mut acc = 0.0f64;
                for &(k, c) in &scr.nz {
                    let col: &[f64] = if compacted {
                        &scr.work[k * w_stride..k * w_stride + w_len]
                    } else {
                        &self.batch.column(k)[start..end]
                    };
                    acc += c * col[p];
                }
                let m = &mut scr.mask[p];
                *m &= acc <= cap;
                live += *m as usize;
            }
            // Compact below half occupancy (pointless after the last row).
            if i + 1 < n && live * 2 < w_len {
                // Branchless compress: always write, advance the cursor
                // only on keep. A ~50% kill rate is the worst case for a
                // branch predictor, so a data-dependent `if` here costs
                // more than the occasional dead store; the extra stride
                // slot makes the trailing dead store safe.
                let stride = live + 1;
                scr.next.clear();
                scr.next.resize(d * stride, 0.0);
                for k in 0..d {
                    let col: &[f64] = if compacted {
                        &scr.work[k * w_stride..k * w_stride + w_len]
                    } else {
                        &self.batch.column(k)[start..end]
                    };
                    let dst = &mut scr.next[k * stride..(k + 1) * stride];
                    let mut w = 0usize;
                    for (&m, &x) in scr.mask.iter().zip(col) {
                        dst[w] = x;
                        w += m as usize;
                    }
                }
                std::mem::swap(&mut scr.work, &mut scr.next);
                compacted = true;
                w_len = live;
                w_stride = stride;
                scr.mask.clear();
                scr.mask.resize(live, true);
            }
        }
        live
    }

    /// [`count_block_scalar`](Self::count_block_scalar) restructured
    /// around the explicit AVX2 bodies in [`crate::simd::avx2`], in
    /// two regimes:
    ///
    /// * **Fused pass** (up to 16 constraint rows — every planner
    ///   shape in `docs/benchmarks.md`): the block is walked once in
    ///   *pairs* of 16-point tiles. Each pair folds every lower bound
    ///   and every row into two live-bit words held in registers and
    ///   is abandoned the moment both words die, so dead points are
    ///   skipped at tile granularity without copying a coordinate —
    ///   the job the scalar path needs survivor compaction for. The
    ///   pair keeps eight independent f64 dependency chains in flight,
    ///   which is what lets the multiply-add stream run at FP
    ///   throughput instead of waiting out 4-cycle add latency (a
    ///   single tile's four chains measurably cannot).
    /// * **Segmented passes** (longer regions): rows run in segments
    ///   of 8 with the live words persisted in `scr.bits`. Between
    ///   segments, once occupancy drops below a quarter, survivors are
    ///   compacted with the table-driven vpermps compress
    ///   ([`crate::simd::avx2::compress_tile`] — 16 points per step
    ///   where the scalar write cursor moves one) into only the
    ///   columns the remaining rows still read, restoring the scalar
    ///   path's geometric working-set shrink where a long tail of rows
    ///   would otherwise re-walk mostly-dead tiles forever.
    ///
    /// Per-point arithmetic is untouched: each point's load still
    /// accumulates its row's nonzero columns `k` ascending from `+0.0`,
    /// multiply-then-add (never FMA), and every comparison is the same
    /// ordered `<=` — so every per-point decision, and therefore the
    /// count, is bit-identical to the scalar walk (feasibility is a
    /// conjunction: evaluation order and dead-point skipping cannot
    /// change any decision).
    ///
    /// One more conjunction-order freedom is exploited per block, using
    /// the block's column ranges (exact min/max over the actual
    /// coordinates — see `block_bounds`): **interval pruning**. A row
    /// whose maximum possible load over the block already clears its
    /// cap kills nothing and is dropped; a row whose minimum possible
    /// load violates it kills every point, so the block returns 0
    /// without touching a tile. The bounds are padded for the
    /// summation's rounding and disabled on non-finite columns, so a
    /// prune fires only when every per-point decision it skips is
    /// forced.
    ///
    /// # Safety
    /// AVX2 must be available on the running CPU (guaranteed by the
    /// dispatch in [`count_block`](Self::count_block)).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn count_block_avx2(
        &self,
        region: &FeasibleRegion,
        start: usize,
        end: usize,
        scr: &mut Scratch,
    ) -> usize {
        use crate::simd::avx2::{self, TILE};

        let n = region.constraints();
        let lb = region.lower_bound.as_slice();
        let width = end - start;

        // Conservative per-block column ranges, folded from the bounds
        // precomputed at batch construction — O(1) per lookup, no
        // column data touched. The bool is false when a NaN hides in
        // the range, which disables any prune that needs the bounds to
        // cover every load.
        let block_bounds = |k: usize| self.batch.range_bounds(k, start, end);

        // Active lower bounds: base pointers for every bound the block
        // can actually fail. The batch-wide `col_min` skip is the same
        // as the scalar path's; the block-range refinements are exact
        // (min/max select actual coordinates — no arithmetic): a bound
        // at or below the block minimum passes everywhere, one above
        // the block maximum fails everywhere (NaN coordinates fail
        // `b ≤ x` too, so the kill needs no NaN guard — the skip does).
        let mut lbs: Vec<(f64, *const f64)> = Vec::new();
        for (k, &b) in lb.iter().enumerate() {
            if b <= self.batch.col_min[k] {
                continue;
            }
            let (mn, mx, nan_free) = block_bounds(k);
            if b <= mn && nan_free {
                continue;
            }
            if b > mx {
                return 0;
            }
            lbs.push((b, self.batch.column(k)[start..end].as_ptr()));
        }

        // Constraint rows: nonzero `(column, coefficient)` pairs with k
        // ascending — the bit-identity order, same set the scalar path
        // builds in `scr.nz` — plus each row's interval bounds. `pad`
        // covers the bound summation's own rounding (≤ 16·ε relative
        // to the term magnitudes, padded a thousandfold), so a prune
        // fires only on rows the block genuinely cannot decide
        // otherwise.
        let mut nz: Vec<(usize, f64)> = Vec::new();
        // One constraint row's nonzero span in `nz` plus its padded
        // block-level load interval (see the pruning notes above).
        struct Row {
            cap: f64,
            begin: usize,
            end: usize,
            prune_hi: f64,
            prune_lo: f64,
        }
        let mut pending: Vec<Row> = Vec::with_capacity(n);
        for i in 0..n {
            let begin = nz.len();
            nz.extend(
                region
                    .coefficients
                    .row(i)
                    .iter()
                    .enumerate()
                    .filter_map(|(k, &c)| (c != 0.0).then_some((k, c))),
            );
            // Same tolerance as the scalar `contains` walk.
            let cap = region.capacities[i] + 1e-12;
            let (mut hi, mut lo, mut mag, mut nan_free) = (0.0f64, 0.0f64, 0.0f64, true);
            for &(k, c) in &nz[begin..] {
                let (mn, mx, ok) = block_bounds(k);
                let (a, b) = (c * mn, c * mx);
                hi += a.max(b);
                lo += a.min(b);
                mag += a.abs().max(b.abs());
                nan_free &= ok;
            }
            let pad = mag * 1e-9;
            // NaN loads fail every cap, so a kill needs no guard; a
            // skip must not outlive a NaN (or an indeterminate bound)
            // the row would catch, so those rows are never droppable.
            let hi_safe = if nan_free { hi + pad } else { f64::INFINITY };
            let lo_safe = lo - pad;
            pending.push(Row {
                cap,
                begin,
                end: nz.len(),
                prune_hi: if hi_safe.is_nan() {
                    f64::INFINITY
                } else {
                    hi_safe
                },
                prune_lo: if lo_safe.is_nan() {
                    f64::NEG_INFINITY
                } else {
                    lo_safe
                },
            });
        }
        // A row no point can satisfy decides the whole block.
        if pending.iter().any(|r| r.prune_lo > r.cap) {
            return 0;
        }
        // Drop rows no point can violate.
        pending.retain(|r| r.prune_hi > r.cap);
        let rows = pending;

        // The block's ragged tail (at most 15 points, final block only)
        // is decided entirely scalar up front — the same k-ascending
        // accumulation, ordered comparisons and first-violation early
        // exit as `FeasibleRegion::contains` — and never enters the
        // tile machinery below.
        let raw_full = width / TILE;
        let mut live_tail = 0usize;
        'points: for p in raw_full * TILE..width {
            for &(b, base) in &lbs {
                let pass = b <= *base.add(p);
                if !pass {
                    continue 'points;
                }
            }
            for r in &rows {
                let mut acc = 0.0f64;
                for &(k, c) in &nz[r.begin..r.end] {
                    acc += c * self.batch.column(k)[start..end][p];
                }
                let pass = acc <= r.cap;
                if !pass {
                    continue 'points;
                }
            }
            live_tail += 1;
        }

        // The working set: `w_len` points, either the raw column range
        // (until the first compaction) or the survivors' coordinates in
        // `scr.work` (`slots[k]`-th column, stride `w_stride`), with
        // one live-bit word per 16-point tile in `scr.bits`. Full-tile
        // words hold bits in `mask16`'s shuffled order (only ANDed,
        // popcounted and zero-tested; unshuffled just-in-time when a
        // compaction needs positions); a partial trailing tile's word
        // (post-compaction only) is point-order and touched only by the
        // scalar tail loops.
        let mut w_len = raw_full * TILE;
        if w_len == 0 {
            return live_tail;
        }

        // Fast path for ordinary regions (every row fits one fused
        // pass): each pair of 16-point tiles runs all lower bounds and
        // all constraint rows back to back with its live words in
        // registers, abandoned the moment both words die. Dead points
        // are skipped at tile granularity without copying a coordinate
        // — what survivor compaction exists for — and two tiles per
        // iteration double the independent f64 dependency chains so
        // the multiply-add stream saturates the FP ports instead of
        // waiting out add latency.
        const FUSED_MAX: usize = 16;
        if rows.len() <= FUSED_MAX {
            let mut ptrs: Vec<(*const f64, f64)> = Vec::with_capacity(nz.len());
            let mut spans: Vec<(f64, usize, usize)> = Vec::with_capacity(rows.len());
            for r in &rows {
                let begin = ptrs.len();
                ptrs.extend(
                    nz[r.begin..r.end]
                        .iter()
                        .map(|&(k, c)| (self.batch.column(k)[start..end].as_ptr(), c)),
                );
                spans.push((r.cap, begin, ptrs.len()));
            }
            let mut live = 0usize;
            let mut g = 0usize;
            while g + 2 <= raw_full {
                let off_a = g * TILE;
                let off_b = off_a + TILE;
                let mut wa = u16::MAX;
                let mut wb = u16::MAX;
                for &(b, base) in &lbs {
                    wa &= avx2::lower_bound_bits(b, base.add(off_a));
                    wb &= avx2::lower_bound_bits(b, base.add(off_b));
                    if wa | wb == 0 {
                        break;
                    }
                }
                if wa | wb != 0 {
                    for &(cap, rb, re) in &spans {
                        let mut aa = avx2::tile_zero();
                        let mut ab = avx2::tile_zero();
                        for &(base, c) in &ptrs[rb..re] {
                            aa = avx2::tile_axpy(aa, c, base.add(off_a));
                            ab = avx2::tile_axpy(ab, c, base.add(off_b));
                        }
                        wa &= avx2::tile_cmp_le(aa, cap);
                        wb &= avx2::tile_cmp_le(ab, cap);
                        if wa | wb == 0 {
                            break;
                        }
                    }
                }
                live += (wa.count_ones() + wb.count_ones()) as usize;
                g += 2;
            }
            if g < raw_full {
                let off = g * TILE;
                let mut w = u16::MAX;
                for &(b, base) in &lbs {
                    w &= avx2::lower_bound_bits(b, base.add(off));
                    if w == 0 {
                        break;
                    }
                }
                if w != 0 {
                    for &(cap, rb, re) in &spans {
                        let mut acc = avx2::tile_zero();
                        for &(base, c) in &ptrs[rb..re] {
                            acc = avx2::tile_axpy(acc, c, base.add(off));
                        }
                        w &= avx2::tile_cmp_le(acc, cap);
                        if w == 0 {
                            break;
                        }
                    }
                }
                live += w.count_ones() as usize;
            }
            return live + live_tail;
        }

        let reset_bits = |bits: &mut Vec<u16>, len: usize| {
            bits.clear();
            bits.resize(len.div_ceil(TILE), u16::MAX);
            if len % TILE != 0 {
                if let Some(last) = bits.last_mut() {
                    *last = (1u16 << (len % TILE)) - 1;
                }
            }
        };
        reset_bits(&mut scr.bits, w_len);
        let mut live = w_len;
        let mut compacted = false;
        let mut w_stride = w_len;
        let mut slots: Vec<usize> = Vec::new();

        // Lower bounds over the raw columns, tile-major with in-tile
        // early exit.
        if !lbs.is_empty() {
            live = 0;
            for (g, word) in scr.bits.iter_mut().enumerate() {
                let mut w = *word;
                for &(b, base) in &lbs {
                    w &= avx2::lower_bound_bits(b, base.add(g * TILE));
                    if w == 0 {
                        break;
                    }
                }
                *word = w;
                live += w.count_ones() as usize;
            }
        }

        // Long regions (more rows than one fused pass should chain):
        // segments of up to `SEGMENT` rows, each one tile-major
        // streaming pass over the working set with the live words
        // persisted in `scr.bits` between segments.
        const SEGMENT: usize = 8;
        let mut ptrs: Vec<(*const f64, f64)> = Vec::new();
        let mut spans: Vec<(f64, usize, usize)> = Vec::with_capacity(SEGMENT);
        let mut i = 0;
        while i < rows.len() {
            if live == 0 {
                return live_tail;
            }
            // Between segments, compact at quarter occupancy — the
            // point where copying the columns the remaining rows still
            // read (`slots` maps column index to its slot in
            // `scr.work`) beats re-walking mostly-dead tiles that the
            // 16-point live-word granularity cannot skip. The vpermps
            // compress copies surviving bits verbatim; 4 slack slots
            // per column absorb its unconditional 4-lane stores.
            if live * 4 < w_len {
                let mut used = vec![false; self.batch.dim];
                for r in &rows[i..] {
                    for &(k, _) in &nz[r.begin..r.end] {
                        used[k] = true;
                    }
                }
                let stride = live + 4;
                let mut new_slots = vec![usize::MAX; self.batch.dim];
                let n_used = used.iter().filter(|&&u| u).count();
                // No `clear()`: the compress overwrites `[0, live)` of
                // every slot and nothing ever reads the slack, so stale
                // contents are harmless and skipping the implied memset
                // matters at per-block compaction rates.
                scr.next.resize(n_used * stride, 0.0);
                let full = w_len / TILE;
                let mut slot = 0usize;
                for (k, _) in used.iter().enumerate().filter(|(_, &u)| u) {
                    let src = if compacted {
                        scr.work.as_ptr().add(slots[k] * w_stride)
                    } else {
                        self.batch.column(k)[start..end].as_ptr()
                    };
                    let dst = scr.next.as_mut_ptr().add(slot * stride);
                    let mut w = 0usize;
                    for (g, &word) in scr.bits[..full].iter().enumerate() {
                        if word == 0 {
                            continue;
                        }
                        w += avx2::compress_tile(
                            src.add(g * TILE),
                            avx2::unshuffle16(word),
                            dst.add(w),
                        );
                    }
                    for p in full * TILE..w_len {
                        if scr.bits[p / TILE] & (1u16 << (p % TILE)) != 0 {
                            *dst.add(w) = *src.add(p);
                            w += 1;
                        }
                    }
                    debug_assert_eq!(w, live);
                    new_slots[k] = slot;
                    slot += 1;
                }
                std::mem::swap(&mut scr.work, &mut scr.next);
                compacted = true;
                w_len = live;
                w_stride = stride;
                slots = new_slots;
                reset_bits(&mut scr.bits, w_len);
            }

            // This segment's rows, with column base pointers resolved
            // once under the current working-set mapping (k ascending
            // within each row — the bit-identity order).
            let seg_end = (i + SEGMENT).min(rows.len());
            spans.clear();
            ptrs.clear();
            for r in &rows[i..seg_end] {
                let begin = ptrs.len();
                ptrs.extend(nz[r.begin..r.end].iter().map(|&(k, c)| {
                    let base = if compacted {
                        scr.work.as_ptr().add(slots[k] * w_stride)
                    } else {
                        self.batch.column(k)[start..end].as_ptr()
                    };
                    (base, c)
                }));
                spans.push((r.cap, begin, ptrs.len()));
            }

            let full = w_len / TILE;
            live = 0;
            for (g, word) in scr.bits[..full].iter_mut().enumerate() {
                let mut w = *word;
                if w == 0 {
                    continue;
                }
                let off = g * TILE;
                for &(cap, rb, re) in &spans {
                    let mut acc = avx2::tile_zero();
                    for &(base, c) in &ptrs[rb..re] {
                        acc = avx2::tile_axpy(acc, c, base.add(off));
                    }
                    w &= avx2::tile_cmp_le(acc, cap);
                    if w == 0 {
                        break;
                    }
                }
                *word = w;
                live += w.count_ones() as usize;
            }
            // Post-compaction partial tile, one point at a time (same
            // k-ascending order), bits in point order.
            for p in full * TILE..w_len {
                let word = &mut scr.bits[p / TILE];
                let bit = 1u16 << (p % TILE);
                if *word & bit == 0 {
                    continue;
                }
                let mut dead = false;
                for &(cap, rb, re) in &spans {
                    let mut acc = 0.0f64;
                    for &(base, c) in &ptrs[rb..re] {
                        acc += c * *base.add(p);
                    }
                    let pass = acc <= cap;
                    dead = !pass;
                    if dead {
                        break;
                    }
                }
                if dead {
                    *word &= !bit;
                } else {
                    live += 1;
                }
            }
            i = seg_end;
        }
        live + live_tail
    }
}

/// Reusable per-call buffers so blocked scoring allocates once per range,
/// not once per block.
#[derive(Default)]
struct Scratch {
    /// Alive flag per point of the current working set (scalar path).
    mask: Vec<bool>,
    /// Alive bits of the working set, one `u16` per 16-point tile
    /// (AVX2 path) — see `count_block_avx2` for the bit-order contract.
    bits: Vec<u16>,
    /// Compacted survivor columns (column-major, stride = live count).
    work: Vec<f64>,
    /// Target buffer for the next compaction, swapped with `work`.
    next: Vec<f64>,
    /// Nonzero `(column, coefficient)` pairs of the constraint row being
    /// scored — sparse rows then stream O(nnz) columns, not O(d).
    nz: Vec<(usize, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::qmc::HaltonSeq;
    use crate::simplex::SimplexSampler;

    fn halton_points(dim: usize, n: usize, seed: u64) -> Vec<Vector> {
        let sampler = SimplexSampler::new(&vec![1.0; dim], 1.0);
        let mut seq = HaltonSeq::shifted(dim, seed);
        (0..n)
            .map(|_| sampler.map_cube_point(&seq.next_point()))
            .collect()
    }

    fn scalar_count(points: &[Vector], region: &FeasibleRegion) -> usize {
        points.iter().filter(|p| region.contains(p)).count()
    }

    #[test]
    fn transpose_round_trips() {
        let points = halton_points(3, 257, 5);
        let batch = PointBatch::from_points(&points);
        assert_eq!(batch.num_points(), 257);
        assert_eq!(batch.dim(), 3);
        for (p, point) in points.iter().enumerate() {
            for k in 0..3 {
                assert_eq!(batch.column(k)[p].to_bits(), point[k].to_bits());
            }
        }
    }

    #[test]
    fn dot_into_is_bit_identical_to_scalar_dot() {
        let points = halton_points(4, 1_000, 9);
        let batch = PointBatch::from_points(&points);
        let coeffs = [0.3, 1.7, 0.0, 2.5];
        let mut out = vec![0.0; points.len()];
        batch.dot_into(&coeffs, &mut out);
        for (p, point) in points.iter().enumerate() {
            let scalar: f64 = coeffs
                .iter()
                .zip(point.as_slice())
                .map(|(c, x)| c * x)
                .sum();
            assert_eq!(out[p].to_bits(), scalar.to_bits(), "point {p}");
        }
    }

    #[test]
    fn kernel_count_matches_scalar_contains() {
        // Enough points that several compaction passes fire.
        let points = halton_points(3, 8329, 3);
        let kernel = FeasibilityKernel::new(&points);
        let region = FeasibleRegion::new(
            Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[0.5, 2.5, 1.0], &[1.0, 0.7, 2.0]]),
            Vector::from([0.4, 0.5, 0.45]),
        );
        assert_eq!(
            kernel.count_feasible(&region),
            scalar_count(&points, &region)
        );
    }

    #[test]
    fn kernel_respects_lower_bounds() {
        let points = halton_points(2, 5_000, 7);
        let kernel = FeasibilityKernel::new(&points);
        let region = FeasibleRegion::with_lower_bound(
            Matrix::from_rows(&[&[1.0, 1.0]]),
            Vector::from([0.8]),
            Vector::from([0.05, 0.1]),
        );
        let expected = scalar_count(&points, &region);
        assert!(expected > 0, "degenerate test instance");
        assert_eq!(kernel.count_feasible(&region), expected);
    }

    #[test]
    fn range_counts_partition_the_total() {
        let points = halton_points(3, 10_000, 11);
        let kernel = FeasibilityKernel::new(&points);
        let region = FeasibleRegion::new(
            Matrix::from_rows(&[&[1.5, 0.5, 1.0], &[0.5, 1.5, 1.0]]),
            Vector::from([0.45, 0.45]),
        );
        let total = kernel.count_feasible(&region);
        for splits in [2usize, 3, 7] {
            let chunk = points.len().div_ceil(splits);
            let mut sum = 0;
            let mut s = 0;
            while s < points.len() {
                let e = (s + chunk).min(points.len());
                sum += kernel.count_feasible_range(&region, s, e);
                s = e;
            }
            assert_eq!(sum, total, "splits = {splits}");
        }
    }

    #[test]
    fn empty_batch_counts_zero() {
        let kernel = FeasibilityKernel::new(&[]);
        assert_eq!(kernel.batch().num_points(), 0);
    }

    #[test]
    fn sparse_constraint_rows_count_bit_identically() {
        // Rows with mostly-zero columns exercise the zero-column skip;
        // the scalar walk (which never skips) is the reference.
        let points = halton_points(6, 6_000, 13);
        let kernel = FeasibilityKernel::new(&points);
        let region = FeasibleRegion::new(
            Matrix::from_rows(&[
                &[2.0, 0.0, 0.0, 0.0, 0.0, 1.5],
                &[0.0, 0.0, 3.0, 0.0, 0.0, 0.0],
                &[0.0, 1.0, 0.0, 0.0, 2.5, 0.0],
                &[0.0, 0.0, 0.0, 4.0, 0.0, 0.0],
            ]),
            Vector::from([0.3, 0.25, 0.3, 0.28]),
        );
        assert_eq!(
            kernel.count_feasible(&region),
            scalar_count(&points, &region)
        );
    }

    #[test]
    fn long_row_lists_count_bit_identically() {
        // More rows than one fused pass chains (24 > FUSED_MAX), so the
        // segmented passes run, with survivor compaction firing as
        // occupancy decays across segments; the scalar walk is the
        // reference. 7000 points also leaves an odd tile count and a
        // ragged block tail.
        let points = halton_points(5, 7_000, 19);
        let kernel = FeasibilityKernel::new(&points);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..24 {
            let mut r = vec![0.0; 5];
            r[i % 5] = 1.1 + 0.07 * (i % 4) as f64;
            r[(i + 2) % 5] = 0.6;
            rows.push(r);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let region = FeasibleRegion::new(Matrix::from_rows(&row_refs), Vector::from(vec![0.5; 24]));
        let expected = scalar_count(&points, &region);
        assert_eq!(kernel.count_feasible(&region), expected);
        // The forced-scalar kernel agrees too (three-way equality).
        let forced = FeasibilityKernel::new_force_scalar(&points);
        assert_eq!(forced.count_feasible(&region), expected);
    }

    #[test]
    fn dot_into_skips_zero_coefficients_exactly() {
        let points = halton_points(5, 800, 17);
        let batch = PointBatch::from_points(&points);
        let sparse = [0.0, 2.5, 0.0, 0.0, 1.1];
        let mut out = vec![0.0; points.len()];
        batch.dot_into(&sparse, &mut out);
        for (p, point) in points.iter().enumerate() {
            let scalar: f64 = sparse
                .iter()
                .zip(point.as_slice())
                .map(|(c, x)| c * x)
                .sum();
            assert_eq!(out[p].to_bits(), scalar.to_bits(), "point {p}");
        }
    }
}
