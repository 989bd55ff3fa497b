//! The O(1) exclusion checks of the pruned Phase-2 walk
//! ([`crate::rod`]), judged a block of nodes at a time.
//!
//! The Class-I prefilter, the plane check and the pre-bound read only
//! five per-node arrays of the evaluator ([`NodeColumns`]) and a few
//! per-step constants ([`ExclusionGate`]), so one pass can judge
//! [`BLOCK`] nodes at once. [`NodeColumns::next_live_block`] walks a span
//! of nodes block by block and stops at the first block holding a node
//! that no check excludes and the walk has not struck off; a block with
//! none is skipped whole. A span's short last block is handed back
//! unjudged, for the walk to judge node by node.
//!
//! The AVX2 path judges four nodes per instruction with the scalar
//! twin's float operations: multiply then add (never FMA), and
//! ordered-quiet compares, which like the scalar `<=` and `>=` are false
//! on NaN. So its verdict is [`NodeColumns::excludes`]'s, bit for bit.
//! The path is chosen by [`rod_geom::simd::select_path`]: AVX2 where
//! the host has it, the scalar twin otherwise and under `ROD_NO_SIMD=1`.

use std::ops::Range;

use rod_geom::KernelPath;

use super::UNDERFLOW_FLOOR;

/// Nodes per block of the walk: two 4-lane AVX2 vectors.
pub(crate) const BLOCK: usize = 8;

/// The per-step inputs of the O(1) exclusion checks: the operator's
/// [`bound_input`](super::IncrementalPlanEval::bound_input) and the walk's
/// two incumbents as they stand.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExclusionGate {
    /// `Σ (l^o_jk / l_k)²` of the step's operator.
    pub(crate) q: f64,
    /// The Class-I rule is on (`RodOptions::use_class_one`).
    pub(crate) class_one: bool,
    /// A Class-I incumbent exists, so a node that cannot be Class I is
    /// out.
    pub(crate) class_one_closed: bool,
    /// `[distance threshold, squared-norm floor]` that a node which may
    /// still be Class I must beat: the Class-I incumbent's, or NaN, which
    /// excludes nothing, while there is none.
    pub(crate) class_one_bar: [f64; 2],
    /// The same for any other node: the Class-II fallback incumbent's.
    pub(crate) fallback_bar: [f64; 2],
}

/// The evaluator's per-node arrays that the exclusion checks read, one
/// entry per node (see [`super::IncrementalPlanEval`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeColumns<'a> {
    pub(super) max_w: &'a [f64],
    pub(super) plane: &'a [f64],
    pub(super) sumsq: &'a [f64],
    pub(super) inv_rel_sq: &'a [f64],
    pub(super) negative_cells: &'a [u32],
    /// The evaluator's relative rounding margin of the bounds.
    pub(super) margin: f64,
}

/// Bits `off .. off + BLOCK` of `bits` (bit `b` of word `b / 64` is
/// position `b`), as the low byte. `off` is a multiple of [`BLOCK`], so
/// the byte never straddles two words.
fn block_bits(bits: &[u64], off: usize) -> u64 {
    (bits[off / 64] >> (off % 64)) & 0xff
}

impl NodeColumns<'_> {
    /// The number of nodes every column covers.
    fn len(&self) -> usize {
        (self.max_w.len().min(self.plane.len()))
            .min(self.sumsq.len().min(self.inv_rel_sq.len()))
            .min(self.negative_cells.len())
    }

    /// The pre-bound of node `i` for an operator whose `bound_input` is
    /// `q`: the candidate's squared-norm estimate less its rounding
    /// margin (DESIGN.md §10).
    pub(super) fn pre_bound(&self, q: f64, i: usize) -> f64 {
        let estimate = self.sumsq[i] + q * self.inv_rel_sq[i];
        estimate - self.margin * (estimate + UNDERFLOW_FLOOR)
    }

    /// True when node `i` cannot change the step's result by the O(1)
    /// checks: the Class-I prefilter (a node with a weight above
    /// `1 + 1e-12` once a Class-I incumbent exists), then, on a node
    /// with no negative load cell, the plane check and the pre-bound
    /// against the incumbent the node could join. The scalar twin of the
    /// AVX2 path.
    pub(crate) fn excludes(&self, i: usize, g: &ExclusionGate) -> bool {
        let possibly_c1 = g.class_one && self.max_w[i] <= 1.0 + 1e-12;
        if g.class_one_closed && !possibly_c1 {
            return true;
        }
        if self.negative_cells[i] != 0 {
            return false;
        }
        let [threshold, floor] = if possibly_c1 {
            g.class_one_bar
        } else {
            g.fallback_bar
        };
        self.plane[i] <= threshold || self.pre_bound(g.q, i) >= floor
    }

    /// Scans `span` from node `from` (the start of one of its blocks of
    /// [`BLOCK`]) for the first whole block holding a *live* node: one
    /// that [`excludes`](Self::excludes) passes against `gate` and whose
    /// bit in `skip` is clear (bit `b` is node `span.start + b`). Returns
    /// the block's first node and its live nodes as bits (bit `b` is node
    /// `base + b`); `skipped` counts the whole blocks passed over. Past
    /// the whole blocks it returns the span's short last block, if any,
    /// with the bits of its nodes not struck off in `skip`, unjudged: a
    /// block that short costs more to judge ahead than node by node.
    /// `None` past the span.
    pub(crate) fn next_live_block(
        &self,
        span: &Range<usize>,
        from: usize,
        gate: &ExclusionGate,
        skip: &[u64],
        path: KernelPath,
        skipped: &mut u64,
    ) -> Option<(usize, u64)> {
        let mut base = from;
        if base + BLOCK <= span.end {
            match self.whole_blocks(span, base, gate, skip, path, skipped) {
                Ok(found) => return Some(found),
                Err(tail) => base = tail,
            }
        }
        (base < span.end).then(|| {
            let tail = (1 << (span.end - base)) - 1;
            (base, !block_bits(skip, base - span.start) & tail)
        })
    }

    /// [`Self::next_live_block`] over the span's whole blocks from
    /// `from`: `Ok` with the first one holding a live node, else `Err`
    /// with the first node past them. Out of line because a span shorter
    /// than a block never runs it, and inlined it made the walk's machine
    /// code half as large again, which cold calls on small clusters pay.
    #[inline(never)]
    fn whole_blocks(
        &self,
        span: &Range<usize>,
        from: usize,
        gate: &ExclusionGate,
        skip: &[u64],
        path: KernelPath,
        skipped: &mut u64,
    ) -> Result<(usize, u64), usize> {
        let mut base = from;
        #[cfg(target_arch = "x86_64")]
        if path == KernelPath::Simd && span.end <= self.len() && rod_geom::simd::simd_supported() {
            // SAFETY: AVX2 was detected, and the scan reads whole blocks
            // below `span.end`, which every column covers.
            match unsafe { avx2::scan(self, gate, span, base, skip, skipped) } {
                Ok(found) => return Ok(found),
                Err(tail) => base = tail,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = path;
        while base + BLOCK <= span.end {
            let mut live = !block_bits(skip, base - span.start) & 0xff;
            let mut bits = live;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.excludes(base + b, gate) {
                    live &= !(1 << b);
                }
            }
            if live != 0 {
                return Ok((base, live));
            }
            *skipped += 1;
            base += BLOCK;
        }
        Err(base)
    }
}

/// The 4-lane AVX2 predicate. `unsafe` twice over: the caller must have
/// verified AVX2 support, and every node a call reads must exist in
/// every column.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;
    use std::ops::Range;

    use super::{block_bits, ExclusionGate, NodeColumns, BLOCK, UNDERFLOW_FLOOR};

    /// The gate's constants, broadcast once per scan.
    pub(super) struct Lanes {
        tol: __m256d,
        class_one: __m256d,
        closed: __m256d,
        c1_threshold: __m256d,
        c1_floor: __m256d,
        fallback_threshold: __m256d,
        fallback_floor: __m256d,
        q: __m256d,
        margin: __m256d,
        underflow: __m256d,
    }

    /// All lanes set when `on`, else all clear.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes_if(on: bool) -> __m256d {
        _mm256_castsi256_pd(_mm256_set1_epi64x(-(on as i64)))
    }

    impl Lanes {
        /// # Safety
        /// AVX2 must be available.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn new(g: &ExclusionGate, margin: f64) -> Lanes {
            Lanes {
                tol: _mm256_set1_pd(1.0 + 1e-12),
                class_one: lanes_if(g.class_one),
                closed: lanes_if(g.class_one_closed),
                c1_threshold: _mm256_set1_pd(g.class_one_bar[0]),
                c1_floor: _mm256_set1_pd(g.class_one_bar[1]),
                fallback_threshold: _mm256_set1_pd(g.fallback_bar[0]),
                fallback_floor: _mm256_set1_pd(g.fallback_bar[1]),
                q: _mm256_set1_pd(g.q),
                margin: _mm256_set1_pd(margin),
                underflow: _mm256_set1_pd(UNDERFLOW_FLOOR),
            }
        }
    }

    /// Entries `i .. i + 4` of `col`.
    ///
    /// # Safety
    /// AVX2 must be available and the entries must exist.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(col: &[f64], i: usize) -> __m256d {
        _mm256_loadu_pd(col.as_ptr().add(i))
    }

    /// [`NodeColumns::excludes`] of nodes `i .. i + 4`, as bits (bit `b`
    /// is node `i + b`): the same float operations in the same order,
    /// four lanes at a time.
    ///
    /// # Safety
    /// AVX2 must be available and nodes `i .. i + 4` must exist.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn excluded4(c: &NodeColumns<'_>, l: &Lanes, i: usize) -> u64 {
        let possibly_c1 = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(load(c.max_w, i), l.tol),
            l.class_one,
        );
        let by_prefilter = _mm256_andnot_pd(possibly_c1, l.closed);
        let negative = _mm_loadu_si128(c.negative_cells.as_ptr().add(i) as *const __m128i);
        let bounded = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_cmpeq_epi32(
            negative,
            _mm_setzero_si128(),
        )));
        let threshold = _mm256_blendv_pd(l.fallback_threshold, l.c1_threshold, possibly_c1);
        let floor = _mm256_blendv_pd(l.fallback_floor, l.c1_floor, possibly_c1);
        let estimate = _mm256_add_pd(load(c.sumsq, i), _mm256_mul_pd(l.q, load(c.inv_rel_sq, i)));
        let pre = _mm256_sub_pd(
            estimate,
            _mm256_mul_pd(l.margin, _mm256_add_pd(estimate, l.underflow)),
        );
        let by_bound = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(load(c.plane, i), threshold),
            _mm256_cmp_pd::<_CMP_GE_OQ>(pre, floor),
        );
        let excluded = _mm256_or_pd(by_prefilter, _mm256_and_pd(bounded, by_bound));
        _mm256_movemask_pd(excluded) as u64
    }

    /// [`NodeColumns::excludes`] of the [`BLOCK`] nodes from `i`, as bits.
    ///
    /// # Safety
    /// AVX2 must be available and nodes `i .. i + BLOCK` must exist.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn excluded_block(c: &NodeColumns<'_>, l: &Lanes, i: usize) -> u64 {
        excluded4(c, l, i) | excluded4(c, l, i + 4) << 4
    }

    /// [`NodeColumns::next_live_block`] over the whole blocks of `span`
    /// from `from`: `Ok` with the first block holding a live node, or
    /// `Err` with the first node of the span's short last block (or its
    /// end), which the scalar twin takes over.
    ///
    /// # Safety
    /// AVX2 must be available and every node of `span` must exist.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan(
        c: &NodeColumns<'_>,
        g: &ExclusionGate,
        span: &Range<usize>,
        from: usize,
        skip: &[u64],
        skipped: &mut u64,
    ) -> Result<(usize, u64), usize> {
        let lanes = Lanes::new(g, c.margin);
        let mut base = from;
        while base + BLOCK <= span.end {
            let dead = excluded_block(c, &lanes, base) | block_bits(skip, base - span.start);
            if dead != 0xff {
                return Ok((base, !dead & 0xff));
            }
            *skipped += 1;
            base += BLOCK;
        }
        Err(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A node state as the proptest draws it.
    #[derive(Clone, Debug)]
    struct Nodes {
        max_w: Vec<f64>,
        plane: Vec<f64>,
        sumsq: Vec<f64>,
        inv_rel_sq: Vec<f64>,
        negative_cells: Vec<u32>,
    }

    impl Nodes {
        fn columns(&self, margin: f64) -> NodeColumns<'_> {
            NodeColumns {
                max_w: &self.max_w,
                plane: &self.plane,
                sumsq: &self.sumsq,
                inv_rel_sq: &self.inv_rel_sq,
                negative_cells: &self.negative_cells,
                margin,
            }
        }
    }

    const TOL: f64 = 1.0 + 1e-12;

    /// Floats that sit on or next to a boundary of some check, plus
    /// ordinary values.
    fn value() -> impl Strategy<Value = f64> {
        (0u8..11, 0.0f64..4.0, -300i32..300).prop_map(|(kind, x, e)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => TOL,
            3 => f64::from_bits(TOL.to_bits() + 1),
            4 => f64::from_bits(TOL.to_bits() - 1),
            5 => f64::NAN,
            6 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            8 => f64::MIN_POSITIVE,
            9 => x,
            _ => x * 10f64.powi(e),
        })
    }

    /// `n` nodes, some unloaded (every array at its empty-node value) and
    /// some holding a negative cell.
    fn nodes(n: usize) -> impl Strategy<Value = Nodes> {
        prop::collection::vec(((value(), value()), (value(), value()), 0u32..3, 0u8..4), n)
            .prop_map(|rows| {
                let mut s = Nodes {
                    max_w: Vec::new(),
                    plane: Vec::new(),
                    sumsq: Vec::new(),
                    inv_rel_sq: Vec::new(),
                    negative_cells: Vec::new(),
                };
                for ((max_w, plane), (sumsq, inv), negative, kind) in rows {
                    let unloaded = kind == 0;
                    s.max_w.push(if unloaded { 0.0 } else { max_w });
                    s.plane.push(if unloaded { f64::INFINITY } else { plane });
                    s.sumsq.push(if unloaded { 0.0 } else { sumsq });
                    s.inv_rel_sq.push(inv);
                    s.negative_cells
                        .push(if kind == 1 { negative + 1 } else { 0 });
                }
                s
            })
    }

    /// A bar: none (NaN), ±inf, an ordinary value, or exactly some node's
    /// plane distance or pre-bound (resolved against the state).
    fn bar() -> impl Strategy<Value = (u8, f64, usize)> {
        (0u8..6, value(), 0usize..64)
    }

    fn resolve(pick: (u8, f64, usize), nodes: &NodeColumns<'_>, q: f64, floor: bool) -> f64 {
        let (kind, v, at) = pick;
        let at = at % nodes.plane.len();
        match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 if floor => nodes.pre_bound(q, at),
            3 => nodes.plane[at],
            _ => v,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The AVX2 predicate against its scalar twin, node by node, over
        /// states with NaN and ±inf values and bars, values exactly at a
        /// threshold, negative cells, unloaded nodes, the Class-I rule
        /// off, and no incumbent.
        #[test]
        fn avx2_predicate_matches_the_scalar_twin_lane_by_lane(
            state in nodes(24),
            q in value(),
            flags in (0u8..2, 0u8..2),
            c1 in (bar(), bar()),
            fallback in (bar(), bar()),
            margin_pick in 0u8..2,
        ) {
            let (class_one, closed) = (flags.0 == 1, flags.1 == 1);
            let margin = [0.0, (3.0 * 64.0 + 32.0) * (f64::EPSILON / 2.0)][margin_pick as usize];
            if !rod_geom::simd::simd_supported() {
                return Ok(());
            }
            let columns = state.columns(margin);
            let gate = ExclusionGate {
                q,
                class_one,
                class_one_closed: closed,
                class_one_bar: [
                    resolve(c1.0, &columns, q, false),
                    resolve(c1.1, &columns, q, true),
                ],
                fallback_bar: [
                    resolve(fallback.0, &columns, q, false),
                    resolve(fallback.1, &columns, q, true),
                ],
            };
            for base in 0..=(24 - BLOCK) {
                // SAFETY: AVX2 was detected and the block is in range.
                let simd = unsafe {
                    avx2::excluded_block(&columns, &avx2::Lanes::new(&gate, margin), base)
                };
                for b in 0..BLOCK {
                    prop_assert_eq!(
                        simd >> b & 1 == 1,
                        columns.excludes(base + b, &gate),
                        "node {}", base + b
                    );
                }
            }
        }

        /// Both paths of the scan find the same live blocks and skip the
        /// same number, over spans of every length and offset (so every
        /// length of a short last block), with struck-off nodes.
        #[test]
        fn both_paths_scan_the_same_blocks(
            state in nodes(40),
            q in value(),
            flags in (0u8..2, 0u8..2),
            c1 in (bar(), bar()),
            fallback in (bar(), bar()),
            start in 0usize..40,
            len in 1usize..40,
            skip in 0u64..u64::MAX,
        ) {
            let (class_one, closed) = (flags.0 == 1, flags.1 == 1);
            let columns = state.columns(1e-13);
            let gate = ExclusionGate {
                q,
                class_one,
                class_one_closed: closed,
                class_one_bar: [
                    resolve(c1.0, &columns, q, false),
                    resolve(c1.1, &columns, q, true),
                ],
                fallback_bar: [
                    resolve(fallback.0, &columns, q, false),
                    resolve(fallback.1, &columns, q, true),
                ],
            };
            let span = start..(start + len).min(40);
            let walk = |path: KernelPath| {
                let (mut blocks, mut skipped, mut from) = (Vec::new(), 0u64, span.start);
                while let Some((base, live)) =
                    columns.next_live_block(&span, from, &gate, &[skip], path, &mut skipped)
                {
                    blocks.push((base, live));
                    from = base + BLOCK;
                }
                (blocks, skipped)
            };
            let (blocks, skipped) = walk(KernelPath::Scalar);
            // The definition: a node of a whole block is live when it is
            // neither struck off nor excluded; the nodes of the short
            // last block are returned when not struck off.
            let mut want = Vec::new();
            for base in span.clone().step_by(BLOCK) {
                let whole = base + BLOCK <= span.end;
                let mut live = 0u64;
                for i in base..(base + BLOCK).min(span.end) {
                    let struck = skip >> (i - span.start) & 1 == 1;
                    if !struck && (!whole || !columns.excludes(i, &gate)) {
                        live |= 1 << (i - base);
                    }
                }
                if live != 0 || !whole {
                    want.push((base, live));
                }
            }
            prop_assert_eq!(&blocks, &want);
            let whole_blocks = (span.len() / BLOCK) as u64;
            let short = (span.len() % BLOCK != 0) as u64;
            prop_assert_eq!(skipped + want.len() as u64, whole_blocks + short);
            if rod_geom::simd::simd_supported() {
                prop_assert_eq!(walk(KernelPath::Simd), (blocks, skipped));
            }
        }
    }
}
