//! Data-parallel rules and the static analyses that map them to OpenCL.
//!
//! A [`StencilRule`] is the paper's elementwise rule (`Out.cell(x,y) from
//! (In.region(...))`): for every output cell it reads declared regions of
//! its inputs and computes one value. The declared [`AccessPattern`] drives
//! the three compiler phases of §3.1:
//!
//! 1. **dependency analysis** — [`opencl_mappability`]: sequential and
//!    data-parallel patterns map to OpenCL kernels; wavefront and
//!    loop-carried patterns are rejected (as in the paper's implementation);
//! 2. **code conversion** — `petal_core::codegen` turns accepted rules into
//!    kernel source + functional bodies;
//! 3. **local-memory synthesis** — [`local_memory_applicable`]: when the
//!    bounding box is a constant region larger than one cell, a scratchpad
//!    variant with a cooperative load phase is generated as an additional
//!    choice.

use std::fmt;
use std::sync::Arc;

/// How a rule's output cell depends on an input matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// `out[y][x]` reads `in[y][x]` only (bounding box 1×1).
    Point,
    /// `out[y][x]` reads the `w × h` box anchored at `(x, y)`
    /// (e.g. convolution; bounding box constant and > 1).
    Stencil {
        /// Box width (columns).
        w: usize,
        /// Box height (rows).
        h: usize,
    },
    /// `out[y][x]` reads all of row `y` (e.g. the A operand of matmul).
    Row,
    /// `out[y][x]` reads all of column `x` (e.g. the B operand of matmul).
    Column,
    /// Arbitrary affine gathers (e.g. the XOR-partner reads of bitonic
    /// sort). Mappable to OpenCL, but no local-memory variant.
    Gather,
    /// Every output cell reads the whole (small) input — broadcast data
    /// such as convolution coefficients. Staged wholesale into local memory
    /// when another input triggers the scratchpad variant.
    All,
    /// Whole-input access with a loop-carried dependency (e.g. a forward
    /// sweep). Not data parallel.
    Sequential,
    /// Diagonal wavefront dependencies — "more complex parallel patterns,
    /// such as wavefront parallelism, can not be \[mapped\] in our current
    /// implementation" (§3.1).
    Wavefront,
}

impl AccessPattern {
    /// Input elements read per output cell, given the input width `in_w`
    /// and height `in_h` (for whole-row/column patterns).
    #[must_use]
    pub fn reads_per_output(&self, in_w: usize, in_h: usize) -> f64 {
        match self {
            AccessPattern::Point => 1.0,
            AccessPattern::Stencil { w, h } => (w * h) as f64,
            AccessPattern::Row => in_w as f64,
            AccessPattern::Column => in_h as f64,
            AccessPattern::Gather => 2.0,
            AccessPattern::All => (in_w * in_h) as f64,
            AccessPattern::Sequential | AccessPattern::Wavefront => (in_w * in_h) as f64,
        }
    }

    /// The constant bounding box `(w, h)` of this access, when one exists.
    #[must_use]
    pub fn bounding_box(&self) -> Option<(usize, usize)> {
        match self {
            AccessPattern::Point => Some((1, 1)),
            AccessPattern::Stencil { w, h } => Some((*w, *h)),
            _ => None,
        }
    }
}

/// Why a rule cannot be converted to an OpenCL kernel (phase 1/2 rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenClReject {
    /// The dependency analysis found a loop-carried (sequential-within-rule)
    /// dependency.
    SequentialDependency,
    /// Wavefront parallelism is not supported by the current conversion.
    WavefrontDependency,
    /// The rule body contains constructs with no OpenCL equivalent (inline
    /// native code, external library calls — §3.1 phase 2).
    NativeConstruct,
}

impl fmt::Display for OpenClReject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenClReject::SequentialDependency => write!(f, "loop-carried dependency"),
            OpenClReject::WavefrontDependency => write!(f, "wavefront parallelism unsupported"),
            OpenClReject::NativeConstruct => write!(f, "body contains native-only constructs"),
        }
    }
}

/// Phase-1 dependency analysis: can this rule's iteration pattern execute
/// under the OpenCL model?
///
/// # Errors
/// The reason for rejection, mirroring §3.1.
pub fn opencl_mappability(inputs: &[StencilInput]) -> Result<(), OpenClReject> {
    for i in inputs {
        match i.access {
            AccessPattern::Sequential => return Err(OpenClReject::SequentialDependency),
            AccessPattern::Wavefront => return Err(OpenClReject::WavefrontDependency),
            _ => {}
        }
    }
    Ok(())
}

/// Phase-3 analysis: a local-memory (scratchpad) variant exists exactly when
/// some input's bounding box is a constant region larger than one cell —
/// "if the size of the bounding box is one, there is no need to copy the
/// data into local memory" (§3.1).
#[must_use]
pub fn local_memory_applicable(inputs: &[StencilInput]) -> bool {
    inputs.iter().any(|i| match i.access.bounding_box() {
        Some((w, h)) => w * h > 1,
        None => false,
    })
}

/// One declared input of a stencil rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilInput {
    /// Position in the invocation's input-matrix list.
    pub index: usize,
    /// Declared access pattern.
    pub access: AccessPattern,
}

/// Read-only view over an input during functional kernel execution.
///
/// A `Full` view exposes the entire matrix; a `Tile` view exposes only the
/// staged scratchpad region and *panics on out-of-tile access* — which makes
/// the generated cooperative-load bounds an executable assertion.
#[derive(Debug)]
pub enum View<'a> {
    /// Whole-matrix access (global-memory variant).
    Full {
        /// Row-major data.
        data: &'a [f64],
        /// Columns.
        cols: usize,
        /// Rows.
        rows: usize,
    },
    /// Scratchpad tile staged by the cooperative load phase.
    Tile {
        /// Tile contents (row-major, tile-local).
        data: Vec<f64>,
        /// Global column of tile element (0,0).
        x0: usize,
        /// Global row of tile element (0,0).
        y0: usize,
        /// Tile columns.
        cols: usize,
        /// Tile rows.
        rows: usize,
    },
}

impl View<'_> {
    /// Read the element at *global* coordinates `(x, y)`.
    ///
    /// # Panics
    /// Panics when the coordinate lies outside the view — for tiles this
    /// means the rule body read outside its declared bounding box.
    #[must_use]
    pub fn at(&self, x: usize, y: usize) -> f64 {
        match self {
            View::Full { data, cols, rows } => {
                assert!(x < *cols && y < *rows, "read ({x},{y}) outside {cols}x{rows} input");
                data[y * cols + x]
            }
            View::Tile { data, x0, y0, cols, rows } => {
                assert!(
                    x >= *x0 && y >= *y0 && x - x0 < *cols && y - y0 < *rows,
                    "read ({x},{y}) outside staged tile [{x0}..{},{y0}..{}) — \
                     rule body violates its declared bounding box",
                    x0 + cols,
                    y0 + rows
                );
                data[(y - y0) * cols + (x - x0)]
            }
        }
    }

    /// Borrow the `len` elements of row `y` starting at *global* column
    /// `x` — the row-body counterpart of [`View::at`], bounds-checked once
    /// per span instead of once per element.
    ///
    /// # Panics
    /// Panics when any element of the span lies outside the view — for
    /// tiles this means the rule body read outside its declared bounding
    /// box, exactly as [`View::at`] reports it.
    #[must_use]
    pub fn row(&self, x: usize, y: usize, len: usize) -> &[f64] {
        match self {
            View::Full { data, cols, rows } => {
                assert!(
                    y < *rows && x <= *cols && len <= cols - x,
                    "read row span ({x}..{},{y}) outside {cols}x{rows} input",
                    x + len
                );
                &data[y * cols + x..][..len]
            }
            View::Tile { data, x0, y0, cols, rows } => {
                assert!(
                    x >= *x0
                        && y >= *y0
                        && y - y0 < *rows
                        && x - x0 <= *cols
                        && len <= cols - (x - x0),
                    "read row span ({x}..{},{y}) outside staged tile [{x0}..{},{y0}..{}) — \
                     rule body violates its declared bounding box",
                    x + len,
                    x0 + cols,
                    y0 + rows
                );
                &data[(y - y0) * cols + (x - x0)..][..len]
            }
        }
    }

    /// Width of the underlying *global* input (for Row/Column loops).
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            View::Full { cols, .. } | View::Tile { cols, .. } => *cols,
        }
    }

    /// Height of the underlying *global* input.
    #[must_use]
    pub fn height(&self) -> usize {
        match self {
            View::Full { rows, .. } | View::Tile { rows, .. } => *rows,
        }
    }
}

/// Environment handed to a rule body for one output cell.
#[derive(Debug)]
pub struct StencilEnv<'a> {
    /// One view per declared input, in declaration order.
    pub inputs: &'a [View<'a>],
    /// Scalar parameters (kernel widths, sizes, constants).
    pub scalars: &'a [f64],
}

/// Rule body: computes the value of output cell `(x, y)`.
pub type ElemFn = Arc<dyn Fn(&StencilEnv<'_>, usize, usize) -> f64 + Send + Sync>;

/// Row body: computes output cells `[x0, x0 + out.len())` of row `y` into
/// `out`, called as `row(env, x0, y, out)`.
///
/// The contract that lets the executors call it in place of
/// [`StencilRule::elem`]:
///
/// * **Same numerics.** Each cell's value comes from exactly the per-cell
///   arithmetic of `elem`, in the same accumulation order (the same
///   association of products, the same `.sum()` fold), so the output is
///   bit-identical. Only the loop structure around the cells may change.
/// * **Same reads.** Inputs are read only through [`View::row`] and
///   [`View::at`], so a tiled (scratchpad) launch still panics when the
///   body reaches outside its declared bounding box.
/// * **`elem` stays the oracle.** Every rule must define `elem`; the row
///   body is an optional specialization checked bit-for-bit against it.
pub type RowFn = Arc<dyn Fn(&StencilEnv<'_>, usize, usize, &mut [f64]) + Send + Sync>;

/// A data-parallel rule (the paper's elementwise `Rule`).
#[derive(Clone)]
pub struct StencilRule {
    /// Rule name (becomes the kernel entry point).
    pub name: String,
    /// Declared inputs with access patterns.
    pub inputs: Vec<StencilInput>,
    /// Arithmetic per output cell, for the cost model.
    pub flops_per_output: f64,
    /// The C body emitted into generated OpenCL source. Written against the
    /// `INk(x, y)` macros and assigning `result` (see `codegen`).
    pub body_c: String,
    /// Functional implementation, semantically identical to `body_c`.
    pub elem: ElemFn,
    /// Optional row-slice specialization of `elem` (see [`RowFn`] for the
    /// contract). When present, `codegen::run_global` and
    /// `codegen::run_tiled` call it once per output row (or tile row)
    /// instead of calling `elem` once per cell; when `None` they fall back
    /// to `elem`. It never affects virtual time: charges come from the
    /// launch geometry, not from how the host computes the cells.
    pub row: Option<RowFn>,
    /// True when the body contains constructs OpenCL cannot express
    /// (phase-2 rejection even if the pattern is data parallel).
    pub native_only_body: bool,
}

impl fmt::Debug for StencilRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StencilRule")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("flops_per_output", &self.flops_per_output)
            .field("native_only_body", &self.native_only_body)
            .finish_non_exhaustive()
    }
}

impl StencilRule {
    /// Full mappability verdict (phases 1 and 2 of §3.1).
    ///
    /// # Errors
    /// The first rejection encountered.
    pub fn opencl_verdict(&self) -> Result<(), OpenClReject> {
        opencl_mappability(&self.inputs)?;
        if self.native_only_body {
            return Err(OpenClReject::NativeConstruct);
        }
        Ok(())
    }

    /// Whether the scratchpad variant can be synthesized (phase 3).
    #[must_use]
    pub fn has_local_memory_variant(&self) -> bool {
        self.opencl_verdict().is_ok() && local_memory_applicable(&self.inputs)
    }

    /// Union bounding box over all inputs that have one, `(w, h)`.
    #[must_use]
    pub fn union_bounding_box(&self) -> (usize, usize) {
        let mut bw = 1;
        let mut bh = 1;
        for i in &self.inputs {
            if let Some((w, h)) = i.access.bounding_box() {
                bw = bw.max(w);
                bh = bh.max(h);
            }
        }
        (bw, bh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(patterns: &[AccessPattern], native: bool) -> StencilRule {
        StencilRule {
            name: "t".into(),
            inputs: patterns
                .iter()
                .enumerate()
                .map(|(i, &access)| StencilInput { index: i, access })
                .collect(),
            flops_per_output: 1.0,
            body_c: "result = 0.0;".into(),
            elem: Arc::new(|_, _, _| 0.0),
            row: None,
            native_only_body: native,
        }
    }

    #[test]
    fn data_parallel_patterns_map_to_opencl() {
        for p in [
            AccessPattern::Point,
            AccessPattern::Stencil { w: 5, h: 5 },
            AccessPattern::Row,
            AccessPattern::Column,
            AccessPattern::Gather,
        ] {
            assert!(rule(&[p], false).opencl_verdict().is_ok(), "{p:?}");
        }
    }

    #[test]
    fn sequential_and_wavefront_are_rejected() {
        assert_eq!(
            rule(&[AccessPattern::Sequential], false).opencl_verdict(),
            Err(OpenClReject::SequentialDependency)
        );
        assert_eq!(
            rule(&[AccessPattern::Wavefront], false).opencl_verdict(),
            Err(OpenClReject::WavefrontDependency)
        );
    }

    #[test]
    fn native_bodies_are_rejected_in_phase_two() {
        assert_eq!(
            rule(&[AccessPattern::Point], true).opencl_verdict(),
            Err(OpenClReject::NativeConstruct)
        );
    }

    #[test]
    fn local_memory_needs_bounding_box_greater_than_one() {
        assert!(!rule(&[AccessPattern::Point], false).has_local_memory_variant());
        assert!(rule(&[AccessPattern::Stencil { w: 3, h: 1 }], false).has_local_memory_variant());
        assert!(!rule(&[AccessPattern::Row], false).has_local_memory_variant());
        assert!(!rule(&[AccessPattern::Gather], false).has_local_memory_variant());
        // A 1x1 "stencil" is a point: no staging either.
        assert!(!rule(&[AccessPattern::Stencil { w: 1, h: 1 }], false).has_local_memory_variant());
    }

    #[test]
    fn union_bounding_box_covers_all_inputs() {
        let r = rule(
            &[AccessPattern::Stencil { w: 3, h: 1 }, AccessPattern::Stencil { w: 1, h: 7 }],
            false,
        );
        assert_eq!(r.union_bounding_box(), (3, 7));
    }

    #[test]
    fn reads_per_output_by_pattern() {
        assert_eq!(AccessPattern::Point.reads_per_output(10, 10), 1.0);
        assert_eq!(AccessPattern::Stencil { w: 3, h: 3 }.reads_per_output(10, 10), 9.0);
        assert_eq!(AccessPattern::Row.reads_per_output(10, 20), 10.0);
        assert_eq!(AccessPattern::Column.reads_per_output(10, 20), 20.0);
    }

    #[test]
    fn tile_view_panics_outside_bounding_box() {
        let v = View::Tile { data: vec![0.0; 4], x0: 2, y0: 2, cols: 2, rows: 2 };
        assert_eq!(v.at(3, 3), 0.0);
        let r = std::panic::catch_unwind(|| v.at(0, 0));
        assert!(r.is_err(), "out-of-tile read must panic");
    }

    #[test]
    fn full_view_row_spans_stop_at_the_edge() {
        let data: Vec<f64> = (0..6).map(f64::from).collect();
        let v = View::Full { data: &data, cols: 3, rows: 2 };
        assert_eq!(v.row(0, 1, 3), &[3.0, 4.0, 5.0]);
        assert_eq!(v.row(1, 0, 2), &[1.0, 2.0]);
        assert!(v.row(3, 1, 0).is_empty());
        for (x, y, len) in [(1, 0, 3), (3, 0, 1), (0, 2, 1)] {
            let r = std::panic::catch_unwind(|| v.row(x, y, len).len());
            assert!(r.is_err(), "span ({x}+{len},{y}) past the edge must panic");
        }
    }

    #[test]
    fn tile_view_row_spans_stop_at_the_bounding_box() {
        let v =
            View::Tile { data: (0..6).map(f64::from).collect(), x0: 4, y0: 2, cols: 3, rows: 2 };
        assert_eq!(v.row(4, 3, 3), &[3.0, 4.0, 5.0]);
        assert_eq!(v.row(5, 2, 2), &[1.0, 2.0]);
        for (x, y, len) in [(5, 2, 3), (3, 2, 1), (4, 4, 1), (4, 1, 1)] {
            let r = std::panic::catch_unwind(|| v.row(x, y, len).len());
            assert!(r.is_err(), "span ({x}+{len},{y}) outside the tile must panic");
        }
    }

    #[test]
    fn full_view_indexing() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = View::Full { data: &data, cols: 3, rows: 2 };
        assert_eq!(v.at(2, 1), 6.0);
        assert_eq!(v.width(), 3);
        assert_eq!(v.height(), 2);
    }
}
