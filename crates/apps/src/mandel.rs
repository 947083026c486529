//! The Mandelbrot workload (§3.1.2): kernel, block decomposition,
//! sequential baseline, the precomputed work table, and the block
//! [`Kernel`] that the MESSENGERS and PVM workers share on both
//! platforms.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::thread;

use crate::calib::Calib;

/// A rectangle of the complex plane: `(x0, y0)` to `(x1, y1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Left edge (real axis).
    pub x0: f64,
    /// Bottom edge (imaginary axis).
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
}

impl Region {
    /// The region evaluated throughout the paper: `(-2.0, -1.2, 0.4, 1.2)`.
    pub fn paper() -> Region {
        Region { x0: -2.0, y0: -1.2, x1: 0.4, y1: 1.2 }
    }
}

/// Escape-time iteration count for the point `(cx, cy)`, in
/// `1..=max_iter`; interior points return `max_iter`.
pub fn mandel_iters(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let mut zx = 0.0f64;
    let mut zy = 0.0f64;
    for n in 1..=max_iter {
        let zx2 = zx * zx;
        let zy2 = zy * zy;
        if zx2 + zy2 > 4.0 {
            return n;
        }
        zy = 2.0 * zx * zy + cy;
        zx = zx2 - zy2 + cx;
    }
    max_iter
}

/// A complete experiment description: the paper varies `size`
/// (320/640/1280), `grid` (8/16/32), and fixes 512 colors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MandelScene {
    /// The complex-plane window.
    pub region: Region,
    /// Image is `size × size` pixels.
    pub size: u32,
    /// Image divided into `grid × grid` blocks.
    pub grid: u32,
    /// Iteration cap (= number of colors, 512 in the paper).
    pub max_iter: u32,
}

impl MandelScene {
    /// A paper-standard scene.
    ///
    /// # Panics
    ///
    /// Panics unless `grid` divides `size`.
    pub fn paper(size: u32, grid: u32) -> Self {
        assert!(grid > 0 && size.is_multiple_of(grid), "grid {grid} must divide size {size}");
        MandelScene { region: Region::paper(), size, grid, max_iter: 512 }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> u32 {
        self.grid * self.grid
    }

    /// Block side length in pixels.
    pub fn block_side(&self) -> u32 {
        self.size / self.grid
    }

    /// Pixels per block.
    pub fn block_pixels(&self) -> u32 {
        self.block_side() * self.block_side()
    }

    /// Pixel origin `(px, py)` of block `idx` (row-major blocks).
    pub fn block_origin(&self, idx: u32) -> (u32, u32) {
        let bs = self.block_side();
        let bx = idx % self.grid;
        let by = idx / self.grid;
        (bx * bs, by * bs)
    }

    /// The `block_side()` row ranges of block `idx` in a row-major
    /// `size × size` buffer, top to bottom. This is the one
    /// block→pixel-offset map: every copy or sum over a block's pixels
    /// goes through it.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a block of this scene.
    pub fn block_rows(&self, idx: u32) -> impl Iterator<Item = Range<usize>> {
        assert!(idx < self.blocks(), "block {idx} out of range");
        let (n, side) = (self.size as usize, self.block_side() as usize);
        let (ox, oy) = self.block_origin(idx);
        let top = oy as usize * n + ox as usize;
        (0..side).map(move |dy| top + dy * n..top + dy * n + side)
    }

    /// Render `out.len()` pixels of row `py`, starting at column `px0`,
    /// as iteration counts. This is the one pixel→plane map: every
    /// renderer of a scene goes through it, so they agree bit for bit.
    pub fn render_span(&self, py: u32, px0: u32, out: &mut [u16]) {
        let (w, h) = (self.size as f64, self.size as f64);
        let cy = self.region.y0 + (py as f64 + 0.5) / h * (self.region.y1 - self.region.y0);
        for (px, v) in (px0..).zip(out) {
            let cx = self.region.x0 + (px as f64 + 0.5) / w * (self.region.x1 - self.region.x0);
            *v = mandel_iters(cx, cy, self.max_iter) as u16;
        }
    }

    /// Render block `idx` from scratch as 8-bit colors, row-major: the
    /// same bytes as [`MandelWork::block_payload`], for workers that
    /// really compute.
    pub fn render_block(&self, idx: u32) -> Vec<u8> {
        let bs = self.block_side();
        let (ox, oy) = self.block_origin(idx);
        let mut row = vec![0u16; bs as usize];
        let mut out = Vec::with_capacity(row.len() * row.len());
        for py in oy..oy + bs {
            self.render_span(py, ox, &mut row);
            out.extend(row.iter().map(|&v| MandelWork::color(v)));
        }
        out
    }
}

/// The rendered image plus per-block iteration totals, computed once per
/// scene and shared by every implementation and processor count (the
/// actual pixel values are identical across systems; only the
/// coordination differs).
#[derive(Debug, Clone)]
pub struct MandelWork {
    /// The scene this was computed for.
    pub scene: MandelScene,
    /// Row-major iteration counts, one per pixel.
    pub pixels: Vec<u16>,
    /// Total iterations per block (compute cost driver).
    pub block_iters: Vec<u64>,
}

impl MandelWork {
    /// Render the scene and tabulate per-block work.
    ///
    /// Rows are rendered on every host core: the calling thread and
    /// `available_parallelism() − 1` helpers each claim the next
    /// unrendered row until none is left, so a helper that starts late
    /// costs nothing. Each row goes through [`MandelScene::render_span`],
    /// so the pixels do not depend on which thread drew them.
    pub fn compute(scene: MandelScene) -> Self {
        let n = scene.size as usize;
        let mut pixels = vec![0u16; n * n];
        let rows = Mutex::new(pixels.chunks_mut(n.max(1)).zip(0u32..));
        let claim = || loop {
            let next = rows.lock().expect("no thread panics while claiming a row").next();
            let Some((row, py)) = next else { return };
            scene.render_span(py, 0, row);
        };
        let helpers = thread::available_parallelism().map_or(1, |p| p.get()) - 1;
        thread::scope(|s| {
            for _ in 0..helpers {
                s.spawn(claim);
            }
            claim();
        });
        let block_iters = tabulate(&scene, &pixels);
        MandelWork { scene, pixels, block_iters }
    }

    /// The same image cut into `grid × grid` blocks: `block_iters` is
    /// re-tabulated from the rendered pixels, nothing is rendered again.
    ///
    /// # Panics
    ///
    /// Panics unless `grid` divides the image size.
    pub fn regrid(&self, grid: u32) -> Self {
        let scene = MandelScene { grid, ..self.scene };
        let size = scene.size;
        assert!(grid > 0 && size.is_multiple_of(grid), "grid {grid} must divide size {size}");
        let block_iters = tabulate(&scene, &self.pixels);
        MandelWork { scene, pixels: self.pixels.clone(), block_iters }
    }

    /// Total iterations over the whole image.
    pub fn total_iters(&self) -> u64 {
        self.block_iters.iter().sum()
    }

    /// The 8-bit color index displayed for an iteration count (1997 X
    /// displays used 8-bit colormaps; 512 iteration values fold onto
    /// 256 colors).
    pub fn color(iters: u16) -> u8 {
        (iters & 0xff) as u8
    }

    /// Serialize one block's colors (1 byte per pixel) — the payload
    /// both systems ship back to the collector.
    pub fn block_payload(&self, idx: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.scene.block_pixels() as usize);
        for rows in self.scene.block_rows(idx) {
            out.extend(self.pixels[rows].iter().map(|&p| Self::color(p)));
        }
        out
    }

    /// Write a block payload into an image buffer (the collector's
    /// `deposit`).
    ///
    /// # Panics
    ///
    /// Panics if the payload length does not match the block size, or if
    /// `idx` is not a block of `scene`.
    pub fn deposit_payload(scene: &MandelScene, image: &mut [u8], idx: u32, payload: &[u8]) {
        let side = scene.block_side() as usize;
        assert_eq!(payload.len(), side * side, "bad payload for block {idx}");
        // `chunks_exact` refuses 0; an empty image's blocks have no rows.
        for (rows, row) in scene.block_rows(idx).zip(payload.chunks_exact(side.max(1))) {
            image[rows].copy_from_slice(row);
        }
    }

    /// FNV-1a checksum over an 8-bit color image, for
    /// cross-implementation verification.
    pub fn checksum(colors: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in colors {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// The reference color image (what the distributed runs must
    /// reassemble).
    pub fn color_image(&self) -> Vec<u8> {
        self.pixels.iter().map(|&p| Self::color(p)).collect()
    }
}

/// How a worker produces a block: the one kernel both systems' workers
/// call, on either platform.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// Look the block up in the work table and charge its calibrated
    /// cost: for the simulator, whose clock is the cost model.
    Charged(Arc<MandelWork>, Calib),
    /// Render the block: for threads, whose clock is the host's.
    Rendered(MandelScene),
}

impl Kernel {
    /// The scene whose blocks this kernel produces.
    pub fn scene(&self) -> MandelScene {
        match self {
            Kernel::Charged(work, _) => work.scene,
            Kernel::Rendered(scene) => *scene,
        }
    }

    /// Block `task`: its index, its colors, and the reference
    /// nanoseconds computing it costs (0 when rendered: the host clock
    /// pays).
    ///
    /// # Errors
    ///
    /// `task` is not a block of the scene. A task index comes from the
    /// program, so a bad one faults the worker rather than rendering
    /// some other block or none.
    pub fn block(&self, task: i64) -> Result<(u32, Vec<u8>, u64), String> {
        let scene = self.scene();
        let idx = u32::try_from(task)
            .ok()
            .filter(|&i| i < scene.blocks())
            .ok_or_else(|| format!("block {task} out of range"))?;
        Ok(match self {
            Kernel::Charged(work, calib) => {
                let iters = work.block_iters[idx as usize];
                let ns = calib.mandel_ns(iters, scene.block_pixels() as u64);
                (idx, work.block_payload(idx), ns)
            }
            Kernel::Rendered(scene) => (idx, scene.render_block(idx), 0),
        })
    }
}

/// Total iterations per block of `scene`, summed from its rendered
/// `pixels`.
fn tabulate(scene: &MandelScene, pixels: &[u16]) -> Vec<u64> {
    let row_sum = |rows: Range<usize>| pixels[rows].iter().map(|&p| p as u64).sum::<u64>();
    (0..scene.blocks()).map(|idx| scene.block_rows(idx).map(row_sum).sum()).collect()
}

/// Sequential-C baseline: the full render on one reference machine.
/// Returns `(simulated seconds, checksum)`.
pub fn render_sequential(work: &MandelWork, calib: &Calib) -> (f64, u64) {
    let pixels = (work.scene.size as u64).pow(2);
    let ns = calib.mandel_ns(work.total_iters(), pixels);
    (ns as f64 / 1e9, MandelWork::checksum(&work.color_image()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_escape_behaviour() {
        // Far outside: escapes immediately (|c| > 2 after one step).
        assert!(mandel_iters(10.0, 10.0, 512) <= 2);
        // Origin is interior: never escapes.
        assert_eq!(mandel_iters(0.0, 0.0, 512), 512);
        assert_eq!(mandel_iters(-1.0, 0.0, 512), 512); // period-2 bulb
                                                       // A point just outside the cardioid cusp escapes slowly.
        let n = mandel_iters(0.26, 0.0, 512);
        assert!(n > 10 && n < 512, "near-cusp point got {n}");
    }

    #[test]
    fn scene_geometry() {
        let s = MandelScene::paper(320, 8);
        assert_eq!(s.blocks(), 64);
        assert_eq!(s.block_side(), 40);
        assert_eq!(s.block_pixels(), 1600);
        assert_eq!(s.block_origin(0), (0, 0));
        assert_eq!(s.block_origin(7), (280, 0));
        assert_eq!(s.block_origin(8), (0, 40));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_grid_rejected() {
        let _ = MandelScene::paper(320, 7);
    }

    #[test]
    fn work_table_is_consistent() {
        let w = MandelWork::compute(MandelScene::paper(64, 4));
        assert_eq!(w.pixels.len(), 64 * 64);
        assert_eq!(w.block_iters.len(), 16);
        assert_eq!(w.total_iters(), w.pixels.iter().map(|&p| p as u64).sum::<u64>());
        // The paper's region contains interior points (max_iter) and
        // fast-escaping points.
        assert!(w.pixels.contains(&512));
        assert!(w.pixels.iter().any(|&p| p < 10));
    }

    #[test]
    #[should_panic(expected = "bad payload for block 5")]
    fn a_payload_of_the_wrong_length_is_refused() {
        let scene = MandelScene::paper(64, 4);
        let mut image = vec![0u8; 64 * 64];
        MandelWork::deposit_payload(&scene, &mut image, 5, &[0u8; 16 * 16 + 1]);
    }

    #[test]
    fn sequential_time_positive_and_deterministic() {
        let w = MandelWork::compute(MandelScene::paper(64, 4));
        let c = Calib::default();
        let (t1, sum1) = render_sequential(&w, &c);
        let (t2, sum2) = render_sequential(&w, &c);
        assert!(t1 > 0.0);
        assert_eq!(t1, t2);
        assert_eq!(sum1, sum2);
    }

    #[test]
    fn checksum_detects_corruption() {
        let w = MandelWork::compute(MandelScene::paper(64, 4));
        let mut bad = w.color_image();
        bad[100] ^= 1;
        assert_ne!(MandelWork::checksum(&bad), MandelWork::checksum(&w.color_image()));
    }
}
