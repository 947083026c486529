//! The Mandelbrot work table against a serial per-pixel reference: the
//! multi-core render, the block tabulation (also after `regrid`) and the
//! threads natives' block renderer must all agree with one pixel loop,
//! bit for bit, on any scene; and block payloads must deposit back into
//! exactly their own block's pixels.

use msgr_apps::mandel::mandel_iters;
use msgr_apps::{MandelScene, MandelWork, Region};
use msgr_check::{check_with, prop_assert, prop_assert_eq, Config, Source};

/// A scene of side 0..=96 cut by any grid that divides it, over a random
/// window of the plane, with `max_iter` 1..=600.
fn scene(s: &mut Source) -> MandelScene {
    let size = s.u32_in(0..97);
    let grid = pick_divisor(s, size);
    let (x0, y0) = (s.f64_in(-2.5, 1.0), s.f64_in(-1.5, 1.5));
    let (x1, y1) = (x0 + s.f64_in(1e-3, 3.0), y0 + s.f64_in(1e-3, 3.0));
    let region = Region { x0, y0, x1, y1 };
    MandelScene { region, size, grid, max_iter: s.u32_in(1..601) }
}

/// Any grid dividing `size`; for the empty image any grid does.
fn pick_divisor(s: &mut Source, size: u32) -> u32 {
    let divisors: Vec<u32> = (1..=size.max(8)).filter(|&g| size.is_multiple_of(g)).collect();
    *s.pick(&divisors)
}

/// One pixel at a time, in row-major order, on the calling thread.
fn reference(scene: &MandelScene) -> Vec<u16> {
    let r = scene.region;
    let (w, h) = (scene.size as f64, scene.size as f64);
    let mut pixels = Vec::new();
    for py in 0..scene.size {
        for px in 0..scene.size {
            let cx = r.x0 + (px as f64 + 0.5) / w * (r.x1 - r.x0);
            let cy = r.y0 + (py as f64 + 0.5) / h * (r.y1 - r.y0);
            pixels.push(mandel_iters(cx, cy, scene.max_iter) as u16);
        }
    }
    pixels
}

/// The block each pixel of `scene` belongs to, in row-major pixel order.
fn pixel_owners(scene: &MandelScene) -> Vec<u32> {
    let (n, bs) = (scene.size, scene.block_side());
    let mut owners = Vec::new();
    for py in 0..n {
        for px in 0..n {
            owners.push((py / bs) * scene.grid + px / bs);
        }
    }
    owners
}

/// Per-block iteration totals summed from `pixels`, one pixel at a time.
fn pixel_sums(scene: &MandelScene, pixels: &[u16]) -> Vec<u64> {
    let mut sums = vec![0u64; scene.blocks() as usize];
    for (&idx, &p) in pixel_owners(scene).iter().zip(pixels) {
        sums[idx as usize] += p as u64;
    }
    sums
}

#[test]
fn the_work_table_matches_a_serial_render() {
    check_with(Config::with_cases(64), "mandel_work_table", |s| {
        let scene = scene(s);
        let work = MandelWork::compute(scene);
        let expected = reference(&scene);
        prop_assert_eq!(work.pixels.len(), expected.len());
        let first_diff = work.pixels.iter().zip(&expected).position(|(a, b)| a != b);
        prop_assert!(first_diff.is_none(), "{scene:?}: pixel {first_diff:?} differs");
        prop_assert_eq!(work.block_iters, pixel_sums(&scene, &expected));

        let regridded = work.regrid(pick_divisor(s, scene.size));
        prop_assert_eq!(regridded.pixels, work.pixels);
        prop_assert_eq!(regridded.block_iters, pixel_sums(&regridded.scene, &expected));

        for idx in 0..scene.blocks() {
            let rendered = scene.render_block(idx);
            prop_assert!(rendered == work.block_payload(idx), "{scene:?}: block {idx} differs");
        }
        Ok(())
    });
}

#[test]
fn block_payloads_deposit_back_into_the_image() {
    check_with(Config::with_cases(64), "mandel_block_payloads", |s| {
        let scene = scene(s);
        let work = MandelWork::compute(scene);
        let colors = work.color_image();
        let owners = pixel_owners(&scene);
        let sentinel = s.any_u8();

        let mut covered = vec![0u32; colors.len()];
        for idx in 0..scene.blocks() {
            for k in scene.block_rows(idx).flatten() {
                prop_assert!(owners[k] == idx, "{scene:?}: block {idx} claims pixel {k}");
                covered[k] += 1;
            }
        }
        let gap = covered.iter().position(|&c| c != 1);
        prop_assert!(gap.is_none(), "{scene:?}: pixel {gap:?} not covered exactly once");

        let mut image = vec![sentinel; colors.len()];
        for idx in 0..scene.blocks() {
            let payload = work.block_payload(idx);
            prop_assert_eq!(payload.len(), scene.block_pixels() as usize);
            MandelWork::deposit_payload(&scene, &mut image, idx, &payload);
        }
        prop_assert!(image == colors, "{scene:?}: reassembled image differs");

        let idx = s.u32_in(0..scene.blocks());
        let mut one = vec![sentinel; colors.len()];
        MandelWork::deposit_payload(&scene, &mut one, idx, &work.block_payload(idx));
        let stray =
            (0..one.len()).find(|&k| one[k] != if owners[k] == idx { colors[k] } else { sentinel });
        prop_assert!(stray.is_none(), "{scene:?}: block {idx} wrote pixel {stray:?} wrongly");
        Ok(())
    });
}
