//! Host-speed calibration.
//!
//! On the 2-vCPU sandbox this benchmark was defined on, the speed of the
//! kernel and memory paths the system leans on (allocation, page-cache
//! reads, page writes) drifts by ±20% over tens of seconds, while a
//! CPU-only loop stays within a few percent. A fixed block of page-cache
//! reads tracks that drift: normalised by it, 10-second medians of
//! simulated and native call times vary 2–5× less than raw ones.
//!
//! So the benchmark times one block before every `run_design` call and
//! scales each round's times by the round's median block time ÷
//! [`REFERENCE_S`] (`setup_s` by the run's median): a rate reads as walks
//! per second at the reference host speed. The block is the benchmark's own code, so a change to the
//! system under test moves raw and scaled figures alike; only the host's
//! drift cancels.

use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Pages in the calibration file (4 MiB, so it stays in the page cache).
const PAGES: u64 = 1024;
const PAGE: usize = 4096;
/// Page reads per block.
const READS: u32 = 4096;
/// Median block time on the reference host (2 vCPUs, ext4, page cache
/// warm): the speed the scaled figures are expressed at.
pub const REFERENCE_S: f64 = 0.003;

/// A page-cached file and the samples of the block timed on it. The
/// file is removed on drop.
pub struct Calibration {
    path: PathBuf,
    file: File,
    samples: Vec<f64>,
}

impl Calibration {
    /// Writes a calibration file in `dir` and reads it back once.
    pub fn new(dir: &Path) -> std::io::Result<Calibration> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("calibration-{}-{n}", std::process::id()));
        let mut file = File::create(&path)?;
        for _ in 0..PAGES {
            file.write_all(&[0x5a; PAGE])?;
        }
        let mut cal = Calibration {
            file: File::open(&path)?,
            path,
            samples: Vec::new(),
        };
        cal.block()?;
        cal.samples.clear();
        Ok(cal)
    }

    fn block(&mut self) -> std::io::Result<f64> {
        let mut buf = [0u8; PAGE];
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let t = Instant::now();
        for _ in 0..READS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            self.file
                .read_exact_at(&mut buf, (x >> 33) % PAGES * PAGE as u64)?;
        }
        std::hint::black_box(&buf);
        let s = t.elapsed().as_secs_f64();
        self.samples.push(s);
        Ok(s)
    }

    /// Times one block, returning its seconds.
    pub fn sample(&mut self) -> f64 {
        self.block().expect("read the calibration file")
    }

    /// Median time of one page read over every block timed, in
    /// nanoseconds.
    pub fn read_ns(&self) -> f64 {
        crate::run::median(self.samples.clone()) * 1e9 / f64::from(READS)
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// How much slower than the reference the host ran while `blocks` (block
/// times in seconds) were timed: their median ÷ [`REFERENCE_S`].
pub fn slowdown(blocks: Vec<f64>) -> f64 {
    crate::run::median(blocks) / REFERENCE_S
}
