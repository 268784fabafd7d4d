//! What the benchmark reads from the host: peak memory, CPU time, how fast
//! the host runs right now, and the identity fields of a record.

use std::process::Command;
use std::time::Instant;

/// `VmHWM` of this process in MiB (0 where `/proc` does not have it).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds the calling thread has spent on a processor, as the scheduler
/// accounts them in nanoseconds (0 without `/proc`).  The benchmark does
/// all its work on one thread.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |nanoseconds| nanoseconds / 1e9)
}

/// The calibration rate of a quiet moment on the host this benchmark was
/// sized on, in blocks per second; see [`Calibration`].
pub const NOMINAL_BLOCKS_PER_S: f64 = 10.0e6;

/// How fast this host runs right now, sampled beside the timings.
///
/// The hosts this benchmark runs on change speed by up to 1.5× for minutes
/// at a time (a busy hyperthread sibling, a frequency step); the same
/// binary read 25 ms and 39 ms a paper-scale trial two hours apart, and the
/// rate of a fixed arithmetic loop moved by the same factor.  So the
/// simulator workloads give the two timings a regression bound hangs on
/// (`setup_s`, `events_per_cpu_s`) in **calibrated seconds**: wall seconds
/// times `rate / NOMINAL_BLOCKS_PER_S`, where `rate` is the median of
/// ~1 ms bursts of that loop taken between the timed operations.  A
/// calibrated second is a wall second on a host whose loop runs at the
/// nominal rate.  Contention in the memory system, which a register-only
/// loop does not see, stays in the numbers; the README has the evidence,
/// and why the ticker workloads are not calibrated.
///
/// The loop is eight ChaCha-style add-rotate-xor rounds over a 16-word
/// block, written out here so that no change to the repository's crates
/// can move the yardstick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Calibration {
    blocks_per_s: Vec<f64>,
}

impl Calibration {
    /// Runs one burst and records its rate.
    pub fn sample(&mut self) {
        const BLOCKS: u32 = 8_000;
        let mut block: [u32; 16] =
            std::array::from_fn(|word| 0x9E37_79B9u32.rotate_left(word as u32));
        let started = Instant::now();
        for _ in 0..BLOCKS {
            for _ in 0..4 {
                for (a, b, c, d) in [
                    (0, 4, 8, 12),
                    (1, 5, 9, 13),
                    (2, 6, 10, 14),
                    (3, 7, 11, 15),
                    (0, 5, 10, 15),
                    (1, 6, 11, 12),
                    (2, 7, 8, 13),
                    (3, 4, 9, 14),
                ] {
                    block[a] = block[a].wrapping_add(block[b]);
                    block[d] = (block[d] ^ block[a]).rotate_left(16);
                    block[c] = block[c].wrapping_add(block[d]);
                    block[b] = (block[b] ^ block[c]).rotate_left(12);
                    block[a] = block[a].wrapping_add(block[b]);
                    block[d] = (block[d] ^ block[a]).rotate_left(8);
                    block[c] = block[c].wrapping_add(block[d]);
                    block[b] = (block[b] ^ block[c]).rotate_left(7);
                }
            }
        }
        std::hint::black_box(block);
        self.blocks_per_s
            .push(f64::from(BLOCKS) / started.elapsed().as_secs_f64());
    }

    /// Median rate of the bursts so far, in blocks per second.
    pub fn blocks_per_s(&self) -> f64 {
        crate::metrics::median(&self.blocks_per_s)
    }

    /// Calibrated seconds per wall second: multiply a wall time by this.
    pub fn factor(&self) -> f64 {
        self.blocks_per_s() / NOMINAL_BLOCKS_PER_S
    }
}

/// The identity fields every record carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Kernel host name.
    pub host: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

impl HostInfo {
    /// Reads the fields; both commands run to completion before this
    /// returns.
    pub fn read() -> Self {
        HostInfo {
            host: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map_or_else(|_| "unknown".to_string(), |name| name.trim().to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
        }
    }
}
