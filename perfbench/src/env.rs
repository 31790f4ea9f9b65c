//! The environment stamp printed with every result, pinning the process to
//! one CPU, and the process memory high-water mark.
//!
//! The rayon shim spawns threads per `join`/`par_iter` call based on
//! `available_parallelism`, so that value changes the program's own thread
//! count and belongs next to every figure.

use std::process::Command;

/// First line of a command's standard output, or "unknown" when the
/// command is missing or fails (the benchmark checkout is not always a git
/// repository).
fn first_line(program: &str, args: &[&str]) -> String {
    let bench_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let checkout = bench_dir.parent().unwrap_or(bench_dir);
    Command::new(program)
        .args(args)
        .current_dir(bench_dir)
        // Keep git from searching above the checkout for a repository.
        .env(
            "GIT_CEILING_DIRECTORIES",
            checkout.parent().unwrap_or(checkout),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// 64-bit words in the C library's 1024-bit `cpu_set_t`.
const CPU_SET_WORDS: usize = 1024 / 64;

extern "C" {
    // From the C library std already links; the benchmark has no libc crate.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the process to the lowest-numbered CPU it may run on and
/// returns that CPU. Threads spawned afterwards inherit the mask, and
/// `available_parallelism` then reads 1, so the rayon shim runs every
/// `join`/`par_iter` inline.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let size = CPU_SET_WORDS * 8;
    let os_err = |call: &str| format!("{call}: {}", std::io::Error::last_os_error());
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(os_err("sched_getaffinity"));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(os_err("sched_setaffinity"));
    }
    Ok(cpu)
}

/// `std::thread::available_parallelism()` as text.
pub fn available_parallelism() -> String {
    std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string())
}

/// The stamp, taken before any pinning.
pub fn stamp() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", first_line("nproc", &[])),
        ("available_parallelism", available_parallelism()),
        ("git_commit", first_line("git", &["rev-parse", "HEAD"])),
        ("rustc", first_line("rustc", &["-V"])),
    ]
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
