//! Provenance and host diagnostics. The probes describe the host a run
//! saw; no metric is ever rescaled by them.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Hands heap pages freed by the last program call back to the kernel,
/// as the end of a separate `rodctl`/`rodd` process would. Without it
/// the second simulation of a pass lands on whatever the first left
/// fragmented, and the process's peak RSS swings by 25% from run to
/// run.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // returns free heap pages to the kernel; it is safe to call at
        // any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Pins glibc's mmap threshold at its default (128 KiB). Left alone,
/// glibc raises the threshold each time a large mmapped block is freed,
/// so the second simulation of a pass puts its big buffers on the heap
/// the first one fragmented, and peak RSS depends on heap history
/// (153 to 190 MiB on `pipeline_1m`, even for one seed) rather than on
/// the work.
/// A fixed threshold keeps every large buffer mmapped and returns it on
/// free, in every run alike.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: glibc's `mallopt` takes no pointers; it only sets an
        // allocator parameter and is called before any other thread
        // starts.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
    }
}

/// Seconds for a fixed pure-compute loop (no memory traffic).
pub fn cpu_probe_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for _ in 0..black_box(50_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Seconds for a fixed memory-streaming loop: eight passes over a
/// 32 MiB buffer.
pub fn mem_probe_s() -> f64 {
    let buf = vec![1u64; 4 << 20];
    let start = Instant::now();
    let mut acc = 0u64;
    for pass in 0..8u64 {
        for &v in black_box(&buf).iter() {
            acc = acc.wrapping_add(v ^ pass);
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

fn tool_version(cmd: &str) -> String {
    Command::new(cmd)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// only (a checkout without one reports "unknown").
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialise")
}

fn env_setting(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".to_string())
}

/// One JSON line describing what produced this run.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let kernel = match rod_geom::simd::select_path(false) {
        rod_geom::simd::KernelPath::Simd => "simd",
        rod_geom::simd::KernelPath::Scalar => "scalar",
    };
    format!(
        "{{\"provenance\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{trace},\"nproc\":{},\"pool_workers\":{},\"kernel_path\":\"{kernel}\",\
         \"ROD_THREADS\":{},\"ROD_NO_SIMD\":{},\"rustc\":{},\"commit\":{}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rod_pool::global().size(),
        json_str(&env_setting("ROD_THREADS")),
        json_str(&env_setting("ROD_NO_SIMD")),
        json_str(&tool_version("rustc")),
        json_str(&commit()),
    )
}
