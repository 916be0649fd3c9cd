//! Memory and host probes: a std-only counting allocator, the `VmHWM`
//! reader for this process or another pid, and the host's CPU count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting every byte it hands out and takes
/// back.
///
/// A byte counts as allocated once, when it is first handed out: `alloc`
/// counts the layout size, `realloc` counts growth and frees shrinkage.
/// Frees do not lower the allocation count, so it is the total volume;
/// allocated minus freed is the heap in use.
///
/// Each thread counts into its own cache-line-sized slot, so counting
/// adds no contention between threads; readers sum the slots.
pub struct CountingAlloc;

/// Counter slots; threads take them round-robin and may share one.
const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot {
    allocated: AtomicU64,
    freed: AtomicU64,
}

static COUNTERS: [Slot; SLOTS] = [const {
    Slot {
        allocated: AtomicU64::new(0),
        freed: AtomicU64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and free of destructors, so touching them inside
    // the allocator never allocates.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static THREAD_ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn slot() -> &'static Slot {
    // Fails only while the thread is being torn down; its last counts
    // then go to slot 0.
    let idx = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &COUNTERS[idx]
}

fn record(bytes: usize) {
    let bytes = bytes as u64;
    // Statistics that publish no other data.
    slot().allocated.fetch_add(bytes, Ordering::Relaxed);
    let _ = THREAD_ALLOCATED.try_with(|c| c.set(c.get() + bytes));
}

fn release(bytes: usize) {
    slot().freed.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting around the
// calls touches only atomics and destructor-free thread-local cells.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        release(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size > layout.size() {
                record(new_size - layout.size());
            } else {
                release(layout.size() - new_size);
            }
        }
        new
    }
}

/// Bytes allocated by every thread of this process so far.
pub fn allocated_bytes() -> u64 {
    COUNTERS
        .iter()
        .map(|s| s.allocated.load(Ordering::Relaxed))
        .sum()
}

/// Bytes in use now: allocated minus freed, over every thread. The slots
/// are read one by one, so under concurrent allocation this is a close
/// estimate rather than an instant's exact value.
pub fn live_bytes() -> u64 {
    let freed: u64 = COUNTERS
        .iter()
        .map(|s| s.freed.load(Ordering::Relaxed))
        .sum();
    allocated_bytes().saturating_sub(freed)
}

/// Bytes allocated by the calling thread so far.
#[cfg(test)]
pub fn thread_allocated_bytes() -> u64 {
    THREAD_ALLOCATED.with(Cell::get)
}

/// Peak resident set size (`VmHWM`, in KiB) of this process (`None`) or
/// of another process by pid.
///
/// # Errors
///
/// The status file cannot be read (no such process, or not Linux), or it
/// lacks a `VmHWM` line.
pub fn vm_hwm_kib(pid: Option<u32>) -> std::io::Result<u64> {
    let path = match pid {
        None => "/proc/self/status".to_owned(),
        Some(pid) => format!("/proc/{pid}/status"),
    };
    let status = std::fs::read_to_string(path)?;
    parse_vm_hwm(&status).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "status has no VmHWM line")
    })
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What the calibration kernel takes on the reference host, in ms.
/// Times are reported in *reference ms*: as they would read on a host
/// that runs the kernel in exactly this long.
pub const CAL_REF_MS: f64 = 5.0;

/// Times a fixed kernel — format 20,000 short names and sort them — on
/// `threads` threads at once, and returns the mean of their wall times
/// in ms. The work never changes and runs no program code, so its time
/// tracks only how fast the host runs this process at the moment; an
/// op with `n` workers is calibrated on `n` threads, because it depends
/// on that many CPUs being available. Formatting, allocating and
/// comparing strings tracks the verifier's own speed swings on a shared
/// host far better than a pure arithmetic or memory loop does.
pub fn calibrate(threads: usize) -> f64 {
    let kernel = || {
        let started = std::time::Instant::now();
        let mut names: Vec<String> = (0..20_000u64)
            .map(|i| format!("S{} Q<{}>", i.wrapping_mul(2_654_435_761) % 100_003, i % 32))
            .collect();
        names.sort();
        std::hint::black_box(&names);
        started.elapsed().as_secs_f64() * 1e3
    };
    if threads <= 1 {
        return kernel();
    }
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration kernel panicked"))
            .sum()
    });
    total / threads as f64
}

/// The factor that turns a time measured while the kernel took
/// `cal_ms` into reference ms.
pub fn to_reference(cal_ms: f64) -> f64 {
    CAL_REF_MS / cal_ms
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::Mutex;

    /// Serialises the tests that move this process's peak memory, so
    /// one does not see another's buffers.
    static HEAVY: Mutex<()> = Mutex::new(());

    #[test]
    fn a_known_buffer_counts_its_exact_size() {
        let before = thread_allocated_bytes();
        let buf: Vec<u8> = Vec::with_capacity(12_345);
        black_box(&buf);
        assert_eq!(thread_allocated_bytes() - before, 12_345);
        drop(buf);
        // Frees are not subtracted.
        assert_eq!(thread_allocated_bytes() - before, 12_345);
    }

    #[test]
    fn realloc_counts_only_growth() {
        let mut buf: Vec<u64> = Vec::with_capacity(100);
        black_box(&buf);
        let before = thread_allocated_bytes();
        buf.reserve_exact(300);
        black_box(&buf);
        assert_eq!(thread_allocated_bytes() - before, 200 * 8);
        buf.shrink_to(10);
        black_box(&buf);
        assert_eq!(thread_allocated_bytes() - before, 200 * 8);
    }

    #[test]
    fn the_live_count_follows_allocation_and_free() {
        let _heavy = HEAVY.lock().unwrap_or_else(|e| e.into_inner());
        let before = live_bytes();
        let buf = vec![0u8; 8 << 20];
        black_box(&buf);
        // Other test threads allocate too, so only bounds hold exactly.
        let during = live_bytes();
        drop(buf);
        let after = live_bytes();
        assert!(during >= before + (7 << 20), "{before} -> {during}");
        assert!(during >= after + (7 << 20), "{during} -> {after}");
    }

    #[test]
    fn the_process_counter_includes_this_thread() {
        let before = allocated_bytes();
        let buf = vec![0u8; 4096];
        black_box(&buf);
        assert!(allocated_bytes() - before >= 4096);
    }

    #[test]
    fn vm_hwm_grows_when_a_buffer_is_touched() {
        let _heavy = HEAVY.lock().unwrap_or_else(|e| e.into_inner());
        let before = vm_hwm_kib(None).expect("own status is readable");
        assert!(before > 0);
        let mut buf = vec![0u8; 48 << 20];
        for page in buf.chunks_mut(4096) {
            page[0] = 1;
        }
        black_box(&buf);
        let after = vm_hwm_kib(None).expect("own status is readable");
        assert!(after >= before + (40 << 10), "{before} KiB -> {after} KiB");
    }

    #[test]
    fn vm_hwm_reads_another_pid() {
        let by_pid = vm_hwm_kib(Some(std::process::id())).expect("pid status is readable");
        assert!(by_pid > 0);
        assert!(vm_hwm_kib(Some(u32::MAX)).is_err());
    }

    #[test]
    fn vm_hwm_line_parses() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t   5120 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(5120));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn calibration_takes_positive_time() {
        let ms = calibrate(1);
        assert!(ms > 0.0);
        assert!(calibrate(2) > 0.0);
        assert!((to_reference(ms) * ms - CAL_REF_MS).abs() < 1e-9);
    }

    #[test]
    fn nproc_matches_available_parallelism() {
        let n = nproc();
        assert!(n >= 1);
        assert_eq!(
            n,
            std::thread::available_parallelism().expect("known").get()
        );
    }
}
