//! Host-side measurement: process CPU and memory from `getrusage`, the
//! median, and the FNV-1a hash behind the virtual-time fingerprints.

/// CPU seconds (user, system) and peak resident set of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User-mode CPU seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub sys_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

impl Usage {
    /// User plus system seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            peak_rss_mb: self.peak_rss_mb,
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs whose
    /// first is `ru_maxrss` (KiB).
    #[repr(C)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        ru_longs: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;

    pub fn usage() -> super::Usage {
        let mut r = Rusage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_longs: [0; 14],
        };
        // SAFETY: `r` is a writable, properly aligned `struct rusage` for
        // this target, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
        if rc != 0 {
            return super::Usage::default();
        }
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        super::Usage {
            user_s: secs(&r.ru_utime),
            sys_s: secs(&r.ru_stime),
            peak_rss_mb: r.ru_longs[0] as f64 / 1024.0,
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn usage() -> super::Usage {
        super::Usage::default()
    }
}

/// This process's resource usage so far.
pub fn usage() -> Usage {
    sys::usage()
}

/// Median of a sample (mean of the middle two for even sizes); `0.0` for
/// an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a over a sequence of 64-bit words (little-endian bytes).
pub fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}
