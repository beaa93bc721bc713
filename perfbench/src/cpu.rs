//! CPU time of the system under test: this process (every thread, the
//! worker pool included) plus the `bestpeer-node` children of the TCP
//! workload.
//!
//! On a virtual machine whose cores are shared, wall time includes the
//! time the hypervisor gives the core to another tenant, and that share
//! changes from minute to minute. The kernel does not charge stolen
//! time to a process's CPU clock, so CPU time measures the work the
//! program does whatever its neighbours do.

use std::io;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of the calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// A process's CPU-time clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The calling process's clock.
    pub fn this_process() -> CpuClock {
        CpuClock(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// The clock of process `pid` (a child of this one).
    pub fn of_process(pid: u32) -> io::Result<CpuClock> {
        let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
        let mut clock = 0;
        // SAFETY: `clock` is a valid out-pointer for the call.
        match unsafe { clock_getcpuclockid(pid, &mut clock) } {
            0 => Ok(CpuClock(clock)),
            errno => Err(io::Error::from_raw_os_error(errno)),
        }
    }

    /// CPU nanoseconds the process has used so far, its ended threads
    /// included; 0 once the process is gone.
    pub fn now_ns(self) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid out-pointer for the call.
        if unsafe { clock_gettime(self.0, &mut ts) } != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

/// The summed CPU clocks of a set of processes.
#[derive(Debug, Clone, Default)]
pub struct CpuMeter {
    clocks: Vec<CpuClock>,
}

impl CpuMeter {
    /// A meter over `clocks`.
    pub fn new(clocks: Vec<CpuClock>) -> CpuMeter {
        CpuMeter { clocks }
    }

    /// Summed CPU nanoseconds so far.
    pub fn now_ns(&self) -> u64 {
        self.clocks.iter().map(|c| c.now_ns()).sum()
    }
}
