//! Thread placement, socket waits and receive timestamps for the
//! `serve-3d-local` client.
//!
//! On a 2-core guest that other guests share, a second busy process on the
//! host used to land on whichever core the serve worker or the spinning
//! client held, and the two then ran at two thirds of a core each. The
//! closed loop therefore pins the request worker to one allowed core and
//! the client thread to another, and the client sleeps in `poll(2)` while
//! the worker computes, instead of spinning. A neighbour then finds the
//! client's core mostly idle and does not slow the worker.
//!
//! A client that sleeps is woken late when the host is busy: a halted vCPU
//! can take a millisecond or more to run again. So the closed loop times a
//! reply to the moment the kernel received it (`SO_TIMESTAMPNS`), not to
//! the moment the client got round to reading it.
//!
//! The hypervisor also takes cores away from the guest for milliseconds at
//! a time (steal). The closed loop reads how much it took from the worker's
//! core ([`steal_secs`]) and counts it as a slower host.
//!
//! All calls go straight to the C library that `std` links anyway. The
//! constants and layouts are those of Linux on 64-bit x86 and Arm.

use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// CPUs an affinity mask can name (16 × 64).
const WORDS: usize = 16;

/// A `cpu_set_t`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct CpuSet([c_ulong; WORDS]);

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// A `struct msghdr`.
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const SOL_SOCKET: c_int = 1;
/// `SO_TIMESTAMPNS`, which is also the type of its control message.
const SO_TIMESTAMPNS: c_int = 35;
/// Size of a `struct cmsghdr`, after which its data starts.
const CMSG_HDR: usize = 16;
const SC_CLK_TCK: c_int = 2;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_void, len: u32) -> c_int;
    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    fn sysconf(name: c_int) -> c_long;
}

const BITS: usize = 8 * std::mem::size_of::<c_ulong>();

/// The calling thread's affinity mask.
pub fn mask() -> Option<CpuSet> {
    let mut set = CpuSet([0; WORDS]);
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Sets the calling thread's affinity mask; `false` if the kernel rejects it.
pub fn set_mask(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable `cpu_set_t` of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed() -> Vec<usize> {
    let Some(set) = mask() else {
        return Vec::new();
    };
    (0..WORDS * BITS)
        .filter(|&c| set.0[c / BITS] >> (c % BITS) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; returns the mask it had, to restore
/// with [`set_mask`], or `None` if the thread was left as it was.
pub fn pin(cpu: usize) -> Option<CpuSet> {
    let old = mask()?;
    let mut set = CpuSet([0; WORDS]);
    set.0[cpu / BITS] |= 1 << (cpu % BITS);
    set_mask(&set).then_some(old)
}

/// The two cores of the closed loop, `(worker, client)`, when the process
/// may use at least two.
pub fn serve_cores() -> Option<(usize, usize)> {
    let cpus = allowed();
    (cpus.len() >= 2).then(|| (cpus[0], cpus[1]))
}

/// Sleeps until one of `fds` is readable (or, where its flag is set,
/// writable), or `timeout_ms` passes.
pub fn wait(fds: &[(RawFd, bool)], timeout_ms: i32) {
    let mut p: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, write)| PollFd {
            fd,
            events: POLLIN | if write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    // SAFETY: `p` is a live array of `p.len()` `pollfd`s.
    unsafe { poll(p.as_mut_ptr(), p.len() as c_ulong, timeout_ms) };
}

/// Asks the kernel to stamp what `fd` receives with its arrival time.
pub fn stamp_arrivals(fd: RawFd) -> std::io::Result<()> {
    let on: c_int = 1;
    let size = std::mem::size_of::<c_int>() as u32;
    // SAFETY: `on` is a readable `int` of the size passed.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_TIMESTAMPNS,
            (&on as *const c_int).cast(),
            size,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Reads what `fd` has into `buf`: the byte count and, when the kernel
/// stamped it, the wall-clock time since the Unix epoch at which the last
/// segment read arrived.
pub fn recv_stamped(fd: RawFd, buf: &mut [u8]) -> std::io::Result<(usize, Option<Duration>)> {
    let mut control = [0u64; 8];
    let mut iov = IoVec {
        base: buf.as_mut_ptr().cast(),
        len: buf.len(),
    };
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: std::mem::size_of_val(&control),
        flags: 0,
    };
    // SAFETY: `msg` points at live buffers of the lengths it states.
    let n = unsafe { recvmsg(fd, &mut msg, 0) };
    if n < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // Walk the control messages the kernel wrote (8-byte aligned).
    let bytes: Vec<u8> = control.iter().flat_map(|w| w.to_ne_bytes()).collect();
    let filled = msg.controllen.min(bytes.len());
    let word = |at: usize| u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let mut at = 0;
    let mut stamp = None;
    while at + CMSG_HDR <= filled {
        let len = word(at) as usize;
        let level = i32::from_ne_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes"));
        let kind = i32::from_ne_bytes(bytes[at + 12..at + 16].try_into().expect("4 bytes"));
        if len < CMSG_HDR {
            break;
        }
        if level == SOL_SOCKET && kind == SO_TIMESTAMPNS && at + CMSG_HDR + 16 <= filled {
            let (secs, nanos) = (word(at + CMSG_HDR), word(at + CMSG_HDR + 8));
            stamp = Some(Duration::new(secs, nanos as u32));
        }
        at += (len + 7) & !7;
    }
    Ok((n as usize, stamp))
}

/// Seconds the hypervisor has taken `cpu` away from this guest since boot
/// (the steal column of `/proc/stat`), or `None` where it is not reported.
pub fn steal_secs(cpu: usize) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let prefix = format!("cpu{cpu} ");
    let line = stat.lines().find(|l| l.starts_with(&prefix))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    // SAFETY: `sysconf` has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then(|| ticks / hz as f64)
}
