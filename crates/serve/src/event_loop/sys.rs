use std::io;
use std::os::raw::{c_int, c_void};

/// One epoll readiness record. The kernel packs `struct epoll_event`
/// on x86-64 *only*; every other Linux arch lays it out naturally
/// aligned (4 padding bytes after `events`, `data` at offset 8). The
/// repr must mirror the kernel's per-arch layout or every record after
/// the first in an `epoll_wait` batch is read at the wrong offset. On
/// the packed arch, field reads must copy (never borrow) — both fields
/// are plain integers, which keeps that invisible.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// The caller's token, echoed back verbatim.
    pub data: u64,
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const O_NONBLOCK: c_int = 0o4000;
const O_CLOEXEC: c_int = 0o2000000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// An owned epoll instance.
pub struct Epoll {
    fd: c_int,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: c_int, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        if unsafe { epoll_ctl(self.fd, op, fd, &mut ev) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn add(&self, fd: c_int, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&self, fd: c_int, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn delete(&self, fd: c_int) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks up to `timeout_ms` for readiness, retrying on `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// A non-blocking self-pipe: completing threads write a byte to wake the
/// poller out of `epoll_wait`; the poller drains it on wakeup.
pub struct WakePipe {
    read_fd: c_int,
    write_fd: c_int,
}

impl WakePipe {
    pub fn new() -> io::Result<WakePipe> {
        let mut fds: [c_int; 2] = [0; 2];
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe { read_fd: fds[0], write_fd: fds[1] })
    }

    pub fn read_fd(&self) -> c_int {
        self.read_fd
    }

    /// Writes one wake byte. Failure (pipe full) means a wake is already
    /// pending — exactly as good.
    pub fn wake(&self) {
        let byte = [1u8];
        // SAFETY: `write_fd` is this pipe's write end, open until `self`
        // drops, and `byte` is one readable byte.
        let _ = unsafe { write(self.write_fd, byte.as_ptr() as *const c_void, 1) };
    }

    /// Empties the pipe. A full pipe means a wake is already pending, so
    /// short reads and `EAGAIN` are both fine.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}
