//! CPU placement for the serving workloads: the server's threads on one
//! CPU, the load generator on another.
//!
//! Left to the scheduler, the generator and the shard worker sometimes
//! share a CPU and sometimes do not, for a whole run at a time. On the
//! reference box the open-loop median latency was about 200 us in the first
//! case and 270-310 us in the second (waking a thread on another virtual
//! CPU costs an interrupt through the hypervisor), a 27% spread between
//! runs of the same code. The standard library has no affinity call, so
//! this declares the two libc functions it needs; where they are missing or
//! refused, placement stays with the scheduler.

/// The kernel's `cpu_set_t`: 1024 bits.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: pid 0 names the calling thread; `mask` is a live, writable
        // buffer of exactly the `cpusetsize` bytes passed, which is all the
        // call writes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: pid 0 names the calling thread; `mask` is a live buffer of
        // exactly the `cpusetsize` bytes passed, which the call only reads.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

fn only(cpu: usize) -> Mask {
    let mut mask: Mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// Two CPUs this process may run on, and the mask to give back afterwards.
pub struct Placement {
    original: Mask,
    generator_cpu: usize,
    server_cpu: usize,
}

impl Placement {
    /// `None` when the process may use fewer than two CPUs or the platform
    /// has no affinity call: everything then runs where the scheduler puts it.
    pub fn detect() -> Option<Placement> {
        let original = sys::get()?;
        let mut cpus = (0..1024).filter(|c| original[c / 64] >> (c % 64) & 1 == 1);
        Some(Placement {
            original,
            generator_cpu: cpus.next()?,
            server_cpu: cpus.next()?,
        })
    }

    /// Runs `spawn` with this thread confined to the server's CPU, so every
    /// thread it starts inherits that CPU, then confines this thread (the
    /// load generator) to the other one.
    pub fn spawn_server<T>(&self, spawn: impl FnOnce() -> T) -> T {
        sys::set(&only(self.server_cpu));
        let spawned = spawn();
        sys::set(&only(self.generator_cpu));
        spawned
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        sys::set(&self.original);
    }
}

/// [`Placement::spawn_server`] when a placement exists, plain `spawn()`
/// otherwise.
pub fn spawn_server<T>(placement: Option<&Placement>, spawn: impl FnOnce() -> T) -> T {
    match placement {
        Some(p) => p.spawn_server(spawn),
        None => spawn(),
    }
}
