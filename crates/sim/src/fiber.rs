//! Minimal stackful coroutines ("fibers") for inline rank execution.
//!
//! Each simulated rank owns a [`Fiber`]: an `mmap`ed stack plus a saved
//! machine context. The kernel *resumes* a fiber on its own thread to run
//! the rank until the rank yields back (via [`yield_now`]) with its next
//! request, so a switch is a function-call-sized register swap with no OS
//! involvement.
//!
//! The implementation is deliberately tiny: a hand-rolled x86-64 System V
//! context switch (callee-saved registers + `mxcsr`/x87 control word) written
//! with `global_asm!`. Every stack sits above a `PROT_NONE` guard page, so a
//! rank that overflows its stack faults deterministically (the process dies
//! by `SIGSEGV`) instead of silently overwriting neighbouring memory. Stacks
//! are reserved lazily: only the pages a rank actually touches become
//! resident, so the default 8 MiB — what the 1:1 thread mode gives each
//! rank — costs address space, not memory. On hosts other than x86-64
//! Linux [`SUPPORTED`] is `false` and the simulator falls back to one OS
//! thread per rank.

#![cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux")),
    allow(dead_code)
)]

/// Whether this build can run fibers at all.
pub(crate) const SUPPORTED: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use imp::{yield_now, Fiber};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use fallback::{yield_now, Fiber};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use std::cell::Cell;
    use std::ffi::{c_int, c_void};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::ptr;

    // The context switch saves the System V callee-saved integer registers
    // plus the SSE and x87 control words (their callee-saved portions), then
    // swaps stacks. Frame layout at a saved stack pointer, low to high:
    //
    //   rsp + 0   mxcsr (4 bytes) | x87 control word (2 bytes) | pad
    //   rsp + 8   r15
    //   rsp + 16  r14
    //   rsp + 24  r13
    //   rsp + 32  r12
    //   rsp + 40  rbx
    //   rsp + 48  rbp
    //   rsp + 56  return address
    //
    // A brand-new fiber's frame is forged by `Fiber::new` so that the first
    // switch "returns" into `numagap_fiber_trampoline` with the control-block
    // pointer in r12 and the entry shim in r13.
    std::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl numagap_fiber_switch",
        "numagap_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".balign 16",
        ".globl numagap_fiber_trampoline",
        "numagap_fiber_trampoline:",
        "mov rdi, r12",
        "call r13",
        "ud2",
    );

    extern "C" {
        /// Saves the current context's stack pointer through `save` and
        /// resumes the context whose saved stack pointer is `restore_rsp`.
        fn numagap_fiber_switch(save: *mut usize, restore_rsp: usize);
        fn numagap_fiber_trampoline();
    }

    // The C library std already links; declared here rather than pulling in
    // a bindings crate for three calls.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const MAP_STACK: c_int = 0x20000;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
    /// The x86-64 Linux base page size: the guard's extent and the stack's
    /// rounding granule.
    const PAGE: usize = 4096;

    /// A fiber stack: one anonymous mapping whose lowest page is the guard.
    struct Stack {
        base: *mut u8,
        len: usize,
    }

    impl Stack {
        /// Maps `usable` bytes (rounded up to whole pages) of stack above a
        /// `PROT_NONE` guard page.
        fn new(usable: usize) -> Self {
            let len = usable
                .checked_next_multiple_of(PAGE)
                .and_then(|n| n.checked_add(PAGE))
                .expect("fiber stack size overflows the address space");
            // SAFETY: a fresh private anonymous mapping aliases nothing.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1,
                    0,
                )
            };
            assert!(
                base != MAP_FAILED,
                "mmap of a {len}-byte fiber stack failed: {}",
                std::io::Error::last_os_error()
            );
            let stack = Stack {
                base: base.cast(),
                len,
            };
            // SAFETY: the first page lies inside the mapping just created.
            let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
            assert!(
                rc == 0,
                "installing a fiber stack guard page failed: {}",
                std::io::Error::last_os_error()
            );
            stack
        }

        /// One past the highest usable byte (stacks grow down from here).
        fn top(&self) -> usize {
            self.base as usize + self.len
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping `new` created; nothing runs
            // on it any more.
            unsafe { munmap(self.base.cast(), self.len) };
        }
    }

    /// Per-fiber control block, carved out of the top of the fiber's own
    /// stack so a `Fiber` is a single mapping.
    struct Control {
        /// Saved stack pointer of the fiber while it is suspended.
        fiber_rsp: usize,
        /// Saved stack pointer of whoever resumed the fiber.
        caller_rsp: usize,
        /// Set by the fiber just before its final switch back.
        finished: bool,
        /// The rank body; taken by the trampoline on first resume.
        entry: Option<Box<dyn FnOnce()>>,
    }

    thread_local! {
        /// Control block of the fiber currently running on this thread, if
        /// any. `yield_now` uses it to find its way back to the resumer.
        static CURRENT: Cell<*mut Control> = const { Cell::new(ptr::null_mut()) };
    }

    /// A suspended, resumable execution context with its own stack.
    ///
    /// Deliberately neither `Send` nor `Sync`: a fiber lives and runs on the
    /// thread that created it.
    pub(crate) struct Fiber {
        ctl: *mut Control,
        stack: Stack,
    }

    impl std::fmt::Debug for Fiber {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Fiber")
                .field("stack_bytes", &(self.stack.len - PAGE))
                .finish_non_exhaustive()
        }
    }

    /// Default mxcsr: all exceptions masked, round-to-nearest (the value
    /// `rustc`-generated code expects on function entry).
    const MXCSR_INIT: u64 = 0x1F80;
    /// Default x87 control word: all exceptions masked, 64-bit precision,
    /// round-to-nearest.
    const FPCW_INIT: u64 = 0x037F;

    const fn round_up16(n: usize) -> usize {
        (n + 15) & !15
    }

    extern "C" fn fiber_entry(ctl: *mut Control) {
        // SAFETY: the trampoline passes the control-block pointer forged by
        // `Fiber::new`; the block outlives the fiber's whole run.
        let ctl_ref = unsafe { &mut *ctl };
        let entry = ctl_ref
            .entry
            .take()
            .expect("fiber resumed twice through its trampoline");
        // Backstop: the kernel wraps rank bodies in their own catch_unwind,
        // so this one should never see a payload — but a panic escaping
        // through the forged assembly frame would be undefined behaviour, so
        // catch it unconditionally.
        if catch_unwind(AssertUnwindSafe(entry)).is_err() {
            std::process::abort();
        }
        ctl_ref.finished = true;
        let caller = ctl_ref.caller_rsp;
        // SAFETY: switching back to the resumer; both saved contexts are
        // live.
        unsafe { numagap_fiber_switch(&mut ctl_ref.fiber_rsp, caller) };
        // A finished fiber must never be resumed again.
        std::process::abort();
    }

    impl Fiber {
        /// Creates a fiber that will run `entry` on its own `stack_size`-byte
        /// stack when first resumed. The closure must not unwind (the
        /// kernel wraps rank bodies in `catch_unwind`).
        pub(crate) fn new(stack_size: usize, entry: Box<dyn FnOnce()>) -> Self {
            let ctl_space = round_up16(std::mem::size_of::<Control>());
            let stack = Stack::new(stack_size.max(ctl_space + PAGE));
            // The control block sits at the very top of the mapping; the
            // usable stack grows down from just below it.
            let sp0 = stack.top() - ctl_space;
            let ctl = sp0 as *mut Control;
            // SAFETY: `ctl` is 16-aligned, in-bounds, and has `ctl_space`
            // bytes of room.
            unsafe {
                ptr::write(
                    ctl,
                    Control {
                        fiber_rsp: 0,
                        caller_rsp: 0,
                        finished: false,
                        entry: Some(entry),
                    },
                );
            }
            // Forge the initial switch frame (see the asm comment for the
            // layout). After the first switch "returns" into the trampoline
            // the stack pointer is `sp0`, 16-aligned, so the `call r13`
            // leaves the entry shim with the ABI-required alignment.
            let seed = |offset: usize, value: u64| {
                // SAFETY: all seeded slots lie in `[sp0 - 64, sp0)`, inside
                // the mapping, above the guard and below the control block.
                unsafe { ptr::write((sp0 - offset) as *mut u64, value) };
            };
            seed(8, numagap_fiber_trampoline as *const () as usize as u64);
            seed(16, 0); // rbp
            seed(24, 0); // rbx
            seed(32, ctl as u64); // r12 -> control block
            seed(
                40,
                fiber_entry as extern "C" fn(*mut Control) as usize as u64,
            ); // r13
            seed(48, 0); // r14
            seed(56, 0); // r15
            seed(64, MXCSR_INIT | (FPCW_INIT << 32));
            // SAFETY: ctl was just initialised.
            unsafe { (*ctl).fiber_rsp = sp0 - 64 };
            Fiber { ctl, stack }
        }

        /// Runs the fiber until it yields or finishes. Returns `true` once
        /// the fiber's entry closure has returned; resuming after that
        /// aborts.
        pub(crate) fn resume(&mut self) -> bool {
            let ctl = self.ctl;
            let prev = CURRENT.with(|c| c.replace(ctl));
            // SAFETY: the fiber is suspended (its saved context is valid) and
            // `&mut self` makes this the only resume; the switch saves this
            // context into `caller_rsp` before jumping.
            unsafe {
                let caller = ptr::addr_of_mut!((*ctl).caller_rsp);
                let target = (*ctl).fiber_rsp;
                numagap_fiber_switch(caller, target);
            }
            CURRENT.with(|c| c.set(prev));
            // SAFETY: the control block stays valid for the fiber's lifetime.
            unsafe { (*ctl).finished }
        }

        /// The lowest usable stack address; the guard page lies below it.
        #[cfg(test)]
        pub(crate) fn stack_bottom(&self) -> usize {
            self.stack.base as usize + PAGE
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            // In normal operation the fiber is either never started (entry
            // still present — drop it with the control block) or finished.
            // The kernel unwinds every suspended rank before it returns, so
            // a suspended fiber is dropped only when the kernel itself
            // panics; its stack is unmapped without being resumed, so values
            // living on it leak — safe, since it can never run again.
            // SAFETY: the control block lives in the mapping `self.stack`
            // still owns; it is unmapped only after this drop runs.
            unsafe { ptr::drop_in_place(self.ctl) };
        }
    }

    /// Suspends the currently running fiber, returning control to whoever
    /// resumed it. Panics when called from outside a fiber.
    pub(crate) fn yield_now() {
        let ctl = CURRENT.with(Cell::get);
        assert!(
            !ctl.is_null(),
            "fiber::yield_now called outside a fiber context"
        );
        // SAFETY: `ctl` is the live control block of the fiber running on
        // this very thread; `caller_rsp` was saved by the resume that got us
        // here.
        unsafe {
            let save = ptr::addr_of_mut!((*ctl).fiber_rsp);
            let target = (*ctl).caller_rsp;
            numagap_fiber_switch(save, target);
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod fallback {
    //! Inert stand-in so the crate compiles on other hosts; the kernel
    //! checks [`super::SUPPORTED`] and never constructs one of these there.

    /// Unreachable placeholder for the real fiber type.
    pub(crate) struct Fiber {}

    impl std::fmt::Debug for Fiber {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Fiber").finish_non_exhaustive()
        }
    }

    impl Fiber {
        pub(crate) fn new(_stack_size: usize, _entry: Box<dyn FnOnce()>) -> Self {
            unreachable!("fibers are not supported on this host")
        }

        pub(crate) fn resume(&mut self) -> bool {
            unreachable!("fibers are not supported on this host")
        }
    }

    pub(crate) fn yield_now() {
        unreachable!("fibers are not supported on this host")
    }
}

#[cfg(all(test, not(loom), target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn fiber_runs_to_completion() {
        let hits = Rc::new(Cell::new(0));
        let h = Rc::clone(&hits);
        let mut f = Fiber::new(64 * 1024, Box::new(move || h.set(h.get() + 1)));
        assert!(f.resume());
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn fiber_yields_and_resumes_preserving_state() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let mut f = Fiber::new(
            64 * 1024,
            Box::new(move || {
                let mut local = 10u64;
                l.borrow_mut().push(local);
                yield_now();
                local += 1;
                l.borrow_mut().push(local);
                yield_now();
                local += 1;
                l.borrow_mut().push(local);
            }),
        );
        assert!(!f.resume());
        assert!(!f.resume());
        assert!(f.resume());
        assert_eq!(*log.borrow(), vec![10, 11, 12]);
    }

    #[test]
    fn never_started_fiber_drops_cleanly() {
        struct NoteDrop(Rc<Cell<usize>>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        let note = NoteDrop(Rc::clone(&drops));
        let f = Fiber::new(
            64 * 1024,
            Box::new(move || {
                let _keep = &note;
            }),
        );
        drop(f);
        assert_eq!(drops.get(), 1);
    }

    #[test]
    fn float_state_survives_switches() {
        let out = Rc::new(Cell::new(0.0f64));
        let o = Rc::clone(&out);
        let mut f = Fiber::new(
            64 * 1024,
            Box::new(move || {
                let mut acc = 1.0f64 / 3.0;
                yield_now();
                acc += 2.5;
                yield_now();
                acc *= 3.0;
                o.set(acc);
            }),
        );
        while !f.resume() {}
        assert_eq!(out.get(), (1.0f64 / 3.0 + 2.5) * 3.0);
    }

    /// Recurses with a 256-byte frame until a frame lands below `floor`.
    fn dive(floor: usize) -> u64 {
        let frame = std::hint::black_box([7u8; 256]);
        if frame.as_ptr() as usize <= floor {
            return u64::from(frame[0]);
        }
        dive(floor) + u64::from(frame[1])
    }

    /// Set in the child process that performs the deliberate overflow.
    const OVERFLOW_CHILD: &str = "NUMAGAP_FIBER_OVERFLOW_CHILD";

    /// Overflowing a fiber stack must hit the guard page and kill the
    /// process with SIGSEGV — never scribble over adjacent memory. The
    /// overflow runs in a child copy of this test binary so the fault does
    /// not take the test runner down with it. The recursion stops half a
    /// page below the usable stack, so without a guard it would write into
    /// whatever lies below and return normally.
    #[test]
    fn stack_overflow_faults_on_the_guard_page() {
        use std::os::unix::process::ExitStatusExt;
        if std::env::var_os(OVERFLOW_CHILD).is_some() {
            let floor = Rc::new(Cell::new(0));
            let target = Rc::clone(&floor);
            let mut f = Fiber::new(
                64 * 1024,
                Box::new(move || {
                    std::hint::black_box(dive(target.get()));
                }),
            );
            floor.set(f.stack_bottom() - 2048);
            f.resume();
            unreachable!("a 64 KiB fiber wrote below its stack");
        }
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args([
                "fiber::tests::stack_overflow_faults_on_the_guard_page",
                "--exact",
                "--test-threads=1",
            ])
            .env(OVERFLOW_CHILD, "1")
            .output()
            .expect("re-running the test binary");
        assert_eq!(
            out.status.signal(),
            Some(11),
            "child should die by SIGSEGV, got {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
