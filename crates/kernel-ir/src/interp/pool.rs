//! Parked helper threads for the sharded group loop: each submitting
//! thread keeps its own helpers, spawned on first need and reused by every
//! later launch, so a launch pays a wake-up per helper instead of a thread
//! spawn. The helpers exit with the thread that owns them.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A job borrowed from the submitter's stack, its lifetime erased. The
/// submitter waits for every helper it handed the job to before the
/// borrow ends, on return and on unwinding alike ([`run`]).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync + 'static));

// SAFETY: the job is `Sync`, so running it from another thread is sound;
// the pointer only travels to a helper while the submitter keeps it alive.
unsafe impl Send for Job {}

/// What one helper and its owner exchange.
#[derive(Default)]
struct State {
    job: Option<Job>,
    /// The last job's outcome, until the owner collects it.
    outcome: Option<Result<(), Box<dyn Any + Send>>>,
    exit: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One parked helper thread.
struct Helper {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> std::io::Result<Helper> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
        });
        let theirs = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("interp-helper".into())
            .spawn(move || park(&theirs))?;
        Ok(Helper {
            shared,
            thread: Some(thread),
        })
    }

    fn start(&self, job: Job) {
        self.shared.lock().job = Some(job);
        self.shared.wake.notify_all();
    }

    /// Wait for the job [`start`](Self::start) handed over to finish.
    fn finish(&self) -> Result<(), Box<dyn Any + Send>> {
        let mut state = self.shared.lock();
        loop {
            if let Some(outcome) = state.outcome.take() {
                return outcome;
            }
            state = self.shared.wait(state);
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.shared.lock().exit = true;
        self.shared.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            // A helper never unwinds: its jobs' panics are caught.
            let _ = thread.join();
        }
    }
}

/// A helper's life: run each job handed over, report its outcome, park.
fn park(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if state.exit {
            return;
        }
        match state.job.take() {
            Some(job) => {
                drop(state);
                // SAFETY: the owner keeps the job alive until it has read
                // this outcome.
                let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
                state = shared.lock();
                state.outcome = Some(outcome);
                shared.wake.notify_all();
            }
            None => state = shared.wait(state),
        }
    }
}

thread_local! {
    /// The calling thread's helpers, joined when it exits.
    static HELPERS: RefCell<Vec<Helper>> = const { RefCell::new(Vec::new()) };
}

/// Run `job` on the calling thread and on up to `helpers` of its parked
/// helpers at once (fewer if the host refuses to spawn more), and return
/// once every run has finished. A panic of any run, a helper's or the
/// caller's, resumes on the caller after all of them have finished; the
/// helpers stay parked for the next call.
pub(crate) fn run(helpers: usize, job: &(dyn Fn() + Sync)) {
    if helpers == 0 {
        return job();
    }
    // Taken out while the job runs: a nested call spawns its own.
    let Ok(mut pool) = HELPERS.try_with(|h| std::mem::take(&mut *h.borrow_mut())) else {
        return job();
    };
    while pool.len() < helpers {
        match Helper::spawn() {
            Ok(helper) => pool.push(helper),
            Err(_) => break,
        }
    }
    let used = &pool[..helpers.min(pool.len())];
    // SAFETY: only the lifetime is erased; every helper in `used` finishes
    // the job below before `job`'s borrow ends, even if it panics.
    let erased = Job(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
            job,
        )
    });
    for helper in used {
        helper.start(erased);
    }
    let mut panic = catch_unwind(AssertUnwindSafe(job)).err();
    for helper in used {
        if let Err(p) = helper.finish() {
            panic.get_or_insert(p);
        }
    }
    let _ = HELPERS.try_with(|h| {
        let mut kept = h.borrow_mut();
        if kept.len() < pool.len() {
            std::mem::swap(&mut *kept, &mut pool);
        }
    });
    drop(pool);
    if let Some(p) = panic {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The threads that run a job on the caller and two helpers.
    fn runners() -> HashSet<std::thread::ThreadId> {
        let seen = Mutex::new(HashSet::new());
        run(2, &|| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn a_panicking_job_propagates_and_the_pool_stays_usable() {
        let parked = || HELPERS.with(|h| h.borrow().len());
        let first = runners();
        assert_eq!(first.len(), 3);
        assert_eq!(parked(), 2);
        let caller = std::thread::current().id();
        for panics_on_caller in [false, true] {
            let runs = AtomicUsize::new(0);
            let job = || {
                runs.fetch_add(1, Ordering::SeqCst);
                if (std::thread::current().id() == caller) == panics_on_caller {
                    panic!("job fails");
                }
            };
            let err = catch_unwind(AssertUnwindSafe(|| run(2, &job))).expect_err("a panic");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"job fails"));
            // Every run finished before the panic resumed.
            assert_eq!(runs.load(Ordering::SeqCst), 3);
            // The same helpers run the next job.
            assert_eq!(runners(), first);
            assert_eq!(parked(), 2);
        }
    }
}
