package rfdet_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"rfdet"
	"rfdet/internal/core"
	"rfdet/internal/harness"
	"rfdet/internal/workloads"
)

// withWatchdog runs fn beside a timer. An abort that strands a thread shows
// up as a run that never returns; tier 1 runs without -timeout, so without
// the timer such a hang costs the suite its ten minutes. When the timer
// fires, the test fails with every goroutine's stack, which shows where each
// thread of the hung execution is parked.
func withWatchdog(t *testing.T, limit time.Duration, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		buf := make([]byte, 1<<20)
		t.Fatalf("no result after %v: an abort left a thread behind. Goroutines:\n%s",
			limit, buf[:runtime.Stack(buf, true)])
	}
}

// Double-free litmus: an allocator failure must surface as an error from Run
// on every runtime — the recoverable-abort path — never as an unrecovered
// panic that kills the host process, and never as a hang of the failing
// thread's peers.
func TestDoubleFreeAbortsRecoverably(t *testing.T) {
	runtimes := []rfdet.Runtime{
		rfdet.NewCI(),
		rfdet.NewPF(),
		rfdet.NewDThreads(),
		rfdet.NewCoreDet(1000),
		rfdet.NewPThreads(),
	}
	for _, rt := range runtimes {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			_, err := rt.Run(func(th rfdet.Thread) {
				a := th.Malloc(64)
				th.Free(a)
				th.Free(a) // double free
			})
			if err == nil {
				t.Fatal("double free must fail the run")
			}
			if !strings.Contains(err.Error(), "free") {
				t.Fatalf("error %q does not describe the allocator failure", err)
			}
		})
	}
}

// The same, with peer threads blocked on synchronization the failing thread
// will never provide: the abort must unwind them so Run returns, rather than
// leaving the execution deadlocked behind the dead thread. Where the abort
// lands in the waiter's Wait — before its turn, inside the monitor section,
// between the section and the sleep, asleep — is up to the host, so the
// program runs many times.
func TestDoubleFreeUnblocksPeers(t *testing.T) {
	runtimes := []rfdet.Runtime{
		rfdet.NewCI(),
		rfdet.NewDThreads(),
		rfdet.NewPThreads(),
	}
	for _, rt := range runtimes {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			withWatchdog(t, 10*time.Second, func() error {
				for i := 0; i < 300; i++ {
					_, err := rt.Run(func(th rfdet.Thread) {
						mu, cond := rfdet.Addr(64), rfdet.Addr(128)
						flag := th.Malloc(8)
						waiter := th.Spawn(func(c rfdet.Thread) {
							c.Lock(mu)
							for c.Load64(flag) == 0 {
								c.Wait(cond, mu) // never signaled: main dies first
							}
							c.Unlock(mu)
						})
						a := th.Malloc(64)
						th.Free(a)
						th.Free(a) // double free while the waiter blocks
						th.Join(waiter)
					})
					if err == nil {
						return fmt.Errorf("run %d: double free must fail the run", i)
					}
				}
				return nil
			})
		})
	}
}

// TestServerReplicaAbortUnwinds is the server-shaped abort litmus: a replica
// whose request log injects a failing request (a zero-count barrier fired
// mid-service, with peer workers blocked on the condvar queue and the
// end-of-run barrier) must unwind cleanly — Run returns the recoverable
// abort, nothing hangs — and the replica checker must report it as
// divergent-by-abort while the clean replicas still agree byte-for-byte.
// This extends the kernel-level abort tests above to a full workload where
// the abort lands inside a lock/queue/barrier web.
func TestServerReplicaAbortUnwinds(t *testing.T) {
	cfg := workloads.Config{Threads: 4, Size: workloads.SizeTest}
	opts := core.DefaultOptions()
	variants := []harness.ReplicaVariant{
		{Name: "clean-a", Opts: opts},
		{Name: "poisoned", Opts: opts, InjectAbort: true},
		{Name: "clean-b", Opts: opts},
	}
	withWatchdog(t, 10*time.Second, func() error {
		for round := 0; round < 8; round++ {
			rep := harness.RunServerReplicas(cfg, workloads.DefaultServerSeed, variants)
			if len(rep.Divergences) != 1 {
				return fmt.Errorf("round %d: divergences %v — want exactly the injected abort, with clean replicas agreeing",
					round, rep.Divergences)
			}
			if !strings.Contains(rep.Divergences[0], "divergent-by-abort") {
				return fmt.Errorf("round %d: divergence %q not classified as abort", round, rep.Divergences[0])
			}
			poisoned := rep.Runs[1]
			if poisoned.Err == nil || !strings.Contains(poisoned.Err.Error(), "barrier with count") {
				return fmt.Errorf("round %d: poisoned replica error = %v, want the zero-count barrier abort",
					round, poisoned.Err)
			}
			for _, i := range []int{0, 2} {
				run := rep.Runs[i]
				if run.Err != nil {
					return fmt.Errorf("round %d: clean replica %d errored: %v", round, i, run.Err)
				}
				if run.Summary.StateHash != rep.Runs[0].Summary.StateHash ||
					run.Summary.ResponseHash != rep.Runs[0].Summary.ResponseHash {
					return fmt.Errorf("round %d: clean replicas disagree after the abort", round)
				}
			}
		}
		return nil
	})
}

// TestZeroCountBarrierAborts pins the pre-turn abort path: Barrier with a
// non-positive count fails before taking the deterministic turn or entering
// the monitor, so the abort reaches the runtime from outside every in-turn
// code path. The run must fail recoverably — and must unwind peers blocked
// on locks, condvars and joins at the moment the abort lands, or on their way
// into such a block: which of the two is up to the host, so the program runs
// 2,000 times. Before the commit monitor became one mutex again this hung
// about once per 2,000 runs (DESIGN.md §13).
func TestZeroCountBarrierAborts(t *testing.T) {
	rt := rfdet.New(rfdet.DefaultOptions())
	withWatchdog(t, 10*time.Second, func() error {
		for i := 0; i < 2000; i++ {
			_, err := rt.Run(func(th rfdet.Thread) {
				mu, cond, bar := rfdet.Addr(64), rfdet.Addr(128), rfdet.Addr(192)
				flag := th.Malloc(8)
				holder := th.Spawn(func(c rfdet.Thread) {
					c.Lock(mu)
					for c.Load64(flag) == 0 {
						c.Wait(cond, mu) // never signaled: main aborts first
					}
					c.Unlock(mu)
				})
				th.Spawn(func(c rfdet.Thread) {
					c.Tick(1000)
					c.Lock(mu) // queued behind holder forever
					c.Unlock(mu)
				})
				th.Spawn(func(c rfdet.Thread) {
					c.Join(holder) // blocked on a thread that never exits
				})
				th.Tick(100000) // let every peer reach its blocking point
				th.Barrier(bar, 0)
			})
			if err == nil {
				return fmt.Errorf("run %d: zero-count barrier must fail the run", i)
			}
			if !strings.Contains(err.Error(), "barrier with count") {
				return fmt.Errorf("run %d: error %q does not describe the barrier misuse", i, err)
			}
		}
		return nil
	})
}

// TestTooManyThreadsAborts: the thread table is bounded by the allocator's
// per-thread heaps, and the Spawn that would exceed it fails the run with a
// classified error from inside its monitor section.
func TestTooManyThreadsAborts(t *testing.T) {
	withWatchdog(t, 10*time.Second, func() error {
		_, err := rfdet.NewCI().Run(func(th rfdet.Thread) {
			for i := 0; i < 1100; i++ {
				th.Join(th.Spawn(func(rfdet.Thread) {}))
			}
		})
		if err == nil || !strings.Contains(err.Error(), "thread 0: too many threads (max 1024)") {
			return fmt.Errorf("error = %v, want the too-many-threads abort", err)
		}
		return nil
	})
}
