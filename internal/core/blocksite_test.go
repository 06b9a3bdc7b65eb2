package core

import (
	"reflect"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/trace"
)

// The block site is stored as kind + operands and formatted only by its two
// readers — the deadlock message and the traced block span's Detail. These
// tests pin both texts byte for byte.

// TestDeadlockMessageText drives a two-thread ABBA deadlock: main holds A and
// blocks on B, the child holds B and blocks on A. Kendo orders the child's two
// locks before main's second one (main ticks past it), so main is the thread
// that completes the deadlock and the message is a pure function of the
// program.
func TestDeadlockMessageText(t *testing.T) {
	const a, b = api.Addr(64), api.Addr(128)
	_, err := New(DefaultOptions()).Run(func(th api.Thread) {
		th.Lock(a)
		th.Spawn(func(c api.Thread) {
			c.Lock(b)
			c.Lock(a)
		})
		th.Tick(1000)
		th.Lock(b)
	})
	const want = "rfdet: deterministic deadlock: all 2 live threads blocked: thread 0: lock 0x80, thread 1: lock 0x40"
	if err == nil || err.Error() != want {
		t.Fatalf("deadlock error\n got %v\nwant %s", err, want)
	}
}

// TestBlockSpanDetailText blocks once at each kind of site — lock, cond wait,
// barrier, join — and checks the Detail of every PhaseBlock span, per thread
// in program order.
func TestBlockSpanDetailText(t *testing.T) {
	const mu, cv, bar = api.Addr(64), api.Addr(128), api.Addr(192)
	opts := DefaultOptions()
	opts.PhaseTrace = true
	rep := run(t, opts, func(th api.Thread) {
		flag := th.Malloc(8)
		th.Lock(mu)
		id := th.Spawn(func(c api.Thread) {
			c.Lock(mu) // held by main: "lock"
			for c.Load64(flag) == 0 {
				c.Wait(cv, mu) // "cond wait"
			}
			c.Unlock(mu)
			c.Barrier(bar, 2) // first arrival: "barrier"
			c.Tick(5000)
		})
		th.Tick(1000)
		th.Unlock(mu)
		th.Tick(1000)
		th.Lock(mu)
		th.Store64(flag, 1)
		th.Signal(cv)
		th.Unlock(mu)
		th.Tick(1000)
		th.Barrier(bar, 2)
		th.Join(id) // child still ticking: "join"
	})
	got := map[int][]string{}
	for _, tl := range rep.Phases.Threads {
		for _, s := range tl.Spans {
			if s.Phase == trace.PhaseBlock {
				got[tl.ID] = append(got[tl.ID], s.Detail)
			}
		}
	}
	want := map[int][]string{
		0: {"join of thread 1"},
		1: {"lock 0x40", "cond wait 0x80 (mutex 0x40)", "barrier 0xc0 (1/2)"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("block span details\n got %q\nwant %q", got, want)
	}
}
