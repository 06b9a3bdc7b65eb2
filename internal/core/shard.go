package core

import (
	"sync"

	"rfdet/internal/api"
	"rfdet/internal/trace"
	"rfdet/internal/vclock"
)

// The sharded commit monitor.
//
// The seed serialized every synchronization operation on one global mutex
// (the §4.1 monitor). PRs 1-3 moved diffing, plan building and application
// off that lock; what remained under it — syncVar mutation, clock joins,
// slice-pointer collection — still funneled all threads through a single
// cache line and a single futex. This file splits that state into per-
// address-range domains: each monShard owns the syncVar table for the
// sync-var addresses mapping to it, its own mutex, and a Louvre-style
// versioned release frontier (vclock.Frontier). Hot operations — Lock,
// Unlock, Wait, Signal/Broadcast, atomics — lock only the domain(s) owning
// their variables; thread lifecycle (spawn/join/exit), barriers, and GC
// take the slow-path global rendezvous (every domain plus exec.mu).
//
// Why sharding cannot change any deterministic observable: every mutation
// of monitor-guarded state is performed while holding the deterministic
// Kendo turn, and turn handoff goes through sync/atomic operations, so the
// turn itself already both totally orders and happens-before-orders all
// such mutations. The domain mutexes exist for the residual windows the
// turn does not cover — the abort path (exec.fail takes only exec.mu) and
// the tail of an operation between its clock tick and its mutex release —
// not for the determinism argument. The vector-clock math is untouched, so
// outputs, virtual times and traces are bit-identical for every ShardCount
// (asserted by TestFuzzShardCountAgrees and the seed-regression goldens).
//
// Lock order (deadlock freedom): domain mutexes in ascending shard id,
// then exec.mu last. A holder of exec.mu never waits on anything, and a
// holder of domain i only ever takes domains > i or exec.mu, so the
// wait-for graph is acyclic. Hot paths may take exec.mu while holding
// their domain (GC requests, abort); the rendezvous takes everything in
// the same ascending order.
type monShard struct {
	//detvet:notguarded assigned once at startup, immutable thereafter
	id int
	//detvet:lockorder 10
	mu sync.Mutex //detvet:nativesync one commit-monitor domain (§4.1 sharded); taken only in ascending shard order, before exec.mu.
	// syncvars is the domain's slice of the internal synchronization
	// variable table: every api.Addr with shardFor(a) == this shard.
	//detvet:guardedby mu
	syncvars map[api.Addr]*syncVar
	// frontier is the domain's Louvre-style versioned release frontier:
	// advanced on every release performed in the domain, its version
	// stamped into the release record (syncVar.lastVer). Cross-domain
	// acquires join release timestamps that the stamping domain's frontier
	// covers at the stamped version — the invariant validateLocked checks.
	//detvet:guardedby mu
	frontier vclock.Frontier
	// releases counts releases stamped by this domain; crossAcquires
	// counts acquires whose happens-before edge came from a release the
	// acquirer's previous domain did not stamp. Mutated under mu,
	// aggregated into Report.Stats.
	//detvet:guardedby mu
	releases      uint64
	crossAcquires uint64 //detvet:guardedby mu
}

// maxShards bounds Options.ShardCount; beyond the core count there is
// nothing left to separate.
const maxShards = 64

// shardRangeShift is the address-range granularity of the shard map:
// consecutive 64-byte ranges map to consecutive domains, so sync vars
// packed into one structure spread across domains while a var and its
// neighbors on the same cache line stay together.
const shardRangeShift = 6

// shardFor maps a sync-var address to its owning domain.
func (e *exec) shardFor(a api.Addr) *monShard {
	return e.shards[(uint64(a)>>shardRangeShift)%uint64(len(e.shards))]
}

// syncvar returns (creating if needed) the internal synchronization
// variable at address a within this domain. Caller holds the domain mutex.
//
//detvet:holds mu
func (sh *monShard) syncvar(a api.Addr) *syncVar {
	sv, ok := sh.syncvars[a]
	if !ok {
		sv = &syncVar{owner: -1, lastTid: -1}
		sh.syncvars[a] = sv
	}
	return sv
}

// lockShard enters one commit-monitor domain on behalf of thread t,
// counting the acquisition for the contention statistics and recording the
// wait as a monitor-wait phase span (one span per logical monitor entry,
// so the span count reconciles with Stats.MonitorAcquires exactly as it
// did for the global monitor).
//
//detvet:acquires sh.mu
func (e *exec) lockShard(t *thread, sh *monShard) {
	ts := t.tb.Now()
	sh.mu.Lock()
	t.st.MonitorAcquires++
	t.tb.Span(trace.PhaseMonitorWait, ts)
}

// relockShard retakes a domain after an off-monitor work window opened
// inside a turn-held operation (endSliceDropShard, deferred propagation in
// atomicOp). If the execution aborted while the domain was released, the
// thread must unwind instead of continuing to mutate synchronization
// state — in particular it must not block, because failLocked has already
// delivered its abort wakeups.
//
//detvet:acquires sh.mu
func (e *exec) relockShard(t *thread, sh *monShard) {
	e.lockShard(t, sh)
	if e.aborted.Load() {
		sh.mu.Unlock()
		panic(errAborted)
	}
}

// lockShardSet enters a deduplicated ascending set of domains (built by
// shardSet) as one logical monitor entry.
//
//detvet:acquires *
func (e *exec) lockShardSet(t *thread, set []*monShard) {
	ts := t.tb.Now()
	for _, sh := range set {
		sh.mu.Lock()
	}
	t.st.MonitorAcquires++
	t.tb.Span(trace.PhaseMonitorWait, ts)
}

// unlockShardSet releases a set taken by lockShardSet, in reverse order.
//
//detvet:releases *
func unlockShardSet(set []*monShard) {
	for i := len(set) - 1; i >= 0; i-- {
		set[i].mu.Unlock()
	}
}

// shardSet builds the deduplicated, ascending-id domain set for a group of
// sync-var addresses into t's scratch buffer (valid until the thread's
// next shardSet call).
func (t *thread) shardSet(addrs ...api.Addr) []*monShard {
	set := t.shardScratch[:0]
	for _, a := range addrs {
		set = insertShard(set, t.exec.shardFor(a))
	}
	t.shardScratch = set
	return set
}

// insertShard inserts sh into an ascending-id set, keeping it sorted and
// deduplicated. Sets are tiny (≤ 1 + waiters woken by one signal), so
// insertion sort is the right tool.
func insertShard(set []*monShard, sh *monShard) []*monShard {
	i := 0
	for ; i < len(set); i++ {
		if set[i].id == sh.id {
			return set
		}
		if set[i].id > sh.id {
			break
		}
	}
	set = append(set, nil)
	copy(set[i+1:], set[i:])
	set[i] = sh
	return set
}

// rendezvous is the slow-path global monitor entry: every domain in
// ascending order, then exec.mu. Thread lifecycle (Spawn, Join,
// threadExit) and barriers use it because they mutate cross-domain state —
// the thread table, live/blocked accounting read by the deadlock check,
// blocked threads' spaces during the barrier merge. While a rendezvous is
// held, no hot path can be inside any domain, so the global operations see
// (and the seed-equivalence argument relies on) exactly the quiescent
// state the single global monitor provided.
//
//detvet:acquires *
func (e *exec) rendezvous(t *thread) {
	ts := t.tb.Now()
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	e.mu.Lock()
	t.holdsGlobal = true
	t.st.MonitorAcquires++
	t.st.RendezvousOps++
	t.tb.Span(trace.PhaseMonitorWait, ts)
}

// releaseRendezvous exits a rendezvous: exec.mu first, then the domains in
// descending order.
//
//detvet:releases *
func (e *exec) releaseRendezvous(t *thread) {
	t.holdsGlobal = false
	e.mu.Unlock()
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
}

// maybeGC runs a slice garbage-collection pass when a commit crossed the
// metadata threshold. The pass itself stays a global operation — it reads
// every live thread's clock and trims every slice-pointer list — so it
// synchronizes on exec.mu: the caller holds the deterministic turn (every
// clock and list is quiescent) and exec.mu orders the pass against the
// abort path and concurrent rendezvous holders. Hot paths call this while
// still holding their domain's mutex, which the lock order (domains before
// exec.mu) permits.
func (e *exec) maybeGC(t *thread, need bool) {
	if !need {
		return
	}
	if t.holdsGlobal {
		e.gcLocked()
		return
	}
	e.mu.Lock()
	e.gcLocked()
	e.mu.Unlock()
}

// stampRelease advances the domain frontier for a release with timestamp
// tend and returns the release's stamped version.
//
//detvet:holds mu
func (sh *monShard) stampRelease(tend vclock.VC) uint64 {
	sh.releases++
	return sh.frontier.Advance(tend)
}
