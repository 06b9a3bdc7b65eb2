package workloads

import (
	"fmt"

	"rfdet/internal/api"
)

// This file is the server-shaped workload: a deterministic in-memory KV
// server. Unlike the batch kernels, it has the synchronization signature of a
// request/response service — simulated client threads generate a request log
// and feed a condvar-based work queue, N worker threads drain it and serve
// GET/PUT/DELETE/SCAN/CAS against a sharded hash map guarded by per-shard
// locks, an atomic counter tracks served requests, and the workers rendezvous
// on a native barrier before the final state scan.
//
// The point of the workload is active replication (Aviram & Ford's
// fault-tolerance case for determinism): request *responses* depend on the
// order in which workers win the queue and the shard locks, so a
// nondeterministic runtime produces a different response log on every run —
// but a DMT runtime pins one schedule, making the full response log and the
// final store state a pure function of (seed, thread count). Running k
// replicas of the same log and byte-comparing their state/response hashes is
// then a complete end-to-end oracle; internal/harness/replica.go builds that
// check on top of this workload.
//
// The workload is free of data races — every shared access is ordered by the
// queue mutex, a shard lock, an atomic, the end barrier or a join — but its
// result is acquisition-order dependent, so (unlike the RaceFree batch
// kernels) its output is runtime-specific: each deterministic runtime pins
// its own single outcome, and pthreads varies.

// DefaultServerSeed is the request-log seed Server runs with; the replica
// harness and the seed-regression goldens use it too.
const DefaultServerSeed uint64 = 0x5eed0d15ea5e

// Server op codes, encoded in the request log.
const (
	serverOpGet = iota
	serverOpPut
	serverOpDelete
	serverOpScan
	serverOpCAS
	serverOpPoison // injected failing request (aborts the run)
)

// serverMiss is the response value for operations on absent keys.
const serverMiss = ^uint64(0)

// serverTomb marks a deleted hash-table slot (keys are generated ≥ 2, so the
// sentinel never collides with a live key; 0 is an empty slot).
const serverTomb = uint64(1)

// serverParams sizes one server run.
type serverParams struct {
	requests    int // total requests in the log
	clients     int // request-generating client threads
	storeShards int // KV map shards, each with its own lock
	slots       int // hash slots per shard
	keyspace    int // distinct keys (< total slots, so inserts always land)
}

func serverSizing(size Size) serverParams {
	return serverParams{
		requests:    size.pick(96, 2048, 16384),
		clients:     size.pick(2, 3, 4),
		storeShards: 8,
		slots:       size.pick(32, 256, 1024),
		keyspace:    size.pick(48, 768, 3072),
	}
}

// ServerRequests returns the request-log length the server workload runs at
// the given size — the denominator of every requests/sec figure.
func ServerRequests(size Size) int { return serverSizing(size).requests }

// Server is the deterministic KV server at the default request-log seed.
func Server(cfg Config) api.ThreadFunc { return ServerSeeded(cfg, DefaultServerSeed) }

// ServerSeeded is the deterministic KV server over the request log generated
// from the given seed. Replicas of the same (seed, cfg) pair on a
// deterministic runtime produce byte-identical state and response hashes.
func ServerSeeded(cfg Config, seed uint64) api.ThreadFunc {
	return serverProg(cfg, seed, -1)
}

// ServerPoisoned is ServerSeeded with request poisonAt replaced by a failing
// request: the worker that draws it executes a zero-count barrier, which
// aborts the whole run recoverably. The replica harness uses it to test
// divergent-by-abort reporting.
func ServerPoisoned(cfg Config, seed uint64, poisonAt int) api.ThreadFunc {
	return serverProg(cfg, seed, poisonAt)
}

func serverProg(cfg Config, seed uint64, poisonAt int) api.ThreadFunc {
	p := serverSizing(cfg.Size)
	return func(t api.Thread) {
		w := cfg.Threads
		if w < 1 {
			w = 1
		}

		// Shared layout. Every region is a separate allocation so the KV
		// shards land in distinct address ranges.
		reqLog := t.Malloc(uint64(32 * p.requests))   // op, key, arg, arg2 per request
		responses := t.Malloc(uint64(8 * p.requests)) // one response word per request
		shardBase := make([]api.Addr, p.storeShards)  // per shard: lock, 16B slots
		for s := 0; s < p.storeShards; s++ {
			shardBase[s] = t.Malloc(uint64(64 + 16*p.slots))
		}
		sync := t.Malloc(64) // served counter (+0), end barrier (+32)
		served := sync
		endBar := sync + 32
		q := newQueue(t, 16)

		shardOf := func(key uint64) api.Addr {
			return shardBase[int(key)%p.storeShards]
		}

		// Workers: drain the queue, serve requests against the sharded map.
		workers := spawnWorkers(t, w, func(c api.Thread, me int) {
			for {
				idx, ok := q.pop(c)
				if !ok {
					break
				}
				req := reqLog + api.Addr(32*idx)
				op := c.Load64(req)
				key := c.Load64(req + 8)
				arg := c.Load64(req + 16)
				arg2 := c.Load64(req + 24)

				var resp uint64
				switch op {
				case serverOpPoison:
					c.Barrier(endBar+8, 0) // zero-count barrier: aborts the run
				case serverOpScan:
					// Fold the whole shard under its lock.
					base := shardOf(key)
					c.Lock(base)
					fold := uint64(0xcbf29ce484222325)
					for s := 0; s < p.slots; s++ {
						slot := base + 64 + api.Addr(16*s)
						k := c.Load64(slot)
						if k != 0 && k != serverTomb {
							fold = checksum64(checksum64(fold, k), c.Load64(slot+8))
						}
					}
					c.Unlock(base)
					resp = fold
				default:
					base := shardOf(key)
					c.Lock(base)
					resp = serverApply(c, base+64, p.slots, op, key, arg, arg2)
					c.Unlock(base)
				}
				c.Store64(responses+api.Addr(8*idx), checksum64(checksum64(0xcbf29ce484222325, idx), resp))
				c.AtomicAdd64(served, 1)
				c.Tick(8)
			}
			c.Barrier(endBar, w) // all workers rendezvous before the state scan
		})

		// Clients: generate disjoint bands of the request log and feed the
		// queue. Each request is written before its index is pushed, so the
		// queue mutex orders the log write before any worker's read.
		clients := spawnWorkers(t, p.clients, func(c api.Thread, me int) {
			lo, hi := band(p.requests, me, p.clients)
			r := newRNG(seed*2654435761 + uint64(me) + 1)
			for i := lo; i < hi; i++ {
				op, key, arg, arg2 := serverGenRequest(&r, p.keyspace)
				if i == poisonAt {
					op = serverOpPoison
				}
				req := reqLog + api.Addr(32*i)
				c.Store64(req, op)
				c.Store64(req+8, key)
				c.Store64(req+16, arg)
				c.Store64(req+24, arg2)
				q.push(c, uint64(i))
				c.Tick(3)
			}
		})

		joinAll(t, clients)
		q.close(t)
		joinAll(t, workers)

		// State hash: the store contents in shard/slot order — the replica
		// divergence oracle for final memory.
		state := uint64(0xcbf29ce484222325)
		live := uint64(0)
		for s := 0; s < p.storeShards; s++ {
			for i := 0; i < p.slots; i++ {
				slot := shardBase[s] + 64 + api.Addr(16*i)
				k := t.Load64(slot)
				if k != 0 && k != serverTomb {
					state = checksum64(checksum64(state, k), t.Load64(slot+8))
					live++
				}
			}
		}
		// Response hash: every request's response word in log order — the
		// replica divergence oracle for served responses.
		respHash := uint64(0xcbf29ce484222325)
		for i := 0; i < p.requests; i++ {
			respHash = checksum64(respHash, t.Load64(responses+api.Addr(8*i)))
		}
		// Log digest: op mix and keys, a pure function of the seed — equal
		// across ALL runtimes and configurations (a generator sanity check).
		logHash := uint64(0xcbf29ce484222325)
		for i := 0; i < p.requests; i++ {
			logHash = checksum64(logHash, t.Load64(reqLog+api.Addr(32*i)))
			logHash = checksum64(logHash, t.Load64(reqLog+api.Addr(32*i)+8))
		}
		t.Observe(state, respHash, t.Load64(served), live, logHash)
	}
}

// serverApply performs a point operation on one shard's open-addressing
// table (linear probing, tombstone reuse). Caller holds the shard lock.
func serverApply(c api.Thread, table api.Addr, slots int, op, key, arg, arg2 uint64) uint64 {
	h := key
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	probe := int(h % uint64(slots))
	insertAt := -1 // first tombstone seen, reusable by PUT/CAS-insert
	found := -1
	for n := 0; n < slots; n++ {
		slot := table + api.Addr(16*probe)
		k := c.Load64(slot)
		if k == key {
			found = probe
			break
		}
		if k == serverTomb {
			if insertAt < 0 {
				insertAt = probe
			}
		} else if k == 0 {
			if insertAt < 0 {
				insertAt = probe
			}
			break
		}
		probe = (probe + 1) % slots
	}

	switch op {
	case serverOpGet:
		if found < 0 {
			return serverMiss
		}
		return c.Load64(table + api.Addr(16*found) + 8)
	case serverOpPut:
		if found >= 0 {
			slot := table + api.Addr(16*found)
			old := c.Load64(slot + 8)
			c.Store64(slot+8, arg)
			return old
		}
		if insertAt >= 0 {
			slot := table + api.Addr(16*insertAt)
			c.Store64(slot, key)
			c.Store64(slot+8, arg)
		}
		return serverMiss
	case serverOpDelete:
		if found < 0 {
			return serverMiss
		}
		slot := table + api.Addr(16*found)
		old := c.Load64(slot + 8)
		c.Store64(slot, serverTomb)
		c.Store64(slot+8, 0)
		return old
	default: // serverOpCAS: swap iff current == expected (arg2)
		if found < 0 {
			return 0
		}
		slot := table + api.Addr(16*found)
		old := c.Load64(slot + 8)
		if old != arg2 {
			return old * 2
		}
		c.Store64(slot+8, arg)
		return old*2 + 1
	}
}

// serverGenRequest draws one request from the client's PRNG: 40% GET,
// 30% PUT, 10% DELETE, 5% SCAN, 15% CAS over a bounded keyspace (keys ≥ 2 so
// they never collide with the empty/tombstone sentinels).
func serverGenRequest(r *rng, keyspace int) (op, key, arg, arg2 uint64) {
	key = 2 + r.next()%uint64(keyspace)
	arg = r.next()
	arg2 = r.next() % 16 // CAS expectations drawn small so some succeed
	switch d := r.next() % 100; {
	case d < 40:
		op = serverOpGet
	case d < 70:
		op = serverOpPut
		arg = arg % 16 // PUT small values so CAS expectations can match
	case d < 80:
		op = serverOpDelete
	case d < 85:
		op = serverOpScan
	default:
		op = serverOpCAS
		arg = arg % 16
	}
	return op, key, arg, arg2
}

// ServerSummary is the decoded observation record of one server execution:
// the divergence-checking fingerprint a replica exposes.
type ServerSummary struct {
	StateHash    uint64 // final store contents, shard/slot order
	ResponseHash uint64 // every request's response word, log order
	Served       uint64 // requests served (always the full log length)
	Live         uint64 // live keys in the final store
	LogHash      uint64 // request-log digest (pure function of the seed)
}

// SummarizeServer decodes the server workload's observations from a report.
func SummarizeServer(rep *api.Report) (ServerSummary, error) {
	obs := rep.Observations[0]
	if len(obs) != 5 {
		return ServerSummary{}, fmt.Errorf("workloads: server observed %d values, want 5", len(obs))
	}
	return ServerSummary{
		StateHash:    obs[0],
		ResponseHash: obs[1],
		Served:       obs[2],
		Live:         obs[3],
		LogHash:      obs[4],
	}, nil
}
